//! CUDD-style hash tables for the DD kernel: per-variable open-addressed
//! unique subtables and fixed-size direct-mapped ("computed table") apply
//! caches.
//!
//! # Unique subtables
//!
//! Hash-consing needs an *exact* map `(var, lo, hi) → node` — a missed
//! lookup would silently break the structural-equality-is-handle-equality
//! invariant. Following CUDD, the map is split into one open-addressed
//! subtable per variable: the variable selects the subtable, so the stored
//! key shrinks to `(lo, hi)` and growth is *incremental* — filling up one
//! variable's subtable rehashes only that variable's nodes, not the whole
//! forest. Each subtable stores bare `u32` node indices in a power-of-two
//! slot array probed linearly; key comparison reads `(lo, hi)` back out of
//! the caller's node arena through a closure, so the table itself stays
//! ignorant of node layout (and usable by both the ADD and BDD managers).
//!
//! # Apply caches
//!
//! Memoizing `apply(op, f, g)` does *not* need an exact map: a lost entry
//! only costs a recomputation, which — thanks to hash consing — produces
//! the very same handle. The caches here exploit that: a fixed slab of
//! slots, each key hashing to exactly one slot, colliding entries simply
//! overwriting each other. No probing, no growth, no wholesale flush when
//! "full", no per-entry allocation — a lookup is one indexed load and
//! three compares. This is CUDD's computed table, and it is what replaced
//! the grow-then-flush `HashMap` caches that previously dominated the
//! MAPI profile.
//!
//! Determinism: because every value in these caches is a canonical handle,
//! cache hits and misses are observationally equivalent — see DESIGN.md §12
//! for the argument that verdicts, witnesses and capacity-quarantine
//! behaviour are bit-for-bit unaffected by collisions.

use crate::fasthash::mix64;

/// Sentinel for an empty unique-table slot / vacant cache entry. Node
/// handles can never reach this value: ADD handles keep bit 31 free for
/// the terminal tag, and a BDD arena of `u32::MAX` nodes (48 GiB) trips
/// the node budget or the allocator first.
const EMPTY: u32 = u32::MAX;

/// Smallest slot-array size allocated once a subtable holds anything.
const MIN_SUBTABLE_SLOTS: usize = 16;

/// One variable's slice of the unique table: an open-addressed,
/// power-of-two, linearly probed set of node indices.
///
/// Capacity grows by doubling when occupancy passes 2/3 — the classic
/// trade of a little memory for short probe sequences. The table never
/// shrinks; managers are rebuilt wholesale on garbage collection.
#[derive(Debug, Default)]
pub(crate) struct Subtable {
    /// Power-of-two slot array (empty `Box<[]>` until first insert).
    slots: Box<[u32]>,
    /// Number of occupied slots.
    len: usize,
}

impl Subtable {
    /// Number of nodes stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Looks up the node whose key hashes to `hash` and satisfies `eq`.
    ///
    /// `eq` receives a stored node index and must compare the actual key
    /// (the node's children) — the hash only picks the starting slot.
    #[inline]
    pub(crate) fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let v = self.slots[i];
            if v == EMPTY {
                return None;
            }
            if eq(v) {
                return Some(v);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `value`, whose key hashes to `hash` and is known absent
    /// (callers always probe with [`Subtable::get`] first — that is the
    /// hash-consing contract).
    ///
    /// `rehash` maps a stored node index back to its key's hash; it is
    /// only called when this insert triggers a growth rehash.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64, value: u32, mut rehash: impl FnMut(u32) -> u64) {
        // Grow at 2/3 occupancy (checking before the insert keeps at least
        // one slot empty, which the unbounded probe loop in `get` relies
        // on).
        if (self.len + 1) * 3 > self.slots.len() * 2 {
            self.grow(&mut rehash);
        }
        Self::place(&mut self.slots, hash, value);
        self.len += 1;
    }

    /// Writes `value` into the first free slot of its probe sequence.
    #[inline]
    fn place(slots: &mut [u32], hash: u64, value: u32) {
        let mask = slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = value;
    }

    /// Doubles the slot array and re-places every stored index.
    #[cold]
    fn grow(&mut self, rehash: &mut impl FnMut(u32) -> u64) {
        let new_cap = (self.slots.len() * 2).max(MIN_SUBTABLE_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap].into_boxed_slice());
        for &v in old.iter() {
            if v != EMPTY {
                Self::place(&mut self.slots, rehash(v), v);
            }
        }
    }

    /// Heap bytes held by the slot array.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }
}

/// Rounds an entry-count limit down to a power of two, floored at 16.
///
/// Rounding *down* keeps the fixed slab within the byte budget the caller
/// derived the limit from.
fn slots_for(limit: usize) -> usize {
    let limit = limit.max(MIN_SUBTABLE_SLOTS);
    if limit.is_power_of_two() {
        limit
    } else {
        limit.next_power_of_two() >> 1
    }
}

/// One direct-mapped cache entry for a binary operation: 16 bytes, no
/// padding. `op == EMPTY` marks a vacant slot (real op tags are small).
#[derive(Clone, Copy)]
struct BinEntry {
    op: u32,
    f: u32,
    g: u32,
    r: u32,
}

const BIN_VACANT: BinEntry = BinEntry {
    op: EMPTY,
    f: 0,
    g: 0,
    r: 0,
};

/// Bytes per [`BinaryApplyCache`] entry (used for byte accounting).
pub(crate) const BINARY_ENTRY_BYTES: usize = std::mem::size_of::<BinEntry>();

/// Smallest slab a lossy cache materializes on first use.
const INITIAL_CACHE_SLOTS: usize = 1 << 10;

/// Direct-mapped lossy cache for binary `apply` results.
///
/// The slab grows lazily: engines configure multi-megabyte caches up front,
/// but a workload only pays for zeroing what its own `put` traffic earns —
/// starting at [`INITIAL_CACHE_SLOTS`] and growing 8× (dropping the old
/// entries, which lossiness permits) until the committed `slot_count` is
/// reached. Tiny gadget checks therefore never touch more than a few KiB.
#[derive(Debug)]
pub(crate) struct BinaryApplyCache {
    slots: Box<[BinEntry]>,
    slot_count: usize,
    puts: usize,
}

impl std::fmt::Debug for BinEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinEntry").field("op", &self.op).finish()
    }
}

impl BinaryApplyCache {
    /// A cache committing to `slots_for(limit)` slots (materialized lazily).
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            slots: Box::default(),
            slot_count: slots_for(limit),
            puts: 0,
        }
    }

    /// Materializes the initial slab or steps it 8× toward `slot_count`,
    /// dropping all entries (which a lossy cache may always do).
    #[cold]
    fn grow(&mut self) {
        let n = if self.slots.is_empty() {
            INITIAL_CACHE_SLOTS.min(self.slot_count)
        } else {
            (self.slots.len() * 8).min(self.slot_count)
        };
        self.slots = vec![BIN_VACANT; n].into_boxed_slice();
        self.puts = 0;
    }

    /// The single slot index `(op, f, g)` maps to.
    #[inline]
    fn index(&self, op: u32, f: u32, g: u32) -> usize {
        let key = (f as u64) | ((g as u64) << 32);
        (mix64(key ^ ((op as u64) << 17)) as usize) & (self.slots.len() - 1)
    }

    /// The cached result of `(op, f, g)`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, op: u32, f: u32, g: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let e = self.slots[self.index(op, f, g)];
        (e.op == op && e.f == f && e.g == g).then_some(e.r)
    }

    /// Records `(op, f, g) → r`, overwriting whatever occupied the slot.
    #[inline]
    pub(crate) fn put(&mut self, op: u32, f: u32, g: u32, r: u32) {
        if self.slots.len() < self.slot_count && self.puts >= self.slots.len() {
            self.grow();
        }
        self.puts += 1;
        let i = self.index(op, f, g);
        self.slots[i] = BinEntry { op, f, g, r };
    }

    /// Vacates every slot (a materialized slab is retained).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(BIN_VACANT);
        self.puts = 0;
    }

    /// Re-commits to `slots_for(limit)` slots, dropping all entries; the
    /// slab re-materializes under subsequent `put` traffic.
    pub(crate) fn resize(&mut self, limit: usize) {
        self.slot_count = slots_for(limit);
        self.slots = Box::default();
        self.puts = 0;
    }

    /// Fixed footprint of the committed slab in bytes (whether or not the
    /// lazy allocation has happened yet).
    pub(crate) fn bytes(&self) -> usize {
        self.slot_count * BINARY_ENTRY_BYTES
    }

    /// Number of slots (always a power of two).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slot_count
    }
}

/// One direct-mapped cache entry for a unary operation: 12 bytes.
#[derive(Clone, Copy, Debug)]
struct UnEntry {
    op: u32,
    f: u32,
    r: u32,
}

const UN_VACANT: UnEntry = UnEntry {
    op: EMPTY,
    f: 0,
    r: 0,
};

/// Bytes per [`UnaryApplyCache`] entry (used for byte accounting).
pub(crate) const UNARY_ENTRY_BYTES: usize = std::mem::size_of::<UnEntry>();

/// Direct-mapped lossy cache for unary `apply` results (lazily grown slab,
/// see [`BinaryApplyCache`]).
#[derive(Debug)]
pub(crate) struct UnaryApplyCache {
    slots: Box<[UnEntry]>,
    slot_count: usize,
    puts: usize,
}

impl UnaryApplyCache {
    /// A cache committing to `slots_for(limit)` slots (materialized lazily).
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            slots: Box::default(),
            slot_count: slots_for(limit),
            puts: 0,
        }
    }

    /// See [`BinaryApplyCache::grow`].
    #[cold]
    fn grow(&mut self) {
        let n = if self.slots.is_empty() {
            INITIAL_CACHE_SLOTS.min(self.slot_count)
        } else {
            (self.slots.len() * 8).min(self.slot_count)
        };
        self.slots = vec![UN_VACANT; n].into_boxed_slice();
        self.puts = 0;
    }

    #[inline]
    fn index(&self, op: u32, f: u32) -> usize {
        (mix64((f as u64) | ((op as u64) << 32)) as usize) & (self.slots.len() - 1)
    }

    /// The cached result of `(op, f)`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, op: u32, f: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let e = self.slots[self.index(op, f)];
        (e.op == op && e.f == f).then_some(e.r)
    }

    /// Records `(op, f) → r`, overwriting whatever occupied the slot.
    #[inline]
    pub(crate) fn put(&mut self, op: u32, f: u32, r: u32) {
        if self.slots.len() < self.slot_count && self.puts >= self.slots.len() {
            self.grow();
        }
        self.puts += 1;
        let i = self.index(op, f);
        self.slots[i] = UnEntry { op, f, r };
    }

    /// Vacates every slot (a materialized slab is retained).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(UN_VACANT);
        self.puts = 0;
    }

    /// Re-commits to `slots_for(limit)` slots, dropping all entries; the
    /// slab re-materializes under subsequent `put` traffic.
    pub(crate) fn resize(&mut self, limit: usize) {
        self.slot_count = slots_for(limit);
        self.slots = Box::default();
        self.puts = 0;
    }

    /// Fixed footprint of the committed slab in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.slot_count * UNARY_ENTRY_BYTES
    }
}

/// One direct-mapped cache entry for `ite(f, g, h)`: 16 bytes. Vacancy is
/// marked by `f == EMPTY` (never a valid handle, see [`EMPTY`]).
#[derive(Clone, Copy, Debug)]
struct TernEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const TERN_VACANT: TernEntry = TernEntry {
    f: EMPTY,
    g: 0,
    h: 0,
    r: 0,
};

/// Direct-mapped lossy cache for ternary (if-then-else) results (lazily
/// grown slab, see [`BinaryApplyCache`]).
#[derive(Debug)]
pub(crate) struct TernaryApplyCache {
    slots: Box<[TernEntry]>,
    slot_count: usize,
    puts: usize,
}

impl TernaryApplyCache {
    /// A cache committing to `slots_for(limit)` slots (materialized lazily).
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            slots: Box::default(),
            slot_count: slots_for(limit),
            puts: 0,
        }
    }

    /// See [`BinaryApplyCache::grow`].
    #[cold]
    fn grow(&mut self) {
        let n = if self.slots.is_empty() {
            INITIAL_CACHE_SLOTS.min(self.slot_count)
        } else {
            (self.slots.len() * 8).min(self.slot_count)
        };
        self.slots = vec![TERN_VACANT; n].into_boxed_slice();
        self.puts = 0;
    }

    #[inline]
    fn index(&self, f: u32, g: u32, h: u32) -> usize {
        let key =
            mix64((f as u64) | ((g as u64) << 32)) ^ (h as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mix64(key) as usize) & (self.slots.len() - 1)
    }

    /// The cached result of `ite(f, g, h)`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, f: u32, g: u32, h: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let e = self.slots[self.index(f, g, h)];
        (e.f == f && e.g == g && e.h == h).then_some(e.r)
    }

    /// Records `ite(f, g, h) → r`, overwriting whatever occupied the slot.
    #[inline]
    pub(crate) fn put(&mut self, f: u32, g: u32, h: u32, r: u32) {
        if self.slots.len() < self.slot_count && self.puts >= self.slots.len() {
            self.grow();
        }
        self.puts += 1;
        let i = self.index(f, g, h);
        self.slots[i] = TernEntry { f, g, h, r };
    }

    /// Vacates every slot (a materialized slab is retained).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(TERN_VACANT);
        self.puts = 0;
    }

    /// Fixed footprint of the committed slab in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.slot_count * std::mem::size_of::<TernEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::hash_pair;

    #[test]
    fn subtable_get_insert_grow() {
        // Model the arena externally: keys[i] is node i's (lo, hi).
        let mut keys: Vec<(u32, u32)> = Vec::new();
        let mut t = Subtable::default();
        for i in 0..500u32 {
            let key = (i * 3, i * 7 + 1);
            let h = hash_pair(key.0, key.1);
            assert_eq!(t.get(h, |v| keys[v as usize] == key), None);
            keys.push(key);
            t.insert(h, i, |v| hash_pair(keys[v as usize].0, keys[v as usize].1));
        }
        assert_eq!(t.len(), 500);
        for (i, key) in keys.iter().enumerate() {
            let h = hash_pair(key.0, key.1);
            assert_eq!(t.get(h, |v| keys[v as usize] == *key), Some(i as u32));
        }
        // Absent keys miss even after growth shuffled slots.
        assert_eq!(t.get(hash_pair(1, 2), |v| keys[v as usize] == (1, 2)), None);
        assert!(t.heap_bytes() >= 500 * 4);
    }

    #[test]
    fn slots_for_rounds_down_to_power_of_two() {
        assert_eq!(slots_for(0), 16);
        assert_eq!(slots_for(16), 16);
        assert_eq!(slots_for(17), 16);
        assert_eq!(slots_for(1 << 20), 1 << 20);
        assert_eq!(slots_for((1 << 20) + 1), 1 << 20);
        assert_eq!(slots_for((1 << 21) - 1), 1 << 20);
    }

    #[test]
    fn binary_cache_is_lossy_but_never_wrong() {
        let mut c = BinaryApplyCache::new(16);
        assert_eq!(c.slot_count(), 16);
        c.put(1, 10, 20, 99);
        assert_eq!(c.get(1, 10, 20), Some(99));
        assert_eq!(c.get(2, 10, 20), None);
        assert_eq!(c.get(1, 20, 10), None);
        // Flood with other keys: the original may be evicted, but a hit
        // must still return the right value.
        for i in 0..1000u32 {
            c.put(1, i, i + 1, i * 2);
        }
        for i in 0..1000u32 {
            if let Some(r) = c.get(1, i, i + 1) {
                assert_eq!(r, i * 2);
            }
        }
        c.clear();
        assert_eq!(c.get(1, 10, 20), None);
        assert_eq!(c.bytes(), 16 * BINARY_ENTRY_BYTES);
    }

    #[test]
    fn unary_and_ternary_caches_round_trip() {
        let mut u = UnaryApplyCache::new(16);
        u.put(7, 3, 42);
        assert_eq!(u.get(7, 3), Some(42));
        assert_eq!(u.get(8, 3), None);
        u.clear();
        assert_eq!(u.get(7, 3), None);

        let mut t = TernaryApplyCache::new(16);
        t.put(1, 2, 3, 4);
        assert_eq!(t.get(1, 2, 3), Some(4));
        assert_eq!(t.get(1, 3, 2), None);
        t.clear();
        assert_eq!(t.get(1, 2, 3), None);
    }

    #[test]
    fn entry_sizes_are_packed() {
        assert_eq!(BINARY_ENTRY_BYTES, 16);
        assert_eq!(UNARY_ENTRY_BYTES, 12);
        assert_eq!(std::mem::size_of::<TernEntry>(), 16);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random interleavings of lookups and inserts against a `HashMap`
        /// model, with a deliberately coarse hash (callers own the hash, so
        /// the table must survive arbitrary clustering): every probe answer
        /// must match the model exactly, across several growth rounds.
        #[test]
        fn subtable_matches_hashmap_model_under_collisions(
            ops in proptest::collection::vec((0u32..600, proptest::prelude::any::<bool>()), 1..400),
            hash_bits in 0u32..8,
        ) {
            use std::collections::HashMap;
            // Only `hash_bits` of hash entropy: with 0 bits every key lands
            // in the same probe chain.
            let coarse = |k: u32| u64::from(k) & ((1u64 << hash_bits) - 1);
            let mut keys: Vec<u32> = Vec::new();
            let mut t = Subtable::default();
            let mut model: HashMap<u32, u32> = HashMap::new();
            for (key, do_insert) in ops {
                let h = coarse(key);
                let got = t.get(h, |v| keys[v as usize] == key);
                proptest::prop_assert_eq!(got, model.get(&key).copied());
                if do_insert && got.is_none() {
                    let idx = keys.len() as u32;
                    keys.push(key);
                    t.insert(h, idx, |v| coarse(keys[v as usize]));
                    model.insert(key, idx);
                }
            }
            proptest::prop_assert_eq!(t.len(), model.len());
            for (&key, &idx) in &model {
                let h = coarse(key);
                proptest::prop_assert_eq!(t.get(h, |v| keys[v as usize] == key), Some(idx));
            }
        }

        /// The direct-mapped caches against a `HashMap` model: a probe may
        /// miss (lossy), but a hit must return what the model holds for the
        /// most recent `put` of that exact key.
        #[test]
        fn lossy_caches_match_hashmap_model_when_they_hit(
            ops in proptest::collection::vec((0u32..4, 0u32..40, 0u32..40, 0u32..1000), 1..300)
        ) {
            use std::collections::HashMap;
            let mut c = BinaryApplyCache::new(16);
            let mut model: HashMap<(u32, u32, u32), u32> = HashMap::new();
            for (op, f, g, r) in ops {
                if let Some(hit) = c.get(op, f, g) {
                    proptest::prop_assert_eq!(Some(hit), model.get(&(op, f, g)).copied());
                }
                c.put(op, f, g, r);
                model.insert((op, f, g), r);
                proptest::prop_assert_eq!(c.get(op, f, g), Some(r));
            }
        }
    }
}
