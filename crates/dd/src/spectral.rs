//! Walsh–Hadamard spectral transforms on decision diagrams.
//!
//! Three representations of the (normalized) Walsh spectrum
//!
//! ```text
//! W_f(α) = 2⁻ⁿ Σ_x (−1)^{f(x) ⊕ α·x}
//! ```
//!
//! are provided, matching the three engine families of the paper:
//!
//! * [`wht`] — the Fujita et al. transform (*Fast spectrum computation for
//!   logic functions using BDDs*, ISCAS '94): a butterfly recursion directly
//!   on an ADD, producing the spectrum as an ADD over the spectral
//!   coordinates. Used by the `FUJITA` engine. [`wht_with`] threads a
//!   [`WhtMemo`] so transforms of cones shared between sweep rows are
//!   computed once per sweep instead of once per row.
//! * [`walsh_sparse`] — the same recursion on a BDD but producing a sparse
//!   hash-map spectrum, memoized per BDD node in a byte-bounded
//!   [`SparseWalshCache`]. Used by the `MAP`/`MAPI` engines to obtain base
//!   spectra that are then combined by convolution.
//! * [`dense_walsh`] — the classical in-place fast WHT on a truth table;
//!   `O(n·2ⁿ)` and only suitable as a test oracle.
//!
//! All transforms agree on every function; `tests` and the crate's proptest
//! suite pin this down.

use std::rc::Rc;

use crate::add::{Add, AddManager};
use crate::bdd::{Bdd, BddManager};
use crate::dyadic::Dyadic;
use crate::fasthash::FastMap;
use crate::var::VarId;

/// Counters of a spectral memo ([`SparseWalshCache`] / [`WhtMemo`]),
/// mirroring the engine-layer prefix-cache counters so the report can
/// surface dd-layer reuse. Counters never influence results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalshCacheStats {
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that had to compute (and then memoize) the transform.
    pub misses: u64,
    /// Entries dropped to stay inside the byte budget.
    pub evictions: u64,
    /// High-water estimated heap footprint, in bytes.
    pub peak_bytes: usize,
}

/// Normalized Walsh–Hadamard transform of an arbitrary real-valued function
/// given as an ADD: returns `G` with `G(α) = 2⁻ⁿ Σ_x g(x)·(−1)^{α·x}`.
///
/// The spectral coordinate `αᵢ` reuses the decision variable `xᵢ`.
pub fn wht(adds: &mut AddManager<Dyadic>, g: Add) -> Add {
    let mut memo = WhtMemo::new();
    wht_with(adds, g, &mut memo)
}

/// [`wht`] with a caller-held [`WhtMemo`], the node-keyed partial-WHT memo
/// that persists across sweep rows.
pub fn wht_with(adds: &mut AddManager<Dyadic>, g: Add, memo: &mut WhtMemo) -> Add {
    let n = adds.num_vars();
    wht_rec(adds, g, 0, n, true, memo)
}

/// Un-normalized inverse transform: `g(x) = Σ_α G(α)·(−1)^{α·x}`.
///
/// Composing [`wht`] then [`inverse_wht`] is the identity; composing two
/// normalized transforms instead scales by `2⁻ⁿ`.
pub fn inverse_wht(adds: &mut AddManager<Dyadic>, g: Add) -> Add {
    let n = adds.num_vars();
    let mut memo = WhtMemo::new();
    wht_rec(adds, g, 0, n, false, &mut memo)
}

/// Node-keyed memo of partial WHT subresults, `(ADD node, level) → ADD`.
///
/// Hash-consed handles make the key exact: two rows whose sign-ADDs share a
/// cone share the transform of that cone. The memo survives across
/// [`wht_with`] calls (one per sweep row), is flushed wholesale when its
/// estimated footprint exceeds the byte budget (lossy, like the apply
/// caches — memoization affects time, never results), and must be cleared
/// by the owner whenever the underlying manager's handles are invalidated.
///
/// The memo is additionally backed by the manager's own binary apply cache
/// under reserved tags (L2), so an entry the L1 map dropped on a flush can
/// still be answered from the cache.
#[derive(Debug, Default)]
pub struct WhtMemo {
    memo: FastMap<(Add, u32), Add>,
    /// Byte budget for the L1 map; 0 = unbounded.
    budget_bytes: usize,
    stats: WalshCacheStats,
}

/// Estimated bytes per `(Add, u32) → Add` memo entry, map overhead
/// included.
const WHT_ENTRY_BYTES: usize = 32;

impl WhtMemo {
    /// An unbounded memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memo bounded to about `budget_bytes` (0 = unbounded).
    pub fn with_budget(budget_bytes: usize) -> Self {
        WhtMemo {
            budget_bytes,
            ..Self::default()
        }
    }

    /// The accumulated counters (they survive flushes).
    pub fn stats(&self) -> WalshCacheStats {
        self.stats
    }

    /// Estimated current heap footprint, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.memo.len() * WHT_ENTRY_BYTES
    }

    /// Drops all memoized transforms, keeping counters and configuration.
    /// Call when the owning manager's handles are invalidated.
    pub fn clear(&mut self) {
        self.memo.clear();
    }

    fn get(&mut self, key: (Add, u32)) -> Option<Add> {
        let r = self.memo.get(&key).copied();
        if r.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        r
    }

    fn put(&mut self, key: (Add, u32), r: Add) {
        if self.budget_bytes != 0 && self.heap_bytes() + WHT_ENTRY_BYTES > self.budget_bytes {
            self.stats.evictions += self.memo.len() as u64;
            self.memo.clear();
        }
        self.memo.insert(key, r);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.heap_bytes());
    }
}

fn wht_rec(
    adds: &mut AddManager<Dyadic>,
    g: Add,
    level: u32,
    n: u32,
    normalize: bool,
    memo: &mut WhtMemo,
) -> Add {
    if level == n {
        debug_assert!(g.is_terminal(), "non-terminal below the last level");
        return g;
    }
    if let Some(r) = memo.get((g, level)) {
        return r;
    }
    if normalize {
        if let Some(r) = adds.wht_l2_get(level, g) {
            memo.put((g, level), r);
            return r;
        }
    }
    let (g0, g1) = match adds.node_parts(g) {
        Some((v, lo, hi)) if v.0 == level => (lo, hi),
        _ => (g, g),
    };
    let t0 = wht_rec(adds, g0, level + 1, n, normalize, memo);
    let t1 = wht_rec(adds, g1, level + 1, n, normalize, memo);
    let mut sum = adds.add_op(t0, t1);
    let mut diff = adds.sub_op(t0, t1);
    if normalize {
        sum = adds.half_op(sum);
        diff = adds.half_op(diff);
    }
    let r = adds.mk(VarId(level), sum, diff);
    memo.put((g, level), r);
    if normalize {
        adds.wht_l2_put(level, g, r);
    }
    r
}

/// In-place unnormalized Walsh–Hadamard butterfly over a flat slice, the
/// kernel of [`dense_walsh`].
fn wht_butterfly(v: &mut [i64]) {
    let mut h = 1;
    while h < v.len() {
        let mut base = 0;
        while base < v.len() {
            for i in base..base + h {
                let (a, b) = (v[i], v[i + h]);
                v[i] = a + b;
                v[i + h] = a - b;
            }
            base += h * 2;
        }
        h *= 2;
    }
}

/// The normalized Walsh spectrum of the Boolean function `f` as an ADD over
/// the spectral coordinates (the sign encoding `(−1)^f` is transformed).
pub fn walsh_add(bdds: &BddManager, adds: &mut AddManager<Dyadic>, f: Bdd) -> Add {
    assert_eq!(bdds.num_vars(), adds.num_vars(), "mismatched domains");
    let sign = adds.from_bdd(bdds, f, Dyadic::MINUS_ONE, Dyadic::ONE);
    wht(adds, sign)
}

/// The sign encoding `(−1)^f` of a Boolean function as an ADD.
pub fn sign_add(bdds: &BddManager, adds: &mut AddManager<Dyadic>, f: Bdd) -> Add {
    adds.from_bdd(bdds, f, Dyadic::MINUS_ONE, Dyadic::ONE)
}

/// Estimated bytes of one memoized sparse spectrum with `len` lines.
fn sparse_entry_bytes(len: usize) -> usize {
    len * 48 + 64
}

/// Memoization storage for [`walsh_sparse`], reusable across calls on the
/// same [`BddManager`] so that shared subgraphs are only transformed once.
///
/// The cache can be byte-bounded ([`SparseWalshCache::with_budget`]): when
/// the estimated footprint exceeds the budget, least-recently-used entries
/// are evicted down to 7/8 of the budget (the engine prefix-cache policy).
/// Eviction only forces recomputation — every memo entry is the exact
/// spectrum of its node, so results are identical at any budget.
#[derive(Debug, Default)]
pub struct SparseWalshCache {
    memo: FastMap<Bdd, (Rc<FastMap<u128, Dyadic>>, u64)>,
    /// Monotone probe counter backing the LRU ticks.
    tick: u64,
    /// Estimated bytes held; tracked incrementally.
    bytes: usize,
    /// Byte budget; 0 = unbounded.
    budget_bytes: usize,
    stats: WalshCacheStats,
}

impl SparseWalshCache {
    /// Creates an unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache bounded to about `budget_bytes` (0 = unbounded).
    pub fn with_budget(budget_bytes: usize) -> Self {
        SparseWalshCache {
            budget_bytes,
            ..Self::default()
        }
    }

    /// Number of memoized BDD nodes.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// The accumulated counters (they survive evictions).
    pub fn stats(&self) -> WalshCacheStats {
        self.stats
    }

    /// Estimated current heap footprint, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bytes
    }

    /// Drops all entries, keeping counters and configuration. Call when
    /// the owning manager's handles are invalidated.
    pub fn clear(&mut self) {
        self.memo.clear();
        self.bytes = 0;
    }

    fn get(&mut self, f: Bdd) -> Option<Rc<FastMap<u128, Dyadic>>> {
        self.tick += 1;
        let tick = self.tick;
        match self.memo.get_mut(&f) {
            Some((rc, t)) => {
                *t = tick;
                self.stats.hits += 1;
                Some(Rc::clone(rc))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, f: Bdd, rc: Rc<FastMap<u128, Dyadic>>) {
        self.tick += 1;
        self.bytes += sparse_entry_bytes(rc.len());
        self.memo.insert(f, (rc, self.tick));
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
        if self.budget_bytes != 0 && self.bytes > self.budget_bytes {
            self.evict_to(self.budget_bytes - self.budget_bytes / 8);
        }
    }

    /// Evicts least-recently-used entries until at most `target` bytes
    /// remain (the newest entry is always kept).
    fn evict_to(&mut self, target: usize) {
        let mut by_age: Vec<(u64, Bdd, usize)> = self
            .memo
            .iter()
            .map(|(&f, (rc, t))| (*t, f, sparse_entry_bytes(rc.len())))
            .collect();
        by_age.sort_unstable();
        for (tick, f, entry_bytes) in by_age {
            if self.bytes <= target || tick == self.tick {
                break;
            }
            self.memo.remove(&f);
            self.bytes -= entry_bytes;
            self.stats.evictions += 1;
        }
    }
}

/// Sparse normalized Walsh spectrum of `f`: a map from spectral coordinate
/// `α` (bit `i` = variable `i`) to the non-zero coefficient `W_f(α)`.
///
/// Coefficients on variables outside `f`'s support are zero and never appear
/// as keys, so the map size is bounded by `2^|support(f)|` regardless of the
/// manager's width.
pub fn walsh_sparse(
    bdds: &BddManager,
    f: Bdd,
    cache: &mut SparseWalshCache,
) -> Rc<FastMap<u128, Dyadic>> {
    if f == Bdd::FALSE {
        return Rc::new([(0u128, Dyadic::ONE)].into_iter().collect());
    }
    if f == Bdd::TRUE {
        return Rc::new([(0u128, Dyadic::MINUS_ONE)].into_iter().collect());
    }
    if let Some(r) = cache.get(f) {
        return r;
    }
    let (var, lo, hi) = bdds.node(f).expect("non-terminal");
    let w0 = walsh_sparse(bdds, lo, cache);
    let w1 = walsh_sparse(bdds, hi, cache);
    let mut out: FastMap<u128, Dyadic> =
        FastMap::with_capacity_and_hasher(w0.len() + w1.len(), Default::default());
    let bit = 1u128 << var.0;
    for (&k, &c0) in w0.iter() {
        let c1 = w1.get(&k).copied().unwrap_or(Dyadic::ZERO);
        let sum = (c0 + c1).half();
        let diff = (c0 - c1).half();
        if !sum.is_zero() {
            out.insert(k, sum);
        }
        if !diff.is_zero() {
            out.insert(k | bit, diff);
        }
    }
    for (&k, &c1) in w1.iter() {
        if w0.contains_key(&k) {
            continue;
        }
        let sum = c1.half();
        if !sum.is_zero() {
            out.insert(k, sum);
            out.insert(k | bit, -sum);
        }
    }
    let rc = Rc::new(out);
    cache.put(f, Rc::clone(&rc));
    rc
}

/// Reference dense WHT: normalized spectrum of a truth table.
///
/// `bits[x]` is `f(x)` with `x` read as the assignment (bit `i` = variable
/// `i`). The length must be a power of two.
///
/// # Panics
///
/// Panics if `bits.len()` is not a power of two.
pub fn dense_walsh(bits: &[bool]) -> Vec<Dyadic> {
    assert!(
        bits.len().is_power_of_two(),
        "truth table length must be 2^n"
    );
    let mut v: Vec<i64> = bits.iter().map(|&b| if b { -1 } else { 1 }).collect();
    wht_butterfly(&mut v);
    let log = v.len().trailing_zeros() as i32;
    v.into_iter()
        .map(|c| Dyadic::new(i128::from(c), -log))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarSet;

    fn truth_table(bdds: &BddManager, f: Bdd) -> Vec<bool> {
        let n = bdds.num_vars();
        (0..1u128 << n).map(|a| bdds.eval(f, a)).collect()
    }

    fn check_all_transforms_agree(bdds: &BddManager, adds: &mut AddManager<Dyadic>, f: Bdd) {
        let n = bdds.num_vars();
        let dense = dense_walsh(&truth_table(bdds, f));
        let spectrum_add = walsh_add(bdds, adds, f);
        let mut cache = SparseWalshCache::new();
        let sparse = walsh_sparse(bdds, f, &mut cache);
        for alpha in 0..1u128 << n {
            let expect = dense[alpha as usize];
            assert_eq!(*adds.eval(spectrum_add, alpha), expect, "ADD at α={alpha}");
            let got = sparse.get(&alpha).copied().unwrap_or(Dyadic::ZERO);
            assert_eq!(got, expect, "sparse at α={alpha}");
        }
    }

    #[test]
    fn spectrum_of_constants() {
        let b = BddManager::new(3);
        let mut a = AddManager::new(3);
        check_all_transforms_agree(&b, &mut a, Bdd::TRUE);
        check_all_transforms_agree(&b, &mut a, Bdd::FALSE);
        let t = b.constant(true);
        let mut cache = SparseWalshCache::new();
        let s = walsh_sparse(&b, t, &mut cache);
        assert_eq!(s.get(&0), Some(&Dyadic::MINUS_ONE));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn spectrum_of_literal_and_xor() {
        let mut b = BddManager::new(3);
        let mut a = AddManager::new(3);
        let x = b.var(VarId(0));
        check_all_transforms_agree(&b, &mut a, x);
        let vars: VarSet = (0..3).map(VarId).collect();
        let p = b.parity(vars);
        check_all_transforms_agree(&b, &mut a, p);
        // Parity has a single spectral line at α = 111 where f(x) ⊕ α·x ≡ 0.
        let mut cache = SparseWalshCache::new();
        let s = walsh_sparse(&b, p, &mut cache);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&0b111), Some(&Dyadic::ONE));
    }

    #[test]
    fn spectrum_of_and_or_majority() {
        let mut b = BddManager::new(3);
        let mut a = AddManager::new(3);
        let x = b.var(VarId(0));
        let y = b.var(VarId(1));
        let z = b.var(VarId(2));
        let xy = b.and(x, y);
        check_all_transforms_agree(&b, &mut a, xy);
        let or3 = b.or(xy, z);
        check_all_transforms_agree(&b, &mut a, or3);
        let yz = b.and(y, z);
        let xz = b.and(x, z);
        let t = b.or(xy, yz);
        let maj = b.or(t, xz);
        check_all_transforms_agree(&b, &mut a, maj);
    }

    #[test]
    fn masked_and_spectrum_has_no_secret_line() {
        // f = (a ∧ b) ⊕ r is uncorrelated with every α not involving r.
        let mut b = BddManager::new(3);
        let a_ = b.var(VarId(0));
        let b_ = b.var(VarId(1));
        let r = b.var(VarId(2));
        let ab = b.and(a_, b_);
        let f = b.xor(ab, r);
        let mut cache = SparseWalshCache::new();
        let s = walsh_sparse(&b, f, &mut cache);
        for (&alpha, c) in s.iter() {
            assert!(!c.is_zero());
            assert!(
                alpha >> 2 & 1 == 1,
                "entry at α={alpha:b} without the mask bit"
            );
        }
    }

    #[test]
    fn parseval_holds_for_sparse_spectra() {
        let mut b = BddManager::new(4);
        let w = b.var(VarId(0));
        let x = b.var(VarId(1));
        let y = b.var(VarId(2));
        let z = b.var(VarId(3));
        let wx = b.and(w, x);
        let yz = b.xor(y, z);
        let f = b.or(wx, yz);
        let mut cache = SparseWalshCache::new();
        let s = walsh_sparse(&b, f, &mut cache);
        let energy: Dyadic = s.values().map(|c| *c * *c).sum();
        assert_eq!(energy, Dyadic::ONE);
    }

    #[test]
    fn inverse_wht_round_trips() {
        let mut b = BddManager::new(3);
        let mut a = AddManager::new(3);
        let x = b.var(VarId(0));
        let y = b.var(VarId(1));
        let f = b.nand(x, y);
        let sign = sign_add(&b, &mut a, f);
        let spec = wht(&mut a, sign);
        let back = inverse_wht(&mut a, spec);
        assert_eq!(back, sign);
    }

    #[test]
    fn dense_walsh_small_cases() {
        // f(x) = x on one variable: W(0)=0, W(1)=1... with sign convention
        // W(1) = ½((−1)^0·(−1)^0 + (−1)^1·(−1)^1) = 1.
        let s = dense_walsh(&[false, true]);
        assert_eq!(s[0], Dyadic::ZERO);
        assert_eq!(s[1], Dyadic::ONE);
        // AND of two variables.
        let s = dense_walsh(&[false, false, false, true]);
        assert_eq!(s[0], Dyadic::new(1, -1));
        assert_eq!(s[0b11], Dyadic::new(-1, -1));
    }

    #[test]
    fn cache_is_reused_across_functions() {
        let mut b = BddManager::new(3);
        let x = b.var(VarId(0));
        let y = b.var(VarId(1));
        let f = b.and(x, y);
        let g = b.or(f, x);
        let mut cache = SparseWalshCache::new();
        let _ = walsh_sparse(&b, f, &mut cache);
        let filled = cache.len();
        assert!(filled > 0);
        let _ = walsh_sparse(&b, g, &mut cache);
        assert!(cache.len() >= filled);
        let stats = cache.stats();
        assert!(stats.misses >= filled as u64);
        assert_eq!(stats.evictions, 0, "unbounded cache never evicts");
    }

    #[test]
    fn wht_memo_is_reused_across_rows_and_flushes_on_budget() {
        let mut b = BddManager::new(5);
        let mut adds: AddManager<Dyadic> = AddManager::new(5);
        let x = b.var(VarId(0));
        let y = b.var(VarId(1));
        let z = b.var(VarId(4));
        let xy = b.and(x, y);
        let f = b.xor(xy, z);
        let g = b.or(xy, z);
        let mut memo = WhtMemo::new();
        let sf = sign_add(&b, &mut adds, f);
        let sg = sign_add(&b, &mut adds, g);
        let wf = wht_with(&mut adds, sf, &mut memo);
        let after_first = memo.stats();
        assert!(after_first.misses > 0);
        // Re-transforming the same row is pure hits.
        let wf2 = wht_with(&mut adds, sf, &mut memo);
        assert_eq!(wf, wf2);
        let after_repeat = memo.stats();
        assert_eq!(after_repeat.misses, after_first.misses);
        assert!(after_repeat.hits > after_first.hits);
        // A different row sharing cones still gets some hits.
        let _ = wht_with(&mut adds, sg, &mut memo);
        // A tiny budget forces flushes but not wrong results. A fresh
        // manager sidesteps the L2 apply-cache, which would otherwise
        // answer before the L1 ever fills.
        let mut adds2: AddManager<Dyadic> = AddManager::new(5);
        let mut tiny = WhtMemo::with_budget(WHT_ENTRY_BYTES * 2);
        let sf2 = sign_add(&b, &mut adds2, f);
        let wf3 = wht_with(&mut adds2, sf2, &mut tiny);
        for alpha in 0..1u128 << 5 {
            assert_eq!(adds.eval(wf, alpha), adds2.eval(wf3, alpha));
        }
        assert!(tiny.stats().evictions > 0);
    }

    #[test]
    fn bounded_sparse_cache_evicts_lru_and_keeps_results() {
        let mut b = BddManager::new(8);
        let mut funcs = Vec::new();
        for v in 0..7u32 {
            let x = b.var(VarId(v));
            let y = b.var(VarId(v + 1));
            let xy = b.and(x, y);
            let z = b.var(VarId((v + 3) % 8));
            funcs.push(b.xor(xy, z));
        }
        let mut unbounded = SparseWalshCache::new();
        let mut bounded = SparseWalshCache::with_budget(sparse_entry_bytes(8) * 4);
        for &f in &funcs {
            let a = walsh_sparse(&b, f, &mut unbounded);
            let c = walsh_sparse(&b, f, &mut bounded);
            assert_eq!(*a, *c);
        }
        let stats = bounded.stats();
        assert!(stats.evictions > 0, "budget must force evictions");
        assert!(bounded.heap_bytes() <= sparse_entry_bytes(8) * 4);
        assert!(stats.peak_bytes > 0);
        // Evicted entries recompute correctly.
        for &f in &funcs {
            let a = walsh_sparse(&b, f, &mut unbounded);
            let c = walsh_sparse(&b, f, &mut bounded);
            assert_eq!(*a, *c);
        }
    }
}
