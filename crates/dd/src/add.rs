//! Algebraic decision diagrams (ADDs) with generic terminal values.
//!
//! An ADD represents a function `{0,1}ⁿ → S` for an arbitrary value set `S`
//! (Bahar et al., *Algebraic Decision Diagrams and Their Applications*). When
//! `S = {0, 1}` an ADD degenerates to a BDD. [`AddManager`] is hash-consed in
//! the same style as [`crate::bdd::BddManager`]: structural
//! equality of functions is handle equality, and binary operations are
//! memoized.
//!
//! The hot structures follow CUDD (see DESIGN.md §12): each manager owns its
//! node arena, hash consing goes through open-addressed unique tables, and
//! memoization through fixed-size direct-mapped lossy caches (the
//! crate-private `table` module). The [`Dyadic`] arithmetic used by the
//! probing-security engines is additionally monomorphized with algebraic
//! short-circuits (`0 + f = f`, `0 · f = 0`, `1 · f = f`, `f − f = 0`)
//! checked before any cache probe.
//!
//! ```
//! use walshcheck_dd::add::AddManager;
//! use walshcheck_dd::dyadic::Dyadic;
//! use walshcheck_dd::var::VarId;
//!
//! let mut m = AddManager::new(2);
//! let x = m.indicator(VarId(0), Dyadic::ONE, Dyadic::ZERO);
//! let y = m.indicator(VarId(1), Dyadic::from_int(2), Dyadic::ZERO);
//! let s = m.add_op(x, y);
//! assert_eq!(*m.eval(s, 0b11), Dyadic::from_int(3));
//! assert_eq!(*m.eval(s, 0b00), Dyadic::ZERO);
//! ```

use std::fmt::Debug;
use std::hash::Hash;

use crate::bdd::{Bdd, BddManager};
use crate::budget::NodeBudget;
use crate::dyadic::Dyadic;
use crate::fasthash::{hash_pair, FastMap, FastSet};
use crate::table::{BinaryApplyCache, Subtable, UnaryApplyCache};
use crate::var::{VarId, VarSet};

/// Handle to an ADD node inside an [`AddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Add(u32);

const TERM_BIT: u32 = 1 << 31;

/// First apply-cache op tag reserved for the partial-WHT L2 memo
/// (`WHT_OP_BASE + level`). User-visible [`AddManager::apply2`] tokens are
/// `u8`, so tags at 256 and above can never collide with an operator.
const WHT_OP_BASE: u32 = 1 << 8;
const TERMINAL_VAR: u32 = u32::MAX;

impl Add {
    /// Whether this handle denotes a terminal (constant) node.
    pub fn is_terminal(self) -> bool {
        self.0 & TERM_BIT != 0
    }

    fn term_index(self) -> usize {
        (self.0 & !TERM_BIT) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Add,
    hi: Add,
}

/// Counters of the memoization caches behind [`AddManager::apply2`] /
/// [`AddManager::apply1`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyCacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Results computed and inserted.
    pub misses: u64,
    /// Cache generations retired via [`AddManager::clear_caches`] or a
    /// resizing [`AddManager::set_apply_cache_limit`]. The direct-mapped
    /// caches never flush wholesale on their own — a colliding insert
    /// overwrites one slot instead.
    pub flushes: u64,
}

/// Default per-cache slot budget (see
/// [`AddManager::set_apply_cache_limit`]). The engines override this from
/// their byte budget; the default keeps a standalone manager around 1 MiB.
const DEFAULT_APPLY_CACHE_LIMIT: usize = 1 << 16;

/// Small-terminal intern table size. The first few distinct terminals a
/// manager sees are the workload's ubiquitous constants (0, ±1, ±½, …);
/// serving them from a linear scan skips the hash path of `term_unique`.
const SMALL_TERMS: usize = 8;

/// An arena-based hash-consed ADD manager over terminal values of type `T`.
///
/// Terminal values are interned, so `T` must have a canonical representation
/// (`Eq`/`Hash` must agree with semantic equality).
#[derive(Debug)]
pub struct AddManager<T> {
    nodes: Vec<Node>,
    /// One unique subtable per variable; the variable index selects the
    /// subtable, the `(lo, hi)` pair is the key (see [`crate::table`]).
    unique: Vec<Subtable>,
    terminals: Vec<T>,
    term_unique: FastMap<T, Add>,
    /// The first [`SMALL_TERMS`] interned terminals, scanned linearly
    /// before `term_unique`.
    term_small: Vec<(T, Add)>,
    binary_cache: BinaryApplyCache,
    unary_cache: UnaryApplyCache,
    apply_stats: ApplyCacheStats,
    /// `apply_stats.misses` at the last flush, to count a flush only when
    /// the caches could hold something.
    misses_at_flush: u64,
    budget: NodeBudget,
    num_vars: u32,
}

impl<T: Clone + Eq + Hash + Debug> AddManager<T> {
    /// Creates a manager with `num_vars` variables (levels `0..num_vars`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds [`VarId::MAX_VARS`].
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars <= VarId::MAX_VARS, "too many variables");
        AddManager {
            nodes: Vec::new(),
            unique: (0..num_vars).map(|_| Subtable::default()).collect(),
            terminals: Vec::new(),
            term_unique: FastMap::default(),
            term_small: Vec::new(),
            binary_cache: BinaryApplyCache::new(DEFAULT_APPLY_CACHE_LIMIT),
            unary_cache: UnaryApplyCache::new(DEFAULT_APPLY_CACHE_LIMIT >> 4),
            apply_stats: ApplyCacheStats::default(),
            misses_at_flush: 0,
            budget: NodeBudget::default(),
            num_vars,
        }
    }

    /// Installs (or clears, with `None`) a node-growth budget and rebases
    /// its baseline to the current arena size. Once set, interning more
    /// than `limit` new internal nodes past the most recent
    /// [`AddManager::rebase_node_budget`] raises a
    /// [`crate::budget::CapacityExceeded`] panic payload for the caller to
    /// `catch_unwind`.
    pub fn set_node_budget(&mut self, limit: Option<usize>) {
        self.budget.set(limit, self.nodes.len());
    }

    /// Moves the budget baseline to the current arena size, making existing
    /// structure free. Call at each unit-of-work (tuple) boundary.
    pub fn rebase_node_budget(&mut self) {
        self.budget.rebase(self.nodes.len());
    }

    /// Sizes the apply caches to about `limit` slots (rounded down to a
    /// power of two, floored at 16). The caches are fixed direct-mapped
    /// slabs: they allocate their full footprint up front and colliding
    /// entries overwrite each other, so this bounds memory exactly.
    /// Memoization only affects time, never results, so any limit is safe.
    /// Resizing to a different slot count drops all cached entries.
    pub fn set_apply_cache_limit(&mut self, limit: usize) {
        self.binary_cache.resize(limit);
        self.unary_cache.resize((limit >> 4).max(16));
    }

    /// The apply-cache counters accumulated so far (they survive flushes).
    pub fn apply_cache_stats(&self) -> ApplyCacheStats {
        self.apply_stats
    }

    /// Heap footprint of both apply-cache slabs, in bytes. Fixed by
    /// [`AddManager::set_apply_cache_limit`] — it does not vary with
    /// occupancy, because the slabs are allocated in full up front.
    pub fn apply_cache_bytes(&self) -> usize {
        self.binary_cache.bytes() + self.unary_cache.bytes()
    }

    /// Heap footprint of the unique table's slot arrays, in bytes.
    pub fn unique_table_bytes(&self) -> usize {
        self.unique.iter().map(Subtable::heap_bytes).sum()
    }

    /// Number of variables managed.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The internal node behind `f` (which must not be terminal).
    #[inline]
    fn inode(&self, f: Add) -> Node {
        self.nodes[f.0 as usize]
    }

    /// Probes the apply-cache-backed L2 memo for the normalized partial
    /// WHT of `f` from `level` down (see `spectral::wht_with`). The entry
    /// lives in the ordinary binary apply cache under op tags above the
    /// `u8` token space, which keeps it disjoint from every
    /// [`AddManager::apply2`] operator.
    pub fn wht_l2_get(&self, level: u32, f: Add) -> Option<Add> {
        self.binary_cache.get(WHT_OP_BASE + level, f.0, 0).map(Add)
    }

    /// Records a normalized partial-WHT result in the L2 memo; see
    /// [`AddManager::wht_l2_get`].
    pub fn wht_l2_put(&mut self, level: u32, f: Add, r: Add) {
        self.binary_cache.put(WHT_OP_BASE + level, f.0, 0, r.0);
    }

    /// Interns and returns the constant function `value`.
    pub fn constant(&mut self, value: T) -> Add {
        for (v, id) in &self.term_small {
            if *v == value {
                return *id;
            }
        }
        if let Some(&id) = self.term_unique.get(&value) {
            return id;
        }
        let idx = u32::try_from(self.terminals.len()).expect("terminal table full");
        assert!(idx & TERM_BIT == 0, "terminal table full");
        let id = Add(TERM_BIT | idx);
        self.terminals.push(value.clone());
        if self.term_small.len() < SMALL_TERMS {
            self.term_small.push((value.clone(), id));
        }
        self.term_unique.insert(value, id);
        id
    }

    /// The terminal value of a constant node, or `None` for internal nodes.
    pub fn terminal_value(&self, f: Add) -> Option<&T> {
        f.is_terminal().then(|| &self.terminals[f.term_index()])
    }

    /// Decomposes an internal node into `(var, lo, hi)`, or `None` for
    /// terminals.
    pub fn node_parts(&self, f: Add) -> Option<(VarId, Add, Add)> {
        if f.is_terminal() {
            None
        } else {
            let n = self.inode(f);
            Some((VarId(n.var), n.lo, n.hi))
        }
    }

    fn var_of(&self, f: Add) -> u32 {
        if f.is_terminal() {
            TERMINAL_VAR
        } else {
            self.inode(f).var
        }
    }

    /// Interns the internal node `(var, lo, hi)` with the reduction rule.
    pub fn mk(&mut self, var: VarId, lo: Add, hi: Add) -> Add {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var.0 < self.var_of(lo) && var.0 < self.var_of(hi),
            "ordering violated"
        );
        let h = hash_pair(lo.0, hi.0);
        let nodes = &self.nodes;
        let sub = &mut self.unique[var.0 as usize];
        if let Some(found) = sub.get(h, |i| {
            let n = &nodes[i as usize];
            n.lo == lo && n.hi == hi
        }) {
            return Add(found);
        }
        self.budget.charge("add-arena", self.nodes.len());
        let raw = u32::try_from(self.nodes.len()).expect("ADD arena full");
        assert!(raw & TERM_BIT == 0, "ADD arena full");
        self.nodes.push(Node { var: var.0, lo, hi });
        let nodes = &self.nodes;
        self.unique[var.0 as usize].insert(h, raw, |i| {
            let n = &nodes[i as usize];
            hash_pair(n.lo.0, n.hi.0)
        });
        Add(raw)
    }

    /// The function that is `hi_value` when `v` is 1 and `lo_value` otherwise.
    pub fn indicator(&mut self, v: VarId, hi_value: T, lo_value: T) -> Add {
        assert!(v.0 < self.num_vars, "unknown variable {v}");
        let h = self.constant(hi_value);
        let l = self.constant(lo_value);
        self.mk(v, l, h)
    }

    /// Evaluates `f` under `assignment` (bit `i` = variable `i`).
    pub fn eval(&self, f: Add, assignment: u128) -> &T {
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.inode(cur);
            cur = if assignment >> n.var & 1 == 1 {
                n.hi
            } else {
                n.lo
            };
        }
        &self.terminals[cur.term_index()]
    }

    /// Top variable and cofactor pairs of `(f, g)` for the apply recursion.
    #[inline]
    fn cofactors2(&self, f: Add, g: Add) -> (u32, Add, Add, Add, Add) {
        let vf = self.var_of(f);
        let vg = self.var_of(g);
        let top = vf.min(vg);
        let (f0, f1) = if vf == top {
            let n = self.inode(f);
            (n.lo, n.hi)
        } else {
            (f, f)
        };
        let (g0, g1) = if vg == top {
            let n = self.inode(g);
            (n.lo, n.hi)
        } else {
            (g, g)
        };
        (top, f0, f1, g0, g1)
    }

    /// Applies a binary pointwise operation. `token` identifies the operation
    /// in the memoization cache and must be distinct for semantically
    /// distinct closures; tokens 1–3 and 16–17 are reserved for the built-in
    /// [`Dyadic`] operations.
    pub fn apply2(&mut self, token: u8, f: Add, g: Add, op: &impl Fn(&T, &T) -> T) -> Add {
        if let (Some(a), Some(b)) = (self.terminal_value(f), self.terminal_value(g)) {
            let v = op(a, b);
            return self.constant(v);
        }
        if let Some(r) = self.binary_cache.get(token as u32, f.0, g.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let (top, f0, f1, g0, g1) = self.cofactors2(f, g);
        let r0 = self.apply2(token, f0, g0, op);
        let r1 = self.apply2(token, f1, g1, op);
        let r = self.mk(VarId(top), r0, r1);
        self.apply_stats.misses += 1;
        self.binary_cache.put(token as u32, f.0, g.0, r.0);
        r
    }

    /// Applies a unary pointwise operation with memoization token `token`
    /// (tokens 16–17 are reserved for the built-in [`Dyadic`] operations).
    pub fn apply1(&mut self, token: u8, f: Add, op: &impl Fn(&T) -> T) -> Add {
        if let Some(a) = self.terminal_value(f) {
            let v = op(a);
            return self.constant(v);
        }
        if let Some(r) = self.unary_cache.get(token as u32, f.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let n = self.inode(f);
        let r0 = self.apply1(token, n.lo, op);
        let r1 = self.apply1(token, n.hi, op);
        let r = self.mk(VarId(n.var), r0, r1);
        self.apply_stats.misses += 1;
        self.unary_cache.put(token as u32, f.0, r.0);
        r
    }

    /// Structurally copies a BDD into this manager, mapping the `true`
    /// terminal to `then_value` and `false` to `else_value`.
    #[allow(clippy::wrong_self_convention)] // conversion *into* this manager
    pub fn from_bdd(&mut self, bdds: &BddManager, f: Bdd, then_value: T, else_value: T) -> Add {
        let mut memo: FastMap<Bdd, Add> = FastMap::default();
        let t = self.constant(then_value);
        let e = self.constant(else_value);
        self.from_bdd_rec(bdds, f, t, e, &mut memo)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_bdd_rec(
        &mut self,
        bdds: &BddManager,
        f: Bdd,
        t: Add,
        e: Add,
        memo: &mut FastMap<Bdd, Add>,
    ) -> Add {
        if f == Bdd::TRUE {
            return t;
        }
        if f == Bdd::FALSE {
            return e;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (var, lo, hi) = bdds.node(f).expect("non-terminal");
        let rlo = self.from_bdd_rec(bdds, lo, t, e, memo);
        let rhi = self.from_bdd_rec(bdds, hi, t, e, memo);
        let r = self.mk(var, rlo, rhi);
        memo.insert(f, r);
        r
    }

    /// Builds the BDD of `{x : pred(f(x))}` in `bdds`.
    pub fn to_bdd(&self, bdds: &mut BddManager, f: Add, pred: &impl Fn(&T) -> bool) -> Bdd {
        let mut memo: FastMap<Add, Bdd> = FastMap::default();
        self.to_bdd_rec(bdds, f, pred, &mut memo)
    }

    fn to_bdd_rec(
        &self,
        bdds: &mut BddManager,
        f: Add,
        pred: &impl Fn(&T) -> bool,
        memo: &mut FastMap<Add, Bdd>,
    ) -> Bdd {
        if let Some(v) = self.terminal_value(f) {
            return bdds.constant(pred(v));
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.inode(f);
        let rlo = self.to_bdd_rec(bdds, n.lo, pred, memo);
        let rhi = self.to_bdd_rec(bdds, n.hi, pred, memo);
        let v = bdds.var(VarId(n.var));
        let r = bdds.ite(v, rhi, rlo);
        memo.insert(f, r);
        r
    }

    /// The set of variables `f` structurally depends on.
    pub fn support(&self, f: Add) -> VarSet {
        let mut seen: FastSet<Add> = FastSet::default();
        let mut stack = vec![f];
        let mut s = VarSet::EMPTY;
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = self.inode(n);
            s.insert(VarId(node.var));
            stack.push(node.lo);
            stack.push(node.hi);
        }
        s
    }

    /// Number of distinct nodes reachable from `f` (including terminals).
    pub fn node_count(&self, f: Add) -> usize {
        let mut seen: FastSet<Add> = FastSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if seen.insert(n) && !n.is_terminal() {
                let node = self.inode(n);
                stack.push(node.lo);
                stack.push(node.hi);
            }
        }
        seen.len()
    }

    /// A chain ADD that is `value` exactly on the full assignment of `vars`
    /// described by `polarity`, and `default` elsewhere.
    pub fn cube_terminal(&mut self, vars: VarSet, polarity: u128, value: T, default: T) -> Add {
        let mut acc = self.constant(value);
        let def = self.constant(default);
        let members: Vec<VarId> = vars.iter().collect();
        for v in members.into_iter().rev() {
            acc = if polarity >> v.0 & 1 == 1 {
                self.mk(v, def, acc)
            } else {
                self.mk(v, acc, def)
            };
        }
        acc
    }

    /// Builds the ADD of a sparse function in one radix pass: `entries`
    /// maps full assignments (bit `i` = variable `i`) to values, everything
    /// else is `default`. Duplicate keys must not occur.
    ///
    /// This is the fast path for converting a convolution hash map into an
    /// ADD (linear in `entries.len() × num_vars`, no apply-cache traffic).
    #[allow(clippy::wrong_self_convention)] // conversion *into* this manager
    pub fn from_sparse(&mut self, entries: Vec<(u128, T)>, default: T) -> Add {
        let n = self.num_vars;
        let def = self.constant(default);
        self.from_sparse_rec(0, n, entries, def)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_sparse_rec(&mut self, level: u32, n: u32, entries: Vec<(u128, T)>, def: Add) -> Add {
        if entries.is_empty() {
            return def;
        }
        if level == n {
            debug_assert_eq!(entries.len(), 1, "duplicate sparse keys");
            let (_, v) = entries.into_iter().next().expect("non-empty");
            return self.constant(v);
        }
        let bit = 1u128 << level;
        let (hi, lo): (Vec<_>, Vec<_>) = entries.into_iter().partition(|(k, _)| k & bit != 0);
        let l = self.from_sparse_rec(level + 1, n, lo, def);
        let h = self.from_sparse_rec(level + 1, n, hi, def);
        self.mk(VarId(level), l, h)
    }

    /// Invokes `callback(assignment, value)` for every full assignment whose
    /// terminal value differs from `zero`, expanding skipped variables.
    ///
    /// Intended for extraction of sparse functions: subtrees that reduce to
    /// `zero` are pruned without expansion, so the cost is proportional to
    /// the number of reported entries times the depth.
    pub fn for_each_nonzero(&self, f: Add, zero: &T, callback: &mut impl FnMut(u128, &T)) {
        self.walk(f, 0, 0u128, zero, callback);
    }

    fn walk(
        &self,
        f: Add,
        level: u32,
        partial: u128,
        zero: &T,
        callback: &mut impl FnMut(u128, &T),
    ) {
        if let Some(v) = self.terminal_value(f) {
            if v == zero {
                return;
            }
            if level == self.num_vars {
                callback(partial, v);
            } else {
                // Expand remaining skipped variables.
                self.walk(f, level + 1, partial, zero, callback);
                self.walk(f, level + 1, partial | 1u128 << level, zero, callback);
            }
            return;
        }
        let n = self.inode(f);
        if n.var > level {
            self.walk(f, level + 1, partial, zero, callback);
            self.walk(f, level + 1, partial | 1u128 << level, zero, callback);
        } else {
            self.walk(n.lo, level + 1, partial, zero, callback);
            self.walk(n.hi, level + 1, partial | 1u128 << level, zero, callback);
        }
    }

    /// Clears the operation caches; handles remain valid.
    pub fn clear_caches(&mut self) {
        if self.apply_stats.misses > self.misses_at_flush {
            self.apply_stats.flushes += 1;
            self.misses_at_flush = self.apply_stats.misses;
        }
        self.binary_cache.clear();
        self.unary_cache.clear();
    }

    /// Total number of live internal nodes in the arena.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }
}

/// Cache tokens for the built-in [`Dyadic`] operations.
mod token {
    pub const ADD: u32 = 1;
    pub const SUB: u32 = 2;
    pub const MUL: u32 = 3;
    pub const NEG: u32 = 16;
    pub const HALF: u32 = 17;
}

impl AddManager<Dyadic> {
    /// The constant-zero function.
    pub fn zero(&mut self) -> Add {
        self.constant(Dyadic::ZERO)
    }

    /// Whether `f` is the terminal 0 (cheap handle-level check).
    #[inline]
    fn is_zero_term(&self, f: Add) -> bool {
        f.is_terminal() && self.terminals[f.term_index()].is_zero()
    }

    /// Whether `f` is the terminal 1.
    #[inline]
    fn is_one_term(&self, f: Add) -> bool {
        f.is_terminal() && self.terminals[f.term_index()] == Dyadic::ONE
    }

    /// Pointwise sum `f + g`.
    pub fn add_op(&mut self, f: Add, g: Add) -> Add {
        // 0 + f = f, checked before any cache traffic. This fires at every
        // level of the recursion, not just at the root: sparse Walsh
        // matrices are mostly zero cofactors.
        if self.is_zero_term(f) {
            return g;
        }
        if self.is_zero_term(g) {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let (Some(x), Some(y)) = (self.terminal_value(a), self.terminal_value(b)) {
            let v = *x + *y;
            return self.constant(v);
        }
        if let Some(r) = self.binary_cache.get(token::ADD, a.0, b.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let (top, f0, f1, g0, g1) = self.cofactors2(a, b);
        let r0 = self.add_op(f0, g0);
        let r1 = self.add_op(f1, g1);
        let r = self.mk(VarId(top), r0, r1);
        self.apply_stats.misses += 1;
        self.binary_cache.put(token::ADD, a.0, b.0, r.0);
        r
    }

    /// Pointwise difference `f − g`.
    pub fn sub_op(&mut self, f: Add, g: Add) -> Add {
        // Hash consing makes f − f = 0 a handle comparison.
        if f == g {
            return self.zero();
        }
        if self.is_zero_term(g) {
            return f;
        }
        if self.is_zero_term(f) {
            return self.neg_op(g);
        }
        if let (Some(x), Some(y)) = (self.terminal_value(f), self.terminal_value(g)) {
            let v = *x - *y;
            return self.constant(v);
        }
        if let Some(r) = self.binary_cache.get(token::SUB, f.0, g.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let (top, f0, f1, g0, g1) = self.cofactors2(f, g);
        let r0 = self.sub_op(f0, g0);
        let r1 = self.sub_op(f1, g1);
        let r = self.mk(VarId(top), r0, r1);
        self.apply_stats.misses += 1;
        self.binary_cache.put(token::SUB, f.0, g.0, r.0);
        r
    }

    /// Pointwise product `f · g`.
    pub fn mul_op(&mut self, f: Add, g: Add) -> Add {
        // 0 · f = 0 and 1 · f = f absorb whole subproblems; sign-ADDs make
        // the ±1 cases ubiquitous.
        if self.is_zero_term(f) {
            return f;
        }
        if self.is_zero_term(g) {
            return g;
        }
        if self.is_one_term(f) {
            return g;
        }
        if self.is_one_term(g) {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let (Some(x), Some(y)) = (self.terminal_value(a), self.terminal_value(b)) {
            let v = *x * *y;
            return self.constant(v);
        }
        if let Some(r) = self.binary_cache.get(token::MUL, a.0, b.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let (top, f0, f1, g0, g1) = self.cofactors2(a, b);
        let r0 = self.mul_op(f0, g0);
        let r1 = self.mul_op(f1, g1);
        let r = self.mk(VarId(top), r0, r1);
        self.apply_stats.misses += 1;
        self.binary_cache.put(token::MUL, a.0, b.0, r.0);
        r
    }

    /// Pointwise negation `−f`.
    pub fn neg_op(&mut self, f: Add) -> Add {
        if self.is_zero_term(f) {
            return f;
        }
        if let Some(x) = self.terminal_value(f) {
            let v = -*x;
            return self.constant(v);
        }
        if let Some(r) = self.unary_cache.get(token::NEG, f.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let n = self.inode(f);
        let r0 = self.neg_op(n.lo);
        let r1 = self.neg_op(n.hi);
        let r = self.mk(VarId(n.var), r0, r1);
        self.apply_stats.misses += 1;
        self.unary_cache.put(token::NEG, f.0, r.0);
        r
    }

    /// Pointwise exact halving `f / 2`.
    pub fn half_op(&mut self, f: Add) -> Add {
        if self.is_zero_term(f) {
            return f;
        }
        if let Some(x) = self.terminal_value(f) {
            let v = x.half();
            return self.constant(v);
        }
        if let Some(r) = self.unary_cache.get(token::HALF, f.0) {
            self.apply_stats.hits += 1;
            return Add(r);
        }
        let n = self.inode(f);
        let r0 = self.half_op(n.lo);
        let r1 = self.half_op(n.hi);
        let r = self.mk(VarId(n.var), r0, r1);
        self.apply_stats.misses += 1;
        self.unary_cache.put(token::HALF, f.0, r.0);
        r
    }

    /// Whether `f` is the constant-zero function.
    pub fn is_zero(&self, f: Add) -> bool {
        self.terminal_value(f).is_some_and(Dyadic::is_zero)
    }

    /// BDD of the support `{x : f(x) ≠ 0}`.
    pub fn nonzero_bdd(&self, bdds: &mut BddManager, f: Add) -> Bdd {
        self.to_bdd(bdds, f, &|v| !v.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned() {
        let mut m: AddManager<Dyadic> = AddManager::new(2);
        let a = m.constant(Dyadic::from_int(7));
        let b = m.constant(Dyadic::from_int(7));
        assert_eq!(a, b);
        assert!(a.is_terminal());
        assert_eq!(m.terminal_value(a), Some(&Dyadic::from_int(7)));
        // Past the small-terminal fast path, interning still dedupes.
        for i in 0..20 {
            let x = m.constant(Dyadic::from_int(i));
            let y = m.constant(Dyadic::from_int(i));
            assert_eq!(x, y);
        }
    }

    #[test]
    fn arithmetic_matches_pointwise_semantics() {
        let mut m: AddManager<Dyadic> = AddManager::new(3);
        let x = m.indicator(VarId(0), Dyadic::from_int(2), Dyadic::ZERO);
        let y = m.indicator(VarId(1), Dyadic::from_int(3), Dyadic::ONE);
        let sum = m.add_op(x, y);
        let prod = m.mul_op(x, y);
        for a in 0..8u128 {
            let xv = if a & 1 == 1 { 2 } else { 0 };
            let yv = if a >> 1 & 1 == 1 { 3 } else { 1 };
            assert_eq!(m.eval(sum, a).to_int(), Some(xv + yv));
            assert_eq!(m.eval(prod, a).to_int(), Some(xv * yv));
        }
        let neg = m.neg_op(sum);
        assert_eq!(m.eval(neg, 0b11).to_int(), Some(-5));
    }

    #[test]
    fn algebraic_short_circuits_return_canonical_handles() {
        let mut m: AddManager<Dyadic> = AddManager::new(3);
        let zero = m.zero();
        let one = m.constant(Dyadic::ONE);
        let x = m.indicator(VarId(0), Dyadic::from_int(2), Dyadic::from_int(5));
        // The shortcut result must be the *same handle* the full recursion
        // would intern — not merely an equal function.
        assert_eq!(m.add_op(zero, x), x);
        assert_eq!(m.add_op(x, zero), x);
        assert_eq!(m.mul_op(zero, x), zero);
        assert_eq!(m.mul_op(x, zero), zero);
        assert_eq!(m.mul_op(one, x), x);
        assert_eq!(m.mul_op(x, one), x);
        assert_eq!(m.sub_op(x, x), zero);
        assert_eq!(m.sub_op(x, zero), x);
        let nx = m.neg_op(x);
        assert_eq!(m.sub_op(zero, x), nx);
        // None of the above may have gone through the apply caches.
        let nodes_before = m.arena_size();
        let _ = m.add_op(zero, x);
        assert_eq!(m.arena_size(), nodes_before);
    }

    #[test]
    fn reduction_collapses_equal_children() {
        let mut m: AddManager<Dyadic> = AddManager::new(2);
        let c = m.constant(Dyadic::ONE);
        let same = m.mk(VarId(0), c, c);
        assert_eq!(same, c);
    }

    #[test]
    fn from_bdd_and_back() {
        let mut b = BddManager::new(2);
        let x = b.var(VarId(0));
        let y = b.var(VarId(1));
        let f = b.xor(x, y);
        let mut m: AddManager<Dyadic> = AddManager::new(2);
        // Sign encoding: true → −1, false → +1.
        let s = m.from_bdd(&b, f, Dyadic::MINUS_ONE, Dyadic::ONE);
        for a in 0..4u128 {
            let expect = if b.eval(f, a) { -1 } else { 1 };
            assert_eq!(m.eval(s, a).to_int(), Some(expect));
        }
        let back = m.to_bdd(&mut b, s, &|v| *v == Dyadic::MINUS_ONE);
        assert_eq!(back, f);
    }

    #[test]
    fn support_and_node_count() {
        let mut m: AddManager<Dyadic> = AddManager::new(4);
        let x = m.indicator(VarId(1), Dyadic::ONE, Dyadic::ZERO);
        let y = m.indicator(VarId(3), Dyadic::ONE, Dyadic::ZERO);
        let s = m.add_op(x, y);
        let sup = m.support(s);
        assert!(sup.contains(VarId(1)));
        assert!(sup.contains(VarId(3)));
        assert!(!sup.contains(VarId(0)));
        assert!(m.node_count(s) >= 4);
    }

    #[test]
    fn cube_terminal_hits_one_point() {
        let mut m: AddManager<Dyadic> = AddManager::new(3);
        let vars: VarSet = (0..3).map(VarId).collect();
        let c = m.cube_terminal(vars, 0b101, Dyadic::from_int(9), Dyadic::ZERO);
        for a in 0..8u128 {
            let expect = if a == 0b101 { 9 } else { 0 };
            assert_eq!(m.eval(c, a).to_int(), Some(expect));
        }
    }

    #[test]
    fn for_each_nonzero_enumerates_sparse_entries() {
        let mut m: AddManager<Dyadic> = AddManager::new(3);
        let vars: VarSet = (0..3).map(VarId).collect();
        let c1 = m.cube_terminal(vars, 0b010, Dyadic::ONE, Dyadic::ZERO);
        let c2 = m.cube_terminal(vars, 0b111, Dyadic::from_int(-2), Dyadic::ZERO);
        let f = m.add_op(c1, c2);
        let mut entries = Vec::new();
        m.for_each_nonzero(f, &Dyadic::ZERO, &mut |a, v| entries.push((a, *v)));
        entries.sort();
        assert_eq!(
            entries,
            vec![(0b010, Dyadic::ONE), (0b111, Dyadic::from_int(-2))]
        );
    }

    #[test]
    fn from_sparse_matches_cube_construction() {
        let mut m: AddManager<Dyadic> = AddManager::new(4);
        let entries = vec![
            (0b0000u128, Dyadic::ONE),
            (0b1010, Dyadic::from_int(-3)),
            (0b0111, Dyadic::new(1, -2)),
        ];
        let f = m.from_sparse(entries.clone(), Dyadic::ZERO);
        for a in 0..16u128 {
            let expect = entries
                .iter()
                .find(|&&(k, _)| k == a)
                .map(|&(_, v)| v)
                .unwrap_or(Dyadic::ZERO);
            assert_eq!(*m.eval(f, a), expect, "at {a:b}");
        }
        // Empty sparse set is the default constant.
        let z = m.from_sparse(Vec::new(), Dyadic::ONE);
        assert_eq!(m.terminal_value(z), Some(&Dyadic::ONE));
    }

    #[test]
    fn apply_cache_counts_and_flushes() {
        let mut m: AddManager<Dyadic> = AddManager::new(4);
        m.set_apply_cache_limit(0); // floored at 16 slots
        let slab = m.apply_cache_bytes();
        assert!(slab > 0, "slabs are allocated up front");
        let x = m.indicator(VarId(0), Dyadic::from_int(2), Dyadic::ZERO);
        let y = m.indicator(VarId(1), Dyadic::from_int(3), Dyadic::ONE);
        let s = m.add_op(x, y);
        let before = m.apply_cache_stats();
        assert!(before.misses > 0);
        // Same operation again: served from cache, result identical.
        let s2 = m.add_op(x, y);
        assert_eq!(s, s2);
        let after = m.apply_cache_stats();
        assert!(after.hits > before.hits);
        assert_eq!(after.misses, before.misses);
        // The slabs are fixed: byte footprint never varies with occupancy.
        assert_eq!(m.apply_cache_bytes(), slab);
        m.clear_caches();
        assert!(m.apply_cache_stats().flushes > 0);
        assert_eq!(m.apply_cache_bytes(), slab);
        // An idle clear doesn't inflate the flush counter.
        let flushes = m.apply_cache_stats().flushes;
        m.clear_caches();
        assert_eq!(m.apply_cache_stats().flushes, flushes);
        // Counters survive the flush, and resizing changes the footprint.
        assert!(m.apply_cache_stats().misses >= after.misses);
        m.set_apply_cache_limit(1 << 10);
        assert!(m.apply_cache_bytes() > slab);
    }

    #[test]
    fn lossy_collisions_still_produce_identical_handles() {
        // Tiny cache → constant evictions; results must not change.
        let mut small: AddManager<Dyadic> = AddManager::new(6);
        small.set_apply_cache_limit(0);
        let mut big: AddManager<Dyadic> = AddManager::new(6);
        let build = |m: &mut AddManager<Dyadic>| {
            let mut acc = m.zero();
            for v in 0..6u32 {
                let i = m.indicator(VarId(v), Dyadic::from_int(v as i64 + 1), Dyadic::ONE);
                acc = m.add_op(acc, i);
                acc = m.mul_op(acc, i);
                let h = m.half_op(acc);
                acc = m.sub_op(acc, h);
            }
            acc
        };
        let a = build(&mut small);
        let b = build(&mut big);
        for x in 0..64u128 {
            assert_eq!(small.eval(a, x), big.eval(b, x), "at {x:b}");
        }
    }

    #[test]
    fn is_zero_detects_cancellation() {
        let mut m: AddManager<Dyadic> = AddManager::new(2);
        let x = m.indicator(VarId(0), Dyadic::ONE, Dyadic::from_int(2));
        let nx = m.neg_op(x);
        let s = m.add_op(x, nx);
        assert!(m.is_zero(s));
        assert!(!m.is_zero(x));
    }
}
