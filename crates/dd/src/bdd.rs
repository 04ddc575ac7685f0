//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! [`BddManager`] is an arena-based, hash-consed ROBDD package in the style of
//! CUDD: nodes are interned in open-addressed unique tables so that structural
//! equality is pointer (index) equality, and all operations are memoized in
//! fixed-size direct-mapped apply caches (the `table` module, DESIGN.md §12),
//! giving the classical `O(|f|·|g|)` bound for binary Boolean operations.
//! Each manager owns its arena, unique tables and caches outright.
//!
//! Handles carry a **complement edge** (DESIGN.md §17): the top bit of a
//! [`Bdd`] marks logical negation of the node it points at, so `not` is a
//! bit flip, a function and its complement share every node, and the two
//! terminals collapse to a single arena node (`TRUE`; `FALSE = ¬TRUE`).
//! Canonicity is kept by the CUDD rule that a stored node's *hi* edge is
//! always regular (uncomplemented): `mk` normalizes `(v, l, ¬h)` to
//! `¬(v, ¬l, h)`. All traversal goes through the logical node view
//! ([`BddManager::node`]), which resolves the complement bit into the
//! cofactors, so algorithms observe exactly the semantics of the plain
//! representation — including witness enumeration order.
//!
//! The variable order is static (variable `0` is tested first). This suits the
//! probing-security workload, where the order is fixed by the circuit's input
//! declaration: spectral coordinates are masks over those same variables, so
//! the package offers no reordering.
//!
//! ```
//! use walshcheck_dd::bdd::BddManager;
//! use walshcheck_dd::var::VarId;
//!
//! let mut m = BddManager::new(3);
//! let x = m.var(VarId(0));
//! let y = m.var(VarId(1));
//! let f = m.and(x, y);
//! let g = m.or(x, y);
//! assert!(m.implies(f, g));
//! assert_eq!(m.sat_count(f), 2); // x∧y over 3 variables: 2 assignments
//! ```

use crate::budget::NodeBudget;
use crate::fasthash::{hash_pair, FastMap, FastSet};
use crate::table::{BinaryApplyCache, Subtable, TernaryApplyCache};
use crate::var::{VarId, VarSet};

/// Handle to a BDD node inside a [`BddManager`].
///
/// Handles are plain indices; they are only meaningful for the manager that
/// produced them. Structural equality of functions is handle equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

/// Complement bit: a handle with this bit set denotes the negation of the
/// regular handle obtained by clearing it.
const COMPL: u32 = 1 << 31;

impl Bdd {
    /// The constant true function: the single terminal arena node.
    pub const TRUE: Bdd = Bdd(1);
    /// The constant false function: the complemented terminal.
    pub const FALSE: Bdd = Bdd(1 | COMPL);

    /// Whether this handle is one of the two constant functions.
    pub fn is_const(self) -> bool {
        self.0 & !COMPL == 1
    }

    /// The handle with the complement bit cleared (the function or its
    /// negation, whichever is stored regular).
    #[inline]
    pub(crate) fn regular(self) -> Bdd {
        Bdd(self.0 & !COMPL)
    }

    /// Whether the complement bit is set.
    #[inline]
    fn is_compl(self) -> bool {
        self.0 & COMPL != 0
    }
}

/// Level assigned to terminal nodes: below every variable.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// With complement edges only two binary kernels are needed: `or` is
/// De Morgan over `and` (a pair of free bit flips), which concentrates all
/// conjunction/disjunction traffic on a single cache tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BoolOp {
    And,
    Xor,
}

impl BoolOp {
    /// Tag in the binary apply cache.
    #[inline]
    fn tag(self) -> u32 {
        match self {
            BoolOp::And => 1,
            BoolOp::Xor => 3,
        }
    }
}

/// Default slot counts for the operation caches. The binary cache carries
/// almost all of the engines' traffic (`and`/`or`/`xor` during transition
/// matrix builds), so it gets the lion's share.
const BINARY_CACHE_SLOTS: usize = 1 << 16;
const TERNARY_CACHE_SLOTS: usize = 1 << 15;

/// An arena-based ROBDD manager with unique table and operation caches.
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    /// One unique subtable per variable (see [`crate::table`]); extended by
    /// [`BddManager::add_var`].
    unique: Vec<Subtable>,
    apply_cache: BinaryApplyCache,
    ite_cache: TernaryApplyCache,
    quant_cache: FastMap<(Bdd, u128, bool), Bdd>,
    budget: NodeBudget,
    num_vars: u32,
}

impl BddManager {
    /// Creates a manager with `num_vars` variables (levels `0..num_vars`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds [`VarId::MAX_VARS`].
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars <= VarId::MAX_VARS, "too many variables");
        // Slot 0 is a dead placeholder (the pre-complement-edge false
        // terminal) kept so the true terminal stays at its historical id 1;
        // no handle ever points at it. FALSE is the complement of TRUE.
        let nodes = vec![
            Node {
                var: TERMINAL_VAR,
                lo: Bdd(0),
                hi: Bdd(0),
            },
            Node {
                var: TERMINAL_VAR,
                lo: Bdd::TRUE,
                hi: Bdd::TRUE,
            },
        ];
        BddManager {
            nodes,
            unique: (0..num_vars).map(|_| Subtable::default()).collect(),
            apply_cache: BinaryApplyCache::new(BINARY_CACHE_SLOTS),
            ite_cache: TernaryApplyCache::new(TERNARY_CACHE_SLOTS),
            quant_cache: FastMap::default(),
            budget: NodeBudget::default(),
            num_vars,
        }
    }

    /// Installs (or clears, with `None`) a node-growth budget and rebases
    /// its baseline to the current arena size. Once set, interning more
    /// than `limit` new internal nodes past the most recent
    /// [`BddManager::rebase_node_budget`] raises a
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
    /// power of two, floored at 16); the ternary cache scales down
    /// proportionally. The caches are fixed direct-mapped slabs, so
    /// this bounds their memory exactly; see
    /// [`crate::add::AddManager::set_apply_cache_limit`].
    pub fn set_apply_cache_limit(&mut self, limit: usize) {
        self.apply_cache.resize(limit);
        self.ite_cache = TernaryApplyCache::new((limit >> 1).max(16));
    }

    /// Heap footprint of the operation-cache slabs, in bytes (fixed —
    /// independent of occupancy).
    pub fn apply_cache_bytes(&self) -> usize {
        self.apply_cache.bytes() + self.ite_cache.bytes()
    }

    /// Number of variables managed.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Appends a fresh variable at the bottom of the order and returns it.
    pub fn add_var(&mut self) -> VarId {
        assert!(self.num_vars < VarId::MAX_VARS, "too many variables");
        let v = VarId(self.num_vars);
        self.num_vars += 1;
        self.unique.push(Subtable::default());
        v
    }

    /// Total number of live nodes in the arena (including both terminals).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// The *logical* node behind `f` (terminals read as `var ==
    /// TERMINAL_VAR`): the complement bit of the handle is pushed onto the
    /// stored cofactors, so `raw(¬f).lo == ¬raw(f).lo` and traversals see
    /// exactly the semantics a complement-free representation would.
    #[inline]
    fn raw(&self, f: Bdd) -> Node {
        let n = self.raw_stored(f.regular());
        if f.is_compl() {
            Node {
                var: n.var,
                lo: Bdd(n.lo.0 ^ COMPL),
                hi: Bdd(n.hi.0 ^ COMPL),
            }
        } else {
            n
        }
    }

    /// The stored node at a regular handle.
    #[inline]
    fn raw_stored(&self, f: Bdd) -> Node {
        debug_assert!(!f.is_compl());
        self.nodes[f.0 as usize]
    }

    /// The decision variable of `f`'s root, or `None` for terminals.
    pub fn root_var(&self, f: Bdd) -> Option<VarId> {
        let v = self.raw(f).var;
        (v != TERMINAL_VAR).then_some(VarId(v))
    }

    fn var_of(&self, f: Bdd) -> u32 {
        self.raw(f).var
    }

    fn lo(&self, f: Bdd) -> Bdd {
        self.raw(f).lo
    }

    fn hi(&self, f: Bdd) -> Bdd {
        self.raw(f).hi
    }

    /// Decomposes a non-terminal node into `(var, lo, hi)`, or returns
    /// `None` for the two terminals. This is the raw structural view used by
    /// algorithms (e.g. spectral transforms) that traverse the diagram.
    pub fn node(&self, f: Bdd) -> Option<(VarId, Bdd, Bdd)> {
        if f.is_const() {
            None
        } else {
            let n = self.raw(f);
            Some((VarId(n.var), n.lo, n.hi))
        }
    }

    /// The `(lo, hi)` cofactors of `f` with respect to variable `v`, which
    /// must be at or above `f`'s root level.
    pub fn cofactors(&self, f: Bdd, v: VarId) -> (Bdd, Bdd) {
        if self.var_of(f) == v.0 {
            (self.lo(f), self.hi(f))
        } else {
            (f, f)
        }
    }

    /// Interns the node `(var, lo, hi)`, applying the reduction rule and
    /// the complement-edge canonicity rule (stored *hi* edges are regular:
    /// `(v, l, ¬h)` is interned as `(v, ¬l, h)` and returned complemented).
    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var < self.var_of(lo) && var < self.var_of(hi),
            "ordering violated"
        );
        let flip = hi.0 & COMPL;
        let (lo, hi) = (Bdd(lo.0 ^ flip), Bdd(hi.0 ^ flip));
        let h = hash_pair(lo.0, hi.0);
        let nodes = &self.nodes;
        let sub = &mut self.unique[var as usize];
        if let Some(found) = sub.get(h, |i| {
            let n = &nodes[i as usize];
            n.lo == lo && n.hi == hi
        }) {
            return Bdd(found | flip);
        }
        self.budget.charge("bdd-arena", self.nodes.len());
        let raw = u32::try_from(self.nodes.len()).expect("BDD arena full");
        // Ids must stay below the complement bit.
        assert!(raw < COMPL, "BDD arena full");
        self.nodes.push(Node { var, lo, hi });
        let nodes = &self.nodes;
        self.unique[var as usize].insert(h, raw, |i| {
            let n = &nodes[i as usize];
            hash_pair(n.lo.0, n.hi.0)
        });
        Bdd(raw | flip)
    }

    /// The literal `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of this manager.
    pub fn var(&mut self, v: VarId) -> Bdd {
        assert!(v.0 < self.num_vars, "unknown variable {v}");
        self.mk(v.0, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated literal `¬v`.
    pub fn nvar(&mut self, v: VarId) -> Bdd {
        assert!(v.0 < self.num_vars, "unknown variable {v}");
        self.mk(v.0, Bdd::TRUE, Bdd::FALSE)
    }

    /// Constant function for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Logical negation `¬f`: with complement edges, a free bit flip.
    pub fn not(&self, f: Bdd) -> Bdd {
        Bdd(f.0 ^ COMPL)
    }

    fn apply(&mut self, op: BoolOp, f: Bdd, g: Bdd) -> Bdd {
        // Terminal and complement short-cuts.
        match op {
            BoolOp::And => {
                if f == Bdd::FALSE || g == Bdd::FALSE || f.0 ^ g.0 == COMPL {
                    return Bdd::FALSE;
                }
                if f == Bdd::TRUE {
                    return g;
                }
                if g == Bdd::TRUE || f == g {
                    return f;
                }
            }
            BoolOp::Xor => {
                if f == g {
                    return Bdd::FALSE;
                }
                if f.0 ^ g.0 == COMPL {
                    return Bdd::TRUE;
                }
                // XOR commutes with complement: pull both complement bits
                // out so all four sign combinations of (f, g) share one
                // cache entry.
                if (f.0 | g.0) & COMPL != 0 {
                    let flip = (f.0 ^ g.0) & COMPL;
                    let r = self.apply(BoolOp::Xor, f.regular(), g.regular());
                    return Bdd(r.0 ^ flip);
                }
                if f == Bdd::TRUE {
                    return self.not(g);
                }
                if g == Bdd::TRUE {
                    return self.not(f);
                }
            }
        }
        // Commutative: canonicalize the cache key.
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.apply_cache.get(op.tag(), a.0, b.0) {
            return Bdd(r);
        }
        let va = self.var_of(a);
        let vb = self.var_of(b);
        let top = va.min(vb);
        let (a0, a1) = if va == top {
            (self.lo(a), self.hi(a))
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == top {
            (self.lo(b), self.hi(b))
        } else {
            (b, b)
        };
        let r0 = self.apply(op, a0, b0);
        let r1 = self.apply(op, a1, b1);
        let r = self.mk(top, r0, r1);
        self.apply_cache.put(op.tag(), a.0, b.0, r.0);
        r
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(BoolOp::And, f, g)
    }

    /// Disjunction `f ∨ g`, by De Morgan over the `and` kernel (negation is
    /// free, so this costs nothing and keeps all ∧/∨ traffic on one cache
    /// tag).
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let (nf, ng) = (self.not(f), self.not(g));
        let r = self.apply(BoolOp::And, nf, ng);
        self.not(r)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(BoolOp::Xor, f, g)
    }

    /// Exclusive nor `¬(f ⊕ g)`.
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Negated conjunction `¬(f ∧ g)`.
    pub fn nand(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.and(f, g);
        self.not(x)
    }

    /// Negated disjunction `¬(f ∨ g)`.
    pub fn nor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.or(f, g);
        self.not(x)
    }

    /// If-then-else `(f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if f == Bdd::TRUE {
            return g;
        }
        if f == Bdd::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Bdd::TRUE && h == Bdd::FALSE {
            return f;
        }
        if g == Bdd::FALSE && h == Bdd::TRUE {
            return self.not(f);
        }
        // Complement canonicalization (CUDD): make f regular by swapping
        // the branches (ite(¬f,g,h) = ite(f,h,g)), then make g regular by
        // complementing the result (ite(f,¬g,¬h) = ¬ite(f,g,h)). All eight
        // sign combinations share one cache entry.
        let (f, g, h) = if f.is_compl() {
            (self.not(f), h, g)
        } else {
            (f, g, h)
        };
        if g.is_compl() {
            let (ng, nh) = (self.not(g), self.not(h));
            let r = self.ite(f, ng, nh);
            return self.not(r);
        }
        if let Some(r) = self.ite_cache.get(f.0, g.0, h.0) {
            return Bdd(r);
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = if self.var_of(f) == top {
            (self.lo(f), self.hi(f))
        } else {
            (f, f)
        };
        let (g0, g1) = if self.var_of(g) == top {
            (self.lo(g), self.hi(g))
        } else {
            (g, g)
        };
        let (h0, h1) = if self.var_of(h) == top {
            (self.lo(h), self.hi(h))
        } else {
            (h, h)
        };
        let r0 = self.ite(f0, g0, h0);
        let r1 = self.ite(f1, g1, h1);
        let r = self.mk(top, r0, r1);
        self.ite_cache.put(f.0, g.0, h.0, r.0);
        r
    }

    /// Whether `f → g` is a tautology.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> bool {
        let ng = self.not(g);
        self.and(f, ng) == Bdd::FALSE
    }

    /// Cofactor of `f` with variable `v` fixed to `value`.
    pub fn restrict(&mut self, f: Bdd, v: VarId, value: bool) -> Bdd {
        if f.is_const() || self.var_of(f) > v.0 {
            return f;
        }
        if self.var_of(f) == v.0 {
            return if value { self.hi(f) } else { self.lo(f) };
        }
        // var_of(f) < v: rebuild (no dedicated cache; restrict is rare and
        // shallow in this workload).
        let n = self.raw(f);
        let rlo = self.restrict(n.lo, v, value);
        let rhi = self.restrict(n.hi, v, value);
        self.mk(n.var, rlo, rhi)
    }

    fn quantify(&mut self, f: Bdd, vars: VarSet, existential: bool) -> Bdd {
        if f.is_const() || vars.is_empty() {
            return f;
        }
        if let Some(&r) = self.quant_cache.get(&(f, vars.0, existential)) {
            return r;
        }
        let var = self.var_of(f);
        let lo = self.lo(f);
        let hi = self.hi(f);
        // Variables above f's root no longer matter.
        let below = VarSet(vars.0 & !((1u128 << var).wrapping_sub(1)));
        let r = if below.is_empty() {
            f
        } else if below.contains(VarId(var)) {
            let mut rest = below;
            rest.remove(VarId(var));
            let rlo = self.quantify(lo, rest, existential);
            let rhi = self.quantify(hi, rest, existential);
            if existential {
                self.or(rlo, rhi)
            } else {
                self.and(rlo, rhi)
            }
        } else {
            let rlo = self.quantify(lo, below, existential);
            let rhi = self.quantify(hi, below, existential);
            self.mk(var, rlo, rhi)
        };
        self.quant_cache.insert((f, vars.0, existential), r);
        r
    }

    /// Functional composition `f[v := g]`: substitutes `g` for variable
    /// `v` in `f` (CUDD's `Cudd_bddCompose`).
    pub fn compose(&mut self, f: Bdd, v: VarId, g: Bdd) -> Bdd {
        let mut memo: FastMap<Bdd, Bdd> = FastMap::default();
        self.compose_rec(f, v, g, &mut memo)
    }

    fn compose_rec(&mut self, f: Bdd, v: VarId, g: Bdd, memo: &mut FastMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() || self.var_of(f) > v.0 {
            return f; // v cannot appear below this node
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.raw(f);
        let r = if n.var == v.0 {
            self.ite(g, n.hi, n.lo)
        } else {
            let clo = self.compose_rec(n.lo, v, g, memo);
            let chi = self.compose_rec(n.hi, v, g, memo);
            let lit = self.mk(n.var, Bdd::FALSE, Bdd::TRUE);
            self.ite(lit, chi, clo)
        };
        memo.insert(f, r);
        r
    }

    /// Existential quantification `∃ vars. f`.
    pub fn exists(&mut self, f: Bdd, vars: VarSet) -> Bdd {
        self.quantify(f, vars, true)
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Bdd, vars: VarSet) -> Bdd {
        self.quantify(f, vars, false)
    }

    /// The set of variables `f` structurally depends on.
    pub fn support(&self, f: Bdd) -> VarSet {
        // Dedupe on regular handles: f and ¬f share the same cone.
        let mut seen: FastSet<Bdd> = FastSet::default();
        let mut stack = vec![f.regular()];
        let mut s = VarSet::EMPTY;
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            let node = self.raw_stored(n);
            s.insert(VarId(node.var));
            stack.push(node.lo.regular());
            stack.push(node.hi.regular());
        }
        s
    }

    /// Evaluates `f` under `assignment`, where bit `i` gives variable `i`.
    pub fn eval(&self, f: Bdd, assignment: u128) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.raw(cur);
            cur = if assignment >> n.var & 1 == 1 {
                n.hi
            } else {
                n.lo
            };
        }
        cur == Bdd::TRUE
    }

    /// Number of satisfying assignments of `f` over all manager variables.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let mut memo: FastMap<Bdd, u128> = FastMap::default();
        let below = self.count_below(f, &mut memo);
        below << self.level(f)
    }

    fn level(&self, f: Bdd) -> u32 {
        self.var_of(f).min(self.num_vars)
    }

    /// Satisfying assignments over variables at or below `f`'s own level.
    fn count_below(&self, f: Bdd, memo: &mut FastMap<Bdd, u128>) -> u128 {
        if f == Bdd::FALSE {
            return 0;
        }
        if f == Bdd::TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.raw(f);
        let clo = self.count_below(n.lo, memo) << (self.level(n.lo) - n.var - 1);
        let chi = self.count_below(n.hi, memo) << (self.level(n.hi) - n.var - 1);
        let c = clo + chi;
        memo.insert(f, c);
        c
    }

    /// Builds the characteristic function of a set of full assignments
    /// (bit `i` of a key = variable `i`) in one radix pass over `keys`,
    /// partitioning the slice in place level by level — no apply-cache
    /// traffic and no allocation. Duplicate keys are tolerated; the slice
    /// order is not preserved.
    ///
    /// This is the fast path for turning a sparse spectrum's support into
    /// the BDD intersected with the `T`-matrix: equivalent to interning the
    /// keys into an ADD and taking its non-zero support, minus the ADD.
    pub fn from_keys(&mut self, keys: &mut [u128]) -> Bdd {
        let n = self.num_vars();
        self.keys_to_bdd_rec(0, n, keys)
    }

    fn keys_to_bdd_rec(&mut self, level: u32, n: u32, keys: &mut [u128]) -> Bdd {
        if keys.is_empty() {
            return Bdd::FALSE;
        }
        if level == n {
            return Bdd::TRUE;
        }
        let bit = 1u128 << level;
        // Unstable in-place partition: low-half keys first.
        let mut i = 0;
        let mut j = keys.len();
        while i < j {
            if keys[i] & bit == 0 {
                i += 1;
            } else {
                j -= 1;
                keys.swap(i, j);
            }
        }
        let (lo, hi) = keys.split_at_mut(i);
        let l = self.keys_to_bdd_rec(level + 1, n, lo);
        let h = self.keys_to_bdd_rec(level + 1, n, hi);
        self.mk(level, l, h)
    }

    /// One satisfying full assignment of `f` (don't-care variables are 0),
    /// or `None` for the constant-false function.
    pub fn one_sat(&self, f: Bdd) -> Option<u128> {
        if f == Bdd::FALSE {
            return None;
        }
        let mut cur = f;
        let mut assignment = 0u128;
        while !cur.is_const() {
            let n = self.raw(cur);
            if n.hi != Bdd::FALSE {
                assignment |= 1u128 << n.var;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(assignment)
    }

    /// The conjunction of literals described by `(vars, polarity)`: for each
    /// variable in `vars`, positive if the corresponding bit of `polarity`
    /// is set.
    pub fn cube(&mut self, vars: VarSet, polarity: u128) -> Bdd {
        let mut acc = Bdd::TRUE;
        // Build bottom-up for linear-size construction.
        let members: Vec<VarId> = vars.iter().collect();
        for v in members.into_iter().rev() {
            acc = if polarity >> v.0 & 1 == 1 {
                self.mk(v.0, Bdd::FALSE, acc)
            } else {
                self.mk(v.0, acc, Bdd::FALSE)
            };
        }
        acc
    }

    /// XOR of all literals in `vars` (the parity function).
    pub fn parity(&mut self, vars: VarSet) -> Bdd {
        let mut acc = Bdd::FALSE;
        for v in vars.iter() {
            let lit = self.var(v);
            acc = self.xor(acc, lit);
        }
        acc
    }

    /// Number of distinct arena nodes reachable from `f` (including the
    /// terminal). A node and its complement count once — that is the real
    /// memory footprint under complement edges.
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen: FastSet<Bdd> = FastSet::default();
        let mut stack = vec![f.regular()];
        while let Some(n) = stack.pop() {
            if seen.insert(n) && !n.is_const() {
                let node = self.raw_stored(n);
                stack.push(node.lo.regular());
                stack.push(node.hi.regular());
            }
        }
        seen.len()
    }

    /// Clears the operation caches (the unique table is kept, so existing
    /// handles stay valid). Useful to bound memory on very long runs.
    pub fn clear_caches(&mut self) {
        self.apply_cache.clear();
        self.ite_cache.clear();
        self.quant_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(4)
    }

    #[test]
    fn constants_and_literals() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        assert!(m.eval(x, 0b1));
        assert!(!m.eval(x, 0b0));
        let nx = m.nvar(VarId(0));
        let notx = m.not(x);
        assert_eq!(nx, notx);
        assert_eq!(m.constant(true), Bdd::TRUE);
    }

    #[test]
    fn hash_consing_gives_canonical_nodes() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let f1 = m.and(x, y);
        let f2 = m.and(y, x);
        assert_eq!(f1, f2);
        let g1 = m.or(x, y);
        let ng = m.not(g1);
        let nx = m.not(x);
        let ny = m.not(y);
        let demorgan = m.and(nx, ny);
        assert_eq!(ng, demorgan);
    }

    #[test]
    fn xor_chain_is_parity() {
        let mut m = mgr();
        let vars: VarSet = (0..4).map(VarId).collect();
        let p = m.parity(vars);
        for a in 0..16u128 {
            assert_eq!(m.eval(p, a), (a.count_ones() & 1) == 1);
        }
        assert_eq!(m.sat_count(p), 8);
    }

    #[test]
    fn ite_matches_definition() {
        let mut m = mgr();
        let f = m.var(VarId(0));
        let g = m.var(VarId(1));
        let h = m.var(VarId(2));
        let r = m.ite(f, g, h);
        for a in 0..16u128 {
            let expect = if m.eval(f, a) {
                m.eval(g, a)
            } else {
                m.eval(h, a)
            };
            assert_eq!(m.eval(r, a), expect);
        }
    }

    #[test]
    fn restrict_is_cofactor() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let z = m.var(VarId(2));
        let xy = m.and(x, y);
        let f = m.xor(xy, z);
        let f1 = m.restrict(f, VarId(1), true);
        let expect = m.xor(x, z);
        assert_eq!(f1, expect);
        let f0 = m.restrict(f, VarId(1), false);
        assert_eq!(f0, z);
    }

    #[test]
    fn compose_substitutes_functions() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let z = m.var(VarId(2));
        let w = m.var(VarId(3));
        let xy = m.and(x, y);
        let f = m.xor(xy, z);
        // Substitute z := y ∨ w.
        let g = m.or(y, w);
        let h = m.compose(f, VarId(2), g);
        for a in 0..16u128 {
            let xv = a & 1 == 1;
            let yv = a >> 1 & 1 == 1;
            let wv = a >> 3 & 1 == 1;
            assert_eq!(m.eval(h, a), (xv && yv) ^ (yv || wv), "a={a:b}");
        }
        // Composing with a constant is cofactoring.
        let h_true = m.compose(f, VarId(2), Bdd::TRUE);
        let cof = m.restrict(f, VarId(2), true);
        assert_eq!(h_true, cof);
        // Composing a variable not in the support is the identity.
        assert_eq!(m.compose(f, VarId(3), g), f);
        // Shannon identity: f[v := v] = f.
        assert_eq!(m.compose(f, VarId(1), y), f);
    }

    #[test]
    fn quantifiers() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let f = m.and(x, y);
        let ex = m.exists(f, VarSet::singleton(VarId(0)));
        assert_eq!(ex, y);
        let fa = m.forall(f, VarSet::singleton(VarId(0)));
        assert_eq!(fa, Bdd::FALSE);
        let g = m.or(x, y);
        let fa2 = m.forall(g, VarSet::singleton(VarId(0)));
        assert_eq!(fa2, y);
        // Quantifying a variable not in the support is the identity.
        assert_eq!(m.exists(f, VarSet::singleton(VarId(3))), f);
    }

    #[test]
    fn support_tracks_dependencies() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let z = m.var(VarId(2));
        let f = m.xor(x, z);
        let s = m.support(f);
        assert!(s.contains(VarId(0)));
        assert!(!s.contains(VarId(1)));
        assert!(s.contains(VarId(2)));
        assert_eq!(m.support(Bdd::TRUE), VarSet::EMPTY);
    }

    #[test]
    fn sat_count_with_skipped_levels() {
        let mut m = mgr();
        let z = m.var(VarId(3)); // lowest variable: 8 assignments
        assert_eq!(m.sat_count(z), 8);
        let x = m.var(VarId(0));
        let f = m.or(x, z);
        // |x ∨ z| over 4 vars = 16 − |¬x ∧ ¬z| = 16 − 4 = 12.
        assert_eq!(m.sat_count(f), 12);
        assert_eq!(m.sat_count(Bdd::TRUE), 16);
        assert_eq!(m.sat_count(Bdd::FALSE), 0);
    }

    #[test]
    fn one_sat_finds_a_model() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let ny = m.nvar(VarId(1));
        let f = m.and(x, ny);
        let a = m.one_sat(f).expect("satisfiable");
        assert!(m.eval(f, a));
        assert_eq!(m.one_sat(Bdd::FALSE), None);
    }

    #[test]
    fn cube_builds_minterms() {
        let mut m = mgr();
        let vars: VarSet = [VarId(0), VarId(2)].into_iter().collect();
        let c = m.cube(vars, 0b001);
        // x0 ∧ ¬x2
        for a in 0..16u128 {
            assert_eq!(m.eval(c, a), (a & 1 == 1) && (a >> 2 & 1 == 0));
        }
        assert_eq!(m.sat_count(c), 4);
    }

    #[test]
    fn implies_and_node_count() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let f = m.and(x, y);
        assert!(m.implies(f, x));
        assert!(!m.implies(x, f));
        assert!(m.node_count(f) >= 3);
    }

    #[test]
    fn add_var_extends_domain() {
        let mut m = BddManager::new(1);
        let v = m.add_var();
        assert_eq!(v, VarId(1));
        let x = m.var(v);
        // Over the 2-variable domain, the literal has 2 satisfying assignments.
        assert_eq!(m.sat_count(x), 2);
    }

    #[test]
    fn tiny_caches_do_not_change_results() {
        // Evict constantly; canonical handles must still match a roomy
        // manager's results function-by-function.
        let mut small = BddManager::new(6);
        small.set_apply_cache_limit(0);
        let mut big = BddManager::new(6);
        let build = |m: &mut BddManager| {
            let mut acc = m.constant(false);
            for v in 0..6u32 {
                let lit = m.var(VarId(v));
                let a = m.and(acc, lit);
                let o = m.or(acc, lit);
                let x = m.xor(a, o);
                acc = m.ite(lit, x, acc);
            }
            acc
        };
        let f = build(&mut small);
        let g = build(&mut big);
        for a in 0..64u128 {
            assert_eq!(small.eval(f, a), big.eval(g, a), "at {a:b}");
        }
    }

    #[test]
    fn complement_edges_make_negation_free() {
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let f = m.ite(x, y, Bdd::FALSE);
        let before = m.arena_size();
        let nf = m.not(f);
        assert_eq!(m.arena_size(), before, "not must intern nothing");
        assert_eq!(m.not(nf), f, "involution at the handle level");
        // f and ¬f share the whole cone.
        assert_eq!(m.node_count(f), m.node_count(nf));
        for a in 0..16u128 {
            assert_eq!(m.eval(nf, a), !m.eval(f, a));
        }
        // Complement-aware terminal rules.
        assert_eq!(m.and(f, nf), Bdd::FALSE);
        assert_eq!(m.or(f, nf), Bdd::TRUE);
        assert_eq!(m.xor(f, nf), Bdd::TRUE);
        // XOR complement normalization: ¬f ⊕ y == ¬(f ⊕ y).
        let a = m.xor(nf, y);
        let b = m.xor(f, y);
        assert_eq!(a, m.not(b));
    }

    #[test]
    fn complemented_structure_traverses_like_plain() {
        // The logical node view must hide the representation: cofactors of
        // ¬f are the complements of f's cofactors, level by level.
        let mut m = mgr();
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let z = m.var(VarId(2));
        let xy = m.and(x, y);
        let f = m.or(xy, z);
        let nf = m.not(f);
        let (vf, lof, hif) = m.node(f).expect("non-terminal");
        let (vn, lon, hin) = m.node(nf).expect("non-terminal");
        assert_eq!(vf, vn);
        assert_eq!(lon, m.not(lof));
        assert_eq!(hin, m.not(hif));
        // sat_count and one_sat see the same structure.
        assert_eq!(m.sat_count(f) + m.sat_count(nf), 16);
        let w = m.one_sat(nf).expect("satisfiable");
        assert!(!m.eval(f, w));
    }
}
