//! Variable-order transfer and greedy sifting.
//!
//! The size of a ROBDD depends dramatically on the variable order (the
//! classic example: `x₁x₂ ∨ x₃x₄ ∨ … ∨ x₂ₙ₋₁x₂ₙ` is linear in the pairwise
//! order and exponential in the interleaved one). The managers in this crate
//! use a static order fixed by the circuit's input declaration — the right
//! default for spectral verification, where the order must match the
//! spectral coordinates — but [`transfer`] re-expresses functions under any
//! permutation, and [`sift`] greedily searches for a smaller order, which is
//! useful when unfolding pathological netlists.

use crate::fasthash::{FastMap, FastSet};

use crate::bdd::{Bdd, BddManager};
use crate::var::VarId;

/// Rebuilds `roots` in `dst`, renaming source variable `i` to
/// `var_map[i]`. The destination manager may use a completely different
/// order; the rebuild goes through `ite`, so the results are reduced and
/// ordered for `dst`.
///
/// # Panics
///
/// Panics if `var_map` is shorter than the source manager's variable count
/// or maps to variables outside `dst`.
pub fn transfer(
    src: &BddManager,
    roots: &[Bdd],
    dst: &mut BddManager,
    var_map: &[VarId],
) -> Vec<Bdd> {
    assert!(
        var_map.len() >= src.num_vars() as usize,
        "var_map must cover all source variables"
    );
    let mut memo: FastMap<Bdd, Bdd> = FastMap::default();
    roots
        .iter()
        .map(|&r| transfer_rec(src, r, dst, var_map, &mut memo))
        .collect()
}

fn transfer_rec(
    src: &BddManager,
    f: Bdd,
    dst: &mut BddManager,
    var_map: &[VarId],
    memo: &mut FastMap<Bdd, Bdd>,
) -> Bdd {
    if f == Bdd::FALSE {
        return Bdd::FALSE;
    }
    if f == Bdd::TRUE {
        return Bdd::TRUE;
    }
    if let Some(&r) = memo.get(&f) {
        return r;
    }
    let (var, lo, hi) = src.node(f).expect("non-terminal");
    let tlo = transfer_rec(src, lo, dst, var_map, memo);
    let thi = transfer_rec(src, hi, dst, var_map, memo);
    let v = dst.var(var_map[var.index()]);
    let r = dst.ite(v, thi, tlo);
    memo.insert(f, r);
    r
}

/// Result of a sifting search.
#[derive(Debug)]
pub struct SiftResult {
    /// A fresh manager holding the re-expressed functions.
    pub manager: BddManager,
    /// The transferred roots, in input order.
    pub roots: Vec<Bdd>,
    /// Images of the source manager's outstanding external references
    /// ([`BddManager::external_refs`]) as `(old, new)` pairs. These are
    /// transferred whether or not the caller listed them as roots, and are
    /// re-registered (via [`BddManager::add_ref`]) on the result manager.
    pub protected: Vec<(Bdd, Bdd)>,
    /// `order[i]` = the new level of old variable `i`.
    pub order: Vec<VarId>,
    /// Total distinct nodes of the roots (and protected references) before
    /// sifting.
    pub before: usize,
    /// Total distinct nodes of the roots (and protected references) after
    /// sifting.
    pub after: usize,
}

impl SiftResult {
    /// The new level of old variable `old` under the found order.
    pub fn new_level(&self, old: VarId) -> VarId {
        self.order[old.index()]
    }

    /// The inverse permutation: `inv[new_level] = old variable`. Callers
    /// re-checking functions under the sifted order use this to map results
    /// (e.g. witness coordinates) back into the original numbering.
    pub fn inverse_order(&self) -> Vec<VarId> {
        let mut inv = vec![VarId(0); self.order.len()];
        for (old, &new) in self.order.iter().enumerate() {
            inv[new.index()] = VarId(old as u32);
        }
        inv
    }

    /// The image in [`SiftResult::manager`] of an externally referenced
    /// handle of the source manager, or `None` if `old` was not registered
    /// there at sift time.
    pub fn image_of(&self, old: Bdd) -> Option<Bdd> {
        self.protected
            .iter()
            .find(|&&(o, _)| o == old)
            .map(|&(_, n)| n)
    }
}

/// Distinct arena nodes over the union of all `roots` — the objective
/// [`sift`] minimizes.
fn total_size(m: &BddManager, roots: &[Bdd]) -> usize {
    // Distinct arena nodes over the union of all roots. Handles are
    // normalized to their regular (complement-stripped) form so a function
    // and its negation — which share every node — are counted once: the
    // objective is real memory, not handle diversity.
    let mut seen: FastSet<_> = FastSet::default();
    let mut stack: Vec<Bdd> = roots.iter().map(|r| r.regular()).collect();
    while let Some(f) = stack.pop() {
        if seen.insert(f) {
            if let Some((_, lo, hi)) = m.node(f) {
                stack.push(lo.regular());
                stack.push(hi.regular());
            }
        }
    }
    seen.len()
}

/// Greedy adjacent-swap sifting: repeatedly swaps neighbouring levels while
/// the total (shared) node count of `roots` shrinks. Rebuild-based —
/// `O(n²)` transfers in the worst case — so intended for up to a few dozen
/// variables, which covers every gadget in the benchmark suite.
///
/// Handles registered on `src` via [`BddManager::add_ref`] are transferred
/// alongside `roots` (they count toward the size objective, since the
/// caller must keep them alive either way) and re-registered on the result
/// manager; their images are reported in [`SiftResult::protected`].
pub fn sift(src: &BddManager, roots: &[Bdd]) -> SiftResult {
    let n = src.num_vars() as usize;
    // The full set that must survive the rewrite: the requested roots plus
    // every outstanding external reference not already among them.
    let externals: Vec<Bdd> = {
        let mut v: Vec<Bdd> = Vec::new();
        for &e in src.external_refs() {
            if !v.contains(&e) {
                v.push(e);
            }
        }
        v
    };
    let mut work: Vec<Bdd> = roots.to_vec();
    for &e in &externals {
        if !work.contains(&e) {
            work.push(e);
        }
    }
    let before = total_size(src, &work);
    // order[i] = current level of original variable i.
    let mut order: Vec<VarId> = (0..n as u32).map(VarId).collect();
    let mut best_mgr = BddManager::new(n as u32);
    let mut best_all = transfer(src, &work, &mut best_mgr, &order);
    let mut best_size = total_size(&best_mgr, &best_all);

    let mut improved = true;
    while improved {
        improved = false;
        for level in 0..n.saturating_sub(1) {
            // Try swapping the variables currently at `level` and `level+1`.
            let mut candidate = order.clone();
            for v in candidate.iter_mut() {
                if v.0 == level as u32 {
                    v.0 = level as u32 + 1;
                } else if v.0 == level as u32 + 1 {
                    v.0 = level as u32;
                }
            }
            let mut mgr = BddManager::new(n as u32);
            let new_all = transfer(src, &work, &mut mgr, &candidate);
            let size = total_size(&mgr, &new_all);
            if size < best_size {
                best_size = size;
                best_mgr = mgr;
                best_all = new_all;
                order = candidate;
                improved = true;
            }
        }
    }
    let protected: Vec<(Bdd, Bdd)> = externals
        .iter()
        .map(|&e| {
            let i = work.iter().position(|&w| w == e).expect("external in work");
            (e, best_all[i])
        })
        .collect();
    for &(_, img) in &protected {
        best_mgr.add_ref(img);
    }
    SiftResult {
        manager: best_mgr,
        roots: best_all[..roots.len()].to_vec(),
        protected,
        order,
        before,
        after: best_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f = x₀x₁ ∨ x₂x₃ ∨ x₄x₅ in the given variable numbering.
    fn pairs(m: &mut BddManager, idx: &[u32; 6]) -> Bdd {
        let lits: Vec<Bdd> = idx.iter().map(|&i| m.var(VarId(i))).collect();
        let p1 = m.and(lits[0], lits[1]);
        let p2 = m.and(lits[2], lits[3]);
        let p3 = m.and(lits[4], lits[5]);
        let t = m.or(p1, p2);
        m.or(t, p3)
    }

    #[test]
    fn transfer_preserves_semantics_under_permutation() {
        let mut src = BddManager::new(4);
        let a = src.var(VarId(0));
        let b = src.var(VarId(1));
        let c = src.var(VarId(2));
        let ab = src.and(a, b);
        let f = src.xor(ab, c);
        // Reverse the order: old var i ↦ new var 3−i.
        let map: Vec<VarId> = (0..4).map(|i| VarId(3 - i)).collect();
        let mut dst = BddManager::new(4);
        let moved = transfer(&src, &[f], &mut dst, &map)[0];
        for asg in 0..16u128 {
            // Build the remapped assignment.
            let mut remapped = 0u128;
            for i in 0..4 {
                if asg >> i & 1 == 1 {
                    remapped |= 1 << (3 - i);
                }
            }
            assert_eq!(src.eval(f, asg), dst.eval(moved, remapped), "asg={asg:b}");
        }
    }

    #[test]
    fn identity_transfer_is_isomorphic() {
        let mut src = BddManager::new(3);
        let x = src.var(VarId(0));
        let y = src.var(VarId(2));
        let f = src.or(x, y);
        let map: Vec<VarId> = (0..3).map(VarId).collect();
        let mut dst = BddManager::new(3);
        let moved = transfer(&src, &[f], &mut dst, &map)[0];
        assert_eq!(src.node_count(f), dst.node_count(moved));
    }

    #[test]
    fn sifting_recovers_the_pairwise_order() {
        // Interleaved order x0x3 ∨ x1x4 ∨ x2x5 is bad; sifting must shrink it.
        let mut src = BddManager::new(6);
        let f = pairs(&mut src, &[0, 3, 1, 4, 2, 5]);
        let bad = src.node_count(f);
        let result = sift(&src, &[f]);
        assert_eq!(result.before, bad);
        assert!(
            result.after < result.before,
            "sifting failed: {} -> {}",
            result.before,
            result.after
        );
        // Semantics preserved under the found order.
        let g = result.roots[0];
        for asg in 0..64u128 {
            let mut remapped = 0u128;
            for i in 0..6 {
                if asg >> i & 1 == 1 {
                    remapped |= 1 << result.order[i].0;
                }
            }
            assert_eq!(src.eval(f, asg), result.manager.eval(g, remapped));
        }
        // The optimal pairwise order has 8 nodes (incl. terminals).
        assert!(result.after <= 8, "after={}", result.after);
    }

    #[test]
    fn sifting_leaves_good_orders_alone() {
        let mut src = BddManager::new(6);
        let f = pairs(&mut src, &[0, 1, 2, 3, 4, 5]);
        let result = sift(&src, &[f]);
        assert_eq!(result.after, result.before);
    }

    #[test]
    fn inverse_order_round_trips() {
        let mut src = BddManager::new(6);
        let f = pairs(&mut src, &[0, 3, 1, 4, 2, 5]);
        let result = sift(&src, &[f]);
        let inv = result.inverse_order();
        for i in 0..6u32 {
            assert_eq!(inv[result.new_level(VarId(i)).index()], VarId(i));
        }
    }

    #[test]
    fn sifting_preserves_external_references() {
        // Regression: an externally held function that is not among the
        // requested roots used to be silently dropped by the rewrite.
        let mut src = BddManager::new(6);
        let f = pairs(&mut src, &[0, 3, 1, 4, 2, 5]);
        let a = src.var(VarId(0));
        let b = src.var(VarId(5));
        let held = src.xor(a, b);
        src.add_ref(held);
        let result = sift(&src, &[f]);
        assert_eq!(result.roots.len(), 1);
        let img = result.image_of(held).expect("external ref transferred");
        assert_eq!(result.protected, vec![(held, img)]);
        // Re-registered on the new manager.
        assert_eq!(result.manager.external_refs(), &[img]);
        // Semantics preserved under the found order.
        for asg in 0..64u128 {
            let mut remapped = 0u128;
            for i in 0..6 {
                if asg >> i & 1 == 1 {
                    remapped |= 1 << result.order[i].0;
                }
            }
            assert_eq!(src.eval(held, asg), result.manager.eval(img, remapped));
        }
        // Unregistered handles have no image.
        assert_eq!(result.image_of(f), None);
    }

    #[test]
    fn shared_roots_are_counted_once() {
        let mut src = BddManager::new(2);
        let x = src.var(VarId(0));
        let y = src.var(VarId(1));
        let f = src.and(x, y);
        let g = src.or(x, y);
        let both = total_size(&src, &[f, g, f]);
        let fs = total_size(&src, &[f]);
        let gs = total_size(&src, &[g]);
        assert!(
            both < fs + gs,
            "sharing must be visible: {both} vs {fs}+{gs}"
        );
    }
}
