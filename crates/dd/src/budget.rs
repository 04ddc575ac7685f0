//! Node-growth budgets for the hash-consed arenas.
//!
//! The unique tables behind [`crate::bdd::BddManager`] and
//! [`crate::add::AddManager`] grow without bound: a pathological tuple can
//! blow the arena up until the OS kills the process, which turns one bad
//! combination into a lost run. A *node budget* bounds how many nodes a
//! manager may intern past a caller-chosen baseline. Exceeding the budget
//! raises a [`CapacityExceeded`] signal via [`std::panic::panic_any`], which
//! the verifier catches per combination (`catch_unwind`), quarantines the
//! offending tuple, and keeps sweeping.
//!
//! A panic payload — rather than threading `Result` through every recursive
//! apply/transform — keeps the hot paths allocation- and branch-cheap and
//! cannot be ignored by a caller. All crates in this workspace
//! `forbid(unsafe_code)`, so unwinding here is sound: the managers hold no
//! invariants that survive a tuple boundary (the engine rebuilds its context
//! after a quarantine).

/// Panic payload raised when an arena grows past its node budget.
///
/// Carried through [`std::panic::panic_any`]; recover it with
/// `payload.downcast_ref::<CapacityExceeded>()` inside a
/// [`std::panic::catch_unwind`] handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityExceeded {
    /// Which arena (or estimator) tripped, e.g. `"add-arena"`,
    /// `"bdd-arena"`, `"tuple-estimate"`.
    pub arena: &'static str,
    /// Nodes grown past the baseline when the budget tripped (or the
    /// estimated cost, for pre-charges).
    pub grown: usize,
    /// The configured budget.
    pub limit: usize,
}

impl std::fmt::Display for CapacityExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node budget exceeded in {}: grew {} nodes past baseline (limit {})",
            self.arena, self.grown, self.limit
        )
    }
}

/// Raises [`CapacityExceeded`] as a typed panic payload.
pub fn exceeded(arena: &'static str, grown: usize, limit: usize) -> ! {
    std::panic::panic_any(CapacityExceeded {
        arena,
        grown,
        limit,
    })
}

/// Budget bookkeeping embedded in each manager.
///
/// `base` is rebased to the current arena size at each tuple boundary so the
/// budget measures *growth attributable to the current combination*, not the
/// absolute arena size (shared structure built by earlier tuples stays free).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeBudget {
    limit: Option<usize>,
    base: usize,
}

impl NodeBudget {
    /// Installs (or clears, with `None`) the growth limit and rebases to
    /// `current`.
    pub(crate) fn set(&mut self, limit: Option<usize>, current: usize) {
        self.limit = limit;
        self.base = current;
    }

    /// Moves the baseline to `current` — call at each tuple boundary.
    pub(crate) fn rebase(&mut self, current: usize) {
        self.base = current;
    }

    /// Checks the budget before interning one more node into an arena of
    /// `current` nodes; diverges with [`CapacityExceeded`] if the new node
    /// would exceed the limit.
    #[inline]
    pub(crate) fn charge(&self, arena: &'static str, current: usize) {
        if let Some(limit) = self.limit {
            let grown = current.saturating_sub(self.base);
            if grown >= limit {
                exceeded(arena, grown + 1, limit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_is_free_without_a_limit() {
        let b = NodeBudget::default();
        b.charge("test", usize::MAX); // must not panic
    }

    #[test]
    fn charge_trips_past_the_baseline() {
        let mut b = NodeBudget::default();
        b.set(Some(2), 10);
        b.charge("test", 10); // growth 0 < 2
        b.charge("test", 11); // growth 1 < 2
        let err = std::panic::catch_unwind(|| b.charge("test", 12)).unwrap_err();
        let cap = err
            .downcast_ref::<CapacityExceeded>()
            .expect("typed payload");
        assert_eq!(cap.limit, 2);
        assert_eq!(cap.arena, "test");
    }

    #[test]
    fn rebase_resets_the_free_region() {
        let mut b = NodeBudget::default();
        b.set(Some(1), 0);
        b.rebase(100);
        b.charge("test", 100); // growth 0
        assert!(std::panic::catch_unwind(|| b.charge("test", 101)).is_err());
    }
}
