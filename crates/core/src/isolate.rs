//! Panic isolation for per-combination work.
//!
//! Both enumeration drivers (the serial loop in `engine.rs` and the
//! scheduler's workers) funnel every combination through
//! [`check_isolated`]: a `catch_unwind` boundary that converts a panic while
//! checking one tuple into a quarantine decision instead of a dead run. Two
//! panic payloads are *expected* and classified precisely:
//!
//! * [`CapacityExceeded`] — the tuple blew its node budget (raised by the
//!   managers in `walshcheck-dd` or by the deterministic pre-charge) →
//!   [`IncompleteReason::NodeBudget`];
//! * anything else (including [`InjectedFault`] from the `fault-inject`
//!   feature and genuine engine bugs) → [`IncompleteReason::WorkerFailure`].
//!
//! After a caught panic the engine context may hold partially-built
//! structures, so the enumeration state is rebuilt from scratch; the sweep
//! then continues with the next combination. All workspace crates
//! `forbid(unsafe_code)`, so no invariants can be broken by unwinding.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use walshcheck_dd::budget::CapacityExceeded;

use crate::engine::{ComboStep, EnumState, Verifier, VerifyOptions};
use crate::fault::InjectedFault;
use crate::property::{CheckStats, IncompleteReason, Property};

static QUIET_HOOK: OnceLock<()> = OnceLock::new();

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" banner for the two *expected* payload types — budget
/// exhaustion and injected faults — which would otherwise spam stderr once
/// per quarantined tuple. Every other payload is passed to the previously
/// installed hook, so genuine bugs still print a backtrace pointer.
pub(crate) fn install_quiet_hook() {
    QUIET_HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info.payload().downcast_ref::<CapacityExceeded>().is_some()
                || info.payload().downcast_ref::<InjectedFault>().is_some();
            if !expected {
                prev(info);
            }
        }));
    });
}

/// Maps a caught panic payload to the quarantine reason.
pub(crate) fn classify(payload: &(dyn Any + Send)) -> IncompleteReason {
    if payload.downcast_ref::<CapacityExceeded>().is_some() {
        IncompleteReason::NodeBudget
    } else {
        IncompleteReason::WorkerFailure
    }
}

/// Checks one combination behind a `catch_unwind` boundary.
///
/// On a panic the combination is classified (`Err(reason)`), the old engine
/// context's cache counters are folded into `stats`, `stats.skipped` is
/// bumped, and `state` is rebuilt cold with fresh managers and empty
/// caches. Rebuilding cold is also what keeps tiny-budget quarantine
/// lists thread-count-independent: those budgets trip on the deterministic
/// tuple-estimate pre-charge, so the next tuple's fate is a pure function
/// of the tuple itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_isolated(
    verifier: &Verifier,
    state: &mut EnumState,
    property: Property,
    options: &VerifyOptions,
    index: u64,
    idxs: &[usize],
    stats: &mut CheckStats,
) -> Result<ComboStep, IncompleteReason> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        crate::fault::maybe_inject(index);
        verifier.check_indices(state, property, options.prefilter, idxs, stats)
    }));
    match result {
        Ok(step) => Ok(step),
        Err(payload) => {
            let reason = classify(payload.as_ref());
            state.finish(stats);
            *state = verifier.begin_enumeration(property, options);
            stats.skipped += 1;
            Err(reason)
        }
    }
}
