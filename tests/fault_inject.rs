//! Fault-injection tests (compiled only with `--features fault-inject`).
//!
//! The `WALSHCHECK_FAULT` environment variable plants deterministic faults
//! at exact points of the enumeration (see `walshcheck_core::fault`); these
//! tests prove the isolation boundaries hold: an injected panic or budget
//! blow-up is quarantined, a lost worker degrades the verdict — and nothing
//! ever aborts the process or falsely reports `Secure`.
//!
//! The directives live in process-global environment state, so every test
//! serializes on one lock and clears the variable before releasing it.

#![cfg(feature = "fault-inject")]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use walshcheck::prelude::*;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Takes the environment lock (surviving poisoning: a failed sibling test
/// must not cascade) and installs the given fault plan.
fn plan(directives: &str) -> MutexGuard<'static, ()> {
    let guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("WALSHCHECK_FAULT", directives);
    guard
}

fn clear() {
    std::env::remove_var("WALSHCHECK_FAULT");
}

fn dom2_session() -> Session {
    let netlist = Benchmark::from_name("dom-2").expect("benchmark").netlist();
    Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
}

#[test]
fn injected_panic_is_quarantined_not_fatal() {
    let guard = plan("panic-at=2");
    let verdict = dom2_session().run();
    clear();
    drop(guard);

    assert_eq!(
        verdict.outcome,
        Outcome::Inconclusive(IncompleteReason::WorkerFailure)
    );
    assert!(verdict.witness.is_none());
    let quarantined: Vec<u64> = verdict.skipped.iter().map(|s| s.index).collect();
    assert_eq!(quarantined, vec![2], "exactly the faulted combination");
    assert_eq!(verdict.skipped[0].reason, IncompleteReason::WorkerFailure);
    assert!(
        verdict.stats.combinations > 1,
        "siblings of the faulted combination were still checked"
    );
    assert!(std::panic::catch_unwind(|| verdict.expect_secure()).is_err());
}

#[test]
fn injected_budget_exhaustion_reads_as_node_budget() {
    let guard = plan("budget-at=3");
    let verdict = dom2_session().run();
    clear();
    drop(guard);

    assert_eq!(
        verdict.outcome,
        Outcome::Inconclusive(IncompleteReason::NodeBudget)
    );
    let quarantined: Vec<_> = verdict
        .skipped
        .iter()
        .map(|s| (s.index, s.reason))
        .collect();
    assert_eq!(quarantined, vec![(3, IncompleteReason::NodeBudget)]);
}

#[test]
fn lost_worker_degrades_but_does_not_hang() {
    // Worker 1 dies at startup, outside the per-combination boundary; the
    // scheduler must notice the loss, keep worker 0 sweeping, and degrade
    // the verdict rather than deadlock on the dead worker's batches.
    let guard = plan("lose-worker=1");
    let verdict = dom2_session().threads(2).run();
    clear();
    drop(guard);

    assert!(verdict.stats.worker_failures >= 1, "the loss is accounted");
    assert_eq!(
        verdict.outcome,
        Outcome::Inconclusive(IncompleteReason::WorkerFailure)
    );
    assert!(verdict.witness.is_none());
}

#[test]
fn rescue_heals_an_injected_panic() {
    // The sweep quarantines the faulted combination; the rescue pass
    // re-checks it *outside* the sweep-fault boundary (sweep directives do
    // not fire on rescue attempts), so the very first ladder rung — a plain
    // retry, since no node budget was configured — comes back clean and the
    // verdict upgrades to `Secure`.
    let guard = plan("panic-at=2");
    let verdict = dom2_session().rescue(true).run();
    clear();
    drop(guard);

    assert_eq!(verdict.outcome, Outcome::Secure);
    assert!(verdict.skipped.is_empty());
    let recovery = verdict.recovery.expect("rescue ran");
    assert_eq!(recovery.attempted, 1);
    assert_eq!(recovery.unresolved, 0);
    let rec = &recovery.combinations[0];
    assert_eq!(rec.index, 2);
    assert_eq!(rec.reason, IncompleteReason::WorkerFailure);
    assert_eq!(rec.resolution, RescueResolution::Clean);
    assert_eq!(rec.attempts.len(), 1, "a clean retry ends the ladder");
    assert_eq!(rec.attempts[0].rung, RescueRung::Budget);
    assert_eq!(rec.attempts[0].node_budget, None);
    assert_eq!(rec.attempts[0].outcome, RescueAttemptOutcome::Clean);
}

#[test]
fn persistent_rescue_panic_exhausts_the_ladder() {
    // `rescue-panic-at` fires on *every* rescue attempt for the index, so
    // the full ladder (plain retry, two engine fallbacks off MAPI)
    // runs and fails; the quarantine survives with its original reason.
    let guard = plan("panic-at=2,rescue-panic-at=2");
    let verdict = dom2_session().rescue(true).run();
    clear();
    drop(guard);

    assert_eq!(
        verdict.outcome,
        Outcome::Inconclusive(IncompleteReason::WorkerFailure)
    );
    let quarantined: Vec<u64> = verdict.skipped.iter().map(|s| s.index).collect();
    assert_eq!(quarantined, vec![2]);
    let recovery = verdict.recovery.expect("rescue ran");
    assert_eq!(recovery.attempted, 1);
    assert_eq!(recovery.unresolved, 1);
    let rec = &recovery.combinations[0];
    assert_eq!(rec.resolution, RescueResolution::Unresolved);
    assert_eq!(rec.attempts.len(), 3, "the whole ladder was walked");
    assert!(rec
        .attempts
        .iter()
        .all(|a| a.outcome == RescueAttemptOutcome::Panicked));
}

#[test]
fn persistent_rescue_budget_failure_stays_node_budget() {
    let guard = plan("budget-at=3,rescue-budget-at=3");
    let verdict = dom2_session().rescue(true).run();
    clear();
    drop(guard);

    assert_eq!(
        verdict.outcome,
        Outcome::Inconclusive(IncompleteReason::NodeBudget)
    );
    let recovery = verdict.recovery.expect("rescue ran");
    assert_eq!(recovery.unresolved, 1);
    let rec = &recovery.combinations[0];
    assert_eq!(rec.index, 3);
    assert_eq!(rec.resolution, RescueResolution::Unresolved);
    assert!(rec
        .attempts
        .iter()
        .all(|a| a.outcome == RescueAttemptOutcome::NodeBudget));
}

#[test]
fn rescue_rederives_a_quarantined_violation() {
    // Force the quarantine of the *violating* combination itself: the
    // rescue pass must re-derive the violation and the final witness must
    // be byte-identical to the unconstrained run's (recomputed with the
    // run's own engine, no budget).
    let netlist = Benchmark::from_name("ti-1").expect("benchmark").netlist();
    let guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    clear();

    let (obs, rx) = ChannelObserver::new();
    let baseline = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .threads(1)
        .observer(Arc::new(obs))
        .run();
    assert_eq!(baseline.outcome, Outcome::Violated);
    let witness = baseline.witness.clone().expect("witness");
    let index = rx
        .try_iter()
        .find_map(|e| match e {
            ProgressEvent::ViolationFound { index, .. } => Some(index),
            _ => None,
        })
        .expect("violation event observed");

    std::env::set_var("WALSHCHECK_FAULT", format!("budget-at={index}"));
    let verdict = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .rescue(true)
        .run();
    clear();
    drop(guard);

    assert_eq!(verdict.outcome, Outcome::Violated);
    assert_eq!(verdict.witness, Some(witness), "witness is byte-identical");
    let recovery = verdict.recovery.expect("rescue ran");
    assert!(
        recovery
            .combinations
            .iter()
            .any(|c| c.index == index && c.resolution == RescueResolution::Violated),
        "the violation was re-derived by the rescue pass: {recovery:?}"
    );
}

#[test]
fn faults_on_an_insecure_gadget_cannot_mask_a_witness() {
    // Quarantining combination 0 must not stop the sweep from finding a
    // violation elsewhere — and the witness, once found, is definitive.
    let netlist = Benchmark::from_name("ti-1").expect("benchmark").netlist();
    let guard = plan("panic-at=0");
    let verdict = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .run();
    clear();
    drop(guard);

    assert_eq!(verdict.outcome, Outcome::Violated);
    assert!(verdict.witness.is_some());
    assert!(!verdict.secure);
}
