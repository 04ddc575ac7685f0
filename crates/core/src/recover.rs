//! Adaptive recovery: a bounded escalation ladder for quarantined
//! combinations.
//!
//! The resilient sweep (DESIGN.md §10) quarantines a combination instead of
//! aborting when it blows its node budget or its worker panics. This module
//! is the healing half: after the sweep, every quarantined combination is
//! re-verified through a deterministic, bounded ladder of attempts —
//!
//! 1. **Budget escalation** — retry under the original engine with the node
//!    budget doubled per attempt (geometric), capped by the global rescue
//!    budget ([`RescueConfig::budget_bytes`]). A climb that stops below the
//!    cap ends with one attempt at the cap.
//! 2. **Engine fallback** — retry with the remaining engines in MAPI → MAP →
//!    LIL order, trading memory for time (LIL streams rows and keeps almost
//!    nothing resident).
//!
//! Every attempt keeps the sweep's variable order (the input declaration's,
//! over which spectral coordinates are masks).
//!
//! Every attempt runs under the same `catch_unwind` isolation as the sweep,
//! so a rescue attempt that panics is just a recorded [`Panicked`] outcome,
//! never a crash. The per-attempt record feeds the `recovery` block of
//! `walshcheck-report/4` and the [`ProgressObserver`] rescue callbacks.
//!
//! Determinism: the ladder for a given combination depends only on the
//! verification options and the rescue configuration — never on thread
//! count, timing, or which attempt another combination needed — so a rescued
//! run's outcome and witness are byte-identical across thread counts and
//! across checkpoint/resume (see `tests/resilience.rs`).
//!
//! [`Panicked`]: RescueAttemptOutcome::Panicked
//! [`ProgressObserver`]: crate::observe::ProgressObserver

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::engine::{ComboStep, EngineKind, Verifier, VerifyOptions};
use crate::observe::ProgressObserver;
use crate::property::{CheckStats, IncompleteReason, ProbeRef, Property};
use crate::sites::Site;

/// Default global rescue budget: 256 MiB of decision-diagram nodes.
pub const DEFAULT_RESCUE_BUDGET: usize = 256 << 20;

/// Default number of budget-doubling attempts on the first rung.
pub const DEFAULT_RESCUE_ATTEMPTS: u32 = 3;

/// Rough per-node footprint used to convert the byte-denominated rescue
/// budget into a node cap (a packed BDD node plus its share of the unique
/// table).
const BYTES_PER_NODE: usize = 32;

/// Configuration of the post-sweep rescue pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescueConfig {
    /// Whether the rescue pass runs at all. Off by default: a plain run
    /// keeps PR-3 semantics (quarantine → `Inconclusive`).
    pub enabled: bool,
    /// Number of budget-doubling attempts on the first rung. A climb that
    /// stops below the cap adds one attempt at the cap (so `0` means "the
    /// cap only").
    pub attempts: u32,
    /// Global cap, in bytes, on the node budget any single rescue attempt
    /// may be granted. Converted to nodes at a fixed per-node estimate.
    pub budget_bytes: usize,
}

impl Default for RescueConfig {
    fn default() -> Self {
        RescueConfig {
            enabled: false,
            attempts: DEFAULT_RESCUE_ATTEMPTS,
            budget_bytes: DEFAULT_RESCUE_BUDGET,
        }
    }
}

impl RescueConfig {
    /// The node cap every rung is clamped to (at least one node).
    pub fn node_cap(&self) -> usize {
        (self.budget_bytes / BYTES_PER_NODE).max(1)
    }
}

/// Which rung of the escalation ladder an attempt belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescueRung {
    /// Retry under the original engine with a doubled node budget, or
    /// at the budget cap.
    Budget,
    /// Retry with a different engine, at the budget cap.
    EngineFallback,
}

impl RescueRung {
    /// Stable machine-readable name (report/4, checkpoints, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            RescueRung::Budget => "budget",
            RescueRung::EngineFallback => "engine-fallback",
        }
    }

    /// Inverse of [`RescueRung::as_str`].
    pub fn parse(s: &str) -> Option<RescueRung> {
        use RescueRung::*;
        [Budget, EngineFallback]
            .into_iter()
            .find(|r| r.as_str() == s)
    }
}

impl std::fmt::Display for RescueRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a single rescue attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescueAttemptOutcome {
    /// The combination verified clean under this attempt's settings.
    Clean,
    /// The combination is a genuine violation — the run's verdict will be
    /// `Violated` with a deterministically recomputed witness.
    Violated,
    /// The attempt ran out of its node budget; the ladder continues.
    NodeBudget,
    /// The attempt panicked (isolated); the ladder continues.
    Panicked,
}

impl RescueAttemptOutcome {
    /// Stable machine-readable name (report/4).
    pub fn as_str(self) -> &'static str {
        match self {
            RescueAttemptOutcome::Clean => "clean",
            RescueAttemptOutcome::Violated => "violated",
            RescueAttemptOutcome::NodeBudget => "node-budget",
            RescueAttemptOutcome::Panicked => "panicked",
        }
    }

    /// Inverse of [`RescueAttemptOutcome::as_str`].
    pub fn parse(s: &str) -> Option<RescueAttemptOutcome> {
        use RescueAttemptOutcome::*;
        [Clean, Violated, NodeBudget, Panicked]
            .into_iter()
            .find(|o| o.as_str() == s)
    }
}

impl std::fmt::Display for RescueAttemptOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Final resolution of one quarantined combination after the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescueResolution {
    /// Some attempt proved the combination clean.
    Clean,
    /// Some attempt found a violation.
    Violated,
    /// Every attempt failed; the combination stays quarantined and the run
    /// stays `Inconclusive`.
    Unresolved,
}

impl RescueResolution {
    /// Stable machine-readable name (report/4).
    pub fn as_str(self) -> &'static str {
        match self {
            RescueResolution::Clean => "clean",
            RescueResolution::Violated => "violated",
            RescueResolution::Unresolved => "unresolved",
        }
    }

    /// Inverse of [`RescueResolution::as_str`].
    pub fn parse(s: &str) -> Option<RescueResolution> {
        use RescueResolution::*;
        [Clean, Violated, Unresolved]
            .into_iter()
            .find(|r| r.as_str() == s)
    }
}

impl std::fmt::Display for RescueResolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded attempt of the escalation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RescueAttempt {
    /// Which rung produced this attempt.
    pub rung: RescueRung,
    /// The engine the attempt ran under.
    pub engine: EngineKind,
    /// The node budget granted to the attempt (`None` = unbounded, only for
    /// re-running a panic quarantine that never exhausted a budget).
    pub node_budget: Option<usize>,
    /// How the attempt ended.
    pub outcome: RescueAttemptOutcome,
}

/// The full rescue record of one quarantined combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RescuedCombination {
    /// Global enumeration index of the combination.
    pub index: u64,
    /// The probes of the combination.
    pub combination: Vec<ProbeRef>,
    /// Why the sweep quarantined it.
    pub reason: IncompleteReason,
    /// Every attempt made, in ladder order. A combination carried from a
    /// resumed checkpoint keeps the log its ladder wrote in the earlier
    /// process.
    pub attempts: Vec<RescueAttempt>,
    /// The final resolution.
    pub resolution: RescueResolution,
}

/// Summary of the whole rescue pass, attached to the [`Verdict`] and
/// rendered as the `recovery` block of `walshcheck-report/4`.
///
/// [`Verdict`]: crate::property::Verdict
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Combinations the pass attempted (including carried resolutions).
    pub attempted: usize,
    /// Combinations resolved (clean or violated).
    pub resolved: usize,
    /// Combinations still quarantined after the ladder.
    pub unresolved: usize,
    /// Per-combination records, in enumeration order.
    pub combinations: Vec<RescuedCombination>,
}

/// One planned attempt: rung, engine and budget.
struct AttemptPlan {
    rung: RescueRung,
    engine: EngineKind,
    node_budget: Option<usize>,
}

/// Builds the deterministic attempt ladder for the given options. The plan
/// depends only on `(options, config)` — never on which combination is being
/// rescued — which is what makes the rescue pass order- and
/// thread-independent.
fn ladder(options: &VerifyOptions, config: &RescueConfig) -> Vec<AttemptPlan> {
    let cap = config.node_cap();
    let mut plans = Vec::new();
    match options.node_budget {
        // Rung 1: geometric budget escalation, capped.
        Some(base) => {
            let mut budget = base.max(1);
            for _ in 0..config.attempts {
                budget = budget.saturating_mul(2).min(cap);
                plans.push(AttemptPlan {
                    rung: RescueRung::Budget,
                    engine: options.engine,
                    node_budget: Some(budget),
                });
                if budget >= cap {
                    break;
                }
            }
            // A climb that stops below the cap ends with one attempt at it.
            if budget < cap {
                plans.push(AttemptPlan {
                    rung: RescueRung::Budget,
                    engine: options.engine,
                    node_budget: Some(cap),
                });
            }
        }
        // No budget was configured (the quarantine came from a panic, not
        // an overrun): a single plain retry stands in for the rung.
        None => {
            if config.attempts > 0 {
                plans.push(AttemptPlan {
                    rung: RescueRung::Budget,
                    engine: options.engine,
                    node_budget: None,
                });
            }
        }
    }
    // Rung 2: engine fallback, memory-hungry to memory-lean.
    for engine in [EngineKind::Mapi, EngineKind::Map, EngineKind::Lil] {
        if engine != options.engine {
            plans.push(AttemptPlan {
                rung: RescueRung::EngineFallback,
                engine,
                node_budget: Some(cap),
            });
        }
    }
    plans
}

/// Runs one attempt under full panic isolation and classifies the result.
/// Attempt-local counters are deliberately dropped: rescue work must not
/// perturb the run's sweep statistics, which are part of the determinism
/// contract with an unconstrained run.
fn run_attempt(
    verifier: &Verifier,
    property: Property,
    options: &VerifyOptions,
    plan: &AttemptPlan,
    sites: &[Site],
    idxs: &[usize],
    index: u64,
) -> RescueAttemptOutcome {
    let mut opts = options.clone();
    opts.engine = plan.engine;
    opts.node_budget = plan.node_budget;
    opts.prefilter = false;
    let mut stats = CheckStats::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        crate::fault::maybe_inject_rescue(index);
        verifier.check_fresh(property, &opts, sites, idxs, &mut stats)
    }));
    match result {
        Ok(ComboStep::Violation(_)) => RescueAttemptOutcome::Violated,
        Ok(_) => RescueAttemptOutcome::Clean,
        Err(payload) => match crate::isolate::classify(payload.as_ref()) {
            IncompleteReason::NodeBudget => RescueAttemptOutcome::NodeBudget,
            _ => RescueAttemptOutcome::Panicked,
        },
    }
}

/// Walks one quarantined combination up the escalation ladder, stopping at
/// the first conclusive attempt, and returns the full record.
#[allow(clippy::too_many_arguments)] // scheduler-internal plumbing
pub(crate) fn rescue_one(
    verifier: &Verifier,
    property: Property,
    options: &VerifyOptions,
    config: &RescueConfig,
    sites: &[Site],
    index: u64,
    idxs: &[usize],
    reason: IncompleteReason,
    observer: Option<&dyn ProgressObserver>,
) -> RescuedCombination {
    let mut attempts = Vec::new();
    let mut resolution = RescueResolution::Unresolved;
    for plan in ladder(options, config) {
        let outcome = run_attempt(verifier, property, options, &plan, sites, idxs, index);
        let attempt = RescueAttempt {
            rung: plan.rung,
            engine: plan.engine,
            node_budget: plan.node_budget,
            outcome,
        };
        if let Some(obs) = observer {
            obs.rescue_attempt(index, &attempt);
        }
        attempts.push(attempt);
        match outcome {
            RescueAttemptOutcome::Clean => {
                resolution = RescueResolution::Clean;
                break;
            }
            RescueAttemptOutcome::Violated => {
                resolution = RescueResolution::Violated;
                break;
            }
            RescueAttemptOutcome::NodeBudget | RescueAttemptOutcome::Panicked => {}
        }
    }
    if let Some(obs) = observer {
        obs.rescue_resolved(index, resolution);
    }
    RescuedCombination {
        index,
        combination: idxs.iter().map(|&i| sites[i].probe.clone()).collect(),
        reason,
        attempts,
        resolution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(engine: EngineKind, budget: Option<usize>) -> VerifyOptions {
        let mut o = VerifyOptions::builder().engine(engine).build();
        o.node_budget = budget;
        o
    }

    fn shape(plans: &[AttemptPlan]) -> Vec<(RescueRung, EngineKind, Option<usize>)> {
        plans
            .iter()
            .map(|p| (p.rung, p.engine, p.node_budget))
            .collect()
    }

    #[test]
    fn ladder_escalates_geometrically_to_the_cap_then_falls_back() {
        let config = RescueConfig {
            enabled: true,
            ..RescueConfig::default()
        };
        let plans = ladder(&opts(EngineKind::Mapi, Some(1)), &config);
        let cap = config.node_cap();
        assert_eq!(
            shape(&plans),
            vec![
                (RescueRung::Budget, EngineKind::Mapi, Some(2)),
                (RescueRung::Budget, EngineKind::Mapi, Some(4)),
                (RescueRung::Budget, EngineKind::Mapi, Some(8)),
                (RescueRung::Budget, EngineKind::Mapi, Some(cap)),
                (RescueRung::EngineFallback, EngineKind::Map, Some(cap)),
                (RescueRung::EngineFallback, EngineKind::Lil, Some(cap)),
            ]
        );
    }

    #[test]
    fn ladder_caps_the_geometric_climb() {
        let config = RescueConfig {
            enabled: true,
            attempts: 10,
            budget_bytes: 4 * 32, // cap = 4 nodes
        };
        let plans = ladder(&opts(EngineKind::Lil, Some(1)), &config);
        let budgets: Vec<_> = plans
            .iter()
            .filter(|p| p.rung == RescueRung::Budget)
            .map(|p| p.node_budget)
            .collect();
        // 2, then 4 == cap stops the climb — never ten attempts, and no
        // extra attempt at the cap the climb already reached.
        assert_eq!(budgets, vec![Some(2), Some(4)]);
    }

    #[test]
    fn zero_attempts_still_try_the_cap_once() {
        let config = RescueConfig {
            enabled: true,
            attempts: 0,
            budget_bytes: 64 * 32, // cap = 64 nodes
        };
        let fallbacks: Vec<_> = [EngineKind::Mapi, EngineKind::Map, EngineKind::Lil]
            .map(|e| (RescueRung::EngineFallback, e, Some(64)))
            .into();
        // A sweep budget below the cap: one attempt at the cap, then the
        // fallbacks; at or above the cap, only the fallbacks.
        let plans = ladder(&opts(EngineKind::Fujita, Some(16)), &config);
        assert_eq!(
            shape(&plans)[0],
            (RescueRung::Budget, EngineKind::Fujita, Some(64))
        );
        assert_eq!(shape(&plans)[1..], fallbacks);
        for base in [64, 1000] {
            let plans = ladder(&opts(EngineKind::Fujita, Some(base)), &config);
            assert_eq!(shape(&plans), fallbacks, "sweep budget {base}");
        }
    }

    #[test]
    fn panic_quarantines_get_a_single_plain_retry() {
        let config = RescueConfig::default();
        let plans = ladder(&opts(EngineKind::Mapi, None), &config);
        assert_eq!(plans[0].rung, RescueRung::Budget);
        assert_eq!(plans[0].node_budget, None);
        assert_eq!(
            plans
                .iter()
                .filter(|p| p.rung == RescueRung::Budget)
                .count(),
            1
        );
        // Full ladder: plain retry, two fallbacks (MAPI is the base).
        assert_eq!(plans.len(), 3);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RescueRung::EngineFallback.as_str(), "engine-fallback");
        assert_eq!(RescueAttemptOutcome::NodeBudget.as_str(), "node-budget");
        assert_eq!(RescueResolution::Unresolved.to_string(), "unresolved");
    }
}
