//! Machine-readable run reports.
//!
//! Every value of a run that reaches a machine is built here as a
//! [`Json`] value: each `to_json` below returns one, [`Report::new`]
//! assembles the `walshcheck-report/5` artifact from them, and
//! [`run_report_json`] the full run document that `walshcheck check
//! --json` prints (both documented in the README and DESIGN.md §13).
//! [`Json::to_canonical`] is the one writer that turns either into text:
//! compact, keys sorted, floats through [`crate::json::canonical_f64`];
//! durations are fractional seconds.
//!
//! The run document carries the three-valued `"outcome"`, a
//! `"degradation"` block saying how much of the sweep an inconclusive
//! verdict is missing (timeout, lost workers, quarantined combinations,
//! resume provenance), a `"recovery"` block (`null` when the rescue pass
//! did not run) recording every escalation-ladder attempt, the timings and
//! cache counters, and the content addresses `"netlist_sha256"` and
//! `"report_hash"`. The latter is the SHA-256 of the run's [`Report`]
//! *artifact*, a canonical document carrying only the deterministic result
//! surface (verdict, witness, quarantines, recovery, space counters — no
//! timings, no cache counters, no thread count). Two runs of the same job
//! produce byte-identical artifacts no matter the thread count or wall
//! clock, which is what lets the `walshcheckd` artifact store deduplicate
//! and serve resubmissions from disk.

use std::time::Duration;

use walshcheck_circuit::netlist::Netlist;

use crate::hash::sha256_hex;
use crate::job::{netlist_sha256, JobSpec};
use crate::json::Json;
use crate::property::{CheckStats, Outcome, ProbeRef, SkippedCombination, Verdict, Witness};

/// Quarantined combinations listed inline in a report before the list is
/// truncated to a count (keeps reports bounded on pathological runs where
/// thousands of combinations blow the budget).
const MAX_SKIPPED_IN_REPORT: usize = 64;

/// `items` as an array of their JSON values, truncated to
/// [`MAX_SKIPPED_IN_REPORT`] entries.
fn listed<T>(items: &[T], to_json: impl Fn(&T) -> Json) -> Json {
    Json::Arr(
        items
            .iter()
            .take(MAX_SKIPPED_IN_REPORT)
            .map(to_json)
            .collect(),
    )
}

fn probes_json(probes: &[ProbeRef], netlist: Option<&Netlist>) -> Json {
    Json::Arr(probes.iter().map(|p| p.to_json(netlist)).collect())
}

impl CheckStats {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("combinations", Json::uint(self.combinations)),
            ("pruned", Json::uint(self.pruned)),
            ("convolutions", Json::uint(self.convolutions)),
            ("rows_checked", Json::uint(self.rows_checked)),
            ("cache_hits", Json::uint(self.cache_hits)),
            ("cache_misses", Json::uint(self.cache_misses)),
            ("cache_evictions", Json::uint(self.cache_evictions)),
            ("cache_peak_bytes", Json::uint(self.cache_peak_bytes)),
            ("dd_cache_hits", Json::uint(self.dd_cache_hits)),
            ("dd_cache_misses", Json::uint(self.dd_cache_misses)),
            ("dd_cache_evictions", Json::uint(self.dd_cache_evictions)),
            ("dd_cache_peak_bytes", Json::uint(self.dd_cache_peak_bytes)),
            ("skipped", Json::uint(self.skipped)),
            ("worker_failures", Json::uint(self.worker_failures)),
            (
                "convolution_seconds",
                Json::Float(self.convolution_time.as_secs_f64()),
            ),
            (
                "verification_seconds",
                Json::Float(self.verification_time.as_secs_f64()),
            ),
            ("total_seconds", Json::Float(self.total_time.as_secs_f64())),
            ("timed_out", Json::Bool(self.timed_out)),
            ("interrupted", Json::Bool(self.interrupted)),
        ])
    }
}

impl SkippedCombination {
    /// The quarantined combination as a JSON object; wire names resolve
    /// through `netlist` when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> Json {
        Json::obj([
            ("index", Json::uint(self.index)),
            ("reason", Json::str(self.reason.as_str())),
            ("probes", probes_json(&self.combination, netlist)),
        ])
    }
}

impl ProbeRef {
    /// The probe as a JSON object; wire names resolve through `netlist`
    /// when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> Json {
        let mut fields = vec![("wire", Json::uint(self.wire().0))];
        if let Some(n) = netlist {
            fields.push(("name", Json::str(n.wire_name(self.wire()))));
        }
        match *self {
            ProbeRef::Output { output, index, .. } => fields.extend([
                ("kind", Json::str("output")),
                ("output", Json::uint(output.0)),
                ("share", Json::uint(index)),
            ]),
            ProbeRef::Internal { .. } => fields.push(("kind", Json::str("internal"))),
        }
        Json::obj(fields)
    }
}

impl Witness {
    /// The witness as a JSON object; wire names resolve through `netlist`
    /// when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> Json {
        Json::obj([
            ("probes", probes_json(&self.combination, netlist)),
            ("mask", Json::str(self.mask.to_string())),
            ("reason", Json::str(self.reason.clone())),
            (
                "coefficient",
                self.coefficient
                    .as_ref()
                    .map_or(Json::Null, |c| Json::str(c.to_string())),
            ),
        ])
    }
}

impl crate::recover::RescueAttempt {
    /// The attempt as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rung", Json::str(self.rung.as_str())),
            ("engine", Json::str(self.engine.as_str())),
            (
                "node_budget",
                self.node_budget.map_or(Json::Null, Json::uint),
            ),
            ("outcome", Json::str(self.outcome.as_str())),
        ])
    }

    /// Reads back an object written by [`Self::to_json`].
    pub(crate) fn from_json(a: &Json) -> Option<Self> {
        use crate::recover::{RescueAttemptOutcome, RescueRung};
        let text = |key: &str| a.get(key).and_then(Json::as_str);
        let node_budget = match a.get("node_budget")? {
            Json::Null => None,
            n => Some(usize::try_from(n.as_u64()?).ok()?),
        };
        Some(crate::recover::RescueAttempt {
            rung: RescueRung::parse(text("rung")?)?,
            engine: crate::engine::EngineKind::parse(text("engine")?)?,
            node_budget,
            outcome: RescueAttemptOutcome::parse(text("outcome")?)?,
        })
    }
}

impl crate::recover::RescuedCombination {
    /// The per-combination rescue record as a JSON object; wire names
    /// resolve through `netlist` when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> Json {
        Json::obj([
            ("index", Json::uint(self.index)),
            ("reason", Json::str(self.reason.as_str())),
            ("probes", probes_json(&self.combination, netlist)),
            (
                "attempts",
                Json::Arr(self.attempts.iter().map(|a| a.to_json()).collect()),
            ),
            ("resolution", Json::str(self.resolution.as_str())),
        ])
    }
}

impl crate::recover::RecoveryReport {
    /// The `"recovery"` block of a report. The per-combination list is
    /// truncated like the skipped list, with a flag saying so.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> Json {
        Json::obj([
            ("attempted", Json::uint(self.attempted)),
            ("resolved", Json::uint(self.resolved)),
            ("unresolved", Json::uint(self.unresolved)),
            (
                "combinations",
                listed(&self.combinations, |c| c.to_json(netlist)),
            ),
            (
                "combinations_truncated",
                Json::Bool(self.combinations.len() > MAX_SKIPPED_IN_REPORT),
            ),
        ])
    }
}

impl Verdict {
    /// The verdict as a JSON object (property, outcome, witness, skipped,
    /// stats, recovery). `secure` is kept next to `outcome` for 0.2
    /// consumers.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> Json {
        Json::obj([
            ("property", Json::str(self.property.to_string())),
            ("secure", Json::Bool(self.secure)),
            ("outcome", Json::str(self.outcome.as_str())),
            ("witness", self.witness_json(netlist)),
            ("skipped", listed(&self.skipped, |s| s.to_json(netlist))),
            ("stats", self.stats.to_json()),
            ("recovery", self.recovery_json(netlist)),
        ])
    }

    fn witness_json(&self, netlist: Option<&Netlist>) -> Json {
        self.witness
            .as_ref()
            .map_or(Json::Null, |w| w.to_json(netlist))
    }

    fn recovery_json(&self, netlist: Option<&Netlist>) -> Json {
        self.recovery
            .as_ref()
            .map_or(Json::Null, |r| r.to_json(netlist))
    }
}

/// The `"degradation"` block of a run document: how far the verdict is
/// from a full sweep. `reason` is `null` on conclusive runs.
fn degradation_json(verdict: &Verdict, netlist: &Netlist, resumed: bool) -> Json {
    let reason = match verdict.outcome {
        Outcome::Inconclusive(r) => Json::str(r.as_str()),
        Outcome::Secure | Outcome::Violated => Json::Null,
    };
    Json::obj([
        ("reason", reason),
        ("timed_out", Json::Bool(verdict.stats.timed_out)),
        ("worker_failures", Json::uint(verdict.stats.worker_failures)),
        ("skipped_count", Json::uint(verdict.skipped.len())),
        (
            "skipped",
            listed(&verdict.skipped, |s| s.to_json(Some(netlist))),
        ),
        (
            "skipped_truncated",
            Json::Bool(verdict.skipped.len() > MAX_SKIPPED_IN_REPORT),
        ),
        ("resumed", Json::Bool(resumed)),
    ])
}

/// The schema tag of the run document and of [`Report`] artifacts.
pub const REPORT_SCHEMA: &str = "walshcheck-report/5";

/// The deterministic result artifact of one verification job.
///
/// A report carries only what every run of the same job reproduces
/// exactly: the job identity (netlist hash + spec identity), the verdict
/// with witness / quarantine / recovery evidence, and the combination-space
/// counters. Timings, cache counters and the thread count are deliberately
/// absent — [`Report::canonical_json`] is byte-identical across thread
/// counts, checkpoint/resume, and machines, and [`Report::hash`] over those
/// bytes is the run's content address.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Report {
    doc: Json,
    canonical: String,
    hash: String,
}

impl Report {
    /// Builds the artifact for `verdict` obtained by running `spec` on
    /// `netlist`.
    pub fn new(netlist: &Netlist, spec: &JobSpec, verdict: &Verdict) -> Report {
        let Json::Obj(mut result) = verdict.to_json(Some(netlist)) else {
            unreachable!("a verdict is an object")
        };
        // The stats block mixes deterministic space counters with wall-clock
        // and cache telemetry; keep only the former in the artifact.
        // `rows_checked` stays out too: a resumed run skips the rows of
        // already-completed combinations, so the counter is history-
        // dependent even though the verdict is not. On violated runs even
        // `combinations`/`pruned` are scheduling-dependent — workers may
        // probe a few extra combinations before the cancellation bound
        // reaches them — so they are nulled whenever a witness exists
        // (exhaustive sweeps pin them exactly; cancelled sweeps cannot).
        result.remove("stats");
        let exhaustive = verdict.witness.is_none();
        for (counter, value) in [
            ("combinations", verdict.stats.combinations),
            ("pruned", verdict.stats.pruned),
        ] {
            let value = if exhaustive {
                Json::uint(value)
            } else {
                Json::Null
            };
            result.insert(counter.into(), value);
        }
        let doc = Json::obj([
            ("schema", Json::str(REPORT_SCHEMA)),
            (
                "job",
                Json::obj([
                    ("netlist", Json::str(netlist.name.clone())),
                    ("netlist_sha256", Json::str(netlist_sha256(netlist))),
                    ("spec", spec.identity_json()),
                ]),
            ),
            ("result", Json::Obj(result)),
        ]);
        let canonical = doc.to_canonical();
        let hash = sha256_hex(canonical.as_bytes());
        Report {
            doc,
            canonical,
            hash,
        }
    }

    /// The artifact bytes: canonical JSON, stable across runs of the same
    /// job. This exact string is what the artifact store persists and what
    /// `GET /v1/jobs/{id}/report` serves verbatim.
    pub fn canonical_json(&self) -> &str {
        &self.canonical
    }

    /// SHA-256 (lowercase hex) of [`Report::canonical_json`] — the content
    /// address. `sha256sum report.json` reproduces it.
    pub fn hash(&self) -> &str {
        &self.hash
    }

    /// The artifact as a JSON value.
    pub fn doc(&self) -> &Json {
        &self.doc
    }

    /// The run's outcome string (`"secure"` / `"violated"` /
    /// `"inconclusive"`).
    pub fn outcome(&self) -> &str {
        self.doc
            .get("result")
            .and_then(|r| r.get("outcome"))
            .and_then(Json::as_str)
            .expect("artifact carries an outcome")
    }

    /// Whether no violating combination was found (the 0.2 `secure` bool).
    pub fn secure(&self) -> bool {
        self.doc
            .get("result")
            .and_then(|r| r.get("secure"))
            .and_then(Json::as_bool)
            .expect("artifact carries the secure bool")
    }

    /// The netlist content hash the job ran against.
    pub fn netlist_sha256(&self) -> &str {
        self.doc
            .get("job")
            .and_then(|j| j.get("netlist_sha256"))
            .and_then(Json::as_str)
            .expect("artifact carries the netlist hash")
    }
}

/// The full `walshcheck check --json` run document (schema
/// `walshcheck-report/5`): the verdict (with its three-valued outcome,
/// degradation block, and recovery block) plus the job configuration from
/// `spec`, content addressing (`netlist_sha256`, `report_hash`), the
/// prefix-cache configuration and counters, and the observer-collected
/// engine-phase timings `(name, duration)`. `resumed` records whether the
/// run was seeded from a checkpoint.
///
/// `"threads"` lives only in this run document, never in the [`Report`]
/// artifact: results are thread-count independent, so the content address
/// must not depend on it.
pub fn run_report_json(
    netlist: &Netlist,
    verdict: &Verdict,
    spec: &JobSpec,
    phases: &[(String, Duration)],
    resumed: bool,
) -> Json {
    let stats = &verdict.stats;
    let artifact = Report::new(netlist, spec, verdict);
    let budget = spec.options.cache_budget;
    let cache = Json::obj([
        ("enabled", Json::Bool(budget > 0)),
        ("budget_bytes", Json::uint(budget)),
        ("hits", Json::uint(stats.cache_hits)),
        ("misses", Json::uint(stats.cache_misses)),
        ("evictions", Json::uint(stats.cache_evictions)),
        ("peak_bytes", Json::uint(stats.cache_peak_bytes)),
        (
            "dd",
            Json::obj([
                ("hits", Json::uint(stats.dd_cache_hits)),
                ("misses", Json::uint(stats.dd_cache_misses)),
                ("evictions", Json::uint(stats.dd_cache_evictions)),
                ("peak_bytes", Json::uint(stats.dd_cache_peak_bytes)),
            ]),
        ),
    ]);
    let phases = phases
        .iter()
        .map(|(name, d)| (name.clone(), Json::Float(d.as_secs_f64())))
        .collect();
    Json::obj([
        ("schema", Json::str(REPORT_SCHEMA)),
        ("netlist", Json::str(netlist.name.clone())),
        ("netlist_sha256", Json::str(artifact.netlist_sha256())),
        ("report_hash", Json::str(artifact.hash())),
        ("engine", Json::str(spec.engine().as_str())),
        ("mode", Json::str(spec.mode().as_str())),
        ("threads", Json::uint(spec.threads())),
        ("cache", cache),
        ("property", Json::str(verdict.property.to_string())),
        ("secure", Json::Bool(verdict.secure)),
        ("outcome", Json::str(verdict.outcome.as_str())),
        ("degradation", degradation_json(verdict, netlist, resumed)),
        ("recovery", verdict.recovery_json(Some(netlist))),
        ("witness", verdict.witness_json(Some(netlist))),
        ("stats", stats.to_json()),
        ("phases", Json::Obj(phases)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::Mask;
    use crate::property::Property;
    use walshcheck_circuit::netlist::{OutputId, WireId};

    /// `doc` written canonically and parsed back: what a reader of the
    /// text sees.
    fn reread(doc: &Json) -> Json {
        crate::json::parse(&doc.to_canonical()).expect("canonical JSON parses")
    }

    #[test]
    fn stats_json_shape() {
        let s = CheckStats {
            combinations: 3,
            pruned: 1,
            ..CheckStats::default()
        };
        let j = reread(&s.to_json());
        assert_eq!(j.get("combinations"), Some(&Json::Int(3)));
        assert_eq!(j.get("pruned"), Some(&Json::Int(1)));
        assert_eq!(j.get("timed_out"), Some(&Json::Bool(false)));
        assert_eq!(j.get("interrupted"), Some(&Json::Bool(false)));
        assert_eq!(j.get("total_seconds").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn witness_and_verdict_json() {
        let w = Witness {
            combination: vec![
                ProbeRef::Output {
                    wire: WireId(2),
                    output: OutputId(0),
                    index: 1,
                },
                ProbeRef::Internal { wire: WireId(5) },
            ],
            mask: Mask(0b101),
            reason: "says \"leak\"".into(),
            coefficient: None,
        };
        let j = reread(&w.to_json(None));
        let probes = j.get("probes").and_then(Json::as_arr).expect("probes");
        let output = &probes[0];
        assert_eq!(output.get("kind").and_then(Json::as_str), Some("output"));
        assert_eq!(output.get("wire"), Some(&Json::Int(2)));
        assert_eq!(output.get("output"), Some(&Json::Int(0)));
        assert_eq!(output.get("share"), Some(&Json::Int(1)));
        assert_eq!(
            probes[1].get("kind").and_then(Json::as_str),
            Some("internal")
        );
        assert_eq!(probes[1].get("wire"), Some(&Json::Int(5)));
        assert_eq!(
            j.get("reason").and_then(Json::as_str),
            Some("says \"leak\"")
        );
        assert_eq!(j.get("coefficient"), Some(&Json::Null));

        let v = Verdict::conclude(Property::Sni(1), Some(w), vec![], CheckStats::default());
        let j = reread(&v.to_json(None));
        assert_eq!(j.get("property").and_then(Json::as_str), Some("1-SNI"));
        assert_eq!(j.get("secure"), Some(&Json::Bool(false)));
        assert_eq!(j.get("outcome").and_then(Json::as_str), Some("violated"));
        assert!(matches!(j.get("witness"), Some(Json::Obj(_))));
    }

    #[test]
    fn secure_verdict_has_null_witness() {
        let v = Verdict::conclude(Property::Probing(1), None, vec![], CheckStats::default());
        let j = v.to_json(None).to_canonical();
        assert!(j.contains("\"witness\":null"));
        assert!(j.contains("\"outcome\":\"secure\""));
        assert!(j.contains("\"skipped\":[]"));
    }

    #[test]
    fn recovery_block_json_shape() {
        use crate::engine::EngineKind;
        use crate::recover::{
            RecoveryReport, RescueAttempt, RescueAttemptOutcome, RescueResolution, RescueRung,
            RescuedCombination,
        };
        let report = RecoveryReport {
            attempted: 1,
            resolved: 1,
            unresolved: 0,
            combinations: vec![RescuedCombination {
                index: 7,
                combination: vec![ProbeRef::Internal { wire: WireId(3) }],
                reason: crate::property::IncompleteReason::NodeBudget,
                attempts: vec![RescueAttempt {
                    rung: RescueRung::Budget,
                    engine: EngineKind::Mapi,
                    node_budget: Some(16),
                    outcome: RescueAttemptOutcome::Clean,
                }],
                resolution: RescueResolution::Clean,
            }],
        };
        let j = reread(&report.to_json(None));
        assert_eq!(j.get("attempted"), Some(&Json::Int(1)));
        assert_eq!(j.get("resolved"), Some(&Json::Int(1)));
        assert_eq!(j.get("unresolved"), Some(&Json::Int(0)));
        assert_eq!(j.get("combinations_truncated"), Some(&Json::Bool(false)));
        let combination = &j.get("combinations").and_then(Json::as_arr).expect("list")[0];
        assert_eq!(
            combination.get("resolution").and_then(Json::as_str),
            Some("clean")
        );
        let attempt = &combination
            .get("attempts")
            .and_then(Json::as_arr)
            .expect("attempts")[0];
        assert_eq!(attempt.get("rung").and_then(Json::as_str), Some("budget"));
        assert_eq!(attempt.get("engine").and_then(Json::as_str), Some("mapi"));
        assert_eq!(attempt.get("node_budget"), Some(&Json::Int(16)));
    }

    #[test]
    fn inconclusive_verdict_reports_degradation() {
        use crate::property::IncompleteReason;
        let skipped = vec![SkippedCombination {
            index: 9,
            combination: vec![ProbeRef::Internal { wire: WireId(4) }],
            reason: IncompleteReason::NodeBudget,
        }];
        let v = Verdict::conclude(Property::Sni(2), None, skipped, CheckStats::default());
        let j = v.to_json(None).to_canonical();
        assert!(j.contains("\"outcome\":\"inconclusive\""));
        assert!(j.contains("\"reason\":\"node-budget\""));
        assert!(j.contains("\"index\":9"));
    }
}
