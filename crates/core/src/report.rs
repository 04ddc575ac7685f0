//! Machine-readable run reports.
//!
//! The build environment vendors no serialization framework, so this module
//! hand-rolls the small, stable JSON surface that `walshcheck check --json`
//! emits (schema `walshcheck-report/5`, documented in the README). All
//! emitters produce compact single-line JSON with escaped strings; numbers
//! are plain decimals, durations are fractional seconds.
//!
//! Report/3 added the resilience surface on top of report/2: a top-level
//! `"outcome"` (`"secure"` / `"violated"` / `"inconclusive"`) and a
//! `"degradation"` block saying exactly how much of the sweep is missing
//! from an inconclusive verdict (timeout, lost workers, quarantined
//! combinations, resume provenance).
//!
//! Report/4 adds the recovery surface: an `"interrupted"` stat flag and a
//! `"recovery"` block (`null` when the rescue pass did not run) recording
//! every escalation-ladder attempt made for quarantined combinations.
//!
//! Report/5 makes results content-addressable: the run document gains
//! `"netlist_sha256"` (hash of the canonical ILANG dump) and
//! `"report_hash"` — the SHA-256 of the run's [`Report`] *artifact*, a
//! canonical-JSON document carrying only the deterministic result surface
//! (verdict, witness, quarantines, recovery, space counters — no timings,
//! no cache counters, no thread count). Two runs of the same job produce
//! byte-identical artifacts no matter the thread count or wall clock,
//! which is what lets the `walshcheckd` artifact store deduplicate and
//! serve resubmissions from disk.

use std::fmt::Write as _;
use std::time::Duration;

use walshcheck_circuit::netlist::Netlist;

use crate::hash::sha256_hex;
use crate::job::{netlist_sha256, JobSpec};
use crate::json::{self, Json};
use crate::property::{CheckStats, Outcome, ProbeRef, SkippedCombination, Verdict, Witness};

/// Quarantined combinations listed inline in a report before the list is
/// truncated to a count (keeps reports bounded on pathological runs where
/// thousands of combinations blow the budget).
const MAX_SKIPPED_IN_REPORT: usize = 64;

/// Escapes `s` as the contents of a JSON string literal (quotes not
/// included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn seconds(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

impl CheckStats {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"combinations\":{},\"pruned\":{},\"convolutions\":{},",
                "\"rows_checked\":{},\"cache_hits\":{},\"cache_misses\":{},",
                "\"cache_evictions\":{},\"cache_peak_bytes\":{},",
                "\"dd_cache_hits\":{},\"dd_cache_misses\":{},",
                "\"dd_cache_evictions\":{},\"dd_cache_peak_bytes\":{},",
                "\"skipped\":{},\"worker_failures\":{},",
                "\"convolution_seconds\":{},",
                "\"verification_seconds\":{},\"total_seconds\":{},\"timed_out\":{},",
                "\"interrupted\":{}}}"
            ),
            self.combinations,
            self.pruned,
            self.convolutions,
            self.rows_checked,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_peak_bytes,
            self.dd_cache_hits,
            self.dd_cache_misses,
            self.dd_cache_evictions,
            self.dd_cache_peak_bytes,
            self.skipped,
            self.worker_failures,
            seconds(self.convolution_time),
            seconds(self.verification_time),
            seconds(self.total_time),
            self.timed_out,
            self.interrupted,
        )
    }
}

impl SkippedCombination {
    /// The quarantined combination as a JSON object; wire names resolve
    /// through `netlist` when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> String {
        let probes: Vec<String> = self
            .combination
            .iter()
            .map(|p| p.to_json(netlist))
            .collect();
        format!(
            "{{\"index\":{},\"reason\":\"{}\",\"probes\":[{}]}}",
            self.index,
            self.reason.as_str(),
            probes.join(","),
        )
    }
}

impl ProbeRef {
    /// The probe as a JSON object; wire names resolve through `netlist`
    /// when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> String {
        let name = netlist
            .map(|n| format!(",\"name\":\"{}\"", json_escape(n.wire_name(self.wire()))))
            .unwrap_or_default();
        match *self {
            ProbeRef::Output {
                wire,
                output,
                index,
            } => format!(
                "{{\"kind\":\"output\",\"wire\":{}{name},\"output\":{},\"share\":{}}}",
                wire.0, output.0, index
            ),
            ProbeRef::Internal { wire } => {
                format!("{{\"kind\":\"internal\",\"wire\":{}{name}}}", wire.0)
            }
        }
    }
}

impl Witness {
    /// The witness as a JSON object; wire names resolve through `netlist`
    /// when provided.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> String {
        let probes: Vec<String> = self
            .combination
            .iter()
            .map(|p| p.to_json(netlist))
            .collect();
        let coefficient = match &self.coefficient {
            Some(c) => format!("\"{}\"", json_escape(&c.to_string())),
            None => "null".into(),
        };
        format!(
            "{{\"probes\":[{}],\"mask\":\"{}\",\"reason\":\"{}\",\"coefficient\":{}}}",
            probes.join(","),
            self.mask,
            json_escape(&self.reason),
            coefficient,
        )
    }
}

impl crate::recover::RescueAttempt {
    /// The attempt as a JSON object.
    pub fn to_json(&self) -> String {
        let budget = match self.node_budget {
            Some(n) => n.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"rung\":\"{}\",\"engine\":\"{}\",\"node_budget\":{},\"outcome\":\"{}\"}}",
            self.rung.as_str(),
            self.engine.as_str(),
            budget,
            self.outcome.as_str(),
        )
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
    pub fn to_json(&self, netlist: Option<&Netlist>) -> String {
        let probes: Vec<String> = self
            .combination
            .iter()
            .map(|p| p.to_json(netlist))
            .collect();
        let attempts: Vec<String> = self.attempts.iter().map(|a| a.to_json()).collect();
        format!(
            concat!(
                "{{\"index\":{},\"reason\":\"{}\",\"probes\":[{}],",
                "\"attempts\":[{}],\"resolution\":\"{}\"}}"
            ),
            self.index,
            self.reason.as_str(),
            probes.join(","),
            attempts.join(","),
            self.resolution.as_str(),
        )
    }
}

impl crate::recover::RecoveryReport {
    /// The `"recovery"` block of a report/4 document. The per-combination
    /// list is truncated like the skipped list, with a flag saying so.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> String {
        let listed: Vec<String> = self
            .combinations
            .iter()
            .take(MAX_SKIPPED_IN_REPORT)
            .map(|c| c.to_json(netlist))
            .collect();
        format!(
            concat!(
                "{{\"attempted\":{},\"resolved\":{},\"unresolved\":{},",
                "\"combinations\":[{}],\"combinations_truncated\":{}}}"
            ),
            self.attempted,
            self.resolved,
            self.unresolved,
            listed.join(","),
            self.combinations.len() > MAX_SKIPPED_IN_REPORT,
        )
    }
}

impl Verdict {
    /// The verdict as a JSON object (property, outcome, witness, skipped,
    /// stats, recovery). `secure` is kept next to `outcome` for 0.2
    /// consumers.
    pub fn to_json(&self, netlist: Option<&Netlist>) -> String {
        let witness = match &self.witness {
            Some(w) => w.to_json(netlist),
            None => "null".into(),
        };
        let skipped: Vec<String> = self
            .skipped
            .iter()
            .take(MAX_SKIPPED_IN_REPORT)
            .map(|s| s.to_json(netlist))
            .collect();
        let recovery = match &self.recovery {
            Some(r) => r.to_json(netlist),
            None => "null".into(),
        };
        format!(
            concat!(
                "{{\"property\":\"{}\",\"secure\":{},\"outcome\":\"{}\",",
                "\"witness\":{},\"skipped\":[{}],\"stats\":{},\"recovery\":{}}}"
            ),
            json_escape(&self.property.to_string()),
            self.secure,
            self.outcome.as_str(),
            witness,
            skipped.join(","),
            self.stats.to_json(),
            recovery,
        )
    }
}

/// The prefix-cache configuration of a run, echoed in the report so cache
/// counters can be interpreted (schema `walshcheck-report/2`).
#[derive(Debug, Clone, Copy)]
pub struct ReportCacheConfig {
    /// Whether prefix-shared convolution caching was enabled.
    pub enabled: bool,
    /// The per-worker byte budget the run was configured with.
    pub budget_bytes: usize,
}

impl From<&crate::engine::VerifyOptions> for ReportCacheConfig {
    fn from(options: &crate::engine::VerifyOptions) -> Self {
        ReportCacheConfig {
            enabled: options.cache_budget > 0,
            budget_bytes: options.cache_budget,
        }
    }
}

/// The `"degradation"` block of a report/3 document: how far the verdict is
/// from a full sweep. `reason` is `null` on conclusive runs.
fn degradation_json(verdict: &Verdict, netlist: &Netlist, resumed: bool) -> String {
    let reason = match verdict.outcome {
        Outcome::Inconclusive(r) => format!("\"{}\"", r.as_str()),
        Outcome::Secure | Outcome::Violated => "null".into(),
    };
    let listed: Vec<String> = verdict
        .skipped
        .iter()
        .take(MAX_SKIPPED_IN_REPORT)
        .map(|s| s.to_json(Some(netlist)))
        .collect();
    format!(
        concat!(
            "{{\"reason\":{},\"timed_out\":{},\"worker_failures\":{},",
            "\"skipped_count\":{},\"skipped\":[{}],\"skipped_truncated\":{},",
            "\"resumed\":{}}}"
        ),
        reason,
        verdict.stats.timed_out,
        verdict.stats.worker_failures,
        verdict.skipped.len(),
        listed.join(","),
        verdict.skipped.len() > MAX_SKIPPED_IN_REPORT,
        resumed,
    )
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
        let parsed =
            json::parse(&verdict.to_json(Some(netlist))).expect("verdict JSON is well-formed");
        let mut result = match parsed {
            Json::Obj(map) => map,
            _ => unreachable!("verdict serializes to an object"),
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
        let stats = result.remove("stats").unwrap_or(Json::Null);
        let exhaustive = matches!(result.get("witness"), None | Some(Json::Null));
        for counter in ["combinations", "pruned"] {
            let value = if exhaustive {
                stats.get(counter).cloned().unwrap_or(Json::Null)
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

/// The full `walshcheck check --json` run report (schema
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
) -> String {
    let phase_fields: Vec<String> = phases
        .iter()
        .map(|(name, d)| format!("\"{}\":{}", json_escape(name), seconds(*d)))
        .collect();
    let stats = &verdict.stats;
    let cache = ReportCacheConfig::from(&spec.options);
    let artifact = Report::new(netlist, spec, verdict);
    format!(
        concat!(
            "{{\"schema\":\"{}\",\"netlist\":\"{}\",\"netlist_sha256\":\"{}\",",
            "\"report_hash\":\"{}\",",
            "\"engine\":\"{}\",\"mode\":\"{}\",\"threads\":{},",
            "\"cache\":{{\"enabled\":{},\"budget_bytes\":{},\"hits\":{},",
            "\"misses\":{},\"evictions\":{},\"peak_bytes\":{},",
            "\"dd\":{{\"hits\":{},\"misses\":{},\"evictions\":{},",
            "\"peak_bytes\":{}}}}},",
            "\"property\":\"{}\",\"secure\":{},\"outcome\":\"{}\",",
            "\"degradation\":{},\"recovery\":{},\"witness\":{},",
            "\"stats\":{},\"phases\":{{{}}}}}"
        ),
        REPORT_SCHEMA,
        json_escape(&netlist.name),
        artifact.netlist_sha256(),
        artifact.hash(),
        spec.engine().as_str(),
        spec.mode().as_str(),
        spec.threads(),
        cache.enabled,
        cache.budget_bytes,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_peak_bytes,
        stats.dd_cache_hits,
        stats.dd_cache_misses,
        stats.dd_cache_evictions,
        stats.dd_cache_peak_bytes,
        json_escape(&verdict.property.to_string()),
        verdict.secure,
        verdict.outcome.as_str(),
        degradation_json(verdict, netlist, resumed),
        match &verdict.recovery {
            Some(r) => r.to_json(Some(netlist)),
            None => "null".into(),
        },
        match &verdict.witness {
            Some(w) => w.to_json(Some(netlist)),
            None => "null".into(),
        },
        verdict.stats.to_json(),
        phase_fields.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::Mask;
    use crate::property::Property;
    use walshcheck_circuit::netlist::{OutputId, WireId};

    #[test]
    fn escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn stats_json_shape() {
        let s = CheckStats {
            combinations: 3,
            pruned: 1,
            ..CheckStats::default()
        };
        let j = s.to_json();
        assert!(j.starts_with("{\"combinations\":3,\"pruned\":1,"));
        assert!(j.ends_with("\"timed_out\":false,\"interrupted\":false}"));
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
        let j = w.to_json(None);
        assert!(j.contains("\"kind\":\"output\",\"wire\":2,\"output\":0,\"share\":1"));
        assert!(j.contains("\"kind\":\"internal\",\"wire\":5"));
        assert!(j.contains("\\\"leak\\\""));
        assert!(j.contains("\"coefficient\":null"));

        let v = Verdict::conclude(Property::Sni(1), Some(w), vec![], CheckStats::default());
        let j = v.to_json(None);
        assert!(j.contains("\"property\":\"1-SNI\""));
        assert!(j.contains("\"secure\":false"));
        assert!(j.contains("\"outcome\":\"violated\""));
        assert!(j.contains("\"witness\":{"));
    }

    #[test]
    fn secure_verdict_has_null_witness() {
        let v = Verdict::conclude(Property::Probing(1), None, vec![], CheckStats::default());
        let j = v.to_json(None);
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
        let j = report.to_json(None);
        assert!(j.starts_with("{\"attempted\":1,\"resolved\":1,\"unresolved\":0,"));
        assert!(j.contains("\"rung\":\"budget\""));
        assert!(j.contains("\"engine\":\"mapi\""));
        assert!(j.contains("\"node_budget\":16"));
        assert!(j.contains("\"resolution\":\"clean\""));
        assert!(j.ends_with("\"combinations_truncated\":false}"));
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
        let j = v.to_json(None);
        assert!(j.contains("\"outcome\":\"inconclusive\""));
        assert!(j.contains("\"reason\":\"node-budget\""));
        assert!(j.contains("\"index\":9"));
    }
}
