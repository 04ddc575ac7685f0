//! Metric names, the results record, and the result line.

use std::collections::BTreeMap;

use walshcheck_core::json::{self, Json};

use crate::trace::Tracer;
use crate::Args;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("check_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("rtt_s_iqm", "s"),
    ("rtt_s_p95", "s"),
    ("hit_rtt_s_p50", "s"),
    ("jobs_per_s", "1/s"),
];

/// The Table I gadgets, in the order `table1.<gadget>.check_s` is listed.
pub const TABLE1_GADGETS: [&str; 10] = [
    "ti-1",
    "trichina-1",
    "isw-1",
    "dom-1",
    "keccak-1",
    "dom-2",
    "keccak-2",
    "dom-3",
    "keccak-3",
    "dom-4",
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not reach reads 0 (see `layers.json` for where each one moves).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("circuit.build_s", "s"),
        ("circuit.unfold_s", "s"),
        ("circuit.ilang_parse_s", "s"),
        ("core.session_new_s", "s"),
        ("core.run_s", "s"),
        ("core.sites.extract_s", "s"),
        ("core.sites.count", "count"),
        ("core.spectrum.convolution_s", "s"),
        ("core.spectrum.convolutions", "count"),
        ("core.engine.verification_s", "s"),
        ("core.engine.rows_checked", "count"),
        ("core.pcache.hit_frac", "frac"),
        ("core.pcache.evictions", "count"),
        ("core.pcache.peak_mb", "MiB"),
        ("core.scheduler.combinations", "count"),
        ("core.scheduler.pruned_frac", "frac"),
        ("core.scheduler.other_s", "s"),
        ("core.observe.events", "count"),
        ("core.observe.overhead_s", "s"),
        ("dd.memo_hit_frac", "frac"),
        ("dd.memo_misses", "count"),
        ("dd.memo_peak_mb", "MiB"),
        ("daemon.http.submit_s_p50", "s"),
        ("daemon.http.report_s_p50", "s"),
        ("daemon.http.requests_per_job", "count"),
        ("daemon.jobs.queue_wait_s_p50", "s"),
        ("daemon.jobs.run_s_p50", "s"),
        ("daemon.jobs.events_per_job", "count"),
        ("daemon.store.hit_frac", "frac"),
        ("daemon.store.fsyncs_per_job", "count"),
        ("daemon.store.fsync_s_per_job", "s"),
        ("daemon.store.bytes_per_job", "B"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    names.extend(
        TABLE1_GADGETS
            .iter()
            .map(|g| (format!("table1.{g}.check_s"), "s")),
    );
    names
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every verdict matched the expected table and every artifact its
    /// in-process reference.
    pub correct: bool,
    /// Measured values by metric name (end-to-end and, traced, per-layer).
    pub metrics: BTreeMap<String, f64>,
    /// Counters and phase times the program itself returned
    /// (`Verdict.stats`, `PhaseTiming` events), kept apart from the spans.
    pub program_reported: BTreeMap<String, f64>,
    /// Workload-specific evidence (per-check rows, attribution).
    pub details: Vec<(&'static str, Json)>,
    pub tracer: Option<std::sync::Arc<Tracer>>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Writes the results record and returns the result line.
pub fn finish(args: &Args, r: RunResult) -> Result<String, String> {
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut line_metrics = Vec::new();
    let mut metrics = BTreeMap::new();
    for (name, unit) in &wanted {
        let value = match r.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure `{name}`")),
        };
        if !value.is_finite() {
            return Err(format!("`{name}` is not a finite number"));
        }
        line_metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
        metrics.insert(
            name.clone(),
            Json::obj([("value", Json::Float(value)), ("unit", Json::str(*unit))]),
        );
    }
    let provenance = match &args.provenance {
        Some(text) => json::parse(text).map_err(|e| format!("--provenance: {e}"))?,
        None => Json::obj([]),
    };
    let mut prov = match provenance {
        Json::Obj(m) => m,
        _ => return Err("--provenance must be a JSON object".into()),
    };
    prov.insert("seed".into(), Json::Int(args.seed as i64));
    prov.insert(
        "nproc".into(),
        Json::Int(
            std::thread::available_parallelism()
                .map(|n| n.get() as i64)
                .unwrap_or(1),
        ),
    );
    let mut doc = vec![
        ("schema", Json::str("walshbench/1")),
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("provenance", Json::Obj(prov)),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Int(r.attempted as i64)),
        ("failed", Json::Int(r.failed as i64)),
        ("metrics", Json::Obj(metrics)),
        (
            "program_reported",
            Json::Obj(
                r.program_reported
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Float(v)))
                    .collect(),
            ),
        ),
    ];
    doc.extend(r.details);
    if let Some(t) = &r.tracer {
        doc.push(("trace", t.to_json()));
    }
    let dir = std::path::Path::new(".bench_results");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.smoke { "-smoke" } else { "" }
    ));
    std::fs::write(&path, Json::obj(doc).to_canonical() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        line_metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_measured_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_in(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_in(&doc, "per_layer"), layers);
    }

    #[test]
    fn layer_map_names_a_target_for_every_per_layer_metric() {
        let map = json::parse(include_str!("../layers.json")).expect("valid JSON");
        let metrics = map.get("metrics").expect("metrics map");
        let workloads = ["table1", "beyond-order", "daemon-mix"];
        for (name, _) in per_layer_names() {
            let entry = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing from layers.json"));
            let moves = entry.get("moves").and_then(Json::as_arr).expect("moves");
            assert!(!moves.is_empty(), "{name} moves nothing");
            for m in moves.iter().chain(
                entry
                    .get("no_change_on")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[]),
            ) {
                let w = m
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| m.as_str().expect("workload name or {metric, workload}"));
                assert!(workloads.contains(&w), "{name}: unknown workload {w}");
                if let Some(e) = m.get("metric").and_then(Json::as_str) {
                    assert!(
                        END_TO_END.iter().any(|&(n, _)| n == e),
                        "{name}: {e} is not an end-to-end metric"
                    );
                }
            }
        }
    }
}
