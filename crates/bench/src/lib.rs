//! Benchmark harness reproducing the paper's evaluation.
//!
//! The paper evaluates the MAPI method against the LIL baseline of \[11\], two
//! implementation ablations (MAP, FUJITA) and three external tools
//! (maskVerif, Bloem et al., SILVER) on ten gadgets. This crate provides:
//!
//! * [`run_engine`] — one timed SNI verification of a benchmark gadget with
//!   a given engine, in the paper-faithful configuration;
//! * [`run_heuristic`], [`run_bloem_like`], [`run_silver_like`] — the
//!   Table III comparison columns (see the DESIGN.md substitution notes);
//! * [`tables`] — the paper's published numbers, for side-by-side printing;
//! * the `report` binary — regenerates every table and figure;
//! * the Criterion benches (`benches/`) — statistically sampled timings of
//!   the same workloads plus ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use std::fmt::Write as _;

use walshcheck_core::engine::{EngineKind, VerifyOptions, DEFAULT_CACHE_BUDGET};
use walshcheck_core::exhaustive::exhaustive_check;
use walshcheck_core::heuristic::heuristic_check;
use walshcheck_core::json::Json;
use walshcheck_core::property::Property;
use walshcheck_core::report::json_escape;
use walshcheck_core::session::Session;
use walshcheck_core::sites::SiteOptions;
use walshcheck_gadgets::suite::Benchmark;

/// Timing and outcome of one verification run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Gadget name (paper's table row).
    pub gadget: String,
    /// Engine or tool label (paper's table column).
    pub tool: String,
    /// Wall-clock time of the whole check.
    pub total: Duration,
    /// Time spent in base-spectrum computation and convolution.
    pub convolution: Duration,
    /// Time spent testing rows against the property.
    pub verification: Duration,
    /// Verification outcome (all shipped benchmarks are secure at their
    /// design order).
    pub secure: bool,
    /// Number of enumerated probe combinations.
    pub combinations: u64,
    /// Whether the run hit its wall-clock budget (time is a lower bound).
    pub timed_out: bool,
}

/// The property the paper's evaluation checks for a benchmark: SNI at the
/// gadget's design order.
pub fn paper_property(bench: Benchmark) -> Property {
    Property::Sni(bench.security_order())
}

/// Runs one benchmark with one engine in the paper-faithful configuration
/// (row-wise checking, no prefilter, largest combinations first).
///
/// # Panics
///
/// Panics if the generated benchmark netlist is invalid (a bug).
pub fn run_engine(bench: Benchmark, engine: EngineKind) -> RunResult {
    run_engine_with(bench, engine, None)
}

/// Like [`run_engine`] with an optional wall-clock budget: a run that hits
/// the budget reports `timed_out = true` and its time is a lower bound —
/// mirroring how the paper handles the LIL blow-up on keccak-3.
pub fn run_engine_with(
    bench: Benchmark,
    engine: EngineKind,
    time_limit: Option<Duration>,
) -> RunResult {
    let netlist = bench.netlist();
    let mut options = VerifyOptions::paper(engine);
    options.time_limit = time_limit;
    let start = Instant::now();
    let verdict = Session::new(&netlist)
        .expect("benchmark netlists are valid")
        .property(paper_property(bench))
        .options(options)
        .run();
    let total = start.elapsed();
    RunResult {
        gadget: bench.name(),
        tool: engine.to_string(),
        total,
        convolution: verdict.stats.convolution_time,
        verification: verdict.stats.verification_time,
        secure: verdict.secure,
        combinations: verdict.stats.combinations,
        timed_out: verdict.stats.timed_out,
    }
}

/// Runs the maskVerif-style heuristic on a benchmark (Table III column
/// "maskVerif"). Inconclusive results count as completed runs — maskVerif
/// also reports its findings either way.
pub fn run_heuristic(bench: Benchmark) -> RunResult {
    let netlist = bench.netlist();
    let start = Instant::now();
    let verdict = heuristic_check(&netlist, paper_property(bench), &SiteOptions::default())
        .expect("benchmark netlists are valid");
    let total = start.elapsed();
    RunResult {
        gadget: bench.name(),
        tool: "maskVerif-like".into(),
        total,
        convolution: Duration::ZERO,
        verification: Duration::ZERO,
        secure: verdict.secure == Some(true),
        combinations: verdict.stats.combinations,
        timed_out: false,
    }
}

/// Runs the Bloem-et-al.-like check (Table III column "Bloem's"): a
/// first-order-only Fourier-coefficient probing check, as their tool
/// "primarily applies to the first-order circuits and does not consider
/// strong non-interference".
pub fn run_bloem_like(bench: Benchmark) -> RunResult {
    let netlist = bench.netlist();
    let options = VerifyOptions::builder().engine(EngineKind::Map).build();
    let start = Instant::now();
    let verdict = Session::new(&netlist)
        .expect("benchmark netlists are valid")
        .property(Property::Probing(1))
        .options(options)
        .run();
    let total = start.elapsed();
    RunResult {
        gadget: bench.name(),
        tool: "Bloem-like".into(),
        total,
        convolution: verdict.stats.convolution_time,
        verification: verdict.stats.verification_time,
        secure: verdict.secure,
        combinations: verdict.stats.combinations,
        timed_out: false,
    }
}

/// Runs the SILVER-like exact distribution enumeration (Table III column
/// "SILVER"), or `None` when the gadget is too wide to enumerate — the
/// paper's table likewise has `-` entries for benchmarks SILVER lacks.
pub fn run_silver_like(bench: Benchmark) -> Option<RunResult> {
    let netlist = bench.netlist();
    if netlist.inputs.len() > 16 {
        return None;
    }
    let start = Instant::now();
    let verdict = exhaustive_check(&netlist, paper_property(bench), &SiteOptions::default())
        .expect("width checked above");
    let total = start.elapsed();
    Some(RunResult {
        gadget: bench.name(),
        tool: "SILVER-like".into(),
        total,
        convolution: verdict.stats.convolution_time,
        verification: verdict.stats.verification_time,
        secure: verdict.secure,
        combinations: verdict.stats.combinations,
        timed_out: false,
    })
}

/// One row of the prefix-cache A/B comparison: the same check timed with
/// the cache enabled and disabled.
#[derive(Debug, Clone)]
pub struct CacheComparison {
    /// Gadget name.
    pub gadget: String,
    /// Worker-thread count of both runs.
    pub threads: usize,
    /// Median wall time with the prefix cache enabled.
    pub cached: Duration,
    /// Median wall time with the cache disabled.
    pub uncached: Duration,
    /// `uncached / cached` (> 1 means the cache wins).
    pub speedup: f64,
    /// Prefix-cache hits of the last cached run.
    pub hits: u64,
    /// Prefix-cache misses of the last cached run.
    pub misses: u64,
}

/// The property the cache A/B benchmark checks: NI two orders above the
/// gadget's design order, so the enumeration reaches tuples of three or
/// more probes — where consecutive tuples share convolution prefixes.
pub fn cache_ab_property(bench: Benchmark) -> Property {
    Property::Ni(bench.security_order() + 2)
}

/// Times the cache A/B workload of `bench` at `threads` workers with the
/// prefix cache on and off, `samples` times each (median reported).
///
/// The workload checks [`cache_ab_property`] with the MAP engine in
/// row-wise mode without the prefilter: convolution chains dominate, and
/// every surviving tuple re-derives its proper prefix when the cache is
/// off. Caching is a pure time/memory trade, so the harness asserts the
/// verdict *and* witness are identical before reporting a row.
///
/// # Panics
///
/// Panics if the generated benchmark netlist is invalid (a bug), or if the
/// two modes disagree on the verdict or witness (the cache-transparency
/// guarantee would be broken).
pub fn compare_cache_modes(bench: Benchmark, threads: usize, samples: usize) -> CacheComparison {
    let netlist = bench.netlist();
    let property = cache_ab_property(bench);
    let options = VerifyOptions::builder()
        .engine(EngineKind::Map)
        .mode(walshcheck_core::CheckMode::RowWise)
        .prefilter(false)
        .build();
    let run = |cache_budget: usize| {
        let mut session = Session::new(&netlist)
            .expect("benchmark netlists are valid")
            .property(property)
            .options(options.clone())
            .cache_budget(cache_budget)
            .threads(threads);
        let start = Instant::now();
        let verdict = session.run();
        (secs(start.elapsed()), verdict)
    };
    let mut cached_s = Vec::new();
    let mut uncached_s = Vec::new();
    let mut stats = (0, 0);
    for _ in 0..samples.max(1) {
        let (t_on, on) = run(DEFAULT_CACHE_BUDGET);
        cached_s.push(t_on);
        let (t_off, off) = run(0);
        uncached_s.push(t_off);
        assert_eq!(on.secure, off.secure, "{bench}: cache changes the verdict");
        assert_eq!(
            on.witness, off.witness,
            "{bench}: cache changes the witness"
        );
        stats = (on.stats.cache_hits, on.stats.cache_misses);
    }
    let cached = Duration::from_secs_f64(median(&mut cached_s));
    let uncached = Duration::from_secs_f64(median(&mut uncached_s));
    CacheComparison {
        gadget: bench.name(),
        threads,
        cached,
        uncached,
        speedup: secs(uncached) / secs(cached).max(1e-9),
        hits: stats.0,
        misses: stats.1,
    }
}

/// Serializes a [`Json`] value with two-space indentation — the perf
/// trajectory files (BENCH_*.json) are checked into the repository, so they
/// should diff well.
pub fn emit_json_pretty(j: &Json) -> String {
    fn emit(j: &Json, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match j {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                let _ = write!(out, "{f}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    emit(item, indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    let _ = write!(out, "{pad}  \"{}\": ", json_escape(k));
                    emit(v, indent + 1, out);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
    let mut out = String::new();
    emit(j, 0, &mut out);
    out.push('\n');
    out
}

/// Rounds a seconds value to microsecond precision so checked-in perf files
/// stay stable and readable.
pub fn round_secs(s: f64) -> f64 {
    (s * 1e6).round() / 1e6
}

/// Median of a sequence of `f64` values (0.0 for an empty slice).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Seconds as used in the paper's tables.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The paper's published measurements, for side-by-side comparison.
pub mod tables {
    /// Table I rows: (gadget, LIL seconds, MAPI seconds, speed-up).
    pub const TABLE1: &[(&str, f64, f64, f64)] = &[
        ("ti-1", 0.00367, 0.00194, 1.89),
        ("trichina-1", 0.00248, 0.00129, 1.93),
        ("isw-1", 0.00276, 0.00157, 1.76),
        ("dom-1", 0.00272, 0.00145, 1.87),
        ("keccak-1", 0.05506, 0.02633, 2.09),
        ("dom-2", 0.02478, 0.02731, 0.91),
        ("keccak-2", 106.60330, 2.39039, 44.6),
        ("dom-3", 2.38042, 3.29725, 0.72),
        ("keccak-3", 1_482_378.911_97, 351.71293, 4214.74),
        ("dom-4", 756.00070, 740.17401, 1.02),
    ];

    /// Paper's Table I median MAPI-vs-LIL speed-up.
    pub const TABLE1_MEDIAN_SPEEDUP: f64 = 1.88;

    /// Table II rows: (gadget, LIL, FUJITA, MAP speed-ups w.r.t. MAPI).
    pub const TABLE2: &[(&str, f64, f64, f64)] = &[
        ("ti-1", 1.89, 6.70, 1.94),
        ("trichina-1", 1.93, 10.83, 1.96),
        ("isw-1", 1.76, 9.08, 1.79),
        ("dom-1", 1.87, 9.74, 1.84),
        ("keccak-1", 2.09, 1.37, 2.10),
        ("dom-2", 0.91, 2.44, 0.84),
        ("keccak-2", 44.6, 5.19, 30.89),
        ("dom-3", 0.72, 1.75, 0.57),
        ("keccak-3", 4214.74, 34.76, 1629.05),
        ("dom-4", 1.02, 1.43, 0.56),
    ];

    /// Table III rows: (gadget, maskVerif s, Bloem s (upper bound), SILVER
    /// s or NaN for `-`, MAPI s).
    pub const TABLE3: &[(&str, f64, f64, f64, f64)] = &[
        ("ti-1", 0.01, 1.0, f64::NAN, 0.0019),
        ("trichina-1", 0.01, 1.0, f64::NAN, 0.0013),
        ("isw-1", 0.01, 1.0, f64::NAN, 0.0016),
        ("dom-1", 0.01, 1.0, 0.0, 0.0015),
        ("keccak-1", 0.01, 1.0, f64::NAN, 0.0263),
        ("dom-2", 0.01, 1.0, 0.0, 0.0273),
        ("keccak-2", 0.2, 10.0, f64::NAN, 2.3904),
        ("dom-3", 0.04, 4.0, 3.7, 3.2972),
        ("keccak-3", 41.0, 240.0, f64::NAN, 351.7129),
        ("dom-4", 0.34, 120.0, f64::NAN, 740.1740),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn paper_tables_cover_all_ten_benchmarks() {
        assert_eq!(tables::TABLE1.len(), 10);
        assert_eq!(tables::TABLE2.len(), 10);
        assert_eq!(tables::TABLE3.len(), 10);
        for b in Benchmark::all() {
            assert!(
                tables::TABLE1.iter().any(|&(g, ..)| g == b.name()),
                "{b} missing from TABLE1"
            );
        }
    }

    #[test]
    fn run_engine_produces_secure_verdicts_on_small_gadgets() {
        // dom-1 is 1-SNI; ti-1 is (correctly) not — both engines must agree.
        for b in [Benchmark::Ti1, Benchmark::Dom(1)] {
            let lil = run_engine(b, EngineKind::Lil);
            let mapi = run_engine(b, EngineKind::Mapi);
            assert_eq!(lil.secure, mapi.secure, "{b}");
            assert!(lil.combinations > 0);
        }
        assert!(run_engine(Benchmark::Dom(1), EngineKind::Mapi).secure);
        assert!(!run_engine(Benchmark::Ti1, EngineKind::Mapi).secure);
    }

    #[test]
    fn comparison_tools_run() {
        let h = run_heuristic(Benchmark::Dom(1));
        assert!(h.secure);
        let bl = run_bloem_like(Benchmark::Dom(1));
        assert!(bl.secure);
        let s = run_silver_like(Benchmark::Dom(1)).expect("narrow gadget");
        assert!(s.secure);
        // keccak-3 (50 inputs) exceeds the SILVER-like width limit.
        assert!(run_silver_like(Benchmark::Keccak(3)).is_none());
    }
}
