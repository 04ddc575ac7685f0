//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! report [--full] [--limit SECS] [table1|table2|table3|fig6|fig7|all]
//! report --table1-smoke BENCH_10.json [--factor F] [--samples N]
//! ```
//!
//! By default the quick benchmark set is used (orders ≤ 2 plus dom-3);
//! `--full` runs all ten gadgets including keccak-3 and dom-4. Absolute
//! times differ from the paper (different machine, Rust reimplementation);
//! the reproduced quantities are the *ratios* between engines on identical
//! workloads. Figures are emitted as CSV series ready for plotting.
//!
//! `--table1-smoke` guards the Table I speed-up on dom-2: it re-times the
//! LIL and MAPI checks against the last run recorded in the given file with
//! a tight default factor (1.1), then checks that the report/5 artifact is
//! byte-identical at 1 and 4 workers, since the thread count is not part
//! of the job identity. The perf leg compares the *speed-up* (LIL/MAPI)
//! rather than absolute seconds so machine speed and CI load cancel out;
//! absolute MAPI times are gated by walshbench's `table1` workload (see
//! `BENCHMARK.json`).

use std::time::Duration;

use walshcheck_bench::{
    median, paper_property, run_bloem_like, run_engine_with, run_heuristic, run_silver_like, secs,
    tables, RunResult,
};
use walshcheck_core::engine::EngineKind;
use walshcheck_core::json::{self, Json};
use walshcheck_gadgets::suite::Benchmark;

fn bench_set(full: bool) -> Vec<Benchmark> {
    if full {
        Benchmark::all()
    } else {
        let mut v = Benchmark::fast();
        v.push(Benchmark::Keccak(2));
        v.push(Benchmark::Dom(3));
        v
    }
}

fn run_all_engines(
    benches: &[Benchmark],
    limit: Option<Duration>,
) -> Vec<(Benchmark, [RunResult; 4])> {
    benches
        .iter()
        .map(|&b| {
            eprintln!("running {b} ...");
            (
                b,
                [
                    run_engine_with(b, EngineKind::Lil, limit),
                    run_engine_with(b, EngineKind::Fujita, limit),
                    run_engine_with(b, EngineKind::Map, limit),
                    run_engine_with(b, EngineKind::Mapi, limit),
                ],
            )
        })
        .collect()
}

/// Formats seconds, flagging timed-out lower bounds with `>`.
fn fmt_secs(r: &RunResult) -> String {
    if r.timed_out {
        format!(">{:.2}", secs(r.total))
    } else {
        format!("{:.5}", secs(r.total))
    }
}

fn table1(results: &[(Benchmark, [RunResult; 4])]) {
    println!("\nTABLE I — LIL vs MAPI (seconds); paper's speed-up in brackets");
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>9}",
        "gadget", "LIL", "MAPI", "speed-up", "[paper]"
    );
    let mut speedups = Vec::new();
    for (b, [lil, _, _, mapi]) in results {
        let s = secs(lil.total) / secs(mapi.total);
        speedups.push(s);
        let paper = tables::TABLE1
            .iter()
            .find(|&&(g, ..)| g == b.name())
            .map(|&(_, _, _, sp)| sp)
            .unwrap_or(f64::NAN);
        println!(
            "{:<12} {:>12} {:>12} {:>9.2} {:>9.2}",
            b.name(),
            fmt_secs(lil),
            fmt_secs(mapi),
            s,
            paper
        );
        if !lil.timed_out && !mapi.timed_out {
            assert_eq!(lil.secure, mapi.secure, "{b}: engines disagree");
        }
    }
    println!(
        "{:<12} {:>12} {:>12} {:>9.2} {:>9.2}",
        "median",
        "",
        "",
        median(&mut speedups),
        tables::TABLE1_MEDIAN_SPEEDUP
    );
}

fn table2(results: &[(Benchmark, [RunResult; 4])]) {
    println!("\nTABLE II — speed-up of MAPI w.r.t. each method; paper values in brackets");
    println!(
        "{:<12} {:>16} {:>16} {:>16} {:>12}",
        "gadget", "LIL", "FUJITA", "MAP", "best"
    );
    let (mut sl, mut sf, mut sm) = (Vec::new(), Vec::new(), Vec::new());
    for (b, [lil, fujita, map, mapi]) in results {
        let m = secs(mapi.total);
        let (l, f, p) = (
            secs(lil.total) / m,
            secs(fujita.total) / m,
            secs(map.total) / m,
        );
        sl.push(l);
        sf.push(f);
        sm.push(p);
        let paper = tables::TABLE2.iter().find(|&&(g, ..)| g == b.name());
        let (pl, pf, pm) =
            paper
                .map(|&(_, a, b, c)| (a, b, c))
                .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let best = [
            ("LIL", secs(lil.total)),
            ("FUJITA", secs(fujita.total)),
            ("MAP", secs(map.total)),
            ("MAPI", m),
        ]
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
        .expect("non-empty")
        .0;
        println!(
            "{:<12} {:>7.2} [{:>6.2}] {:>7.2} [{:>6.2}] {:>7.2} [{:>6.2}] {:>12}",
            b.name(),
            l,
            pl,
            f,
            pf,
            p,
            pm,
            best
        );
    }
    println!(
        "{:<12} {:>16.2} {:>16.2} {:>16.2}",
        "median",
        median(&mut sl),
        median(&mut sf),
        median(&mut sm)
    );
}

fn table3(benches: &[Benchmark], results: &[(Benchmark, [RunResult; 4])]) {
    println!("\nTABLE III — heuristic and exact tools (seconds); `-` = not applicable");
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>12}",
        "gadget", "maskVerif-like", "Bloem-like", "SILVER-like", "MAPI"
    );
    for &b in benches {
        let h = run_heuristic(b);
        let bl = run_bloem_like(b);
        let sv = run_silver_like(b);
        let mapi = &results.iter().find(|(g, _)| *g == b).expect("present").1[3];
        let sv_str = sv.map_or("-".to_string(), |r| format!("{:.5}", secs(r.total)));
        println!(
            "{:<12} {:>14.5} {:>12.5} {:>12} {:>12.5}",
            b.name(),
            secs(h.total),
            secs(bl.total),
            sv_str,
            secs(mapi.total)
        );
    }
}

fn fig6(results: &[(Benchmark, [RunResult; 4])]) {
    println!("\nFIG 6 (CSV) — overall/convolution/verification, LIL vs MAPI");
    println!("gadget,engine,overall_s,convolution_s,verification_s");
    for (b, runs) in results {
        for r in [&runs[0], &runs[3]] {
            println!(
                "{},{},{:.6},{:.6},{:.6}",
                b.name(),
                r.tool,
                secs(r.total),
                secs(r.convolution),
                secs(r.verification)
            );
        }
    }
}

fn fig7(results: &[(Benchmark, [RunResult; 4])]) {
    println!("\nFIG 7 (CSV) — overall time of every engine");
    println!("gadget,engine,overall_s");
    for (b, runs) in results {
        for r in runs {
            println!("{},{},{:.6}", b.name(), r.tool, secs(r.total));
        }
    }
}

/// The gadget guarded by the table1 smoke: the smallest second-order
/// benchmark, so the smoke runs on every push without dominating CI time.
const TABLE1_SMOKE_GADGET: &str = "dom-2";

/// The dom-2 Table I speed-up (LIL/MAPI) must not drop more than `factor`
/// below the last recorded run, and the report/5 artifact must stay
/// byte-identical across thread counts.
fn table1_smoke(path: &str, factor: f64, samples: usize) {
    use walshcheck_core::{Job, JobSpec, Report, VerifyOptions};

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("table1-smoke: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("table1-smoke: cannot parse {path}: {e}");
        std::process::exit(2);
    });
    let baseline = doc
        .get("runs")
        .and_then(Json::as_arr)
        .and_then(<[Json]>::last)
        .unwrap_or_else(|| {
            eprintln!("table1-smoke: {path} has no recorded runs");
            std::process::exit(2);
        });
    let base_label = baseline
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("<unlabeled>");
    let base_speedup = baseline
        .get("gadgets")
        .and_then(Json::as_arr)
        .and_then(|gs| {
            gs.iter()
                .find(|g| g.get("gadget").and_then(Json::as_str) == Some(TABLE1_SMOKE_GADGET))
        })
        .and_then(|g| g.get("table1_speedup"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| {
            eprintln!("table1-smoke: no {TABLE1_SMOKE_GADGET} table1_speedup in {path}");
            std::process::exit(2);
        });

    // Perf leg: the speed-up ratio is machine-independent (LIL and MAPI
    // run on the same box under the same load), so the tight factor holds
    // on CI runners that are much slower than the recording machine.
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == TABLE1_SMOKE_GADGET)
        .expect("smoke gadget exists");
    let mut lil: Vec<f64> = Vec::new();
    let mut mapi: Vec<f64> = Vec::new();
    for _ in 0..samples {
        lil.push(secs(run_engine_with(bench, EngineKind::Lil, None).total));
        mapi.push(secs(run_engine_with(bench, EngineKind::Mapi, None).total));
    }
    let current = median(&mut lil) / median(&mut mapi).max(1e-9);
    println!(
        "table1-smoke vs `{base_label}`: {TABLE1_SMOKE_GADGET} speed-up {current:.3} \
         (baseline {base_speedup:.3}, fail below {:.3})",
        base_speedup / factor
    );
    let mut failed = false;
    if current < base_speedup / factor {
        eprintln!(
            "table1-smoke: {TABLE1_SMOKE_GADGET} speed-up regressed {:.2}x (limit {factor}x)",
            base_speedup / current.max(1e-9)
        );
        failed = true;
    }

    // Determinism leg: the artifact must not depend on the worker count.
    let netlist = bench.netlist();
    let artifact = |threads: usize| {
        let mut spec = JobSpec::new(paper_property(bench));
        spec.options = VerifyOptions::paper(EngineKind::Mapi);
        spec.threads = threads;
        let mut job = Job::new(&netlist, spec).expect("benchmark netlists are valid");
        let verdict = job.run();
        let report = Report::new(&netlist, job.spec(), &verdict);
        (
            report.canonical_json().to_string(),
            report.hash().to_string(),
        )
    };
    let (base_bytes, base_hash) = artifact(1);
    let (bytes, hash) = artifact(4);
    if bytes != base_bytes || hash != base_hash {
        eprintln!("table1-smoke: artifact diverged at threads=4 ({hash} vs {base_hash})");
        failed = true;
    } else {
        println!("table1-smoke: artifact stable at threads=1 and threads=4");
    }
    if failed {
        std::process::exit(1);
    }
    println!("table1-smoke: ok");
}

/// Value of a `--flag VALUE` pair, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let samples = flag_value(&args, "--samples")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(5)
        .max(1);

    if let Some(path) = flag_value(&args, "--table1-smoke") {
        let factor = flag_value(&args, "--factor")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.1);
        table1_smoke(path, factor, samples);
        return;
    }

    let limit = flag_value(&args, "--limit")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
        .or(if full {
            Some(Duration::from_secs(900))
        } else {
            None
        });

    let what = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .find(|a| a.parse::<u64>().is_err())
        .cloned()
        .unwrap_or_else(|| "all".into());

    let benches = bench_set(full);
    let results = run_all_engines(&benches, limit);

    match what.as_str() {
        "table1" => table1(&results),
        "table2" => table2(&results),
        "table3" => table3(&benches, &results),
        "fig6" => fig6(&results),
        "fig7" => fig7(&results),
        "all" => {
            table1(&results);
            table2(&results);
            table3(&benches, &results);
            fig6(&results);
            fig7(&results);
        }
        other => {
            eprintln!("unknown report `{other}`; use table1|table2|table3|fig6|fig7|all");
            std::process::exit(2);
        }
    }
}
