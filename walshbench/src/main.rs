//! `walshbench` — the walshcheck benchmark.
//!
//! ```text
//! walshbench --workload table1|beyond-order|daemon-mix --seed N --seconds S
//!            --trace 0|1 [--smoke] [--walshcheck PATH] [--provenance JSON]
//! walshbench gen-expected      # regenerate expected_verdicts.tsv on stdout
//! walshbench survey            # time candidate daemon-mix cells
//! ```
//!
//! Normally started through `run.py`, which builds this binary and the
//! `walshcheck` CLI and passes the provenance block. The last line of
//! standard output is the result object; a results record with provenance
//! (and, traced, the spans) is written under `.bench_results/`.

mod cells;
mod daemon_mix;
mod expected;
mod inproc;
mod record;
mod stats;
mod timing;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use walshcheck_core::Job;

use crate::cells::{daemon_spec, Cell, VARIANTS};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub walshcheck: Option<String>,
    pub provenance: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        walshcheck: None,
        provenance: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => out.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => out.smoke = true,
            "--walshcheck" => out.walshcheck = Some(value()?),
            "--provenance" => out.provenance = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.seconds.is_nan() || out.seconds < 0.0 {
        return Err("bad --seconds".into());
    }
    Ok(out)
}

/// Times every option variant of the candidate cells and prints those
/// whose slowest variant stays under the daemon-mix budget.
fn survey() {
    const BUDGET: Duration = Duration::from_millis(150);
    let gadgets = [
        "ti-1",
        "trichina-1",
        "isw-1",
        "dom-1",
        "keccak-1",
        "dom-2",
        "keccak-2",
        "dom-3",
        "hpc1-1",
        "hpc1-2",
        "hpc2-1",
        "hpc2-2",
        "chi3-ti",
        "refresh-isw-1",
        "refresh-isw-2",
        "fig1",
    ];
    for g in gadgets {
        let d = walshcheck_gadgets::suite::Benchmark::from_name(g)
            .expect("suite gadget")
            .security_order();
        for kind in ["probing", "ni", "sni", "pini"] {
            for order in [d, d + 1] {
                let cell = Cell {
                    gadget: g,
                    kind,
                    order,
                };
                let netlist = cell.netlist();
                let mut worst = Duration::ZERO;
                let mut outcomes = Vec::new();
                for v in 0..VARIANTS {
                    let mut job = Job::new(&netlist, daemon_spec(&cell, v)).expect("valid");
                    let t = Instant::now();
                    let verdict = job.run();
                    worst = worst.max(t.elapsed());
                    outcomes.push(verdict.outcome.as_str());
                    if worst > 4 * BUDGET {
                        break;
                    }
                }
                outcomes.dedup();
                let keep = worst <= BUDGET && outcomes.len() == 1;
                println!(
                    "{} cell(\"{g}\", \"{kind}\", {order}), // {worst:.1?} {outcomes:?}",
                    if keep { "   " } else { "// " }
                );
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("gen-expected") => {
            expected::generate();
            return ExitCode::SUCCESS;
        }
        Some("survey") => {
            survey();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("walshbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "table1" => inproc::table1(&args),
        "beyond-order" => inproc::beyond_order(&args),
        "daemon-mix" => daemon_mix::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result.and_then(|r| record::finish(&args, r)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("walshbench: {e}");
            ExitCode::from(1)
        }
    }
}
