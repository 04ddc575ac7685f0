//! Prefix-cache A/B timing: the same check with the prefix cache on and
//! off.
//!
//! ```text
//! cargo run --release -p walshcheck-bench --bin sched_compare -- --cache-ab [threads] [samples] [gadget ...]
//! ```
//!
//! Defaults: 4 threads, 5 samples, `dom-2` and `keccak-1`. The check is
//! timed with the prefix cache on and off (see `cache_ab_property`).
//! Verdict and witness agreement is asserted inside the harness, so a row
//! printing at all means the two configurations agree. Exits nonzero if
//! the cached run is slower than the uncached one on `dom-2`, making it
//! usable as a CI smoke test against cache regressions.

use walshcheck_bench::compare_cache_modes;
use walshcheck_gadgets::suite::Benchmark;

fn parse_gadget(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

/// Parses `[threads] [samples] [gadget ...]` from the remaining arguments.
fn parse_common(args: impl Iterator<Item = String>) -> (usize, usize, Vec<Benchmark>) {
    let mut args = args.peekable();
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let gadgets: Vec<Benchmark> = if args.peek().is_none() {
        vec![Benchmark::Dom(2), Benchmark::Keccak(1)]
    } else {
        args.map(|n| parse_gadget(&n).unwrap_or_else(|| panic!("unknown gadget `{n}`")))
            .collect()
    };
    (threads, samples, gadgets)
}

fn cache_ab_mode(args: impl Iterator<Item = String>) {
    let (threads, samples, gadgets) = parse_common(args);
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "gadget", "threads", "cached", "uncached", "speedup", "hits", "misses"
    );
    let mut regressed = false;
    for bench in gadgets {
        let c = compare_cache_modes(bench, threads, samples);
        println!(
            "{:<12} {:>7} {:>12.4?} {:>12.4?} {:>7.2}x {:>10} {:>10}",
            c.gadget, c.threads, c.cached, c.uncached, c.speedup, c.hits, c.misses
        );
        if c.gadget == "dom-2" && c.speedup < 1.0 {
            eprintln!("cache regression: dom-2 is slower with the prefix cache enabled");
            regressed = true;
        }
    }
    if regressed {
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("--cache-ab") {
        eprintln!("usage: sched_compare --cache-ab [threads] [samples] [gadget ...]");
        std::process::exit(2);
    }
    cache_ab_mode(args);
}
