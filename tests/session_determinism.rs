//! Thread-count and cache independence of the work-stealing scheduler.
//!
//! The scheduler's contract: the verdict — secure flag, witness
//! combination, witness reason — is identical whatever the worker count,
//! because violations are resolved to the minimal enumeration index
//! before reporting. On secure runs the enumeration is exhaustive, so the
//! combination count is pinned too; on insecure runs the count is
//! scheduling-dependent (workers may probe a few extra combinations
//! before cancellation propagates) and is deliberately not asserted.
//! These tests pin that contract for every engine over the shipped
//! corpus and the built-in benchmarks.
//!
//! The prefix cache (DESIGN.md §9) carries the same contract: caching
//! partial convolutions is a pure time/memory trade, so verdict and
//! witness must be byte-identical with the cache on, off, or thrashing
//! under a tiny budget — at any thread count.

use walshcheck::core::engine::DEFAULT_CACHE_BUDGET;
use walshcheck::core::{Job, JobSpec, Report};
use walshcheck::prelude::*;
use walshcheck_gadgets::composition::composition_fig1;
use walshcheck_gadgets::isw::isw_and_broken;

fn engines() -> [EngineKind; 4] {
    [
        EngineKind::Lil,
        EngineKind::Map,
        EngineKind::Mapi,
        EngineKind::Fujita,
    ]
}

/// Runs `prop` on `n` single- and multi-threaded and asserts the verdicts
/// are indistinguishable (including the witness, probe for probe).
fn assert_thread_independent(label: &str, n: &Netlist, prop: Property, engine: EngineKind) {
    let serial = Session::new(n)
        .expect("valid")
        .engine(engine)
        .property(prop)
        .threads(1)
        .run();
    let parallel = Session::new(n)
        .expect("valid")
        .engine(engine)
        .property(prop)
        .threads(4)
        .run();
    assert_eq!(
        serial.secure, parallel.secure,
        "{label} {prop:?} {engine}: verdict flipped"
    );
    match (&serial.witness, &parallel.witness) {
        (None, None) => {
            // A clean bill of health means exhaustive enumeration, so the
            // combination count must match exactly. (With a witness the
            // count is scheduling-dependent: other workers may examine a
            // few combinations past the minimal violation before the
            // cancellation flag reaches them.)
            assert_eq!(
                serial.stats.combinations, parallel.stats.combinations,
                "{label} {prop:?} {engine}: combination counts differ"
            );
        }
        (Some(a), Some(b)) => {
            assert_eq!(
                a.combination, b.combination,
                "{label} {prop:?} {engine}: different witness combination"
            );
            assert_eq!(
                a.mask, b.mask,
                "{label} {prop:?} {engine}: different witness mask"
            );
            assert_eq!(
                a.reason, b.reason,
                "{label} {prop:?} {engine}: different reason"
            );
        }
        (a, b) => panic!(
            "{label} {prop:?} {engine}: witness presence differs (serial: {}, parallel: {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

#[test]
fn corpus_verdicts_are_thread_count_independent() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory present")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "il"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable");
        let n = parse_ilang(&text).expect("corpus parses");
        let shares = n.shares_of(walshcheck::circuit::SecretId(0)).len() as u32;
        let d = shares.saturating_sub(1).max(1);
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        for engine in engines() {
            assert_thread_independent(&label, &n, Property::Probing(d), engine);
        }
    }
}

#[test]
fn benchmark_verdicts_are_thread_count_independent() {
    for bench in Benchmark::fast() {
        let n = bench.netlist();
        let d = bench.security_order();
        for engine in engines() {
            assert_thread_independent(&bench.name(), &n, Property::Sni(d), engine);
        }
    }
}

#[test]
fn witnesses_are_thread_count_independent_on_insecure_gadgets() {
    // Insecure gadgets are where scheduling races could leak through: any
    // worker may stumble on *a* violation first, but the reported witness
    // must still be the serial one (minimal enumeration index).
    for (label, n, prop) in [
        ("isw-2-broken", isw_and_broken(2), Property::Sni(2)),
        ("fig1", composition_fig1(), Property::Ni(2)),
        ("ti-1", Benchmark::Ti1.netlist(), Property::Sni(1)),
        ("dom-1", Benchmark::Dom(1).netlist(), Property::Probing(2)),
    ] {
        for engine in engines() {
            assert_thread_independent(label, &n, prop, engine);
        }
    }
}

/// Runs `prop` on `n` with the prefix cache on and off (at `threads`
/// workers) and asserts the verdicts are byte-identical: the cache is a
/// pure time/memory trade and must never influence the result.
fn assert_cache_transparent(
    label: &str,
    n: &Netlist,
    prop: Property,
    engine: EngineKind,
    threads: usize,
) {
    let run = |cache_budget: usize| {
        Session::new(n)
            .expect("valid")
            .engine(engine)
            .property(prop)
            .cache_budget(cache_budget)
            .threads(threads)
            .run()
    };
    let cached = run(DEFAULT_CACHE_BUDGET);
    let uncached = run(0);
    assert_eq!(
        cached.secure, uncached.secure,
        "{label} {prop:?} {engine} t{threads}: cache flipped the verdict"
    );
    assert_eq!(
        cached.witness, uncached.witness,
        "{label} {prop:?} {engine} t{threads}: cache changed the witness"
    );
    if cached.witness.is_none() {
        assert_eq!(
            cached.stats.combinations, uncached.stats.combinations,
            "{label} {prop:?} {engine} t{threads}: combination counts differ"
        );
    }
    assert_eq!(
        uncached.stats.cache_hits + uncached.stats.cache_misses,
        0,
        "{label} {prop:?} {engine} t{threads}: disabled cache still counted"
    );
}

#[test]
fn corpus_verdicts_are_cache_independent() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory present")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "il"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable");
        let n = parse_ilang(&text).expect("corpus parses");
        let shares = n.shares_of(walshcheck::circuit::SecretId(0)).len() as u32;
        let d = shares.saturating_sub(1).max(1);
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        for engine in engines() {
            for threads in [1, 4] {
                assert_cache_transparent(&label, &n, Property::Probing(d), engine, threads);
            }
        }
    }
}

#[test]
fn cache_is_transparent_on_insecure_gadgets_and_ni_workloads() {
    // Insecure gadgets pin witness identity; the NI(d+2) workloads reach
    // tuple sizes ≥ 3 where prefix reuse actually fires.
    for (label, n, prop) in [
        ("isw-2-broken", isw_and_broken(2), Property::Sni(2)),
        ("ti-1", Benchmark::Ti1.netlist(), Property::Sni(1)),
        ("dom-1", Benchmark::Dom(1).netlist(), Property::Ni(3)),
        ("dom-2", Benchmark::Dom(2).netlist(), Property::Ni(4)),
    ] {
        for engine in engines() {
            for threads in [1, 4] {
                assert_cache_transparent(label, &n, prop, engine, threads);
            }
        }
    }
}

#[test]
fn tiny_cache_budgets_only_cost_time() {
    // A budget small enough to thrash (constant evictions / oversized
    // rejections) must still produce the exact serial verdict.
    let n = Benchmark::Dom(2).netlist();
    for engine in engines() {
        let full = Session::new(&n)
            .expect("valid")
            .engine(engine)
            .property(Property::Ni(4))
            .run();
        let tiny = Session::new(&n)
            .expect("valid")
            .engine(engine)
            .property(Property::Ni(4))
            .cache_budget(4096)
            .threads(4)
            .run();
        assert_eq!(full.secure, tiny.secure, "{engine}: tiny budget flipped");
        assert_eq!(full.witness, tiny.witness, "{engine}: tiny budget witness");
    }
}

#[test]
fn prefix_cache_fires_on_deep_tuples() {
    // NI(4) on dom-2 enumerates tuples of up to four probes; consecutive
    // tuples share prefixes, so the cache must report real traffic.
    let n = Benchmark::Dom(2).netlist();
    let v = Session::new(&n)
        .expect("valid")
        .property(Property::Ni(4))
        .run();
    assert!(
        v.stats.cache_hits > 0,
        "no prefix-cache hits: {:?}",
        v.stats
    );
    assert!(v.stats.cache_misses > 0, "no misses recorded");
    assert!(v.stats.cache_peak_bytes > 0, "no footprint recorded");
}

#[test]
fn report_artifacts_are_byte_identical_across_thread_counts() {
    // The report/5 artifact carries only deterministic data (no timings,
    // no cache counters, no thread count), so its canonical bytes — and
    // therefore its content hash — must be identical whatever the worker
    // count or cache configuration. That invariant is what lets the
    // daemon's artifact store use (netlist hash, spec identity) as a cache
    // key and serve resubmissions from disk.
    for (label, n, prop) in [
        ("dom-1", Benchmark::Dom(1).netlist(), Property::Sni(1)),
        ("ti-1", Benchmark::Ti1.netlist(), Property::Sni(1)),
        ("isw-2-broken", isw_and_broken(2), Property::Sni(2)),
    ] {
        let artifact = |threads: usize, cache: bool| {
            let mut spec = JobSpec::new(prop);
            spec.threads = threads;
            if !cache {
                spec.options.cache_budget = 0;
            }
            let mut job = Job::new(&n, spec).expect("valid");
            let verdict = job.run();
            let report = Report::new(&n, job.spec(), &verdict);
            (
                report.canonical_json().to_string(),
                report.hash().to_string(),
            )
        };
        let (base_bytes, base_hash) = artifact(1, true);
        for (threads, cache) in [(4, true), (4, false), (16, true)] {
            let (bytes, hash) = artifact(threads, cache);
            assert_eq!(
                base_bytes, bytes,
                "{label}: artifact bytes differ at t{threads} cache={cache}"
            );
            assert_eq!(base_hash, hash, "{label}: artifact hash differs");
        }
    }
}

#[test]
fn report_artifacts_are_byte_identical_across_speed_knobs() {
    // The speed knobs — the dense spectral kernel (`dense_cut`) and the
    // bounded spectral memos — are pure time/memory trades like the prefix
    // cache before them. The full matrix (every engine × dense kernel
    // on/off × 1/8 workers) must produce byte-identical report/5
    // artifacts, which is why `JobSpec::identity_json` excludes the cut.
    for (label, n, prop) in [
        ("dom-1", Benchmark::Dom(1).netlist(), Property::Sni(1)),
        ("ti-1", Benchmark::Ti1.netlist(), Property::Sni(1)),
        ("isw-2-broken", isw_and_broken(2), Property::Sni(2)),
    ] {
        for engine in engines() {
            let artifact = |dense_cut: u32, threads: usize| {
                let mut spec = JobSpec::new(prop);
                spec.options.engine = engine;
                spec.options.dense_cut = dense_cut;
                spec.threads = threads;
                let mut job = Job::new(&n, spec).expect("valid");
                let verdict = job.run();
                let report = Report::new(&n, job.spec(), &verdict);
                (
                    report.canonical_json().to_string(),
                    report.hash().to_string(),
                )
            };
            let (base_bytes, base_hash) = artifact(VerifyOptions::default().dense_cut, 1);
            for dense_cut in [12u32, 0] {
                for threads in [1usize, 8] {
                    let (bytes, hash) = artifact(dense_cut, threads);
                    assert_eq!(
                        base_bytes, bytes,
                        "{label} {engine}: artifact bytes differ at dense_cut={dense_cut} \
                         t{threads}"
                    );
                    assert_eq!(
                        base_hash, hash,
                        "{label} {engine}: artifact hash differs at dense_cut={dense_cut} \
                         t{threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn thread_counts_beyond_the_workload_are_harmless() {
    // More workers than batches: the extras must exit cleanly.
    let n = Benchmark::Dom(1).netlist();
    let serial = Session::new(&n)
        .expect("valid")
        .property(Property::Sni(1))
        .run();
    let wide = Session::new(&n)
        .expect("valid")
        .property(Property::Sni(1))
        .threads(16)
        .run();
    assert_eq!(serial.secure, wide.secure);
    assert_eq!(serial.stats.combinations, wide.stats.combinations);
}
