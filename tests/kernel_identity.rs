//! Golden verdict/witness fixtures pinning the DD kernel's results.
//!
//! The CUDD-style kernel (open-addressed unique tables, direct-mapped lossy
//! apply caches, monomorphized dyadic operations — DESIGN.md §12) promises
//! that its speedups are *pure* speedups: every engine produces the same
//! verdict and byte-identical witness as the straightforward `HashMap`-based
//! kernel it replaced. These tests pin that contract against a checked-in
//! fixture generated before the kernel swap, across engines × threads {1,4}
//! × prefix cache {on,off} on the shipped corpus and the dom-2/keccak-1
//! benchmarks.
//!
//! Regenerate the fixture (only when *intentionally* changing results, which
//! a kernel change never may) with:
//!
//! ```text
//! WALSHCHECK_BLESS=1 cargo test --test kernel_identity
//! ```

use std::fmt::Write as _;

use walshcheck::prelude::*;

fn engines() -> [EngineKind; 4] {
    [
        EngineKind::Lil,
        EngineKind::Map,
        EngineKind::Mapi,
        EngineKind::Fujita,
    ]
}

/// One deterministic fingerprint line per engine × thread count × cache
/// mode. Combination counts are only recorded on secure (exhaustive) runs;
/// with a witness the count is scheduling-dependent by design. `paper`
/// additionally pins the paper-faithful configuration (row-wise checking
/// with the prefilter off — the benchmark harness path).
fn fingerprint(label: &str, n: &Netlist, prop: Property, paper: bool, out: &mut String) {
    for engine in engines() {
        for threads in [1usize, 4] {
            for cache in [true, false] {
                let mut session = Session::new(n)
                    .expect("valid netlist")
                    .engine(engine)
                    .property(prop)
                    .threads(threads)
                    .cache(cache);
                if paper {
                    session = session.mode(CheckMode::RowWise).prefilter(false);
                }
                let v = session.run();
                let _ = write!(
                    out,
                    "{label} {prop:?} {engine}{} t{threads} cache={} secure={}",
                    if paper { " rowwise" } else { "" },
                    if cache { "on" } else { "off" },
                    v.secure
                );
                match &v.witness {
                    None => {
                        let _ = write!(out, " combos={}", v.stats.combinations);
                    }
                    Some(w) => {
                        let _ = write!(
                            out,
                            " witness={:?} mask={} reason={:?} coeff={:?}",
                            w.combination, w.mask, w.reason, w.coefficient
                        );
                    }
                }
                out.push('\n');
            }
        }
    }
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory present")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "il"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    files
}

fn full_fingerprint() -> String {
    let mut out = String::new();
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("readable");
        let n = parse_ilang(&text).expect("corpus parses");
        let shares = n.shares_of(walshcheck::circuit::SecretId(0)).len() as u32;
        let d = shares.saturating_sub(1).max(1);
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        fingerprint(&label, &n, Property::Probing(d), false, &mut out);
    }
    for bench in [Benchmark::Dom(2), Benchmark::Keccak(1)] {
        let n = bench.netlist();
        fingerprint(
            &bench.name(),
            &n,
            Property::Sni(bench.security_order()),
            false,
            &mut out,
        );
    }
    // The paper-faithful configuration exercises the row-wise per-row
    // verification paths (witness extraction included), which the default
    // joint sweep above never reaches.
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("readable");
        let n = parse_ilang(&text).expect("corpus parses");
        let shares = n.shares_of(walshcheck::circuit::SecretId(0)).len() as u32;
        let d = shares.saturating_sub(1).max(1);
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        fingerprint(&label, &n, Property::Probing(d), true, &mut out);
    }
    for bench in [Benchmark::Dom(2), Benchmark::Keccak(1)] {
        let n = bench.netlist();
        fingerprint(
            &bench.name(),
            &n,
            Property::Sni(bench.security_order()),
            true,
            &mut out,
        );
    }
    out
}

#[test]
fn verdicts_and_witnesses_match_the_pre_rewrite_kernel() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/kernel_verdicts.txt");
    let current = full_fingerprint();
    if std::env::var_os("WALSHCHECK_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden_path, &current).expect("golden writable");
        eprintln!(
            "blessed {} ({} lines)",
            golden_path.display(),
            current.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden fixture present; bless with WALSHCHECK_BLESS=1");
    if golden != current {
        // Report the first diverging line, not a megabyte diff.
        for (i, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
            assert_eq!(g, c, "fingerprint diverges at line {}", i + 1);
        }
        assert_eq!(
            golden.lines().count(),
            current.lines().count(),
            "fingerprint line counts differ"
        );
        panic!("fingerprints differ in whitespace only?");
    }
}
