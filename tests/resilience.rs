//! Integration tests for the resilient-execution layer: three-valued
//! outcomes, resource budgets, quarantine determinism, and checkpoint /
//! resume identity. These drive the public `Session` API end to end the
//! way the CLI does, but assert on the typed verdict rather than text.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use walshcheck::core::json::{self, Json};
use walshcheck::core::Report;
use walshcheck::prelude::*;

fn bench(name: &str) -> Netlist {
    Benchmark::from_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .netlist()
}

const ENGINES: [EngineKind; 4] = [
    EngineKind::Lil,
    EngineKind::Map,
    EngineKind::Mapi,
    EngineKind::Fujita,
];

fn tmp_checkpoint(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("walshcheck-resilience-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{tag}.ck"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs `session` and returns its verdict with the report/5 artifact bytes.
fn run_with_artifact(mut session: Session) -> (Verdict, String) {
    let verdict = session.run();
    let report = Report::new(session.netlist(), session.spec(), &verdict);
    (verdict, report.canonical_json().to_owned())
}

/// A checkpoint's JSON document.
type Doc = BTreeMap<String, Json>;

/// Rewrites the checkpoint at `path` by editing its JSON document.
fn edit_checkpoint(path: &Path, edit: impl FnOnce(&mut Doc)) {
    let text = std::fs::read_to_string(path).expect("checkpoint readable");
    let Ok(Json::Obj(mut doc)) = json::parse(&text) else {
        panic!("a checkpoint is a JSON object: {text}")
    };
    edit(&mut doc);
    std::fs::write(path, Json::Obj(doc).to_canonical()).expect("checkpoint writable");
}

/// The `key` array of a checkpoint document.
fn entries<'a>(doc: &'a mut Doc, key: &str) -> &'a mut Vec<Json> {
    match doc.get_mut(key) {
        Some(Json::Arr(entries)) => entries,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

/// A starved run with rescue on: `property` under `engine` at a 1-node
/// budget.
fn starved(netlist: &Netlist, property: Property, engine: EngineKind) -> Session {
    Session::new(netlist)
        .expect("valid netlist")
        .property(property)
        .engine(engine)
        .node_budget(1)
        .rescue(true)
}

/// A found witness is definitive: even when the wall clock expires during
/// the same sweep, the verdict is `Violated` and `timed_out` is cleared
/// (one leaking tuple disproves the property regardless of coverage).
///
/// Escalating limits walk through the race deterministically: runs whose
/// clock expires before the witness is reached are `Inconclusive(Timeout)`
/// — never `Secure`, never a panic — and the final generous limit always
/// reaches the violating combination.
#[test]
fn timeout_with_witness_is_violated() {
    let netlist = bench("ti-1");
    for micros in [50, 200, 1_000, 10_000, 10_000_000] {
        let verdict = Session::new(&netlist)
            .expect("valid netlist")
            .property(Property::Sni(1))
            .time_limit(Duration::from_micros(micros))
            .run();
        match verdict.outcome {
            Outcome::Violated => {
                assert!(
                    verdict.witness.is_some(),
                    "violated verdict carries evidence"
                );
                assert!(
                    !verdict.stats.timed_out,
                    "a witness outranks the timeout: timed_out must be cleared"
                );
                assert!(!verdict.secure);
                return;
            }
            Outcome::Inconclusive(IncompleteReason::Timeout) => {
                // Expired before the witness; compat bool stays true but
                // the outcome says nothing was proved.
                assert!(verdict.witness.is_none());
                assert!(verdict.secure, "compat bool: no witness found");
                continue;
            }
            other => panic!("unexpected outcome {other:?} at {micros}us"),
        }
    }
    panic!("ti-1 1-SNI violation not found even with a 10s budget");
}

/// `time_limit(Duration::ZERO)` across all four engines and both thread
/// counts: the verdict must be `Inconclusive(Timeout)`, never `Secure` —
/// nothing was swept, so nothing was proved.
#[test]
fn zero_time_limit_is_inconclusive_never_secure() {
    let netlist = bench("dom-2");
    for engine in ENGINES {
        for threads in [1usize, 4] {
            let verdict = Session::new(&netlist)
                .expect("valid netlist")
                .property(Property::Sni(2))
                .engine(engine)
                .threads(threads)
                .time_limit(Duration::ZERO)
                .run();
            assert_eq!(
                verdict.outcome,
                Outcome::Inconclusive(IncompleteReason::Timeout),
                "{engine:?}/{threads}t: a zero budget cannot prove anything"
            );
            assert!(verdict.witness.is_none(), "{engine:?}/{threads}t");
            assert!(verdict.stats.timed_out, "{engine:?}/{threads}t");
            assert!(
                std::panic::catch_unwind(|| verdict.expect_secure()).is_err(),
                "{engine:?}/{threads}t: expect_secure must reject an inconclusive run"
            );
        }
    }
}

/// A starvation-level node budget quarantines combinations instead of
/// aborting: the outcome degrades to `Inconclusive(NodeBudget)` (never
/// `Secure`), and the quarantine list — indices, tuples, reasons — is
/// identical at 1 and 4 threads for every engine, because the budget is
/// charged against a deterministic per-tuple size estimate rather than
/// shared arena state.
#[test]
fn node_budget_quarantine_is_deterministic_across_threads() {
    let netlist = bench("dom-2");
    for engine in ENGINES {
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let verdict = Session::new(&netlist)
                .expect("valid netlist")
                .property(Property::Sni(2))
                .engine(engine)
                .threads(threads)
                .node_budget(1)
                .run();
            assert_eq!(
                verdict.outcome,
                Outcome::Inconclusive(IncompleteReason::NodeBudget),
                "{engine:?}/{threads}t"
            );
            assert!(verdict.witness.is_none(), "{engine:?}/{threads}t");
            assert!(
                !verdict.skipped.is_empty(),
                "{engine:?}/{threads}t: a 1-node budget must quarantine"
            );
            assert!(verdict
                .skipped
                .iter()
                .all(|s| s.reason == IncompleteReason::NodeBudget));
            assert_eq!(
                verdict.stats.skipped,
                verdict.skipped.len() as u64,
                "{engine:?}/{threads}t: counter matches the list"
            );
            runs.push(verdict);
        }
        let (one, four) = (&runs[0], &runs[1]);
        assert_eq!(
            one.skipped, four.skipped,
            "{engine:?}: quarantine list must not depend on the thread count"
        );
        assert_eq!(
            one.stats.combinations, four.stats.combinations,
            "{engine:?}"
        );
        assert_eq!(one.stats.pruned, four.stats.pruned, "{engine:?}");
    }
}

/// Checkpoint → interrupt → resume reproduces the uninterrupted verdict
/// exactly — outcome, witness, quarantine list, and the combination /
/// prune counters — at both 1 and 4 threads. The interrupted leg uses a
/// wall-clock limit as the "kill": a timed-out run leaves a valid
/// checkpoint behind (the final write runs even on early exit), and the
/// resumed run sweeps only the remainder.
#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_verdict() {
    let netlist = bench("dom-2");
    let baseline = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .run();
    assert_eq!(baseline.outcome, Outcome::Secure);

    for threads in [1usize, 4] {
        for (tag, limit) in [("zero", Duration::ZERO), ("5ms", Duration::from_millis(5))] {
            let path = tmp_checkpoint(&format!("dom2-{threads}t-{tag}"));
            let interrupted = Session::new(&netlist)
                .expect("valid netlist")
                .property(Property::Sni(2))
                .threads(threads)
                .time_limit(limit)
                .checkpoint_to(&path, Duration::ZERO)
                .run();
            assert!(
                path.is_file(),
                "{threads}t/{tag}: a checkpoint survives the interruption"
            );
            // The interrupted leg either timed out (usual) or finished
            // inside the budget (possible for the 5ms leg on a fast
            // machine); both leave a resumable file.
            assert_ne!(interrupted.outcome, Outcome::Violated);

            let resumed = Session::new(&netlist)
                .expect("valid netlist")
                .property(Property::Sni(2))
                .threads(threads)
                .resume_from(&path)
                .expect("fingerprint matches")
                .run();
            assert_eq!(resumed.outcome, baseline.outcome, "{threads}t/{tag}");
            assert_eq!(resumed.secure, baseline.secure, "{threads}t/{tag}");
            assert_eq!(resumed.witness, baseline.witness, "{threads}t/{tag}");
            assert_eq!(resumed.skipped, baseline.skipped, "{threads}t/{tag}");
            assert_eq!(
                resumed.stats.combinations, baseline.stats.combinations,
                "{threads}t/{tag}: carried + fresh counters add up to the full sweep"
            );
            assert_eq!(
                resumed.stats.pruned, baseline.stats.pruned,
                "{threads}t/{tag}"
            );
        }
    }
}

/// The rescue pass resolves every starvation quarantine on a small gadget:
/// a 1-node budget plus `--rescue` reproduces the unconstrained verdict
/// exactly — outcome, witness, empty quarantine list — at both 1 and 4
/// threads, and the recovery report itself is thread-count independent
/// (the ladder is a pure function of the options, and the pass is serial).
#[test]
fn rescue_reproduces_the_unconstrained_verdict() {
    let netlist = bench("dom-2");
    let baseline = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .run();
    assert_eq!(baseline.outcome, Outcome::Secure);
    assert!(baseline.recovery.is_none(), "no rescue requested");

    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let verdict = Session::new(&netlist)
            .expect("valid netlist")
            .property(Property::Sni(2))
            .threads(threads)
            .node_budget(1)
            .rescue(true)
            .run();
        assert_eq!(verdict.outcome, baseline.outcome, "{threads}t");
        assert_eq!(verdict.witness, baseline.witness, "{threads}t");
        assert!(
            verdict.skipped.is_empty(),
            "{threads}t: every quarantine must be resolved"
        );
        assert_eq!(verdict.stats.skipped, 0, "{threads}t");
        let recovery = verdict.recovery.expect("rescue ran");
        assert!(recovery.attempted > 0, "{threads}t");
        assert_eq!(recovery.unresolved, 0, "{threads}t");
        assert_eq!(recovery.resolved, recovery.attempted, "{threads}t");
        reports.push(recovery);
    }
    assert_eq!(
        reports[0], reports[1],
        "the recovery report must not depend on the thread count"
    );
}

/// A starved run on an insecure gadget still reports `Violated` with a
/// witness byte-identical to the unconstrained run's, whether the sweep
/// reached the violating tuple itself (its estimate fits even a 1-node
/// budget) or the rescue pass re-derived it. The rescue-found-violation
/// path specifically is pinned down in `tests/fault_inject.rs`, where the
/// quarantine of the violating index is forced.
#[test]
fn starved_violation_keeps_the_identical_witness() {
    let netlist = bench("ti-1");
    let baseline = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .run();
    assert_eq!(baseline.outcome, Outcome::Violated);
    let witness = baseline.witness.expect("violated verdict has a witness");

    for threads in [1usize, 4] {
        let verdict = Session::new(&netlist)
            .expect("valid netlist")
            .property(Property::Sni(1))
            .threads(threads)
            .node_budget(1)
            .rescue(true)
            .run();
        assert_eq!(verdict.outcome, Outcome::Violated, "{threads}t");
        assert_eq!(
            verdict.witness.as_ref(),
            Some(&witness),
            "{threads}t: witness must be byte-identical"
        );
        if let Some(recovery) = &verdict.recovery {
            assert_eq!(
                recovery.attempted,
                recovery.combinations.len(),
                "{threads}t"
            );
        }
    }
}

/// The first rung's final attempt at the cap resolves what the doubling
/// cannot. Under FUJITA with a 1-node budget, one doubling attempt and a
/// 128-node rescue cap (4,096 bytes), every quarantine fails at budget 2
/// and is settled at the cap: clean on dom-1, a violation on ti-1. The outcome
/// and witness equal the unconstrained run's, and the recovery block is the
/// same at 1 and 4 threads.
#[test]
fn the_cap_attempt_resolves_what_the_doubling_cannot() {
    for (name, resolved) in [
        ("dom-1", RescueAttemptOutcome::Clean),
        ("ti-1", RescueAttemptOutcome::Violated),
    ] {
        let netlist = bench(name);
        let baseline = Session::new(&netlist)
            .expect("valid netlist")
            .property(Property::Sni(1))
            .engine(EngineKind::Fujita)
            .run();
        let ladder = [
            RescueAttempt {
                rung: RescueRung::Budget,
                engine: EngineKind::Fujita,
                node_budget: Some(2),
                outcome: RescueAttemptOutcome::NodeBudget,
            },
            RescueAttempt {
                rung: RescueRung::Budget,
                engine: EngineKind::Fujita,
                node_budget: Some(128),
                outcome: resolved,
            },
        ];
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let verdict = starved(&netlist, Property::Sni(1), EngineKind::Fujita)
                .rescue_attempts(1)
                .rescue_budget(4096)
                .threads(threads)
                .run();
            assert_eq!(verdict.outcome, baseline.outcome, "{name}/{threads}t");
            assert_eq!(verdict.witness, baseline.witness, "{name}/{threads}t");
            let recovery = verdict.recovery.expect("rescue ran");
            assert!(!recovery.combinations.is_empty(), "{name}/{threads}t");
            for c in &recovery.combinations {
                assert_eq!(c.attempts, ladder, "{name}/{threads}t: index {}", c.index);
            }
            reports.push(recovery);
        }
        assert_eq!(
            reports[0], reports[1],
            "{name}: the recovery report must not depend on the thread count"
        );
    }
}

/// With rescue disabled the quarantines stay: the pre-rescue behavior —
/// `Inconclusive(NodeBudget)`, populated skip list — is preserved, and no
/// recovery block is attached.
#[test]
fn no_rescue_preserves_the_inconclusive_verdict() {
    let netlist = bench("dom-2");
    let verdict = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .node_budget(1)
        .rescue(false)
        .run();
    assert_eq!(
        verdict.outcome,
        Outcome::Inconclusive(IncompleteReason::NodeBudget)
    );
    assert!(!verdict.skipped.is_empty());
    assert!(verdict.recovery.is_none());
}

/// Quarantines carried in a checkpoint are rescued on resume: a budgeted
/// no-rescue run leaves its quarantines in the file, and resuming that file
/// with rescue enabled heals all of them and upgrades the verdict. Resumed
/// without rescue, the file reports the first run's quarantines, in its
/// skip list and in `stats.skipped` alike.
#[test]
fn resume_rescues_carried_quarantines() {
    let netlist = bench("dom-2");
    let path = tmp_checkpoint("dom2-carried-rescue");
    let first = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .node_budget(1)
        .checkpoint_to(&path, Duration::ZERO)
        .run();
    assert_eq!(
        first.outcome,
        Outcome::Inconclusive(IncompleteReason::NodeBudget)
    );
    let quarantined = first.skipped.len();
    assert_eq!(first.stats.skipped, quarantined as u64);

    let carried = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .node_budget(1)
        .resume_from(&path)
        .expect("fingerprint matches")
        .run();
    assert_eq!(carried.outcome, first.outcome);
    assert_eq!(carried.skipped.len(), quarantined);
    assert_eq!(carried.stats.skipped, first.stats.skipped);

    let resumed = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .node_budget(1)
        .rescue(true)
        .resume_from(&path)
        .expect("fingerprint matches")
        .run();
    assert_eq!(resumed.outcome, Outcome::Secure);
    assert!(resumed.skipped.is_empty());
    let recovery = resumed.recovery.expect("rescue ran");
    assert_eq!(recovery.attempted, quarantined);
    assert_eq!(recovery.unresolved, 0);
}

/// Resuming a rescued run's checkpoint reproduces its report/5 bytes and
/// recovery block, in three shapes: the final file as written; the file a
/// kill between two rescue resolutions leaves behind, made by moving the
/// last `rescued` entry back into `skipped` (healed combinations are not
/// replayed); and the file rewritten in the 0.3.0 format (revision 1),
/// which kept no attempt log — a resolved quarantine was stored without its
/// resolution, a rescue-found violation only as a candidate. Entries
/// without a log go back through the ladder, which writes the same records
/// again. ti-1's violation is found by the rescue pass, by engine fallback
/// both times: to MAPI under FUJITA at a 1,024-byte cap, and for SNI(2)
/// under LIL. Its files are
/// refused in three shapes: in the 0.3.0 format (which cannot say whether
/// the rescue pass found the candidate), with the candidate dropped (a
/// violated record without it), and with every record flipped to clean (a
/// clean record beside a candidate). dom-2 holds neither, so those two
/// edits leave its file as it was.
#[test]
fn resume_from_mid_rescue_checkpoint_converges() {
    let default = walshcheck::core::recover::DEFAULT_RESCUE_BUDGET;
    let cases = [
        ("dom-2", Property::Sni(2), EngineKind::Mapi, 3, default),
        ("ti-1", Property::Sni(1), EngineKind::Fujita, 1, 1024),
        ("ti-1", Property::Sni(2), EngineKind::Lil, 1, default),
    ];
    let mid_rescue = |doc: &mut Doc| {
        let last = entries(doc, "rescued").pop().expect("a rescued entry");
        entries(doc, "skipped").push(last);
    };
    let format_0_3_0 = |doc: &mut Doc| {
        doc.remove("revision").expect("a revision key");
        entries(doc, "rescued").retain_mut(|entry| {
            let Json::Obj(fields) = entry else {
                panic!("a rescued entry is an object")
            };
            fields.remove("attempts");
            fields.remove("resolution") == Some(Json::str("clean"))
        })
    };
    let flipped = |doc: &mut Doc| {
        for entry in entries(doc, "rescued") {
            if let Json::Obj(fields) = entry {
                fields.insert("resolution".into(), Json::str("clean"));
            }
        }
    };
    for (name, property, engine, attempts, cap) in cases {
        let netlist = bench(name);
        let session = || {
            starved(&netlist, property, engine)
                .rescue_attempts(attempts)
                .rescue_budget(cap)
        };
        let path = tmp_checkpoint(&format!("{name}-{engine}-resume"));
        let (direct, artifact) = run_with_artifact(session().checkpoint_to(&path, Duration::ZERO));
        assert!(direct.recovery.as_ref().expect("rescue ran").attempted > 0);
        let written = std::fs::read_to_string(&path).expect("checkpoint readable");
        for shape in ["final", "mid-rescue", "0.3.0", "no candidate", "flipped"] {
            std::fs::write(&path, &written).expect("checkpoint writable");
            match shape {
                "mid-rescue" => edit_checkpoint(&path, mid_rescue),
                "0.3.0" => edit_checkpoint(&path, format_0_3_0),
                "no candidate" => edit_checkpoint(&path, |doc| entries(doc, "candidates").clear()),
                "flipped" => edit_checkpoint(&path, flipped),
                _ => {}
            }
            let admitted = session().resume_from(&path);
            if direct.witness.is_some() && !["final", "mid-rescue"].contains(&shape) {
                assert!(
                    matches!(admitted, Err(Error::Checkpoint(_))),
                    "{name} {engine} {shape}"
                );
                continue;
            }
            let (resumed, resumed_artifact) = run_with_artifact(admitted.expect("admitted"));
            assert_eq!(resumed.recovery, direct.recovery, "{name} {engine} {shape}");
            assert_eq!(resumed_artifact, artifact, "{name} {engine} {shape}");
        }
    }
}

/// A checkpoint whose fingerprint matches but whose evidence does not fit
/// the run is rejected as a bad checkpoint instead of crashing the run: an
/// entry with a site out of range (quarantined, rescued or candidate), a
/// real combination recorded as a candidate that does not violate,
/// counters past the combination space, and a violated rescue record
/// without its candidate.
#[test]
fn resume_rejects_evidence_that_does_not_fit_the_run() {
    let netlist = bench("dom-1");
    let session = || {
        Session::new(&netlist)
            .expect("valid netlist")
            .property(Property::Sni(1))
    };
    let path = tmp_checkpoint("dom1-misfit");
    session().checkpoint_to(&path, Duration::ZERO).run();
    let original = std::fs::read_to_string(&path).expect("checkpoint readable");
    let misfits = [
        (
            "skipped",
            r#"{"index":0,"sites":[999],"reason":"node-budget"}"#,
        ),
        (
            "rescued",
            r#"{"index":0,"sites":[0,999],"reason":"node-budget","resolution":"clean","attempts":[]}"#,
        ),
        ("candidates", r#"{"index":0,"sites":[999]}"#),
        ("candidates", r#"{"index":0,"sites":[0]}"#),
        ("pruned", "1000000"),
        (
            "rescued",
            r#"{"index":0,"sites":[0],"reason":"node-budget","resolution":"violated","attempts":[]}"#,
        ),
    ];
    for (key, misfit) in misfits {
        std::fs::write(&path, &original).expect("checkpoint writable");
        let value = json::parse(misfit).expect("valid JSON");
        edit_checkpoint(&path, |doc| match doc.get_mut(key) {
            Some(Json::Arr(list)) => list.push(value),
            _ => {
                doc.insert(key.into(), value);
            }
        });
        let err = session().resume_from(&path).expect_err("does not fit");
        assert!(matches!(err, Error::Checkpoint(_)), "{key} {misfit}: {err}");
    }
}

/// The base file the resume fuzzer damages: the final checkpoint of the
/// starved, rescued dom-2 run.
fn fuzz_base() -> &'static str {
    static BASE: OnceLock<String> = OnceLock::new();
    BASE.get_or_init(|| {
        let path = tmp_checkpoint("dom2-fuzz-base");
        starved(&bench("dom-2"), Property::Sni(2), EngineKind::Mapi)
            .checkpoint_to(&path, Duration::ZERO)
            .run();
        std::fs::read_to_string(&path).expect("checkpoint readable")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Resuming a damaged checkpoint — truncated at any byte, or with one
    /// integer replaced by 0, 1, 12, 999 or `u64::MAX` — either fails with
    /// an error or runs to completion; it never panics, and no worker is
    /// lost to a panic.
    #[test]
    fn damaged_checkpoints_are_rejected_or_resume(pick in any::<u64>(), edit in 0usize..6) {
        let base = fuzz_base();
        let damaged = if edit == 0 {
            base[..pick as usize % base.len()].to_string()
        } else {
            // Integer tokens: digit runs right after `:`, `[` or `,`.
            let b = base.as_bytes();
            let starts: Vec<usize> = (1..b.len())
                .filter(|&i| b[i].is_ascii_digit() && b":[,".contains(&b[i - 1]))
                .collect();
            let start = starts[pick as usize % starts.len()];
            let end = start + b[start..].iter().take_while(|c| c.is_ascii_digit()).count();
            let value = [0, 1, 12, 999, u64::MAX][edit - 1];
            format!("{}{value}{}", &base[..start], &base[end..])
        };
        let path = tmp_checkpoint("dom2-fuzz");
        std::fs::write(&path, &damaged).expect("checkpoint writable");
        let netlist = bench("dom-2");
        let session = starved(&netlist, Property::Sni(2), EngineKind::Mapi);
        if let Ok(mut session) = session.resume_from(&path) {
            let verdict = session.run();
            prop_assert_eq!(verdict.stats.worker_failures, 0, "{}", damaged);
        }
    }
}

/// Resuming a run that already found its violation re-derives the *same*
/// minimal witness from the recorded candidate index (witnesses are not
/// serialized; the resume path recomputes them deterministically).
#[test]
fn resume_recomputes_an_identical_witness() {
    let netlist = bench("ti-1");
    let path = tmp_checkpoint("ti1-witness");
    let first = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .checkpoint_to(&path, Duration::ZERO)
        .run();
    assert_eq!(first.outcome, Outcome::Violated);
    let witness = first.witness.expect("violated verdict has a witness");

    let resumed = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .resume_from(&path)
        .expect("fingerprint matches")
        .run();
    assert_eq!(resumed.outcome, Outcome::Violated);
    assert_eq!(
        resumed.witness.as_ref(),
        Some(&witness),
        "the recomputed witness is byte-identical to the original"
    );
}

/// Resuming against a different configuration is rejected up front: the
/// fingerprint covers the netlist, the property and the
/// enumeration-relevant options.
#[test]
fn resume_rejects_mismatched_configurations() {
    let netlist = bench("dom-2");
    let path = tmp_checkpoint("dom2-mismatch");
    let _ = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .checkpoint_to(&path, Duration::ZERO)
        .run();

    // Different property.
    let err = Session::new(&netlist)
        .expect("valid netlist")
        .property(Property::Ni(2))
        .resume_from(&path)
        .expect_err("property is part of the fingerprint");
    assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

    // Different netlist.
    let other = bench("dom-1");
    let err = Session::new(&other)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .resume_from(&path)
        .expect_err("netlist is part of the fingerprint");
    assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

    // Resuming before setting a property is a configuration error.
    let err = Session::new(&netlist)
        .expect("valid netlist")
        .resume_from(&path)
        .expect_err("property must be set first");
    assert!(err.to_string().contains("property"), "{err}");
}

/// `Session::search_witnesses` honors the configured limits and reports
/// how the search ended instead of silently truncating.
#[test]
fn search_witnesses_honors_limits_and_reports_completeness() {
    // A zero wall-clock budget: no witnesses, and `complete == false`
    // says the empty list proves nothing.
    let dom2 = bench("dom-2");
    let search = Session::new(&dom2)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .time_limit(Duration::ZERO)
        .search_witnesses(5);
    assert!(search.witnesses.is_empty());
    assert!(search.stats.timed_out);
    assert!(
        !search.complete,
        "a timed-out search must not claim completeness"
    );

    // A starvation node budget: quarantines recorded, not complete.
    let search = Session::new(&dom2)
        .expect("valid netlist")
        .property(Property::Sni(2))
        .node_budget(1)
        .search_witnesses(5);
    assert!(!search.skipped.is_empty());
    assert!(!search.complete);

    // Unconstrained on an insecure gadget: witnesses found, and the sweep
    // ran to the end of the space.
    let ti1 = bench("ti-1");
    let search = Session::new(&ti1)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .search_witnesses(1_000);
    assert!(!search.witnesses.is_empty());
    assert!(search.complete, "space exhausted below the limit");
    assert!(search.skipped.is_empty());
    assert!(!search.stats.timed_out);

    // The bare convenience wrapper returns the same witnesses.
    let bare = Session::new(&ti1)
        .expect("valid netlist")
        .property(Property::Sni(1))
        .find_witnesses(1_000);
    assert_eq!(bare, search.witnesses);
}
