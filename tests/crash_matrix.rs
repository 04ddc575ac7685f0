//! The crash-point explorer: exhaustive crash-consistency proof for the
//! `walshcheckd` artifact store (DESIGN.md §16).
//!
//! One job lifecycle — submit, sweep, done — is recorded through
//! [`walshcheck::core::iofs::TracingFs`]; every prefix of the recorded
//! schedule is a crash point, materialized under all three
//! [`CrashMode`]s. Every materialized tree must recover: the store
//! opens, the integrity scan quarantines or rebuilds whatever the crash
//! damaged, the job is never stranded, and the recovered `report.json`
//! is byte-identical to the uninterrupted run.
//!
//! The fault-injection tests at the bottom cross-check the simulated
//! page-cache model against reality: `crash-at-io-op=N` aborts a *real*
//! child `walshcheck serve` process at sampled points of the same
//! schedule, and recovery must hold there too. Those tests mutate the
//! process-global `WALSHCHECK_FAULT` variable (children inherit it), so
//! everything env-touching serializes on one lock.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
#[cfg(feature = "fault-inject")]
use std::time::{Duration, Instant};

use walshcheck::core::iofs::CrashMode;
use walshcheck::core::json::{self, Json};
use walshcheck::core::{Job, JobSpec, Report};
use walshcheck::daemon::crashsim;
use walshcheck::daemon::jobs::{JobManager, PoolConfig};
use walshcheck::daemon::store::{FsyncEvents, Store};
use walshcheck::prelude::*;

/// Serializes the tests that set `WALSHCHECK_FAULT` or spawn children
/// (which inherit it) — the variable is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII for `WALSHCHECK_FAULT`: clears on drop even when the test panics.
#[cfg(feature = "fault-inject")]
struct FaultPlan;

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    fn set(plan: &str) -> FaultPlan {
        std::env::set_var("WALSHCHECK_FAULT", plan);
        FaultPlan
    }
}

#[cfg(feature = "fault-inject")]
impl Drop for FaultPlan {
    fn drop(&mut self) {
        std::env::remove_var("WALSHCHECK_FAULT");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walshcheck-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The lifecycle every test in this file replays: SNI on the first-order
/// DOM multiplier, one worker (a deterministic schedule), checkpoint
/// after every batch, event log never fsynced — the most adversarial
/// policy for the crash model to chew on.
fn spec_doc() -> Json {
    let mut spec = JobSpec::new(Property::Sni(1));
    spec.threads = 1;
    json::parse(&spec.to_json().to_canonical()).expect("spec doc")
}

fn netlist_text() -> String {
    write_ilang(&Benchmark::Dom(1).netlist())
}

/// The report an uninterrupted in-process run produces — the byte-level
/// ground truth every recovery must reproduce.
fn reference_report() -> Vec<u8> {
    let netlist = parse_ilang(&netlist_text()).expect("canonical dump parses");
    let mut spec = JobSpec::new(Property::Sni(1));
    spec.threads = 1;
    let mut job = Job::new(&netlist, spec).expect("valid netlist");
    let verdict = job.run();
    Report::new(&netlist, job.spec(), &verdict)
        .canonical_json()
        .as_bytes()
        .to_vec()
}

#[test]
fn exhaustive_crash_matrix_recovers_byte_identically() {
    let _guard = env_lock(); // children of other tests must not race the env
    let root = temp_dir("matrix-ref");
    let lifecycle =
        crashsim::record_lifecycle(&root, &spec_doc(), &netlist_text(), FsyncEvents::Never)
            .expect("traced lifecycle");
    assert_eq!(
        lifecycle.report,
        reference_report(),
        "traced run's report must already match the in-process ground truth"
    );
    assert!(
        lifecycle.ops.len() >= 50,
        "the schedule should expose at least 50 crash points, got {}",
        lifecycle.ops.len()
    );

    let crash_root = temp_dir("matrix-crash");
    let spec = spec_doc();
    let netlist = netlist_text();
    let mut points = 0usize;
    let mut resubmitted = 0usize;
    for prefix in 0..=lifecycle.ops.len() {
        for mode in CrashMode::ALL {
            let recovered =
                crashsim::crash_and_recover(&lifecycle, prefix, mode, &crash_root, &spec, &netlist)
                    .unwrap_or_else(|e| {
                        panic!(
                            "crash before op {prefix} ({}) under {} failed recovery: {e}",
                            lifecycle
                                .ops
                                .get(prefix)
                                .map_or("end of schedule".to_string(), |op| op.describe()),
                            mode.as_str()
                        )
                    });
            assert_eq!(
                recovered.report,
                lifecycle.report,
                "crash before op {prefix} under {}: recovered report diverged",
                mode.as_str()
            );
            points += 1;
            resubmitted += usize::from(recovered.resubmitted);
        }
    }
    assert!(points >= 150, "matrix covered {points} points");
    // Early crash points predate the submit's durability, so some
    // resubmits are expected; late points must all recover in place.
    assert!(resubmitted < points, "every point needed a resubmit");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&crash_root);
}

/// Pins the durability barriers as schedule regressions: every rename is
/// eventually made durable by a parent-directory fsync, every published
/// temp file is fsynced before its rename, and the `done` state reaches
/// `status.json` durably before the index claims it.
#[test]
fn schedule_pins_rename_durability_and_status_before_index() {
    use walshcheck::core::iofs::Op;
    let _guard = env_lock();
    let root = temp_dir("schedule");
    let lifecycle =
        crashsim::record_lifecycle(&root, &spec_doc(), &netlist_text(), FsyncEvents::Never)
            .expect("traced lifecycle");
    let ops = &lifecycle.ops;

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Rename(_, to) => {
                let parent = to.parent().expect("rename target has a parent");
                assert!(
                    ops[i..]
                        .iter()
                        .any(|later| matches!(later, Op::SyncDir(d) if d == parent)),
                    "rename at op {i} ({}) is never made durable by a sync of {}",
                    op.describe(),
                    parent.display()
                );
            }
            Op::WriteFile(path, _) if path.to_string_lossy().ends_with(".tmp") => {
                let synced_before_rename = ops[i + 1..]
                    .iter()
                    .find_map(|later| match later {
                        Op::SyncFile(p) if p == path => Some(true),
                        Op::Rename(from, _) if from == path => Some(false),
                        _ => None,
                    })
                    .unwrap_or(false);
                assert!(
                    synced_before_rename,
                    "temp write at op {i} ({}) is renamed without a data fsync",
                    op.describe()
                );
            }
            _ => {}
        }
    }

    let done_write = |name: &str| {
        ops.iter().position(|op| {
            matches!(op, Op::WriteFile(p, b)
                if p.to_string_lossy().ends_with(name)
                    && String::from_utf8_lossy(b).contains("\"state\":\"done\""))
        })
    };
    let status_done = done_write(".status.json.tmp").expect("a done status is written");
    let index_done = done_write(".index.json.tmp").expect("a done index is written");
    assert!(
        status_done < index_done,
        "done must reach status.json (op {status_done}) before index.json (op {index_done})"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Plants a `checkpoint.ck` for a freshly submitted job through `plant`,
/// runs the job, and checks the fallback a rejected checkpoint must take:
/// the runner logs a `checkpoint-rejected` event, quarantines the file,
/// and re-runs from scratch to identical bytes — never a failed job.
fn assert_rejected_checkpoint_falls_back(tag: &str, plant: impl FnOnce(&JobManager, &str)) {
    let root = temp_dir(tag);
    let store = Store::open(&root).expect("store opens");
    let manager = Arc::new(
        JobManager::open(store, std::time::Duration::ZERO, PoolConfig::default())
            .expect("manager opens"),
    );
    let submitted = manager
        .submit(&spec_doc(), &netlist_text())
        .expect("submit");
    plant(&manager, &submitted.id);
    crashsim::run_to_done(&manager, &submitted.id).expect("job completes despite the checkpoint");
    let report = std::fs::read(manager.store().job_file(&submitted.id, "report.json"))
        .expect("report exists");
    assert_eq!(
        report,
        reference_report(),
        "fallback run must be byte-identical"
    );
    let events = std::fs::read_to_string(manager.store().job_file(&submitted.id, "events.jsonl"))
        .expect("events exist");
    assert!(
        events.contains("\"event\":\"checkpoint-rejected\""),
        "the fallback must be observable in the event log: {events}"
    );
    assert!(
        root.join("quarantine")
            .join(format!("{}-checkpoint.ck", submitted.id))
            .exists(),
        "the rejected checkpoint must be quarantined"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A torn `checkpoint.ck` (the `store-torn-write` fault hook's I/O-layer
/// tear, which the integrity scan hunts) takes the rejected-checkpoint
/// fallback.
#[cfg(feature = "fault-inject")]
#[test]
fn torn_checkpoint_falls_back_to_a_from_scratch_run() {
    let _guard = env_lock();
    assert_rejected_checkpoint_falls_back("torn-ck", |manager, id| {
        // Plant the torn checkpoint through the real fault hook: half the
        // bytes land at the final path, no fsync, no rename.
        let _plan = FaultPlan::set("store-torn-write=checkpoint.ck");
        let plausible = b"walshcheck-checkpoint/1\n{\"combinations\":17,\"frontier\":[[2,0]]}\n";
        manager
            .store()
            .write_job_file(id, "checkpoint.ck", plausible)
            .expect("torn write lands");
        let planted = std::fs::read(manager.store().job_file(id, "checkpoint.ck"))
            .expect("torn checkpoint exists");
        assert!(planted.len() < 40, "the hook should have torn the write");
    });
}

/// A checkpoint that parses and matches the job's fingerprint but names a
/// site the netlist does not have takes the same fallback.
#[test]
fn misfit_checkpoint_falls_back_to_a_from_scratch_run() {
    let _guard = env_lock();
    assert_rejected_checkpoint_falls_back("misfit-ck", |manager, id| {
        let netlist = parse_ilang(&netlist_text()).expect("canonical dump parses");
        let options = JobSpec::new(Property::Sni(1)).options;
        let fingerprint =
            walshcheck::core::checkpoint::fingerprint(&netlist, Property::Sni(1), &options);
        let misfit = format!(
            "{{\"schema\":\"walshcheck-checkpoint/1\",\"fingerprint\":\"{fingerprint}\",\
             \"property\":\"1-SNI\",\"combinations\":1,\"pruned\":0,\"completed\":[[0,1]],\
             \"candidates\":[],\"skipped\":[{{\"index\":0,\"sites\":[999],\
             \"reason\":\"node-budget\"}}],\"rescued\":[]}}"
        );
        manager
            .store()
            .write_job_file(id, "checkpoint.ck", misfit.as_bytes())
            .expect("checkpoint lands");
    });
}

/// Cross-checks the simulated page-cache model against reality: a child
/// `walshcheck serve` is aborted (`crash-at-io-op=N`) at sampled points
/// of the same I/O schedule, and recovery over the genuinely crashed
/// store must converge to the same bytes. At least 10 sampled points must
/// see a real abort.
#[cfg(feature = "fault-inject")]
#[test]
fn real_aborted_child_recovers_byte_identically() {
    let _guard = env_lock();
    let trace_root = temp_dir("abort-ref");
    let lifecycle = crashsim::record_lifecycle(
        &trace_root,
        &spec_doc(),
        &netlist_text(),
        FsyncEvents::Never,
    )
    .expect("traced lifecycle");
    let total = lifecycle.ops.len();
    // 12 points spread across the schedule, clear of the very end (the
    // child performs the same counted ops as the trace, but sampling the
    // exact tail would race job completion).
    let samples: Vec<usize> = (0..12)
        .map(|i| 1 + i * total.saturating_sub(6) / 12)
        .collect();

    let spec = spec_doc();
    let netlist = netlist_text();
    let mut aborted = 0usize;
    for &n in &samples {
        let store = temp_dir(&format!("abort-{n}"));
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_walshcheck"))
            .args([
                "serve",
                "--store",
                store.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "0",
                "--fsync-events",
                "never",
            ])
            .env("WALSHCHECK_FAULT", format!("crash-at-io-op={n}"))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("child spawns");

        // Submit as soon as the child publishes its address; if it aborts
        // during bind the submit is skipped and recovery starts from
        // whatever (possibly nothing) survived.
        let addr_file = store.join("daemon.addr");
        let bind_deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break Some(text);
                }
            }
            if child.try_wait().expect("try_wait").is_some() || Instant::now() >= bind_deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(addr) = addr {
            // The child may abort mid-request; any client error is part
            // of the experiment, not a test failure.
            let _ = walshcheck::daemon::Client::new(addr).submit(&spec.to_canonical(), &netlist);
        }
        let exit_deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break Some(status);
            }
            if Instant::now() >= exit_deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        match status {
            Some(status) => {
                assert!(!status.success(), "op {n}: the child should have aborted");
                aborted += 1;
            }
            None => {
                // The sampled op was past the child's total (it finished
                // the job and kept serving): not a crash point after all.
                let _ = child.kill();
                let _ = child.wait();
            }
        }

        let recovered = crashsim::recover(&store, &lifecycle.job_id, &spec, &netlist)
            .unwrap_or_else(|e| panic!("recovery after real abort at op {n} failed: {e}"));
        assert_eq!(
            recovered.report, lifecycle.report,
            "real abort at op {n}: recovered report diverged"
        );
        let _ = std::fs::remove_dir_all(&store);
    }
    assert!(
        aborted >= 10,
        "need at least 10 really-aborted children, got {aborted} of {} samples",
        samples.len()
    );
    let _ = std::fs::remove_dir_all(&trace_root);
}
