//! Deterministic crash-point exploration of the store's durability claims.
//!
//! The pitch (DESIGN.md §16): run one job lifecycle — submit, sweep,
//! done — with the store's I/O routed through
//! [`walshcheck_core::iofs::TracingFs`], which performs every operation
//! for real *and* records it. The recorded schedule is then the complete
//! set of crash points: for every prefix length `k` and every
//! [`CrashMode`], [`crash_state`] materializes exactly the bytes a kernel
//! crash before the `k`-th operation could have left behind, a fresh
//! [`JobManager`] is opened over that tree, and recovery must converge —
//! the store loads, the integrity scan quarantines anything damaged, the
//! job is never stranded in a non-resumable state, and re-running produces
//! a report **byte-identical** to the uninterrupted run.
//!
//! The explorer is exhaustive where kill-based chaos tests are sampled:
//! a signal lands wherever the scheduler put it, but a schedule prefix is
//! *every* point, three adversarial cache behaviors each. It runs in
//! `tests/crash_matrix.rs` (and CI's `crash-matrix` job). The
//! `crash-at-io-op=N` fault directive cross-checks sampled points against
//! a *really* aborted child process.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use walshcheck_core::iofs::{crash_state, CrashMode, IoFs, Op, TracingFs};
use walshcheck_core::json::Json;

use crate::jobs::{JobManager, JobState, PoolConfig};
use crate::store::{FsyncEvents, Store};

/// How long recovery may take before the explorer declares a hang. The
/// gadgets used are tiny (milliseconds per sweep); a minute means wedged.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(60);

/// One traced job lifecycle: the schedule, the job, the reference bytes.
#[derive(Debug)]
pub struct Lifecycle {
    /// The store root the lifecycle ran in (live, fully consistent).
    pub root: PathBuf,
    /// Every mutating I/O operation, in order — the crash-point schedule.
    pub ops: Vec<Op>,
    /// The id of the job that ran.
    pub job_id: String,
    /// The uninterrupted run's `report.json` bytes — what every recovery
    /// must reproduce exactly.
    pub report: Vec<u8>,
}

/// Runs one submit→run→done lifecycle in-process over a [`TracingFs`] and
/// returns the recorded schedule plus the reference report bytes.
///
/// `fsync_events` is the event-log policy to trace under —
/// [`FsyncEvents::Never`] is the most adversarial choice (every event
/// append is then unsynced data the crash model may destroy). One runner
/// thread, checkpoint after every batch: the schedule is deterministic
/// for a given spec + netlist.
///
/// # Errors
///
/// Returns a description when the job cannot be submitted or does not
/// reach `done`.
pub fn record_lifecycle(
    root: &Path,
    spec_doc: &Json,
    netlist: &str,
    fsync_events: FsyncEvents,
) -> Result<Lifecycle, String> {
    let _ = std::fs::remove_dir_all(root);
    let fs = TracingFs::new();
    let traced: Arc<dyn IoFs> = Arc::<TracingFs>::clone(&fs);
    let store =
        Store::open_with(root, traced, fsync_events).map_err(|e| format!("open store: {e}"))?;
    let manager = Arc::new(
        JobManager::open(store, Duration::ZERO, PoolConfig::default())
            .map_err(|e| format!("open manager: {}", e.message))?,
    );
    let submitted = manager
        .submit(spec_doc, netlist)
        .map_err(|e| format!("submit: {}", e.message))?;
    run_to_done(&manager, &submitted.id)?;
    let report = std::fs::read(manager.store().job_file(&submitted.id, "report.json"))
        .map_err(|e| format!("reading reference report: {e}"))?;
    Ok(Lifecycle {
        root: root.to_path_buf(),
        ops: fs.ops(),
        job_id: submitted.id,
        report,
    })
}

/// Drives `manager` with one runner thread until job `id` is `done`
/// (immediately true for a cached hit), then stops the runner.
///
/// # Errors
///
/// Returns a description when the job fails, is stranded, or times out.
pub fn run_to_done(manager: &Arc<JobManager>, id: &str) -> Result<(), String> {
    if manager.status(id).map_err(|e| e.message)?.state == JobState::Done {
        return Ok(());
    }
    let runner = {
        let m = Arc::clone(manager);
        std::thread::spawn(move || m.run_loop())
    };
    let deadline = Instant::now() + RECOVERY_TIMEOUT;
    let outcome = loop {
        match manager.status(id) {
            Ok(record) => match record.state {
                JobState::Done => break Ok(()),
                JobState::Queued | JobState::Running => {}
                state => {
                    break Err(format!(
                        "job {id} landed in {} ({}), not done",
                        state.as_str(),
                        record.error.as_deref().unwrap_or("no error")
                    ))
                }
            },
            Err(e) => break Err(e.message),
        }
        if Instant::now() >= deadline {
            break Err(format!(
                "job {id} did not finish within {RECOVERY_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    manager.stop();
    if runner.join().is_err() {
        return Err("runner thread panicked".into());
    }
    outcome
}

/// What one crash point recovered to.
#[derive(Debug)]
pub struct Recovered {
    /// `true` when the crash predated the submit becoming durable — the
    /// job was absent after recovery (legal: the client never got its
    /// acknowledgement) and the resubmit re-created it.
    pub resubmitted: bool,
    /// The recovered run's `report.json` bytes.
    pub report: Vec<u8>,
}

/// Materializes the crash at `&lifecycle.ops[..prefix]` under `mode` into
/// `crash_root`, then proves the recovery invariants:
///
/// 1. the store opens and the integrity scan completes (quarantining or
///    rebuilding whatever the crash damaged);
/// 2. the job is never stranded: after the scan it is `done`, re-queued,
///    or absent entirely (the crash predates the submit's acknowledgement
///    — resubmitting must then re-create it under the same id);
/// 3. driving the queue converges to `done` with `report.json` bytes
///    identical to the uninterrupted reference (the caller compares).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn crash_and_recover(
    lifecycle: &Lifecycle,
    prefix: usize,
    mode: CrashMode,
    crash_root: &Path,
    spec_doc: &Json,
    netlist: &str,
) -> Result<Recovered, String> {
    let state = crash_state(&lifecycle.ops[..prefix], mode);
    let _ = std::fs::remove_dir_all(crash_root);
    state
        .write_to(&lifecycle.root, crash_root)
        .map_err(|e| format!("materializing crash state: {e}"))?;
    recover(crash_root, &lifecycle.job_id, spec_doc, netlist)
}

/// Opens the store at `root` (real I/O), runs the recovery invariants of
/// [`crash_and_recover`] for `job_id`, and returns the recovered report
/// bytes. Shared by the simulated explorer and the real-abort cross-check
/// (which crashes a child process instead of materializing a model state).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn recover(
    root: &Path,
    job_id: &str,
    spec_doc: &Json,
    netlist: &str,
) -> Result<Recovered, String> {
    let store = Store::open(root).map_err(|e| format!("re-opening store: {e}"))?;
    let manager = Arc::new(
        JobManager::open(store, Duration::ZERO, PoolConfig::default())
            .map_err(|e| format!("recovery open: {}", e.message))?,
    );
    let resubmitted = match manager.status(job_id) {
        Ok(record) => {
            if !matches!(record.state, JobState::Done | JobState::Queued) {
                return Err(format!(
                    "job stranded in {} after the integrity scan",
                    record.state.as_str()
                ));
            }
            false
        }
        Err(_) => true,
    };
    let submitted = manager
        .submit(spec_doc, netlist)
        .map_err(|e| format!("resubmit: {}", e.message))?;
    if submitted.id != job_id {
        return Err(format!(
            "resubmit mapped to job {}, expected {job_id}",
            submitted.id
        ));
    }
    run_to_done(&manager, job_id)?;
    let report = std::fs::read(manager.store().job_file(job_id, "report.json"))
        .map_err(|e| format!("reading recovered report: {e}"))?;
    Ok(Recovered {
        resubmitted,
        report,
    })
}
