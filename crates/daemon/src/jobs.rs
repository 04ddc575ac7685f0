//! The job queue: states, records, the runner pool, restart recovery.
//!
//! Jobs run on a pool of N runner threads (one by default — a
//! verification sweep already saturates the machine through its own worker
//! pool, so job-level concurrency is for mixes of small jobs, not
//! throughput of one big one). The [`JobManager`] owns the queue and the
//! state machine; every transition is persisted to the job's
//! `status.json` before it is observable through the API, so a killed
//! daemon restarts into a consistent store.
//!
//! ## State machine
//!
//! ```text
//! queued ──► running ──► done
//!    ▲          │  ├───► failed       (error or runner panic)
//!    ▲          │  ├───► timed-out    (JobSpec.timeout_secs exceeded)
//!    │          │  ├───► killed       (DELETE while running/queued)
//!    │          │  └───► interrupted  (daemon stopped mid-sweep)
//!    ├───── retry ◄───── failed | timed-out   (capped exponential backoff)
//!    └───── resume ◄──── killed | interrupted | failed | timed-out
//! ```
//!
//! `running` and `interrupted` jobs found at startup are re-enqueued
//! automatically (their `walshcheck-checkpoint/1` file seeds the resumed
//! sweep); `killed`, `failed` and `timed-out` jobs stay put until an
//! explicit `POST resume`. While the daemon runs, `failed` and
//! `timed-out` jobs are retried automatically up to
//! [`PoolConfig::max_retries`] times with capped exponential backoff —
//! each retry resumes from the flushed checkpoint, so a retried job's
//! report is byte-identical to an uninterrupted run.
//!
//! ## Isolation
//!
//! Each job's sweep runs under `catch_unwind`: a panic on the runner
//! thread marks *that job* `failed` with a `runner panic: …` reason and
//! retires the (possibly tainted) runner thread — the supervisor thread
//! respawns a fresh one, and the daemon never stops serving.
//! Kills and deadlines interrupt one job through its own interrupt token
//! ([`walshcheck_core::Job::set_interrupt`]); only daemon shutdown raises
//! the process-global flag that drains every runner at once.
//!
//! ## Integrity scan
//!
//! [`JobManager::open`] re-verifies every completed job: each artifact's
//! SHA-256 (recorded in `status.json` and `index.json` at completion) is
//! recomputed from the bytes on disk, and a mismatch — a torn write, bit
//! rot, a truncated copy — quarantines the damaged file under
//! `<store>/quarantine/` and re-queues the job. A job directory whose
//! `status.json` is unreadable is rebuilt from `spec.json` + `netlist.il`
//! when they still parse (and still hash to the directory's id), else the
//! whole directory is quarantined.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use walshcheck_circuit::ilang::parse_ilang;
use walshcheck_core::hash::sha256_hex;
use walshcheck_core::json::{self, Json};
use walshcheck_core::observe::{EnginePhase, ProgressObserver};
use walshcheck_core::property::CheckStats;
use walshcheck_core::report::Report;
use walshcheck_core::{netlist_sha256, Job, JobSpec, Witness};

use crate::store::{job_id, Store};

/// Upper bound on one long-poll wait (`wait_ms` is clamped to this), so a
/// stuck client cannot pin a connection thread for longer.
pub const MAX_WAIT_MS: u64 = 30_000;

/// Ceiling on the exponential retry backoff.
const MAX_RETRY_DELAY: Duration = Duration::from_secs(30);

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a runner.
    Queued,
    /// A runner is sweeping it now.
    Running,
    /// Finished; `report.json` holds the artifact.
    Done,
    /// The run errored (bad netlist, engine failure, runner panic);
    /// `error` says why.
    Failed,
    /// Stopped by an explicit kill; waits for `POST resume`.
    Killed,
    /// Stopped because the daemon shut down; auto-resumes on restart.
    Interrupted,
    /// Its `timeout_secs` deadline fired; the checkpointed sweep resumes
    /// on retry or `POST resume`.
    TimedOut,
}

impl JobState {
    /// The wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Killed => "killed",
            JobState::Interrupted => "interrupted",
            JobState::TimedOut => "timed-out",
        }
    }

    /// Parses a wire name back into a state.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "killed" => JobState::Killed,
            "interrupted" => JobState::Interrupted,
            "timed-out" => JobState::TimedOut,
            _ => return None,
        })
    }

    /// Whether `POST resume` may re-enqueue a job in this state.
    pub fn resumable(self) -> bool {
        matches!(
            self,
            JobState::Killed | JobState::Interrupted | JobState::Failed | JobState::TimedOut
        )
    }

    /// Whether the job has reached a state no runner will change without
    /// external input (resume, retry, restart).
    pub fn terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job as the API sees it; persisted as `status.json`.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Content-derived job id (see [`crate::store::job_id`]).
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// SHA-256 of the canonical ILANG dump of the submitted netlist.
    pub netlist_sha256: String,
    /// [`JobSpec::identity_hash`] of the submitted spec.
    pub identity_hash: String,
    /// Failure cause, when `state` is `failed` or `timed-out`.
    pub error: Option<String>,
    /// [`Report::hash`] of the artifact, when `state` is `done`.
    pub report_hash: Option<String>,
    /// How many automatic retries this job has consumed.
    pub retries: u64,
    /// SHA-256 per completed artifact file (`report.json`, `run.json`),
    /// what the startup integrity scan verifies against the disk.
    pub artifacts: BTreeMap<String, String>,
}

impl JobRecord {
    /// The record as its canonical `status.json` document.
    pub fn to_json(&self) -> Json {
        let artifacts: BTreeMap<String, Json> = self
            .artifacts
            .iter()
            .map(|(f, h)| (f.clone(), Json::str(h.clone())))
            .collect();
        Json::obj([
            ("schema", Json::str("walshcheck-status/2")),
            ("id", Json::str(self.id.clone())),
            ("state", Json::str(self.state.as_str())),
            ("netlist_sha256", Json::str(self.netlist_sha256.clone())),
            ("identity_hash", Json::str(self.identity_hash.clone())),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
            (
                "report_hash",
                match &self.report_hash {
                    Some(h) => Json::str(h.clone()),
                    None => Json::Null,
                },
            ),
            (
                "retries",
                Json::Int(self.retries.min(i64::MAX as u64) as i64),
            ),
            ("artifacts", Json::Obj(artifacts)),
        ])
    }

    fn parse(doc: &Json) -> Option<JobRecord> {
        // `retries` and `artifacts` default when absent so status/1
        // records from 0.3.0 stores parse unchanged.
        let artifacts = match doc.get("artifacts") {
            Some(Json::Obj(map)) => map
                .iter()
                .filter_map(|(f, h)| Some((f.clone(), h.as_str()?.to_string())))
                .collect(),
            _ => BTreeMap::new(),
        };
        Some(JobRecord {
            id: doc.get("id")?.as_str()?.to_string(),
            state: JobState::parse(doc.get("state")?.as_str()?)?,
            netlist_sha256: doc.get("netlist_sha256")?.as_str()?.to_string(),
            identity_hash: doc.get("identity_hash")?.as_str()?.to_string(),
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            report_hash: doc
                .get("report_hash")
                .and_then(Json::as_str)
                .map(str::to_string),
            retries: doc.get("retries").and_then(Json::as_u64).unwrap_or(0),
            artifacts,
        })
    }
}

/// The outcome of a submission.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// The (possibly pre-existing) job id.
    pub id: String,
    /// The job's state after the submit.
    pub state: JobState,
    /// `true` when the identical job had already completed and the report
    /// is served from the store without recomputation.
    pub cached: bool,
    /// `true` when this submit created the job (HTTP 201 vs 200).
    pub created: bool,
}

/// A request the API cannot satisfy, with its HTTP status.
#[derive(Debug)]
pub struct ApiError {
    /// The status code to answer with.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl ApiError {
    fn bad(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    fn not_found(id: &str) -> Self {
        ApiError {
            status: 404,
            message: format!("no job {id}"),
        }
    }

    fn conflict(message: impl Into<String>) -> Self {
        ApiError {
            status: 409,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        ApiError {
            status: 500,
            message: message.into(),
        }
    }
}

/// Retry policy of the runner pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// How many automatic retries a `failed`/`timed-out` job gets
    /// (0 disables retry — every failure parks until `POST resume`).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry, capped at 30 s.
    pub retry_base: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_retries: 0,
            retry_base: Duration::from_millis(500),
        }
    }
}

/// Supervision state of one in-flight job.
struct RunningJob {
    /// Raised to interrupt this job's sweep (kill or deadline) without
    /// touching the other runners.
    interrupt: Arc<AtomicBool>,
    /// When the supervisor tick declares the attempt over.
    deadline: Option<Instant>,
    /// The spec's `timeout_secs`, for the error message.
    timeout_secs: Option<u64>,
    /// Set by the tick when the deadline fired (so the runner can tell a
    /// deadline interruption from a daemon stop).
    timed_out: bool,
}

struct Inner {
    records: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    /// Jobs whose interruption was requested by DELETE (vs deadline/stop).
    kill_pending: BTreeSet<String>,
    /// The jobs the runners are currently sweeping, by id.
    running: BTreeMap<String, RunningJob>,
    /// Jobs awaiting a backoff expiry before re-entering the queue.
    retry_at: BTreeMap<String, Instant>,
    /// Runner threads that retired after a caught panic and wait for the
    /// supervisor to join and replace them.
    retired: Vec<ThreadId>,
    stopping: bool,
}

/// Wakes long-poll waiters whenever a job emits an event or changes
/// state. A generation counter under the mutex keeps the condvar honest;
/// waiters additionally cap each wait so a lost wakeup costs at most one
/// re-check interval.
struct EventSignal {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl EventSignal {
    fn bump(&self) {
        let mut gen = self
            .gen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *gen = gen.wrapping_add(1);
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let gen = self
            .gen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = self.cv.wait_timeout(gen, timeout);
    }
}

/// The queue, state machine and persistence glue. One per daemon; shared
/// between the HTTP handlers and the runner threads behind an [`Arc`].
pub struct JobManager {
    store: Store,
    checkpoint_every: Duration,
    pool: PoolConfig,
    inner: Mutex<Inner>,
    /// Wakes the runners: a job was queued, or the pool is stopping.
    wake: Condvar,
    /// Wakes the supervisor: its timers changed, a runner retired, or the
    /// pool is stopping.
    beat: Condvar,
    signal: Arc<EventSignal>,
}

impl JobManager {
    /// Opens the manager over `store`, recovering job state from disk:
    /// `queued` jobs re-enter the queue, `running` and `interrupted` jobs
    /// are re-enqueued to resume from their checkpoint, `done` jobs pass
    /// the artifact integrity scan (see the module docs) or are
    /// quarantined and re-queued, everything else stays as found.
    ///
    /// # Errors
    ///
    /// Propagates store scanning failures as an [`ApiError`] (500).
    pub fn open(
        store: Store,
        checkpoint_every: Duration,
        pool: PoolConfig,
    ) -> Result<JobManager, ApiError> {
        let mut records = BTreeMap::new();
        let mut queue = VecDeque::new();
        // A crash mid-`atomic_replace` can leave `.…​.tmp` siblings; they
        // are never read, but sweeping keeps the tree canonical.
        let _ = store.sweep_temp_files();
        let ids = store
            .job_ids()
            .map_err(|e| ApiError::internal(format!("scanning store: {e}")))?;
        for id in ids {
            let parsed = store
                .read_job_file(&id, "status.json")
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .as_ref()
                .and_then(JobRecord::parse);
            let Some(mut record) = parsed else {
                // No readable record: rebuild one from the immutable
                // inputs when they still match the directory's id, else
                // pull the whole directory aside.
                if let Some(rebuilt) = rebuild_record(&store, &id) {
                    queue.push_back(id.clone());
                    records.insert(id, rebuilt);
                } else {
                    let _ = store.quarantine_job_dir(&id);
                }
                continue;
            };
            match record.state {
                JobState::Queued => queue.push_back(id.clone()),
                JobState::Running | JobState::Interrupted => {
                    // The daemon died or was stopped mid-sweep; the
                    // checkpoint file (if any) seeds the resumed run.
                    record.state = JobState::Queued;
                    queue.push_back(id.clone());
                }
                JobState::Done => {
                    if !verify_artifacts(&store, &id, &mut record) {
                        queue.push_back(id.clone());
                    }
                }
                JobState::Failed | JobState::Killed | JobState::TimedOut => {}
            }
            records.insert(id, record);
        }
        let manager = JobManager {
            store,
            checkpoint_every,
            pool,
            inner: Mutex::new(Inner {
                records,
                queue,
                kill_pending: BTreeSet::new(),
                running: BTreeMap::new(),
                retry_at: BTreeMap::new(),
                retired: Vec::new(),
                stopping: false,
            }),
            wake: Condvar::new(),
            beat: Condvar::new(),
            signal: Arc::new(EventSignal {
                gen: Mutex::new(0),
                cv: Condvar::new(),
            }),
        };
        manager.persist_all();
        Ok(manager)
    }

    /// The manager's store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Submits a job: `spec_doc` is the JSON spec ([`JobSpec::parse`]),
    /// `netlist_text` the ILANG source. Identical submissions dedupe to
    /// the same id; a completed identical job is answered from the store.
    ///
    /// # Errors
    ///
    /// 400 for an invalid spec or netlist, 500 for store failures.
    pub fn submit(&self, spec_doc: &Json, netlist_text: &str) -> Result<Submitted, ApiError> {
        let spec = JobSpec::parse(spec_doc).map_err(|e| ApiError::bad(e.to_string()))?;
        let netlist =
            parse_ilang(netlist_text).map_err(|e| ApiError::bad(format!("netlist: {e}")))?;
        netlist
            .validate()
            .map_err(|e| ApiError::bad(format!("netlist: {e}")))?;
        let nl_hash = netlist_sha256(&netlist);
        let identity = spec.identity_json().to_canonical();
        let id = job_id(&nl_hash, &identity);
        let mut inner = self.lock();
        if let Some(record) = inner.records.get(&id) {
            return Ok(Submitted {
                id,
                state: record.state,
                cached: record.state == JobState::Done,
                created: false,
            });
        }
        let record = JobRecord {
            id: id.clone(),
            state: JobState::Queued,
            netlist_sha256: nl_hash,
            identity_hash: spec.identity_hash(),
            error: None,
            report_hash: None,
            retries: 0,
            artifacts: BTreeMap::new(),
        };
        let io = |e: std::io::Error| ApiError::internal(format!("store: {e}"));
        self.store.create_job(&id).map_err(io)?;
        // The submitted text verbatim — NOT a re-dump. The id already
        // normalizes formatting variants (it hashes the canonical dump of
        // the *parsed* structure), and executing must parse exactly the
        // bytes that hash was derived from: the writer materializes output
        // aliases as `$buf` cells, so a re-dump re-parsed would be a
        // (slightly) different netlist than the one the id names.
        self.store
            .write_job_file(&id, "netlist.il", netlist_text.as_bytes())
            .map_err(io)?;
        self.store
            .write_job_file(&id, "spec.json", spec.to_json().to_canonical().as_bytes())
            .map_err(io)?;
        inner.records.insert(id.clone(), record);
        inner.queue.push_back(id.clone());
        self.persist(&inner, &id);
        drop(inner);
        self.wake.notify_all();
        self.signal.bump();
        Ok(Submitted {
            id,
            state: JobState::Queued,
            cached: false,
            created: true,
        })
    }

    /// The record of job `id`.
    ///
    /// # Errors
    ///
    /// 404 for an unknown id.
    pub fn status(&self, id: &str) -> Result<JobRecord, ApiError> {
        self.lock()
            .records
            .get(id)
            .cloned()
            .ok_or_else(|| ApiError::not_found(id))
    }

    /// All records, sorted by id.
    pub fn list(&self) -> Vec<JobRecord> {
        self.lock().records.values().cloned().collect()
    }

    /// The verbatim `report.json` artifact bytes of a `done` job.
    ///
    /// # Errors
    ///
    /// 404 for an unknown id, 409 when the job has not completed.
    pub fn report(&self, id: &str) -> Result<String, ApiError> {
        let record = self.status(id)?;
        if record.state != JobState::Done {
            return Err(ApiError::conflict(format!(
                "job {id} is {}, not done",
                record.state.as_str()
            )));
        }
        self.store
            .read_job_file(id, "report.json")
            .map_err(|e| ApiError::internal(format!("reading artifact: {e}")))
    }

    /// Progress events of job `id` from line `since` on, as the response
    /// body `{"next": N, "state": "…", "events": [...]}` (poll with
    /// `since = next`). With `wait_ms > 0` this long-polls: the call
    /// blocks until a new event lands, the job reaches a state no runner
    /// will change on its own, or the wait (clamped to [`MAX_WAIT_MS`])
    /// expires — whichever comes first.
    ///
    /// # Errors
    ///
    /// 404 for an unknown id.
    pub fn events(&self, id: &str, since: usize, wait_ms: u64) -> Result<String, ApiError> {
        let deadline = Instant::now() + Duration::from_millis(wait_ms.min(MAX_WAIT_MS));
        loop {
            let record = self.status(id)?;
            let text = self
                .store
                .read_job_file(id, "events.jsonl")
                .unwrap_or_default();
            let mut lines: Vec<&str> = text.lines().collect();
            // A crash mid-append can leave a torn final line; serving it
            // would corrupt the JSON body. Dropping it is safe — it is
            // re-served (or re-written) once whole.
            if lines.last().is_some_and(|l| json::parse(l).is_err()) {
                lines.pop();
            }
            let now = Instant::now();
            if lines.len() > since || record.state.terminal() || self.stopping() || now >= deadline
            {
                let slice = if since < lines.len() {
                    &lines[since..]
                } else {
                    &[]
                };
                return Ok(format!(
                    "{{\"next\":{},\"state\":\"{}\",\"events\":[{}]}}",
                    lines.len(),
                    record.state.as_str(),
                    slice.join(",")
                ));
            }
            // Cap each wait so a lost wakeup (or daemon stop) costs at
            // most one re-check interval.
            self.signal
                .wait((deadline - now).min(Duration::from_millis(250)));
        }
    }

    /// Kills job `id`: a queued job is removed from the queue, a running
    /// one has its sweep interrupted through its own token (the scheduler
    /// checkpoints and returns; other runners are untouched). The job
    /// lands in `killed` and waits for `POST resume`.
    ///
    /// # Errors
    ///
    /// 404 for an unknown id, 409 when the job is not queued/running.
    pub fn kill(&self, id: &str) -> Result<JobState, ApiError> {
        let mut inner = self.lock();
        let Some(record) = inner.records.get(id) else {
            return Err(ApiError::not_found(id));
        };
        match record.state {
            JobState::Queued => {
                inner.queue.retain(|q| q != id);
                inner.retry_at.remove(id);
                let record = inner.records.get_mut(id).expect("present");
                record.state = JobState::Killed;
                self.persist(&inner, id);
                drop(inner);
                self.signal.bump();
                Ok(JobState::Killed)
            }
            JobState::Running => {
                inner.kill_pending.insert(id.to_string());
                if let Some(rj) = inner.running.get(id) {
                    rj.interrupt.store(true, Ordering::Relaxed);
                }
                Ok(JobState::Running)
            }
            state => Err(ApiError::conflict(format!(
                "job {id} is {}, not queued or running",
                state.as_str()
            ))),
        }
    }

    /// Re-enqueues a `killed`, `interrupted`, `failed` or `timed-out`
    /// job; its checkpoint (if one was written) seeds the resumed sweep.
    /// An explicit resume also refreshes the automatic-retry budget.
    ///
    /// # Errors
    ///
    /// 404 for an unknown id, 409 when the job is not resumable.
    pub fn resume(&self, id: &str) -> Result<JobState, ApiError> {
        let mut inner = self.lock();
        let Some(record) = inner.records.get_mut(id) else {
            return Err(ApiError::not_found(id));
        };
        if !record.state.resumable() {
            return Err(ApiError::conflict(format!(
                "job {id} is {}, not resumable",
                record.state.as_str()
            )));
        }
        record.state = JobState::Queued;
        record.error = None;
        record.retries = 0;
        inner.retry_at.remove(id);
        inner.queue.push_back(id.to_string());
        self.persist(&inner, id);
        drop(inner);
        self.wake.notify_all();
        self.signal.bump();
        Ok(JobState::Queued)
    }

    /// Asks the runners to exit after their current jobs (whose sweeps
    /// the caller interrupts separately via the process-global
    /// [`walshcheck_core::shutdown`] flag), wakes the supervisor so it
    /// exits too, and releases long-pollers.
    pub fn stop(&self) {
        self.lock().stopping = true;
        self.wake.notify_all();
        self.beat.notify_all();
        self.signal.bump();
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.lock().stopping
    }

    /// One supervisor beat, called from the daemon's supervisor thread:
    /// fires expired job deadlines (raising the job's interrupt token and
    /// marking it for the `timed-out` transition) and re-queues
    /// `failed`/`timed-out` jobs whose retry backoff has elapsed.
    pub fn tick(&self) {
        let now = Instant::now();
        let mut woke = false;
        let mut inner = self.lock();
        for rj in inner.running.values_mut() {
            if !rj.timed_out && rj.deadline.is_some_and(|d| now >= d) {
                rj.timed_out = true;
                rj.interrupt.store(true, Ordering::Relaxed);
            }
        }
        let due: Vec<String> = inner
            .retry_at
            .iter()
            .filter(|&(_, at)| *at <= now)
            .map(|(id, _)| id.clone())
            .collect();
        for id in due {
            inner.retry_at.remove(&id);
            let retriable = inner
                .records
                .get(&id)
                .is_some_and(|r| matches!(r.state, JobState::Failed | JobState::TimedOut));
            if retriable {
                if let Some(record) = inner.records.get_mut(&id) {
                    record.state = JobState::Queued;
                    record.error = None;
                }
                inner.queue.push_back(id.clone());
                self.persist(&inner, &id);
                woke = true;
            }
        }
        drop(inner);
        if woke {
            self.wake.notify_all();
            self.signal.bump();
        }
    }

    /// Blocks the supervisor until its next timer comes due — the earliest
    /// deadline of a running job or retry backoff — or until it is
    /// notified: a runner retired, a job with a deadline started, a retry
    /// was booked, or [`JobManager::stop`] was called. Never waits longer
    /// than `cap`, and returns at once when a retired runner or a stop is
    /// already pending.
    pub(crate) fn wait_for_beat(&self, cap: Duration) {
        let inner = self.lock();
        if inner.stopping || !inner.retired.is_empty() {
            return;
        }
        let now = Instant::now();
        let timeout = inner
            .running
            .values()
            .filter(|rj| !rj.timed_out)
            .filter_map(|rj| rj.deadline)
            .chain(inner.retry_at.values().copied())
            .min()
            .map_or(cap, |due| due.saturating_duration_since(now).min(cap));
        let _ = self.beat.wait_timeout(inner, timeout);
    }

    /// Takes the ids of the runner threads that retired since the last
    /// call; the supervisor joins and replaces them.
    pub(crate) fn take_retired(&self) -> Vec<ThreadId> {
        std::mem::take(&mut self.lock().retired)
    }

    /// The runner loop: pops jobs until [`JobManager::stop`]. Call from a
    /// dedicated thread — or several; the pool shares one queue. Returns
    /// after a caught panic too (the job is marked `failed` first): a
    /// panicking sweep is evidence the thread's state may be tainted, so
    /// the thread retires and the supervisor respawns a fresh one.
    pub fn run_loop(self: &Arc<Self>) {
        loop {
            let id = {
                let mut inner = self.lock();
                loop {
                    if inner.stopping {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        break id;
                    }
                    inner = self
                        .wake
                        .wait(inner)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let token = Arc::new(AtomicBool::new(false));
            let timeout_secs = self.job_timeout_secs(&id);
            {
                let mut inner = self.lock();
                inner.running.insert(
                    id.clone(),
                    RunningJob {
                        interrupt: Arc::clone(&token),
                        deadline: timeout_secs.map(|t| Instant::now() + Duration::from_secs(t)),
                        timeout_secs,
                        timed_out: false,
                    },
                );
                if let Some(r) = inner.records.get_mut(&id) {
                    r.state = JobState::Running;
                }
                self.persist(&inner, &id);
            }
            if timeout_secs.is_some() {
                self.beat.notify_all();
            }
            self.signal.bump();
            let result = catch_unwind(AssertUnwindSafe(|| self.execute(&id, &token)));
            let panicked = result.is_err();
            let mut inner = self.lock();
            let rj = inner.running.remove(&id);
            let was_killed = inner.kill_pending.remove(&id);
            let (timed_out, timeout_secs) = rj
                .map(|r| (r.timed_out, r.timeout_secs))
                .unwrap_or((false, None));
            let mut retry = false;
            {
                let record = inner.records.get_mut(&id).expect("record exists");
                match result {
                    Ok(Ok(Some(finished))) => {
                        record.state = JobState::Done;
                        record.report_hash = Some(finished.report_hash);
                        record.artifacts = finished.artifacts;
                        record.error = None;
                    }
                    Ok(Ok(None)) => {
                        // Interrupted sweep: an explicit kill parks the
                        // job, a fired deadline marks it timed-out (and
                        // retriable), a daemon stop marks it for
                        // auto-resume on restart.
                        record.state = if was_killed {
                            JobState::Killed
                        } else if timed_out {
                            record.error = Some(format!(
                                "deadline of {}s exceeded",
                                timeout_secs.unwrap_or(0)
                            ));
                            retry = true;
                            JobState::TimedOut
                        } else {
                            JobState::Interrupted
                        };
                    }
                    Ok(Err(message)) => {
                        record.state = JobState::Failed;
                        record.error = Some(message);
                        retry = !was_killed;
                    }
                    Err(payload) => {
                        record.state = JobState::Failed;
                        record.error = Some(format!("runner panic: {}", panic_message(&payload)));
                        retry = !was_killed;
                    }
                }
            }
            if retry {
                self.schedule_retry(&mut inner, &id);
            }
            self.persist(&inner, &id);
            if panicked {
                inner.retired.push(std::thread::current().id());
                self.beat.notify_all();
            }
            drop(inner);
            self.signal.bump();
            if panicked {
                return;
            }
        }
    }

    /// Books an automatic retry for `id` if the budget allows.
    fn schedule_retry(&self, inner: &mut Inner, id: &str) {
        if inner.stopping || self.pool.max_retries == 0 {
            return;
        }
        let Some(record) = inner.records.get_mut(id) else {
            return;
        };
        if record.retries >= u64::from(self.pool.max_retries) {
            return;
        }
        record.retries += 1;
        let exp = u32::try_from(record.retries - 1).unwrap_or(16).min(16);
        let delay = self
            .pool
            .retry_base
            .saturating_mul(1u32 << exp)
            .min(MAX_RETRY_DELAY);
        inner
            .retry_at
            .insert(id.to_string(), Instant::now() + delay);
        self.beat.notify_all();
    }

    /// The spec's `timeout_secs` of job `id`, read back from the store.
    fn job_timeout_secs(&self, id: &str) -> Option<u64> {
        let text = self.store.read_job_file(id, "spec.json").ok()?;
        let doc = json::parse(&text).ok()?;
        JobSpec::parse(&doc).ok()?.timeout_secs
    }

    /// Runs one job to a verdict. `Ok(Some(finished))` on completion,
    /// `Ok(None)` when the sweep was interrupted, `Err` on failure.
    fn execute(&self, id: &str, interrupt: &Arc<AtomicBool>) -> Result<Option<Finished>, String> {
        #[cfg(feature = "fault-inject")]
        {
            if let Some(ms) = walshcheck_core::fault::u64_directive("job-stall-ms") {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if walshcheck_core::fault::string_directive("runner-panic-at").as_deref() == Some(id) {
                std::panic::panic_any(walshcheck_core::fault::InjectedFault("runner-panic-at"));
            }
        }
        let spec_text = self
            .store
            .read_job_file(id, "spec.json")
            .map_err(|e| format!("reading spec: {e}"))?;
        let netlist_text = self
            .store
            .read_job_file(id, "netlist.il")
            .map_err(|e| format!("reading netlist: {e}"))?;
        let spec_doc = json::parse(&spec_text).map_err(|e| format!("stored spec: {e}"))?;
        let spec = JobSpec::parse(&spec_doc).map_err(|e| format!("stored spec: {e}"))?;
        let netlist = parse_ilang(&netlist_text).map_err(|e| format!("stored netlist: {e}"))?;
        let mut job = Job::new(&netlist, spec).map_err(|e| e.to_string())?;
        job.set_interrupt(Arc::clone(interrupt));
        let observer = Arc::new(EventWriter {
            store: self.store.clone(),
            id: id.to_string(),
            signal: Arc::clone(&self.signal),
            phases: Mutex::new(Vec::new()),
        });
        job.set_observer(Arc::<EventWriter>::clone(&observer));
        let ck_path = self.store.job_file(id, "checkpoint.ck");
        job.checkpoint_to_with(&ck_path, self.checkpoint_every, Arc::clone(self.store.io()));
        // A checkpoint that fails to parse (torn write, wrong netlist,
        // stale schema) must never fail the job: quarantine it, log why,
        // and fall back to a from-scratch sweep — the report is
        // byte-identical either way.
        let resumed = if ck_path.exists() {
            match job.resume_from(&ck_path) {
                Ok(()) => true,
                Err(e) => {
                    let _ = self.store.append_event(
                        id,
                        &Json::obj([
                            ("event", Json::str("checkpoint-rejected")),
                            ("error", Json::str(e.to_string())),
                        ])
                        .to_canonical(),
                    );
                    let _ = self.store.quarantine_job_file(id, "checkpoint.ck");
                    false
                }
            }
        } else {
            false
        };
        let verdict = job.run();
        if verdict.stats.interrupted {
            return Ok(None);
        }
        let spec = job.spec();
        let artifact = Report::new(&netlist, spec, &verdict);
        let phases = observer
            .phases
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let run_doc = walshcheck_core::run_report_json(&netlist, &verdict, spec, &phases, resumed);
        let io = |e: std::io::Error| format!("store: {e}");
        self.store
            .write_job_file(id, "report.json", artifact.canonical_json().as_bytes())
            .map_err(io)?;
        self.store
            .write_job_file(id, "run.json", run_doc.as_bytes())
            .map_err(io)?;
        let _ = self.store.remove_job_file(id, "checkpoint.ck"); // sweep complete
        let artifacts = BTreeMap::from([
            ("report.json".to_string(), artifact.hash().to_string()),
            ("run.json".to_string(), sha256_hex(run_doc.as_bytes())),
        ]);
        Ok(Some(Finished {
            report_hash: artifact.hash().to_string(),
            artifacts,
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Writes `status.json` of `id`, then the top-level index. The order
    /// is a durability barrier (each write fsyncs file and directory):
    /// the index can never durably claim a state whose `status.json` did
    /// not reach the disk first, so a crash between the two writes leaves
    /// at worst a *stale* index entry, which the startup scan reconciles
    /// from the authoritative per-job record.
    fn persist(&self, inner: &Inner, id: &str) {
        if let Some(record) = inner.records.get(id) {
            let _ = self.store.write_job_file(
                id,
                "status.json",
                record.to_json().to_canonical().as_bytes(),
            );
        }
        let jobs: BTreeMap<String, Json> = inner
            .records
            .iter()
            .map(|(id, r)| {
                let artifacts: BTreeMap<String, Json> = r
                    .artifacts
                    .iter()
                    .map(|(f, h)| (f.clone(), Json::str(h.clone())))
                    .collect();
                (
                    id.clone(),
                    Json::obj([
                        ("state", Json::str(r.state.as_str())),
                        (
                            "report_hash",
                            match &r.report_hash {
                                Some(h) => Json::str(h.clone()),
                                None => Json::Null,
                            },
                        ),
                        ("retries", Json::Int(r.retries.min(i64::MAX as u64) as i64)),
                        ("artifacts", Json::Obj(artifacts)),
                    ]),
                )
            })
            .collect();
        let index = Json::obj([
            ("schema", Json::str("walshcheck-index/2")),
            ("jobs", Json::Obj(jobs)),
        ]);
        let _ = self.store.write_index(index.to_canonical().as_bytes());
    }

    fn persist_all(&self) {
        let inner = self.lock();
        let ids: Vec<String> = inner.records.keys().cloned().collect();
        for id in ids {
            self.persist(&inner, &id);
        }
    }
}

/// What a completed sweep hands back to the state machine.
struct Finished {
    report_hash: String,
    artifacts: BTreeMap<String, String>,
}

/// Re-verifies a `done` job's artifacts against their recorded hashes.
/// Returns `true` when everything matches; on a mismatch the damaged
/// files are quarantined and `record` is reset to `queued` (the caller
/// enqueues it).
fn verify_artifacts(store: &Store, id: &str, record: &mut JobRecord) -> bool {
    // status/1 stores recorded no artifact map; `report_hash` doubles as
    // the hash of report.json's canonical bytes, so those still get the
    // report checked.
    let checks: Vec<(String, String)> = if record.artifacts.is_empty() {
        record
            .report_hash
            .iter()
            .map(|h| ("report.json".to_string(), h.clone()))
            .collect()
    } else {
        record
            .artifacts
            .iter()
            .map(|(f, h)| (f.clone(), h.clone()))
            .collect()
    };
    let mut clean = true;
    for (file, expect) in checks {
        let ok = store
            .job_file_sha256(id, &file)
            .is_ok_and(|have| have == expect);
        if !ok {
            let _ = store.quarantine_job_file(id, &file);
            clean = false;
        }
    }
    if !clean {
        record.state = JobState::Queued;
        record.report_hash = None;
        record.artifacts.clear();
        record.error = None;
    }
    clean
}

/// Rebuilds a fresh `queued` record for a job directory whose
/// `status.json` is unreadable, provided `spec.json` and `netlist.il`
/// still parse and still hash to the directory's id (anything else is
/// not this job's data).
fn rebuild_record(store: &Store, id: &str) -> Option<JobRecord> {
    let spec_text = store.read_job_file(id, "spec.json").ok()?;
    let netlist_text = store.read_job_file(id, "netlist.il").ok()?;
    let spec = JobSpec::parse(&json::parse(&spec_text).ok()?).ok()?;
    let netlist = parse_ilang(&netlist_text).ok()?;
    let nl_hash = netlist_sha256(&netlist);
    if job_id(&nl_hash, &spec.identity_json().to_canonical()) != id {
        return None;
    }
    Some(JobRecord {
        id: id.to_string(),
        state: JobState::Queued,
        netlist_sha256: nl_hash,
        identity_hash: spec.identity_hash(),
        error: None,
        report_hash: None,
        retries: 0,
        artifacts: BTreeMap::new(),
    })
}

/// Renders a caught panic payload for the job's `error` field.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<walshcheck_core::fault::InjectedFault>() {
        f.to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A [`ProgressObserver`] that appends one JSON line per event to the
/// job's `events.jsonl` (append-only, so events survive restarts),
/// wakes long-poll waiters, and collects phase timings for the final run
/// report. Per-combination callbacks (`combination_pruned`) are
/// deliberately not recorded — on large sweeps they would dwarf
/// everything else in the log.
struct EventWriter {
    store: Store,
    id: String,
    signal: Arc<EventSignal>,
    phases: Mutex<Vec<(String, Duration)>>,
}

impl EventWriter {
    fn emit(&self, line: String) {
        let _ = self.store.append_event(&self.id, &line);
        self.signal.bump();
    }
}

impl ProgressObserver for EventWriter {
    fn run_started(&self, sites: usize, total: u64, buckets: &[(usize, u64)]) {
        let buckets: Vec<String> = buckets.iter().map(|(k, n)| format!("[{k},{n}]")).collect();
        self.emit(format!(
            "{{\"event\":\"run-started\",\"sites\":{sites},\"total\":{total},\"buckets\":[{}]}}",
            buckets.join(",")
        ));
    }

    fn batch_claimed(&self, worker: usize, k: usize, first_index: u64, len: usize) {
        self.emit(format!(
            "{{\"event\":\"batch-claimed\",\"worker\":{worker},\"k\":{k},\"first_index\":{first_index},\"len\":{len}}}"
        ));
    }

    fn batch_finished(&self, worker: usize, checked: u64, pruned: u64) {
        self.emit(format!(
            "{{\"event\":\"batch-finished\",\"worker\":{worker},\"checked\":{checked},\"pruned\":{pruned}}}"
        ));
    }

    fn violation_found(&self, worker: usize, index: u64, _witness: &Witness) {
        self.emit(format!(
            "{{\"event\":\"violation-found\",\"worker\":{worker},\"index\":{index}}}"
        ));
    }

    fn combination_quarantined(
        &self,
        worker: usize,
        index: u64,
        reason: walshcheck_core::IncompleteReason,
    ) {
        self.emit(format!(
            "{{\"event\":\"combination-quarantined\",\"worker\":{worker},\"index\":{index},\"reason\":\"{}\"}}",
            reason.as_str()
        ));
    }

    fn checkpoint_written(&self, _path: &std::path::Path, combinations: u64) {
        self.emit(format!(
            "{{\"event\":\"checkpoint-written\",\"combinations\":{combinations}}}"
        ));
    }

    fn phase_timing(&self, phase: EnginePhase, elapsed: Duration) {
        self.phases
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((phase.to_string(), elapsed));
        self.emit(format!(
            "{{\"event\":\"phase\",\"name\":\"{phase}\",\"seconds\":{:.6}}}",
            elapsed.as_secs_f64()
        ));
    }

    fn rescue_started(&self, quarantined: usize) {
        self.emit(format!(
            "{{\"event\":\"rescue-started\",\"quarantined\":{quarantined}}}"
        ));
    }

    fn rescue_resolved(&self, index: u64, resolution: walshcheck_core::RescueResolution) {
        self.emit(format!(
            "{{\"event\":\"rescue-resolved\",\"index\":{index},\"resolution\":\"{}\"}}",
            resolution.as_str()
        ));
    }

    fn rescue_finished(&self, report: &walshcheck_core::RecoveryReport) {
        self.emit(format!(
            "{{\"event\":\"rescue-finished\",\"attempted\":{},\"resolved\":{},\"unresolved\":{}}}",
            report.attempted, report.resolved, report.unresolved
        ));
    }

    fn run_finished(&self, stats: &CheckStats) {
        self.emit(format!(
            "{{\"event\":\"run-finished\",\"combinations\":{},\"pruned\":{},\"interrupted\":{}}}",
            stats.combinations, stats.pruned, stats.interrupted
        ));
    }
}
