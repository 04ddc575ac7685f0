//! The `daemon-mix` workload: a real `walshcheck serve` child process
//! driven over HTTP by a closed loop of two clients.
//!
//! Each client takes the next job of the seeded stream, submits it, long-
//! polls its events until the job is over, then fetches `report.json`.
//! Every fetched report must be byte-identical to the in-process
//! [`Report::canonical_json`] of the same netlist text and spec, and its
//! verdict must match the expected table. The in-process reference runs
//! happen between the loop's rounds, while the daemon is idle, so they
//! never compete with it for a core: one pass over every fresh job of the
//! stream after every second round, so that each job's reference time, the
//! fastest of its passes, samples the whole run.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use walshcheck_circuit::ilang::{parse_ilang, write_ilang};
use walshcheck_circuit::netlist::Netlist;
use walshcheck_core::json::{self, Json};
use walshcheck_core::{IoFs, Job, JobSpec, RealFs, Report};
use walshcheck_daemon::jobs::JobManager;
use walshcheck_daemon::{Client, FsyncEvents, PoolConfig, Store};

use crate::cells::{daemon_spec, daemon_stream, StreamJob, DAEMON, MAX_ROUNDS};
use crate::inproc::{finish_traced, peak_rss_mb, replay_circuit_layers, run_id, StatsSum};
use crate::record::RunResult;
use crate::stats::{interquartile_mean, median, percentile, samples_above};
use crate::trace::Tracer;
use crate::{expected, Args};

/// Fresh jobs a run submits at least, so p95 has ten samples above it.
const MIN_FRESH: usize = 200;
/// Rough wall time of one round (124 fresh jobs and 41 resubmissions) and
/// of the reference pass that follows every second one.
const SECONDS_PER_ROUND: f64 = 3.5;
const SETUP_REPS: usize = 5;
const SMOKE_JOBS: usize = 12;
const CLIENTS: usize = 2;
const LONG_POLL_MS: u64 = 5_000;
/// A job not over after this long counts as failed (timeout).
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The benchmark's inputs: one ILANG text per gadget and one spec per
/// (cell, variant).
struct Inputs {
    texts: BTreeMap<&'static str, String>,
    netlists: Vec<Netlist>,
}

impl Inputs {
    fn new(t: &Tracer) -> Self {
        let mut texts = BTreeMap::new();
        let mut netlists = Vec::new();
        for cell in DAEMON {
            if !texts.contains_key(cell.gadget) {
                let n = t.span("circuit.build", None, |_| cell.netlist());
                texts.insert(cell.gadget, write_ilang(&n));
                netlists.push(n);
            }
        }
        Inputs { texts, netlists }
    }

    fn text(&self, job: &StreamJob) -> &str {
        &self.texts[DAEMON[job.cell].gadget]
    }

    fn spec_json(job: &StreamJob) -> String {
        daemon_spec(&DAEMON[job.cell], job.variant)
            .to_json()
            .to_canonical()
    }
}

/// A `walshcheck serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns the daemon over a fresh store and waits until `/v1/health`
    /// answers 200; returns it with the seconds that took.
    fn start(bin: &str, store: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {bin} serve: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let addr_file = store.join("daemon.addr");
        loop {
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not become healthy within 30 s".into());
            }
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if server.addr.is_empty() {
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    if text.ends_with('\n') {
                        server.addr = text.trim().to_string();
                    }
                }
            }
            if !server.addr.is_empty() {
                let ok = Client::new(server.addr.clone())
                    .timeout(Duration::from_secs(5))
                    .get("/v1/health")
                    .is_ok_and(|r| r.status == 200);
                if ok {
                    return Ok((server, start.elapsed().as_secs_f64()));
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one client saw of one job.
#[derive(Debug, Clone, Default)]
struct Outcome {
    position: usize,
    job: Option<StreamJob>,
    error: Option<String>,
    cached: bool,
    report: Option<String>,
    rtt: f64,
    queue_wait: Option<f64>,
    run_s: Option<f64>,
    events: u64,
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("response lacks `{key}`"))
}

fn expect_status(
    r: &walshcheck_daemon::client::ClientResponse,
    what: &str,
) -> Result<Json, String> {
    if !(200..300).contains(&r.status) {
        return Err(format!("{what}: HTTP {} {}", r.status, r.text().trim()));
    }
    json::parse(&r.text()).map_err(|e| format!("{what}: {e}"))
}

/// Submits one job and follows it to its report.
fn drive(
    t: &Tracer,
    client: &Client,
    inputs: &Inputs,
    job: &StreamJob,
    o: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    t.span("daemon.job", None, |parent| {
        let spec = Inputs::spec_json(job);
        let resp = t
            .span("daemon.http.submit", parent, |_| {
                client.submit(&spec, inputs.text(job))
            })
            .map_err(|e| format!("submit: {e}"))?;
        let replied = Instant::now();
        let doc = expect_status(&resp, "submit")?;
        let id = field(&doc, "id")?
            .as_str()
            .ok_or("id is not a string")?
            .to_string();
        o.cached = field(&doc, "cached")?.as_bool().unwrap_or(false);
        let mut state = field(&doc, "state")?.as_str().unwrap_or("").to_string();
        let mut since = 0u64;
        let mut first_event = None;
        while state == "queued" || state == "running" {
            if start.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {id} timed out in state {state}"));
            }
            let resp = t
                .span("daemon.http.events", parent, |_| {
                    client.events(&id, since as usize, LONG_POLL_MS)
                })
                .map_err(|e| format!("events: {e}"))?;
            let doc = expect_status(&resp, "events")?;
            let next = field(&doc, "next")?.as_u64().ok_or("bad next")?;
            if next > since && first_event.is_none() {
                first_event = Some(Instant::now());
                o.queue_wait = Some((Instant::now() - replied).as_secs_f64());
            }
            since = next;
            state = field(&doc, "state")?.as_str().unwrap_or("").to_string();
        }
        if let Some(first) = first_event {
            o.run_s = Some(first.elapsed().as_secs_f64());
        }
        o.events = since;
        if state != "done" {
            return Err(format!("job {id} ended {state}"));
        }
        let resp = t
            .span("daemon.http.report", parent, |_| {
                client.get(&format!("/v1/jobs/{id}/report"))
            })
            .map_err(|e| format!("report: {e}"))?;
        if resp.status != 200 {
            return Err(format!("report: HTTP {}", resp.status));
        }
        o.report = Some(resp.text());
        Ok(())
    })?;
    o.rtt = start.elapsed().as_secs_f64();
    Ok(())
}

/// Runs the closed loop over `jobs`, which start at stream position
/// `first` (each client takes the next job as soon as its previous one is
/// over); returns every job's outcome and the loop's wall seconds.
fn closed_loop(
    t: &Tracer,
    addr: &str,
    inputs: &Inputs,
    jobs: &[StreamJob],
    first: usize,
) -> (Vec<Outcome>, f64) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let client = Client::new(addr).timeout(JOB_TIMEOUT);
                loop {
                    let position = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(position) else { break };
                    let mut o = Outcome {
                        position: first + position,
                        job: Some(*job),
                        ..Outcome::default()
                    };
                    if let Err(e) = drive(t, &client, inputs, job, &mut o) {
                        eprintln!("walshbench: daemon-mix job {}: {e}", o.position);
                        o.error = Some(e);
                    }
                    outcomes.lock().expect("outcomes poisoned").push(o);
                }
            });
        }
    });
    let mut outcomes = outcomes.into_inner().expect("outcomes poisoned");
    outcomes.sort_by_key(|o| o.position);
    (outcomes, start.elapsed().as_secs_f64())
}

/// In-process references by (cell, variant).
type References = BTreeMap<(usize, usize), Reference>;

/// The in-process reference of one fresh job.
struct Reference {
    report: String,
    /// Wall seconds of `Job::run`, one per reference pass.
    walls: Vec<f64>,
    verdict_ok: bool,
}

impl Reference {
    /// The job's in-process check time: its fastest pass.
    fn wall(&self) -> f64 {
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Runs every fresh job of `stream` once in process, exactly as the daemon
/// runs a submission: parse the text and the spec JSON, `Job::new`, run.
/// A job's first pass also keeps its canonical report, its verdict check
/// and its counters (into `stats`); later passes add only a time.
fn reference_pass(
    t: &Tracer,
    inputs: &Inputs,
    stream: &[StreamJob],
    refs: &mut References,
    stats: &mut StatsSum,
) -> Result<(), String> {
    for job in stream.iter().filter(|j| j.repeat_of.is_none()) {
        let netlist = parse_ilang(inputs.text(job)).map_err(|e| e.to_string())?;
        let spec_doc = json::parse(&Inputs::spec_json(job))?;
        let spec = JobSpec::parse(&spec_doc).map_err(|e| e.to_string())?;
        let mut j = t
            .span("core.job.new", None, |_| Job::new(&netlist, spec))
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let verdict = t.span("core.job.run", None, |_| j.run());
        let wall = start.elapsed().as_secs_f64();
        match refs.entry((job.cell, job.variant)) {
            Entry::Occupied(mut slot) => slot.get_mut().walls.push(wall),
            Entry::Vacant(slot) => {
                stats.add(&verdict.stats);
                slot.insert(Reference {
                    report: Report::new(&netlist, j.spec(), &verdict)
                        .canonical_json()
                        .to_string(),
                    walls: vec![wall],
                    verdict_ok: expected::verdict_ok(&DAEMON[job.cell], &verdict),
                });
            }
        }
    }
    Ok(())
}

/// Counts failures: transport errors, non-`done` jobs, resubmissions not
/// answered from the store, and reports differing from the reference.
fn judge(outcomes: &[Outcome], refs: &References) -> u64 {
    let mut failed = 0;
    for o in outcomes {
        let job = o.job.expect("outcome has a job");
        let r = &refs[&(job.cell, job.variant)];
        let ok =
            o.error.is_none() && r.verdict_ok && o.report.as_deref() == Some(r.report.as_str());
        if !ok {
            if o.error.is_none() {
                eprintln!(
                    "walshbench: daemon-mix job {} report differs from the in-process reference",
                    o.position
                );
            }
            failed += 1;
        }
    }
    failed
}

/// Fresh-job latencies and counts of one loop.
struct LoopSummary {
    fresh_rtt: Vec<f64>,
    hit_rtt: Vec<f64>,
    completed: usize,
    wall: f64,
}

fn summarize(outcomes: &[Outcome], wall: f64) -> LoopSummary {
    let ok = |o: &&Outcome| o.error.is_none();
    LoopSummary {
        fresh_rtt: outcomes
            .iter()
            .filter(ok)
            .filter(|o| o.job.is_some_and(|j| j.repeat_of.is_none()))
            .map(|o| o.rtt)
            .collect(),
        hit_rtt: outcomes
            .iter()
            .filter(ok)
            .filter(|o| o.cached)
            .map(|o| o.rtt)
            .collect(),
        completed: outcomes.iter().filter(ok).count(),
        wall,
    }
}

/// An [`IoFs`] that performs every operation through [`RealFs`] and
/// counts fsyncs, their time, and the bytes written.
#[derive(Debug, Default)]
struct TimingFs {
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    bytes: AtomicU64,
}

impl TimingFs {
    fn timed(&self, f: impl FnOnce() -> std::io::Result<()>) -> std::io::Result<()> {
        let start = Instant::now();
        let out = f();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl IoFs for TimingFs {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealFs.create_dir_all(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealFs.write_file(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.timed(|| RealFs.sync_file(path))
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.timed(|| RealFs.sync_dir(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealFs.rename(from, to)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealFs.append(path, bytes)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealFs.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealFs.remove_dir_all(path)
    }
}

/// Replays `jobs` in stream order through an in-process [`JobManager`]
/// over a timing store (the daemon binary hard-codes [`RealFs`]); sets the
/// store's per-job fsync count, fsync seconds and bytes written.
fn replay_store(
    t: &Tracer,
    r: &mut RunResult,
    inputs: &Inputs,
    jobs: &[StreamJob],
    dir: &Path,
) -> Result<(), String> {
    let fs = Arc::new(TimingFs::default());
    let store = Store::open_with(
        dir,
        Arc::clone(&fs) as Arc<dyn IoFs>,
        FsyncEvents::default(),
    )
    .map_err(|e| format!("replay store: {e}"))?;
    let manager = Arc::new(
        JobManager::open(store, Duration::from_secs(2), PoolConfig::default())
            .map_err(|e| format!("replay manager: {}", e.message))?,
    );
    let runner = {
        let m = Arc::clone(&manager);
        std::thread::spawn(move || m.run_loop())
    };
    let result = (|| {
        for job in jobs {
            let spec = json::parse(&Inputs::spec_json(job))?;
            t.span("daemon.store.replay_job", None, |_| {
                let sub = manager
                    .submit(&spec, inputs.text(job))
                    .map_err(|e| format!("replay submit: {}", e.message))?;
                while !manager
                    .status(&sub.id)
                    .map_err(|e| e.message)?
                    .state
                    .terminal()
                {
                    let _ = manager.events(&sub.id, usize::MAX, 250);
                }
                Ok::<(), String>(())
            })?;
        }
        Ok::<(), String>(())
    })();
    manager.stop();
    runner.join().map_err(|_| "replay runner panicked")?;
    result?;
    let n = jobs.len().max(1) as f64;
    r.set(
        "daemon.store.fsyncs_per_job",
        fs.fsyncs.load(Ordering::Relaxed) as f64 / n,
    );
    r.set(
        "daemon.store.fsync_s_per_job",
        fs.fsync_ns.load(Ordering::Relaxed) as f64 / 1e9 / n,
    );
    r.set(
        "daemon.store.bytes_per_job",
        fs.bytes.load(Ordering::Relaxed) as f64 / n,
    );
    Ok(())
}

/// The job stream of a run, by round: as many whole rounds as the run
/// length holds at about [`SECONDS_PER_ROUND`] each — a fixed count for a
/// given `--seconds`, so every run does the same work — and never fewer
/// than [`MIN_FRESH`] fresh jobs. A traced run, which loops twice and
/// replays the stream, takes half as many.
fn stream_for(args: &Args) -> Vec<Vec<StreamJob>> {
    let rounds = if args.smoke {
        1
    } else {
        let by_time = (args.seconds / SECONDS_PER_ROUND).round() as usize;
        let by_time = if args.trace { by_time / 2 } else { by_time };
        by_time
            .max(MIN_FRESH.div_ceil(DAEMON.len()))
            .min(MAX_ROUNDS)
    };
    let mut stream = daemon_stream(args.seed, DAEMON.len(), rounds);
    if args.smoke {
        stream[0].truncate(SMOKE_JOBS);
    }
    stream
}

fn fresh_ref_wall(outcomes: &[Outcome], refs: &References) -> f64 {
    outcomes
        .iter()
        .filter_map(|o| o.job)
        .filter(|j| j.repeat_of.is_none())
        .map(|j| refs[&(j.cell, j.variant)].wall())
        .sum()
}

/// Runs the closed loop over `rounds`, one after the other, calling
/// `between` after every second round and after the last; returns every
/// job's outcome and the loops' summed wall seconds.
fn run_rounds(
    t: &Tracer,
    addr: &str,
    inputs: &Inputs,
    rounds: &[Vec<StreamJob>],
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Outcome>, f64), String> {
    let mut outcomes = Vec::new();
    let mut wall = 0.0;
    for (i, round) in rounds.iter().enumerate() {
        let (mut o, w) = closed_loop(t, addr, inputs, round, outcomes.len());
        outcomes.append(&mut o);
        wall += w;
        if i % 2 == 1 || i + 1 == rounds.len() {
            between()?;
        }
    }
    Ok((outcomes, wall))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let bin = args
        .walshcheck
        .clone()
        .ok_or("daemon-mix needs --walshcheck PATH")?;
    let work = PathBuf::from(".bench_work").join(run_id(args));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, &bin, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, bin: &str, work: &Path) -> Result<RunResult, String> {
    let rounds = stream_for(args);
    let stream: Vec<StreamJob> = rounds.concat();
    let off = Tracer::new(false, String::new());
    let mut r = RunResult::default();
    let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
    let inputs = Inputs::new(&off);

    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..setup_reps {
        let (s, secs) = Server::start(bin, &work.join(format!("store-{rep}")))?;
        setup.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no daemon started")?;
    let mut refs = References::new();
    let mut stats = StatsSum::default();
    let (outcomes, wall) = run_rounds(&off, &server.addr, &inputs, &rounds, || {
        if args.trace {
            Ok(())
        } else {
            reference_pass(&off, &inputs, &stream, &mut refs, &mut stats)
        }
    })?;
    let rss = server.peak_rss_mb()?;
    drop(server);
    let baseline = summarize(&outcomes, wall);

    if !args.trace {
        let failed = judge(&outcomes, &refs);
        if !args.smoke && samples_above(&baseline.fresh_rtt, 95.0) < 10 {
            return Err(format!(
                "only {} fresh jobs completed; p95 needs ten samples above it",
                baseline.fresh_rtt.len()
            ));
        }
        r.set("setup_s", median(&setup).ok_or("no set-up sample")?);
        r.set("check_s", fresh_ref_wall(&outcomes, &refs));
        r.set("peak_rss_mb", rss);
        r.set(
            "ok_frac",
            1.0 - failed as f64 / outcomes.len().max(1) as f64,
        );
        r.set(
            "rtt_s_iqm",
            interquartile_mean(&baseline.fresh_rtt).ok_or("no fresh job")?,
        );
        r.set(
            "rtt_s_p95",
            percentile(&baseline.fresh_rtt, 95.0).ok_or("no fresh job")?,
        );
        r.set(
            "hit_rtt_s_p50",
            median(&baseline.hit_rtt).ok_or("no store hit")?,
        );
        r.set("jobs_per_s", baseline.completed as f64 / baseline.wall);
        r.attempted = outcomes.len() as u64;
        r.failed = failed;
        r.correct = failed == 0;
        r.details.push((
            "daemon_mix",
            Json::obj([
                ("jobs", Json::Int(outcomes.len() as i64)),
                ("fresh", Json::Int(baseline.fresh_rtt.len() as i64)),
                ("hits", Json::Int(baseline.hit_rtt.len() as i64)),
                ("loop_s", Json::Float(baseline.wall)),
            ]),
        ));
        return Ok(r);
    }

    // Traced: the loop above was the untraced baseline; now the traced one.
    let t = Arc::new(Tracer::new(true, run_id(args)));
    let inputs = Inputs::new(&t);
    let (server, _) = Server::start(bin, &work.join("store-traced"))?;
    let (traced, wall) = run_rounds(&t, &server.addr, &inputs, &rounds, || Ok(()))?;
    drop(server);
    let summary = summarize(&traced, wall);
    reference_pass(&t, &inputs, &stream, &mut refs, &mut stats)?;
    let failed = judge(&outcomes, &refs) + judge(&traced, &refs);

    let fresh: Vec<&Outcome> = traced
        .iter()
        .filter(|o| o.error.is_none() && o.job.is_some_and(|j| j.repeat_of.is_none()))
        .collect();
    let jobs = traced.len().max(1) as f64;
    let requests = t.count("daemon.http.submit")
        + t.count("daemon.http.events")
        + t.count("daemon.http.report");
    r.set(
        "daemon.http.submit_s_p50",
        median(&t.durations("daemon.http.submit")).unwrap_or(0.0),
    );
    r.set(
        "daemon.http.report_s_p50",
        median(&t.durations("daemon.http.report")).unwrap_or(0.0),
    );
    r.set("daemon.http.requests_per_job", requests as f64 / jobs);
    let waits: Vec<f64> = fresh.iter().filter_map(|o| o.queue_wait).collect();
    let runs: Vec<f64> = fresh.iter().filter_map(|o| o.run_s).collect();
    let events: u64 = fresh.iter().map(|o| o.events).sum();
    r.set(
        "daemon.jobs.queue_wait_s_p50",
        median(&waits).unwrap_or(0.0),
    );
    r.set("daemon.jobs.run_s_p50", median(&runs).unwrap_or(0.0));
    r.set(
        "daemon.jobs.events_per_job",
        events as f64 / fresh.len().max(1) as f64,
    );
    r.set("core.observe.events", events as f64);
    r.set(
        "daemon.store.hit_frac",
        traced.iter().filter(|o| o.cached).count() as f64 / jobs,
    );
    let submitted: Vec<StreamJob> = traced.iter().filter_map(|o| o.job).collect();
    replay_store(&t, &mut r, &inputs, &submitted, &work.join("store-replay"))?;

    let texts: Vec<String> = fresh
        .iter()
        .filter_map(|o| o.job)
        .map(|j| inputs.text(&j).to_string())
        .collect();
    replay_circuit_layers(&t, &mut r, &inputs.netlists, &texts);
    r.set("circuit.build_s", t.total("circuit.build"));
    r.set("core.session_new_s", t.total("core.job.new"));
    stats.fill(&mut r, t.total("core.job.run"), 0.0);
    r.set(
        "trace.overhead_s",
        interquartile_mean(&summary.fresh_rtt).unwrap_or(0.0)
            - interquartile_mean(&baseline.fresh_rtt).unwrap_or(0.0),
    );
    finish_traced(&mut r, &t, (outcomes.len() + traced.len()) as u64, failed);
    Ok(r)
}
