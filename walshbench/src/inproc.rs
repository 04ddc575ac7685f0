//! The in-process workloads: `table1` and `beyond-order`.
//!
//! Both check through [`Session`], one worker thread. The untraced run
//! measures the end-to-end metrics, timing each check by each of its parts
//! across its runs ([`crate::timing`]); the traced run measures one
//! untraced pass (the tracing-overhead baseline), one traced pass whose
//! spans and program-reported counters give the per-layer metrics, and
//! replays the layer calls the program makes internally (`unfold` in
//! `Session::new`, `extract_sites` at the start of `Session::run`,
//! `parse_ilang` on a submitted text).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use walshcheck_circuit::ilang::{parse_ilang, write_ilang};
use walshcheck_circuit::netlist::Netlist;
use walshcheck_circuit::unfold;
use walshcheck_core::json::Json;
use walshcheck_core::observe::{EnginePhase, ProgressEvent};
use walshcheck_core::sites::{extract_sites, SiteOptions};
use walshcheck_core::{
    ChannelObserver, CheckStats, EngineKind, ProgressObserver, Session, Verdict, VerifyOptions,
};

use crate::cells::{Cell, BEYOND, BEYOND_SMOKE, TABLE1, TABLE1_SMOKE};
use crate::record::RunResult;
use crate::stats::{interquartile_mean, median, percentile};
use crate::timing::{fastest, typical, Probe, RunTimes};
use crate::trace::Tracer;
use crate::{expected, Args};

/// Set-ups at the start of an in-process run. The untraced run adds
/// [`SETUP_POINTS`] more, spread over its checks (`table1`) or between its
/// passes (`beyond-order`), so the set-up median samples the whole run.
const SETUP_REPS: usize = 5;
const SETUP_POINTS: usize = 60;
/// Runs of each Table I gadget that checks in milliseconds.
const SMALL_REPS: usize = 40;
/// Runs of keccak-3 and dom-4, which take seconds each.
const BIG_REPS: usize = 2;
const MIB: f64 = 1024.0 * 1024.0;
/// Room for the batches of one `table1` run (keccak-3 has ~3,400).
const TABLE1_BATCHES: usize = 4096;
/// Rough wall time of one beyond-order pass with the observer.
const BEYOND_PASS_SECONDS: f64 = 7.5;

/// Restarts this process's high-water RSS count from its current RSS
/// (Linux `clear_refs` value 5); without it the peak only grows.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A `/proc/<pid>/status` memory field (`VmHWM`, `VmRSS`) of process
/// `pid` (or this process), in MiB.
fn status_mb(pid: Option<u32>, field: &str) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no {field}"))
}

/// High-water resident set of process `pid` (or this process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    status_mb(pid, "VmHWM")
}

/// Runs `f` while another thread samples this process's resident set
/// every 5 ms; returns `f`'s result and the median sample.
fn with_rss_samples<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mb) = status_mb(None, "VmRSS") {
                    samples.push(mb);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            samples
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().expect("RSS sampler panicked");
        (out, median(&samples))
    })
}

/// Sums of the counters the program returns in `Verdict.stats`.
#[derive(Debug, Default, Clone)]
pub struct StatsSum {
    pub runs: u64,
    pub combinations: u64,
    pub pruned: u64,
    pub convolutions: u64,
    pub rows_checked: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_peak_bytes: u64,
    pub dd_hits: u64,
    pub dd_misses: u64,
    pub dd_peak_bytes: u64,
    pub convolution_s: f64,
    pub verification_s: f64,
    pub total_s: f64,
}

impl StatsSum {
    pub fn add(&mut self, s: &CheckStats) {
        self.runs += 1;
        self.combinations += s.combinations;
        self.pruned += s.pruned;
        self.convolutions += s.convolutions;
        self.rows_checked += s.rows_checked;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.cache_evictions += s.cache_evictions;
        self.cache_peak_bytes = self.cache_peak_bytes.max(s.cache_peak_bytes);
        self.dd_hits += s.dd_cache_hits;
        self.dd_misses += s.dd_cache_misses;
        self.dd_peak_bytes = self.dd_peak_bytes.max(s.dd_cache_peak_bytes);
        self.convolution_s += s.convolution_time.as_secs_f64();
        self.verification_s += s.verification_time.as_secs_f64();
        self.total_s += s.total_time.as_secs_f64();
    }

    /// Fills the core and dd per-layer metrics; `run_s` is the spanned
    /// `Session::run` time the counters belong to, `observe_s` the part of
    /// it attributed to the observer.
    pub fn fill(&self, r: &mut RunResult, run_s: f64, observe_s: f64) {
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.set("core.run_s", run_s);
        r.set("core.spectrum.convolution_s", self.convolution_s);
        r.set("core.spectrum.convolutions", self.convolutions as f64);
        r.set("core.engine.verification_s", self.verification_s);
        r.set("core.engine.rows_checked", self.rows_checked as f64);
        r.set(
            "core.pcache.hit_frac",
            frac(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        r.set("core.pcache.evictions", self.cache_evictions as f64);
        r.set("core.pcache.peak_mb", self.cache_peak_bytes as f64 / MIB);
        r.set("core.scheduler.combinations", self.combinations as f64);
        r.set(
            "core.scheduler.pruned_frac",
            frac(self.pruned, self.combinations),
        );
        r.set(
            "core.scheduler.other_s",
            run_s - self.convolution_s - self.verification_s - observe_s,
        );
        r.set(
            "dd.memo_hit_frac",
            frac(self.dd_hits, self.dd_hits + self.dd_misses),
        );
        r.set("dd.memo_misses", self.dd_misses as f64);
        r.set("dd.memo_peak_mb", self.dd_peak_bytes as f64 / MIB);
        for (k, v) in [
            ("stats.runs", self.runs as f64),
            ("stats.combinations", self.combinations as f64),
            ("stats.pruned", self.pruned as f64),
            ("stats.convolutions", self.convolutions as f64),
            ("stats.rows_checked", self.rows_checked as f64),
            ("stats.cache_hits", self.cache_hits as f64),
            ("stats.cache_misses", self.cache_misses as f64),
            ("stats.cache_evictions", self.cache_evictions as f64),
            ("stats.cache_peak_bytes", self.cache_peak_bytes as f64),
            ("stats.dd_cache_hits", self.dd_hits as f64),
            ("stats.dd_cache_misses", self.dd_misses as f64),
            ("stats.dd_cache_peak_bytes", self.dd_peak_bytes as f64),
            ("stats.convolution_s", self.convolution_s),
            ("stats.verification_s", self.verification_s),
            ("stats.total_s", self.total_s),
        ] {
            r.program_reported.insert(k.into(), v);
        }
    }
}

/// Replays `unfold` and `extract_sites` on each netlist and `parse_ilang`
/// on each text, each call in its own span.
pub fn replay_circuit_layers(
    t: &Tracer,
    r: &mut RunResult,
    netlists: &[Netlist],
    texts: &[String],
) {
    let mut sites = 0usize;
    for n in netlists {
        let unfolded = t
            .span("circuit.unfold", None, |_| unfold(n))
            .expect("workload netlists unfold");
        sites += t
            .span("core.sites.extract", None, |_| {
                extract_sites(n, &unfolded, &SiteOptions::default())
            })
            .expect("workload netlists have sites")
            .len();
    }
    for text in texts {
        t.span("circuit.ilang_parse", None, |_| parse_ilang(text))
            .expect("workload texts parse");
    }
    r.set("circuit.unfold_s", t.total("circuit.unfold"));
    r.set("core.sites.extract_s", t.total("core.sites.extract"));
    r.set("core.sites.count", sites as f64);
    r.set("circuit.ilang_parse_s", t.total("circuit.ilang_parse"));
}

/// The kept netlists and sessions, and each set-up repetition's seconds.
type SetUp = (Vec<Netlist>, Vec<Session>, Vec<f64>);

/// Builds the netlists and sessions of `cells` `reps` times (the last set
/// is kept); returns the sessions and each repetition's set-up seconds.
fn set_up(
    t: &Tracer,
    cells: &[Cell],
    options: &VerifyOptions,
    reps: usize,
) -> Result<SetUp, String> {
    let mut samples = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let start = Instant::now();
        let netlists: Vec<Netlist> = cells
            .iter()
            .map(|c| t.span("circuit.build", None, |_| c.netlist()))
            .collect();
        let sessions = netlists
            .iter()
            .zip(cells)
            .map(|(n, c)| {
                t.span("core.session.new", None, |_| Session::new(n))
                    .map(|s| s.property(c.property()).options(options.clone()).threads(1))
            })
            .collect::<Result<Vec<Session>, _>>()
            .map_err(|e| format!("session set-up: {e}"))?;
        samples.push(start.elapsed().as_secs_f64());
        kept = Some((netlists, sessions));
    }
    let (netlists, sessions) = kept.ok_or("no set-up repetition ran")?;
    Ok((netlists, sessions, samples))
}

/// The times of each run of each check, plus the counters of the first
/// (fresh) run of each.
struct Checks {
    runs: Vec<Vec<RunTimes>>,
    /// How a check's runs make its time: [`fastest`] or [`typical`].
    combine: fn(&[RunTimes]) -> Option<f64>,
    first_stats: StatsSum,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn new(checks: usize, combine: fn(&[RunTimes]) -> Option<f64>) -> Self {
        Checks {
            runs: vec![Vec::new(); checks],
            combine,
            first_stats: StatsSum::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs the checks in `order` (indices into `cells`, repeats allowed).
    /// `probe`, when the sessions report to it, times each run's batches.
    fn run(
        &mut self,
        t: &Tracer,
        cells: &[Cell],
        sessions: &mut [Session],
        order: &[usize],
        probe: Option<&Probe>,
    ) {
        for &i in order {
            let start = Instant::now();
            let v = t.span("core.session.run", None, |_| sessions[i].run());
            self.runs[i].push(RunTimes {
                wall: start.elapsed().as_secs_f64(),
                batches: probe.map(Probe::take_batches).unwrap_or_default(),
            });
            self.attempted += 1;
            if !expected::verdict_ok(&cells[i], &v) {
                self.failed += 1;
            }
            if self.runs[i].len() == 1 {
                self.first_stats.add(&v.stats);
            }
        }
    }

    /// Each check's time, from each of its parts across its runs (see
    /// [`crate::timing`]).
    fn latencies(&self) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|runs| (self.combine)(runs))
            .collect()
    }

    /// Sum over the workload's checks of each check's time.
    fn check_s(&self) -> f64 {
        self.latencies().iter().sum()
    }

    /// Fills the end-to-end metrics. A request is one check: the latency
    /// statistics are taken over the workload's checks, each timed as in
    /// [`Checks::latencies`]; a repeated request is a check's runs after
    /// its first, on a session that already ran (the library keeps no
    /// result cache, so it is a warm recompute).
    fn fill_end_to_end(&self, r: &mut RunResult, setup: &[f64], rss_mb: f64) -> Result<(), String> {
        let latencies = self.latencies();
        let check_s: f64 = latencies.iter().sum();
        let repeated: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|runs| (self.combine)(runs.get(1..)?))
            .collect();
        r.set("setup_s", median(setup).ok_or("no set-up sample")?);
        r.set("check_s", check_s);
        r.set("peak_rss_mb", rss_mb);
        r.set(
            "ok_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        r.set(
            "rtt_s_iqm",
            interquartile_mean(&latencies).ok_or("no check")?,
        );
        r.set("rtt_s_p95", percentile(&latencies, 95.0).ok_or("no check")?);
        r.set(
            "hit_rtt_s_p50",
            median(&repeated).ok_or("no repeated check")?,
        );
        r.set("jobs_per_s", latencies.len() as f64 / check_s);
        Ok(())
    }
}

/// Runs the checks in `order` once each, untimed by batch.
fn run_once(t: &Tracer, cells: &[Cell], sessions: &mut [Session], order: &[usize]) -> Checks {
    let mut out = Checks::new(cells.len(), fastest);
    out.run(t, cells, sessions, order, None);
    out
}

/// The untraced `table1` order: the big gadgets (`small..total`) `big_reps`
/// times each, and the small gadgets `reps` times each, round-robin, in
/// blocks before, between and after the big runs — so every check's runs
/// are spread over the whole run rather than one moment of it.
fn table1_order(small: usize, total: usize, reps: usize, big_reps: usize) -> Vec<usize> {
    let big: Vec<usize> = (0..big_reps).flat_map(|_| small..total).collect();
    let blocks = big.len() + 1;
    let mut order = Vec::new();
    for block in 0..blocks {
        let rounds = reps * (block + 1) / blocks - reps * block / blocks;
        for _ in 0..rounds {
            order.extend(0..small);
        }
        order.extend(big.get(block));
    }
    order
}

fn table1_cells(args: &Args) -> &'static [Cell] {
    if args.smoke {
        &TABLE1[..TABLE1_SMOKE]
    } else {
        &TABLE1
    }
}

pub fn table1(args: &Args) -> Result<RunResult, String> {
    let cells = table1_cells(args);
    let options = VerifyOptions::paper(EngineKind::Mapi);
    let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
    let small_reps = if args.smoke { 2 } else { SMALL_REPS };
    let mut r = RunResult::default();
    let off = Tracer::new(false, String::new());
    let (_, mut sessions, mut setup) = set_up(&off, cells, &options, setup_reps)?;
    let once: Vec<usize> = (0..cells.len()).collect();
    if !args.trace {
        // An observer that only times batches: two callbacks per batch of
        // up to ~1000 combinations.
        let probe = Arc::new(Probe::new(None).timing(TABLE1_BATCHES));
        let mut sessions: Vec<Session> = sessions
            .into_iter()
            .map(|s| s.observer(Arc::clone(&probe) as Arc<dyn ProgressObserver>))
            .collect();
        let small = TABLE1_SMOKE.min(cells.len());
        let order = table1_order(small, cells.len(), small_reps, BIG_REPS);
        let mut checks = Checks::new(cells.len(), fastest);
        for part in order.chunks(order.len().div_ceil(SETUP_POINTS)) {
            checks.run(&off, cells, &mut sessions, part, Some(&probe));
            setup.extend(set_up(&off, cells, &options, 1)?.2);
        }
        checks.fill_end_to_end(&mut r, &setup, peak_rss_mb(None)?)?;
        r.attempted = checks.attempted;
        r.failed = checks.failed;
        r.correct = checks.failed == 0;
        r.program_reported
            .insert("stats.total_s".into(), checks.first_stats.total_s);
        return Ok(r);
    }
    // Traced: an untraced pass for the baseline, then the traced pass.
    let baseline = run_once(&off, cells, &mut sessions, &once);
    drop(sessions);
    let t = Arc::new(Tracer::new(true, run_id(args)));
    let (netlists, mut sessions, _) = set_up(&t, cells, &options, setup_reps)?;
    let traced = run_once(&t, cells, &mut sessions, &once);
    let texts: Vec<String> = netlists.iter().map(write_ilang).collect();
    replay_circuit_layers(&t, &mut r, &netlists, &texts);
    r.set(
        "circuit.build_s",
        t.total("circuit.build") / setup_reps as f64,
    );
    r.set(
        "core.session_new_s",
        t.total("core.session.new") / setup_reps as f64,
    );
    let run_spans = t.durations("core.session.run");
    traced.first_stats.fill(&mut r, run_spans.iter().sum(), 0.0);
    for (cell, d) in cells.iter().zip(&run_spans) {
        r.set(&format!("table1.{}.check_s", cell.gadget), *d);
    }
    r.set("trace.overhead_s", traced.check_s() - baseline.check_s());
    r.details
        .push(("attribution", attribution(&r, baseline.check_s())));
    finish_traced(
        &mut r,
        &t,
        baseline.attempted + traced.attempted,
        baseline.failed + traced.failed,
    );
    Ok(r)
}

/// How the traced `core.run_s` splits into convolution, verification,
/// observer overhead and the scheduler residual, next to the untraced
/// measurement it should match to within `trace.overhead_s`.
fn attribution(r: &RunResult, untraced_check_s: f64) -> Json {
    let get = |k: &str| r.metrics.get(k).copied().unwrap_or(0.0);
    let run = get("core.run_s");
    let share = |k: &str| Json::Float(if run > 0.0 { get(k) / run } else { 0.0 });
    Json::obj([
        ("core_run_s", Json::Float(run)),
        ("untraced_check_s", Json::Float(untraced_check_s)),
        ("trace_overhead_s", Json::Float(get("trace.overhead_s"))),
        ("convolution_share", share("core.spectrum.convolution_s")),
        ("verification_share", share("core.engine.verification_s")),
        ("observer_share", share("core.observe.overhead_s")),
        ("scheduler_other_share", share("core.scheduler.other_s")),
    ])
}

pub fn run_id(args: &Args) -> String {
    format!("{}-{}-{}", args.workload, args.seed, std::process::id())
}

pub fn finish_traced(r: &mut RunResult, t: &Arc<Tracer>, attempted: u64, failed: u64) {
    r.set("trace.spans", t.spans().len() as f64);
    r.attempted = attempted;
    r.failed = failed;
    r.correct = failed == 0;
    r.tracer = Some(Arc::clone(t));
}

/// Stands in for the observer between passes, so the previous pass's
/// channel closes and its aggregator drains out.
struct NoObserver;
impl ProgressObserver for NoObserver {}

/// Drains the observer channel on its own thread, as `walshcheck check
/// --json` does, keeping the phase timings.
fn aggregate(rx: Receiver<ProgressEvent>) -> Vec<(EnginePhase, Duration)> {
    rx.into_iter()
        .filter_map(|e| match e {
            ProgressEvent::PhaseTiming { phase, elapsed } => Some((phase, elapsed)),
            _ => None,
        })
        .collect()
}

enum Observe {
    None,
    /// As `check --json`.
    Channel,
    /// As `check --json`, with every callback counted.
    Counting,
}

struct Pass {
    times: RunTimes,
    verdict: Verdict,
    phases: Vec<(EnginePhase, Duration)>,
    events: u64,
}

fn pass(t: &Tracer, session: Session, observe: Observe) -> (Session, Pass) {
    let (mut session, probe, aggregator) = match observe {
        Observe::None => (session, None, None),
        Observe::Channel | Observe::Counting => {
            let (obs, rx) = ChannelObserver::new();
            let aggregator = Some(std::thread::spawn(move || aggregate(rx)));
            match observe {
                Observe::Counting => {
                    let probe = Arc::new(Probe::new(Some(obs)).counting());
                    let as_observer: Arc<dyn ProgressObserver> = probe.clone();
                    (session.observer(as_observer), Some(probe), aggregator)
                }
                _ => (session.observer(Arc::new(obs)), None, aggregator),
            }
        }
    };
    let start = Instant::now();
    let verdict = t.span("core.session.run", None, |_| session.run());
    let wall = start.elapsed().as_secs_f64();
    session = session.observer(Arc::new(NoObserver));
    // The probe owns the channel's sender: drop it before joining the
    // aggregator, which drains until every sender is gone.
    let events = probe.map_or(0, |p| p.events());
    let phases = aggregator
        .map(|h| h.join().expect("event aggregator panicked"))
        .unwrap_or_default();
    (
        session,
        Pass {
            times: RunTimes {
                wall,
                batches: Vec::new(),
            },
            verdict,
            phases,
            events,
        },
    )
}

pub fn beyond_order(args: &Args) -> Result<RunResult, String> {
    let cell = if args.smoke { BEYOND_SMOKE } else { BEYOND };
    // `walshcheck check` defaults: MAPI, joint mode, prefilter, one thread.
    let options = VerifyOptions::default();
    let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut r = RunResult::default();
    let off = Tracer::new(false, String::new());
    let (_, mut sessions, mut setup) = set_up(&off, &[cell], &options, setup_reps)?;
    let mut session = sessions.pop().ok_or("no session")?;
    let mut attempted = 0;
    let mut failed = 0;
    let mut check = |p: &Pass| {
        attempted += 1;
        if !expected::verdict_ok(&cell, &p.verdict) {
            failed += 1;
        }
    };
    if !args.trace {
        // A fixed number of whole passes for a given run length, at least
        // two so the repeated check has a sample. The check is timed by its
        // median pass, neither batch by batch nor by its fastest pass: with
        // the aggregator thread draining the channel on the other core, a
        // batch's time also depends on how the two threads meet, and a
        // batch-timing wrapper around the observer shifts how they meet and
        // with it the channel backlog, which is most of the resident set.
        let passes = ((args.seconds / BEYOND_PASS_SECONDS).ceil() as usize).max(2);
        let mut runs = Vec::new();
        let mut peaks = Vec::new();
        let mut phases = Vec::new();
        let mut rss_samples = Vec::new();
        for _ in 0..passes {
            // The observer channel is unbounded: its backlog, and so the
            // high-water mark, jumps whenever the aggregator thread is
            // descheduled, by up to 3x between runs. The run therefore
            // reports the median resident set sampled during the passes,
            // and keeps each pass's own high-water mark in the record.
            reset_peak_rss();
            let ((s, p), rss) = with_rss_samples(|| pass(&off, session, Observe::Channel));
            peaks.push(peak_rss_mb(None)?);
            rss_samples.push(rss.ok_or("no RSS sample")?);
            session = s;
            check(&p);
            runs.push(p.times);
            setup.extend(set_up(&off, &[cell], &options, SETUP_POINTS / passes)?.2);
            phases = p.phases;
        }
        let mut checks = Checks::new(1, typical);
        checks.runs = vec![runs];
        checks.attempted = attempted;
        checks.failed = failed;
        let rss = median(&rss_samples).ok_or("no pass")?;
        checks.fill_end_to_end(&mut r, &setup, rss)?;
        r.details.push((
            "pass_peak_rss_mb",
            Json::Arr(peaks.into_iter().map(Json::Float).collect()),
        ));
        r.details.push((
            "pass_wall_s",
            Json::Arr(checks.runs[0].iter().map(|t| Json::Float(t.wall)).collect()),
        ));
        for (phase, d) in phases {
            r.program_reported
                .insert(format!("phase.{phase}_s"), d.as_secs_f64());
        }
        r.attempted = attempted;
        r.failed = failed;
        r.correct = failed == 0;
        return Ok(r);
    }
    let (s, baseline) = pass(&off, session, Observe::Channel);
    check(&baseline);
    drop(s);
    let t = Arc::new(Tracer::new(true, run_id(args)));
    let (netlists, mut sessions, _) = set_up(&t, &[cell], &options, setup_reps)?;
    let session = sessions.pop().ok_or("no session")?;
    let (session, observed) = pass(&t, session, Observe::Counting);
    check(&observed);
    let (_, bare) = pass(&t, session, Observe::None);
    check(&bare);
    let texts: Vec<String> = netlists.iter().map(write_ilang).collect();
    replay_circuit_layers(&t, &mut r, &netlists, &texts);
    r.set(
        "circuit.build_s",
        t.total("circuit.build") / setup_reps as f64,
    );
    r.set(
        "core.session_new_s",
        t.total("core.session.new") / setup_reps as f64,
    );
    let (observed_s, bare_s) = (observed.times.wall, bare.times.wall);
    let overhead = observed_s - bare_s;
    let mut stats = StatsSum::default();
    stats.add(&observed.verdict.stats);
    stats.fill(&mut r, observed_s, overhead);
    r.set("core.observe.events", observed.events as f64);
    r.set("core.observe.overhead_s", overhead);
    r.set("trace.overhead_s", observed_s - baseline.times.wall);
    for (phase, d) in &observed.phases {
        r.program_reported
            .insert(format!("phase.{phase}_s"), d.as_secs_f64());
    }
    r.program_reported
        .insert("unobserved.check_s".into(), bare_s);
    r.details
        .push(("attribution", attribution(&r, baseline.times.wall)));
    finish_traced(&mut r, &t, attempted, failed);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_order_spreads_small_repeats_around_the_big_checks() {
        let order = table1_order(8, 10, 30, 2);
        for i in 0..8 {
            assert_eq!(order.iter().filter(|&&j| j == i).count(), 30);
        }
        let big: Vec<usize> = (0..order.len()).filter(|&p| order[p] >= 8).collect();
        assert_eq!(
            big.iter().map(|&p| order[p]).collect::<Vec<_>>(),
            [8, 9, 8, 9]
        );
        // A fifth of the small repeats before, between and after.
        assert_eq!(big, [48, 97, 146, 195]);
        assert_eq!(order.len(), 244);
        assert_eq!(table1_order(8, 8, 2, 2), [0, 1, 2, 3, 4, 5, 6, 7].repeat(2));
    }
}
