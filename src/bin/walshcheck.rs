//! `walshcheck` — command-line exact verifier for masked circuits.
//!
//! ```text
//! walshcheck check   <file.il | bench:NAME> [options]
//! walshcheck profile <file.il | bench:NAME> [--max-order D] [--glitch]
//! walshcheck info    <file.il | bench:NAME>
//! walshcheck dump  bench:NAME              # print the gadget as ILANG
//! walshcheck list                          # list built-in benchmarks
//!
//! walshcheck serve  --store DIR [--listen ADDR] [--checkpoint-every SECS]
//!                   [--runners N] [--max-retries N] [--retry-base-ms MS]
//!                   [--max-connections N] [--fsync-events always|interval|never]
//! walshcheck submit <file.il | bench:NAME> (--addr A | --store D)
//!                   [--job-timeout SECS] [options]
//! walshcheck status [ID] (--addr A | --store D)
//! walshcheck fetch  ID   (--addr A | --store D) [--wait]
//!
//! daemon-facing commands also accept `--timeout SECS` (client read/write
//! timeout, default 60).
//!
//! options:
//!   --property probing|ni|sni|pini   (default: sni)
//!   --order D                        (default: shares of secret 0 minus 1)
//!   --engine lil|map|mapi|fujita     (default: mapi)
//!   --mode rowwise|joint             (default: joint)
//!   --glitch                         glitch-extended (robust) probing model
//!   --threads N                      parallel verification (work-stealing)
//!   --time-limit SECS                abort with a partial verdict
//!   --no-prefilter                   disable the functional-support prefilter
//!   --cache-budget BYTES             per-worker prefix-cache budget (default
//!                                    64 MiB; 0 disables prefix caching); also
//!                                    bounds the engine's spectral memo
//!   --node-budget NODES              per-combination decision-diagram cap;
//!                                    over-budget combinations are quarantined
//!   --dense-cut N                    spectral functions with support ≤ N take
//!                                    a flat array-butterfly WHT instead of
//!                                    the node-wise recursion (default 12; 0
//!                                    disables the dense fallback). A pure
//!                                    speed knob: reports are byte-identical
//!                                    at any cut
//!   --rescue                         re-verify quarantined combinations after
//!                                    the sweep through an escalation ladder
//!                                    (doubled budgets, BDD sifting, engine
//!                                    fallback); upgrades Inconclusive verdicts
//!                                    when every quarantine resolves
//!   --no-rescue                      disable the rescue pass (the default)
//!   --rescue-attempts N              budget-doubling attempts on the first
//!                                    rescue rung (default 3)
//!   --rescue-budget BYTES            cap on any single rescue attempt's node
//!                                    budget (default 256 MiB)
//!   --checkpoint FILE                periodically persist run progress
//!   --checkpoint-every SECS          min seconds between writes (default 30;
//!                                    0 writes after every batch)
//!   --resume FILE                    resume from a checkpoint
//!   --minimize                       shrink the witness to a minimal one
//!   --progress                       live progress ticker on stderr
//!   --json                           machine-readable run report on stdout
//! ```
//!
//! Exit codes: `0` proved secure (full sweep), `1` violated, `2`
//! inconclusive (timeout / budget quarantines / lost workers), `3` usage or
//! I/O errors, `4` interrupted by SIGINT/SIGTERM (the run drained at a
//! batch boundary and flushed its checkpoint; rerun with `--resume` to
//! continue byte-identically).

use std::process::ExitCode;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use walshcheck::daemon::{Client, Daemon, DaemonConfig};
use walshcheck::prelude::*;
use walshcheck_core::{run_report_json, Error};

/// Exit code for proved-secure full sweeps.
const EXIT_SECURE: u8 = 0;
/// Exit code for violated properties (a witness exists).
const EXIT_VIOLATED: u8 = 1;
/// Exit code for inconclusive runs: timed out, combinations quarantined by
/// the node budget, or workers lost. *Not* a proof either way.
const EXIT_INCONCLUSIVE: u8 = 2;
/// Exit code for usage and I/O errors.
const EXIT_ERROR: u8 = 3;
/// Exit code for runs cut short by SIGINT/SIGTERM: the sweep drained at a
/// batch boundary and the final checkpoint (if configured) was flushed, so
/// `--resume` continues exactly where the signal landed.
const EXIT_INTERRUPTED: u8 = 4;

/// Hand-rolled signal handling (no new dependencies): a `sigaction` FFI
/// binding installs a handler for SIGINT and SIGTERM that only flips the
/// async-signal-safe shutdown flag in `walshcheck::core::shutdown`. The
/// scheduler polls the flag at batch boundaries, drains in-flight batches,
/// flushes the checkpoint, and the verdict comes back
/// `Inconclusive(Interrupted)`.
#[cfg(unix)]
mod signals {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// Restart interrupted syscalls so in-flight checkpoint writes finish.
    const SA_RESTART: i32 = 0x1000_0000;

    /// Layout shared by glibc and musl on the 64-bit platforms we build
    /// for: handler pointer, 1024-bit signal mask, flags, restorer.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, oldact: *mut SigAction) -> i32;
    }

    extern "C" fn handle(_signum: i32) {
        // A relaxed atomic store: the only async-signal-safe thing we do.
        walshcheck::core::shutdown::request();
    }

    /// Installs the graceful-shutdown handler for SIGINT and SIGTERM.
    /// Best-effort: a failed installation leaves the default disposition
    /// (immediate termination), never breaks the run itself.
    pub fn install() {
        let action = SigAction {
            handler: handle as *const () as usize,
            mask: [0; 16],
            flags: SA_RESTART,
            restorer: 0,
        };
        unsafe {
            let _ = sigaction(SIGINT, &action, std::ptr::null_mut());
            let _ = sigaction(SIGTERM, &action, std::ptr::null_mut());
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: walshcheck <check|info|dump|list|serve|submit|status|fetch> \
         [<file.il>|bench:NAME] [options]\n\
         run `walshcheck help` for the option list"
    );
    ExitCode::from(EXIT_ERROR)
}

fn load(target: &str) -> Result<Netlist, Error> {
    if let Some(name) = target.strip_prefix("bench:") {
        return Benchmark::from_name(name)
            .map(|b| b.netlist())
            .ok_or_else(|| {
                Error::Config(format!(
                    "unknown benchmark `{name}` (try `walshcheck list`)"
                ))
            });
    }
    let text =
        std::fs::read_to_string(target).map_err(|e| Error::Config(format!("{target}: {e}")))?;
    Ok(parse_ilang(&text)?)
}

struct Cli {
    property: String,
    order: Option<u32>,
    engine: EngineKind,
    mode: CheckMode,
    glitch: bool,
    threads: usize,
    time_limit: Option<std::time::Duration>,
    prefilter: bool,
    cache_budget: Option<usize>,
    node_budget: Option<usize>,
    dense_cut: Option<u32>,
    rescue: bool,
    rescue_attempts: Option<u32>,
    rescue_budget: Option<usize>,
    checkpoint: Option<String>,
    checkpoint_every: Duration,
    resume: Option<String>,
    minimize: bool,
    progress: bool,
    json: bool,
}

fn parse_options(args: &[String]) -> Result<Cli, Error> {
    let mut cli = Cli {
        property: "sni".into(),
        order: None,
        engine: EngineKind::Mapi,
        mode: CheckMode::Joint,
        glitch: false,
        threads: 1,
        time_limit: None,
        prefilter: true,
        cache_budget: None,
        node_budget: None,
        dense_cut: None,
        rescue: false,
        rescue_attempts: None,
        rescue_budget: None,
        checkpoint: None,
        checkpoint_every: Duration::from_secs(30),
        resume: None,
        minimize: false,
        progress: false,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Error::Config(format!("{name} needs a value")))
        };
        let bad = |name: &str| Error::Config(format!("bad {name}"));
        match arg.as_str() {
            "--property" => cli.property = value("--property")?.to_lowercase(),
            "--order" => cli.order = Some(value("--order")?.parse().map_err(|_| bad("--order"))?),
            "--engine" => {
                cli.engine = match value("--engine")?.to_lowercase().as_str() {
                    "lil" => EngineKind::Lil,
                    "map" => EngineKind::Map,
                    "mapi" => EngineKind::Mapi,
                    "fujita" => EngineKind::Fujita,
                    other => return Err(Error::Config(format!("unknown engine `{other}`"))),
                }
            }
            "--mode" => {
                cli.mode = match value("--mode")?.to_lowercase().as_str() {
                    "rowwise" | "row-wise" => CheckMode::RowWise,
                    "joint" => CheckMode::Joint,
                    other => return Err(Error::Config(format!("unknown mode `{other}`"))),
                }
            }
            "--glitch" => cli.glitch = true,
            "--threads" => {
                cli.threads = value("--threads")?.parse().map_err(|_| bad("--threads"))?
            }
            "--time-limit" => {
                let secs: u64 = value("--time-limit")?
                    .parse()
                    .map_err(|_| bad("--time-limit"))?;
                cli.time_limit = Some(std::time::Duration::from_secs(secs));
            }
            "--no-prefilter" => cli.prefilter = false,
            "--cache-budget" => {
                cli.cache_budget = Some(
                    value("--cache-budget")?
                        .parse()
                        .map_err(|_| bad("--cache-budget"))?,
                )
            }
            "--node-budget" => {
                cli.node_budget = Some(
                    value("--node-budget")?
                        .parse()
                        .map_err(|_| bad("--node-budget"))?,
                )
            }
            "--dense-cut" => {
                cli.dense_cut = Some(
                    value("--dense-cut")?
                        .parse()
                        .map_err(|_| bad("--dense-cut"))?,
                )
            }
            "--rescue" => cli.rescue = true,
            "--no-rescue" => cli.rescue = false,
            "--rescue-attempts" => {
                cli.rescue_attempts = Some(
                    value("--rescue-attempts")?
                        .parse()
                        .map_err(|_| bad("--rescue-attempts"))?,
                )
            }
            "--rescue-budget" => {
                cli.rescue_budget = Some(
                    value("--rescue-budget")?
                        .parse()
                        .map_err(|_| bad("--rescue-budget"))?,
                )
            }
            "--checkpoint" => cli.checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-every" => {
                let secs: u64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| bad("--checkpoint-every"))?;
                cli.checkpoint_every = Duration::from_secs(secs);
            }
            "--resume" => cli.resume = Some(value("--resume")?),
            "--minimize" => cli.minimize = true,
            "--progress" => cli.progress = true,
            "--json" => cli.json = true,
            other => return Err(Error::Config(format!("unknown option `{other}`"))),
        }
    }
    Ok(cli)
}

/// Drains the observer channel; with `ticker`, renders a live progress line
/// on stderr. Returns the collected engine-phase timings for the JSON
/// report.
fn aggregate_events(rx: Receiver<ProgressEvent>, ticker: bool) -> Vec<(String, Duration)> {
    let mut phases = Vec::new();
    let mut total: u64 = 0;
    let mut checked: u64 = 0;
    let mut pruned: u64 = 0;
    let mut violations: u64 = 0;
    let mut last_tick = Instant::now();
    let mut ticked = false;
    for event in rx {
        match event {
            ProgressEvent::RunStarted {
                sites, total: t, ..
            } => {
                total = t;
                if ticker {
                    eprintln!("progress: {sites} sites, {t} combinations to check");
                }
            }
            ProgressEvent::BatchFinished {
                checked: c,
                pruned: p,
                ..
            } => {
                checked += c;
                pruned += p;
                if ticker && last_tick.elapsed() >= Duration::from_millis(100) {
                    eprint!("\rprogress: {checked}/{total} combinations, {pruned} pruned, {violations} violation(s)");
                    ticked = true;
                    last_tick = Instant::now();
                }
            }
            ProgressEvent::ViolationFound { index, .. } => {
                violations += 1;
                if ticker {
                    if ticked {
                        eprintln!();
                        ticked = false;
                    }
                    eprintln!("progress: violation at enumeration index {index}");
                }
            }
            ProgressEvent::CombinationQuarantined { index, reason, .. } if ticker => {
                if ticked {
                    eprintln!();
                    ticked = false;
                }
                eprintln!("progress: combination {index} quarantined ({reason})");
            }
            ProgressEvent::RescueStarted { quarantined } if ticker => {
                if ticked {
                    eprintln!();
                    ticked = false;
                }
                eprintln!("progress: rescuing {quarantined} quarantined combination(s)");
            }
            ProgressEvent::RescueAttempted { index, attempt } if ticker => {
                eprintln!(
                    "progress: rescue #{index}: {} rung ({}, budget {}) → {}",
                    attempt.rung,
                    attempt.engine,
                    attempt
                        .node_budget
                        .map_or_else(|| "none".into(), |n| n.to_string()),
                    attempt.outcome
                );
            }
            ProgressEvent::RescueResolved { index, resolution } if ticker => {
                eprintln!("progress: rescue #{index} resolved: {resolution}");
            }
            ProgressEvent::RescueFinished {
                attempted,
                resolved,
                unresolved,
            } if ticker => {
                eprintln!(
                    "progress: rescue pass done — {attempted} attempted, \
                     {resolved} resolved, {unresolved} unresolved"
                );
            }
            ProgressEvent::CheckpointWritten { path, combinations } if ticker => {
                if ticked {
                    eprintln!();
                    ticked = false;
                }
                eprintln!(
                    "progress: checkpoint written to {} ({combinations} combinations done)",
                    path.display()
                );
            }
            ProgressEvent::PhaseTiming { phase, elapsed } => {
                phases.push((phase.to_string(), elapsed));
            }
            ProgressEvent::RunFinished { stats } if ticker => {
                if ticked {
                    eprintln!();
                    ticked = false;
                }
                eprintln!(
                    "progress: done — {} combinations ({} pruned) in {:.3?}",
                    stats.combinations, stats.pruned, stats.total_time
                );
            }
            _ => {}
        }
    }
    if ticked {
        eprintln!();
    }
    phases
}

/// Builds the serializable [`JobSpec`] the CLI flags describe — shared by
/// `check` (fed into the [`Session`] builder) and `submit` (sent to the
/// daemon as the job's identity).
fn spec_from_cli(netlist: &Netlist, cli: &Cli) -> Result<JobSpec, Error> {
    let d = cli.order.unwrap_or_else(|| {
        let shares = netlist.shares_of(walshcheck::circuit::SecretId(0)).len() as u32;
        shares.saturating_sub(1).max(1)
    });
    let property = match cli.property.as_str() {
        "probing" => Property::Probing(d),
        "ni" => Property::Ni(d),
        "sni" => Property::Sni(d),
        "pini" => Property::Pini(d),
        other => return Err(Error::Config(format!("unknown property `{other}`"))),
    };
    let mut builder = VerifyOptions::builder()
        .engine(cli.engine)
        .mode(cli.mode)
        .prefilter(cli.prefilter);
    if let Some(bytes) = cli.cache_budget {
        builder = builder.cache_budget(bytes);
    }
    if let Some(limit) = cli.time_limit {
        builder = builder.time_limit(limit);
    }
    if cli.glitch {
        builder = builder.probe_model(ProbeModel::Glitch);
    }
    if let Some(nodes) = cli.node_budget {
        builder = builder.node_budget(nodes);
    }
    if let Some(cut) = cli.dense_cut {
        builder = builder.dense_cut(cut);
    }
    let mut spec = JobSpec::new(property);
    spec.options = builder.build();
    spec.threads = cli.threads.max(1);
    spec.rescue.enabled = cli.rescue;
    if let Some(attempts) = cli.rescue_attempts {
        spec.rescue.attempts = attempts;
    }
    if let Some(bytes) = cli.rescue_budget {
        spec.rescue.budget_bytes = bytes;
    }
    Ok(spec)
}

fn run_check(target: &str, args: &[String]) -> Result<ExitCode, Error> {
    let netlist = load(target)?;
    let cli = parse_options(args)?;
    let spec = spec_from_cli(&netlist, &cli)?;
    let property = spec.property;
    let options = spec.options.clone();

    let mut session = Session::new(&netlist)?
        .property(property)
        .options(options.clone())
        .threads(spec.threads)
        .rescue(spec.rescue.enabled)
        .rescue_attempts(spec.rescue.attempts)
        .rescue_budget(spec.rescue.budget_bytes);
    if let Some(path) = &cli.checkpoint {
        session = session.checkpoint_to(path, cli.checkpoint_every);
    }
    let resumed = cli.resume.is_some();
    if let Some(path) = &cli.resume {
        session = session.resume_from(path)?;
    }
    // The observer feeds both the --progress ticker and the phase timings
    // of the --json report.
    let aggregator = if cli.progress || cli.json {
        let (observer, rx) = ChannelObserver::new();
        session = session.observer(Arc::new(observer));
        let ticker = cli.progress;
        Some(std::thread::spawn(move || aggregate_events(rx, ticker)))
    } else {
        None
    };

    let mut verdict = session.run();
    if cli.minimize {
        if let Some(w) = verdict.witness.take() {
            verdict.witness = Some(
                session
                    .verifier_mut()
                    .minimize_witness(&w, property, &options),
            );
        }
    }
    let spec = session.spec().clone();
    // Dropping the session drops the channel sender, letting the
    // aggregator thread drain out and finish.
    drop(session);
    let phases = match aggregator {
        Some(handle) => handle.join().expect("progress aggregator panicked"),
        None => Vec::new(),
    };

    if cli.json {
        println!(
            "{}",
            run_report_json(&netlist, &verdict, &spec, &phases, resumed)
        );
    } else {
        println!("{}: {verdict}", netlist.name);
        if let Some(w) = &verdict.witness {
            let probes: Vec<&str> = w
                .combination
                .iter()
                .map(|p| netlist.wire_name(p.wire()))
                .collect();
            println!("  witness probes: {probes:?}");
            println!("  {}", w.reason);
            if let Some(c) = w.coefficient {
                println!("  leaking correlation coefficient: {c}");
            }
        }
        println!(
            "  {} combinations ({} pruned), {} rows, {:.3?} total \
             ({:.3?} convolution, {:.3?} verification){}",
            verdict.stats.combinations,
            verdict.stats.pruned,
            verdict.stats.rows_checked,
            verdict.stats.total_time,
            verdict.stats.convolution_time,
            verdict.stats.verification_time,
            if verdict.stats.timed_out {
                " — TIMED OUT, partial result"
            } else if verdict.stats.interrupted {
                " — INTERRUPTED, partial result (rerun with --resume)"
            } else {
                ""
            }
        );
        if let Some(r) = &verdict.recovery {
            println!(
                "  rescue pass: {} attempted, {} resolved, {} unresolved",
                r.attempted, r.resolved, r.unresolved
            );
            for c in r.combinations.iter().take(8) {
                println!(
                    "    #{} ({}) → {} after {} attempt(s)",
                    c.index,
                    c.reason,
                    c.resolution,
                    c.attempts.len()
                );
            }
            if r.combinations.len() > 8 {
                println!("    … and {} more", r.combinations.len() - 8);
            }
        }
        if !verdict.skipped.is_empty() {
            println!(
                "  {} combination(s) quarantined (not checked):",
                verdict.skipped.len()
            );
            for s in verdict.skipped.iter().take(8) {
                let probes: Vec<&str> = s
                    .combination
                    .iter()
                    .map(|p| netlist.wire_name(p.wire()))
                    .collect();
                println!("    #{} {probes:?} — {}", s.index, s.reason);
            }
            if verdict.skipped.len() > 8 {
                println!("    … and {} more", verdict.skipped.len() - 8);
            }
        }
        if verdict.stats.worker_failures > 0 {
            println!(
                "  {} worker(s) lost mid-run; their claimed work was not rechecked",
                verdict.stats.worker_failures
            );
        }
        if verdict.stats.cache_hits + verdict.stats.cache_misses > 0 {
            println!(
                "  prefix cache: {} hits, {} misses, {} evictions, {} peak bytes",
                verdict.stats.cache_hits,
                verdict.stats.cache_misses,
                verdict.stats.cache_evictions,
                verdict.stats.cache_peak_bytes
            );
        }
    }
    // The exit code mirrors the three-valued outcome: an inconclusive run
    // is *not* reported as secure, and scripts must treat 2 as "unknown"
    // and 4 as "interrupted, resumable".
    Ok(ExitCode::from(match verdict.outcome {
        Outcome::Secure => EXIT_SECURE,
        Outcome::Violated => EXIT_VIOLATED,
        Outcome::Inconclusive(IncompleteReason::Interrupted) => EXIT_INTERRUPTED,
        Outcome::Inconclusive(_) => EXIT_INCONCLUSIVE,
    }))
}

fn run_profile(target: &str, args: &[String]) -> Result<ExitCode, Error> {
    let netlist = load(target)?;
    let mut max_order: u32 = 0;
    let mut glitch = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-order" => {
                max_order = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| Error::Config("bad --max-order".into()))?
            }
            "--glitch" => glitch = true,
            other => return Err(Error::Config(format!("unknown option `{other}`"))),
        }
    }
    if max_order == 0 {
        let shares = netlist.shares_of(walshcheck::circuit::SecretId(0)).len() as u32;
        max_order = shares.saturating_sub(1).max(1);
    }
    let mut builder = VerifyOptions::builder();
    if glitch {
        builder = builder.probe_model(ProbeModel::Glitch);
    }
    let options = builder.build();
    // One session across the whole sweep: the unfolding is reused by every
    // (order, property) cell.
    let mut session = Session::new(&netlist)?.options(options);
    println!(
        "security profile of {}{}:",
        netlist.name,
        if glitch { " (glitch-extended)" } else { "" }
    );
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>7}",
        "order", "probing", "NI", "SNI", "PINI"
    );
    for d in 1..=max_order {
        let mut row = Vec::new();
        for property in [
            Property::Probing(d),
            Property::Ni(d),
            Property::Sni(d),
            Property::Pini(d),
        ] {
            session = session.property(property);
            let v = session.run();
            row.push(match v.outcome {
                Outcome::Secure => "yes",
                Outcome::Violated => "NO",
                Outcome::Inconclusive(_) => "?",
            });
        }
        println!(
            "{:>6} {:>9} {:>7} {:>7} {:>7}",
            d, row[0], row[1], row[2], row[3]
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn run_info(target: &str) -> Result<ExitCode, Error> {
    let n = load(target)?;
    let st = walshcheck::circuit::stats::stats(&n)?;
    println!("module {}", n.name);
    println!("  wires:   {}", n.num_wires());
    println!(
        "  cells:   {} ({} non-linear, {} xor, {} reg, {} buf/not; depth {})",
        n.num_cells(),
        st.nonlinear_gates,
        st.linear_gates,
        st.registers,
        st.unary_gates,
        st.depth
    );
    for (i, name) in n.secret_names.iter().enumerate() {
        let shares = n.shares_of(walshcheck::circuit::SecretId(i as u32)).len();
        println!("  secret `{name}`: {shares} shares");
    }
    println!("  randoms: {}", n.randoms().len());
    for (i, name) in n.output_names.iter().enumerate() {
        let shares = n
            .output_shares_of(walshcheck::circuit::OutputId(i as u32))
            .len();
        println!("  output `{name}`: {shares} shares");
    }
    Ok(ExitCode::SUCCESS)
}

/// Where the daemon-facing subcommands find `walshcheckd`: an explicit
/// `--addr`, or a `--store` whose `daemon.addr` file a running daemon wrote
/// at bind time.
struct DaemonTarget {
    addr: Option<String>,
    store: Option<String>,
    timeout: Option<u64>,
}

/// Pulls `--addr`/`--store`/`--timeout` out of `args`, returning the
/// remainder for the subcommand's own option parser.
fn split_daemon_target(args: &[String]) -> Result<(DaemonTarget, Vec<String>), Error> {
    let mut target = DaemonTarget {
        addr: None,
        store: None,
        timeout: None,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Error::Config(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => target.addr = Some(value("--addr")?),
            "--store" => target.store = Some(value("--store")?),
            "--timeout" => {
                target.timeout = Some(
                    value("--timeout")?
                        .parse()
                        .map_err(|_| Error::Config("bad --timeout".into()))?,
                )
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((target, rest))
}

fn daemon_client(target: &DaemonTarget) -> Result<Client, Error> {
    let addr = if let Some(addr) = &target.addr {
        addr.clone()
    } else if let Some(store) = &target.store {
        let path = std::path::Path::new(store).join("daemon.addr");
        std::fs::read_to_string(&path)
            .map_err(|e| {
                Error::Config(format!(
                    "{}: {e} (is a daemon serving this store?)",
                    path.display()
                ))
            })?
            .trim()
            .to_string()
    } else {
        return Err(Error::Config(
            "need --addr HOST:PORT or --store DIR to reach the daemon".into(),
        ));
    };
    // A few quick connect retries ride over a daemon that is mid-restart.
    let mut client = Client::new(addr).connect_retries(3, Duration::from_millis(100));
    if let Some(secs) = target.timeout {
        client = client.timeout(Duration::from_secs(secs));
    }
    Ok(client)
}

/// `walshcheck serve --store DIR [--listen ADDR] [--checkpoint-every SECS]
/// [--max-body BYTES] [--runners N] [--max-retries N] [--retry-base-ms MS]
/// [--max-connections N] [--fsync-events always|interval|never]` — runs
/// `walshcheckd` until SIGINT/SIGTERM, then
/// drains gracefully (every in-flight job checkpoints, is marked
/// `interrupted`, and auto-resumes on the next start).
fn run_serve(args: &[String]) -> Result<ExitCode, Error> {
    let mut store: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut max_body: Option<usize> = None;
    let mut runners: Option<usize> = None;
    let mut max_retries: Option<u32> = None;
    let mut retry_base_ms: Option<u64> = None;
    let mut max_connections: Option<usize> = None;
    let mut fsync_events: Option<walshcheck::daemon::store::FsyncEvents> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Error::Config(format!("{name} needs a value")))
        };
        let bad = |name: &str| Error::Config(format!("bad {name}"));
        match arg.as_str() {
            "--store" => store = Some(value("--store")?),
            "--listen" => listen = Some(value("--listen")?),
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|_| bad("--checkpoint-every"))?,
                )
            }
            "--max-body" => {
                max_body = Some(
                    value("--max-body")?
                        .parse()
                        .map_err(|_| bad("--max-body"))?,
                )
            }
            "--runners" => {
                runners = Some(
                    value("--runners")?
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| bad("--runners"))?,
                )
            }
            "--max-retries" => {
                max_retries = Some(
                    value("--max-retries")?
                        .parse()
                        .map_err(|_| bad("--max-retries"))?,
                )
            }
            "--retry-base-ms" => {
                retry_base_ms = Some(
                    value("--retry-base-ms")?
                        .parse()
                        .map_err(|_| bad("--retry-base-ms"))?,
                )
            }
            "--max-connections" => {
                max_connections = Some(
                    value("--max-connections")?
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| bad("--max-connections"))?,
                )
            }
            "--fsync-events" => {
                fsync_events = Some(
                    walshcheck::daemon::store::FsyncEvents::parse(&value("--fsync-events")?)
                        .ok_or_else(|| bad("--fsync-events"))?,
                )
            }
            other => return Err(Error::Config(format!("unknown option `{other}`"))),
        }
    }
    let store = store.ok_or_else(|| Error::Config("serve needs --store DIR".into()))?;
    let mut config = DaemonConfig::new(store);
    if let Some(listen) = listen {
        config.listen = listen;
    }
    if let Some(secs) = checkpoint_every {
        config.checkpoint_every = Duration::from_secs(secs);
    }
    if let Some(bytes) = max_body {
        config.max_body = bytes;
    }
    if let Some(n) = runners {
        config.runners = n;
    }
    if let Some(n) = max_retries {
        config.max_retries = n;
    }
    if let Some(ms) = retry_base_ms {
        config.retry_base = Duration::from_millis(ms);
    }
    if let Some(n) = max_connections {
        config.max_connections = n;
    }
    if let Some(policy) = fsync_events {
        config.fsync_events = policy;
    }
    let daemon = Daemon::bind(&config).map_err(|e| Error::Config(format!("serve: {e}")))?;
    println!("walshcheckd listening on {}", daemon.addr());
    daemon
        .run()
        .map_err(|e| Error::Config(format!("serve: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

/// `walshcheck submit <file.il|bench:NAME> (--addr A | --store D)
/// [check options]` — sends the netlist + spec to the daemon and prints the
/// `{"id","state","cached"}` acknowledgement. Resubmitting an identical
/// `(netlist, identity)` pair reports `"cached":true` once the first run
/// finished: the artifact is served from the store, never recomputed.
fn run_submit(target: &str, args: &[String]) -> Result<ExitCode, Error> {
    let (daemon_target, rest) = split_daemon_target(args)?;
    // `--job-timeout` is submit-only (a deadline the daemon's supervisor
    // enforces), so it is peeled off before the shared option parser.
    let mut job_timeout: Option<u64> = None;
    let mut check_args = Vec::with_capacity(rest.len());
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--job-timeout" {
            job_timeout = Some(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| Error::Config("bad --job-timeout".into()))?,
            );
        } else {
            check_args.push(arg.clone());
        }
    }
    let cli = parse_options(&check_args)?;
    for (flag, set) in [
        ("--checkpoint", cli.checkpoint.is_some()),
        ("--resume", cli.resume.is_some()),
        ("--minimize", cli.minimize),
        ("--progress", cli.progress),
        ("--json", cli.json),
    ] {
        if set {
            return Err(Error::Config(format!(
                "{flag} is managed by the daemon and not valid with submit"
            )));
        }
    }
    let netlist = load(target)?;
    let mut spec = spec_from_cli(&netlist, &cli)?;
    spec.timeout_secs = job_timeout;
    let client = daemon_client(&daemon_target)?;
    let response = client
        .submit(&spec.to_json().to_canonical(), &write_ilang(&netlist))
        .map_err(|e| Error::Config(format!("submit: {e}")))?;
    println!("{}", response.text());
    if response.status >= 400 {
        return Err(Error::Config(format!(
            "daemon rejected the submission (HTTP {})",
            response.status
        )));
    }
    Ok(ExitCode::SUCCESS)
}

/// `walshcheck status [ID] (--addr A | --store D)` — one job's record, or
/// the whole list without an ID.
fn run_status(args: &[String]) -> Result<ExitCode, Error> {
    let (id, rest) = match args.first() {
        Some(first) if !first.starts_with("--") => (Some(first.clone()), &args[1..]),
        _ => (None, args),
    };
    let (daemon_target, leftover) = split_daemon_target(rest)?;
    if let Some(other) = leftover.first() {
        return Err(Error::Config(format!("unknown option `{other}`")));
    }
    let client = daemon_client(&daemon_target)?;
    let path = match &id {
        Some(id) => format!("/v1/jobs/{id}"),
        None => "/v1/jobs".into(),
    };
    let response = client
        .get(&path)
        .map_err(|e| Error::Config(format!("status: {e}")))?;
    println!("{}", response.text());
    if response.status >= 400 {
        return Err(Error::Config(format!(
            "daemon returned HTTP {}",
            response.status
        )));
    }
    Ok(ExitCode::SUCCESS)
}

/// `walshcheck fetch ID (--addr A | --store D) [--wait]` — prints the
/// job's walshcheck-report/5 artifact (canonical bytes) and exits with the
/// same code the equivalent `check` run would have: 0 secure, 1 violated,
/// 2 inconclusive. With `--wait` the command long-polls the events
/// endpoint until the job reaches a terminal state instead of failing on
/// a still-running job.
fn run_fetch(id: &str, args: &[String]) -> Result<ExitCode, Error> {
    let (daemon_target, leftover) = split_daemon_target(args)?;
    let mut wait = false;
    for other in &leftover {
        if other == "--wait" {
            wait = true;
        } else {
            return Err(Error::Config(format!("unknown option `{other}`")));
        }
    }
    let client = daemon_client(&daemon_target)?;
    if wait {
        // One long-poll per iteration; each returns early on a terminal
        // state, so the loop spins at most once per server-side wait cap.
        let mut since = 0usize;
        loop {
            let response = client
                .events(id, since, 25_000)
                .map_err(|e| Error::Config(format!("fetch: {e}")))?;
            let body = response.text();
            if response.status >= 400 {
                return Err(Error::Config(format!(
                    "daemon returned HTTP {}: {body}",
                    response.status
                )));
            }
            let doc = walshcheck_core::json::parse(&body)
                .map_err(|e| Error::Config(format!("fetch: events body: {e}")))?;
            let state = doc
                .get("state")
                .and_then(|s| s.as_str().map(str::to_owned))
                .unwrap_or_default();
            if !matches!(state.as_str(), "queued" | "running") {
                break;
            }
            since = doc
                .get("next")
                .and_then(walshcheck_core::json::Json::as_u64)
                .map(|n| n as usize)
                .unwrap_or(since);
        }
    }
    let response = client
        .get(&format!("/v1/jobs/{id}/report"))
        .map_err(|e| Error::Config(format!("fetch: {e}")))?;
    let body = response.text();
    if response.status >= 400 {
        return Err(Error::Config(format!(
            "daemon returned HTTP {}: {body}",
            response.status
        )));
    }
    println!("{body}");
    let outcome = walshcheck_core::json::parse(&body)
        .ok()
        .and_then(|doc| {
            doc.get("result")
                .and_then(|r| r.get("outcome"))
                .and_then(|o| o.as_str().map(str::to_owned))
        })
        .ok_or_else(|| Error::Config("artifact carries no result.outcome".into()))?;
    Ok(ExitCode::from(match outcome.as_str() {
        "secure" => EXIT_SECURE,
        "violated" => EXIT_VIOLATED,
        _ => EXIT_INCONCLUSIVE,
    }))
}

fn main() -> ExitCode {
    #[cfg(unix)]
    signals::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") if args.len() >= 2 => run_check(&args[1], &args[2..]),
        Some("profile") if args.len() >= 2 => run_profile(&args[1], &args[2..]),
        Some("info") if args.len() >= 2 => run_info(&args[1]),
        Some("serve") => run_serve(&args[1..]),
        Some("submit") if args.len() >= 2 => run_submit(&args[1], &args[2..]),
        Some("status") => run_status(&args[1..]),
        Some("fetch") if args.len() >= 2 => run_fetch(&args[1], &args[2..]),
        Some("dump") if args.len() >= 2 => load(&args[1]).map(|n| {
            print!("{}", write_ilang(&n));
            ExitCode::SUCCESS
        }),
        Some("list") => {
            for b in Benchmark::all() {
                println!("bench:{b}");
            }
            for b in walshcheck::gadgets::Benchmark::extensions() {
                println!("bench:{b}  (extension)");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help") | Some("--help") | Some("-h") => {
            println!(
                "walshcheck — exact spectral verification of probing security\n\n\
                 subcommands:\n\
                 \x20 check <file.il|bench:NAME> [options]   verify a property\n\
                 \x20 info  <file.il|bench:NAME>             print port summary\n\
                 \x20 dump  <file.il|bench:NAME>             re-emit annotated ILANG\n\
                 \x20 list                                   list built-in benchmarks\n\
                 \x20 serve --store DIR [--listen ADDR] [--checkpoint-every SECS]\n\
                 \x20       [--runners N] [--max-retries N] [--retry-base-ms MS]\n\
                 \x20       [--max-connections N] [--fsync-events always|interval|never]\n\
\x20                                        run the walshcheckd daemon\n\
                 \x20 submit <file.il|bench:NAME> (--addr A|--store D)\n\
                 \x20        [--job-timeout SECS] [options]  queue a job on the daemon\n\
                 \x20 status [ID] (--addr A|--store D)       job status (all without ID)\n\
                 \x20 fetch  ID   (--addr A|--store D) [--wait]\n\
                 \x20                                        print the report/5 artifact\n\
                 \x20 (daemon commands also take --timeout SECS for the client)\n\n\
                 options: --property probing|ni|sni|pini  --order D\n\
                 \x20        --engine lil|map|mapi|fujita    --mode rowwise|joint\n\
                 \x20        --glitch  --threads N  --time-limit SECS  --no-prefilter\n\
                 \x20        --cache-budget BYTES (0 disables)  --node-budget NODES\n\
                 \x20        --rescue  --no-rescue  --rescue-attempts N  --rescue-budget BYTES\n\
                 \x20        --checkpoint FILE  --checkpoint-every SECS  --resume FILE\n\
                 \x20        --dense-cut N  --minimize  --progress  --json\n\n\
                 exit codes: 0 secure, 1 violated, 2 inconclusive, 3 usage/io error,\n\
                 \x20           4 interrupted by signal (resume with --resume)"
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}
