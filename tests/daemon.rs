//! Lifecycle tests for `walshcheckd`: submit over a real socket, poll,
//! fetch, kill, resume, restart — and the artifact-store contract that a
//! finished job's report is canonical bytes, content-hashed, byte-identical
//! to an uninterrupted in-process run, and served from disk on resubmit.
//!
//! The daemon shares the process-global shutdown flag with the library
//! (kills and daemon stops both ride on it), so every test in this file
//! serializes on one lock and leaves the flag cleared. The SIGTERM test at
//! the bottom exercises a *child* `walshcheck serve` process and needs the
//! fault-injection feature for a deterministic mid-sweep stall.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use walshcheck::core::hash::sha256_hex;
use walshcheck::core::json::{self, Json};
use walshcheck::core::shutdown;
use walshcheck::core::{Job, JobSpec, Report, REPORT_SCHEMA};
use walshcheck::daemon::{Client, Daemon, DaemonConfig};
use walshcheck::prelude::*;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    FLAG_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walshcheckd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a daemon over `store` (with `tweak` applied to the config) and
/// serves it on a background thread. Checkpoints after every batch so
/// kills always leave a resumable file. Clears any shutdown flag a
/// previous (possibly panicked) test left behind, so the accept loop does
/// not exit on arrival.
fn start_daemon_with(
    store: &Path,
    max_body: usize,
    tweak: impl FnOnce(&mut DaemonConfig),
) -> (JoinHandle<()>, Client) {
    shutdown::reset();
    let mut config = DaemonConfig::new(store);
    config.checkpoint_every = Duration::ZERO;
    config.max_body = max_body;
    tweak(&mut config);
    let daemon = Daemon::bind(&config).expect("daemon binds");
    let addr = daemon.addr();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon serves"));
    (handle, Client::new(addr.to_string()))
}

fn start_daemon(store: &Path, max_body: usize) -> (JoinHandle<()>, Client) {
    start_daemon_with(store, max_body, |_| {})
}

/// Raises the shutdown flag, joins the serve thread, clears the flag.
fn stop_daemon(handle: JoinHandle<()>) {
    shutdown::request();
    handle.join().expect("daemon thread");
    shutdown::reset();
}

/// RAII for `WALSHCHECK_FAULT`: clears the variable even when the test
/// panics, so a failure does not stall every later test in this binary.
/// Only used under the flag lock — the variable is process-global.
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

fn spec_json(property: Property, threads: usize) -> String {
    let mut spec = JobSpec::new(property);
    spec.threads = threads;
    spec.to_json().to_canonical()
}

fn submit(client: &Client, property: Property, threads: usize, netlist: &Netlist) -> Json {
    let response = client
        .submit(&spec_json(property, threads), &write_ilang(netlist))
        .expect("submit");
    assert!(
        response.status == 200 || response.status == 201,
        "submit answered {}: {}",
        response.status,
        response.text()
    );
    json::parse(&response.text()).expect("submit body is JSON")
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a str {
    doc.get(name)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{name} missing in {doc:?}"))
}

/// Asserts that `response` answers `status` with a JSON `{"error": …}`
/// body, and returns the message.
fn expect_error(response: &walshcheck::daemon::client::ClientResponse, status: u16) -> String {
    let text = response.text();
    assert_eq!(response.status, status, "{text}");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("error body {text:?}: {e}"));
    field(&doc, "error").to_string()
}

/// Polls `GET /v1/jobs/{id}` until the job reaches `want` (or fails the
/// test on a terminal mismatch / timeout). Returns the final record.
fn wait_for(client: &Client, id: &str, want: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = client.get(&format!("/v1/jobs/{id}")).expect("status");
        assert_eq!(response.status, 200, "{}", response.text());
        let doc = json::parse(&response.text()).expect("status is JSON");
        let state = field(&doc, "state").to_string();
        if state == want {
            return doc;
        }
        assert!(
            !matches!(state.as_str(), "done" | "failed" | "killed" | "timed-out"),
            "job {id} settled in {state}, wanted {want}: {doc:?}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The content-derived job id the daemon will assign to `(netlist, spec)`
/// — computable before submission, which the fault directives keyed by job
/// id need.
#[cfg(feature = "fault-inject")]
fn expected_job_id(netlist: &Netlist, property: Property) -> String {
    let canonical = parse_ilang(&write_ilang(netlist)).expect("canonical dump parses");
    let spec = JobSpec::new(property);
    walshcheck::daemon::store::job_id(
        &netlist_sha256(&canonical),
        &spec.identity_json().to_canonical(),
    )
}

/// The reference artifact an uninterrupted in-process run produces for the
/// same `(netlist, spec)` — what every daemon-produced report must match
/// byte for byte. The daemon stores and runs the canonical ILANG dump of
/// the submission, so the reference is built from the same round-tripped
/// netlist.
fn reference_artifact(netlist: &Netlist, property: Property, threads: usize) -> Report {
    let canonical = parse_ilang(&write_ilang(netlist)).expect("canonical dump parses");
    let mut spec = JobSpec::new(property);
    spec.threads = threads;
    let mut job = Job::new(&canonical, spec).expect("valid netlist");
    let verdict = job.run();
    Report::new(&canonical, job.spec(), &verdict)
}

#[test]
fn health_routing_and_method_mismatches() {
    let guard = lock();
    let store = temp_store("health");
    let (handle, client) = start_daemon(&store, 1 << 20);

    let health = client.get("/v1/health").expect("health");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"service\":\"walshcheckd\""));

    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(client.delete("/v1/health").expect("405").status, 405);
    assert_eq!(client.get("/v1/jobs/feedface").expect("404").status, 404);
    assert_eq!(
        client.get("/v1/jobs/feedface/report").expect("404").status,
        404
    );
    // Error bodies are JSON too, whatever the message holds.
    let unknown = expect_error(&client.get("/v1/jobs/nope").expect("404"), 404);
    assert!(unknown.contains("nope"), "{unknown}");
    let put = client.request("PUT", "/v1/health", None).expect("405");
    assert!(expect_error(&put, 405).contains("GET"));

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// With no traffic at all, only the supervisor's own flag re-check can
/// see a signal-raised stop: it must wake the blocked `accept` with a
/// self-connect, on a loopback bind and on an unspecified one (`0.0.0.0`
/// maps to loopback). `is_finished` is polled so a lost wake fails the
/// test instead of hanging it.
#[test]
fn an_idle_daemon_stops_promptly() {
    let guard = lock();
    for (tag, listen) in [("idle-lo", "127.0.0.1:0"), ("idle-any", "0.0.0.0:0")] {
        let store = temp_store(tag);
        let (handle, _client) = start_daemon_with(&store, 1 << 20, |c| c.listen = listen.into());
        // Let the accept thread block and the supervisor settle into a
        // full re-check wait: nothing is queued, so no timer is armed.
        std::thread::sleep(Duration::from_millis(300));
        shutdown::request();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{listen}: run still serving 2 s after the stop request"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().expect("daemon thread");
        shutdown::reset();
        let _ = std::fs::remove_dir_all(&store);
    }
    drop(guard);
}

#[test]
fn malformed_submissions_are_rejected_not_crashed() {
    let guard = lock();
    let store = temp_store("reject");
    // A 4 KiB body cap so the oversized case stays cheap.
    let (handle, client) = start_daemon(&store, 4096);

    for (label, body) in [
        ("not JSON at all", "ilang? never heard of it".to_string()),
        ("missing spec", "{\"netlist\":\"module m\"}".to_string()),
        (
            "missing netlist",
            "{\"spec\":{\"property\":{\"kind\":\"sni\",\"order\":1}}}".to_string(),
        ),
        (
            "spec without property",
            "{\"spec\":{},\"netlist\":\"module m\"}".to_string(),
        ),
        (
            "unknown engine",
            "{\"spec\":{\"property\":{\"kind\":\"sni\",\"order\":1},\"engine\":\"cudd\"},\"netlist\":\"x\"}"
                .to_string(),
        ),
        (
            "unparseable netlist",
            "{\"spec\":{\"property\":{\"kind\":\"sni\",\"order\":1}},\"netlist\":\"garbage\"}"
                .to_string(),
        ),
    ] {
        let response = client.post("/v1/jobs", body.as_bytes()).expect(label);
        assert_eq!(response.status, 400, "{label}: {}", response.text());
        expect_error(&response, 400);
    }

    // Oversized bodies are refused before they are buffered.
    let oversized = format!("{{\"netlist\":\"{}\"}}", "x".repeat(8192));
    let response = client
        .post("/v1/jobs", oversized.as_bytes())
        .expect("oversized");
    assert_eq!(response.status, 413, "{}", response.text());
    expect_error(&response, 413);

    // Nothing above may have created a job.
    let list = client.get("/v1/jobs").expect("list");
    assert_eq!(list.text(), "{\"jobs\":[]}");

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn submit_poll_fetch_and_cache_hit_on_resubmit() {
    let guard = lock();
    let store = temp_store("e2e");
    let (handle, client) = start_daemon(&store, 1 << 20);
    let netlist = Benchmark::Dom(1).netlist();

    let ack = submit(&client, Property::Sni(1), 2, &netlist);
    let id = field(&ack, "id").to_string();
    assert_eq!(id.len(), 16, "content-derived id");
    assert_eq!(ack.get("cached"), Some(&Json::Bool(false)));

    let record = wait_for(&client, &id, "done");
    let report_hash = field(&record, "report_hash").to_string();

    // The artifact: canonical bytes whose SHA-256 is the advertised hash,
    // byte-identical to what an uninterrupted in-process run produces.
    let fetched = client
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    assert_eq!(fetched.status, 200);
    let body = fetched.text();
    assert!(
        body.contains(&format!("\"schema\":\"{REPORT_SCHEMA}\"")),
        "{body}"
    );
    assert!(body.contains("\"outcome\":\"secure\""), "{body}");
    assert_eq!(sha256_hex(body.as_bytes()), report_hash);
    let reference = reference_artifact(&netlist, Property::Sni(1), 1);
    assert_eq!(body, reference.canonical_json(), "artifact bytes drifted");
    assert_eq!(report_hash, reference.hash());

    // Progress events survived on disk and paginate.
    let events = client
        .get(&format!("/v1/jobs/{id}/events?since=0"))
        .expect("events");
    assert_eq!(events.status, 200);
    let events_doc = json::parse(&events.text()).expect("events JSON");
    let next = events_doc.get("next").and_then(Json::as_u64).expect("next");
    assert!(next > 0, "{}", events.text());
    assert!(events.text().contains("\"event\":\"run-started\""));
    let tail = client
        .get(&format!("/v1/jobs/{id}/events?since={next}"))
        .expect("tail");
    assert!(tail.text().contains("\"events\":[]"), "{}", tail.text());

    // Resubmitting the identical (netlist, identity) — even at a different
    // thread count, which is not part of the identity — is a cache hit.
    for threads in [2, 7] {
        let again = submit(&client, Property::Sni(1), threads, &netlist);
        assert_eq!(field(&again, "id"), id, "t{threads}");
        assert_eq!(
            again.get("cached"),
            Some(&Json::Bool(true)),
            "t{threads}: {again:?}"
        );
    }
    // A different property is a different job.
    let other = submit(&client, Property::Ni(1), 2, &netlist);
    assert_ne!(field(&other, "id"), id);

    // Killing a finished job is a conflict, not a state change.
    let kill = client.delete(&format!("/v1/jobs/{id}")).expect("kill");
    assert_eq!(kill.status, 409, "{}", kill.text());
    assert!(expect_error(&kill, 409).contains("done"), "{}", kill.text());

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn queued_jobs_kill_and_resume_deterministically() {
    let guard = lock();
    let store = temp_store("killq");
    // Bind without serving: the runner thread only starts in `run`, so the
    // submission sits in `queued` and the kill/resume transitions are
    // race-free.
    let config = DaemonConfig::new(&store);
    let daemon = Daemon::bind(&config).expect("binds");
    let manager = std::sync::Arc::clone(daemon.manager());
    let netlist = Benchmark::Dom(1).netlist();
    let spec_doc = json::parse(&spec_json(Property::Sni(1), 1)).expect("spec");
    let submitted = manager
        .submit(&spec_doc, &write_ilang(&netlist))
        .expect("submits");
    assert!(submitted.created);

    use walshcheck::daemon::JobState;
    assert_eq!(
        manager.kill(&submitted.id).expect("kills"),
        JobState::Killed
    );
    let conflict = manager.kill(&submitted.id).expect_err("double kill");
    assert_eq!(conflict.status, 409);
    assert_eq!(
        manager.resume(&submitted.id).expect("resumes"),
        JobState::Queued
    );

    // Now serve: the re-enqueued job runs to completion over HTTP.
    let addr = daemon.addr();
    let handle = std::thread::spawn(move || daemon.run().expect("serves"));
    let client = Client::new(addr.to_string());
    let record = wait_for(&client, &submitted.id, "done");
    assert!(field(&record, "report_hash").len() == 64);

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn restart_recovers_the_store_and_finishes_the_job() {
    let guard = lock();
    let store = temp_store("restart");
    let netlist = Benchmark::Dom(2).netlist();

    // Daemon A: submit and stop straight away. Depending on where the stop
    // lands the job is still queued, mid-sweep (→ interrupted, checkpoint
    // flushed), or already done — recovery must finish it in every case.
    let (handle_a, client_a) = start_daemon(&store, 1 << 20);
    let ack = submit(&client_a, Property::Sni(2), 2, &netlist);
    let id = field(&ack, "id").to_string();
    std::thread::sleep(Duration::from_millis(30));
    stop_daemon(handle_a);

    // Daemon B over the same store: queued/interrupted jobs re-enqueue and
    // the checkpoint (if any) seeds the resumed sweep.
    let (handle_b, client_b) = start_daemon(&store, 1 << 20);
    let record = wait_for(&client_b, &id, "done");
    let report_hash = field(&record, "report_hash").to_string();

    // Whatever the interruption history, the artifact is byte-identical to
    // an uninterrupted run's: resume is exact, and the report carries no
    // timing or scheduling residue.
    let fetched = client_b
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    let reference = reference_artifact(&netlist, Property::Sni(2), 1);
    assert_eq!(fetched.text(), reference.canonical_json());
    assert_eq!(report_hash, reference.hash());

    // The finished job is now cache-served across restarts too.
    let again = submit(&client_b, Property::Sni(2), 4, &netlist);
    assert_eq!(field(&again, "id"), id);
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)));

    stop_daemon(handle_b);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// Kill lands mid-sweep deterministically: the fault-injected stall slows
/// each combination to ~25 ms, so the DELETE always catches the job
/// `running`; the interrupted sweep flushes its checkpoint, the job parks
/// in `killed`, and `POST resume` finishes it — byte-identical to an
/// uninterrupted run.
#[cfg(feature = "fault-inject")]
#[test]
fn http_kill_mid_sweep_then_resume_is_exact() {
    let guard = lock();
    let store = temp_store("killrun");
    let (handle, client) = start_daemon(&store, 1 << 20);
    let netlist = Benchmark::Dom(2).netlist();

    let fault = FaultPlan::set("stall-ms=25");
    let ack = submit(&client, Property::Sni(2), 1, &netlist);
    let id = field(&ack, "id").to_string();
    wait_for(&client, &id, "running");
    // Let at least one batch finish so the checkpoint has a frontier.
    std::thread::sleep(Duration::from_millis(200));
    let kill = client.delete(&format!("/v1/jobs/{id}")).expect("kill");
    assert_eq!(kill.status, 202, "{}", kill.text());
    let record = wait_for(&client, &id, "killed");
    assert_eq!(record.get("report_hash"), Some(&Json::Null));
    drop(fault);

    // The interrupted sweep left a resumable checkpoint behind.
    let ck = store.join("jobs").join(&id).join("checkpoint.ck");
    assert!(ck.is_file(), "no checkpoint at {}", ck.display());

    // A killed job does not auto-resume; an explicit resume finishes it.
    let resume = client
        .post(&format!("/v1/jobs/{id}/resume"), b"")
        .expect("resume");
    assert_eq!(resume.status, 200, "{}", resume.text());
    wait_for(&client, &id, "done");
    let fetched = client
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    let reference = reference_artifact(&netlist, Property::Sni(2), 1);
    assert_eq!(fetched.text(), reference.canonical_json());
    assert!(!ck.exists(), "checkpoint survives a finished sweep");

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// A runner panic (injected by job id) marks the job `failed` with a
/// typed reason, never takes down the accept loop, and the supervisor
/// respawns the runner — proven by an explicit resume completing on the
/// fresh runner, byte-identical to an uninterrupted run.
#[cfg(feature = "fault-inject")]
#[test]
fn runner_panic_fails_the_job_and_respawns_the_runner() {
    let guard = lock();
    let store = temp_store("panic");
    let netlist = Benchmark::Dom(1).netlist();
    let id = expected_job_id(&netlist, Property::Sni(1));

    let fault = FaultPlan::set(&format!("runner-panic-at={id}"));
    let (handle, client) = start_daemon(&store, 1 << 20);
    let ack = submit(&client, Property::Sni(1), 1, &netlist);
    assert_eq!(field(&ack, "id"), id, "precomputed id drifted");
    let record = wait_for(&client, &id, "failed");
    let error = field(&record, "error").to_string();
    assert!(error.contains("runner panic"), "untyped failure: {error}");

    // The accept loop shrugged the panic off.
    assert_eq!(client.get("/v1/health").expect("health").status, 200);

    // With the fault gone, resume runs on the respawned runner.
    drop(fault);
    let resume = client
        .post(&format!("/v1/jobs/{id}/resume"), b"")
        .expect("resume");
    assert_eq!(resume.status, 200, "{}", resume.text());
    wait_for(&client, &id, "done");
    let fetched = client
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    let reference = reference_artifact(&netlist, Property::Sni(1), 1);
    assert_eq!(fetched.text(), reference.canonical_json());

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// A torn `report.json` write leaves the record `done` with the correct
/// hash but corrupt bytes on disk; the next daemon's integrity scan
/// quarantines the artifact, re-queues the job, and the rerun restores
/// the exact bytes.
#[cfg(feature = "fault-inject")]
#[test]
fn torn_report_write_is_quarantined_and_requeued_on_restart() {
    let guard = lock();
    let store = temp_store("torn");
    let netlist = Benchmark::Dom(1).netlist();
    let reference = reference_artifact(&netlist, Property::Sni(1), 1);

    let fault = FaultPlan::set("store-torn-write=report.json");
    let (handle_a, client_a) = start_daemon(&store, 1 << 20);
    let ack = submit(&client_a, Property::Sni(1), 1, &netlist);
    let id = field(&ack, "id").to_string();
    let record = wait_for(&client_a, &id, "done");
    assert_eq!(field(&record, "report_hash"), reference.hash());
    stop_daemon(handle_a);
    drop(fault);

    let report_path = store.join("jobs").join(&id).join("report.json");
    let torn = std::fs::read(&report_path).expect("torn report exists");
    assert_ne!(sha256_hex(&torn), reference.hash(), "write was not torn");

    let (handle_b, client_b) = start_daemon(&store, 1 << 20);
    let quarantined = store.join("quarantine").join(format!("{id}-report.json"));
    assert!(
        quarantined.is_file(),
        "no quarantined artifact at {}",
        quarantined.display()
    );
    assert_eq!(std::fs::read(&quarantined).expect("readable"), torn);
    wait_for(&client_b, &id, "done");
    let fetched = client_b
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    assert_eq!(fetched.text(), reference.canonical_json());
    let healed = std::fs::read(&report_path).expect("healed report");
    assert_eq!(sha256_hex(&healed), reference.hash());

    stop_daemon(handle_b);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// The supervisor enforces per-job wall-clock deadlines: a fault-stalled
/// job blows its 1 s budget, parks in `timed-out` with a typed reason,
/// and the automatic retry (after backoff) resumes it from the
/// checkpoint to the exact uninterrupted artifact — no manual resume.
#[cfg(feature = "fault-inject")]
#[test]
fn deadline_times_out_and_automatic_retry_resumes_exactly() {
    let guard = lock();
    let store = temp_store("deadline");
    let (handle, client) = start_daemon_with(&store, 1 << 20, |config| {
        config.max_retries = 3;
        config.retry_base = Duration::from_millis(300);
    });
    let netlist = Benchmark::Dom(1).netlist();

    let fault = FaultPlan::set("job-stall-ms=1500");
    let mut spec = JobSpec::new(Property::Sni(1));
    spec.threads = 1;
    spec.timeout_secs = Some(1);
    let response = client
        .submit(&spec.to_json().to_canonical(), &write_ilang(&netlist))
        .expect("submit");
    assert!(
        response.status == 200 || response.status == 201,
        "{}",
        response.text()
    );
    let ack = json::parse(&response.text()).expect("submit body is JSON");
    let id = field(&ack, "id").to_string();

    let record = wait_for(&client, &id, "timed-out");
    drop(fault);
    assert!(
        field(&record, "error").contains("deadline"),
        "untyped timeout: {record:?}"
    );

    // No resume call: the retry fires on its own after the backoff, and
    // the deadline is identity-neutral — the retried report matches the
    // no-deadline reference byte for byte. `timed-out` stays legal while
    // the backoff clock runs (and would again if a retry lost the race
    // against the fault teardown), so this poll is bespoke.
    let deadline = Instant::now() + Duration::from_secs(120);
    let record = loop {
        let response = client.get(&format!("/v1/jobs/{id}")).expect("status");
        let doc = json::parse(&response.text()).expect("status is JSON");
        let state = field(&doc, "state").to_string();
        if state == "done" {
            break doc;
        }
        assert!(
            matches!(state.as_str(), "timed-out" | "queued" | "running"),
            "job {id} settled in {state}: {doc:?}"
        );
        assert!(Instant::now() < deadline, "retry never completed ({state})");
        std::thread::sleep(Duration::from_millis(10));
    };
    let retries = record
        .get("retries")
        .and_then(Json::as_u64)
        .expect("retries counter");
    assert!(retries >= 1, "{record:?}");
    let fetched = client
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    let reference = reference_artifact(&netlist, Property::Sni(1), 1);
    assert_eq!(fetched.text(), reference.canonical_json());

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// Deadlines and retry backoff are the supervisor's own timers, not a
/// side effect of HTTP traffic: after the submit, no request reaches the
/// daemon, and the job is observed only through the in-process manager.
/// It must still time out, retry on its own and finish byte-identical to
/// an uninterrupted run.
#[cfg(feature = "fault-inject")]
#[test]
fn deadlines_and_retries_fire_without_http_traffic() {
    use walshcheck::daemon::JobState;

    let guard = lock();
    let store = temp_store("quiet-deadline");
    shutdown::reset();
    let mut config = DaemonConfig::new(&store);
    config.checkpoint_every = Duration::ZERO;
    config.max_retries = 3;
    config.retry_base = Duration::from_millis(300);
    let daemon = Daemon::bind(&config).expect("daemon binds");
    let manager = std::sync::Arc::clone(daemon.manager());
    let client = Client::new(daemon.addr().to_string());
    let handle = std::thread::spawn(move || daemon.run().expect("daemon serves"));
    let netlist = Benchmark::Dom(1).netlist();

    let fault = FaultPlan::set("job-stall-ms=1500");
    let mut spec = JobSpec::new(Property::Sni(1));
    spec.threads = 1;
    spec.timeout_secs = Some(1);
    let response = client
        .submit(&spec.to_json().to_canonical(), &write_ilang(&netlist))
        .expect("submit");
    assert_eq!(response.status, 201, "{}", response.text());
    let id = field(&json::parse(&response.text()).expect("JSON"), "id").to_string();

    let wait_state = |want: JobState, allowed: &[JobState]| {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let record = manager.status(&id).expect("known job");
            if record.state == want {
                return record;
            }
            assert!(
                allowed.contains(&record.state),
                "job {id} settled in {}: {record:?}",
                record.state.as_str()
            );
            assert!(
                Instant::now() < deadline,
                "job {id} stuck in {}, wanted {}",
                record.state.as_str(),
                want.as_str()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let record = wait_state(JobState::TimedOut, &[JobState::Queued, JobState::Running]);
    drop(fault);
    assert!(
        record
            .error
            .as_deref()
            .is_some_and(|e| e.contains("deadline")),
        "untyped timeout: {record:?}"
    );
    // `timed-out` stays legal while the backoff clock runs, and again if
    // a retry lost the race against the fault teardown.
    let record = wait_state(
        JobState::Done,
        &[JobState::TimedOut, JobState::Queued, JobState::Running],
    );
    assert!(record.retries >= 1, "{record:?}");
    let reference = reference_artifact(&netlist, Property::Sni(1), 1);
    assert_eq!(
        manager.report(&id).expect("done job has a report"),
        reference.canonical_json()
    );

    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// Two runners sweep distinct jobs concurrently (both observed `running`
/// at once), a daemon stop drains both mid-sweep, and a fresh 2-runner
/// daemon auto-resumes each to artifacts byte-identical to uninterrupted
/// single-runner runs.
#[cfg(feature = "fault-inject")]
#[test]
fn two_runners_overlap_drain_and_resume_byte_identically() {
    let guard = lock();
    let store = temp_store("pool2");
    let netlist = Benchmark::Dom(2).netlist();

    let fault = FaultPlan::set("stall-ms=25");
    let (handle_a, client_a) = start_daemon_with(&store, 1 << 20, |c| c.runners = 2);
    let first = field(&submit(&client_a, Property::Sni(2), 1, &netlist), "id").to_string();
    let second = field(&submit(&client_a, Property::Ni(2), 1, &netlist), "id").to_string();
    assert_ne!(first, second);

    // With one runner the second job would sit `queued` behind the
    // stalled first; with two, both must be `running` simultaneously.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let states: Vec<String> = [&first, &second]
            .iter()
            .map(|id| {
                let response = client_a.get(&format!("/v1/jobs/{id}")).expect("status");
                field(&json::parse(&response.text()).expect("JSON"), "state").to_string()
            })
            .collect();
        if states.iter().all(|s| s == "running") {
            break;
        }
        assert!(
            states.iter().all(|s| s == "queued" || s == "running"),
            "{states:?}"
        );
        assert!(Instant::now() < deadline, "no overlap: {states:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let both sweeps pass at least one batch, then drain both at once.
    std::thread::sleep(Duration::from_millis(200));
    stop_daemon(handle_a);
    drop(fault);

    let (handle_b, client_b) = start_daemon_with(&store, 1 << 20, |c| c.runners = 2);
    for (id, property) in [(first, Property::Sni(2)), (second, Property::Ni(2))] {
        let record = wait_for(&client_b, &id, "done");
        let fetched = client_b
            .get(&format!("/v1/jobs/{id}/report"))
            .expect("report");
        let reference = reference_artifact(&netlist, property, 1);
        assert_eq!(fetched.text(), reference.canonical_json(), "job {id}");
        assert_eq!(field(&record, "report_hash"), reference.hash());
    }

    stop_daemon(handle_b);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// Long-poll semantics and the connection cap: `wait_ms` answers
/// immediately on a terminal job, blocks for the window on a job with no
/// new events, and a saturated daemon turns the excess connection away
/// with `503` + `Retry-After` — then recovers when the slot frees.
#[test]
fn long_poll_events_and_connection_cap() {
    let guard = lock();
    let netlist = Benchmark::Dom(1).netlist();

    // Terminal job: a long poll answers immediately even with a large
    // wait window.
    let store = temp_store("poll");
    let (handle, client) = start_daemon(&store, 1 << 20);
    let ack = submit(&client, Property::Sni(1), 1, &netlist);
    let id = field(&ack, "id").to_string();
    wait_for(&client, &id, "done");
    let started = Instant::now();
    let events = client.events(&id, 0, 10_000).expect("events");
    assert_eq!(events.status, 200, "{}", events.text());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "long-poll blocked on a terminal job"
    );
    let doc = json::parse(&events.text()).expect("events JSON");
    assert_eq!(field(&doc, "state"), "done");
    assert!(doc.get("next").and_then(Json::as_u64).expect("next") > 0);
    stop_daemon(handle);
    let _ = std::fs::remove_dir_all(&store);

    // Wait-expiry needs a job that stays non-terminal: bind without
    // serving so the submission sits `queued`, then long-poll in-process.
    let store = temp_store("poll-wait");
    let config = DaemonConfig::new(&store);
    let daemon = Daemon::bind(&config).expect("binds");
    let manager = std::sync::Arc::clone(daemon.manager());
    let spec_doc = json::parse(&spec_json(Property::Sni(1), 1)).expect("spec");
    let queued = manager
        .submit(&spec_doc, &write_ilang(&netlist))
        .expect("submits");
    let started = Instant::now();
    let body = manager.events(&queued.id, 0, 300).expect("events");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(250),
        "poll returned after {elapsed:?}, before the wait expired"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "poll overstayed: {elapsed:?}"
    );
    assert!(body.contains("\"state\":\"queued\""), "{body}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&store);

    // Connection cap: with the single slot held by a silent client, the
    // next connection is answered 503 + Retry-After on the accept thread;
    // releasing the slot restores service.
    use std::io::Read as _;
    let store = temp_store("cap");
    let (handle, client) = start_daemon_with(&store, 1 << 20, |c| c.max_connections = 1);
    let addr = std::fs::read_to_string(store.join("daemon.addr"))
        .expect("daemon.addr")
        .trim()
        .to_string();
    let hold = std::net::TcpStream::connect(&addr).expect("first connection");
    std::thread::sleep(Duration::from_millis(100)); // let accept claim the slot
                                                    // The 503 is written on the accept thread before any request is read,
                                                    // so send nothing — writing a request the server never drains would
                                                    // turn the close into a connection reset.
    let mut turned_away = std::net::TcpStream::connect(&addr).expect("second connection");
    turned_away
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = String::new();
    turned_away.read_to_string(&mut reply).expect("reads");
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(reply.contains("Retry-After: 1"), "{reply}");
    drop(turned_away);
    drop(hold);
    std::thread::sleep(Duration::from_millis(100));
    let health = client.get("/v1/health").expect("health after release");
    assert_eq!(health.status, 200, "cap slot never freed");
    stop_daemon(handle);
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}

/// The client's connect retry backs off before giving up: against a port
/// nothing listens on, two retries at a 20 ms base cost at least
/// 20 + 40 ms before the error surfaces.
#[test]
fn client_connect_retry_backs_off_before_failing() {
    // Reserve an ephemeral port, then free it so nothing listens there.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        listener.local_addr().expect("addr").to_string()
    };
    let client = Client::new(dead).connect_retries(2, Duration::from_millis(20));
    let started = Instant::now();
    let err = client.get("/v1/health").expect_err("nothing listens");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(60),
        "no backoff before {err}: {elapsed:?}"
    );
}

/// End-to-end across processes: `walshcheck serve` is SIGTERMed mid-sweep,
/// exits 0 after draining, and a fresh `serve` over the same store
/// auto-resumes the interrupted job to the exact uninterrupted artifact.
#[cfg(all(unix, feature = "fault-inject"))]
#[test]
fn sigterm_against_a_serving_child_drains_and_resumes() {
    use std::process::{Command, Stdio};

    let guard = lock();
    let store = temp_store("sigterm");
    let netlist = Benchmark::Dom(2).netlist();
    let store_str = store.to_str().expect("utf-8 path").to_string();
    let serve = |stalled: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_walshcheck"));
        cmd.args(["serve", "--store", &store_str, "--checkpoint-every", "0"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if stalled {
            cmd.env("WALSHCHECK_FAULT", "stall-ms=25");
        } else {
            cmd.env_remove("WALSHCHECK_FAULT");
        }
        cmd.spawn().expect("serve spawns")
    };
    let wait_addr = || {
        let path = store.join("daemon.addr");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&path) {
                let addr = addr.trim().to_string();
                // The previous incarnation's file is overwritten at bind;
                // accept whatever answers a health check.
                let client = Client::new(addr.clone());
                if matches!(client.get("/v1/health"), Ok(r) if r.status == 200) {
                    return client;
                }
            }
            assert!(Instant::now() < deadline, "no daemon.addr in {store_str}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let mut child = serve(true);
    let client = wait_addr();
    let ack = submit(&client, Property::Sni(2), 1, &netlist);
    let id = field(&ack, "id").to_string();
    wait_for(&client, &id, "running");
    std::thread::sleep(Duration::from_millis(200));

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(0), "graceful serve exit");

    // The store records the interruption durably.
    let status_text = std::fs::read_to_string(store.join("jobs").join(&id).join("status.json"))
        .expect("status.json persisted");
    assert!(
        status_text.contains("\"state\":\"interrupted\"")
            || status_text.contains("\"state\":\"queued\""),
        "{status_text}"
    );

    // A fresh daemon (no stall) auto-resumes and completes it.
    let mut child = serve(false);
    let client = wait_addr();
    let record = wait_for(&client, &id, "done");
    let fetched = client
        .get(&format!("/v1/jobs/{id}/report"))
        .expect("report");
    let reference = reference_artifact(&netlist, Property::Sni(2), 1);
    assert_eq!(fetched.text(), reference.canonical_json());
    assert_eq!(field(&record, "report_hash"), reference.hash());

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    assert_eq!(child.wait().expect("exits").code(), Some(0));
    drop(guard);
    let _ = std::fs::remove_dir_all(&store);
}
