//! Deterministic fault injection (cargo feature `fault-inject`).
//!
//! Resilience claims are only worth what their tests can prove, and panics
//! or budget blow-ups in real engine code are not reproducible on demand.
//! With the `fault-inject` feature enabled (off by default, no new
//! dependencies), the `WALSHCHECK_FAULT` environment variable injects
//! faults at exact points of the deterministic enumeration order:
//!
//! | directive                   | effect                                            |
//! |-----------------------------|---------------------------------------------------|
//! | `panic-at=IDX`              | panic while checking global combination `IDX`     |
//! | `budget-at=IDX`             | raise `CapacityExceeded` at combination `IDX`     |
//! | `lose-worker=WID`           | panic worker `WID` at startup, outside the        |
//! |                             | per-combination isolation boundary                |
//! | `exit-after-checkpoints=N`  | `process::exit(42)` after the `N`-th checkpoint   |
//! |                             | write (simulates a mid-sweep kill for resume CI)  |
//! | `rescue-panic-at=IDX`       | panic in *every* rescue attempt of combination    |
//! |                             | `IDX` (drives the ladder to `Unresolved`)         |
//! | `rescue-budget-at=IDX`      | raise `CapacityExceeded` in every rescue attempt  |
//! |                             | of combination `IDX`                              |
//! | `stall-ms=N`                | sleep `N` ms before each combination check (slows |
//! |                             | a sweep so signal-kill tests land mid-run)        |
//! | `runner-panic-at=JOBID`     | panic the `walshcheckd` runner thread while it    |
//! |                             | executes job `JOBID` (drives the daemon's         |
//! |                             | failed-plus-respawn path)                         |
//! | `store-torn-write=FILE`     | tear the next artifact-store write of `FILE`:     |
//! |                             | half the bytes land at the final path with no     |
//! |                             | atomic rename (drives the startup integrity scan) |
//! | `job-stall-ms=N`            | sleep `N` ms at the start of every daemon job     |
//! |                             | execution (wedges a job so deadline tests fire)   |
//! | `crash-at-io-op=N`          | abort the process immediately before the `N`-th   |
//! |                             | (1-based) I/O operation [`crate::iofs::RealFs`]   |
//! |                             | would perform — a *real* crash at an exact point  |
//! |                             | of the traced schedule, cross-checking the        |
//! |                             | simulated page-cache model (DESIGN.md §16)        |
//!
//! Multiple directives are comma-separated. Without the feature every hook
//! compiles to nothing; the daemon directives are consumed by
//! `walshcheck-daemon` through `string_directive`/`u64_directive`, which
//! exist only with the feature.

/// Panic payload used by injected worker faults; classified as
/// [`crate::IncompleteReason::WorkerFailure`] by the isolation boundary.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault(pub &'static str);

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault: {}", self.0)
    }
}

/// Process exit code used by `exit-after-checkpoints` (distinct from the
/// CLI's 0–3 verdict codes so a harness can tell the simulated kill apart).
pub const INJECTED_EXIT_CODE: i32 = 42;

#[cfg(feature = "fault-inject")]
fn directive(prefix: &str) -> Option<u64> {
    // Re-read the environment on every call: the value is tiny, this is a
    // test-only build, and per-call reads let in-process tests change the
    // plan between runs.
    u64_directive(prefix)
}

/// The string value of fault directive `prefix` in `WALSHCHECK_FAULT`, if
/// present. Re-reads the environment on every call so in-process tests can
/// change the plan between runs. Used by `walshcheck-daemon` for the
/// job-id-valued directives (`runner-panic-at`, `store-torn-write`).
#[cfg(feature = "fault-inject")]
pub fn string_directive(prefix: &str) -> Option<String> {
    let plan = std::env::var("WALSHCHECK_FAULT").ok()?;
    plan.split(',').find_map(|d| {
        d.trim()
            .strip_prefix(prefix)
            .and_then(|v| v.strip_prefix('='))
            .map(|v| v.trim().to_string())
    })
}

/// The numeric value of fault directive `prefix` in `WALSHCHECK_FAULT`, if
/// present (see [`string_directive`] for the lookup semantics).
#[cfg(feature = "fault-inject")]
pub fn u64_directive(prefix: &str) -> Option<u64> {
    string_directive(prefix).and_then(|v| v.parse().ok())
}

/// Injects a panic or budget exhaustion at global combination `index`.
/// Called inside the per-combination isolation boundary.
pub(crate) fn maybe_inject(index: u64) {
    #[cfg(feature = "fault-inject")]
    {
        if let Some(ms) = directive("stall-ms") {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if directive("panic-at") == Some(index) {
            std::panic::panic_any(InjectedFault("panic-at"));
        }
        if directive("budget-at") == Some(index) {
            walshcheck_dd::budget::exceeded("fault-inject", 0, 0);
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = index;
}

/// Injects a panic or budget exhaustion into *every* rescue attempt of
/// combination `index` — unlike `maybe_inject`, which the rescue path does
/// not call, so the sweep-time directives cannot contaminate the ladder.
/// Called inside the rescue attempt's isolation boundary.
pub(crate) fn maybe_inject_rescue(index: u64) {
    #[cfg(feature = "fault-inject")]
    {
        if directive("rescue-panic-at") == Some(index) {
            std::panic::panic_any(InjectedFault("rescue-panic-at"));
        }
        if directive("rescue-budget-at") == Some(index) {
            walshcheck_dd::budget::exceeded("fault-inject-rescue", 0, 0);
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = index;
}

/// Injects a whole-worker loss: panics at worker startup, *outside* the
/// per-combination boundary, exercising the scheduler's lost-worker path.
pub(crate) fn maybe_lose_worker(worker: usize) {
    #[cfg(feature = "fault-inject")]
    {
        if directive("lose-worker") == Some(worker as u64) {
            std::panic::panic_any(InjectedFault("lose-worker"));
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = worker;
}

/// Called after every successful checkpoint write; kills the process after
/// the configured number of writes to simulate a mid-sweep crash.
pub(crate) fn on_checkpoint_written() {
    #[cfg(feature = "fault-inject")]
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        static WRITES: AtomicU64 = AtomicU64::new(0);
        if let Some(n) = directive("exit-after-checkpoints") {
            let written = WRITES.fetch_add(1, Ordering::SeqCst) + 1;
            if written >= n {
                eprintln!("fault-inject: exiting after {written} checkpoint writes");
                std::process::exit(INJECTED_EXIT_CODE);
            }
        }
    }
}
