//! The front-door verification API.
//!
//! A [`Session`] owns a prepared verifier for one netlist and carries the
//! whole run configuration — property, engine options, worker count,
//! progress observer — behind a chainable builder surface:
//!
//! ```
//! use walshcheck_core::{EngineKind, Property, Session};
//! use walshcheck_gadgets::dom::dom_and;
//!
//! let netlist = dom_and(1);
//! let verdict = Session::new(&netlist)
//!     .expect("valid netlist")
//!     .property(Property::Sni(1))
//!     .engine(EngineKind::Mapi)
//!     .threads(2)
//!     .run();
//! assert!(verdict.secure);
//! ```
//!
//! Since 0.3 a session is a thin builder over the [`Job`] API: every
//! setter writes into the session's [`JobSpec`], and [`Session::run`]
//! delegates to [`Job::run`] — the same execution path the CLI and the
//! `walshcheckd` daemon use. [`Session::into_job`] hands over the
//! underlying job (e.g. to serialize its spec with
//! [`JobSpec::to_json`]).
//!
//! Setup (validation and symbolic unfolding) happens once in
//! [`Session::new`]; repeated [`Session::run`] calls reuse it. Every run
//! goes through the work-stealing batch scheduler — with one thread that
//! degenerates to the serial enumeration (same combination order, same
//! counters), so verdicts are thread-count-independent by construction.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use walshcheck_circuit::glitch::ProbeModel;
use walshcheck_circuit::netlist::Netlist;

use crate::engine::{EngineKind, Verifier, VerifyOptions};
use crate::error::Error;
use crate::job::{Job, JobSpec};
use crate::observe::ProgressObserver;
use crate::property::{CheckMode, CheckStats, Property, SkippedCombination, Verdict, Witness};

/// A configured verification run over one netlist. See the module docs.
pub struct Session {
    job: Job,
    /// `Job` always carries a property; the session API keeps "unset" as a
    /// state so [`Session::run`] can fail loudly on a forgotten
    /// [`Session::property`] call instead of silently checking a default.
    property_set: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("job", &self.job)
            .field("property_set", &self.property_set)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Validates and unfolds `netlist`, preparing a session with the
    /// default options (MAPI engine, joint mode, one thread).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Netlist`] if the netlist is structurally invalid
    /// or cyclic, and with [`Error::Capacity`] if it has more input
    /// variables than a spectral coordinate can index.
    pub fn new(netlist: &Netlist) -> Result<Self, Error> {
        // Placeholder property until Session::property is called;
        // `property_set` guards every path that would read it.
        let job = Job::new(netlist, JobSpec::new(Property::Sni(1)))?;
        Ok(Session {
            job,
            property_set: false,
        })
    }

    /// The property to check. Must be set before [`Session::run`].
    #[must_use]
    pub fn property(mut self, property: Property) -> Self {
        self.job.spec_mut().property = property;
        self.property_set = true;
        self
    }

    /// Replaces the whole option set (e.g. with a
    /// [`VerifyOptions::paper`] preset or a built configuration).
    #[must_use]
    pub fn options(mut self, options: VerifyOptions) -> Self {
        self.job.spec_mut().options = options;
        self
    }

    /// Engine backend.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.job.spec_mut().options.engine = engine;
        self
    }

    /// Row-wise or joint checking.
    #[must_use]
    pub fn mode(mut self, mode: CheckMode) -> Self {
        self.job.spec_mut().options.mode = mode;
        self
    }

    /// Probe model (standard or glitch-extended).
    #[must_use]
    pub fn probe_model(mut self, model: ProbeModel) -> Self {
        self.job.spec_mut().options.sites.probe_model = model;
        self
    }

    /// Functional-support prefilter on/off.
    #[must_use]
    pub fn prefilter(mut self, on: bool) -> Self {
        self.job.spec_mut().options.prefilter = on;
        self
    }

    /// Largest-combinations-first enumeration on/off.
    #[must_use]
    pub fn largest_first(mut self, on: bool) -> Self {
        self.job.spec_mut().options.largest_first = on;
        self
    }

    /// Wall-clock budget for each run.
    #[must_use]
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.job.spec_mut().options.time_limit = Some(limit);
        self
    }

    /// Byte budget of each worker's prefix cache (least-recently-used
    /// eviction above it; `0` disables prefix caching). The same budget
    /// separately bounds the engine's spectral memo (see
    /// [`VerifyOptions::cache_budget`]). Purely a time/memory trade:
    /// verdicts and witnesses are identical at any budget.
    #[must_use]
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.job.spec_mut().options.cache_budget = bytes;
        self
    }

    /// Caps decision-diagram arena growth per checked combination, in
    /// nodes. A combination whose check (or whose deterministic size
    /// pre-charge) would grow the arenas past the cap is *quarantined*
    /// instead of checked: the sweep continues, the combination lands in
    /// [`Verdict::skipped`], and the verdict degrades to at best
    /// [`crate::Outcome::Inconclusive`] with
    /// [`crate::IncompleteReason::NodeBudget`]. The quarantine list is
    /// deterministic and thread-count-independent.
    #[must_use]
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.job.spec_mut().options.node_budget = Some(nodes);
        self
    }

    /// Post-sweep rescue pass on/off (off by default). When on, every
    /// quarantined combination is re-verified through a deterministic
    /// escalation ladder — doubled node budgets up to the rescue cap, then
    /// engine fallback (see [`crate::recover`]) — and the verdict
    /// upgrades from `Inconclusive` to `Secure`/`Violated` if *every*
    /// quarantine resolves. Results stay byte-identical across thread
    /// counts and checkpoint/resume.
    #[must_use]
    pub fn rescue(mut self, on: bool) -> Self {
        self.job.spec_mut().rescue.enabled = on;
        self
    }

    /// Number of budget-doubling attempts on the first rescue rung
    /// (default [`crate::recover::DEFAULT_RESCUE_ATTEMPTS`]). A climb that
    /// stops below the cap (see [`Session::rescue_budget`]) ends with one
    /// attempt at the cap, even at `0`; each engine fallback runs once if
    /// reached.
    #[must_use]
    pub fn rescue_attempts(mut self, attempts: u32) -> Self {
        self.job.spec_mut().rescue.attempts = attempts;
        self
    }

    /// Global cap, in bytes, on the node budget any single rescue attempt
    /// may be granted (default [`crate::recover::DEFAULT_RESCUE_BUDGET`]).
    #[must_use]
    pub fn rescue_budget(mut self, bytes: usize) -> Self {
        self.job.spec_mut().rescue.budget_bytes = bytes;
        self
    }

    /// Periodically persists run progress to `path` (at most every
    /// `every`; [`Duration::ZERO`] writes after every completed batch). The
    /// file can be fed back through [`Session::resume_from`] after an
    /// interrupted run.
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<std::path::PathBuf>, every: Duration) -> Self {
        self.job.checkpoint_to(path, every);
        self
    }

    /// Seeds the *next* [`Session::run`] from a checkpoint written by
    /// [`Session::checkpoint_to`]: completed combinations are skipped and
    /// the recorded evidence (candidates, quarantines, counters) is carried
    /// over. The resumed verdict — outcome, witness, quarantine list — is
    /// identical to an uninterrupted run's.
    ///
    /// Call this *after* [`Session::property`] and any option setters: the
    /// checkpoint is validated against a fingerprint of the netlist, the
    /// property, and the enumeration-relevant options as configured now.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if `path` cannot be read, [`Error::Checkpoint`] if the
    /// file is malformed or does not match this session's fingerprint,
    /// [`Error::Config`] if no property is set yet.
    pub fn resume_from(mut self, path: impl AsRef<Path>) -> Result<Self, Error> {
        if !self.property_set {
            return Err(Error::Config(
                "set Session::property(..) before Session::resume_from(..)".into(),
            ));
        }
        self.job.resume_from(path)?;
        Ok(self)
    }

    /// Number of worker threads (clamped to at least 1). The verdict —
    /// including the selected witness — is independent of this.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.job.spec_mut().threads = threads.max(1);
        self
    }

    /// Registers a progress observer receiving scheduler callbacks.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.job.set_observer(observer);
        self
    }

    /// The current option set.
    pub fn options_ref(&self) -> &VerifyOptions {
        &self.job.spec().options
    }

    /// The current job specification (property, options, threads, rescue).
    pub fn spec(&self) -> &JobSpec {
        self.job.spec()
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &Netlist {
        self.job.netlist()
    }

    /// The underlying verifier, for advanced per-combination queries
    /// ([`Verifier::check_specific`], [`Verifier::minimize_witness`]).
    pub fn verifier_mut(&mut self) -> &mut Verifier {
        self.job.verifier_mut()
    }

    /// Hands over the underlying [`Job`] — observer, checkpoint
    /// configuration and pending resume included. The job API is what the
    /// daemon and the artifact store consume ([`JobSpec::to_json`],
    /// [`JobSpec::identity_hash`]).
    ///
    /// # Panics
    ///
    /// Panics if no property was set (see [`Session::property`]): a job
    /// always carries a definite property.
    pub fn into_job(self) -> Job {
        assert!(
            self.property_set,
            "Session::property(..) must be set before Session::into_job()"
        );
        self.job
    }

    /// Runs the check with the configured property, engine and threads.
    ///
    /// # Panics
    ///
    /// Panics if no property was set (see [`Session::property`]).
    pub fn run(&mut self) -> Verdict {
        assert!(
            self.property_set,
            "Session::property(..) must be set before Session::run()"
        );
        self.job.run()
    }

    /// Enumerates violating combinations (serially) until `limit` witnesses
    /// are found, the space is exhausted, or a configured
    /// [`Session::time_limit`] expires. Unlike the bare witness list of
    /// [`Session::find_witnesses`], the result says *why* the search ended:
    /// `timed_out` and the quarantine list distinguish "no more witnesses
    /// exist" from "the search gave up looking".
    ///
    /// # Panics
    ///
    /// Panics if no property was set (see [`Session::property`]).
    pub fn search_witnesses(&mut self, limit: usize) -> WitnessSearch {
        assert!(
            self.property_set,
            "Session::property(..) must be set before Session::search_witnesses()"
        );
        let spec = self.job.spec();
        let (property, options) = (spec.property, spec.options.clone());
        let (witnesses, skipped, stats) = self
            .job
            .verifier_mut()
            .find_witnesses_full(property, &options, limit);
        WitnessSearch {
            complete: !stats.timed_out
                && !stats.interrupted
                && skipped.is_empty()
                && witnesses.len() < limit,
            witnesses,
            skipped,
            stats,
        }
    }

    /// Enumerates violating combinations (serially) until `limit` witnesses
    /// are found or the space is exhausted. Honors
    /// [`Session::time_limit`] and [`Session::node_budget`]; call
    /// [`Session::search_witnesses`] to distinguish an exhausted space from
    /// a truncated search.
    ///
    /// # Panics
    ///
    /// Panics if no property was set (see [`Session::property`]).
    pub fn find_witnesses(&mut self, limit: usize) -> Vec<Witness> {
        assert!(
            self.property_set,
            "Session::property(..) must be set before Session::find_witnesses()"
        );
        let spec = self.job.spec();
        let (property, options) = (spec.property, spec.options.clone());
        self.job
            .verifier_mut()
            .find_witnesses(property, &options, limit)
    }
}

/// The result of [`Session::search_witnesses`]: the witnesses plus the
/// completeness evidence a bare `Vec<Witness>` cannot carry.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct WitnessSearch {
    /// Violating combinations, in enumeration order.
    pub witnesses: Vec<Witness>,
    /// Combinations the search could not check (budget / panic
    /// quarantines).
    pub skipped: Vec<SkippedCombination>,
    /// Counters of the search sweep; `stats.timed_out` is set when a
    /// [`Session::time_limit`] cut the search short.
    pub stats: CheckStats,
    /// `true` when the whole space was swept: not timed out, nothing
    /// quarantined, and the search stopped because the space was exhausted
    /// rather than because `limit` was reached. An empty `witnesses` with
    /// `complete == false` proves nothing.
    pub complete: bool,
}
