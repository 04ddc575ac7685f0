//! The job API: one verification run as a value.
//!
//! A [`JobSpec`] is the complete, *serializable* description of what to
//! verify — property, engine options, worker count, rescue configuration —
//! with a canonical JSON form and a content hash. It is the submit payload
//! of the `walshcheckd` daemon and the identity under which the artifact
//! store caches results; [`crate::Session`] is now a thin builder over it.
//!
//! A [`Job`] pairs a spec with a prepared [`Verifier`] for one netlist and
//! owns the run-scoped state the spec cannot carry (progress observer,
//! checkpoint configuration, a pending resume). [`Job::run`] is the single
//! execution path shared by the CLI, the daemon and library embedders —
//! every run goes through the work-stealing scheduler, so verdicts are
//! thread-count-independent by construction.
//!
//! # Identity vs. configuration
//!
//! Two spec serializations exist on purpose:
//!
//! * [`JobSpec::to_json`] — the full configuration, round-tripped through
//!   [`JobSpec::parse`] (what a daemon client submits);
//! * [`JobSpec::identity_json`] — the *result identity*: the full form
//!   minus `threads` and the prefix-cache knobs, which are proven
//!   verdict-neutral (DESIGN.md §8/§9). [`JobSpec::identity_hash`] over
//!   these canonical bytes, combined with [`netlist_sha256`], is the
//!   artifact-store cache key: a resubmitted `(netlist, identity)` pair is
//!   served from disk, never recomputed.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use walshcheck_circuit::glitch::ProbeModel;
use walshcheck_circuit::ilang::write_ilang;
use walshcheck_circuit::netlist::Netlist;
use walshcheck_dd::var::VarId;

use crate::checkpoint::{self, Checkpoint, CheckpointConfig};
use crate::engine::{EngineKind, Verifier, VerifyOptions};
use crate::error::Error;
use crate::hash::sha256_hex;
use crate::json::Json;
use crate::observe::ProgressObserver;
use crate::property::{CheckMode, Property, Verdict};
use crate::recover::RescueConfig;
use crate::scheduler::{self, SetupTimings};

/// The serializable description of one verification run.
///
/// Construct with [`JobSpec::new`]; the struct is `#[non_exhaustive]`, so
/// fields may be added without breaking callers (adjust them through the
/// public fields or the accessors after construction).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct JobSpec {
    /// The property to check.
    pub property: Property,
    /// Engine options (engine, mode, sites, prefilter, budgets, cache).
    pub options: VerifyOptions,
    /// Worker threads (results are independent of this; clamped to ≥ 1).
    pub threads: usize,
    /// Post-sweep rescue-ladder configuration.
    pub rescue: RescueConfig,
    /// Wall-clock deadline for one *attempt* at this job, enforced by the
    /// daemon's supervisor (not by [`Job::run`] itself): when it elapses the
    /// sweep is interrupted at a batch boundary, the checkpoint flushed, and
    /// the job transitioned to `timed-out`. `None` means no deadline. Like
    /// `threads`, this is a speed/robustness knob excluded from the identity
    /// hash — an interrupted-and-resumed run is byte-identical to an
    /// uninterrupted one, so the deadline cannot change the result.
    pub timeout_secs: Option<u64>,
}

impl JobSpec {
    /// A spec checking `property` with the default options (MAPI engine,
    /// joint mode, one thread, rescue off).
    pub fn new(property: Property) -> Self {
        JobSpec {
            property,
            options: VerifyOptions::default(),
            threads: 1,
            rescue: RescueConfig::default(),
            timeout_secs: None,
        }
    }

    /// The property to check.
    pub fn property(&self) -> Property {
        self.property
    }

    /// The engine backend.
    pub fn engine(&self) -> EngineKind {
        self.options.engine
    }

    /// Row-wise or joint checking.
    pub fn mode(&self) -> CheckMode {
        self.options.mode
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The full configuration as a JSON value (canonical via
    /// [`Json::to_canonical`]); inverse of [`JobSpec::parse`].
    pub fn to_json(&self) -> Json {
        let mut obj = self.identity_object();
        obj.insert("threads".into(), Json::Int(self.threads() as i64));
        obj.insert(
            "cache".into(),
            Json::obj([("budget_bytes", Json::Int(self.options.cache_budget as i64))]),
        );
        // The daemon deadline is configuration, not identity: interrupted
        // attempts resume byte-identically, so the deadline never changes
        // what the job computes — only how patiently the daemon waits.
        obj.insert(
            "timeout_secs".into(),
            match self.timeout_secs {
                Some(s) => Json::Int(s.min(i64::MAX as u64) as i64),
                None => Json::Null,
            },
        );
        Json::Obj(obj)
    }

    /// The result identity as a JSON value: [`JobSpec::to_json`] minus
    /// `threads` and the prefix-cache knobs. Everything in here can change
    /// the verdict, the witness, or the quarantine list; everything left
    /// out is proven not to (DESIGN.md §8/§9), so results may be shared
    /// across configurations that differ only in the omitted fields.
    pub fn identity_json(&self) -> Json {
        Json::Obj(self.identity_object())
    }

    fn identity_object(&self) -> std::collections::BTreeMap<String, Json> {
        let o = &self.options;
        let mut map = std::collections::BTreeMap::new();
        map.insert(
            "property".into(),
            Json::obj([
                ("kind", Json::str(self.property.kind())),
                ("order", Json::Int(i64::from(self.property.order()))),
            ]),
        );
        map.insert("engine".into(), Json::str(o.engine.as_str()));
        map.insert("mode".into(), Json::str(o.mode.as_str()));
        map.insert(
            "sites".into(),
            Json::obj([
                (
                    "probe_model",
                    Json::str(match o.sites.probe_model {
                        ProbeModel::Standard => "standard",
                        ProbeModel::Glitch => "glitch",
                    }),
                ),
                ("include_inputs", Json::Bool(o.sites.include_inputs)),
                ("dedup", Json::Bool(o.sites.dedup)),
            ]),
        );
        map.insert("prefilter".into(), Json::Bool(o.prefilter));
        map.insert("largest_first".into(), Json::Bool(o.largest_first));
        // Job ids and report/5 artifacts stored by earlier releases hash
        // this key, so it stays, pinned to `false`.
        map.insert("presift".into(), Json::Bool(false));
        map.insert(
            "time_limit_ms".into(),
            match o.time_limit {
                Some(d) => Json::Int(d.as_millis().min(i64::MAX as u128) as i64),
                None => Json::Null,
            },
        );
        map.insert(
            "node_budget".into(),
            match o.node_budget {
                Some(n) => Json::Int(n as i64),
                None => Json::Null,
            },
        );
        map.insert(
            "rescue".into(),
            Json::obj([
                ("enabled", Json::Bool(self.rescue.enabled)),
                ("attempts", Json::Int(i64::from(self.rescue.attempts))),
                ("budget_bytes", Json::Int(self.rescue.budget_bytes as i64)),
            ]),
        );
        map
    }

    /// SHA-256 over the canonical bytes of [`JobSpec::identity_json`].
    pub fn identity_hash(&self) -> String {
        sha256_hex(self.identity_json().to_canonical().as_bytes())
    }

    /// Reconstructs a spec from the JSON form of [`JobSpec::to_json`].
    /// `property` is required; every other field defaults like
    /// [`JobSpec::new`] when absent, so sparse submissions work. Unknown
    /// keys are ignored, among them the retired `"backend"`, `"sift"` and
    /// `"dense_cut"` keys that specs stored by earlier 0.3 daemons carry.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when `property` is missing, any present field
    /// has an unknown value, or the retired `"presift"` key is `true`.
    pub fn parse(doc: &Json) -> Result<JobSpec, Error> {
        let bad = |what: &str| Error::Config(format!("job spec: {what}"));
        let property = doc.get("property").ok_or_else(|| bad("missing property"))?;
        let kind = property
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("property.kind must be a string"))?;
        let order = property
            .get("order")
            .and_then(Json::as_u64)
            .and_then(|o| u32::try_from(o).ok())
            .ok_or_else(|| bad("property.order must be a non-negative integer"))?;
        if order == 0 {
            return Err(bad("property.order must be at least 1"));
        }
        let property = Property::from_kind(kind, order)
            .ok_or_else(|| bad(&format!("unknown property kind {kind:?}")))?;
        let mut spec = JobSpec::new(property);
        let o = &mut spec.options;
        if let Some(engine) = doc.get("engine") {
            let name = engine
                .as_str()
                .ok_or_else(|| bad("engine must be a string"))?;
            o.engine =
                EngineKind::parse(name).ok_or_else(|| bad(&format!("unknown engine {name:?}")))?;
        }
        if let Some(mode) = doc.get("mode") {
            let name = mode.as_str().ok_or_else(|| bad("mode must be a string"))?;
            o.mode =
                CheckMode::parse(name).ok_or_else(|| bad(&format!("unknown mode {name:?}")))?;
        }
        if let Some(sites) = doc.get("sites") {
            if let Some(model) = sites.get("probe_model") {
                o.sites.probe_model = match model.as_str() {
                    Some("standard") => ProbeModel::Standard,
                    Some("glitch") => ProbeModel::Glitch,
                    _ => return Err(bad("sites.probe_model must be \"standard\" or \"glitch\"")),
                };
            }
            if let Some(v) = sites.get("include_inputs") {
                o.sites.include_inputs = v.as_bool().ok_or_else(|| bad("sites.include_inputs"))?;
            }
            if let Some(v) = sites.get("dedup") {
                o.sites.dedup = v.as_bool().ok_or_else(|| bad("sites.dedup"))?;
            }
        }
        if let Some(v) = doc.get("prefilter") {
            o.prefilter = v.as_bool().ok_or_else(|| bad("prefilter"))?;
        }
        if let Some(v) = doc.get("largest_first") {
            o.largest_first = v.as_bool().ok_or_else(|| bad("largest_first"))?;
        }
        // A stored `"presift": true` names a job that can no longer run.
        if let Some(v) = doc.get("presift") {
            if v.as_bool().ok_or_else(|| bad("presift"))? {
                return Err(bad("presift is no longer supported"));
            }
        }
        match doc.get("time_limit_ms") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let ms = v.as_u64().ok_or_else(|| bad("time_limit_ms"))?;
                o.time_limit = Some(Duration::from_millis(ms));
            }
        }
        match doc.get("node_budget") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let n = v
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| bad("node_budget"))?;
                o.node_budget = Some(n);
            }
        }
        if let Some(cache) = doc.get("cache") {
            if let Some(v) = cache.get("budget_bytes") {
                o.cache_budget = v
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| bad("cache.budget_bytes"))?;
            }
            // Specs written while caching had an on/off switch may carry
            // `"enabled": false`, which always meant a zero budget.
            if let Some(v) = cache.get("enabled") {
                if !v.as_bool().ok_or_else(|| bad("cache.enabled"))? {
                    o.cache_budget = 0;
                }
            }
        }
        if let Some(rescue) = doc.get("rescue") {
            if let Some(v) = rescue.get("enabled") {
                spec.rescue.enabled = v.as_bool().ok_or_else(|| bad("rescue.enabled"))?;
            }
            if let Some(v) = rescue.get("attempts") {
                spec.rescue.attempts = v
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("rescue.attempts"))?;
            }
            if let Some(v) = rescue.get("budget_bytes") {
                spec.rescue.budget_bytes = v
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| bad("rescue.budget_bytes"))?;
            }
        }
        if let Some(v) = doc.get("threads") {
            spec.threads = v
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| bad("threads"))?
                .max(1);
        }
        match doc.get("timeout_secs") {
            None | Some(Json::Null) => {}
            Some(v) => {
                spec.timeout_secs = Some(v.as_u64().ok_or_else(|| bad("timeout_secs"))?);
            }
        }
        Ok(spec)
    }
}

/// SHA-256 over the canonical ILANG dump of `netlist` — the netlist half of
/// the artifact-store cache key. The dump is deterministic (sorted,
/// name-stable), so structurally identical netlists hash identically no
/// matter how they were built or parsed.
pub fn netlist_sha256(netlist: &Netlist) -> String {
    sha256_hex(write_ilang(netlist).as_bytes())
}

/// A prepared verification run: a [`JobSpec`] bound to a [`Verifier`] for
/// one netlist, plus the run-scoped state (observer, checkpointing, a
/// pending resume). The single execution path shared by [`crate::Session`],
/// the CLI and the daemon.
pub struct Job {
    verifier: Verifier,
    spec: JobSpec,
    observer: Option<Arc<dyn ProgressObserver>>,
    checkpoint: Option<CheckpointConfig>,
    resume: Option<Checkpoint>,
    interrupt: Option<Arc<std::sync::atomic::AtomicBool>>,
    setup: SetupTimings,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("spec", &self.spec)
            .field("observer", &self.observer.is_some())
            .field("checkpoint", &self.checkpoint)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Validates and unfolds `netlist`, binding it to `spec`. Setup work
    /// happens once here; repeated [`Job::run`] calls reuse it.
    ///
    /// # Errors
    ///
    /// [`Error::Netlist`] if the netlist is structurally invalid or cyclic,
    /// [`Error::Capacity`] if it has more input variables than a spectral
    /// coordinate can index.
    pub fn new(netlist: &Netlist, spec: JobSpec) -> Result<Self, Error> {
        if netlist.inputs.len() > VarId::MAX_VARS as usize {
            return Err(Error::Capacity(format!(
                "{} input variables (limit {})",
                netlist.inputs.len(),
                VarId::MAX_VARS
            )));
        }
        let t = Instant::now();
        netlist.validate()?;
        let validate = t.elapsed();
        let t = Instant::now();
        let verifier = Verifier::new(netlist)?;
        let unfold = t.elapsed();
        Ok(Job {
            verifier,
            spec,
            observer: None,
            checkpoint: None,
            resume: None,
            interrupt: None,
            setup: SetupTimings { validate, unfold },
        })
    }

    /// The job's specification.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Mutable access to the specification (reconfigure between runs).
    pub fn spec_mut(&mut self) -> &mut JobSpec {
        &mut self.spec
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &Netlist {
        self.verifier.netlist()
    }

    /// The underlying verifier, for advanced per-combination queries.
    pub fn verifier_mut(&mut self) -> &mut Verifier {
        &mut self.verifier
    }

    /// Registers a progress observer receiving scheduler callbacks.
    pub fn set_observer(&mut self, observer: Arc<dyn ProgressObserver>) {
        self.observer = Some(observer);
    }

    /// Registers a *job-scoped* interrupt token. When the token is raised
    /// the sweep drains at the next batch boundary exactly as a
    /// process-global [`crate::shutdown::request`] would — checkpoint
    /// flushed, verdict `Inconclusive(Interrupted)` — but only *this* run
    /// stops; concurrent jobs in the same process (a `walshcheckd` runner
    /// pool) keep sweeping. The global flag still interrupts every run.
    pub fn set_interrupt(&mut self, token: Arc<std::sync::atomic::AtomicBool>) {
        self.interrupt = Some(token);
    }

    /// Periodically persists run progress to `path` (at most every
    /// `every`; [`Duration::ZERO`] writes after every completed batch).
    pub fn checkpoint_to(&mut self, path: impl Into<std::path::PathBuf>, every: Duration) {
        self.checkpoint = Some(CheckpointConfig::new(path, every));
    }

    /// [`Job::checkpoint_to`] writing through an explicit I/O layer —
    /// how the daemon routes checkpoint writes through its store's
    /// (possibly tracing) filesystem shim.
    pub fn checkpoint_to_with(
        &mut self,
        path: impl Into<std::path::PathBuf>,
        every: Duration,
        fs: std::sync::Arc<dyn crate::iofs::IoFs>,
    ) {
        self.checkpoint = Some(CheckpointConfig::new(path, every).with_fs(fs));
    }

    /// Seeds the *next* [`Job::run`] from a checkpoint file: completed
    /// combinations are skipped and the recorded evidence is carried over.
    /// The resumed verdict is identical to an uninterrupted run's. The
    /// checkpoint is validated against a fingerprint of the netlist, the
    /// property and the enumeration-relevant options as configured *now* —
    /// reconfigure the spec first.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if `path` cannot be read, [`Error::Checkpoint`] if the
    /// file is malformed, does not match this job's fingerprint, or holds
    /// evidence that does not fit the run (an entry that is not the
    /// combination at its index, counters past the space, a candidate that
    /// does not violate).
    pub fn resume_from(&mut self, path: impl AsRef<Path>) -> Result<(), Error> {
        let text = std::fs::read_to_string(path.as_ref())?;
        let ck = checkpoint::parse(&text)?;
        let expect = checkpoint::fingerprint(
            self.verifier.netlist(),
            self.spec.property,
            &self.spec.options,
        );
        if ck.fingerprint != expect {
            return Err(Error::Checkpoint(format!(
                "fingerprint mismatch: checkpoint was written for {} ({}), this job is {} ({})",
                ck.fingerprint, ck.property, expect, self.spec.property
            )));
        }
        let admitted = ck.admit(&self.verifier, self.spec.property, &self.spec.options)?;
        self.resume = Some(admitted);
        Ok(())
    }

    /// Runs the job. A pending resume seeds exactly this run; later runs
    /// sweep fresh.
    pub fn run(&mut self) -> Verdict {
        let resume = self.resume.take();
        scheduler::run(
            &mut self.verifier,
            self.spec.property,
            &self.spec.options,
            self.spec.threads.max(1),
            self.observer.as_ref(),
            self.setup,
            self.checkpoint.as_ref(),
            resume,
            &self.spec.rescue,
            self.interrupt.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(Property::Sni(2));
        s.options.engine = EngineKind::Map;
        s.options.node_budget = Some(4096);
        s.threads = 4;
        s.rescue.enabled = true;
        s
    }

    #[test]
    fn spec_round_trips_through_canonical_json() {
        let s = spec();
        let text = s.to_json().to_canonical();
        let back = JobSpec::parse(&json::parse(&text).expect("valid")).expect("parses");
        assert_eq!(back.to_json().to_canonical(), text);
        assert_eq!(back.property, Property::Sni(2));
        assert_eq!(back.options.engine, EngineKind::Map);
        assert_eq!(back.options.node_budget, Some(4096));
        assert_eq!(back.threads, 4);
        assert!(back.rescue.enabled);
    }

    #[test]
    fn identity_ignores_threads_and_cache() {
        let a = spec();
        let mut b = spec();
        b.threads = 1;
        b.options.cache_budget = 0;
        assert_eq!(a.identity_hash(), b.identity_hash());
        assert_ne!(
            a.to_json().to_canonical(),
            b.to_json().to_canonical(),
            "the full form still distinguishes them"
        );
        let mut c = spec();
        c.options.engine = EngineKind::Lil;
        assert_ne!(a.identity_hash(), c.identity_hash());
    }

    #[test]
    fn identity_ignores_timeout_secs() {
        let a = spec();
        let mut b = spec();
        b.timeout_secs = Some(90);
        assert_eq!(
            a.identity_hash(),
            b.identity_hash(),
            "the deadline is supervision policy, not result identity"
        );
        assert_ne!(
            a.to_json().to_canonical(),
            b.to_json().to_canonical(),
            "the full form still records the deadline"
        );
        let round = JobSpec::parse(&json::parse(&b.to_json().to_canonical()).expect("valid"))
            .expect("parses");
        assert_eq!(round.timeout_secs, Some(90));
    }

    #[test]
    fn retired_keys_parse_and_keep_the_identity() {
        // Stores written before the DD backend, sifting and dense-kernel
        // knobs were removed hold `spec.json` files with `"backend"`,
        // `"sift"`, `"dense_cut"` and `"presift": false` keys: they must
        // still parse, keep their job identity, and be written back
        // without the three knob keys.
        let a = spec();
        let current = a.to_json().to_canonical();
        for key in ["backend", "sift", "dense_cut"] {
            assert!(a.to_json().get(key).is_none(), "to_json writes no {key}");
        }
        let retired = [
            ("backend", Json::str("private")),
            ("backend", Json::str("shared")),
            ("sift", Json::str("auto")),
            ("sift", Json::str("rescue")),
            ("sift", Json::str("off")),
            ("presift", Json::Bool(false)),
            ("dense_cut", Json::Int(12)),
            ("dense_cut", Json::Int(0)),
        ];
        for (key, value) in retired {
            let Json::Obj(mut old) = a.to_json() else {
                unreachable!("to_json builds an object")
            };
            old.insert(key.into(), value.clone());
            let text = Json::Obj(old).to_canonical();
            let back = JobSpec::parse(&json::parse(&text).expect("valid"))
                .unwrap_or_else(|e| panic!("{key}={value:?} must still parse: {e}"));
            assert_eq!(
                back.identity_hash(),
                a.identity_hash(),
                "{key}={value:?} must not change the job identity"
            );
            assert_eq!(back.to_json().to_canonical(), current);
        }
        assert!(
            a.identity_json()
                .to_canonical()
                .contains("\"presift\":false"),
            "every stored job id hashes the constant presift key"
        );
    }

    #[test]
    fn retired_cache_switch_maps_to_a_zero_budget() {
        // Specs written while caching had an on/off switch carry
        // `"cache":{"enabled":…}`: `false` parses to a zero budget, `true`
        // keeps the stored budget, neither changes the job identity, and
        // `to_json` writes the budget alone.
        let with_cache = |cache: Option<&str>| {
            let Json::Obj(mut doc) = spec().to_json() else {
                unreachable!("to_json builds an object")
            };
            match cache {
                Some(c) => doc.insert("cache".into(), json::parse(c).expect("valid")),
                None => doc.remove("cache"),
            };
            JobSpec::parse(&Json::Obj(doc)).expect("parses")
        };
        let bare = with_cache(None);
        let off = with_cache(Some(r#"{"enabled":false,"budget_bytes":4096}"#));
        let on = with_cache(Some(r#"{"enabled":true,"budget_bytes":4096}"#));
        assert_eq!(off.options.cache_budget, 0);
        assert_eq!(on.options.cache_budget, 4096);
        for back in [&off, &on] {
            assert_eq!(back.identity_hash(), bare.identity_hash());
        }
        assert_eq!(
            on.to_json().get("cache").map(Json::to_canonical).as_deref(),
            Some(r#"{"budget_bytes":4096}"#)
        );
    }

    #[test]
    fn identities_are_pinned() {
        // Job ids, report/5 artifacts and checkpoints written by earlier
        // releases must keep naming the same runs.
        use walshcheck_gadgets::suite::Benchmark;
        assert_eq!(
            JobSpec::new(Property::Sni(1)).identity_hash(),
            "a805925ca75467eb387037819cb44fe0e93ba13a5897ac06b4d10a3ca41897f5"
        );
        assert_eq!(
            checkpoint::fingerprint(
                &Benchmark::Dom(1).netlist(),
                Property::Sni(1),
                &VerifyOptions::default()
            ),
            "cf942171aef25895"
        );
    }

    #[test]
    fn sparse_submission_defaults() {
        let doc = json::parse(r#"{"property":{"kind":"pini","order":1}}"#).expect("valid");
        let s = JobSpec::parse(&doc).expect("parses");
        assert_eq!(s.property, Property::Pini(1));
        assert_eq!(s.threads, 1);
        assert_eq!(s.options.engine, EngineKind::Mapi);
        assert!(!s.rescue.enabled);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            r#"{}"#,
            r#"{"property":{"kind":"sni"}}"#,
            r#"{"property":{"kind":"sni","order":0}}"#,
            r#"{"property":{"kind":"nope","order":1}}"#,
            r#"{"property":{"kind":"sni","order":1},"engine":"cudd"}"#,
            r#"{"property":{"kind":"sni","order":1},"mode":7}"#,
            r#"{"property":{"kind":"sni","order":1},"sites":{"probe_model":"x"}}"#,
            r#"{"property":{"kind":"sni","order":1},"presift":true}"#,
            r#"{"property":{"kind":"sni","order":1},"cache":{"enabled":"no"}}"#,
        ] {
            let doc = json::parse(bad).expect("valid json");
            assert!(JobSpec::parse(&doc).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn job_runs_a_spec() {
        use walshcheck_circuit::builder::NetlistBuilder;
        let mut b = NetlistBuilder::new("job-demo");
        let x = b.secret("x");
        let a0 = b.share(x, 0);
        let a1 = b.share(x, 1);
        let r = b.random("r");
        let t = b.xor(a0, r);
        let q = b.xor(t, a1);
        let o = b.output("q");
        b.output_share(q, o, 0);
        let netlist = b.build().expect("valid");
        let mut job = Job::new(&netlist, JobSpec::new(Property::Sni(1))).expect("valid");
        let verdict = job.run();
        assert_eq!(verdict.outcome, crate::property::Outcome::Secure);
        assert!(netlist_sha256(&netlist).len() == 64);
    }
}
