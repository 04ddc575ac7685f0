//! # walshcheck-core — exact spectral verification of probing security
//!
//! The primary contribution of the reproduced paper: exact verification of
//! probing security, non-interference (NI), strong non-interference (SNI)
//! and probe-isolating non-interference (PINI) of masked gate-level
//! circuits, via Algebraic-Decision-Diagram analysis of Walsh spectra.
//!
//! The pipeline follows the paper's methodology:
//!
//! 1. **Unfold** the annotated netlist — every wire becomes a BDD
//!    ([`walshcheck_circuit::unfold()`]).
//! 2. **Transform & convolve** — base Walsh spectra are computed per probe
//!    function and combined per observation tuple by convolution
//!    ([`spectrum`]).
//! 3. **Check** — each row is tested against the relation matrix
//!    `T(α, ρ)` ([`tmatrix`]), either by scanning entries (LIL/MAP) or by a
//!    decision-diagram product (MAPI/FUJITA) ([`engine`]).
//!
//! Companion verifiers: an exhaustive distribution-based oracle
//! ([`exhaustive`], SILVER-like), a maskVerif-style heuristic
//! ([`heuristic`]), and TI uniformity checks ([`uniformity`]).
//!
//! ```
//! use walshcheck_core::{Property, Session};
//! use walshcheck_circuit::builder::NetlistBuilder;
//!
//! # fn main() -> Result<(), walshcheck_core::Error> {
//! // A refreshed pass-through: q = (a0 ⊕ r) ⊕ a1.
//! let mut b = NetlistBuilder::new("demo");
//! let x = b.secret("x");
//! let a0 = b.share(x, 0);
//! let a1 = b.share(x, 1);
//! let r = b.random("r");
//! let t = b.xor(a0, r);
//! let q = b.xor(t, a1);
//! let o = b.output("q");
//! b.output_share(q, o, 0);
//! let netlist = b.build()?;
//! let verdict = Session::new(&netlist)?.property(Property::Sni(1)).run();
//! assert_eq!(verdict.outcome, walshcheck_core::Outcome::Secure);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod exhaustive;
pub mod fault;
pub mod hash;
pub mod heuristic;
pub mod iofs;
mod isolate;
pub mod job;
pub mod json;
pub mod mask;
pub mod observe;
mod pcache;
pub mod property;
pub mod recover;
pub mod report;
mod scheduler;
pub mod session;
pub mod shutdown;
pub mod sites;
pub mod spectrum;
pub mod tmatrix;
pub mod uniformity;

pub use checkpoint::CheckpointConfig;
pub use engine::{EngineKind, Verifier, VerifyOptions, VerifyOptionsBuilder};
pub use error::Error;
pub use iofs::{IoFs, RealFs, TracingFs};
pub use job::{netlist_sha256, Job, JobSpec};
pub use mask::{Mask, VarMap};
pub use observe::{ChannelObserver, EnginePhase, ProgressEvent, ProgressObserver};
pub use property::{
    CheckMode, CheckStats, IncompleteReason, Outcome, Property, SkippedCombination, Verdict,
    Witness,
};
pub use recover::{
    RecoveryReport, RescueAttempt, RescueAttemptOutcome, RescueConfig, RescueResolution,
    RescueRung, RescuedCombination,
};
pub use report::{run_report_json, Report, ReportCacheConfig, REPORT_SCHEMA};
pub use session::{Session, WitnessSearch};
