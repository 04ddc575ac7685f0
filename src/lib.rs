//! # walshcheck — ADD-based spectral verification of probing security
//!
//! A from-scratch reproduction of *ADD-based Spectral Analysis of Probing
//! Security* (Molteni, Zaccaria, Ciriani — DATE 2022): exact verification of
//! probing security and (strong / probe-isolating) non-interference of
//! masked circuits via Walsh spectra stored in hash maps and Algebraic
//! Decision Diagrams.
//!
//! This facade crate re-exports the workspace components:
//!
//! * [`dd`] — BDD/ADD package, dyadic arithmetic, Walsh transforms;
//! * [`circuit`] — annotated netlists, ILANG front-end, unfolding;
//! * [`gadgets`] — the benchmark gadget generators (ISW, DOM, TI, Trichina,
//!   Keccak χ, refresh, composition);
//! * [`core`] — the verifier engines (LIL/MAP/MAPI/FUJITA), the exhaustive
//!   oracle, the heuristic checker and uniformity analysis.
//!
//! ## Quickstart
//!
//! ```
//! use walshcheck::prelude::*;
//!
//! # fn main() -> Result<(), walshcheck::core::Error> {
//! let dom1 = Benchmark::Dom(1).netlist();
//! let verdict = Session::new(&dom1)?.property(Property::Sni(1)).run();
//! assert!(verdict.secure);
//! # Ok(())
//! # }
//! ```
//!
//! [`Session`](core::Session) is the front door: it owns the prepared
//! verifier, exposes the builder-style run configuration (engine, mode,
//! threads, observer), and drives the work-stealing parallel scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use walshcheck_circuit as circuit;
pub use walshcheck_core as core;
pub use walshcheck_daemon as daemon;
pub use walshcheck_dd as dd;
pub use walshcheck_gadgets as gadgets;

/// The most common imports in one place.
pub mod prelude {
    pub use walshcheck_circuit::builder::NetlistBuilder;
    pub use walshcheck_circuit::glitch::ProbeModel;
    pub use walshcheck_circuit::ilang::{parse_ilang, write_ilang};
    pub use walshcheck_circuit::netlist::Netlist;
    pub use walshcheck_core::checkpoint::CheckpointConfig;
    pub use walshcheck_core::engine::{EngineKind, Verifier, VerifyOptions, VerifyOptionsBuilder};
    pub use walshcheck_core::error::Error;
    pub use walshcheck_core::job::{netlist_sha256, Job, JobSpec};
    pub use walshcheck_core::observe::{
        ChannelObserver, EnginePhase, ProgressEvent, ProgressObserver,
    };
    pub use walshcheck_core::property::{
        CheckMode, CheckStats, IncompleteReason, Outcome, Property, SkippedCombination, Verdict,
        Witness,
    };
    pub use walshcheck_core::recover::{
        RecoveryReport, RescueAttempt, RescueAttemptOutcome, RescueConfig, RescueResolution,
        RescueRung, RescuedCombination,
    };
    pub use walshcheck_core::session::{Session, WitnessSearch};
    pub use walshcheck_gadgets::suite::Benchmark;
}
