//! # walshcheck-dd — decision diagrams for spectral verification
//!
//! An arena-based, hash-consed implementation of reduced ordered binary
//! decision diagrams ([`bdd::BddManager`]) and algebraic decision diagrams
//! ([`add::AddManager`]) in the style of CUDD, together with the spectral
//! machinery used by the probing-security verifier:
//!
//! * [`dyadic::Dyadic`] — exact dyadic rational arithmetic for normalized
//!   Walsh correlation coefficients;
//! * [`spectral`] — the Fujita Walsh–Hadamard transform on ADDs and a sparse
//!   per-BDD-node Walsh transform (the only transforms the engines run),
//!   plus a dense truth-table transform that the tests use as an oracle;
//! * [`threshold`] — cardinality-threshold BDDs used to build the
//!   non-interference relation matrix `T(α, ρ)`;
//! * [`anf`] — sparse algebraic normal form via the Möbius transform;
//! * [`fasthash`] — the fast multiplicative hasher behind the managers' hot
//!   tables, exported as [`FastMap`]/[`FastSet`] for other crates' hot paths.
//!
//! The managers' hot structures follow CUDD: per-variable open-addressed
//! unique subtables and fixed direct-mapped lossy apply caches (see
//! DESIGN.md §12 and the [`fasthash`] module docs).
//!
//! ## Node store
//!
//! Each manager owns its node store outright, as a CUDD manager does: the
//! arena, the unique tables and the apply caches live in the manager, and
//! handles are only meaningful for the manager that produced them. A
//! parallel verification run gives every scheduler worker its own managers.
//!
//! ## Example
//!
//! ```
//! use walshcheck_dd::add::AddManager;
//! use walshcheck_dd::bdd::BddManager;
//! use walshcheck_dd::dyadic::Dyadic;
//! use walshcheck_dd::spectral::walsh_add;
//! use walshcheck_dd::var::VarId;
//!
//! // Spectrum of f = a ∧ b: |W(α)| = 1/2 on every coordinate.
//! let mut bdds = BddManager::new(2);
//! let a = bdds.var(VarId(0));
//! let b = bdds.var(VarId(1));
//! let f = bdds.and(a, b);
//! let mut adds = AddManager::new(2);
//! let w = walsh_add(&bdds, &mut adds, f);
//! assert_eq!(*adds.eval(w, 0b00), Dyadic::new(1, -1));
//! assert_eq!(*adds.eval(w, 0b11), Dyadic::new(-1, -1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod add;
pub mod anf;
pub mod bdd;
pub mod budget;
pub mod dyadic;
pub mod fasthash;
pub mod spectral;
mod table;
pub mod threshold;
pub mod var;

pub use add::{Add, AddManager};
pub use bdd::{Bdd, BddManager};
pub use budget::CapacityExceeded;
pub use dyadic::Dyadic;
pub use fasthash::{FastHasher, FastMap, FastSet};
pub use var::{VarId, VarSet};

/// The minimal import surface for typical consumers: handle types, the two
/// managers, and the arithmetic/variable vocabulary.
///
/// ```
/// use walshcheck_dd::prelude::*;
///
/// let mut m = BddManager::new(2);
/// m.set_node_budget(Some(64));
/// let x = m.var(VarId(0));
/// let y = m.var(VarId(1));
/// assert_ne!(m.and(x, y), Bdd::FALSE);
/// ```
pub mod prelude {
    pub use crate::add::{Add, AddManager};
    pub use crate::bdd::{Bdd, BddManager};
    pub use crate::budget::CapacityExceeded;
    pub use crate::dyadic::Dyadic;
    pub use crate::var::{VarId, VarSet};
}
