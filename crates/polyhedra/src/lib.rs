//! # dmc-polyhedra
//!
//! Exact integer polyhedral arithmetic for the `dmc` distributed-memory
//! compiler — the uniform framework of Amarasinghe & Lam (PLDI '93), where
//! data decompositions, computation decompositions and data-flow information
//! are all systems of linear inequalities, and code generation reduces to
//! projecting polyhedra onto lower-dimensional spaces (§4–5 of the paper).
//!
//! The crate provides:
//!
//! * [`Space`], [`LinExpr`], [`Constraint`], [`Polyhedron`] — the basic
//!   representation (all coefficients are exact `i128` integers);
//! * Fourier–Motzkin elimination ([`Polyhedron::eliminate_dim`]) with
//!   superfluous-constraint removal by the paper's negation test
//!   ([`Polyhedron::remove_redundant`]);
//! * integer feasibility ([`Polyhedron::integer_feasibility`]) via exact
//!   equality elimination, real/dark shadows and branch-and-bound;
//! * polyhedron scanning ([`scan_bounds`]) à la Ancourt–Irigoin, producing
//!   the loop bounds that enumerate all integer solutions lexicographically;
//! * parametric lexicographic optimization ([`lexopt`]) — the engine behind
//!   exact array data-flow analysis (Last Write Trees);
//! * set difference ([`Polyhedron::subtract`]) into disjoint convex pieces.
//!
//! ## Example
//!
//! ```
//! use dmc_polyhedra::{Polyhedron, Space, DimKind, LinExpr, Constraint, scan_bounds};
//!
//! // { (i, j) : 0 <= i <= 3, 0 <= j <= i }
//! let s = Space::from_dims([("i", DimKind::Index), ("j", DimKind::Index)]);
//! let mut p = Polyhedron::universe(s);
//! p.add(Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)));
//! p.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 0], 3)));
//! p.add(Constraint::ge(LinExpr::from_coeffs(vec![0, 1], 0)));
//! p.add(Constraint::ge(LinExpr::from_coeffs(vec![1, -1], 0)));
//! let nest = scan_bounds(&p, &[0, 1])?;
//! let points = nest.enumerate(&[0, 0], 1000)?;
//! assert_eq!(points.len(), 4 + 3 + 2 + 1);
//! # Ok::<(), dmc_polyhedra::PolyError>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

pub mod cache;
pub mod codec;
pub mod ledger;
pub mod num;
pub mod stats;

mod constraint;
mod lexopt;
mod linexpr;
mod polyhedron;
mod scan;
mod space;

pub use constraint::{Constraint, ConstraintKind, Normalized};
pub use ledger::PolyStats;
pub use lexopt::{lexopt, lexopt_uncached, Direction, LexError, LexOpt, LexPiece};
pub use linexpr::LinExpr;
pub use polyhedron::{Feasibility, Polyhedron};
pub use scan::{
    scan_bounds, scan_bounds_uncached, Bound, ScanKernel, ScanNest, ScanRun, VarBounds,
};
pub use space::{Dim, DimKind, Space};

/// Errors produced by polyhedral arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolyError {
    /// An `i128` coefficient computation overflowed, or a scan's values
    /// would leave the ±2^62 range its compiled `i64` kernel is proved in
    /// ([`ScanNest::compile`]).
    Overflow,
    /// A scan reached a level of the given dimension with no lower or no
    /// upper bound, or with a range too wide to iterate.
    Unbounded(usize),
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyError::Overflow => write!(f, "integer coefficient overflow"),
            PolyError::Unbounded(d) => write!(f, "scan of dimension {d} is unbounded"),
        }
    }
}

impl std::error::Error for PolyError {}
