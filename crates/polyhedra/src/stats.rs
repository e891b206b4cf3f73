//! The engine's one budget, and the names its counters are read by.
//!
//! The counters live in the [`ledger`](crate::ledger), the engine's one
//! work account, kept per thread; [`PolyStats`] and [`snapshot`] are
//! re-exported here, where harnesses read them: take a [`snapshot`]
//! before and after a region and diff the two ([`PolyStats::since`]).
//! A snapshot sees the calling thread's work only, so compiles on
//! different threads each read exactly their own.
//!
//! Nothing here is tunable. The memo caches and the redundancy pre-filters
//! are always on, and the feasibility branch-and-bound budget is the
//! constant [`FEASIBILITY_BUDGET`]: every query a process asks runs under
//! the same budget, so a memoized answer is always one that budget
//! computed. A query that exhausts it answers `Unknown`, is counted once
//! ([`PolyStats::feasibility_unknown`]) and is never memoized.

pub use crate::ledger::{snapshot, PolyStats};

/// The branch-and-bound budget of
/// [`Polyhedron::integer_feasibility`](crate::Polyhedron::integer_feasibility).
/// [`Polyhedron::integer_feasibility_with_budget`](crate::Polyhedron::integer_feasibility_with_budget)
/// takes another one, for tests that exhaust it; a budget of 0 makes every
/// query answer `Unknown` at once (conservatively treated as feasible).
pub const FEASIBILITY_BUDGET: u32 = 4_000;
