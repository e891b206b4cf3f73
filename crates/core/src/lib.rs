//! # dmc-core
//!
//! The compiler pipeline of the `dmc` reproduction of Amarasinghe & Lam,
//! "Communication Optimization and Code Generation for Distributed Memory
//! Machines" (PLDI '93).
//!
//! Given an affine program, a computation decomposition per statement,
//! initial data decompositions, and a physical processor grid:
//!
//! 1. [`compile`] runs exact array data-flow analysis (Last Write Trees),
//!    derives communication sets (Theorems 2–4), and applies the §6
//!    optimizations selected in [`Options`];
//! 2. [`build_schedule`] lowers the result to a per-processor machine
//!    schedule with aggregated, multicast-merged messages anchored at the
//!    earliest-send / latest-receive points;
//! 3. [`run`] executes the schedule on the simulated distributed-memory
//!    machine — in values mode, together with the comparison of its final
//!    memory against the sequential interpreter's, this proves the plan
//!    correct (a stale copy is read without error; only the comparison
//!    shows it). A caller that already holds the plan counts its traffic
//!    with [`Schedule::message_stats`](dmc_machine::Schedule::message_stats)
//!    and runs it with [`simulate`], planning once.
//!
//! All of this runs through a fingerprinted stage graph (see [`session`]):
//! open a [`Session`] to compile many related inputs — parameter sweeps,
//! processor-count sweeps, incremental edits — and every stage whose
//! inputs did not change is served from the session's artifact store
//! instead of being recomputed. The one-shot functions above are thin
//! wrappers over a throwaway session, with identical outputs.
//!
//! ```no_run
//! use dmc_core::{compile, run, CompileInput, Options};
//! use dmc_decomp::{CompDecomp, ProcGrid};
//! use dmc_machine::MachineConfig;
//! use std::collections::{BTreeMap, HashMap};
//!
//! let program = dmc_ir::parse(
//!     "param T, N; array X[N + 1];
//!      for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }").unwrap();
//! let mut comps = BTreeMap::new();
//! comps.insert(0, CompDecomp::block_1d(0, "i", 32));
//! let input = CompileInput {
//!     program,
//!     comps,
//!     initial: HashMap::new(),
//!     grid: ProcGrid::line(4),
//! };
//! let compiled = compile(input, Options::full()).unwrap();
//! let result = run(&compiled, &[10, 127], &MachineConfig::ipsc860(), true, 1_000_000).unwrap();
//! println!("simulated time: {:.3} ms", result.stats.time * 1e3);
//! ```

#![warn(missing_docs)]

mod options;
mod passes;
mod pipeline;
pub mod session;
pub mod store;

#[cfg(test)]
mod tests;

pub use options::{Options, Strategy};
pub use pipeline::{build_schedule, compile, run, simulate, CompileError, CompileInput, Compiled};
pub use session::{ServeOutcome, Session, SessionStats, StageCount};
pub use store::{Artifact, ArtifactStore, StageId, StoreSource, StoreStats, CODEC_VERSION};
