//! # dmc-ir
//!
//! The affine program representation for the `dmc` compiler — the domain of
//! Amarasinghe & Lam (PLDI '93, §4.1): sequences of possibly imperfectly
//! nested loops whose bounds and array subscripts are affine functions of
//! outer loop indices and symbolic constants.
//!
//! The crate provides:
//!
//! * [`Aff`] — symbolic affine expressions over named variables, lowered to
//!   positional [`dmc_polyhedra::LinExpr`]s on demand;
//! * [`Program`], [`Node`], [`Loop`], [`Statement`] — the program tree, plus
//!   per-statement context extraction ([`Program::statements`]) with domains
//!   as polyhedra and textual-position ordering;
//! * [`builder`] — ergonomic constructors for writing programs in Rust;
//! * [`parse`] — a small Fortran-like textual front end;
//! * [`interp`] — a sequential reference interpreter. It is the correctness
//!   oracle for the distributed execution, and its traced mode
//!   ([`interp::run_traced`]) records the producing write of every dynamic
//!   read — the ground truth that the Last Write Tree analysis is tested
//!   against.
//!
//! ## Example
//!
//! ```
//! use std::collections::HashMap;
//!
//! let program = dmc_ir::parse(r"
//!     param N;
//!     array A[N];
//!     for i = 1 to N - 1 { A[i] = A[i - 1] + 1.0; }
//! ").unwrap();
//! let mut params = HashMap::new();
//! params.insert("N".to_string(), 4i128);
//! let mem = dmc_ir::interp::run(&program, &params).unwrap();
//! let a0 = mem.array("A").unwrap().get(&[0]).unwrap();
//! assert_eq!(mem.array("A").unwrap().get(&[3]).unwrap(), a0 + 3.0);
//! ```

#![warn(missing_docs)]

mod aff;
pub mod builder;
pub mod codec;
pub mod fp;
pub mod interp;
pub mod lower;
mod parser;
mod program;

pub use aff::Aff;
pub use fp::Fingerprint;
pub use parser::{parse, ParseError};
pub use program::{
    ArrayDecl, ArrayRef, BinOp, Loop, LoopMeta, Node, Program, ScalarExpr, Statement, StmtInfo,
};
