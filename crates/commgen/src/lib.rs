//! # dmc-commgen
//!
//! Communication-set construction and optimization for distributed memory
//! machines (paper §4.4 and §6).
//!
//! Given Last Write Trees ([`dmc_dataflow`]) and computation/data
//! decompositions ([`dmc_decomp`]), this crate derives the exact sets of
//! `(i_r, p_r, i_s, p_s, a)` tuples that must be communicated:
//!
//! * [`comm_from_leaf`] — Theorem 3, the value-centric sets relating
//!   producer and consumer iterations through a last-write relation;
//! * [`comm_from_initial`] — Theorems 2/4, data whose sender is the owner
//!   under an initial data decomposition (live-in values, and the
//!   location-centric fallback);
//! * [`eliminate_self_reuse`] (§6.1.1), [`eliminate_already_local`] /
//!   [`unique_sender`] (§6.1.3) — redundant-transfer elimination;
//! * [`aggregate_messages`] (§6.2) — message aggregation at the dependence
//!   level, with identical pack/unpack orders, and [`fold_messages`], the
//!   planner's one pass from a set's scan to its chunks, legality splits,
//!   multicast groups and payloads;
//! * [`is_multicast`] (§6.2.1) — multicast detection.

#![warn(missing_docs)]

pub mod codec;

mod commset;
mod fold;
mod opt;

pub use commset::{
    comm_from_initial, comm_from_leaf, CommDims, CommElem, CommError, CommScan, CommSet, ElemRow,
    SenderKind,
};
pub use fold::{fold_messages, Chunk, FoldSpec, Folded};
pub use opt::{
    aggregate_messages, eliminate_already_local, eliminate_cross_set_reuse, eliminate_self_reuse,
    eliminate_self_reuse_from, fold_receivers, is_multicast, unique_sender, Message, Messages,
    OptError,
};
