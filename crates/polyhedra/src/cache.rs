//! Per-thread memoization of the expensive polyhedral queries.
//!
//! Every pipeline stage (Last Write Trees, communication sets, the §5.1
//! negation test, scanning) bottoms out in the same two primitives —
//! integer feasibility and Fourier–Motzkin projection — and the pipeline
//! re-asks the *same* queries many times: per constraint, per statement,
//! per read. This module caches their answers.
//!
//! Two kinds of key are used:
//!
//! * **Feasibility** is order-insensitive (the answer depends only on the
//!   constraint *set*), so it is keyed by the sorted [`CanonicalKey`] —
//!   maximizing hit rate across differently-built but equal systems.
//! * **Projection and redundancy removal** return constraint *lists* whose
//!   order feeds downstream code generation, so they are keyed by the exact
//!   constraint sequence. A hit therefore returns bit-for-bit the value the
//!   uncached computation would produce, keeping cached and uncached
//!   pipelines byte-identical.
//!
//! Caches are thread-local (no locks on the hot path; a compile runs on
//! one thread, so every stage of it — and every later compile on that
//! thread — shares them), bounded (cleared wholesale past a size
//! cap), and invalidated whenever the effective feasibility budget changes
//! or the work ledger turns on (see [`stats`]'s epoch).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::polyhedron::Feasibility;
use crate::stats;
use crate::Constraint;

/// An order-insensitive, hashable fingerprint of a constraint system:
/// the space arity plus the normalized constraint rows, sorted.
///
/// Two polyhedra with equal keys describe the same integer set (dimension
/// names are irrelevant to the arithmetic). Obtained from
/// [`Polyhedron::canonical_key`](crate::Polyhedron::canonical_key).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey {
    pub(crate) dims: usize,
    pub(crate) contradiction: bool,
    /// `(is_eq, coefficients, constant)` rows in sorted order.
    pub(crate) rows: Vec<(bool, Vec<i128>, i128)>,
}

/// Exact-sequence key: arity + the constraint list in construction order.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct SeqKey {
    pub(crate) dims: usize,
    pub(crate) contradiction: bool,
    pub(crate) rows: Vec<Constraint>,
}

/// A cached result polyhedron, stored space-free (the caller re-attaches
/// its own space; projection and redundancy removal never change spaces).
#[derive(Clone)]
pub(crate) struct CachedPoly {
    pub(crate) cons: Vec<Constraint>,
    pub(crate) contradiction: bool,
    /// Charged work units of the original (miss) computation, replayed by
    /// the [`ledger`](crate::ledger) on every hit so charged work stays
    /// cache-state-independent.
    pub(crate) charged: u64,
}

/// Entries per thread-local map before it is dropped wholesale.
const CAP: usize = 1 << 14;

struct Store<K, V> {
    epoch: u64,
    map: HashMap<K, V>,
}

impl<K: std::hash::Hash + Eq, V: Clone> Store<K, V> {
    fn new() -> Self {
        Store {
            epoch: stats::epoch(),
            map: HashMap::new(),
        }
    }

    fn sync(&mut self) {
        let e = stats::epoch();
        if self.epoch != e {
            self.epoch = e;
            self.map.clear();
        }
    }

    fn get(&mut self, k: &K) -> Option<V> {
        self.sync();
        self.map.get(k).cloned()
    }

    fn put(&mut self, k: K, v: V) {
        self.sync();
        if self.map.len() >= CAP {
            self.map.clear();
        }
        self.map.insert(k, v);
    }
}

thread_local! {
    static FEAS: RefCell<Store<CanonicalKey, (Feasibility, u64)>> = RefCell::new(Store::new());
    static PROJ: RefCell<Store<(SeqKey, Vec<usize>), CachedPoly>> = RefCell::new(Store::new());
    static REDUND: RefCell<Store<SeqKey, CachedPoly>> = RefCell::new(Store::new());
}

pub(crate) fn feas_get(k: &CanonicalKey) -> Option<(Feasibility, u64)> {
    FEAS.with(|c| c.borrow_mut().get(k))
}

pub(crate) fn feas_put(k: CanonicalKey, v: (Feasibility, u64)) {
    FEAS.with(|c| c.borrow_mut().put(k, v));
}

pub(crate) fn proj_get(k: &(SeqKey, Vec<usize>)) -> Option<CachedPoly> {
    PROJ.with(|c| c.borrow_mut().get(k))
}

pub(crate) fn proj_put(k: (SeqKey, Vec<usize>), v: CachedPoly) {
    PROJ.with(|c| c.borrow_mut().put(k, v));
}

pub(crate) fn redund_get(k: &SeqKey) -> Option<CachedPoly> {
    REDUND.with(|c| c.borrow_mut().get(k))
}

pub(crate) fn redund_put(k: SeqKey, v: CachedPoly) {
    REDUND.with(|c| c.borrow_mut().put(k, v));
}

/// Drops this thread's memo caches (counters are untouched). Mostly useful
/// for benchmarking cold-cache behavior.
pub fn clear_thread_caches() {
    FEAS.with(|c| c.borrow_mut().map.clear());
    PROJ.with(|c| c.borrow_mut().map.clear());
    REDUND.with(|c| c.borrow_mut().map.clear());
}
