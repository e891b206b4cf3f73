//! Process-wide instrumentation and the one engine tunable.
//!
//! Every hot operation in this crate bumps an atomic counter here:
//! Fourier–Motzkin steps, integer-feasibility queries, branch-and-bound
//! nodes, memo-cache hits/misses, and the redundancy pre-filter outcomes.
//! The counters are cheap (relaxed atomics), always on, and cumulative for
//! the process; harnesses take a [`snapshot`] before and after a region and
//! diff the two ([`PolyStats::since`]).
//!
//! The memo caches and the redundancy pre-filters are always on. The only
//! tunable is the feasibility branch-and-bound budget, carried one way: a
//! [`Tuning`] pushed per thread ([`push_thread_tuning`]) and popped by its
//! guard. Two compiles with different budgets can run on different threads
//! concurrently because nothing process-wide is ever written; without a
//! push a thread runs under [`DEFAULT_FEASIBILITY_BUDGET`].
//!
//! A budget change that takes effect bumps a thread-local epoch, and
//! turning the work ledger on bumps a process-wide one; `epoch` is their
//! sum, so a memoized answer is served only under the budget and ledger
//! state it was computed in. Pushing the already-effective budget is free
//! (no invalidation).
//!
//! When [`dmc_obs`] tracing is active, feasibility-budget exhaustions are
//! bridged into the trace as `poly.budget_exhausted` events (diagnostic —
//! a warm memo cache may skip the query entirely, so their presence is
//! scheduling-dependent).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use dmc_obs as obs;

const R: Ordering = Ordering::Relaxed;

static FM_STEPS: AtomicU64 = AtomicU64::new(0);
static FEASIBILITY_CALLS: AtomicU64 = AtomicU64::new(0);
static FEASIBILITY_UNKNOWN: AtomicU64 = AtomicU64::new(0);
static BNB_NODES: AtomicU64 = AtomicU64::new(0);
static FEAS_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static FEAS_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static PROJ_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static PROJ_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static SCAN_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static SCAN_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static LEX_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static LEX_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static NEGATION_TESTS: AtomicU64 = AtomicU64::new(0);
static PREFILTER_DROPS: AtomicU64 = AtomicU64::new(0);
static PREFILTER_KEEPS: AtomicU64 = AtomicU64::new(0);
static CACHE_BYPASSES: AtomicU64 = AtomicU64::new(0);
static LEX_SPLITS: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static INLINE_SPILLS: AtomicU64 = AtomicU64::new(0);
static BATCH_SAVED: AtomicU64 = AtomicU64::new(0);
static SCAN_POINTS: AtomicU64 = AtomicU64::new(0);
static SCAN_RANGE_EVALS: AtomicU64 = AtomicU64::new(0);

static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's pushed tuning; `None` runs under the default budget.
    static THREAD_TUNING: Cell<Option<Tuning>> = const { Cell::new(None) };
    /// Invalidation epoch for budget changes local to this thread.
    static THREAD_EPOCH: Cell<u64> = const { Cell::new(0) };
    /// This thread's cumulative heap-allocation count (mirror of the
    /// global [`ALLOCS`] counter), read by the work ledger to attribute
    /// allocations to the operation open on this thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The default branch-and-bound budget of
/// [`Polyhedron::integer_feasibility`](crate::Polyhedron::integer_feasibility).
pub const DEFAULT_FEASIBILITY_BUDGET: u32 = 4_000;

/// Minimum constraint count for a system to be memoized; smaller ones are
/// solved afresh (counted as [`PolyStats::cache_bypasses`]). Set by a
/// sweep over {1, 2, 4, 6, 8} on the repo benchmark (EXPERIMENTS.md P19):
/// a warm `symbolic_corpus` pass takes 0.58 s at 8, 0.45 s at 6, 0.39 s at
/// 4 and the same 0.39 s at 2 and at 1 — systems that small cost as much
/// to encode and look up as to solve — so 4 it is, the fewest resident
/// entries among the fastest settings.
const CACHE_MIN_CONSTRAINTS: usize = 4;

/// A snapshot of the engine's cumulative counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolyStats {
    /// Fourier–Motzkin single-dimension elimination steps.
    pub fm_steps: u64,
    /// Top-level integer-feasibility queries.
    pub feasibility_calls: u64,
    /// Queries that exhausted their budget and returned `Unknown`.
    pub feasibility_unknown: u64,
    /// Branch-and-bound nodes visited inside feasibility queries.
    pub bnb_nodes: u64,
    /// Feasibility memo-cache hits.
    pub feas_cache_hits: u64,
    /// Feasibility memo-cache misses.
    pub feas_cache_misses: u64,
    /// Projection (`eliminate_dims`) memo-cache hits.
    pub proj_cache_hits: u64,
    /// Projection memo-cache misses.
    pub proj_cache_misses: u64,
    /// Scan ([`scan_bounds`](crate::scan_bounds)) memo-cache hits.
    pub scan_cache_hits: u64,
    /// Scan memo-cache misses.
    pub scan_cache_misses: u64,
    /// Parametric-lexopt ([`lexopt`](crate::lexopt)) memo-cache hits.
    pub lex_cache_hits: u64,
    /// Parametric-lexopt memo-cache misses.
    pub lex_cache_misses: u64,
    /// Exact negation tests run by `remove_redundant`.
    pub negation_tests: u64,
    /// Constraints dropped by the cheap pre-filters (no exact test needed).
    pub prefilter_drops: u64,
    /// Constraints kept by a verified witness point (no exact test needed).
    pub prefilter_keeps: u64,
    /// Memo-cache consults skipped because the system was too small to be
    /// worth memoizing (fewer than 4 constraints).
    pub cache_bypasses: u64,
    /// Parametric-lexmax case splits explored (one per non-empty piece of
    /// [`lexopt`](crate::lexopt)'s which-bound-is-tight disjunction).
    pub lex_splits: u64,
    /// Heap allocations performed by the constraint storage layer: every
    /// coefficient row that could not live in a [`LinExpr`](crate::LinExpr)
    /// inline buffer (creation past the inline width, or cloning a
    /// heap-backed row).
    pub allocs: u64,
    /// Inline-to-heap transitions: an operation on an inline coefficient
    /// row produced one wider than the inline buffer.
    pub inline_spills: u64,
    /// Feasibility queries answered by subset dominance inside
    /// [`batch_feasibility`](crate::batch_feasibility) instead of by the
    /// solver.
    pub batch_saved: u64,
    /// Points emitted by the scan kernel
    /// ([`ScanKernel::for_each`](crate::ScanKernel::for_each)).
    pub scan_points: u64,
    /// Level ranges the scan kernel evaluated to emit them; a ratio to
    /// [`scan_points`](Self::scan_points) far above a nest's depth means
    /// the nest loops over misses.
    pub scan_range_evals: u64,
}

impl PolyStats {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &PolyStats) -> PolyStats {
        PolyStats {
            fm_steps: self.fm_steps.saturating_sub(earlier.fm_steps),
            feasibility_calls: self
                .feasibility_calls
                .saturating_sub(earlier.feasibility_calls),
            feasibility_unknown: self
                .feasibility_unknown
                .saturating_sub(earlier.feasibility_unknown),
            bnb_nodes: self.bnb_nodes.saturating_sub(earlier.bnb_nodes),
            feas_cache_hits: self.feas_cache_hits.saturating_sub(earlier.feas_cache_hits),
            feas_cache_misses: self
                .feas_cache_misses
                .saturating_sub(earlier.feas_cache_misses),
            proj_cache_hits: self.proj_cache_hits.saturating_sub(earlier.proj_cache_hits),
            proj_cache_misses: self
                .proj_cache_misses
                .saturating_sub(earlier.proj_cache_misses),
            scan_cache_hits: self.scan_cache_hits.saturating_sub(earlier.scan_cache_hits),
            scan_cache_misses: self
                .scan_cache_misses
                .saturating_sub(earlier.scan_cache_misses),
            lex_cache_hits: self.lex_cache_hits.saturating_sub(earlier.lex_cache_hits),
            lex_cache_misses: self
                .lex_cache_misses
                .saturating_sub(earlier.lex_cache_misses),
            negation_tests: self.negation_tests.saturating_sub(earlier.negation_tests),
            prefilter_drops: self.prefilter_drops.saturating_sub(earlier.prefilter_drops),
            prefilter_keeps: self.prefilter_keeps.saturating_sub(earlier.prefilter_keeps),
            cache_bypasses: self.cache_bypasses.saturating_sub(earlier.cache_bypasses),
            lex_splits: self.lex_splits.saturating_sub(earlier.lex_splits),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            inline_spills: self.inline_spills.saturating_sub(earlier.inline_spills),
            batch_saved: self.batch_saved.saturating_sub(earlier.batch_saved),
            scan_points: self.scan_points.saturating_sub(earlier.scan_points),
            scan_range_evals: self
                .scan_range_evals
                .saturating_sub(earlier.scan_range_evals),
        }
    }
}

/// Reads every counter.
pub fn snapshot() -> PolyStats {
    PolyStats {
        fm_steps: FM_STEPS.load(R),
        feasibility_calls: FEASIBILITY_CALLS.load(R),
        feasibility_unknown: FEASIBILITY_UNKNOWN.load(R),
        bnb_nodes: BNB_NODES.load(R),
        feas_cache_hits: FEAS_CACHE_HITS.load(R),
        feas_cache_misses: FEAS_CACHE_MISSES.load(R),
        proj_cache_hits: PROJ_CACHE_HITS.load(R),
        proj_cache_misses: PROJ_CACHE_MISSES.load(R),
        scan_cache_hits: SCAN_CACHE_HITS.load(R),
        scan_cache_misses: SCAN_CACHE_MISSES.load(R),
        lex_cache_hits: LEX_CACHE_HITS.load(R),
        lex_cache_misses: LEX_CACHE_MISSES.load(R),
        negation_tests: NEGATION_TESTS.load(R),
        prefilter_drops: PREFILTER_DROPS.load(R),
        prefilter_keeps: PREFILTER_KEEPS.load(R),
        cache_bypasses: CACHE_BYPASSES.load(R),
        lex_splits: LEX_SPLITS.load(R),
        allocs: ALLOCS.load(R),
        inline_spills: INLINE_SPILLS.load(R),
        batch_saved: BATCH_SAVED.load(R),
        scan_points: SCAN_POINTS.load(R),
        scan_range_evals: SCAN_RANGE_EVALS.load(R),
    }
}

/// Resets every counter to zero.
pub fn reset() {
    for c in [
        &FM_STEPS,
        &FEASIBILITY_CALLS,
        &FEASIBILITY_UNKNOWN,
        &BNB_NODES,
        &FEAS_CACHE_HITS,
        &FEAS_CACHE_MISSES,
        &PROJ_CACHE_HITS,
        &PROJ_CACHE_MISSES,
        &SCAN_CACHE_HITS,
        &SCAN_CACHE_MISSES,
        &LEX_CACHE_HITS,
        &LEX_CACHE_MISSES,
        &NEGATION_TESTS,
        &PREFILTER_DROPS,
        &PREFILTER_KEEPS,
        &CACHE_BYPASSES,
        &LEX_SPLITS,
        &ALLOCS,
        &INLINE_SPILLS,
        &BATCH_SAVED,
        &SCAN_POINTS,
        &SCAN_RANGE_EVALS,
    ] {
        c.store(0, R);
    }
}

pub(crate) fn count_fm_step() {
    FM_STEPS.fetch_add(1, R);
}
pub(crate) fn count_feasibility_call() {
    FEASIBILITY_CALLS.fetch_add(1, R);
}
pub(crate) fn count_feasibility_unknown() {
    FEASIBILITY_UNKNOWN.fetch_add(1, R);
    if obs::enabled() {
        obs::event_nondet(
            "poly.budget_exhausted",
            vec![obs::field("budget", feasibility_budget())],
        );
    }
}
pub(crate) fn count_bnb_node() {
    BNB_NODES.fetch_add(1, R);
}
pub(crate) fn count_feas_cache(hit: bool) {
    if hit {
        &FEAS_CACHE_HITS
    } else {
        &FEAS_CACHE_MISSES
    }
    .fetch_add(1, R);
}
pub(crate) fn count_proj_cache(hit: bool) {
    if hit {
        &PROJ_CACHE_HITS
    } else {
        &PROJ_CACHE_MISSES
    }
    .fetch_add(1, R);
}
pub(crate) fn count_scan_cache(hit: bool) {
    if hit {
        &SCAN_CACHE_HITS
    } else {
        &SCAN_CACHE_MISSES
    }
    .fetch_add(1, R);
}
pub(crate) fn count_lex_cache(hit: bool) {
    if hit {
        &LEX_CACHE_HITS
    } else {
        &LEX_CACHE_MISSES
    }
    .fetch_add(1, R);
}
pub(crate) fn count_negation_test() {
    NEGATION_TESTS.fetch_add(1, R);
}
pub(crate) fn count_prefilter_drop() {
    PREFILTER_DROPS.fetch_add(1, R);
}
pub(crate) fn count_prefilter_keep() {
    PREFILTER_KEEPS.fetch_add(1, R);
}
pub(crate) fn count_lex_split() {
    LEX_SPLITS.fetch_add(1, R);
}
pub(crate) fn count_alloc() {
    ALLOCS.fetch_add(1, R);
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}
pub(crate) fn count_inline_spill() {
    INLINE_SPILLS.fetch_add(1, R);
}
pub(crate) fn count_batch_saved() {
    BATCH_SAVED.fetch_add(1, R);
}

/// One finished enumeration's totals, added once (not per node).
pub(crate) fn count_scan(points: u64, range_evals: u64) {
    SCAN_POINTS.fetch_add(points, R);
    SCAN_RANGE_EVALS.fetch_add(range_evals, R);
}

/// This thread's cumulative allocation count. The work ledger reads it on
/// operation open and close; the delta is the operation's (inclusive)
/// allocation footprint.
pub(crate) fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// The engine's tuning: the feasibility budget, carried as a value so
/// callers that must not interfere with each other — concurrent compiles
/// with different `Options` — install it per thread
/// ([`push_thread_tuning`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Branch-and-bound budget for integer-feasibility queries. A budget
    /// of 0 makes every query return `Unknown` immediately
    /// (conservatively treated as feasible).
    pub feasibility_budget: u32,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            feasibility_budget: DEFAULT_FEASIBILITY_BUDGET,
        }
    }
}

/// Installs `tuning` as this thread's engine tuning until the returned
/// guard drops (which restores the previous push, or the default).
///
/// If the effective budget actually changes, the thread-local cache epoch
/// is bumped so memoized answers computed under the old budget are not
/// served under the new one; pushing the already-effective budget is free.
#[must_use = "the tuning is uninstalled when the guard drops"]
pub fn push_thread_tuning(tuning: Tuning) -> ThreadTuningGuard {
    ThreadTuningGuard {
        prev: install(Some(tuning)),
        _not_send: PhantomData,
    }
}

/// Swaps this thread's tuning, bumping the thread epoch iff the
/// effective budget changed; returns the previous value.
fn install(tuning: Option<Tuning>) -> Option<Tuning> {
    let before = feasibility_budget();
    let prev = THREAD_TUNING.with(|c| c.replace(tuning));
    if feasibility_budget() != before {
        THREAD_EPOCH.with(|c| c.set(c.get() + 1));
    }
    prev
}

/// RAII restore for [`push_thread_tuning`] (panic-safe, nestable).
/// `!Send`: it must drop on the thread that pushed.
#[derive(Debug)]
pub struct ThreadTuningGuard {
    prev: Option<Tuning>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ThreadTuningGuard {
    fn drop(&mut self) {
        install(self.prev);
    }
}

/// Whether a system of `n_constraints` is worth memoizing; counts a
/// bypass when it is not.
pub(crate) fn cache_admits(n_constraints: usize) -> bool {
    if n_constraints < CACHE_MIN_CONSTRAINTS {
        CACHE_BYPASSES.fetch_add(1, R);
        return false;
    }
    true
}

/// The branch-and-bound budget for integer-feasibility queries in effect
/// on this thread.
pub fn feasibility_budget() -> u32 {
    THREAD_TUNING
        .with(Cell::get)
        .unwrap_or_default()
        .feasibility_budget
}

/// The cache-invalidation epoch as seen by this thread: the process-wide
/// epoch (bumped on ledger starts) plus the thread-local epoch (bumped on
/// effective budget changes). Both components only grow, so the sum is
/// monotonic per thread.
pub(crate) fn epoch() -> u64 {
    EPOCH.load(R).wrapping_add(THREAD_EPOCH.with(Cell::get))
}

/// Invalidates every thread's memo caches without changing the budget.
/// Used when the work ledger turns on: entries cached while the ledger was
/// off carry no charged cost, so they must not be served under it (see
/// [`ledger`](crate::ledger)).
pub(crate) fn bump_epoch() {
    EPOCH.fetch_add(1, R);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let before = snapshot();
        count_fm_step();
        count_fm_step();
        count_bnb_node();
        let d = snapshot().since(&before);
        assert!(d.fm_steps >= 2);
        assert!(d.bnb_nodes >= 1);
    }

    #[test]
    fn size_gate_counts_bypasses() {
        let before = snapshot();
        assert!(!cache_admits(CACHE_MIN_CONSTRAINTS - 1), "below: bypass");
        assert!(cache_admits(CACHE_MIN_CONSTRAINTS), "at the threshold");
        // Other tests bypass concurrently; this one contributed at least 1.
        assert!(snapshot().since(&before).cache_bypasses >= 1);
    }

    fn thread_epoch() -> u64 {
        THREAD_EPOCH.with(Cell::get)
    }

    fn budget(feasibility_budget: u32) -> Tuning {
        Tuning { feasibility_budget }
    }

    #[test]
    fn thread_tuning_overrides_budget_and_restores() {
        // A dedicated thread so no other test's thread state interferes.
        std::thread::spawn(|| {
            let e0 = thread_epoch();
            let g = push_thread_tuning(budget(77));
            assert_eq!(feasibility_budget(), 77);
            assert!(thread_epoch() > e0, "an effective change must invalidate");

            // Pushing the already-effective budget is free (no
            // invalidation), nested, and unwinds in order.
            let e1 = thread_epoch();
            let same = push_thread_tuning(budget(77));
            assert_eq!(thread_epoch(), e1);
            drop(same);
            assert_eq!(thread_epoch(), e1);

            let inner = push_thread_tuning(budget(5));
            assert_eq!(feasibility_budget(), 5);
            assert!(thread_epoch() > e1);
            drop(inner);
            assert_eq!(feasibility_budget(), 77, "inner pop restores outer tuning");

            let e2 = thread_epoch();
            drop(g);
            assert!(thread_epoch() > e2, "popping the override must invalidate");
            assert_eq!(feasibility_budget(), DEFAULT_FEASIBILITY_BUDGET);

            // Pushing the default over no push changes nothing either.
            let e3 = thread_epoch();
            drop(push_thread_tuning(Tuning::default()));
            assert_eq!(thread_epoch(), e3);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn thread_tuning_is_thread_local() {
        std::thread::spawn(|| {
            let _g = push_thread_tuning(budget(99));
            assert_eq!(feasibility_budget(), 99);
            // A freshly spawned thread does not inherit the push.
            std::thread::spawn(|| {
                assert_eq!(feasibility_budget(), DEFAULT_FEASIBILITY_BUDGET);
            })
            .join()
            .unwrap();
        })
        .join()
        .unwrap();
    }
}
