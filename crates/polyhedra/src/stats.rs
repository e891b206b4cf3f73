//! Process-wide instrumentation and tunables for the polyhedral engine.
//!
//! Every hot operation in this crate bumps an atomic counter here:
//! Fourier–Motzkin steps, integer-feasibility queries, branch-and-bound
//! nodes, memo-cache hits/misses, and the redundancy pre-filter outcomes.
//! The counters are cheap (relaxed atomics), always on, and cumulative for
//! the process; harnesses take a [`snapshot`] before and after a region and
//! diff the two ([`PolyStats::since`]).
//!
//! The module also holds the engine's runtime knobs — the feasibility
//! branch-and-bound budget, the enable switches for the memo caches and
//! the redundancy pre-filters, and the memoization size threshold
//! ([`cache_min_constraints`]) — so callers (notably `dmc_core::Options`)
//! can tune the engine without threading parameters through every call
//! site. Changing a knob bumps an internal epoch that invalidates the
//! per-thread memo caches.
//!
//! ## Process-wide knobs vs. per-thread tuning
//!
//! The knobs exist at two layers:
//!
//! * the **process-wide defaults** (the atomics behind [`set_feasibility_budget`]
//!   &c.) — ambient configuration for code that calls the engine directly;
//! * an optional **per-thread [`Tuning`] override**
//!   ([`push_thread_tuning`]) — an explicit, scoped value consulted *first*
//!   by every getter. This is what compilation sessions use: two sessions
//!   with different `Options` can run on different threads concurrently
//!   without racing on the globals, because neither ever mutates them.
//!
//! Changing either layer invalidates the relevant memo caches: global knob
//! changes bump a process-wide epoch, thread-tuning changes bump a
//! *thread-local* epoch, and [`epoch`] is the sum — so a cached answer is
//! only served while both the ambient defaults and the thread's override
//! are exactly what they were when it was computed. Pushing a `Tuning`
//! equal to the currently-effective values is free (no invalidation).
//!
//! Knob changes are meant to be scoped: [`KnobGuard::capture`] snapshots
//! every knob and restores them on drop (panic-safe), so a compile
//! that tunes the engine cannot leak its settings into the next one.
//!
//! The remaining deliberately process-wide state (not covered by
//! [`Tuning`], and safe because it is either append-only or scoped to a
//! thread already): the cumulative [`PolyStats`] counters (monotonic,
//! shared by design — harnesses diff snapshots), the per-thread memo
//! caches themselves, and the per-thread work ledger.
//!
//! When [`dmc_obs`] tracing is active, knob changes and feasibility-budget
//! exhaustions are bridged into the trace as `poly.knob` (deterministic)
//! and `poly.budget_exhausted` (diagnostic — a warm memo cache may skip
//! the query entirely, so its presence is scheduling-dependent) events.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

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
static REDUND_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static REDUND_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static NEGATION_TESTS: AtomicU64 = AtomicU64::new(0);
static PREFILTER_DROPS: AtomicU64 = AtomicU64::new(0);
static PREFILTER_KEEPS: AtomicU64 = AtomicU64::new(0);
static CACHE_BYPASSES: AtomicU64 = AtomicU64::new(0);
static LEX_SPLITS: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CONS_CLONED: AtomicU64 = AtomicU64::new(0);
static INLINE_SPILLS: AtomicU64 = AtomicU64::new(0);
static BATCH_SAVED: AtomicU64 = AtomicU64::new(0);
static SCAN_POINTS: AtomicU64 = AtomicU64::new(0);
static SCAN_RANGE_EVALS: AtomicU64 = AtomicU64::new(0);

static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);
static PREFILTERS_ENABLED: AtomicBool = AtomicBool::new(true);
static FEAS_BUDGET: AtomicU32 = AtomicU32::new(DEFAULT_FEASIBILITY_BUDGET);
static CACHE_MIN_CONSTRAINTS: AtomicU32 = AtomicU32::new(DEFAULT_CACHE_MIN_CONSTRAINTS);
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's explicit tuning, consulted before the globals.
    static THREAD_TUNING: Cell<Option<Tuning>> = const { Cell::new(None) };
    /// Invalidation epoch for tuning changes local to this thread.
    static THREAD_EPOCH: Cell<u64> = const { Cell::new(0) };
    /// This thread's cumulative heap-allocation count (mirror of the
    /// global [`ALLOCS`] counter), read by the work ledger to attribute
    /// allocations to the operation open on this thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The default branch-and-bound budget of
/// [`Polyhedron::integer_feasibility`](crate::Polyhedron::integer_feasibility).
pub const DEFAULT_FEASIBILITY_BUDGET: u32 = 4_000;

/// Default minimum constraint count for a system to be worth memoizing.
/// Tiny systems are solved faster than their canonical cache key can be
/// built and hashed, so the caches skip them (counted as
/// [`PolyStats::cache_bypasses`]).
pub const DEFAULT_CACHE_MIN_CONSTRAINTS: u32 = 8;

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
    /// Redundancy-removal memo-cache hits.
    pub redund_cache_hits: u64,
    /// Redundancy-removal memo-cache misses.
    pub redund_cache_misses: u64,
    /// Exact negation tests run by `remove_redundant`.
    pub negation_tests: u64,
    /// Constraints dropped by the cheap pre-filters (no exact test needed).
    pub prefilter_drops: u64,
    /// Constraints kept by a verified witness point (no exact test needed).
    pub prefilter_keeps: u64,
    /// Memo-cache consults skipped because the system was smaller than
    /// the [`cache_min_constraints`] threshold.
    pub cache_bypasses: u64,
    /// Parametric-lexmax case splits explored (one per non-empty piece of
    /// [`lexopt`](crate::lexopt)'s which-bound-is-tight disjunction).
    pub lex_splits: u64,
    /// Heap allocations performed by the constraint storage layer: every
    /// coefficient row that could not live in a [`LinExpr`](crate::LinExpr)
    /// inline buffer (creation past the inline width, or cloning a
    /// heap-backed row).
    pub allocs: u64,
    /// [`Constraint`](crate::Constraint) clones (inline or spilled).
    pub cons_cloned: u64,
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
            redund_cache_hits: self
                .redund_cache_hits
                .saturating_sub(earlier.redund_cache_hits),
            redund_cache_misses: self
                .redund_cache_misses
                .saturating_sub(earlier.redund_cache_misses),
            negation_tests: self.negation_tests.saturating_sub(earlier.negation_tests),
            prefilter_drops: self.prefilter_drops.saturating_sub(earlier.prefilter_drops),
            prefilter_keeps: self.prefilter_keeps.saturating_sub(earlier.prefilter_keeps),
            cache_bypasses: self.cache_bypasses.saturating_sub(earlier.cache_bypasses),
            lex_splits: self.lex_splits.saturating_sub(earlier.lex_splits),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            cons_cloned: self.cons_cloned.saturating_sub(earlier.cons_cloned),
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
        redund_cache_hits: REDUND_CACHE_HITS.load(R),
        redund_cache_misses: REDUND_CACHE_MISSES.load(R),
        negation_tests: NEGATION_TESTS.load(R),
        prefilter_drops: PREFILTER_DROPS.load(R),
        prefilter_keeps: PREFILTER_KEEPS.load(R),
        cache_bypasses: CACHE_BYPASSES.load(R),
        lex_splits: LEX_SPLITS.load(R),
        allocs: ALLOCS.load(R),
        cons_cloned: CONS_CLONED.load(R),
        inline_spills: INLINE_SPILLS.load(R),
        batch_saved: BATCH_SAVED.load(R),
        scan_points: SCAN_POINTS.load(R),
        scan_range_evals: SCAN_RANGE_EVALS.load(R),
    }
}

/// Resets every counter to zero (the knobs are untouched).
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
        &REDUND_CACHE_HITS,
        &REDUND_CACHE_MISSES,
        &NEGATION_TESTS,
        &PREFILTER_DROPS,
        &PREFILTER_KEEPS,
        &CACHE_BYPASSES,
        &LEX_SPLITS,
        &ALLOCS,
        &CONS_CLONED,
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
pub(crate) fn count_redund_cache(hit: bool) {
    if hit {
        &REDUND_CACHE_HITS
    } else {
        &REDUND_CACHE_MISSES
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
pub(crate) fn count_cons_cloned() {
    CONS_CLONED.fetch_add(1, R);
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

/// A complete, explicit set of the engine tunables.
///
/// A `Tuning` is the value-typed form of the four process-wide knobs. It
/// exists so callers that must not interfere with each other — concurrent
/// compilation sessions with different `Options` — can carry their tuning
/// as data and install it per thread ([`push_thread_tuning`]) instead of
/// mutating the shared atomics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Branch-and-bound budget for integer-feasibility queries.
    pub feasibility_budget: u32,
    /// Whether the memo caches are consulted.
    pub cache_enabled: bool,
    /// Whether `remove_redundant` runs the cheap pre-filters.
    pub prefilters_enabled: bool,
    /// Minimum constraint count for a system to be worth memoizing.
    pub cache_min_constraints: u32,
}

impl Default for Tuning {
    /// The engine's built-in defaults (not the current process-wide
    /// values; see [`Tuning::effective`] for those).
    fn default() -> Self {
        Tuning {
            feasibility_budget: DEFAULT_FEASIBILITY_BUDGET,
            cache_enabled: true,
            prefilters_enabled: true,
            cache_min_constraints: DEFAULT_CACHE_MIN_CONSTRAINTS,
        }
    }
}

impl Tuning {
    /// The tuning currently in effect on this thread: the thread's
    /// override if one is installed, the process-wide knobs otherwise.
    pub fn effective() -> Self {
        Tuning {
            feasibility_budget: feasibility_budget(),
            cache_enabled: cache_enabled(),
            prefilters_enabled: prefilters_enabled(),
            cache_min_constraints: cache_min_constraints(),
        }
    }
}

/// Installs `tuning` as this thread's engine tuning until the returned
/// guard drops (which restores the previous override, or none).
///
/// The getters ([`feasibility_budget`] &c.) consult the thread override
/// before the process-wide knobs, so engine work on this thread runs
/// under `tuning` without mutating any global — concurrent threads with
/// different tunings cannot observe each other. If the effective values
/// actually change, the thread-local cache epoch is bumped so memoized
/// answers computed under the old tuning are not served under the new
/// one; pushing the already-effective values is free.
#[must_use = "the tuning is uninstalled when the guard drops"]
pub fn push_thread_tuning(tuning: Tuning) -> ThreadTuningGuard {
    let before = Tuning::effective();
    let prev = THREAD_TUNING.with(|c| c.replace(Some(tuning)));
    if before != tuning {
        THREAD_EPOCH.with(|c| c.set(c.get() + 1));
    }
    ThreadTuningGuard { prev }
}

/// RAII restore for [`push_thread_tuning`] (panic-safe, nestable).
#[derive(Debug)]
pub struct ThreadTuningGuard {
    prev: Option<Tuning>,
}

impl Drop for ThreadTuningGuard {
    fn drop(&mut self) {
        let before = Tuning::effective();
        THREAD_TUNING.with(|c| c.set(self.prev));
        if Tuning::effective() != before {
            THREAD_EPOCH.with(|c| c.set(c.get() + 1));
        }
    }
}

/// Whether the memo caches are consulted. Default `true`.
pub fn cache_enabled() -> bool {
    match THREAD_TUNING.with(Cell::get) {
        Some(t) => t.cache_enabled,
        None => CACHE_ENABLED.load(R),
    }
}

/// Whether a system of `n_constraints` is worth memoizing under the
/// current knobs. Counts a bypass when the caches are on but the system
/// is below the [`cache_min_constraints`] threshold.
pub(crate) fn cache_admits(n_constraints: usize) -> bool {
    if !cache_enabled() {
        return false;
    }
    if n_constraints < cache_min_constraints() as usize {
        CACHE_BYPASSES.fetch_add(1, R);
        return false;
    }
    true
}

/// Enables or disables the memo caches (process-wide). Disabling also
/// invalidates the per-thread caches.
pub fn set_cache_enabled(on: bool) {
    if CACHE_ENABLED.swap(on, R) != on {
        let e = EPOCH.fetch_add(1, R) + 1;
        knob_event("cache_enabled", u64::from(on), e);
    }
}

/// Whether `remove_redundant` runs the cheap pre-filters. Default `true`.
pub fn prefilters_enabled() -> bool {
    match THREAD_TUNING.with(Cell::get) {
        Some(t) => t.prefilters_enabled,
        None => PREFILTERS_ENABLED.load(R),
    }
}

/// Enables or disables the redundancy pre-filters (process-wide). Changing
/// the setting invalidates the per-thread memo caches (a cached
/// `remove_redundant` answer records the setting it was computed under).
pub fn set_prefilters_enabled(on: bool) {
    if PREFILTERS_ENABLED.swap(on, R) != on {
        let e = EPOCH.fetch_add(1, R) + 1;
        knob_event("prefilters_enabled", u64::from(on), e);
    }
}

/// The minimum constraint count for a system to be worth memoizing.
/// Default [`DEFAULT_CACHE_MIN_CONSTRAINTS`]; 0 memoizes everything.
pub fn cache_min_constraints() -> u32 {
    match THREAD_TUNING.with(Cell::get) {
        Some(t) => t.cache_min_constraints,
        None => CACHE_MIN_CONSTRAINTS.load(R),
    }
}

/// Sets the memoization size threshold. Systems with fewer constraints
/// skip the memo caches entirely (key construction + hashing costs more
/// than re-solving them). Changing the threshold invalidates the
/// per-thread memo caches.
pub fn set_cache_min_constraints(min: u32) {
    if CACHE_MIN_CONSTRAINTS.swap(min, R) != min {
        let e = EPOCH.fetch_add(1, R) + 1;
        knob_event("cache_min_constraints", u64::from(min), e);
    }
}

/// The current branch-and-bound budget for integer-feasibility queries.
pub fn feasibility_budget() -> u32 {
    match THREAD_TUNING.with(Cell::get) {
        Some(t) => t.feasibility_budget,
        None => FEAS_BUDGET.load(R),
    }
}

/// Sets the branch-and-bound budget. A budget of 0 makes every query
/// return `Unknown` immediately (conservatively treated as feasible).
/// Changing the budget invalidates the per-thread memo caches.
pub fn set_feasibility_budget(budget: u32) {
    if FEAS_BUDGET.swap(budget, R) != budget {
        let e = EPOCH.fetch_add(1, R) + 1;
        knob_event("feasibility_budget", u64::from(budget), e);
    }
}

/// Bridges a knob change (and the cache-epoch bump it caused) into the
/// trace. Knob changes happen at deterministic points — the scoped
/// apply/restore of a pipeline entry — so the event is deterministic.
fn knob_event(knob: &'static str, value: u64, epoch: u64) {
    if obs::enabled() {
        obs::event(
            "poly.knob",
            vec![
                obs::field("knob", knob),
                obs::field("value", value),
                obs::field("epoch", epoch),
            ],
        );
    }
}

/// The cache-invalidation epoch as seen by this thread: the process-wide
/// epoch (bumped on global knob changes and ledger starts) plus the
/// thread-local epoch (bumped on effective [`Tuning`] changes). Both
/// components only grow, so the sum is monotonic per thread.
pub(crate) fn epoch() -> u64 {
    EPOCH.load(R).wrapping_add(THREAD_EPOCH.with(Cell::get))
}

/// Invalidates the per-thread memo caches without changing any knob.
/// Used when the work ledger turns on: entries cached while the ledger was
/// off carry no charged cost, so they must not be served under it (see
/// [`ledger`](crate::ledger)).
pub(crate) fn bump_epoch() {
    EPOCH.fetch_add(1, R);
}

/// RAII snapshot of the engine knobs (`feasibility_budget`,
/// `cache_enabled`, `prefilters_enabled`, `cache_min_constraints`):
/// restores all four on drop, including during unwinding — a panicking or
/// early-returning compile cannot leak its tuning into the next
/// in-process compile.
#[derive(Debug)]
pub struct KnobGuard {
    budget: u32,
    cache: bool,
    prefilters: bool,
    min_constraints: u32,
}

impl KnobGuard {
    /// Snapshots the current knob values.
    pub fn capture() -> Self {
        KnobGuard {
            budget: feasibility_budget(),
            cache: cache_enabled(),
            prefilters: prefilters_enabled(),
            min_constraints: cache_min_constraints(),
        }
    }
}

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_feasibility_budget(self.budget);
        set_cache_enabled(self.cache);
        set_prefilters_enabled(self.prefilters);
        set_cache_min_constraints(self.min_constraints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_knobs() {
        let before = snapshot();
        count_fm_step();
        count_fm_step();
        count_bnb_node();
        let after = snapshot();
        let d = after.since(&before);
        assert!(d.fm_steps >= 2);
        assert!(d.bnb_nodes >= 1);

        let e0 = epoch();
        set_feasibility_budget(123);
        assert_eq!(feasibility_budget(), 123);
        assert!(epoch() > e0, "budget change must bump the epoch");
        set_feasibility_budget(DEFAULT_FEASIBILITY_BUDGET);

        set_cache_enabled(false);
        assert!(!cache_enabled());
        set_cache_enabled(true);
        set_prefilters_enabled(true);
        assert!(prefilters_enabled());
    }

    #[test]
    fn size_gate_counts_bypasses_and_scopes() {
        let guard = KnobGuard::capture();
        set_cache_enabled(true);
        set_cache_min_constraints(5);
        let before = snapshot();
        assert!(!cache_admits(4), "below the threshold: bypass");
        assert!(cache_admits(5), "at the threshold: memoize");
        let d = snapshot().since(&before);
        assert_eq!(d.cache_bypasses, 1);

        // Disabled caches bypass silently (no bypass counted: nothing to
        // bypass, the cache is off altogether).
        set_cache_enabled(false);
        let before = snapshot();
        assert!(!cache_admits(100));
        assert_eq!(snapshot().since(&before).cache_bypasses, 0);

        let e0 = epoch();
        drop(guard);
        assert!(epoch() > e0, "restoring knobs must bump the epoch");
        assert!(cache_enabled());
    }

    /// The thread-local epoch component alone — immune to concurrent
    /// tests bumping the process-wide epoch.
    fn thread_epoch() -> u64 {
        THREAD_EPOCH.with(Cell::get)
    }

    #[test]
    fn thread_tuning_overrides_getters_and_restores() {
        // A dedicated thread so no other test's thread state interferes.
        std::thread::spawn(|| {
            let t = Tuning {
                feasibility_budget: 77,
                cache_enabled: false,
                prefilters_enabled: false,
                cache_min_constraints: 3,
            };
            let e0 = thread_epoch();
            let g = push_thread_tuning(t);
            assert_eq!(feasibility_budget(), 77);
            assert!(!cache_enabled());
            assert!(!prefilters_enabled());
            assert_eq!(cache_min_constraints(), 3);
            assert_eq!(Tuning::effective(), t);
            assert!(thread_epoch() > e0, "an effective change must invalidate");

            // Pushing the already-effective values is free (no
            // invalidation), nested, and unwinds in order.
            let e1 = thread_epoch();
            let same = push_thread_tuning(t);
            assert_eq!(thread_epoch(), e1);
            drop(same);
            assert_eq!(thread_epoch(), e1);

            let inner = push_thread_tuning(Tuning {
                feasibility_budget: 5,
                ..t
            });
            assert_eq!(feasibility_budget(), 5);
            assert!(thread_epoch() > e1);
            drop(inner);
            assert_eq!(feasibility_budget(), 77, "inner pop restores outer tuning");

            let e2 = thread_epoch();
            drop(g);
            assert!(thread_epoch() > e2, "popping the override must invalidate");
            assert!(THREAD_TUNING.with(Cell::get).is_none());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn thread_tuning_is_thread_local() {
        std::thread::spawn(|| {
            let _g = push_thread_tuning(Tuning {
                feasibility_budget: 99,
                ..Tuning::default()
            });
            assert_eq!(feasibility_budget(), 99);
            // A freshly spawned thread does not inherit the override: it
            // sees the process-wide knobs (whatever they currently are).
            std::thread::spawn(|| {
                assert!(THREAD_TUNING.with(Cell::get).is_none());
            })
            .join()
            .unwrap();
        })
        .join()
        .unwrap();
    }
}
