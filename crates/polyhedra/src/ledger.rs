//! The engine's one work account, kept per thread.
//!
//! Every thread that runs the polyhedral engine owns one table: its
//! cumulative [`PolyStats`] and the stack of operations open on it. Every
//! record site writes to that table, always. A Fourier–Motzkin step,
//! projection, integer-feasibility query, redundancy pass, scan,
//! parametric lexopt or lexopt case split is counted when it closes, a
//! memo-cache hit when it is served, and the counters that are not
//! operations (allocations, inline spills, pre-filter verdicts, cache
//! bypasses, scan points) where they happen.
//! [`snapshot`] (re-exported as `stats::snapshot`, where harnesses read
//! it) copies the calling thread's counters; a region's work is the
//! difference of two snapshots ([`PolyStats::since`]).
//!
//! A compile runs on its caller's thread from start to finish and the
//! library spawns no thread, so the thread is the isolation: compiles on
//! two threads never see each other's counts, and nothing is shared.
//!
//! # Work units and charged work
//!
//! Each operation carries two weights:
//!
//! * **self units** — work the operation itself performed: 1 per FM step /
//!   projection / lexmax split, 1 + branch-and-bound nodes per feasibility
//!   query, 1 + negation tests per redundancy pass, and 0 per scan or
//!   lexopt — those two compound queries are charged exactly the
//!   operations they run, so wrapping them in an operation moves no total.
//! * **charged units** — self units plus the charged units of every
//!   *nested* operation; on a memo-cache **hit**, the charged units the
//!   original (miss) computation accumulated, which the memo entry keeps.
//!   Every cached result is bit-identical to its uncached computation, so
//!   the charged cost is a property of the *query*, not of the cache
//!   state: a warm cache answers instantly but still charges the logical
//!   cost.
//!
//! [`PolyStats::work_units`] sums the charged units of top-level
//! operations (those no other operation encloses): the thread's logical
//! work, identical across runs and cache states for a given input, which
//! is what lets collapsed stacks be compared byte for byte and work totals
//! be gated exactly.
//!
//! # Records
//!
//! Between [`start`] and [`finish`] the calling thread also keeps one
//! [`OpRecord`] per operation — kind, constraint counts in and out,
//! branch-and-bound nodes, negation tests, cache outcome, wall-clock
//! duration — tagged with the ambient *attribution context*: a stack of
//! frames pushed by the caller ([`push_context`], used by `dmc_core`'s
//! pipeline) naming the statement/read/pass (or schedule phase) the engine
//! is working for, mirroring the `dmc_obs` lane-key hierarchy
//! (`stmt<i> → read<j> → <pass>`). [`start`] clears the thread's memo
//! caches, so the records time computations rather than hits; beyond
//! that, recording only adds the records and their timings: the counters
//! and charges are the same with it on or off, so a recording's
//! [`Ledger::charged_work`] is the `work_units` delta over the same
//! region.

use std::cell::RefCell;
use std::time::Instant;

/// The kind of engine operation a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// One Fourier–Motzkin single-dimension elimination step.
    FmStep,
    /// A multi-dimension projection (`eliminate_dims`).
    Projection,
    /// An integer-feasibility query.
    Feasibility,
    /// A §5.1 redundancy-removal pass (`remove_redundant`).
    Redundancy,
    /// One explored piece of a parametric-lexmax case split.
    LexSplit,
    /// A polyhedron scan ([`scan_bounds`](crate::scan_bounds)).
    Scan,
    /// A parametric lexicographic optimum ([`lexopt`](crate::lexopt)).
    LexOpt,
}

impl OpKind {
    /// Every kind, in the order used by reports.
    pub const ALL: [OpKind; 7] = [
        OpKind::FmStep,
        OpKind::Projection,
        OpKind::Feasibility,
        OpKind::Redundancy,
        OpKind::LexSplit,
        OpKind::Scan,
        OpKind::LexOpt,
    ];

    /// Stable lower-case name (used as the leaf frame of collapsed stacks).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::FmStep => "fm_step",
            OpKind::Projection => "projection",
            OpKind::Feasibility => "feasibility",
            OpKind::Redundancy => "redundancy",
            OpKind::LexSplit => "lex_split",
            OpKind::Scan => "scan",
            OpKind::LexOpt => "lexopt",
        }
    }

    /// The unit an operation of this kind is charged for itself: 0 for
    /// the compound queries (a scan, a lexopt), whose cost is exactly the
    /// operations they run, 1 for every other kind.
    fn base_units(self) -> u64 {
        match self {
            OpKind::Scan | OpKind::LexOpt => 0,
            _ => 1,
        }
    }
}

/// How an operation interacted with the memo caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The operation does not consult a cache, or the system was below the
    /// memoization size threshold.
    Uncached,
    /// Answered from a memo cache.
    Hit,
    /// Consulted a memo cache and computed (then stored) the answer.
    Miss,
}

/// One recorded engine operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// What ran.
    pub kind: OpKind,
    /// Constraints in the input system.
    pub cons_in: u32,
    /// Constraints in the result of an FM step or redundancy pass (0 for
    /// the other kinds).
    pub cons_out: u32,
    /// Branch-and-bound nodes visited (feasibility queries).
    pub bnb_nodes: u64,
    /// Exact negation tests run (redundancy passes).
    pub negation_tests: u64,
    /// Cache interaction.
    pub cache: CacheOutcome,
    /// Wall-clock duration. Diagnostic only: durations are scheduling
    /// noise and never enter deterministic artifacts or gates.
    pub duration_ns: u64,
    /// Work this operation itself performed (0 for cache hits).
    pub self_units: u64,
    /// Self units plus nested charged work; memoized logical cost on hits.
    pub charged_units: u64,
    /// True when no recorded operation encloses this one. Top-level
    /// charged units partition the run's logical work (nested records
    /// re-describe portions of their parent's charge).
    pub top_level: bool,
}

/// A run of records sharing one attribution context (outermost frame
/// first; empty = unattributed).
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Attribution frames, e.g. `["stmt0", "read1", "opt.self_reuse"]`.
    pub ctx: Vec<String>,
    /// The records, in the order they closed.
    pub records: Vec<OpRecord>,
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Context-tagged record segments, in program order.
    pub segments: Vec<Segment>,
}

impl Ledger {
    /// Every record of every segment.
    pub fn records(&self) -> impl Iterator<Item = &OpRecord> {
        self.segments.iter().flat_map(|s| s.records.iter())
    }

    /// Total charged units of top-level records: the recorded region's
    /// logical work, its `work_units` delta.
    pub fn charged_work(&self) -> u64 {
        self.records()
            .filter(|r| r.top_level)
            .map(|r| r.charged_units)
            .sum()
    }
}

/// A snapshot of one thread's cumulative engine counters.
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
    /// Points emitted by the scan kernel
    /// ([`ScanKernel::for_each`](crate::ScanKernel::for_each)), a run
    /// ([`ScanKernel::for_each_run`](crate::ScanKernel::for_each_run))
    /// counting the points it stands for.
    pub scan_points: u64,
    /// Level ranges the scan kernel evaluated to emit them; a ratio to
    /// [`scan_points`](Self::scan_points) far above a nest's depth means
    /// the nest loops over misses, one below 1 that it was counted in runs.
    pub scan_range_evals: u64,
    /// Charged units of top-level operations: the logical work, the same
    /// for a given input whatever the memo caches hold (see the module
    /// documentation).
    pub work_units: u64,
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
            scan_points: self.scan_points.saturating_sub(earlier.scan_points),
            scan_range_evals: self
                .scan_range_evals
                .saturating_sub(earlier.scan_range_evals),
            work_units: self.work_units.saturating_sub(earlier.work_units),
        }
    }
}

// ---------------------------------------------------------------------
// The thread's table.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Table {
    stats: PolyStats,
    /// Per open operation, the charged units of its closed children.
    open: Vec<u64>,
    /// Attribution frames, outermost first.
    ctx: Vec<String>,
    /// The records since [`start`]; `None` when not recording.
    segments: Option<Vec<Segment>>,
}

thread_local! {
    static TABLE: RefCell<Table> = RefCell::new(Table::default());
}

fn with_table<T>(f: impl FnOnce(&mut Table) -> T) -> T {
    TABLE.with(|t| f(&mut t.borrow_mut()))
}

impl Table {
    /// Counts one closed or served operation, charges it to the enclosing
    /// operation (or to `work_units` when none is open, which makes it
    /// top-level), and keeps its record if the thread is recording.
    fn account(&mut self, mut rec: OpRecord) {
        let s = &mut self.stats;
        match rec.kind {
            OpKind::FmStep => s.fm_steps += 1,
            OpKind::Feasibility => {
                s.feasibility_calls += 1;
                s.bnb_nodes += rec.bnb_nodes;
            }
            OpKind::Redundancy => s.negation_tests += rec.negation_tests,
            OpKind::LexSplit => s.lex_splits += 1,
            OpKind::Projection | OpKind::Scan | OpKind::LexOpt => {}
        }
        match (rec.kind, rec.cache) {
            (OpKind::Feasibility, CacheOutcome::Hit) => s.feas_cache_hits += 1,
            (OpKind::Feasibility, CacheOutcome::Miss) => s.feas_cache_misses += 1,
            (OpKind::Projection, CacheOutcome::Hit) => s.proj_cache_hits += 1,
            (OpKind::Projection, CacheOutcome::Miss) => s.proj_cache_misses += 1,
            (OpKind::Scan, CacheOutcome::Hit) => s.scan_cache_hits += 1,
            (OpKind::Scan, CacheOutcome::Miss) => s.scan_cache_misses += 1,
            (OpKind::LexOpt, CacheOutcome::Hit) => s.lex_cache_hits += 1,
            (OpKind::LexOpt, CacheOutcome::Miss) => s.lex_cache_misses += 1,
            _ => {}
        }
        match self.open.last_mut() {
            Some(parent) => *parent += rec.charged_units,
            None => {
                s.work_units += rec.charged_units;
                rec.top_level = true;
            }
        }
        let Some(segments) = &mut self.segments else {
            return;
        };
        match segments.last_mut() {
            Some(seg) if seg.ctx == self.ctx => seg.records.push(rec),
            _ => segments.push(Segment {
                ctx: self.ctx.clone(),
                records: vec![rec],
            }),
        }
    }
}

/// The calling thread's cumulative counters.
pub fn snapshot() -> PolyStats {
    with_table(|t| t.stats)
}

/// Bumps counters of the calling thread that no operation owns.
pub(crate) fn count(f: impl FnOnce(&mut PolyStats)) {
    with_table(|t| f(&mut t.stats));
}

/// Whether the calling thread is recording.
pub fn enabled() -> bool {
    with_table(|t| t.segments.is_some())
}

/// Starts recording on the calling thread from cold memo caches
/// ([`cache::clear_thread_caches`](crate::cache::clear_thread_caches)), so
/// every record's duration is that of a computation, not of a hit; drops
/// the records of an unfinished earlier recording. The counters and every
/// charge are left as they are.
pub fn start() {
    crate::cache::clear_thread_caches();
    with_table(|t| t.segments = Some(Vec::new()));
}

/// Stops the calling thread's recording and returns everything recorded
/// since [`start`] (nothing, if it was not recording).
pub fn finish() -> Ledger {
    Ledger {
        segments: with_table(|t| t.segments.take()).unwrap_or_default(),
    }
}

/// RAII attribution frame: pops itself on drop.
#[must_use = "the context pops when this guard drops"]
pub struct CtxGuard {
    /// Keeps the guard thread-bound (`!Send`): contexts are thread-local.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pushes one attribution frame for the current thread. Frames are kept
/// even while nothing records, so a recording started mid-pipeline still
/// attributes correctly.
pub fn push_context(label: impl Into<String>) -> CtxGuard {
    with_table(|t| t.ctx.push(label.into()));
    CtxGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        with_table(|t| t.ctx.pop());
    }
}

// ---------------------------------------------------------------------
// Record sites (crate-internal).
// ---------------------------------------------------------------------

pub(crate) struct OpenOp {
    kind: OpKind,
    cons_in: u32,
    cons_out: u32,
    bnb_nodes: u64,
    negation_tests: u64,
    cache: CacheOutcome,
    /// When the operation opened, if the thread was recording.
    start: Option<Instant>,
}

/// An open operation. Closes (and charges its parent) on
/// [`OpScope::finish`] or on drop, so early error returns stay balanced.
pub(crate) struct OpScope(Option<OpenOp>);

/// Opens an operation on the calling thread.
pub(crate) fn op(kind: OpKind, cons_in: usize) -> OpScope {
    let recording = with_table(|t| {
        t.open.push(0);
        t.segments.is_some()
    });
    OpScope(Some(OpenOp {
        kind,
        cons_in: cons_in as u32,
        cons_out: 0,
        bnb_nodes: 0,
        negation_tests: 0,
        cache: CacheOutcome::Uncached,
        start: recording.then(Instant::now),
    }))
}

impl OpScope {
    pub(crate) fn set_cons_out(&mut self, n: usize) {
        if let Some(o) = &mut self.0 {
            o.cons_out = n as u32;
        }
    }
    pub(crate) fn set_bnb_nodes(&mut self, n: u64) {
        if let Some(o) = &mut self.0 {
            o.bnb_nodes = n;
        }
    }
    pub(crate) fn set_negation_tests(&mut self, n: u64) {
        if let Some(o) = &mut self.0 {
            o.negation_tests = n;
        }
    }
    pub(crate) fn set_cache_miss(&mut self) {
        if let Some(o) = &mut self.0 {
            o.cache = CacheOutcome::Miss;
        }
    }

    /// Closes the operation, returning its charged units.
    pub(crate) fn finish(mut self) -> u64 {
        self.0.take().map_or(0, close)
    }
}

impl Drop for OpScope {
    fn drop(&mut self) {
        if let Some(o) = self.0.take() {
            close(o);
        }
    }
}

fn close(o: OpenOp) -> u64 {
    let self_units = o.kind.base_units() + o.bnb_nodes + o.negation_tests;
    with_table(|t| {
        let charged = self_units + t.open.pop().unwrap_or(0);
        t.account(OpRecord {
            kind: o.kind,
            cons_in: o.cons_in,
            cons_out: o.cons_out,
            bnb_nodes: o.bnb_nodes,
            negation_tests: o.negation_tests,
            cache: o.cache,
            duration_ns: o.start.map_or(0, |s| s.elapsed().as_nanos() as u64),
            self_units,
            charged_units: charged,
            top_level: false,
        });
        charged
    })
}

/// Counts a memo-cache hit: no work of its own, but the memoized charged
/// cost flows to the enclosing operation (and to the context's profile)
/// exactly as if the result had been recomputed.
pub(crate) fn record_hit(kind: OpKind, cons_in: usize, charged: u64) {
    with_table(|t| {
        t.account(OpRecord {
            kind,
            cons_in: cons_in as u32,
            cons_out: 0,
            bnb_nodes: 0,
            negation_tests: 0,
            cache: CacheOutcome::Hit,
            duration_ns: 0,
            self_units: 0,
            charged_units: charged,
            top_level: false,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let before = snapshot();
        count(|s| s.fm_steps += 2);
        count(|s| s.bnb_nodes += 1);
        let d = snapshot().since(&before);
        assert_eq!((d.fm_steps, d.bnb_nodes), (2, 1));
    }

    #[test]
    fn scopes_nest_and_charge_parents() {
        let before = snapshot();
        start();
        let _ctx = push_context("unit");
        let mut outer = op(OpKind::Projection, 10);
        outer.set_cache_miss();
        let mut inner = op(OpKind::Feasibility, 4);
        inner.set_bnb_nodes(7);
        assert_eq!(inner.finish(), 8); // 1 + 7 nodes
        let charged = outer.finish();
        assert_eq!(charged, 1 + 8);
        record_hit(OpKind::Projection, 10, charged);
        drop(_ctx);
        let ledger = finish();
        assert_eq!(ledger.segments.len(), 1);
        assert_eq!(ledger.segments[0].ctx, vec!["unit".to_owned()]);
        let recs = &ledger.segments[0].records;
        assert_eq!(recs.len(), 3);
        // Closed innermost-first; the hit replays the outer charge.
        assert_eq!(recs[0].kind, OpKind::Feasibility);
        assert!(!recs[0].top_level);
        assert_eq!(recs[1].charged_units, 9);
        assert!(recs[1].top_level);
        assert_eq!(recs[2].cache, CacheOutcome::Hit);
        assert_eq!(recs[2].charged_units, 9);
        assert_eq!(recs[2].self_units, 0);
        assert_eq!(ledger.charged_work(), 18);
        // One feasibility query of 7 nodes (no cache: neither outcome is
        // counted); the projection missed once and was then served once.
        let d = snapshot().since(&before);
        assert_eq!((d.feasibility_calls, d.bnb_nodes), (1, 7));
        assert_eq!((d.feas_cache_hits, d.feas_cache_misses), (0, 0));
        assert_eq!((d.proj_cache_hits, d.proj_cache_misses), (1, 1));
        assert_eq!(d.work_units, 18);
    }

    /// A scan or lexopt is charged its nested operations and no unit of
    /// its own, so wrapping a query in one moves no total; its hit replays
    /// that charge.
    #[test]
    fn compound_queries_charge_exactly_what_they_run() {
        let before = snapshot();
        start();
        let _ctx = push_context("unit");
        let mut scan = op(OpKind::Scan, 6);
        scan.set_cache_miss();
        op(OpKind::FmStep, 6).finish();
        let mut feas = op(OpKind::Feasibility, 5);
        feas.set_bnb_nodes(2);
        feas.finish();
        let charged = scan.finish();
        assert_eq!(charged, 1 + 3);
        record_hit(OpKind::Scan, 6, charged);
        drop(_ctx);
        let ledger = finish();
        let scans: Vec<(u64, u64, bool)> = ledger
            .records()
            .filter(|r| r.kind == OpKind::Scan)
            .map(|r| (r.self_units, r.charged_units, r.top_level))
            .collect();
        assert_eq!(scans, [(0, 4, true), (0, 4, true)]);
        assert_eq!(ledger.charged_work(), 8);
        let d = snapshot().since(&before);
        assert_eq!((d.scan_cache_hits, d.scan_cache_misses), (1, 1));
        assert_eq!((d.fm_steps, d.feasibility_calls, d.bnb_nodes), (1, 1, 2));
    }

    /// Nothing records while the thread is not recording, but every
    /// operation is still counted and charged.
    #[test]
    fn unrecorded_operations_still_count_and_charge() {
        assert!(!enabled());
        let before = snapshot();
        let _ctx = push_context("off");
        let mut feas = op(OpKind::Feasibility, 3);
        feas.set_bnb_nodes(4);
        assert_eq!(feas.finish(), 5);
        record_hit(OpKind::Feasibility, 1, 99);
        drop(_ctx);
        let d = snapshot().since(&before);
        assert_eq!((d.feasibility_calls, d.feas_cache_hits), (2, 1));
        assert_eq!(d.work_units, 5 + 99);
        start();
        assert!(finish().segments.is_empty());
    }

    /// A recording's charged work is the `work_units` delta over the same
    /// region, whatever mix of nested operations and hits it saw.
    #[test]
    fn charged_work_is_the_work_units_delta() {
        let before = snapshot();
        start();
        let outer = op(OpKind::LexOpt, 8);
        let mut red = op(OpKind::Redundancy, 8);
        red.set_negation_tests(3);
        red.finish();
        record_hit(OpKind::Feasibility, 8, 11);
        let charged = outer.finish();
        op(OpKind::LexSplit, 2).finish();
        record_hit(OpKind::LexOpt, 8, charged);
        let ledger = finish();
        let d = snapshot().since(&before);
        assert_eq!(charged, 4 + 11);
        assert_eq!(ledger.charged_work(), d.work_units);
        assert_eq!(d.work_units, 15 + 1 + 15);
        assert_eq!(d.negation_tests, 3);
    }

    /// Another thread's operations show in neither this thread's counters
    /// nor its recording.
    #[test]
    fn threads_keep_their_own_accounts() {
        let before = snapshot();
        start();
        std::thread::spawn(|| {
            assert!(!enabled(), "a recording is the thread's own");
            op(OpKind::FmStep, 3).finish();
            assert_eq!(snapshot().fm_steps, 1);
        })
        .join()
        .unwrap();
        assert!(finish().segments.is_empty());
        assert_eq!(snapshot().since(&before), PolyStats::default());
    }

    #[test]
    fn uncontexted_records_form_one_unattributed_segment() {
        start();
        op(OpKind::LexSplit, 2).finish();
        op(OpKind::LexSplit, 2).finish();
        let ledger = finish();
        assert_eq!(ledger.segments.len(), 1);
        assert!(ledger.segments[0].ctx.is_empty());
        assert_eq!(ledger.records().count(), 2);
    }
}
