//! Work ledger: per-operation profiling records for the polyhedral engine.
//!
//! [`stats`] counts *how much* work the engine did; the
//! ledger records *which operation* did it and *on whose behalf*. When
//! enabled (see [`start`]) every Fourier–Motzkin step, projection,
//! integer-feasibility query, redundancy pass, scan, parametric lexopt and
//! lexopt case split appends a compact [`OpRecord`] — operation kind,
//! constraint counts in and out, branch-and-bound nodes, negation tests,
//! cache outcome, wall-clock duration — tagged with the
//! ambient *attribution context*: a stack of frames pushed by the caller
//! ([`push_context`], used by `dmc_core`'s pipeline) naming the
//! statement/read/pass (or schedule phase) the engine is working for,
//! mirroring the `dmc_obs` lane-key hierarchy
//! (`stmt<i> → read<j> → <pass>`).
//!
//! # Work units and charged work
//!
//! Each record carries two weights:
//!
//! * **self units** — work the operation itself performed: 1 per FM step /
//!   projection / lexmax split, 1 + branch-and-bound nodes per feasibility
//!   query, 1 + negation tests per redundancy pass, and 0 per scan or
//!   lexopt — those two compound queries are charged exactly the
//!   operations they run, so wrapping them in a record moves no total.
//!   Record counts and the summed node/test fields reconcile *exactly*
//!   against [`PolyStats`](crate::PolyStats) deltas taken over the same
//!   region.
//! * **charged units** — self units plus the charged units of every
//!   *nested* recorded operation; on a memo-cache **hit**, the charged
//!   units the original (miss) computation accumulated. Because every
//!   cached result is bit-identical to its uncached computation, the
//!   charged cost is a property of the *query*, not of the cache state: a
//!   warm cache answers instantly but still charges the logical cost.
//!   This makes top-level charged work deterministic — identical across
//!   runs and cache states — which is what lets collapsed stacks be
//!   compared byte-for-byte and work totals be gated exactly.
//!
//! # Overhead
//!
//! With the ledger off (the default) each record site costs exactly one
//! relaxed atomic load ([`enabled`]). Enabling the ledger bumps the
//! memo-cache epoch so every entry served under it carries a charged cost.
//!
//! # Threading and scopes
//!
//! Records accumulate in thread-local buffers, segmented by attribution
//! context; a buffer flushes into its scope's store when its thread's
//! context stack empties (one lock per pipeline job). Records made with no
//! context at all go straight to the store's orphan list. [`finish`]
//! drains the store; aggregation downstream is order-insensitive, so the
//! order in which threads sharing a scope flushed never shows.
//!
//! Storage is per-[`LedgerScope`]: each scope owns an enabled flag and a
//! store, and a thread records into its *current* scope (the process
//! default unless a [`LedgerScope::install`] guard is live). The free
//! functions [`start`]/[`finish`] operate on the default scope, exactly
//! as they did when the ledger was process-global; sessions that must
//! not share a ledger (concurrent compiles) create their own scope and
//! install it on every thread that works for them.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::stats;

const R: Ordering = Ordering::Relaxed;

/// Number of scopes currently recording, process-wide. The ledger-off
/// fast path checks this single atomic before touching anything else.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Whether the current thread's ledger scope is recording. When no scope
/// is recording anywhere in the process this is one relaxed atomic load —
/// the entire ledger-off cost of a record site.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(R) != 0 && with_scope(|s| s.enabled.load(R))
}

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
    /// `LinExpr` heap allocations made on this thread while the operation
    /// was open (inclusive of nested operations; 0 on cache hits).
    /// Diagnostic only: raw allocation counts depend on cache state and
    /// work partitioning, so — like `duration_ns` — they never enter
    /// deterministic artifacts or gates.
    pub allocs: u64,
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
    /// The records, in thread-local program order.
    pub records: Vec<OpRecord>,
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Context-tagged record segments (cross-thread order unspecified).
    pub segments: Vec<Segment>,
}

/// Per-kind totals of a [`Ledger`], shaped for exact reconciliation
/// against a [`PolyStats`](crate::PolyStats) delta over the same region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerTotals {
    /// FM-step records (≡ `PolyStats::fm_steps`).
    pub fm_steps: u64,
    /// Projection records answered uncached or by a miss.
    pub projections: u64,
    /// Feasibility records (≡ `PolyStats::feasibility_calls`).
    pub feasibility_calls: u64,
    /// Σ branch-and-bound nodes (≡ `PolyStats::bnb_nodes`).
    pub bnb_nodes: u64,
    /// Redundancy records (the pass is not memoized).
    pub redundancy_passes: u64,
    /// Σ negation tests (≡ `PolyStats::negation_tests`).
    pub negation_tests: u64,
    /// Lexmax-split records (≡ `PolyStats::lex_splits`).
    pub lex_splits: u64,
    /// Feasibility cache hits (≡ `PolyStats::feas_cache_hits`).
    pub feas_cache_hits: u64,
    /// Feasibility cache misses (≡ `PolyStats::feas_cache_misses`).
    pub feas_cache_misses: u64,
    /// Projection cache hits (≡ `PolyStats::proj_cache_hits`).
    pub proj_cache_hits: u64,
    /// Projection cache misses (≡ `PolyStats::proj_cache_misses`).
    pub proj_cache_misses: u64,
    /// Scan cache hits (≡ `PolyStats::scan_cache_hits`).
    pub scan_cache_hits: u64,
    /// Scan cache misses (≡ `PolyStats::scan_cache_misses`).
    pub scan_cache_misses: u64,
    /// Lexopt cache hits (≡ `PolyStats::lex_cache_hits`).
    pub lex_cache_hits: u64,
    /// Lexopt cache misses (≡ `PolyStats::lex_cache_misses`).
    pub lex_cache_misses: u64,
}

impl Ledger {
    /// Every record of every segment.
    pub fn records(&self) -> impl Iterator<Item = &OpRecord> {
        self.segments.iter().flat_map(|s| s.records.iter())
    }

    /// Total charged units of top-level records: the run's logical work.
    /// Deterministic for a given input — identical across runs and cache
    /// states.
    pub fn charged_work(&self) -> u64 {
        self.records()
            .filter(|r| r.top_level)
            .map(|r| r.charged_units)
            .sum()
    }

    /// Per-kind totals for reconciliation against `PolyStats`.
    pub fn totals(&self) -> LedgerTotals {
        let mut t = LedgerTotals::default();
        for r in self.records() {
            match r.kind {
                OpKind::FmStep => t.fm_steps += 1,
                OpKind::Projection => {
                    if r.cache != CacheOutcome::Hit {
                        t.projections += 1;
                    }
                    match r.cache {
                        CacheOutcome::Hit => t.proj_cache_hits += 1,
                        CacheOutcome::Miss => t.proj_cache_misses += 1,
                        CacheOutcome::Uncached => {}
                    }
                }
                OpKind::Feasibility => {
                    t.feasibility_calls += 1;
                    t.bnb_nodes += r.bnb_nodes;
                    match r.cache {
                        CacheOutcome::Hit => t.feas_cache_hits += 1,
                        CacheOutcome::Miss => t.feas_cache_misses += 1,
                        CacheOutcome::Uncached => {}
                    }
                }
                OpKind::Redundancy => {
                    t.redundancy_passes += 1;
                    t.negation_tests += r.negation_tests;
                }
                OpKind::LexSplit => t.lex_splits += 1,
                OpKind::Scan => match r.cache {
                    CacheOutcome::Hit => t.scan_cache_hits += 1,
                    CacheOutcome::Miss => t.scan_cache_misses += 1,
                    CacheOutcome::Uncached => {}
                },
                OpKind::LexOpt => match r.cache {
                    CacheOutcome::Hit => t.lex_cache_hits += 1,
                    CacheOutcome::Miss => t.lex_cache_misses += 1,
                    CacheOutcome::Uncached => {}
                },
            }
        }
        t
    }
}

// ---------------------------------------------------------------------
// Thread-local recording state.
// ---------------------------------------------------------------------

/// One open (not yet closed) operation's accumulator.
struct OpenFrame {
    /// Σ charged units of closed children.
    children: u64,
}

#[derive(Default)]
struct ThreadState {
    ctx: Vec<String>,
    segments: Vec<Segment>,
    open: Vec<OpenFrame>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

#[derive(Default)]
struct Store {
    segments: Vec<Segment>,
    orphans: Vec<OpRecord>,
}

/// The state behind one [`LedgerScope`] handle.
struct ScopeInner {
    enabled: AtomicBool,
    store: Mutex<Store>,
}

impl ScopeInner {
    fn new() -> Self {
        ScopeInner {
            enabled: AtomicBool::new(false),
            store: Mutex::new(Store::default()),
        }
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn start(&self) {
        {
            let mut g = self.store();
            g.segments.clear();
            g.orphans.clear();
        }
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            st.segments.clear();
            st.open.clear();
        });
        stats::bump_epoch();
        if !self.enabled.swap(true, R) {
            ACTIVE.fetch_add(1, R);
        }
    }

    /// Flushes the calling thread's buffered residue, then takes the
    /// store contents.
    fn take(&self) -> Ledger {
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            if !st.segments.is_empty() {
                let segs = std::mem::take(&mut st.segments);
                self.store().segments.extend(segs);
            }
            st.open.clear();
        });
        let mut g = self.store();
        let mut segments = std::mem::take(&mut g.segments);
        if !g.orphans.is_empty() {
            segments.push(Segment {
                ctx: Vec::new(),
                records: std::mem::take(&mut g.orphans),
            });
        }
        Ledger { segments }
    }

    fn finish(&self) -> Ledger {
        if self.enabled.swap(false, R) {
            ACTIVE.fetch_sub(1, R);
        }
        self.take()
    }
}

fn default_scope() -> &'static Arc<ScopeInner> {
    static DEFAULT: OnceLock<Arc<ScopeInner>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(ScopeInner::new()))
}

thread_local! {
    /// The scope this thread records into; `None` means the default.
    static CURRENT: RefCell<Option<Arc<ScopeInner>>> = const { RefCell::new(None) };
}

fn with_scope<T>(f: impl FnOnce(&Arc<ScopeInner>) -> T) -> T {
    CURRENT.with(|c| match &*c.borrow() {
        Some(scope) => f(scope),
        None => f(default_scope()),
    })
}

/// An isolated ledger store. Handles are cheap to clone (an `Arc`);
/// clones refer to the same scope. A scope only receives records from
/// threads it is [`install`](Self::install)ed on.
#[derive(Clone)]
pub struct LedgerScope {
    inner: Arc<ScopeInner>,
}

impl LedgerScope {
    /// Creates a fresh, idle scope.
    pub fn new() -> Self {
        LedgerScope {
            inner: Arc::new(ScopeInner::new()),
        }
    }

    /// A handle to the process default scope — the one the free
    /// functions [`start`]/[`finish`] operate on.
    pub fn default_scope() -> Self {
        LedgerScope {
            inner: Arc::clone(default_scope()),
        }
    }

    /// A handle to the calling thread's current scope (the default
    /// unless an [`install`](Self::install) guard is live).
    pub fn current() -> Self {
        LedgerScope {
            inner: with_scope(Arc::clone),
        }
    }

    /// Whether two handles refer to the same scope.
    pub fn same_scope(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Starts recording into this scope: clears it, invalidates the memo
    /// caches (entries cached while no ledger was recording carry no
    /// charged cost — the epoch bump is process-wide), and enables the
    /// scope's record sites.
    pub fn start(&self) {
        self.inner.start();
    }

    /// Whether this scope is recording.
    pub fn is_recording(&self) -> bool {
        self.inner.enabled.load(R)
    }

    /// Stops recording and returns everything captured since
    /// [`start`](Self::start). The calling thread's residue is flushed
    /// here; any other thread the scope is installed on must have
    /// popped its attribution frames (which flushes its own) first.
    pub fn finish(&self) -> Ledger {
        self.inner.finish()
    }

    /// Takes everything recorded so far and leaves the scope recording —
    /// the per-request accounting primitive: one long-lived enablement
    /// (so memoized charges stay valid), drained once per served
    /// compile. Flushes the calling thread's residue first, as
    /// [`finish`](Self::finish) does.
    pub fn drain(&self) -> Ledger {
        self.inner.take()
    }

    /// Makes this scope the calling thread's current scope until the
    /// guard drops (the previous scope is restored). Guards nest.
    pub fn install(&self) -> ScopeGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.inner)));
        ScopeGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Default for LedgerScope {
    fn default() -> Self {
        LedgerScope::new()
    }
}

impl std::fmt::Debug for LedgerScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerScope")
            .field("recording", &self.is_recording())
            .finish()
    }
}

/// Restores the thread's previous scope on drop. `!Send`: the guard must
/// drop on the thread that installed it.
pub struct ScopeGuard {
    prev: Option<Arc<ScopeInner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Starts recording into the *default scope*: clears any previous
/// ledger, invalidates the memo caches (entries cached while the ledger
/// was off carry no charged cost), and enables the record sites.
pub fn start() {
    default_scope().start();
}

/// Stops the default scope's recording and returns everything captured
/// since [`start`]. The calling thread's residue is flushed here, as in
/// [`LedgerScope::finish`].
pub fn finish() -> Ledger {
    default_scope().finish()
}

/// RAII attribution frame: pops itself on drop and flushes the thread's
/// buffered segments to the store when the context stack empties.
#[must_use = "the context pops when this guard drops"]
pub struct CtxGuard {
    /// Keeps the guard thread-bound (`!Send`): contexts are thread-local.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pushes one attribution frame for the current thread. Frames are kept
/// even while the ledger is off, so a capture enabled mid-pipeline still
/// attributes correctly.
pub fn push_context(label: impl Into<String>) -> CtxGuard {
    STATE.with(|s| s.borrow_mut().ctx.push(label.into()));
    CtxGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            st.ctx.pop();
            if st.ctx.is_empty() && !st.segments.is_empty() {
                let segs = std::mem::take(&mut st.segments);
                drop(st);
                with_scope(|sc| sc.store().segments.extend(segs));
            }
        });
    }
}

fn append(st: &mut ThreadState, rec: OpRecord) {
    if st.ctx.is_empty() {
        with_scope(|sc| sc.store().orphans.push(rec));
        return;
    }
    match st.segments.last_mut() {
        Some(seg) if seg.ctx == st.ctx => seg.records.push(rec),
        _ => st.segments.push(Segment {
            ctx: st.ctx.clone(),
            records: vec![rec],
        }),
    }
}

// ---------------------------------------------------------------------
// Record sites (crate-internal).
// ---------------------------------------------------------------------

pub(crate) struct OpenOp {
    kind: OpKind,
    start: Instant,
    allocs_at_open: u64,
    cons_in: u32,
    cons_out: u32,
    bnb_nodes: u64,
    negation_tests: u64,
    cache: CacheOutcome,
}

/// An in-flight recorded operation. Closes (and charges its parent) on
/// [`OpScope::finish`] or on drop, so early error returns stay balanced.
pub(crate) struct OpScope(Option<OpenOp>);

/// Opens an operation scope. With the ledger off this is the one relaxed
/// atomic load and nothing else.
pub(crate) fn op(kind: OpKind, cons_in: usize) -> OpScope {
    if !enabled() {
        return OpScope(None);
    }
    STATE.with(|s| s.borrow_mut().open.push(OpenFrame { children: 0 }));
    OpScope(Some(OpenOp {
        kind,
        start: Instant::now(),
        allocs_at_open: stats::thread_allocs(),
        cons_in: cons_in as u32,
        cons_out: 0,
        bnb_nodes: 0,
        negation_tests: 0,
        cache: CacheOutcome::Uncached,
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

    /// Closes the scope, returning its charged units (0 when disabled).
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
    let duration_ns = o.start.elapsed().as_nanos() as u64;
    let allocs = stats::thread_allocs().saturating_sub(o.allocs_at_open);
    let self_units = o.kind.base_units() + o.bnb_nodes + o.negation_tests;
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let children = st.open.pop().map_or(0, |f| f.children);
        let charged = self_units + children;
        let top_level = st.open.is_empty();
        if let Some(parent) = st.open.last_mut() {
            parent.children += charged;
        }
        append(
            &mut st,
            OpRecord {
                kind: o.kind,
                cons_in: o.cons_in,
                cons_out: o.cons_out,
                bnb_nodes: o.bnb_nodes,
                negation_tests: o.negation_tests,
                cache: o.cache,
                duration_ns,
                allocs,
                self_units,
                charged_units: charged,
                top_level,
            },
        );
        charged
    })
}

/// Records a memo-cache hit: no work of its own, but the memoized charged
/// cost flows to the enclosing operation (and to the context's profile)
/// exactly as if the result had been recomputed.
pub(crate) fn record_hit(kind: OpKind, cons_in: usize, charged: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let top_level = st.open.is_empty();
        if let Some(parent) = st.open.last_mut() {
            parent.children += charged;
        }
        append(
            &mut st,
            OpRecord {
                kind,
                cons_in: cons_in as u32,
                cons_out: 0,
                bnb_nodes: 0,
                negation_tests: 0,
                cache: CacheOutcome::Hit,
                duration_ns: 0,
                allocs: 0,
                self_units: 0,
                charged_units: charged,
                top_level,
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ledger is process-global; tests that enable it serialize here.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn scopes_nest_and_charge_parents() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        start();
        let _ctx = push_context("unit");
        let outer = op(OpKind::Projection, 10);
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
        // Totals: 2 feasibility-ish entries... shape check via totals().
        let t = ledger.totals();
        assert_eq!(t.feasibility_calls, 1);
        assert_eq!(t.bnb_nodes, 7);
        assert_eq!(t.projections, 1);
        assert_eq!(t.proj_cache_hits, 1);
        assert_eq!(ledger.charged_work(), 18);
    }

    /// A scan or lexopt record is charged its nested operations and no
    /// unit of its own, so wrapping a query in one moves no total; its hit
    /// replays that charge.
    #[test]
    fn compound_queries_charge_exactly_what_they_run() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
        let t = ledger.totals();
        assert_eq!((t.scan_cache_hits, t.scan_cache_misses), (1, 1));
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let _ctx = push_context("off");
        let scope = op(OpKind::FmStep, 3);
        assert_eq!(scope.finish(), 0);
        record_hit(OpKind::Feasibility, 1, 99);
        drop(_ctx);
        start();
        let ledger = finish();
        assert!(ledger.segments.is_empty());
    }

    #[test]
    fn scopes_isolate_and_drain_keeps_recording() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let scope = LedgerScope::new();
        scope.start();
        {
            let _sg = scope.install();
            let _ctx = push_context("scoped");
            op(OpKind::FmStep, 3).finish();
        }
        // Recorded into the scope, not the default store.
        start();
        let default_ledger = finish();
        assert!(
            default_ledger.segments.is_empty(),
            "scoped records leaked to default"
        );
        // drain() hands back the records and keeps the scope recording.
        let first = scope.drain();
        assert_eq!(first.totals().fm_steps, 1);
        assert!(scope.is_recording());
        {
            let _sg = scope.install();
            let _ctx = push_context("scoped");
            op(OpKind::LexSplit, 2).finish();
        }
        let second = scope.finish();
        assert_eq!(
            second.totals().fm_steps,
            0,
            "drain must not replay old records"
        );
        assert_eq!(second.totals().lex_splits, 1);
        assert!(!scope.is_recording());
    }

    #[test]
    fn uncontexted_records_become_orphans() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        start();
        op(OpKind::LexSplit, 2).finish();
        let ledger = finish();
        assert_eq!(ledger.segments.len(), 1);
        assert!(ledger.segments[0].ctx.is_empty());
        assert_eq!(ledger.totals().lex_splits, 1);
    }
}
