//! The trace recorder: spans, instant events, lanes, per-thread buffers,
//! and the deterministic merge (see the crate docs for the lane model).
//!
//! # Capture contexts
//!
//! All recorder state is scoped to an [`ObsContext`]: each context owns
//! its capture flag and its lane store. A process-wide *default context*
//! backs the classic free-function API ([`start_capture`] /
//! [`finish_capture`] / [`lane`] / [`span`] / [`event`]), which behaves
//! exactly as it did when the recorder was a process global. Concurrent sessions each create
//! their own context and [`install`](ObsContext::install) it on every
//! thread that works for them; records emitted on a thread go to that
//! thread's current context, so two captures running at once stay fully
//! isolated.
//!
//! When no capture is in progress anywhere in the process, [`enabled`]
//! is a single relaxed atomic load — the entire cost of the subsystem.
//!
//! # Lane lifecycle and teardown
//!
//! A lane buffer opened by any thread is registered with its owning
//! context. `finish_capture` first disables the context, then drains
//! every still-registered lane buffer (in lane-key order) into the store
//! before taking the merged trace, so records emitted by other threads
//! that happened-before the finish are never dropped. Records emitted
//! *after* the finish land in buffers stamped with a stale capture epoch
//! and are discarded at flush — they can never cross-attach to the next
//! capture.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

const R: Ordering = Ordering::Relaxed;

/// A typed field value attached to a record.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i128),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point (simulated times, flop counts).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl Value {
    /// Renders the value for the deterministic view and the explain
    /// report (`{:?}` for floats: shortest round-trip form).
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::UInt(v) => v.to_string(),
            Value::F64(v) => format!("{v:?}"),
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => v.clone(),
        }
    }

    /// The value as JSON (strings quoted and escaped).
    pub fn to_json(&self) -> String {
        match self {
            Value::Str(v) => crate::json::quote(v),
            Value::F64(v) if !v.is_finite() => crate::json::quote(&format!("{v}")),
            other => other.render(),
        }
    }
}

impl From<i128> for Value {
    fn from(v: i128) -> Self {
        Value::Int(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

/// Builds one key/value field.
pub fn field(key: &'static str, value: impl Into<Value>) -> (&'static str, Value) {
    (key, value.into())
}

/// What a record marks: span begin, span end, or an instant event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span entry.
    Begin,
    /// Span exit.
    End,
    /// Instant event.
    Instant,
}

/// One trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Begin / End / Instant.
    pub phase: Phase,
    /// Span or event name.
    pub name: &'static str,
    /// Nanoseconds since the capture started (monotonic clock).
    pub ts_ns: u64,
    /// Whether the record is part of the deterministic trace structure
    /// (identical across hosts and cache states). Diagnostic
    /// records set this to `false` and are excluded from
    /// [`Trace::deterministic_view`].
    pub det: bool,
    /// Key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A lane's ordering key. Lanes are merged in the natural order of their
/// keys, independent of thread scheduling.
pub type LaneKey = Vec<u64>;

/// The main lane: top-level pipeline phases recorded by the thread that
/// called [`compile`](https://docs.rs/dmc-core)/`build_schedule`/`run`.
pub fn main_lane() -> LaneKey {
    vec![0]
}

/// The lane of one (statement, read) analysis job of the pipeline,
/// keyed by textual order.
pub fn read_lane(stmt_idx: usize, read_no: usize) -> LaneKey {
    vec![1, stmt_idx as u64, read_no as u64]
}

/// The lane of one simulated processor's event timeline, keyed by
/// processor number. Sorts after the main and read lanes, so the machine
/// Gantt appears below the compiler lanes in exported traces.
pub fn sim_lane(proc: usize) -> LaneKey {
    vec![2, proc as u64]
}

/// Records emitted outside any lane scope (e.g. from a thread the
/// pipeline does not manage). Kept, but at the very end of the merge.
fn orphan_lane() -> LaneKey {
    vec![u64::MAX]
}

/// One lane of a merged trace.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneRecords {
    /// The ordering key.
    pub key: LaneKey,
    /// Human-readable label (Chrome thread name).
    pub label: String,
    /// Records in emission order.
    pub records: Vec<Record>,
}

/// A finished capture: lanes sorted by key, each lane's records in the
/// order its owning code emitted them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The merged lanes.
    pub lanes: Vec<LaneRecords>,
}

impl Trace {
    /// The deterministic skeleton of the trace: one rendered line per
    /// deterministic record, timestamps stripped. Two captures of the
    /// same compilation — regardless of memo-cache state or wall-clock
    /// speed — produce equal views.
    pub fn deterministic_view(&self) -> Vec<String> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            for r in lane.records.iter().filter(|r| r.det) {
                let fields: Vec<String> = r
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.render()))
                    .collect();
                out.push(format!(
                    "{}|{:?}|{}|{}",
                    lane.label,
                    r.phase,
                    r.name,
                    fields.join(",")
                ));
            }
        }
        out
    }

    /// Iterates `(lane, record)` over every lane in merge order.
    pub fn records(&self) -> impl Iterator<Item = (&LaneRecords, &Record)> {
        self.lanes
            .iter()
            .flat_map(|l| l.records.iter().map(move |r| (l, r)))
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.records.len()).sum()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Capture contexts.

/// Number of contexts with a capture in progress, process-wide. The
/// tracing-off fast path checks this single atomic before touching any
/// thread-local or per-context state.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

type Store = BTreeMap<LaneKey, (String, Vec<Record>)>;

/// One lane buffer, shared between the thread that opened it (which
/// appends records) and the owning context (which drains it at capture
/// teardown). The per-record lock is uncontended except at teardown.
struct LiveLane {
    key: LaneKey,
    label: String,
    /// The capture epoch the lane was opened under; flushes whose epoch
    /// is stale (the capture has since finished or restarted) discard.
    epoch: u64,
    records: Mutex<Vec<Record>>,
}

/// The state behind one [`ObsContext`] handle.
struct CtxInner {
    enabled: AtomicBool,
    start_ns: AtomicU64,
    /// Capture generation. Only written while `store` is locked, so a
    /// flush that checks it under the store lock is race-free.
    epoch: AtomicU64,
    store: Mutex<Store>,
    /// Lane buffers currently open on some thread. Drained (in key
    /// order) by `finish_capture`.
    live: Mutex<Vec<Arc<LiveLane>>>,
}

impl CtxInner {
    fn new() -> Self {
        CtxInner {
            enabled: AtomicBool::new(false),
            start_ns: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            store: Mutex::new(BTreeMap::new()),
            live: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        (epoch().elapsed().as_nanos() as u64).saturating_sub(self.start_ns.load(R))
    }

    fn start_capture(&self) {
        let _ = epoch();
        {
            let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
            store.clear();
            self.epoch.fetch_add(1, R);
        }
        // Lanes left over from a previous capture carry a stale epoch;
        // dropping the registry entries is enough — their flushes will
        // discard.
        self.live.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.start_ns.store(epoch().elapsed().as_nanos() as u64, R);
        if !self.enabled.swap(true, R) {
            ACTIVE.fetch_add(1, R);
        }
    }

    fn finish_capture(&self) -> Trace {
        if self.enabled.swap(false, R) {
            ACTIVE.fetch_sub(1, R);
        }
        // Drain every still-open lane buffer, in key order so the drain
        // itself is deterministic. Records are taken before the store is
        // locked (flushing guards lock records then store; taking both
        // here in the opposite order could deadlock).
        let mut live = std::mem::take(&mut *self.live.lock().unwrap_or_else(|e| e.into_inner()));
        live.sort_by(|a, b| a.key.cmp(&b.key));
        let batches: Vec<(LaneKey, String, u64, Vec<Record>)> = live
            .iter()
            .map(|l| {
                let records =
                    std::mem::take(&mut *l.records.lock().unwrap_or_else(|e| e.into_inner()));
                (l.key.clone(), l.label.clone(), l.epoch, records)
            })
            .collect();
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.epoch.load(R);
        for (key, label, lane_epoch, records) in batches {
            if records.is_empty() || lane_epoch != cur {
                continue;
            }
            let entry = store.entry(key).or_insert_with(|| (label, Vec::new()));
            entry.1.extend(records);
        }
        // Stale the epoch so flushes racing past this point discard
        // instead of attaching to the next capture.
        self.epoch.fetch_add(1, R);
        let lanes = std::mem::take(&mut *store)
            .into_iter()
            .map(|(key, (label, records))| LaneRecords {
                key,
                label,
                records,
            })
            .collect();
        Trace { lanes }
    }

    /// Merges a drained lane batch into the store if its capture is
    /// still the current one.
    fn flush_batch(&self, key: LaneKey, label: String, lane_epoch: u64, records: Vec<Record>) {
        if records.is_empty() {
            return;
        }
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        if lane_epoch != self.epoch.load(R) {
            return; // the capture finished or restarted: discard
        }
        let entry = store.entry(key).or_insert_with(|| (label, Vec::new()));
        entry.1.extend(records);
    }
}

fn default_ctx() -> &'static Arc<CtxInner> {
    static DEFAULT: OnceLock<Arc<CtxInner>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(CtxInner::new()))
}

thread_local! {
    /// The context records on this thread go to; `None` means the
    /// process default context.
    static CURRENT: RefCell<Option<Arc<CtxInner>>> = const { RefCell::new(None) };
}

fn with_current<T>(f: impl FnOnce(&Arc<CtxInner>) -> T) -> T {
    CURRENT.with(|c| match &*c.borrow() {
        Some(ctx) => f(ctx),
        None => f(default_ctx()),
    })
}

/// A scoped observability context: an isolated capture store. Handles
/// are cheap to clone (an `Arc`); clones refer to the same context.
///
/// A context only receives records from threads it is
/// [`install`](Self::install)ed on. `dmc_core::Session` compiles on its
/// caller's thread, so a context installed around a `compile` call
/// observes the whole pipeline.
#[derive(Clone)]
pub struct ObsContext {
    inner: Arc<CtxInner>,
}

impl ObsContext {
    /// Creates a fresh, idle context.
    pub fn new() -> Self {
        ObsContext {
            inner: Arc::new(CtxInner::new()),
        }
    }

    /// A handle to the process default context — the one the free
    /// functions [`start_capture`]/[`finish_capture`] operate on.
    pub fn default_context() -> Self {
        ObsContext {
            inner: Arc::clone(default_ctx()),
        }
    }

    /// A handle to the calling thread's current context (the default
    /// context unless an [`install`](Self::install) guard is live).
    pub fn current() -> Self {
        ObsContext {
            inner: with_current(Arc::clone),
        }
    }

    /// Whether two handles refer to the same context.
    pub fn same_context(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Starts a capture in this context: clears the store and re-anchors
    /// the clock. Restarting while a capture is in progress discards its
    /// records.
    pub fn start_capture(&self) {
        self.inner.start_capture();
    }

    /// Stops the capture and returns the merged trace. Lane buffers
    /// still open on *any* thread are drained (in lane-key order);
    /// records emitted after this call are discarded, never attached to
    /// a later capture.
    pub fn finish_capture(&self) -> Trace {
        self.inner.finish_capture()
    }

    /// Whether a capture is in progress in this context.
    pub fn is_capturing(&self) -> bool {
        self.inner.enabled.load(R)
    }

    /// Makes this context the calling thread's current context until the
    /// guard drops (the previous context is restored). Guards nest.
    pub fn install(&self) -> CtxGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.inner)));
        CtxGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Default for ObsContext {
    fn default() -> Self {
        ObsContext::new()
    }
}

impl std::fmt::Debug for ObsContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsContext")
            .field("capturing", &self.is_capturing())
            .finish()
    }
}

/// Restores the thread's previous context on drop. `!Send`: the guard
/// must drop on the thread that installed it.
pub struct CtxGuard {
    prev: Option<Arc<CtxInner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

// ---------------------------------------------------------------------------
// Per-thread lane stack.

struct LaneFrame {
    lane: Arc<LiveLane>,
    ctx: Arc<CtxInner>,
    /// Re-entry count: opening a lane scope whose key matches the current
    /// top reuses the buffer instead of nesting, so one thread's records
    /// for a lane always flush as a single in-order batch.
    depth: usize,
}

thread_local! {
    static LANES: RefCell<Vec<LaneFrame>> = const { RefCell::new(Vec::new()) };
}

fn emit(rec: Record) {
    with_current(|ctx| {
        LANES.with(|l| {
            let lanes = l.borrow();
            match lanes.last() {
                Some(frame) if Arc::ptr_eq(&frame.ctx, ctx) => {
                    frame
                        .lane
                        .records
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(rec);
                }
                // No lane open on this thread (for this context): flush
                // straight to the store as an orphan record.
                _ => ctx.flush_batch(
                    orphan_lane(),
                    "untracked".to_owned(),
                    ctx.epoch.load(R),
                    vec![rec],
                ),
            }
        });
    });
}

/// Whether a capture is in progress in the current thread's context. When
/// no capture is running anywhere in the process this is a single relaxed
/// atomic load — the entire cost of the subsystem.
pub fn enabled() -> bool {
    ACTIVE.load(R) != 0 && with_current(|ctx| ctx.enabled.load(R))
}

/// Starts a capture in the *default context*: clears its store and
/// re-anchors its clock. Callers that may run concurrently against the
/// default context (tests) must serialize captures themselves; code
/// that needs concurrent captures uses per-session [`ObsContext`]s.
pub fn start_capture() {
    default_ctx().start_capture();
}

/// Stops the default context's capture and returns the merged trace.
/// Lane buffers still open on any thread are drained in lane-key order
/// (their guards then close over empty buffers).
pub fn finish_capture() -> Trace {
    default_ctx().finish_capture()
}

/// Opens a lane scope on the current thread: records emitted until the
/// guard drops belong to `key`. Re-opening the current top key reuses the
/// buffer (see [`LaneKey`]); the buffer is flushed to the owning
/// context's store when the outermost guard for the key drops, or at
/// `finish_capture`, whichever comes first.
pub fn lane(key: LaneKey, label: impl Into<String>) -> LaneGuard {
    if !enabled() {
        return LaneGuard { armed: false };
    }
    with_current(|ctx| {
        LANES.with(|l| {
            let mut lanes = l.borrow_mut();
            let cur_epoch = ctx.epoch.load(R);
            if let Some(top) = lanes.last_mut() {
                if top.lane.key == key && Arc::ptr_eq(&top.ctx, ctx) && top.lane.epoch == cur_epoch
                {
                    top.depth += 1;
                    return;
                }
            }
            let lane = Arc::new(LiveLane {
                key,
                label: label.into(),
                epoch: cur_epoch,
                records: Mutex::new(Vec::new()),
            });
            ctx.live
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&lane));
            lanes.push(LaneFrame {
                lane,
                ctx: Arc::clone(ctx),
                depth: 0,
            });
        });
    });
    LaneGuard { armed: true }
}

/// Closes its lane scope on drop.
pub struct LaneGuard {
    armed: bool,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let frame = LANES.with(|l| {
            let mut lanes = l.borrow_mut();
            if let Some(top) = lanes.last_mut() {
                if top.depth > 0 {
                    top.depth -= 1;
                    return None;
                }
            }
            lanes.pop()
        });
        let Some(frame) = frame else { return };
        // Unregister from the context's live list (finish_capture may
        // have already drained and dropped it).
        {
            let mut live = frame.ctx.live.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pos) = live.iter().position(|l| Arc::ptr_eq(l, &frame.lane)) {
                live.swap_remove(pos);
            }
        }
        let records =
            std::mem::take(&mut *frame.lane.records.lock().unwrap_or_else(|e| e.into_inner()));
        frame.ctx.flush_batch(
            frame.lane.key.clone(),
            frame.lane.label.clone(),
            frame.lane.epoch,
            records,
        );
    }
}

/// Begins a span; the guard emits the matching end record on drop.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Begins a span with fields, building them only when tracing is on.
pub fn span_f(
    name: &'static str,
    fields: impl FnOnce() -> Vec<(&'static str, Value)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, armed: false };
    }
    span_with(name, fields())
}

fn span_with(name: &'static str, fields: Vec<(&'static str, Value)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, armed: false };
    }
    let ts_ns = with_current(|ctx| ctx.now_ns());
    emit(Record {
        phase: Phase::Begin,
        name,
        ts_ns,
        det: true,
        fields,
    });
    SpanGuard { name, armed: true }
}

/// Ends its span on drop (balanced even on early return or panic).
pub struct SpanGuard {
    name: &'static str,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let ts_ns = with_current(|ctx| ctx.now_ns());
            emit(Record {
                phase: Phase::End,
                name: self.name,
                ts_ns,
                det: true,
                fields: Vec::new(),
            });
        }
    }
}

fn instant(name: &'static str, det: bool, fields: Vec<(&'static str, Value)>) {
    let ts_ns = with_current(|ctx| ctx.now_ns());
    emit(Record {
        phase: Phase::Instant,
        name,
        ts_ns,
        det,
        fields,
    });
}

/// Emits a deterministic instant event.
pub fn event(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if enabled() {
        instant(name, true, fields);
    }
}

/// Emits a deterministic instant event, building fields lazily.
pub fn event_f(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
    if enabled() {
        instant(name, true, fields());
    }
}

/// Emits a diagnostic event whose presence may depend on scheduling or
/// cache state; excluded from [`Trace::deterministic_view`].
pub fn event_nondet(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if enabled() {
        instant(name, false, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Captures on the default context are process-wide; serialize the
    /// tests that use the free-function API.
    static CAPTURE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!ObsContext::default_context().is_capturing());
        let _lane = lane(main_lane(), "main");
        let _span = span("nothing");
        event("nothing", vec![field("k", 1u64)]);
        // No capture was started: nothing may have been recorded.
        start_capture();
        let t = finish_capture();
        assert!(t.is_empty());
    }

    #[test]
    fn lanes_merge_sorted_and_spans_balance() {
        let _g = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        start_capture();
        {
            let _lane = lane(main_lane(), "main");
            let _s = span_f("compile", || vec![field("jobs", 2u64)]);
            {
                let _rl = lane(read_lane(1, 0), "read 1/0");
                let _rs = span("read");
                event("prov.pass", vec![field("pass", "self_reuse")]);
            }
            {
                let _rl = lane(read_lane(0, 0), "read 0/0");
                let _rs = span("read");
            }
            event_nondet("compile.workers", vec![field("workers", 4u64)]);
        }
        let t = finish_capture();
        // Lanes sorted by key: main [0] first, then read lanes in textual
        // order regardless of emission order.
        let labels: Vec<&str> = t.lanes.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, vec!["main", "read 0/0", "read 1/0"]);
        // Begin/End balance per lane.
        for lane in &t.lanes {
            let mut depth = 0i64;
            for r in &lane.records {
                match r.phase {
                    Phase::Begin => depth += 1,
                    Phase::End => depth -= 1,
                    Phase::Instant => {}
                }
                assert!(depth >= 0, "unbalanced in {}", lane.label);
            }
            assert_eq!(depth, 0, "unbalanced in {}", lane.label);
        }
        // The nondet event is excluded from the deterministic view.
        let view = t.deterministic_view();
        assert!(
            view.iter().all(|l| !l.contains("compile.workers")),
            "{view:?}"
        );
        assert!(view.iter().any(|l| l.contains("pass=self_reuse")));
    }

    #[test]
    fn same_key_lane_scopes_share_one_buffer() {
        let _g = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        start_capture();
        {
            let _outer = lane(main_lane(), "main");
            event("a", vec![]);
            {
                let _inner = lane(main_lane(), "main");
                event("b", vec![]);
            }
            event("c", vec![]);
        }
        let t = finish_capture();
        let names: Vec<&str> = t.lanes[0].records.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec!["a", "b", "c"],
            "re-entry must preserve program order"
        );
    }

    #[test]
    fn worker_threads_merge_deterministically() {
        let _g = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        let run = |workers: usize| {
            start_capture();
            {
                let _lane = lane(main_lane(), "main");
                let _s = span("compile");
                let jobs: Vec<usize> = (0..6).collect();
                if workers <= 1 {
                    for &j in &jobs {
                        let _rl = lane(read_lane(j, 0), format!("read {j}/0"));
                        event("job", vec![field("j", j)]);
                    }
                } else {
                    std::thread::scope(|scope| {
                        for chunk in jobs.chunks(jobs.len().div_ceil(workers)) {
                            scope.spawn(move || {
                                for &j in chunk {
                                    let _rl = lane(read_lane(j, 0), format!("read {j}/0"));
                                    event("job", vec![field("j", j)]);
                                }
                            });
                        }
                    });
                }
            }
            finish_capture().deterministic_view()
        };
        assert_eq!(
            run(1),
            run(3),
            "merged trace must not depend on worker count"
        );
    }

    /// Regression test for the capture-lifecycle race: a worker thread
    /// still holds an open lane buffer when `finish_capture` runs. The
    /// finish must drain the worker's records (they happened-before the
    /// finish), and records the worker emits *after* the finish must be
    /// discarded — not attached to the next capture.
    #[test]
    fn finish_drains_live_worker_lanes_and_discards_late_records() {
        let _g = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        use std::sync::mpsc;
        start_capture();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let _rl = lane(read_lane(0, 0), "read 0/0");
            event("before.finish", vec![]);
            ready_tx.send(()).unwrap();
            // Wait until the main thread finished the capture, then emit
            // into the still-open lane.
            done_rx.recv().unwrap();
            event("after.finish", vec![]);
        });
        ready_rx.recv().unwrap();
        let t = finish_capture();
        let names: Vec<&str> = t.records().map(|(_, r)| r.name).collect();
        assert_eq!(
            names,
            vec!["before.finish"],
            "live worker lane must be drained"
        );
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        // The late record must not leak into a fresh capture.
        start_capture();
        let t2 = finish_capture();
        assert!(t2.is_empty(), "late records must be discarded, got {t2:?}");
    }

    /// Two contexts capturing at once on different threads stay fully
    /// isolated, and neither interferes with the default context.
    #[test]
    fn contexts_isolate_concurrent_captures() {
        let solo = |tag: u64| {
            let ctx = ObsContext::new();
            ctx.start_capture();
            {
                let _g = ctx.install();
                let _lane = lane(main_lane(), format!("main {tag}"));
                let _s = span("compile");
                event("tagged", vec![field("tag", tag)]);
            }
            ctx.finish_capture().deterministic_view()
        };
        let solo_a = solo(1);
        let solo_b = solo(2);
        let (view_a, view_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| solo(1));
            let b = scope.spawn(|| solo(2));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(view_a, solo_a);
        assert_eq!(view_b, solo_b);
        assert_ne!(view_a, view_b);
    }

    #[test]
    fn install_guard_restores_previous_context() {
        let a = ObsContext::new();
        let b = ObsContext::new();
        assert!(ObsContext::current().same_context(&ObsContext::default_context()));
        {
            let _ga = a.install();
            assert!(ObsContext::current().same_context(&a));
            {
                let _gb = b.install();
                assert!(ObsContext::current().same_context(&b));
            }
            assert!(ObsContext::current().same_context(&a));
        }
        assert!(ObsContext::current().same_context(&ObsContext::default_context()));
    }
}
