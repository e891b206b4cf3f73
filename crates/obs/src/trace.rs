//! The trace recorder: spans, instant events and lanes, kept one capture
//! per thread (see the crate docs for the lane model).
//!
//! # One capture per thread
//!
//! [`start_capture`] and [`finish_capture`] act on the calling thread,
//! and a record is kept only if the thread that emits it is capturing. A
//! compile runs on its caller's thread from start to finish, so the
//! thread is the isolation, as it is for the engine's work ledger: two
//! threads capturing at once never see each other's records, and a
//! thread that is not capturing records nothing. When the calling thread
//! is not capturing, [`enabled`] is one thread-local read — the entire
//! cost of the subsystem.
//!
//! A capture keeps each lane's records in emission order; a lane appears
//! at its first record, and records emitted outside every lane scope go
//! to the `untracked` lane, which sorts last.
//!
//! # Guards and generations
//!
//! Every start and every finish begins a new generation of the thread's
//! capture. A [`LaneGuard`] or [`SpanGuard`] remembers the generation it
//! was opened in; once that capture has finished or restarted, the guard
//! writes nothing — neither into the finished trace nor into the next
//! capture.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

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
    /// Key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A lane's ordering key. A trace lists its lanes in the natural order of
/// their keys, independent of the order in which they ran.
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
    /// record, timestamps stripped. Two captures of the same compilation —
    /// regardless of memo-cache state or wall-clock speed — produce equal
    /// views.
    pub fn deterministic_view(&self) -> Vec<String> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            for r in &lane.records {
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
// The calling thread's capture.

/// One thread's capture: its clock, its lanes and its open lane scopes.
struct Capture {
    /// The instant the capture started; record timestamps count from it.
    origin: Instant,
    /// Every lane that received a record, with its label and its records
    /// in emission order.
    lanes: BTreeMap<LaneKey, (String, Vec<Record>)>,
    /// The open lane scopes, innermost last.
    open: Vec<(LaneKey, String)>,
    /// Bumped by every start and finish: a guard opened under another
    /// generation belongs to a capture that is over, and writes nothing.
    generation: u64,
}

impl Capture {
    /// Appends a record, stamped now, to the innermost open lane, or to
    /// the `untracked` lane when no lane scope is open.
    fn push(&mut self, phase: Phase, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let rec = Record {
            phase,
            name,
            ts_ns: self.origin.elapsed().as_nanos() as u64,
            fields,
        };
        let (key, label): (&[u64], &str) = match self.open.last() {
            Some((key, label)) => (key, label),
            None => (UNTRACKED, "untracked"),
        };
        match self.lanes.get_mut(key) {
            Some((_, records)) => records.push(rec),
            None => {
                self.lanes
                    .insert(key.to_vec(), (label.to_owned(), vec![rec]));
            }
        }
    }
}

/// The key of the lane that receives records emitted outside every lane
/// scope. Sorts after every other lane.
const UNTRACKED: &[u64] = &[u64::MAX];

thread_local! {
    /// Whether the calling thread is capturing: when tracing is off, the
    /// recorder's whole cost is reading this flag.
    static ON: Cell<bool> = const { Cell::new(false) };
    static CAPTURE: RefCell<Capture> = RefCell::new(Capture {
        origin: Instant::now(),
        lanes: BTreeMap::new(),
        open: Vec::new(),
        generation: 0,
    });
}

/// Whether the calling thread is capturing. When it is not, this is one
/// thread-local read — the entire cost of the subsystem.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Starts a capture on the calling thread: clears its lanes and
/// re-anchors its clock. Restarting while a capture is in progress
/// discards its records; guards opened before the restart write nothing.
pub fn start_capture() {
    CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        c.lanes.clear();
        c.open.clear();
        c.generation += 1;
        c.origin = Instant::now();
    });
    ON.with(|on| on.set(true));
}

/// Stops the calling thread's capture and returns its trace. Guards still
/// open write nothing afterwards, neither here nor into a later capture.
pub fn finish_capture() -> Trace {
    ON.with(|on| on.set(false));
    CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        c.open.clear();
        c.generation += 1;
        let lanes = std::mem::take(&mut c.lanes)
            .into_iter()
            .map(|(key, (label, records))| LaneRecords {
                key,
                label,
                records,
            })
            .collect();
        Trace { lanes }
    })
}

/// The generation of the calling thread's capture, if it is capturing.
fn generation() -> Option<u64> {
    if enabled() {
        Some(CAPTURE.with(|c| c.borrow().generation))
    } else {
        None
    }
}

/// Runs `f` on the calling thread's capture if it is still the one of
/// `generation`.
fn with_capture(generation: Option<u64>, f: impl FnOnce(&mut Capture)) {
    let Some(generation) = generation else { return };
    CAPTURE.with(|c| {
        let mut c = c.borrow_mut();
        if c.generation == generation {
            f(&mut c);
        }
    });
}

/// Opens a lane scope on the calling thread: records emitted until the
/// guard drops belong to `key`. Re-opening the innermost open key keeps
/// its label, so a lane's records stay one sequence in emission order.
pub fn lane(key: LaneKey, label: impl Into<String>) -> LaneGuard {
    let generation = generation();
    with_capture(generation, |c| {
        let frame = match c.open.last() {
            Some(top) if top.0 == key => top.clone(),
            _ => (key, label.into()),
        };
        c.open.push(frame);
    });
    LaneGuard { generation }
}

/// Closes its lane scope on drop, if its capture is still running.
pub struct LaneGuard {
    generation: Option<u64>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        with_capture(self.generation, |c| {
            c.open.pop();
        });
    }
}

/// Begins a span; the guard emits the matching end record on drop.
pub fn span(name: &'static str) -> SpanGuard {
    span_f(name, Vec::new)
}

/// Begins a span with fields, building them only when tracing is on.
pub fn span_f(
    name: &'static str,
    fields: impl FnOnce() -> Vec<(&'static str, Value)>,
) -> SpanGuard {
    let generation = generation();
    if generation.is_some() {
        record(Phase::Begin, name, fields());
    }
    SpanGuard { name, generation }
}

/// Ends its span on drop (balanced even on early return or panic), if
/// its capture is still running.
pub struct SpanGuard {
    name: &'static str,
    generation: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        with_capture(self.generation, |c| {
            c.push(Phase::End, self.name, Vec::new());
        });
    }
}

/// Appends one record to the calling thread's capture. Its fields are
/// built before the capture is borrowed.
fn record(phase: Phase, name: &'static str, fields: Vec<(&'static str, Value)>) {
    CAPTURE.with(|c| c.borrow_mut().push(phase, name, fields));
}

/// Emits an instant event.
pub fn event(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if enabled() {
        record(Phase::Instant, name, fields);
    }
}

/// Emits an instant event, building fields lazily.
pub fn event_f(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
    if enabled() {
        record(Phase::Instant, name, fields());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn disabled_recorder_is_inert() {
        assert!(!enabled());
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
            event("compile.workers", vec![field("workers", 4u64)]);
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
        // The view renders every record, timestamps stripped.
        let view = t.deterministic_view();
        assert_eq!(view.len(), t.len());
        assert!(
            view.contains(&"main|Instant|compile.workers|workers=4".to_owned()),
            "{view:?}"
        );
        assert!(view.iter().any(|l| l.contains("pass=self_reuse")));
    }

    #[test]
    fn same_key_lane_scopes_share_one_buffer() {
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

    /// Two threads capturing at once stay fully isolated, and a third
    /// thread, not capturing, records nothing into either.
    #[test]
    fn threads_isolate_concurrent_captures() {
        let solo = |tag: u64, all: Option<&Barrier>| {
            start_capture();
            {
                let _lane = lane(main_lane(), format!("main {tag}"));
                let _s = span("compile");
                // Both captures are running while the bystander looks.
                if let Some(all) = all {
                    all.wait();
                }
                event("tagged", vec![field("tag", tag)]);
                if let Some(all) = all {
                    all.wait();
                }
            }
            finish_capture().deterministic_view()
        };
        let solo_a = solo(1, None);
        let solo_b = solo(2, None);
        let all = Barrier::new(3);
        let (view_a, view_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| solo(1, Some(&all)));
            let b = scope.spawn(|| solo(2, Some(&all)));
            all.wait();
            assert!(!enabled(), "a bystander thread must not be capturing");
            let _lane = lane(main_lane(), "bystander");
            event("bystander", vec![]);
            all.wait();
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(view_a, solo_a);
        assert_eq!(view_b, solo_b);
        assert_ne!(view_a, view_b);
    }

    /// A guard that outlives its capture writes nothing: not into the
    /// finished trace, and not into the next capture on the thread.
    #[test]
    fn guards_outliving_their_capture_write_nothing() {
        start_capture();
        let old_lane = lane(main_lane(), "main");
        let ended_between = span("ended.between");
        let ended_after = span("ended.after");
        let first = finish_capture();
        drop(ended_between);
        start_capture();
        {
            let _rl = lane(read_lane(0, 0), "read 0/0");
            // Neither may close a scope of the new capture or end a span
            // in it.
            drop(ended_after);
            drop(old_lane);
            event("fresh", vec![]);
        }
        let second = finish_capture();
        let lanes = |t: &Trace| -> Vec<(String, Vec<(Phase, &'static str)>)> {
            let recs = |l: &LaneRecords| l.records.iter().map(|r| (r.phase, r.name)).collect();
            t.lanes.iter().map(|l| (l.label.clone(), recs(l))).collect()
        };
        assert_eq!(
            lanes(&first),
            vec![(
                "main".to_owned(),
                vec![
                    (Phase::Begin, "ended.between"),
                    (Phase::Begin, "ended.after")
                ]
            )]
        );
        assert_eq!(
            lanes(&second),
            vec![("read 0/0".to_owned(), vec![(Phase::Instant, "fresh")])]
        );
    }
}
