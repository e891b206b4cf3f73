//! In-memory span recorder for the traced pass.
//!
//! The harness wraps every call into a layer's public functions in
//! [`span`]. With tracing off (every timed pass) `span` runs the closure
//! and nothing else — no clock read, no allocation. With tracing on it
//! records name, start, end, parent and the current request id; spans stay
//! in memory and are written once, at exit, by [`write_json`].
//!
//! The recorder is thread-local: the harness is single-threaded and
//! `Session` resolves every store access on the calling thread, so the
//! [`TimedStore`](crate::timed_store::TimedStore) decorator lands in the
//! same recorder without carrying a handle. The compiler's own per-read
//! worker threads record nothing; their time is inside the calling span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since [`start`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The request being served when the span opened (`u32::MAX` outside
    /// any request: pass-level work such as opening the store).
    pub request: u32,
    /// A count measured at the same boundary (bytes for store spans).
    pub count: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// The request id spans carry outside any request.
pub const NO_REQUEST: u32 = u32::MAX;

/// Turns tracing on for this thread, discarding any unfinished recording.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: NO_REQUEST,
        });
    });
}

/// Turns tracing off and returns the recorded spans, parents before
/// children.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Whether tracing is on for this thread.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Sets the request id that subsequently opened spans carry.
pub fn set_request(id: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = id;
        }
    });
}

/// Runs `f` inside a span named `name`. With tracing off this is exactly
/// `f()`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_counted(name, || (f(), 0))
}

/// As [`span`], for a closure that also yields a count measured at the
/// boundary (the byte count of a store operation). The count is dropped
/// when tracing is off.
pub fn span_counted<T>(name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
    let Some(index) = open(name) else {
        return f().0;
    };
    let (value, count) = f();
    close(index, count);
    value
}

fn open(name: &'static str) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: rec.open.last().copied(),
            request: rec.request,
            count: 0,
        });
        rec.open.push(index);
        // Clock read last, so recorder bookkeeping is charged to the parent.
        rec.spans[index].start_ns = rec.epoch.elapsed().as_nanos() as u64;
        Some(index)
    })
}

fn close(index: usize, count: u64) {
    RECORDER.with(|r| {
        // `finish` inside an open span drops the recorder; nothing to close.
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans[index].count = count;
            let top = rec.open.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
        }
    });
}

/// Per-name totals over a recording.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub calls: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ span durations minus the part their child spans cover.
    pub self_ns: u64,
    /// Σ span counts.
    pub count: u64,
}

/// Checks the recording's structure and returns per-name totals.
///
/// The run fails (an `Err`) when a span is unfinished, ends before it
/// starts, leaves its parent's interval, or overlaps a sibling — any of
/// which would make "self time = duration − children" meaningless.
pub fn analyze(spans: &[Span]) -> Result<BTreeMap<&'static str, NameTotal>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_child_end = vec![0u64; spans.len()];
    for (k, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!(
                "span {k} `{}` ends before it starts (unfinished?)",
                s.name
            ));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if p >= k || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {k} `{}` leaves its parent {p} `{}`",
                    s.name, parent.name
                ));
            }
            if s.start_ns < last_child_end[p] {
                return Err(format!(
                    "span {k} `{}` overlaps an earlier child of {p} `{}`",
                    s.name, parent.name
                ));
            }
            last_child_end[p] = s.end_ns;
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (k, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur - child_ns[k];
        t.count += s.count;
    }
    Ok(totals)
}

/// Renders recordings as one JSON document: `{"workload": …, "<section>":
/// [{"name", "start_ns", "end_ns", "parent", "request", "count"}, …], …}`.
pub fn write_json(workload: &str, sections: &[(&str, &[Span])]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\"");
    for (section, spans) in sections {
        write!(out, ",\n\"{section}\": [").expect("write to String");
        for (k, s) in spans.iter().enumerate() {
            let sep = if k == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = if s.request == NO_REQUEST {
                "null".to_owned()
            } else {
                s.request.to_string()
            };
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}, \"count\": {}}}",
                s.name, s.start_ns, s.end_ns, s.count
            )
            .expect("write to String");
        }
        out.push_str("\n]");
    }
    out.push_str("\n}\n");
    out
}
