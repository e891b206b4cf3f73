//! # dmc-obs
//!
//! Zero-dependency structured tracing for the dmc compiler pipeline:
//! span enter/exit with monotonic timestamps, typed instant events with
//! key/value fields, and lanes merged deterministically. When the calling
//! thread is not capturing, the overhead is one thread-local read.
//!
//! ## One capture per thread
//!
//! [`start_capture`] and [`finish_capture`] act on the calling thread,
//! and a record is kept only if the thread that emits it is capturing —
//! the isolation rule of the engine's work ledger. A compile runs on its
//! caller's thread from start to finish, so a capture around it observes
//! the whole pipeline, and captures on two threads never mix. A lane or
//! span guard remembers the capture it was opened in: once that capture
//! has finished or restarted, the guard writes nothing.
//!
//! ## Lanes: a deterministic order
//!
//! Records are not ordered by wall-clock time — that would make a trace
//! depend on which thread emitted what when. Instead every record belongs
//! to a **lane**, a logical ordering key (e.g. `main`, or
//! `read/⟨stmt⟩/⟨read⟩` for one (statement, read) analysis job of the
//! pipeline). Within a lane, records keep the order in which the owning
//! code emitted them; lanes are merged sorted by key, so the merged trace
//! does not depend on the order in which the lanes ran — only the
//! timestamps move.
//!
//! Every record is structural: a span, a provenance event or a sim-lane
//! step is emitted by the same code whatever the memo caches hold, so
//! [`Trace::deterministic_view`] — the records with their timestamps
//! stripped — is equal across cache states and hosts. Nothing whose
//! *presence* depends on what ran before is traced; the engine counts
//! such facts (an exhausted feasibility budget, a cache hit) in its work
//! ledger instead.
//!
//! ## Sinks
//!
//! * [`chrome_trace`] — a Chrome `trace_events` JSON document loadable in
//!   `chrome://tracing` or Perfetto; one display thread per lane.
//!   [`validate_chrome`] re-parses a document and checks it is well-formed
//!   JSON with balanced begin/end pairs and monotonic timestamps.
//! * [`Provenance`] — the compiler's provenance events parsed once into
//!   typed values: which read created every surviving message, which §6
//!   pass removed each eliminated communication set and which sets were
//!   split for legality. It renders the explain report's Reads and
//!   Surviving messages sections; `dmc explain` adds the Reuse section
//!   from its session's stage counts, the machine sections from the
//!   simulator's own statistics and critical-path analysis, and the
//!   Hotspots section from the engine's work ledger.
//! * [`json`] — the JSON values, parser and tree diff the harness's
//!   documents are written and compared with.
//!
//! ## Machine lanes
//!
//! The critical-path analysis (`dmc_machine::critpath::analyze`) draws a
//! run's per-processor timelines into **sim lanes** ([`sim_lane`]), one
//! per simulated processor plus one for the critical path; the simulator
//! itself records none. Their records carry `t0` (and for intervals `t1`)
//! fields holding *simulated* seconds; the Chrome exporter renders them
//! as complete events on a second process, so a trace opens as the
//! compiler's wall-clock lanes plus a one-row-per-processor Gantt chart
//! of the simulated machine.

#![warn(missing_docs)]

mod chrome;
mod explain;
pub mod json;
mod trace;

pub use chrome::{chrome_trace, validate_chrome, TraceCheck};
pub use explain::{MessageProv, Provenance, ReadProv, Split};
pub use trace::{
    enabled, event, event_f, field, finish_capture, lane, main_lane, read_lane, sim_lane, span,
    span_f, start_capture, LaneGuard, LaneKey, LaneRecords, Phase, Record, SpanGuard, Trace, Value,
};
