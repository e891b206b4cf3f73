//! The distributed-memory machine simulator.
//!
//! Executes a [`Schedule`] on `P` simulated processors with local memories
//! and blocking receives, under the [`MachineConfig`] cost model. Two
//! fidelities:
//!
//! * **values mode** — every compute block runs its iterations for real
//!   against the processor's local memory, messages carry actual values,
//!   and the final global memory (merged by write stamp) must equal the
//!   sequential interpreter's result. A read of an element of which a
//!   processor holds no copy is a hard error. A processor reads whatever
//!   copy it holds, though, and a copy that a missing message should have
//!   refreshed is read without error: a run proves the compiler's
//!   communication plan sufficient only together with the comparison of
//!   its final memory against the interpreter's.
//! * **timing mode** — blocks only advance the clock by their flop count
//!   and messages carry sizes; used for large problem sizes (Figure 14).
//!   Nothing below is built: no layout, no memory, no lowered statement.
//!
//! # One clock
//!
//! `run_machine` is the machine itself, and both [`simulate`] and
//! [`crate::critpath::analyze`] drive it: the processors and what each
//! runs next, blocking receives, the mailbox, deadlock, the checks on
//! message ids and ranks, and each action's cost, rounded once to whole
//! nanoseconds ([`ns_of`]) and added to `u64` clocks.
//!
//! The mailbox hashes nothing. It is one slot per (message, receiver
//! position), laid out message by message behind a table of each
//! message's first slot that is built once on entry (a message naming a
//! rank out of range, or one rank twice, is refused there), and one
//! arrival time per message. A send marks its message's slots and sets
//! the arrival; a receive finds its slot by its place `k` among the
//! message's receivers, clears it, and takes the arrival plus `k` (the
//! k-th receiver of a multicast is served k ns after the first). A
//! receive of a message past the table, of one its processor does not
//! receive, or of one already taken finds no slot marked and blocks, like
//! a receive of a message not yet sent, so such a schedule ends in
//! [`SimError::Deadlock`].
//!
//! `simulate` adds what a run computes (values mode) and the run's totals
//! ([`SimStats`], its time as nanoseconds × 1e-9), and records nothing
//! into a trace but its `simulate` span. The analysis adds the event DAG,
//! and with it the run's one account: blame per processor, link and
//! message, each transmission's latency and, when the calling thread is
//! capturing, the machine's Gantt lanes.
//!
//! # Local memories
//!
//! A processor's memory is dense. Every declared array gets a row-major
//! range of *slots* (the same ranges on every processor, so a slot number
//! means the same element everywhere), and a processor holds per slot an
//! `f64` and the `Version` of its copy, one 8-byte word. A slot is
//! present once the initial placement, a write or a received message put a
//! value there, and reading an absent slot is [`SimError::MissingValue`]:
//! presence is what makes the memory local. The footprint is
//! `P × Σ elements × 16` bytes, whatever the depth of the deepest nest.
//!
//! # Versions
//!
//! A copy is identified by the write that produced it, and where two
//! copies meet (a receive, the final merge) the later write wins. A
//! version names that write without storing its [`Stamp`]: the live-in
//! value (stamp `[-1]`), element `at` of the `block`-th compute block
//! (blocks are numbered once, on entry; the stamp interleaves the
//! statement's position with the block's prefix and `lo + at`), or row
//! `item` of message `msg`'s [`Payload`] (the writer's template read with
//! the row's iteration). Two versions compare as the stamps they denote,
//! read in place from the schedule by [`StampRef`] — the comparison the
//! planner orders actions by — component by component, with no
//! allocation: exactly the order of `Vec<i128>`, in which a proper prefix
//! sorts first. Two elements of
//! one block compare by `at` alone. Each field is packed with a checked
//! conversion, and a schedule with more blocks, a longer block, more
//! messages or a longer payload than a field holds is refused on entry.
//!
//! # Resolved once
//!
//! Before the first action runs, [`simulate`] resolves every name the
//! schedule mentions: array names to slot ranges with evaluated extents;
//! each scheduled statement's subscripts to coefficient rows over its loop
//! variables with the parameters folded into the constant, and its
//! right-hand side to postfix code; each payload row to a slot; every
//! compute block to its number; each owned array's data decomposition to
//! coefficient rows over its subscripts, which place the live-in copies.
//! Whatever cannot be resolved — an unbound parameter, a block whose
//! prefix does not fit its statement, a payload that names no write
//! instance (a writer that is no statement, an undeclared array, rows of
//! the wrong width), a decomposition map that names anything but the
//! array's subscripts — is a [`SimError::MalformedSchedule`] here, not a
//! panic later. A block
//! then checks each of its accesses at the two ends of its inner range (a
//! subscript is affine, hence monotone, in the innermost variable) and
//! steps flat slot numbers by a constant stride: an element costs no
//! hashing, no string comparison and no allocation.
//!
//! The lowered forms and their arithmetic — rows, postfix code, cursors —
//! are [`dmc_ir::lower`], the evaluator `dmc_ir::interp::run` executes
//! too: `a * b + c` is computed by one piece of code on both sides of the
//! oracle. Everything a distributed run can get wrong stays here and is
//! not shared: which processor runs a block and when, presence, versions,
//! what a message carries and which copy wins.
//!
//! # Strips
//!
//! A block inside every array runs in strips, as the interpreter does:
//! [`LoweredStmt::strips`] gives the strip length (up to
//! [`dmc_ir::lower::STRIP_MAX`]), and each strip is evaluated by
//! [`LoweredStmt::eval_strip`] — op by op over columns, and instance by
//! instance only downstream of a *carried* read, which takes the strip's
//! own value `d` elements back ([`LoweredStmt::carry`]) — and then
//! written in element order, each element with its own version. Before a
//! strip writes anything, every slot its reads take from memory must hold
//! a copy (a read carried at `d`: its first `d` slots; the rest are the
//! strip's own writes); if one does not, the strip is run again element
//! by element, which writes the elements before the first missing read
//! and reports that read's [`SimError::MissingValue`] — the error, and the
//! memory left behind, that running the whole block element by element
//! gives. A read of the written array with another stride that meets the
//! write's slots runs element by element throughout. The values are
//! bit-identical either way: each element performs the same `f64`
//! operations on the same operands in the same order.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

use dmc_decomp::{DataDecomp, ProcGrid};
use dmc_ir::interp::Memory;
use dmc_ir::lower::{Access, Columns, Cursor, LoweredStmt, Unlowered, NO_SLOT};
use dmc_ir::{ArrayRef, Program, StmtInfo};

use dmc_obs as obs;

use crate::config::MachineConfig;
use crate::schedule::{template_of, Action, MessageSpec, Payload, Schedule, Stamp, StampRef};
use crate::stats::SimStats;

/// Rounds simulated seconds onto the integer-nanosecond grid.
pub fn ns_of(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// Where live-in data resides before execution.
#[derive(Clone, Debug)]
pub enum InitialPlacement {
    /// Every processor holds (a copy of) the initial contents of every
    /// array. Communication for ⊥ reads is unnecessary.
    Replicated,
    /// Arrays are distributed per the given data decompositions (folded to
    /// physical processors); arrays not listed are replicated. ⊥ reads on
    /// other processors must be satisfied by planned messages.
    Owned(HashMap<String, DataDecomp>),
}

/// Simulator errors. `MissingValue` is the important one: it means the
/// communication plan failed to deliver a value some processor needed.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A processor read an element it does not have.
    MissingValue {
        /// Reading processor rank.
        proc: usize,
        /// Array name.
        array: String,
        /// Global subscripts.
        idx: Vec<i128>,
        /// Statement performing the read.
        stmt: usize,
    },
    /// All unfinished processors are blocked on receives.
    Deadlock {
        /// Ranks of the blocked processors.
        blocked: Vec<usize>,
    },
    /// A processor wrote an element outside its array's declared extents.
    OutOfBounds {
        /// Writing processor rank.
        proc: usize,
        /// Array name.
        array: String,
        /// Global subscripts.
        idx: Vec<i128>,
        /// Statement performing the write.
        stmt: usize,
    },
    /// The schedule does not fit the program or the machine: a rank out of
    /// range, a `Send` on a processor that is not the message's sender,
    /// and (values mode) whatever the resolve step cannot resolve — an
    /// unbound parameter, a block whose prefix does not fit its statement,
    /// a payload item that names no element slot or carries no usable
    /// stamp. The text names the statement or message.
    MalformedSchedule(String),
    /// A statement id in a block does not exist.
    NoSuchStatement(usize),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MissingValue {
                proc,
                array,
                idx,
                stmt,
            } => write!(
                f,
                "processor {proc} read {array}{idx:?} in S{stmt} but no value was present \
                 (communication plan is insufficient)"
            ),
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock: processors {blocked:?} all wait on receives")
            }
            SimError::OutOfBounds {
                proc,
                array,
                idx,
                stmt,
            } => write!(
                f,
                "processor {proc} wrote {array}{idx:?} in S{stmt}, outside the declared extents"
            ),
            SimError::MalformedSchedule(m) => write!(f, "malformed schedule: {m}"),
            SimError::NoSuchStatement(s) => write!(f, "no such statement S{s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Cost-model statistics.
    pub stats: SimStats,
    /// The merged final memory (values mode only).
    pub memory: Option<Memory>,
}

/// Nanoseconds on the machine's clock as the seconds [`SimStats`] and the
/// sim lanes report.
pub(crate) fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Runs `schedule` on the simulated machine.
///
/// `values` selects values mode (execute statements for real and return
/// the merged memory) versus timing mode.
///
/// # Errors
///
/// Returns [`SimError`] on missing values, deadlock, or malformed input.
pub fn simulate(
    program: &Program,
    params: &HashMap<String, i128>,
    grid: &ProcGrid,
    schedule: &Schedule,
    config: &MachineConfig,
    initial: &InitialPlacement,
    values: bool,
) -> Result<SimResult, SimError> {
    let nproc = grid.len() as usize;
    let _span = obs::span_f("simulate", || {
        vec![
            obs::field("values", values),
            obs::field("procs", nproc),
            obs::field("planned_messages", schedule.messages.len()),
        ]
    });
    if schedule.procs.len() != nproc {
        return Err(SimError::MalformedSchedule(format!(
            "schedule has {} processors, grid has {nproc}",
            schedule.procs.len()
        )));
    }
    let stmts = program.statements();

    // Values mode only: layout, lowered statements, resolved payloads and
    // the placed local memories. Timing mode never reads and builds none.
    let mut machine = if values {
        Some(Machine::resolve(
            program, params, grid, &stmts, schedule, initial,
        )?)
    } else {
        None
    };
    // Per message, the values its send read; one buffer shared by all
    // receivers of a multicast.
    let mut payloads: Vec<Option<Rc<[f64]>>> = vec![None; schedule.messages.len()];
    let mut stats = SimStats::default();

    let finish = run_machine(schedule, config, |step| {
        let p = step.proc;
        match step.action {
            Action::Block {
                stmt,
                prefix,
                inner_range,
                flops,
            } => {
                stmts.get(*stmt).ok_or(SimError::NoSuchStatement(*stmt))?;
                if let Some(m) = &mut machine {
                    m.run_block(p, *stmt, prefix, *inner_range)?;
                }
                stats.flops += flops;
            }
            Action::Send { msg } => {
                let spec = &schedule.messages[*msg];
                // Payload read at send time from the sender's memory. A
                // missing value here means the plan asked a processor to
                // forward data it never had.
                if let Some(m) = &machine {
                    payloads[*msg] = m.gather(p, *msg, spec)?;
                }
                stats.messages += 1;
                stats.transmissions += spec.receivers.len() as u64;
                stats.words += spec.words * spec.receivers.len() as u64;
            }
            Action::Recv { msg } => {
                if let (Some(m), Some(vals)) = (&mut machine, &payloads[*msg]) {
                    m.integrate(p, *msg, vals);
                }
            }
        }
        Ok(())
    })?;

    stats.time = secs(finish.iter().copied().max().unwrap_or(0));
    let memory = machine.map(Machine::merge);
    Ok(SimResult { stats, memory })
}

/// One action as the machine ran it, on the nanosecond grid.
pub(crate) struct Step<'a> {
    /// The processor that ran it.
    pub proc: usize,
    pub action: &'a Action,
    /// When it started: for a receive, once its message had arrived.
    pub start: u64,
    /// What it cost its processor.
    pub dur: u64,
    /// A send: when the message reaches each receiver, in receiver order.
    pub arrivals: &'a [u64],
    /// A receive: the transmission it took.
    pub delivery: Option<Delivery>,
}

/// One transmission of a message, from its send to one receiver, as the
/// receiver took it.
#[derive(Clone, Copy)]
pub(crate) struct Delivery {
    /// The receiver's place among the message's receivers.
    pub k: usize,
    /// How long the receiver waited for it.
    pub wait: u64,
}

/// The machine: runs `schedule` under `config` and returns each
/// processor's finish time.
///
/// Cooperative scheduling: every processor runs as far as it can; a
/// receive whose message has not been sent blocks its processor, and a
/// round in which nobody moves is a deadlock. Each action's duration is
/// rounded once to whole nanoseconds and clocks are `u64`, so a time does
/// not depend on the visiting order: a receive starts at its processor's
/// clock or its message's arrival, whichever is later. `on_step` sees
/// every action in the order it runs, and its error stops the run. A
/// message whose receivers name a rank out of range, or one rank twice,
/// is refused before anything runs.
pub(crate) fn run_machine(
    schedule: &Schedule,
    config: &MachineConfig,
    mut on_step: impl FnMut(Step<'_>) -> Result<(), SimError>,
) -> Result<Vec<u64>, SimError> {
    let nproc = schedule.procs.len();
    let alpha_recv = ns_of(config.alpha_recv);
    let mut clock = vec![0u64; nproc];
    let mut next = vec![0usize; nproc];
    // The mailbox: per message one slot per receiver, in receiver order,
    // marked while a transmission to that receiver waits to be received.
    // Message `m`'s slots are `first_slot[m]..first_slot[m + 1]`, and its
    // k-th receiver's transmission lands at `flight[m] + k`.
    let mut first_slot = Vec::with_capacity(schedule.messages.len() + 1);
    let mut seen = vec![usize::MAX; nproc];
    first_slot.push(0);
    for (id, spec) in schedule.messages.iter().enumerate() {
        for &r in &spec.receivers {
            let bad = match seen.get_mut(r) {
                None => format!("receiver {r} out of range"),
                Some(last) if *last == id => format!("message {id} names receiver {r} twice"),
                Some(last) => {
                    *last = id;
                    continue;
                }
            };
            return Err(SimError::MalformedSchedule(bad));
        }
        first_slot.push(first_slot[id] + spec.receivers.len());
    }
    let mut waiting = vec![false; first_slot[schedule.messages.len()]];
    let mut flight = vec![0u64; schedule.messages.len()];
    let mut arrivals: Vec<u64> = Vec::new();
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for p in 0..nproc {
            while let Some(action) = schedule.procs[p].get(next[p]) {
                all_done = false;
                arrivals.clear();
                let (dur, delivery) = match action {
                    Action::Block { flops, .. } => (ns_of(flops * config.flop_time), None),
                    Action::Send { msg } => {
                        let spec = schedule
                            .messages
                            .get(*msg)
                            .ok_or_else(|| SimError::MalformedSchedule(format!("message {msg}")))?;
                        if spec.sender != p {
                            return Err(SimError::MalformedSchedule(format!(
                                "processor {p} sends message {msg} owned by {}",
                                spec.sender
                            )));
                        }
                        let bytes = spec.words * config.word_bytes;
                        let busy = ns_of(config.send_busy_time(bytes, spec.receivers.len()));
                        // The k-th receiver of a multicast is served k ns
                        // after the first.
                        flight[*msg] = clock[p] + busy + ns_of(config.wire_time(bytes));
                        waiting[first_slot[*msg]..first_slot[*msg + 1]].fill(true);
                        let receivers = 0..spec.receivers.len() as u64;
                        arrivals.extend(receivers.map(|k| flight[*msg] + k));
                        (busy, None)
                    }
                    Action::Recv { msg } => {
                        // A message past the table, or one `p` does not
                        // receive, never arrives: `p` blocks, as it does on
                        // a message not yet sent or already received.
                        let k = (schedule.messages.get(*msg))
                            .and_then(|spec| spec.receivers.iter().position(|&r| r == p));
                        let Some(k) = k.filter(|&k| waiting[first_slot[*msg] + k]) else {
                            break; // Blocked: try another processor.
                        };
                        waiting[first_slot[*msg] + k] = false;
                        let wait = (flight[*msg] + k as u64).saturating_sub(clock[p]);
                        (alpha_recv, Some(Delivery { k, wait }))
                    }
                };
                let start = clock[p] + delivery.map_or(0, |d| d.wait);
                on_step(Step {
                    proc: p,
                    action,
                    start,
                    dur,
                    arrivals: &arrivals,
                    delivery,
                })?;
                clock[p] = start + dur;
                next[p] += 1;
                progressed = true;
            }
        }
        if all_done {
            return Ok(clock);
        }
        if !progressed {
            let blocked: Vec<usize> = (0..nproc)
                .filter(|&p| next[p] < schedule.procs[p].len())
                .collect();
            return Err(SimError::Deadlock { blocked });
        }
    }
}

/// Bits of each of a [`Version`]'s two numbers.
const FIELD_BITS: u32 = 31;

/// The largest block, element offset, message or item number a version
/// holds.
pub(crate) const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;

/// Where a version's two bits of kind start; the numbers sit below.
const KIND_SHIFT: u32 = 2 * FIELD_BITS;

/// Which write produced a copy, in one word: two bits of kind, then two
/// [`FIELD_BITS`]-bit numbers. Kind 0 is no copy, so a memory starts all
/// zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Version(u64);

/// What a [`Version`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Origin {
    /// No copy.
    Absent,
    /// The live-in value, stamp `[-1]`.
    Initial,
    /// Element `at`, counted from the block's `lo`, of numbered block
    /// `block`.
    Wrote { block: usize, at: u64 },
    /// Item `item` of message `msg`'s payload.
    Got { msg: usize, item: usize },
}

impl Version {
    const ABSENT: Version = Version(0);
    const INITIAL: Version = Version(1 << KIND_SHIFT);

    /// `kind` with numbers `hi` and `lo`, if both fit a field.
    fn pack(kind: u64, hi: usize, lo: u64) -> Option<Version> {
        let hi = u64::try_from(hi).ok()?;
        (hi <= FIELD_MAX && lo <= FIELD_MAX)
            .then_some(Version((kind << KIND_SHIFT) | (hi << FIELD_BITS) | lo))
    }

    fn wrote(block: usize, at: u64) -> Option<Version> {
        Version::pack(2, block, at)
    }

    fn got(msg: usize, item: usize) -> Option<Version> {
        Version::pack(3, msg, u64::try_from(item).ok()?)
    }

    /// The version of the block's next element. Resolving bounds every
    /// block's span by [`FIELD_MAX`], so each element's offset fits.
    fn next(self) -> Version {
        Version(self.0 + 1)
    }

    fn origin(self) -> Origin {
        let index = |x: u64| usize::try_from(x).expect("a field fits a usize");
        let (hi, lo) = ((self.0 >> FIELD_BITS) & FIELD_MAX, self.0 & FIELD_MAX);
        match self.0 >> KIND_SHIFT {
            0 => Origin::Absent,
            1 => Origin::Initial,
            2 => Origin::Wrote {
                block: index(hi),
                at: lo,
            },
            _ => Origin::Got {
                msg: index(hi),
                item: index(lo),
            },
        }
    }
}

/// The live-in copies' stamp.
const INITIAL_STAMP: [i128; 1] = [-1];

/// What versions denote: the schedule's numbered blocks, each statement's
/// stamp template and the messages.
struct Stamps<'a> {
    /// Every `Block` action, numbered processor by processor in action
    /// order: the order each processor runs them in.
    blocks: Vec<&'a Action>,
    /// Per program statement, its stamp with every loop value 0.
    templates: Vec<Stamp>,
    messages: &'a [MessageSpec],
}

impl Stamps<'_> {
    /// The stamp `v` denotes; the empty stamp, earliest of all, for no copy.
    fn stamp(&self, v: Version) -> StampRef<'_> {
        match v.origin() {
            Origin::Absent => StampRef::Whole(&[]),
            Origin::Initial => StampRef::Whole(&INITIAL_STAMP),
            // The block's anchor, `lo + at` for `lo`: `at` is at most the
            // block's span, so the sum is in range.
            Origin::Wrote { block, at } => match self.blocks[block].anchor(&self.templates) {
                Some(StampRef::Instance {
                    template,
                    prefix,
                    last,
                }) => StampRef::Instance {
                    template,
                    prefix,
                    last: last + i128::from(at),
                },
                _ => unreachable!("only blocks are numbered"),
            },
            Origin::Got { msg, item } => {
                let payload = self.messages[msg].payload.as_ref().expect("resolved");
                let row = &payload.rows[item * payload.width..][..payload.width];
                match payload.writer {
                    // Resolving checked the row's width: its first columns
                    // are the writer's iteration.
                    Some(w) => {
                        let template = &self.templates[w];
                        StampRef::of(template, &row[..template.len() / 2])
                    }
                    None => StampRef::Whole(&INITIAL_STAMP),
                }
            }
        }
    }

    /// Compares two copies by the writes that produced them.
    fn cmp(&self, a: Version, b: Version) -> Ordering {
        match (a.origin(), b.origin()) {
            _ if a == b => Ordering::Equal,
            (Origin::Wrote { block: x, at: i }, Origin::Wrote { block: y, at: j }) if x == y => {
                i.cmp(&j)
            }
            _ => self.stamp(a).cmp(&self.stamp(b)),
        }
    }
}

/// One declared array's place in every local memory.
struct ArrayLayout<'a> {
    name: &'a str,
    extents: Vec<i128>,
    /// Slot of element `[0, …, 0]`; the rest follow row-major.
    base: usize,
}

/// Where every element of the program lives in a local memory.
struct Layout<'a> {
    arrays: Vec<ArrayLayout<'a>>,
    /// Slots of one memory: Σ elements.
    slots: usize,
}

impl<'a> Layout<'a> {
    /// Lays the arrays of `program` out in declaration order, with the
    /// extents `global` was allocated with.
    fn new(program: &'a Program, global: &Memory) -> Self {
        let mut arrays: Vec<ArrayLayout<'a>> = Vec::new();
        let mut slots = 0;
        for decl in &program.arrays {
            // A redeclaration names the array `global` already holds once.
            if arrays.iter().any(|a| a.name == decl.name) {
                continue;
            }
            let store = global.array(&decl.name).expect("allocated from program");
            arrays.push(ArrayLayout {
                name: &decl.name,
                extents: store.extents().to_vec(),
                base: slots,
            });
            slots += store.as_slice().len();
        }
        Layout { arrays, slots }
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }
}

/// Lowers a statement as blocks execute it: its subscripts and right-hand
/// side by [`dmc_ir::lower`], the evaluator the interpreter runs too.
fn lower(
    info: &StmtInfo,
    layout: &Layout<'_>,
    params: &HashMap<String, i128>,
) -> Result<LoweredStmt, SimError> {
    let loops = info.loop_vars();
    let bad = |why: String| SimError::MalformedSchedule(format!("S{}: {why}", info.id));
    LoweredStmt::new(&info.stmt, |r: &ArrayRef| {
        let array = layout
            .find(&r.array)
            .ok_or_else(|| bad(format!("array {} is not declared", r.array)))?;
        let dims = layout.arrays[array].extents.len();
        if r.idx.len() != dims {
            return Err(bad(format!(
                "{} subscripts on {dims}-dimensional array {}",
                r.idx.len(),
                r.array
            )));
        }
        Access::new(r, array, &loops, params).map_err(|e| match e {
            Unlowered::Unbound(v) => bad(format!("unbound parameter {v}")),
            Unlowered::Overflow => bad(format!("a subscript of {} overflows", r.array)),
        })
    })
}

/// What element `x` of a block of `stmt` at `prefix` on processor `p`
/// raises at its access `n`: a read that finds no copy is a
/// [`SimError::MissingValue`], a write outside its array
/// [`SimError::OutOfBounds`], and a subscript that leaves `i128` a
/// [`SimError::MalformedSchedule`].
#[cold]
fn element_error(
    arrays: &[ArrayLayout<'_>],
    p: usize,
    stmt: usize,
    prefix: &[i128],
    x: i128,
    s: &LoweredStmt,
    n: usize,
) -> SimError {
    let access = &s.accesses[n];
    let array = arrays[access.array].name.to_owned();
    let Some(idx) = access.subscripts(prefix, x) else {
        return SimError::MalformedSchedule(format!("S{stmt}: a subscript of {array} overflows"));
    };
    if n == s.write() {
        SimError::OutOfBounds {
            proc: p,
            array,
            idx,
            stmt,
        }
    } else {
        SimError::MissingValue {
            proc: p,
            array,
            idx,
            stmt,
        }
    }
}

/// One processor's memory: per slot a value and the version of the copy
/// held, [`Version::ABSENT`] where the processor holds none.
struct LocalMemory {
    vals: Vec<f64>,
    from: Vec<Version>,
}

impl LocalMemory {
    fn new(slots: usize) -> Self {
        LocalMemory {
            vals: vec![0.0; slots],
            from: vec![Version::ABSENT; slots],
        }
    }

    fn holds(&self, slot: usize) -> bool {
        self.from.get(slot).is_some_and(|&v| v != Version::ABSENT)
    }

    fn put(&mut self, slot: usize, value: f64, version: Version) {
        self.vals[slot] = value;
        self.from[slot] = version;
    }
}

/// What values mode keeps beside the clocks: everything resolved on entry,
/// and the local memories.
struct Machine<'a> {
    layout: Layout<'a>,
    /// Per program statement; `Some` for those the schedule runs.
    lowered: Vec<Option<LoweredStmt>>,
    /// Per message, the slot of each payload item.
    payload_slots: Vec<Option<Vec<usize>>>,
    stamps: Stamps<'a>,
    /// Per processor, the number of the next block it runs.
    next_block: Vec<usize>,
    local: Vec<LocalMemory>,
    /// Initial contents until [`Machine::merge`] overwrites them.
    global: Memory,
    // Scratch of `run_block`, kept so a block allocates nothing.
    cursors: Vec<Cursor>,
    stack: Vec<f64>,
    cols: Columns,
}

impl<'a> Machine<'a> {
    fn resolve(
        program: &'a Program,
        params: &HashMap<String, i128>,
        grid: &ProcGrid,
        stmts: &[StmtInfo],
        schedule: &'a Schedule,
        initial: &InitialPlacement,
    ) -> Result<Self, SimError> {
        let global = Memory::allocate(program, params)
            .map_err(|e| SimError::MalformedSchedule(e.to_string()))?;
        let layout = Layout::new(program, &global);

        let mut lowered: Vec<Option<LoweredStmt>> = stmts.iter().map(|_| None).collect();
        let mut blocks: Vec<&'a Action> = Vec::new();
        let mut next_block = Vec::with_capacity(schedule.procs.len());
        for (p, actions) in schedule.procs.iter().enumerate() {
            next_block.push(blocks.len());
            for action in actions {
                let Action::Block {
                    stmt,
                    prefix,
                    inner_range,
                    ..
                } = action
                else {
                    continue;
                };
                let info = stmts.get(*stmt).ok_or(SimError::NoSuchStatement(*stmt))?;
                let bound = prefix.len() + usize::from(inner_range.is_some());
                if bound != info.loops.len() {
                    return Err(SimError::MalformedSchedule(format!(
                        "processor {p}: a block of S{stmt} binds {bound} of {} loop variables",
                        info.loops.len()
                    )));
                }
                // The last element's version must fit: an empty range has
                // none.
                let span = match inner_range {
                    Some((lo, hi)) if lo <= hi => hi.checked_sub(*lo),
                    _ => Some(0),
                };
                let last = span
                    .and_then(|s| u64::try_from(s).ok())
                    .and_then(|s| Version::wrote(blocks.len(), s));
                if last.is_none() {
                    return Err(SimError::MalformedSchedule(format!(
                        "processor {p}: block {} of S{stmt} over {inner_range:?} \
                         has no version: at most {} blocks of {} elements",
                        blocks.len(),
                        FIELD_MAX + 1,
                        FIELD_MAX + 1
                    )));
                }
                blocks.push(action);
                if lowered[*stmt].is_none() {
                    lowered[*stmt] = Some(lower(info, &layout, params)?);
                }
            }
        }

        let payload_slots = schedule
            .messages
            .iter()
            .enumerate()
            .map(|(id, spec)| resolve_payload(&layout, stmts, id, spec))
            .collect::<Result<_, _>>()?;

        let templates = stmts.iter().map(|s| template_of(&s.position)).collect();
        let mut local: Vec<LocalMemory> = (0..schedule.procs.len())
            .map(|_| LocalMemory::new(layout.slots))
            .collect();
        place_initial(&layout, &global, grid, initial, &mut local)?;

        Ok(Machine {
            layout,
            lowered,
            payload_slots,
            stamps: Stamps {
                blocks,
                templates,
                messages: &schedule.messages,
            },
            next_block,
            local,
            global,
            cursors: Vec::new(),
            stack: Vec::new(),
            cols: Columns::default(),
        })
    }

    /// Executes processor `p`'s next block against its memory.
    fn run_block(
        &mut self,
        p: usize,
        stmt: usize,
        prefix: &[i128],
        inner_range: Option<(i128, i128)>,
    ) -> Result<(), SimError> {
        let block = self.next_block[p];
        self.next_block[p] += 1;
        let first = Version::wrote(block, 0).expect("numbered by resolve");
        self.run_range(p, stmt, prefix, inner_range.unwrap_or((0, 0)), first)
    }

    /// Executes elements `lo..=hi` of a block of `stmt`; element `lo`
    /// writes version `first`, each next one the next version. A range
    /// inside every array runs in strips ([`LoweredStmt::strips`]); a
    /// strip any of whose reads finds no copy runs element by element, so
    /// the first [`SimError::MissingValue`] is the one execution order
    /// meets.
    fn run_range(
        &mut self,
        p: usize,
        stmt: usize,
        prefix: &[i128],
        (lo, hi): (i128, i128),
        first: Version,
    ) -> Result<(), SimError> {
        let s = self.lowered[stmt].as_ref().expect("lowered by resolve");
        let arrays = &self.layout.arrays;
        let array = |a: usize| Some((&arrays[a].extents[..], arrays[a].base));
        let inside = s.place(prefix, (lo, hi), array, &mut self.cursors);
        // A range that leaves an array fails at some element; running the
        // elements one by one finds the first failure in execution order.
        if lo < hi && !inside {
            let mut version = first;
            for x in lo..=hi {
                self.run_range(p, stmt, prefix, (x, x), version)?;
                version = version.next();
            }
            return Ok(());
        }

        let mem = &mut self.local[p];
        let write = s.write();
        // `resolve` fitted every block's span into a version.
        let count = match hi.checked_sub(lo) {
            Some(span) if span >= 0 => usize::try_from(span).expect("span fits a version") + 1,
            _ => 0,
        };
        let strips = (count > 1)
            .then(|| s.strips(&self.cursors, count))
            .flatten();
        // Element by element, the whole range is one chunk.
        let chunk = strips.map_or(count, |strips| strips.len).max(1);
        let mut version = first;
        for done in (0..count).step_by(chunk) {
            let (from, len) = (lo + done as i128, chunk.min(count - done));
            let cursors = &self.cursors;
            let held = strips.filter(|&strips| {
                (0..write).all(|n| {
                    let gathered = s.gathers(cursors, strips, len, n);
                    cursors[n].slots(gathered).all(|slot| mem.holds(slot))
                })
            });
            if let Some(strips) = held {
                let vals = &mem.vals;
                let values = s.eval_strip(cursors, strips, len, &mut self.cols, |_| vals);
                for (slot, &value) in cursors[write].slots(len).zip(values) {
                    mem.put(slot, value, version);
                    version = version.next();
                }
                self.cursors.iter_mut().for_each(|c| c.skip(len));
                continue;
            }
            for x in from..from + len as i128 {
                let cursors = &self.cursors;
                let error = |n: usize| element_error(arrays, p, stmt, prefix, x, s, n);
                let value = s.eval(&mut self.stack, |n| {
                    let slot = cursors[n].slot;
                    if mem.holds(slot) {
                        Ok(mem.vals[slot])
                    } else {
                        Err(error(n))
                    }
                })?;
                let slot = cursors[write].slot;
                if slot == NO_SLOT {
                    return Err(error(write));
                }
                mem.put(slot, value, version);
                version = version.next();
                self.cursors.iter_mut().for_each(Cursor::step);
            }
        }
        Ok(())
    }

    /// The values of message `msg`'s payload, read from sender `p`.
    fn gather(
        &self,
        p: usize,
        msg: usize,
        spec: &MessageSpec,
    ) -> Result<Option<Rc<[f64]>>, SimError> {
        let (Some(slots), Some(payload)) = (&self.payload_slots[msg], &spec.payload) else {
            return Ok(None);
        };
        let mem = &self.local[p];
        let rank = self.layout.arrays[self.layout.find(&payload.array).expect("resolved")]
            .extents
            .len();
        slots
            .iter()
            .zip(payload.rows())
            .map(|(&slot, row)| {
                if mem.holds(slot) {
                    Ok(mem.vals[slot])
                } else {
                    Err(SimError::MissingValue {
                        proc: p,
                        array: payload.array.clone(),
                        idx: row[row.len() - rank..].to_vec(),
                        stmt: usize::MAX,
                    })
                }
            })
            .collect::<Result<Rc<[f64]>, _>>()
            .map(Some)
    }

    /// Receiver `p` takes each item of message `msg` that is later than
    /// the copy it holds.
    fn integrate(&mut self, p: usize, msg: usize, vals: &[f64]) {
        let Some(slots) = &self.payload_slots[msg] else {
            return;
        };
        let mem = &mut self.local[p];
        for (item, (&slot, &value)) in slots.iter().zip(vals).enumerate() {
            let got = Version::got(msg, item).expect("numbered by resolve");
            let held = mem.from[slot];
            if held == Version::ABSENT || self.stamps.cmp(held, got).is_lt() {
                mem.put(slot, value, got);
            }
        }
    }

    /// Merges the local memories into one global memory: per element, the
    /// latest copy among the processors that hold one; a tie keeps the
    /// first processor's.
    fn merge(mut self) -> Memory {
        for array in &self.layout.arrays {
            let out = self
                .global
                .array_mut(array.name)
                .expect("allocated from program")
                .as_mut_slice();
            for (slot, out) in (array.base..).zip(out) {
                let mut latest: Option<(Version, f64)> = None;
                for m in self.local.iter().filter(|m| m.holds(slot)) {
                    let v = m.from[slot];
                    if latest.is_none_or(|(best, _)| self.stamps.cmp(best, v).is_lt()) {
                        latest = Some((v, m.vals[slot]));
                    }
                }
                if let Some((_, value)) = latest {
                    *out = value;
                }
            }
        }
        self.global
    }
}

/// The slot of each element of message `id`'s payload. A payload that
/// names no write instance is refused: a writer that is no statement of
/// the program, an undeclared array, rows whose width is not the writer's
/// loop depth plus the array's rank (or that do not tile the table), or
/// more rows than a [`Version`] counts.
fn resolve_payload(
    layout: &Layout<'_>,
    stmts: &[StmtInfo],
    id: usize,
    spec: &MessageSpec,
) -> Result<Option<Vec<usize>>, SimError> {
    let Some(Payload {
        array: name,
        writer,
        width,
        rows,
    }) = &spec.payload
    else {
        return Ok(None);
    };
    let bad = |why: String| SimError::MalformedSchedule(format!("message {id}: {why}"));
    let depth = match writer {
        None => 0,
        Some(w) => stmts
            .get(*w)
            .ok_or_else(|| bad(format!("writer S{w} is no statement")))?
            .loops
            .len(),
    };
    let array = layout
        .find(name)
        .map(|a| &layout.arrays[a])
        .ok_or_else(|| bad(format!("array {name} is not declared")))?;
    let rank = array.extents.len();
    if *width != depth + rank || *width == 0 || rows.len() % width != 0 {
        let writer = writer.map_or("live-in data".to_owned(), |w| format!("S{w}"));
        return Err(bad(format!(
            "{} values in rows of {width} name no write instance: \
             {writer} at depth {depth} into {rank}-dimensional array {name} \
             needs rows of {}",
            rows.len(),
            depth + rank
        )));
    }
    let items = rows.len() / width;
    if Version::got(id, items.saturating_sub(1)).is_none() {
        return Err(bad(format!(
            "{items} items have no version: at most {} messages of {} items",
            FIELD_MAX + 1,
            FIELD_MAX + 1
        )));
    }
    let slots = rows
        .chunks_exact(*width)
        .map(|row| {
            let mut offset = 0;
            // A subscript is checked before it joins the offset, so a
            // hostile one cannot overflow it.
            let inside = row[depth..]
                .iter()
                .zip(&array.extents)
                .all(|(&x, &extent)| {
                    let inside = (0..extent).contains(&x);
                    if inside {
                        offset = offset * extent + x;
                    }
                    inside
                });
            // No memory holds an element outside its array: sending it is
            // a `MissingValue`.
            if inside {
                array.base + offset as usize
            } else {
                NO_SLOT
            }
        })
        .collect();
    Ok(Some(slots))
}

/// Marks the live-in copies present, with the initial version. An owned
/// array's decomposition is resolved once ([`Owners::resolve`]), and
/// each element then goes to the ranks of its owners.
fn place_initial(
    layout: &Layout<'_>,
    global: &Memory,
    grid: &ProcGrid,
    initial: &InitialPlacement,
    local: &mut [LocalMemory],
) -> Result<(), SimError> {
    for array in &layout.arrays {
        let init = global
            .array(array.name)
            .expect("allocated from program")
            .as_slice();
        let mut owners = match initial {
            InitialPlacement::Owned(map) => map
                .get(array.name)
                .map(|d| Owners::resolve(d, array.extents.len(), grid))
                .transpose()?,
            InitialPlacement::Replicated => None,
        };
        let mut idx = vec![0i128; array.extents.len()];
        for (slot, &value) in (array.base..).zip(init) {
            match &mut owners {
                None => {
                    for m in local.iter_mut() {
                        m.put(slot, value, Version::INITIAL);
                    }
                }
                Some(owners) => owners
                    .each_rank(&idx, |rank| local[rank].put(slot, value, Version::INITIAL))
                    .ok_or_else(|| {
                        SimError::MalformedSchedule(format!(
                            "the owners of {}{idx:?} overflow",
                            array.name
                        ))
                    })?,
            }
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < array.extents[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
    Ok(())
}

/// One map of a data decomposition over an array's subscripts: the
/// virtual processor coordinate `p` owns the elements whose
/// `e = constant + Σ coef[k]·a_k` satisfies
/// `b·p − overlap_lo ≤ e ≤ b·(p + 1) − 1 + overlap_hi`.
struct OwnerMap {
    coef: Vec<i128>,
    constant: i128,
    block: i128,
    overlap_lo: i128,
    overlap_hi: i128,
}

/// A data decomposition resolved against its array's rank and the grid,
/// with the scratch its owner enumeration reuses.
struct Owners {
    /// One per virtual processor dimension; none for a replicated array.
    maps: Vec<OwnerMap>,
    /// The grid's extents, which fold each coordinate onto a rank.
    extents: Vec<i128>,
    /// Per map, the range of owning coordinates of the element at hand.
    ranges: Vec<(i128, i128)>,
    /// The owner at hand.
    at: Vec<i128>,
}

impl Owners {
    /// Resolves `d` for an array of `rank` dimensions on `grid`: each map's
    /// subscript variables (`a0`, `a1`, …) to a coefficient row. A map that
    /// names anything else, a block below 1, or a number of maps other
    /// than the grid's rank (an empty list, which replicates, aside) is a
    /// [`SimError::MalformedSchedule`].
    fn resolve(d: &DataDecomp, rank: usize, grid: &ProcGrid) -> Result<Self, SimError> {
        let bad = |why: String| {
            SimError::MalformedSchedule(format!("data decomposition of {}: {why}", d.array))
        };
        if !d.maps.is_empty() && d.maps.len() != grid.ndim() {
            return Err(bad(format!(
                "{} maps onto a {}-dimensional grid",
                d.maps.len(),
                grid.ndim()
            )));
        }
        let maps = d
            .maps
            .iter()
            .map(|m| {
                if m.block < 1 {
                    return Err(bad(format!("block {}", m.block)));
                }
                let mut coef = vec![0; rank];
                for (v, c) in m.expr.terms() {
                    let k = v.strip_prefix('a').and_then(|k| k.parse::<usize>().ok());
                    match k {
                        Some(k) if k < rank && v == format!("a{k}") => coef[k] = c,
                        _ => {
                            return Err(bad(format!("{v} is no subscript of a rank-{rank} array")))
                        }
                    }
                }
                Ok(OwnerMap {
                    coef,
                    constant: m.expr.constant_term(),
                    block: m.block,
                    overlap_lo: m.overlap_lo,
                    overlap_hi: m.overlap_hi,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Owners {
            maps,
            extents: grid.extents().to_vec(),
            ranges: Vec::new(),
            at: Vec::new(),
        })
    }

    /// Calls `put` with the rank of every processor holding a copy of
    /// `element`: every virtual owner — one block owner plus overlap
    /// neighbours per dimension — folded onto the grid, a rank once per
    /// owner that folds onto it, and every rank for a replicated array.
    /// `None` when the owners' arithmetic leaves `i128`.
    fn each_rank(&mut self, element: &[i128], mut put: impl FnMut(usize)) -> Option<()> {
        if self.maps.is_empty() {
            let nproc: i128 = self.extents.iter().product();
            (0..nproc).for_each(|r| put(r as usize));
            return Some(());
        }
        self.ranges.clear();
        for (m, &extent) in self.maps.iter().zip(&self.extents) {
            let e = (m.coef.iter().zip(element))
                .try_fold(m.constant, |e, (&c, &x)| e.checked_add(c.checked_mul(x)?))?;
            // b·p − d_l ≤ e ≤ b·(p + 1) − 1 + d_h
            //   ⇔ ⌈(e + 1 − b − d_h) / b⌉ ≤ p ≤ ⌊(e + d_l) / b⌋.
            let lo = e
                .checked_add(1)?
                .checked_sub(m.block)?
                .checked_sub(m.overlap_hi)?;
            let lo = dmc_polyhedra::num::div_ceil(lo, m.block);
            let hi = dmc_polyhedra::num::div_floor(e.checked_add(m.overlap_lo)?, m.block);
            if lo > hi {
                return Some(());
            }
            // A whole cycle of coordinates already reaches every rank of
            // the dimension.
            self.ranges
                .push((lo, hi.min(lo.saturating_add(extent - 1))));
        }
        self.at.clear();
        self.at.extend(self.ranges.iter().map(|&(lo, _)| lo));
        loop {
            let rank = (self.at.iter().zip(&self.extents))
                .fold(0, |r, (&v, &e)| r * e + dmc_polyhedra::num::mod_floor(v, e));
            put(rank as usize);
            // The next owner, the last coordinate fastest.
            let mut k = self.at.len();
            loop {
                if k == 0 {
                    return Some(());
                }
                k -= 1;
                if self.at[k] < self.ranges[k].1 {
                    self.at[k] += 1;
                    break;
                }
                self.at[k] = self.ranges[k].0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::stamp_of;

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            usize::try_from(self.0 % n as u64).unwrap()
        }

        /// -1, 0 or 1: close enough to tie often.
        fn small(&mut self) -> i128 {
            self.below(3) as i128 - 1
        }
    }

    /// A 2-D decomposition with overlap on a 2 × 3 grid: rows in blocks
    /// of 2 with one row of high overlap, columns in blocks of 2 with one
    /// column of low overlap. Each element's ranks are pinned where an
    /// element has one, two and four holders, and every element's equal
    /// the definition read straight off the maps over a wide window of
    /// virtual processors. A map naming anything but a subscript, or a
    /// map count other than the grid's rank, is refused.
    #[test]
    fn owners_of_an_overlapping_2d_decomposition() {
        use dmc_decomp::DimMap;
        use dmc_ir::Aff;
        use std::collections::BTreeSet;
        let maps = vec![
            DimMap::block(Aff::var("a0"), 2).with_overlap(0, 1),
            DimMap::block(Aff::var("a1"), 2).with_overlap(1, 0),
        ];
        let d = DataDecomp::from_maps("A", 2, maps.clone());
        let grid = ProcGrid::new(vec![2, 3]);
        let mut owners = Owners::resolve(&d, 2, &grid).unwrap();
        let mut ranks = |e: [i128; 2]| {
            let mut out = BTreeSet::new();
            owners.each_rank(&e, |r| {
                out.insert(r);
            });
            out.into_iter().collect::<Vec<_>>()
        };
        // Row 0 is also the high overlap of virtual row −1, which folds
        // onto grid row 1; column 5 the low overlap of virtual column 3,
        // which folds onto grid column 0.
        assert_eq!(ranks([1, 0]), [0]);
        assert_eq!(ranks([3, 4]), [5]);
        assert_eq!(ranks([1, 3]), [1, 2]);
        assert_eq!(ranks([2, 3]), [1, 2, 4, 5]);
        assert_eq!(ranks([0, 5]), [0, 2, 3, 5]);
        for e in (0..4).flat_map(|x| (0..6).map(move |y| [x, y])) {
            let mut want = BTreeSet::new();
            for (p, q) in (-8..8).flat_map(|p| (-8..8).map(move |q| (p, q))) {
                let holds = |m: &DimMap, v: i128, x: i128| {
                    m.block * v - m.overlap_lo <= x && x < m.block * (v + 1) + m.overlap_hi
                };
                if holds(&maps[0], p, e[0]) && holds(&maps[1], q, e[1]) {
                    want.insert((p.rem_euclid(2) * 3 + q.rem_euclid(3)) as usize);
                }
            }
            assert_eq!(ranks(e), want.into_iter().collect::<Vec<_>>(), "{e:?}");
        }

        let refused = |maps: Vec<DimMap>, grid: &ProcGrid| {
            let d = DataDecomp::from_maps("A", 2, maps);
            match Owners::resolve(&d, 2, grid) {
                Err(SimError::MalformedSchedule(why)) => why,
                Ok(_) => panic!("{d:?} was resolved"),
                Err(e) => panic!("{e}"),
            }
        };
        for v in ["i", "a2", "a01", "b0"] {
            let why = refused(vec![DimMap::block(Aff::var(v), 2)], &ProcGrid::line(2));
            assert!(why.contains(v) && why.contains('A'), "{why}");
        }
        let why = refused(maps, &ProcGrid::line(2));
        assert!(why.contains("2 maps onto a 1-dimensional grid"), "{why}");
        // No map replicates the array on every rank.
        let mut all = Owners::resolve(&DataDecomp::replicated("A", 2), 2, &grid).unwrap();
        let mut got = Vec::new();
        all.each_rank(&[0, 0], |r| got.push(r));
        assert_eq!(got, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn versions_pack_each_field_to_its_limit() {
        assert_eq!(std::mem::size_of::<Version>(), 8);
        let max = usize::try_from(FIELD_MAX).unwrap();
        let wrote = |block, at| Version::wrote(block, at).map(Version::origin);
        let got = |msg, item| Version::got(msg, item).map(Version::origin);
        assert_eq!(wrote(0, 0), Some(Origin::Wrote { block: 0, at: 0 }));
        assert_eq!(
            wrote(max, FIELD_MAX),
            Some(Origin::Wrote {
                block: max,
                at: FIELD_MAX
            })
        );
        assert_eq!(wrote(max + 1, 0), None);
        assert_eq!(wrote(0, FIELD_MAX + 1), None);
        assert_eq!(wrote(usize::MAX, 0), None);
        assert_eq!(wrote(0, u64::MAX), None);
        assert_eq!(got(0, 0), Some(Origin::Got { msg: 0, item: 0 }));
        assert_eq!(
            got(max, max),
            Some(Origin::Got {
                msg: max,
                item: max
            })
        );
        assert_eq!(got(max + 1, 0), None);
        assert_eq!(got(0, max + 1), None);
        assert_eq!(got(usize::MAX, usize::MAX), None);
        assert_eq!(Version::ABSENT.origin(), Origin::Absent);
        assert_eq!(Version::INITIAL.origin(), Origin::Initial);
        // A block's next element moves the offset alone.
        let before_last = Version::wrote(max, FIELD_MAX - 1).unwrap();
        assert_eq!(before_last.next(), Version::wrote(max, FIELD_MAX).unwrap());
    }

    /// Random statements at depth 0–3, forty blocks of them (so several of
    /// each, often sharing prefixes and overlapping ranges) and messages
    /// whose payloads are live-in data or rows of one writer: two versions
    /// compare as the stamps they denote do as `Vec`s.
    #[test]
    fn versions_order_as_the_stamps_they_denote() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let positions: Vec<Vec<usize>> = (0..6)
            .map(|_| (0..=rng.below(4)).map(|_| rng.below(2)).collect())
            .collect();
        let blocks: Vec<Action> = (0..40)
            .map(|_| {
                let stmt = rng.below(positions.len());
                let depth = positions[stmt].len() - 1;
                let inner = depth > 0 && rng.below(4) != 0;
                let prefix = (usize::from(inner)..depth).map(|_| rng.small()).collect();
                let inner_range = inner.then(|| {
                    let lo = rng.small();
                    (lo, lo + rng.below(3) as i128)
                });
                Action::Block {
                    stmt,
                    prefix,
                    inner_range,
                    flops: 0.0,
                }
            })
            .collect();
        // Each message's rows: its writer's iteration, then one subscript.
        let messages: Vec<MessageSpec> = (0..10)
            .map(|_| {
                let writer = (rng.below(6) != 0).then(|| rng.below(positions.len()));
                let depth = writer.map_or(0, |w| positions[w].len() - 1);
                let rows = (0..8)
                    .flat_map(|_| {
                        (0..depth)
                            .map(|_| rng.small())
                            .chain([0])
                            .collect::<Vec<_>>()
                    })
                    .collect();
                MessageSpec {
                    sender: 0,
                    receivers: Vec::new(),
                    words: 8,
                    payload: Some(Payload {
                        array: String::new(),
                        writer,
                        width: depth + 1,
                        rows,
                    }),
                }
            })
            .collect();
        let stamps = Stamps {
            blocks: blocks.iter().collect(),
            templates: positions.iter().map(|p| template_of(p)).collect(),
            messages: &messages,
        };

        // A version and the stamp it denotes, built the long way. With
        // `near`, an element of the same block.
        let draw = |rng: &mut XorShift, near: Option<usize>| -> (Version, Vec<i128>) {
            let kind = if near.is_some() { 1 } else { rng.below(7) };
            match kind {
                0 => (Version::ABSENT, Vec::new()),
                1..=3 => {
                    let block = near.unwrap_or_else(|| rng.below(blocks.len()));
                    let Action::Block {
                        stmt,
                        prefix,
                        inner_range,
                        ..
                    } = &blocks[block]
                    else {
                        unreachable!()
                    };
                    let (lo, hi) = inner_range.unwrap_or((0, 0));
                    let at = rng.below(usize::try_from(hi - lo + 1).unwrap());
                    let last = inner_range.map(|_| lo + at as i128);
                    let values: Vec<i128> = prefix.iter().copied().chain(last).collect();
                    let version = Version::wrote(block, at as u64).unwrap();
                    (version, stamp_of(&positions[*stmt], values))
                }
                4 => (Version::INITIAL, vec![-1]),
                _ => {
                    let (msg, item) = (rng.below(messages.len()), rng.below(8));
                    let payload = messages[msg].payload.as_ref().unwrap();
                    let row = payload.rows().nth(item).unwrap();
                    let stamp = match payload.writer {
                        Some(w) => stamp_of(&positions[w], &row[..row.len() - 1]),
                        None => vec![-1],
                    };
                    (Version::got(msg, item).unwrap(), stamp)
                }
            }
        };

        let (mut prefixes, mut same_block, mut ties) = (0, 0, 0);
        for _ in 0..20_000 {
            let (a, sa) = draw(&mut rng, None);
            let near = match a.origin() {
                Origin::Wrote { block, .. } if rng.below(3) == 0 => Some(block),
                _ => None,
            };
            let (b, sb) = draw(&mut rng, near);
            prefixes += usize::from(sa.len() != sb.len() && sa.starts_with(&sb));
            same_block += usize::from(near.is_some());
            ties += usize::from(a != b && sa == sb);
            assert_eq!(
                stamps.cmp(a, b),
                sa.cmp(&sb),
                "{a:?} {sa:?} vs {b:?} {sb:?}"
            );
            assert_eq!(
                stamps.cmp(b, a),
                sb.cmp(&sa),
                "{b:?} {sb:?} vs {a:?} {sa:?}"
            );
        }
        assert!(prefixes > 1_000, "{prefixes} proper prefixes drawn");
        assert!(same_block > 1_000, "{same_block} pairs of one block drawn");
        assert!(ties > 300, "{ties} ties between distinct versions drawn");
    }
}
