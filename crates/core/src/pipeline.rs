//! The compiler pipeline: program + decompositions → communication sets →
//! optimized message plan → machine schedule.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

use dmc_commgen::{
    fold_messages, is_multicast, Chunk, CommError, CommSet, FoldSpec, Folded, OptError,
};
use dmc_dataflow::{LastWriteTree, LwtError, LwtLeaf};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_ir::{Program, StmtInfo};
use dmc_machine::{
    key_component, template_of, Action, InitialPlacement, MachineConfig, MessageSpec, Payload,
    Schedule, SimError, SimResult, Stamp, StampRef,
};
use dmc_obs as obs;
use dmc_polyhedra::ledger;
use dmc_polyhedra::{DimKind, PolyError, Space};

use crate::options::{Options, Strategy};
use crate::session::{schedule_fp, Session};

/// Everything the compiler needs: the program, one computation
/// decomposition per statement, initial data decompositions (the homes of
/// live-in data), and the physical grid.
#[derive(Clone, Debug)]
pub struct CompileInput {
    /// The affine source program.
    pub program: Program,
    /// Computation decomposition per statement id.
    pub comps: BTreeMap<usize, CompDecomp>,
    /// Initial data decomposition per array; arrays not listed are treated
    /// as replicated (every processor has the live-in values).
    pub initial: HashMap<String, DataDecomp>,
    /// Physical processor grid.
    pub grid: ProcGrid,
}

/// Errors from compilation or planning.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// A statement has no computation decomposition.
    MissingComp(usize),
    /// Planning was given a number of parameter values other than the
    /// number of the program's symbolic constants.
    ParamCount {
        /// Parameters the program declares.
        want: usize,
        /// Values supplied.
        got: usize,
    },
    /// The location-centric strategy needs a data decomposition for every
    /// array read.
    MissingInitial(String),
    /// The physical grid's rank differs from the processor-space rank of
    /// a computation decomposition or of an initial data decomposition:
    /// folding its virtual processors onto the grid is undefined.
    GridRank {
        /// Dimensions of the grid.
        grid: usize,
        /// The decomposition at fault (`statement 0`, `array X`).
        of: String,
        /// Processor dimensions it maps onto.
        rank: usize,
    },
    /// A computation decomposition names a variable that is neither a
    /// loop enclosing its statement nor a program parameter.
    CompVar {
        /// The statement (textual id).
        stmt: usize,
        /// The variable it names.
        var: String,
    },
    /// Last Write Tree analysis failed.
    Lwt(LwtError),
    /// Communication-set construction failed.
    Comm(CommError),
    /// Communication optimization failed.
    Opt(OptError),
    /// Polyhedral arithmetic failed.
    Poly(PolyError),
    /// Planning found an unbounded processor or iteration range.
    Unbounded(String),
    /// Element enumeration exceeded the planning limit.
    TooLarge(String),
    /// Simulation failed.
    Sim(SimError),
    /// A values-mode schedule was asked of a location-centric compile that
    /// fetches the named array, which the program also writes. The
    /// location-centric plan is a traffic model: it sends every fetched
    /// location from its initial owner ahead of the loop nest, stamped as
    /// live-in data, so a location the program writes would arrive with
    /// its initial value. Timing mode, and arrays the program only reads,
    /// are unaffected.
    LocationCentricValues(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::MissingComp(s) => {
                write!(f, "no computation decomposition for statement {s}")
            }
            CompileError::ParamCount { want, got } => write!(
                f,
                "the program has {want} parameter(s) but {got} value(s) were given"
            ),
            CompileError::MissingInitial(a) => {
                write!(
                    f,
                    "location-centric strategy needs a data decomposition for {a}"
                )
            }
            CompileError::GridRank { grid, of, rank } => write!(
                f,
                "the grid has {grid} dimension(s) but the decomposition of {of} has {rank}"
            ),
            CompileError::CompVar { stmt, var } => write!(
                f,
                "the computation decomposition of statement {stmt} names {var:?}, \
                 which is neither a loop enclosing it nor a parameter"
            ),
            CompileError::Lwt(e) => write!(f, "dataflow analysis failed: {e}"),
            CompileError::Comm(e) => write!(f, "communication generation failed: {e}"),
            CompileError::Opt(e) => write!(f, "communication optimization failed: {e}"),
            CompileError::Poly(e) => write!(f, "polyhedral arithmetic failed: {e}"),
            CompileError::Unbounded(m) => write!(f, "unbounded range while planning: {m}"),
            CompileError::TooLarge(m) => write!(f, "planning limit exceeded: {m}"),
            CompileError::Sim(e) => write!(f, "simulation failed: {e}"),
            CompileError::LocationCentricValues(a) => write!(
                f,
                "the location-centric plan fetches {a}, which the program writes: \
                 it counts traffic and cannot carry values"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LwtError> for CompileError {
    fn from(e: LwtError) -> Self {
        CompileError::Lwt(e)
    }
}
impl From<CommError> for CompileError {
    fn from(e: CommError) -> Self {
        CompileError::Comm(e)
    }
}
impl From<OptError> for CompileError {
    fn from(e: OptError) -> Self {
        match e {
            OptError::Poly(p @ PolyError::Unbounded(_)) => p.into(),
            e => CompileError::Opt(e),
        }
    }
}
impl From<PolyError> for CompileError {
    fn from(e: PolyError) -> Self {
        match e {
            PolyError::Unbounded(_) => CompileError::Unbounded(e.to_string()),
            e => CompileError::Poly(e),
        }
    }
}
impl From<SimError> for CompileError {
    fn from(e: SimError) -> Self {
        CompileError::Sim(e)
    }
}

/// The result of compilation: the analysis artifacts and the final,
/// optimized communication sets.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The input (program, decompositions, grid).
    pub input: CompileInput,
    /// The options compilation ran with.
    pub options: Options,
    /// One Last Write Tree per (statement, read) in textual order
    /// (value-centric strategy only), shared with the session's `lwt`
    /// stage rather than copied out of it.
    pub lwts: Vec<Arc<LastWriteTree>>,
    /// The final communication sets after optimization.
    pub comm: Vec<CommSet>,
}

/// Runs analysis and communication generation/optimization.
///
/// This is a thin wrapper over [`Session::compile`] with a throwaway
/// session: the pipeline always runs through the fingerprinted stage
/// graph, and the classic one-shot API is simply a session whose artifact
/// store starts (and stays) empty for each call — every stage misses, so
/// outputs, traces, and profiles match the monolithic pipeline exactly.
///
/// The per-(statement, read) analysis jobs run in textual order on the
/// calling thread, sharing its memoized feasibility and projection
/// answers; the first error in textual order is the one reported. To use
/// several cores, compile different inputs on different threads.
///
/// # Errors
///
/// Returns [`CompileError`] on any analysis failure.
pub fn compile(input: CompileInput, options: Options) -> Result<Compiled, CompileError> {
    Session::new().compile(input, options)
}

/// Builds a one-⊥-leaf tree covering a statement's whole read domain (the
/// location-centric strategy's stand-in for value information).
pub(crate) fn whole_domain_tree(
    program: &Program,
    s: &StmtInfo,
    read_no: usize,
    array: &str,
) -> LastWriteTree {
    let read_dims: Vec<String> = s.loop_vars().iter().map(|v| (*v).to_string()).collect();
    let mut space = Space::new();
    for v in &read_dims {
        space.add_dim(v.clone(), DimKind::Index);
    }
    for p in &program.params {
        space.add_dim(p.clone(), DimKind::Param);
    }
    let context = s.domain(&space, &[]);
    LastWriteTree {
        read_stmt: s.id,
        read_no,
        array: array.to_owned(),
        read_dims,
        leaves: vec![LwtLeaf {
            space,
            context,
            source: None,
        }],
        approximate: false,
    }
}

/// A processor's message action as it is ordered ([`Keys::cmp`]): its
/// anchor's row among the round's [`Keys`], phase (a receive -1, a send
/// 1: at one anchor the compute block, phase 0, goes between them),
/// message. A processor sends a message once and receives it once, so no
/// two keys tie and an unstable sort orders them as a stable one over the
/// message table would. Rows and messages are numbered in `u32`
/// ([`key_index`]): a plan holds one key per chunk until it is built.
#[derive(Clone, Copy, Debug)]
struct Key {
    row: u32,
    msg: u32,
    phase: i8,
}

/// A row or message number as a [`Key`] holds it.
fn key_index(n: usize) -> Result<u32, CompileError> {
    u32::try_from(n)
        .map_err(|_| CompileError::TooLarge(format!("more than {} anchors in one plan", u32::MAX)))
}

/// The anchors one round of the planner orders, each read once into a
/// flat integer key ([`StampRef::write_key`]): a row of `width` `i64`s,
/// the plan's longest template, padded with [`dmc_machine::KEY_PAD`].
/// Rows compare as slices exactly as the stamps they denote, so every
/// ordering the planner makes compares integers, and `StampRef` stays the
/// definition they are tested against.
#[derive(Debug)]
struct Keys {
    width: usize,
    rows: Vec<i64>,
}

impl Keys {
    /// No rows yet, room for `n`.
    fn with_capacity(width: usize, n: usize) -> Self {
        Keys {
            width,
            rows: Vec::with_capacity(width * n),
        }
    }

    /// Appends `stamp`'s key; its row.
    fn push(&mut self, stamp: StampRef) -> Result<u32, CompileError> {
        let at = self.rows.len();
        self.rows.resize(at + self.width, 0);
        write_key(stamp, &mut self.rows[at..])?;
        key_index(at / self.width)
    }

    fn row(&self, row: u32) -> &[i64] {
        &self.rows[row as usize * self.width..][..self.width]
    }

    /// Two message actions in processor order: by anchor, then phase,
    /// then message.
    fn cmp(&self, a: &Key, b: &Key) -> Ordering {
        (self.row(a.row).cmp(self.row(b.row)))
            .then(a.phase.cmp(&b.phase))
            .then(a.msg.cmp(&b.msg))
    }
}

/// Writes `stamp`'s key into `row`. Every component is a template
/// position, a live-in sentinel or a loop value the scan kernel proved
/// strictly inside ±2^62, so each fits; one that does not is refused
/// rather than wrapped.
fn write_key(stamp: StampRef, row: &mut [i64]) -> Result<(), CompileError> {
    stamp.write_key(row).map_err(outside_keys)
}

/// A loop value as a key column holds it, refused as [`write_key`] does.
fn component(x: i128) -> Result<i64, CompileError> {
    key_component(x).map_err(outside_keys)
}

fn outside_keys(x: i128) -> CompileError {
    CompileError::TooLarge(format!("stamp component {x} is outside the planner's keys"))
}

/// The legality splits [`hoist`] folds every set at, in one scan: the
/// paper's prefix and one component deeper, the split LU's level-1 sets
/// need. A set deepened further is folded again ([`HoistedPlan::refold`]).
const HOISTED_SPLITS: [usize; 2] = [0, 1];

/// Per payload class of one fold, its items' flat rows (values mode).
type ClassRows = Vec<Vec<i128>>;

/// Per processor, per statement: the processor's compute blocks of that
/// statement, in stamp order.
type Runs = Vec<Vec<Vec<Action>>>;

/// Split-depth-independent planning state, computed once per
/// [`build_schedule`] call: every set's fold at the hoisted splits, the
/// per-set multicast verdicts and the statements' stamp templates. The
/// legality check reads each set's fold at its split; the schedule takes
/// over the payload rows.
#[cfg_attr(test, derive(Clone))]
struct HoistedPlan {
    /// Per communication set: its folds, one per split folded.
    folds: Vec<Vec<Folded>>,
    /// Per communication set and fold (as `folds`): each payload class's
    /// rows, taken out of the fold, which the schedule moves in.
    rows: Vec<Vec<ClassRows>>,
    /// Per communication set: may its chunks be multicast-merged?
    multicast: Vec<bool>,
    /// Per statement, its [`template_of`]: what every anchor reads.
    templates: Vec<Stamp>,
}

impl HoistedPlan {
    /// The index among set `k`'s folds of the one at legality split
    /// `extra`.
    ///
    /// # Panics
    ///
    /// Panics if the set was not folded at that split.
    fn fold_at(folds: &[Vec<Folded>], k: usize, cs: &CommSet, extra: usize) -> usize {
        let split = cs.split_depth(extra);
        folds[k]
            .iter()
            .position(|f| f.split() == split)
            .expect("the set's split was folded")
    }

    /// Folds set `k` at split `extra`, unless its folds reach it already.
    fn refold(
        &mut self,
        compiled: &Compiled,
        k: usize,
        param_vals: &[i128],
        limit: usize,
        values: bool,
        extra: usize,
    ) -> Result<(), CompileError> {
        let cs = &compiled.comm[k];
        let split = cs.split_depth(extra);
        if self.folds[k].iter().all(|f| f.split() != split) {
            let folded = fold_set(
                compiled,
                cs,
                param_vals,
                limit,
                &[extra],
                self.multicast[k],
                values,
            )?;
            keep_folds(&mut self.folds[k], &mut self.rows[k], folded);
        }
        Ok(())
    }
}

/// Appends `folded` to a set's folds, its payload rows taken out beside
/// them.
fn keep_folds(folds: &mut Vec<Folded>, rows: &mut Vec<ClassRows>, folded: Vec<Folded>) {
    for mut f in folded {
        rows.push(f.take_payloads());
        folds.push(f);
    }
}

/// One chunk in its processors' orders: message `msg`, sent by rank
/// `sender` at the stamp keyed in row `send`, received by rank `receiver`
/// at the stamp keyed in row `recv` of the round's [`Keys`].
#[derive(Debug)]
struct Anchored {
    /// The communication set, the index of its fold at the set's split,
    /// and the chunk's index in that fold.
    set: usize,
    fold: usize,
    chunk: usize,
    msg: u32,
    sender: usize,
    send: u32,
    receiver: usize,
    recv: u32,
}

/// The send anchor of live-in data: before everything, the live-in
/// copies' `[-1]` included.
const LIVE_IN_SEND: [i128; 1] = [-2];

/// The send anchor of a message whose first chunk is `first`: after the
/// last producing write of its data (one statement's stamps order like
/// its iterations); initial-owner data has no producer and is sent before
/// everything.
fn send_anchor<'f>(cs: &CommSet, templates: &'f [Stamp], first: &Chunk<'f>) -> StampRef<'f> {
    match cs.write_stmt {
        Some(w) => StampRef::of(&templates[w], first.last_send),
        None => StampRef::Whole(&LIVE_IN_SEND),
    }
}

/// The receive anchor of chunk `c`: immediately before the first use of
/// its data (the paper's "issue the receive just before the data are
/// used").
fn recv_anchor<'f>(cs: &CommSet, templates: &'f [Stamp], c: &Chunk<'f>) -> StampRef<'f> {
    StampRef::of(&templates[cs.read_stmt], c.first_use)
}

/// Every chunk of every set at legality splits `splits`, in message order
/// (one message per group of a set's fold), anchored as the schedule
/// places it ([`send_anchor`], [`recv_anchor`]), and the anchors' keys:
/// one row per message's send, then one per chunk's receive.
fn anchored_chunks(
    compiled: &Compiled,
    plan: &HoistedPlan,
    splits: &[usize],
) -> Result<(Vec<Anchored>, Keys), CompileError> {
    let (folds, templates) = (&plan.folds, &plan.templates[..]);
    let at: Vec<usize> = (compiled.comm.iter().enumerate())
        .map(|(k, cs)| HoistedPlan::fold_at(folds, k, cs, splits[k]))
        .collect();
    // Exact capacities: the last round's chunks and keys outlive it, into
    // the schedule, and growing them left holes in the heap.
    let (mut messages, mut chunks) = (0, 0);
    for (k, &at) in at.iter().enumerate() {
        for members in folds[k][at].groups() {
            messages += 1;
            chunks += members.len();
        }
    }
    // Every key is as wide as the longest template; the live-in anchor
    // `[-2]` is one component long.
    let width = templates.iter().map(Vec::len).max().unwrap_or(1);
    let mut keys = Keys::with_capacity(width, messages + chunks);
    // Under the grid a chunk's processors are ranks.
    let rank = |cols: &[i128]| cols[0] as usize;
    let mut out = Vec::with_capacity(chunks);
    let mut msg = 0;
    for ((k, cs), &at) in compiled.comm.iter().enumerate().zip(&at) {
        let fold = &folds[k][at];
        for members in fold.groups() {
            let first = fold.chunk(members[0] as usize);
            let send = keys.push(send_anchor(cs, templates, &first))?;
            for &i in members {
                let c = fold.chunk(i as usize);
                out.push(Anchored {
                    set: k,
                    fold: at,
                    chunk: i as usize,
                    msg: key_index(msg)?,
                    sender: rank(first.sender),
                    send,
                    receiver: rank(c.receiver),
                    recv: keys.push(recv_anchor(cs, templates, &c))?,
                });
            }
            msg += 1;
        }
    }
    Ok((out, keys))
}

/// Per set, its first chunk that is not *safe*: one whose sender has a
/// receive anchored at a stamp `t` with `recv ≤ t ≤ send`. A plan whose
/// chunks are all safe cannot deadlock (DESIGN.md "Aggregation legality").
/// Also per processor the [`Key`]s of its receives, sorted: the schedule
/// of the round whose chunks are all safe takes them over. The anchors
/// are compared by their `keys`.
fn first_unsafe<'c>(
    nproc: usize,
    sets: usize,
    chunks: &'c [Anchored],
    keys: &Keys,
) -> (Vec<Option<&'c Anchored>>, Vec<Vec<Key>>) {
    // Exact capacities: the last round's keys outlive it, into the
    // schedule, and growing them left holes in the heap.
    let mut counts = vec![0; nproc];
    chunks.iter().for_each(|c| counts[c.receiver] += 1);
    let mut recvs: Vec<Vec<Key>> = counts.into_iter().map(Vec::with_capacity).collect();
    for c in chunks {
        recvs[c.receiver].push(Key {
            row: c.recv,
            msg: c.msg,
            phase: -1,
        });
    }
    recvs
        .iter_mut()
        .for_each(|r| r.sort_unstable_by(|a, b| keys.cmp(a, b)));
    let mut first = vec![None; sets];
    for c in chunks {
        let (q, recv, send) = (&recvs[c.sender], keys.row(c.recv), keys.row(c.send));
        let at = q.partition_point(|t| keys.row(t.row) < recv);
        if first[c.set].is_none() && q.get(at).is_some_and(|t| keys.row(t.row) <= send) {
            first[c.set] = Some(c);
        }
    }
    (first, recvs)
}

/// Folds one communication set at `splits` under the physical grid, with
/// its multicast verdict, keeping payloads in values mode.
fn fold_set(
    compiled: &Compiled,
    cs: &CommSet,
    param_vals: &[i128],
    limit: usize,
    splits: &[usize],
    multicast: bool,
    values: bool,
) -> Result<Vec<Folded>, CompileError> {
    let spec = FoldSpec {
        grid: Some(&compiled.input.grid),
        splits,
        read_depth: compiled.input.program.statements()[cs.read_stmt]
            .loops
            .len(),
        aggregate: compiled.options.aggregate,
        multicast,
        payloads: values,
    };
    // A scan's arithmetic failure reports as the planner's own
    // (`CompileError::Poly` or `Unbounded`); the parameter count was
    // checked on entry.
    let folded = fold_messages(cs, param_vals, &spec, limit).map_err(|e| match e {
        CommError::Poly(p) => CompileError::from(p),
        e => e.into(),
    })?;
    folded.ok_or_else(|| {
        CompileError::TooLarge(format!(
            "communication set for {} exceeds {limit} elements",
            cs.array
        ))
    })
}

/// The schedule at the legality splits, and the splits. Every set starts
/// at the paper's level; while some chunk is unsafe, each set that owns one
/// goes one send-iteration component deeper and only it is folded again.
/// A deeper split only adds receive anchors, so no set ever has to go
/// back; at a set's full depth each chunk is one send iteration, sent
/// before its first use and so safe, and the loop ends. The chunks of the
/// last round, all safe, are the ones the schedule is built from.
fn schedule_at_legal_splits(
    compiled: &Compiled,
    mut plan: HoistedPlan,
    param_vals: &[i128],
    limit: usize,
    values: bool,
) -> Result<(Vec<usize>, Schedule), CompileError> {
    let nproc = compiled.input.grid.len() as usize;
    let mut splits = vec![0; compiled.comm.len()];
    let (chunks, keys, recvs) = loop {
        let (chunks, keys) = anchored_chunks(compiled, &plan, &splits)?;
        let (unsafe_chunks, recvs) = first_unsafe(nproc, splits.len(), &chunks, &keys);
        let mut deepen = Vec::new();
        for a in unsafe_chunks.into_iter().flatten() {
            let (k, cs) = (a.set, &compiled.comm[a.set]);
            if cs.split_depth(splits[k] + 1) == cs.split_depth(splits[k]) {
                let c = plan.folds[k][a.fold].chunk(a.chunk);
                let why = format!(
                    "set {k} at full depth has an unsafe chunk {} from {} to {}: \
                     last send {:?}, first use {:?}",
                    a.chunk, a.sender, a.receiver, c.last_send, c.first_use
                );
                return Err(CompileError::Sim(SimError::MalformedSchedule(why)));
            }
            deepen.push((k, a.fold, a.chunk, a.sender, a.receiver));
        }
        if deepen.is_empty() {
            break (chunks, keys, recvs);
        }
        for (k, fold, chunk, sender, receiver) in deepen {
            let cs = &compiled.comm[k];
            obs::event_f("schedule.split", || {
                let c = plan.folds[k][fold].chunk(chunk);
                vec![
                    obs::field("set", k),
                    obs::field("array", cs.array.as_str()),
                    obs::field("split", splits[k] + 1),
                    obs::field("sender", sender),
                    obs::field("receiver", receiver),
                    obs::field("last_send", format!("{:?}", c.last_send)),
                    obs::field("first_use", format!("{:?}", c.first_use)),
                ]
            });
            splits[k] += 1;
            plan.refold(compiled, k, param_vals, limit, values, splits[k])?;
        }
    };
    let schedule = build_schedule_at(compiled, param_vals, values, (chunks, keys, recvs), plan)?;
    Ok((splits, schedule))
}

/// Enumerates every statement's compute blocks into per-processor runs in
/// stamp order. Independent of the legality-split depth.
///
/// The scan visits a block's outer loops before its processor, so each
/// processor receives a statement's blocks in stamp order — unless the
/// decomposition folds virtual processors onto it against iteration
/// order (a reversed or skewed map): such a run is sorted alone, and a
/// `schedule.resort` event names it. A statement's blocks on one processor
/// cover disjoint iterations (each iteration runs on one virtual
/// processor), so no two of them tie. A run's blocks share their
/// statement's positions, so they order by their loop values alone
/// ([`iteration`]), which the check and the sort compare.
fn block_runs(compiled: &Compiled, param_vals: &[i128]) -> Result<Runs, CompileError> {
    let input = &compiled.input;
    let nproc = input.grid.len() as usize;
    let stmts = input.program.statements();
    let mut runs: Runs = vec![vec![Vec::new(); stmts.len()]; nproc];
    for info in &stmts {
        let comp = &input.comps[&info.id];
        // A run of the innermost loop is one block only where nothing else
        // runs between its iterations: no other statement is inside that
        // loop. Otherwise (`X[i] = …; for j { … }` under `for i`) each
        // iteration is a block of its own, ordered by its stamp.
        let batch = info.loops.last().is_none_or(|inner| {
            stmts
                .iter()
                .all(|o| o.id == info.id || o.loops.iter().all(|l| l.id != inner.id))
        });
        compute_blocks(
            input,
            info,
            comp,
            param_vals,
            batch,
            &mut |proc, prefix, inner, flops| {
                runs[proc][info.id].push(Action::Block {
                    stmt: info.id,
                    prefix,
                    inner_range: inner,
                    flops,
                });
            },
        )?;
        for (p, run) in runs.iter_mut().map(|r| &mut r[info.id]).enumerate() {
            if !run.is_sorted_by(|a, b| iteration(a) <= iteration(b)) {
                obs::event_f("schedule.resort", || {
                    vec![
                        obs::field("stmt", info.id),
                        obs::field("proc", p),
                        obs::field("blocks", run.len()),
                    ]
                });
                run.sort_unstable_by(|a, b| iteration(a).cmp(&iteration(b)));
            }
        }
    }
    Ok(runs)
}

/// A block's loop values: its prefix, then `lo`. Two blocks of one
/// statement order by them as by their stamps, or their keys, which
/// differ only there.
fn iteration(block: &Action) -> (&[i128], Option<i128>) {
    match block {
        Action::Block {
            prefix,
            inner_range,
            ..
        } => (prefix, inner_range.map(|(lo, _)| lo)),
        _ => unreachable!("a run holds blocks"),
    }
}

/// Builds the full machine schedule for concrete parameter values.
///
/// `values` selects values mode (payloads carried; enables the
/// end-to-end correctness check) versus timing mode.
///
/// # Errors
///
/// Returns [`CompileError::Unbounded`] if a processor or loop range cannot
/// be bounded, [`CompileError::TooLarge`] past `limit`,
/// [`CompileError::LocationCentricValues`] for a values-mode schedule of a
/// location-centric compile that fetches an array the program writes, or
/// other analysis errors.
pub fn build_schedule(
    compiled: &Compiled,
    param_vals: &[i128],
    values: bool,
    limit: usize,
) -> Result<Schedule, CompileError> {
    // Without a session the plan is never shared, so this moves it out.
    build_schedule_inner(compiled, param_vals, values, limit, None).map(Arc::unwrap_or_clone)
}

/// The planner behind [`build_schedule`] and [`Session::build_schedule`]:
/// when a session is supplied, the final legality-refined plan
/// (`schedule` stage) is served from and admitted to the session store,
/// which shares the one `Arc` with the caller.
pub(crate) fn build_schedule_inner(
    compiled: &Compiled,
    param_vals: &[i128],
    values: bool,
    limit: usize,
    session: Option<&mut Session>,
) -> Result<Arc<Schedule>, CompileError> {
    // Scope the feasibility budget here too: scheduling re-enters the
    // polyhedral engine (enumeration, multicast checks), and `compile`'s
    // tuning has already been popped by now.
    let _lane = obs::lane(obs::main_lane(), "pipeline");
    let want = compiled.input.program.params.len();
    if param_vals.len() != want {
        return Err(CompileError::ParamCount {
            want,
            got: param_vals.len(),
        });
    }
    if values && compiled.options.strategy == Strategy::LocationCentric {
        let stmts = compiled.input.program.statements();
        let written = |array: &str| stmts.iter().any(|s| s.stmt.write.array == array);
        if let Some(cs) = compiled.comm.iter().find(|cs| written(&cs.array)) {
            return Err(CompileError::LocationCentricValues(cs.array.clone()));
        }
    }
    // The stage key covers everything the plan is a function of.
    let mut staged = session.map(|s| (s, schedule_fp(compiled, param_vals, values, limit)));
    if let Some((s, k)) = &mut staged {
        if let Some(cached) = s.schedule_stage(*k) {
            return Ok(cached);
        }
    }
    let _span = obs::span_f("schedule", || vec![obs::field("values", values)]);
    let _lctx = ledger::push_context("schedule");
    let plan = hoist(compiled, param_vals, limit, values)?;
    let (_, schedule) = schedule_at_legal_splits(compiled, plan, param_vals, limit, values)?;
    let schedule = Arc::new(schedule);
    if let Some((s, k)) = &mut staged {
        s.admit_schedule(*k, Arc::clone(&schedule));
    }
    Ok(schedule)
}

/// Everything [`build_schedule`] derives once, whatever the sets' legality
/// splits: the per-set multicast verdicts, each set's fold at the hoisted
/// splits ([`HOISTED_SPLITS`]) and the compute-block nests.
fn hoist(
    compiled: &Compiled,
    param_vals: &[i128],
    limit: usize,
    values: bool,
) -> Result<HoistedPlan, CompileError> {
    // The verdicts go first: the fold refines payload classes only for
    // sets that may multicast.
    let multicast = {
        let _s = obs::span_f("plan", || vec![obs::field("sets", compiled.comm.len())]);
        let _c = ledger::push_context("plan");
        if compiled.options.multicast && compiled.options.aggregate {
            compiled
                .comm
                .iter()
                .map(is_multicast)
                .collect::<Result<Vec<_>, _>>()?
        } else {
            vec![false; compiled.comm.len()]
        }
    };
    let (mut folds, mut rows) = (Vec::new(), Vec::new());
    {
        let _s = obs::span_f("aggregate", || {
            vec![obs::field("sets", compiled.comm.len())]
        });
        let _c = ledger::push_context("aggregate");
        for (cs, &m) in compiled.comm.iter().zip(&multicast) {
            let folded = fold_set(compiled, cs, param_vals, limit, &HOISTED_SPLITS, m, values)?;
            let (mut f, mut r) = (Vec::new(), Vec::new());
            keep_folds(&mut f, &mut r, folded);
            folds.push(f);
            rows.push(r);
        }
    }
    let stmts = compiled.input.program.statements();
    let templates: Vec<Stamp> = stmts.iter().map(|s| template_of(&s.position)).collect();
    Ok(HoistedPlan {
        folds,
        rows,
        multicast,
        templates,
    })
}

/// The schedule built from the chunks of each set at its legality split,
/// `chunks` (anchored in the plan's folds, their anchors' rows in `keys`),
/// and each processor's sorted receive keys `recvs`, taking over the
/// plan's payload rows; the compute blocks are enumerated here, once the
/// splits are settled and the folds freed.
fn build_schedule_at(
    compiled: &Compiled,
    param_vals: &[i128],
    values: bool,
    (chunks, keys, recvs): (Vec<Anchored>, Keys, Vec<Vec<Key>>),
    plan: HoistedPlan,
) -> Result<Schedule, CompileError> {
    let nproc = compiled.input.grid.len() as usize;
    let HoistedPlan {
        folds,
        mut rows,
        templates,
        ..
    } = plan;
    let mut schedule = Schedule::new(nproc);

    // 1. Messages, in order, and per processor the keys of its sends,
    // which take over the chunks' anchors. The list is built at its exact
    // size: a plan is often held long after (a session's cache, a
    // caller's reference).
    let mut sends: Vec<Vec<Key>> = (0..nproc).map(|_| Vec::new()).collect();
    let nmsg = chunks.chunk_by(|a, b| a.msg == b.msg).count();
    schedule.messages.reserve_exact(nmsg);
    for group in chunks.chunk_by(|a, b| a.msg == b.msg) {
        let (head, cs) = (&group[0], &compiled.comm[group[0].set]);
        let fold = &folds[head.set][head.fold];
        let first = fold.chunk(head.chunk);
        let (msg_id, sender, words) = (head.msg, head.sender, first.words);
        let receivers: Vec<usize> = group.iter().map(|a| a.receiver).collect();
        // Provenance: which (statement, read) created this message and
        // which §6 passes its communication set survived.
        obs::event_f("prov.message", || {
            let listed: Vec<String> = receivers.iter().map(usize::to_string).collect();
            vec![
                obs::field("msg", msg_id),
                obs::field("array", cs.array.as_str()),
                obs::field("stmt", cs.read_stmt),
                obs::field("read", cs.read_no),
                obs::field("sender", sender),
                obs::field("receivers", listed.join(", ")),
                obs::field("nrecv", receivers.len()),
                obs::field("words", words),
                obs::field("steps", cs.steps.join("+")),
            ]
        });
        // Only values mode carries a payload: the message's class rows,
        // moved out of the plan (one group per class).
        let payload = values.then(|| Payload {
            array: cs.array.clone(),
            writer: cs.write_stmt,
            width: fold.item_width(),
            rows: std::mem::take(&mut rows[head.set][head.fold][first.payload]),
        });
        sends[sender].push(Key {
            row: head.send,
            msg: msg_id,
            phase: 1,
        });
        schedule.messages.push(MessageSpec {
            sender,
            receivers,
            words,
            payload,
        });
    }
    // The folds are read: free them before the blocks are enumerated.
    drop((chunks, folds, rows));

    // 2. The compute blocks, per processor and statement in stamp order.
    let runs = {
        let _s = obs::span_f("plan", || vec![obs::field("sets", compiled.comm.len())]);
        let _c = ledger::push_context("plan");
        block_runs(compiled, param_vals)?
    };

    // 3. Per processor, one forward merge of its blocks and its message
    // actions — its sends sorted, merged with its sorted receives — into
    // its action list: of its exact size unless a receive cuts a block,
    // then shrunk to it.
    let acts = sends.into_iter().zip(recvs).map(|(mut sends, recvs)| {
        sends.sort_unstable_by(|a, b| keys.cmp(a, b));
        merge_keys(&keys, sends, recvs)
    });
    for ((out, acts), runs) in schedule.procs.iter_mut().zip(acts).zip(runs) {
        let blocks: usize = runs.iter().map(Vec::len).sum();
        out.reserve_exact(blocks + acts.len());
        for action in ProcActions::new(&keys, &templates, runs, acts)? {
            out.push(action?);
        }
        out.shrink_to_fit();
    }
    Ok(schedule)
}

/// Two key lists, each sorted by `keys`, as one sorted list.
fn merge_keys(keys: &Keys, a: Vec<Key>, b: Vec<Key>) -> Vec<Key> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let next = if keys.cmp(x, y).is_lt() {
            a.next()
        } else {
            b.next()
        };
        out.extend(next);
    }
    out.extend(a.chain(b));
    out
}

/// One processor's actions in execution order, in one forward pass: its
/// statements' block runs merged by anchor, each ranged block cut at the
/// receives inside it — so each receive executes immediately before the
/// first use of its data, not before the whole block (otherwise
/// mutually-feeding processors deadlock) — and its message actions
/// interleaved in [`Key`] order: receives, then the block, then sends at
/// one anchor. Every anchor is compared by its key: a message action's
/// row in `keys`, and each block's key, written once when it heads its
/// run; the block's last iteration, and what is left of it after a cut,
/// differ from it only in the innermost loop value's column.
struct ProcActions<'a> {
    keys: &'a Keys,
    templates: &'a [Stamp],
    /// Per statement, the processor's blocks in stamp order.
    runs: Vec<std::vec::IntoIter<Action>>,
    /// Per statement, the key of its run's head: `keys.width` columns
    /// each, unread once the run is empty.
    heads: Vec<i64>,
    /// What is left of the block being emitted, and its key.
    head: Option<Action>,
    head_key: Vec<i64>,
    /// The key of the last iteration of a block being cut.
    end_key: Vec<i64>,
    /// The message actions' keys, sorted.
    acts: Vec<Key>,
    /// The next message action to emit.
    next: usize,
    /// The next message action that may cut a block: a cursor over the
    /// receive anchors, which only moves forward because the blocks come
    /// in stamp order and cover disjoint stamp ranges.
    cut: usize,
}

impl<'a> ProcActions<'a> {
    fn new(
        keys: &'a Keys,
        templates: &'a [Stamp],
        runs: Vec<Vec<Action>>,
        acts: Vec<Key>,
    ) -> Result<Self, CompileError> {
        let width = keys.width;
        let mut heads = vec![0; runs.len() * width];
        for (run, key) in runs.iter().zip(heads.chunks_exact_mut(width)) {
            if let Some(first) = run.first() {
                write_key(first.anchor(templates).expect("a block"), key)?;
            }
        }
        Ok(ProcActions {
            keys,
            templates,
            runs: runs.into_iter().map(Vec::into_iter).collect(),
            heads,
            head: None,
            head_key: vec![0; width],
            end_key: vec![0; width],
            acts,
            next: 0,
            cut: 0,
        })
    }

    fn head_of(&self, run: usize) -> &[i64] {
        &self.heads[run * self.keys.width..][..self.keys.width]
    }

    /// The run head with the least anchor, taken out of its run, its key
    /// in `head_key`; the run's next block keyed in its place.
    fn next_block(&mut self) -> Result<Option<Action>, CompileError> {
        let least = (0..self.runs.len())
            .filter(|&k| !self.runs[k].as_slice().is_empty())
            .min_by(|&a, &b| self.head_of(a).cmp(self.head_of(b)));
        let Some(k) = least else {
            return Ok(None);
        };
        let block = self.runs[k].next();
        let width = self.keys.width;
        let key = &mut self.heads[k * width..][..width];
        self.head_key.copy_from_slice(key);
        if let Some(next) = self.runs[k].as_slice().first() {
            write_key(next.anchor(self.templates).expect("a block"), key)?;
        }
        Ok(block)
    }

    /// The last iteration of the piece of a ranged block of `stmt` that
    /// starts at `start`, the head: one before the next receive of the same
    /// statement and prefix anchored in `(start, hi]`, or `hi`.
    fn piece_end(&mut self, stmt: usize, start: i128, hi: i128) -> Result<i128, CompileError> {
        // The block's last iteration keys as its first does but for the
        // innermost loop value, in column `last`; so does a receive of
        // this statement and prefix.
        let last = self.templates[stmt].len() - 2;
        self.end_key.copy_from_slice(&self.head_key);
        self.end_key[last] = component(hi)?;
        let end = &self.end_key[..];
        while let Some(&Key { row, phase, .. }) = self.acts.get(self.cut) {
            let anchor = self.keys.row(row);
            // Up to the first receive past the block, the first receive
            // of this statement and prefix after `start` cuts; sends and
            // earlier receives cut nothing.
            if phase < 0 && anchor > end {
                break;
            }
            self.cut += 1;
            let ours = anchor[..last] == end[..last] && anchor[last + 1..] == end[last + 1..];
            if phase < 0 && ours && i128::from(anchor[last]) > start {
                return Ok(i128::from(anchor[last]) - 1);
            }
        }
        Ok(hi)
    }

    /// The next action, or `None` once every block and message action is
    /// out.
    fn step(&mut self) -> Result<Option<Action>, CompileError> {
        if self.head.is_none() {
            self.head = self.next_block()?;
        }
        // A message action keyed below the block goes first; with no block
        // left, the rest of them in order.
        let key = self.acts.get(self.next);
        let first = match (&self.head, key) {
            (Some(_), Some(k)) => {
                let anchor = self.keys.row(k.row);
                anchor.cmp(&self.head_key).then(k.phase.cmp(&0)).is_lt()
            }
            (head, _) => head.is_none(),
        };
        if first {
            self.next += 1;
            return Ok(key.map(|&Key { msg, phase, .. }| {
                let msg = msg as usize;
                match phase {
                    -1 => Action::Recv { msg },
                    _ => Action::Send { msg },
                }
            }));
        }
        let Some(mut head) = self.head.take() else {
            return Ok(None);
        };
        if let Action::Block {
            stmt,
            prefix,
            inner_range: Some((lo, hi)),
            flops,
        } = &mut head
        {
            // A one-iteration block has nothing to cut.
            let end = if lo < hi {
                self.piece_end(*stmt, *lo, *hi)?
            } else {
                *hi
            };
            if end < *hi {
                // Flops are a whole number per iteration, so the split
                // is exact.
                let per_iter = *flops / (*hi - *lo + 1) as f64;
                let piece = Action::Block {
                    stmt: *stmt,
                    prefix: prefix.clone(),
                    inner_range: Some((*lo, end)),
                    flops: per_iter * (end - *lo + 1) as f64,
                };
                *lo = end + 1;
                *flops = per_iter * (*hi - *lo + 1) as f64;
                // The rest keys as the piece did but for its first
                // innermost loop value.
                self.head_key[self.templates[*stmt].len() - 2] = component(*lo)?;
                self.head = Some(head);
                return Ok(Some(piece));
            }
        }
        Ok(Some(head))
    }
}

impl Iterator for ProcActions<'_> {
    type Item = Result<Action, CompileError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.step().transpose()
    }
}

/// Sink for one enumerated compute block:
/// `(processor, virtual iteration, inner range, flops)`.
type BlockSink<'a> = dyn FnMut(usize, Vec<i128>, Option<(i128, i128)>, f64) + 'a;

/// Enumerates the compute blocks of one statement on every processor: one
/// per run of the innermost loop when `batch`, one per iteration otherwise.
fn compute_blocks(
    input: &CompileInput,
    info: &StmtInfo,
    comp: &CompDecomp,
    param_vals: &[i128],
    batch: bool,
    emit: &mut BlockSink,
) -> Result<(), CompileError> {
    let program = &input.program;
    let grid = &input.grid;
    // Space: loop dims, proc dims, params.
    let mut space = Space::new();
    let mut loop_dims = Vec::new();
    for v in info.loop_vars() {
        loop_dims.push(space.add_dim(v.to_owned(), DimKind::Index));
    }
    let mut proc_dims = Vec::new();
    for k in 0..comp.proc_ndim() {
        proc_dims.push(space.add_dim(format!("p{k}"), DimKind::Proc));
    }
    let mut param_dims = Vec::new();
    for p in &program.params {
        param_dims.push(space.add_dim(p.clone(), DimKind::Param));
    }
    let mut poly = info.domain(&space, &[]);
    comp.constrain(&mut poly, &[], &proc_dims);

    let flops_per_iter = info.stmt.rhs.flops() as f64;

    // Scan order: the outer loops, then the processor, then the innermost
    // loop; parameters fixed. A processor then meets its blocks in stamp
    // order wherever its virtual processors follow the iterations.
    let (outer, inner) = loop_dims.split_at(loop_dims.len().saturating_sub(1));
    let order: Vec<usize> = [outer, &proc_dims, inner].concat();
    let nest = dmc_polyhedra::scan_bounds(&poly, &order)?;
    let mut fixed = vec![0i128; space.len()];
    for (k, &d) in param_dims.iter().enumerate() {
        fixed[d] = param_vals[k];
    }
    let kernel = nest.compile(&fixed)?;

    // Visit the outer loops and the proc dims; the innermost loop becomes
    // the block range. The proc dims follow the loop
    // dims in the space, so the rank is read off the point; what a block
    // allocates is what the schedule keeps, its prefix.
    let procs = loop_dims.len()..loop_dims.len() + proc_dims.len();
    kernel.for_each(nest.vars.len() - inner.len(), |point| {
        let rank = grid.fold_rank(&point[procs.clone()]) as usize;
        if inner.is_empty() {
            emit(rank, Vec::new(), None, flops_per_iter);
        } else if let Some((lo, hi)) = kernel.inner_range(point)? {
            let mut block = |lo: i64, hi: i64| {
                let prefix = outer.iter().map(|&d| i128::from(point[d])).collect();
                let flops = flops_per_iter * (hi - lo + 1) as f64;
                emit(rank, prefix, Some((lo.into(), hi.into())), flops);
            };
            if batch {
                block(lo, hi);
            } else {
                (lo..=hi).for_each(|x| block(x, x));
            }
        }
        Ok(ControlFlow::Continue(()))
    })
}

/// Plans and simulates in one call: [`build_schedule`], then [`simulate`].
///
/// # Errors
///
/// Returns [`CompileError`] on any stage failure.
pub fn run(
    compiled: &Compiled,
    param_vals: &[i128],
    config: &MachineConfig,
    values: bool,
    limit: usize,
) -> Result<SimResult, CompileError> {
    let schedule = build_schedule(compiled, param_vals, values, limit)?;
    simulate(compiled, param_vals, config, values, &schedule)
}

/// Simulates an already-built `schedule` of `compiled` under the input's
/// initial placement: [`run`] without planning again, for a caller that
/// already holds the plan. `values` must be the mode the plan was built in.
///
/// # Errors
///
/// Returns [`CompileError`] when the simulator rejects the schedule.
pub fn simulate(
    compiled: &Compiled,
    param_vals: &[i128],
    config: &MachineConfig,
    values: bool,
    schedule: &Schedule,
) -> Result<SimResult, CompileError> {
    let _lane = obs::lane(obs::main_lane(), "pipeline");
    let params: HashMap<String, i128> = compiled
        .input
        .program
        .params
        .iter()
        .cloned()
        .zip(param_vals.iter().copied())
        .collect();
    let placement = if compiled.input.initial.is_empty() {
        InitialPlacement::Replicated
    } else {
        InitialPlacement::Owned(compiled.input.initial.clone())
    };
    dmc_machine::simulate(
        &compiled.input.program,
        &params,
        &compiled.input.grid,
        schedule,
        config,
        &placement,
        values,
    )
    .map_err(CompileError::Sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{assert_equals_interp, figure2_input, lu_input, xy_input};
    use dmc_machine::KEY_PAD;

    const LIMIT: usize = 2_000_000;

    /// Deepening a set refolds that set alone: past the hoisted splits its
    /// folds gain one, every other set's folds stay as they were, a second
    /// refold at the same split folds nothing, and the schedule over the
    /// shared plan is the one over a fresh plan folded the same way. LU
    /// plans two sets at split 1, and `build_schedule` returns the plan at
    /// its legal splits.
    #[test]
    fn a_deepened_set_refolds_only_itself() {
        let compiled = compile(lu_input(4), Options::full()).unwrap();
        let mut plan = hoist(&compiled, &[12], LIMIT, true).unwrap();
        let hoisted = plan.folds.clone();
        let k = (0..compiled.comm.len())
            .find(|&k| compiled.comm[k].split_depth(2) > compiled.comm[k].split_depth(1))
            .expect("a set deeper than the hoisted splits");
        for _ in 0..2 {
            plan.refold(&compiled, k, &[12], LIMIT, true, 2).unwrap();
        }
        for (j, (before, after)) in hoisted.iter().zip(&plan.folds).enumerate() {
            assert_eq!(after.len(), before.len() + usize::from(j == k), "set {j}");
            assert_eq!(after[..before.len()], before[..], "set {j}");
        }
        let mut splits = vec![0; compiled.comm.len()];
        splits[k] = 2;
        let mut fresh = hoist(&compiled, &[12], LIMIT, true).unwrap();
        fresh.refold(&compiled, k, &[12], LIMIT, true, 2).unwrap();
        let at = |plan: HoistedPlan, splits: &[usize]| {
            let (chunks, keys) = anchored_chunks(&compiled, &plan, splits).unwrap();
            let nproc = compiled.input.grid.len() as usize;
            let (_, recvs) = first_unsafe(nproc, splits.len(), &chunks, &keys);
            build_schedule_at(&compiled, &[12], true, (chunks, keys, recvs), plan).unwrap()
        };
        assert_eq!(at(plan.clone(), &splits), at(fresh.clone(), &splits));
        let (legal, legalized) =
            schedule_at_legal_splits(&compiled, fresh, &[12], LIMIT, true).unwrap();
        let mut histogram = legal.clone();
        histogram.sort_unstable();
        assert_eq!(histogram, [0, 0, 1, 1]);
        let built = build_schedule(&compiled, &[12], true, LIMIT).unwrap();
        assert_eq!(built, legalized);
        assert_eq!(built, at(plan, &legal));
    }

    /// Plans `input` under `options` and holds the plan to three oracles:
    /// every chunk at the legal splits is safe, the timing-mode schedule
    /// runs to the end on a zero-cost machine, and a values-mode run equals
    /// the sequential interpreter (where values mode is served). A compile
    /// the options refuse for want of initial data plans nothing.
    fn assert_plans_legally(what: &str, input: CompileInput, options: Options, params: &[i128]) {
        let program = input.program.clone();
        let compiled = match compile(input, options) {
            Err(CompileError::MissingInitial(_)) => return,
            compiled => compiled.unwrap_or_else(|e| panic!("{what}: {e}")),
        };
        let plan = hoist(&compiled, params, LIMIT, false).unwrap();
        let (splits, schedule) =
            schedule_at_legal_splits(&compiled, plan, params, LIMIT, false).unwrap();
        let mut plan = hoist(&compiled, params, LIMIT, false).unwrap();
        for (k, &split) in splits.iter().enumerate() {
            plan.refold(&compiled, k, params, LIMIT, false, split)
                .unwrap();
        }
        let (chunks, keys) = anchored_chunks(&compiled, &plan, &splits).unwrap();
        let nproc = compiled.input.grid.len() as usize;
        let (unsafe_chunks, _) = first_unsafe(nproc, splits.len(), &chunks, &keys);
        assert!(
            unsafe_chunks.iter().all(Option::is_none),
            "{what}: {unsafe_chunks:?}"
        );
        let zero = MachineConfig::zero_comm();
        simulate(&compiled, params, &zero, false, &schedule)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        match run(&compiled, params, &zero, true, LIMIT) {
            Ok(result) => {
                let memory = result.memory.expect("values mode returns memory");
                assert_equals_interp(what, &program, params, &memory);
            }
            Err(CompileError::LocationCentricValues(_)) => {}
            Err(e) => panic!("{what}: {e}"),
        }
    }

    /// The corpus families' programs: `(name, source, the decomposed
    /// loop variable of each statement, arrays with an initial home and
    /// their ranks, largest N, params as a function of N)`.
    type Family = (
        &'static str,
        String,
        &'static [&'static str],
        &'static [(&'static str, usize)],
        i128,
        fn(i128) -> Vec<i128>,
    );

    fn families() -> Vec<Family> {
        let lu = "param N; array X[N + 1][N + 1];
            for i1 = 0 to N { for i2 = i1 + 1 to N {
              X[i2][i1] = X[i2][i1] / X[i1][i1];
              for i3 = i1 + 1 to N { X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]; }
            } }";
        let mut out: Vec<Family> = vec![
            ("lu", lu.to_owned(), &["i2", "i2"], &[("X", 2)], 19, |n| {
                vec![n]
            }),
            (
                "transpose",
                "param N; array A[N][N]; array B[N][N];
                 for i = 0 to N - 1 { for j = 0 to N - 1 { B[i][j] = 0.5 * A[j][i]; } }"
                    .to_owned(),
                &["i"],
                &[("A", 2)],
                23,
                |n| vec![n + 1],
            ),
        ];
        for k in 1..=3 {
            out.push((
                "shift",
                format!(
                    "param T, N; array X[N + 1];
                     for t = 0 to T {{ for i = {k} to N {{ X[i] = 0.5 * X[i - {k}]; }} }}"
                ),
                &["i"],
                &[],
                255,
                |n| vec![2, n],
            ));
        }
        for k in 1..=2 {
            out.push((
                "stencil",
                format!(
                    "param T, N; array X[N + 1];
                     for t = 0 to T {{ for i = {k} to N - {k} {{
                       X[i] = 0.5 * (X[i] + X[i - {k}] + X[i + {k}]); }} }}"
                ),
                &["i"],
                &[],
                255,
                |n| vec![2, n],
            ));
        }
        out
    }

    /// A family's input under block `b` (cyclic for `None`) on `p`
    /// processors, at the corpus's size: every processor owns one block
    /// (three elements when cyclic), capped per family.
    fn family_input(f: &Family, b: Option<i128>, p: i128) -> (CompileInput, Vec<i128>) {
        let (_, source, vars, homes, max_n, params) = f;
        let comps = vars.iter().enumerate().map(|(s, &var)| {
            let comp = match b {
                Some(b) => CompDecomp::block_1d(s, var, b),
                None => CompDecomp::cyclic_1d(s, var),
            };
            (s, comp)
        });
        let initial = homes.iter().map(|&(array, rank)| {
            let home = match b {
                Some(b) => DataDecomp::block_1d(array, rank, 0, b),
                None => DataDecomp::cyclic_1d(array, rank, 0),
            };
            (array.to_owned(), home)
        });
        let input = CompileInput {
            program: dmc_ir::parse(source).expect("parses"),
            comps: comps.collect(),
            initial: initial.collect(),
            grid: ProcGrid::line(p),
        };
        (input, params((b.unwrap_or(3) * p - 1).min(*max_n)))
    }

    /// The legality rule against the dry run it replaced, kept as a test
    /// oracle: the registry under every option set it compiles with, and
    /// the corpus's LU, shift, stencil and transpose shapes under block 4,
    /// 8, 16 and 32 and cyclic decompositions on P ∈ {2, 3, 4, 6, 8}, naive
    /// and full (and location-centric for the transpose, as the corpus
    /// draws it).
    #[test]
    fn safe_chunks_never_deadlock_and_compute_the_program() {
        let all = [
            Options::full(),
            Options::naive(),
            Options::location_centric(),
        ];
        let (stencil, _) = family_input(&families()[5], Some(32), 4);
        let registry = [
            ("lu", lu_input(8), vec![48]),
            ("stencil", stencil, vec![4, 127]),
            ("figure2", figure2_input(32, 4), vec![3, 127]),
            ("xy", xy_input(4, true), vec![47]),
        ];
        for (name, input, params) in registry {
            for options in all {
                let what = format!("{name} {options:?}");
                assert_plans_legally(&what, input.clone(), options, &params);
            }
        }
        for f in &families() {
            let options = if f.0 == "transpose" {
                &all[..]
            } else {
                &all[..2]
            };
            for b in [Some(4), Some(8), Some(16), Some(32), None] {
                for p in [2, 3, 4, 6, 8] {
                    let (input, params) = family_input(f, b, p);
                    for &options in options {
                        let what = format!("{} {b:?} P{p} {params:?} {options:?}", f.0);
                        assert_plans_legally(&what, input.clone(), options, &params);
                    }
                }
            }
        }
    }

    /// A decomposition that folds virtual processors onto a rank against
    /// iteration order — the reversed map `p = ⌊−i / b⌋`, cyclic and in
    /// blocks of 4, of a stencil that reads both neighbours — reaches each
    /// processor's blocks out of stamp order: the per-run sort runs (a
    /// `schedule.resort` event per unsorted run), every processor's
    /// actions strictly increase in key (the key of a message action is
    /// its chunk's anchor), the blocks of 4 are cut at receives, and values
    /// mode computes the program.
    #[test]
    fn runs_folded_against_iteration_order_are_sorted_then_merged() {
        use dmc_decomp::DimMap;
        use dmc_ir::Aff;
        let source = "param T, N; array X[N + 1];
            for t = 0 to T { for i = 1 to N - 1 {
              X[i] = 0.5 * (X[i] + X[i - 1] + X[i + 1]); } }";
        let params = [2, 24];
        for b in [1, 4] {
            let reversed = DimMap::block(-Aff::var("i"), b);
            let input = CompileInput {
                program: dmc_ir::parse(source).unwrap(),
                comps: BTreeMap::from([(0, CompDecomp::from_maps(0, vec![reversed]))]),
                initial: HashMap::new(),
                grid: ProcGrid::line(3),
            };
            let program = input.program.clone();
            let compiled = compile(input, Options::full()).unwrap();
            obs::start_capture();
            let schedule = build_schedule(&compiled, &params, false, LIMIT).unwrap();
            let trace = obs::finish_capture();
            let records = trace.lanes.iter().flat_map(|l| &l.records);
            let resorts = records.filter(|r| r.name == "schedule.resort").count();
            assert_eq!(resorts, 3, "b = {b}: one per processor");

            // The chunks at the legal splits, anchored as the schedule was.
            let (splits, legalized) = {
                let plan = hoist(&compiled, &params, LIMIT, false).unwrap();
                schedule_at_legal_splits(&compiled, plan, &params, LIMIT, false).unwrap()
            };
            assert_eq!(legalized, schedule);
            let mut plan = hoist(&compiled, &params, LIMIT, false).unwrap();
            for (k, &split) in splits.iter().enumerate() {
                plan.refold(&compiled, k, &params, LIMIT, false, split)
                    .unwrap();
            }
            // The anchors as stamps, the order keys stand for.
            let (chunks, _) = anchored_chunks(&compiled, &plan, &splits).unwrap();
            let chunk = |c: &Anchored| {
                let cs = &compiled.comm[c.set];
                (cs, plan.folds[c.set][c.fold].chunk(c.chunk))
            };
            let send = |msg: usize| {
                let (cs, first) = chunk(chunks.iter().find(|c| c.msg as usize == msg).unwrap());
                send_anchor(cs, &plan.templates, &first)
            };
            let recv = |msg: usize, p: usize| {
                let c = chunks
                    .iter()
                    .find(|c| c.msg as usize == msg && c.receiver == p);
                let (cs, c) = chunk(c.unwrap());
                recv_anchor(cs, &plan.templates, &c)
            };
            for (p, acts) in schedule.procs.iter().enumerate() {
                let keys: Vec<(StampRef, i8, usize)> = acts
                    .iter()
                    .map(|a| match a {
                        Action::Send { msg } => (send(*msg), 1, *msg),
                        Action::Recv { msg } => (recv(*msg, p), -1, *msg),
                        block => (block.anchor(&plan.templates).unwrap(), 0, 0),
                    })
                    .collect();
                assert!(keys.is_sorted_by(|a, b| a < b), "b = {b}: processor {p}");
            }
            let runs = block_runs(&compiled, &params).unwrap();
            let blocks: usize = runs.iter().flatten().map(Vec::len).sum();
            let pieces = schedule.procs.iter().flatten();
            let pieces = pieces.filter(|a| matches!(a, Action::Block { .. })).count();
            assert_eq!(
                pieces > blocks,
                b > 1,
                "b = {b}: {pieces} pieces of {blocks}"
            );

            let zero = MachineConfig::zero_comm();
            let result = run(&compiled, &params, &zero, true, LIMIT).unwrap();
            let memory = result.memory.expect("values mode returns memory");
            assert_equals_interp(&format!("b = {b}"), &program, &params, &memory);
        }
    }

    /// A stamp component no key holds — the pad, or past `i64` — is a
    /// typed refusal, never a wrapped key; the extremes of the scan
    /// kernel's range are keyed.
    #[test]
    fn a_component_outside_the_keys_is_refused() {
        let mut row = [0; 2];
        for x in [i128::from(i64::MIN), i128::from(i64::MAX) + 1] {
            let err = write_key(StampRef::Whole(&[0, x]), &mut row).unwrap_err();
            assert!(
                matches!(&err, CompileError::TooLarge(why) if why.contains(&x.to_string())),
                "{err}"
            );
        }
        let edge = (1i128 << 62) - 1;
        write_key(StampRef::Whole(&[-edge]), &mut row).unwrap();
        assert_eq!(row, [-(1 << 62) + 1, KEY_PAD]);
    }

    /// The case the plain order test (send stamp below receive stamp)
    /// over-splits: LU with block-16 decompositions at N = 19 on two
    /// processors plans its 6 messages at the paper's level, not 32.
    #[test]
    fn lu_block_16_stays_at_the_papers_level() {
        let (input, params) = family_input(&families()[0], Some(16), 2);
        assert_eq!(params, [19]);
        let compiled = compile(input, Options::full()).unwrap();
        let schedule = build_schedule(&compiled, &params, false, LIMIT).unwrap();
        assert_eq!(schedule.message_stats(), (6, 6, 200));
    }
}
