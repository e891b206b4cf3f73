//! The five workloads. Each serves a fixed request list, one request at a
//! time, through the public functions of the layers it is meant to load;
//! every such call sits in a [`trace::span`] named `<crate>.<function>`.
//!
//! Request lists are compile-time constants, sized on the reference host
//! (2 shared cores) so one pass takes 0.6–1.1 s (`store_warm`: 0.25 s);
//! nothing is calibrated at run time.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use dmc_codegen::SpmdProgram;
use dmc_core::{Artifact, Compiled, Session};
use dmc_ir::interp::Memory;
use dmc_ir::Program;
use dmc_machine::{InitialPlacement, MachineConfig, Schedule, SimResult};
use dmc_store::DiskStore;

use crate::corpus::{self, Request, Rng};
use crate::timed_store::{self, TimedStore};
use crate::trace;

/// Per-set enumeration limit handed to the planner; far above anything a
/// request here enumerates.
const LIMIT: usize = 50_000_000;

/// `lu_plan`: Figure 11 LU, cyclic, as (N, P). The step 64→96 at P=8 shows
/// the planner's growth in N, 8→16 at N=96 its growth in P.
const LU_PLAN: [(i128, i128); 3] = [(64, 8), (96, 8), (96, 16)];
const LU_PLAN_SMALL: [(i128, i128); 1] = [(32, 4)];

/// `symbolic_corpus` request count; `store_*` serve the first
/// [`STORE_REQUESTS`] of the same corpus.
const CORPUS_REQUESTS: usize = 230;
const STORE_REQUESTS: usize = 150;
/// Every `SAMPLE_STRIDE`-th corpus shape is planned and simulated in
/// values mode against the interpreter during `symbolic_corpus` set-up.
const SAMPLE_STRIDE: usize = 8;

/// What one served request contributes to the end-to-end quality metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Served {
    /// Simulated iPSC/860 makespan of the generated schedule.
    pub makespan_ns: u64,
    /// Words × receivers.
    pub words: u64,
    pub messages: u64,
    pub transmissions: u64,
}

/// Counts taken at layer boundaries during one pass. Plain integer adds:
/// kept on in every pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub source_bytes: u64,
    pub comm_sets: u64,
    pub spmd_lines: u64,
    pub spmd_bytes: u64,
    pub sim_events: u64,
    pub stage_hits: u64,
    pub stage_disk_hits: u64,
    pub stage_misses: u64,
    pub store_entries: u64,
    pub store_corrupt: u64,
}

/// Counts taken by the probe phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCounts {
    pub lwt_leaves: u64,
    pub items_enumerated: u64,
    pub artifact_bytes: u64,
}

pub trait Workload {
    fn requests(&self) -> &[Request];
    /// Interpreter checks made during set-up: `(attempted, failed)`.
    fn setup_checks(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Untimed work between passes.
    fn reset(&mut self) {}
    fn begin_pass(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Serves request `i` and checks its result; `Err` is a failed request.
    fn serve(&mut self, i: usize, counters: &mut Counters) -> Result<Served, String>;
    fn end_pass(&mut self, _counters: &mut Counters) {}
    /// Calls the inner public functions that a request reaches only
    /// through `compile` / `build_schedule` / the store, each in its own
    /// span. Runs with tracing on, outside any pass.
    fn probe(&mut self) -> Result<ProbeCounts, String> {
        probe_requests(self.requests())
    }
    /// Wall seconds to serve the same requests through a memory-only
    /// `Session` (`store_warm` only).
    fn recompute_pass_s(&mut self) -> Option<Result<f64, String>> {
        None
    }
}

pub const NAMES: [&str; 5] = [
    "lu_plan",
    "symbolic_corpus",
    "store_cold",
    "store_warm",
    "verify_values",
];

/// Builds a workload: generates its inputs from `seed` and computes its
/// reference outputs. `fault` corrupts one reference (the `--inject-fault`
/// self-test). `scratch` is a directory the workload may create and must
/// remove.
pub fn build(
    name: &str,
    seed: u64,
    small: bool,
    fault: bool,
    scratch: &Path,
) -> Result<Box<dyn Workload>, String> {
    let scale = |n: usize| if small { n.div_ceil(10) } else { n };
    Ok(match name {
        "lu_plan" => Box::new(LuPlan::new(seed, small, fault)),
        "symbolic_corpus" => Box::new(SymbolicCorpus::new(seed, scale(CORPUS_REQUESTS), fault)),
        "store_cold" => Box::new(StoreServe::new(
            seed,
            scale(STORE_REQUESTS),
            false,
            fault,
            scratch,
        )?),
        "store_warm" => Box::new(StoreServe::new(
            seed,
            scale(STORE_REQUESTS),
            true,
            fault,
            scratch,
        )?),
        "verify_values" => Box::new(VerifyValues::new(seed, small, fault)),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

// ---- spans around the layers' public functions -------------------------

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn parse(req: &Request) -> Result<Program, String> {
    trace::span("ir.parse", || dmc_ir::parse(&req.source)).map_err(err("parse"))
}

fn compile(req: &Request, program: Program) -> Result<Compiled, String> {
    let input = req.input(program);
    trace::span("core.compile", || dmc_core::compile(input, req.options)).map_err(err("compile"))
}

fn plan(compiled: &Compiled, req: &Request, values: bool) -> Result<Schedule, String> {
    trace::span("core.build_schedule", || {
        dmc_core::build_schedule(compiled, &req.params, values, LIMIT)
    })
    .map_err(err("build_schedule"))
}

fn simulate(
    compiled: &Compiled,
    req: &Request,
    schedule: &Schedule,
    values: bool,
) -> Result<SimResult, String> {
    let input = &compiled.input;
    let placement = if input.initial.is_empty() {
        InitialPlacement::Replicated
    } else {
        InitialPlacement::Owned(input.initial.clone())
    };
    let env = req.env(&input.program);
    trace::span("machine.simulate", || {
        dmc_machine::simulate(
            &input.program,
            &env,
            &input.grid,
            schedule,
            &MachineConfig::ipsc860(),
            &placement,
            values,
        )
    })
    .map_err(err("simulate"))
}

/// The exact integer-ns makespan of a schedule.
fn critpath(schedule: &Schedule) -> Result<u64, String> {
    trace::span("machine.critpath", || {
        dmc_machine::critpath::analyze(schedule, &MachineConfig::ipsc860())
    })
    .map(|a| a.makespan_ns)
    .map_err(err("critpath"))
}

fn interpret(program: &Program, req: &Request) -> Result<Memory, String> {
    let env = req.env(program);
    trace::span("ir.interp", || dmc_ir::interp::run(program, &env)).map_err(err("interp"))
}

fn sim_events(schedule: &Schedule) -> u64 {
    schedule.procs.iter().map(|p| p.len() as u64).sum()
}

fn served(schedule: &Schedule, makespan_ns: u64) -> Served {
    let mut s = Served {
        makespan_ns,
        messages: schedule.messages.len() as u64,
        ..Served::default()
    };
    for m in &schedule.messages {
        s.transmissions += m.receivers.len() as u64;
        s.words += m.words * m.receivers.len() as u64;
    }
    s
}

/// Every array of the simulated memory equals the interpreter's, to the
/// tolerance of `tests/more_kernels.rs::check`.
fn memories_agree(sim: &SimResult, seq: &Memory) -> Result<(), String> {
    let mem = sim
        .memory
        .as_ref()
        .ok_or("values-mode run returned no memory")?;
    for (name, want) in seq.iter() {
        let got = mem
            .array(name)
            .ok_or_else(|| format!("array {name} missing"))?;
        let (a, b) = (got.as_slice(), want.as_slice());
        if a.len() != b.len() {
            return Err(format!("array {name}: {} vs {} elements", a.len(), b.len()));
        }
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-12;
            if !same {
                return Err(format!("array {name} flat {k}: {x} vs {y}"));
            }
        }
    }
    Ok(())
}

/// The `--inject-fault` corruption of an interpreter result: one element
/// of the first array moves by one.
fn corrupt_memory(program: &Program, mem: &mut Memory) {
    let decl = &program.arrays[0];
    let origin = vec![0; decl.extents.len()];
    let array = mem
        .array_mut(&decl.name)
        .expect("declared array is allocated");
    let v = array.get(&origin).expect("origin is in bounds");
    array.set(&origin, v + 1.0);
}

/// What `lu_plan` and `verify_values` share: parse → compile →
/// build_schedule → simulate → critical path.
struct Planned {
    compiled: Compiled,
    sim: SimResult,
    plan: Served,
}

fn plan_and_simulate(
    req: &Request,
    counters: &mut Counters,
    values: bool,
) -> Result<Planned, String> {
    let program = parse(req)?;
    counters.source_bytes += req.source.len() as u64;
    let compiled = compile(req, program)?;
    counters.comm_sets += compiled.comm.len() as u64;
    let schedule = plan(&compiled, req, values)?;
    let sim = simulate(&compiled, req, &schedule, values)?;
    counters.sim_events += sim_events(&schedule);
    let plan = served(&schedule, critpath(&schedule)?);
    Ok(Planned {
        compiled,
        sim,
        plan,
    })
}

/// One values-mode run checked against the sequential interpreter — the
/// repo's oracle. Returns the plan it verified. `fault` corrupts the
/// interpreter's result first (`--inject-fault`).
fn verify_against_interpreter(
    req: &Request,
    counters: &mut Counters,
    fault: bool,
) -> Result<Served, String> {
    let run = plan_and_simulate(req, counters, true)?;
    let program = &run.compiled.input.program;
    let mut seq = interpret(program, req)?;
    if fault {
        corrupt_memory(program, &mut seq);
    }
    trace::span("bench.compare", || memories_agree(&run.sim, &seq))?;
    Ok(run.plan)
}

/// Probes shared by every workload: the LWT builder per (stmt, read), and
/// message enumeration and the multicast test per final communication set.
fn probe_compiled(
    compiled: &Compiled,
    req: &Request,
    counts: &mut ProbeCounts,
) -> Result<(), String> {
    let program = &compiled.input.program;
    for info in program.statements() {
        for read_no in 0..info.stmt.rhs.reads().len() {
            let lwt = trace::span("dataflow.build_lwt", || {
                dmc_dataflow::build_lwt(program, info.id, read_no)
            })
            .map_err(err("build_lwt"))?;
            counts.lwt_leaves += lwt.leaves.len() as u64;
        }
    }
    for cs in &compiled.comm {
        let messages = trace::span("commgen.aggregate_messages", || {
            dmc_commgen::aggregate_messages(cs, &req.params, Some(&compiled.input.grid), LIMIT)
        })
        .map_err(err("aggregate_messages"))?
        .ok_or("aggregate_messages: over the enumeration limit")?;
        counts.items_enumerated += messages.iter().map(|m| m.items.len() as u64).sum::<u64>();
        trace::span("commgen.is_multicast", || dmc_commgen::is_multicast(cs))
            .map_err(err("is_multicast"))?;
    }
    Ok(())
}

/// Compiles every request (untraced) and probes it.
fn probe_requests(requests: &[Request]) -> Result<ProbeCounts, String> {
    let mut counts = ProbeCounts::default();
    for req in requests {
        let program = dmc_ir::parse(&req.source).map_err(err("parse"))?;
        let compiled =
            dmc_core::compile(req.input(program), req.options).map_err(err("compile"))?;
        probe_compiled(&compiled, req, &mut counts)?;
    }
    Ok(counts)
}

// ---- lu_plan -------------------------------------------------------------

/// compile + build_schedule + simulate + critical path, timing mode, on
/// the paper's evaluation kernel.
struct LuPlan {
    requests: Vec<Request>,
    setup: (u64, u64),
}

impl LuPlan {
    fn new(seed: u64, small: bool, fault: bool) -> Self {
        let sizes: &[(i128, i128)] = if small { &LU_PLAN_SMALL } else { &LU_PLAN };
        let mut requests: Vec<Request> = sizes
            .iter()
            .map(|&(n, p)| corpus::lu_request(n, p))
            .collect();
        // LU has nothing else to draw: the seed orders the requests.
        Rng::new(seed).shuffle(&mut requests);
        // The plan the timed passes produce is only counted, never run on
        // values; prove the same compile correct once, at the smallest size.
        let (n, p) = sizes[0];
        let check =
            verify_against_interpreter(&corpus::lu_request(n, p), &mut Counters::default(), fault);
        if let Err(why) = &check {
            eprintln!("lu_plan set-up check failed: {why}");
        }
        LuPlan {
            requests,
            setup: (1, check.is_err() as u64),
        }
    }
}

impl Workload for LuPlan {
    fn requests(&self) -> &[Request] {
        &self.requests
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.setup
    }

    fn serve(&mut self, i: usize, counters: &mut Counters) -> Result<Served, String> {
        let req = &self.requests[i];
        let run = plan_and_simulate(req, counters, false)?;
        trace::span("bench.compare", || {
            let (stats, plan) = (&run.sim.stats, run.plan);
            let same = dmc_machine::critpath::ns_of(stats.time) == plan.makespan_ns
                && (stats.messages, stats.transmissions, stats.words)
                    == (plan.messages, plan.transmissions, plan.words);
            same.then_some(plan)
                .ok_or_else(|| format!("{}: simulator and plan disagree", req.label))
        })
    }
}

// ---- verify_values -------------------------------------------------------

/// Values-mode run + sequential interpreter + memory comparison: the
/// README's end-to-end path on compute-heavy, communication-light inputs.
struct VerifyValues {
    requests: Vec<Request>,
    fault: bool,
}

impl VerifyValues {
    fn new(seed: u64, small: bool, fault: bool) -> Self {
        let mut rng = Rng::new(seed);
        let mut requests = if small {
            vec![
                corpus::lu_request(24, 4),
                corpus::stencil_request(&mut rng, 64, 4, 16, 255),
            ]
        } else {
            vec![
                corpus::lu_request(112, 4),
                corpus::stencil_request(&mut rng, 512, 4, 128, 2047),
                corpus::stencil_request(&mut rng, 128, 16, 128, 2047),
            ]
        };
        rng.shuffle(&mut requests);
        VerifyValues { requests, fault }
    }
}

impl Workload for VerifyValues {
    fn requests(&self) -> &[Request] {
        &self.requests
    }

    fn serve(&mut self, i: usize, counters: &mut Counters) -> Result<Served, String> {
        verify_against_interpreter(&self.requests[i], counters, self.fault && i == 0)
    }
}

// ---- symbolic_corpus -----------------------------------------------------

/// Source text → SPMD text for many distinct small programs; no planning
/// in the timed path.
struct SymbolicCorpus {
    requests: Vec<Request>,
    /// Plans of the sampled shapes, verified against the interpreter in
    /// set-up, keyed by request position.
    sample: HashMap<usize, Served>,
    setup: (u64, u64),
    /// Text emitted the first time each request was served.
    first_text: Vec<Option<String>>,
    fault: bool,
}

impl SymbolicCorpus {
    fn new(seed: u64, n: usize, fault: bool) -> Self {
        let requests = corpus::requests(seed, n);
        let mut sample = HashMap::new();
        let mut setup = (0, 0);
        for (i, req) in requests.iter().enumerate() {
            if req.shape_index % SAMPLE_STRIDE != 0 {
                continue;
            }
            setup.0 += 1;
            match verify_against_interpreter(req, &mut Counters::default(), false) {
                Ok(plan) => {
                    sample.insert(i, plan);
                }
                Err(why) => {
                    eprintln!("symbolic_corpus set-up check failed: {}: {why}", req.label);
                    setup.1 += 1;
                }
            }
        }
        SymbolicCorpus {
            first_text: vec![None; requests.len()],
            requests,
            sample,
            setup,
            fault,
        }
    }
}

/// Full SPMD emission for one compiled program: local-memory boxes per
/// array, send/receive code per final communication set (aggregated when
/// the options aggregate), computation code per statement, rendered.
fn emit_spmd(compiled: &Compiled) -> Result<String, dmc_polyhedra::PolyError> {
    let input = &compiled.input;
    let stmts = input.program.statements();
    let uses: Vec<_> = stmts.iter().map(|s| (s, &input.comps[&s.id])).collect();
    let mut spmd = SpmdProgram::default();
    for decl in &input.program.arrays {
        if let Some(local) = dmc_codegen::bounding_box(&input.program, &decl.name, &uses)? {
            let dims: Vec<String> = local
                .dims
                .iter()
                .map(|(lo, hi)| format!("[{lo} .. {hi}]"))
                .collect();
            spmd.decls
                .push(format!("local {}{}", local.array, dims.join("")));
        }
    }
    for (id, cs) in compiled.comm.iter().enumerate() {
        let (send, recv) = if compiled.options.aggregate {
            (
                dmc_codegen::send_code_aggregated(cs, id)?,
                dmc_codegen::recv_code_aggregated(cs, id)?,
            )
        } else {
            (
                dmc_codegen::send_code(cs, id)?,
                dmc_codegen::recv_code(cs, id)?,
            )
        };
        let section = if cs.write_stmt.is_none() {
            &mut spmd.prologue
        } else {
            &mut spmd.body
        };
        section.extend(send);
        section.extend(recv);
    }
    for (info, comp) in &uses {
        spmd.body
            .extend(dmc_codegen::computation_code(&input.program, info, comp)?);
    }
    Ok(spmd.render())
}

impl Workload for SymbolicCorpus {
    fn requests(&self) -> &[Request] {
        &self.requests
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.setup
    }

    fn serve(&mut self, i: usize, counters: &mut Counters) -> Result<Served, String> {
        let req = &self.requests[i];
        let program = parse(req)?;
        counters.source_bytes += req.source.len() as u64;
        let compiled = compile(req, program)?;
        counters.comm_sets += compiled.comm.len() as u64;
        let text = trace::span("codegen.emit", || emit_spmd(&compiled)).map_err(err("emit"))?;
        counters.spmd_lines += text.lines().count() as u64;
        counters.spmd_bytes += text.len() as u64;
        let first = &mut self.first_text[i];
        let fault = self.fault && i == 0;
        trace::span("bench.compare", || match first {
            _ if text.is_empty() => Err(format!("{}: empty SPMD text", req.label)),
            None => {
                *first = Some(if fault {
                    format!("{text}/* fault */")
                } else {
                    text
                });
                Ok(())
            }
            Some(before) if *before == text => Ok(()),
            Some(_) => Err(format!(
                "{}: SPMD text differs from the first pass",
                req.label
            )),
        })?;
        Ok(self.sample.get(&i).copied().unwrap_or_default())
    }
}

// ---- store_cold / store_warm ----------------------------------------------

/// The corpus through `Session::serve` with a `DiskStore` attached: over an
/// empty directory every pass (`store_cold`), or through a fresh session
/// and freshly opened store over a directory populated once in set-up
/// (`store_warm`).
struct StoreServe {
    requests: Vec<Request>,
    /// Schedule and plan per request from a store-less compile +
    /// build_schedule — never from the path being timed.
    reference: Vec<(Schedule, Served)>,
    scratch: PathBuf,
    /// The store directory of this pass (`store_cold`) or set-up
    /// (`store_warm`).
    dir: PathBuf,
    warm: bool,
    session: Option<Session>,
}

/// Asks the file system to put each new subdirectory of `scratch`, with
/// the files created under it, in a block group of its own (`chattr +T`).
///
/// On the reference host the checkout is on an ext4 without a journal, and
/// there `ext4_new_inode` will not reuse an inode deleted in the last 60 s:
/// every file creation first steps over all such inodes in its directory's
/// block group, at 57 ns each. Every `load` and `store` replaces
/// `index.tsv`, which deletes one inode, so with every store directory in
/// the benchmark's one block group the store's time depended on what had
/// been deleted there in the last minute, by whomever: after some idle
/// minutes the first three `store_warm` runs took 0.41 s, 0.52 s and 0.55 s
/// a pass against 0.28 s for the nine after them, and `store_cold` moved
/// between 0.8 s and 1.4 s. With the flag ext4 takes one of its emptiest
/// block groups for a new subdirectory, searching from the hash of its
/// name, so a store directory with a new name ([`fresh_store_dir`]) starts
/// with no recently deleted inodes below it, whatever ran before:
/// alternating the two layouts, ten runs of `store_cold` spread 3.5 % with
/// the flag and 15 % without, `store_warm` 2.2 % and 4.4 %. Where `chattr`
/// is missing or the file system has no such flag, nothing changes but the
/// steadiness.
fn spread_subdirectories(scratch: &Path) {
    let spread = std::process::Command::new("chattr")
        .arg("+T")
        .arg(scratch)
        .stderr(std::process::Stdio::null())
        .status();
    if !spread.is_ok_and(|status| status.success()) {
        eprintln!("dmc-benchmark: no `chattr +T` on {scratch:?}; store passes will be noisier");
    }
}

/// A store directory that no earlier pass or set-up of this process, and
/// no other process, has used.
fn fresh_store_dir(scratch: &Path, warm: bool) -> PathBuf {
    static MADE: AtomicU32 = AtomicU32::new(0);
    scratch.join(format!(
        "store-{}-{}-{}",
        if warm { "warm" } else { "cold" },
        std::process::id(),
        MADE.fetch_add(1, Ordering::Relaxed)
    ))
}

impl StoreServe {
    fn new(seed: u64, n: usize, warm: bool, fault: bool, scratch: &Path) -> Result<Self, String> {
        let requests = corpus::requests(seed, n);
        let mut reference = Vec::with_capacity(n);
        for req in &requests {
            let compiled = compile(req, parse(req)?)?;
            let schedule = plan(&compiled, req, false)?;
            let plan = served(&schedule, critpath(&schedule)?);
            reference.push((schedule, plan));
        }
        if fault {
            reference[0].0.procs.push(Vec::new());
        }
        spread_subdirectories(scratch);
        let mut w = StoreServe {
            requests,
            reference,
            scratch: scratch.to_owned(),
            dir: fresh_store_dir(scratch, warm),
            warm,
            session: None,
        };
        if warm {
            w.begin_pass()?;
            for i in 0..w.requests.len() {
                w.request(i)?;
            }
            w.session = None;
            if fault {
                w.flip_artifact_byte()?;
            }
        }
        Ok(w)
    }

    fn remove_dir(&self) {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).expect("remove the benchmark's store directory");
        }
    }

    /// Parses and serves request `i` through the session.
    fn request(&mut self, i: usize) -> Result<dmc_core::ServeOutcome, String> {
        let req = &self.requests[i];
        let session = self.session.as_mut().ok_or("serve outside a pass")?;
        trace::span("core.session_serve", || {
            let program = session.parse(&req.source).map_err(err("parse"))?;
            session
                .serve(
                    &req.label,
                    req.input(program),
                    req.options,
                    &req.params,
                    LIMIT,
                )
                .map_err(err("serve"))
        })
    }

    /// `--inject-fault`: flips one byte in the middle of one artifact file.
    fn flip_artifact_byte(&self) -> Result<(), String> {
        let store = DiskStore::open(&self.dir, None).map_err(err("open store"))?;
        let mut keys = store.keys();
        keys.sort();
        let (stage, key) = *keys.first().ok_or("populated store is empty")?;
        let path = store.path_of(stage, key);
        let mut bytes = std::fs::read(&path).map_err(err("read artifact"))?;
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0xFF;
        std::fs::write(&path, bytes).map_err(err("write artifact"))
    }
}

impl Drop for StoreServe {
    fn drop(&mut self) {
        self.session = None;
        if self.dir.exists() {
            // Drop must not panic; a leftover directory is only litter.
            let _ = std::fs::remove_dir_all(&self.dir);
        }
        // Leave nothing behind for the next set-up or the next run to pay.
        settle();
    }
}

/// Flushes dirty pages (`sync`) so a pass does not compete with the
/// kernel writing back what earlier passes left behind. Untimed; a missing
/// `sync` only costs steadiness.
fn settle() {
    if let Err(why) = std::process::Command::new("sync").status() {
        eprintln!("dmc-benchmark: cannot run `sync` ({why}); store passes will be noisier");
    }
}

impl Workload for StoreServe {
    fn requests(&self) -> &[Request] {
        &self.requests
    }

    fn reset(&mut self) {
        if !self.warm {
            self.remove_dir();
            self.dir = fresh_store_dir(&self.scratch, false);
        }
        settle();
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        let store = trace::span("store.open", || DiskStore::open(&self.dir, None))
            .map_err(err("open store"))?;
        let mut session = Session::new();
        session.attach_store(Box::new(TimedStore::new(store)));
        self.session = Some(session);
        Ok(())
    }

    fn serve(&mut self, i: usize, counters: &mut Counters) -> Result<Served, String> {
        let before = self.session_counts();
        let outcome = self.request(i)?;
        counters.source_bytes += self.requests[i].source.len() as u64;
        counters.comm_sets += outcome.compiled.comm.len() as u64;
        let after = self.session_counts();
        let (schedule, plan) = &self.reference[i];
        let label = &self.requests[i].label;
        let warm = self.warm;
        trace::span("bench.compare", || {
            if outcome.schedule != *schedule {
                return Err(format!(
                    "{label}: served schedule differs from the store-less one"
                ));
            }
            if warm && after.0 > before.0 {
                return Err(format!(
                    "{label}: {} stage misses on a warm store",
                    after.0 - before.0
                ));
            }
            if warm && after.1 > before.1 {
                return Err(format!("{label}: store reported a corrupt artifact"));
            }
            Ok(*plan)
        })
    }

    fn end_pass(&mut self, counters: &mut Counters) {
        if let Some(session) = self.session.take() {
            let stats = session.stats();
            counters.stage_hits = stats.stage_hits;
            counters.stage_disk_hits = stats.stage_disk_hits;
            counters.stage_misses = stats.stage_misses;
            if let Some(store) = session.store_stats() {
                counters.store_entries = store.entries;
                counters.store_corrupt = store.corrupt;
            }
        }
    }

    fn probe(&mut self) -> Result<ProbeCounts, String> {
        let mut counts = probe_requests(&self.requests)?;
        // Codec cost on exactly the artifacts that crossed the store
        // boundary in the traced pass.
        for (stage, artifact) in timed_store::take_seen() {
            let bytes = trace::span("core.encode", || artifact.encode_payload(stage));
            counts.artifact_bytes += bytes.len() as u64;
            trace::span("core.decode", || Artifact::decode_payload(stage, &bytes))
                .map_err(err("decode_payload"))?;
        }
        Ok(counts)
    }

    fn recompute_pass_s(&mut self) -> Option<Result<f64, String>> {
        if !self.warm {
            return None;
        }
        let t0 = Instant::now();
        self.session = Some(Session::new());
        let result = (0..self.requests.len()).try_for_each(|i| self.request(i).map(drop));
        self.session = None;
        Some(result.map(|()| t0.elapsed().as_secs_f64()))
    }
}

impl StoreServe {
    /// `(stage misses, corrupt loads)` so far in this pass.
    fn session_counts(&self) -> (u64, u64) {
        let session = self.session.as_ref().expect("inside a pass");
        (
            session.stats().stage_misses,
            session.store_stats().map_or(0, |s| s.corrupt),
        )
    }
}
