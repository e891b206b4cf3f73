//! Compilation sessions: the pipeline as a DAG of fingerprinted,
//! reusable stages.
//!
//! A [`Session`] owns a content-addressed artifact store and compiles
//! through a stage graph
//!
//! ```text
//! parse → per-read { lwt → opt } → schedule
//! ```
//!
//! Every stage is keyed by a [`Fingerprint`] of exactly the inputs its
//! answer depends on: the relevant IR subtree, the decompositions it
//! reads, and the [`Options`] knobs that can change its output. A key is
//! FNV-1a/128 over the bytes one codec encoder wrote — a key-kind byte,
//! then those inputs in the same encoding the store persists artifacts
//! in — so the system is its own key here too, and a key follows the
//! IR's encoding. Compiling the same input twice in one session re-runs
//! nothing; compiling a *related* input (a different processor count, an
//! edited read) re-runs only the stages whose keys changed.
//!
//! A stage is an artifact some later request *loads*. The pipeline has
//! more phases than that — the per-statement contexts, each read's raw
//! communication sets (the `commsets` span) and the raw message
//! enumeration (the `aggregate` span) — and those are recomputed where
//! they are needed: storing them cost more than re-deriving them, and a
//! warm start never read them back (EXPERIMENTS.md P18).
//!
//! [`compile`](crate::compile) is a thin wrapper that opens a throwaway
//! session, so the classic API is byte-for-byte the session path with an
//! empty store.
//!
//! ## The Options→fingerprint relevance map
//!
//! Not every knob invalidates every stage — the map below is what keeps
//! sweeps cheap. A knob is included in a stage's fingerprint iff it can
//! change that stage's *answer*:
//!
//! | stage    | program inputs                                    | options                                                    |
//! |----------|---------------------------------------------------|------------------------------------------------------------|
//! | parse    | source text                                       | —                                                          |
//! | lwt      | program *skeleton* + the one read                 | strategy, budget                                           |
//! | opt      | lwt key + comps + array's home + per-pass decls   | strategy, budget, self_reuse, already_local, unique_sender |
//! | schedule | whole input + grid + params + limit + values flag | every knob (the above, aggregate, multicast)               |
//!
//! The budget is no knob: it is the engine's constant
//! [`FEASIBILITY_BUDGET`], which every analysis key carries because
//! exhausting it yields a conservative `Unknown` that can change analysis
//! results (a build with another constant misses rather than serving
//! them). Every field of [`Options`] is in at least one stage key: none
//! only changes time.
//! `tests/session.rs::option_relevance_is_reflected_in_stage_keys` holds
//! each field to exactly its rows here.
//!
//! The **skeleton** ([`dmc_ir::fp::skeleton`], encoded once per compile)
//! covers parameters, array declarations, loop structure, and every
//! statement's *written* access but no right-hand side — Last Write Trees
//! cannot see other reads, so editing one read leaves every other read's
//! chain untouched. The `opt` key chains on the read's `lwt` key. The grid
//! enters only at the `opt` stage (receiver folding) and later: a
//! processor-count sweep builds no Last Write Tree twice.
//!
//! ## One job per read
//!
//! A (statement, read) job is: the `lwt`, cached or built; stop if `opt`
//! is cached; derive the communication sets from the tree; optimise them.
//! The two strategies differ only in how the tree is built and how sets
//! come out of it.
//!
//! ## Determinism
//!
//! A compile runs on the calling thread from start to finish: every
//! job's two stages are looked up first, the misses then run in textual
//! order, and their artifacts are admitted in that order afterwards, so
//! hit counts and store traffic are deterministic and the store needs no
//! locks. Hits and misses are counted in [`SessionStats`] alone, never
//! traced: what a stage lookup found depends on session history, and a
//! trace of the same compile must not. Ledger attribution is the same
//! for every session, the wrapper's included: the same work lands under
//! the same context paths.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dmc_commgen::{comm_from_initial, comm_from_leaf, CommSet};
use dmc_dataflow::{build_lwt, LastWriteTree};
use dmc_decomp::DataDecomp;
use dmc_ir::fp::{skeleton, Fingerprint};
use dmc_ir::{ArrayRef, ParseError, Program, StmtInfo};
use dmc_machine::{MachineConfig, Schedule, SimResult};
use dmc_obs as obs;
use dmc_polyhedra::codec::{Codec, Enc};
use dmc_polyhedra::ledger;
use dmc_polyhedra::stats::FEASIBILITY_BUDGET;

use crate::options::{Options, Strategy};
use crate::passes::{optimize_sets, strategy_tag, OPT_PASSES};
use crate::pipeline::{whole_domain_tree, CompileError, CompileInput, Compiled};
use crate::store::{Artifact, ArtifactStore, StageId, StoreSource, StoreStats};

/// Stage names as they appear in [`SessionStats`].
pub mod stage {
    /// Source text → [`dmc_ir::Program`].
    pub const PARSE: &str = "parse";
    /// One read's Last Write Tree (§3.1).
    pub const LWT: &str = "lwt";
    /// One read's communication sets (Theorems 3/4) after the §6 passes.
    pub const OPT: &str = "opt";
    /// The legality-refined machine schedule (the SPMD program).
    pub const SCHEDULE: &str = "schedule";
}

/// Hit/miss counts for one stage kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCount {
    /// Artifact served from the session store (memory or disk).
    pub hits: u64,
    /// Of those hits, how many were served by the persistent backend
    /// (always ≤ `hits`; zero for memory-only sessions).
    pub disk_hits: u64,
    /// Artifact recomputed.
    pub misses: u64,
}

/// Cumulative cache statistics for a session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total stage lookups served from the store.
    pub stage_hits: u64,
    /// Of those, lookups served by the persistent backend (disk layer).
    pub stage_disk_hits: u64,
    /// Total stage lookups that had to recompute.
    pub stage_misses: u64,
    /// Per-stage breakdown, keyed by the [`stage`] names.
    pub per_stage: BTreeMap<&'static str, StageCount>,
}

impl SessionStats {
    fn hit(&mut self, stage: &'static str, src: StoreSource) {
        self.stage_hits += 1;
        let count = self.per_stage.entry(stage).or_default();
        count.hits += 1;
        if src == StoreSource::Disk {
            self.stage_disk_hits += 1;
            count.disk_hits += 1;
        }
    }

    fn miss(&mut self, stage: &'static str) {
        self.stage_misses += 1;
        self.per_stage.entry(stage).or_default().misses += 1;
    }
}

/// A compilation session: a typed, content-addressed artifact store plus
/// the stage-graph driver. See the [module docs](self) for the stage
/// DAG and fingerprint policy.
///
/// Artifacts live in a plain in-memory map (kept for the session's
/// lifetime, no eviction, [`Arc`]-shared loads); attaching a persistent
/// [`ArtifactStore`] backend with [`Session::attach_store`] layers it
/// *under* memory — lookups try memory first, disk hits are promoted into
/// memory, and every new artifact is written through to both layers. All
/// store access happens on the calling thread, so a `Session` is cheap
/// and lock-free. For one-shot use, [`crate::compile`] opens a fresh session
/// internally.
#[derive(Debug, Default)]
pub struct Session {
    mem: HashMap<(StageId, Fingerprint), Artifact>,
    disk: Option<Box<dyn ArtifactStore>>,
    stats: SessionStats,
}

impl Session {
    /// Opens an empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// Cumulative stage cache statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Attaches a persistent backend under the in-memory layer. Lookups
    /// try memory first; a disk hit is decoded once and promoted into
    /// memory, and every artifact this session computes is written
    /// through to the backend, so a later process warm-starts from it.
    pub fn attach_store(&mut self, store: Box<dyn ArtifactStore>) {
        self.disk = Some(store);
    }

    /// The attached persistent backend's counters, if one is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Layered, counted lookup: memory, then the attached backend (a disk
    /// hit is promoted into memory). Every call is one hit or one miss of
    /// `stage` in [`SessionStats`].
    fn lookup(&mut self, stage: StageId, key: Fingerprint) -> Option<Artifact> {
        let found = match self.mem.get(&(stage, key)) {
            Some(a) => Some((a.clone(), StoreSource::Memory)),
            None => self
                .disk
                .as_mut()
                .and_then(|disk| disk.load(stage, key))
                .map(|a| {
                    self.mem.insert((stage, key), a.clone());
                    (a, StoreSource::Disk)
                }),
        };
        match found {
            Some((a, src)) => {
                self.stats.hit(stage.name(), src);
                Some(a)
            }
            None => {
                self.stats.miss(stage.name());
                None
            }
        }
    }

    /// Write-through admission: the artifact lands in memory and, when a
    /// backend is attached, on disk.
    fn admit(&mut self, stage: StageId, key: Fingerprint, artifact: Artifact) {
        if let Some(disk) = &mut self.disk {
            disk.store(stage, key, &artifact);
        }
        self.mem.insert((stage, key), artifact);
    }

    /// Serves one compile request end-to-end: compiles `input` through
    /// the stage graph, builds the schedule for `param_vals` (without
    /// payload values), and returns both.
    /// `workload` names the request in its `serve` span. What the request
    /// cost is read around the call: its stage hits and misses from
    /// [`Session::stats`], its charged work from the calling thread's
    /// [`PolyStats::work_units`](dmc_polyhedra::PolyStats::work_units)
    /// delta.
    ///
    /// # Errors
    ///
    /// As [`Session::compile`] and [`Session::build_schedule`].
    pub fn serve(
        &mut self,
        workload: &str,
        input: CompileInput,
        options: Options,
        param_vals: &[i128],
        limit: usize,
    ) -> Result<ServeOutcome, CompileError> {
        let _lane = obs::lane(obs::main_lane(), "pipeline");
        let _span = obs::span_f("serve", || vec![obs::field("workload", workload)]);
        let compiled = self.compile(input, options)?;
        let schedule = self.build_schedule(&compiled, param_vals, false, limit)?;
        Ok(ServeOutcome { compiled, schedule })
    }

    /// The `parse` stage: source text → [`Program`], keyed by the text.
    ///
    /// # Errors
    ///
    /// Returns the parser's error on malformed source (errors are not
    /// cached).
    pub fn parse(&mut self, source: &str) -> Result<Program, ParseError> {
        let key = key(PARSE_KEY, |e| e.str(source));
        if let Some(Artifact::Program(p)) = self.lookup(StageId::Parse, key) {
            return Ok((*p).clone());
        }
        let p = dmc_ir::parse(source)?;
        self.admit(StageId::Parse, key, Artifact::Program(Arc::new(p.clone())));
        Ok(p)
    }

    /// Compiles through the stage graph, reusing every stage whose
    /// fingerprint matches a prior compilation in this session. Outputs
    /// are identical to [`crate::compile`] for any store state.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on any analysis failure (the first in
    /// textual order, as always).
    pub fn compile(
        &mut self,
        input: CompileInput,
        options: Options,
    ) -> Result<Compiled, CompileError> {
        // Lane first so every record of this compile lands in the main
        // pipeline lane.
        let _lane = obs::lane(obs::main_lane(), "pipeline");
        let _span = obs::span_f("compile", || {
            vec![obs::field("strategy", format!("{:?}", options.strategy))]
        });

        let stmts = input.program.statements();
        for s in &stmts {
            let Some(comp) = input.comps.get(&s.id) else {
                return Err(CompileError::MissingComp(s.id));
            };
            // A decomposition maps the statement's own iterations: it may
            // name only the loops that enclose it and the program's
            // parameters, the dimensions of every space it constrains.
            let loops = s.loop_vars();
            let params = &input.program.params;
            let mut vars = comp.maps.iter().flat_map(|m| m.expr.vars());
            if let Some(var) = vars.find(|v| !loops.contains(v) && !params.iter().any(|p| p == v)) {
                return Err(CompileError::CompVar {
                    stmt: s.id,
                    var: var.to_owned(),
                });
            }
        }
        // Every virtual processor is folded onto the grid dimension by
        // dimension: check the ranks once, here, not per element.
        let grid = input.grid.ndim();
        let comp = stmts
            .iter()
            .map(|s| (s.id, input.comps[&s.id].proc_ndim()))
            .find(|&(_, rank)| rank != grid)
            .map(|(id, rank)| (format!("statement {id}"), rank));
        let home = || {
            let off = input.initial.iter().filter(|(_, d)| d.proc_ndim() != grid);
            off.min_by_key(|(array, _)| *array)
                .map(|(array, d)| (format!("array {array}"), d.proc_ndim()))
        };
        if let Some((of, rank)) = comp.or_else(home) {
            return Err(CompileError::GridRank { grid, of, rank });
        }

        // Look up both stages of every (statement, read) job before
        // running any job: the lookups of one compile never see its own
        // admits.
        let keys = ReadKeys::new(&input, &options);
        let mut plans: Vec<JobPlan> = Vec::new();
        for (si, s) in stmts.iter().enumerate() {
            for (r, read) in s.stmt.rhs.reads().into_iter().enumerate() {
                let lwt_key = keys.lwt(si, r, read);
                let opt_key = keys.opt(lwt_key, input.initial.get(&read.array));
                let lwt = match self.lookup(StageId::Lwt, lwt_key) {
                    Some(Artifact::Lwt(a)) => Some(a),
                    _ => None,
                };
                let opt = match self.lookup(StageId::Opt, opt_key) {
                    Some(Artifact::CommSets(a)) => Some(a),
                    _ => None,
                };
                plans.push(JobPlan {
                    si,
                    r,
                    lwt_key,
                    opt_key,
                    lwt,
                    opt,
                });
            }
        }

        // Run the jobs in textual order on this thread, whose memo caches
        // every later job (and every later compile) then shares.
        let outs: Vec<Result<JobOut, CompileError>> = plans
            .iter()
            .map(|p| run_read_job(&input, options, &stmts, p))
            .collect();

        // Merge in textual order and admit the new artifacts. What a
        // lookup served is already resident in every layer.
        let mut lwts = Vec::new();
        let mut comm: Vec<CommSet> = Vec::new();
        for (plan, out) in plans.into_iter().zip(outs) {
            let out = out?;
            let lwt = match out.lwt {
                Some(l) => {
                    let a = Arc::new(l);
                    self.admit(StageId::Lwt, plan.lwt_key, Artifact::Lwt(a.clone()));
                    a
                }
                None => plan.lwt.expect("lwt cached or built"),
            };
            let opt = match out.opt {
                Some(v) => {
                    let a = Arc::new(v);
                    self.admit(StageId::Opt, plan.opt_key, Artifact::CommSets(a.clone()));
                    a
                }
                None => plan.opt.expect("opt cached or computed"),
            };
            lwts.push(lwt);
            comm.extend(opt.iter().cloned());
        }
        Ok(Compiled {
            input,
            options,
            lwts,
            comm,
        })
    }

    /// Session-aware [`crate::build_schedule`]: reuses the `schedule`
    /// stage across calls, and returns the plan the stage cache holds
    /// rather than a copy of it.
    ///
    /// # Errors
    ///
    /// As [`crate::build_schedule`].
    pub fn build_schedule(
        &mut self,
        compiled: &Compiled,
        param_vals: &[i128],
        values: bool,
        limit: usize,
    ) -> Result<Arc<Schedule>, CompileError> {
        crate::pipeline::build_schedule_inner(compiled, param_vals, values, limit, Some(self))
    }

    /// Session-aware [`crate::run`]: plans through the session's stage
    /// store, then simulates.
    ///
    /// # Errors
    ///
    /// As [`crate::run`].
    pub fn run(
        &mut self,
        compiled: &Compiled,
        param_vals: &[i128],
        config: &MachineConfig,
        values: bool,
        limit: usize,
    ) -> Result<SimResult, CompileError> {
        let schedule = self.build_schedule(compiled, param_vals, values, limit)?;
        crate::simulate(compiled, param_vals, config, values, &schedule)
    }

    /// Looks up the `schedule` stage, counting a hit or miss.
    pub(crate) fn schedule_stage(&mut self, key: Fingerprint) -> Option<Arc<Schedule>> {
        match self.lookup(StageId::Schedule, key)? {
            Artifact::Schedule(a) => Some(a),
            _ => None,
        }
    }

    pub(crate) fn admit_schedule(&mut self, key: Fingerprint, value: Arc<Schedule>) {
        self.admit(StageId::Schedule, key, Artifact::Schedule(value));
    }
}

/// What [`Session::serve`] produced for one request.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The compiled program (stage-graph artifacts shared with the
    /// session store).
    pub compiled: Compiled,
    /// The legality-refined schedule for the request's parameters
    /// (built without payload values), shared with the session's stage
    /// cache. Its traffic is [`Schedule::message_stats`].
    pub schedule: Arc<Schedule>,
}

/// One (statement, read) job: its two stage keys and what the store
/// already holds for them. `opt` without `lwt` arises only with an
/// evicting disk backend: the job rebuilds the tree and stops there.
struct JobPlan {
    si: usize,
    r: usize,
    lwt_key: Fingerprint,
    opt_key: Fingerprint,
    lwt: Option<Arc<LastWriteTree>>,
    opt: Option<Arc<Vec<CommSet>>>,
}

/// What a job computed: each stage is `Some` exactly when the plan did
/// not already hold it.
#[derive(Default)]
struct JobOut {
    lwt: Option<LastWriteTree>,
    opt: Option<Vec<CommSet>>,
}

/// Runs one (statement, read) job: the Last Write Tree, cached or built;
/// stop if `opt` is cached; derive the communication sets from the tree;
/// optimise them. Emits the same lane / span / ledger structure as the
/// classic pipeline for every phase it actually runs — none at all when
/// both stages were served.
fn run_read_job(
    input: &CompileInput,
    options: Options,
    stmts: &[StmtInfo],
    plan: &JobPlan,
) -> Result<JobOut, CompileError> {
    if plan.lwt.is_some() && plan.opt.is_some() {
        return Ok(JobOut::default());
    }
    let (si, r) = (plan.si, plan.r);
    let s = &stmts[si];
    let reads = s.stmt.rhs.reads();
    let read = reads[r];
    // Keyed by textual order: each job's records stay contiguous in its
    // own lane.
    let _lane = obs::lane(obs::read_lane(si, r), format!("read S{}#{r}", s.id));
    // Work-ledger attribution mirrors the lane key: every polyhedral
    // operation this job performs is charged to stmt<i> → read<j> → pass.
    let _lctx_stmt = ledger::push_context(format!("stmt{si}"));
    let _lctx_read = ledger::push_context(format!("read{r}"));
    let _span = obs::span_f("read", || {
        vec![
            obs::field("stmt", s.id),
            obs::field("read", r),
            obs::field("array", read.array.as_str()),
            obs::field("access", format!("{read}")),
        ]
    });
    let new_lwt = match (&plan.lwt, options.strategy) {
        (Some(_), _) => None,
        (None, Strategy::ValueCentric) => {
            let lwt = {
                let _s = obs::span("lwt");
                let _c = ledger::push_context("lwt");
                build_lwt(&input.program, s.id, r)?
            };
            obs::event_f("lwt.done", || {
                vec![
                    obs::field("leaves", lwt.leaves.len()),
                    obs::field("approximate", lwt.approximate),
                ]
            });
            Some(lwt)
        }
        // Theorem 2: every read fetches from the owner under the static
        // data decomposition, with no value information — a whole-domain
        // ⊥ leaf.
        (None, Strategy::LocationCentric) => {
            Some(whole_domain_tree(&input.program, s, r, &read.array))
        }
    };
    // A cached opt output supersedes everything downstream of the tree.
    if plan.opt.is_some() {
        return Ok(JobOut {
            lwt: new_lwt,
            opt: None,
        });
    }
    let lwt: &LastWriteTree = plan
        .lwt
        .as_deref()
        .or(new_lwt.as_ref())
        .expect("lwt cached or built");

    let comp_r = &input.comps[&s.id];
    let home = input.initial.get(&read.array);
    let sets = match options.strategy {
        Strategy::ValueCentric => {
            let _s = obs::span("commsets");
            let _c = ledger::push_context("commsets");
            let mut sets: Vec<CommSet> = Vec::new();
            for leaf in &lwt.leaves {
                match (&leaf.source, home) {
                    (Some(src), _) => {
                        let winfo = &stmts[src.write_stmt];
                        let comp_w = &input.comps[&winfo.id];
                        sets.extend(comm_from_leaf(
                            &input.program,
                            lwt,
                            leaf,
                            s,
                            winfo,
                            comp_r,
                            comp_w,
                        )?);
                    }
                    // Live-in data: if the array has a declared home,
                    // Theorem 4 communication; otherwise it is replicated
                    // and local.
                    (None, Some(d)) => {
                        sets.extend(comm_from_initial(&input.program, lwt, leaf, s, comp_r, d)?);
                    }
                    (None, None) => {}
                }
            }
            sets
        }
        Strategy::LocationCentric => {
            let d = home.ok_or_else(|| CompileError::MissingInitial(read.array.clone()))?;
            let _s = obs::span("commsets");
            let _c = ledger::push_context("commsets");
            comm_from_initial(&input.program, lwt, &lwt.leaves[0], s, comp_r, d)?
        }
    };
    obs::event_f("commsets.done", || vec![obs::field("sets", sets.len())]);
    // §6.1 optimizations, per tree.
    let opt = optimize_sets(sets, input, options)?;
    Ok(JobOut {
        lwt: new_lwt,
        opt: Some(opt),
    })
}

// ---------------------------------------------------------------------------
// Stage keys. Each is FNV-1a/128 over the bytes one `Enc`
// wrote: a key-kind byte, then the key's inputs in their codec encodings.
// The codec is canonical and self-delimiting, so two keys are equal
// exactly when their kinds and inputs are. A change to what a stage means
// takes a fresh kind byte, so no store serves an artifact of the old
// meaning.

/// `parse` key kind.
const PARSE_KEY: u8 = 50;
/// `lwt` key kind.
const LWT_KEY: u8 = 52;
/// `opt` key kind.
const OPT_KEY: u8 = 54;
/// `schedule` key kind; it names the planner's legality rule (per chunk).
const SCHEDULE_KEY: u8 = 58;

/// The key of `kind` over what `inputs` writes.
fn key(kind: u8, inputs: impl FnOnce(&mut Enc)) -> Fingerprint {
    let mut e = Enc::new();
    e.u8(kind);
    inputs(&mut e);
    Fingerprint::of(e)
}

/// Writes the analysis-relevant inputs: the strategy and the engine's
/// feasibility budget. The budget is a constant, but an exhausted budget
/// yields conservative `Unknown` answers that can change results, so every
/// analysis key carries it: a build with another constant misses instead
/// of serving answers the old budget decided.
fn encode_analysis_options(options: &Options, e: &mut Enc) {
    e.u8(strategy_tag(options.strategy));
    e.u64(u64::from(FEASIBILITY_BUDGET));
}

/// Writes every answer-relevant option: the analysis ones, then the five
/// §6 flags.
fn encode_options(o: &Options, e: &mut Enc) {
    encode_analysis_options(o, e);
    for flag in [
        o.self_reuse,
        o.already_local,
        o.unique_sender,
        o.aggregate,
        o.multicast,
    ] {
        e.bool(flag);
    }
}

/// Writes every computation decomposition, keyed by statement id.
fn encode_comps(input: &CompileInput, e: &mut Enc) {
    e.usize(input.comps.len());
    for (id, comp) in &input.comps {
        e.usize(*id);
        comp.encode(e);
    }
}

/// Writes the initial data decompositions, sorted by array name.
pub(crate) fn encode_initial(input: &CompileInput, e: &mut Enc) {
    let mut entries: Vec<_> = input.initial.iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    e.usize(entries.len());
    for (name, d) in entries {
        e.str(name);
        d.encode(e);
    }
}

/// The per-read stage keys of one compile. What the keys of all reads
/// share is encoded once, here; each read's key appends its own inputs to
/// a copy.
struct ReadKeys {
    /// The `lwt` kind, the program *skeleton* (loop structure, writes,
    /// declarations — no right-hand sides) and the analysis options.
    lwt: Enc,
    /// The `opt` kind, every computation decomposition (writer statements
    /// contribute theirs), and each declared pass's name, enablement and
    /// self-declared inputs (grid extents enter here, via receiver
    /// folding).
    opt: Enc,
}

impl ReadKeys {
    fn new(input: &CompileInput, options: &Options) -> Self {
        let mut lwt = Enc::new();
        lwt.u8(LWT_KEY);
        skeleton(&input.program, &mut lwt);
        encode_analysis_options(options, &mut lwt);
        let mut opt = Enc::new();
        opt.u8(OPT_KEY);
        encode_comps(input, &mut opt);
        for pass in OPT_PASSES {
            opt.str(pass.name);
            let on = (pass.enabled)(options);
            opt.bool(on);
            if on {
                (pass.fingerprint)(input, options, &mut opt);
            }
        }
        ReadKeys { lwt, opt }
    }

    /// The `lwt` key of read `r` of statement `si`: adds the read's
    /// position and access. Grid-free and blind to other reads.
    fn lwt(&self, si: usize, r: usize, read: &ArrayRef) -> Fingerprint {
        let mut e = self.lwt.clone();
        e.usize(si);
        e.usize(r);
        read.encode(&mut e);
        Fingerprint::of(e)
    }

    /// The `opt` key of the read whose `lwt` key is `lwt`: adds that key
    /// and where the read array's live-in data resides (its identity is
    /// already pinned by the `lwt` key).
    fn opt(&self, lwt: Fingerprint, home: Option<&DataDecomp>) -> Fingerprint {
        let mut e = self.opt.clone();
        lwt.encode(&mut e);
        match home {
            Some(d) => {
                e.u8(1);
                d.encode(&mut e);
            }
            None => e.u8(0),
        }
        Fingerprint::of(e)
    }
}

/// The `schedule` stage key: everything the optimized communication sets
/// depend on (program, decompositions, grid, answer-relevant options),
/// the concrete parameters, the enumeration limit and the payload mode.
pub(crate) fn schedule_fp(
    compiled: &Compiled,
    param_vals: &[i128],
    values: bool,
    limit: usize,
) -> Fingerprint {
    let input = &compiled.input;
    key(SCHEDULE_KEY, |e| {
        input.program.encode(e);
        encode_comps(input, e);
        encode_initial(input, e);
        input.grid.encode(e);
        encode_options(&compiled.options, e);
        e.usize(param_vals.len());
        for &v in param_vals {
            e.i128(v);
        }
        e.usize(limit);
        e.bool(values);
    })
}
