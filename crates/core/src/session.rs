//! Compilation sessions: the pipeline as a DAG of fingerprinted,
//! reusable stages.
//!
//! A [`Session`] owns a content-addressed artifact store and compiles
//! through an explicit stage graph
//!
//! ```text
//! parse → stmt-info → per-read { lwt → commsets → opt } → aggregate → schedule
//! ```
//!
//! Every stage is keyed by a structural [`Fingerprint`] of exactly the
//! inputs its answer depends on: the relevant IR subtree, the
//! decompositions it reads, and the [`Options`] knobs that can change its
//! output. Compiling the same input twice in one session re-runs nothing;
//! compiling a *related* input (a different processor count, an edited
//! read) re-runs only the stages whose fingerprints changed.
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
//! | stage     | program inputs                         | options            |
//! |-----------|----------------------------------------|--------------------|
//! | parse     | source text                            | —                  |
//! | stmt-info | whole program                          | —                  |
//! | lwt       | program *skeleton* + the one read      | strategy, budget   |
//! | commsets  | lwt chain + comps + initial[array]     | strategy, budget   |
//! | opt       | commsets chain + per-pass declarations | §6 flags, budget   |
//! | aggregate | opt inputs + grid + params + limit     | §6 flags, budget   |
//! | schedule  | aggregate chain + values flag          | §6 flags, budget   |
//!
//! `feasibility_budget` appears everywhere because exhausting it yields a
//! conservative `Unknown` that can change analysis results. Every field
//! of [`Options`] is in at least one stage key: none only changes time.
//!
//! The **skeleton** hash ([`dmc_ir::fp::skeleton_fp`]) covers parameters,
//! array declarations, loop structure, and every statement's *written*
//! access but no right-hand side — Last Write Trees cannot see other
//! reads, so editing one read leaves every other read's chain untouched.
//! The grid enters only at the `opt` stage (receiver folding) and later:
//! a processor-count sweep reuses every lwt and commsets artifact.
//!
//! ## Determinism
//!
//! A compile runs on the calling thread from start to finish: every
//! job's stage chain is looked up first, the misses then run in textual
//! order, and their artifacts are admitted in that order afterwards, so
//! hit counts and store traffic are deterministic and the store needs no
//! locks. Cache events (`stage.hit` / `stage.miss`) are emitted
//! as non-deterministic diagnostics — their presence depends on session
//! history — so [`dmc_obs`]'s deterministic trace view, the parity
//! guarantees from the tracing/profiling PRs, and the byte-identical
//! wrapper outputs are all preserved. Ledger attribution gains a
//! `session` root frame only for explicitly-opened sessions, keeping the
//! wrapper's collapsed-stack profiles unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use dmc_commgen::{comm_from_initial, comm_from_leaf, CommSet, Message};
use dmc_dataflow::{build_lwt, LastWriteTree};
use dmc_ir::fp::{skeleton_fp, Fingerprint, Fingerprintable, Fp};
use dmc_ir::{ParseError, Program, StmtInfo};
use dmc_machine::{MachineConfig, Schedule, SimResult};
use dmc_obs as obs;
use dmc_polyhedra::ledger;

use crate::options::{Options, Strategy};
use crate::passes::{optimize_sets, strategy_tag, OPT_PASSES};
use crate::pipeline::{whole_domain_tree, CompileError, CompileInput, Compiled};
use crate::store::{Artifact, ArtifactStore, MemStore, StageId, StoreSource, StoreStats};

/// Stage names as they appear in [`SessionStats`] and `stage.*` events.
pub mod stage {
    /// Source text → [`dmc_ir::Program`].
    pub const PARSE: &str = "parse";
    /// Program → per-statement contexts ([`dmc_ir::StmtInfo`]).
    pub const STMT_INFO: &str = "stmt-info";
    /// One read's Last Write Tree (§3.1).
    pub const LWT: &str = "lwt";
    /// One read's communication sets (Theorems 3/4).
    pub const COMMSETS: &str = "commsets";
    /// One read's §6-optimized sets.
    pub const OPT: &str = "opt";
    /// Raw per-set message enumeration at the aggregation prefix (§6.2).
    pub const AGGREGATE: &str = "aggregate";
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
    fn hit(&mut self, stage: &'static str, key: Fingerprint, src: StoreSource) {
        self.stage_hits += 1;
        let count = self.per_stage.entry(stage).or_default();
        count.hits += 1;
        let event = match src {
            StoreSource::Memory => "stage.hit",
            StoreSource::Disk => {
                self.stage_disk_hits += 1;
                count.disk_hits += 1;
                "stage.disk_hit"
            }
        };
        if obs::enabled() {
            obs::event_nondet(
                event,
                vec![
                    obs::field("stage", stage),
                    obs::field("key", key.to_string()),
                ],
            );
        }
    }

    fn miss(&mut self, stage: &'static str, key: Fingerprint) {
        self.stage_misses += 1;
        self.per_stage.entry(stage).or_default().misses += 1;
        if obs::enabled() {
            obs::event_nondet(
                "stage.miss",
                vec![
                    obs::field("stage", stage),
                    obs::field("key", key.to_string()),
                ],
            );
        }
    }
}

/// A compilation session: a typed, content-addressed artifact store plus
/// the stage-graph driver. See the [module docs](self) for the stage
/// DAG and fingerprint policy.
///
/// Artifacts live behind the [`ArtifactStore`] abstraction. The default
/// backend is the in-memory [`MemStore`] (kept for the session's
/// lifetime, no eviction, [`Arc`]-shared loads); attaching a persistent
/// backend with [`Session::attach_store`] layers it *under* memory —
/// lookups try memory first, disk hits are promoted into memory, and
/// every new artifact is written through to both layers. All store
/// access happens on the calling thread, so a `Session` is cheap and
/// lock-free. For one-shot use, [`crate::compile`] opens a throwaway
/// session internally.
#[derive(Debug, Default)]
pub struct Session {
    mem: MemStore,
    disk: Option<Box<dyn ArtifactStore>>,
    stats: SessionStats,
    /// Explicitly-opened sessions push a `session` ledger root frame so
    /// profiles attribute work to the session; the [`crate::compile`]
    /// wrapper's throwaway session does not, keeping classic profiles
    /// byte-identical.
    explicit: bool,
    /// The session's own observability context ([`Session::scoped`]
    /// sessions only). `None` — the default for [`Session::new`] and the
    /// wrapper's throwaway sessions — records into the calling thread's
    /// current context, exactly the pre-context behavior.
    obs: Option<obs::ObsContext>,
    /// Ledger scope backing per-request work accounting; created (and
    /// left recording) when journaling is enabled.
    ledger_scope: Option<ledger::LedgerScope>,
    /// Whether [`Session::serve`] appends journal records.
    journaling: bool,
    /// One record per served request, in order.
    journal: Vec<obs::JournalRecord>,
    /// Health label (`ctx` metric label).
    label: String,
    /// Requests served.
    compiles: u64,
    /// Serve wall-latency distribution, microseconds.
    latency_us: obs::Log2Hist,
    /// Σ journaled work units.
    work_units_total: u64,
}

impl Session {
    /// Opens an empty session.
    pub fn new() -> Self {
        Session {
            explicit: true,
            label: "session".to_owned(),
            ..Session::default()
        }
    }

    /// Opens a session with its own [`obs::ObsContext`]: captures started
    /// on that context observe this session's compiles and nothing else,
    /// so any number of scoped sessions can compile concurrently, each on
    /// its own thread, with isolated traces. `label` names the session in
    /// health snapshots.
    pub fn scoped(label: impl Into<String>) -> Self {
        Session {
            explicit: true,
            obs: Some(obs::ObsContext::new()),
            label: label.into(),
            ..Session::default()
        }
    }

    /// The internal session behind the classic [`crate::compile`] /
    /// [`crate::build_schedule`] API: no `session` ledger frame, so the
    /// wrapper's observable behavior matches the pre-session pipeline
    /// exactly.
    pub(crate) fn throwaway() -> Self {
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

    /// Layered lookup: memory, then the attached backend (promoting its
    /// hit into memory). Returns the artifact and which layer served it.
    fn lookup(&mut self, stage: StageId, key: Fingerprint) -> Option<(Artifact, StoreSource)> {
        if let Some(a) = self.mem.load(stage, key) {
            return Some((a, StoreSource::Memory));
        }
        if let Some(disk) = &mut self.disk {
            if let Some(a) = disk.load(stage, key) {
                self.mem.store(stage, key, &a);
                return Some((a, StoreSource::Disk));
            }
        }
        None
    }

    /// Layered existence probe, without loading or promoting.
    fn probe(&mut self, stage: StageId, key: Fingerprint) -> Option<StoreSource> {
        if self.mem.contains(stage, key) {
            return Some(StoreSource::Memory);
        }
        match &mut self.disk {
            Some(disk) => disk.contains(stage, key).then_some(StoreSource::Disk),
            None => None,
        }
    }

    /// Write-through admission: the artifact lands in memory and, when a
    /// backend is attached, on disk.
    fn admit(&mut self, stage: StageId, key: Fingerprint, artifact: Artifact) {
        if let Some(disk) = &mut self.disk {
            disk.store(stage, key, &artifact);
        }
        self.mem.store(stage, key, &artifact);
    }

    fn lookup_lwt(&mut self, key: Fingerprint) -> Option<(Arc<LastWriteTree>, StoreSource)> {
        match self.lookup(StageId::Lwt, key)? {
            (Artifact::Lwt(a), src) => Some((a, src)),
            _ => None,
        }
    }

    /// Typed lookup for the two set-valued stages (`commsets` / `opt`).
    fn lookup_sets(
        &mut self,
        stage: StageId,
        key: Fingerprint,
    ) -> Option<(Arc<Vec<CommSet>>, StoreSource)> {
        match self.lookup(stage, key)? {
            (Artifact::CommSets(a), src) => Some((a, src)),
            _ => None,
        }
    }

    /// The session's own observability context, if it was opened with
    /// [`Session::scoped`].
    pub fn obs_context(&self) -> Option<&obs::ObsContext> {
        self.obs.as_ref()
    }

    /// The session's health label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Turns journaling on or off. While on, every [`Session::serve`]
    /// call appends one [`obs::JournalRecord`]; enabling also opens a
    /// dedicated [`ledger::LedgerScope`] and leaves it recording for the
    /// session's lifetime (one memo-epoch bump here, not one per
    /// request), so each record's `work_units` is the request's exact
    /// charged work.
    pub fn set_journal(&mut self, on: bool) {
        self.journaling = on;
        if on {
            let scope = self
                .ledger_scope
                .get_or_insert_with(ledger::LedgerScope::new);
            if !scope.is_recording() {
                scope.start();
            }
        }
    }

    /// The journal so far: one record per served request, in order.
    pub fn journal(&self) -> &[obs::JournalRecord] {
        &self.journal
    }

    /// The journal as JSONL text (the `dmc-journal` file format).
    pub fn journal_text(&self) -> String {
        obs::journal::render_journal(&self.journal)
    }

    /// This session's row for a health snapshot: requests served,
    /// stage-reuse counters, journaled work units, the serve-latency
    /// histogram, and — for scoped sessions — the recorder's
    /// self-overhead.
    pub fn health(&self) -> obs::ContextHealth {
        obs::ContextHealth {
            label: self.label.clone(),
            compiles: self.compiles,
            stage_hits: self.stats.stage_hits,
            stage_misses: self.stats.stage_misses,
            work_units: self.work_units_total,
            latency_us: self.latency_us.clone(),
            obs: self.obs.as_ref().map(|c| c.overhead()).unwrap_or_default(),
        }
    }

    /// Serves one compile request end-to-end: compiles `input` through
    /// the stage graph, builds the schedule for `param_vals` (without
    /// payload values), and returns it with its message statistics.
    /// With journaling on (see [`Session::set_journal`]), appends one
    /// deterministic [`obs::JournalRecord`] describing the request.
    ///
    /// # Errors
    ///
    /// As [`Session::compile`] and [`Session::build_schedule`]; failed
    /// requests append nothing.
    pub fn serve(
        &mut self,
        workload: &str,
        input: CompileInput,
        options: Options,
        param_vals: &[i128],
        limit: usize,
    ) -> Result<ServeOutcome, CompileError> {
        let t0 = std::time::Instant::now();
        let hits0 = self.stats.stage_hits;
        let misses0 = self.stats.stage_misses;
        if self.journaling {
            if let Some(scope) = &self.ledger_scope {
                // Discard residue so the drain below is exactly this
                // request's work.
                let _ = scope.drain();
            }
        }
        let compiled = self.compile(input, options)?;
        let schedule = self.build_schedule(&compiled, param_vals, false, limit)?;
        let (messages, transmissions, words) = crate::pipeline::schedule_message_stats(&schedule);
        let wall_us = t0.elapsed().as_micros() as u64;
        self.compiles += 1;
        self.latency_us.observe(wall_us);
        if self.journaling {
            let work_units = self
                .ledger_scope
                .as_ref()
                .map(|s| s.drain().charged_work())
                .unwrap_or(0);
            self.work_units_total += work_units;
            let input = &compiled.input;
            self.journal.push(obs::JournalRecord {
                seq: self.journal.len() as u64,
                workload: workload.to_owned(),
                nproc: input.grid.len() as u64,
                params: param_vals.iter().map(|&v| v as i64).collect(),
                program_fp: program_only_fp(&input.program).to_string(),
                decomp_fp: decomp_only_fp(input).to_string(),
                grid_fp: grid_only_fp(input).to_string(),
                options_fp: options_only_fp(&options).to_string(),
                stage_hits: self.stats.stage_hits - hits0,
                stage_misses: self.stats.stage_misses - misses0,
                work_units,
                messages,
                transmissions,
                words,
                schedule_fp: schedule_text_fp(&schedule).to_string(),
                wall_us,
            });
        }
        Ok(ServeOutcome {
            compiled,
            schedule,
            messages,
            transmissions,
            words,
        })
    }

    /// The `parse` stage: source text → [`Program`], keyed by the text.
    ///
    /// # Errors
    ///
    /// Returns the parser's error on malformed source (errors are not
    /// cached).
    pub fn parse(&mut self, source: &str) -> Result<Program, ParseError> {
        let mut h = Fp::new();
        h.tag(50);
        h.str(source);
        let key = h.finish();
        if let Some((Artifact::Program(p), src)) = self.lookup(StageId::Parse, key) {
            self.stats.hit(stage::PARSE, key, src);
            return Ok((*p).clone());
        }
        self.stats.miss(stage::PARSE, key);
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
        // Scoped sessions record into their own context and ledger
        // scope: install both before anything emits. Guards are RAII,
        // so the thread's previous context is restored on every exit.
        let _obs_guard = self.obs.as_ref().map(|c| c.install());
        let _ledger_guard = self
            .ledger_scope
            .as_ref()
            .filter(|s| s.is_recording())
            .map(|s| s.install());
        // Lane first so every record of this compile lands in the main
        // pipeline lane; the engine tuning is thread-local, so concurrent
        // sessions cannot race on it.
        let _lane = obs::lane(obs::main_lane(), "pipeline");
        let _tuning = options.push_tuning_scoped();
        let _span = obs::span_f("compile", || {
            vec![obs::field("strategy", format!("{:?}", options.strategy))]
        });

        // Stage: stmt-info (per-statement contexts for the whole program).
        let si_key = stmt_info_fp(&input.program);
        let stmts: Arc<Vec<StmtInfo>> = match self.lookup(StageId::StmtInfo, si_key) {
            Some((Artifact::StmtInfo(a), src)) => {
                self.stats.hit(stage::STMT_INFO, si_key, src);
                a
            }
            _ => {
                self.stats.miss(stage::STMT_INFO, si_key);
                let a = Arc::new(input.program.statements());
                self.admit(StageId::StmtInfo, si_key, Artifact::StmtInfo(a.clone()));
                a
            }
        };
        for s in stmts.iter() {
            if !input.comps.contains_key(&s.id) {
                return Err(CompileError::MissingComp(s.id));
            }
        }

        let jobs: Vec<(usize, usize)> = stmts
            .iter()
            .enumerate()
            .flat_map(|(si, s)| (0..s.stmt.rhs.reads().len()).map(move |r| (si, r)))
            .collect();

        // Resolve every job's stage chain before running any job: the
        // lookups of one compile never see its own admits.
        let mut slots: Vec<JobSlot> = Vec::with_capacity(jobs.len());
        for &(si, r) in &jobs {
            let array = stmts[si].stmt.rhs.reads()[r].array.clone();
            let lwt_key = lwt_fp(&input, &options, &stmts, si, r);
            let comm_key = commsets_fp(lwt_key, &input, &array);
            let opt_key = opt_fp(comm_key, &input, &options);
            let cached_opt = self.lookup_sets(StageId::Opt, opt_key);
            let cached_lwt = self.lookup_lwt(lwt_key);
            if let (Some((opt, opt_src)), Some((lwt, lwt_src))) = (&cached_opt, &cached_lwt) {
                // The whole chain is served: nothing to run. The memory
                // layer never evicts, so in a memory-only session a
                // cached opt artifact always lands here; with a bounded
                // disk backend the lwt may be gone, in which case the
                // job runs below with the cached opt short-circuiting
                // everything after the lwt rebuild.
                self.stats.hit(stage::LWT, lwt_key, *lwt_src);
                // The intermediate commsets artifact is not needed (the
                // opt output supersedes it); count it as a hit only if a
                // layer still holds it — never as a miss, since nothing
                // recomputes it.
                if let Some(src) = self.probe(StageId::CommSets, comm_key) {
                    self.stats.hit(stage::COMMSETS, comm_key, src);
                }
                self.stats.hit(stage::OPT, opt_key, *opt_src);
                slots.push(JobSlot::Cached {
                    lwt: lwt.clone(),
                    opt: opt.clone(),
                });
                continue;
            }
            // The commsets input is only needed when the opt output is
            // not already cached.
            let cached_comm = match cached_opt {
                Some(_) => None,
                None => self.lookup_sets(StageId::CommSets, comm_key),
            };
            match &cached_lwt {
                Some((_, src)) => self.stats.hit(stage::LWT, lwt_key, *src),
                None => self.stats.miss(stage::LWT, lwt_key),
            }
            match (&cached_opt, &cached_comm) {
                // Opt cached: commsets is neither served nor recomputed;
                // count a hit only if still resident (as above).
                (Some(_), _) => {
                    if let Some(src) = self.probe(StageId::CommSets, comm_key) {
                        self.stats.hit(stage::COMMSETS, comm_key, src);
                    }
                }
                (None, Some((_, src))) => self.stats.hit(stage::COMMSETS, comm_key, *src),
                (None, None) => self.stats.miss(stage::COMMSETS, comm_key),
            }
            match &cached_opt {
                Some((_, src)) => self.stats.hit(stage::OPT, opt_key, *src),
                None => self.stats.miss(stage::OPT, opt_key),
            }
            slots.push(JobSlot::Run(JobPlan {
                si,
                r,
                lwt_key,
                comm_key,
                opt_key,
                cached_lwt: cached_lwt.map(|(a, _)| a),
                cached_comm: cached_comm.map(|(a, _)| a),
                cached_opt: cached_opt.map(|(a, _)| a),
            }));
        }

        let plans: Vec<&JobPlan> = slots
            .iter()
            .filter_map(|s| match s {
                JobSlot::Run(p) => Some(p),
                JobSlot::Cached { .. } => None,
            })
            .collect();
        // Run the misses in textual order on this thread, whose memo
        // caches every later job (and every later compile) then shares.
        // Explicit sessions root the attribution under a `session` frame.
        let results: Vec<ReadResult> = {
            let _sess_ctx = self.explicit.then(|| ledger::push_context("session"));
            plans
                .iter()
                .map(|p| run_read_job(&input, options, &stmts, p))
                .collect()
        };

        // Merge in textual order and admit the new artifacts.
        let mut lwts = Vec::new();
        let mut comm: Vec<CommSet> = Vec::new();
        let mut results = results.into_iter();
        for slot in slots {
            match slot {
                JobSlot::Cached { lwt, opt } => {
                    lwts.push((*lwt).clone());
                    comm.extend(opt.iter().cloned());
                }
                JobSlot::Run(plan) => {
                    let out = results.next().expect("one result per planned job")?;
                    let lwt_arc = match out.new_lwt {
                        Some(l) => {
                            let a = Arc::new(l);
                            self.admit(StageId::Lwt, plan.lwt_key, Artifact::Lwt(a.clone()));
                            a
                        }
                        None => plan.cached_lwt.clone().expect("lwt cached or computed"),
                    };
                    if let Some(sets) = out.new_comm {
                        self.admit(
                            StageId::CommSets,
                            plan.comm_key,
                            Artifact::CommSets(Arc::new(sets)),
                        );
                    }
                    let opt_arc = match (plan.cached_opt, out.opt) {
                        // Served from the store: already resident in
                        // every layer (lookup promoted it), nothing to
                        // re-admit.
                        (Some(a), _) => a,
                        (None, Some(v)) => {
                            let a = Arc::new(v);
                            self.admit(StageId::Opt, plan.opt_key, Artifact::CommSets(a.clone()));
                            a
                        }
                        (None, None) => unreachable!("job computes opt unless it was cached"),
                    };
                    lwts.push((*lwt_arc).clone());
                    comm.extend(opt_arc.iter().cloned());
                }
            }
        }
        Ok(Compiled {
            input,
            options,
            lwts,
            comm,
        })
    }

    /// Session-aware [`crate::build_schedule`]: reuses the `aggregate`
    /// (raw message enumeration) and `schedule` stages across calls.
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
    ) -> Result<Schedule, CompileError> {
        let _obs_guard = self.obs.as_ref().map(|c| c.install());
        let _ledger_guard = self
            .ledger_scope
            .as_ref()
            .filter(|s| s.is_recording())
            .map(|s| s.install());
        crate::pipeline::build_schedule_inner(compiled, param_vals, values, limit, Some(self))
    }

    /// Session-aware [`crate::message_stats`].
    ///
    /// # Errors
    ///
    /// As [`crate::message_stats`].
    pub fn message_stats(
        &mut self,
        compiled: &Compiled,
        param_vals: &[i128],
        limit: usize,
    ) -> Result<(u64, u64, u64), CompileError> {
        let schedule = self.build_schedule(compiled, param_vals, false, limit)?;
        Ok(crate::pipeline::schedule_message_stats(&schedule))
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
        let _obs_guard = self.obs.as_ref().map(|c| c.install());
        let _lane = obs::lane(obs::main_lane(), "pipeline");
        let schedule = self.build_schedule(compiled, param_vals, values, limit)?;
        crate::pipeline::simulate_schedule(compiled, param_vals, config, values, &schedule)
    }

    /// Looks up the `aggregate` stage, counting a hit or miss.
    pub(crate) fn aggregate_stage(&mut self, key: Fingerprint) -> Option<Arc<Vec<Vec<Message>>>> {
        match self.lookup(StageId::Aggregate, key) {
            Some((Artifact::Messages(a), src)) => {
                self.stats.hit(stage::AGGREGATE, key, src);
                Some(a)
            }
            _ => {
                self.stats.miss(stage::AGGREGATE, key);
                None
            }
        }
    }

    pub(crate) fn admit_aggregate(&mut self, key: Fingerprint, value: Arc<Vec<Vec<Message>>>) {
        self.admit(StageId::Aggregate, key, Artifact::Messages(value));
    }

    /// Looks up the `schedule` stage, counting a hit or miss.
    pub(crate) fn schedule_stage(&mut self, key: Fingerprint) -> Option<Arc<Schedule>> {
        match self.lookup(StageId::Schedule, key) {
            Some((Artifact::Schedule(a), src)) => {
                self.stats.hit(stage::SCHEDULE, key, src);
                Some(a)
            }
            _ => {
                self.stats.miss(stage::SCHEDULE, key);
                None
            }
        }
    }

    pub(crate) fn admit_schedule(&mut self, key: Fingerprint, value: Arc<Schedule>) {
        self.admit(StageId::Schedule, key, Artifact::Schedule(value));
    }

    pub(crate) fn is_explicit(&self) -> bool {
        self.explicit
    }
}

/// What [`Session::serve`] produced for one request.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The compiled program (stage-graph artifacts shared with the
    /// session store).
    pub compiled: Compiled,
    /// The legality-refined schedule for the request's parameters
    /// (built without payload values).
    pub schedule: Schedule,
    /// Distinct messages in the schedule.
    pub messages: u64,
    /// Message transmissions (receiver fan-out counted).
    pub transmissions: u64,
    /// Words moved across all transmissions.
    pub words: u64,
}

/// One job's resolution: fully served from the store, or planned to run.
enum JobSlot {
    Cached {
        lwt: Arc<LastWriteTree>,
        opt: Arc<Vec<CommSet>>,
    },
    Run(JobPlan),
}

/// A planned (stmt, read) job with its chain keys and cached prefixes.
/// `cached_opt` arises only with an evicting disk backend: the final
/// stage survived but the lwt did not, so the job rebuilds the lwt and
/// short-circuits the rest.
struct JobPlan {
    si: usize,
    r: usize,
    lwt_key: Fingerprint,
    comm_key: Fingerprint,
    opt_key: Fingerprint,
    cached_lwt: Option<Arc<LastWriteTree>>,
    cached_comm: Option<Arc<Vec<CommSet>>>,
    cached_opt: Option<Arc<Vec<CommSet>>>,
}

/// What a job computed (stages it skipped return `None`; `opt` is `None`
/// exactly when the plan's `cached_opt` supersedes it).
struct JobOut {
    new_lwt: Option<LastWriteTree>,
    new_comm: Option<Vec<CommSet>>,
    opt: Option<Vec<CommSet>>,
}

type ReadResult = Result<JobOut, CompileError>;

/// Runs the non-cached stages of one (statement, read) job. Emits the
/// same lane / span / ledger structure as the classic pipeline for every
/// stage it actually runs.
fn run_read_job(
    input: &CompileInput,
    options: Options,
    stmts: &[StmtInfo],
    plan: &JobPlan,
) -> ReadResult {
    let (si, r) = (plan.si, plan.r);
    let s = &stmts[si];
    let reads = s.stmt.rhs.reads();
    let read = &reads[r];
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
    match options.strategy {
        Strategy::ValueCentric => {
            let new_lwt = match &plan.cached_lwt {
                Some(_) => None,
                None => {
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
            };
            // A cached opt output supersedes everything downstream of
            // the lwt: stop here.
            if plan.cached_opt.is_some() {
                return Ok(JobOut {
                    new_lwt,
                    new_comm: None,
                    opt: None,
                });
            }
            let lwt: &LastWriteTree = plan
                .cached_lwt
                .as_deref()
                .or(new_lwt.as_ref())
                .expect("lwt cached or computed");

            let new_comm = match &plan.cached_comm {
                Some(_) => None,
                None => {
                    let _commsets_span = obs::span("commsets");
                    let _commsets_ctx = ledger::push_context("commsets");
                    let mut tree_sets: Vec<CommSet> = Vec::new();
                    for leaf in &lwt.leaves {
                        match &leaf.source {
                            Some(src) => {
                                let winfo = &stmts[src.write_stmt];
                                let comp_r = &input.comps[&s.id];
                                let comp_w = &input.comps[&winfo.id];
                                let sets = comm_from_leaf(
                                    &input.program,
                                    lwt,
                                    leaf,
                                    s,
                                    winfo,
                                    comp_r,
                                    comp_w,
                                )?;
                                tree_sets.extend(sets);
                            }
                            None => {
                                // Live-in data: if the array has a declared
                                // home, Theorem 4 communication; otherwise
                                // it is replicated and local.
                                if let Some(d) = input.initial.get(&read.array) {
                                    let comp_r = &input.comps[&s.id];
                                    let sets =
                                        comm_from_initial(&input.program, lwt, leaf, s, comp_r, d)?;
                                    tree_sets.extend(sets);
                                }
                            }
                        }
                    }
                    drop(_commsets_ctx);
                    drop(_commsets_span);
                    obs::event_f("commsets.done", || {
                        vec![obs::field("sets", tree_sets.len())]
                    });
                    Some(tree_sets)
                }
            };
            let sets_in: Vec<CommSet> = plan
                .cached_comm
                .as_deref()
                .or(new_comm.as_ref())
                .expect("commsets cached or computed")
                .clone();
            // §6.1 optimizations, per tree.
            let opt = optimize_sets(sets_in, input, options)?;
            Ok(JobOut {
                new_lwt,
                new_comm,
                opt: Some(opt),
            })
        }
        Strategy::LocationCentric => {
            // Theorem 2: every read fetches from the owner under
            // the static data decomposition, with no value
            // information — build a whole-domain ⊥ leaf.
            let new_lwt = match &plan.cached_lwt {
                Some(_) => None,
                None => Some(whole_domain_tree(&input.program, s, r, &read.array)),
            };
            if plan.cached_opt.is_some() {
                return Ok(JobOut {
                    new_lwt,
                    new_comm: None,
                    opt: None,
                });
            }
            let lwt: &LastWriteTree = plan
                .cached_lwt
                .as_deref()
                .or(new_lwt.as_ref())
                .expect("lwt cached or computed");
            let new_comm = match &plan.cached_comm {
                Some(_) => None,
                None => {
                    let d = input
                        .initial
                        .get(&read.array)
                        .ok_or_else(|| CompileError::MissingInitial(read.array.clone()))?;
                    let leaf = &lwt.leaves[0];
                    let comp_r = &input.comps[&s.id];
                    let sets = {
                        let _s = obs::span("commsets");
                        let _c = ledger::push_context("commsets");
                        comm_from_initial(&input.program, lwt, leaf, s, comp_r, d)?
                    };
                    obs::event_f("commsets.done", || vec![obs::field("sets", sets.len())]);
                    Some(sets)
                }
            };
            let sets_in: Vec<CommSet> = plan
                .cached_comm
                .as_deref()
                .or(new_comm.as_ref())
                .expect("commsets cached or computed")
                .clone();
            let opt = optimize_sets(sets_in, input, options)?;
            Ok(JobOut {
                new_lwt,
                new_comm,
                opt: Some(opt),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Stage fingerprints.
//
// Tags 50–59 are reserved for stage-key discriminators so no stage key can
// collide with a plain value fingerprint or with another stage's key.

/// The `stmt-info` stage key: the whole program.
fn stmt_info_fp(program: &Program) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(51);
    program.fp(&mut h);
    h.finish()
}

/// Feeds the analysis-relevant options: strategy and the feasibility
/// budget (an exhausted budget yields conservative `Unknown` answers that
/// can change results).
fn analysis_options_fp(options: &Options, h: &mut Fp) {
    h.tag(strategy_tag(options.strategy));
    h.u64(u64::from(options.feasibility_budget));
}

/// The per-read `lwt` stage key: the program *skeleton* (loop structure,
/// writes, declarations — no right-hand sides), this read's position and
/// access, and the analysis options. Grid-free and blind to other reads.
fn lwt_fp(
    input: &CompileInput,
    options: &Options,
    stmts: &[StmtInfo],
    si: usize,
    r: usize,
) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(52);
    skeleton_fp(&input.program, &mut h);
    h.usize(si);
    h.usize(r);
    stmts[si].stmt.rhs.reads()[r].fp(&mut h);
    analysis_options_fp(options, &mut h);
    h.finish()
}

/// The per-read `commsets` stage key: the lwt chain plus every
/// computation decomposition (writer statements contribute theirs) and
/// the read array's initial decomposition. Still grid-free.
fn commsets_fp(lwt_key: Fingerprint, input: &CompileInput, array: &str) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(53);
    h.fingerprint(lwt_key);
    h.usize(input.comps.len());
    for (id, comp) in &input.comps {
        h.usize(*id);
        comp.fp(&mut h);
    }
    // The read's array identity is already pinned by the lwt chain; what
    // matters here is where that array's live-in data resides.
    match input.initial.get(array) {
        Some(d) => {
            h.tag(1);
            d.fp(&mut h);
        }
        None => h.tag(0),
    }
    h.finish()
}

/// The per-read `opt` stage key: the commsets chain plus each declared
/// pass's enablement and self-declared fingerprint (grid extents enter
/// here, via receiver folding).
fn opt_fp(comm_key: Fingerprint, input: &CompileInput, options: &Options) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(54);
    h.fingerprint(comm_key);
    for pass in OPT_PASSES {
        h.str(pass.name);
        let on = (pass.enabled)(options);
        h.bool(on);
        if on {
            (pass.fingerprint)(input, options, &mut h);
        }
    }
    h.finish()
}

/// The `aggregate` stage key: everything the optimized communication
/// sets are a deterministic function of (program, decompositions, grid,
/// answer-relevant options) plus the concrete parameters and the
/// enumeration limit.
pub(crate) fn aggregate_fp(compiled: &Compiled, param_vals: &[i128], limit: usize) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(55);
    let input = &compiled.input;
    input.program.fp(&mut h);
    h.usize(input.comps.len());
    for (id, comp) in &input.comps {
        h.usize(*id);
        comp.fp(&mut h);
    }
    let mut entries: Vec<_> = input.initial.iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    h.usize(entries.len());
    for (name, d) in entries {
        h.str(name);
        d.fp(&mut h);
    }
    input.grid.fp(&mut h);
    let o = &compiled.options;
    analysis_options_fp(o, &mut h);
    for flag in [
        o.self_reuse,
        o.cross_set_reuse,
        o.already_local,
        o.unique_sender,
        o.aggregate,
        o.multicast,
    ] {
        h.bool(flag);
    }
    h.usize(param_vals.len());
    for &v in param_vals {
        h.i128(v);
    }
    h.usize(limit);
    h.finish()
}

/// The `schedule` stage key: the aggregate chain plus the payload mode.
pub(crate) fn schedule_fp(agg_key: Fingerprint, values: bool) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(56);
    h.fingerprint(agg_key);
    h.bool(values);
    h.finish()
}

// ---------------------------------------------------------------------------
// Journal fingerprints: content hashes of the *request*, one component
// per journal field, so a journal diff names which input changed. Tag 57
// keeps them disjoint from the stage keys above.

/// Journal `program_fp`: the source program alone.
fn program_only_fp(program: &Program) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(57);
    h.u64(0);
    program.fp(&mut h);
    h.finish()
}

/// Journal `decomp_fp`: every computation decomposition plus the initial
/// data decompositions (sorted by array name).
fn decomp_only_fp(input: &CompileInput) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(57);
    h.u64(1);
    h.usize(input.comps.len());
    for (id, comp) in &input.comps {
        h.usize(*id);
        comp.fp(&mut h);
    }
    let mut entries: Vec<_> = input.initial.iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    h.usize(entries.len());
    for (name, d) in entries {
        h.str(name);
        d.fp(&mut h);
    }
    h.finish()
}

/// Journal `grid_fp`: the processor grid alone.
fn grid_only_fp(input: &CompileInput) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(57);
    h.u64(2);
    input.grid.fp(&mut h);
    h.finish()
}

/// Journal `options_fp`: every answer-relevant option (strategy, budget,
/// §6 flags) — the same set the stage keys consume, so equal fingerprints
/// mean the options cannot have changed any output.
fn options_only_fp(options: &Options) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(57);
    h.u64(3);
    analysis_options_fp(options, &mut h);
    for flag in [
        options.self_reuse,
        options.cross_set_reuse,
        options.already_local,
        options.unique_sender,
        options.aggregate,
        options.multicast,
    ] {
        h.bool(flag);
    }
    h.finish()
}

/// The configuration fingerprint of a set of [`Options`] — the same
/// tag-57 hash the compile journal records as `options_fp`, exposed so
/// snapshot tooling (the bench history store) can key records on the
/// compile configuration without constructing a full request.
pub fn options_fingerprint(options: &Options) -> String {
    options_only_fp(options).to_string()
}

/// Journal `schedule_fp`: a fingerprint of the schedule's canonical
/// `Debug` rendering. `Schedule` holds only ordered containers, so the
/// rendering — and therefore this fingerprint — is deterministic, and
/// equal fingerprints mean byte-identical schedules.
fn schedule_text_fp(schedule: &Schedule) -> Fingerprint {
    let mut h = Fp::new();
    h.tag(57);
    h.u64(4);
    h.str(&format!("{schedule:?}"));
    h.finish()
}
