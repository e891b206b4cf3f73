//! Incremental-equivalence suite for compilation sessions: the stage
//! graph must never change *what* is computed — only *whether* a stage
//! re-runs — so every test here pins both an exact output equivalence and
//! an exact stage hit/miss accounting.
//!
//! Workloads are replicated locally (dmc-bench depends on dmc-core, so
//! these tests cannot import it): LU (Figure 11, 2 statements / 5 reads)
//! and the §2.2.2 X/Y example (2 statements / 2 reads).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dmc_core::{build_schedule, compile, CompileInput, Options, Session, Strategy};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_polyhedra::{ledger, stats};

/// Figure 11's LU kernel: the paper's cyclic decomposition. 2 statements,
/// 5 reads in total.
fn lu_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
        "param N; array X[N + 1][N + 1];
         for i1 = 0 to N {
           for i2 = i1 + 1 to N {
             X[i2][i1] = X[i2][i1] / X[i1][i1];
             for i3 = i1 + 1 to N {
               X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
             }
           }
         }",
    )
    .expect("LU parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::cyclic_1d(0, "i2"));
    comps.insert(1, CompDecomp::cyclic_1d(1, "i2"));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0));
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

/// §2.2.2's X/Y example, with the X-read subscript as a parameter so one
/// test can make a single-read edit. 2 statements; S1 has 2 reads
/// (`Y[j]`, `X[j - shift]`), S0 has none.
fn xy_input(shift: i128, nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(&format!(
        "param N; array X[N + 2]; array Y[N + 2];
         for i = 0 to N {{
           X[i] = 1.5;
           for j = 1 to N {{
             Y[j] = Y[j] + X[j - {shift}];
           }}
         }}"
    ))
    .expect("xy parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 4));
    comps.insert(1, CompDecomp::block_1d(1, "j", 4));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::block_1d("X", 1, 0, 4));
    initial.insert("Y".to_string(), DataDecomp::block_1d("Y", 1, 0, 4));
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

fn stage(session: &Session, name: &str) -> (u64, u64) {
    session
        .stats()
        .per_stage
        .get(name)
        .map(|c| (c.hits, c.misses))
        .unwrap_or((0, 0))
}

/// A deterministic rendering of everything a compile *produces* (the
/// input/options are carried through verbatim; `CompileInput.initial` is a
/// `HashMap`, whose Debug order is not stable across instances).
fn outputs(c: &dmc_core::Compiled) -> String {
    format!("{:?} {:?}", c.lwts, c.comm)
}

/// Recompiling a byte-identical input in one session re-runs nothing and
/// returns an identical result — even though the `CompileInput` was
/// constructed from scratch (the fingerprints are structural, not
/// pointer-based).
#[test]
fn recompile_is_all_hits_and_byte_identical() {
    let mut session = Session::new();
    let fresh = session
        .compile(lu_input(4), Options::full())
        .expect("fresh compile");
    let (h0, m0) = (session.stats().stage_hits, session.stats().stage_misses);
    assert_eq!(h0, 0, "an empty session has nothing to hit");
    // 5 reads x (lwt + opt).
    assert_eq!(m0, 10, "{:?}", session.stats());

    let again = session
        .compile(lu_input(4), Options::full())
        .expect("recompile");
    assert_eq!(
        session.stats().stage_misses,
        m0,
        "recompiling re-ran a stage"
    );
    assert_eq!(
        session.stats().stage_hits,
        10,
        "every stage lookup must be served from the store: {:?}",
        session.stats()
    );
    assert_eq!(
        outputs(&fresh),
        outputs(&again),
        "cached compile must be byte-identical to the fresh one"
    );
}

/// The distinct ledger context paths `f` charges work under, recorded on
/// this thread.
fn context_paths(f: impl FnOnce()) -> BTreeSet<Vec<String>> {
    ledger::start();
    f();
    ledger::finish()
        .segments
        .into_iter()
        .map(|s| s.ctx)
        .collect()
}

/// The session path and the classic one-shot wrapper produce identical
/// results, for both strategies, and charge their work under the same
/// ledger context paths.
#[test]
fn session_output_matches_wrapper() {
    for options in [Options::full(), Options::location_centric()] {
        let mut via_wrapper = None;
        let wrapper_paths = context_paths(|| {
            via_wrapper = Some(compile(xy_input(1, 4), options).expect("wrapper"));
        });
        let mut session = Session::new();
        let mut via_session = None;
        let session_paths = context_paths(|| {
            via_session = Some(session.compile(xy_input(1, 4), options).expect("session"));
        });
        assert_eq!(
            outputs(&via_wrapper.unwrap()),
            outputs(&via_session.unwrap())
        );
        // The wrapper is itself a session: a fresh one misses exactly
        // where the wrapper recomputes, and attributes the same way.
        assert_eq!(session.stats().stage_hits, 0);
        assert!(!wrapper_paths.is_empty());
        assert_eq!(wrapper_paths, session_paths);
    }
}

/// Editing one read's subscript re-runs only that read's chain: the other
/// read's Last Write Tree is keyed by the program *skeleton*, which
/// ignores right-hand sides.
#[test]
fn single_read_edit_reruns_only_that_chain() {
    let mut session = Session::new();
    session
        .compile(xy_input(1, 4), Options::full())
        .expect("first");
    // 2 reads x (lwt + opt).
    assert_eq!(session.stats().stage_misses, 4, "{:?}", session.stats());

    let edited = session
        .compile(xy_input(2, 4), Options::full())
        .expect("edited");
    // Changed: the X read's lwt and opt.
    assert_eq!(session.stats().stage_misses, 4 + 2, "{:?}", session.stats());
    // Unchanged: the Y[j] read's full chain.
    assert_eq!(session.stats().stage_hits, 2, "{:?}", session.stats());
    assert_eq!(stage(&session, "lwt"), (1, 3));
    assert_eq!(stage(&session, "opt"), (1, 3));

    // And the edited result equals a from-scratch compile of the edited
    // program — incrementality must not leak stale artifacts.
    let scratch = compile(xy_input(2, 4), Options::full()).expect("scratch");
    assert_eq!(outputs(&edited), outputs(&scratch));
}

/// A processor-count sweep builds no Last Write Tree twice: the trees are
/// keyed without the grid (it only enters at the `opt` stage, via receiver
/// folding).
#[test]
fn proc_count_sweep_reuses_analysis_stages() {
    let mut session = Session::new();
    session
        .compile(lu_input(2), Options::full())
        .expect("nproc=2");
    assert_eq!(session.stats().stage_misses, 10);

    for (k, nproc) in [4i128, 8].into_iter().enumerate() {
        let swept = session
            .compile(lu_input(nproc), Options::full())
            .expect("swept");
        let done = k as u64 + 2;
        // Per extra compile: 5 lwt hit; 5 opt miss.
        assert_eq!(
            session.stats().stage_hits,
            5 * (done - 1),
            "{:?}",
            session.stats()
        );
        assert_eq!(
            session.stats().stage_misses,
            10 + 5 * (done - 1),
            "{:?}",
            session.stats()
        );
        assert_eq!(stage(&session, "lwt"), (5 * (done - 1), 5));
        assert_eq!(stage(&session, "opt"), (0, 5 * done));

        let scratch = compile(lu_input(nproc), Options::full()).expect("scratch");
        assert_eq!(outputs(&swept), outputs(&scratch));
    }
    // The per-stage rows tile the session totals, as the snapshot's
    // `per_stage` sections report them.
    let s = session.stats();
    let tiled = s
        .per_stage
        .values()
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
    assert_eq!(tiled, (s.stage_hits, s.stage_misses), "{s:?}");
}

/// Each `Options` field re-keys exactly the stages the relevance map in
/// `session.rs` names for it, and no others: after a round under the full
/// optimizer, a round with that one field changed misses every lookup of
/// those stages and hits every other lookup.
#[test]
fn option_relevance_is_reflected_in_stage_keys() {
    // One parse, two (statement, read) jobs, one schedule.
    const LOOKUPS: [(&str, u64); 4] = [("parse", 1), ("lwt", 2), ("opt", 2), ("schedule", 1)];
    let round = |session: &mut Session, options: Options| {
        let src = xy_input(1, 4).program.to_string();
        let program = session.parse(&src).expect("parses");
        let input = CompileInput {
            program,
            ..xy_input(1, 4)
        };
        let compiled = session.compile(input, options).expect("compiles");
        session
            .build_schedule(&compiled, &[12], false, 1_000_000)
            .expect("schedules");
    };
    let full = Options::full();
    // Naming every field here makes a new one fail to compile until it
    // has a row below.
    let Options {
        strategy: _,
        self_reuse: _,
        already_local: _,
        unique_sender: _,
        aggregate: _,
        multicast: _,
    } = full;
    let analysis: &[&str] = &["lwt", "opt", "schedule"];
    let pass: &[&str] = &["opt", "schedule"];
    let planner: &[&str] = &["schedule"];
    let rows: [(&str, Options, &[&str]); 6] = [
        (
            "strategy",
            Options {
                strategy: Strategy::LocationCentric,
                ..full
            },
            analysis,
        ),
        (
            "self_reuse",
            Options {
                self_reuse: false,
                ..full
            },
            pass,
        ),
        (
            "already_local",
            Options {
                already_local: false,
                ..full
            },
            pass,
        ),
        (
            "unique_sender",
            Options {
                unique_sender: false,
                ..full
            },
            pass,
        ),
        (
            "aggregate",
            Options {
                aggregate: false,
                ..full
            },
            planner,
        ),
        (
            "multicast",
            Options {
                multicast: false,
                ..full
            },
            planner,
        ),
    ];
    for (field, options, rekeyed) in rows {
        let mut session = Session::new();
        round(&mut session, full);
        let before: Vec<(u64, u64)> = LOOKUPS.iter().map(|(s, _)| stage(&session, s)).collect();
        round(&mut session, options);
        for ((name, n), (hits, misses)) in LOOKUPS.iter().zip(before) {
            let (h, m) = stage(&session, name);
            let want = if rekeyed.contains(name) {
                (0, *n)
            } else {
                (*n, 0)
            };
            assert_eq!(
                (h - hits, m - misses),
                want,
                "{field}: {name} (hits, misses)"
            );
        }
    }
}

/// `Session::build_schedule` reuses the schedule stage — and agrees with
/// the classic function.
#[test]
fn schedule_stages_are_cached_and_equivalent() {
    let input = lu_input(4);
    let compiled = compile(input, Options::full()).expect("compile");
    let classic = build_schedule(&compiled, &[10], false, 1_000_000).expect("classic");

    let mut session = Session::new();
    let first = session
        .build_schedule(&compiled, &[10], false, 1_000_000)
        .expect("session schedule");
    assert_eq!(first, classic);
    assert_eq!(stage(&session, "schedule"), (0, 1));

    let second = session
        .build_schedule(&compiled, &[10], false, 1_000_000)
        .expect("cached schedule");
    assert_eq!(second, classic);
    assert_eq!(stage(&session, "schedule"), (1, 1));

    // Different parameter values are a different schedule.
    session
        .build_schedule(&compiled, &[12], false, 1_000_000)
        .expect("new params");
    assert_eq!(stage(&session, "schedule"), (1, 2));

    // So is values mode.
    let sched = session
        .build_schedule(&compiled, &[12], true, 1_000_000)
        .expect("values");
    assert_eq!(stage(&session, "schedule"), (1, 3));
    let classic_sched = build_schedule(&compiled, &[12], true, 1_000_000).expect("classic");
    assert_eq!(sched, classic_sched);
}

/// The `parse` stage caches by source text.
#[test]
fn parse_stage_caches_by_source() {
    let mut session = Session::new();
    let src = "param N; array A[N]; for i = 1 to N - 1 { A[i] = A[i - 1]; }";
    let p1 = session.parse(src).expect("parses");
    let p2 = session.parse(src).expect("parses");
    assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
    assert_eq!(stage(&session, "parse"), (1, 1));
    session
        .parse("param N; array A[N]; for i = 1 to N - 1 { A[i] = A[i] }")
        .ok();
    // A malformed or different source is a miss (and errors are not cached).
    assert_eq!(stage(&session, "parse").0, 1);
}

/// Simulation through a session equals the classic `run`, stage reuse and
/// all — the schedule the simulator executes is the cached one.
#[test]
fn session_run_matches_classic_run() {
    let compiled = compile(lu_input(4), Options::full()).expect("compile");
    let config = dmc_machine::MachineConfig::ipsc860();
    let classic = dmc_core::run(&compiled, &[8], &config, true, 1_000_000).expect("classic run");

    let mut session = Session::new();
    // Warm the schedule stage, then run: the simulated machine executes
    // the cached plan.
    session
        .build_schedule(&compiled, &[8], true, 1_000_000)
        .expect("warm");
    let cached = session
        .run(&compiled, &[8], &config, true, 1_000_000)
        .expect("session run");
    assert_eq!(stage(&session, "schedule"), (1, 1));
    assert_eq!(classic.stats.time, cached.stats.time);
    assert_eq!(classic.stats.messages, cached.stats.messages);
}

/// The charged work of one LU request (P = 4, N = 16) served on a fresh
/// thread: the thread's `work_units` delta around `serve`. When
/// `compile_between`, a compile of the same program runs on that thread
/// first, filling the memo caches the request then hits.
fn served_lu_work(compile_between: bool) -> u64 {
    std::thread::spawn(move || {
        let mut session = Session::new();
        if compile_between {
            compile(lu_input(4), Options::full()).expect("compiles");
        }
        let work0 = stats::snapshot().work_units;
        session
            .serve("lu", lu_input(4), Options::full(), &[16], 1_000_000)
            .expect("serves");
        stats::snapshot().work_units - work0
    })
    .join()
    .expect("request thread")
}

/// A request's work is its charged work, whatever ran on the thread
/// before it: a memo hit charges what its computation cost even when that
/// computation ran outside the request.
#[test]
fn served_work_does_not_depend_on_earlier_compiles() {
    let fresh = served_lu_work(false);
    assert!(fresh > 0);
    assert_eq!(served_lu_work(true), fresh);
}
