//! The engine's per-thread state seen from the pipeline: a compile over
//! warm memo caches returns and is charged what the cold one was, and the
//! engine's counters are per thread, so overlapping compiles each count
//! only their own work.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};

use dmc_core::{build_schedule, compile, CompileInput, Compiled, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_machine::Schedule;
use dmc_polyhedra::{cache, stats, PolyStats};

/// A two-statement, three-read kernel: several per-read jobs that re-ask
/// each other's polyhedral queries.
fn xy_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
        "param N; array X[N + 2]; array Y[N + 2];
         for i = 0 to N {
           X[i] = 1.5;
           for j = 1 to N {
             Y[j] = Y[j] + X[j - 1];
           }
         }",
    )
    .expect("parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 4));
    comps.insert(1, CompDecomp::block_1d(1, "j", 4));
    CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(nproc),
    }
}

/// Figure 11's LU kernel with the paper's cyclic decomposition: the one
/// kernel here whose rows outgrow the inline buffer, so it allocates.
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

/// Compile + schedule, rendered for comparison (`Compiled` has no `Eq`).
fn pipeline(input: CompileInput, params: &[i128], options: Options) -> (String, Schedule) {
    let compiled: Compiled = compile(input, options).expect("compiles");
    let schedule = build_schedule(&compiled, params, false, 1_000_000).expect("schedules");
    assert!(!schedule.messages.is_empty());
    (format!("{:?} {:?}", compiled.lwts, compiled.comm), schedule)
}

/// The property the cache-replay design exists for: a compile over this
/// thread's warm memo caches returns what the cold one did and is charged
/// the same work — a hit replays the cost of the miss that filled it.
#[test]
fn warm_caches_change_neither_outputs_nor_charged_work() {
    // The first compile is cold, the second runs over what the first left
    // behind; the counters are this thread's own.
    cache::clear_thread_caches();
    let s0 = stats::snapshot();
    let cold = pipeline(xy_input(4), &[15], Options::full());
    let s1 = stats::snapshot();
    let warm = pipeline(xy_input(4), &[15], Options::full());
    let (cold_stats, warm_stats) = (s1.since(&s0), stats::snapshot().since(&s1));

    assert_eq!(cold, warm, "cache state must not change the outputs");
    assert!(cold_stats.feas_cache_misses > 0 && cold_stats.proj_cache_misses > 0);
    assert!(cold_stats.scan_cache_misses > 0 && cold_stats.lex_cache_misses > 0);
    assert_eq!(
        (
            warm_stats.feas_cache_misses,
            warm_stats.proj_cache_misses,
            warm_stats.scan_cache_misses,
            warm_stats.lex_cache_misses
        ),
        (0, 0, 0, 0),
        "the second compile must be served by the first one's entries"
    );
    assert!(warm_stats.scan_cache_hits > 0 && warm_stats.lex_cache_hits > 0);
    assert!(cold_stats.work_units > 0);
    assert_eq!(
        cold_stats.work_units, warm_stats.work_units,
        "charged work must not depend on the cache state"
    );
}

/// The engine counters of one cold pipeline run on a thread of its own,
/// entered once `start` lets it.
fn counted_pipeline(
    input: CompileInput,
    params: Vec<i128>,
    start: Arc<Barrier>,
) -> std::thread::JoinHandle<PolyStats> {
    std::thread::spawn(move || {
        start.wait();
        let before = stats::snapshot();
        pipeline(input, &params, Options::full());
        stats::snapshot().since(&before)
    })
}

/// Two threads compile different programs at the same time; each reads
/// exactly the counters — allocations and charged work included — of the
/// same compile run alone: the account is per thread.
#[test]
fn concurrent_compiles_count_only_their_own_work() {
    let inputs = || [(lu_input(4), vec![16]), (xy_input(4), vec![15])];
    let solo: Vec<PolyStats> = inputs()
        .into_iter()
        .map(|(input, params)| {
            let go = Arc::new(Barrier::new(1));
            counted_pipeline(input, params, go)
                .join()
                .expect("solo run")
        })
        .collect();
    let go = Arc::new(Barrier::new(2));
    let together: Vec<PolyStats> = inputs()
        .into_iter()
        .map(|(input, params)| counted_pipeline(input, params, Arc::clone(&go)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("concurrent run"))
        .collect();
    assert!(solo.iter().all(|s| s.work_units > 0));
    assert!(solo[0].allocs > 0, "LU's rows spill to the heap");
    assert_ne!(solo[0], solo[1], "the two programs do different work");
    assert_eq!(together, solo);
}
