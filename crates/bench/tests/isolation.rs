//! Request isolation, end to end on real workloads:
//!
//! * **traces** — two sessions compiling concurrently on different
//!   workloads, each under its own thread's capture, each capture only
//!   their own pipeline, and each trace's deterministic view is
//!   byte-identical to the same workload compiled solo;
//! * **served requests** — what one `serve` call adds, read around it
//!   from [`Session::stats`] and the thread's `work_units` counter,
//!   depends on the request and the session's store, never on another
//!   session serving at the same time.
//!
//! A capture and a work counter are the calling thread's, so the tests
//! here run concurrently and serialize on nothing.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use dmc_bench::{figure2_input, lu_input, stencil_input, xy_input};
use dmc_core::{CompileInput, Options, Session};
use dmc_machine::Schedule;
use dmc_polyhedra::stats;

const LIMIT: usize = 50_000_000;

/// Compiles `input` in a fresh session under the calling thread's capture
/// and returns the trace's deterministic view.
fn thread_view(input: &CompileInput, params: &[i128]) -> Vec<String> {
    let mut session = Session::new();
    dmc_obs::start_capture();
    let compiled = session
        .compile(input.clone(), Options::full())
        .expect("compiles");
    let _ = session
        .build_schedule(&compiled, params, false, LIMIT)
        .expect("schedules");
    dmc_obs::finish_capture().deterministic_view()
}

/// Two sessions tracing concurrently on different workloads: each trace
/// holds exactly what the same workload produces solo — no cross-talk in
/// either direction, byte for byte.
#[test]
fn concurrent_scoped_sessions_capture_isolated_traces() {
    let solo_stencil = thread_view(&stencil_input(16, 4), &[3, 63]);
    let solo_xy = thread_view(&xy_input(4), &[15]);

    let (stencil, xy) = std::thread::scope(|s| {
        let a = s.spawn(|| thread_view(&stencil_input(16, 4), &[3, 63]));
        let b = s.spawn(|| thread_view(&xy_input(4), &[15]));
        (
            a.join().expect("stencil thread"),
            b.join().expect("xy thread"),
        )
    });

    assert!(
        !solo_stencil.is_empty() && !solo_xy.is_empty(),
        "captures must record"
    );
    assert_eq!(
        stencil, solo_stencil,
        "concurrent stencil trace must be byte-identical to the solo trace"
    );
    assert_eq!(
        xy, solo_xy,
        "concurrent xy trace must be byte-identical to the solo trace"
    );
    assert_ne!(
        solo_stencil, solo_xy,
        "different workloads produce different traces"
    );
}

/// One request: a workload name, its input and its parameters.
type Request = (&'static str, CompileInput, Vec<i128>);

/// What serving one request added: its schedule (whose traffic is
/// `Schedule::message_stats`), each stage's hits and misses, and the work
/// it charged.
#[derive(Debug, PartialEq)]
struct Served {
    schedule: Arc<Schedule>,
    stages: BTreeMap<&'static str, (u64, u64)>,
    work_units: u64,
}

fn serve(session: &mut Session, (name, input, params): &Request) -> Served {
    let before = session.stats().per_stage.clone();
    let work0 = stats::snapshot().work_units;
    let out = session
        .serve(name, input.clone(), Options::full(), params, LIMIT)
        .expect("serves");
    let work_units = stats::snapshot().work_units - work0;
    let stages = session
        .stats()
        .per_stage
        .iter()
        .map(|(stage, c)| {
            let b = before.get(stage).copied().unwrap_or_default();
            (*stage, (c.hits - b.hits, c.misses - b.misses))
        })
        .collect();
    Served {
        schedule: out.schedule,
        stages,
        work_units,
    }
}

/// Serves `reqs` in order through one fresh session, each after the
/// barrier when one is given.
fn serve_all(reqs: &[Request], barrier: Option<&Barrier>) -> Vec<Served> {
    let mut session = Session::new();
    reqs.iter()
        .map(|req| {
            if let Some(b) = barrier {
                b.wait();
            }
            serve(&mut session, req)
        })
        .collect()
}

/// A request served again in the same session is all stage hits: no
/// miss in any stage and no charged work.
#[test]
fn repeated_request_is_all_stage_hits_and_charges_no_work() {
    let served = serve_all(
        &[
            ("figure2", figure2_input(4), vec![3, 63]),
            ("xy", xy_input(4), vec![15]),
            ("figure2", figure2_input(4), vec![3, 63]),
        ],
        None,
    );
    let (first, repeat) = (&served[0], &served[2]);
    assert!(first.work_units > 0, "{first:?}");
    assert!(first.stages.values().any(|&(_, misses)| misses > 0));
    assert_eq!(repeat.schedule, first.schedule);
    assert!(
        repeat.stages.values().any(|&(hits, _)| hits > 0),
        "{repeat:?}"
    );
    assert!(
        repeat.stages.values().all(|&(_, misses)| misses == 0),
        "{repeat:?}"
    );
    assert_eq!(repeat.work_units, 0, "{repeat:?}");
}

/// Two sessions serving concurrently, their `serve` calls forced to
/// interleave request by request with a barrier: each request's
/// schedule, stage hits and misses and charged work
/// are those of the same requests served solo.
#[test]
fn concurrent_sessions_serve_what_solo_sessions_serve() {
    let reqs_a: Vec<Request> = vec![
        ("figure2", figure2_input(4), vec![3, 63]),
        ("xy", xy_input(4), vec![15]),
    ];
    let reqs_b: Vec<Request> = vec![
        ("stencil", stencil_input(16, 4), vec![3, 63]),
        ("lu", lu_input(4), vec![16]),
    ];

    let barrier = Barrier::new(2);
    let (conc_a, conc_b) = std::thread::scope(|s| {
        let a = s.spawn(|| serve_all(&reqs_a, Some(&barrier)));
        let b = s.spawn(|| serve_all(&reqs_b, Some(&barrier)));
        (a.join().expect("session a"), b.join().expect("session b"))
    });

    let solo_a = serve_all(&reqs_a, None);
    let solo_b = serve_all(&reqs_b, None);
    assert_eq!(conc_a, solo_a, "session A diverged from solo");
    assert_eq!(conc_b, solo_b, "session B diverged from solo");
    assert!(
        [&solo_a, &solo_b]
            .iter()
            .all(|served| served.iter().all(|s| s.work_units > 0)),
        "every request here is a first request and charges work"
    );
}
