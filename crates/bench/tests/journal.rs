//! Request-scoped observability, end to end on real workloads:
//!
//! * **isolation** — two sessions compiling concurrently on different
//!   workloads, each under its own thread's capture, each capture only
//!   their own pipeline, and each trace's deterministic view is
//!   byte-identical to the same workload compiled solo;
//! * **journal determinism** — replaying a journaling session's requests
//!   through a fresh session reproduces every deterministic journal
//!   field (fingerprints, stage hits/misses, work units, message
//!   statistics, schedule fingerprints) byte-for-byte;
//! * **`dmc journal`** — `--check`, `--replay` and `--diff` succeed on a
//!   real journal (`negative_paths.rs` pins its failure paths).
//!
//! A capture is the calling thread's, so the isolation tests here run
//! concurrently and serialize on nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

use dmc_bench::{figure2_input, lu_input, stencil_input, xy_input};
use dmc_core::{CompileInput, Options, Session};

const LIMIT: usize = 50_000_000;

fn tmpdir(sub: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(sub);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

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

/// The journal round-trips through its JSONL rendering, and a fresh
/// session serving the same requests reproduces every deterministic
/// field — including when the original session enjoyed stage-cache hits
/// the replay must reproduce (same request twice).
#[test]
fn journal_replays_byte_identically_through_a_fresh_session() {
    let requests: Vec<(&str, CompileInput, Vec<i128>)> = vec![
        ("figure2", figure2_input(4), vec![3, 63]),
        ("xy", xy_input(4), vec![15]),
        ("figure2", figure2_input(4), vec![3, 63]),
    ];
    let serve_all = || {
        let mut session = Session::new();
        session.set_journal(true);
        for (name, input, params) in &requests {
            session
                .serve(name, input.clone(), Options::full(), params, LIMIT)
                .expect("serves");
        }
        session
    };
    let original = serve_all();
    assert_eq!(original.journal().len(), 3);
    // The repeated request is served from the stage cache...
    let repeat = &original.journal()[2];
    assert!(
        repeat.stage_hits > 0 && repeat.stage_misses == 0,
        "{repeat:?}"
    );
    // ...and costs no charged engine work.
    assert_eq!(repeat.work_units, 0, "{repeat:?}");

    // JSONL round-trip.
    let text = original.journal_text();
    let parsed = dmc_obs::journal::parse_journal(&text).expect("parses");
    assert_eq!(parsed, original.journal());

    // Fresh-session replay: every deterministic field reproduces.
    let replayed = serve_all();
    for (a, b) in original.journal().iter().zip(replayed.journal()) {
        assert!(
            a.deterministic_eq(b),
            "seq {}: replay diverged: {:?}",
            a.seq,
            a.field_diffs(b)
        );
    }

    // The journal rolls the session up: one row per request, the rows'
    // stage hits and misses tile the session's totals, and the parsed
    // rows carry the same work units as the in-memory ones.
    let rows = original.journal();
    let sum = |f: fn(&dmc_obs::JournalRecord) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(rows.len(), 3);
    assert_eq!(sum(|r| r.stage_hits), original.stats().stage_hits);
    assert_eq!(sum(|r| r.stage_misses), original.stats().stage_misses);
    assert_eq!(
        parsed.iter().map(|r| r.work_units).sum::<u64>(),
        sum(|r| r.work_units)
    );
    assert!(sum(|r| r.stage_hits) > 0);
}

/// Two sessions journaling concurrently, their `serve()` calls forced to
/// interleave round-by-round with a barrier: each journal holds exactly
/// its own rows (no cross-session leakage, per-session sequence numbers),
/// and each replays byte-identically through a fresh solo session.
#[test]
fn concurrent_scoped_sessions_journal_without_leaking_rows() {
    use std::sync::Barrier;

    let reqs_a: Vec<(&str, CompileInput, Vec<i128>)> = vec![
        ("figure2", figure2_input(4), vec![3, 63]),
        ("xy", xy_input(4), vec![15]),
    ];
    let reqs_b: Vec<(&str, CompileInput, Vec<i128>)> = vec![
        ("stencil", stencil_input(16, 4), vec![3, 63]),
        ("lu", lu_input(4), vec![16]),
    ];
    let serve_all = |reqs: &[(&str, CompileInput, Vec<i128>)], barrier: Option<&Barrier>| {
        let mut session = Session::new();
        session.set_journal(true);
        for (name, input, params) in reqs {
            if let Some(b) = barrier {
                b.wait();
            }
            session
                .serve(name, input.clone(), Options::full(), params, LIMIT)
                .expect("serves");
        }
        session
    };

    let barrier = Barrier::new(2);
    let (sa, sb) = std::thread::scope(|s| {
        let a = s.spawn(|| serve_all(&reqs_a, Some(&barrier)));
        let b = s.spawn(|| serve_all(&reqs_b, Some(&barrier)));
        (a.join().expect("session a"), b.join().expect("session b"))
    });

    // Each journal holds exactly its own requests, in request order, with
    // its own dense sequence numbers — not one row from the other session.
    let names = |s: &Session| {
        s.journal()
            .iter()
            .map(|r| r.workload.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&sa), ["figure2", "xy"], "session A leaked rows");
    assert_eq!(names(&sb), ["stencil", "lu"], "session B leaked rows");
    for session in [&sa, &sb] {
        for (k, r) in session.journal().iter().enumerate() {
            assert_eq!(r.seq, k as u64, "per-session seq numbering");
        }
    }

    // Each concurrent journal replays byte-identically (wall time aside)
    // through a fresh solo session: the interleaving left no trace.
    let solo_a = serve_all(&reqs_a, None);
    let solo_b = serve_all(&reqs_b, None);
    for (conc, solo) in [(&sa, &solo_a), (&sb, &solo_b)] {
        assert_eq!(conc.journal().len(), solo.journal().len());
        for (x, y) in conc.journal().iter().zip(solo.journal()) {
            assert!(
                x.deterministic_eq(y),
                "seq {} ({}): concurrent journal diverged from solo: {:?}",
                x.seq,
                x.workload,
                x.field_diffs(y)
            );
        }
    }
}

fn run_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmc"))
        .arg("journal")
        .args(args)
        .output()
        .expect("dmc journal runs")
}

/// `dmc journal` end to end: `--check` writes a journal that `--replay` and
/// a self `--diff` both accept.
#[test]
fn journal_binary_check_replay_and_diff_pass() {
    let dir = tmpdir("journal-bin");
    let out = run_bin(&["--check", "--out-dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "--check failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let journal = dir.join("journal.jsonl");
    let out = run_bin(&["--replay", journal.to_str().unwrap()]);
    assert!(out.status.success(), "--replay failed: {out:?}");
    let out = run_bin(&[
        "--diff",
        journal.to_str().unwrap(),
        journal.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "self --diff failed: {out:?}");
}
