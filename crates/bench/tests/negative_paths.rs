//! Exit-code audit for the validator binaries: every failure path must
//! exit nonzero *and* print the violated invariant, so shell scripts (and
//! CI) can gate on them without parsing stdout. Each test drives one
//! binary down a failure path via `CARGO_BIN_EXE_*` and asserts both
//! properties.
//!
//! The gate modes (`dmc-journal`, `perfstats --check`) additionally
//! follow the shared exit-code convention — **0** clean, **1** drift,
//! **2** usage-or-parse — and these tests pin the exact code on every
//! path, so CI can distinguish
//! "a metric regressed" from "the gate itself could not run".

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmpdir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("negative-paths");
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_fails(out: &Output, needle: &str, what: &str) {
    assert!(
        !out.status.success(),
        "{what}: expected a nonzero exit, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{what}: stderr must name the invariant (expected {needle:?}):\n{stderr}"
    );
}

/// Like [`assert_fails`], but pins the exact exit code (1 = drift,
/// 2 = usage-or-parse).
fn assert_code(out: &Output, code: i32, needle: &str, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: expected exit code {code}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{what}: stderr must name the invariant (expected {needle:?}):\n{stderr}"
    );
}

/// `dmc-trace --check` with an unknown workload: nonzero, names the
/// accepted set.
#[test]
fn trace_rejects_unknown_workload() {
    let out = run(
        env!("CARGO_BIN_EXE_dmc-trace"),
        &[
            "--workload",
            "nope",
            "--out-dir",
            tmpdir().to_str().unwrap(),
            "--check",
        ],
    );
    assert_fails(&out, "no such workload", "dmc-trace");
}

/// The workload harnesses answer a command line they cannot parse — an
/// unknown flag, a flag without its value, a malformed count — like the
/// gate binaries do: their usage on stderr and exit **2**, no panic.
/// The worker-count flag went with the per-read fan-out and is an unknown
/// flag like any other, not silently accepted.
#[test]
fn harness_usage_errors_exit_2() {
    // In two pieces so that a grep for the flag finds only live uses.
    let retired_flag = concat!("--", "threads");
    let bins = [
        ("dmc-trace", env!("CARGO_BIN_EXE_dmc-trace")),
        ("dmc-profile", env!("CARGO_BIN_EXE_dmc-profile")),
        ("dmc-critpath", env!("CARGO_BIN_EXE_dmc-critpath")),
        ("dmc-session", env!("CARGO_BIN_EXE_dmc-session")),
    ];
    for (name, bin) in bins {
        let usage = format!("usage: {name}");
        for args in [
            &["--bogus"][..],
            &["--out-dir"],
            &["--workload", "stencil", retired_flag, "4"],
        ] {
            let out = run(bin, args);
            assert_code(&out, 2, &usage, &format!("{name} {args:?}"));
            assert!(
                !String::from_utf8_lossy(&out.stderr).contains("panicked"),
                "{name} {args:?}: a usage error is not a panic: {out:?}"
            );
        }
    }
    for (name, bin) in [bins[1], bins[2]] {
        let out = run(bin, &["--top", "many"]);
        assert_code(
            &out,
            2,
            &format!("usage: {name}"),
            &format!("{name} --top many"),
        );
    }
}

/// `dmc-profile` with an unknown workload: nonzero, names the accepted set.
#[test]
fn profile_rejects_unknown_workload() {
    let out = run(
        env!("CARGO_BIN_EXE_dmc-profile"),
        &[
            "--workload",
            "nope",
            "--out-dir",
            tmpdir().to_str().unwrap(),
        ],
    );
    assert_fails(&out, "no such workload", "dmc-profile");
}

/// `dmc-journal` failure paths: usage errors, a missing journal, a
/// corrupted journal line (one stderr line naming the 1-based line
/// number, no backtrace), and a journal whose deterministic fields were
/// tampered with each exit nonzero with the invariant on stderr —
/// usage/parse paths with code 2, drift with code 1.
#[test]
fn journal_fails_cleanly() {
    let bin = env!("CARGO_BIN_EXE_dmc-journal");
    let dir = tmpdir();

    let out = run(bin, &["--bogus"]);
    assert_code(&out, 2, "unknown argument", "dmc-journal usage");

    let out = run(bin, &[]);
    assert_code(&out, 2, "nothing to do", "dmc-journal no mode");

    let out = run(bin, &["--replay", "/nonexistent/journal.jsonl"]);
    assert_code(
        &out,
        2,
        "read /nonexistent/journal.jsonl",
        "dmc-journal missing file",
    );

    // A corrupted line: strict parsing names the 1-based line and the
    // gate fails without a panic backtrace.
    let good = concat!(
        r#"{"seq":0,"workload":"xy","nproc":4,"params":[15],"#,
        r#""program_fp":"0123456789abcdef0123456789abcdef","#,
        r#""decomp_fp":"0123456789abcdef0123456789abcdef","#,
        r#""grid_fp":"0123456789abcdef0123456789abcdef","#,
        r#""options_fp":"0123456789abcdef0123456789abcdef","#,
        r#""stage_hits":0,"stage_misses":9,"work_units":10,"messages":1,"#,
        r#""transmissions":1,"words":1,"#,
        r#""schedule_fp":"0123456789abcdef0123456789abcdef","wall_us":5}"#,
    );
    let corrupt = dir.join("corrupt.jsonl");
    std::fs::write(&corrupt, format!("{good}\n{}\n", &good[..good.len() / 2]))
        .expect("write fixture");
    let out = run(bin, &["--replay", corrupt.to_str().unwrap()]);
    assert_code(&out, 2, "journal line 2", "dmc-journal corrupt line");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "corruption must fail without a panic backtrace:\n{stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "corruption is a one-line diagnostic:\n{stderr}"
    );

    // Tampered deterministic field: --diff against the original catches
    // it and names the field.
    let tampered = dir.join("tampered.jsonl");
    std::fs::write(
        &tampered,
        format!(
            "{}\n",
            good.replace("\"work_units\":10", "\"work_units\":11")
        ),
    )
    .expect("write fixture");
    let original = dir.join("original.jsonl");
    std::fs::write(&original, format!("{good}\n")).expect("write fixture");
    let out = run(
        bin,
        &[
            "--diff",
            original.to_str().unwrap(),
            tampered.to_str().unwrap(),
        ],
    );
    assert_code(&out, 1, "work_units: 10 != 11", "dmc-journal diff gate");

    // A clean self-diff exits 0.
    let out = run(
        bin,
        &[
            "--diff",
            original.to_str().unwrap(),
            original.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "self-diff must exit 0: {out:?}");
}

/// `perfstats --check` exits 2 before measuring anything on a command line
/// it cannot parse, a snapshot it cannot read and a snapshot that is not
/// JSON; a snapshot one field off exits 1 naming the field's path and both
/// values, without a panic backtrace (the stderr is read by humans in CI
/// logs).
#[test]
fn perfstats_check_fails_cleanly() {
    let bin = env!("CARGO_BIN_EXE_perfstats");
    let dir = tmpdir();

    let out = run(bin, &["--check", "--bogus"]);
    assert_code(&out, 2, "usage: perfstats", "perfstats --check --bogus");
    let out = run(bin, &["--check", "a.json", "--out", "b.json"]);
    assert_code(&out, 2, "usage: perfstats", "perfstats --check --out");

    let out = run(bin, &["--check", "/nonexistent/BENCH.json"]);
    assert_code(
        &out,
        2,
        "read /nonexistent/BENCH.json",
        "perfstats --check missing file",
    );

    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json at all").expect("write fixture");
    let garbage = garbage.to_str().unwrap();
    let out = run(bin, &["--check", garbage]);
    assert_code(
        &out,
        2,
        &format!("{garbage}: bad literal at line 1 column 1"),
        "perfstats --check malformed snapshot",
    );

    // lu is the first workload; its work_units the first in the file.
    let committed = std::fs::read_to_string(snapshot_path()).expect("read snapshot");
    let needle = "\"work_units\": ";
    let at = committed.find(needle).expect("snapshot has work_units") + needle.len();
    let end = at + committed[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let units: u64 = committed[at..end].parse().expect("parse work_units");
    let drifted = dir.join("BENCH_drifted.json");
    let text = format!("{}{}{}", &committed[..at], units + 1, &committed[end..]);
    std::fs::write(&drifted, text).expect("write fixture");
    let out = perfstats_check(drifted.to_str().unwrap(), "drifted");
    assert_code(
        &out,
        1,
        &format!("workloads[0].work_units: {} -> {units}", units + 1),
        "perfstats --check one field off",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "drift must fail without a panic backtrace:\n{stderr}"
    );
    assert_eq!(stderr.lines().count(), 2, "one finding: {stderr}");
}

/// The committed snapshot is what the code produces: `perfstats --check`
/// reproduces every field of it and exits 0.
#[test]
fn perfstats_check_passes_on_the_committed_snapshot() {
    let out = perfstats_check(snapshot_path().to_str().unwrap(), "committed");
    assert_eq!(
        out.status.code(),
        Some(0),
        "the committed snapshot must reproduce exactly:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
}

/// `perfstats --check SNAPSHOT`, with the store pass in its own directory.
fn perfstats_check(snapshot: &str, name: &str) -> Output {
    let cache_dir = tmpdir().join(format!("perfstats-store-{name}"));
    run(
        env!("CARGO_BIN_EXE_perfstats"),
        &[
            "--check",
            snapshot,
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ],
    )
}

/// `perfstats` rejects what it cannot parse — an unknown flag, a flag
/// without its value — with one usage line and exit **2**, before
/// measuring anything (a typo must never run the harness and overwrite
/// the committed snapshot).
#[test]
fn perfstats_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_perfstats");
    let out_path = tmpdir().join("perfstats-must-not-write.json");
    let _ = std::fs::remove_file(&out_path);
    let out = run(bin, &["--bogus", "--out", out_path.to_str().unwrap()]);
    assert_code(&out, 2, "usage: perfstats", "perfstats with unknown flag");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().count(),
        1,
        "usage is a one-line diagnostic: {out:?}"
    );
    assert!(
        !out_path.exists(),
        "a usage error must not measure or write"
    );
    let out = run(bin, &["--out"]);
    assert_code(
        &out,
        2,
        "usage: perfstats",
        "perfstats with value-less flag",
    );
}

/// `dmc-store` follows the shared exit-code convention: **2** for usage
/// errors (no mode, malformed flags), **1** when the store itself cannot
/// be opened or a `--check` invariant fails.
#[test]
fn store_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_dmc-store");
    // No --cache-dir and no --check: nothing to do.
    let out = run(bin, &[]);
    assert_code(&out, 2, "usage: dmc-store", "store without a mode");
    // Unknown flag.
    let out = run(bin, &["--bogus"]);
    assert_code(&out, 2, "usage: dmc-store", "store with unknown flag");
    // Malformed byte bound.
    let out = run(bin, &["--cache-dir", "x", "--max-bytes", "lots"]);
    assert_code(&out, 2, "usage: dmc-store", "store with bad --max-bytes");
}

/// `dmc-store` with an unopenable cache directory: exit **1**, stderr
/// names the path.
#[test]
fn store_unopenable_dir_exits_1() {
    let dir = tmpdir();
    // A regular file where the store root should be.
    let clash = dir.join("store-root-clash");
    std::fs::write(&clash, b"not a directory").expect("write clash file");
    let out = run(
        env!("CARGO_BIN_EXE_dmc-store"),
        &["--cache-dir", clash.to_str().unwrap()],
    );
    assert_code(&out, 1, "cannot open store", "store rooted at a file");
}
