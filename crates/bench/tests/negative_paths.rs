//! Exit-code audit for the `dmc` binary. Every subcommand follows one
//! convention — **0** clean, **1** an invariant failed, **2** the command
//! line or an input file could not be used — and every failure names
//! itself on stderr without a panic, so scripts and CI can gate on the
//! code and tell "a check failed" apart from "the check could not run".
//! Each test below is a table over the subcommands.

use std::path::PathBuf;
use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 5] = ["figures", "explain", "store", "snapshot", "check"];

fn tmpdir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("negative-paths");
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn dmc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmc"))
        .args(args)
        .output()
        .expect("dmc runs")
}

/// Pins the exit code and that stderr names the failure, without a panic.
fn assert_code(out: &Output, code: i32, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: expected exit code {code}\nstdout: {}\nstderr: {stderr}",
        String::from_utf8_lossy(&out.stdout),
    );
    assert!(
        stderr.contains(needle),
        "{what}: stderr must name the failure (expected {needle:?}):\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{what}: a failure is not a panic:\n{stderr}"
    );
}

/// `dmc` without a subcommand, or with one it does not know, exits 2 and
/// lists every subcommand, one usage line each. The journal subcommand is
/// gone with the compile journal, and the session subcommand with its
/// sweep (the snapshot's `sweep` section): each is unknown like any other
/// name.
#[test]
fn missing_or_unknown_subcommand_exits_2_listing_them() {
    let retired = ["journal", "session"];
    for args in [
        &[][..],
        &["bogus"],
        &["--check"],
        &[retired[0], "--check"],
        &[retired[1], "--workload", "xy"],
    ] {
        let out = dmc(args);
        let what = format!("dmc {args:?}");
        for sub in SUBCOMMANDS {
            assert_code(&out, 2, &format!("dmc {sub}"), &what);
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1 + SUBCOMMANDS.len(), "{what}");
        for name in retired {
            assert!(!stderr.contains(&format!("dmc {name}")), "{what}");
        }
    }
}

/// A command line a subcommand cannot parse — an unknown flag, a flag
/// without its value, a malformed number, an unknown workload, no mode,
/// two modes — exits 2 with its usage before anything is measured. The
/// worker-count flag went with the per-read fan-out and is an unknown
/// flag like any other.
#[test]
fn usage_errors_exit_2() {
    // In two pieces so that a grep for the flag finds only live uses.
    let retired_flag = concat!("--", "threads");
    let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
    for sub in SUBCOMMANDS {
        cases.push((vec![sub, "--bogus"], ""));
    }
    cases.extend([
        (vec!["explain", "--out-dir"], ""),
        (
            vec!["explain", "--workload", "stencil", retired_flag, "4"],
            "",
        ),
        (vec!["explain", "--workload", "nope"], "no such workload"),
        // Retired flags. The Hotspots and What-if sections of
        // `explain_W.md` list the top contexts and what-ifs, the
        // snapshot's own check prints per-context work moves, and no
        // reader of a profile document remains.
        (vec!["explain", "--top", "many"], ""),
        (vec!["explain", "--diff", "BENCH_pipeline.json"], ""),
        (vec!["explain", "--json"], ""),
        (vec!["store"], "nothing to do"),
        (vec!["store", "--cache-dir", "x", "--max-bytes", "lots"], ""),
        (vec!["snapshot", "--check", "--bogus"], ""),
        (vec!["snapshot", "--check", "a.json", "--out", "b.json"], ""),
        (vec!["snapshot", "--out"], ""),
    ]);
    for (args, why) in cases {
        let out = dmc(&args);
        let what = format!("dmc {args:?}");
        assert_code(&out, 2, &format!("usage: dmc {}", args[0]), &what);
        assert_code(&out, 2, why, &what);
        let lines = String::from_utf8_lossy(&out.stderr).lines().count();
        assert_eq!(lines, 1 + usize::from(!why.is_empty()), "{what}: {out:?}");
    }
    // A typo must never run the snapshot and overwrite a file.
    let out_path = tmpdir().join("snapshot-must-not-write.json");
    let _ = std::fs::remove_file(&out_path);
    let out = dmc(&["snapshot", "--bogus", "--out", out_path.to_str().unwrap()]);
    assert_code(&out, 2, "usage: dmc snapshot", "snapshot with unknown flag");
    assert!(
        !out_path.exists(),
        "a usage error must not measure or write"
    );
}

/// An input file that cannot be read or parsed exits 2 with one stderr
/// line naming it, before anything is measured: a missing snapshot, a
/// snapshot that is not JSON.
#[test]
fn unreadable_inputs_exit_2() {
    let garbage = tmpdir().join("garbage.json");
    std::fs::write(&garbage, "not json at all").expect("write fixture");
    let garbage = garbage.to_str().unwrap();
    let garbage_why = format!("{garbage}: bad literal at line 1 column 1");
    let cases: [(&[&str], &str); 2] = [
        (
            &["snapshot", "--check", "/nonexistent/BENCH.json"],
            "read /nonexistent/BENCH.json",
        ),
        (&["snapshot", "--check", garbage], &garbage_why),
    ];
    for (args, why) in cases {
        let out = dmc(args);
        let what = format!("dmc {args:?}");
        assert_code(&out, 2, why, &what);
        let lines = String::from_utf8_lossy(&out.stderr).lines().count();
        assert_eq!(lines, 1, "{what}: a one-line diagnostic: {out:?}");
    }
}

/// A check that runs and finds a difference exits 1 naming it: a store
/// rooted at a file, a snapshot one field off (one finding, its path and
/// both values).
#[test]
fn failed_invariants_exit_1() {
    let dir = tmpdir();
    let clash = dir.join("store-root-clash");
    std::fs::write(&clash, b"not a directory").expect("write fixture");

    // lu is the first workload; its work_units the first in the file.
    let committed = std::fs::read_to_string(snapshot_path()).expect("read snapshot");
    let needle = "\"work_units\": ";
    let at = committed.find(needle).expect("snapshot has work_units") + needle.len();
    let end = at + committed[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let units: u64 = committed[at..end].parse().expect("parse work_units");
    let drifted = dir.join("BENCH_drifted.json");
    let text = format!("{}{}{}", &committed[..at], units + 1, &committed[end..]);
    std::fs::write(&drifted, text).expect("write fixture");
    let moved = format!("workloads[0].work_units: {} -> {units}", units + 1);

    let out = dmc(&["store", "--cache-dir", clash.to_str().unwrap()]);
    assert_code(&out, 1, "cannot open store", "store rooted at a file");
    let out = snapshot_check(drifted.to_str().unwrap(), "drifted");
    assert_code(&out, 1, &moved, "snapshot --check one field off");
    let lines = String::from_utf8_lossy(&out.stderr).lines().count();
    assert_eq!(lines, 2, "one finding: {out:?}");
}

/// The committed snapshot is what the code produces: `dmc snapshot
/// --check` reproduces every field of it and exits 0.
#[test]
fn snapshot_check_passes_on_the_committed_snapshot() {
    let out = snapshot_check(snapshot_path().to_str().unwrap(), "committed");
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

/// `dmc snapshot --check SNAPSHOT`, with the store pass in its own
/// directory.
fn snapshot_check(snapshot: &str, name: &str) -> Output {
    let cache_dir = tmpdir().join(format!("snapshot-store-{name}"));
    dmc(&[
        "snapshot",
        "--check",
        snapshot,
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ])
}
