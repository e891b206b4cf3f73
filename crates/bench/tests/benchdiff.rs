//! The bench regression gate end to end: the committed snapshot self-diffs
//! clean through the `dmc-bench-diff` binary, and an injected 20%
//! `schedule_ms` regression makes it exit nonzero.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // crates/bench -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn snapshot_path() -> PathBuf {
    repo_root().join("BENCH_pipeline.json")
}

fn bench_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dmc-bench-diff"))
        .args(args)
        .output()
        .expect("spawn")
}

#[test]
fn committed_snapshot_self_diffs_clean() {
    let snap = snapshot_path();
    let snap = snap.to_str().expect("utf-8 path");
    let out = bench_diff(&[snap, snap]);
    assert!(
        out.status.success(),
        "self-diff must pass:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn injected_schedule_regression_fails_the_gate() {
    let original = std::fs::read_to_string(snapshot_path()).expect("read snapshot");
    // Inflate the first schedule_ms by 20% — past the 15% default tolerance.
    let needle = "\"schedule_ms\": ";
    let at = original.find(needle).expect("snapshot has schedule_ms") + needle.len();
    let end = at
        + original[at..]
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .expect("number");
    let old: f64 = original[at..end].parse().expect("parse schedule_ms");
    let regressed = format!("{}{:.3}{}", &original[..at], old * 1.2, &original[end..]);

    let dir = std::env::temp_dir().join("dmc-benchdiff-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fixture = dir.join("BENCH_regressed.json");
    std::fs::write(&fixture, regressed).expect("write fixture");

    let snap = snapshot_path();
    let out = bench_diff(&[snap.to_str().unwrap(), fixture.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "a 20% schedule_ms regression must fail the gate"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schedule_ms regressed"), "{stderr}");

    // A wider tolerance waves the same fixture through.
    let out = bench_diff(&[
        snap.to_str().unwrap(),
        fixture.to_str().unwrap(),
        "--time-tol",
        "0.5",
    ]);
    assert!(
        out.status.success(),
        "20% is inside a 50% tolerance:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn correctness_drift_fails_regardless_of_tolerance() {
    let original = std::fs::read_to_string(snapshot_path()).expect("read snapshot");
    let needle = "\"words\": ";
    let at = original.find(needle).expect("snapshot has words") + needle.len();
    let end = at
        + original[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number");
    let old: u64 = original[at..end].parse().expect("parse words");
    let drifted = format!("{}{}{}", &original[..at], old + 1, &original[end..]);

    let dir = std::env::temp_dir().join("dmc-benchdiff-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fixture = dir.join("BENCH_drifted.json");
    std::fs::write(&fixture, drifted).expect("write fixture");

    let snap = snapshot_path();
    let out = bench_diff(&[
        snap.to_str().unwrap(),
        fixture.to_str().unwrap(),
        "--time-tol",
        "100",
    ]);
    assert!(
        !out.status.success(),
        "message-count drift must fail at any time tolerance"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("words changed"));
}

/// Snapshots from before the uncached engine mode and the per-read
/// fan-out were deleted carry a per-workload `baseline` section and
/// `speedup`, and a top-level `threads` section; all three are retired, so
/// such a snapshot gates clean against the committed one however slow its
/// baseline or its sequential compile was.
#[test]
fn pre_retirement_snapshot_with_baseline_gates_clean() {
    let committed = std::fs::read_to_string(snapshot_path()).expect("read snapshot");
    assert!(!committed.contains("\"baseline\""), "baseline is retired");
    assert!(!committed.contains("\"threads\""), "threads is retired");
    let with_baseline = committed.replace(
        "     \"identical\": true,\n",
        "     \"baseline\": {\"compile_ms\": 1.0, \"schedule_ms\": 1.0, \"total_ms\": 2.0},\n     \
         \"speedup\": 0.01, \"identical\": true,\n",
    );
    assert_ne!(with_baseline, committed, "every workload gained a baseline");
    let old = with_baseline.replace(
        "  \"sweep\":",
        "  \"threads\": {\"available\": 2, \"workers_used\": 2, \"sequential_ms\": 0.001, \
         \"parallel_ms\": 40.641, \"comparison\": \"measured\", \"identical\": true},\n  \"sweep\":",
    );
    assert_ne!(old, with_baseline, "the snapshot gained a threads section");

    let dir = std::env::temp_dir().join("dmc-benchdiff-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fixture = dir.join("BENCH_with_baseline.json");
    std::fs::write(&fixture, old).expect("write fixture");
    let snap = snapshot_path();
    let out = bench_diff(&[fixture.to_str().unwrap(), snap.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "retired fields must not gate:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
