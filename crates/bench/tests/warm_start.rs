//! Two-process warm start: the persistent artifact store must carry a
//! session's artifacts across process boundaries. The first `dmc session`
//! process populates a cache directory; a second process with cold memory
//! must serve at least half of its stage lookups from disk, recompute
//! nothing, load every artifact the first one computed, and still match
//! the one-shot pipeline byte for byte (`--check` enforces the identity
//! oracle in both runs).

use std::path::PathBuf;
use std::process::Output;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn run_session(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_dmc"))
        .args([
            "session",
            "--workload",
            "xy",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--check",
        ])
        .output()
        .expect("dmc session runs")
}

/// Parses `N hit(s) (M from disk) / K miss(es)` from the summary line.
fn summary_counts(stdout: &str) -> (u64, u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.contains("from disk"))
        .unwrap_or_else(|| panic!("no summary line in:\n{stdout}"));
    // The count is the run of digits immediately before each marker.
    let grab = |marker: &str| -> u64 {
        let end = line
            .find(marker)
            .unwrap_or_else(|| panic!("bad summary line: {line}"));
        let digits: String = line[..end]
            .chars()
            .rev()
            .take_while(char::is_ascii_digit)
            .collect();
        let digits: String = digits.chars().rev().collect();
        digits
            .parse()
            .unwrap_or_else(|_| panic!("bad summary line: {line}"))
    };
    (grab(" hit(s)"), grab(" from disk"), grab(" miss(es)"))
}

#[test]
fn second_process_serves_from_disk_byte_identically() {
    let cache = tmpdir("warm-start-cache");
    let out1 = tmpdir("warm-start-out1");
    let out2 = tmpdir("warm-start-out2");

    // Process 1: cold store. Everything computed is written through; no
    // disk hits are possible.
    let cold = run_session(&out1, &cache);
    assert!(
        cold.status.success(),
        "cold run failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_out = String::from_utf8_lossy(&cold.stdout).into_owned();
    let (_, cold_disk, cold_misses) = summary_counts(&cold_out);
    assert_eq!(
        cold_disk, 0,
        "cold process cannot hit the disk layer:\n{cold_out}"
    );
    assert!(
        cold_misses > 0,
        "cold process must compute something:\n{cold_out}"
    );

    // Process 2: cold memory, warm store. At least half of all stage
    // lookups must be served from disk and nothing recomputed; --check
    // already asserted byte identity against the one-shot pipeline.
    let warm = run_session(&out2, &cache);
    assert!(
        warm.status.success(),
        "warm run failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&warm.stdout),
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_out = String::from_utf8_lossy(&warm.stdout).into_owned();
    let (warm_hits, warm_disk, warm_misses) = summary_counts(&warm_out);
    assert_eq!(
        warm_misses, 0,
        "warm process recomputed a stage:\n{warm_out}"
    );
    assert!(
        2 * warm_disk >= warm_hits + warm_misses,
        "warm process served only {warm_disk}/{} lookups from disk:\n{warm_out}",
        warm_hits + warm_misses
    );
    // Store what a request loads: every stage the first process computed
    // (and wrote through), the second one reads back — once, the memory
    // layer serves the repeats. A stage nobody reads fails here.
    assert_eq!(
        warm_disk, cold_misses,
        "the warm process loaded {warm_disk} of the {cold_misses} artifact(s) the cold one \
         stored:\n{warm_out}"
    );

    // Both processes compiled the same inputs identically, so the traced
    // explain reports agree except for reuse provenance: the warm one
    // must carry the Persistent reuse subsection, the cold one must not.
    let cold_report = std::fs::read_to_string(out1.join("session_xy.md")).expect("cold report");
    let warm_report = std::fs::read_to_string(out2.join("session_xy.md")).expect("warm report");
    assert!(
        !cold_report.contains("### Persistent reuse"),
        "{cold_report}"
    );
    assert!(
        warm_report.contains("### Persistent reuse"),
        "{warm_report}"
    );
}
