//! The explain reports, byte for byte: `dmc explain --workload figure2`
//! writes exactly the committed `explain_figure2.md`, and every other
//! report and every `profile_W.collapsed` hashes to its recorded
//! FNV-1a/128 fingerprint. The reports are deterministic — simulated
//! time, integer-nanosecond critical path, exact work units — so any
//! moved byte is a changed report: a section rendered differently, a
//! message attributed elsewhere, a different plan, a moved work unit.
//! When a change moves one on purpose, regenerate the golden with
//! `dmc explain --workload figure2 --out-dir <dir>`, re-record the
//! fingerprints the failure prints, and say why.

use std::path::{Path, PathBuf};
use std::process::Command;

use dmc_ir::fp::{fnv1a128, FNV_OFFSET};

/// Runs `dmc explain` with `args` into a fresh directory named `dir` and
/// returns it.
fn explain(dir: &str, args: &[&str]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_dmc"))
        .arg("explain")
        .args(args)
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("dmc runs");
    assert!(
        out.status.success(),
        "dmc explain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn figure2_report_matches_the_golden() {
    let dir = explain("report-golden", &["--workload", "figure2"]);
    let got = read(&dir, "explain_figure2.md");
    let want = include_str!("explain_figure2.md");
    if let Some((n, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}:\n  got:  {g}\n  want: {w}", n + 1);
    }
    assert_eq!(got, want, "the reports differ in length");
}

/// The FNV-1a/128 of each report and collapsed profile `dmc explain`
/// writes for the registry workloads (figure2's report is the golden
/// above).
const FINGERPRINTS: [(&str, u128); 7] = [
    ("explain_lu.md", 0xc693c87a7da713806f9c48277c78445c),
    ("explain_stencil.md", 0x3a5024a387c5aa6b36be62489b7a5c4b),
    ("explain_xy.md", 0x8f89c31e53b412e0136b2aa70e8652c7),
    (
        "profile_figure2.collapsed",
        0x186a471036aa843e9c940d339ced334d,
    ),
    ("profile_lu.collapsed", 0x54de763fd2d62501500394531b5d2168),
    (
        "profile_stencil.collapsed",
        0xe5df191af940c10990392d927fce0333,
    ),
    ("profile_xy.collapsed", 0xce11440d552cb35edd038f1604b25434),
];

#[test]
fn every_report_and_profile_matches_its_fingerprint() {
    let dir = explain("report-fingerprints", &[]);
    let moved: Vec<String> = FINGERPRINTS
        .iter()
        .filter_map(|&(file, want)| {
            let got = fnv1a128(FNV_OFFSET, read(&dir, file).as_bytes());
            (got != want).then(|| format!("{file}: {want:032x} -> {got:032x}"))
        })
        .collect();
    assert!(moved.is_empty(), "moved:\n  {}", moved.join("\n  "));
}
