//! The explain report, byte for byte: `dmc explain --workload figure2`
//! writes exactly the committed `explain_figure2.md`. The report is
//! deterministic — simulated time, integer-nanosecond critical path,
//! exact work units — so any moved byte is a changed report: a section
//! rendered differently, a message attributed elsewhere, a different
//! plan. When a change moves it on purpose, regenerate the golden with
//! `dmc explain --workload figure2 --out-dir <dir>` and say why.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn figure2_report_matches_the_golden() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-golden");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_dmc"))
        .args(["explain", "--workload", "figure2", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("dmc runs");
    assert!(
        out.status.success(),
        "dmc explain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(dir.join("explain_figure2.md")).expect("report written");
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
