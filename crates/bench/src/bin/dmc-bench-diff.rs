//! Bench regression gate: compares two `BENCH_pipeline.json` snapshots
//! and exits nonzero when anything regressed beyond tolerance.
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-bench-diff -- \
//!     BENCH_pipeline.json target/new/BENCH_pipeline.json --time-tol 0.15
//! ```
//!
//! Correctness fields (message/transmission/word counts, simulated time,
//! the `identical` flags) and the deterministic `work_units` totals must
//! match exactly; timing fields pass within `--time-tol` (relative,
//! default 0.15); other engine counters are not diffed. See
//! [`dmc_bench::diff`] for the full policy.
//!
//! Exit codes follow the shared observability-gate convention: **0**
//! when the snapshots agree within tolerance, **1** when anything
//! drifted (each violated invariant printed to stderr), **2** on usage
//! errors and unreadable or malformed inputs. CI can therefore tell "a
//! metric regressed" apart from "the gate itself could not run".

use std::process::ExitCode;

use dmc_bench::diff::{diff_snapshots, Tolerances};

/// Prints the problem and exits 2 (usage/parse — the gate could not
/// run; no panic backtrace: this binary is a CI gate, its stderr is
/// read by humans).
macro_rules! fail {
    ($($arg:tt)*) => {{
        eprintln!("bench-diff: {}", format_args!($($arg)*));
        return ExitCode::from(2);
    }};
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut tol = Tolerances::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--time-tol" => {
                let Some(v) = args.next() else {
                    fail!("--time-tol needs a ratio")
                };
                let Ok(r) = v.parse() else {
                    fail!("--time-tol: {v:?} is not a number")
                };
                tol.time_rel = r;
            }
            other if !other.starts_with('-') => paths.push(other.to_owned()),
            other => fail!(
                "unknown argument: {other} \
                 (usage: dmc-bench-diff OLD.json NEW.json [--time-tol R])"
            ),
        }
    }
    if paths.len() != 2 {
        fail!("need exactly OLD.json and NEW.json (got {})", paths.len());
    }
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Ok(s),
        Err(e) => Err(format!("read {path}: {e}")),
    };

    let snapshots = (|| {
        let old = read(&paths[0])?;
        let new = read(&paths[1])?;
        diff_snapshots(&old, &new, &tol)
    })();
    let findings = match snapshots {
        Ok(f) => f,
        Err(e) => fail!("{e}"),
    };

    if findings.is_empty() {
        println!(
            "bench-diff ok: {} vs {} (time tolerance {:.0}%)",
            paths[0],
            paths[1],
            tol.time_rel * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-diff: {} regression(s):", findings.len());
        for f in &findings {
            eprintln!("  - {f}");
        }
        ExitCode::from(1)
    }
}
