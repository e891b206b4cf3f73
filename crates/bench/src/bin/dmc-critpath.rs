//! Critical-path & blame harness: runs the perfstats workloads through
//! the full pipeline, rebuilds each simulated run as an exact
//! integer-nanosecond event-dependency DAG (`dmc_machine::critpath`), and
//! writes per workload a blame report (the explain report with its
//! `## Critical path` section).
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-critpath
//! cargo run --release -p dmc-bench --bin dmc-critpath -- --workload lu \
//!     --out-dir target/critpath --check
//! ```
//!
//! `--check` asserts, per workload, every exact invariant of the
//! analysis:
//!
//! - the event DAG is acyclic and its longest path equals the stored
//!   makespan equals the simulator's finish time, exactly;
//! - an event has zero slack iff it lies on a critical path, and the
//!   canonical critical chain is gapless from time 0 to the makespan;
//! - every processor's six blame categories (compute, α, β, contention,
//!   recv-wait, drain) sum exactly to the makespan, and the machine
//!   total the snapshot reports to `nproc × makespan`;
//! - every what-if's incremental DAG re-evaluation matches a brute-force
//!   full forward pass, including slack-pruned ones;
//! - the explain report carries the critical-path section.

use std::path::PathBuf;

use dmc_bench::{usage_error, workloads, Workload};
use dmc_core::{build_schedule, compile, run, Options};
use dmc_machine::{critpath, MachineConfig, Schedule, SimStats};
use dmc_obs as obs;

const LIMIT: usize = 50_000_000;
const USAGE: &str =
    "usage: dmc-critpath [--workload NAME|all] [--out-dir PATH] [--check] [--top N]";

struct Captured {
    trace: obs::Trace,
    schedule: Schedule,
    stats: SimStats,
}

/// Compiles, schedules and simulates one workload under an observability
/// capture, returning the trace plus the exact schedule and simulator
/// statistics the DAG analysis must agree with.
fn capture(w: &Workload) -> Captured {
    obs::start_capture();
    let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
    let schedule = build_schedule(&compiled, &w.params, false, LIMIT).expect("schedules");
    let result = run(
        &compiled,
        &w.params,
        &MachineConfig::ipsc860(),
        false,
        LIMIT,
    )
    .expect("simulates");
    Captured {
        trace: obs::finish_capture(),
        schedule,
        stats: result.stats,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which: Option<String> = None;
    let mut out_dir = PathBuf::from("target/dmc-critpath");
    let mut check = false;
    let mut top = 3usize;
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage_error(USAGE));
        match a.as_str() {
            "--workload" => which = Some(value()),
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--check" => check = true,
            "--top" => top = value().parse().unwrap_or_else(|_| usage_error(USAGE)),
            _ => usage_error(USAGE),
        }
    }

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let selected: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| which.as_deref().is_none_or(|n| n == "all" || n == w.name))
        .collect();
    assert!(
        !selected.is_empty(),
        "no such workload (lu, stencil, figure2, xy, all)"
    );

    let config = MachineConfig::ipsc860();
    for w in &selected {
        let cap = capture(w);
        let crit = critpath::analyze(&cap.schedule, &config)
            .unwrap_or_else(|e| panic!("{}: analysis failed: {e:?}", w.name));

        let report = obs::explain_report(&cap.trace, w.name);
        let report_path = out_dir.join(format!("critpath_{}.md", w.name));
        std::fs::write(&report_path, &report).expect("write report");

        if check {
            crit.verify(&cap.stats)
                .unwrap_or_else(|e| panic!("{}: invariant violated: {e}", w.name));
            crit.verify_what_ifs()
                .unwrap_or_else(|e| panic!("{}: what-if mismatch: {e}", w.name));
            assert!(
                report.contains("## Critical path"),
                "{}: report is missing the critical-path section",
                w.name
            );
            println!(
                "{:<10} ok: {} event(s), path {}, makespan {} ns == longest path == sim; \
                 blame exact on {} proc(s)",
                w.name,
                crit.events.len(),
                crit.chain.len(),
                crit.makespan_ns,
                crit.nproc
            );
        } else {
            let ms = crit.makespan_ns as f64 / 1e6;
            println!(
                "{:<10} makespan {ms:.3} ms, {} event(s), {} critical, path {}",
                w.name,
                crit.events.len(),
                crit.critical_events(),
                crit.chain.len()
            );
            let shares: Vec<String> = {
                let cats = crit.total.categories();
                let total: u64 = cats.iter().map(|(_, v)| v).sum();
                cats.iter()
                    .map(|(c, v)| format!("{c} {:.1}%", 100.0 * *v as f64 / total.max(1) as f64))
                    .collect()
            };
            println!("           blame: {}", shares.join(", "));
            for wi in crit.what_if().iter().take(top) {
                println!(
                    "           what-if {} m{}: makespan -{:.3} ms",
                    wi.scenario.name(),
                    wi.msg,
                    wi.win_ns as f64 / 1e6
                );
            }
            println!("           -> {}", report_path.display());
        }
    }
}
