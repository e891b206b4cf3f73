//! Trace harness: compiles the perfstats workloads with the `dmc_obs`
//! recorder on and writes, per workload, a Chrome `trace_events` JSON
//! (loadable in chrome://tracing or Perfetto) and a human-readable
//! message-provenance explain report.
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-trace
//! cargo run --release -p dmc-bench --bin dmc-trace -- --workload stencil \
//!     --out-dir target/trace --check
//! ```
//!
//! `--check` validates each Chrome trace (well-formed JSON, balanced and
//! name-matched begin/end pairs, monotonic per-lane timestamps),
//! cross-checks that the explain report attributes exactly one surviving
//! message per message of the final schedule, and verifies the machine
//! run produced one sim lane per simulated processor.

use std::path::PathBuf;

use dmc_bench::{usage_error, workloads, Workload};
use dmc_core::{build_schedule, compile, message_stats, run, Options};
use dmc_machine::MachineConfig;
use dmc_obs as obs;

const LIMIT: usize = 50_000_000;
const USAGE: &str = "usage: dmc-trace [--workload NAME|all] [--out-dir PATH] [--check]";

/// Captures one workload's full pipeline (compile → message stats →
/// schedule + simulate) and returns the trace plus the final schedule's
/// message count.
fn capture(w: &Workload) -> (obs::Trace, usize) {
    obs::start_capture();
    let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
    let _ = message_stats(&compiled, &w.params, LIMIT).expect("stats");
    let schedule = build_schedule(&compiled, &w.params, false, LIMIT).expect("schedules");
    let _ = run(
        &compiled,
        &w.params,
        &MachineConfig::ipsc860(),
        false,
        LIMIT,
    )
    .expect("simulates");
    (obs::finish_capture(), schedule.messages.len())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which: Option<String> = None;
    let mut out_dir = PathBuf::from("target/dmc-trace");
    let mut check = false;
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage_error(USAGE));
        match a.as_str() {
            "--workload" => which = Some(value()),
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--check" => check = true,
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

    for w in &selected {
        let (trace, n_messages) = capture(w);

        let chrome = obs::chrome_trace(&trace);
        let chrome_path = out_dir.join(format!("trace_{}.json", w.name));
        std::fs::write(&chrome_path, &chrome).expect("write chrome trace");

        let report = obs::explain_report(&trace, w.name);
        let report_path = out_dir.join(format!("explain_{}.md", w.name));
        std::fs::write(&report_path, &report).expect("write explain report");

        if check {
            let c = obs::validate_chrome(&chrome)
                .unwrap_or_else(|e| panic!("{}: invalid Chrome trace: {e}", w.name));
            let attributed = report.lines().filter(|l| l.starts_with("- m")).count();
            assert_eq!(
                attributed, n_messages,
                "{}: explain report attributes {attributed} messages, schedule has {n_messages}",
                w.name
            );
            // One sim lane per processor plus the dedicated critical-path
            // lane the post-run analysis emits at index nproc.
            let nproc = w.nproc as usize;
            let sim_lanes = trace
                .lanes
                .iter()
                .filter(|l| l.key.first() == Some(&2))
                .count();
            assert_eq!(
                sim_lanes,
                nproc + 1,
                "{}: {sim_lanes} sim lane(s) for a {nproc}-processor grid (+1 critical path)",
                w.name
            );
            assert!(
                trace
                    .lanes
                    .iter()
                    .any(|l| l.key.as_slice() == [2, nproc as u64]),
                "{}: no critical-path lane",
                w.name
            );
            println!(
                "{:<10} ok: {} lanes ({} sim), {} spans, {} events; {} message(s) attributed",
                w.name, c.lanes, sim_lanes, c.spans, c.events, n_messages
            );
        } else {
            println!(
                "{:<10} {} records -> {} + {}",
                w.name,
                trace.len(),
                chrome_path.display(),
                report_path.display()
            );
        }
    }
}
