//! Machine-telemetry renderer: runs a workload through the full pipeline
//! with the recorder on, exports the simulator's statistics (traffic
//! matrix, size/latency histograms, per-processor breakdowns) as a
//! Prometheus text-format document, and writes the provenance-joined
//! explain report with its machine view.
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-metrics -- --workload stencil \
//!     --out-dir target/metrics --check
//! ```
//!
//! `--check` validates the Prometheus document with the strict built-in
//! validator and verifies the exported counter and histogram totals agree
//! *exactly* with the simulator's integer statistics (messages,
//! transmissions, words), and that the explain report carries one machine
//! lane per simulated processor.

use std::path::PathBuf;

use dmc_bench::{usage_error, workloads, Workload};
use dmc_core::{compile, run, Options};
use dmc_machine::MachineConfig;
use dmc_obs as obs;

const LIMIT: usize = 50_000_000;
const USAGE: &str = "usage: dmc-metrics [--workload NAME|all] [--out-dir PATH] [--check]";

/// The value of the unique sample whose line starts with `prefix` (the
/// full `name{labels}` key), or the sum over all matching samples when
/// several share the prefix (used for the per-link counters).
fn sample_sum(doc: &str, prefix: &str) -> f64 {
    doc.lines()
        .filter(|l| l.starts_with(prefix) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which: Option<String> = None;
    let mut out_dir = PathBuf::from("target/dmc-metrics");
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
        obs::start_capture();
        let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
        let result = run(
            &compiled,
            &w.params,
            &MachineConfig::ipsc860(),
            false,
            LIMIT,
        )
        .expect("simulates");
        let trace = obs::finish_capture();
        let stats = &result.stats;

        let mut reg = obs::Registry::new();
        reg.set_build_info(
            env!("CARGO_PKG_VERSION"),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        stats.export_metrics(&mut reg, &[("workload", w.name)]);
        let doc = reg.render();
        let prom_path = out_dir.join(format!("metrics_{}.prom", w.name));
        std::fs::write(&prom_path, &doc).expect("write metrics");

        let report = obs::explain_report(&trace, w.name);
        let report_path = out_dir.join(format!("machine_{}.md", w.name));
        std::fs::write(&report_path, &report).expect("write report");

        if check {
            let c = obs::validate_prometheus(&doc)
                .unwrap_or_else(|e| panic!("{}: invalid Prometheus export: {e}", w.name));
            let lbl = format!("{{workload=\"{}\"}}", w.name);
            let exact = [
                ("dmc_sim_messages_total", stats.messages),
                ("dmc_sim_transmissions_total", stats.transmissions),
                ("dmc_sim_words_total", stats.words),
                ("dmc_sim_message_words_count", stats.messages),
                ("dmc_sim_transmission_latency_us_count", stats.transmissions),
            ];
            for (name, want) in exact {
                let got = sample_sum(&doc, &format!("{name}{lbl}"));
                assert_eq!(
                    got, want as f64,
                    "{}: {name} is {got}, simulator says {want}",
                    w.name
                );
            }
            assert!(
                doc.contains("dmc_build_info{"),
                "{}: export is missing the dmc_build_info gauge",
                w.name
            );
            let link_total = sample_sum(&doc, "dmc_sim_link_words_total{");
            assert_eq!(
                link_total, stats.words as f64,
                "{}: traffic matrix total disagrees with words delivered",
                w.name
            );
            let nproc = w.nproc as usize;
            let proc_lines = report
                .lines()
                .filter(|l| l.starts_with("- p") && l.contains(": compute "))
                .count();
            assert_eq!(
                proc_lines, nproc,
                "{}: machine view has {proc_lines} processor rows, grid has {nproc}",
                w.name
            );
            println!(
                "{:<10} ok: {} families, {} samples; totals match sim \
                 ({} msgs, {} transmissions, {} words); {} processor rows",
                w.name,
                c.families,
                c.samples,
                stats.messages,
                stats.transmissions,
                stats.words,
                nproc
            );
        } else {
            println!(
                "{:<10} {} -> {} + {}",
                w.name,
                trace.len(),
                prom_path.display(),
                report_path.display()
            );
        }
    }
}
