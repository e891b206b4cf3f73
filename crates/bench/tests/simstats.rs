//! Simulator-telemetry invariants on the registry workloads: the traffic
//! matrix, the size/latency histograms and the per-processor breakdowns
//! must agree exactly with the aggregate statistics, in both timing and
//! values mode.

use dmc_bench::{workloads, Workload};
use dmc_core::{compile, run, Options};
use dmc_machine::{MachineConfig, SimStats};

const LIMIT: usize = 50_000_000;

fn simulate(w: &Workload, values: bool) -> SimStats {
    let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
    run(
        &compiled,
        &w.params,
        &MachineConfig::ipsc860(),
        values,
        LIMIT,
    )
    .expect("simulates")
    .stats
}

/// Every simulated second lands in exactly one bucket: per processor,
/// compute + comm + idle equals the local finish time (up to float
/// accumulation), and no processor finishes after the reported run time.
#[test]
fn per_proc_breakdown_sums_to_finish() {
    for w in workloads() {
        let (name, s) = (w.name, simulate(&w, false));
        assert_eq!(s.nproc(), w.nproc as usize, "{name}");
        let mut max_finish: f64 = 0.0;
        for (p, proc) in s.per_proc.iter().enumerate() {
            let sum = proc.compute + proc.comm + proc.idle;
            let tol = 1e-9 * proc.finish.max(1e-6);
            assert!(
                (sum - proc.finish).abs() <= tol,
                "{name} p{p}: compute {} + comm {} + idle {} = {sum} != finish {}",
                proc.compute,
                proc.comm,
                proc.idle,
                proc.finish
            );
            max_finish = max_finish.max(proc.finish);
        }
        assert!(
            (max_finish - s.time).abs() <= 1e-12,
            "{name}: run time {} != max finish {max_finish}",
            s.time
        );
    }
}

/// The P×P traffic matrix and both histograms are exact decompositions of
/// the aggregate counters.
#[test]
fn traffic_matrix_and_histograms_decompose_the_totals() {
    for w in workloads() {
        let (name, s) = (w.name, simulate(&w, false));
        assert!(s.messages > 0, "{name}: workload should communicate");
        assert_eq!(s.traffic_total(), s.words, "{name}: traffic matrix total");
        assert_eq!(
            s.traffic_transmissions.iter().sum::<u64>(),
            s.transmissions,
            "{name}: transmission matrix total"
        );
        assert_eq!(
            s.msg_words_hist.count(),
            s.messages,
            "{name}: size histogram count"
        );
        assert_eq!(
            s.latency_us_hist.count(),
            s.transmissions,
            "{name}: latency histogram count"
        );
        // No processor sends to itself: local data never becomes a message.
        for p in 0..s.nproc() {
            assert_eq!(s.link_words(p, p), 0, "{name}: self-loop traffic on p{p}");
        }
    }
}

/// Values mode (payloads carried, end-to-end checked) must report the
/// same telemetry as timing mode: the cost model only sees word counts.
#[test]
fn values_mode_reports_identical_telemetry() {
    for w in workloads() {
        let timing = simulate(&w, false);
        let values = simulate(&w, true);
        assert_eq!(timing, values, "{}: timing and values mode diverge", w.name);
    }
}
