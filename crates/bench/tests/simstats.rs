//! Simulator-telemetry invariants on the registry workloads: the
//! critical-path analysis, which keeps the run's books, must decompose the
//! simulator's totals exactly, and values mode must report the same
//! totals as timing mode.

use dmc_bench::{workloads, Workload};
use dmc_core::{build_schedule, compile, run, Options};
use dmc_machine::critpath::{self, ns_of};
use dmc_machine::{CritAnalysis, MachineConfig, SimStats};

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

/// The simulator's totals of `w`'s timing-mode run, and the critical-path
/// analysis of the same schedule.
fn analyzed(w: &Workload) -> (SimStats, CritAnalysis) {
    let config = MachineConfig::ipsc860();
    let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
    let schedule = build_schedule(&compiled, &w.params, false, LIMIT).expect("plans");
    let stats = run(&compiled, &w.params, &config, false, LIMIT)
        .expect("simulates")
        .stats;
    let crit = critpath::analyze(&schedule, &config).expect("analyzes");
    (stats, crit)
}

/// Every simulated nanosecond lands in exactly one bucket: per processor,
/// compute + comm + idle (the blame before the drain) is the local finish
/// time, and the latest finish is the simulator's run time.
#[test]
fn per_proc_breakdown_sums_to_finish() {
    for w in workloads() {
        let (name, (s, crit)) = (w.name, analyzed(&w));
        assert_eq!(crit.nproc, w.nproc as usize, "{name}");
        assert_eq!(crit.per_proc.len(), crit.nproc, "{name}");
        assert_eq!(crit.makespan_ns, ns_of(s.time), "{name}: makespan");
        for (p, b) in crit.per_proc.iter().enumerate() {
            assert_eq!(b.total(), crit.makespan_ns, "{name} p{p}: blame {b:?}");
        }
        let last = crit.per_proc.iter().map(|b| b.drain_ns).min();
        assert_eq!(last, Some(0), "{name}: no processor finishes last");
    }
}

/// The links carry exactly the simulator's transmissions and words, none
/// of them from a processor to itself, and every transmission has one
/// latency.
#[test]
fn links_and_latencies_decompose_the_totals() {
    for w in workloads() {
        let (name, (s, crit)) = (w.name, analyzed(&w));
        assert!(s.messages > 0, "{name}: workload should communicate");
        let transmissions: u64 = crit.links.iter().map(|l| l.transmissions).sum();
        let words: u64 = crit.links.iter().map(|l| l.words).sum();
        assert_eq!(transmissions, s.transmissions, "{name}: link transmissions");
        assert_eq!(words, s.words, "{name}: link words");
        // No processor sends to itself: local data never becomes a message.
        for l in &crit.links {
            assert_ne!(l.src, l.dst, "{name}: self-loop traffic on p{}", l.src);
        }
        assert_eq!(
            crit.latencies_ns().len() as u64,
            s.transmissions,
            "{name}: one latency per transmission"
        );
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
