//! `dmc figures`: every figure series of EXPERIMENTS.md that the
//! examples do not print. Figure 14's LU sweep is
//! `cargo run --release --example lu`.

use dmc_bench::{figure2_input, lu_input, xy_input};
use dmc_core::{build_schedule, compile, simulate, Options};
use dmc_machine::MachineConfig;

/// Prints the series of Figures 3, 5 and 10, §2.2 and the ablations.
pub fn print() {
    fig3_and_5();
    fig10_aggregation();
    sec22_value_vs_location();
    ablations();
}

/// E1/E2 — Figures 3 & 5: the LWT and the communication set it induces.
fn fig3_and_5() {
    println!("==================================================================");
    println!("Figures 3 & 5: LWT and communication sets for Figure 2, block 32");
    println!("==================================================================");
    let compiled = compile(figure2_input(4), Options::full()).expect("compiles");
    for lwt in &compiled.lwts {
        println!("{lwt}");
    }
    for (k, cs) in compiled.comm.iter().enumerate() {
        let elems = cs
            .enumerate(&[1, 127], 100_000)
            .expect("enumerate")
            .expect("bounded");
        println!(
            "communication set {k}: level {:?}, {} elements at T=1, N=127",
            cs.level,
            elems.len()
        );
        for e in elems.iter().take(3) {
            println!(
                "  example: proc {:?} iter {:?} -> proc {:?} iter {:?}, X{:?}",
                e.ps, e.s_iter, e.pr, e.r_iter, e.arr
            );
        }
    }
    println!();
}

/// E6 — Figure 10: message counts with and without aggregation.
fn fig10_aggregation() {
    println!("==================================================================");
    println!("Figure 10: aggregation on Figure 2 (T=3, N=127, P=4)");
    println!("==================================================================");
    println!(
        "{:<26} {:>10} {:>10} {:>14}",
        "configuration", "messages", "words", "words/message"
    );
    for (name, aggregate) in [("aggregated (paper)", true), ("one msg per element", false)] {
        let mut o = Options::full();
        o.aggregate = aggregate;
        let compiled = compile(figure2_input(4), o).expect("compiles");
        let plan = build_schedule(&compiled, &[3, 127], false, 1_000_000).expect("plans");
        let (m, _, w) = plan.message_stats();
        println!("{name:<26} {m:>10} {w:>10} {:>14.1}", w as f64 / m as f64);
    }
    println!();
}

/// E9 — §2.2: value-centric vs location-centric traffic on the X/Y example.
fn sec22_value_vs_location() {
    println!("==================================================================");
    println!("Section 2.2: value-centric vs location-centric (X/Y example)");
    println!("==================================================================");
    println!(
        "{:>6} {:>22} {:>22}",
        "N", "value-centric words", "location-centric words"
    );
    for n in [11i128, 23, 47, 95] {
        let vc = compile(xy_input(4), Options::full()).expect("compiles");
        let lc = compile(xy_input(4), Options::location_centric()).expect("compiles");
        let words = |c| {
            let plan = build_schedule(c, &[n], false, 10_000_000).expect("plans");
            plan.message_stats().2
        };
        let (w_vc, w_lc) = (words(&vc), words(&lc));
        println!("{n:>6} {w_vc:>22} {w_lc:>22}");
    }
    println!("(value-centric is O(1) per crossing value; location-centric grows with N)\n");
}

/// A1–A3 — ablations: message counts and simulated time as each §6
/// optimization is disabled, on LU (N=48, P=8).
fn ablations() {
    println!("==================================================================");
    println!("Ablations on LU (N=48, P=8): each optimization disabled in turn");
    println!("==================================================================");
    println!(
        "{:<30} {:>9} {:>14} {:>9} {:>12}",
        "configuration", "messages", "transmissions", "words", "sim time (s)"
    );
    let cases: Vec<(&str, Options)> = vec![
        ("full optimizer", Options::full()),
        ("A1: no redundancy elim.", {
            let mut o = Options::full();
            o.self_reuse = false;
            o
        }),
        ("A2: no aggregation", {
            let mut o = Options::full();
            o.aggregate = false;
            o
        }),
        ("A3: no multicast", {
            let mut o = Options::full();
            o.multicast = false;
            o
        }),
        ("naive (all off)", Options::naive()),
    ];
    for (name, o) in cases {
        let compiled = compile(lu_input(8), o).expect("compiles");
        let plan = build_schedule(&compiled, &[48], false, 50_000_000).expect("plans");
        let (m, t, w) = plan.message_stats();
        let config = MachineConfig::ipsc860();
        let sim = simulate(&compiled, &[48], &config, false, &plan).expect("simulates");
        println!("{name:<30} {m:>9} {t:>14} {w:>9} {:>12.4}", sim.stats.time);
    }
    println!();
}
