//! Session harness: compiles each benchmark workload at several processor
//! counts through ONE compilation session and reports how much of the
//! stage graph was served from the session's artifact store. The grid
//! only enters the stage keys at the `opt` stage, so a processor-count
//! sweep reuses every per-read Last Write Tree.
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-session
//! cargo run --release -p dmc-bench --bin dmc-session -- --workload lu \
//!     --out-dir target/session --check
//! ```
//!
//! Writes, per workload, the explain report of the traced sweep — its
//! "Reuse" section summarizes the stage cache. `--check` additionally
//! asserts that (1) every session compile is identical to the classic
//! one-shot pipeline, (2) no Last Write Tree is built twice (the whole
//! point of sweeping inside a session), (3) recompiling the final
//! input re-runs nothing, and (4) the report actually carries the Reuse
//! section.
//!
//! With `--cache-dir <path>` each workload's session additionally
//! attaches the persistent `dmc-store` backend rooted there (the same
//! directory layout `dmc-store` and `perfstats --cache-dir` use), and
//! the per-stage table splits hits by source: served from this
//! process's memory vs. decoded from the on-disk store. Run it twice
//! against one directory to watch a cold store turn warm.

use std::path::PathBuf;

use dmc_bench::{usage_error, workloads, Workload};
use dmc_core::{compile, Options, Session};
use dmc_obs as obs;
use dmc_store::DiskStore;

const NPROCS: [i128; 4] = [2, 4, 8, 16];
const USAGE: &str =
    "usage: dmc-session [--workload NAME|all] [--out-dir PATH] [--cache-dir PATH] [--check]";

fn outputs(c: &dmc_core::Compiled) -> String {
    format!("{:?} {:?}", c.lwts, c.comm)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which: Option<String> = None;
    let mut out_dir = PathBuf::from("target/dmc-session");
    let mut cache_dir: Option<PathBuf> = None;
    let mut check = false;
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage_error(USAGE));
        match a.as_str() {
            "--workload" => which = Some(value()),
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value())),
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
        let mut session = Session::new();
        if let Some(dir) = &cache_dir {
            let store = DiskStore::open(dir, None).expect("open cache dir");
            session.attach_store(Box::new(store));
        }
        obs::start_capture();
        let swept: Vec<_> = NPROCS
            .iter()
            .map(|&nproc| {
                session
                    .compile((w.input)(nproc), Options::full())
                    .expect("sweep compiles")
            })
            .collect();
        // The trace covers only the session sweep, so the report's Reuse
        // section matches the table below; the scratch compiles (the
        // identity oracle) run outside the capture.
        let trace = obs::finish_capture();
        let identical = NPROCS.iter().zip(&swept).all(|(&nproc, s)| {
            let scratch = compile((w.input)(nproc), Options::full()).expect("scratch compiles");
            outputs(s) == outputs(&scratch)
        });

        let report = obs::explain_report(&trace, w.name);
        let report_path = out_dir.join(format!("session_{}.md", w.name));
        std::fs::write(&report_path, &report).expect("write session report");

        let stats = session.stats().clone();
        let total = stats.stage_hits + stats.stage_misses;
        let reused_pct = 100.0 * stats.stage_hits as f64 / total.max(1) as f64;
        println!(
            "{:<10} {} procs: {} hit(s) ({} from disk) / {} miss(es) ({:.0}% reused), \
             identical: {}",
            w.name,
            NPROCS.len(),
            stats.stage_hits,
            stats.stage_disk_hits,
            stats.stage_misses,
            reused_pct,
            identical
        );
        for (stage, c) in &stats.per_stage {
            println!(
                "  {:<10} {:>4} hit(s) ({:>4} memory, {:>4} disk) {:>4} miss(es)",
                stage,
                c.hits,
                c.hits - c.disk_hits,
                c.disk_hits,
                c.misses
            );
        }

        if check {
            assert!(
                identical,
                "{}: session output diverged from the one-shot pipeline",
                w.name
            );
            // What the sweep is for: no Last Write Tree is built twice.
            let lwt = stats.per_stage.get("lwt").copied().unwrap_or_default();
            assert!(
                lwt.hits >= (NPROCS.len() as u64 - 1) * lwt.misses,
                "{}: the sweep built a Last Write Tree twice ({} lwt hits vs {} misses over {} counts)",
                w.name,
                lwt.hits,
                lwt.misses,
                NPROCS.len()
            );
            // A byte-identical recompile re-runs nothing.
            let last = *NPROCS.last().expect("nprocs");
            session
                .compile((w.input)(last), Options::full())
                .expect("recompiles");
            assert_eq!(
                session.stats().stage_misses,
                stats.stage_misses,
                "{}: recompiling an identical input re-ran a stage",
                w.name
            );
            assert!(
                report.contains("## Reuse"),
                "{}: explain report is missing the Reuse section",
                w.name
            );
            println!(
                "{:<10} ok: wrapper-identical, {:.0}% reused, recompile all hits, \
                 Reuse section present",
                w.name, reused_pct
            );
        }
    }
}
