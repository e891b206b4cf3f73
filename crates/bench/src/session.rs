//! `dmc session`: each workload compiled at several processor counts
//! through ONE compilation session. The grid only enters the stage keys at
//! the `opt` stage, so the sweep reuses every per-read Last Write Tree.
//! With a cache directory the session also writes through to, and warm
//! starts from, a persistent [`DiskStore`] there.
//!
//! [`check`] is the battery: every session compile is identical to the
//! one-shot pipeline, no Last Write Tree is built twice, recompiling the
//! last input re-runs nothing, and the explain report of the traced sweep
//! carries the Reuse section.

use std::path::Path;

use dmc_core::{compile, Compiled, Options, Session, SessionStats};
use dmc_obs as obs;
use dmc_store::DiskStore;

use crate::Workload;

/// The processor counts of one sweep.
pub const NPROCS: [i128; 4] = [2, 4, 8, 16];

/// One workload's sweep.
pub struct Sweep {
    /// The session the sweep ran in.
    pub session: Session,
    /// Its stage statistics right after the sweep.
    pub stats: SessionStats,
    /// Whether every swept compile equals the one-shot pipeline's.
    pub identical: bool,
    /// The explain report of the traced sweep (scratch compiles excluded).
    pub report: String,
}

fn outputs(c: &Compiled) -> String {
    format!("{:?} {:?}", c.lwts, c.comm)
}

/// Sweeps `w` over [`NPROCS`] in one session, backed by a [`DiskStore`]
/// at `cache_dir` when one is given.
pub fn sweep(w: &Workload, cache_dir: Option<&Path>) -> Result<Sweep, String> {
    let mut session = Session::new();
    if let Some(dir) = cache_dir {
        let store = DiskStore::open(dir, None)
            .map_err(|e| format!("cannot open store at {}: {e}", dir.display()))?;
        session.attach_store(Box::new(store));
    }
    obs::start_capture();
    let swept: Result<Vec<Compiled>, _> = NPROCS
        .iter()
        .map(|&nproc| session.compile((w.input)(nproc), Options::full()))
        .collect();
    // The trace covers only the session sweep, so the report's Reuse
    // section matches the session's stats; the scratch compiles (the
    // identity oracle) run outside the capture.
    let trace = obs::finish_capture();
    let swept = swept.map_err(|e| format!("{}: {e}", w.name))?;
    let mut identical = true;
    for (&nproc, s) in NPROCS.iter().zip(&swept) {
        let scratch = compile((w.input)(nproc), Options::full()).map_err(|e| e.to_string())?;
        identical &= outputs(s) == outputs(&scratch);
    }
    Ok(Sweep {
        stats: session.stats().clone(),
        session,
        identical,
        report: obs::Provenance::parse(&trace).markdown(w.name),
    })
}

/// The battery on one workload's sweep. Recompiles the last input in the
/// sweep's session.
pub fn check(w: &Workload, sweep: &mut Sweep) -> Result<String, String> {
    let name = w.name;
    let stats = &sweep.stats;
    ensure!(
        sweep.identical,
        "{name}: session output diverged from the one-shot pipeline"
    );
    // What the sweep is for: no Last Write Tree is built twice.
    let lwt = stats.per_stage.get("lwt").copied().unwrap_or_default();
    ensure!(
        lwt.hits >= (NPROCS.len() as u64 - 1) * lwt.misses,
        "{name}: the sweep built a Last Write Tree twice ({} lwt hits vs {} misses over {} counts)",
        lwt.hits,
        lwt.misses,
        NPROCS.len()
    );
    // A byte-identical recompile re-runs nothing.
    let last = NPROCS[NPROCS.len() - 1];
    sweep
        .session
        .compile((w.input)(last), Options::full())
        .map_err(|e| e.to_string())?;
    ensure!(
        sweep.session.stats().stage_misses == stats.stage_misses,
        "{name}: recompiling an identical input re-ran a stage"
    );
    ensure!(
        sweep.report.contains("## Reuse"),
        "{name}: explain report is missing the Reuse section"
    );
    Ok(format!(
        "{name:<10} ok: wrapper-identical, {:.0}% reused, recompile all hits, \
         Reuse section present",
        reused_pct(stats)
    ))
}

/// The share of stage lookups served from a store, in percent.
pub fn reused_pct(stats: &SessionStats) -> f64 {
    100.0 * stats.stage_hits as f64 / (stats.stage_hits + stats.stage_misses).max(1) as f64
}
