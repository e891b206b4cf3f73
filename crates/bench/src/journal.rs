//! `dmc journal`: the append-only JSONL journals a journaling [`Session`]
//! writes (see [`dmc_obs::journal`]), replayed and diffed.
//!
//! [`check`] is the battery: it serves the four benchmark workloads
//! through one journaling session, writes the journal, re-reads it from
//! disk, replays it through a fresh session and asserts every
//! deterministic field (fingerprints, stage hits/misses, work units,
//! message statistics, schedule fingerprint) reproduced byte-identically;
//! the journal must also self-diff clean.

use std::path::Path;

use dmc_core::{Options, Session};
use dmc_obs::journal::{diff_journals, parse_journal};
use dmc_obs::JournalRecord;

use crate::{workload, workloads, LIMIT};

/// Replays a parsed journal, in order, through one fresh journaling
/// session and returns every deterministic-field divergence (empty =
/// byte-identical replay). `Err` when a record cannot be replayed at all.
pub fn replay(records: &[JournalRecord]) -> Result<Vec<String>, String> {
    let mut session = Session::new();
    session.set_journal(true);
    for rec in records {
        // Replay only knows the registry workloads; the record's
        // fingerprints then verify the reconstruction (a wrong input
        // cannot silently pass: its program, decomposition or grid
        // fingerprint diverges).
        let input = (workload(&rec.workload)?.input)(rec.nproc as i128);
        let params: Vec<i128> = rec.params.iter().map(|&p| p as i128).collect();
        session
            .serve(&rec.workload, input, Options::full(), &params, LIMIT)
            .map_err(|e| format!("seq {} ({}): compile failed: {e}", rec.seq, rec.workload))?;
    }
    let mut findings = Vec::new();
    for (orig, redo) in records.iter().zip(session.journal()) {
        for d in orig.field_diffs(redo) {
            findings.push(format!("seq {} ({}): {d}", orig.seq, orig.workload));
        }
    }
    Ok(findings)
}

/// The battery: journals the benchmark request set to
/// `out_dir/journal.jsonl`, round-trips it through disk, self-diffs it
/// and replays it through a fresh session.
pub fn check(out_dir: &Path) -> Result<String, String> {
    let mut session = Session::new();
    session.set_journal(true);
    for w in workloads() {
        session
            .serve(
                w.name,
                (w.input)(w.nproc),
                Options::full(),
                &w.params,
                LIMIT,
            )
            .map_err(|e| format!("{}: compile failed: {e}", w.name))?;
    }
    let text = session.journal_text();
    let path = out_dir.join("journal.jsonl");
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, &text))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let reread =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    ensure!(
        reread == text,
        "journal did not round-trip through {} byte-identically",
        path.display()
    );
    let records = parse_journal(&reread)?;
    ensure!(
        records == session.journal(),
        "parsed journal disagrees with the in-memory records"
    );
    let self_diff = diff_journals(&text, &text)?;
    ensure!(
        self_diff.is_empty(),
        "journal does not self-diff clean: {self_diff:?}"
    );
    let findings = replay(&records)?;
    ensure!(
        findings.is_empty(),
        "fresh-session replay diverged: {}",
        findings.join("; ")
    );
    let stats = session.stats();
    Ok(format!(
        "{} record(s) -> {} ({} stage hit(s), {} miss(es), {} work unit(s)); \
         round-trip, self-diff and fresh-session replay all clean",
        records.len(),
        path.display(),
        stats.stage_hits,
        stats.stage_misses,
        records.iter().map(|r| r.work_units).sum::<u64>(),
    ))
}
