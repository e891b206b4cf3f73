//! Compile-journal harness: writes, replays and diffs the append-only
//! JSONL journals that a journaling [`Session`] produces (see
//! [`dmc_obs::journal`]).
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-journal -- --check
//! cargo run --release -p dmc-bench --bin dmc-journal -- --replay journal.jsonl
//! cargo run --release -p dmc-bench --bin dmc-journal -- --diff old.jsonl new.jsonl
//! ```
//!
//! * `--check` serves the four benchmark workloads through one journaling
//!   session, writes the journal to `--out-dir`, re-reads it from disk,
//!   replays it through a fresh session and asserts every deterministic
//!   field (fingerprints, stage hits/misses, work units, message
//!   statistics, schedule fingerprint) reproduced byte-identically; the
//!   journal must also self-diff clean.
//! * `--replay FILE` re-runs a journal's requests, in order, through a
//!   fresh session and reports every deterministic-field divergence.
//! * `--diff OLD NEW` compares two journals with the regression-gate
//!   semantics of [`dmc_obs::journal::diff_journals`]: appends pass,
//!   truncation and any deterministic-field drift fail, wall times move
//!   freely.
//!
//! Exit codes follow the shared observability-gate convention: **0**
//! when every check passes, **1** when journals drifted (a `--diff`
//! difference, a replay divergence, a failed `--check` invariant), **2**
//! on usage errors and unreadable or corrupt inputs. Every failure path
//! prints one line naming the violated invariant to stderr, so the
//! binary is safe to use directly as a CI gate — and CI can tell "the
//! journal drifted" apart from "the gate itself could not run".

use std::process::ExitCode;

use dmc_bench::workloads;
use dmc_core::{CompileInput, Options, Session};
use dmc_obs::journal::{diff_journals, parse_journal};
use dmc_obs::JournalRecord;

const LIMIT: usize = 50_000_000;

/// Prints the problem and exits 2 (usage/parse — the gate could not
/// run; no panic backtrace: this binary is a CI gate, its stderr is
/// read by humans).
macro_rules! fail {
    ($($arg:tt)*) => {{
        eprintln!("dmc-journal: {}", format_args!($($arg)*));
        return ExitCode::from(2);
    }};
}

/// Prints the violated invariant and exits 1 (the gate ran and found
/// drift).
macro_rules! drift {
    ($($arg:tt)*) => {{
        eprintln!("dmc-journal: {}", format_args!($($arg)*));
        return ExitCode::from(1);
    }};
}

/// Reconstructs the compile input a journal record describes. Replay
/// only knows the benchmark workloads; the record's fingerprints then
/// verify the reconstruction (a wrong input cannot silently pass — its
/// program/decomposition/grid fingerprints diverge).
fn input_for(workload: &str, nproc: u64) -> Result<CompileInput, String> {
    let known = workloads();
    match known.iter().find(|w| w.name == workload) {
        Some(w) => Ok((w.input)(nproc as i128)),
        None => {
            let names: Vec<&str> = known.iter().map(|w| w.name).collect();
            Err(format!(
                "no such workload {workload:?} ({})",
                names.join(", ")
            ))
        }
    }
}

/// Replays a parsed journal, in order, through one fresh journaling
/// session and returns every deterministic-field divergence (empty =
/// byte-identical replay).
fn replay(records: &[JournalRecord]) -> Result<Vec<String>, String> {
    let mut session = Session::new();
    session.set_journal(true);
    for rec in records {
        let input = input_for(&rec.workload, rec.nproc)?;
        let params: Vec<i128> = rec.params.iter().map(|&p| p as i128).collect();
        session
            .serve(&rec.workload, input, Options::full(), &params, LIMIT)
            .map_err(|e| format!("seq {} ({}): compile failed: {e:?}", rec.seq, rec.workload))?;
    }
    let mut findings = Vec::new();
    for (orig, redo) in records.iter().zip(session.journal()) {
        for d in orig.field_diffs(redo) {
            findings.push(format!("seq {} ({}): {d}", orig.seq, orig.workload));
        }
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut out_dir = std::path::PathBuf::from("target/dmc-journal");
    let mut check = false;
    let mut replay_path: Option<String> = None;
    let mut diff_paths: Option<(String, String)> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out-dir" => {
                let Some(p) = args.next() else {
                    fail!("--out-dir needs a path")
                };
                out_dir = std::path::PathBuf::from(p);
            }
            "--replay" => {
                let Some(p) = args.next() else {
                    fail!("--replay needs a journal file")
                };
                replay_path = Some(p);
            }
            "--diff" => {
                let (Some(old), Some(new)) = (args.next(), args.next()) else {
                    fail!("--diff needs OLD.jsonl NEW.jsonl")
                };
                diff_paths = Some((old, new));
            }
            other => fail!(
                "unknown argument: {other} \
                 (usage: dmc-journal --check [--out-dir DIR] | \
                 --replay FILE | --diff OLD NEW)"
            ),
        }
    }
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Ok(s),
        Err(e) => Err(format!("read {path}: {e}")),
    };

    if let Some((old, new)) = diff_paths {
        let findings = (|| {
            let old = read(&old)?;
            let new = read(&new)?;
            diff_journals(&old, &new)
        })();
        match findings {
            Err(e) => fail!("{e}"),
            Ok(f) if f.is_empty() => {
                println!("dmc-journal diff ok: {old} vs {new}");
                return ExitCode::SUCCESS;
            }
            Ok(f) => {
                eprintln!(
                    "dmc-journal: {} difference(s) between {old} and {new}:",
                    f.len()
                );
                for d in &f {
                    eprintln!("  - {d}");
                }
                return ExitCode::from(1);
            }
        }
    }

    if let Some(path) = replay_path {
        let outcome = (|| {
            let text = read(&path)?;
            let records = parse_journal(&text)?;
            Ok::<_, String>((records.len(), replay(&records)?))
        })();
        match outcome {
            Err(e) => fail!("{e}"),
            Ok((n, f)) if f.is_empty() => {
                println!(
                    "dmc-journal replay ok: {n} record(s) from {path} reproduced \
                     every deterministic field"
                );
                return ExitCode::SUCCESS;
            }
            Ok((n, f)) => {
                eprintln!(
                    "dmc-journal: replay of {n} record(s) from {path} diverged \
                     ({} finding(s)):",
                    f.len()
                );
                for d in &f {
                    eprintln!("  - {d}");
                }
                return ExitCode::from(1);
            }
        }
    }

    if !check {
        fail!("nothing to do (try --check, --replay FILE, or --diff OLD NEW)");
    }

    // --check: journal the benchmark request set, round-trip the journal
    // through disk, replay it through a fresh session, and self-diff.
    let mut session = Session::new();
    session.set_journal(true);
    for w in workloads() {
        let input = (w.input)(w.nproc);
        if let Err(e) = session.serve(w.name, input, Options::full(), &w.params, LIMIT) {
            fail!("{}: compile failed: {e:?}", w.name);
        }
    }
    let text = session.journal_text();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail!("create {}: {e}", out_dir.display());
    }
    let path = out_dir.join("journal.jsonl");
    if let Err(e) = std::fs::write(&path, &text) {
        fail!("write {}: {e}", path.display());
    }
    let reread = match read(&path.to_string_lossy()) {
        Ok(s) => s,
        Err(e) => fail!("{e}"),
    };
    if reread != text {
        drift!(
            "journal did not round-trip through {} byte-identically",
            path.display()
        );
    }
    let records = match parse_journal(&reread) {
        Ok(r) => r,
        Err(e) => fail!("{e}"),
    };
    if records != session.journal() {
        drift!("parsed journal disagrees with the in-memory records");
    }
    match diff_journals(&text, &text) {
        Err(e) => fail!("self-diff: {e}"),
        Ok(f) if !f.is_empty() => drift!("journal does not self-diff clean: {f:?}"),
        Ok(_) => {}
    }
    match replay(&records) {
        Err(e) => fail!("{e}"),
        Ok(f) if !f.is_empty() => {
            eprintln!(
                "dmc-journal: fresh-session replay diverged ({} finding(s)):",
                f.len()
            );
            for d in &f {
                eprintln!("  - {d}");
            }
            return ExitCode::from(1);
        }
        Ok(_) => {}
    }
    let stats = session.stats();
    println!(
        "dmc-journal check ok: {} record(s) -> {} ({} stage hit(s), {} miss(es), \
         {} work unit(s)); round-trip, self-diff and fresh-session replay all clean",
        records.len(),
        path.display(),
        stats.stage_hits,
        stats.stage_misses,
        records.iter().map(|r| r.work_units).sum::<u64>(),
    );
    ExitCode::SUCCESS
}
