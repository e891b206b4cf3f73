//! Bench time-series store + regression forensics: records
//! `BENCH_pipeline.json` snapshots into an append-only JSONL history
//! (`dmc_bench::history`), explains *why* metrics moved between any two
//! snapshots (`dmc_bench::explain` — every reported delta tiles its
//! top-level snapshot delta exactly), renders the trajectory dashboard
//! (`dmc_bench::html`), and self-checks the whole subsystem.
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-bench-explain -- --record
//! cargo run --release -p dmc-bench --bin dmc-bench-explain -- --explain @0 @last
//! cargo run --release -p dmc-bench --bin dmc-bench-explain -- \
//!     --explain old/BENCH_pipeline.json BENCH_pipeline.json
//! cargo run --release -p dmc-bench --bin dmc-bench-explain -- --trend 10
//! cargo run --release -p dmc-bench --bin dmc-bench-explain -- --html dash.html
//! cargo run --release -p dmc-bench --bin dmc-bench-explain -- --check
//! ```
//!
//! * `--record` parses the snapshot (`--snapshot`, default
//!   `BENCH_pipeline.json`), stamps it with the commit id, host, host
//!   parallelism and record time, and appends it (next dense `seq`) to
//!   the history file (`--history`, default `.bench_history.jsonl`).
//! * `--explain OLD NEW` composes the root-cause narrative between two
//!   snapshot references — each a snapshot path, `@N` (history seq `N`)
//!   or `@last` — naming which ledger contexts gained or lost work,
//!   which blame categories grew, which stages stopped hitting the
//!   session cache, and which §6 pass chains' message counts changed.
//! * `--trend N` prints the last `N` history records' key metrics.
//! * `--html [PATH]` writes the static trajectory dashboard
//!   (deterministic bytes; default `target/bench_dashboard.html`).
//! * `--check` self-checks the subsystem against the committed
//!   snapshot: the snapshot's tilings are internally exact, a
//!   self-explain is empty, history round-trips byte-identically
//!   through disk, injected drift explains with zero residue, and the
//!   dashboard bytes are identical for 1-thread and 4-thread
//!   recordings.
//!
//! Exit codes: **0** clean, **1** drift (a non-empty explanation, or a
//! failed `--check` invariant), **2** usage or parse error.

use std::process::ExitCode;

use dmc_bench::explain::Explanation;
use dmc_bench::history::{
    parse_history, render_history, HistoryRecord, ReuseSummary, WorkloadSummary, SCHEMA,
};
use dmc_bench::html::render_dashboard;
use dmc_bench::workloads;
use dmc_core::{build_schedule, compile, options_fingerprint, Options, Session};
use dmc_machine::{critpath, MachineConfig};
use dmc_polyhedra::ledger;

const LIMIT: usize = 50_000_000;

/// Usage, IO and parse failures: exit 2.
macro_rules! usage {
    ($($arg:tt)*) => {{
        eprintln!("bench-explain: {}", format_args!($($arg)*));
        return ExitCode::from(2);
    }};
}

/// Drift and failed check invariants: exit 1.
macro_rules! drift {
    ($($arg:tt)*) => {{
        eprintln!("bench-explain: {}", format_args!($($arg)*));
        return ExitCode::from(1);
    }};
}

/// The commit id of the working tree, read from `.git` without invoking
/// git: `HEAD` directly for a detached head, else the named ref file,
/// else `packed-refs`. `"unknown"` outside a checkout.
fn commit_id() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{refname}")) {
        return id.trim().to_owned();
    }
    if let Ok(packed) = std::fs::read_to_string(".git/packed-refs") {
        for line in packed.lines() {
            if let Some(id) = line.strip_suffix(refname) {
                return id.trim().to_owned();
            }
        }
    }
    "unknown".to_owned()
}

/// Stamps the environment-dependent identity fields onto a record built
/// by [`HistoryRecord::from_snapshot`] (which leaves them at defaults —
/// the library does no environment probing).
fn stamp_identity(rec: &mut HistoryRecord) {
    rec.meta.commit = commit_id();
    rec.meta.host = std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_owned());
    if rec.meta.parallelism == 0 {
        rec.meta.parallelism = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
    }
    rec.meta.recorded_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
}

/// Resolves one `--explain` reference: `@N` / `@last` into the history,
/// anything else as a snapshot JSON path.
fn resolve(
    reference: &str,
    history_path: &str,
    history: &mut Option<Vec<HistoryRecord>>,
) -> Result<HistoryRecord, String> {
    if let Some(sel) = reference.strip_prefix('@') {
        if history.is_none() {
            let text = std::fs::read_to_string(history_path)
                .map_err(|e| format!("read {history_path}: {e}"))?;
            *history = Some(parse_history(&text)?);
        }
        let records = history.as_ref().expect("just loaded");
        if records.is_empty() {
            return Err(format!("{history_path} is empty; record a snapshot first"));
        }
        if sel == "last" {
            return Ok(records.last().expect("non-empty").clone());
        }
        let seq: u64 = sel
            .parse()
            .map_err(|_| format!("bad history reference @{sel} (want @N or @last)"))?;
        return records
            .iter()
            .find(|r| r.seq == seq)
            .cloned()
            .ok_or_else(|| format!("no record with seq {seq} in {history_path}"));
    }
    let text = std::fs::read_to_string(reference).map_err(|e| format!("read {reference}: {e}"))?;
    let mut rec = HistoryRecord::from_snapshot(&text)?;
    stamp_identity(&mut rec);
    Ok(rec)
}

/// One internal-tiling audit of a record: every non-empty decomposition
/// must sum exactly to its top-level total.
fn audit_tilings(rec: &HistoryRecord) -> Vec<String> {
    let mut out = Vec::new();
    let mut chk = |what: &str, total: u64, parts: u64, empty: bool| {
        if !empty && parts != total {
            out.push(format!(
                "{what}: components sum to {parts}, total is {total}"
            ));
        }
    };
    for w in &rec.workloads {
        let sum = |p: &[(String, u64)]| p.iter().map(|(_, v)| v).sum::<u64>();
        chk(
            &format!("{}: work_contexts vs work_units", w.name),
            w.work_units,
            sum(&w.contexts),
            w.contexts.is_empty(),
        );
        chk(
            &format!("{}: blame vs nproc x makespan_ns", w.name),
            w.nproc * w.makespan_ns,
            sum(&w.blame),
            w.blame.is_empty(),
        );
        chk(
            &format!("{}: comm_passes vs messages", w.name),
            w.messages,
            sum(&w.comm_passes),
            w.comm_passes.is_empty(),
        );
    }
    for (name, r) in [("sweep", &rec.sweep), ("journal", &rec.journal)] {
        let hits: u64 = r.per_stage.iter().map(|(_, h, _)| h).sum();
        let misses: u64 = r.per_stage.iter().map(|(_, _, m)| m).sum();
        chk(
            &format!("{name}: per_stage hits vs stage_hits"),
            r.stage_hits,
            hits,
            r.per_stage.is_empty(),
        );
        chk(
            &format!("{name}: per_stage misses vs stage_misses"),
            r.stage_misses,
            misses,
            r.per_stage.is_empty(),
        );
    }
    out
}

/// Builds the deterministic summaries for the benchmark request set:
/// per-workload metrics from a direct compile +
/// schedule + critical-path pass, session-cache behaviour from serving
/// the same requests through one scoped session.
fn summarize() -> Result<(Vec<WorkloadSummary>, ReuseSummary), String> {
    let opts = Options::full();
    let mut summaries = Vec::new();
    for w in workloads() {
        let name = w.name;
        ledger::start();
        let compiled = compile((w.input)(w.nproc), opts)
            .map_err(|e| format!("{name}: compile failed: {e:?}"))?;
        let schedule = build_schedule(&compiled, &w.params, false, LIMIT)
            .map_err(|e| format!("{name}: schedule failed: {e:?}"))?;
        let work_units = ledger::finish().charged_work();
        let crit = critpath::analyze(&schedule, &MachineConfig::ipsc860())
            .map_err(|e| format!("{name}: critpath failed: {e:?}"))?;
        let transmissions: u64 = schedule
            .messages
            .iter()
            .map(|m| m.receivers.len() as u64)
            .sum();
        let words: u64 = schedule
            .messages
            .iter()
            .map(|m| m.words * m.receivers.len() as u64)
            .sum();
        summaries.push(WorkloadSummary {
            name: name.to_owned(),
            nproc: schedule.procs.len() as u64,
            messages: schedule.messages.len() as u64,
            transmissions,
            words,
            work_units,
            makespan_ns: crit.makespan_ns,
            blame: crit
                .total
                .categories()
                .iter()
                .map(|(c, v)| ((*c).to_owned(), *v))
                .collect(),
            contexts: Vec::new(),
            comm_passes: Vec::new(),
        });
    }
    let mut session = Session::scoped("explain-check");
    ledger::start();
    for w in workloads() {
        session
            .serve(w.name, (w.input)(w.nproc), opts, &w.params, LIMIT)
            .map_err(|e| format!("{}: serve failed: {e:?}", w.name))?;
    }
    let session_work = ledger::finish().charged_work();
    let stats = session.stats();
    let reuse = ReuseSummary {
        stage_hits: stats.stage_hits,
        stage_misses: stats.stage_misses,
        work_units: session_work,
        per_stage: stats
            .per_stage
            .iter()
            .map(|(k, c)| ((*k).to_owned(), c.hits, c.misses))
            .collect(),
    };
    Ok((summaries, reuse))
}

/// A record for the dashboard-determinism check: real metrics, synthetic
/// identity meta that *differs* by `id` on purpose (the dashboard must not
/// leak it).
fn check_record(id: u64, workloads: &[WorkloadSummary], reuse: &ReuseSummary) -> HistoryRecord {
    HistoryRecord {
        seq: 0,
        meta: dmc_bench::history::HistoryMeta {
            schema: SCHEMA,
            commit: format!("check-{id}"),
            host: format!("host-{id}"),
            parallelism: id,
            config_fp: options_fingerprint(&Options::full()),
            wall_ms: id * 1000,
            recorded_unix: id,
        },
        workloads: workloads.to_vec(),
        journal: reuse.clone(),
        sweep: reuse.clone(),
        store: None,
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut history_path = String::from(".bench_history.jsonl");
    let mut snapshot_path = String::from("BENCH_pipeline.json");
    let mut record = false;
    let mut check = false;
    let mut explain_refs: Option<(String, String)> = None;
    let mut trend: Option<usize> = None;
    let mut html_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--record" => record = true,
            "--check" => check = true,
            "--history" => {
                let Some(p) = args.next() else {
                    usage!("--history needs a path")
                };
                history_path = p;
            }
            "--snapshot" => {
                let Some(p) = args.next() else {
                    usage!("--snapshot needs a path")
                };
                snapshot_path = p;
            }
            "--explain" => {
                let (Some(old), Some(new)) = (args.next(), args.next()) else {
                    usage!("--explain needs OLD NEW (paths, @N, or @last)")
                };
                explain_refs = Some((old, new));
            }
            "--trend" => {
                let Some(n) = args.next() else {
                    usage!("--trend needs a count")
                };
                let Ok(n) = n.parse() else {
                    usage!("--trend: {n:?} is not a count")
                };
                trend = Some(n);
            }
            "--html" => {
                html_out = Some(
                    args.next()
                        .unwrap_or_else(|| "target/bench_dashboard.html".to_owned()),
                );
            }
            other => usage!(
                "unknown argument: {other} \
                 (usage: dmc-bench-explain --record | --explain OLD NEW | \
                 --trend N | --html [PATH] | --check \
                 [--history FILE] [--snapshot FILE])"
            ),
        }
    }

    if record {
        let text = match std::fs::read_to_string(&snapshot_path) {
            Ok(t) => t,
            Err(e) => usage!("read {snapshot_path}: {e}"),
        };
        let mut rec = match HistoryRecord::from_snapshot(&text) {
            Ok(r) => r,
            Err(e) => usage!("{e}"),
        };
        stamp_identity(&mut rec);
        let existing = match std::fs::read_to_string(&history_path) {
            Ok(t) => match parse_history(&t) {
                Ok(r) => r,
                Err(e) => usage!("{e}"),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => usage!("read {history_path}: {e}"),
        };
        rec.seq = existing.len() as u64;
        if let Some(last) = existing.last() {
            if last.deterministic_eq(&rec) {
                println!(
                    "bench-explain: seq {} already matches this snapshot on every \
                     deterministic field; recording anyway (meta moved)",
                    last.seq
                );
            }
        }
        let mut file = match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
        {
            Ok(f) => f,
            Err(e) => usage!("open {history_path}: {e}"),
        };
        use std::io::Write as _;
        if let Err(e) = writeln!(file, "{}", rec.to_jsonl()) {
            usage!("append {history_path}: {e}");
        }
        println!(
            "bench-explain: recorded seq {} ({} workload(s), commit {}) into {history_path}",
            rec.seq,
            rec.workloads.len(),
            rec.meta.commit
        );
        return ExitCode::SUCCESS;
    }

    if let Some((old_ref, new_ref)) = explain_refs {
        let mut history = None;
        let old = match resolve(&old_ref, &history_path, &mut history) {
            Ok(r) => r,
            Err(e) => usage!("{e}"),
        };
        let new = match resolve(&new_ref, &history_path, &mut history) {
            Ok(r) => r,
            Err(e) => usage!("{e}"),
        };
        let explanation = Explanation::explain(&old, &new, &old_ref, &new_ref);
        let violations = explanation.verify();
        if !violations.is_empty() {
            usage!("tiling identity violated: {violations:?}");
        }
        print!("{}", explanation.render());
        return if explanation.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    if let Some(n) = trend {
        let text = match std::fs::read_to_string(&history_path) {
            Ok(t) => t,
            Err(e) => usage!("read {history_path}: {e}"),
        };
        let records = match parse_history(&text) {
            Ok(r) => r,
            Err(e) => usage!("{e}"),
        };
        let tail = &records[records.len().saturating_sub(n)..];
        println!(
            "{:>5} {:>12} {:<10} {:>10} {:>9} {:>12} {:>11}",
            "seq", "commit", "workload", "work_units", "messages", "makespan_ns", "sweep reuse"
        );
        for r in tail {
            let commit: String = r.meta.commit.chars().take(12).collect();
            for (i, w) in r.workloads.iter().enumerate() {
                let (seq, commit, reuse) = if i == 0 {
                    let reuse = format!("{}/{}", r.sweep.stage_hits, r.sweep.stage_misses);
                    (format!("#{}", r.seq), commit.clone(), reuse)
                } else {
                    (String::new(), String::new(), String::new())
                };
                println!(
                    "{seq:>5} {commit:>12} {:<10} {:>10} {:>9} {:>12} {reuse:>11}",
                    w.name, w.work_units, w.messages, w.makespan_ns
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some(out_path) = html_out {
        let text = match std::fs::read_to_string(&history_path) {
            Ok(t) => t,
            Err(e) => usage!("read {history_path}: {e}"),
        };
        let records = match parse_history(&text) {
            Ok(r) => r,
            Err(e) => usage!("{e}"),
        };
        let page = render_dashboard(&records);
        if let Some(dir) = std::path::Path::new(&out_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&out_path, &page) {
            usage!("write {out_path}: {e}");
        }
        println!(
            "bench-explain: wrote {out_path} ({} record(s), {} byte(s))",
            records.len(),
            page.len()
        );
        return ExitCode::SUCCESS;
    }

    if !check {
        usage!("nothing to do (try --record, --explain OLD NEW, --trend N, --html, or --check)");
    }

    // --check: the full self-check battery against the committed snapshot.
    let text = match std::fs::read_to_string(&snapshot_path) {
        Ok(t) => t,
        Err(e) => usage!("read {snapshot_path}: {e}"),
    };
    let rec = match HistoryRecord::from_snapshot(&text) {
        Ok(r) => r,
        Err(e) => usage!("{e}"),
    };

    // 1. The snapshot's own decompositions tile their totals exactly.
    let audit = audit_tilings(&rec);
    if !audit.is_empty() {
        drift!("snapshot tilings are not exact: {audit:?}");
    }

    // 2. Self-explain is empty and passes the independent identity audit.
    let self_explain = Explanation::explain(&rec, &rec, "snapshot", "snapshot");
    if !self_explain.is_empty() {
        drift!("self-explain is not empty:\n{}", self_explain.render());
    }
    if !self_explain.verify().is_empty() {
        drift!(
            "self-explain violates the tiling identity: {:?}",
            self_explain.verify()
        );
    }

    // 3. History round-trips byte-identically, in memory and via disk.
    let mut second = rec.clone();
    second.seq = 1;
    let rendered = render_history(&[rec.clone(), second]);
    let parsed = match parse_history(&rendered) {
        Ok(p) => p,
        Err(e) => drift!("rendered history failed to re-parse: {e}"),
    };
    if render_history(&parsed) != rendered {
        drift!("history did not round-trip byte-identically in memory");
    }
    let tmp = std::path::Path::new("target/dmc-bench-explain/roundtrip.jsonl");
    if let Some(dir) = tmp.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(tmp, &rendered) {
        usage!("write {}: {e}", tmp.display());
    }
    match std::fs::read_to_string(tmp) {
        Ok(back) if back == rendered => {}
        Ok(_) => drift!(
            "history did not round-trip through {} byte-identically",
            tmp.display()
        ),
        Err(e) => usage!("read {}: {e}", tmp.display()),
    }

    // 4. Injected *consistent* drift (a context and its total move
    //    together) explains every workload with zero residue.
    for i in 0..rec.workloads.len() {
        let mut drifted = rec.clone();
        let w = &mut drifted.workloads[i];
        w.work_units += 17;
        if let Some(c) = w.contexts.first_mut() {
            c.1 += 17;
        }
        w.makespan_ns += 3;
        if let Some(b) = w.blame.first_mut() {
            b.1 += 3 * w.nproc;
        }
        if let Some(p) = w.comm_passes.first_mut() {
            p.1 += 2;
            w.messages += 2;
        }
        let name = w.name.clone();
        drifted.sweep.stage_hits += 1;
        if let Some(s) = drifted.sweep.per_stage.first_mut() {
            s.1 += 1;
        }
        let e = Explanation::explain(&rec, &drifted, "snapshot", "drifted");
        if e.is_empty() {
            drift!("{name}: injected drift produced an empty explanation");
        }
        if !e.verify().is_empty() {
            drift!(
                "{name}: injected drift violates the tiling identity: {:?}",
                e.verify()
            );
        }
        if let Some(t) = e.tilings.iter().find(|t| t.residue != 0) {
            drift!(
                "{name}: consistent injected drift left residue {} on {} \
                 (expected every delta fully explained)",
                t.residue,
                t.metric
            );
        }
    }

    // 5. Injected *inconsistent* drift (total moves, components don't)
    //    still closes the identity — through an explicit residue.
    {
        let mut drifted = rec.clone();
        drifted.workloads[0].work_units += 9;
        let e = Explanation::explain(&rec, &drifted, "snapshot", "drifted");
        let t = e
            .tilings
            .iter()
            .find(|t| t.metric.ends_with("work_units") && t.residue != 0);
        match t {
            Some(t) if t.residue == 9 && e.verify().is_empty() => {}
            _ => drift!(
                "inconsistent injected drift did not surface a +9 residue: {:?}",
                e.tilings
            ),
        }
        if !e.render().contains("(unexplained)") {
            drift!("residue is not narrated as (unexplained)");
        }
    }

    // 6. The dashboard shows metrics only: two recordings of the same
    //    metrics render byte-identical HTML even though their identity
    //    meta (commit, host, parallelism, wall-clock) differs.
    let (summaries, reuse) = match summarize() {
        Ok(s) => s,
        Err(e) => drift!("{e}"),
    };
    let here = check_record(1, &summaries, &reuse);
    let elsewhere = check_record(2, &summaries, &reuse);
    let diffs = here.field_diffs(&elsewhere);
    if !diffs.is_empty() {
        drift!("identity meta leaks into the deterministic fields: {diffs:?}");
    }
    let (html, html_elsewhere) = (render_dashboard(&[here]), render_dashboard(&[elsewhere]));
    if html != html_elsewhere {
        drift!("dashboard bytes differ between recordings that differ only in identity meta");
    }

    println!(
        "bench-explain check ok: {} workload(s) — snapshot tilings exact, self-explain \
         empty, history round-trips byte-identically, injected drift tiles with zero \
         residue, dashboard independent of identity meta ({} byte(s))",
        rec.workloads.len(),
        html.len()
    );
    ExitCode::SUCCESS
}
