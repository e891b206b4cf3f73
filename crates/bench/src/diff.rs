//! Bench regression gate: field-by-field comparison of two
//! `BENCH_pipeline.json` snapshots with per-field tolerances, and of two
//! compile journals record by record.
//!
//! Policy:
//!
//! - **Correctness fields are exact.** `messages`, `transmissions`,
//!   `words` and `sim_time_s` come from a deterministic compiler +
//!   simulator, so *any* change — better or worse — is a finding. The
//!   `identical` / `all_identical` flags must stay `true` (per workload:
//!   a cold-cache run and the same run over warm caches agree).
//! - **Timing fields tolerate noise.** The `fast` section's `compile_ms`,
//!   `schedule_ms` and `total_ms` only regress when the new value exceeds
//!   the old by more than the relative tolerance; improvements always
//!   pass. The per-workload `baseline` section and `speedup` of older
//!   snapshots (the engine with its memo caches switched off) and their
//!   top-level `threads` section (a sequential against a fanned-out
//!   compile) measured modes that no longer exist and are retired: never
//!   read, so an old snapshot that carries them diffs clean against a new
//!   one that does not.
//! - **Work units are exact.** `work_units` is the workload's top-level
//!   charged work total from the polyhedral ledger — deterministic across
//!   hosts and cache states — so *any* change (an extra
//!   projection, a lost memo hit charged differently, a new feasibility
//!   query) is a finding with zero tolerance. This is the noise-free
//!   regression signal the wall-clock timings cannot provide.
//! - **Heap-allocation counts are exact.** `allocs` counts the `LinExpr`
//!   heap allocations of the same cold-cache ledger pass
//!   that produces `work_units`, so it is deterministic too: any drift
//!   means constraint storage started (or stopped) spilling out of the
//!   inline representation — a storage regression wall-clock timings
//!   cannot see.
//! - **Polyops microbench units are exact.** The top-level `polyops`
//!   section reports the charged work of the isolated engine operations
//!   (feasibility, projection, redundancy, lexmax, batched family) on
//!   canned polyhedra, plus the batch's dominance savings. A regression
//!   here names the operation that got more expensive.
//! - **Other engine counters are not diffed.** The raw `counters` blocks
//!   shift with cache warmth and every legitimate engine change; the
//!   correctness fields and `work_units` already pin the outputs and the
//!   logical work. Per-context `work_contexts` maps are diagnostic
//!   (they localize a `work_units` finding) and are not gated separately.
//! - **Journal fields are exact.** The `journal` section summarizes the
//!   four workloads served through one journaling session: request,
//!   stage hit/miss and work-unit totals plus the per-request schedule
//!   fingerprints — all deterministic, so the gate holds them exact, and
//!   the `replay_identical` flag (a fresh session replayed the same
//!   requests and reproduced every deterministic journal field) must stay
//!   `true`. Full journals are diffed record-by-record with
//!   [`diff_journals`].
//! - **Critical-path fields are exact.** Each workload's `critpath`
//!   section (event-DAG size, canonical path length, integer-nanosecond
//!   makespan, the six-category blame totals and the top what-if win)
//!   comes from the deterministic whole-nanosecond event DAG, so the gate
//!   holds every field exact in both directions; the section may appear
//!   over a pre-critpath snapshot but never vanish.
//! - **Stage-graph sweep counts are exact.** The `sweep` section's
//!   `stage_hits` / `stage_misses` come from fingerprint lookups made in
//!   textual order, so they are deterministic across hosts: any drift means a
//!   stage key started (or stopped) covering an input it shouldn't — a
//!   correctness finding either way. Its `messages` list and `identical`
//!   flag pin the cached artifacts to the one-shot pipeline's outputs,
//!   and its `work_units` (the charged work of the whole session sweep)
//!   is exact like the per-workload totals. A new snapshot must also show
//!   what the sweep is for — no Last Write Tree is built twice: its
//!   `per_stage.lwt` row has at least (|`nprocs`| − 1) hits per miss.
//! - **Persistent-store traffic is exact.** The `store` section replays
//!   the workload set against an on-disk artifact cache twice — a cold
//!   pass that populates it and a warm pass in a fresh session that must
//!   serve from it — and every counter (cold/warm stage hits and misses,
//!   disk hits, entries, bytes written/read, evictions, corruption count)
//!   is deterministic, so the gate holds them exact in both directions.
//!   New snapshots must additionally keep the `identical` flag `true`
//!   (warm schedules byte-identical to cold), report zero corrupt loads,
//!   and serve at least half of warm stage lookups from disk. The section
//!   may appear over a pre-store snapshot but never vanish.
//! - **The `meta` block is retired.** Older snapshots carry one (schema
//!   version, config fingerprint, host parallelism, wall-clock); it was
//!   identity, never content, and is never read, so it may appear or
//!   vanish without a finding.
//! - **Tilings are diagnostic.** The per-§6-pass `comm_passes` and
//!   per-stage `per_stage` tilings localize a `messages` or
//!   `stage_hits` finding; their counts are not gated separately,
//!   like `work_contexts`. A `per_stage` *row* may appear but not vanish
//!   — except the rows of the three retired stages (`stmt-info`,
//!   `commsets`, `aggregate`), which no new snapshot carries.

use dmc_obs::json::{parse, Json};

/// Per-field tolerances for [`diff_snapshots`].
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Relative tolerance for timing fields: `new > old * (1 + time_rel)`
    /// is a regression. Benchmark timings on shared hosts are noisy, so
    /// gates that run on every commit should pass a generous value.
    pub time_rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances { time_rel: 0.15 }
    }
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_num)
}

fn is_true(v: &Json, key: &str) -> bool {
    matches!(v.get(key), Some(Json::Bool(true)))
}

/// Stages that were removed from the session's stage graph: their
/// `per_stage` rows may vanish from a new snapshot.
const RETIRED_STAGES: [&str; 3] = ["stmt-info", "commsets", "aggregate"];

/// Every `per_stage` row of `old` must still be a row of `new`, unless
/// its stage is retired. Counts are diagnostic and not compared.
fn diff_stage_rows(findings: &mut Vec<String>, ctx: &str, old: &Json, new: &Json) {
    let rows = old.get("per_stage").and_then(Json::as_obj).unwrap_or(&[]);
    for (stage, _) in rows {
        let kept = new.get("per_stage").and_then(|p| p.get(stage)).is_some();
        if !kept && !RETIRED_STAGES.contains(&stage.as_str()) {
            findings.push(format!(
                "{ctx}: per_stage row \"{stage}\" missing from new snapshot"
            ));
        }
    }
}

/// One mode's timing fields, compared with the relative tolerance.
fn diff_timings(findings: &mut Vec<String>, ctx: &str, old: &Json, new: &Json, tol: &Tolerances) {
    for field in ["compile_ms", "schedule_ms", "total_ms"] {
        let (Some(o), Some(n)) = (num(old, field), num(new, field)) else {
            findings.push(format!("{ctx}: missing timing field {field}"));
            continue;
        };
        if n > o * (1.0 + tol.time_rel) {
            findings.push(format!(
                "{ctx}: {field} regressed {o:.3} ms -> {n:.3} ms \
                 (+{:.1}%, tolerance {:.1}%)",
                (n / o - 1.0) * 100.0,
                tol.time_rel * 100.0
            ));
        }
    }
}

/// Compares two `BENCH_pipeline.json` documents. Returns the list of
/// regressions (empty = gate passes).
///
/// # Errors
///
/// Returns an error string when either document fails to parse or lacks
/// the expected structure.
pub fn diff_snapshots(
    old_text: &str,
    new_text: &str,
    tol: &Tolerances,
) -> Result<Vec<String>, String> {
    let old = parse(old_text).map_err(|e| format!("old snapshot: {e}"))?;
    let new = parse(new_text).map_err(|e| format!("new snapshot: {e}"))?;
    let old_wl = old
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("old snapshot: no workloads array")?;
    let new_wl = new
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("new snapshot: no workloads array")?;
    let by_name = |set: &[Json], name: &str| -> Option<Json> {
        set.iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };

    let mut findings = Vec::new();
    for ow in old_wl {
        let name = ow
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let Some(nw) = by_name(new_wl, name) else {
            findings.push(format!("{name}: workload missing from new snapshot"));
            continue;
        };
        // Correctness: exact.
        for field in ["messages", "transmissions", "words"] {
            let (o, n) = (num(ow, field), num(&nw, field));
            if o != n {
                findings.push(format!(
                    "{name}: {field} changed {:?} -> {:?} (must match exactly)",
                    o, n
                ));
            }
        }
        // Work units: exact in both directions, zero tolerance. Absent
        // from both snapshots only when diffing two pre-ledger documents.
        match (num(ow, "work_units"), num(&nw, "work_units")) {
            (Some(o), Some(n)) if o != n => findings.push(format!(
                "{name}: work_units changed {o} -> {n} \
                 (charged work is deterministic; must match exactly)"
            )),
            (Some(_), Some(_)) | (None, None) => {}
            (o, n) => findings.push(format!("{name}: work_units missing ({o:?} vs {n:?})")),
        }
        // Heap allocations: measured in the same single-threaded,
        // cold-cache pass as work_units, hence exact. A snapshot written
        // before the field existed diffs cleanly against a newer one.
        match (num(ow, "allocs"), num(&nw, "allocs")) {
            (Some(o), Some(n)) if o != n => findings.push(format!(
                "{name}: allocs changed {o} -> {n} \
                 (the cold single-threaded allocation count is \
                 deterministic; must match exactly)"
            )),
            (Some(_), Some(_)) | (None, None) | (None, Some(_)) => {}
            (Some(_), None) => {
                findings.push(format!("{name}: allocs dropped from new snapshot"));
            }
        }
        // Simulated time: every machine cost constant is a whole number
        // of nanoseconds, so the simulated clock is exact — any drift at
        // all, in either direction, is a finding (no epsilon).
        match (num(ow, "sim_time_s"), num(&nw, "sim_time_s")) {
            (Some(o), Some(n)) if o != n => findings.push(format!(
                "{name}: sim_time_s changed {o:.6} -> {n:.6} \
                 (whole-ns cost quantization makes the simulated clock exact)"
            )),
            (Some(_), Some(_)) => {}
            (o, n) => findings.push(format!("{name}: sim_time_s missing ({o:?} vs {n:?})")),
        }
        // Critical-path section: every field is an exact integer from the
        // deterministic whole-nanosecond event DAG. The section may appear
        // over a pre-critpath snapshot but never vanish.
        match (ow.get("critpath"), nw.get("critpath")) {
            (Some(oc), Some(nc)) => {
                for field in ["events", "critical_events", "length", "makespan_ns"] {
                    let (o, n) = (num(oc, field), num(nc, field));
                    if o != n {
                        findings.push(format!(
                            "{name}: critpath.{field} changed {o:?} -> {n:?} \
                             (the event DAG is deterministic; must match exactly)"
                        ));
                    }
                }
                for cat in [
                    "compute",
                    "alpha",
                    "beta",
                    "contention",
                    "recv_wait",
                    "drain",
                ] {
                    let (o, n) = (
                        oc.get("blame").and_then(|b| num(b, cat)),
                        nc.get("blame").and_then(|b| num(b, cat)),
                    );
                    if o != n {
                        findings.push(format!(
                            "{name}: critpath blame \"{cat}\" changed {o:?} -> {n:?} \
                             (blame tiles the makespan exactly; must match)"
                        ));
                    }
                }
                let whatif = |v: &Json| {
                    v.get("top_whatif").map(|w| {
                        (
                            w.get("scenario").and_then(Json::as_str).map(str::to_owned),
                            num(w, "msg"),
                            num(w, "win_ns"),
                        )
                    })
                };
                if whatif(oc) != whatif(nc) {
                    findings.push(format!(
                        "{name}: critpath top what-if changed {:?} -> {:?} \
                         (what-if wins are exact DAG re-evaluations; must match)",
                        whatif(oc),
                        whatif(nc)
                    ));
                }
            }
            (None, None) | (None, Some(_)) => {}
            (Some(_), None) => {
                findings.push(format!(
                    "{name}: critpath section dropped from new snapshot"
                ));
            }
        }
        if !is_true(&nw, "identical") {
            findings.push(format!(
                "{name}: cold- and warm-cache outputs no longer identical"
            ));
        }
        // Timing: tolerant.
        match (ow.get("fast"), nw.get("fast")) {
            (Some(om), Some(nm)) => {
                diff_timings(&mut findings, &format!("{name}.fast"), om, nm, tol)
            }
            _ => findings.push(format!("{name}: missing fast section")),
        }
    }

    if !is_true(&new, "all_identical") {
        findings.push("all_identical is not true in new snapshot".to_owned());
    }
    // Stage-graph sweep: hit/miss totals are deterministic, so they gate
    // exactly, like work_units. Absent from both snapshots only when
    // diffing two pre-session documents.
    match (old.get("sweep"), new.get("sweep")) {
        (Some(os), Some(ns)) => {
            for field in ["stage_hits", "stage_misses", "work_units"] {
                let (o, n) = (num(os, field), num(ns, field));
                if o != n {
                    findings.push(format!(
                        "sweep: {field} changed {o:?} -> {n:?} \
                         (stage reuse and charged work are deterministic; \
                         must match exactly)"
                    ));
                }
            }
            let msgs = |v: &Json| {
                v.get("messages").and_then(Json::as_arr).map(|a| {
                    a.iter()
                        .map(|m| m.as_num().unwrap_or(f64::NAN))
                        .collect::<Vec<f64>>()
                })
            };
            if msgs(os) != msgs(ns) {
                findings.push(format!(
                    "sweep: per-step message counts changed {:?} -> {:?} (must match exactly)",
                    msgs(os),
                    msgs(ns)
                ));
            }
            diff_stage_rows(&mut findings, "sweep", os, ns);
        }
        (None, None) | (None, Some(_)) => {}
        (Some(_), None) => {
            findings.push("sweep: section missing from new snapshot".to_owned());
        }
    }
    if let Some(ns) = new.get("sweep") {
        if !is_true(ns, "identical") {
            findings
                .push("sweep: session outputs no longer match the one-shot pipeline".to_owned());
        }
        // What the sweep is for: no Last Write Tree is built twice.
        let lwt = ns.get("per_stage").and_then(|p| p.get("lwt"));
        let counts = ns.get("nprocs").and_then(Json::as_arr).map(<[Json]>::len);
        if let (Some(h), Some(m), Some(counts)) = (
            lwt.and_then(|l| num(l, "hits")),
            lwt.and_then(|l| num(l, "misses")),
            counts,
        ) {
            if h < (counts as f64 - 1.0) * m {
                findings.push(format!(
                    "sweep: {h} lwt hits vs {m} misses over {counts} processor counts \
                     (the sweep must build no Last Write Tree twice)"
                ));
            }
        }
    }
    // Compile journal: request, stage and work-unit totals plus the
    // per-request schedule fingerprints are deterministic, so the gate is
    // exact, like the sweep. Absent from both snapshots only when diffing
    // two pre-journal documents.
    match (old.get("journal"), new.get("journal")) {
        (Some(oj), Some(nj)) => {
            for field in ["requests", "stage_hits", "stage_misses", "work_units"] {
                let (o, n) = (num(oj, field), num(nj, field));
                if o != n {
                    findings.push(format!(
                        "journal: {field} changed {o:?} -> {n:?} \
                         (journal records are deterministic; must match exactly)"
                    ));
                }
            }
            let fps = |v: &Json| {
                v.get("schedule_fps").and_then(Json::as_arr).map(|a| {
                    a.iter()
                        .map(|f| f.as_str().unwrap_or("?").to_owned())
                        .collect::<Vec<String>>()
                })
            };
            if fps(oj) != fps(nj) {
                findings.push(format!(
                    "journal: schedule fingerprints changed {:?} -> {:?} \
                     (equal fingerprints mean byte-identical schedules)",
                    fps(oj),
                    fps(nj)
                ));
            }
            diff_stage_rows(&mut findings, "journal", oj, nj);
        }
        (None, None) | (None, Some(_)) => {}
        (Some(_), None) => {
            findings.push("journal: section missing from new snapshot".to_owned());
        }
    }
    if let Some(nj) = new.get("journal") {
        if !is_true(nj, "replay_identical") {
            findings.push(
                "journal: replay through a fresh session no longer reproduces \
                 the deterministic journal fields"
                    .to_owned(),
            );
        }
    }
    // Polyops microbench: charged work of the isolated engine operations,
    // exact in both directions like work_units. Absent from both only
    // when diffing two pre-polyops documents.
    match (old.get("polyops"), new.get("polyops")) {
        (Some(op), Some(np)) => {
            for field in [
                "feasibility",
                "projection",
                "redundancy",
                "lexmax",
                "batch_family",
                "batch_saved",
            ] {
                let (o, n) = (num(op, field), num(np, field));
                if o != n {
                    findings.push(format!(
                        "polyops: {field} changed {o:?} -> {n:?} \
                         (charged work on canned polyhedra is \
                         deterministic; must match exactly)"
                    ));
                }
            }
        }
        (None, None) | (None, Some(_)) => {}
        (Some(_), None) => {
            findings.push("polyops: section missing from new snapshot".to_owned());
        }
    }
    // Persistent artifact store: cold/warm traffic against the on-disk
    // cache is deterministic, so every counter gates exactly in both
    // directions. Absent from both only when diffing two pre-store
    // documents.
    match (old.get("store"), new.get("store")) {
        (Some(os), Some(ns)) => {
            let subsections: [(&str, &[&str]); 2] = [
                (
                    "cold",
                    &[
                        "stage_hits",
                        "stage_misses",
                        "entries",
                        "bytes",
                        "bytes_written",
                    ],
                ),
                (
                    "warm",
                    &[
                        "stage_hits",
                        "stage_disk_hits",
                        "stage_misses",
                        "bytes_read",
                    ],
                ),
            ];
            for (sub, fields) in subsections {
                let (o_sub, n_sub) = (os.get(sub), ns.get(sub));
                for field in fields {
                    let o = o_sub.and_then(|v| num(v, field));
                    let n = n_sub.and_then(|v| num(v, field));
                    if o != n {
                        findings.push(format!(
                            "store: {sub}.{field} changed {o:?} -> {n:?} \
                             (store traffic is deterministic; must match exactly)"
                        ));
                    }
                }
            }
            for field in ["evictions", "corrupt"] {
                let (o, n) = (num(os, field), num(ns, field));
                if o != n {
                    findings.push(format!(
                        "store: {field} changed {o:?} -> {n:?} \
                         (store traffic is deterministic; must match exactly)"
                    ));
                }
            }
            if let (Some(ow), Some(nw)) = (os.get("warm"), ns.get("warm")) {
                diff_stage_rows(&mut findings, "store.warm", ow, nw);
            }
        }
        (None, None) | (None, Some(_)) => {}
        (Some(_), None) => {
            findings.push("store: section missing from new snapshot".to_owned());
        }
    }
    if let Some(ns) = new.get("store") {
        if !is_true(ns, "identical") {
            findings.push(
                "store: warm-start schedules no longer byte-identical to the cold pass".to_owned(),
            );
        }
        if num(ns, "corrupt") != Some(0.0) {
            findings.push("store: corrupt loads counted during a clean cold/warm pass".to_owned());
        }
        if let Some(w) = ns.get("warm") {
            if let (Some(d), Some(h), Some(m)) = (
                num(w, "stage_disk_hits"),
                num(w, "stage_hits"),
                num(w, "stage_misses"),
            ) {
                if 2.0 * d < h + m {
                    findings.push(format!(
                        "store: warm start served only {d} of {} stage lookups \
                         from disk (need at least half)",
                        h + m
                    ));
                }
            }
        }
    }
    Ok(findings)
}

/// Compares two JSONL compile journals record-by-record. A journal is
/// append-only, so the new journal may *extend* the old one but never
/// shrink it, and every record the two share must agree on all
/// deterministic fields (everything but `wall_us` — see
/// [`dmc_obs::JournalRecord::field_diffs`]). Returns the list of
/// differences (empty = gate passes).
///
/// # Errors
///
/// Returns an error string when either journal fails to parse (the
/// message names the offending 1-based line).
pub fn diff_journals(old_text: &str, new_text: &str) -> Result<Vec<String>, String> {
    let old = dmc_obs::journal::parse_journal(old_text).map_err(|e| format!("old {e}"))?;
    let new = dmc_obs::journal::parse_journal(new_text).map_err(|e| format!("new {e}"))?;
    let mut findings = Vec::new();
    if new.len() < old.len() {
        findings.push(format!(
            "journal shrank from {} to {} record(s) (append-only journals never lose entries)",
            old.len(),
            new.len()
        ));
    }
    for (o, n) in old.iter().zip(new.iter()) {
        for d in o.field_diffs(n) {
            findings.push(format!("seq {} ({}): {d}", o.seq, o.workload));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAP: &str = r#"{
      "bench": "pipeline", "reps": 3,
      "workloads": [
        {"name": "w", "params": [4], "nproc": 2,
         "fast": {"compile_ms": 2.0, "schedule_ms": 10.0, "total_ms": 12.0},
         "identical": true,
         "messages": 5, "transmissions": 7, "words": 30, "work_units": 12345,
         "allocs": 77, "sim_time_s": 0.001500,
         "critpath": {"events": 40, "critical_events": 9, "length": 8,
          "makespan_ns": 1500000,
          "blame": {"compute": 500000, "alpha": 300000, "beta": 200000,
                    "contention": 100000, "recv_wait": 350000, "drain": 50000},
          "top_whatif": {"msg": 3, "scenario": "eliminate", "win_ns": 120000}},
         "work_contexts": {"schedule;lwt": 9000, "schedule;comm": 3345}}
      ],
      "sweep": {"workload": "w", "params": [4], "nprocs": [2, 4],
                "stage_hits": 11, "stage_misses": 9, "messages": [5, 5],
                "work_units": 2222, "identical": true,
                "per_stage": {"lwt": {"hits": 5, "misses": 5},
                              "opt": {"hits": 6, "misses": 4}}},
      "journal": {"requests": 4, "stage_hits": 3, "stage_misses": 17,
                  "work_units": 4444,
                  "schedule_fps": ["aaaa", "bbbb", "cccc", "dddd"],
                  "replay_identical": true},
      "polyops": {"feasibility": 2, "projection": 3, "redundancy": 20,
                  "lexmax": 23, "batch_family": 4, "batch_saved": 4},
      "store": {
        "cold": {"stage_hits": 0, "stage_misses": 45, "entries": 45,
                 "bytes": 2000000, "bytes_written": 2000000},
        "warm": {"stage_hits": 41, "stage_disk_hits": 41, "stage_misses": 0,
                 "bytes_read": 345000},
        "evictions": 0, "corrupt": 0, "identical": true},
      "all_identical": true
    }"#;

    #[test]
    fn self_diff_is_clean() {
        let d = diff_snapshots(SNAP, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn schedule_time_regression_is_caught_and_improvement_is_not() {
        let worse = SNAP.replace("\"schedule_ms\": 10.0", "\"schedule_ms\": 12.0");
        let d = diff_snapshots(SNAP, &worse, &Tolerances::default()).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("schedule_ms regressed"), "{d:?}");

        let better = SNAP.replace("\"schedule_ms\": 10.0", "\"schedule_ms\": 5.0");
        let d = diff_snapshots(SNAP, &better, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "improvements must pass: {d:?}");

        let within = SNAP.replace("\"schedule_ms\": 10.0", "\"schedule_ms\": 11.0");
        let d = diff_snapshots(SNAP, &within, &Tolerances::default()).unwrap();
        assert!(
            d.is_empty(),
            "10% is inside the 15% default tolerance: {d:?}"
        );
    }

    #[test]
    fn correctness_fields_are_exact_both_directions() {
        for (from, to) in [
            ("\"words\": 30", "\"words\": 29"),
            ("\"words\": 30", "\"words\": 31"),
        ] {
            let changed = SNAP.replace(from, to);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert!(d.iter().any(|f| f.contains("words changed")), "{d:?}");
        }
        let changed = SNAP.replace("\"sim_time_s\": 0.001500", "\"sim_time_s\": 0.001501");
        let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
        assert!(d.iter().any(|f| f.contains("sim_time_s changed")), "{d:?}");
    }

    /// The simulated clock gates with NO epsilon: a drift in either
    /// direction is a finding, even one that the old 1e-9 relative
    /// tolerance would have waved through.
    #[test]
    fn sim_time_drift_is_caught_in_both_directions() {
        for injected in [
            "\"sim_time_s\": 0.001501",       // slower
            "\"sim_time_s\": 0.001499",       // faster — still a finding
            "\"sim_time_s\": 0.001500000001", // sub-epsilon drift
        ] {
            let changed = SNAP.replace("\"sim_time_s\": 0.001500", injected);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert_eq!(d.len(), 1, "{injected}: {d:?}");
            assert!(d[0].contains("sim_time_s changed"), "{d:?}");
        }
        let same = SNAP.replace("\"sim_time_s\": 0.001500", "\"sim_time_s\": 0.0015");
        let d = diff_snapshots(SNAP, &same, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "equal values must pass: {d:?}");
    }

    /// Every critpath field is exact in both directions — DAG size, path
    /// length, makespan, each blame category and the top what-if win. The
    /// section may appear over a pre-critpath snapshot but never vanish.
    #[test]
    fn critpath_section_is_gated_exactly_with_backward_compat() {
        for (from, to, what) in [
            ("\"events\": 40", "\"events\": 41", "critpath.events"),
            ("\"length\": 8", "\"length\": 7", "critpath.length"),
            (
                "\"makespan_ns\": 1500000",
                "\"makespan_ns\": 1499999",
                "critpath.makespan_ns",
            ),
            (
                "\"recv_wait\": 350000",
                "\"recv_wait\": 350001",
                "blame \"recv_wait\"",
            ),
            ("\"win_ns\": 120000", "\"win_ns\": 120001", "top what-if"),
            (
                "\"scenario\": \"eliminate\"",
                "\"scenario\": \"aggregate\"",
                "top what-if",
            ),
        ] {
            let changed = SNAP.replace(from, to);
            assert_ne!(changed, SNAP, "{from} not found in SNAP");
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert_eq!(d.len(), 1, "{from}: {d:?}");
            assert!(d[0].contains(what), "{from}: {d:?}");
        }
        // A workload with no what-if opportunity reports null; null on
        // both sides is clean, null vs. a win is a finding.
        let null_new = SNAP.replace(
            "\"top_whatif\": {\"msg\": 3, \"scenario\": \"eliminate\", \"win_ns\": 120000}",
            "\"top_whatif\": null",
        );
        let d = diff_snapshots(&null_new, &null_new, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "null what-ifs on both sides: {d:?}");
        let d = diff_snapshots(SNAP, &null_new, &Tolerances::default()).unwrap();
        assert!(d.iter().any(|f| f.contains("top what-if changed")), "{d:?}");

        // Old snapshot without the section vs. a new one that has it: clean.
        let pre = SNAP.replace("\"critpath\":", "\"critpath_old\":");
        let d = diff_snapshots(&pre, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "section addition must pass: {d:?}");
        // The reverse — the new snapshot dropped it — is a finding.
        let d = diff_snapshots(SNAP, &pre, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("critpath section dropped")),
            "{d:?}"
        );
        // Two pre-critpath snapshots diff cleanly.
        let d = diff_snapshots(&pre, &pre, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    /// An injected extra projection shows up as +1 work unit — and the
    /// zero-tolerance gate catches it, in either direction.
    #[test]
    fn work_units_are_gated_exactly() {
        for injected in ["\"work_units\": 12346", "\"work_units\": 12344"] {
            let changed = SNAP.replace("\"work_units\": 12345", injected);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert_eq!(d.len(), 1, "{d:?}");
            assert!(d[0].contains("work_units changed"), "{d:?}");
        }
        // A snapshot that dropped the field altogether is also a finding.
        let dropped = SNAP.replace("\"work_units\": 12345,", "");
        let d = diff_snapshots(SNAP, &dropped, &Tolerances::default()).unwrap();
        assert!(d.iter().any(|f| f.contains("work_units missing")), "{d:?}");
    }

    /// Allocation counts come from the same cold single-threaded pass as
    /// `work_units`, so the gate is exact both ways — but a snapshot
    /// written before the field existed still diffs cleanly against a
    /// newer one (the field may appear, never vanish).
    #[test]
    fn allocs_are_gated_exactly_with_backward_compat() {
        for injected in ["\"allocs\": 78", "\"allocs\": 76"] {
            let changed = SNAP.replace("\"allocs\": 77", injected);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert_eq!(d.len(), 1, "{d:?}");
            assert!(d[0].contains("allocs changed"), "{d:?}");
        }
        // Old snapshot without the field vs. a new one that has it: clean.
        let pre = SNAP.replace("\"allocs\": 77,", "");
        let d = diff_snapshots(&pre, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "field addition must pass: {d:?}");
        // The reverse — a new snapshot that *dropped* it — is a finding.
        let d = diff_snapshots(SNAP, &pre, &Tolerances::default()).unwrap();
        assert!(d.iter().any(|f| f.contains("allocs dropped")), "{d:?}");
        // Two pre-arena snapshots diff cleanly.
        let d = diff_snapshots(&pre, &pre, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    /// Every polyops field is exact in both directions; the section may
    /// appear over a pre-polyops snapshot but never vanish.
    #[test]
    fn polyops_are_gated_exactly_with_backward_compat() {
        for (from, to) in [
            ("\"lexmax\": 23", "\"lexmax\": 24"),
            ("\"batch_family\": 4", "\"batch_family\": 3"),
            ("\"batch_saved\": 4", "\"batch_saved\": 0"),
        ] {
            let changed = SNAP.replace(from, to);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert_eq!(d.len(), 1, "{d:?}");
            assert!(d[0].contains("polyops:"), "{d:?}");
        }
        let pre = SNAP.replace("\"polyops\":", "\"polyops_old\":");
        let d = diff_snapshots(&pre, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "section addition must pass: {d:?}");
        let d = diff_snapshots(SNAP, &pre, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("polyops: section missing")),
            "{d:?}"
        );
        let d = diff_snapshots(&pre, &pre, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    /// Persistent-store traffic is deterministic, so every counter gates
    /// exactly in both directions; the section may appear over a
    /// pre-store snapshot but never vanish, and a new snapshot must keep
    /// warm starts byte-identical, corruption-free and mostly on-disk.
    #[test]
    fn store_section_is_gated_exactly_with_backward_compat() {
        for (from, to, what) in [
            ("\"entries\": 45", "\"entries\": 44", "cold.entries"),
            (
                "\"bytes_written\": 2000000",
                "\"bytes_written\": 2000001",
                "cold.bytes_written",
            ),
            (
                "\"stage_disk_hits\": 41",
                "\"stage_disk_hits\": 40",
                "warm.stage_disk_hits",
            ),
            (
                "\"bytes_read\": 345000",
                "\"bytes_read\": 344999",
                "warm.bytes_read",
            ),
            ("\"evictions\": 0", "\"evictions\": 1", "evictions"),
        ] {
            let changed = SNAP.replace(from, to);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert!(
                d.iter().any(|f| f.contains("store:") && f.contains(what)),
                "{what}: {d:?}"
            );
        }

        // Warm recomputation shows up twice: the exact gate and the
        // at-least-half-from-disk invariant.
        let recomputed = SNAP.replace(
            "\"stage_disk_hits\": 41, \"stage_misses\": 0",
            "\"stage_disk_hits\": 10, \"stage_misses\": 31",
        );
        let d = diff_snapshots(SNAP, &recomputed, &Tolerances::default()).unwrap();
        assert!(
            d.iter()
                .any(|f| f.contains("from disk (need at least half)")),
            "{d:?}"
        );

        // A corrupt load during a clean pass is a new-snapshot finding
        // on top of the exact counter gate.
        let corrupt = SNAP.replace("\"corrupt\": 0", "\"corrupt\": 2");
        let d = diff_snapshots(SNAP, &corrupt, &Tolerances::default()).unwrap();
        assert!(d.iter().any(|f| f.contains("corrupt loads")), "{d:?}");

        // Warm-start divergence flips the identical flag.
        let diverged = SNAP.replace(
            "\"evictions\": 0, \"corrupt\": 0, \"identical\": true",
            "\"evictions\": 0, \"corrupt\": 0, \"identical\": false",
        );
        let d = diff_snapshots(SNAP, &diverged, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("no longer byte-identical")),
            "{d:?}"
        );

        // Backward compat: appearing is clean, vanishing is a finding.
        let pre = SNAP.replace("\"store\":", "\"store_old\":");
        let d = diff_snapshots(&pre, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "section addition must pass: {d:?}");
        let d = diff_snapshots(SNAP, &pre, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("store: section missing")),
            "{d:?}"
        );
        let d = diff_snapshots(&pre, &pre, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    /// Stage hit/miss totals are deterministic fingerprint lookups, so
    /// the gate holds them exact in either direction — and a new snapshot
    /// whose sweep stopped reusing half its lookups, dropped the section,
    /// or diverged from the one-shot pipeline is a finding on its own.
    #[test]
    fn sweep_counts_are_gated_exactly() {
        for injected in ["\"stage_hits\": 12", "\"stage_hits\": 10"] {
            let changed = SNAP.replace("\"stage_hits\": 11", injected);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert!(d.iter().any(|f| f.contains("stage_hits changed")), "{d:?}");
        }
        let msgs = SNAP.replace("\"messages\": [5, 5]", "\"messages\": [5, 6]");
        let d = diff_snapshots(SNAP, &msgs, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("message counts changed")),
            "{d:?}"
        );

        // A Last Write Tree built twice in the new snapshot is a finding
        // even when the old snapshot agreed (internal consistency): two
        // processor counts need one lwt hit per miss.
        let low = SNAP.replace(
            "\"lwt\": {\"hits\": 5, \"misses\": 5}",
            "\"lwt\": {\"hits\": 4, \"misses\": 6}",
        );
        assert_ne!(low, SNAP);
        let d = diff_snapshots(&low, &low, &Tolerances::default()).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("no Last Write Tree twice"), "{d:?}");
        // Total reuse below one half is not one, as long as the trees hit.
        let few = SNAP.replace(
            "\"opt\": {\"hits\": 6, \"misses\": 4}",
            "\"opt\": {\"hits\": 0, \"misses\": 10}",
        );
        let d = diff_snapshots(&few, &few, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");

        let work = SNAP.replace("\"work_units\": 2222,", "\"work_units\": 2223,");
        let d = diff_snapshots(SNAP, &work, &Tolerances::default()).unwrap();
        assert!(d.iter().any(|f| f.contains("work_units changed")), "{d:?}");

        let diverged = SNAP.replace(
            "\"work_units\": 2222, \"identical\": true",
            "\"work_units\": 2222, \"identical\": false",
        );
        let d = diff_snapshots(SNAP, &diverged, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("no longer match the one-shot")),
            "{d:?}"
        );

        let dropped = SNAP.replace("\"sweep\":", "\"sweep_old\":");
        let d = diff_snapshots(SNAP, &dropped, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("sweep: section missing")),
            "{d:?}"
        );
        // Two pre-session snapshots diff cleanly.
        let d = diff_snapshots(&dropped, &dropped, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    /// Every journal summary field is exact in both directions; the
    /// schedule fingerprints gate as a list; the section may appear over
    /// a pre-journal snapshot but never vanish, and a replay divergence
    /// in the new snapshot is a finding on its own.
    #[test]
    fn journal_section_is_gated_exactly_with_backward_compat() {
        for (from, to) in [
            ("\"requests\": 4", "\"requests\": 5"),
            ("\"stage_hits\": 3", "\"stage_hits\": 2"),
            ("\"work_units\": 4444", "\"work_units\": 4445"),
        ] {
            let changed = SNAP.replace(from, to);
            let d = diff_snapshots(SNAP, &changed, &Tolerances::default()).unwrap();
            assert_eq!(d.len(), 1, "{d:?}");
            assert!(d[0].contains("journal:"), "{d:?}");
        }
        let fps = SNAP.replace("\"cccc\"", "\"eeee\"");
        let d = diff_snapshots(SNAP, &fps, &Tolerances::default()).unwrap();
        assert!(
            d.iter()
                .any(|f| f.contains("schedule fingerprints changed")),
            "{d:?}"
        );

        let diverged = SNAP.replace("\"replay_identical\": true", "\"replay_identical\": false");
        let d = diff_snapshots(SNAP, &diverged, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("no longer reproduces")),
            "{d:?}"
        );

        let pre = SNAP.replace("\"journal\":", "\"journal_old\":");
        let d = diff_snapshots(&pre, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "section addition must pass: {d:?}");
        let d = diff_snapshots(SNAP, &pre, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("journal: section missing")),
            "{d:?}"
        );
        let d = diff_snapshots(&pre, &pre, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    /// Journal-file diffs: byte-identical journals and clean appends
    /// pass; truncation, a deterministic field drift, or a parse error
    /// are findings — but a wall-time change alone is not.
    #[test]
    fn journal_files_diff_on_deterministic_fields_only() {
        let rec = |seq: u64, work: u64, wall: u64| dmc_obs::JournalRecord {
            seq,
            workload: "lu".to_owned(),
            nproc: 8,
            params: vec![48],
            program_fp: "0123456789abcdef0123456789abcdef".to_owned(),
            decomp_fp: "0123456789abcdef0123456789abcdef".to_owned(),
            grid_fp: "0123456789abcdef0123456789abcdef".to_owned(),
            options_fp: "0123456789abcdef0123456789abcdef".to_owned(),
            stage_hits: 1,
            stage_misses: 4,
            work_units: work,
            messages: 3,
            transmissions: 24,
            words: 768,
            schedule_fp: "fedcba9876543210fedcba9876543210".to_owned(),
            wall_us: wall,
        };
        let render = dmc_obs::journal::render_journal;
        let old = render(&[rec(0, 100, 10), rec(1, 200, 20)]);
        assert!(diff_journals(&old, &old).unwrap().is_empty());

        // Appending is what journals do: longer new journal passes.
        let appended = render(&[rec(0, 100, 10), rec(1, 200, 20), rec(2, 300, 30)]);
        assert!(diff_journals(&old, &appended).unwrap().is_empty());
        // Truncation is a finding.
        let d = diff_journals(&appended, &old).unwrap();
        assert!(d.iter().any(|f| f.contains("shrank")), "{d:?}");

        // Wall time moves freely; work units do not.
        let slower = render(&[rec(0, 100, 99999), rec(1, 200, 20)]);
        assert!(diff_journals(&old, &slower).unwrap().is_empty());
        let work = render(&[rec(0, 100, 10), rec(1, 201, 20)]);
        let d = diff_journals(&old, &work).unwrap();
        assert_eq!(d, vec!["seq 1 (lu): work_units: 200 != 201"]);

        // A corrupt journal is an error naming the line, not a finding.
        let err = diff_journals(&old, "garbage").unwrap_err();
        assert!(err.contains("journal line 1"), "{err}");
    }

    /// The retired `meta` block and the diagnostic tilings
    /// (`comm_passes`, `per_stage`) never gate: a pre-meta snapshot diffs
    /// clean against a new one carrying all of them, a snapshot that
    /// dropped `meta` diffs clean against one that has it, and meta churn
    /// (new host, new wall-clock, even a new config fingerprint) is
    /// invisible to the gate.
    #[test]
    fn meta_and_diagnostic_tilings_never_gate() {
        let with_meta = SNAP.replace(
            "\"bench\": \"pipeline\",",
            "\"bench\": \"pipeline\",\n      \"meta\": {\"schema\": 1, \
             \"config_fp\": \"00000000000000000000000000000042\", \
             \"host_parallelism\": 8, \"wall_ms\": 12345},",
        );
        assert_ne!(with_meta, SNAP);
        // Old snapshot without meta vs. new one with it: clean.
        let d = diff_snapshots(SNAP, &with_meta, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "meta addition must gate clean: {d:?}");
        // And the reverse: a snapshot that dropped meta also gates clean
        // (identity is not content; nothing "vanished").
        let d = diff_snapshots(&with_meta, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "meta removal must gate clean: {d:?}");
        // Meta churn between two snapshots that both carry it: clean.
        let moved = with_meta
            .replace("\"host_parallelism\": 8", "\"host_parallelism\": 1")
            .replace("\"wall_ms\": 12345", "\"wall_ms\": 9")
            .replace(
                "00000000000000000000000000000042",
                "ffffffffffffffffffffffffffffffff",
            );
        let d = diff_snapshots(&with_meta, &moved, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "meta churn must gate clean: {d:?}");

        // The diagnostic tilings ride along without gating.
        let with_tilings = SNAP
            .replace(
                "\"work_contexts\":",
                "\"comm_passes\": {\"(none)\": 4, \"fold_receivers\": 1},\n         \
                 \"work_contexts\":",
            )
            .replace(
                "\"replay_identical\": true",
                "\"replay_identical\": true, \
                 \"per_stage\": {\"opt\": {\"hits\": 3, \"misses\": 17}}",
            );
        assert_ne!(with_tilings, SNAP);
        let d = diff_snapshots(SNAP, &with_tilings, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "tiling addition must gate clean: {d:?}");
        let changed = with_tilings
            .replace("\"fold_receivers\": 1", "\"fold_receivers\": 2")
            .replace(
                "{\"hits\": 3, \"misses\": 17}",
                "{\"hits\": 2, \"misses\": 18}",
            );
        let d = diff_snapshots(&with_tilings, &changed, &Tolerances::default()).unwrap();
        assert!(
            d.is_empty(),
            "tiling counts are diagnostic, not gated: {d:?}"
        );
    }

    /// `baseline` and `speedup` are retired: a snapshot from before the
    /// uncached engine mode was deleted diffs clean against one without
    /// them (and back), however slow its baseline was — while the `fast`
    /// section still may not vanish.
    #[test]
    fn retired_baseline_and_speedup_never_gate() {
        let with_baseline = SNAP.replace(
            "\"identical\": true,\n",
            "\"baseline\": {\"compile_ms\": 2.0, \"schedule_ms\": 15.0, \"total_ms\": 17.0},\n         \
             \"speedup\": 1.4, \"identical\": true,\n",
        );
        assert_ne!(with_baseline, SNAP);
        let d = diff_snapshots(&with_baseline, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "retiring baseline must gate clean: {d:?}");
        let d = diff_snapshots(SNAP, &with_baseline, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");

        let no_fast = SNAP.replace("\"fast\":", "\"fast_old\":");
        let d = diff_snapshots(SNAP, &no_fast, &Tolerances::default()).unwrap();
        assert!(
            d.iter().any(|f| f.contains("missing fast section")),
            "{d:?}"
        );
    }

    /// The top-level `threads` section is retired with the per-read
    /// fan-out it measured: whatever an old snapshot's section says — a
    /// slow sequential time, a broken identity flag, an over-reported
    /// worker count — it diffs clean against a snapshot without one (and
    /// back), while every other section still may not vanish.
    #[test]
    fn retired_threads_section_never_gates() {
        let with_threads = SNAP.replace(
            "      \"sweep\":",
            "      \"threads\": {\"available\": 4, \"workers_used\": 9, \"sequential_ms\": 900.0,\n                  \
             \"parallel_ms\": null, \"comparison\": \"measured\", \"identical\": false},\n      \"sweep\":",
        );
        assert_ne!(with_threads, SNAP);
        let d = diff_snapshots(&with_threads, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "retiring threads must gate clean: {d:?}");
        let d = diff_snapshots(SNAP, &with_threads, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");

        for section in ["sweep", "journal", "polyops", "store"] {
            let gone = SNAP.replace(&format!("\"{section}\":"), &format!("\"{section}_old\":"));
            let d = diff_snapshots(SNAP, &gone, &Tolerances::default()).unwrap();
            assert!(!d.is_empty(), "{section} vanished without a finding");
        }
    }

    /// The `stmt-info`, `commsets` and `aggregate` stages are retired with
    /// the artifacts they stored: an old snapshot whose `per_stage`
    /// tilings carry their rows diffs clean against a new one without
    /// them (and back) — while no other row may vanish.
    #[test]
    fn retired_stage_rows_never_gate() {
        let with_retired = SNAP.replace(
            "\"per_stage\": {\"lwt\":",
            "\"per_stage\": {\"stmt-info\": {\"hits\": 1, \"misses\": 1},\n                              \
             \"commsets\": {\"hits\": 5, \"misses\": 5},\n                              \
             \"aggregate\": {\"hits\": 0, \"misses\": 2},\n                              \
             \"lwt\":",
        );
        assert_ne!(with_retired, SNAP);
        let d = diff_snapshots(&with_retired, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "retiring stage rows must gate clean: {d:?}");
        let d = diff_snapshots(SNAP, &with_retired, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");

        let no_opt = SNAP.replace(
            ",\n                              \"opt\": {\"hits\": 6, \"misses\": 4}",
            "",
        );
        assert_ne!(no_opt, SNAP);
        let d = diff_snapshots(SNAP, &no_opt, &Tolerances::default()).unwrap();
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("per_stage row \"opt\" missing"), "{d:?}");
        // A row may appear.
        let d = diff_snapshots(&no_opt, SNAP, &Tolerances::default()).unwrap();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn identity_flags_are_findings() {
        let broken = SNAP.replace("\"identical\": true,\n", "\"identical\": false,\n");
        let d = diff_snapshots(SNAP, &broken, &Tolerances::default()).unwrap();
        assert!(!d.is_empty(), "{d:?}");
    }
}
