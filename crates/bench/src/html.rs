//! The zero-dependency static trajectory dashboard: one self-contained
//! HTML page rendering a bench history's work units, simulated time,
//! blame shares and session-cache reuse rates over the recorded
//! sequence.
//!
//! The bytes are a pure function of the records' **deterministic**
//! fields: identity meta (host, commit, parallelism, wall-clock, record
//! time) is never rendered, so two histories recorded on different
//! hosts produce identical pages when their metrics agree.
//! `dmc-bench-explain --check` holds the renderer to that: two records
//! of the same metrics under different identity meta must render
//! byte-identical pages.

use dmc_obs::svg::{self, Series};

use crate::history::HistoryRecord;

/// Reuse rate in permille (integer, so the chart stays exact):
/// `hits * 1000 / (hits + misses)`, 0 when the session did nothing.
fn permille(hits: u64, misses: u64) -> u64 {
    (hits * 1000).checked_div(hits + misses).unwrap_or(0)
}

/// The union of workload names across all records, in first-seen order
/// (histories keep snapshot order, so this is stable).
fn workload_names(records: &[HistoryRecord]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in records {
        for w in &r.workloads {
            if !names.contains(&w.name) {
                names.push(w.name.clone());
            }
        }
    }
    names
}

fn metric_series(
    records: &[HistoryRecord],
    names: &[String],
    f: impl Fn(&crate::history::WorkloadSummary) -> u64,
) -> Vec<Series> {
    names
        .iter()
        .map(|name| Series {
            name: name.clone(),
            values: records
                .iter()
                .map(|r| {
                    r.workloads
                        .iter()
                        .find(|w| &w.name == name)
                        .map(&f)
                        .unwrap_or(0)
                })
                .collect(),
        })
        .collect()
}

/// Renders the complete dashboard page for a history (deterministic
/// bytes; see the module docs).
pub fn render_dashboard(records: &[HistoryRecord]) -> String {
    let xs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    let names = workload_names(records);
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>dmc bench trajectory</title>\n<style>\n\
         body { font: 13px/1.4 monospace; margin: 1.5em; color: #222; }\n\
         h1 { font-size: 16px; } h2 { font-size: 14px; margin: 1.2em 0 0.3em; }\n\
         svg.chart { display: block; margin: 0.4em 0 1em; }\n\
         svg .title { font: 12px monospace; fill: #222; }\n\
         svg .tick { font: 10px monospace; fill: #555; }\n\
         svg .frame { fill: none; stroke: #bbb; }\n\
         table { border-collapse: collapse; margin: 0.6em 0; }\n\
         td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }\n\
         th:first-child, td:first-child { text-align: left; }\n\
         </style>\n</head>\n<body>\n<h1>dmc bench trajectory</h1>\n",
    );
    out.push_str(&format!(
        "<p>{} record(s), seq {} to {}.</p>\n",
        records.len(),
        xs.first().copied().unwrap_or(0),
        xs.last().copied().unwrap_or(0)
    ));

    // Record index: only deterministic identity (seq, schema, config).
    out.push_str("<table>\n<tr><th>seq</th><th>schema</th><th>config_fp</th></tr>\n");
    for r in records {
        out.push_str(&format!(
            "<tr><td>#{}</td><td>{}</td><td>{}</td></tr>\n",
            r.seq,
            r.meta.schema,
            svg::escape(&r.meta.config_fp)
        ));
    }
    out.push_str("</table>\n");

    out.push_str("<h2>Charged work units</h2>\n");
    out.push_str(&svg::line_chart(
        "work_units per workload",
        "wu",
        &xs,
        &metric_series(records, &names, |w| w.work_units),
    ));

    out.push_str("<h2>Simulated time</h2>\n");
    out.push_str(&svg::line_chart(
        "makespan per workload",
        "ns",
        &xs,
        &metric_series(records, &names, |w| w.makespan_ns),
    ));

    out.push_str("<h2>Messages</h2>\n");
    out.push_str(&svg::line_chart(
        "messages per workload",
        "msgs",
        &xs,
        &metric_series(records, &names, |w| w.messages),
    ));

    out.push_str("<h2>Critical-path blame shares</h2>\n");
    for name in &names {
        let cats: Vec<String> = records
            .iter()
            .flat_map(|r| r.workloads.iter())
            .find(|w| &w.name == name)
            .map(|w| w.blame.iter().map(|(c, _)| c.clone()).collect())
            .unwrap_or_default();
        let parts: Vec<Series> = cats
            .iter()
            .map(|cat| Series {
                name: cat.clone(),
                values: records
                    .iter()
                    .map(|r| {
                        r.workloads
                            .iter()
                            .find(|w| &w.name == name)
                            .and_then(|w| w.blame.iter().find(|(c, _)| c == cat).map(|(_, v)| *v))
                            .unwrap_or(0)
                    })
                    .collect(),
            })
            .collect();
        out.push_str(&svg::stacked_bars(
            &format!("{name}: blame share of nproc x makespan"),
            &xs,
            &parts,
        ));
    }

    out.push_str("<h2>Session-cache reuse</h2>\n");
    out.push_str(&svg::line_chart(
        "stage-cache reuse rate",
        "permille",
        &xs,
        &[
            Series {
                name: "sweep".to_owned(),
                values: records
                    .iter()
                    .map(|r| permille(r.sweep.stage_hits, r.sweep.stage_misses))
                    .collect(),
            },
            Series {
                name: "journal".to_owned(),
                values: records
                    .iter()
                    .map(|r| permille(r.journal.stage_hits, r.journal.stage_misses))
                    .collect(),
            },
        ],
    ));

    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{HistoryMeta, ReuseSummary, WorkloadSummary};

    fn rec(seq: u64, parallelism: u64, wall_ms: u64) -> HistoryRecord {
        HistoryRecord {
            seq,
            meta: HistoryMeta {
                schema: 1,
                commit: format!("commit-{parallelism}"),
                host: format!("host-{parallelism}"),
                parallelism,
                config_fp: "cfg".to_owned(),
                wall_ms,
                recorded_unix: wall_ms * 7,
            },
            workloads: vec![WorkloadSummary {
                name: "lu".to_owned(),
                nproc: 8,
                messages: 96,
                transmissions: 630,
                words: 8491,
                work_units: 2358 + seq,
                makespan_ns: 34626431,
                blame: vec![
                    ("compute".to_owned(), 11197480),
                    ("recv_wait".to_owned(), 215693347),
                ],
                contexts: vec![],
                comm_passes: vec![],
            }],
            sweep: ReuseSummary {
                stage_hits: 33,
                stage_misses: 31,
                work_units: 1237,
                per_stage: vec![],
            },
            journal: ReuseSummary {
                stage_hits: 0,
                stage_misses: 45,
                work_units: 6023,
                per_stage: vec![],
            },
            store: None,
        }
    }

    /// The page depends only on deterministic fields: two histories
    /// whose records differ in host, commit, parallelism and wall-clock
    /// render byte-identically.
    #[test]
    fn identity_meta_never_reaches_the_page() {
        let a = render_dashboard(&[rec(0, 1, 100), rec(1, 1, 200)]);
        let b = render_dashboard(&[rec(0, 4, 999), rec(1, 4, 1)]);
        assert_eq!(a, b);
        assert!(a.contains("<svg"), "charts rendered");
        assert!(!a.contains("host-1"), "host leaked into the page");
        assert!(!a.contains("commit-1"), "commit leaked into the page");
    }

    #[test]
    fn renders_single_record_histories() {
        let page = render_dashboard(&[rec(0, 1, 0)]);
        assert!(page.contains("1 record(s)"));
        assert!(page.contains("<circle"), "single points draw as dots");
    }
}
