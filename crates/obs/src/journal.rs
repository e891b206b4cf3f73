//! The append-only compile journal: one deterministic JSONL record per
//! served compile.
//!
//! A journal is the durable, replayable log of what a session did: for
//! every request it appends one line holding the input fingerprints
//! (program, decomposition, grid, options), the session's stage-cache
//! behaviour (hits/misses), the exact charged [`work
//! units`](JournalRecord::work_units), the schedule's message statistics,
//! a fingerprint of the schedule itself, and the wall time. Every field
//! except the wall time is **deterministic**: re-running the journal's
//! requests, in order, through a fresh session reproduces the
//! deterministic fields byte-for-byte — which is exactly what the
//! `dmc journal --replay` mode asserts. Wall times are recorded for
//! humans and excluded from [`JournalRecord::deterministic_eq`] and
//! journal diffs.
//!
//! The format is one JSON object per line with a fixed key order, so a
//! journal can be compared with `diff(1)`, tailed, and appended to
//! without rewriting. Parsing is strict: an unreadable line is an error
//! naming the line number, not a silent skip.

use crate::json::{self, Json};

/// One served compile, as one journal line. All fields except
/// [`wall_us`](Self::wall_us) are deterministic for a given request
/// sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalRecord {
    /// Position in the journal (0-based, dense).
    pub seq: u64,
    /// Workload label the serving caller chose (e.g. `"lu"`).
    pub workload: String,
    /// Processors of the target grid.
    pub nproc: u64,
    /// Symbolic parameter values the schedule was built for.
    pub params: Vec<i64>,
    /// Fingerprint of the source program (32 hex digits).
    pub program_fp: String,
    /// Fingerprint of the data decomposition.
    pub decomp_fp: String,
    /// Fingerprint of the processor grid.
    pub grid_fp: String,
    /// Fingerprint of the compile options.
    pub options_fp: String,
    /// Session stage-cache hits this request added.
    pub stage_hits: u64,
    /// Session stage-cache misses this request added.
    pub stage_misses: u64,
    /// Charged polyhedral work units this request cost (deterministic
    /// across cache states).
    pub work_units: u64,
    /// Distinct messages in the built schedule.
    pub messages: u64,
    /// Message transmissions (receiver fan-out counted).
    pub transmissions: u64,
    /// Words moved across all transmissions.
    pub words: u64,
    /// Fingerprint of the complete schedule (32 hex digits); equal
    /// fingerprints mean byte-identical schedules.
    pub schedule_fp: String,
    /// Wall-clock microseconds serving the request took. Diagnostic
    /// only; never part of deterministic comparisons.
    pub wall_us: u64,
}

impl JournalRecord {
    /// Renders the record as one JSON line (no trailing newline), keys
    /// in fixed order.
    pub fn to_jsonl(&self) -> String {
        let params: Vec<String> = self.params.iter().map(|p| p.to_string()).collect();
        format!(
            concat!(
                "{{\"seq\":{},\"workload\":{},\"nproc\":{},\"params\":[{}],",
                "\"program_fp\":{},\"decomp_fp\":{},\"grid_fp\":{},\"options_fp\":{},",
                "\"stage_hits\":{},\"stage_misses\":{},\"work_units\":{},",
                "\"messages\":{},\"transmissions\":{},\"words\":{},",
                "\"schedule_fp\":{},\"wall_us\":{}}}"
            ),
            self.seq,
            json::quote(&self.workload),
            self.nproc,
            params.join(","),
            json::quote(&self.program_fp),
            json::quote(&self.decomp_fp),
            json::quote(&self.grid_fp),
            json::quote(&self.options_fp),
            self.stage_hits,
            self.stage_misses,
            self.work_units,
            self.messages,
            self.transmissions,
            self.words,
            json::quote(&self.schedule_fp),
            self.wall_us,
        )
    }

    /// Parses one journal line.
    pub fn from_json_line(line: &str) -> Result<JournalRecord, String> {
        let v = json::parse(line)?;
        let num = |key: &str| -> Result<u64, String> {
            let n = v
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing or non-numeric field `{key}`"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("field `{key}` is not a non-negative integer: {n}"));
            }
            Ok(n as u64)
        };
        let text = |key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing or non-string field `{key}`"))?
                .to_owned())
        };
        let params = v
            .get("params")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing or non-array field `params`".to_owned())?
            .iter()
            .map(|p| {
                let n = p
                    .as_num()
                    .ok_or_else(|| "non-numeric entry in `params`".to_owned())?;
                if n.fract() != 0.0 {
                    return Err(format!("non-integer entry in `params`: {n}"));
                }
                Ok(n as i64)
            })
            .collect::<Result<Vec<i64>, String>>()?;
        let fp = |key: &str| -> Result<String, String> {
            let s = text(key)?;
            if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!(
                    "field `{key}` is not a 32-hex-digit fingerprint: {s:?}"
                ));
            }
            Ok(s)
        };
        Ok(JournalRecord {
            seq: num("seq")?,
            workload: text("workload")?,
            nproc: num("nproc")?,
            params,
            program_fp: fp("program_fp")?,
            decomp_fp: fp("decomp_fp")?,
            grid_fp: fp("grid_fp")?,
            options_fp: fp("options_fp")?,
            stage_hits: num("stage_hits")?,
            stage_misses: num("stage_misses")?,
            work_units: num("work_units")?,
            messages: num("messages")?,
            transmissions: num("transmissions")?,
            words: num("words")?,
            schedule_fp: fp("schedule_fp")?,
            wall_us: num("wall_us")?,
        })
    }

    /// Whether two records agree on every deterministic field (all but
    /// `wall_us`).
    pub fn deterministic_eq(&self, other: &JournalRecord) -> bool {
        self.field_diffs(other).is_empty()
    }

    /// The deterministic fields on which two records disagree, as
    /// `field: left != right` lines. Empty means deterministically
    /// equal.
    pub fn field_diffs(&self, other: &JournalRecord) -> Vec<String> {
        let mut out = Vec::new();
        let mut chk = |name: &str, a: &dyn std::fmt::Display, b: &dyn std::fmt::Display| {
            let (a, b) = (a.to_string(), b.to_string());
            if a != b {
                out.push(format!("{name}: {a} != {b}"));
            }
        };
        chk("seq", &self.seq, &other.seq);
        chk("workload", &self.workload, &other.workload);
        chk("nproc", &self.nproc, &other.nproc);
        let params = |p: &[i64]| {
            p.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        chk("params", &params(&self.params), &params(&other.params));
        chk("program_fp", &self.program_fp, &other.program_fp);
        chk("decomp_fp", &self.decomp_fp, &other.decomp_fp);
        chk("grid_fp", &self.grid_fp, &other.grid_fp);
        chk("options_fp", &self.options_fp, &other.options_fp);
        chk("stage_hits", &self.stage_hits, &other.stage_hits);
        chk("stage_misses", &self.stage_misses, &other.stage_misses);
        chk("work_units", &self.work_units, &other.work_units);
        chk("messages", &self.messages, &other.messages);
        chk("transmissions", &self.transmissions, &other.transmissions);
        chk("words", &self.words, &other.words);
        chk("schedule_fp", &self.schedule_fp, &other.schedule_fp);
        out
    }
}

/// Renders a journal as JSONL text (one record per line, trailing
/// newline).
pub fn render_journal(records: &[JournalRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_jsonl());
        out.push('\n');
    }
    out
}

/// Parses JSONL journal text. Strict: any unreadable line fails with a
/// one-line error naming the 1-based line number, and `seq` must be
/// dense from 0 (an append-only journal never has holes).
pub fn parse_journal(text: &str) -> Result<Vec<JournalRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            return Err(format!("journal line {}: blank line", i + 1));
        }
        let rec = JournalRecord::from_json_line(line)
            .map_err(|e| format!("journal line {}: {e}", i + 1))?;
        if rec.seq != out.len() as u64 {
            return Err(format!(
                "journal line {}: seq {} out of order (expected {})",
                i + 1,
                rec.seq,
                out.len()
            ));
        }
        out.push(rec);
    }
    Ok(out)
}

/// Compares two JSONL journals record by record. A journal is
/// append-only, so the new journal may *extend* the old one but never
/// shrink it, and every record the two share must agree on all
/// deterministic fields ([`JournalRecord::field_diffs`]). Returns the
/// differences; empty means the new journal passes.
///
/// # Errors
///
/// Returns an error when either journal fails to parse (the message
/// names the offending 1-based line).
pub fn diff_journals(old_text: &str, new_text: &str) -> Result<Vec<String>, String> {
    let old = parse_journal(old_text).map_err(|e| format!("old {e}"))?;
    let new = parse_journal(new_text).map_err(|e| format!("new {e}"))?;
    let mut findings = Vec::new();
    if new.len() < old.len() {
        findings.push(format!(
            "journal shrank from {} to {} record(s) (append-only journals never lose entries)",
            old.len(),
            new.len()
        ));
    }
    for (o, n) in old.iter().zip(&new) {
        for d in o.field_diffs(n) {
            findings.push(format!("seq {} ({}): {d}", o.seq, o.workload));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            workload: "lu".to_owned(),
            nproc: 8,
            params: vec![48],
            program_fp: "0123456789abcdef0123456789abcdef".to_owned(),
            decomp_fp: "00000000000000000000000000000001".to_owned(),
            grid_fp: "00000000000000000000000000000002".to_owned(),
            options_fp: "00000000000000000000000000000003".to_owned(),
            stage_hits: 1,
            stage_misses: 4,
            work_units: 1234,
            messages: 3,
            transmissions: 24,
            words: 768,
            schedule_fp: "fedcba9876543210fedcba9876543210".to_owned(),
            wall_us: 999,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let rec = sample(0);
        let line = rec.to_jsonl();
        assert!(!line.contains('\n'));
        let back = JournalRecord::from_json_line(&line).unwrap();
        assert_eq!(back, rec);
        let text = render_journal(&[sample(0), sample(1)]);
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].seq, 1);
    }

    #[test]
    fn deterministic_eq_ignores_wall_time_only() {
        let a = sample(0);
        let mut b = sample(0);
        b.wall_us = 1;
        assert!(a.deterministic_eq(&b));
        b.work_units += 1;
        let diffs = a.field_diffs(&b);
        assert_eq!(diffs, vec!["work_units: 1234 != 1235"]);
    }

    #[test]
    fn parse_rejects_corruption_with_line_numbers() {
        let good = render_journal(&[sample(0), sample(1)]);
        // Truncated JSON on line 2.
        let mut lines: Vec<&str> = good.lines().collect();
        let cut = &lines[1][..lines[1].len() / 2];
        lines[1] = cut;
        let err = parse_journal(&lines.join("\n")).unwrap_err();
        assert!(err.starts_with("journal line 2:"), "{err}");
        // Bad fingerprint.
        let bad_fp = good.replace("fedcba9876543210fedcba9876543210", "nope");
        let err = parse_journal(&bad_fp).unwrap_err();
        assert!(err.contains("schedule_fp"), "{err}");
        // Seq hole.
        let hole = render_journal(&[sample(0), sample(2)]);
        let err = parse_journal(&hole).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    /// Byte-identical journals and clean appends pass; truncation, a
    /// deterministic field drift, or a parse error are findings — but a
    /// wall-time change alone is not.
    #[test]
    fn journal_files_diff_on_deterministic_fields_only() {
        let rec = |seq: u64, work: u64, wall: u64| JournalRecord {
            work_units: work,
            wall_us: wall,
            ..sample(seq)
        };
        let old = render_journal(&[rec(0, 100, 10), rec(1, 200, 20)]);
        assert!(diff_journals(&old, &old).unwrap().is_empty());

        // Appending is what journals do: longer new journal passes.
        let appended = render_journal(&[rec(0, 100, 10), rec(1, 200, 20), rec(2, 300, 30)]);
        assert!(diff_journals(&old, &appended).unwrap().is_empty());
        // Truncation is a finding.
        let d = diff_journals(&appended, &old).unwrap();
        assert!(d.iter().any(|f| f.contains("shrank")), "{d:?}");

        // Wall time moves freely; work units do not.
        let slower = render_journal(&[rec(0, 100, 99999), rec(1, 200, 20)]);
        assert!(diff_journals(&old, &slower).unwrap().is_empty());
        let work = render_journal(&[rec(0, 100, 10), rec(1, 201, 20)]);
        let d = diff_journals(&old, &work).unwrap();
        assert_eq!(d, vec!["seq 1 (lu): work_units: 200 != 201"]);

        // A corrupt journal is an error naming the line, not a finding.
        let err = diff_journals(&old, "garbage").unwrap_err();
        assert!(err.contains("journal line 1"), "{err}");
    }
}
