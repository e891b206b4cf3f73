//! Deterministic aggregation of the polyhedral work ledger into
//! per-context profiles.
//!
//! The polyhedral engine's ledger ([`dmc_polyhedra::ledger`]) keeps one
//! record per operation, tagged with the attribution context the pipeline
//! pushed (`stmt<i> → read<j> → <pass>`). [`WorkProfile::of`] folds a
//! [`Ledger`] into per-(context, operation-kind) aggregates with two
//! exporters —
//!
//! * [`WorkProfile::collapsed_stack`] — the standard collapsed-stack
//!   format (`frame;frame;frame weight`) consumed by `flamegraph.pl`,
//!   inferno, speedscope, etc. Weighted by **top-level charged work
//!   units**, not time, so the file is byte-identical across runs and
//!   cache states (see the ledger's charged-work scheme).
//! * [`WorkProfile::hotspots_markdown`] — a "Hotspots" section for the
//!   explain report: top contexts by work, FM growth ratios flagging
//!   projection blow-ups, and per-context cache effectiveness.
//!
//! The aggregation is order-insensitive (a `BTreeMap` keyed on the
//! context path), so the order of the ledger's segments never reaches the
//! output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dmc_polyhedra::ledger::{CacheOutcome, Ledger};

/// Aggregate for one (context path, operation kind) row.
#[derive(Clone, Debug, Default)]
struct RowAgg {
    ops: u64,
    /// Charged units of top-level records only (partition of total work).
    top_charged: u64,
    cache_hits: u64,
    cache_misses: u64,
    cons_in: u64,
    cons_out: u64,
}

/// Work-unit profile of one captured run, folded from its ledger by
/// [`WorkProfile::of`].
#[derive(Clone, Debug)]
pub struct WorkProfile {
    /// Root frame of every collapsed stack (typically the workload name).
    root: String,
    rows: BTreeMap<(Vec<String>, &'static str), RowAgg>,
    total_top_charged: u64,
    attributed_top_charged: u64,
    total_ops: u64,
}

/// The frame used for records carrying no attribution context.
const UNATTRIBUTED: &str = "(unattributed)";

impl WorkProfile {
    /// Folds every record of `ledger` into a profile whose collapsed
    /// stacks are rooted at `root`.
    pub fn of(root: impl Into<String>, ledger: &Ledger) -> Self {
        let mut p = WorkProfile {
            root: root.into(),
            rows: BTreeMap::new(),
            total_top_charged: 0,
            attributed_top_charged: 0,
            total_ops: 0,
        };
        for seg in &ledger.segments {
            let ctx = if seg.ctx.is_empty() {
                vec![UNATTRIBUTED.to_owned()]
            } else {
                seg.ctx.clone()
            };
            for r in &seg.records {
                p.total_ops += 1;
                let row = p.rows.entry((ctx.clone(), r.kind.name())).or_default();
                row.ops += 1;
                if r.top_level {
                    p.total_top_charged += r.charged_units;
                    if !seg.ctx.is_empty() {
                        p.attributed_top_charged += r.charged_units;
                    }
                    row.top_charged += r.charged_units;
                }
                match r.cache {
                    CacheOutcome::Hit => row.cache_hits += 1,
                    CacheOutcome::Miss => row.cache_misses += 1,
                    CacheOutcome::Uncached => {}
                }
                row.cons_in += u64::from(r.cons_in);
                row.cons_out += u64::from(r.cons_out);
            }
        }
        p
    }

    /// Total top-level charged units — the run's logical work.
    pub fn total_work(&self) -> u64 {
        self.total_top_charged
    }

    /// Fraction of top-level charged units carrying a non-empty
    /// attribution context (1.0 on an empty profile).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_top_charged == 0 {
            1.0
        } else {
            self.attributed_top_charged as f64 / self.total_top_charged as f64
        }
    }

    /// Per-context top-level charged totals, summed over operation kinds:
    /// `(context path joined with ";", work units)`, sorted by descending
    /// work (ties by path). The context for unattributed records is
    /// `"(unattributed)"`. This is the table behind the `work_contexts`
    /// section of the bench snapshot.
    pub fn context_totals(&self) -> Vec<(String, u64)> {
        let mut by_ctx: BTreeMap<&[String], u64> = BTreeMap::new();
        for ((ctx, _), row) in &self.rows {
            *by_ctx.entry(ctx.as_slice()).or_default() += row.top_charged;
        }
        let mut out: Vec<(String, u64)> = by_ctx
            .into_iter()
            .filter(|(_, units)| *units > 0)
            .map(|(ctx, units)| (ctx.join(";"), units))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The collapsed-stack export: one `root;frame;…;kind weight` line per
    /// (context, kind) row with top-level charged work, sorted by stack.
    /// Feed to `flamegraph.pl` / `inferno-flamegraph` as-is.
    ///
    /// Deterministic: weights are charged work units (cache-state- and
    /// thread-count-independent) and rows are emitted in `BTreeMap` order,
    /// so two captures of the same compilation produce byte-identical
    /// files.
    pub fn collapsed_stack(&self) -> String {
        let mut out = String::new();
        for ((ctx, kind), row) in &self.rows {
            if row.top_charged == 0 {
                continue;
            }
            let _ = write!(out, "{}", self.root);
            for frame in ctx {
                let _ = write!(out, ";{frame}");
            }
            let _ = writeln!(out, ";{kind} {}", row.top_charged);
        }
        out
    }

    /// The "Hotspots" section of the explain report: totals and
    /// attribution, top contexts by charged work, FM growth ratios, and
    /// per-context cache effectiveness. Deterministic (ties broken by
    /// context path).
    pub fn hotspots_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Hotspots ({})", self.root);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "- total work: {} units across {} recorded operations",
            self.total_top_charged, self.total_ops
        );
        let _ = writeln!(
            out,
            "- attributed to contexts: {} units ({:.1}%)",
            self.attributed_top_charged,
            self.attributed_fraction() * 100.0
        );

        // Fold rows up to their context path (summing kinds).
        #[derive(Default)]
        struct CtxAgg {
            top_charged: u64,
            ops: u64,
            hits: u64,
            misses: u64,
        }
        let mut by_ctx: BTreeMap<&[String], CtxAgg> = BTreeMap::new();
        for ((ctx, _), row) in &self.rows {
            let agg = by_ctx.entry(ctx.as_slice()).or_default();
            agg.top_charged += row.top_charged;
            agg.ops += row.ops;
            agg.hits += row.cache_hits;
            agg.misses += row.cache_misses;
        }

        let mut ranked: Vec<(&[String], &CtxAgg)> = by_ctx.iter().map(|(c, a)| (*c, a)).collect();
        ranked.sort_by(|a, b| b.1.top_charged.cmp(&a.1.top_charged).then(a.0.cmp(b.0)));

        let _ = writeln!(out);
        let _ = writeln!(out, "### Top contexts by work units");
        let _ = writeln!(out);
        for (ctx, agg) in ranked.iter().take(10) {
            if agg.top_charged == 0 {
                continue;
            }
            let pct = if self.total_top_charged == 0 {
                0.0
            } else {
                agg.top_charged as f64 / self.total_top_charged as f64 * 100.0
            };
            let queries = agg.hits + agg.misses;
            let cache = if queries == 0 {
                String::new()
            } else {
                format!(", cache {}/{queries} hits", agg.hits)
            };
            let _ = writeln!(
                out,
                "- {}: {} units ({pct:.1}%), {} ops{cache}",
                ctx.join(" > "),
                agg.top_charged,
                agg.ops
            );
        }

        // FM growth: Σ cons_out / Σ cons_in over the fm_step rows of each
        // context. Ratios ≥ 1.5 mark projection chains whose systems grow
        // as dimensions fall — the classic Fourier–Motzkin blow-up.
        let mut growth: Vec<(&[String], f64, u64)> = self
            .rows
            .iter()
            .filter(|((_, kind), row)| *kind == "fm_step" && row.cons_in > 0)
            .map(|((ctx, _), row)| {
                (
                    ctx.as_slice(),
                    row.cons_out as f64 / row.cons_in as f64,
                    row.ops,
                )
            })
            .collect();
        growth.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "### FM growth (constraints out / in per elimination step)"
        );
        let _ = writeln!(out);
        if growth.is_empty() {
            let _ = writeln!(out, "- no FM steps recorded");
        }
        for (ctx, ratio, steps) in growth.iter().take(10) {
            let flag = if *ratio >= 1.5 { "  ⚠ blow-up" } else { "" };
            let _ = writeln!(
                out,
                "- {}: ×{ratio:.2} over {steps} steps{flag}",
                ctx.join(" > ")
            );
        }

        // Cache effectiveness over contexts that issued memoizable queries.
        let _ = writeln!(out);
        let _ = writeln!(out, "### Cache effectiveness");
        let _ = writeln!(out);
        let mut any = false;
        for (ctx, agg) in &ranked {
            let queries = agg.hits + agg.misses;
            if queries == 0 {
                continue;
            }
            any = true;
            let rate = agg.hits as f64 / queries as f64 * 100.0;
            let _ = writeln!(
                out,
                "- {}: {}/{queries} hits ({rate:.1}%)",
                ctx.join(" > "),
                agg.hits
            );
        }
        if !any {
            let _ = writeln!(out, "- no memoizable queries recorded");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use dmc_polyhedra::ledger::{OpKind, OpRecord, Segment};

    use super::*;

    fn op(kind: OpKind, charged: u64, top: bool) -> OpRecord {
        OpRecord {
            kind,
            cons_in: 0,
            cons_out: 0,
            bnb_nodes: 0,
            negation_tests: 0,
            cache: CacheOutcome::Uncached,
            duration_ns: 0,
            self_units: 1,
            charged_units: charged,
            top_level: top,
        }
    }

    /// One segment per `(context, records)` pair, in order.
    fn ledger(segments: Vec<(&[&str], Vec<OpRecord>)>) -> Ledger {
        Ledger {
            segments: (segments.into_iter())
                .map(|(ctx, records)| Segment {
                    ctx: ctx.iter().map(|f| f.to_string()).collect(),
                    records,
                })
                .collect(),
        }
    }

    #[test]
    fn collapsed_stack_weights_top_level_only() {
        let ctx: &[&str] = &["stmt0", "read1"];
        let p = WorkProfile::of(
            "wl",
            &ledger(vec![
                (
                    ctx,
                    // The nested step carries no stack weight.
                    vec![
                        op(OpKind::Projection, 10, true),
                        op(OpKind::FmStep, 4, false),
                    ],
                ),
                (&[], vec![op(OpKind::LexSplit, 3, true)]),
            ]),
        );
        let collapsed = p.collapsed_stack();
        assert_eq!(
            collapsed,
            "wl;(unattributed);lex_split 3\nwl;stmt0;read1;projection 10\n"
        );
        assert_eq!(p.total_work(), 13);
        assert!((p.attributed_fraction() - 10.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn context_totals_sum_kinds_and_sort_by_work() {
        let p = WorkProfile::of(
            "wl",
            &ledger(vec![
                (
                    &["stmt0", "read1"],
                    vec![
                        op(OpKind::Projection, 10, true),
                        op(OpKind::Feasibility, 5, true),
                        op(OpKind::FmStep, 99, false), // nested: no weight
                    ],
                ),
                (&["schedule"], vec![op(OpKind::Redundancy, 20, true)]),
                (&[], vec![op(OpKind::LexSplit, 3, true)]),
            ]),
        );
        assert_eq!(
            p.context_totals(),
            vec![
                ("schedule".to_owned(), 20),
                ("stmt0;read1".to_owned(), 15),
                ("(unattributed)".to_owned(), 3),
            ]
        );
    }

    #[test]
    fn aggregation_is_order_insensitive() {
        let a = || (&["a"][..], vec![op(OpKind::FmStep, 2, true)]);
        let b = || (&["b"][..], vec![op(OpKind::FmStep, 5, true)]);
        let fwd = WorkProfile::of("r", &ledger(vec![a(), b()]));
        let rev = WorkProfile::of("r", &ledger(vec![b(), a()]));
        assert_eq!(fwd.collapsed_stack(), rev.collapsed_stack());
        assert_eq!(fwd.hotspots_markdown(), rev.hotspots_markdown());
    }

    #[test]
    fn hotspots_flags_fm_growth() {
        let grow = OpRecord {
            cons_in: 10,
            cons_out: 25,
            ..op(OpKind::FmStep, 1, true)
        };
        let p = WorkProfile::of("wl", &ledger(vec![(&["stmt0"], vec![grow])]));
        let md = p.hotspots_markdown();
        assert!(md.contains("## Hotspots"), "{md}");
        assert!(md.contains("×2.50"), "{md}");
        assert!(md.contains("blow-up"), "{md}");
    }

    #[test]
    fn empty_profile_is_fully_attributed() {
        let p = WorkProfile::of("wl", &Ledger::default());
        assert_eq!(p.total_work(), 0);
        assert!((p.attributed_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(p.collapsed_stack(), "");
    }
}
