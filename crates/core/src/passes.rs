//! The §6 set-level optimization sequence as a declared pass list.
//!
//! Each [`PassDesc`] names one optimization, says when it is enabled,
//! runs it, and — for the compilation-session stage cache — declares
//! exactly which parts of the input beyond the incoming communication
//! sets its *answer* depends on ([`PassDesc::fingerprint`]). The driver
//! ([`optimize_sets`]) walks the list in order, so the sequence §6.1.1 →
//! cross-set reuse → unique sender → receiver folding → §6.1.3 is data,
//! not straight-line code: ablations toggle entries, the session layer
//! hashes them, and the explain report names them, all from one source
//! of truth.
//!
//! Pass order is semantic, not incidental: self-reuse elimination must
//! run before receiver folding (folding assumes one transfer per value
//! and virtual receiver), and `unique_sender` before `already_local`
//! (locality of a replicated sender set is decided per surviving
//! sender).

use dmc_commgen::{
    eliminate_already_local, eliminate_cross_set_reuse, eliminate_self_reuse, unique_sender,
    CommSet,
};
use dmc_decomp::DataDecomp;
use dmc_obs as obs;
use dmc_polyhedra::codec::Enc;
use dmc_polyhedra::ledger;

use crate::options::{Options, Strategy};
use crate::pipeline::{CompileError, CompileInput};

/// One declared §6 optimization pass.
pub(crate) struct PassDesc {
    /// Short name, as reported in `opt.pass` trace events (`self_reuse`).
    pub name: &'static str,
    /// Span / ledger-context label (`opt.self_reuse`).
    pub span: &'static str,
    /// Whether `options` enable this pass.
    pub enabled: fn(&Options) -> bool,
    /// Writes everything this pass's *answer* depends on — beyond the
    /// incoming sets and the knobs already covered by the per-read chain
    /// key — into the `opt` stage key. This is the pass's row of the
    /// Options→fingerprint relevance map (see `session`).
    pub fingerprint: fn(&CompileInput, &Options, &mut Enc),
    /// Runs the pass over one tree's communication sets.
    pub run: PassFn,
}

/// A pass body: transforms one tree's communication sets.
pub type PassFn = fn(Vec<CommSet>, &CompileInput, &Options) -> Result<Vec<CommSet>, CompileError>;

/// The §6 sequence, in execution order.
pub(crate) const OPT_PASSES: &[PassDesc] = &[
    PassDesc {
        name: "self_reuse",
        span: "opt.self_reuse",
        enabled: |o| o.self_reuse,
        // Strategy picks the algorithm (full vs. outermost-iteration-scoped
        // dedup); the written-array set it consults is covered by the
        // program-skeleton hash upstream in the chain fingerprint.
        fingerprint: |_, o, e| e.u8(strategy_tag(o.strategy)),
        run: run_self_reuse,
    },
    PassDesc {
        name: "cross_set_reuse",
        span: "opt.cross_set_reuse",
        // Rides on self-reuse elimination: it extends it across contexts,
        // and only value-centric sets carry the contexts it merges.
        enabled: |o| o.self_reuse && o.strategy == Strategy::ValueCentric,
        fingerprint: |_, _, _| {},
        run: |cur, _, _| Ok(eliminate_cross_set_reuse(&cur)?),
    },
    PassDesc {
        name: "unique_sender",
        span: "opt.unique_sender",
        enabled: |o| o.unique_sender,
        fingerprint: |_, _, _| {},
        run: |cur, _, _| {
            let mut next = Vec::new();
            for cs in &cur {
                next.extend(unique_sender(cs)?);
            }
            Ok(next)
        },
    },
    PassDesc {
        // §6.1.3 / §7 — deliver each value once per *physical* processor:
        // restrict receivers to the first-use virtual on each physical
        // coordinate. Also keeps message enumeration proportional to
        // physical (not virtual) receiver counts. Rides on self-reuse
        // elimination (assumes one transfer per value and receiver).
        name: "fold_receivers",
        span: "opt.fold_receivers",
        enabled: |o| o.self_reuse,
        fingerprint: |input, _, e| input.grid.encode(e),
        run: |cur, input, _| {
            let extents = input.grid.extents().to_vec();
            let mut next = Vec::new();
            for cs in &cur {
                if cs.dims.pr.len() == extents.len() {
                    next.extend(dmc_commgen::fold_receivers(cs, &extents)?);
                } else {
                    next.push(cs.clone());
                }
            }
            Ok(next)
        },
    },
    PassDesc {
        name: "already_local",
        span: "opt.already_local",
        enabled: |o| o.already_local,
        // Consults the initial data decomposition of each surviving set's
        // array; any array can surface here, so the whole (name-sorted)
        // initial map is relevant.
        fingerprint: |input, _, e| crate::session::encode_initial(input, e),
        run: run_already_local,
    },
];

/// A stable tag per strategy for stage keys.
pub(crate) fn strategy_tag(s: Strategy) -> u8 {
    match s {
        Strategy::ValueCentric => 0,
        Strategy::LocationCentric => 1,
    }
}

fn run_self_reuse(
    cur: Vec<CommSet>,
    input: &CompileInput,
    options: &Options,
) -> Result<Vec<CommSet>, CompileError> {
    let mut next = Vec::new();
    for cs in &cur {
        match options.strategy {
            Strategy::ValueCentric => next.extend(eliminate_self_reuse(cs)?),
            Strategy::LocationCentric => {
                // Without value information, a location written inside
                // the nest may change every iteration of the outermost
                // loop; dedup is only safe within one such iteration
                // (§2.2.2). Read-only arrays dedup fully.
                let written = input
                    .program
                    .statements()
                    .iter()
                    .any(|s| s.stmt.write.array == cs.array);
                let keep = usize::from(written);
                next.extend(dmc_commgen::eliminate_self_reuse_from(cs, keep)?);
            }
        }
    }
    Ok(next)
}

fn run_already_local(
    cur: Vec<CommSet>,
    input: &CompileInput,
    _options: &Options,
) -> Result<Vec<CommSet>, CompileError> {
    let mut next = Vec::new();
    for cs in cur {
        // Valid only for initial-owner (live-in) data: owning a copy of
        // the *location* says nothing about holding the current *value*
        // once the program starts writing it. Only replicating
        // decompositions (overlap / full replication) can make a
        // receiver already own a copy.
        let replicates = |d: &DataDecomp| {
            d.maps.is_empty()
                || d.maps
                    .iter()
                    .any(|m| m.overlap_lo != 0 || m.overlap_hi != 0)
        };
        match input.initial.get(&cs.array) {
            Some(d) if cs.sender == dmc_commgen::SenderKind::InitialOwner && replicates(d) => {
                next.extend(eliminate_already_local(&cs, d)?);
            }
            _ => next.push(cs),
        }
    }
    Ok(next)
}

/// Emits one §6 pass's summary event (inside that pass's span).
fn opt_pass_event(pass: &'static str, sets_in: usize, sets_out: usize) {
    obs::event_f("opt.pass", || {
        vec![
            obs::field("pass", pass),
            obs::field("sets_in", sets_in),
            obs::field("sets_out", sets_out),
        ]
    });
}

/// Applies the enabled §6 set-level optimizations to one tree's sets by
/// walking [`OPT_PASSES`] in order.
pub(crate) fn optimize_sets(
    sets: Vec<CommSet>,
    input: &CompileInput,
    options: Options,
) -> Result<Vec<CommSet>, CompileError> {
    let mut cur = sets;
    for pass in OPT_PASSES {
        if !(pass.enabled)(&options) {
            continue;
        }
        let _s = obs::span(pass.span);
        let _c = ledger::push_context(pass.span);
        let n_in = cur.len();
        cur = (pass.run)(cur, input, &options)?;
        opt_pass_event(pass.name, n_in, cur.len());
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::OPT_PASSES;

    /// The opt codec interns provenance steps against `KNOWN_STEPS`, so a
    /// pass missing there would leave its own artifacts undecodable.
    #[test]
    fn opt_passes_are_the_codecs_known_steps_in_order() {
        let names: Vec<&str> = OPT_PASSES.iter().map(|p| p.name).collect();
        assert_eq!(names, dmc_commgen::codec::KNOWN_STEPS);
    }
}
