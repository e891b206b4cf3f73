//! Batched feasibility for uniformly-generated constraint families.
//!
//! Communication generation and dataflow analysis frequently test many
//! systems that share one coefficient matrix and differ only in constant
//! offsets — the pieces of a lexicographic split, the residue of a
//! polyhedral subtraction, the per-reference sets of a uniformly-generated
//! reference family (same access matrix, shifted constants). Answering
//! each with an independent solver query repeats the same Fourier–Motzkin
//! work per member.
//!
//! [`batch_feasibility`] answers a whole batch at once. Members are
//! grouped by **matrix signature** (the set of `(kind, coefficient-row)`
//! pairs with constants stripped from inequalities); within a group the
//! members form a lattice under syntactic subset dominance:
//!
//! > With identical signatures, member `A` is a subset of member `B`
//! > exactly when every inequality constant of `A` is ≤ the corresponding
//! > constant of `B` (a smaller constant in `e + c >= 0` is tighter) and
//! > the equality rows agree.
//!
//! One solver answer then propagates for free: a **feasible** member
//! proves every superset feasible (the witness point transfers), an
//! **infeasible** member refutes every subset (a subset of an empty set is
//! empty). Each group is answered in two phases:
//!
//! 1. **Envelope query** — the family's pointwise-loosest system (the
//!    per-row maximum constant) contains every member, so a single
//!    parametric query can refute the whole family at once. When the
//!    envelope coincides with an actual member the query is free; a
//!    synthetic envelope is only worth constructing for groups of three
//!    or more (an infeasible answer then saves at least two queries,
//!    a feasible one wastes exactly one).
//! 2. **Dominance chain** — remaining members are solved tightest
//!    (lexicographically smallest constants) first; every feasible answer
//!    propagates to its unresolved supersets before the next solve. Only
//!    `Unknown` answers never propagate.
//!
//! Answers are exactly the per-query answers whenever the solver is exact
//! (no `Unknown`): propagation only transports definite answers along
//! sound set inclusions. Work accounting stays deterministic — grouping,
//! ordering, and propagation depend only on the input systems, never on
//! thread interleaving or memo-cache state — so ledger charges for a
//! batched call replay identically across runs. Queries the batch did not
//! need to run are counted in [`PolyStats::batch_saved`](crate::PolyStats).

use std::collections::BTreeMap;

use crate::{ledger, ConstraintKind, Feasibility, PolyError, Polyhedron};

/// The dominance-comparable form of one member: equality rows in full,
/// inequality rows reduced to the tightest constant per coefficient row
/// (`e + c1 >= 0` implies `e + c2 >= 0` for `c1 <= c2`, so only the
/// minimum binds).
struct Member {
    eq_rows: Vec<(Vec<i128>, i128)>,
    ge: BTreeMap<Vec<i128>, i128>,
}

/// A family key: space arity, the full equality rows, and the inequality
/// coefficient rows with constants stripped.
type Signature = (usize, Vec<(Vec<i128>, i128)>, Vec<Vec<i128>>);

impl Member {
    fn of(p: &Polyhedron) -> Member {
        let mut eq_rows: Vec<(Vec<i128>, i128)> = Vec::new();
        let mut ge: BTreeMap<Vec<i128>, i128> = BTreeMap::new();
        for c in p.constraints() {
            let coeffs = c.expr().coeffs().to_vec();
            let k = c.expr().constant_term();
            match c.kind() {
                ConstraintKind::Eq => eq_rows.push((coeffs, k)),
                ConstraintKind::Ge => {
                    ge.entry(coeffs)
                        .and_modify(|m| *m = (*m).min(k))
                        .or_insert(k);
                }
            }
        }
        eq_rows.sort();
        Member { eq_rows, ge }
    }

    /// The [`Signature`] of this member. Two members with equal
    /// signatures differ only in inequality constants.
    fn signature(&self, space_len: usize) -> Signature {
        (
            space_len,
            self.eq_rows.clone(),
            self.ge.keys().cloned().collect(),
        )
    }

    /// Whether `self ⊆ other` as integer sets: identical signature assumed,
    /// so the inclusion holds exactly when every inequality constant of
    /// `self` is at most the corresponding constant of `other`.
    fn subset_of(&self, other: &Member) -> bool {
        self.ge.values().zip(other.ge.values()).all(|(a, b)| a <= b)
    }
}

/// Integer feasibility of every system in `polys`, exploiting shared
/// coefficient matrices: one solver query can resolve a whole dominance
/// chain of a uniformly-generated family. `out[i]` corresponds to
/// `polys[i]`. See the `batch` module docs for the grouping and
/// propagation rules.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] if any member's query overflows.
pub fn batch_feasibility(polys: &[Polyhedron]) -> Result<Vec<Feasibility>, PolyError> {
    let members: Vec<Member> = polys.iter().map(Member::of).collect();
    // Group indices by signature (BTreeMap: deterministic group order).
    type Sig = (usize, Vec<(Vec<i128>, i128)>, Vec<Vec<i128>>);
    let mut groups: BTreeMap<Sig, Vec<usize>> = BTreeMap::new();
    for (i, m) in members.iter().enumerate() {
        groups
            .entry(m.signature(polys[i].space().len()))
            .or_default()
            .push(i);
    }

    let mut out: Vec<Option<Feasibility>> = vec![None; polys.len()];
    for indices in groups.values() {
        // Tightest members first (lexicographic on the constant vector);
        // pointwise dominance implies lexicographic order, so a member's
        // supersets always come later in the chain.
        let vector = |i: usize| -> Vec<i128> { members[i].ge.values().copied().collect() };
        let mut order = indices.clone();
        order.sort_by(|&a, &b| vector(a).cmp(&vector(b)).then(a.cmp(&b)));

        // Phase 1: the envelope — per-row maximum constants — contains
        // every member, so its infeasibility refutes the whole group.
        let envelope: Vec<i128> = order
            .iter()
            .map(|&i| vector(i))
            .fold(vec![i128::MIN; members[order[0]].ge.len()], |acc, v| {
                acc.iter().zip(&v).map(|(a, b)| *a.max(b)).collect()
            });
        let is_member_envelope = vector(*order.last().expect("nonempty group")) == envelope;
        let envelope_f = if is_member_envelope {
            // The loosest member is the envelope: query it directly.
            let i = *order.last().expect("nonempty group");
            let f = polys[i].integer_feasibility()?;
            out[i] = Some(f);
            f
        } else if order.len() >= 3 {
            // Synthetic envelope: worth one speculative query only when an
            // infeasible answer would save at least two member queries.
            let mut env = Polyhedron::universe(polys[order[0]].space().clone());
            for (coeffs, k) in &members[order[0]].eq_rows {
                env.add(crate::Constraint::eq(crate::LinExpr::from_coeffs(
                    coeffs.clone(),
                    *k,
                )));
            }
            for (coeffs, k) in members[order[0]].ge.keys().zip(&envelope) {
                env.add(crate::Constraint::ge(crate::LinExpr::from_coeffs(
                    coeffs.clone(),
                    *k,
                )));
            }
            env.integer_feasibility()?
        } else {
            Feasibility::Unknown
        };
        if envelope_f == Feasibility::Infeasible {
            for &i in &order {
                if out[i].is_none() {
                    out[i] = Some(Feasibility::Infeasible);
                    ledger::count(|s| s.batch_saved += 1);
                }
            }
            continue;
        }

        // Phase 2: dominance chain from the tight end; feasible answers
        // propagate to unresolved supersets (infeasible ones to unresolved
        // subsets — only exact duplicates, given the solve order).
        for &i in &order {
            if out[i].is_some() {
                continue;
            }
            let f = polys[i].integer_feasibility()?;
            out[i] = Some(f);
            if f == Feasibility::Unknown {
                continue;
            }
            for &j in &order {
                if out[j].is_some() {
                    continue;
                }
                let propagated = match f {
                    // A witness of the subset lies in every superset.
                    Feasibility::Feasible => members[i].subset_of(&members[j]),
                    // A subset of an empty set is empty.
                    Feasibility::Infeasible => members[j].subset_of(&members[i]),
                    Feasibility::Unknown => false,
                };
                if propagated {
                    out[j] = Some(f);
                    ledger::count(|s| s.batch_saved += 1);
                }
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|f| f.expect("every member resolved"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stats, Constraint, DimKind, LinExpr, Space};

    fn space(n: usize) -> Space {
        let mut s = Space::new();
        for d in 0..n {
            s.add_dim(format!("x{d}"), DimKind::Index);
        }
        s
    }

    /// A box `0 <= x_d <= hi_d` shifted by per-member constants: the
    /// canonical uniformly-generated family.
    fn shifted_box(n: usize, lo: &[i128], hi: &[i128]) -> Polyhedron {
        let mut p = Polyhedron::universe(space(n));
        for d in 0..n {
            let mut l = LinExpr::var(n, d);
            l.set_constant(-lo[d]);
            p.add(Constraint::ge(l));
            let mut h = LinExpr::var(n, d).scaled(-1);
            h.set_constant(hi[d]);
            p.add(Constraint::ge(h));
        }
        p
    }

    #[test]
    fn family_members_share_one_query_per_chain() {
        // Five nested boxes: [0,k] x [0,k] for k = 0..4 — the loosest
        // member doubles as the envelope (one query), then the tightest
        // member's feasibility resolves the middle of the chain.
        let polys: Vec<Polyhedron> = (0..5).map(|k| shifted_box(2, &[0, 0], &[k, k])).collect();
        let before = stats::snapshot();
        let out = batch_feasibility(&polys).unwrap();
        let d = stats::snapshot().since(&before);
        assert!(out.iter().all(|f| *f == Feasibility::Feasible));
        // Two solver queries (envelope k=4, tightest k=0); k=1..3 ride on
        // the tight member's witness.
        assert_eq!(d.batch_saved, 3, "two solves, three propagated");
    }

    #[test]
    fn infeasible_propagates_downward() {
        // [0, hi] with hi = -3..1: hi < 0 is empty. The envelope (hi=1)
        // is feasible, so the empty members are each solved — emptiness
        // never certifies a superset.
        let polys: Vec<Polyhedron> = (-3..2).map(|k| shifted_box(1, &[0], &[k])).collect();
        let out = batch_feasibility(&polys).unwrap();
        for (k, f) in (-3..2).zip(&out) {
            let expect = if k < 0 {
                Feasibility::Infeasible
            } else {
                Feasibility::Feasible
            };
            assert_eq!(*f, expect, "hi={k}");
        }
        // And the reverse chain: querying a superset that is empty
        // refutes all its subsets in one propagation sweep.
        let tight = shifted_box(1, &[5], &[0]); // 5 <= x <= 0: empty
        let tighter = shifted_box(1, &[7], &[0]);
        let before = stats::snapshot();
        let out = batch_feasibility(&[tighter, tight]).unwrap();
        let d = stats::snapshot().since(&before);
        assert_eq!(out, vec![Feasibility::Infeasible; 2]);
        assert_eq!(
            d.batch_saved, 1,
            "the superset's emptiness covers the subset"
        );
    }

    #[test]
    fn mixed_signatures_group_independently() {
        let a = shifted_box(2, &[0, 0], &[3, 3]);
        let mut b = shifted_box(2, &[0, 0], &[3, 3]);
        // An equality makes the signature differ: no cross-propagation.
        b.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -1], 0)));
        let c = shifted_box(1, &[0], &[3]);
        let out = batch_feasibility(&[a, b, c]).unwrap();
        assert_eq!(out, vec![Feasibility::Feasible; 3]);
    }

    /// Differential property: over random shifted-box-with-diagonals
    /// families, the batch answers equal independent per-query answers.
    #[test]
    fn differential_batch_equals_per_query() {
        // xorshift64* — deterministic in-file PRNG, no dependencies.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545f4914f6cdd1d);
            state
        };
        for _round in 0..40 {
            let n = 1 + (rng() % 3) as usize;
            let fam = 2 + (rng() % 4) as usize;
            // One shared matrix per round: box rows plus one random
            // diagonal row; members get independent random constants.
            let diag: Vec<i128> = (0..n).map(|_| (rng() % 5) as i128 - 2).collect();
            let polys: Vec<Polyhedron> = (0..fam)
                .map(|_| {
                    let lo: Vec<i128> = (0..n).map(|_| (rng() % 7) as i128 - 3).collect();
                    let hi: Vec<i128> = (0..n).map(|_| (rng() % 7) as i128 - 3).collect();
                    let mut p = shifted_box(n, &lo, &hi);
                    let mut row = LinExpr::from_coeffs(diag.clone(), 0);
                    row.set_constant((rng() % 9) as i128 - 4);
                    p.add(Constraint::ge(row));
                    p
                })
                .collect();
            let batched = batch_feasibility(&polys).unwrap();
            for (p, b) in polys.iter().zip(&batched) {
                let solo = p.integer_feasibility().unwrap();
                assert_eq!(solo, *b, "batch diverged from per-query on {p}");
            }
        }
    }
}
