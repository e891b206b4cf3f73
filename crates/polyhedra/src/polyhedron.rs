//! Conjunctions of affine constraints (convex integer polyhedra) and the
//! projection machinery of the paper's §5.1: Fourier–Motzkin elimination,
//! superfluous-constraint removal by the negation test, and integer
//! feasibility via equality elimination plus branch-and-bound.

use std::fmt;

use crate::cache::{self, Query};
use crate::constraint::Normalized;
use crate::ledger;
use crate::num;
use crate::stats;
use crate::{Constraint, ConstraintKind, LinExpr, PolyError, Space};

/// Answer of an integer-feasibility query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// An integer point exists.
    Feasible,
    /// No integer point exists.
    Infeasible,
    /// The solver could not decide within its budget (treated as feasible by
    /// conservative callers).
    Unknown,
}

impl Feasibility {
    /// `true` unless the system is definitely infeasible.
    pub fn possibly_feasible(&self) -> bool {
        !matches!(self, Feasibility::Infeasible)
    }
}

/// How a Fourier–Motzkin step combines a lower and an upper bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shadow {
    /// The real (rational) shadow: exact over the rationals, an
    /// over-approximation over the integers.
    Real,
    /// Pugh's dark shadow: any integer point of the dark shadow lifts to an
    /// integer point of the original system (an under-approximation).
    Dark,
}

/// A conjunction of affine constraints over a [`Space`].
///
/// The polyhedron normalizes every added constraint (gcd reduction, constant
/// tightening, equality divisibility test) and records contradictions, so an
/// obviously empty system short-circuits later queries.
///
/// # Examples
///
/// ```
/// use dmc_polyhedra::{Polyhedron, Space, DimKind, LinExpr, Constraint};
///
/// let s = Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)]);
/// let mut p = Polyhedron::universe(s);
/// // 0 <= i <= N
/// p.add(Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)));
/// p.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 1], 0)));
/// assert!(p.contains(&[3, 10]).unwrap());
/// assert!(!p.contains(&[11, 10]).unwrap());
/// ```
#[derive(Clone)]
pub struct Polyhedron {
    space: Space,
    cons: Vec<Constraint>,
    contradiction: bool,
    /// How many leading rows of `cons` are known pairwise distinct. Lists
    /// built directly (`extend_space`, `remap`, `from_parts`, ...) start at
    /// 0, and [`Polyhedron::add`] drops the repeats past this prefix before
    /// it appends.
    distinct: usize,
}

impl PartialEq for Polyhedron {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.cons == other.cons
            && self.contradiction == other.contradiction
    }
}

impl Eq for Polyhedron {}

impl Polyhedron {
    /// The unconstrained polyhedron over `space`.
    pub fn universe(space: Space) -> Self {
        Polyhedron {
            space,
            cons: Vec::new(),
            contradiction: false,
            distinct: 0,
        }
    }

    /// The empty polyhedron over `space`.
    pub fn empty(space: Space) -> Self {
        Polyhedron {
            space,
            cons: Vec::new(),
            contradiction: true,
            distinct: 0,
        }
    }

    /// Reassembles a polyhedron from the parts its accessors expose:
    /// [`Polyhedron::space`], [`Polyhedron::constraints`] and
    /// [`Polyhedron::is_obviously_empty`]. The constraint list is trusted
    /// verbatim — it must be one a `Polyhedron` previously held (already
    /// normalized and deduplicated), which is exactly what the byte codec
    /// stores, and what the memo maps hand back — so no normalization pass
    /// runs and the round-trip is byte-identical.
    pub fn from_parts(space: Space, cons: Vec<Constraint>, contradiction: bool) -> Self {
        for c in &cons {
            assert_eq!(
                c.expr().len(),
                space.len(),
                "constraint space mismatch in from_parts"
            );
        }
        Polyhedron {
            space,
            cons,
            contradiction,
            distinct: 0,
        }
    }

    /// The polyhedron's space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The constraints currently held (normalized, deduplicated).
    pub fn constraints(&self) -> &[Constraint] {
        &self.cons
    }

    /// Whether a contradiction was detected during normalization. Note that
    /// `false` does not imply feasibility; use [`Polyhedron::integer_feasibility`].
    pub fn is_obviously_empty(&self) -> bool {
        self.contradiction
    }

    /// Adds a constraint (normalizing it first). Duplicates are dropped by a
    /// linear scan of the rows, which on this compiler's systems is short:
    /// the largest any `add` sees on the benchmark workloads has 46 rows,
    /// and none reaches 64.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(
            c.expr().len(),
            self.space.len(),
            "constraint space mismatch"
        );
        match c.normalize() {
            Normalized::Tautology => {}
            Normalized::Contradiction => self.contradiction = true,
            Normalized::Constraint(n) => {
                // Rows built directly past the distinct prefix may repeat
                // earlier ones: keep each first occurrence, in order.
                let mut kept = self.distinct;
                for i in self.distinct..self.cons.len() {
                    if !self.cons[..kept].contains(&self.cons[i]) {
                        self.cons.swap(kept, i);
                        kept += 1;
                    }
                }
                self.cons.truncate(kept);
                if !self.cons.contains(&n) {
                    self.cons.push(n);
                }
                self.distinct = self.cons.len();
            }
        }
    }

    /// What the memo caches key this polyhedron by.
    pub(crate) fn system(&self) -> cache::System<'_> {
        cache::System {
            dims: self.space.len(),
            contradiction: self.contradiction,
            rows: &self.cons,
        }
    }

    /// A copy of this system with `c` as row `at`: in place of that row, or
    /// appended when `at` is the row count. The copy holds what
    /// [`add`](Polyhedron::add)ing those rows one by one to an empty
    /// polyhedron builds — `c` normalized (a tautology dropped, a
    /// contradiction recorded), every row kept unless an equal one precedes
    /// it — which is what `clone()` + `add(c)` leaves whenever `c` adds a
    /// row, built in one pass into one allocation instead of a copy that
    /// `add` then grows (or, for a swapped row, re-`add`s from scratch).
    /// This is how the probing loops build the one-row variations of a
    /// system (`poly ∧ (e − 1 ≥ 0)`, a row swapped for its negation) that
    /// they query once and drop.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the row count or `c` is over another space.
    pub fn with_row(&self, at: usize, c: Constraint) -> Polyhedron {
        assert!(at <= self.cons.len(), "row index out of range");
        assert_eq!(
            c.expr().len(),
            self.space.len(),
            "constraint space mismatch"
        );
        let mut out = Polyhedron::universe(self.space.clone());
        out.contradiction = self.contradiction;
        out.cons.reserve(self.cons.len() + 1);
        let new = match c.normalize() {
            Normalized::Tautology => None,
            Normalized::Contradiction => {
                out.contradiction = true;
                None
            }
            Normalized::Constraint(n) => Some(n),
        };
        let after = self.cons.get(at + 1..).unwrap_or_default();
        for r in self.cons[..at].iter().chain(&new).chain(after) {
            if !out.cons.contains(r) {
                out.cons.push(r.clone());
            }
        }
        out.distinct = out.cons.len();
        out
    }

    /// Adds every constraint from an iterator.
    pub fn add_all<I: IntoIterator<Item = Constraint>>(&mut self, cs: I) {
        for c in cs {
            self.add(c);
        }
    }

    /// Conjunction of two polyhedra over the same space.
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.space, other.space, "space mismatch in intersect");
        let mut out = self.clone();
        out.contradiction |= other.contradiction;
        for c in &other.cons {
            out.add(c.clone());
        }
        out
    }

    /// Tests whether a point satisfies every constraint.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on evaluation overflow.
    pub fn contains(&self, point: &[i128]) -> Result<bool, PolyError> {
        if self.contradiction {
            return Ok(false);
        }
        for c in &self.cons {
            if !c.satisfied_by(point)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Substitutes dimension `dim` by an expression not referencing `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn substitute_dim(&self, dim: usize, e: &LinExpr) -> Result<Polyhedron, PolyError> {
        let mut out = Polyhedron::universe(self.space.clone());
        out.contradiction = self.contradiction;
        for c in &self.cons {
            out.add(c.substitute(dim, e)?);
        }
        Ok(out)
    }

    /// Returns a copy over a space with extra dimensions appended. Existing
    /// constraints are extended with zero coefficients.
    pub fn extend_space(&self, extra: &Space) -> Polyhedron {
        let space = self.space.product(extra);
        let n = space.len();
        let mut out = Polyhedron::universe(space);
        out.contradiction = self.contradiction;
        for c in &self.cons {
            let e = c.expr().extend(n - c.expr().len());
            out.cons.push(match c.kind() {
                ConstraintKind::Eq => Constraint::eq(e),
                ConstraintKind::Ge => Constraint::ge(e),
            });
        }
        out
    }

    /// Remaps the polyhedron into `new_space`; `map[k]` gives the position in
    /// `new_space` of this polyhedron's dimension `k`.
    pub fn remap(&self, new_space: Space, map: &[usize]) -> Polyhedron {
        let n = new_space.len();
        let mut out = Polyhedron::universe(new_space);
        out.contradiction = self.contradiction;
        for c in &self.cons {
            let e = c.expr().remap(n, map);
            out.cons.push(match c.kind() {
                ConstraintKind::Eq => Constraint::eq(e),
                ConstraintKind::Ge => Constraint::ge(e),
            });
        }
        out
    }

    // ------------------------------------------------------------------
    // Elimination (projection).
    // ------------------------------------------------------------------

    /// One Fourier–Motzkin step: removes every constraint mentioning `dim`,
    /// adding all lower/upper combinations. The result is the real (rational)
    /// shadow; over the integers it is an over-approximation.
    ///
    /// If an equality mentions `dim` it is used as the combination pivot,
    /// which is exact whenever its coefficient on `dim` is ±1.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on coefficient overflow.
    pub fn eliminate_dim(&self, dim: usize) -> Result<Polyhedron, PolyError> {
        self.eliminate_dim_shadow(dim, Shadow::Real)
    }

    fn eliminate_dim_shadow(&self, dim: usize, shadow: Shadow) -> Result<Polyhedron, PolyError> {
        let mut op = ledger::op(ledger::OpKind::FmStep, self.cons.len());
        let out = self.eliminate_dim_shadow_impl(dim, shadow)?;
        op.set_cons_out(out.cons.len());
        op.finish();
        Ok(out)
    }

    fn eliminate_dim_shadow_impl(
        &self,
        dim: usize,
        shadow: Shadow,
    ) -> Result<Polyhedron, PolyError> {
        let mut out = Polyhedron::universe(self.space.clone());
        out.contradiction = self.contradiction;
        if self.contradiction {
            return Ok(out);
        }

        // Prefer pivoting on an equality: exact when the pivot coefficient
        // is ±1, and never worse than pairing inequalities.
        if let Some(eq_idx) = self
            .cons
            .iter()
            .position(|c| c.is_eq() && c.coeff(dim).abs() == 1)
            .or_else(|| self.cons.iter().position(|c| c.is_eq() && c.involves(dim)))
        {
            let eq = &self.cons[eq_idx];
            let a = eq.coeff(dim);
            for (i, c) in self.cons.iter().enumerate() {
                if i == eq_idx {
                    continue;
                }
                let b = c.coeff(dim);
                if b == 0 {
                    out.add(c.clone());
                    continue;
                }
                // new = |a| * c - (b * sign(a)) * eq  — kills `dim`, keeps the
                // inequality direction because |a| > 0.
                let e = c.expr().combine(a.abs(), eq.expr(), -(b * a.signum()))?;
                out.add(match c.kind() {
                    ConstraintKind::Eq => Constraint::eq(e),
                    ConstraintKind::Ge => Constraint::ge(e),
                });
            }
            return Ok(out);
        }

        let mut lowers: Vec<&Constraint> = Vec::new(); // coeff > 0:  a*dim >= -rest
        let mut uppers: Vec<&Constraint> = Vec::new(); // coeff < 0: |a|*dim <= rest
        for c in &self.cons {
            let a = c.coeff(dim);
            if a == 0 {
                out.add(c.clone());
            } else if a > 0 {
                lowers.push(c);
            } else {
                uppers.push(c);
            }
        }
        for lo in &lowers {
            let b = lo.coeff(dim); // b > 0
            for up in &uppers {
                let c = -up.coeff(dim); // c > 0
                                        // b*dim + e_lo >= 0 and -c*dim + e_up >= 0
                                        //   =>  c*e_lo + b*e_up >= 0 (real shadow)
                let mut e = lo.expr().combine(c, up.expr(), b)?;
                if shadow == Shadow::Dark && b > 1 && c > 1 {
                    // Dark shadow: subtract (b-1)(c-1).
                    let adj = num::mul(b - 1, c - 1)?;
                    e.set_constant(e.constant_term() - adj);
                }
                out.add(Constraint::ge(e));
            }
        }
        Ok(out)
    }

    /// Eliminates `dims` producing an integer **under-approximation** of the
    /// projection: every integer point of the result lifts to an integer
    /// point of the original polyhedron. Unit-coefficient equalities and
    /// all-unit inequality sides are eliminated exactly; everything else
    /// uses Pugh's dark shadow. Useful when the projection will be
    /// *subtracted* from another set, where an over-approximation would be
    /// unsound.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn eliminate_dims_under(&self, dims: &[usize]) -> Result<Polyhedron, PolyError> {
        let mut cur = self.clone();
        for &d in dims {
            // Replace non-unit equalities involving d by inequality pairs so
            // the dark shadow applies; unit equalities pivot exactly.
            if let Some(eq) = cur
                .cons
                .iter()
                .find(|c| c.is_eq() && c.coeff(d).abs() == 1)
                .cloned()
            {
                let a = eq.coeff(d);
                let mut rest = eq.expr().clone();
                rest.set_coeff(d, 0);
                let repl = rest.scale(-a.signum())?;
                cur.cons.retain(|c| c != &eq);
                cur = cur.substitute_dim(d, &repl)?;
                continue;
            }
            let mut split = Polyhedron::universe(cur.space.clone());
            split.contradiction = cur.contradiction;
            for c in &cur.cons {
                if c.is_eq() && c.involves(d) {
                    split.add(Constraint::ge(c.expr().clone()));
                    split.add(Constraint::ge(c.expr().scale(-1)?));
                } else {
                    split.add(c.clone());
                }
            }
            // Exact when one side is all-unit; otherwise dark shadow.
            let mut unit_lo = true;
            let mut unit_up = true;
            for c in &split.cons {
                let a = c.coeff(d);
                if a > 1 {
                    unit_lo = false;
                } else if a < -1 {
                    unit_up = false;
                }
            }
            let shadow = if unit_lo || unit_up {
                Shadow::Real
            } else {
                Shadow::Dark
            };
            cur = split
                .eliminate_dim_shadow(d, shadow)?
                .remove_redundant_cheap();
        }
        Ok(cur)
    }

    /// Eliminates several dimensions (by name positions), choosing at each
    /// step the remaining dimension with the cheapest lower×upper pairing.
    ///
    /// The result still lives in the same space; the eliminated dimensions
    /// are simply unconstrained.
    ///
    /// Results are memoized per thread (keyed on the exact constraint
    /// sequence plus `dims`), so repeated projections of the same system —
    /// ubiquitous across LWT resolution and comm-set construction — are
    /// answered without re-running the elimination. Systems of fewer than
    /// 4 constraints skip the cache (see [`crate::cache`]'s size gate).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn eliminate_dims(&self, dims: &[usize]) -> Result<Polyhedron, PolyError> {
        cache::memoized(
            Query::Projection,
            self.system(),
            dims,
            || self.eliminate_dims_uncached(dims),
            |out, e| e.rows(&out.cons, out.contradiction),
            |d| {
                let (cons, contradiction) = d.rows(self.space.len())?;
                Ok(Polyhedron::from_parts(
                    self.space.clone(),
                    cons,
                    contradiction,
                ))
            },
        )
    }

    fn eliminate_dims_uncached(&self, dims: &[usize]) -> Result<Polyhedron, PolyError> {
        let mut cur = self.clone();
        let mut todo: Vec<usize> = dims.to_vec();
        while !todo.is_empty() {
            // Cost heuristic: fewest lower*upper combinations first.
            let (pos, &d) = todo
                .iter()
                .enumerate()
                .min_by_key(|(_, &d)| {
                    let mut lo = 0usize;
                    let mut up = 0usize;
                    let mut has_eq = false;
                    for c in &cur.cons {
                        let a = c.coeff(d);
                        if a == 0 {
                            continue;
                        }
                        if c.is_eq() {
                            has_eq = true;
                        } else if a > 0 {
                            lo += 1;
                        } else {
                            up += 1;
                        }
                    }
                    if has_eq {
                        0
                    } else {
                        lo * up + 1
                    }
                })
                .expect("todo not empty");
            todo.swap_remove(pos);
            cur = cur.eliminate_dim(d)?;
            cur = cur.remove_redundant_cheap();
        }
        Ok(cur)
    }

    /// Projects the polyhedron onto the dimensions in `keep` (in the given
    /// order), returning a polyhedron over a fresh space built from those
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn project_onto(&self, keep: &[usize]) -> Result<Polyhedron, PolyError> {
        let drop: Vec<usize> = (0..self.space.len())
            .filter(|d| !keep.contains(d))
            .collect();
        let eliminated = self.eliminate_dims(&drop)?;
        let mut new_space = Space::new();
        for &k in keep {
            new_space.add_dim(
                self.space.dim(k).name().to_owned(),
                self.space.dim(k).kind(),
            );
        }
        let mut out = Polyhedron::universe(new_space);
        out.contradiction = eliminated.contradiction;
        for c in &eliminated.cons {
            debug_assert!(drop.iter().all(|&d| c.coeff(d) == 0));
            let mut coeffs = Vec::with_capacity(keep.len());
            for &k in keep {
                coeffs.push(c.coeff(k));
            }
            let e = LinExpr::from_coeffs(coeffs, c.expr().constant_term());
            out.add(match c.kind() {
                ConstraintKind::Eq => Constraint::eq(e),
                ConstraintKind::Ge => Constraint::ge(e),
            });
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Redundancy removal.
    // ------------------------------------------------------------------

    /// Drops constraints that are syntactically dominated: duplicates, and
    /// inequalities with identical coefficient rows where one constant is
    /// tighter. Cheap (no elimination); used after every FM step.
    pub fn remove_redundant_cheap(&self) -> Polyhedron {
        let mut out = Polyhedron::universe(self.space.clone());
        out.contradiction = self.contradiction;
        'outer: for (i, c) in self.cons.iter().enumerate() {
            if c.is_eq() {
                out.cons.push(c.clone());
                continue;
            }
            for (j, d) in self.cons.iter().enumerate() {
                if i == j {
                    continue;
                }
                // d dominates c if same coefficients and d's constant <= c's
                // (d is tighter), keeping the first on ties.
                if !d.is_eq()
                    && d.expr().coeffs() == c.expr().coeffs()
                    && (d.expr().constant_term() < c.expr().constant_term()
                        || (d.expr().constant_term() == c.expr().constant_term() && j < i))
                {
                    continue 'outer;
                }
            }
            out.cons.push(c.clone());
        }
        out
    }

    /// Removes superfluous constraints by the paper's negation test (§5.1):
    /// replace a constraint with its negation; if the system then has no
    /// integer solution, the constraint was implied and can be dropped.
    ///
    /// Two cheap pre-filters run before the exact test on each constraint:
    ///
    /// 1. a **rational bound check** — if the constraint's minimum over the
    ///    box implied by the other single-variable constraints is already
    ///    `>= 0`, it is implied and dropped without any feasibility query;
    /// 2. a **witness check** — the corner of that box minimizing the
    ///    constraint is tested against the negation probe; if it satisfies
    ///    the probe, the constraint is provably non-redundant and kept
    ///    without a branch-and-bound query.
    ///
    /// The pass is not memoized: its one caller in the compiler is the
    /// scan, which is answered whole by its own memo map
    /// ([`scan_bounds`](crate::scan_bounds)). The feasibility queries of its
    /// negation tests are memoized as usual.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn remove_redundant(&self) -> Result<Polyhedron, PolyError> {
        let mut op = ledger::op(ledger::OpKind::Redundancy, self.cons.len());
        let mut kept = self.remove_redundant_cheap();
        if !kept.contradiction {
            let n = self.space.len();
            let mut negations: u64 = 0;
            let mut i = 0;
            while i < kept.cons.len() {
                if kept.cons[i].is_eq() {
                    i += 1;
                    continue;
                }
                match prefilter_verdict(&kept.cons, i, n) {
                    PreVerdict::Implied => {
                        ledger::count(|s| s.prefilter_drops += 1);
                        kept.cons.remove(i);
                        continue;
                    }
                    PreVerdict::Witnessed => {
                        ledger::count(|s| s.prefilter_keeps += 1);
                        i += 1;
                        continue;
                    }
                    PreVerdict::Inconclusive => {}
                }
                negations += 1;
                op.set_negation_tests(negations);
                let probe = kept.with_row(i, kept.cons[i].negate_ge());
                if probe.integer_feasibility()? == Feasibility::Infeasible {
                    kept.cons.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        op.set_cons_out(kept.cons.len());
        op.finish();
        Ok(kept)
    }

    // ------------------------------------------------------------------
    // Feasibility.
    // ------------------------------------------------------------------

    /// Integer feasibility: unit-coefficient equality substitution, Pugh's
    /// exact equality elimination for the rest, then Fourier–Motzkin with the
    /// real/dark shadow pair and bounded branch-and-bound in the gray zone.
    ///
    /// All dimensions are treated existentially. The branch-and-bound
    /// budget is the engine's constant [`stats::FEASIBILITY_BUDGET`];
    /// definite answers are memoized per thread, keyed on the system's rows
    /// in sorted order (see [`crate::cache`]), while `Unknown` answers are
    /// never cached (they depend on the budget).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn integer_feasibility(&self) -> Result<Feasibility, PolyError> {
        self.integer_feasibility_with_budget(stats::FEASIBILITY_BUDGET)
    }

    /// [`Polyhedron::integer_feasibility`] with an explicit branch-and-bound
    /// budget. Cached answers may still be returned (a definite answer is
    /// correct under any budget).
    pub fn integer_feasibility_with_budget(&self, budget: u32) -> Result<Feasibility, PolyError> {
        if !cache::admits(self.cons.len()) {
            let mut op = ledger::op(ledger::OpKind::Feasibility, self.cons.len());
            let mut b = budget;
            let f = self.integer_feasibility_budget(&mut b);
            // This is the sole entry to the recursion and every node shares
            // one budget, so the budget delta is exactly the nodes visited.
            op.set_bnb_nodes(u64::from(budget - b));
            op.finish();
            let f = f?;
            if f == Feasibility::Unknown {
                count_unknown();
            }
            return Ok(f);
        }
        let key = match cache::feas_lookup(self.system()) {
            Ok((f, charged)) => {
                ledger::record_hit(ledger::OpKind::Feasibility, self.cons.len(), charged);
                return Ok(f);
            }
            Err(key) => key,
        };
        let mut op = ledger::op(ledger::OpKind::Feasibility, self.cons.len());
        op.set_cache_miss();
        let mut b = budget;
        let f = self.integer_feasibility_budget(&mut b);
        op.set_bnb_nodes(u64::from(budget - b));
        let charged = op.finish();
        let f = f?;
        if f == Feasibility::Unknown {
            count_unknown();
        } else {
            cache::feas_put(key, (f, charged));
        }
        Ok(f)
    }

    fn integer_feasibility_budget(&self, budget: &mut u32) -> Result<Feasibility, PolyError> {
        if *budget == 0 {
            return Ok(Feasibility::Unknown);
        }
        *budget -= 1;
        if self.contradiction {
            return Ok(Feasibility::Infeasible);
        }
        if self.cons.is_empty() {
            return Ok(Feasibility::Feasible);
        }
        if let Some(f) = self.quick_verdict() {
            return Ok(f);
        }

        // Step 1: eliminate equalities exactly.
        let mut cur = self.clone();
        loop {
            if cur.contradiction {
                return Ok(Feasibility::Infeasible);
            }
            let Some(eq_idx) = cur.cons.iter().position(Constraint::is_eq) else {
                break;
            };
            let eq = cur.cons[eq_idx].clone();
            // Find the dim with minimal |coeff| in this equality.
            let mut best: Option<(usize, i128)> = None;
            for d in 0..cur.space.len() {
                let a = eq.coeff(d);
                if a != 0 && best.is_none_or(|(_, b)| a.unsigned_abs() < b.unsigned_abs()) {
                    best = Some((d, a));
                }
            }
            let Some((d, a)) = best else {
                // Constant equality; normalization should have caught it.
                return Ok(Feasibility::Infeasible);
            };
            if a.unsigned_abs() == 1 {
                // d = -sign(a) * (eq - a*d): exact integer substitution.
                let mut rest = eq.expr().clone();
                rest.set_coeff(d, 0);
                let replacement = rest.scale(-a.signum())?;
                cur.cons.remove(eq_idx);
                cur = cur.substitute_dim(d, &replacement)?;
            } else {
                // Pugh's transformation: introduce sigma with
                //   sum mod_hat(a_i, m) x_i + mod_hat(c, m) == m * sigma,
                // where m = |a_k| + 1. The new equality has coefficient
                // -sign(a_k) on x_k (because mod_hat(a_k, m) = -sign(a_k)),
                // so we can substitute x_k away immediately; the original
                // equality is rewritten with strictly smaller coefficients,
                // guaranteeing progress.
                let m = a
                    .checked_abs()
                    .and_then(|b| b.checked_add(1))
                    .ok_or(PolyError::Overflow)?;
                let mod_hat = |v: i128| -> i128 {
                    let r = num::mod_floor(v, m);
                    if r >= m - r {
                        r - m
                    } else {
                        r
                    }
                };
                let sigma = cur.add_dim_internal();
                let n = cur.space.len();
                let mut e = LinExpr::zero(n);
                for k in 0..n - 1 {
                    e.set_coeff(k, mod_hat(eq.coeff(k)));
                }
                e.set_constant(mod_hat(eq.expr().constant_term()));
                e.set_coeff(sigma, -m);
                // e == 0 with e's coefficient on d equal to -sign(a):
                //   x_d = -sign(a) * (e - coeff_d * x_d)  ... i.e. solve e for d.
                let cd = e.coeff(d);
                debug_assert_eq!(cd, -a.signum());
                let mut rest = e;
                rest.set_coeff(d, 0);
                let replacement = rest.scale(-cd.signum())?;
                cur = cur.substitute_dim(d, &replacement)?;
                if cur.contradiction {
                    return Ok(Feasibility::Infeasible);
                }
            }
        }

        // Step 2: inequalities only. Eliminate with real + dark shadows.
        if cur.cons.is_empty() {
            return Ok(Feasibility::Feasible);
        }
        // Pick the cheapest variable that is actually constrained.
        let mut target: Option<(usize, usize, bool)> = None; // (dim, cost, exact)
        for d in 0..cur.space.len() {
            let mut lo = 0usize;
            let mut up = 0usize;
            let mut unit_lo = true;
            let mut unit_up = true;
            for c in &cur.cons {
                let a = c.coeff(d);
                if a > 0 {
                    lo += 1;
                    if a != 1 {
                        unit_lo = false;
                    }
                } else if a < 0 {
                    up += 1;
                    if a != -1 {
                        unit_up = false;
                    }
                }
            }
            if lo + up == 0 {
                continue;
            }
            // Elimination is integer-exact when all lower or all upper
            // coefficients are +/-1 (the dark and real shadows coincide).
            let exact = unit_lo || unit_up;
            let cost = lo * up;
            let better = match target {
                None => true,
                Some((_, c0, e0)) => (exact && !e0) || (exact == e0 && cost < c0),
            };
            if better {
                target = Some((d, cost, exact));
            }
        }
        let Some((d, _, exact)) = target else {
            // No variable appears in any constraint, yet constraints remain:
            // all would be constants, removed by normalization.
            return Ok(Feasibility::Feasible);
        };

        let real = cur
            .eliminate_dim_shadow(d, Shadow::Real)?
            .remove_redundant_cheap();
        let real_answer = real.integer_feasibility_budget(budget)?;
        if real_answer == Feasibility::Infeasible {
            return Ok(Feasibility::Infeasible);
        }
        if exact {
            return Ok(real_answer);
        }
        let dark = cur
            .eliminate_dim_shadow(d, Shadow::Dark)?
            .remove_redundant_cheap();
        if dark.integer_feasibility_budget(budget)? == Feasibility::Feasible {
            return Ok(Feasibility::Feasible);
        }

        // Gray zone: branch and bound on `d` if it has constant bounds.
        if let Some((lo, hi)) = cur.constant_bounds(d)? {
            if hi - lo > 4_096 {
                return Ok(Feasibility::Unknown);
            }
            for v in lo..=hi {
                let fixed = cur.substitute_dim(d, &LinExpr::constant(cur.space.len(), v))?;
                match fixed.integer_feasibility_budget(budget)? {
                    Feasibility::Feasible => return Ok(Feasibility::Feasible),
                    Feasibility::Unknown => return Ok(Feasibility::Unknown),
                    Feasibility::Infeasible => {}
                }
            }
            return Ok(Feasibility::Infeasible);
        }
        Ok(Feasibility::Unknown)
    }

    /// A deterministic pre-solve run at every node of the feasibility
    /// recursion. It derives a per-dimension integer box by bounds
    /// propagation over all constraints (round count capped at `dims + 4`)
    /// and answers:
    ///
    /// * `Infeasible` when the box is contradictory (some dimension's lower
    ///   bound exceeds its upper bound — every propagated bound is implied
    ///   by the system, so this is an exact proof);
    /// * `Feasible` when no multi-variable constraint exists (each
    ///   dimension is then independently satisfiable), or when one of a few
    ///   deterministic candidate points — box-clamped corners — verifies
    ///   exactly via [`Polyhedron::contains`].
    ///
    /// Sound and answer-preserving: it only short-circuits elimination work
    /// the full recursion would have spent reaching the same verdict, so
    /// downstream answers (schedules, redundancy removals, explain reports)
    /// are unchanged — only the charged branch-and-bound node counts
    /// shrink. Being a pure function of the queried system, the saving is
    /// identical across runs and cache states.
    fn quick_verdict(&self) -> Option<Feasibility> {
        let n = self.space.len();
        let mut lo: Vec<Option<i128>> = vec![None; n];
        let mut hi: Vec<Option<i128>> = vec![None; n];
        // Integer bounds propagation (a bounded presolve in the spirit of
        // the Omega test's tightening pass): a constraint Σ aₖxₖ + b ≥ 0
        // implies a_d·x_d ≥ -b - max(Σ_{k≠d} aₖxₖ) over the current box,
        // and an equality also bounds from the other side via the box
        // minimum. Divisions round toward integrality, so every derived
        // bound is implied by the system — an empty box is an exact
        // infeasibility proof. The round count is capped; propagation is
        // monotone, so stopping early only weakens the box, never the
        // soundness.
        let mut multi = false;
        for round in 0..n + 4 {
            let mut changed = false;
            for c in &self.cons {
                for d in 0..n {
                    let a = c.coeff(d);
                    if a == 0 {
                        continue;
                    }
                    let mut smax: Option<i128> = Some(0);
                    let mut smin: Option<i128> = Some(0);
                    for k in 0..n {
                        let ak = c.coeff(k);
                        if k == d || ak == 0 {
                            continue;
                        }
                        if round == 0 {
                            multi = true;
                        }
                        let fold = |s: Option<i128>, bound: Option<i128>| {
                            s.zip(bound)
                                .and_then(|(s, v)| ak.checked_mul(v).and_then(|t| s.checked_add(t)))
                        };
                        smax = fold(smax, if ak > 0 { hi[k] } else { lo[k] });
                        smin = fold(smin, if ak > 0 { lo[k] } else { hi[k] });
                    }
                    let b = c.expr().constant_term();
                    // e ≥ 0 direction: a·x_d ≥ -b - smax.
                    if let Some(t) = smax.and_then(|s| b.checked_neg()?.checked_sub(s)) {
                        if a > 0 {
                            let v = num::div_ceil(t, a);
                            if lo[d].is_none_or(|x| v > x) {
                                lo[d] = Some(v);
                                changed = true;
                            }
                        } else if let Some(nt) = t.checked_neg() {
                            let v = num::div_floor(nt, -a);
                            if hi[d].is_none_or(|x| v < x) {
                                hi[d] = Some(v);
                                changed = true;
                            }
                        }
                    }
                    // e ≤ 0 direction (equalities): a·x_d ≤ -b - smin.
                    if c.is_eq() {
                        if let Some(t) = smin.and_then(|s| b.checked_neg()?.checked_sub(s)) {
                            if a > 0 {
                                let v = num::div_floor(t, a);
                                if hi[d].is_none_or(|x| v < x) {
                                    hi[d] = Some(v);
                                    changed = true;
                                }
                            } else if let Some(nt) = t.checked_neg() {
                                let v = num::div_ceil(nt, -a);
                                if lo[d].is_none_or(|x| v > x) {
                                    lo[d] = Some(v);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            for d in 0..n {
                if let (Some(l), Some(h)) = (lo[d], hi[d]) {
                    if l > h {
                        return Some(Feasibility::Infeasible);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if !multi {
            return Some(Feasibility::Feasible);
        }
        // Candidate witnesses: three bases (origin, lower corner, upper
        // corner) clamped into the box, each verified exactly. Overflow in
        // the verification simply skips the candidate.
        let mut pt = vec![0i128; n];
        for base in 0..3u8 {
            for (d, p) in pt.iter_mut().enumerate() {
                let mut v = match base {
                    0 => 0,
                    1 => lo[d].or(hi[d]).unwrap_or(0),
                    _ => hi[d].or(lo[d]).unwrap_or(0),
                };
                if let Some(l) = lo[d] {
                    v = v.max(l);
                }
                if let Some(h) = hi[d] {
                    v = v.min(h);
                }
                *p = v;
            }
            if matches!(self.contains(&pt), Ok(true)) {
                return Some(Feasibility::Feasible);
            }
        }
        None
    }

    /// Computes constant integer bounds for dimension `d` by eliminating all
    /// other dimensions (rationally) and reading off the tightest constant
    /// bounds, if both exist.
    fn constant_bounds(&self, d: usize) -> Result<Option<(i128, i128)>, PolyError> {
        let others: Vec<usize> = (0..self.space.len()).filter(|&k| k != d).collect();
        let only_d = self.eliminate_dims(&others)?;
        let mut lo: Option<i128> = None;
        let mut hi: Option<i128> = None;
        for c in &only_d.cons {
            let a = c.coeff(d);
            let b = c.expr().constant_term();
            if a == 0 {
                continue;
            }
            // An equality bounds the dimension from both sides.
            if a > 0 || c.is_eq() {
                let (aa, bb) = if a > 0 { (a, b) } else { (-a, -b) };
                let v = num::div_ceil(-bb, aa);
                lo = Some(lo.map_or(v, |x| x.max(v)));
            }
            if a < 0 || c.is_eq() {
                let (aa, bb) = if a < 0 { (-a, b) } else { (a, -b) };
                let v = num::div_floor(bb, aa);
                hi = Some(hi.map_or(v, |x| x.min(v)));
            }
        }
        Ok(match (lo, hi) {
            (Some(l), Some(h)) => Some((l, h)),
            _ => None,
        })
    }

    fn add_dim_internal(&mut self) -> usize {
        let d = self.space.add_aux();
        for c in &mut self.cons {
            let e = c.expr().extend(1);
            *c = match c.kind() {
                ConstraintKind::Eq => Constraint::eq(e),
                ConstraintKind::Ge => Constraint::ge(e),
            };
        }
        d
    }

    // ------------------------------------------------------------------
    // Set difference.
    // ------------------------------------------------------------------

    /// Computes `self \ other` as a list of disjoint convex pieces.
    ///
    /// Piece `k` is `self ∧ other.c_0 ∧ … ∧ other.c_{k-1} ∧ ¬other.c_k`.
    /// An equality `e == 0` contributes two pieces (`e >= 1` and `-e >= 1`).
    /// Pieces that are obviously or provably empty are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn subtract(&self, other: &Polyhedron) -> Result<Vec<Polyhedron>, PolyError> {
        assert_eq!(self.space, other.space, "space mismatch in subtract");
        if self.contradiction {
            return Ok(Vec::new());
        }
        if other.contradiction {
            return Ok(vec![self.clone()]);
        }
        // Disjoint sets subtract to the original, in one piece.
        if self.intersect(other).integer_feasibility()? == Feasibility::Infeasible {
            return Ok(vec![self.clone()]);
        }
        let mut pieces = Vec::new();
        let mut prefix = self.clone();
        for c in &other.cons {
            for n in complement(c) {
                let mut piece = prefix.clone();
                piece.add(n);
                if piece.integer_feasibility()?.possibly_feasible() {
                    pieces.push(piece);
                }
            }
            prefix.add(c.clone());
            if prefix.contradiction {
                break;
            }
        }
        Ok(pieces)
    }

    /// Whether every integer point of `self` lies in `other`.
    ///
    /// Asked directly, not as an emptiness test of [`subtract`](Polyhedron::subtract)'s
    /// pieces: for each row of `other` that is not already a row of `self`,
    /// one probe `self ∧ ¬row` per row of the complement (one for `e ≥ 0`,
    /// two for `e = 0`), and the first probe that is possibly feasible
    /// answers `false`. With exact feasibility answers this is "every piece
    /// of `self \ other` is empty"; an `Unknown` probe answers `false`, the
    /// conservative side. An empty `self` is a subset of anything; an empty
    /// `other` contains `self` only if `self` is infeasible.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    ///
    /// # Panics
    ///
    /// Panics if the spaces differ.
    pub fn is_subset_of(&self, other: &Polyhedron) -> Result<bool, PolyError> {
        assert_eq!(self.space, other.space, "space mismatch in is_subset_of");
        if self.contradiction {
            return Ok(true);
        }
        if other.contradiction {
            return Ok(self.integer_feasibility()? == Feasibility::Infeasible);
        }
        let at = self.cons.len();
        for c in other.cons.iter().filter(|c| !self.cons.contains(c)) {
            for n in complement(c) {
                let probe = self.with_row(at, n);
                if probe.integer_feasibility()?.possibly_feasible() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Point enumeration (for tests and small exhaustive checks).
    // ------------------------------------------------------------------

    /// Enumerates every integer point of the polyhedron, provided all
    /// dimensions can be given constant bounds; gives up (returns `None`)
    /// otherwise or when more than `limit` points would be produced.
    ///
    /// Points are produced in lexicographic dimension order.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn enumerate_points(&self, limit: usize) -> Result<Option<Vec<Vec<i128>>>, PolyError> {
        if self.contradiction {
            return Ok(Some(Vec::new()));
        }
        let n = self.space.len();
        let mut ranges = Vec::with_capacity(n);
        for d in 0..n {
            match self.constant_bounds(d)? {
                Some((lo, hi)) => ranges.push((lo, hi)),
                None => return Ok(None),
            }
        }
        let mut out = Vec::new();
        let mut point = vec![0i128; n];
        fn rec(
            p: &Polyhedron,
            ranges: &[(i128, i128)],
            point: &mut Vec<i128>,
            d: usize,
            out: &mut Vec<Vec<i128>>,
            limit: usize,
        ) -> Result<bool, PolyError> {
            if d == ranges.len() {
                if p.contains(point)? {
                    if out.len() >= limit {
                        return Ok(false);
                    }
                    out.push(point.clone());
                }
                return Ok(true);
            }
            for v in ranges[d].0..=ranges[d].1 {
                point[d] = v;
                if !rec(p, ranges, point, d + 1, out, limit)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        if rec(self, &ranges, &mut point, 0, &mut out, limit)? {
            Ok(Some(out))
        } else {
            Ok(None)
        }
    }
}

/// Counts a feasibility query that exhausted its budget.
fn count_unknown() {
    ledger::count(|s| s.feasibility_unknown += 1);
}

/// The rows whose disjunction is the integer complement of `c`: `−e − 1 ≥ 0`
/// for `e ≥ 0`, and `e − 1 ≥ 0`, `−e − 1 ≥ 0` (in that order) for `e = 0`.
fn complement(c: &Constraint) -> impl Iterator<Item = Constraint> {
    let (first, second) = match c.kind() {
        ConstraintKind::Ge => (c.negate_ge(), None),
        ConstraintKind::Eq => {
            let mut above = c.expr().clone();
            above.set_constant(above.constant_term() - 1);
            let mut below = c.expr().scaled(-1);
            below.set_constant(below.constant_term() - 1);
            (Constraint::ge(above), Some(Constraint::ge(below)))
        }
    };
    std::iter::once(first).chain(second)
}

/// Outcome of the cheap redundancy pre-filters on one constraint.
enum PreVerdict {
    /// The constraint is implied by the box of the other constraints.
    Implied,
    /// A verified integer point satisfies the negation probe: the
    /// constraint is definitely not redundant.
    Witnessed,
    /// Neither filter fired; run the exact negation test.
    Inconclusive,
}

/// Constant per-dimension bounds derivable from the *single-variable*
/// constraints in `kept`, excluding index `skip`. Mirrors the bound
/// extraction of `constant_bounds`, but without any elimination.
fn box_bounds(
    kept: &[Constraint],
    n: usize,
    skip: usize,
) -> (Vec<Option<i128>>, Vec<Option<i128>>) {
    let mut lo: Vec<Option<i128>> = vec![None; n];
    let mut hi: Vec<Option<i128>> = vec![None; n];
    for (j, c) in kept.iter().enumerate() {
        if j == skip {
            continue;
        }
        let mut single: Option<usize> = None;
        let mut multi = false;
        for d in 0..n {
            if c.coeff(d) != 0 {
                if single.is_some() {
                    multi = true;
                    break;
                }
                single = Some(d);
            }
        }
        if multi {
            continue;
        }
        let Some(d) = single else { continue };
        let a = c.coeff(d);
        let b = c.expr().constant_term();
        // a*x + b >= 0 (or == 0): lower bound when a > 0, upper when a < 0,
        // both for an equality.
        if a > 0 || c.is_eq() {
            let (aa, bb) = if a > 0 { (a, b) } else { (-a, -b) };
            let v = num::div_ceil(-bb, aa);
            lo[d] = Some(lo[d].map_or(v, |x| x.max(v)));
        }
        if a < 0 || c.is_eq() {
            let (aa, bb) = if a < 0 { (-a, b) } else { (a, -b) };
            let v = num::div_floor(bb, aa);
            hi[d] = Some(hi[d].map_or(v, |x| x.min(v)));
        }
    }
    (lo, hi)
}

/// The two cheap checks run before the exact negation test on `kept[i]`:
/// rational bound implication (drop) and a verified witness of the negation
/// probe (keep). Any overflow or missing bound degrades to `Inconclusive` —
/// the filters only ever *skip* exact work, never change the answer.
fn prefilter_verdict(kept: &[Constraint], i: usize, n: usize) -> PreVerdict {
    let c = &kept[i];
    let (lo, hi) = box_bounds(kept, n, i);

    // (1) Minimum of c's expression over the box: if it is >= 0, the other
    // constraints alone imply c, so c is superfluous.
    let mut min: Option<i128> = Some(c.expr().constant_term());
    for d in 0..n {
        let a = c.coeff(d);
        if a == 0 {
            continue;
        }
        let bound = if a > 0 { lo[d] } else { hi[d] };
        min = match (min, bound) {
            (Some(m), Some(v)) => num::mul(a, v).ok().and_then(|t| m.checked_add(t)),
            _ => None,
        };
        if min.is_none() {
            break;
        }
    }
    if let Some(m) = min {
        if m >= 0 {
            return PreVerdict::Implied;
        }
    }

    // (2) Witness corners: a small set of deterministic candidate points;
    // any one that violates c while satisfying every other constraint is
    // an integer witness of the negation probe, proving non-redundancy
    // exactly. The base corner minimizes c over the box; the adjusted
    // candidates then move one dimension at a time to c's violation
    // threshold (the value closest to satisfying c that still violates
    // it), which keeps the point as deep inside the other constraints as
    // possible.
    let witnesses = |pt: &[i128]| -> bool {
        matches!(c.satisfied_by(pt), Ok(false))
            && kept
                .iter()
                .enumerate()
                .all(|(j, o)| j == i || matches!(o.satisfied_by(pt), Ok(true)))
    };
    let mut base = vec![0i128; n];
    for d in 0..n {
        let a = c.coeff(d);
        let prefer = if a > 0 {
            lo[d]
        } else if a < 0 {
            hi[d]
        } else {
            None
        };
        let mut v = prefer.unwrap_or(0);
        if let Some(l) = lo[d] {
            v = v.max(l);
        }
        if let Some(h) = hi[d] {
            v = v.min(h);
        }
        base[d] = v;
    }
    if witnesses(&base) {
        return PreVerdict::Witnessed;
    }
    for d in 0..n {
        let a = c.coeff(d);
        if a == 0 {
            continue;
        }
        // Solve a·x <= -1 - rest for the threshold x, where rest is c's
        // value at the base corner with dimension d zeroed out.
        let Ok(at_base) = c.expr().eval(&base) else {
            continue;
        };
        let Some(rest) = num::mul(a, base[d])
            .ok()
            .and_then(|t| at_base.checked_sub(t))
        else {
            continue;
        };
        let Some(t) = (-1i128).checked_sub(rest) else {
            continue;
        };
        let x = if a > 0 {
            num::div_floor(t, a)
        } else {
            num::div_ceil(-t, -a)
        };
        if x == base[d] {
            continue;
        }
        let mut pt = base.clone();
        pt[d] = x;
        if witnesses(&pt) {
            return PreVerdict::Witnessed;
        }
    }
    PreVerdict::Inconclusive
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polyhedron{} {{ ", self.space)?;
        if self.contradiction {
            write!(f, "false ")?;
        }
        for (i, c) in self.cons.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{}", c.display(&self.space))?;
        }
        write!(f, " }}")
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.contradiction {
            return write!(f, "false");
        }
        if self.cons.is_empty() {
            return write!(f, "true");
        }
        for (i, c) in self.cons.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{}", c.display(&self.space))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimKind;

    fn sp(names: &[&str]) -> Space {
        Space::from_dims(names.iter().map(|&n| (n, DimKind::Index)))
    }

    fn ge(coeffs: Vec<i128>, c: i128) -> Constraint {
        Constraint::ge(LinExpr::from_coeffs(coeffs, c))
    }

    fn eq(coeffs: Vec<i128>, c: i128) -> Constraint {
        Constraint::eq(LinExpr::from_coeffs(coeffs, c))
    }

    #[test]
    fn contains_and_contradiction() {
        let mut p = Polyhedron::universe(sp(&["x"]));
        p.add(ge(vec![1], 0)); // x >= 0
        p.add(ge(vec![-1], 5)); // x <= 5
        assert!(p.contains(&[3]).unwrap());
        assert!(!p.contains(&[6]).unwrap());
        p.add(ge(vec![0], -1)); // -1 >= 0
        assert!(p.is_obviously_empty());
    }

    #[test]
    fn fm_eliminate_simple() {
        // x >= 0, y >= x + 2, y <= 7  => eliminating y: x + 2 <= 7.
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 1], -2)); // y - x - 2 >= 0
        p.add(ge(vec![0, -1], 7)); // 7 - y >= 0
        let q = p.eliminate_dim(1).unwrap();
        assert!(q.contains(&[5, 0]).unwrap());
        assert!(!q.contains(&[6, 0]).unwrap());
    }

    #[test]
    fn fm_equality_pivot() {
        // y == 2x + 1, 0 <= y <= 9 — eliminating y gives 0 <= 2x+1 <= 9.
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(eq(vec![2, -1], 1)); // 2x - y + 1 == 0
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![0, -1], 9));
        let q = p.eliminate_dim(1).unwrap();
        assert!(q.contains(&[0, 0]).unwrap());
        assert!(q.contains(&[4, 0]).unwrap());
        assert!(!q.contains(&[5, 0]).unwrap());
        assert!(!q.contains(&[-1, 0]).unwrap());
    }

    #[test]
    fn rational_vs_integer_feasibility() {
        // 2x == 1 is rationally feasible but integer infeasible; the
        // normalizer already rejects it.
        let mut p = Polyhedron::universe(sp(&["x"]));
        p.add(eq(vec![2], -1));
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Infeasible);

        // 3 <= 2x <= 3: rational point x = 1.5, no integer point.
        let mut p = Polyhedron::universe(sp(&["x"]));
        p.add(ge(vec![2], -3)); // 2x >= 3
        p.add(ge(vec![-2], 3)); // 2x <= 3
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Infeasible);
    }

    /// Pugh's equality step at the edge of `i128`: the modulus
    /// `m = |a| + 1` and the symmetric residue's `r ≥ m − r` test stay in
    /// range or report `Overflow`, never panic.
    #[test]
    fn pugh_step_near_i128_max_does_not_panic() {
        let max = i128::MAX;
        for coeffs in [vec![max, max - 1], vec![-max, max - 1], vec![max, -max]] {
            let mut p = Polyhedron::universe(sp(&["x", "y"]));
            p.add(eq(coeffs.clone(), -1));
            match p.integer_feasibility() {
                Ok(_) | Err(PolyError::Overflow) => {}
                Err(e) => panic!("{coeffs:?}: {e}"),
            }
        }
    }

    #[test]
    fn integer_feasible_with_witnessable_point() {
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![-1, -1], 10)); // x + y <= 10
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Feasible);
    }

    #[test]
    fn pugh_equality_elimination() {
        // 3x + 5y == 7 has integer solutions (x=4, y=-1).
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(eq(vec![3, 5], -7));
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Feasible);

        // 6x + 10y == 7 has none (gcd 2 does not divide 7).
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(eq(vec![6, 10], -7));
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Infeasible);
    }

    #[test]
    fn dark_shadow_gray_zone() {
        // Classic Omega example: 0 <= x, 2y <= x <= 2y + 1 with x odd-ish
        // windows; use: 1 <= x <= 2, x == 2y -> y in {0.5, 1} -> feasible
        // at x=2,y=1.
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(ge(vec![1, 0], -1));
        p.add(ge(vec![-1, 0], 2));
        p.add(eq(vec![1, -2], 0));
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Feasible);

        // x == 2y, x == 3, no integer y.
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(eq(vec![1, -2], 0));
        p.add(eq(vec![1, 0], -3));
        assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Infeasible);
    }

    #[test]
    fn redundancy_removal_paper_negation_test() {
        // x >= 0, x >= -5 (implied), x <= 10, x <= 20 (implied).
        let mut p = Polyhedron::universe(sp(&["x"]));
        p.add(ge(vec![1], 0));
        p.add(ge(vec![1], 5));
        p.add(ge(vec![-1], 10));
        p.add(ge(vec![-1], 20));
        let r = p.remove_redundant().unwrap();
        assert_eq!(r.constraints().len(), 2);
        assert!(r.contains(&[0]).unwrap());
        assert!(r.contains(&[10]).unwrap());
        assert!(!r.contains(&[-1]).unwrap());
        assert!(!r.contains(&[11]).unwrap());
    }

    #[test]
    fn subtraction_produces_disjoint_cover() {
        // [0,10] \ [3,5] = [0,2] u [6,10].
        let s = sp(&["x"]);
        let mut a = Polyhedron::universe(s.clone());
        a.add(ge(vec![1], 0));
        a.add(ge(vec![-1], 10));
        let mut b = Polyhedron::universe(s);
        b.add(ge(vec![1], -3));
        b.add(ge(vec![-1], 5));
        let pieces = a.subtract(&b).unwrap();
        let mut pts: Vec<i128> = Vec::new();
        for p in &pieces {
            for q in p.enumerate_points(100).unwrap().unwrap() {
                assert!(!pts.contains(&q[0]), "pieces overlap at {}", q[0]);
                pts.push(q[0]);
            }
        }
        pts.sort();
        assert_eq!(pts, vec![0, 1, 2, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn subtraction_with_equalities() {
        // [0,6] \ {x == 3} = [0,2] u [4,6].
        let s = sp(&["x"]);
        let mut a = Polyhedron::universe(s.clone());
        a.add(ge(vec![1], 0));
        a.add(ge(vec![-1], 6));
        let mut b = Polyhedron::universe(s);
        b.add(eq(vec![1], -3));
        let pieces = a.subtract(&b).unwrap();
        let mut pts: Vec<i128> = pieces
            .iter()
            .flat_map(|p| p.enumerate_points(100).unwrap().unwrap())
            .map(|q| q[0])
            .collect();
        pts.sort();
        assert_eq!(pts, vec![0, 1, 2, 4, 5, 6]);
    }

    #[test]
    fn projection_matches_brute_force() {
        // Figure 6 of the paper: 1 <= i <= 6 (roughly); use
        //   1 <= j, j <= i, 2j <= i + 12, i <= 6 -> project onto i.
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![0, 1], -1)); // j >= 1
        p.add(ge(vec![1, -1], 0)); // i >= j
        p.add(ge(vec![1, -2], 12)); // i + 12 >= 2j
        p.add(ge(vec![-1, 0], 6)); // i <= 6
        let q = p.project_onto(&[0]).unwrap();
        // Brute force: which i in -20..20 admit a j?
        for i in -20..20i128 {
            let mut any = false;
            for j in -40..40i128 {
                if p.contains(&[i, j]).unwrap() {
                    any = true;
                }
            }
            assert_eq!(q.contains(&[i]).unwrap(), any, "i={i}");
        }
    }

    #[test]
    fn enumerate_points_box() {
        let mut p = Polyhedron::universe(sp(&["x", "y"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 0], 1));
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![0, -1], 1));
        let pts = p.enumerate_points(100).unwrap().unwrap();
        assert_eq!(pts.len(), 4);
        // Unbounded: gives up.
        let q = Polyhedron::universe(sp(&["x"]));
        assert_eq!(q.enumerate_points(10).unwrap(), None);
    }

    #[test]
    fn extend_and_remap() {
        let mut p = Polyhedron::universe(sp(&["x"]));
        p.add(ge(vec![1], 0));
        let extra = sp(&["y"]);
        let q = p.extend_space(&extra);
        assert_eq!(q.space().len(), 2);
        assert!(q.contains(&[0, -100]).unwrap());

        let target = sp(&["a", "x"]);
        let r = p.remap(target, &[1]);
        assert!(r.contains(&[-100, 0]).unwrap());
        assert!(!r.contains(&[0, -1]).unwrap());
    }

    /// Differential property: the memoized projection path — the
    /// incremental-FM replay a repeated projection hits — agrees with a
    /// from-scratch `eliminate_dims` run, cold and warm, over random
    /// banded systems; and the projection never loses a point of the
    /// original system (Fourier–Motzkin only relaxes).
    #[test]
    fn differential_incremental_fm_equals_from_scratch() {
        // xorshift64* — deterministic in-file PRNG, no dependencies.
        let mut state = 0x243f6a8885a308d3u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545f4914f6cdd1d);
            state
        };
        for round in 0..40u32 {
            let n = 2 + (rng() % 2) as usize;
            let names: Vec<(String, crate::DimKind)> = (0..n)
                .map(|i| (format!("d{i}"), crate::DimKind::Index))
                .collect();
            let mut p = Polyhedron::universe(Space::from_dims(names));
            for d in 0..n {
                let lo = -((rng() % 4) as i128);
                let hi = (rng() % 4) as i128;
                let mut c = vec![0i128; n];
                c[d] = 1;
                p.add(ge(c.clone(), -lo));
                c[d] = -1;
                p.add(ge(c, hi));
            }
            for _ in 0..=(rng() % 3) {
                let coeffs: Vec<i128> = (0..n).map(|_| (rng() % 5) as i128 - 2).collect();
                p.add(ge(coeffs, (rng() % 9) as i128 - 4));
            }
            let keep = (rng() as usize) % n;
            let dims: Vec<usize> = (0..n).filter(|&d| d != keep).collect();
            let scratch = p.eliminate_dims_uncached(&dims).unwrap();
            let cold = p.eliminate_dims(&dims).unwrap();
            let warm = p.eliminate_dims(&dims).unwrap();
            // The three paths must agree constraint-for-constraint.
            assert_eq!(
                scratch.to_string(),
                cold.to_string(),
                "round {round}: memoized projection diverged from scratch"
            );
            assert_eq!(
                cold.to_string(),
                warm.to_string(),
                "round {round}: warm replay diverged from the cold run"
            );
            let mut x = vec![-4i128; n];
            'grid: loop {
                if p.contains(&x).unwrap() {
                    assert!(
                        cold.contains(&x).unwrap(),
                        "round {round}: projection lost point {x:?}"
                    );
                }
                let mut d = 0;
                while d < n {
                    x[d] += 1;
                    if x[d] <= 4 {
                        continue 'grid;
                    }
                    x[d] = -4;
                    d += 1;
                }
                break;
            }
        }
    }

    /// The §5.1 negation test alone — no pre-filters, no memo caches — the
    /// reference `remove_redundant` is compared against.
    fn remove_redundant_exact(p: &Polyhedron) -> Polyhedron {
        let base = p.remove_redundant_cheap();
        if base.contradiction {
            return base;
        }
        let mut kept = base.cons.clone();
        let mut i = 0;
        while i < kept.len() {
            if kept[i].is_eq() {
                i += 1;
                continue;
            }
            let mut probe = Polyhedron::universe(p.space.clone());
            for (j, c) in kept.iter().enumerate() {
                probe.add(if j == i { c.negate_ge() } else { c.clone() });
            }
            if feasibility_uncached(&probe) == Feasibility::Infeasible {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        let mut out = Polyhedron::universe(p.space.clone());
        out.cons = kept;
        out
    }

    fn feasibility_uncached(p: &Polyhedron) -> Feasibility {
        let mut budget = stats::FEASIBILITY_BUDGET;
        p.integer_feasibility_budget(&mut budget).unwrap()
    }

    /// Differential property over 64 random boxed systems (6–10
    /// constraints, so both sides of the memoization size gate are
    /// covered): the memoized, pre-filtered engine answers exactly like
    /// the uncached, exact-negation-only one, from cold caches and warm —
    /// feasibility, projection, redundancy removal, and a whole scan.
    #[test]
    fn differential_memoized_prefiltered_engine_equals_exact_uncached() {
        // xorshift64* with the seed and draw order of the generator in
        // `tests/properties.rs`.
        let mut state = 0xCAC4Eu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let (n, b) = (3usize, 4i128);
        let before = stats::snapshot();
        for case in 0..64 {
            let names = (0..n).map(|k| (format!("x{k}"), DimKind::Index));
            let mut p = Polyhedron::universe(Space::from_dims(names));
            for k in 0..n {
                let mut c = vec![0i128; n];
                c[k] = 1;
                p.add(ge(c.clone(), b)); // x_k >= -b
                c[k] = -1;
                p.add(ge(c, b)); // x_k <= b
            }
            for _ in 0..next() % 5 {
                let coeffs: Vec<i128> = (0..n).map(|_| (next() % 7) as i128 - 3).collect();
                let c = (next() % 13) as i128 - 6;
                p.add(if next() & 1 == 0 {
                    eq(coeffs, c)
                } else {
                    ge(coeffs, c)
                });
            }

            crate::cache::clear_thread_caches();
            let run = |p: &Polyhedron| {
                (
                    p.integer_feasibility().unwrap(),
                    p.eliminate_dims(&[1, 2]).unwrap(),
                    p.remove_redundant().unwrap(),
                    format!("{:?}", crate::scan_bounds(p, &[2, 0, 1])),
                )
            };
            let cold = run(&p);
            let warm = run(&p);
            let exact = (
                feasibility_uncached(&p),
                p.eliminate_dims_uncached(&[1, 2]).unwrap(),
                remove_redundant_exact(&p),
                format!("{:?}", crate::scan::scan_bounds_uncached(&p, &[2, 0, 1])),
            );
            assert_eq!(cold, warm, "case {case}: warm caches changed an answer");
            // The pre-filters may only skip exact tests, never change the
            // surviving constraint list.
            assert_eq!(cold, exact, "case {case}: differs from the exact engine");
        }
        // Not vacuous: the warm runs were served from the feasibility,
        // projection and scan caches.
        let d = stats::snapshot().since(&before);
        assert!(d.feas_cache_hits > 0 && d.proj_cache_hits > 0 && d.scan_cache_hits > 0);
        assert!(d.cache_bypasses > 0, "small systems must skip the caches");
        assert!(d.prefilter_drops + d.prefilter_keeps > 0);
    }

    /// `with_row` builds exactly the constraint list of the `add` calls it
    /// replaces: `clone` + `add` when appending, a fresh universe re-`add`ing
    /// every row when one is swapped — on `add`-built systems and on
    /// directly built ones that still hold duplicate rows.
    #[test]
    fn with_row_equals_the_adds_it_replaces() {
        let mut synced = Polyhedron::universe(sp(&["x", "y"]));
        synced.add(ge(vec![1, 0], 0));
        synced.add(eq(vec![1, -1], 2));
        synced.add(ge(vec![0, -1], 9));
        let mut stale = synced.clone();
        stale.cons.push(synced.cons[1].clone());
        stale.cons.push(synced.cons[0].clone());
        let extras = [
            ge(vec![2, 4], -3),  // normalizes to x + 2y - 2 >= 0
            ge(vec![0, -1], 9),  // already present
            ge(vec![0, 0], 5),   // tautology
            eq(vec![2, 0], -1),  // contradiction
            ge(vec![-1, 0], -1), // the negation of row 0
        ];
        for p in [&synced, &stale] {
            for c in &extras {
                let mut appended = p.clone();
                appended.add(c.clone());
                let got = p.with_row(p.cons.len(), c.clone());
                // `add` leaves duplicates alone when it adds nothing.
                if matches!(c.normalize(), Normalized::Constraint(_)) {
                    assert_eq!(got, appended, "{p:?} ∧ {c:?}");
                }
                assert_eq!(got.contradiction, appended.contradiction);
                assert_eq!(got.distinct, got.cons.len(), "built distinct");

                for at in 0..p.cons.len() {
                    let mut swapped = Polyhedron::universe(p.space.clone());
                    for (j, r) in p.cons.iter().enumerate() {
                        swapped.add(if j == at { c.clone() } else { r.clone() });
                    }
                    assert_eq!(p.with_row(at, c.clone()), swapped, "{p:?}[{at}] := {c:?}");
                }
            }
        }
        // A directly built copy is deduplicated by the next `add`.
        let mut grown = stale.clone();
        assert_eq!((grown.cons.len(), grown.distinct), (5, 3));
        grown.add(ge(vec![1, 1], 0));
        grown.add(ge(vec![1, 1], 0));
        assert_eq!((grown.cons.len(), grown.distinct), (4, 4));
    }

    #[test]
    fn display_renders_conjunction() {
        let mut p = Polyhedron::universe(sp(&["x"]));
        p.add(ge(vec![1], 0));
        assert_eq!(p.to_string(), "x >= 0");
        assert_eq!(Polyhedron::empty(sp(&["x"])).to_string(), "false");
        assert_eq!(Polyhedron::universe(sp(&["x"])).to_string(), "true");
    }
}
