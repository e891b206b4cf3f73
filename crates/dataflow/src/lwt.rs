//! Last Write Trees (paper §3).
//!
//! An LWT maps every dynamic instance of a read access to the *write
//! instance that produced the value read* — exact, value-based data-flow
//! information, as opposed to location-based data dependence. The tree
//! partitions the read iteration space into *contexts*; within one context
//! either every read sees a value written inside the analyzed code (and the
//! last-write relation is a single affine map at a single dependence level),
//! or none does (the ⊥ leaf: live-in data).

use std::fmt;

use dmc_polyhedra::{LinExpr, PolyError, Polyhedron, Space};

use crate::analysis::LwtError;

/// The dependence level of a last-write relation.
///
/// The paper numbers carried levels from 1 (outermost shared loop); a
/// loop-independent relation (producer in the same iteration of every shared
/// loop, textually earlier) batches at the innermost position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepLevel {
    /// Carried by the `k`-th shared loop (1-based).
    Carried(usize),
    /// Loop-independent: same iteration of all shared loops.
    Independent,
}

impl fmt::Display for DepLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepLevel::Carried(k) => write!(f, "level {k}"),
            DepLevel::Independent => write!(f, "loop-independent"),
        }
    }
}

/// The producing side of a non-⊥ LWT leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct LwtSource {
    /// The producing write statement (textual id from
    /// [`dmc_ir::Program::statements`]).
    pub write_stmt: usize,
    /// The write iteration as affine expressions over the leaf's space
    /// (read dimensions, parameters, auxiliary dimensions), outermost first.
    pub write_iter: Vec<LinExpr>,
    /// Dependence level of every pair in this context.
    pub level: DepLevel,
}

/// One leaf of a Last Write Tree.
#[derive(Clone, Debug, PartialEq)]
pub struct LwtLeaf {
    /// The leaf's space: the read statement's loop dimensions (original
    /// names, outermost first), then program parameters, then any auxiliary
    /// existential dimensions introduced for divisions/mods (§4.4.2).
    pub space: Space,
    /// The context: the set of read iterations this leaf covers. Auxiliary
    /// dimensions are existentially quantified.
    pub context: Polyhedron,
    /// The producing write, or `None` for the ⊥ leaf (value is live-in).
    pub source: Option<LwtSource>,
}

impl LwtLeaf {
    /// Resolves this leaf at a concrete read iteration and parameter
    /// binding: returns `Some(aux_values)` if the context covers the point
    /// (searching small integer values for auxiliary dimensions), `None`
    /// otherwise. An engine error (an `i128` overflow) is returned, not
    /// taken for "not covered".
    ///
    /// `point` must provide values for the read and parameter dimensions in
    /// leaf-space order; auxiliary entries are ignored.
    pub fn covers(&self, point: &[i128]) -> Result<Option<Vec<i128>>, PolyError> {
        let n = self.space.len();
        let mut fixed = self.context.clone();
        let n_known = point.len().min(n);
        for (d, &val) in point.iter().enumerate().take(n_known) {
            fixed = fixed.substitute_dim(d, &LinExpr::constant(n, val))?;
        }
        if n_known == n {
            return Ok(fixed.contains(point)?.then(Vec::new));
        }
        // Enumerate the aux dims (they are pinned by equalities in
        // practice, so the search space is tiny). Project onto the aux
        // dimensions first; the substituted dimensions are unconstrained.
        let aux: Vec<usize> = (n_known..n).collect();
        let aux_only = fixed.project_onto(&aux)?;
        Ok(aux_only
            .enumerate_points(4)?
            .and_then(|pts| pts.first().cloned()))
    }
}

/// The Last Write Tree of one read access.
#[derive(Clone, Debug, PartialEq)]
pub struct LastWriteTree {
    /// The reading statement's textual id.
    pub read_stmt: usize,
    /// Which read within the statement's right-hand side (index into
    /// `rhs.reads()`), or the synthetic hull read for uniformly generated
    /// groups.
    pub read_no: usize,
    /// The array being read.
    pub array: String,
    /// Names of the read iteration dimensions (the read statement's loop
    /// variables, plus any hull-offset dimensions), outermost first.
    pub read_dims: Vec<String>,
    /// The leaves; their contexts are pairwise disjoint and cover the read
    /// statement's iteration domain.
    pub leaves: Vec<LwtLeaf>,
    /// Set when the analysis had to approximate (overlapping same-level
    /// candidates with non-affine/aux-bearing solutions, or subtraction
    /// through auxiliary dimensions). Exact for the affine unit-coefficient
    /// programs of the paper.
    pub approximate: bool,
}

impl LastWriteTree {
    /// Looks up the producing write for a concrete read iteration:
    /// `Some((stmt, write_iter))` when the value was written inside the
    /// program, `None` when it is live-in.
    ///
    /// `read_iter` is the read statement's loop values (outermost first);
    /// `params` are the parameter values in `read_dims`-trailing order (the
    /// order parameters appear in each leaf's space).
    ///
    /// # Errors
    ///
    /// [`LwtError::Uncovered`] when no leaf covers the point (the leaves
    /// of a built tree partition the read domain), [`LwtError::Overflow`]
    /// when resolving a leaf there overflows `i128`.
    pub fn producer_at(
        &self,
        read_iter: &[i128],
        params: &[i128],
    ) -> Result<Option<(usize, Vec<i128>)>, LwtError> {
        let point = [read_iter, params].concat();
        let failed = |e| match e {
            PolyError::Overflow => LwtError::Overflow {
                stmt: self.read_stmt,
                read: self.read_no,
                point: point.clone(),
            },
            e => LwtError::Poly(e),
        };
        for leaf in &self.leaves {
            if let Some(aux) = leaf.covers(&point).map_err(failed)? {
                let Some(src) = &leaf.source else {
                    return Ok(None);
                };
                // The read and parameter values, then the aux values.
                let mut full = point[..leaf.space.len() - aux.len()].to_vec();
                full.extend_from_slice(&aux);
                let write = src.write_iter.iter().map(|e| e.eval(&full));
                return Ok(Some((
                    src.write_stmt,
                    write.collect::<Result<_, _>>().map_err(failed)?,
                )));
            }
        }
        Err(LwtError::Uncovered {
            stmt: self.read_stmt,
            read: self.read_no,
            point,
        })
    }

    /// Leaves that read values produced inside the program.
    pub fn source_leaves(&self) -> impl Iterator<Item = &LwtLeaf> {
        self.leaves.iter().filter(|l| l.source.is_some())
    }

    /// Leaves whose values are live-in (the paper's ⊥ contexts).
    pub fn bottom_leaves(&self) -> impl Iterator<Item = &LwtLeaf> {
        self.leaves.iter().filter(|l| l.source.is_none())
    }
}

impl fmt::Display for LastWriteTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "LWT for read #{} of {} in S{}{}:",
            self.read_no,
            self.array,
            self.read_stmt,
            if self.approximate {
                " (approximate)"
            } else {
                ""
            }
        )?;
        for (k, leaf) in self.leaves.iter().enumerate() {
            write!(f, "  leaf {k}: context {{ {} }} -> ", leaf.context)?;
            match &leaf.source {
                None => writeln!(f, "⊥")?,
                Some(src) => {
                    write!(f, "S{}[", src.write_stmt)?;
                    for (i, e) in src.write_iter.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", e.display(&leaf.space))?;
                    }
                    writeln!(f, "] ({})", src.level)?;
                }
            }
        }
        Ok(())
    }
}
