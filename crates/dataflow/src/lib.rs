//! # dmc-dataflow
//!
//! Exact, value-based array data-flow analysis — Last Write Trees (paper
//! §3), the information that distinguishes the paper's *value-centric*
//! communication generation from location-based data-dependence approaches.
//!
//! For every dynamic instance of a read access, the analysis determines the
//! precise write instance that produced the value read (or that the value is
//! live-in, the ⊥ leaf). Contexts and last-write relations are systems of
//! linear inequalities, computed with parametric lexicographic maximization
//! over the write iteration variables ([`dmc_polyhedra::lexopt`]).
//!
//! ## Example
//!
//! The paper's Figure 2/3: `for t = 0..T { for i = 3..N { X[i] = X[i-3] } }`
//! has two leaves — reads with `i <= 5` are live-in, the rest read the value
//! written at `[t, i-3]`:
//!
//! ```
//! let p = dmc_ir::parse(
//!     "param T, N; array X[N + 1];
//!      for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }").unwrap();
//! let lwt = dmc_dataflow::build_lwt(&p, 0, 0).unwrap();
//! // Read at (t=2, i=9) with T=5, N=20: producer is (t=2, i=6).
//! assert_eq!(lwt.producer_at(&[2, 9], &[5, 20]), Ok(Some((0, vec![2, 6]))));
//! // Read at (t=0, i=4): X[1] is never written -> live-in.
//! assert_eq!(lwt.producer_at(&[0, 4], &[5, 20]), Ok(None));
//! ```

#![warn(missing_docs)]

mod analysis;
mod codec;
mod lattice;
mod lwt;

pub use analysis::{build_lwt, build_lwt_hull, LwtError};
pub use lwt::{DepLevel, LastWriteTree, LwtLeaf, LwtSource};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use dmc_ir::{interp, parse, Program};

    use super::*;

    fn params_of(program: &Program, vals: &[i128]) -> HashMap<String, i128> {
        program
            .params
            .iter()
            .cloned()
            .zip(vals.iter().copied())
            .collect()
    }

    /// Cross-validates every LWT of `program` against the interpreter's
    /// recorded ground truth for the given parameter values.
    fn check_against_trace(program: &Program, vals: &[i128]) {
        let env = params_of(program, vals);
        let (_, trace) = interp::run_traced(program, &env).unwrap();
        let stmts = program.statements();
        // Build one LWT per (stmt, read).
        let mut trees = HashMap::new();
        for s in &stmts {
            for (k, _) in s.stmt.rhs.reads().iter().enumerate() {
                let t = build_lwt(program, s.id, k).unwrap();
                trees.insert((s.id, k), t);
            }
        }
        let pvals: Vec<i128> = vals.to_vec();
        for ev in &trace.reads {
            let tree = &trees[&(ev.stmt, ev.read_no)];
            let got = tree
                .producer_at(&ev.iter, &pvals)
                .expect("a read point is covered");
            assert_eq!(
                got, ev.writer,
                "stmt {} read {} at {:?}: LWT says {:?}, trace says {:?}",
                ev.stmt, ev.read_no, ev.iter, got, ev.writer
            );
        }
    }

    #[test]
    fn figure2_tree_shape() {
        // Paper Figure 3: two leaves, M1 = live-in (values X[0..2], i.e.
        // i_r <= 5), M2 = writer [t_w, i_w] = [t_r, i_r - 3] at level 2.
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        assert!(!lwt.approximate);
        assert_eq!(lwt.bottom_leaves().count(), 1);
        assert_eq!(lwt.source_leaves().count(), 1);
        let src_leaf = lwt.source_leaves().next().unwrap();
        let src = src_leaf.source.as_ref().unwrap();
        assert_eq!(src.level, DepLevel::Carried(2));
        assert_eq!(src.write_stmt, 0);
    }

    #[test]
    fn figure2_matches_trace() {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        check_against_trace(&p, &[3, 14]);
    }

    #[test]
    fn lu_figure12_tree_for_pivot_row_read() {
        // LU (Figure 11). The read X[i1][i3] in S2 (paper Figure 12): when
        // i1 >= 1 the value comes from S2's write in the previous outer
        // iteration; when i1 == 0 it is live-in.
        let p = parse(
            "param N; array X[N + 1][N + 1];
             for i1 = 0 to N {
               for i2 = i1 + 1 to N {
                 X[i2][i1] = X[i2][i1] / X[i1][i1];
                 for i3 = i1 + 1 to N {
                   X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
                 }
               }
             }",
        )
        .unwrap();
        // S2 is statement 1; its reads are X[i2][i3] (0), X[i2][i1] (1),
        // X[i1][i3] (2).
        let lwt = build_lwt(&p, 1, 2).unwrap();
        assert!(!lwt.approximate);
        assert!(lwt.bottom_leaves().count() >= 1);
        assert!(lwt.source_leaves().count() >= 1);
        // At (i1=2, i2=4, i3=5) with N=6: the last write to X[2][5] before
        // iteration (2,4,5) is S2 at (i1'=1, i2'=2, i3'=5).
        assert_eq!(
            lwt.producer_at(&[2, 4, 5], &[6]),
            Ok(Some((1, vec![1, 2, 5])))
        );
    }

    #[test]
    fn lu_all_reads_match_trace() {
        let p = parse(
            "param N; array X[N + 1][N + 1];
             for i1 = 0 to N {
               for i2 = i1 + 1 to N {
                 X[i2][i1] = X[i2][i1] / X[i1][i1];
                 for i3 = i1 + 1 to N {
                   X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
                 }
               }
             }",
        )
        .unwrap();
        check_against_trace(&p, &[7]);
    }

    #[test]
    fn stencil_matches_trace() {
        // §2.2.1's relaxation kernel: X[i] = (X[i] + X[i-1] + X[i+1]) / 3.
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T {
               for i = 1 to N - 1 {
                 X[i] = 0.333 * (X[i] + X[i - 1] + X[i + 1]);
               }
             }",
        )
        .unwrap();
        check_against_trace(&p, &[3, 9]);
    }

    #[test]
    fn two_writes_same_level_textual_tiebreak() {
        // A[i] is written twice per iteration; the later assignment wins.
        let p = parse(
            "param N; array A[N]; array B[N];
             for i = 0 to N - 1 {
               A[i] = 1.0;
               A[i] = 2.0;
             }
             for j = 0 to N - 1 {
               B[j] = A[j];
             }",
        )
        .unwrap();
        check_against_trace(&p, &[6]);
        let lwt = build_lwt(&p, 2, 0).unwrap();
        // Every read must resolve to statement 1 (the second write).
        for j in 0..6 {
            assert_eq!(lwt.producer_at(&[j], &[6]), Ok(Some((1, vec![j]))));
        }
    }

    #[test]
    fn privatizable_work_array() {
        // §2.2.2: the work array is written and read within the same outer
        // iteration; dependence is loop-independent, enabling privatization.
        let p = parse(
            "param N, M; array work[M + 1]; array out[N + 1][M + 1];
             for i = 0 to N {
               for j = 0 to M { work[j] = f(work[j]); }
               for j2 = 0 to M { out[i][j2] = work[j2]; }
             }",
        )
        .unwrap();
        check_against_trace(&p, &[4, 5]);
        let lwt = build_lwt(&p, 1, 0).unwrap();
        for leaf in lwt.source_leaves() {
            assert_eq!(leaf.source.as_ref().unwrap().level, DepLevel::Independent);
        }
        // No read in the second inner loop sees data from another outer
        // iteration: everything is produced in iteration i itself.
        assert_eq!(lwt.bottom_leaves().count(), 0);
    }

    #[test]
    fn pipeline_sum_example() {
        // §2.2.1: X[i][0] accumulates its row.
        let p = parse(
            "param N; array X[N + 1][N + 1];
             for i = 0 to N {
               for j = 1 to N {
                 X[i][0] = X[i][0] + X[i][j];
               }
             }",
        )
        .unwrap();
        check_against_trace(&p, &[5]);
        let lwt = build_lwt(&p, 0, 0).unwrap();
        // Reading X[i][0]: for j == 1 it is live-in, otherwise the previous
        // j iteration wrote it (level 2).
        assert_eq!(lwt.producer_at(&[3, 1], &[5]), Ok(None));
        assert_eq!(lwt.producer_at(&[3, 4], &[5]), Ok(Some((0, vec![3, 3]))));
    }

    #[test]
    fn section_223_sparse_access_pattern() {
        // §2.2.3: A[1000 i + j]; exactness means no factor-20 blowup — the
        // LWT itself stays exact.
        let p = parse(
            "param N; array A[1000 * N + 101]; array B[N + 1][101];
             for i0 = 1 to N { for j0 = i0 to 100 { A[1000 * i0 + j0] = 1.0; } }
             for i = 1 to N { for j = i to 100 { B[i][j] = A[1000 * i + j]; } }",
        )
        .unwrap();
        check_against_trace(&p, &[4]);
    }

    #[test]
    fn coefficient_two_access() {
        // Writer touches only even elements: X[2k]; readers of X[i] split
        // into even (producer) and odd (live-in) contexts via divisibility.
        let p = parse(
            "param N; array X[2 * N + 2]; array Y[2 * N + 2];
             for k = 0 to N { X[2 * k] = 5.0; }
             for i = 0 to 2 * N { Y[i] = X[i]; }",
        )
        .unwrap();
        check_against_trace(&p, &[5]);
    }

    #[test]
    fn uniformly_generated_hull_figure9() {
        // Figure 8/9: X[i] = f(X[i], X[i-1], X[i-2], X[i-3]) — the hull
        // access is X[i - u], 0 <= u <= 3.
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T {
               for i = 3 to N {
                 X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3]);
               }
             }",
        )
        .unwrap();
        let lwt = build_lwt_hull(&p, 0, &[0, 1, 2, 3]).unwrap();
        assert_eq!(lwt.read_dims, vec!["t", "i", "$u0"]);
        // The hull access is X[i + u] with -3 <= u <= 0 (the paper writes
        // the equivalent X[i - u], 0 <= u <= 3). Validate points against
        // first principles (T=4, N=9):
        //  (t=1, i=7, u=-3): reads X[4]; last write before (1,7) is (1,4).
        assert_eq!(
            lwt.producer_at(&[1, 7, -3], &[4, 9]),
            Ok(Some((0, vec![1, 4])))
        );
        //  (t=1, i=7, u=0): reads X[7]; last write of X[7] before (1,7) was
        //  in the previous sweep: (0,7).
        assert_eq!(
            lwt.producer_at(&[1, 7, 0], &[4, 9]),
            Ok(Some((0, vec![0, 7])))
        );
        //  (t=0, i=3, u=-1): reads X[2], never written -> live-in.
        assert_eq!(lwt.producer_at(&[0, 3, -1], &[4, 9]), Ok(None));
    }

    #[test]
    fn hull_rejects_non_uniform_groups() {
        let p = parse(
            "param N; array C[N + 1]; array D[N + 1];
             for i = 0 to N { for j = 0 to N { D[i] = C[i] + C[j]; } }",
        )
        .unwrap();
        assert_eq!(
            build_lwt_hull(&p, 0, &[0, 1]).unwrap_err(),
            LwtError::NotUniformlyGenerated
        );
    }

    #[test]
    fn leaves_partition_domain() {
        // Contexts must be pairwise disjoint and cover the read domain.
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let (tv, nv) = (3i128, 12i128);
        for t in 0..=tv {
            for i in 3..=nv {
                let mut hits = 0;
                for leaf in &lwt.leaves {
                    if leaf.covers(&[t, i, tv, nv]).unwrap().is_some() {
                        hits += 1;
                    }
                }
                assert_eq!(hits, 1, "point (t={t}, i={i}) covered {hits} times");
            }
        }
    }

    #[test]
    fn a_point_no_leaf_covers_is_an_error_not_a_panic() {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let mut lwt = build_lwt(&p, 0, 0).unwrap();
        assert_eq!(
            lwt.producer_at(&[2, 9], &[5, 20]),
            Ok(Some((0, vec![2, 6])))
        );
        // A value of `i` whose negation overflows fixes no context.
        assert_eq!(
            lwt.producer_at(&[0, i128::MIN], &[5, 20]),
            Err(LwtError::Overflow {
                stmt: 0,
                read: 0,
                point: vec![0, i128::MIN, 5, 20],
            })
        );
        // Without its source leaf the tree covers (2, 9) no more; the ⊥
        // leaf still answers its own points.
        lwt.leaves.retain(|leaf| leaf.source.is_none());
        assert_eq!(
            lwt.producer_at(&[2, 9], &[5, 20]),
            Err(LwtError::Uncovered {
                stmt: 0,
                read: 0,
                point: vec![2, 9, 5, 20],
            })
        );
        assert_eq!(lwt.producer_at(&[0, 4], &[5, 20]), Ok(None));
    }

    #[test]
    fn a_write_carried_in_the_readers_nest_is_newer_than_an_earlier_nest() {
        // The read `A[i]` in the second nest sees the first nest's write
        // only where the second nest has not rewritten `A[i]` already
        // (carried at level 1 of its own loop, two iterations back).
        let p = parse(
            "param N; array A[N + 3];
             for i = 0 to N { A[i] = 1.0; }
             for i = 0 to N { A[i + 2] = A[i] + 1.0; }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 1, 0).unwrap();
        assert_eq!(lwt.producer_at(&[1], &[8]), Ok(Some((0, vec![1]))));
        assert_eq!(lwt.producer_at(&[4], &[8]), Ok(Some((1, vec![2]))));
        check_against_trace(&p, &[8]);
    }

    #[test]
    fn writers_in_different_inner_loops_compare_on_shared_loops() {
        // Two writers of `A` in sibling `i` loops of one `t` loop: at equal
        // `t` the textually later loop wrote last, whatever the `i`
        // values; across nests of different depth the same rule applies.
        let p = parse(
            "param N; array A[N + 2];
             for t = 1 to 2 {
               for i = 0 to N { A[i] = A[i] + 1.0; }
               for i = 0 to N { A[i + 1] = A[i] * 0.5; }
             }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        assert_eq!(lwt.producer_at(&[2, 3], &[8]), Ok(Some((1, vec![1, 2]))));
        assert_eq!(lwt.producer_at(&[2, 0], &[8]), Ok(Some((0, vec![1, 0]))));
        check_against_trace(&p, &[8]);
        let p = parse(
            "param N; array A[N + 1]; array B[N + 1];
             for i = 0 to N { A[i] = 1.0; }
             for i = 0 to N { for j = 0 to N { A[i] = A[i] + 1.0; } }
             for i = 0 to N { B[i] = A[i]; }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 2, 0).unwrap();
        assert_eq!(lwt.producer_at(&[3], &[8]), Ok(Some((1, vec![3, 8]))));
        check_against_trace(&p, &[8]);
    }

    #[test]
    fn no_such_read_is_reported() {
        let p = parse("param N; array A[N]; for i = 0 to N - 1 { A[i] = 1.0; }").unwrap();
        assert!(matches!(
            build_lwt(&p, 0, 0).unwrap_err(),
            LwtError::NoSuchRead { .. }
        ));
        assert!(matches!(
            build_lwt(&p, 5, 0).unwrap_err(),
            LwtError::NoSuchRead { .. }
        ));
    }

    #[test]
    fn display_renders_tree() {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let text = lwt.to_string();
        assert!(text.contains("LWT for read #0 of X in S0"));
        assert!(text.contains("⊥"));
    }
}
