//! Property-based tests for the polyhedral engine: every operation is
//! cross-checked against brute-force enumeration on small random systems.
//!
//! The generator is a tiny deterministic xorshift PRNG (std-only; the build
//! environment has no registry access for `proptest`), so every run checks
//! the exact same case set — failures reproduce by case number.

use dmc_polyhedra::{
    cache, lexopt, lexopt_uncached, scan_bounds, scan_bounds_uncached, stats, Constraint, DimKind,
    Direction, Feasibility, LinExpr, PolyError, Polyhedron, ScanNest, Space,
};

/// xorshift64* — deterministic, seedable, good enough for test-case
/// generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next() % span) as i128
    }

    fn chance(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

/// A random constraint over `n` dims with small coefficients.
fn gen_constraint(rng: &mut Rng, n: usize) -> Constraint {
    let coeffs: Vec<i128> = (0..n).map(|_| rng.range(-3, 3)).collect();
    let c = rng.range(-6, 6);
    let e = LinExpr::from_coeffs(coeffs, c);
    if rng.chance() {
        Constraint::eq(e)
    } else {
        Constraint::ge(e)
    }
}

/// A random polyhedron over `n` dims, intersected with the box `[-b, b]^n`
/// so everything is enumerable.
fn gen_polyhedron(rng: &mut Rng, n: usize, extra: usize, b: i128) -> Polyhedron {
    let space = Space::from_dims((0..n).map(|k| (format!("x{k}"), DimKind::Index)));
    let mut p = Polyhedron::universe(space);
    for k in 0..n {
        let mut lo = LinExpr::var(n, k);
        lo.set_constant(b);
        p.add(Constraint::ge(lo)); // x_k >= -b
        let mut hi = LinExpr::var(n, k).scaled(-1);
        hi.set_constant(b);
        p.add(Constraint::ge(hi)); // x_k <= b
    }
    let m = (rng.next() % (extra as u64 + 1)) as usize;
    for _ in 0..m {
        p.add(gen_constraint(rng, n));
    }
    p
}

fn points_of(p: &Polyhedron, b: i128) -> Vec<Vec<i128>> {
    let n = p.space().len();
    let mut out = Vec::new();
    let mut pt = vec![-b; n];
    loop {
        if p.contains(&pt).unwrap() {
            out.push(pt.clone());
        }
        let mut d = n;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            pt[d] += 1;
            if pt[d] <= b {
                break;
            }
            pt[d] = -b;
        }
    }
}

/// Integer feasibility never says Infeasible when a point exists, and
/// never says Feasible when none does (within the box).
#[test]
fn feasibility_matches_enumeration() {
    let mut rng = Rng::new(0xFEA5);
    for case in 0..48 {
        let p = gen_polyhedron(&mut rng, 3, 4, 4);
        let pts = points_of(&p, 4);
        match p.integer_feasibility().unwrap() {
            Feasibility::Infeasible => {
                assert!(
                    pts.is_empty(),
                    "case {case}: claimed infeasible with {} points",
                    pts.len()
                )
            }
            Feasibility::Feasible => {
                assert!(
                    !pts.is_empty(),
                    "case {case}: claimed feasible with no points"
                )
            }
            Feasibility::Unknown => {}
        }
    }
}

/// Fourier–Motzkin projection is an over-approximation that is exact on
/// the side it claims: every point with an integer preimage lies in the
/// projection.
#[test]
fn projection_covers_shadow() {
    let mut rng = Rng::new(0x511AD0);
    for case in 0..48 {
        let p = gen_polyhedron(&mut rng, 3, 3, 4);
        let proj = p.eliminate_dims(&[2]).unwrap();
        for pt in points_of(&p, 4) {
            assert!(
                proj.contains(&pt).unwrap(),
                "case {case}: projection lost {pt:?}"
            );
        }
    }
}

/// The under-approximating projection is sound: every point of the result
/// has an integer preimage.
#[test]
fn under_projection_is_sound() {
    let mut rng = Rng::new(0x50112D);
    for case in 0..48 {
        let p = gen_polyhedron(&mut rng, 3, 3, 3);
        let under = p.eliminate_dims_under(&[2]).unwrap();
        let all = points_of(&p, 3);
        for x0 in -3i128..=3 {
            for x1 in -3i128..=3 {
                // `under` ignores x2; test membership with any value.
                if under.contains(&[x0, x1, 0]).unwrap() {
                    let witnessed = all.iter().any(|q| q[0] == x0 && q[1] == x1);
                    assert!(
                        witnessed,
                        "case {case}: under-projection invented ({x0},{x1})"
                    );
                }
            }
        }
    }
}

/// Subtraction partitions: pieces are disjoint, live inside A, avoid B,
/// and together with A∩B cover A.
#[test]
fn subtraction_partitions() {
    let mut rng = Rng::new(0x5B7AC7);
    for case in 0..48 {
        let a = gen_polyhedron(&mut rng, 2, 3, 4);
        let bq = gen_polyhedron(&mut rng, 2, 3, 4);
        let pieces = a.subtract(&bq).unwrap();
        for pt in points_of(&a, 4) {
            let in_b = bq.contains(&pt).unwrap();
            let covering: usize = pieces.iter().filter(|q| q.contains(&pt).unwrap()).count();
            if in_b {
                assert_eq!(covering, 0, "case {case}: piece overlaps B at {pt:?}");
            } else {
                assert_eq!(
                    covering, 1,
                    "case {case}: point {pt:?} covered {covering} times"
                );
            }
        }
        // Pieces never leak outside A.
        for q in &pieces {
            for pt in points_of(q, 4) {
                assert!(
                    a.contains(&pt).unwrap(),
                    "case {case}: piece escapes A at {pt:?}"
                );
            }
        }
    }
}

/// The subset test answers what the set difference does: `b ⊆ a` exactly
/// when every piece of `b \ a` is infeasible, and exactly when every point
/// of `b` lies in `a`. Over random systems with equalities, rows the two
/// sides share (which the subset test skips), a row repeated inside `b`,
/// and contradictions on either side.
#[test]
fn subset_test_agrees_with_the_difference() {
    let mut rng = Rng::new(0x5AB5E7);
    let (mut subsets, mut others) = (0, 0);
    for case in 0..128 {
        let n = rng.range(2, 3) as usize;
        let mut a = gen_polyhedron(&mut rng, n, 3, 3);
        // b keeps a's box and, with odds 3 in 4, each other row of a, then
        // adds fresh rows of its own.
        let mut b = Polyhedron::universe(a.space().clone());
        for (k, c) in a.constraints().iter().enumerate() {
            if k < 2 * n || rng.range(0, 3) != 0 {
                b.add(c.clone());
            }
        }
        for _ in 0..rng.range(0, 2) {
            b.add(gen_constraint(&mut rng, n));
        }
        if rng.chance() {
            let mut rows = b.constraints().to_vec();
            rows.push(rows[rng.range(0, rows.len() as i128 - 1) as usize].clone());
            b = Polyhedron::from_parts(b.space().clone(), rows, b.is_obviously_empty());
        }
        let contradiction = Constraint::ge(LinExpr::constant(n, -1));
        match rng.range(0, 9) {
            0 => a.add(contradiction),
            1 => b.add(contradiction),
            _ => {}
        }
        let by_difference = b
            .subtract(&a)
            .unwrap()
            .iter()
            .all(|p| p.integer_feasibility().unwrap() == Feasibility::Infeasible);
        let by_points = points_of(&b, 3).iter().all(|pt| a.contains(pt).unwrap());
        let got = b.is_subset_of(&a).unwrap();
        assert_eq!(got, by_difference, "case {case}: {b:?} ⊆ {a:?}");
        assert_eq!(got, by_points, "case {case}: {b:?} ⊆ {a:?} by points");
        if got {
            subsets += 1;
        } else {
            others += 1;
        }
    }
    assert!(
        subsets >= 16 && others >= 16,
        "{subsets} subsets, {others} others"
    );
}

/// Scanning enumerates exactly the member points, each once.
#[test]
fn scan_is_exact() {
    let mut rng = Rng::new(0x5CA4);
    for case in 0..48 {
        let p = gen_polyhedron(&mut rng, 2, 3, 4);
        let nest = scan_bounds(&p, &[0, 1]).unwrap();
        let mut scanned = nest.enumerate(&[0, 0], 100_000).unwrap();
        scanned.sort();
        let n = scanned.len();
        scanned.dedup();
        assert_eq!(scanned.len(), n, "case {case}: duplicate scan points");
        let mut expected = points_of(&p, 4);
        expected.sort();
        assert_eq!(scanned, expected, "case {case}");
    }
}

/// `p` translated by a trailing parameter `o` along the dimensions in
/// `shift`: each row `a·x + b` becomes `a·y − (Σ_{k ∈ shift} a_k)·o + b`.
fn translated(p: &Polyhedron, shift: &[usize]) -> Polyhedron {
    let n = p.space().len();
    let dims = (0..n).map(|k| (format!("x{k}"), DimKind::Index));
    let space = Space::from_dims(dims.chain([("o".to_string(), DimKind::Param)]));
    let mut out = Polyhedron::universe(space);
    if p.is_obviously_empty() {
        out.add(Constraint::ge(LinExpr::from_coeffs(vec![0; n + 1], -1)));
    }
    for c in p.constraints() {
        let mut coeffs = c.expr().coeffs().to_vec();
        let pull: i128 = shift.iter().map(|&k| coeffs[k]).sum();
        coeffs.push(-pull);
        let e = LinExpr::from_coeffs(coeffs, c.expr().constant_term());
        out.add(if c.is_eq() {
            Constraint::eq(e)
        } else {
            Constraint::ge(e)
        });
    }
    out
}

/// Every level of `nest`'s kernel at `fixed`, counted: the kernel refuses
/// it, or its runs, expanded, are `for_each`'s points as a multiset, and
/// the dense oracle's. A level whose bounds a deeper level without an
/// equality reads — a level the kernel always loops — is refused. Returns
/// the levels counted, those of them that move a pinned level along, and
/// the levels refused.
fn check_runs(nest: &ScanNest, fixed: &[i128], at: &str) -> [usize; 3] {
    use std::ops::ControlFlow::Continue;
    let n = nest.vars.len();
    let kernel = nest.compile(fixed).unwrap();
    let mut points: Vec<Vec<i64>> = Vec::new();
    kernel
        .for_each(n, |p| {
            points.push(p.to_vec());
            Ok::<_, PolyError>(Continue(()))
        })
        .unwrap();
    points.sort();
    let mut dense: Vec<Vec<i64>> = (nest.enumerate_dense(fixed).unwrap().into_iter())
        .map(|p| p.into_iter().map(|v| i64::try_from(v).unwrap()).collect())
        .collect();
    dense.sort();
    assert_eq!(points, dense, "{at}");
    let mut tally = [0; 3];
    for (k, vb) in nest.vars.iter().enumerate() {
        let equality = |v: &dmc_polyhedra::VarBounds| {
            v.exact.is_some() || v.lowers.iter().any(|b| v.uppers.contains(b))
        };
        let read = nest.vars[k + 1..].iter().any(|v| {
            !equality(v) && (v.lowers.iter().chain(&v.uppers)).any(|b| b.expr.coeff(vb.dim) != 0)
        });
        let mut runs: Vec<Vec<i64>> = Vec::new();
        let ok = kernel
            .for_each_run(n, k, |run| {
                assert_eq!(
                    (run.last[vb.dim] - run.first[vb.dim]) / run.step + 1,
                    run.len as i64,
                    "{at}: level {k}"
                );
                for i in 0..run.len as i64 {
                    let along = |(&a, &b): (&i64, &i64)| match run.len {
                        1 => a,
                        len => a + (b - a) / (len as i64 - 1) * i,
                    };
                    runs.push(run.first.iter().zip(run.last).map(along).collect());
                }
                Ok::<_, PolyError>(Continue(()))
            })
            .unwrap();
        let moving = kernel.run_dims(n, k);
        assert_eq!(ok, moving.is_some(), "{at}: level {k}");
        if ok {
            assert!(!read, "{at}: level {k} is read by a deeper loop");
            runs.sort();
            assert_eq!(runs, points, "{at}: level {k} counted");
            tally[0] += 1;
            tally[1] += usize::from(moving.is_some_and(|m| m.len() > 1));
        } else {
            tally[2] += 1;
        }
    }
    tally
}

/// The compiled kernel enumerates what the dense recursion it replaced
/// (`ScanNest::enumerate_dense`: a level pinned by a non-unit equality
/// loops over its misses) does — same points, same order — for random
/// 2–4-dim polyhedra (equalities with non-unit coefficients included)
/// under random scan orders, so pinned dimensions land before, between and
/// after the dimensions that pin them; and both are exact against brute
/// force.
///
/// Each polyhedron is scanned again translated by a fixed offset near
/// ±2^62 / m along random dimensions, so that some kernels sit just inside
/// the range `ScanNest::compile` proves for its `i64` arithmetic and some
/// past it: an accepted nest enumerates the oracle's points in its order,
/// a refused one is `PolyError::Overflow`, and neither panics (the tests
/// build with overflow checks, so a hole in the proof would). Every level
/// of every nest, translated or not, is also counted ([`check_runs`]): a
/// run's length and its two ends are `i64` arithmetic the proof covers.
#[test]
fn scan_kernel_matches_dense_recursion() {
    let mut rng = Rng::new(0x5CA9);
    let mut offsets = Rng::new(0x0FF5E7);
    let (mut strided, mut accepted, mut refused) = (0, 0, 0);
    let mut levels = [0; 3];
    let mut count = |t: [usize; 3]| (0..3).for_each(|i| levels[i] += t[i]);
    for case in 0..96 {
        let n = rng.range(2, 4) as usize;
        let p = gen_polyhedron(&mut rng, n, 3, 3);
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            order.swap(k, rng.range(0, k as i128) as usize);
        }
        let nest = scan_bounds(&p, &order).unwrap();
        strided += usize::from(nest.vars.iter().any(|vb| {
            vb.lowers
                .iter()
                .any(|b| b.divisor > 1 && vb.uppers.contains(b))
        }));
        let fixed = vec![0i128; n];
        let dense = nest.enumerate_dense(&fixed).unwrap();
        let scanned = nest.enumerate(&fixed, 100_000).unwrap();
        assert_eq!(scanned, dense, "case {case}: order {order:?}");
        let half = scanned.len() / 2;
        assert_eq!(
            nest.enumerate(&fixed, half).unwrap(),
            dense[..half],
            "case {case}: limit {half}"
        );
        let mut sorted = scanned;
        sorted.sort();
        assert_eq!(sorted, points_of(&p, 3), "case {case}: order {order:?}");
        count(check_runs(&nest, &fixed, &format!("case {case}")));

        let shift: Vec<usize> = (0..n).filter(|_| offsets.chance()).collect();
        let m = [1, 2, 4, 16, 1 << 20][offsets.range(0, 4) as usize];
        let sign = if offsets.chance() { 1 } else { -1 };
        let o = sign * ((1i128 << 62) - offsets.range(0, 16)) / m;
        let nest = scan_bounds(&translated(&p, &shift), &order).unwrap();
        let mut fixed = vec![0i128; n + 1];
        fixed[n] = o;
        match nest.enumerate(&fixed, usize::MAX) {
            Ok(scanned) => {
                accepted += 1;
                let dense = nest.enumerate_dense(&fixed).unwrap();
                assert_eq!(scanned, dense, "case {case}: offset {o} on {shift:?}");
                let mut want: Vec<Vec<i128>> = sorted
                    .iter()
                    .map(|pt| {
                        let mut pt = pt.clone();
                        shift.iter().for_each(|&k| pt[k] += o);
                        pt.push(o);
                        pt
                    })
                    .collect();
                want.sort();
                let mut got = scanned;
                got.sort();
                assert_eq!(got, want, "case {case}: offset {o} on {shift:?}");
                count(check_runs(
                    &nest,
                    &fixed,
                    &format!("case {case}: offset {o}"),
                ));
            }
            Err(e) => {
                assert_eq!(e, PolyError::Overflow, "case {case}: offset {o}");
                refused += 1;
            }
        }
    }
    assert!(strided >= 8, "only {strided} cases had a strided level");
    assert!(
        accepted >= 8 && refused >= 8,
        "{accepted} offset nests accepted, {refused} refused"
    );
    let [counted, moving, refused] = levels;
    assert!(
        counted >= 32 && moving >= 8 && refused >= 32,
        "{counted} levels counted ({moving} moving a pinned level), {refused} refused"
    );
}

/// Parametric lexmax agrees with brute force at every context.
#[test]
fn lexopt_matches_brute_force() {
    let mut rng = Rng::new(0x1E304);
    for case in 0..48 {
        let p = gen_polyhedron(&mut rng, 2, 3, 4);
        let solved = match lexopt(&p, &[1], Direction::Max) {
            Ok(s) => s,
            // Unbounded cannot happen (box), but budget exhaustion may.
            Err(_) => continue,
        };
        for x0 in -4i128..=4 {
            let brute = (-4i128..=4)
                .rev()
                .find(|&x1| p.contains(&[x0, x1]).unwrap());
            // Find the piece covering x0 (if any) and evaluate, solving
            // aux dims by search.
            let mut got = None;
            let mut hits = 0;
            for piece in &solved.pieces {
                let n = piece.context.space().len();
                let mut fixed = piece
                    .context
                    .substitute_dim(0, &LinExpr::constant(n, x0))
                    .unwrap();
                // x1 is unconstrained in the context; aux dims (if any) must
                // be found by search.
                let aux: Vec<usize> = (2..n).collect();
                if aux.is_empty() {
                    if fixed.contains(&vec![x0; n]).unwrap() {
                        hits += 1;
                        let mut pt = vec![0i128; n];
                        pt[0] = x0;
                        got = Some(piece.solution[0].eval(&pt).unwrap());
                    }
                } else {
                    fixed = fixed.substitute_dim(1, &LinExpr::constant(n, 0)).unwrap();
                    let proj = fixed.project_onto(&aux).unwrap();
                    if proj.constraints().is_empty() && !proj.is_obviously_empty() {
                        // Aux dims unconstrained in this piece: any value
                        // witnesses membership — but only if the non-aux
                        // part of the context holds.
                        let mut probe = vec![0i128; n];
                        probe[0] = x0;
                        if fixed.contains(&probe).unwrap() {
                            hits += 1;
                            got = Some(piece.solution[0].eval(&probe).unwrap());
                        }
                    } else if let Some(sols) = proj.enumerate_points(4).unwrap() {
                        if let Some(s) = sols.first() {
                            hits += 1;
                            let mut pt = vec![0i128; n];
                            pt[0] = x0;
                            for (k, &d) in aux.iter().enumerate() {
                                pt[d] = s[k];
                            }
                            got = Some(piece.solution[0].eval(&pt).unwrap());
                        }
                    }
                }
            }
            assert!(hits <= 1, "case {case}: pieces overlap at x0={x0}");
            assert_eq!(got, brute, "case {case}: lexmax mismatch at x0={x0}");
        }
    }
}

/// What `scan_bounds` and `lexopt` answer for one query, printed.
fn answers(p: &Polyhedron, order: &[usize], opt: &[usize], dir: Direction) -> [String; 2] {
    [
        format!("{:?}", scan_bounds(p, order)),
        format!("{:?}", lexopt(p, opt, dir)),
    ]
}

/// What their computation answers, memo maps aside.
fn computed(p: &Polyhedron, order: &[usize], opt: &[usize], dir: Direction) -> [String; 2] {
    [
        format!("{:?}", scan_bounds_uncached(p, order)),
        format!("{:?}", lexopt_uncached(p, opt, dir)),
    ]
}

/// The whole-query memo maps answer exactly what the computation does.
/// Over random systems × scan orders × optimized dimensions × directions,
/// from cold maps: the miss, the warm hit after it and the computation
/// print identically. The same rows over a second space with other names
/// — one of them `$q<n>`, the name `lexopt` tries first for an auxiliary
/// dimension — hit the first space's entries and must come back in their
/// own names, the auxiliary ones renamed around the collision.
#[test]
fn memoized_scans_and_optima_equal_their_computation() {
    let mut rng = Rng::new(0x3E30);
    let before = stats::snapshot();
    let (mut hits_wanted, mut with_aux) = (0, 0);
    for case in 0..96 {
        let n = rng.range(2, 4) as usize;
        let p = gen_polyhedron(&mut rng, n, 3, 3);
        let names = (0..n).map(|k| match k {
            0 => (format!("$q{n}"), DimKind::Param),
            _ => (format!("y{k}"), DimKind::Index),
        });
        let renamed = Polyhedron::from_parts(
            Space::from_dims(names),
            p.constraints().to_vec(),
            p.is_obviously_empty(),
        );
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            order.swap(k, rng.range(0, k as i128) as usize);
        }
        let opt = order[..rng.range(1, n as i128) as usize].to_vec();
        let dir = if rng.chance() {
            Direction::Max
        } else {
            Direction::Min
        };
        cache::clear_thread_caches();
        for q in [&p, &renamed] {
            let want = computed(q, &order, &opt, dir);
            for round in ["first", "second"] {
                let got = answers(q, &order, &opt, dir);
                assert_eq!(got, want, "case {case}: {round} answer over {}", q.space());
            }
        }
        // Three of the four calls per query hit: every one but the first.
        let solved = lexopt(&p, &opt, dir);
        hits_wanted += 3 * u64::from(solved.is_ok());
        with_aux += usize::from(solved.is_ok_and(|s| s.space.len() > n));
    }
    let d = stats::snapshot().since(&before);
    assert!(d.scan_cache_hits >= 3 * 96 && d.lex_cache_hits >= hits_wanted);
    assert!(
        with_aux >= 8,
        "only {with_aux} optima needed an auxiliary dimension"
    );
}

/// The extremes of `i128` through the value codec: a scan whose level is
/// assigned `n + i128::MIN` under a guard of `±i128::MAX` coefficients
/// (equalities only, which no negation test touches), optima at
/// `i128::MAX` and `-i128::MAX`, and both optima of the guarded system,
/// whose feasibility tests run Pugh's equality step on those rows. Cold,
/// warm and computed agree.
#[test]
fn extreme_values_survive_the_memo_maps() {
    let (max, min) = (i128::MAX, i128::MIN);
    let space = |names: &[&str]| Space::from_dims(names.iter().map(|&n| (n, DimKind::Index)));
    let mut scan = Polyhedron::universe(space(&["x", "n", "m", "k"]));
    scan.add(Constraint::eq(LinExpr::from_coeffs(vec![-1, 1, 0, 0], min)));
    scan.add(Constraint::eq(LinExpr::from_coeffs(
        vec![0, max, max - 1, 0],
        0,
    )));
    scan.add(Constraint::eq(LinExpr::from_coeffs(
        vec![0, 0, -max, 1],
        max,
    )));
    scan.add(Constraint::eq(LinExpr::from_coeffs(vec![0, 0, 0, 1], -3)));
    let mut top = Polyhedron::universe(space(&["n", "x"]));
    top.add(Constraint::ge(LinExpr::from_coeffs(vec![0, 1], 0)));
    top.add(Constraint::ge(LinExpr::from_coeffs(vec![0, -1], max)));
    top.add(Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)));
    top.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 0], 5)));
    let mut bottom = Polyhedron::universe(space(&["n", "x"]));
    bottom.add(Constraint::ge(LinExpr::from_coeffs(vec![0, 1], max)));
    bottom.add(Constraint::ge(LinExpr::from_coeffs(vec![0, -1], 0)));
    bottom.add(Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)));
    bottom.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 0], 5)));
    cache::clear_thread_caches();
    let scanned = || format!("{:?}", scan_bounds(&scan, &[0]));
    let want = format!("{:?}", scan_bounds_uncached(&scan, &[0]));
    assert!(want.contains(&min.to_string()), "{want}");
    assert_eq!([scanned(), scanned()], [want.as_str(); 2]);
    for (p, dir, extreme) in [(&top, Direction::Max, max), (&bottom, Direction::Min, -max)] {
        let solved = || format!("{:?}", lexopt(p, &[1], dir));
        let want = format!("{:?}", lexopt_uncached(p, &[1], dir));
        assert!(want.contains(&extreme.to_string()), "{want}");
        assert_eq!([solved(), solved()], [want.as_str(); 2]);
    }
    for dir in [Direction::Min, Direction::Max] {
        let solved = || format!("{:?}", lexopt(&scan, &[0], dir));
        let want = format!("{:?}", lexopt_uncached(&scan, &[0], dir));
        assert_eq!([solved(), solved()], [want.as_str(); 2]);
    }
}

/// Redundancy removal never changes the set.
#[test]
fn redundancy_removal_preserves_set() {
    let mut rng = Rng::new(0x4ED);
    for case in 0..48 {
        let p = gen_polyhedron(&mut rng, 2, 4, 4);
        let r = p.remove_redundant().unwrap();
        for x0 in -5i128..=5 {
            for x1 in -5i128..=5 {
                assert_eq!(
                    p.contains(&[x0, x1]).unwrap(),
                    r.contains(&[x0, x1]).unwrap(),
                    "case {case}: set changed at ({x0}, {x1})"
                );
            }
        }
        assert!(r.constraints().len() <= p.constraints().len());
    }
}

/// The feasibility memo's key is canonical: an equal system built in
/// another row order is answered by the first one's entry, and a system
/// differing in one constant is not.
#[test]
fn canonical_key_is_order_insensitive() {
    let space = Space::from_dims([("x", DimKind::Index), ("y", DimKind::Index)]);
    let rows = [
        Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)),
        Constraint::ge(LinExpr::from_coeffs(vec![0, -1], 7)),
        Constraint::ge(LinExpr::from_coeffs(vec![-1, 0], 9)),
        Constraint::ge(LinExpr::from_coeffs(vec![0, 1], 2)),
    ];
    let build = |rows: &mut dyn Iterator<Item = Constraint>| {
        let mut p = Polyhedron::universe(space.clone());
        rows.for_each(|c| p.add(c));
        p
    };
    let a = build(&mut rows.iter().cloned());
    let b = build(&mut rows.iter().rev().cloned());
    let mut c = rows.clone();
    c[0] = Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 1));
    let c = build(&mut c.into_iter());
    assert_ne!(a.constraints(), b.constraints(), "built in another order");

    cache::clear_thread_caches();
    let hits_and_misses = |p: &Polyhedron| {
        let before = stats::snapshot();
        assert_eq!(p.integer_feasibility(), Ok(Feasibility::Feasible));
        let d = stats::snapshot().since(&before);
        (d.feas_cache_hits, d.feas_cache_misses)
    };
    assert_eq!(hits_and_misses(&a), (0, 1));
    assert_eq!(hits_and_misses(&b), (1, 0), "the permuted system hits");
    assert_eq!(hits_and_misses(&c), (0, 1), "another constant misses");
}

/// "Keep the first occurrence; append only if new": the constraint list
/// `add`ing `rows` one by one must build.
fn first_occurrences(rows: impl IntoIterator<Item = Constraint>) -> Vec<Constraint> {
    let mut out: Vec<Constraint> = Vec::new();
    for r in rows {
        if !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

/// A row with coefficients in `-1..=1`, at least one nonzero, so it is its
/// own normal form.
fn unit_row(rng: &mut Rng, n: usize) -> Constraint {
    let mut coeffs: Vec<i128> = (0..n).map(|_| rng.range(-1, 1)).collect();
    if coeffs.iter().all(|&c| c == 0) {
        coeffs[rng.range(0, n as i128 - 1) as usize] = 1;
    }
    let e = LinExpr::from_coeffs(coeffs, rng.range(-2, 2));
    if rng.chance() {
        Constraint::eq(e)
    } else {
        Constraint::ge(e)
    }
}

/// `c` with its expression replaced by `e`.
fn with_expr(c: &Constraint, e: LinExpr) -> Constraint {
    if c.is_eq() {
        Constraint::eq(e)
    } else {
        Constraint::ge(e)
    }
}

/// `p` after `add`ing `rows`, as a constraint list.
fn after_adds(mut p: Polyhedron, rows: &[Constraint]) -> Vec<Constraint> {
    p.add_all(rows.iter().cloned());
    p.constraints().to_vec()
}

/// Every way a constraint list is built — `add` alone, or `from_parts`,
/// `extend_space`, `remap` and `with_row`, each followed by `add`s — ends
/// in the first-occurrence list of the rows it was given, in their order.
/// The last three run both on a directly built list holding repeats and on
/// an `add`-built one; a `remap` may send two dimensions to one place, so
/// rows distinct before it can collide after it.
#[test]
fn every_build_path_dedups_to_first_occurrences() {
    let mut rng = Rng::new(0xDED0);
    let space = |n: usize, tag: &str| {
        Space::from_dims((0..n).map(|k| (format!("{tag}{k}"), DimKind::Index)))
    };
    let (mut repeats, mut collisions) = (0, 0);
    for case in 0..1024 {
        let n = rng.range(1, 4) as usize;
        let pool: Vec<Constraint> = (0..4).map(|_| unit_row(&mut rng, n)).collect();
        let mut draw = |lo: i128, hi: i128| -> Vec<Constraint> {
            (0..rng.range(lo, hi))
                .map(|_| pool[rng.range(0, 3) as usize].clone())
                .collect()
        };
        // A directly built list is deduplicated by the next `add`, so at
        // least one follows it.
        let (rows, adds) = (draw(0, 8), draw(1, 4));
        repeats += usize::from(first_occurrences(rows.clone()).len() < rows.len());
        let all = || rows.iter().chain(&adds).cloned();

        let mut added = Polyhedron::universe(space(n, "x"));
        added.add_all(rows.iter().cloned());
        assert_eq!(
            added.constraints(),
            first_occurrences(rows.clone()),
            "case {case}: add"
        );
        let direct = Polyhedron::from_parts(space(n, "x"), rows.clone(), false);
        assert_eq!(
            after_adds(direct.clone(), &adds),
            first_occurrences(all()),
            "case {case}: from_parts"
        );

        let extra = rng.range(1, 2) as usize;
        let wide = |c: &Constraint| with_expr(c, c.expr().extend(extra));
        let wide_adds: Vec<Constraint> = adds.iter().map(wide).collect();
        // Into the first two of n + 1 dimensions: rows can collide.
        let map: Vec<usize> = (0..n).map(|_| rng.range(0, 1) as usize).collect();
        let moved = |c: &Constraint| with_expr(c, c.expr().remap(n + 1, &map));
        let moved_adds: Vec<Constraint> = adds.iter().map(moved).collect();
        let moved_rows = first_occurrences(added.constraints().iter().map(moved));
        collisions += usize::from(moved_rows.len() < added.constraints().len());
        for (base, name) in [(&direct, "direct"), (&added, "added")] {
            assert_eq!(
                after_adds(base.extend_space(&space(extra, "e")), &wide_adds),
                first_occurrences(all().map(|c| wide(&c))),
                "case {case}: extend_space of the {name} list"
            );
            assert_eq!(
                after_adds(base.remap(space(n + 1, "y"), &map), &moved_adds),
                first_occurrences(all().map(|c| moved(&c))),
                "case {case}: remap {map:?} of the {name} list"
            );

            let held = base.constraints();
            let at = rng.range(0, held.len() as i128) as usize;
            let row = pool[rng.range(0, 3) as usize].clone();
            let mut swapped = held.to_vec();
            if at == held.len() {
                swapped.push(row.clone());
            } else {
                swapped[at] = row.clone();
            }
            assert_eq!(
                after_adds(base.with_row(at, row), &adds),
                first_occurrences(swapped.into_iter().chain(adds.iter().cloned())),
                "case {case}: with_row at {at} of the {name} list"
            );
        }
    }
    assert!(repeats >= 256, "only {repeats} cases held a repeated row");
    assert!(
        collisions >= 16,
        "only {collisions} remaps made rows collide"
    );
}
