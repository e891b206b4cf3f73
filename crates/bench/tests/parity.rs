//! Output-parity tests. The interpreter: its lowered `run` and its
//! tree-walking `run_traced` leave the same bits in every element. The
//! planner's fold: the messages, chunks, multicast groups and payloads the
//! grouping of owned elements it replaced gave.

use std::collections::{BTreeMap, HashMap, HashSet};

use dmc_bench::{lu_input, stencil_input, xy_input};
use dmc_commgen::{aggregate_messages, fold_messages, CommElem, CommSet, FoldSpec};
use dmc_core::{compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, DimMap, ProcGrid};
use dmc_ir::Aff;

/// On every workload of the registry, at its standard parameters, the
/// lowered interpreter and the tree walk agree bit for bit.
#[test]
fn interpreter_paths_agree_on_the_registry() {
    for w in dmc_bench::workloads() {
        let program = (w.input)(w.nproc).program;
        let env = program
            .params
            .iter()
            .cloned()
            .zip(w.params.iter().copied())
            .collect();
        let lowered = dmc_ir::interp::run(&program, &env).expect("runs");
        let (walked, trace) = dmc_ir::interp::run_traced(&program, &env).expect("runs");
        assert!(!trace.reads.is_empty(), "{}: nothing ran", w.name);
        for (name, a) in lowered.iter() {
            let b = walked.array(name).expect("same arrays");
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(a.extents(), b.extents(), "{} {name}", w.name);
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{} {name}", w.name);
        }
    }
}

/// `(sender, key, receiver, items)` of one reference message.
type RefMessage = (Vec<i128>, Vec<i128>, Vec<i128>, Vec<CommElem>);

/// The grouping the planner ran on before the fold: owned elements into a
/// `BTreeMap`, `sort`, `dedup`, and a `HashSet` for §6.1.3's one transfer
/// per physical receiver — what the element table was checked against row
/// for row while it existed.
fn reference_messages(cs: &CommSet, params: &[i128], grid: Option<&ProcGrid>) -> Vec<RefMessage> {
    type GroupKey = (Vec<i128>, Vec<i128>, Vec<i128>);
    let mut groups: BTreeMap<GroupKey, Vec<CommElem>> = BTreeMap::new();
    for e in cs.enumerate(params, usize::MAX).unwrap().unwrap() {
        let (s, r) = match grid {
            Some(g) => (g.fold(&e.ps), g.fold(&e.pr)),
            None => (e.ps.clone(), e.pr.clone()),
        };
        if s != r {
            let mut key: Vec<i128> = e.s_iter.iter().take(cs.prefix_len).copied().collect();
            key.extend(e.r_iter.iter().take(cs.refetch_outer));
            groups.entry((s, key, r)).or_default().push(e);
        }
    }
    let finish = |((sender, key, receiver), mut items): (GroupKey, Vec<CommElem>)| {
        items.sort();
        items.dedup();
        if grid.is_some() {
            let mut seen = HashSet::new();
            items.retain(|e| seen.insert((e.s_iter.clone(), e.arr.clone())));
        }
        (sender, key, receiver, items)
    };
    groups.into_iter().map(finish).collect()
}

/// One reference chunk: a message's items cut at a legality split, as the
/// planner cut its element-table row ranges.
struct RefChunk {
    sender: Vec<i128>,
    key: Vec<i128>,
    receiver: Vec<i128>,
    items: Vec<CommElem>,
}

/// The planner's grouping before the fold: each reference message cut into
/// runs of equal `s_iter[..prefix + extra]` (each element alone without
/// aggregation), the split's components appended to the key.
fn reference_chunks(
    cs: &CommSet,
    messages: &[RefMessage],
    extra: usize,
    aggregate: bool,
) -> Vec<RefChunk> {
    let key_len = (cs.prefix_len + extra).min(cs.dims.s_iter.len());
    let split_len = if key_len > cs.prefix_len { key_len } else { 0 };
    let mut out = Vec::new();
    for (sender, key, receiver, items) in messages {
        let mut start = 0;
        while start < items.len() {
            let first = &items[start];
            let run = items[start..]
                .iter()
                .take_while(|e| aggregate && e.s_iter[..split_len] == first.s_iter[..split_len])
                .count()
                .max(1);
            let mut key = key.clone();
            key.extend(&first.s_iter[cs.prefix_len.min(key_len)..key_len]);
            out.push(RefChunk {
                sender: sender.clone(),
                key,
                receiver: receiver.clone(),
                items: items[start..start + run].to_vec(),
            });
            start += run;
        }
    }
    out
}

/// The planner's multicast merge before the fold: a chunk joins the first
/// earlier group with its sender, its key, its `arr` columns item for item
/// and none of its receivers. Returns the groups as chunk indices.
fn reference_merge(chunks: &[RefChunk]) -> Vec<Vec<usize>> {
    let arrs = |c: &RefChunk| c.items.iter().map(|e| e.arr.clone()).collect::<Vec<_>>();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, c) in chunks.iter().enumerate() {
        let joins = |g: &&mut Vec<usize>| {
            let m = &chunks[g[0]];
            (&m.sender, &m.key) == (&c.sender, &c.key)
                && arrs(m) == arrs(c)
                && g.iter().all(|&j| chunks[j].receiver != c.receiver)
        };
        match groups.iter_mut().find(joins) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// A transpose read on a 2-D grid, four virtual processors folded onto
/// two in each dimension.
fn transpose_2d_input() -> CompileInput {
    let program = dmc_ir::parse(
        "param N; array A[N + 1][N + 1]; array B[N + 1][N + 1];
         for i = 0 to N { for j = 0 to N { B[i][j] = A[j][i]; } }",
    )
    .unwrap();
    let blocks =
        |a: &str, b: &str| vec![DimMap::block(Aff::var(a), 4), DimMap::block(Aff::var(b), 4)];
    CompileInput {
        program,
        comps: BTreeMap::from([(0, CompDecomp::from_maps(0, blocks("i", "j")))]),
        initial: HashMap::from([(
            "A".to_string(),
            DataDecomp::from_maps("A", 2, blocks("a0", "a1")),
        )]),
        grid: ProcGrid::new(vec![2, 2]),
    }
}

/// A read that runs against its producer: `B[t][j]` reads the `A[t - 1]`
/// row backwards, so along the producer's `i` the first use falls. Both
/// statements go cyclic by `t`, so the row moves to the next processor.
fn reversed_input() -> CompileInput {
    let program = dmc_ir::parse(
        "param T, N; array A[T + 1][N + 1]; array B[T + 1][N + 1];
         for t = 1 to T {
           for i = 0 to N { A[t][i] = B[t - 1][i] + 1.0; }
           for j = 0 to N { B[t][j] = A[t - 1][N - j]; }
         }",
    )
    .unwrap();
    CompileInput {
        program,
        comps: BTreeMap::from([
            (0, CompDecomp::cyclic_1d(0, "t")),
            (1, CompDecomp::cyclic_1d(1, "t")),
        ]),
        initial: HashMap::new(),
        grid: ProcGrid::line(4),
    }
}

/// The fold gives the reference's chunks — sender, key, receiver, words,
/// first use and last send, and in values mode the items — at legality
/// splits 0 to 3, folded one at a time and all in one pass (one at a time
/// is how the planner refolds a set its legality rule deepens); its
/// multicast groups are the reference merge's, with the `(s_iter, arr)`
/// classes folded for every set agreeing with the `arr`-column merge; and
/// `aggregate_messages` gives the reference's messages with `limit`
/// counting scanned elements: served at the count, refused one below. On
/// the registry and on LU, stencil, transpose, X/Y and a reversed read under
/// cyclic, block, block-cyclic and 2-D decompositions, value- and
/// location-centric, naive and full, with and without a grid.
///
/// The fold takes a set's last send-iteration level as runs wherever it
/// can, and points elsewhere: LU's largest set goes by runs at splits 0 and
/// 1 under the grid, some sets go by points, and a fold of several splits
/// can take the other path than one of a single split — so the payload
/// classes must be numbered the same way on both.
#[test]
fn fold_matches_the_grouping_it_replaced() {
    let mut cases: Vec<(&str, CompileInput, Options, Vec<i128>)> = dmc_bench::workloads()
        .into_iter()
        .map(|w| (w.name, (w.input)(w.nproc), Options::full(), w.params))
        .collect();
    cases.extend([
        ("lu naive", lu_input(3), Options::naive(), vec![13]),
        ("lu lc", lu_input(4), Options::location_centric(), vec![12]),
        ("xy lc", xy_input(2), Options::location_centric(), vec![15]),
        ("stencil", stencil_input(8, 3), Options::full(), vec![2, 63]),
        ("transpose", transpose_2d_input(), Options::full(), vec![15]),
        (
            "transpose lc",
            transpose_2d_input(),
            Options::location_centric(),
            vec![15],
        ),
        ("reversed", reversed_input(), Options::full(), vec![6, 9]),
    ]);
    const EXTRAS: [usize; 4] = [0, 1, 2, 3];
    let (mut refetched, mut repeats, mut two_d, mut merged) = (0, 0, 0, 0);
    let (mut lu_by_runs, mut by_points) = (0, 0);
    for (name, input, options, params) in cases {
        let compiled = compile(input, options).expect("compiles");
        assert!(!compiled.comm.is_empty());
        let stmts = compiled.input.program.statements();
        let count = |cs: &CommSet| cs.enumerate(&params, usize::MAX).unwrap().unwrap().len();
        let largest = (compiled.comm.iter().map(count).enumerate())
            .max_by_key(|&(_, n)| n)
            .map(|(k, _)| k);
        for (k, cs) in compiled.comm.iter().enumerate() {
            let count = count(cs);
            let read_depth = stmts[cs.read_stmt].loops.len();
            for grid in [None, Some(&compiled.input.grid)] {
                let want = reference_messages(cs, &params, grid);
                let proc = |coords: &[i128]| match grid {
                    Some(g) => vec![g.rank(coords)],
                    None => coords.to_vec(),
                };
                let got = aggregate_messages(cs, &params, grid, count)
                    .expect("aggregates")
                    .expect("the limit is the element count");
                assert_eq!(got.len(), want.len(), "{} messages", cs.array);
                for (m, (sender, key, receiver, items)) in got.iter().zip(&want) {
                    assert_eq!((&m.sender, &m.key, &m.receiver), (sender, key, receiver));
                    assert_eq!(m.items.len(), items.len(), "{sender:?} -> {receiver:?}");
                }
                if let Some(below) = count.checked_sub(1) {
                    let refused = aggregate_messages(cs, &params, grid, below).expect("aggregates");
                    assert!(refused.is_none(), "{below} of {count} elements");
                }
                for (aggregate, multicast) in [(true, true), (true, false), (false, false)] {
                    let spec = FoldSpec {
                        grid,
                        splits: &EXTRAS,
                        read_depth,
                        aggregate,
                        multicast,
                        payloads: true,
                    };
                    let all = fold_messages(cs, &params, &spec, count).unwrap().unwrap();
                    for extra in EXTRAS {
                        let alone = [extra];
                        let spec = FoldSpec {
                            splits: &alone,
                            ..spec
                        };
                        let one = fold_messages(cs, &params, &spec, count)
                            .unwrap()
                            .unwrap()
                            .remove(0);
                        assert_eq!(one.split(), cs.split_depth(extra));
                        let in_all = all.iter().find(|f| f.split() == one.split());
                        assert_eq!(in_all, Some(&one), "split {extra} alone and with the rest");
                        let planner = aggregate && grid.is_some();
                        if name == "lu" && largest == Some(k) && planner && extra < 2 {
                            assert!(one.counted(), "LU's largest set at split {extra}");
                            lu_by_runs += 1;
                        }
                        by_points += usize::from(aggregate && extra == 0 && !one.counted());
                        let chunks = reference_chunks(cs, &want, extra, aggregate);
                        assert_eq!(one.len(), chunks.len(), "{} split {extra}", cs.array);
                        for (c, r) in one.chunks().zip(&chunks) {
                            let at = format!("{:?} -> {:?} at {:?}", r.sender, r.receiver, r.key);
                            assert_eq!(c.sender, proc(&r.sender), "{at}");
                            assert_eq!(c.receiver, proc(&r.receiver), "{at}");
                            assert_eq!(c.key, r.key, "{at}");
                            assert_eq!(c.words, r.items.len() as u64, "{at}");
                            let first_use = r.items.iter().map(|e| &e.r_iter[..read_depth]).min();
                            assert_eq!(Some(c.first_use), first_use, "{at}");
                            let last = &r.items[r.items.len() - 1];
                            assert_eq!(c.last_send, last.s_iter, "{at}");
                            let payload: Vec<(Vec<i128>, Vec<i128>)> = one
                                .payload(c.payload)
                                .map(|(s, a)| (s.to_vec(), a.to_vec()))
                                .collect();
                            let items: Vec<_> = r
                                .items
                                .iter()
                                .map(|e| (e.s_iter.clone(), e.arr.clone()))
                                .collect();
                            assert_eq!(payload, items, "{at}");
                        }
                        let groups: Vec<Vec<usize>> = one
                            .groups()
                            .map(|g| g.iter().map(|&i| i as usize).collect())
                            .collect();
                        if multicast {
                            let reference = reference_merge(&chunks);
                            assert_eq!(groups, reference, "{} split {extra}", cs.array);
                            merged += usize::from(groups.len() < chunks.len());
                        } else {
                            let alone: Vec<Vec<usize>> =
                                (0..chunks.len()).map(|i| vec![i]).collect();
                            assert_eq!(groups, alone);
                        }
                    }
                }
                let kept: usize = want.iter().map(|m| m.3.len()).sum();
                refetched += usize::from(cs.refetch_outer > 0 && kept > 0);
                repeats += usize::from(grid.is_some_and(|g| {
                    let apart = |e: &&CommElem| g.fold(&e.ps) != g.fold(&e.pr);
                    let all = cs.enumerate(&params, usize::MAX).unwrap().unwrap();
                    all.iter().filter(apart).count() > kept
                }));
                two_d += usize::from(grid.is_some_and(|g| g.ndim() == 2) && kept > 0);
            }
        }
    }
    assert!(refetched > 0, "no location-centric set was aggregated");
    assert!(repeats > 0, "no set exercised dedup or \u{a7}6.1.3");
    assert!(two_d > 0, "no 2-D grid was aggregated");
    assert!(merged > 0, "no payloads were merged into a multicast");
    assert!(lu_by_runs > 0, "LU is not in the registry");
    assert!(by_points > 0, "no set fell back to the point fold");
}

/// The scan kernel visits every final communication set of LU at (N, P) =
/// (12, 4) and (48, 16) and of the stencil, in the order
/// `CommScan::for_each` scans it, exactly as the dense recursion it
/// replaced: same points, same order. LU's receiver sets carry the
/// quotient levels the kernel assigns by exact division; at P = 16 they
/// are `fold_receivers`' stride, the sets the `lu_plan` benchmark spends
/// its time in. `CommScan::for_each`, which stops before trailing pinned
/// auxiliary levels, lends the same elements in the same order.
#[test]
fn scan_kernel_matches_dense_recursion_on_the_planner_sets() {
    let cases = [
        (lu_input(4), vec![12]),
        (lu_input(16), vec![48]),
        (stencil_input(32, 4), vec![4, 127]),
    ];
    for (input, params) in cases {
        let compiled = compile(input, Options::full()).expect("compiles");
        for cs in &compiled.comm {
            let d = &cs.dims;
            let order: Vec<usize> = [&d.s_iter, &d.ps, &d.pr, &d.r_iter, &d.arr, &d.aux]
                .into_iter()
                .flatten()
                .copied()
                .collect();
            let mut fixed = vec![0; cs.poly.space().len()];
            for (&p, &v) in d.params.iter().zip(&params) {
                fixed[p] = v;
            }
            let nest = dmc_polyhedra::scan_bounds(&cs.poly, &order).unwrap();
            let want = nest.enumerate_dense(&fixed).unwrap();
            let got = nest.enumerate(&fixed, usize::MAX).unwrap();
            assert_eq!(got, want, "{} read {}", cs.array, cs.read_no);
            let cols = |p: &[i128], dims: &[usize]| dims.iter().map(|&k| p[k]).collect();
            let elems: Vec<CommElem> = want
                .iter()
                .map(|p| CommElem {
                    s_iter: cols(p, &d.s_iter),
                    ps: cols(p, &d.ps),
                    r_iter: cols(p, &d.r_iter),
                    pr: cols(p, &d.pr),
                    arr: cols(p, &d.arr),
                })
                .collect();
            let lent = cs.enumerate(&params, usize::MAX).unwrap().unwrap();
            assert_eq!(lent, elems, "{} read {}", cs.array, cs.read_no);
        }
    }
}
