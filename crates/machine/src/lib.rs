//! # dmc-machine
//!
//! A deterministic distributed-memory machine simulator — the substrate
//! standing in for the paper's 32-processor Intel iPSC/860 (§7).
//!
//! Processors have private memories and exchange explicit messages with an
//! `α + β·bytes` cost model ([`MachineConfig`]); receives block. The
//! simulator runs a fully resolved [`Schedule`] in one of two fidelities:
//!
//! * **values mode** checks the compiler's communication plan: all
//!   compute blocks execute for real against local memories, messages
//!   carry actual values, a read of an element a processor holds no copy
//!   of is a hard error, and the merged final memory is compared with the
//!   sequential interpreter's. Only the two together prove a plan: a
//!   stale copy that a missing message should have refreshed is read
//!   without error, and shows only in that comparison. A
//!   local memory is dense: every array element has the same slot number
//!   on every processor, and a processor holds per slot a value and one
//!   8-byte version of its copy (absent until placed, written or
//!   received). A version names the write that produced the copy — the
//!   live-in value, an element of a numbered compute block, or an item of
//!   a message — and two versions compare as the write stamps they
//!   denote, read in place from the schedule. Array names, subscripts, parameters and
//!   payload items are resolved to slots and coefficient rows once, on
//!   entry — what cannot be resolved is refused there with a typed error —
//!   so executing an element hashes, compares and allocates nothing.
//! * **timing mode** reproduces the paper's performance experiments
//!   (Figure 14) at large problem sizes, advancing clocks by flop counts
//!   and message costs only. It builds no memory and resolves nothing, so
//!   its cost is independent of the array extents.

#![warn(missing_docs)]

mod codec;
mod config;
pub mod critpath;
mod schedule;
mod sim;
mod stats;

pub use config::{MachineConfig, MulticastModel};
pub use critpath::{Blame, CritAnalysis, LinkBlame, MsgBlame, Overrides, Scenario, WhatIf};
pub use schedule::{
    key_component, stamp_of, template_of, Action, MessageSpec, Payload, Schedule, Stamp, StampRef,
    KEY_PAD,
};
pub use sim::{simulate, InitialPlacement, SimError, SimResult};
pub use stats::SimStats;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use dmc_decomp::ProcGrid;
    use dmc_ir::parse;

    use super::*;
    use crate::critpath::ns_of;

    fn params(pairs: &[(&str, i128)]) -> HashMap<String, i128> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    /// Two processors: p0 computes A[0..4], sends it to p1; p1 computes
    /// B[i] = A[i] * 2. Hand-built schedule.
    #[test]
    fn ping_values_flow_and_merge() {
        let program = parse(
            "param N; array A[N]; array B[N];
             for i = 0 to N - 1 { A[i] = 3.0; }
             for j = 0 to N - 1 { B[j] = A[j] + 1.0; }",
        )
        .unwrap();
        let env = params(&[("N", 5)]);
        let grid = ProcGrid::line(2);
        let mut sched = Schedule::new(2);
        // p0 runs statement 0 entirely.
        sched.procs[0].push(Action::Block {
            stmt: 0,
            prefix: vec![],
            inner_range: Some((0, 4)),
            flops: 0.0,
        });
        // p0 sends A[0..5], written by S0 at i = 0..5, to p1.
        let payload = Payload {
            array: "A".into(),
            writer: Some(0),
            width: 2,
            rows: (0..5).flat_map(|i| [i, i]).collect(),
        };
        sched.messages.push(MessageSpec {
            sender: 0,
            receivers: vec![1],
            words: 5,
            payload: Some(payload),
        });
        sched.procs[0].push(Action::Send { msg: 0 });
        // p1 receives then computes statement 1.
        sched.procs[1].push(Action::Recv { msg: 0 });
        sched.procs[1].push(Action::Block {
            stmt: 1,
            prefix: vec![],
            inner_range: Some((0, 4)),
            flops: 5.0,
        });

        let cfg = MachineConfig::ipsc860();
        let result = simulate(
            &program,
            &env,
            &grid,
            &sched,
            &cfg,
            &InitialPlacement::Replicated,
            true,
        )
        .unwrap();
        let mem = result.memory.unwrap();
        // Matches the sequential oracle.
        let seq = dmc_ir::interp::run(&program, &env).unwrap();
        for i in 0..5 {
            assert_eq!(
                mem.array("B").unwrap().get(&[i]),
                seq.array("B").unwrap().get(&[i]),
            );
            assert_eq!(mem.array("B").unwrap().get(&[i]).unwrap(), 4.0);
        }
        // Timing: p1 idled waiting for the message, then computed.
        let crit = critpath::analyze(&sched, &cfg).unwrap();
        assert!(crit.per_proc[1].recv_wait_ns > 0);
        assert_eq!(result.stats.messages, 1);
        assert_eq!(result.stats.words, 5);
        assert!(result.stats.time > 0.0);
    }

    #[test]
    fn missing_value_is_detected() {
        // p1 computes B from A but never receives A: in owned placement
        // (A lives on p0) this must fail loudly.
        let program = parse(
            "param N; array A[N]; array B[N];
             for j = 0 to N - 1 { B[j] = A[j] + 1.0; }",
        )
        .unwrap();
        let env = params(&[("N", 3)]);
        let grid = ProcGrid::line(2);
        let mut sched = Schedule::new(2);
        sched.procs[1].push(Action::Block {
            stmt: 0,
            prefix: vec![],
            inner_range: Some((0, 2)),
            flops: 3.0,
        });
        let mut owned = HashMap::new();
        owned.insert(
            "A".to_string(),
            dmc_decomp::DataDecomp::block_1d("A", 1, 0, 1_000),
        );
        let cfg = MachineConfig::ipsc860();
        let err = simulate(
            &program,
            &env,
            &grid,
            &sched,
            &cfg,
            &InitialPlacement::Owned(owned),
            true,
        )
        .unwrap_err();
        assert!(
            matches!(err, SimError::MissingValue { proc: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn deadlock_is_detected() {
        let program = parse("param N; array A[N]; for i = 0 to N - 1 { A[i] = 1.0; }").unwrap();
        let env = params(&[("N", 2)]);
        let grid = ProcGrid::line(2);
        let mut sched = Schedule::new(2);
        // Both processors wait for messages that are sent only afterwards.
        sched.messages.push(MessageSpec {
            sender: 0,
            receivers: vec![1],
            words: 1,
            payload: None,
        });
        sched.messages.push(MessageSpec {
            sender: 1,
            receivers: vec![0],
            words: 1,
            payload: None,
        });
        sched.procs[0].push(Action::Recv { msg: 1 });
        sched.procs[0].push(Action::Send { msg: 0 });
        sched.procs[1].push(Action::Recv { msg: 0 });
        sched.procs[1].push(Action::Send { msg: 1 });
        let cfg = MachineConfig::ipsc860();
        let err = simulate(
            &program,
            &env,
            &grid,
            &sched,
            &cfg,
            &InitialPlacement::Replicated,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn timing_mode_charges_costs() {
        let program =
            parse("param N; array A[N]; for i = 0 to N - 1 { A[i] = A[i] + 1.0; }").unwrap();
        let env = params(&[("N", 4)]);
        let grid = ProcGrid::line(2);
        let mut sched = Schedule::new(2);
        sched.procs[0].push(Action::Block {
            stmt: 0,
            prefix: vec![],
            inner_range: Some((0, 3)),
            flops: 1000.0,
        });
        sched.messages.push(MessageSpec {
            sender: 0,
            receivers: vec![1],
            words: 100,
            payload: None,
        });
        sched.procs[0].push(Action::Send { msg: 0 });
        sched.procs[1].push(Action::Recv { msg: 0 });
        let cfg = MachineConfig::ipsc860();
        let r = simulate(
            &program,
            &env,
            &grid,
            &sched,
            &cfg,
            &InitialPlacement::Replicated,
            false,
        )
        .unwrap();
        let compute = 1000.0 * cfg.flop_time;
        let send = cfg.send_busy_time(400, 1);
        // p0 finish = compute + send busy, on the nanosecond grid.
        let crit = critpath::analyze(&sched, &cfg).unwrap();
        let finish = |p: usize| crit.makespan_ns - crit.per_proc[p].drain_ns;
        assert_eq!(finish(0), ns_of(compute) + ns_of(send));
        // p1 receives after wire time.
        let arrival = ns_of(compute) + ns_of(send) + ns_of(cfg.wire_time(400));
        assert_eq!(finish(1), arrival + ns_of(cfg.alpha_recv));
        assert_eq!(ns_of(r.stats.time), finish(1));
        assert!((r.stats.mflops() - 1000.0 / r.stats.time / 1e6).abs() < 1e-9);
        assert!(r.memory.is_none());
    }

    #[test]
    fn multicast_counts_once() {
        let program = parse("param N; array A[N]; for i = 0 to N - 1 { A[i] = 1.0; }").unwrap();
        let env = params(&[("N", 2)]);
        let grid = ProcGrid::line(4);
        let mut sched = Schedule::new(4);
        sched.messages.push(MessageSpec {
            sender: 0,
            receivers: vec![1, 2, 3],
            words: 8,
            payload: None,
        });
        sched.procs[0].push(Action::Send { msg: 0 });
        for p in 1..4 {
            sched.procs[p].push(Action::Recv { msg: 0 });
        }
        let cfg = MachineConfig::ipsc860();
        let r = simulate(
            &program,
            &env,
            &grid,
            &sched,
            &cfg,
            &InitialPlacement::Replicated,
            false,
        )
        .unwrap();
        assert_eq!(r.stats.messages, 1);
        assert_eq!(r.stats.transmissions, 3);
        assert_eq!(r.stats.words, 24);
    }

    #[test]
    fn owned_placement_with_overlap_replicates_borders() {
        // Block 2 with one-element high-side overlap on a 2-proc line:
        // element 2 belongs to p1 and (as overlap) to p0.
        let program = parse("param N; array A[N]; for i = 0 to N - 1 { A[i] = A[i]; }").unwrap();
        let env = params(&[("N", 4)]);
        let grid = ProcGrid::line(2);
        let mut owned = HashMap::new();
        owned.insert(
            "A".to_string(),
            dmc_decomp::DataDecomp::from_maps(
                "A",
                1,
                vec![dmc_decomp::DimMap::block(dmc_ir::Aff::var("a0"), 2).with_overlap(0, 1)],
            ),
        );
        // p0 reads A[2] (owned only via overlap): schedule p0 to compute
        // nothing but read — simplest: block over i=2..2 assigned to p0.
        let mut sched = Schedule::new(2);
        sched.procs[0].push(Action::Block {
            stmt: 0,
            prefix: vec![],
            inner_range: Some((2, 2)),
            flops: 0.0,
        });
        let cfg = MachineConfig::ipsc860();
        let r = simulate(
            &program,
            &env,
            &grid,
            &sched,
            &cfg,
            &InitialPlacement::Owned(owned),
            true,
        );
        assert!(r.is_ok(), "{r:?}");
    }

    // ---- the dense local memories ----------------------------------------

    /// A values-mode run of `sched` on a line of as many processors as it
    /// has action lists.
    fn run_values(
        program: &dmc_ir::Program,
        env: &HashMap<String, i128>,
        sched: &Schedule,
        initial: &InitialPlacement,
    ) -> Result<SimResult, SimError> {
        let grid = ProcGrid::line(sched.procs.len() as i128);
        let cfg = MachineConfig::ipsc860();
        simulate(program, env, &grid, sched, &cfg, initial, true)
    }

    fn block(stmt: usize, lo: i128, hi: i128) -> Action {
        Action::Block {
            stmt,
            prefix: vec![],
            inner_range: Some((lo, hi)),
            flops: 0.0,
        }
    }

    /// One message carrying `array[idx]` as written by `writer` at
    /// iteration `iter` (live-in data for `None`).
    fn message_of(
        sender: usize,
        receiver: usize,
        array: &str,
        idx: i128,
        writer: Option<usize>,
        iter: &[i128],
    ) -> MessageSpec {
        MessageSpec {
            sender,
            receivers: vec![receiver],
            words: 1,
            payload: Some(Payload {
                array: array.into(),
                writer,
                width: iter.len() + 1,
                rows: iter.iter().copied().chain([idx]).collect(),
            }),
        }
    }

    /// The text of the `MalformedSchedule` the run is refused with.
    fn refusal(program: &dmc_ir::Program, env: &HashMap<String, i128>, sched: &Schedule) -> String {
        match run_values(program, env, sched, &InitialPlacement::Replicated) {
            Err(SimError::MalformedSchedule(why)) => why,
            other => panic!("expected a malformed-schedule refusal, got {other:?}"),
        }
    }

    const COPY: &str = "param N, M; array A[N]; array B[N];
         for i = 0 to N - 1 { B[i] = A[i + M]; }";

    #[test]
    fn unbound_parameter_is_refused() {
        let program = parse(COPY).unwrap();
        let mut sched = Schedule::new(1);
        sched.procs[0].push(block(0, 0, 2));
        // In an extent: no memory can be laid out.
        let why = refusal(&program, &params(&[("M", 0)]), &sched);
        assert!(why.contains('N'), "{why}");
        // In a subscript of a scheduled statement.
        let why = refusal(&program, &params(&[("N", 3)]), &sched);
        assert!(why.contains("S0") && why.contains('M'), "{why}");
        // The interpreter refuses the same program.
        assert!(dmc_ir::interp::run(&program, &params(&[("N", 3)])).is_err());
    }

    #[test]
    fn block_prefix_must_fit_the_statement() {
        let program = parse(COPY).unwrap();
        let env = params(&[("N", 3), ("M", 0)]);
        for (prefix, inner_range) in [(vec![], None), (vec![1], Some((0, 2))), (vec![1, 2], None)] {
            let mut sched = Schedule::new(1);
            sched.procs[0].push(Action::Block {
                stmt: 0,
                prefix,
                inner_range,
                flops: 0.0,
            });
            let why = refusal(&program, &env, &sched);
            assert!(why.contains("S0"), "{why}");
        }
    }

    #[test]
    fn statement_on_unknown_array_or_rank_is_refused() {
        let env = params(&[("N", 3)]);
        let mut sched = Schedule::new(1);
        sched.procs[0].push(block(0, 0, 2));
        for (rhs, culprit) in [("C[i]", 'C'), ("A[i][i]", 'A')] {
            let text = format!("param N; array A[N]; for i = 0 to N - 1 {{ A[i] = {rhs}; }}");
            let why = refusal(&parse(&text).unwrap(), &env, &sched);
            assert!(why.contains("S0") && why.contains(culprit), "{why}");
        }
    }

    #[test]
    fn payload_item_of_undeclared_array_is_refused() {
        let program = parse(COPY).unwrap();
        let env = params(&[("N", 3), ("M", 0)]);
        let mut sched = Schedule::new(2);
        sched.messages.push(message_of(0, 1, "C", 0, None, &[]));
        // Refused while resolving: no action ever names the message.
        let why = refusal(&program, &env, &sched);
        assert!(why.contains("message 0") && why.contains('C'), "{why}");
    }

    #[test]
    fn payload_item_of_wrong_rank_is_refused() {
        let program = parse(COPY).unwrap();
        let env = params(&[("N", 3), ("M", 0)]);
        let mut sched = Schedule::new(2);
        sched.messages.push(message_of(0, 1, "A", 0, None, &[]));
        // Two subscripts on the one-dimensional A.
        sched.messages.push(message_of(0, 1, "A", 0, None, &[0]));
        let why = refusal(&program, &env, &sched);
        assert!(why.contains("message 1") && why.contains('A'), "{why}");
    }

    /// A payload row's stamp is its writer's template read with the row's
    /// iteration: a writer that is no statement, or rows that do not fit
    /// the writer's depth plus the array's rank, name no write instance
    /// and are refused before any action runs.
    #[test]
    fn payload_stamp_that_fits_no_row_is_refused() {
        // S0 has one loop and A one dimension: rows are two wide.
        let program = parse(COPY).unwrap();
        let env = params(&[("N", 3), ("M", 0)]);
        let mut cases = vec![
            (
                message_of(0, 1, "A", 0, Some(1), &[0]),
                "writer S1 is no statement",
            ),
            (message_of(0, 1, "A", 0, Some(0), &[]), "rows of 1"),
            (message_of(0, 1, "A", 0, Some(0), &[0, 0]), "rows of 3"),
            (message_of(0, 1, "A", 0, None, &[2]), "live-in data"),
        ];
        // Rows that do not tile the table, and a table of width 0.
        let mut ragged = message_of(0, 1, "A", 0, Some(0), &[0]);
        ragged.payload.as_mut().unwrap().rows.push(1);
        cases.push((ragged, "3 values in rows of 2"));
        let mut empty = message_of(0, 1, "A", 0, None, &[]);
        let payload = empty.payload.as_mut().unwrap();
        (payload.width, payload.rows) = (0, Vec::new());
        cases.push((empty, "rows of 0"));
        for (message, want) in cases {
            let mut sched = Schedule::new(2);
            sched.messages.push(message);
            let why = refusal(&program, &env, &sched);
            assert!(why.contains("message 0") && why.contains(want), "{why}");
        }
        // The well-formed row is accepted.
        let mut sched = Schedule::new(2);
        sched.messages.push(message_of(0, 1, "A", 0, Some(0), &[0]));
        assert!(run_values(&program, &env, &sched, &InitialPlacement::Replicated).is_ok());
    }

    #[test]
    fn block_longer_than_a_version_is_refused() {
        let program = parse("param N; array A[N]; for i = 0 to N { A[i] = 1.0; }").unwrap();
        let env = params(&[("N", 4)]);
        let last = i128::from(crate::sim::FIELD_MAX);
        let run = |inner_range| {
            let mut sched = Schedule::new(1);
            sched.procs[0].push(Action::Block {
                stmt: 0,
                prefix: vec![],
                inner_range: Some(inner_range),
                flops: 0.0,
            });
            run_values(&program, &env, &sched, &InitialPlacement::Replicated)
        };
        // One element past what a version counts, or a span that does not
        // fit an `i128`: refused before any element runs.
        for range in [(0, last + 1), (-1, last), (i128::MIN, i128::MAX)] {
            let Err(SimError::MalformedSchedule(why)) = run(range) else {
                panic!("{range:?} was not refused");
            };
            assert!(why.contains("S0") && why.contains("block 0"), "{why}");
        }
        // The longest block runs, and fails at its first write outside A.
        assert!(matches!(
            run((0, last)),
            Err(SimError::OutOfBounds { ref idx, .. }) if idx == &[4]
        ));
        // An empty range has no element to version.
        assert!(run((last + 5, 1)).is_ok());
    }

    #[test]
    fn out_of_extent_write_is_an_error() {
        // i runs one past the end of A.
        let program = parse("param N; array A[N]; for i = 0 to N { A[i] = 1.0; }").unwrap();
        let env = params(&[("N", 4)]);
        let mut sched = Schedule::new(2);
        sched.procs[1].push(block(0, 0, 3));
        sched.procs[1].push(block(0, 2, 5));
        let err = run_values(&program, &env, &sched, &InitialPlacement::Replicated).unwrap_err();
        // The first element outside, not the end of the block.
        let want = SimError::OutOfBounds {
            proc: 1,
            array: "A".into(),
            idx: vec![4],
            stmt: 0,
        };
        assert_eq!(err, want, "{err}");
        assert!(matches!(
            dmc_ir::interp::run(&program, &env),
            Err(dmc_ir::interp::ExecError::OutOfBounds { .. })
        ));
        // The in-extent part alone runs.
        sched.procs[1].pop();
        let mem = run_values(&program, &env, &sched, &InitialPlacement::Replicated)
            .unwrap()
            .memory
            .unwrap();
        assert_eq!(mem.array("A").unwrap().as_slice(), [1.0; 4]);
    }

    #[test]
    fn later_stamp_wins_on_receive_and_at_merge() {
        let program = parse(
            "param N; array A[N]; array B[N];
             for i = 0 to N - 1 { A[i] = 1.0; }
             for j = 0 to N - 1 { A[j] = 2.0; }
             for k = 0 to N - 1 { B[k] = A[k]; }",
        )
        .unwrap();
        let env = params(&[("N", 6)]);
        // A in blocks of two: p0 holds A[0..2], p1 A[2..4], p2 A[4..6].
        let mut owned = HashMap::new();
        owned.insert(
            "A".to_string(),
            dmc_decomp::DataDecomp::block_1d("A", 1, 0, 2),
        );
        let mut sched = Schedule::new(3);
        sched.messages.push(message_of(0, 1, "A", 0, Some(0), &[0]));
        sched.messages.push(message_of(0, 1, "A", 2, Some(0), &[2]));
        // p0 writes the early copies of A[0], A[2], A[5] and forwards two.
        sched.procs[0].extend([block(0, 0, 0), block(0, 2, 2), block(0, 5, 5)]);
        sched.procs[0].extend([Action::Send { msg: 0 }, Action::Send { msg: 1 }]);
        // p1 holds a later A[0] and a live-in A[2] when they arrive.
        sched.procs[1].extend([block(1, 0, 0), block(1, 5, 5)]);
        sched.procs[1].extend([Action::Recv { msg: 0 }, Action::Recv { msg: 1 }]);
        sched.procs[1].extend([block(2, 0, 0), block(2, 2, 2)]);
        let mem = run_values(&program, &env, &sched, &InitialPlacement::Owned(owned))
            .unwrap()
            .memory
            .unwrap();
        let (a, b) = (mem.array("A").unwrap(), mem.array("B").unwrap());
        // Stale on arrival: p1 kept its own later write.
        assert_eq!(b.get(&[0]), Some(2.0));
        // Later than the live-in copy: taken.
        assert_eq!(b.get(&[2]), Some(1.0));
        // Merge. A[0]: p1's write beats p0's, p2 never held one. A[5]: p0
        // early, p1 late, p2 live-in. A[4]: only p2's live-in copy.
        assert_eq!(a.get(&[0]), Some(2.0));
        assert_eq!(a.get(&[5]), Some(2.0));
        assert_eq!(a.get(&[4]), Some(dmc_ir::interp::default_init("A", &[4])));
        assert_eq!(a.get(&[2]), Some(1.0));
    }

    #[test]
    fn missing_value_names_reader_and_sender() {
        let program = parse(COPY).unwrap();
        let env = params(&[("N", 4), ("M", 0)]);
        let mut owned = HashMap::new();
        owned.insert(
            "A".to_string(),
            dmc_decomp::DataDecomp::block_1d("A", 1, 0, 2),
        );
        let initial = InitialPlacement::Owned(owned);
        // p1 holds A[2..4]: reading A[1] fails in the statement…
        let mut sched = Schedule::new(2);
        sched.procs[1].push(block(0, 1, 3));
        let want = SimError::MissingValue {
            proc: 1,
            array: "A".into(),
            idx: vec![1],
            stmt: 0,
        };
        assert_eq!(
            run_values(&program, &env, &sched, &initial).unwrap_err(),
            want
        );
        // …and forwarding it fails in no statement. So does an element
        // that lies outside the array.
        for idx in [1, 9] {
            let mut sched = Schedule::new(2);
            sched.messages.push(message_of(1, 0, "A", idx, None, &[]));
            sched.procs[1].push(Action::Send { msg: 0 });
            sched.procs[0].push(Action::Recv { msg: 0 });
            let want = SimError::MissingValue {
                proc: 1,
                array: "A".into(),
                idx: vec![idx],
                stmt: usize::MAX,
            };
            assert_eq!(
                run_values(&program, &env, &sched, &initial).unwrap_err(),
                want
            );
        }
    }

    /// A payload row far outside a two-dimensional array names no slot:
    /// forwarding it is a `MissingValue`, not an overflowing offset.
    #[test]
    fn payload_row_far_outside_its_array_is_missing() {
        let square = parse("param N; array B[N][N]; for i = 0 to N - 1 { B[i][i] = 1.0; }");
        let env = params(&[("N", 4)]);
        let mut sched = Schedule::new(2);
        sched
            .messages
            .push(message_of(1, 0, "B", i128::MAX, None, &[1]));
        sched.procs[1].push(Action::Send { msg: 0 });
        sched.procs[0].push(Action::Recv { msg: 0 });
        let want = SimError::MissingValue {
            proc: 1,
            array: "B".into(),
            idx: vec![1, i128::MAX],
            stmt: usize::MAX,
        };
        let got = run_values(
            &square.unwrap(),
            &env,
            &sched,
            &InitialPlacement::Replicated,
        );
        assert_eq!(got.unwrap_err(), want);
    }

    #[test]
    fn timing_mode_builds_no_memory() {
        // A layout for 10^12 elements would abort the process.
        let program = parse(COPY).unwrap();
        let env = params(&[("N", 1_000_000_000_000), ("M", 0)]);
        let mut sched = Schedule::new(1);
        sched.procs[0].push(block(0, 0, 999_999_999_999));
        let r = simulate(
            &program,
            &env,
            &ProcGrid::line(1),
            &sched,
            &MachineConfig::ipsc860(),
            &InitialPlacement::Replicated,
            false,
        );
        assert!(r.unwrap().memory.is_none());
    }
}
