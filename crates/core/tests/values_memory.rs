//! A values-mode request's heap is its tables, one allocation per table
//! and not per row: a counting global allocator measures the peak of live
//! heap bytes inside each phase on LU and on a P = 16 block stencil, each
//! against a ceiling built from its tables' row sizes.
//!
//! - `build_schedule`: the schedule it returns (actions, block prefixes,
//!   messages, payload rows) and at most as much again, plus a fixed
//!   allowance for the polyhedral scans.
//! - `simulate`: the local memories at 16 bytes a slot plus the tables it
//!   resolves on entry.
//! - `critpath::analyze`: one event per action and per transmission, with
//!   its predecessors inline and the event list reserved exactly.
//!
//! It also reports how much of the schedule the payloads hold.
//!
//! The allocator counts every thread, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use dmc_core::{build_schedule, compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_machine::critpath::{self, Event};
use dmc_machine::{
    simulate, Action, InitialPlacement, MachineConfig, MessageSpec, MsgBlame, Payload, Schedule,
};

/// `System`, counting the bytes live now and the most ever live since the
/// last [`reset_peak`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; the counters are
// statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` or `realloc` above, that is from
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`, and the caller's `new_size` contract is
        // `System.realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Figure 11's LU kernel with the paper's cyclic decomposition.
fn lu_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
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
    .expect("LU parses");
    CompileInput {
        program,
        comps: BTreeMap::from([
            (0, CompDecomp::cyclic_1d(0, "i2")),
            (1, CompDecomp::cyclic_1d(1, "i2")),
        ]),
        initial: HashMap::from([("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0))]),
        grid: ProcGrid::line(nproc),
    }
}

/// The 3-point relaxation stencil in blocks of `block` iterations.
fn stencil_input(block: i128, nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
        "param T, N; array X[N + 1];
         for t = 0 to T {
           for i = 1 to N - 1 {
             X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]);
           }
         }",
    )
    .expect("stencil parses");
    CompileInput {
        program,
        comps: BTreeMap::from([(0, CompDecomp::block_1d(0, "i", block))]),
        initial: HashMap::new(),
        grid: ProcGrid::line(nproc),
    }
}

/// Bytes a local memory keeps per slot: the value and its version.
const SLOT_BYTES: usize = 8 + 8;

const LIMIT: usize = 50_000_000;

/// The bytes of a schedule's tables, row by row: each action list and
/// action, each block's prefix, each message with its receivers and, in
/// values mode, its payload's name and rows.
fn table_bytes(schedule: &Schedule) -> usize {
    let actions: usize = schedule.procs.iter().map(Vec::len).sum();
    let prefixes: usize = (schedule.procs.iter().flatten())
        .map(|a| match a {
            Action::Block { prefix, .. } => prefix.len(),
            _ => 0,
        })
        .sum();
    let messages = schedule.messages.iter().map(|m| {
        let payload = m.payload.as_ref();
        size_of::<MessageSpec>()
            + m.receivers.len() * size_of::<usize>()
            + payload.map_or(0, |p| p.array.len() + p.rows.len() * size_of::<i128>())
    });
    schedule.procs.len() * size_of::<Vec<Action>>()
        + actions * size_of::<Action>()
        + prefixes * size_of::<i128>()
        + messages.sum::<usize>()
}

/// The bytes of an analysis's DAG, row by row: one [`Event`] per action
/// and per transmission, its latest finish and a chain entry, and per
/// message its attribution and the indices of its events.
fn dag_bytes(schedule: &Schedule) -> usize {
    let actions: usize = schedule.procs.iter().map(Vec::len).sum();
    let transmissions: usize = schedule.messages.iter().map(|m| m.receivers.len()).sum();
    let events = actions + transmissions;
    events * (size_of::<Event>() + size_of::<u64>() + size_of::<u32>())
        + schedule.messages.len() * size_of::<MsgBlame>()
        + (schedule.messages.len() + 2 * transmissions) * size_of::<u32>()
}

/// What one values-mode request holds at its peak in each phase.
struct Phases {
    /// Peak live heap inside `build_schedule`, `simulate` and
    /// `critpath::analyze`.
    build: usize,
    simulate: usize,
    analyze: usize,
    /// The ceilings for them.
    build_ceiling: usize,
    simulate_ceiling: usize,
    analyze_ceiling: usize,
    at: String,
}

/// Plans, simulates and analyses `input` in values mode at `param_vals`;
/// its arrays hold `slots` elements.
fn measure(name: &str, input: CompileInput, param_vals: &[i128], slots: usize) -> Phases {
    let nproc = input.grid.len() as usize;
    let compiled = compile(input, Options::full()).expect("compiles");
    // A first plan warms the thread's polyhedral memo caches, whose growth
    // is not the planner's tables.
    drop(build_schedule(&compiled, param_vals, true, LIMIT).expect("schedules"));
    let before = reset_peak();
    let mut schedule = build_schedule(&compiled, param_vals, true, LIMIT).expect("schedules");
    let build = PEAK.load(Ordering::Relaxed) - before;
    let tables = table_bytes(&schedule);
    let actions: usize = schedule.procs.iter().map(Vec::len).sum();

    let program = &compiled.input.program;
    let params: HashMap<String, i128> = program
        .params
        .iter()
        .cloned()
        .zip(param_vals.iter().copied())
        .collect();
    let placement = if compiled.input.initial.is_empty() {
        InitialPlacement::Replicated
    } else {
        InitialPlacement::Owned(compiled.input.initial.clone())
    };
    let config = MachineConfig::ipsc860();
    let before = reset_peak();
    let result = simulate(
        program,
        &params,
        &compiled.input.grid,
        &schedule,
        &config,
        &placement,
        true,
    )
    .expect("simulates");
    let simulate_peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(result.memory.is_some());
    drop(result);

    let before = reset_peak();
    let analysis = critpath::analyze(&schedule, &config).expect("analyses");
    let analyze = PEAK.load(Ordering::Relaxed) - before;
    let events = analysis.events.len();
    drop(analysis);

    // What values mode resolves and keeps beside the local memories: the
    // global memory, per payload item a slot and a gathered value, per
    // message its tables, per block its number, per transmission a mailbox
    // entry and a fixed allowance for the lowered statements, the layout
    // and the scratch.
    let messages = schedule.messages.len();
    let items: usize = schedule
        .messages
        .iter()
        .map(|m| m.payload.as_ref().map_or(0, Payload::len))
        .sum();
    let transmissions: usize = schedule.messages.iter().map(|m| m.receivers.len()).sum();
    let blocks = schedule
        .procs
        .iter()
        .flatten()
        .filter(|a| matches!(a, Action::Block { .. }))
        .count();
    let simulate_ceiling = nproc * slots * SLOT_BYTES
        + slots * 8
        + items * 16
        + messages * 64
        + blocks * 8
        + transmissions * 64
        + (64 << 10);
    // The planner: the schedule it returns and, beside it, at most as much
    // again — the folds' chunk records and payload rows, the compute-block
    // runs enumerated after the legality loop, one processor's action list
    // reserved for a cut per receive — plus a fixed allowance for the
    // polyhedral scans and the fold's per-block buffers, which do not
    // grow with the tables.
    let build_ceiling = 2 * tables + (256 << 10);
    // The analysis: the schedule's DAG rows, and a fixed allowance for the
    // per-processor and per-link tables.
    let analyze_ceiling = dag_bytes(&schedule) + (64 << 10);

    // The heap the schedule's payloads hold: one table per message.
    let held = LIVE.load(Ordering::Relaxed);
    for m in &mut schedule.messages {
        m.payload = None;
    }
    let payload_bytes = held - LIVE.load(Ordering::Relaxed);
    drop(schedule);
    let schedule_bytes = held - LIVE.load(Ordering::Relaxed);

    let kb = |b: usize| b as f64 / 1024.0;
    let at = format!(
        "{name}: peak in build_schedule {:.1} KiB (ceiling {:.1}), in simulate {:.1} KiB \
         (ceiling {:.1}, local memories {:.1}), in critpath::analyze {:.1} KiB \
         (ceiling {:.1}, {events} events); schedule {:.1} KiB (tables {:.1}), of which \
         payloads {:.1} KiB ({items} items, {messages} messages, {blocks} blocks)",
        kb(build),
        kb(build_ceiling),
        kb(simulate_peak),
        kb(simulate_ceiling),
        kb(nproc * slots * SLOT_BYTES),
        kb(analyze),
        kb(analyze_ceiling),
        kb(schedule_bytes),
        kb(tables),
        kb(payload_bytes),
    );
    println!("{at}");
    assert!(items > 0 && blocks > 0, "{at}");
    assert_eq!(
        events,
        actions + transmissions,
        "{at}: one event per action and transmission"
    );
    Phases {
        build,
        simulate: simulate_peak,
        analyze,
        build_ceiling,
        simulate_ceiling,
        analyze_ceiling,
        at,
    }
}

#[test]
fn values_heap_is_sixteen_bytes_a_slot_plus_its_tables() {
    let runs = [
        measure("LU N = 48, P = 4", lu_input(4), &[48], 49 * 49),
        measure(
            "stencil B = 64, P = 16, T = 8, N = 1023",
            stencil_input(64, 16),
            &[8, 1023],
            1024,
        ),
    ];
    for run in runs {
        let at = &run.at;
        assert!(
            run.build <= run.build_ceiling,
            "{at}: build_schedule over its ceiling"
        );
        assert!(
            run.simulate <= run.simulate_ceiling,
            "{at}: simulate over its ceiling"
        );
        assert!(
            run.analyze <= run.analyze_ceiling,
            "{at}: analyze over its ceiling"
        );
    }
}
