//! Values mode's heap is its local memories at 16 bytes a slot plus the
//! tables it resolves on entry: a counting global allocator measures the
//! peak of live heap bytes inside `simulate` (values mode) on LU and on a
//! P = 16 block stencil against a ceiling built from those sizes. It also
//! reports how much of the schedule simulated the payload items hold.
//!
//! The allocator counts every thread, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use dmc_core::{build_schedule, compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_machine::{simulate, Action, InitialPlacement, MachineConfig};

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

/// Runs `input` in values mode at `param_vals`; its arrays hold `slots`
/// elements. Returns the peak of live heap bytes inside `simulate`, the
/// ceiling for it, and a description of the run.
fn measure(
    name: &str,
    input: CompileInput,
    param_vals: &[i128],
    slots: usize,
) -> (usize, usize, String) {
    let nproc = input.grid.len() as usize;
    let compiled = compile(input, Options::full()).expect("compiles");
    let mut schedule = build_schedule(&compiled, param_vals, true, 50_000_000).expect("schedules");

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
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(result.memory.is_some());
    drop(result);

    // What values mode resolves and keeps beside the local memories: the
    // global memory, per payload item a slot and a gathered value, per
    // message its tables, per block its number, per transmission a mailbox
    // entry, the traffic matrices and a fixed allowance for the lowered
    // statements, the layout and the scratch.
    let messages = schedule.messages.len();
    let items: usize = schedule
        .messages
        .iter()
        .map(|m| m.payload.as_ref().map_or(0, Vec::len))
        .sum();
    let transmissions: usize = schedule.messages.iter().map(|m| m.receivers.len()).sum();
    let blocks = schedule
        .procs
        .iter()
        .flatten()
        .filter(|a| matches!(a, Action::Block { .. }))
        .count();
    let ceiling = nproc * slots * SLOT_BYTES
        + slots * 8
        + items * 16
        + messages * 64
        + blocks * 8
        + transmissions * 64
        + nproc * nproc * 16
        + (64 << 10);

    // The heap the schedule's payload items hold: each one `String`, one
    // subscript `Vec` and one stamp `Vec`, in the message's item `Vec`.
    let held = LIVE.load(Ordering::Relaxed);
    for m in &mut schedule.messages {
        m.payload = None;
    }
    let payload_bytes = held - LIVE.load(Ordering::Relaxed);
    drop(schedule);
    let schedule_bytes = held - LIVE.load(Ordering::Relaxed);

    let kb = |b: usize| b as f64 / 1024.0;
    let at = format!(
        "{name}: peak in simulate {:.1} KiB (ceiling {:.1} KiB, local memories {:.1} KiB); \
         schedule {:.1} KiB, of which payload items {:.1} KiB ({items} items, \
         {messages} messages, {blocks} blocks)",
        kb(peak),
        kb(ceiling),
        kb(nproc * slots * SLOT_BYTES),
        kb(schedule_bytes),
        kb(payload_bytes),
    );
    println!("{at}");
    assert!(items > 0 && blocks > 0, "{at}");
    (peak, ceiling, at)
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
    for (peak, ceiling, at) in runs {
        assert!(peak <= ceiling, "{at}: over the ceiling");
    }
}
