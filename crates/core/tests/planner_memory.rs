//! The planner's heap is O(chunks), not O(elements), for sets with send
//! iterations: a counting global allocator measures the peak of live heap
//! bytes inside `build_schedule` (LU, timing mode) against fixed ceilings
//! and against the heap the returned `Schedule` keeps. Sets without send
//! iterations are held whole; location-centric LU records what that costs.
//!
//! The allocator counts every thread, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use dmc_core::{build_schedule, compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};

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

const MB: usize = 1 << 20;

/// `(N, P, ceiling)`: the element table the fold replaced peaked at 32.0
/// and 126.5 MB here.
const SIZES: [(i128, i128, usize); 2] = [(96, 16, 8 * MB), (192, 16, 24 * MB)];

/// Plans LU at `(n, p)` in timing mode. Returns the peak of live heap
/// bytes inside `build_schedule` and the heap the returned schedule keeps,
/// both in bytes, and a description of the run.
fn measure(options: Options, n: i128, p: i128) -> (usize, usize, String) {
    let compiled = compile(lu_input(p), options).expect("compiles");
    let before = reset_peak();
    let schedule = build_schedule(&compiled, &[n], false, 50_000_000).expect("schedules");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let held = LIVE.load(Ordering::Relaxed);
    let messages = schedule.messages.len();
    drop(schedule);
    let kept = held - LIVE.load(Ordering::Relaxed);
    let at = format!(
        "N = {n}, P = {p}: peak {:.1} MB, schedule {:.1} MB, {messages} messages",
        peak as f64 / MB as f64,
        kept as f64 / MB as f64
    );
    println!("{at}");
    assert!(messages > 0, "{at}");
    (peak, kept, at)
}

#[test]
fn planner_heap_is_bounded_by_its_chunks() {
    for (n, p, ceiling) in SIZES {
        let (peak, kept, at) = measure(Options::full(), n, p);
        assert!(
            peak <= ceiling,
            "{at}: over the {} MB ceiling",
            ceiling / MB
        );
        assert!(peak <= 4 * kept, "{at}: over four times the schedule");
    }
    // The bound stops at sets without a send iteration: each is one block,
    // held whole while it is folded. Location-centric LU has only such
    // sets, so its planner heap still grows with the elements: the fold
    // peaks at 34.2 MB here, and the ceiling is that plus about 15 %.
    let (peak, _, at) = measure(Options::location_centric(), 96, 16);
    assert!(peak <= 40 * MB, "{at}: over the 40 MB ceiling");
}
