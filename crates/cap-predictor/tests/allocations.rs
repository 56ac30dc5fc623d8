//! Heap allocations inside `Session::run`.
//!
//! The Load Buffer and Link Table are flat arrays allocated when the
//! predictor is built, and every LB entry keeps its histories inline.
//! So once a predictor exists, replaying a trace through it allocates
//! nothing at immediate update, and only the gap pipe at a prediction
//! gap, with or without wrong-path pollution. A per-set vector or a heap
//! history would allocate on the first touch of a set or on every LB
//! fill; this test counts allocations with a counting global allocator
//! to keep that from coming back.
//!
//! It is its own test binary so the counting allocator serves only it,
//! and it counts per thread, so sibling tests cannot disturb a count.

use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::AddressPredictor;
use cap_trace::suites::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation per thread.
struct Counting;

fn count() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One configuration: its name, the session gap, its wrong-path
/// percent, the allocations `Session::run` may make, and a constructor.
type Case = (
    &'static str,
    usize,
    u32,
    u64,
    fn() -> Box<dyn AddressPredictor>,
);

#[test]
fn session_run_allocates_only_the_gap_pipe() {
    let cases: [Case; 6] = [
        ("stride", 0, 0, 0, || {
            Box::new(StridePredictor::new(
                LoadBufferConfig::paper_default(),
                StrideParams::paper_default(),
            ))
        }),
        ("cap", 0, 0, 0, || {
            Box::new(CapPredictor::new(CapConfig::paper_default()))
        }),
        ("hybrid", 0, 0, 0, || {
            Box::new(HybridPredictor::new(HybridConfig::paper_default()))
        }),
        ("hybrid_pipelined", 8, 0, 1, || {
            Box::new(HybridPredictor::new(HybridConfig::paper_pipelined()))
        }),
        ("hybrid_wrong_path", 0, 10, 0, || {
            Box::new(HybridPredictor::new(HybridConfig::paper_default()))
        }),
        ("hybrid_pipelined_wrong_path", 4, 10, 1, || {
            Box::new(HybridPredictor::new(HybridConfig::paper_pipelined()))
        }),
    ];
    let spec = &catalog()[0];
    let mut wrong = Vec::new();
    for loads in [10_000, 20_000] {
        let trace = spec.generate(loads);
        for (name, gap, wrong_path, expected, build) in &cases {
            let mut p = build();
            let got = allocations_in(|| {
                let stats = Session::new(p.as_mut())
                    .gap(*gap)
                    .wrong_path(*wrong_path)
                    .run(&trace);
                assert_eq!(stats.loads as usize, trace.load_count());
            });
            if got != *expected {
                wrong.push(format!(
                    "{name} at gap {gap}, {wrong_path}% wrong path, over {} ({loads} loads): \
                     {got} allocations, want {expected}",
                    spec.name
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
