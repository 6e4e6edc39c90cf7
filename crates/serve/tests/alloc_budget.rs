//! Allocation budget of a reused instance.
//!
//! A worker re-seats each decided instance on the next proposal
//! (`Instance::restart`) instead of building a new session. In the steady
//! state one instance then allocates exactly its `n` boxed processes, its
//! boxed scheduler and the one node of the record's decision map: at most
//! `n + 2` allocations from restart to decision. The counter below is a
//! deterministic gate: unlike wall time, it does not vary with the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use kset_serve::{Instance, Propose, ServeConfig, Workload};

/// Counts the allocations (fresh and growing) of the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn propose(id: u64, n: usize) -> Propose {
    Propose {
        id,
        inputs: (0..n as u64).map(|p| (id.wrapping_mul(31) + p * 7) % 97).collect(),
        submitted: Instant::now(),
    }
}

/// Steps `instance` to its decision in waves of the default batch.
fn run_to_decision(instance: &mut Instance, batch: u32) {
    while !instance.step_wave(batch).expect("step") {}
}

/// The most allocations any one of `measured` reused instances made, after
/// `warm` reused instances let the session's buffers reach their size.
fn max_allocs_per_instance(n: usize, t: usize, warm: u64, measured: u64) -> u64 {
    let workload = Workload::flood_min(n, t);
    let batch = ServeConfig::new(workload).batch;
    let mut instance = Instance::new(propose(0, n), &workload).expect("build");
    run_to_decision(&mut instance, batch);
    drop(instance.take_decision());
    for id in 1..=warm {
        instance.restart(propose(id, n), &workload).expect("restart");
        run_to_decision(&mut instance, batch);
        drop(instance.take_decision());
    }
    let mut worst = 0;
    for id in warm + 1..=warm + measured {
        // The proposal's inputs come from the submitter, outside the budget.
        let next = propose(id, n);
        let before = allocs();
        instance.restart(next, &workload).expect("restart");
        run_to_decision(&mut instance, batch);
        let decision = instance.take_decision();
        let spent = allocs() - before;
        assert!(decision.record.terminated(), "instance {id} did not terminate");
        assert_eq!(decision.record.decisions().len(), n);
        worst = worst.max(spent);
        drop(decision);
    }
    worst
}

#[test]
fn floodmin_3_1_stays_within_n_plus_2() {
    let worst = max_allocs_per_instance(3, 1, 200, 1000);
    assert!(worst <= 3 + 2, "{worst} allocations per FloodMin(3,1) instance");
}

#[test]
fn floodmin_8_3_stays_within_n_plus_2() {
    let worst = max_allocs_per_instance(8, 3, 200, 1000);
    assert!(worst <= 8 + 2, "{worst} allocations per FloodMin(8,3) instance");
}
