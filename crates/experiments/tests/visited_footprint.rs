//! Heap footprint of the checker's visited store.
//!
//! A certification's memory is almost all [`Visited`]: every expanded
//! state's fingerprint with the sleep sets it was expanded under. Each
//! stored entry is packed into four bytes, each sleep set carries one
//! length word, and each bucket is sized exactly. The gate below builds a
//! table from a fixed synthetic stream under a counting allocator and
//! bounds the live heap bytes per stored entry, hash table included. Like
//! the serve allocation budget (`crates/serve/tests/alloc_budget.rs`), it
//! is a deterministic counter: unlike peak RSS, it does not vary with the
//! host or the allocator's page behaviour.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kset_experiments::campaign::store::CampaignStore;
use kset_experiments::checker::{SleepEntry, Visited};
use kset_sim::EventId;

/// Tracks the live heap bytes the current thread has requested.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: i64) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|c| c.set(c.get() + sign * bytes as i64));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Fingerprints in the synthetic stream.
const FINGERPRINTS: u64 = 40_000;

/// Live heap bytes per stored sleep entry the packed layout may use. The
/// stream below measures 11.17 bytes per entry: 4 for the entry itself,
/// 1.17 for its share of the sets' length words and 6.0 for its share of
/// the hash table's 24-byte slots. The bound leaves ~10% headroom. The
/// unpacked layout it replaced (16-byte entries in doubling `Vec`s,
/// 32-byte hash slots) measured 36.05 on this stream.
const MAX_BYTES_PER_ENTRY: f64 = 12.3;

/// SplitMix64 step: the stream must be the same on every host.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per fingerprint, one to three sleep sets of up to six entries. The
/// sets of one fingerprint draw their ids from disjoint ranges, so none
/// covers another and every entry stays stored; a fingerprint with a
/// single set may have the empty set.
fn stream() -> Vec<(u64, Vec<SleepEntry>)> {
    let mut rng = 7;
    let mut out = Vec::new();
    for _ in 0..FINGERPRINTS {
        let fingerprint = next(&mut rng);
        let sets = 1 + next(&mut rng) % 3;
        for set in 0..sets {
            let len = if sets == 1 {
                next(&mut rng) % 7
            } else {
                1 + next(&mut rng) % 6
            };
            let sleep = (0..len)
                .map(|i| SleepEntry {
                    id: EventId::from_u64(set * 8 + i),
                    target: (next(&mut rng) % 4) as usize,
                })
                .collect();
            out.push((fingerprint, sleep));
        }
    }
    out
}

#[test]
fn visited_bytes_per_entry_stay_packed() {
    let stream = stream();
    let entries: usize = stream.iter().map(|(_, sleep)| sleep.len()).sum();

    let before = live_bytes();
    let mut visited = Visited::default();
    for (fingerprint, sleep) in &stream {
        assert!(!visited.covers(*fingerprint, sleep));
        visited.insert(*fingerprint, sleep);
    }
    let bytes = live_bytes() - before;

    assert_eq!(visited.inserted(), stream.len());
    assert_eq!(CampaignStore::entries(&visited), stream.len() as u64);
    let per_entry = bytes as f64 / entries as f64;
    println!(
        "visited footprint: {bytes} live bytes for {} sets, {entries} entries: {per_entry:.2} B/entry",
        stream.len()
    );
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "{per_entry:.2} live bytes per stored entry exceeds the packed bound {MAX_BYTES_PER_ENTRY}"
    );
}
