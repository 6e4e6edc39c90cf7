//! Oracle tests for the checker's packed visited store.
//!
//! [`Visited`] and the campaign [`Shard`] keep each fingerprint's minimal
//! antichain of sleep sets in one packed bucket (a 24-bit event id and an
//! 8-bit target per `u32`). Every `covers` answer the checker prunes on
//! must equal the plain subset rule over unpacked entries, so this suite
//! replays random insertion streams into four stores and compares them
//! query by query:
//!
//! * a naive reference: per fingerprint a `Vec<Vec<SleepEntry>>`, covers
//!   = some stored set is a subset (by event id) of the query, insert =
//!   drop stored supersets, then append;
//! * [`Visited`] filled by `insert` (guarded by `covers`, as the checker
//!   does);
//! * [`Visited`] built by `merge_move` of the same stream split into task
//!   tables, absorbed in a random order;
//! * [`Shard`] filled by `absorb`.
//!
//! It also pins the packed range guard and the shard's on-disk bytes,
//! which must not depend on the in-memory packing.
//!
//! Runs on the in-tree `kset-prop` harness; a failure prints a
//! `KSET_PROP_SEED` replay line (see `ARCHITECTURE.md`).

use std::collections::BTreeMap;
use std::fs;

use kset_prop::{in_range, prop_assert_eq, vec_in, Runner};

use kset_experiments::campaign::shard::Shard;
use kset_experiments::campaign::store::{fnv1a, CampaignStore};
use kset_experiments::checker::{SleepEntry, Visited};
use kset_sim::EventId;

fn entry(id: u64, target: usize) -> SleepEntry {
    SleepEntry {
        id: EventId::from_u64(id),
        target,
    }
}

/// `a ⊆ b` by event id: the subset rule the checker defines.
fn subset(a: &[SleepEntry], b: &[SleepEntry]) -> bool {
    a.iter().all(|x| b.iter().any(|y| y.id == x.id))
}

/// The naive reference store.
#[derive(Default)]
struct Reference {
    buckets: BTreeMap<u64, Vec<Vec<SleepEntry>>>,
    inserted: usize,
}

impl Reference {
    fn covers(&self, fp: u64, sleep: &[SleepEntry]) -> bool {
        self.buckets
            .get(&fp)
            .is_some_and(|sets| sets.iter().any(|s| subset(s, sleep)))
    }

    /// Covers-guarded insert; returns whether the set was new.
    fn absorb(&mut self, fp: u64, sleep: &[SleepEntry]) -> bool {
        if self.covers(fp, sleep) {
            return false;
        }
        let sets = self.buckets.entry(fp).or_default();
        sets.retain(|s| !subset(sleep, s));
        sets.push(sleep.to_vec());
        self.inserted += 1;
        true
    }

    fn live(&self) -> u64 {
        self.buckets.values().map(|sets| sets.len() as u64).sum()
    }
}

/// One stream element as drawn: a fingerprint from a small set and a
/// sleep set over small id and target ranges, so sets collide, nest and
/// supersede each other often.
type Raw = (u64, Vec<(u64, usize)>);

fn sleep_of(raw: &[(u64, usize)]) -> Vec<SleepEntry> {
    raw.iter().map(|&(id, target)| entry(id, target)).collect()
}

/// Every query the comparison asks: the stream's own sets, their
/// one-smaller subsets, and a few fixed probes, on every fingerprint
/// (including one never inserted).
fn queries(stream: &[(u64, Vec<SleepEntry>)]) -> Vec<(u64, Vec<SleepEntry>)> {
    let mut out = Vec::new();
    for fp in 0..5u64 {
        out.push((fp, Vec::new()));
        out.push((fp, (0..6).map(|id| entry(id, 0)).collect()));
        for (_, sleep) in stream {
            out.push((fp, sleep.clone()));
            for skip in 0..sleep.len() {
                let mut smaller = sleep.clone();
                smaller.remove(skip);
                out.push((fp, smaller));
            }
        }
    }
    out
}

#[test]
fn packed_stores_agree_with_the_naive_subset_rule() {
    let set = vec_in((in_range(0u64..6), in_range(0usize..3)), 0..5);
    Runner::new("packed_stores_agree_with_the_naive_subset_rule")
        .cases(192)
        .run(
            (
                vec_in((in_range(0u64..4), set), 0..40),
                in_range(1usize..5),
                in_range(0u64..1 << 16),
            ),
            |(raw, chunks, order_seed): (Vec<Raw>, usize, u64)| {
                let stream: Vec<(u64, Vec<SleepEntry>)> =
                    raw.iter().map(|(fp, s)| (*fp, sleep_of(s))).collect();

                // Sequential stores, fed in stream order.
                let mut reference = Reference::default();
                let mut inserted = Visited::default();
                let mut shard = Shard::new();
                for (fp, sleep) in &stream {
                    let new = reference.absorb(*fp, sleep);
                    prop_assert_eq!(inserted.covers(*fp, sleep), !new);
                    if new {
                        inserted.insert(*fp, sleep);
                    }
                    prop_assert_eq!(shard.absorb(*fp, sleep), new);
                }

                // Task tables absorbed in a random order, and a reference
                // that merges the same tables in the same order.
                let len = stream.len().div_ceil(chunks).max(1);
                let tables: Vec<&[(u64, Vec<SleepEntry>)]> = stream.chunks(len).collect();
                let mut order: Vec<usize> = (0..tables.len()).collect();
                let mut seed = order_seed;
                for i in (1..order.len()).rev() {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    order.swap(i, (seed >> 33) as usize % (i + 1));
                }
                let mut merged = Visited::default();
                let mut merged_by_ref = Visited::default();
                let mut merged_reference = Reference::default();
                for &t in &order {
                    let mut task = Visited::default();
                    let mut task_reference = Reference::default();
                    for (fp, sleep) in tables[t] {
                        if task_reference.absorb(*fp, sleep) {
                            task.insert(*fp, sleep);
                        }
                    }
                    for (fp, sets) in &task_reference.buckets {
                        for sleep in sets {
                            merged_reference.absorb(*fp, sleep);
                        }
                    }
                    merged_by_ref.merge_from(&task);
                    merged.merge_move(task);
                }

                for (fp, sleep) in queries(&stream) {
                    let want = reference.covers(fp, &sleep);
                    prop_assert_eq!(merged_reference.covers(fp, &sleep), want);
                    prop_assert_eq!(
                        inserted.covers(fp, &sleep),
                        want,
                        "insert fp={fp} {sleep:?}"
                    );
                    prop_assert_eq!(
                        merged.covers(fp, &sleep),
                        want,
                        "merge_move fp={fp} {sleep:?}"
                    );
                    prop_assert_eq!(merged_by_ref.covers(fp, &sleep), want, "merge_from");
                    prop_assert_eq!(shard.covers(fp, &sleep), want, "shard fp={fp} {sleep:?}");
                }
                prop_assert_eq!(inserted.inserted(), reference.inserted);
                prop_assert_eq!(merged.inserted(), merged_reference.inserted);
                prop_assert_eq!(merged_by_ref.inserted(), merged_reference.inserted);
                let live = reference.live();
                prop_assert_eq!(merged_reference.live(), live);
                prop_assert_eq!(CampaignStore::entries(&inserted), live);
                prop_assert_eq!(CampaignStore::entries(&merged), live);
                prop_assert_eq!(CampaignStore::entries(&merged_by_ref), live);
                prop_assert_eq!(shard.live_entries(), live);
                Ok(())
            },
        );
}

/// The largest id and target the packed layout holds are stored and
/// compared exactly, next to small ones they must not alias.
#[test]
fn packed_range_edges_are_exact() {
    let top = (1u64 << 24) - 1;
    let mut visited = Visited::default();
    visited.insert(1, &[entry(top, 255)]);
    assert!(visited.covers(1, &[entry(top, 0)]));
    assert!(!visited.covers(1, &[entry(top - 1, 255)]));
    assert!(!visited.covers(1, &[entry(1 << 24, 255)]));
    assert!(!visited.covers(1, &[entry(top & 0xff, 255)]));
}

#[test]
#[should_panic(expected = "does not fit the visited store's packed layout")]
fn an_id_of_two_to_the_24_is_refused() {
    Visited::default().insert(1, &[entry(1 << 24, 0)]);
}

#[test]
#[should_panic(expected = "does not fit the visited store's packed layout")]
fn a_target_of_256_is_refused() {
    Visited::default().insert(1, &[entry(1, 256)]);
}

#[test]
#[should_panic(expected = "does not fit the visited store's packed layout")]
fn a_shard_refuses_an_unpackable_entry() {
    Shard::new().absorb(1, &[entry(1 << 24, 0)]);
}

/// The shard's log and compaction bytes are the format the unpacked
/// store wrote: the digests below were taken from that store on the same
/// absorb sequence, so a change in the packing cannot leak into the
/// on-disk format.
#[test]
fn shard_log_bytes_are_unchanged_by_the_packing() {
    let dir = std::env::temp_dir().join(format!("kset_visited_bytes_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let (log, compacted) = (dir.join("shard.log"), dir.join("compacted.log"));
    fs::write(&log, []).unwrap();

    let top = (1u64 << 24) - 1;
    let mut shard = Shard::new();
    for fp in 0..64u64 {
        let key = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let id = fp * 3;
        // A superset first, then the subset that supersedes it: the log
        // keeps both, the compacted log only the subset.
        shard.absorb(
            key,
            &[
                entry(id, (fp % 4) as usize),
                entry(id + 1, 255),
                entry(top, 7),
            ],
        );
        shard.absorb(key, &[entry(id, 1), entry(top, 0)]);
        shard.absorb(key, &[entry(id + 2, 2)]);
        if fp % 8 == 0 {
            shard.absorb(key, &[]);
        }
    }
    shard.flush_to(&log).unwrap();
    let appended = fs::read(&log).unwrap();
    shard.rewrite_to(&compacted).unwrap();
    let rewritten = fs::read(&compacted).unwrap();
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(
        (appended.len(), fnv1a(&appended)),
        (APPENDED_LEN, APPENDED_FNV),
        "appended log bytes"
    );
    assert_eq!(
        (rewritten.len(), fnv1a(&rewritten)),
        (REWRITTEN_LEN, REWRITTEN_FNV),
        "compacted log bytes"
    );
}

const APPENDED_LEN: usize = 9344;
const APPENDED_FNV: u64 = 0x0ea6_0a31_6a5d_972b;
const REWRITTEN_LEN: usize = 4608;
const REWRITTEN_FNV: u64 = 0xcfbe_0556_6b1e_5096;
