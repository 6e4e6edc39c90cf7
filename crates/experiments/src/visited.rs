//! The checker's visited store: state fingerprints, each with the minimal
//! antichain of sleep sets it was expanded under.
//!
//! Almost all of a certification's memory is this store, so its bucket is
//! packed: [`Antichain`] keeps every stored sleep set as one length word
//! followed by its entries, each entry one `u32` (a 24-bit event id and an
//! 8-bit target), in a boxed slice sized exactly. The same bucket type
//! backs the in-memory [`Visited`] table and the campaign layer's
//! disk-backed shards ([`crate::campaign::shard`]), so both share one
//! subset rule.
//!
//! The subset rule compares event ids only — exactly the
//! [`SleepEntry`] semantics the checker defines — so the target byte is
//! carried for the campaign log and never compared. Packing an id of
//! 2^24 or more, or a target of 256 or more, panics instead of
//! truncating: a truncated id could alias another entry and prune a state
//! that was never explored. Event ids restart every run and the checker's
//! `n` is tiny, so no certified cell comes near either limit.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use kset_sim::EventId;

use crate::checker::SleepEntry;

/// Low bits of a packed entry that hold the event id; the high 8 bits
/// hold the target.
const ID_BITS: u32 = 24;
const ID_MASK: u32 = (1 << ID_BITS) - 1;

/// An entry the subset rule can read: a caller's [`SleepEntry`] or a
/// packed stored `u32`.
pub(crate) trait SleepKey: Copy {
    /// The event id, the only field the subset rule compares.
    fn id(self) -> u64;
    /// The packed form (panics outside the packed range).
    fn packed(self) -> u32;
}

impl SleepKey for SleepEntry {
    fn id(self) -> u64 {
        self.id.as_u64()
    }

    fn packed(self) -> u32 {
        pack(self).unwrap_or_else(|| {
            panic!(
                "sleep entry (id {}, target {}) does not fit the visited store's packed \
                 layout: ids must be below 2^24 and targets below 256",
                self.id.as_u64(),
                self.target
            )
        })
    }
}

impl SleepKey for u32 {
    fn id(self) -> u64 {
        u64::from(self & ID_MASK)
    }

    fn packed(self) -> u32 {
        self
    }
}

/// The packed form of `entry`, or `None` if its id or target is out of
/// the packed range.
pub(crate) fn pack(entry: SleepEntry) -> Option<u32> {
    let id = u32::try_from(entry.id.as_u64())
        .ok()
        .filter(|&id| id <= ID_MASK)?;
    let target = u32::try_from(entry.target)
        .ok()
        .filter(|&target| target < 1 << (32 - ID_BITS))?;
    Some(target << ID_BITS | id)
}

/// The inverse of [`pack`].
pub(crate) fn unpack(packed: u32) -> SleepEntry {
    SleepEntry {
        id: EventId::from_u64(packed.id()),
        target: (packed >> ID_BITS) as usize,
    }
}

/// `a ⊆ b` by event id.
fn subset<A: SleepKey, B: SleepKey>(a: &[A], b: &[B]) -> bool {
    a.iter().all(|x| b.iter().any(|y| x.id() == y.id()))
}

/// One fingerprint's minimal antichain of sleep sets, packed four bytes
/// per entry (see the module docs). Groups are kept in insertion order,
/// which the campaign log's compaction writes out verbatim.
#[derive(Default, Debug)]
pub(crate) struct Antichain(Box<[u32]>);

impl Antichain {
    /// The stored sleep sets, each a slice of packed entries.
    pub(crate) fn groups(&self) -> Groups<'_> {
        Groups(&self.0)
    }

    /// Whether some stored sleep set is contained in `sleep`.
    pub(crate) fn covers<E: SleepKey>(&self, sleep: &[E]) -> bool {
        self.groups().any(|stored| subset(stored, sleep))
    }

    /// Appends `sleep` as a new group after dropping every stored
    /// superset of it, and returns how many groups were dropped. Does not
    /// check [`Antichain::covers`] first: callers that need a minimal
    /// antichain do. The store is left untouched if `sleep` does not pack.
    pub(crate) fn insert<E: SleepKey>(&mut self, sleep: &[E]) -> usize {
        let len = u32::try_from(sleep.len()).expect("sleep-set length fits u32");
        // Range-check before taking the buffer, so a refused entry leaves
        // the store intact.
        for &entry in sleep {
            entry.packed();
        }
        let mut buf = std::mem::take(&mut self.0).into_vec();
        let (mut read, mut write, mut dropped) = (0, 0, 0);
        while read < buf.len() {
            let end = read + 1 + buf[read] as usize;
            if subset(sleep, &buf[read + 1..end]) {
                dropped += 1;
            } else {
                buf.copy_within(read..end, write);
                write += end - read;
            }
            read = end;
        }
        buf.truncate(write);
        buf.reserve_exact(1 + sleep.len());
        buf.push(len);
        buf.extend(sleep.iter().map(|&entry| entry.packed()));
        self.0 = buf.into_boxed_slice();
        dropped
    }

    /// Inserts every group of `other` this antichain does not already
    /// cover, and returns how many it inserted.
    pub(crate) fn absorb(&mut self, other: &Antichain) -> usize {
        let mut added = 0;
        for group in other.groups() {
            if !self.covers(group) {
                self.insert(group);
                added += 1;
            }
        }
        added
    }
}

/// Iterator over the packed groups of one [`Antichain`], in storage
/// order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Groups<'a>(&'a [u32]);

impl<'a> Iterator for Groups<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        let (&len, rest) = self.0.split_first()?;
        let (group, rest) = rest.split_at(len as usize);
        self.0 = rest;
        Some(group)
    }
}

/// A visited table: node fingerprints already expanded, each with the
/// minimal antichain of sleep sets it was expanded under.
///
/// The subset rule needs *every* incomparable sleep set a fingerprint was
/// expanded with — but it never needs a superset of another entry: if
/// `small ⊆ big` are both stored, any query pruned by `big` (`big ⊆ q`)
/// is already pruned by `small`. [`Visited::insert`] therefore drops
/// stored supersets of each new entry, keeping buckets minimal — which is
/// also what keeps the per-visit subset scan from degrading into the
/// O(visits²) behaviour the original flat-list buckets had on cells whose
/// states are revisited under many incomparable sleep sets.
///
/// `Visited` is both the per-task table of the exploration engine and the
/// in-memory [`crate::campaign::store::CampaignStore`] — the zero-overhead
/// fast path the disk-backed campaign store is checked against.
///
/// Each fingerprint's antichain is one packed, exactly sized buffer (see
/// the module docs). A `covers` probe — the single hottest operation of a
/// certification, issued by the walk's dedup rule and again by the forking
/// executor's snapshot gate — then touches the hash slot and one short
/// buffer, and a stored entry costs four bytes plus its group's length
/// word.
#[derive(Default, Debug)]
pub struct Visited {
    map: HashMap<u64, Antichain, BuildHasherDefault<FingerprintHasher>>,
    /// Cumulative insertions (the memoization budget `max_states` caps).
    inserted: usize,
}

/// Passes a 64-bit fingerprint key through unchanged instead of re-hashing
/// it.
///
/// [`Visited`] keys are [`kset_sim::Mix64`]-avalanched digests, already
/// uniformly distributed over `u64`, so feeding them through the standard
/// library's SipHash again costs a measurable slice of every certification
/// (`Visited::covers`/`merge_from` showed ≈18% of a profiled n=4 cell,
/// much of it hashing) and adds no dispersion. Only `u64` keys are ever
/// written; any other write is a logic error, not a fallback.
#[derive(Clone, Copy, Default)]
struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys hash as u64, never as raw bytes");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl Visited {
    /// The subset-rule check: was `fingerprint` expanded under a sleep set
    /// contained in `sleep`? (If so, that visit explored a superset of
    /// this node's successors and the node can be pruned.)
    pub fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        self.map
            .get(&fingerprint)
            .is_some_and(|seen| seen.covers(sleep))
    }

    /// Records that `fingerprint` is being expanded under `sleep`,
    /// dropping stored supersets of `sleep` so the bucket stays a minimal
    /// antichain.
    ///
    /// # Panics
    ///
    /// If an entry's event id is 2^24 or more, or its target 256 or more
    /// (the packed layout's range; see the module docs).
    pub fn insert(&mut self, fingerprint: u64, sleep: &[SleepEntry]) {
        self.map.entry(fingerprint).or_default().insert(sleep);
        self.inserted += 1;
    }

    /// Folds another table into this one, keeping each bucket a minimal
    /// antichain. Entries already covered here are skipped, so the merged
    /// *set* of minimal elements — and with it every future
    /// [`Visited::covers`] answer — is independent of merge order (only
    /// the unobservable bucket layout varies).
    pub fn merge_from(&mut self, other: &Visited) {
        for (&fingerprint, bucket) in &other.map {
            self.inserted += self.map.entry(fingerprint).or_default().absorb(bucket);
        }
    }

    /// Consuming [`Visited::merge_from`]: folds `other` in by *moving* its
    /// packed buckets wholesale for fingerprints this table has never
    /// seen, instead of re-copying each entry. A task bucket is itself a
    /// minimal antichain (its inserts maintain that), so the wholesale
    /// move equals feeding each group through [`Visited::insert`] in turn:
    /// same minimal sets, same `inserted` count, same every future
    /// [`Visited::covers`] answer. The wave barrier absorbs task tables
    /// through this; the tables are dead afterwards, so the per-bucket
    /// allocation+copy that [`Visited::merge_from`] would pay is pure
    /// waste.
    pub fn merge_move(&mut self, other: Visited) {
        use std::collections::hash_map::Entry;
        for (fingerprint, bucket) in other.map {
            match self.map.entry(fingerprint) {
                Entry::Vacant(slot) => {
                    self.inserted += bucket.groups().count();
                    slot.insert(bucket);
                }
                Entry::Occupied(mut slot) => self.inserted += slot.get_mut().absorb(&bucket),
            }
        }
    }

    /// Cumulative [`Visited::insert`] calls (distinct minimal entries ever
    /// recorded — the quantity `max_states` budgets).
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Iterates the stored `(fingerprint, minimal sleep-set antichain)`
    /// pairs, in the table's (deterministic, but unspecified) bucket
    /// order. The campaign store absorbs task tables through this.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Antichain)> {
        self.map.iter().map(|(&fp, bucket)| (fp, bucket))
    }
}
