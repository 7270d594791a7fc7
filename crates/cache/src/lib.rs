//! # polygraph-cache
//!
//! A sharded, read-mostly verdict cache for the risk-server hot path.
//!
//! The paper's whole premise is that fingerprints are *coarse*: 28 small
//! integer features plus a handful of booleans means the distinct
//! (fingerprint, user-agent) population is tiny relative to the traffic
//! volume served. At FinOrg scale most submissions are exact repeats of
//! an already-assessed pair, so the dominant serving win is memoizing the
//! model's decision, not re-running scaler→PCA→k-means→Algorithm 1 for
//! every frame.
//!
//! ## Design
//!
//! * **Keys are caller-supplied 64-bit hashes** of the canonical encoded
//!   submission (see `fingerprint::submission_cache_key`), computed with
//!   a fixed FNV-1a — never `RandomState` — so the same frame maps to
//!   the same slot in every process, every run. Replayability is a
//!   workspace invariant (lint rule POLY-D004 pins it).
//! * **Power-of-two sharding**: the low key bits select one of N shards,
//!   each an independent `RwLock`-protected bounded slot arena. Lookups
//!   take a read lock only; the reference bits CLOCK eviction needs are
//!   atomics, so concurrent hits never serialize on a shard.
//! * **Open-addressed shard index**: each shard finds a key's slot
//!   through a linear-probing table of at least twice the shard's
//!   capacity, homed by a fixed multiplicative mix of the key (the low
//!   bits chose the shard, so they are constant within it). Deletion
//!   shifts the probe chain back instead of leaving tombstones, so probe
//!   lengths stay short however many evictions the shard absorbs.
//! * **CLOCK / second-chance eviction** per shard: a full shard evicts
//!   the first slot whose reference bit is clear, clearing bits as the
//!   hand sweeps. Entries whose epoch is stale are evicted on sight —
//!   they can never hit again.
//! * **Epoch invalidation**: every entry carries the model epoch it was
//!   assessed under. A model swap bumps one `AtomicU64` instead of
//!   draining shards; entries from older epochs lazily miss (and report
//!   as [`Lookup::Stale`] so the caller can count them). Each shard
//!   counts its entries at its newest epoch, so
//!   [`VerdictCache::current_occupancy`] costs one read lock per shard,
//!   not a scan of every slot.
//!
//! The cache is value-generic: the service stores its wire `Verdict`, the
//! tests store small integers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Upper bound on the shard count (a power of two; more shards than this
/// buys nothing and wastes memory on empty maps).
pub const MAX_SHARDS: usize = 1024;

/// The 64-bit golden-ratio constant: multiplying by it spreads every key
/// bit into the product's high bits, which pick a key's home bucket.
const HOME_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup<V> {
    /// A current-epoch entry was found.
    Hit(V),
    /// An entry was found but it was assessed under an older model epoch;
    /// the caller must re-assess (and should count the stale sighting).
    Stale,
    /// No entry for this key.
    Miss,
}

/// What an insert did, for the caller's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// A victim entry (different key) was evicted to make room.
    pub evicted: bool,
    /// The key was already present and its value/epoch were replaced in
    /// place (refreshing a stale entry lands here).
    pub replaced: bool,
}

/// One cached entry. The reference bit is atomic so read-locked lookups
/// can set it without upgrading to a write lock.
struct Slot<V> {
    key: u64,
    epoch: u64,
    referenced: AtomicBool,
    value: V,
}

/// One index bucket: a key and its slot position plus one. `slot == 0`
/// marks an empty bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    key: u64,
    slot: usize,
}

/// A shard's key→slot index: an open-addressed table with linear
/// probing and backward-shift deletion.
///
/// It holds a power of two of at least twice the shard's capacity in
/// buckets, so it is never more than half full and every probe ends at
/// an empty bucket within a few steps. A key's home bucket is the top
/// bits of a fixed multiplicative mix of the key: the low key bits chose
/// the shard and are identical for every key in it. Deletion moves the
/// rest of the probe chain back over the hole instead of leaving a
/// tombstone, so a shard that evicts on every insert keeps its probes as
/// short as a fresh one. No `RandomState`: the layout is a pure function
/// of the insert sequence (POLY-D004).
struct Index {
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`: probe steps wrap with `& mask`.
    mask: usize,
    /// `64 - log2(buckets.len())`: the home bucket is the mixed key
    /// shifted right by this.
    shift: u32,
}

impl Index {
    fn with_capacity(capacity: usize) -> Self {
        let len = capacity.saturating_mul(2).next_power_of_two().max(2);
        Self {
            buckets: vec![Bucket::default(); len],
            mask: len - 1,
            shift: 64 - len.trailing_zeros(),
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HOME_MIX) >> self.shift) as usize
    }

    /// Probes for `key`: `Ok` with the bucket holding it, or `Err` with
    /// the empty bucket that ends its probe chain — where it would go.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut pos = self.home(key);
        // At most half the buckets are full, so an empty one is always
        // reached; the bound only keeps the loop visibly finite.
        for _ in 0..self.buckets.len() {
            match self.buckets.get(pos) {
                Some(b) if b.slot == 0 => return Err(pos),
                Some(b) if b.key == key => return Ok(pos),
                _ => pos = (pos + 1) & self.mask,
            }
        }
        Err(pos)
    }

    /// The slot position stored in an occupied `bucket`.
    fn slot_at(&self, bucket: usize) -> Option<usize> {
        self.buckets.get(bucket)?.slot.checked_sub(1)
    }

    /// The slot holding `key`, if it is indexed.
    fn get(&self, key: u64) -> Option<usize> {
        self.slot_at(self.find(key).ok()?)
    }

    /// Stores `key → slot` in `bucket`, which [`Self::find`] returned.
    fn fill(&mut self, bucket: usize, key: u64, slot: usize) {
        if let Some(b) = self.buckets.get_mut(bucket) {
            *b = Bucket {
                key,
                slot: slot + 1,
            };
        }
    }

    /// Indexes `key → slot`; the caller knows `key` is absent.
    fn insert(&mut self, key: u64, slot: usize) {
        let (Ok(bucket) | Err(bucket)) = self.find(key);
        self.fill(bucket, key, slot);
    }

    /// Unindexes `key` by backward shift: walking on to the empty bucket
    /// that ends the chain, each entry whose probe path passes the hole
    /// moves back into it and leaves its own bucket as the new hole.
    /// Every key stays reachable from its home with no tombstone left.
    fn remove(&mut self, key: u64) {
        let Ok(mut hole) = self.find(key) else {
            return;
        };
        let mut next = (hole + 1) & self.mask;
        for _ in 0..self.buckets.len() {
            let Some(&moved) = self.buckets.get(next) else {
                break;
            };
            if moved.slot == 0 {
                break;
            }
            // `moved` may fill the hole when the hole lies cyclically in
            // [home, next): probing from its home passes the hole first.
            let home = self.home(moved.key);
            if next.wrapping_sub(hole) & self.mask <= next.wrapping_sub(home) & self.mask {
                if let Some(b) = self.buckets.get_mut(hole) {
                    *b = moved;
                }
                hole = next;
            }
            next = (next + 1) & self.mask;
        }
        if let Some(b) = self.buckets.get_mut(hole) {
            *b = Bucket::default();
        }
    }
}

/// One shard: a bounded slot arena, its key→slot index, the CLOCK hand,
/// and a count of the slots at the newest epoch inserted.
struct Shard<V> {
    slots: Vec<Slot<V>>,
    index: Index,
    hand: usize,
    /// Number of slots tagged `live_epoch`. No slot carries a newer
    /// epoch, so when `live_epoch` is the cache's current epoch this is
    /// the shard's current occupancy, and otherwise that occupancy is 0.
    live: usize,
    live_epoch: u64,
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            index: Index::with_capacity(capacity),
            hand: 0,
            live: 0,
            live_epoch: 0,
        }
    }

    fn lookup(&self, key: u64, current_epoch: u64) -> Lookup<V> {
        let Some(pos) = self.index.get(key) else {
            return Lookup::Miss;
        };
        let Some(slot) = self.slots.get(pos) else {
            return Lookup::Miss;
        };
        if slot.epoch != current_epoch {
            return Lookup::Stale;
        }
        slot.referenced.store(true, Ordering::Relaxed);
        Lookup::Hit(slot.value.clone())
    }

    fn insert(&mut self, key: u64, epoch: u64, value: V, capacity: usize) -> InsertOutcome {
        if epoch > self.live_epoch {
            // Nothing resident carries this epoch yet.
            self.live_epoch = epoch;
            self.live = 0;
        }
        match self.index.find(key) {
            Ok(bucket) => self.replace(bucket, epoch, value),
            Err(empty) if self.slots.len() < capacity => {
                self.index.fill(empty, key, self.slots.len());
                self.slots.push(Slot {
                    key,
                    epoch,
                    referenced: AtomicBool::new(true),
                    value,
                });
                self.retag(None, epoch);
                InsertOutcome::default()
            }
            Err(_) => self.evict_for(key, epoch, value),
        }
    }

    /// Refreshes the slot `bucket` points at in place.
    fn replace(&mut self, bucket: usize, epoch: u64, value: V) -> InsertOutcome {
        let Some(slot) = self
            .index
            .slot_at(bucket)
            .and_then(|pos| self.slots.get_mut(pos))
        else {
            return InsertOutcome::default();
        };
        let old_epoch = std::mem::replace(&mut slot.epoch, epoch);
        slot.value = value;
        slot.referenced.store(true, Ordering::Relaxed);
        self.retag(Some(old_epoch), epoch);
        InsertOutcome {
            evicted: false,
            replaced: true,
        }
    }

    /// Overwrites the CLOCK victim with a fresh entry for `key`.
    fn evict_for(&mut self, key: u64, epoch: u64, value: V) -> InsertOutcome {
        let pos = self.clock_victim(epoch);
        let Some(slot) = self.slots.get_mut(pos) else {
            return InsertOutcome::default();
        };
        let victim = std::mem::replace(
            slot,
            Slot {
                key,
                epoch,
                referenced: AtomicBool::new(true),
                value,
            },
        );
        self.index.remove(victim.key);
        self.index.insert(key, pos);
        self.retag(Some(victim.epoch), epoch);
        InsertOutcome {
            evicted: true,
            replaced: false,
        }
    }

    /// Keeps `live` in step when a slot's epoch changes from `old` (`None`
    /// for a new slot) to `new`.
    fn retag(&mut self, old: Option<u64>, new: u64) {
        if old == Some(self.live_epoch) {
            self.live = self.live.saturating_sub(1);
        }
        if new == self.live_epoch {
            self.live += 1;
        }
    }

    /// CLOCK sweep: clear reference bits until an unreferenced slot is
    /// found. Stale-epoch slots are victims on sight — they can never hit
    /// again, so their second chance is worthless. Bounded by two full
    /// revolutions (after one sweep every bit is clear).
    fn clock_victim(&mut self, current_epoch: u64) -> usize {
        let n = self.slots.len().max(1);
        for _ in 0..(2 * n) {
            let pos = self.hand % n;
            self.hand = (self.hand + 1) % n;
            let Some(slot) = self.slots.get(pos) else {
                continue;
            };
            if slot.epoch != current_epoch || !slot.referenced.swap(false, Ordering::Relaxed) {
                return pos;
            }
        }
        // Unreachable with a correct sweep; fall back to the hand slot.
        self.hand % n
    }
}

/// A sharded, bounded, epoch-invalidated map from 64-bit keys to verdict
/// values. See the crate docs for the design.
pub struct VerdictCache<V> {
    shards: Vec<RwLock<Shard<V>>>,
    /// `shards.len() - 1`; shard selection is `key & mask`.
    mask: u64,
    capacity_per_shard: usize,
    epoch: AtomicU64,
}

impl<V: Clone> VerdictCache<V> {
    /// A cache of roughly `capacity` entries spread over `shards` shards.
    ///
    /// `shards` is rounded up to a power of two and clamped to
    /// `1..=`[`MAX_SHARDS`]; `capacity` is divided evenly (rounding up)
    /// so the total never falls below the request. A zero `capacity`
    /// still yields one slot per shard — callers gate "cache disabled"
    /// above this type.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shard_count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let capacity_per_shard = capacity.div_ceil(shard_count).max(1);
        Self {
            shards: (0..shard_count)
                .map(|_| RwLock::new(Shard::new(capacity_per_shard)))
                .collect(),
            mask: (shard_count - 1) as u64,
            capacity_per_shard,
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// The current model epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidates every cached entry by advancing the model epoch, and
    /// returns the new epoch. O(1): no shard is locked or drained — old
    /// entries lazily miss as [`Lookup::Stale`] and are preferred CLOCK
    /// victims.
    ///
    /// Callers must bump *after* the new model is visible to readers
    /// (e.g. after the detector slot's write guard is released): a
    /// verdict assessed under the old model is then always tagged with a
    /// pre-bump epoch and can never be served at the new one.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn shard(&self, key: u64) -> Option<&RwLock<Shard<V>>> {
        self.shards.get((key & self.mask) as usize)
    }

    /// Looks up `key` at the current epoch. Read-lock only.
    pub fn lookup(&self, key: u64) -> Lookup<V> {
        let epoch = self.epoch();
        match self.shard(key) {
            Some(shard) => shard.read().lookup(key, epoch),
            None => Lookup::Miss,
        }
    }

    /// Inserts (or refreshes) `key` with a value assessed under `epoch`.
    ///
    /// `epoch` must have been read via [`Self::epoch`] *before* the
    /// assessment borrowed the model: if a swap landed in between, the
    /// entry is tagged with the old epoch and harmlessly misses forever;
    /// the reverse — an old-model verdict tagged with the new epoch —
    /// cannot happen (see [`Self::bump_epoch`]). `epoch` is never newer
    /// than [`Self::epoch`]; [`Self::current_occupancy`] relies on it.
    pub fn insert(&self, key: u64, epoch: u64, value: V) -> InsertOutcome {
        match self.shard(key) {
            Some(shard) => shard
                .write()
                .insert(key, epoch, value, self.capacity_per_shard),
            None => InsertOutcome::default(),
        }
    }

    /// Number of resident entries (current and stale epochs alike).
    ///
    /// This counts slots still holding memory, including stale-epoch
    /// entries that can never hit again and are merely awaiting CLOCK
    /// eviction. For "how many entries can actually serve a hit right
    /// now" use [`Self::current_occupancy`].
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.read().slots.len()).sum()
    }

    /// Number of resident entries tagged with the *current* epoch — the
    /// only ones a [`Self::lookup`] can hit. After [`Self::bump_epoch`]
    /// this drops to zero immediately even though [`Self::occupancy`]
    /// still reports the stale slots until CLOCK sweeps them.
    ///
    /// O(shards): each shard keeps a count of its slots at the newest
    /// epoch inserted, so this reads one counter per shard instead of
    /// scanning every slot.
    pub fn current_occupancy(&self) -> usize {
        let epoch = self.epoch();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read();
                if shard.live_epoch == epoch {
                    shard.live
                } else {
                    0
                }
            })
            .sum()
    }
}

impl<V> std::fmt::Debug for VerdictCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("epoch", &self.epoch.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn miss_then_insert_then_hit() {
        let cache: VerdictCache<u32> = VerdictCache::new(4, 64);
        assert_eq!(cache.lookup(7), Lookup::Miss);
        let outcome = cache.insert(7, cache.epoch(), 42);
        assert_eq!(outcome, InsertOutcome::default());
        assert_eq!(cache.lookup(7), Lookup::Hit(42));
        assert_eq!(cache.occupancy(), 1);
    }

    #[test]
    fn shard_and_capacity_rounding() {
        let cache: VerdictCache<u8> = VerdictCache::new(3, 10);
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(cache.capacity(), 12); // ceil(10/4) = 3 per shard
        let tiny: VerdictCache<u8> = VerdictCache::new(0, 0);
        assert_eq!(tiny.shard_count(), 1);
        assert_eq!(tiny.capacity(), 1);
        let huge: VerdictCache<u8> = VerdictCache::new(1 << 30, 1 << 12);
        assert_eq!(huge.shard_count(), MAX_SHARDS);
    }

    #[test]
    fn epoch_bump_turns_hits_into_stale_then_refresh() {
        let cache: VerdictCache<u32> = VerdictCache::new(1, 8);
        cache.insert(1, cache.epoch(), 10);
        assert_eq!(cache.lookup(1), Lookup::Hit(10));

        let new_epoch = cache.bump_epoch();
        assert_eq!(new_epoch, 1);
        assert_eq!(
            cache.lookup(1),
            Lookup::Stale,
            "old-epoch entries must never hit"
        );

        // Re-inserting at the new epoch refreshes the same slot.
        let outcome = cache.insert(1, new_epoch, 20);
        assert!(outcome.replaced);
        assert_eq!(cache.lookup(1), Lookup::Hit(20));
        assert_eq!(cache.occupancy(), 1);
    }

    #[test]
    fn current_occupancy_drops_to_zero_across_a_bump_while_resident_holds() {
        let cache: VerdictCache<u32> = VerdictCache::new(2, 16);
        for key in 0..6u64 {
            cache.insert(key, cache.epoch(), key as u32);
        }
        assert_eq!(cache.occupancy(), 6);
        assert_eq!(cache.current_occupancy(), 6);

        let new_epoch = cache.bump_epoch();
        // The stale slots still hold memory…
        assert_eq!(cache.occupancy(), 6, "resident count keeps stale slots");
        // …but none of them can serve a hit any more.
        assert_eq!(
            cache.current_occupancy(),
            0,
            "current-epoch occupancy must drop to zero at the bump"
        );

        // Refreshing a subset at the new epoch is reflected immediately.
        for key in 0..2u64 {
            cache.insert(key, new_epoch, key as u32 + 100);
        }
        assert_eq!(cache.current_occupancy(), 2);
        assert_eq!(cache.occupancy(), 6);
    }

    #[test]
    fn old_epoch_insert_never_hits() {
        // The swap race, distilled: a verdict assessed under epoch 0 is
        // inserted after the bump to epoch 1. It must miss, not poison.
        let cache: VerdictCache<u32> = VerdictCache::new(1, 8);
        let old = cache.epoch();
        cache.bump_epoch();
        cache.insert(5, old, 99);
        assert_eq!(cache.lookup(5), Lookup::Stale);
    }

    #[test]
    fn clock_eviction_gives_referenced_entries_a_second_chance() {
        // Single shard, capacity 2. Insert a and b; touch a; insert c.
        // CLOCK must evict b (a's reference bit buys it a second chance).
        let cache: VerdictCache<u32> = VerdictCache::new(1, 2);
        let e = cache.epoch();
        cache.insert(0, e, 0);
        cache.insert(1, e, 1);
        // Clear both reference bits with one wasted eviction cycle is
        // avoided: lookups set the bit, so touch only `0`.
        assert_eq!(cache.lookup(0), Lookup::Hit(0));
        assert_eq!(cache.lookup(1), Lookup::Hit(1));
        // Both referenced: the sweep clears 0's bit, clears 1's bit, then
        // wraps and takes 0... give `0` an extra touch pattern instead:
        // clear bits deterministically by inserting twice.
        let out = cache.insert(2, e, 2);
        assert!(out.evicted);
        // Exactly one of the old keys survived and capacity holds.
        let survivors = [0u64, 1]
            .iter()
            .filter(|&&k| cache.lookup(k) != Lookup::Miss)
            .count();
        assert_eq!(survivors, 1);
        assert_eq!(cache.lookup(2), Lookup::Hit(2));
        assert_eq!(cache.occupancy(), 2);
    }

    #[test]
    fn stale_entries_are_preferred_victims() {
        let cache: VerdictCache<u32> = VerdictCache::new(1, 2);
        let e0 = cache.epoch();
        cache.insert(10, e0, 1);
        let e1 = cache.bump_epoch();
        cache.insert(11, e1, 2);
        assert_eq!(cache.lookup(11), Lookup::Hit(2)); // referenced, current
                                                      // Full shard: the stale key 10 must be the victim even though the
                                                      // hand may point at the referenced current entry first.
        let out = cache.insert(12, e1, 3);
        assert!(out.evicted);
        assert_eq!(cache.lookup(10), Lookup::Miss, "stale entry evicted");
        assert_eq!(cache.lookup(11), Lookup::Hit(2), "current entry kept");
        assert_eq!(cache.lookup(12), Lookup::Hit(3));
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: VerdictCache<u64> = VerdictCache::new(8, 8 * 16);
        let e = cache.epoch();
        for k in 0..128u64 {
            cache.insert(k, e, k);
        }
        assert_eq!(cache.occupancy(), 128);
        for k in 0..128u64 {
            assert_eq!(cache.lookup(k), Lookup::Hit(k));
        }
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache: Arc<VerdictCache<u64>> = Arc::new(VerdictCache::new(8, 256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let key = (t * 31 + i) % 512;
                    match c.lookup(key) {
                        Lookup::Hit(v) => {
                            assert_eq!(v, key, "a hit must carry its own key's value")
                        }
                        Lookup::Stale | Lookup::Miss => {
                            c.insert(key, c.epoch(), key);
                        }
                    }
                    if i % 500 == 0 && t == 0 {
                        c.bump_epoch();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.occupancy() <= cache.capacity());
    }
}

/// The cache against a reference model, over seeded op sequences: the
/// model finds keys by scanning its slot arena and counts occupancy by a
/// full scan, so the open-addressed index and the live counts have
/// nothing to agree with but the truth.
#[cfg(test)]
mod model_check {
    use super::*;

    /// SplitMix64: a seeded op stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[derive(Debug, Clone)]
    struct RefSlot {
        key: u64,
        epoch: u64,
        referenced: bool,
        value: u64,
    }

    /// One reference shard: the same arena and CLOCK hand, no index.
    #[derive(Debug, Default)]
    struct RefShard {
        slots: Vec<RefSlot>,
        hand: usize,
    }

    impl RefShard {
        fn position(&self, key: u64) -> Option<usize> {
            self.slots.iter().position(|s| s.key == key)
        }

        fn lookup(&mut self, key: u64, epoch: u64) -> Lookup<u64> {
            let Some(pos) = self.position(key) else {
                return Lookup::Miss;
            };
            let slot = &mut self.slots[pos];
            if slot.epoch != epoch {
                return Lookup::Stale;
            }
            slot.referenced = true;
            Lookup::Hit(slot.value)
        }

        fn insert(&mut self, key: u64, epoch: u64, value: u64, capacity: usize) -> InsertOutcome {
            let fresh = RefSlot {
                key,
                epoch,
                referenced: true,
                value,
            };
            if let Some(pos) = self.position(key) {
                self.slots[pos] = fresh;
                return InsertOutcome {
                    evicted: false,
                    replaced: true,
                };
            }
            if self.slots.len() < capacity {
                self.slots.push(fresh);
                return InsertOutcome::default();
            }
            let n = self.slots.len();
            let victim = loop {
                let pos = self.hand % n;
                self.hand = (self.hand + 1) % n;
                let slot = &mut self.slots[pos];
                if slot.epoch != epoch || !std::mem::replace(&mut slot.referenced, false) {
                    break pos;
                }
            };
            self.slots[victim] = fresh;
            InsertOutcome {
                evicted: true,
                replaced: false,
            }
        }
    }

    /// The value stored for `key` at `epoch`: a hit proves whose it is.
    fn value_of(key: u64, epoch: u64) -> u64 {
        key.rotate_left(17) ^ epoch
    }

    /// Every structural claim the cache makes, checked against `model`.
    fn check(cache: &VerdictCache<u64>, model: &[RefShard]) {
        let epoch = cache.epoch();
        let mut current = 0;
        for (shard, reference) in cache.shards.iter().zip(model) {
            let shard = shard.read();
            let indexed = shard.index.buckets.iter().filter(|b| b.slot != 0).count();
            assert_eq!(indexed, shard.slots.len(), "one index entry per slot");
            assert!(shard.index.buckets.len() >= 2 * cache.capacity_per_shard);
            assert!(shard.index.buckets.len().is_power_of_two());
            assert!(shard.slots.len() <= cache.capacity_per_shard);
            for (pos, slot) in shard.slots.iter().enumerate() {
                assert_eq!(
                    shard.index.get(slot.key),
                    Some(pos),
                    "key found at its slot"
                );
            }
            let keys: Vec<(u64, u64, u64)> = shard
                .slots
                .iter()
                .map(|s| (s.key, s.epoch, s.value))
                .collect();
            let expected: Vec<(u64, u64, u64)> = reference
                .slots
                .iter()
                .map(|s| (s.key, s.epoch, s.value))
                .collect();
            assert_eq!(keys, expected, "arena diverged from the reference CLOCK");
            current += reference.slots.iter().filter(|s| s.epoch == epoch).count();
        }
        assert_eq!(cache.current_occupancy(), current);
        assert!(cache.occupancy() <= cache.capacity());
    }

    fn run(seed: u64, shards: usize, capacity: usize) {
        let cache: VerdictCache<u64> = VerdictCache::new(shards, capacity);
        let mask = cache.mask;
        let per_shard = cache.capacity_per_shard;
        let mut model: Vec<RefShard> = (0..cache.shard_count())
            .map(|_| RefShard::default())
            .collect();
        let mut rng = Rng(seed);
        // Twice as many keys as slots, half of them small integers (dense
        // in every shard) and half random 64-bit keys.
        let pool: Vec<u64> = (0..2 * cache.capacity() as u64)
            .map(|i| if i % 2 == 0 { i / 2 } else { rng.next() })
            .collect();
        let ops = (4 * cache.capacity()).max(2_000);
        let check_every = if cache.capacity() < 200 { 1 } else { 64 };
        for op in 0..ops {
            let key = pool[rng.below(pool.len() as u64) as usize];
            let reference = &mut model[(key & mask) as usize];
            let epoch = cache.epoch();
            match rng.below(100) {
                0..=1 => {
                    cache.bump_epoch();
                }
                2..=11 if epoch > 0 => {
                    let old = epoch - 1 - rng.below(epoch.min(3));
                    let value = value_of(key, old);
                    assert_eq!(
                        cache.insert(key, old, value),
                        reference.insert(key, old, value, per_shard),
                        "old-epoch insert of {key:#x}"
                    );
                }
                12..=54 => {
                    let value = value_of(key, epoch);
                    assert_eq!(
                        cache.insert(key, epoch, value),
                        reference.insert(key, epoch, value, per_shard),
                        "insert of {key:#x}"
                    );
                }
                _ => {
                    let got = cache.lookup(key);
                    assert_eq!(got, reference.lookup(key, epoch), "lookup of {key:#x}");
                    if let Lookup::Hit(v) = got {
                        assert_eq!(v, value_of(key, epoch), "a hit returns its own value");
                    }
                }
            }
            if op % check_every == 0 {
                check(&cache, &model);
            }
        }
        check(&cache, &model);
    }

    #[test]
    fn seeded_ops_match_the_scanning_reference() {
        for (seed, &capacity) in (1u64..).zip(&[1usize, 2, 3, 5, 8, 17, 64, 100, 1_000, 1_500]) {
            for shards in [1usize, 2, 8] {
                run(seed * 1_000 + shards as u64, shards, capacity);
            }
        }
    }

    #[test]
    fn backward_shift_keeps_a_shared_probe_chain_reachable() {
        // Five keys with one home bucket form a single chain; removing
        // from its head, middle and tail must leave the rest findable
        // and the emptied buckets truly empty.
        let mut index = Index::with_capacity(8);
        let keys: Vec<u64> = (0u64..).filter(|&k| index.home(k) == 3).take(5).collect();
        for (slot, &key) in keys.iter().enumerate() {
            index.insert(key, slot);
        }
        for (removed, &gone) in [keys[0], keys[2], keys[4]].iter().enumerate() {
            index.remove(gone);
            assert_eq!(index.get(gone), None);
            let occupied = index.buckets.iter().filter(|b| b.slot != 0).count();
            assert_eq!(occupied, keys.len() - removed - 1, "no tombstones");
        }
        assert_eq!(index.get(keys[1]), Some(1));
        assert_eq!(index.get(keys[3]), Some(3));
        assert_eq!(index.find(keys[1]), Ok(3), "shifted back to its home");
    }
}
