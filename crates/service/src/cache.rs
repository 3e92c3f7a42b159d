//! The sharded plan cache: N independently locked LRU shards plus a
//! device-memory ledger and hit/miss/eviction counters.
//!
//! Concurrency protocol — **checkout/return**, not lock-while-solving:
//! a lookup removes the plan from its shard (the caller owns it for the
//! duration of the solve, no lock held), and returning it re-inserts
//! under the shard lock. Two consequences:
//!
//! * the shard locks are held only for map operations (microseconds),
//!   never across a solve, so unrelated signatures on the same shard do
//!   not serialise behind a long execute;
//! * concurrent callers of one *hot* signature race benignly: the loser
//!   of the checkout builds (or finds) its own plan, and whichever plan
//!   returns second is discarded (`discards` counter) because the slot
//!   is occupied again. Results are unaffected — plan reuse is
//!   bit-identical to fresh planning by the core's guarantee.
//!
//! Capacity is bounded twice: per shard by entry count, and globally by
//! the [`MemoryLedger`], which enforces the same device-memory headroom
//! rule that makes a single oversized plan fail with
//! `PlanError::ExceedsDeviceMemory` at plan time. A resident cache can
//! therefore never pin more device memory than the device has.
//!
//! Under **memory pressure** (the ledger cannot admit an incoming plan)
//! eviction is *global*: all shards stamp recency from one shared clock,
//! and the sweep repeatedly discards the least-recently-used entry
//! across the whole cache — never holding two shard locks at once —
//! until the plan fits. A hot plan on one shard therefore survives
//! pressure generated by traffic on any other shard; only the coldest
//! plans anywhere go.

use crate::lru::LruMap;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use unisvd_core::PlanSignature;
use unisvd_gpu::MemoryLedger;

/// A type-erased resident plan. The signature stored next to it encodes
/// the precision, so the downcast back to `SvdPlan<T>` in the service
/// layer is infallible by construction.
pub(crate) struct CachedPlan {
    /// The boxed `SvdPlan<T>` (erased so one cache holds all precisions).
    pub plan: Box<dyn Any + Send>,
    /// Device bytes the plan's buffers pin while resident.
    pub bytes: u64,
}

/// Monotonic event counters, readable without any shard lock.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    discards: AtomicU64,
}

/// One shard: its LRU store plus the device bytes it currently pins
/// (so `publish` can tell whether evicting from *this* shard can ever
/// free enough budget, without touching other shards' locks).
struct Shard {
    lru: LruMap<PlanSignature, CachedPlan>,
    bytes: u64,
}

pub(crate) struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    ledger: MemoryLedger,
    counters: Counters,
}

impl PlanCache {
    /// A cache of `shards` shards, each bounded to `plans_per_shard`
    /// entries, with resident device bytes bounded by `ledger`. Every
    /// shard stamps recency from one shared clock so the memory-pressure
    /// sweep can compare entries globally.
    pub fn new(shards: usize, plans_per_shard: usize, ledger: MemoryLedger) -> Self {
        assert!(shards >= 1, "plan cache needs at least one shard");
        let clock = Arc::new(AtomicU64::new(0));
        PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        lru: LruMap::with_clock(plans_per_shard, clock.clone()),
                        bytes: 0,
                    })
                })
                .collect(),
            ledger,
            counters: Counters::default(),
        }
    }

    fn shard_of(&self, sig: &PlanSignature) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        sig.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Whether a plan for `sig` is resident right now (no counters are
    /// touched — used by cache warming to skip already-resident
    /// signatures).
    pub fn contains(&self, sig: &PlanSignature) -> bool {
        self.shard_of(sig).lock().lru.contains(sig)
    }

    /// Removes and returns the resident plan for `sig`, if any. The
    /// caller owns it until [`publish`](Self::publish); its device bytes
    /// are released from the ledger (it no longer counts as resident).
    pub fn checkout(&self, sig: &PlanSignature) -> Option<CachedPlan> {
        let found = {
            let mut shard = self.shard_of(sig).lock();
            let found = shard.lru.remove(sig);
            if let Some(cached) = &found {
                shard.bytes -= cached.bytes;
            }
            found
        };
        match &found {
            Some(cached) => {
                self.ledger.release(cached.bytes);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Returns a plan to the cache (both the cache-hit return path and
    /// the cache-miss populate path).
    ///
    /// The per-shard **entry bound** evicts locally (recency within the
    /// inserting shard). The global **memory budget** evicts globally:
    /// when the ledger cannot admit the plan, the sweep discards the
    /// least-recently-used entry across *all* shards — wherever it lives
    /// — until the plan fits, so a hot plan never dies for another
    /// shard's pressure. The incoming plan is dropped instead
    /// (`discards`) when the slot was re-populated by a concurrent
    /// caller, when caching is disabled, or when it is bigger than the
    /// entire budget.
    pub fn publish(&self, sig: PlanSignature, plan: CachedPlan) {
        // Bigger than the entire budget: nothing could ever admit it —
        // bail before any eviction, so no resident plan dies for a plan
        // that cannot be cached.
        if plan.bytes > self.ledger.budget() {
            self.counters.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let shard_mutex = self.shard_of(&sig);
        // The ledger charge is held through a drop guard until the insert
        // actually lands: every bail-out below (duplicate slot, disabled
        // caching, eviction races) returns its bytes by dropping the
        // guard, so no failure path can leak budget.
        let reservation = match self.ledger.try_reserve_guard(plan.bytes) {
            Some(r) => r,
            None => {
                // Memory pressure. A plan whose slot was already
                // re-populated by a concurrent caller will be discarded
                // anyway — check before evicting residents for it.
                if shard_mutex.lock().lru.contains(&sig) {
                    self.counters.discards.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // Sweep the globally least-recently-used entry until the
                // reservation succeeds, never holding two shard locks at
                // once (scan briefly, then evict from the chosen shard).
                loop {
                    if let Some(r) = self.ledger.try_reserve_guard(plan.bytes) {
                        break r;
                    }
                    if !self.evict_global_lru() {
                        // Nothing left to evict anywhere and the budget
                        // still cannot admit the plan (reservations raced
                        // away).
                        self.counters.discards.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        };
        let mut shard = shard_mutex.lock();
        if !self.make_room_local(&mut shard, &sig) {
            return; // reservation guard releases the bytes
        }
        shard.bytes += plan.bytes;
        shard.lru.insert(sig, plan);
        // The resident entry now owns the bytes; checkout/eviction release
        // them.
        reservation.commit();
    }

    /// Ensures `shard` can accept an insert of `sig`: discards on a
    /// duplicate (a concurrent same-signature caller returned first —
    /// keeping both would double-pin device memory for no reuse benefit)
    /// or on disabled caching, evicts the shard-local LRU past the entry
    /// bound. Returns whether the insert may proceed. Counters for the
    /// discard are bumped here; the caller only handles its reservation.
    fn make_room_local(&self, shard: &mut Shard, sig: &PlanSignature) -> bool {
        if shard.lru.contains(sig) {
            self.counters.discards.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        while shard.lru.is_full() {
            match shard.lru.pop_lru() {
                Some((_, evicted)) => {
                    shard.bytes -= evicted.bytes;
                    self.ledger.release(evicted.bytes);
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    // Capacity 0: caching disabled.
                    self.counters.discards.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        true
    }

    /// Evicts the least-recently-used entry across all shards (shared
    /// recency clock). Lock discipline: scan one shard at a time for the
    /// oldest tick, then lock only the winning shard to pop — a benign
    /// race with concurrent inserts can pop a slightly newer entry, but
    /// never deadlocks. Returns `false` when every shard is empty.
    fn evict_global_lru(&self) -> bool {
        let mut best: Option<(usize, u64)> = None;
        for (i, m) in self.shards.iter().enumerate() {
            if let Some(t) = m.lock().lru.lru_tick() {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        let Some((i, _)) = best else {
            return false;
        };
        let mut shard = self.shards[i].lock();
        match shard.lru.pop_lru() {
            Some((_, evicted)) => {
                shard.bytes -= evicted.bytes;
                self.ledger.release(evicted.bytes);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            // Raced empty between scan and lock; the caller re-scans.
            None => true,
        }
    }

    /// (hits, misses, evictions, discards) since construction.
    pub fn counter_values(&self) -> (u64, u64, u64, u64) {
        (
            self.counters.hits.load(Ordering::Relaxed),
            self.counters.misses.load(Ordering::Relaxed),
            self.counters.evictions.load(Ordering::Relaxed),
            self.counters.discards.load(Ordering::Relaxed),
        )
    }

    /// Resident entry count (locks each shard briefly) and resident
    /// device bytes (from the ledger).
    pub fn resident(&self) -> (usize, u64) {
        let plans = self.shards.iter().map(|s| s.lock().lru.len()).sum();
        (plans, self.ledger.used())
    }

    /// Every signature with a resident plan right now, in shard order
    /// (arbitrary within a shard). The re-plan inventory of fleet
    /// failover: what survivors should warm after this device is lost.
    pub fn resident_signatures(&self) -> Vec<PlanSignature> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().lru.keys().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Drops every resident plan and returns their bytes to the ledger —
    /// simulated device loss (the device's memory is gone; the
    /// accounting must say so). Counters are left untouched: teardown is
    /// not eviction pressure.
    pub fn clear(&self) {
        for m in &self.shards {
            let mut shard = m.lock();
            while let Some((_, evicted)) = shard.lru.pop_lru() {
                shard.bytes -= evicted.bytes;
                self.ledger.release(evicted.bytes);
            }
        }
    }

    /// Whether the ledger's reserved bytes exactly equal the bytes the
    /// shards pin — the accounting audit failover tests run on
    /// survivors. Exact only at quiescence: a checkout in flight briefly
    /// holds bytes in neither place.
    pub fn in_balance(&self) -> bool {
        let shard_bytes: u64 = self.shards.iter().map(|s| s.lock().bytes).sum();
        shard_bytes == self.ledger.used()
    }

    /// The device-memory budget the ledger enforces, in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.ledger.budget()
    }

    /// Ledger bytes still unreserved — the headroom a new resident plan
    /// could claim (the admission-control input of request shedding).
    pub fn available_bytes(&self) -> u64 {
        self.ledger.available()
    }

    /// Clears the ledger injector's death latch (device revival): a
    /// revived backend must be able to publish plans again.
    pub fn revive_faults(&self) {
        self.ledger.revive_faults();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_core::SvdConfig;
    use unisvd_gpu::BackendKind;
    use unisvd_scalar::PrecisionKind;

    fn sig(rows: usize) -> PlanSignature {
        PlanSignature {
            device: "test",
            backend: BackendKind::Cuda,
            precision: PrecisionKind::Fp32,
            rows,
            cols: rows,
            config: SvdConfig::default(),
        }
    }

    fn plan(bytes: u64) -> CachedPlan {
        CachedPlan {
            plan: Box::new(()),
            bytes,
        }
    }

    #[test]
    fn memory_pressure_evicts_globally_lru_across_shards() {
        // Two 100-byte plans resident on *different* shards, budget 200.
        // Publishing a 150-byte plan needs 150 freed; the global sweep
        // must evict the *older* resident — which lives on a different
        // shard than the insert — and keep the newer one.
        let cache = PlanCache::new(4, 4, MemoryLedger::new(200));
        let sigs: Vec<PlanSignature> = (1..200).map(sig).collect();
        let a = sigs[0];
        let b = *sigs
            .iter()
            .find(|s| !std::ptr::eq(cache.shard_of(s), cache.shard_of(&a)))
            .expect("some signature lands on another shard");
        cache.publish(a, plan(100)); // older
        cache.publish(b, plan(100)); // newer
        assert_eq!(cache.resident(), (2, 200));
        let c = *sigs
            .iter()
            .find(|s| std::ptr::eq(cache.shard_of(s), cache.shard_of(&b)) && **s != b)
            .expect("some other signature shares b's shard");
        cache.publish(c, plan(150));
        let (_, _, evictions, discards) = cache.counter_values();
        assert_eq!(discards, 0, "the incoming plan must be admitted");
        assert_eq!(evictions, 2, "both residents go: a (LRU), then b");
        assert_eq!(cache.resident(), (1, 150));
        assert!(cache.checkout(&c).is_some(), "c is resident");
        // Order check: a fresh cache where only ONE eviction is needed
        // must take the globally-oldest entry (a, on its own shard) and
        // leave the hotter b alone.
        let cache = PlanCache::new(4, 4, MemoryLedger::new(200));
        cache.publish(a, plan(100)); // older
        cache.publish(b, plan(100)); // newer
        cache.publish(c, plan(100)); // needs 100 freed -> evict a only
        let (_, _, evictions, _) = cache.counter_values();
        assert_eq!(evictions, 1);
        assert!(cache.checkout(&a).is_none(), "cold a was swept");
        assert!(
            cache.checkout(&b).is_some(),
            "hot b survived cross-shard pressure"
        );
        assert!(cache.checkout(&c).is_some());
    }

    #[test]
    fn clear_returns_every_byte_and_stays_balanced() {
        let cache = PlanCache::new(4, 4, MemoryLedger::new(1000));
        let sigs: Vec<PlanSignature> = (1..=5).map(sig).collect();
        for s in &sigs {
            cache.publish(*s, plan(100));
        }
        assert!(cache.in_balance());
        let mut resident = cache.resident_signatures();
        resident.sort_by_key(|s| s.rows);
        assert_eq!(resident, sigs, "every published signature is reported");
        cache.clear();
        assert_eq!(cache.resident(), (0, 0), "all bytes returned");
        assert!(cache.in_balance());
        assert!(cache.resident_signatures().is_empty());
        let (_, _, evictions, _) = cache.counter_values();
        assert_eq!(evictions, 0, "teardown is not eviction pressure");
    }

    #[test]
    fn oversized_plan_is_discarded_without_flushing_residents() {
        let cache = PlanCache::new(2, 4, MemoryLedger::new(200));
        let sigs: Vec<PlanSignature> = (1..50).map(sig).collect();
        cache.publish(sigs[0], plan(100));
        // Bigger than the whole budget: nothing could ever admit it.
        cache.publish(sigs[1], plan(300));
        let (_, _, evictions, discards) = cache.counter_values();
        assert_eq!((evictions, discards), (0, 1), "no pointless flush");
        assert_eq!(cache.resident(), (1, 100));
        // Same with the target shard at its entry bound: the oversized
        // check must fire before the local entry eviction, so the
        // resident plan survives even when it shares the insert's shard.
        let cache = PlanCache::new(1, 1, MemoryLedger::new(200));
        cache.publish(sigs[0], plan(100));
        cache.publish(sigs[1], plan(300));
        let (_, _, evictions, discards) = cache.counter_values();
        assert_eq!((evictions, discards), (0, 1), "full shard not flushed");
        assert_eq!(cache.resident(), (1, 100));
    }
}
