//! Deterministic fault injection for the simulated runtime.
//!
//! Real fleets are hit by transient hardware misbehaviour — a corrupted
//! PCIe transfer, a kernel that wedges until the watchdog kills it, an
//! allocator that momentarily refuses, a device that drops off the bus
//! mid-solve. The serving layer above this simulator claims to survive
//! all of that; this module is how the claim gets *tested* rather than
//! asserted.
//!
//! A [`FaultPlan`] is a seeded schedule description attached to a
//! [`HardwareDescriptor`](crate::HardwareDescriptor); every
//! [`Device`](crate::Device) built from that descriptor carries a
//! [`FaultInjector`] derived from the plan. Injection decisions are a
//! pure hash of `(seed, channel, event counter)` — no clocks, no OS
//! randomness — and every counter advances on the thread that *issues*
//! the event (the driver thread for launches and uploads, the reserving
//! thread for ledger allocations), never inside a parallel kernel body.
//! The same plan therefore produces the **bit-identical fault schedule
//! at any `RAYON_NUM_THREADS`**, which is what lets CI pin a chaos run.
//!
//! Faults are *latched*, not thrown: the simulator records what happened
//! and keeps going, and the execution layer drains the latch after each
//! solve ([`Device::take_fault`](crate::Device::take_fault)) to decide
//! whether the result is servable. That mirrors real GPUs, where a
//! corrupted DMA is detected after the fact (if at all) — here the SVD
//! stack detects it via `SvdOutput::verify` and typed errors.

use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A seeded, declarative fault schedule.
///
/// Rates are per-event probabilities in `[0, 1]`, evaluated by hashing
/// the event's channel counter against `seed` — so "5% corruption" means
/// a deterministic, reproducible 5% subset of upload events, not a coin
/// flipped at run time. The default plan injects nothing.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed for every injection decision. Two devices with the same
    /// plan (same seed) fault at the same event indices.
    pub seed: u64,
    /// Probability that an upload (host→device transfer) poisons one
    /// element of the destination buffer — simulated bit corruption.
    pub corrupt_rate: f64,
    /// Probability that a kernel launch stalls: its simulated cost is
    /// multiplied by [`stall_factor`](Self::stall_factor) and the launch
    /// is latched as watchdog-killed (the solve's result is discarded).
    pub stall_rate: f64,
    /// Cost multiplier for a stalled launch.
    pub stall_factor: f64,
    /// Probability that a [`MemoryLedger`](crate::MemoryLedger)
    /// reservation transiently fails even within budget.
    pub alloc_fail_rate: f64,
    /// Terminal failure: after this many injector events the device
    /// stops responding — every subsequent event latches
    /// [`FaultKind::Death`] until [`revived`](crate::Device::revive_faults).
    pub death_after: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall_factor: 50.0,
            alloc_fail_rate: 0.0,
            death_after: None,
        }
    }
}

impl FaultPlan {
    /// A no-fault plan with the given seed; set rates with the builder
    /// methods below.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Sets the upload-corruption probability.
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Sets the kernel-stall probability.
    pub fn stall_rate(mut self, rate: f64) -> Self {
        self.stall_rate = rate;
        self
    }

    /// Sets the cost multiplier applied to stalled launches.
    pub fn stall_factor(mut self, factor: f64) -> Self {
        self.stall_factor = factor;
        self
    }

    /// Sets the transient allocation-failure probability.
    pub fn alloc_fail_rate(mut self, rate: f64) -> Self {
        self.alloc_fail_rate = rate;
        self
    }

    /// Kills the device after `events` injector events.
    pub fn death_after(mut self, events: u64) -> Self {
        self.death_after = Some(events);
        self
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.corrupt_rate > 0.0
            || self.stall_rate > 0.0
            || self.alloc_fail_rate > 0.0
            || self.death_after.is_some()
    }
}

/// What kind of fault was injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A ledger reservation was refused transiently (retry may succeed).
    AllocFail,
    /// A launch blew past the watchdog; its output is untrustworthy.
    Stall,
    /// An upload poisoned an element of the destination buffer.
    Corruption,
    /// The device stopped responding — terminal until revived.
    Death,
}

impl FaultKind {
    /// Whether a retry on the same (or another) device can succeed.
    /// Everything but [`Death`](Self::Death) is transient.
    pub fn is_transient(self) -> bool {
        !matches!(self, FaultKind::Death)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::AllocFail => "transient allocation failure",
            FaultKind::Stall => "kernel stall (watchdog)",
            FaultKind::Corruption => "transfer corruption",
            FaultKind::Death => "device death",
        };
        f.write_str(s)
    }
}

/// A fault that poisoned a solve: which device, and what happened.
///
/// Carried by `SvdError::DeviceFault` in `unisvd_core`; the serving
/// layer's retry policy consults [`FaultKind::is_transient`] through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeviceFault {
    /// Name of the faulting device (its descriptor's `name`).
    pub device: &'static str,
    /// What was injected.
    pub kind: FaultKind,
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {}", self.kind, self.device)
    }
}

impl std::error::Error for DeviceFault {}

/// The injection channel an event was counted on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultChannel {
    /// Kernel launches (stall / death).
    Launch,
    /// Host→device uploads (corruption / death).
    Upload,
    /// Ledger reservations (transient allocation failure).
    Alloc,
}

/// One injected fault, pinned to its exact schedule position — the unit
/// the determinism suite compares across thread counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultRecord {
    /// Channel the fault fired on.
    pub channel: FaultChannel,
    /// Zero-based event index *within that channel* at which it fired.
    pub event: u64,
    /// What was injected.
    pub kind: FaultKind,
}

// SplitMix64: a tiny, high-quality 64-bit mixer. Used as a stateless
// hash so injection decisions depend only on (seed, channel, counter).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_LAUNCH: u64 = 0x4C41_554E_4348;
const SALT_UPLOAD: u64 = 0x5550_4C4F_4144;
const SALT_ALLOC: u64 = 0x0041_4C4C_4F43;

/// Per-device fault state: channel counters, the death latch, and the
/// record of everything injected so far.
///
/// Built automatically by [`Device::new`](crate::Device::new) when the
/// descriptor carries a [`FaultPlan`]; constructed directly only to
/// attach allocation faults to a standalone
/// [`MemoryLedger`](crate::MemoryLedger).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    device: &'static str,
    launches: AtomicU64,
    uploads: AtomicU64,
    allocs: AtomicU64,
    /// Total events across channels; drives `death_after`.
    events: AtomicU64,
    /// Event count at which the device dies (`u64::MAX` = never; reset
    /// to never by [`revive`](Self::revive)).
    death_at: AtomicU64,
    dead: AtomicBool,
    /// Faults since the last [`take`](Self::take) — the per-solve latch.
    latched: Mutex<Vec<FaultKind>>,
    /// Every fault ever injected, in injection order per channel.
    history: Mutex<Vec<FaultRecord>>,
}

impl FaultInjector {
    /// An injector executing `plan`, attributing faults to `device`.
    pub fn new(plan: FaultPlan, device: &'static str) -> Self {
        let death_at = plan.death_after.unwrap_or(u64::MAX);
        FaultInjector {
            plan,
            device,
            launches: AtomicU64::new(0),
            uploads: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            events: AtomicU64::new(0),
            death_at: AtomicU64::new(death_at),
            dead: AtomicBool::new(false),
            latched: Mutex::new(Vec::new()),
            history: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn hit(&self, salt: u64, event: u64, rate: f64) -> bool {
        rate > 0.0
            && unit(splitmix64(
                self.plan.seed ^ splitmix64(salt ^ splitmix64(event)),
            )) < rate
    }

    /// Advances the global event counter and returns `true` if the
    /// device is (now) dead.
    fn advance_death(&self) -> bool {
        let total = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        if total >= self.death_at.load(Ordering::Relaxed) {
            self.dead.store(true, Ordering::Relaxed);
        }
        self.dead.load(Ordering::Relaxed)
    }

    fn latch(&self, channel: FaultChannel, event: u64, kind: FaultKind) {
        self.latched.lock().push(kind);
        self.history.lock().push(FaultRecord {
            channel,
            event,
            kind,
        });
    }

    /// Called once per kernel launch, on the issuing thread. Returns the
    /// injected fault, if any (the caller inflates the launch cost on
    /// [`FaultKind::Stall`]).
    pub fn on_launch(&self) -> Option<FaultKind> {
        let ev = self.launches.fetch_add(1, Ordering::Relaxed);
        if self.advance_death() {
            self.latch(FaultChannel::Launch, ev, FaultKind::Death);
            return Some(FaultKind::Death);
        }
        if self.hit(SALT_LAUNCH, ev, self.plan.stall_rate) {
            self.latch(FaultChannel::Launch, ev, FaultKind::Stall);
            return Some(FaultKind::Stall);
        }
        None
    }

    /// Called once per upload, on the issuing thread. Returns the index
    /// of the element to poison when corruption fires (`len > 0`).
    pub fn on_upload(&self, len: usize) -> Option<usize> {
        let ev = self.uploads.fetch_add(1, Ordering::Relaxed);
        if self.advance_death() {
            self.latch(FaultChannel::Upload, ev, FaultKind::Death);
            return None;
        }
        if len > 0 && self.hit(SALT_UPLOAD, ev, self.plan.corrupt_rate) {
            self.latch(FaultChannel::Upload, ev, FaultKind::Corruption);
            let idx =
                splitmix64(self.plan.seed ^ splitmix64(SALT_UPLOAD ^ splitmix64(!ev))) as usize;
            return Some(idx % len);
        }
        None
    }

    /// Called per ledger reservation attempt. `true` means the
    /// reservation must be refused (nothing is charged). A dead device's
    /// allocator refuses everything.
    pub fn on_alloc(&self) -> bool {
        let ev = self.allocs.fetch_add(1, Ordering::Relaxed);
        if self.advance_death() {
            self.latch(FaultChannel::Alloc, ev, FaultKind::Death);
            return true;
        }
        if self.hit(SALT_ALLOC, ev, self.plan.alloc_fail_rate) {
            self.latch(FaultChannel::Alloc, ev, FaultKind::AllocFail);
            return true;
        }
        false
    }

    /// Drains the per-solve latch; returns the worst fault injected
    /// since the last call ([`FaultKind::Death`] dominates).
    pub fn take(&self) -> Option<DeviceFault> {
        let mut latched = self.latched.lock();
        let worst = latched.iter().copied().max();
        latched.clear();
        worst.map(|kind| DeviceFault {
            device: self.device,
            kind,
        })
    }

    /// Whether the device has died (and has not been revived).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Clears the death latch and disables further scheduled death —
    /// the simulated "operator power-cycled the device". Transient
    /// rates stay active; the latch and history are preserved.
    pub fn revive(&self) {
        self.death_at.store(u64::MAX, Ordering::Relaxed);
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Every fault injected so far, in injection order — the schedule
    /// the determinism suite pins across thread counts.
    pub fn history(&self) -> Vec<FaultRecord> {
        self.history.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_hits(inj: &FaultInjector, events: u64) -> usize {
        (0..events).filter(|_| inj.on_launch().is_some()).count()
    }

    #[test]
    fn decisions_are_reproducible_and_rate_shaped() {
        let plan = FaultPlan::seeded(42).stall_rate(0.05);
        let a = FaultInjector::new(plan.clone(), "d");
        let b = FaultInjector::new(plan, "d");
        let ha = count_hits(&a, 4000);
        let hb = count_hits(&b, 4000);
        assert_eq!(ha, hb, "same seed, same schedule");
        assert_eq!(a.history(), b.history());
        // ~5% of 4000 = 200; allow generous slack for hash variance.
        assert!((100..300).contains(&ha), "hit count {ha} far from 5%");
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultInjector::new(FaultPlan::seeded(1).stall_rate(0.1), "d");
        let b = FaultInjector::new(FaultPlan::seeded(2).stall_rate(0.1), "d");
        for _ in 0..500 {
            a.on_launch();
            b.on_launch();
        }
        assert_ne!(a.history(), b.history());
    }

    #[test]
    fn death_latches_terminally_and_revive_clears() {
        let inj = FaultInjector::new(FaultPlan::seeded(7).death_after(3), "d");
        assert!(inj.on_launch().is_none());
        assert!(inj.on_launch().is_none());
        assert_eq!(inj.on_launch(), Some(FaultKind::Death));
        assert_eq!(inj.on_upload(100), None, "dead device latches, no corrupt");
        assert!(inj.on_alloc(), "dead device refuses allocations");
        assert!(inj.is_dead());
        assert_eq!(
            inj.take().map(|f| f.kind),
            Some(FaultKind::Death),
            "death dominates the latch"
        );
        assert_eq!(inj.take(), None, "take drains");
        inj.revive();
        assert!(!inj.is_dead());
        assert!(inj.on_launch().is_none(), "revived device runs again");
    }

    #[test]
    fn worst_fault_ordering() {
        assert!(FaultKind::Death > FaultKind::Corruption);
        assert!(FaultKind::Corruption > FaultKind::Stall);
        assert!(FaultKind::Stall > FaultKind::AllocFail);
        assert!(FaultKind::Corruption.is_transient());
        assert!(FaultKind::Stall.is_transient());
        assert!(FaultKind::AllocFail.is_transient());
        assert!(!FaultKind::Death.is_transient());
    }

    #[test]
    fn corruption_picks_in_range_indices() {
        let inj = FaultInjector::new(FaultPlan::seeded(3).corrupt_rate(1.0), "d");
        for len in [1usize, 2, 7, 1024] {
            let idx = inj.on_upload(len).expect("rate 1.0 always fires");
            assert!(idx < len);
        }
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let inj = FaultInjector::new(plan, "d");
        for _ in 0..100 {
            assert!(inj.on_launch().is_none());
            assert!(inj.on_upload(16).is_none());
            assert!(!inj.on_alloc());
        }
        assert_eq!(inj.take(), None);
    }
}
