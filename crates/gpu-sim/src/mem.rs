//! Device-memory accounting across many allocations.
//!
//! A single plan's working set is capacity-checked at plan time (the
//! `ExceedsDeviceMemory` rejection). A serving layer, though, keeps
//! *many* plans alive at once — a cache of resident device buffers —
//! and the sum must respect the same rule. [`MemoryLedger`] is that
//! shared counter: a lock-free reserve/release gauge against a fixed
//! byte budget, safe to consult from any thread.

use crate::fault::FaultInjector;
use crate::hw::HardwareDescriptor;
use std::sync::atomic::{AtomicU64, Ordering};

impl HardwareDescriptor {
    /// Largest working set, in bytes, that [`fits`](Self::fits) accepts:
    /// device memory net of the 25% workspace headroom. This is the byte
    /// budget a plan cache must keep its resident total under so that
    /// every cached plan preserves the `ExceedsDeviceMemory` guarantee.
    pub fn budget_bytes(&self) -> u64 {
        (self.memory_bytes as f64 / 1.3).floor() as u64
    }
}

/// A concurrent reserve/release byte gauge with a hard budget.
///
/// Reservations are atomic (compare-and-swap, no lock) and never
/// overshoot: [`try_reserve`](Self::try_reserve) either charges the full
/// amount within budget or charges nothing.
#[derive(Debug)]
pub struct MemoryLedger {
    budget: u64,
    used: AtomicU64,
    /// Optional seeded fault hook: when set, reservation attempts can
    /// transiently fail (nothing charged) per the injector's schedule.
    faults: Option<FaultInjector>,
}

impl MemoryLedger {
    /// A ledger with an explicit byte budget.
    pub fn new(budget: u64) -> Self {
        MemoryLedger {
            budget,
            used: AtomicU64::new(0),
            faults: None,
        }
    }

    /// A ledger with the device's full budget
    /// ([`HardwareDescriptor::budget_bytes`]), injecting the
    /// descriptor's [`FaultPlan`](crate::FaultPlan) (if any) into
    /// reservation attempts.
    pub fn for_device(hw: &HardwareDescriptor) -> Self {
        let ledger = Self::new(hw.budget_bytes());
        match hw.fault.clone().filter(|p| p.is_active()) {
            Some(p) => ledger.with_fault_injector(FaultInjector::new(p, hw.name)),
            None => ledger,
        }
    }

    /// Attaches a fault injector: every [`try_reserve`](Self::try_reserve)
    /// first consults the injector's allocation channel and is refused —
    /// charging nothing — when the schedule fires. A refused reservation
    /// is indistinguishable from an out-of-budget one to the caller,
    /// which is the point: the caller's recovery path (drop the guard,
    /// retry, shed) must balance either way.
    pub fn with_fault_injector(mut self, inj: FaultInjector) -> Self {
        self.faults = Some(inj);
        self
    }

    /// Clears the attached injector's death latch (if any) — the ledger
    /// half of a device revival. Transient alloc-failure rates stay
    /// active; without an injector this is a no-op.
    pub fn revive_faults(&self) {
        if let Some(f) = &self.faults {
            f.revive();
        }
    }

    /// The fixed budget, bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.budget.saturating_sub(self.used())
    }

    /// Attempts to reserve `bytes`; on `false` nothing was charged.
    /// With a fault injector attached, a reservation can also fail
    /// transiently while well within budget (still charging nothing).
    pub fn try_reserve(&self, bytes: u64) -> bool {
        if let Some(f) = &self.faults {
            if f.on_alloc() {
                return false;
            }
        }
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(next) if next <= self.budget => next,
                _ => return false,
            };
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    /// [`try_reserve`](Self::try_reserve) returning a drop guard instead
    /// of a bare `bool`: the reservation is released automatically when
    /// the guard drops, so every early-return and panic path between
    /// "bytes charged" and "bytes handed over to long-lived accounting"
    /// gives the budget back. Call [`Reservation::commit`] once the
    /// reservation's owner tracks the bytes itself (e.g. a cache insert
    /// that will `release` on eviction).
    pub fn try_reserve_guard(&self, bytes: u64) -> Option<Reservation<'_>> {
        // `then`, not `then_some`: the guard must only ever exist for a
        // reservation that actually happened (its Drop releases).
        self.try_reserve(bytes).then(|| Reservation {
            ledger: self,
            bytes,
        })
    }

    /// Returns a prior reservation of `bytes`. Releasing more than is
    /// reserved clamps to zero (a caller accounting bug, but one that
    /// must not wrap the gauge into nonsense).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }
}

/// A held [`MemoryLedger`] reservation that releases itself on drop.
///
/// Obtained from [`MemoryLedger::try_reserve_guard`]. The guard exists to
/// make reservation leaks structurally impossible: failure paths that
/// abandon a half-done admission (a cache slot raced away, a plan build
/// failed, a solve panicked) return their bytes by simply dropping the
/// guard, instead of every such path remembering to call
/// [`MemoryLedger::release`].
#[derive(Debug)]
#[must_use = "dropping immediately releases the reservation"]
pub struct Reservation<'a> {
    ledger: &'a MemoryLedger,
    bytes: u64,
}

impl Reservation<'_> {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Consumes the guard *without* releasing: ownership of the bytes
    /// passes to the caller's own accounting, which must eventually
    /// [`MemoryLedger::release`] them (e.g. on cache eviction).
    pub fn commit(mut self) {
        self.bytes = 0;
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            self.ledger.release(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::h100;

    #[test]
    fn reserve_release_roundtrip() {
        let ledger = MemoryLedger::new(100);
        assert!(ledger.try_reserve(60));
        assert!(!ledger.try_reserve(50), "would exceed the budget");
        assert_eq!(ledger.used(), 60, "failed reserve must charge nothing");
        assert!(ledger.try_reserve(40));
        assert_eq!(ledger.available(), 0);
        ledger.release(100);
        assert_eq!(ledger.used(), 0);
        ledger.release(1); // over-release clamps instead of wrapping
        assert_eq!(ledger.used(), 0);
    }

    #[test]
    fn device_budget_matches_fits_rule() {
        let hw = h100();
        let budget = hw.budget_bytes();
        assert!(hw.fits(budget), "the budget itself must fit");
        // The budget is maximal up to rounding: 1% more must not fit.
        assert!(!hw.fits(budget + budget / 100));
        let ledger = MemoryLedger::for_device(&hw);
        assert_eq!(ledger.budget(), budget);
    }

    #[test]
    fn reservation_guard_releases_on_drop_and_not_on_commit() {
        let ledger = MemoryLedger::new(100);
        {
            let g = ledger.try_reserve_guard(60).unwrap();
            assert_eq!(ledger.used(), 60);
            assert_eq!(g.bytes(), 60);
            assert!(ledger.try_reserve_guard(50).is_none(), "over budget");
        } // dropped without commit: released
        assert_eq!(ledger.used(), 0);
        let g = ledger.try_reserve_guard(70).unwrap();
        g.commit(); // ownership handed over: stays reserved
        assert_eq!(ledger.used(), 70);
        ledger.release(70);
        assert_eq!(ledger.used(), 0);
        // A panic while holding the guard must release too.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = ledger.try_reserve_guard(30).unwrap();
            panic!("solve failed");
        }));
        assert!(r.is_err());
        assert_eq!(ledger.used(), 0, "panic path must return the bytes");
    }

    #[test]
    fn concurrent_reservations_never_overshoot() {
        let ledger = MemoryLedger::new(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if ledger.try_reserve(7) {
                            ledger.release(7);
                        }
                    }
                });
            }
        });
        assert_eq!(ledger.used(), 0);
    }
}
