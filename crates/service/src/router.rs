//! The fleet's placement policy: pure scoring over per-device
//! snapshots, kept free of locks and service handles so the decision
//! rule is unit-testable in isolation.
//!
//! A placement decision ranks the devices that *can* plan a signature
//! (the paper's Table 2 support matrix plus the device-memory capacity
//! rule, both answered by `PlanSignature::probe` without building a
//! plan) by, in order:
//!
//! 1. **memory fit** — devices whose ledger headroom can admit the
//!    plan's working set outrank devices that would have to evict;
//! 2. **load** — fewer in-flight requests win (queue depth plus
//!    executing batches plus blocking solves, the
//!    `QueueStats::in_flight` gauge);
//! 3. **headroom fraction** — more *relative* free budget wins, which
//!    compares devices of very different sizes fairly;
//! 4. **index** — lowest wins, making ties deterministic.

use std::collections::HashMap;
use unisvd_core::PlanSignature;

/// Where one signature's requests go: a primary backend, an optional
/// hot-signature replica, and how many requests it has served —
/// the hotness signal (each served request past the first is a cache
/// hit on its backend) that triggers replication.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Placement {
    pub primary: usize,
    pub replica: Option<usize>,
    pub served: u64,
}

/// The placement map: request signature (retargeted to backend 0, so
/// the key is device-agnostic) → decision, amortized across every
/// subsequent request of the signature (the FFTW-wisdom argument,
/// applied to routing).
pub(crate) type PlacementMap = HashMap<PlanSignature, Placement>;

/// One device's placement inputs, snapshotted at decision time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    /// Backend index in the fleet.
    pub index: usize,
    /// Whether the plan's working set fits the ledger's current
    /// headroom without evicting residents.
    pub fits: bool,
    /// The `QueueStats::in_flight` gauge at decision time.
    pub in_flight: u64,
    /// Ledger headroom as a fraction of the device budget, `[0, 1]`.
    pub headroom: f64,
}

impl Candidate {
    /// Whether this candidate outranks `other` under the policy
    /// ordering (fit, then load, then relative headroom, then index).
    fn beats(&self, other: &Candidate) -> bool {
        if self.fits != other.fits {
            return self.fits;
        }
        if self.in_flight != other.in_flight {
            return self.in_flight < other.in_flight;
        }
        if self.headroom != other.headroom {
            return self.headroom > other.headroom;
        }
        self.index < other.index
    }
}

/// The best backend among `candidates` (every entry is already vetted
/// as *able* to plan the signature — support and capacity checked by
/// probe), or `None` when no device can serve it.
pub(crate) fn best(candidates: &[Candidate]) -> Option<usize> {
    candidates
        .iter()
        .fold(None::<&Candidate>, |best, c| match best {
            Some(b) if b.beats(c) => Some(b),
            _ => Some(c),
        })
        .map(|c| c.index)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(index: usize, fits: bool, in_flight: u64, headroom: f64) -> Candidate {
        Candidate {
            index,
            fits,
            in_flight,
            headroom,
        }
    }

    #[test]
    fn fit_outranks_everything() {
        // A loaded device that can admit the plan beats an idle one
        // that would have to evict.
        let picked = best(&[c(0, false, 0, 1.0), c(1, true, 9, 0.1)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn load_breaks_fit_ties_then_headroom_then_index() {
        assert_eq!(best(&[c(0, true, 3, 0.9), c(1, true, 1, 0.2)]), Some(1));
        assert_eq!(best(&[c(0, true, 2, 0.3), c(1, true, 2, 0.8)]), Some(1));
        assert_eq!(
            best(&[c(1, true, 2, 0.5), c(0, true, 2, 0.5)]),
            Some(0),
            "full tie resolves to the lowest index, deterministically"
        );
    }

    #[test]
    fn empty_candidate_set_is_unroutable() {
        assert_eq!(best(&[]), None);
    }
}
