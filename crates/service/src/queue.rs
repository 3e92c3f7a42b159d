//! The bounded submission queue behind
//! [`SvdService::submit`](crate::SvdService::submit), and the coalescing
//! pop the drainer thread runs.
//!
//! FIFO with two twists:
//!
//! * **bounded admission** — [`try_push`](SubmitQueue::try_push) refuses
//!   entries past a depth bound instead of growing without limit, which
//!   is the `QueueFull` backpressure signal of the service;
//! * **signature-coalescing pop** — [`next_batch`](SubmitQueue::next_batch)
//!   takes the head entry's [`PlanSignature`] and gathers every queued
//!   same-signature request, so requests from *different* callers that
//!   piled up while the previous batch executed run as one batched
//!   fan-out. It batches what is queued; only an explicit window holds
//!   the batch open for stragglers. Extraction preserves arrival order
//!   within the signature, which keeps ticket resolution order
//!   deterministic.

use crate::ticket::TicketResolver;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use unisvd_core::PlanSignature;

/// One submitted, not-yet-executed request.
pub(crate) struct Pending {
    /// The cache key — also the coalescing key.
    pub sig: PlanSignature,
    /// The type-erased `Matrix<T>`; `sig.precision` encodes `T`, so the
    /// drainer's downcast is infallible by construction.
    pub mat: Box<dyn Any + Send>,
    /// Resolves the submitter's ticket.
    pub resolver: TicketResolver,
    /// Submit-time deadline: the drainer resolves the ticket with
    /// `SvdError::Timeout` instead of executing once this instant has
    /// passed. `None` (the default) never expires.
    pub deadline: Option<Instant>,
}

struct Inner {
    entries: VecDeque<Pending>,
    shutdown: bool,
    /// Device loss: unlike `shutdown` (drain, then stop), a failed queue
    /// stops *immediately* — `next_batch` returns exhaustion even with
    /// entries queued (they will be re-routed, not executed here) and
    /// every further push is refused.
    failed: bool,
}

pub(crate) struct SubmitQueue {
    inner: Mutex<Inner>,
    /// Signaled on every push and on shutdown.
    arrived: Condvar,
}

impl SubmitQueue {
    pub fn new() -> Self {
        SubmitQueue {
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                shutdown: false,
                failed: false,
            }),
            arrived: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `p` unless the queue already holds `max_depth` entries
    /// (or has failed); on refusal the entry is handed back so the
    /// caller can divert it — a fleet retries the next-best device —
    /// instead of losing its ticket resolver. The depth check and the
    /// append are one critical section, so concurrent submitters can
    /// never overshoot the bound.
    #[allow(clippy::result_large_err)] // Err IS the handed-back entry, not a descriptor
    pub fn try_push(&self, p: Pending, max_depth: usize) -> Result<(), Pending> {
        {
            let mut g = self.lock();
            if g.failed || g.entries.len() >= max_depth.max(1) {
                return Err(p);
            }
            g.entries.push_back(p);
        }
        self.arrived.notify_all();
        Ok(())
    }

    /// [`try_push`](Self::try_push) for fleet re-routing: no depth bound
    /// (the entry was admitted once already), and on refusal — this
    /// queue failed too — the entry is handed back instead of dropped,
    /// so its ticket's resolver survives for another route.
    #[allow(clippy::result_large_err)] // Err IS the handed-back entry, not a descriptor
    pub fn adopt_push(&self, p: Pending) -> Result<(), Pending> {
        {
            let mut g = self.lock();
            if g.failed {
                return Err(p);
            }
            g.entries.push_back(p);
        }
        self.arrived.notify_all();
        Ok(())
    }

    /// Entries currently queued.
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.lock().entries.len()
    }

    /// Wakes the drainer for a final sweep; `next_batch` keeps returning
    /// batches until the queue is empty, then reports exhaustion — no
    /// accepted entry is ever dropped unresolved by an orderly shutdown.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.arrived.notify_all();
    }

    /// Marks the queue failed (simulated device loss): `next_batch`
    /// reports exhaustion immediately — *without* draining, unlike
    /// [`shutdown`](Self::shutdown) — and every later push is refused.
    /// Queued entries stay put for [`drain_remaining`](Self::drain_remaining).
    pub fn fail(&self) {
        self.lock().failed = true;
        self.arrived.notify_all();
    }

    /// Removes and returns every queued entry, in arrival order — the
    /// re-route inventory after [`fail`](Self::fail).
    pub fn drain_remaining(&self) -> Vec<Pending> {
        self.lock().entries.drain(..).collect()
    }

    /// Clears the failed flag set by [`fail`](Self::fail): pushes are
    /// admitted again and `next_batch` blocks for work as on a fresh
    /// queue. The service side must restart a drainer (the old one
    /// exited on failure) — `SvdService` does this lazily on the next
    /// submit.
    pub fn revive(&self) {
        self.lock().failed = false;
        self.arrived.notify_all();
    }

    /// Blocks until at least one entry is queued, then fills `batch`
    /// with up to `max_coalesce` entries carrying the head's signature,
    /// in arrival order — holding the batch open up to `window` for
    /// same-signature stragglers (closing early once `max_coalesce` is
    /// reached, or on shutdown). Returns `false` only when the queue is
    /// empty *and* shut down.
    pub fn next_batch(
        &self,
        window: Duration,
        max_coalesce: usize,
        batch: &mut Vec<Pending>,
    ) -> bool {
        batch.clear();
        let max_coalesce = max_coalesce.max(1);
        let mut g = self.lock();
        loop {
            if g.failed {
                return false;
            }
            if !g.entries.is_empty() {
                break;
            }
            if g.shutdown {
                return false;
            }
            g = self.arrived.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let sig = g.entries[0].sig;
        if window > Duration::ZERO {
            let deadline = Instant::now() + window;
            loop {
                let same = g.entries.iter().filter(|p| p.sig == sig).count();
                if same >= max_coalesce || g.shutdown || g.failed {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, result) = self
                    .arrived
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                g = guard;
                if result.timed_out() {
                    break;
                }
            }
            // Failed while the batch was held open: leave everything
            // queued for the re-route drain instead of executing it.
            if g.failed {
                return false;
            }
        }
        let mut i = 0;
        while i < g.entries.len() && batch.len() < max_coalesce {
            if g.entries[i].sig == sig {
                batch.push(g.entries.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::ticket_pair;
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

    fn pending(rows: usize) -> Pending {
        let (_, resolver) = ticket_pair();
        Pending {
            sig: sig(rows),
            mat: Box::new(()),
            resolver,
            deadline: None,
        }
    }

    #[test]
    fn depth_bound_is_exact() {
        let q = SubmitQueue::new();
        assert!(q.try_push(pending(8), 2).is_ok());
        assert!(q.try_push(pending(8), 2).is_ok());
        assert!(
            q.try_push(pending(8), 2).is_err(),
            "third entry exceeds depth 2"
        );
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn next_batch_coalesces_same_signature_in_order() {
        let q = SubmitQueue::new();
        // Interleave two signatures; the first batch must take exactly
        // the head-signature entries, preserving their order.
        for rows in [8, 16, 8, 8, 16] {
            assert!(q.try_push(pending(rows), 100).is_ok());
        }
        let mut batch = Vec::new();
        assert!(q.next_batch(Duration::ZERO, 64, &mut batch));
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|p| p.sig == sig(8)));
        assert_eq!(q.depth(), 2);
        assert!(q.next_batch(Duration::ZERO, 64, &mut batch));
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|p| p.sig == sig(16)));
        // Cap: a bound of 1 splits a same-signature run.
        assert!(q.try_push(pending(8), 100).is_ok());
        assert!(q.try_push(pending(8), 100).is_ok());
        assert!(q.next_batch(Duration::ZERO, 1, &mut batch));
        assert_eq!(batch.len(), 1);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn shutdown_drains_then_reports_exhaustion() {
        let q = SubmitQueue::new();
        assert!(q.try_push(pending(8), 100).is_ok());
        q.shutdown();
        let mut batch = Vec::new();
        assert!(
            q.next_batch(Duration::from_millis(50), 64, &mut batch),
            "queued work survives shutdown"
        );
        assert_eq!(batch.len(), 1);
        assert!(!q.next_batch(Duration::ZERO, 64, &mut batch));
    }

    #[test]
    fn fail_stops_immediately_and_keeps_entries_for_reroute() {
        let q = SubmitQueue::new();
        assert!(q.try_push(pending(8), 100).is_ok());
        assert!(q.try_push(pending(16), 100).is_ok());
        q.fail();
        let mut batch = Vec::new();
        assert!(
            !q.next_batch(Duration::ZERO, 64, &mut batch),
            "a failed queue stops before draining (shutdown would drain)"
        );
        assert!(
            q.try_push(pending(8), 100).is_err(),
            "no admission after failure"
        );
        assert!(q.adopt_push(pending(8)).is_err(), "no adoption either");
        let orphans = q.drain_remaining();
        assert_eq!(orphans.len(), 2, "queued entries survive for re-routing");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn revive_clears_failure_and_readmits() {
        let q = SubmitQueue::new();
        q.fail();
        assert!(q.try_push(pending(8), 100).is_err());
        q.revive();
        assert!(q.try_push(pending(8), 100).is_ok(), "admission restored");
        let mut batch = Vec::new();
        assert!(q.next_batch(Duration::ZERO, 64, &mut batch));
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn window_waits_for_stragglers() {
        let q = SubmitQueue::new();
        assert!(q.try_push(pending(8), 100).is_ok());
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                assert!(q.try_push(pending(8), 100).is_ok());
            });
            let mut batch = Vec::new();
            assert!(q.next_batch(Duration::from_millis(500), 2, &mut batch));
            assert_eq!(batch.len(), 2, "the straggler joined the batch");
        });
    }
}
