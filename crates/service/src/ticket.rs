//! Completion tickets for asynchronous submissions.
//!
//! [`SvdService::submit`](crate::SvdService::submit) returns a
//! [`Ticket`] immediately; the drainer thread resolves it once the
//! request's coalesced batch has executed. A ticket is a one-shot,
//! single-consumer slot: the service side holds the matching
//! [`TicketResolver`], and `resolve` consumes it — so a ticket can never
//! be resolved twice, and a resolver dropped without resolving (a
//! drainer panic) resolves the slot with [`SvdError::Abandoned`] instead
//! of leaving waiters blocked forever.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use unisvd_core::{SvdError, SvdOutput};

/// The one-shot slot a ticket and its resolver share: `None` while the
/// request is pending, then its result until [`Ticket::wait`] takes it.
struct Slot {
    state: Mutex<Option<Result<SvdOutput, SvdError>>>,
    done: Condvar,
}

impl Slot {
    /// The state, robust against poisoning: a panicking waiter must not
    /// wedge the resolver (or vice versa).
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Result<SvdOutput, SvdError>>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores the result and wakes the waiter.
    fn fill(&self, result: Result<SvdOutput, SvdError>) {
        *self.lock() = Some(result);
        self.done.notify_all();
    }
}

/// A claim on the result of one submitted request (from
/// [`SvdService::submit`](crate::SvdService::submit)).
///
/// Single-consumer: [`wait`](Ticket::wait) consumes the ticket and
/// returns the request's result exactly once.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request has executed and returns its result —
    /// exactly what [`solve`](crate::SvdService::solve) would have
    /// returned for the same matrix and configuration (bit-identical
    /// values; errors included, so one failing request in a coalesced
    /// batch surfaces only on its own ticket). If the service dropped
    /// the request without resolving it (its drainer died), the result
    /// is [`SvdError::Abandoned`].
    pub fn wait(self) -> Result<SvdOutput, SvdError> {
        self.wait_until(None)
            .expect("a wait without a deadline cannot time out")
    }

    /// [`wait`](Ticket::wait) with a deadline: blocks at most `timeout`
    /// and returns [`SvdError::Timeout`] if the result has not arrived
    /// by then.
    ///
    /// Giving up is clean by construction: the ticket (and its half of
    /// the slot) is dropped, and when the drainer later resolves the
    /// request, the resolver's write into the now-waiterless slot is a
    /// silent no-op — never a panic, never a leak. The service still
    /// executes the request (its in-flight accounting completes
    /// normally); only the *caller* stops waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<SvdOutput, SvdError> {
        self.wait_until(Some(Instant::now() + timeout))
            .unwrap_or(Err(SvdError::Timeout { waited: timeout }))
    }

    /// The wait loop behind [`wait`](Ticket::wait) and
    /// [`wait_timeout`](Ticket::wait_timeout): blocks until the result
    /// arrives (`Some`) or `deadline` passes first (`None`).
    fn wait_until(self, deadline: Option<Instant>) -> Option<Result<SvdOutput, SvdError>> {
        let mut st = self.slot.lock();
        loop {
            if let Some(r) = st.take() {
                return Some(r);
            }
            st = match deadline {
                None => self.slot.done.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.slot
                        .done
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Whether the result has arrived (a non-blocking probe;
    /// [`wait`](Ticket::wait) will not block once this returns `true`).
    pub fn is_done(&self) -> bool {
        self.slot.lock().is_some()
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.is_done() { "done" } else { "pending" };
        write!(f, "Ticket({state})")
    }
}

/// The service-side half of a [`Ticket`]: consumed by
/// [`resolve`](TicketResolver::resolve), so every ticket is resolved at
/// most once by construction.
pub(crate) struct TicketResolver {
    slot: Arc<Slot>,
    resolved: bool,
}

impl TicketResolver {
    /// Delivers the request's result and wakes the waiter.
    pub fn resolve(mut self, result: Result<SvdOutput, SvdError>) {
        self.resolved = true;
        self.slot.fill(result);
    }
}

impl Drop for TicketResolver {
    fn drop(&mut self) {
        if !self.resolved {
            // Dropped without resolving (drainer panic mid-batch): fail
            // the waiter with a typed error instead of leaving it hanging.
            self.slot.fill(Err(SvdError::Abandoned));
        }
    }
}

/// A fresh pending ticket and its resolver.
pub(crate) fn ticket_pair() -> (Ticket, TicketResolver) {
    let slot = Arc::new(Slot {
        state: Mutex::new(None),
        done: Condvar::new(),
    });
    (
        Ticket { slot: slot.clone() },
        TicketResolver {
            slot,
            resolved: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_then_wait_delivers() {
        let (ticket, resolver) = ticket_pair();
        assert!(!ticket.is_done());
        resolver.resolve(Ok(SvdOutput::empty()));
        assert!(ticket.is_done());
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn wait_blocks_until_resolved_across_threads() {
        let (ticket, resolver) = ticket_pair();
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        resolver.resolve(Err(SvdError::ShapeMismatch {
            expected: (4, 4),
            got: (2, 2),
        }));
        assert!(waiter.join().unwrap().is_err());
    }

    #[test]
    fn wait_timeout_times_out_and_late_resolve_is_silent() {
        let (ticket, resolver) = ticket_pair();
        let r = ticket.wait_timeout(Duration::from_millis(10));
        assert!(matches!(r, Err(SvdError::Timeout { .. })));
        // The waiter gave up and its slot half is gone; the drainer's
        // eventual resolve must be a silent no-op, not a panic.
        resolver.resolve(Ok(SvdOutput::empty()));
    }

    #[test]
    fn wait_timeout_delivers_a_result_that_arrives_in_time() {
        let (ticket, resolver) = ticket_pair();
        let waiter = std::thread::spawn(move || ticket.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(5));
        resolver.resolve(Ok(SvdOutput::empty()));
        assert!(waiter.join().unwrap().is_ok(), "no spurious timeout");
    }

    #[test]
    fn dropped_resolver_fails_the_waiter_instead_of_hanging() {
        let (ticket, resolver) = ticket_pair();
        drop(resolver);
        assert!(ticket.is_done(), "abandoned ticket must fail fast");
        let err = ticket.wait().unwrap_err();
        assert_eq!(err, SvdError::Abandoned);
        assert!(
            !err.is_transient(),
            "retrying an abandoned request repeats it"
        );
    }
}
