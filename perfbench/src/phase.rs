//! What one timed phase of a workload measured, before it becomes
//! metrics.

use std::time::Duration;
use unisvd_gpu::{KernelClass, TraceSummary};
use unisvd_service::ServiceStats;

/// Simulated-device totals over the solves of a phase, from each
/// `SvdOutput.summary`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimAcc {
    pub solves: u64,
    pub total_s: f64,
    pub stage1_s: f64,
    pub chase_s: f64,
    pub stage3_s: f64,
    pub other_s: f64,
    pub launches: f64,
    pub stage1_flops: f64,
    pub stage1_bytes: f64,
}

impl SimAcc {
    pub fn add(&mut self, s: &TraceSummary) {
        use KernelClass::*;
        self.solves += 1;
        self.total_s += s.total_seconds();
        for (class, t) in &s.by_class {
            match class {
                PanelFactorization | TrailingUpdate => {
                    self.stage1_s += t.seconds;
                    self.stage1_flops += t.flops;
                    self.stage1_bytes += t.bytes;
                }
                BandToBidiagonal => self.chase_s += t.seconds,
                BidiagonalSvd => self.stage3_s += t.seconds,
                Transfer | Other => self.other_s += t.seconds,
            }
        }
        self.launches += s.total_launches() as f64;
    }

    /// Mean per solve of a total (0 with no solves).
    pub fn per_solve(&self, total: f64) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            total / self.solves as f64
        }
    }
}

/// Service counters moved during a phase (`SvdService::stats` deltas).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub submitted: u64,
    pub coalesced: u64,
    pub batches: u64,
    pub failures: u64,
    pub refused: u64,
}

impl ServiceDelta {
    pub fn between(a: &ServiceStats, b: &ServiceStats) -> Self {
        ServiceDelta {
            hits: b.cache.hits - a.cache.hits,
            misses: b.cache.misses - a.cache.misses,
            evictions: b.cache.evictions - a.cache.evictions,
            submitted: b.queue.submitted - a.queue.submitted,
            coalesced: b.queue.coalesced - a.queue.coalesced,
            batches: b.queue.batches - a.queue.batches,
            failures: b.cache.failures - a.cache.failures,
            refused: (b.queue.rejected + b.queue.shed) - (a.queue.rejected + a.queue.shed),
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    pub fn coalesce_ratio(&self) -> f64 {
        ratio(self.coalesced, self.submitted)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One timed phase: every request attempted, with its latency and the
/// generator's lateness in issuing it.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Requests that returned an error or were refused.
    pub failed: u64,
    /// Requests whose values fell outside the precision's tolerance.
    pub wrong: u64,
    pub latency_ms: Vec<f64>,
    /// Completion time of each latency sample, seconds since the phase
    /// began, ascending.
    pub done_s: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub sim: SimAcc,
    pub service: Option<ServiceDelta>,
}

impl Phase {
    /// Records one completed request.
    pub fn complete(&mut self, latency: Duration, done: Duration) {
        self.latency_ms.push(ms(latency));
        self.done_s.push(done.as_secs_f64());
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
