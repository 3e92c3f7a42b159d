//! [`SvdService`]: the request-facing serving layer.

use crate::cache::{CachedPlan, PlanCache};
use crate::queue::{Pending, SubmitQueue};
use crate::ticket::{ticket_pair, Ticket};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use unisvd_core::{PlanError, PlanSignature, Svd, SvdConfig, SvdError, SvdOutput, SvdPlan};
use unisvd_gpu::{DeviceFault, FaultInjector, FaultKind, HardwareDescriptor, MemoryLedger};
use unisvd_matrix::Matrix;
use unisvd_oocore::OutOfCore;
use unisvd_scalar::{PrecisionKind, Scalar, F16};

/// The service's internal tuning knobs — the values [`ServiceBuilder`]
/// accumulates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Knobs {
    /// Independently locked cache shards (`0` clamps to 1).
    pub shards: usize,
    /// Resident-plan bound per shard (`0` disables caching).
    pub plans_per_shard: usize,
    /// Device-memory budget for resident plans; `None` = device budget.
    pub max_cache_bytes: Option<u64>,
    /// Submission-queue depth bound (`0` clamps to 1).
    pub max_queue_depth: usize,
    /// How long the drainer holds a batch open for stragglers; zero
    /// batches only what is already queued.
    pub coalesce_window: Duration,
    /// Most requests coalesced into one batched execute (`0` clamps to 1).
    pub max_coalesce: usize,
    /// Admission floor on ledger headroom; `0` disables shedding.
    pub shed_headroom_bytes: u64,
    /// Route oocore-eligible over-capacity rejections through the
    /// out-of-core streaming path instead of failing them.
    pub oocore_fallback: bool,
    /// Bounded retries for transient device faults (`0` disables).
    pub retries: usize,
    /// Run `SvdOutput::verify` on every solve; a failing check is
    /// treated as transient corruption (retried, then surfaced).
    pub verify_outputs: bool,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            shards: 8,
            plans_per_shard: 32,
            max_cache_bytes: None,
            max_queue_depth: 1024,
            coalesce_window: Duration::ZERO,
            max_coalesce: 64,
            shed_headroom_bytes: 0,
            oocore_fallback: false,
            retries: 0,
            verify_outputs: false,
        }
    }
}

/// Accumulates an [`SvdService`]'s tuning knobs, then
/// [`build`](Self::build)s it. Obtained from [`SvdService::builder`];
/// `SvdService::builder(&hw).build()` ≡ `SvdService::new(&hw)`. A fleet
/// applies the same knob methods to every backend through
/// [`FleetBuilder::backends`](crate::FleetBuilder::backends).
///
/// ```
/// use std::time::Duration;
/// use unisvd_gpu::hw;
/// use unisvd_service::SvdService;
///
/// let service = SvdService::builder(&hw::mi250())
///     .shards(2)
///     .plans_per_shard(8)
///     .memory_budget(64 << 20)
///     .queue_depth(128)
///     .coalesce_window(Duration::from_micros(200))
///     .max_coalesce(16)
///     .shed_headroom(1 << 20)
///     .build();
/// assert_eq!(service.cache_budget_bytes(), 64 << 20);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceBuilder {
    hw: HardwareDescriptor,
    knobs: Knobs,
}

impl ServiceBuilder {
    /// Number of independently locked cache shards (`0` is clamped to
    /// 1). More shards mean less lock contention between unrelated
    /// signatures; the default (8) is ample for the lock hold times
    /// involved (map operations only — never a solve).
    pub fn shards(mut self, shards: usize) -> Self {
        self.knobs.shards = shards;
        self
    }

    /// Resident-plan bound per shard. `0` disables caching entirely:
    /// every request plans from scratch (the cold-path baseline the
    /// throughput bench measures against). Default 32.
    pub fn plans_per_shard(mut self, plans: usize) -> Self {
        self.knobs.plans_per_shard = plans;
        self
    }

    /// Device-memory budget for all resident plans, in bytes. When not
    /// set, the device's full budget applies (memory net of the 25%
    /// workspace headroom — the same rule behind
    /// `PlanError::ExceedsDeviceMemory`).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.knobs.max_cache_bytes = Some(bytes);
        self
    }

    /// Submission-queue depth bound: [`SvdService::submit`] returns
    /// [`ServiceError::QueueFull`] once this many requests are queued
    /// unexecuted (`0` is clamped to 1). Default 1024.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.knobs.max_queue_depth = depth;
        self
    }

    /// How long the drainer holds a batch open for further
    /// same-signature arrivals after the first — the coalescing window.
    /// Default `Duration::ZERO`: the drainer batches what is already
    /// queued and never idles waiting for stragglers. Under load that
    /// still coalesces, because requests pile up while the previous
    /// batch executes. A window trades latency for batch size; it helps
    /// a caller that wants bigger batches across callers who arrive
    /// apart.
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.knobs.coalesce_window = window;
        self
    }

    /// Most requests coalesced into one batched execute (`0` is clamped
    /// to 1). Default 64, matching the batch executor's chunk bound.
    pub fn max_coalesce(mut self, max: usize) -> Self {
        self.knobs.max_coalesce = max;
        self
    }

    /// Admission floor on device-memory headroom: a submission whose
    /// plan is *not* resident (it may need new device memory) is refused
    /// with [`ServiceError::Shedding`] while the cache ledger's
    /// available bytes are below this. Resident-signature requests are
    /// always admitted — they need no new memory. `0` (the default)
    /// disables shedding.
    pub fn shed_headroom(mut self, bytes: u64) -> Self {
        self.knobs.shed_headroom_bytes = bytes;
        self
    }

    /// Out-of-core fallback: when enabled, a request the planner rejects
    /// as over-capacity — but which [`unisvd_core::PlanProbe`] marks
    /// `oocore_eligible` — is solved through the out-of-core streaming
    /// path ([`unisvd_oocore::OutOfCore`], one transfer per tile sized
    /// from the device budget) instead of returning
    /// `PlanError::ExceedsDeviceMemory`. Values are bit-identical to a
    /// device large enough to hold the operand; a device too small to
    /// stream even one element still fails, with the out-of-core
    /// planner's `ExceedsDeviceMemory { oocore_eligible: false, .. }`.
    /// Off by default: the
    /// streaming path trades extra transfer cost for feasibility, which
    /// a latency-sensitive deployment may prefer to refuse outright.
    pub fn oocore_fallback(mut self, enabled: bool) -> Self {
        self.knobs.oocore_fallback = enabled;
        self
    }

    /// Bounded retries for *transient* faults
    /// ([`SvdError::is_transient`]): a solve that fails with a
    /// recoverable device fault is re-attempted up to `retries` more
    /// times, each attempt checking its plan out of the cache afresh.
    /// Terminal faults (device death) and non-fault errors are never
    /// retried. Retries run immediately: faults in the simulated runtime
    /// are schedule-driven, not congestion-driven. `0` (the default)
    /// disables retry.
    pub fn retry(mut self, retries: usize) -> Self {
        self.knobs.retries = retries;
        self
    }

    /// Run [`SvdOutput::verify`] on every solve result. A failing check
    /// (non-finite or disordered values, denormalized vectors) is
    /// treated as transient corruption — retried under the
    /// [`retry`](Self::retry) policy, then surfaced as
    /// [`SvdError::DeviceFault`]. Off by default: the check costs a few
    /// passes over the output and the fault-free runtime cannot produce
    /// a corrupt result.
    pub fn verify_outputs(mut self, enabled: bool) -> Self {
        self.knobs.verify_outputs = enabled;
        self
    }

    /// The configured service.
    pub fn build(self) -> SvdService {
        let ServiceBuilder { hw, knobs } = self;
        let budget = knobs.max_cache_bytes.unwrap_or_else(|| hw.budget_bytes());
        // A faulted descriptor injects into the cache ledger too: plan
        // publishes can transiently fail their reservation, exactly like
        // a real allocator under pressure.
        let mut ledger = MemoryLedger::new(budget);
        if let Some(plan) = hw.fault.clone().filter(|p| p.is_active()) {
            ledger = ledger.with_fault_injector(FaultInjector::new(plan, hw.name));
        }
        SvdService {
            inner: Arc::new(Inner {
                hw,
                cache: PlanCache::new(knobs.shards.max(1), knobs.plans_per_shard, ledger),
                knobs,
                queue: SubmitQueue::new(),
                failures: AtomicU64::new(0),
                submitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                fault_streak: AtomicU64::new(0),
                #[cfg(test)]
                panic_next_group: std::sync::atomic::AtomicBool::new(false),
            }),
            drainer: Mutex::new(None),
        }
    }
}

/// Typed backpressure from [`SvdService::submit`]: the request was
/// refused *at admission* — nothing was queued, no ticket exists, and
/// the caller should retry later or divert load.
///
/// Convertible into [`SvdError`] (as `SvdError::Rejected`) so callers
/// mixing plan-level and service-level fallibility can `?` across both
/// layers with one error type.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The submission queue is at its depth bound
    /// ([`ServiceBuilder::queue_depth`]): the drainer is not keeping
    /// up with arrivals.
    QueueFull {
        /// The configured depth bound that was hit.
        depth: usize,
    },
    /// Device-memory headroom is below the admission floor
    /// ([`ServiceBuilder::shed_headroom`]) and this request's plan
    /// is not resident, so serving it could need memory the device
    /// cannot spare.
    Shedding {
        /// Ledger bytes still available when the request was refused.
        available_bytes: u64,
    },
    /// No device in the fleet can plan this signature: every backend
    /// either rejects the `(backend, precision)` pair (the paper's
    /// Table 2 support matrix) or lacks the device memory for the
    /// shape. Only [`SvdFleet`](crate::SvdFleet) routing produces this —
    /// a single service surfaces the underlying `PlanError` instead.
    NoDeviceSupports {
        /// The requested signature (its `device` field names the fleet's
        /// first backend; the rejection applies to every backend).
        signature: PlanSignature,
    },
    /// The submission carried a deadline that had already expired at
    /// admission time (a zero or elapsed budget): refusing up front is
    /// strictly better than queueing work whose answer nobody will wait
    /// for.
    Timeout {
        /// The deadline budget the submission arrived with.
        waited: Duration,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { depth } => {
                write!(f, "submission queue full ({depth} requests pending)")
            }
            ServiceError::Shedding { available_bytes } => write!(
                f,
                "shedding non-resident request ({available_bytes} bytes of headroom left)"
            ),
            ServiceError::NoDeviceSupports { signature } => write!(
                f,
                "no fleet device supports {:?} {}x{}",
                signature.precision, signature.rows, signature.cols
            ),
            ServiceError::Timeout { waited } => {
                write!(f, "deadline expired at admission (budget {waited:.1?})")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for SvdError {
    /// Folds an admission rejection into the plan API's error type so a
    /// caller holding results from both layers can `?` through one error
    /// type: deadline refusals map onto [`SvdError::Timeout`] (the same
    /// variant [`Ticket::wait_timeout`](crate::Ticket::wait_timeout)
    /// produces), everything else onto [`SvdError::Rejected`].
    fn from(e: ServiceError) -> SvdError {
        match e {
            ServiceError::Timeout { waited } => SvdError::Timeout { waited },
            other => SvdError::Rejected {
                reason: other.to_string(),
            },
        }
    }
}

/// A point-in-time snapshot of the cache's behavior counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served by a resident plan.
    pub hits: u64,
    /// Requests that had to build a plan.
    pub misses: u64,
    /// Plans pushed out by the capacity or memory bound.
    pub evictions: u64,
    /// Plans dropped on return: a concurrent same-signature caller
    /// returned first, caching is disabled, or the plan alone exceeds
    /// the memory budget.
    pub discards: u64,
    /// Requests that returned an error (per request, not per batch: one
    /// failing request in a coalesced group counts once and the others
    /// not at all).
    pub failures: u64,
    /// Plans currently resident.
    pub resident_plans: usize,
    /// Device bytes currently pinned by resident plans.
    pub resident_bytes: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses, {} evictions, {} discards, {} failures, {} resident ({} bytes)",
            self.hits,
            self.misses,
            self.evictions,
            self.discards,
            self.failures,
            self.resident_plans,
            self.resident_bytes
        )
    }
}

/// A point-in-time snapshot of the submission queue's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted by [`submit`](SvdService::submit).
    pub submitted: u64,
    /// Submissions refused with [`ServiceError::QueueFull`].
    pub rejected: u64,
    /// Submissions refused with [`ServiceError::Shedding`].
    pub shed: u64,
    /// Batches the drainer executed.
    pub batches: u64,
    /// Requests that rode along in a batch behind its first request —
    /// `submitted - batches` once the queue is drained; the direct
    /// measure of cross-caller coalescing.
    pub coalesced: u64,
    /// Requests accepted but not yet resolved, plus blocking solves in
    /// progress — a *gauge*, not a counter: the instantaneous load the
    /// fleet router compares across devices when placing a signature.
    pub in_flight: u64,
}

impl std::fmt::Display for QueueStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted ({} rejected, {} shed), {} batches, {} coalesced, {} in flight",
            self.submitted, self.rejected, self.shed, self.batches, self.coalesced, self.in_flight
        )
    }
}

/// One coherent snapshot of a service: its plan-cache counters and its
/// submission-queue counters, taken together. Returned by
/// [`SvdService::stats`]; [`SvdFleet::stats`](crate::SvdFleet::stats)
/// sums these across backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// The plan cache's counters and residency.
    pub cache: CacheStats,
    /// The submission queue's counters and in-flight gauge.
    pub queue: QueueStats,
}

impl ServiceStats {
    /// Field-wise sum — how a fleet aggregates per-backend snapshots
    /// into one. Counters add; the residency and in-flight gauges add
    /// too (total resident plans / total outstanding load across
    /// devices).
    pub fn merge(&self, other: &ServiceStats) -> ServiceStats {
        ServiceStats {
            cache: CacheStats {
                hits: self.cache.hits + other.cache.hits,
                misses: self.cache.misses + other.cache.misses,
                evictions: self.cache.evictions + other.cache.evictions,
                discards: self.cache.discards + other.cache.discards,
                failures: self.cache.failures + other.cache.failures,
                resident_plans: self.cache.resident_plans + other.cache.resident_plans,
                resident_bytes: self.cache.resident_bytes + other.cache.resident_bytes,
            },
            queue: QueueStats {
                submitted: self.queue.submitted + other.queue.submitted,
                rejected: self.queue.rejected + other.queue.rejected,
                shed: self.queue.shed + other.queue.shed,
                batches: self.queue.batches + other.queue.batches,
                coalesced: self.queue.coalesced + other.queue.coalesced,
                in_flight: self.queue.in_flight + other.queue.in_flight,
            },
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache: {}; queue: {}", self.cache, self.queue)
    }
}

/// Everything the drainer thread shares with the request-facing handle.
pub(crate) struct Inner {
    hw: HardwareDescriptor,
    cache: PlanCache,
    knobs: Knobs,
    queue: SubmitQueue,
    failures: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    /// The in-flight gauge behind [`QueueStats::in_flight`]: incremented
    /// at admission (async) or entry (blocking), decremented at ticket
    /// resolution or return.
    in_flight: AtomicU64,
    /// Consecutive solves that ended in a device fault *after* the retry
    /// policy was exhausted (reset to zero by any fault-free solve).
    /// Fleet circuit breakers read this as the trip signal; non-fault
    /// errors (shape, convergence, capacity) say nothing about device
    /// health and leave it untouched.
    fault_streak: AtomicU64,
    /// Makes the next group attempt panic after its plan checkout: the
    /// unit tests' way into the panic containment of `execute_group`.
    #[cfg(test)]
    panic_next_group: std::sync::atomic::AtomicBool,
}

/// Decrements the in-flight gauge by a fixed amount on drop, so every
/// exit path of a blocking solve — including error returns and
/// panicking executes — restores the gauge.
struct FlightGuard<'a> {
    gauge: &'a AtomicU64,
    n: u64,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// A concurrent SVD serving layer over one (simulated) device.
///
/// The service accepts solve requests for arbitrary `(m, n, precision,
/// configuration)` combinations and routes each through a sharded plan
/// cache, so concurrent callers reuse [`SvdPlan`]s instead of
/// re-planning — the FFTW-plan / cuSOLVER-handle amortization argument
/// applied across requests instead of within one caller.
///
/// Two entry styles share that cache:
///
/// * **blocking** — [`solve`](Self::solve) /
///   [`solve_batch`](Self::solve_batch) execute on the caller's thread;
/// * **asynchronous** — [`submit`](Self::submit) enqueues the request
///   and returns a [`Ticket`] immediately; a drainer thread coalesces
///   same-signature submissions from *different* callers into one
///   batched fan-out on the work-stealing pool, with typed backpressure
///   ([`ServiceError`]) at admission.
///
/// Shared by reference across threads (`&self` methods only); see
/// [`solve`](Self::solve) for the checkout/return protocol. Results are
/// **bit-identical** to driving an [`SvdPlan`] directly, for every
/// cached/uncached, blocking/async path and any thread count.
///
/// ```
/// use unisvd_gpu::hw;
/// use unisvd_matrix::Matrix;
/// use unisvd_service::SvdService;
/// use unisvd_core::SvdConfig;
///
/// let service = SvdService::new(&hw::h100());
/// let cfg = SvdConfig::default();
/// let a = Matrix::<f32>::identity(32);
/// let cold = service.solve(&a, &cfg)?; // builds and caches the plan
/// let warm = service.solve(&a, &cfg)?; // reuses it
/// assert_eq!(cold.values, warm.values);
/// assert_eq!(service.stats().cache.hits, 1);
/// // Async: same results through a ticket.
/// let ticket = service.submit(a.clone(), &cfg).expect("admitted");
/// assert_eq!(ticket.wait()?.values, warm.values);
/// # Ok::<(), unisvd_core::SvdError>(())
/// ```
pub struct SvdService {
    inner: Arc<Inner>,
    /// The drainer thread, spawned lazily on first
    /// [`submit`](Self::submit) so blocking-only services never start
    /// one; joined (after an orderly queue drain) on drop.
    drainer: Mutex<Option<JoinHandle<()>>>,
}

impl SvdService {
    /// A service for device `hw` with the default cache configuration.
    pub fn new(hw: &HardwareDescriptor) -> Self {
        Self::builder(hw).build()
    }

    /// Starts configuring a service for device `hw`; finish with
    /// [`ServiceBuilder::build`]. Every knob defaults to the value
    /// [`new`](Self::new) uses.
    pub fn builder(hw: &HardwareDescriptor) -> ServiceBuilder {
        ServiceBuilder {
            hw: hw.clone(),
            knobs: Knobs::default(),
        }
    }

    /// The device this service solves on.
    pub fn hw(&self) -> &HardwareDescriptor {
        &self.inner.hw
    }

    /// Whether this service absorbs oocore-eligible over-capacity
    /// rejections through the streaming path (fleet routing input).
    pub(crate) fn oocore_fallback_enabled(&self) -> bool {
        self.inner.knobs.oocore_fallback
    }

    /// The signature under which a request for this shape/precision/
    /// configuration is cached.
    pub fn signature<T: Scalar>(&self, rows: usize, cols: usize, cfg: &SvdConfig) -> PlanSignature {
        self.inner.builder::<T>(cfg).signature(rows, cols)
    }

    /// Solves one request: computes all singular values of `a` under
    /// `cfg`, reusing a cached plan when one is resident.
    ///
    /// Protocol: the plan is checked **out** of its cache shard (no lock
    /// is held while solving), executed on the plan's own lane as a
    /// group of one, and returned. A plan's first execute charges the
    /// full one-shot host driver overhead its planning cost — a miss,
    /// the first live solve of a [`warm`](Self::warm)ed signature, and
    /// every out-of-core fallback solve — and every later one the
    /// amortized dispatch share, so the trace separates warm from cold
    /// serving cost. The *values* are bit-identical either way.
    /// [`solve_batch`](Self::solve_batch) and the
    /// [`submit`](Self::submit) drainer run the same group execution, so
    /// retries, output verification and failure counting apply
    /// identically on every entry path.
    ///
    /// # Errors
    /// Exactly the plan API's errors: unsupported (device, precision)
    /// pairs and over-capacity shapes from planning, and
    /// [`SvdError::NoConvergence`] from pathological inputs (the plan is
    /// still returned to the cache — the plan is fine, the data wasn't).
    pub fn solve<T: Scalar>(&self, a: &Matrix<T>, cfg: &SvdConfig) -> Result<SvdOutput, SvdError> {
        let mut out = SvdOutput::empty();
        self.solve_into(a, cfg, &mut out)?;
        Ok(out)
    }

    /// [`solve`](Self::solve) writing into an existing [`SvdOutput`] —
    /// the zero-allocation steady-state serving path: a warm request
    /// (plan resident, `out` warmed by a previous solve of the same
    /// shape) performs **no heap allocation end to end** — checkout,
    /// execute, publish included — which `tests/alloc_budget.rs`
    /// enforces with a counting global allocator. Results are
    /// bit-identical to [`solve`](Self::solve).
    ///
    /// # Errors
    /// Exactly as [`solve`](Self::solve); on error `out`'s contents are
    /// unspecified.
    pub fn solve_into<T: Scalar>(
        &self,
        a: &Matrix<T>,
        cfg: &SvdConfig,
        out: &mut SvdOutput,
    ) -> Result<(), SvdError> {
        let _flight = self.inner.begin_flight(1);
        let sig = self.signature::<T>(a.rows(), a.cols(), cfg);
        let mut status = [Ok(())];
        self.inner.execute_group(
            &sig,
            std::slice::from_ref(&a),
            std::slice::from_mut(out),
            &mut status,
        );
        let [status] = status;
        status
    }

    /// Enqueues one request and returns a [`Ticket`] for its result —
    /// the non-blocking entry point. A drainer thread (started on the
    /// first submission) pops the queue, **coalesces every queued
    /// same-signature request — from any caller — into one batched
    /// execute** (one [`SvdPlan::execute_batch_refs_into`] fan-out over
    /// the plan's lanes on the work-stealing pool; an opt-in
    /// [`ServiceBuilder::coalesce_window`] holds it open for stragglers),
    /// and resolves the tickets in arrival order. [`Ticket::wait`]
    /// returns exactly what [`solve`](Self::solve) would have:
    /// bit-identical values, and per-request errors that never poison
    /// the rest of a batch.
    ///
    /// # Errors
    /// Admission backpressure only — [`ServiceError::QueueFull`] when
    /// the queue is at [`ServiceBuilder::queue_depth`], and
    /// [`ServiceError::Shedding`] when device-memory headroom is below
    /// [`ServiceBuilder::shed_headroom`] and no plan for this
    /// signature is resident. On `Err` nothing was enqueued (the matrix
    /// is dropped); solve-time errors arrive through the ticket instead.
    pub fn submit<T: Scalar>(&self, a: Matrix<T>, cfg: &SvdConfig) -> Result<Ticket, ServiceError> {
        self.enqueue(a, cfg, None)
    }

    /// [`submit`](Self::submit) with a submit-time deadline: if the
    /// request is still queued when `deadline` has elapsed, the drainer
    /// resolves its ticket with [`SvdError::Timeout`] instead of
    /// executing it — expired work never claims pool time. A request
    /// whose batch has already *started* executing runs to completion
    /// and delivers its result normally, even late: the deadline bounds
    /// queue residence, and [`Ticket::wait_timeout`] bounds the caller's
    /// wait.
    ///
    /// # Errors
    /// As [`submit`](Self::submit), plus [`ServiceError::Timeout`] for a
    /// zero `deadline` (already expired at admission — nothing is
    /// queued).
    pub fn submit_with_deadline<T: Scalar>(
        &self,
        a: Matrix<T>,
        cfg: &SvdConfig,
        deadline: Duration,
    ) -> Result<Ticket, ServiceError> {
        if deadline.is_zero() {
            return Err(ServiceError::Timeout {
                waited: Duration::ZERO,
            });
        }
        self.enqueue(a, cfg, Some(Instant::now() + deadline))
    }

    /// Wraps `a` in a [`Pending`] with a fresh ticket and admits it.
    fn enqueue<T: Scalar>(
        &self,
        a: Matrix<T>,
        cfg: &SvdConfig,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServiceError> {
        let (ticket, resolver) = ticket_pair();
        let pending = Pending {
            sig: self.signature::<T>(a.rows(), a.cols(), cfg),
            mat: Box::new(a),
            resolver,
            deadline,
        };
        self.submit_pending(pending)
            .map(|()| ticket)
            .map_err(|(_, e)| e)
    }

    /// [`submit`](Self::submit)'s admission core, over an assembled
    /// [`Pending`]: applies the shedding floor and the queue depth
    /// bound, and on refusal hands the entry back with the typed error —
    /// so a fleet can divert the same request (resolver intact) to
    /// another backend instead of failing it. The `Err` variant is
    /// deliberately by-value: boxing the handed-back entry would charge
    /// an allocation to every refusal on the re-route path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn submit_pending(&self, p: Pending) -> Result<(), (Pending, ServiceError)> {
        let inner = &self.inner;
        if inner.knobs.shed_headroom_bytes > 0 && !inner.cache.contains(&p.sig) {
            // The request may need new device memory; refuse while the
            // ledger is too close to its budget. (Benign races with
            // concurrent publishes make this a heuristic floor, not an
            // exact gate — admission errs a request early or late, never
            // wrongly executes one.)
            let available_bytes = inner.cache.available_bytes();
            if available_bytes < inner.knobs.shed_headroom_bytes {
                inner.shed.fetch_add(1, Ordering::Relaxed);
                return Err((p, ServiceError::Shedding { available_bytes }));
            }
        }
        if let Err(p) = inner.queue.try_push(p, inner.knobs.max_queue_depth) {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                p,
                ServiceError::QueueFull {
                    depth: inner.knobs.max_queue_depth,
                },
            ));
        }
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.in_flight.fetch_add(1, Ordering::Relaxed);
        self.ensure_drainer();
        Ok(())
    }

    /// Adopts an already-admitted request from another backend — fleet
    /// re-routing after a device loss. Bypasses admission control (the
    /// request was admitted once; refusing it now would strand a live
    /// ticket): the push ignores the depth bound and the shedding floor.
    /// The caller has already retargeted `p.sig` to this device. Fails
    /// (returning the pending untouched) only when this queue itself is
    /// failed.
    #[allow(clippy::result_large_err)] // Err IS the handed-back entry, not a descriptor
    pub(crate) fn adopt(&self, p: Pending) -> Result<(), Pending> {
        let inner = &self.inner;
        inner.queue.adopt_push(p)?;
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.in_flight.fetch_add(1, Ordering::Relaxed);
        self.ensure_drainer();
        Ok(())
    }

    /// Spawns the drainer thread if it is not running yet.
    fn ensure_drainer(&self) {
        let mut slot = self.drainer.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            let inner = self.inner.clone();
            *slot = Some(
                std::thread::Builder::new()
                    .name("svd-service-drainer".into())
                    .spawn(move || inner.drain_loop())
                    .expect("spawning the drainer thread"),
            );
        }
    }

    /// Joins the drainer thread, if one is running, once the queue has
    /// been shut down or failed.
    fn join_drainer(&self) {
        let handle = self
            .drainer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Simulates losing this device: fails the queue (no further
    /// admissions), joins the drainer after its current batch (whose
    /// tickets resolve normally), then hands back everything stranded —
    /// the still-queued requests (their tickets unresolved, for
    /// re-routing) and the signatures that were resident in the plan
    /// cache (for re-planning on survivors). The cache is cleared and
    /// its ledger returns to zero. Fleet failover plumbing
    /// ([`SvdFleet::fail_device`](crate::SvdFleet::fail_device)).
    pub(crate) fn fail_for_reroute(&self) -> (Vec<Pending>, Vec<PlanSignature>) {
        self.inner.queue.fail();
        self.join_drainer();
        let orphans = self.inner.queue.drain_remaining();
        self.inner
            .in_flight
            .fetch_sub(orphans.len() as u64, Ordering::Relaxed);
        let resident = self.inner.cache.resident_signatures();
        self.inner.cache.clear();
        (orphans, resident)
    }

    /// Reverses [`fail_for_reroute`](Self::fail_for_reroute): the queue
    /// admits again and the fault streak resets. The drainer respawns
    /// lazily on the next submission (the failed one exited). Fleet
    /// revival plumbing
    /// ([`SvdFleet::revive_device`](crate::SvdFleet::revive_device)).
    pub(crate) fn revive(&self) {
        self.inner.queue.revive();
        self.inner.cache.revive_faults();
        self.inner.fault_streak.store(0, Ordering::Relaxed);
    }

    /// Consecutive retry-exhausted device-fault solves (circuit-breaker
    /// trip signal; see `Inner::fault_streak`).
    pub(crate) fn fault_streak(&self) -> u64 {
        self.inner.fault_streak.load(Ordering::Relaxed)
    }

    /// Prewarms the plan cache from a recorded signature trace: builds
    /// and publishes a resident plan for every signature that belongs to
    /// this service's device and is not already resident, taking the
    /// planning wall time off the first live request per signature after
    /// a deploy or restart. That request still pays the simulated
    /// one-shot driver share (its plan's first execute) and counts as a
    /// hit. Signatures for other devices, already-resident
    /// signatures, and shapes the device rejects (unsupported precision,
    /// over-capacity) are skipped. Returns how many plans were built
    /// **and are resident** afterwards — a publish the cache declined
    /// (caching disabled, or a concurrent caller won the slot) is not
    /// counted, so the return value is an honest readiness signal.
    ///
    /// Warming counts neither hits nor misses — the counters keep
    /// describing live traffic — but published plans are subject to the
    /// normal capacity and memory bounds (a trace longer than the cache
    /// simply keeps its most recent tail resident).
    pub fn warm(&self, sigs: &[PlanSignature]) -> usize {
        let mut built = 0;
        for sig in sigs {
            if sig.device != self.inner.hw.name || self.inner.cache.contains(sig) {
                continue;
            }
            built += match sig.precision {
                PrecisionKind::Fp64 => self.inner.warm_one::<f64>(sig),
                PrecisionKind::Fp32 => self.inner.warm_one::<f32>(sig),
                PrecisionKind::Fp16 => self.inner.warm_one::<F16>(sig),
            };
        }
        built
    }

    /// Solves a batch of requests, coalescing same-signature requests
    /// into [`SvdPlan::execute_batch_refs_into`] calls that fan out on the
    /// host work-stealing pool — one plan checkout (or build) per
    /// distinct shape instead of per request.
    ///
    /// Each group is one fan-out over the checked-out plan's lanes. Its
    /// first request runs on the plan's own lane (on the plan's first
    /// solve it accounts the one-shot driver cost exactly like
    /// [`solve`](Self::solve)); the rest run on extra lanes the plan
    /// keeps, which charge the dispatch share. Results are
    /// returned in request order and are bit-identical to calling
    /// [`solve`](Self::solve) per request, for any thread count: groups
    /// are formed in first-seen order by shape, and the batched
    /// executor's chunking depends only on group sizes.
    ///
    /// Errors are **per request**: a failing solve (or a group whose
    /// plan cannot be built) leaves every other request's result intact.
    /// Retries and output verification apply exactly as in
    /// [`solve`](Self::solve).
    pub fn solve_batch<T: Scalar>(
        &self,
        mats: &[Matrix<T>],
        cfg: &SvdConfig,
    ) -> Vec<Result<SvdOutput, SvdError>> {
        let _flight = self.inner.begin_flight(mats.len() as u64);
        let mut results: Vec<Option<Result<SvdOutput, SvdError>>> =
            mats.iter().map(|_| None).collect();
        for first in 0..mats.len() {
            if results[first].is_some() {
                continue;
            }
            // A new shape opens a group holding every later request of
            // that shape (earlier ones would have opened it sooner).
            let shape = (mats[first].rows(), mats[first].cols());
            let group: Vec<usize> = (first..mats.len())
                .filter(|&i| (mats[i].rows(), mats[i].cols()) == shape)
                .collect();
            let refs: Vec<&Matrix<T>> = group.iter().map(|&i| &mats[i]).collect();
            let mut outs: Vec<SvdOutput> = group.iter().map(|_| SvdOutput::empty()).collect();
            let mut statuses = vec![Ok(()); group.len()];
            let sig = self.signature::<T>(shape.0, shape.1, cfg);
            self.inner
                .execute_group(&sig, &refs, &mut outs, &mut statuses);
            for ((i, out), status) in group.into_iter().zip(outs).zip(statuses) {
                results[i] = Some(status.map(|()| out));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every request belongs to exactly one group"))
            .collect()
    }

    /// One coherent snapshot of the cache counters/residency and the
    /// queue counters/in-flight gauge.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let (hits, misses, evictions, discards) = inner.cache.counter_values();
        let (resident_plans, resident_bytes) = inner.cache.resident();
        ServiceStats {
            cache: CacheStats {
                hits,
                misses,
                evictions,
                discards,
                failures: inner.failures.load(Ordering::Relaxed),
                resident_plans,
                resident_bytes,
            },
            queue: QueueStats {
                submitted: inner.submitted.load(Ordering::Relaxed),
                rejected: inner.rejected.load(Ordering::Relaxed),
                shed: inner.shed.load(Ordering::Relaxed),
                batches: inner.batches.load(Ordering::Relaxed),
                coalesced: inner.coalesced.load(Ordering::Relaxed),
                in_flight: inner.in_flight.load(Ordering::Relaxed),
            },
        }
    }

    /// The device-memory budget resident plans must fit in, bytes.
    pub fn cache_budget_bytes(&self) -> u64 {
        self.inner.cache.budget_bytes()
    }

    /// Ledger bytes still unreserved — the headroom a new resident plan
    /// could claim. With [`cache_budget_bytes`](Self::cache_budget_bytes)
    /// this is the headroom-fraction input of fleet placement.
    pub fn cache_available_bytes(&self) -> u64 {
        self.inner.cache.available_bytes()
    }

    /// Whether the cache's memory ledger exactly matches the bytes its
    /// shards pin — the accounting audit failover tests assert on
    /// survivors. Exact only at quiescence (a checkout in flight briefly
    /// holds bytes outside any shard).
    pub fn ledger_in_balance(&self) -> bool {
        self.inner.cache.in_balance()
    }
}

impl Drop for SvdService {
    fn drop(&mut self) {
        // Orderly shutdown: the drainer finishes every queued request
        // (resolving its ticket) before exiting, so dropping the service
        // never strands an accepted submission.
        self.inner.queue.shutdown();
        self.join_drainer();
    }
}

impl std::fmt::Debug for SvdService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SvdService({}, {})", self.inner.hw.name, self.stats())
    }
}

impl Inner {
    fn builder<T: Scalar>(&self, cfg: &SvdConfig) -> Svd<T> {
        Svd::on(&self.hw).precision::<T>().config(*cfg)
    }

    /// Raises the in-flight gauge by `n` until the returned guard drops.
    fn begin_flight(&self, n: u64) -> FlightGuard<'_> {
        self.in_flight.fetch_add(n, Ordering::Relaxed);
        FlightGuard {
            gauge: &self.in_flight,
            n,
        }
    }

    /// Checks a plan for `sig` out of the cache, or builds one. The plan
    /// stays in its cache box end to end — checkout, execute, publish —
    /// so a warm solve moves a pointer instead of re-boxing (part of the
    /// zero-allocation steady-state path).
    fn checkout_or_plan<T: Scalar>(
        &self,
        sig: &PlanSignature,
    ) -> Result<Box<SvdPlan<T>>, SvdError> {
        match self.cache.checkout(sig) {
            Some(cached) => Ok(cached
                .plan
                .downcast::<SvdPlan<T>>()
                .expect("a signature hit implies the cached plan's precision")),
            None => Ok(Box::new(
                self.builder::<T>(&sig.config).plan(sig.rows, sig.cols)?,
            )),
        }
    }

    /// Returns `plan` to the cache for future requests of `sig`.
    fn publish<T: Scalar>(&self, sig: PlanSignature, plan: Box<SvdPlan<T>>) {
        let bytes = plan.device_bytes();
        self.cache.publish(sig, CachedPlan { plan, bytes });
    }

    /// Counts `n` per-request failures (see [`CacheStats::failures`]).
    fn record_failures(&self, n: usize) {
        if n > 0 {
            self.failures.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Whether `e` is a planner rejection the out-of-core streaming path
    /// absorbs (over-capacity, probe-marked eligible, knob enabled).
    fn oocore_absorbs(&self, e: &SvdError) -> bool {
        self.knobs.oocore_fallback
            && matches!(
                e,
                SvdError::Plan(PlanError::ExceedsDeviceMemory {
                    oocore_eligible: true,
                    ..
                })
            )
    }

    /// Solves one oversized request through the out-of-core streaming
    /// path on this service's device. Plans per call: these requests are
    /// by definition too large for the plan cache's device budget, so
    /// caching their inner plans would evict every fitting resident plan
    /// for a shape class that is rare by construction.
    fn oocore_solve_into<T: Scalar>(
        &self,
        a: &Matrix<T>,
        cfg: &SvdConfig,
        out: &mut SvdOutput,
    ) -> Result<(), SvdError> {
        let mut plan = OutOfCore::on(&self.hw)
            .precision::<T>()
            .config(*cfg)
            .plan(a.rows(), a.cols())?;
        plan.execute_into(a, out)
    }

    /// Feeds one final solve outcome into the fault streak (the fleet
    /// circuit breaker's trip signal): device faults raise it, fault-free
    /// solves clear it, other errors are neutral.
    fn note_device_health(&self, res: &Result<(), SvdError>) {
        match res {
            Ok(()) => self.fault_streak.store(0, Ordering::Relaxed),
            Err(SvdError::DeviceFault(_)) => {
                self.fault_streak.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    /// Executes one same-signature group — the single execution path
    /// behind [`SvdService::solve_into`] (a group of 1),
    /// [`SvdService::solve_batch`] (one call per shape group) and the
    /// drainer (one call per coalesced batch). `mats`, `outs` and
    /// `statuses` are parallel; every matrix has `sig`'s shape. After
    /// the first attempt, each request that failed transiently is
    /// retried on its own, up to the retry bound, with a fresh checkout
    /// per attempt; then every final outcome feeds the fault streak and
    /// the failure counter.
    ///
    /// A panic inside an attempt stays inside it: every request of that
    /// attempt fails with [`SvdError::Panicked`] (never retried), the
    /// checked-out plan unwinds with the attempt instead of going back to
    /// the cache, and the caller — a blocking solve or the drainer —
    /// carries on.
    fn execute_group<T: Scalar>(
        &self,
        sig: &PlanSignature,
        mats: &[&Matrix<T>],
        outs: &mut [SvdOutput],
        statuses: &mut [Result<(), SvdError>],
    ) {
        let contained =
            |mats: &[&Matrix<T>], outs: &mut [SvdOutput], statuses: &mut [Result<(), SvdError>]| {
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    self.attempt_group(sig, mats, outs, &mut *statuses)
                }));
                if let Err(payload) = run {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|m| m.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    statuses.fill(Err(SvdError::Panicked { message }));
                }
            };
        contained(mats, outs, statuses);
        for i in 0..statuses.len() {
            let mut attempt = 0;
            while matches!(&statuses[i], Err(e) if e.is_transient()) && attempt < self.knobs.retries
            {
                attempt += 1;
                contained(
                    std::slice::from_ref(&mats[i]),
                    std::slice::from_mut(&mut outs[i]),
                    std::slice::from_mut(&mut statuses[i]),
                );
            }
        }
        for s in statuses.iter() {
            self.note_device_health(s);
        }
        self.record_failures(statuses.iter().filter(|s| s.is_err()).count());
    }

    /// One attempt at a group — no retry, no failure counting. Checks
    /// the plan out (or builds it) once for the whole group and fans the
    /// group out over the plan's lanes in one
    /// [`SvdPlan::execute_batch_refs_into`] call; the first request runs
    /// on lane 0, which charges the one-shot driver share if this is the
    /// plan's first solve. A plan-time rejection fails the whole group;
    /// one the out-of-core path absorbs streams each request instead. With
    /// `verify_outputs`, an output failing [`SvdOutput::verify`] becomes
    /// a *transient* corruption fault — retried like any other
    /// transient, then surfaced as [`SvdError::DeviceFault`].
    fn attempt_group<T: Scalar>(
        &self,
        sig: &PlanSignature,
        mats: &[&Matrix<T>],
        outs: &mut [SvdOutput],
        statuses: &mut [Result<(), SvdError>],
    ) {
        match self.checkout_or_plan::<T>(sig) {
            Ok(mut plan) => {
                #[cfg(test)]
                if self.panic_next_group.swap(false, Ordering::Relaxed) {
                    panic!("injected group panic");
                }
                plan.execute_batch_refs_into(mats, outs, statuses);
                // The plan survives a solve-time fault (the *data path*
                // was hit, not the resident factor layout), so it goes
                // back either way.
                self.publish(*sig, plan);
            }
            Err(e) if self.oocore_absorbs(&e) => {
                for ((a, out), status) in mats.iter().zip(outs.iter_mut()).zip(statuses.iter_mut())
                {
                    *status = self.oocore_solve_into(a, &sig.config, out);
                }
            }
            Err(e) => statuses.fill(Err(e)),
        }
        if self.knobs.verify_outputs {
            for (out, status) in outs.iter().zip(statuses.iter_mut()) {
                if status.is_ok() && out.verify().is_err() {
                    *status = Err(SvdError::DeviceFault(DeviceFault {
                        device: self.hw.name,
                        kind: FaultKind::Corruption,
                    }));
                }
            }
        }
    }

    /// Builds and publishes one plan for `sig` (already vetted for this
    /// device); returns 1 when the plan is resident afterwards, 0 on a
    /// plan-time rejection or a declined publish.
    fn warm_one<T: Scalar>(&self, sig: &PlanSignature) -> usize {
        match self.builder::<T>(&sig.config).plan(sig.rows, sig.cols) {
            Ok(plan) => {
                self.publish(*sig, Box::new(plan));
                usize::from(self.cache.contains(sig))
            }
            Err(_) => 0,
        }
    }

    /// The drainer thread's main loop: pop coalesced same-signature
    /// batches until the queue is drained *and* shut down. The batch
    /// buffer is reused across iterations.
    fn drain_loop(&self) {
        let mut batch: Vec<Pending> = Vec::new();
        while self.queue.next_batch(
            self.knobs.coalesce_window,
            self.knobs.max_coalesce,
            &mut batch,
        ) {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.coalesced
                .fetch_add(batch.len().saturating_sub(1) as u64, Ordering::Relaxed);
            self.expire_deadlines(&mut batch);
            if batch.is_empty() {
                continue;
            }
            match batch[0].sig.precision {
                PrecisionKind::Fp64 => self.run_batch::<f64>(&mut batch),
                PrecisionKind::Fp32 => self.run_batch::<f32>(&mut batch),
                PrecisionKind::Fp16 => self.run_batch::<F16>(&mut batch),
            }
        }
    }

    /// Resolves expired submit-time deadlines with the typed timeout
    /// *before* the batch claims any pool time — late answers nobody is
    /// waiting for must not slow down answers somebody is.
    fn expire_deadlines(&self, batch: &mut Vec<Pending>) {
        let now = Instant::now();
        let mut expired = 0;
        let mut i = 0;
        while i < batch.len() {
            match batch[i].deadline {
                Some(d) if now >= d => {
                    let p = batch.remove(i);
                    self.in_flight.fetch_sub(1, Ordering::Relaxed);
                    p.resolver.resolve(Err(SvdError::Timeout {
                        waited: now.duration_since(d),
                    }));
                    expired += 1;
                }
                _ => i += 1,
            }
        }
        self.record_failures(expired);
    }

    /// Executes one coalesced same-signature batch through
    /// [`execute_group`](Self::execute_group) and resolves its tickets in
    /// arrival order.
    fn run_batch<T: Scalar>(&self, batch: &mut Vec<Pending>) {
        let n = batch.len();
        // The drain loop checked `sig.precision == T::KIND` dispatching
        // here, and every batch entry shares `sig`, so the downcasts are
        // infallible.
        let mats: Vec<&Matrix<T>> = batch
            .iter()
            .map(|p| {
                p.mat
                    .downcast_ref::<Matrix<T>>()
                    .expect("a batch signature encodes its matrices' precision")
            })
            .collect();
        let mut outs: Vec<SvdOutput> = (0..n).map(|_| SvdOutput::empty()).collect();
        let mut statuses = vec![Ok(()); n];
        self.execute_group(&batch[0].sig, &mats, &mut outs, &mut statuses);
        // Decrement before resolving: a waiter unblocked by the resolve
        // must never observe its own request still counted in flight.
        self.in_flight.fetch_sub(n as u64, Ordering::Relaxed);
        for ((p, out), status) in batch.drain(..).zip(outs).zip(statuses) {
            p.resolver.resolve(status.map(|()| out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_core::{svdvals_with, Stage3Solver::*};
    use unisvd_gpu::{hw::h100, Device};

    #[test]
    fn non_finite_input_is_a_typed_error_on_every_entry_path() {
        // NaN and ±Inf entries are the caller's data, not a device fault:
        // every entry path and stage-3 solver rejects them with the typed
        // error, nothing retries them (even with output verification on),
        // and they never feed the fault streak.
        let service = SvdService::builder(&h100())
            .retry(3)
            .verify_outputs(true)
            .build();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::<f64>::from_fn(16, 16, |i, j| (1 + i + 2 * j) as f64);
            a[(3, 5)] = bad;
            for solver in [Bdsqr, Dqds, Bisect] {
                let cfg = SvdConfig {
                    solver,
                    ..SvdConfig::default()
                };
                let mut plan = service.inner.builder::<f64>(&cfg).plan(16, 16).unwrap();
                let dev = Device::numeric(h100());
                let batched = service.solve_batch(&[a.clone()], &cfg).remove(0);
                let ticket = service.submit(a.clone(), &cfg).expect("admitted");
                for (path, res) in [
                    ("plan.execute", plan.execute(&a)),
                    ("svdvals_with", svdvals_with(&a, &dev, &cfg)),
                    ("solve", service.solve(&a, &cfg)),
                    ("solve_batch", batched),
                    ("submit", ticket.wait()),
                ] {
                    assert!(
                        matches!(res, Err(SvdError::NonFiniteInput)),
                        "{path}, {solver:?}, {bad}: {res:?}"
                    );
                }
                assert_eq!(service.fault_streak(), 0, "{solver:?}, {bad}");
            }
        }
        let stats = service.stats();
        assert_eq!(stats.cache.failures, 3 * 3 * 3, "no retry hid a failure");
        assert_eq!(stats.queue.in_flight, 0);
    }

    #[test]
    fn overflowing_values_are_a_typed_error_on_every_entry_path() {
        // A finite input whose σ₁ exceeds f64's range is the caller's data
        // too: every entry path and stage-3 solver returns the typed error
        // rather than `inf` values, output verification does not turn it
        // into a corruption fault, nothing retries it and it never feeds
        // the fault streak. Just inside the range the values stay finite.
        use rand::{rngs::StdRng, SeedableRng};
        let service = SvdService::builder(&h100())
            .retry(3)
            .verify_outputs(true)
            .build();
        let svs: Vec<f64> = (1..=32).rev().map(f64::from).collect();
        let base =
            unisvd_matrix::testmat::with_singular_values(&svs, &mut StdRng::seed_from_u64(5));
        let scaled = |c: f64| Matrix::<f64>::from_fn(32, 32, |i, j| base[(i, j)] * c);
        let (over, fits) = (scaled(1e307), scaled(3e306));
        for solver in [Bdsqr, Dqds, Bisect] {
            let cfg = SvdConfig {
                solver,
                ..SvdConfig::default()
            };
            let mut plan = service.inner.builder::<f64>(&cfg).plan(32, 32).unwrap();
            let dev = Device::numeric(h100());
            let batched = service
                .solve_batch(std::slice::from_ref(&over), &cfg)
                .remove(0);
            let ticket = service.submit(over.clone(), &cfg).expect("admitted");
            for (path, res) in [
                ("plan.execute", plan.execute(&over)),
                ("svdvals_with", svdvals_with(&over, &dev, &cfg)),
                ("solve", service.solve(&over, &cfg)),
                ("solve_batch", batched),
                ("submit", ticket.wait()),
            ] {
                assert!(
                    matches!(res, Err(SvdError::ValueOverflow)),
                    "{path}, {solver:?}: {res:?}"
                );
            }
            assert_eq!(service.fault_streak(), 0, "{solver:?}");
            let ok = plan.execute(&fits).expect("σ₁ = 9.6e307 fits in f64");
            assert!(ok.values.iter().all(|v| v.is_finite()), "{solver:?}");
            assert!((ok.values[0] / 9.6e307 - 1.0).abs() < 1e-10, "{solver:?}");
        }
        let stats = service.stats();
        assert_eq!(stats.cache.failures, 3 * 3, "one failure per request");
        assert_eq!(stats.queue.in_flight, 0);
    }

    #[test]
    fn a_panicking_group_fails_its_requests_and_serving_continues() {
        let service = SvdService::new(&h100());
        let cfg = SvdConfig::default();
        let a = Matrix::<f64>::from_fn(16, 16, |i, j| {
            (1 + i + 2 * j + 16 * usize::from(i == j)) as f64
        });
        let sig = service.signature::<f64>(16, 16, &cfg);
        let expected = service.solve(&a, &cfg).expect("a plain solve").values;
        assert!(
            service.inner.cache.contains(&sig),
            "the warm plan is resident"
        );

        // Blocking group path: every request of the group gets the error,
        // and the plan it ran on is dropped, not published.
        service
            .inner
            .panic_next_group
            .store(true, Ordering::Relaxed);
        let group = service.solve_batch(&[a.clone(), a.clone(), a.clone()], &cfg);
        for res in &group {
            assert!(
                matches!(res, Err(SvdError::Panicked { message }) if message == "injected group panic"),
                "{res:?}"
            );
            assert!(!res.as_ref().unwrap_err().is_transient());
        }
        assert!(
            !service.inner.cache.contains(&sig),
            "the panicked plan is gone"
        );

        // Async path: the drainer survives the panic and keeps draining.
        service
            .inner
            .panic_next_group
            .store(true, Ordering::Relaxed);
        let failed = service.submit(a.clone(), &cfg).expect("admitted").wait();
        assert!(
            matches!(failed, Err(SvdError::Panicked { .. })),
            "{failed:?}"
        );
        let next = service.submit(a.clone(), &cfg).expect("admitted").wait();
        assert_eq!(next.expect("the next submit succeeds").values, expected);
        assert!(
            service.inner.cache.contains(&sig),
            "a fresh plan is published"
        );

        let stats = service.stats();
        assert_eq!(stats.queue.in_flight, 0);
        assert_eq!(
            stats.queue.submitted,
            stats.queue.batches + stats.queue.coalesced
        );
        assert_eq!(stats.cache.failures, 4);
    }
}
