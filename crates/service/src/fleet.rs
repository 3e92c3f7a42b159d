//! [`SvdFleet`]: one serving surface over N heterogeneous devices.
//!
//! A single [`SvdService`] owns exactly one simulated device, so the
//! paper's Fig. 5 portability matrix is a static benchmark. The fleet
//! turns it into a *routing policy*: it owns one service per
//! [`HardwareDescriptor`], fronts them with the same blocking
//! [`solve`](SvdFleet::solve) / asynchronous [`submit`](SvdFleet::submit)
//! surface (callers stay fleet-oblivious), and places each request's
//! [`PlanSignature`] by
//!
//! * **support** — a Table 2 rejection (`mi250` has no FP16, `m1_pro`
//!   no FP64) or an over-capacity shape becomes "route elsewhere"
//!   instead of "fail", answered by `PlanSignature::probe` without
//!   building a plan;
//! * **memory headroom** — each backend's `MemoryLedger` budget, both
//!   absolute fit and relative fraction;
//! * **load** — the observed in-flight gauge from `QueueStats`.
//!
//! Decisions are amortized in a placement map (route once per
//! signature, reuse for every subsequent request — FFTW's wisdom
//! argument applied to routing). Hot signatures are **replicated** to a
//! second device once they have served enough requests, with requests
//! alternating across the two homes. [`fail_device`](SvdFleet::fail_device)
//! simulates device loss: the dead backend's queue is drained, its
//! resident signatures re-planned on survivors, and its in-flight
//! tickets re-routed — every outstanding [`Ticket::wait`] still
//! resolves.

use crate::queue::Pending;
use crate::router::{best, Candidate, Placement, PlacementMap};
use crate::service::{ServiceBuilder, ServiceError, ServiceStats, SvdService};
use crate::ticket::{ticket_pair, Ticket};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unisvd_core::{PlanError, PlanSignature, SvdConfig, SvdError, SvdOutput};
use unisvd_gpu::HardwareDescriptor;
use unisvd_matrix::Matrix;
use unisvd_scalar::Scalar;

/// How many requests a signature must have served before the fleet
/// replicates its plan to a second device (each request past the first
/// is a cache hit on the primary — the hotness signal).
const DEFAULT_REPLICATE_AFTER: u64 = 8;

/// Consecutive retry-exhausted device-fault solves that trip a
/// backend's circuit breaker open.
const BREAKER_TRIP: u64 = 3;

/// Placement attempts an open breaker refuses before letting one probe
/// request through (half-open).
const BREAKER_PROBE_AFTER: u64 = 8;

/// A backend's circuit-breaker position, surfaced in [`DeviceStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Breaker closed: the backend serves normally.
    Healthy,
    /// Breaker half-open: probe traffic is testing whether the backend
    /// recovered; the verdict (fault streak moved or cleared) decides
    /// between re-opening and closing.
    Probing,
    /// Breaker open: consecutive device faults exhausted the retry
    /// policy three times in a row; the router skips this backend
    /// until a probe succeeds or
    /// [`revive_device`](SvdFleet::revive_device) resets it.
    Tripped,
}

/// Per-backend circuit breaker: closed → open on a fault streak,
/// open → half-open after refusing enough placements, half-open →
/// closed/open on the probe's verdict. Guarded by one tiny mutex —
/// admission decisions are a handful of integer comparisons.
enum BreakerState {
    Closed,
    Open { skipped: u64 },
    HalfOpen { streak_at_probe: u64 },
}

struct Breaker(Mutex<BreakerState>);

impl Breaker {
    fn new() -> Self {
        Breaker(Mutex::new(BreakerState::Closed))
    }

    /// One placement attempt against the backend whose fault streak is
    /// `streak`; `true` admits the request. Drives the full lifecycle:
    /// a closed breaker trips at [`BREAKER_TRIP`], an open one counts
    /// refusals until [`BREAKER_PROBE_AFTER`] then goes half-open, and a
    /// half-open one reads the streak as the probe's verdict — cleared
    /// closes it, grown re-opens it, unchanged admits another probe.
    fn admit(&self, streak: u64) -> bool {
        let mut st = self.0.lock();
        match *st {
            BreakerState::Closed => {
                if streak >= BREAKER_TRIP {
                    *st = BreakerState::Open { skipped: 0 };
                    false
                } else {
                    true
                }
            }
            BreakerState::Open { ref mut skipped } => {
                *skipped += 1;
                if *skipped >= BREAKER_PROBE_AFTER {
                    *st = BreakerState::HalfOpen {
                        streak_at_probe: streak,
                    };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen { streak_at_probe } => {
                if streak == 0 {
                    *st = BreakerState::Closed;
                    true
                } else if streak > streak_at_probe {
                    *st = BreakerState::Open { skipped: 0 };
                    false
                } else {
                    // The probe's verdict isn't in yet; admit another
                    // probe rather than wedging half-open forever.
                    true
                }
            }
        }
    }

    fn health(&self) -> DeviceHealth {
        match *self.0.lock() {
            BreakerState::Closed => DeviceHealth::Healthy,
            BreakerState::Open { .. } => DeviceHealth::Tripped,
            BreakerState::HalfOpen { .. } => DeviceHealth::Probing,
        }
    }

    fn reset(&self) {
        *self.0.lock() = BreakerState::Closed;
    }
}

/// Why [`FleetBuilder::try_build`] refused a configuration.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetBuildError {
    /// No devices were added; a fleet cannot route to nothing.
    NoDevices,
    /// More than 64 devices; the router's exclusion set is a 64-bit
    /// mask.
    TooManyDevices {
        /// How many devices were added.
        count: usize,
    },
    /// `replicate_after(0)` — a nonsensical hotness threshold (every
    /// signature would replicate before serving anything). Use a large
    /// threshold to effectively disable replication.
    ZeroReplicateAfter,
}

impl std::fmt::Display for FleetBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetBuildError::NoDevices => write!(f, "a fleet needs at least one device"),
            FleetBuildError::TooManyDevices { count } => {
                write!(f, "a fleet holds at most 64 devices ({count} added)")
            }
            FleetBuildError::ZeroReplicateAfter => {
                write!(f, "replicate_after(0) is not a valid hotness threshold")
            }
        }
    }
}

impl std::error::Error for FleetBuildError {}

/// Accumulates a fleet's devices and shared service knobs, then
/// [`build`](Self::build)s it. Obtained from [`SvdFleet::builder`].
///
/// ```
/// use unisvd_gpu::hw;
/// use unisvd_service::SvdFleet;
///
/// let fleet = SvdFleet::builder()
///     .device(hw::h100())
///     .device(hw::mi250())
///     .device(hw::m1_pro())
///     .replicate_after(4)
///     .backends(|s| s.retry(2).verify_outputs(true))
///     .build();
/// assert_eq!(fleet.device_count(), 3);
/// ```
#[derive(Clone)]
pub struct FleetBuilder {
    devices: Vec<HardwareDescriptor>,
    /// Knob sets from [`backends`](Self::backends), applied in order to
    /// every backend's [`ServiceBuilder`].
    knobs: Vec<BackendKnobs>,
    replicate_after: u64,
}

type BackendKnobs = Arc<dyn Fn(ServiceBuilder) -> ServiceBuilder + Send + Sync>;

impl std::fmt::Debug for FleetBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBuilder")
            .field("devices", &self.devices)
            .field("knob_sets", &self.knobs.len())
            .field("replicate_after", &self.replicate_after)
            .finish()
    }
}

impl FleetBuilder {
    /// Adds one backend device. Order matters only for tie-breaking
    /// (placement prefers the lowest index on a full tie) and for which
    /// device names a [`ServiceError::NoDeviceSupports`] signature.
    pub fn device(mut self, hw: HardwareDescriptor) -> Self {
        self.devices.push(hw);
        self
    }

    /// Requests a signature must serve before its plan is replicated to
    /// a second device. Default 8. `0` is rejected at build time
    /// ([`FleetBuildError::ZeroReplicateAfter`]); to effectively disable
    /// replication, pass a threshold larger than any realistic request
    /// count (e.g. `u64::MAX`).
    pub fn replicate_after(mut self, served: u64) -> Self {
        self.replicate_after = served;
        self
    }

    /// Applies a [`ServiceBuilder`] knob set to every backend: `knobs`
    /// receives each device's [`SvdService::builder`] and returns it
    /// configured, e.g. `.backends(|s| s.retry(2).verify_outputs(true))`.
    /// Repeated calls compose in call order. Routing honours the
    /// backends' knobs too: with
    /// [`oocore_fallback`](ServiceBuilder::oocore_fallback) enabled, a
    /// shape every device rejects as over-capacity — but which the
    /// out-of-core subsystem accepts — is placed (as a never-"fits"
    /// candidate, so any in-core-capable backend still wins) instead of
    /// failing with [`ServiceError::NoDeviceSupports`].
    pub fn backends(
        mut self,
        knobs: impl Fn(ServiceBuilder) -> ServiceBuilder + Send + Sync + 'static,
    ) -> Self {
        self.knobs.push(Arc::new(knobs));
        self
    }

    /// The configured fleet, or a typed refusal for a configuration
    /// that cannot serve: no devices, more than 64, or a zero
    /// replication threshold.
    pub fn try_build(self) -> Result<SvdFleet, FleetBuildError> {
        if self.devices.is_empty() {
            return Err(FleetBuildError::NoDevices);
        }
        if self.devices.len() > 64 {
            return Err(FleetBuildError::TooManyDevices {
                count: self.devices.len(),
            });
        }
        if self.replicate_after == 0 {
            return Err(FleetBuildError::ZeroReplicateAfter);
        }
        Ok(SvdFleet {
            backends: self
                .devices
                .iter()
                .map(|hw| {
                    self.knobs
                        .iter()
                        .fold(SvdService::builder(hw), |b, knobs| knobs(b))
                        .build()
                })
                .collect(),
            dead: self
                .devices
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
            breakers: self.devices.iter().map(|_| Breaker::new()).collect(),
            router: Mutex::new(PlacementMap::new()),
            replicate_after: self.replicate_after,
        })
    }

    /// The configured fleet.
    ///
    /// # Panics
    /// On any configuration [`try_build`](Self::try_build) refuses.
    pub fn build(self) -> SvdFleet {
        match self.try_build() {
            Ok(fleet) => fleet,
            Err(e) => panic!("{e}"),
        }
    }
}

/// A fleet-wide statistics snapshot: the field-wise sum over all
/// backends plus the per-device breakdown. From [`SvdFleet::stats`].
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Every backend's [`ServiceStats`] summed field-wise.
    pub total: ServiceStats,
    /// One entry per backend, in builder order.
    pub per_device: Vec<DeviceStats>,
}

/// One backend's slice of a [`FleetStats`] snapshot.
#[derive(Clone, Copy, Debug)]
pub struct DeviceStats {
    /// The backend's device name (`HardwareDescriptor::name`).
    pub device: &'static str,
    /// Whether the backend is still serving (not
    /// [`fail_device`](SvdFleet::fail_device)d).
    pub alive: bool,
    /// The backend's circuit-breaker position (orthogonal to `alive`:
    /// a dead backend keeps whatever health it tripped into, and a
    /// live one can be [`Tripped`](DeviceHealth::Tripped) by faults
    /// without being failed).
    pub health: DeviceHealth,
    /// The backend's own snapshot.
    pub stats: ServiceStats,
}

/// What [`SvdFleet::fail_device`] did with the dead backend's work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// Queued requests re-routed to a survivor (their tickets resolve
    /// with results).
    pub rerouted: usize,
    /// Queued requests no survivor supports (their tickets resolve with
    /// `SvdError::Rejected` — never left hanging).
    pub rejected: usize,
    /// Resident signatures re-planned (prewarmed) on survivors.
    pub replanned: usize,
}

/// A heterogeneous serving fleet: N [`SvdService`] backends with
/// *different* [`HardwareDescriptor`]s behind one `solve`/`submit`
/// surface, with support-, headroom-, and load-aware routing (the
/// placement policy is documented in ARCHITECTURE.md's *Fleet routing*
/// section).
///
/// ```
/// use unisvd_core::SvdConfig;
/// use unisvd_gpu::hw;
/// use unisvd_matrix::Matrix;
/// use unisvd_scalar::F16;
/// use unisvd_service::SvdFleet;
///
/// // mi250 (ROCm) rejects FP16 at plan time — in a fleet that becomes
/// // "route to the CUDA device" instead of an error.
/// let fleet = SvdFleet::builder()
///     .device(hw::mi250())
///     .device(hw::h100())
///     .build();
/// let cfg = SvdConfig::default();
/// let s = fleet.solve(&Matrix::<F16>::identity(16), &cfg)?;
/// assert!(s.values[0] > 0.0);
/// // The h100 backend (index 1) served it; the mi250 never saw it.
/// assert_eq!(fleet.backend(1).stats().cache.misses, 1);
/// assert_eq!(fleet.backend(0).stats().cache.misses, 0);
/// # Ok::<(), unisvd_core::SvdError>(())
/// ```
pub struct SvdFleet {
    backends: Vec<SvdService>,
    /// `dead[i]` marks backend `i` lost; the router skips it.
    dead: Vec<AtomicBool>,
    /// `breakers[i]` guards backend `i` against fault streaks; an open
    /// breaker makes the router skip it like a dead device, but with a
    /// self-healing path (half-open probes).
    breakers: Vec<Breaker>,
    /// Signature → placement, amortized across same-signature requests.
    router: Mutex<PlacementMap>,
    replicate_after: u64,
}

impl SvdFleet {
    /// Starts assembling a fleet; add devices with
    /// [`FleetBuilder::device`] and finish with [`FleetBuilder::build`].
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            devices: Vec::new(),
            knobs: Vec::new(),
            replicate_after: DEFAULT_REPLICATE_AFTER,
        }
    }

    /// A fleet over `devices` with every knob at its default.
    pub fn new(devices: &[HardwareDescriptor]) -> Self {
        devices
            .iter()
            .fold(Self::builder(), |b, hw| b.device(hw.clone()))
            .build()
    }

    /// Number of backends (dead ones included).
    pub fn device_count(&self) -> usize {
        self.backends.len()
    }

    /// The backend at `index`, in builder order — for per-device
    /// inspection (stats, ledger audits). Indexable whether alive or
    /// dead.
    pub fn backend(&self, index: usize) -> &SvdService {
        &self.backends[index]
    }

    /// Whether backend `index` is still serving.
    pub fn is_alive(&self, index: usize) -> bool {
        !self.dead[index].load(Ordering::SeqCst)
    }

    /// Backend `index`'s circuit-breaker position (also in
    /// [`DeviceStats::health`]).
    pub fn device_health(&self, index: usize) -> DeviceHealth {
        self.breakers[index].health()
    }

    /// Solves one request on whichever backend the router places it,
    /// blocking the caller — the fleet-oblivious mirror of
    /// [`SvdService::solve`].
    ///
    /// # Errors
    /// [`SvdError::Rejected`] when no device supports the signature
    /// (every backend fails the Table 2 support or capacity probe), plus
    /// the chosen backend's own solve errors.
    pub fn solve<T: Scalar>(&self, a: &Matrix<T>, cfg: &SvdConfig) -> Result<SvdOutput, SvdError> {
        let mut out = SvdOutput::empty();
        self.solve_into(a, cfg, &mut out)?;
        Ok(out)
    }

    /// [`solve`](Self::solve) writing into an existing [`SvdOutput`].
    pub fn solve_into<T: Scalar>(
        &self,
        a: &Matrix<T>,
        cfg: &SvdConfig,
        out: &mut SvdOutput,
    ) -> Result<(), SvdError> {
        let sig = self.backends[0].signature::<T>(a.rows(), a.cols(), cfg);
        let idx = self.place(&sig, 0).map_err(SvdError::from)?;
        self.backends[idx].solve_into(a, cfg, out)
    }

    /// Enqueues one request on the routed backend and returns a
    /// [`Ticket`] — the fleet-oblivious mirror of
    /// [`SvdService::submit`]. Admission backpressure *diverts*: a
    /// backend refusing with `QueueFull`/`Shedding` sends the request to
    /// the next-best device, and only when every eligible backend
    /// refuses does the error surface.
    ///
    /// # Errors
    /// [`ServiceError::NoDeviceSupports`] when no backend passes the
    /// support/capacity probe; otherwise the last backend's admission
    /// error once all eligible backends refused.
    pub fn submit<T: Scalar>(&self, a: Matrix<T>, cfg: &SvdConfig) -> Result<Ticket, ServiceError> {
        self.submit_inner(a, cfg, None)
    }

    /// [`submit`](Self::submit) with a submit-time deadline, mirroring
    /// [`SvdService::submit_with_deadline`]: a request still queued on
    /// its routed backend when `deadline` elapses resolves with
    /// [`SvdError::Timeout`] instead of executing.
    ///
    /// # Errors
    /// As [`submit`](Self::submit), plus [`ServiceError::Timeout`] for a
    /// zero `deadline`.
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
        self.submit_inner(a, cfg, Some(std::time::Instant::now() + deadline))
    }

    fn submit_inner<T: Scalar>(
        &self,
        a: Matrix<T>,
        cfg: &SvdConfig,
        deadline: Option<std::time::Instant>,
    ) -> Result<Ticket, ServiceError> {
        let (ticket, resolver) = ticket_pair();
        let mut p = Pending {
            sig: self.backends[0].signature::<T>(a.rows(), a.cols(), cfg),
            mat: Box::new(a),
            resolver,
            deadline,
        };
        let mut exclude = 0u64;
        let mut last: Option<ServiceError> = None;
        loop {
            match self.place(&p.sig, exclude) {
                Ok(idx) => {
                    p.sig = p.sig.for_device(self.backends[idx].hw());
                    match self.backends[idx].submit_pending(p) {
                        Ok(()) => return Ok(ticket),
                        Err((back, e)) => {
                            p = back;
                            last = Some(e);
                            exclude |= 1 << idx;
                        }
                    }
                }
                // Exhausted: prefer reporting the admission error that
                // stopped a *capable* device over "nothing supports it".
                Err(e) => return Err(last.unwrap_or(e)),
            }
        }
    }

    /// Routes and prewarms a recorded signature trace: each signature is
    /// placed by the router (seeding the placement map) and its plan
    /// built on the chosen backend. Returns how many signatures found a
    /// home; unsupported ones are skipped.
    pub fn warm(&self, sigs: &[PlanSignature]) -> usize {
        sigs.iter().filter(|sig| self.replant(sig)).count()
    }

    /// The fleet-wide statistics snapshot: per-backend breakdown plus
    /// the field-wise total.
    pub fn stats(&self) -> FleetStats {
        let per_device: Vec<DeviceStats> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, svc)| DeviceStats {
                device: svc.hw().name,
                alive: self.is_alive(i),
                health: self.breakers[i].health(),
                stats: svc.stats(),
            })
            .collect();
        let total = per_device
            .iter()
            .fold(ServiceStats::default(), |acc, d| acc.merge(&d.stats));
        FleetStats { total, per_device }
    }

    /// Simulates losing backend `index` and migrates its work so **no
    /// ticket hangs**:
    ///
    /// 1. the backend is marked dead (the router stops choosing it) and
    ///    its queue failed — the drainer finishes its current batch
    ///    (those tickets resolve normally) and exits;
    /// 2. placements pointing at it are retargeted (replicas promoted,
    ///    orphaned keys dropped for fresh placement);
    /// 3. its resident signatures are re-planned (prewarmed) on
    ///    survivors, so the cache state migrates rather than restarts
    ///    cold;
    /// 4. its still-queued requests are re-routed to survivors — or,
    ///    when no survivor supports one, resolved with
    ///    `SvdError::Rejected`, so every outstanding [`Ticket::wait`]
    ///    returns.
    ///
    /// The dead backend's `MemoryLedger` returns to zero (its device
    /// memory is gone, and the accounting says so). Idempotent: failing
    /// an already-dead backend is a no-op reporting zeros.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn fail_device(&self, index: usize) -> FailoverReport {
        assert!(index < self.backends.len(), "no backend {index}");
        if self.dead[index].swap(true, Ordering::SeqCst) {
            return FailoverReport::default();
        }
        let (orphans, resident) = self.backends[index].fail_for_reroute();
        {
            let mut map = self.router.lock();
            map.retain(|_, pl| {
                if pl.replica == Some(index) {
                    pl.replica = None;
                }
                if pl.primary == index {
                    match pl.replica.take() {
                        Some(r) => {
                            pl.primary = r;
                            true
                        }
                        // No replica: drop the key; the next request
                        // places it freshly among survivors.
                        None => false,
                    }
                } else {
                    true
                }
            });
        }
        let mut report = FailoverReport::default();
        for sig in resident {
            if self.replant(&sig) {
                report.replanned += 1;
            }
        }
        for p in orphans {
            if self.reroute(p) {
                report.rerouted += 1;
            } else {
                report.rejected += 1;
            }
        }
        report
    }

    /// Reverses [`fail_device`](Self::fail_device): marks backend
    /// `index` alive again — its queue readmits, its ledger injector's
    /// death latch clears, its circuit breaker and fault streak reset —
    /// so the router may place fresh signatures on it immediately. The
    /// revived backend starts *cold*: its resident plans migrated to
    /// survivors at failure and stay there; existing placements are
    /// untouched (traffic returns as new signatures arrive or hot ones
    /// replicate). Idempotent: reviving a live backend is a no-op.
    /// Returns whether the backend was actually dead.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn revive_device(&self, index: usize) -> bool {
        assert!(index < self.backends.len(), "no backend {index}");
        if !self.dead[index].swap(false, Ordering::SeqCst) {
            return false;
        }
        self.backends[index].revive();
        self.breakers[index].reset();
        true
    }

    /// Routes `sig` afresh and prewarms its plan on the chosen backend.
    /// Returns whether a home was found.
    fn replant(&self, sig: &PlanSignature) -> bool {
        match self.place(sig, 0) {
            Ok(idx) => {
                let target = sig.for_device(self.backends[idx].hw());
                self.backends[idx].warm(&[target]);
                true
            }
            Err(_) => false,
        }
    }

    /// Re-homes one stranded request; `true` when a survivor adopted
    /// it, `false` when its ticket was resolved with a rejection (no
    /// survivor supports it). Either way the ticket resolves.
    fn reroute(&self, mut p: Pending) -> bool {
        let mut exclude = 0u64;
        loop {
            match self.place(&p.sig, exclude) {
                Ok(idx) => {
                    p.sig = p.sig.for_device(self.backends[idx].hw());
                    match self.backends[idx].adopt(p) {
                        Ok(()) => return true,
                        // The adopter died concurrently; exclude it and
                        // keep looking.
                        Err(back) => {
                            p = back;
                            exclude |= 1 << idx;
                        }
                    }
                }
                Err(e) => {
                    let Pending { resolver, .. } = p;
                    resolver.resolve(Err(e.into()));
                    return false;
                }
            }
        }
    }

    /// The placement decision for one request signature (on any
    /// device): looks up (or makes) its placement, bumps its served
    /// count, triggers hot replication, and returns the target backend
    /// index. `exclude` is a bitmask of backends the caller already
    /// tried (admission refusals, concurrent deaths).
    fn place(&self, sig: &PlanSignature, exclude: u64) -> Result<usize, ServiceError> {
        // Placements are keyed by the signature retargeted to backend 0,
        // so one routing decision covers the request on every device.
        let key = sig.for_device(self.backends[0].hw());
        let mut warm_replica: Option<usize> = None;
        let decision = {
            let mut map = self.router.lock();
            let routed = match map.get_mut(&key) {
                Some(pl) => {
                    let primary_ok = self.usable(pl.primary, exclude);
                    let replica_ok = pl.replica.is_some_and(|r| self.usable(r, exclude));
                    if primary_ok || replica_ok {
                        if !primary_ok {
                            pl.primary = pl.replica.take().expect("replica_ok implies a replica");
                        } else if pl.replica.is_some() && !replica_ok {
                            pl.replica = None;
                        }
                        pl.served += 1;
                        // Hot: replicate to a second home so the load
                        // (and the fault exposure) splits.
                        if pl.replica.is_none() && pl.served >= self.replicate_after {
                            if let Some(r) = self.pick(&key, exclude | 1 << pl.primary) {
                                pl.replica = Some(r);
                                warm_replica = Some(r);
                            }
                        }
                        // Alternate between the two homes by served
                        // parity — deterministic for sequential callers.
                        Some(match pl.replica {
                            Some(r) if pl.served % 2 == 0 => r,
                            _ => pl.primary,
                        })
                    } else {
                        map.remove(&key);
                        None
                    }
                }
                None => None,
            };
            match routed {
                Some(idx) => Ok(idx),
                None => match self.pick(&key, exclude) {
                    Some(primary) => {
                        map.insert(
                            key,
                            Placement {
                                primary,
                                replica: None,
                                served: 1,
                            },
                        );
                        Ok(primary)
                    }
                    None => Err(ServiceError::NoDeviceSupports { signature: key }),
                },
            }
        };
        // Prewarm the new replica outside the router lock (planning is
        // expensive; routing must not serialize behind it).
        if let Some(r) = warm_replica {
            self.backends[r].warm(&[key.for_device(self.backends[r].hw())]);
        }
        decision
    }

    /// Whether backend `i` may take a request: dead, already-tried (in
    /// `exclude`), and breaker-refused backends are equally unusable.
    /// The breaker's `admit` doubles as the state pump (trips on a fault
    /// streak, goes half-open after enough skips).
    fn usable(&self, i: usize, exclude: u64) -> bool {
        !self.dead[i].load(Ordering::SeqCst)
            && exclude & (1 << i) == 0
            && self.breakers[i].admit(self.backends[i].fault_streak())
    }

    /// Scores every usable backend for a fresh placement (see the
    /// [router](crate::router) policy) and returns the best, or `None`
    /// when no backend passes the support/capacity probe.
    fn pick(&self, sig: &PlanSignature, exclude: u64) -> Option<usize> {
        let mut candidates = Vec::with_capacity(self.backends.len());
        for (i, svc) in self.backends.iter().enumerate() {
            if !self.usable(i, exclude) {
                continue;
            }
            // Table 2 support and device capacity, without building a
            // plan: a rejection here is "route elsewhere" — except an
            // over-capacity shape the out-of-core streaming path would
            // absorb, which stays a candidate (never "fits", so any
            // backend that can solve in core still outranks it).
            let probe = match sig.probe(svc.hw()) {
                Ok(p) => Some(p),
                Err(PlanError::ExceedsDeviceMemory {
                    oocore_eligible: true,
                    ..
                }) if svc.oocore_fallback_enabled() => None,
                Err(_) => continue,
            };
            let budget = svc.cache_budget_bytes();
            let available = svc.cache_available_bytes();
            candidates.push(Candidate {
                index: i,
                fits: probe.is_some_and(|p| p.device_bytes <= available),
                in_flight: svc.stats().queue.in_flight,
                headroom: if budget == 0 {
                    0.0
                } else {
                    available as f64 / budget as f64
                },
            });
        }
        best(&candidates)
    }
}

impl std::fmt::Debug for SvdFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if self.is_alive(i) {
                    s.hw().name
                } else {
                    "(dead)"
                }
            })
            .collect();
        write!(f, "SvdFleet({})", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_gpu::{hw, FaultPlan};
    use unisvd_scalar::F16;

    #[test]
    fn try_build_rejects_degenerate_configurations_typed() {
        assert_eq!(
            SvdFleet::builder().try_build().map(|_| ()),
            Err(FleetBuildError::NoDevices)
        );
        assert_eq!(
            SvdFleet::builder()
                .device(hw::h100())
                .replicate_after(0)
                .try_build()
                .map(|_| ()),
            Err(FleetBuildError::ZeroReplicateAfter)
        );
        let mut b = SvdFleet::builder();
        for _ in 0..65 {
            b = b.device(hw::h100());
        }
        assert_eq!(
            b.try_build().map(|_| ()),
            Err(FleetBuildError::TooManyDevices { count: 65 })
        );
        // build() panics with the same message, not a bare assert.
        let r = std::panic::catch_unwind(|| SvdFleet::builder().build());
        assert!(r.is_err());
    }

    #[test]
    fn breaker_trips_on_fault_streak_and_probe_heals() {
        // Backend 0 corrupts every upload and retries are off, so every
        // solve placed on it is a device fault; backend 1 is clean.
        let chaotic = hw::h100().with_faults(FaultPlan::seeded(7).corrupt_rate(1.0));
        let fleet = SvdFleet::builder()
            .device(chaotic)
            .device(hw::a100())
            .build();
        let cfg = SvdConfig::default();
        let a = Matrix::<f32>::identity(16);
        // Distinct shapes keep placements fresh so each request actually
        // consults the breaker rather than riding one placement.
        let mut faults = 0;
        for n in 0..64usize {
            let m = Matrix::<f32>::identity(8 + n);
            if matches!(fleet.solve(&m, &cfg), Err(SvdError::DeviceFault(_))) {
                faults += 1;
            }
        }
        assert!(faults >= BREAKER_TRIP as usize, "chaotic backend faulted");
        assert!(
            fleet.backend(0).fault_streak() >= BREAKER_TRIP || faults > 0,
            "streak accumulated"
        );
        // After the streak trips the breaker, traffic flows to the
        // healthy backend — the *same* shape that faulted now succeeds.
        let healthy_hits = fleet.backend(1).stats().cache.misses;
        assert!(
            healthy_hits > 0,
            "placements diverted to the healthy backend after the trip"
        );
        fleet
            .solve(&a, &cfg)
            .expect("served by the healthy backend");
        let health = fleet.device_health(0);
        assert!(
            matches!(health, DeviceHealth::Tripped | DeviceHealth::Probing),
            "breaker no longer closed: {health:?}"
        );
        assert_eq!(fleet.device_health(1), DeviceHealth::Healthy);
        assert_eq!(fleet.stats().per_device[1].health, DeviceHealth::Healthy);
    }

    #[test]
    fn revive_device_restores_service_after_kill() {
        let fleet = SvdFleet::new(&[hw::h100(), hw::a100()]);
        let cfg = SvdConfig::default();
        let a = Matrix::<f32>::identity(24);
        fleet.solve(&a, &cfg).expect("warm-up");
        fleet.fail_device(0);
        assert!(!fleet.is_alive(0));
        assert!(
            !fleet.revive_device(1),
            "reviving a live backend is a no-op"
        );
        assert!(fleet.revive_device(0), "dead backend revives");
        assert!(fleet.is_alive(0));
        assert_eq!(fleet.device_health(0), DeviceHealth::Healthy);
        // The revived backend serves again: submit lands somewhere and
        // resolves; direct backend access also works.
        let t = fleet.submit(a.clone(), &cfg).expect("admitted");
        t.wait().expect("resolved");
        fleet
            .backend(0)
            .solve(&a, &cfg)
            .expect("revived backend solves directly");
        assert!(fleet.backend(0).ledger_in_balance());
        // Idempotent in the other direction too.
        assert!(!fleet.revive_device(0));
    }

    #[test]
    fn double_kill_does_not_double_discard_ledger_bytes() {
        let fleet = SvdFleet::new(&[hw::h100(), hw::a100()]);
        let cfg = SvdConfig::default();
        let a = Matrix::<f32>::identity(32);
        fleet.solve(&a, &cfg).expect("cold solve");
        let served_by = (0..2)
            .find(|&i| fleet.backend(i).stats().cache.resident_plans == 1)
            .expect("someone cached the plan");
        fleet.fail_device(served_by);
        let used_after_first = fleet.backend(served_by).stats().cache.resident_bytes;
        assert_eq!(used_after_first, 0, "first kill empties the ledger");
        assert!(fleet.backend(served_by).ledger_in_balance());
        // Second kill must be a pure no-op: no second discard, the
        // ledger stays balanced at zero rather than underflowing.
        assert_eq!(fleet.fail_device(served_by), FailoverReport::default());
        assert_eq!(fleet.backend(served_by).stats().cache.resident_bytes, 0);
        assert!(fleet.backend(served_by).ledger_in_balance());
        assert!(fleet.backend(1 - served_by).ledger_in_balance());
    }

    #[test]
    fn unsupported_precision_routes_to_capable_device() {
        // mi250 (ROCm) has no FP16; m1_pro (Metal) has no FP64. Each
        // request must land on the capable device even when the
        // incapable one is listed first (lower index wins ties, so a
        // wrong probe would route to index 0).
        let cfg = SvdConfig::default();
        let fp16_fleet = SvdFleet::new(&[hw::mi250(), hw::h100()]);
        fp16_fleet
            .solve(&Matrix::<F16>::identity(16), &cfg)
            .expect("fp16 routes around mi250");
        assert_eq!(fp16_fleet.backend(0).stats().cache.misses, 0);
        assert_eq!(fp16_fleet.backend(1).stats().cache.misses, 1);
        let fp64_fleet = SvdFleet::new(&[hw::m1_pro(), hw::h100()]);
        fp64_fleet
            .solve(&Matrix::<f64>::identity(16), &cfg)
            .expect("fp64 routes around m1_pro");
        assert_eq!(
            fp64_fleet.backend(0).stats().cache.misses,
            0,
            "m1_pro must never see the fp64 request"
        );
        assert_eq!(fp64_fleet.backend(1).stats().cache.misses, 1);
    }

    #[test]
    fn oocore_fallback_places_oversized_shapes_and_prefers_in_core() {
        // A 96x96 f32 plan exceeds a 32 KiB device. Without the knob a
        // tiny-only fleet refuses the shape as unroutable; with it the
        // shape places on the tiny backend and streams. When an in-core
        // capable device is also present, it must win the placement —
        // the streaming candidate never "fits".
        let mut tiny = hw::rtx4060();
        tiny.memory_bytes = 32 * 1024;
        let cfg = SvdConfig::default();
        let a = Matrix::<f32>::identity(96);

        let refused = SvdFleet::builder().device(tiny.clone()).build();
        assert!(matches!(
            refused.solve(&a, &cfg),
            Err(SvdError::Rejected { .. })
        ));

        let streaming = SvdFleet::builder()
            .device(tiny.clone())
            .backends(|s| s.oocore_fallback(true))
            .build();
        let out = streaming
            .solve(&a, &cfg)
            .expect("streams on the tiny device");
        assert!(out.values.iter().all(|&s| (s - 1.0).abs() < 1e-5));

        let mixed = SvdFleet::builder()
            .device(tiny)
            .device(hw::h100())
            .backends(|s| s.oocore_fallback(true))
            .build();
        mixed.solve(&a, &cfg).expect("supported on h100");
        assert_eq!(
            mixed.backend(0).stats().cache.misses,
            0,
            "in-core capable h100 must outrank the streaming candidate"
        );
        assert_eq!(mixed.backend(1).stats().cache.misses, 1);
    }

    #[test]
    fn nothing_supports_it_is_a_typed_rejection() {
        let fleet = SvdFleet::new(&[hw::mi250()]);
        let cfg = SvdConfig::default();
        let err = fleet
            .solve(&Matrix::<F16>::identity(16), &cfg)
            .expect_err("mi250 alone cannot serve fp16");
        assert!(matches!(err, SvdError::Rejected { .. }));
        let err = fleet
            .submit(Matrix::<F16>::identity(16), &cfg)
            .map(|_| ())
            .expect_err("submit rejects identically");
        assert!(matches!(err, ServiceError::NoDeviceSupports { .. }));
    }

    #[test]
    fn hot_signature_gets_a_replica_and_alternates() {
        let fleet = SvdFleet::builder()
            .device(hw::h100())
            .device(hw::a100())
            .replicate_after(3)
            .build();
        let cfg = SvdConfig::default();
        let a = Matrix::<f32>::identity(24);
        for _ in 0..6 {
            fleet.solve(&a, &cfg).expect("supported everywhere");
        }
        let resident: Vec<usize> = (0..2)
            .map(|i| fleet.backend(i).stats().cache.resident_plans)
            .collect();
        assert_eq!(
            resident,
            vec![1, 1],
            "after the hotness threshold the plan lives on both devices"
        );
        // Both homes actually serve traffic (alternation).
        assert!(fleet.backend(0).stats().cache.hits >= 1);
        assert!(fleet.backend(1).stats().cache.hits >= 1);
    }

    #[test]
    fn fail_device_is_idempotent_and_migrates_residency() {
        let fleet = SvdFleet::new(&[hw::h100(), hw::a100()]);
        let cfg = SvdConfig::default();
        let a = Matrix::<f32>::identity(32);
        fleet.solve(&a, &cfg).expect("cold solve");
        let served_by = (0..2)
            .find(|&i| fleet.backend(i).stats().cache.resident_plans == 1)
            .expect("someone cached the plan");
        let report = fleet.fail_device(served_by);
        assert_eq!(report.replanned, 1, "the resident signature migrated");
        assert_eq!(report.rejected, 0);
        assert!(!fleet.is_alive(served_by));
        let survivor = 1 - served_by;
        assert_eq!(
            fleet.backend(survivor).stats().cache.resident_plans,
            1,
            "survivor holds the migrated plan"
        );
        assert_eq!(
            fleet.backend(served_by).stats().cache.resident_bytes,
            0,
            "dead ledger returns to zero"
        );
        assert!(fleet.backend(survivor).ledger_in_balance());
        // Idempotent.
        assert_eq!(fleet.fail_device(served_by), FailoverReport::default());
        // Traffic keeps flowing on the survivor — and the migrated plan
        // makes the first post-failover request a cache *hit*.
        let hits_before = fleet.backend(survivor).stats().cache.hits;
        fleet.solve(&a, &cfg).expect("survivor serves");
        assert_eq!(fleet.backend(survivor).stats().cache.hits, hits_before + 1);
    }

    #[test]
    fn failover_reroutes_every_precision_to_a_supporting_device() {
        // The H100 holds resident plans and queued tickets in F16, f32 and
        // f64. Its survivors split the support matrix (the MI250 has no
        // FP16, the M1 Pro no FP64), so each signature and ticket must
        // land on a survivor that can plan it. The coalesce window keeps
        // the tickets queued on the H100 until it dies.
        let fleet = SvdFleet::builder()
            .device(hw::h100())
            .device(hw::mi250())
            .device(hw::m1_pro())
            .backends(|s| s.coalesce_window(Duration::from_millis(500)))
            .build();
        let cfg = SvdConfig::default();
        let sigs = [
            fleet.backend(0).signature::<F16>(16, 16, &cfg),
            fleet.backend(0).signature::<f32>(16, 16, &cfg),
            fleet.backend(0).signature::<f64>(16, 16, &cfg),
        ];
        // Pin all three signatures to the H100: warm them while it is
        // the only live device, then bring the others back cold.
        fleet.fail_device(1);
        fleet.fail_device(2);
        assert_eq!(fleet.warm(&sigs), 3);
        assert!(fleet.revive_device(1) && fleet.revive_device(2));
        assert_eq!(fleet.backend(0).stats().cache.resident_plans, 3);
        let tickets = [
            fleet.submit(Matrix::<F16>::identity(16), &cfg),
            fleet.submit(Matrix::<f32>::identity(16), &cfg),
            fleet.submit(Matrix::<f64>::identity(16), &cfg),
        ];
        let report = fleet.fail_device(0);
        assert_eq!(
            (report.rerouted, report.rejected, report.replanned),
            (3, 0, 3)
        );
        for ticket in tickets {
            let out = ticket
                .expect("admitted")
                .wait_timeout(Duration::from_secs(10))
                .expect("a supporting survivor serves it");
            assert!((out.values[0] - 1.0).abs() < 1e-3, "{:?}", out.values);
        }
        // F16 can only live on the M1 Pro and f64 only on the MI250; f32
        // on either. Every re-routed ticket found its replanted plan.
        let survivors = [fleet.backend(1).stats(), fleet.backend(2).stats()];
        assert!(survivors.iter().all(|s| s.cache.resident_plans >= 1));
        let resident: usize = survivors.iter().map(|s| s.cache.resident_plans).sum();
        assert_eq!(resident, 3);
        let hits: u64 = survivors.iter().map(|s| s.cache.hits).sum();
        assert_eq!(hits, 3);
        assert_eq!(fleet.stats().total.queue.in_flight, 0);
    }
}
