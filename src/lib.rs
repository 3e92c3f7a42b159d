//! # unisvd — portable unified GPU kernels for singular value computation
//!
//! Rust reproduction of Ringoot, Alomairy, Churavy & Edelman,
//! *"Performant Unified GPU Kernels for Portable Singular Value
//! Computation Across Hardware and Precision"*, ICPP 2025.
//!
//! This facade crate re-exports the full public API of the workspace:
//!
//! * [`svdvals`] / [`svdvals_with`] — the unified singular value API,
//!   generic over storage precision ([`F16`], `f32`, `f64`) and hardware
//!   backend (simulated devices for the six platforms of the paper's
//!   Table 2).
//! * [`Svd`] / [`SvdPlan`] — the plan/execute API: validate, resolve
//!   hyperparameters, and allocate workspaces once, then solve the same
//!   shape many times with no per-solve overhead (the LoRA-fleet
//!   pattern).
//! * [`SvdService`] — the serving layer: a thread-safe sharded plan
//!   cache keyed by [`PlanSignature`], so concurrent request streams
//!   share plans instead of re-planning, with same-signature batches
//!   coalesced onto the work-stealing pool. `submit` returns a
//!   [`Ticket`] immediately and a drainer thread micro-batches
//!   same-signature submissions from different callers, shedding load
//!   with typed [`ServiceError`]s when the queue or memory saturates.
//!   Services are constructed with [`SvdService::builder`].
//! * [`SvdFleet`] — many heterogeneous devices behind the same serving
//!   surface: requests route by plan-time support, memory headroom, and
//!   observed load; hot signatures replicate; `fail_device` migrates a
//!   lost device's work to survivors without hanging a ticket.
//! * [`FaultPlan`] — deterministic chaos: a seeded fault schedule
//!   (transfer corruption, kernel stalls, transient allocation
//!   failures, device death) attached to a hardware descriptor, with
//!   the self-healing serving knobs that absorb it — bounded retries,
//!   output verification, per-ticket deadlines, per-backend circuit
//!   breakers ([`DeviceHealth`]), and `revive_device`.
//! * [`OutOfCore`] / [`OutOfCorePlan`] — out-of-core execution for
//!   operands beyond device memory: the operand streams in tiles (one
//!   simulated transfer charged per tile, straight from the operand's
//!   slice) through the in-core plan of a large-enough device, whose
//!   values it matches bit for bit. Services and fleets opt in with
//!   `oocore_fallback(true)` to stream requests their device rejects as
//!   over-capacity.
//! * [`Device`] / [`hw`] — the bulk-synchronous GPU simulator and the
//!   hardware descriptors.
//! * [`Matrix`] and test-matrix generators.
//! * Comparator baselines (Jacobi oracle, one-stage `gebrd`, and the five
//!   simulated libraries of the paper's evaluation).
//!
//! ```
//! use unisvd::{svdvals, Device, hw, Matrix};
//!
//! let a = Matrix::<f32>::identity(64);
//! let dev = Device::numeric(hw::h100());
//! let sv = svdvals(&a, &dev).unwrap();
//! assert!((sv[0] - 1.0).abs() < 1e-5);
//! ```

#![forbid(unsafe_code)]

pub use unisvd_baselines::{gebrd, jacobi_svdvals, onestage_svdvals, Library};
pub use unisvd_core::{
    band_to_bidiagonal, band_to_bidiagonal_into, bdsqr, bdsqr_into, bisect, dqds, dqds_into,
    svdvals, svdvals_with, PlanError, PlanProbe, PlanSignature, Stage3Solver, Stage3Workspace, Svd,
    SvdConfig, SvdError, SvdOutput, SvdPlan, Want,
};
pub use unisvd_gpu::hw;
pub use unisvd_gpu::{
    BackendKind, Device, DeviceFault, ExecMode, FaultChannel, FaultInjector, FaultKind, FaultPlan,
    FaultRecord, GlobalBuffer, HardwareDescriptor, KernelClass, LaunchRecord, LaunchSpec,
    MemoryLedger, TraceSummary, UnsupportedPrecision,
};
pub use unisvd_kernels::HyperParams;
pub use unisvd_matrix::{
    reference, testmat, BandMatrix, Bidiagonal, Matrix, MatrixRef, SvDistribution,
};
pub use unisvd_oocore::{OutOfCore, OutOfCorePlan};
pub use unisvd_scalar::{PrecisionKind, Real, Scalar, F16};
pub use unisvd_service::{
    CacheStats, DeviceHealth, DeviceStats, FailoverReport, FleetBuildError, FleetBuilder,
    FleetStats, QueueStats, ServiceBuilder, ServiceError, ServiceStats, SvdFleet, SvdService,
    Ticket,
};

/// Host threading controls, re-exported from the vendored work-stealing
/// pool (`shims/rayon`).
///
/// Everything parallel in this workspace — [`SvdPlan::execute_batch`],
/// gpu-sim workgroup launches, buffer fills — runs on this pool, as one
/// chunked batch per parallel loop. The global pool sizes itself from
/// `RAYON_NUM_THREADS` (1 = guaranteed-sequential fallback, no worker
/// threads at all); an explicitly sized pool can be installed around any
/// call:
///
/// ```
/// use unisvd::threading::ThreadPoolBuilder;
/// use unisvd::{hw, Matrix, Svd};
///
/// let mats: Vec<Matrix<f32>> = (0..4).map(|_| Matrix::identity(16)).collect();
/// let mut plan = Svd::on(&hw::h100()).precision::<f32>().plan(16, 16).unwrap();
/// let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
/// let sv = pool.install(|| plan.execute_batch(&mats));
/// assert!(sv.iter().all(|r| r.is_ok()));
/// ```
///
/// Results are **bit-identical** for every thread count: every parallel
/// loop is `par_iter_mut` over disjoint borrows, split into chunks that
/// depend only on input sizes, so each item is written by exactly one
/// body and nothing is reduced across threads.
pub mod threading {
    pub use rayon::{current_num_threads, ThreadPool, ThreadPoolBuilder};
}
