//! Plan/execute API: one-time planning, many amortized solves.
//!
//! The paper's motivating workloads (LoRA-style fleets of many
//! same-shaped adapters) call `svdvals` on the same problem shape
//! thousands of times. The free-function API re-validates the support
//! matrix, re-resolves hyperparameters, re-allocates the padded host
//! staging buffer, and re-allocates device buffers on every call — the
//! per-call driver overhead mature dense-linear-algebra APIs avoid by
//! separating *planning* from *execution* (FFTW plans, cuSOLVER
//! handle + workspace-query).
//!
//! [`Svd`] is the builder: it performs all one-time work up front —
//! support-matrix check, hyperparameter resolution, tile padding,
//! workspace sizing — and returns an [`SvdPlan`] owning the device
//! handle plus preallocated host staging and device workspaces.
//! [`SvdPlan::execute`] then runs one solve with **no per-solve staging
//! or device allocation**, producing values bit-identical to the
//! one-shot [`svdvals_with`](crate::svdvals_with).
//!
//! ```
//! use unisvd_core::Svd;
//! use unisvd_gpu::hw;
//! use unisvd_matrix::Matrix;
//!
//! let mut plan = Svd::on(&hw::h100()).precision::<f32>().plan(32, 32)?;
//! for k in 1..=3 {
//!     let a = Matrix::<f32>::from_fn(32, 32, |i, j| if i == j { k as f32 } else { 0.0 });
//!     let out = plan.execute(&a)?;
//!     assert!((out.values[0] - k as f64).abs() < 1e-5);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::band2bi::{band_to_bidiagonal_into_ext, work_band_geometry};
use crate::band_diag::{band_diag_ext, extract_band_into};
use crate::bidiag_svd::{
    account_stage3_cost, all_finite, bdsqr_into, bisect_topk_into, NoConvergence, Stage3Workspace,
};
use crate::dqds::dqds_into;
use crate::svd::{resolve_params, Stage3Solver, SvdConfig, SvdError, SvdOutput, Want};
use crate::vectors::VectorScratch;
use std::marker::PhantomData;
use unisvd_gpu::{
    BackendKind, Device, ExecMode, GlobalBuffer, HardwareDescriptor, KernelClass, TraceSummary,
    UnsupportedPrecision,
};
use unisvd_kernels::{account_accum_cost, HyperParams};
use unisvd_matrix::reference::{apply_q_inplace, householder_qr_into};
use unisvd_matrix::Matrix;
use unisvd_matrix::{BandMatrix, Bidiagonal};
use unisvd_scalar::{PrecisionKind, Real, Scalar};

/// Errors detected while *planning* a computation — before any solve
/// runs. These used to surface as failures deep inside a solve (or not
/// at all, for capacity problems); the plan reports them up front.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The (device, precision) pair is outside the paper's Table 2
    /// support matrix.
    Unsupported(UnsupportedPrecision),
    /// The padded working set of a numeric plan does not fit in device
    /// memory (with the standard 25% workspace headroom).
    ExceedsDeviceMemory {
        /// Device name.
        device: &'static str,
        /// Padded problem edge the plan would allocate.
        padded: usize,
        /// Bytes the padded device buffer requires.
        bytes: u64,
        /// Whether the out-of-core subsystem (`unisvd_oocore`) would
        /// accept this request on the same device: "too big for one
        /// upload" rather than "too big, period". Routers use it to
        /// fall back to panel streaming instead of shedding.
        oocore_eligible: bool,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Unsupported(u) => write!(f, "{u}"),
            PlanError::ExceedsDeviceMemory {
                device,
                padded,
                bytes,
                oocore_eligible,
            } => write!(
                f,
                "{device}: padded {padded}\u{d7}{padded} working set ({bytes} bytes) \
                 exceeds device memory{}",
                if *oocore_eligible {
                    " (out-of-core path eligible)"
                } else {
                    ""
                }
            ),
        }
    }
}

impl std::error::Error for PlanError {
    /// The support-matrix rejection this plan error wraps, if any.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Unsupported(u) => Some(u),
            PlanError::ExceedsDeviceMemory { .. } => None,
        }
    }
}

impl From<UnsupportedPrecision> for PlanError {
    fn from(u: UnsupportedPrecision) -> Self {
        PlanError::Unsupported(u)
    }
}

/// The hashable identity of a plan: every input that determines the
/// launch stream and the bits of the produced values. Two requests with
/// equal signatures are served correctly by one shared [`SvdPlan`] —
/// this is the cache key of serving layers (`unisvd_service`).
///
/// Obtained from the builder ([`Svd::signature`]) before paying for
/// planning, or from an existing plan ([`SvdPlan::signature`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanSignature {
    /// Device name (unique across the `hw` descriptor set).
    pub device: &'static str,
    /// Vendor backend of the device (part of hyperparameter selection).
    pub backend: BackendKind,
    /// Storage precision of the planned solves.
    pub precision: PrecisionKind,
    /// Input rows the plan accepts.
    pub rows: usize,
    /// Input columns the plan accepts.
    pub cols: usize,
    /// The full solve configuration (solver, fusion, rescaling, and any
    /// explicit hyperparameter override).
    pub config: SvdConfig,
}

impl PlanSignature {
    /// The signature this request would carry on a *different* device:
    /// identical shape, precision and configuration, but keyed to `hw`.
    /// This is the re-routing primitive of fleet serving — a signature
    /// resident on a failed device is retargeted to a survivor before
    /// re-planning there.
    pub fn for_device(mut self, hw: &HardwareDescriptor) -> PlanSignature {
        self.device = hw.name;
        self.backend = hw.backend;
        self
    }

    /// Runs every admission check planning this request on `hw` would —
    /// the Table 2 support matrix and the device-capacity rule —
    /// **without building anything**: no device buffers, no host
    /// staging, no workspace allocation. The signature's own device
    /// fields are ignored, so fleet routing asks the same question of
    /// every candidate device, for any precision, before paying for
    /// planning anywhere. `Ok` guarantees that planning the request on
    /// `hw` succeeds, and vice versa; [`Svd::probe`] is this check on the
    /// builder's own device.
    pub fn probe(&self, hw: &HardwareDescriptor) -> Result<PlanProbe, PlanError> {
        let (core, device_bytes) = self.admit(hw)?;
        Ok(PlanProbe {
            padded: core.padded,
            device_bytes,
            oocore_eligible: core.oocore_eligible(),
        })
    }

    /// The one admission implementation behind [`probe`](Self::probe)
    /// and [`Svd::plan`]: the resolved plan core and the device bytes a
    /// built plan would pin (its `device_bytes()` with lane 0 alone).
    /// Builds no device; only [`Svd::plan`] does, once admitted.
    fn admit(&self, hw: &HardwareDescriptor) -> Result<(PlanCore, u64), PlanError> {
        let core = PlanCore::new(hw, self.precision, &self.config, self.rows, self.cols)?;
        // Everything the plan will hold on the device: the padded matrix
        // plus the τ-factor vector. Matching device_bytes() exactly
        // means a plan that passes this check can always be admitted by
        // an empty budget_bytes()-sized cache ledger.
        let padded = core.padded as u64;
        let bytes = (padded * padded + padded) * self.precision.bytes() as u64;
        if padded > 0 && !hw.fits(bytes) {
            return Err(PlanError::ExceedsDeviceMemory {
                device: hw.name,
                padded: core.padded,
                bytes,
                oocore_eligible: core.oocore_eligible(),
            });
        }
        Ok((core, bytes))
    }
}

impl std::fmt::Display for PlanSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} {} on {} [{}]",
            self.rows, self.cols, self.precision, self.device, self.config
        )
    }
}

/// What [`PlanSignature::probe`] learns about a plan without building
/// it: the geometry and device-memory footprint admission decisions need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanProbe {
    /// Padded device problem edge the plan would use (0 for empty
    /// shapes).
    pub padded: usize,
    /// Device bytes a built plan would pin (its `device_bytes()` with
    /// lane 0 alone; 0 for empty plans).
    pub device_bytes: u64,
    /// Whether the out-of-core subsystem (`unisvd_oocore`) accepts this
    /// request: true for every nonempty numeric shape, whether or not it
    /// also fits in one upload. Rejected probes surface the same hint on
    /// [`PlanError::ExceedsDeviceMemory`].
    pub oocore_eligible: bool,
}

/// Host driver overhead model for one solve. The Julia original pays
/// dispatch + allocation + JIT-cache checks on every call
/// (`DRIVER_ONESHOT`); a reused plan has validated, resolved, and
/// allocated once, so each execute after its first pays the dispatch
/// share only (`DRIVER_AMORTIZED`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DriverCost {
    /// Full per-call overhead (one-shot calls, a plan's first execute).
    OneShot,
    /// Dispatch-only overhead (plan reuse).
    Amortized,
}

/// One-shot host overhead as a fraction of a CPU-second (dispatch +
/// allocation + JIT cache checks in the Julia original).
const DRIVER_ONESHOT: f64 = 0.8e-3;
/// Residual dispatch overhead per executed solve once a plan has
/// amortized allocation and validation.
const DRIVER_AMORTIZED: f64 = 0.2e-3;

/// How an accepted input shape maps onto the square device problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlanKind {
    /// `min(m, n) == 0`: no values, nothing to run.
    Empty,
    /// Square-ish: zero-pad to the next tile multiple of `max(m, n)`.
    Direct,
    /// Tall (`m ≥ 2n`): host QR first, device solves `R` (n×n).
    TallQr,
    /// Wide (`n ≥ 2m`): transpose, then the tall path (m×m).
    WideQr,
}

/// The device-independent result of planning: resolved configuration,
/// shape strategy, and padded problem geometry (plain data); device
/// buffers and host staging hang off a plan's lanes instead.
#[derive(Debug)]
pub(crate) struct PlanCore {
    cfg: SvdConfig,
    params: HyperParams,
    rows: usize,
    cols: usize,
    mindim: usize,
    kind: PlanKind,
    padded: usize,
}

impl PlanCore {
    /// All one-time planning work: support-matrix check, shape-strategy
    /// selection, hyperparameter resolution, tile padding.
    pub(crate) fn new(
        hw: &HardwareDescriptor,
        precision: PrecisionKind,
        cfg: &SvdConfig,
        rows: usize,
        cols: usize,
    ) -> Result<Self, UnsupportedPrecision> {
        hw.supports(precision)?;
        let mindim = rows.min(cols);
        let (kind, device_n) = if mindim == 0 {
            (PlanKind::Empty, 0)
        } else if rows >= 2 * cols {
            // Tall-and-skinny fast path (§5): σ(A) = σ(R) with R only
            // n × n, so the device pipeline runs on an n × n problem.
            (PlanKind::TallQr, cols)
        } else if cols >= 2 * rows {
            (PlanKind::WideQr, rows)
        } else {
            (PlanKind::Direct, rows.max(cols))
        };
        let (params, padded) = if device_n == 0 {
            (HyperParams::reference(), 0)
        } else {
            let p = resolve_params(hw, precision, cfg, device_n);
            (p, device_n.div_ceil(p.tilesize) * p.tilesize)
        };
        Ok(PlanCore {
            cfg: *cfg,
            params,
            rows,
            cols,
            mindim,
            kind,
            padded,
        })
    }

    pub(crate) fn padded(&self) -> usize {
        self.padded
    }

    /// The `rows × cols` block the device solves, top left of the padded
    /// problem: the input itself, or the host QR's square triangle.
    fn device_shape(&self) -> (usize, usize) {
        match self.kind {
            PlanKind::Direct => (self.rows, self.cols),
            _ => (self.mindim, self.mindim),
        }
    }

    pub(crate) fn params(&self) -> HyperParams {
        self.params
    }

    /// Whether the out-of-core subsystem accepts this request: any
    /// nonempty *values-only* solve can be panel-streamed regardless of
    /// the one-upload capacity rule. Solves requesting singular vectors
    /// are not eligible — the out-of-core pipeline discards the panel
    /// factors it streams, so it has nothing to replay vectors from.
    fn oocore_eligible(&self) -> bool {
        self.padded > 0 && self.cfg.vectors == Want::None
    }

    /// Host workspace sized for one numeric solve of this plan.
    pub(crate) fn host_workspace<T: Scalar>(&self) -> Workspace<T> {
        let qr_len = match self.kind {
            PlanKind::TallQr | PlanKind::WideQr => self.rows * self.cols,
            PlanKind::Empty | PlanKind::Direct => 0,
        };
        // Tall/wide vector assembly lifts device-frame vectors through the
        // host QR: retain the τ coefficients and a qm × k scratch block.
        let k = self.cfg.vectors.columns(self.mindim);
        let qvec_len = if qr_len > 0 {
            self.rows.max(self.cols) * k
        } else {
            0
        };
        Workspace {
            staging: vec![T::zero(); self.padded * self.padded],
            qr: vec![0.0; qr_len],
            qr_tau: Vec::with_capacity(if qr_len > 0 { self.mindim } else { 0 }),
            qvec: vec![0.0; qvec_len],
            pipe: PipelineScratch::for_numeric(
                self.padded,
                self.params.tilesize,
                self.cfg.vectors,
                self.device_shape(),
            ),
        }
    }

    /// Runs this plan's launch stream on the data-less device `dev`,
    /// charging `driver`'s host share: the one cost replay behind
    /// [`Svd::cost`], [`SvdPlan::cost`] and one-shot solves on a
    /// trace-only device. Empty shapes launch nothing.
    pub(crate) fn replay<T: Scalar>(&self, dev: &Device, driver: DriverCost) {
        debug_assert_eq!(dev.mode(), ExecMode::TraceOnly);
        if self.kind == PlanKind::Empty {
            return;
        }
        let buf = dev.alloc::<T>(0);
        let tau = dev.alloc::<T>(0);
        let mut pipe = PipelineScratch::for_trace(self.padded, self.cfg.vectors, self.mindim);
        let r = run_pipeline::<T>(
            dev,
            &buf,
            &tau,
            self.padded,
            &self.params,
            &self.cfg,
            driver,
            &mut pipe,
            &mut Vec::new(),
        );
        debug_assert!(r.is_ok(), "a data-less pipeline cannot fail");
    }
}

/// Reusable scratch for stages 2–3 of one pipeline run: the stage-2 work
/// band (stage 1's band plus the chase's fill room), the bidiagonal it
/// reduces to, and the stage-3 solver workspace. Owned by a plan's
/// [`Workspace`] so repeated executes refill instead of reallocate; the
/// one-shot wrappers build a fresh one per call.
pub(crate) struct PipelineScratch<A: Real> {
    band: BandMatrix<A>,
    bi: Bidiagonal<A>,
    s3: Stage3Workspace<A>,
    /// Singular-vector columns accumulated per solve (`0` without
    /// vectors); drives the accumulation cost model in numeric runs and
    /// cost replays alike.
    k: usize,
    /// Singular-vector workspace of a numeric run (`Some` iff `k > 0`):
    /// the reflector log, the bidiagonal's inverse-iteration workspace
    /// and the `padded × k` accumulators.
    vac: Option<VectorScratch>,
}

impl<A: Real> PipelineScratch<A> {
    /// Scratch for a numeric run of padded size `padded`, tile `ts`, on a
    /// device problem of `shape` (rows, cols) at the top left of the
    /// padding, accumulating `vectors.columns(min(shape))` singular-vector
    /// columns.
    pub(crate) fn for_numeric(
        padded: usize,
        ts: usize,
        vectors: Want,
        shape: (usize, usize),
    ) -> Self {
        let (sub, sup) = work_band_geometry(padded, ts);
        let k = vectors.columns(shape.0.min(shape.1));
        let topk = matches!(vectors, Want::TopK(_));
        PipelineScratch {
            band: BandMatrix::zeros(padded, sub, sup),
            bi: Bidiagonal::new(Vec::new(), Vec::new()),
            s3: Stage3Workspace::default(),
            k,
            vac: (k > 0).then(|| VectorScratch::new(k, topk, padded, ts, shape)),
        }
    }

    /// Scratch for a cost replay on a data-less device: no data, but the
    /// stage-2 cost stream reads the placeholder's order.
    fn for_trace(padded: usize, vectors: Want, mindim: usize) -> Self {
        PipelineScratch {
            band: BandMatrix::zeros(padded.max(1), 0, 0),
            bi: Bidiagonal::new(Vec::new(), Vec::new()),
            s3: Stage3Workspace::default(),
            k: vectors.columns(mindim),
            vac: None,
        }
    }
}

/// Preallocated host scratch: the padded column-major staging buffer the
/// device upload reads from, (tall/wide shapes) the `f64` QR factor
/// scratch, and the stage-2/3 pipeline scratch. Reused across every
/// execute of one plan.
pub(crate) struct Workspace<T: Scalar> {
    staging: Vec<T>,
    qr: Vec<f64>,
    /// τ coefficients of the host QR factorisation in `qr`, retained per
    /// solve for the tall/wide singular-vector assembly.
    qr_tau: Vec<f64>,
    /// `qm × k` scratch the tall/wide vector assembly applies `Q` into.
    qvec: Vec<f64>,
    pipe: PipelineScratch<T::Accum>,
}

impl<T: Scalar> Workspace<T> {
    /// Identity of the staging allocation — lets tests assert that plan
    /// reuse never reallocates the padded matrix.
    #[cfg(test)]
    fn staging_fingerprint(&self) -> (*const T, usize) {
        (self.staging.as_ptr(), self.staging.capacity())
    }
}

/// Builder for a reusable singular value plan: pick hardware, precision,
/// and configuration, then [`plan`](Svd::plan) a shape.
///
/// ```
/// use unisvd_core::{Stage3Solver, Svd};
/// use unisvd_gpu::hw;
///
/// let plan = Svd::on(&hw::h100())
///     .precision::<f32>()
///     .solver(Stage3Solver::Dqds)
///     .fused(true)
///     .rescale(true)
///     .plan(48, 48)?;
/// assert_eq!(plan.shape(), (48, 48));
/// # Ok::<(), unisvd_core::PlanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Svd<T: Scalar = f64> {
    hw: HardwareDescriptor,
    cfg: SvdConfig,
    _precision: PhantomData<fn() -> T>,
}

impl Svd<f64> {
    /// Starts a builder for hardware `hw` (default `f64` precision,
    /// default configuration).
    pub fn on(hw: &HardwareDescriptor) -> Self {
        Svd {
            hw: hw.clone(),
            cfg: SvdConfig::default(),
            _precision: PhantomData,
        }
    }
}

impl<T: Scalar> Svd<T> {
    /// Selects the storage precision of the planned solves.
    pub fn precision<U: Scalar>(self) -> Svd<U> {
        Svd {
            hw: self.hw,
            cfg: self.cfg,
            _precision: PhantomData,
        }
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: SvdConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Pins explicit kernel hyperparameters (default: the tuned table).
    pub fn params(mut self, p: HyperParams) -> Self {
        self.cfg.params = Some(p);
        self
    }

    /// Selects the stage-3 bidiagonal solver.
    pub fn solver(mut self, s: Stage3Solver) -> Self {
        self.cfg.solver = s;
        self
    }

    /// Fused vs row-by-row classic stage-1 kernels (Fig. 2 ablation).
    pub fn fused(mut self, fused: bool) -> Self {
        self.cfg.fused = fused;
        self
    }

    /// Pre-scale inputs so the largest entry is O(1) (FP16 protection).
    pub fn rescale(mut self, rescale: bool) -> Self {
        self.cfg.rescale = rescale;
        self
    }

    /// Requests singular vectors: [`Want::Thin`] accumulates all
    /// `min(m, n)` columns of `U`/`Vᵀ`, [`Want::TopK`]`(k)` only the
    /// leading `k` (truncating the values list to match). The default
    /// [`Want::None`] computes values only.
    pub fn vectors(mut self, want: Want) -> Self {
        self.cfg.vectors = want;
        self
    }

    /// The signature a plan built from this builder for `rows × cols`
    /// inputs would carry — computable without paying for planning, so
    /// caches can key their lookup before deciding to build.
    pub fn signature(&self, rows: usize, cols: usize) -> PlanSignature {
        PlanSignature {
            device: self.hw.name,
            backend: self.hw.backend,
            precision: T::KIND,
            rows,
            cols,
            config: self.cfg,
        }
    }

    /// Runs every admission check [`plan`](Svd::plan) would, without
    /// building anything: [`PlanSignature::probe`] on this builder's
    /// device. On success the returned [`PlanProbe`] reports the padded
    /// problem edge and the device bytes a real plan would pin.
    ///
    /// ```
    /// use unisvd_core::{PlanError, Svd};
    /// use unisvd_gpu::hw;
    ///
    /// // Supported: probe reports the plan's footprint without building.
    /// let p = Svd::on(&hw::h100()).precision::<f32>().probe(48, 48)?;
    /// assert_eq!(p.padded % 16, 0);
    /// assert!(p.device_bytes > 0);
    /// // Out of the support matrix: rejected exactly like `plan`.
    /// assert!(matches!(
    ///     Svd::on(&hw::m1_pro()).precision::<f64>().probe(48, 48),
    ///     Err(PlanError::Unsupported(_))
    /// ));
    /// # Ok::<(), PlanError>(())
    /// ```
    pub fn probe(&self, rows: usize, cols: usize) -> Result<PlanProbe, PlanError> {
        self.signature(rows, cols).probe(&self.hw)
    }

    /// Simulated steady per-execute cost of a plan for `rows × cols`
    /// inputs — what [`SvdPlan::cost`] would report — without building
    /// one. Only the support matrix is checked, not device capacity: no
    /// data exists, so paper-scale sizes that no device or host could
    /// hold (the Fig. 5 sweeps) cost as readily as small ones.
    ///
    /// ```
    /// use unisvd_core::{PlanError, Svd};
    /// use unisvd_gpu::hw;
    ///
    /// // 65536² f32 is too big to plan on an 8 GB RTX 4060, but costs.
    /// let svd = Svd::on(&hw::rtx4060()).precision::<f32>();
    /// assert!(matches!(svd.probe(65536, 65536), Err(PlanError::ExceedsDeviceMemory { .. })));
    /// assert!(svd.cost(65536, 65536)?.total_seconds() > 0.0);
    /// # Ok::<(), PlanError>(())
    /// ```
    pub fn cost(&self, rows: usize, cols: usize) -> Result<TraceSummary, PlanError> {
        let dev = Device::trace_only(self.hw.clone());
        let core = PlanCore::new(&self.hw, T::KIND, &self.cfg, rows, cols)?;
        core.replay::<T>(&dev, DriverCost::Amortized);
        Ok(dev.summary())
    }

    /// Performs all one-time work — support-matrix check, hyperparameter
    /// resolution, tile padding, capacity check, workspace allocation —
    /// and returns the reusable plan for `rows × cols` inputs.
    pub fn plan(self, rows: usize, cols: usize) -> Result<SvdPlan<T>, PlanError> {
        let (core, _) = self.signature(rows, cols).admit(&self.hw)?;
        Ok(SvdPlan {
            lanes: vec![Lane::new(Device::numeric(self.hw.clone()), &core, true)],
            core,
        })
    }
}

/// A planned singular value computation: the resolved plan core plus its
/// lanes — device streams that each own their buffers and workspaces —
/// so repeated [`execute`](SvdPlan::execute) calls perform no per-solve
/// staging or device allocation. Lane 0 is the plan's own stream, built
/// at plan time; [`execute_batch_refs_into`](SvdPlan::execute_batch_refs_into)
/// grows further lanes on first use and keeps them. Values are
/// bit-identical to the one-shot [`svdvals_with`](crate::svdvals_with),
/// and so is the simulated cost of a plan's first solve.
pub struct SvdPlan<T: Scalar> {
    core: PlanCore,
    lanes: Vec<Lane<T>>,
}

/// One device stream of a plan and everything a solve on it touches:
/// the padded matrix and τ buffers and the host workspace.
struct Lane<T: Scalar> {
    dev: Device,
    buf: GlobalBuffer<T>,
    tau: GlobalBuffer<T>,
    ws: Workspace<T>,
    /// Whether the next solve on this lane pays the one-shot driver share
    /// the planning work cost: lane 0 starts cold, extra lanes warm.
    cold: bool,
}

impl<T: Scalar> Lane<T> {
    fn new(dev: Device, core: &PlanCore, cold: bool) -> Self {
        Lane {
            buf: dev.alloc::<T>(core.padded * core.padded),
            tau: dev.alloc::<T>(core.padded),
            ws: core.host_workspace::<T>(),
            dev,
            cold,
        }
    }

    /// An extra lane beside this one: its own stream on the same
    /// hardware, starting warm because the plan already paid for
    /// planning. Extra lanes run fault-free: which request lands on which
    /// extra lane depends on coalescing in a serving layer, so injecting
    /// there would make fault schedules irreproducible. Injection rides
    /// lane 0 (and each retry attempt advances its counters).
    fn sibling(&self, core: &PlanCore) -> Self {
        let mut hw = self.dev.hw().clone();
        hw.fault = None;
        Lane::new(Device::numeric(hw), core, false)
    }

    /// Runs one solve on this lane; the stream's trace is reset on entry.
    fn execute_into(
        &mut self,
        core: &PlanCore,
        a: &Matrix<T>,
        out: &mut SvdOutput,
    ) -> Result<(), SvdError> {
        // Cleared whatever the outcome: a failed first solve still paid
        // for planning, so a retry on this lane pays the dispatch share.
        let driver = if std::mem::take(&mut self.cold) {
            DriverCost::OneShot
        } else {
            DriverCost::Amortized
        };
        self.dev.reset();
        execute_core(
            core,
            &mut self.ws,
            &self.dev,
            &self.buf,
            &self.tau,
            a,
            driver,
            out,
        )
    }
}

/// Upper bound on the chunks of one batch: enough splits for any
/// realistic thread count while each lane's setup stays amortized across
/// its chunk's solves.
const MAX_BATCH_CHUNKS: usize = 64;

impl<T: Scalar> SvdPlan<T> {
    /// The input shape this plan accepts.
    pub fn shape(&self) -> (usize, usize) {
        (self.core.rows, self.core.cols)
    }

    /// Resolved hyperparameters (the tuned table entry, or the explicit
    /// override, tile-clamped for the planned size).
    pub fn params(&self) -> HyperParams {
        self.core.params
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &SvdConfig {
        &self.core.cfg
    }

    /// Padded device problem edge (0 for empty shapes).
    pub fn padded_n(&self) -> usize {
        self.core.padded
    }

    /// The plan's own (numeric) device stream, lane 0: hardware
    /// description and the trace of the most recent solve on it.
    pub fn device(&self) -> &Device {
        &self.lanes[0].dev
    }

    /// The cache key this plan is correctly shared under (see
    /// [`PlanSignature`]).
    pub fn signature(&self) -> PlanSignature {
        let dev = self.device();
        PlanSignature {
            device: dev.hw().name,
            backend: dev.hw().backend,
            precision: T::KIND,
            rows: self.core.rows,
            cols: self.core.cols,
            config: self.core.cfg,
        }
    }

    /// Device memory this plan's buffers pin while it is alive, in bytes
    /// (0 for empty plans, which allocate no data): one lane's
    /// buffers times the lane count, so extra lanes grown by
    /// [`execute_batch_refs_into`](SvdPlan::execute_batch_refs_into)
    /// count too. Serving layers charge this against a
    /// [`MemoryLedger`](unisvd_gpu::MemoryLedger) so a cache full of
    /// plans respects the same device-capacity rule that
    /// [`PlanError::ExceedsDeviceMemory`] enforces per plan.
    pub fn device_bytes(&self) -> u64 {
        self.lane_device_bytes() * self.lanes.len() as u64
    }

    /// Bytes of one lane's device buffers (every lane pins the same).
    fn lane_device_bytes(&self) -> u64 {
        let lane = &self.lanes[0];
        ((lane.buf.len() + lane.tau.len()) as u64) * T::KIND.bytes() as u64
    }

    /// Extra lanes the batch path has grown beside lane 0 (0 until the
    /// first batch of two or more; tests pin the no-regrowth guarantee).
    pub fn batch_workers(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Runs one solve on lane 0. The returned summary covers exactly this
    /// solve (the lane's trace is reset on entry). A plan's first solve
    /// on lane 0 charges the one-shot host driver share, exactly as
    /// [`svdvals_with`](crate::svdvals_with) does; every later one
    /// charges the amortized dispatch share only.
    ///
    /// # Errors
    /// [`SvdError::ShapeMismatch`] if `a` is not the planned shape;
    /// [`SvdError::NoConvergence`] on pathological stage-3 inputs.
    ///
    /// ```
    /// use unisvd_core::Svd;
    /// use unisvd_gpu::hw;
    /// use unisvd_matrix::Matrix;
    ///
    /// let mut plan = Svd::on(&hw::h100()).precision::<f64>().plan(16, 16)?;
    /// let out = plan.execute(&Matrix::<f64>::identity(16))?;
    /// assert_eq!(out.values.len(), 16);
    /// assert!((out.values[0] - 1.0).abs() < 1e-12);
    /// // Reuse: same plan, different data, no reallocation.
    /// let b = Matrix::<f64>::from_fn(16, 16, |i, j| ((i + 2 * j) % 5) as f64);
    /// let out2 = plan.execute(&b)?;
    /// assert_eq!(out2.values.len(), 16);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn execute(&mut self, a: &Matrix<T>) -> Result<SvdOutput, SvdError> {
        let mut out = SvdOutput::empty();
        self.execute_into(a, &mut out)?;
        Ok(out)
    }

    /// [`execute`](SvdPlan::execute) writing into an existing
    /// [`SvdOutput`] — the zero-allocation steady-state entry point:
    /// once `out` and the plan's workspaces have warmed up (one solve),
    /// repeated calls perform **no heap allocation at all** (enforced by
    /// the workspace's `tests/alloc_budget.rs` counting-allocator
    /// harness). Values, resolved parameters, padded size, and the
    /// per-solve summary all overwrite `out` in place; results are
    /// bit-identical to [`execute`](SvdPlan::execute).
    ///
    /// ```
    /// use unisvd_core::{Svd, SvdOutput};
    /// use unisvd_gpu::hw;
    /// use unisvd_matrix::Matrix;
    ///
    /// let mut plan = Svd::on(&hw::h100()).precision::<f64>().plan(16, 16)?;
    /// let mut out = SvdOutput::empty();
    /// for k in 1..=3 {
    ///     let a = Matrix::<f64>::from_fn(16, 16, |i, j| if i == j { k as f64 } else { 0.0 });
    ///     plan.execute_into(&a, &mut out)?;
    ///     assert!((out.values[0] - k as f64).abs() < 1e-12);
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn execute_into(&mut self, a: &Matrix<T>, out: &mut SvdOutput) -> Result<(), SvdError> {
        self.lanes[0].execute_into(&self.core, a, out)
    }

    /// Solves many same-shaped problems on the host work-stealing pool.
    ///
    /// The batch is split into contiguous chunks whose count and bounds
    /// depend only on `mats.len()` (never the thread count); chunk `c`
    /// runs on the plan's lane `c` — chunk 0 on the plan's own lane,
    /// later chunks on extra lanes built once and reused by every later
    /// batch — and results land in index order, so outputs are
    /// **bit-identical for any thread count**, preserving the pool's
    /// determinism guarantee.
    ///
    /// ```
    /// use unisvd_core::Svd;
    /// use unisvd_gpu::hw;
    /// use unisvd_matrix::Matrix;
    ///
    /// let mut plan = Svd::on(&hw::h100()).precision::<f32>().plan(8, 8)?;
    /// let mats: Vec<Matrix<f32>> = (1..=4)
    ///     .map(|k| Matrix::from_fn(8, 8, |i, j| if i == j { k as f32 } else { 0.0 }))
    ///     .collect();
    /// let outs = plan.execute_batch(&mats);
    /// for (k, out) in outs.iter().enumerate() {
    ///     assert!((out.as_ref().unwrap().values[0] - (k + 1) as f64).abs() < 1e-5);
    /// }
    /// # Ok::<(), unisvd_core::PlanError>(())
    /// ```
    pub fn execute_batch(&mut self, mats: &[Matrix<T>]) -> Vec<Result<SvdOutput, SvdError>> {
        let refs: Vec<&Matrix<T>> = mats.iter().collect();
        let mut outs: Vec<SvdOutput> = (0..mats.len()).map(|_| SvdOutput::empty()).collect();
        let mut statuses: Vec<Result<(), SvdError>> = vec![Ok(()); mats.len()];
        self.execute_batch_refs_into(&refs, &mut outs, &mut statuses);
        outs.into_iter()
            .zip(statuses)
            .map(|(out, status)| status.map(|()| out))
            .collect()
    }

    /// [`execute_batch`](SvdPlan::execute_batch) over borrowed matrices
    /// that need not be contiguous in memory, writing into caller-owned
    /// output shells — the request-coalescing path of serving layers and
    /// the zero-allocation steady state of the batch path. Identical
    /// chunking, ordering, and bit-for-bit determinism guarantees.
    /// `outs[i]` / `statuses[i]` receive the result of `mats[i]`; a
    /// failed solve leaves its `Err` in `statuses[i]` without disturbing
    /// any other request (per-request isolation). Chunk 0 runs on the
    /// plan's own lane, so `mats[0]` pays the one-shot driver share if
    /// it is the plan's first solve, exactly as
    /// [`execute_into`](SvdPlan::execute_into) would; every other solve
    /// charges the dispatch share. Once the lanes and the output shells
    /// have warmed up (one batch of equal or larger size), repeated calls
    /// perform no heap allocation (enforced by `tests/alloc_budget.rs`).
    ///
    /// # Panics
    /// If `outs` or `statuses` length differs from `mats`.
    pub fn execute_batch_refs_into(
        &mut self,
        mats: &[&Matrix<T>],
        outs: &mut [SvdOutput],
        statuses: &mut [Result<(), SvdError>],
    ) {
        use rayon::prelude::*;
        let len = mats.len();
        assert_eq!(outs.len(), len, "one output shell per input matrix");
        assert_eq!(statuses.len(), len, "one status slot per input matrix");
        if len == 0 {
            return;
        }
        // At most MAX_BATCH_CHUNKS contiguous chunks, remainder spread
        // over the leading chunks. Every lane pins its own device
        // buffers, so the chunk count is also capped so all lanes
        // together respect the device-memory budget that planning
        // enforced for one (lane 0 always runs). Count and bounds depend
        // only on `len` and fixed plan properties — never the thread
        // count — and chunk `c` always executes on lane `c` over its
        // fixed index range, so output order and bits are
        // schedule-independent.
        let mem_cap = match self
            .device()
            .hw()
            .budget_bytes()
            .checked_div(self.lane_device_bytes())
        {
            Some(slots) => usize::try_from(slots.max(1)).unwrap_or(usize::MAX),
            None => usize::MAX, // empty plan: lanes hold no data
        };
        let nc = len.min(MAX_BATCH_CHUNKS).min(mem_cap);
        while self.lanes.len() < nc {
            let lane = self.lanes[0].sibling(&self.core);
            self.lanes.push(lane);
        }
        let core = &self.core;
        let (base, rem) = (len / nc, len % nc);
        // Split everything chunk `c` touches — its lane and its slices of
        // inputs, output shells and status slots — into disjoint borrows
        // up front, held inline so the fan-out allocates nothing.
        let mut chunks: [Option<_>; MAX_BATCH_CHUNKS] = std::array::from_fn(|_| None);
        let (mut mats, mut outs, mut statuses) = (mats, outs, statuses);
        for (c, (slot, lane)) in chunks.iter_mut().zip(&mut self.lanes).take(nc).enumerate() {
            let n = base + usize::from(c < rem);
            let (m, mats_rest) = mats.split_at(n);
            let (o, outs_rest) = std::mem::take(&mut outs).split_at_mut(n);
            let (st, statuses_rest) = std::mem::take(&mut statuses).split_at_mut(n);
            (mats, outs, statuses) = (mats_rest, outs_rest, statuses_rest);
            *slot = Some((lane, m, o, st));
        }
        chunks[..nc].par_iter_mut().for_each(|chunk| {
            let (lane, mats, outs, statuses) = chunk.as_mut().expect("chunks[..nc] are all split");
            for ((mat, out), status) in mats.iter().zip(outs.iter_mut()).zip(statuses.iter_mut()) {
                *status = lane.execute_into(core, mat, out);
            }
        });
    }

    /// Simulated steady per-execute cost of this plan: what every execute
    /// after the first costs (the first also pays the one-shot driver
    /// share). Replays the identical launch stream on a fresh data-less
    /// device and returns the per-stage summary. To cost a shape without
    /// planning it — paper-scale sizes no device could hold — use
    /// [`Svd::cost`], which runs the same replay.
    pub fn cost(&self) -> TraceSummary {
        let dev = Device::trace_only(self.device().hw().clone());
        self.core.replay::<T>(&dev, DriverCost::Amortized);
        dev.summary()
    }
}

// Plans move between threads in serving layers: checked out of a shared
// cache, executed on a worker, returned. The auto-impls make that sound
// today (the device trace is mutexed, buffers are owned); this pins the
// property so a future field cannot silently regress it.
const _: () = {
    const fn assert_send_sync<P: Send + Sync>() {}
    assert_send_sync::<SvdPlan<f64>>();
    assert_send_sync::<SvdPlan<f32>>();
    assert_send_sync::<SvdPlan<unisvd_scalar::F16>>();
    assert_send_sync::<PlanSignature>();
};

impl<T: Scalar> std::fmt::Debug for SvdPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SvdPlan({}x{} on {:?}, padded {}, {})",
            self.core.rows,
            self.core.cols,
            self.device(),
            self.core.padded,
            self.core.cfg
        )
    }
}

/// One numeric solve against an already-planned core: fill staging (by
/// shape strategy), upload into the existing device buffers, run the
/// pipeline, and write every output — values, parameters, summary —
/// into `out` in place (zero allocation once `out` and the workspace are
/// warm).
/// Shared by [`SvdPlan::execute_into`] and the one-shot compatibility
/// wrappers (which build a fresh core + workspace per call).
#[allow(clippy::too_many_arguments)] // internal seam shared by plan + one-shot paths
pub(crate) fn execute_core<T: Scalar>(
    core: &PlanCore,
    ws: &mut Workspace<T>,
    dev: &Device,
    buf: &GlobalBuffer<T>,
    tau: &GlobalBuffer<T>,
    a: &Matrix<T>,
    driver: DriverCost,
    out: &mut SvdOutput,
) -> Result<(), SvdError> {
    if (a.rows(), a.cols()) != (core.rows, core.cols) {
        return Err(SvdError::ShapeMismatch {
            expected: (core.rows, core.cols),
            got: (a.rows(), a.cols()),
        });
    }
    if core.kind == PlanKind::Empty {
        out.values.clear();
        // Vectors requested on an empty shape: well-formed zero-column
        // factors keep the `Some`-iff-requested invariant.
        if core.cfg.vectors == Want::None {
            out.u = None;
            out.vt = None;
        } else {
            out.u = Some(Matrix::zeros(core.rows, 0));
            out.vt = Some(Matrix::zeros(0, core.cols));
        }
        out.params = HyperParams::reference();
        out.padded_n = 0;
        dev.summary_into(&mut out.summary);
        return Ok(());
    }

    // One pass over the input serves both the finiteness check and the
    // rescale factor (`max_abs` propagates NaN, so any NaN or ±Inf entry
    // makes it non-finite).
    let max_abs = a.max_abs();
    if !max_abs.is_finite() {
        return Err(SvdError::NonFiniteInput);
    }
    // Rescale so the largest entry is O(1): σ(cA) = c·σ(A), and narrow
    // storage formats (FP16) overflow otherwise.
    let scale = if core.cfg.rescale && max_abs > 0.0 && !(0.25..=4.0).contains(&max_abs) {
        max_abs
    } else {
        1.0
    };

    let padded = core.padded;
    // No per-solve re-zero of the staging buffer: it starts zeroed
    // and every execute writes exactly the same index set (the m×n
    // block below, or R's upper triangle), so the un-written padding
    // region is invariantly zero across reuses.
    match core.kind {
        PlanKind::Direct => {
            for j in 0..core.cols {
                for i in 0..core.rows {
                    ws.staging[j * padded + i] = T::from_f64(a[(i, j)].to_f64() / scale);
                }
            }
        }
        PlanKind::TallQr | PlanKind::WideQr => {
            // Host-side QR (tall directly, wide on the transpose):
            // σ(A) = σ(R) with R only device_n × device_n.
            let (qm, qn) = match core.kind {
                PlanKind::TallQr => (core.rows, core.cols),
                _ => (core.cols, core.rows),
            };
            let mut qr = Matrix::<f64>::from_col_major(qm, qn, std::mem::take(&mut ws.qr));
            for j in 0..qn {
                for i in 0..qm {
                    let v = match core.kind {
                        PlanKind::TallQr => a[(i, j)],
                        _ => a[(j, i)],
                    };
                    qr[(i, j)] = v.to_f64() / scale;
                }
            }
            householder_qr_into(&mut qr, &mut ws.qr_tau);
            // T::from_f64 ∘ to_f64 is the identity on T's values, so
            // staging R directly matches the one-shot path (which
            // materialises R as a Matrix<T> first) bit for bit.
            for j in 0..qn {
                for i in 0..=j {
                    ws.staging[j * padded + i] = T::from_f64(qr[(i, j)]);
                }
            }
            ws.qr = qr.into_vec();
        }
        PlanKind::Empty => unreachable!("handled above"),
    }
    dev.upload_into(&ws.staging, buf);
    tau.fill(T::zero());

    let piped = run_pipeline::<T>(
        dev,
        buf,
        tau,
        core.padded,
        &core.params,
        &core.cfg,
        driver,
        &mut ws.pipe,
        &mut out.values,
    );
    // Drain the device's fault latch *before* interpreting the pipeline
    // result: a fault injected during this solve (corrupted upload,
    // watchdog-killed stall, device death) poisons whatever came out —
    // including a convergence failure that is really corruption in
    // disguise — so the typed fault wins over both `Ok` and the
    // pipeline's own error.
    if let Some(fault) = dev.take_fault() {
        return Err(SvdError::DeviceFault(fault));
    }
    piped?;
    out.values.truncate(core.mindim);
    if let Want::TopK(k) = core.cfg.vectors {
        // Truncated mode: the values list is the top-k prefix of the full
        // descending list (`Bisect` computed exactly these natively; the
        // sweep solvers ran fully and truncate here).
        out.values.truncate(k.min(core.mindim));
    }
    if scale != 1.0 {
        // σ(cA) = c·σ(A); the singular *vectors* of cA and A coincide, so
        // rescaling never touches the accumulated factors.
        for v in &mut out.values {
            *v *= scale;
        }
    }
    // The input is finite here, so a non-finite value is an overflow of
    // the values themselves (σ₁ beyond f64's range once rescaled back).
    if out.values.iter().any(|v| !v.is_finite()) {
        return Err(SvdError::ValueOverflow);
    }
    assemble_vectors(core, ws, out);
    out.params = core.params;
    out.padded_n = core.padded;
    dev.summary_into(&mut out.summary);
    Ok(())
}

/// Maps the replayed device-frame accumulators (`padded × k`
/// k-contiguous, see the `vectors` module) into the caller's frame and
/// writes `out.u` / `out.vt`, reusing any buffers already in `out` (warm
/// executes with vectors allocate nothing). A k-contiguous accumulator's
/// leading `n·k` entries are the transpose of its first `n` rows, so a
/// `Vᵀ` taken straight from an accumulator is one copy and only the
/// column-major `U` (and the `qvec` lift) are transposed here. Direct
/// shapes truncate the padded rows; tall/wide shapes additionally lift
/// the left (resp. right) factor through the retained host QR: for tall
/// `A = Q_h·R`, `U(A) = Q_h·U(R)`, and for wide
/// `A = (Q_h·R)ᵀ = V(R)·Σ·(Q_h·U(R))ᵀ`.
fn assemble_vectors<T: Scalar>(core: &PlanCore, ws: &mut Workspace<T>, out: &mut SvdOutput) {
    if core.cfg.vectors == Want::None {
        out.u = None;
        out.vt = None;
        return;
    }
    let k = core.cfg.vectors.columns(core.mindim);
    let (rows, cols) = (core.rows, core.cols);
    // Reuse the caller's buffers: take → clear → resize keeps capacity.
    let mut ud = out.u.take().map(Matrix::into_vec).unwrap_or_default();
    let mut vd = out.vt.take().map(Matrix::into_vec).unwrap_or_default();
    ud.clear();
    ud.resize(rows * k, 0.0);
    vd.clear();
    vd.resize(k * cols, 0.0);
    if k > 0 {
        let vac = ws
            .pipe
            .vac
            .as_ref()
            .expect("vector scratch exists whenever vectors were planned");
        let (wu, wv) = (&vac.wu, &vac.wv);
        match core.kind {
            PlanKind::Direct => {
                transpose_rows(wu, k, rows, &mut ud);
                vd.copy_from_slice(&wv[..cols * k]);
            }
            PlanKind::TallQr | PlanKind::WideQr => {
                // The device solved the qn × qn triangle of the host QR of
                // the (possibly transposed) input; lift its left factor
                // through Q_h: qvec ← Q_h · [W(0..qn); 0], qm × k.
                let (qm, qn) = match core.kind {
                    PlanKind::TallQr => (rows, cols),
                    _ => (cols, rows),
                };
                ws.qvec.clear();
                ws.qvec.resize(qm * k, 0.0);
                transpose_rows(wu, k, qn, &mut ws.qvec);
                apply_q_inplace(&ws.qr, &ws.qr_tau, qm, &mut ws.qvec, k);
                match core.kind {
                    PlanKind::TallQr => {
                        // U = Q_h·U(R) (rows × k); Vᵀ rows from W_v.
                        ud.copy_from_slice(&ws.qvec);
                        vd.copy_from_slice(&wv[..cols * k]);
                    }
                    _ => {
                        // Wide: U(A) = V(R) from W_v; Vᵀ(A) = (Q_h·U(R))ᵀ.
                        transpose_rows(wv, k, rows, &mut ud);
                        for j in 0..k {
                            for c in 0..cols {
                                vd[c * k + j] = ws.qvec[j * qm + c];
                            }
                        }
                    }
                }
            }
            PlanKind::Empty => unreachable!("empty shapes return before the pipeline"),
        }
    }
    out.u = Some(Matrix::from_col_major(rows, k, ud));
    out.vt = Some(Matrix::from_col_major(k, cols, vd));
}

/// Writes the first `n` rows of the k-contiguous accumulator `w` into the
/// column-major `n × k` block at the top of `dst` (leading dimension
/// `dst.len() / k`).
fn transpose_rows(w: &[f64], k: usize, n: usize, dst: &mut [f64]) {
    let ld = dst.len() / k;
    for (r, row) in w[..n * k].chunks_exact(k).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            dst[j * ld + r] = x;
        }
    }
}

/// The three-stage pipeline (§3) over already-uploaded device buffers:
/// dense → band on the device, band → bidiagonal bulge chasing,
/// bidiagonal → values on the CPU. Intermediates live in `pipe` and the
/// produced values overwrite `values` — both reused across solves by the
/// plan path, freshly built per call by the one-shot wrappers.
#[allow(clippy::too_many_arguments)] // internal seam shared by plan + one-shot paths
pub(crate) fn run_pipeline<T: Scalar>(
    dev: &Device,
    buf: &GlobalBuffer<T>,
    tau: &GlobalBuffer<T>,
    padded: usize,
    p: &HyperParams,
    cfg: &SvdConfig,
    driver: DriverCost,
    pipe: &mut PipelineScratch<T::Accum>,
    values: &mut Vec<f64>,
) -> Result<(), SvdError> {
    let fused = cfg.fused;
    values.clear();
    // Host runtime overhead (dispatch, allocation, JIT cache checks in
    // the Julia original) — matters only at small sizes. A reused plan
    // has allocated and validated once, leaving dispatch only.
    match driver {
        DriverCost::OneShot => dev.cpu_work(
            KernelClass::Other,
            "driver",
            DRIVER_ONESHOT * dev.hw().cpu_flops,
            1.0,
        ),
        DriverCost::Amortized => dev.cpu_work(
            KernelClass::Other,
            "driver_dispatch",
            DRIVER_AMORTIZED * dev.hw().cpu_flops,
            1.0,
        ),
    }

    let numeric = dev.mode() == ExecMode::Numeric;
    let k = pipe.k;
    let PipelineScratch {
        band, bi, s3, vac, ..
    } = pipe;
    // Only numeric runs have a vector workspace; this solve's reflectors
    // replace the previous one's.
    if let Some(v) = vac.as_mut() {
        v.log.clear();
    }

    // Stage 1: dense → band (device kernels). With vectors requested, each
    // sweep's reflectors are appended to the log for later replay — the
    // log only reads, so the band stays bit-identical.
    band_diag_ext(
        dev,
        buf,
        tau,
        padded,
        p,
        fused,
        vac.as_mut().map(|v| &mut v.log),
    );

    // Stage 2: band → bidiagonal (bulge chasing; device-accounted).
    if numeric {
        extract_band_into::<T>(dev, buf, padded, p.tilesize, band);
    }
    band_to_bidiagonal_into_ext(
        dev,
        band,
        p.tilesize,
        T::KIND,
        p.tilesize,
        bi,
        vac.as_mut().map(|v| &mut v.log),
    );

    // Stage 3: bidiagonal → singular values (CPU, like the paper's LAPACK
    // call).
    account_stage3_cost(dev, padded);
    // The accumulation itself is host work; charged in both modes so a
    // trace replay of a vector plan predicts the same cost model.
    account_accum_cost(dev, padded, k);
    if numeric {
        // A bidiagonal poisoned by an overflow in stages 1–2 has no values:
        // bisection would return plausible-looking ones.
        if !all_finite(bi) {
            return Err(SvdError::NoConvergence(NoConvergence { remaining: bi.n() }));
        }
        match cfg.solver {
            Stage3Solver::Bdsqr => bdsqr_into(bi, s3).map_err(SvdError::NoConvergence)?,
            Stage3Solver::Dqds => dqds_into(bi, s3).map_err(SvdError::NoConvergence)?,
            Stage3Solver::Bisect => {
                bisect_topk_into(bi, s3, vac.as_ref().filter(|v| v.topk).map(|v| v.k))
            }
        };
        values.extend(s3.values().iter().map(|x| x.to_f64()));
        if let Some(v) = vac.as_mut() {
            // Each solver's own values are the shifts of the vector solve.
            v.solve_and_replay(bi, s3.values());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::svdvals_with;
    use rand::{rngs::StdRng, SeedableRng};
    use unisvd_gpu::hw::{h100, m1_pro, mi250, rtx4060};
    use unisvd_matrix::{testmat, SvDistribution};
    use unisvd_scalar::F16;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn builder_plumbs_configuration() {
        let plan = Svd::on(&h100())
            .precision::<f32>()
            .solver(Stage3Solver::Bisect)
            .fused(false)
            .rescale(false)
            .params(HyperParams::new(8, 4, 1))
            .plan(20, 20)
            .unwrap();
        let cfg = plan.config();
        assert_eq!(cfg.solver, Stage3Solver::Bisect);
        assert!(!cfg.fused);
        assert!(!cfg.rescale);
        assert_eq!(plan.params(), HyperParams::new(8, 4, 1));
        assert_eq!(plan.shape(), (20, 20));
        assert_eq!(plan.padded_n(), 24);
    }

    #[test]
    fn plan_time_support_matrix_rejection() {
        assert!(matches!(
            Svd::on(&mi250()).precision::<F16>().plan(16, 16),
            Err(PlanError::Unsupported(_))
        ));
        assert!(matches!(
            Svd::on(&m1_pro()).precision::<f64>().plan(16, 16),
            Err(PlanError::Unsupported(_))
        ));
        assert!(Svd::on(&mi250()).precision::<f32>().plan(16, 16).is_ok());
    }

    #[test]
    fn plan_time_capacity_rejection() {
        // 65536² f32 = 17 GB > the RTX 4060's 8 GB; rejected before any
        // allocation happens.
        match Svd::on(&rtx4060()).precision::<f32>().plan(65536, 65536) {
            Err(PlanError::ExceedsDeviceMemory { padded, .. }) => assert_eq!(padded, 65536),
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        // Costing skips the capacity check (no data exists) — that's the
        // Fig. 5 size-sweep use case.
        assert!(Svd::on(&rtx4060())
            .precision::<f32>()
            .cost(65536, 65536)
            .is_ok());
    }

    #[test]
    fn execute_rejects_mismatched_shape() {
        let mut plan = Svd::on(&h100()).precision::<f64>().plan(16, 16).unwrap();
        let wrong = Matrix::<f64>::identity(8);
        assert!(matches!(
            plan.execute(&wrong),
            Err(SvdError::ShapeMismatch {
                expected: (16, 16),
                got: (8, 8)
            })
        ));
    }

    #[test]
    fn reused_plan_matches_one_shot_bits() {
        let mut rng = StdRng::seed_from_u64(404);
        let mats: Vec<Matrix<f32>> = (0..5)
            .map(|_| {
                testmat::test_matrix::<f32, _>(24, SvDistribution::Logarithmic, false, &mut rng).0
            })
            .collect();
        let cfg = SvdConfig::default();
        let mut plan = Svd::on(&h100())
            .precision::<f32>()
            .config(cfg)
            .plan(24, 24)
            .unwrap();
        for a in &mats {
            let dev = Device::numeric(h100());
            let one_shot = svdvals_with(a, &dev, &cfg).unwrap();
            let planned = plan.execute(a).unwrap();
            assert_eq!(bits(&planned.values), bits(&one_shot.values));
            assert_eq!(planned.padded_n, one_shot.padded_n);
            assert_eq!(planned.params, one_shot.params);
        }
    }

    #[test]
    fn tall_and_wide_plans_match_one_shot_bits() {
        let mut rng = StdRng::seed_from_u64(505);
        let (a12, _) =
            testmat::test_matrix::<f64, _>(12, SvDistribution::Arithmetic, false, &mut rng);
        let tall = Matrix::<f64>::from_fn(40, 12, |i, j| if i < 12 { a12[(i, j)] } else { 0.1 });
        let wide = tall.transposed();
        let cfg = SvdConfig::default();
        for (rows, cols, m) in [(40, 12, &tall), (12, 40, &wide)] {
            let dev = Device::numeric(h100());
            let one_shot = svdvals_with(m, &dev, &cfg).unwrap();
            let mut plan = Svd::on(&h100())
                .precision::<f64>()
                .plan(rows, cols)
                .unwrap();
            let planned = plan.execute(m).unwrap();
            assert_eq!(bits(&planned.values), bits(&one_shot.values));
            assert_eq!(planned.padded_n, one_shot.padded_n);
            // Reuse on the same shape stays bit-identical too.
            let again = plan.execute(m).unwrap();
            assert_eq!(bits(&again.values), bits(&one_shot.values));
        }
    }

    #[test]
    fn plan_reuse_never_reallocates_staging() {
        let mut rng = StdRng::seed_from_u64(606);
        let mut plan = Svd::on(&h100()).precision::<f32>().plan(30, 30).unwrap();
        let fp0 = plan.lanes[0].ws.staging_fingerprint();
        assert_eq!(fp0.1, plan.padded_n() * plan.padded_n());
        for _ in 0..3 {
            let (a, _) =
                testmat::test_matrix::<f32, _>(30, SvDistribution::Arithmetic, false, &mut rng);
            plan.execute(&a).unwrap();
            assert_eq!(
                plan.lanes[0].ws.staging_fingerprint(),
                fp0,
                "staging must be reused, not reallocated"
            );
        }
    }

    #[test]
    fn plan_reuse_never_reallocates_qr_scratch() {
        let mut rng = StdRng::seed_from_u64(607);
        let mut plan = Svd::on(&h100()).precision::<f64>().plan(48, 12).unwrap();
        let (a, _) =
            testmat::test_matrix::<f64, _>(12, SvDistribution::Arithmetic, false, &mut rng);
        let tall = Matrix::<f64>::from_fn(48, 12, |i, j| if i < 12 { a[(i, j)] } else { 0.0 });
        let cap0 = plan.lanes[0].ws.qr.capacity();
        let ptr0 = plan.lanes[0].ws.qr.as_ptr();
        assert_eq!(cap0, 48 * 12);
        for _ in 0..3 {
            plan.execute(&tall).unwrap();
            assert_eq!(plan.lanes[0].ws.qr.capacity(), cap0);
            assert_eq!(plan.lanes[0].ws.qr.as_ptr(), ptr0);
        }
    }

    #[test]
    fn execute_summary_covers_one_solve() {
        let mut rng = StdRng::seed_from_u64(707);
        let (a, _) =
            testmat::test_matrix::<f32, _>(16, SvDistribution::Arithmetic, false, &mut rng);
        let mut plan = Svd::on(&h100()).precision::<f32>().plan(16, 16).unwrap();
        let s1 = plan.execute(&a).unwrap().summary;
        let s2 = plan.execute(&a).unwrap().summary;
        let s3 = plan.execute(&a).unwrap().summary;
        assert_eq!(s2.total_launches(), s3.total_launches());
        assert!((s2.total_seconds() - s3.total_seconds()).abs() < 1e-15);
        // The first execute differs only by the one-shot driver share.
        assert_eq!(s1.total_launches(), s2.total_launches());
        for class in KernelClass::ALL {
            let extra = s1.seconds_of(class) - s2.seconds_of(class);
            let want = if class == KernelClass::Other {
                DRIVER_ONESHOT - DRIVER_AMORTIZED
            } else {
                0.0
            };
            assert!((extra - want).abs() < 1e-15, "{class:?}: {extra} vs {want}");
        }
    }

    #[test]
    fn amortized_driver_is_cheaper_than_one_shot() {
        let mut rng = StdRng::seed_from_u64(808);
        let (a, _) =
            testmat::test_matrix::<f32, _>(32, SvDistribution::Arithmetic, false, &mut rng);
        let dev = Device::numeric(h100());
        let one_shot = svdvals_with(&a, &dev, &SvdConfig::default()).unwrap();
        let mut plan = Svd::on(&h100()).precision::<f32>().plan(32, 32).unwrap();
        // A fresh plan's first execute costs exactly the one-shot call...
        let first = plan.execute(&a).unwrap();
        for class in KernelClass::ALL {
            assert_eq!(
                first.summary.seconds_of(class).to_bits(),
                one_shot.summary.seconds_of(class).to_bits(),
                "{class:?} must cost the same on a first execute as one-shot"
            );
        }
        // ...and reuse amortizes the per-call host driver share away.
        let reused = plan.execute(&a).unwrap();
        assert!(
            reused.summary.seconds_of(KernelClass::Other)
                < one_shot.summary.seconds_of(KernelClass::Other),
            "plan reuse must shed driver overhead"
        );
    }

    #[test]
    fn execute_batch_matches_sequential_executes() {
        let mut rng = StdRng::seed_from_u64(909);
        let mats: Vec<Matrix<f32>> = (0..7)
            .map(|_| {
                testmat::test_matrix::<f32, _>(20, SvDistribution::Arithmetic, false, &mut rng).0
            })
            .collect();
        let mut plan = Svd::on(&h100()).precision::<f32>().plan(20, 20).unwrap();
        let batch = plan.execute_batch(&mats);
        assert_eq!(batch.len(), 7);
        for (a, res) in mats.iter().zip(&batch) {
            let single = plan.execute(a).unwrap();
            assert_eq!(
                bits(&res.as_ref().unwrap().values),
                bits(&single.values),
                "batch result must equal sequential execute"
            );
        }
    }

    #[test]
    fn batch_pool_retains_workers_across_calls() {
        let mut rng = StdRng::seed_from_u64(910);
        let mats: Vec<Matrix<f32>> = (0..7)
            .map(|_| {
                testmat::test_matrix::<f32, _>(16, SvDistribution::Arithmetic, false, &mut rng).0
            })
            .collect();
        let mut plan = Svd::on(&h100()).precision::<f32>().plan(16, 16).unwrap();
        assert_eq!(plan.batch_workers(), 0, "a plan starts with lane 0 alone");
        let own = plan.device_bytes();
        let first = plan.execute_batch(&mats);
        let grown = plan.batch_workers();
        assert_eq!(
            grown, 6,
            "a 7-item batch runs chunk 0 on lane 0 plus 6 extra lanes"
        );
        assert_eq!(
            plan.device_bytes(),
            own * 7,
            "extra lanes pin device memory and must be accounted"
        );
        // Same and smaller batches reuse the lanes without growth; values
        // stay bit-identical.
        for take in [7, 3] {
            let again = plan.execute_batch(&mats[..take]);
            assert_eq!(plan.batch_workers(), grown, "lanes must not regrow");
            for (a, b) in again.iter().zip(&first) {
                assert_eq!(
                    bits(&a.as_ref().unwrap().values),
                    bits(&b.as_ref().unwrap().values)
                );
            }
        }
    }

    #[test]
    fn batch_isolates_per_request_failures() {
        // One bad request in a batch must fail alone: the other entries
        // keep their bit-exact results.
        let mut rng = StdRng::seed_from_u64(911);
        let (good, _) =
            testmat::test_matrix::<f32, _>(20, SvDistribution::Arithmetic, false, &mut rng);
        let (good2, _) =
            testmat::test_matrix::<f32, _>(20, SvDistribution::Logarithmic, false, &mut rng);
        let wrong = Matrix::<f32>::identity(8);
        let mut plan = Svd::on(&h100()).precision::<f32>().plan(20, 20).unwrap();
        let expected = [
            bits(&plan.execute(&good).unwrap().values),
            bits(&plan.execute(&good2).unwrap().values),
        ];
        let batch = plan.execute_batch(&[good, wrong, good2]);
        assert_eq!(bits(&batch[0].as_ref().unwrap().values), expected[0]);
        assert!(matches!(
            batch[1],
            Err(SvdError::ShapeMismatch {
                expected: (20, 20),
                got: (8, 8)
            })
        ));
        assert_eq!(bits(&batch[2].as_ref().unwrap().values), expected[1]);
    }

    #[test]
    fn empty_plan_executes_to_empty() {
        let mut plan = Svd::on(&h100()).precision::<f64>().plan(0, 5).unwrap();
        let a = Matrix::<f64>::zeros(0, 5);
        let out = plan.execute(&a).unwrap();
        assert!(out.values.is_empty());
        assert_eq!(out.padded_n, 0);
        assert_eq!(plan.cost().total_launches(), 0);
    }

    #[test]
    fn one_shot_on_a_trace_device_accounts_cost_without_data() {
        // A trace-only device holds no data: the one-shot call returns no
        // values but charges exactly what a numeric one-shot solve does.
        let a = Matrix::<f32>::from_fn(256, 256, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0);
        let cfg = SvdConfig::default();
        let out = svdvals_with(&a, &Device::trace_only(h100()), &cfg).unwrap();
        assert!(out.values.is_empty());
        assert!(out.u.is_none() && out.vt.is_none());
        let numeric = svdvals_with(&a, &Device::numeric(h100()), &cfg).unwrap();
        assert_eq!(
            (out.params, out.padded_n),
            (numeric.params, numeric.padded_n)
        );
        assert_eq!(
            out.summary.total_launches(),
            numeric.summary.total_launches()
        );
        for class in KernelClass::ALL {
            assert_eq!(
                out.summary.seconds_of(class).to_bits(),
                numeric.summary.seconds_of(class).to_bits(),
                "{class:?}"
            );
        }
    }

    #[test]
    fn cost_matches_numeric_execute_bit_for_bit() {
        // `SvdPlan::cost` and `Svd::cost` replay the launch stream without
        // data; both must charge exactly what a numeric plan's steady
        // (second) execute does, per stage and in launch count, host
        // driver share and host QR shapes included.
        fn check<T: Scalar>(rows: usize, cols: usize, want: Want, launches: usize) {
            let svd = Svd::on(&h100()).precision::<T>().vectors(want);
            let mut plan = svd.clone().plan(rows, cols).unwrap();
            let a = Matrix::<f64>::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0)
                .cast::<T>();
            plan.execute(&a).unwrap();
            let run = plan.execute(&a).unwrap().summary;
            let shape = format!("{rows}x{cols} {:?} {want}", T::KIND);
            assert_eq!(run.total_launches(), launches, "{shape}");
            for cost in [plan.cost(), svd.cost(rows, cols).unwrap()] {
                assert_eq!(cost.total_launches(), launches, "{shape}");
                for class in KernelClass::ALL {
                    assert_eq!(cost.launches_of(class), run.launches_of(class), "{shape}");
                    assert_eq!(
                        cost.seconds_of(class).to_bits(),
                        run.seconds_of(class).to_bits(),
                        "{shape} {class:?}"
                    );
                }
            }
        }
        check::<f32>(64, 64, Want::None, 66);
        check::<f64>(256, 256, Want::None, 78);
        check::<F16>(256, 256, Want::None, 78);
        check::<f64>(1024, 64, Want::None, 66);
        check::<f64>(128, 128, Want::Thin, 73);
        check::<f64>(256, 256, Want::TopK(32), 81);
    }

    #[test]
    fn probe_agrees_with_plan_on_every_table2_cell() {
        // The probe must predict plan()'s admission decision exactly:
        // same Ok/Err, and on Ok the same padded edge and pinned bytes
        // a built plan reports. At this size no cell exceeds capacity, so
        // the cost query, which checks only the support matrix, agrees too.
        use unisvd_gpu::hw::all_platforms;
        fn check<T: Scalar>(hw: &HardwareDescriptor) {
            let builder = Svd::on(hw).precision::<T>();
            let probed = builder.probe(40, 40);
            let planned = builder.clone().plan(40, 40);
            match (probed, planned) {
                (Ok(p), Ok(plan)) => {
                    assert_eq!(p.padded, plan.padded_n());
                    assert_eq!(p.device_bytes, plan.device_bytes());
                    assert!(builder.cost(40, 40).is_ok());
                }
                (Err(pe), Err(le)) => {
                    assert_eq!(builder.cost(40, 40).unwrap_err(), le);
                    assert_eq!(pe, le);
                }
                (p, l) => panic!("probe/plan disagree on {}: {p:?} vs {l:?}", hw.name),
            }
        }
        for hw in all_platforms() {
            check::<f64>(&hw);
            check::<f32>(&hw);
            check::<F16>(&hw);
        }
    }

    #[test]
    fn probe_rejects_over_capacity_without_allocating() {
        match Svd::on(&rtx4060()).precision::<f32>().probe(65536, 65536) {
            Err(PlanError::ExceedsDeviceMemory { padded, .. }) => assert_eq!(padded, 65536),
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        // Costing the same shape needs no device memory, so it succeeds.
        let cost = Svd::on(&rtx4060())
            .precision::<f32>()
            .cost(65536, 65536)
            .unwrap();
        assert!(cost.total_seconds() > 0.0);
    }

    #[test]
    fn signature_retargets_to_another_device() {
        let sig = Svd::on(&h100()).precision::<f32>().signature(48, 32);
        let moved = sig.for_device(&mi250());
        assert_eq!(moved.device, "AMD MI250");
        assert_eq!(moved.backend, BackendKind::Rocm);
        // Everything that is not device identity is preserved.
        assert_eq!(
            (moved.rows, moved.cols, moved.precision),
            (sig.rows, sig.cols, sig.precision)
        );
        assert_eq!(moved.config, sig.config);
        // Round-trip restores the original signature exactly.
        assert_eq!(moved.for_device(&h100()), sig);
    }

    #[test]
    fn plan_error_displays() {
        let e = Svd::on(&m1_pro())
            .precision::<f64>()
            .plan(8, 8)
            .unwrap_err();
        assert!(e.to_string().contains("does not support"));
        let e = Svd::on(&rtx4060())
            .precision::<f64>()
            .plan(65536, 65536)
            .unwrap_err();
        assert!(e.to_string().contains("exceeds device memory"));
    }
}
