//! The unified, portable singular value API — the paper's headline
//! contribution: one function covering every backend (via the simulated
//! [`Device`]) and every precision (via the [`Scalar`] trait), with
//! hardware/precision-tuned hyperparameters selected automatically.
//!
//! Pipeline (§3): stage 1 dense→band on the device (`band_diag`), stage 2
//! band→bidiagonal bulge chasing, stage 3 bidiagonal→values on the CPU.

use crate::bidiag_svd::NoConvergence;
use crate::plan::{execute_core, DriverCost, PlanCore, PlanError};
use unisvd_gpu::{
    Device, DeviceFault, ExecMode, HardwareDescriptor, TraceSummary, UnsupportedPrecision,
};
use unisvd_kernels::HyperParams;
use unisvd_matrix::Matrix;
use unisvd_scalar::{PrecisionKind, Scalar};

/// Stage-3 bidiagonal solver selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Stage3Solver {
    /// LAPACK's `xBDSQR` as it runs without vectors — the default, as in
    /// the paper: dqds (`xLASQ1`) first, and implicit QR with Wilkinson
    /// shift and Demmel–Kahan zero-shift sweeps only if dqds does not
    /// converge. Its values are then those of [`Dqds`](Self::Dqds); a
    /// vector solve uses them as the shifts of the bidiagonal's inverse
    /// iteration.
    #[default]
    Bdsqr,
    /// Differential qd with shifts (LAPACK `xLASQ` family) — high relative
    /// accuracy for tiny singular values — without the QR fallback. A
    /// vector solve runs no second sweep: the dqds values are the shifts
    /// of the bidiagonal's inverse iteration.
    Dqds,
    /// Sturm bisection on the Golub–Kahan tridiagonal — slowest,
    /// failure-proof. A vector solve runs no second sweep: the bisected
    /// values (only the leading `k` under [`Want::TopK`]) are the shifts of
    /// the bidiagonal's inverse iteration.
    Bisect,
}

/// Which singular vectors a solve should produce alongside the values.
///
/// Part of [`SvdConfig`] (and therefore of
/// [`PlanSignature`](crate::PlanSignature)), so plans, service caching
/// and fleet routing all distinguish vector modes automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Want {
    /// Values only — the pre-vector pipeline, bit-identical to before
    /// this mode existed. The default.
    #[default]
    None,
    /// All `min(m, n)` left/right singular vectors (the "thin"/"economy"
    /// factorization `A = U Σ Vᵀ` with `U` of shape `m × min(m,n)` and
    /// `Vᵀ` of shape `min(m,n) × n`).
    Thin,
    /// Only the leading `k` singular triplets (`k` is clamped to
    /// `min(m, n)`): `U` is `m × k`, `Vᵀ` is `k × n`, and
    /// [`SvdOutput::values`] is truncated to its first `k` entries — a
    /// bit-for-bit prefix of the full value list. Accumulation cost
    /// scales with `k`, which is what makes truncated solves cheap.
    TopK(usize),
}

impl Want {
    /// Number of singular-vector columns this mode accumulates for a
    /// problem with `mindim = min(m, n)`.
    pub fn columns(self, mindim: usize) -> usize {
        match self {
            Want::None => 0,
            Want::Thin => mindim,
            Want::TopK(k) => k.min(mindim),
        }
    }
}

impl std::fmt::Display for Want {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Want::None => write!(f, "none"),
            Want::Thin => write!(f, "thin"),
            Want::TopK(k) => write!(f, "top{k}"),
        }
    }
}

/// Configuration of a singular value computation.
///
/// `Eq`/`Hash` compare every knob exactly, so a configuration can serve
/// as (part of) a cache key — see
/// [`PlanSignature`](crate::PlanSignature).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SvdConfig {
    /// Kernel hyperparameters; `None` selects the brute-force-tuned
    /// defaults for the device's backend and the input precision (§3.3).
    pub params: Option<HyperParams>,
    /// Use the fused `FTSQRT`/`FTSMQR` kernels (the paper's default) or
    /// the row-by-row classic kernels (the Fig. 2 ablation baseline).
    pub fused: bool,
    /// Stage-3 solver.
    pub solver: Stage3Solver,
    /// Pre-scale the input so its largest entry is O(1), and scale the
    /// singular values back afterwards. Protects narrow storage formats
    /// (FP16 overflows at 65 504) — the "default rescaling" the paper
    /// lists as future work (§3.2). On by default.
    pub rescale: bool,
    /// Which singular vectors to accumulate ([`Want::None`] by default —
    /// the values-only pipeline, bit-identical to previous releases).
    pub vectors: Want,
}

impl Default for SvdConfig {
    fn default() -> Self {
        SvdConfig {
            params: None,
            fused: true,
            solver: Stage3Solver::Bdsqr,
            rescale: true,
            vectors: Want::None,
        }
    }
}

impl std::fmt::Display for SvdConfig {
    /// One-line debug summary for bug reports: every knob, including
    /// whether hyperparameters are auto-tuned or pinned.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.params {
            Some(p) => write!(f, "params=[{p}]")?,
            None => write!(f, "params=auto")?,
        }
        write!(
            f,
            " fused={} solver={:?} rescale={} vectors={}",
            self.fused, self.solver, self.rescale, self.vectors
        )
    }
}

/// Everything a singular value computation produces.
#[derive(Clone, Debug)]
pub struct SvdOutput {
    /// Singular values in descending order, in `f64` (empty for a
    /// one-shot call on a trace-only device). Under [`Want::TopK`] this
    /// is truncated to the leading `k` entries — a bit-for-bit prefix of
    /// the full list.
    pub values: Vec<f64>,
    /// Left singular vectors, `rows × k` column-major (`k` per
    /// [`Want::columns`]): `Some` iff the configuration requested
    /// vectors and the solve was numeric. Column `j` pairs with
    /// `values[j]`.
    pub u: Option<Matrix<f64>>,
    /// Right singular vectors transposed, `k × cols`: `Some` iff vectors
    /// were requested on a numeric solve. Row `j` pairs with `values[j]`,
    /// so `A ≈ U · diag(values) · Vᵀ`.
    pub vt: Option<Matrix<f64>>,
    /// Hyperparameters actually used.
    pub params: HyperParams,
    /// Padded problem size (next multiple of `TILESIZE`).
    pub padded_n: usize,
    /// Simulated per-stage time accounting for this solve.
    pub summary: TraceSummary,
}

impl SvdOutput {
    /// An empty output shell to pass to the in-place solve entry points
    /// ([`SvdPlan::execute_into`](crate::SvdPlan::execute_into),
    /// `SvdService::solve_into`): every field is overwritten by a solve,
    /// and reusing one shell across solves makes the steady state
    /// allocation-free once its vectors have grown to size.
    pub fn empty() -> Self {
        SvdOutput {
            values: Vec::new(),
            u: None,
            vt: None,
            params: HyperParams::reference(),
            padded_n: 0,
            summary: TraceSummary {
                by_class: Vec::new(),
            },
        }
    }

    /// Cheap structural sanity check — the serving layer's last line of
    /// defence against serving a corrupted solve as if it were good.
    ///
    /// Verifies (allocation-free, `O(values + vector elements)`):
    ///
    /// * every singular value is finite, non-negative, and the list is
    ///   non-increasing (the ordering every solver in this workspace
    ///   guarantees);
    /// * when vectors are present, all entries are finite, each column
    ///   of `U` (row of `Vᵀ`) has unit norm to a loose tolerance, and
    ///   the first two columns are orthogonal.
    ///
    /// This is a *spot check*, not a residual proof: it catches the NaN
    /// poisoning and gross garbage that injected transfer corruption
    /// produces, at a cost far below re-running the solve. A clean pass
    /// does not certify accuracy — the accuracy suite does that.
    pub fn verify(&self) -> Result<(), &'static str> {
        let mut prev = f64::INFINITY;
        for &v in &self.values {
            if !v.is_finite() {
                return Err("non-finite singular value");
            }
            if v < 0.0 {
                return Err("negative singular value");
            }
            if v > prev {
                return Err("singular values not in descending order");
            }
            prev = v;
        }
        const TOL: f64 = 5e-2;
        for (factor, along_rows) in [(&self.u, true), (&self.vt, false)] {
            let Some(m) = factor else { continue };
            // Columns of U are the vectors; rows of Vᵀ are. `k` is the
            // number of vectors either way.
            let (k, len) = if along_rows {
                (m.cols(), m.rows())
            } else {
                (m.rows(), m.cols())
            };
            if len == 0 {
                continue;
            }
            let at = |vec: usize, i: usize| {
                if along_rows {
                    m[(i, vec)]
                } else {
                    m[(vec, i)]
                }
            };
            for vec in 0..k {
                let mut norm2 = 0.0;
                for i in 0..len {
                    let x = at(vec, i);
                    if !x.is_finite() {
                        return Err("non-finite singular vector entry");
                    }
                    norm2 += x * x;
                }
                if (norm2.sqrt() - 1.0).abs() > TOL {
                    return Err("singular vector is not unit-norm");
                }
            }
            if k >= 2 {
                let dot: f64 = (0..len).map(|i| at(0, i) * at(1, i)).sum();
                if dot.abs() > TOL {
                    return Err("leading singular vectors are not orthogonal");
                }
            }
        }
        Ok(())
    }
}

/// Errors of the unified API.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum SvdError {
    /// The (device, precision) pair is outside the support matrix.
    Unsupported(UnsupportedPrecision),
    /// Stage 3 failed to converge (pathological input).
    NoConvergence(NoConvergence),
    /// The input handed to a plan does not match the planned shape.
    ShapeMismatch {
        /// Shape the plan was built for.
        expected: (usize, usize),
        /// Shape of the offending input.
        got: (usize, usize),
    },
    /// A plan-time rejection surfaced through a batched wrapper (e.g. an
    /// over-capacity uniform batch).
    Plan(PlanError),
    /// A serving-layer admission rejection (queue full, load shedding,
    /// no routable device) folded into the solve-error type, so callers
    /// driving a service or fleet can `?` through one error surface.
    /// Produced by the `From<ServiceError>` impl in `unisvd_service`;
    /// the reason string is that error's `Display` output.
    Rejected {
        /// The admission error's human-readable rendering.
        reason: String,
    },
    /// A (simulated) hardware fault poisoned this solve — a corrupted
    /// transfer, a watchdog-killed kernel stall, or device death,
    /// detected via the device's fault latch — and the result was
    /// discarded rather than served. [`is_transient`](Self::is_transient)
    /// distinguishes retryable faults from terminal death.
    DeviceFault(DeviceFault),
    /// The input holds a `NaN` or `±Inf` entry. Rejected before any
    /// device work, like LAPACK's `xGESDD` rejecting a non-finite norm:
    /// no solver returns meaningful values for it, and it is the
    /// caller's data, not the device, so it is never retried.
    NonFiniteInput,
    /// A computed singular value is not finite although the input is:
    /// σ₁ of the input exceeds the largest finite `f64` (about 1.8e308,
    /// e.g. a matrix whose entries sit near that limit), or, with
    /// rescaling off, an intermediate overflowed the compute precision.
    /// Returned instead of `inf` values. It is the caller's data, not
    /// the device, so it is never retried.
    ValueOverflow,
    /// The request missed its deadline: a
    /// `Ticket::wait_timeout` elapsed, or the serving drainer found the
    /// request's submit-time deadline already expired before execution.
    Timeout {
        /// How long the caller waited (for `wait_timeout`), or by how
        /// much the deadline had been exceeded when the drainer
        /// discarded the request.
        waited: std::time::Duration,
    },
    /// The serving layer dropped the request without resolving it: its
    /// drainer died mid-batch. Never transient; the service that held
    /// the request is gone.
    Abandoned,
    /// The solve of this request's group panicked. The serving layer
    /// contains the panic: it fails every request of the group with
    /// this error, discards the plan the group ran on and keeps serving.
    /// Never transient: the same input would panic again.
    Panicked {
        /// The panic's message, when it carried one.
        message: String,
    },
}

impl SvdError {
    /// Whether retrying this request — on the same device or another —
    /// can plausibly succeed. Only injected hardware faults short of
    /// device death qualify; every other variant (shape/support/plan
    /// errors, convergence failure, admission rejections, timeouts) is
    /// deterministic or caller-scoped, and retrying would just repeat it.
    /// The serving layer's bounded-retry policy keys on this.
    pub fn is_transient(&self) -> bool {
        matches!(self, SvdError::DeviceFault(fault) if fault.kind.is_transient())
    }
}

impl std::fmt::Display for SvdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvdError::Unsupported(u) => write!(f, "{u}"),
            SvdError::NoConvergence(e) => write!(f, "{e}"),
            SvdError::ShapeMismatch { expected, got } => write!(
                f,
                "planned for a {}x{} input but got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            SvdError::Plan(e) => write!(f, "{e}"),
            SvdError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            SvdError::DeviceFault(e) => write!(f, "device fault: {e}"),
            SvdError::NonFiniteInput => write!(f, "input has a NaN or infinite entry"),
            SvdError::ValueOverflow => write!(f, "a singular value overflows f64"),
            SvdError::Timeout { waited } => {
                write!(f, "request timed out after {:.1?}", waited)
            }
            SvdError::Abandoned => write!(f, "request abandoned: its service drainer died"),
            SvdError::Panicked { message } => write!(f, "solve panicked: {message}"),
        }
    }
}

impl std::error::Error for SvdError {
    /// The underlying cause, for callers walking an error chain: the
    /// support-matrix rejection, convergence failure, or plan-time error
    /// this solve error wraps (`None` for the self-contained variants).
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvdError::Unsupported(u) => Some(u),
            SvdError::NoConvergence(e) => Some(e),
            SvdError::Plan(e) => Some(e),
            SvdError::DeviceFault(e) => Some(e),
            SvdError::ShapeMismatch { .. }
            | SvdError::NonFiniteInput
            | SvdError::ValueOverflow
            | SvdError::Rejected { .. }
            | SvdError::Timeout { .. }
            | SvdError::Abandoned
            | SvdError::Panicked { .. } => None,
        }
    }
}

impl From<DeviceFault> for SvdError {
    fn from(fault: DeviceFault) -> Self {
        SvdError::DeviceFault(fault)
    }
}

impl From<UnsupportedPrecision> for SvdError {
    fn from(u: UnsupportedPrecision) -> Self {
        SvdError::Unsupported(u)
    }
}

impl From<PlanError> for SvdError {
    /// Folds plan-time failures into the solve-error type the way the
    /// one-shot wrappers always reported them: support-matrix rejections
    /// keep their dedicated variant, everything else (capacity, future
    /// plan-time checks) surfaces as [`SvdError::Plan`].
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::Unsupported(u) => SvdError::Unsupported(u),
            other => SvdError::Plan(other),
        }
    }
}

/// Resolves the hyperparameters for a device/precision/config, clamping
/// `TILESIZE` so tiny matrices still factor (at least one tile).
pub fn resolve_params(
    hw: &HardwareDescriptor,
    precision: PrecisionKind,
    cfg: &SvdConfig,
    n: usize,
) -> HyperParams {
    let p = cfg
        .params
        .unwrap_or_else(|| HyperParams::tuned(hw.backend, precision));
    if n >= p.tilesize {
        p
    } else {
        // Shrink to the largest power-of-two tile ≤ n (n ≥ 4 assumed by
        // the kernels; the driver pads smaller inputs up to 4).
        let ts = (1usize << (usize::BITS - 1 - n.leading_zeros())).clamp(4, p.tilesize);
        HyperParams::new(ts, ts.min(p.colperblock), 1)
    }
}

/// Computes all singular values of the square matrix `a` on device `dev`.
///
/// This is the paper's `svdvals` entry point (Algorithm 2 wrapper): a
/// single function for every hardware backend and storage precision.
pub fn svdvals<T: Scalar>(a: &Matrix<T>, dev: &Device) -> Result<Vec<f64>, SvdError> {
    svdvals_with(a, dev, &SvdConfig::default()).map(|o| o.values)
}

/// [`svdvals`] with explicit configuration and full output.
///
/// One-shot compatibility wrapper over the plan core: builds a fresh
/// plan core + workspaces per call (amortize them with
/// [`Svd`](crate::Svd) when solving the same shape repeatedly) and
/// executes once. Where [`Svd::plan`](crate::Svd::plan) admits the
/// shape, values are bit-identical to the plan's and, on a fresh device,
/// the summary equals a fresh plan's first execute. It differs from the
/// plan form in two ways:
///
/// * it checks only the support matrix, not device capacity, so it
///   solves shapes that `plan` rejects with
///   [`PlanError::ExceedsDeviceMemory`];
/// * it runs on the caller's device `dev` and adds its launches to that
///   device's trace (the launch-trace fingerprint and the race-detection
///   suite rely on this), where a plan builds and owns its device.
///
/// A trace-only device holds no data: there the call only accounts the
/// launch stream, returning no values.
pub fn svdvals_with<T: Scalar>(
    a: &Matrix<T>,
    dev: &Device,
    cfg: &SvdConfig,
) -> Result<SvdOutput, SvdError> {
    let core = PlanCore::new(dev.hw(), T::KIND, cfg, a.rows(), a.cols())?;
    let mut out = SvdOutput::empty();
    if dev.mode() == ExecMode::TraceOnly {
        core.replay::<T>(dev, DriverCost::OneShot);
        if let Some(fault) = dev.take_fault() {
            return Err(SvdError::DeviceFault(fault));
        }
        out.params = core.params();
        out.padded_n = core.padded();
        dev.summary_into(&mut out.summary);
        return Ok(out);
    }
    let buf = dev.alloc::<T>(core.padded() * core.padded());
    let tau = dev.alloc::<T>(core.padded());
    let mut ws = core.host_workspace::<T>();
    execute_core(
        &core,
        &mut ws,
        dev,
        &buf,
        &tau,
        a,
        DriverCost::OneShot,
        &mut out,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Svd;
    use rand::{rngs::StdRng, SeedableRng};
    use unisvd_gpu::hw::{h100, m1_pro, mi250};
    use unisvd_matrix::{reference::sv_relative_error, testmat, SvDistribution};
    use unisvd_scalar::F16;

    fn small_cfg() -> SvdConfig {
        SvdConfig {
            params: Some(HyperParams::new(8, 4, 1)),
            fused: true,
            ..SvdConfig::default()
        }
    }

    #[test]
    fn diagonal_matrix_exact() {
        let n = 16;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| if i == j { (n - i) as f64 } else { 0.0 });
        let dev = Device::numeric(h100());
        let sv = svdvals_with(&a, &dev, &small_cfg()).unwrap().values;
        for (i, s) in sv.iter().enumerate() {
            assert!(
                (s - (n - i) as f64).abs() < 1e-12,
                "σ[{i}] = {s} want {}",
                n - i
            );
        }
    }

    #[test]
    fn known_singular_values_fp64() {
        let mut rng = StdRng::seed_from_u64(2024);
        for dist in SvDistribution::ALL {
            let (a, truth) = testmat::test_matrix::<f64, _>(32, dist, false, &mut rng);
            let dev = Device::numeric(h100());
            let sv = svdvals_with(&a, &dev, &small_cfg()).unwrap().values;
            let err = sv_relative_error(&sv, &truth);
            assert!(err < 1e-13, "{dist:?}: relative error {err}");
        }
    }

    #[test]
    fn known_singular_values_fp32() {
        let mut rng = StdRng::seed_from_u64(7);
        let (a, truth) =
            testmat::test_matrix::<f32, _>(32, SvDistribution::Arithmetic, false, &mut rng);
        let dev = Device::numeric(h100());
        let sv = svdvals_with(&a, &dev, &small_cfg()).unwrap().values;
        let err = sv_relative_error(&sv, &truth);
        assert!(err < 5e-6, "FP32 relative error {err}");
    }

    #[test]
    fn known_singular_values_fp16() {
        let mut rng = StdRng::seed_from_u64(8);
        let (a, truth) =
            testmat::test_matrix::<F16, _>(32, SvDistribution::Arithmetic, false, &mut rng);
        let dev = Device::numeric(h100());
        let sv = svdvals_with(&a, &dev, &small_cfg()).unwrap().values;
        let err = sv_relative_error(&sv, &truth);
        // Table 1 reports ~4e-3 .. 1e-2 for FP16.
        assert!(err < 3e-2, "FP16 relative error {err}");
    }

    #[test]
    fn non_tile_multiple_size_is_padded() {
        let mut rng = StdRng::seed_from_u64(9);
        let (a, truth) =
            testmat::test_matrix::<f64, _>(27, SvDistribution::Logarithmic, false, &mut rng);
        let dev = Device::numeric(h100());
        let out = svdvals_with(&a, &dev, &small_cfg()).unwrap();
        assert_eq!(out.padded_n, 32);
        assert_eq!(out.values.len(), 27);
        let err = sv_relative_error(&out.values, &truth);
        assert!(err < 1e-12, "padded solve error {err}");
    }

    #[test]
    fn tiny_matrix_autoshrinks_tilesize() {
        let mut rng = StdRng::seed_from_u64(10);
        let (a, truth) =
            testmat::test_matrix::<f64, _>(5, SvDistribution::Arithmetic, false, &mut rng);
        let dev = Device::numeric(h100());
        let out = svdvals_with(&a, &dev, &SvdConfig::default()).unwrap();
        assert!(out.params.tilesize <= 8);
        let err = sv_relative_error(&out.values, &truth);
        assert!(err < 1e-12);
    }

    #[test]
    fn support_matrix_enforced() {
        let a16 = Matrix::<F16>::identity(8);
        let a64 = Matrix::<f64>::identity(8);
        let amd = Device::numeric(mi250());
        let apple = Device::numeric(m1_pro());
        assert!(matches!(svdvals(&a16, &amd), Err(SvdError::Unsupported(_))));
        assert!(matches!(
            svdvals(&a64, &apple),
            Err(SvdError::Unsupported(_))
        ));
        // FP32 works everywhere.
        let a32 = Matrix::<f32>::identity(8);
        assert!(svdvals(&a32, &amd).is_ok());
        assert!(svdvals(&a32, &apple).is_ok());
    }

    #[test]
    fn non_square_supported_via_padding() {
        let mut rng = StdRng::seed_from_u64(77);
        // 24×10 tall matrix with known singular values via padding trick:
        // embed a 10×10 matrix with known σ into the top block.
        let (a10, truth) =
            testmat::test_matrix::<f64, _>(10, SvDistribution::Arithmetic, false, &mut rng);
        let tall = Matrix::<f64>::from_fn(24, 10, |i, j| if i < 10 { a10[(i, j)] } else { 0.0 });
        let dev = Device::numeric(h100());
        let sv = svdvals(&tall, &dev).unwrap();
        assert_eq!(sv.len(), 10, "min(m, n) singular values");
        let err = sv_relative_error(&sv, &truth);
        assert!(err < 1e-12, "tall-matrix error {err}");
        // Wide matrix: transpose gives the same values.
        let wide = tall.transposed();
        let sv_w = svdvals(&wide, &dev).unwrap();
        for i in 0..10 {
            assert!((sv[i] - sv_w[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn tall_skinny_qr_fast_path() {
        let mut rng = StdRng::seed_from_u64(88);
        // 96×12: triggers the m ≥ 2n QR-first path. Build with known σ by
        // embedding a 12×12 block and an orthogonal tall factor.
        let (a12, truth) =
            testmat::test_matrix::<f64, _>(12, SvDistribution::Logarithmic, false, &mut rng);
        let q = testmat::haar_orthogonal(96, &mut rng);
        let tall = Matrix::<f64>::from_fn(96, 12, |i, j| {
            let mut acc = 0.0;
            for k in 0..12 {
                acc += q[(i, k)] * a12[(k, j)];
            }
            acc
        });
        let dev = Device::numeric(h100());
        let out = svdvals_with(&tall, &dev, &SvdConfig::default()).unwrap();
        assert_eq!(out.values.len(), 12);
        // The device problem was 12×12-sized, not 96×96 (padded_n ≤ 16).
        assert!(
            out.padded_n <= 16,
            "fast path should shrink the device problem"
        );
        let err = sv_relative_error(&out.values, &truth);
        assert!(err < 1e-12, "tall-skinny error {err}");
        // Wide input takes the transposed path.
        let wide = tall.transposed();
        let sv_w = svdvals(&wide, &dev).unwrap();
        for (v, w) in out.values.iter().zip(&sv_w).take(12) {
            assert!((v - w).abs() < 1e-12);
        }
    }

    #[test]
    fn rescaling_protects_fp16_range() {
        // Entries of 30000 are representable in FP16 (max 65504), but the
        // factorisation's intermediate column norms (√n·30000 ≈ 120000)
        // overflow the FP16 *storage* writes without rescaling.
        let n = 16;
        let a = Matrix::<F16>::from_fn(n, n, |_, _| F16::from_f64(30000.0));
        let dev = Device::numeric(h100());
        let sv = svdvals(&a, &dev).unwrap();
        assert!(
            sv.iter().all(|s| s.is_finite()),
            "rescaled solve must stay finite"
        );
        // Rank-1 all-equal matrix: σ₁ = n·30000.
        let want = (n as f64) * 30000.0;
        assert!(
            (sv[0] - want).abs() / want < 1e-2,
            "σ₁ = {} want {want}",
            sv[0]
        );
        // Without rescaling the pipeline overflows to inf/NaN in storage:
        // either the solve errors out (NaN-poisoned bidiagonal never
        // converges) or the values are visibly wrong.
        let cfg = SvdConfig {
            rescale: false,
            ..SvdConfig::default()
        };
        match svdvals_with(&a, &dev, &cfg) {
            Err(SvdError::NoConvergence(_)) => {} // NaN-poisoned, as expected
            Err(e) => panic!("unexpected error {e}"),
            Ok(out) => {
                let sv_raw = out.values;
                assert!(
                    sv_raw.iter().any(|s| !s.is_finite()) || (sv_raw[0] - want).abs() / want > 0.05,
                    "unscaled FP16 should visibly degrade: {:?}",
                    &sv_raw[..3.min(sv_raw.len())]
                );
            }
        }
    }

    #[test]
    fn solver_selection_agrees() {
        let mut rng = StdRng::seed_from_u64(31);
        let (a, truth) =
            testmat::test_matrix::<f64, _>(32, SvDistribution::Logarithmic, false, &mut rng);
        let dev = Device::numeric(h100());
        for solver in [
            Stage3Solver::Bdsqr,
            Stage3Solver::Dqds,
            Stage3Solver::Bisect,
        ] {
            let cfg = SvdConfig {
                solver,
                params: Some(HyperParams::new(8, 4, 1)),
                ..SvdConfig::default()
            };
            let sv = svdvals_with(&a, &dev, &cfg).unwrap().values;
            let err = sv_relative_error(&sv, &truth);
            assert!(err < 1e-12, "{solver:?}: err {err}");
        }
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::<f64>::zeros(0, 0);
        let dev = Device::numeric(h100());
        assert!(svdvals(&a, &dev).unwrap().is_empty());
    }

    #[test]
    fn unfused_gives_same_values() {
        let mut rng = StdRng::seed_from_u64(12);
        let (a, _) =
            testmat::test_matrix::<f64, _>(24, SvDistribution::QuarterCircle, false, &mut rng);
        let dev = Device::numeric(h100());
        let fused = svdvals_with(&a, &dev, &small_cfg()).unwrap().values;
        let mut cfg = small_cfg();
        cfg.fused = false;
        let dev2 = Device::numeric(h100());
        let unfused = svdvals_with(&a, &dev2, &cfg).unwrap().values;
        for i in 0..24 {
            assert!((fused[i] - unfused[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn cost_produces_stage_breakdown() {
        let s = Svd::on(&h100())
            .precision::<f32>()
            .cost(2048, 2048)
            .unwrap();
        use unisvd_gpu::KernelClass::*;
        assert!(s.seconds_of(PanelFactorization) > 0.0);
        assert!(s.seconds_of(TrailingUpdate) > 0.0);
        assert!(s.seconds_of(BandToBidiagonal) > 0.0);
        assert!(s.seconds_of(BidiagonalSvd) > 0.0);
        assert!(s.total_seconds() > 0.0);
    }

    #[test]
    fn summary_attributes_time_to_stages() {
        let mut rng = StdRng::seed_from_u64(13);
        let (a, _) = testmat::test_matrix::<f64, _>(32, SvDistribution::Arithmetic, true, &mut rng);
        let dev = Device::numeric(h100());
        let out = svdvals_with(&a, &dev, &small_cfg()).unwrap();
        use unisvd_gpu::KernelClass::*;
        assert!(out.summary.seconds_of(PanelFactorization) > 0.0);
        assert!(out.summary.seconds_of(TrailingUpdate) > 0.0);
    }
}
