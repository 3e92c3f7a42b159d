//! `unisvd-oocore`: out-of-core singular value computation — operands
//! larger than device memory, solved by streaming bounded panels through
//! the in-core pipeline.
//!
//! Every in-core path of this workspace assumes the operand fits in one
//! device upload: `Svd::plan` rejects anything larger with
//! [`PlanError::ExceedsDeviceMemory`]. This crate is the layer behind
//! that rejection. [`OutOfCorePlan`] accepts any nonempty numeric shape
//! and executes it in one of two modes ([`OocMode`]):
//!
//! * **TSQR** (`m ≫ n`) — the communication-avoiding tall-skinny QR of
//!   Demmel et al. (CAQR): the operand is split into row panels sized
//!   from the device's [`MemoryLedger`](unisvd_gpu::MemoryLedger)
//!   budget, each panel is QR-factored, and the per-panel `R` factors
//!   are combined through a **fixed-shape pairwise reduction tree**
//!   whose shape depends only on the panel count — never on the thread
//!   count — so values are bit-identical at 1, 4, or 8 threads exactly
//!   like `execute_batch`. The final `n × n` `R` (σ(A) = σ(R)) runs
//!   through the ordinary in-core plan. The front-end working set drops
//!   from the in-core tall-QR's full `m × n` staging copy to one panel.
//! * **Streaming** (any shape) — the operand moves host→device in tiles
//!   of a quarter of the device budget, the cost model charging one
//!   `Transfer` event per tile straight from the operand's slice — the
//!   out-of-core regime of the simulated trace. The numeric pipeline is
//!   the unmodified in-core plan against a virtually enlarged device, so
//!   streamed values are **bit-identical** to a single-upload oracle on
//!   a device big enough to hold the operand, at any thread count.
//!
//! ```
//! use unisvd_core::SvdConfig;
//! use unisvd_gpu::hw;
//! use unisvd_matrix::Matrix;
//! use unisvd_oocore::{OocMode, OutOfCore};
//!
//! // A device too small for a 96×96 f32 operand (≈36 KiB padded).
//! let mut tiny = hw::rtx4060();
//! tiny.memory_bytes = 16 * 1024;
//! let mut plan = OutOfCore::on(&tiny)
//!     .precision::<f32>()
//!     .config(SvdConfig::default())
//!     .plan(96, 96)?;
//! assert_eq!(plan.mode(), OocMode::Streaming);
//! let out = plan.execute(&Matrix::<f32>::identity(96))?;
//! assert!((out.values[0] - 1.0).abs() < 1e-5);
//! # Ok::<(), unisvd_core::SvdError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::marker::PhantomData;

use rayon::prelude::*;

use unisvd_core::{PlanError, Svd, SvdConfig, SvdError, SvdOutput, SvdPlan};
use unisvd_gpu::{HardwareDescriptor, KernelClass};
use unisvd_kernels::pack_row_panel;
use unisvd_matrix::{reference, Matrix};
use unisvd_scalar::Scalar;

/// Execution-mode selector for [`OutOfCore::mode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OocMode {
    /// Pick automatically: TSQR for `m ≥ 2n` when the `n × n` reduced
    /// problem fits the device, streaming otherwise.
    Auto,
    /// Tall-skinny QR panel reduction. Requires `m ≥ 2n` (shapes below
    /// the threshold stream instead); values are bit-identical across
    /// thread counts but differ in rounding from the in-core oracle
    /// (a different, communication-avoiding reduction order).
    Tsqr,
    /// Tile streaming: one `Transfer` per `budget/4`-byte tile. Accepts
    /// any shape; values are bit-identical to a single-upload in-core
    /// solve on an enlarged device.
    Streaming,
}

/// Builder for [`OutOfCorePlan`], mirroring [`Svd`]'s
/// `on → precision → config → plan` chain.
pub struct OutOfCore<T: Scalar> {
    hw: HardwareDescriptor,
    cfg: SvdConfig,
    mode: OocMode,
    _t: PhantomData<T>,
}

impl OutOfCore<f32> {
    /// Starts a builder for `hw` at the default `f32` precision.
    pub fn on(hw: &HardwareDescriptor) -> OutOfCore<f32> {
        OutOfCore {
            hw: hw.clone(),
            cfg: SvdConfig::default(),
            mode: OocMode::Auto,
            _t: PhantomData,
        }
    }
}

impl<T: Scalar> OutOfCore<T> {
    /// Selects the storage precision of the planned solves.
    pub fn precision<U: Scalar>(self) -> OutOfCore<U> {
        OutOfCore {
            hw: self.hw,
            cfg: self.cfg,
            mode: self.mode,
            _t: PhantomData,
        }
    }

    /// Sets the solve configuration (defaults to `SvdConfig::default()`).
    pub fn config(mut self, cfg: SvdConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the execution mode (defaults to [`OocMode::Auto`]).
    pub fn mode(mut self, mode: OocMode) -> Self {
        self.mode = mode;
        self
    }

    /// Performs the one-time work — mode resolution, panel/tile sizing
    /// from the device budget, inner-plan construction — and returns the
    /// reusable out-of-core plan for `rows × cols` inputs.
    ///
    /// Unlike [`Svd::plan`], an oversized operand is *not* an error
    /// here; only support-matrix rejections, a device whose budget
    /// cannot hold a single element (`ExceedsDeviceMemory` with
    /// `oocore_eligible: false`), and, for explicit [`OocMode::Tsqr`], a
    /// device too small for even the reduced `n × n` problem surface as
    /// [`PlanError`]s.
    pub fn plan(self, rows: usize, cols: usize) -> Result<OutOfCorePlan<T>, PlanError> {
        let elem = T::KIND.bytes() as u64;
        let budget = self.hw.budget_bytes();
        if budget < elem {
            // No tile can hold one element: refuse before any solve runs.
            // The in-core probe supplies the working-set geometry (an
            // empty shape fits and has nothing to stream).
            if let Err(PlanError::ExceedsDeviceMemory {
                device,
                padded,
                bytes,
                ..
            }) = Svd::on(&self.hw)
                .precision::<T>()
                .config(self.cfg)
                .probe(rows, cols)
            {
                return Err(PlanError::ExceedsDeviceMemory {
                    device,
                    padded,
                    bytes,
                    oocore_eligible: false,
                });
            }
        }
        // TSQR hands the device only the reduced n × n R, whose singular
        // *vectors* are not A's left vectors (the panel Q factors are
        // discarded) — vector requests therefore always resolve to
        // streaming, whose inner plan runs the full pipeline on the real
        // operand and accumulates correctly.
        let tall = cols > 0 && rows >= 2 * cols && self.cfg.vectors == unisvd_core::Want::None;
        let use_tsqr = match self.mode {
            OocMode::Tsqr => tall,
            OocMode::Auto => {
                tall && Svd::on(&self.hw)
                    .precision::<T>()
                    .config(self.cfg)
                    .probe(cols, cols)
                    .is_ok()
            }
            OocMode::Streaming => false,
        };
        if use_tsqr {
            // Panel rows from the ledger budget: the f64 panel staging
            // copy may use at most half the device budget, and a panel
            // must be at least n rows tall so every R factor is n × n.
            let by_budget = (budget / 2 / (8 * cols.max(1) as u64)) as usize;
            let panel_rows = by_budget.max(cols).min(rows);
            let inner = Svd::on(&self.hw)
                .precision::<T>()
                .config(self.cfg)
                .plan(cols, cols)?;
            return Ok(OutOfCorePlan {
                rows,
                cols,
                resolved: Resolved::Tsqr { panel_rows },
                inner,
            });
        }
        // Streaming: the numeric pipeline runs against a virtually
        // enlarged clone of the device (identity is the name, and the
        // cost model never reads `memory_bytes`), so values match a
        // single-upload oracle bit for bit; the *real* device budget
        // sizes the streamed tiles.
        let dim = rows.max(cols) as u64 + 64; // ≥ any tile padding
        let need = (dim * dim + dim) * elem;
        let mut big = self.hw.clone();
        big.memory_bytes = big.memory_bytes.max(need.saturating_mul(2));
        let inner = Svd::on(&big)
            .precision::<T>()
            .config(self.cfg)
            .plan(rows, cols)?;
        // One tile is at most a quarter of the budget, never empty.
        let tile_elems = (budget / 4 / elem).max(1) as usize;
        Ok(OutOfCorePlan {
            rows,
            cols,
            resolved: Resolved::Streaming { tile_elems },
            inner,
        })
    }
}

/// The resolved execution strategy of a built plan.
enum Resolved {
    Tsqr { panel_rows: usize },
    Streaming { tile_elems: usize },
}

/// A planned out-of-core singular value computation: owns the inner
/// in-core plan and the panel/tile geometry resolved from the device
/// budget. Built by [`OutOfCore::plan`]; repeated
/// [`execute_into`](OutOfCorePlan::execute_into) calls reuse everything
/// (the streaming path is allocation-free once warm).
pub struct OutOfCorePlan<T: Scalar> {
    rows: usize,
    cols: usize,
    resolved: Resolved,
    inner: SvdPlan<T>,
}

impl<T: Scalar> OutOfCorePlan<T> {
    /// The mode this plan resolved to ([`OocMode::Auto`] never
    /// survives planning).
    pub fn mode(&self) -> OocMode {
        match self.resolved {
            Resolved::Tsqr { .. } => OocMode::Tsqr,
            Resolved::Streaming { .. } => OocMode::Streaming,
        }
    }

    /// Number of row panels (TSQR) or staged tiles (streaming) one
    /// execute moves through the device.
    pub fn panels(&self) -> usize {
        match self.resolved {
            Resolved::Tsqr { panel_rows } => self.rows.div_ceil(panel_rows.max(1)),
            Resolved::Streaming { tile_elems } => {
                (self.rows * self.cols).div_ceil(tile_elems.max(1))
            }
        }
    }

    /// Planned input shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Solves `a`, allocating a fresh output.
    pub fn execute(&mut self, a: &Matrix<T>) -> Result<SvdOutput, SvdError> {
        let mut out = SvdOutput::empty();
        self.execute_into(a, &mut out)?;
        Ok(out)
    }

    /// Solves `a` into a reused output shell. See the module docs for
    /// the per-mode value guarantees; the trace summary in `out`
    /// includes one `Transfer` event per streamed panel/tile on top of
    /// the inner pipeline's accounting.
    pub fn execute_into(&mut self, a: &Matrix<T>, out: &mut SvdOutput) -> Result<(), SvdError> {
        if (a.rows(), a.cols()) != (self.rows, self.cols) {
            return Err(SvdError::ShapeMismatch {
                expected: (self.rows, self.cols),
                got: (a.rows(), a.cols()),
            });
        }
        match self.resolved {
            Resolved::Streaming { tile_elems } => self.execute_streaming(a, out, tile_elems),
            Resolved::Tsqr { panel_rows } => self.execute_tsqr(a, out, panel_rows),
        }
    }

    /// Streaming: the inner (enlarged-device) plan computes the values;
    /// then one transfer is charged per tile of the operand, in slice
    /// order, and the summary refreshed to include the out-of-core
    /// regime.
    fn execute_streaming(
        &mut self,
        a: &Matrix<T>,
        out: &mut SvdOutput,
        tile_elems: usize,
    ) -> Result<(), SvdError> {
        self.inner.execute_into(a, out)?;
        let elem = T::KIND.bytes();
        let dev = self.inner.device();
        for chunk in a.as_slice().chunks(tile_elems) {
            dev.transfer("oocore_stream_tile", (chunk.len() * elem) as f64);
        }
        dev.summary_into(&mut out.summary);
        Ok(())
    }

    /// TSQR: sequential panel QR sweep (one panel staged at a time),
    /// fixed-shape pairwise R reduction (parallel within each tree
    /// level, collected in index order — thread-count independent),
    /// then the in-core pipeline on the final `n × n` R.
    fn execute_tsqr(
        &mut self,
        a: &Matrix<T>,
        out: &mut SvdOutput,
        panel_rows: usize,
    ) -> Result<(), SvdError> {
        let (m, n) = (self.rows, self.cols);
        let npanels = m.div_ceil(panel_rows);
        // Per-panel QR: R factors land in index-ordered n×n slabs. The
        // sweep is sequential by design — out-of-core means one panel's
        // f64 staging copy resident at a time.
        let mut rs: Vec<Matrix<f64>> = Vec::with_capacity(npanels);
        let mut panel_bytes: Vec<u64> = Vec::with_capacity(npanels);
        for k in 0..npanels {
            let r0 = k * panel_rows;
            let r1 = m.min(r0 + panel_rows);
            let p = r1 - r0;
            let mut panel = Matrix::<f64>::zeros(p, n);
            pack_row_panel(a.as_slice(), m, n, r0, r1, panel.as_mut_slice());
            let _tau = reference::householder_qr(&mut panel);
            rs.push(upper_n_by_n(&panel, n));
            panel_bytes.push((p * n) as u64 * T::KIND.bytes() as u64);
        }
        // Pairwise reduction tree. The shape — which R meets which, at
        // which level — depends only on `npanels`: node `i` of a level
        // combines nodes 2i and 2i+1 of the level below, and an odd tail
        // moves up unchanged. Within a level the combines are
        // independent and `collect` is index-ordered, so the thread
        // count cannot change a single bit.
        let mut combines = 0u32;
        while rs.len() > 1 {
            combines += rs.len() as u32 / 2;
            rs = (0..rs.len().div_ceil(2))
                .into_par_iter()
                .map(|i| match &rs[2 * i..rs.len().min(2 * i + 2)] {
                    [a, b] => combine_rs(a, b),
                    [a] => a.clone(),
                    _ => unreachable!("a tree node has one or two children"),
                })
                .collect();
        }
        let r_final = rs.pop().expect("nonempty shapes have ≥ 1 panel");
        let r_t: Matrix<T> = r_final.cast();
        self.inner.execute_into(&r_t, out)?;
        // Out-of-core accounting on top of the inner pipeline: one
        // upload per panel plus the host QR work of the panel sweep and
        // the reduction tree, then a summary refresh so the new regime
        // shows up in `out`.
        let dev = self.inner.device();
        let cpu_flops = dev.hw().cpu_flops;
        for (k, &bytes) in panel_bytes.iter().enumerate() {
            dev.transfer("oocore_tsqr_panel", bytes as f64);
            let p = (m.min((k + 1) * panel_rows) - k * panel_rows) as f64;
            dev.cpu_work(
                KernelClass::Other,
                "oocore_tsqr_panel_qr",
                (2.0 * p * (n * n) as f64).min(cpu_flops),
                1.0,
            );
        }
        dev.cpu_work(
            KernelClass::Other,
            "oocore_tsqr_reduce",
            combines as f64 * 4.0 * (n * n * n) as f64,
            1.0,
        );
        dev.summary_into(&mut out.summary);
        Ok(())
    }
}

/// The `n × n` upper-triangular `R` of an in-place QR factorisation,
/// zero-padded below the factor's trapezoid when the panel had fewer
/// than `n` rows.
fn upper_n_by_n(qr: &Matrix<f64>, n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        if i <= j && i < qr.rows() {
            qr[(i, j)]
        } else {
            0.0
        }
    })
}

/// One reduction-tree node: QR of the stacked `[R_a; R_b]` (2n × n),
/// keeping the new `n × n` upper triangle. σ of the stack equals σ of
/// the combined R — the CAQR invariant the tree is built on.
fn combine_rs(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let n = a.cols();
    debug_assert_eq!((a.rows(), b.rows(), b.cols()), (n, n, n));
    let mut stacked =
        Matrix::<f64>::from_fn(
            2 * n,
            n,
            |i, j| {
                if i < n {
                    a[(i, j)]
                } else {
                    b[(i - n, j)]
                }
            },
        );
    let _tau = reference::householder_qr(&mut stacked);
    upper_n_by_n(&stacked, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::hw::{h100, rtx4060};
    use unisvd_matrix::testmat;

    /// An rtx4060 shrunk so small matrices are already out-of-core.
    fn tiny(memory_bytes: u64) -> HardwareDescriptor {
        let mut hw = rtx4060();
        hw.memory_bytes = memory_bytes;
        hw
    }

    fn random(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn auto_resolves_tsqr_for_tall_and_streaming_for_square() {
        let hw = tiny(64 * 1024);
        let b = OutOfCore::on(&hw).precision::<f32>();
        assert_eq!(b.plan(512, 16).unwrap().mode(), OocMode::Tsqr);
        let b = OutOfCore::on(&hw).precision::<f32>();
        assert_eq!(b.plan(96, 96).unwrap().mode(), OocMode::Streaming);
        // Explicit TSQR below the m ≥ 2n threshold falls back to
        // streaming rather than producing trapezoidal nonsense.
        let b = OutOfCore::on(&hw).precision::<f32>().mode(OocMode::Tsqr);
        assert_eq!(b.plan(96, 96).unwrap().mode(), OocMode::Streaming);
    }

    #[test]
    fn streaming_matches_big_device_oracle_bitwise() {
        let hw = tiny(32 * 1024); // 96×96 f32 padded ≈ 37 KiB > 24.6 KiB budget
        let a: Matrix<f32> = random(96, 96, 7).cast();
        let mut plan = OutOfCore::on(&hw)
            .precision::<f32>()
            .mode(OocMode::Streaming)
            .plan(96, 96)
            .unwrap();
        assert!(plan.panels() > 1, "operand must actually be tiled");
        let got = plan.execute(&a).unwrap();
        // Oracle: the plain in-core plan on a device big enough.
        let mut big = rtx4060();
        big.memory_bytes = 8 * 1024 * 1024 * 1024;
        let mut oracle = Svd::on(&big).precision::<f32>().plan(96, 96).unwrap();
        let want = oracle.execute(&a).unwrap();
        assert_eq!(got.values, want.values, "streamed values must be bit-equal");
        // The out-of-core regime is visible in the trace.
        assert!(got.summary.seconds_of(KernelClass::Transfer) > 0.0);
        assert!(
            got.summary.launches_of(KernelClass::Transfer)
                > want.summary.launches_of(KernelClass::Transfer),
            "per-tile transfers must be charged on top of the oracle's"
        );
    }

    /// Streams `a` on `hw` and solves it on a device big enough for one
    /// upload; asserts the streamed summary is the oracle's plus exactly
    /// one `Transfer` launch per tile carrying the operand's bytes, with
    /// bit-equal values.
    fn assert_streamed_schedule<T: Scalar>(hw: &HardwareDescriptor, a: &Matrix<T>, cfg: SvdConfig) {
        let (m, n) = (a.rows(), a.cols());
        let mut plan = OutOfCore::on(hw)
            .precision::<T>()
            .config(cfg)
            .mode(OocMode::Streaming)
            .plan(m, n)
            .unwrap();
        assert!(plan.panels() > 1, "{m}x{n}: operand must actually be tiled");
        let got = plan.execute(a).unwrap();
        let mut big = hw.clone();
        big.memory_bytes = 8 * 1024 * 1024 * 1024;
        let want = Svd::on(&big)
            .precision::<T>()
            .config(cfg)
            .plan(m, n)
            .unwrap()
            .execute(a)
            .unwrap();
        let transfer = |s: &unisvd_gpu::TraceSummary| {
            s.by_class
                .iter()
                .find(|(c, _)| *c == KernelClass::Transfer)
                .map_or((0, 0.0), |(_, t)| (t.launches, t.bytes))
        };
        let ((got_launches, got_bytes), (want_launches, want_bytes)) =
            (transfer(&got.summary), transfer(&want.summary));
        assert_eq!(
            got_launches - want_launches,
            plan.panels(),
            "{m}x{n}: one transfer launch per tile"
        );
        assert_eq!(
            got_bytes - want_bytes,
            (m * n * std::mem::size_of::<T>()) as f64,
            "{m}x{n}: the tiles carry exactly the operand's bytes"
        );
        assert_eq!(got.values, want.values, "{m}x{n}: values must be bit-equal");
    }

    #[test]
    fn streaming_charges_one_transfer_per_tile_on_top_of_the_oracle() {
        let hw = tiny(32 * 1024);
        let square: Matrix<f32> = random(96, 96, 9).cast();
        assert_streamed_schedule(&hw, &square, SvdConfig::default());
        let thin = SvdConfig {
            vectors: unisvd_core::Want::Thin,
            ..SvdConfig::default()
        };
        assert_streamed_schedule(&hw, &random(600, 24, 4), thin);
    }

    #[test]
    fn device_below_one_element_is_refused_at_plan_time() {
        let hw = tiny(4); // budget 3 B < one f32
        let err = OutOfCore::on(&hw)
            .precision::<f32>()
            .mode(OocMode::Streaming)
            .plan(8, 8)
            .err();
        assert!(
            matches!(
                err,
                Some(PlanError::ExceedsDeviceMemory {
                    oocore_eligible: false,
                    ..
                })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn tsqr_matches_reference_accuracy_and_reports_panels() {
        let hw = tiny(64 * 1024);
        let a = random(600, 24, 3);
        let truth = {
            let mut oracle = Svd::on(&h100()).precision::<f64>().plan(600, 24).unwrap();
            oracle.execute(&a).unwrap().values
        };
        let mut plan = OutOfCore::on(&hw)
            .precision::<f64>()
            .mode(OocMode::Tsqr)
            .plan(600, 24)
            .unwrap();
        assert!(plan.panels() > 1, "the sweep must actually panel");
        let got = plan.execute(&a).unwrap();
        assert_eq!(got.values.len(), truth.len());
        let scale = 1.0 + truth[0];
        for (g, w) in got.values.iter().zip(&truth) {
            assert!((g - w).abs() <= 1e-10 * scale, "TSQR σ {g} vs in-core {w}");
        }
        assert!(got.summary.launches_of(KernelClass::Transfer) >= plan.panels());
    }

    #[test]
    fn tsqr_handles_non_dividing_panel_boundaries() {
        // rows not a multiple of panel_rows, last panel shorter than n.
        let hw = tiny(16 * 1024); // panel_rows = max(by_budget, n) stays small
        let a = random(101, 8, 5);
        let mut plan = OutOfCorePlan::<f64>::builder_for_tests(&hw, OocMode::Tsqr, 101, 8);
        let got = plan.execute(&a).unwrap();
        let s_ref = reference_svdvals(&a);
        for (g, w) in got.values.iter().zip(&s_ref) {
            assert!((g - w).abs() <= 1e-10 * (1.0 + s_ref[0]));
        }
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let hw = tiny(32 * 1024);
        let mut plan = OutOfCore::on(&hw).precision::<f32>().plan(96, 96).unwrap();
        let wrong = Matrix::<f32>::identity(32);
        assert!(matches!(
            plan.execute(&wrong),
            Err(SvdError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn kahan_tall_skinny_through_tsqr() {
        // A graded, far-from-normal test matrix embedded in a tall
        // operand: σ must survive the panel reduction.
        let k = testmat::kahan(16, 0.285);
        let a = Matrix::<f64>::from_fn(256, 16, |i, j| if i < 16 { k[(i, j)] } else { 0.0 });
        let truth = reference_svdvals(&a);
        let hw = tiny(16 * 1024);
        let mut plan = OutOfCore::on(&hw)
            .precision::<f64>()
            .mode(OocMode::Tsqr)
            .plan(256, 16)
            .unwrap();
        let got = plan.execute(&a).unwrap();
        for (g, w) in got.values.iter().zip(&truth) {
            assert!((g - w).abs() <= 1e-10 * (1.0 + truth[0]), "{g} vs {w}");
        }
    }

    /// In-core oracle through the public one-shot API on a big device.
    fn reference_svdvals(a: &Matrix<f64>) -> Vec<f64> {
        let mut plan = Svd::on(&h100())
            .precision::<f64>()
            .plan(a.rows(), a.cols())
            .unwrap();
        plan.execute(a).unwrap().values
    }

    impl<T: Scalar> OutOfCorePlan<T> {
        /// Test-only shortcut around the builder.
        fn builder_for_tests(
            hw: &HardwareDescriptor,
            mode: OocMode,
            rows: usize,
            cols: usize,
        ) -> OutOfCorePlan<T> {
            OutOfCore::on(hw)
                .precision::<T>()
                .mode(mode)
                .plan(rows, cols)
                .unwrap()
        }
    }
}
