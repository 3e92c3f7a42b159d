//! `unisvd-oocore`: out-of-core singular value computation — operands
//! larger than device memory, solved by streaming bounded tiles through
//! the in-core pipeline.
//!
//! Every in-core path of this workspace assumes the operand fits in one
//! device upload: `Svd::plan` rejects anything larger with
//! [`PlanError::ExceedsDeviceMemory`]. This crate is the layer behind
//! that rejection. [`OutOfCorePlan`] accepts any nonempty numeric shape
//! and streams it: the operand moves host→device in tiles of a quarter
//! of the device budget, the cost model charging one `Transfer` event
//! per tile straight from the operand's slice — the out-of-core regime
//! of the simulated trace. The numeric pipeline is the unmodified
//! in-core plan against a virtually enlarged device, so tall operands
//! take the same host-QR front-end as in core, and streamed values are
//! **bit-identical** to a single-upload oracle on a device big enough to
//! hold the operand, at any thread count.
//!
//! ```
//! use unisvd_core::SvdConfig;
//! use unisvd_gpu::hw;
//! use unisvd_matrix::Matrix;
//! use unisvd_oocore::OutOfCore;
//!
//! // A device too small for a 96×96 f32 operand (≈36 KiB padded).
//! let mut tiny = hw::rtx4060();
//! tiny.memory_bytes = 16 * 1024;
//! let mut plan = OutOfCore::on(&tiny)
//!     .precision::<f32>()
//!     .config(SvdConfig::default())
//!     .plan(96, 96)?;
//! assert!(plan.panels() > 1);
//! let out = plan.execute(&Matrix::<f32>::identity(96))?;
//! assert!((out.values[0] - 1.0).abs() < 1e-5);
//! # Ok::<(), unisvd_core::SvdError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::marker::PhantomData;

use unisvd_core::{PlanError, Svd, SvdConfig, SvdError, SvdOutput, SvdPlan};
use unisvd_gpu::HardwareDescriptor;
use unisvd_matrix::Matrix;
use unisvd_scalar::Scalar;

/// Builder for [`OutOfCorePlan`], mirroring [`Svd`]'s
/// `on → precision → config → plan` chain.
pub struct OutOfCore<T: Scalar> {
    hw: HardwareDescriptor,
    cfg: SvdConfig,
    _t: PhantomData<T>,
}

impl OutOfCore<f32> {
    /// Starts a builder for `hw` at the default `f32` precision.
    pub fn on(hw: &HardwareDescriptor) -> OutOfCore<f32> {
        OutOfCore {
            hw: hw.clone(),
            cfg: SvdConfig::default(),
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
            _t: PhantomData,
        }
    }

    /// Sets the solve configuration (defaults to `SvdConfig::default()`).
    pub fn config(mut self, cfg: SvdConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Performs the one-time work — tile sizing from the device budget
    /// and inner-plan construction — and returns the reusable
    /// out-of-core plan for `rows × cols` inputs.
    ///
    /// Unlike [`Svd::plan`], an oversized operand is *not* an error
    /// here; only support-matrix rejections and a device whose budget
    /// cannot hold a single element (`ExceedsDeviceMemory` with
    /// `oocore_eligible: false`) surface as [`PlanError`]s.
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
        // The numeric pipeline runs against a virtually enlarged clone of
        // the device (identity is the name, and the cost model never
        // reads `memory_bytes`), so values match a single-upload oracle
        // bit for bit; the *real* device budget sizes the streamed tiles.
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
            tile_elems,
            inner,
        })
    }
}

/// A planned out-of-core singular value computation: owns the inner
/// in-core plan and the tile size resolved from the device budget.
/// Built by [`OutOfCore::plan`]; repeated
/// [`execute_into`](OutOfCorePlan::execute_into) calls reuse everything
/// and are allocation-free once warm.
pub struct OutOfCorePlan<T: Scalar> {
    rows: usize,
    cols: usize,
    tile_elems: usize,
    inner: SvdPlan<T>,
}

impl<T: Scalar> OutOfCorePlan<T> {
    /// Number of staged tiles one execute moves through the device.
    pub fn panels(&self) -> usize {
        (self.rows * self.cols).div_ceil(self.tile_elems)
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

    /// Solves `a` into a reused output shell: the inner
    /// (enlarged-device) plan computes the values, then one `Transfer`
    /// is charged per tile of the operand, in slice order, and the trace
    /// summary in `out` is refreshed to include the out-of-core regime.
    pub fn execute_into(&mut self, a: &Matrix<T>, out: &mut SvdOutput) -> Result<(), SvdError> {
        if (a.rows(), a.cols()) != (self.rows, self.cols) {
            return Err(SvdError::ShapeMismatch {
                expected: (self.rows, self.cols),
                got: (a.rows(), a.cols()),
            });
        }
        self.inner.execute_into(a, out)?;
        let elem = T::KIND.bytes();
        let dev = self.inner.device();
        for chunk in a.as_slice().chunks(self.tile_elems) {
            dev.transfer("oocore_stream_tile", (chunk.len() * elem) as f64);
        }
        dev.summary_into(&mut out.summary);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::{hw::rtx4060, KernelClass};

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
    fn streaming_matches_big_device_oracle_bitwise() {
        let hw = tiny(32 * 1024); // 96×96 f32 padded ≈ 37 KiB > 24.6 KiB budget
        let a: Matrix<f32> = random(96, 96, 7).cast();
        let mut plan = OutOfCore::on(&hw).precision::<f32>().plan(96, 96).unwrap();
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
        let err = OutOfCore::on(&hw).precision::<f32>().plan(8, 8).err();
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
    fn shape_mismatch_is_typed() {
        let hw = tiny(32 * 1024);
        let mut plan = OutOfCore::on(&hw).precision::<f32>().plan(96, 96).unwrap();
        let wrong = Matrix::<f32>::identity(32);
        assert!(matches!(
            plan.execute(&wrong),
            Err(SvdError::ShapeMismatch { .. })
        ));
    }
}
