//! Stage 1: dense → band reduction (Algorithms 1 & 2 of the paper).
//!
//! For each diagonal tile `k`, an **RQ sweep** factors the panel below the
//! diagonal and updates the trailing submatrix, then an **LQ sweep** does
//! the same to the transposed view — the same `GETSMQRT` code path runs
//! both, exactly as Algorithm 2 line 4 reuses the QR kernels through
//! Julia's lazy transpose. The result is an upper-triangular band matrix
//! of bandwidth `TILESIZE` (diagonal tiles upper-triangular, first
//! superdiagonal tiles lower-triangular), with the Householder vectors
//! parked in the annihilated positions.

use crate::vectors::ReflectorLog;
use unisvd_gpu::{Device, ExecMode, GlobalBuffer};
use unisvd_kernels::{ftsmqr, ftsqrt, geqrt, tsmqr, tsqrt, unmqr, DMat, DVec, HyperParams};
use unisvd_matrix::BandMatrix;
use unisvd_scalar::{Real, Scalar};

/// One `GETSMQRT` sweep: panel factorisation of tile column `pc` with top
/// tile row `tr0`, followed by the trailing submatrix update. `fused`
/// selects the single-launch `FTSQRT`/`FTSMQR` kernels (the paper's
/// optimisation, Fig. 2) or the row-by-row classic kernels (the ablation
/// baseline).
#[allow(clippy::too_many_arguments)] // LAPACK-style kernel signature
pub fn getsmqrt<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    pc: usize,
    tr0: usize,
    nbt: usize,
    fused: bool,
) {
    let ts = p.tilesize;
    if fused {
        ftsqrt(dev, a, tau, p, pc, tr0, nbt);
        ftsmqr(dev, a, tau, p, pc, tr0, nbt);
    } else {
        geqrt(dev, a, tau, p, tr0, pc);
        let col0 = (pc + 1) * ts;
        let ncols = (nbt - pc - 1) * ts;
        if ncols > 0 {
            unmqr(dev, a, tau, p, pc, tr0, col0, ncols);
        }
        for l in (tr0 + 1)..nbt {
            tsqrt(dev, a, tau, p, tr0, pc, l);
            if ncols > 0 {
                tsmqr(dev, a, tau, p, pc, tr0, l, col0, ncols);
            }
        }
    }
}

/// Stage-1 driver (Algorithm 2): reduces the `n × n` matrix in `a_buf` to
/// band form of bandwidth `TILESIZE`. `n` must be a multiple of
/// `TILESIZE` (the public API pads first).
pub fn band_diag<T: Scalar>(
    dev: &Device,
    a_buf: &GlobalBuffer<T>,
    tau_buf: &GlobalBuffer<T>,
    n: usize,
    p: &HyperParams,
    fused: bool,
) {
    band_diag_ext(dev, a_buf, tau_buf, n, p, fused, None);
}

/// [`band_diag`] that, given a reflector log, appends each sweep's
/// Householder reflectors with their τ̂ to it right after the sweep
/// (and the final diagonal `GEQRT`), **before** the next sweep reuses the
/// τ̂ slots. Logging only reads the factorisation, so the produced band
/// is bit-identical with `log = None`. Requires numeric execution when a
/// log is supplied (there is no data to read in trace mode).
pub(crate) fn band_diag_ext<T: Scalar>(
    dev: &Device,
    a_buf: &GlobalBuffer<T>,
    tau_buf: &GlobalBuffer<T>,
    n: usize,
    p: &HyperParams,
    fused: bool,
    mut log: Option<&mut ReflectorLog>,
) {
    let nbt = p.nbtiles(n);
    let a = DMat::new(a_buf, n);
    let tau = DVec::new(tau_buf);
    let ts = p.tilesize;
    // Appends the reflectors of the panel in tile column `pc` from tile
    // row `tr0` down, read through the sweep's own `view` (so the LQ
    // side's lazy transpose is the kernels' indexing): the top tile's
    // GEQRT reflectors, whose tails sit below their heads inside it, then
    // each TSQRT tile's, whose tails fill the tile.
    let log_panel = |log: &mut ReflectorLog, left: bool, view: DMat<'_, T>, pc, tr0| {
        let (r0, c0) = (tr0 * ts, pc * ts);
        for lt in 0..nbt - tr0 {
            for kk in 0..ts {
                let (head, col) = (r0 + kk, c0 + kk);
                let (start, end) = if lt == 0 {
                    (head + 1, r0 + ts)
                } else {
                    (r0 + lt * ts, r0 + (lt + 1) * ts)
                };
                let t = tau_buf.read(r0 + lt * ts + kk).to_f64();
                let tail = (start..end).map(|r| view.read(r, col).to_f64());
                log.push(left, head, start, t, tail);
            }
        }
    };
    for k in 0..nbt.saturating_sub(1) {
        // RQ sweep: annihilate the tile column below diagonal tile k.
        getsmqrt(dev, a, tau, p, k, k, nbt, fused);
        if let Some(log) = log.as_deref_mut() {
            log_panel(log, true, a, k, k);
        }
        // LQ sweep: annihilate the tile row right of tile (k, k+1), via
        // the lazy transpose (Algorithm 2 line 4).
        getsmqrt(dev, a.t(), tau, p, k, k + 1, nbt, fused);
        if let Some(log) = log.as_deref_mut() {
            log_panel(log, false, a.t(), k, k + 1);
        }
    }
    // Final diagonal tile (Algorithm 2 line 6).
    geqrt(dev, a, tau, p, nbt - 1, nbt - 1);
    if let Some(log) = log {
        log_panel(log, true, a, nbt - 1, nbt - 1);
    }
}

/// Extracts the implied band matrix from the in-place factored storage:
/// diagonal tiles contribute their upper triangle, first-superdiagonal
/// tiles their lower triangle (everything else holds parked Householder
/// vectors or implied zeros). The band is written in the compute type
/// into an existing band matrix of order `n` that stores at least the
/// `ts` superdiagonals of the band — the `(n, 1, ts + 1)` band, or the
/// stage-2 work band a plan keeps, which the chase then reduces in place —
/// refilled without allocating. Every stored cell is overwritten, so
/// state left by a previous solve's chase is fully replaced.
///
/// # Panics
/// In trace-only mode, or if `band` is not of order `n` or stores fewer
/// than `ts` superdiagonals.
pub fn extract_band_into<T: Scalar>(
    dev: &Device,
    a_buf: &GlobalBuffer<T>,
    n: usize,
    ts: usize,
    band: &mut BandMatrix<T::Accum>,
) {
    assert!(
        dev.mode() == ExecMode::Numeric,
        "band extraction requires numeric execution"
    );
    assert!(
        band.n() == n && band.sup() >= ts.min(n.saturating_sub(1)),
        "band workspace geometry must match the planned problem"
    );
    let a = DMat::new(a_buf, n);
    band.refill_from_dense(|i, j| {
        if j < i || j > i + ts {
            return <T::Accum as unisvd_scalar::Real>::ZERO;
        }
        let (ti, tj) = (i / ts, j / ts);
        let (li, lj) = (i % ts, j % ts);
        if ti == tj {
            // Diagonal tile: upper triangle is R.
            a.read(i, j)
        } else if tj == ti + 1 && lj <= li {
            // Superdiagonal tile: lower triangle is the LQ's L.
            a.read(i, j)
        } else {
            <T::Accum as unisvd_scalar::Real>::ZERO
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::hw::h100;
    use unisvd_matrix::Matrix;

    const TS: usize = 8;

    fn params() -> HyperParams {
        HyperParams::new(TS, 4, 1)
    }

    fn run_band_diag(n: usize, fused: bool, seed: u64) -> (Matrix<f64>, BandMatrix<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tau = dev.alloc::<f64>(n);
        band_diag(&dev, &buf, &tau, n, &params(), fused);
        let mut band = BandMatrix::zeros(n, 1, TS + 1);
        extract_band_into::<f64>(&dev, &buf, n, TS, &mut band);
        (a0, band)
    }

    #[test]
    fn band_form_has_correct_bandwidth() {
        let (_, band) = run_band_diag(4 * TS, true, 7);
        assert_eq!(
            band.max_abs_below_diag(),
            0.0,
            "below diagonal must be zero"
        );
        assert_eq!(
            band.max_abs_beyond_sup(TS),
            0.0,
            "beyond bandwidth TILESIZE must be zero"
        );
        // The band is genuinely used (not the zero matrix).
        assert!(band.fro_norm() > 1.0);
    }

    #[test]
    fn band_preserves_frobenius_norm() {
        // Orthogonal transforms preserve ‖A‖_F; the band must carry the
        // full norm of the original matrix.
        let (a0, band) = run_band_diag(3 * TS, true, 13);
        let diff = (band.fro_norm() - a0.fro_norm()).abs() / a0.fro_norm();
        assert!(diff < 1e-12, "relative norm drift {diff}");
    }

    #[test]
    fn fused_and_unfused_band_agree() {
        let (_, b1) = run_band_diag(3 * TS, true, 99);
        let (_, b2) = run_band_diag(3 * TS, false, 99);
        let n = b1.n();
        let mut maxdiff = 0.0f64;
        for i in 0..n {
            for j in i..(i + TS + 1).min(n) {
                maxdiff = maxdiff.max((b1.get(i, j) - b2.get(i, j)).abs());
            }
        }
        assert!(
            maxdiff < 1e-12,
            "fused vs unfused band diverged by {maxdiff}"
        );
    }

    #[test]
    fn launch_count_scaling_linear_vs_quadratic() {
        // Fig. 2 / §3.2: fused kernels launch O(nbt), unfused O(nbt²).
        let count = |nbt: usize, fused: bool| {
            let n = nbt * TS;
            let dev = Device::numeric(h100());
            let mut rng = StdRng::seed_from_u64(1);
            let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            let buf = dev.upload(a0.as_slice());
            let tau = dev.alloc::<f64>(n);
            band_diag(&dev, &buf, &tau, n, &params(), fused);
            dev.summary().total_launches()
        };
        let (f4, f8) = (count(4, true), count(8, true));
        let (u4, u8) = (count(4, false), count(8, false));
        // Fused roughly doubles with nbt; unfused roughly quadruples.
        assert!(
            f8 < f4 * 3,
            "fused launches {f4} -> {f8} should scale ~linearly"
        );
        assert!(
            u8 > u4 * 3,
            "unfused launches {u4} -> {u8} should scale ~quadratically"
        );
        assert!(
            u8 > f8 * 4,
            "unfused must launch far more kernels than fused"
        );
    }

    #[test]
    fn one_tile_matrix_reduces_to_triangle() {
        let (a0, band) = run_band_diag(TS, true, 3);
        assert_eq!(band.max_abs_below_diag(), 0.0);
        let diff = (band.fro_norm() - a0.fro_norm()).abs() / a0.fro_norm();
        assert!(diff < 1e-13);
    }
}
