//! Singular-vector accumulator primitive: the host-side apply kernel
//! the reverse-replay accumulation path (see `unisvd-core`'s `vectors`
//! module) drives, plus the cost models the simulated device charges for
//! it.
//!
//! [`reflector_apply`] operates on a **padded × k row-major accumulator**
//! `w`: `k` singular-vector columns of the padded device problem, stored
//! k-contiguous (row `r` is `w[r*k .. (r+1)*k]`) so every replayed
//! transform streams whole rows, and stored f64 regardless of the
//! pipeline's storage precision (the transforms being replayed were
//! *computed* in the accumulation type; replaying in f64 adds no error
//! of its own). It is deliberately sequential and branch-free per
//! element, so accumulated vectors are bit-identical for any thread
//! count — the same determinism discipline as the values path.

use unisvd_gpu::{Device, KernelClass};

/// Applies one Householder reflector `H = I − τ v vᵀ` to the accumulator,
/// where `v` has an implicit unit head at row `head`, zeros elsewhere,
/// and the contiguous tail `tail` at rows `tail_start ..`. This covers
/// every reflector both reductions log: `GEQRT` tails live just below the
/// head inside the diagonal tile, `TSQRT` tails fill a full tile further
/// down the panel, and a bulge-chase hop's tails follow their heads.
///
/// Row by row: `dot` (`k` entries of caller scratch) gathers
/// `τ·(w[head, :] + Σⱼ tail[j]·w[tail_start + j, :])` as axpys over
/// contiguous rows, then each touched row subtracts its multiple of it.
/// Every element sees the operations of the per-column formulation in
/// the same order, so the result is bit-identical to it.
///
/// A `τ = 0` reflector is the identity; callers skip those before
/// calling (the guarded-reflector convention of `reflector_head`).
///
/// # Panics
/// If `k` is zero, the head or tail rows leave the accumulator, or
/// (debug assertions) `dot` is not `k` long or the tail overlaps the
/// head.
#[inline]
pub fn reflector_apply(
    w: &mut [f64],
    k: usize,
    dot: &mut [f64],
    head: usize,
    tail_start: usize,
    tail: &[f64],
    tau: f64,
) {
    debug_assert_eq!(dot.len(), k);
    debug_assert!(head < tail_start || head >= tail_start + tail.len());
    dot.copy_from_slice(&w[head * k..(head + 1) * k]);
    let rows = &mut w[tail_start * k..(tail_start + tail.len()) * k];
    for (&v, row) in tail.iter().zip(rows.chunks_exact(k)) {
        for (d, &x) in dot.iter_mut().zip(row) {
            *d += v * x;
        }
    }
    for d in dot.iter_mut() {
        *d *= tau;
    }
    for (x, &d) in w[head * k..(head + 1) * k].iter_mut().zip(dot.iter()) {
        *x -= d;
    }
    let rows = &mut w[tail_start * k..(tail_start + tail.len()) * k];
    for (&v, row) in tail.iter().zip(rows.chunks_exact_mut(k)) {
        for (x, &d) in row.iter_mut().zip(dot.iter()) {
            *x -= d * v;
        }
    }
}

/// Host efficiency the accumulator replay is charged at: sequential
/// scalar code over contiguous accumulator rows, well below the 15% the
/// blocked stage-3 solver achieves.
pub const ACCUM_EFFICIENCY: f64 = 0.04;

/// Modeled flop count for replaying the stage-1 reflectors onto `k`
/// accumulator columns of an `n × n` (padded) problem: ≈ `n²/(2·ts)·ts`
/// reflector·row products per side, 4 flops per accumulator element
/// touched — data-independent, so trace-only cost replay matches numeric
/// execution class for class.
pub fn accum_s1_flops(n: usize, k: usize) -> f64 {
    4.0 * (n * n) as f64 * k as f64
}

/// Modeled flop count for replaying the stage-2 bulge-chase rotations:
/// ≈ `n²·ln(ts)` rotations at 6 flops per accumulator element pair. The
/// host now replays Householder reflectors there; the model is kept so
/// the simulated numbers do not move.
pub fn accum_s2_flops(n: usize, k: usize) -> f64 {
    16.0 * (n * n) as f64 * k as f64
}

/// Modeled flop count for the stage-3 vectors, as the replay of O(n)
/// QR sweeps of O(n) rotation pairs at 6 flops per element pair per
/// side. The host now computes them by inverse iteration on the
/// Golub–Kahan tridiagonal; the model is kept so the simulated numbers
/// do not move.
pub fn accum_s3_flops(n: usize, k: usize) -> f64 {
    24.0 * (n * n) as f64 * k as f64
}

/// Charges the device trace for the whole accumulation replay of one
/// solve (`k` columns on a padded problem of edge `n`). Emitted in both
/// numeric and trace-only modes — the models are data-independent by
/// construction, exactly like the stage-2 sweep specs — so
/// `SvdPlan::cost()` replays agree with numeric summaries.
pub fn account_accum_cost(dev: &Device, n: usize, k: usize) {
    if k == 0 {
        return;
    }
    dev.cpu_work(
        KernelClass::PanelFactorization,
        "accum_s1",
        accum_s1_flops(n, k),
        ACCUM_EFFICIENCY,
    );
    dev.cpu_work(
        KernelClass::BandToBidiagonal,
        "accum_s2",
        accum_s2_flops(n, k),
        ACCUM_EFFICIENCY,
    );
    dev.cpu_work(
        KernelClass::BidiagonalSvd,
        "accum_s3",
        accum_s3_flops(n, k),
        ACCUM_EFFICIENCY,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_gpu::hw::h100;

    /// Applying the same reflector twice must be the identity
    /// (H² = I for a Householder reflector with τ̂ = 2/‖v̂‖²).
    #[test]
    fn reflector_apply_is_involutory() {
        let padded = 6;
        let k = 2;
        let tail = vec![0.5, -0.25, 0.125];
        let norm2 = 1.0 + tail.iter().map(|v| v * v).sum::<f64>();
        let tau = 2.0 / norm2;
        let mut w: Vec<f64> = (0..padded * k).map(|x| (x as f64).sin()).collect();
        let orig = w.clone();
        let mut dot = vec![0.0; k];
        reflector_apply(&mut w, k, &mut dot, 1, 3, &tail, tau);
        assert!(w.iter().zip(&orig).any(|(a, b)| a != b), "H acted");
        reflector_apply(&mut w, k, &mut dot, 1, 3, &tail, tau);
        for (a, b) in w.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-14, "H² = I");
        }
    }

    /// The row-streamed apply gives the bits of the per-column
    /// formulation `s = τ·(w[head] + Σ tail[j]·w[tail_start + j])`,
    /// `w[head] −= s`, `w[tail_start + j] −= s·tail[j]`.
    #[test]
    fn reflector_apply_matches_per_column_bits() {
        let (padded, k) = (9, 5);
        let tail = [0.3, -1.7, 0.05, 2.2];
        let (head, tail_start, tau) = (2, 4, 1.37);
        let mut w: Vec<f64> = (0..padded * k).map(|x| (x as f64 * 0.7).cos()).collect();
        let mut want = w.clone();
        for c in 0..k {
            let mut s = want[head * k + c];
            for (j, &v) in tail.iter().enumerate() {
                s += v * want[(tail_start + j) * k + c];
            }
            s *= tau;
            want[head * k + c] -= s;
            for (j, &v) in tail.iter().enumerate() {
                want[(tail_start + j) * k + c] -= s * v;
            }
        }
        reflector_apply(&mut w, k, &mut vec![0.0; k], head, tail_start, &tail, tau);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w), bits(&want));
    }

    #[test]
    fn cost_models_scale_linearly_in_k() {
        assert_eq!(accum_s1_flops(64, 8) * 2.0, accum_s1_flops(64, 16));
        assert_eq!(accum_s2_flops(64, 8) * 2.0, accum_s2_flops(64, 16));
        assert_eq!(accum_s3_flops(64, 8) * 2.0, accum_s3_flops(64, 16));
    }

    #[test]
    fn account_accum_cost_charges_three_stages() {
        let dev = Device::trace_only(h100());
        account_accum_cost(&dev, 64, 8);
        let s = dev.summary();
        assert!(s.seconds_of(KernelClass::PanelFactorization) > 0.0);
        assert!(s.seconds_of(KernelClass::BandToBidiagonal) > 0.0);
        assert!(s.seconds_of(KernelClass::BidiagonalSvd) > 0.0);
        // k = 0 charges nothing.
        let dev0 = Device::trace_only(h100());
        account_accum_cost(&dev0, 64, 0);
        assert_eq!(dev0.summary().total_seconds(), 0.0);
    }
}
