//! Stage 3: bidiagonal → singular values.
//!
//! The paper delegates this (cheapest) stage to LAPACK's CPU solvers; we
//! implement that substrate from scratch with two independent algorithms
//! that cross-validate each other:
//!
//! * [`bdsqr`] — implicit QR iteration on the bidiagonal with Wilkinson
//!   shift, switching to the Demmel–Kahan **zero-shift** sweep when the
//!   shift would wreck relative accuracy (the `xBDSQR` strategy).
//! * [`bisect`] — Sturm-count bisection on the Golub–Kahan tridiagonal
//!   `[0 Bᵀ; B 0]`, slower but essentially failure-proof; used as the
//!   oracle in tests and available as a public fallback.
//!
//! Both return singular values in descending order. Host CPU time is
//! accounted on the device trace under [`KernelClass::BidiagonalSvd`],
//! matching the paper's CPU placement of this stage.

use crate::band2bi::givens;
use crate::vectors::RotLog;
use unisvd_gpu::{Device, KernelClass};
use unisvd_matrix::Bidiagonal;
use unisvd_scalar::Real;

/// Maximum QR sweeps per singular value before giving up (LAPACK uses 6).
const MAXITER_PER_SV: usize = 30;

/// Error from the iterative solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoConvergence {
    /// Remaining unreduced block size when iteration stalled.
    pub remaining: usize,
}

impl std::fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bidiagonal QR failed to converge ({} rows unreduced)",
            self.remaining
        )
    }
}

impl std::error::Error for NoConvergence {}

/// One Demmel–Kahan zero-shift QR sweep on `d[lo..=hi]`, `e[lo..hi]`.
/// Preserves high relative accuracy of small singular values. With `log`,
/// records the `(CS, SN)` right and `(OLDCS, OLDSN)` left rotation of
/// each step — the pairing `xBDSQR` hands to `DLASR` for its vector
/// update; the logging adds no arithmetic, so the value iteration is
/// bit-identical with or without it.
fn zero_shift_sweep<R: Real>(
    d: &mut [R],
    e: &mut [R],
    lo: usize,
    hi: usize,
    mut log: Option<&mut RotLog>,
) {
    let mut cs = R::ONE;
    let mut oldcs = R::ONE;
    let mut oldsn = R::ZERO;
    for i in lo..hi {
        let (c, s, r) = givens(d[i] * cs, e[i]);
        cs = c;
        let sn = s;
        if i > lo {
            e[i - 1] = oldsn * r;
        }
        let (oc, os, dr) = givens(oldcs * r, d[i + 1] * sn);
        oldcs = oc;
        oldsn = os;
        d[i] = dr;
        if let Some(log) = log.as_deref_mut() {
            log.push(false, i, c.to_f64(), s.to_f64());
            log.push(true, i, oc.to_f64(), os.to_f64());
        }
    }
    let h = d[hi] * cs;
    e[hi - 1] = h * oldsn;
    d[hi] = h * oldcs;
}

/// One shifted implicit-QR sweep (Golub–Kahan SVD step, GVL alg. 8.6.1)
/// on `d[lo..=hi]`, `e[lo..hi]` with shift `mu` (an eigenvalue estimate
/// of `BᵀB`).
fn shifted_sweep<R: Real>(
    d: &mut [R],
    e: &mut [R],
    lo: usize,
    hi: usize,
    mu: R,
    mut log: Option<&mut RotLog>,
) {
    // The first rotation is implicit (from the shifted normal equations);
    // afterwards (y, z) is the (in-band, bulge) pair of row k−1 and the
    // right rotation restores e[k−1] = r while annihilating the bulge.
    let mut y = d[lo] * d[lo] - mu;
    let mut z = d[lo] * e[lo];
    for k in lo..hi {
        // Right rotation on columns (k, k+1): zero z against y.
        let (c, s, r) = givens(y, z);
        if k > lo {
            e[k - 1] = r;
        }
        // Apply to rows k, k+1 (the 2×2 working window of B).
        let t00 = c * d[k] + s * e[k];
        let t01 = -s * d[k] + c * e[k];
        let t10 = s * d[k + 1];
        let t11 = c * d[k + 1];
        // Left rotation on rows (k, k+1): zero the subdiagonal bulge t10.
        let (c2, s2, r2) = givens(t00, t10);
        d[k] = r2;
        e[k] = c2 * t01 + s2 * t11;
        d[k + 1] = -s2 * t01 + c2 * t11;
        if let Some(log) = log.as_deref_mut() {
            log.push(false, k, c.to_f64(), s.to_f64());
            log.push(true, k, c2.to_f64(), s2.to_f64());
        }
        if k < hi - 1 {
            // The left rotation spilled a bulge into (k, k+2).
            let ek1 = e[k + 1];
            y = e[k];
            z = s2 * ek1;
            e[k + 1] = c2 * ek1;
        }
    }
}

/// Wilkinson-style shift: the eigenvalue of the trailing 2×2 of `BᵀB`
/// closest to its last entry.
fn trailing_shift<R: Real>(d: &[R], e: &[R], lo: usize, hi: usize) -> R {
    let dm = d[hi - 1];
    let dn = d[hi];
    let em = e[hi - 1];
    let el = if hi >= 2 && hi - 1 > lo {
        e[hi - 2]
    } else {
        R::ZERO
    };
    // Trailing 2×2 of BᵀB: [[dm²+el², dm·em], [dm·em, dn²+em²]].
    let a = dm * dm + el * el;
    let b = dm * em;
    let c = dn * dn + em * em;
    let delta = (a - c) * R::HALF;
    let disc = (delta * delta + b * b).sqrt();
    // Eigenvalue closest to c.
    if delta >= R::ZERO {
        c - b * b / (delta + disc).max(R::MIN_POSITIVE)
    } else {
        c + b * b / ((-delta) + disc).max(R::MIN_POSITIVE)
    }
}

/// Reusable scratch for the stage-3 solvers ([`bdsqr_into`],
/// [`dqds_into`](crate::dqds::dqds_into), `bisect_topk_into`): the working
/// copies every solve used to clone fresh (`d`/`e`, the dqds hat arrays,
/// the Golub–Kahan `z` array) plus the output collector. Threaded through
/// a reused [`SvdPlan`](crate::SvdPlan)'s workspace block so steady-state
/// execution allocates nothing; a default-constructed workspace warms up
/// on first use.
#[derive(Default, Debug)]
pub struct Stage3Workspace<R> {
    /// Diagonal working copy (`d` for bdsqr, `q` for dqds).
    pub(crate) d: Vec<R>,
    /// Superdiagonal working copy (`e` for bdsqr, squared `e` for dqds).
    pub(crate) e: Vec<R>,
    /// dqds `q̂` hat array; doubles as bisect's interleaved `z` array.
    pub(crate) qh: Vec<R>,
    /// dqds `ê` hat array.
    pub(crate) eh: Vec<R>,
    /// dqds interior-split continuation stack: `(lo, hi, shift_acc)` of
    /// the suspended outer window while a decoupled tail block converges
    /// in place. Empty outside a solve; bounded by `n`.
    pub(crate) split_stack: Vec<(usize, usize, R)>,
    /// Collected singular values, descending after a successful solve.
    pub(crate) out: Vec<R>,
}

impl<R: Real> Stage3Workspace<R> {
    /// The singular values produced by the last `*_into` solver call,
    /// descending.
    pub fn values(&self) -> &[R] {
        &self.out
    }
}

/// Singular values of an upper bidiagonal matrix by implicit QR iteration
/// (`xBDSQR`-style), descending order.
pub fn bdsqr<R: Real>(bi: &Bidiagonal<R>) -> Result<Vec<R>, NoConvergence> {
    let mut ws = Stage3Workspace::default();
    bdsqr_into(bi, &mut ws)?;
    Ok(ws.out)
}

/// [`bdsqr`] against a reusable [`Stage3Workspace`]: identical iteration,
/// but the `d`/`e` working copies and the value collector reuse the
/// workspace vectors instead of allocating. On success the values are in
/// [`Stage3Workspace::values`], descending.
pub fn bdsqr_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
) -> Result<(), NoConvergence> {
    bdsqr_into_ext(bi, ws, None)
}

/// [`bdsqr_into`] with an optional rotation log for singular-vector
/// replay. Logging records each sweep's rotations as they are generated
/// and adds no arithmetic to the iteration, so the computed values (and
/// the final signed diagonal left in `ws.d`, whose signs seed the `U`
/// accumulator) are bit-identical with `log = None`.
pub(crate) fn bdsqr_into_ext<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
    mut log: Option<&mut RotLog>,
) -> Result<(), NoConvergence> {
    let n = bi.n();
    ws.out.clear();
    if n == 0 {
        return Ok(());
    }
    ws.d.clear();
    ws.d.extend_from_slice(&bi.d);
    ws.e.clear();
    ws.e.extend_from_slice(&bi.e);
    let (d, e) = (&mut ws.d[..], &mut ws.e[..]);
    let anorm = bi.fro_norm();
    if anorm == R::ZERO {
        ws.out.resize(n, R::ZERO);
        return Ok(());
    }
    let tol = R::EPSILON * R::from_f64(8.0);
    let safmin = R::MIN_POSITIVE / R::EPSILON;

    let mut hi = n - 1;
    let mut iter_budget = MAXITER_PER_SV * n * 2;
    while hi > 0 {
        if iter_budget == 0 {
            return Err(NoConvergence { remaining: hi + 1 });
        }
        iter_budget -= 1;

        // Deflate negligible superdiagonals.
        let mut deflated = false;
        for i in (0..hi).rev() {
            if e[i].abs() <= tol * (d[i].abs() + d[i + 1].abs()) + safmin {
                e[i] = R::ZERO;
                if i == hi - 1 {
                    hi -= 1;
                    deflated = true;
                    break;
                }
            }
        }
        if deflated {
            continue;
        }
        if hi == 0 {
            break;
        }

        // Find the unreduced block [lo, hi] (largest lo with e[lo-1] = 0).
        let mut lo = hi;
        while lo > 0 && e[lo - 1] != R::ZERO {
            lo -= 1;
        }
        if lo == hi {
            // Isolated 1×1 block: already converged.
            hi -= 1;
            continue;
        }

        // Zero diagonal inside the block → the Demmel–Kahan zero-shift
        // sweep handles it with high relative accuracy; also use it when
        // the shift would underflow relative accuracy.
        let dmax = (lo..=hi).map(|i| d[i].abs()).fold(R::ZERO, R::max);
        let dmin = (lo..=hi).map(|i| d[i].abs()).fold(R::MAX, R::min);
        let use_zero_shift = dmin <= tol * dmax;
        if use_zero_shift {
            zero_shift_sweep(d, e, lo, hi, log.as_deref_mut());
        } else {
            let mu = trailing_shift(d, e, lo, hi);
            // A shift larger than the block norm² means cancellation —
            // fall back to zero shift.
            if mu <= R::ZERO {
                zero_shift_sweep(d, e, lo, hi, log.as_deref_mut());
            } else {
                shifted_sweep(d, e, lo, hi, mu, log.as_deref_mut());
            }
        }
    }

    ws.out.extend(d.iter().map(|x| x.abs()));
    // In-place unstable sort: all keys are non-negative with well-defined
    // bit patterns, so the output sequence is bit-identical to a stable
    // sort — without the merge buffer a stable sort allocates. A total
    // order keeps a non-finite input's NaN/Inf values from panicking it.
    ws.out
        .sort_unstable_by(|a, b| b.to_f64().total_cmp(&a.to_f64()));
    Ok(())
}

/// Sturm count: number of eigenvalues of the Golub–Kahan tridiagonal
/// (zero diagonal, off-diagonal `z`) strictly below `x`.
fn tgk_count_below<R: Real>(z: &[R], x: R) -> usize {
    let mut t = -x;
    let mut count = if t < R::ZERO { 1 } else { 0 };
    for &b in z {
        let denom = if t == R::ZERO {
            R::EPSILON * R::EPSILON
        } else {
            t
        };
        t = -x - b * b / denom;
        if t < R::ZERO {
            count += 1;
        }
    }
    count
}

/// Singular values by bisection on the Golub–Kahan tridiagonal —
/// failure-proof oracle, descending order.
pub fn bisect<R: Real>(bi: &Bidiagonal<R>) -> Vec<R> {
    let mut ws = Stage3Workspace::default();
    bisect_topk_into(bi, &mut ws, None);
    ws.out
}

/// [`bisect`] against a reusable [`Stage3Workspace`] (the interleaved
/// Golub–Kahan `z` array and the value collector reuse its vectors;
/// values land in [`Stage3Workspace::values`], descending), computing
/// only the largest `topk` singular values when requested — the one
/// stage-3 solver whose per-value searches are fully independent, so a
/// truncated solve skips the bottom of the spectrum natively and each
/// computed value is **bitwise identical** to the same value from a full
/// run. `topk = None` (or `topk ≥ n`) computes all values, identically
/// to [`bisect`].
pub(crate) fn bisect_topk_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
    topk: Option<usize>,
) {
    let n = bi.n();
    ws.out.clear();
    if n == 0 {
        return;
    }
    // Interleaved off-diagonal: d0, e0, d1, e1, …, d_{n-1} (length 2n−1).
    ws.qh.clear();
    for i in 0..n {
        ws.qh.push(bi.d[i]);
        if i + 1 < n {
            ws.qh.push(bi.e[i]);
        }
    }
    let z = &ws.qh[..];
    // Gershgorin-style upper bound on |σ|.
    let mut ub = R::ZERO;
    for i in 0..z.len() {
        let left = if i > 0 { z[i - 1].abs() } else { R::ZERO };
        ub = ub.max(left + z[i].abs());
    }
    ub = ub + ub * R::EPSILON + R::MIN_POSITIVE;

    // σ_k (ascending k) = (n + k + 1)-th smallest eigenvalue of TGK; we
    // bisect for each of the requested positive eigenvalues (the largest
    // `kk` of them — the top of the spectrum has the largest k indices).
    let kk = topk.unwrap_or(n).min(n);
    for k in (n - kk)..n {
        // #eigenvalues < x reaches n + k + 1 exactly when x > σ_k.
        let want = n + k + 1;
        let mut lo = R::ZERO;
        let mut hi = ub;
        for _ in 0..128 {
            let mid = (lo + hi) * R::HALF;
            if tgk_count_below(z, mid) >= want {
                hi = mid;
            } else {
                lo = mid;
            }
            if hi - lo <= R::EPSILON * ub {
                break;
            }
        }
        ws.out.push((lo + hi) * R::HALF);
    }
    ws.out
        .sort_unstable_by(|a, b| b.to_f64().total_cmp(&a.to_f64()));
}

/// Accounts the stage-3 CPU cost on the device trace (the paper runs this
/// stage through LAPACK on the host). Call once per solve.
pub fn account_stage3_cost(dev: &Device, n: usize) {
    // LAPACK D&C singular values: ~O(n²) flops at modest CPU efficiency.
    dev.cpu_work(
        KernelClass::BidiagonalSvd,
        "bdsqr",
        10.0 * (n * n) as f64,
        0.15,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(d: &[f64], e: &[f64]) -> Bidiagonal<f64> {
        Bidiagonal::new(d.to_vec(), e.to_vec())
    }

    #[test]
    fn diagonal_matrix_svs_are_abs_diagonal() {
        let b = bi(&[3.0, -1.0, 2.0], &[0.0, 0.0]);
        let sv = bdsqr(&b).unwrap();
        assert_eq!(sv, vec![3.0, 2.0, 1.0]);
        let sv2 = bisect(&b);
        for (a, b) in sv.iter().zip(&sv2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn two_by_two_known_values() {
        // B = [[1, 1], [0, 1]]: σ = golden ratio and its inverse.
        let b = bi(&[1.0, 1.0], &[1.0]);
        let phi = (1.0 + 5.0f64.sqrt()) / 2.0;
        let sv = bdsqr(&b).unwrap();
        assert!((sv[0] - phi).abs() < 1e-14, "σ₁ = {} want {phi}", sv[0]);
        assert!((sv[1] - 1.0 / phi).abs() < 1e-14);
    }

    #[test]
    fn bdsqr_matches_bisection_on_random_bidiagonals() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for n in [2usize, 3, 5, 8, 17, 33, 64] {
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = bi(&d, &e);
            let s1 = bdsqr(&b).unwrap();
            let s2 = bisect(&b);
            for i in 0..n {
                assert!(
                    (s1[i] - s2[i]).abs() < 1e-10 * (1.0 + s2[0]),
                    "n={n}, σ[{i}]: bdsqr {} vs bisect {}",
                    s1[i],
                    s2[i]
                );
            }
        }
    }

    #[test]
    fn zero_diagonal_entries_handled() {
        let b = bi(&[0.0, 2.0, 0.0, 1.0], &[1.0, 1.0, 1.0]);
        let s1 = bdsqr(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..4 {
            assert!(
                (s1[i] - s2[i]).abs() < 1e-12,
                "σ[{i}]: {} vs {}",
                s1[i],
                s2[i]
            );
        }
        // The matrix is singular: smallest σ must be ~0.
        assert!(s1[3] < 1e-12);
    }

    #[test]
    fn tiny_singular_values_resolved_relatively() {
        // Graded bidiagonal: σ span many orders of magnitude; the
        // zero-shift path should keep small ones accurate.
        let b = bi(&[1.0, 1e-4, 1e-8], &[1e-2, 1e-6]);
        let s1 = bdsqr(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..3 {
            let rel = (s1[i] - s2[i]).abs() / s2[i].max(1e-300);
            assert!(
                rel < 1e-6,
                "σ[{i}]: bdsqr {} vs bisect {} rel {rel}",
                s1[i],
                s2[i]
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(bdsqr(&bi(&[], &[])).unwrap().is_empty());
        assert_eq!(bdsqr(&bi(&[-4.0], &[])).unwrap(), vec![4.0]);
        assert_eq!(bisect(&bi(&[-4.0], &[])), vec![4.0]);
    }

    #[test]
    fn all_zero_matrix() {
        let b = bi(&[0.0; 5], &[0.0; 4]);
        assert_eq!(bdsqr(&b).unwrap(), vec![0.0; 5]);
    }

    #[test]
    fn frobenius_identity_holds() {
        // Σσ² = ‖B‖_F² — a strong global check on the sweep algebra.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let n = 50;
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b = bi(&d, &e);
        let sv = bdsqr(&b).unwrap();
        let sum_sq: f64 = sv.iter().map(|s| s * s).sum();
        let fro2 = b.fro_norm().powi(2);
        assert!(((sum_sq - fro2) / fro2).abs() < 1e-12);
    }

    #[test]
    fn f32_precision_path() {
        let b = Bidiagonal::new(vec![1.0f32, 0.5, 0.25], vec![0.1, 0.1]);
        let s1 = bdsqr(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..3 {
            assert!((s1[i] - s2[i]).abs() < 1e-5);
        }
    }
}
