//! Stage 3: bidiagonal → singular values.
//!
//! The paper delegates this (cheapest) stage to LAPACK's CPU solvers; we
//! implement that substrate from scratch with independent algorithms
//! that cross-validate each other:
//!
//! * [`bdsqr`] — values as LAPACK's `xBDSQR` computes them when asked for
//!   no vectors: dqds ([`mod@crate::dqds`]) first, and only if dqds does not
//!   converge, implicit QR iteration on the bidiagonal with Wilkinson
//!   shift, switching to the Demmel–Kahan **zero-shift** sweep when the
//!   shift would wreck relative accuracy.
//! * [`bisect`] — Sturm-count bisection on the Golub–Kahan tridiagonal
//!   `[0 Bᵀ; B 0]`, slower but essentially failure-proof; used as the
//!   oracle in tests and available as a public fallback.
//!
//! All return singular values in descending order. Host CPU time is
//! accounted on the device trace under [`KernelClass::BidiagonalSvd`],
//! matching the paper's CPU placement of this stage.

use unisvd_gpu::{Device, KernelClass};
use unisvd_matrix::Bidiagonal;
use unisvd_scalar::Real;

use crate::dqds::{default_budget, dqds_budgeted};

/// Maximum QR sweeps per singular value before giving up (LAPACK uses 6).
const MAXITER_PER_SV: usize = 30;

/// Computes a Givens rotation `(c, s, r)` with `c·f + s·g = r` and
/// `-s·f + c·g = 0`.
#[inline]
pub fn givens<R: Real>(f: R, g: R) -> (R, R, R) {
    if g == R::ZERO {
        (R::ONE, R::ZERO, f)
    } else if f == R::ZERO {
        (R::ZERO, R::ONE, g)
    } else {
        let r = f.hypot(g).copysign(f);
        (f / r, g / r, r)
    }
}

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
            "bidiagonal solver failed to converge ({} rows unreduced)",
            self.remaining
        )
    }
}

impl std::error::Error for NoConvergence {}

/// One Demmel–Kahan zero-shift QR sweep on `d[lo..=hi]`, `e[lo..hi]`.
/// Preserves high relative accuracy of small singular values.
fn zero_shift_sweep<R: Real>(d: &mut [R], e: &mut [R], lo: usize, hi: usize) {
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
    }
    let h = d[hi] * cs;
    e[hi - 1] = h * oldsn;
    d[hi] = h * oldcs;
}

/// One shifted implicit-QR sweep (Golub–Kahan SVD step, GVL alg. 8.6.1)
/// on `d[lo..=hi]`, `e[lo..hi]` with shift `shift` (a singular-value
/// estimate, not its square). As in `xBDSQR`, the first rotation comes
/// from `((|d_lo| − shift)·(sign(d_lo) + shift/d_lo), e_lo)`, the
/// direction of `(d_lo² − shift², d_lo·e_lo)` without forming a square,
/// so a block of tiny entries does not underflow.
fn shifted_sweep<R: Real>(d: &mut [R], e: &mut [R], lo: usize, hi: usize, shift: R) {
    let mut f = (d[lo].abs() - shift) * (R::ONE.copysign(d[lo]) + shift / d[lo]);
    let mut g = e[lo];
    for k in lo..hi {
        // Right rotation on columns (k, k+1): zero g against f.
        let (c, s, r) = givens(f, g);
        if k > lo {
            e[k - 1] = r;
        }
        f = c * d[k] + s * e[k];
        e[k] = c * e[k] - s * d[k];
        g = s * d[k + 1];
        d[k + 1] = c * d[k + 1];
        // Left rotation on rows (k, k+1): zero the subdiagonal bulge g.
        let (c2, s2, r2) = givens(f, g);
        d[k] = r2;
        f = c2 * e[k] + s2 * d[k + 1];
        d[k + 1] = c2 * d[k + 1] - s2 * e[k];
        if k < hi - 1 {
            // The left rotation spilled a bulge into (k, k+2).
            g = s2 * e[k + 1];
            e[k + 1] = c2 * e[k + 1];
        }
    }
    e[hi - 1] = f;
}

/// The smaller singular value of `[[f, g], [0, h]]`, computed as
/// LAPACK's `xLAS2` does: from ratios, with no square that could
/// underflow or overflow.
fn las2_min<R: Real>(f: R, g: R, h: R) -> R {
    let (fa, ga, ha) = (f.abs(), g.abs(), h.abs());
    let (fhmn, fhmx) = (fa.min(ha), fa.max(ha));
    if fhmn == R::ZERO {
        return R::ZERO;
    }
    let as_ = R::ONE + fhmn / fhmx;
    let at = (fhmx - fhmn) / fhmx;
    if ga < fhmx {
        let au = (ga / fhmx) * (ga / fhmx);
        let c = (R::ONE + R::ONE) / ((as_ * as_ + au).sqrt() + (at * at + au).sqrt());
        fhmn * c
    } else {
        let au = fhmx / ga;
        if au == R::ZERO {
            (fhmn * fhmx) / ga
        } else {
            let c = R::ONE
                / ((R::ONE + (as_ * au) * (as_ * au)).sqrt()
                    + (R::ONE + (at * au) * (at * au)).sqrt());
            let m = (fhmn * c) * au;
            m + m
        }
    }
}

/// Reusable scratch for the stage-3 solvers ([`bdsqr_into`],
/// [`dqds_into`](crate::dqds::dqds_into), `bisect_topk_into`): the working
/// copies every solve used to clone fresh (`d`/`e`, the two dqds array
/// pairs, the Golub–Kahan `z` array) plus the output collector. Threaded
/// through a reused [`SvdPlan`](crate::SvdPlan)'s workspace block so
/// steady-state execution allocates nothing; a default-constructed
/// workspace warms up on first use.
#[derive(Default, Debug)]
pub struct Stage3Workspace<R> {
    /// Diagonal working copy (`d` for the QR sweep, `q` of dqds's first
    /// array pair).
    pub(crate) d: Vec<R>,
    /// Superdiagonal working copy (`e` for the QR sweep, squared `e` of
    /// dqds's first array pair).
    pub(crate) e: Vec<R>,
    /// `q` of dqds's second array pair; doubles as bisect's interleaved
    /// `z` array.
    pub(crate) qh: Vec<R>,
    /// `e` of dqds's second array pair.
    pub(crate) eh: Vec<R>,
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

/// Singular values of an upper bidiagonal matrix, descending, as LAPACK's
/// `xBDSQR` computes them when asked for no vectors: by dqds
/// ([`dqds`](crate::dqds::dqds)), and by implicit QR iteration only if
/// dqds does not converge. A non-finite entry fails at once with
/// [`NoConvergence`].
pub fn bdsqr<R: Real>(bi: &Bidiagonal<R>) -> Result<Vec<R>, NoConvergence> {
    let mut ws = Stage3Workspace::default();
    bdsqr_into(bi, &mut ws)?;
    Ok(ws.out)
}

/// [`bdsqr`] against a reusable [`Stage3Workspace`]: identical values,
/// but the working arrays and the value collector reuse the workspace
/// vectors instead of allocating. On success the values are in
/// [`Stage3Workspace::values`], descending.
pub fn bdsqr_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
) -> Result<(), NoConvergence> {
    values_into(bi, ws, default_budget(bi.n()))
}

/// [`bdsqr_into`] with dqds's transform budget as a parameter, so tests
/// can force the fallback.
fn values_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
    dqds_budget: usize,
) -> Result<(), NoConvergence> {
    if !all_finite(bi) {
        return Err(NoConvergence { remaining: bi.n() });
    }
    dqds_budgeted(bi, ws, dqds_budget).or_else(|_| qr_sweep_into(bi, ws))
}

/// True if every entry of `bi` is finite: no solver converges otherwise.
pub(crate) fn all_finite<R: Real>(bi: &Bidiagonal<R>) -> bool {
    bi.d.iter().chain(&bi.e).all(|x| x.is_finite())
}

/// The implicit-QR sweep [`bdsqr_into`] falls back to when dqds does not
/// converge: shifts from the trailing 2×2, Demmel–Kahan zero-shift sweeps
/// where a shift would cost the smallest value its relative accuracy.
pub(crate) fn qr_sweep_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
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
    // An exact test: the Frobenius norm of tiny f32 entries underflows.
    if d.iter().chain(e.iter()).all(|&x| x == R::ZERO) {
        ws.out.resize(n, R::ZERO);
        return Ok(());
    }
    let tol = R::EPSILON * R::from_f64(8.0);
    // Absolute threshold, as in `xBDSQR`: `tol` times an estimate of the
    // smallest singular value (the μ-recurrence of Demmel & Kahan over the
    // whole matrix, divided by √n), but at least a small multiple of the
    // underflow threshold.
    let mut mu = d[0].abs();
    let mut sminoa = mu;
    for i in 1..n {
        if sminoa == R::ZERO {
            break;
        }
        mu = d[i].abs() * (mu / (mu + e[i - 1].abs()));
        sminoa = sminoa.min(mu);
    }
    let nr = R::from_usize(n);
    let thresh =
        (tol * sminoa / nr.sqrt()).max(R::from_usize(MAXITER_PER_SV * n * n) * R::MIN_POSITIVE);

    let mut hi = n - 1;
    let mut iter_budget = MAXITER_PER_SV * n * 2;
    'sweeps: while hi > 0 {
        if iter_budget == 0 {
            return Err(NoConvergence { remaining: hi + 1 });
        }
        iter_budget -= 1;

        // The bottom unreduced block [lo, hi]: split at the lowest
        // superdiagonal below the absolute threshold.
        let mut lo = 0;
        let mut smax = d[hi].abs();
        for i in (0..hi).rev() {
            if e[i].abs() <= thresh {
                e[i] = R::ZERO;
                lo = i + 1;
                break;
            }
            smax = smax.max(d[i].abs()).max(e[i].abs());
        }
        if lo == hi {
            // Isolated 1×1 block: converged.
            hi -= 1;
            continue;
        }

        // Relative convergence tests: the bottom entry against its
        // diagonal, then the μ-recurrence down the block, whose running
        // value estimates the block's smallest singular value.
        if e[hi - 1].abs() <= tol * d[hi].abs() {
            e[hi - 1] = R::ZERO;
            hi -= 1;
            continue;
        }
        let mut mu = d[lo].abs();
        let mut sminl = mu;
        for i in lo..hi {
            if e[i].abs() <= tol * mu {
                e[i] = R::ZERO;
                continue 'sweeps;
            }
            mu = d[i + 1].abs() * (mu / (mu + e[i].abs()));
            sminl = sminl.min(mu);
        }

        // A shift would ruin the relative accuracy of the smallest value
        // when that value is tiny against the block's largest entry: sweep
        // with zero shift (Demmel & Kahan). Otherwise shift by the smaller
        // singular value of the trailing 2×2, unless it is negligible
        // against d_lo.
        let shift = if nr * tol * (sminl / smax) <= R::EPSILON.max(R::from_f64(0.01) * tol) {
            R::ZERO
        } else {
            let sll = d[lo].abs();
            let s = las2_min(d[hi - 1], e[hi - 1], d[hi]);
            if sll > R::ZERO && (s / sll) * (s / sll) < R::EPSILON {
                R::ZERO
            } else {
                s
            }
        };
        if shift == R::ZERO {
            zero_shift_sweep(d, e, lo, hi);
        } else {
            shifted_sweep(d, e, lo, hi, shift);
        }
        if e[hi - 1].abs() <= thresh {
            e[hi - 1] = R::ZERO;
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

/// The QR sweep's values alone: the oracle tests compare the dqds-first
/// route against.
#[cfg(test)]
pub(crate) fn qr_sweep<R: Real>(bi: &Bidiagonal<R>) -> Result<Vec<R>, NoConvergence> {
    let mut ws = Stage3Workspace::default();
    qr_sweep_into(bi, &mut ws)?;
    Ok(ws.out)
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
///
/// A bidiagonal with a NaN or infinite entry has no meaningful values:
/// the result is then `n` NaNs, never a plausible-looking number
/// ([`bdsqr`] reports the same input as [`NoConvergence`]).
pub fn bisect<R: Real>(bi: &Bidiagonal<R>) -> Vec<R> {
    if !all_finite(bi) {
        return vec![R::from_f64(f64::NAN); bi.n()];
    }
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

    /// Address and capacity of every workspace buffer: equal before and
    /// after a solve when the solve allocated nothing (the solvers keep
    /// all their storage in these vectors).
    fn buffers(ws: &Stage3Workspace<f64>) -> [(usize, usize); 5] {
        [&ws.d, &ws.e, &ws.qh, &ws.eh, &ws.out].map(|v| (v.as_ptr() as usize, v.capacity()))
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// When dqds gives up, `bdsqr_into` returns exactly the QR sweep's
    /// values, and a warm workspace still serves it without allocating.
    #[test]
    fn failed_dqds_falls_back_to_the_qr_sweep_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let n = 64;
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b = bi(&d, &e);
        let sweep = bits(&qr_sweep(&b).unwrap());
        let mut ws = Stage3Workspace::default();
        // Out of budget at once, and midway through the solve.
        for budget in [0, n] {
            assert!(
                dqds_budgeted(&b, &mut ws, budget).is_err(),
                "budget {budget}"
            );
            values_into(&b, &mut ws, budget).unwrap();
            assert_eq!(bits(ws.values()), sweep, "budget {budget}");
            let warm = buffers(&ws);
            values_into(&b, &mut ws, budget).unwrap();
            assert_eq!(
                buffers(&ws),
                warm,
                "budget {budget}: warm fallback allocated"
            );
            assert_eq!(bits(ws.values()), sweep, "budget {budget}");
        }
        // With the default budget dqds converges and the QR sweep never runs.
        assert!(dqds_budgeted(&b, &mut ws, default_budget(n)).is_ok());
        let warm = buffers(&ws);
        bdsqr_into(&b, &mut ws).unwrap();
        assert_eq!(buffers(&ws), warm, "warm dqds solve allocated");
    }

    /// A NaN or infinity fails at once: no solver starts, so none spends
    /// its iteration budget on it (a started one would have copied the
    /// entries into the workspace).
    #[test]
    fn non_finite_entries_fail_at_once() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in ["d[0]", "e[30]", "d[31]"] {
                let (mut d, mut e) = (vec![1.0; 32], vec![0.5; 31]);
                match at {
                    "d[0]" => d[0] = bad,
                    "e[30]" => e[30] = bad,
                    _ => d[31] = bad,
                }
                let b = bi(&d, &e);
                let err = Err(NoConvergence { remaining: 32 });
                let mut ws = Stage3Workspace::default();
                assert_eq!(bdsqr_into(&b, &mut ws), err, "{bad} at {at}");
                assert_eq!(crate::dqds_into(&b, &mut ws), err, "{bad} at {at}");
                assert!(
                    buffers(&ws).iter().all(|&(_, cap)| cap == 0),
                    "{bad} at {at}"
                );
            }
        }
    }

    /// The public `bisect` returns NaN for every value of a non-finite
    /// bidiagonal rather than values that look like an answer.
    #[test]
    fn bisect_returns_nan_for_non_finite_entries() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in ["d[0]", "e[2]", "d[3]"] {
                let (mut d, mut e) = (vec![1.0; 4], vec![0.5; 3]);
                match at {
                    "d[0]" => d[0] = bad,
                    "e[2]" => e[2] = bad,
                    _ => d[3] = bad,
                }
                let sv = bisect(&bi(&d, &e));
                assert_eq!(sv.len(), 4, "{bad} at {at}");
                assert!(sv.iter().all(|x| x.is_nan()), "{bad} at {at}: {sv:?}");
            }
        }
        let sv = bisect(&bi(&[f64::NAN; 4], &[f64::NAN; 3]));
        assert!(sv.len() == 4 && sv.iter().all(|x| x.is_nan()), "{sv:?}");
        let sv = bisect(&Bidiagonal::new(vec![1.0f32, f32::INFINITY], vec![0.5]));
        assert!(sv.len() == 2 && sv.iter().all(|x| x.is_nan()), "{sv:?}");
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
    fn givens_zeroes_second_component() {
        let (c, s, r) = givens(3.0f64, 4.0);
        assert!((c * 3.0 + s * 4.0 - r).abs() < 1e-15);
        assert!((-s * 3.0 + c * 4.0).abs() < 1e-15);
        assert!((r.abs() - 5.0).abs() < 1e-15);
        assert!((c * c + s * s - 1.0).abs() < 1e-15);
        // Degenerate cases.
        assert_eq!(givens(2.0f64, 0.0), (1.0, 0.0, 2.0));
        assert_eq!(givens(0.0f64, 2.0), (0.0, 1.0, 2.0));
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

    /// Graded bidiagonals, `d_i, e_i = ±U(0.5, 2)·10^(−26·i/(n−1))`: in
    /// f32 the trailing blocks hold entries near 1e-26, whose squares
    /// underflow. Every f32 solve, by `bdsqr` (dqds first) and by the QR
    /// sweep alone, must converge, and each value must agree with the f64
    /// QR sweep of the same (rounded) entries to the relative accuracy the
    /// zero-shift sweeps guarantee.
    #[test]
    fn graded_f32_bidiagonals_converge() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for n in [32usize, 64, 256] {
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut draw = |i: usize| {
                    let m: f64 = rng.gen_range(0.5..2.0);
                    let s = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                    (s * m * 10f64.powf(-26.0 * i as f64 / (n - 1) as f64)) as f32
                };
                let d: Vec<f32> = (0..n).map(&mut draw).collect();
                let e: Vec<f32> = (0..n - 1).map(&mut draw).collect();
                let b32 = Bidiagonal::new(d.clone(), e.clone());
                let wide = |x: &[f32]| x.iter().map(|&v| v as f64).collect::<Vec<_>>();
                let s64 = qr_sweep(&Bidiagonal::new(wide(&d), wide(&e))).unwrap();
                let bound = 2.0 * n as f64 * f32::EPSILON as f64;
                type Solve = fn(&Bidiagonal<f32>) -> Result<Vec<f32>, NoConvergence>;
                let routes: [(&str, Solve); 2] = [("QR sweep", qr_sweep), ("bdsqr", bdsqr)];
                for (route, solve) in routes {
                    let s32 = solve(&b32)
                        .unwrap_or_else(|err| panic!("{route} n={n} seed={seed}: {err}"));
                    for (i, (&a, &b)) in s32.iter().zip(&s64).enumerate() {
                        let rel = (a as f64 - b).abs() / b;
                        assert!(
                            rel <= bound,
                            "{route} n={n} seed={seed} σ[{i}]: rel {rel:e}"
                        );
                    }
                }
            }
        }
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
