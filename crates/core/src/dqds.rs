//! dqds — the differential quotient-difference algorithm with shifts
//! (Fernando & Parlett; LAPACK's `xLASQ` family), the third independent
//! bidiagonal singular value solver of this workspace.
//!
//! dqds iterates on the *squared* quantities `q_k = d_k²`, `e_k` (squared
//! superdiagonal) of the Cholesky-factored tridiagonal `BᵀB`, applying the
//! shifted transform
//!
//! ```text
//! t = q[0] − τ
//! for k in 0..n-1:
//!     q̂[k] = t + e[k]
//!     r    = q[k+1] / q̂[k]
//!     ê[k] = e[k] · r
//!     t    = t · r − τ
//! q̂[n-1] = t
//! ```
//!
//! which is backward-stable in a strong componentwise sense and never
//! subtracts two computed quantities (high relative accuracy for all
//! singular values). Shifts are accepted only when they keep the
//! transform positive (a rejected shift is retried smaller — the
//! safeguarded strategy of `dlasq`, simplified); the zero-shift `dqd`
//! transform is always safe and serves as the fallback.
//!
//! **Singular vectors.** A vector solve needs nothing from the solver
//! but its values: they are the shifts of the inverse iteration that
//! computes the bidiagonal's singular vectors (the `bidiag_vectors`
//! module), so dqds, bisection and `bdsqr` each feed in their own.

use unisvd_matrix::Bidiagonal;
use unisvd_scalar::Real;

use crate::bidiag_svd::{NoConvergence, Stage3Workspace};

/// Maximum dqds iterations per singular value.
const MAXITER_PER_SV: usize = 40;

/// One shifted dqds transform. Returns `Err(())` if the shift makes an
/// intermediate negative (shift too aggressive — caller retries smaller).
fn dqds_step<R: Real>(q: &[R], e: &[R], qh: &mut [R], eh: &mut [R], tau: R) -> Result<(), ()> {
    let n = q.len();
    debug_assert_eq!(e.len(), n - 1);
    let mut t = q[0] - tau;
    for k in 0..n - 1 {
        if t < R::ZERO {
            return Err(());
        }
        qh[k] = t + e[k];
        if qh[k] == R::ZERO {
            return Err(()); // would divide by zero: reject the shift
        }
        let r = q[k + 1] / qh[k];
        eh[k] = e[k] * r;
        t = t * r - tau;
    }
    if t < R::ZERO {
        return Err(());
    }
    qh[n - 1] = t;
    Ok(())
}

/// Singular values of an upper bidiagonal matrix by dqds, descending.
///
/// Cross-validated in tests against [`crate::bdsqr`] and
/// [`crate::bisect`]; preferred when high relative accuracy of *small*
/// singular values matters (its transforms are subtraction-free).
pub fn dqds<R: Real>(bi: &Bidiagonal<R>) -> Result<Vec<R>, NoConvergence> {
    let mut ws = Stage3Workspace::default();
    dqds_into(bi, &mut ws)?;
    Ok(ws.out)
}

/// [`dqds`] against a reusable [`Stage3Workspace`]: the squared working
/// arrays `q`/`e` and the hat arrays `q̂`/`ê` reuse the workspace vectors
/// instead of allocating per solve. On success the values are in
/// [`Stage3Workspace::values`], descending.
///
/// Interior splits (an exactly decoupled block inside the active window)
/// are handled in place: the outer window is suspended on a small
/// workspace-resident stack while the decoupled tail converges, so even
/// splitting solves are allocation-free after workspace warmup.
pub fn dqds_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
) -> Result<(), NoConvergence> {
    let n = bi.n();
    ws.out.clear();
    if n == 0 {
        return Ok(());
    }
    if n == 1 {
        ws.out.push(bi.d[0].abs());
        return Ok(());
    }

    // Squared, nonnegative working arrays (signs of d/e do not affect σ).
    ws.d.clear();
    ws.d.extend(bi.d.iter().map(|&x| x * x));
    ws.e.clear();
    ws.e.extend(bi.e.iter().map(|&x| x * x));
    ws.qh.clear();
    ws.qh.resize(n, R::ZERO);
    ws.eh.clear();
    ws.eh.resize(n - 1, R::ZERO);
    ws.split_stack.clear();
    let Stage3Workspace {
        d: q,
        e,
        qh,
        eh,
        split_stack,
        out,
    } = ws;

    let scale: R = q
        .iter()
        .chain(e.iter())
        .fold(R::ZERO, |m, &x| m.max(x))
        .max(R::MIN_POSITIVE);
    let tol = R::EPSILON * R::EPSILON * R::from_f64(4.0);

    let mut shift_acc = R::ZERO; // accumulated shifts for the active block
    let mut lo = 0; // active block is q[lo..=hi]
    let mut hi = n - 1;
    let mut budget = MAXITER_PER_SV * n * 2;

    loop {
        if budget == 0 {
            return Err(NoConvergence {
                remaining: hi + 1 - lo,
            });
        }
        budget -= 1;

        // Deflate converged trailing values: e[hi-1] negligible relative
        // to its neighbours (componentwise criterion).
        while hi > lo && e[hi - 1] <= tol * (q[hi] + q[hi - 1]).max(tol * scale) {
            out.push(q[hi] + shift_acc);
            hi -= 1;
        }
        if hi == lo {
            out.push(q[lo] + shift_acc);
            // Resume the suspended outer window, if any (innermost first).
            match split_stack.pop() {
                Some((outer_lo, outer_hi, outer_shift)) => {
                    lo = outer_lo;
                    hi = outer_hi;
                    shift_acc = outer_shift;
                    continue;
                }
                None => break,
            }
        }

        // Also split at interior negligible couplings: suspend the outer
        // window [lo ..= split] on the stack and converge the decoupled
        // tail [split+1 ..= hi] in place — no recursion, no allocation
        // beyond the warmed stack.
        if let Some(split) = (lo..hi)
            .rev()
            .find(|&k| e[k] <= tol * (q[k] + q[k + 1]).max(tol * scale))
        {
            split_stack.push((lo, split, shift_acc));
            lo = split + 1;
            continue;
        }

        // Shift: a safe fraction of the smallest-eigenvalue estimate of
        // the trailing 2×2 of the active block.
        let a = q[hi - 1] + e[hi - 1];
        let c = q[hi];
        let b2 = q[hi] * e[hi - 1];
        let tr_half = (a + c) * R::HALF;
        let det = a * c - b2;
        let disc = (tr_half * tr_half - det).max(R::ZERO).sqrt();
        let lam_min = (tr_half - disc).max(R::ZERO);
        let mut tau = lam_min * R::from_f64(0.98);

        // Safeguarded application: halve the shift until accepted, with
        // the zero-shift dqd as the final fallback (always succeeds on
        // positive data).
        let mut applied = false;
        for _ in 0..3 {
            if dqds_step(
                &q[lo..=hi],
                &e[lo..hi],
                &mut qh[lo..=hi],
                &mut eh[lo..hi],
                tau,
            )
            .is_ok()
            {
                applied = true;
                break;
            }
            tau *= R::HALF;
        }
        if !applied {
            tau = R::ZERO;
            dqds_step(
                &q[lo..=hi],
                &e[lo..hi],
                &mut qh[lo..=hi],
                &mut eh[lo..hi],
                R::ZERO,
            )
            .expect("zero-shift dqd cannot fail on nonnegative data");
        }
        shift_acc += tau;
        q[lo..=hi].copy_from_slice(&qh[lo..=hi]);
        e[lo..hi].copy_from_slice(&eh[lo..hi]);
    }

    for v in out.iter_mut() {
        *v = v.max(R::ZERO).sqrt();
    }
    out.sort_unstable_by(|a, b| b.to_f64().total_cmp(&a.to_f64()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidiag_svd::{bdsqr, bisect};

    fn bi(d: &[f64], e: &[f64]) -> Bidiagonal<f64> {
        Bidiagonal::new(d.to_vec(), e.to_vec())
    }

    #[test]
    fn diagonal_exact() {
        let b = bi(&[3.0, -1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(dqds(&b).unwrap(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn golden_ratio_2x2() {
        let b = bi(&[1.0, 1.0], &[1.0]);
        let phi = (1.0 + 5.0f64.sqrt()) / 2.0;
        let sv = dqds(&b).unwrap();
        assert!((sv[0] - phi).abs() < 1e-13, "σ₁ = {}", sv[0]);
        assert!((sv[1] - 1.0 / phi).abs() < 1e-13);
    }

    #[test]
    fn agrees_with_bdsqr_and_bisect_on_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for n in [2usize, 3, 7, 16, 40, 100] {
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = bi(&d, &e);
            let s_dqds = dqds(&b).unwrap();
            let s_qr = bdsqr(&b).unwrap();
            let s_bis = bisect(&b);
            for i in 0..n {
                assert!(
                    (s_dqds[i] - s_bis[i]).abs() < 1e-9 * (1.0 + s_bis[0]),
                    "n={n} σ[{i}]: dqds {} vs bisect {}",
                    s_dqds[i],
                    s_bis[i]
                );
                assert!((s_dqds[i] - s_qr[i]).abs() < 1e-9 * (1.0 + s_qr[0]));
            }
        }
    }

    #[test]
    fn high_relative_accuracy_on_graded_matrix() {
        // dqds's raison d'être: tiny σ to high *relative* accuracy.
        // Reference: the Demmel–Kahan zero-shift path of bdsqr, which also
        // preserves relative accuracy (bisection only gives ~2e-16
        // *absolute* accuracy, useless as a relative oracle at 1e-10).
        let b = bi(&[1.0, 1e-5, 1e-10, 1e-15], &[0.5, 0.5e-5, 0.5e-10]);
        let s = dqds(&b).unwrap();
        let s_ref = bdsqr(&b).unwrap();
        for i in 0..4 {
            let rel = ((s[i] - s_ref[i]) / s_ref[i].max(1e-300)).abs();
            assert!(
                rel < 1e-12,
                "σ[{i}] rel err {rel:.2e}: {} vs {}",
                s[i],
                s_ref[i]
            );
        }
        // Bisection still agrees in the absolute sense.
        let s_bis = bisect(&b);
        for i in 0..4 {
            assert!((s[i] - s_bis[i]).abs() < 1e-14);
        }
        // The smallest value is genuinely tiny, not absorbed to zero.
        assert!(s[3] > 1e-17 && s[3] < 1e-13);
    }

    #[test]
    fn zero_diagonal_and_splits() {
        let b = bi(&[0.0, 2.0, 0.0, 1.0, 3.0], &[1.0, 0.0, 1.0, 0.5]);
        let s1 = dqds(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..5 {
            assert!(
                (s1[i] - s2[i]).abs() < 1e-10,
                "σ[{i}]: {} vs {}",
                s1[i],
                s2[i]
            );
        }
    }

    #[test]
    fn frobenius_identity() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 64;
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b = bi(&d, &e);
        let sv = dqds(&b).unwrap();
        let sum: f64 = sv.iter().map(|s| s * s).sum();
        let fro2 = b.fro_norm().powi(2);
        assert!(((sum - fro2) / fro2).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(dqds(&bi(&[], &[])).unwrap().is_empty());
        assert_eq!(dqds(&bi(&[-7.0], &[])).unwrap(), vec![7.0]);
    }

    #[test]
    fn f32_path() {
        let b = Bidiagonal::new(vec![1.0f32, 0.5, 0.25], vec![0.1, 0.1]);
        let s1 = dqds(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..3 {
            assert!((s1[i] - s2[i]).abs() < 1e-5);
        }
    }
}
