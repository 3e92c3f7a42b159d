//! Host linear algebra: the Householder QR of tall and wide solves, and
//! the oracles that check the device path.
//!
//! [`householder_qr_into`] and [`apply_q_inplace`] are on the serving
//! path: a plan reduces every tall or wide input to its triangle `R` with
//! the first and lifts the device's vectors through `Q` with the second.
//! Both run on column slices with the chase's scale-safe reflector
//! generator and fixed-order dot product ([`crate::householder`]). The rest
//! ([`gemm`], [`form_q`], the error measures) is deliberately
//! straightforward — unblocked, indexed, one serial sum per entry — so
//! that it can serve as an independent oracle in tests.

use crate::dense::Matrix;
use crate::householder::{dot, larfg};
use unisvd_scalar::{Real, Scalar};

/// `C ← alpha * op(A) * op(B) + beta * C` with optional transposition.
///
/// # Panics
/// On inner/outer dimension mismatch.
pub fn gemm<R: Real + Scalar<Accum = R>>(
    alpha: R,
    a: &Matrix<R>,
    ta: bool,
    b: &Matrix<R>,
    tb: bool,
    beta: R,
    c: &mut Matrix<R>,
) {
    let (m, k1) = if ta {
        (a.cols(), a.rows())
    } else {
        (a.rows(), a.cols())
    };
    let (k2, n) = if tb {
        (b.cols(), b.rows())
    } else {
        (b.rows(), b.cols())
    };
    assert_eq!(k1, k2, "gemm inner dimension mismatch");
    assert_eq!(c.rows(), m, "gemm output row mismatch");
    assert_eq!(c.cols(), n, "gemm output col mismatch");

    let at = |i: usize, l: usize| if ta { a[(l, i)] } else { a[(i, l)] };
    let bt = |l: usize, j: usize| if tb { b[(j, l)] } else { b[(l, j)] };

    for j in 0..n {
        for i in 0..m {
            let mut s = R::ZERO;
            for l in 0..k1 {
                s += at(i, l) * bt(l, j);
            }
            let cij = c[(i, j)];
            c[(i, j)] = alpha * s + beta * cij;
        }
    }
}

/// Convenience product `A * B`.
pub fn matmul<R: Real + Scalar<Accum = R>>(a: &Matrix<R>, b: &Matrix<R>) -> Matrix<R> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(R::ONE, a, false, b, false, R::ZERO, &mut c);
    c
}

/// Unblocked Householder QR (LAPACK `geqr2`-style), in place.
///
/// On return, the upper triangle of `a` holds `R` and the strict lower
/// triangle holds the Householder vectors (unit diagonal implicit); the
/// returned `tau[k]` are the reflector coefficients `H_k = I − τ v vᵀ`.
pub fn householder_qr<R: Real + Scalar<Accum = R>>(a: &mut Matrix<R>) -> Vec<R> {
    let mut tau = Vec::new();
    householder_qr_into(a, &mut tau);
    tau
}

/// [`householder_qr`] writing the reflector coefficients into an existing
/// vector (cleared and refilled; capacity is kept) — the steady-state
/// path of a reused plan that retains the factorisation for later
/// `Q`-application, without allocating per solve.
///
/// Column `k`'s reflector comes from [`larfg`], so a zero tail gives
/// `τ = 0` and leaves the column as it is, and no entry is squared
/// unscaled: `R(2ᵏ·A) = 2ᵏ·R(A)` with the same `τ` and reflector tails
/// wherever no entry is subnormal. Each trailing column `c` then takes
/// `s = τ·(c[k] + v·c[k+1..])`, `c[k] −= s`, `c[k+1..] −= s·v`, with the
/// fixed-order [`dot`].
pub fn householder_qr_into<R: Real + Scalar<Accum = R>>(a: &mut Matrix<R>, tau: &mut Vec<R>) {
    let m = a.rows();
    let kmax = m.min(a.cols());
    tau.clear();
    tau.resize(kmax, R::ZERO);
    let a = a.as_mut_slice();
    for k in 0..kmax {
        let (left, trailing) = a.split_at_mut((k + 1) * m);
        let col = &mut left[k * m..];
        let t = larfg(col, k, 1, m - k);
        tau[k] = t;
        if t != R::ZERO {
            apply_reflector(t, &col[k + 1..], k, trailing.chunks_exact_mut(m));
        }
    }
}

/// `c ← (I − τ·[1; v]·[1; v]ᵀ)·c` on rows `k..` of each column `c` (the
/// chase's left-reflector form).
fn apply_reflector<'a, R: Real + 'a>(
    t: R,
    v: &[R],
    k: usize,
    cols: impl Iterator<Item = &'a mut [R]>,
) {
    for c in cols {
        let (head, tail) = c[k..].split_first_mut().expect("k < m");
        let s = t * (*head + dot(v, tail));
        *head -= s;
        for (y, &vi) in tail.iter_mut().zip(v) {
            *y -= s * vi;
        }
    }
}

/// Applies the orthogonal factor of [`householder_qr`] to a dense
/// column-major block in place: `w ← Q·w`, where `w` is `m × k` flat
/// column-major and `qr`/`tau` are the retained factorisation of an
/// `m × n` matrix (flat column-major `qr`, leading dimension `m`). It
/// applies [`form_q`]'s reflectors in [`householder_qr_into`]'s update
/// form to `w`'s columns instead of the identity — used by the tall/wide
/// singular-vector assembly to lift device-frame vectors through the host
/// QR without forming `Q`.
pub fn apply_q_inplace<R: Real + Scalar<Accum = R>>(
    qr: &[R],
    tau: &[R],
    m: usize,
    w: &mut [R],
    k: usize,
) {
    assert_eq!(w.len(), m * k, "w must be m × k column-major");
    // Q = H_0 H_1 … H_{kmax-1}; apply from the last reflector backwards.
    for (kr, &t) in tau.iter().enumerate().rev() {
        if t != R::ZERO {
            let v = &qr[kr * m + kr + 1..(kr + 1) * m];
            apply_reflector(t, v, kr, w.chunks_exact_mut(m));
        }
    }
}

/// Forms the explicit orthogonal factor `Q` (m × m) from the output of
/// [`householder_qr`].
pub fn form_q<R: Real + Scalar<Accum = R>>(qr: &Matrix<R>, tau: &[R]) -> Matrix<R> {
    let m = qr.rows();
    let kmax = tau.len();
    let mut q = Matrix::identity(m);
    // Q = H_0 H_1 … H_{k-1}; apply from the last reflector backwards.
    for k in (0..kmax).rev() {
        let t = tau[k];
        if t == R::ZERO {
            continue;
        }
        for j in 0..m {
            let mut s = q[(k, j)];
            for i in (k + 1)..m {
                s += qr[(i, k)] * q[(i, j)];
            }
            s *= t;
            let qkj = q[(k, j)];
            q[(k, j)] = qkj - s;
            for i in (k + 1)..m {
                let v = q[(i, j)] - s * qr[(i, k)];
                q[(i, j)] = v;
            }
        }
    }
    q
}

/// `max |a - b|` over all entries, in `f64`.
pub fn max_abs_diff<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> f64 {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    let mut m = 0.0f64;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            m = m.max((a[(i, j)].to_f64() - b[(i, j)].to_f64()).abs());
        }
    }
    m
}

/// `‖QᵀQ − I‖_max` — orthogonality defect of `Q`.
pub fn orthogonality_error<R: Real + Scalar<Accum = R>>(q: &Matrix<R>) -> f64 {
    let mut qtq = Matrix::zeros(q.cols(), q.cols());
    gemm(R::ONE, q, true, q, false, R::ZERO, &mut qtq);
    max_abs_diff(&qtq, &Matrix::identity(q.cols()))
}

/// Relative Frobenius-norm distance between two descending-sorted singular
/// value vectors: `‖σ_a − σ_b‖_F / ‖σ_b‖_F` — the error measure of Table 1.
pub fn sv_relative_error(computed: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(computed.len(), truth.len(), "singular value count mismatch");
    let num: f64 = computed
        .iter()
        .zip(truth)
        .map(|(&c, &t)| (c - t) * (c - t))
        .sum::<f64>()
        .sqrt();
    let den: f64 = truth.iter().map(|&t| t * t).sum::<f64>().sqrt();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, v: &[f64]) -> Matrix<f64> {
        // Row-major input for readability; convert to column-major.
        Matrix::from_fn(rows, cols, |i, j| v[i * cols + j])
    }

    #[test]
    fn gemm_small_known() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn gemm_transpose_options() {
        let a = mat(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // AᵀA is symmetric 2×2.
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, true, &a, false, 0.0, &mut c);
        assert_eq!(c[(0, 0)], 35.0);
        assert_eq!(c[(0, 1)], 44.0);
        assert_eq!(c[(1, 0)], 44.0);
        assert_eq!(c[(1, 1)], 56.0);
        // beta accumulation.
        let mut c2 = Matrix::identity(2);
        gemm(2.0, &a, true, &a, false, 10.0, &mut c2);
        assert_eq!(c2[(0, 0)], 2.0 * 35.0 + 10.0);
        assert_eq!(c2[(1, 0)], 2.0 * 44.0);
    }

    #[test]
    fn qr_reconstructs_matrix() {
        let a = mat(
            4,
            3,
            &[
                4.0, 1.0, -2.0, 1.0, 3.0, 0.5, -2.0, 7.0, 1.5, 0.25, -1.0, 2.0,
            ],
        );
        let mut qr = a.clone();
        let tau = householder_qr(&mut qr);
        let q = form_q(&qr, &tau);
        // R = upper triangle of qr (4×3, zero below diagonal).
        let r = Matrix::from_fn(4, 3, |i, j| if i <= j { qr[(i, j)] } else { 0.0 });
        let qa = matmul(&q, &r);
        assert!(max_abs_diff(&qa, &a) < 1e-12, "QR must reconstruct A");
        assert!(orthogonality_error(&q) < 1e-12, "Q must be orthogonal");
    }

    #[test]
    fn qr_handles_zero_column_tail() {
        // Column already zero below diagonal: tau = 0, no-op reflector.
        let a = Matrix::<f64>::from_fn(3, 3, |i, j| if i <= j { (i + j + 1) as f64 } else { 0.0 });
        let mut qr = a.clone();
        let tau = householder_qr(&mut qr);
        assert_eq!(tau, vec![0.0, 0.0, 0.0]);
        assert!(max_abs_diff(&qr, &a) < 1e-15);
    }

    #[test]
    fn qr_r_diagonal_sign_convention() {
        // beta = -sign(a_kk)·‖x‖: diagonal of R gets the opposite sign of
        // the leading entry, matching LAPACK.
        let mut a = mat(2, 2, &[3.0, 0.0, 4.0, 5.0]);
        let tau = householder_qr(&mut a);
        assert!((a[(0, 0)].abs() - 5.0).abs() < 1e-14);
        assert!(a[(0, 0)] < 0.0); // leading entry was +3 → beta negative
        assert!(tau[0] > 0.0 && tau[0] <= 2.0);
    }

    fn tall(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        crate::testmat::random_general(m, n, &mut rng)
    }

    /// `larfg` never squares an unscaled entry, so scaling `A` by a power
    /// of two scales `R` by it exactly and leaves `τ` and the reflector
    /// tails bit for bit as they were — also where the unscaled squares
    /// would overflow (2¹⁰⁰⁰) or lose every digit (2⁻¹⁰⁰⁰).
    #[test]
    fn qr_is_bitwise_scale_equivariant() {
        let a = tall(1024, 64, 7);
        let mut qr = a.clone();
        let tau = householder_qr(&mut qr);
        for k in [-1000, -600, -300, 300, 600, 1000] {
            let c = 2f64.powi(k);
            let mut qrc = Matrix::from_fn(1024, 64, |i, j| a[(i, j)] * c);
            let tauc = householder_qr(&mut qrc);
            let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tauc), bits(&tau), "k = {k}: τ moved");
            for j in 0..64 {
                for i in 0..1024 {
                    let want = if i <= j { qr[(i, j)] * c } else { qr[(i, j)] };
                    assert_eq!(qrc[(i, j)].to_bits(), want.to_bits(), "k = {k}: ({i}, {j})");
                }
            }
        }
    }

    /// `Q·R = A` and `QᵀQ = I` at the serving shape 1024 × 64, with the
    /// thin `Q` lifted through `apply_q_inplace`.
    #[test]
    fn tall_qr_reconstructs_and_is_orthogonal() {
        let (m, n) = (1024, 64);
        let a = tall(m, n, 11);
        let mut qr = a.clone();
        let tau = householder_qr(&mut qr);
        let mut q = Matrix::<f64>::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        apply_q_inplace(qr.as_slice(), &tau, m, q.as_mut_slice(), n);
        let r = Matrix::from_fn(n, n, |i, j| if i <= j { qr[(i, j)] } else { 0.0 });
        let tol = m as f64 * f64::EPSILON;
        assert!(max_abs_diff(&matmul(&q, &r), &a) <= tol * a.fro_norm());
        assert!(orthogonality_error(&q) <= tol);
    }

    /// The serving path's `Q·W` against the independent oracle
    /// `form_q(qr, τ)·W`, on a tall and a wide factorisation.
    #[test]
    fn apply_q_matches_form_q() {
        for (m, n, k) in [(200, 30, 7), (40, 90, 5)] {
            let mut qr = tall(m, n, 3);
            let tau = householder_qr(&mut qr);
            let w = tall(m, k, 4);
            let want = matmul(&form_q(&qr, &tau), &w);
            let mut got = w.clone();
            apply_q_inplace(qr.as_slice(), &tau, m, got.as_mut_slice(), k);
            let tol = m as f64 * f64::EPSILON * w.max_abs();
            assert!(max_abs_diff(&got, &want) <= tol, "{m} × {n}");
        }
    }

    /// A zero column below earlier nonzero ones: its reflector is the
    /// identity (τ = 0) and the column stays zero.
    #[test]
    fn qr_zero_column_gives_identity_reflector() {
        let mut a = tall(50, 8, 5);
        for i in 0..50 {
            a[(i, 3)] = 0.0;
        }
        let tau = householder_qr(&mut a);
        assert_eq!(tau[3], 0.0);
        assert!((0..50).all(|i| a[(i, 3)] == 0.0));
        assert!(tau.iter().enumerate().all(|(k, &t)| k == 3 || t > 0.0));
    }

    #[test]
    fn sv_relative_error_basics() {
        assert_eq!(sv_relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = sv_relative_error(&[1.1, 2.0], &[1.0, 2.0]);
        assert!((e - 0.1 / 5.0f64.sqrt()).abs() < 1e-15);
        assert_eq!(sv_relative_error(&[0.5], &[0.0]), 0.5); // zero truth guard
    }
}
