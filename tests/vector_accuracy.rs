//! Singular-vector accuracy tests: orthogonality and reconstruction gates
//! for the accumulated `U` / `Vᵀ` factors, checked through the full
//! pipeline at every storage precision (f64 / f32 / F16) and with every
//! [`Stage3Solver`], mirroring `tests/golden_values.rs` for the vector
//! side of the output.
//!
//! Two gates per case:
//! - orthogonality: `‖UᵀU − I‖_max` and `‖Vᵀ(Vᵀ)ᵀ − I‖_max ≤ tol`
//! - reconstruction: `‖A − UΣVᵀ‖_max / (1 + σ₁) ≤ tol`

use unisvd::{hw, svdvals_with, Device, Matrix, Stage3Solver, SvdConfig, Want};
use unisvd_scalar::{Scalar, F16};

const SOLVERS: [Stage3Solver; 3] = [
    Stage3Solver::Bdsqr,
    Stage3Solver::Dqds,
    Stage3Solver::Bisect,
];

/// Per-precision tolerance. The replay itself runs in f64, but the
/// reflectors it replays and the bidiagonal whose vectors seed it were
/// produced in the working precision, so the factors inherit that
/// precision's accuracy —
/// the same scaling as the value tolerances in `golden_values.rs`.
fn tolerance(kind: unisvd_scalar::PrecisionKind) -> f64 {
    match kind {
        unisvd_scalar::PrecisionKind::Fp64 => 1e-10,
        unisvd_scalar::PrecisionKind::Fp32 => 2e-4,
        unisvd_scalar::PrecisionKind::Fp16 => 4e-2,
    }
}

/// `‖MᵀM − I‖_max`: orthonormality defect of the columns of `M`.
fn col_orthogonality(m: &Matrix<f64>) -> f64 {
    let k = m.cols();
    let mut worst = 0.0f64;
    for a in 0..k {
        for b in 0..k {
            let mut s = 0.0;
            for i in 0..m.rows() {
                s += m[(i, a)] * m[(i, b)];
            }
            let want = if a == b { 1.0 } else { 0.0 };
            worst = worst.max((s - want).abs());
        }
    }
    worst
}

/// `‖MMᵀ − I‖_max`: orthonormality defect of the rows of `M`.
fn row_orthogonality(m: &Matrix<f64>) -> f64 {
    let k = m.rows();
    let mut worst = 0.0f64;
    for a in 0..k {
        for b in 0..k {
            let mut s = 0.0;
            for j in 0..m.cols() {
                s += m[(a, j)] * m[(b, j)];
            }
            let want = if a == b { 1.0 } else { 0.0 };
            worst = worst.max((s - want).abs());
        }
    }
    worst
}

/// `‖A − UΣVᵀ‖_max` where `Σ = diag(values)`.
fn reconstruction_error(a: &Matrix<f64>, u: &Matrix<f64>, s: &[f64], vt: &Matrix<f64>) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            let mut x = 0.0;
            for (l, &sv) in s.iter().enumerate() {
                x += u[(i, l)] * sv * vt[(l, j)];
            }
            worst = worst.max((a[(i, j)] - x).abs());
        }
    }
    worst
}

/// Runs `a` (given in f64) through the pipeline in precision `T` with
/// thin vectors and every stage-3 solver, asserting both gates.
fn check_vectors<T: Scalar>(name: &str, a64: &Matrix<f64>) {
    let a: Matrix<T> = a64.cast();
    // The pipeline saw the *cast* operand; reconstruct against that, not
    // against the pre-cast f64 data (the cast itself is not the SVD's
    // error to answer for — it matters for F16).
    let seen: Matrix<f64> = a.cast();
    let dev = Device::numeric(hw::h100());
    let tol = tolerance(T::KIND);
    let mindim = a.rows().min(a.cols());
    for solver in SOLVERS {
        let cfg = SvdConfig {
            solver,
            vectors: Want::Thin,
            ..SvdConfig::default()
        };
        let out = svdvals_with(&a, &dev, &cfg)
            .unwrap_or_else(|e| panic!("{name}/{:?}/{solver:?} failed: {e}", T::KIND));
        let u = out.u.as_ref().expect("thin solve must produce U");
        let vt = out.vt.as_ref().expect("thin solve must produce Vᵀ");
        assert_eq!((u.rows(), u.cols()), (a.rows(), mindim), "{name}: U shape");
        assert_eq!(
            (vt.rows(), vt.cols()),
            (mindim, a.cols()),
            "{name}: Vᵀ shape"
        );
        let (ou, ov) = (col_orthogonality(u), row_orthogonality(vt));
        assert!(
            ou <= tol,
            "{name} {:?} {solver:?}: ‖UᵀU−I‖ = {ou:.3e} > {tol:.1e}",
            T::KIND
        );
        assert!(
            ov <= tol,
            "{name} {:?} {solver:?}: ‖VVᵀ−I‖ = {ov:.3e} > {tol:.1e}",
            T::KIND
        );
        let scale = 1.0 + out.values.first().copied().unwrap_or(0.0);
        let re = reconstruction_error(&seen, u, &out.values, vt) / scale;
        assert!(
            re <= tol,
            "{name} {:?} {solver:?}: ‖A−UΣVᵀ‖/(1+σ₁) = {re:.3e} > {tol:.1e}",
            T::KIND
        );
    }
}

fn check_all_precisions(name: &str, a64: &Matrix<f64>) {
    check_vectors::<f64>(name, a64);
    check_vectors::<f32>(name, a64);
    check_vectors::<F16>(name, a64);
}

#[test]
fn identity_matrix_vectors() {
    check_all_precisions("identity", &Matrix::<f64>::identity(32));
}

#[test]
fn diagonal_matrix_vectors() {
    let n = 24;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| if i == j { (n - i) as f64 } else { 0.0 });
    check_all_precisions("diag", &a);
}

#[test]
fn rank_one_matrix_vectors() {
    // Rank-deficient: the trailing n−1 singular values are exactly zero,
    // so their U/V columns are determined only up to orthogonal
    // completion — the gates check orthonormality and reconstruction,
    // which are exactly what remains well-defined.
    let n = 20;
    let u: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / n as f64).collect();
    let v: Vec<f64> = (0..n).map(|j| 1.0 - 0.4 * (j as f64 / n as f64)).collect();
    let a = Matrix::<f64>::from_fn(n, n, |i, j| u[i] * v[j]);
    check_all_precisions("rank1", &a);
}

#[test]
fn kahan_graded_matrix_vectors() {
    check_all_precisions("kahan", &unisvd::testmat::kahan(20, 0.285));
}

/// Rectangular shapes: Direct-with-padding (mildly rectangular), TallQr
/// (rows ≥ 2·cols) and WideQr (cols ≥ 2·rows) each assemble vectors
/// differently, so each gets its own gate run.
#[test]
fn rectangular_shapes_vectors() {
    let entry = |i: usize, j: usize| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.4;
    let mild = Matrix::<f64>::from_fn(24, 16, entry);
    let tall = Matrix::<f64>::from_fn(48, 16, entry);
    let wide = Matrix::<f64>::from_fn(16, 48, entry);
    check_vectors::<f64>("mild-rect", &mild);
    check_vectors::<f64>("tall", &tall);
    check_vectors::<f64>("wide", &wide);
    check_vectors::<f32>("tall-f32", &tall);
    check_vectors::<f32>("wide-f32", &wide);
}

/// Truncated mode: `TopK(k)` returns the k dominant triplets; the rank-k
/// reconstruction error is bounded by the first dropped singular value.
#[test]
fn truncated_topk_reconstruction() {
    let n = 24;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| {
        ((i * 13 + j * 7) % 19) as f64 / 19.0 + if i == j { 2.0 } else { 0.0 }
    });
    let dev = Device::numeric(hw::h100());
    // Full spectrum for the truncation bound.
    let full = svdvals_with(&a, &dev, &SvdConfig::default()).unwrap();
    for solver in SOLVERS {
        for k in [1, 3, 8] {
            let cfg = SvdConfig {
                solver,
                vectors: Want::TopK(k),
                ..SvdConfig::default()
            };
            let out = svdvals_with(&a, &dev, &cfg).unwrap();
            assert_eq!(out.values.len(), k, "{solver:?}/k={k}: value count");
            let u = out.u.as_ref().unwrap();
            let vt = out.vt.as_ref().unwrap();
            assert_eq!((u.rows(), u.cols()), (n, k));
            assert_eq!((vt.rows(), vt.cols()), (k, n));
            assert!(col_orthogonality(u) <= 1e-10, "{solver:?}/k={k}: U ortho");
            assert!(row_orthogonality(vt) <= 1e-10, "{solver:?}/k={k}: V ortho");
            // ‖A − U_k Σ_k V_kᵀ‖₂ = σ_{k+1}; allow slack for the max-norm
            // proxy and finite-precision values.
            let dropped = full.values[k];
            let re = reconstruction_error(&a, u, &out.values, vt);
            assert!(
                re <= dropped + 1e-9 * (1.0 + full.values[0]),
                "{solver:?}/k={k}: rank-k error {re:.3e} exceeds σ_{{k+1}} = {dropped:.3e}"
            );
        }
    }
}

/// `Want::None` must keep the output vector-free (and is the default).
#[test]
fn values_only_has_no_factors() {
    let a = Matrix::<f64>::identity(16);
    let dev = Device::numeric(hw::h100());
    let out = svdvals_with(&a, &dev, &SvdConfig::default()).unwrap();
    assert!(out.u.is_none() && out.vt.is_none());
}
