//! Golden-value accuracy tests: matrices with analytically known singular
//! values, checked through the full two-stage pipeline at every storage
//! precision (f64 / f32 / F16) and with every [`Stage3Solver`].
//!
//! Truth values are either closed-form (identity, diagonal, rank-1) or
//! the `reference::`-grade Jacobi oracle (Kahan-style graded matrix),
//! computed once in f64.

use unisvd::{hw, jacobi_svdvals, svdvals_with, Device, Matrix, Stage3Solver, SvdConfig};
use unisvd_scalar::{Scalar, F16};

const SOLVERS: [Stage3Solver; 3] = [
    Stage3Solver::Bdsqr,
    Stage3Solver::Dqds,
    Stage3Solver::Bisect,
];

/// Per-precision tolerance, relative to `1 + σ₁` (absolute for the tail
/// of tiny/zero singular values, relative for the dominant ones).
fn tolerance(kind: unisvd_scalar::PrecisionKind) -> f64 {
    match kind {
        unisvd_scalar::PrecisionKind::Fp64 => 1e-10,
        unisvd_scalar::PrecisionKind::Fp32 => 2e-4,
        unisvd_scalar::PrecisionKind::Fp16 => 2e-2,
    }
}

/// Runs `a` (given in f64) through the pipeline in precision `T` with
/// each stage-3 solver and compares against `truth` (descending).
fn check_golden<T: Scalar>(name: &str, a64: &Matrix<f64>, truth: &[f64]) {
    let a: Matrix<T> = a64.cast();
    let dev = Device::numeric(hw::h100());
    let tol = tolerance(T::KIND);
    let scale = 1.0 + truth.first().copied().unwrap_or(0.0);
    for solver in SOLVERS {
        let cfg = SvdConfig {
            solver,
            ..SvdConfig::default()
        };
        let out = svdvals_with(&a, &dev, &cfg)
            .unwrap_or_else(|e| panic!("{name}/{:?}/{solver:?} failed: {e}", T::KIND));
        assert_eq!(out.values.len(), truth.len(), "{name}/{solver:?}: length");
        for (i, (got, want)) in out.values.iter().zip(truth).enumerate() {
            assert!(
                (got - want).abs() <= tol * scale,
                "{name} {:?} {solver:?}: σ[{i}] = {got:.8e}, want {want:.8e} (tol {tol:.1e})",
                T::KIND
            );
        }
    }
}

fn check_all_precisions(name: &str, a64: &Matrix<f64>, truth: &[f64]) {
    check_golden::<f64>(name, a64, truth);
    check_golden::<f32>(name, a64, truth);
    check_golden::<F16>(name, a64, truth);
}

#[test]
fn identity_matrix() {
    let n = 32;
    let a = Matrix::<f64>::identity(n);
    let truth = vec![1.0; n];
    check_all_precisions("identity", &a, &truth);
}

#[test]
fn diagonal_matrix() {
    let n = 24;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| if i == j { (n - i) as f64 } else { 0.0 });
    let truth: Vec<f64> = (1..=n).rev().map(|k| k as f64).collect();
    check_all_precisions("diag", &a, &truth);
}

#[test]
fn rank_one_matrix() {
    // A = u vᵀ has exactly one nonzero singular value ‖u‖₂·‖v‖₂.
    let n = 20;
    let u: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / n as f64).collect();
    let v: Vec<f64> = (0..n).map(|j| 1.0 - 0.4 * (j as f64 / n as f64)).collect();
    let a = Matrix::<f64>::from_fn(n, n, |i, j| u[i] * v[j]);
    let nu = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nv = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut truth = vec![0.0; n];
    truth[0] = nu * nv;
    check_all_precisions("rank1", &a, &truth);
}

#[test]
fn kahan_graded_matrix() {
    // Kahan's graded matrix (see `testmat::kahan`): σ span several
    // magnitudes and the matrix is far from normal. Truth from the f64
    // Jacobi oracle.
    let a = unisvd::testmat::kahan(20, 0.285);
    let truth = jacobi_svdvals(&a);
    check_all_precisions("kahan", &a, &truth);
}

/// Streams a tall-skinny f64 operand through the out-of-core plan on a
/// device shrunk so the full operand does not fit, and compares against
/// `truth` at f64 tolerance.
fn check_out_of_core(name: &str, a: &Matrix<f64>, truth: &[f64]) {
    use unisvd::OutOfCore;
    let mut tiny = hw::rtx4060();
    tiny.memory_bytes = 24 * 1024;
    let tol = tolerance(unisvd_scalar::PrecisionKind::Fp64);
    let scale = 1.0 + truth.first().copied().unwrap_or(0.0);
    let mut plan = OutOfCore::on(&tiny)
        .precision::<f64>()
        .plan(a.rows(), a.cols())
        .unwrap_or_else(|e| panic!("{name}: planning failed: {e}"));
    let out = plan
        .execute(a)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    assert_eq!(out.values.len(), truth.len(), "{name}: length");
    for (i, (got, want)) in out.values.iter().zip(truth).enumerate() {
        assert!(
            (got - want).abs() <= tol * scale,
            "{name}: σ[{i}] = {got:.8e}, want {want:.8e} (tol {tol:.1e})"
        );
    }
}

#[test]
fn tall_skinny_rank_one_out_of_core() {
    // A = u vᵀ with a 2048-row u: exactly one nonzero singular value
    // ‖u‖₂·‖v‖₂, recovered through streaming and the inner plan's host
    // QR.
    let (m, n) = (2048, 12);
    let u: Vec<f64> = (0..m).map(|i| 1.0 + ((i * 7) % 13) as f64 / 13.0).collect();
    let v: Vec<f64> = (0..n).map(|j| 1.0 - 0.3 * (j as f64 / n as f64)).collect();
    let a = Matrix::<f64>::from_fn(m, n, |i, j| u[i] * v[j]);
    let nu = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nv = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut truth = vec![0.0; n];
    truth[0] = nu * nv;
    check_out_of_core("tall-rank1", &a, &truth);
}

#[test]
fn tall_skinny_kahan_out_of_core() {
    // Kahan's graded matrix embedded as the leading block of a tall
    // operand (zero rows below): the spectrum is exactly the block's, so
    // the graded, far-from-normal structure must survive streaming and
    // the inner plan's host QR. Truth from the f64 Jacobi oracle.
    let k = unisvd::testmat::kahan(16, 0.285);
    let truth = jacobi_svdvals(&k);
    let (m, n) = (1600, 16);
    let a = Matrix::<f64>::from_fn(m, n, |i, j| if i < n { k[(i, j)] } else { 0.0 });
    check_out_of_core("tall-kahan", &a, &truth);
}
