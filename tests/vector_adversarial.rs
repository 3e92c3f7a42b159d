//! Adversarial singular-vector gates: inputs whose vectors are hard to
//! get right, run through the full pipeline under `Thin` and
//! `TopK(n/4)` at n ∈ {64, 128, 256} in f64, plus f32 at n = 128.
//!
//! * identity (every σ equal, the bidiagonal already diagonal);
//! * repeated σ (blocks of 8 equal values);
//! * clusters whose members differ by a relative 1e-10;
//! * rank 1 and rank n/2 (exact zero values, vectors fixed only up to
//!   an orthogonal completion);
//! * graded over ≥ 12 decades: Kahan's matrix and a 12-decade
//!   logarithmic spectrum.
//!
//! Each case asserts, with ε the storage precision's unit roundoff,
//!
//! * `‖UᵀU − I‖_max ≤ C·n·ε` and `‖VᵀV − I‖_max ≤ C·n·ε`;
//! * `‖AV − UΣ‖_max ≤ C·n·ε·σ₁`.
//!
//! `C` was measured on the stage-3 rotation replay (the implicit-QR
//! sweep's rotations applied to the accumulators, release build): its
//! worst case over this whole set was 0.33 for orthogonality (`kahan12`,
//! n = 64, V) and 0.14 for the residual (`clustered`, n = 64). `C = 1`
//! keeps a margin of about ×3 over the larger.

use rand::{rngs::StdRng, SeedableRng};
use unisvd::{hw, svdvals_with, testmat, Device, Matrix, Real, SvdConfig, Want};
use unisvd_scalar::Scalar;

/// The gates' constant (see the module docs).
const C: f64 = 1.0;

/// `‖MᵀM − I‖_max` over the columns of `M`.
fn col_orthogonality(m: &Matrix<f64>) -> f64 {
    let k = m.cols();
    let mut worst = 0.0f64;
    for a in 0..k {
        for b in a..k {
            let s: f64 = (0..m.rows()).map(|i| m[(i, a)] * m[(i, b)]).sum();
            let want = if a == b { 1.0 } else { 0.0 };
            worst = worst.max((s - want).abs());
        }
    }
    worst
}

/// `‖MMᵀ − I‖_max` over the rows of `M` (the columns of `V` for `M = Vᵀ`).
fn row_orthogonality(m: &Matrix<f64>) -> f64 {
    let k = m.rows();
    let mut worst = 0.0f64;
    for a in 0..k {
        for b in a..k {
            let s: f64 = (0..m.cols()).map(|j| m[(a, j)] * m[(b, j)]).sum();
            let want = if a == b { 1.0 } else { 0.0 };
            worst = worst.max((s - want).abs());
        }
    }
    worst
}

/// `‖AV − UΣ‖_max` with `V = (Vᵀ)ᵀ` and `Σ = diag(values)`.
fn residual(a: &Matrix<f64>, u: &Matrix<f64>, s: &[f64], vt: &Matrix<f64>) -> f64 {
    let mut worst = 0.0f64;
    for (l, &sv) in s.iter().enumerate() {
        for i in 0..a.rows() {
            let av: f64 = (0..a.cols()).map(|j| a[(i, j)] * vt[(l, j)]).sum();
            worst = worst.max((av - u[(i, l)] * sv).abs());
        }
    }
    worst
}

/// The input classes, each an `n × n` f64 matrix.
fn inputs(n: usize) -> Vec<(&'static str, Matrix<f64>)> {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let reflectors = (n / 8).clamp(16, 128);
    let mut with = |svs: &[f64]| testmat::with_singular_values_fast(svs, reflectors, &mut rng);
    let repeated: Vec<f64> = (0..n)
        .map(|i| 1.0 - 0.9 * (i / 8) as f64 / (n / 8) as f64)
        .collect();
    let clustered: Vec<f64> = (0..n)
        .map(|i| (1.0 - 0.9 * (i / 4) as f64 / (n / 4) as f64) * (1.0 - 1e-10 * (i % 4) as f64))
        .collect();
    let rank1: Vec<f64> = (0..n).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
    let half: Vec<f64> = (0..n)
        .map(|i| {
            if i < n / 2 {
                1.0 - i as f64 / n as f64
            } else {
                0.0
            }
        })
        .collect();
    let log12: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-12.0 * i as f64 / (n - 1) as f64))
        .collect();
    // Kahan's matrix with its diagonal graded over 12 decades:
    // s^(n−1) = 1e-12.
    let s = 10f64.powf(-12.0 / (n - 1) as f64);
    vec![
        ("identity", Matrix::identity(n)),
        ("repeated", with(&repeated)),
        ("clustered", with(&clustered)),
        ("rank1", with(&rank1)),
        ("rank-half", with(&half)),
        ("log12", with(&log12)),
        ("kahan12", testmat::kahan(n, (1.0 - s * s).sqrt())),
    ]
}

/// Runs every input class at order `n` in storage precision `T` under
/// `Thin` and `TopK(n/4)` and asserts the three gates.
fn check<T: Scalar>(n: usize) {
    let dev = Device::numeric(hw::h100());
    let eps = T::Accum::EPSILON.to_f64();
    for (name, a64) in inputs(n) {
        let a: Matrix<T> = a64.cast();
        // Gate against the operand the pipeline saw, not the pre-cast one.
        let seen: Matrix<f64> = a.cast();
        for want in [Want::Thin, Want::TopK(n / 4)] {
            let cfg = SvdConfig {
                vectors: want,
                ..SvdConfig::default()
            };
            let case = format!("{name} n={n} {:?} {want:?}", T::KIND);
            let out = svdvals_with(&a, &dev, &cfg).unwrap_or_else(|e| panic!("{case}: {e}"));
            let (u, vt) = (out.u.as_ref().unwrap(), out.vt.as_ref().unwrap());
            let k = want.columns(n);
            assert_eq!((u.cols(), vt.rows(), out.values.len()), (k, k, k), "{case}");
            let sigma1 = out.values[0];
            let (ou, ov) = (col_orthogonality(u), row_orthogonality(vt));
            let res = residual(&seen, u, &out.values, vt);
            let unit = n as f64 * eps;
            eprintln!(
                "{case}: ortho U {:.3} V {:.3}, residual {:.3} (units of n·ε[·σ₁])",
                ou / unit,
                ov / unit,
                res / (unit * sigma1)
            );
            assert!(ou <= C * unit, "{case}: ‖UᵀU−I‖ = {ou:.3e}");
            assert!(ov <= C * unit, "{case}: ‖VᵀV−I‖ = {ov:.3e}");
            assert!(
                res <= C * unit * sigma1,
                "{case}: ‖AV−UΣ‖ = {res:.3e}, σ₁ = {sigma1:.3e}"
            );
        }
    }
}

#[test]
fn adversarial_vectors_f64_n64() {
    check::<f64>(64);
}

#[test]
fn adversarial_vectors_f64_n128() {
    check::<f64>(128);
}

#[test]
fn adversarial_vectors_f64_n256() {
    check::<f64>(256);
}

#[test]
fn adversarial_vectors_f32_n128() {
    check::<f32>(128);
}
