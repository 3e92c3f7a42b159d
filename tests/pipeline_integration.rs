//! Cross-crate integration tests: the full two-stage pipeline against
//! independent oracles, across precisions, backends and hyperparameters.

use rand::{rngs::StdRng, Rng, SeedableRng};
use unisvd::reference::{matmul, sv_relative_error};
use unisvd::{
    hw, jacobi_svdvals, onestage_svdvals, svdvals, svdvals_with, Device, HyperParams, Matrix,
    PlanError, Scalar, Stage3Solver, SvDistribution, Svd, SvdConfig, SvdError, F16,
};

fn cfg(ts: usize) -> SvdConfig {
    SvdConfig {
        params: Some(HyperParams::new(ts, ts.min(32), 1)),
        fused: true,
        ..SvdConfig::default()
    }
}

#[test]
fn unified_matches_jacobi_on_random_matrices() {
    let mut rng = StdRng::seed_from_u64(1);
    let dev = Device::numeric(hw::h100());
    for n in [16usize, 48, 96] {
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let s_unified = svdvals(&a, &dev).unwrap();
        let s_jacobi = jacobi_svdvals(&a);
        for i in 0..n {
            assert!(
                (s_unified[i] - s_jacobi[i]).abs() < 1e-10 * (1.0 + s_jacobi[0]),
                "n={n} σ[{i}]: {} vs {}",
                s_unified[i],
                s_jacobi[i]
            );
        }
    }
}

#[test]
fn two_stage_matches_one_stage_reference() {
    let mut rng = StdRng::seed_from_u64(2);
    let dev = Device::numeric(hw::h100());
    let (a, _) =
        unisvd::testmat::test_matrix::<f64, _>(64, SvDistribution::QuarterCircle, false, &mut rng);
    let two_stage = svdvals(&a, &dev).unwrap();
    let one_stage = onestage_svdvals(&a).unwrap();
    for i in 0..64 {
        assert!((two_stage[i] - one_stage[i]).abs() < 1e-11);
    }
}

#[test]
fn all_precisions_within_table1_error_bands() {
    let mut rng = StdRng::seed_from_u64(3);
    let dev = Device::numeric(hw::h100());
    let (a, truth) =
        unisvd::testmat::test_matrix::<f64, _>(96, SvDistribution::Logarithmic, false, &mut rng);
    let e64 = sv_relative_error(&svdvals(&a, &dev).unwrap(), &truth);
    let e32 = sv_relative_error(&svdvals(&a.cast::<f32>(), &dev).unwrap(), &truth);
    let e16 = sv_relative_error(&svdvals(&a.cast::<F16>(), &dev).unwrap(), &truth);
    assert!(e64 < 1e-13, "FP64 {e64:.2e}");
    assert!(e32 < 1e-4, "FP32 {e32:.2e}");
    assert!(e16 < 3e-2, "FP16 {e16:.2e}");
    assert!(e16 > e32 && e32 > e64, "errors must order by precision");
}

#[test]
fn results_identical_across_backends() {
    // Same matrix, same hyperparameters, different simulated backends:
    // bit-identical singular values (the kernels are deterministic and
    // backend-independent; only the cost model differs).
    let mut rng = StdRng::seed_from_u64(4);
    let (a, _) =
        unisvd::testmat::test_matrix::<f32, _>(64, SvDistribution::Arithmetic, false, &mut rng);
    let c = cfg(16);
    let on_h100 = svdvals_with(&a, &Device::numeric(hw::h100()), &c)
        .unwrap()
        .values;
    let on_mi250 = svdvals_with(&a, &Device::numeric(hw::mi250()), &c)
        .unwrap()
        .values;
    let on_m1 = svdvals_with(&a, &Device::numeric(hw::m1_pro()), &c)
        .unwrap()
        .values;
    assert_eq!(on_h100, on_mi250);
    assert_eq!(on_h100, on_m1);
}

#[test]
fn hyperparameters_do_not_change_results() {
    // TILESIZE changes the dependency graph but not the values (up to
    // FP roundoff); SPLITK/COLPERBLOCK are purely computational (§3.2).
    let mut rng = StdRng::seed_from_u64(5);
    let (a, truth) =
        unisvd::testmat::test_matrix::<f64, _>(96, SvDistribution::Logarithmic, false, &mut rng);
    let dev = Device::numeric(hw::h100());
    for ts in [8usize, 16, 32] {
        for fused in [true, false] {
            let mut c = cfg(ts);
            c.fused = fused;
            let sv = svdvals_with(&a, &dev, &c).unwrap().values;
            let err = sv_relative_error(&sv, &truth);
            assert!(err < 1e-12, "ts={ts} fused={fused}: err {err:.2e}");
        }
    }
}

#[test]
fn orthogonal_invariance_property() {
    // σ(QA) = σ(A) for orthogonal Q — end-to-end invariance check.
    let mut rng = StdRng::seed_from_u64(6);
    let n = 48;
    let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
    let q = unisvd::testmat::haar_orthogonal(n, &mut rng);
    let qa = unisvd::reference::matmul(&q, &a);
    let dev = Device::numeric(hw::h100());
    let s1 = svdvals(&a, &dev).unwrap();
    let s2 = svdvals(&qa, &dev).unwrap();
    for i in 0..n {
        assert!(
            (s1[i] - s2[i]).abs() < 1e-11,
            "σ[{i}]: {} vs {}",
            s1[i],
            s2[i]
        );
    }
}

#[test]
fn frobenius_identity_end_to_end() {
    // Σσ² = ‖A‖²_F through the whole pipeline.
    let mut rng = StdRng::seed_from_u64(7);
    let a = unisvd::testmat::random_general::<f64, _>(80, 80, &mut rng);
    let dev = Device::numeric(hw::h100());
    let sv = svdvals(&a, &dev).unwrap();
    let sum_sq: f64 = sv.iter().map(|s| s * s).sum();
    let fro2 = a.fro_norm().powi(2);
    assert!(((sum_sq - fro2) / fro2).abs() < 1e-12);
}

#[test]
fn pathological_inputs() {
    let dev = Device::numeric(hw::h100());
    // Zero matrix.
    let z = Matrix::<f64>::zeros(32, 32);
    let sv = svdvals(&z, &dev).unwrap();
    assert!(sv.iter().all(|&s| s == 0.0));
    // Identity.
    let sv = svdvals(&Matrix::<f64>::identity(40), &dev).unwrap();
    assert!(sv.iter().all(|&s| (s - 1.0).abs() < 1e-12));
    // Rank-1.
    let r1 = Matrix::<f64>::from_fn(32, 32, |i, j| ((i + 1) * (j + 1)) as f64 * 1e-3);
    let sv = svdvals(&r1, &dev).unwrap();
    assert!(sv[1] < 1e-10 * sv[0], "rank-1 matrix must have one σ");
    // Highly graded matrix (entries spanning 12 orders of magnitude).
    let g = Matrix::<f64>::from_fn(24, 24, |i, j| {
        if i == j {
            10f64.powi(-(i as i32) / 2)
        } else if j == i + 1 {
            10f64.powi(-(i as i32) / 2) * 0.5
        } else {
            0.0
        }
    });
    let s1 = svdvals(&g, &dev).unwrap();
    let s2 = jacobi_svdvals(&g);
    for i in 0..12 {
        // Leading values to good relative accuracy.
        assert!(((s1[i] - s2[i]) / s2[i]).abs() < 1e-8, "graded σ[{i}]");
    }
}

#[test]
fn fp16_capacity_advantage_is_real_in_trace_mode() {
    // Fig. 5: the FP16 sweep reaches sizes FP32 cannot (memory capacity),
    // through the actual API (the probe admits, the cost query prices).
    let h100 = hw::h100();
    // 131072² in FP16 = 34 GB: fits; in FP32 = 69 GB + workspace: not.
    assert!(h100.fits((131072u64 * 131072) * 2));
    assert!(!h100.fits((131072u64 * 131072) * 4));
    let fp16 = Svd::on(&h100).precision::<F16>();
    assert_eq!(fp16.probe(131072, 131072).unwrap().padded, 131072);
    assert!(matches!(
        Svd::on(&h100).precision::<f32>().probe(131072, 131072),
        Err(PlanError::ExceedsDeviceMemory { .. })
    ));
    let s = fp16.cost(131072, 131072).unwrap();
    assert!(s.total_seconds() > 0.0);
}

/// Solves `a` in precision `T` under every stage-3 solver and checks each
/// value against `reference` within `tol · (1 + σ₁)`.
fn check_near_singular<T: Scalar>(name: &str, a: &Matrix<f64>, reference: &[f64], tol: f64) {
    let a = a.cast::<T>();
    let dev = Device::numeric(hw::h100());
    for solver in [
        Stage3Solver::Bdsqr,
        Stage3Solver::Dqds,
        Stage3Solver::Bisect,
    ] {
        let cfg = SvdConfig {
            solver,
            ..SvdConfig::default()
        };
        let got = svdvals_with(&a, &dev, &cfg)
            .unwrap_or_else(|e| panic!("{name} {:?} {solver:?}: {e}", T::KIND))
            .values;
        let scale = 1.0 + reference[0];
        for (i, (g, r)) in got.iter().zip(reference).enumerate() {
            assert!(
                (g - r).abs() <= tol * scale,
                "{name} {:?} {solver:?}: σ[{i}] = {g:e}, bisection {r:e}",
                T::KIND
            );
        }
    }
}

#[test]
fn wide_range_inputs_meet_the_normwise_contract() {
    // The 32×32 matrix with σ = 32…1 and entry (0,0) set to 1e200: σ₁ is
    // about 1e200, the rest about 30. No SVD that bidiagonalizes resolves
    // those better than ε·σ₁ in absolute terms, LAPACK's included, so the
    // contract is normwise: every value within n·ε·σ₁ of an f64 one-sided
    // Jacobi reference. Stage 3 sees a bidiagonal spanning 200 decades,
    // whose squares leave f64's range, so the contract also asks for no
    // zero left by an underflowed square and no false ValueOverflow.
    let n = 32;
    let svs: Vec<f64> = (1..=n).rev().map(|v| v as f64).collect();
    let mut base = unisvd::testmat::with_singular_values(&svs, &mut StdRng::seed_from_u64(5));
    base[(0, 0)] = 1e200;
    let scaled = |c: f64| Matrix::<f64>::from_fn(n, n, |i, j| base[(i, j)] * c);
    // Jacobi on a copy scaled by a power of two (exactly) to unit size.
    let reference = |a: &Matrix<f64>| {
        let p = 2f64.powi(-(a.max_abs().log2().round() as i32));
        let unit = Matrix::<f64>::from_fn(n, n, |i, j| a[(i, j)] * p);
        jacobi_svdvals(&unit)
            .into_iter()
            .map(|v| v / p)
            .collect::<Vec<_>>()
    };
    let dev = Device::numeric(hw::h100());
    let solvers = [
        Stage3Solver::Bdsqr,
        Stage3Solver::Dqds,
        Stage3Solver::Bisect,
    ];
    // The matrix itself rescaled by the pipeline, and scaled by 1e-200
    // with rescaling off: both put σ₂… 200 decades below σ₁ in stage 3.
    for (name, a, rescale) in [
        ("(0,0) = 1e200", scaled(1.0), true),
        ("scaled by 1e-200, rescale(false)", scaled(1e-200), false),
    ] {
        let want = reference(&a);
        let bound = n as f64 * f64::EPSILON * want[0];
        for solver in solvers {
            let cfg = SvdConfig {
                solver,
                rescale,
                ..SvdConfig::default()
            };
            let got = svdvals_with(&a, &dev, &cfg)
                .unwrap_or_else(|e| panic!("{name}, {solver:?}: {e}"))
                .values;
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let err = (g - w).abs();
                assert!(err <= bound, "{name}, {solver:?}: σ[{i}] off by {err:e}");
                assert!(*g > 0.0, "{name}, {solver:?}: σ[{i}] = {g}");
            }
        }
    }
    // Unscaled, stage 1's squared column norms (the paper's Algorithm 3)
    // overflow at 1e200: every solver reports the typed error, and none
    // returns values from the poisoned bidiagonal.
    for solver in solvers {
        let cfg = SvdConfig {
            solver,
            rescale: false,
            ..SvdConfig::default()
        };
        let res = svdvals_with(&base, &dev, &cfg);
        assert!(
            matches!(res, Err(SvdError::NoConvergence(_))),
            "{solver:?}: {res:?}"
        );
    }
}

#[test]
fn near_singular_inputs_converge_in_every_precision() {
    // Rank-deficient products and random upper-triangular matrices, whose
    // smallest singular values decay geometrically: their bidiagonals are
    // graded, the case that drives bdsqr's zero-shift sweeps toward
    // underflow in f32. Every solve must converge, in every precision and
    // under every solver, to the f64 bisection values within the
    // per-precision tolerance of the golden-value tests.
    let dev = Device::numeric(hw::h100());
    for n in [64usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut inputs: Vec<(String, Matrix<f64>)> = [1, 8, n / 2, n - 4]
            .into_iter()
            .map(|r| {
                let x = unisvd::testmat::random_general::<f64, _>(n, r, &mut rng);
                let y = unisvd::testmat::random_general::<f64, _>(r, n, &mut rng);
                let mut a = matmul(&x, &y);
                a.as_mut_slice()
                    .iter_mut()
                    .for_each(|v| *v /= (r as f64).sqrt());
                (format!("n={n} rank {r}"), a)
            })
            .collect();
        inputs.push((
            format!("n={n} upper triangular"),
            Matrix::from_fn(n, n, |i, j| {
                if j >= i {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            }),
        ));
        for (name, a) in &inputs {
            let cfg = SvdConfig {
                solver: Stage3Solver::Bisect,
                ..SvdConfig::default()
            };
            let reference = svdvals_with(a, &dev, &cfg).unwrap().values;
            check_near_singular::<f64>(name, a, &reference, 1e-10);
            check_near_singular::<f32>(name, a, &reference, 2e-4);
            check_near_singular::<F16>(name, a, &reference, 2e-2);
        }
    }
}
