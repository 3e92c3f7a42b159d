//! Plan/execute API integration tests: plan-reuse bit-identity against
//! the one-shot path under several thread counts, plan-time enforcement
//! of the full Table 2 support matrix, and the full-output batched paths
//! (`SvdPlan::execute_batch`, and `SvdService::solve_batch` for mixed
//! shapes).

use rand::{rngs::StdRng, SeedableRng};
use unisvd::threading::ThreadPoolBuilder;
use unisvd::{
    hw, svdvals_with, testmat, Device, Matrix, PlanError, PrecisionKind, Scalar, SvDistribution,
    Svd, SvdConfig, SvdError, SvdService, F16,
};

const N: usize = 24;
const BATCH: usize = 9;

fn batch(seed: u64) -> Vec<Matrix<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..BATCH)
        .map(|_| testmat::test_matrix::<f32, _>(N, SvDistribution::Logarithmic, true, &mut rng).0)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// N sequential `execute` calls and one `execute_batch` must reproduce
/// the one-shot `svdvals_with` bit for bit, for 1/2/4-thread pools.
#[test]
fn plan_reuse_bit_identity_across_thread_counts() {
    let mats = batch(0x51AB);
    let cfg = SvdConfig::default();
    let reference: Vec<Vec<u64>> = mats
        .iter()
        .map(|a| {
            let dev = Device::numeric(hw::h100());
            bits(&svdvals_with(a, &dev, &cfg).unwrap().values)
        })
        .collect();

    for threads in [1usize, 2, 4] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut plan = Svd::on(&hw::h100())
                .precision::<f32>()
                .config(cfg)
                .plan(N, N)
                .unwrap();
            // Sequential reuse of one plan.
            for (a, want) in mats.iter().zip(&reference) {
                let got = bits(&plan.execute(a).unwrap().values);
                assert_eq!(
                    &got, want,
                    "sequential execute diverged at {threads} threads"
                );
            }
            // One batched call over the same plan.
            let batched = plan.execute_batch(&mats);
            for (res, want) in batched.iter().zip(&reference) {
                let got = bits(&res.as_ref().unwrap().values);
                assert_eq!(&got, want, "execute_batch diverged at {threads} threads");
            }
        });
    }
}

/// Every (backend, precision) pair of the paper's Table 2 support matrix
/// must be decided at plan time, and must agree with the hardware
/// descriptor's own capability check.
#[test]
fn plan_time_support_matrix_covers_table2() {
    fn check<T: Scalar>(hwd: &unisvd::HardwareDescriptor) {
        let planned = Svd::on(hwd).precision::<T>().plan(16, 16);
        match hwd.supports(T::KIND) {
            Ok(()) => assert!(planned.is_ok(), "{} should plan {:?}", hwd.name, T::KIND),
            Err(_) => assert!(
                matches!(planned, Err(PlanError::Unsupported(_))),
                "{} must reject {:?} at plan time",
                hwd.name,
                T::KIND
            ),
        }
    }
    for hwd in hw::all_platforms() {
        check::<F16>(&hwd);
        check::<f32>(&hwd);
        check::<f64>(&hwd);
    }
    // Spot-check the paper's headline gaps: no FP16 on AMD (Julia stack),
    // no FP64 on Metal.
    assert!(hw::mi250().supports(PrecisionKind::Fp16).is_err());
    assert!(hw::m1_pro().supports(PrecisionKind::Fp64).is_err());
}

/// `execute_batch` returns the full `SvdOutput` per matrix, with the
/// same values as one-at-a-time executes.
#[test]
fn batched_with_returns_full_outputs() {
    let mats = batch(777);
    let mut plan = Svd::on(&hw::h100()).precision::<f32>().plan(N, N).unwrap();
    let full = plan.execute_batch(&mats);
    assert_eq!(full.len(), mats.len());
    for (f, a) in full.iter().zip(&mats) {
        let out = f.as_ref().unwrap();
        assert_eq!(out.values, plan.execute(a).unwrap().values);
        // Every field is populated: n = 24 is below the tuned
        // TILESIZE=64, so the tile shrinks to 16 and the problem pads
        // to 32.
        assert_eq!(out.padded_n, 32);
        assert_eq!(out.params.tilesize, 16);
        assert!(out.summary.total_seconds() > 0.0);
    }
}

/// Mixed-shape batches go through the service, which groups them by
/// shape; each result is bit-identical to a one-shot solve.
#[test]
fn batched_with_mixed_shapes_falls_back() {
    let mut rng = StdRng::seed_from_u64(31337);
    let mats = vec![
        testmat::test_matrix::<f32, _>(16, SvDistribution::Arithmetic, false, &mut rng).0,
        testmat::test_matrix::<f32, _>(24, SvDistribution::Arithmetic, false, &mut rng).0,
    ];
    let outs = SvdService::new(&hw::h100()).solve_batch(&mats, &SvdConfig::default());
    assert_eq!(outs[0].as_ref().unwrap().values.len(), 16);
    assert_eq!(outs[1].as_ref().unwrap().values.len(), 24);
    for (a, out) in mats.iter().zip(&outs) {
        let dev = Device::numeric(hw::h100());
        assert_eq!(
            bits(&out.as_ref().unwrap().values),
            bits(&svdvals_with(a, &dev, &SvdConfig::default()).unwrap().values)
        );
    }
}

/// Unsupported batches report the error per matrix.
#[test]
fn batched_unsupported_reports_per_matrix() {
    let mats: Vec<Matrix<F16>> = (0..3).map(|_| Matrix::identity(8)).collect();
    let outs = SvdService::new(&hw::mi250()).solve_batch(&mats, &SvdConfig::default());
    assert_eq!(outs.len(), 3);
    for out in outs {
        assert!(matches!(out, Err(SvdError::Unsupported(_))));
    }
}

/// A plan rejects wrongly-shaped inputs with a typed error instead of
/// solving the wrong problem.
#[test]
fn execute_shape_mismatch_is_typed() {
    let mut plan = Svd::on(&hw::h100())
        .precision::<f64>()
        .plan(12, 12)
        .unwrap();
    let err = plan.execute(&Matrix::<f64>::identity(13)).unwrap_err();
    assert!(matches!(
        err,
        SvdError::ShapeMismatch {
            expected: (12, 12),
            got: (13, 13)
        }
    ));
    assert!(err.to_string().contains("planned for a 12x12 input"));
}

/// The error and config types print actionable summaries.
#[test]
fn config_and_errors_display() {
    let cfg = SvdConfig::default();
    assert_eq!(
        cfg.to_string(),
        "params=auto fused=true solver=Bdsqr rescale=true vectors=none"
    );
    let pinned = SvdConfig {
        params: Some(unisvd::HyperParams::new(8, 4, 1)),
        ..cfg
    };
    assert_eq!(
        pinned.to_string(),
        "params=[TILESIZE=8 COLPERBLOCK=4 SPLITK=1] fused=true solver=Bdsqr rescale=true vectors=none"
    );
    let err = Svd::on(&hw::m1_pro())
        .precision::<f64>()
        .plan(4, 4)
        .unwrap_err();
    assert!(err.to_string().contains("does not support"));
}

/// Non-square plans (tall via host QR, wide via transpose) match the
/// one-shot free function bit for bit when reused.
#[test]
fn nonsquare_plan_reuse_matches_one_shot() {
    let mut rng = StdRng::seed_from_u64(99);
    let (a10, _) = testmat::test_matrix::<f64, _>(10, SvDistribution::Arithmetic, false, &mut rng);
    let tall = Matrix::<f64>::from_fn(32, 10, |i, j| if i < 10 { a10[(i, j)] } else { 0.05 });
    let wide = tall.transposed();
    for m in [&tall, &wide] {
        let dev = Device::numeric(hw::h100());
        let want = bits(&svdvals_with(m, &dev, &SvdConfig::default()).unwrap().values);
        let mut plan = Svd::on(&hw::h100())
            .precision::<f64>()
            .plan(m.rows(), m.cols())
            .unwrap();
        for _ in 0..2 {
            assert_eq!(bits(&plan.execute(m).unwrap().values), want);
        }
    }
}
