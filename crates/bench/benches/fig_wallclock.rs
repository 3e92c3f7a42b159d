//! `fig_wallclock` — **host** wall-clock of the zero-allocation fast
//! path (not simulated device seconds; those are covered by
//! `fig_plan_reuse` / `fig_service_throughput`).
//!
//! Three measurements, all recorded to `$BENCH_JSON` (CI uploads
//! `BENCH_wall.json` as the wall-clock baseline future PRs regress
//! against):
//!
//! 1. **Householder stage-2 chase vs the elementwise Givens reference.**
//!    The bulge chase dominates host wall time of a values-only solve.
//!    The Givens chase it replaced, with its rotations through
//!    element-at-a-time `get`/`set`, is frozen here as a reference (public
//!    `BandMatrix` API only). The two chases produce different bidiagonals
//!    of the same band, so the gate compares their `bdsqr` values within
//!    the f32 tolerance of `tests/golden_values.rs`, and the Householder
//!    chase is **asserted ≥ 1.5× faster** than the reference.
//! 2. **Steady-state plan reuse vs per-solve cold start** (plan + first
//!    execute per matrix): the end-to-end repeated-solve workload, with
//!    the steady path running `execute_into` against a reused output
//!    shell (zero allocations once warm — see `tests/alloc_budget.rs`).
//! 3. **Warm vs cache-disabled `SvdService`** on a mixed-shape fleet,
//!    with the warm service prewarmed from a signature trace
//!    (`SvdService::warm`).
//!
//! Correctness gates run before any timing: the two chases' values must
//! agree, and warm serving must equal cold serving bit for bit.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;
use unisvd_core::band2bi::work_band_geometry;
use unisvd_core::bidiag_svd::givens;
use unisvd_core::{band_to_bidiagonal, bdsqr, Svd, SvdConfig, SvdOutput};
use unisvd_gpu::hw::h100;
use unisvd_gpu::Device;
use unisvd_matrix::{testmat, BandMatrix, Matrix, SvDistribution};
use unisvd_scalar::PrecisionKind;
use unisvd_service::SvdService;

/// Median wall seconds of `reps` runs of `f`.
fn median_wall(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

// --- frozen elementwise Givens chase reference (public BandMatrix API) --

fn ref_rotate_cols(b: &mut BandMatrix<f32>, j1: usize, j2: usize, c: f32, s: f32, zi: usize) {
    let n = b.n();
    let lo = j1.saturating_sub(b.sup());
    let hi = (j2 + b.sub()).min(n - 1);
    for i in lo..=hi {
        let (in1, in2) = (b.in_band(i, j1), b.in_band(i, j2));
        if !in1 && !in2 {
            continue;
        }
        let f = b.get(i, j1);
        let g = b.get(i, j2);
        if f == 0.0 && g == 0.0 {
            continue;
        }
        let nf = c * f + s * g;
        let ng = -s * f + c * g;
        if in1 {
            b.set(i, j1, nf);
        }
        if in2 {
            b.set(i, j2, if i == zi { 0.0 } else { ng });
        }
    }
}

fn ref_rotate_rows(b: &mut BandMatrix<f32>, i1: usize, i2: usize, c: f32, s: f32, zj: usize) {
    let n = b.n();
    let lo = i1.saturating_sub(b.sub());
    let hi = (i2 + b.sup()).min(n - 1);
    for j in lo..=hi {
        let (in1, in2) = (b.in_band(i1, j), b.in_band(i2, j));
        if !in1 && !in2 {
            continue;
        }
        let f = b.get(i1, j);
        let g = b.get(i2, j);
        if f == 0.0 && g == 0.0 {
            continue;
        }
        let nf = c * f + s * g;
        let ng = -s * f + c * g;
        if in1 {
            b.set(i1, j, nf);
        }
        if in2 {
            b.set(i2, j, if j == zj { 0.0 } else { ng });
        }
    }
}

fn ref_chase_element(b: &mut BandMatrix<f32>, row: usize, d: usize) {
    let n = b.n();
    let mut target_row = row;
    let mut jc = row + d;
    loop {
        let f = b.get(target_row, jc - 1);
        let g = b.get(target_row, jc);
        if g != 0.0 {
            let (c, s, _r) = givens(f, g);
            ref_rotate_cols(b, jc - 1, jc, c, s, target_row);
        }
        if jc >= n {
            break;
        }
        let bulge = b.get(jc, jc - 1);
        if bulge != 0.0 {
            let f = b.get(jc - 1, jc - 1);
            let (c, s, _r) = givens(f, bulge);
            ref_rotate_rows(b, jc - 1, jc, c, s, jc - 1);
        }
        let next_col = jc + d;
        if next_col >= n {
            break;
        }
        target_row = jc - 1;
        jc = next_col;
    }
}

/// The full elementwise Givens reduction: one sweep per superdiagonal,
/// outermost first, rotations through `get`/`set`.
fn ref_band_to_bidiagonal(band: &mut BandMatrix<f32>, bandwidth: usize) {
    let n = band.n();
    for d in (2..=bandwidth).rev() {
        for row in 0..n.saturating_sub(d) {
            ref_chase_element(band, row, d);
        }
    }
}

fn random_band(n: usize, bw: usize, seed: u64) -> BandMatrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    BandMatrix::from_dense(n, 1, bw + 1, |i, j| {
        if j >= i && j - i <= bw {
            rng.gen_range(-1.0..1.0)
        } else {
            0.0
        }
    })
}

fn fig_wallclock(c: &mut Criterion) {
    let quick = criterion::quick_mode();
    let reps = if quick { 3 } else { 7 };

    // ------------------------------------------------ 1. chase A/B ----
    let (n, bw) = if quick { (64, 32) } else { (96, 32) };
    let band0 = random_band(n, bw, 0xBA5E);
    // The Householder chase runs in place on a band with its fill room.
    let (sub, sup) = work_band_geometry(n, bw);
    let work0 = BandMatrix::from_dense(n, sub, sup, |i, j| band0.get(i, j));
    let dev = Device::numeric(h100());

    // Values gate: both bidiagonals carry the band's singular values, to
    // the f32 tolerance of the golden-value tests (relative to 1 + σ₁).
    let mut work = work0.clone();
    let householder = bdsqr(&band_to_bidiagonal(
        &dev,
        &mut work,
        bw,
        PrecisionKind::Fp32,
        bw,
    ))
    .expect("Householder bidiagonal converges");
    let mut reference = band0.clone();
    ref_band_to_bidiagonal(&mut reference, bw);
    let given = bdsqr(&reference.to_bidiagonal()).expect("Givens bidiagonal converges");
    let tol = 2e-4 * (1.0 + given[0]);
    for (i, (a, b)) in householder.iter().zip(&given).enumerate() {
        assert!(
            (a - b).abs() <= tol,
            "chase values disagree at σ[{i}]: Householder {a:e}, Givens reference {b:e}"
        );
    }

    let mut g = c.benchmark_group("fig_wallclock");
    g.sample_size(10);
    g.bench_function(format!("chase_householder_n{n}"), |b| {
        b.iter(|| {
            work.clone_from(&work0);
            band_to_bidiagonal(&dev, &mut work, bw, PrecisionKind::Fp32, bw)
        })
    });
    let mut scratch = band0.clone();
    g.bench_function(format!("chase_reference_n{n}"), |b| {
        b.iter(|| {
            scratch.clone_from(&band0);
            ref_band_to_bidiagonal(&mut scratch, bw)
        })
    });

    let clone_work = median_wall(reps, || {
        work.clone_from(&work0);
        std::hint::black_box(&work);
    });
    let clone_ref = median_wall(reps, || {
        scratch.clone_from(&band0);
        std::hint::black_box(&scratch);
    });
    let wall_householder = median_wall(reps, || {
        work.clone_from(&work0);
        band_to_bidiagonal(&dev, &mut work, bw, PrecisionKind::Fp32, bw);
    }) - clone_work;
    let wall_reference = median_wall(reps, || {
        scratch.clone_from(&band0);
        ref_band_to_bidiagonal(&mut scratch, bw);
    }) - clone_ref;
    let chase_speedup = wall_reference / wall_householder;

    // ------------------------------- 2. steady vs cold plan reuse -----
    const SOLVE_N: usize = 48;
    let batch = if quick { 16 } else { 48 };
    let cfg = SvdConfig::default();
    let mut rng = StdRng::seed_from_u64(0x57EAD);
    let mats: Vec<Matrix<f32>> = (0..batch)
        .map(|_| {
            testmat::test_matrix::<f32, _>(SOLVE_N, SvDistribution::Logarithmic, true, &mut rng).0
        })
        .collect();
    let mut plan = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(SOLVE_N, SOLVE_N)
        .unwrap();
    let mut shell = SvdOutput::empty();
    plan.execute_into(&mats[0], &mut shell).unwrap(); // warm workspaces
    g.bench_function("steady_solve_48", |b| {
        b.iter(|| plan.execute_into(&mats[0], &mut shell))
    });
    g.bench_function("cold_solve_48", |b| {
        b.iter(|| {
            let mut p = Svd::on(&h100())
                .precision::<f32>()
                .config(cfg)
                .plan(SOLVE_N, SOLVE_N)
                .unwrap();
            p.execute(&mats[0])
        })
    });

    let wall_steady = median_wall(reps, || {
        for a in &mats {
            plan.execute_into(a, &mut shell).unwrap();
        }
    });
    let wall_cold = median_wall(reps, || {
        for a in &mats {
            let mut p = Svd::on(&h100())
                .precision::<f32>()
                .config(cfg)
                .plan(SOLVE_N, SOLVE_N)
                .unwrap();
            p.execute(a).unwrap();
        }
    });

    // ------------------------------------- 3. service fleet wall ------
    let shapes = [16usize, 24, 32];
    let fleet: Vec<Matrix<f32>> = (0..if quick { 24 } else { 60 })
        .map(|i| {
            let n = shapes[i % shapes.len()];
            testmat::test_matrix::<f32, _>(n, SvDistribution::Arithmetic, true, &mut rng).0
        })
        .collect();
    let warm_svc = SvdService::new(&h100());
    let sigs: Vec<_> = shapes
        .iter()
        .map(|&n| warm_svc.signature::<f32>(n, n, &cfg))
        .collect();
    assert_eq!(warm_svc.warm(&sigs), shapes.len(), "trace warmup resident");
    // Caching disabled: every request replans.
    let cold_svc = SvdService::builder(&h100())
        .shards(8)
        .plans_per_shard(0)
        .build();
    // Bit-identity gate: warm and cold serving agree.
    for a in fleet.iter().take(3) {
        let w = warm_svc.solve(a, &cfg).unwrap();
        let cold = cold_svc.solve(a, &cfg).unwrap();
        assert_eq!(
            w.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cold.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
    let mut out = SvdOutput::empty();
    let wall_warm_svc = median_wall(reps, || {
        for a in &fleet {
            warm_svc.solve_into(a, &cfg, &mut out).unwrap();
        }
    });
    let wall_cold_svc = median_wall(reps, || {
        for a in &fleet {
            cold_svc.solve_into(a, &cfg, &mut out).unwrap();
        }
    });
    g.bench_function("service_warm_request", |b| {
        b.iter(|| warm_svc.solve_into(&fleet[0], &cfg, &mut out))
    });
    g.bench_function("service_cold_request", |b| {
        b.iter(|| cold_svc.solve_into(&fleet[0], &cfg, &mut out))
    });
    g.finish();

    // ------------------------------------------------ report ----------
    println!("\nfig_wallclock (host wall time, H100 simulator):");
    println!(
        "  stage-2 chase ({n}x{n}, bw {bw}):   Householder {:>8.3} ms   elementwise Givens reference {:>8.3} ms   ({chase_speedup:.2}x)",
        wall_householder * 1e3,
        wall_reference * 1e3
    );
    println!(
        "  {batch}x {SOLVE_N}x{SOLVE_N} f32 solves:      steady  {:>8.3} ms   cold (replan per solve)  {:>8.3} ms   ({:.2}x)",
        wall_steady * 1e3,
        wall_cold * 1e3,
        wall_cold / wall_steady
    );
    println!(
        "  {}-request mixed fleet:     warm    {:>8.3} ms   cache-disabled service   {:>8.3} ms   ({:.2}x)",
        fleet.len(),
        wall_warm_svc * 1e3,
        wall_cold_svc * 1e3,
        wall_cold_svc / wall_warm_svc
    );
    assert!(
        chase_speedup >= 1.5,
        "the Householder chase must beat the elementwise Givens reference by >= 1.5x \
         on the repeated-solve workload's dominant stage, got {chase_speedup:.2}x"
    );
    assert!(
        wall_steady <= wall_cold * 1.10,
        "steady-state reuse must never lose to per-solve cold starts \
         (steady {wall_steady:.6}s vs cold {wall_cold:.6}s)"
    );
}

criterion_group!(benches, fig_wallclock);
criterion_main!(benches);
