//! Solver showdown — the three independent stage-3 bidiagonal solvers
//! (implicit QR, dqds, bisection) and the batched API, on a stress
//! portfolio of spectra: clustered, graded across 12 decades, and
//! rank-deficient.
//!
//! ```text
//! cargo run --release --example solver_showdown
//! ```

use std::time::Instant;
use unisvd::{hw, svdvals_with, Device, Matrix, Stage3Solver, Svd, SvdConfig};

fn spectrum(name: &str, n: usize) -> Vec<f64> {
    match name {
        "clustered" => (0..n).map(|i| 1.0 + 1e-9 * (n - i) as f64).collect(),
        "graded" => (0..n)
            .map(|i| 10f64.powf(-12.0 * i as f64 / n as f64))
            .collect(),
        "rank-deficient" => (0..n)
            .map(|i| {
                if i < n / 4 {
                    1.0 - i as f64 / n as f64
                } else {
                    0.0
                }
            })
            .collect(),
        _ => unreachable!(),
    }
}

fn main() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1717);
    let n = 64;
    let dev = Device::numeric(hw::h100());

    println!("stage-3 solver comparison on stress spectra (n = {n}):\n");
    println!(
        "{:>15} | {:>10} | {:>12} | {:>12} | {:>12}",
        "spectrum", "solver", "max |Δσ|", "σ_min rel", "wall"
    );
    for name in ["clustered", "graded", "rank-deficient"] {
        let svs = spectrum(name, n);
        let a64 = unisvd::testmat::with_singular_values(&svs, &mut rng);
        let a: Matrix<f64> = a64;
        let mut results: Vec<(Stage3Solver, Vec<f64>, std::time::Duration)> = Vec::new();
        for solver in [
            Stage3Solver::Bdsqr,
            Stage3Solver::Dqds,
            Stage3Solver::Bisect,
        ] {
            let cfg = SvdConfig {
                solver,
                ..SvdConfig::default()
            };
            let t0 = Instant::now();
            let sv = svdvals_with(&a, &dev, &cfg).expect("solve").values;
            results.push((solver, sv, t0.elapsed()));
        }
        for (solver, sv, wall) in &results {
            let max_abs: f64 = sv
                .iter()
                .zip(&svs)
                .map(|(c, t)| (c - t).abs())
                .fold(0.0, f64::max);
            let smallest_nonzero = svs
                .iter()
                .cloned()
                .filter(|&s| s > 0.0)
                .fold(f64::MAX, f64::min);
            let idx = svs
                .iter()
                .position(|&s| (s - smallest_nonzero).abs() < 1e-300)
                .unwrap();
            let rel = (sv[idx] - svs[idx]).abs() / svs[idx];
            println!(
                "{:>15} | {:>10} | {:>12.2e} | {:>12.2e} | {:>10.1?}",
                name,
                format!("{solver:?}"),
                max_abs,
                rel,
                wall
            );
        }
        // All three agree with the ground truth in the absolute sense.
        for (s, sv, _) in &results {
            let e: f64 = sv
                .iter()
                .zip(&svs)
                .map(|(c, t)| (c - t).abs())
                .fold(0.0, f64::max);
            assert!(e < 1e-10, "{s:?} absolute error {e}");
        }
    }

    // Batched API: a portfolio of 32 small "adapter" matrices solved in
    // parallel on the host pool through one plan.
    let mats: Vec<Matrix<f32>> = (0..32)
        .map(|_| unisvd::testmat::random_general::<f32, _>(48, 48, &mut rng))
        .collect();
    let t0 = Instant::now();
    let f32_on_h100 = Svd::on(&hw::h100()).precision::<f32>();
    let batched = f32_on_h100.plan(48, 48).unwrap().execute_batch(&mats);
    let wall = t0.elapsed();
    let ok = batched.iter().filter(|r| r.is_ok()).count();
    println!("\nbatched: {ok}/32 solves in {wall:.1?} (parallel over the host pool)");
    assert_eq!(ok, 32);
}
