//! `fig_scaling` — batched-SVD throughput vs host thread count.
//!
//! Not a paper figure: this measures the repository's own host-side
//! work-stealing pool (`shims/rayon`). A batch of 32 independent 48×48
//! f32 solves — the many-small-adapters LoRA pattern from the paper's
//! introduction — runs under explicitly sized pools of 1/2/4/8 threads.
//! Results are asserted bit-identical across thread counts before any
//! timing; the printed speedup table is wall-clock (so the numbers only
//! scale on a multi-core host — the simulated device time is invariant
//! by construction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::time::Instant;
use unisvd_core::{Svd, SvdError, SvdOutput};
use unisvd_gpu::hw::h100;
use unisvd_matrix::{testmat, Matrix, SvDistribution};

const BATCH: usize = 32;
const N: usize = 48;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn batch() -> Vec<Matrix<f32>> {
    let mut rng = StdRng::seed_from_u64(0x5CA11);
    (0..BATCH)
        .map(|_| testmat::test_matrix::<f32, _>(N, SvDistribution::Logarithmic, true, &mut rng).0)
        .collect()
}

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build")
}

fn to_bits(results: &[Result<SvdOutput, SvdError>]) -> Vec<Vec<u64>> {
    let bits = |o: &SvdOutput| o.values.iter().map(|v| v.to_bits()).collect();
    results.iter().map(|r| bits(r.as_ref().unwrap())).collect()
}

fn fig_scaling(c: &mut Criterion) {
    let mats = batch();
    let mut plan = Svd::on(&h100()).precision::<f32>().plan(N, N).unwrap();
    let reference = to_bits(&pool(1).install(|| plan.execute_batch(&mats)));

    let mut g = c.benchmark_group("fig_scaling");
    g.sample_size(10);
    for &t in &THREADS {
        let p = pool(t);
        // Determinism gate before timing: any thread count must reproduce
        // the sequential bits exactly.
        let got = to_bits(&p.install(|| plan.execute_batch(&mats)));
        assert_eq!(got, reference, "{t} threads changed the results");
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| p.install(|| plan.execute_batch(&mats)))
        });
    }
    g.finish();

    // Explicit speedup table (median of `reps` timed batches per count).
    let reps = if criterion::quick_mode() { 3 } else { 7 };
    let mut base_ms = 0.0;
    println!("\nfig_scaling speedup (batch of {BATCH} {N}x{N} f32 solves):");
    for &t in &THREADS {
        let p = pool(t);
        p.install(|| plan.execute_batch(&mats)); // warm-up
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                criterion::black_box(p.install(|| plan.execute_batch(&mats)));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        if t == 1 {
            base_ms = median;
        }
        println!(
            "  threads={t:<2} {median:>9.3} ms/batch   speedup vs 1 thread: {:.2}x",
            base_ms / median
        );
    }
}

criterion_group!(benches, fig_scaling);
criterion_main!(benches);
