//! `fig_truncated` — the cost case for truncated SVD: requesting only the
//! top-k singular triplets (`Want::TopK(k)`) must be substantially
//! cheaper than thin vectors (`Want::Thin`), because the accumulation
//! replay is O(transforms × k) — the stage-1/2 transform stream is
//! shared, but each logged transform touches k accumulator columns
//! instead of min(m, n), and the bidiagonal's inverse iteration computes
//! k triplets instead of min(m, n).
//!
//! Gate: at k = n/8, the **simulated** per-solve cost of a top-k solve
//! is ≤ 0.6× the thin-vector solve of the same matrix. (The values-only
//! cost is printed for context: it is the shared floor both vector modes
//! sit on.) A correctness preamble pins that the top-k output really is
//! the prefix of the thin output, so the speed is not bought with a
//! different answer.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use unisvd_core::{Svd, Want};
use unisvd_gpu::hw::h100;
use unisvd_matrix::{testmat, Matrix, SvDistribution};

const RATIO_GATE: f64 = 0.6;

fn fig_truncated(c: &mut Criterion) {
    let n: usize = if criterion::quick_mode() { 128 } else { 256 };
    let k = n / 8;
    let mut rng = StdRng::seed_from_u64(0x70CC);
    let a: Matrix<f32> =
        testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, true, &mut rng).0;

    let new_plan = |want: Want| {
        Svd::on(&h100())
            .precision::<f32>()
            .vectors(want)
            .plan(n, n)
            .expect("H100 supports f32")
    };
    let solve = |want: Want| new_plan(want).execute(&a).expect("solve");

    // Correctness preamble: the truncated output is the exact prefix of
    // the thin one — values bitwise, factors bitwise column prefixes.
    let thin = solve(Want::Thin);
    let topk = solve(Want::TopK(k));
    assert_eq!(topk.values.len(), k);
    for i in 0..k {
        assert_eq!(
            topk.values[i].to_bits(),
            thin.values[i].to_bits(),
            "top-k values must be a bitwise prefix of the thin values"
        );
    }
    let (tu, ku) = (thin.u.as_ref().unwrap(), topk.u.as_ref().unwrap());
    assert_eq!((ku.rows(), ku.cols()), (n, k));
    for j in 0..k {
        for i in 0..n {
            assert_eq!(
                ku[(i, j)].to_bits(),
                tu[(i, j)].to_bits(),
                "top-k U must be a bitwise column prefix of thin U"
            );
        }
    }

    // Wall-clock per-solve samples for BENCH_JSON.
    let mut g = c.benchmark_group("fig_truncated");
    g.sample_size(10);
    for (label, want) in [
        ("values_only", Want::None),
        ("thin_vectors", Want::Thin),
        ("topk_vectors", Want::TopK(k)),
    ] {
        let mut plan = new_plan(want);
        g.bench_function(label, |b| b.iter(|| plan.execute(&a)));
    }
    g.finish();

    // The gate runs on simulated device-stream seconds (deterministic),
    // of a plan's steady second execute: the first also pays the
    // one-shot driver share, which is not vector work.
    let sim = |want: Want| {
        let mut plan = new_plan(want);
        plan.execute(&a).expect("solve");
        plan.execute(&a).expect("solve").summary.total_seconds()
    };
    let (none_s, thin_s, topk_s) = (sim(Want::None), sim(Want::Thin), sim(Want::TopK(k)));
    let ratio = topk_s / thin_s;
    println!("\nfig_truncated ({n}x{n} f32, k = n/8 = {k}, H100, simulated):");
    println!("  values only:  {:>9.3} ms/solve", none_s * 1e3);
    println!("  thin vectors: {:>9.3} ms/solve", thin_s * 1e3);
    println!("  top-{k:<3} :      {:>9.3} ms/solve", topk_s * 1e3);
    println!("  top-k / thin ratio: {ratio:.3} (gate ≤ {RATIO_GATE})");
    assert!(
        ratio <= RATIO_GATE,
        "truncated top-k must cost ≤ {RATIO_GATE}x of thin vectors, got {ratio:.3}x"
    );
    assert!(
        thin_s > none_s && topk_s > none_s,
        "vector accumulation must cost something over the values-only floor"
    );
}

criterion_group!(benches, fig_truncated);
criterion_main!(benches);
