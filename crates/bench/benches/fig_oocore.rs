//! `fig_oocore` — out-of-core execution beyond device memory.
//!
//! A device shrunk to 16 KiB faces a square f32 trace ~10x its memory
//! and a tall-skinny f64 solve that streams through the in-core plan's
//! host-QR front-end. Four gates before any timing datapoint:
//!
//! * **feasibility** — every oversized request must solve through
//!   [`OutOfCorePlan`] (the in-core planner provably rejects it);
//! * **bit-identity** — streaming values must equal a single-upload
//!   solve on an artificially enlarged clone of the same device, bit
//!   for bit, for every request in the trace and for the tall solve;
//! * **transfer schedule** — every streamed request charges exactly
//!   one `Transfer` launch per tile on top of the oracle's, carrying
//!   exactly the operand's bytes;
//! * **cost** — the simulated per-solve cost of streaming at the fit
//!   boundary must stay within a fixed factor (2x) of the in-core
//!   cost of the same shape on the big device: out-of-core adds
//!   transfer events, not a different kernel schedule.
//!
//! The recorded metrics (oversize ratio, per-solve seconds, transfer
//! share, tall per-solve seconds) land in `BENCH_oocore.json` for CI trend
//! tracking.

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use unisvd_core::Svd;
use unisvd_gpu::hw::rtx4060;
use unisvd_gpu::{KernelClass, TraceSummary};
use unisvd_matrix::{testmat, Matrix, SvDistribution};
use unisvd_oocore::OutOfCore;

fn requests() -> usize {
    if criterion::quick_mode() {
        3
    } else {
        8
    }
}

/// `(launches, bytes)` of the summary's `Transfer` class.
fn transfers(s: &TraceSummary) -> (usize, f64) {
    s.by_class
        .iter()
        .find(|(c, _)| *c == KernelClass::Transfer)
        .map_or((0, 0.0), |(_, t)| (t.launches, t.bytes))
}

fn fig_oocore(c: &mut Criterion) {
    let mut tiny = rtx4060();
    tiny.memory_bytes = 16 * 1024;
    let mut big = tiny.clone();
    big.memory_bytes = 1 << 30;

    // --- square streaming trace, ~10x device memory ----------------------
    let n = 208;
    let operand_bytes = (n * n * std::mem::size_of::<f32>()) as u64;
    let oversize = operand_bytes as f64 / tiny.memory_bytes as f64;
    assert!(oversize >= 10.0, "the trace must be >= 10x device memory");
    let mut rng = StdRng::seed_from_u64(0x00C0DE);
    let trace: Vec<Matrix<f32>> = (0..requests())
        .map(|_| testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, true, &mut rng).0)
        .collect();

    assert!(
        Svd::on(&tiny).precision::<f32>().plan(n, n).is_err(),
        "the in-core planner must reject the oversized shape"
    );
    let mut oracle_plan = Svd::on(&big).precision::<f32>().plan(n, n).unwrap();
    let mut plan = OutOfCore::on(&tiny)
        .precision::<f32>()
        .plan(n, n)
        .expect("the out-of-core planner accepts the oversized shape");

    let mut stream_seconds = 0.0;
    let mut transfer_seconds = 0.0;
    let mut incore_seconds = 0.0;
    for a in &trace {
        let got = plan.execute(a).expect("oversized request solves");
        let want = oracle_plan.execute(a).unwrap();
        let bit_equal = got
            .values
            .iter()
            .zip(&want.values)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            bit_equal,
            "streaming values must be bit-identical to the big-device oracle"
        );
        let ((got_launches, got_bytes), (want_launches, want_bytes)) =
            (transfers(&got.summary), transfers(&want.summary));
        assert_eq!(
            (got_launches - want_launches, got_bytes - want_bytes),
            (plan.panels(), operand_bytes as f64),
            "streaming must charge one transfer per tile carrying the operand's bytes"
        );
        stream_seconds += got.summary.total_seconds();
        transfer_seconds += got.summary.seconds_of(KernelClass::Transfer);
        incore_seconds += want.summary.total_seconds();
    }
    let per_solve_stream = stream_seconds / trace.len() as f64;
    let per_solve_incore = incore_seconds / trace.len() as f64;
    let cost_ratio = per_solve_stream / per_solve_incore;
    // The cost gate: streaming = the in-core schedule + transfer events,
    // so the fit-boundary overhead is bounded and must stay that way.
    assert!(
        cost_ratio <= 2.0,
        "streaming per-solve cost must stay within 2x of in-core at the \
         fit boundary, got {cost_ratio:.3}x"
    );

    println!(
        "\nfig_oocore ({} requests, {n}x{n} f32, {:.1}x over a {} B device):",
        trace.len(),
        oversize,
        tiny.memory_bytes
    );
    println!(
        "  streaming {:>9.3} ms/solve ({:.1}% transfer), in-core oracle {:>9.3} ms/solve, \
         ratio {cost_ratio:.3}x",
        per_solve_stream * 1e3,
        100.0 * transfer_seconds / stream_seconds,
        per_solve_incore * 1e3
    );
    println!("  {} tiles per streamed solve", plan.panels());

    record_metric("fig_oocore/oversize_ratio_x", oversize);
    record_metric("fig_oocore/stream_per_solve_s", per_solve_stream);
    record_metric("fig_oocore/incore_per_solve_s", per_solve_incore);
    record_metric("fig_oocore/cost_ratio_x", cost_ratio);
    record_metric(
        "fig_oocore/transfer_share",
        transfer_seconds / stream_seconds,
    );

    // --- tall-skinny streaming solve -------------------------------------
    // 4096x16 f64 = 512 KiB of operand, 32x the device: it streams like
    // the square trace, and the inner plan's host QR reduces it to the
    // 16x16 R before the two-stage pipeline runs.
    let (m, k) = (4096, 16);
    let tall = Matrix::<f64>::from_fn(m, k, |i, j| {
        (((i * 13 + j * 5) % 89) as f64 - 44.0) / 89.0 + if i % (k + 1) == j { 3.0 } else { 0.0 }
    });
    let mut tall_plan = OutOfCore::on(&tiny)
        .precision::<f64>()
        .plan(m, k)
        .expect("the out-of-core planner accepts tall shapes");
    let sv = tall_plan.execute(&tall).expect("tall request solves");
    let want = Svd::on(&big)
        .precision::<f64>()
        .plan(m, k)
        .unwrap()
        .execute(&tall)
        .unwrap();
    assert_eq!(
        sv.values, want.values,
        "tall streaming values must be bit-identical to the big-device oracle"
    );
    println!(
        "  tall: {m}x{k} f64 in {} tiles, {:.3} ms simulated/solve",
        tall_plan.panels(),
        sv.summary.total_seconds() * 1e3
    );
    record_metric("fig_oocore/tall_per_solve_s", sv.summary.total_seconds());

    // Standard timing-loop datapoint: one warm streaming solve.
    let mut g = c.benchmark_group("fig_oocore");
    g.sample_size(10);
    let a = &trace[0];
    g.bench_function("warm_streaming_execute", |b| {
        b.iter(|| plan.execute(a).expect("solves"))
    });
    g.finish();
}

criterion_group!(benches, fig_oocore);
criterion_main!(benches);
