//! `fig_fleet` — heterogeneous fleet serving vs the single biggest
//! device, on a mixed-shape f32 trace replayed through `submit`/`wait`.
//!
//! Two phases:
//!
//! * **goodput** — the same fire-and-forget trace through one H100
//!   service and through a 3-device fleet (H100 + MI250X + PVC: CUDA,
//!   ROCm, oneAPI). The trace cycles through 24 distinct shapes, so a
//!   single service serializes 24 cold plans and 24 signature-group
//!   batches through its one drainer, while the fleet's router spreads
//!   the signatures across three drainers that plan and execute
//!   concurrently. The fleet must deliver ≥ 1.3× goodput (asserted when
//!   the host pool has ≥ 2 threads).
//! * **graceful degradation** — a fresh fleet replays the trace while
//!   one device is killed mid-stream. Every ticket must still resolve
//!   (a lost resolver panics the waiter), every survivor's memory
//!   ledger must balance exactly, and the degraded p99 must stay within
//!   a bounded multiple of the healthy p99.
//!
//! Hyperparameters are pinned, so singular values are bit-identical
//! whichever device a request lands on — asserted against the
//! single-device baseline before any timing.

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use unisvd_core::SvdConfig;
use unisvd_gpu::hw::{h100, mi250, pvc};
use unisvd_kernels::HyperParams;
use unisvd_matrix::{testmat, Matrix, SvDistribution};
use unisvd_service::{SvdFleet, SvdService, Ticket};

/// 24 distinct square shapes: enough signatures that drainer-level
/// concurrency (planning + signature groups) dominates the run, the way
/// a real mixed-tenant serving trace looks.
const SHAPES: [usize; 24] = [
    16, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46, 49, 52, 55, 58, 61, 64, 67, 70, 73, 76, 79, 82, 85,
];

fn requests() -> usize {
    if criterion::quick_mode() {
        48
    } else {
        120
    }
}

/// Pinned hyperparameters: every device runs the identical kernel
/// schedule, so routing is invisible in the bits.
fn config() -> SvdConfig {
    SvdConfig {
        params: Some(HyperParams::new(16, 8, 1)),
        ..SvdConfig::default()
    }
}

fn trace() -> Vec<Matrix<f32>> {
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    (0..requests())
        .map(|i| {
            testmat::test_matrix::<f32, _>(
                SHAPES[i % SHAPES.len()],
                SvDistribution::Logarithmic,
                true,
                &mut rng,
            )
            .0
        })
        .collect()
}

fn fleet() -> SvdFleet {
    SvdFleet::builder()
        .device(h100())
        .device(mi250())
        .device(pvc())
        .replicate_after(4)
        .build()
}

struct Replay {
    bits: Vec<Vec<u64>>,
    latencies: Vec<f64>,
    wall: f64,
}

impl Replay {
    /// (p50, p99, goodput req/s) over the resolved requests.
    fn summarize(&self) -> (f64, f64, f64) {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = |p: f64| sorted[((sorted.len() as f64 - 1.0) * p).round() as usize];
        (pct(0.5), pct(0.99), self.latencies.len() as f64 / self.wall)
    }
}

/// Fire-and-forget: submit the whole trace, then wait every ticket in
/// order. `submit` must admit everything (asserted); per-request latency
/// is submit→resolution as seen by the waiter.
fn replay(mats: &[Matrix<f32>], submit: impl Fn(Matrix<f32>) -> Ticket) -> Replay {
    let t0 = Instant::now();
    let tickets: Vec<(Instant, Ticket)> = mats
        .iter()
        .map(|a| (Instant::now(), submit(a.clone())))
        .collect();
    let mut bits = Vec::with_capacity(tickets.len());
    let mut latencies = Vec::with_capacity(tickets.len());
    for (submitted, ticket) in tickets {
        let out = ticket.wait().expect("trace request resolves Ok");
        latencies.push(submitted.elapsed().as_secs_f64());
        bits.push(out.values.iter().map(|v| v.to_bits()).collect());
    }
    Replay {
        bits,
        latencies,
        wall: t0.elapsed().as_secs_f64(),
    }
}

fn fig_fleet(c: &mut Criterion) {
    let cfg = config();
    let mats = trace();
    let n_requests = mats.len();
    let threads = rayon::current_num_threads();

    // Process warmup: spin up the pool threads and the allocator on a
    // scratch service so neither timed path pays one-time process costs.
    {
        let scratch = SvdService::new(&h100());
        for a in mats.iter().take(4) {
            scratch.solve(a, &cfg).expect("warmup solve");
        }
    }

    // --- phase 1: goodput, single biggest device vs fleet ---------------
    let single = SvdService::new(&h100());
    let single_run = replay(&mats, |a| {
        single.submit(a, &cfg).expect("single service admits")
    });
    let healthy = fleet();
    let fleet_run = replay(&mats, |a| healthy.submit(a, &cfg).expect("fleet admits"));

    // Bit gate before any performance claim: routing must be invisible.
    assert_eq!(
        fleet_run.bits, single_run.bits,
        "fleet-routed results must be bit-identical to the single-device baseline"
    );
    let fstats = healthy.stats();
    assert_eq!(fstats.total.queue.submitted, n_requests as u64);
    assert_eq!(
        (fstats.total.queue.rejected, fstats.total.queue.shed),
        (0, 0)
    );
    let devices_used = fstats
        .per_device
        .iter()
        .filter(|d| d.stats.cache.misses + d.stats.cache.hits > 0)
        .count();
    assert!(
        devices_used >= 2,
        "the mixed-shape trace must actually spread across devices, used {devices_used}"
    );

    let (s_p50, s_p99, s_goodput) = single_run.summarize();
    let (f_p50, f_p99, f_goodput) = fleet_run.summarize();
    let ratio = f_goodput / s_goodput;

    println!(
        "\nfig_fleet ({n_requests} f32 requests over {} shapes {}..{}, {threads} host thread(s)):",
        SHAPES.len(),
        SHAPES[0],
        SHAPES[SHAPES.len() - 1]
    );
    println!(
        "  {:<22} {:>10} {:>10} {:>12}",
        "path", "p50", "p99", "goodput"
    );
    for (label, p50, p99, goodput) in [
        ("single H100", s_p50, s_p99, s_goodput),
        ("fleet H100+MI250+PVC", f_p50, f_p99, f_goodput),
    ] {
        println!(
            "  {label:<22} {:>7.0} µs {:>7.0} µs {:>8.0} req/s",
            p50 * 1e6,
            p99 * 1e6,
            goodput
        );
    }
    println!("  fleet/single goodput: {ratio:.2}x across {devices_used} devices");

    record_metric("fig_fleet/single_p50_s", s_p50);
    record_metric("fig_fleet/single_p99_s", s_p99);
    record_metric("fig_fleet/single_goodput_req_per_s", s_goodput);
    record_metric("fig_fleet/fleet_p50_s", f_p50);
    record_metric("fig_fleet/fleet_p99_s", f_p99);
    record_metric("fig_fleet/fleet_goodput_req_per_s", f_goodput);
    record_metric("fig_fleet/goodput_ratio_x", ratio);
    record_metric("fig_fleet/devices_used", devices_used as f64);

    // --- phase 2: graceful degradation under device loss -----------------
    // Replay the same trace, killing the lead device after a third of
    // the submissions. Queued work re-routes, in-flight batches finish,
    // and the dead device's ledger empties — no ticket may hang.
    let degraded = fleet();
    let kill_at = n_requests / 3;
    let t0 = Instant::now();
    let mut report = None;
    let tickets: Vec<(Instant, Ticket)> = mats
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if i == kill_at {
                report = Some(degraded.fail_device(0));
            }
            (
                Instant::now(),
                degraded.submit(a.clone(), &cfg).expect("survivors admit"),
            )
        })
        .collect();
    let mut latencies = Vec::with_capacity(tickets.len());
    for (submitted, ticket) in tickets {
        // Every ticket resolves — pre-kill ones with results, re-routed
        // ones with results from a survivor. A hang fails the bench via
        // timeout; an abandoned resolver fails the wait.
        let out = ticket.wait().expect("every trace request still resolves");
        latencies.push(submitted.elapsed().as_secs_f64());
        assert!(!out.values.is_empty());
    }
    let wall = t0.elapsed().as_secs_f64();
    let report = report.expect("fail_device ran mid-trace");
    assert!(!degraded.is_alive(0));

    // Ledger audit: the dead device returned every byte; the survivors'
    // shard accounting and ledgers agree exactly.
    assert_eq!(degraded.backend(0).stats().cache.resident_bytes, 0);
    for i in 0..degraded.device_count() {
        assert!(
            degraded.backend(i).ledger_in_balance(),
            "device {i} ledger out of balance after failover"
        );
    }

    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let d_p99 = sorted[((sorted.len() as f64 - 1.0) * 0.99).round() as usize];
    let d_goodput = latencies.len() as f64 / wall;
    println!(
        "  degraded (kill device 0 at request {kill_at}): p99 {:.0} µs, {:.0} req/s, \
         {} re-planned / {} re-routed / {} rejected",
        d_p99 * 1e6,
        d_goodput,
        report.replanned,
        report.rerouted,
        report.rejected
    );
    record_metric("fig_fleet/degraded_p99_s", d_p99);
    record_metric("fig_fleet/degraded_goodput_req_per_s", d_goodput);
    record_metric("fig_fleet/failover_replanned", report.replanned as f64);
    record_metric("fig_fleet/failover_rerouted", report.rerouted as f64);
    record_metric("fig_fleet/failover_rejected", report.rejected as f64);

    // The performance gates bind only when the host pool can actually
    // run drainers concurrently; the 1-thread CI leg still runs every
    // correctness, resolution, and ledger gate above.
    if threads >= 2 {
        assert!(
            ratio >= 1.3,
            "3-device fleet must deliver >= 1.3x goodput over the single \
             biggest device at {threads} threads, got {ratio:.3}x"
        );
        assert!(
            d_p99 <= f_p99 * 10.0,
            "losing one of three devices must degrade p99 gracefully: \
             degraded {:.0} µs vs healthy {:.0} µs (bound: 10x)",
            d_p99 * 1e6,
            f_p99 * 1e6
        );
    }

    // Standard timing-loop datapoint: one warm fleet round-trip.
    let mut g = c.benchmark_group("fig_fleet");
    g.sample_size(10);
    let a = &mats[0];
    g.bench_function("warm_fleet_submit_wait", |b| {
        b.iter(|| {
            healthy
                .submit(a.clone(), &cfg)
                .expect("admitted")
                .wait()
                .expect("resolved")
        })
    });
    g.finish();
}

criterion_group!(benches, fig_fleet);
criterion_main!(benches);
