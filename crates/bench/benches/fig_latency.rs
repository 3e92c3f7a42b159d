//! `fig_latency` — open-loop latency replay for the async serving path:
//! a seeded bursty arrival trace (bursts of same-shape f32 requests,
//! shapes cycling through 32², 48², 64², offered at ~2× the blocking
//! service rate) is replayed against two warmed services on the
//! simulated H100:
//!
//! * **blocking** — a single dispatcher thread serving arrivals FIFO
//!   through [`SvdService::solve`]; later arrivals queue behind the
//!   in-flight solve.
//! * **async** — the same trace through [`SvdService::submit`]: a
//!   bounded queue, a coalescing drainer that groups each burst into one
//!   batched execute over the plan's lanes, and per-request tickets.
//!
//! Per-request latency is completion minus *scheduled* arrival (the
//! open-loop definition — no coordinated omission), reported as p50/p99
//! per path plus goodput (completed requests over makespan). With ≥ 2
//! host threads the async path must deliver **≥ 1.2× goodput** and no
//! worse p99 than the blocking baseline (asserted); every request must
//! complete, and async values must be bit-identical to the blocking
//! ones (and to a directly driven plan) before any number is reported.
//! All metrics land in the `BENCH_JSON` artifact (`BENCH_latency.json`
//! in CI).

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use unisvd_core::{Svd, SvdConfig};
use unisvd_gpu::hw::h100;
use unisvd_matrix::{testmat, Matrix, SvDistribution};
use unisvd_service::{ServiceBuilder, SvdService};

const SHAPES: [usize; 3] = [32, 48, 64];
const BURST: usize = 6;

fn bursts() -> usize {
    if criterion::quick_mode() {
        9
    } else {
        18
    }
}

/// One request of the replay trace: a scheduled arrival offset and its
/// matrix. Bursts are same-shape (the fleet-serving pattern the
/// coalescer targets), shapes cycle across bursts.
struct Req {
    offset: Duration,
    mat: Matrix<f32>,
}

fn trace(gap: Duration) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(0x1A7E4C);
    (0..bursts())
        .flat_map(|b| {
            let n = SHAPES[b % SHAPES.len()];
            (0..BURST)
                .map(|_| Req {
                    offset: gap * b as u32,
                    mat: testmat::test_matrix::<f32, _>(
                        n,
                        SvDistribution::Logarithmic,
                        true,
                        &mut rng,
                    )
                    .0,
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn warm_service(cfg: &SvdConfig, builder: ServiceBuilder) -> SvdService {
    let service = builder.build();
    for n in SHAPES {
        service
            .solve(&Matrix::<f32>::identity(n), cfg)
            .expect("prewarm solve");
    }
    service
}

/// Sleeps coarsely, then spins, until `deadline` — std sleep alone can
/// overshoot by more than a whole burst gap.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Replay outcome: per-request latency (seconds, trace order),
/// per-request value bits (trace order), and the makespan.
struct Replay {
    latencies: Vec<f64>,
    bits: Vec<Vec<u64>>,
    makespan: f64,
}

impl Replay {
    fn summarize(&self) -> (f64, f64, f64) {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let goodput = self.latencies.len() as f64 / self.makespan;
        (percentile(&sorted, 0.5), percentile(&sorted, 0.99), goodput)
    }
}

fn replay_blocking(service: &SvdService, trace: &[Req], cfg: &SvdConfig) -> Replay {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(trace.len());
    let mut bits = Vec::with_capacity(trace.len());
    for req in trace {
        wait_until(start + req.offset);
        let out = service.solve(&req.mat, cfg).expect("blocking solve");
        latencies.push((start.elapsed() - req.offset).as_secs_f64());
        bits.push(out.values.iter().map(|v| v.to_bits()).collect());
    }
    Replay {
        latencies,
        bits,
        makespan: start.elapsed().as_secs_f64(),
    }
}

/// Latency (seconds) and value bits of one completed async request.
type Completion = (f64, Vec<u64>);

fn replay_async(service: &SvdService, trace: &[Req], cfg: &SvdConfig) -> Replay {
    let slots: Mutex<Vec<Option<Completion>>> = Mutex::new(vec![None; trace.len()]);
    let start = Instant::now();
    std::thread::scope(|s| {
        // The submitter replays arrivals open-loop; each burst's tickets
        // go to a dedicated waiter thread so one slow request never
        // delays another burst's completion timestamps.
        for (b, burst) in trace.chunks(BURST).enumerate() {
            wait_until(start + burst[0].offset);
            let tickets: Vec<_> = burst
                .iter()
                .map(|req| {
                    service
                        .submit(req.mat.clone(), cfg)
                        .expect("trace fits the default queue depth")
                })
                .collect();
            let slots = &slots;
            s.spawn(move || {
                for (k, ticket) in tickets.into_iter().enumerate() {
                    let req = &burst[k];
                    let out = ticket.wait().expect("async solve");
                    let latency = (start.elapsed() - req.offset).as_secs_f64();
                    let recorded = out.values.iter().map(|v| v.to_bits()).collect();
                    slots.lock().unwrap()[b * BURST + k] = Some((latency, recorded));
                }
            });
        }
    });
    let makespan = start.elapsed().as_secs_f64();
    let (latencies, bits) = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every ticket resolved"))
        .unzip();
    Replay {
        latencies,
        bits,
        makespan,
    }
}

fn fig_latency(c: &mut Criterion) {
    let cfg = SvdConfig::default();

    // Calibrate the burst gap to ~2x the blocking service rate: measure
    // the median warm solve per shape, take half the serial burst cost.
    let probe = warm_service(&cfg, SvdService::builder(&h100()));
    let median_solve: f64 = {
        let mut rng = StdRng::seed_from_u64(0xCA11B);
        let mut per_shape: Vec<f64> = SHAPES
            .iter()
            .map(|&n| {
                let a =
                    testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, true, &mut rng)
                        .0;
                let mut times: Vec<f64> = (0..5)
                    .map(|_| {
                        let t0 = Instant::now();
                        probe.solve(&a, &cfg).expect("calibration solve");
                        t0.elapsed().as_secs_f64()
                    })
                    .collect();
                times.sort_by(f64::total_cmp);
                times[times.len() / 2]
            })
            .collect();
        per_shape.sort_by(f64::total_cmp);
        per_shape[per_shape.len() / 2]
    };
    let gap = Duration::from_secs_f64((median_solve * BURST as f64 / 2.0).max(50e-6));
    let trace = trace(gap);
    let requests = trace.len();

    // Correctness gate: the blocking service must match a direct plan on
    // one representative of each shape (the async replay is then gated
    // bit-identical against the blocking one, request by request).
    let blocking = warm_service(&cfg, SvdService::builder(&h100()));
    for &n in &SHAPES {
        let a = trace
            .iter()
            .find(|r| r.mat.rows() == n)
            .map(|r| &r.mat)
            .expect("every shape appears in the trace");
        let mut plan = Svd::on(&h100())
            .precision::<f32>()
            .config(cfg)
            .plan(n, n)
            .unwrap();
        let direct: Vec<u64> = plan
            .execute(a)
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let served: Vec<u64> = blocking
            .solve(a, &cfg)
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(served, direct, "serving must not change the values");
    }

    let blocked = replay_blocking(&blocking, &trace, &cfg);
    let async_service = warm_service(
        &cfg,
        SvdService::builder(&h100())
            .coalesce_window(gap)
            .max_coalesce(BURST),
    );
    let asynced = replay_async(&async_service, &trace, &cfg);

    assert_eq!(
        asynced.bits, blocked.bits,
        "async results must be bit-identical to the blocking baseline"
    );
    let qs = async_service.stats().queue;
    assert_eq!(qs.submitted, requests as u64);
    assert_eq!((qs.rejected, qs.shed), (0, 0), "no request may be refused");
    assert!(
        qs.coalesced > 0,
        "the bursty trace must exercise cross-caller coalescing ({qs})"
    );

    let (b_p50, b_p99, b_goodput) = blocked.summarize();
    let (a_p50, a_p99, a_goodput) = asynced.summarize();
    let ratio = a_goodput / b_goodput;
    let threads = rayon::current_num_threads();

    println!(
        "\nfig_latency ({requests} requests, {} bursts of {BURST}, gap {:.0} µs, \
         {threads} host thread(s), H100):",
        bursts(),
        gap.as_secs_f64() * 1e6
    );
    println!(
        "  {:<10} {:>12} {:>12} {:>14}",
        "path", "p50", "p99", "goodput"
    );
    for (label, p50, p99, goodput) in [
        ("blocking", b_p50, b_p99, b_goodput),
        ("async", a_p50, a_p99, a_goodput),
    ] {
        println!(
            "  {label:<10} {:>9.0} µs {:>9.0} µs {:>10.0} req/s",
            p50 * 1e6,
            p99 * 1e6,
            goodput
        );
    }
    println!(
        "  async/blocking goodput: {ratio:.2}x ({} batches, {} coalesced)",
        qs.batches, qs.coalesced
    );

    record_metric("fig_latency/blocking_p50_s", b_p50);
    record_metric("fig_latency/blocking_p99_s", b_p99);
    record_metric("fig_latency/async_p50_s", a_p50);
    record_metric("fig_latency/async_p99_s", a_p99);
    record_metric("fig_latency/blocking_goodput_req_per_s", b_goodput);
    record_metric("fig_latency/async_goodput_req_per_s", a_goodput);
    record_metric("fig_latency/goodput_ratio_x", ratio);

    // The performance gates only bind when the host pool can actually
    // parallelize the coalesced batches; the 1-thread CI leg still runs
    // the full replay for the correctness gates above.
    if threads >= 2 {
        assert!(
            ratio >= 1.2,
            "async serving must deliver >= 1.2x goodput over the blocking \
             baseline at {threads} threads, got {ratio:.3}x"
        );
        assert!(
            a_p99 <= b_p99,
            "async p99 ({:.0} µs) must not exceed blocking p99 ({:.0} µs) \
             under overload",
            a_p99 * 1e6,
            b_p99 * 1e6
        );
    }

    // Standard timing-loop datapoint alongside the replay metrics: the
    // closed-loop cost of one warm async round-trip (submit + wait).
    let mut g = c.benchmark_group("fig_latency");
    g.sample_size(10);
    let a = &trace[0].mat;
    g.bench_function("warm_submit_wait", |b| {
        b.iter(|| {
            async_service
                .submit(a.clone(), &cfg)
                .expect("admitted")
                .wait()
                .expect("resolved")
        })
    });
    g.bench_function("warm_blocking_solve", |b| {
        b.iter(|| blocking.solve(a, &cfg).expect("solved"))
    });
    g.finish();
}

criterion_group!(benches, fig_latency);
criterion_main!(benches);
