//! Determinism suite: the work-stealing pool must not change a single
//! bit of any result. Batched, served and routed solves, fault schedules
//! and full launch traces are compared across thread counts (including
//! the guaranteed-sequential 1-thread fallback), reusing the golden
//! matrices of the accuracy suite.

use unisvd::threading::ThreadPoolBuilder;
use unisvd::{
    hw, svdvals_with, testmat, Device, HyperParams, LaunchRecord, Matrix, SvDistribution, Svd,
    SvdConfig, SvdService,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn pool(n: usize) -> unisvd::threading::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// The golden matrices of `tests/golden_values.rs` (identity, diagonal,
/// rank-1, Kahan) plus random matrices with known spectra, including
/// non-tile-multiple sizes that exercise the padding path.
fn golden_batch() -> Vec<Matrix<f64>> {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2026);
    let n = 24;
    let mut mats = vec![
        Matrix::<f64>::identity(32),
        Matrix::<f64>::from_fn(n, n, |i, j| if i == j { (n - i) as f64 } else { 0.0 }),
        testmat::kahan(20, 0.285),
    ];
    for size in [27, 33, 48] {
        mats.push(
            testmat::test_matrix::<f64, _>(size, SvDistribution::Logarithmic, false, &mut rng).0,
        );
    }
    mats
}

fn values_to_bits(results: &[Result<Vec<f64>, unisvd::SvdError>]) -> Vec<Vec<u64>> {
    results
        .iter()
        .map(|r| r.as_ref().unwrap().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn batched_solves_bit_identical_across_thread_counts() {
    let mats = golden_batch();
    let service = SvdService::new(&hw::h100());
    let cfg = SvdConfig::default();
    let solve_batch = || -> Vec<_> {
        let outs = service.solve_batch(&mats, &cfg);
        outs.into_iter().map(|r| r.map(|o| o.values)).collect()
    };
    let run = |t: usize| pool(t).install(solve_batch);
    let sequential = values_to_bits(&run(1));
    for t in THREAD_COUNTS {
        let par = values_to_bits(&run(t));
        assert_eq!(par, sequential, "solve_batch changed bits at {t} threads");
    }
    // The global (env-sized) pool must agree with the explicit pools too.
    let global = values_to_bits(&solve_batch());
    assert_eq!(global, sequential, "global pool disagrees");
}

/// Every field of a launch record as comparable bit patterns.
type RecordKey = (
    String,
    String,
    usize,
    usize,
    u64,
    u64,
    u64,
    u64,
    u64,
    Vec<u32>,
);

/// Serialises every field of a record into comparable bit patterns.
fn record_key(r: &LaunchRecord) -> RecordKey {
    (
        format!("{:?}", r.class),
        r.label.to_string(),
        r.grid,
        r.block,
        r.seconds.to_bits(),
        r.flops.to_bits(),
        r.bytes.to_bits(),
        r.occupancy.to_bits(),
        r.spill.to_bits(),
        r.wg_steps.clone(),
    )
}

/// The launch trace of a 64×64 Kahan solve with a 16-wide tile, one key
/// per record, run on a pool of `threads`. The tile produces
/// multi-workgroup grids, so the per-workgroup slots genuinely exercise
/// concurrent collection.
fn kahan_trace_keys(threads: usize) -> Vec<RecordKey> {
    let a = testmat::kahan(64, 0.285);
    let cfg = SvdConfig {
        params: Some(HyperParams::new(16, 8, 1)),
        ..SvdConfig::default()
    };
    pool(threads).install(|| {
        let dev = Device::numeric(hw::h100()).keep_records();
        svdvals_with(&a, &dev, &cfg).unwrap();
        dev.records().iter().map(record_key).collect()
    })
}

#[test]
fn launch_traces_bit_identical_across_thread_counts() {
    let run = kahan_trace_keys;
    let sequential = run(1);
    assert!(
        sequential.iter().any(|k| k.9.len() > 1),
        "expected at least one multi-workgroup launch in the trace"
    );
    for t in THREAD_COUNTS {
        assert_eq!(run(t), sequential, "trace changed at {t} threads");
    }
}

#[test]
fn service_cached_and_fresh_plans_bit_identical_across_thread_counts() {
    // The acceptance gate of the serving layer: for every request, the
    // service — whatever its cache state, at 1, 4, and 8 threads, via
    // solve or coalesced solve_batch — must produce the bits of a
    // directly driven fresh SvdPlan.
    let mats = golden_batch();
    let cfg = SvdConfig::default();
    // Oracle: one fresh plan per request shape, no cache, no pool.
    let direct: Vec<Vec<u64>> = mats
        .iter()
        .map(|a| {
            let mut plan = Svd::on(&hw::h100())
                .precision::<f64>()
                .config(cfg)
                .plan(a.rows(), a.cols())
                .unwrap();
            plan.execute(a)
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    for t in [1, 4, 8] {
        pool(t).install(|| {
            let service = SvdService::new(&hw::h100());
            // Pass 1 exercises every uncached path, pass 2 every cached
            // path; the coalesced batch mixes checkout + execute_batch.
            for pass in ["cold", "warm"] {
                for (a, want) in mats.iter().zip(&direct) {
                    let got: Vec<u64> = service
                        .solve(a, &cfg)
                        .unwrap()
                        .values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(&got, want, "{pass} solve changed bits at {t} threads");
                }
            }
            let batched = service.solve_batch(&mats, &cfg);
            for (res, want) in batched.iter().zip(&direct) {
                let got: Vec<u64> = res
                    .as_ref()
                    .unwrap()
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(&got, want, "solve_batch changed bits at {t} threads");
            }
        });
    }
}

#[test]
fn async_submissions_bit_identical_across_thread_counts() {
    // The async acceptance gate: results delivered through submit/wait —
    // queued, coalesced across callers, executed on the plan's extra
    // lanes — must carry the bits of a directly driven fresh SvdPlan. The
    // producers run under explicit 1/4/8-thread pools; the drainer
    // executes on the global pool, which the CI thread matrix
    // (RAYON_NUM_THREADS = 1 and 4) sizes independently. Determinism
    // must hold for every combination.
    use std::time::Duration;
    let mats = golden_batch();
    let cfg = SvdConfig::default();
    let direct: Vec<Vec<u64>> = mats
        .iter()
        .map(|a| {
            let mut plan = Svd::on(&hw::h100())
                .precision::<f64>()
                .config(cfg)
                .plan(a.rows(), a.cols())
                .unwrap();
            plan.execute(a)
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    for t in [1, 4, 8] {
        pool(t).install(|| {
            let service = SvdService::builder(&hw::h100())
                .coalesce_window(Duration::from_millis(2))
                .build();
            // Two passes: cold plans, then warm plans and the plan's extra
            // lanes. Duplicate same-shape submissions inside a pass exercise the
            // coalesced multi-request path.
            for pass in ["cold", "warm"] {
                let tickets: Vec<_> = mats
                    .iter()
                    .chain(mats.iter())
                    .map(|a| service.submit(a.clone(), &cfg).expect("admitted"))
                    .collect();
                for (i, ticket) in tickets.into_iter().enumerate() {
                    let got: Vec<u64> = ticket
                        .wait()
                        .unwrap()
                        .values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let want = &direct[i % mats.len()];
                    assert_eq!(
                        &got, want,
                        "{pass} submit changed bits at {t} threads (request {i})"
                    );
                }
            }
        });
    }
}

#[test]
fn fleet_routed_solves_bit_identical_across_thread_counts() {
    // The fleet acceptance gate: routing must be invisible in the bits.
    // A heterogeneous fleet places requests by load, so different thread
    // counts genuinely route the same request to different devices —
    // with pinned hyperparameters every device runs the identical
    // kernel schedule, so the values must still match a directly driven
    // plan bit for bit, wherever the request lands.
    use unisvd::SvdFleet;
    let mats = golden_batch();
    let cfg = SvdConfig {
        params: Some(HyperParams::new(16, 8, 1)),
        ..SvdConfig::default()
    };
    let direct: Vec<Vec<u64>> = mats
        .iter()
        .map(|a| {
            let mut plan = Svd::on(&hw::h100())
                .precision::<f64>()
                .config(cfg)
                .plan(a.rows(), a.cols())
                .unwrap();
            plan.execute(a)
                .unwrap()
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    for t in [1, 4, 8] {
        pool(t).install(|| {
            let fleet = SvdFleet::builder()
                .device(hw::h100())
                .device(hw::mi250())
                .device(hw::pvc())
                .replicate_after(2) // force replication + alternation
                .build();
            // Cold pass, then warm (cached / replicated) pass, then the
            // async submit path — all three must carry the direct bits.
            for pass in ["cold", "warm"] {
                for (a, want) in mats.iter().zip(&direct) {
                    let got: Vec<u64> = fleet
                        .solve(a, &cfg)
                        .unwrap()
                        .values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(&got, want, "{pass} fleet solve changed bits at {t} threads");
                }
            }
            let tickets: Vec<_> = mats
                .iter()
                .map(|a| fleet.submit(a.clone(), &cfg).expect("admitted"))
                .collect();
            for (ticket, want) in tickets.into_iter().zip(&direct) {
                let got: Vec<u64> = ticket
                    .wait()
                    .unwrap()
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(&got, want, "fleet submit changed bits at {t} threads");
            }
        });
    }
}

/// Streams `a` through an out-of-core plan on `hw` at 1, 4 and 8
/// threads; each run's values must carry exactly the bits of the plain
/// in-core plan on a clone of `hw` enlarged to hold `a` in one upload.
fn assert_streams_to_oracle<T: unisvd::Scalar>(hw: &unisvd::HardwareDescriptor, a: &Matrix<T>) {
    use unisvd::OutOfCore;
    let (m, n) = (a.rows(), a.cols());
    let bits = |values: Vec<f64>| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
    let mut big = hw.clone();
    big.memory_bytes = 1 << 30;
    let oracle = bits(
        Svd::on(&big)
            .precision::<T>()
            .plan(m, n)
            .unwrap()
            .execute(a)
            .unwrap()
            .values,
    );
    for t in [1, 4, 8] {
        pool(t).install(|| {
            let mut plan = OutOfCore::on(hw)
                .precision::<T>()
                .plan(m, n)
                .expect("the out-of-core planner accepts any shape");
            assert!(plan.panels() > 1, "{m}x{n}: operand must actually be tiled");
            let got = bits(plan.execute(a).unwrap().values);
            assert_eq!(
                got, oracle,
                "{m}x{n}: streaming changed bits at {t} threads"
            );
        });
    }
}

#[test]
fn oocore_streaming_bit_identical_across_thread_counts_and_to_oracle() {
    // The out-of-core acceptance gate: an operand >= 10x the device's
    // memory solves through the streaming OutOfCorePlan, its values are
    // bit-identical at 1, 4, and 8 threads, AND bit-identical to a
    // single-upload solve on an artificially enlarged clone of the same
    // device (the "big device" oracle). Square, tall and wide operands
    // all stream; the tall and wide ones take the inner plan's host QR.
    let mut tiny = hw::rtx4060();
    tiny.memory_bytes = 16 * 1024;
    let n = 208; // 208*208*4 B = 173 KiB, >= 10x the 16 KiB device
    assert!((n * n * 4) as u64 >= 10 * tiny.memory_bytes);
    let a = {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(404);
        testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, false, &mut rng).0
    };
    assert_streams_to_oracle(&tiny, &a);

    tiny.memory_bytes = 24 * 1024;
    let (m, n) = (2048, 24);
    let tall = Matrix::<f64>::from_fn(m, n, |i, j| {
        (((i * 31 + j * 17) % 101) as f64 - 50.0) / 101.0 + if i == j { 2.0 } else { 0.0 }
    });
    let wide = tall.transposed();
    for a in [tall, wide] {
        assert_streams_to_oracle(&tiny, &a);
    }
}

#[test]
fn vector_solves_bit_identical_across_thread_counts() {
    // The singular-vector acceptance gate: accumulation replays a
    // sequential host-side transform log, so `U` and `Vᵀ` — not just the
    // values — must carry identical bits at 1, 4, and 8 threads, for both
    // thin and truncated requests.
    use unisvd::Want;
    let mats = golden_batch();
    let factor_bits = |out: &unisvd::SvdOutput| -> Vec<u64> {
        let mut bits: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
        let u = out.u.as_ref().expect("vectors requested");
        let vt = out.vt.as_ref().expect("vectors requested");
        for j in 0..u.cols() {
            for i in 0..u.rows() {
                bits.push(u[(i, j)].to_bits());
            }
        }
        for j in 0..vt.cols() {
            for i in 0..vt.rows() {
                bits.push(vt[(i, j)].to_bits());
            }
        }
        bits
    };
    for want in [Want::Thin, Want::TopK(5)] {
        let cfg = SvdConfig {
            vectors: want,
            ..SvdConfig::default()
        };
        let run = |t: usize| -> Vec<Vec<u64>> {
            pool(t).install(|| {
                mats.iter()
                    .map(|a| {
                        let mut plan = Svd::on(&hw::h100())
                            .precision::<f64>()
                            .config(cfg)
                            .plan(a.rows(), a.cols())
                            .unwrap();
                        factor_bits(&plan.execute(a).unwrap())
                    })
                    .collect()
            })
        };
        let sequential = run(1);
        for t in [4, 8] {
            assert_eq!(
                run(t),
                sequential,
                "{want:?} vectors changed bits at {t} threads"
            );
        }
    }
}

#[test]
fn service_and_fleet_vector_solves_bit_identical() {
    // Vector requests through the serving layers: cached plans, coalesced
    // batches, and fleet routing must all carry the bits of a directly
    // driven plan — now including `U` / `Vᵀ`.
    use unisvd::{SvdFleet, Want};
    let mats = golden_batch();
    let cfg = SvdConfig {
        vectors: Want::Thin,
        params: Some(HyperParams::new(16, 8, 1)),
        ..SvdConfig::default()
    };
    let all_bits = |out: &unisvd::SvdOutput| -> Vec<u64> {
        let mut bits: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
        for m in [out.u.as_ref().unwrap(), out.vt.as_ref().unwrap()] {
            for j in 0..m.cols() {
                for i in 0..m.rows() {
                    bits.push(m[(i, j)].to_bits());
                }
            }
        }
        bits
    };
    let direct: Vec<Vec<u64>> = mats
        .iter()
        .map(|a| {
            let mut plan = Svd::on(&hw::h100())
                .precision::<f64>()
                .config(cfg)
                .plan(a.rows(), a.cols())
                .unwrap();
            all_bits(&plan.execute(a).unwrap())
        })
        .collect();
    for t in [1, 4, 8] {
        pool(t).install(|| {
            let service = SvdService::new(&hw::h100());
            for pass in ["cold", "warm"] {
                for (a, want) in mats.iter().zip(&direct) {
                    let got = all_bits(&service.solve(a, &cfg).unwrap());
                    assert_eq!(
                        &got, want,
                        "{pass} service vector solve changed bits at {t} threads"
                    );
                }
            }
            let fleet = SvdFleet::builder()
                .device(hw::h100())
                .device(hw::mi250())
                .replicate_after(2)
                .build();
            for (a, want) in mats.iter().zip(&direct) {
                let got = all_bits(&fleet.solve(a, &cfg).unwrap());
                assert_eq!(&got, want, "fleet vector solve changed bits at {t} threads");
            }
            let tickets: Vec<_> = mats
                .iter()
                .map(|a| service.submit(a.clone(), &cfg).expect("admitted"))
                .collect();
            for (ticket, want) in tickets.into_iter().zip(&direct) {
                let got = all_bits(&ticket.wait().unwrap());
                assert_eq!(&got, want, "async vector solve changed bits at {t} threads");
            }
        });
    }
}

#[test]
fn fault_schedule_bit_identical_across_thread_counts() {
    // The chaos gate's foundation: a seeded FaultPlan must inject the
    // SAME faults at the SAME event indices — and perturb results
    // identically — at 1, 4, and 8 threads. Injection decisions hash
    // (seed, channel, event counter) on the issuing thread, so the pool
    // size must be invisible to the schedule.
    use unisvd::{FaultPlan, FaultRecord};
    let a = testmat::kahan(48, 0.285);
    let plan = FaultPlan::seeded(0xC4A0)
        .corrupt_rate(0.10)
        .stall_rate(0.05)
        .alloc_fail_rate(0.25);
    let run = |t: usize| -> (Vec<FaultRecord>, Vec<u64>, bool) {
        pool(t).install(|| {
            let dev = Device::numeric(hw::h100().with_faults(plan.clone()));
            // Drive several solves through one device so every channel's
            // counter advances well past a handful of events; a ledger
            // alongside exercises the alloc channel deterministically.
            let mut bits = Vec::new();
            for _ in 0..3 {
                let out = unisvd::svdvals(&a, &dev);
                if let Ok(values) = out {
                    bits.extend(values.iter().map(|v| v.to_bits()));
                } else {
                    bits.push(u64::MAX); // NaN-poisoned runs fail alike
                }
            }
            let faulted = dev.take_fault().is_some();
            (dev.fault_history(), bits, faulted)
        })
    };
    let (schedule, bits, faulted) = run(1);
    assert!(
        !schedule.is_empty(),
        "rates this high must inject at least one fault"
    );
    for t in [4, 8] {
        let (s, b, f) = run(t);
        assert_eq!(s, schedule, "fault schedule changed at {t} threads");
        assert_eq!(b, bits, "faulted results changed bits at {t} threads");
        assert_eq!(f, faulted, "fault latch changed at {t} threads");
    }
    // A different seed must produce a different schedule (the plans are
    // decorrelated, not replayed).
    let other = pool(1).install(|| {
        let dev = Device::numeric(hw::h100().with_faults(FaultPlan::seeded(1).corrupt_rate(0.10)));
        let _ = unisvd::svdvals(&a, &dev);
        dev.fault_history()
    });
    assert_ne!(
        other, schedule,
        "different seeds may not share a fault schedule"
    );
}

/// FNV-1a over a stream of 64-bit words, byte by byte (little-endian).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn vector_bits_match_golden_fingerprint() {
    // Pins U/Vᵀ bits across commits, not just across thread counts: 42
    // solves (square, tall, wide and vector shapes; thin and truncated;
    // every stage-3 solver) hash to one committed constant. A change to
    // the accumulator layout or the replay order that moves a single
    // bit of any factor fails here.
    use unisvd::{Stage3Solver, Want};
    const GOLDEN: u64 = 0xfdc0_a13d_62a8_a6b0;
    let shapes = [
        (40, 40),
        (17, 9),
        (9, 17),
        (100, 37),
        (37, 100),
        (1, 7),
        (7, 1),
    ];
    let mut words = Vec::new();
    for (m, n) in shapes {
        let a = Matrix::<f64>::from_fn(m, n, |i, j| {
            (((i * 31 + j * 17 + m * 7) % 101) as f64 - 50.0) / 101.0
                + if i == j { 1.5 } else { 0.0 }
        });
        for want in [Want::Thin, Want::TopK(3)] {
            for solver in [
                Stage3Solver::Bdsqr,
                Stage3Solver::Dqds,
                Stage3Solver::Bisect,
            ] {
                let cfg = SvdConfig {
                    vectors: want,
                    solver,
                    ..SvdConfig::default()
                };
                let out = Svd::on(&hw::h100())
                    .precision::<f64>()
                    .config(cfg)
                    .plan(m, n)
                    .unwrap()
                    .execute(&a)
                    .unwrap();
                for f in [out.u.as_ref().unwrap(), out.vt.as_ref().unwrap()] {
                    words.push(f.rows() as u64);
                    words.push(f.cols() as u64);
                    words.extend(f.as_slice().iter().map(|v| v.to_bits()));
                }
            }
        }
    }
    let got = fnv1a(words);
    assert_eq!(
        got, GOLDEN,
        "U/Vᵀ fingerprint moved: {got:#018x} (want {GOLDEN:#018x})"
    );
}

#[test]
fn graded_vector_bits_match_golden_fingerprint() {
    // Pins U/Vᵀ bits on graded inputs, where the pin above uses small
    // structured matrices: logarithmic spectra over three decades chain
    // the smaller values into one cluster of the bidiagonal's inverse
    // iteration. 128² `Thin` and 256² `TopK(32)`, two seeded inputs
    // each.
    use rand::{rngs::StdRng, SeedableRng};
    use unisvd::Want;
    const GOLDEN: u64 = 0xf2b4_4c28_6f27_36b2;
    let mut words = Vec::new();
    for (n, want) in [(128, Want::Thin), (256, Want::TopK(32))] {
        let mut plan = Svd::on(&hw::h100())
            .precision::<f64>()
            .config(SvdConfig {
                vectors: want,
                ..SvdConfig::default()
            })
            .plan(n, n)
            .unwrap();
        for seed in [1, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let a =
                testmat::test_matrix::<f64, _>(n, SvDistribution::Logarithmic, true, &mut rng).0;
            let out = plan.execute(&a).unwrap();
            for f in [out.u.as_ref().unwrap(), out.vt.as_ref().unwrap()] {
                words.push(f.rows() as u64);
                words.push(f.cols() as u64);
                words.extend(f.as_slice().iter().map(|v| v.to_bits()));
            }
        }
    }
    let got = fnv1a(words);
    assert_eq!(
        got, GOLDEN,
        "graded U/Vᵀ fingerprint moved: {got:#018x} (want {GOLDEN:#018x})"
    );
}

/// Values of a solve as 64-bit words: the count, then each value's bits.
fn values_words<T: unisvd::Scalar>(a: &Matrix<f64>, params: HyperParams) -> Vec<u64> {
    let cfg = SvdConfig {
        params: Some(params),
        ..SvdConfig::default()
    };
    let dev = Device::numeric(hw::h100());
    let values = svdvals_with(&a.cast::<T>(), &dev, &cfg).unwrap().values;
    std::iter::once(values.len() as u64)
        .chain(values.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn values_bits_match_golden_fingerprint() {
    // Pins singular-value bits across commits in every precision, where
    // the U/Vᵀ fingerprint above covers f64 at the default tile only:
    // four tile geometries × four sizes (tile multiples and padded) ×
    // random, Kahan and zero-column inputs, each solved in f64, f32 and
    // F16. The zero columns drive the guarded (τ̂ = 0) reflector branch
    // of the panel kernels. A change to the stage-1 kernels' operation
    // order that moves a single bit of any value fails here.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd::F16;
    const GOLDEN: u64 = 0x7bc8_7776_c4ed_3920;
    let mut words = Vec::new();
    for (ts, cpb) in [(64, 32), (32, 32), (16, 8), (8, 4)] {
        let params = HyperParams::new(ts, cpb, 1);
        for n in [256, 100, 64, 33] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let random = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            let zero_cols =
                Matrix::<f64>::from_fn(n, n, |i, j| if j % 3 == 2 { 0.0 } else { random[(i, j)] });
            for a in [random, testmat::kahan(n, 0.285), zero_cols] {
                words.extend(values_words::<f64>(&a, params));
                words.extend(values_words::<f32>(&a, params));
                words.extend(values_words::<F16>(&a, params));
            }
        }
    }
    let got = fnv1a(words);
    assert_eq!(
        got, GOLDEN,
        "values fingerprint moved: {got:#018x} (want {GOLDEN:#018x})"
    );
}

/// Values of an out-of-core solve of `a` in precision `T` as 64-bit
/// words: the tile count, the value count, then each value's bits.
fn oocore_words<T: unisvd::Scalar>(
    hw: &unisvd::HardwareDescriptor,
    a: &Matrix<f64>,
    panels: usize,
) -> Vec<u64> {
    let mut plan = unisvd::OutOfCore::on(hw)
        .precision::<T>()
        .plan(a.rows(), a.cols())
        .unwrap();
    assert_eq!(plan.panels(), panels, "{}x{}", a.rows(), a.cols());
    let values = plan.execute(&a.cast::<T>()).unwrap().values;
    [panels as u64, values.len() as u64]
        .into_iter()
        .chain(values.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn oocore_values_match_golden_fingerprint() {
    // Pins out-of-core value bits across commits, where the streaming
    // test above compares thread counts within one build: one streaming
    // solve in f64 (24 tiles) and f32 (12 tiles) on a 16 KiB device.
    const GOLDEN: u64 = 0x538b_7c7e_95e7_ef6b;
    let mut tiny = hw::rtx4060();
    tiny.memory_bytes = 16 * 1024;
    let a = Matrix::<f64>::from_fn(96, 96, |i, j| {
        (((i * 13 + j * 29) % 97) as f64 - 48.0) / 97.0 + if i == j { 1.5 } else { 0.0 }
    });
    let mut words = oocore_words::<f64>(&tiny, &a, 24);
    words.extend(oocore_words::<f32>(&tiny, &a, 12));
    let got = fnv1a(words);
    assert_eq!(
        got, GOLDEN,
        "out-of-core values fingerprint moved: {got:#018x} (want {GOLDEN:#018x})"
    );
}

#[test]
fn launch_trace_matches_golden_fingerprint() {
    // Pins the simulated accounting across commits, where the test above
    // compares thread counts only: every record of the Kahan tile-16
    // trace (class, label, grid, block, the bits of seconds, flops,
    // bytes, occupancy and spill, and each workgroup's superstep count)
    // hashes to one committed constant. A kernel whose supersteps stop
    // counting one barrier each, or a cost that moves, fails here.
    const GOLDEN: u64 = 0x8c35_6400_eff6_0e63;
    let words = kahan_trace_keys(1).into_iter().flat_map(|k| {
        let (class, label, grid, block, s, f, b, occ, spill, steps) = k;
        let text = [class, label].into_iter().flat_map(|t| {
            std::iter::once(t.len() as u64).chain(t.into_bytes().into_iter().map(u64::from))
        });
        text.chain([grid as u64, block as u64, s, f, b, occ, spill])
            .chain(std::iter::once(steps.len() as u64))
            .chain(steps.into_iter().map(u64::from))
            .collect::<Vec<_>>()
    });
    let got = fnv1a(words);
    assert_eq!(
        got, GOLDEN,
        "launch-trace fingerprint moved: {got:#018x} (want {GOLDEN:#018x})"
    );
}
