//! Behavioral tests of the serving layer: cache hit/miss accounting,
//! eviction under entry and memory bounds, request coalescing, error
//! parity with the plan API, and bit-identity against directly driven
//! plans.

use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;
use unisvd_core::{Svd, SvdConfig, SvdError, Want};
use unisvd_gpu::hw::{h100, mi250};
use unisvd_matrix::{testmat, Matrix, SvDistribution};
use unisvd_scalar::F16;
use unisvd_service::{ServiceError, SvdService};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_square(n: usize, seed: u64) -> Matrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    testmat::test_matrix::<f32, _>(n, SvDistribution::Logarithmic, false, &mut rng).0
}

#[test]
fn cached_and_uncached_solves_match_direct_plan_bits() {
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let a = random_square(40, 1);
    let mut plan = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(40, 40)
        .unwrap();
    let direct = plan.execute(&a).unwrap();
    let cold = service.solve(&a, &cfg).unwrap();
    let warm = service.solve(&a, &cfg).unwrap();
    assert_eq!(bits(&cold.values), bits(&direct.values));
    assert_eq!(bits(&warm.values), bits(&direct.values));
    let stats = service.stats().cache;
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(stats.resident_plans, 1);
    assert_eq!(stats.resident_bytes, plan.device_bytes());
}

#[test]
fn cold_solve_costs_more_host_overhead_than_warm() {
    // A plan's first solve on its own lane pays the one-shot driver
    // share (planning happened for it); every later solve, and every
    // solve on an extra batch lane, pays dispatch only. Every path
    // charges the host driver share (`Other`) that way; device-stage
    // work is equal.
    use unisvd_gpu::hw::rtx4060;
    use unisvd_gpu::KernelClass::*;
    let cfg = SvdConfig::default();
    let a = random_square(32, 2);
    let service = SvdService::new(&h100());
    let cold = service.solve(&a, &cfg).unwrap();
    let hit = service.solve(&a, &cfg).unwrap();
    for class in [PanelFactorization, TrailingUpdate, BandToBidiagonal] {
        assert_eq!(
            cold.summary.seconds_of(class),
            hit.summary.seconds_of(class)
        );
    }
    let one_shot = cold.summary.seconds_of(Other);
    let dispatch = hit.summary.seconds_of(Other);
    assert!(one_shot > dispatch);

    // Out-of-core fallback: a fresh streaming plan per request.
    let mut tiny = rtx4060();
    tiny.memory_bytes = 32 * 1024;
    let oocore = SvdService::builder(&tiny)
        .oocore_fallback(true)
        .build()
        .solve(&random_square(96, 9), &cfg)
        .unwrap();

    // A warmed signature: planned ahead, first executed live.
    let warmed = SvdService::new(&h100());
    assert_eq!(warmed.warm(&[warmed.signature::<f32>(32, 32, &cfg)]), 1);
    let warmed_first = warmed.solve(&a, &cfg).unwrap();
    let warmed_second = warmed.solve(&a, &cfg).unwrap();

    // A fresh plan's batch and a fresh service's group: member 0 runs on
    // lane 0 and pays for planning, members 1-2 run on warm extra lanes.
    let mut plan = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(32, 32)
        .unwrap();
    let batch = plan.execute_batch(&[a.clone(), a.clone(), a.clone()]);
    let grouped = SvdService::new(&h100()).solve_batch(&[a.clone(), a.clone(), a.clone()], &cfg);

    let mut table = vec![
        ("hit", &hit, dispatch),
        ("oocore fallback", &oocore, one_shot),
        ("warmed first solve", &warmed_first, one_shot),
        ("warmed second solve", &warmed_second, dispatch),
    ];
    for (path, outs) in [("batch member", &batch), ("solve_batch member", &grouped)] {
        for (i, out) in outs.iter().enumerate() {
            let want = if i == 0 { one_shot } else { dispatch };
            table.push((path, out.as_ref().unwrap(), want));
        }
    }
    for (path, out, want) in table {
        let got = out.summary.seconds_of(Other);
        assert!(
            (got - want).abs() < 1e-15,
            "{path}: driver share {got:e}, want {want:e}"
        );
    }
}

#[test]
fn eviction_under_tight_entry_capacity() {
    // One shard, two resident plans max: the third distinct signature
    // must evict the least-recently-used one.
    let service = SvdService::builder(&h100())
        .shards(1)
        .plans_per_shard(2)
        .build();
    let cfg = SvdConfig::default();
    for n in [16, 24, 32] {
        service.solve(&random_square(n, n as u64), &cfg).unwrap();
    }
    let stats = service.stats().cache;
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.resident_plans, 2);
    // The evicted signature (16, the oldest) misses again; 32 still hits.
    service.solve(&random_square(32, 32), &cfg).unwrap();
    service.solve(&random_square(16, 16), &cfg).unwrap();
    let stats = service.stats().cache;
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 4);
}

#[test]
fn zero_capacity_disables_caching() {
    let service = SvdService::builder(&h100())
        .shards(4)
        .plans_per_shard(0)
        .build();
    let cfg = SvdConfig::default();
    let a = random_square(24, 9);
    let first = service.solve(&a, &cfg).unwrap();
    let second = service.solve(&a, &cfg).unwrap();
    assert_eq!(bits(&first.values), bits(&second.values));
    let stats = service.stats().cache;
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.discards, 2, "every returned plan is dropped");
    assert_eq!(stats.resident_plans, 0);
    assert_eq!(stats.resident_bytes, 0);
}

#[test]
fn memory_budget_bounds_resident_bytes() {
    let cfg = SvdConfig::default();
    // Measure one plan's footprint, then budget for ~1.5 of them.
    let probe = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(64, 64)
        .unwrap();
    let one = probe.device_bytes();
    let service = SvdService::builder(&h100())
        .shards(1)
        .plans_per_shard(8)
        .memory_budget(one + one / 2)
        .build();
    // Two same-footprint signatures: the second insert must evict the
    // first (entry capacity allows both; memory does not).
    service.solve(&random_square(64, 10), &cfg).unwrap();
    service.solve(&random_square(63, 11), &cfg).unwrap(); // same padded size
    let stats = service.stats().cache;
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.resident_plans, 1);
    assert!(stats.resident_bytes <= service.cache_budget_bytes());
}

#[test]
fn plan_larger_than_budget_is_discarded_not_cached() {
    let cfg = SvdConfig::default();
    let service = SvdService::builder(&h100())
        .shards(1)
        .plans_per_shard(8)
        .memory_budget(1024) // smaller than any real plan
        .build();
    let out = service.solve(&random_square(32, 12), &cfg).unwrap();
    assert!(!out.values.is_empty());
    let stats = service.stats().cache;
    assert_eq!(stats.discards, 1);
    assert_eq!(stats.resident_plans, 0);
}

#[test]
fn plan_over_half_the_budget_stays_cached_after_a_group() {
    // A device whose budget holds one 32x32 f32 plan and half of
    // another: a group of 3 may grow no extra lane, so the plan still
    // fits the cache ledger and every later group is a hit.
    let cfg = SvdConfig::default();
    let own = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(32, 32)
        .unwrap()
        .device_bytes();
    let mut hw = h100();
    hw.memory_bytes = (1.5 * 1.3 * own as f64).ceil() as u64;
    let service = SvdService::new(&hw);
    let mats: Vec<Matrix<f32>> = (0..3).map(|i| random_square(32, 40 + i)).collect();
    let oracle = SvdService::new(&h100()).solve_batch(&mats, &cfg);
    for _ in 0..3 {
        let got = service.solve_batch(&mats, &cfg);
        for (g, w) in got.iter().zip(&oracle) {
            assert_eq!(
                bits(&g.as_ref().unwrap().values),
                bits(&w.as_ref().unwrap().values)
            );
        }
    }
    let stats = service.stats().cache;
    assert_eq!(
        (
            stats.misses,
            stats.hits,
            stats.discards,
            stats.resident_plans
        ),
        (1, 2, 0, 1),
        "{stats}"
    );
    assert!(stats.resident_bytes <= service.cache_budget_bytes());
}

#[test]
fn faults_ride_lane_zero_only() {
    // Every execute on a faulty device's own stream is corrupted, and
    // extra lanes run fault-free: in a group of 4 only the request on
    // lane 0 fails.
    use unisvd_gpu::FaultPlan;
    let chaotic = h100().with_faults(FaultPlan::seeded(7).corrupt_rate(1.0));
    let cfg = SvdConfig::default();
    let service = SvdService::new(&chaotic);
    let mats: Vec<Matrix<f64>> = (0..4).map(|i| random_square_f64(24, 60 + i)).collect();
    let got = service.solve_batch(&mats, &cfg);
    assert!(
        matches!(got[0], Err(SvdError::DeviceFault(_))),
        "{:?}",
        got[0]
    );
    let oracle = SvdService::new(&h100()).solve_batch(&mats, &cfg);
    for (g, w) in got.iter().zip(&oracle).skip(1) {
        assert_eq!(
            bits(&g.as_ref().unwrap().values),
            bits(&w.as_ref().unwrap().values)
        );
    }
    assert_eq!(service.stats().cache.failures, 1);
}

#[test]
fn solve_batch_coalesces_and_matches_individual_solves() {
    let cfg = SvdConfig::default();
    // Mixed shapes interleaved: 3 distinct signatures over 9 requests.
    let mats: Vec<Matrix<f32>> = (0..9)
        .map(|i| random_square([24, 32, 48][i % 3], 100 + i as u64))
        .collect();
    let service = SvdService::new(&h100());
    let batched = service.solve_batch(&mats, &cfg);
    assert_eq!(batched.len(), 9);
    let stats = service.stats().cache;
    assert_eq!(
        stats.misses, 3,
        "one plan build per distinct shape, not per request"
    );
    assert_eq!(stats.resident_plans, 3);
    // Request order preserved, values identical to per-request solves.
    let oracle = SvdService::new(&h100());
    for (a, res) in mats.iter().zip(&batched) {
        let single = oracle.solve(a, &cfg).unwrap();
        assert_eq!(bits(&res.as_ref().unwrap().values), bits(&single.values));
    }
    // A second batch is served entirely from cache.
    let rebatched = service.solve_batch(&mats, &cfg);
    assert_eq!(service.stats().cache.misses, 3);
    assert_eq!(service.stats().cache.hits, 3);
    for (first, second) in batched.iter().zip(&rebatched) {
        assert_eq!(
            bits(&first.as_ref().unwrap().values),
            bits(&second.as_ref().unwrap().values)
        );
    }
}

#[test]
fn error_parity_with_the_plan_api() {
    // Unsupported (device, precision) surfaces exactly like the one-shot
    // API, and nothing broken lands in the cache.
    let service = SvdService::new(&mi250());
    let cfg = SvdConfig::default();
    let a = Matrix::<F16>::identity(16);
    assert!(matches!(
        service.solve(&a, &cfg),
        Err(SvdError::Unsupported(_))
    ));
    let batch = service.solve_batch(&[a], &cfg);
    assert!(matches!(batch[0], Err(SvdError::Unsupported(_))));
    assert_eq!(service.stats().cache.resident_plans, 0);
}

#[test]
fn precisions_get_distinct_signatures() {
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let sig32 = service.signature::<f32>(32, 32, &cfg);
    let sig64 = service.signature::<f64>(32, 32, &cfg);
    assert_ne!(sig32, sig64);
    service.solve(&Matrix::<f32>::identity(32), &cfg).unwrap();
    service.solve(&Matrix::<f64>::identity(32), &cfg).unwrap();
    let stats = service.stats().cache;
    assert_eq!(stats.misses, 2, "f32 and f64 plans must not collide");
    assert_eq!(stats.resident_plans, 2);
}

#[test]
fn concurrent_mixed_workload_is_consistent() {
    // Many threads, several signatures, shared service: every result
    // must equal the single-threaded oracle, and the counters must add
    // up (each request is exactly one hit or one miss).
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let shapes = [16usize, 24, 32];
    let oracle: Vec<Vec<u64>> = shapes
        .iter()
        .map(|&n| {
            let svc = SvdService::new(&h100());
            bits(&svc.solve(&random_square(n, n as u64), &cfg).unwrap().values)
        })
        .collect();
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let service = &service;
            let oracle = &oracle;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let which = (t + r) % shapes.len();
                    let n = shapes[which];
                    let out = service.solve(&random_square(n, n as u64), &cfg).unwrap();
                    assert_eq!(bits(&out.values), oracle[which], "thread {t} round {r}");
                }
            });
        }
    });
    let stats = service.stats().cache;
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
    assert!(stats.misses >= shapes.len() as u64);
    assert!(stats.resident_plans <= shapes.len() + stats.discards as usize);
}

#[test]
fn warm_from_signature_trace_eliminates_cold_start_misses() {
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    // A recorded trace: two f32 shapes and one f64 shape, plus a
    // signature for a different device (must be skipped).
    let mut sigs = vec![
        service.signature::<f32>(24, 24, &cfg),
        service.signature::<f32>(32, 32, &cfg),
        service.signature::<f64>(16, 16, &cfg),
    ];
    let foreign = SvdService::new(&mi250()).signature::<f32>(24, 24, &cfg);
    sigs.push(foreign);
    let built = service.warm(&sigs);
    assert_eq!(built, 3, "three local signatures, one foreign skipped");
    let stats = service.stats().cache;
    assert_eq!(stats.resident_plans, 3);
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "warming is not live traffic"
    );
    // Every first live request is now a hit: no cold-start misses.
    for n in [24usize, 32] {
        service.solve(&random_square(n, n as u64), &cfg).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(9);
    let a64 = testmat::test_matrix::<f64, _>(16, SvDistribution::Arithmetic, false, &mut rng).0;
    service.solve(&a64, &cfg).unwrap();
    let stats = service.stats().cache;
    assert_eq!((stats.hits, stats.misses), (3, 0));
    // Re-warming already-resident signatures builds nothing.
    assert_eq!(service.warm(&sigs), 0);
    // Warmed plans produce bit-identical values to a direct plan.
    let direct = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(24, 24)
        .unwrap()
        .execute(&random_square(24, 24))
        .unwrap();
    let served = service.solve(&random_square(24, 24), &cfg).unwrap();
    assert_eq!(bits(&served.values), bits(&direct.values));
}

#[test]
fn hot_plan_survives_memory_pressure_from_other_shards() {
    // Budget sized for two resident plans; shapes hash to different
    // shards with overwhelming probability over 8 shards. The recently
    // used (hot) plan must survive pressure created by a third shape;
    // the least-recently-used one goes, wherever it lives.
    // Shapes 24/28/32 all pad to the same 32-edge f32 problem, so every
    // plan pins the same device bytes and the budget math is exact.
    let cfg = SvdConfig::default();
    let probe = SvdService::new(&h100());
    probe.solve(&random_square(24, 0), &cfg).unwrap();
    let one_plan = probe.stats().cache.resident_bytes;
    let service = SvdService::builder(&h100())
        .shards(8)
        .plans_per_shard(8)
        .memory_budget(one_plan * 2 + one_plan / 2)
        .build();
    service.solve(&random_square(24, 1), &cfg).unwrap(); // shape A
    service.solve(&random_square(28, 2), &cfg).unwrap(); // shape B
    service.solve(&random_square(24, 3), &cfg).unwrap(); // A again: hot
    let before = service.stats().cache;
    assert_eq!(before.resident_plans, 2);
    // Pressure from a third shape: the global LRU (B) is evicted even
    // though the insert happens on a different shard.
    service.solve(&random_square(32, 4), &cfg).unwrap(); // shape C
    let after = service.stats().cache;
    assert_eq!(after.evictions - before.evictions, 1);
    assert_eq!(after.resident_plans, 2);
    // A is still resident (hit); B was evicted (miss).
    service.solve(&random_square(24, 5), &cfg).unwrap();
    assert_eq!(service.stats().cache.hits, before.hits + 1);
    service.solve(&random_square(28, 6), &cfg).unwrap();
    assert_eq!(service.stats().cache.misses, before.misses + 2);
}

#[test]
fn solve_into_reuses_output_and_matches_solve() {
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let a = random_square(28, 11);
    let b = random_square(28, 12);
    let reference_a = service.solve(&a, &cfg).unwrap();
    let reference_b = service.solve(&b, &cfg).unwrap();
    let mut out = unisvd_core::SvdOutput::empty();
    service.solve_into(&a, &cfg, &mut out).unwrap();
    assert_eq!(bits(&out.values), bits(&reference_a.values));
    let ptr = out.values.as_ptr();
    service.solve_into(&b, &cfg, &mut out).unwrap();
    assert_eq!(bits(&out.values), bits(&reference_b.values));
    assert_eq!(out.padded_n, reference_b.padded_n);
    assert_eq!(
        out.values.as_ptr(),
        ptr,
        "the output shell's vector must be reused, not reallocated"
    );
}

/// A matrix whose solve deterministically fails: NaN data is rejected as
/// `NonFiniteInput` after plan checkout — the per-request runtime
/// failure the error-isolation tests inject.
fn poison(n: usize) -> Matrix<f32> {
    Matrix::from_fn(n, n, |_, _| f32::NAN)
}

#[test]
fn submitted_tickets_match_blocking_solves() {
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let mats: Vec<Matrix<f32>> = (0..6).map(|i| random_square(24, 200 + i)).collect();
    let oracle: Vec<Vec<u64>> = mats
        .iter()
        .map(|a| bits(&service.solve(a, &cfg).unwrap().values))
        .collect();
    let tickets: Vec<_> = mats
        .iter()
        .map(|a| service.submit(a.clone(), &cfg).expect("admitted"))
        .collect();
    for (ticket, expect) in tickets.into_iter().zip(&oracle) {
        assert_eq!(
            &bits(&ticket.wait().unwrap().values),
            expect,
            "async result must be bit-identical to the blocking solve"
        );
    }
    let qs = service.stats().queue;
    assert_eq!(qs.submitted, 6);
    assert_eq!((qs.rejected, qs.shed), (0, 0));
    assert_eq!(
        qs.coalesced,
        qs.submitted - qs.batches,
        "every non-head batch member counts as coalesced"
    );
    assert_eq!(qs.in_flight, 0, "all tickets resolved, nothing in flight");
}

#[test]
fn coalescer_groups_cross_caller_submissions_into_one_batch() {
    // A window long enough that all producers land inside it, with
    // max_coalesce equal to the request count: the drainer must close
    // exactly one batch covering every submission.
    const REQUESTS: usize = 8;
    let service = SvdService::builder(&h100())
        .coalesce_window(Duration::from_secs(10))
        .max_coalesce(REQUESTS)
        .build();
    let cfg = SvdConfig::default();
    let oracle = bits(
        &SvdService::new(&h100())
            .solve(&random_square(24, 7), &cfg)
            .unwrap()
            .values,
    );
    let tickets: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..REQUESTS)
            .map(|_| {
                let service = &service;
                s.spawn(move || {
                    service
                        .submit(random_square(24, 7), &cfg)
                        .expect("admitted")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ticket in tickets {
        assert_eq!(bits(&ticket.wait().unwrap().values), oracle);
    }
    let qs = service.stats().queue;
    assert_eq!(qs.batches, 1, "one coalesced batch for all callers");
    assert_eq!(qs.coalesced, (REQUESTS - 1) as u64);
    let stats = service.stats().cache;
    assert_eq!(
        stats.hits + stats.misses,
        1,
        "one plan checkout serves the whole batch"
    );
}

#[test]
fn default_window_coalesces_what_queues_behind_a_running_batch() {
    // No window: the drainer batches only what is queued. A long vector
    // solve A is submitted first, then four small same-signature B's.
    // Whether or not the drainer has popped A yet, the B's queue behind
    // it and run as one batch, unless A finishes before they are all
    // submitted (a cold 256² f64 vector solve takes far longer).
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let long_cfg = SvdConfig {
        vectors: Want::Thin,
        ..cfg
    };
    let small: Vec<Matrix<f32>> = (0..4).map(|i| random_square(24, 400 + i)).collect();
    let oracle: Vec<Vec<u64>> = small
        .iter()
        .map(|a| bits(&service.solve(a, &cfg).unwrap().values))
        .collect();
    let long = service
        .submit(random_square_f64(256, 42), &long_cfg)
        .expect("admitted");
    let tickets: Vec<_> = small
        .iter()
        .map(|a| service.submit(a.clone(), &cfg).expect("admitted"))
        .collect();
    for (ticket, expect) in tickets.into_iter().zip(&oracle) {
        assert_eq!(&bits(&ticket.wait().unwrap().values), expect);
    }
    assert!(long.wait().is_ok());
    let qs = service.stats().queue;
    assert_eq!(qs.batches, 2, "A alone, then the four B's together");
    assert_eq!(qs.coalesced, 3);
    assert_eq!(qs.submitted, qs.batches + qs.coalesced);
}

#[test]
fn queue_full_backpressure_rejects_at_admission() {
    // Depth bound 1 and a long window: the first submission sits in the
    // queue while the drainer holds its batch open, so the second is
    // refused deterministically.
    let service = SvdService::builder(&h100())
        .queue_depth(1)
        .coalesce_window(Duration::from_secs(30))
        .max_coalesce(8)
        .build();
    let cfg = SvdConfig::default();
    let a = random_square(16, 3);
    let ticket = service.submit(a.clone(), &cfg).expect("first fits");
    match service.submit(a.clone(), &cfg) {
        Err(ServiceError::QueueFull { depth }) => assert_eq!(depth, 1),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(service.stats().queue.rejected, 1);
    // Shutdown closes the window early and still resolves the accepted
    // submission — no accepted ticket is lost to backpressure elsewhere.
    let oracle = bits(&SvdService::new(&h100()).solve(&a, &cfg).unwrap().values);
    drop(service);
    assert_eq!(bits(&ticket.wait().unwrap().values), oracle);
}

#[test]
fn shedding_refuses_non_resident_requests_when_headroom_is_low() {
    let cfg = SvdConfig::default();
    let probe = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(16, 16)
        .unwrap();
    let one = probe.device_bytes();
    // Budget fits one plan plus a sliver; the shedding floor is far
    // above the sliver, so once a plan is resident only its own
    // signature stays admissible.
    let service = SvdService::builder(&h100())
        .shards(1)
        .plans_per_shard(8)
        .memory_budget(one + 64)
        .shed_headroom(one / 2)
        .build();
    let a = random_square(16, 4);
    service.solve(&a, &cfg).unwrap(); // make the 16x16 plan resident
    let warm_ticket = service
        .submit(a.clone(), &cfg)
        .expect("resident signatures are always admitted");
    assert!(warm_ticket.wait().is_ok());
    match service.submit(random_square(32, 5), &cfg) {
        Err(ServiceError::Shedding { available_bytes }) => {
            assert!(available_bytes < one / 2);
        }
        other => panic!("expected Shedding, got {other:?}"),
    }
    assert_eq!(service.stats().queue.shed, 1);
}

#[test]
fn one_poisoned_request_fails_alone_in_a_coalesced_group() {
    // Error isolation (blocking batch): a same-shape group with one
    // NonFiniteInput request in the middle — the others keep bit-exact
    // results, and the failure is counted.
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let good: Vec<Matrix<f32>> = (0..4).map(|i| random_square(24, 300 + i)).collect();
    let oracle: Vec<Vec<u64>> = good
        .iter()
        .map(|a| bits(&service.solve(a, &cfg).unwrap().values))
        .collect();
    let mats = vec![
        good[0].clone(),
        good[1].clone(),
        poison(24),
        good[2].clone(),
        good[3].clone(),
    ];
    let failures_before = service.stats().cache.failures;
    let results = service.solve_batch(&mats, &cfg);
    assert!(matches!(results[2], Err(SvdError::NonFiniteInput)));
    for (r, expect) in results
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(i, r)| (r, &oracle[if i < 2 { i } else { i - 1 }]))
    {
        assert_eq!(&bits(&r.as_ref().unwrap().values), expect);
    }
    assert_eq!(
        service.stats().cache.failures - failures_before,
        1,
        "exactly the poisoned request counts as a failure"
    );

    // Same through the async coalescer: force one batch containing the
    // poison and assert only its ticket errors.
    let service = SvdService::builder(&h100())
        .coalesce_window(Duration::from_secs(10))
        .max_coalesce(5)
        .build();
    let tickets: Vec<_> = mats
        .iter()
        .map(|a| service.submit(a.clone(), &cfg).expect("admitted"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let result = ticket.wait();
        if i == 2 {
            assert!(matches!(result, Err(SvdError::NonFiniteInput)));
        } else {
            let expect = &oracle[if i < 2 { i } else { i - 1 }];
            assert_eq!(&bits(&result.unwrap().values), expect);
        }
    }
    assert_eq!(service.stats().cache.failures, 1);
    assert_eq!(service.stats().queue.batches, 1, "one coalesced batch");
}

#[test]
fn failing_requests_never_leak_ledger_budget() {
    // Regression for the reservation-leak class: a loop of requests
    // whose publishes are all rejected (the plan alone exceeds the
    // cache budget) and whose solves all fail must leave the ledger
    // exactly where it started — zero resident bytes.
    let service = SvdService::builder(&h100())
        .shards(2)
        .plans_per_shard(4)
        .memory_budget(1024) // smaller than any real plan
        .build();
    let cfg = SvdConfig::default();
    let bad = poison(24);
    for _ in 0..5 {
        assert!(matches!(
            service.solve(&bad, &cfg),
            Err(SvdError::NonFiniteInput)
        ));
        let ticket = service.submit(bad.clone(), &cfg).expect("admitted");
        assert!(matches!(ticket.wait(), Err(SvdError::NonFiniteInput)));
    }
    let stats = service.stats().cache;
    assert_eq!(
        stats.resident_bytes, 0,
        "every rejected publish must return its reservation"
    );
    assert_eq!(stats.resident_plans, 0);
    assert_eq!(stats.failures, 10);
    assert_eq!(stats.discards, 10, "all 10 publishes declined");
}

#[test]
fn warm_reports_zero_when_caching_is_disabled() {
    // plans_per_shard = 0 disables caching; publish declines every plan,
    // so warm must not claim readiness it did not achieve.
    let service = SvdService::builder(&h100())
        .shards(4)
        .plans_per_shard(0)
        .build();
    let cfg = SvdConfig::default();
    let sigs = [service.signature::<f32>(24, 24, &cfg)];
    assert_eq!(service.warm(&sigs), 0);
    assert_eq!(service.stats().cache.resident_plans, 0);
}

fn random_square_f64(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    testmat::test_matrix::<f64, _>(n, SvDistribution::Logarithmic, false, &mut rng).0
}

#[test]
fn infinite_entry_resolves_its_ticket_and_the_service_keeps_serving() {
    // One `+Inf` entry must not wedge the drainer: its own ticket
    // resolves with the typed input error, the next request is served
    // bit-identically to a direct plan, the in-flight gauge returns to
    // zero, and the blocking batch path fails only the bad request.
    let service = SvdService::new(&h100());
    let cfg = SvdConfig::default();
    let good = random_square_f64(32, 41);
    let mut bad = good.clone();
    bad[(3, 5)] = f64::INFINITY;
    let direct = Svd::on(&h100())
        .precision::<f64>()
        .config(cfg)
        .plan(32, 32)
        .unwrap()
        .execute(&good)
        .unwrap();
    let limit = Duration::from_secs(5);
    let bad_ticket = service.submit(bad.clone(), &cfg).expect("admitted");
    assert!(matches!(
        bad_ticket.wait_timeout(limit),
        Err(SvdError::NonFiniteInput)
    ));
    let good_ticket = service.submit(good.clone(), &cfg).expect("admitted");
    let served = good_ticket
        .wait_timeout(limit)
        .expect("the drainer keeps serving");
    assert_eq!(bits(&served.values), bits(&direct.values));
    assert_eq!(service.stats().queue.in_flight, 0);
    let batch = service.solve_batch(&[bad, good], &cfg);
    assert!(matches!(batch[0], Err(SvdError::NonFiniteInput)));
    assert_eq!(
        bits(&batch[1].as_ref().expect("batch survives").values),
        bits(&direct.values)
    );
    assert_eq!(service.stats().queue.in_flight, 0);
}

#[test]
fn solve_batch_honours_the_retry_policy_like_solve_and_submit() {
    // A 30% corruption schedule with `retry(8)`: every entry point must
    // retry its transient faults away, and the failure counter must
    // agree with what the callers saw.
    use unisvd_gpu::FaultPlan;
    let chaotic = h100().with_faults(FaultPlan::seeded(7).corrupt_rate(0.3));
    let cfg = SvdConfig::default();
    let mats: Vec<Matrix<f64>> = (0..40).map(|i| random_square_f64(24, 500 + i)).collect();
    let service = || SvdService::builder(&chaotic).retry(8).build();

    let blocking = service();
    let solve_failed = mats
        .iter()
        .filter(|a| blocking.solve(a, &cfg).is_err())
        .count();
    let queued = service();
    let submit_failed = mats
        .iter()
        .filter(|a| {
            let ticket = queued.submit((*a).clone(), &cfg).expect("admitted");
            ticket.wait().is_err()
        })
        .count();
    let batched = service();
    let batch_failed = mats
        .iter()
        .filter(|a| batched.solve_batch(std::slice::from_ref(*a), &cfg)[0].is_err())
        .count();

    for (path, failed, svc) in [
        ("solve", solve_failed, &blocking),
        ("submit/wait", submit_failed, &queued),
        ("solve_batch", batch_failed, &batched),
    ] {
        assert_eq!(failed, 0, "{path} surfaced a retryable fault");
        assert_eq!(svc.stats().cache.failures, 0, "{path} failure count");
    }
}

#[test]
fn oocore_fallback_streams_oversized_requests_bit_identically() {
    // A device shrunk to 32 KiB rejects a 96x96 f32 plan as
    // over-capacity (the probe marks it oocore-eligible). Without the
    // knob the service surfaces exactly that rejection; with it, the
    // request streams through the out-of-core path and its values are
    // bit-identical to a device large enough to hold the operand —
    // through all three entry points (solve, solve_batch, submit).
    use unisvd_core::PlanError;
    use unisvd_gpu::hw::rtx4060;
    let mut tiny = rtx4060();
    tiny.memory_bytes = 32 * 1024;
    let cfg = SvdConfig::default();
    let a = random_square(96, 9);

    let plain = SvdService::builder(&tiny).build();
    assert!(matches!(
        plain.solve(&a, &cfg),
        Err(SvdError::Plan(PlanError::ExceedsDeviceMemory {
            oocore_eligible: true,
            ..
        }))
    ));

    let mut big = tiny.clone();
    big.memory_bytes = 1 << 30;
    let oracle = Svd::on(&big)
        .precision::<f32>()
        .config(cfg)
        .plan(96, 96)
        .unwrap()
        .execute(&a)
        .unwrap();

    let service = SvdService::builder(&tiny).oocore_fallback(true).build();
    let solved = service.solve(&a, &cfg).expect("streams instead of failing");
    assert_eq!(bits(&solved.values), bits(&oracle.values));

    let batch = service.solve_batch(&[a.clone(), a.clone()], &cfg);
    for r in batch {
        assert_eq!(
            bits(&r.expect("batched fallback").values),
            bits(&oracle.values)
        );
    }

    let ticket = service.submit(a.clone(), &cfg).expect("admitted");
    let asynced = ticket.wait().expect("drainer fallback");
    assert_eq!(bits(&asynced.values), bits(&oracle.values));
    assert_eq!(service.stats().cache.failures, 0);
}

#[test]
fn device_below_one_element_refuses_oocore_at_plan_time() {
    // A 4-byte device (3-byte budget) cannot stream even one f32: both
    // the direct out-of-core planner and the service fallback refuse it
    // with a typed, non-transient plan error before any solve runs.
    use unisvd_core::PlanError;
    use unisvd_oocore::OutOfCore;
    let mut hw = h100();
    hw.memory_bytes = 4;
    let refused = |e: &PlanError| {
        matches!(
            e,
            PlanError::ExceedsDeviceMemory {
                oocore_eligible: false,
                ..
            }
        )
    };
    let direct = OutOfCore::on(&hw).precision::<f32>().plan(8, 8);
    assert!(matches!(&direct, Err(e) if refused(e)), "direct plan");

    let service = SvdService::builder(&hw).oocore_fallback(true).build();
    let err = service
        .solve(&random_square(8, 11), &SvdConfig::default())
        .unwrap_err();
    assert!(
        matches!(&err, SvdError::Plan(e) if refused(e)),
        "got {err:?}"
    );
    assert!(!err.is_transient());
}

#[test]
fn oocore_fallback_leaves_fitting_requests_on_the_cached_path() {
    // The knob must not perturb in-core serving: a fitting request still
    // plans, caches, and hits exactly as before.
    let service = SvdService::builder(&h100()).oocore_fallback(true).build();
    let cfg = SvdConfig::default();
    let a = random_square(32, 10);
    let baseline = SvdService::new(&h100()).solve(&a, &cfg).unwrap();
    let cold = service.solve(&a, &cfg).unwrap();
    let warm = service.solve(&a, &cfg).unwrap();
    assert_eq!(bits(&cold.values), bits(&baseline.values));
    assert_eq!(bits(&warm.values), bits(&baseline.values));
    let stats = service.stats().cache;
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(stats.resident_plans, 1);
}
