//! Race-detector integration tests: deliberately racy kernels must panic;
//! the real pipeline must run clean under the detector.

use unisvd::{hw, Device, KernelClass, LaunchSpec, Matrix, SvDistribution};

#[test]
fn deliberate_write_write_race_is_caught() {
    let dev = Device::numeric(hw::h100()).race_checked();
    let buf = dev.upload(&[0.0f64; 16]);
    let mut spec = LaunchSpec::new(KernelClass::Other, "racy", 4, 4);
    spec.flops = 1.0;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch::<f64, _>(&spec, |wg| {
            // Every workgroup writes element 0: a textbook race.
            wg.step_lanes(|_, _| buf.write(0, 1.0));
        });
    }));
    assert!(
        result.is_err(),
        "the race detector must panic on overlapping writes"
    );
}

#[test]
fn disjoint_writes_pass_the_detector() {
    let dev = Device::numeric(hw::h100()).race_checked();
    let buf = dev.upload(&vec![0.0f64; 64]);
    let mut spec = LaunchSpec::new(KernelClass::Other, "clean", 8, 8);
    spec.flops = 1.0;
    dev.launch::<f64, _>(&spec, |wg| {
        let g = wg.group_id();
        wg.step_lanes(|r, _| {
            for tid in 0..r.lanes() {
                buf.write(g * 8 + tid, 1.0);
            }
        });
    });
    assert!(buf.to_vec().iter().all(|&x| x == 1.0));
}

#[test]
fn same_location_across_launches_is_fine() {
    // Rewriting an element in a *later* launch is not a race (epochs
    // differ) — exactly how the trailing update revisits tiles per panel.
    let dev = Device::numeric(hw::h100()).race_checked();
    let buf = dev.upload(&[0.0f64; 8]);
    let mut spec = LaunchSpec::new(KernelClass::Other, "two_launches", 1, 8);
    spec.flops = 1.0;
    for pass in 0..3 {
        dev.launch::<f64, _>(&spec, |wg| {
            wg.step_lanes(|r, _| {
                for tid in 0..r.lanes() {
                    buf.write(tid, pass as f64);
                }
            });
        });
    }
    assert!(buf.to_vec().iter().all(|&x| x == 2.0));
}

#[test]
fn hot_signature_hammered_from_many_threads() {
    // Worst-case cache contention: every thread requests the SAME
    // signature in a tight loop, so checkout/build/publish constantly
    // collide — the exact interleaving where a broken checkout/return
    // protocol would hand one plan to two threads (nondeterministic
    // bits) or corrupt the counters. Every solve must match the
    // single-threaded oracle bit for bit.
    use unisvd::{SvdConfig, SvdService};
    let a = unisvd::testmat::kahan(32, 0.285);
    let cfg = SvdConfig::default();
    let oracle: Vec<u64> = {
        let service = SvdService::new(&hw::h100());
        service
            .solve(&a, &cfg)
            .unwrap()
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let service = SvdService::new(&hw::h100());
    const THREADS: usize = 8;
    const ROUNDS: usize = 16;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (service, a, cfg, oracle) = (&service, &a, &cfg, &oracle);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let got: Vec<u64> = service
                        .solve(a, cfg)
                        .unwrap()
                        .values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(&got, oracle, "thread {t} round {r} changed bits");
                }
            });
        }
    });
    let stats = service.stats().cache;
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * ROUNDS) as u64,
        "every request is exactly one hit or one miss"
    );
    // One signature: at most one plan stays resident, and every extra
    // concurrently built plan must have been discarded on return.
    assert_eq!(stats.resident_plans, 1);
    assert_eq!(stats.misses, stats.discards + 1);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn submit_wait_hammer_loses_no_ticket() {
    // Bursty async producers against the drainer: each producer fires a
    // burst of submissions (distinct matrices, mixed shapes), then waits
    // all its tickets. Every ticket must resolve exactly once with the
    // bits of ITS OWN matrix — a swapped resolution order, a lost
    // ticket (this test would hang), or a double-resolve (the one-shot
    // slot would panic) all fail loudly. Coalescing across producers is
    // exercised by the shared shapes.
    use std::time::Duration;
    use unisvd::{SvdConfig, SvdService};
    const PRODUCERS: usize = 8;
    const ROUNDS: usize = 4;
    const BURST: usize = 6;
    let shapes = [16usize, 24, 32];
    let cfg = SvdConfig::default();
    let mat = |n: usize, k: usize| {
        Matrix::<f32>::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17 + k * 7) % 23) as f32 / 23.0 - 0.5
        })
    };
    // Oracle bits per (shape, burst index), from blocking solves.
    let oracle: Vec<Vec<Vec<u64>>> = {
        let service = SvdService::new(&hw::h100());
        shapes
            .iter()
            .map(|&n| {
                (0..BURST)
                    .map(|k| {
                        service
                            .solve(&mat(n, k), &cfg)
                            .unwrap()
                            .values
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    };
    let service = SvdService::builder(&hw::h100())
        .coalesce_window(Duration::from_micros(500))
        .build();
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (service, cfg, oracle, mat) = (&service, &cfg, &oracle, &mat);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let shape_idx = (t + r) % shapes.len();
                    let n = shapes[shape_idx];
                    let tickets: Vec<_> = (0..BURST)
                        .map(|k| service.submit(mat(n, k), cfg).expect("never full"))
                        .collect();
                    for (k, ticket) in tickets.into_iter().enumerate() {
                        let got: Vec<u64> = ticket
                            .wait()
                            .unwrap()
                            .values
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(
                            got, oracle[shape_idx][k],
                            "producer {t} round {r} ticket {k} got foreign bits"
                        );
                    }
                }
            });
        }
    });
    let stats = service.stats();
    let qs = stats.queue;
    let total = (PRODUCERS * ROUNDS * BURST) as u64;
    assert_eq!(qs.submitted, total);
    assert_eq!((qs.rejected, qs.shed), (0, 0));
    assert!(qs.batches >= 1 && qs.batches <= total);
    assert_eq!(
        qs.coalesced,
        total - qs.batches,
        "submissions partition exactly into batches"
    );
    assert_eq!(stats.cache.failures, 0);
}

#[test]
fn device_killed_mid_burst_resolves_every_ticket() {
    // Failover under fire: producers hammer a two-device fleet with
    // async bursts while the main thread kills a device mid-storm.
    // Every single ticket must resolve — queued entries re-route to the
    // survivor, in-flight batches finish, nothing hangs, and a lost
    // resolver would panic the waiter loudly. Afterwards the dead
    // device's ledger is empty and the survivor's books balance.
    use std::time::Duration;
    use unisvd::{SvdConfig, SvdFleet};
    const PRODUCERS: usize = 6;
    const BURSTS: usize = 8;
    const BURST: usize = 5;
    let cfg = SvdConfig::default();
    let shapes = [16usize, 24, 32];
    let mat = |n: usize, k: usize| {
        Matrix::<f32>::from_fn(n, n, |i, j| {
            ((i * 29 + j * 13 + k * 5) % 19) as f32 / 19.0 - 0.5
        })
    };
    let fleet = SvdFleet::builder()
        .device(hw::h100())
        .device(hw::a100())
        .replicate_after(2) // hot keys live on both devices pre-failure
        .build();
    let resolved = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (fleet, cfg, mat, resolved) = (&fleet, &cfg, &mat, &resolved);
            s.spawn(move || {
                for r in 0..BURSTS {
                    let n = shapes[(t + r) % shapes.len()];
                    let tickets: Vec<_> = (0..BURST)
                        .filter_map(|k| fleet.submit(mat(n, k), cfg).ok())
                        .collect();
                    for ticket in tickets {
                        // Ok (served by a survivor or pre-failure) or a
                        // typed rejection — but always a resolution.
                        let _ = ticket.wait();
                        resolved.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        // Let the storm build, then kill device 0 mid-burst.
        std::thread::sleep(Duration::from_millis(2));
        let report = fleet.fail_device(0);
        let _ = report; // counts vary with timing; resolution is the invariant
    });
    assert!(
        resolved.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "the storm must have resolved tickets"
    );
    assert!(!fleet.is_alive(0));
    assert!(fleet.is_alive(1));
    // The dead device returned every reserved byte; the survivor's
    // shard bytes and ledger agree exactly.
    assert_eq!(fleet.backend(0).stats().cache.resident_bytes, 0);
    assert!(fleet.backend(0).ledger_in_balance());
    assert!(fleet.backend(1).ledger_in_balance());
    // The fleet still serves: post-failure traffic lands on the survivor.
    let out = fleet.solve(&mat(24, 99), &cfg).expect("survivor serves");
    assert_eq!(out.values.len(), 24);
    // Killing the survivor too makes the fleet empty-handed: typed
    // rejection, not a hang.
    fleet.fail_device(1);
    assert!(fleet.solve(&mat(24, 100), &cfg).is_err());
}

#[test]
fn full_pipeline_is_race_free() {
    // The real kernels (fused and unfused, QR and LQ sweeps) under the
    // detector: any cross-workgroup overlapping write would panic here.
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(404);
    let (a, truth) =
        unisvd::testmat::test_matrix::<f64, _>(64, SvDistribution::Logarithmic, false, &mut rng);
    for fused in [true, false] {
        let dev = Device::numeric(hw::h100()).race_checked();
        let cfg = unisvd::SvdConfig {
            params: Some(unisvd::HyperParams::new(16, 8, 1)),
            fused,
            ..unisvd::SvdConfig::default()
        };
        let sv = unisvd::svdvals_with(&a, &dev, &cfg).unwrap().values;
        let err = unisvd::reference::sv_relative_error(&sv, &truth);
        assert!(err < 1e-12, "fused={fused}: err {err}");
    }
    // Also a non-square solve (padding path).
    let tall = Matrix::<f64>::from_fn(48, 24, |i, j| ((i * 7 + j * 13) % 11) as f64 / 11.0 - 0.5);
    let dev = Device::numeric(hw::h100()).race_checked();
    let sv = unisvd::svdvals(&tall, &dev).unwrap();
    assert_eq!(sv.len(), 24);
}

#[test]
fn chaos_hammer_resolves_every_ticket_and_balances_ledgers() {
    // The self-healing gate under fire: one fleet backend runs a seeded
    // ~5% fault schedule (corruption + stalls + transient alloc
    // failures) while 6 producers hammer both backends with async
    // bursts. With bounded retries on, every submitted ticket must
    // resolve (a lost ticket hangs this test), and at drain both
    // ledgers must balance — injected alloc refusals charge nothing.
    use std::sync::atomic::{AtomicU64, Ordering};
    use unisvd::{FaultPlan, SvdConfig, SvdFleet};
    const PRODUCERS: usize = 6;
    const BURSTS: usize = 6;
    const BURST: usize = 5;
    let cfg = SvdConfig::default();
    let shapes = [16usize, 24, 32];
    let mat = |n: usize, k: usize| {
        Matrix::<f32>::from_fn(n, n, |i, j| {
            ((i * 23 + j * 11 + k * 3) % 17) as f32 / 17.0 - 0.5
        })
    };
    let chaotic = hw::h100().with_faults(
        FaultPlan::seeded(0x5EED_CAFE)
            .corrupt_rate(0.05)
            .stall_rate(0.002)
            .alloc_fail_rate(0.02),
    );
    let fleet = SvdFleet::builder()
        .device(chaotic)
        .device(hw::a100())
        .backends(|s| s.retry(2))
        .replicate_after(2)
        .build();
    let submitted = AtomicU64::new(0);
    let resolved_ok = AtomicU64::new(0);
    let resolved_err = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (fleet, cfg, mat) = (&fleet, &cfg, &mat);
            let (submitted, resolved_ok, resolved_err) = (&submitted, &resolved_ok, &resolved_err);
            s.spawn(move || {
                for r in 0..BURSTS {
                    let n = shapes[(t + r) % shapes.len()];
                    let tickets: Vec<_> = (0..BURST)
                        .filter_map(|k| fleet.submit(mat(n, k), cfg).ok())
                        .collect();
                    submitted.fetch_add(tickets.len() as u64, Ordering::Relaxed);
                    for ticket in tickets {
                        match ticket.wait() {
                            Ok(out) => {
                                assert_eq!(out.values.len(), n);
                                resolved_ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                resolved_err.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let (sub, ok, err) = (
        submitted.load(Ordering::Relaxed),
        resolved_ok.load(Ordering::Relaxed),
        resolved_err.load(Ordering::Relaxed),
    );
    assert_eq!(ok + err, sub, "every submitted ticket resolved");
    assert!(
        sub > 0 && ok > 0,
        "the storm served traffic (ok {ok}/{sub})"
    );
    // With 2 retries against a ~5%-per-solve schedule, the overwhelming
    // majority must succeed end to end.
    assert!(
        ok * 10 >= sub * 9,
        "retries should absorb the schedule: only {ok}/{sub} succeeded"
    );
    assert!(
        fleet.backend(0).ledger_in_balance(),
        "chaotic ledger balances"
    );
    assert!(
        fleet.backend(1).ledger_in_balance(),
        "clean ledger balances"
    );
}
