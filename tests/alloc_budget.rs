//! Allocation-budget regression harness: a counting global allocator
//! proves the steady-state claims of the zero-allocation execution path.
//!
//! * [`SvdPlan::execute_into`] performs **zero heap allocations** once
//!   the plan's workspaces and the reused output shell have warmed up
//!   (one solve), for every stage-3 solver.
//! * A warm [`SvdService::solve_into`] — checkout, execute, publish —
//!   is equally allocation-free.
//!
//! The cold paths (planning, first execute, the one-shot API) are *not*
//! asserted — they legitimately allocate workspaces — but their budgets
//! are printed as a table so a future regression is visible in test
//! output, and coarse sanity bounds keep them from exploding silently.
//!
//! All phases run inside a single `#[test]` because the allocation
//! counters are global: a sibling test running concurrently would bleed
//! its allocations into a measurement window. The counters see every
//! thread, so work fanned out to the work-stealing pool is measured too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rand::{rngs::StdRng, Rng, SeedableRng};
use unisvd::{Stage3Solver, Svd, SvdConfig, SvdOutput, SvdService};
use unisvd_gpu::hw::h100;
use unisvd_matrix::{testmat, Matrix, SvDistribution};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if TRACKING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is as much a steady-state violation as a fresh
        // allocation; count the full new size.
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled; returns `(allocs, bytes)`.
fn measure(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn mats(n: usize, count: usize, dist: SvDistribution, seed: u64) -> Vec<Matrix<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| testmat::test_matrix::<f32, _>(n, dist, true, &mut rng).0)
        .collect()
}

#[test]
fn steady_state_allocates_zero_bytes() {
    const N: usize = 32;
    let inputs = mats(N, 6, SvDistribution::Logarithmic, 0xA110C);
    // dqds interior splits are handled in place (the outer window is
    // suspended on the workspace's split stack — no allocating
    // recursion); the dedicated splitting-input phase below pins that.
    // The main loop keeps a well-coupled arithmetic spectrum so each
    // solver sees comparable, split-free work.
    let coupled = mats(N, 6, SvDistribution::Arithmetic, 0xA110D);
    let mut budget_rows: Vec<(String, u64, u64)> = Vec::new();

    // ---- SvdPlan::execute_into, every stage-3 solver -----------------
    for solver in [
        Stage3Solver::Bdsqr,
        Stage3Solver::Dqds,
        Stage3Solver::Bisect,
    ] {
        let inputs = if solver == Stage3Solver::Dqds {
            &coupled
        } else {
            &inputs
        };
        let cfg = SvdConfig {
            solver,
            ..SvdConfig::default()
        };
        let mut plan = Svd::on(&h100())
            .precision::<f32>()
            .config(cfg)
            .plan(N, N)
            .unwrap();
        let mut out = SvdOutput::empty();
        // Warmup: grows workspaces, the output shell, trace totals, and
        // the device's workgroup contexts to their steady-state footprint.
        for a in inputs.iter().take(2) {
            plan.execute_into(a, &mut out).unwrap();
        }
        let (allocs, bytes) = measure(|| {
            for a in inputs {
                plan.execute_into(a, &mut out).unwrap();
            }
        });
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "warm SvdPlan::execute_into ({solver:?}) must not allocate: \
             {allocs} allocations / {bytes} bytes over {} solves",
            inputs.len()
        );
        assert!(!out.values.is_empty(), "the measured solves ran for real");
    }

    // ---- warm execute_into with singular vectors ---------------------
    // Warmup runs over the SAME matrices the measurement will replay, so
    // any buffer whose size followed the data would already be grown to
    // that matrix's footprint (capacity only ever grows). Thin and top-k
    // both must be allocation-free once warm, for every solver.
    for want in [unisvd::Want::Thin, unisvd::Want::TopK(N / 4)] {
        for solver in [
            Stage3Solver::Bdsqr,
            Stage3Solver::Dqds,
            Stage3Solver::Bisect,
        ] {
            let inputs = if solver == Stage3Solver::Dqds {
                &coupled
            } else {
                &inputs
            };
            let cfg = SvdConfig {
                solver,
                vectors: want,
                ..SvdConfig::default()
            };
            let mut plan = Svd::on(&h100())
                .precision::<f32>()
                .config(cfg)
                .plan(N, N)
                .unwrap();
            let mut out = SvdOutput::empty();
            for a in inputs {
                plan.execute_into(a, &mut out).unwrap();
            }
            let (allocs, bytes) = measure(|| {
                for a in inputs {
                    plan.execute_into(a, &mut out).unwrap();
                }
            });
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "warm execute_into with {want:?} vectors ({solver:?}) must not \
                 allocate: {allocs} allocations / {bytes} bytes over {} solves",
                inputs.len()
            );
            assert!(
                out.u.is_some() && out.vt.is_some(),
                "the measured solves produced factors"
            );
        }
    }

    // ---- warm execute_into with vectors, tall and wide shapes -------
    // Tall and wide inputs solve the host QR's triangle on the device and
    // lift one factor back through Q_h; the lift and the transposed
    // copies out of the accumulators must reuse plan scratch as well.
    for (rows, cols) in [(2 * N, 3 * N / 4), (3 * N / 4, 2 * N)] {
        let mut rng = StdRng::seed_from_u64(0xA110F);
        let shaped: Vec<Matrix<f32>> = (0..3)
            .map(|_| Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0)))
            .collect();
        for want in [unisvd::Want::Thin, unisvd::Want::TopK(N / 4)] {
            let cfg = SvdConfig {
                vectors: want,
                ..SvdConfig::default()
            };
            let mut plan = Svd::on(&h100())
                .precision::<f32>()
                .config(cfg)
                .plan(rows, cols)
                .unwrap();
            let mut out = SvdOutput::empty();
            for a in &shaped {
                plan.execute_into(a, &mut out).unwrap();
            }
            let (allocs, bytes) = measure(|| {
                for a in &shaped {
                    plan.execute_into(a, &mut out).unwrap();
                }
            });
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "warm {rows}x{cols} execute_into with {want:?} vectors must not \
                 allocate: {allocs} allocations / {bytes} bytes over {} solves",
                shaped.len()
            );
            assert!(
                out.u.is_some() && out.vt.is_some(),
                "the measured solves produced factors"
            );
        }
    }

    // ---- multi-workgroup launches (work-stealing pool engaged) -------
    // At the tuned f32 defaults a 64x64 solve runs every launch as one
    // workgroup; a 16-wide tile splits its stage-1 updates and stage-2
    // sweeps into several workgroups per kernel, so the measured window
    // crosses the thread pool: job submission, stealing, and each
    // workgroup's context on the device must all be allocation-free, at
    // every pool size.
    {
        let cfg = SvdConfig {
            params: Some(unisvd::HyperParams::new(16, 8, 1)),
            ..SvdConfig::default()
        };
        let wide = mats(64, 3, SvDistribution::Logarithmic, 0xA110E);
        let dev = unisvd_gpu::Device::numeric(h100()).keep_records();
        unisvd::svdvals_with(&wide[0], &dev, &cfg).unwrap();
        let records = dev.records();
        let multi = records.iter().filter(|r| r.grid > 1).count();
        let max_grid = records.iter().map(|r| r.grid).max().unwrap_or(0);
        assert!(
            multi > 0,
            "the phase must launch several workgroups per kernel \
             ({multi} of {} launches with grid > 1, largest grid {max_grid})",
            records.len()
        );
        for threads in [1, 2, 4, 8] {
            let pool = unisvd::threading::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for want in [unisvd::Want::None, unisvd::Want::Thin] {
                let cfg = SvdConfig {
                    vectors: want,
                    ..cfg
                };
                let mut plan = Svd::on(&h100())
                    .precision::<f32>()
                    .config(cfg)
                    .plan(64, 64)
                    .unwrap();
                let mut out = SvdOutput::empty();
                pool.install(|| plan.execute_into(&wide[0], &mut out))
                    .unwrap();
                for rep in 0..5 {
                    let (allocs, bytes) = measure(|| {
                        pool.install(|| {
                            for a in &wide {
                                plan.execute_into(a, &mut out).unwrap();
                            }
                        })
                    });
                    assert_eq!(
                        (allocs, bytes),
                        (0, 0),
                        "warm 64x64 execute_into with {want:?} vectors (tile 16, \
                         {threads} pool threads, rep {rep}) must not allocate: \
                         {allocs} allocations / {bytes} bytes"
                    );
                }
            }
        }
    }

    // ---- warm coalesced batch path -----------------------------------
    // execute_batch_refs_into runs chunk c on lane c; after one warmup
    // pass the plan's extra lanes, the output shells, and every lane's
    // workspaces are at steady state — a second pass over the same
    // request count must not allocate.
    {
        let cfg = SvdConfig::default();
        let mut plan = Svd::on(&h100())
            .precision::<f32>()
            .config(cfg)
            .plan(N, N)
            .unwrap();
        let refs: Vec<&Matrix<f32>> = inputs.iter().collect();
        let mut outs: Vec<SvdOutput> = (0..refs.len()).map(|_| SvdOutput::empty()).collect();
        let mut statuses: Vec<Result<(), unisvd::SvdError>> = vec![Ok(()); refs.len()];
        plan.execute_batch_refs_into(&refs, &mut outs, &mut statuses);
        assert!(statuses.iter().all(|s| s.is_ok()));
        let workers = plan.batch_workers();
        let (allocs, bytes) = measure(|| {
            plan.execute_batch_refs_into(&refs, &mut outs, &mut statuses);
        });
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "warm execute_batch_refs_into ({workers} of the plan's extra lanes, {} requests) \
             must not allocate: {allocs} allocations / {bytes} bytes",
            refs.len()
        );
        assert_eq!(
            plan.batch_workers(),
            workers,
            "the measured pass must reuse the plan's extra lanes, not regrow them"
        );
        assert!(statuses.iter().all(|s| s.is_ok()));
    }

    // ---- dqds splitting input (workspace-resident split stack) -------
    // Exact-zero interior superdiagonal entries decouple the active
    // window repeatedly. The split path used to recurse through the
    // allocating entry point; now it pushes the suspended outer window
    // onto the workspace's split stack, so a warmed workspace solves
    // splitting inputs allocation-free like any other.
    {
        use unisvd::{dqds_into, Bidiagonal, Stage3Workspace};
        let n = 24;
        let bi = Bidiagonal {
            d: (0..n).map(|i| 1.0 + ((i * 5) % 7) as f64 * 0.25).collect(),
            e: (0..n - 1)
                .map(|i| {
                    if i % 6 == 5 {
                        0.0
                    } else {
                        0.3 + ((i * 3) % 5) as f64 * 0.1
                    }
                })
                .collect(),
        };
        let mut ws = Stage3Workspace::default();
        dqds_into(&bi, &mut ws).unwrap();
        assert_eq!(ws.values().len(), n, "the splitting input solved for real");
        let (allocs, bytes) = measure(|| {
            for _ in 0..4 {
                dqds_into(&bi, &mut ws).unwrap();
            }
        });
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "warm dqds_into on a splitting input must not allocate: \
             {allocs} allocations / {bytes} bytes"
        );
    }

    // ---- stage calls on a narrow extracted band ----------------------
    // The public stage sequence (upload, band_diag, extract_band_into
    // into an (n, 1, ts + 1) band, band_to_bidiagonal_into): the first
    // chase widens the caller's band in place to the work geometry, so
    // every later extraction refills the wide band and every later chase
    // runs in place, allocation-free.
    {
        use unisvd::{band_to_bidiagonal_into, BandMatrix, Bidiagonal, PrecisionKind};
        use unisvd_core::{band_diag, extract_band_into};
        let p = unisvd::HyperParams::new(8, 4, 1);
        let ts = p.tilesize;
        let dev = unisvd_gpu::Device::numeric(h100());
        let buf = dev.alloc::<f32>(N * N);
        let tau = dev.alloc::<f32>(N);
        let mut band = BandMatrix::<f32>::zeros(N, 1, ts + 1);
        let mut bi = Bidiagonal::new(Vec::new(), Vec::new());
        let mut solve = |a: &Matrix<f32>| {
            dev.reset();
            dev.upload_into(a.as_slice(), &buf);
            tau.fill(0.0);
            band_diag(&dev, &buf, &tau, N, &p, true);
            extract_band_into::<f32>(&dev, &buf, N, ts, &mut band);
            band_to_bidiagonal_into(&dev, &mut band, ts, PrecisionKind::Fp32, ts, &mut bi);
        };
        solve(&inputs[0]);
        let (allocs, bytes) = measure(|| inputs.iter().for_each(&mut solve));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "warm stage calls on a narrow extracted band must not allocate: \
             {allocs} allocations / {bytes} bytes over {} solves",
            inputs.len()
        );
        assert_eq!(bi.d.len(), N, "the measured solves ran for real");
    }

    // ---- warm out-of-core streaming execute_into ---------------------
    // The streaming phase charges one transfer per tile straight from
    // the operand's slice: after one warmup solve the inner plan's
    // workspaces and the output shell are at steady state — every
    // further oversized solve is allocation-free end to end. Tall
    // operands stream too, through the inner plan's host QR.
    {
        use unisvd::OutOfCore;
        let mut tiny = h100();
        tiny.memory_bytes = 4 * 1024; // neither operand fits any more
        let mut rng = StdRng::seed_from_u64(0xA1110);
        let tall: Vec<Matrix<f32>> = (0..3)
            .map(|_| Matrix::from_fn(8 * N, N, |_, _| rng.gen_range(-1.0f32..1.0)))
            .collect();
        for shaped in [&inputs, &tall] {
            let (rows, cols) = (shaped[0].rows(), shaped[0].cols());
            let mut plan = OutOfCore::on(&tiny)
                .precision::<f32>()
                .plan(rows, cols)
                .unwrap();
            let mut out = SvdOutput::empty();
            for a in shaped.iter().take(2) {
                plan.execute_into(a, &mut out).unwrap();
            }
            let (allocs, bytes) = measure(|| {
                for a in shaped {
                    plan.execute_into(a, &mut out).unwrap();
                }
            });
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "warm {rows}x{cols} out-of-core streaming execute_into must not \
                 allocate: {allocs} allocations / {bytes} bytes over {} solves",
                shaped.len()
            );
            assert!(!out.values.is_empty(), "the measured solves ran for real");
        }
    }

    // ---- warm SvdService::solve_into ---------------------------------
    let cfg = SvdConfig::default();
    let service = SvdService::new(&h100());
    let mut out = SvdOutput::empty();
    for a in inputs.iter().take(2) {
        service.solve_into(a, &cfg, &mut out).unwrap();
    }
    let (allocs, bytes) = measure(|| {
        for a in &inputs {
            service.solve_into(a, &cfg, &mut out).unwrap();
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "warm SvdService::solve_into must not allocate: \
         {allocs} allocations / {bytes} bytes over {} solves",
        inputs.len()
    );
    let stats = service.stats().cache;
    assert!(
        stats.hits >= inputs.len() as u64,
        "the measured window must have been all cache hits ({stats})"
    );

    // ---- cold-path budget table (informational + coarse bounds) ------
    let (allocs, bytes) = measure(|| {
        let plan = Svd::on(&h100())
            .precision::<f32>()
            .config(cfg)
            .plan(N, N)
            .unwrap();
        std::hint::black_box(&plan);
    });
    budget_rows.push(("Svd::plan (cold)".into(), allocs, bytes));

    let mut plan = Svd::on(&h100())
        .precision::<f32>()
        .config(cfg)
        .plan(N, N)
        .unwrap();
    let mut out = SvdOutput::empty();
    let (allocs, bytes) = measure(|| {
        plan.execute_into(&inputs[0], &mut out).unwrap();
    });
    budget_rows.push(("first execute_into (warmup)".into(), allocs, bytes));

    let (allocs, bytes) = measure(|| {
        let dev = unisvd_gpu::Device::numeric(h100());
        unisvd::svdvals_with(&inputs[0], &dev, &cfg).unwrap();
    });
    budget_rows.push(("one-shot svdvals_with".into(), allocs, bytes));

    let mut vplan = Svd::on(&h100())
        .precision::<f32>()
        .config(SvdConfig {
            vectors: unisvd::Want::Thin,
            ..cfg
        })
        .plan(N, N)
        .unwrap();
    let mut vout = SvdOutput::empty();
    let (allocs, bytes) = measure(|| {
        vplan.execute_into(&inputs[0], &mut vout).unwrap();
    });
    budget_rows.push(("first execute_into (thin vectors)".into(), allocs, bytes));

    let service = SvdService::new(&h100());
    let (allocs, bytes) = measure(|| {
        service.solve(&inputs[0], &cfg).unwrap();
    });
    budget_rows.push(("SvdService::solve (cache miss)".into(), allocs, bytes));

    println!("\ncold-path allocation budgets ({N}x{N} f32, H100):");
    println!("  {:<34} {:>8} {:>12}", "path", "allocs", "bytes");
    for (label, allocs, bytes) in &budget_rows {
        println!("  {label:<34} {allocs:>8} {bytes:>12}");
        assert!(
            *allocs > 0,
            "{label}: a cold path with zero allocations means the \
             measurement window is broken"
        );
        assert!(
            *allocs < 100_000 && *bytes < 256 * 1024 * 1024,
            "{label}: cold-path budget exploded ({allocs} allocs, {bytes} bytes)"
        );
    }
}
