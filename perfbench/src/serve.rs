//! The service workloads, over one signature mix.
//!
//! Sixteen signatures: 32², 48² and 64² squares in f32 and f64 plus tall
//! 1024×64 and wide 64×1024 f64, each under `Bdsqr` and `Dqds`. Their
//! popularity is Zipf-skewed in a fixed rank order, and the mix is larger
//! than the service's plan cache, so the rarest signatures miss.
//!
//! Both are closed loops with one caller, who issues the next call only
//! once the previous one has returned:
//!
//! * `serve_mixed` — same-signature bursts through `SvdService::submit`
//!   and `Ticket::wait`, so the drainer coalesces each burst.
//! * `batch_blocking` — blocking `SvdService::solve_batch` calls, each a
//!   group of 1–16 requests of one signature.
//!
//! `serve_mixed` is closed, not an open loop at a fixed offered rate: on
//! a 2-vCPU VM an open loop's p50 and p90 followed how fast the host
//! woke idle threads. In interleaved runs of one build they moved 50% and
//! 90% as the host drifted, where the closed loop's moved 8% and 15%.

use crate::gen;
use crate::lane::{lane, same_bits, within, Lane, Spec};
use crate::phase::{ms, Phase, ServiceDelta};
use crate::trace::{Tracer, EXECUTE, REQUEST, ROOT, SOLVE_BATCH, SUBMIT, WAIT};
use crate::{Args, Outcome, SETUP_REPS, SPAN_CAPACITY};
use std::time::{Duration, Instant};
use unisvd_core::{Stage3Solver, SvdConfig, SvdOutput};
use unisvd_gpu::hw;
use unisvd_scalar::PrecisionKind;
use unisvd_service::SvdService;

/// Requests in one same-signature burst.
const BURST: usize = 4;
/// Zipf exponent of signature popularity.
const ZIPF_S: f64 = 1.1;
/// Draws per stratified block: each block of calls holds the same mix
/// of signatures (and group sizes).
const BLOCK: usize = 128;
/// Calls in one workload's sequence; a run cycles through it.
const CALLS: usize = 1 << 14;
/// Plans the service may keep resident: two fewer than the signatures,
/// so the rarest miss now and then, a few percent of requests.
const CACHE_PLANS: usize = 14;
/// Distinct seeded inputs per signature.
const INPUTS: usize = 8;
/// Largest `solve_batch` group.
const GROUP_MAX: usize = 16;
/// Requests re-executed directly and through the stage replica after a
/// traced phase: one in this many.
const KEEP_EVERY: u32 = 8;

use PrecisionKind::{Fp32, Fp64};
use Stage3Solver::{Bdsqr, Dqds};

/// The signature mix, most popular first.
const SIGNATURES: [(usize, usize, PrecisionKind, Stage3Solver); 16] = [
    (32, 32, Fp32, Bdsqr),
    (48, 48, Fp64, Bdsqr),
    (64, 64, Fp32, Bdsqr),
    (32, 32, Fp64, Bdsqr),
    (48, 48, Fp32, Bdsqr),
    (64, 64, Fp64, Bdsqr),
    (32, 32, Fp32, Dqds),
    (48, 48, Fp64, Dqds),
    (64, 64, Fp32, Dqds),
    (1024, 64, Fp64, Bdsqr),
    (64, 1024, Fp64, Bdsqr),
    (32, 32, Fp64, Dqds),
    (48, 48, Fp32, Dqds),
    (64, 64, Fp64, Dqds),
    (1024, 64, Fp64, Dqds),
    (64, 1024, Fp64, Dqds),
];

fn service() -> SvdService {
    SvdService::builder(&hw::h100())
        .shards(1)
        .plans_per_shard(CACHE_PLANS)
        .build()
}

fn lanes(seed: u64) -> Vec<Box<dyn Lane>> {
    SIGNATURES
        .iter()
        .enumerate()
        .map(|(k, &(rows, cols, precision, solver))| {
            let spec = Spec {
                rows,
                cols,
                cfg: SvdConfig {
                    solver,
                    ..SvdConfig::default()
                },
            };
            let rng = &mut gen::stream(seed, 100 + k as u64);
            match precision {
                Fp32 => lane::<f32>(spec, INPUTS, GROUP_MAX, rng),
                _ => lane::<f64>(spec, INPUTS, GROUP_MAX, rng),
            }
        })
        .collect()
}

/// A completed request kept for the direct re-execution after a traced
/// phase.
struct Served {
    req: u32,
    lane: usize,
    input: usize,
    values: Vec<f64>,
}

/// One timed loop over a call sequence of `(signature, requests)`.
type Loop = fn(
    &SvdService,
    &[Box<dyn Lane>],
    &[(usize, usize)],
    Duration,
    &mut Tracer,
) -> Result<(Phase, Vec<Served>), String>;

pub fn serve_mixed(args: &Args) -> Result<Outcome, String> {
    let mut rng = gen::stream(args.seed, 1);
    let calls = signatures(&mut rng)
        .into_iter()
        .map(|l| (l, BURST))
        .collect();
    closed(args, calls, burst_loop)
}

pub fn batch_blocking(args: &Args) -> Result<Outcome, String> {
    let mut rng = gen::stream(args.seed, 2);
    let sigs = signatures(&mut rng);
    let sizes = gen::stratified(&[1.0; GROUP_MAX], BLOCK, CALLS, &mut rng);
    let calls = sigs
        .into_iter()
        .zip(sizes.into_iter().map(|g| g + 1))
        .collect();
    closed(args, calls, batch_loop)
}

/// The signature of each call: Zipf-skewed, stratified per block of
/// calls, so every seed offers the same mix.
fn signatures(rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    gen::stratified(&gen::zipf(SIGNATURES.len(), ZIPF_S), BLOCK, CALLS, rng)
}

/// Runs the gates and set-up, then `step` over `calls` for the run's
/// seconds; a traced run times the same sequence twice, untraced then
/// traced, so the two halves differ only by the tracing.
fn closed(args: &Args, calls: Vec<(usize, usize)>, step: Loop) -> Result<Outcome, String> {
    let mut lanes = lanes(args.seed);
    let total = Duration::from_secs_f64(args.seconds);
    let (base, svc) = prepare(&mut lanes)?;
    let mut tracer = Tracer::off(base.epoch);
    let (plain, traced) = if args.trace {
        let (plain, _) = step(&svc, &lanes, &calls, total / 2, &mut tracer)?;
        tracer = Tracer::new(base.epoch, SPAN_CAPACITY);
        let (ph, kept) = step(&svc, &lanes, &calls, total / 2, &mut tracer)?;
        replay_direct(&mut lanes, &kept, &mut tracer)?;
        (plain, Some(ph))
    } else {
        (step(&svc, &lanes, &calls, total, &mut tracer)?.0, None)
    };
    Ok(Outcome {
        setup_s: base.setup_s,
        rel_errs: base.errs,
        factor_err: None,
        plain,
        traced,
        tracer,
    })
}

/// What the gates and set-up leave for the timed phases.
struct Prepared {
    setup_s: Vec<f64>,
    errs: Vec<f64>,
    epoch: Instant,
}

/// Runs the correctness gates, then the set-up repetitions; returns the
/// last set-up's service for the timed phases.
fn prepare(lanes: &mut [Box<dyn Lane>]) -> Result<(Prepared, SvdService), String> {
    let epoch = Instant::now();
    let mut off = Tracer::off(epoch);
    // Gates: every input within tolerance, and the submitted, batched
    // and replicated values bit-identical to a direct plan.
    let svc = service();
    let mut out = SvdOutput::empty();
    let mut errs = Vec::new();
    for lane in lanes.iter_mut() {
        lane.plan(&mut off)?;
        let cfg = lane.spec().cfg;
        let tickets = (0..lane.inputs())
            .map(|i| lane.owned(i).submit(&svc, &cfg))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("gate: submit: {e}"))?;
        let batched = lane.solve_batch(&svc, lane.inputs());
        for (i, (ticket, batched)) in tickets.into_iter().zip(batched).enumerate() {
            lane.execute(i, &mut out)
                .map_err(|e| format!("gate: execute: {e}"))?;
            let err = lane.rel_err(i, &out.values);
            if !within(err, lane.value_tol()) {
                return Err(format!(
                    "gate: value error {err:e} above {:e}",
                    lane.value_tol()
                ));
            }
            errs.push(err);
            let served = ticket.wait().map_err(|e| format!("gate: wait: {e}"))?;
            let batched = batched.map_err(|e| format!("gate: solve_batch: {e}"))?;
            if !same_bits(&served.values, &out.values) || !same_bits(&batched.values, &out.values) {
                return Err("gate: served values differ from a direct plan".into());
            }
            if !same_bits(lane.replica(i, &mut off, 0)?, &out.values) {
                return Err("gate: stage replica differs from execute_into".into());
            }
        }
    }
    drop(svc);

    // Set-up: a fresh service, then the first (cold) solve of every
    // signature through it.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut service_left = None;
    for _ in 0..SETUP_REPS {
        drop(service_left.take());
        let t0 = Instant::now();
        let svc = service();
        for lane in lanes.iter() {
            lane.solve(&svc, 0).map_err(|e| format!("setup: {e}"))?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        service_left = Some(svc);
    }
    let svc = service_left.expect("at least one set-up repetition");
    Ok((
        Prepared {
            setup_s,
            errs,
            epoch,
        },
        svc,
    ))
}

/// Same-signature bursts back to back, in `calls` order, until `dur` has
/// elapsed: each burst's requests go through `submit`, then their
/// tickets are waited in order. Latency runs from the burst's first
/// submit to each ticket's result; inputs are copied before that.
fn burst_loop(
    svc: &SvdService,
    lanes: &[Box<dyn Lane>],
    calls: &[(usize, usize)],
    dur: Duration,
    tr: &mut Tracer,
) -> Result<(Phase, Vec<Served>), String> {
    let mut ph = Phase::default();
    let mut kept = Vec::new();
    let before = svc.stats();
    let mut next = vec![0usize; lanes.len()];
    let mut burst = Vec::new();
    let mut tickets = Vec::new();
    let start = Instant::now();
    let mut ready = start;
    let mut call = 0;
    let mut req = 0u32;
    while ready.duration_since(start) < dur {
        let (l, g) = calls[call % calls.len()];
        call += 1;
        let lane = &lanes[l];
        burst.extend((0..g).map(|_| {
            let input = next[l] % lane.inputs();
            next[l] += 1;
            (input, lane.owned(input))
        }));
        let t0 = Instant::now();
        ph.lag_ms.push(ms(t0 - ready));
        for (input, owned) in burst.drain(..) {
            let s0 = Instant::now();
            let res = owned.submit(svc, &lane.spec().cfg);
            tickets.push((input, s0, Instant::now(), res));
        }
        for (input, s0, s1, res) in tickets.drain(..) {
            ph.attempted += 1;
            let id = req;
            req += 1;
            let Ok(ticket) = res else {
                ph.failed += 1;
                continue;
            };
            let w0 = Instant::now();
            let res = ticket.wait();
            let w1 = Instant::now();
            let Ok(out) = res else {
                ph.failed += 1;
                continue;
            };
            ph.complete(w1 - t0, w1 - start);
            ph.sim.add(&out.summary);
            if !within(lane.rel_err(input, &out.values), lane.value_tol()) {
                ph.wrong += 1;
            }
            if tr.is_on() {
                let span = tr.record(REQUEST, tr.at(t0), tr.at(w1), ROOT, id);
                tr.record(SUBMIT, tr.at(s0), tr.at(s1), span, id);
                tr.record(WAIT, tr.at(w0), tr.at(w1), span, id);
                if id.is_multiple_of(KEEP_EVERY) {
                    kept.push(Served {
                        req: id,
                        lane: l,
                        input,
                        values: out.values,
                    });
                }
            }
        }
        ready = Instant::now();
    }
    ph.service = Some(ServiceDelta::between(&before, &svc.stats()));
    Ok((ph, kept))
}

/// Blocking `solve_batch` calls back to back, in `calls` order, until
/// `dur` has elapsed. Every request of a group has the call's latency.
fn batch_loop(
    svc: &SvdService,
    lanes: &[Box<dyn Lane>],
    calls: &[(usize, usize)],
    dur: Duration,
    tr: &mut Tracer,
) -> Result<(Phase, Vec<Served>), String> {
    let mut ph = Phase::default();
    let mut kept = Vec::new();
    let before = svc.stats();
    let start = Instant::now();
    let mut ready = start;
    let mut call = 0;
    let mut req = 0u32;
    while ready.duration_since(start) < dur {
        let (l, g) = calls[call % calls.len()];
        call += 1;
        let lane = &lanes[l];
        let t0 = Instant::now();
        let results = lane.solve_batch(svc, g);
        let t1 = Instant::now();
        ph.lag_ms.push(ms(t0 - ready));
        if tr.is_on() {
            tr.record(SOLVE_BATCH, tr.at(t0), tr.at(t1), ROOT, req);
        }
        for (j, res) in results.into_iter().enumerate() {
            ph.attempted += 1;
            let input = j % lane.inputs();
            match res {
                Err(_) => ph.failed += 1,
                Ok(out) => {
                    ph.complete(t1 - t0, t1 - start);
                    ph.sim.add(&out.summary);
                    if !within(lane.rel_err(input, &out.values), lane.value_tol()) {
                        ph.wrong += 1;
                    }
                    if tr.is_on() {
                        tr.record(REQUEST, tr.at(t0), tr.at(t1), ROOT, req);
                        if req.is_multiple_of(KEEP_EVERY) {
                            kept.push(Served {
                                req,
                                lane: l,
                                input,
                                values: out.values,
                            });
                        }
                    }
                }
            }
            req += 1;
        }
        ready = Instant::now();
    }
    ph.service = Some(ServiceDelta::between(&before, &svc.stats()));
    Ok((ph, kept))
}

/// Re-executes the kept requests on direct plans (one `core.execute`
/// span each, under the request's id) and through the stage replica,
/// asserting both match the served values bit for bit.
fn replay_direct(
    lanes: &mut [Box<dyn Lane>],
    kept: &[Served],
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut planned = vec![false; lanes.len()];
    let mut out = SvdOutput::empty();
    for s in kept {
        let lane = &mut lanes[s.lane];
        if !planned[s.lane] {
            lane.plan(tr)?;
            // The first execute of a fresh plan warms its buffers.
            lane.execute(s.input, &mut out).map_err(|e| e.to_string())?;
            planned[s.lane] = true;
        }
        let t0 = Instant::now();
        lane.execute(s.input, &mut out).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tr.record(EXECUTE, tr.at(t0), tr.at(t1), ROOT, s.req);
        if !same_bits(&out.values, &s.values) {
            return Err("served values differ from a direct plan".into());
        }
        if !same_bits(lane.replica(s.input, tr, s.req)?, &out.values) {
            return Err("stage replica differs from execute_into".into());
        }
    }
    Ok(())
}
