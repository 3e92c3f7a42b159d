//! The plan workloads: one caller in a closed loop over reused plans.
//!
//! * `dense_values` — values-only 256² solves cycling F16, f32 and f64,
//!   logarithmic spectrum, `Bdsqr`: the paper's `svdvals`.
//! * `lora_vectors` — f64 singular-vector solves alternating `Thin` at
//!   128² with `TopK(32)` at 256²: the LoRA use case.

use crate::lane::{lane, same_bits, within, Lane, Spec, FACTOR_TOL};
use crate::phase::{ms, Phase};
use crate::trace::{Tracer, EXECUTE, EXECUTE_VALUES, ROOT};
use crate::{gen, Args, Outcome, SETUP_REPS, SPAN_CAPACITY};
use std::time::{Duration, Instant};
use unisvd_core::{SvdConfig, SvdOutput, Want};
use unisvd_scalar::F16;

/// Distinct seeded inputs per signature.
const INPUTS: usize = 6;

fn spec(n: usize, vectors: Want) -> Spec {
    Spec {
        rows: n,
        cols: n,
        cfg: SvdConfig {
            vectors,
            ..SvdConfig::default()
        },
    }
}

pub fn dense_values(args: &Args) -> Result<Outcome, String> {
    let s = |k| gen::stream(args.seed, k);
    let lanes = vec![
        lane::<F16>(spec(256, Want::None), INPUTS, 0, &mut s(0)),
        lane::<f32>(spec(256, Want::None), INPUTS, 0, &mut s(1)),
        lane::<f64>(spec(256, Want::None), INPUTS, 0, &mut s(2)),
    ];
    run(args, lanes, &[0, 1, 2])
}

pub fn lora_vectors(args: &Args) -> Result<Outcome, String> {
    let s = |k| gen::stream(args.seed, k);
    let lanes = vec![
        lane::<f64>(spec(128, Want::Thin), INPUTS, 0, &mut s(10)),
        lane::<f64>(spec(256, Want::TopK(32)), INPUTS, 0, &mut s(11)),
    ];
    // Two `Thin` solves per `TopK` solve. The two take about 1:2 of the
    // time, so at 1:1 the median would fall in the gap between the two
    // latency modes and jump between them from run to run; at 2:1 the
    // p50 lies inside the `Thin` mode and the p90 inside the `TopK` one.
    run(args, lanes, &[0, 0, 1])
}

/// Runs the gates, the set-up and the timed phases of a plan workload
/// that visits `lanes` in the repeating `order`.
fn run(args: &Args, mut lanes: Vec<Box<dyn Lane>>, order: &[usize]) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = if args.trace {
        Tracer::new(epoch, SPAN_CAPACITY)
    } else {
        Tracer::off(epoch)
    };
    let vectors = lanes[0].spec().cfg.vectors != Want::None;

    // Correctness gates, before any timing: every input within tolerance
    // of its spectrum, factors orthonormal and reconstructing, and the
    // stage replica bit-identical to `execute_into`.
    let mut off = Tracer::off(epoch);
    let mut out = SvdOutput::empty();
    let mut twin = SvdOutput::empty();
    let mut rel_errs = Vec::new();
    let mut factor_err = 0.0f64;
    for lane in lanes.iter_mut() {
        lane.plan(&mut off)?;
        for i in 0..lane.inputs() {
            lane.execute(i, &mut out)
                .map_err(|e| format!("gate: execute: {e}"))?;
            let err = lane.rel_err(i, &out.values);
            if !within(err, lane.value_tol()) {
                return Err(format!(
                    "gate: value error {err:e} above {:e}",
                    lane.value_tol()
                ));
            }
            rel_errs.push(err);
            if vectors {
                let f = lane.factor_err(i, &out);
                if !within(f, FACTOR_TOL) {
                    return Err(format!("gate: factor error {f:e} above {FACTOR_TOL:e}"));
                }
                factor_err = factor_err.max(f);
                lane.execute_values(i, &mut twin, &mut off)?;
                if !same_bits(&twin.values[..out.values.len()], &out.values) {
                    return Err("gate: vector solve perturbed the values".into());
                }
            }
            if !same_bits(lane.replica(i, &mut off, 0)?, &out.values) {
                return Err("gate: stage replica differs from execute_into".into());
            }
        }
    }

    // Set-up: build every plan and run its first (cold) execute.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for lane in lanes.iter_mut() {
            lane.plan(&mut tr)?;
            lane.execute(0, &mut out)
                .map_err(|e| format!("setup: {e}"))?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let total = Duration::from_secs_f64(args.seconds);
    let (plain, traced) = if args.trace {
        let plain = closed_loop(&mut lanes, order, total / 2, &mut off, vectors)?;
        let traced = closed_loop(&mut lanes, order, total / 2, &mut tr, vectors)?;
        (plain, Some(traced))
    } else {
        let plain = closed_loop(&mut lanes, order, total, &mut off, vectors)?;
        (plain, None)
    };
    Ok(Outcome {
        setup_s,
        rel_errs,
        factor_err: vectors.then_some(factor_err),
        plain,
        traced,
        tracer: tr,
    })
}

/// Solves back to back, visiting lanes in the repeating `order` and each
/// lane's inputs in turn, until `dur` has elapsed. When `tr` records,
/// each solve's `execute_into` becomes a span and its input is then
/// replayed through the values-only twin (on vector workloads) and the
/// stage replica, outside the latency.
fn closed_loop(
    lanes: &mut [Box<dyn Lane>],
    order: &[usize],
    dur: Duration,
    tr: &mut Tracer,
    vectors: bool,
) -> Result<Phase, String> {
    let mut ph = Phase::default();
    let mut out = SvdOutput::empty();
    let mut twin = SvdOutput::empty();
    let mut visits = vec![0usize; lanes.len()];
    let start = Instant::now();
    let mut ready = start;
    let mut i = 0usize;
    while ready.duration_since(start) < dur {
        let k = order[i % order.len()];
        let lane = &mut lanes[k];
        let input = visits[k] % lane.inputs();
        visits[k] += 1;
        let req = i as u32;
        let t0 = Instant::now();
        let res = lane.execute(input, &mut out);
        let t1 = Instant::now();
        ph.attempted += 1;
        ph.lag_ms.push(ms(t0 - ready));
        if res.is_err() {
            ph.failed += 1;
        } else {
            ph.complete(t1 - t0, t1 - start);
            ph.sim.add(&out.summary);
            if !within(lane.rel_err(input, &out.values), lane.value_tol()) {
                ph.wrong += 1;
            }
            if tr.is_on() {
                tr.record(EXECUTE, tr.at(t0), tr.at(t1), ROOT, req);
                if vectors {
                    let id = tr.open(EXECUTE_VALUES, ROOT, req);
                    lane.execute_values(input, &mut twin, tr)?;
                    tr.close(id);
                }
                if !same_bits(lane.replica(input, tr, req)?, &out.values) {
                    return Err("stage replica differs from execute_into".into());
                }
            }
        }
        i += 1;
        ready = Instant::now();
    }
    Ok(ph)
}
