//! `perfbench`: the repository's benchmark. One command generates a
//! workload's inputs from a seed, checks the program's outputs, and
//! prints every end-to-end metric by name with its unit; with `--trace 1`
//! the same inputs also run through spans around each layer's public
//! calls and the command prints the per-layer metrics instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_values --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds the run's context (machine, pool, source digest, seed, sample
//! counts, generator lateness and, when traced, each layer's share of
//! request latency). A failed correctness gate fails the run with exit
//! code 1 and reports no numbers.

mod gen;
mod lane;
mod phase;
mod replica;
mod serve;
mod solve;
mod stats;
mod trace;

use phase::Phase;
use stats::{chunked_percentile, chunked_rate, median, percentile, samples_for, sorted};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Timed phases are cut into about this many chunks of consecutive
/// requests, each of at least `CHUNK_MIN`; rates and percentiles are the
/// median over chunks.
const CHUNKS: usize = 10;
/// Fewest samples in a chunk: enough for ten above its p90.
const CHUNK_MIN: usize = 100;
/// Spans one traced phase can hold.
pub const SPAN_CAPACITY: usize = 1 << 18;
/// A `serve_mixed` run whose caller took longer than this, at p99,
/// between one burst's last result and the next burst's first submit is
/// invalid: the caller, not the service, set the pace.
const GEN_LAG_BOUND_MS: f64 = 50.0;

const USAGE: &str =
    "usage: perfbench --workload <dense_values|lora_vectors|serve_mixed|batch_blocking> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sim_ms_per_solve", "ms"),
    ("max_rel_err", "1"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run.
const PER_LAYER: [(&str, &str); 32] = [
    ("core.plan_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("gpu_sim.upload_ms", "ms"),
    ("core.stage1_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.chase_ms", "ms"),
    ("core.stage3_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.glue_ms", "ms"),
    ("matrix.host_qr_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.wait_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.solve_batch_ms", "ms"),
    ("service.hit_ratio", "1"),
    ("service.misses", "count"),
    ("service.evictions", "count"),
    ("service.coalesce_ratio", "1"),
    ("service.batches", "count"),
    ("service.failures", "count"),
    ("service.refused", "count"),
    ("sim.stage1_ms", "ms"),
    ("sim.chase_ms", "ms"),
    ("sim.stage3_ms", "ms"),
    ("sim.other_ms", "ms"),
    ("kernels.launches", "count"),
    ("kernels.stage1_gflop", "GFLOP"),
    ("kernels.stage1_mb", "MB"),
    ("kernels.stage1_flop_per_byte", "flop/B"),
    ("pool.threads", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    DenseValues,
    LoraVectors,
    ServeMixed,
    BatchBlocking,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DenseValues,
        Workload::LoraVectors,
        Workload::ServeMixed,
        Workload::BatchBlocking,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DenseValues => "dense_values",
            Workload::LoraVectors => "lora_vectors",
            Workload::ServeMixed => "serve_mixed",
            Workload::BatchBlocking => "batch_blocking",
        }
    }
}

pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything a workload run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// `max_i |σ̂ᵢ − σᵢ| / σ₁` of each input the gates checked.
    pub rel_errs: Vec<f64>,
    /// Worst factor error the gates saw (vector workloads only).
    pub factor_err: Option<f64>,
    /// The untraced timed phase.
    pub plain: Phase,
    /// The traced timed phase (traced runs only).
    pub traced: Option<Phase>,
    pub tracer: Tracer,
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Pin the work-stealing pool to the machine's cores before anything
    // starts it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    let run = match args.workload {
        Workload::DenseValues => solve::dense_values(&args),
        Workload::LoraVectors => solve::lora_vectors(&args),
        Workload::ServeMixed => serve::serve_mixed(&args),
        Workload::BatchBlocking => serve::batch_blocking(&args),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => fail(&format!("{}: {e}", args.workload.name())),
    };
    let wrong = outcome.plain.wrong + outcome.traced.as_ref().map_or(0, |p| p.wrong);
    if wrong > 0 {
        fail(&format!(
            "{wrong} timed solves fell outside the value tolerance"
        ));
    }
    let lag_p99 = lag_p99_ms(&outcome);
    if args.workload == Workload::ServeMixed && lag_p99 > GEN_LAG_BOUND_MS {
        eprintln!(
            "perfbench: invalid run: the generator's p99 lateness was {lag_p99:.3} ms, \
             above the {GEN_LAG_BOUND_MS} ms bound"
        );
        std::process::exit(3);
    }
    let (metrics, shares) = if args.trace {
        per_layer(&outcome, lag_p99)
    } else {
        (end_to_end(&outcome), Vec::new())
    };
    if let Some((name, v)) = metrics
        .iter()
        .find(|(_, v, _)| !v.is_finite())
        .map(|m| (m.0, m.1))
    {
        fail(&format!("metric {name} is not finite ({v})"));
    }
    let spans_file = if args.trace {
        let path = spans_path(&args);
        match outcome.tracer.write_tsv(&path) {
            Ok(()) => Some(path),
            Err(e) => fail(&format!("writing {}: {e}", path.display())),
        }
    } else {
        None
    };
    println!(
        "{}",
        context(
            &args,
            &outcome,
            nproc,
            lag_p99,
            &shares,
            spans_file.as_deref()
        )
    );
    let attempted = outcome.plain.attempted + outcome.traced.as_ref().map_or(0, |p| p.attempted);
    let failed = outcome.plain.failed + outcome.traced.as_ref().map_or(0, |p| p.failed);
    let mut line = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// Reports a failed run: no numbers, exit code 1.
fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    std::process::exit(1);
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let p = &o.plain;
    let value = |name: &str| match name {
        "setup_s" => median(&o.setup_s),
        "solves_per_s" => chunked_rate(&p.done_s, CHUNKS, CHUNK_MIN),
        "latency_p50_ms" => chunked_percentile(&p.latency_ms, 50, CHUNKS, CHUNK_MIN),
        "latency_p90_ms" => chunked_percentile(&p.latency_ms, 90, CHUNKS, CHUNK_MIN),
        "sim_ms_per_solve" => p.sim.per_solve(p.sim.total_s) * 1e3,
        // The mean over the checked inputs: it varies far less between
        // seeds than the single worst input, which the context reports.
        "max_rel_err" => stats::mean(&o.rel_errs),
        "peak_rss_mb" => peak_rss_mb(),
        _ => unreachable!("every end-to-end metric has a value"),
    };
    END_TO_END.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

/// Per-layer metrics of a traced run, and each layer's share of request
/// latency (percent, largest first).
fn per_layer(o: &Outcome, lag_p99: f64) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    use trace::*;
    let sp = o.tracer.spans();
    let t = o.traced.as_ref().expect("a traced run has a traced phase");
    let svc = t.service.unwrap_or_default();
    let sim = &t.sim;
    let per_replica = |name| mean_per_request_ms(sp, name, REPLICA);
    let overhead = {
        let p50 = |v: &[f64]| chunked_percentile(v, 50, CHUNKS, CHUNK_MIN);
        (p50(&t.latency_ms) / p50(&o.plain.latency_ms) - 1.0) * 100.0
    };
    let value = |name: &str| match name {
        "core.plan_ms" => mean_span_ms(sp, PLAN),
        "core.execute_ms" => mean_span_ms(sp, EXECUTE),
        "gpu_sim.upload_ms" => per_replica(UPLOAD),
        "core.stage1_ms" => per_replica(STAGE1),
        "core.extract_ms" => per_replica(EXTRACT),
        "core.chase_ms" => per_replica(CHASE),
        "core.stage3_ms" => per_replica(STAGE3),
        "core.replay_ms" => replay_ms(sp),
        "core.glue_ms" => glue_ms(sp),
        "matrix.host_qr_ms" => per_replica(HOST_QR),
        "service.submit_us" => mean_span_ms(sp, SUBMIT) * 1e3,
        "service.wait_ms" => mean_span_ms(sp, WAIT),
        "service.queue_ms" => queue_ms(sp),
        "service.solve_batch_ms" => mean_span_ms(sp, SOLVE_BATCH),
        "service.hit_ratio" => svc.hit_ratio(),
        "service.misses" => svc.misses as f64,
        "service.evictions" => svc.evictions as f64,
        "service.coalesce_ratio" => svc.coalesce_ratio(),
        "service.batches" => svc.batches as f64,
        "service.failures" => svc.failures as f64,
        "service.refused" => svc.refused as f64,
        "sim.stage1_ms" => sim.per_solve(sim.stage1_s) * 1e3,
        "sim.chase_ms" => sim.per_solve(sim.chase_s) * 1e3,
        "sim.stage3_ms" => sim.per_solve(sim.stage3_s) * 1e3,
        "sim.other_ms" => sim.per_solve(sim.other_s) * 1e3,
        "kernels.launches" => sim.per_solve(sim.launches),
        "kernels.stage1_gflop" => sim.per_solve(sim.stage1_flops) / 1e9,
        "kernels.stage1_mb" => sim.per_solve(sim.stage1_bytes) / 1e6,
        "kernels.stage1_flop_per_byte" => sim.stage1_flops / sim.stage1_bytes,
        "pool.threads" => rayon::current_num_threads() as f64,
        "bench.gen_lag_p99_ms" => lag_p99,
        "bench.trace_overhead_pct" => overhead,
        _ => unreachable!("every per-layer metric has a value"),
    };
    let metrics = PER_LAYER.iter().map(|&(n, u)| (n, value(n), u)).collect();

    // Shares of request latency: the replica's stage spans, the derived
    // replay and glue, and the service hop together make up one request.
    let mut parts: Vec<(&'static str, f64)> = vec![
        ("service.queue", queue_ms(sp)),
        ("matrix.host_qr", per_replica(HOST_QR)),
        ("gpu_sim.upload", per_replica(UPLOAD)),
        ("core.stage1", per_replica(STAGE1)),
        ("core.extract", per_replica(EXTRACT)),
        ("core.chase", per_replica(CHASE)),
        ("core.stage3", per_replica(STAGE3)),
        ("core.replay", replay_ms(sp)),
        ("core.glue", glue_ms(sp)),
    ];
    let total: f64 = parts.iter().map(|p| p.1.max(0.0)).sum();
    parts
        .iter_mut()
        .for_each(|p| p.1 = 100.0 * p.1.max(0.0) / total);
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    (metrics, parts)
}

/// p99 of the generator's lateness over every timed phase.
fn lag_p99_ms(o: &Outcome) -> f64 {
    let mut lag = o.plain.lag_ms.clone();
    if let Some(t) = &o.traced {
        lag.extend_from_slice(&t.lag_ms);
    }
    if lag.is_empty() {
        return 0.0;
    }
    percentile(&sorted(&lag), 99)
}

/// The run's context as one JSON line.
fn context(
    args: &Args,
    o: &Outcome,
    nproc: usize,
    lag_p99: f64,
    shares: &[(&str, f64)],
    spans_file: Option<&Path>,
) -> String {
    let mut s = String::from("{\"context\": {");
    let _ = write!(
        s,
        "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {:?}, \"nproc\": {nproc}, \
         \"pool_threads\": {}, \"cpu_model\": \"{}\", \"source_digest\": \"{}\", \"setup_reps\": {SETUP_REPS}",
        args.workload.name(),
        args.seed,
        args.trace,
        args.seconds,
        rayon::current_num_threads(),
        escape(&cpu_model()),
        source_digest(),
    );
    let lat = &o.plain.latency_ms;
    let _ = write!(
        s,
        ", \"samples\": {{\"latency\": {}, \"traced_latency\": {}, \"chunks\": {}, \"p90_needs\": {}, \"p99_needs\": {}}}",
        lat.len(),
        o.traced.as_ref().map_or(0, |t| t.latency_ms.len()),
        stats::chunks(lat.len(), CHUNKS, CHUNK_MIN).len(),
        samples_for(90),
        samples_for(99),
    );
    if lat.len() >= samples_for(99) {
        // Only where at least ten samples lie above it.
        let _ = write!(
            s,
            ", \"latency_p99_ms\": {:?}",
            percentile(&sorted(lat), 99)
        );
    }
    let worst = o.rel_errs.iter().copied().fold(0.0, f64::max);
    let _ = write!(
        s,
        ", \"gen_lag_p99_ms\": {lag_p99:?}, \"checks\": {{\"inputs\": {}, \"worst_rel_err\": {worst:?}",
        o.rel_errs.len()
    );
    if let Some(f) = o.factor_err {
        let _ = write!(s, ", \"factor_err\": {f:?}");
    }
    s.push('}');
    if let Some(path) = spans_file {
        let _ = write!(
            s,
            ", \"spans\": {}, \"spans_dropped\": {}, \"spans_file\": \"{}\"",
            o.tracer.spans().len(),
            o.tracer.dropped(),
            escape(&path.display().to_string())
        );
    }
    if args.trace {
        s.push_str(", \"self_time_ms\": {");
        for (i, (name, (n, own))) in trace::self_time_by_layer(o.tracer.spans())
            .iter()
            .enumerate()
        {
            let mean = *own as f64 / *n as f64 / 1e6;
            let _ = write!(s, "{}\"{name}\": {mean:?}", if i == 0 { "" } else { ", " });
        }
        s.push('}');
    }
    if let Some((layer, share)) = shares.first() {
        let _ = write!(s, ", \"dominant_layer\": \"{layer}\", \"dominant_share_pct\": {share:?}, \"latency_shares_pct\": {{");
        for (i, (name, v)) in shares.iter().enumerate() {
            let _ = write!(s, "{}\"{name}\": {v:?}", if i == 0 { "" } else { ", " });
        }
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

fn spans_path(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("spans")
        .join(format!("{}-seed{}.tsv", args.workload.name(), args.seed))
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the sources under test (the workspace manifests and
/// every file under `crates/` and `shims/`), standing in for a commit id
/// in checkouts that are not git repositories.
fn source_digest() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "shims"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}
