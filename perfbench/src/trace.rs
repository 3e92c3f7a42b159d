//! Spans recorded around calls into each layer's public functions, and
//! the arithmetic that turns a span set into per-layer numbers.
//!
//! A span holds its name, start, end, parent span and the id of the
//! request it belongs to. Spans live in a buffer allocated once before
//! timing starts; a full buffer drops further spans and counts them
//! rather than growing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `SvdPlan` construction through `Svd::plan`.
pub const PLAN: &str = "core.plan";
/// `SvdPlan::execute_into` on the workload's plan.
pub const EXECUTE: &str = "core.execute";
/// `SvdPlan::execute_into` on a values-only plan, same input (vector
/// workloads only; the replay time is derived against it).
pub const EXECUTE_VALUES: &str = "core.execute_values";
/// The stage replica: the pipeline rebuilt from public stage calls.
pub const REPLICA: &str = "bench.replica";
/// `reference::householder_qr_into` inside the replica (tall and wide).
pub const HOST_QR: &str = "matrix.host_qr";
/// `Device::upload_into` inside the replica.
pub const UPLOAD: &str = "gpu_sim.upload";
/// `band_diag` inside the replica.
pub const STAGE1: &str = "core.stage1";
/// `extract_band_into` inside the replica.
pub const EXTRACT: &str = "core.extract";
/// `band_to_bidiagonal_into` inside the replica.
pub const CHASE: &str = "core.chase";
/// `bdsqr_into` (or `dqds_into`) inside the replica.
pub const STAGE3: &str = "core.stage3";
/// One request, from its burst's first submit (or its call) to its result.
pub const REQUEST: &str = "request";
/// `SvdService::submit`.
pub const SUBMIT: &str = "service.submit";
/// `Ticket::wait`.
pub const WAIT: &str = "service.wait";
/// `SvdService::solve_batch`, one span per group.
pub const SOLVE_BATCH: &str = "service.solve_batch";

/// The replica's stage spans: together with the derived glue they
/// account for one values-only `execute_into`.
pub const STAGES: [&str; 6] = [HOST_QR, UPLOAD, STAGE1, EXTRACT, CHASE, STAGE3];

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Shared by every span of one request.
    pub request: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A preallocated span buffer for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
    dropped: u64,
}

impl Tracer {
    /// A recording tracer with room for `capacity` spans.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            on: true,
            dropped: 0,
        }
    }

    /// A tracer that records nothing: the untraced path.
    pub fn off(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            on: false,
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span with explicit times; returns its index, or [`ROOT`]
    /// when tracing is off or the buffer is full.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        request: u32,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let now = self.at(Instant::now());
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let now = self.at(Instant::now());
            self.spans[id as usize].end = now;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        r
    }

    /// Writes the spans as tab-separated lines
    /// (`index name start_ns end_ns parent request`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per layer (span name): number of spans and total self time, ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += own;
    }
    by
}

/// Total duration of the spans named `name`, per request id, ns.
pub fn per_request(spans: &[Span], name: &str) -> BTreeMap<u32, u64> {
    let mut by = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by.entry(s.request).or_insert(0) += s.duration();
    }
    by
}

/// Mean over the requests present in `a` of `a − b` (a request missing
/// from `b` counts `b` as zero), in milliseconds; 0 when `a` is empty.
fn mean_gap_ms(a: &BTreeMap<u32, u64>, b: &BTreeMap<u32, u64>) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .map(|(r, &x)| x as f64 - b.get(r).copied().unwrap_or(0) as f64)
        .sum();
    sum / a.len() as f64 / 1e6
}

/// Keeps only the requests present in both maps.
fn common(a: &BTreeMap<u32, u64>, b: &BTreeMap<u32, u64>) -> BTreeMap<u32, u64> {
    a.iter()
        .filter(|(r, _)| b.contains_key(r))
        .map(|(&r, &x)| (r, x))
        .collect()
}

/// `core.replay_ms`: per request, the vector `execute_into` minus the
/// values-only `execute_into` on the same input, averaged. 0 on a
/// workload without vector solves.
pub fn replay_ms(spans: &[Span]) -> f64 {
    let values = per_request(spans, EXECUTE_VALUES);
    mean_gap_ms(&common(&per_request(spans, EXECUTE), &values), &values)
}

/// `core.glue_ms`: per request that ran the replica, the values-only
/// `execute_into` minus the replica's stage spans — the staging copy,
/// rescale scan and output assembly the stage calls do not cover.
pub fn glue_ms(spans: &[Span]) -> f64 {
    let replicas = per_request(spans, REPLICA);
    let mut exec = per_request(spans, EXECUTE_VALUES);
    if exec.is_empty() {
        exec = per_request(spans, EXECUTE);
    }
    let mut stages: BTreeMap<u32, u64> = BTreeMap::new();
    for name in STAGES {
        for (r, d) in per_request(spans, name) {
            *stages.entry(r).or_insert(0) += d;
        }
    }
    mean_gap_ms(&common(&exec, &replicas), &stages)
}

/// `service.queue_ms`: per request with a direct execute, its latency
/// minus the direct `execute_into` of the same input, averaged — the
/// time the service added (queue wait, coalescing hold, checkout,
/// publish, ticket hand-off).
pub fn queue_ms(spans: &[Span]) -> f64 {
    let direct = per_request(spans, EXECUTE);
    mean_gap_ms(&common(&per_request(spans, REQUEST), &direct), &direct)
}

/// Mean duration per request of the spans named `name`, over the
/// requests that have a `per` span, in milliseconds.
pub fn mean_per_request_ms(spans: &[Span], name: &str, per: &str) -> f64 {
    let base = per_request(spans, per);
    if base.is_empty() {
        return 0.0;
    }
    let of = per_request(spans, name);
    let total: u64 = base.keys().map(|r| of.get(r).copied().unwrap_or(0)).sum();
    total as f64 / base.len() as f64 / 1e6
}

/// Mean duration of the spans named `name`, in milliseconds (0 if none).
pub fn mean_span_ms(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration()));
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, request: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(REPLICA, 0, 100, ROOT, 0),
            // Two overlapping children cover [10, 50); a third [60, 70).
            span(STAGE1, 10, 40, 0, 0),
            span(EXTRACT, 30, 50, 0, 0),
            span(CHASE, 60, 70, 0, 0),
            // A grandchild does not reduce its grandparent directly.
            span(UPLOAD, 62, 65, 3, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 7, 3]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_nests() {
        let spans = [
            span(REQUEST, 100, 200, ROOT, 7),
            // Child sticking out on both sides covers the whole parent.
            span(WAIT, 90, 210, 0, 7),
            span(REQUEST, 0, 10, ROOT, 8),
            span(SUBMIT, 2, 4, 2, 8),
            span(SUBMIT, 3, 5, 2, 8),
            span(SUBMIT, 3, 4, 2, 8),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 0);
        assert_eq!(own[2], 7);
        let by = self_time_by_layer(&spans);
        assert_eq!(by[REQUEST], (2, 7));
        assert_eq!(by[SUBMIT], (3, 5));
    }

    #[test]
    fn tracer_drops_when_full_and_records_nothing_when_off() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 2);
        let p = a.record(REQUEST, 0, 10, ROOT, 1);
        assert_eq!(a.record(SUBMIT, 1, 2, p, 1), 1);
        assert_eq!(a.record(WAIT, 2, 3, p, 1), ROOT);
        assert_eq!((a.spans().len(), a.dropped()), (2, 1));
        let mut off = Tracer::off(epoch);
        assert_eq!(off.open(EXECUTE, ROOT, 0), ROOT);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn replay_is_vector_minus_values_execute_per_request() {
        let ms = 1_000_000;
        let spans = [
            span(EXECUTE, 0, 40 * ms, ROOT, 0),
            span(EXECUTE_VALUES, 40 * ms, 50 * ms, ROOT, 0),
            span(EXECUTE, 0, 90 * ms, ROOT, 1),
            span(EXECUTE_VALUES, 0, 30 * ms, ROOT, 1),
            // A request without a values-only twin is not counted.
            span(EXECUTE, 0, 999 * ms, ROOT, 2),
        ];
        assert_eq!(replay_ms(&spans), (30.0 + 60.0) / 2.0);
        // Values-only workloads have no replay.
        assert_eq!(replay_ms(&spans[..1]), 0.0);
    }

    #[test]
    fn glue_is_execute_minus_replica_stages() {
        let ms = 1_000_000;
        let replica = |start: u64, r: u32| {
            [
                span(REPLICA, start, start + 20 * ms, ROOT, r),
                span(UPLOAD, start, start + ms, 0, r),
                span(STAGE1, start + ms, start + 5 * ms, 0, r),
                span(EXTRACT, start + 5 * ms, start + 6 * ms, 0, r),
                span(CHASE, start + 6 * ms, start + 16 * ms, 0, r),
                span(STAGE3, start + 16 * ms, start + 18 * ms, 0, r),
            ]
        };
        let mut spans = vec![span(EXECUTE, 0, 20 * ms, ROOT, 0)];
        spans.extend(replica(100 * ms, 0));
        // Stages sum to 18 ms of a 20 ms execute: 2 ms of glue.
        assert_eq!(glue_ms(&spans), 2.0);
        // On a vector workload glue is measured against the values-only
        // execute, so stages + replay + glue = the vector execute.
        spans.push(span(EXECUTE_VALUES, 0, 19 * ms, ROOT, 0));
        assert_eq!(glue_ms(&spans), 1.0);
        let mut vec_spans = spans.clone();
        vec_spans[0].end = 50 * ms;
        assert_eq!(replay_ms(&vec_spans), 31.0);
        // Host QR counts as a stage for tall inputs.
        spans.push(span(HOST_QR, 200 * ms, 200 * ms + ms / 2, 1, 0));
        assert_eq!(glue_ms(&spans), 0.5);
        // A request that never ran the replica contributes nothing.
        spans.push(span(EXECUTE_VALUES, 0, 500 * ms, ROOT, 9));
        assert_eq!(glue_ms(&spans), 0.5);
    }

    #[test]
    fn queue_is_latency_minus_direct_execute() {
        let ms = 1_000_000;
        let spans = [
            span(REQUEST, 0, 3 * ms, ROOT, 0),
            span(REQUEST, ms, 2 * ms, ROOT, 1),
            // Request 2 was not re-executed directly: excluded.
            span(REQUEST, 0, 100 * ms, ROOT, 2),
            span(EXECUTE, 10 * ms, 11 * ms, ROOT, 0),
            span(EXECUTE, 20 * ms, 20 * ms + ms / 2, ROOT, 1),
        ];
        assert_eq!(queue_ms(&spans), (2.0 + 0.5) / 2.0);
        assert_eq!(mean_span_ms(&spans, EXECUTE), 0.75);
        assert_eq!(mean_per_request_ms(&spans, EXECUTE, REQUEST), 1.5 / 3.0);
        assert_eq!(mean_span_ms(&spans, WAIT), 0.0);
    }
}
