//! Launch trace and per-stage time accounting.
//!
//! Every launch (and transfer / CPU call) appends a [`LaunchRecord`]; the
//! [`TraceSummary`] aggregates simulated seconds, flops, bytes and launch
//! counts per [`KernelClass`] — the data behind Fig. 6 (stage breakdown)
//! and the fused-kernel ablation (launch-count scaling).

use crate::cost::KernelClass;
use serde::Serialize;
use std::collections::HashMap;

/// One recorded launch/transfer/CPU event.
#[derive(Clone, Debug, Serialize)]
pub struct LaunchRecord {
    /// Stage attribution.
    pub class: KernelClass,
    /// Kernel label.
    pub label: &'static str,
    /// Workgroups launched (0 for transfers/CPU work).
    pub grid: usize,
    /// Threads per workgroup.
    pub block: usize,
    /// Simulated seconds.
    pub seconds: f64,
    /// Total flops.
    pub flops: f64,
    /// Total bytes.
    pub bytes: f64,
    /// Achieved occupancy (0 for non-kernel events).
    pub occupancy: f64,
    /// Spill multiplier.
    pub spill: f64,
    /// Supersteps executed by each workgroup of the launch, indexed by
    /// group id. Collected per workgroup (each slot written only by the
    /// workgroup that owns it) and merged in grid order after the launch
    /// barrier, so the trace is identical no matter how workgroups were
    /// interleaved across the host pool. Empty for trace-only launches,
    /// transfers and CPU events.
    pub wg_steps: Vec<u32>,
}

/// Aggregated statistics for one kernel class.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ClassTotals {
    /// Number of events.
    pub launches: usize,
    /// Total simulated seconds.
    pub seconds: f64,
    /// Total flops.
    pub flops: f64,
    /// Total bytes.
    pub bytes: f64,
}

/// Running trace of a device.
#[derive(Default, Debug)]
pub struct Trace {
    records: Vec<LaunchRecord>,
    keep_records: bool,
    totals: HashMap<KernelClass, ClassTotals>,
}

impl Trace {
    /// Creates a trace. `keep_records` retains every individual record
    /// (useful in tests and the fusion ablation); aggregation always runs.
    pub fn new(keep_records: bool) -> Self {
        Trace {
            records: Vec::new(),
            keep_records,
            totals: HashMap::new(),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, rec: LaunchRecord) {
        let t = self.totals.entry(rec.class).or_default();
        t.launches += 1;
        t.seconds += rec.seconds;
        t.flops += rec.flops;
        t.bytes += rec.bytes;
        if self.keep_records {
            self.records.push(rec);
        }
    }

    /// All retained records (empty unless `keep_records`).
    pub fn records(&self) -> &[LaunchRecord] {
        &self.records
    }

    /// Whether individual records are retained (vs aggregate-only).
    pub fn keeps_records(&self) -> bool {
        self.keep_records
    }

    /// Snapshot of aggregated totals.
    pub fn summary(&self) -> TraceSummary {
        let mut out = TraceSummary {
            by_class: Vec::new(),
        };
        self.summary_into(&mut out);
        out
    }

    /// Writes the aggregated totals into an existing summary, reusing its
    /// vector — the allocation-free path of a reused solve plan.
    pub fn summary_into(&self, out: &mut TraceSummary) {
        out.by_class.clear();
        for class in KernelClass::ALL {
            if let Some(&t) = self.totals.get(&class) {
                out.by_class.push((class, t));
            }
        }
    }

    /// Clears all records and totals.
    pub fn reset(&mut self) {
        self.records.clear();
        self.totals.clear();
    }
}

/// Immutable aggregation snapshot.
#[derive(Clone, Debug, Serialize)]
pub struct TraceSummary {
    /// Totals per class, in pipeline order, absent classes omitted.
    pub by_class: Vec<(KernelClass, ClassTotals)>,
}

impl TraceSummary {
    /// Total simulated seconds across all classes.
    pub fn total_seconds(&self) -> f64 {
        self.by_class.iter().map(|(_, t)| t.seconds).sum()
    }

    /// Total launches across all classes.
    pub fn total_launches(&self) -> usize {
        self.by_class.iter().map(|(_, t)| t.launches).sum()
    }

    /// Seconds attributed to one class.
    pub fn seconds_of(&self, class: KernelClass) -> f64 {
        self.by_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| t.seconds)
            .unwrap_or(0.0)
    }

    /// Launches attributed to one class.
    pub fn launches_of(&self, class: KernelClass) -> usize {
        self.by_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| t.launches)
            .unwrap_or(0)
    }

    /// Fraction of total time in one class (0 if the trace is empty).
    pub fn fraction_of(&self, class: KernelClass) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.seconds_of(class) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(class: KernelClass, seconds: f64) -> LaunchRecord {
        LaunchRecord {
            class,
            label: "t",
            grid: 1,
            block: 32,
            seconds,
            flops: 100.0,
            bytes: 10.0,
            occupancy: 0.5,
            spill: 1.0,
            wg_steps: vec![3],
        }
    }

    #[test]
    fn aggregation_per_class() {
        let mut tr = Trace::new(false);
        tr.push(rec(KernelClass::PanelFactorization, 1.0));
        tr.push(rec(KernelClass::PanelFactorization, 2.0));
        tr.push(rec(KernelClass::TrailingUpdate, 4.0));
        let s = tr.summary();
        assert_eq!(s.total_launches(), 3);
        assert_eq!(s.total_seconds(), 7.0);
        assert_eq!(s.seconds_of(KernelClass::PanelFactorization), 3.0);
        assert_eq!(s.launches_of(KernelClass::TrailingUpdate), 1);
        assert!((s.fraction_of(KernelClass::TrailingUpdate) - 4.0 / 7.0).abs() < 1e-15);
        assert_eq!(s.seconds_of(KernelClass::Transfer), 0.0);
        assert!(tr.records().is_empty(), "records dropped unless requested");
    }

    #[test]
    fn record_retention_and_reset() {
        let mut tr = Trace::new(true);
        tr.push(rec(KernelClass::Other, 0.5));
        assert_eq!(tr.records().len(), 1);
        tr.reset();
        assert_eq!(tr.records().len(), 0);
        assert_eq!(tr.summary().total_seconds(), 0.0);
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        let tr = Trace::new(false);
        assert_eq!(tr.summary().fraction_of(KernelClass::Other), 0.0);
    }
}
