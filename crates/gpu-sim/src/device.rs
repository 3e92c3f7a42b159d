//! The simulated device: launch API, execution modes, and time accounting.

use crate::buffer::GlobalBuffer;
use crate::cost::{cost_of_cpu_work, cost_of_launch, cost_of_transfer, KernelClass, LaunchSpec};
use crate::fault::{DeviceFault, FaultInjector, FaultKind, FaultRecord};
use crate::hw::{HardwareDescriptor, UnsupportedPrecision};
use crate::trace::{LaunchRecord, Trace, TraceSummary};
use crate::workgroup::Workgroup;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::any::{Any, TypeId};
use unisvd_scalar::{PrecisionKind, Real, Scalar};

/// Whether kernel bodies actually execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Run kernel bodies (real numerics) *and* account costs.
    Numeric,
    /// Account costs only; kernel bodies are skipped and no data exists.
    /// Used for paper-scale size sweeps (n up to 131072) where the event
    /// stream — launches, flops, bytes — is identical to a numeric run.
    TraceOnly,
}

/// The device's workgroup execution contexts, one list per compute type:
/// workgroup `g` of every launch runs in context `g` of its type's list.
/// A real runtime binds registers and shared memory to a workgroup at
/// launch; it does not `malloc`, and once a list has grown to a launch's
/// grid and geometry neither does the simulator.
#[derive(Default)]
struct Slots {
    f32: Vec<Workgroup<f32>>,
    f64: Vec<Workgroup<f64>>,
}

impl Slots {
    fn of<R: Real>(&mut self) -> &mut Vec<Workgroup<R>> {
        let list: &mut dyn Any = if TypeId::of::<R>() == TypeId::of::<f32>() {
            &mut self.f32
        } else {
            &mut self.f64
        };
        list.downcast_mut().expect("Real is only f32 or f64")
    }
}

/// A simulated GPU: a hardware descriptor plus a launch stream with
/// simulated timing. All launches on one device serialise on a single
/// stream, matching the paper's benchmarking setup (single stream, one
/// synchronisation at the end, §3.4).
pub struct Device {
    desc: HardwareDescriptor,
    mode: ExecMode,
    trace: Mutex<Trace>,
    race_check: bool,
    epoch: std::sync::atomic::AtomicU64,
    slots: Mutex<Slots>,
    /// Built from `desc.fault`; `None` for the (default) fault-free
    /// descriptors, so the hot path pays one branch.
    faults: Option<FaultInjector>,
}

impl Device {
    /// Creates a device in the given execution mode.
    pub fn new(desc: HardwareDescriptor, mode: ExecMode) -> Self {
        let faults = desc
            .fault
            .clone()
            .filter(|p| p.is_active())
            .map(|p| FaultInjector::new(p, desc.name));
        Device {
            desc,
            mode,
            trace: Mutex::new(Trace::new(false)),
            race_check: false,
            epoch: std::sync::atomic::AtomicU64::new(0),
            slots: Mutex::default(),
            faults,
        }
    }

    /// Enables the cross-workgroup write-write race detector: buffers
    /// allocated through this device get ownership tags and any two
    /// workgroups of one launch writing the same global element panic
    /// with a diagnostic. Costs one atomic op per global write — use in
    /// tests, not benchmarks.
    pub fn race_checked(mut self) -> Self {
        self.race_check = true;
        self
    }

    /// Numeric-mode device (the default for correctness work).
    pub fn numeric(desc: HardwareDescriptor) -> Self {
        Self::new(desc, ExecMode::Numeric)
    }

    /// Trace-only device for large-size performance sweeps.
    pub fn trace_only(desc: HardwareDescriptor) -> Self {
        Self::new(desc, ExecMode::TraceOnly)
    }

    /// Enables retention of every individual launch record.
    pub fn keep_records(self) -> Self {
        *self.trace.lock() = Trace::new(true);
        self
    }

    /// Hardware description.
    pub fn hw(&self) -> &HardwareDescriptor {
        &self.desc
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Capability check for a precision on this device.
    pub fn supports(&self, p: PrecisionKind) -> Result<(), UnsupportedPrecision> {
        self.desc.supports(p)
    }

    /// Launches a kernel. The body runs once per workgroup (in parallel on
    /// the host work-stealing pool) in [`ExecMode::Numeric`]; in trace-only
    /// mode only the cost is accounted. The body must confine
    /// cross-workgroup global writes to disjoint locations (see
    /// [`GlobalBuffer`]).
    ///
    /// Workgroup `g` runs in the device's context `g` for the compute
    /// type, reset to the zeroed state [`Workgroup::new`] builds, so the
    /// pairing depends on grid position and not on the schedule. Once a
    /// launch of some grid and geometry has run, later launches up to
    /// that size allocate nothing. Each workgroup counts its supersteps
    /// in its own context, and they are merged in grid order into one
    /// complete [`LaunchRecord`] pushed after the launch barrier, so
    /// every record's *contents* are identical for any thread count or
    /// schedule.
    ///
    /// Concurrent launches on one shared device are correct, but only one
    /// of them runs in the device's contexts: the others find the list
    /// taken and build their own, which allocates. Record *order* is
    /// launch-completion order: deterministic whenever a device's
    /// launches are issued from one thread (as everywhere in this
    /// workspace); concurrent launches get complete but
    /// completion-ordered records.
    pub fn launch<R, F>(&self, spec: &LaunchSpec, body: F)
    where
        R: Real,
        F: Fn(&mut Workgroup<R>) + Sync,
    {
        let mut rec = self.launch_record(spec);
        let mut contexts = Vec::new();
        if self.mode == ExecMode::Numeric {
            // Numeric geometry may differ from the costed geometry for
            // purely computational parameters (SPLITK); see `ExecGeometry`.
            let (block, rpt, smem) = match spec.exec {
                Some(e) => (e.block, e.regs_per_thread, e.smem_elems),
                None => (spec.block, spec.regs_per_thread, spec.smem_elems),
            };
            let epoch = self
                .epoch
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            let race = self.race_check;
            // No lock is held while bodies run: the list leaves the
            // device for the launch and goes back afterwards.
            contexts = std::mem::take(self.slots.lock().of::<R>());
            while contexts.len() < spec.grid {
                contexts.push(Workgroup::new(contexts.len(), block, rpt, smem));
            }
            let run = |g: usize, wg: &mut Workgroup<R>| {
                if race {
                    crate::buffer::set_race_ctx(epoch, g as u64, true);
                }
                wg.reset(g, block, rpt, smem);
                body(wg);
                if race {
                    crate::buffer::set_race_ctx(0, 0, false);
                }
            };
            if spec.grid == 1 {
                // Avoid thread-pool overhead for the (frequent) 1-block
                // panel kernels.
                run(0, &mut contexts[0]);
            } else {
                contexts[..spec.grid]
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(g, wg)| run(g, wg));
            }
        }
        // One trace lock for the record push. Only retained records
        // (tests/ablations) carry the per-workgroup superstep counts;
        // aggregate-only traces drop records on push, so nothing could
        // observe them. Trace-only launches have no contexts.
        let mut trace = self.trace.lock();
        if trace.keeps_records() {
            rec.wg_steps = contexts
                .iter()
                .take(spec.grid)
                .map(|wg| wg.steps() as u32)
                .collect();
        }
        trace.push(rec);
        drop(trace);
        if self.mode == ExecMode::Numeric {
            *self.slots.lock().of::<R>() = contexts;
        }
    }

    /// Accounts a launch whose kernel runs no arithmetic on the device —
    /// a cost-only launch — without fanning empty workgroups out on the
    /// pool. The record is the one [`launch`](Self::launch) pushes for an
    /// empty body: the same cost, the same fault decision and stall
    /// factor (so fault schedules do not move), and, when records are
    /// kept in numeric mode, `grid` zero superstep counts.
    pub fn charge(&self, spec: &LaunchSpec) {
        let mut rec = self.launch_record(spec);
        let mut trace = self.trace.lock();
        if trace.keeps_records() && self.mode == ExecMode::Numeric {
            rec.wg_steps = vec![0; spec.grid];
        }
        trace.push(rec);
    }

    /// The record of one launch of `spec`, without superstep counts: its
    /// modelled cost and, when a fault plan is active, this launch's
    /// injection decision, taken on the issuing thread so the fault
    /// schedule does not depend on how the pool interleaves workgroups.
    fn launch_record(&self, spec: &LaunchSpec) -> LaunchRecord {
        let cost = cost_of_launch(&self.desc, spec);
        let stall = match self.faults.as_ref().and_then(|f| f.on_launch()) {
            Some(FaultKind::Stall) => self.desc.fault.as_ref().map(|p| p.stall_factor),
            _ => None,
        };
        let mut rec = LaunchRecord {
            class: spec.class,
            label: spec.label,
            grid: spec.grid,
            block: spec.block,
            seconds: cost.seconds,
            flops: spec.flops,
            bytes: spec.bytes,
            occupancy: cost.occupancy,
            spill: cost.spill,
            wg_steps: Vec::new(),
        };
        if let Some(factor) = stall {
            // A stalled kernel burns wall-clock until the watchdog kills
            // it; the inflated cost shows up in the trace, and the latch
            // (drained by `take_fault`) marks the results untrustworthy.
            rec.seconds *= factor.max(1.0);
        }
        rec
    }

    /// Accounts a host↔device transfer of `bytes` (hybrid baselines).
    pub fn transfer(&self, label: &'static str, bytes: f64) {
        let seconds = cost_of_transfer(&self.desc, bytes);
        self.trace.lock().push(LaunchRecord {
            class: KernelClass::Transfer,
            label,
            grid: 0,
            block: 0,
            seconds,
            flops: 0.0,
            bytes,
            occupancy: 0.0,
            spill: 1.0,
            wg_steps: Vec::new(),
        });
    }

    /// Accounts host CPU work of `flops` at `efficiency` (hybrid baselines
    /// and the stage-3 CPU solver).
    pub fn cpu_work(&self, class: KernelClass, label: &'static str, flops: f64, efficiency: f64) {
        let seconds = cost_of_cpu_work(&self.desc, flops, efficiency);
        self.trace.lock().push(LaunchRecord {
            class,
            label,
            grid: 0,
            block: 0,
            seconds,
            flops,
            bytes: 0.0,
            occupancy: 0.0,
            spill: 1.0,
            wg_steps: Vec::new(),
        });
    }

    /// Allocates a device buffer from host data (numeric mode) or a
    /// zero-length placeholder (trace mode — no memory is touched).
    pub fn upload<T: Scalar>(&self, host: &[T]) -> GlobalBuffer<T> {
        let buf = match self.mode {
            ExecMode::Numeric => {
                let buf = GlobalBuffer::from_vec(host.to_vec());
                self.corrupt_transfer(&buf);
                buf
            }
            ExecMode::TraceOnly => GlobalBuffer::from_vec(Vec::new()),
        };
        if self.race_check {
            buf.with_race_tags()
        } else {
            buf
        }
    }

    /// Fault-injection hook for host→device transfers: when the
    /// descriptor's [`FaultPlan`](crate::FaultPlan) fires on this upload
    /// event, one element of `buf` is poisoned with NaN — the simulated
    /// bit flip. The latch (drained by [`take_fault`](Self::take_fault))
    /// is what lets the execution layer classify the garbage result.
    fn corrupt_transfer<T: Scalar>(&self, buf: &GlobalBuffer<T>) {
        if let Some(inj) = &self.faults {
            if let Some(idx) = inj.on_upload(buf.len()) {
                buf.write(idx, T::from_f64(f64::NAN));
            }
        }
    }

    /// Re-uploads host data into an existing device buffer (numeric mode)
    /// — the amortized path of a reusable plan/execute workflow: no
    /// allocation, the previous contents are overwritten in place. In
    /// trace-only mode this is a no-op (there is no data).
    ///
    /// # Panics
    /// In numeric mode, if `host.len() != buf.len()`.
    pub fn upload_into<T: Scalar>(&self, host: &[T], buf: &GlobalBuffer<T>) {
        if self.mode == ExecMode::Numeric {
            buf.copy_from_host(host);
            self.corrupt_transfer(buf);
        }
    }

    /// Allocates a zero-filled device buffer of `len` elements (numeric
    /// mode) or a placeholder (trace mode).
    pub fn alloc<T: Scalar>(&self, len: usize) -> GlobalBuffer<T> {
        let buf = match self.mode {
            ExecMode::Numeric => GlobalBuffer::filled(len, T::zero()),
            ExecMode::TraceOnly => GlobalBuffer::from_vec(Vec::new()),
        };
        if self.race_check {
            buf.with_race_tags()
        } else {
            buf
        }
    }

    /// Summary of all accounted events since the last reset.
    pub fn summary(&self) -> TraceSummary {
        self.trace.lock().summary()
    }

    /// [`summary`](Self::summary) into an existing [`TraceSummary`],
    /// reusing its storage (no allocation once warmed).
    pub fn summary_into(&self, out: &mut TraceSummary) {
        self.trace.lock().summary_into(out);
    }

    /// Retained records (only if [`Device::keep_records`] was used).
    pub fn records(&self) -> Vec<LaunchRecord> {
        self.trace.lock().records().to_vec()
    }

    /// Clears the trace.
    pub fn reset(&self) {
        self.trace.lock().reset();
    }

    /// Drains the fault latch: the worst fault injected since the last
    /// call ([`FaultKind::Death`] dominates), or `None` on a clean run.
    /// The execution layer calls this once per solve to decide whether
    /// the result is servable; faults are *latched*, never thrown, so a
    /// corrupted solve completes and is then classified.
    pub fn take_fault(&self) -> Option<DeviceFault> {
        self.faults.as_ref().and_then(|f| f.take())
    }

    /// Every fault injected on this device so far, in injection order —
    /// the schedule the determinism suite pins across thread counts.
    /// Unlike [`take_fault`](Self::take_fault) this never drains.
    pub fn fault_history(&self) -> Vec<FaultRecord> {
        self.faults
            .as_ref()
            .map(|f| f.history())
            .unwrap_or_default()
    }

    /// Clears an injected device death and cancels further scheduled
    /// death — the simulated power-cycle behind
    /// `SvdFleet::revive_device`. Transient fault rates stay active.
    pub fn revive_faults(&self) {
        if let Some(f) = &self.faults {
            f.revive();
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device({}, {:?})", self.desc.name, self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::h100;
    use std::sync::Barrier;

    fn spec(grid: usize, block: usize) -> LaunchSpec {
        let mut s = LaunchSpec::new(KernelClass::Other, "test", grid, block);
        s.flops = 1000.0;
        s.bytes = 100.0;
        s
    }

    #[test]
    fn numeric_launch_runs_all_workgroups() {
        let dev = Device::numeric(h100());
        let buf = dev.upload(&vec![0.0f64; 64]);
        dev.launch::<f64, _>(&spec(8, 8), |wg| {
            let g = wg.group_id();
            wg.step_lanes(|r, _| {
                for tid in 0..r.lanes() {
                    buf.write(g * 8 + tid, (g * 8 + tid) as f64);
                }
            });
        });
        let v = buf.to_vec();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64));
        assert_eq!(dev.summary().total_launches(), 1);
        assert!(dev.summary().total_seconds() > 0.0);
    }

    #[test]
    fn trace_only_skips_bodies_but_accounts_time() {
        let dev = Device::trace_only(h100());
        let executed = std::sync::atomic::AtomicBool::new(false);
        dev.launch::<f32, _>(&spec(4, 32), |_wg| {
            executed.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(!executed.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(dev.summary().total_launches(), 1);
        assert!(dev.summary().total_seconds() >= h100().launch_overhead_s);
        // Upload in trace mode allocates nothing.
        let b = dev.upload(&[1.0f64, 2.0]);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn transfers_and_cpu_work_accumulate() {
        let dev = Device::numeric(h100());
        dev.transfer("h2d", 1e6);
        dev.cpu_work(KernelClass::BidiagonalSvd, "bdsqr", 1e6, 0.2);
        let s = dev.summary();
        assert_eq!(s.launches_of(KernelClass::Transfer), 1);
        assert_eq!(s.launches_of(KernelClass::BidiagonalSvd), 1);
        assert!(s.total_seconds() > 0.0);
        dev.reset();
        assert_eq!(dev.summary().total_launches(), 0);
    }

    #[test]
    fn upload_into_reuses_buffer_in_numeric_and_noops_in_trace() {
        let dev = Device::numeric(h100());
        let buf = dev.alloc::<f32>(4);
        dev.upload_into(&[1.0f32, 2.0, 3.0, 4.0], &buf);
        assert_eq!(buf.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let tdev = Device::trace_only(h100());
        let tbuf = tdev.alloc::<f32>(4);
        assert!(tbuf.is_empty());
        tdev.upload_into(&[1.0f32; 16], &tbuf); // no data, no panic
    }

    #[test]
    fn keep_records_retains_individual_launches() {
        let dev = Device::numeric(h100()).keep_records();
        dev.launch::<f64, _>(&spec(1, 16), |_| {});
        dev.launch::<f64, _>(&spec(2, 16), |_| {});
        let recs = dev.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].grid, 2);
    }

    #[test]
    fn wg_steps_merged_in_grid_order() {
        // Workgroup g runs g+1 supersteps; the record must list them by
        // grid index regardless of how the pool interleaved execution.
        let dev = Device::numeric(h100()).keep_records();
        dev.launch::<f64, _>(&spec(6, 4), |wg| {
            for _ in 0..=wg.group_id() {
                wg.step_lanes(|_, _| {});
            }
        });
        let recs = dev.records();
        assert_eq!(recs[0].wg_steps, vec![1, 2, 3, 4, 5, 6]);
        // Trace-only launches carry no per-workgroup data.
        let tdev = Device::trace_only(h100()).keep_records();
        tdev.launch::<f64, _>(&spec(6, 4), |_| {});
        assert!(tdev.records()[0].wg_steps.is_empty());
    }

    /// `charge` pushes the record an empty-body `launch` pushes, in both
    /// modes and under a stalling fault plan: same costs, same stall
    /// inflation, same fault history, `grid` zero step counts in numeric
    /// mode and none in trace-only mode.
    #[test]
    fn charge_matches_an_empty_launch() {
        let hw = h100().with_faults(crate::FaultPlan::seeded(3).stall_rate(0.4));
        for mode in [ExecMode::Numeric, ExecMode::TraceOnly] {
            let launched = Device::new(hw.clone(), mode).keep_records();
            let charged = Device::new(hw.clone(), mode).keep_records();
            for grid in 1..=12 {
                launched.launch::<f32, _>(&spec(grid, 32), |_| {});
                charged.charge(&spec(grid, 32));
            }
            let recs = charged.records();
            assert_eq!(format!("{:?}", recs), format!("{:?}", launched.records()));
            assert_eq!(launched.fault_history(), charged.fault_history());
            assert!(!charged.fault_history().is_empty(), "no stall injected");
            let steps = |g: usize| match mode {
                ExecMode::Numeric => vec![0; g],
                ExecMode::TraceOnly => Vec::new(),
            };
            assert!(recs.iter().all(|r| r.wg_steps == steps(r.grid)));
        }
    }

    /// Launches a kernel whose output depends on every register and
    /// shared-memory element starting at zero, with `g % 3 + 2`
    /// supersteps in workgroup `g`; returns the buffer and `wg_steps`.
    fn probe<R: Real>(dev: &Device, geom: (usize, usize, usize, usize)) -> (Vec<R>, Vec<u32>) {
        let (grid, block, rpt, smem) = geom;
        let mut s = spec(grid, block);
        s.regs_per_thread = rpt;
        s.smem_elems = smem;
        let buf = GlobalBuffer::filled(grid * block, R::ZERO);
        dev.launch::<R, _>(&s, |wg| {
            let g = wg.group_id();
            for _ in 0..=g % 3 {
                wg.step_lanes(|mut regs, shared| {
                    for r in 0..regs.rows() {
                        regs.row_mut(r).iter_mut().for_each(|x| *x += R::ONE);
                    }
                    for tid in 0..regs.lanes() {
                        shared[tid % smem] += R::ONE;
                    }
                });
            }
            wg.step_lanes(|regs, shared| {
                for tid in 0..regs.lanes() {
                    let own: R = (0..regs.rows()).map(|r| regs.row(r)[tid]).sum();
                    let shared: R = shared.iter().copied().sum();
                    buf.write(g * block + tid, own + shared);
                }
            });
        });
        let steps = dev.records().last().unwrap().wg_steps.clone();
        (buf.to_vec(), steps)
    }

    #[test]
    fn reused_contexts_match_a_fresh_device() {
        // Small, then larger, then smaller again (dirty oversized
        // contexts), f32 and f64 interleaved on the one device.
        let dev = Device::numeric(h100()).keep_records();
        for geom in [(2, 2, 1, 2), (6, 8, 3, 16), (3, 4, 2, 5)] {
            let fresh = || Device::numeric(h100()).keep_records();
            assert_eq!(probe::<f32>(&dev, geom), probe::<f32>(&fresh(), geom));
            assert_eq!(probe::<f64>(&dev, geom), probe::<f64>(&fresh(), geom));
        }
    }

    #[test]
    fn concurrent_launch_builds_its_own_contexts() {
        // Each round, one thread holds the device's f64 contexts mid-launch
        // while the other launches on the same device: that launch finds
        // the list taken and runs in contexts of its own. Results stay
        // correct and every record stays complete.
        const ROUNDS: usize = 3;
        let geom = (5, 4, 2, 3);
        let want = probe::<f64>(&Device::numeric(h100()).keep_records(), geom);
        let dev = Device::numeric(h100()).keep_records();
        let (taken, done) = (Barrier::new(2), Barrier::new(2));
        for _ in 0..ROUNDS {
            std::thread::scope(|s| {
                s.spawn(|| {
                    dev.launch::<f64, _>(&spec(1, 4), |wg| {
                        taken.wait();
                        done.wait();
                        wg.step_lanes(|_, _| {});
                    });
                });
                taken.wait();
                let got = probe::<f64>(&dev, geom);
                done.wait();
                assert_eq!(got, want);
            });
        }
        assert_eq!(probe::<f64>(&dev, geom), want);
        // Per round the second launch finishes first; then the final one.
        let mut expected: Vec<Vec<u32>> = (0..ROUNDS)
            .flat_map(|_| [want.1.clone(), vec![1]])
            .collect();
        expected.push(want.1.clone());
        let steps: Vec<_> = dev.records().into_iter().map(|r| r.wg_steps).collect();
        assert_eq!(steps, expected);
    }
}
