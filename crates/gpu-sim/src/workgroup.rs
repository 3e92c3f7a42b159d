//! The bulk-synchronous workgroup execution context.
//!
//! A kernel body receives a [`Workgroup`] and structures its work as a
//! sequence of **supersteps**: `wg.step(|t| …)` runs the closure once per
//! thread id with access to that thread's persistent register file and the
//! block's shared memory, and ends with an implicit barrier — the exact
//! semantics of `@synchronize` in KernelAbstractions.jl. Thread-private
//! registers persist across steps (they model the `@private` arrays of
//! Algorithm 5); shared memory models `@localmem`.
//!
//! Within one superstep the simulator runs threads sequentially, so a
//! kernel whose correctness depends on *intra-step* shared-memory timing
//! would be racy on real hardware; the paper's kernels only communicate
//! across barriers, which this model captures faithfully.

use unisvd_scalar::Real;

/// Execution context of one workgroup (thread block).
///
/// Constructed directly with [`Workgroup::new`] (tests and one-off
/// launches) or owned by a [`Device`](crate::Device), which keeps one
/// context per workgroup index and resets context `g` for workgroup `g`
/// of every launch. A reset context is in exactly the state `new`
/// builds, so kernel code cannot tell the difference.
///
/// Aligned so that each context sits on its own cache lines: a device's
/// contexts are contiguous, workgroups of one launch run on different
/// threads, and each bumps its own superstep count on every barrier.
#[repr(align(128))]
pub struct Workgroup<R> {
    group_id: usize,
    nthreads: usize,
    regs_per_thread: usize,
    /// All thread register files, contiguous: thread `t` owns
    /// `regs[t*regs_per_thread .. (t+1)*regs_per_thread]`.
    regs: Vec<R>,
    /// Block shared memory (`@localmem`).
    shared: Vec<R>,
    /// Supersteps (barriers) executed so far; collected per workgroup into
    /// the launch trace, merged in grid order.
    steps: usize,
}

/// Per-thread view handed to a superstep closure: the thread id, its
/// private register file, and the block's shared memory.
pub struct ThreadCtx<'a, R> {
    /// Linear thread id within the workgroup (0-based).
    pub tid: usize,
    /// This thread's private register file.
    pub regs: &'a mut [R],
    /// Block shared memory, visible to all threads of the group.
    pub shared: &'a mut [R],
}

impl<R: Real> Workgroup<R> {
    /// Creates a workgroup context with zeroed registers and shared memory.
    pub fn new(group_id: usize, nthreads: usize, regs_per_thread: usize, smem: usize) -> Self {
        let mut wg = Workgroup {
            group_id,
            nthreads,
            regs_per_thread,
            regs: Vec::new(),
            shared: Vec::new(),
            steps: 0,
        };
        wg.reset(group_id, nthreads, regs_per_thread, smem);
        wg
    }

    /// Rebinds this context to workgroup `group_id` of a launch with the
    /// given geometry: zeroed registers and shared memory, no supersteps.
    /// Reuses the buffers' capacity, so a context already sized for the
    /// geometry does not allocate.
    pub(crate) fn reset(
        &mut self,
        group_id: usize,
        nthreads: usize,
        regs_per_thread: usize,
        smem: usize,
    ) {
        assert!(nthreads > 0, "workgroup needs at least one thread");
        self.group_id = group_id;
        self.nthreads = nthreads;
        self.regs_per_thread = regs_per_thread;
        self.regs.clear();
        self.regs.resize(nthreads * regs_per_thread, R::ZERO);
        self.shared.clear();
        self.shared.resize(smem, R::ZERO);
        self.steps = 0;
    }

    /// Linear workgroup id within the launch grid (`@index(Group)`).
    #[inline]
    pub fn group_id(&self) -> usize {
        self.group_id
    }

    /// Threads in this workgroup.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Supersteps executed so far (each `step`/`step_one` counts one).
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Runs one superstep: the closure executes for every thread id with
    /// its private registers and the shared memory, then all threads
    /// barrier (implicitly, by the step ending).
    pub fn step(&mut self, mut f: impl FnMut(ThreadCtx<'_, R>)) {
        self.steps += 1;
        let rpt = self.regs_per_thread;
        for tid in 0..self.nthreads {
            let regs = if rpt == 0 {
                &mut [][..]
            } else {
                &mut self.regs[tid * rpt..(tid + 1) * rpt]
            };
            f(ThreadCtx {
                tid,
                regs,
                shared: &mut self.shared,
            });
        }
    }

    /// Superstep restricted to a single thread id (the `Thread i = k`
    /// lines of Algorithm 3). Still ends with a barrier.
    pub fn step_one(&mut self, tid: usize, mut f: impl FnMut(ThreadCtx<'_, R>)) {
        assert!(tid < self.nthreads, "thread id out of range");
        self.steps += 1;
        let rpt = self.regs_per_thread;
        let regs = if rpt == 0 {
            &mut [][..]
        } else {
            &mut self.regs[tid * rpt..(tid + 1) * rpt]
        };
        f(ThreadCtx {
            tid,
            regs,
            shared: &mut self.shared,
        });
    }

    /// Runs one superstep in which the whole workgroup cooperates on a
    /// single operation over shared memory — the simulator counterpart of
    /// a cooperative (all-threads) copy such as `shared[0..ts] = col`,
    /// where the per-thread strided loop degenerates to one contiguous
    /// slice operation. Counts exactly one superstep (one barrier), like
    /// [`step`](Self::step); the closure sees shared memory only, because
    /// a cooperative operation touches no thread-private registers.
    pub fn step_collective(&mut self, f: impl FnOnce(&mut [R])) {
        self.steps += 1;
        f(&mut self.shared);
    }

    /// Read-only peek at shared memory (diagnostics/tests).
    pub fn shared(&self) -> &[R] {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_persist_across_steps() {
        let mut wg = Workgroup::<f64>::new(0, 4, 2, 1);
        wg.step(|t| t.regs[0] = t.tid as f64 + 1.0);
        wg.step(|t| t.regs[1] = t.regs[0] * 10.0);
        let mut collected = vec![];
        wg.step(|t| collected.push(t.regs[1]));
        assert_eq!(collected, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn shared_memory_visible_after_barrier() {
        let mut wg = Workgroup::<f32>::new(0, 8, 0, 8);
        // Each thread publishes to its slot …
        wg.step(|t| t.shared[t.tid] = t.tid as f32);
        // … and after the (implicit) barrier every thread reduces all slots.
        let mut sums = vec![];
        wg.step(|t| sums.push(t.shared.iter().sum::<f32>()));
        assert!(sums.iter().all(|&s| s == 28.0));
    }

    #[test]
    fn step_one_touches_single_thread() {
        let mut wg = Workgroup::<f64>::new(3, 4, 1, 0);
        wg.step_one(2, |t| {
            assert_eq!(t.tid, 2);
            t.regs[0] = 5.0;
        });
        let mut vals = vec![];
        wg.step(|t| vals.push(t.regs[0]));
        assert_eq!(vals, vec![0.0, 0.0, 5.0, 0.0]);
        assert_eq!(wg.group_id(), 3);
        assert_eq!(wg.nthreads(), 4);
        assert_eq!(wg.steps(), 2, "step_one and step each count once");
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn step_one_bounds() {
        let mut wg = Workgroup::<f64>::new(0, 2, 0, 0);
        wg.step_one(2, |_| {});
    }

    #[test]
    fn reset_rebuilds_the_fresh_state() {
        let mut wg = Workgroup::<f64>::new(0, 4, 2, 3);
        wg.step(|t| {
            t.regs[1] = 7.0;
            t.shared[t.tid.min(2)] = 9.0;
        });
        for (g, nthreads, rpt, smem) in [(5, 8, 3, 16), (1, 2, 1, 2)] {
            wg.reset(g, nthreads, rpt, smem);
            let fresh = Workgroup::<f64>::new(g, nthreads, rpt, smem);
            assert_eq!(
                (wg.group_id(), wg.nthreads(), wg.regs_per_thread, wg.steps()),
                (g, nthreads, rpt, 0)
            );
            assert_eq!((&wg.regs, &wg.shared), (&fresh.regs, &fresh.shared));
            assert!(wg.regs.iter().chain(&wg.shared).all(|&x| x == 0.0));
            wg.step(|t| t.shared[0] = 1.0);
        }
    }

    #[test]
    fn zero_register_workgroup() {
        let mut wg = Workgroup::<f64>::new(0, 2, 0, 2);
        wg.step(|t| t.shared[t.tid] = 1.0);
        assert_eq!(wg.shared(), &[1.0, 1.0]);
    }
}
