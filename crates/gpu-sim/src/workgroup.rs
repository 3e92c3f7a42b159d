//! The bulk-synchronous workgroup execution context.
//!
//! A kernel body receives a [`Workgroup`] and structures its work as a
//! sequence of **supersteps**: `wg.step_lanes(|regs, shared| …)` runs the
//! closure once for the whole workgroup, with every thread's register
//! file and the block's shared memory, and ends with an implicit barrier
//! — the exact semantics of `@synchronize` in KernelAbstractions.jl.
//! Thread-private registers persist across steps (they model the
//! `@private` arrays of Algorithm 5); shared memory models `@localmem`.
//!
//! The threads of a block run in lockstep on the hardware, and the
//! simulator mirrors that: registers are stored register-major, so
//! register `r` of every thread forms one contiguous row ([`LaneRegs`]),
//! and a kernel writes each per-thread operation as a loop over lanes,
//! lane index innermost. What thread `i` computes is what lane `i` of
//! each row receives, in the same order, so a superstep's values do not
//! depend on how its lanes are swept. A kernel whose correctness depends
//! on *intra-step* shared-memory timing would be racy on real hardware;
//! the paper's kernels only communicate across barriers, which this
//! model captures faithfully.

use std::ops::Range;
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
    /// All thread register files, register-major: register `r` of
    /// thread `t` is `regs[r*nthreads + t]`.
    regs: Vec<R>,
    /// Block shared memory (`@localmem`).
    shared: Vec<R>,
    /// Supersteps (barriers) executed so far; collected per workgroup into
    /// the launch trace, merged in grid order.
    steps: usize,
}

/// The register files of a workgroup's threads as seen by one lane-wide
/// superstep: `rows()` register rows of `lanes()` lanes each, where lane
/// `t` of row `r` is register `r` of thread `t`.
pub struct LaneRegs<'a, R> {
    regs: &'a mut [R],
    lanes: usize,
}

impl<R> LaneRegs<'_, R> {
    /// Lanes per row: the workgroup's thread count.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Register rows: registers per thread.
    #[inline]
    pub fn rows(&self) -> usize {
        self.regs.len() / self.lanes
    }

    /// Register `r` of every lane.
    #[inline]
    pub fn row(&self, r: usize) -> &[R] {
        &self.regs[r * self.lanes..(r + 1) * self.lanes]
    }

    /// Register `r` of every lane, mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [R] {
        &mut self.regs[r * self.lanes..(r + 1) * self.lanes]
    }

    /// The register rows `rows` as one slice, row by row (lane `t` of
    /// row `rows.start + i` at `i * lanes() + t`), and row `r` beside
    /// them, both mutable.
    ///
    /// # Panics
    /// If `r` lies in `rows`, or either is out of range.
    #[inline]
    pub fn split_mut(&mut self, rows: Range<usize>, r: usize) -> (&mut [R], &mut [R]) {
        assert!(!rows.contains(&r), "row {r} lies in the block {rows:?}");
        let n = self.lanes;
        if r < rows.start {
            let (head, tail) = self.regs.split_at_mut(rows.start * n);
            (&mut tail[..rows.len() * n], &mut head[r * n..(r + 1) * n])
        } else {
            let (head, tail) = self.regs.split_at_mut(r * n);
            (&mut head[rows.start * n..rows.end * n], &mut tail[..n])
        }
    }
}

impl<R: Real> Workgroup<R> {
    /// Creates a workgroup context with zeroed registers and shared memory.
    pub fn new(group_id: usize, nthreads: usize, regs_per_thread: usize, smem: usize) -> Self {
        let mut wg = Workgroup {
            group_id,
            nthreads,
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

    /// Supersteps executed so far (each `step_lanes` counts one).
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Runs one superstep for all threads in lockstep: the closure gets
    /// every register row across all lanes and the shared memory, then
    /// all threads barrier (implicitly, by the step ending). Counts
    /// exactly one superstep, however many lanes the closure touches —
    /// one thread's work (the `Thread i = k` lines of Algorithm 3) and a
    /// cooperative copy into shared memory are a superstep each, too.
    pub fn step_lanes(&mut self, f: impl FnOnce(LaneRegs<'_, R>, &mut [R])) {
        self.steps += 1;
        let regs = LaneRegs {
            regs: &mut self.regs,
            lanes: self.nthreads,
        };
        f(regs, &mut self.shared);
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
        wg.step_lanes(|mut r, _| {
            for (tid, x) in r.row_mut(0).iter_mut().enumerate() {
                *x = tid as f64 + 1.0;
            }
        });
        wg.step_lanes(|mut r, _| {
            let (r0, r1) = r.split_mut(0..1, 1);
            for (y, &x) in r1.iter_mut().zip(r0.iter()) {
                *y = x * 10.0;
            }
        });
        let mut collected = vec![];
        wg.step_lanes(|r, _| collected.extend_from_slice(r.row(1)));
        assert_eq!(collected, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn registers_are_register_major() {
        let mut wg = Workgroup::<f64>::new(0, 3, 2, 0);
        wg.step_lanes(|mut r, _| {
            assert_eq!((r.lanes(), r.rows()), (3, 2));
            r.row_mut(1)[2] = 7.0;
        });
        assert_eq!(wg.regs, vec![0.0, 0.0, 0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn shared_memory_visible_after_barrier() {
        let mut wg = Workgroup::<f32>::new(0, 8, 0, 8);
        // Each lane publishes to its slot …
        wg.step_lanes(|r, shared| {
            for (tid, s) in shared[..r.lanes()].iter_mut().enumerate() {
                *s = tid as f32;
            }
        });
        // … and after the (implicit) barrier every lane reduces all slots.
        let mut sums = vec![];
        wg.step_lanes(|r, shared| {
            for _ in 0..r.lanes() {
                sums.push(shared.iter().sum::<f32>());
            }
        });
        assert_eq!(sums.len(), 8);
        assert!(sums.iter().all(|&s| s == 28.0));
    }

    #[test]
    fn lane_step_touches_single_lane() {
        let mut wg = Workgroup::<f64>::new(3, 4, 1, 0);
        wg.step_lanes(|mut r, _| r.row_mut(0)[2] = 5.0);
        let mut vals = vec![];
        wg.step_lanes(|r, _| vals.extend_from_slice(r.row(0)));
        assert_eq!(vals, vec![0.0, 0.0, 5.0, 0.0]);
        assert_eq!(wg.group_id(), 3);
        assert_eq!(wg.nthreads(), 4);
        assert_eq!(wg.steps(), 2, "each lane step counts once");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn lane_index_bounds() {
        let mut wg = Workgroup::<f64>::new(0, 2, 1, 0);
        wg.step_lanes(|mut r, _| r.row_mut(0)[2] = 1.0);
    }

    #[test]
    fn split_mut_yields_the_block_and_the_row() {
        let mut wg = Workgroup::<f64>::new(0, 2, 4, 0);
        wg.step_lanes(|mut r, _| {
            for i in 0..4 {
                r.row_mut(i).fill(i as f64);
            }
            let (block, row) = r.split_mut(1..3, 0);
            assert_eq!(
                (&*block, &*row),
                (&[1.0, 1.0, 2.0, 2.0][..], &[0.0, 0.0][..])
            );
            let (block, row) = r.split_mut(0..2, 3);
            assert_eq!(
                (&*block, &*row),
                (&[0.0, 0.0, 1.0, 1.0][..], &[3.0, 3.0][..])
            );
        });
    }

    #[test]
    #[should_panic(expected = "lies in the block")]
    fn split_mut_rejects_a_row_in_the_block() {
        let mut wg = Workgroup::<f64>::new(0, 2, 3, 0);
        wg.step_lanes(|mut r, _| {
            r.split_mut(0..2, 1);
        });
    }

    #[test]
    fn reset_rebuilds_the_fresh_state() {
        let mut wg = Workgroup::<f64>::new(0, 4, 2, 3);
        wg.step_lanes(|mut r, shared| {
            r.row_mut(1).fill(7.0);
            for tid in 0..r.lanes() {
                shared[tid.min(2)] = 9.0;
            }
        });
        for (g, nthreads, rpt, smem) in [(5, 8, 3, 16), (1, 2, 1, 2)] {
            wg.reset(g, nthreads, rpt, smem);
            let fresh = Workgroup::<f64>::new(g, nthreads, rpt, smem);
            assert_eq!(
                (wg.group_id(), wg.nthreads(), wg.regs.len(), wg.steps()),
                (g, nthreads, nthreads * rpt, 0)
            );
            assert_eq!((&wg.regs, &wg.shared), (&fresh.regs, &fresh.shared));
            assert!(wg.regs.iter().chain(&wg.shared).all(|&x| x == 0.0));
            wg.step_lanes(|_, shared| shared[0] = 1.0);
        }
    }

    #[test]
    fn zero_register_workgroup() {
        let mut wg = Workgroup::<f64>::new(0, 2, 0, 2);
        wg.step_lanes(|r, shared| {
            assert_eq!(r.rows(), 0);
            shared[..r.lanes()].fill(1.0);
        });
        assert_eq!(wg.shared(), &[1.0, 1.0]);
    }
}
