//! The one parallel loop the workspace runs: `par_iter_mut()` over a
//! slice (a `Vec` or an array autoderefs to one), optionally
//! `enumerate()`d, consumed by `for_each`.
//!
//! The slice splits into contiguous chunks whose count and boundaries
//! depend **only on its length — never on the thread count**
//! ([`n_chunks`]). Chunks run concurrently on the pool as one batch; each
//! visits its items in index order and hands every item out exactly once,
//! so a loop whose body writes only through its own item produces the
//! same bits at any thread count.

use crate::pool::{self, current_registry};
use std::ops::Range;

/// Fixed upper bound on chunks per loop: independent of the worker count
/// by design (determinism), but comfortably larger than any realistic
/// `RAYON_NUM_THREADS` so every worker finds work.
const MAX_CHUNKS: usize = 64;

/// Number of chunks a `len`-item loop splits into.
fn n_chunks(len: usize) -> usize {
    len.min(MAX_CHUNKS)
}

/// Half-open index range of chunk `c` out of `nc` over `len` items
/// (remainder spread over the leading chunks, like `slice::chunks`).
fn chunk_bounds(len: usize, nc: usize, c: usize) -> Range<usize> {
    let base = len / nc;
    let rem = len % nc;
    let start = c * base + c.min(rem);
    start..start + base + usize::from(c < rem)
}

/// A slice's base pointer, shared by the chunks of one loop.
struct SendPtr<T>(*mut T);
// SAFETY: the one field is a pointer into a slice that `run` borrows
// mutably for the whole loop; chunks dereference it only at disjoint
// indices, so each thread gets `&mut T` to elements no other thread
// touches — sound exactly when `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (not field) access, so closures capture the whole wrapper —
    /// edition-2021 disjoint capture would otherwise grab the raw `*mut T`
    /// field directly and lose the `Send`/`Sync` impls above.
    ///
    /// # Safety
    /// `i` must be in bounds of the slice the pointer came from.
    unsafe fn add(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Runs `f(i, &mut slice[i])` for every index on the current pool
/// (inline, in order, on a 1-thread pool), blocking until all are done.
/// One chunk loop serves every body: taken generically, the body inlined
/// into `Device::launch` ran values-only solves ~1% slower (2-vCPU
/// x86-64 host).
fn run<'data, T: Send>(slice: &'data mut [T], f: &(dyn Fn(usize, &'data mut T) + Sync)) {
    let len = slice.len();
    if len == 0 {
        return;
    }
    let nc = n_chunks(len);
    let base = SendPtr(slice.as_mut_ptr());
    pool::run_batch(&current_registry(), nc, |c| {
        for i in chunk_bounds(len, nc, c) {
            // SAFETY: `i < len`, and chunks are disjoint index ranges, so
            // each element is handed out exactly once; the borrow of
            // `slice` (lifetime 'data) outlives the blocking `run_batch`.
            f(i, unsafe { &mut *base.add(i) });
        }
    });
}

/// `par_iter_mut()` on a slice.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Iter = IterMut<'data, T>;
    fn par_iter_mut(&'data mut self) -> IterMut<'data, T> {
        IterMut { slice: self }
    }
}

/// Parallel loop over `&mut [T]`, from `par_iter_mut()`.
pub struct IterMut<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send + 'data> IterMut<'data, T> {
    /// Pairs each item with its index in the slice.
    pub fn enumerate(self) -> Enumerate<'data, T> {
        Enumerate { slice: self.slice }
    }

    /// Calls `f` once per item, chunks concurrently.
    pub fn for_each<F: Fn(&'data mut T) + Sync + Send>(self, f: F) {
        run(self.slice, &|_, item| f(item));
    }
}

/// Parallel loop over `(index, &mut T)`, from `par_iter_mut().enumerate()`.
pub struct Enumerate<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send + 'data> Enumerate<'data, T> {
    /// Calls `f` once per `(index, item)`, chunks concurrently.
    pub fn for_each<F: Fn((usize, &'data mut T)) + Sync + Send>(self, f: F) {
        run(self.slice, &|i, item| f((i, item)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    fn pool(n: usize) -> crate::ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for len in [0usize, 1, 2, 63, 64, 65, 100, 1000] {
            let nc = n_chunks(len);
            let mut covered = 0;
            for c in 0..nc {
                let r = chunk_bounds(len, nc, c);
                assert_eq!(r.start, covered, "len={len} chunk {c} contiguous");
                covered = r.end;
            }
            assert_eq!(covered, len, "len={len}: chunks cover everything");
        }
    }

    #[test]
    fn enumerate_indices_are_exact() {
        for threads in THREADS {
            let p = pool(threads);
            for len in [0usize, 1, 63, 64, 65, 1000] {
                // (index seen, visits) per slot: one visit from the
                // enumerated loop, one from the plain one.
                let mut slots = vec![(usize::MAX, 0u32); len];
                p.install(|| {
                    slots.par_iter_mut().enumerate().for_each(|(i, s)| {
                        s.0 = i;
                        s.1 += 1;
                    });
                    slots.par_iter_mut().for_each(|s| s.1 += 1);
                });
                for (k, &s) in slots.iter().enumerate() {
                    assert_eq!(s, (k, 2), "threads={threads} len={len} slot {k}");
                }
            }
        }
    }

    #[test]
    fn nested_fan_out_writes_every_inner_slot_once() {
        // The plan-batch → device-launch shape: each outer item runs its
        // own inner loop on the same pool.
        for threads in THREADS {
            let mut outer: Vec<Vec<(usize, usize, u32)>> = (0..9)
                .map(|i| vec![(usize::MAX, usize::MAX, 0); 17 * i])
                .collect();
            pool(threads).install(|| {
                outer.par_iter_mut().enumerate().for_each(|(i, inner)| {
                    inner.par_iter_mut().enumerate().for_each(|(j, s)| {
                        *s = (i, j, s.2 + 1);
                    })
                })
            });
            for (i, inner) in outer.iter().enumerate() {
                for (j, &s) in inner.iter().enumerate() {
                    assert_eq!(s, (i, j, 1), "threads={threads} slot ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn panic_in_inner_item_reaches_outer_caller() {
        for threads in THREADS {
            let p = pool(threads);
            let mut outer = vec![vec![0u8; 100]; 8];
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.install(|| {
                    outer.par_iter_mut().enumerate().for_each(|(i, inner)| {
                        inner.par_iter_mut().enumerate().for_each(|(j, _)| {
                            assert!((i, j) != (5, 77), "item (5, 77)");
                        })
                    })
                })
            }));
            let payload = r.expect_err("the inner panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied();
            assert_eq!(msg, Some("item (5, 77)"), "threads={threads}");
            // The pool stays usable after a poisoned batch.
            let mut after = [0u8; 100];
            p.install(|| after.par_iter_mut().for_each(|x| *x = 1));
            assert!(after.iter().all(|&x| x == 1), "threads={threads}");
        }
    }
}
