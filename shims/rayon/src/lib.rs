//! Offline subset of `rayon`, backed by a real hand-rolled work-stealing
//! thread pool (std threads + mutexed deques + a condvar — no crossbeam,
//! the build is offline).
//!
//! Covered API surface:
//!
//! * [`prelude`] — `par_iter` / `par_iter_mut` over slices (and so over
//!   `Vec`s and arrays) and `into_par_iter` over integer ranges, with
//!   `for_each`, `map`, `enumerate`, `collect` and `sum`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] for explicitly
//!   sized pools, and [`current_num_threads`].
//!
//! The global pool sizes itself from `RAYON_NUM_THREADS` (a positive
//! integer; `0`, unset or unparsable falls back to the machine's
//! available parallelism). At 1 thread **no workers are spawned** and
//! every operation runs inline — the guaranteed sequential fallback.
//!
//! **Determinism guarantee:** inputs are split into chunks whose count
//! and boundaries depend only on the input length, never on the thread
//! count or schedule. `collect` concatenates per-chunk buffers in chunk
//! order, and `sum` combines per-chunk partials in chunk order on the
//! calling thread, so results — including non-associative float
//! reductions — are **bit-identical** across thread counts. Every
//! operation runs as one chunked batch on the pool; blocked callers
//! execute queued jobs while they wait, so nested parallelism (a batched
//! solve whose device launches fan out again) cannot deadlock.
//!
//! ```
//! use rayon::prelude::*;
//!
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
//! let squares: Vec<u64> = pool.install(|| (0..32u64).into_par_iter().map(|i| i * i).collect());
//! assert_eq!(squares[7], 49);
//! let mut halves = [0u64; 32];
//! pool.install(|| halves.par_iter_mut().enumerate().for_each(|(i, h)| *h = squares[i] / 2));
//! assert_eq!(halves[7], 24);
//! ```

mod iter;
mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    //! Traits required for `par_iter()` / `into_par_iter()` /
    //! `par_iter_mut()` and the consumer methods on the result.
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn sequential_semantics_match() {
        let v = [1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let s: i32 = (0..10).into_par_iter().sum();
        assert_eq!(s, 45);
    }
}
