//! Offline subset of `rayon`, backed by a real hand-rolled work-stealing
//! thread pool (std threads + mutexed deques + a condvar — no crossbeam,
//! the build is offline).
//!
//! Covered API surface:
//!
//! * [`prelude`] — `par_iter_mut()` over a slice (and so over a `Vec` or
//!   an array), optionally `.enumerate()`d, consumed by `.for_each`: the
//!   one parallel loop the workspace runs;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] for explicitly
//!   sized pools, and [`current_num_threads`].
//!
//! The global pool sizes itself from `RAYON_NUM_THREADS` (a positive
//! integer; `0`, unset or unparsable falls back to the machine's
//! available parallelism). At 1 thread **no workers are spawned** and
//! every loop runs inline — the guaranteed sequential fallback.
//!
//! **Determinism guarantee:** a slice is split into chunks whose count
//! and boundaries depend only on its length, never on the thread count
//! or schedule, and every item is handed out exactly once with its exact
//! index. A loop whose body writes only through its own item therefore
//! produces bit-identical results across thread counts. Every loop runs
//! as one chunked batch on the pool; blocked callers execute queued jobs
//! while they wait, so nested parallelism (a batched solve whose device
//! launches fan out again) cannot deadlock.
//!
//! ```
//! use rayon::prelude::*;
//!
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
//! let mut squares = [0u64; 32];
//! pool.install(|| squares.par_iter_mut().enumerate().for_each(|(i, s)| *s = (i * i) as u64));
//! assert_eq!(squares[7], 49);
//! pool.install(|| squares.par_iter_mut().for_each(|s| *s /= 2));
//! assert_eq!(squares[7], 24);
//! ```

mod iter;
mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    //! The trait behind `par_iter_mut()`.
    pub use crate::iter::IntoParallelRefMutIterator;
}
