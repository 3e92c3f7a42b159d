//! The work-stealing thread pool underneath the parallel iterators.
//!
//! Hand-rolled on `std` threads, mutexed deques and a condvar (the build
//! is offline, so no crossbeam). The pool runs one kind of job: a
//! drainer of a chunked batch ([`run_batch`]) whose shared frame lives
//! on the caller's stack. Each worker owns a deque it pushes and pops
//! LIFO; idle workers — and threads blocked on a batch — steal FIFO
//! from the other deques and from a shared injector queue. Blocked
//! waiters never just sleep: [`Registry::wait_while_helping`] executes
//! any available job while waiting, and a worker pops its own deque
//! first, so a nested batch (a batched solve whose device launches fan
//! out again) drains its own chunks before older work and cannot
//! deadlock.
//!
//! A registry with `num_threads() == 1` spawns no workers at all and
//! every operation degenerates to plain inline execution — the
//! guaranteed sequential fallback (`RAYON_NUM_THREADS=1`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Upper bound on configured threads (guards against absurd env values).
const MAX_THREADS: usize = 256;

/// How long a worker sleeps between queue scans when no wake arrives
/// (backstop only — every push and every completion notifies the condvar).
const IDLE_SLEEP: Duration = Duration::from_millis(10);

/// How long a batch waiter sleeps between help attempts (backstop only).
const WAIT_SLEEP: Duration = Duration::from_millis(1);

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- JobRef

/// Type-erased pointer to a batch drainer. The pointee is always a
/// [`run_batch`] frame on the caller's stack, which provably outlives
/// execution: the caller blocks until every drainer has released it.
/// `execute` must be called exactly once, and must never unwind: the
/// drainer catches panics and routes the payload to its batch.
pub(crate) struct JobRef {
    data: *const (),
    exec_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, and the pointee is kept
// alive by the protocol above; the data it points at is Sync.
unsafe impl Send for JobRef {}

impl JobRef {
    pub(crate) unsafe fn execute(self) {
        (self.exec_fn)(self.data)
    }
}

// -------------------------------------------------------------- Registry

/// Shared state of one thread pool: the injector queue, one deque per
/// worker, and the sleep/wake machinery.
pub(crate) struct Registry {
    nthreads: usize,
    injector: Mutex<VecDeque<JobRef>>,
    locals: Vec<Mutex<VecDeque<JobRef>>>,
    /// Generation counter bumped on every wake; waiters re-scan when it
    /// moves, so a push between "scan" and "sleep" is never lost.
    sleep_gen: Mutex<u64>,
    wake_cv: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    /// Worker identity (registry + index) of the current thread, plus the
    /// stack of pools entered via [`crate::ThreadPool::install`].
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { worker: None, installed: Vec::new() })
    };
}

struct ThreadCtx {
    worker: Option<(Arc<Registry>, usize)>,
    installed: Vec<Arc<Registry>>,
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The registry parallel operations on this thread run against: the
/// innermost pool entered via `ThreadPool::install` (which thereby works
/// even from inside another pool's worker), else the worker's own
/// registry on pool threads, else the global pool.
pub(crate) fn current_registry() -> Arc<Registry> {
    CTX.with(|c| {
        let c = c.borrow();
        if let Some(reg) = c.installed.last() {
            return reg.clone();
        }
        if let Some((reg, _)) = &c.worker {
            return reg.clone();
        }
        global_registry()
    })
}

fn global_registry() -> Arc<Registry> {
    GLOBAL
        .get_or_init(|| {
            let (reg, handles) = Registry::new(default_num_threads());
            // Global workers live for the process; detach the handles.
            drop(handles);
            reg
        })
        .clone()
}

/// Number of threads the current pool executes with (including the
/// calling thread). `1` means strictly sequential execution.
pub fn current_num_threads() -> usize {
    current_registry().num_threads()
}

/// Resolves the default thread count: `RAYON_NUM_THREADS` if set to a
/// positive integer, the machine's available parallelism otherwise.
pub(crate) fn default_num_threads() -> usize {
    parse_thread_env(std::env::var("RAYON_NUM_THREADS").ok().as_deref())
}

pub(crate) fn parse_thread_env(v: Option<&str>) -> usize {
    match v.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(MAX_THREADS),
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS),
    }
}

impl Registry {
    /// Creates a registry with `nthreads` total threads: `nthreads - 1`
    /// spawned workers plus the callers that block (and help) on it.
    ///
    /// Returns only once every worker has set up its thread-local
    /// context, and every queue starts with room for `MAX_THREADS` jobs
    /// (a batch pushes at most one per thread), so a fresh pool's first
    /// parallel operation allocates nothing.
    pub(crate) fn new(nthreads: usize) -> (Arc<Self>, Vec<std::thread::JoinHandle<()>>) {
        let nthreads = nthreads.clamp(1, MAX_THREADS);
        let workers = nthreads - 1;
        let queue = || Mutex::new(VecDeque::with_capacity(MAX_THREADS));
        let reg = Arc::new(Registry {
            nthreads,
            injector: queue(),
            locals: (0..workers).map(|_| queue()).collect(),
            sleep_gen: Mutex::new(0),
            wake_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let primed = Arc::new(Barrier::new(workers + 1));
        let handles = (0..workers)
            .map(|i| {
                let r = reg.clone();
                let primed = primed.clone();
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || worker_loop(r, i, &primed))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        primed.wait();
        (reg, handles)
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Installs/uninstalls this registry as the thread's current pool.
    pub(crate) fn push_installed(self: &Arc<Self>) {
        CTX.with(|c| c.borrow_mut().installed.push(self.clone()));
    }

    pub(crate) fn pop_installed(&self) {
        CTX.with(|c| {
            c.borrow_mut().installed.pop();
        });
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Worker index of the current thread on *this* registry, if any.
    fn my_worker_index(self: &Arc<Self>) -> Option<usize> {
        CTX.with(|c| {
            c.borrow()
                .worker
                .as_ref()
                .filter(|(reg, _)| Arc::ptr_eq(reg, self))
                .map(|(_, i)| *i)
        })
    }

    /// Enqueues jobs: onto the current worker's own deque when called
    /// from a pool thread (LIFO locality), onto the injector otherwise.
    pub(crate) fn push_jobs(self: &Arc<Self>, jobs: impl IntoIterator<Item = JobRef>) {
        match self.my_worker_index() {
            Some(i) => lock(&self.locals[i]).extend(jobs),
            None => lock(&self.injector).extend(jobs),
        }
        self.wake_all();
    }

    /// Pops a job: own deque back (LIFO), then injector front, then steal
    /// from the other workers' fronts (FIFO), round-robin.
    fn find_work(&self, me: Option<usize>) -> Option<JobRef> {
        if let Some(i) = me {
            if let Some(j) = lock(&self.locals[i]).pop_back() {
                return Some(j);
            }
        }
        if let Some(j) = lock(&self.injector).pop_front() {
            return Some(j);
        }
        let k = self.locals.len();
        let start = me.map(|i| i + 1).unwrap_or(0);
        for d in 0..k {
            let v = (start + d) % k;
            if Some(v) == me {
                continue;
            }
            if let Some(j) = lock(&self.locals[v]).pop_front() {
                return Some(j);
            }
        }
        None
    }

    pub(crate) fn wake_all(&self) {
        let mut g = lock(&self.sleep_gen);
        *g = g.wrapping_add(1);
        self.wake_cv.notify_all();
    }

    fn sleep_generation(&self) -> u64 {
        *lock(&self.sleep_gen)
    }

    /// Sleeps until the generation moves past `g0` or `dur` elapses.
    fn sleep_until_wake(&self, g0: u64, dur: Duration) {
        let g = lock(&self.sleep_gen);
        if *g != g0 {
            return;
        }
        let _ = self.wake_cv.wait_timeout(g, dur);
    }

    /// Blocks until `done()` holds, executing available jobs while
    /// waiting. This is the only blocking primitive in the pool; because
    /// every waiter drains the queues, nested batches cannot deadlock.
    pub(crate) fn wait_while_helping(self: &Arc<Self>, done: &dyn Fn() -> bool) {
        let me = self.my_worker_index();
        loop {
            if done() {
                return;
            }
            if let Some(job) = self.find_work(me) {
                // SAFETY: each JobRef is popped (and thus executed) once.
                unsafe { job.execute() };
                continue;
            }
            let g0 = self.sleep_generation();
            if done() {
                return;
            }
            if let Some(job) = self.find_work(me) {
                // SAFETY: as above.
                unsafe { job.execute() };
                continue;
            }
            self.sleep_until_wake(g0, WAIT_SLEEP);
        }
    }
}

fn worker_loop(reg: Arc<Registry>, index: usize, primed: &Barrier) {
    CTX.with(|c| c.borrow_mut().worker = Some((reg.clone(), index)));
    primed.wait();
    loop {
        if let Some(job) = reg.find_work(Some(index)) {
            // SAFETY: each JobRef is popped (and thus executed) once.
            unsafe { job.execute() };
            continue;
        }
        if reg.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let g0 = reg.sleep_generation();
        if let Some(job) = reg.find_work(Some(index)) {
            // SAFETY: as above.
            unsafe { job.execute() };
            continue;
        }
        if reg.shutdown.load(Ordering::SeqCst) {
            break;
        }
        reg.sleep_until_wake(g0, IDLE_SLEEP);
    }
}

// ------------------------------------------------------------ run_batch

/// Shared state of one chunked batch, living on the caller's stack. The
/// caller does not return until `refs` has dropped to zero *and* every
/// chunk completed (or the batch was poisoned by a panic), so the frame
/// outlives every `JobRef` pointing at it.
struct BatchShared<'a, F: Sync> {
    f: &'a F,
    n: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    refs: AtomicUsize,
    poisoned: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
    reg: &'a Arc<Registry>,
}

impl<F: Fn(usize) + Sync> BatchShared<'_, F> {
    /// Claims and runs chunks until none remain (or a panic poisons the
    /// batch). Runs on workers *and* on the calling thread.
    fn drain(&self) {
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.n {
                return;
            }
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                // The first panic wins; later ones are dropped.
                lock(&self.panic).get_or_insert(p);
                self.poisoned.store(true, Ordering::SeqCst);
                self.reg.wake_all();
                return;
            }
            if self.completed.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
                self.reg.wake_all();
            }
        }
    }

    fn is_done(&self) -> bool {
        self.refs.load(Ordering::SeqCst) == 0
            && (self.completed.load(Ordering::SeqCst) == self.n
                || self.poisoned.load(Ordering::SeqCst))
    }
}

unsafe fn batch_exec<F: Fn(usize) + Sync>(p: *const ()) {
    let s = &*(p as *const BatchShared<'_, F>);
    s.drain();
    // Clone the registry handle *before* the decrement: once `refs` hits
    // zero the blocked caller may return and free the BatchShared frame,
    // so nothing behind `s` may be touched after fetch_sub.
    let reg = s.reg.clone();
    if s.refs.fetch_sub(1, Ordering::SeqCst) == 1 {
        reg.wake_all();
    }
}

/// Runs `f(i)` for every `i in 0..n` on the registry's pool, blocking
/// until all calls complete. Chunk *claiming* order is nondeterministic;
/// callers must make each `f(i)` write only state owned by chunk `i`.
/// With a 1-thread registry this is a plain sequential loop. Panics in
/// `f` poison the batch and are re-raised here (first panic wins).
pub(crate) fn run_batch<F: Fn(usize) + Sync>(reg: &Arc<Registry>, n: usize, f: F) {
    if n == 0 {
        return;
    }
    if reg.num_threads() <= 1 || n == 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let shared = BatchShared {
        f: &f,
        n,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        refs: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        reg,
    };
    // One drainer ref per pool thread (capped at the chunk count); the
    // calling thread drains directly as well.
    let nrefs = reg.num_threads().min(n);
    shared.refs.store(nrefs, Ordering::SeqCst);
    let data = &shared as *const BatchShared<'_, F> as *const ();
    reg.push_jobs((0..nrefs).map(|_| JobRef {
        data,
        exec_fn: batch_exec::<F>,
    }));
    shared.drain();
    reg.wait_while_helping(&|| shared.is_done());
    let payload = lock(&shared.panic).take();
    if let Some(p) = payload {
        panic::resume_unwind(p);
    }
}

// ----------------------------------------------------------- ThreadPool

/// Error type kept for signature compatibility with upstream
/// `ThreadPoolBuilder::build`; the shim's build cannot actually fail.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for an explicitly sized [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total threads the pool executes with, counting the thread that
    /// calls [`ThreadPool::install`]. `0` (the default) resolves like the
    /// global pool: `RAYON_NUM_THREADS`, else available parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_num_threads()
        } else {
            self.num_threads.min(MAX_THREADS)
        };
        let (reg, handles) = Registry::new(n);
        Ok(ThreadPool { reg, handles })
    }
}

/// An explicitly sized work-stealing pool. Dropping it shuts the workers
/// down and joins them.
pub struct ThreadPool {
    reg: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` with this pool as the thread's current pool: every
    /// parallel operation inside (including nested ones) executes here
    /// instead of on the global pool.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        self.reg.push_installed();
        struct Uninstall<'a>(&'a Registry);
        impl Drop for Uninstall<'_> {
            fn drop(&mut self) {
                self.0.pop_installed();
            }
        }
        let _guard = Uninstall(&self.reg);
        op()
    }

    /// Threads this pool executes with (including the installing caller).
    pub fn current_num_threads(&self) -> usize {
        self.reg.num_threads()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool(num_threads={})", self.reg.num_threads())
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.reg.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn env_parsing() {
        assert_eq!(parse_thread_env(Some("3")), 3);
        assert_eq!(parse_thread_env(Some(" 8 ")), 8);
        assert_eq!(parse_thread_env(Some("9999")), MAX_THREADS);
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(parse_thread_env(Some("0")), auto);
        assert_eq!(parse_thread_env(Some("garbage")), auto);
        assert_eq!(parse_thread_env(None), auto);
    }

    #[test]
    fn batch_runs_every_index_once() {
        for threads in [1, 2, 4] {
            let p = pool(threads);
            let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
            p.install(|| {
                run_batch(&current_registry(), hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                })
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "threads={threads}: every index exactly once"
            );
        }
    }

    #[test]
    fn nested_batches_complete() {
        // Every outer chunk runs a batch of its own — the path of a
        // batched solve whose launches fan out again. Each waiter must
        // help drain the queues, or this deadlocks.
        const OUTER: usize = 8;
        const INNER: usize = 13;
        for threads in [1, 2, 4] {
            let p = pool(threads);
            let hits: Vec<AtomicU64> = (0..OUTER * INNER).map(|_| AtomicU64::new(0)).collect();
            p.install(|| {
                run_batch(&current_registry(), OUTER, |i| {
                    run_batch(&current_registry(), INNER, |j| {
                        hits[i * INNER + j].fetch_add(1, Ordering::SeqCst);
                    })
                })
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "threads={threads}: every (i, j) exactly once"
            );
        }
    }

    #[test]
    fn batch_panic_propagates() {
        for threads in [1, 4] {
            let p = pool(threads);
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                p.install(|| {
                    run_batch(&current_registry(), 16, |i| {
                        assert!(i != 7, "chunk 7 exploded");
                    })
                })
            }));
            assert!(r.is_err(), "threads={threads}: panic must propagate");
        }
    }

    #[test]
    fn batch_genuinely_overlaps() {
        // 8 sleeps of 20 ms on an 8-thread pool must overlap — well under
        // the 160 ms a sequential pool would take. (Sleeping threads need
        // no CPU, so this holds even on a single-core host.)
        let p = pool(8);
        let t0 = std::time::Instant::now();
        p.install(|| {
            run_batch(&current_registry(), 8, |_| {
                std::thread::sleep(Duration::from_millis(20));
            })
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(120),
            "batch did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn pool_drop_joins_workers() {
        let p = pool(4);
        p.install(|| {
            run_batch(&current_registry(), 8, |_| {
                std::thread::sleep(Duration::from_millis(1));
            })
        });
        drop(p); // must not hang
    }

    #[test]
    fn current_num_threads_reflects_install() {
        let p = pool(5);
        assert_eq!(p.current_num_threads(), 5);
        assert_eq!(p.install(current_num_threads), 5);
        assert!(current_num_threads() >= 1);
    }
}
