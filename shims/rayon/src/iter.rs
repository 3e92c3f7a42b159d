//! Chunked, index-ordered parallel iterators over integer ranges and
//! slices (a `Vec` autoderefs to its slice).
//!
//! Every operation splits its input into contiguous chunks whose count
//! and boundaries depend **only on the input length — never on the
//! thread count** ([`n_chunks`]). Chunks execute concurrently on the
//! pool, each delivering its items in order; consumers (`collect`,
//! `sum`) buffer per-chunk results in dedicated slots and combine them
//! in fixed chunk order on the calling thread. The result is
//! bit-identical to the 1-thread sequential path for any thread count,
//! including non-associative float reductions.

use crate::pool::{self, current_registry};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fixed upper bound on chunks per parallel operation: independent of the
/// worker count by design (determinism), but comfortably larger than any
/// realistic `RAYON_NUM_THREADS` so every worker finds work.
const MAX_CHUNKS: usize = 64;

/// Number of chunks a `len`-item operation splits into.
pub(crate) fn n_chunks(len: usize) -> usize {
    len.min(MAX_CHUNKS)
}

/// Half-open index range of chunk `c` out of `nc` over `len` items
/// (remainder spread over the leading chunks, like `slice::chunks`).
pub(crate) fn chunk_bounds(len: usize, nc: usize, c: usize) -> Range<usize> {
    let base = len / nc;
    let rem = len % nc;
    let start = c * base + c.min(rem);
    start..start + base + usize::from(c < rem)
}

/// Splits `0..len` into chunks and runs `body(chunk, index_range)` for
/// each on the current pool (inline, in order, on a 1-thread pool).
fn run_chunked(len: usize, body: &(dyn Fn(usize, Range<usize>) + Sync)) {
    if len == 0 {
        return;
    }
    let nc = n_chunks(len);
    pool::run_batch(&current_registry(), nc, |c| {
        body(c, chunk_bounds(len, nc, c))
    });
}

/// Per-item callback of a driven pipeline. `accept` is called once per
/// item, tagged with the item's chunk index; items *within* one chunk
/// arrive in order on one thread, chunks may be concurrent.
pub trait Sink<T>: Sync {
    fn accept(&self, chunk: usize, item: T);
}

/// A parallel iterator with an exactly known length (all of this shim's
/// sources are indexed). Adapters preserve the length; consumers execute
/// the pipeline on the current thread pool.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    /// Exact number of items this iterator will produce.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes the pipeline, delivering every item to `sink`.
    fn drive(self, sink: &dyn Sink<Self::Item>);

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        struct ForEachSink<'a, F>(&'a F);
        impl<T, F: Fn(T) + Sync> Sink<T> for ForEachSink<'_, F> {
            fn accept(&self, _chunk: usize, item: T) {
                (self.0)(item)
            }
        }
        self.drive(&ForEachSink(&f));
    }

    /// Collects into `C` preserving input order (per-chunk buffers are
    /// concatenated in chunk order).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sums items: per-chunk partial sums, combined in fixed chunk order
    /// — bit-identical across thread counts. (Items are buffered per
    /// chunk so each partial is produced by the exact `std::iter::Sum`
    /// the sequential path would run; `Sum` exposes no incremental fold
    /// that could reproduce those bits for an arbitrary `S`.)
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        collect_chunks(self)
            .into_iter()
            .map(|chunk| chunk.into_iter().sum::<S>())
            .sum()
    }
}

/// One lock-free output slot per chunk.
///
/// SAFETY invariant: every source delivers all items of one chunk from
/// exactly one `run_batch` job, i.e. slot `c` is only ever touched by the
/// single thread currently driving chunk `c`, and the slots are read back
/// only after `drive` returned (all chunks done). That makes the unlocked
/// `&mut` access in `get_mut` exclusive by construction — no per-item
/// mutex needed.
struct ChunkSlots<T> {
    slots: Vec<UnsafeCell<T>>,
}

// SAFETY: see the invariant above — distinct chunks use distinct cells.
unsafe impl<T: Send> Sync for ChunkSlots<T> {}

impl<T> ChunkSlots<T> {
    fn new(init: impl Iterator<Item = T>) -> Self {
        ChunkSlots {
            slots: init.map(UnsafeCell::new).collect(),
        }
    }

    /// # Safety
    /// The caller must be the unique driver of chunk `c` (see the type's
    /// invariant).
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, c: usize) -> &mut T {
        &mut *self.slots[c].get()
    }

    fn into_vec(self) -> Vec<T> {
        self.slots.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

/// Runs the pipeline and returns one `Vec` per chunk, in chunk order.
fn collect_chunks<P: ParallelIterator>(p: P) -> Vec<Vec<P::Item>> {
    let len = p.len();
    let nc = n_chunks(len);
    struct CollectSink<T> {
        slots: ChunkSlots<Vec<T>>,
    }
    impl<T: Send> Sink<T> for CollectSink<T> {
        fn accept(&self, chunk: usize, item: T) {
            // SAFETY: one thread drives chunk `chunk` (ChunkSlots invariant).
            unsafe { self.slots.get_mut(chunk) }.push(item);
        }
    }
    let sink = CollectSink {
        slots: ChunkSlots::new((0..nc).map(|c| Vec::with_capacity(chunk_bounds(len, nc, c).len()))),
    };
    p.drive(&sink);
    sink.slots.into_vec()
}

/// Conversion from a parallel iterator, order-preserving.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        let len = p.len();
        let chunks = collect_chunks(p);
        let mut out = Vec::with_capacity(len);
        for c in chunks {
            out.extend(c);
        }
        out
    }
}

// -------------------------------------------------------------- adapters

/// Item-wise transformation (`par_iter().map(f)`).
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn drive(self, sink: &dyn Sink<R>) {
        struct MapSink<'a, T, R, F> {
            f: &'a F,
            down: &'a dyn Sink<R>,
            _pd: PhantomData<fn(T) -> R>,
        }
        impl<T, R, F: Fn(T) -> R + Sync> Sink<T> for MapSink<'_, T, R, F> {
            fn accept(&self, chunk: usize, item: T) {
                self.down.accept(chunk, (self.f)(item))
            }
        }
        self.base.drive(&MapSink {
            f: &self.f,
            down: sink,
            _pd: PhantomData,
        });
    }
}

/// Pairs each item with its global index (`par_iter_mut().enumerate()`).
/// Indices are exact because chunk boundaries are deterministic and items
/// within a chunk arrive in order.
pub struct Enumerate<P> {
    base: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn len(&self) -> usize {
        self.base.len()
    }

    fn drive(self, sink: &dyn Sink<(usize, P::Item)>) {
        let len = self.base.len();
        // One cursor per chunk, held inline (there are never more than
        // MAX_CHUNKS chunks), so enumerating allocates nothing.
        struct EnumSink<'a, T> {
            len: usize,
            nc: usize,
            next: [AtomicUsize; MAX_CHUNKS],
            down: &'a dyn Sink<(usize, T)>,
        }
        impl<T> Sink<T> for EnumSink<'_, T> {
            fn accept(&self, chunk: usize, item: T) {
                let k = self.next[chunk].fetch_add(1, Ordering::Relaxed);
                let start = chunk_bounds(self.len, self.nc, chunk).start;
                self.down.accept(chunk, (start + k, item));
            }
        }
        self.base.drive(&EnumSink {
            len,
            nc: n_chunks(len),
            next: std::array::from_fn(|_| AtomicUsize::new(0)),
            down: sink,
        });
    }
}

// --------------------------------------------------------------- sources

/// Integer types usable as `Range<T>` parallel items.
pub trait ParRangeItem: Copy + Send + Sync + 'static {
    fn span(start: Self, end: Self) -> usize;
    fn offset(start: Self, i: usize) -> Self;
}

macro_rules! range_item_impls {
    ($($t:ty),+) => {$(
        impl ParRangeItem for $t {
            fn span(start: Self, end: Self) -> usize {
                if end > start { (end - start) as usize } else { 0 }
            }
            fn offset(start: Self, i: usize) -> Self {
                start + i as $t
            }
        }
    )+};
}
range_item_impls!(usize, u64, u32, i64, i32);

/// Parallel iterator over an integer range.
pub struct RangeParIter<T> {
    start: T,
    len: usize,
}

impl<T: ParRangeItem> ParallelIterator for RangeParIter<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.len
    }

    fn drive(self, sink: &dyn Sink<T>) {
        let start = self.start;
        run_chunked(self.len, &|c, r| {
            for i in r {
                sink.accept(c, T::offset(start, i));
            }
        });
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceParIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync + 'data> ParallelIterator for SliceParIter<'data, T> {
    type Item = &'data T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn drive(self, sink: &dyn Sink<&'data T>) {
        let s = self.slice;
        run_chunked(s.len(), &|c, r| {
            for item in &s[r] {
                sink.accept(c, item);
            }
        });
    }
}

struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced at chunk-disjoint indices.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (not field) access, so closures capture the whole wrapper —
    /// edition-2021 disjoint capture would otherwise grab the raw `*mut T`
    /// field directly and lose the `Send`/`Sync` impls above.
    unsafe fn add(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct SliceParIterMut<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send + 'data> ParallelIterator for SliceParIterMut<'data, T> {
    type Item = &'data mut T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn drive(self, sink: &dyn Sink<&'data mut T>) {
        let len = self.slice.len();
        let base = SendPtr(self.slice.as_mut_ptr());
        run_chunked(len, &|c, r| {
            for i in r {
                // SAFETY: chunks are disjoint index ranges, so each element
                // is handed out exactly once; the borrow of `self.slice`
                // (lifetime 'data) outlives the blocking `run_chunked`.
                let item: &'data mut T = unsafe { &mut *base.add(i) };
                sink.accept(c, item);
            }
        });
    }
}

// ------------------------------------------------- conversion traits

/// `into_par_iter()` on integer ranges and slice references.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: ParRangeItem> IntoParallelIterator for Range<T> {
    type Item = T;
    type Iter = RangeParIter<T>;
    fn into_par_iter(self) -> Self::Iter {
        RangeParIter {
            start: self.start,
            len: T::span(self.start, self.end),
        }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn into_par_iter(self) -> Self::Iter {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Send> IntoParallelIterator for &'data mut [T] {
    type Item = &'data mut T;
    type Iter = SliceParIterMut<'data, T>;
    fn into_par_iter(self) -> Self::Iter {
        SliceParIterMut { slice: self }
    }
}

/// `par_iter()` on anything whose shared reference is parallelizable.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoParallelIterator,
{
    type Item = <&'data I as IntoParallelIterator>::Item;
    type Iter = <&'data I as IntoParallelIterator>::Iter;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut()` on anything whose unique reference is parallelizable.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: Send + 'data;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
where
    &'data mut I: IntoParallelIterator,
{
    type Item = <&'data mut I as IntoParallelIterator>::Item;
    type Iter = <&'data mut I as IntoParallelIterator>::Iter;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

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
    fn map_collect_is_index_ordered() {
        for threads in [1, 2, 4, 8] {
            let p = pool(threads);
            let got: Vec<usize> =
                p.install(|| (0..1000usize).into_par_iter().map(|i| i * 3).collect());
            let want: Vec<usize> = (0..1000).map(|i| i * 3).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn float_sum_bit_identical_across_thread_counts() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i as f64) * 0.73).sin() / ((i % 89) as f64 + 0.25))
            .collect();
        let sum_with =
            |t: usize| -> u64 { pool(t).install(|| xs.par_iter().sum::<f64>()).to_bits() };
        let seq = sum_with(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(sum_with(t), seq, "sum must be bit-identical at {t} threads");
        }
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let p = pool(4);
        let mut xs = vec![0usize; 513];
        p.install(|| xs.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * i));
        assert!(xs.iter().enumerate().all(|(i, &x)| x == i * i));
    }

    #[test]
    fn empty_collect() {
        let p = pool(2);
        let got: Vec<i32> = p.install(|| (0..0i32).into_par_iter().collect());
        assert!(got.is_empty());
    }

    #[test]
    fn panic_in_for_each_propagates() {
        let p = pool(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| {
                (0..64usize)
                    .into_par_iter()
                    .for_each(|i| assert!(i != 33, "item 33"))
            })
        }));
        assert!(r.is_err());
    }
}
