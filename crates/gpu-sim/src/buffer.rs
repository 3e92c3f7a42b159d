//! Simulated device global memory.
//!
//! [`GlobalBuffer`] is the moral equivalent of a `CuArray`/`ROCArray`
//! allocation: a flat, bounds-checked array that many workgroups access
//! concurrently. As on a real GPU, the runtime does **not** serialise
//! accesses — kernels must write disjoint locations from distinct
//! workgroups within a launch (reads may overlap freely). All the kernels
//! in this workspace are race-free by construction (each workgroup owns a
//! disjoint tile or column group), and the integration tests cross-check
//! results against sequential oracles, which would catch a racy kernel as
//! nondeterminism.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Per-host-thread launch context for the race detector:
    /// `(epoch, group, active)` set by the device around each workgroup.
    pub(crate) static RACE_CTX: Cell<(u64, u64, bool)> = const { Cell::new((0, 0, false)) };
}

/// Sets the race-detection context for the current host thread (used by
/// the device's launch loop).
pub(crate) fn set_race_ctx(epoch: u64, group: u64, active: bool) {
    RACE_CTX.with(|c| c.set((epoch, group, active)));
}

/// One element of device memory, sharable across simulated workgroups.
#[repr(transparent)]
struct DeviceCell<T>(UnsafeCell<T>);

// SAFETY: concurrent access discipline is the kernel author's obligation,
// exactly as for GPU global memory. Bounds are always checked; only
// simultaneous read/write of the *same* element from different workgroups
// is (documented) UB, and no kernel in this workspace does that.
unsafe impl<T: Send + Sync> Sync for DeviceCell<T> {}

/// Flat device-global memory buffer of `T`.
pub struct GlobalBuffer<T> {
    cells: Box<[DeviceCell<T>]>,
    /// Optional write-ownership tags for the race detector: per element,
    /// `(epoch << 32) | (group + 1)` of the last writer. Allocated only
    /// on race-checking devices.
    tags: Option<Box<[AtomicU64]>>,
}

impl<T: Copy + Send + Sync> GlobalBuffer<T> {
    /// Allocates and uploads `data` to the device.
    pub fn from_vec(data: Vec<T>) -> Self {
        GlobalBuffer {
            cells: data
                .into_iter()
                .map(|v| DeviceCell(UnsafeCell::new(v)))
                .collect(),
            tags: None,
        }
    }

    /// Enables write-write race detection on this buffer: two workgroups
    /// of the same launch writing the same element is a kernel bug on
    /// real GPUs; with tags enabled the simulator panics on it instead of
    /// silently producing schedule-dependent output.
    pub fn with_race_tags(mut self) -> Self {
        let tags = (0..self.cells.len()).map(|_| AtomicU64::new(0)).collect();
        self.tags = Some(tags);
        self
    }

    /// Allocates `len` elements initialised to `fill`. Large buffers are
    /// filled in parallel on the host pool (each chunk writes a disjoint
    /// index range — the device-alloc path for padded n×n problems);
    /// small ones inline. Contents are identical either way.
    pub fn filled(len: usize, fill: T) -> Self {
        /// Below this, the pool dispatch overhead beats the plain fill.
        const PAR_FILL_MIN: usize = 1 << 16;
        if len < PAR_FILL_MIN {
            return Self::from_vec(vec![fill; len]);
        }
        use rayon::prelude::*;
        let mut cells: Vec<DeviceCell<T>> = Vec::with_capacity(len);
        cells.spare_capacity_mut()[..len]
            .par_iter_mut()
            .for_each(|cell| {
                cell.write(DeviceCell(UnsafeCell::new(fill)));
            });
        // SAFETY: the parallel loop initialised every slot in 0..len and
        // completed before this point.
        unsafe { cells.set_len(len) };
        GlobalBuffer {
            cells: cells.into_boxed_slice(),
            tags: None,
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads element `i`.
    ///
    /// # Panics
    /// On out-of-bounds access.
    #[inline(always)]
    pub fn read(&self, i: usize) -> T {
        // SAFETY: bounds-checked by the index; racing with a concurrent
        // write to the same element is excluded by the kernel discipline
        // documented on the type.
        unsafe { *self.cells[i].0.get() }
    }

    /// Writes element `i`.
    ///
    /// # Panics
    /// On out-of-bounds access, or — on race-checking buffers — when two
    /// workgroups of the same launch write the same element.
    #[inline(always)]
    pub fn write(&self, i: usize, v: T) {
        if let Some(tags) = &self.tags {
            let (epoch, group, active) = RACE_CTX.with(|c| c.get());
            if active {
                let cur = (epoch << 32) | (group + 1);
                let prev = tags[i].swap(cur, Ordering::Relaxed);
                let (pe, pg) = (prev >> 32, prev & 0xFFFF_FFFF);
                assert!(
                    !(pe == epoch && pg != 0 && pg != group + 1),
                    "write-write race on element {i}: workgroups {} and {group} \
                     of the same launch (epoch {epoch})",
                    pg - 1
                );
            }
        }
        // SAFETY: see `read`.
        unsafe { *self.cells[i].0.get() = v }
    }

    /// Downloads the buffer back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.read(i)).collect()
    }

    /// Bulk read of `dst.len()` consecutive elements starting at
    /// `offset`, mapped through `f` (e.g. a storage → compute upcast) —
    /// the contiguous fast path of kernel cooperative loaders.
    /// Equivalent to element-wise [`read`](Self::read) of the same range
    /// (same values, same race discipline: reads never race within a
    /// launch), with the bounds checked once so the loop vectorises.
    ///
    /// # Panics
    /// If `offset + dst.len()` exceeds the buffer length.
    #[inline]
    pub fn read_range_with<U>(&self, offset: usize, dst: &mut [U], f: impl Fn(T) -> U) {
        let cells = &self.cells[offset..offset + dst.len()];
        for (d, cell) in dst.iter_mut().zip(cells) {
            // SAFETY: see `read`.
            *d = f(unsafe { *cell.0.get() });
        }
    }

    /// Bulk write of `src` to consecutive elements starting at `offset`,
    /// mapped through `f` (e.g. a compute → storage rounding) — the
    /// contiguous fast path of kernel cooperative stores. On
    /// race-checking buffers this degrades to element-wise
    /// [`write`](Self::write) so every ownership tag is maintained.
    ///
    /// # Panics
    /// If `offset + src.len()` exceeds the buffer length; on
    /// race-checking buffers, additionally on a write-write race.
    #[inline]
    pub fn write_range_with<U: Copy>(&self, offset: usize, src: &[U], f: impl Fn(U) -> T) {
        if self.tags.is_some() {
            for (k, &v) in src.iter().enumerate() {
                self.write(offset + k, f(v));
            }
            return;
        }
        let cells = &self.cells[offset..offset + src.len()];
        for (cell, &v) in cells.iter().zip(src) {
            // SAFETY: see `read`; distinct workgroups write disjoint
            // ranges by the kernel discipline documented on the type.
            unsafe { *cell.0.get() = f(v) }
        }
    }

    /// Overwrites the whole buffer from a host slice — the reuse path of a
    /// plan/execute workflow (upload into an existing allocation instead
    /// of allocating per solve). Runs outside any launch, so the race
    /// detector's per-launch ownership tags are left untouched (they are
    /// epoch-scoped and cannot alias a future launch).
    ///
    /// # Panics
    /// If `src.len() != self.len()`.
    pub fn copy_from_host(&self, src: &[T]) {
        assert_eq!(
            src.len(),
            self.len(),
            "host upload size must match the device allocation"
        );
        for (i, &v) in src.iter().enumerate() {
            // SAFETY: bounds guaranteed by the length check; host-side
            // writes never race with launches (the device stream is idle
            // between launches by construction).
            unsafe { *self.cells[i].0.get() = v }
        }
    }

    /// Resets every element to `v` (workspace reset between solves).
    pub fn fill(&self, v: T) {
        for cell in self.cells.iter() {
            // SAFETY: see `copy_from_host`.
            unsafe { *cell.0.get() = v }
        }
    }
}

impl<T: Copy + Send + Sync + std::fmt::Debug> std::fmt::Debug for GlobalBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalBuffer(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_read_write_download() {
        let b = GlobalBuffer::from_vec(vec![1.0f64, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.read(1), 2.0);
        b.write(1, 9.0);
        assert_eq!(b.to_vec(), vec![1.0, 9.0, 3.0]);
    }

    #[test]
    fn filled_buffer() {
        let b = GlobalBuffer::filled(4, 7i32);
        assert_eq!(b.to_vec(), vec![7, 7, 7, 7]);
        assert!(!b.is_empty());
    }

    #[test]
    fn filled_buffer_parallel_path() {
        // Crosses the parallel-fill threshold (1 << 16 elements).
        let len = (1 << 16) + 1234;
        let b = GlobalBuffer::filled(len, 0.5f32);
        assert_eq!(b.len(), len);
        assert!((0..len).all(|i| b.read(i) == 0.5));
    }

    #[test]
    fn copy_from_host_and_fill_reuse_allocation() {
        let b = GlobalBuffer::from_vec(vec![1.0f64, 2.0, 3.0]);
        b.copy_from_host(&[7.0, 8.0, 9.0]);
        assert_eq!(b.to_vec(), vec![7.0, 8.0, 9.0]);
        b.fill(0.5);
        assert_eq!(b.to_vec(), vec![0.5, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "host upload size")]
    fn copy_from_host_checks_length() {
        let b = GlobalBuffer::from_vec(vec![0.0f32; 4]);
        b.copy_from_host(&[1.0f32; 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let b = GlobalBuffer::from_vec(vec![0.0f32]);
        let _ = b.read(1);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use rayon::prelude::*;
        let b = GlobalBuffer::filled(1024, 0usize);
        let mut squares: Vec<usize> = (0..1024).map(|i| i * i).collect();
        squares
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| b.write(i, *x));
        let v = b.to_vec();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
    }
}
