//! Device-matrix view with tile indexing and lazy transposition.
//!
//! [`DMat`] wraps a device [`GlobalBuffer`] holding an `n × n` column-major
//! matrix and adds (a) tile-level addressing and (b) an index-level
//! transpose flag — the device-side counterpart of Julia's lazy `A'` that
//! lets the LQ sweep reuse the QR kernels unchanged (§3.1). All element
//! loads upcast storage `T` to the compute type `T::Accum`, and stores
//! round back — the FP16 load/compute/store discipline of §4.3.

use unisvd_gpu::GlobalBuffer;
use unisvd_scalar::Scalar;

/// Borrowed device-matrix view (copyable; shares the underlying buffer).
pub struct DMat<'a, T> {
    buf: &'a GlobalBuffer<T>,
    n: usize,
    trans: bool,
}

// Manual Copy/Clone: `T` itself need not be Clone for the *view* to be.
impl<T> Clone for DMat<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DMat<'_, T> {}

impl<'a, T: Scalar> DMat<'a, T> {
    /// Wraps an `n × n` column-major device buffer.
    ///
    /// # Panics
    /// If the buffer length is neither `n²` (numeric mode) nor `0`
    /// (trace-only placeholder).
    pub fn new(buf: &'a GlobalBuffer<T>, n: usize) -> Self {
        assert!(
            buf.len() == n * n || buf.is_empty(),
            "buffer must hold n*n elements (or be a trace-mode placeholder)"
        );
        DMat {
            buf,
            n,
            trans: false,
        }
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// True if this view transposes the storage.
    #[inline]
    pub fn is_transposed(&self) -> bool {
        self.trans
    }

    /// Lazy transpose (Algorithm 2 line 4: `GETSMQRT!(A', …)`).
    #[inline]
    pub fn t(&self) -> Self {
        DMat {
            buf: self.buf,
            n: self.n,
            trans: !self.trans,
        }
    }

    #[inline(always)]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(
            r < self.n && c < self.n,
            "element ({r},{c}) out of {0}x{0}",
            self.n
        );
        if self.trans {
            r * self.n + c
        } else {
            c * self.n + r
        }
    }

    /// Loads element `(r, c)`, upcast to the compute type.
    #[inline(always)]
    pub fn read(&self, r: usize, c: usize) -> T::Accum {
        self.buf.read(self.idx(r, c)).to_accum()
    }

    /// Stores element `(r, c)`, rounding from the compute type.
    #[inline(always)]
    pub fn write(&self, r: usize, c: usize, v: T::Accum) {
        self.buf.write(self.idx(r, c), T::from_accum(v));
    }

    /// Bulk load of the column segment `(r0 .. r0 + out.len(), c)` into
    /// `out`, upcast to the compute type. On an untransposed view the
    /// segment is contiguous in column-major storage and copies as one
    /// slice operation; a transposed view (stride `n`) falls back to the
    /// element loop. Values are identical to element-wise
    /// [`read`](Self::read) either way.
    #[inline]
    pub fn read_col(&self, r0: usize, c: usize, out: &mut [T::Accum]) {
        if self.trans {
            for (k, o) in out.iter_mut().enumerate() {
                *o = self.read(r0 + k, c);
            }
        } else {
            debug_assert!(r0 + out.len() <= self.n && c < self.n);
            self.buf.read_range_with(c * self.n + r0, out, T::to_accum);
        }
    }

    /// Bulk store of `src` to the column segment `(r0 .., c)`, rounding
    /// from the compute type — the store twin of
    /// [`read_col`](Self::read_col).
    #[inline]
    pub fn write_col(&self, r0: usize, c: usize, src: &[T::Accum]) {
        if self.trans {
            for (k, &v) in src.iter().enumerate() {
                self.write(r0 + k, c, v);
            }
        } else {
            debug_assert!(r0 + src.len() <= self.n && c < self.n);
            self.buf
                .write_range_with(c * self.n + r0, src, T::from_accum);
        }
    }

    /// Bulk load of the row segment `(r, c0 .. c0 + out.len())` into
    /// `out` — one register row of a workgroup whose lanes own
    /// consecutive columns. A row of this view is a column of its
    /// transpose, so the segment is one slice copy on a transposed view
    /// and the stride-`n` element loop on an untransposed one.
    #[inline]
    pub fn read_row(&self, r: usize, c0: usize, out: &mut [T::Accum]) {
        self.t().read_col(c0, r, out);
    }

    /// Bulk store of `src` to the row segment `(r, c0 ..)` — the store
    /// twin of [`read_row`](Self::read_row).
    #[inline]
    pub fn write_row(&self, r: usize, c0: usize, src: &[T::Accum]) {
        self.t().write_col(c0, r, src);
    }
}

/// Device vector view for the τ coefficients, with the same upcast
/// discipline as [`DMat`].
pub struct DVec<'a, T> {
    buf: &'a GlobalBuffer<T>,
}

impl<T> Clone for DVec<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DVec<'_, T> {}

impl<'a, T: Scalar> DVec<'a, T> {
    /// Wraps a device buffer.
    pub fn new(buf: &'a GlobalBuffer<T>) -> Self {
        DVec { buf }
    }

    /// Loads element `i`, upcast.
    #[inline(always)]
    pub fn read(&self, i: usize) -> T::Accum {
        self.buf.read(i).to_accum()
    }

    /// Stores element `i`, rounded.
    #[inline(always)]
    pub fn write(&self, i: usize, v: T::Accum) {
        self.buf.write(i, T::from_accum(v));
    }

    /// Bulk load of elements `off .. off + out.len()` into `out`, upcast
    /// — τ̂ vectors are always contiguous, so cooperative τ̂ staging is a
    /// single slice copy.
    #[inline]
    pub fn read_range(&self, off: usize, out: &mut [T::Accum]) {
        self.buf.read_range_with(off, out, T::to_accum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_scalar::F16;

    fn buf_3x3() -> GlobalBuffer<f64> {
        // Column-major 3×3: a[(r,c)] = r + 10c.
        GlobalBuffer::from_vec(vec![0., 1., 2., 10., 11., 12., 20., 21., 22.])
    }

    #[test]
    fn plain_and_transposed_reads() {
        let b = buf_3x3();
        let a = DMat::new(&b, 3);
        assert_eq!(a.read(1, 2), 21.0);
        let at = a.t();
        assert!(at.is_transposed());
        assert_eq!(at.read(2, 1), 21.0);
        assert_eq!(at.t().read(1, 2), 21.0); // involution
    }

    #[test]
    fn transposed_write_lands_in_storage() {
        let b = buf_3x3();
        let a = DMat::new(&b, 3);
        a.t().write(0, 2, 99.0);
        // (0,2) of Aᵀ is (2,0) of A.
        assert_eq!(a.read(2, 0), 99.0);
    }

    #[test]
    fn row_segments_on_plain_and_transposed_views() {
        let b = buf_3x3();
        let a = DMat::new(&b, 3);
        let mut row = [0.0; 2];
        a.read_row(1, 1, &mut row);
        assert_eq!(row, [11.0, 21.0]);
        a.t().read_row(1, 1, &mut row);
        assert_eq!(row, [11.0, 12.0]);
        a.write_row(2, 0, &[-1.0, -2.0]);
        a.t().write_row(0, 1, &[-3.0, -4.0]);
        assert_eq!(b.to_vec(), [0., -3., -4., 10., 11., -2., 20., 21., 22.]);
    }

    #[test]
    fn f16_upcast_on_read_downcast_on_write() {
        let b = GlobalBuffer::from_vec(vec![F16::from_f32(1.5); 4]);
        let a = DMat::new(&b, 2);
        let v: f32 = a.read(0, 0);
        assert_eq!(v, 1.5);
        a.write(0, 0, 2049.0); // not representable in f16
        assert_eq!(a.read(0, 0), 2048.0); // rounded at store
    }

    #[test]
    fn dvec_roundtrip() {
        let b = GlobalBuffer::from_vec(vec![0.0f32; 4]);
        let t = DVec::new(&b);
        t.write(2, 0.75);
        assert_eq!(t.read(2), 0.75);
    }

    #[test]
    #[should_panic(expected = "buffer must hold")]
    fn wrong_length_panics() {
        let b = GlobalBuffer::from_vec(vec![0.0f64; 5]);
        let _ = DMat::new(&b, 3);
    }
}
