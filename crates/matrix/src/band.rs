//! Compact band storage and the bidiagonal result type.
//!
//! Stage 1 of the paper's algorithm reduces the dense matrix to an **upper
//! triangular band** matrix of bandwidth `TILESIZE`; stage 2 chases that
//! band down to an upper **bidiagonal**. [`BandMatrix`] stores exactly the
//! band plus bounded extra room for the fill the chase creates, so stage 2
//! runs in O(n·b) memory instead of O(n²).

use unisvd_scalar::Real;

/// Compact column-wise band storage.
///
/// Stores diagonals `-sub ..= sup` of an `n × n` matrix: element `(i, j)` is
/// kept iff `-(sub as isize) <= j - i <= sup as isize`. Reads outside the
/// stored band return zero; writes outside panic (they would be silent data
/// loss — a bulge escaping its allotted room is an algorithmic bug).
#[derive(Clone, Debug)]
pub struct BandMatrix<R> {
    n: usize,
    sub: usize,
    sup: usize,
    /// Column-major: column `j` occupies `data[j*stride .. (j+1)*stride]`,
    /// with diagonal offset `d = j - i` mapped to row `sup - d` … i.e.
    /// `data[j*stride + (i + sup - j)]`.
    data: Vec<R>,
}

impl<R: Real> BandMatrix<R> {
    /// Zero band matrix of order `n` storing `sub` subdiagonals and `sup`
    /// superdiagonals.
    pub fn zeros(n: usize, sub: usize, sup: usize) -> Self {
        let stride = sub + sup + 1;
        BandMatrix {
            n,
            sub,
            sup,
            data: vec![R::ZERO; stride * n],
        }
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored subdiagonal count.
    #[inline]
    pub fn sub(&self) -> usize {
        self.sub
    }

    /// Stored superdiagonal count.
    #[inline]
    pub fn sup(&self) -> usize {
        self.sup
    }

    #[inline]
    fn stride(&self) -> usize {
        self.sub + self.sup + 1
    }

    /// True if `(i, j)` lies inside the stored band.
    #[inline]
    pub fn in_band(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && {
            let d = j as isize - i as isize;
            -(self.sub as isize) <= d && d <= self.sup as isize
        }
    }

    /// Element read; zero outside the stored band.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> R {
        if self.in_band(i, j) {
            self.data[j * self.stride() + (i + self.sup - j)]
        } else {
            debug_assert!(i < self.n && j < self.n, "index out of matrix");
            R::ZERO
        }
    }

    /// Element write.
    ///
    /// # Panics
    /// If `(i, j)` is outside the stored band (bulge escaped its room).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: R) {
        assert!(
            self.in_band(i, j),
            "write outside stored band: ({i}, {j}) with sub={}, sup={}",
            self.sub,
            self.sup
        );
        let idx = j * self.stride() + (i + self.sup - j);
        self.data[idx] = v;
    }

    /// Builds band storage from a dense column-major accessor, keeping only
    /// entries inside the requested band (others must be ~zero only if the
    /// caller cares; this constructor simply drops them).
    pub fn from_dense(
        n: usize,
        sub: usize,
        sup: usize,
        mut get: impl FnMut(usize, usize) -> R,
    ) -> Self {
        let mut b = Self::zeros(n, sub, sup);
        for j in 0..n {
            let lo = j.saturating_sub(sup);
            let hi = (j + sub).min(n - 1);
            for i in lo..=hi {
                b.set(i, j, get(i, j));
            }
        }
        b
    }

    /// Frobenius norm of the stored band.
    pub fn fro_norm(&self) -> R {
        let mut s = R::ZERO;
        for j in 0..self.n {
            let lo = j.saturating_sub(self.sup);
            let hi = (j + self.sub).min(self.n - 1);
            for i in lo..=hi {
                let v = self.get(i, j);
                s += v * v;
            }
        }
        s.sqrt()
    }

    /// Largest `|a(i,j)|` strictly below the main diagonal (should be ~0
    /// after stage 1 + each completed chase sweep).
    pub fn max_abs_below_diag(&self) -> R {
        let mut m = R::ZERO;
        for j in 0..self.n {
            for i in (j + 1)..=(j + self.sub).min(self.n - 1) {
                m = m.max(self.get(i, j).abs());
            }
        }
        m
    }

    /// Largest `|a(i,j)|` with `j - i > k` (band spill beyond `k`
    /// superdiagonals).
    pub fn max_abs_beyond_sup(&self, k: usize) -> R {
        let mut m = R::ZERO;
        for j in 0..self.n {
            let lo = j.saturating_sub(self.sup);
            let hi = j.saturating_sub(k + 1);
            if j > k {
                for i in lo..=hi {
                    m = m.max(self.get(i, j).abs());
                }
            }
        }
        m
    }

    /// Extracts the main diagonal and first superdiagonal as a
    /// [`Bidiagonal`]. Meaningful once the matrix has been fully reduced.
    pub fn to_bidiagonal(&self) -> Bidiagonal<R> {
        let mut bi = Bidiagonal {
            d: Vec::new(),
            e: Vec::new(),
        };
        self.to_bidiagonal_into(&mut bi);
        bi
    }

    /// [`to_bidiagonal`](Self::to_bidiagonal) into an existing
    /// [`Bidiagonal`], reusing its vectors — the zero-allocation
    /// steady-state path of a reused solve plan.
    pub fn to_bidiagonal_into(&self, bi: &mut Bidiagonal<R>) {
        bi.d.clear();
        bi.d.extend((0..self.n).map(|i| self.get(i, i)));
        bi.e.clear();
        bi.e.extend((0..self.n.saturating_sub(1)).map(|i| self.get(i, i + 1)));
    }

    /// Refills the band from a dense accessor without reallocating: the
    /// in-place counterpart of [`from_dense`](Self::from_dense) for a
    /// band whose geometry is fixed across many solves. Every stored
    /// in-matrix cell is overwritten (including with zeros), so any state
    /// left by a previous reduction is fully replaced.
    pub fn refill_from_dense(&mut self, mut get: impl FnMut(usize, usize) -> R) {
        let (n, sup) = (self.n, self.sup);
        let stride = self.stride();
        for (j, col) in self.data.chunks_exact_mut(stride).enumerate() {
            let lo = j.saturating_sub(sup);
            let hi = (j + self.sub).min(n - 1);
            for i in lo..=hi {
                col[i + sup - j] = get(i, j);
            }
        }
    }

    /// Grows the storage in place to at least `sub` subdiagonals and
    /// `sup` superdiagonals, keeping every stored value; the new cells
    /// are zero. Allocates only when the band actually grows.
    pub fn widen(&mut self, sub: usize, sup: usize) {
        if sub <= self.sub && sup <= self.sup {
            return;
        }
        let mut wide = BandMatrix::zeros(self.n, sub.max(self.sub), sup.max(self.sup));
        wide.refill_from_dense(|i, j| self.get(i, j));
        *self = wide;
    }

    /// The stored band as one column-major array with leading dimension
    /// `sub + sup`: cell `(i, j)` of the band is element
    /// `sup + i + j·(sub + sup)`. Inside the band this is the layout of a
    /// dense column-major matrix, so a kernel walks a column as one
    /// contiguous run and a row with stride `sub + sup`. Cells outside
    /// the band alias cells of neighbouring columns and must not be
    /// written through this view.
    pub fn storage_mut(&mut self) -> &mut [R] {
        &mut self.data
    }
}

/// Upper bidiagonal matrix: diagonal `d` (length n) and superdiagonal `e`
/// (length n−1). The input to stage 3 (bidiagonal → singular values).
#[derive(Clone, Debug, PartialEq)]
pub struct Bidiagonal<R> {
    /// Main diagonal.
    pub d: Vec<R>,
    /// First superdiagonal.
    pub e: Vec<R>,
}

impl<R: Real> Bidiagonal<R> {
    /// Order of the matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.d.len()
    }

    /// Creates a bidiagonal from diagonal and superdiagonal vectors.
    ///
    /// # Panics
    /// If `e.len() + 1 != d.len()` (unless both are empty).
    pub fn new(d: Vec<R>, e: Vec<R>) -> Self {
        assert!(
            d.is_empty() && e.is_empty() || e.len() + 1 == d.len(),
            "superdiagonal must be one shorter than diagonal"
        );
        Bidiagonal { d, e }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> R {
        let s: R =
            self.d.iter().map(|&x| x * x).sum::<R>() + self.e.iter().map(|&x| x * x).sum::<R>();
        s.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_get_set_roundtrip() {
        let mut b = BandMatrix::<f64>::zeros(6, 1, 2);
        b.set(2, 3, 5.0);
        b.set(3, 2, -1.0);
        b.set(4, 4, 2.0);
        assert_eq!(b.get(2, 3), 5.0);
        assert_eq!(b.get(3, 2), -1.0);
        assert_eq!(b.get(4, 4), 2.0);
        assert_eq!(b.get(0, 5), 0.0); // outside band reads zero
    }

    #[test]
    #[should_panic(expected = "write outside stored band")]
    fn band_write_outside_panics() {
        let mut b = BandMatrix::<f64>::zeros(6, 0, 1);
        b.set(3, 0, 1.0);
    }

    #[test]
    fn from_dense_keeps_band_only() {
        let b = BandMatrix::<f64>::from_dense(4, 0, 1, |i, j| (10 * i + j) as f64);
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(0, 1), 1.0);
        assert_eq!(b.get(1, 2), 12.0);
        assert_eq!(b.get(2, 0), 0.0); // dropped (below diagonal)
    }

    #[test]
    fn norms_and_diagnostics() {
        let mut b = BandMatrix::<f64>::zeros(3, 1, 1);
        b.set(0, 0, 3.0);
        b.set(1, 0, 4.0);
        assert_eq!(b.fro_norm(), 5.0);
        assert_eq!(b.max_abs_below_diag(), 4.0);
        assert_eq!(b.max_abs_beyond_sup(0), 0.0);
        b.set(0, 1, 7.0);
        assert_eq!(b.max_abs_beyond_sup(0), 7.0);
        assert_eq!(b.max_abs_beyond_sup(1), 0.0);
    }

    #[test]
    fn to_bidiagonal_extracts_two_diagonals() {
        let mut b = BandMatrix::<f64>::zeros(3, 0, 2);
        b.set(0, 0, 1.0);
        b.set(1, 1, 2.0);
        b.set(2, 2, 3.0);
        b.set(0, 1, 4.0);
        b.set(1, 2, 5.0);
        b.set(0, 2, 9.0); // second superdiagonal is ignored by extraction
        let bi = b.to_bidiagonal();
        assert_eq!(bi.d, vec![1.0, 2.0, 3.0]);
        assert_eq!(bi.e, vec![4.0, 5.0]);
        assert_eq!(bi.n(), 3);
    }

    #[test]
    fn bidiagonal_dense_and_norm() {
        let bi = Bidiagonal::new(vec![3.0f64, 0.0], vec![4.0]);
        assert_eq!(bi.fro_norm(), 5.0);
    }

    #[test]
    #[should_panic]
    fn bidiagonal_length_mismatch_panics() {
        let _ = Bidiagonal::new(vec![1.0f64, 2.0], vec![1.0, 2.0]);
    }

    #[test]
    fn widen_keeps_values_and_grows_once() {
        let mut b = BandMatrix::<f64>::from_dense(6, 1, 2, |i, j| (1 + i + 10 * j) as f64);
        let before: Vec<f64> = (0..36).map(|x| b.get(x / 6, x % 6)).collect();
        b.widen(3, 4);
        assert_eq!((b.sub(), b.sup()), (3, 4));
        let after: Vec<f64> = (0..36).map(|x| b.get(x / 6, x % 6)).collect();
        assert_eq!(before, after, "stored values kept, new cells zero");
        b.widen(2, 4); // already wide enough
        assert_eq!((b.sub(), b.sup()), (3, 4));
    }

    #[test]
    fn refill_overwrites_previous_state() {
        let mut b = BandMatrix::<f64>::zeros(6, 1, 2);
        b.refill_from_dense(|i, j| (i * 10 + j) as f64 + 1.0);
        let cap = b.data.capacity();
        b.refill_from_dense(|_, _| 0.0);
        assert_eq!(b.fro_norm(), 0.0, "refill must clear every stored cell");
        assert_eq!(b.data.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn to_bidiagonal_into_reuses_buffers() {
        let mut b = BandMatrix::<f64>::zeros(4, 0, 2);
        for i in 0..4 {
            b.set(i, i, (i + 1) as f64);
        }
        let mut bi = b.to_bidiagonal();
        let (dp, ep) = (bi.d.as_ptr(), bi.e.as_ptr());
        b.set(0, 0, 9.0);
        b.to_bidiagonal_into(&mut bi);
        assert_eq!(bi.d, vec![9.0, 2.0, 3.0, 4.0]);
        assert_eq!((bi.d.as_ptr(), bi.e.as_ptr()), (dp, ep));
    }
}
