//! Compact band storage and the bidiagonal result type.
//!
//! Stage 1 of the paper's algorithm reduces the dense matrix to an **upper
//! triangular band** matrix of bandwidth `TILESIZE`; stage 2 chases that
//! band down to an upper **bidiagonal**. [`BandMatrix`] stores exactly the
//! band plus bounded extra room for the transient bulge cells created during
//! chasing, so stage 2 runs in O(n·b) memory instead of O(n²).

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
        for j in 0..self.n {
            let lo = j.saturating_sub(self.sup);
            let hi = (j + self.sub).min(self.n - 1);
            for i in lo..=hi {
                self.set(i, j, get(i, j));
            }
        }
    }

    /// Applies a right (column) Givens rotation mixing the **adjacent**
    /// columns `j1` and `j1 + 1` over the rows of the first `live`
    /// superdiagonals, then forces the annihilation target `(zi, j1 + 1)`
    /// to exact zero — the batched stage-2 chase update. Every cell more
    /// than `live` superdiagonals above the diagonal must be zero: the
    /// rotation leaves those rows alone, which is exactly what the
    /// both-zero skip would do to them. With `live = sup` this is the
    /// full-band rotation, semantically identical to rotating element by
    /// element through [`get`](Self::get)/[`set`](Self::set) (the unit
    /// tests pin bit-identity against that reference at every `live`),
    /// but the interior rows — where both columns are live — walk the
    /// two contiguous column slices directly, skipping per-element band
    /// checks and index arithmetic.
    ///
    /// # Panics
    /// If `j1 + 1 >= n` or `live > sup`.
    pub fn givens_cols(&mut self, j1: usize, c: R, s: R, zi: usize, live: usize) {
        let n = self.n;
        let j2 = j1 + 1;
        assert!(j2 < n, "column rotation out of matrix");
        assert!(live <= self.sup, "live window wider than the stored band");
        let (sub, sup) = (self.sub, self.sup);
        let stride = self.stride();
        // Row segments: `j1 - live` is live only in column j1,
        // `j2 + sub` only in column j2, everything between in both.
        if j1 >= live {
            let i = j1 - live;
            let f = self.data[j1 * stride + (i + sup - j1)];
            let g = R::ZERO;
            if !(f == R::ZERO && g == R::ZERO) {
                let nf = c * f + s * g;
                let ng = -s * f + c * g;
                self.data[j1 * stride + (i + sup - j1)] = nf;
                debug_assert!(ng == R::ZERO, "column rotation escaped band at ({i},{j2})");
            }
        }
        let lo = j2.saturating_sub(live);
        let hi = (j1 + sub).min(n - 1);
        if lo <= hi {
            // Column j1 rows [lo, hi] and column j2 rows [lo, hi] are two
            // contiguous runs in adjacent column blocks; split at the
            // column boundary to hold both mutably and walk them in
            // lockstep (no per-element band checks or index arithmetic).
            let cnt = hi - lo + 1;
            let (left, right) = self.data.split_at_mut(j2 * stride);
            let b1 = j1 * stride + (lo + sup - j1);
            let b2 = lo + sup - j2;
            let lseg = &mut left[b1..b1 + cnt];
            let rseg = &mut right[b2..b2 + cnt];
            for (k, (fp, gp)) in lseg.iter_mut().zip(rseg.iter_mut()).enumerate() {
                let (f, g) = (*fp, *gp);
                if f == R::ZERO && g == R::ZERO {
                    continue;
                }
                *fp = c * f + s * g;
                *gp = if lo + k == zi {
                    R::ZERO
                } else {
                    -s * f + c * g
                };
            }
        }
        if j2 + sub < n {
            let i = j2 + sub;
            let f = R::ZERO;
            let g = self.data[j2 * stride + (i + sup - j2)];
            if !(f == R::ZERO && g == R::ZERO) {
                let nf = c * f + s * g;
                let ng = -s * f + c * g;
                self.data[j2 * stride + (i + sup - j2)] = if i == zi { R::ZERO } else { ng };
                debug_assert!(nf == R::ZERO, "column rotation escaped band at ({i},{j1})");
            }
        }
    }

    /// Applies a left (row) Givens rotation mixing the **adjacent** rows
    /// `i1` and `i1 + 1` over the columns of the first `live`
    /// superdiagonals, then forces the annihilation target `(i1 + 1, zj)`
    /// to exact zero. The row-side twin of
    /// [`givens_cols`](Self::givens_cols), with the same contract on
    /// `live`: the two row elements of one column sit next to each other
    /// in band storage, so the interior loop touches each column's pair
    /// directly with a constant stride walk.
    ///
    /// # Panics
    /// If `i1 + 1 >= n` or `live > sup`.
    pub fn givens_rows(&mut self, i1: usize, c: R, s: R, zj: usize, live: usize) {
        let n = self.n;
        let i2 = i1 + 1;
        assert!(i2 < n, "row rotation out of matrix");
        assert!(live <= self.sup, "live window wider than the stored band");
        let (sub, sup) = (self.sub, self.sup);
        let stride = self.stride();
        if i1 >= sub {
            let j = i1 - sub;
            let f = self.data[j * stride + (i1 + sup - j)];
            let g = R::ZERO;
            if !(f == R::ZERO && g == R::ZERO) {
                let nf = c * f + s * g;
                let ng = -s * f + c * g;
                self.data[j * stride + (i1 + sup - j)] = nf;
                debug_assert!(ng == R::ZERO, "row rotation escaped band at ({i2},{j})");
            }
        }
        let lo = i2.saturating_sub(sub);
        let hi = (i1 + live).min(n - 1);
        if lo <= hi {
            // Element (i1, j) sits directly above (i2, j) in column j's
            // block; consecutive columns advance the pair by `stride - 1`,
            // so a chunked walk visits each column's pair as the head of
            // one chunk (every chunk holds ≥ 2 elements by construction).
            let cnt = hi - lo + 1;
            let step = stride - 1;
            let p0 = lo * stride + (i1 + sup - lo);
            if step >= 2 {
                let end = p0 + (cnt - 1) * step + 2;
                for (k, ch) in self.data[p0..end].chunks_mut(step).enumerate() {
                    let (f, g) = (ch[0], ch[1]);
                    if f == R::ZERO && g == R::ZERO {
                        continue;
                    }
                    ch[0] = c * f + s * g;
                    ch[1] = if lo + k == zj {
                        R::ZERO
                    } else {
                        -s * f + c * g
                    };
                }
            } else {
                // Degenerate one-wide band (sub + sup == 1): the pairs
                // overlap, so walk them individually.
                let mut p = p0;
                for j in lo..=hi {
                    let f = self.data[p];
                    let g = self.data[p + 1];
                    if !(f == R::ZERO && g == R::ZERO) {
                        self.data[p] = c * f + s * g;
                        self.data[p + 1] = if j == zj { R::ZERO } else { -s * f + c * g };
                    }
                    p += step;
                }
            }
        }
        if i1 + live + 1 < n {
            let j = i1 + live + 1;
            let f = R::ZERO;
            let g = self.data[j * stride + (i2 + sup - j)];
            if !(f == R::ZERO && g == R::ZERO) {
                let nf = c * f + s * g;
                let ng = -s * f + c * g;
                self.data[j * stride + (i2 + sup - j)] = if j == zj { R::ZERO } else { ng };
                debug_assert!(nf == R::ZERO, "row rotation escaped band at ({i1},{j})");
            }
        }
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

    /// Elementwise reference for the batched rotations: the exact loop the
    /// stage-2 chase ran before the slice fast path.
    fn ref_givens_cols(b: &mut BandMatrix<f64>, j1: usize, c: f64, s: f64, zi: usize) {
        let j2 = j1 + 1;
        let n = b.n();
        let lo = j1.saturating_sub(b.sup());
        let hi = (j2 + b.sub()).min(n - 1);
        for i in lo..=hi {
            let (in1, in2) = (b.in_band(i, j1), b.in_band(i, j2));
            if !in1 && !in2 {
                continue;
            }
            let f = b.get(i, j1);
            let g = b.get(i, j2);
            if f == 0.0 && g == 0.0 {
                continue;
            }
            let nf = c * f + s * g;
            let ng = -s * f + c * g;
            if in1 {
                b.set(i, j1, nf);
            }
            if in2 {
                b.set(i, j2, if i == zi { 0.0 } else { ng });
            }
        }
    }

    fn ref_givens_rows(b: &mut BandMatrix<f64>, i1: usize, c: f64, s: f64, zj: usize) {
        let i2 = i1 + 1;
        let n = b.n();
        let lo = i1.saturating_sub(b.sub());
        let hi = (i2 + b.sup()).min(n - 1);
        for j in lo..=hi {
            let (in1, in2) = (b.in_band(i1, j), b.in_band(i2, j));
            if !in1 && !in2 {
                continue;
            }
            let f = b.get(i1, j);
            let g = b.get(i2, j);
            if f == 0.0 && g == 0.0 {
                continue;
            }
            let nf = c * f + s * g;
            let ng = -s * f + c * g;
            if in1 {
                b.set(i1, j, nf);
            }
            if in2 {
                b.set(i2, j, if j == zj { 0.0 } else { ng });
            }
        }
    }

    fn band_bits(b: &BandMatrix<f64>) -> Vec<u64> {
        let mut out = Vec::new();
        for j in 0..b.n() {
            for i in 0..b.n() {
                if b.in_band(i, j) {
                    out.push(b.get(i, j).to_bits());
                }
            }
        }
        out
    }

    /// `b` with every cell more than `live` superdiagonals up set to zero.
    fn zeroed_beyond(b: &BandMatrix<f64>, live: usize) -> BandMatrix<f64> {
        let mut z = b.clone();
        for j in 0..z.n() {
            for i in j.saturating_sub(z.sup())..j.saturating_sub(live) {
                z.set(i, j, 0.0);
            }
        }
        z
    }

    #[test]
    fn batched_rotations_bit_identical_to_elementwise() {
        // Pseudo-random band values via a simple LCG (bit-exact, no rand
        // dependency in this crate).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for (n, sub, sup) in [(12usize, 1usize, 5usize), (9, 2, 3), (7, 0, 2), (5, 1, 1)] {
            let mut a = BandMatrix::<f64>::zeros(n, sub, sup);
            a.refill_from_dense(|_, _| next());
            let mut b = a.clone();
            // Sweep every adjacent pair with varying rotations and zero
            // targets, mixing row and column rotations. The chase
            // invariant (a rotation never pushes a nonzero value out of
            // the stored band) is established by zeroing the one boundary
            // cell each rotation could spill from — exactly the cells the
            // real algorithm keeps zero.
            for k in 0..n - 1 {
                let ang = 0.1 + 0.37 * k as f64;
                let (c, s) = (ang.cos(), ang.sin());
                for m in [&mut a, &mut b] {
                    if k >= sup {
                        m.set(k - sup, k, 0.0);
                    }
                    if k + 1 + sub < n {
                        m.set(k + 1 + sub, k + 1, 0.0);
                    }
                }
                // Every live window, on a band zeroed beyond it (and at
                // the window's own spill cell), against the full-width
                // reference.
                for live in 1..=sup {
                    let mut x = zeroed_beyond(&a, live);
                    if k >= live {
                        x.set(k - live, k, 0.0);
                    }
                    let mut y = x.clone();
                    x.givens_cols(k, c, s, k / 2, live);
                    ref_givens_cols(&mut y, k, c, s, k / 2);
                    assert_eq!(band_bits(&x), band_bits(&y), "cols k={k} live={live}");
                }
                a.givens_cols(k, c, s, k / 2, sup);
                ref_givens_cols(&mut b, k, c, s, k / 2);
                for m in [&mut a, &mut b] {
                    if k >= sub {
                        m.set(k, k - sub, 0.0);
                    }
                    if k + sup + 1 < n {
                        m.set(k + 1, k + sup + 1, 0.0);
                    }
                }
                let zj = (k + 1).min(n - 1);
                for live in 1..=sup {
                    let mut x = zeroed_beyond(&a, live);
                    if k + live + 1 < n {
                        x.set(k + 1, k + live + 1, 0.0);
                    }
                    let mut y = x.clone();
                    x.givens_rows(k, s, c, zj, live);
                    ref_givens_rows(&mut y, k, s, c, zj);
                    assert_eq!(band_bits(&x), band_bits(&y), "rows k={k} live={live}");
                }
                a.givens_rows(k, s, c, zj, sup);
                ref_givens_rows(&mut b, k, s, c, zj);
            }
            assert_eq!(
                band_bits(&a),
                band_bits(&b),
                "batched rotation diverged from elementwise (n={n}, sub={sub}, sup={sup})"
            );
        }
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
