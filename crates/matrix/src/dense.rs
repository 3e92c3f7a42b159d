//! Column-major dense matrix with a lazy transpose view.

use unisvd_scalar::Scalar;

/// Column-major dense matrix (`a[(i, j)] = data[j * rows + i]`).
///
/// Column-major matches Julia and LAPACK, which the paper's pseudocode
/// assumes ("we follow the Julia `[row, column]` convention").
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable borrow of the underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning the column-major storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Lazy transpose view: indices are swapped, memory is untouched.
    ///
    /// This is the Rust equivalent of Julia's `A'` used in Algorithm 2
    /// line 4 to reuse the QR code path for the LQ sweep.
    #[inline]
    pub fn t(&self) -> MatrixRef<'_, T> {
        MatrixRef {
            m: self,
            trans: true,
        }
    }

    /// Non-transposed view (for API symmetry with [`Matrix::t`]).
    #[inline]
    pub fn v(&self) -> MatrixRef<'_, T> {
        MatrixRef {
            m: self,
            trans: false,
        }
    }

    /// Eagerly materialised transpose.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Converts every element to another storage precision.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<T> {
        assert!(j < self.cols);
        self.data[j * self.rows..(j + 1) * self.rows].to_vec()
    }

    /// Maximum absolute entry, in `f64`; `NaN` if any entry is `NaN`
    /// (`f64::max` would skip it), so one pass both sizes the matrix and
    /// tells whether every entry is finite.
    pub fn max_abs(&self) -> f64 {
        // Non-negative IEEE doubles order like their bit patterns, and
        // every NaN pattern sorts above +Inf: a branch-free integer max
        // as fast as the `f64::max` fold.
        let bits = self.data.iter().map(|x| x.to_f64().abs().to_bits());
        f64::from_bits(bits.fold(0, u64::max))
    }

    /// Frobenius norm, accumulated in `f64`.
    pub fn fro_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.to_f64().powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

/// Borrowed view of a [`Matrix`] with an optional lazy transpose.
#[derive(Clone, Copy, Debug)]
pub struct MatrixRef<'a, T> {
    m: &'a Matrix<T>,
    trans: bool,
}

impl<'a, T: Scalar> MatrixRef<'a, T> {
    /// Rows of the (possibly transposed) view.
    #[inline]
    pub fn rows(&self) -> usize {
        if self.trans {
            self.m.cols
        } else {
            self.m.rows
        }
    }

    /// Columns of the (possibly transposed) view.
    #[inline]
    pub fn cols(&self) -> usize {
        if self.trans {
            self.m.rows
        } else {
            self.m.cols
        }
    }

    /// True if this view transposes the underlying matrix.
    #[inline]
    pub fn is_transposed(&self) -> bool {
        self.trans
    }

    /// Element access with index-level transposition.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        if self.trans {
            self.m[(j, i)]
        } else {
            self.m[(i, j)]
        }
    }

    /// Transpose of the view (an involution).
    #[inline]
    pub fn t(&self) -> MatrixRef<'a, T> {
        MatrixRef {
            m: self.m,
            trans: !self.trans,
        }
    }

    /// Materialises the view into an owned matrix.
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows(), self.cols(), |i, j| self.get(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn identity_and_zeros() {
        let i3 = Matrix::<f32>::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
        assert_eq!(Matrix::<f64>::zeros(2, 5).fro_norm(), 0.0);
    }

    #[test]
    fn lazy_transpose_swaps_indices_without_copy() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.t();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(j, i), m[(i, j)]);
            }
        }
        // Transpose is an involution.
        let tt = t.t();
        assert!(!tt.is_transposed());
        assert_eq!(tt.to_matrix(), m);
    }

    #[test]
    fn transposed_matches_view() {
        let m = Matrix::<f32>::from_fn(4, 3, |i, j| (i as f32) - (j as f32) * 0.5);
        assert_eq!(m.transposed(), m.t().to_matrix());
    }

    #[test]
    fn cast_roundtrip_f64_f32() {
        let m = Matrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64 * 0.25);
        let m32: Matrix<f32> = m.cast();
        let back: Matrix<f64> = m32.cast();
        assert_eq!(m, back); // quarters are exact in f32
    }

    #[test]
    fn norms() {
        let m = Matrix::<f64>::from_fn(2, 2, |i, j| if i == 0 && j == 0 { -3.0 } else { 4.0 });
        assert_eq!(m.max_abs(), 4.0);
        let mut bad = m.clone();
        bad[(1, 0)] = f64::NEG_INFINITY;
        assert_eq!(bad.max_abs(), f64::INFINITY);
        bad[(0, 1)] = -f64::NAN;
        assert!(bad.max_abs().is_nan());
        let fro = (9.0f64 + 16.0 * 3.0).sqrt();
        assert!((m.fro_norm() - fro).abs() < 1e-14);
    }

    #[test]
    #[should_panic]
    fn from_col_major_checks_len() {
        let _ = Matrix::<f64>::from_col_major(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn col_copy() {
        let m = Matrix::<f64>::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.col(1), vec![10.0, 11.0, 12.0]);
    }
}
