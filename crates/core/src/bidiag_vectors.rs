//! Singular vectors of the bidiagonal by inverse iteration on its
//! Golub–Kahan tridiagonal, the method of LAPACK's `xBDSVDX` (Marques,
//! Demmel & Vasconcelos, ACM TOMS 46(2), 2020).
//!
//! For an upper bidiagonal `B` (diagonal `d`, superdiagonal `e`) the
//! Golub–Kahan matrix `T_GK` is the symmetric tridiagonal with zero
//! diagonal and off-diagonal `z = (d₀, e₀, d₁, e₁, …)`. Its eigenvalues
//! are `±σᵢ`, and the eigenvector of `+σ` interleaves the singular
//! triplet: `x = (v₀, u₀, v₁, u₁, …)/√2` with `Bv = σu` and `Bᵀu = σv`.
//! Stage 3 has already computed the values, so each selected `σⱼ` is a
//! shift next to its own eigenvalue, and the vector follows from inverse
//! iteration as `xSTEIN` runs it:
//!
//! * `T_GK − σⱼI = LDLᵀ`, with every pivot below `pivmin = ε‖B‖` replaced
//!   by `±pivmin` (`xSTEIN`'s perturbation of tiny pivots);
//! * [`SOLVES`] solves from a fixed pseudo-random start vector;
//! * the `v` and `u` halves are split off, reorthogonalized against the
//!   earlier members of `σⱼ`'s cluster (the values before it chained by
//!   gaps of at most `10⁻³‖B‖`, `xSTEIN`'s criterion) and normalized
//!   separately.
//!
//! Outside a cluster the shift is accurate enough that two solves leave
//! no trace of the other eigenvectors, so one reorthogonalization at the
//! end suffices. Members the shift cannot tell apart (gaps of at most
//! `√ε‖B‖` in the values' precision: repeated or tightly clustered
//! values) are reorthogonalized after every solve instead, as `xSTEIN`
//! does, so each solve amplifies what the earlier members do not span.
//!
//! **Orthogonalizing each half separately.** Against a cluster member
//! `(vᵢ, uᵢ)`, the `v` half is orthogonalized against `vᵢ` and the `u`
//! half against `uᵢ`. That removes both `(vᵢ, uᵢ)` and `(vᵢ, −uᵢ)`, the
//! eigenvector of `−σᵢ`. For small values the negative eigenvalues lie as
//! close to the shift as the cluster does, and orthogonalizing the whole
//! `x` against `(vᵢ, uᵢ)` alone leaves the halves of `u` and `v`
//! non-orthogonal (the hazard of Willems, Lang & Vömel, SIAM J. Matrix
//! Anal. Appl. 28(4), 2006). The eigenvector of `−σⱼ` itself only rescales
//! the two halves, which the separate normalization undoes.
//!
//! **Values at the noise floor.** For `σⱼ ≤ n·ε‖B‖` the pair `(uⱼ, vⱼ)`
//! is not determined by `B` to working accuracy: one half may come out
//! tiny or inside the span of earlier columns. Each half is then
//! orthogonalized (twice) against every earlier column of its side, and
//! a half with nothing left is replaced by the unit vector least
//! represented among those columns, orthogonalized the same way. The
//! earlier columns span every larger value's vectors, so what remains
//! has `‖Bv‖` and `‖Bᵀu‖` at the noise floor too. A half holding under a
//! tenth of the iterate's norm, and both halves of a solve that
//! overflowed, take the same path.
//!
//! Column `j` depends only on `B`, `σ₀ … σⱼ` and the columns before it,
//! so a `TopK(k)` solve is a bitwise column prefix of the `Thin` one. The
//! whole solve is sequential host code, bit-identical for any thread
//! count.

use std::ops::Range;

/// Inverse-iteration solves per vector.
const SOLVES: usize = 2;

/// Cluster gap as a fraction of `‖B‖` (`xSTEIN`'s `ORTOL`).
const CLUSTER_GAP: f64 = 1e-3;

/// Per-plan workspace of the inverse iteration, sized once for a real
/// block of `mr × nr` (so a warm solve allocates nothing).
#[derive(Debug)]
pub(crate) struct BidiagVectors {
    /// Entries of the `v` half.
    nv: usize,
    /// Off-diagonal of `T_GK`, one less than the entries of `x`.
    z: Vec<f64>,
    /// Multipliers of `L`.
    l: Vec<f64>,
    /// Reciprocal pivots of `D`.
    inv_piv: Vec<f64>,
    /// The iterate, interleaved like `T_GK`: `v₀ … v_{nv−1}` on the even
    /// positions, `u₀ … u_{nu−1}` on the odd ones.
    x: Vec<f64>,
    /// The finished columns, `nv + nu` entries each: the unit `v` half,
    /// then the unit `u` half.
    cols: Vec<f64>,
    /// Per entry (laid out like a column), the squared norm the finished
    /// columns hold on it: picks the completion vector of a half with
    /// nothing left.
    mass: Vec<f64>,
}

impl BidiagVectors {
    /// Workspace for `k` columns of the real `mr × nr` block at the top
    /// left of the (padded) bidiagonal. Rows and columns past it are
    /// exact zeros of the padding, and the vectors of a nonzero value
    /// live inside it.
    pub fn new(k: usize, mr: usize, nr: usize) -> Self {
        // An m × n upper bidiagonal couples v₀ … v_{min(m, n−1)} with
        // u₀ … u_{min(m, n)−1}; a wider block keeps one more column.
        let nv = nr.min(mr + 1);
        let len = nv + mr.min(nr);
        BidiagVectors {
            nv,
            z: vec![0.0; len.saturating_sub(1)],
            l: vec![0.0; len.saturating_sub(1)],
            inv_piv: vec![0.0; len],
            x: vec![0.0; len],
            cols: vec![0.0; k * len],
            mass: vec![0.0; len],
        }
    }

    /// Computes the triplets of `values` (descending, the leading values
    /// of the bidiagonal `(d, e)`) and writes column `j`'s halves into
    /// column `j` of the `k`-wide row-major accumulators: `vⱼ` into the
    /// first `nv` rows of `wv`, `uⱼ` into the first `nu` rows of `wu`.
    /// Every other accumulator entry is left as it is.
    pub fn solve<A: unisvd_scalar::Real>(
        &mut self,
        d: &[A],
        e: &[A],
        values: &[A],
        wu: &mut [f64],
        wv: &mut [f64],
    ) {
        let (len, nv) = (self.x.len(), self.nv);
        let k = values.len();
        for (i, z) in self.z.iter_mut().enumerate() {
            *z = if i % 2 == 0 { d[i / 2] } else { e[i / 2] }.to_f64();
        }
        self.mass.fill(0.0);
        // ‖B‖ ≤ the Gershgorin bound of T_GK.
        let mut bnorm: f64 = 0.0;
        for i in 0..len {
            let left = if i > 0 { self.z[i - 1].abs() } else { 0.0 };
            let right = self.z.get(i).map_or(0.0, |z| z.abs());
            bnorm = bnorm.max(left + right);
        }
        let pivmin = (f64::EPSILON * bnorm).max(f64::MIN_POSITIVE);
        let noise = (len / 2).max(1) as f64 * f64::EPSILON * bnorm;
        let gap = CLUSTER_GAP * bnorm;
        let tight = A::EPSILON.to_f64().sqrt() * bnorm;
        let (mut c0, mut ct) = (0, 0);
        for j in 0..k {
            let s = values[j].to_f64();
            let step = if j == 0 {
                f64::INFINITY
            } else {
                values[j - 1].to_f64() - s
            };
            if step > gap {
                c0 = j;
            }
            if step > tight {
                ct = j;
            }
            let (done, rest) = self.cols.split_at_mut(j * len);
            let out = &mut rest[..len];
            let mut finite = bnorm > 0.0;
            if finite {
                for (i, x) in self.x.iter_mut().enumerate() {
                    *x = start_entry(i, j);
                }
                factor(
                    &self.z,
                    s,
                    pivmin,
                    &mut self.l,
                    &mut self.inv_piv,
                    &mut self.x,
                );
                for solve in 0..SOLVES {
                    finite = solve_once(&self.l, &self.inv_piv, &mut self.x, solve > 0);
                    if !finite {
                        break;
                    }
                    if ct < j {
                        // The shift cannot tell these members apart:
                        // orthogonalize after every solve, as `xSTEIN`.
                        split(&self.x, nv, out);
                        for half in [0..nv, nv..len] {
                            for c in done[ct * len..].chunks_exact(len) {
                                orthogonalize(&mut out[half.clone()], &c[half.clone()]);
                            }
                        }
                        merge(out, nv, &mut self.x);
                    }
                }
            }
            split(&self.x, nv, out);
            for half in [0..nv, nv..len] {
                let y = &mut out[half.clone()];
                for c in done[c0 * len..].chunks_exact(len) {
                    orthogonalize(y, &c[half.clone()]);
                }
                let mut norm = norm2(y);
                if !finite || s <= noise || norm < 0.1 * norm2(&self.x) {
                    // Nothing reliable in this half beyond what the
                    // earlier columns already span: see the module docs.
                    let before = norm;
                    for _ in 0..2 {
                        for c in done.chunks_exact(len) {
                            orthogonalize(y, &c[half.clone()]);
                        }
                    }
                    norm = norm2(y);
                    if !finite || norm <= 0.1 * before || norm < 1e-100 {
                        complete(y, done, len, half.clone(), &self.mass[half.clone()]);
                        norm = norm2(y);
                    }
                }
                let scale = 1.0 / norm;
                y.iter_mut().for_each(|v| *v *= scale);
            }
            for (m, &y) in self.mass.iter_mut().zip(out.iter()) {
                *m += y * y;
            }
        }
        for (j, c) in self.cols.chunks_exact(len).take(k).enumerate() {
            let (v, u) = c.split_at(nv);
            for (r, &x) in v.iter().enumerate() {
                wv[r * k + j] = x;
            }
            for (r, &x) in u.iter().enumerate() {
                wu[r * k + j] = x;
            }
        }
    }
}

/// `LDLᵀ = T_GK − sI` into `l` and `inv_piv` (`T_GK`'s off-diagonal is
/// `z`, its diagonal zero), every pivot at least `pivmin` in magnitude.
/// Runs the first solve's forward substitution `x ← L⁻¹x` alongside,
/// whose short dependency chain hides in the factorization's.
fn factor(z: &[f64], s: f64, pivmin: f64, l: &mut [f64], inv_piv: &mut [f64], x: &mut [f64]) {
    let mut piv = -s;
    for i in 0..inv_piv.len() {
        if i > 0 {
            l[i - 1] = z[i - 1] * inv_piv[i - 1];
            piv = -s - l[i - 1] * z[i - 1];
            x[i] -= l[i - 1] * x[i - 1];
        }
        if piv.abs() < pivmin {
            piv = if piv < 0.0 { -pivmin } else { pivmin };
        }
        inv_piv[i] = 1.0 / piv;
    }
}

/// One solve `x ← (LDLᵀ)⁻¹x` (without its forward substitution unless
/// `forward`), scaled to a largest entry of one. Returns `false` if it
/// overflowed (or `x` was zero).
fn solve_once(l: &[f64], inv_piv: &[f64], x: &mut [f64], forward: bool) -> bool {
    let len = x.len();
    if forward {
        for i in 1..len {
            x[i] -= l[i - 1] * x[i - 1];
        }
    }
    x[len - 1] *= inv_piv[len - 1];
    for i in (0..len - 1).rev() {
        x[i] = x[i] * inv_piv[i] - l[i] * x[i + 1];
    }
    let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if !amax.is_finite() || amax == 0.0 {
        return false;
    }
    let scale = 1.0 / amax;
    x.iter_mut().for_each(|v| *v *= scale);
    true
}

/// De-interleaves `x` into `out`: the `nv` even entries, then the odd.
fn split(x: &[f64], nv: usize, out: &mut [f64]) {
    let (v, u) = out.split_at_mut(nv);
    for (i, pair) in x.chunks(2).enumerate() {
        v[i] = pair[0];
        if let Some(&b) = pair.get(1) {
            u[i] = b;
        }
    }
}

/// Inverse of [`split`].
fn merge(out: &[f64], nv: usize, x: &mut [f64]) {
    let (v, u) = out.split_at(nv);
    for (i, pair) in x.chunks_mut(2).enumerate() {
        pair[0] = v[i];
        if let Some(b) = pair.get_mut(1) {
            *b = u[i];
        }
    }
}

/// `a · b` with four partial sums, so the additions pipeline.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (ah, at) = a.split_at(a.len() / 4 * 4);
    let (bh, bt) = b.split_at(ah.len());
    for (x, y) in ah.chunks_exact(4).zip(bh.chunks_exact(4)) {
        for i in 0..4 {
            acc[i] += x[i] * y[i];
        }
    }
    let tail: f64 = at.iter().zip(bt).map(|(x, y)| x * y).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Removes from `y` its component along the unit vector `c`.
fn orthogonalize(y: &mut [f64], c: &[f64]) {
    let t = dot(y, c);
    for (a, b) in y.iter_mut().zip(c) {
        *a -= t * b;
    }
}

/// Replaces the half `y` (entries `half` of a `len`-entry column) by
/// the unit vector on which the finished columns `done` hold the least
/// `mass`, orthogonalized twice against their same halves. That mass is
/// below one whenever fewer columns than entries are done, so something
/// is always left.
fn complete(y: &mut [f64], done: &[f64], len: usize, half: Range<usize>, mass: &[f64]) {
    let mut best = 0;
    for (p, &m) in mass.iter().enumerate() {
        if m < mass[best] {
            best = p;
        }
    }
    y.fill(0.0);
    y[best] = 1.0;
    for _ in 0..2 {
        for c in done.chunks_exact(len) {
            orthogonalize(y, &c[half.clone()]);
        }
    }
}

/// Entry `i` of column `j`'s start vector: uniform in `[−1, 1)` from a
/// SplitMix64 hash of `(i, j)`, so every column starts from its own fixed
/// vector.
fn start_entry(i: usize, j: usize) -> f64 {
    let mut h = ((j as u64) << 32 | i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidiag_svd::bdsqr;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_matrix::Bidiagonal;

    /// Solves for `k` triplets of the `mr × nr` block of `(d, e)` and
    /// returns the `k`-wide row-major `U` (`mr` rows) and `V` (`nr` rows).
    fn triplets(d: &[f64], e: &[f64], k: usize, mr: usize, nr: usize) -> (Vec<f64>, Vec<f64>) {
        let values = bdsqr(&Bidiagonal::new(d.to_vec(), e.to_vec())).unwrap();
        let (mut wu, mut wv) = (vec![0.0; mr * k], vec![0.0; nr * k]);
        BidiagVectors::new(k, mr, nr).solve(d, e, &values[..k], &mut wu, &mut wv);
        (wu, wv)
    }

    fn ortho_err(w: &[f64], k: usize) -> f64 {
        let n = w.len() / k;
        let mut worst: f64 = 0.0;
        for a in 0..k {
            for b in 0..k {
                let dot: f64 = (0..n).map(|i| w[i * k + a] * w[i * k + b]).sum();
                worst = worst.max((dot - if a == b { 1.0 } else { 0.0 }).abs());
            }
        }
        worst
    }

    /// `max_j ‖B vⱼ − σⱼ uⱼ‖_max` for the `mr × nr` block of `(d, e)`.
    fn residual(d: &[f64], e: &[f64], k: usize, wu: &[f64], wv: &[f64], mr: usize) -> f64 {
        let values = bdsqr(&Bidiagonal::new(d.to_vec(), e.to_vec())).unwrap();
        let nr = wv.len() / k;
        let mut worst: f64 = 0.0;
        for j in 0..k {
            for i in 0..mr {
                let mut bv = d[i] * wv[i * k + j];
                if i + 1 < nr {
                    bv += e[i] * wv[(i + 1) * k + j];
                }
                worst = worst.max((bv - values[j] * wu[i * k + j]).abs());
            }
        }
        worst
    }

    /// A numerically rank-1 bidiagonal: every value but the first sits at
    /// the noise floor, where `T_GK`'s eigenvectors of `±σ` mix and the
    /// halves must be orthogonalized side by side.
    #[test]
    fn rank_one_bidiagonal_keeps_both_sides_orthonormal() {
        let n = 32;
        let mut rng = StdRng::seed_from_u64(5);
        let mut tiny = || rng.gen_range(-1.0..1.0) * 1e-17;
        let d: Vec<f64> = (0..n).map(|i| if i == 0 { 1.0 } else { tiny() }).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| tiny()).collect();
        let (wu, wv) = triplets(&d, &e, n, n, n);
        assert!(ortho_err(&wu, n) < 1e-14, "U: {:e}", ortho_err(&wu, n));
        assert!(ortho_err(&wv, n) < 1e-14, "V: {:e}", ortho_err(&wv, n));
        let res = residual(&d, &e, n, &wu, &wv, n);
        assert!(res < 1e-15, "residual {res:e}");
    }

    /// A zero bidiagonal has no spectrum to iterate on: every column is
    /// completed from unit vectors.
    #[test]
    fn zero_bidiagonal_completes_from_unit_vectors() {
        let n = 6;
        let (wu, wv) = triplets(&[0.0; 6], &[0.0; 5], n, n, n);
        assert_eq!(ortho_err(&wu, n), 0.0);
        assert_eq!(ortho_err(&wv, n), 0.0);
    }

    /// A wide block (`mr < nr`) couples one more right coordinate than
    /// it has rows.
    #[test]
    fn wide_block_triplets() {
        let (mr, nr) = (3, 5);
        let d = [1.5, -0.7, 0.9, 0.0, 0.0];
        let e = [0.4, 0.3, -0.6, 0.0];
        let (wu, wv) = triplets(&d, &e, mr, mr, nr);
        assert!(ortho_err(&wu, mr) < 1e-15);
        assert!(ortho_err(&wv, mr) < 1e-15);
        assert!(wv[4 * mr..].iter().all(|&x| x == 0.0), "v₄ is uncoupled");
        assert!(residual(&d, &e, mr, &wu, &wv, mr) < 1e-15);
    }

    /// Column `j` depends only on the values up to `σⱼ`: fewer columns
    /// are a bitwise prefix of more.
    #[test]
    fn fewer_columns_are_a_bitwise_prefix() {
        let n = 40;
        let mut rng = StdRng::seed_from_u64(11);
        // Pairs of close values, so clusters straddle the cut.
        let d: Vec<f64> = (0..n).map(|i| 1.0 - (i / 2) as f64 * 0.04).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1e-4..1e-4)).collect();
        let (wu, wv) = triplets(&d, &e, n, n, n);
        for k in [1, 7, 13] {
            let (pu, pv) = triplets(&d, &e, k, n, n);
            for r in 0..n {
                for j in 0..k {
                    assert_eq!(pu[r * k + j].to_bits(), wu[r * n + j].to_bits());
                    assert_eq!(pv[r * k + j].to_bits(), wv[r * n + j].to_bits());
                }
            }
        }
    }
}
