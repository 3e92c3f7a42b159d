//! Seeded inputs. Every matrix the program sees is generated here from
//! the workload seed, together with its exact singular values, so the
//! benchmark can check results against a known spectrum.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rand_distr::StandardNormal;
use unisvd_matrix::{testmat, Matrix, SvDistribution};
use unisvd_scalar::Scalar;

/// Random reflectors that embed the square core of a tall or wide input
/// into its long dimension.
const EMBED_REFLECTORS: usize = 16;

/// An independent generator for stream `stream` of `seed`.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A `rows × cols` input with a logarithmic spectrum over three decades,
/// rounded to `T`, and its exact singular values (descending, in the
/// unrounded `f64` matrix). Tall and wide inputs are a square core
/// embedded by random Householder reflectors, which leave the spectrum
/// unchanged.
pub fn matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut StdRng) -> (Matrix<T>, Vec<f64>) {
    let n = rows.min(cols);
    let (core, sigma) = testmat::test_matrix::<f64, _>(n, SvDistribution::Logarithmic, true, rng);
    if rows == cols {
        return (core.cast(), sigma);
    }
    let m = rows.max(cols);
    let mut a = Matrix::<f64>::zeros(m, n);
    for j in 0..n {
        for i in 0..n {
            a[(i, j)] = core[(i, j)];
        }
    }
    let mut w = vec![0.0; m];
    for _ in 0..EMBED_REFLECTORS {
        random_unit(&mut w, rng);
        reflect_left(&mut a, &w);
    }
    let a = if rows > cols { a } else { a.transposed() };
    (a.cast(), sigma)
}

fn random_unit(w: &mut [f64], rng: &mut StdRng) {
    loop {
        let mut nrm = 0.0;
        for x in w.iter_mut() {
            *x = rng.sample::<f64, _>(StandardNormal);
            nrm += *x * *x;
        }
        let nrm = nrm.sqrt();
        if nrm > 1e-8 {
            w.iter_mut().for_each(|x| *x /= nrm);
            return;
        }
    }
}

/// `a ← (I − 2wwᵀ)·a` for a unit vector `w`.
fn reflect_left(a: &mut Matrix<f64>, w: &[f64]) {
    for j in 0..a.cols() {
        let s: f64 = (0..a.rows()).map(|i| w[i] * a[(i, j)]).sum();
        for (i, &wi) in w.iter().enumerate() {
            a[(i, j)] -= 2.0 * s * wi;
        }
    }
}

/// Zipf weights of `n` ranks: rank `k` (0-based) weighs `1 / (k + 1)^s`.
pub fn zipf(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| (k as f64).powf(-s)).collect()
}

/// `len` draws of an index into `weights` whose composition is fixed:
/// every block of `block` consecutive draws holds each index in
/// proportion to its weight (largest remainder first), in seeded order.
/// Seeds change the order and never the mix, so runs on different seeds
/// offer the same load.
pub fn stratified(weights: &[f64], block: usize, len: usize, rng: &mut StdRng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * block as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = block - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let pattern: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    let mut out = Vec::with_capacity(len + block);
    while out.len() < len {
        let mut b = pattern.clone();
        shuffle(&mut b, rng);
        out.extend(b);
    }
    out.truncate(len);
    out
}

fn shuffle<X>(v: &mut [X], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}
