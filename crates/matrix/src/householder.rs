//! The host's Householder reflector generator and the dot product its
//! reflectors are applied with, shared by the stage-2 chase
//! (`unisvd_core::band2bi`) and the host QR of tall and wide inputs
//! ([`householder_qr_into`]).
//!
//! [`larfg`] is LAPACK's `xLARFG`: the tail norm is scaled by the largest
//! entry before squaring, so neither huge nor tiny inputs overflow or
//! underflow, and a reflector of a power-of-two multiple of `x` has the
//! same `τ` and tail bits while no entry is subnormal. [`dot`] is the
//! fixed-order interleaved product both callers apply reflectors with:
//! the same bits on every run and thread count.
//!
//! [`householder_qr_into`]: crate::reference::householder_qr_into

use unisvd_scalar::Real;

/// `Σ x[i]·y[i]` in eight interleaved partial sums, combined pairwise at
/// the end — a fixed order (the same bits on every run and thread count)
/// whose independent chains SSE2 runs two or four lanes wide.
#[inline]
pub fn dot<R: Real>(x: &[R], y: &[R]) -> R {
    let mut acc = [R::ZERO; 8];
    let (xs, ys) = (x.chunks_exact(8), y.chunks_exact(8));
    let (xr, yr) = (xs.remainder(), ys.remainder());
    for (xc, yc) in xs.zip(ys) {
        for l in 0..8 {
            acc[l] += xc[l] * yc[l];
        }
    }
    for (l, (&a, &b)) in xr.iter().zip(yr).enumerate() {
        acc[l] += a * b;
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// `‖(a[k] for k in idx)‖₂`, scaled by the largest entry so that tiny
/// entries do not underflow when squared; exactly zero iff every entry is.
fn norm<R: Real>(a: &[R], idx: impl Iterator<Item = usize> + Clone) -> R {
    let scale = idx.clone().fold(R::ZERO, |m, k| m.max(a[k].abs()));
    if scale == R::ZERO {
        return R::ZERO;
    }
    let ssq = idx.fold(R::ZERO, |acc, k| {
        let x = a[k] / scale;
        acc + x * x
    });
    scale * ssq.sqrt()
}

/// LAPACK `xLARFG` in place on `a[h]` (the head `α`) and the tail
/// `a[h + s·t]`, `t = 1..len`: overwrites the head with `β` and the tail
/// with the reflector's tail `v`, and returns `τ`, so that
/// `(I − τ·[1; v]·[1; v]ᵀ)·x = β·e₁` for the original `x`. A tail of exact
/// zeros returns `τ = 0` (the identity) and changes nothing. As in
/// LAPACK, an `x` whose norm is below `safmin = MIN_POSITIVE / EPSILON` is
/// first scaled up by powers of `1 / safmin` (exactly), so that `τ` and `v`
/// are computed from normal numbers and `H` stays orthogonal.
pub fn larfg<R: Real>(a: &mut [R], h: usize, s: usize, len: usize) -> R {
    let tail = (1..len).map(|t| h + s * t);
    let xnorm = norm(a, tail.clone());
    if xnorm == R::ZERO {
        return R::ZERO;
    }
    let mut alpha = a[h];
    let mut beta = -alpha.hypot(xnorm).copysign(alpha);
    let safmin = R::MIN_POSITIVE / R::EPSILON;
    let mut knt = 0;
    while beta.abs() < safmin && knt < 20 {
        knt += 1;
        for k in tail.clone() {
            a[k] /= safmin;
        }
        alpha /= safmin;
        beta /= safmin;
    }
    if knt > 0 {
        beta = -alpha.hypot(norm(a, tail.clone())).copysign(alpha);
    }
    let tau = (beta - alpha) / beta;
    let denom = alpha - beta;
    for k in tail {
        a[k] /= denom;
    }
    for _ in 0..knt {
        beta *= safmin;
    }
    a[h] = beta;
    tau
}
