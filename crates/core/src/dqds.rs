//! dqds — the differential quotient-difference algorithm with shifts
//! (Fernando & Parlett, Numer. Math. 67, 1994; Parlett & Marques, LAA
//! 309, 2000) as LAPACK's `xLASQ1`–`xLASQ6` run it. It is the values path
//! of [`bdsqr`](crate::bdsqr), which, like `xBDSQR` asked for no vectors,
//! runs dqds first and the implicit-QR sweep only if dqds fails.
//!
//! dqds iterates on the *squared* quantities `q_k = d_k²`, `e_k` (squared
//! superdiagonal) of the Cholesky-factored tridiagonal `BᵀB`, applying the
//! shifted transform
//!
//! ```text
//! d = q[0] − τ
//! for k in 0..n-1:
//!     q̂[k] = d + e[k]
//!     t    = q[k+1] / q̂[k]
//!     ê[k] = e[k] · t
//!     d    = d · t − τ
//! q̂[n-1] = d
//! ```
//!
//! which never subtracts two computed quantities, so every singular value,
//! the tiny ones included, comes out to high relative accuracy. A shift is
//! accepted when every `d` stays nonnegative; accepted shifts accumulate
//! in σ, and a converged value deflates as `σ + q`.
//!
//! * **Scaling.** Before squaring, the entries are multiplied by a power
//!   of two that brings the largest near `√(ε/safmin)` (`xLASQ1`). No
//!   square overflows, squares of entries far below the largest stay in
//!   range instead of underflowing to zero, and unscaling is exact.
//! * **Deflation.** Relative only, with `tol = 100ε` (`xLASQ3`): the
//!   bottom value deflates when `e[n−2] ≤ tol²·(σ + q[n−1])`, or when the
//!   previous iterate's `e[n−2] ≤ tol²·q[n−2]`; two deflate at once, by a
//!   subtraction-free 2×2 formula, when the coupling above them is as
//!   small. Interior couplings below `tol²·σ` split the array. No absolute
//!   floor limits how small a value is resolved.
//! * **Shift.** From the previous transform's smallest `d` and its last
//!   three `d`s, by `xLASQ4`'s case analysis. A shift that turns a `d`
//!   negative is retried: at `τ + d_min` when only the last `d` failed, at
//!   `τ/4` otherwise, and unshifted after two failures.
//! * **Ping-pong.** Two `(q, e)` array pairs: each transform reads one and
//!   writes the other, so nothing is copied between transforms.
//!
//! **Singular vectors.** A vector solve needs nothing from the solver
//! but its values: they are the shifts of the inverse iteration that
//! computes the bidiagonal's singular vectors (the `bidiag_vectors`
//! module), so each stage-3 solver feeds in its own.

use unisvd_matrix::Bidiagonal;
use unisvd_scalar::Real;

use crate::bidiag_svd::{all_finite, NoConvergence, Stage3Workspace};

/// dqds transforms allowed per singular value before a solve gives up
/// (converging solves take two to four).
const MAX_TRANSFORMS_PER_SV: usize = 30;

/// The transform budget of a dqds solve of order `n`.
pub(crate) fn default_budget(n: usize) -> usize {
    MAX_TRANSFORMS_PER_SV * n
}

/// What a transform leaves for choosing the next shift: the smallest `d`
/// over all steps, over all but the last and over all but the last two;
/// the last three `d`s; the smallest `ê` above the last two.
#[derive(Clone, Copy, Default)]
struct Mins<R> {
    dmin: R,
    dmin1: R,
    dmin2: R,
    dn: R,
    dn1: R,
    dn2: R,
    emin: R,
}

/// `xLASQ4`'s memory across shifts: the case that chose the last one and
/// the growing fraction of `d_min` that case 6 takes.
struct ShiftMemo<R> {
    ttype: i32,
    g: R,
}

/// The current array of a ping-pong pair, and the other one.
fn pair<'a, R>(x: &'a mut [&mut [R]; 2], pp: usize) -> (&'a mut [R], &'a mut [R]) {
    let [a, b] = x;
    if pp == 0 {
        (&mut **a, &mut **b)
    } else {
        (&mut **b, &mut **a)
    }
}

/// `x·2^k`, exact while the result is a normal number.
fn ldexp(mut x: f64, mut k: i32) -> f64 {
    let pow2 = |k: i32| f64::from_bits(((k + 1023) as u64) << 52);
    while k.abs() > 1000 {
        let step = 1000 * k.signum();
        x *= pow2(step);
        k -= step;
    }
    x * pow2(k)
}

/// One shifted transform of the window `q`, `e` (at least three rows)
/// into `qh`, `eh` (`xLASQ5`). A shift below `ε·(σ + τ)/2` is dropped,
/// and the unshifted transform then flushes each `d` above the last two
/// that falls below `ε·σ` to zero: such a `d` is below the rounding error
/// of σ itself. Stops at the first negative or NaN `d`, leaving
/// `dmin1 < 0` to mark the failure as early. Returns the shift applied.
fn transform<R: Real>(
    q: &[R],
    e: &[R],
    qh: &mut [R],
    eh: &mut [R],
    tau: R,
    sigma: R,
) -> (R, Mins<R>) {
    let m = q.len();
    let (e, qh, eh) = (&e[..m - 1], &mut qh[..m], &mut eh[..m - 1]);
    let dthresh = R::EPSILON * (sigma + tau);
    let tau = if tau < dthresh * R::HALF {
        R::ZERO
    } else {
        tau
    };
    // Only the unshifted transform flushes: a shifted one must see its
    // negative `d`s.
    let floor = if tau == R::ZERO { dthresh } else { -R::MAX };
    let mut d = q[0] - tau;
    let mut r = Mins {
        dmin: d,
        dmin1: -q[0],
        emin: q[1],
        ..Mins::default()
    };
    for k in 0..m - 1 {
        if d < R::ZERO || d.is_nan() {
            r.dmin = d;
            return (tau, r);
        }
        if k + 3 == m {
            (r.dn2, r.dmin2) = (d, r.dmin);
        }
        qh[k] = d + e[k];
        let t = q[k + 1] / qh[k];
        eh[k] = e[k] * t;
        d = d * t - tau;
        if k + 3 < m {
            if d < floor {
                d = R::ZERO;
            }
            r.emin = r.emin.min(eh[k]);
        }
        r.dmin = r.dmin.min(d);
        if k + 3 == m {
            (r.dn1, r.dmin1) = (d, r.dmin);
        }
    }
    r.dn = d;
    if d.is_nan() {
        r.dmin = d;
    }
    qh[m - 1] = d;
    (tau, r)
}

/// The unshifted transform, guarded against underflow and overflow in
/// its ratios (`xLASQ6`): the fallback when the plain one meets a NaN.
fn guarded_dqd<R: Real>(q: &[R], e: &[R], qh: &mut [R], eh: &mut [R]) -> Mins<R> {
    let m = q.len();
    let safmin = R::MIN_POSITIVE;
    let mut d = q[0];
    let mut r = Mins {
        dmin: d,
        emin: q[1],
        ..Mins::default()
    };
    for k in 0..m - 1 {
        if k + 3 == m {
            (r.dn2, r.dmin2) = (d, r.dmin);
        }
        qh[k] = d + e[k];
        if qh[k] == R::ZERO {
            eh[k] = R::ZERO;
            d = q[k + 1];
            r.dmin = d;
            r.emin = R::ZERO;
        } else if safmin * q[k + 1] < qh[k] && safmin * qh[k] < q[k + 1] {
            let t = q[k + 1] / qh[k];
            eh[k] = e[k] * t;
            d *= t;
        } else {
            eh[k] = q[k + 1] * (e[k] / qh[k]);
            d = q[k + 1] * (d / qh[k]);
        }
        r.dmin = r.dmin.min(d);
        if k + 3 < m {
            r.emin = r.emin.min(eh[k]);
        } else if k + 3 == m {
            (r.dn1, r.dmin1) = (d, r.dmin);
        }
    }
    r.dn = d;
    qh[m - 1] = d;
    r
}

/// The next shift for the window `lo..=hi` (`xLASQ4`), from the current
/// arrays `qc`, `ec`, the previous iterate `qo`, `eo`, the minima `m` of
/// the transform that produced the current arrays, and how many values
/// deflated since. Estimates the smallest eigenvalue from below: by a
/// Newton-like step on the last `d`s when they hold the minimum, by a
/// Rayleigh-quotient residual bound over the bottom of the array, or by a
/// safe fraction of `d_min`. Where a bound does not apply the previous
/// shift `tau` stands.
#[allow(clippy::too_many_arguments)]
fn choose_shift<R: Real>(
    (qc, ec): (&[R], &[R]),
    (qo, eo): (&[R], &[R]),
    lo: usize,
    hi: usize,
    deflated: usize,
    m: &Mins<R>,
    tau: R,
    memo: &mut ShiftMemo<R>,
) -> R {
    let c = R::from_f64;
    let (cnst1, cnst2, cnst3) = (c(0.563), c(1.01), c(1.05));
    let (qurtr, third, hundrd) = (c(0.25), c(0.333), c(100.0));
    let one = R::ONE;
    if m.dmin <= R::ZERO {
        memo.ttype = -1;
        return -m.dmin;
    }
    // Sums the ratios e_j/q_j up the window from row `from` (exclusive
    // upper bound) while they shrink fast, the tail of a Rayleigh-quotient
    // residual; `None` when a ratio exceeds one and the bound fails.
    let residual = |from: usize, mut a2: R, mut b2: R| -> Option<R> {
        for j in (lo..from).rev() {
            if b2 == R::ZERO {
                break;
            }
            let b1 = b2;
            if ec[j] > qc[j] {
                return None;
            }
            b2 *= ec[j] / qc[j];
            a2 += b2;
            if hundrd * b2.max(b1) < a2 || cnst1 < a2 {
                break;
            }
        }
        Some(a2)
    };
    match deflated {
        0 if m.dmin == m.dn || m.dmin == m.dn1 => {
            let b1 = qc[hi].sqrt() * ec[hi - 1].sqrt();
            let b2 = qc[hi - 1].sqrt() * ec[hi - 2].sqrt();
            let a2 = qc[hi - 1] + ec[hi - 1];
            if m.dmin == m.dn && m.dmin1 == m.dn1 {
                // Cases 2 and 3: the minimum sits in the last two rows.
                let gap2 = m.dmin2 - a2 - m.dmin2 * qurtr;
                let gap1 = if gap2 > R::ZERO && gap2 > b2 {
                    a2 - m.dn - (b2 / gap2) * b2
                } else {
                    a2 - m.dn - (b1 + b2)
                };
                if gap1 > R::ZERO && gap1 > b1 {
                    memo.ttype = -2;
                    (m.dn - (b1 / gap1) * b1).max(R::HALF * m.dmin)
                } else {
                    let mut s = R::ZERO;
                    if m.dn > b1 {
                        s = m.dn - b1;
                    }
                    if a2 > b1 + b2 {
                        s = s.min(a2 - (b1 + b2));
                    }
                    memo.ttype = -3;
                    s.max(third * m.dmin)
                }
            } else {
                // Case 4: a Rayleigh-quotient bound from the last rows.
                memo.ttype = -4;
                let (gam, a2, b2, from) = if m.dmin == m.dn {
                    if ec[hi - 1] > qc[hi - 1] {
                        return tau;
                    }
                    (m.dn, R::ZERO, ec[hi - 1] / qc[hi - 1], hi - 1)
                } else {
                    if eo[hi - 1] > qo[hi] || ec[hi - 2] > qc[hi - 2] {
                        return tau;
                    }
                    (m.dn1, eo[hi - 1] / qo[hi], ec[hi - 2] / qc[hi - 2], hi - 2)
                };
                let Some(a2) = residual(from, a2 + b2, b2) else {
                    return tau;
                };
                let a2 = cnst3 * a2;
                if a2 < cnst1 {
                    gam * (one - a2.sqrt()) / (one + a2)
                } else {
                    qurtr * m.dmin
                }
            }
        }
        0 if m.dmin == m.dn2 => {
            // Case 5: the minimum sits three rows up.
            memo.ttype = -5;
            let (b1, b2) = (qo[hi], qo[hi - 1]);
            if eo[hi - 2] > b2 || eo[hi - 1] > b1 {
                return tau;
            }
            let mut a2 = (eo[hi - 2] / b2) * (one + eo[hi - 1] / b1);
            if hi - lo > 2 {
                let b2 = ec[hi - 3] / qc[hi - 3];
                let Some(sum) = residual(hi - 3, a2 + b2, b2) else {
                    return tau;
                };
                a2 = cnst3 * sum;
            }
            if a2 < cnst1 {
                m.dn2 * (one - a2.sqrt()) / (one + a2)
            } else {
                qurtr * m.dmin
            }
        }
        0 => {
            // Case 6: nothing to guide the shift; a growing fraction of
            // d_min while this case repeats.
            memo.g = match memo.ttype {
                -6 => memo.g + third * (one - memo.g),
                -18 => qurtr * third,
                _ => qurtr,
            };
            memo.ttype = -6;
            memo.g * m.dmin
        }
        1 if m.dmin1 == m.dn1 && m.dmin2 == m.dn2 => {
            // Cases 7 and 8: one value just deflated; dmin1 and dn1 take
            // the place of dmin and dn.
            memo.ttype = -7;
            let s = third * m.dmin1;
            if ec[hi - 1] > qc[hi - 1] {
                return tau;
            }
            let mut b1 = ec[hi - 1] / qc[hi - 1];
            let mut b2 = b1;
            if b2 != R::ZERO {
                for j in (lo..hi - 1).rev() {
                    let a2 = b1;
                    if ec[j] > qc[j] {
                        return tau;
                    }
                    b1 *= ec[j] / qc[j];
                    b2 += b1;
                    if hundrd * b1.max(a2) < b2 {
                        break;
                    }
                }
            }
            let b2 = (cnst3 * b2).sqrt();
            let a2 = m.dmin1 / (one + b2 * b2);
            let gap2 = R::HALF * m.dmin2 - a2;
            if gap2 > R::ZERO && gap2 > b2 * a2 {
                s.max(a2 * (one - cnst2 * a2 * (b2 / gap2) * b2))
            } else {
                memo.ttype = -8;
                s.max(a2 * (one - cnst2 * b2))
            }
        }
        1 => {
            // Case 9.
            memo.ttype = -9;
            if m.dmin1 == m.dn1 {
                R::HALF * m.dmin1
            } else {
                qurtr * m.dmin1
            }
        }
        2 if m.dmin2 == m.dn2 && R::TWO * ec[hi - 1] < qc[hi - 1] => {
            // Case 10: two values just deflated; dmin2 and dn2 take the
            // place of dmin and dn.
            memo.ttype = -10;
            let s = third * m.dmin2;
            let mut b1 = ec[hi - 1] / qc[hi - 1];
            let mut b2 = b1;
            if b2 != R::ZERO {
                for j in (lo..hi - 1).rev() {
                    if ec[j] > qc[j] {
                        return tau;
                    }
                    b1 *= ec[j] / qc[j];
                    b2 += b1;
                    if hundrd * b1 < b2 {
                        break;
                    }
                }
            }
            let b2 = (cnst3 * b2).sqrt();
            let a2 = m.dmin2 / (one + b2 * b2);
            let gap2 = qc[hi - 1] + ec[hi - 2] - qc[hi - 2].sqrt() * ec[hi - 2].sqrt() - a2;
            if gap2 > R::ZERO && gap2 > b2 * a2 {
                s.max(a2 * (one - cnst2 * a2 * (b2 / gap2) * b2))
            } else {
                s.max(a2 * (one - cnst2 * b2))
            }
        }
        2 => {
            // Case 11.
            memo.ttype = -11;
            qurtr * m.dmin2
        }
        _ => {
            // Case 12: more than two values deflated, no information.
            memo.ttype = -12;
            R::ZERO
        }
    }
}

/// Eigenvalues `(λ₁, λ₂)` of the 2×2 qd array `(a, b, c)`, from
/// `λ₁ + λ₂ = a + b + c` and `λ₁·λ₂ = a·c` without a cancelling
/// subtraction (`xLASQ3`'s two-value deflation).
fn eig2<R: Real>(a: R, b: R, c: R, tol2: R) -> (R, R) {
    let (mut a, mut c) = if c > a { (c, a) } else { (a, c) };
    let t = R::HALF * ((a - c) + b);
    if b > c * tol2 && t != R::ZERO {
        let s = c * (b / t);
        let s = if s <= t {
            c * (b / (t * (R::ONE + (R::ONE + s / t).sqrt())))
        } else {
            c * (b / (t + t.sqrt() * (t + s).sqrt()))
        };
        let t = a + (s + b);
        c *= a / t;
        a = t;
    }
    (a, c)
}

/// Moves the converged values at the bottom of the window `lo..end` into
/// `out` (`xLASQ3`'s deflation tests) and returns the window's new end.
fn deflate<R: Real>(
    (qc, ec): (&[R], &[R]),
    eo: &[R],
    lo: usize,
    mut end: usize,
    sigma: R,
    tol2: R,
    out: &mut Vec<R>,
) -> usize {
    while end > lo {
        let hi = end - 1;
        if hi == lo {
            out.push(qc[hi] + sigma);
            return lo;
        }
        if hi > lo + 1 {
            if !(ec[hi - 1] > tol2 * (sigma + qc[hi]) && eo[hi - 1] > tol2 * qc[hi - 1]) {
                out.push(qc[hi] + sigma);
                end -= 1;
                continue;
            }
            if ec[hi - 2] > tol2 * sigma && eo[hi - 2] > tol2 * qc[hi - 2] {
                return end;
            }
        }
        let (a, c) = eig2(qc[hi - 1], ec[hi - 1], qc[hi], tol2);
        out.push(a + sigma);
        out.push(c + sigma);
        end -= 2;
    }
    end
}

/// Reverses rows `lo..=hi` of both array pairs: dqds converges at the
/// bottom, so the end with the smaller values should be there.
fn reverse<R>(q: &mut [&mut [R]; 2], e: &mut [&mut [R]; 2], lo: usize, hi: usize) {
    for p in 0..2 {
        q[p][lo..=hi].reverse();
        e[p][lo..hi].reverse();
    }
}

/// One unshifted transform of rows `0..=hi` from pair `pp` into the other
/// with Li's test (`xLASQ2`'s opening passes): a coupling `e[k]` at most
/// `tol²` times the `d` of the recurrence, run up from the bottom and then
/// down in the transform, is set to zero and splits the array there.
fn opening_pass<R: Real>(
    q: &mut [&mut [R]; 2],
    e: &mut [&mut [R]; 2],
    pp: usize,
    hi: usize,
    tol2: R,
) {
    let (qc, qo) = pair(q, pp);
    let (ec, eo) = pair(e, pp);
    let mut d = qc[hi];
    for k in (0..hi).rev() {
        if ec[k] <= tol2 * d {
            ec[k] = -R::ZERO;
            d = qc[k];
        } else {
            d = qc[k] * (d / (d + ec[k]));
        }
    }
    d = qc[0];
    for k in 0..hi {
        qo[k] = d + ec[k];
        if ec[k] <= tol2 * d {
            ec[k] = -R::ZERO;
            qo[k] = d;
            eo[k] = R::ZERO;
            d = qc[k + 1];
        } else if R::MIN_POSITIVE * qc[k + 1] < qo[k] && R::MIN_POSITIVE * qo[k] < qc[k + 1] {
            let t = qc[k + 1] / qo[k];
            eo[k] = ec[k] * t;
            d *= t;
        } else {
            eo[k] = qc[k + 1] * (ec[k] / qo[k]);
            d = qc[k + 1] * (d / qo[k]);
        }
    }
    qo[hi] = d;
}

/// Singular values of an upper bidiagonal matrix by dqds, descending.
///
/// Cross-validated in tests against the implicit-QR sweep and
/// [`crate::bisect`]; subtraction-free transforms and relative deflation
/// give high relative accuracy to the tiny singular values too.
pub fn dqds<R: Real>(bi: &Bidiagonal<R>) -> Result<Vec<R>, NoConvergence> {
    let mut ws = Stage3Workspace::default();
    dqds_into(bi, &mut ws)?;
    Ok(ws.out)
}

/// [`dqds`] against a reusable [`Stage3Workspace`]: the two ping-pong
/// `(q, e)` pairs reuse the workspace vectors instead of allocating per
/// solve. On success the values are in [`Stage3Workspace::values`],
/// descending. A non-finite entry fails at once with [`NoConvergence`].
pub fn dqds_into<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
) -> Result<(), NoConvergence> {
    ws.out.clear();
    if !all_finite(bi) {
        return Err(NoConvergence { remaining: bi.n() });
    }
    dqds_budgeted(bi, ws, default_budget(bi.n()))
}

/// [`dqds_into`] on finite entries, giving up after `budget` transforms.
/// `bdsqr_into` passes the default budget; the tests of its QR fallback
/// pass a small one to force the failure.
pub(crate) fn dqds_budgeted<R: Real>(
    bi: &Bidiagonal<R>,
    ws: &mut Stage3Workspace<R>,
    mut budget: usize,
) -> Result<(), NoConvergence> {
    let n = bi.n();
    ws.out.clear();
    let sigmx =
        bi.d.iter()
            .chain(&bi.e)
            .fold(R::ZERO, |m, x| m.max(x.abs()));
    if n <= 1 || sigmx == R::ZERO {
        ws.out.extend(bi.d.iter().map(|x| x.abs()));
        return Ok(());
    }

    // Scale by 2^k so the largest entry is near √(ε/safmin), then square.
    let log2 = |x: f64| x.log2().floor() as i32;
    let k = log2((R::EPSILON / R::MIN_POSITIVE).to_f64()) / 2 - log2(sigmx.to_f64());
    let square = |&x: &R| {
        let s = R::from_f64(ldexp(x.to_f64(), k));
        s * s
    };
    ws.d.clear();
    ws.d.extend(bi.d.iter().map(square));
    ws.e.clear();
    ws.e.extend(bi.e.iter().map(square));
    // e[n-1] couples nothing: transforms leave their smallest ê there.
    ws.e.push(R::ZERO);
    for x in [&mut ws.qh, &mut ws.eh] {
        x.clear();
        x.resize(n, R::ZERO);
    }
    let Stage3Workspace { d, e, qh, eh, out } = ws;
    let mut q = [&mut d[..], &mut qh[..]];
    let mut ee = [&mut e[..], &mut eh[..]];

    let tol = R::EPSILON * R::from_f64(100.0);
    let tol2 = tol * tol;
    let cbias = R::from_f64(1.5);
    if cbias * q[0][0] < q[0][n - 1] {
        reverse(&mut q, &mut ee, 0, n - 1);
    }
    opening_pass(&mut q, &mut ee, 0, n - 1, tol2);
    opening_pass(&mut q, &mut ee, 1, n - 1, tol2);

    let mut memo = ShiftMemo {
        ttype: 0,
        g: R::ZERO,
    };
    let mut tau = R::ZERO;
    let mut mins = Mins::default();
    // Rows `top..n` are done. A split leaves the rows above it for later,
    // with −σ in the coupling e[0][split] that marks it; this loop takes
    // the blocks bottom-up, in pair 0 where every split is made.
    let mut top = n;
    while top > 0 {
        let hi = top - 1;
        let mut sigma = if hi == n - 1 { R::ZERO } else { -ee[0][hi] };
        if sigma < R::ZERO {
            return Err(NoConvergence {
                remaining: n - out.len(),
            });
        }
        let mut desig = R::ZERO;
        let (q0, e0) = (&*q[0], &*ee[0]);
        let mut lo = hi;
        let (mut qmin, mut qmax, mut emax) = (q0[hi], q0[hi], R::ZERO);
        while lo > 0 && e0[lo - 1] > R::ZERO {
            let ek = e0[lo - 1];
            if qmin >= R::from_f64(4.0) * emax {
                qmin = qmin.min(q0[lo]);
                emax = emax.max(ek);
            }
            qmax = qmax.max(q0[lo - 1] + ek);
            lo -= 1;
        }
        // Put the smaller end at the bottom if the smallest d of the
        // unshifted recurrence sits in the top third.
        let mut flipped = false;
        if hi - lo > 1 {
            let (mut dee, mut kmin) = (q0[lo], lo);
            let mut deemin = dee;
            for k in lo + 1..=hi {
                dee = q0[k] * (dee / (dee + e0[k - 1]));
                if dee <= deemin {
                    deemin = dee;
                    kmin = k;
                }
            }
            if (kmin - lo) * 2 < hi - kmin && deemin <= R::HALF * q0[hi] {
                reverse(&mut q, &mut ee, lo, hi);
                flipped = true;
            }
        }
        // The first shift: a Gershgorin-type lower bound when the q's
        // dominate the e's.
        mins.dmin = -(qmin - R::TWO * qmin.sqrt() * emax.sqrt()).max(R::ZERO);
        let mut pp = 0;
        let mut end = hi + 1;
        while end > lo {
            let end_in = end;
            if !flipped {
                end = deflate((&*q[pp], &*ee[pp]), &*ee[1 - pp], lo, end, sigma, tol2, out);
                if end == lo {
                    break;
                }
            }
            flipped = false;
            let hi = end - 1;
            let (c, o) = (pp, 1 - pp);
            if (mins.dmin <= R::ZERO || end < end_in) && cbias * q[c][lo] < q[c][hi] {
                reverse(&mut q, &mut ee, lo, hi);
                if hi - lo <= 4 {
                    ee[c][hi] = ee[c][lo];
                    ee[o][hi] = ee[o][lo];
                }
                mins.dmin2 = mins.dmin2.min(ee[c][hi]);
                ee[c][hi] = ee[c][hi].min(ee[c][lo]).min(ee[c][lo + 1]);
                ee[o][hi] = ee[o][hi].min(ee[o][lo]).min(ee[o][lo + 1]);
                qmax = qmax.max(q[c][lo]).max(q[c][lo + 1]);
                mins.dmin = -R::ZERO;
            }
            tau = choose_shift(
                (&*q[c], &*ee[c]),
                (&*q[o], &*ee[o]),
                lo,
                hi,
                end_in - end,
                &mins,
                tau,
                &mut memo,
            );

            // Transform until a shift is accepted.
            let (qc, qo) = pair(&mut q, pp);
            let (ec, eo) = pair(&mut ee, pp);
            let window = lo..hi + 1;
            loop {
                if budget == 0 {
                    return Err(NoConvergence {
                        remaining: n - out.len(),
                    });
                }
                budget -= 1;
                let (applied, r) = transform(
                    &qc[window.clone()],
                    &ec[lo..hi],
                    &mut qo[window.clone()],
                    &mut eo[lo..hi],
                    tau,
                    sigma,
                );
                (tau, mins) = (applied, r);
                if r.dmin >= R::ZERO && r.dmin1 >= R::ZERO {
                    break;
                }
                if r.dmin < R::ZERO
                    && r.dmin1 > R::ZERO
                    && eo[hi - 1] < tol * (sigma + r.dn1)
                    && r.dn.abs() < tol * sigma
                {
                    // Convergence hidden by a negative last d.
                    qo[hi] = R::ZERO;
                    mins.dmin = R::ZERO;
                    break;
                }
                if r.dmin < R::ZERO {
                    tau = if memo.ttype < -22 {
                        // Failed twice: no shift.
                        R::ZERO
                    } else if r.dmin1 > R::ZERO {
                        // Only the last d failed: τ + d_min is an
                        // excellent shift.
                        memo.ttype -= 11;
                        (tau + r.dmin) * (R::ONE - R::TWO * R::EPSILON)
                    } else {
                        memo.ttype -= 12;
                        R::from_f64(0.25) * tau
                    };
                    continue;
                }
                if r.dmin.is_nan() && tau != R::ZERO {
                    tau = R::ZERO;
                    continue;
                }
                // A NaN without a shift, or a possible underflow.
                mins = guarded_dqd(
                    &qc[window.clone()],
                    &ec[lo..hi],
                    &mut qo[window.clone()],
                    &mut eo[lo..hi],
                );
                tau = R::ZERO;
                break;
            }
            eo[hi] = mins.emin;
            // σ += τ, with the rounding error carried in `desig`.
            if tau < sigma {
                desig += tau;
                let t = sigma + desig;
                desig -= t - sigma;
                sigma = t;
            } else {
                let t = sigma + tau;
                desig = sigma - (t - tau) + desig;
                sigma = t;
            }
            pp = o;

            // Split off the rows above a negligible coupling, every other
            // transform, when the smallest ê suggests one.
            if pp == 0 && hi - lo >= 3 && (ee[1][hi] <= tol2 * qmax || ee[0][hi] <= tol2 * sigma) {
                let q0 = &*q[0];
                let [e0, e1] = &mut ee;
                let mut split = None;
                let (mut emin, mut oldemin) = (e0[lo], e1[lo]);
                qmax = q0[lo];
                for k in lo..hi - 2 {
                    if e1[k] <= tol2 * q0[k] || e0[k] <= tol2 * sigma {
                        e0[k] = -sigma;
                        split = Some(k);
                        qmax = R::ZERO;
                        (emin, oldemin) = (e0[k + 1], e1[k + 1]);
                    } else {
                        qmax = qmax.max(q0[k + 1]);
                        emin = emin.min(e0[k]);
                        oldemin = oldemin.min(e1[k]);
                    }
                }
                e0[hi] = emin;
                e1[hi] = oldemin;
                if let Some(k) = split {
                    lo = k + 1;
                }
            }
        }
        top = lo;
    }

    for v in out.iter_mut() {
        *v = R::from_f64(ldexp(v.max(R::ZERO).sqrt().to_f64(), -k));
    }
    out.sort_unstable_by(|a, b| b.to_f64().total_cmp(&a.to_f64()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidiag_svd::{bisect, qr_sweep};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn bi(d: &[f64], e: &[f64]) -> Bidiagonal<f64> {
        Bidiagonal::new(d.to_vec(), e.to_vec())
    }

    /// A graded bidiagonal, `d_i, e_i = ±U(0.5, 2)·10^(−decades·i/(n−1))`:
    /// the largest entries at the top, the smallest `decades` lower.
    fn graded(n: usize, decades: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |i: usize| {
            let m: f64 = rng.gen_range(0.5..2.0);
            let s = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            s * m * 10f64.powf(-decades * i as f64 / (n - 1) as f64)
        };
        let d = (0..n).map(&mut draw).collect();
        let e = (0..n - 1).map(&mut draw).collect();
        (d, e)
    }

    /// Worst relative error of `got` against `want`, both descending.
    fn worst_rel(got: &[f64], want: &[f64]) -> f64 {
        assert_eq!(got.len(), want.len());
        got.iter()
            .zip(want)
            .map(|(&a, &b)| (a - b).abs() / b)
            .fold(0.0, f64::max)
    }

    /// The graded f32 family of the QR sweep's own convergence test
    /// (26 decades, so squares of the trailing entries fall below f32's
    /// range): every dqds value within 2n·ε of the f64 QR sweep of the
    /// same rounded entries.
    #[test]
    fn graded_f32_values_within_2n_eps_of_the_qr_sweep() {
        for n in [32usize, 64, 256] {
            for seed in 0..20 {
                let (d, e) = graded(n, 26.0, seed);
                let narrow = |x: &[f64]| x.iter().map(|&v| v as f32).collect::<Vec<_>>();
                let (d32, e32) = (narrow(&d), narrow(&e));
                let s32 = dqds(&Bidiagonal::new(d32.clone(), e32.clone()))
                    .unwrap_or_else(|err| panic!("n={n} seed={seed}: {err}"));
                let wide = |x: &[f32]| x.iter().map(|&v| v as f64).collect::<Vec<_>>();
                let s64 = qr_sweep(&Bidiagonal::new(wide(&d32), wide(&e32))).unwrap();
                let rel = worst_rel(&wide(&s32), &s64);
                let bound = 2.0 * n as f64 * f32::EPSILON as f64;
                assert!(rel <= bound, "n={n} seed={seed}: rel {rel:e} > {bound:e}");
            }
        }
    }

    /// f64 graded over 250 decades: without scaling before squaring the
    /// squares of the trailing entries would underflow f64 as well.
    #[test]
    fn graded_f64_values_over_250_decades_within_2n_eps_of_the_qr_sweep() {
        for n in [32usize, 64, 256] {
            for seed in 0..10 {
                let (d, e) = graded(n, 250.0, seed);
                let b = bi(&d, &e);
                let s = dqds(&b).unwrap_or_else(|err| panic!("n={n} seed={seed}: {err}"));
                let rel = worst_rel(&s, &qr_sweep(&b).unwrap());
                let bound = 2.0 * n as f64 * f64::EPSILON;
                assert!(rel <= bound, "n={n} seed={seed}: rel {rel:e} > {bound:e}");
            }
        }
    }

    #[test]
    fn diagonal_exact() {
        let b = bi(&[3.0, -1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(dqds(&b).unwrap(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn golden_ratio_2x2() {
        let b = bi(&[1.0, 1.0], &[1.0]);
        let phi = (1.0 + 5.0f64.sqrt()) / 2.0;
        let sv = dqds(&b).unwrap();
        assert!((sv[0] - phi).abs() < 1e-13, "σ₁ = {}", sv[0]);
        assert!((sv[1] - 1.0 / phi).abs() < 1e-13);
    }

    #[test]
    fn agrees_with_bdsqr_and_bisect_on_random() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [2usize, 3, 7, 16, 40, 100] {
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = bi(&d, &e);
            let s_dqds = dqds(&b).unwrap();
            let s_qr = qr_sweep(&b).unwrap();
            let s_bis = bisect(&b);
            for i in 0..n {
                assert!(
                    (s_dqds[i] - s_bis[i]).abs() < 1e-9 * (1.0 + s_bis[0]),
                    "n={n} σ[{i}]: dqds {} vs bisect {}",
                    s_dqds[i],
                    s_bis[i]
                );
                assert!((s_dqds[i] - s_qr[i]).abs() < 1e-9 * (1.0 + s_qr[0]));
            }
        }
    }

    #[test]
    fn high_relative_accuracy_on_graded_matrix() {
        // dqds's raison d'être: tiny σ to high *relative* accuracy.
        // Reference: the Demmel–Kahan zero-shift path of the QR sweep,
        // which also preserves relative accuracy (bisection only gives
        // ~2e-16 *absolute* accuracy, useless as a relative oracle at 1e-10).
        let b = bi(&[1.0, 1e-5, 1e-10, 1e-15], &[0.5, 0.5e-5, 0.5e-10]);
        let s = dqds(&b).unwrap();
        let s_ref = qr_sweep(&b).unwrap();
        for i in 0..4 {
            let rel = ((s[i] - s_ref[i]) / s_ref[i].max(1e-300)).abs();
            assert!(
                rel < 1e-12,
                "σ[{i}] rel err {rel:.2e}: {} vs {}",
                s[i],
                s_ref[i]
            );
        }
        // Bisection still agrees in the absolute sense.
        let s_bis = bisect(&b);
        for i in 0..4 {
            assert!((s[i] - s_bis[i]).abs() < 1e-14);
        }
        // The smallest value is genuinely tiny, not absorbed to zero.
        assert!(s[3] > 1e-17 && s[3] < 1e-13);
    }

    #[test]
    fn zero_diagonal_and_splits() {
        let b = bi(&[0.0, 2.0, 0.0, 1.0, 3.0], &[1.0, 0.0, 1.0, 0.5]);
        let s1 = dqds(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..5 {
            assert!(
                (s1[i] - s2[i]).abs() < 1e-10,
                "σ[{i}]: {} vs {}",
                s1[i],
                s2[i]
            );
        }
    }

    #[test]
    fn frobenius_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 64;
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b = bi(&d, &e);
        let sv = dqds(&b).unwrap();
        let sum: f64 = sv.iter().map(|s| s * s).sum();
        let fro2 = b.fro_norm().powi(2);
        assert!(((sum - fro2) / fro2).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(dqds(&bi(&[], &[])).unwrap().is_empty());
        assert_eq!(dqds(&bi(&[-7.0], &[])).unwrap(), vec![7.0]);
    }

    #[test]
    fn f32_path() {
        let b = Bidiagonal::new(vec![1.0f32, 0.5, 0.25], vec![0.1, 0.1]);
        let s1 = dqds(&b).unwrap();
        let s2 = bisect(&b);
        for i in 0..3 {
            assert!((s1[i] - s2[i]).abs() < 1e-5);
        }
    }
}
