//! Panel factorisation kernels: `GEQRT` (Algorithm 3), `TSQRT`, and the
//! fused `FTSQRT` that factors a whole tile column in one launch (Fig. 2).
//!
//! One workgroup of `TILESIZE` threads runs the whole panel; lane `i`
//! owns column `i` of the tile(s) in registers, so register row `j` holds
//! row `j` of the tile. Each Householder iteration publishes the pivot
//! column to shared memory, barriers, and updates all trailing columns
//! in one lane-wide superstep, lane index innermost — a line-for-line
//! transcription of Algorithm 3 into the simulator's superstep model. The `SPLITK`
//! refinement is purely computational (§3.2) and enters via the launch
//! spec (see [`crate::cost`]); the numeric body always executes the
//! one-thread-per-column form.
//!
//! Storage convention (LAPACK-compatible, as in the paper): after the
//! factorisation the upper triangle holds `R`, the strict lower triangle
//! holds the normalised Householder vectors `v̂` (unit head implicit), and
//! `τ̂` is stored such that `H = I − τ̂ v̂ v̂ᵀ`.

use crate::cost::{ftsqrt_spec, geqrt_spec, tsqrt_spec};
use crate::lanes::{dot_lanes, sub_lanes};
use crate::layout::{DMat, DVec};
use crate::params::HyperParams;
use unisvd_gpu::{Device, LaneRegs, Workgroup};
use unisvd_scalar::{Real, Scalar};

/// Householder reflector head: given the pivot head `akk` and the squared
/// norm `nrm` of the annihilated part, returns `(x, τ̂, guarded)` per
/// Algorithm 3 lines 10–14.
///
/// **Deviation from the paper's guard.** Algorithm 3 lines 14–15 rescue a
/// small reflector with `x ← 10ε, τ̂ ← 2`. For a column that is tiny but
/// *nonzero*, that reflector has `‖v̂‖² = 1 + ‖tail/10ε‖² > 1` while τ̂ is
/// pinned at 2, so `H = I − τ̂ v̂ v̂ᵀ` is **not orthogonal** — and it is
/// applied to O(1) trailing data, injecting errors far above ε (we
/// observed singular value errors of 1e-3 in FP64 on matrices with
/// numerically low-rank panels). We instead use the LAPACK `larfg`
/// convention: a negligible column (`‖[akk; tail]‖ < 10ε`) gets `τ̂ = 0`
/// (H = I), leaving a ≤ 10ε residue below the diagonal that the band
/// extraction truncates — the same backward-error class as the paper's
/// √n·ε bound, but with an exactly orthogonal factor.
#[inline]
pub fn reflector_head<R: Real>(akk: R, nrm: R, eps10: R) -> (R, R, bool) {
    let s = (akk * akk + nrm).sqrt();
    let x = if akk < R::ZERO { akk - s } else { akk + s };
    if x.abs() < eps10 {
        (R::ONE, R::ZERO, true) // H = I; x value unused downstream
    } else {
        (x, R::TWO * x * x / (x * x + nrm), false)
    }
}

/// Loads tile `(tr, tc)` into register rows `reg_off ..`. Lane `i` owns
/// tile column `i`, so register row `j` holds tile row `j`:
/// [`DMat::read_row`] walks it with stride `n` on untransposed views and
/// copies it as one slice on transposed ones (the LQ sweep).
fn load_tile<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    ts: usize,
    tr: usize,
    tc: usize,
    reg_off: usize,
) {
    wg.step_lanes(|mut regs, _| {
        for j in 0..ts {
            a.read_row(tr * ts + j, tc * ts, &mut regs.row_mut(reg_off + j)[..ts]);
        }
    });
}

/// Stores register rows `reg_off ..` back to tile `(tr, tc)`.
fn store_tile<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    ts: usize,
    tr: usize,
    tc: usize,
    reg_off: usize,
) {
    wg.step_lanes(|regs, _| {
        for j in 0..ts {
            a.write_row(tr * ts + j, tc * ts, &regs.row(reg_off + j)[..ts]);
        }
    });
}

/// Writes each lane's saved τ̂ (register row `tau_slot`) to
/// `tau[off + lane]`. The last column of a `GEQRT` has no reflector; pass
/// `last_zero` to clear it.
fn store_tau<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    tau: DVec<'_, T>,
    ts: usize,
    off: usize,
    tau_slot: usize,
    last_zero: bool,
) {
    wg.step_lanes(|regs, _| {
        for (i, &v) in regs.row(tau_slot)[..ts].iter().enumerate() {
            let v = if last_zero && i == ts - 1 {
                T::Accum::ZERO
            } else {
                v
            };
            tau.write(off + i, v);
        }
    });
}

/// One Householder step on the lanes `k..ts` (Algorithm 3 lines 9–19,
/// and their `TSQRT` twin). Lane `k` has published the tail of its
/// column to shared memory as `v`, which pairs `v[i]` with register row
/// `tail_row + i`; `head` is `(akk, nrm, 10ε)` for [`reflector_head`].
/// Register row `k < tail_row` is the pivot row, row `tau_slot` takes τ̂ in
/// lane `k`, and row `tau_slot − 1` — spare in every panel launch, above
/// every tile row — holds each lane's dot product `ρ`.
fn reflect_lanes<R: Real>(
    regs: &mut LaneRegs<'_, R>,
    (akk, nrm, eps10): (R, R, R),
    v: &[R],
    tail_row: usize,
    k: usize,
    ts: usize,
    tau_slot: usize,
) {
    let (x, tau, guarded) = reflector_head(akk, nrm, eps10);
    if guarded {
        // Negligible column: H = I. Leave the (≤ 10ε) tail in place as an
        // implied zero and record τ̂ = 0.
        regs.row_mut(tau_slot)[k] = R::ZERO;
        return;
    }
    let acc = tau_slot - 1;
    let (rows, rho) = regs.split_mut(0..acc, acc);
    let n = rho.len();
    let (head, tail) = rows.split_at_mut(tail_row * n);
    let tail = &mut tail[..v.len() * n];
    rho[k..ts].fill(R::ZERO);
    dot_lanes(rho, tail, v, k..ts);
    // ρ' = (τ̂ / x) · (R[k, i]·x + ρ); R[k, i] −= ρ'.
    let tx = tau / x;
    for (r, a) in rho[k..ts].iter_mut().zip(&mut head[k * n + k..k * n + ts]) {
        *r = tx * (*a * x + *r);
        *a -= *r;
    }
    // Lanes i > k update their column; lane k stores the normalised
    // reflector tail in place.
    sub_lanes(tail, rho, v.iter().map(|&vi| vi / x), k + 1..ts);
    for row in tail.chunks_exact_mut(n) {
        row[k] /= x;
    }
    regs.row_mut(tau_slot)[k] = tau;
}

/// In-register Householder QR of the `ts × ts` tile living at register
/// rows `[0, ts)` (Algorithm 3 proper). Shared layout: `[0..ts)` pivot
/// column, `[ts]` tail norm². τ̂ of column `i` is saved in lane `i` of
/// register row `tau_slot`.
fn geqrt_inplace<R: Real>(wg: &mut Workgroup<R>, ts: usize, eps10: R, tau_slot: usize) {
    for k in 0..ts - 1 {
        // Lane k publishes its column and the tail norm (Alg. 3 l. 6–7).
        wg.step_lanes(|regs, shared| {
            let mut nrm = R::ZERO;
            for (j, s) in shared[..ts].iter_mut().enumerate() {
                let a = regs.row(j)[k];
                *s = a;
                if j > k {
                    nrm += a * a;
                }
            }
            shared[ts] = nrm;
        });
        // Lanes i ≥ k apply the reflector to their column (l. 9–19).
        wg.step_lanes(|mut regs, shared| {
            let head = (shared[k], shared[ts], eps10);
            reflect_lanes(&mut regs, head, &shared[k + 1..ts], k + 1, k, ts, tau_slot);
        });
    }
}

/// In-register coupled QR of `[R_top; B]`: the triangular tile at register
/// rows `[0, ts)` and the square tile at `[ts, 2ts)` (TSQRT). Shared
/// layout: `[0..ts)` pivot bottom column, `[ts]` its norm², `[ts+1]`
/// `R[k,k]`.
fn tsqrt_inplace<R: Real>(wg: &mut Workgroup<R>, ts: usize, eps10: R, tau_slot: usize) {
    for k in 0..ts {
        wg.step_lanes(|regs, shared| {
            let mut nrm = R::ZERO;
            for (j, s) in shared[..ts].iter_mut().enumerate() {
                let b = regs.row(ts + j)[k];
                *s = b;
                nrm += b * b;
            }
            shared[ts] = nrm;
            shared[ts + 1] = regs.row(k)[k]; // R[k,k] lives in lane k
        });
        wg.step_lanes(|mut regs, shared| {
            let head = (shared[ts + 1], shared[ts], eps10);
            reflect_lanes(&mut regs, head, &shared[..ts], ts, k, ts, tau_slot);
        });
    }
}

/// `GEQRT`: factor tile `(tr, pc)` (the panel's top tile — the diagonal
/// tile for the RQ sweep); τ̂ goes to `tau[tr·ts ..]`.
pub fn geqrt<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    tr: usize,
    pc: usize,
) {
    let ts = p.tilesize;
    let spec = geqrt_spec(p, T::KIND);
    let eps10 = T::Accum::from_f64(10.0) * T::storage_eps();
    dev.launch::<T::Accum, _>(&spec, |wg| {
        let tau_slot = ts + 1;
        load_tile(wg, a, ts, tr, pc, 0);
        geqrt_inplace(wg, ts, eps10, tau_slot);
        store_tile(wg, a, ts, tr, pc, 0);
        store_tau(wg, tau, ts, tr * ts, tau_slot, true);
    });
}

/// `TSQRT`: couple triangular tile `(kt, pc)` with square tile `(lt, pc)`;
/// τ̂ goes to `tau[lt·ts ..]`.
pub fn tsqrt<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    kt: usize,
    pc: usize,
    lt: usize,
) {
    let ts = p.tilesize;
    let spec = tsqrt_spec(p, T::KIND);
    let eps10 = T::Accum::from_f64(10.0) * T::storage_eps();
    dev.launch::<T::Accum, _>(&spec, |wg| {
        let tau_slot = 2 * ts + 1;
        load_tile(wg, a, ts, kt, pc, 0);
        load_tile(wg, a, ts, lt, pc, ts);
        tsqrt_inplace(wg, ts, eps10, tau_slot);
        store_tile(wg, a, ts, kt, pc, 0);
        store_tile(wg, a, ts, lt, pc, ts);
        store_tau(wg, tau, ts, lt * ts, tau_slot, false);
    });
}

/// `FTSQRT`: fused panel factorisation of tile column `pc` with top tile
/// row `tr0` — a `GEQRT` on `(tr0, pc)` followed by a `TSQRT` against each
/// tile `(l, pc)`, `l ∈ (tr0, nbt)`, in **one** kernel launch. The top
/// tile stays in registers throughout (the Fig. 2 fusion).
pub fn ftsqrt<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    pc: usize,
    tr0: usize,
    nbt: usize,
) {
    assert!(tr0 < nbt && pc < nbt, "panel outside tile grid");
    let ts = p.tilesize;
    let nrows = nbt - tr0 - 1;
    let spec = ftsqrt_spec(p, T::KIND, nrows);
    let eps10 = T::Accum::from_f64(10.0) * T::storage_eps();
    dev.launch::<T::Accum, _>(&spec, |wg| {
        let tau_slot = 2 * ts + 1;
        load_tile(wg, a, ts, tr0, pc, 0);
        geqrt_inplace(wg, ts, eps10, tau_slot);
        store_tau(wg, tau, ts, tr0 * ts, tau_slot, true);
        for l in (tr0 + 1)..nbt {
            load_tile(wg, a, ts, l, pc, ts);
            tsqrt_inplace(wg, ts, eps10, tau_slot);
            store_tile(wg, a, ts, l, pc, ts);
            store_tau(wg, tau, ts, l * ts, tau_slot, false);
        }
        store_tile(wg, a, ts, tr0, pc, 0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_gpu::{hw::h100, Device};
    use unisvd_matrix::reference;
    use unisvd_matrix::Matrix;

    const TS: usize = 8;

    fn params() -> HyperParams {
        HyperParams::new(TS, TS, 1)
    }

    /// Rebuilds Q·R from the in-place factor format and compares to A.
    fn check_qr_reconstruction(orig: &Matrix<f64>, fact: &[f64], taus: &[f64], m_tiles: usize) {
        let m = m_tiles * TS;
        // R: upper triangle of the top tile, zero elsewhere.
        let mut r = Matrix::<f64>::zeros(m, TS);
        for j in 0..TS {
            for i in 0..=j {
                r[(i, j)] = fact[j * m + i];
            }
        }
        // Apply H_0 … H_{k} in forward order to R? Q = H_0 H_1 … H_last,
        // A = Q R, so apply reflectors in reverse order to R.
        let mut qa = r;
        // Reflector list: GEQRT k = 0..TS-1 (within-tile), then per tile
        // row l the TSQRT reflectors k = 0..TS (full column of tile l).
        // Reverse order: last tile row first, then GEQRT backwards.
        for l in (1..m_tiles).rev() {
            for k in (0..TS).rev() {
                let tau = taus[l * TS + k];
                if tau == 0.0 {
                    continue;
                }
                // v = e_k (top) + rows of tile l.
                let mut v = vec![0.0; m];
                v[k] = 1.0;
                for j in 0..TS {
                    v[l * TS + j] = fact[k * m + l * TS + j];
                }
                reflect(&mut qa, &v, tau);
            }
        }
        for k in (0..TS.saturating_sub(1)).rev() {
            let tau = taus[k];
            if tau == 0.0 {
                continue;
            }
            let mut v = vec![0.0; m];
            v[k] = 1.0;
            for j in (k + 1)..TS {
                v[j] = fact[k * m + j];
            }
            reflect(&mut qa, &v, tau);
        }
        assert!(
            reference::max_abs_diff(&qa, orig) < 1e-12,
            "Q·R reconstruction failed: err = {}",
            reference::max_abs_diff(&qa, orig)
        );
    }

    fn reflect(a: &mut Matrix<f64>, v: &[f64], tau: f64) {
        for c in 0..a.cols() {
            let mut s = 0.0;
            for i in 0..a.rows() {
                s += v[i] * a[(i, c)];
            }
            s *= tau;
            for i in 0..a.rows() {
                let val = a[(i, c)] - s * v[i];
                a[(i, c)] = val;
            }
        }
    }

    #[test]
    fn geqrt_produces_valid_qr() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let a0 = Matrix::<f64>::from_fn(TS, TS, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(TS);
        geqrt(&dev, DMat::new(&buf, TS), DVec::new(&tbuf), &params(), 0, 0);
        check_qr_reconstruction(&a0, &buf.to_vec(), &tbuf.to_vec(), 1);
    }

    #[test]
    fn geqrt_upper_triangle_is_r_like_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let a0 = Matrix::<f64>::from_fn(TS, TS, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(TS);
        geqrt(&dev, DMat::new(&buf, TS), DVec::new(&tbuf), &params(), 0, 0);
        // |R| must match the reference QR's |R| (signs are convention).
        let mut refqr = a0.clone();
        let _ = reference::householder_qr(&mut refqr);
        let fact = buf.to_vec();
        for j in 0..TS {
            for i in 0..=j {
                let got = fact[j * TS + i].abs();
                let want = refqr[(i, j)].abs();
                assert!(
                    (got - want).abs() < 1e-10,
                    "R[{i},{j}] |{got}| vs reference |{want}|"
                );
            }
        }
    }

    #[test]
    fn geqrt_handles_zero_tile() {
        let dev = Device::numeric(h100());
        let buf = dev.upload(&vec![0.0f64; TS * TS]);
        let tbuf = dev.alloc::<f64>(TS);
        geqrt(&dev, DMat::new(&buf, TS), DVec::new(&tbuf), &params(), 0, 0);
        let out = buf.to_vec();
        assert!(
            out.iter().all(|x| x.is_finite()),
            "zero tile must not produce NaN"
        );
    }

    #[test]
    fn geqrt_handles_rank_one_tile() {
        let a0 = Matrix::<f64>::from_fn(TS, TS, |i, j| ((i + 1) * (j + 1)) as f64 * 0.01);
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(TS);
        geqrt(&dev, DMat::new(&buf, TS), DVec::new(&tbuf), &params(), 0, 0);
        let fact = buf.to_vec();
        assert!(fact.iter().all(|x| x.is_finite()));
        check_qr_reconstruction(&a0, &fact, &tbuf.to_vec(), 1);
    }

    #[test]
    fn ftsqrt_factors_two_tile_panel() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let m = 2 * TS;
        // Build an m×m matrix; the panel is its first tile column.
        let a0 = Matrix::<f64>::from_fn(m, m, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(2 * TS);
        ftsqrt(
            &dev,
            DMat::new(&buf, m),
            DVec::new(&tbuf),
            &params(),
            0,
            0,
            2,
        );
        // Extract the factored panel (first TS columns).
        let fact = buf.to_vec();
        let panel: Vec<f64> = fact[..TS * m].to_vec();
        let orig_panel = Matrix::<f64>::from_fn(m, TS, |i, j| a0[(i, j)]);
        check_qr_reconstruction(&orig_panel, &panel, &tbuf.to_vec(), 2);
    }

    #[test]
    fn ftsqrt_on_lazy_transpose_gives_lq_of_original() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let a0 = Matrix::<f64>::from_fn(TS, TS, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(TS);
        let a = DMat::new(&buf, TS);
        // QR of Aᵀ: L = Rᵀ should be lower triangular with |L| matching
        // the reference QR of the (host-) transposed matrix.
        geqrt(&dev, a.t(), DVec::new(&tbuf), &params(), 0, 0);
        let mut refqr = a0.transposed();
        let _ = reference::householder_qr(&mut refqr);
        for j in 0..TS {
            for i in 0..=j {
                // (i,j) of the transposed factorisation = (j,i) in storage.
                let got = buf.read(i * TS + j).abs();
                let want = refqr[(i, j)].abs();
                assert!((got - want).abs() < 1e-10, "Lᵀ[{i},{j}] mismatch");
            }
        }
    }

    #[test]
    fn reflector_head_guard_activates_on_tiny_input() {
        let eps10 = 10.0 * f64::EPSILON;
        let (_, tau, guarded) = reflector_head(0.0f64, 0.0, eps10);
        assert!(guarded);
        assert_eq!(tau, 0.0, "guarded reflector is the identity (τ̂ = 0)");
        // Tiny-but-nonzero column also guards (the case the paper's τ̂=2
        // rescue would make non-orthogonal).
        let tiny = f64::EPSILON;
        let (_, tau_t, guarded_t) = reflector_head(tiny, tiny * tiny, eps10);
        assert!(guarded_t);
        assert_eq!(tau_t, 0.0);
        let (_, tau2, guarded2) = reflector_head(3.0f64, 16.0, eps10);
        assert!(!guarded2);
        assert!((tau2 - 1.6).abs() < 1e-15); // worked example: x=8, τ̂=1.6
    }
}
