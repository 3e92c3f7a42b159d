//! Trailing-submatrix update kernels: `UNMQR` (Algorithm 4), `TSMQR`, and
//! the fused `FTSMQR` (Algorithm 5 / Fig. 2) that applies a whole panel's
//! reflectors in one launch, keeping the top row tile in registers.
//!
//! Launch geometry: `ncols / COLPERBLOCK` workgroups of `COLPERBLOCK`
//! threads; lane `i` of group `g` owns one matrix column. The Householder
//! column `Ak` and the τ̂ vector are cooperatively staged through shared
//! memory, with a barrier between the load and the apply — the
//! `@synchronize` of Algorithm 5 line 24. Each apply is one lane-wide
//! superstep: every register row is updated across all lanes at once,
//! lane index innermost, so the per-column dot products of a block run
//! side by side instead of one serial add chain per column.

use crate::cost::{ftsmqr_spec, tsmqr_spec, unmqr_spec};
use crate::lanes::{dot_lanes, sub_lanes};
use crate::layout::{DMat, DVec};
use crate::params::HyperParams;
use unisvd_gpu::{Device, Workgroup};
use unisvd_scalar::{Real, Scalar};

/// Register layout: `Yi` (top-row column) at rows `[0, ts)`, `Xi`
/// (current-row column) at `[ts, 2ts)`, and the per-lane reflector
/// accumulator (`ρ`/`Xik`) in the last row, which every update launch
/// leaves spare (`ts + 2` or `2ts + 2` registers per thread). Shared:
/// `Ak` at `[0, ts)`, `τ̂` at `[ts, 2ts)`.
struct Layout {
    ts: usize,
}

impl Layout {
    const YI: usize = 0;
    fn xi(&self) -> usize {
        self.ts
    }
}

/// Cooperative load of τ̂ row `lt` into shared `[ts, 2ts)`.
///
/// On real hardware each thread loads a strided share; the τ̂ vector is
/// contiguous, so the strided loop degenerates to one slice copy the
/// whole workgroup performs collectively (one superstep, same values, no
/// per-element indexing).
fn coop_load_tau<T: Scalar>(wg: &mut Workgroup<T::Accum>, tau: DVec<'_, T>, ts: usize, lt: usize) {
    wg.step_lanes(|_, shared| {
        tau.read_range(lt * ts, &mut shared[ts..2 * ts]);
    });
}

/// Cooperative load of Householder column `k` of tile `(lt, pc)` into
/// shared `[0, ts)` — like [`coop_load_tau`], the strided per-thread
/// share pattern covers exactly one tile column, which
/// [`DMat::read_col`] copies as a contiguous slice on untransposed views
/// (element loop on transposed ones).
fn coop_load_v<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    ts: usize,
    lt: usize,
    pc: usize,
    k: usize,
) {
    wg.step_lanes(|_, shared| {
        a.read_col(lt * ts, pc * ts + k, &mut shared[..ts]);
    });
}

/// Applies the within-tile (`GEQRT`) reflectors of tile `(tr0, pc)` to the
/// `Yi` registers — the `UNMQR` inner loop of Algorithm 4.
fn apply_diag_reflectors<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    ts: usize,
    tr0: usize,
    pc: usize,
) {
    coop_load_tau(wg, tau, ts, tr0);
    for k in 0..ts - 1 {
        coop_load_v(wg, a, ts, tr0, pc, k);
        wg.step_lanes(|mut regs, shared| {
            // ρ = τ̂[k] · (Yi[k] + Σ_{j>k} v̂[j]·Yi[j]); v̂[k] = 1 implicit.
            let acc = regs.rows() - 1;
            let (yi, rho) = regs.split_mut(Layout::YI..Layout::YI + ts, acc);
            let n = rho.len();
            let (head, tail) = yi.split_at_mut((k + 1) * n);
            let yk = &mut head[k * n..];
            let v = &shared[k + 1..ts];
            rho.copy_from_slice(yk);
            dot_lanes(rho, tail, v, 0..n);
            let tau = shared[ts + k];
            for (r, y) in rho.iter_mut().zip(yk) {
                *r *= tau;
                *y -= *r;
            }
            sub_lanes(tail, rho, v.iter().copied(), 0..n);
        });
    }
}

/// Applies the coupled (`TSQRT`) reflectors of tile `(lt, pc)` to the
/// `(Yi, Xi)` register pair — the inner loop of Algorithm 5 lines 20–34.
fn apply_coupled_reflectors<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    ts: usize,
    lt: usize,
    pc: usize,
) {
    let xi = Layout { ts }.xi();
    for k in 0..ts {
        coop_load_v(wg, a, ts, lt, pc, k);
        wg.step_lanes(|mut regs, shared| {
            let acc = regs.rows() - 1;
            let (yx, xik) = regs.split_mut(Layout::YI..xi + ts, acc);
            let n = xik.len();
            let (y, x) = yx.split_at_mut((xi - Layout::YI) * n);
            let v = &shared[..ts];
            // Xik = Σ_j Ak[j]·Xi[j] (Alg. 5 l. 26–28).
            xik.fill(T::Accum::ZERO);
            dot_lanes(xik, x, v, 0..n);
            // Xik = (Xik + Yi[k]) · τ̂[k] (l. 29).
            let tau = shared[ts + k];
            for (r, y) in xik.iter_mut().zip(&mut y[k * n..(k + 1) * n]) {
                *r = (*r + *y) * tau;
                *y -= *r;
            }
            sub_lanes(x, xik, v.iter().copied(), 0..n);
        });
    }
}

/// Loads rows `[row0, row0+ts)` of the lanes' columns `col0 ..` into
/// register rows `reg_off ..` — register row `j` is one matrix row
/// segment ([`DMat::read_row`]).
fn load_col<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    ts: usize,
    col0: usize,
    row0: usize,
    reg_off: usize,
) {
    wg.step_lanes(|mut regs, _| {
        for j in 0..ts {
            a.read_row(row0 + j, col0, regs.row_mut(reg_off + j));
        }
    });
}

/// Stores register rows `reg_off ..` back to rows `[row0, row0+ts)` of
/// the lanes' columns `col0 ..`.
fn store_col<T: Scalar>(
    wg: &mut Workgroup<T::Accum>,
    a: DMat<'_, T>,
    ts: usize,
    col0: usize,
    row0: usize,
    reg_off: usize,
) {
    wg.step_lanes(|regs, _| {
        for j in 0..ts {
            a.write_row(row0 + j, col0, regs.row(reg_off + j));
        }
    });
}

/// `UNMQR`: applies the diagonal-tile reflectors of panel `(tr0, pc)` to
/// the `ncols` columns starting at `col0` of tile row `tr0`.
#[allow(clippy::too_many_arguments)] // LAPACK-style kernel signature
pub fn unmqr<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    pc: usize,
    tr0: usize,
    col0: usize,
    ncols: usize,
) {
    let ts = p.tilesize;
    let cpb = p.colperblock;
    let spec = unmqr_spec(p, T::KIND, ncols);
    dev.launch::<T::Accum, _>(&spec, |wg| {
        let g = wg.group_id();
        let base = col0 + g * cpb;
        load_col(wg, a, ts, base, tr0 * ts, Layout::YI);
        apply_diag_reflectors(wg, a, tau, ts, tr0, pc);
        store_col(wg, a, ts, base, tr0 * ts, Layout::YI);
    });
}

/// `TSMQR` (unfused): applies the coupled reflectors of tile `(lt, pc)` to
/// the column group of rows `tr0` (top) and `lt`.
#[allow(clippy::too_many_arguments)] // LAPACK-style kernel signature
pub fn tsmqr<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    pc: usize,
    tr0: usize,
    lt: usize,
    col0: usize,
    ncols: usize,
) {
    let ts = p.tilesize;
    let cpb = p.colperblock;
    let spec = tsmqr_spec(p, T::KIND, ncols);
    dev.launch::<T::Accum, _>(&spec, |wg| {
        let lay = Layout { ts };
        let g = wg.group_id();
        let base = col0 + g * cpb;
        load_col(wg, a, ts, base, tr0 * ts, Layout::YI);
        load_col(wg, a, ts, base, lt * ts, lay.xi());
        coop_load_tau(wg, tau, ts, lt);
        apply_coupled_reflectors(wg, a, ts, lt, pc);
        store_col(wg, a, ts, base, lt * ts, lay.xi());
        store_col(wg, a, ts, base, tr0 * ts, Layout::YI);
    });
}

/// `FTSMQR`: fused trailing update of panel `(pc, tr0)` — `UNMQR` on the
/// top row then the coupled update against every tile row `l ∈ (tr0, nbt)`
/// in **one** launch (Algorithm 5). Columns covered: tiles `pc+1 .. nbt`.
pub fn ftsmqr<T: Scalar>(
    dev: &Device,
    a: DMat<'_, T>,
    tau: DVec<'_, T>,
    p: &HyperParams,
    pc: usize,
    tr0: usize,
    nbt: usize,
) {
    let ts = p.tilesize;
    let cpb = p.colperblock;
    let col0 = (pc + 1) * ts;
    let ncols = (nbt - pc - 1) * ts;
    if ncols == 0 {
        return;
    }
    let nrows = nbt - tr0 - 1;
    let spec = ftsmqr_spec(p, T::KIND, ncols, nrows);
    dev.launch::<T::Accum, _>(&spec, |wg| {
        let lay = Layout { ts };
        let g = wg.group_id();
        let base = col0 + g * cpb;
        load_col(wg, a, ts, base, tr0 * ts, Layout::YI);
        apply_diag_reflectors(wg, a, tau, ts, tr0, pc);
        for l in (tr0 + 1)..nbt {
            load_col(wg, a, ts, base, l * ts, lay.xi());
            coop_load_tau(wg, tau, ts, l);
            apply_coupled_reflectors(wg, a, ts, l, pc);
            store_col(wg, a, ts, base, l * ts, lay.xi());
        }
        store_col(wg, a, ts, base, tr0 * ts, Layout::YI);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::{ftsqrt, geqrt, tsqrt};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::{hw::h100, Device};
    use unisvd_matrix::{reference, Matrix};

    const TS: usize = 8;

    fn params() -> HyperParams {
        HyperParams::new(TS, 4, 1)
    }

    /// Full-matrix oracle: factor the panel with the reference Householder
    /// QR of the panel columns and apply Qᵀ to the trailing columns; then
    /// compare against geqrt/ftsqrt + unmqr/ftsmqr.
    fn oracle_qt_apply(a0: &Matrix<f64>, panel_cols: usize) -> Matrix<f64> {
        let m = a0.rows();
        let mut qr = Matrix::<f64>::from_fn(m, panel_cols, |i, j| a0[(i, j)]);
        let tau = reference::householder_qr(&mut qr);
        let q = reference::form_q(&qr, &tau);
        // Qᵀ · A (entire matrix).
        let mut out = Matrix::<f64>::zeros(m, a0.cols());
        reference::gemm(1.0, &q, true, a0, false, 0.0, &mut out);
        out
    }

    #[test]
    fn geqrt_plus_unmqr_equals_reference_qt_apply() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 2 * TS;
        let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        // Zero out rows below the first tile in the panel column so the
        // oracle's panel equals the tile (GEQRT factors one tile only).
        let mut a0 = a0;
        for i in TS..n {
            for j in 0..TS {
                a0[(i, j)] = 0.0;
            }
        }
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(n);
        let a = DMat::new(&buf, n);
        let t = DVec::new(&tbuf);
        let p = params();
        geqrt(&dev, a, t, &p, 0, 0);
        unmqr(&dev, a, t, &p, 0, 0, TS, TS);
        let want = oracle_qt_apply(&a0, TS);
        let got = buf.to_vec();
        // Compare the updated trailing block (rows 0..TS, cols TS..2TS):
        // reflectors only touch rows 0..TS.
        for j in TS..n {
            for i in 0..TS {
                let g = got[j * n + i];
                let w = want[(i, j)];
                assert!(
                    (g - w).abs() < 1e-10,
                    "trailing ({i},{j}): kernel {g} vs oracle {w}"
                );
            }
        }
    }

    #[test]
    fn fused_panel_and_update_match_reference_two_tiles() {
        // The tile algorithm's Q differs from the reference QR's Q by an
        // orthogonal factor on the annihilated rows, so entrywise
        // comparison of the trailing block is ill-defined. Instead check
        // the well-defined invariants:
        //  (1) |R| of the panel matches the reference QR's |R|;
        //  (2) the *implied* updated matrix (R in the panel, zeros below,
        //      stored trailing block) has the same column Gram matrix as
        //      the input — i.e. the applied transform was orthogonal and
        //      panel + trailing were updated consistently.
        let mut rng = StdRng::seed_from_u64(23);
        let n = 2 * TS;
        let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tbuf = dev.alloc::<f64>(n);
        let a = DMat::new(&buf, n);
        let t = DVec::new(&tbuf);
        let p = params();
        ftsqrt(&dev, a, t, &p, 0, 0, 2);
        ftsmqr(&dev, a, t, &p, 0, 0, 2);
        let got = buf.to_vec();

        // (1) |R| against the reference QR of the full 2-tile panel.
        let want = oracle_qt_apply(&a0, TS);
        for j in 0..TS {
            for i in 0..=j {
                let g = got[j * n + i].abs();
                let w = want[(i, j)].abs();
                assert!((g - w).abs() < 1e-9, "panel R ({i},{j}): |{g}| vs |{w}|");
            }
        }

        // (2) Gram invariance of the implied updated matrix.
        let implied = Matrix::<f64>::from_fn(n, n, |i, j| {
            if j < TS && i > j {
                0.0 // below-diagonal panel entries store v̂, implied zero
            } else {
                got[j * n + i]
            }
        });
        let mut g_in = Matrix::<f64>::zeros(n, n);
        let mut g_out = Matrix::<f64>::zeros(n, n);
        reference::gemm(1.0, &a0, true, &a0, false, 0.0, &mut g_in);
        reference::gemm(1.0, &implied, true, &implied, false, 0.0, &mut g_out);
        let err = reference::max_abs_diff(&g_in, &g_out);
        assert!(err < 1e-10, "column Gram not preserved: {err}");
    }

    #[test]
    fn unfused_equals_fused() {
        let mut rng = StdRng::seed_from_u64(29);
        let n = 3 * TS;
        let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let p = params();
        let dev = Device::numeric(h100());

        // Fused path.
        let b1 = dev.upload(a0.as_slice());
        let t1 = dev.alloc::<f64>(n);
        ftsqrt(&dev, DMat::new(&b1, n), DVec::new(&t1), &p, 0, 0, 3);
        ftsmqr(&dev, DMat::new(&b1, n), DVec::new(&t1), &p, 0, 0, 3);

        // Unfused path: GEQRT, UNMQR, then per-row TSQRT + TSMQR.
        let b2 = dev.upload(a0.as_slice());
        let t2 = dev.alloc::<f64>(n);
        let a2 = DMat::new(&b2, n);
        let tv2 = DVec::new(&t2);
        geqrt(&dev, a2, tv2, &p, 0, 0);
        unmqr(&dev, a2, tv2, &p, 0, 0, TS, 2 * TS);
        for l in 1..3 {
            tsqrt(&dev, a2, tv2, &p, 0, 0, l);
            tsmqr(&dev, a2, tv2, &p, 0, 0, l, TS, 2 * TS);
        }

        let v1 = b1.to_vec();
        let v2 = b2.to_vec();
        for i in 0..v1.len() {
            assert!(
                (v1[i] - v2[i]).abs() < 1e-12,
                "fused/unfused divergence at {i}: {} vs {}",
                v1[i],
                v2[i]
            );
        }
    }

    #[test]
    fn fused_uses_fewer_launches() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4 * TS;
        let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let p = params();
        let dev = Device::numeric(h100());
        let b = dev.upload(a0.as_slice());
        let t = dev.alloc::<f64>(n);
        ftsqrt(&dev, DMat::new(&b, n), DVec::new(&t), &p, 0, 0, 4);
        ftsmqr(&dev, DMat::new(&b, n), DVec::new(&t), &p, 0, 0, 4);
        let fused_launches = dev.summary().total_launches();
        assert_eq!(fused_launches, 2, "fused panel = exactly two launches");
    }

    #[test]
    fn f32_precision_runs_and_stays_finite() {
        let mut rng = StdRng::seed_from_u64(41);
        let n = 2 * TS;
        let a0 = Matrix::<f32>::from_fn(n, n, |_, _| rng.gen_range(-1.0f32..1.0));
        let dev = Device::numeric(h100());
        let b = dev.upload(a0.as_slice());
        let t = dev.alloc::<f32>(n);
        let p = params();
        ftsqrt(&dev, DMat::new(&b, n), DVec::new(&t), &p, 0, 0, 2);
        ftsmqr(&dev, DMat::new(&b, n), DVec::new(&t), &p, 0, 0, 2);
        assert!(b.to_vec().iter().all(|x| x.is_finite()));
    }
}
