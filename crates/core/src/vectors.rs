//! Singular-vector accumulation by **log-and-reverse-replay**.
//!
//! The values pipeline reduces `A → band → bidiagonal → Σ` through three
//! stages. To produce vectors without touching the values path (whose
//! results must stay bit-identical), stages 1 and 2 *record* their
//! orthogonal transforms as they run:
//!
//! * stage 1 snapshots every factored panel (the parked Householder
//!   tails plus their τ̂, which later sweeps overwrite) — one
//!   [`SweepLog`] per `GETSMQRT`;
//! * stage 2 fills one preallocated slot per Householder reflector of the
//!   bulge chase (τ and tail; a skipped reflector keeps τ = 0).
//!
//! Stage 3 records nothing. After it has computed the values, the
//! leading `k` singular triplets of the bidiagonal come from inverse
//! iteration on its Golub–Kahan tridiagonal ([`BidiagVectors`]), and
//! their `u` and `v` halves seed `padded × k` k-contiguous accumulators
//! (one row of `k` entries per padded row, so each replayed transform
//! streams whole rows). The stage-2 and stage-1 logs are then replayed
//! **in reverse** through [`unisvd_kernels::reflector_apply`]. Every
//! replayed operation costs `O(k)`, so a truncated top-k solve
//! accumulates at `k/min(m,n)` of the thin cost — the economics the
//! `fig_truncated` bench gates.
//!
//! A reflector is symmetric, so the left and right reflectors enter `U`
//! and `V` as they are. Cross-side ordering is immaterial (left and right
//! factors commute across sides); within a side, one reverse pass over
//! each log preserves the required order.
//!
//! Everything here is sequential host code — accumulated vectors are
//! bit-identical for any thread count, like the values.

use crate::band2bi::for_each_hop;
use crate::bidiag_vectors::BidiagVectors;
use unisvd_gpu::GlobalBuffer;
use unisvd_kernels::{reflector_apply, DMat};
use unisvd_matrix::Bidiagonal;
use unisvd_scalar::{Real, Scalar};

/// One logged stage-2 reflector `H = I − τ·v·vᵀ`, `v = [1, tail]` with
/// its unit head at row `head` (left, into `U`) or column `head` (right,
/// into `V`) and its tail on the `len` indices after it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stage2Refl {
    pub left: bool,
    pub head: usize,
    /// Start of the tail in [`Stage2Log::tails`].
    pub off: usize,
    pub len: usize,
    /// `0` for a reflector the chase skipped (an exact-zero tail).
    pub tau: f64,
}

/// The stage-2 reflector record: one slot per reflector of the chase, in
/// the order it applies them (right then left for each hop of
/// [`for_each_hop`]). That order and every slot's position depend only
/// on `(n, b)`, so like [`Stage1Log`] the log is laid out once at
/// workspace-build time and each solve only refills it.
#[derive(Debug, Default)]
pub(crate) struct Stage2Log {
    pub refl: Vec<Stage2Refl>,
    /// Every reflector's tail, back to back.
    pub tails: Vec<f64>,
}

impl Stage2Log {
    /// Lays out the log of the chase of an order-`n` band of bandwidth `b`.
    pub fn new(n: usize, b: usize) -> Self {
        let mut log = Stage2Log::default();
        for_each_hop(n, b, |_, c0, c1| {
            for left in [false, true] {
                let len = c1 - c0;
                log.refl.push(Stage2Refl {
                    left,
                    head: c0,
                    off: log.tails.len(),
                    len,
                    tau: 0.0,
                });
                log.tails.resize(log.tails.len() + len, 0.0);
            }
        });
        log
    }

    /// Fills slot `idx` with `τ` and the reflector's tail.
    pub fn record<R: Real>(&mut self, idx: usize, tau: R, tail: impl Iterator<Item = R>) {
        let r = &mut self.refl[idx];
        r.tau = tau.to_f64();
        let dst = &mut self.tails[r.off..r.off + r.len];
        for (d, x) in dst.iter_mut().zip(tail) {
            *d = x.to_f64();
        }
    }

    /// Replays the reflectors newest first: `U` and `V` collect the left
    /// and right products in the order the chase applied them.
    pub fn replay(&self, wu: &mut [f64], wv: &mut [f64], k: usize, dot: &mut [f64]) {
        for r in self.refl.iter().rev() {
            if r.tau == 0.0 {
                continue;
            }
            let w = if r.left { &mut *wu } else { &mut *wv };
            let tail = &self.tails[r.off..r.off + r.len];
            reflector_apply(w, k, dot, r.head, r.head + 1, tail, r.tau);
        }
    }
}

/// Snapshot of one stage-1 panel sweep: the factored panel (R/L plus
/// parked normalised Householder tails) and its τ̂ run, copied right
/// after the sweep's `GETSMQRT` because later sweeps reuse the τ̂
/// storage. `left` sweeps (the RQ side and the final diagonal `GEQRT`)
/// replay into `U`; right sweeps (the LQ side, recorded through the
/// lazy-transposed view) replay into `V`.
#[derive(Debug)]
pub(crate) struct SweepLog {
    pub left: bool,
    /// Top tile row of the panel in the sweep's view frame.
    pub tr0: usize,
    /// Tile column of the panel in the sweep's view frame (`tr0` for RQ
    /// and the final `GEQRT`, `tr0 − 1` for the LQ sweeps, whose panel
    /// sits one tile right of the diagonal in the transposed view).
    pub pc: usize,
    /// Tiles in the panel (`nbt − tr0`).
    pub ntiles: usize,
    /// Column-major `(ntiles·ts) × ts` copy of the factored panel.
    pub panel: Vec<f64>,
    /// τ̂ of every reflector in the panel (`ntiles·ts` entries; the
    /// `GEQRT` tile's last slot is zero by construction).
    pub taus: Vec<f64>,
}

/// The full stage-1 transform record. The sweep *structure* depends only
/// on the padded size and tile size — never on data — so the log is
/// fully pre-allocated at workspace-build time and merely refilled per
/// solve: the warm path performs no allocation.
#[derive(Debug, Default)]
pub(crate) struct Stage1Log {
    pub ts: usize,
    pub sweeps: Vec<SweepLog>,
}

impl Stage1Log {
    /// Pre-builds the sweep skeleton for a `padded`-edge problem:
    /// `[RQ(k), LQ(k)]` for each diagonal tile `k`, then the final
    /// diagonal `GEQRT` — mirroring `band_diag`'s loop exactly.
    pub fn new(padded: usize, ts: usize) -> Self {
        let nbt = padded / ts.max(1);
        let mut sweeps = Vec::new();
        let mut push = |left: bool, tr0: usize, pc: usize| {
            let ntiles = nbt - tr0;
            sweeps.push(SweepLog {
                left,
                tr0,
                pc,
                ntiles,
                panel: vec![0.0; ntiles * ts * ts],
                taus: vec![0.0; ntiles * ts],
            });
        };
        for k in 0..nbt.saturating_sub(1) {
            push(true, k, k); // RQ sweep on A
            push(false, k + 1, k); // LQ sweep on Aᵀ
        }
        if nbt > 0 {
            push(true, nbt - 1, nbt - 1); // final diagonal GEQRT
        }
        Stage1Log { ts, sweeps }
    }

    /// Copies sweep `idx`'s factored panel and τ̂ run out of device
    /// storage (element reads through the sweep's own view, so the LQ
    /// side's lazy transpose is handled by the same indexing the kernels
    /// used).
    pub fn snapshot<T: Scalar>(&mut self, idx: usize, view: DMat<'_, T>, tau: &GlobalBuffer<T>) {
        let ts = self.ts;
        let sweep = &mut self.sweeps[idx];
        let h = sweep.ntiles * ts;
        let r0 = sweep.tr0 * ts;
        let c0 = sweep.pc * ts;
        for j in 0..ts {
            for r in 0..h {
                sweep.panel[j * h + r] = view.read(r0 + r, c0 + j).to_f64();
            }
        }
        for i in 0..h {
            sweep.taus[i] = tau.read(r0 + i).to_f64();
        }
    }

    /// Replays sweep reflectors onto `w` in reverse generation order
    /// (`TSQRT` tiles bottom-up, each tile's reflectors backwards, then
    /// the `GEQRT` reflectors backwards) — the order that applies the
    /// sweep's `Q` (not `Qᵀ`) to the accumulator, pinned by the panel
    /// kernels' own QR-reconstruction test.
    fn replay_sweep(sweep: &SweepLog, ts: usize, w: &mut [f64], k: usize, dot: &mut [f64]) {
        let h = sweep.ntiles * ts;
        let r0 = sweep.tr0 * ts;
        for lt in (1..sweep.ntiles).rev() {
            for kk in (0..ts).rev() {
                let tau = sweep.taus[lt * ts + kk];
                if tau == 0.0 {
                    continue;
                }
                let col = &sweep.panel[kk * h + lt * ts..kk * h + (lt + 1) * ts];
                reflector_apply(w, k, dot, r0 + kk, r0 + lt * ts, col, tau);
            }
        }
        for kk in (0..ts).rev() {
            let tau = sweep.taus[kk];
            if tau == 0.0 {
                continue;
            }
            let col = &sweep.panel[kk * h + kk + 1..kk * h + ts];
            reflector_apply(w, k, dot, r0 + kk, r0 + kk + 1, col, tau);
        }
    }
}

/// Per-plan vector workspace: every log, the inverse-iteration
/// workspace and the accumulators the vector path touches, owned by
/// `PipelineScratch` so a warm `execute_into` with vectors allocates
/// nothing.
#[derive(Debug)]
pub(crate) struct VectorScratch {
    /// Accumulated columns (`Want::columns` of the planned shape).
    pub k: usize,
    /// Whether the values list is truncated to `k` too (`Want::TopK`).
    pub topk: bool,
    pub s1: Stage1Log,
    pub s2: Stage2Log,
    /// Triplets of the bidiagonal, computed after stage 3.
    pub bv: BidiagVectors,
    /// Left accumulator, `padded × k` row-major: row `r` is
    /// `wu[r*k .. (r+1)*k]`, so a replayed transform's operands are
    /// contiguous.
    pub wu: Vec<f64>,
    /// Right accumulator, `padded × k` row-major like `wu`.
    pub wv: Vec<f64>,
    /// `k`-entry row scratch of [`reflector_apply`].
    pub dot: Vec<f64>,
}

impl VectorScratch {
    /// Builds the workspace for `k` columns of a `padded`-edge problem
    /// whose real `mr × nr` block sits at the top left (the rest is
    /// padding). `numeric` sizes the logs, the inverse-iteration
    /// workspace and the accumulators; a cost replay keeps them empty
    /// (the scratch then only drives cost accounting).
    pub fn new(
        k: usize,
        topk: bool,
        padded: usize,
        ts: usize,
        (mr, nr): (usize, usize),
        numeric: bool,
    ) -> Self {
        if !numeric {
            return VectorScratch {
                k,
                topk,
                s1: Stage1Log::default(),
                s2: Stage2Log::default(),
                bv: BidiagVectors::new(0, 0, 0),
                wu: Vec::new(),
                wv: Vec::new(),
                dot: Vec::new(),
            };
        }
        VectorScratch {
            k,
            topk,
            s1: Stage1Log::new(padded, ts),
            s2: Stage2Log::new(padded, ts),
            bv: BidiagVectors::new(k, mr, nr),
            wu: vec![0.0; padded * k],
            wv: vec![0.0; padded * k],
            dot: vec![0.0; k],
        }
    }

    /// Seeds the accumulators with the leading `k` triplets of the
    /// bidiagonal `bi` (`values`: its singular values, descending, at
    /// least `k` of them) and reverse-replays the stage-2 and stage-1
    /// logs into them.
    pub fn solve_and_replay<A: Real>(&mut self, bi: &Bidiagonal<A>, values: &[A]) {
        let k = self.k;
        self.wu.fill(0.0);
        self.wv.fill(0.0);
        self.bv
            .solve(&bi.d, &bi.e, &values[..k], &mut self.wu, &mut self.wv);
        // Newest transform first. One pass per log: within a side the
        // reverse order is exact, across sides the factors commute.
        self.s2.replay(&mut self.wu, &mut self.wv, k, &mut self.dot);
        for sweep in self.s1.sweeps.iter().rev() {
            let w = if sweep.left {
                &mut self.wu
            } else {
                &mut self.wv
            };
            Stage1Log::replay_sweep(sweep, self.s1.ts, w, k, &mut self.dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band2bi::{band_to_bidiagonal_into_ext, work_band_geometry};
    use crate::bidiag_svd::bdsqr;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::{hw::h100, Device};
    use unisvd_matrix::BandMatrix;

    /// ‖M − U·diag(σ)·Vᵀ‖_max for `n × n` `get`-addressable M.
    fn recon_err(
        get: &dyn Fn(usize, usize) -> f64,
        n: usize,
        vac: &VectorScratch,
        values: &[f64],
    ) -> f64 {
        let k = vac.k;
        let mut worst: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for (c, &v) in values.iter().enumerate().take(k) {
                    acc += vac.wu[i * k + c] * v * vac.wv[j * k + c];
                }
                worst = worst.max((get(i, j) - acc).abs());
            }
        }
        worst
    }

    fn ortho_err(w: &[f64], n: usize, k: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for a in 0..k {
            for b in 0..k {
                let dot: f64 = (0..n).map(|i| w[i * k + a] * w[i * k + b]).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                worst = worst.max((dot - want).abs());
            }
        }
        worst
    }

    /// Bidiagonal isolation: the triplets of a random bidiagonal, with no
    /// stage-1/2 transforms to replay, must reconstruct it.
    #[test]
    fn bidiagonal_triplets_reconstruct_bidiagonal() {
        let n = 12;
        let mut rng = StdRng::seed_from_u64(42);
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..2.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bi = Bidiagonal {
            d: d.clone(),
            e: e.clone(),
        };
        let values = bdsqr(&bi).unwrap();
        let mut vac = VectorScratch::new(n, false, n, 4, (n, n), true);
        vac.s1 = Stage1Log::default(); // no stage-1/2 transforms here
        vac.s2 = Stage2Log::default();
        vac.solve_and_replay(&bi, &values);
        assert!(ortho_err(&vac.wu, n, n) < 1e-13, "U orthogonality");
        assert!(ortho_err(&vac.wv, n, n) < 1e-13, "V orthogonality");
        let get = |i: usize, j: usize| -> f64 {
            if i == j {
                d[i]
            } else if j == i + 1 {
                e[i]
            } else {
                0.0
            }
        };
        let err = recon_err(&get, n, &vac, &values);
        assert!(err < 1e-13, "B − UΣVᵀ max err {err}");
    }

    /// Stage-2 isolation: chase a random band matrix to bidiagonal with
    /// logging, take the bidiagonal's triplets, replay the stage-2 log —
    /// must reconstruct the band matrix.
    #[test]
    fn stage2_log_replay_reconstructs_band() {
        let n = 16;
        let ts = 4;
        let mut rng = StdRng::seed_from_u64(7);
        let (sub, sup) = work_band_geometry(n, ts);
        let mut band = BandMatrix::<f64>::zeros(n, sub, sup);
        band.refill_from_dense(|i, j| {
            if j >= i && j <= i + ts {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let orig: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| band.get(i, j)).collect())
            .collect();
        let dev = Device::numeric(h100());
        let mut bi = Bidiagonal {
            d: Vec::new(),
            e: Vec::new(),
        };
        let mut vac = VectorScratch::new(n, false, n, ts, (n, n), true);
        vac.s1 = Stage1Log::default();
        band_to_bidiagonal_into_ext(
            &dev,
            &mut band,
            ts,
            unisvd_scalar::PrecisionKind::Fp64,
            ts,
            &mut bi,
            Some(&mut vac.s2),
        );
        let values = bdsqr(&bi).unwrap();
        vac.solve_and_replay(&bi, &values);
        assert!(ortho_err(&vac.wu, n, n) < 1e-13);
        assert!(ortho_err(&vac.wv, n, n) < 1e-13);
        let get = |i: usize, j: usize| orig[i][j];
        let err = recon_err(&get, n, &vac, &values);
        assert!(err < 1e-12, "band − UΣVᵀ max err {err}");
    }
}
