//! Singular-vector accumulation by **log-and-reverse-replay**.
//!
//! The values pipeline reduces `A → band → bidiagonal → Σ` through three
//! stages. To produce vectors without touching the values path (whose
//! results must stay bit-identical), stages 1 and 2 append every
//! Householder reflector they apply to one [`ReflectorLog`], in the order
//! they apply them:
//!
//! * stage 1, right after each `GETSMQRT` sweep (before the next sweep
//!   reuses the τ̂ slots), appends the sweep's `GEQRT` reflectors, then
//!   each `TSQRT` tile's;
//! * stage 2 appends each bulge-chase hop's right reflector, then its
//!   left one.
//!
//! Stage 3 records nothing. After it has computed the values, the
//! leading `k` singular triplets of the bidiagonal come from inverse
//! iteration on its Golub–Kahan tridiagonal ([`BidiagVectors`]), and
//! their `u` and `v` halves seed `padded × k` k-contiguous accumulators
//! (one row of `k` entries per padded row, so each replayed transform
//! streams whole rows). The log is then replayed **newest first** through
//! [`unisvd_kernels::reflector_apply`]. Every replayed operation costs
//! `O(k)`, so a truncated top-k solve accumulates at `k/min(m,n)` of the
//! thin cost — the economics the `fig_truncated` bench gates.
//!
//! A reflector is symmetric, so the left and right reflectors enter `U`
//! and `V` as they are. Cross-side ordering is immaterial (left and right
//! factors commute across sides); within a side, one reverse pass over
//! the log preserves the required order.
//!
//! Everything here is sequential host code — accumulated vectors are
//! bit-identical for any thread count, like the values.

use crate::band2bi::for_each_hop;
use crate::bidiag_vectors::BidiagVectors;
use unisvd_kernels::reflector_apply;
use unisvd_matrix::Bidiagonal;
use unisvd_scalar::Real;

/// One logged reflector `H = I − τ·v·vᵀ`: `v` has a unit head at index
/// `head`, its tail on the indices from `tail_start` on and zeros
/// elsewhere. Indices are rows of `U` for a left reflector and rows of
/// `V` (columns of `A`) for a right one.
#[derive(Clone, Copy, Debug)]
struct Reflector {
    left: bool,
    head: usize,
    tail_start: usize,
    /// The tail's range in [`ReflectorLog::tails`].
    off: usize,
    len: usize,
    tau: f64,
}

/// The Householder reflectors of stages 1 and 2, in the order they were
/// applied. Its capacity is reserved for every reflector of both
/// reductions when the workspace is built, so a warm solve, which
/// clears and refills it, allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ReflectorLog {
    refl: Vec<Reflector>,
    /// Every reflector's tail, back to back.
    tails: Vec<f64>,
}

impl ReflectorLog {
    /// An empty log with room for all reflectors of a `padded`-edge
    /// problem of tile `ts`: `ts` per tile of each stage-1 panel (the
    /// `GEQRT` tile's tails are shorter than `ts`, the `TSQRT` tiles' are
    /// `ts`), two per chase hop of [`for_each_hop`].
    pub fn with_capacity(padded: usize, ts: usize) -> Self {
        let nbt = padded / ts.max(1);
        // Panel tiles over all sweeps: RQ(k) has nbt − k, LQ(k) has
        // nbt − k − 1, and the final GEQRT has one.
        let tiles: usize = (0..nbt.saturating_sub(1))
            .map(|k| 2 * (nbt - k) - 1)
            .sum::<usize>()
            + usize::from(nbt > 0);
        let (mut refl, mut tails) = (tiles * ts, tiles * ts * ts);
        for_each_hop(padded, ts, |_, c0, c1| {
            refl += 2;
            tails += 2 * (c1 - c0);
        });
        ReflectorLog {
            refl: Vec::with_capacity(refl),
            tails: Vec::with_capacity(tails),
        }
    }

    /// Forgets every reflector; the capacity stays.
    pub fn clear(&mut self) {
        self.refl.clear();
        self.tails.clear();
    }

    /// Appends `H = I − τ·v·vᵀ` (see [`Reflector`]). A `τ = 0` reflector
    /// is the identity and is not recorded.
    pub fn push(
        &mut self,
        left: bool,
        head: usize,
        tail_start: usize,
        tau: f64,
        tail: impl Iterator<Item = f64>,
    ) {
        if tau == 0.0 {
            return;
        }
        let off = self.tails.len();
        self.tails.extend(tail);
        self.refl.push(Reflector {
            left,
            head,
            tail_start,
            off,
            len: self.tails.len() - off,
            tau,
        });
    }

    /// Replays the reflectors newest first: `wu` and `wv` collect the left
    /// and right products in the order the reductions applied them.
    pub fn replay(&self, wu: &mut [f64], wv: &mut [f64], k: usize, dot: &mut [f64]) {
        for r in self.refl.iter().rev() {
            let w = if r.left { &mut *wu } else { &mut *wv };
            let tail = &self.tails[r.off..r.off + r.len];
            reflector_apply(w, k, dot, r.head, r.tail_start, tail, r.tau);
        }
    }
}

/// Per-plan vector workspace of a numeric plan: the reflector log, the
/// inverse-iteration workspace and the accumulators the vector path
/// touches, owned by `PipelineScratch` so a warm `execute_into` with
/// vectors allocates nothing.
#[derive(Debug)]
pub(crate) struct VectorScratch {
    /// Accumulated columns (`Want::columns` of the planned shape).
    pub k: usize,
    /// Whether the values list is truncated to `k` too (`Want::TopK`).
    pub topk: bool,
    /// Reflectors of stages 1 and 2 of the current solve.
    pub log: ReflectorLog,
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
    /// Builds the workspace for `k` columns of a `padded`-edge problem of
    /// tile `ts` whose real `mr × nr` block sits at the top left (the rest
    /// is padding).
    pub fn new(k: usize, topk: bool, padded: usize, ts: usize, (mr, nr): (usize, usize)) -> Self {
        VectorScratch {
            k,
            topk,
            log: ReflectorLog::with_capacity(padded, ts),
            bv: BidiagVectors::new(k, mr, nr),
            wu: vec![0.0; padded * k],
            wv: vec![0.0; padded * k],
            dot: vec![0.0; k],
        }
    }

    /// Seeds the accumulators with the leading `k` triplets of the
    /// bidiagonal `bi` (`values`: its singular values, descending, at
    /// least `k` of them) and replays the reflector log into them.
    pub fn solve_and_replay<A: Real>(&mut self, bi: &Bidiagonal<A>, values: &[A]) {
        let k = self.k;
        self.wu.fill(0.0);
        self.wv.fill(0.0);
        self.bv
            .solve(&bi.d, &bi.e, &values[..k], &mut self.wu, &mut self.wv);
        self.log
            .replay(&mut self.wu, &mut self.wv, k, &mut self.dot);
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
    use unisvd_scalar::Scalar;

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
        let mut vac = VectorScratch::new(n, false, n, 4, (n, n)); // log empty
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
        let mut vac = VectorScratch::new(n, false, n, ts, (n, n));
        band_to_bidiagonal_into_ext(
            &dev,
            &mut band,
            ts,
            unisvd_scalar::PrecisionKind::Fp64,
            ts,
            &mut bi,
            Some(&mut vac.log),
        );
        let values = bdsqr(&bi).unwrap();
        vac.solve_and_replay(&bi, &values);
        assert!(ortho_err(&vac.wu, n, n) < 1e-13);
        assert!(ortho_err(&vac.wv, n, n) < 1e-13);
        let get = |i: usize, j: usize| orig[i][j];
        let err = recon_err(&get, n, &vac, &values);
        assert!(err < 1e-12, "band − UΣVᵀ max err {err}");
    }

    /// Stage-1 isolation: reduce a random matrix to band form with
    /// logging, replay the log onto unit seeds — `Q_L` and `Q_R` must be
    /// orthogonal and `Q_Lᵀ·A·Q_R` must be the extracted band to within
    /// `n·ε·‖A‖_F`, for the fused and the unfused panel kernels alike.
    fn check_stage1_replay<T: Scalar>(n: usize, ts: usize, fused: bool, seed: u64) {
        use crate::band_diag::{band_diag_ext, extract_band_into};
        use unisvd_kernels::HyperParams;
        use unisvd_matrix::Matrix;

        let what = format!("{} n={n} ts={ts} fused={fused}", T::KIND.name());
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<T>::from_fn(n, n, |_, _| T::from_f64(rng.gen_range(-1.0..1.0)));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a.as_slice());
        let tau = dev.alloc::<T>(n);
        let p = HyperParams::new(ts, 4, 1);
        let mut log = ReflectorLog::with_capacity(n, ts);
        band_diag_ext(&dev, &buf, &tau, n, &p, fused, Some(&mut log));
        let mut band = BandMatrix::zeros(n, 1, ts + 1);
        extract_band_into::<T>(&dev, &buf, n, ts, &mut band);

        let mut ql = vec![0.0; n * n];
        for i in 0..n {
            ql[i * n + i] = 1.0;
        }
        let mut qr = ql.clone();
        let mut dot = vec![0.0; n];
        log.replay(&mut ql, &mut qr, n, &mut dot);

        let eps = <T::Accum as Real>::EPSILON.to_f64();
        let bound = n as f64 * eps;
        assert!(ortho_err(&ql, n, n) <= bound, "{what}: Q_L not orthogonal");
        assert!(ortho_err(&qr, n, n) <= bound, "{what}: Q_R not orthogonal");

        // A·Q_R, then Q_Lᵀ·(A·Q_R), against the band.
        let mut aq = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let aij = a[(i, j)].to_f64();
                for c in 0..n {
                    aq[i * n + c] += aij * qr[j * n + c];
                }
            }
        }
        let norm = a
            .as_slice()
            .iter()
            .map(|x| x.to_f64().powi(2))
            .sum::<f64>()
            .sqrt();
        let mut err: f64 = 0.0;
        for r in 0..n {
            for c in 0..n {
                let m: f64 = (0..n).map(|i| ql[i * n + r] * aq[i * n + c]).sum();
                err = err.max((m - band.get(r, c).to_f64()).abs());
            }
        }
        assert!(
            err <= bound * norm,
            "{what}: ‖Q_Lᵀ·A·Q_R − band‖ = {err:e} > {:e}",
            bound * norm
        );
    }

    #[test]
    fn stage1_log_replay_reduces_to_band() {
        for (k, n) in [64, 96].into_iter().enumerate() {
            for fused in [true, false] {
                check_stage1_replay::<f64>(n, 16, fused, 11 + k as u64);
                check_stage1_replay::<f32>(n, 16, fused, 21 + k as u64);
            }
        }
    }
}
