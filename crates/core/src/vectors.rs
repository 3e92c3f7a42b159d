//! Singular-vector accumulation by **log-and-reverse-replay**.
//!
//! The values pipeline reduces `A → band → bidiagonal → Σ` through three
//! stages of orthogonal transforms. To produce vectors without touching
//! the values path (whose results must stay bit-identical), each stage
//! *records* its transforms as it runs:
//!
//! * stage 1 snapshots every factored panel (the parked Householder
//!   tails plus their τ̂, which later sweeps overwrite) — one
//!   [`SweepLog`] per `GETSMQRT`;
//! * stage 2 fills one preallocated slot per Householder reflector of the
//!   bulge chase (τ and tail; a skipped reflector keeps τ = 0);
//! * stage 3 records every QR-sweep rotation pair of the logging
//!   `bdsqr` run.
//!
//! After the values converge, the leading `k` diagonal positions are
//! selected, `k` signed unit columns are seeded into `padded × k`
//! k-contiguous accumulators (one row of `k` entries per padded row, so
//! each replayed transform streams whole rows), and the whole log is
//! replayed **in reverse** through [`unisvd_kernels::rot_mix`] (stage 3)
//! and [`unisvd_kernels::reflector_apply`] (stages 2 and 1).
//! Every replayed operation costs `O(k)`, so a truncated top-k solve
//! accumulates at `k/min(m,n)` of the thin cost — the economics the
//! `fig_truncated` bench gates.
//!
//! Why one mix formula suffices for stage 3: a left rotation `L`
//! (recorded `(c, s)` acting on rows `(i, i+1)` of the working matrix)
//! enters `U` as `W ← Lᵀ W`, and a right rotation `R` (recorded in the
//! `DLASR` convention of the right sweep) enters `V` as `W ← Rᵀ W`; for
//! the `(c, s)` conventions of both the two reduce to the identical row
//! mix `(wᵢ, wᵢ₊₁) ← (c·wᵢ − s·wᵢ₊₁, s·wᵢ + c·wᵢ₊₁)`. A reflector is
//! symmetric, so the stage-2 left and right reflectors enter `U` and `V`
//! as they are. Cross-side ordering is immaterial (left and right factors
//! commute across sides); within a side, one combined reverse pass over
//! the tagged log preserves the required order.
//!
//! **Flushing decayed lanes.** `bdsqr`'s final zero-shift sweeps
//! (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11(5), 1990) rotate by
//! small `s`, so replaying them newest first decays each seed column's
//! entries far from its seed geometrically, down past
//! `f64::MIN_POSITIVE`; on x86 every subnormal operand or result takes a
//! slow microcode assist. Stage-3 replay therefore runs in batches of
//! `FLUSH_PERIOD·padded` rotations and, after each batch, sets every
//! entry below 2⁻⁹⁶⁰ on the rows that batch touched to `+0.0`
//! ([`unisvd_kernels::flush_tiny`]); the last flush leaves stage 2 a
//! clean start. The bits hold: every replayed transform preserves each
//! accumulator column's unit 2-norm, so a flushed entry is below half an
//! ulp of any entry above ~2⁻⁹⁰⁰ it later mixes with, and that result
//! rounds as before. Only an output entry that stays below ~2⁻⁹⁰⁰ (or
//! exactly zero, whose sign may change) to the end of the replay could
//! differ; on graded 128² and 256² inputs the smallest |entry| of U/Vᵀ is
//! ~1e-7. Stage-2 and stage-1 replay do not flush: they apply a few
//! reflectors (~n²/b in stage 2) rather than long rotation sweeps, and
//! a 256² `TopK(32)` stage-2 replay meets no subnormal operand.
//!
//! Everything here is sequential host code — accumulated vectors are
//! bit-identical for any thread count, like the values.

use crate::band2bi::for_each_hop;
use crate::bidiag_svd::Stage3Workspace;
use unisvd_gpu::GlobalBuffer;
use unisvd_kernels::{flush_tiny, reflector_apply, rot_mix, DMat};
use unisvd_scalar::{Real, Scalar};

/// One recorded Givens rotation: `left` routes it to the `U`
/// accumulator, `i` is the upper of the two mixed rows `(i, i+1)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rot {
    pub left: bool,
    pub i: u32,
    pub c: f64,
    pub s: f64,
}

/// Append-only rotation log of stage 3, reused across solves:
/// [`clear`](Self::clear) keeps capacity, so warm solves of the same
/// input re-record without allocating.
#[derive(Default, Debug)]
pub(crate) struct RotLog {
    pub rots: Vec<Rot>,
}

impl RotLog {
    #[inline]
    pub fn push(&mut self, left: bool, i: usize, c: f64, s: f64) {
        self.rots.push(Rot {
            left,
            i: i as u32,
            c,
            s,
        });
    }

    pub fn clear(&mut self) {
        self.rots.clear();
    }
}

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

/// Stage-3 rotations replayed between two flushes of decayed lanes, as
/// a multiple of the padded edge. A `bdsqr` sweep over `m` rows logs
/// `2(m − 1)` rotations, so a period spans one sweep of the whole problem
/// or, near convergence, several shorter ones. Replaying graded 128²
/// `Thin` solves (release, 2-vCPU x86-64 VM), a period of `1·padded` was
/// slower than `2·` or `4·padded`, which measured about the same.
const FLUSH_PERIOD: usize = 2;

/// A row range `lo..hi` that holds no row.
const EMPTY_ROWS: (usize, usize) = (usize::MAX, 0);

/// Flushes decayed lanes ([`flush_tiny`]) on rows `rows.0..rows.1` of
/// the `k`-wide row-major `w`, then empties the range.
fn flush_rows(w: &mut [f64], k: usize, rows: &mut (usize, usize)) {
    if rows.0 < rows.1 {
        flush_tiny(&mut w[rows.0 * k..rows.1 * k]);
    }
    *rows = EMPTY_ROWS;
}

/// Replays the stage-3 log newest rotation first onto the `k`-wide
/// accumulators, in batches of `FLUSH_PERIOD·padded` rotations with the
/// oldest batch last. After each batch it flushes decayed lanes on the
/// rows each side touched in it (see the module docs), so the last flush
/// hands stage 2 a clean start.
fn replay_stage3(rots: &[Rot], wu: &mut [f64], wv: &mut [f64], k: usize, padded: usize) {
    let mut touched = [EMPTY_ROWS; 2];
    for batch in rots.rchunks((FLUSH_PERIOD * padded).max(1)) {
        for rot in batch.iter().rev() {
            let i = rot.i as usize;
            let (w, rows) = if rot.left {
                (&mut *wu, &mut touched[0])
            } else {
                (&mut *wv, &mut touched[1])
            };
            rot_mix(w, k, i, rot.c, rot.s);
            *rows = (rows.0.min(i), rows.1.max(i + 2));
        }
        flush_rows(wu, k, &mut touched[0]);
        flush_rows(wv, k, &mut touched[1]);
    }
}

/// Per-plan vector workspace: every log, selection scratch and
/// accumulator the vector path touches, owned by `PipelineScratch` so a
/// warm `execute_into` with vectors allocates nothing. `A` is the
/// pipeline's accumulation type (the second `bdsqr` pass for the
/// `Dqds`/`Bisect` solvers runs in it).
#[derive(Debug)]
pub(crate) struct VectorScratch<A: Real> {
    /// Accumulated columns (`Want::columns` of the planned shape).
    pub k: usize,
    /// Whether the values list is truncated to `k` too (`Want::TopK`).
    pub topk: bool,
    pub s1: Stage1Log,
    pub s2: Stage2Log,
    pub s3: RotLog,
    /// Workspace for the logging `bdsqr` pass when the configured
    /// stage-3 solver is not `Bdsqr` (whose own run logs in place).
    pub s3ws: Stage3Workspace<A>,
    /// Selection scratch: `(value, diag index)` sorted descending.
    pub order: Vec<(f64, usize)>,
    /// Left accumulator, `padded × k` row-major: row `r` is
    /// `wu[r*k .. (r+1)*k]`, so a replayed transform's operands are
    /// contiguous.
    pub wu: Vec<f64>,
    /// Right accumulator, `padded × k` row-major like `wu`.
    pub wv: Vec<f64>,
    /// `k`-entry row scratch of [`reflector_apply`].
    pub dot: Vec<f64>,
}

impl<A: Real> VectorScratch<A> {
    /// Builds the workspace for `k` columns of a `padded`-edge problem.
    /// `numeric` sizes the stage-1 and stage-2 logs and the accumulators;
    /// a cost replay keeps them empty (the scratch then only drives
    /// cost accounting).
    pub fn new(k: usize, topk: bool, padded: usize, ts: usize, numeric: bool) -> Self {
        VectorScratch {
            k,
            topk,
            s1: if numeric {
                Stage1Log::new(padded, ts)
            } else {
                Stage1Log::default()
            },
            s2: if numeric {
                Stage2Log::new(padded, ts)
            } else {
                Stage2Log::default()
            },
            s3: RotLog::default(),
            s3ws: Stage3Workspace::default(),
            order: Vec::new(),
            wu: if numeric {
                vec![0.0; padded * k]
            } else {
                Vec::new()
            },
            wv: if numeric {
                vec![0.0; padded * k]
            } else {
                Vec::new()
            },
            dot: vec![0.0; k],
        }
    }

    /// Selects the `k` leading diagonal positions of the converged
    /// bidiagonal (`dvals` = the logging `bdsqr` run's final signed
    /// diagonal) and reverse-replays the full transform log into the
    /// `wu`/`wv` accumulators. Ties order by ascending diagonal index,
    /// so exact-zero padding positions are never selected while real
    /// ones remain.
    pub fn select_and_replay(&mut self, padded: usize, dvals: &[A]) {
        let k = self.k;
        self.order.clear();
        for (idx, d) in dvals.iter().enumerate() {
            self.order.push((d.abs().to_f64(), idx));
        }
        self.order
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        self.order.truncate(k);

        self.wu.clear();
        self.wu.resize(padded * k, 0.0);
        self.wv.clear();
        self.wv.resize(padded * k, 0.0);
        for (j, &(_, idx)) in self.order.iter().enumerate() {
            // diag(d) = diag(sign)·diag(|d|): the sign rides on U.
            let sign = if dvals[idx] < A::ZERO { -1.0 } else { 1.0 };
            self.wu[idx * k + j] = sign;
            self.wv[idx * k + j] = 1.0;
        }

        // Stage 3 then stage 2, newest transform first. One pass per log:
        // within a side the reverse order is exact, across sides the
        // factors commute.
        replay_stage3(&self.s3.rots, &mut self.wu, &mut self.wv, k, padded);
        self.s2.replay(&mut self.wu, &mut self.wv, k, &mut self.dot);
        // Stage 1: sweeps in reverse chronological order.
        for sweep in self.s1.sweeps.iter().rev() {
            let w = if sweep.left {
                &mut self.wu
            } else {
                &mut self.wv
            };
            Stage1Log::replay_sweep(sweep, self.s1.ts, w, k, &mut self.dot);
        }
    }

    /// Clears the stage-3 log (capacity kept) before a new record; the
    /// stage-1 and stage-2 logs are refilled slot by slot.
    pub fn begin_solve(&mut self) {
        self.s3.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band2bi::{band_to_bidiagonal_into_ext, work_band_geometry};
    use crate::bidiag_svd::bdsqr_into_ext;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::{hw::h100, Device};
    use unisvd_matrix::{BandMatrix, Bidiagonal};

    /// ‖M − U·diag(d)·Vᵀ‖_max for padded×padded `get`-addressable M.
    fn recon_err(
        get: &dyn Fn(usize, usize) -> f64,
        n: usize,
        vac: &VectorScratch<f64>,
        values: &[(f64, usize)],
    ) -> f64 {
        let k = vac.k;
        let mut worst: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for (c, &(v, _)) in values.iter().enumerate().take(k) {
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

    /// Stage-3 isolation: a logged `bdsqr` run, replayed onto full
    /// accumulators, must reconstruct the original bidiagonal.
    #[test]
    fn stage3_log_replay_reconstructs_bidiagonal() {
        let n = 12;
        let mut rng = StdRng::seed_from_u64(42);
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..2.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bi = Bidiagonal {
            d: d.clone(),
            e: e.clone(),
        };
        let mut ws = Stage3Workspace::default();
        let mut vac = VectorScratch::<f64>::new(n, false, n, 4, true);
        vac.s1 = Stage1Log::default(); // no stage-1/2 transforms here
        bdsqr_into_ext(&bi, &mut ws, Some(&mut vac.s3)).unwrap();
        vac.select_and_replay(n, &ws.d);
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
        let err = recon_err(&get, n, &vac, &vac.order);
        assert!(err < 1e-12, "B − UΣVᵀ max err {err}");
    }

    /// A graded bidiagonal drives `bdsqr`'s zero-shift sweeps, whose
    /// rotations decay each seed column's far entries geometrically: the
    /// replay must flush them before they turn subnormal, and keep the
    /// columns orthonormal.
    #[test]
    fn stage3_replay_leaves_no_subnormals() {
        let (n, k) = (128, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let d: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-3.0 * i as f64 / (n - 1) as f64))
            .collect();
        let e = (0..n - 1)
            .map(|i| rng.gen_range(-1.0..1.0) * d[i])
            .collect();
        let bi = Bidiagonal { d, e };
        let mut ws = Stage3Workspace::default();
        let mut vac = VectorScratch::<f64>::new(k, true, n, 4, true);
        vac.s1 = Stage1Log::default();
        bdsqr_into_ext(&bi, &mut ws, Some(&mut vac.s3)).unwrap();
        vac.select_and_replay(n, &ws.d);
        for (side, w) in [("U", &vac.wu), ("V", &vac.wv)] {
            let subnormal = w.iter().filter(|x| x.is_subnormal()).count();
            assert_eq!(subnormal, 0, "{side} holds {subnormal} subnormal entries");
        }
        assert!(ortho_err(&vac.wu, n, k) < 1e-13, "U orthogonality");
        assert!(ortho_err(&vac.wv, n, k) < 1e-13, "V orthogonality");
    }

    /// Stage-2 + stage-3 isolation: chase a random band matrix to
    /// bidiagonal with logging, run logged bdsqr, replay both logs —
    /// must reconstruct the band matrix.
    #[test]
    fn stage2_and_3_log_replay_reconstructs_band() {
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
        let mut vac = VectorScratch::<f64>::new(n, false, n, ts, true);
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
        let mut ws = Stage3Workspace::default();
        bdsqr_into_ext(&bi, &mut ws, Some(&mut vac.s3)).unwrap();
        vac.select_and_replay(n, &ws.d);
        assert!(ortho_err(&vac.wu, n, n) < 1e-13);
        assert!(ortho_err(&vac.wv, n, n) < 1e-13);
        let get = |i: usize, j: usize| orig[i][j];
        let err = recon_err(&get, n, &vac, &vac.order);
        assert!(err < 1e-12, "band − UΣVᵀ max err {err}");
    }

    #[test]
    fn selection_prefers_low_index_on_ties_and_skips_padding() {
        let mut vac = VectorScratch::<f64>::new(2, false, 4, 2, true);
        vac.s1 = Stage1Log::default();
        // d = [0, 3, 0, 0]: real zeros at idx 0 beat padding zeros at 2,3.
        vac.select_and_replay(4, &[0.0, 3.0, 0.0, 0.0]);
        assert_eq!(vac.order, vec![(3.0, 1), (0.0, 0)]);
        // Signed diagonal: the sign lands on U's seed.
        let mut vac2 = VectorScratch::<f64>::new(1, true, 2, 2, true);
        vac2.s1 = Stage1Log::default();
        vac2.select_and_replay(2, &[-5.0, 1.0]);
        assert_eq!(vac2.order, vec![(5.0, 0)]);
        assert_eq!(vac2.wu[0], -1.0);
        assert_eq!(vac2.wv[0], 1.0);
    }

    /// A NaN on the diagonal must not hand the sort an inconsistent
    /// comparator: selection completes, and the finite entries keep
    /// their descending order around it.
    #[test]
    fn selection_with_nan_orders_finite_entries() {
        let d: Vec<f64> = (0..40)
            .map(|i| {
                if i == 17 {
                    f64::NAN
                } else {
                    ((i * 7) % 40) as f64 - 20.0
                }
            })
            .collect();
        let mut vac = VectorScratch::<f64>::new(d.len(), false, d.len(), 4, true);
        vac.s1 = Stage1Log::default();
        vac.select_and_replay(d.len(), &d);
        let finite: Vec<f64> = vac
            .order
            .iter()
            .map(|o| o.0)
            .filter(|v| !v.is_nan())
            .collect();
        assert_eq!(finite.len(), d.len() - 1);
        assert!(
            finite.windows(2).all(|p| p[0] >= p[1]),
            "finite keys out of order: {finite:?}"
        );
    }
}
