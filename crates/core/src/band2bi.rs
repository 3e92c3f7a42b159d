//! Stage 2: band → bidiagonal reduction by Householder bulge chasing.
//!
//! The paper performs this stage on the GPU with the cache-efficient tile
//! kernels of Haidar et al. and the communication-avoiding grouping of
//! Ballard et al., and defers its detailed study to future work. Here we
//! run the host form of those kernels: the one-pass successive band
//! reduction with Householder reflectors of length ≤ b (Bischof, Lang &
//! Sun, ACM TOMS 26(4), 2000; the bidiagonal case is the second stage of
//! Haidar, Kurzak & Luszczek, SC'13). Sweep `i` clears row `i` beyond the
//! first superdiagonal and chases the bulge this creates down the band,
//! one hop of up to `b` columns at a time (`for_each_hop`). Each hop
//! applies one right reflector (from row `p`, over columns `c0..=c1`) and
//! one left reflector (from column `c0`, over rows `c0..=c1`) to a dense
//! block of the band. Both reflectors come from the scale-safe generator
//! of [`unisvd_matrix::householder`] (LAPACK `xLARFG`), which the host QR
//! of tall and wide inputs shares. Cost is accounted per
//! bandwidth-reduction sweep through the device's launch stream so the
//! Fig. 6 stage breakdown includes it; that model predates the Householder chase and is kept as
//! it is (see `sweep_spec`), so the simulated numbers do not move.
//!
//! Fill: a hop's right reflector fills the `len × len` block below the
//! diagonal (`b − 1` subdiagonals) and its left reflector extends rows
//! `c0..=c1` to column `c1 + b` (`2b − 1` superdiagonals); between sweeps
//! the fill is at most `b − 2` below and `2b − 2` above. The chase
//! therefore runs on a *work band* of that geometry
//! ([`work_band_geometry`]), which a plan allocates once and stage-1
//! extraction fills directly. Annihilated cells are set to exact zero, so
//! the result is exactly bidiagonal.

use crate::vectors::ReflectorLog;
use unisvd_gpu::{Device, ExecMode, KernelClass, LaunchSpec};
use unisvd_matrix::householder::{dot, larfg};
use unisvd_matrix::{BandMatrix, Bidiagonal};
use unisvd_scalar::Real;

/// Subdiagonals and superdiagonals the chase's work band stores for an
/// order-`n` band of bandwidth `b`: `b − 1` below and `2b − 1` above the
/// diagonal, each capped at `n − 1`. [`band_to_bidiagonal_into`] reduces a
/// band of at least this geometry in place.
pub fn work_band_geometry(n: usize, b: usize) -> (usize, usize) {
    let cap = n.saturating_sub(1);
    (
        b.saturating_sub(1).min(cap),
        (2 * b).saturating_sub(1).min(cap),
    )
}

/// Calls `hop(p, c0, c1)` for every hop of the chase of an order-`n` band
/// of bandwidth `b`, in order. Sweep `i` starts at `p = i`, `c0 = i + 1`,
/// `c1 = min(i + b, n − 1)` and advances `p ← c0`, `c0 ← c1 + 1`,
/// `c1 ← min(c1 + b, n − 1)` while `c1 > c0`. The sequence depends only
/// on `(n, b)`, so the reflector log's capacity is counted from it before
/// any data.
pub(crate) fn for_each_hop(n: usize, b: usize, mut hop: impl FnMut(usize, usize, usize)) {
    for i in 0..n.saturating_sub(2) {
        let (mut p, mut c0, mut c1) = (i, i + 1, (i + b).min(n - 1));
        while c1 > c0 {
            hop(p, c0, c1);
            p = c0;
            c0 = c1 + 1;
            c1 = (c1 + b).min(n - 1);
        }
    }
}

/// Rows of the right reflector's update held in one stack block: rows are
/// independent, so the block size does not change any bit.
const ROW_BLOCK: usize = 64;

/// The Householder chase on a work band (see the module docs), appending
/// each hop's right and then left reflector to `log` when one is given.
fn chase<R: Real>(band: &mut BandMatrix<R>, b: usize, mut log: Option<&mut ReflectorLog>) {
    let (n, sub, sup) = (band.n(), band.sub(), band.sup());
    let ld = sub + sup;
    let a = band.storage_mut();
    let at = |i: usize, j: usize| sup + i + j * ld;
    let mut w = [R::ZERO; ROW_BLOCK];
    for_each_hop(n, b, |p, c0, c1| {
        let len = c1 - c0 + 1;
        // Right reflector from row p over columns c0..=c1, applied to the
        // rows below it that reach those columns: p + 1 ..= c1.
        let h = at(p, c0);
        let tau = larfg(a, h, ld, len);
        if tau != R::ZERO {
            let mut r = p + 1;
            while r <= c1 {
                let cnt = (c1 + 1 - r).min(ROW_BLOCK);
                let w = &mut w[..cnt];
                w.copy_from_slice(&a[at(r, c0)..at(r, c0) + cnt]);
                for t in 1..len {
                    let v = a[h + ld * t];
                    let col = &a[at(r, c0 + t)..at(r, c0 + t) + cnt];
                    for (x, &y) in w.iter_mut().zip(col) {
                        *x += v * y;
                    }
                }
                for x in w.iter_mut() {
                    *x *= tau;
                }
                for t in 0..len {
                    let v = if t == 0 { R::ONE } else { a[h + ld * t] };
                    let col = &mut a[at(r, c0 + t)..at(r, c0 + t) + cnt];
                    for (y, &x) in col.iter_mut().zip(w.iter()) {
                        *y -= x * v;
                    }
                }
                r += cnt;
            }
        }
        if let Some(log) = log.as_deref_mut() {
            let tail = (1..len).map(|t| a[h + ld * t].to_f64());
            log.push(false, c0, c0 + 1, tau.to_f64(), tail);
        }
        for t in 1..len {
            a[h + ld * t] = R::ZERO;
        }

        // Left reflector from column c0 over rows c0..=c1, applied to the
        // columns right of it that reach those rows: c0 + 1 ..= c1 + b.
        let h = at(c0, c0);
        let tau = larfg(a, h, 1, len);
        if tau != R::ZERO {
            // v (rows c0 + 1 ..= c1 of column c0) is stored before row c0
            // of column c0 + 1, where the updated columns start.
            let (vcol, rest) = a.split_at_mut(at(c0, c0 + 1));
            let v = &vcol[h + 1..h + len];
            for j in c0 + 1..=(c1 + b).min(n - 1) {
                let o = at(c0, j) - at(c0, c0 + 1);
                let col = &mut rest[o..o + len];
                let s = tau * (col[0] + dot(v, &col[1..]));
                col[0] -= s;
                for (y, &vi) in col[1..].iter_mut().zip(v) {
                    *y -= s * vi;
                }
            }
        }
        if let Some(log) = log.as_deref_mut() {
            let tail = a[h + 1..h + len].iter().map(|x| x.to_f64());
            log.push(true, c0, c0 + 1, tau.to_f64(), tail);
        }
        a[h + 1..h + len].fill(R::ZERO);
    });
}

/// Cost accounting for one bandwidth-reduction sweep (distance `d`), as a
/// communication-avoiding chase-set kernel batch on the device. The model
/// describes a sweep-per-superdiagonal Givens chase; the host runs the
/// Householder chase, and the model is kept so the simulated numbers and
/// the paper figures stay put.
fn sweep_spec(n: usize, d: usize, ts: usize, prec: unisvd_scalar::PrecisionKind) -> LaunchSpec {
    let grid = n.div_ceil(ts).max(1);
    let mut s = LaunchSpec::new(
        KernelClass::BandToBidiagonal,
        "brd_sweep",
        grid,
        ts.min(256),
    );
    s.precision = prec;
    // Each of ~n annihilations chases ~n/d hops of 2 rotations over the
    // d + 1 live superdiagonals (~d entries): ≈ 12·n per element,
    // 12·n·(n−d) per sweep.
    s.flops = 12.0 * n as f64 * n.saturating_sub(d) as f64;
    // Rotations stream the band region they touch (read + write).
    s.bytes = s.flops / 3.0 * prec.bytes() as f64;
    // Pipelined chases: the critical chain is one full chase.
    s.critical_path = 24.0 * n as f64 / 2.0;
    s
}

/// Reduces an upper band matrix of bandwidth `bandwidth` to upper
/// bidiagonal form in place, accounting simulated cost on `dev`. Returns
/// the bidiagonal.
///
/// In trace-only mode only the cost stream is emitted and the returned
/// bidiagonal is empty.
pub fn band_to_bidiagonal<R: Real>(
    dev: &Device,
    band: &mut BandMatrix<R>,
    bandwidth: usize,
    prec: unisvd_scalar::PrecisionKind,
    ts: usize,
) -> Bidiagonal<R> {
    let mut bi = Bidiagonal::new(Vec::new(), Vec::new());
    band_to_bidiagonal_into(dev, band, bandwidth, prec, ts, &mut bi);
    bi
}

/// [`band_to_bidiagonal`] writing the result into an existing
/// [`Bidiagonal`] whose vectors are reused. The chase needs the fill room
/// of [`work_band_geometry`]: a narrower band, such as the
/// `(n, 1, bandwidth + 1)` band stage-1 extraction also accepts, is
/// **widened in place** to that geometry first (one allocation, with the
/// same bits). A band that already stores the fill room, including one
/// widened by an earlier call and refilled since, is reduced in place
/// without any heap allocation — the steady-state path of a reused plan.
pub fn band_to_bidiagonal_into<R: Real>(
    dev: &Device,
    band: &mut BandMatrix<R>,
    bandwidth: usize,
    prec: unisvd_scalar::PrecisionKind,
    ts: usize,
    bi: &mut Bidiagonal<R>,
) {
    if dev.mode() == ExecMode::Numeric {
        let (sub, sup) = work_band_geometry(band.n(), bandwidth);
        band.widen(sub, sup);
    }
    band_to_bidiagonal_into_ext(dev, band, bandwidth, prec, ts, bi, None);
}

/// [`band_to_bidiagonal_into`] on a work band, with an optional
/// reflector log: every reflector of the chase is appended to it for
/// singular-vector replay. The log only copies, so the produced
/// bidiagonal is bit-identical with `log = None`.
///
/// # Panics
/// In numeric mode, if `band` has no fill room for `bandwidth`: it must
/// store at least the sub- and superdiagonals of
/// [`work_band_geometry`]. Trace-only mode accepts any placeholder band.
pub(crate) fn band_to_bidiagonal_into_ext<R: Real>(
    dev: &Device,
    band: &mut BandMatrix<R>,
    bandwidth: usize,
    prec: unisvd_scalar::PrecisionKind,
    ts: usize,
    bi: &mut Bidiagonal<R>,
    log: Option<&mut ReflectorLog>,
) {
    let n = band.n();
    let numeric = dev.mode() == ExecMode::Numeric;
    let (sub, sup) = work_band_geometry(n, bandwidth);
    assert!(
        !numeric || (band.sub() >= sub && band.sup() >= sup),
        "stage 2 needs fill room: bandwidth {bandwidth} requires sub >= {sub} and \
         sup >= {sup}, got sub = {}, sup = {}",
        band.sub(),
        band.sup()
    );
    for d in (2..=bandwidth).rev() {
        dev.charge(&sweep_spec(n, d, ts, prec));
    }
    if numeric {
        chase(band, bandwidth, log);
        band.to_bidiagonal_into(bi);
    } else {
        bi.d.clear();
        bi.e.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unisvd_gpu::hw::h100;
    use unisvd_scalar::PrecisionKind;

    fn random_band(n: usize, bw: usize, seed: u64) -> BandMatrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        BandMatrix::from_dense(n, 1, bw + 1, |i, j| {
            if j >= i && j - i <= bw {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        })
    }

    /// The input families of the chase checks: random, scattered exact
    /// zeros, rank 1, empty outer diagonal, tiny with zero rows, and −0.0
    /// in every stored cell. Built in the work-band geometry.
    fn family_band<R: Real>(n: usize, bw: usize, family: usize, seed: u64) -> BandMatrix<R> {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (sub, sup) = work_band_geometry(n, bw);
        BandMatrix::from_dense(n, sub, sup, |i, j| {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let v = match family {
                _ if j < i || j - i > bw => 0.0,
                1 if rng.gen_bool(0.3) => 0.0,
                2 => u[i] * u[j],
                3 if j - i == bw => 0.0,
                4 if i % 5 == 0 => 0.0,
                4 => x * 1e-30,
                _ => x,
            };
            R::from_f64(if family == 5 && j >= i && j - i <= bw {
                -0.0
            } else {
                v
            })
        })
    }

    fn bits<R: Real>(b: &BandMatrix<R>) -> Vec<u64> {
        let mut out = Vec::new();
        for j in 0..b.n() {
            for i in j.saturating_sub(b.sup())..=(j + b.sub()).min(b.n() - 1) {
                out.push(b.get(i, j).to_f64().to_bits());
            }
        }
        out
    }

    /// `max |QᵀQ − I|` of the `n × n` row-major `q`.
    fn ortho_err(q: &[f64], n: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for a in 0..n {
            for b in a..n {
                let dot: f64 = (0..n).map(|i| q[i * n + a] * q[i * n + b]).sum();
                worst = worst.max((dot - if a == b { 1.0 } else { 0.0 }).abs());
            }
        }
        worst
    }

    /// Chases `band` with and without a log and checks three things: the
    /// result is exactly bidiagonal; both runs give the same bits; and the
    /// log, replayed onto unit seeds, gives orthogonal `Q_L`, `Q_R` with
    /// `‖Q_Lᵀ·B·Q_R − bidiag‖_max ≤ n·ε·‖B‖_F`.
    fn check_chase<R: Real>(band: &BandMatrix<R>, bw: usize, what: &str) {
        let n = band.n();
        let mut plain = band.clone();
        chase(&mut plain, bw, None);
        let mut logged = band.clone();
        let mut log = ReflectorLog::with_capacity(n, bw);
        chase(&mut logged, bw, Some(&mut log));
        assert_eq!(bits(&plain), bits(&logged), "{what}: logging moved bits");
        assert!(
            plain.max_abs_below_diag() == R::ZERO && plain.max_abs_beyond_sup(1) == R::ZERO,
            "{what}: not bidiagonal"
        );

        let mut ql = vec![0.0; n * n];
        for i in 0..n {
            ql[i * n + i] = 1.0;
        }
        let mut qr = ql.clone();
        log.replay(&mut ql, &mut qr, n, &mut vec![0.0; n]);
        let eps = R::EPSILON.to_f64();
        let bound = n as f64 * eps;
        assert!(ortho_err(&ql, n) <= bound, "{what}: Q_L not orthogonal");
        assert!(ortho_err(&qr, n) <= bound, "{what}: Q_R not orthogonal");

        // B·Q_R over B's band, then Q_Lᵀ·(B·Q_R).
        let mut bq = vec![0.0; n * n];
        for i in 0..n {
            for j in i..(i + bw + 1).min(n) {
                let bij = band.get(i, j).to_f64();
                for c in 0..n {
                    bq[i * n + c] += bij * qr[j * n + c];
                }
            }
        }
        let mut err: f64 = 0.0;
        for r in 0..n {
            for c in 0..n {
                let m: f64 = (0..n).map(|i| ql[i * n + r] * bq[i * n + c]).sum();
                let want = if c == r || c == r + 1 {
                    plain.get(r, c).to_f64()
                } else {
                    0.0
                };
                err = err.max((m - want).abs());
            }
        }
        // In f64: the squares of the 1e-30 family underflow in f32.
        let norm = (0..n)
            .flat_map(|i| (i..n).map(move |j| (i, j)))
            .map(|(i, j)| band.get(i, j).to_f64().powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            err <= bound * norm,
            "{what}: ‖Q_Lᵀ·B·Q_R − bidiag‖ = {err:e} > {:e}",
            bound * norm
        );
    }

    fn chase_checks<R: Real>() {
        let shapes = [
            (256, 64),
            (128, 64),
            (100, 7),
            (97, 13),
            (64, 32),
            (40, 6),
            (33, 32),
            (256, 32),
            (17, 2),
            (5, 3),
        ];
        for (k, &(n, bw)) in shapes.iter().enumerate() {
            for family in 0..6 {
                let band = family_band::<R>(n, bw, family, (10 * k + family) as u64);
                check_chase(&band, bw, &format!("n={n} bw={bw} family={family}"));
            }
        }
    }

    #[test]
    fn chase_is_orthogonal_and_exactly_bidiagonal_f32() {
        chase_checks::<f32>();
    }

    #[test]
    fn chase_is_orthogonal_and_exactly_bidiagonal_f64() {
        chase_checks::<f64>();
    }

    /// The narrow `(n, 1, bw + 1)` band is widened in place to the work
    /// geometry; its bidiagonal has the bits of the work-band chase.
    #[test]
    fn narrow_band_matches_work_band() {
        let (n, bw) = (96, 16);
        let narrow0 = random_band(n, bw, 3);
        let (sub, sup) = work_band_geometry(n, bw);
        let mut work = BandMatrix::from_dense(n, sub, sup, |i, j| narrow0.get(i, j));
        let dev = Device::numeric(h100());
        let mut narrow = narrow0.clone();
        let a = band_to_bidiagonal(&dev, &mut narrow, bw, PrecisionKind::Fp64, bw);
        let b = band_to_bidiagonal(&dev, &mut work, bw, PrecisionKind::Fp64, bw);
        assert_eq!(a, b);
        assert_eq!((narrow.sub(), narrow.sup()), (sub, sup));
        assert_eq!(narrow.max_abs_beyond_sup(1), 0.0);
        assert_eq!(narrow.get(0, 1), b.e[0]);
    }

    #[test]
    #[should_panic(expected = "stage 2 needs fill room")]
    fn band_without_fill_room_panics() {
        let bw = 4;
        let mut narrow = random_band(24, bw, 1);
        let dev = Device::numeric(h100());
        let mut bi = Bidiagonal::new(Vec::new(), Vec::new());
        band_to_bidiagonal_into_ext(&dev, &mut narrow, bw, PrecisionKind::Fp64, 8, &mut bi, None);
    }

    #[test]
    fn reduction_reaches_bidiagonal_form() {
        let bw = 6;
        let n = 40;
        let mut band = random_band(n, bw, 5);
        let dev = Device::numeric(h100());
        band_to_bidiagonal(&dev, &mut band, bw, PrecisionKind::Fp64, 8);
        assert!(band.max_abs_below_diag() < 1e-12, "subdiagonal not cleared");
        assert!(
            band.max_abs_beyond_sup(1) < 1e-12,
            "second+ superdiagonals not cleared: {}",
            band.max_abs_beyond_sup(1)
        );
    }

    #[test]
    fn reduction_preserves_frobenius_norm() {
        let bw = 5;
        let n = 30;
        let mut band = random_band(n, bw, 9);
        let before = band.fro_norm();
        let dev = Device::numeric(h100());
        let bi = band_to_bidiagonal(&dev, &mut band, bw, PrecisionKind::Fp64, 8);
        let after = bi.fro_norm();
        assert!(
            ((before - after) / before).abs() < 1e-12,
            "norm drift {before} -> {after}"
        );
    }

    #[test]
    fn already_bidiagonal_is_noop() {
        let n = 12;
        let mut band = BandMatrix::<f64>::from_dense(n, 1, 2, |i, j| {
            if j == i {
                (i + 1) as f64
            } else if j == i + 1 {
                0.5
            } else {
                0.0
            }
        });
        let dev = Device::numeric(h100());
        let bi = band_to_bidiagonal(&dev, &mut band, 1, PrecisionKind::Fp64, 8);
        assert_eq!(bi.d, (1..=n).map(|x| x as f64).collect::<Vec<_>>());
        assert!(bi.e.iter().all(|&e| e == 0.5));
        // bandwidth 1: no sweeps, no launches.
        assert_eq!(dev.summary().total_launches(), 0);
    }

    #[test]
    fn cost_stream_emitted_per_sweep() {
        let bw = 4;
        let mut band = random_band(24, bw, 1);
        let dev = Device::numeric(h100());
        band_to_bidiagonal(&dev, &mut band, bw, PrecisionKind::Fp64, 8);
        let s = dev.summary();
        assert_eq!(s.launches_of(KernelClass::BandToBidiagonal), bw - 1);
        assert!(s.seconds_of(KernelClass::BandToBidiagonal) > 0.0);
    }

    #[test]
    fn trace_device_emits_cost_without_data() {
        let dev = Device::trace_only(h100());
        let mut band = BandMatrix::<f64>::zeros(1, 0, 0); // placeholder
        let bi = band_to_bidiagonal(&dev, &mut band, 32, PrecisionKind::Fp32, 32);
        assert!(bi.d.is_empty());
        assert_eq!(dev.summary().launches_of(KernelClass::BandToBidiagonal), 31);
    }

    #[test]
    fn wide_band_on_larger_matrix() {
        let bw = 12;
        let n = 64;
        let mut band = random_band(n, bw, 33);
        let before = band.fro_norm();
        let dev = Device::numeric(h100());
        let bi = band_to_bidiagonal(&dev, &mut band, bw, PrecisionKind::Fp64, 8);
        assert!(band.max_abs_below_diag() < 1e-11);
        assert!(band.max_abs_beyond_sup(1) < 1e-11);
        assert!(((before - bi.fro_norm()) / before).abs() < 1e-11);
    }
}
