//! Stage 2: band → bidiagonal reduction by Givens bulge chasing.
//!
//! The paper performs this stage on the GPU with the cache-efficient tile
//! kernels of Haidar et al. and the communication-avoiding grouping of
//! Ballard et al., and defers its detailed study to future work. Here we
//! implement the classical successive band reduction: the outermost
//! superdiagonal is annihilated element by element, each annihilation
//! chasing its bulge down the band with alternating right (column) and
//! left (row) Givens rotations, until only the main diagonal and first
//! superdiagonal remain. Cost is accounted per sweep through the device's
//! launch stream so the Fig. 6 stage breakdown includes it.
//!
//! Rotation bookkeeping: the band is stored with `sub = 1` below and
//! `sup = b + 1` above — the bulge room; annihilated targets are set to
//! exact zero. When sweep `d` starts, every entry beyond distance `d` is
//! exactly zero, and during the sweep only the one bulge cell at
//! distance `d + 1` joins them. So each rotation of sweep `d` runs over
//! just the `d + 1` live superdiagonals — the width the cost model
//! (`sweep_spec`) already charges — rather than all `b + 1` stored
//! ones. The pairs this skips are all-zero, the same pairs the rotations'
//! exact-zero guard skips, so the result is bit-identical to rotating the
//! whole stored band.

use crate::vectors::RotLog;
use unisvd_gpu::{Device, ExecMode, KernelClass, LaunchSpec};
use unisvd_matrix::{BandMatrix, Bidiagonal};
use unisvd_scalar::Real;

/// Computes a Givens rotation `(c, s, r)` with `c·f + s·g = r` and
/// `-s·f + c·g = 0`.
#[inline]
pub fn givens<R: Real>(f: R, g: R) -> (R, R, R) {
    if g == R::ZERO {
        (R::ONE, R::ZERO, f)
    } else if f == R::ZERO {
        (R::ZERO, R::ONE, g)
    } else {
        let r = f.hypot(g).copysign(f);
        (f / r, g / r, r)
    }
}

/// Annihilates element `(row, row + d)` (distance `d ≥ 2`) and chases the
/// resulting bulge off the end of the band, each rotation running over
/// the first `live` superdiagonals. With `log`, every applied rotation is
/// recorded (tagged by side) for singular-vector replay — rotations
/// skipped by the exact-zero guards apply the identity and log nothing.
fn chase_element<R: Real>(
    b: &mut BandMatrix<R>,
    row: usize,
    d: usize,
    live: usize,
    mut log: Option<&mut RotLog>,
) {
    let n = b.n();
    let mut target_row = row;
    let mut jc = row + d; // column of the element being annihilated
    loop {
        // Right rotation on columns (jc-1, jc) zeroing (target_row, jc).
        let f = b.get(target_row, jc - 1);
        let g = b.get(target_row, jc);
        if g != R::ZERO {
            let (c, s, _r) = givens(f, g);
            b.givens_cols(jc - 1, c, s, target_row, live);
            if let Some(log) = log.as_deref_mut() {
                log.push(false, jc - 1, c.to_f64(), s.to_f64());
            }
        }
        // That created a bulge at (jc, jc-1), below the diagonal.
        if jc >= n {
            break;
        }
        let bulge = b.get(jc, jc - 1);
        if bulge != R::ZERO {
            // Left rotation on rows (jc-1, jc) zeroing (jc, jc-1).
            let f = b.get(jc - 1, jc - 1);
            let (c, s, _r) = givens(f, bulge);
            b.givens_rows(jc - 1, c, s, jc - 1, live);
            if let Some(log) = log.as_deref_mut() {
                log.push(true, jc - 1, c.to_f64(), s.to_f64());
            }
        }
        // The left rotation created a bulge at (jc-1, jc-1+d+1); the next
        // right rotation will zero it. Advance the chase by one stride.
        let next_col = jc + d;
        if next_col >= n {
            // Any remaining above-band element at (jc-1, j) with j < n is
            // inside the band (distance ≤ d) — chase complete.
            break;
        }
        target_row = jc - 1;
        jc = next_col;
    }
}

/// Sweep `d`: annihilates every distance-`d` entry of a band with nothing
/// beyond distance `d`, rotating over `live` superdiagonals. `live = d + 1`
/// (the band plus the one-cell bulge) is all a rotation can reach;
/// `live = band.sup()` rotates the whole stored band to the same bits.
fn chase_sweep<R: Real>(
    band: &mut BandMatrix<R>,
    d: usize,
    live: usize,
    mut log: Option<&mut RotLog>,
) {
    debug_assert!(
        band.max_abs_beyond_sup(d) == R::ZERO,
        "sweep {d} starts with a nonzero beyond distance {d}"
    );
    for row in 0..band.n().saturating_sub(d) {
        chase_element(band, row, d, live, log.as_deref_mut());
    }
}

/// Cost accounting for one bandwidth-reduction sweep (distance `d`), as a
/// communication-avoiding chase-set kernel batch on the device.
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
    // d + 1 live superdiagonals (~d entries, which is what the host
    // touches too): ≈ 12·n per element, 12·n·(n−d) per sweep.
    s.flops = 12.0 * n as f64 * n.saturating_sub(d) as f64;
    // Rotations stream the band region they touch (read + write).
    s.bytes = s.flops / 3.0 * prec.bytes() as f64;
    // Pipelined chases: the critical chain is one full chase.
    s.critical_path = 24.0 * n as f64 / 2.0;
    s
}

/// Reduces an upper band matrix (bandwidth `b = band.sup() - 1`, i.e. the
/// stored band minus the bulge headroom) to upper bidiagonal form in
/// place, accounting simulated cost on `dev`. Returns the bidiagonal.
///
/// In trace-only mode only the cost stream is emitted and the returned
/// bidiagonal is empty.
///
/// # Panics
/// In numeric mode, if `band` has no bulge room for `bandwidth`: it
/// must store `sub >= 1` subdiagonal and `sup >= bandwidth + 1`
/// superdiagonals. Trace-only mode accepts any placeholder band.
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
/// [`Bidiagonal`] whose vectors are reused — the steady-state path of a
/// reused plan, which performs stage 2 without any heap allocation.
///
/// # Panics
/// As [`band_to_bidiagonal`].
pub fn band_to_bidiagonal_into<R: Real>(
    dev: &Device,
    band: &mut BandMatrix<R>,
    bandwidth: usize,
    prec: unisvd_scalar::PrecisionKind,
    ts: usize,
    bi: &mut Bidiagonal<R>,
) {
    band_to_bidiagonal_into_ext(dev, band, bandwidth, prec, ts, bi, None);
}

/// [`band_to_bidiagonal_into`] with an optional rotation log: every
/// Givens rotation of the chase is recorded for singular-vector replay.
/// With `log = None` the behaviour (and the produced bidiagonal, bit for
/// bit) is identical to [`band_to_bidiagonal_into`].
pub(crate) fn band_to_bidiagonal_into_ext<R: Real>(
    dev: &Device,
    band: &mut BandMatrix<R>,
    bandwidth: usize,
    prec: unisvd_scalar::PrecisionKind,
    ts: usize,
    bi: &mut Bidiagonal<R>,
    mut log: Option<&mut RotLog>,
) {
    let n = band.n();
    let numeric = dev.mode() == ExecMode::Numeric;
    assert!(
        !numeric || (band.sub() >= 1 && band.sup() > bandwidth),
        "stage 2 needs bulge room: bandwidth {bandwidth} requires sub >= 1 and sup >= {}, \
         got sub = {}, sup = {}",
        bandwidth + 1,
        band.sub(),
        band.sup()
    );
    for d in (2..=bandwidth).rev() {
        dev.launch::<R, _>(&sweep_spec(n, d, ts, prec), |_| {});
        if numeric {
            chase_sweep(band, d, d + 1, log.as_deref_mut());
        }
    }
    if numeric {
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

    /// The input families of the live-window check: random, scattered
    /// exact zeros, rank 1, empty outer diagonal, tiny with zero rows,
    /// and −0.0 in every stored cell.
    fn family_band<R: Real>(n: usize, bw: usize, family: usize, seed: u64) -> BandMatrix<R> {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        BandMatrix::from_dense(n, 1, bw + 1, |i, j| {
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
            R::from_f64(if family == 5 { -0.0 } else { v })
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

    /// Every stored cell after a `live = d + 1` chase matches the same
    /// chase rotating the whole stored band, bit for bit.
    fn live_window_matches_full_band<R: Real>() {
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
                let mut live = family_band::<R>(n, bw, family, (10 * k + family) as u64);
                let mut full = live.clone();
                let sup = full.sup();
                for d in (2..=bw).rev() {
                    chase_sweep(&mut live, d, d + 1, None);
                    chase_sweep(&mut full, d, sup, None);
                }
                assert_eq!(bits(&live), bits(&full), "n={n} bw={bw} family={family}");
            }
        }
    }

    #[test]
    fn live_window_matches_full_band_f32() {
        live_window_matches_full_band::<f32>();
    }

    #[test]
    fn live_window_matches_full_band_f64() {
        live_window_matches_full_band::<f64>();
    }

    #[test]
    #[should_panic(expected = "stage 2 needs bulge room")]
    fn band_without_bulge_room_panics() {
        let bw = 4;
        let band = random_band(24, bw, 1);
        let mut tight = BandMatrix::from_dense(24, 1, bw, |i, j| band.get(i, j));
        let dev = Device::numeric(h100());
        band_to_bidiagonal(&dev, &mut tight, bw, PrecisionKind::Fp64, 8);
    }

    #[test]
    fn givens_zeroes_second_component() {
        let (c, s, r) = givens(3.0f64, 4.0);
        assert!((c * 3.0 + s * 4.0 - r).abs() < 1e-15);
        assert!((-s * 3.0 + c * 4.0).abs() < 1e-15);
        assert!((r.abs() - 5.0).abs() < 1e-15);
        assert!((c * c + s * s - 1.0).abs() < 1e-15);
        // Degenerate cases.
        assert_eq!(givens(2.0f64, 0.0), (1.0, 0.0, 2.0));
        assert_eq!(givens(0.0f64, 2.0), (0.0, 1.0, 2.0));
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
    fn trace_only_emits_cost_without_data() {
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
