//! Property-based tests on the tile kernels: QR reconstruction and
//! orthogonal consistency at arbitrary tile sizes and random data.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use unisvd_gpu::{hw::h100, Device};
use unisvd_kernels::{ftsmqr, ftsqrt, geqrt, reflector_apply, DMat, DVec, HyperParams};
use unisvd_matrix::{reference, Matrix};

/// Reconstructs Q·R from the in-place GEQRT format and compares to A.
fn geqrt_reconstruction_error(ts: usize, seed: u64, scale: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let a0 = Matrix::<f64>::from_fn(ts, ts, |_, _| rng.gen_range(-scale..scale));
    let dev = Device::numeric(h100());
    let buf = dev.upload(a0.as_slice());
    let tau = dev.alloc::<f64>(ts);
    geqrt(
        &dev,
        DMat::new(&buf, ts),
        DVec::new(&tau),
        &HyperParams::new(ts.max(4), 1, 1),
        0,
        0,
    );
    let f = buf.to_vec();
    let tv = tau.to_vec();
    // Apply the reflectors in forward order to A; compare with stored R.
    let mut m = a0.clone();
    for k in 0..ts - 1 {
        let t = tv[k];
        if t == 0.0 {
            continue;
        }
        let mut v = vec![0.0; ts];
        v[k] = 1.0;
        for j in (k + 1)..ts {
            v[j] = f[k * ts + j];
        }
        for c in 0..ts {
            let mut s = 0.0;
            for i in 0..ts {
                s += v[i] * m[(i, c)];
            }
            s *= t;
            for i in 0..ts {
                let x = m[(i, c)] - s * v[i];
                m[(i, c)] = x;
            }
        }
    }
    let mut worst = 0.0f64;
    for j in 0..ts {
        for i in 0..ts {
            let want = if i <= j { f[j * ts + i] } else { 0.0 };
            worst = worst.max((m[(i, j)] - want).abs());
        }
    }
    worst
}

/// Per-column Householder apply on a `padded × k` column-major
/// accumulator: the plain reference for `reflector_apply`.
fn reflector_apply_colmajor(
    w: &mut [f64],
    padded: usize,
    k: usize,
    head: usize,
    tail_start: usize,
    tail: &[f64],
    tau: f64,
) {
    for col in 0..k {
        let base = col * padded;
        let mut dot = w[base + head];
        for (j, &v) in tail.iter().enumerate() {
            dot += v * w[base + tail_start + j];
        }
        let dot = tau * dot;
        w[base + head] -= dot;
        for (j, &v) in tail.iter().enumerate() {
            w[base + tail_start + j] -= dot * v;
        }
    }
}

/// The k-contiguous accumulator kernel is a relayout, not a new
/// algorithm: a random sequence of reflectors (random `τ`, heads, tail
/// placements and lengths) applied to a
/// row-major accumulator leaves exactly the bits the per-column
/// reference leaves on the column-major twin.
#[test]
fn accum_kernels_bit_match_colmajor_reference() {
    for k in [1usize, 3, 32, 129] {
        let mut rng = StdRng::seed_from_u64(0xACC0 + k as u64);
        let padded = 24;
        let mut rowm: Vec<f64> = (0..padded * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut colm = vec![0.0; padded * k];
        for r in 0..padded {
            for c in 0..k {
                colm[c * padded + r] = rowm[r * k + c];
            }
        }
        let mut dot = vec![0.0; k];
        for _ in 0..100 {
            let head = rng.gen_range(0..padded - 1);
            let tail_start = rng.gen_range(head + 1..padded);
            let len = rng.gen_range(0..=padded - tail_start);
            let tail: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let tau = rng.gen_range(0.0..2.0);
            reflector_apply(&mut rowm, k, &mut dot, head, tail_start, &tail, tau);
            reflector_apply_colmajor(&mut colm, padded, k, head, tail_start, &tail, tau);
        }
        for r in 0..padded {
            for c in 0..k {
                assert_eq!(
                    rowm[r * k + c].to_bits(),
                    colm[c * padded + r].to_bits(),
                    "k={k}: element ({r}, {c}) differs from the column-major reference"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// GEQRT factorises correctly at every tile size in the tuned range,
    /// including odd ones, at any data scale.
    #[test]
    fn geqrt_valid_at_any_tilesize(
        ts in 4usize..48,
        seed in any::<u64>(),
        log_scale in -3i32..3,
    ) {
        let scale = 10f64.powi(log_scale);
        let err = geqrt_reconstruction_error(ts, seed, scale);
        prop_assert!(err < 1e-11 * scale.max(1.0), "ts={ts} err={err:.2e}");
    }

    /// The fused panel + trailing pair preserves the column Gram matrix
    /// (orthogonal-consistency) for arbitrary tile counts.
    #[test]
    fn fused_pair_preserves_gram(
        ts in prop::sample::select(vec![8usize, 12, 16, 24]),
        nbt in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = ts * nbt;
        let a0 = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let dev = Device::numeric(h100());
        let buf = dev.upload(a0.as_slice());
        let tau = dev.alloc::<f64>(n);
        let a = DMat::new(&buf, n);
        let t = DVec::new(&tau);
        let p = HyperParams::new(ts, 4, 1);
        ftsqrt(&dev, a, t, &p, 0, 0, nbt);
        ftsmqr(&dev, a, t, &p, 0, 0, nbt);
        let got = buf.to_vec();
        let implied = Matrix::<f64>::from_fn(n, n, |i, j| {
            if j < ts && i > j { 0.0 } else { got[j * n + i] }
        });
        let mut g_in = Matrix::<f64>::zeros(n, n);
        let mut g_out = Matrix::<f64>::zeros(n, n);
        reference::gemm(1.0, &a0, true, &a0, false, 0.0, &mut g_in);
        reference::gemm(1.0, &implied, true, &implied, false, 0.0, &mut g_out);
        let err = reference::max_abs_diff(&g_in, &g_out);
        prop_assert!(err < 1e-9, "ts={ts} nbt={nbt}: Gram drift {err:.2e}");
    }

    /// Lazy-transposed factorisation equals factorising the host-side
    /// transpose (the LQ-sweep correctness property), for any tile size.
    #[test]
    fn transposed_geqrt_matches_host_transpose(
        ts in prop::sample::select(vec![6usize, 8, 10, 16, 20]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a0 = Matrix::<f64>::from_fn(ts, ts, |_, _| rng.gen_range(-1.0..1.0));
        let p = HyperParams::new(ts.max(4), 1, 1);
        let dev = Device::numeric(h100());
        // Path 1: lazy transpose view.
        let b1 = dev.upload(a0.as_slice());
        let t1 = dev.alloc::<f64>(ts);
        geqrt(&dev, DMat::new(&b1, ts).t(), DVec::new(&t1), &p, 0, 0);
        // Path 2: eager host transpose.
        let at = a0.transposed();
        let b2 = dev.upload(at.as_slice());
        let t2 = dev.alloc::<f64>(ts);
        geqrt(&dev, DMat::new(&b2, ts), DVec::new(&t2), &p, 0, 0);
        // The stored factorisations must agree elementwise (path 1 is
        // stored transposed).
        let v1 = b1.to_vec();
        let v2 = b2.to_vec();
        for i in 0..ts {
            for j in 0..ts {
                let lazy = v1[i * ts + j]; // (j,i) of the transposed view
                let eager = v2[j * ts + i];
                prop_assert!((lazy - eager).abs() < 1e-13, "({i},{j}): {lazy} vs {eager}");
            }
        }
    }
}
