//! Table 3 — hyperparameter sensitivity, plus the SPLITK ablation and the
//! brute-force tuner of §3.3.

use crate::unified_seconds;
use serde::Serialize;
use unisvd_gpu::hw::{h100, mi250};
use unisvd_gpu::HardwareDescriptor;
use unisvd_kernels::HyperParams;
use unisvd_scalar::PrecisionKind;

/// Table 3 sizes.
pub const TABLE3_SIZES: [usize; 5] = [128, 512, 2048, 8192, 32768];

/// One Table 3 cell: % improvement when switching a single parameter.
#[derive(Clone, Debug, Serialize)]
pub struct Table3Row {
    /// Matrix size.
    pub n: usize,
    /// % improvement of TILESIZE 64 → 32 on (H100 FP32, H100 FP64,
    /// MI250 FP32, MI250 FP64). Positive = 32 is faster.
    pub tilesize_64_to_32: [f64; 4],
    /// % improvement of COLPERBLOCK 32 → 16, same platform order.
    /// (The paper reports the transition in this direction; negative
    /// values mean 16 is slower.)
    pub colperblock_32_to_16: [f64; 4],
}

fn pct_improvement(from: f64, to: f64) -> f64 {
    100.0 * (from - to) / from
}

fn platforms() -> [(HardwareDescriptor, PrecisionKind); 4] {
    [
        (h100(), PrecisionKind::Fp32),
        (h100(), PrecisionKind::Fp64),
        (mi250(), PrecisionKind::Fp32),
        (mi250(), PrecisionKind::Fp64),
    ]
}

/// Regenerates Table 3 against the reference configuration
/// `SPLITK=8, TILESIZE=32, COLPERBLOCK=32`.
pub fn table3() -> Vec<Table3Row> {
    let reference = HyperParams::new(32, 32, 8);
    let ts64 = HyperParams::new(64, 32, 8);
    let cpb16 = HyperParams::new(32, 16, 8);
    TABLE3_SIZES
        .iter()
        .map(|&n| {
            let mut row = Table3Row {
                n,
                tilesize_64_to_32: [0.0; 4],
                colperblock_32_to_16: [0.0; 4],
            };
            for (i, (hw, prec)) in platforms().iter().enumerate() {
                let t_ref = unified_seconds(hw, n, *prec, Some(reference), true).unwrap();
                let t_64 = unified_seconds(hw, n, *prec, Some(ts64), true).unwrap();
                let t_16 = unified_seconds(hw, n, *prec, Some(cpb16), true).unwrap();
                // "TILESIZE 64 to 32": improvement of the reference (32)
                // over the 64 variant.
                row.tilesize_64_to_32[i] = pct_improvement(t_64, t_ref);
                // "COLPERBLOCK 32 to 16": improvement of 16 over the
                // reference (32) — negative when 16 is slower.
                row.colperblock_32_to_16[i] = pct_improvement(t_ref, t_16);
            }
            row
        })
        .collect()
}

/// Paper's Table 3 values, same layout as [`Table3Row`] (for comparison
/// with the measured rows): (n, TILESIZE row, COLPERBLOCK row).
pub const PAPER_TABLE3: [(usize, [f64; 4], [f64; 4]); 5] = [
    (128, [38.0, 39.0, 30.0, 30.0], [2.1, 0.0, 0.0, -1.0]),
    (512, [40.0, 41.0, 32.0, 38.0], [0.7, 0.0, -0.2, 0.0]),
    (2048, [23.0, 23.0, 15.0, 35.0], [0.6, 0.5, 0.0, -0.1]),
    (8192, [2.0, 1.0, -10.0, 37.0], [-0.1, 0.1, -4.1, -7.1]),
    (
        32768,
        [-12.0, -7.0, -21.0, 50.0],
        [-3.6, -9.9, -21.1, -38.2],
    ),
];

/// Pretty-printer.
pub fn print_table3(rows: &[Table3Row]) {
    println!("\n== Table 3: single-parameter sensitivity vs reference (TS=32, CPB=32, SK=8) ==");
    println!("          |        H100        |       MI250        |");
    println!(
        "{:>9} | {:>8} {:>8} | {:>8} {:>8} |",
        "n", "FP32", "FP64", "FP32", "FP64"
    );
    println!("TILESIZE 64 -> 32 (% improvement; positive = 32 faster)");
    for r in rows {
        println!(
            "{:>9} | {:>7.0}% {:>7.0}% | {:>7.0}% {:>7.0}% |",
            r.n,
            r.tilesize_64_to_32[0],
            r.tilesize_64_to_32[1],
            r.tilesize_64_to_32[2],
            r.tilesize_64_to_32[3]
        );
    }
    println!("COLPERBLOCK 32 -> 16 (% improvement; negative = 16 slower)");
    for r in rows {
        println!(
            "{:>9} | {:>7.1}% {:>7.1}% | {:>7.1}% {:>7.1}% |",
            r.n,
            r.colperblock_32_to_16[0],
            r.colperblock_32_to_16[1],
            r.colperblock_32_to_16[2],
            r.colperblock_32_to_16[3]
        );
    }
}

/// SPLITK ablation (§3.2): panel-dominated runtime at a small size for
/// SPLITK ∈ {1, 2, 4, 8, 16}; the optimum balances chain shortening
/// against reduction communication.
pub fn splitk_ablation(n: usize) -> Vec<(usize, f64)> {
    [1usize, 2, 4, 8, 16]
        .iter()
        .filter(|&&sk| sk <= 32)
        .map(|&sk| {
            let p = HyperParams::new(32, 32, sk);
            let t = unified_seconds(&h100(), n, PrecisionKind::Fp32, Some(p), true).unwrap();
            (sk, t)
        })
        .collect()
}

/// Brute-force tuner over the §3.3 search space; returns the best
/// `(TILESIZE, COLPERBLOCK, SPLITK)` per platform × precision at size `n`.
pub fn tune(n: usize) -> Vec<(String, PrecisionKind, HyperParams, f64)> {
    let mut out = Vec::new();
    for hw in unisvd_gpu::hw::all_platforms() {
        for prec in PrecisionKind::ALL {
            if hw.supports(prec).is_err() {
                continue;
            }
            let mut best: Option<(HyperParams, f64)> = None;
            for ts in [8usize, 16, 32, 64, 128] {
                if ts > n {
                    continue;
                }
                for cpb in [8usize, 16, 32, 64] {
                    if cpb > ts || ts % cpb != 0 {
                        continue;
                    }
                    for sk in [1usize, 2, 4, 8, 16] {
                        if sk > ts.min(1024 / ts) {
                            continue;
                        }
                        let p = HyperParams::new(ts, cpb, sk);
                        if let Some(t) = unified_seconds(&hw, n, prec, Some(p), true) {
                            if best.is_none_or(|(_, bt)| t < bt) {
                                best = Some((p, t));
                            }
                        }
                    }
                }
            }
            if let Some((p, t)) = best {
                out.push((hw.name.to_string(), prec, p, t));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_signs_match_paper() {
        let rows = table3();
        let small = &rows[0]; // n = 128
        let large = &rows[4]; // n = 32768
                              // Small sizes: TILESIZE 32 beats 64 everywhere (occupancy /
                              // panel-latency effect).
        for i in 0..4 {
            assert!(
                small.tilesize_64_to_32[i] > 0.0,
                "n=128 platform {i}: TS=32 must win, got {:.1}%",
                small.tilesize_64_to_32[i]
            );
        }
        // Large sizes: TS=64 wins on H100 (both precisions) and MI250
        // FP32; TS=32 wins on MI250 FP64 (16 KB L1 spill) — the paper's
        // headline sign pattern.
        assert!(
            large.tilesize_64_to_32[0] < 0.0,
            "H100 FP32 at 32k: TS=64 must win"
        );
        assert!(
            large.tilesize_64_to_32[1] < 0.0,
            "H100 FP64 at 32k: TS=64 must win"
        );
        assert!(
            large.tilesize_64_to_32[2] < 0.0,
            "MI250 FP32 at 32k: TS=64 must win"
        );
        assert!(
            large.tilesize_64_to_32[3] > 0.0,
            "MI250 FP64 at 32k: TS=32 must win"
        );
        // COLPERBLOCK 16 hurts at large sizes, and most on MI250 FP64.
        for i in 0..4 {
            assert!(
                large.colperblock_32_to_16[i] < 0.5,
                "n=32768 platform {i}: CPB=16 must not win, got {:.1}%",
                large.colperblock_32_to_16[i]
            );
        }
        assert!(
            large.colperblock_32_to_16[3] <= large.colperblock_32_to_16[0],
            "CPB effect strongest on MI250 FP64 (paper: -38.2% vs -3.6%)"
        );
    }

    #[test]
    fn splitk_has_an_interior_optimum_or_monotone_gain() {
        let curve = splitk_ablation(512);
        assert_eq!(curve.len(), 5);
        // SPLITK > 1 must beat SPLITK = 1 somewhere (the §3.2 claim).
        let t1 = curve[0].1;
        assert!(
            curve[1..].iter().any(|&(_, t)| t < t1),
            "some SPLITK > 1 must outperform SPLITK = 1: {curve:?}"
        );
    }

    #[test]
    fn tuner_respects_constraints() {
        let best = tune(512);
        assert!(!best.is_empty());
        for (_, _, p, _) in &best {
            assert!(p.tilesize % p.colperblock == 0);
            assert!(p.splitk <= p.tilesize.min(1024 / p.tilesize));
        }
    }
}
