//! Table 1 — relative error of the unified implementation (and the
//! one-stage "cuSOLVER" reference, in brackets in the paper) against known
//! singular values, maximised over three distributions × several matrices.

use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use unisvd_baselines::onestage_svdvals;
use unisvd_core::{svdvals_with, SvdConfig};
use unisvd_gpu::{hw, Device};
use unisvd_matrix::{reference::sv_relative_error, testmat, SvDistribution};
use unisvd_scalar::{PrecisionKind, Scalar, F16};

/// One row of Table 1.
#[derive(Clone, Debug, Serialize)]
pub struct AccuracyRow {
    /// Matrix size.
    pub n: usize,
    /// Max relative error of the unified implementation per precision
    /// (FP64, FP32, FP16).
    pub unified: [f64; 3],
    /// Max relative error of the one-stage reference (FP64, FP32, FP16).
    pub reference: [f64; 3],
}

fn max_err<T: Scalar>(n: usize, matrices_per_dist: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dev = Device::numeric(hw::h100());
    let mut worst_unified: f64 = 0.0;
    let mut worst_ref: f64 = 0.0;
    // Exact-Haar factors below 512 (cheap there), reflector products above.
    let fast = n > 512;
    for dist in SvDistribution::ALL {
        for _ in 0..matrices_per_dist {
            let (a, truth) = testmat::test_matrix::<T, _>(n, dist, fast, &mut rng);
            // Paper protocol (§3.2): "no precision-specific techniques,
            // such as rescaling, are applied" — disable the library's
            // auto-rescaling extension for this experiment.
            let cfg = SvdConfig {
                rescale: false,
                ..SvdConfig::default()
            };
            let sv = svdvals_with(&a, &dev, &cfg).expect("unified solve").values;
            worst_unified = worst_unified.max(sv_relative_error(&sv, &truth));
            let svr = onestage_svdvals(&a).expect("one-stage solve");
            worst_ref = worst_ref.max(sv_relative_error(&svr, &truth));
        }
    }
    (worst_unified, worst_ref)
}

/// Regenerates Table 1 for the given sizes with `matrices_per_dist`
/// matrices per distribution (the paper uses 10; the default harness uses
/// fewer to stay fast — pass `--full` for the paper count).
pub fn table1(sizes: &[usize], matrices_per_dist: usize) -> Vec<AccuracyRow> {
    sizes
        .iter()
        .map(|&n| {
            let (u64_, r64) = max_err::<f64>(n, matrices_per_dist, 0xACC0 + n as u64);
            let (u32_, r32) = max_err::<f32>(n, matrices_per_dist, 0xACC1 + n as u64);
            let (u16_, r16) = max_err::<F16>(n, matrices_per_dist, 0xACC2 + n as u64);
            AccuracyRow {
                n,
                unified: [u64_, u32_, u16_],
                reference: [r64, r32, r16],
            }
        })
        .collect()
}

/// Paper values for Table 1 (unified column), for comparison with the
/// measured rows: (n, FP64, FP32, FP16).
pub const PAPER_TABLE1_UNIFIED: [(usize, f64, f64, f64); 5] = [
    (64, 5.8e-16, 9.6e-8, 4.3e-3),
    (256, 8.3e-16, 8.1e-8, 3.3e-3),
    (1024, 1.4e-15, 7.2e-8, 6.4e-3),
    (4096, 3.7e-15, 6.7e-8, 6.2e-3),
    (16384, 6.1e-15, 8.7e-8, 9.7e-3),
];

/// Pretty-prints the table next to the paper's values.
pub fn print_table1(rows: &[AccuracyRow]) {
    println!("\n== Table 1: max relative error, unified (one-stage reference) ==");
    println!(
        "{:>7} | {:>22} | {:>22} | {:>22}",
        "n", "FP64", "FP32", "FP16"
    );
    for r in rows {
        println!(
            "{:>7} | {:>9.1e} ({:>9.1e}) | {:>9.1e} ({:>9.1e}) | {:>9.1e} ({:>9.1e})",
            r.n,
            r.unified[0],
            r.reference[0],
            r.unified[1],
            r.reference[1],
            r.unified[2],
            r.reference[2]
        );
    }
    println!("paper (unified): n=64: 5.8e-16/9.6e-8/4.3e-3 … n=16384: 6.1e-15/8.7e-8/9.7e-3");
    for (p, kind) in PrecisionKind::ALL.iter().rev().zip(0..3) {
        let _ = (p, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_error_scales_match_paper() {
        // One small row, one matrix per distribution — fast smoke check
        // that each precision lands in its Table 1 decade.
        let rows = table1(&[64], 1);
        let r = &rows[0];
        assert!(r.unified[0] < 1e-13, "FP64 error {:.2e}", r.unified[0]);
        assert!(r.unified[1] < 1e-5, "FP32 error {:.2e}", r.unified[1]);
        assert!(r.unified[2] < 3e-2, "FP16 error {:.2e}", r.unified[2]);
        // FP16 must be meaningfully worse than FP32, FP32 than FP64.
        assert!(r.unified[2] > r.unified[1]);
        assert!(r.unified[1] > r.unified[0]);
        // Reference (one-stage) errors are the same order of magnitude.
        for k in 0..3 {
            let ratio = r.unified[k] / r.reference[k].max(1e-300);
            assert!(
                ratio < 100.0 && ratio > 0.01,
                "precision {k}: ratio {ratio}"
            );
        }
    }
}
