//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `pub fn` regenerates one artifact and returns structured rows that
//! the `harness` binary prints (and optionally serialises to JSON); the
//! README's "Build, test, bench" section shows how to run it.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod figures;
pub mod hyperparams;
pub mod ratios;

use unisvd_core::{Svd, SvdConfig};
use unisvd_gpu::{Device, HardwareDescriptor, TraceSummary};
use unisvd_kernels::HyperParams;
use unisvd_matrix::Matrix;
use unisvd_scalar::{PrecisionKind, Scalar, F16};

/// Simulated runtime of the unified implementation at size `n`, from
/// [`Svd::cost`].
pub fn unified_seconds(
    hw: &HardwareDescriptor,
    n: usize,
    prec: PrecisionKind,
    params: Option<HyperParams>,
    fused: bool,
) -> Option<f64> {
    unified_summary(hw, n, prec, params, fused).map(|s| s.total_seconds())
}

/// Per-stage summary of the unified implementation: the per-execute
/// [`Svd::cost`] of an `n × n` plan, `None` outside the Table 2 support
/// matrix.
pub fn unified_summary(
    hw: &HardwareDescriptor,
    n: usize,
    prec: PrecisionKind,
    params: Option<HyperParams>,
    fused: bool,
) -> Option<TraceSummary> {
    fn cost<T: Scalar>(hw: &HardwareDescriptor, cfg: SvdConfig, n: usize) -> Option<TraceSummary> {
        Svd::on(hw).precision::<T>().config(cfg).cost(n, n).ok()
    }
    let cfg = SvdConfig {
        params,
        fused,
        ..SvdConfig::default()
    };
    match prec {
        PrecisionKind::Fp16 => cost::<F16>(hw, cfg, n),
        PrecisionKind::Fp32 => cost::<f32>(hw, cfg, n),
        PrecisionKind::Fp64 => cost::<f64>(hw, cfg, n),
    }
}

/// Simulated runtime of a comparator library.
pub fn library_seconds(
    lib: unisvd_baselines::Library,
    hw: &HardwareDescriptor,
    n: usize,
    prec: PrecisionKind,
) -> Option<f64> {
    if !lib.supports_backend(hw.backend) {
        return None;
    }
    let dev = Device::trace_only(hw.clone());
    lib.cost(&dev, n, prec).ok().map(|s| s.total_seconds())
}

/// Geometric mean of a nonempty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Power-of-two sweep `[lo, hi]`.
pub fn pow2_sizes(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = lo;
    while n <= hi {
        v.push(n);
        n *= 2;
    }
    v
}

/// Generic helper to run the numeric unified solver on a host matrix for
/// any precision tag (accuracy experiments).
pub fn numeric_svdvals<T: Scalar>(a: &Matrix<T>, hw: &HardwareDescriptor) -> Vec<f64> {
    let dev = Device::numeric(hw.clone());
    unisvd_core::svdvals(a, &dev).expect("numeric solve failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_gpu::hw::h100;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pow2_sweep() {
        assert_eq!(pow2_sizes(128, 1024), vec![128, 256, 512, 1024]);
    }

    #[test]
    fn unified_cost_monotone_in_n() {
        let hw = h100();
        let a = unified_seconds(&hw, 1024, PrecisionKind::Fp32, None, true).unwrap();
        let b = unified_seconds(&hw, 4096, PrecisionKind::Fp32, None, true).unwrap();
        assert!(b > a * 4.0, "cost should grow superlinearly: {a} -> {b}");
    }

    #[test]
    fn unsupported_precision_is_none() {
        use unisvd_gpu::hw::{m1_pro, mi250};
        assert!(unified_seconds(&mi250(), 512, PrecisionKind::Fp16, None, true).is_none());
        assert!(unified_seconds(&m1_pro(), 512, PrecisionKind::Fp64, None, true).is_none());
    }
}
