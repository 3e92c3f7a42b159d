//! Kernel hyperparameters (§3.3): `TILESIZE`, `COLPERBLOCK`, `SPLITK`.
//!
//! * `TILESIZE` is **algorithmic**: it fixes the tile grid and therefore
//!   the dependency graph and the bandwidth of the stage-1 band matrix.
//! * `COLPERBLOCK` and `SPLITK` are **computational**: the same operations
//!   run in the same order; only the launch geometry changes. `SPLITK`
//!   accordingly affects only the cost model here (the numeric kernel
//!   produces bit-identical results for any `SPLITK`, which is exactly the
//!   paper's definition of a computational parameter).

use unisvd_gpu::BackendKind;
use unisvd_scalar::PrecisionKind;

/// Hyperparameter set for the stage-1 kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HyperParams {
    /// Tile edge (threads per panel workgroup; band bandwidth).
    pub tilesize: usize,
    /// Columns per trailing-update workgroup.
    pub colperblock: usize,
    /// Panel column split factor (occupancy vs. communication trade).
    pub splitk: usize,
}

impl HyperParams {
    /// Validated constructor.
    ///
    /// # Panics
    /// If the combination violates the kernel contracts:
    /// `colperblock` must divide `tilesize` (cooperative-load unrolls of
    /// Algorithm 5), and `splitk ≤ min(tilesize, 1024 / tilesize)` (thread
    /// block size limit, §3.3).
    pub fn new(tilesize: usize, colperblock: usize, splitk: usize) -> Self {
        assert!(
            (4..=128).contains(&tilesize),
            "TILESIZE out of the tuned range [4,128]"
        );
        assert!(
            colperblock >= 1 && colperblock <= tilesize,
            "COLPERBLOCK must be in [1, TILESIZE]"
        );
        assert!(
            tilesize.is_multiple_of(colperblock),
            "COLPERBLOCK must divide TILESIZE (cooperative load unroll)"
        );
        assert!(splitk >= 1, "SPLITK must be positive");
        assert!(
            splitk <= tilesize.min(1024 / tilesize),
            "SPLITK exceeds thread-block limit min(TILESIZE, 1024/TILESIZE)"
        );
        HyperParams {
            tilesize,
            colperblock,
            splitk,
        }
    }

    /// The reference configuration of Table 3: `SPLITK=8`, `TILESIZE=32`,
    /// `COLPERBLOCK=32`.
    pub fn reference() -> Self {
        Self::new(32, 32, 8)
    }

    /// Brute-force-tuned defaults per (backend, precision), encoding the
    /// §3.3/§4.3 findings: larger tiles pay off on NVIDIA and on AMD in
    /// FP32; AMD FP64 wants small tiles (16 KB L1); AMD prefers wide
    /// blocks (64-lane wavefronts).
    pub fn tuned(backend: BackendKind, precision: PrecisionKind) -> Self {
        use BackendKind::*;
        use PrecisionKind::*;
        match (backend, precision) {
            (Cuda, Fp16) | (Cuda, Fp32) => Self::new(64, 32, 8),
            (Cuda, Fp64) => Self::new(64, 32, 8),
            (Rocm, Fp32) => Self::new(64, 64, 8),
            (Rocm, Fp64) => Self::new(32, 32, 8),
            (Rocm, Fp16) => Self::new(32, 32, 8), // unsupported; placeholder
            (Metal, _) => Self::new(32, 32, 4),
            (OneApi, _) => Self::new(32, 32, 8),
        }
    }

    /// Number of tiles per matrix side.
    ///
    /// # Panics
    /// If `n` is not a multiple of `tilesize` (the driver pads first).
    pub fn nbtiles(&self, n: usize) -> usize {
        assert!(
            n.is_multiple_of(self.tilesize),
            "matrix size must be a multiple of TILESIZE"
        );
        n / self.tilesize
    }
}

impl Default for HyperParams {
    fn default() -> Self {
        Self::reference()
    }
}

impl std::fmt::Display for HyperParams {
    /// Paper vocabulary, one token per hyperparameter — the form used in
    /// config summaries attached to bug reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TILESIZE={} COLPERBLOCK={} SPLITK={}",
            self.tilesize, self.colperblock, self.splitk
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_table3() {
        let p = HyperParams::reference();
        assert_eq!((p.tilesize, p.colperblock, p.splitk), (32, 32, 8));
    }

    #[test]
    fn tuned_covers_all_combinations() {
        for b in [
            BackendKind::Cuda,
            BackendKind::Rocm,
            BackendKind::OneApi,
            BackendKind::Metal,
        ] {
            for p in PrecisionKind::ALL {
                let hp = HyperParams::tuned(b, p);
                assert!(hp.tilesize.is_multiple_of(hp.colperblock));
            }
        }
        // AMD FP64 must use smaller tiles than AMD FP32 (§3.3).
        assert!(
            HyperParams::tuned(BackendKind::Rocm, PrecisionKind::Fp64).tilesize
                < HyperParams::tuned(BackendKind::Rocm, PrecisionKind::Fp32).tilesize
        );
    }

    #[test]
    fn display_uses_paper_vocabulary() {
        assert_eq!(
            HyperParams::reference().to_string(),
            "TILESIZE=32 COLPERBLOCK=32 SPLITK=8"
        );
    }

    #[test]
    fn nbtiles_and_threads() {
        let p = HyperParams::new(32, 16, 4);
        assert_eq!(p.nbtiles(128), 4);
    }

    #[test]
    #[should_panic(expected = "COLPERBLOCK must divide")]
    fn cpb_must_divide_ts() {
        let _ = HyperParams::new(32, 12, 1);
    }

    #[test]
    #[should_panic(expected = "SPLITK exceeds")]
    fn splitk_block_limit() {
        let _ = HyperParams::new(64, 32, 32); // 64*32 = 2048 > 1024 threads
    }

    #[test]
    #[should_panic]
    fn nbtiles_requires_multiple() {
        HyperParams::reference().nbtiles(100);
    }
}
