//! Host-side dense matrix types and reference linear algebra for unisvd.
//!
//! This crate provides:
//!
//! * [`Matrix`] — a column-major dense matrix (the Julia/LAPACK layout the
//!   paper's kernels assume) with a **lazy transpose** view ([`Matrix::t`]),
//!   mirroring the index-level transposition trick of §3.1 that lets one QR
//!   kernel implement both the QR and LQ sweeps.
//! * [`band`] — compact band storage and the bidiagonal pair produced by
//!   stage 2 of the reduction.
//! * [`householder`] — LAPACK's scale-safe `xLARFG` reflector generator
//!   and the fixed-order dot product, shared by the stage-2 chase and the
//!   host QR.
//! * [`reference`](mod@crate::reference) — host linear algebra: the
//!   Householder QR (on [`householder`]'s generator) that the plan stages
//!   every tall and wide solve through, and straightforward GEMM, `Q`
//!   formation and norms used as test oracles and by the test-matrix
//!   factory.
//! * [`testmat`] — the accuracy-experiment matrix factory of §3.2: matrices
//!   `A = U Σ Vᵀ` with Haar-random `U`, `V` and arithmetic / logarithmic /
//!   quarter-circle singular value distributions on `[0, 1]`.

#![forbid(unsafe_code)]

pub mod band;
pub mod dense;
pub mod householder;
pub mod reference;
pub mod testmat;

pub use band::{BandMatrix, Bidiagonal};
pub use dense::{Matrix, MatrixRef};
pub use testmat::SvDistribution;
