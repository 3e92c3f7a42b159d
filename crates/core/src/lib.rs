//! `unisvd-core`: two-stage QR-based singular value computation with a
//! unified, portable API — the Rust reproduction of the paper's primary
//! contribution.
//!
//! ```
//! use unisvd_core::svdvals;
//! use unisvd_gpu::{Device, hw};
//! use unisvd_matrix::Matrix;
//!
//! let a = Matrix::<f32>::identity(64);
//! let dev = Device::numeric(hw::h100());
//! let sv = svdvals(&a, &dev).unwrap();
//! assert!((sv[0] - 1.0).abs() < 1e-5);
//! ```
//!
//! The pipeline mirrors §3 of the paper:
//! 1. [`band_diag()`](band_diag::band_diag) — dense → band via tiled Householder QR/LQ sweeps on
//!    the (simulated) GPU, using the fused kernels of Fig. 2.
//! 2. [`band_to_bidiagonal`] — band → bidiagonal Householder bulge chasing.
//! 3. [`bdsqr`] / [`bisect`] — bidiagonal → singular values on the CPU.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod band2bi;
pub mod band_diag;
pub mod bidiag_svd;
mod bidiag_vectors;
pub mod dqds;
pub mod plan;
pub mod svd;
mod vectors;

pub use band2bi::{band_to_bidiagonal, band_to_bidiagonal_into};
pub use band_diag::{band_diag, extract_band_into, getsmqrt};
pub use bidiag_svd::{bdsqr, bdsqr_into, bisect, NoConvergence, Stage3Workspace};
pub use dqds::{dqds, dqds_into};
pub use plan::{PlanError, PlanProbe, PlanSignature, Svd, SvdPlan};
pub use svd::{
    resolve_params, svdvals, svdvals_with, Stage3Solver, SvdConfig, SvdError, SvdOutput, Want,
};
