//! Portable tile kernels for the two-stage SVD reduction (§3.2 of the
//! paper): panel factorisation (`GEQRT`, `TSQRT`, fused `FTSQRT`) and
//! trailing-submatrix update (`UNMQR`, `TSMQR`, fused `FTSMQR`), together
//! with the hyperparameter machinery (`TILESIZE`, `COLPERBLOCK`, `SPLITK`)
//! and the per-kernel launch-cost formulas.
//!
//! All kernels are generic over the storage precision `T: Scalar` and run
//! on any simulated backend through [`unisvd_gpu::Device`]; the LQ sweep
//! reuses them unchanged through the lazy-transpose view [`DMat::t`].

#![forbid(unsafe_code)]

pub mod accum;
pub mod cost;
mod lanes;
pub mod layout;
pub mod panel;
pub mod params;
pub mod update;

pub use accum::{account_accum_cost, reflector_apply};
pub use layout::{DMat, DVec};
pub use panel::{ftsqrt, geqrt, tsqrt};
pub use params::HyperParams;
pub use update::{ftsmqr, tsmqr, unmqr};
