//! Comparator baselines for the unisvd reproduction.
//!
//! * [`jacobi`] — one-sided Jacobi SVD, the independent numeric accuracy
//!   oracle used throughout the test suite.
//! * [`onestage`] — one-stage Householder bidiagonalisation (`GEBRD`), the
//!   algorithm behind the vendor `gesvd` routines, implemented numerically
//!   for Table 1's bracketed reference column.
//! * [`library`] — the five comparator libraries of §4 (cuSOLVER,
//!   rocSOLVER, oneMKL, MAGMA, SLATE) as algorithm-faithful cost models
//!   replayed through the simulated devices.

#![forbid(unsafe_code)]

pub mod jacobi;
pub mod library;
pub mod onestage;

pub use jacobi::jacobi_svdvals;
pub use library::Library;
pub use onestage::{gebrd, onestage_svdvals};
