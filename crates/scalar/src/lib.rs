//! Scalar and precision abstractions for the unisvd workspace.
//!
//! The paper's unified API is generic over the input data precision: the same
//! kernels run in FP16, FP32 and FP64, with the compiler specialising the
//! arithmetic per type. This crate provides the Rust equivalent:
//!
//! * [`Real`] — the closed set of *compute* types (`f32`, `f64`) with the
//!   floating-point operations the kernels need.
//! * [`Scalar`] — the *storage* types (`F16`, `f32`, `f64`). Each storage
//!   type names an associated [`Scalar::Accum`] compute type; FP16 storage
//!   accumulates in FP32, exactly matching the paper's observation that on
//!   current GPUs "FP16 inputs are upcast to FP32 during computation and
//!   downcast at storage time" (§4.3).
//! * [`F16`] — a from-scratch software implementation of IEEE 754 binary16
//!   (round-to-nearest-even, subnormals, infinities, NaN) so that no external
//!   half-precision crate is needed.

#![forbid(unsafe_code)]

mod f16;
mod real;
mod scalar;

pub use f16::F16;
pub use real::Real;
pub use scalar::{PrecisionKind, Scalar};
