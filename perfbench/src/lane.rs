//! One request signature of a workload: its shape, precision and
//! configuration, its seeded inputs with their exact spectra, and the
//! direct plan and stage replica the checks and the trace run against.

use crate::gen;
use crate::replica::Replica;
use crate::trace::{Tracer, PLAN, ROOT};
use rand::rngs::StdRng;
use unisvd_core::{Svd, SvdConfig, SvdError, SvdOutput, SvdPlan, Want};
use unisvd_gpu::hw;
use unisvd_matrix::Matrix;
use unisvd_scalar::{Scalar, F16};
use unisvd_service::{ServiceError, SvdService, Ticket};

/// What one signature requests.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub rows: usize,
    pub cols: usize,
    pub cfg: SvdConfig,
}

/// An owned input on its way into `SvdService::submit`.
pub enum Owned {
    Half(Matrix<F16>),
    Single(Matrix<f32>),
    Double(Matrix<f64>),
}

impl Owned {
    pub fn submit(self, svc: &SvdService, cfg: &SvdConfig) -> Result<Ticket, ServiceError> {
        match self {
            Owned::Half(a) => svc.submit(a, cfg),
            Owned::Single(a) => svc.submit(a, cfg),
            Owned::Double(a) => svc.submit(a, cfg),
        }
    }
}

/// The storage precisions a workload can request.
pub trait Precision: Scalar {
    fn owned(a: Matrix<Self>) -> Owned;
    /// Largest accepted `max_i |σ̂ᵢ − σᵢ| / σ₁` against the exact
    /// spectrum of the unrounded input.
    const VALUE_TOL: f64;
}

impl Precision for F16 {
    fn owned(a: Matrix<Self>) -> Owned {
        Owned::Half(a)
    }
    const VALUE_TOL: f64 = 3e-2;
}

impl Precision for f32 {
    fn owned(a: Matrix<Self>) -> Owned {
        Owned::Single(a)
    }
    const VALUE_TOL: f64 = 1e-4;
}

impl Precision for f64 {
    fn owned(a: Matrix<Self>) -> Owned {
        Owned::Double(a)
    }
    const VALUE_TOL: f64 = 1e-11;
}

/// Largest accepted orthogonality loss or residual of `f64` factors.
pub const FACTOR_TOL: f64 = 1e-10;

/// A signature's operations, independent of its precision.
pub trait Lane: Send + Sync {
    fn spec(&self) -> &Spec;
    fn inputs(&self) -> usize;
    fn value_tol(&self) -> f64;
    /// `max_i |σ̂ᵢ − σᵢ| / σ₁` of `values` against input `i`'s spectrum
    /// (infinite when the count is wrong).
    fn rel_err(&self, i: usize, values: &[f64]) -> f64;
    /// Orthogonality loss and residual of the factors in `out` for input
    /// `i`, whichever is larger.
    fn factor_err(&self, i: usize, out: &SvdOutput) -> f64;
    /// A copy of input `i`, ready to submit.
    fn owned(&self, i: usize) -> Owned;
    /// Builds the direct plan under a `core.plan` span.
    fn plan(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// `SvdPlan::execute_into` of input `i` on the direct plan.
    fn execute(&mut self, i: usize, out: &mut SvdOutput) -> Result<(), SvdError>;
    /// `execute_into` of input `i` on a values-only twin of the plan
    /// (built on first use, under a `core.plan` span).
    fn execute_values(
        &mut self,
        i: usize,
        out: &mut SvdOutput,
        tr: &mut Tracer,
    ) -> Result<(), String>;
    /// The stage replica of input `i` (built on first use).
    fn replica(&mut self, i: usize, tr: &mut Tracer, req: u32) -> Result<&[f64], String>;
    /// `SvdService::solve` of input `i`.
    fn solve(&self, svc: &SvdService, i: usize) -> Result<SvdOutput, SvdError>;
    /// `SvdService::solve_batch` of the first `g` entries of the group
    /// (input `j % inputs()` at position `j`).
    fn solve_batch(&self, svc: &SvdService, g: usize) -> Vec<Result<SvdOutput, SvdError>>;
}

struct Typed<T: Precision> {
    spec: Spec,
    mats: Vec<Matrix<T>>,
    sigma: Vec<Vec<f64>>,
    group: Vec<Matrix<T>>,
    plan: Option<SvdPlan<T>>,
    twin: Option<SvdPlan<T>>,
    replica: Option<Replica<T>>,
}

/// A lane of `inputs` seeded inputs, plus a `group`-long cycled copy of
/// them for `solve_batch` (0 when unused).
pub fn lane<T: Precision>(
    spec: Spec,
    inputs: usize,
    group: usize,
    rng: &mut StdRng,
) -> Box<dyn Lane> {
    let (mats, sigma): (Vec<Matrix<T>>, Vec<Vec<f64>>) = (0..inputs)
        .map(|_| gen::matrix::<T>(spec.rows, spec.cols, rng))
        .unzip();
    let group = (0..group).map(|j| mats[j % inputs].clone()).collect();
    Box::new(Typed {
        spec,
        mats,
        sigma,
        group,
        plan: None,
        twin: None,
        replica: None,
    })
}

fn build<T: Precision>(
    cfg: SvdConfig,
    rows: usize,
    cols: usize,
    tr: &mut Tracer,
) -> Result<SvdPlan<T>, String> {
    tr.time(PLAN, ROOT, 0, || {
        Svd::on(&hw::h100())
            .precision::<T>()
            .config(cfg)
            .plan(rows, cols)
    })
    .map_err(|e| format!("planning {rows}x{cols}: {e}"))
}

impl<T: Precision> Lane for Typed<T> {
    fn spec(&self) -> &Spec {
        &self.spec
    }

    fn inputs(&self) -> usize {
        self.mats.len()
    }

    fn value_tol(&self) -> f64 {
        T::VALUE_TOL
    }

    fn rel_err(&self, i: usize, values: &[f64]) -> f64 {
        let sigma = &self.sigma[i];
        let want = match self.spec.cfg.vectors {
            Want::TopK(k) => k.min(sigma.len()),
            Want::None | Want::Thin => sigma.len(),
        };
        if values.len() != want {
            return f64::INFINITY;
        }
        values
            .iter()
            .zip(sigma)
            .map(|(v, s)| (v - s).abs() / sigma[0])
            .fold(0.0, f64::max)
    }

    fn factor_err(&self, i: usize, out: &SvdOutput) -> f64 {
        let (Some(u), Some(vt)) = (&out.u, &out.vt) else {
            return f64::INFINITY;
        };
        let a = &self.mats[i];
        let k = out.values.len();
        if u.cols() != k || vt.rows() != k {
            return f64::INFINITY;
        }
        let mut err: f64 = 0.0;
        // Orthonormal columns of U and rows of Vᵀ.
        for p in 0..k {
            for q in 0..k {
                let eye = if p == q { 1.0 } else { 0.0 };
                let uu: f64 = (0..u.rows()).map(|r| u[(r, p)] * u[(r, q)]).sum();
                let vv: f64 = (0..vt.cols()).map(|c| vt[(p, c)] * vt[(q, c)]).sum();
                err = err.max((uu - eye).abs()).max((vv - eye).abs());
            }
        }
        // A·vⱼ = σⱼ·uⱼ for every returned triplet; with all min(m, n)
        // triplets this is the reconstruction A = U·Σ·Vᵀ.
        let s1 = self.sigma[i][0];
        for j in 0..k {
            for r in 0..a.rows() {
                let av: f64 = (0..a.cols()).map(|c| a[(r, c)].to_f64() * vt[(j, c)]).sum();
                err = err.max((av - out.values[j] * u[(r, j)]).abs() / s1);
            }
        }
        err
    }

    fn owned(&self, i: usize) -> Owned {
        T::owned(self.mats[i].clone())
    }

    fn plan(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.plan = Some(build::<T>(
            self.spec.cfg,
            self.spec.rows,
            self.spec.cols,
            tr,
        )?);
        Ok(())
    }

    fn execute(&mut self, i: usize, out: &mut SvdOutput) -> Result<(), SvdError> {
        self.plan
            .as_mut()
            .expect("the lane was planned")
            .execute_into(&self.mats[i], out)
    }

    fn execute_values(
        &mut self,
        i: usize,
        out: &mut SvdOutput,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        if self.twin.is_none() {
            let cfg = SvdConfig {
                vectors: Want::None,
                ..self.spec.cfg
            };
            self.twin = Some(build::<T>(cfg, self.spec.rows, self.spec.cols, tr)?);
        }
        let twin = self.twin.as_mut().expect("built above");
        twin.execute_into(&self.mats[i], out)
            .map_err(|e| e.to_string())
    }

    fn replica(&mut self, i: usize, tr: &mut Tracer, req: u32) -> Result<&[f64], String> {
        if self.replica.is_none() {
            let plan = self.plan.as_ref().expect("the lane was planned");
            self.replica = Some(Replica::of(plan));
        }
        let rep = self.replica.as_mut().expect("built above");
        rep.run(&self.mats[i], tr, req)
    }

    fn solve(&self, svc: &SvdService, i: usize) -> Result<SvdOutput, SvdError> {
        svc.solve(&self.mats[i], &self.spec.cfg)
    }

    fn solve_batch(&self, svc: &SvdService, g: usize) -> Vec<Result<SvdOutput, SvdError>> {
        svc.solve_batch(&self.group[..g], &self.spec.cfg)
    }
}

/// Whether an error is within its tolerance (never for NaN).
pub fn within(err: f64, tol: f64) -> bool {
    err <= tol
}

/// Bitwise equality of two value lists.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
