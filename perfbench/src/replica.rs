//! The stage replica: one values-only solve rebuilt from the public stage
//! calls (`householder_qr_into`, `Device::upload_into`, `band_diag`,
//! `extract_band_into`, `band_to_bidiagonal_into`, `bdsqr_into` or
//! `dqds_into`), each inside its own span. It follows the order and
//! arithmetic of `SvdPlan::execute_into`, so its values must match the
//! plan's bit for bit; the traced run asserts that they do.

use crate::trace::{Tracer, CHASE, EXTRACT, HOST_QR, REPLICA, ROOT, STAGE1, STAGE3, UPLOAD};
use unisvd_core::{
    band_diag, band_to_bidiagonal_into, bdsqr_into, dqds_into, extract_band_into, Stage3Solver,
    Stage3Workspace, SvdConfig, SvdPlan, Want,
};
use unisvd_gpu::{Device, GlobalBuffer};
use unisvd_kernels::HyperParams;
use unisvd_matrix::reference::householder_qr_into;
use unisvd_matrix::{BandMatrix, Bidiagonal, Matrix};
use unisvd_scalar::{Real, Scalar};

/// How the plan maps its input onto the square device problem.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Zero-padded square.
    Direct,
    /// Host QR of the input (`rows ≥ 2·cols`), device solves `R`.
    Tall,
    /// Host QR of the transpose (`cols ≥ 2·rows`).
    Wide,
}

/// Workspaces for replaying one plan's solves stage by stage.
pub struct Replica<T: Scalar> {
    dev: Device,
    params: HyperParams,
    cfg: SvdConfig,
    rows: usize,
    cols: usize,
    padded: usize,
    shape: Shape,
    staging: Vec<T>,
    buf: GlobalBuffer<T>,
    tau: GlobalBuffer<T>,
    qr: Vec<f64>,
    qr_tau: Vec<f64>,
    band: BandMatrix<T::Accum>,
    bi: Bidiagonal<T::Accum>,
    s3: Stage3Workspace<T::Accum>,
    values: Vec<f64>,
}

impl<T: Scalar> Replica<T> {
    /// A replica of `plan`: same device model, parameters, padding and
    /// configuration, on a device of its own.
    pub fn of(plan: &SvdPlan<T>) -> Self {
        let (rows, cols) = plan.shape();
        let padded = plan.padded_n();
        let params = plan.params();
        let dev = Device::numeric(plan.device().hw().clone());
        let shape = if rows >= 2 * cols {
            Shape::Tall
        } else if cols >= 2 * rows {
            Shape::Wide
        } else {
            Shape::Direct
        };
        let buf = dev.alloc::<T>(padded * padded);
        let tau = dev.alloc::<T>(padded);
        Replica {
            params,
            cfg: *plan.config(),
            rows,
            cols,
            padded,
            shape,
            staging: vec![T::zero(); padded * padded],
            buf,
            tau,
            qr: vec![
                0.0;
                if shape == Shape::Direct {
                    0
                } else {
                    rows * cols
                }
            ],
            qr_tau: Vec::new(),
            band: BandMatrix::zeros(padded, 1, params.tilesize + 1),
            bi: Bidiagonal::new(Vec::new(), Vec::new()),
            s3: Stage3Workspace::default(),
            values: Vec::new(),
            dev,
        }
    }

    /// Replays one solve of `a` under a `bench.replica` span of request
    /// `req`; returns the values, truncated and rescaled as the plan's.
    pub fn run(&mut self, a: &Matrix<T>, tr: &mut Tracer, req: u32) -> Result<&[f64], String> {
        let root = tr.open(REPLICA, ROOT, req);
        let res = self.stages(a, tr, root, req);
        tr.close(root);
        res.map(|()| &self.values[..])
    }

    fn stages(
        &mut self,
        a: &Matrix<T>,
        tr: &mut Tracer,
        root: u32,
        req: u32,
    ) -> Result<(), String> {
        self.dev.reset();
        let scale = if self.cfg.rescale {
            let m = a.max_abs();
            if m > 0.0 && !(0.25..=4.0).contains(&m) {
                m
            } else {
                1.0
            }
        } else {
            1.0
        };
        let padded = self.padded;
        match self.shape {
            Shape::Direct => {
                for j in 0..self.cols {
                    for i in 0..self.rows {
                        self.staging[j * padded + i] = T::from_f64(a[(i, j)].to_f64() / scale);
                    }
                }
            }
            Shape::Tall | Shape::Wide => {
                let tall = self.shape == Shape::Tall;
                let (qm, qn) = if tall {
                    (self.rows, self.cols)
                } else {
                    (self.cols, self.rows)
                };
                let mut qr = Matrix::<f64>::from_col_major(qm, qn, std::mem::take(&mut self.qr));
                for j in 0..qn {
                    for i in 0..qm {
                        let v = if tall { a[(i, j)] } else { a[(j, i)] };
                        qr[(i, j)] = v.to_f64() / scale;
                    }
                }
                let qr_tau = &mut self.qr_tau;
                tr.time(HOST_QR, root, req, || householder_qr_into(&mut qr, qr_tau));
                for j in 0..qn {
                    for i in 0..=j {
                        self.staging[j * padded + i] = T::from_f64(qr[(i, j)]);
                    }
                }
                self.qr = qr.into_vec();
            }
        }
        let (dev, buf, tau) = (&self.dev, &self.buf, &self.tau);
        tr.time(UPLOAD, root, req, || dev.upload_into(&self.staging, buf));
        tau.fill(T::zero());
        let (p, fused, ts) = (&self.params, self.cfg.fused, self.params.tilesize);
        tr.time(STAGE1, root, req, || {
            band_diag(dev, buf, tau, padded, p, fused)
        });
        let band = &mut self.band;
        tr.time(EXTRACT, root, req, || {
            extract_band_into::<T>(dev, buf, padded, ts, band)
        });
        let bi = &mut self.bi;
        tr.time(CHASE, root, req, || {
            band_to_bidiagonal_into(dev, band, ts, T::KIND, ts, bi)
        });
        let s3 = &mut self.s3;
        let solved = tr.time(STAGE3, root, req, || match self.cfg.solver {
            Stage3Solver::Bdsqr => bdsqr_into(bi, s3),
            Stage3Solver::Dqds => dqds_into(bi, s3),
            Stage3Solver::Bisect => unreachable!("the workloads plan bdsqr and dqds only"),
        });
        solved.map_err(|e| format!("replica stage 3: {e}"))?;
        self.values.clear();
        self.values.extend(s3.values().iter().map(|x| x.to_f64()));
        let mindim = self.rows.min(self.cols);
        self.values.truncate(mindim);
        if let Want::TopK(k) = self.cfg.vectors {
            self.values.truncate(k.min(mindim));
        }
        if scale != 1.0 {
            self.values.iter_mut().for_each(|v| *v *= scale);
        }
        Ok(())
    }
}
