//! Simulated comparator libraries — the paper's evaluation set (§4.1):
//! cuSOLVER, rocSOLVER, oneMKL, MAGMA and SLATE.
//!
//! Each comparator is modelled as the **algorithm that library actually
//! runs** (one-stage `gebrd` for the vendor `gesvd`s; hybrid CPU–GPU
//! one-stage for MAGMA; tiled task-scheduled two-stage for SLATE),
//! replayed through the same simulated device and roofline cost model as
//! the unified implementation. Crossovers therefore emerge from event
//! counts — launch storms, PCIe round trips, memory-bound BLAS-2 sweeps —
//! not from hard-coded outcomes.
//!
//! # Calibration constants
//!
//! The per-library efficiency envelopes below are the only free
//! parameters. They are set **once**, globally, against the performance
//! envelopes the paper reports (Table 4), and never varied per experiment:
//!
//! | library   | compute eff | effective-bandwidth eff | extras |
//! |-----------|-------------|-------------------------|--------|
//! | cuSOLVER  | 0.85 (cuBLAS GEMM) | 1.0                | GPU-resident QR iteration |
//! | rocSOLVER | 0.60        | 0.22 (unblocked BLAS-2) | 6 launches/column |
//! | oneMKL    | 0.70        | 0.25                    | CPU path for n ≤ 1024 |
//! | MAGMA     | 0.85        | 0.50                    | CPU panels + PCIe round trips; CPU path for n ≤ 256 |
//! | SLATE     | 0.60        | 0.80                    | per-task runtime overhead (1 ms HPC / 4 ms laptop) + startup (5 ms / 2 s) |

use unisvd_gpu::{
    BackendKind, Device, KernelClass, LaunchSpec, TraceSummary, UnsupportedPrecision,
};
use unisvd_scalar::PrecisionKind;

/// Injects a host-side latency into the trace (scheduler overhead,
/// library startup) through the CPU-work accounting. `seconds` is the
/// latency on a reference HPC host (1.8 TFLOP/s); weaker hosts take
/// proportionally longer.
fn host_overhead(dev: &Device, class: KernelClass, label: &'static str, seconds: f64) {
    let flops = seconds * 1.8e12; // reference-host seconds → flops
    if flops > 0.0 {
        dev.cpu_work(class, label, flops, 1.0);
    }
}

/// A comparator library.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Library {
    /// NVIDIA cuSOLVER `cusolverDnXgesvd` (GPU-resident one-stage).
    CuSolver,
    /// AMD rocSOLVER `rocsolver_Xgesvd` (largely unblocked one-stage).
    RocSolver,
    /// Intel oneMKL `oneapi::mkl::lapack::gesvd`.
    OneMkl,
    /// MAGMA `testing_Xgesvd` (hybrid CPU–GPU one-stage).
    Magma,
    /// SLATE `svd` (tiled two-stage over a task runtime).
    Slate,
}

impl Library {
    /// All five comparators.
    pub const ALL: [Library; 5] = [
        Library::CuSolver,
        Library::RocSolver,
        Library::OneMkl,
        Library::Magma,
        Library::Slate,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Library::CuSolver => "cuSOLVER",
            Library::RocSolver => "rocSOLVER",
            Library::OneMkl => "oneMKL",
            Library::Magma => "MAGMA",
            Library::Slate => "SLATE",
        }
    }

    /// Which backends the library runs on (the paper's comparison matrix:
    /// vendor libraries are vendor-locked; MAGMA and SLATE cover NVIDIA
    /// and AMD).
    pub fn supports_backend(self, b: BackendKind) -> bool {
        match self {
            Library::CuSolver => b == BackendKind::Cuda,
            Library::RocSolver => b == BackendKind::Rocm,
            Library::OneMkl => b == BackendKind::OneApi,
            Library::Magma | Library::Slate => b == BackendKind::Cuda || b == BackendKind::Rocm,
        }
    }

    /// Emits the library's launch/transfer/CPU stream for one `n × n`
    /// singular value computation onto `dev` and returns the accumulated
    /// summary. Works in either execution mode (the stream carries no
    /// numerics). The caller is responsible for `dev.reset()` beforehand.
    pub fn cost(
        self,
        dev: &Device,
        n: usize,
        prec: PrecisionKind,
    ) -> Result<TraceSummary, UnsupportedPrecision> {
        assert!(
            self.supports_backend(dev.hw().backend),
            "{} does not run on {}",
            self.name(),
            dev.hw().backend.name()
        );
        dev.supports(prec)?;
        match self {
            Library::CuSolver => {
                // cusolverDn handle + workspace management per call.
                host_overhead(dev, KernelClass::Other, "cusolver_setup", 0.5e-3);
                if n <= 256 {
                    // Small-size batched/fused path: one fused gebrd
                    // kernel plus a bounded QR-iteration sweep sequence.
                    let mut sp = LaunchSpec::new(
                        KernelClass::PanelFactorization,
                        "gebrd_small",
                        (n / 32).max(1),
                        256,
                    );
                    sp.precision = prec;
                    sp.flops = 8.0 / 3.0 * (n as f64).powi(3);
                    sp.bytes = 2.0 * (n * n * prec.bytes()) as f64;
                    sp.efficiency = 0.5;
                    dev.charge(&sp);
                    for _ in 0..40 {
                        let mut sw =
                            LaunchSpec::new(KernelClass::BidiagonalSvd, "gpu_bdsqr_sweep", 1, 256);
                        sw.precision = prec;
                        sw.flops = 60.0 * n as f64;
                        dev.charge(&sw);
                    }
                } else {
                    onestage_gpu(dev, n, prec, 64, 0.85, 1.0, 2);
                }
            }
            Library::RocSolver => onestage_gpu(dev, n, prec, 1, 0.60, 0.22, 6),
            Library::OneMkl => {
                if n <= 1024 {
                    cpu_gesvd(dev, n, 0.5);
                } else {
                    onestage_gpu(dev, n, prec, 64, 0.70, 0.25, 2);
                }
            }
            Library::Magma => {
                // Library-call overhead: workspace query + allocation.
                host_overhead(dev, KernelClass::Other, "magma_setup", 0.3e-3);
                if n <= 256 {
                    cpu_gesvd(dev, n, 0.5);
                    // testing_gesvd still stages the matrix on the GPU.
                    dev.transfer("magma_h2d", (n * n * prec.bytes()) as f64);
                } else {
                    magma_hybrid(dev, n, prec);
                }
            }
            Library::Slate => slate_tiled(dev, n, prec),
        }
        Ok(dev.summary())
    }
}

/// Host LAPACK `gesvd` fallback path (small sizes).
fn cpu_gesvd(dev: &Device, n: usize, eff: f64) {
    let flops = (8.0 / 3.0 + 4.0) * (n as f64).powi(3);
    dev.cpu_work(KernelClass::Other, "cpu_gesvd", flops, eff);
}

/// GPU-resident one-stage `gebrd` + QR iteration.
///
/// * `nb` — panel width (1 = unblocked, the rocSOLVER case).
/// * `gemm_eff` — BLAS-3 compute efficiency.
/// * `mem_eff` — effective-bandwidth factor of the BLAS-2 sweeps
///   (bytes are inflated by `1/mem_eff`).
/// * `launches_per_col` — kernel launches per column in the BLAS-2 phase.
fn onestage_gpu(
    dev: &Device,
    n: usize,
    prec: PrecisionKind,
    nb: usize,
    gemm_eff: f64,
    mem_eff: f64,
    launches_per_col: usize,
) {
    let elem = prec.bytes() as f64;
    let mut k = 0usize;
    while k < n {
        let width = nb.min(n - k);
        let m = (n - k) as f64;
        // BLAS-2 phase: per column, `launches_per_col` memory-bound
        // matrix–vector-shaped kernels over the trailing (m × m) block.
        for _ in 0..width {
            for l in 0..launches_per_col {
                let mut s = LaunchSpec::new(
                    KernelClass::PanelFactorization,
                    "gebrd_gemv",
                    (m as usize / 256).max(1),
                    256,
                );
                s.precision = prec;
                if l < 2 {
                    // The two real gemvs carry the traffic …
                    s.flops = 2.0 * m * m;
                    s.bytes = m * m * elem / mem_eff;
                } else {
                    // … the rest are small norm/scal/ger helpers.
                    s.flops = 2.0 * m;
                    s.bytes = 2.0 * m * elem;
                }
                s.efficiency = gemm_eff;
                dev.charge(&s);
            }
        }
        // BLAS-3 phase: two rank-`nb` trailing updates (absent when
        // unblocked).
        if nb > 1 {
            for _ in 0..2 {
                let mut s = LaunchSpec::new(
                    KernelClass::TrailingUpdate,
                    "gebrd_gemm",
                    ((m * m) as usize / (256 * 64)).max(1),
                    256,
                );
                s.precision = prec;
                s.flops = 2.0 * m * m * width as f64;
                s.bytes = (2.0 * m * m + 2.0 * m * width as f64) * elem;
                s.efficiency = gemm_eff;
                dev.charge(&s);
            }
        }
        k += width;
    }
    // Bidiagonal QR iteration, GPU-resident for cuSOLVER-style libraries:
    // an iterative sweep sequence, ~n/2 dependent kernel launches.
    for _ in 0..(n / 2).max(1) {
        let mut s = LaunchSpec::new(
            KernelClass::BidiagonalSvd,
            "gpu_bdsqr_sweep",
            (n / 256).max(1),
            256,
        );
        s.precision = prec;
        s.flops = 60.0 * n as f64;
        s.bytes = 20.0 * n as f64 * elem;
        s.efficiency = 0.5;
        dev.charge(&s);
    }
}

/// MAGMA-style hybrid one-stage: panels factored on the CPU with PCIe
/// round trips, BLAS-2 gemvs and BLAS-3 updates on the GPU.
fn magma_hybrid(dev: &Device, n: usize, prec: PrecisionKind) {
    let elem = prec.bytes() as f64;
    let nb = 64usize;
    dev.transfer("magma_h2d", (n * n) as f64 * elem);
    let mut k = 0usize;
    while k < n {
        let width = nb.min(n - k);
        let m = (n - k) as f64;
        // Panel to host, factor on CPU, panel back.
        dev.transfer("magma_panel_d2h", m * width as f64 * elem);
        dev.cpu_work(
            KernelClass::PanelFactorization,
            "magma_cpu_panel",
            4.0 * m * (width * width) as f64,
            0.3,
        );
        dev.transfer("magma_panel_h2d", m * width as f64 * elem);
        // BLAS-2 gemvs on the GPU (the memory-bound bulk), at a lower
        // effective bandwidth than cuSOLVER's fused kernels.
        let mut s = LaunchSpec::new(
            KernelClass::PanelFactorization,
            "magma_gemv",
            (m as usize / 256).max(1),
            256,
        );
        s.precision = prec;
        s.flops = 4.0 * m * m * width as f64;
        s.bytes = 2.0 * m * m * width as f64 * elem / 0.5;
        s.efficiency = 0.85;
        dev.charge(&s);
        // BLAS-3 trailing update.
        let mut s = LaunchSpec::new(
            KernelClass::TrailingUpdate,
            "magma_gemm",
            ((m * m) as usize / (256 * 64)).max(1),
            256,
        );
        s.precision = prec;
        s.flops = 4.0 * m * m * width as f64;
        s.bytes = (2.0 * m * m + 4.0 * m * width as f64) * elem;
        s.efficiency = 0.85;
        dev.charge(&s);
        k += width;
    }
    // Bidiagonal solve on the CPU.
    dev.cpu_work(
        KernelClass::BidiagonalSvd,
        "magma_bdsqr",
        10.0 * (n * n) as f64,
        0.15,
    );
}

/// SLATE-style tiled two-stage over a task runtime: good tile kernels,
/// but every tile operation is a scheduled task with host-side dispatch
/// overhead — ruinous on consumer machines (the Fig. 3 right panel).
fn slate_tiled(dev: &Device, n: usize, prec: PrecisionKind) {
    let elem = prec.bytes() as f64;
    let nb = 192usize;
    let nbt = n.div_ceil(nb).max(1);
    // Task dispatch + internal tile staging overhead per task: measured
    // SLATE svd behaviour is dominated by its runtime, and it assumes an
    // MPI-capable HPC node — on consumer machines both the per-task cost
    // and the startup (MPI_Init, planning) balloon (Fig. 3 right panel).
    let hpc = dev.hw().cpu_flops >= 0.8e12;
    let task_overhead = if hpc { 1.0e-3 } else { 4.0e-3 };
    host_overhead(
        dev,
        KernelClass::Other,
        "slate_startup",
        if hpc { 5.0e-3 } else { 2.0 },
    );
    dev.transfer("slate_h2d", (n * n) as f64 * elem);

    // ge2tb: panel factorisations run on the host (tiles round-trip over
    // PCIe), trailing updates as device tile-GEMM tasks.
    let mut tasks = 0usize;
    for k in 0..nbt {
        let rem = nbt - k;
        let m = (n - k * nb) as f64;
        // Panel on CPU + tile round trips (both QR and LQ sweeps).
        dev.cpu_work(
            KernelClass::PanelFactorization,
            "slate_cpu_panel",
            2.0 * 2.0 * m * (nb * nb) as f64,
            0.2,
        );
        dev.transfer("slate_panel_d2h", m * nb as f64 * elem);
        dev.transfer("slate_panel_h2d", m * nb as f64 * elem);
        tasks += 2 * (rem + rem * rem);
    }
    host_overhead(
        dev,
        KernelClass::Other,
        "slate_task_dispatch",
        tasks as f64 * task_overhead,
    );

    // Device tile tasks: vendor-BLAS tile GEMMs.
    let mut s = LaunchSpec::new(
        KernelClass::TrailingUpdate,
        "slate_tiles",
        (tasks / 2).max(1),
        256,
    );
    s.precision = prec;
    s.flops = 8.0 / 3.0 * (n as f64).powi(3);
    s.bytes = (n as f64).powi(3) / nb as f64 * elem * 2.0;
    s.efficiency = 0.60;
    dev.charge(&s);

    // Stage 2 + 3 on the host.
    dev.cpu_work(
        KernelClass::BandToBidiagonal,
        "slate_tb2bd",
        6.0 * (n * n * nb) as f64,
        0.3,
    );
    dev.cpu_work(
        KernelClass::BidiagonalSvd,
        "slate_bdsqr",
        10.0 * (n * n) as f64,
        0.15,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use unisvd_gpu::hw::{h100, mi250, pvc, rtx4060};

    fn cost(lib: Library, dev: &Device, n: usize) -> f64 {
        dev.reset();
        lib.cost(dev, n, PrecisionKind::Fp32)
            .unwrap()
            .total_seconds()
    }

    #[test]
    fn backend_matrix() {
        assert!(Library::CuSolver.supports_backend(BackendKind::Cuda));
        assert!(!Library::CuSolver.supports_backend(BackendKind::Rocm));
        assert!(Library::Magma.supports_backend(BackendKind::Rocm));
        assert!(!Library::Slate.supports_backend(BackendKind::OneApi));
        assert!(Library::OneMkl.supports_backend(BackendKind::OneApi));
    }

    #[test]
    #[should_panic(expected = "does not run on")]
    fn wrong_backend_panics() {
        let dev = Device::trace_only(pvc());
        let _ = Library::CuSolver.cost(&dev, 128, PrecisionKind::Fp32);
    }

    #[test]
    fn costs_grow_with_n() {
        let dev = Device::trace_only(h100());
        for lib in [Library::CuSolver, Library::Magma, Library::Slate] {
            let small = cost(lib, &dev, 512);
            let large = cost(lib, &dev, 4096);
            assert!(large > small * 2.0, "{}: {small} -> {large}", lib.name());
        }
    }

    #[test]
    fn rocsolver_unblocked_is_memory_and_launch_bound() {
        let amd = Device::trace_only(mi250());
        let t_roc = cost(Library::RocSolver, &amd, 4096);
        let nvd = Device::trace_only(h100());
        let t_cus = cost(Library::CuSolver, &nvd, 4096);
        // rocSOLVER's unblocked sweep must be far slower than cuSOLVER's
        // blocked one even granting MI250's higher bandwidth.
        assert!(t_roc > 2.0 * t_cus, "rocSOLVER {t_roc} vs cuSOLVER {t_cus}");
    }

    #[test]
    fn slate_is_catastrophic_on_laptops() {
        let laptop = Device::trace_only(rtx4060());
        let hpc = Device::trace_only(h100());
        let t_laptop = cost(Library::Slate, &laptop, 2048);
        let t_hpc = cost(Library::Slate, &hpc, 2048);
        assert!(
            t_laptop > 5.0 * t_hpc,
            "SLATE laptop {t_laptop} vs HPC {t_hpc} (Fig. 3 right panel)"
        );
    }

    #[test]
    fn onemkl_cpu_path_fast_at_small_sizes() {
        let dev = Device::trace_only(pvc());
        let t128 = cost(Library::OneMkl, &dev, 128);
        assert!(
            t128 < 1.0e-3,
            "oneMKL small-n CPU path should be sub-ms, got {t128}"
        );
    }

    #[test]
    fn fp64_unsupported_on_metal_for_libraries_too() {
        // (No library runs on Metal anyway, but the precision check comes
        // first on supported backends.)
        let dev = Device::trace_only(mi250());
        assert!(Library::RocSolver
            .cost(&dev, 128, PrecisionKind::Fp16)
            .is_err());
    }
}
