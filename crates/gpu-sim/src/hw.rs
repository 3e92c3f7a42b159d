//! Hardware descriptors for the six platforms of Table 2, plus the
//! capability matrix (which precisions each backend supports).
//!
//! Numbers are taken from Table 2 of the paper where given; fields the paper
//! leaves out (register file size, launch overhead, PCIe bandwidth, Apple
//! specs marked "N.A.") use public datasheet values or conservative
//! estimates, noted inline.

use crate::fault::FaultPlan;
use serde::Serialize;
use unisvd_scalar::PrecisionKind;

/// GPU vendor/backend, mirroring the KernelAbstractions.jl backend set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum BackendKind {
    /// NVIDIA (CUDA.jl in the paper).
    Cuda,
    /// AMD (AMDGPU.jl).
    Rocm,
    /// Intel (oneAPI.jl).
    OneApi,
    /// Apple (Metal.jl).
    Metal,
}

impl BackendKind {
    /// Short display name.
    pub const fn name(self) -> &'static str {
        match self {
            BackendKind::Cuda => "CUDA",
            BackendKind::Rocm => "ROCm",
            BackendKind::OneApi => "oneAPI",
            BackendKind::Metal => "Metal",
        }
    }
}

/// How the backend executes FP16 arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Fp16Mode {
    /// Scalar FP16 unsupported on the ALUs; inputs are upcast to FP32 at
    /// load and downcast at store (NVIDIA per §4.3).
    UpcastFp32,
    /// Native scalar FP16 (Apple Metal).
    Native,
    /// The software stack cannot run FP16 at all (AMD Julia stack at the
    /// time of the paper: "Julia AMD GPU currently does not support
    /// conversion at calculation time for FP16", Fig. 5 caption).
    Unsupported,
}

/// Static description of one GPU platform (one row of Table 2).
///
/// Descriptor **identity** is the [`name`](Self::name) field: every
/// constructor in [`hw`](crate::hw) uses a distinct static name, plan
/// signatures key on it, and fleet routers use it to label devices.
/// The derived `PartialEq` compares every field, so two descriptors are
/// equal exactly when they describe the same configuration of the same
/// platform.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct HardwareDescriptor {
    /// Marketing name, e.g. "NVIDIA H100".
    pub name: &'static str,
    /// Vendor backend.
    pub backend: BackendKind,
    /// Streaming multiprocessors / compute units / cores.
    pub sm_count: u32,
    /// L1 (shared-memory-carved) cache per SM, bytes.
    pub l1_bytes: u64,
    /// Device-wide L2 cache, bytes.
    pub l2_bytes: u64,
    /// DRAM bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Peak FP32 throughput, FLOP/s.
    pub fp32_flops: f64,
    /// FP64 throughput as a fraction of FP32 (0 = unsupported).
    pub fp64_ratio: f64,
    /// FP16 execution mode.
    pub fp16_mode: Fp16Mode,
    /// Boost clock, Hz.
    pub clock_hz: f64,
    /// Threads per warp / wavefront / SIMD-group.
    pub warp_size: u32,
    /// Register file bytes per SM.
    pub regfile_bytes: u64,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Max resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Device memory, bytes.
    pub memory_bytes: u64,
    /// Fixed cost of one kernel launch, seconds.
    pub launch_overhead_s: f64,
    /// Host↔device transfer bandwidth (PCIe/NVLink/unified), bytes/second.
    pub pcie_bandwidth: f64,
    /// Host CPU double-precision throughput, FLOP/s (for the hybrid
    /// baselines that run panel/solver stages on the CPU).
    pub cpu_flops: f64,
    /// Optional seeded fault schedule ([`FaultPlan`]): every
    /// [`Device`](crate::Device) built from this descriptor injects the
    /// plan's faults deterministically. `None` (the default for all
    /// shipped platforms) means a fault-free device. Excluded from
    /// descriptor *identity* ([`is_same_device`](Self::is_same_device))
    /// but part of the derived `PartialEq`, like every other
    /// configuration field.
    pub fault: Option<FaultPlan>,
}

impl HardwareDescriptor {
    /// Peak device FLOP/s at a given precision. FP16 follows
    /// [`Fp16Mode`]: upcast runs at FP32 rate (paper §4.3).
    pub fn peak_flops(&self, p: PrecisionKind) -> f64 {
        match p {
            PrecisionKind::Fp32 => self.fp32_flops,
            PrecisionKind::Fp64 => self.fp32_flops * self.fp64_ratio,
            PrecisionKind::Fp16 => match self.fp16_mode {
                Fp16Mode::UpcastFp32 => self.fp32_flops,
                Fp16Mode::Native => self.fp32_flops,
                Fp16Mode::Unsupported => 0.0,
            },
        }
    }

    /// Whether the backend + software stack supports a precision, with the
    /// paper's support matrix: no FP64 on Metal, no FP16 on ROCm (Julia
    /// stack limitation), everything on CUDA/oneAPI.
    pub fn supports(&self, p: PrecisionKind) -> Result<(), UnsupportedPrecision> {
        let ok = match p {
            PrecisionKind::Fp16 => self.fp16_mode != Fp16Mode::Unsupported,
            PrecisionKind::Fp32 => true,
            PrecisionKind::Fp64 => self.fp64_ratio > 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(UnsupportedPrecision {
                device: self.name,
                precision: p,
            })
        }
    }

    /// Whether a working set of `bytes` fits in device memory, with a 25%
    /// headroom factor for workspace (τ factors, staging buffers).
    pub fn fits(&self, bytes: u64) -> bool {
        (bytes as f64) * 1.3 <= self.memory_bytes as f64
    }

    /// Whether this descriptor names the same device as `other` —
    /// descriptor identity, as opposed to the derived `PartialEq`'s
    /// full-configuration equality. Fleet routing and plan signatures
    /// key on this.
    pub fn is_same_device(&self, other: &HardwareDescriptor) -> bool {
        self.name == other.name
    }

    /// Returns this descriptor with a [`FaultPlan`] attached: every
    /// device and ledger built from the result injects the plan's
    /// faults deterministically. Chaos tests and benches use this; the
    /// shipped platform constructors never set a plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Largest power-of-two square matrix of precision `p` that fits,
    /// reproducing Fig. 5's capacity effect (FP16 reaches 131k on H100).
    pub fn max_pow2_matrix(&self, p: PrecisionKind) -> usize {
        let mut n = 128usize;
        while self.fits(((2 * n) as u64).pow(2) * p.bytes() as u64) {
            n *= 2;
        }
        n
    }
}

/// Error returned when a (device, precision) pair is outside the support
/// matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedPrecision {
    /// Device name.
    pub device: &'static str,
    /// The unsupported precision.
    pub precision: PrecisionKind,
}

impl std::fmt::Display for UnsupportedPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} does not support {}", self.device, self.precision)
    }
}

impl std::error::Error for UnsupportedPrecision {}

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;
const GB: u64 = 1024 * MB;

/// NVIDIA H100 SXM (Table 2 row 1).
pub fn h100() -> HardwareDescriptor {
    HardwareDescriptor {
        name: "NVIDIA H100",
        backend: BackendKind::Cuda,
        sm_count: 132,
        l1_bytes: 256 * KB,
        l2_bytes: 50 * MB,
        bandwidth: 3.36e12,
        fp32_flops: 67e12,
        fp64_ratio: 0.5,
        fp16_mode: Fp16Mode::UpcastFp32,
        clock_hz: 1.980e9,
        warp_size: 32,
        regfile_bytes: 256 * KB, // 64k 32-bit registers per SM
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        memory_bytes: 80 * GB,
        launch_overhead_s: 4.0e-6,
        pcie_bandwidth: 55e9, // NVLink-attached host bridge
        cpu_flops: 1.8e12,    // Xeon Platinum 8462Y (2.8 GHz, 32c, AVX-512)
        fault: None,
    }
}

/// NVIDIA A100 80GB (Table 2 row 2).
pub fn a100() -> HardwareDescriptor {
    HardwareDescriptor {
        name: "NVIDIA A100",
        backend: BackendKind::Cuda,
        sm_count: 108,
        l1_bytes: 192 * KB,
        l2_bytes: 80 * MB,
        bandwidth: 1.94e12,
        fp32_flops: 19.5e12,
        fp64_ratio: 0.5,
        fp16_mode: Fp16Mode::UpcastFp32,
        clock_hz: 1.410e9,
        warp_size: 32,
        regfile_bytes: 256 * KB,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        memory_bytes: 80 * GB,
        launch_overhead_s: 4.5e-6,
        pcie_bandwidth: 25e9,
        cpu_flops: 1.0e12, // Xeon Gold 6330
        fault: None,
    }
}

/// NVIDIA RTX 4060 Laptop (Table 2 row 3). The paper's "272 MB/s" is a
/// typo for GB/s.
pub fn rtx4060() -> HardwareDescriptor {
    HardwareDescriptor {
        name: "NVIDIA RTX4060",
        backend: BackendKind::Cuda,
        sm_count: 24,
        l1_bytes: 128 * KB,
        l2_bytes: 96 * MB,
        bandwidth: 272e9,
        fp32_flops: 15.1e12,
        fp64_ratio: 1.0 / 64.0, // consumer Ada FP64 rate
        fp16_mode: Fp16Mode::UpcastFp32,
        clock_hz: 2.125e9,
        warp_size: 32,
        regfile_bytes: 256 * KB,
        max_threads_per_sm: 1536,
        max_blocks_per_sm: 24,
        memory_bytes: 8 * GB,
        launch_overhead_s: 5.0e-6,
        pcie_bandwidth: 16e9,
        cpu_flops: 0.6e12, // Core i7-14650HX
        fault: None,
    }
}

/// AMD MI250 (Table 2 row 4). 208 compute units across both dies; the
/// tiny 16 KB L1 per CU is the key architectural difference the paper's
/// hyperparameter discussion keys on.
pub fn mi250() -> HardwareDescriptor {
    HardwareDescriptor {
        name: "AMD MI250",
        backend: BackendKind::Rocm,
        sm_count: 208,
        l1_bytes: 16 * KB,
        l2_bytes: 16 * MB,
        bandwidth: 3.28e12,
        fp32_flops: 45.3e12,
        fp64_ratio: 1.0,                  // CDNA2 vector FP64 runs at FP32 rate
        fp16_mode: Fp16Mode::Unsupported, // Julia AMDGPU stack (Fig. 5)
        clock_hz: 1.700e9,
        warp_size: 64,
        regfile_bytes: 512 * KB, // CDNA2 VGPR file per CU
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 16,
        memory_bytes: 128 * GB,
        launch_overhead_s: 9.0e-6, // HIP launch latency is ~2x CUDA
        pcie_bandwidth: 36e9,      // Infinity-Fabric-attached EPYC
        cpu_flops: 1.0e12,         // Trento EPYC 7A53
        fault: None,
    }
}

/// Apple M1 Pro (Table 2 row 5). Apple does not publish these numbers
/// ("N.A." in the paper); values are community-measured estimates for the
/// 8-core-GPU bin the paper lists.
pub fn m1_pro() -> HardwareDescriptor {
    HardwareDescriptor {
        name: "Apple M1 Pro",
        backend: BackendKind::Metal,
        sm_count: 8,
        l1_bytes: 64 * KB,
        l2_bytes: 24 * MB, // SLC share
        bandwidth: 200e9,
        fp32_flops: 2.6e12,
        fp64_ratio: 0.0, // Metal has no FP64
        fp16_mode: Fp16Mode::Native,
        clock_hz: 1.296e9,
        warp_size: 32,
        regfile_bytes: 208 * KB,
        max_threads_per_sm: 1536,
        max_blocks_per_sm: 24,
        memory_bytes: 16 * GB, // unified
        launch_overhead_s: 8.0e-6,
        pcie_bandwidth: 60e9, // unified memory: cheap "transfers"
        cpu_flops: 0.4e12,
        fault: None,
    }
}

/// Intel Data Center GPU Max / Ponte Vecchio (Table 2 row 6).
pub fn pvc() -> HardwareDescriptor {
    HardwareDescriptor {
        name: "Intel PVC",
        backend: BackendKind::OneApi,
        sm_count: 1024, // XVE count, as Table 2 reports
        l1_bytes: 64 * KB,
        l2_bytes: 408 * MB,
        bandwidth: 3.28e12,
        fp32_flops: 52.4e12,
        fp64_ratio: 1.0, // PVC FP64 = FP32 vector rate
        fp16_mode: Fp16Mode::UpcastFp32,
        clock_hz: 1.600e9,
        warp_size: 32,
        regfile_bytes: 64 * KB, // per XVE GRF is small
        max_threads_per_sm: 1024,
        max_blocks_per_sm: 16,
        memory_bytes: 64 * GB,
        launch_overhead_s: 14.0e-6, // SYCL queue submission latency
        pcie_bandwidth: 32e9,
        cpu_flops: 1.2e12, // Xeon Max 9470C
        fault: None,
    }
}

/// All six platforms, in Table 2 order.
pub fn all_platforms() -> Vec<HardwareDescriptor> {
    vec![h100(), a100(), rtx4060(), mi250(), m1_pro(), pvc()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix_matches_paper() {
        // Fig. 5: no FP64 on Metal, no FP16 on AMD, all three on NVIDIA.
        assert!(h100().supports(PrecisionKind::Fp16).is_ok());
        assert!(h100().supports(PrecisionKind::Fp64).is_ok());
        assert!(mi250().supports(PrecisionKind::Fp16).is_err());
        assert!(mi250().supports(PrecisionKind::Fp64).is_ok());
        assert!(m1_pro().supports(PrecisionKind::Fp64).is_err());
        assert!(m1_pro().supports(PrecisionKind::Fp16).is_ok());
        assert!(pvc().supports(PrecisionKind::Fp32).is_ok());
    }

    #[test]
    fn fp16_capacity_exceeds_fp32_capacity() {
        // §4.3: FP16 "enables GPU-resident computations for larger matrix
        // sizes (up to 131k × 131k) than previously possible".
        let h = h100();
        let m16 = h.max_pow2_matrix(PrecisionKind::Fp16);
        let m32 = h.max_pow2_matrix(PrecisionKind::Fp32);
        let m64 = h.max_pow2_matrix(PrecisionKind::Fp64);
        assert_eq!(m16, 131072);
        assert!(m16 > m32);
        assert!(m32 >= m64);
    }

    #[test]
    fn peak_flops_ratios() {
        let h = h100();
        assert_eq!(h.peak_flops(PrecisionKind::Fp64), h.fp32_flops * 0.5);
        // FP16 upcast runs at FP32 speed — the Fig. 5 observation that the
        // FP16 and FP32 curves coincide on NVIDIA.
        assert_eq!(
            h.peak_flops(PrecisionKind::Fp16),
            h.peak_flops(PrecisionKind::Fp32)
        );
        assert_eq!(mi250().peak_flops(PrecisionKind::Fp16), 0.0);
        assert_eq!(m1_pro().peak_flops(PrecisionKind::Fp64), 0.0);
    }

    #[test]
    fn table2_row_values() {
        let rows = all_platforms();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].sm_count, 132);
        assert_eq!(rows[1].sm_count, 108);
        assert_eq!(rows[2].sm_count, 24);
        assert_eq!(rows[3].sm_count, 208);
        assert_eq!(rows[3].warp_size, 64);
        assert_eq!(rows[4].backend, BackendKind::Metal);
        assert_eq!(rows[5].sm_count, 1024);
    }

    #[test]
    fn descriptor_identity_and_equality() {
        // Identity is the name; equality is the whole configuration.
        let a = h100();
        let mut b = h100();
        assert!(a.is_same_device(&b));
        assert_eq!(a, b);
        b.memory_bytes /= 2;
        assert!(a.is_same_device(&b), "identity survives re-configuration");
        assert_ne!(a, b, "equality does not");
        assert!(!a.is_same_device(&a100()));
        // Every shipped platform has a distinct identity (signatures and
        // fleet routing key on it).
        let names: Vec<_> = all_platforms().iter().map(|h| h.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn fits_has_headroom() {
        let h = h100();
        assert!(h.fits(60 * GB));
        assert!(!h.fits(70 * GB)); // 70 GB * 1.25 > 80 GB
    }
}
