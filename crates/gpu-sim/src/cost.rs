//! Roofline cost model translating launch descriptions into simulated time.
//!
//! The model is intentionally simple and fully documented, because every
//! performance figure in the reproduction flows through it:
//!
//! ```text
//! t = launch_overhead
//!   + spill · max( flops  / (peak(prec) · util(occ_c) · efficiency),
//!                  bytes  /  (bandwidth · util(occ_m)),
//!                  critical_path / (clock · ILP) )
//! ```
//!
//! * **Occupancy** is computed from the block's resource footprint
//!   (threads rounded up to warp granularity, registers, shared memory)
//!   against per-SM limits, exactly as a launch-bounds calculator would.
//! * **`util(occ)`** is a saturating ramp: throughput needs a minimum
//!   occupancy to hide latency; beyond the knee, more occupancy does not
//!   help. Compute saturates earlier (0.25) than memory (0.40).
//! * **Spill** kicks in when one block's register+shared footprint exceeds
//!   the SM's L1. This is the mechanism behind Table 3's platform-dependent
//!   TILESIZE preferences (MI250's 16 KB L1 vs. H100's 256 KB).
//! * **`critical_path`** captures the serial dependency chain of
//!   latency-bound kernels — the paper's "panel factorization remains a
//!   serial bottleneck" (§3.2): a single-block GEQRT cannot go faster than
//!   its chain of dependent FLOPs regardless of peak throughput.
//!
//! Event *counts* (flops, bytes, launches) always come from the caller —
//! the kernels count what they actually do — and are never invented here.

use crate::hw::HardwareDescriptor;
use serde::Serialize;
use unisvd_scalar::PrecisionKind;

/// Occupancy at which compute throughput saturates.
const OCC_SAT_COMPUTE: f64 = 0.25;
/// Occupancy at which memory bandwidth saturates.
const OCC_SAT_MEMORY: f64 = 0.40;
/// Exponent of the sublinear occupancy→utilisation ramp: latency hiding
/// improves sub-linearly with occupancy (a single warp still extracts a
/// few percent of peak through ILP; doubling occupancy does not double
/// throughput).
const UTIL_EXP: f64 = 0.6;
/// Instruction-level parallelism assumed along the critical path.
const CRITICAL_PATH_ILP: f64 = 2.0;
/// Multiplier applied per unit of L1 working-set overflow.
const SPILL_SLOPE: f64 = 1.5;
/// Cap on the spill penalty.
const SPILL_CAP: f64 = 8.0;
/// Exponent of the coalescing penalty for blocks narrower than half a
/// warp/wavefront (partial cache lines per transaction).
const COALESCE_EXP: f64 = 0.25;

/// Which pipeline stage a launch belongs to — drives the Fig. 6 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum KernelClass {
    /// GEQRT / TSQRT panel factorisation (stage 1).
    PanelFactorization,
    /// UNMQR / TSMQR trailing submatrix update (stage 1).
    TrailingUpdate,
    /// Band → bidiagonal bulge chasing (stage 2).
    BandToBidiagonal,
    /// Bidiagonal → singular values (stage 3, CPU in the paper).
    BidiagonalSvd,
    /// Host ↔ device transfer (hybrid baselines).
    Transfer,
    /// Anything else (baseline-internal BLAS, setup, …).
    Other,
}

impl KernelClass {
    /// All classes, in pipeline order.
    pub const ALL: [KernelClass; 6] = [
        KernelClass::PanelFactorization,
        KernelClass::TrailingUpdate,
        KernelClass::BandToBidiagonal,
        KernelClass::BidiagonalSvd,
        KernelClass::Transfer,
        KernelClass::Other,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            KernelClass::PanelFactorization => "panel-factorization",
            KernelClass::TrailingUpdate => "trailing-update",
            KernelClass::BandToBidiagonal => "band-to-bidiagonal",
            KernelClass::BidiagonalSvd => "bidiagonal-svd",
            KernelClass::Transfer => "transfer",
            KernelClass::Other => "other",
        }
    }
}

/// Geometry used for numeric execution when it differs from the costed
/// geometry for purely *computational* reasons. The paper distinguishes
/// algorithmic parameters (TILESIZE — changes the operations) from
/// computational ones (SPLITK — same operations, same order, different
/// thread assignment, §3.2). The simulator executes the simple
/// one-thread-per-column form while the cost model sees the SPLITK
/// launch shape.
#[derive(Clone, Copy, Debug)]
pub struct ExecGeometry {
    /// Threads per workgroup for execution.
    pub block: usize,
    /// Per-thread register file length for execution.
    pub regs_per_thread: usize,
    /// Shared memory elements for execution.
    pub smem_elems: usize,
}

/// Full description of one kernel launch, sufficient for both execution
/// (grid/block geometry) and costing (event counts + resource footprint).
#[derive(Clone, Debug)]
pub struct LaunchSpec {
    /// Stage attribution for the Fig. 6 breakdown.
    pub class: KernelClass,
    /// Kernel name for traces, e.g. `"geqrt"`.
    pub label: &'static str,
    /// Number of workgroups.
    pub grid: usize,
    /// Threads per workgroup.
    pub block: usize,
    /// Per-thread register file length, in elements of the compute type.
    pub regs_per_thread: usize,
    /// Shared memory per workgroup, in elements of the compute type.
    pub smem_elems: usize,
    /// Storage precision (determines element width and peak throughput).
    pub precision: PrecisionKind,
    /// Total floating-point operations performed by the launch.
    pub flops: f64,
    /// Total global-memory bytes moved (reads + writes).
    pub bytes: f64,
    /// FLOPs along the longest serial dependency chain of one workgroup.
    pub critical_path: f64,
    /// Bytes streamed through L1 per workgroup *iteration* (e.g. the
    /// Householder tile a trailing-update block re-reads). Drives the
    /// spill penalty when it exceeds the SM's L1 — the paper's
    /// MI250-FP64-prefers-small-tiles effect (§3.3).
    pub l1_stream_bytes: u64,
    /// Library efficiency factor (≤ 1) multiplying peak throughput. 1.0
    /// for our kernels; baselines use their calibrated envelopes.
    pub efficiency: f64,
    /// Optional numeric-execution geometry override (see [`ExecGeometry`]).
    pub exec: Option<ExecGeometry>,
}

impl LaunchSpec {
    /// Spec with geometry only; event counts filled in by the caller.
    pub fn new(class: KernelClass, label: &'static str, grid: usize, block: usize) -> Self {
        LaunchSpec {
            class,
            label,
            grid,
            block,
            regs_per_thread: 0,
            smem_elems: 0,
            precision: PrecisionKind::Fp32,
            flops: 0.0,
            bytes: 0.0,
            critical_path: 0.0,
            l1_stream_bytes: 0,
            efficiency: 1.0,
            exec: None,
        }
    }
}

/// Cost-model output for one launch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct LaunchCost {
    /// Simulated wall time, seconds.
    pub seconds: f64,
    /// Achieved occupancy in [0, 1].
    pub occupancy: f64,
    /// Spill multiplier (1.0 = no spill).
    pub spill: f64,
    /// True when the compute roof bound the launch.
    pub compute_bound: bool,
    /// True when the critical path (latency) bound the launch.
    pub latency_bound: bool,
}

/// Size in bytes of one *compute* element for a storage precision. FP16
/// upcasts to FP32 in registers/shared memory, so its on-chip footprint is
/// 4 bytes even though its DRAM footprint is 2.
fn compute_elem_bytes(p: PrecisionKind) -> u64 {
    match p {
        PrecisionKind::Fp16 | PrecisionKind::Fp32 => 4,
        PrecisionKind::Fp64 => 8,
    }
}

/// Saturating, sublinear utilisation ramp.
fn util(occ: f64, knee: f64) -> f64 {
    (occ / knee).powf(UTIL_EXP).clamp(1e-4, 1.0)
}

/// Evaluates the cost model for one launch on one device.
pub fn cost_of_launch(hw: &HardwareDescriptor, spec: &LaunchSpec) -> LaunchCost {
    assert!(spec.grid > 0 && spec.block > 0, "empty launch");
    assert!(spec.efficiency > 0.0 && spec.efficiency <= 1.0);

    let elem = compute_elem_bytes(spec.precision);
    let warp = hw.warp_size as usize;
    let slot_threads = spec.block.div_ceil(warp) * warp;

    let reg_bytes_per_block = (spec.regs_per_thread * spec.block) as u64 * elem;
    let smem_bytes_per_block = spec.smem_elems as u64 * elem;

    // Blocks resident per SM under each resource limit: registers live in
    // the register file, shared memory in the L1-carved scratchpad.
    let by_threads = (hw.max_threads_per_sm as usize / slot_threads.max(1)).max(1);
    let by_blocks = hw.max_blocks_per_sm as usize;
    let by_regs = hw
        .regfile_bytes
        .checked_div(reg_bytes_per_block)
        .map_or(usize::MAX, |v| v as usize);
    let by_smem = hw
        .l1_bytes
        .checked_div(smem_bytes_per_block)
        .map_or(usize::MAX, |v| v as usize);
    let blocks_per_sm = by_threads.min(by_blocks).min(by_regs).min(by_smem).max(1);

    let resident_blocks = spec.grid.min(blocks_per_sm * hw.sm_count as usize);
    let occ = (resident_blocks * spec.block) as f64
        / (hw.sm_count as usize * hw.max_threads_per_sm as usize) as f64;

    // Spill: the per-block L1 working set (shared memory + the tile the
    // block streams per iteration) vs. the SM's L1. Registers are NOT
    // counted — they live in the register file; what overflows here is
    // cache reuse, the paper's 16 KB-L1-on-MI250 effect.
    let ws = (smem_bytes_per_block + spec.l1_stream_bytes) as f64 / hw.l1_bytes as f64;
    let spill = if ws > 1.0 {
        (1.0 + SPILL_SLOPE * (ws - 1.0)).min(SPILL_CAP)
    } else {
        1.0
    };

    // Coalescing: blocks narrower than half a warp issue partial memory
    // transactions. (A half-warp still fills a full cache line on the
    // architectures modelled.)
    let half_warp = (warp / 2).max(1);
    let coalesce = if spec.block < half_warp {
        (half_warp as f64 / spec.block as f64).powf(COALESCE_EXP)
    } else {
        1.0
    };

    let peak = hw.peak_flops(spec.precision);
    assert!(peak > 0.0, "cost model invoked for unsupported precision");

    let t_compute = spec.flops / (peak * util(occ, OCC_SAT_COMPUTE) * spec.efficiency);
    let t_memory = spec.bytes * coalesce / (hw.bandwidth * util(occ, OCC_SAT_MEMORY));
    let t_latency = spec.critical_path / (hw.clock_hz * CRITICAL_PATH_ILP);

    // Compute and memory phases of these kernels do not overlap (no
    // software pipelining in the scalar tile kernels), so they add; the
    // dependency chain is a lower bound on either.
    let body = (t_compute + t_memory).max(t_latency);
    LaunchCost {
        seconds: hw.launch_overhead_s + spill * body,
        occupancy: occ.min(1.0),
        spill,
        compute_bound: t_compute >= t_memory && t_compute >= t_latency,
        latency_bound: t_latency > t_compute && t_latency > t_memory,
    }
}

/// Cost of a host↔device transfer of `bytes`.
pub fn cost_of_transfer(hw: &HardwareDescriptor, bytes: f64) -> f64 {
    // ~10 µs fixed latency per DMA, then bandwidth-bound.
    1.0e-5 + bytes / hw.pcie_bandwidth
}

/// Cost of host CPU work of `flops` at a given efficiency.
pub fn cost_of_cpu_work(hw: &HardwareDescriptor, flops: f64, efficiency: f64) -> f64 {
    assert!(efficiency > 0.0 && efficiency <= 1.0);
    flops / (hw.cpu_flops * efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{h100, mi250};

    fn big_trailing_spec(ts: usize, cpb: usize, n: usize, p: PrecisionKind) -> LaunchSpec {
        let mut s = LaunchSpec::new(KernelClass::TrailingUpdate, "unmqr", n / cpb, cpb);
        s.regs_per_thread = ts + 2;
        s.smem_elems = 2 * ts;
        s.precision = p;
        s.flops = 4.0 * (ts * ts * n) as f64;
        s.bytes = ((n * ts) * p.bytes()) as f64 * 2.0;
        s.critical_path = (2 * ts * ts) as f64;
        s
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let hw = h100();
        let mut s = LaunchSpec::new(KernelClass::Other, "tiny", 1, 32);
        s.flops = 10.0;
        s.bytes = 64.0;
        let c = cost_of_launch(&hw, &s);
        assert!(c.seconds >= hw.launch_overhead_s);
        assert!(c.seconds < hw.launch_overhead_s * 2.0);
    }

    #[test]
    fn single_block_kernel_is_latency_bound() {
        let hw = h100();
        let mut s = LaunchSpec::new(KernelClass::PanelFactorization, "geqrt", 1, 32);
        s.regs_per_thread = 34;
        s.smem_elems = 33;
        s.flops = 3.0e5;
        s.bytes = 8192.0;
        s.critical_path = 2.0e5; // nearly all flops are on the chain
        let c = cost_of_launch(&hw, &s);
        assert!(
            c.latency_bound,
            "1-block panel kernels must be latency bound"
        );
        assert!(c.occupancy < 0.01);
    }

    #[test]
    fn huge_grid_saturates_occupancy() {
        let hw = h100();
        let s = big_trailing_spec(32, 32, 1 << 20, PrecisionKind::Fp32);
        let c = cost_of_launch(&hw, &s);
        assert!(c.occupancy > 0.2, "occupancy {} too low", c.occupancy);
        assert_eq!(c.spill, 1.0);
    }

    #[test]
    fn mi250_fp64_large_tile_spills_h100_does_not() {
        // The Table 3 mechanism: a TS=64 FP64 tile stream (32 KB) exceeds
        // MI250's 16 KB L1 but not H100's 256 KB.
        let spec = {
            let mut s = big_trailing_spec(64, 32, 1 << 18, PrecisionKind::Fp64);
            s.l1_stream_bytes = 64 * 64 * 8;
            s
        };
        let amd = cost_of_launch(&mi250(), &spec);
        let nvd = cost_of_launch(&h100(), &spec);
        assert!(
            amd.spill > 1.0,
            "MI250 FP64 TS=64 must spill, got {}",
            amd.spill
        );
        assert_eq!(nvd.spill, 1.0, "H100 must not spill");
    }

    #[test]
    fn narrow_blocks_pay_a_coalescing_penalty() {
        // Blocks narrower than half a wavefront issue partial memory
        // transactions (Table 3 COLPERBLOCK row on MI250).
        let hw = mi250();
        let n = 1 << 18;
        let mut narrow = big_trailing_spec(32, 16, n, PrecisionKind::Fp32);
        let mut wide = big_trailing_spec(32, 64, n, PrecisionKind::Fp32);
        // Memory-bound totals, identical between the two.
        narrow.flops = 1e9;
        wide.flops = 1e9;
        narrow.bytes = 1e12;
        wide.bytes = 1e12;
        let tn = cost_of_launch(&hw, &narrow).seconds;
        let tw = cost_of_launch(&hw, &wide).seconds;
        assert!(tn > tw * 1.1, "narrow {tn} should be above wide {tw}");
    }

    #[test]
    fn transfer_and_cpu_costs() {
        let hw = h100();
        let t = cost_of_transfer(&hw, 1e9);
        assert!(t > 1e9 / hw.pcie_bandwidth);
        let c = cost_of_cpu_work(&hw, 1e9, 0.5);
        assert!((c - 1e9 / (hw.cpu_flops * 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty launch")]
    fn zero_grid_panics() {
        let _ = cost_of_launch(&h100(), &LaunchSpec::new(KernelClass::Other, "x", 0, 32));
    }
}
