//! Bulk-synchronous GPU runtime simulator with a roofline cost model.
//!
//! This crate is the reproduction's stand-in for the paper's GPU execution
//! stack (KernelAbstractions.jl + GPUArrays.jl over CUDA/ROCm/oneAPI/
//! Metal). Kernels are written against a workgroup / thread / shared-memory
//! / barrier programming model ([`Workgroup`]) and executed on the host via
//! the vendored work-stealing thread pool (`rayon` shim), one task per
//! chunk of workgroups. A [`Device`] keeps one execution context per
//! workgroup index and runs workgroup `g` in context `g`, so the pairing
//! depends on grid position, not on the schedule: traces and numerics
//! are bit-identical for any `RAYON_NUM_THREADS`, and warm launches
//! allocate nothing. Concurrent launches on one shared device are
//! correct, but only one runs in the device's contexts; the others
//! build their own. Every launch is costed by an analytic
//! roofline model ([`cost`]) driven by the *actual* event counts of the
//! launch (grid/block geometry, flops, bytes, register and shared-memory
//! footprint) against the hardware descriptors of the paper's Table 2
//! ([`hw`]).
//!
//! Two execution modes exist ([`ExecMode`]): `Numeric` runs the real
//! arithmetic (used by all correctness work), `TraceOnly` replays only the
//! launch stream (used for paper-scale performance sweeps up to
//! n = 131072, where allocating n² elements on the host is pointless —
//! the event stream is identical by construction).

pub mod buffer;
pub mod cost;
pub mod device;
pub mod fault;
pub mod hw;
pub mod mem;
pub mod trace;
pub mod workgroup;

pub use buffer::GlobalBuffer;
pub use cost::{cost_of_launch, ExecGeometry, KernelClass, LaunchCost, LaunchSpec};
pub use device::{Device, ExecMode};
pub use fault::{DeviceFault, FaultChannel, FaultInjector, FaultKind, FaultPlan, FaultRecord};
pub use hw::{BackendKind, Fp16Mode, HardwareDescriptor, UnsupportedPrecision};
pub use mem::{MemoryLedger, Reservation};
pub use trace::{ClassTotals, LaunchRecord, Trace, TraceSummary};
pub use workgroup::{LaneRegs, Workgroup};
