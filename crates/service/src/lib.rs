//! `unisvd-service`: a concurrent SVD serving layer with a sharded plan
//! cache — one device behind [`SvdService`], many heterogeneous devices
//! behind [`SvdFleet`].
//!
//! The plan/execute API (`unisvd_core::Svd` → [`SvdPlan`]) makes
//! planning expensive-once and solving cheap-many-times *within one
//! caller*. A serving workload — many independent request streams
//! hitting one device with a mix of shapes, precisions, and
//! configurations — needs the same amortization *across* callers. This
//! crate holds the layer that provides it:
//!
//! * [`SvdService`] — accepts solve requests for arbitrary
//!   `(m, n, precision, configuration)` combinations from any thread;
//!   constructed with [`SvdService::builder`];
//! * a **sharded plan cache** — N independently locked LRU shards keyed
//!   by [`PlanSignature`], with an entry bound per shard and a global
//!   device-memory budget (the `ExceedsDeviceMemory` headroom rule
//!   applied to the cache as a whole), plus hit/miss/eviction/discard
//!   counters ([`CacheStats`]);
//! * **request coalescing** — [`SvdService::solve_batch`] groups
//!   same-signature requests into one `execute_batch` fan-out on the
//!   host work-stealing pool;
//! * **asynchronous serving** — [`SvdService::submit`] enqueues a
//!   request and returns a [`Ticket`] immediately; a drainer thread
//!   coalesces whatever same-signature submissions from *different*
//!   callers are queued into one batched execute,
//!   with typed admission backpressure
//!   ([`ServiceError::QueueFull`] / [`ServiceError::Shedding`]) when
//!   the queue depth or device-memory headroom saturates
//!   ([`QueueStats`] counts it all — one [`SvdService::stats`] call
//!   snapshots cache and queue together as [`ServiceStats`]);
//! * **fleet routing** — [`SvdFleet`] owns one service per device and
//!   places each signature by plan-time support (the paper's Table 2
//!   matrix), memory-ledger headroom, and observed load; hot signatures
//!   replicate to a second device, and
//!   [`fail_device`](SvdFleet::fail_device) migrates a lost device's
//!   queue and cache to survivors without hanging a single ticket.
//!
//! The cardinal invariant, inherited from the core and preserved here:
//! singular values served through the cache are **bit-identical** to
//! values from a directly driven [`SvdPlan`], for every cached/uncached
//! path and any thread count. `tests/determinism.rs` at the workspace
//! root enforces it at 1, 4, and 8 threads — fleet included.
//!
//! ```
//! use unisvd_core::SvdConfig;
//! use unisvd_gpu::hw;
//! use unisvd_matrix::Matrix;
//! use unisvd_service::SvdService;
//!
//! let service = SvdService::builder(&hw::h100()).build();
//! let cfg = SvdConfig::default();
//! // Mixed shapes and precisions through one shared service.
//! let s32 = service.solve(&Matrix::<f32>::identity(32), &cfg)?;
//! let s64 = service.solve(&Matrix::<f64>::identity(48), &cfg)?;
//! assert!((s32.values[0] - 1.0).abs() < 1e-6);
//! assert!((s64.values[0] - 1.0).abs() < 1e-12);
//! assert_eq!(service.stats().cache.misses, 2); // two distinct signatures
//! # Ok::<(), unisvd_core::SvdError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod fleet;
mod lru;
mod queue;
mod router;
mod service;
mod ticket;

pub use fleet::{
    DeviceHealth, DeviceStats, FailoverReport, FleetBuildError, FleetBuilder, FleetStats, SvdFleet,
};
pub use service::{CacheStats, QueueStats, ServiceBuilder, ServiceError, ServiceStats, SvdService};
pub use ticket::Ticket;

// Re-exported so service callers can name the cache key and the plan
// type without a separate unisvd_core dependency.
pub use unisvd_core::{PlanSignature, SvdPlan};
