//! A deterministic functional GPU simulator.
//!
//! This crate is the hardware substrate for the Enterprise BFS
//! reproduction (DESIGN.md §2): it executes kernels written as Rust
//! closures at warp granularity, models the memory system the paper's
//! optimizations target — 128-byte transaction coalescing, an L2 cache,
//! per-CTA shared memory, occupancy-limited latency hiding, Hyper-Q
//! concurrent kernels — and exposes `nvprof`-style hardware counters.
//!
//! Kernels *really run*: they read and write device global memory, so any
//! algorithm built on the simulator is functionally verified, while the
//! analytic time model (see [`mod@exec`]) provides simulated durations whose
//! relative behaviour tracks the effects the paper measures.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig, LaunchConfig};
//!
//! let mut dev = Device::new(DeviceConfig::k40());
//! let buf = dev.mem().alloc("squares", 1024);
//! dev.launch("square", LaunchConfig::for_threads(1024, 256), |w| {
//!     w.store_global(buf, |l| (l.tid < 1024).then(|| (l.tid as usize, (l.tid * l.tid) as u32)));
//! });
//! assert_eq!(dev.mem_ref().view(buf)[7], 49);
//! assert!(dev.elapsed_ms() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod device;
pub mod ecc;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod multi;
pub mod sanitizer;
pub mod scan;
pub mod warp_ops;

pub use counters::{DeviceReport, KernelRecord};
pub use device::{Device, DeviceConfig, FaultBundle, DEFAULT_LAUNCH_RETRIES, FUSED_SERIAL_FRACTION};
pub use ecc::{
    decode, encode, EccMode, SdcEvent, SecdedResult, ECC_CORRECTION_US, ECC_DRAM_OVERHEAD,
    ECC_SCRUB_US_PER_MB, SECDED_CODE_BITS, SECDED_DATA_BITS,
};
pub use exec::Occupancy;
pub use fault::{
    payload_checksum, DeviceError, ExchangeFault, FaultPlan, FaultSpec, FaultStats, LinkHealth,
    CHAOS_LINK_DEGRADE_FACTOR, CHAOS_LINK_FLAP_PERIOD_LEVELS, CHAOS_STRAGGLER_SLOWDOWN,
};
pub use kernel::{CtaCtx, Lane, Lanes, LaunchConfig, WarpCtx, WARP_SIZE};
pub use memory::{BufferId, DeviceMem, ELEMS_PER_TRANSACTION, TRANSACTION_BYTES};
pub use multi::{
    ballot_compressed_bytes, ExchangeOutcome, FleetFaultBundle, InterconnectConfig, LinkState,
    LinkTopology, MultiDevice, Wire,
};
pub use sanitizer::{
    Access, AccessKind, RacePolicy, Sanitizer, SanitizerError, ThreadCoord,
};
pub use scan::{
    exclusive_scan, reduce_sum, try_exclusive_scan, try_reduce_sum, ScanScratch,
    SCAN_GRID_CEIL_THREADS, SCAN_GRID_FLOOR_THREADS,
};
