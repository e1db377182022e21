//! Enterprise: breadth-first graph traversal on (simulated) GPUs.
//!
//! A Rust reproduction of *Enterprise: Breadth-First Graph Traversal on
//! GPUs* (Liu & Huang, SC '15). The three techniques:
//!
//! 1. **Streamlined GPU thread scheduling** ([`frontier`]) — atomic-free
//!    frontier-queue generation via status-array scan, warp-owned bins,
//!    and a prefix sum, with direction-specialized scan workflows.
//! 2. **GPU workload balancing** ([`classify`], [`kernels`]) — frontiers
//!    classified by out-degree into Small/Middle/Large/Extreme queues
//!    serviced by Thread/Warp/CTA/Grid kernels running concurrently.
//! 3. **Hub-vertex optimization** ([`direction`], [`state`]) — the γ
//!    switch parameter and a shared-memory hub cache for bottom-up.
//!
//! Everything executes on the deterministic GPU simulator from the
//! [`gpu_sim`] crate; see DESIGN.md for the substitution rationale.
//!
//! # Quickstart
//!
//! ```
//! use enterprise::{Enterprise, EnterpriseConfig};
//! use enterprise_graph::gen::kronecker;
//!
//! let graph = kronecker(10, 8, 42);
//! let mut system = Enterprise::new(EnterpriseConfig::default(), &graph);
//! let result = system.bfs(0);
//! println!("visited {} vertices at {:.1} MTEPS", result.visited, result.teps / 1e6);
//! assert!(result.visited > 0);
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod batch;
pub mod bfs;
pub mod classify;
pub mod device_graph;
pub mod direction;
pub mod error;
pub mod frontier;
pub mod kernels;
pub mod multi_gpu;
pub mod multi_gpu_2d;
pub mod persist;
pub mod rebalance;
mod repartition;
pub mod route;
pub mod state;
pub mod status;
pub mod validate;
pub mod watchdog;

pub use batch::{
    BatchPolicy, BatchReport, BatchSource, PipelineMode, PoisonReason, ShedOrder, SourceOutcome,
    SourceRun,
};
pub use bfs::{BfsResult, Enterprise, EnterpriseConfig, LevelRecord};
pub use classify::{ClassifyThresholds, QueueClass};
pub use device_graph::DeviceGraph;
pub use direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
pub use error::{BfsError, RecoveryPolicy, RecoveryReport};
pub use gpu_sim::{
    EccMode, FaultSpec, FaultStats, LinkHealth, LinkState, SanitizerError,
    CHAOS_LINK_DEGRADE_FACTOR, CHAOS_LINK_FLAP_PERIOD_LEVELS, CHAOS_STRAGGLER_SLOWDOWN,
};
pub use kernels::Direction;
pub use route::RoutePolicy;
pub use persist::{DriverKind, GraphFingerprint, PersistError, PersistPolicy, FORMAT_VERSION};
pub use rebalance::{DeviceTiming, ImbalanceDetector, RebalancePolicy};
pub use validate::{audit, ValidationError, VerifyPolicy};
pub use watchdog::WatchdogPolicy;
