//! The Enterprise BFS driver: level-synchronous traversal combining
//! streamlined queue generation (TS), four-granularity workload balancing
//! (WB), and the hub-vertex direction optimization (HC + γ).
//!
//! Feature toggles expose the Figure 13 ablation points: `TS` alone
//! (single queue at fixed warp granularity), `TS+WB`, and `TS+WB+HC`.
//!
//! [`Enterprise`] is the one-device [`Fleet`]: the traversal, recovery,
//! persistence and batch serving all run in [`crate::multi_gpu`]. This
//! module keeps the single-GPU names and the result type that carries
//! the device's kernel timeline and counter report.

use crate::batch::{BatchPolicy, BatchReport, BatchSource};
use crate::error::BfsError;
use crate::multi_gpu::{cpu_fallback, Fleet, FleetConfig, MultiBfsResult, One};
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{Device, DeviceReport, KernelRecord};

/// Configuration of an Enterprise instance: the one-device fleet's.
pub type EnterpriseConfig = FleetConfig<One>;

impl Default for EnterpriseConfig {
    fn default() -> Self {
        Self::k40s_over(One)
    }
}

impl EnterpriseConfig {
    /// The TS-only ablation point of Figure 13.
    pub fn ts_only() -> Self {
        Self { workload_balancing: false, hub_cache: false, ..Self::default() }
    }

    /// The TS+WB ablation point of Figure 13.
    pub fn ts_wb() -> Self {
        Self { hub_cache: false, ..Self::default() }
    }
}

/// One level of the traversal, for instrumentation (Figures 4, 8, 10).
#[derive(Clone, Debug)]
pub struct LevelRecord {
    /// Level index.
    pub level: u32,
    /// Direction the *next* level will run (decided by this level's
    /// queue generation).
    pub direction: &'static str,
    /// Frontiers generated for the next level, per class queue.
    pub sizes: [usize; 4],
    /// γ of the generated queue, in percent.
    pub gamma_pct: f64,
    /// Beamer's α = m_u / m_f after this level's exchange: the unvisited
    /// vertices' out-degree sum over the sum of those it discovered, the
    /// same on every shape; infinite after a bottom-up level.
    pub alpha: f64,
    /// Vertices discovered at this level's expansion.
    pub newly_visited: usize,
    /// Simulated milliseconds spent expanding this level.
    pub expand_ms: f64,
    /// Simulated milliseconds spent generating the next queue.
    pub queue_gen_ms: f64,
}

/// Result of one BFS run.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// BFS root.
    pub source: VertexId,
    /// Per-vertex BFS level (`None` = unreachable).
    pub levels: Vec<Option<u32>>,
    /// Per-vertex parent (`None` = unreachable; the source is its own
    /// parent).
    pub parents: Vec<Option<VertexId>>,
    /// Reachable vertices (including the source).
    pub visited: usize,
    /// Directed edges traversed (Graph 500 accounting: out-edges of every
    /// visited vertex, duplicates and self-loops included).
    pub traversed_edges: u64,
    /// Simulated milliseconds for the whole search.
    pub time_ms: f64,
    /// Traversed edges per simulated second.
    pub teps: f64,
    /// Deepest level reached.
    pub depth: u32,
    /// Level at which the direction switched to bottom-up, if it did.
    pub switched_at: Option<u32>,
    /// Per-level instrumentation.
    pub level_trace: Vec<LevelRecord>,
    /// Every kernel launched during the search (nvprof-style timeline).
    pub records: Vec<KernelRecord>,
    /// Aggregate hardware-counter report.
    pub report: DeviceReport,
    /// What fault recovery happened during the run (all zero on a
    /// fault-free substrate).
    pub recovery: crate::error::RecoveryReport,
}

impl BfsResult {
    /// Share of the search spent generating frontier queues (the paper
    /// reports ~11% on average, §4.1).
    pub fn queue_gen_fraction(&self) -> f64 {
        let gen: f64 = self.level_trace.iter().map(|l| l.queue_gen_ms).sum();
        if self.time_ms > 0.0 {
            gen / self.time_ms
        } else {
            0.0
        }
    }
}

impl BfsResult {
    /// A fleet result with the device's kernel timeline and counters.
    fn new(r: MultiBfsResult, records: Vec<KernelRecord>, report: DeviceReport) -> Self {
        let MultiBfsResult {
            source,
            levels,
            parents,
            visited,
            traversed_edges,
            time_ms,
            teps,
            depth,
            switched_at,
            level_trace,
            recovery,
            ..
        } = r;
        BfsResult {
            source,
            levels,
            parents,
            visited,
            traversed_edges,
            time_ms,
            teps,
            depth,
            switched_at,
            level_trace,
            records,
            report,
            recovery,
        }
    }
}

/// An Enterprise BFS system bound to one graph on one simulated device:
/// the one-device [`Fleet`].
pub struct Enterprise {
    fleet: Fleet,
}

impl Enterprise {
    /// Uploads `csr` and allocates working state.
    ///
    /// # Panics
    /// Panics on device OOM or an injected allocation fault; see
    /// [`Enterprise::try_new`].
    pub fn new(config: EnterpriseConfig, csr: &Csr) -> Self {
        Self::try_new(config, csr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: device OOM (the graph not fitting) and
    /// injected allocation faults surface as [`BfsError`] so the caller
    /// can degrade to a CPU traversal ([`Enterprise::run_resilient`]).
    pub fn try_new(config: EnterpriseConfig, csr: &Csr) -> Result<Self, BfsError> {
        Fleet::try_new(config, csr).map(|fleet| Self { fleet })
    }

    /// Runs one BFS end to end with full degradation: if the device graph
    /// cannot be allocated (OOM or injected allocation fault) or the
    /// search exhausts its recovery budget, the traversal falls back to
    /// the host CPU baseline and the result records the fallback in
    /// [`crate::RecoveryReport::cpu_fallback`].
    pub fn run_resilient(config: EnterpriseConfig, csr: &Csr, source: VertexId) -> BfsResult {
        let empty = DeviceReport::from_records(&[], &config.device, 0.0);
        match Self::try_new(config, csr) {
            Ok(mut e) => {
                let r = e.fleet.bfs(source);
                e.single(r)
            }
            Err(_) => BfsResult::new(cpu_fallback(csr, source), Vec::new(), empty),
        }
    }

    /// The simulated device (for counter inspection).
    pub fn device(&self) -> &Device {
        self.fleet.device(0)
    }

    /// Caps the device's in-driver relaunch budget for faulted kernels.
    /// `0` disables in-driver retry entirely, so every injected kernel
    /// fault escalates to a level replay (useful for testing recovery).
    pub fn set_launch_retries(&mut self, retries: u32) {
        self.fleet.set_launch_retries(retries);
    }

    /// Hub threshold τ chosen for this graph.
    pub fn hub_tau(&self) -> u32 {
        self.fleet.hub_tau()
    }

    /// Total hub count `T_h`: the graph's vertices of out-degree above τ,
    /// counted on the host at setup.
    pub fn total_hubs(&self) -> u64 {
        self.fleet.total_hubs()
    }

    /// Runs one BFS from `source`. Timing covers everything from seeding
    /// the source to the final (empty) queue generation, matching the
    /// paper's methodology (§5).
    ///
    /// # Panics
    /// Panics if the recovery budget is exhausted under fault injection;
    /// see [`Enterprise::try_bfs`].
    pub fn bfs(&mut self, source: VertexId) -> BfsResult {
        self.try_bfs(source).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible BFS with level-replay recovery: each level checkpoints
    /// the traversal state before expanding, and a kernel fault that
    /// escapes the in-driver launch retries rolls the level back and
    /// replays it, within [`crate::RecoveryPolicy::max_level_retries`]
    /// per level. A device loss is terminal ([`BfsError::Device`]).
    pub fn try_bfs(&mut self, source: VertexId) -> Result<BfsResult, BfsError> {
        let r = self.fleet.try_bfs(source)?;
        Ok(self.single(r))
    }

    /// Runs a queue of sources as one supervised batch on this warm
    /// instance (DESIGN.md §5i): per-source fault isolation, retries,
    /// hedging, deadline shedding, and — with persistence armed — a
    /// durable outcome ledger. The results are the one-device fleet's,
    /// without a kernel timeline or counter report.
    pub fn batch(
        &mut self,
        sources: &[BatchSource],
        policy: &BatchPolicy,
    ) -> BatchReport<MultiBfsResult> {
        self.fleet.batch(sources, policy)
    }

    /// Simulated milliseconds on the device clock since the last run
    /// started. Right after construction this is zero: setup uploads the
    /// graph from the host and counts hubs there, launching no kernel.
    pub fn sim_elapsed_ms(&self) -> f64 {
        self.fleet.sim_elapsed_ms()
    }

    /// A fleet result with the device's kernel timeline and counters.
    fn single(&self, r: MultiBfsResult) -> BfsResult {
        let device = self.device();
        BfsResult::new(r, device.records().to_vec(), device.report())
    }
}
