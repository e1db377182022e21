//! Enterprise (§4.4): one fleet driver over a partition shape, the single
//! GPU included.
//!
//! **One device** ([`One`], the paper's Enterprise): the whole graph on a
//! single GPU — the one-slice case of 1-D partitioning, with nothing to
//! exchange.
//!
//! **1-D slices** ([`Slices`], the paper's design): each device owns an
//! equal slice of the vertex range (and therefore a similar number of
//! edges). Per level:
//!
//! 1. each GPU expands its private frontier queue, marking discoveries in
//!    its *private* status array (top-down discoveries may be remote
//!    vertices);
//! 2. all GPUs exchange their private status arrays as
//!    `__ballot()`-compressed bitmaps — one bit per vertex, a 90%
//!    reduction versus the byte array — and merge the union of
//!    just-visited vertices;
//! 3. each GPU scans the updated private status array *restricted to its
//!    owned range* to generate its next private queue.
//!
//! **2-D grid** ([`Grid`]) — the paper's stated future work ("We leave the
//! study of 2-D partition as future work", §4.4), implemented as an
//! extension. Devices form an `r x c` grid; device `(i, j)` stores the
//! adjacency-matrix block of edges `(u, v)` with `u` in column block `j`
//! and `v` in row block `i`, so a column of devices cooperatively expands
//! one frontier slice. Discoveries merge along rows and are shared along
//! columns: `(c-1 + r-1) * n/r` bits per device instead of 1-D's
//! `(P-1) * n`. γ-based switching works (hub counts duplicate uniformly in
//! numerator and denominator), but the hub cache is off — a block's
//! out-degree view covers only its column block, so hubs are not local.
//!
//! One [`Fleet`] runs every shape: the seed, level loop, replay, verify,
//! persistence, merge, collect and pipelined lanes are shared, and each
//! shape-specific decision lives in one function that matches on the
//! shape (layout and census, exchange, loss, rebalance, persistence).
//! The rules that only a single device needs — a terminal loss, no
//! brownout pin, the device's own fault stream armed from construction,
//! host-degree seeding, the whole CSR uploaded as is — are likewise each
//! one function keyed on the device count (DESIGN.md §5).
//!
//! Parents are private to the discovering device; the final parent tree
//! is gathered host-side (any device's recorded parent is valid because
//! every discovery wrote a parent at the correct preceding level).

use crate::batch::{BatchPolicy, BatchReport, BatchSource};
use crate::bfs::LevelRecord;
use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
use crate::error::{BfsError, RecoveryPolicy, RecoveryReport};
use crate::frontier::{enqueue_seed, try_generate_queues, try_measure_total_hubs, GenWorkflow};
use crate::kernels::{try_expand_level, Direction};
use crate::persist::{
    load_checkpoint_chain, truncate_queues, CheckpointSnapshot, CheckpointWriter, DeviceCheckpoint,
    DriverKind, FleetRecord, GraphFingerprint, LayoutSnapshot, PersistError, PersistPolicy,
    SnapshotStore, CHECKPOINT_FILE, DELTA_FILE,
};
use crate::rebalance::{self, DeviceTiming, ImbalanceDetector, RebalancePolicy};
use crate::repartition::{self, PartitionArrays};
use crate::state::BfsState;
use crate::status::{levels_from_raw, NO_PARENT, UNVISITED};
use crate::validate::{audit, check_level, repair_vertices, ValidationError, VerifyPolicy};
use crate::watchdog::{StallDetector, WatchdogPolicy};
use enterprise_graph::{stats::hub_threshold_for_capacity, Csr, VertexId};
use gpu_sim::{
    ballot_compressed_bytes, Device, DeviceConfig, DeviceError, EccMode, FaultPlan, FaultSpec,
    FleetFaultBundle, InterconnectConfig, MultiDevice,
};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

/// The whole graph on a single device: the one-slice case of 1-D
/// partitioning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct One;

/// 1-D vertex partitioning over this many devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slices(pub usize);

/// 2-D partitioning over a `rows x cols` device grid (row-major ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Grid rows (target partitions).
    pub rows: usize,
    /// Grid columns (source partitions).
    pub cols: usize,
}

/// The partition shape a [`Fleet`] runs, as the driver matches on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 1-D slices over this many devices.
    Slices(usize),
    /// A `(rows, cols)` block grid.
    Grid(usize, usize),
}

impl From<One> for Shape {
    fn from(_: One) -> Self {
        Shape::Slices(1)
    }
}

impl From<Slices> for Shape {
    fn from(s: Slices) -> Self {
        Shape::Slices(s.0)
    }
}

impl From<Grid> for Shape {
    fn from(g: Grid) -> Self {
        Shape::Grid(g.rows, g.cols)
    }
}

impl Shape {
    /// Number of devices the shape lays out.
    fn devices(self) -> usize {
        match self {
            Shape::Slices(p) => p,
            Shape::Grid(r, c) => r * c,
        }
    }

    /// `Some((rows, cols))` for a block grid, `None` for 1-D slices.
    fn grid(self) -> Option<(usize, usize)> {
        match self {
            Shape::Slices(_) => None,
            Shape::Grid(r, c) => Some((r, c)),
        }
    }
}

/// Configuration of a fleet. The shape marker ([`One`], [`Slices`],
/// [`Grid`]) only picks the constructors.
#[derive(Clone, Debug)]
pub struct FleetConfig<S> {
    /// Partition shape (device count and layout).
    pub shape: S,
    /// Per-device preset.
    pub device: DeviceConfig,
    /// Classification thresholds (§4.2 defaults).
    pub thresholds: ClassifyThresholds,
    /// WB: classify into four queues serviced at matching granularity.
    /// Off = the TS-only ablation (single queue, warp granularity).
    pub workload_balancing: bool,
    /// Hub-cache slots per device (also sizes τ for the γ machinery).
    pub hub_cache_entries: usize,
    /// Whether bottom-up expansion uses the shared-memory hub cache.
    /// Grids always run without it (block views cannot find hubs).
    pub hub_cache: bool,
    /// Direction policy. Beamer's `Alpha` needs a single device; fleets
    /// run `Gamma` and `TopDownOnly` (as in the paper).
    pub policy: DirectionPolicy,
    /// Deterministic fault injection across devices and the interconnect;
    /// `None` (the default) is a strict no-op on timing and results.
    pub faults: Option<FaultSpec>,
    /// Bounds on level replay and exchange retry-with-backoff.
    pub recovery: RecoveryPolicy,
    /// Device-memory sanitizer on every device; defaults from the
    /// `GPU_SIM_SANITIZER` environment knob.
    pub sanitize: bool,
    /// Traversal watchdog; disabled by default (strict no-op).
    pub watchdog: WatchdogPolicy,
    /// Silent-data-corruption verification ladder on the merged global
    /// view; the default disabled policy is a strict no-op.
    pub verify: VerifyPolicy,
    /// SECDED ECC mode of every device's memory; `Off` (the default)
    /// matches today's behaviour bit for bit.
    pub ecc: EccMode,
    /// Background-scrubber cadence: scrub every device after this many
    /// levels. `None` (the default) never scrubs.
    pub scrub_levels: Option<u32>,
    /// Adaptive straggler mitigation (DESIGN.md §5f): per-level timing
    /// telemetry drives repartitions toward faster devices — boundary
    /// shifts on slices, a collapse to weighted 1-D slices on a grid.
    /// The default disabled policy is a strict no-op.
    pub rebalance: RebalancePolicy,
    /// Crash-consistent persistence: durable layout snapshots (learned
    /// boundaries + hub census) after each successful run, and optional
    /// mid-traversal checkpoints for warm restarts. `None` (the default)
    /// is a strict no-op on timing, counters and results.
    pub persist: Option<PersistPolicy>,
    /// Topology-aware exchange routing over the per-link fault plane
    /// (DESIGN.md §5h): probe/backoff on flapping links, two-hop relay
    /// and host bounce around dead ones, isolation-triggered migration.
    /// The default disabled policy is a strict no-op.
    pub route: crate::route::RoutePolicy,
}

/// Configuration of a 1-D multi-GPU fleet.
pub type MultiGpuConfig = FleetConfig<Slices>;

/// A 1-D partitioned multi-GPU Enterprise system.
pub type MultiGpuEnterprise = Fleet;

impl FleetConfig<Slices> {
    /// K40s on PCIe with the paper's defaults.
    pub fn k40s(gpu_count: usize) -> Self {
        Self::k40s_over(Slices(gpu_count))
    }
}

impl FleetConfig<Grid> {
    /// An `rows x cols` grid of reproduction-scale K40s.
    pub fn k40s(rows: usize, cols: usize) -> Self {
        Self::k40s_over(Grid { rows, cols })
    }
}

impl<S> FleetConfig<S> {
    pub(crate) fn k40s_over(shape: S) -> Self {
        Self {
            shape,
            device: DeviceConfig::k40_repro(),
            thresholds: ClassifyThresholds::default(),
            workload_balancing: true,
            hub_cache_entries: 1024,
            hub_cache: true,
            policy: DirectionPolicy::gamma_default(),
            faults: None,
            recovery: RecoveryPolicy::default(),
            sanitize: gpu_sim::sanitizer::env_enabled(),
            watchdog: WatchdogPolicy::default(),
            verify: VerifyPolicy::disabled(),
            ecc: EccMode::Off,
            scrub_levels: None,
            rebalance: RebalancePolicy::disabled(),
            persist: None,
            route: crate::route::RoutePolicy::disabled(),
        }
    }
}

impl<S: Into<Shape>> FleetConfig<S> {
    /// The same configuration with its shape as a runtime [`Shape`].
    fn erase(self) -> FleetConfig<Shape> {
        let FleetConfig {
            shape,
            device,
            thresholds,
            workload_balancing,
            hub_cache_entries,
            hub_cache,
            policy,
            faults,
            recovery,
            sanitize,
            watchdog,
            verify,
            ecc,
            scrub_levels,
            rebalance,
            persist,
            route,
        } = self;
        FleetConfig {
            shape: shape.into(),
            device,
            thresholds,
            workload_balancing,
            hub_cache_entries,
            hub_cache,
            policy,
            faults,
            recovery,
            sanitize,
            watchdog,
            verify,
            ecc,
            scrub_levels,
            rebalance,
            persist,
            route,
        }
    }
}

/// Result of one fleet BFS.
#[derive(Clone, Debug)]
pub struct MultiBfsResult {
    /// BFS root.
    pub source: VertexId,
    /// Per-vertex level (`None` = unreachable).
    pub levels: Vec<Option<u32>>,
    /// Per-vertex parent, gathered across devices.
    pub parents: Vec<Option<VertexId>>,
    /// Reachable vertex count.
    pub visited: usize,
    /// Graph 500 traversed-edge count.
    pub traversed_edges: u64,
    /// Makespan across all devices, interconnect time included.
    pub time_ms: f64,
    /// Traversed edges per simulated second.
    pub teps: f64,
    /// Deepest level reached.
    pub depth: u32,
    /// Level at which the direction switched, if it did.
    pub switched_at: Option<u32>,
    /// Interconnect bytes moved during the search.
    pub communication_bytes: u64,
    /// Per-level global trace.
    pub level_trace: Vec<LevelRecord>,
    /// What fault recovery happened during the run (all zero on a
    /// fault-free substrate).
    pub recovery: RecoveryReport,
}

impl MultiBfsResult {
    /// Packages levels and parents with the counts derived from them, at
    /// `time_ms` of simulated time.
    fn package(
        source: VertexId,
        levels: Vec<Option<u32>>,
        parents: Vec<Option<VertexId>>,
        out_degrees: &[u32],
        time_ms: f64,
    ) -> Self {
        let visited = levels.iter().filter(|l| l.is_some()).count();
        let traversed_edges: u64 = levels
            .iter()
            .zip(out_degrees)
            .filter(|(l, _)| l.is_some())
            .map(|(_, &d)| d as u64)
            .sum();
        let depth = levels.iter().flatten().max().copied().unwrap_or(0);
        let teps = if time_ms > 0.0 { traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        MultiBfsResult {
            source,
            levels,
            parents,
            visited,
            traversed_edges,
            time_ms,
            teps,
            depth,
            switched_at: None,
            communication_bytes: 0,
            level_trace: Vec::new(),
            recovery: RecoveryReport::default(),
        }
    }
}

/// The host CPU baseline, the recovery ladder's last rung: a correct
/// traversal with no simulated time, recorded via
/// [`RecoveryReport::cpu_fallback`].
pub(crate) fn cpu_fallback(csr: &Csr, source: VertexId) -> MultiBfsResult {
    let n = csr.vertex_count();
    assert!((source as usize) < n, "source {source} out of range ({n} vertices)");
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut parents: Vec<Option<VertexId>> = vec![None; n];
    levels[source as usize] = Some(0);
    parents[source as usize] = Some(source);
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let next = levels[v as usize].expect("queued vertex has a level") + 1;
        for &w in csr.out_neighbors(v) {
            if levels[w as usize].is_none() {
                levels[w as usize] = Some(next);
                parents[w as usize] = Some(v);
                queue.push_back(w);
            }
        }
    }
    let degrees: Vec<u32> = csr.vertices().map(|v| csr.out_degree(v)).collect();
    MultiBfsResult {
        recovery: RecoveryReport { cpu_fallback: true, ..RecoveryReport::default() },
        ..MultiBfsResult::package(source, levels, parents, &degrees, 0.0)
    }
}

/// How a device's CSR view was cut from the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum View {
    /// Full out/in adjacency of a contiguous slice (`build_1d`): 1-D
    /// slices, and grid devices after a collapse.
    Strip,
    /// A 2-D adjacency block (`build_2d`): out-edges of the column block
    /// restricted to row-block targets, plus the transposed in-view.
    Block,
}

/// A device's partition: its view kind plus the top-down (sources) and
/// bottom-up (targets) scan ranges.
struct Extent {
    view: View,
    td: Range<usize>,
    bu: Range<usize>,
}

impl Extent {
    fn strip(range: Range<usize>) -> Self {
        Extent { view: View::Strip, td: range.clone(), bu: range }
    }

    fn arrays(&self, csr: &Csr) -> PartitionArrays {
        match self.view {
            View::Strip => repartition::build_1d(csr, &self.td),
            View::Block => repartition::build_2d(csr, &self.bu, &self.td),
        }
    }
}

struct PerDevice {
    graph: DeviceGraph,
    state: BfsState,
    view: View,
}

impl PerDevice {
    fn extent(&self) -> Extent {
        Extent { view: self.view, td: self.state.td_range.clone(), bu: self.state.bu_range.clone() }
    }
}

impl Extent {
    /// Uploads this extent's CSR view to `device`, returning the host
    /// arrays it was cut from. The same builder serves setup and every
    /// repartition, so a merged device's view degrees match what the
    /// separate devices saw.
    fn try_upload(
        &self,
        device: &mut Device,
        csr: &Csr,
    ) -> Result<(DeviceGraph, PartitionArrays), DeviceError> {
        let arrays = self.arrays(csr);
        let graph = DeviceGraph::try_upload_parts(
            device,
            csr.vertex_count(),
            csr.edge_count(),
            csr.is_directed(),
            &arrays.out_offsets,
            &arrays.out_targets,
            &arrays.in_offsets,
            &arrays.in_sources,
        )?;
        Ok((graph, arrays))
    }
}

/// Allocates the traversal state of a device holding `graph` as `ext`.
fn try_place(
    device: &mut Device,
    graph: DeviceGraph,
    ext: &Extent,
    thresholds: ClassifyThresholds,
    hub_cache_entries: usize,
    tau: u32,
) -> Result<PerDevice, DeviceError> {
    let state = BfsState::try_new_partitioned2(
        device,
        &graph,
        thresholds,
        hub_cache_entries,
        tau,
        ext.td.clone(),
        ext.bu.clone(),
    )?;
    Ok(PerDevice { graph, state, view: ext.view })
}

/// Seeds `source` on one device's state: the device learns the source
/// (initial broadcast); only the device whose top-down range holds it
/// enqueues it, classified by `host_degree` when given (see
/// [`Fleet::seed_degree`]), else by its view's out-degree.
fn seed(
    device: &mut Device,
    graph: &DeviceGraph,
    st: &mut BfsState,
    source: VertexId,
    host_degree: Option<u32>,
) {
    let s = source as usize;
    st.reset(device);
    if !st.td_range.contains(&s) {
        device.mem().set(st.status, s, 0);
        return;
    }
    // Resident graph arrays can carry silent bit rot from an earlier
    // batch source; kernels clamp corrupt offsets, and the host must
    // tolerate them too. A wrong class is caught by the verifier.
    let degree = host_degree.unwrap_or_else(|| {
        let offs = device.mem_ref().view(graph.out_offsets);
        offs[s + 1].saturating_sub(offs[s])
    });
    enqueue_seed(device, st, source, degree);
}

/// Classifies a device error as a permanent device loss, given the
/// substrate's view of the named device. A kernel-deadline overrun on a
/// device the fault plane marked lost is a loss, not a hang: the host
/// waited out the watchdog budget for a kernel that will never complete.
fn loss_of(e: &DeviceError, multi: &MultiDevice) -> Option<usize> {
    match e {
        DeviceError::DeviceLost { device } => Some(*device),
        DeviceError::KernelDeadline { device, .. } if multi.device_ref(*device).is_lost() => {
            Some(*device)
        }
        _ => None,
    }
}

/// The deadline classifier's third verdict: a kernel-deadline overrun on
/// a device that is *not* lost but carries an armed straggler slowdown is
/// slow-but-alive. Returns the device id and the observed
/// `elapsed / budget` overrun factor — the mitigation's estimate of how
/// far the device has fallen behind when no level telemetry is available
/// (the level never completed).
fn slow_of(e: &DeviceError, multi: &MultiDevice) -> Option<(usize, f64)> {
    match e {
        DeviceError::KernelDeadline { device, elapsed_us, budget_us, .. }
            if !multi.device_ref(*device).is_lost() && multi.device_ref(*device).is_straggler() =>
        {
            let overrun = *elapsed_us as f64 / (*budget_us).max(1) as f64;
            Some((*device, overrun.max(1.0)))
        }
        _ => None,
    }
}

/// Per-device state snapshot used for level replay.
struct DeviceSnapshot {
    status: Vec<u32>,
    parent: Vec<u32>,
    queues: [Vec<u32>; 4],
    queue_sizes: [usize; 4],
}

/// Cross-device checkpoint taken at the top of each level.
struct MultiCheckpoint {
    devices: Vec<DeviceSnapshot>,
    vars: LoopVars,
    trace_len: usize,
}

/// Host loop variables, checkpointed with the device state.
#[derive(Clone)]
struct LoopVars {
    dir: Direction,
    switched_at: Option<u32>,
    /// Whether the last generation staged a hub: probing an empty cache
    /// is pure overhead.
    cache_filled: bool,
    /// Running out-degree sum of visited vertices (α instrumentation).
    visited_edge_sum: u64,
    /// Out-degree sum of the current bottom-up queue.
    bu_queue_edge_sum: u64,
    /// Out-degree sum of the previous top-down frontier.
    prev_frontier_edges: u64,
}

/// One traversal in flight: the sequential `try_bfs` owns one, every
/// pipelined lane owns another, and both advance it with
/// [`Fleet::step`].
struct Walk {
    source: VertexId,
    vars: LoopVars,
    trace: Vec<LevelRecord>,
    recovery: RecoveryReport,
    level: u32,
    level_cap: u32,
    stall: Option<StallDetector>,
    /// The fault plane's link slow-down total at the last rebalance
    /// observation (sequential runs only).
    link_mark: u64,
}

/// What the end-of-level verifier concluded.
enum Verdict {
    /// All invariants hold on the merged view.
    Clean,
    /// Corruption healed in place; `done` is the recomputed termination
    /// decision.
    Repaired { done: bool },
    /// Localized repair could not restore consistency: replay the level.
    Corrupt(ValidationError),
}

/// Checks that persisted 1-D slices are a non-empty tiling of `[0, n)`
/// with identical top-down and bottom-up extents per device — the shape
/// every 1-D layout (initial, rebalanced, collapsed grid) has. Device
/// order need not follow slice order: a grid collapse hands out slices in
/// column-sorted device order, so the per-device ranges tile `[0, n)` as
/// a *set* while the device indices permute it.
fn slices_tile_1d(slices: &[(Range<usize>, Range<usize>)], n: usize) -> bool {
    if slices.is_empty() {
        return false;
    }
    if slices.iter().any(|(td, bu)| td != bu || td.end <= td.start) {
        return false;
    }
    let mut starts: Vec<(usize, usize)> = slices.iter().map(|(td, _)| (td.start, td.end)).collect();
    starts.sort_unstable();
    let mut next = 0usize;
    for (lo, hi) in starts {
        if lo != next {
            return false;
        }
        next = hi;
    }
    next == n
}

/// An Enterprise system over a partition [`Shape`], bound to one graph.
pub struct Fleet {
    config: FleetConfig<Shape>,
    multi: MultiDevice,
    /// Indexed by device id (row-major on a grid).
    parts: Vec<PerDevice>,
    out_degrees: Vec<u32>,
    /// Host copy of the graph, needed to rebuild a partition view when a
    /// lost device's extent is spliced onto a survivor, by the verifier,
    /// and by the CPU fallback baseline.
    csr: Csr,
    /// Hub threshold τ, reused by repartition-time state allocation.
    tau: u32,
    /// Partitions displaced by in-run evictions, restored at the start of
    /// the next run so device loss stays per-run (bit-reproducibility).
    retired: Vec<(usize, PerDevice)>,
    /// Per-device busy time accumulated by the current level pass
    /// (queue generation, barriers excluded) — the telemetry the
    /// imbalance detector consumes.
    level_busy: Vec<f64>,
    /// Durable snapshot store, present when persistence is configured.
    store: Option<SnapshotStore>,
    /// Structural identity of the bound graph, for stale-snapshot rejection.
    fingerprint: Option<GraphFingerprint>,
    /// Persistence failures absorbed during setup, surfaced into the next
    /// run's [`RecoveryReport::snapshot_errors`].
    persist_errors: Vec<PersistError>,
    /// Whether setup warm-started from a persisted layout snapshot.
    warm_restart: bool,
    /// Keyframe + delta checkpoint publisher.
    ckpt_writer: CheckpointWriter,
    /// Devices a restored *degraded-fleet* layout recorded as evicted:
    /// every run of this instance re-evicts them at start and resumes on
    /// the survivors (whose restored slices tile the vertex range alone).
    layout_evicted: Vec<usize>,
    /// Whether the grid has collapsed to rebalanced 1-D slices (set by a
    /// grid rebalance, which outlives the run, or restored from a
    /// persisted collapsed layout). Always false on slices.
    collapsed: bool,
    /// Brownout pin (batch serving plane, DESIGN.md §5i): while set, the
    /// per-run fleet restoration — revive, retired-partition restore,
    /// detector and link-verdict reset — is skipped, so evictions and
    /// learned layouts carry across the sources of one batch.
    pinned: bool,
    /// Imbalance detector, a field so its streak/cooldown state can
    /// carry across the sources of a pinned batch; reset at run start
    /// otherwise.
    detector: ImbalanceDetector,
    /// Hard-down link verdicts carried across exchanges (and, pinned,
    /// across batch sources); cleared at run start otherwise.
    link_verdicts: crate::route::LinkVerdicts,
    /// Fleet-shape generation counter: bumped whenever the partition
    /// layout or alive set changes (eviction splice, rebalance, degraded
    /// resume, batch fleet restore). Pipeline lanes opened against an
    /// older epoch hold stale per-device state and must be re-admitted.
    fleet_epoch: u64,
    /// Parked per-slot, per-device lane states (pipelined batch mode).
    /// The simulator never frees device memory, so lane states are
    /// pooled instead of dropped; a pooled state is reused only while
    /// its scan ranges still match the device's current partition.
    lane_pool: Vec<Vec<Option<BfsState>>>,
    /// Devices evicted because routing proved them link-isolated, as
    /// opposed to fault-plane losses — the split the durable fleet
    /// record preserves across a batch kill/resume. Cleared when the
    /// batch pin is released.
    batch_isolated: BTreeSet<usize>,
}

/// Per-source lane state for pipelined (MS-BFS) batch execution: one
/// private [`BfsState`] per surviving device, the source's walk, and
/// its scoped fault universe, all swapped onto the shared fleet for the
/// duration of one level slice.
pub struct FleetLane {
    walk: Walk,
    slot: usize,
    /// Indexed by device id; `None` for devices that were already dead
    /// at admission (their partitions live on survivors).
    states: Vec<Option<BfsState>>,
    /// The lane's parked fleet fault universe (installed scoped plan +
    /// per-device straggler/throttle state + link plan), swapped in for
    /// each slice so sibling lanes never draw from it.
    bundle: FleetFaultBundle,
}

// The batch serving plane's hooks (`crate::batch`): fault scoping, the
// brownout pin, hedge deadlines, the ledger's store, and the pipelined
// lane protocol.
impl Fleet {
    /// The configured base fault spec, if any.
    pub(crate) fn base_faults(&self) -> Option<FaultSpec> {
        self.config.faults
    }

    /// Installs (or clears) the fault spec used by subsequent runs.
    pub(crate) fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.config.faults = spec;
    }

    /// Pins (or releases) brownout mode: while pinned, the per-run fleet
    /// restoration — revive, retired-partition restore, detector and
    /// link-verdict reset — is skipped, so degradation carries across the
    /// batch's sources. A single device has no shrunken fleet to brown
    /// out to: its pin is a no-op, so a lost device poisons only its own
    /// source and is revived for the next one.
    pub(crate) fn set_pinned(&mut self, pinned: bool) {
        self.pinned = pinned && self.parts.len() > 1;
        if !pinned {
            // The fault/isolation eviction split is batch bookkeeping;
            // it must not leak into the next batch's fleet records.
            self.batch_isolated.clear();
        }
    }

    /// Lifts kernel and level deadlines for a hedged re-execution,
    /// returning the saved `(kernel_deadline_ms, level_deadline_ms)`.
    pub(crate) fn relax_deadlines(&mut self) -> (Option<f64>, Option<f64>) {
        let saved =
            (self.config.watchdog.kernel_deadline_ms, self.config.watchdog.level_deadline_ms);
        self.config.watchdog.kernel_deadline_ms = None;
        self.config.watchdog.level_deadline_ms = None;
        for d in self.multi.devices_mut() {
            d.set_kernel_deadline_ms(None);
        }
        saved
    }

    /// Restores deadlines saved by [`Fleet::relax_deadlines`].
    pub(crate) fn restore_deadlines(&mut self, (kernel, level): (Option<f64>, Option<f64>)) {
        self.config.watchdog.kernel_deadline_ms = kernel;
        self.config.watchdog.level_deadline_ms = level;
        for d in self.multi.devices_mut() {
            d.set_kernel_deadline_ms(kernel);
        }
    }

    /// The snapshot store and graph fingerprint, when persistence is
    /// armed — the durable home of the batch ledger.
    pub(crate) fn manifest_store(&mut self) -> Option<(&mut SnapshotStore, GraphFingerprint)> {
        match (self.store.as_mut(), self.fingerprint) {
            (Some(store), Some(fp)) => Some((store, fp)),
            _ => None,
        }
    }

    /// Monotonic fleet-shape epoch, bumped whenever the layout a lane was
    /// opened against changes under it (device eviction, boundary splice,
    /// rebalance). The batch engine re-admits lanes whose epoch went stale.
    pub(crate) fn fleet_epoch(&self) -> u64 {
        self.fleet_epoch
    }

    /// Opens a fused window of `width` per-lane timelines on the fleet
    /// clock; simulated time inside it is attributed to the lane selected
    /// by [`Fleet::sweep_switch`] and overlapped at close.
    pub(crate) fn sweep_begin(&mut self, width: usize) {
        // Restored-layout evictions must land *before* the fused window
        // opens: evicting a device with its window open would leave the
        // window dangling (a dead device never reaches `end_fused`) and
        // panic the next `begin_fused`.
        for &d in &self.layout_evicted {
            self.multi.evict(d);
        }
        self.multi.begin_fused(width);
    }

    /// Directs subsequent simulated time at lane stream `slot`.
    pub(crate) fn sweep_switch(&mut self, slot: usize) {
        self.multi.fused_switch(slot);
    }

    /// Closes the window: the fleet clock advances by the overlapped span,
    /// and the return value carries each slot's serial charge.
    pub(crate) fn sweep_end(&mut self, width: usize) -> Vec<f64> {
        self.multi.end_fused(width)
    }

    /// Allocates (or reuses slot `slot`'s pooled) lane state, seeds
    /// `source`, and arms the lane's scoped fault universe `spec`. Must
    /// only be called inside a fused window with `slot` switched in.
    pub(crate) fn lane_open(
        &mut self,
        source: VertexId,
        slot: usize,
        spec: Option<FaultSpec>,
    ) -> Result<FleetLane, BfsError> {
        self.check_source(source)?;
        if let Some(spec) = spec {
            Self::arm_faults(&mut self.multi, spec);
        }
        let result = self.lane_open_inner(source, slot);
        // Park the lane's universe (even a refused open's) in a bundle,
        // so sibling slices in the same sweep never draw from it.
        let mut bundle = FleetFaultBundle::healthy(self.parts.len());
        self.multi.swap_fleet_fault_bundle(&mut bundle);
        result.map(|mut lane| {
            lane.bundle = bundle;
            lane
        })
    }

    /// Advances the lane one BFS level; `Ok(true)` = frontier drained. Must
    /// only be called inside a fused window with the lane's slot switched
    /// in; an error demotes the source to the de-pipelined ladder.
    pub(crate) fn lane_step(&mut self, lane: &mut FleetLane) -> Result<bool, BfsError> {
        self.multi.swap_fleet_fault_bundle(&mut lane.bundle);
        self.swap_lane_states(&mut lane.states);
        let out = self.step(&mut lane.walk, true);
        self.swap_lane_states(&mut lane.states);
        self.multi.swap_fleet_fault_bundle(&mut lane.bundle);
        out
    }

    /// Completes a drained lane into a result — end-of-run audit included
    /// — charging `time_ms` as the run's simulated time. Must be called
    /// outside any fused window.
    pub(crate) fn lane_finish(
        &mut self,
        lane: FleetLane,
        time_ms: f64,
    ) -> Result<MultiBfsResult, BfsError> {
        let FleetLane { mut walk, slot, mut states, bundle } = lane;
        // The lane's fault counters live in its parked bundle; the
        // fleet's installed plans belong to whoever ran last.
        walk.recovery.faults = bundle.stats();
        self.swap_lane_states(&mut states);
        self.persist_finish(&mut walk.recovery);
        let mut result = self.collect(walk);
        self.swap_lane_states(&mut states);
        self.park_lane_states(slot, &mut states);
        // The run's time is its lane stream's serial charge, not the
        // fleet clock (which advanced by the overlapped sweep spans).
        result.time_ms = time_ms;
        result.teps =
            if time_ms > 0.0 { result.traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        if self.config.verify.end_of_run {
            // A dirty audit demotes the source to the de-pipelined
            // ladder (the sequential engine's full replay) instead of
            // replaying inside the lane.
            if let Err(e) = audit(&self.csr, result.source, &result.levels, &result.parents) {
                return Err(BfsError::ValidationFailedAfterReplay(e));
            }
        }
        Ok(result)
    }

    /// Discards a lane, returning its pooled state for reuse.
    pub(crate) fn lane_abort(&mut self, mut lane: FleetLane) {
        self.park_lane_states(lane.slot, &mut lane.states);
    }

    /// The fleet's serializable degradation — evicted device ids, spliced
    /// partition boundaries, learned link verdicts — or `None` while the
    /// fleet is healthy (or its shape persists no degraded layout).
    pub(crate) fn capture_fleet(&mut self) -> Option<FleetRecord> {
        if !self.persists_degraded() {
            return None;
        }
        let p = self.parts.len();
        let dead: Vec<usize> = (0..p).filter(|&d| !self.multi.is_alive(d)).collect();
        let verdicts = self.link_verdicts.pairs();
        if dead.is_empty() && verdicts.is_empty() {
            // Pure boundary drift (rebalance without loss) persists via
            // the layout-snapshot channel; no fleet record needed.
            return None;
        }
        // Fault-plane losses first, link-isolated evictions last: the
        // counts split the id list exactly on restore.
        let (isolated, fault): (Vec<u32>, Vec<u32>) = dead
            .iter()
            .map(|&d| d as u32)
            .partition(|&d| self.batch_isolated.contains(&(d as usize)));
        let boundaries = self
            .parts
            .iter()
            .map(|p| (p.state.td_range.clone(), p.state.td_range.clone()))
            .collect();
        Some(FleetRecord {
            fault_lost: fault.len() as u32,
            link_isolated: isolated.len() as u32,
            evicted: fault.into_iter().chain(isolated).collect(),
            boundaries,
            verdicts,
        })
    }

    /// Re-applies a captured fleet shape before a resumed batch runs:
    /// re-evicts the dead devices and rebuilds the survivors on the
    /// spliced boundaries. `false` = unsupported or mismatched; the batch
    /// proceeds on the cold fleet.
    pub(crate) fn restore_fleet(&mut self, rec: &FleetRecord) -> bool {
        let n = self.csr.vertex_count();
        let p = self.parts.len();
        if !self.persists_degraded()
            || rec.boundaries.len() != p
            || rec.evicted.len() != (rec.fault_lost + rec.link_isolated) as usize
            || rec.evicted.len() >= p
        {
            return false;
        }
        let Some(dead) = dead_mask(&rec.evicted, p) else { return false };
        // The survivors' recorded slices must tile the vertex range by
        // themselves (evicted entries are stale).
        let survivors: Vec<(usize, Range<usize>)> = rec
            .boundaries
            .iter()
            .enumerate()
            .filter(|(d, _)| !dead[*d])
            .map(|(d, (td, _))| (d, td.clone()))
            .collect();
        let slices: Vec<_> = survivors.iter().map(|(_, s)| (s.clone(), s.clone())).collect();
        if !slices_tile_1d(&slices, n) {
            return false;
        }
        // Rebuild (fallibly) every survivor whose extent moved, before
        // committing anything; a defect leaves the fleet untouched and
        // the batch cold-starts.
        let Ok(rebuilt) = self.rebuild_strips(&survivors) else { return false };
        // Commit. The displaced cold partitions are retired so the next
        // *unpinned* run of this instance restores the original layout.
        for &d in &rec.evicted {
            if self.multi.is_alive(d as usize) {
                self.multi.evict(d as usize);
            }
        }
        self.commit_rebuilt(rebuilt);
        self.link_verdicts.restore(&rec.verdicts);
        self.batch_isolated.clear();
        let iso_start = rec.evicted.len() - rec.link_isolated as usize;
        for &d in &rec.evicted[iso_start..] {
            self.batch_isolated.insert(d as usize);
        }
        true
    }
}

/// Marks `evicted` in a `p`-device mask; `None` when an id is unknown or
/// repeated.
fn dead_mask(evicted: &[u32], p: usize) -> Option<Vec<bool>> {
    let mut dead = vec![false; p];
    for &d in evicted {
        let d = d as usize;
        if d >= p || dead[d] {
            return None;
        }
        dead[d] = true;
    }
    Some(dead)
}

// Shape-specific decisions. Everything else in the driver is shared; each
// function below is the one place its decision matches on the shape or,
// for the rules only a single device needs, on the device count.
impl Fleet {
    /// Faults: arms `spec` on `multi`. A single device draws `spec`'s own
    /// stream and has no interconnect; a fleet gives every device an
    /// independent substream plus one for the interconnect.
    fn arm_faults(multi: &mut MultiDevice, spec: FaultSpec) {
        if multi.count() == 1 {
            multi.device(0).set_fault_plan(Some(FaultPlan::new(spec)));
        } else {
            multi.install_faults(spec);
        }
    }

    /// Layout: uploads a device's cold `ext` in a `p`-device fleet. A
    /// single device uploads the CSR itself, so an undirected graph's
    /// in-view aliases its out-view (one adjacency in the L2, as on the
    /// paper's GPU); a fleet's devices upload their partition views.
    fn upload_cold(
        p: usize,
        device: &mut Device,
        csr: &Csr,
        ext: &Extent,
    ) -> Result<DeviceGraph, DeviceError> {
        if p == 1 {
            DeviceGraph::try_upload(device, csr)
        } else {
            Ok(ext.try_upload(device, csr)?.0)
        }
    }

    /// Layout: device `d`'s cold extent — an equal 1-D slice, or on a
    /// grid column block `j` by row block `i` for `d = i * cols + j`.
    fn cold_extent(shape: Shape, n: usize, d: usize) -> Extent {
        match shape.grid() {
            None => {
                let p = shape.devices();
                Extent::strip((d * n / p)..((d + 1) * n / p))
            }
            Some((r, c)) => {
                let (i, j) = (d / c, d % c);
                Extent {
                    view: View::Block,
                    td: (j * n / c)..((j + 1) * n / c),
                    bu: (i * n / r)..((i + 1) * n / r),
                }
            }
        }
    }

    /// Layout: the hub census T_h — `restored` when a layout snapshot
    /// carried it, else from per-device counts. A slice counts only its
    /// own vertices, so the fleet sums every device; a grid column counts
    /// the same hubs on every row, so the grid sums one row and then
    /// synchronizes its clocks.
    fn census(
        shape: Shape,
        multi: &mut MultiDevice,
        parts: &[PerDevice],
        restored: Option<u64>,
    ) -> u64 {
        let measured = |k: usize| parts[..k].iter().map(|p| p.state.total_hubs).sum();
        match shape.grid() {
            None => restored.unwrap_or_else(|| measured(parts.len())),
            Some((_, c)) => {
                let total = restored.unwrap_or_else(|| measured(c));
                multi.barrier();
                total
            }
        }
    }

    /// Layout: the out-degree the source is classified by at seeding — the
    /// host table on a single device, the owning device's resident view
    /// offsets on a fleet (see [`seed`]).
    fn seed_degree(&self, source: VertexId) -> Option<u32> {
        (self.parts.len() == 1).then(|| self.out_degrees[source as usize])
    }

    /// Exchange: the seed broadcast's synchronization. Slices barrier
    /// after seeding; a grid starts its first level unsynchronized.
    fn seed_sync(&mut self) {
        if self.config.shape.grid().is_none() {
            self.multi.barrier();
        }
    }

    /// Exchange: charges the level's discovery broadcast on the wire
    /// (nothing on a lone survivor). Slices all-to-all broadcast a
    /// `ballot(n)` bitmap per device; a grid row-merges and column-shares
    /// `(c-1 + r-1) * ballot(n/r)` bits per device, serialized — a charge
    /// that keeps the configured grid shape even after an eviction shrinks
    /// it (a conservative over-charge of the degraded pattern).
    ///
    /// Under fault injection the broadcast carries a checksum: a dropped
    /// exchange (detected by timeout) or a corrupted one (detected by
    /// checksum mismatch on the received copy) is retried with
    /// exponential backoff, a bounded number of times. With the routing
    /// ladder armed ([`FleetConfig::route`]), dead links additionally
    /// climb probe → relay → host bounce (see [`crate::route`]).
    fn exchange(&mut self, level: u32, recovery: &mut RecoveryReport) -> Result<(), BfsError> {
        let n = self.csr.vertex_count();
        let (bytes, serialized) = match self.config.shape.grid() {
            _ if self.multi.alive_count() <= 1 => return Ok(()),
            None => (ballot_compressed_bytes(n), false),
            Some((r, c)) => ((c - 1 + r - 1) as u64 * ballot_compressed_bytes(n.div_ceil(r)), true),
        };
        if self.config.faults.is_none() {
            // Fault-free substrate: the plain exchange, bit-identical in
            // time and counters to the pre-fault-plane driver.
            if serialized {
                self.multi.exchange_serialized(bytes);
            } else {
                self.multi.exchange(bytes);
            }
            return Ok(());
        }
        // Model the wire payload: the union bitmap of newly visited
        // vertices, with a Fletcher checksum appended.
        let mut bitmap = vec![0u8; ballot_compressed_bytes(n) as usize];
        for d in self.multi.alive_ids() {
            let status = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.status);
            for (v, &s) in status.iter().enumerate() {
                if s == level + 1 {
                    bitmap[v / 8] |= 1 << (v % 8);
                }
            }
        }
        crate::route::exchange_routed(
            &mut self.multi,
            &bitmap,
            &self.config.route,
            level,
            recovery,
            &mut self.link_verdicts,
            |m| {
                if serialized {
                    m.exchange_serialized_with_faults(bytes)
                } else {
                    m.exchange_with_faults(bytes)
                }
            },
        )
    }

    /// Exchange: the level's newly visited count. Slices read it off the
    /// queue totals (top-down: the new frontier; bottom-up: the drop in
    /// unvisited queue entries); a grid's queues count a vertex once per
    /// block row, so it uses the merge count.
    fn newly_visited(
        &self,
        dir: Direction,
        prev_total: usize,
        total: usize,
        merged: usize,
    ) -> usize {
        match (self.config.shape.grid(), dir) {
            (None, Direction::TopDown) => total,
            // Saturating: a bit-flip campaign can corrupt the device
            // counts behind these totals; accounting must not panic.
            (None, Direction::BottomUp) => prev_total.saturating_sub(total),
            (Some(_), _) => merged,
        }
    }

    /// Exchange: Beamer's α as the level trace records it. Slices hold
    /// disjoint queues, so their degree sums are exact; a grid's queues
    /// repeat a vertex once per block row, so it records 0.
    fn level_alpha(&self, signals: &SwitchSignals) -> f64 {
        match self.config.shape.grid() {
            None => signals.alpha(),
            Some(_) => 0.0,
        }
    }

    /// Loss: splices the survivors that absorb `lost`'s extent (the
    /// caller has evicted it and rolled back to `ckpt`). Slices hand the
    /// lost slice to the survivor with the adjacent range. A grid, in
    /// priority order:
    ///
    /// 1. a survivor covering the *same row block* with a
    ///    *column-adjacent* block absorbs the lost columns (its expansion
    ///    slice widens);
    /// 2. a survivor covering the *same column block* with a
    ///    *row-adjacent* block absorbs the lost rows (its inspection
    ///    slice widens);
    /// 3. otherwise the whole grid collapses to a 1-D layout over the
    ///    survivors (each gets a contiguous vertex slice), and the whole
    ///    graph moves once across the interconnect.
    ///
    /// The first spliced survivor also inherits the lost device's
    /// checkpointed parents (collect() takes the first recorded parent).
    fn absorb_loss(
        &mut self,
        lost: usize,
        ckpt: &MultiCheckpoint,
        walk: &mut Walk,
    ) -> Result<(), BfsError> {
        let n = self.csr.vertex_count();
        let gone = self.parts[lost].extent();
        let alive = self.multi.alive_ids();
        let (plan, moved): (Vec<(usize, Extent)>, u64) = match self.config.shape.grid() {
            None => {
                let owned: Vec<(usize, Range<usize>)> =
                    alive.iter().map(|&d| (d, self.parts[d].state.td_range.clone())).collect();
                let rcv = repartition::choose_recipient_1d(&owned, &gone.td)
                    .expect("1-D owned ranges tile the vertex range, so a neighbor survives");
                let merged = repartition::union_range(&self.parts[rcv].state.td_range, &gone.td);
                (vec![(rcv, Extent::strip(merged))], gone.arrays(&self.csr).moved_words())
            }
            Some(_) => {
                let same_row = alive.iter().copied().find(|&d| {
                    let e = self.parts[d].extent();
                    e.bu == gone.bu && repartition::adjacent(&e.td, &gone.td)
                });
                let same_col = alive.iter().copied().find(|&d| {
                    let e = self.parts[d].extent();
                    e.td == gone.td && repartition::adjacent(&e.bu, &gone.bu)
                });
                let block_moved = gone.arrays(&self.csr).moved_words();
                if let Some(rcv) = same_row {
                    let td = repartition::union_range(&self.parts[rcv].state.td_range, &gone.td);
                    (
                        vec![(rcv, Extent { view: View::Block, td, bu: gone.bu.clone() })],
                        block_moved,
                    )
                } else if let Some(rcv) = same_col {
                    let bu = repartition::union_range(&self.parts[rcv].state.bu_range, &gone.bu);
                    (
                        vec![(rcv, Extent { view: View::Block, td: gone.td.clone(), bu })],
                        block_moved,
                    )
                } else {
                    let p = alive.len();
                    let plan: Vec<(usize, Extent)> = alive
                        .iter()
                        .enumerate()
                        .map(|(k, &d)| (d, Extent::strip((k * n / p)..((k + 1) * n / p))))
                        .collect();
                    let moved = plan.iter().map(|(_, e)| e.arrays(&self.csr).moved_words()).sum();
                    (plan, moved)
                }
            }
        };
        // Charge the simulated cost of moving the CSR views (plus one
        // status bitmap) to every survivor.
        walk.recovery.repartition_ms += self.charge(moved);
        for (k, (d, ext)) in plan.into_iter().enumerate() {
            // Each recipient's checkpointed status already equals the
            // merged global view.
            let status = ckpt.devices[d].status.clone();
            let mut parent = ckpt.devices[d].parent.clone();
            if k == 0 {
                repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
            }
            self.splice_device(d, ext, &status, &parent, walk.vars.dir, walk.level)?;
        }
        Ok(())
    }

    /// Rebalance: re-lays the alive devices out as contiguous 1-D slices
    /// with lengths proportional to `weights` (one entry per alive
    /// device), splicing the current traversal state onto the new layout:
    /// the merged status is re-uploaded as-is, each device keeps its
    /// *own* parent array (it stays alive, so its discoveries remain
    /// gatherable), and queues are rebuilt for `rebuild_level`.
    ///
    /// Slices shift boundaries: only devices whose slice moved are
    /// re-spliced, and only the vertices that change owners are charged
    /// (compacted CSR deltas). A grid collapses: every device becomes a
    /// strip, the whole layout is charged as moved, and the grid stays
    /// collapsed. Either way the new layout *persists* across runs of
    /// this instance (unlike an eviction splice): a straggler is a
    /// property of the device, so one move amortizes over every following
    /// search of a multi-source workload. Charged to
    /// [`RecoveryReport::rebalance_ms`].
    fn rebalance(
        &mut self,
        weights: &[(usize, f64)],
        rebuild_level: u32,
        dir: Direction,
        recovery: &mut RecoveryReport,
    ) -> Result<(), BfsError> {
        if weights.len() < 2 {
            return Ok(());
        }
        let n = self.csr.vertex_count();
        // Slices are assigned in current layout order (top-down start,
        // then device id) so every device keeps a contiguous range.
        let mut order: Vec<(usize, f64)> = weights.to_vec();
        order.sort_by_key(|&(d, _)| (self.parts[d].state.td_range.start, d));
        let w: Vec<f64> = order.iter().map(|&(_, w)| w).collect();
        let slices = rebalance::weighted_slices(n, &w);
        let collapse = self.config.shape.grid().is_some();
        let moved: u64 = if collapse {
            slices.iter().map(|s| repartition::build_1d(&self.csr, s).moved_words()).sum()
        } else {
            let mut moved = 0u64;
            for (&(d, _), new) in order.iter().zip(&slices) {
                let old = &self.parts[d].state.td_range;
                if new.start < old.start {
                    moved +=
                        repartition::delta_words(&self.csr, &(new.start..old.start.min(new.end)));
                }
                if new.end > old.end {
                    moved +=
                        repartition::delta_words(&self.csr, &(old.end.max(new.start)..new.end));
                }
            }
            moved
        };
        if collapse {
            recovery.rebalance_ms += self.charge(moved);
        }

        // Any alive device's status is the merged global view.
        let d0 = self.multi.alive_ids()[0];
        let status = self.multi.device_ref(d0).mem_ref().view(self.parts[d0].state.status).to_vec();
        // splice_device retires the old parts so *eviction* splices can
        // be undone at the next run start; rebalanced layouts outlive the
        // run, so what this loop retired is dropped.
        let mark = self.retired.len();
        for (&(d, _), slice) in order.iter().zip(&slices) {
            if !collapse && self.parts[d].state.td_range == *slice {
                continue;
            }
            let parent =
                self.multi.device_ref(d).mem_ref().view(self.parts[d].state.parent).to_vec();
            self.splice_device(
                d,
                Extent::strip(slice.clone()),
                &status,
                &parent,
                dir,
                rebuild_level,
            )?;
        }
        if self.retired.len() > mark {
            self.fleet_epoch += 1;
        }
        self.retired.truncate(mark);
        if collapse {
            self.collapsed = true;
        } else {
            recovery.rebalance_ms += self.charge(moved);
        }
        Ok(())
    }

    /// Persistence: the driver kind persisted snapshots and batch ledgers
    /// are bound to — `Single` for one device, whatever its shape.
    pub(crate) fn kind(&self) -> DriverKind {
        Self::kind_of(self.config.shape)
    }

    fn kind_of(shape: Shape) -> DriverKind {
        match shape.grid() {
            _ if shape.devices() == 1 => DriverKind::Single,
            None => DriverKind::OneD,
            Some(_) => DriverKind::TwoD,
        }
    }

    /// Persistence: whether a degraded fleet persists as such (eviction
    /// ledgers in checkpoints and layouts, fleet records). Slices do; a
    /// degraded grid has merged *block* views the records' 1-D
    /// boundaries cannot express, so it writes no checkpoint, publishes
    /// its cold layout, and resumes batches on the cold grid.
    fn persists_degraded(&self) -> bool {
        self.config.shape.grid().is_none()
    }

    /// Persistence: whether a layout snapshot fits this shape — kind, τ,
    /// grid dimensions and device count match, and the live extents
    /// (devices for which `alive` holds) tile the vertex range: 1-D
    /// slices, a grid's collapsed slices, or a grid's exact cold blocks.
    /// Only slices may carry evictions.
    fn layout_fits(
        shape: Shape,
        tau: u32,
        n: usize,
        snap: &LayoutSnapshot,
        alive: impl Fn(usize) -> bool,
    ) -> bool {
        let p = shape.devices();
        let (r, c) = shape.grid().unwrap_or((1, p));
        if snap.kind != Self::kind_of(shape)
            || snap.hub_tau != tau
            || snap.grid != (r as u32, c as u32)
            || snap.slices.len() != p
            || snap.evicted.len() >= p
        {
            return false;
        }
        match shape.grid() {
            None => {
                let live: Vec<_> = snap
                    .slices
                    .iter()
                    .enumerate()
                    .filter(|(d, _)| alive(*d))
                    .map(|(_, s)| s.clone())
                    .collect();
                slices_tile_1d(&live, n)
            }
            Some(_) => {
                snap.evicted.is_empty()
                    && if snap.collapsed {
                        slices_tile_1d(&snap.slices, n)
                    } else {
                        snap.slices.iter().enumerate().all(|(d, (td, bu))| {
                            let cold = Self::cold_extent(shape, n, d);
                            *td == cold.td && *bu == cold.bu
                        })
                    }
            }
        }
    }
}

impl Fleet {
    /// Partitions and uploads `csr` onto the devices of `config.shape`.
    ///
    /// # Panics
    /// Panics on device OOM or an injected allocation fault; see
    /// [`Fleet::try_new`].
    pub fn new<S: Into<Shape>>(config: FleetConfig<S>, csr: &Csr) -> Self {
        Self::try_new(config, csr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: device OOM (a partition not fitting), an
    /// injected allocation fault and a census that exhausts its retries
    /// surface as a typed [`BfsError`] on every shape, so the caller can
    /// degrade to the CPU baseline.
    pub fn try_new<S: Into<Shape>>(config: FleetConfig<S>, csr: &Csr) -> Result<Self, BfsError> {
        let mut config = config.erase();
        let shape = config.shape;
        let p = shape.devices();
        assert!(p >= 1);
        assert!(
            p == 1 || !matches!(config.policy, DirectionPolicy::Alpha { .. }),
            "a multi-device fleet supports the Gamma and TopDownOnly policies"
        );
        let n = csr.vertex_count();
        assert!(n >= p, "fewer vertices than devices");
        // Block views cover one column block's out-degrees, so hubs are
        // not identifiable locally: grids run without the hub cache.
        if shape.grid().is_some() {
            config.hub_cache = false;
        }
        if !config.workload_balancing {
            // Single-queue mode: every frontier classifies as Small.
            config.thresholds = ClassifyThresholds {
                small_below: u32::MAX - 2,
                middle_below: u32::MAX - 1,
                large_below: u32::MAX,
            };
        }
        let mut multi = MultiDevice::new(p, config.device.clone(), InterconnectConfig::default());
        multi.set_ecc(config.ecc);
        // A single device arms its plan from birth, so allocation faults
        // and census retries fire at setup; a fleet arms per run.
        if let (1, Some(spec)) = (p, config.faults) {
            Self::arm_faults(&mut multi, spec);
        }
        let tau = hub_threshold_for_capacity(csr, config.hub_cache_entries);

        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph/configuration restores the layout a previous
        // process converged to (rebalanced slices, a collapsed grid, a
        // degraded fleet) and the hub census, skipping hub measurement.
        // Defects degrade to a cold start.
        let mut store = None;
        let mut persist_errors: Vec<PersistError> = Vec::new();
        let fingerprint = config.persist.as_ref().map(|_| GraphFingerprint::of(csr));
        if let Some(policy) = &config.persist {
            match SnapshotStore::open(&policy.state_dir, config.faults.as_ref()) {
                Ok(s) => store = Some(s),
                Err(e) => persist_errors.push(e),
            }
        }
        let mut restored: Option<LayoutSnapshot> = None;
        if let (Some(st), Some(fp)) = (store.as_mut(), fingerprint.as_ref()) {
            match LayoutSnapshot::load(st) {
                Ok(Some(snap)) => {
                    // Evicted entries are stale; only the survivors' slices
                    // must tile the vertex range.
                    let alive = |d: usize| !snap.evicted.contains(&(d as u32));
                    if snap.fingerprint != *fp {
                        persist_errors.push(PersistError::GraphMismatch);
                    } else if !Self::layout_fits(shape, tau, n, &snap, alive) {
                        persist_errors.push(PersistError::LayoutMismatch);
                    } else {
                        restored = Some(snap);
                    }
                }
                Ok(None) => {}
                Err(e) => persist_errors.push(e),
            }
        }
        let warm_restart = restored.is_some();
        let collapsed = restored.as_ref().is_some_and(|s| s.collapsed);
        let layout_evicted: Vec<usize> = restored
            .as_ref()
            .map(|snap| snap.evicted.iter().map(|&d| d as usize).collect())
            .unwrap_or_default();

        let mut parts = Vec::with_capacity(p);
        for d in 0..p {
            // A restored grid that did not collapse sits on its cold blocks.
            let ext = match &restored {
                Some(snap) if collapsed || shape.grid().is_none() => {
                    Extent::strip(snap.slices[d].0.clone())
                }
                _ => Self::cold_extent(shape, n, d),
            };
            let device = multi.device(d);
            // Sanitize/deadline before any allocation so initialization
            // tracking covers every buffer from birth.
            if config.sanitize {
                device.enable_sanitizer();
            }
            device.set_kernel_deadline_ms(config.watchdog.kernel_deadline_ms);
            let graph = Self::upload_cold(p, device, csr, &ext)?;
            let mut part =
                try_place(device, graph, &ext, config.thresholds, config.hub_cache_entries, tau)?;
            // The census is idempotent, so transient launch faults are
            // absorbed by simple re-runs.
            let mut attempts = 0u32;
            while restored.is_none() {
                match try_measure_total_hubs(device, &part.graph, &mut part.state) {
                    Ok(()) => break,
                    Err(_) if attempts < config.recovery.max_level_retries => attempts += 1,
                    Err(e) => return Err(e.into()),
                }
            }
            parts.push(part);
        }
        // T_h is a graph property: measured once at setup and shared (a
        // scalar all-reduce). A warm restart reuses the persisted census.
        let total_hubs = Self::census(shape, &mut multi, &parts, restored.map(|s| s.total_hubs));
        for part in &mut parts {
            part.state.total_hubs = total_hubs;
        }
        let out_degrees = csr.vertices().map(|v| csr.out_degree(v)).collect();
        let detector = ImbalanceDetector::new(config.rebalance);
        Ok(Self {
            config,
            multi,
            parts,
            out_degrees,
            csr: csr.clone(),
            tau,
            retired: Vec::new(),
            level_busy: vec![0.0; p],
            store,
            fingerprint,
            persist_errors,
            warm_restart,
            ckpt_writer: CheckpointWriter::new(),
            layout_evicted,
            collapsed,
            pinned: false,
            detector,
            link_verdicts: crate::route::LinkVerdicts::default(),
            fleet_epoch: 0,
            lane_pool: Vec::new(),
            batch_isolated: BTreeSet::new(),
        })
    }

    /// Devices still alive (not evicted by the current/last run).
    pub fn alive_devices(&self) -> usize {
        self.multi.alive_count()
    }

    /// Simulated device `d` (for counter inspection).
    pub fn device(&self, d: usize) -> &Device {
        self.multi.device_ref(d)
    }

    /// Hub threshold τ chosen for this graph.
    pub fn hub_tau(&self) -> u32 {
        self.tau
    }

    /// Total hub count `T_h` (γ's denominator) measured at setup.
    pub fn total_hubs(&self) -> u64 {
        self.parts[0].state.total_hubs
    }

    /// Caps every device's in-driver relaunch budget for faulted kernels
    /// (`0` escalates every injected kernel fault to a level replay).
    pub fn set_launch_retries(&mut self, retries: u32) {
        for d in self.multi.devices_mut() {
            d.set_launch_retries(retries);
        }
    }

    /// Runs a queue of sources as one supervised batch over this warm
    /// fleet (DESIGN.md §5i): per-source fault isolation, retries,
    /// hedging, deadline shedding, graceful brownout on the shrinking
    /// fleet, and — with persistence armed — a durable outcome ledger.
    /// With `policy` disabled this is bit-identical to calling
    /// [`Fleet::try_bfs`] per source.
    pub fn batch(
        &mut self,
        sources: &[BatchSource],
        policy: &BatchPolicy,
    ) -> BatchReport<MultiBfsResult> {
        crate::batch::run_batch(self, sources, policy)
    }

    /// Simulated milliseconds on the fleet clock since the last run
    /// started. Right after construction this is the setup cost the warm
    /// fleet amortizes across a batch (hub census measurement).
    pub fn sim_elapsed_ms(&self) -> f64 {
        self.multi.elapsed_ms()
    }

    /// Runs one BFS from `source` across all devices, degrading through
    /// the full recovery ladder: in-driver relaunch, level replay,
    /// exchange retry, device eviction + repartitioning, and finally the
    /// host CPU baseline when the typed-error budget is exhausted (the
    /// fallback is recorded in [`RecoveryReport::cpu_fallback`]).
    ///
    /// # Panics
    /// Panics if `source` is not a vertex of the graph; see
    /// [`Fleet::try_bfs`].
    pub fn bfs(&mut self, source: VertexId) -> MultiBfsResult {
        match self.try_bfs(source) {
            Ok(r) => r,
            Err(_) => self.cpu_fallback(source),
        }
    }

    /// Fallible BFS with level-replay recovery (kernel faults roll every
    /// device back to the level checkpoint), checksummed exchange retry
    /// (dropped or corrupted bitmap broadcasts are re-sent with
    /// exponential backoff), and elastic device eviction: a permanently
    /// lost device's extent is absorbed by the survivors and the level
    /// resumes on `N - 1` GPUs, down to
    /// [`RecoveryPolicy::min_surviving_devices`]. A single device's loss
    /// is terminal ([`BfsError::Device`]). A source outside the graph is
    /// [`BfsError::SourceOutOfRange`], before any state changes.
    pub fn try_bfs(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        self.check_source(source)?;
        // Reinstall the fault plan from its seed so repeated runs of this
        // instance draw the same fault sequence (bit-reproducibility).
        if let Some(spec) = self.config.faults {
            Self::arm_faults(&mut self.multi, spec);
        }
        let result = self.try_bfs_once(source)?;
        if !self.config.verify.end_of_run {
            return Ok(result);
        }
        if audit(&self.csr, source, &result.levels, &result.parents).is_ok() {
            return Ok(result);
        }
        // Full replay *without* reinstalling the fault plan: the replay
        // continues the fault stream instead of reproducing the exact
        // corruption the audit rejected. Fault counters are cumulative
        // across the replay.
        let mut replay = self.try_bfs_once(source)?;
        replay.recovery.validation_replays += 1;
        match audit(&self.csr, source, &replay.levels, &replay.parents) {
            Ok(()) => Ok(replay),
            Err(e) => Err(BfsError::ValidationFailedAfterReplay(e)),
        }
    }

    /// One attempt of the traversal (no end-of-run audit): the body of
    /// [`Fleet::try_bfs`], which may invoke it twice when the audit
    /// demands a full replay.
    fn try_bfs_once(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        // Device loss is per-run: revive the substrate and restore the
        // original partitions displaced by the previous run's evictions,
        // so repeated runs of one instance stay bit-reproducible. Under
        // a batch brownout pin the restoration is skipped — the shrunken
        // fleet, learned layout, detector state, and link verdicts carry
        // to the next source instead (DESIGN.md §5i).
        if !self.pinned {
            self.multi.revive_all();
            for (d, part) in self.retired.drain(..).rev() {
                self.parts[d] = part;
            }
            self.detector = ImbalanceDetector::new(self.config.rebalance);
            self.link_verdicts.clear();
        }
        // A restored degraded-fleet layout pins its evictions for the
        // life of this instance: re-evict before seeding so every run
        // starts on the same survivor set (whose restored slices tile
        // the vertex range by themselves).
        for &d in &self.layout_evicted {
            self.multi.evict(d);
        }
        self.multi.reset_stats();
        let degree = self.seed_degree(source);
        for d in self.multi.alive_ids() {
            let part = &mut self.parts[d];
            seed(self.multi.device(d), &part.graph, &mut part.state, source, degree);
        }
        self.seed_sync();

        let mut walk = self.open_walk(source);
        // Warm restart from a durable mid-traversal checkpoint: overwrite
        // the freshly seeded state with the persisted level boundary and
        // continue from there. Defects degrade to the cold start above.
        walk.level = self.try_resume(&mut walk).unwrap_or(0);
        walk.link_mark = self.multi.fault_stats().link_slow_us;
        while !self.step(&mut walk, false)? {}
        walk.recovery.faults = self.multi.fault_stats();
        self.persist_finish(&mut walk.recovery);
        Ok(self.collect(walk))
    }

    /// Rejects a source outside the bound graph, before any fault arming
    /// or state change.
    fn check_source(&self, source: VertexId) -> Result<(), BfsError> {
        let vertices = self.csr.vertex_count();
        if (source as usize) < vertices {
            Ok(())
        } else {
            Err(BfsError::SourceOutOfRange { source, vertices })
        }
    }

    /// A fresh traversal of `source` at level 0, inheriting the setup's
    /// persistence verdicts.
    fn open_walk(&mut self, source: VertexId) -> Walk {
        let mut recovery =
            RecoveryReport { warm_restart: self.warm_restart, ..RecoveryReport::default() };
        recovery.snapshot_errors.append(&mut self.persist_errors);
        Walk {
            source,
            vars: LoopVars {
                dir: Direction::TopDown,
                switched_at: None,
                cache_filled: false,
                visited_edge_sum: self.out_degrees[source as usize] as u64,
                bu_queue_edge_sum: 0,
                prev_frontier_edges: 0,
            },
            trace: Vec::new(),
            recovery,
            level: 0,
            level_cap: self.config.watchdog.level_cap(self.csr.vertex_count()),
            stall: StallDetector::new(self.config.watchdog.stall_levels),
            link_mark: 0,
        }
    }

    /// Advances `walk` by one BFS level; `Ok(true)` when it is done. A
    /// pipelined `lane` step returns the errors that reshape the fleet
    /// (device loss, link isolation, straggler overruns) instead of
    /// handling them — the source de-pipelines and the sequential ladder
    /// performs the splice or rebalance, bumping the fleet epoch, which
    /// re-admits sibling lanes — and skips adaptive rebalance and
    /// mid-run checkpoints. A sequential step that reshapes the fleet
    /// returns `Ok(false)` without advancing the level.
    fn step(&mut self, walk: &mut Walk, lane: bool) -> Result<bool, BfsError> {
        // Structural liveness bound.
        if walk.level > walk.level_cap {
            let frontier = self.alive_frontier();
            return Err(BfsError::Hang { level: walk.level, frontier, stalled_levels: 0 });
        }
        // Link-isolation poll (routing ladder rung 5, proactive form): a
        // device whose every route is down cannot take part in the next
        // exchange, so migrate its partition onto reachable survivors
        // *now* — before the watchdog would have to declare the
        // (perfectly healthy) device dead.
        if self.config.route.enabled {
            if let Some(isolated) = crate::route::find_isolated(&self.multi) {
                if lane {
                    return Err(BfsError::LinkIsolated { level: walk.level, device: isolated });
                }
                let ckpt = self.checkpoint(walk);
                self.evict_isolated(isolated, &ckpt, walk)?;
                return Ok(false);
            }
        }
        let ckpt = self.checkpoint(walk);
        if !lane {
            self.maybe_persist_checkpoint(&ckpt, walk);
        }
        let Some(done) = self.attempt_level(&ckpt, walk, lane)? else { return Ok(false) };
        if done {
            return Ok(true);
        }
        // Injected livelock (fault plane): device 0's plan is the
        // coordinator draw (a lane's scoped plan is installed, so the draw
        // is lane-local); the fleet rolls back while the level counter
        // keeps advancing.
        let livelocked = self.multi.device(0).should_inject_livelock();
        if livelocked {
            self.restore(&ckpt, walk);
        }
        if let Some(det) = walk.stall.as_mut() {
            let frontier = self.alive_frontier();
            let d0 = self.multi.alive_ids()[0];
            let visited = self
                .multi
                .device_ref(d0)
                .mem_ref()
                .view(self.parts[d0].state.status)
                .iter()
                .filter(|&&s| s != UNVISITED)
                .count();
            if let Some(stalled) = det.observe(visited, frontier) {
                return Err(BfsError::Hang {
                    level: walk.level,
                    frontier,
                    stalled_levels: stalled,
                });
            }
        }
        // Background scrubbing across the fleet: clear latent single-bit
        // ECC errors on cadence. No-op with ECC off.
        if let Some(every) = self.config.scrub_levels {
            if every > 0 && (walk.level + 1) % every == 0 {
                self.multi.scrub_all();
            }
        }
        // Throttle-onset clock: every surviving device has finished one
        // more level (drives `FaultSpec::throttle_onset_levels`).
        for d in self.multi.alive_ids() {
            self.multi.device(d).note_level_end();
        }
        // Per-link flap windows advance on completed levels (no-op
        // without an armed link topology).
        self.multi.tick_link_level();
        // Adaptive rebalance (§5f rung 2): feed the level's timing
        // telemetry to the imbalance detector and repartition toward the
        // faster devices when a straggler is confirmed. Skipped after a
        // livelock rollback — the state was rewound to the level
        // checkpoint, so this level's queues no longer exist to rebuild.
        if !lane && self.config.rebalance.enabled && !livelocked {
            self.adapt(walk)?;
        }
        walk.level += 1;
        Ok(false)
    }

    /// Runs `walk`'s level until it passes. A level-deadline overrun, a
    /// corrupt verifier verdict, or a transient kernel fault that escaped
    /// the in-driver launch retries rolls back to `ckpt` and replays,
    /// within [`RecoveryPolicy::max_level_retries`]. `Ok(None)` means a
    /// sequential run reshaped the fleet (loss splice, link-isolation
    /// migration, forced straggler rebalance) and the level must be
    /// re-checkpointed; a `lane` returns those errors instead.
    fn attempt_level(
        &mut self,
        ckpt: &MultiCheckpoint,
        walk: &mut Walk,
        lane: bool,
    ) -> Result<Option<bool>, BfsError> {
        let level = walk.level;
        let mut attempts: u32 = 0;
        loop {
            let t_level = self.multi.elapsed_ms();
            let err = match self.level_pass(walk) {
                Ok(done) => {
                    // Level deadline: replay an overrun, then surface a
                    // typed deadline error.
                    if let Some(budget_ms) = self.config.watchdog.level_deadline_ms {
                        let elapsed_ms = self.multi.elapsed_ms() - t_level;
                        if elapsed_ms > budget_ms {
                            if !self.replay(&mut attempts, ckpt, walk) {
                                return Err(BfsError::Deadline {
                                    level,
                                    attempts,
                                    elapsed_ms,
                                    budget_ms,
                                });
                            }
                            continue;
                        }
                    }
                    // End-of-level SDC gate on the merged global view:
                    // heal from the checkpoint if possible, replay the
                    // level if not.
                    if self.config.verify.end_of_level {
                        match self.verify_level(ckpt, walk) {
                            Verdict::Clean => {}
                            Verdict::Repaired { done } => return Ok(Some(done)),
                            Verdict::Corrupt(err) => {
                                if !self.replay(&mut attempts, ckpt, walk) {
                                    return Err(BfsError::ValidationFailedAfterReplay(err));
                                }
                                continue;
                            }
                        }
                    }
                    return Ok(Some(done));
                }
                Err(e) => e,
            };
            match err {
                BfsError::Device(e) => {
                    // Permanent device loss: evict, splice the lost
                    // extent onto survivors, and replay the level on the
                    // shrunken fleet with a fresh checkpoint. A lane
                    // leaves that to the sequential ladder; a single
                    // device has nothing to splice onto, so its loss is
                    // terminal.
                    if let Some(lost) = loss_of(&e, &self.multi) {
                        if lane || self.parts.len() == 1 {
                            return Err(BfsError::Device(e));
                        }
                        self.handle_loss(lost, ckpt, walk)?;
                        return Ok(None);
                    }
                    // Slow-but-alive: a kernel-deadline overrun on a
                    // straggler device. Replaying without rebalancing
                    // would deterministically overrun again, so force a
                    // rebalance (weights estimated from the observed
                    // overrun, since the level never produced telemetry)
                    // and replay on the new layout. Lanes leave this to
                    // the sequential plane and its detector state.
                    if let Some((slow, overrun)) = slow_of(&e, &self.multi) {
                        if lane {
                            return Err(BfsError::Device(e));
                        }
                        if self.detector.force() {
                            walk.recovery.stragglers_detected += 1;
                            self.restore(ckpt, walk);
                            let weights = self.overrun_weights(slow, overrun);
                            self.rebalance(&weights, level, walk.vars.dir, &mut walk.recovery)?;
                            walk.recovery.rebalances += 1;
                            walk.recovery.levels_replayed += 1;
                            return Ok(None);
                        }
                    }
                    if !self.replay(&mut attempts, ckpt, walk) {
                        return Err(BfsError::LevelRetriesExhausted { level, attempts, last: e });
                    }
                }
                // Routed-exchange verdict: one endpoint of a dead link is
                // unreachable by probe, relay *and* host bounce. Same
                // splice path as a watchdog loss, but the trigger is
                // routing — the device itself is fine.
                BfsError::LinkIsolated { device, .. } if !lane => {
                    self.evict_isolated(device, ckpt, walk)?;
                    return Ok(None);
                }
                // Exchange-budget exhaustion is terminal, not replayable.
                other => return Err(other),
            }
        }
    }

    /// Spends one level replay: rolls back to `ckpt`, or returns `false`
    /// when the replay budget is exhausted.
    fn replay(&mut self, attempts: &mut u32, ckpt: &MultiCheckpoint, walk: &mut Walk) -> bool {
        *attempts += 1;
        if *attempts > self.config.recovery.max_level_retries {
            return false;
        }
        walk.recovery.levels_replayed += 1;
        self.restore(ckpt, walk);
        true
    }

    /// Adaptive rebalance after a completed level: a confirmed straggler
    /// (by busy-time telemetry) or a confirmed slow link repartitions
    /// for the next level.
    fn adapt(&mut self, walk: &mut Walk) -> Result<(), BfsError> {
        let timings = self.level_timings();
        let next = walk.level + 1;
        if let Some(weights) = self.detector.observe(&timings) {
            walk.recovery.stragglers_detected += 1;
            self.rebalance(&weights, next, walk.vars.dir, &mut walk.recovery)?;
            walk.recovery.rebalances += 1;
        } else {
            // Degraded-link fold (§5f): per-device busy time never sees a
            // slow wire (exec clocks exclude exchanges), so the level's
            // growth of the fault plane's accumulated link slow-down
            // feeds the same streak/cooldown ladder and repartitions by
            // measured device throughput.
            let slow_ms = (self.multi.fault_stats().link_slow_us - walk.link_mark) as f64 / 1e3;
            if self.detector.observe_link(slow_ms) {
                walk.recovery.link_slow_detections += 1;
                let usable = timings.len() >= 2
                    && timings.iter().all(|t| t.busy_ms > 0.0 && t.work_items > 0);
                if usable {
                    let weights: Vec<(usize, f64)> = timings
                        .iter()
                        .map(|t| (t.device, t.work_items as f64 / t.busy_ms))
                        .collect();
                    self.rebalance(&weights, next, walk.vars.dir, &mut walk.recovery)?;
                    walk.recovery.rebalances += 1;
                }
            }
        }
        walk.link_mark = self.multi.fault_stats().link_slow_us;
        Ok(())
    }

    /// Evicts `lost`, rolls the survivors back to `ckpt`, and lets the
    /// shape's loss rule splice the survivors that absorb its extent; the
    /// caller replays the level on `N - 1` GPUs. Fails with
    /// [`BfsError::AllDevicesLost`] when the eviction budget
    /// ([`RecoveryPolicy::min_surviving_devices`]) is exhausted.
    fn handle_loss(
        &mut self,
        lost: usize,
        ckpt: &MultiCheckpoint,
        walk: &mut Walk,
    ) -> Result<(), BfsError> {
        let min_survivors = self.config.recovery.min_surviving_devices.max(1);
        if self.multi.alive_count() <= min_survivors {
            return Err(BfsError::AllDevicesLost {
                level: walk.level,
                lost: walk.recovery.devices_lost.len() as u32 + 1,
            });
        }
        self.multi.evict(lost);
        self.restore(ckpt, walk);
        self.absorb_loss(lost, ckpt, walk)?;
        walk.recovery.devices_lost.push(lost);
        walk.recovery.levels_replayed += 1;
        self.fleet_epoch += 1;
        Ok(())
    }

    /// Migrates a link-isolated (healthy but unreachable) device's
    /// partition like a loss, recording why it was evicted.
    fn evict_isolated(
        &mut self,
        device: usize,
        ckpt: &MultiCheckpoint,
        walk: &mut Walk,
    ) -> Result<(), BfsError> {
        self.handle_loss(device, ckpt, walk)?;
        walk.recovery.link_isolated.push(device);
        self.batch_isolated.insert(device);
        Ok(())
    }

    /// Charges moving `moved_words` across the interconnect to every
    /// surviving timeline; returns the span.
    fn charge(&mut self, moved_words: u64) -> f64 {
        let span_ms = repartition::repartition_cost_ms(
            &InterconnectConfig::default(),
            moved_words,
            self.csr.vertex_count(),
        );
        self.multi.advance_all(span_ms);
        span_ms
    }

    /// Re-uploads device `d`'s partition as `ext` and splices traversal
    /// state onto it: status and parents as given, frontier queues
    /// rebuilt host-side from the status array for `level`. The displaced
    /// partition goes on the retired stack for restoration at the next
    /// run's start.
    fn splice_device(
        &mut self,
        d: usize,
        ext: Extent,
        status: &[u32],
        parent: &[u32],
        dir: Direction,
        level: u32,
    ) -> Result<(), BfsError> {
        let (thresholds, entries) = (self.config.thresholds, self.config.hub_cache_entries);
        let device = self.multi.device(d);
        let (graph, view) = ext.try_upload(device, &self.csr)?;
        let mut part = try_place(device, graph, &ext, thresholds, entries, self.tau)?;
        // T_h is a global graph property, unchanged by repartitioning.
        part.state.total_hubs = self.parts[d].state.total_hubs;
        let rebuilt = repartition::rebuild_queues(
            status,
            dir,
            level,
            &ext.td,
            &ext.bu,
            &view.out_offsets,
            &view.in_offsets,
            &thresholds,
        );
        let n = self.csr.vertex_count();
        let mem = self.multi.device(d).mem();
        mem.upload(part.state.status, status);
        mem.upload(part.state.parent, parent);
        for (buf, q) in part.state.queues.iter().zip(&rebuilt.queues) {
            let mut padded = q.clone();
            padded.resize(n, 0);
            mem.upload(*buf, &padded);
        }
        part.state.queue_sizes = rebuilt.sizes;
        let old = std::mem::replace(&mut self.parts[d], part);
        self.retired.push((d, old));
        Ok(())
    }

    /// Builds strip partitions for every `(device, slice)` whose slice
    /// differs from the device's current one, committing nothing.
    fn rebuild_strips(
        &mut self,
        slices: &[(usize, Range<usize>)],
    ) -> Result<Vec<(usize, PerDevice)>, DeviceError> {
        let (thresholds, entries) = (self.config.thresholds, self.config.hub_cache_entries);
        let mut rebuilt = Vec::new();
        for (d, td) in slices {
            if *td == self.parts[*d].state.td_range {
                continue;
            }
            let ext = Extent::strip(td.clone());
            let device = self.multi.device(*d);
            let (graph, _) = ext.try_upload(device, &self.csr)?;
            let mut part = try_place(device, graph, &ext, thresholds, entries, self.tau)?;
            // T_h is a global graph property, unchanged by repartitioning.
            part.state.total_hubs = self.parts[*d].state.total_hubs;
            rebuilt.push((*d, part));
        }
        Ok(rebuilt)
    }

    /// Installs partitions from [`Fleet::rebuild_strips`], retiring the
    /// displaced ones so the next *unpinned* run restores the original
    /// layout.
    fn commit_rebuilt(&mut self, rebuilt: Vec<(usize, PerDevice)>) {
        for (d, part) in rebuilt {
            let old = std::mem::replace(&mut self.parts[d], part);
            self.retired.push((d, old));
        }
        self.fleet_epoch += 1;
    }

    /// Attempts to resume from a durable mid-traversal checkpoint. Returns
    /// the level to continue at, or `None` for a cold start (no snapshot,
    /// persistence disabled, or a typed defect recorded in `walk`).
    fn try_resume(&mut self, walk: &mut Walk) -> Option<u32> {
        let fp = *self.fingerprint.as_ref()?;
        let store = self.store.as_mut()?;
        let recovery = &mut walk.recovery;
        let snap = match load_checkpoint_chain(store, &mut recovery.snapshot_errors) {
            Ok(Some(s)) => s,
            Ok(None) => return None,
            Err(e) => {
                recovery.snapshot_errors.push(e);
                return None;
            }
        };
        if snap.fingerprint != fp {
            recovery.snapshot_errors.push(PersistError::GraphMismatch);
            return None;
        }
        if snap.source != walk.source {
            recovery.snapshot_errors.push(PersistError::SourceMismatch);
            return None;
        }
        let n = self.csr.vertex_count();
        if snap.kind != self.kind()
            || snap.devices.len() != self.parts.len()
            // Lane-bound checkpoints (written inside a pipelined window)
            // must not be adopted by a sequential resume.
            || !snap.lanes.is_empty()
            || (!snap.evicted.is_empty() && !self.persists_degraded())
        {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
            return None;
        }
        if snap.evicted.is_empty() {
            // Fleet-intact checkpoint: every image must match the current
            // partitioning exactly.
            let compatible = snap.devices.iter().zip(&self.parts).all(|(dev, part)| {
                dev.td == part.state.td_range
                    && dev.bu == part.state.bu_range
                    && dev.status.len() == n
                    && dev.parent.len() == n
                    && dev.hub_src.len() == part.state.hub_cache_entries
                    && dev.queues.iter().all(|q| q.len() <= n)
            });
            if !compatible {
                recovery.snapshot_errors.push(PersistError::LayoutMismatch);
                return None;
            }
        } else if !self.degraded_resume(&snap, &mut walk.recovery) {
            // The interrupted run had already evicted devices; the
            // survivors were rebuilt to the checkpoint's spliced extents
            // (or, on a typed defect, nothing was committed and the
            // caller cold-starts on the full fleet).
            return None;
        }
        for (d, (dev, part)) in snap.devices.iter().zip(&mut self.parts).enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            let mem = self.multi.device(d).mem();
            mem.upload(part.state.status, &dev.status);
            mem.upload(part.state.parent, &dev.parent);
            for (k, q) in dev.queues.iter().enumerate() {
                let mut padded = q.clone();
                padded.resize(n, 0);
                mem.upload(part.state.queues[k], &padded);
                part.state.queue_sizes[k] = q.len();
            }
            mem.upload(part.state.hub_src, &dev.hub_src);
        }
        walk.vars = LoopVars {
            dir: if snap.dir_bottom_up { Direction::BottomUp } else { Direction::TopDown },
            switched_at: snap.switched_at,
            cache_filled: snap.cache_filled,
            visited_edge_sum: snap.visited_edge_sum,
            bu_queue_edge_sum: snap.bu_queue_edge_sum,
            prev_frontier_edges: snap.prev_frontier_edges,
        };
        walk.recovery.resumed_at_level = Some(snap.level);
        Some(snap.level)
    }

    /// Rebuilds this instance's partitions to match a *degraded-fleet*
    /// checkpoint (one whose `evicted` ledger is non-empty because a kill
    /// interrupted a run after device evictions): every survivor whose
    /// spliced extent differs from the cold layout re-uploads its merged
    /// CSR view, the recorded devices are evicted — inherited losses
    /// count toward this run's eviction ledger — and the displaced cold
    /// partitions are retired so the *next* run of this instance starts
    /// from the original layout again. All fallible work happens before
    /// anything is committed; on a typed defect this returns `false`
    /// with the fleet untouched and the caller cold-starts.
    fn degraded_resume(
        &mut self,
        snap: &CheckpointSnapshot,
        recovery: &mut RecoveryReport,
    ) -> bool {
        let n = self.csr.vertex_count();
        let p = self.parts.len();
        // Eviction records must name distinct, known devices and leave at
        // least one survivor.
        let dead = match dead_mask(&snap.evicted, p) {
            Some(dead) if snap.evicted.len() < p => dead,
            _ => {
                recovery.snapshot_errors.push(PersistError::LayoutMismatch);
                return false;
            }
        };
        // Survivor images must be full-size and their extents must tile
        // the vertex range by themselves (evicted entries are stale).
        let survivors: Vec<(usize, &DeviceCheckpoint)> =
            snap.devices.iter().enumerate().filter(|(d, _)| !dead[*d]).collect();
        let shape_ok = survivors.iter().all(|(d, dev)| {
            dev.td == dev.bu
                && dev.status.len() == n
                && dev.parent.len() == n
                && dev.hub_src.len() == self.parts[*d].state.hub_cache_entries
                && dev.queues.iter().all(|q| q.len() <= n)
        });
        let slices: Vec<_> =
            survivors.iter().map(|(_, dev)| (dev.td.clone(), dev.td.clone())).collect();
        if !shape_ok || !slices_tile_1d(&slices, n) {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
            return false;
        }
        let extents: Vec<(usize, Range<usize>)> =
            survivors.iter().map(|(d, dev)| (*d, dev.td.clone())).collect();
        let rebuilt = match self.rebuild_strips(&extents) {
            Ok(r) => r,
            Err(e) => {
                recovery.snapshot_errors.push(PersistError::Io(e.to_string()));
                return false;
            }
        };
        // Commit.
        for &d in &snap.evicted {
            let d = d as usize;
            if self.multi.is_alive(d) {
                self.multi.evict(d);
                recovery.devices_lost.push(d);
            }
        }
        self.commit_rebuilt(rebuilt);
        true
    }

    /// Publishes a durable mid-traversal checkpoint at the configured
    /// level cadence, as a sparse delta against the last keyframe (see
    /// [`CheckpointWriter`]) in steady state. A degraded fleet checkpoints
    /// too when its shape persists degraded layouts: evicted devices are
    /// listed in the eviction ledger with empty images, so a fresh
    /// process can rebuild the survivor splices and resume on the
    /// shrunken fleet. Failures are absorbed.
    fn maybe_persist_checkpoint(&mut self, ckpt: &MultiCheckpoint, walk: &mut Walk) {
        let Some(every) = self.config.persist.as_ref().and_then(|p| p.checkpoint_levels) else {
            return;
        };
        let level = walk.level;
        if level == 0 || level % every != 0 {
            return;
        }
        if !self.persists_degraded() && self.multi.alive_count() != self.parts.len() {
            return;
        }
        let (Some(fp), Some(_)) = (self.fingerprint.as_ref(), self.store.as_ref()) else {
            return;
        };
        let devices = self
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| {
                let (td, bu) = (part.state.td_range.clone(), part.state.bu_range.clone());
                if !self.multi.is_alive(d) {
                    // Evicted: its extent lives on a survivor; persist an
                    // empty image so resume never trusts stale state.
                    return DeviceCheckpoint {
                        td,
                        bu,
                        status: Vec::new(),
                        parent: Vec::new(),
                        queues: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
                        hub_src: Vec::new(),
                    };
                }
                DeviceCheckpoint {
                    td,
                    bu,
                    status: ckpt.devices[d].status.clone(),
                    parent: ckpt.devices[d].parent.clone(),
                    queues: truncate_queues(&ckpt.devices[d].queues, &ckpt.devices[d].queue_sizes),
                    hub_src: self.multi.device_ref(d).mem_ref().view(part.state.hub_src).to_vec(),
                }
            })
            .collect();
        let evicted: Vec<u32> = self
            .layout_evicted
            .iter()
            .chain(walk.recovery.devices_lost.iter())
            .map(|&d| d as u32)
            .collect();
        let snap = CheckpointSnapshot {
            kind: self.kind(),
            fingerprint: *fp,
            source: walk.source,
            level,
            dir_bottom_up: matches!(ckpt.vars.dir, Direction::BottomUp),
            switched_at: ckpt.vars.switched_at,
            cache_filled: ckpt.vars.cache_filled,
            visited_edge_sum: ckpt.vars.visited_edge_sum,
            bu_queue_edge_sum: ckpt.vars.bu_queue_edge_sum,
            prev_frontier_edges: ckpt.vars.prev_frontier_edges,
            devices,
            evicted,
            lanes: Vec::new(),
        };
        let store = self.store.as_mut().expect("checked above");
        match self.ckpt_writer.persist(store, &snap) {
            Ok(()) => walk.recovery.snapshots_persisted += 1,
            Err(e) => walk.recovery.snapshot_errors.push(e),
        }
    }

    /// End-of-run persistence: durably publish the learned layout
    /// (rebalanced boundaries or a collapsed grid, plus the hub census)
    /// and retire the mid-traversal checkpoint chain. Eviction splices
    /// are per-run, so the published extents substitute each retired
    /// partition's range back in — except on a degraded fleet whose shape
    /// persists degraded layouts: that publishes the spliced survivor
    /// boundaries plus the eviction ledger, so the next process resumes
    /// on the survivors directly.
    fn persist_finish(&mut self, recovery: &mut RecoveryReport) {
        let (Some(fp), Some(_)) = (self.fingerprint.as_ref(), self.store.as_ref()) else {
            return;
        };
        let p = self.parts.len();
        let degraded = self.persists_degraded() && self.multi.alive_count() != p;
        let mut slices: Vec<(Range<usize>, Range<usize>)> = self
            .parts
            .iter()
            .map(|p| (p.state.td_range.clone(), p.state.bu_range.clone()))
            .collect();
        let evicted: Vec<u32> = if degraded {
            self.layout_evicted
                .iter()
                .chain(recovery.devices_lost.iter())
                .map(|&d| d as u32)
                .collect()
        } else {
            for (d, part) in self.retired.iter().rev() {
                slices[*d] = (part.state.td_range.clone(), part.state.bu_range.clone());
            }
            Vec::new()
        };
        let (r, c) = self.config.shape.grid().unwrap_or((1, p));
        let layout = LayoutSnapshot {
            kind: self.kind(),
            fingerprint: *fp,
            hub_tau: self.tau,
            total_hubs: self.parts[0].state.total_hubs,
            grid: (r as u32, c as u32),
            collapsed: self.collapsed,
            slices,
            evicted,
        };
        let n = self.csr.vertex_count();
        let fits =
            Self::layout_fits(self.config.shape, self.tau, n, &layout, |d| self.multi.is_alive(d));
        let store = self.store.as_mut().expect("checked above");
        if fits {
            match layout.save(store) {
                Ok(()) => recovery.snapshots_persisted += 1,
                Err(e) => recovery.snapshot_errors.push(e),
            }
        } else {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
        }
        for file in [CHECKPOINT_FILE, DELTA_FILE] {
            if let Err(e) = store.remove(file) {
                recovery.snapshot_errors.push(e);
            }
        }
        self.ckpt_writer = CheckpointWriter::new();
        recovery.faults.merge(&store.take_stats());
    }

    /// This level's telemetry for the imbalance detector: each alive
    /// device's accumulated busy time against its top-down range length.
    fn level_timings(&self) -> Vec<DeviceTiming> {
        self.multi
            .alive_ids()
            .into_iter()
            .map(|d| DeviceTiming {
                device: d,
                busy_ms: self.level_busy[d],
                work_items: self.parts[d].state.td_range.len() as u64,
            })
            .collect()
    }

    /// Weight estimate when a forced rebalance has no telemetry: the
    /// overrunning device is assumed `overrun` times slower than its
    /// peers (`elapsed / budget` from the deadline error).
    fn overrun_weights(&self, slow: usize, overrun: f64) -> Vec<(usize, f64)> {
        self.multi
            .alive_ids()
            .into_iter()
            .map(|d| (d, if d == slow { 1.0 / overrun } else { 1.0 }))
            .collect()
    }

    /// Per-device private *execution* clocks (indexed by device id):
    /// launch overheads, barrier waits and host-charged spans excluded,
    /// so a delta of this clock is pure device-speed signal.
    fn device_clocks(&self) -> Vec<f64> {
        (0..self.parts.len()).map(|d| self.multi.device_ref(d).exec_elapsed_ms()).collect()
    }

    /// Accumulates each device's execution-clock advance since `mark`
    /// into the level telemetry. Must be called *before* the next barrier
    /// so wait time is not attributed to fast devices.
    fn add_level_busy(&mut self, mark: &[f64]) {
        for (d, m) in mark.iter().enumerate().take(self.parts.len()) {
            self.level_busy[d] += self.multi.device_ref(d).exec_elapsed_ms() - m;
        }
    }

    /// End-of-level SDC verification on the merged global view (first
    /// alive device's post-merge status, first-wins parent gather). On a
    /// finding, localized repair restores from the merged checkpoint view
    /// and, if the re-check is clean, uploads the healed arrays to
    /// **every** alive device and rebuilds each device's queues host-side
    /// against its own partition view.
    fn verify_level(&mut self, ckpt: &MultiCheckpoint, walk: &mut Walk) -> Verdict {
        let (level, dir) = (walk.level, walk.vars.dir);
        let n = self.csr.vertex_count();
        let alive = self.multi.alive_ids();
        let d0 = alive[0];
        let mut status =
            self.multi.device_ref(d0).mem_ref().view(self.parts[d0].state.status).to_vec();
        let mut parent = vec![NO_PARENT; n];
        for &d in &alive {
            let p = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.parent);
            repartition::merge_parents(&mut parent, p);
        }
        let flagged = check_level(&self.csr, &status, &parent, walk.source, level);
        if flagged.is_empty() {
            return Verdict::Clean;
        }
        walk.recovery.sdc_detected += flagged.len() as u64;
        if self.config.verify.repair {
            // Merged checkpoint view, trusted because verification ran
            // before the checkpoint was taken.
            let ckpt_status = &ckpt.devices[d0].status;
            let mut ckpt_parent = vec![NO_PARENT; n];
            for &d in &alive {
                repartition::merge_parents(&mut ckpt_parent, &ckpt.devices[d].parent);
            }
            repair_vertices(
                &self.csr,
                &mut status,
                &mut parent,
                ckpt_status,
                &ckpt_parent,
                &flagged,
                level,
            );
            if check_level(&self.csr, &status, &parent, walk.source, level).is_empty() {
                walk.recovery.sdc_repaired += flagged.len() as u64;
                // Uploading the healed parents everywhere is safe:
                // unvisited vertices stay NO_PARENT on every device, and
                // expansion only writes parents of *newly* discovered
                // vertices.
                for &d in &alive {
                    let ext = self.parts[d].extent();
                    let view = ext.arrays(&self.csr);
                    let rebuilt = repartition::rebuild_queues(
                        &status,
                        dir,
                        level + 1,
                        &ext.td,
                        &ext.bu,
                        &view.out_offsets,
                        &view.in_offsets,
                        &self.config.thresholds,
                    );
                    let state = &mut self.parts[d].state;
                    let mem = self.multi.device(d).mem();
                    mem.upload(state.status, &status);
                    mem.upload(state.parent, &parent);
                    for (buf, q) in state.queues.iter().zip(&rebuilt.queues) {
                        let mut padded = q.clone();
                        padded.resize(n, 0);
                        mem.upload(*buf, &padded);
                    }
                    state.queue_sizes = rebuilt.sizes;
                }
                // Termination recomputed from the healed status alone
                // (grid queue totals may count a vertex once per block
                // row, but they are zero exactly when these global counts
                // say so).
                let newly = status.iter().filter(|&&s| s == level + 1).count();
                let unvisited = status.iter().filter(|&&s| s == UNVISITED).count();
                let done = match dir {
                    Direction::TopDown => newly == 0,
                    Direction::BottomUp => newly == 0 || unvisited == 0,
                };
                return Verdict::Repaired { done };
            }
        }
        Verdict::Corrupt(ValidationError::SilentCorruption {
            vertex: flagged[0],
            detail: format!(
                "{} vertices failed end-of-level invariants at level {level}",
                flagged.len()
            ),
        })
    }

    /// Snapshots every device's traversal state plus `walk`'s loop
    /// variables.
    fn checkpoint(&self, walk: &Walk) -> MultiCheckpoint {
        let devices = self
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| {
                let mem = self.multi.device_ref(d).mem_ref();
                DeviceSnapshot {
                    status: mem.view(part.state.status).to_vec(),
                    parent: mem.view(part.state.parent).to_vec(),
                    queues: part.state.queues.map(|q| mem.view(q).to_vec()),
                    queue_sizes: part.state.queue_sizes,
                }
            })
            .collect();
        MultiCheckpoint { devices, vars: walk.vars.clone(), trace_len: walk.trace.len() }
    }

    /// Rolls every surviving device back to `ckpt` (a lost device's
    /// buffers are never read again, so it is skipped). Simulated time is
    /// not rolled back: faulted work costs wall-clock, as a real relaunch
    /// would.
    fn restore(&mut self, ckpt: &MultiCheckpoint, walk: &mut Walk) {
        for ((d, part), snap) in self.parts.iter_mut().enumerate().zip(&ckpt.devices) {
            if !self.multi.is_alive(d) {
                continue;
            }
            let mem = self.multi.device(d).mem();
            mem.upload(part.state.status, &snap.status);
            mem.upload(part.state.parent, &snap.parent);
            for (buf, data) in part.state.queues.iter().zip(&snap.queues) {
                mem.upload(*buf, data);
            }
            part.state.queue_sizes = snap.queue_sizes;
        }
        walk.vars = ckpt.vars.clone();
        walk.trace.truncate(ckpt.trace_len);
    }

    /// Frontier total over surviving devices.
    fn alive_frontier(&self) -> usize {
        self.multi.alive_ids().into_iter().map(|d| self.parts[d].state.total_frontier()).sum()
    }

    /// The CPU baseline run on this fleet's graph, carrying the simulated
    /// time, interconnect bytes and faults the device attempts already
    /// spent.
    fn cpu_fallback(&self, source: VertexId) -> MultiBfsResult {
        let r = cpu_fallback(&self.csr, source);
        MultiBfsResult {
            time_ms: self.multi.elapsed_ms(),
            communication_bytes: self.multi.transferred_bytes(),
            recovery: RecoveryReport { faults: self.multi.fault_stats(), ..r.recovery },
            ..r
        }
    }

    /// One global level: private expansion, discovery exchange + merge,
    /// private queue generation, direction decision, trace record.
    /// Returns `Ok(true)` when the search has terminated.
    fn level_pass(&mut self, walk: &mut Walk) -> Result<bool, BfsError> {
        let n = self.csr.vertex_count();
        let hc = self.config.hub_cache;
        let policy = self.config.policy;
        let total_hubs = self.parts[0].state.total_hubs;
        let (level, dir) = (walk.level, walk.vars.dir);

        // (1) Private expansion (survivors only). Expansion time follows
        // the frontier, which wanders between partitions level to level,
        // so it is deliberately *not* part of the straggler telemetry —
        // the range-proportional queue-generation phase below is.
        let t0 = self.multi.elapsed_ms();
        for d in self.multi.alive_ids() {
            let part = &self.parts[d];
            try_expand_level(
                self.multi.device(d),
                &part.graph,
                &part.state,
                level,
                dir,
                self.config.workload_balancing,
                hc && walk.vars.cache_filled,
            )?;
        }
        // (2) Discovery exchange + host-side union merge of the newly
        // visited level.
        self.exchange(level, &mut walk.recovery)?;
        let merged = self.merge_level(level + 1);
        let expand_ms = self.multi.elapsed_ms() - t0;

        // (3) Private queue generation over each device's scan ranges.
        // The execution-clock delta around this phase is the straggler
        // telemetry: the scan is O(range) with identical per-vertex cost
        // on every healthy device, so the per-item busy ratio is a direct
        // read of relative device speed.
        let t1 = self.multi.elapsed_ms();
        self.level_busy.iter_mut().for_each(|b| *b = 0.0);
        let prev_total = self.alive_frontier();
        let wf = match dir {
            Direction::TopDown => GenWorkflow::TopDown { frontier_level: level + 1 },
            Direction::BottomUp => GenWorkflow::Filter { newly_level: level + 1 },
        };
        let (mut sizes, hub_frontiers, mut fills) =
            self.generate(wf, hc && dir == Direction::BottomUp)?;
        let total: usize = sizes.iter().sum();
        let newly = self.newly_visited(dir, prev_total, total, merged);
        let gamma_pct = crate::direction::gamma_pct(hub_frontiers, total_hubs);

        // Beamer's α inputs: out-degree sums over the generated queues.
        let edges = self.queue_edge_sum();
        let vars = &mut walk.vars;
        let signals = match dir {
            Direction::TopDown => {
                vars.visited_edge_sum += edges;
                let signals = SwitchSignals {
                    gamma_pct,
                    frontier_edges: edges,
                    unexplored_edges: self.csr.edge_count().saturating_sub(vars.visited_edge_sum),
                    frontier_vertices: newly,
                    total_vertices: n,
                    frontier_growing: edges > vars.prev_frontier_edges,
                };
                vars.prev_frontier_edges = edges;
                signals
            }
            Direction::BottomUp => {
                // Saturating: corrupted device counters (bit-flip
                // campaign) must not panic the instrumentation math.
                vars.visited_edge_sum += vars.bu_queue_edge_sum.saturating_sub(edges);
                vars.bu_queue_edge_sum = edges;
                SwitchSignals {
                    gamma_pct,
                    unexplored_edges: edges,
                    frontier_vertices: total,
                    total_vertices: n,
                    ..Default::default()
                }
            }
        };
        let mut next_dir = dir;
        match dir {
            Direction::TopDown => {
                if policy.evaluate_topdown(&signals, vars.switched_at.is_some())
                    == SwitchDecision::ToBottomUp
                {
                    vars.switched_at = Some(level + 1);
                    next_dir = Direction::BottomUp;
                    (sizes, _, fills) =
                        self.generate(GenWorkflow::Switch { newly_level: level + 1 }, hc)?;
                    vars.bu_queue_edge_sum = self.queue_edge_sum();
                }
            }
            Direction::BottomUp => {
                if newly > 0
                    && policy.evaluate_bottomup(&signals, newly) == SwitchDecision::ToTopDown
                {
                    next_dir = Direction::TopDown;
                    (sizes, _, fills) =
                        self.generate(GenWorkflow::TopDown { frontier_level: level + 1 }, false)?;
                }
            }
        }
        let queue_gen_ms = self.multi.elapsed_ms() - t1;
        vars.cache_filled = fills > 0;

        walk.trace.push(LevelRecord {
            level,
            direction: next_dir.label(),
            sizes,
            gamma_pct,
            alpha: self.level_alpha(&signals),
            newly_visited: newly,
            expand_ms,
            queue_gen_ms,
        });

        let total_next: usize = sizes.iter().sum();
        let done = match next_dir {
            Direction::TopDown => total_next == 0,
            Direction::BottomUp => newly == 0 || total_next == 0,
        };
        walk.vars.dir = next_dir;
        Ok(done)
    }

    /// Host-side out-degree sum over every surviving queue entry (a free
    /// instrumentation read of device memory).
    fn queue_edge_sum(&self) -> u64 {
        let mut sum = 0u64;
        for d in self.multi.alive_ids() {
            let st = &self.parts[d].state;
            for (&buf, &size) in st.queues.iter().zip(&st.queue_sizes) {
                let q = self.multi.device_ref(d).mem_ref().view(buf);
                // A flipped queue entry may name a non-vertex; count it as
                // degree 0 rather than indexing out of the host table.
                sum += q[..size.min(q.len())]
                    .iter()
                    .map(|&v| self.out_degrees.get(v as usize).copied().unwrap_or(0) as u64)
                    .sum::<u64>();
            }
        }
        sum
    }

    /// Runs one queue-generation workflow on every survivor, adding the
    /// phase to the straggler telemetry, then barriers. Returns the
    /// summed class sizes, hub frontiers and hub-cache fills.
    fn generate(
        &mut self,
        wf: GenWorkflow,
        hub_cache: bool,
    ) -> Result<([usize; 4], u64, usize), BfsError> {
        let mark = self.device_clocks();
        let mut sizes = [0usize; 4];
        let (mut hub_frontiers, mut fills) = (0u64, 0usize);
        for d in self.multi.alive_ids() {
            let part = &mut self.parts[d];
            let r = try_generate_queues(
                self.multi.device(d),
                &part.graph,
                &mut part.state,
                wf,
                hub_cache,
            )?;
            hub_frontiers += r.hub_frontiers;
            fills += r.hub_fills;
            for (size, part_size) in sizes.iter_mut().zip(r.sizes) {
                *size += part_size;
            }
        }
        self.add_level_busy(&mark);
        self.multi.barrier();
        Ok((sizes, hub_frontiers, fills))
    }

    /// Host-side union of the level's discoveries (models each device
    /// OR-ing the exchanged bitmaps into its status array); returns how
    /// many vertices were newly visited.
    fn merge_level(&mut self, newly_level: u32) -> usize {
        let n = self.csr.vertex_count();
        let alive = self.multi.alive_ids();
        if let [d] = alive[..] {
            // A lone survivor has nothing to merge.
            let status = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.status);
            return status.iter().filter(|&&s| s == newly_level).count();
        }
        let mut newly = vec![false; n];
        for &d in &alive {
            let status = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.status);
            for (v, &s) in status.iter().enumerate() {
                if s == newly_level {
                    newly[v] = true;
                }
            }
        }
        for &d in &alive {
            let buf = self.parts[d].state.status;
            let device = self.multi.device(d);
            for (v, &is_new) in newly.iter().enumerate() {
                if is_new && device.mem_ref().get(buf, v) == UNVISITED {
                    device.mem().set(buf, v, newly_level);
                }
            }
        }
        newly.iter().filter(|&&b| b).count()
    }

    /// Gathers the finished traversal: levels from any survivor's merged
    /// status (a lost device's buffers are stale — they missed the
    /// post-loss rollback), parents from the first survivor that recorded
    /// one (a lost device's discoveries were spliced into a recipient).
    fn collect(&self, walk: Walk) -> MultiBfsResult {
        let n = self.csr.vertex_count();
        let alive = self.multi.alive_ids();
        let status =
            self.multi.device_ref(alive[0]).mem_ref().view(self.parts[alive[0]].state.status);
        let levels = levels_from_raw(status);
        let mut parents: Vec<Option<VertexId>> = vec![None; n];
        for &d in &alive {
            let p = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.parent);
            for v in 0..n {
                if parents[v].is_none() && p[v] != NO_PARENT {
                    parents[v] = Some(p[v]);
                }
            }
        }
        let time_ms = self.multi.elapsed_ms();
        MultiBfsResult {
            switched_at: walk.vars.switched_at,
            communication_bytes: self.multi.transferred_bytes(),
            level_trace: walk.trace,
            recovery: walk.recovery,
            ..MultiBfsResult::package(walk.source, levels, parents, &self.out_degrees, time_ms)
        }
    }

    /// Swaps a lane's per-device states onto the fleet (and back — the
    /// operation is its own inverse). Devices dead at the lane's
    /// admission hold `None` and keep the fleet's resident state.
    fn swap_lane_states(&mut self, states: &mut [Option<BfsState>]) {
        for (part, st) in self.parts.iter_mut().zip(states) {
            if let Some(st) = st.as_mut() {
                std::mem::swap(&mut part.state, st);
            }
        }
    }

    /// Returns a lane's states to its slot's pool. The simulator never
    /// frees device memory, so pooling is how lane buffers get reused;
    /// a pooled state whose scan ranges no longer match the device's
    /// partition is simply never picked up again.
    fn park_lane_states(&mut self, slot: usize, states: &mut [Option<BfsState>]) {
        if self.lane_pool.len() <= slot {
            self.lane_pool.resize_with(slot + 1, Vec::new);
        }
        let pool = &mut self.lane_pool[slot];
        if pool.len() < states.len() {
            pool.resize_with(states.len(), || None);
        }
        for (d, st) in states.iter_mut().enumerate() {
            if let Some(st) = st.take() {
                pool[d] = Some(st);
            }
        }
    }

    /// Allocates (or reuses pooled) per-device lane state and seeds
    /// `source` on it, exactly like the sequential seed. Runs inside the
    /// fused window with the lane's slot switched in, so allocation and
    /// seeding cost lands on the lane's stream.
    fn lane_open_inner(&mut self, source: VertexId, slot: usize) -> Result<FleetLane, BfsError> {
        // Unpinned (a single device), a fresh lane gets revived hardware,
        // like a sequential run.
        if !self.pinned {
            self.multi.revive_all();
        }
        let p = self.parts.len();
        if self.lane_pool.len() <= slot {
            self.lane_pool.resize_with(slot + 1, Vec::new);
        }
        if self.lane_pool[slot].len() < p {
            self.lane_pool[slot].resize_with(p, || None);
        }
        let degree = self.seed_degree(source);
        let mut states: Vec<Option<BfsState>> = Vec::with_capacity(p);
        for d in 0..p {
            if !self.multi.is_alive(d) {
                states.push(None);
                continue;
            }
            let td = self.parts[d].state.td_range.clone();
            let bu = self.parts[d].state.bu_range.clone();
            let pooled =
                self.lane_pool[slot][d].take().filter(|st| st.td_range == td && st.bu_range == bu);
            let mut st = match pooled {
                Some(st) => st,
                None => BfsState::try_new_labeled(
                    self.multi.device(d),
                    &self.parts[d].graph,
                    self.config.thresholds,
                    self.config.hub_cache_entries,
                    self.tau,
                    td,
                    bu,
                    &format!("lane{slot}."),
                )
                .map_err(BfsError::Device)?,
            };
            st.total_hubs = self.parts[d].state.total_hubs;
            seed(self.multi.device(d), &self.parts[d].graph, &mut st, source, degree);
            states.push(Some(st));
        }
        self.seed_sync();
        Ok(FleetLane {
            walk: self.open_walk(source),
            slot,
            states,
            bundle: FleetFaultBundle::healthy(p),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
    use crate::validate::cpu_levels;
    use enterprise_graph::gen::{kronecker, rmat, road_grid};

    #[test]
    fn multi_gpu_matches_oracle_levels() {
        let g = kronecker(9, 8, 5);
        for gpus in [1, 2, 4] {
            let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), &g);
            let r = sys.bfs(3);
            let oracle = cpu_levels(&g, 3);
            assert_eq!(r.levels, oracle, "{gpus} GPUs");
            assert!(r.visited > 1);
        }
    }

    #[test]
    fn multi_gpu_communicates_compressed_bitmaps() {
        let g = kronecker(9, 8, 5);
        let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(2), &g);
        let r = sys.bfs(0);
        assert!(r.communication_bytes > 0);
        // Per-level traffic is n/8 bytes per device pair direction.
        let per_level = 2 * ballot_compressed_bytes(g.vertex_count());
        assert_eq!(r.communication_bytes % per_level, 0);
    }

    /// The degenerate shapes are the single-GPU driver: a 1-slice fleet
    /// matches `Enterprise` bit for bit (result digest and simulated time),
    /// and a 1x1 grid matches its depths and reach, on three graph
    /// families.
    #[test]
    fn single_gpu_multi_driver_agrees_with_plain_driver() {
        use crate::batch::result_digest;
        for (name, g) in [
            ("kron", kronecker(12, 16, 7)),
            ("rmat", rmat(9, 8, 3)),
            ("road", road_grid(48, 48, 0.05, 7)),
        ] {
            let rs = crate::Enterprise::new(crate::EnterpriseConfig::default(), &g).bfs(1);
            let slice = MultiGpuEnterprise::new(MultiGpuConfig::k40s(1), &g).bfs(1);
            let grid = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(1, 1), &g).bfs(1);
            assert_eq!(
                result_digest(&slice.levels, &slice.parents),
                result_digest(&rs.levels, &rs.parents),
                "{name}: digest"
            );
            assert_eq!(slice.time_ms.to_bits(), rs.time_ms.to_bits(), "{name}: time bits");
            for rm in [slice, grid] {
                assert_eq!(rm.levels, rs.levels, "{name}: depths");
                assert_eq!(rm.visited, rs.visited, "{name}: reach");
            }
        }
    }

    #[test]
    fn grid_shapes_match_oracle() {
        let g = kronecker(9, 8, 5);
        let oracle = cpu_levels(&g, 3);
        for (r, c) in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2)] {
            let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(r, c), &g);
            let res = sys.bfs(3);
            assert_eq!(res.levels, oracle, "{r}x{c} grid");
        }
    }

    #[test]
    fn directed_graph_on_grid() {
        let g = rmat(9, 8, 7);
        let oracle = cpu_levels(&g, 11);
        let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
        let res = sys.bfs(11);
        assert_eq!(res.levels, oracle);
    }

    #[test]
    fn two_d_communicates_less_than_one_d() {
        use crate::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
        let g = kronecker(11, 8, 9);
        let mut one_d = MultiGpuEnterprise::new(MultiGpuConfig::k40s(8), &g);
        let r1 = one_d.bfs(0);
        let mut two_d = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(4, 2), &g);
        let r2 = two_d.bfs(0);
        assert_eq!(r1.levels, r2.levels);
        assert!(
            r2.communication_bytes * 2 < r1.communication_bytes,
            "2-D must cut traffic: {} vs {}",
            r2.communication_bytes,
            r1.communication_bytes
        );
    }

    #[test]
    fn gamma_switch_still_fires_on_grid() {
        let g = kronecker(11, 16, 13);
        let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
        let src = (0..g.vertex_count() as u32).max_by_key(|&v| g.out_degree(v)).unwrap();
        let res = sys.bfs(src);
        assert!(res.switched_at.is_some(), "trace: {:?}", res.level_trace);
        assert_eq!(res.levels, cpu_levels(&g, src));
    }
}
