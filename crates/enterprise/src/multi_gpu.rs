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
//! `(P-1) * n`. Hubs are one set on every shape, fixed by τ and the
//! graph's out-degrees: the fleet counts `T_h` once from the CSR and
//! `F_h` among each level's merged discoveries, so a grid takes the one
//! device's γ and its decisions. A block's out-degree view covers only
//! its column block, so a grid still stages no hubs: the hub cache is off.
//!
//! One [`Fleet`] runs every shape: the seed, level loop, replay, verify,
//! persistence, collect and pipelined lanes are shared, and each
//! shape-specific decision lives in one function that matches on the
//! shape (layout, exchange, loss, rebalance, persistence). The level's
//! exchange is one step on every shape, a lone survivor included: it
//! unions the survivors' discoveries into one bitmap, sends it through
//! the routing ladder ([`crate::route`]) and ORs it into every survivor.
//! The rules that only a single device needs — a terminal loss, no
//! brownout pin, the device's own fault stream armed from construction,
//! the whole CSR uploaded as is — are likewise each one function keyed on
//! the device count (DESIGN.md §5). Persisted extents on every shape pass
//! one validity rule, `tiling`, so a degraded grid checkpoints and
//! resumes on its survivors like a degraded 1-D fleet.
//!
//! A device's traversal state has one host-side form, the device image
//! of [`crate::state`] (status, parents, live queues, hub table). The
//! checkpoint taken at the top of every level is the durable checkpoint
//! record itself; level replay and a resume install it through one
//! fleet-level install, and a loss splice, a rebalance or an SDC repair
//! installs an image rebuilt from the merged status.
//!
//! The partition layout changes one way, all or nothing: one commit
//! builds every changed partition first, each build fallible, and only
//! when all have succeeded evicts the dead, swaps the new partitions in,
//! retires the displaced ones and bumps the fleet epoch. A failed build
//! changes nothing, so every vertex keeps an owner. Loss splices,
//! link-isolation migrations, straggler rebalances, degraded resumes and
//! batch fleet restores all commit through it; the shape's loss and
//! rebalance rules only compute target extents.
//!
//! Parents are private to the discovering device; the final parent tree
//! is gathered host-side (any device's recorded parent is valid because
//! every discovery wrote a parent at the correct preceding level).
//!
//! A level's two device phases, expansion and queue generation, run on
//! two host threads, as the paper's GPUs run them concurrently between
//! exchanges: the calling thread steps the lower half of the survivors
//! and the fleet's persistent worker the upper half, spawned on first use
//! and joined when the fleet drops, whatever fault plan, sanitizer or
//! kernel deadline the devices carry. Every survivor runs the whole
//! phase, whatever another device returns; the results merge in device
//! order before the exchange and the direction decision, and a failed
//! phase reports its first device error in device order. No device's
//! phase depends on another's, so results do not depend on the thread
//! count. The `step` module holds the worker, the split and that rule.

use crate::batch::{BatchPolicy, BatchReport, BatchSource};
use crate::bfs::LevelRecord;
use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
use crate::error::{BfsError, RecoveryPolicy, RecoveryReport};
use crate::frontier::{enqueue_seed, try_generate_queues, GenWorkflow};
use crate::kernels::{try_expand_level, Direction};
use crate::persist::{
    encode, read_checkpoint, read_layout, CheckpointSnapshot, CheckpointWriter, DriverKind,
    Extents, FleetRecord, GraphFingerprint, Header, LayoutSnapshot, PersistError, PersistPolicy,
    SnapshotStore, CHECKPOINT_FILE, LAYOUT_FILE,
};
use crate::rebalance::{self, DeviceTiming, ImbalanceDetector, RebalancePolicy};
use crate::repartition::{self, PartitionArrays};
use crate::state::{BfsState, DeviceImage, HUB_EMPTY};
use crate::status::{levels_from_raw, NO_PARENT, UNVISITED};
use crate::validate::{audit, check_level, repair_vertices, ValidationError, VerifyPolicy};
use crate::watchdog::{StallDetector, WatchdogPolicy};
use enterprise_graph::stats::{count_hubs, hub_threshold_for_capacity};
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{
    ballot_compressed_bytes, Device, DeviceConfig, DeviceError, EccMode, FaultPlan, FaultSpec,
    FleetFaultBundle, InterconnectConfig, MultiDevice, Wire,
};
use std::collections::VecDeque;
use std::ops::Range;

mod step;

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
    /// Direction policy, on every shape. `Alpha` reads its edge sums off
    /// the level's exchange, so every shape takes the single device's
    /// decisions.
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
    /// boundaries) after each successful run, and optional mid-traversal
    /// checkpoints for warm restarts. `None` (the default) is a strict
    /// no-op on timing, counters and results.
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
    /// slices, and grid devices after a collapse to slices.
    Strip,
    /// A 2-D adjacency block (`build_2d`): out-edges of the column block
    /// restricted to row-block targets, plus the transposed in-view.
    Block,
}

/// A device's partition: its view kind plus the top-down (sources) and
/// bottom-up (targets) scan ranges.
#[derive(PartialEq, Eq)]
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
    let (td, bu) = (ext.td.clone(), ext.bu.clone());
    let state =
        BfsState::try_new_labeled(device, &graph, thresholds, hub_cache_entries, tau, td, bu, "")?;
    Ok(PerDevice { graph, state, view: ext.view })
}

/// Seeds `source` on one device's state: the device learns the source
/// (initial broadcast); only the device whose top-down range holds it
/// enqueues it, classified by its resident view's out-degree (on one
/// device, the CSR's own). Seeding writes device memory from the host
/// and charges no simulated time, so it needs no barrier: the level's
/// exchange is the first synchronization.
fn seed(device: &mut Device, graph: &DeviceGraph, st: &mut BfsState, source: VertexId) {
    let s = source as usize;
    st.reset(device);
    if !st.td_range.contains(&s) {
        device.mem().set(st.status, s, 0);
        return;
    }
    // Resident graph arrays can carry silent bit rot from an earlier
    // batch source; kernels clamp corrupt offsets, and the host must
    // tolerate them too. A wrong class is caught by the verifier.
    let offs = device.mem_ref().view(graph.out_offsets);
    let degree = offs[s + 1].saturating_sub(offs[s]);
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

/// The checkpoint taken at the top of each level: the record a durable
/// checkpoint publishes, plus the trace length a replay truncates to.
struct MultiCheckpoint {
    record: CheckpointSnapshot,
    trace_len: usize,
}

/// Host loop variables, checkpointed with the device state (in memory for
/// level replay, and durably).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LoopVars {
    pub dir: Direction,
    pub switched_at: Option<u32>,
    /// Whether the last generation staged a hub: probing an empty cache
    /// is pure overhead.
    pub cache_filled: bool,
    /// Running out-degree sum of visited vertices: Beamer's unexplored
    /// edges are the edge count minus this.
    pub visited_edge_sum: u64,
    /// Out-degree sum of the previous top-down frontier.
    pub prev_frontier_edges: u64,
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

/// The one validity rule for persisted `(td, bu)` extents: the view
/// they partition an `n`-vertex graph with, or `None`. They are strips
/// when every `td == bu` and the ranges tile `[0, n)` in any device order
/// (a grid collapse hands slices out in column-sorted device order), and
/// blocks when the `td × bu` rectangles tile `[0, n)²` without overlap.
/// One full-range extent is both; its two views hold the same arrays.
fn tiling(extents: &[(Range<usize>, Range<usize>)], n: usize) -> Option<View> {
    let bad = |r: &Range<usize>| r.is_empty() || r.end > n;
    if extents.is_empty() || extents.iter().any(|(td, bu)| bad(td) || bad(bu)) {
        return None;
    }
    if extents.iter().all(|(td, bu)| td == bu) {
        let mut spans: Vec<(usize, usize)> =
            extents.iter().map(|(td, _)| (td.start, td.end)).collect();
        spans.sort_unstable();
        let end = spans.into_iter().try_fold(0, |next, (lo, hi)| (lo == next).then_some(hi));
        return (end == Some(n)).then_some(View::Strip);
    }
    let overlap = |a: &Range<usize>, b: &Range<usize>| a.start < b.end && b.start < a.end;
    let disjoint = extents.iter().enumerate().all(|(i, (td, bu))| {
        extents[i + 1..].iter().all(|(t, b)| !overlap(td, t) || !overlap(bu, b))
    });
    let area: u128 = extents.iter().map(|(td, bu)| td.len() as u128 * bu.len() as u128).sum();
    (disjoint && area == n as u128 * n as u128).then_some(View::Block)
}

/// An Enterprise system over a partition [`Shape`], bound to one graph.
pub struct Fleet {
    config: FleetConfig<Shape>,
    multi: MultiDevice,
    /// Indexed by device id (row-major on a grid).
    parts: Vec<PerDevice>,
    out_degrees: Vec<u32>,
    /// Host copy of the graph, needed to rebuild a partition view when the
    /// layout changes, by the verifier, and by the CPU fallback baseline.
    csr: Csr,
    /// Hub threshold τ, reused by repartition-time state allocation.
    tau: u32,
    /// `T_h`, γ's denominator: the graph's vertices of out-degree above τ.
    total_hubs: u64,
    /// Partitions a commit displaced, restored at the start of the next
    /// unpinned run so device loss stays per-run (bit-reproducibility);
    /// a rebalance on a layout with nothing retired drops what it
    /// displaced, so its layout persists.
    retired: Vec<(usize, PerDevice)>,
    /// Per-device busy time accumulated by the current level pass
    /// (queue generation, barriers excluded) — the telemetry the
    /// imbalance detector consumes.
    level_busy: Vec<f64>,
    /// Durable snapshot store, present when persistence is configured,
    /// bound to this fleet's driver kind and graph.
    store: Option<SnapshotStore>,
    /// Persistence failures absorbed during setup, surfaced into the next
    /// run's [`RecoveryReport::snapshot_errors`].
    persist_errors: Vec<PersistError>,
    /// Whether setup warm-started from a persisted layout snapshot.
    warm_restart: bool,
    /// Keyframe + delta checkpoint publisher.
    ckpt_writer: CheckpointWriter,
    /// Devices a restored *degraded-fleet* layout recorded as evicted:
    /// every run of this instance re-evicts them at start and resumes on
    /// the survivors (whose restored extents tile the graph alone).
    layout_evicted: Vec<usize>,
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
    /// Fleet-shape generation counter: bumped by every commit that changes
    /// the partition layout or alive set (loss splice, isolation
    /// migration, rebalance, degraded resume, batch fleet restore).
    /// Pipeline lanes opened against an older epoch hold stale per-device
    /// state and must be re-admitted.
    fleet_epoch: u64,
    /// Parked per-slot, per-device lane states (pipelined batch mode).
    /// The simulator never frees device memory, so lane states are
    /// pooled instead of dropped; a pooled state is reused only while
    /// its scan ranges still match the device's current partition.
    lane_pool: Vec<Vec<Option<BfsState>>>,
    /// The second host thread that steps the upper half of the survivors
    /// in every level phase (`Fleet::step_devices`); spawned on first use.
    worker: Option<step::Worker>,
    /// Steps every survivor on the calling thread, in device order, under
    /// the split's error rule: the reference the split is compared with.
    #[cfg(test)]
    serial: bool,
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

    /// The snapshot store, when persistence is armed — the durable home
    /// of the batch ledger.
    pub(crate) fn store(&mut self) -> Option<&mut SnapshotStore> {
        self.store.as_mut()
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

    /// The fleet's serializable degradation — the dead device ids in
    /// ascending order, spliced partition extents, learned link verdicts
    /// — or `None` while the fleet is healthy.
    pub(crate) fn capture_fleet(&self) -> Option<FleetRecord> {
        let p = self.parts.len();
        let evicted: Vec<u32> =
            (0..p).filter(|&d| !self.multi.is_alive(d)).map(|d| d as u32).collect();
        let verdicts = self.link_verdicts.pairs();
        if evicted.is_empty() && verdicts.is_empty() {
            // Pure boundary drift (rebalance without loss) persists via
            // the layout-snapshot channel; no fleet record needed.
            return None;
        }
        Some(FleetRecord { evicted, boundaries: self.extents(), verdicts })
    }

    /// Re-applies a captured fleet shape before a resumed batch runs:
    /// reshapes onto the recorded survivors ([`Fleet::reshape`]) and
    /// restores the learned link verdicts. `false` = a defective or
    /// mismatched record; the batch proceeds on the cold fleet.
    pub(crate) fn restore_fleet(&mut self, rec: &FleetRecord) -> bool {
        if self.reshape(&rec.boundaries, &rec.evicted).is_err() {
            return false;
        }
        self.link_verdicts.restore(&rec.verdicts);
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

    /// Exchange: the level's one exchange step. It builds the union
    /// bitmap of the survivors' discoveries at `level + 1` (the wire
    /// payload), sends it through the routing ladder
    /// ([`crate::route::exchange_routed`]), ORs it into every survivor's
    /// status array, and returns how many vertices it holds, their
    /// out-degree sum and how many of them are hubs: the level's newly
    /// visited count, the edge sum behind Beamer's α and γ's `F_h`, exact
    /// on every shape, a lone survivor included.
    /// Slices all-to-all broadcast a `ballot(n)` bitmap per device; a grid
    /// row-merges and column-shares `(c-1 + r-1) * ballot(n/r)` bits per
    /// device, serialized — a charge that keeps the configured grid shape
    /// even after an eviction shrinks it (a conservative over-charge of
    /// the degraded pattern). A lone survivor exchanges nothing.
    ///
    /// A dropped exchange (detected by timeout) or a corrupted one
    /// (detected by checksum mismatch on the received copy) is retried
    /// with exponential backoff, a bounded number of times; with the
    /// routing ladder armed ([`FleetConfig::route`]), dead links
    /// additionally climb probe → relay → host bounce. The bitmap merges
    /// only after the wire succeeds: a failed exchange replays the level
    /// from its checkpoint.
    fn exchange(
        &mut self,
        level: u32,
        recovery: &mut RecoveryReport,
    ) -> Result<(usize, u64, u64), BfsError> {
        let n = self.csr.vertex_count();
        let newly_level = level + 1;
        let alive = self.multi.alive_ids();
        let mut bitmap = vec![0u8; ballot_compressed_bytes(n) as usize];
        for &d in &alive {
            let status = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.status);
            for (v, &s) in status.iter().enumerate() {
                if s == newly_level {
                    bitmap[v / 8] |= 1 << (v % 8);
                }
            }
        }
        let wire = match self.config.shape.grid() {
            None => Wire::AllToAll(ballot_compressed_bytes(n)),
            Some((r, c)) => {
                Wire::Serialized((c - 1 + r - 1) as u64 * ballot_compressed_bytes(n.div_ceil(r)))
            }
        };
        crate::route::exchange_routed(
            &mut self.multi,
            &bitmap,
            wire,
            &self.config.route,
            level,
            recovery,
            &mut self.link_verdicts,
        )?;
        let newly: Vec<usize> = (0..n).filter(|&v| bitmap[v / 8] & (1 << (v % 8)) != 0).collect();
        for &d in &alive {
            let buf = self.parts[d].state.status;
            let device = self.multi.device(d);
            for &v in &newly {
                if device.mem_ref().get(buf, v) == UNVISITED {
                    device.mem().set(buf, v, newly_level);
                }
            }
        }
        let edges = newly.iter().map(|&v| self.out_degrees[v] as u64).sum();
        let hubs = newly.iter().filter(|&&v| self.out_degrees[v] > self.tau).count();
        Ok((newly.len(), edges, hubs as u64))
    }

    /// Loss: the partitions that take over the `dead` devices' extents,
    /// and the CSR words that moving them ships. It only plans; the
    /// caller commits ([`Fleet::commit`]). A lone dead device merges into
    /// one neighbour: on slices the survivor whose range is adjacent; on
    /// a grid, in priority order,
    ///
    /// 1. a survivor covering the *same row block* with a
    ///    *column-adjacent* block absorbs the lost columns (its expansion
    ///    slice widens);
    /// 2. a survivor covering the *same column block* with a
    ///    *row-adjacent* block absorbs the lost rows (its inspection
    ///    slice widens).
    ///
    /// When no such neighbour exists, or several devices are dead at
    /// once, every shape re-lays its survivors as equal 1-D strips, and
    /// the whole graph moves once across the interconnect.
    fn loss_plan(&self, dead: &[usize]) -> (Vec<(usize, Extent)>, u64) {
        let n = self.csr.vertex_count();
        let survivors: Vec<usize> =
            self.multi.alive_ids().into_iter().filter(|d| !dead.contains(d)).collect();
        if let [lost] = *dead {
            let gone = self.parts[lost].extent();
            let merge = match self.config.shape.grid() {
                None => {
                    let owned: Vec<(usize, Range<usize>)> = survivors
                        .iter()
                        .map(|&d| (d, self.parts[d].state.td_range.clone()))
                        .collect();
                    repartition::choose_recipient_1d(&owned, &gone.td).map(|rcv| {
                        let td = &self.parts[rcv].state.td_range;
                        (rcv, Extent::strip(repartition::union_range(td, &gone.td)))
                    })
                }
                Some(_) => {
                    let extents = || survivors.iter().map(|&d| (d, self.parts[d].extent()));
                    let same_row = extents()
                        .find(|(_, e)| e.bu == gone.bu && repartition::adjacent(&e.td, &gone.td));
                    let same_col = extents()
                        .find(|(_, e)| e.td == gone.td && repartition::adjacent(&e.bu, &gone.bu));
                    match (same_row, same_col) {
                        (Some((d, e)), _) => {
                            let td = repartition::union_range(&e.td, &gone.td);
                            Some((d, Extent { td, ..e }))
                        }
                        (None, Some((d, e))) => {
                            let bu = repartition::union_range(&e.bu, &gone.bu);
                            Some((d, Extent { bu, ..e }))
                        }
                        (None, None) => None,
                    }
                }
            };
            if let Some(merge) = merge {
                return (vec![merge], gone.arrays(&self.csr).moved_words());
            }
        }
        let p = survivors.len();
        let plan: Vec<(usize, Extent)> = survivors
            .iter()
            .enumerate()
            .map(|(k, &d)| (d, Extent::strip((k * n / p)..((k + 1) * n / p))))
            .collect();
        let moved = plan.iter().map(|(_, e)| e.arrays(&self.csr).moved_words()).sum();
        (plan, moved)
    }

    /// Rebalance: re-lays the alive devices out as contiguous 1-D slices
    /// with lengths proportional to `weights` (one entry per alive
    /// device), and moves the current traversal state onto the new
    /// layout: the merged status is re-uploaded as-is, each device keeps
    /// its *own* parent array (it stays alive, so its discoveries remain
    /// gatherable), and queues are rebuilt for `rebuild_level`.
    ///
    /// Slices shift boundaries: only devices whose slice moved are
    /// rebuilt, and only the vertices that change owners are charged
    /// (compacted CSR deltas). A grid collapses: every device becomes a
    /// strip, the whole layout is charged as moved, and the grid stays
    /// collapsed. Either way the new layout commits like a loss
    /// ([`Fleet::commit`]) but *persists* across runs of this instance:
    /// a straggler is a property of the device, so one move amortizes
    /// over every following search of a multi-source workload. Charged
    /// to [`RecoveryReport::rebalance_ms`].
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
        let plan: Vec<(usize, Extent)> = order
            .iter()
            .zip(slices)
            .filter(|((d, _), slice)| collapse || self.parts[*d].state.td_range != *slice)
            .map(|(&(d, _), slice)| (d, Extent::strip(slice)))
            .collect();
        // Any alive device's status is the merged global view.
        let d0 = self.multi.alive_ids()[0];
        let status = self.multi.device_ref(d0).mem_ref().view(self.parts[d0].state.status).to_vec();
        let parents: Vec<Vec<u32>> = plan
            .iter()
            .map(|&(d, _)| {
                self.multi.device_ref(d).mem_ref().view(self.parts[d].state.parent).to_vec()
            })
            .collect();
        // The commit retires what it displaces, for the next unpinned run
        // to restore. A rebalanced layout outlives the run, so what it
        // displaced is dropped, unless an earlier commit (a loss, a
        // degraded resume) waits to be restored: the next run revives the
        // dead and must unwind this layout with that one.
        let keep_retired = !self.retired.is_empty();
        let rebuilt = self.commit(plan, &[])?;
        if !keep_retired {
            self.retired.clear();
        }
        recovery.rebalance_ms += self.charge(moved);
        let hub_src = vec![HUB_EMPTY; self.config.hub_cache_entries];
        for ((d, view), parent) in rebuilt.into_iter().zip(parents) {
            let (status, hub_src) = (status.clone(), hub_src.clone());
            let image = DeviceImage { status, parent, hub_src, ..DeviceImage::default() };
            self.install_rebuilt(d, &view, image, dir, rebuild_level);
        }
        Ok(())
    }

    /// Persistence: the driver kind every persisted log is bound to —
    /// `Single` for one device, whatever its shape.
    pub(crate) fn kind_of(shape: Shape) -> DriverKind {
        match shape.grid() {
            _ if shape.devices() == 1 => DriverKind::Single,
            None => DriverKind::OneD,
            Some(_) => DriverKind::TwoD,
        }
    }

    /// Persistence: the view a layout snapshot restores with, when it
    /// fits this shape — τ, grid dimensions and device count match, and
    /// the live extents (devices for which `alive` holds) tile the graph
    /// ([`Fleet::live_view`]).
    fn layout_fits(
        shape: Shape,
        tau: u32,
        n: usize,
        snap: &LayoutSnapshot,
        alive: impl Fn(usize) -> bool,
    ) -> Option<View> {
        let p = shape.devices();
        let (r, c) = shape.grid().unwrap_or((1, p));
        if snap.hub_tau != tau
            || snap.grid != (r as u32, c as u32)
            || snap.slices.len() != p
            || snap.evicted.len() >= p
        {
            return None;
        }
        Self::live_view(shape, n, &snap.slices, alive)
    }

    /// Persistence: the view the live devices' persisted `extents` tile an
    /// `n`-vertex graph with by the [`tiling`] rule — strips or blocks on
    /// a grid, strips only on slices — or `None`.
    fn live_view(
        shape: Shape,
        n: usize,
        extents: &[(Range<usize>, Range<usize>)],
        alive: impl Fn(usize) -> bool,
    ) -> Option<View> {
        let live: Vec<_> =
            extents.iter().enumerate().filter(|(d, _)| alive(*d)).map(|(_, e)| e.clone()).collect();
        tiling(&live, n).filter(|&view| view == View::Strip || shape.grid().is_some())
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

    /// Fallible constructor: a graph with fewer vertices than devices,
    /// device OOM (a partition not fitting) and an injected allocation
    /// fault surface as a typed [`BfsError`] on every shape, so the caller
    /// can degrade to the CPU baseline. τ and `T_h` are counted on the
    /// host from the whole CSR, so every shape holds one hub set.
    pub fn try_new<S: Into<Shape>>(config: FleetConfig<S>, csr: &Csr) -> Result<Self, BfsError> {
        let mut config = config.erase();
        let shape = config.shape;
        let p = shape.devices();
        assert!(p >= 1);
        let n = csr.vertex_count();
        if n < p {
            return Err(BfsError::TooFewVertices { vertices: n, devices: p });
        }
        // Block views cover one column block's out-degrees, and the hub
        // cache stages hubs by the view's degrees: grids run without it.
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
        // fire at setup; a fleet arms per run.
        if let (1, Some(spec)) = (p, config.faults) {
            Self::arm_faults(&mut multi, spec);
        }
        let tau = hub_threshold_for_capacity(csr, config.hub_cache_entries);
        let total_hubs = count_hubs(csr, tau) as u64;

        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph/configuration restores the layout a previous
        // process converged to (rebalanced slices, a collapsed grid, a
        // degraded fleet of strips or blocks). Defects degrade to a cold
        // start.
        let mut store = None;
        let mut persist_errors: Vec<PersistError> = Vec::new();
        if let Some(policy) = &config.persist {
            let header =
                Header { kind: Self::kind_of(shape), fingerprint: GraphFingerprint::of(csr) };
            match SnapshotStore::open(&policy.state_dir, config.faults.as_ref(), header) {
                Ok(s) => store = Some(s),
                Err(e) => persist_errors.push(e),
            }
        }
        let mut restored: Option<(LayoutSnapshot, View)> = None;
        if let Some(st) = store.as_mut() {
            match read_layout(st) {
                Ok(Some(snap)) => {
                    // Evicted entries are stale; only the survivors'
                    // extents must tile the graph.
                    let alive = |d: usize| !snap.evicted.contains(&(d as u32));
                    match Self::layout_fits(shape, tau, n, &snap, alive) {
                        Some(view) => restored = Some((snap, view)),
                        None => persist_errors.push(PersistError::LayoutMismatch),
                    }
                }
                Ok(None) => {}
                Err(e) => persist_errors.push(e),
            }
        }
        let warm_restart = restored.is_some();
        let layout_evicted: Vec<usize> = restored
            .as_ref()
            .map(|(snap, _)| snap.evicted.iter().map(|&d| d as usize).collect())
            .unwrap_or_default();

        let mut parts = Vec::with_capacity(p);
        for d in 0..p {
            let ext = match &restored {
                Some((snap, view)) => {
                    let (td, bu) = snap.slices[d].clone();
                    Extent { view: *view, td, bu }
                }
                None => Self::cold_extent(shape, n, d),
            };
            let device = multi.device(d);
            // Sanitize/deadline before any allocation so initialization
            // tracking covers every buffer from birth.
            if config.sanitize {
                device.enable_sanitizer();
            }
            device.set_kernel_deadline_ms(config.watchdog.kernel_deadline_ms);
            let graph = Self::upload_cold(p, device, csr, &ext)?;
            let part =
                try_place(device, graph, &ext, config.thresholds, config.hub_cache_entries, tau)?;
            parts.push(part);
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
            total_hubs,
            retired: Vec::new(),
            level_busy: vec![0.0; p],
            store,
            persist_errors,
            warm_restart,
            ckpt_writer: CheckpointWriter::new(),
            layout_evicted,
            pinned: false,
            detector,
            link_verdicts: crate::route::LinkVerdicts::default(),
            fleet_epoch: 0,
            lane_pool: Vec::new(),
            worker: None,
            #[cfg(test)]
            serial: false,
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

    /// Total hub count `T_h` (γ's denominator): the graph's vertices of
    /// out-degree above τ, counted on the host from the CSR at setup, the
    /// same on every shape and layout.
    pub fn total_hubs(&self) -> u64 {
        self.total_hubs
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
    /// On a fault-free fleet without persistence this is bit-identical
    /// to calling [`Fleet::try_bfs`] per source.
    pub fn batch(
        &mut self,
        sources: &[BatchSource],
        policy: &BatchPolicy,
    ) -> BatchReport<MultiBfsResult> {
        crate::batch::run_batch(self, sources, policy)
    }

    /// Simulated milliseconds on the fleet clock since the last run
    /// started. Right after construction this is zero: setup uploads the
    /// graph from the host and counts hubs there, launching no kernel.
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
        // Reinstall the device, link and storage fault plans from their
        // seed so repeated runs of this instance draw the same fault
        // sequence (bit-reproducibility).
        if let Some(spec) = self.config.faults {
            Self::arm_faults(&mut self.multi, spec);
            if let Some(store) = self.store.as_mut() {
                store.rearm(&spec);
            }
        }
        let result = self.try_bfs_once(source, true)?;
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
        let mut replay = self.try_bfs_once(source, true)?;
        replay.recovery.validation_replays += 1;
        match audit(&self.csr, source, &replay.levels, &replay.parents) {
            Ok(()) => Ok(replay),
            Err(e) => Err(BfsError::ValidationFailedAfterReplay(e)),
        }
    }

    /// One attempt of the traversal: the body of [`Fleet::try_bfs`], which
    /// may invoke it twice when the end-of-run audit demands a full
    /// replay. With `resume`, a durable checkpoint is resumed; a resumed
    /// traversal that fails the audit was resumed from a consistent but
    /// wrong image, so it is recorded as corrupt and rerun cold.
    fn try_bfs_once(&mut self, source: VertexId, resume: bool) -> Result<MultiBfsResult, BfsError> {
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
        for d in self.multi.alive_ids() {
            let part = &mut self.parts[d];
            seed(self.multi.device(d), &part.graph, &mut part.state, source);
        }

        // Every run's first checkpoint is a keyframe: deltas chain on the
        // writer's last record, which a failed run may leave ahead of the
        // log (past a torn tail the resume below cuts off).
        self.ckpt_writer = CheckpointWriter::new();
        let mut walk = self.open_walk(source);
        // Warm restart from a durable mid-traversal checkpoint: overwrite
        // the freshly seeded state with the persisted level boundary and
        // continue from there. Defects degrade to the cold start above.
        if resume {
            walk.level = self.try_resume(&mut walk).unwrap_or(0);
        }
        walk.link_mark = self.multi.fault_stats().link_slow_us;
        while !self.step(&mut walk, false)? {}
        walk.recovery.faults = self.multi.fault_stats();
        self.persist_finish(&mut walk.recovery);
        let result = self.collect(walk);
        if result.recovery.resumed_at_level.is_none() {
            return Ok(result);
        }
        let Err(e) = audit(&self.csr, source, &result.levels, &result.parents) else {
            return Ok(result);
        };
        let mut errors = result.recovery.snapshot_errors;
        errors.push(PersistError::Corrupt(format!("resumed traversal failed its audit: {e}")));
        let mut cold = self.try_bfs_once(source, false)?;
        errors.append(&mut cold.recovery.snapshot_errors);
        cold.recovery.snapshot_errors = errors;
        Ok(cold)
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
            self.maybe_persist_checkpoint(&ckpt, &mut walk.recovery);
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

    /// Rolls the survivors back to `ckpt` and moves `lost`'s extent onto
    /// them through the shape's loss rule ([`Fleet::loss_plan`]) and one
    /// commit ([`Fleet::commit`]); the caller replays the level on the
    /// shrunken fleet. Every survivor the fault plane has already marked
    /// lost goes with `lost`, so no dead device is planned as a recipient:
    /// every survivor runs a failed phase to its end, so one phase, like
    /// one pipelined sweep, can lose several devices. The first rebuilt
    /// survivor inherits the dead devices' checkpointed parents
    /// (`collect` takes the first recorded parent). Fails with
    /// [`BfsError::AllDevicesLost`] when the eviction budget
    /// ([`RecoveryPolicy::min_surviving_devices`]) is exhausted, and with
    /// the commit's device error, the layout untouched, when a rebuilt
    /// partition cannot be built.
    fn handle_loss(
        &mut self,
        lost: usize,
        ckpt: &MultiCheckpoint,
        walk: &mut Walk,
    ) -> Result<(), BfsError> {
        let dead: Vec<usize> = self
            .multi
            .alive_ids()
            .into_iter()
            .filter(|&d| d == lost || self.multi.device_ref(d).is_lost())
            .collect();
        let min_survivors = self.config.recovery.min_surviving_devices.max(1);
        if self.multi.alive_count() < min_survivors + dead.len() {
            return Err(BfsError::AllDevicesLost {
                level: walk.level,
                lost: (walk.recovery.devices_lost.len() + dead.len()) as u32,
            });
        }
        let (plan, moved) = self.loss_plan(&dead);
        self.restore(ckpt, walk);
        let rebuilt = self.commit(plan, &dead)?;
        // Charge the simulated cost of moving the CSR views (plus one
        // status bitmap) to every survivor.
        walk.recovery.repartition_ms += self.charge(moved);
        let images = &ckpt.record.devices;
        let hub_src = vec![HUB_EMPTY; self.config.hub_cache_entries];
        for (k, (d, view)) in rebuilt.into_iter().enumerate() {
            // Each recipient's checkpointed status already equals the
            // merged global view.
            let mut parent = images[d].parent.clone();
            if k == 0 {
                for &x in &dead {
                    repartition::merge_parents(&mut parent, &images[x].parent);
                }
            }
            let (status, hub_src) = (images[d].status.clone(), hub_src.clone());
            let image = DeviceImage { status, parent, hub_src, ..DeviceImage::default() };
            self.install_rebuilt(d, &view, image, walk.vars.dir, walk.level);
        }
        walk.recovery.devices_lost.extend(&dead);
        walk.recovery.levels_replayed += 1;
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

    /// The one layout change, all or nothing. It builds every partition
    /// of `plan` first (its CSR view upload, then its state placement,
    /// each fallible) and only when every build has succeeded evicts
    /// `dead`, swaps the new partitions in, retires the displaced ones so
    /// the next *unpinned* run restores the layout, and bumps the fleet
    /// epoch if anything changed. Returns each rebuilt device with the
    /// view it was cut from. On an error nothing is committed: the
    /// layout, alive set, retired stack and epoch are untouched.
    fn commit(
        &mut self,
        plan: Vec<(usize, Extent)>,
        dead: &[usize],
    ) -> Result<Vec<(usize, PartitionArrays)>, DeviceError> {
        let (thresholds, entries) = (self.config.thresholds, self.config.hub_cache_entries);
        let mut built = Vec::with_capacity(plan.len());
        for (d, ext) in plan {
            let device = self.multi.device(d);
            let (graph, view) = ext.try_upload(device, &self.csr)?;
            let part = try_place(device, graph, &ext, thresholds, entries, self.tau)?;
            built.push((d, part, view));
        }
        for &d in dead {
            self.multi.evict(d);
        }
        if !dead.is_empty() || !built.is_empty() {
            self.fleet_epoch += 1;
        }
        let mut views = Vec::with_capacity(built.len());
        for (d, part, view) in built {
            let old = std::mem::replace(&mut self.parts[d], part);
            self.retired.push((d, old));
            views.push((d, view));
        }
        Ok(views)
    }

    /// Installs `image` on device `d`, which holds partition `view`, with
    /// its queues rebuilt host-side from the image's status for `level`
    /// in `dir`. A committed partition takes an empty hub table, as a
    /// freshly placed state holds; an SDC repair keeps the live one.
    fn install_rebuilt(
        &mut self,
        d: usize,
        view: &PartitionArrays,
        mut image: DeviceImage,
        dir: Direction,
        level: u32,
    ) {
        let state = &mut self.parts[d].state;
        let (td, bu) = (&state.td_range, &state.bu_range);
        let thresholds = &self.config.thresholds;
        image.queues =
            repartition::rebuild_queues(&image.status, dir, level, td, bu, view, thresholds);
        state.install(self.multi.device(d), &image);
    }

    /// Moves the fleet onto persisted per-device `extents` with `evicted`
    /// dead — the one reshape a degraded checkpoint resume
    /// ([`Fleet::try_resume`]) and a batch fleet restore share: the
    /// checks on persisted input, then one [`Fleet::commit`]. It checks
    /// that the evictions name distinct, known devices and leave a
    /// survivor, and that the survivors tile the shape
    /// ([`Fleet::live_view`]); then commits every survivor whose extent
    /// changed and the evictions. Returns the devices it evicted; on an
    /// error the fleet is untouched.
    fn reshape(
        &mut self,
        extents: &[(Range<usize>, Range<usize>)],
        evicted: &[u32],
    ) -> Result<Vec<usize>, PersistError> {
        let (n, p) = (self.csr.vertex_count(), self.parts.len());
        let dead = dead_mask(evicted, p)
            .filter(|_| extents.len() == p && evicted.len() < p)
            .ok_or(PersistError::LayoutMismatch)?;
        let view = Self::live_view(self.config.shape, n, extents, |d| !dead[d])
            .ok_or(PersistError::LayoutMismatch)?;
        let plan: Vec<(usize, Extent)> = extents
            .iter()
            .enumerate()
            .filter(|(d, _)| !dead[*d])
            .map(|(d, (td, bu))| (d, Extent { view, td: td.clone(), bu: bu.clone() }))
            .filter(|(d, ext)| *ext != self.parts[*d].extent())
            .collect();
        let newly: Vec<usize> =
            evicted.iter().map(|&d| d as usize).filter(|&d| self.multi.is_alive(d)).collect();
        self.commit(plan, &newly).map_err(|e| PersistError::Io(e.to_string()))?;
        Ok(newly)
    }

    /// Attempts to resume from a durable mid-traversal checkpoint, on a
    /// degraded one after reshaping onto its survivors. Returns the level
    /// to continue at, or `None` for a cold start (no snapshot,
    /// persistence disabled, or a typed defect recorded in `walk`).
    fn try_resume(&mut self, walk: &mut Walk) -> Option<u32> {
        self.resume(walk).unwrap_or_else(|e| {
            walk.recovery.snapshot_errors.push(e);
            None
        })
    }

    /// The body of [`Fleet::try_resume`]. The checkpoint passes every
    /// check — source, device count, extents, image sizes and values —
    /// before anything is committed, so a typed defect leaves the freshly
    /// seeded full fleet untouched.
    fn resume(&mut self, walk: &mut Walk) -> Result<Option<u32>, PersistError> {
        let Some(store) = self.store.as_mut() else { return Ok(None) };
        let Some(snap) = read_checkpoint(store)? else { return Ok(None) };
        if snap.source != walk.source {
            return Err(PersistError::SourceMismatch);
        }
        if snap.extents.len() != self.parts.len() {
            return Err(PersistError::LayoutMismatch);
        }
        snap.check(&self.csr, self.config.hub_cache_entries)?;
        if snap.evicted.is_empty() {
            // Fleet-intact checkpoint: every extent must match the current
            // partitioning exactly.
            if snap.extents != self.extents() {
                return Err(PersistError::LayoutMismatch);
            }
        } else {
            // Degraded resume: the interrupted run had already evicted
            // devices, so the survivors take the checkpoint's spliced
            // extents and the inherited losses count toward this run's
            // eviction ledger.
            let lost = self.reshape(&snap.extents, &snap.evicted)?;
            walk.recovery.devices_lost.extend(lost);
        }
        self.install(&snap);
        walk.vars = snap.vars;
        walk.recovery.resumed_at_level = Some(snap.level);
        Ok(Some(snap.level))
    }

    /// Publishes the level checkpoint's record durably at the configured
    /// level cadence, as a sparse delta against the previous checkpoint
    /// (see [`CheckpointWriter`]) in steady state. A degraded fleet of any
    /// shape checkpoints too: evicted devices are listed in the eviction
    /// ledger with empty images, so a fresh process can rebuild the
    /// survivor splices and resume on the shrunken fleet. Failures are
    /// absorbed.
    fn maybe_persist_checkpoint(&mut self, ckpt: &MultiCheckpoint, recovery: &mut RecoveryReport) {
        let Some(every) = self.config.persist.as_ref().and_then(|p| p.checkpoint_levels) else {
            return;
        };
        let level = ckpt.record.level;
        if level == 0 || level % every != 0 {
            return;
        }
        let Some(store) = self.store.as_mut() else { return };
        match self.ckpt_writer.persist(store, ckpt.record.clone()) {
            Ok(()) => recovery.snapshots_persisted += 1,
            Err(e) => recovery.snapshot_errors.push(e),
        }
    }

    /// End-of-run persistence: durably publish the learned layout
    /// (rebalanced or collapsed extents) and retire the checkpoint log.
    /// Eviction splices are per-run, so the published
    /// extents substitute each retired partition's range back in — except
    /// on a degraded fleet: that publishes the spliced survivor extents
    /// plus the eviction ledger, so the next process resumes on the
    /// survivors directly.
    fn persist_finish(&mut self, recovery: &mut RecoveryReport) {
        if self.store.is_none() {
            return;
        }
        let p = self.parts.len();
        let degraded = self.multi.alive_count() != p;
        let mut slices = self.extents();
        let evicted = if degraded {
            self.evicted(recovery)
        } else {
            for (d, part) in self.retired.iter().rev() {
                slices[*d] = (part.state.td_range.clone(), part.state.bu_range.clone());
            }
            Vec::new()
        };
        let (r, c) = self.config.shape.grid().unwrap_or((1, p));
        let layout =
            LayoutSnapshot { hub_tau: self.tau, grid: (r as u32, c as u32), slices, evicted };
        let n = self.csr.vertex_count();
        let fits =
            Self::layout_fits(self.config.shape, self.tau, n, &layout, |d| self.multi.is_alive(d))
                .is_some();
        let store = self.store.as_mut().expect("checked above");
        if fits {
            match store.rewrite(LAYOUT_FILE, &[encode(&layout)]) {
                Ok(()) => recovery.snapshots_persisted += 1,
                Err(e) => recovery.snapshot_errors.push(e),
            }
        } else {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
        }
        if let Err(e) = store.remove(CHECKPOINT_FILE) {
            recovery.snapshot_errors.push(e);
        }
        recovery.faults.merge(&store.take_stats());
    }

    /// Every device's `(td, bu)` scan extents, device order — the
    /// placement persisted layouts, checkpoints and fleet records carry.
    fn extents(&self) -> Vec<Extents> {
        self.parts.iter().map(|p| (p.state.td_range.clone(), p.state.bu_range.clone())).collect()
    }

    /// Every dead device once: those a restored degraded layout pins
    /// first, then those earlier sources of a pinned batch evicted (in id
    /// order), then this run's losses in eviction order.
    fn evicted(&self, recovery: &RecoveryReport) -> Vec<u32> {
        let lost = &recovery.devices_lost;
        let earlier = (0..self.parts.len()).filter(|d| {
            !self.multi.is_alive(*d) && !self.layout_evicted.contains(d) && !lost.contains(d)
        });
        let pinned = self.layout_evicted.iter().copied();
        pinned.chain(earlier).chain(lost.iter().copied()).map(|d| d as u32).collect()
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
    /// and, if the re-check is clean, installs on **every** alive device
    /// an image of the healed arrays, queues rebuilt host-side against the
    /// device's own partition view, and the device's live hub table.
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
            let images = &ckpt.record.devices;
            let ckpt_status = &images[d0].status;
            let mut ckpt_parent = vec![NO_PARENT; n];
            for &d in &alive {
                repartition::merge_parents(&mut ckpt_parent, &images[d].parent);
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
                    let view = self.parts[d].extent().arrays(&self.csr);
                    let hub_src = self
                        .multi
                        .device_ref(d)
                        .mem_ref()
                        .view(self.parts[d].state.hub_src)
                        .to_vec();
                    let (status, parent) = (status.clone(), parent.clone());
                    let image = DeviceImage { status, parent, hub_src, ..DeviceImage::default() };
                    self.install_rebuilt(d, &view, image, dir, level + 1);
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

    /// The level checkpoint: the record of every live device's image
    /// (an empty one for each device already evicted), the placement and
    /// `walk`'s loop variables, plus its trace length.
    fn checkpoint(&self, walk: &Walk) -> MultiCheckpoint {
        let devices = self
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| {
                if self.multi.is_alive(d) {
                    part.state.capture(self.multi.device_ref(d))
                } else {
                    DeviceImage::default()
                }
            })
            .collect();
        let record = CheckpointSnapshot {
            source: walk.source,
            level: walk.level,
            vars: walk.vars.clone(),
            extents: self.extents(),
            evicted: self.evicted(&walk.recovery),
            devices,
        };
        MultiCheckpoint { record, trace_len: walk.trace.len() }
    }

    /// Rolls every surviving device and `walk` back to `ckpt`. Simulated
    /// time is not rolled back: faulted work costs wall-clock, as a real
    /// relaunch would.
    fn restore(&mut self, ckpt: &MultiCheckpoint, walk: &mut Walk) {
        self.install(&ckpt.record);
        walk.vars = ckpt.record.vars.clone();
        walk.trace.truncate(ckpt.trace_len);
    }

    /// Installs `rec`'s images on every surviving device (a lost device's
    /// buffers are never read again, so it is skipped): the one install
    /// level replay and a resume share.
    fn install(&mut self, rec: &CheckpointSnapshot) {
        for ((d, part), image) in self.parts.iter_mut().enumerate().zip(&rec.devices) {
            if self.multi.is_alive(d) {
                part.state.install(self.multi.device(d), image);
            }
        }
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
    /// direction decision, private queue generation, trace record.
    /// Returns `Ok(true)` when the search has terminated.
    fn level_pass(&mut self, walk: &mut Walk) -> Result<bool, BfsError> {
        let n = self.csr.vertex_count();
        let hc = self.config.hub_cache;
        let policy = self.config.policy;
        let (level, dir) = (walk.level, walk.vars.dir);

        // (1) Private expansion (survivors only). Expansion time follows
        // the frontier, which wanders between partitions level to level,
        // so it is deliberately *not* part of the straggler telemetry —
        // the range-proportional queue-generation phase below is.
        let t0 = self.multi.elapsed_ms();
        let (balanced, use_hc) = (self.config.workload_balancing, hc && walk.vars.cache_filled);
        self.step_devices(move |device, part| {
            try_expand_level(device, &part.graph, &part.state, level, dir, balanced, use_hc)
        })?;
        // (2) Discovery exchange: union, route, merge.
        let (newly, newly_edges, newly_hubs) = self.exchange(level, &mut walk.recovery)?;
        let expand_ms = self.multi.elapsed_ms() - t0;

        // (3) The direction signals, one rule on every shape, all from the
        // exchange: γ's F_h over the graph's T_h, and Beamer's edge sums.
        // A bottom-up level records γ = 0. Saturating: a flipped status
        // word can merge a vertex twice, and the instrumentation math must
        // not panic.
        let vars = &mut walk.vars;
        vars.visited_edge_sum = vars.visited_edge_sum.saturating_add(newly_edges);
        let mut signals = SwitchSignals {
            unexplored_edges: self.csr.edge_count().saturating_sub(vars.visited_edge_sum),
            total_vertices: n,
            ..Default::default()
        };
        let next_dir = match dir {
            Direction::TopDown => {
                signals.gamma_pct = crate::direction::gamma_pct(newly_hubs, self.total_hubs);
                signals.frontier_edges = newly_edges;
                signals.frontier_vertices = newly;
                signals.frontier_growing = newly_edges > vars.prev_frontier_edges;
                vars.prev_frontier_edges = newly_edges;
                let switched = vars.switched_at.is_some();
                if policy.evaluate_topdown(&signals, switched) == SwitchDecision::ToBottomUp {
                    vars.switched_at = Some(level + 1);
                    Direction::BottomUp
                } else {
                    Direction::TopDown
                }
            }
            Direction::BottomUp => {
                if newly > 0
                    && policy.evaluate_bottomup(&signals, newly) == SwitchDecision::ToTopDown
                {
                    Direction::TopDown
                } else {
                    Direction::BottomUp
                }
            }
        };

        // (4) One private queue generation over each device's scan ranges,
        // in the workflow the next level's direction needs; the bottom-up
        // ones stage the hub cache. The execution-clock delta around this
        // phase is the straggler telemetry: the scan is O(range) with
        // identical per-vertex cost on every healthy device, so the
        // per-item busy ratio is a direct read of relative device speed.
        let t1 = self.multi.elapsed_ms();
        self.level_busy.iter_mut().for_each(|b| *b = 0.0);
        let newly_level = level + 1;
        let wf = match (dir, next_dir) {
            (_, Direction::TopDown) => GenWorkflow::TopDown { frontier_level: newly_level },
            (Direction::TopDown, Direction::BottomUp) => GenWorkflow::Switch { newly_level },
            (Direction::BottomUp, Direction::BottomUp) => GenWorkflow::Filter { newly_level },
        };
        let (sizes, fills) = self.generate(wf, hc && next_dir == Direction::BottomUp)?;
        let queue_gen_ms = self.multi.elapsed_ms() - t1;
        walk.vars.cache_filled = fills > 0;

        walk.trace.push(LevelRecord {
            level,
            direction: next_dir.label(),
            sizes,
            gamma_pct: signals.gamma_pct,
            alpha: signals.alpha(),
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

    /// Runs one queue-generation workflow on every survivor, adding the
    /// phase to the straggler telemetry, then barriers. Returns the
    /// summed class sizes and hub-cache fills.
    fn generate(
        &mut self,
        wf: GenWorkflow,
        hub_cache: bool,
    ) -> Result<([usize; 4], usize), BfsError> {
        let mark = self.device_clocks();
        let mut sizes = [0usize; 4];
        let mut fills = 0;
        let results = self.step_devices(move |device, part| {
            try_generate_queues(device, &part.graph, &mut part.state, wf, hub_cache)
        })?;
        for r in results {
            fills += r.hub_fills;
            for (size, part_size) in sizes.iter_mut().zip(r.sizes) {
                *size += part_size;
            }
        }
        self.add_level_busy(&mark);
        self.multi.barrier();
        Ok((sizes, fills))
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
            seed(self.multi.device(d), &self.parts[d].graph, &mut st, source);
            states.push(Some(st));
        }
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

    /// A pinned fleet's level checkpoints list every dead device. Source 3
    /// loses devices, then source 17 runs on the survivors and is killed
    /// after level 2 (a level cap). A restart must resume that checkpoint
    /// on the survivors (DESIGN.md §5g): an eviction list missing source
    /// 3's losses, beside their empty images, was a layout mismatch and a
    /// cold start.
    #[test]
    fn pinned_fleet_checkpoint_lists_earlier_evictions_and_resumes() {
        let g = kronecker(9, 8, 5);
        for seed in [0, 1, 3] {
            let mut dir = std::env::temp_dir();
            dir.push(format!("enterprise-pinned-ckpt-{seed}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = |faults| MultiGpuConfig {
                faults,
                persist: Some(PersistPolicy::with_checkpoints(&dir, 1)),
                ..MultiGpuConfig::k40s(4)
            };
            let spec = FaultSpec { device_loss_rate: 0.01, ..FaultSpec::none(seed) };
            let mut sys = Fleet::new(cfg(Some(spec)), &g);
            sys.set_pinned(true);
            let first = sys.try_bfs(3).expect("source 3 finishes on its survivors");
            assert!(!first.recovery.devices_lost.is_empty(), "seed {seed}: no brownout");
            let dead: Vec<u32> =
                (0..4).filter(|&d| !sys.multi.is_alive(d)).map(|d| d as u32).collect();
            sys.config.watchdog.max_levels = Some(2);
            assert!(sys.try_bfs(17).is_err(), "seed {seed}: the level cap must kill source 17");

            let mut store = sys.store.take().expect("persistence is armed");
            let snap = read_checkpoint(&mut store).unwrap().expect("a level-2 checkpoint");
            assert_eq!(snap.level, 2, "seed {seed}");
            for d in &dead {
                let listed = &snap.evicted;
                assert!(listed.contains(d), "seed {seed}: {d} missing from {listed:?}");
            }

            let r = Fleet::new(cfg(None), &g).try_bfs(17).expect("restart");
            let errors = &r.recovery.snapshot_errors;
            assert!(errors.is_empty(), "seed {seed}: {errors:?}");
            assert_eq!(r.recovery.resumed_at_level, Some(2), "seed {seed}");
            assert_eq!(r.levels, cpu_levels(&g, 17), "seed {seed}");
            audit(&g, 17, &r.levels, &r.parents).expect("audit-valid parents");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A commit whose build fails changes nothing. Device 1 is marked lost
    /// but not yet evicted, as a pipelined sweep can leave it, so a plan
    /// naming it fails at its upload after device 0's build succeeded:
    /// the commit returns the loss, and the extents, alive set, retired
    /// stack and epoch are as before, device 3's eviction included. With
    /// device 1 revived the same commit lands whole.
    #[test]
    fn failed_commit_changes_nothing() {
        let g = kronecker(9, 8, 5);
        let n = g.vertex_count();
        for shape in [Shape::Slices(4), Shape::Grid(2, 2)] {
            let mut sys = Fleet::new(FleetConfig::k40s_over(shape), &g);
            let plan = || vec![(0, Extent::strip(0..n / 2)), (1, Extent::strip(n / 2..n))];
            let layout = |s: &Fleet| (s.extents(), s.multi.alive_ids(), s.retired.len());
            let before = layout(&sys);
            sys.multi.device(1).mark_lost();
            let err = sys.commit(plan(), &[2, 3]).err();
            assert_eq!(err, Some(DeviceError::DeviceLost { device: 1 }), "{shape:?}");
            assert_eq!(layout(&sys), before, "{shape:?}");
            assert_eq!(sys.fleet_epoch(), 0, "{shape:?}");

            sys.multi.revive_all();
            sys.commit(plan(), &[2, 3]).expect("a revived device builds");
            let strips = vec![(0..n / 2, 0..n / 2), (n / 2..n, n / 2..n)];
            assert_eq!(sys.extents()[..2], strips, "{shape:?}");
            assert_eq!((sys.multi.alive_ids(), sys.retired.len()), (vec![0, 1], 2), "{shape:?}");
            assert_eq!(sys.fleet_epoch(), 1, "{shape:?}");
        }
    }

    /// The thread count cannot change a result, under faults too. Each
    /// case runs on two fleets, one stepping every survivor serially on
    /// the calling thread and one splitting them over two threads, and
    /// the two agree bit for bit: levels, parents, time, bytes, recovery
    /// report and every device's kernel records. Shapes 1-D x4, 2x2 and
    /// 3x3 (a 4/5 split) run with no plan, a zero-rate plan, and the
    /// golden fixture's `loss` and `link+loss` (router on) plans; a
    /// pipelined batch with no plan and under `loss` compares its batch
    /// time and each run's time and digest. At least one compared run
    /// loses a device, so a failed phase is among the cases.
    #[test]
    fn serial_and_split_stepping_agree_bit_for_bit() {
        use crate::route::RoutePolicy;
        let g = kronecker(10, 8, 5);
        let loss = FaultSpec { device_loss_rate: 0.004, ..FaultSpec::none(11) };
        let link_loss = FaultSpec {
            link_down_rate: 0.15,
            link_flap_rate: 0.15,
            link_flap_period_levels: gpu_sim::CHAOS_LINK_FLAP_PERIOD_LEVELS,
            link_degrade_rate: 0.2,
            device_loss_rate: 0.004,
            ..FaultSpec::none(12)
        };
        let plans = [
            ("none", None, RoutePolicy::disabled()),
            ("zero-rate", Some(FaultSpec::none(1)), RoutePolicy::disabled()),
            ("loss", Some(loss), RoutePolicy::disabled()),
            ("link+loss", Some(link_loss), RoutePolicy::on()),
        ];
        let fleets = |cfg: FleetConfig<Shape>| {
            let mut serial = Fleet::new(cfg.clone(), &g);
            serial.serial = true;
            (serial, Fleet::new(cfg, &g))
        };
        let records = |fleet: &Fleet| -> Vec<String> {
            (0..fleet.parts.len()).map(|d| format!("{:?}", fleet.device(d).records())).collect()
        };
        let mut losses = 0;
        for shape in [Shape::Slices(4), Shape::Grid(2, 2), Shape::Grid(3, 3)] {
            for (plan, faults, route) in plans {
                let cfg = FleetConfig { faults, route, ..FleetConfig::k40s_over(shape) };
                let (mut serial, mut split) = fleets(cfg);
                for source in [3, 517] {
                    let tag = format!("{shape:?} {plan} src={source}");
                    match (serial.try_bfs(source), split.try_bfs(source)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.levels, b.levels, "{tag}");
                            assert_eq!(a.parents, b.parents, "{tag}");
                            assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits(), "{tag}: time");
                            assert_eq!(a.communication_bytes, b.communication_bytes, "{tag}");
                            assert_eq!(a.recovery, b.recovery, "{tag}");
                            losses += usize::from(!a.recovery.devices_lost.is_empty());
                        }
                        (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{tag}"),
                    }
                    assert_eq!(records(&serial), records(&split), "{tag}: kernel records");
                }
            }
            for (plan, faults) in [("none", None), ("loss", Some(loss))] {
                let cfg = FleetConfig { faults, ..FleetConfig::k40s_over(shape) };
                let (mut serial, mut split) = fleets(cfg);
                let sources: Vec<BatchSource> =
                    [3, 17, 100, 255, 511, 600, 800, 1000].map(BatchSource::new).to_vec();
                let policy = BatchPolicy::pipelined(4);
                let (a, b) = (serial.batch(&sources, &policy), split.batch(&sources, &policy));
                let tag = format!("{shape:?} {plan} pipelined batch");
                assert_eq!(a.batch_ms.to_bits(), b.batch_ms.to_bits(), "{tag}: batch_ms");
                assert_eq!(a.runs.len(), b.runs.len(), "{tag}");
                for (a, b) in a.runs.iter().zip(&b.runs) {
                    let tag = format!("{tag}, source {}", a.source);
                    assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits(), "{tag}: time");
                    assert_eq!(a.digest, b.digest, "{tag}: digest");
                }
            }
        }
        assert!(losses > 0, "no compared run lost a device");
    }

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

    /// The one tiling rule: strips in any device order, the cold blocks of
    /// every grid shape and spliced blocks are accepted; a gap, an
    /// overlap, an empty range, a range past `n`, and blocks offered to a
    /// slices shape are not.
    #[test]
    fn tiling_accepts_strips_and_blocks_and_rejects_defects() {
        let n = 97;
        let strips =
            |rs: &[Range<usize>]| -> Vec<_> { rs.iter().map(|r| (r.clone(), r.clone())).collect() };
        let cold = |r: usize, c: usize| -> Vec<_> {
            (0..r * c)
                .map(|d| {
                    let e = Fleet::cold_extent(Shape::Grid(r, c), n, d);
                    (e.td, e.bu)
                })
                .collect()
        };
        assert_eq!(tiling(&strips(&[50..80, 0..20, 80..97, 20..50]), n), Some(View::Strip));
        for (r, c) in [(2, 2), (3, 3), (4, 2), (1, 2), (2, 1)] {
            assert_eq!(tiling(&cold(r, c), n), Some(View::Block), "{r}x{c}");
        }
        // A 2x2 after a same-row splice (device 0 absorbs device 1's
        // columns), and after a same-column splice (device 0 absorbs
        // device 2's rows).
        let mut row = cold(2, 2);
        row[0].0 = 0..n;
        row.remove(1);
        assert_eq!(tiling(&row, n), Some(View::Block));
        let mut col = cold(2, 2);
        col[0].1 = 0..n;
        col.remove(2);
        assert_eq!(tiling(&col, n), Some(View::Block));
        // A 2x2 never keeps one splice of each kind (a same-column splice
        // needs the lost device's row merged first); a 3x3 can: device 0
        // absorbs device 1's columns, device 8 absorbs device 5's rows.
        let mut both = cold(3, 3);
        both[0].0.end = both[1].0.end;
        both[8].1.start = both[5].1.start;
        both.remove(5);
        both.remove(1);
        assert_eq!(tiling(&both, n), Some(View::Block));

        assert_eq!(tiling(&strips(&[0..20, 50..97]), n), None, "gap");
        assert_eq!(tiling(&strips(&[0..60, 50..97]), n), None, "overlapping strips");
        // Device 1's block slides onto device 0's: the total area still
        // matches, but the rectangles overlap (and leave a gap).
        let mut overlap = cold(2, 2);
        overlap[1].0 = 38..87;
        assert_eq!(tiling(&overlap, n), None, "overlapping blocks");
        assert_eq!(tiling(&strips(&[0..50, 50..50, 50..97]), n), None, "empty range");
        assert_eq!(tiling(&strips(&[0..50, 50..120]), n), None, "past n");
        assert_eq!(tiling(&[], n), None, "no extents");
        assert_eq!(Fleet::live_view(Shape::Slices(4), n, &cold(2, 2), |_| true), None);
        assert_eq!(
            Fleet::live_view(Shape::Grid(2, 2), n, &cold(2, 2), |_| true),
            Some(View::Block)
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

    /// The level's direction signals follow one rule on every shape, and
    /// every shape holds one hub set. `T_h` is the CSR's hub count, and
    /// under Alpha and under Gamma every shape's trace (direction, α and
    /// γ bits, newly visited) is the one device's. Every run is
    /// oracle-correct with audit-valid parents.
    #[test]
    fn signals_follow_one_rule_on_every_shape() {
        let shapes = [
            Shape::Slices(1),
            Shape::Slices(2),
            Shape::Slices(4),
            Shape::Grid(2, 2),
            Shape::Grid(3, 3),
            Shape::Grid(4, 2),
            Shape::Grid(1, 4),
        ];
        for (name, g) in [
            ("kron", kronecker(11, 16, 13)),
            ("rmat", rmat(11, 8, 3)),
            ("road", road_grid(24, 24, 0.02, 7)),
        ] {
            let n = g.vertex_count() as VertexId;
            for source in [1, n / 3] {
                let run = |shape: Shape, policy| {
                    let case = format!("{name} src={source} {shape:?} {policy:?}");
                    let cfg = FleetConfig { policy, ..FleetConfig::k40s_over(shape) };
                    let mut fleet = Fleet::new(cfg, &g);
                    let hubs = count_hubs(&g, fleet.hub_tau()) as u64;
                    assert_eq!(fleet.total_hubs(), hubs, "{case}: T_h");
                    let r = fleet.bfs(source);
                    assert_eq!(r.levels, cpu_levels(&g, source), "{case}: levels");
                    audit(&g, source, &r.levels, &r.parents).expect("audit-valid parents");
                    let trace: Vec<_> = r
                        .level_trace
                        .iter()
                        .map(|l| {
                            let bits = (l.alpha.to_bits(), l.gamma_pct.to_bits());
                            (l.direction, bits, l.newly_visited)
                        })
                        .collect();
                    (case, trace)
                };
                for policy in [DirectionPolicy::alpha_default(), DirectionPolicy::gamma_default()] {
                    let (_, one) = run(shapes[0], policy);
                    for shape in shapes {
                        let (case, trace) = run(shape, policy);
                        assert_eq!(trace, one, "{case}: trace");
                    }
                }
            }
        }
    }

    /// A grid that falls back to strips keeps the one hub set. A pinned
    /// 4x2 fleet commits to two strips on devices 0 and 1 with the other
    /// six dead, the layout a multi-device loss plans; from source 1 it
    /// reads the γ trace of one device and of a fresh 1-D x2 fleet.
    #[test]
    fn collapsed_grid_reads_the_one_device_gamma() {
        let g = rmat(12, 8, 3);
        let n = g.vertex_count();
        let gamma = |r: MultiBfsResult| -> Vec<u64> {
            assert_eq!(r.levels, cpu_levels(&g, 1), "levels");
            r.level_trace.iter().map(|l| l.gamma_pct.to_bits()).collect()
        };
        let mut grid = Fleet::new(FleetConfig::k40s_over(Shape::Grid(4, 2)), &g);
        grid.set_pinned(true);
        let dead: Vec<usize> = (2..8).collect();
        let (plan, _) = grid.loss_plan(&dead);
        let strips = [Extent::strip(0..n / 2), Extent::strip(n / 2..n)];
        assert!(plan.iter().map(|(d, _)| *d).eq([0, 1]), "the survivors take the strips");
        assert!(plan.iter().map(|(_, e)| e).eq(&strips), "a multi-device loss plans two strips");
        grid.commit(plan, &dead).expect("the strips build");
        let collapsed = gamma(grid.try_bfs(1).expect("the strips traverse"));

        let one = gamma(Fleet::new(FleetConfig::k40s_over(Shape::Slices(1)), &g).bfs(1));
        let fresh = gamma(Fleet::new(FleetConfig::k40s_over(Shape::Slices(2)), &g).bfs(1));
        assert_eq!(collapsed, one, "collapsed grid against one device");
        assert_eq!(fresh, one, "fresh 1-D x2 against one device");
        assert_eq!(grid.total_hubs(), count_hubs(&g, grid.hub_tau()) as u64, "T_h");
    }
}
