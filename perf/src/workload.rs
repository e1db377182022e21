//! The four benchmark workloads, and the end-to-end and per-layer
//! measurements taken on them through the libraries' public APIs.
//!
//! Each workload is a closed loop with one client: the next traversal
//! (or batch) starts only when the previous one returned. The operation
//! list is run in passes, each on a freshly built driver, so every pass
//! repeats the same deterministic work; an operation's host time is its
//! minimum over the passes, and its simulated time and result digest must
//! not change between passes.

use crate::json::Metric;
use crate::reference::CpuReference;
use crate::stats::{
    combine, median, min_over_passes, percentile, pick_sources, result_digest, tail_percentile,
};
use crate::trace::{Span, Tracer};
use enterprise::classify::ClassifyThresholds;
use enterprise::frontier::{enqueue_seed, generate_queues, GenWorkflow};
use enterprise::kernels::{expand_level, Direction};
use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::state::BfsState;
use enterprise::status::{levels_from_raw, NO_PARENT};
use enterprise::validate::{audit, cpu_levels};
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, BfsError, BfsResult, DeviceGraph, Enterprise,
    EnterpriseConfig, FaultSpec, LevelRecord, PersistPolicy, RecoveryReport, RoutePolicy,
    VerifyPolicy,
};
use enterprise_graph::gen::{kronecker, rmat, road_grid};
use enterprise_graph::stats::hub_threshold_for_capacity;
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{exclusive_scan, Device, DeviceConfig, LaunchConfig, ScanScratch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed passes over the operation list, at least; more run while the
/// `--seconds` budget lasts.
const MIN_PASSES: usize = 3;
/// Repetitions of the device-graph upload probe.
const UPLOAD_REPS: usize = 3;
/// Sources used by the traced run's layer replay and ablations.
const PROBE_SOURCES: usize = 8;
/// Lanes of the pipelined batch plane.
const PIPELINE_WIDTH: usize = 4;
/// Hub-cache slots, as in every driver's default configuration.
const HUB_ENTRIES: usize = 1024;
const SOURCE_SALT: u64 = 0x5eed_5041_7c35;
/// Seed of every workload's graph. The graph is part of the workload, like
/// a named data set; `--seed` draws the sources. Graphs drawn per run
/// would move the simulated figures by several percent between runs (on
/// the batch workload they fall in two clusters 5% apart), which is input
/// variation, not measurement.
const GRAPH_SEED: u64 = 20150415;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Single,
    OneD,
    TwoD,
}

#[derive(Clone, Copy, Debug)]
enum Graph {
    Kron { scale: u32, edgefactor: u32 },
    Rmat { scale: u32, edgefactor: u32 },
    Road { side: usize },
}

impl Graph {
    fn build(self, seed: u64) -> Csr {
        match self {
            Graph::Kron { scale, edgefactor } => kronecker(scale, edgefactor, seed),
            Graph::Rmat { scale, edgefactor } => rmat(scale, edgefactor, seed),
            Graph::Road { side } => road_grid(side, side, 0.05, seed),
        }
    }
}

/// One benchmark workload. README.md gives the reason for each.
pub struct Workload {
    pub name: &'static str,
    shape: Shape,
    graph: Graph,
    /// Graph of the `--smoke` scale.
    smoke_graph: Graph,
    /// Sources traversed per pass.
    sources: usize,
    /// Sources per pipelined batch; `None` makes every traversal its own
    /// operation.
    batch: Option<usize>,
    /// Faults, verification, routing and per-level checkpoints, all armed.
    durable: bool,
    /// Set-ups per timing round (see [`Setup`]), about 0.2 s on a 2-vCPU
    /// x86-64 VM.
    setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kron-single",
        shape: Shape::Single,
        graph: Graph::Kron { scale: 15, edgefactor: 16 },
        smoke_graph: Graph::Kron { scale: 9, edgefactor: 8 },
        sources: 96,
        batch: None,
        durable: false,
        setup_reps: 2,
    },
    Workload {
        name: "road-grid-2d",
        shape: Shape::TwoD,
        graph: Graph::Road { side: 48 },
        smoke_graph: Graph::Road { side: 12 },
        sources: 64,
        batch: None,
        durable: false,
        setup_reps: 500,
    },
    Workload {
        name: "kron-batch-pipelined",
        shape: Shape::OneD,
        graph: Graph::Kron { scale: 13, edgefactor: 16 },
        smoke_graph: Graph::Kron { scale: 9, edgefactor: 8 },
        sources: 128,
        batch: Some(16),
        durable: false,
        setup_reps: 5,
    },
    Workload {
        name: "rmat-durable-1d",
        shape: Shape::OneD,
        graph: Graph::Rmat { scale: 13, edgefactor: 16 },
        smoke_graph: Graph::Rmat { scale: 9, edgefactor: 8 },
        sources: 128,
        batch: None,
        durable: true,
        setup_reps: 5,
    },
];

/// Sources per pass at the `--smoke` scale (two batches of two on the
/// batch workload).
const SMOKE_SOURCES: usize = 4;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The durable workload's fault campaign: silent bit flips for the
/// verifier, flapping links for the router, torn and rotted snapshot
/// files for the persistence layer. Rates are low enough that every
/// traversal recovers on the device.
///
/// The campaign's seed is part of the workload, not of `--seed`: which
/// links flap is drawn once per plan, and their backoff dominates the
/// simulated time, so a per-run fault seed would swing the simulated
/// figures by tens of percent between runs. This seed gives one flapping
/// link and a few repaired bit flips on every graph the workload draws.
fn durable_faults() -> FaultSpec {
    const SEED: u64 = 3;
    FaultSpec {
        bitflip_rate: 0.002,
        link_flap_rate: 0.3,
        link_flap_period_levels: enterprise::CHAOS_LINK_FLAP_PERIOD_LEVELS,
        torn_write_rate: 0.05,
        snapshot_corrupt_rate: 0.05,
        ..FaultSpec::none(SEED)
    }
}

/// Optional planes a driver is built with.
#[derive(Clone, Copy, Default)]
struct Planes<'a> {
    faults: Option<FaultSpec>,
    verify: bool,
    route: bool,
    /// State directory for a durable checkpoint at every level.
    checkpoints: Option<&'a Path>,
}

/// The library result fields the harness reads, common to all drivers.
struct Traversal {
    source: VertexId,
    levels: Vec<Option<u32>>,
    parents: Vec<Option<VertexId>>,
    edges: u64,
    sim_ms: f64,
    level_trace: Vec<LevelRecord>,
    communication_bytes: u64,
    recovery: RecoveryReport,
}

impl From<BfsResult> for Traversal {
    fn from(r: BfsResult) -> Self {
        Traversal {
            source: r.source,
            levels: r.levels,
            parents: r.parents,
            edges: r.traversed_edges,
            sim_ms: r.time_ms,
            level_trace: r.level_trace,
            communication_bytes: 0,
            recovery: r.recovery,
        }
    }
}

impl From<MultiBfsResult> for Traversal {
    fn from(r: MultiBfsResult) -> Self {
        Traversal {
            source: r.source,
            levels: r.levels,
            parents: r.parents,
            edges: r.traversed_edges,
            sim_ms: r.time_ms,
            level_trace: r.level_trace,
            communication_bytes: r.communication_bytes,
            recovery: r.recovery,
        }
    }
}

/// What one operation returned: the parts of a [`BatchReport`] the
/// harness reads. A single traversal is a batch of one.
struct Batch {
    batch_ms: f64,
    accounted: bool,
    retries: u32,
    hedges: u32,
    /// Per source: its lane's simulated time, and its result if ok.
    runs: Vec<(f64, Option<Traversal>)>,
}

impl<R: Into<Traversal>> From<BatchReport<R>> for Batch {
    fn from(r: BatchReport<R>) -> Self {
        Batch {
            batch_ms: r.batch_ms,
            accounted: r.accounted(),
            retries: r.retries,
            hedges: r.hedges,
            runs: r.runs.into_iter().map(|run| (run.time_ms, run.result.map(Into::into))).collect(),
        }
    }
}

impl From<Result<Traversal, BfsError>> for Batch {
    fn from(r: Result<Traversal, BfsError>) -> Self {
        let run = match r {
            Ok(t) => (t.sim_ms, Some(t)),
            Err(_) => (0.0, None),
        };
        Batch { batch_ms: run.0, accounted: true, retries: 0, hedges: 0, runs: vec![run] }
    }
}

enum Driver {
    Single(Box<Enterprise>),
    OneD(Box<MultiGpuEnterprise>),
    TwoD(Box<MultiGpu2DEnterprise>),
}

impl Driver {
    fn new(shape: Shape, g: &Csr, p: &Planes) -> Self {
        let verify = if p.verify { VerifyPolicy::full() } else { VerifyPolicy::disabled() };
        let route = if p.route { RoutePolicy::on() } else { RoutePolicy::disabled() };
        let persist = p.checkpoints.map(|dir| PersistPolicy::with_checkpoints(dir, 1));
        // The sanitizer defaults from the environment; pin it off so the
        // environment cannot change what is measured.
        match shape {
            Shape::Single => {
                let config = EnterpriseConfig {
                    faults: p.faults,
                    verify,
                    persist,
                    sanitize: false,
                    ..Default::default()
                };
                Driver::Single(Box::new(Enterprise::new(config, g)))
            }
            Shape::OneD => {
                let config = MultiGpuConfig {
                    faults: p.faults,
                    verify,
                    route,
                    persist,
                    sanitize: false,
                    ..MultiGpuConfig::k40s(4)
                };
                Driver::OneD(Box::new(MultiGpuEnterprise::new(config, g)))
            }
            Shape::TwoD => {
                let config = Grid2DConfig {
                    faults: p.faults,
                    verify,
                    route,
                    persist,
                    sanitize: false,
                    ..Grid2DConfig::k40s(2, 2)
                };
                Driver::TwoD(Box::new(MultiGpu2DEnterprise::new(config, g)))
            }
        }
    }

    /// Builds a driver over an emptied state directory, so no snapshot of
    /// an earlier driver turns the build into a warm restart.
    fn fresh(shape: Shape, g: &Csr, p: &Planes) -> Self {
        empty_dir(p.checkpoints);
        Driver::new(shape, g, p)
    }

    fn sim_elapsed_ms(&self) -> f64 {
        match self {
            Driver::Single(d) => d.sim_elapsed_ms(),
            Driver::OneD(d) => d.sim_elapsed_ms(),
            Driver::TwoD(d) => d.sim_elapsed_ms(),
        }
    }

    fn traverse(&mut self, source: VertexId) -> Result<Traversal, BfsError> {
        match self {
            Driver::Single(d) => d.try_bfs(source).map(Into::into),
            Driver::OneD(d) => d.try_bfs(source).map(Into::into),
            Driver::TwoD(d) => d.try_bfs(source).map(Into::into),
        }
    }

    fn batch(&mut self, sources: &[BatchSource], policy: &BatchPolicy) -> Batch {
        match self {
            Driver::Single(d) => d.batch(sources, policy).into(),
            Driver::OneD(d) => d.batch(sources, policy).into(),
            Driver::TwoD(d) => d.batch(sources, policy).into(),
        }
    }
}

fn empty_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        // Absent on first use; any other failure surfaces as a snapshot
        // error inside the driver.
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One operation of the closed loop.
enum Op {
    Traverse(VertexId),
    Batch(Vec<BatchSource>),
}

impl Op {
    fn source_ids(&self) -> Vec<VertexId> {
        match self {
            Op::Traverse(s) => vec![*s],
            Op::Batch(b) => b.iter().map(|s| s.source).collect(),
        }
    }

    fn source(&self) -> Option<u32> {
        match self {
            Op::Traverse(s) => Some(*s),
            Op::Batch(_) => None,
        }
    }

    /// Runs the operation; a panic is caught and reported as `Err`.
    fn execute(&self, driver: &mut Driver) -> Result<Batch, ()> {
        catch_unwind(AssertUnwindSafe(|| match self {
            Op::Traverse(s) => {
                let r = driver.traverse(*s);
                if let Err(e) = &r {
                    eprintln!("perf: source {s} failed: {e}");
                }
                r.into()
            }
            Op::Batch(sources) => driver.batch(sources, &BatchPolicy::pipelined(PIPELINE_WIDTH)),
        }))
        .map_err(|_| ())
    }
}

/// Oracle check: exact levels from the sequential CPU BFS, and a valid
/// shortest-path parent tree.
fn check(
    g: &Csr,
    source: VertexId,
    levels: &[Option<u32>],
    parents: &[Option<VertexId>],
) -> Result<(), String> {
    if cpu_levels(g, source) != levels {
        return Err(format!("source {source}: levels differ from the CPU oracle"));
    }
    audit(g, source, levels, parents).map_err(|e| format!("source {source}: {e}"))
}

/// Sums over traversals of what the library reports per layer.
#[derive(Clone, Default)]
struct Layers {
    traversals: u64,
    queue_gen_ms: f64,
    expand_ms: f64,
    classes: [u64; 4],
    td_levels: u64,
    bu_levels: u64,
    communication_bytes: u64,
    snapshots: u64,
    snapshot_errors: u64,
    sdc_detected: u64,
    sdc_repaired: u64,
    levels_replayed: u64,
    link_retries: u64,
    link_reroutes: u64,
    batch_retries: u64,
    batch_hedges: u64,
}

impl Layers {
    fn add(&mut self, t: &Traversal) {
        self.traversals += 1;
        // Level 0 expands top-down; each record names the direction of
        // the level after it.
        let dirs = std::iter::once("top-down").chain(t.level_trace.iter().map(|l| l.direction));
        for (l, dir) in t.level_trace.iter().zip(dirs) {
            self.queue_gen_ms += l.queue_gen_ms;
            self.expand_ms += l.expand_ms;
            for (sum, &size) in self.classes.iter_mut().zip(&l.sizes) {
                *sum += size as u64;
            }
            if dir == Direction::TopDown.label() {
                self.td_levels += 1;
            } else {
                self.bu_levels += 1;
            }
        }
        self.communication_bytes += t.communication_bytes;
        let r = &t.recovery;
        self.snapshots += u64::from(r.snapshots_persisted);
        self.snapshot_errors += r.snapshot_errors.len() as u64;
        self.sdc_detected += r.sdc_detected;
        self.sdc_repaired += r.sdc_repaired;
        self.levels_replayed += u64::from(r.levels_replayed);
        self.link_retries += u64::from(r.link_retries);
        self.link_reroutes += u64::from(r.link_reroutes);
    }

    /// Mean of a per-traversal sum.
    fn per(&self, total: f64) -> f64 {
        total / self.traversals.max(1) as f64
    }
}

/// One operation's outcome after its untimed oracle check.
#[derive(Default)]
struct Record {
    /// Simulated wall time of the operation (overlapped, for a batch).
    sim_ms: f64,
    edges: u64,
    digest: u64,
    /// Simulated time of each ok traversal.
    source_sim_ms: Vec<f64>,
    failed: u64,
    oracle_ms: Vec<f64>,
}

/// Checks what an operation returned, oracle-checking every ok
/// traversal. Oracle mismatches and broken batch accounting go to
/// `problems` (the run is then not correct); typed errors, poisoned or
/// shed sources and panics count as failed. Layer figures of the ok
/// traversals are added to `layers`.
fn record(
    g: &Csr,
    op: &Op,
    done: Result<Batch, ()>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    problems: &mut Vec<String>,
) -> Record {
    let mut rec = Record::default();
    let Ok(b) = done else {
        problems.push(format!("operation on source {:?} panicked", op.source()));
        rec.failed = op.source_ids().len() as u64;
        return rec;
    };
    if !b.accounted {
        problems.push("batch report is not accounted".to_string());
    }
    rec.sim_ms = b.batch_ms;
    layers.batch_retries += u64::from(b.retries);
    layers.batch_hedges += u64::from(b.hedges);
    let mut digests = Vec::with_capacity(b.runs.len());
    for (lane_ms, result) in b.runs {
        let Some(t) = result else {
            rec.failed += 1;
            digests.push(0);
            continue;
        };
        let t0 = Instant::now();
        let verdict =
            tracer.span("oracle", Some(t.source), |_| check(g, t.source, &t.levels, &t.parents));
        rec.oracle_ms.push(ms_since(t0));
        match verdict {
            Ok(()) => {
                rec.edges += t.edges;
                rec.source_sim_ms.push(lane_ms);
                layers.add(&t);
                digests.push(result_digest(&t.levels, &t.parents));
            }
            Err(e) => {
                problems.push(e);
                rec.failed += 1;
                digests.push(0);
            }
        }
    }
    rec.digest = combine(digests);
    rec
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` host milliseconds of `f`, with the last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(ms_since(t0));
        out = Some(r);
    }
    (best, out.expect("at least one repetition"))
}

/// Set-up timings: graph generation plus driver construction.
///
/// Set-up is timed in rounds spread over the whole run, one before each
/// timed pass and one after the last, not back to back at start-up: there,
/// a burst of load on a shared machine made a set-up of a fraction of a
/// millisecond read 1.7x slower than later in the same process. No timed
/// driver is alive during a round. A round is a fixed number of set-ups,
/// not a time budget: how many set-ups ran changes the heap's layout, and
/// a count that followed the clock moved the peak resident memory by 7%
/// from run to run.
struct Setup<'a> {
    shape: Shape,
    graph: Graph,
    planes: Planes<'a>,
    /// Set-ups per round.
    reps: usize,
    total_s: Vec<f64>,
    build_ms: Vec<f64>,
    new_ms: Vec<f64>,
    census_sim_ms: f64,
}

impl<'a> Setup<'a> {
    /// Sets up once, untimed, to warm the process up, and returns the
    /// graph.
    fn warm_up(shape: Shape, graph: Graph, planes: Planes<'a>, reps: usize) -> (Self, Csr) {
        empty_dir(planes.checkpoints);
        let g = graph.build(GRAPH_SEED);
        let census_sim_ms = Driver::new(shape, &g, &planes).sim_elapsed_ms();
        let setup = Setup {
            shape,
            graph,
            planes,
            reps,
            total_s: Vec::new(),
            build_ms: Vec::new(),
            new_ms: Vec::new(),
            census_sim_ms,
        };
        (setup, g)
    }

    /// Times one round of set-ups.
    fn round(&mut self, tracer: &mut Tracer) {
        for _ in 0..self.reps {
            empty_dir(self.planes.checkpoints);
            tracer.span("setup", None, |t| {
                let t0 = Instant::now();
                let g = t.span("graph.build", None, |_| self.graph.build(GRAPH_SEED));
                let t1 = Instant::now();
                let driver =
                    t.span("driver.new", None, |_| Driver::new(self.shape, &g, &self.planes));
                let t2 = Instant::now();
                self.total_s.push((t2 - t0).as_secs_f64());
                self.build_ms.push((t1 - t0).as_secs_f64() * 1e3);
                self.new_ms.push((t2 - t1).as_secs_f64() * 1e3);
                self.census_sim_ms = driver.sim_elapsed_ms();
            });
        }
    }
}

/// Run settings.
pub struct Options {
    pub seed: u64,
    /// Measuring budget; passes continue while it lasts.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory for the run's state files; removed when the run ends.
    pub work_dir: PathBuf,
}

/// What one workload run measured.
pub struct Outcome {
    /// End-to-end metrics, or per-layer ones on a traced run.
    pub metrics: Vec<Metric>,
    /// Further figures printed for a reader but not part of the result.
    pub notes: Vec<Metric>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Over every operation's result digest, in order.
    pub digest: u64,
    pub spans: Vec<Span>,
}

/// Removes the run's directory when dropped, panics included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(w: &Workload, opts: &Options) -> Outcome {
    let work_dir = WorkDir(opts.work_dir.clone());
    let main_dir = work_dir.0.join("state");
    let planes = Planes {
        faults: w.durable.then(durable_faults),
        verify: w.durable,
        route: w.durable,
        checkpoints: w.durable.then_some(main_dir.as_path()),
    };
    let graph_spec = if opts.smoke { w.smoke_graph } else { w.graph };
    let mut tracer = Tracer::new(opts.trace);
    let mut problems = Vec::new();

    let reps = if opts.smoke { 1 } else { w.setup_reps };
    let (mut setup, g) = Setup::warm_up(w.shape, graph_spec, planes, reps);

    let n_sources = if opts.smoke { SMOKE_SOURCES } else { w.sources };
    let sources = pick_sources(&g, n_sources, opts.seed ^ SOURCE_SALT);
    let ops: Vec<Op> = match w.batch {
        None => sources.iter().map(|&s| Op::Traverse(s)).collect(),
        Some(k) => {
            let k = if opts.smoke { 2 } else { k };
            sources
                .chunks(k)
                .map(|c| Op::Batch(c.iter().map(|&s| BatchSource::new(s)).collect()))
                .collect()
        }
    };

    // Timed passes, tracing off. Right after each operation, the CPU
    // reference traverses from the same sources, so both times see the
    // same state of the machine.
    let op_sources: Vec<Vec<VertexId>> = ops.iter().map(Op::source_ids).collect();
    let mut reference = CpuReference::new(&g);
    let mut untraced = Tracer::new(false);
    let mut host: Vec<Vec<f64>> = Vec::new();
    let mut cpu: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<Record> = Vec::new();
    let mut layers = Layers::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss = f64::NAN;
    let start = Instant::now();
    while host.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        setup.round(&mut tracer);
        let pass = host.len();
        let mut driver = Driver::fresh(w.shape, &g, &planes);
        let mut times = Vec::with_capacity(ops.len());
        let mut cpu_times = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let t0 = Instant::now();
            let done = op.execute(&mut driver);
            times.push(ms_since(t0));
            cpu_times.push(reference.ms(&op_sources[i]));
            let panicked = done.is_err();
            let mut pass_layers = Layers::default();
            let layers = if pass == 0 { &mut layers } else { &mut pass_layers };
            let rec = record(&g, op, done, &mut untraced, layers, &mut problems);
            if panicked {
                driver = Driver::fresh(w.shape, &g, &planes);
            }
            attempted += op_sources[i].len() as u64;
            failed += rec.failed;
            if pass == 0 {
                first.push(rec);
            } else if rec.digest != first[i].digest
                || rec.sim_ms.to_bits() != first[i].sim_ms.to_bits()
            {
                problems.push(format!(
                    "operation {i} changed between passes: digest {:016x} -> {:016x}, sim {} -> {} ms",
                    first[i].digest, rec.digest, first[i].sim_ms, rec.sim_ms
                ));
            }
        }
        host.push(times);
        cpu.push(cpu_times);
        if pass == 0 {
            // After set-up and one pass the workload has done all its kinds
            // of work. Later rounds and passes repeat it, and the heap holes
            // the first pass leaves would set their peak: up to 15% higher,
            // depending on the sources drawn.
            peak_rss = peak_rss_mb();
        }
    }
    setup.round(&mut tracer);
    let best = min_over_passes(&host);
    let cpu_best = min_over_passes(&cpu);
    let digest = combine(first.iter().map(|r| r.digest));

    let edges: u64 = first.iter().map(|r| r.edges).sum();
    let sim_total_ms: f64 = first.iter().map(|r| r.sim_ms).sum();
    let mut best_sorted = best.clone();
    best_sorted.sort_by(f64::total_cmp);
    let mut source_sim: Vec<f64> =
        first.iter().flat_map(|r| r.source_sim_ms.iter().copied()).collect();
    source_sim.sort_by(f64::total_cmp);
    if source_sim.is_empty() {
        source_sim.push(f64::NAN);
    }
    let host_total_ms: f64 = best.iter().sum();
    let pass_totals: Vec<f64> = host.iter().map(|pass| pass.iter().sum()).collect();
    let end_to_end = vec![
        Metric::new("setup_s", median(&setup.total_s), "s"),
        // Raw host time drifts with the load on a shared machine; against
        // the CPU reference run beside each operation it does not.
        Metric::new("host_x_cpu", host_total_ms / cpu_best.iter().sum::<f64>(), "x"),
        Metric::new("sim_gteps", edges as f64 / (sim_total_ms / 1e3) / 1e9, "GTEPS"),
        Metric::new("sim_ms_p50", percentile(&source_sim, 50.0), "ms"),
        Metric::new("sim_batch_ms", sim_total_ms, "ms"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    let mut notes = vec![
        Metric::new("passes", host.len() as f64, "count"),
        Metric::new("setup.samples", setup.total_s.len() as f64, "count"),
        Metric::new("host_ms.samples", best.len() as f64, "count"),
        Metric::new("sim_ms.samples", source_sim.len() as f64, "count"),
        Metric::new("failed_frac", failed as f64 / attempted.max(1) as f64, "fraction"),
        Metric::new("host_ms_p50", percentile(&best_sorted, 50.0), "ms"),
        Metric::new("host_meps", edges as f64 / (host_total_ms / 1e3) / 1e6, "Medges/s"),
    ];
    if let Some(p) = tail_percentile(best.len()) {
        notes.push(Metric::new(format!("host_ms_p{p}"), percentile(&best_sorted, p), "ms"));
    }
    if let Some(p) = tail_percentile(source_sim.len()) {
        notes.push(Metric::new(format!("sim_ms_p{p}"), percentile(&source_sim, p), "ms"));
    }

    if !opts.trace {
        return Outcome {
            metrics: end_to_end,
            notes,
            problems,
            attempted,
            failed,
            digest,
            spans: Vec::new(),
        };
    }
    notes.extend(end_to_end);

    // One more pass with spans around every call.
    let mut driver = Driver::fresh(w.shape, &g, &planes);
    let mut traced_ms = 0.0;
    tracer.span("pass", None, |t| {
        for (op, ids) in ops.iter().zip(&op_sources) {
            let t0 = Instant::now();
            let done = t.span("op", op.source(), |_| op.execute(&mut driver));
            traced_ms += ms_since(t0);
            let rec = record(&g, op, done, t, &mut Layers::default(), &mut problems);
            attempted += ids.len() as u64;
            failed += rec.failed;
        }
    });
    drop(driver);

    let oracle_ms: Vec<f64> = first.iter().flat_map(|r| r.oracle_ms.iter().copied()).collect();
    let probe = &sources[..sources.len().min(if opts.smoke { 2 } else { PROBE_SOURCES })];
    let batch_probe = match &ops[0] {
        Op::Batch(b) => b.iter().map(|s| s.source).collect(),
        Op::Traverse(_) => probe.to_vec(),
    };
    let ablation_dir = work_dir.0.join("ablation");
    let base = Planes { route: w.durable, ..Planes::default() };

    let upload_ms = tracer.span("device_graph.upload", None, |_| {
        let times: Vec<f64> = (0..UPLOAD_REPS)
            .map(|_| {
                let mut dev = Device::new(DeviceConfig::k40_repro());
                best_of(1, || DeviceGraph::upload(&mut dev, &g)).0
            })
            .collect();
        median(&times)
    });
    let replay = tracer.span("replay", None, |t| replay(&g, probe, t, &mut problems));
    let scan_ms =
        tracer.span("gpu_sim.exclusive_scan", None, |_| scan_ms(g.vertex_count(), &mut problems));
    let launch_us = tracer.span("gpu_sim.launch", None, |_| launch_us());
    let hub =
        tracer.span("ablation.hub_cache", None, |_| hub_cache_ablation(&g, probe, &mut problems));
    let persist_ms = tracer.span("ablation.persist", None, |_| {
        let with = Planes { checkpoints: Some(ablation_dir.as_path()), ..base };
        plane_overhead_ms(w.shape, &g, probe, &base, &with, &mut problems)
    });
    let verify_ms = tracer.span("ablation.verify", None, |_| {
        let with = Planes { verify: true, ..base };
        plane_overhead_ms(w.shape, &g, probe, &base, &with, &mut problems)
    });
    let (pipe_speedup, pipe_host_ratio) = tracer.span("ablation.batch", None, |_| {
        batch_ablation(w.shape, &g, &batch_probe, &base, &mut problems)
    });
    let replay_ms = (replay.frontier_ns + replay.kernels_ns) as f64 / 1e6;
    let replayed = probe.len() as f64;
    let metrics = vec![
        Metric::new("graph.build_ms", median(&setup.build_ms), "ms"),
        Metric::new("device_graph.upload_ms", upload_ms, "ms"),
        Metric::new("driver.new_ms", median(&setup.new_ms), "ms"),
        Metric::new("driver.census_sim_ms", setup.census_sim_ms, "ms"),
        Metric::new("frontier.sim_ms", layers.per(layers.queue_gen_ms), "ms"),
        Metric::new(
            "frontier.share",
            layers.queue_gen_ms / (layers.queue_gen_ms + layers.expand_ms),
            "fraction",
        ),
        Metric::new("kernels.sim_ms", layers.per(layers.expand_ms), "ms"),
        Metric::new("classify.frontiers_small", layers.per(layers.classes[0] as f64), "count"),
        Metric::new("classify.frontiers_middle", layers.per(layers.classes[1] as f64), "count"),
        Metric::new("classify.frontiers_large", layers.per(layers.classes[2] as f64), "count"),
        Metric::new("classify.frontiers_extreme", layers.per(layers.classes[3] as f64), "count"),
        Metric::new("direction.td_levels", layers.per(layers.td_levels as f64), "count"),
        Metric::new("direction.bu_levels", layers.per(layers.bu_levels as f64), "count"),
        Metric::new("frontier.host_ms", replay.frontier_ns as f64 / 1e6 / replayed, "ms"),
        Metric::new("kernels.host_ms", replay.kernels_ns as f64 / 1e6 / replayed, "ms"),
        Metric::new(
            "gpu_sim.warp_instructions",
            replay.warp_instructions as f64 / replayed,
            "count",
        ),
        Metric::new(
            "gpu_sim.dram_transactions",
            replay.dram_transactions as f64 / replayed,
            "count",
        ),
        Metric::new(
            "kernels.lane_efficiency",
            replay.lane_instructions as f64 / replay.lane_slots as f64,
            "fraction",
        ),
        Metric::new(
            "gpu_sim.host_ns_per_warp_instr",
            replay_ms * 1e6 / replay.warp_instructions as f64,
            "ns",
        ),
        Metric::new("gpu_sim.scan_host_ms", scan_ms, "ms"),
        Metric::new("gpu_sim.launch_host_us", launch_us, "us"),
        Metric::new("hub_cache.host_overhead_ms", hub.host_overhead_ms, "ms"),
        Metric::new("hub_cache.bu_transactions_saved_frac", hub.bu_saved_frac, "fraction"),
        Metric::new("hub_cache.sim_speedup", hub.sim_speedup, "x"),
        Metric::new("exchange.bytes", layers.per(layers.communication_bytes as f64), "bytes"),
        Metric::new("batch.pipeline_speedup_sim", pipe_speedup, "x"),
        Metric::new("batch.host_ratio", pipe_host_ratio, "x"),
        Metric::new("batch.retries", layers.batch_retries as f64, "count"),
        Metric::new("batch.hedges", layers.batch_hedges as f64, "count"),
        Metric::new("persist.host_overhead_ms", persist_ms, "ms"),
        Metric::new("persist.snapshots", layers.per(layers.snapshots as f64), "count"),
        Metric::new("persist.snapshot_errors", layers.per(layers.snapshot_errors as f64), "count"),
        Metric::new("validate.host_overhead_ms", verify_ms, "ms"),
        Metric::new("validate.sdc_detected", layers.per(layers.sdc_detected as f64), "count"),
        Metric::new("validate.sdc_repaired", layers.per(layers.sdc_repaired as f64), "count"),
        Metric::new("validate.levels_replayed", layers.per(layers.levels_replayed as f64), "count"),
        Metric::new("route.link_retries", layers.per(layers.link_retries as f64), "count"),
        Metric::new("route.reroutes", layers.per(layers.link_reroutes as f64), "count"),
        Metric::new("cpu_ref.host_ms", cpu_best.iter().sum::<f64>() / sources.len() as f64, "ms"),
        Metric::new(
            "oracle.host_ms",
            oracle_ms.iter().sum::<f64>() / oracle_ms.len().max(1) as f64,
            "ms",
        ),
        // Against a typical untraced pass: the traced run is one pass, so
        // comparing it with the per-operation minimum would count noise
        // as overhead.
        Metric::new("trace.overhead_frac", traced_ms / median(&pass_totals) - 1.0, "fraction"),
    ];
    Outcome { metrics, notes, problems, attempted, failed, digest, spans: tracer.into_spans() }
}

/// Host time and device counters of the top-down layer replay.
#[derive(Default)]
struct Replay {
    frontier_ns: u64,
    kernels_ns: u64,
    warp_instructions: u64,
    dram_transactions: u64,
    lane_instructions: u64,
    lane_slots: u64,
}

/// Drives the frontier and kernel layers directly on one device holding
/// the whole graph: top-down expansion and queue generation, level by
/// level, the way the drivers call them. Each source's result is
/// oracle-checked.
fn replay(
    g: &Csr,
    sources: &[VertexId],
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Replay {
    let mut dev = Device::new(DeviceConfig::k40_repro());
    let dg = DeviceGraph::upload(&mut dev, g);
    let tau = hub_threshold_for_capacity(g, HUB_ENTRIES);
    let mut st = BfsState::new(&mut dev, &dg, ClassifyThresholds::default(), HUB_ENTRIES, tau);
    let mut r = Replay::default();
    for &s in sources {
        st.reset(&mut dev);
        dev.reset_stats();
        enqueue_seed(&mut dev, &mut st, s, g.out_degree(s));
        let mut level = 0;
        loop {
            r.kernels_ns += tracer.span("kernels.expand_level", Some(s), |_| {
                let t0 = Instant::now();
                expand_level(&mut dev, &dg, &st, level, Direction::TopDown, true, false);
                t0.elapsed().as_nanos() as u64
            });
            r.frontier_ns += tracer.span("frontier.generate_queues", Some(s), |_| {
                let t0 = Instant::now();
                generate_queues(
                    &mut dev,
                    &dg,
                    &mut st,
                    GenWorkflow::TopDown { frontier_level: level + 1 },
                    false,
                );
                t0.elapsed().as_nanos() as u64
            });
            if st.total_frontier() == 0 {
                break;
            }
            level += 1;
        }
        for k in dev.records() {
            r.warp_instructions += k.warp_instructions;
            r.dram_transactions += k.dram_transactions;
            r.lane_instructions += k.lane_instructions;
            r.lane_slots += k.lane_slots;
        }
        let levels = levels_from_raw(dev.mem_ref().view(st.status));
        let parents: Vec<Option<VertexId>> =
            dev.mem_ref().view(st.parent).iter().map(|&p| (p != NO_PARENT).then_some(p)).collect();
        if let Err(e) = check(g, s, &levels, &parents) {
            problems.push(format!("layer replay: {e}"));
        }
    }
    r
}

/// Median host milliseconds of one device prefix sum over `n` words.
fn scan_ms(n: usize, problems: &mut Vec<String>) -> f64 {
    let mut dev = Device::new(DeviceConfig::k40_repro());
    let buf = dev.mem().alloc("perf.scan", n);
    let partials = ScanScratch::new(&mut dev, n);
    let ones = vec![1u32; n];
    let times: Vec<f64> = (0..9)
        .map(|_| {
            dev.mem().upload(buf, &ones);
            dev.reset_stats();
            best_of(1, || exclusive_scan(&mut dev, buf, n, &partials)).0
        })
        .collect();
    if dev.mem_ref().view(buf)[n - 1] != n as u32 - 1 {
        problems.push("exclusive_scan returned a wrong prefix sum".to_string());
    }
    median(&times)
}

/// Median host microseconds per launch of an empty kernel.
fn launch_us() -> f64 {
    const LAUNCHES: usize = 1000;
    let mut dev = Device::new(DeviceConfig::k40_repro());
    let times: Vec<f64> = (0..5)
        .map(|_| {
            dev.reset_stats();
            let (ms, ()) = best_of(1, || {
                for _ in 0..LAUNCHES {
                    dev.launch("perf.noop", LaunchConfig::for_threads(256, 256), |_| {});
                }
            });
            ms * 1e3 / LAUNCHES as f64
        })
        .collect();
    median(&times)
}

struct HubCache {
    host_overhead_ms: f64,
    bu_saved_frac: f64,
    sim_speedup: f64,
}

/// The same sources on a single device with and without the hub cache
/// (TS+WB+HC against TS+WB).
fn hub_cache_ablation(g: &Csr, sources: &[VertexId], problems: &mut Vec<String>) -> HubCache {
    let bu_gld = |r: &BfsResult| -> u64 {
        r.records.iter().filter(|k| k.name.ends_with("(bu)")).map(|k| k.gld_transactions).sum()
    };
    let mut plain =
        Enterprise::new(EnterpriseConfig { sanitize: false, ..EnterpriseConfig::ts_wb() }, g);
    let mut cached = Enterprise::new(EnterpriseConfig { sanitize: false, ..Default::default() }, g);
    let (mut host, mut sim, mut gld) = ([0.0f64; 2], [0.0f64; 2], [0u64; 2]);
    for &s in sources {
        for (k, sys) in [&mut plain, &mut cached].into_iter().enumerate() {
            let (ms, r) = best_of(2, || sys.try_bfs(s));
            match r {
                Ok(r) => {
                    if let Err(e) = check(g, s, &r.levels, &r.parents) {
                        problems.push(format!("hub-cache ablation: {e}"));
                    }
                    host[k] += ms;
                    sim[k] += r.time_ms;
                    gld[k] += bu_gld(&r);
                }
                Err(e) => problems.push(format!("hub-cache ablation: source {s}: {e}")),
            }
        }
    }
    HubCache {
        host_overhead_ms: (host[1] - host[0]) / sources.len() as f64,
        bu_saved_frac: if gld[0] > 0 { 1.0 - gld[1] as f64 / gld[0] as f64 } else { 0.0 },
        sim_speedup: sim[0] / sim[1],
    }
}

/// Host milliseconds per traversal that the planes in `with` add to
/// `base`, fault-free, on the workload's driver shape.
fn plane_overhead_ms(
    shape: Shape,
    g: &Csr,
    sources: &[VertexId],
    base: &Planes,
    with: &Planes,
    problems: &mut Vec<String>,
) -> f64 {
    let mut drivers = [Driver::fresh(shape, g, base), Driver::fresh(shape, g, with)];
    let mut host = [0.0f64; 2];
    for &s in sources {
        for (k, d) in drivers.iter_mut().enumerate() {
            let (ms, r) = best_of(2, || d.traverse(s));
            host[k] += ms;
            match r {
                Ok(t) => {
                    if let Err(e) = check(g, s, &t.levels, &t.parents) {
                        problems.push(format!("plane ablation: {e}"));
                    }
                }
                Err(e) => problems.push(format!("plane ablation: source {s}: {e}")),
            }
        }
    }
    drop(drivers);
    empty_dir(with.checkpoints);
    (host[1] - host[0]) / sources.len() as f64
}

/// One batch of `sources` under the sequential serving plane and under
/// pipelined lanes, on fresh fault-free drivers. Returns the simulated
/// speed-up of pipelining and its host-time ratio.
fn batch_ablation(
    shape: Shape,
    g: &Csr,
    sources: &[VertexId],
    base: &Planes,
    problems: &mut Vec<String>,
) -> (f64, f64) {
    let queue: Vec<BatchSource> = sources.iter().map(|&s| BatchSource::new(s)).collect();
    let mut run = |policy: BatchPolicy| {
        let mut d = Driver::fresh(shape, g, base);
        let (ms, b) = best_of(2, || d.batch(&queue, &policy));
        if !b.accounted {
            problems.push("batch ablation: report is not accounted".to_string());
        }
        let mut digests = Vec::new();
        for (&s, (_, result)) in sources.iter().zip(&b.runs) {
            match result {
                Some(t) => {
                    if let Err(e) = check(g, s, &t.levels, &t.parents) {
                        problems.push(format!("batch ablation: {e}"));
                    }
                    digests.push(result_digest(&t.levels, &t.parents));
                }
                None => problems.push(format!("batch ablation: source {s} did not complete")),
            }
        }
        (ms, b.batch_ms, digests)
    };
    let (seq_host, seq_sim, seq_digests) = run(BatchPolicy::on());
    let (pipe_host, pipe_sim, pipe_digests) = run(BatchPolicy::pipelined(PIPELINE_WIDTH));
    if seq_digests != pipe_digests {
        problems.push("batch ablation: pipelined results differ from sequential".to_string());
    }
    (seq_sim / pipe_sim, pipe_host / seq_host)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
