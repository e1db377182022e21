//! Fault-injection recovery properties: random power-law graphs crossed
//! with random fault seeds (rates up to 20%) must traverse correctly,
//! report recovery activity, and be bit-reproducible; level replay must
//! come back oracle-correct, one traversal or a batch on either plane at a
//! time; a zero-rate plan must be a strict no-op; device OOM must degrade
//! to the CPU baseline (or, at fleet construction, surface as a typed
//! error).

use enterprise::multi_gpu::{Fleet, FleetConfig, MultiGpuConfig, MultiGpuEnterprise, Shape};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{
    audit, BatchPolicy, BatchSource, BfsError, Enterprise, EnterpriseConfig, FaultSpec,
    RecoveryPolicy, RoutePolicy, VerifyPolicy,
};
use enterprise_graph::gen::{kronecker, rmat, social, SocialParams};
use enterprise_graph::{Csr, GraphBuilder, VertexId};
use gpu_sim::DeviceConfig;
use sim_rng::DetRng;

/// Kernel + interconnect faults only: setup stays alive so the GPU path
/// itself (launch retry, level replay, exchange retry) is what's tested.
/// Allocation-fault degradation has its own tests below.
fn runtime_faults(seed: u64, rate: f64) -> FaultSpec {
    FaultSpec { alloc_fail_rate: 0.0, ..FaultSpec::uniform(seed, rate) }
}

/// A random power-law graph, sized for fast but non-trivial traversals.
fn random_powerlaw(rng: &mut DetRng) -> Csr {
    let vertices = 1500 + rng.gen_index(2000);
    let mean_degree = 4.0 + rng.gen_index(8) as f64;
    let zipf_exponent = 0.6 + 0.1 * rng.gen_index(5) as f64;
    let directed = rng.gen_index(2) == 0;
    social(SocialParams { vertices, mean_degree, zipf_exponent, directed }, rng.next_u64())
}

#[test]
fn single_gpu_recovers_on_random_graphs_and_seeds() {
    let mut rng = DetRng::seed_from_u64(0xFA017);
    let mut total_faults = 0u64;
    for round in 0..8 {
        let g = random_powerlaw(&mut rng);
        let fault_seed = rng.next_u64();
        let rate = 0.20 * (1 + rng.gen_index(5)) as f64 / 5.0; // up to 20%
        let source = rng.gen_index(g.vertex_count()) as u32;
        let cfg = EnterpriseConfig {
            faults: Some(runtime_faults(fault_seed, rate)),
            ..EnterpriseConfig::default()
        };
        let mut e = Enterprise::new(cfg, &g);
        let r = e.try_bfs(source).unwrap_or_else(|err| panic!("round {round}: {err}"));
        assert_eq!(r.levels, cpu_levels(&g, source), "round {round} diverged from oracle");
        total_faults += r.recovery.faults.total_faults() + r.recovery.faults.kernel_retries;

        // Bit-reproducibility: the same instance re-run draws the same
        // fault sequence and produces the identical result and timing.
        let r2 = e.try_bfs(source).expect("replayed run");
        assert_eq!(r.levels, r2.levels, "round {round}");
        assert_eq!(r.parents, r2.parents, "round {round}");
        assert_eq!(r.time_ms, r2.time_ms, "round {round}: time not reproducible");
        assert_eq!(r.recovery, r2.recovery, "round {round}: recovery not reproducible");
    }
    assert!(total_faults > 0, "the sweep never injected a fault — rates or plan are broken");
}

/// Panics naming `what` unless the traversal from `source` has the CPU
/// oracle's levels and audit-valid parents.
fn assert_oracle_correct(
    g: &Csr,
    what: &str,
    source: VertexId,
    levels: &[Option<u32>],
    parents: &[Option<VertexId>],
) {
    assert!(levels == cpu_levels(g, source), "{what}: levels differ from the oracle");
    if let Err(e) = audit(g, source, levels, parents) {
        panic!("{what}: parents fail the audit: {e}");
    }
}

/// The level-replay graphs: Kronecker and R-MAT at scale 11, both of
/// which switch to bottom-up with the hub cache filled.
fn replay_graphs() -> [(&'static str, Csr); 2] {
    [("kron11", kronecker(11, 8, 5)), ("rmat11", rmat(11, 8, 7))]
}

/// With no in-driver relaunches every injected kernel fault escalates to
/// a checkpoint replay of the whole level, and the replayed level must
/// read the checkpoint's hub table, not the failed attempt's table of
/// next-level hubs: a seeded sweep must come back oracle-correct with
/// audit-valid parents.
#[test]
fn level_replay_recovers_when_in_driver_retry_is_disabled() {
    for (name, g) in replay_graphs() {
        for seed in 1..=12 {
            let cfg = EnterpriseConfig {
                faults: Some(runtime_faults(seed, 0.10)),
                recovery: RecoveryPolicy { max_level_retries: 64, ..RecoveryPolicy::default() },
                ..EnterpriseConfig::default()
            };
            let mut e = Enterprise::new(cfg, &g);
            e.set_launch_retries(0);
            let what = format!("{name} fault seed {seed}");
            let r = e.try_bfs(1).unwrap_or_else(|err| panic!("{what}: {err}"));
            assert_oracle_correct(&g, &what, 1, &r.levels, &r.parents);
            assert!(r.recovery.faults.kernel_faults > 0, "{what}: no kernel fault fired");
            assert!(r.recovery.levels_replayed > 0, "{what}: no level was replayed");
            assert_eq!(r.recovery.faults.kernel_retries, 0, "{what}");
        }
    }
}

/// Level replay inside a batch: a 1-D x2 fleet with relaunches off serves
/// eight sources under kernel faults, on the sequential and the pipelined
/// plane, over four fault seeds, and every source it completes is
/// oracle-correct.
#[test]
fn batch_level_replay_is_oracle_correct_on_both_planes() {
    let planes = [("on", BatchPolicy::on()), ("pipelined4", BatchPolicy::pipelined(4))];
    for (name, g) in replay_graphs() {
        let n = g.vertex_count() as u32;
        let sources: Vec<BatchSource> =
            (0..8u32).map(|i| BatchSource::new((i * 263 + 1) % n)).collect();
        for ((mode, policy), seed) in planes.iter().flat_map(|p| (1..=4).map(move |s| (p, s))) {
            let cfg = MultiGpuConfig {
                faults: Some(FaultSpec { kernel_fault_rate: 0.05, ..FaultSpec::none(seed) }),
                ..MultiGpuConfig::k40s(2)
            };
            let mut sys = Fleet::new(cfg, &g);
            sys.set_launch_retries(0);
            let report = sys.batch(&sources, policy);
            let (mut completed, mut replayed) = (0, 0);
            for run in &report.runs {
                if let Some(r) = &run.result {
                    let what = format!("{name} {mode} fault seed {seed} source {}", run.source);
                    assert_oracle_correct(&g, &what, run.source, &r.levels, &r.parents);
                    completed += 1;
                    replayed += r.recovery.levels_replayed;
                }
            }
            let what = format!("{name} {mode} fault seed {seed}");
            assert!(completed > 0 && replayed > 0, "{what}: {completed} completed, {replayed} replays");
        }
    }
}

#[test]
fn multi_gpu_recovers_and_reproduces_under_faults() {
    let g = kronecker(10, 8, 5);
    for gpus in [2, 4] {
        let cfg = MultiGpuConfig {
            faults: Some(runtime_faults(0xBEEF ^ gpus as u64, 0.20)),
            ..MultiGpuConfig::k40s(gpus)
        };
        let mut sys = MultiGpuEnterprise::new(cfg, &g);
        let r = sys.try_bfs(3).unwrap_or_else(|e| panic!("{gpus} GPUs: {e}"));
        assert_eq!(r.levels, cpu_levels(&g, 3), "{gpus} GPUs");
        let stats = &r.recovery.faults;
        assert!(
            stats.exchanges_dropped + stats.exchanges_corrupted > 0,
            "{gpus} GPUs: no exchange fault fired at a 20% rate"
        );
        assert!(r.recovery.exchange_retries > 0, "{gpus} GPUs: drops were not retried");
        assert!(r.recovery.backoff_ms > 0.0, "{gpus} GPUs: retries paid no backoff");

        let r2 = sys.try_bfs(3).expect("second run");
        assert_eq!(r.levels, r2.levels, "{gpus} GPUs");
        assert_eq!(r.time_ms, r2.time_ms, "{gpus} GPUs: time not reproducible");
        assert_eq!(r.recovery, r2.recovery, "{gpus} GPUs: recovery not reproducible");
    }
}

#[test]
fn grid_2d_recovers_and_reproduces_under_faults() {
    let g = kronecker(10, 8, 9);
    let cfg = Grid2DConfig {
        faults: Some(runtime_faults(0x2D, 0.20)),
        ..Grid2DConfig::k40s(2, 2)
    };
    let mut sys = MultiGpu2DEnterprise::new(cfg, &g);
    let r = sys.try_bfs(0).expect("2x2 grid recovers");
    assert_eq!(r.levels, cpu_levels(&g, 0));
    assert!(r.recovery.faults.total_faults() > 0, "no fault fired at a 20% rate");

    let r2 = sys.try_bfs(0).expect("second run");
    assert_eq!(r.levels, r2.levels);
    assert_eq!(r.time_ms, r2.time_ms, "time not reproducible");
    assert_eq!(r.recovery, r2.recovery, "recovery not reproducible");
}

#[test]
fn zero_rate_plan_is_a_strict_noop_single_gpu() {
    let g = kronecker(10, 16, 11);
    let mut base = Enterprise::new(EnterpriseConfig::default(), &g);
    let rb = base.bfs(17);
    for spec in [FaultSpec::none(99), FaultSpec::uniform(99, 0.0)] {
        let cfg = EnterpriseConfig { faults: Some(spec), ..EnterpriseConfig::default() };
        let mut e = Enterprise::new(cfg, &g);
        let r = e.bfs(17);
        assert_eq!(rb.levels, r.levels);
        assert_eq!(rb.parents, r.parents);
        assert_eq!(rb.time_ms, r.time_ms, "zero-rate plan changed simulated time");
        assert_eq!(rb.report.kernels, r.report.kernels);
        assert_eq!(rb.report.warp_instructions, r.report.warp_instructions);
        assert_eq!(rb.report.gld_transactions, r.report.gld_transactions);
        assert_eq!(r.recovery, Default::default(), "zero-rate plan recorded recovery");
    }
}

/// A zero-rate plan draws nothing on any multi-device shape, router off
/// or on: every exchange runs through the router either way, so this is
/// what shows a grid's serialized wire draws no fault at zero rates. The
/// results match a fleet with no plan down to every device's kernel
/// records and, on the serving path, a pipelined batch's lane and batch
/// times.
#[test]
fn zero_rate_plan_is_a_strict_noop_multi_gpu() {
    let g = kronecker(10, 8, 5);
    for route in [RoutePolicy::disabled(), RoutePolicy::on()] {
        zero_rate_noop(MultiGpuConfig { route, ..MultiGpuConfig::k40s(2) }, &g, "1-D x2");
        zero_rate_noop(MultiGpuConfig { route, ..MultiGpuConfig::k40s(4) }, &g, "1-D x4");
        zero_rate_noop(Grid2DConfig { route, ..Grid2DConfig::k40s(2, 2) }, &g, "2x2 grid");
    }

    let sources: Vec<BatchSource> =
        [3, 17, 100, 255, 511, 600, 800, 1000].map(BatchSource::new).to_vec();
    let clean = MultiGpuConfig::k40s(4);
    let armed = MultiGpuConfig { faults: Some(FaultSpec::none(1)), ..clean.clone() };
    let batch = |cfg| Fleet::new(cfg, &g).batch(&sources, &BatchPolicy::pipelined(4));
    let (rb, r) = (batch(clean), batch(armed));
    assert_eq!((rb.completed(), r.completed()), (8, 8), "pipelined batch");
    assert_eq!(rb.batch_ms.to_bits(), r.batch_ms.to_bits(), "pipelined batch_ms");
    for (a, b) in rb.runs.iter().zip(&r.runs) {
        let tag = format!("pipelined source {}", a.source);
        assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits(), "{tag}: lane time");
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(a.levels, b.levels, "{tag}");
        assert_eq!(a.parents, b.parents, "{tag}");
    }
}

fn zero_rate_noop<S: Into<Shape> + Clone>(shape: FleetConfig<S>, g: &Csr, tag: &str) {
    let tag = format!("{tag}, router {}", if shape.route.enabled { "on" } else { "off" });
    let cfg = FleetConfig { faults: Some(FaultSpec::none(1)), ..shape.clone() };
    let (mut clean, mut armed) = (Fleet::new(shape, g), Fleet::new(cfg, g));
    let (rb, r) = (clean.bfs(3), armed.bfs(3));
    assert_eq!(rb.levels, r.levels, "{tag}");
    assert_eq!(rb.parents, r.parents, "{tag}");
    assert_eq!(rb.time_ms.to_bits(), r.time_ms.to_bits(), "{tag}: zero-rate plan changed time");
    assert_eq!(rb.communication_bytes, r.communication_bytes, "{tag}");
    assert_eq!(rb.recovery, r.recovery, "{tag}");
    assert_eq!(r.recovery, Default::default(), "{tag}");
    assert_eq!(clean.alive_devices(), armed.alive_devices(), "{tag}");
    let records = |fleet: &Fleet, d: usize| -> Vec<(String, u64)> {
        fleet.device(d).records().iter().map(|k| (k.name.clone(), k.time_ms.to_bits())).collect()
    };
    for d in 0..clean.alive_devices() {
        assert_eq!(records(&clean, d), records(&armed, d), "{tag}: device {d} kernel records");
    }
}

#[test]
fn device_oom_on_upload_degrades_to_cpu_baseline() {
    let g = kronecker(10, 16, 11);
    let tiny = DeviceConfig { global_mem_bytes: 64 * 1024, ..DeviceConfig::k40_repro() };
    let cfg = EnterpriseConfig { device: tiny, ..EnterpriseConfig::default() };
    assert!(Enterprise::try_new(cfg.clone(), &g).is_err(), "64 KB must not fit the graph");
    let r = Enterprise::run_resilient(cfg, &g, 17);
    assert!(r.recovery.cpu_fallback, "fallback not recorded");
    assert_eq!(r.levels, cpu_levels(&g, 17), "CPU fallback diverged from oracle");
    assert_eq!(r.parents[17], Some(17));
}

/// Devices too small for their partitions fail fleet construction with a
/// typed error on every multi-device shape, never a panic.
#[test]
fn fleet_oom_at_setup_is_a_typed_error() {
    let g = kronecker(10, 16, 11);
    let tiny = DeviceConfig { global_mem_bytes: 64 * 1024, ..DeviceConfig::k40_repro() };
    let one_d = MultiGpuConfig { device: tiny.clone(), ..MultiGpuConfig::k40s(4) };
    assert!(matches!(Fleet::try_new(one_d, &g), Err(BfsError::Device(_))), "1-D x4");
    let grid = Grid2DConfig { device: tiny, ..Grid2DConfig::k40s(2, 2) };
    assert!(matches!(Fleet::try_new(grid, &g), Err(BfsError::Device(_))), "2x2 grid");
}

/// A graph with fewer vertices than the shape has devices fails fleet
/// construction with a typed error naming both counts on every shape, an
/// empty graph on the single device included, never a panic.
#[test]
fn too_few_vertices_is_a_typed_error_on_every_shape() {
    let empty = GraphBuilder::new_undirected(0).build();
    let mut three = GraphBuilder::new_undirected(3);
    three.extend_edges([(0, 1), (1, 2)]);
    let three = three.build();
    let too_few = |r: Result<Fleet, BfsError>, vertices: usize, devices: usize| match r {
        Err(BfsError::TooFewVertices { vertices: v, devices: d }) => (v, d) == (vertices, devices),
        _ => false,
    };
    assert!(too_few(Fleet::try_new(EnterpriseConfig::default(), &empty), 0, 1), "single");
    assert!(too_few(Fleet::try_new(MultiGpuConfig::k40s(4), &three), 3, 4), "1-D x4");
    assert!(too_few(Fleet::try_new(Grid2DConfig::k40s(2, 2), &three), 3, 4), "2x2 grid");
    let err = Enterprise::try_new(EnterpriseConfig::default(), &empty).err();
    assert!(matches!(err, Some(BfsError::TooFewVertices { .. })), "{err:?}");
}

#[test]
fn injected_alloc_fault_at_setup_degrades_to_cpu_baseline() {
    let g = kronecker(9, 8, 3);
    let cfg = EnterpriseConfig {
        // Every allocation fails: setup cannot survive, so run_resilient
        // must route around the device entirely.
        faults: Some(FaultSpec { alloc_fail_rate: 1.0, ..FaultSpec::none(5) }),
        ..EnterpriseConfig::default()
    };
    let r = Enterprise::run_resilient(cfg, &g, 0);
    assert!(r.recovery.cpu_fallback);
    assert_eq!(r.levels, cpu_levels(&g, 0));
}

#[test]
fn validation_gate_passes_fault_free_runs_through() {
    let g = kronecker(9, 8, 3);
    let cfg = EnterpriseConfig {
        verify: VerifyPolicy { end_of_run: true, ..VerifyPolicy::disabled() },
        ..EnterpriseConfig::default()
    };
    let mut e = Enterprise::new(cfg, &g);
    let r = e.try_bfs(4).expect("clean run validates");
    assert_eq!(r.recovery.validation_replays, 0);
    assert_eq!(r.levels, cpu_levels(&g, 4));
}
