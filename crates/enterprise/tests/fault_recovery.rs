//! Fault-injection recovery properties: random power-law graphs crossed
//! with random fault seeds (rates up to 20%) must traverse correctly,
//! report recovery activity, and be bit-reproducible; a zero-rate plan
//! must be a strict no-op; device OOM must degrade to the CPU baseline
//! (or, at fleet construction, surface as a typed error).

use enterprise::multi_gpu::{Fleet, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{BfsError, Enterprise, EnterpriseConfig, FaultSpec, RecoveryPolicy, VerifyPolicy};
use enterprise_graph::gen::{kronecker, social, SocialParams};
use enterprise_graph::Csr;
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

#[test]
fn level_replay_recovers_when_in_driver_retry_is_disabled() {
    let g = kronecker(10, 8, 21);
    let cfg = EnterpriseConfig {
        faults: Some(runtime_faults(7, 0.08)),
        recovery: RecoveryPolicy { max_level_retries: 64, ..RecoveryPolicy::default() },
        ..EnterpriseConfig::default()
    };
    let mut e = Enterprise::new(cfg, &g);
    // No in-driver relaunches: every injected kernel fault must escalate
    // to a checkpoint replay of the whole level.
    e.set_launch_retries(0);
    let r = e.try_bfs(3).expect("recovers via level replay");
    assert_eq!(r.levels, cpu_levels(&g, 3));
    assert!(r.recovery.levels_replayed > 0, "faults were injected but no level was replayed");
    assert_eq!(r.recovery.faults.kernel_retries, 0);
    assert!(r.recovery.faults.kernel_faults > 0);
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

#[test]
fn zero_rate_plan_is_a_strict_noop_multi_gpu() {
    let g = kronecker(10, 8, 5);
    let mut base = MultiGpuEnterprise::new(MultiGpuConfig::k40s(2), &g);
    let rb = base.bfs(3);
    let cfg = MultiGpuConfig { faults: Some(FaultSpec::none(1)), ..MultiGpuConfig::k40s(2) };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    let r = sys.bfs(3);
    assert_eq!(rb.levels, r.levels);
    assert_eq!(rb.time_ms, r.time_ms, "zero-rate plan changed simulated time");
    assert_eq!(rb.communication_bytes, r.communication_bytes);
    assert_eq!(r.recovery, Default::default());
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
