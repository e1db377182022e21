//! Quick shape check used during development (not a paper figure):
//! runs the Figure 13 ablation plus the comparators on one Kronecker
//! graph, validates every traversal against the CPU oracle (the binary
//! aborts loudly on an incorrect result), and prints TEPS. The full
//! regenerators live in the sibling binaries.

use baselines::{
    AtomicQueueBfs, B40cLikeBfs, GraphBigLikeBfs, GunrockLikeBfs, MapGraphLikeBfs, StatusArrayBfs,
};
use bench::{aggregate_teps, fmt_teps, pick_sources, Table};
use enterprise::validate::{audit, cpu_levels, validate};
use enterprise::{EccMode, Enterprise, EnterpriseConfig, FaultSpec, VerifyPolicy};
use enterprise_graph::gen::kronecker;
use gpu_sim::DeviceConfig;

fn main() {
    let g = kronecker(15, 32, bench::run_seed());
    let sources = pick_sources(&g, 4, 1);
    println!("graph: {} vertices, {} edges", g.vertex_count(), g.edge_count());

    let mut table = Table::new(vec!["system", "teps", "ms/run"]);
    let mut show = |name: &str, runs: Vec<(u64, f64)>| {
        let teps = aggregate_teps(&runs);
        let ms = runs.iter().map(|r| r.1).sum::<f64>() / runs.len() as f64;
        table.row(vec![name.to_string(), fmt_teps(teps), format!("{ms:.3}")]);
    };
    // End-of-run gates: Graph 500-style validation for the Enterprise
    // drivers, level-oracle comparison for the baselines.
    let checked = |r: enterprise::BfsResult, g: &enterprise_graph::Csr| -> (u64, f64) {
        validate(g, &r).unwrap_or_else(|e| panic!("validation failed (source {}): {e}", r.source));
        (r.traversed_edges, r.time_ms)
    };
    let oracle_checked = |r: baselines::BaselineResult,
                          g: &enterprise_graph::Csr,
                          s: u32,
                          name: &str|
     -> (u64, f64) {
        assert_eq!(r.levels, cpu_levels(g, s), "{name} diverged from the CPU oracle (source {s})");
        (r.traversed_edges, r.time_ms)
    };

    let mut bl = StatusArrayBfs::new(DeviceConfig::k40_repro(), &g);
    show("BL", sources.iter().map(|&s| oracle_checked(bl.bfs(s), &g, s, "BL")).collect());

    let mut ts = Enterprise::new(EnterpriseConfig::ts_only(), &g);
    show("TS", sources.iter().map(|&s| checked(ts.bfs(s), &g)).collect());

    let mut wb = Enterprise::new(EnterpriseConfig::ts_wb(), &g);
    show("TS+WB", sources.iter().map(|&s| checked(wb.bfs(s), &g)).collect());

    let mut full = Enterprise::new(EnterpriseConfig::default(), &g);
    show("TS+WB+HC", sources.iter().map(|&s| checked(full.bfs(s), &g)).collect());

    let mut b40c = B40cLikeBfs::new(DeviceConfig::k40_repro(), &g);
    show("b40c-like", sources.iter().map(|&s| oracle_checked(b40c.bfs(s), &g, s, "b40c-like")).collect());

    let mut gr = GunrockLikeBfs::new(DeviceConfig::k40_repro(), &g);
    show("gunrock-like", sources.iter().map(|&s| oracle_checked(gr.bfs(s), &g, s, "gunrock-like")).collect());

    let mut mg = MapGraphLikeBfs::new(DeviceConfig::k40_repro(), &g);
    show("mapgraph-like", sources.iter().map(|&s| oracle_checked(mg.bfs(s), &g, s, "mapgraph-like")).collect());

    let mut gb = GraphBigLikeBfs::new(DeviceConfig::k40_repro(), &g);
    show("graphbig-like", sources.iter().map(|&s| oracle_checked(gb.bfs(s), &g, s, "graphbig-like")).collect());

    let mut aq = AtomicQueueBfs::new(DeviceConfig::k40_repro(), &g);
    show("atomic-queue", sources.iter().map(|&s| oracle_checked(aq.bfs(s), &g, s, "atomic-queue")).collect());

    // Fault-plane smoke: same searches under a 5% transient kernel-fault
    // rate with in-driver relaunches off, so every injected kernel fault
    // replays its level from the level checkpoint, must still validate;
    // the driver's recovery count proves replay ran. (Allocation faults
    // are exercised by the test suite — here setup must succeed so the
    // GPU path itself is what's smoked.)
    let faulty_cfg = EnterpriseConfig {
        faults: Some(FaultSpec {
            alloc_fail_rate: 0.0,
            ..FaultSpec::uniform(bench::run_seed(), 0.05)
        }),
        ..EnterpriseConfig::default()
    };
    let mut faulty = Enterprise::new(faulty_cfg, &g);
    faulty.set_launch_retries(0);
    let mut fault_runs = Vec::new();
    let mut recoveries = 0u64;
    let mut faults = 0u64;
    let mut relaunches = 0u64;
    for &s in &sources {
        let r = faulty.bfs(s);
        validate(&g, &r)
            .unwrap_or_else(|e| panic!("faulted run failed validation (source {s}): {e}"));
        recoveries += u64::from(r.recovery.total_recoveries());
        relaunches += r.recovery.faults.kernel_retries;
        faults += r.recovery.faults.total_faults();
        fault_runs.push((r.traversed_edges, r.time_ms));
    }
    show("TS+WB+HC @5% faults", fault_runs);
    assert!(recoveries > 0, "kernel faults with relaunches off must replay levels");

    println!("{}", table.render());
    println!(
        "fault plane: {faults} injected faults, {relaunches} in-driver relaunches, \
         {recoveries} driver recovery actions, all runs validated"
    );

    // Elastic device-loss smoke: a 4-GPU traversal that permanently
    // loses a device mid-run must finish on the survivors with depths
    // identical to the fault-free run, and a no-fault configuration must
    // evict nothing.
    {
        use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
        let mg = kronecker(12, 16, bench::run_seed() ^ 0x2D);
        let mut clean = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &mg);
        let clean_r = clean.bfs(0);
        assert!(
            clean_r.recovery.devices_lost.is_empty(),
            "no-fault multi-GPU run must not evict any device"
        );
        assert_eq!(clean.alive_devices(), 4, "no-fault run must keep all devices alive");
        assert_eq!(clean_r.levels, cpu_levels(&mg, 0));

        let mut outcome = None;
        for seed in 0..200u64 {
            let cfg = MultiGpuConfig {
                faults: Some(FaultSpec {
                    device_loss_rate: 0.004,
                    ..FaultSpec::uniform(seed, 0.0)
                }),
                ..MultiGpuConfig::k40s(4)
            };
            let mut sys = MultiGpuEnterprise::new(cfg, &mg);
            let Ok(r) = sys.try_bfs(0) else { continue };
            if r.recovery.devices_lost.is_empty() {
                continue;
            }
            assert_eq!(r.levels, clean_r.levels, "degraded run diverged (seed {seed})");
            assert!(!r.recovery.cpu_fallback, "an absorbed loss must not fall back to CPU");
            outcome = Some((
                r.recovery.devices_lost.clone(),
                r.recovery.levels_replayed,
                r.recovery.repartition_ms,
                sys.alive_devices(),
            ));
            break;
        }
        let (lost, replayed, repart_ms, alive) =
            outcome.expect("no seed in 0..200 produced an absorbable device loss");
        println!(
            "elastic: lost devices {lost:?}, {replayed} levels replayed, \
             {repart_ms:.3} ms repartitioning, finished on {alive} GPUs, result validated"
        );

        // The grid shape on the same graph: a clean 2x2 traversal, then
        // one whose serialized exchanges drop and corrupt messages under
        // the armed router. Both must match the oracle with valid
        // parents, and the faulty one must have retried its exchanges
        // (the first of a few fault seeds that does; every run checked).
        // An idle (zero-rate) plan must not change results, simulated
        // time or wire traffic.
        use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
        let oracle = cpu_levels(&mg, 0);
        let grid_checked = |r: &enterprise::multi_gpu::MultiBfsResult, tag: &str| {
            assert_eq!(r.levels, oracle, "{tag} 2x2 grid diverged from the CPU oracle");
            enterprise::audit(&mg, 0, &r.levels, &r.parents)
                .unwrap_or_else(|e| panic!("{tag} 2x2 grid parents failed the audit: {e}"));
        };
        let grid = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &mg).bfs(0);
        grid_checked(&grid, "clean");
        let idle_cfg = Grid2DConfig {
            faults: Some(FaultSpec::uniform(bench::run_seed(), 0.0)),
            ..Grid2DConfig::k40s(2, 2)
        };
        let idle = MultiGpu2DEnterprise::new(idle_cfg, &mg).bfs(0);
        assert_eq!(idle.levels, grid.levels, "idle plan must not change 2x2 results");
        assert_eq!(idle.parents, grid.parents, "idle plan must not change 2x2 parents");
        assert_eq!(idle.time_ms, grid.time_ms, "idle plan must not perturb 2x2 time");
        assert_eq!(
            idle.communication_bytes, grid.communication_bytes,
            "idle plan must not perturb 2x2 wire traffic"
        );
        let wire = (0..8u64)
            .map(|k| {
                let cfg = Grid2DConfig {
                    faults: Some(FaultSpec {
                        exchange_drop_rate: 0.2,
                        exchange_corrupt_rate: 0.2,
                        ..FaultSpec::none(bench::run_seed().wrapping_add(k))
                    }),
                    route: enterprise::RoutePolicy::on(),
                    ..Grid2DConfig::k40s(2, 2)
                };
                let r = MultiGpu2DEnterprise::new(cfg, &mg).bfs(0);
                grid_checked(&r, "faulty-wire");
                r
            })
            .find(|r| r.recovery.exchange_retries > 0 && !r.recovery.cpu_fallback)
            .expect("no fault seed in 8 made the router retry and absorb a wire fault");
        println!(
            "grid: 2x2 clean, idle-plan and faulty-wire runs validated, {} exchange retries, \
             {:.3} ms backoff",
            wire.recovery.exchange_retries, wire.recovery.backoff_ms
        );
    }

    // Sanitizer smoke: the strict no-op property, asserted once per run.
    // A sanitized traversal must be bit-identical to an unsanitized one
    // (levels, counters, simulated time) and must report zero findings.
    let sg = kronecker(11, 8, bench::run_seed() ^ 0x5A17);
    let plain = Enterprise::new(
        EnterpriseConfig { sanitize: false, ..EnterpriseConfig::default() },
        &sg,
    )
    .bfs(0);
    let mut sanitized = Enterprise::new(
        EnterpriseConfig { sanitize: true, ..EnterpriseConfig::default() },
        &sg,
    );
    let watched = sanitized.bfs(0);
    assert_eq!(plain.levels, watched.levels, "sanitizer must not change results");
    assert_eq!(plain.time_ms, watched.time_ms, "sanitizer must not perturb simulated time");
    assert_eq!(
        format!("{:?}", plain.report),
        format!("{:?}", watched.report),
        "sanitizer must not perturb counters"
    );
    let san = sanitized.device().sanitizer().expect("sanitizer was enabled");
    assert_eq!(san.total_findings(), 0, "clean driver must produce zero findings");
    assert!(san.checked_accesses() > 0, "sanitizer must actually have checked accesses");
    println!(
        "sanitizer: strict no-op verified ({} accesses checked, 0 findings)",
        san.checked_accesses()
    );

    // ECC/SDC smoke: the fault plane's own strict no-op, asserted once
    // per run. ECC off + an all-zero-rate plan + full verification must
    // be bit-identical to no plane at all (levels, parents, simulated
    // time) with zero verifier findings — host-side checks read device
    // memory for free. Then the plane is armed for real: a corrupted
    // traversal must self-heal to the oracle depths.
    {
        let baseline = Enterprise::new(EnterpriseConfig::default(), &sg).bfs(0);
        let gated = Enterprise::new(
            EnterpriseConfig {
                faults: Some(FaultSpec::uniform(bench::run_seed(), 0.0)),
                ecc: EccMode::Off,
                verify: VerifyPolicy::full(),
                ..EnterpriseConfig::default()
            },
            &sg,
        )
        .bfs(0);
        assert_eq!(gated.levels, baseline.levels, "idle SDC plane must not change results");
        assert_eq!(gated.parents, baseline.parents, "idle SDC plane must not change parents");
        assert_eq!(gated.time_ms, baseline.time_ms, "idle SDC plane must not perturb time");
        assert_eq!(gated.recovery.sdc_detected, 0, "clean run must produce zero findings");
        assert_eq!(gated.recovery.validation_replays, 0, "clean run must not replay");

        let mut corrupted = Enterprise::try_new(
            EnterpriseConfig {
                faults: Some(FaultSpec {
                    bitflip_rate: 0.2,
                    ..FaultSpec::uniform(bench::run_seed() ^ 0xECC, 0.0)
                }),
                verify: VerifyPolicy::full(),
                sanitize: false,
                ..EnterpriseConfig::default()
            },
            &sg,
        )
        .expect("fault-free construction");
        let healed = corrupted.try_bfs(0).expect("corrupted run must self-heal");
        assert_eq!(healed.levels, baseline.levels, "healed run diverged from fault-free depths");
        println!(
            "sdc: strict no-op verified; armed plane injected {} flips, detected {}, \
             healed {} in place, result exact",
            healed.recovery.faults.sdc_injected,
            healed.recovery.sdc_detected,
            healed.recovery.sdc_repaired,
        );
    }

    // Straggler smoke: the performance-fault plane's strict no-op, then
    // an armed single-device slowdown that the adaptive rebalancer must
    // detect and mitigate. Zero rates + an armed detector on a clean
    // fleet must be bit-identical to no plane at all (depths, parents,
    // simulated time, wire traffic); a 4x straggler must be detected and
    // rebalanced away with depths identical to the clean run —
    // rebalancing shifts timing, never results.
    {
        use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
        use enterprise::RebalancePolicy;
        let sg = kronecker(12, 16, bench::run_seed() ^ 0x57A6);
        let mut plain = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &sg);
        let base = plain.bfs(0);
        let idle_cfg = MultiGpuConfig {
            faults: Some(FaultSpec::uniform(bench::run_seed(), 0.0)),
            rebalance: RebalancePolicy::on(),
            ..MultiGpuConfig::k40s(4)
        };
        let idle = MultiGpuEnterprise::new(idle_cfg, &sg).bfs(0);
        assert_eq!(idle.levels, base.levels, "idle straggler plane must not change results");
        assert_eq!(idle.parents, base.parents, "idle straggler plane must not change parents");
        assert_eq!(idle.time_ms, base.time_ms, "idle straggler plane must not perturb time");
        assert_eq!(
            idle.communication_bytes, base.communication_bytes,
            "idle straggler plane must not perturb wire traffic"
        );
        assert_eq!(idle.recovery.faults.stragglers_armed, 0);
        assert_eq!(idle.recovery.stragglers_detected, 0, "clean fleet must trigger no detection");
        assert_eq!(idle.recovery.rebalances, 0, "clean fleet must trigger no rebalance");

        let mut outcome = None;
        for seed in 0..200u64 {
            let cfg = MultiGpuConfig {
                faults: Some(FaultSpec {
                    straggler_rate: 0.3,
                    straggler_slowdown: 4.0,
                    ..FaultSpec::uniform(seed, 0.0)
                }),
                rebalance: RebalancePolicy::on(),
                ..MultiGpuConfig::k40s(4)
            };
            let r = MultiGpuEnterprise::new(cfg, &sg).bfs(0);
            if r.recovery.faults.stragglers_armed == 0 || r.recovery.rebalances == 0 {
                continue;
            }
            assert_eq!(r.levels, base.levels, "mitigated straggler run diverged (seed {seed})");
            assert!(r.recovery.stragglers_detected >= 1, "rebalance without a detection");
            assert!(r.recovery.rebalance_ms > 0.0, "boundary moves must cost simulated time");
            outcome = Some((
                r.recovery.faults.stragglers_armed,
                r.recovery.stragglers_detected,
                r.recovery.rebalances,
                r.recovery.rebalance_ms,
            ));
            break;
        }
        let (armed, detected, rebalances, rebalance_ms) =
            outcome.expect("no seed in 0..200 armed a straggler the detector acted on");
        println!(
            "straggler: strict no-op verified; {armed} device(s) slowed 4x, \
             {detected} detections, {rebalances} rebalances ({rebalance_ms:.3} ms \
             of boundary moves), depths identical to the clean run"
        );
    }

    // Link smoke: the per-link fault plane's strict no-op, then an armed
    // down-link plan the router must detour around. Zero link rates with
    // the router fully armed must be bit-identical to no plane at all
    // (depths, parents, simulated time, wire traffic) with every routing
    // counter at zero; a plan that severs links must finish with oracle
    // depths via at least one relay or host bounce (DESIGN.md §5h).
    {
        use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
        use enterprise::{RoutePolicy, CHAOS_LINK_FLAP_PERIOD_LEVELS};
        let sg = kronecker(12, 16, bench::run_seed() ^ 0x117C);
        let base = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &sg).bfs(0);
        let idle_cfg = MultiGpuConfig {
            faults: Some(FaultSpec::uniform(bench::run_seed(), 0.0)),
            route: RoutePolicy::on(),
            ..MultiGpuConfig::k40s(4)
        };
        let idle = MultiGpuEnterprise::new(idle_cfg, &sg).bfs(0);
        assert_eq!(idle.levels, base.levels, "idle link plane must not change results");
        assert_eq!(idle.parents, base.parents, "idle link plane must not change parents");
        assert_eq!(idle.time_ms, base.time_ms, "idle link plane must not perturb time");
        assert_eq!(
            idle.communication_bytes, base.communication_bytes,
            "idle link plane must not perturb wire traffic"
        );
        assert_eq!(idle.recovery.link_retries, 0, "healthy links must need no probe retries");
        assert_eq!(idle.recovery.link_reroutes, 0, "healthy links must need no relays");
        assert_eq!(idle.recovery.host_bounces, 0, "healthy links must need no host bounces");
        assert!(idle.recovery.link_isolated.is_empty(), "healthy links must isolate nothing");

        let mut outcome = None;
        for seed in 0..200u64 {
            let cfg = MultiGpuConfig {
                faults: Some(FaultSpec {
                    link_down_rate: 0.25,
                    link_flap_rate: 0.2,
                    link_flap_period_levels: CHAOS_LINK_FLAP_PERIOD_LEVELS,
                    ..FaultSpec::none(seed)
                }),
                route: RoutePolicy::on(),
                ..MultiGpuConfig::k40s(4)
            };
            let mut sys = MultiGpuEnterprise::new(cfg, &sg);
            let Ok(r) = sys.try_bfs(0) else { continue };
            if r.recovery.link_reroutes + r.recovery.host_bounces == 0 {
                continue;
            }
            assert_eq!(r.levels, base.levels, "routed run diverged from clean depths (seed {seed})");
            assert!(!r.recovery.cpu_fallback, "a routed detour must not fall back to CPU");
            assert!(r.recovery.faults.links_down > 0, "detours without a downed link");
            outcome = Some((
                r.recovery.faults.links_down,
                r.recovery.link_retries,
                r.recovery.link_reroutes,
                r.recovery.host_bounces,
                r.recovery.link_isolated.len(),
            ));
            break;
        }
        let (downed, retries, reroutes, bounces, isolated) =
            outcome.expect("no seed in 0..200 made the router take a detour");
        println!(
            "link: strict no-op verified; {downed} link(s) down, {retries} probe retries, \
             {reroutes} relays, {bounces} host bounces, {isolated} isolation migrations, \
             depths identical to the clean run"
        );
    }

    // Batch smoke: the serving plane on a fault-free fleet, then an
    // armed compound-chaos batch whose accounting must close. Fault-free
    // and without persistence, `BatchPolicy::on()` is plain sequential
    // execution — identical results and an identical simulated clock; the
    // chaos batch must give every submitted source exactly one run with
    // every ok result oracle-correct (DESIGN.md §5i).
    {
        use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
        use enterprise::{BatchPolicy, BatchSource, RebalancePolicy, RoutePolicy};
        let sg = kronecker(12, 16, bench::run_seed() ^ 0xBA7C);
        let sources = pick_sources(&sg, 4, bench::run_seed() ^ 0xBA7C);
        let queue: Vec<BatchSource> = sources.iter().map(|&s| BatchSource::new(s)).collect();

        let mut seq = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &sg);
        let seq_runs: Vec<_> = sources.iter().map(|&s| seq.bfs(s)).collect();
        let mut batched = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &sg);
        let report = batched.batch(&queue, &BatchPolicy::on());
        assert!(report.accounted(), "fault-free batch must account for every source");
        assert_eq!(report.completed(), sources.len(), "fault-free batch must complete everything");
        for (run, s) in report.runs.iter().zip(&seq_runs) {
            let b = run.result.as_ref().expect("fault-free batch run carries its result");
            assert_eq!(b.levels, s.levels, "fault-free batch must match sequential results");
            assert_eq!(b.parents, s.parents, "fault-free batch must match sequential parents");
            assert_eq!(b.time_ms, s.time_ms, "fault-free batch must not perturb simulated time");
        }

        let chaos_cfg = MultiGpuConfig {
            faults: Some(FaultSpec {
                bitflip_rate: 0.05,
                straggler_rate: 0.3,
                straggler_slowdown: 4.0,
                link_down_rate: 0.10,
                ..FaultSpec::none(bench::run_seed() ^ 0xBA7C)
            }),
            verify: VerifyPolicy::full(),
            sanitize: false,
            rebalance: RebalancePolicy::on(),
            route: RoutePolicy::on(),
            ..MultiGpuConfig::k40s(4)
        };
        let mut chaos = MultiGpuEnterprise::new(chaos_cfg, &sg);
        let armed = chaos.batch(&queue, &BatchPolicy::on());
        assert!(
            armed.accounted(),
            "armed batch lost a source: {} runs for {} sources",
            armed.runs.len(),
            armed.sources
        );
        for run in &armed.runs {
            if let Some(r) = run.result.as_ref() {
                assert_eq!(
                    r.levels,
                    cpu_levels(&sg, run.source),
                    "batch source {} completed with wrong depths",
                    run.source
                );
            }
        }
        println!(
            "batch: fault-free identity verified; armed accounting {} completed + {} hedge wins + \
             {} poisoned + {} shed == {} sources ({} retries, {} hedges)",
            armed.completed(),
            armed.hedge_wins(),
            armed.poisoned(),
            armed.shed(),
            armed.sources,
            armed.retries,
            armed.hedges
        );

        // A pinned batch under device loss and allocation faults with the
        // verifier off: a loss splice whose rebuild fails must change
        // nothing (DESIGN.md §5d), so every source that completes on the
        // browned-out fleet is oracle-correct with no verifier to repair
        // it.
        let lossy_cfg = MultiGpuConfig {
            faults: Some(FaultSpec {
                device_loss_rate: 0.01,
                alloc_fail_rate: 0.05,
                ..FaultSpec::none(bench::run_seed())
            }),
            sanitize: false,
            ..MultiGpuConfig::k40s(4)
        };
        let lossy = MultiGpuEnterprise::new(lossy_cfg, &sg).batch(&queue, &BatchPolicy::on());
        assert!(lossy.accounted(), "lossy batch lost a source");
        let mut lost = 0;
        for run in &lossy.runs {
            if let Some(r) = run.result.as_ref() {
                assert_eq!(
                    r.levels,
                    cpu_levels(&sg, run.source),
                    "lossy batch source {} completed with wrong depths",
                    run.source
                );
                audit(&sg, run.source, &r.levels, &r.parents).unwrap_or_else(|e| {
                    panic!("lossy batch source {} failed its audit: {e}", run.source)
                });
                lost += r.recovery.devices_lost.len();
            }
        }
        println!(
            "batch: pinned loss+alloc batch, verifier off: {} of {} sources completed \
             oracle-correct, {lost} devices lost",
            lossy.completed(),
            lossy.sources
        );
    }
}
