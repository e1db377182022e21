//! Straggler fault plane and adaptive rebalancing, end to end.
//!
//! Contract under test (ISSUE 6 / DESIGN.md §5f):
//!
//! - zero performance-fault rates and a disabled [`RebalancePolicy`] are
//!   a **strict no-op**: bit-identical timing, counters and results to a
//!   driver with no fault plane at all;
//! - a fixed seed reproduces the same stragglers, the same detections,
//!   and the same rebalances across fresh instances;
//! - hysteresis plus the cooldown and cap keep the rebalance count
//!   bounded — the detector never thrashes;
//! - under a 4x single-device slowdown on 4 GPUs, `RebalancePolicy::on`
//!   recovers at least half of the simulated TEPS lost versus
//!   mitigation-off over a multi-source workload, with levels identical
//!   to the clean run and a valid parent tree (rebalancing shifts
//!   timing, never results);
//! - rebalanced boundaries *persist* across runs of one instance — the
//!   interconnect cost of moving a slice is paid once and amortized over
//!   every following source, while eviction splices keep being restored
//!   at each run start (device loss stays per-run), and a rebalance
//!   committed after a loss in the same run is restored with it.

use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{FaultSpec, RebalancePolicy, CHAOS_STRAGGLER_SLOWDOWN};
use enterprise_graph::gen::kronecker;
use gpu_sim::FaultPlan;

/// A fault plan that only arms stragglers: per-device probability `rate`
/// of a `slowdown`x multiplier on all charged kernel time.
fn straggler_only(seed: u64, rate: f64, slowdown: f64) -> FaultSpec {
    FaultSpec {
        straggler_rate: rate,
        straggler_slowdown: slowdown,
        ..FaultSpec::uniform(seed, 0.0)
    }
}

/// Devices of a `gpus`-wide fleet that `spec` would arm as stragglers.
/// The straggler decision is drawn once at plan installation from the
/// per-device stream (stream id = device id), so it can be predicted
/// host-side without running a traversal.
fn armed_stragglers(spec: FaultSpec, gpus: usize) -> Vec<usize> {
    (0..gpus)
        .filter(|&d| FaultPlan::for_stream(spec, d as u64).draw_straggler_factor() > 1.0)
        .collect()
}

/// A seed whose straggler-only plan arms exactly one of `gpus` devices.
fn single_straggler_seed(rate: f64, gpus: usize) -> u64 {
    (0..500)
        .find(|&seed| armed_stragglers(straggler_only(seed, rate, 4.0), gpus).len() == 1)
        .expect("no seed in 0..500 arms exactly one straggler")
}

/// The paper's TEPS convention, 64 sources per graph: source `i` is the
/// first vertex at or after `3 + i·(n/64)` with an out-edge.
fn sixty_four_sources(g: &enterprise_graph::Csr) -> Vec<u32> {
    let n = g.vertex_count();
    (0..64)
        .map(|i| {
            let v = (3 + i * (n / 64)..n).find(|&v| g.out_degree(v as u32) > 0);
            v.expect("a vertex with an out-edge") as u32
        })
        .collect()
}

fn assert_parents_valid(g: &enterprise_graph::Csr, r: &MultiBfsResult) {
    for v in 0..g.vertex_count() {
        let Some(level) = r.levels[v] else {
            assert!(r.parents[v].is_none(), "unreached {v} has a parent");
            continue;
        };
        let p = r.parents[v].unwrap_or_else(|| panic!("reached {v} has no parent"));
        if v as u32 == r.source {
            assert_eq!(p, r.source);
            continue;
        }
        assert_eq!(r.levels[p as usize], Some(level - 1), "parent {p} of {v} not one level up");
        assert!(g.out_neighbors(p).contains(&(v as u32)), "no edge {p} -> {v}");
    }
}

/// Zero straggler/link rates with the plane installed, and a disabled
/// rebalance policy, must be indistinguishable from no plane at all:
/// same depths, same simulated time, same wire traffic, zeroed straggler
/// accounting. The policy structs alone must not perturb anything.
#[test]
fn zero_rates_and_disabled_policy_are_a_strict_noop() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;

    let mut plain = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g);
    let base = plain.bfs(source);
    let cfg = MultiGpuConfig {
        faults: Some(straggler_only(11, 0.0, 4.0)),
        rebalance: RebalancePolicy::disabled(),
        ..MultiGpuConfig::k40s(4)
    };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    let r = sys.bfs(source);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.parents, base.parents);
    assert_eq!(r.time_ms, base.time_ms, "1-D zero-rate straggler plane changed timing");
    assert_eq!(r.communication_bytes, base.communication_bytes);
    assert_eq!(r.recovery.faults.stragglers_armed, 0);
    assert_eq!(r.recovery.faults.straggler_slow_us, 0);
    assert_eq!(r.recovery.faults.links_degraded, 0);
    assert_eq!(r.recovery.stragglers_detected, 0);
    assert_eq!(r.recovery.rebalances, 0);
    assert_eq!(r.recovery.rebalance_ms, 0.0);

    // Enabling the mitigation on a balanced, fault-free fleet must also
    // change nothing: the detector watches, sees ratio ~1, never fires.
    let cfg = MultiGpuConfig { rebalance: RebalancePolicy::on(), ..MultiGpuConfig::k40s(4) };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    let r = sys.bfs(source);
    assert_eq!(r.time_ms, base.time_ms, "armed detector on a clean fleet changed timing");
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.recovery.rebalances, 0);

    let mut plain = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
    let base = plain.bfs(source);
    let cfg = Grid2DConfig {
        faults: Some(straggler_only(11, 0.0, 4.0)),
        rebalance: RebalancePolicy::on(),
        ..Grid2DConfig::k40s(2, 2)
    };
    let mut sys = MultiGpu2DEnterprise::new(cfg, &g);
    let r = sys.bfs(source);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.time_ms, base.time_ms, "2-D zero-rate straggler plane changed timing");
    assert_eq!(r.communication_bytes, base.communication_bytes);
    assert_eq!(r.recovery.rebalances, 0);
}

/// The tentpole acceptance criterion: a 4x single-device slowdown on 4
/// GPUs, mitigated, recovers at least 50% of the simulated throughput
/// lost to the straggler — with levels identical to the clean run and a
/// valid parent tree on every variant.
///
/// Measured over a multi-source workload on one instance, the TEPS
/// methodology of the paper's evaluation (64 sources): moving a
/// partition slice over the interconnect costs more than traversing it
/// once on-device, so the detector fires during the first sources and
/// the shifted boundaries pay for themselves across the remaining ones.
///
/// Each device's 4096-vertex slice sits at the 512-thread scan-grid
/// floor (`slice / 16` is 256 threads), so shrinking the straggler's
/// slice cannot shrink its per-level counter scan; only expansion and
/// the per-vertex scan work move with the boundaries.
#[test]
fn rebalance_recovers_half_the_lost_teps_under_a_4x_straggler() {
    let g = kronecker(14, 8, 5);
    let sources = sixty_four_sources(&g);
    let seed = single_straggler_seed(0.3, 4);
    let spec = straggler_only(seed, 0.3, CHAOS_STRAGGLER_SLOWDOWN);

    let mut clean_sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g);
    let mut off_sys = {
        let cfg = MultiGpuConfig { faults: Some(spec), ..MultiGpuConfig::k40s(4) };
        MultiGpuEnterprise::new(cfg, &g)
    };
    let mut on_sys = {
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::on(),
            ..MultiGpuConfig::k40s(4)
        };
        MultiGpuEnterprise::new(cfg, &g)
    };

    let (mut clean_ms, mut off_ms, mut on_ms) = (0.0f64, 0.0f64, 0.0f64);
    let (mut detected, mut rebalances, mut rebalance_ms) = (0u32, 0u32, 0.0f64);
    for &source in &sources {
        let clean = clean_sys.bfs(source);
        let off = off_sys.bfs(source);
        let on = on_sys.bfs(source);

        // Results are independent of the straggler and the mitigation.
        let oracle = cpu_levels(&g, source);
        for (tag, r) in [("clean", &clean), ("off", &off), ("on", &on)] {
            assert_eq!(r.levels, oracle, "{tag} run from {source} diverged from the oracle");
            assert_eq!(r.depth, clean.depth, "{tag} run from {source} changed the BFS depth");
            assert_eq!(r.traversed_edges, clean.traversed_edges);
            assert_parents_valid(&g, r);
        }
        // The fault plan re-arms deterministically every run.
        assert_eq!(off.recovery.faults.stragglers_armed, 1);
        assert!(off.recovery.faults.straggler_slow_us > 0);
        assert_eq!(off.recovery.rebalances, 0);

        clean_ms += clean.time_ms;
        off_ms += off.time_ms;
        on_ms += on.time_ms;
        detected += on.recovery.stragglers_detected;
        rebalances += on.recovery.rebalances;
        rebalance_ms += on.recovery.rebalance_ms;
    }

    // The unmitigated straggler costs real simulated time on every run.
    assert!(
        off_ms > clean_ms * 1.2,
        "a 4x straggler must visibly stretch the barrier-synchronous \
         makespan: {off_ms:.3} ms vs clean {clean_ms:.3} ms"
    );

    // Mitigation detected it, rebalanced, and paid for the moved slices.
    assert!(detected >= 1, "straggler never detected");
    assert!(rebalances >= 1, "no rebalance happened");
    assert!(rebalance_ms > 0.0, "boundary moves must cost simulated time");

    // >= 50% of the lost TEPS recovered over the workload (equal edge
    // counts, so the time ratio is the TEPS ratio).
    let lost = off_ms - clean_ms;
    let recovered = off_ms - on_ms;
    assert!(
        recovered >= 0.5 * lost,
        "mitigation recovered {:.1}% of the lost throughput \
         (clean {clean_ms:.3} ms, off {off_ms:.3} ms, on {on_ms:.3} ms)",
        recovered / lost * 100.0
    );
}

/// Fixed seed, fresh instances: the straggler draw, the detection level,
/// the rebalance sequence, and the full timeline all reproduce bit for
/// bit — on both drivers.
#[test]
fn straggler_mitigation_is_bit_identical_across_instances() {
    let g = kronecker(14, 8, 5);
    let source = 3u32;
    let seed = single_straggler_seed(0.3, 4);
    let spec = straggler_only(seed, 0.3, 4.0);

    let run_1d = || {
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::on(),
            ..MultiGpuConfig::k40s(4)
        };
        MultiGpuEnterprise::new(cfg, &g).bfs(source)
    };
    let (a, b) = (run_1d(), run_1d());
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.time_ms, b.time_ms, "1-D mitigation timeline not reproducible");
    assert_eq!(a.communication_bytes, b.communication_bytes);
    assert_eq!(a.recovery, b.recovery, "1-D rebalance sequence not reproducible");
    assert!(a.recovery.rebalances >= 1, "the chosen seed must actually rebalance");

    // The same *instance* keeps the rebalanced boundaries across runs
    // (the move amortizes over a multi-source workload): re-running the
    // same source re-arms the same straggler, but the layout starts
    // closer to balanced every time, so within a few runs the detector
    // goes quiet. A quiet run beats the run that had to move slices
    // mid-flight, and once the layout is stable the timeline reproduces
    // bit for bit. (Different layouts may pick different — equally
    // valid — parents; levels never change.)
    let cfg = MultiGpuConfig {
        faults: Some(spec),
        rebalance: RebalancePolicy::on(),
        ..MultiGpuConfig::k40s(4)
    };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    let r1 = sys.bfs(source);
    assert!(r1.recovery.rebalances >= 1, "first run must move boundaries");
    let mut quiet = sys.bfs(source);
    let mut runs = 1;
    while quiet.recovery.rebalances > 0 {
        runs += 1;
        assert!(runs < 6, "rebalanced layout never stabilized");
        quiet = sys.bfs(source);
    }
    assert_eq!(quiet.levels, r1.levels);
    assert!(
        quiet.time_ms < r1.time_ms,
        "persisted boundaries must beat the detect-and-move run: \
         {:.4} ms vs {:.4} ms",
        quiet.time_ms,
        r1.time_ms
    );
    let again = sys.bfs(source);
    assert_eq!(again.time_ms, quiet.time_ms, "stable-layout re-run diverged");
    assert_eq!(again.parents, quiet.parents);
    assert_eq!(again.recovery, quiet.recovery);

    let run_2d = || {
        let cfg = Grid2DConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::on(),
            ..Grid2DConfig::k40s(2, 2)
        };
        MultiGpu2DEnterprise::new(cfg, &g).bfs(source)
    };
    let (a, b) = (run_2d(), run_2d());
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.time_ms, b.time_ms, "2-D mitigation timeline not reproducible");
    assert_eq!(a.recovery, b.recovery, "2-D rebalance sequence not reproducible");
}

/// Hysteresis, cooldown, and the hard cap bound the number of boundary
/// moves: even a straggler that persists for the whole traversal (and a
/// grid where *several* devices are slow) never produces more than
/// `max_rebalances` moves, and a short cooldown never lets consecutive
/// levels thrash the partition back and forth.
#[test]
fn hysteresis_and_cap_bound_the_rebalance_count() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    for seed in 0..6u64 {
        let spec = straggler_only(seed, 0.5, 4.0);
        let policy = RebalancePolicy::on();
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            rebalance: policy,
            ..MultiGpuConfig::k40s(4)
        };
        let r = MultiGpuEnterprise::new(cfg, &g).bfs(source);
        assert!(
            r.recovery.rebalances <= policy.max_rebalances,
            "seed {seed}: {} rebalances exceeds the cap {}",
            r.recovery.rebalances,
            policy.max_rebalances
        );
        assert_eq!(r.levels, cpu_levels(&g, source), "seed {seed} diverged");

        let cfg = Grid2DConfig {
            faults: Some(spec),
            rebalance: policy,
            ..Grid2DConfig::k40s(2, 2)
        };
        let r = MultiGpu2DEnterprise::new(cfg, &g).bfs(source);
        assert!(r.recovery.rebalances <= policy.max_rebalances, "2-D seed {seed} over cap");
        assert_eq!(r.levels, cpu_levels(&g, source), "2-D seed {seed} diverged");
    }
}

/// The 2-D grid mitigates by collapsing to throughput-weighted 1-D
/// slices, and the collapsed layout persists across runs like the 1-D
/// boundaries do: over a multi-source workload (64 sources, as in the
/// 1-D test) the mitigated instance must beat mitigation-off, staying
/// oracle-correct on every run.
#[test]
fn two_d_collapse_recovers_throughput() {
    let g = kronecker(14, 8, 5);
    let sources = sixty_four_sources(&g);
    let seed = single_straggler_seed(0.3, 4);
    let spec = straggler_only(seed, 0.3, 4.0);

    let mut off_sys = {
        let cfg = Grid2DConfig { faults: Some(spec), ..Grid2DConfig::k40s(2, 2) };
        MultiGpu2DEnterprise::new(cfg, &g)
    };
    let mut on_sys = {
        let cfg = Grid2DConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::on(),
            ..Grid2DConfig::k40s(2, 2)
        };
        MultiGpu2DEnterprise::new(cfg, &g)
    };

    let (mut off_ms, mut on_ms) = (0.0f64, 0.0f64);
    let mut rebalances = 0u32;
    for &source in &sources {
        let off = off_sys.bfs(source);
        let on = on_sys.bfs(source);
        let oracle = cpu_levels(&g, source);
        assert_eq!(off.levels, oracle, "off run from {source} diverged");
        assert_eq!(on.levels, oracle, "on run from {source} diverged");
        assert_parents_valid(&g, &on);
        off_ms += off.time_ms;
        on_ms += on.time_ms;
        rebalances += on.recovery.rebalances;
    }
    assert!(rebalances >= 1, "grid straggler never triggered a collapse");
    assert!(
        on_ms < off_ms,
        "collapse must beat mitigation-off over the workload: \
         {on_ms:.3} ms vs {off_ms:.3} ms"
    );
}


/// A degraded interconnect link never shows up in per-device busy time
/// (exec clocks exclude exchanges), so the detector's link fold is the
/// only path that sees it: with a per-level slow-down budget configured,
/// a persistently slow wire climbs the same streak/cooldown/cap ladder
/// and triggers the existing rebalance — with results identical to the
/// oracle and deterministic accounting across fresh instances.
#[test]
fn degraded_link_triggers_the_rebalance_ladder() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let link_spec = FaultSpec {
        link_degrade_rate: 1.0,
        link_degrade_factor: enterprise::CHAOS_LINK_DEGRADE_FACTOR,
        ..FaultSpec::uniform(17, 0.0)
    };

    // Budget configured: every level overruns, the streak fires.
    let run = |budget: Option<f64>| {
        let cfg = MultiGpuConfig {
            faults: Some(link_spec),
            rebalance: RebalancePolicy { link_slow_budget_ms: budget, ..RebalancePolicy::on() },
            ..MultiGpuConfig::k40s(4)
        };
        MultiGpuEnterprise::new(cfg, &g).bfs(source)
    };
    let r = run(Some(0.0));
    assert!(r.recovery.link_slow_detections >= 1, "{:?}", r.recovery);
    assert!(r.recovery.rebalances >= 1, "a confirmed link detection must rebalance");
    assert!(r.recovery.faults.link_slow_us > 0);
    assert_eq!(r.levels, oracle);
    assert_parents_valid(&g, &r);
    // Deterministic: a fresh instance reproduces detections and timing.
    let r2 = run(Some(0.0));
    assert_eq!(r.recovery, r2.recovery);
    assert_eq!(r.time_ms, r2.time_ms);

    // No budget: the same degraded wire is ignored by the detector.
    let r = run(None);
    assert_eq!(r.recovery.link_slow_detections, 0);
    assert_eq!(r.recovery.rebalances, 0);
    assert_eq!(r.levels, oracle);

    // 2-D grid: the same fold collapses the grid on a confirmed slow wire.
    let cfg = Grid2DConfig {
        faults: Some(link_spec),
        rebalance: RebalancePolicy {
            link_slow_budget_ms: Some(0.0),
            ..RebalancePolicy::on()
        },
        ..Grid2DConfig::k40s(2, 2)
    };
    let r = MultiGpu2DEnterprise::new(cfg, &g).bfs(source);
    assert!(r.recovery.link_slow_detections >= 1, "{:?}", r.recovery);
    assert_eq!(r.levels, oracle);
    assert_parents_valid(&g, &r);
}

/// A rebalance committed after a loss in the same run unwinds with the
/// loss. The next run revives the lost device and restores the
/// partitions the loss displaced; the rebalanced strips of the survivors
/// must go back too, or the revived fleet runs on ranges that overlap or
/// leave gaps, returning wrong levels or panicking at the next 1-D loss.
#[test]
fn rebalance_after_a_loss_unwinds_with_it_at_the_next_run() {
    let g = kronecker(10, 8, 5);
    let mut both = 0;
    for seed in 0..24u64 {
        let faults = Some(FaultSpec {
            device_loss_rate: 0.01,
            ..straggler_only(seed, 0.5, CHAOS_STRAGGLER_SLOWDOWN)
        });
        let rebalance = RebalancePolicy::on();
        let slices =
            MultiGpuConfig { faults, rebalance, sanitize: false, ..MultiGpuConfig::k40s(4) };
        let grid = Grid2DConfig { faults, rebalance, sanitize: false, ..Grid2DConfig::k40s(2, 2) };
        let mut fleets = [MultiGpuEnterprise::new(slices, &g), MultiGpu2DEnterprise::new(grid, &g)];
        for (shape, sys) in ["1-D", "2x2"].into_iter().zip(&mut fleets) {
            for src in [3, 17, 101, 255, 77, 400] {
                let Ok(r) = sys.try_bfs(src) else { continue };
                let tag = format!("{shape} seed {seed} source {src}");
                assert_eq!(r.levels, cpu_levels(&g, src), "{tag}");
                assert_parents_valid(&g, &r);
                both +=
                    usize::from(!r.recovery.devices_lost.is_empty() && r.recovery.rebalances > 0);
            }
        }
    }
    assert!(both > 0, "no run both lost a device and rebalanced");
}
