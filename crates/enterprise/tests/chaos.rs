//! Chaos matrix for the full recovery ladder, device loss included.
//!
//! Every configuration in the sweep — any mix of allocation, kernel,
//! interconnect, livelock, permanent-device-loss, and performance
//! (straggler / degraded-link) faults, on either multi-GPU driver, with
//! adaptive rebalancing armed — must end in exactly one of two ways: a
//! validated traversal or a typed error. Never a panic, and never a
//! silently wrong result. On success, the recovery report's eviction
//! list must agree with the substrate's fault counters.

use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{
    audit, BfsError, Enterprise, EnterpriseConfig, FaultSpec, PersistPolicy, RebalancePolicy,
    RecoveryPolicy, RoutePolicy, VerifyPolicy, CHAOS_LINK_FLAP_PERIOD_LEVELS,
    CHAOS_STRAGGLER_SLOWDOWN,
};
use enterprise_graph::gen::{kronecker, rmat, road_grid};
use enterprise_graph::Csr;
use std::path::PathBuf;

/// A fresh per-cell state directory for the storage-fault cells.
fn chaos_state_dir(tag: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos").join(tag.replace('/', "-"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A fault plan that only kills devices, at `rate` per kernel launch.
fn loss_only(seed: u64, rate: f64) -> FaultSpec {
    FaultSpec { device_loss_rate: rate, ..FaultSpec::uniform(seed, 0.0) }
}

/// Checks the parent tree of a multi-GPU result against the graph: the
/// source is its own parent, and every other reached vertex's parent sits
/// exactly one level above it across a real edge.
fn assert_parents_valid(g: &Csr, r: &MultiBfsResult) {
    for v in 0..g.vertex_count() {
        let Some(level) = r.levels[v] else {
            assert!(r.parents[v].is_none(), "unreached {v} has a parent");
            continue;
        };
        let p = r.parents[v].unwrap_or_else(|| panic!("reached {v} has no parent"));
        if v as u32 == r.source {
            assert_eq!(p, r.source, "source must parent itself");
            continue;
        }
        assert_eq!(
            r.levels[p as usize],
            Some(level - 1),
            "parent {p} of {v} is not one level up"
        );
        assert!(
            g.out_neighbors(p).contains(&(v as u32)),
            "no edge {p} -> {v} behind the parent claim"
        );
    }
}

/// Scans fault seeds until the 1-D driver loses exactly `want` devices
/// without exhausting the eviction budget; returns the seed.
fn find_1d_loss_seed(g: &Csr, gpus: usize, rate: f64, want: usize) -> u64 {
    for seed in 0..200 {
        let cfg = MultiGpuConfig { faults: Some(loss_only(seed, rate)), ..MultiGpuConfig::k40s(gpus) };
        let mut sys = MultiGpuEnterprise::new(cfg, &g.clone());
        if let Ok(r) = sys.try_bfs(0) {
            if r.recovery.devices_lost.len() == want {
                return seed;
            }
        }
    }
    panic!("no seed in 0..200 loses exactly {want} devices at rate {rate}");
}

/// Tentpole acceptance: a 4-GPU traversal that permanently loses one
/// device mid-run finishes on the 3 survivors — no CPU fallback — with
/// depths identical to the fault-free run and a valid parent tree.
#[test]
fn one_d_survives_single_device_loss() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let baseline = {
        let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g);
        sys.bfs(source)
    };
    let seed = find_1d_loss_seed(&g, 4, 0.004, 1);

    let cfg = MultiGpuConfig { faults: Some(loss_only(seed, 0.004)), ..MultiGpuConfig::k40s(4) };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    let r = sys.try_bfs(source).expect("one loss must be absorbed, not surfaced");
    assert_eq!(sys.alive_devices(), 3, "the traversal must end on 3 GPUs");
    assert_eq!(r.recovery.devices_lost.len(), 1);
    assert_eq!(r.recovery.faults.devices_lost, 1);
    assert!(!r.recovery.cpu_fallback);
    assert!(r.recovery.levels_replayed >= 1, "the interrupted level must be replayed");
    assert!(r.recovery.repartition_ms > 0.0, "repartition traffic must cost simulated time");
    assert_eq!(r.levels, baseline.levels, "degraded run diverged from the fault-free depths");
    assert_eq!(r.levels, cpu_levels(&g, source));
    assert_parents_valid(&g, &r);

    // The same instance re-run revives the full grid and reproduces.
    let r2 = sys.try_bfs(source).expect("re-run");
    assert_eq!(r.levels, r2.levels);
    assert_eq!(r.time_ms, r2.time_ms);
    assert_eq!(r.recovery, r2.recovery);
}

/// The 2-D grid absorbs a loss the same way: block merge (or collapse to
/// 1-D), finish on the survivors, identical depths.
#[test]
fn two_d_survives_device_loss() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let mut found = false;
    for seed in 0..200 {
        let cfg = Grid2DConfig { faults: Some(loss_only(seed, 0.004)), ..Grid2DConfig::k40s(2, 2) };
        let mut sys = MultiGpu2DEnterprise::new(cfg, &g);
        let Ok(r) = sys.try_bfs(source) else { continue };
        if r.recovery.devices_lost.len() != 1 {
            continue;
        }
        found = true;
        assert_eq!(sys.alive_devices(), 3);
        assert_eq!(r.recovery.faults.devices_lost, 1);
        assert!(!r.recovery.cpu_fallback);
        assert!(r.recovery.repartition_ms > 0.0);
        assert_eq!(r.levels, oracle, "seed {seed} diverged from oracle after eviction");
        assert_parents_valid(&g, &r);
        break;
    }
    assert!(found, "no seed in 0..200 produced a single absorbed loss on the 2x2 grid");
}

/// On a 2x2 grid the first loss always has a row- or column-adjacent
/// survivor, but a second loss can force the rule-3 collapse to a 1-D
/// layout. Two losses must still finish on 2 survivors with the default
/// budget (min_surviving_devices = 1).
#[test]
fn two_d_survives_double_loss() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let mut found = false;
    for seed in 0..400 {
        let cfg = Grid2DConfig { faults: Some(loss_only(seed, 0.01)), ..Grid2DConfig::k40s(2, 2) };
        let mut sys = MultiGpu2DEnterprise::new(cfg, &g);
        let Ok(r) = sys.try_bfs(source) else { continue };
        if r.recovery.devices_lost.len() != 2 {
            continue;
        }
        found = true;
        assert_eq!(sys.alive_devices(), 2);
        assert_eq!(r.levels, oracle, "seed {seed} diverged from oracle after two evictions");
        assert_parents_valid(&g, &r);
        break;
    }
    assert!(found, "no seed in 0..400 produced exactly two absorbed losses on the 2x2 grid");
}

/// Every survivor runs each level phase, so one sequential phase can lose
/// two devices: one splice evicts both (one replay) and the traversal
/// finishes on the other two, oracle-correct with audit-valid parents.
/// The verifier is off, so no repair can hide a wrong answer.
#[test]
fn one_phase_losing_two_devices_is_spliced_at_once() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let run = |seed, grid: bool| {
        let (faults, verify) = (Some(loss_only(seed, 0.01)), VerifyPolicy::disabled());
        let mut sys = if grid {
            let cfg = Grid2DConfig { faults, verify, sanitize: false, ..Grid2DConfig::k40s(2, 2) };
            MultiGpu2DEnterprise::new(cfg, &g)
        } else {
            let cfg = MultiGpuConfig { faults, verify, sanitize: false, ..MultiGpuConfig::k40s(4) };
            MultiGpuEnterprise::new(cfg, &g)
        };
        let r = sys.try_bfs(source).ok()?;
        let one_splice = r.recovery.devices_lost.len() == 2 && r.recovery.levels_replayed == 1;
        one_splice.then(|| (seed, r, sys.alive_devices()))
    };
    for (tag, grid) in [("1-D x4", false), ("2x2 grid", true)] {
        let Some((seed, r, alive)) = (0..400).find_map(|seed| run(seed, grid)) else {
            panic!("{tag}: no seed in 0..400 evicts two devices in one splice");
        };
        let lost = &r.recovery.devices_lost;
        assert!(lost[0] < lost[1], "{tag} seed {seed}: lost ids {lost:?} not ascending");
        assert_eq!(alive, 2, "{tag} seed {seed}");
        assert_eq!(r.levels, oracle, "{tag} seed {seed} diverged from the oracle");
        if let Err(e) = audit(&g, source, &r.levels, &r.parents) {
            panic!("{tag} seed {seed}: parents fail the audit: {e}");
        }
    }
}

/// Exhausting the eviction budget surfaces the typed error from
/// `try_bfs`, and `bfs` degrades to the CPU baseline (still correct).
#[test]
fn budget_exhaustion_is_typed_then_falls_back() {
    let g = kronecker(9, 8, 5);
    let source = 0u32;
    // A 4-GPU system that must keep all 4 devices: the first loss is
    // already over budget.
    let cfg = MultiGpuConfig {
        faults: Some(loss_only(1, 0.05)),
        recovery: RecoveryPolicy { min_surviving_devices: 4, ..RecoveryPolicy::default() },
        ..MultiGpuConfig::k40s(4)
    };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    match sys.try_bfs(source) {
        // Every survivor runs the failed phase, so it may lose several
        // devices at once; the error counts each of them.
        Err(BfsError::AllDevicesLost { lost, .. }) => {
            let marked = (0..4).filter(|&d| sys.device(d).is_lost()).count();
            assert!(lost >= 1, "no device counted lost");
            assert_eq!(lost as usize, marked, "lost must count every device marked lost");
        }
        other => panic!("expected AllDevicesLost, got {other:?}"),
    }
    assert_eq!(sys.alive_devices(), 4, "an over-budget loss evicts nothing");
    let r = sys.bfs(source);
    assert!(r.recovery.cpu_fallback, "bfs() must degrade to the CPU baseline");
    assert_eq!(r.levels, cpu_levels(&g, source));
}

/// A single GPU has no survivor to repartition onto: loss is terminal for
/// `try_bfs`, and `run_resilient` still produces a correct traversal.
#[test]
fn single_gpu_loss_is_terminal_then_falls_back() {
    let g = kronecker(9, 8, 5);
    let cfg = EnterpriseConfig {
        faults: Some(loss_only(2, 0.05)),
        ..EnterpriseConfig::default()
    };
    let mut e = Enterprise::new(cfg.clone(), &g);
    match e.try_bfs(0) {
        Err(BfsError::Device(_)) => {}
        other => panic!("expected a terminal device error, got {other:?}"),
    }
    let r = Enterprise::run_resilient(cfg, &g, 0);
    assert!(r.recovery.cpu_fallback);
    assert_eq!(r.levels, cpu_levels(&g, 0));
}

/// The chaos matrix proper: fault-rate classes (loss included) crossed
/// with seeds, graph families, and both multi-GPU drivers. Every cell is
/// a validated result or a typed error — never a panic — and successful
/// runs keep eviction accounting consistent.
#[test]
fn chaos_matrix_never_panics_and_accounts_evictions() {
    let graphs: Vec<(&str, Csr)> = vec![
        ("rmat", rmat(8, 8, 3)),
        ("road", road_grid(16, 16, 0.05, 7)),
    ];
    type SpecFor = Box<dyn Fn(u64) -> FaultSpec>;
    let specs: Vec<(&str, SpecFor)> = vec![
        ("zero", Box::new(|s| FaultSpec::uniform(s, 0.0))),
        ("loss-only", Box::new(|s| loss_only(s, 0.01))),
        ("runtime+loss", Box::new(|s| FaultSpec {
            alloc_fail_rate: 0.0,
            device_loss_rate: 0.004,
            ..FaultSpec::uniform(s, 0.10)
        })),
        // Bit flips alone: the verifier (armed on every cell below) is
        // what turns a corrupted Ok into either a healed, provably
        // correct Ok or a typed validation error.
        ("bitflip", Box::new(|s| FaultSpec {
            bitflip_rate: 0.2,
            ..FaultSpec::uniform(s, 0.0)
        })),
        // Performance faults alone: stragglers and degraded links never
        // corrupt anything, so every cell must verify oracle-correct —
        // the adaptive rebalance below only moves boundaries and time.
        ("straggler", Box::new(|s| FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
            link_degrade_rate: 0.3,
            ..FaultSpec::uniform(s, 0.0)
        })),
        // Storage faults alone: torn snapshot writes and bit-flipped
        // loads only matter to the persistence plane (armed per cell
        // below) — every defect must degrade to a cold start, never
        // corrupt a traversal.
        ("storage", Box::new(|s| FaultSpec {
            torn_write_rate: 0.5,
            snapshot_corrupt_rate: 0.5,
            ..FaultSpec::none(s)
        })),
        // Storage crossed with device loss: checkpoints written after an
        // eviction carry the eviction ledger, and a torn or bit-rotted
        // frame on a *degraded* fleet must still degrade cleanly.
        ("storage+loss", Box::new(|s| FaultSpec {
            torn_write_rate: 0.3,
            snapshot_corrupt_rate: 0.3,
            device_loss_rate: 0.004,
            ..FaultSpec::none(s)
        })),
        // Link faults crossed with device loss: routed exchanges (retry,
        // two-hop relay, host bounce, isolation-triggered migration)
        // racing real evictions of the relay candidates themselves.
        ("link+loss", Box::new(|s| FaultSpec {
            link_down_rate: 0.15,
            link_flap_rate: 0.15,
            link_flap_period_levels: CHAOS_LINK_FLAP_PERIOD_LEVELS,
            link_degrade_rate: 0.2,
            device_loss_rate: 0.004,
            ..FaultSpec::none(s)
        })),
        // Every class at once, silent corruption included.
        ("everything", Box::new(|s| FaultSpec::chaos(s, 0.01))),
    ];
    let mut outcomes = (0u32, 0u32); // (ok, typed error)
    for (gname, g) in &graphs {
        let oracle = cpu_levels(g, 1);
        for (sname, spec) in &specs {
            for seed in 0..3u64 {
                let tag = format!("{gname}/{sname}/seed{seed}");
                let faults = Some(spec(seed));
                // Storage cells exercise the persistence plane end to
                // end: durable checkpoints every level, reused (or
                // rejected, when torn/corrupted) across both drivers.
                let persist = |drv: &str| {
                    sname.starts_with("storage")
                        .then(|| PersistPolicy::with_checkpoints(
                            chaos_state_dir(&format!("{tag}/{drv}")), 1))
                };
                // Eviction accounting on a routed fleet: every entry in
                // the eviction list is either a substrate-injected loss
                // or a link-isolation migration of a healthy device.
                let assert_evictions = |drv: &str, r: &MultiBfsResult| {
                    assert_eq!(
                        r.recovery.devices_lost.len() as u64,
                        r.recovery.faults.devices_lost + r.recovery.link_isolated.len() as u64,
                        "{drv} {tag}: eviction list disagrees with loss + isolation counters"
                    );
                    for d in &r.recovery.link_isolated {
                        assert!(
                            r.recovery.devices_lost.contains(d),
                            "{drv} {tag}: isolated device {d} missing from the eviction list"
                        );
                    }
                };

                // Full verification on every cell: with `bitflip` and
                // `everything` in the matrix an unverified Ok could be
                // silently wrong, and the oracle check below would
                // misattribute that to recovery. The router is armed on
                // every cell (a strict no-op without link faults). The
                // sanitizer stays off — wild accesses are the injected
                // failure mode.
                let cfg = MultiGpuConfig {
                    faults,
                    verify: VerifyPolicy::full(),
                    sanitize: false,
                    rebalance: RebalancePolicy::on(),
                    route: RoutePolicy::on(),
                    persist: persist("1d"),
                    ..MultiGpuConfig::k40s(4)
                };
                let mut sys = MultiGpuEnterprise::new(cfg, g);
                match sys.try_bfs(1) {
                    Ok(r) => {
                        assert_eq!(r.levels, oracle, "1-D {tag}: wrong result accepted");
                        assert_evictions("1-D", &r);
                        assert!(!r.recovery.cpu_fallback);
                        outcomes.0 += 1;
                    }
                    Err(_) => outcomes.1 += 1,
                }

                // Grid shapes beyond 2x2 give multi-loss runs relay
                // candidates to burn through: 3x3 and 4x2 keep several
                // row/column peers alive per exchange.
                for (rows, cols) in [(2usize, 2usize), (3, 3), (4, 2)] {
                    let cfg = Grid2DConfig {
                        faults,
                        verify: VerifyPolicy::full(),
                        sanitize: false,
                        rebalance: RebalancePolicy::on(),
                        route: RoutePolicy::on(),
                        persist: persist(&format!("2d-{rows}x{cols}")),
                        ..Grid2DConfig::k40s(rows, cols)
                    };
                    let mut sys = MultiGpu2DEnterprise::new(cfg, g);
                    match sys.try_bfs(1) {
                        Ok(r) => {
                            assert_eq!(
                                r.levels, oracle,
                                "2-D {rows}x{cols} {tag}: wrong result accepted"
                            );
                            assert_evictions(&format!("2-D {rows}x{cols}"), &r);
                            assert!(!r.recovery.cpu_fallback);
                            outcomes.0 += 1;
                        }
                        Err(_) => outcomes.1 += 1,
                    }
                }
            }
        }
    }
    assert!(outcomes.0 > 0, "the matrix never succeeded — recovery is broken");
}

/// Recomputes which sources a batch deadline must have shed. The plane
/// executes (and, pipelined, admits) in `ShedOrder` order, so whatever
/// the observed shed *count*, the shed *set* must be exactly the
/// execution-order tail of that length — never an arbitrary subset.
fn assert_shed_oracle(
    tag: &str,
    sources: &[enterprise::BatchSource],
    order: enterprise::ShedOrder,
    runs: &[enterprise::SourceRun<MultiBfsResult>],
) {
    use std::collections::BTreeSet;
    let mut exec: Vec<usize> = (0..sources.len()).collect();
    if order == enterprise::ShedOrder::LowestPriorityFirst {
        exec.sort_by_key(|&i| (std::cmp::Reverse(sources[i].priority), i));
    }
    let shed: BTreeSet<usize> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.outcome, enterprise::SourceOutcome::Shed))
        .map(|(i, _)| i)
        .collect();
    let expect: BTreeSet<usize> = exec[exec.len() - shed.len()..].iter().copied().collect();
    assert_eq!(shed, expect, "{tag}: deadline shed the wrong sources under {order:?}");
}

/// The batch class of the matrix: an 8-source batch per cell with the
/// serving plane armed (retries, hedging, brownout, durable ledger on
/// the storage cells). Every cell — whatever mix of loss, corruption,
/// performance, link, and storage faults — must uphold the accounting
/// invariant `completed + hedge_wins + poisoned + shed == sources`,
/// every ok outcome must be oracle-correct, and any shed set must match
/// the shed-order oracle. Loss-bearing classes additionally run 3x3 and
/// 4x2 grids under `Overlap(4)` lanes, so multi-loss brownouts and
/// pipelined de-admission race on the same fleet.
#[test]
fn chaos_matrix_batch_cells_always_account_every_source() {
    use enterprise::{BatchPolicy, BatchSource, ShedOrder};

    let graphs: Vec<(&str, Csr)> = vec![
        ("rmat", rmat(8, 8, 3)),
        ("road", road_grid(16, 16, 0.05, 7)),
    ];
    type SpecFor = Box<dyn Fn(u64) -> FaultSpec>;
    let specs: Vec<(&str, SpecFor)> = vec![
        ("zero", Box::new(|s| FaultSpec::uniform(s, 0.0))),
        ("loss-only", Box::new(|s| loss_only(s, 0.002))),
        ("bitflip", Box::new(|s| FaultSpec {
            bitflip_rate: 0.2,
            ..FaultSpec::uniform(s, 0.0)
        })),
        ("straggler", Box::new(|s| FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
            link_degrade_rate: 0.3,
            ..FaultSpec::uniform(s, 0.0)
        })),
        ("storage+loss", Box::new(|s| FaultSpec {
            torn_write_rate: 0.3,
            snapshot_corrupt_rate: 0.3,
            device_loss_rate: 0.002,
            ..FaultSpec::none(s)
        })),
        ("everything", Box::new(|s| FaultSpec::chaos(s, 0.005))),
    ];
    let sources: Vec<BatchSource> = (0..8u32)
        .map(|i| BatchSource::with_priority(1 + i * 7, i % 3))
        .collect();
    let mut ok_outcomes = 0usize;
    for (gname, g) in &graphs {
        let oracles: Vec<_> = sources.iter().map(|bs| cpu_levels(g, bs.source)).collect();
        for (sname, spec) in &specs {
            for seed in 0..2u64 {
                let tag = format!("batch/{gname}/{sname}/seed{seed}");
                let faults = Some(spec(seed));
                let persist = |drv: &str| {
                    sname.starts_with("storage")
                        .then(|| PersistPolicy::with_checkpoints(
                            chaos_state_dir(&format!("{tag}/{drv}")), 1))
                };
                let check = |drv: &str, report: &enterprise::BatchReport<MultiBfsResult>| {
                    assert!(
                        report.accounted(),
                        "{drv} {tag}: {} runs for {} sources",
                        report.runs.len(),
                        report.sources
                    );
                    // No deadline on these cells: the oracle degenerates
                    // to "nothing shed", which still guards against a
                    // spurious Shed outcome.
                    assert_shed_oracle(
                        &format!("{drv} {tag}"),
                        &sources,
                        ShedOrder::LowestPriorityFirst,
                        &report.runs,
                    );
                    for (run, oracle) in report.runs.iter().zip(&oracles) {
                        if let Some(r) = &run.result {
                            assert_eq!(
                                &r.levels, oracle,
                                "{drv} {tag}: ok outcome for source {} is wrong",
                                run.source
                            );
                        }
                    }
                };

                let cfg = MultiGpuConfig {
                    faults,
                    verify: VerifyPolicy::full(),
                    sanitize: false,
                    rebalance: RebalancePolicy::on(),
                    route: RoutePolicy::on(),
                    persist: persist("1d"),
                    ..MultiGpuConfig::k40s(4)
                };
                let report = MultiGpuEnterprise::new(cfg, g).batch(&sources, &BatchPolicy::on());
                check("1-D", &report);
                ok_outcomes += report.completed() + report.hedge_wins();

                let cfg = Grid2DConfig {
                    faults,
                    verify: VerifyPolicy::full(),
                    sanitize: false,
                    rebalance: RebalancePolicy::on(),
                    route: RoutePolicy::on(),
                    persist: persist("2d"),
                    ..Grid2DConfig::k40s(2, 2)
                };
                let report = MultiGpu2DEnterprise::new(cfg, g).batch(&sources, &BatchPolicy::on());
                check("2-D", &report);
                ok_outcomes += report.completed() + report.hedge_wins();

                // Multi-loss grids under lanes: 3x3 and 4x2 keep enough
                // row/column peers alive that a batch can brown out
                // through several evictions while four pipelined lanes
                // keep de-admitting and resuming on the shrinking grid.
                if matches!(*sname, "loss-only" | "storage+loss" | "everything") {
                    for (rows, cols) in [(3usize, 3usize), (4, 2)] {
                        let cfg = Grid2DConfig {
                            faults,
                            verify: VerifyPolicy::full(),
                            sanitize: false,
                            rebalance: RebalancePolicy::on(),
                            route: RoutePolicy::on(),
                            persist: persist(&format!("2d-{rows}x{cols}")),
                            ..Grid2DConfig::k40s(rows, cols)
                        };
                        let report = MultiGpu2DEnterprise::new(cfg, g)
                            .batch(&sources, &BatchPolicy::pipelined(4));
                        check(&format!("2-D {rows}x{cols} Overlap(4)"), &report);
                        ok_outcomes += report.completed() + report.hedge_wins();
                    }
                }
            }
        }
    }
    assert!(ok_outcomes > 0, "no batch cell ever completed a source — the plane is broken");

    // Deadline cells: a budget small enough to trip after the first
    // admission wave, under full chaos and pipelined lanes, must shed a
    // non-empty set that the shed-order oracle can reconstruct exactly
    // from priorities alone — for both orders.
    let sources: Vec<BatchSource> =
        (0..8u32).map(|i| BatchSource::with_priority(1 + i * 7, i % 3)).collect();
    for (gname, g) in &graphs {
        for order in [ShedOrder::LowestPriorityFirst, ShedOrder::SubmissionTail] {
            let policy = BatchPolicy {
                deadline_ms: Some(1e-6),
                shed_order: order,
                ..BatchPolicy::pipelined(4)
            };
            let cfg = MultiGpuConfig {
                faults: Some(FaultSpec::chaos(3, 0.005)),
                verify: VerifyPolicy::full(),
                sanitize: false,
                rebalance: RebalancePolicy::on(),
                route: RoutePolicy::on(),
                ..MultiGpuConfig::k40s(4)
            };
            let report = MultiGpuEnterprise::new(cfg, g).batch(&sources, &policy);
            let tag = format!("batch/{gname}/deadline/{order:?}");
            assert!(report.accounted(), "{tag}: accounting broken");
            assert!(report.shed() > 0, "{tag}: the deadline cell never shed");
            assert_shed_oracle(&tag, &sources, order, &report.runs);
        }
    }
}

/// Determinism regression: two *fresh* instances with the same graph,
/// seed, and fault plan produce bit-identical results — timings,
/// counters, and the eviction sequence included — on both drivers.
#[test]
fn same_seed_same_plan_is_bit_identical_across_instances() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let seed = find_1d_loss_seed(&g, 4, 0.004, 1);
    let spec = loss_only(seed, 0.004);

    let run_1d = || {
        let cfg = MultiGpuConfig { faults: Some(spec), ..MultiGpuConfig::k40s(4) };
        MultiGpuEnterprise::new(cfg, &g).bfs(source)
    };
    let (a, b) = (run_1d(), run_1d());
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.time_ms, b.time_ms, "1-D timing not reproducible");
    assert_eq!(a.communication_bytes, b.communication_bytes);
    assert_eq!(a.recovery, b.recovery, "1-D eviction sequence not reproducible");
    assert_eq!(a.recovery.devices_lost.len(), 1, "the chosen seed must actually evict");

    let run_2d = |s: u64| {
        let cfg = Grid2DConfig { faults: Some(loss_only(s, 0.004)), ..Grid2DConfig::k40s(2, 2) };
        MultiGpu2DEnterprise::new(cfg, &g).bfs(source)
    };
    // Any seed works for the 2-D determinism check; reuse the 1-D one.
    let (a, b) = (run_2d(seed), run_2d(seed));
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.time_ms, b.time_ms, "2-D timing not reproducible");
    assert_eq!(a.communication_bytes, b.communication_bytes);
    assert_eq!(a.recovery, b.recovery, "2-D eviction sequence not reproducible");
}

/// `device_loss_rate: 0.0` set explicitly (all other rates zero too) must
/// be indistinguishable from running with no fault plan at all: same
/// depths, same simulated time, same wire traffic, empty recovery report.
#[test]
fn zero_loss_rate_is_a_strict_noop() {
    let g = kronecker(10, 8, 5);
    let source = 3u32;
    let zero = FaultSpec { device_loss_rate: 0.0, ..FaultSpec::uniform(9, 0.0) };

    let mut plain = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g);
    let base = plain.bfs(source);
    let cfg = MultiGpuConfig { faults: Some(zero), ..MultiGpuConfig::k40s(4) };
    let mut sys = MultiGpuEnterprise::new(cfg, &g);
    let r = sys.bfs(source);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.time_ms, base.time_ms, "1-D zero-rate plan changed timing");
    assert_eq!(r.communication_bytes, base.communication_bytes);
    assert!(r.recovery.devices_lost.is_empty());
    assert_eq!(r.recovery.repartition_ms, 0.0);

    let mut plain = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
    let base = plain.bfs(source);
    let cfg = Grid2DConfig { faults: Some(zero), ..Grid2DConfig::k40s(2, 2) };
    let mut sys = MultiGpu2DEnterprise::new(cfg, &g);
    let r = sys.bfs(source);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.time_ms, base.time_ms, "2-D zero-rate plan changed timing");
    assert_eq!(r.communication_bytes, base.communication_bytes);
    assert!(r.recovery.devices_lost.is_empty());
    assert_eq!(r.recovery.repartition_ms, 0.0);
}

/// Policy-off cells: each recovery policy switched off in turn must
/// degrade behaviour predictably — a correct result or a typed error,
/// never a panic or a silent wrong answer. Verification stays on for
/// corrupting classes (an unverified bit flip can legitimately produce a
/// wrong Ok, which is the verifier's job, not the ladder's).
#[test]
fn policy_off_cells_degrade_predictably() {
    let g = kronecker(9, 8, 5);
    let source = 1u32;
    let oracle = cpu_levels(&g, source);

    // Verify off, non-corrupting class (loss only): eviction plus
    // repartition alone must keep the result oracle-correct.
    for seed in 0..3u64 {
        let cfg = MultiGpuConfig {
            faults: Some(loss_only(seed, 0.004)),
            verify: VerifyPolicy::disabled(),
            ..MultiGpuConfig::k40s(4)
        };
        if let Ok(r) = MultiGpuEnterprise::new(cfg, &g).try_bfs(source) {
            assert_eq!(r.levels, oracle, "verify-off loss cell seed {seed} silently wrong");
            assert_parents_valid(&g, &r);
        }
    }

    // Repair off, corrupting class: the end-of-level verifier must fall
    // back to level replays instead of localized repair — same contract,
    // possibly more replays.
    for seed in 0..3u64 {
        let spec = FaultSpec { bitflip_rate: 0.2, ..FaultSpec::uniform(seed, 0.0) };
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            verify: VerifyPolicy { repair: false, ..VerifyPolicy::full() },
            sanitize: false,
            ..MultiGpuConfig::k40s(4)
        };
        if let Ok(r) = MultiGpuEnterprise::new(cfg, &g).try_bfs(source) {
            assert_eq!(r.levels, oracle, "repair-off bitflip cell seed {seed} silently wrong");
            assert_eq!(r.recovery.sdc_repaired, 0, "repair fired while disabled");
        }
    }

    // Rebalance off, performance class: stragglers cost time but the
    // result stays correct and no boundary ever moves.
    for seed in 0..3u64 {
        let spec = FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
            ..FaultSpec::uniform(seed, 0.0)
        };
        let cfg = Grid2DConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::disabled(),
            ..Grid2DConfig::k40s(2, 2)
        };
        let r = MultiGpu2DEnterprise::new(cfg, &g).bfs(source);
        assert_eq!(r.levels, oracle, "rebalance-off straggler cell seed {seed} wrong");
        assert_eq!(r.recovery.rebalances, 0);
        assert_eq!(r.recovery.rebalance_ms, 0.0);
    }
}
