//! Crash-consistent persistence plane: durable layout snapshots, warm
//! restarts, mid-traversal checkpoints, and storage-fault degradation.
//!
//! Every state file is a record log whose first record is a header
//! naming the format version, driver kind and graph (DESIGN.md §5g). The
//! contracts under test:
//!
//! - a process killed mid-campaign and restarted from the same state
//!   directory resumes from the last durable checkpoint — a keyframe with
//!   its deltas folded in — and produces bit-identical levels/parents to
//!   an uninterrupted run;
//! - a torn, bit-flipped, version-skewed, wrong-graph or pre-v5 file is
//!   detected (frame checksum or header) and degrades to a cold start with
//!   a typed [`PersistError`] in the recovery report — never a panic,
//!   never a wrong result;
//! - storage-fault rates with persistence disabled, and persistence
//!   with a cold cache, are both strict no-ops on results and timing;
//! - repeated runs of one instance draw the same storage faults, as they
//!   draw the same device faults.

use enterprise::multi_gpu::{Fleet, FleetConfig, MultiGpuConfig, MultiGpuEnterprise, Shape};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{
    BatchPolicy, BatchSource, Enterprise, EnterpriseConfig, FaultSpec, PersistError, PersistPolicy,
    RebalancePolicy, WatchdogPolicy, CHAOS_STRAGGLER_SLOWDOWN, FORMAT_VERSION,
};
use enterprise_graph::gen::{kronecker, road_grid};
use std::path::PathBuf;

/// A fresh per-test state directory under the target tmpdir.
fn state_dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("persist").join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One record frame of the on-disk log format:
/// `"ENTL" ‖ payload_len(u32 LE) ‖ fnv1a64(payload)(u64 LE) ‖ payload`.
fn record(payload: &[u8]) -> Vec<u8> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut frame = b"ENTL".to_vec();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&h.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The byte size of each record frame in a log file.
fn record_sizes(log: &[u8]) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos + 4..pos + 8].try_into().unwrap()) as usize;
        sizes.push(16 + len);
        pos += 16 + len;
    }
    sizes
}

/// A header record payload of format `version`: tag 0, the version, then
/// the driver kind and a graph fingerprint (zeros here).
fn header_of_version(version: u32) -> Vec<u8> {
    let mut payload = [0u32, version, 0].map(u32::to_le_bytes).concat();
    payload.extend_from_slice(&[0u8; 24]);
    payload
}

/// A watchdog that aborts the traversal after `levels` completed levels —
/// the in-process stand-in for `kill -9` mid-campaign (the driver errors
/// out *before* end-of-run persistence runs, so only the durable
/// mid-traversal checkpoint survives, exactly like a dead process).
fn doom_after(levels: u32) -> WatchdogPolicy {
    WatchdogPolicy { max_levels: Some(levels), ..WatchdogPolicy::default() }
}

#[test]
fn warm_restart_matches_cold_run_on_all_drivers() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);

    // Single GPU.
    let dir = state_dir("warm-single");
    let plain = Enterprise::new(EnterpriseConfig::default(), &g).bfs(source);
    let cfg = |d: &PathBuf| EnterpriseConfig {
        persist: Some(PersistPolicy::layout_only(d.clone())),
        ..EnterpriseConfig::default()
    };
    let cold = Enterprise::new(cfg(&dir), &g).bfs(source);
    assert!(!cold.recovery.warm_restart);
    assert!(cold.recovery.snapshot_errors.is_empty(), "{:?}", cold.recovery.snapshot_errors);
    assert!(cold.recovery.snapshots_persisted >= 1, "layout must be durably published");
    assert_eq!(cold.levels, plain.levels);
    assert_eq!(cold.parents, plain.parents);
    assert_eq!(cold.time_ms, plain.time_ms, "cold persistence must not touch the sim clock");
    assert!(dir.join("layout.snap").exists());
    let warm = Enterprise::new(cfg(&dir), &g).bfs(source);
    assert!(warm.recovery.warm_restart, "second process must warm-start from the layout");
    assert!(warm.recovery.snapshot_errors.is_empty(), "{:?}", warm.recovery.snapshot_errors);
    assert_eq!(warm.levels, oracle);
    assert_eq!(warm.parents, plain.parents);

    // 1-D multi-GPU.
    let dir = state_dir("warm-1d");
    let plain = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g).bfs(source);
    let cfg = |d: &PathBuf| MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(d.clone())),
        ..MultiGpuConfig::k40s(4)
    };
    let cold = MultiGpuEnterprise::new(cfg(&dir), &g).bfs(source);
    assert!(!cold.recovery.warm_restart);
    assert_eq!(cold.levels, plain.levels);
    assert_eq!(cold.time_ms, plain.time_ms);
    let warm = MultiGpuEnterprise::new(cfg(&dir), &g).bfs(source);
    assert!(warm.recovery.warm_restart);
    assert!(warm.recovery.snapshot_errors.is_empty(), "{:?}", warm.recovery.snapshot_errors);
    assert_eq!(warm.levels, oracle);
    assert_eq!(warm.parents, plain.parents);

    // 2-D grid.
    let dir = state_dir("warm-2d");
    let plain = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g).bfs(source);
    let cfg = |d: &PathBuf| Grid2DConfig {
        persist: Some(PersistPolicy::layout_only(d.clone())),
        ..Grid2DConfig::k40s(2, 2)
    };
    let cold = MultiGpu2DEnterprise::new(cfg(&dir), &g).bfs(source);
    assert!(!cold.recovery.warm_restart);
    assert_eq!(cold.levels, plain.levels);
    assert_eq!(cold.time_ms, plain.time_ms);
    let warm = MultiGpu2DEnterprise::new(cfg(&dir), &g).bfs(source);
    assert!(warm.recovery.warm_restart);
    assert!(warm.recovery.snapshot_errors.is_empty(), "{:?}", warm.recovery.snapshot_errors);
    assert_eq!(warm.levels, oracle);
    assert_eq!(warm.parents, plain.parents);
}

#[test]
fn kill_and_restart_resumes_bit_identically_single() {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1u32;
    let reference = Enterprise::new(EnterpriseConfig::default(), &g).bfs(source);
    assert!(reference.depth > 4, "graph too shallow to die mid-traversal");

    let dir = state_dir("kill-single");
    let doomed = EnterpriseConfig {
        persist: Some(PersistPolicy::with_checkpoints(dir.clone(), 1)),
        watchdog: doom_after(2),
        ..EnterpriseConfig::default()
    };
    let err = Enterprise::new(doomed, &g).try_bfs(source);
    assert!(err.is_err(), "the doomed run must die mid-traversal");
    assert!(dir.join("checkpoint.snap").exists(), "a durable checkpoint must survive the crash");

    let cfg = EnterpriseConfig {
        persist: Some(PersistPolicy::with_checkpoints(dir.clone(), 1)),
        ..EnterpriseConfig::default()
    };
    let resumed = Enterprise::new(cfg, &g).try_bfs(source).expect("restart must recover");
    assert_eq!(resumed.recovery.resumed_at_level, Some(2));
    assert!(resumed.recovery.snapshot_errors.is_empty(), "{:?}", resumed.recovery.snapshot_errors);
    assert_eq!(resumed.levels, reference.levels, "resumed depths diverged");
    assert_eq!(resumed.parents, reference.parents, "resumed parents diverged");
    assert!(!dir.join("checkpoint.snap").exists(), "a finished run retires its checkpoint");
}

/// Kills a traversal of `base`'s fleet after two levels and restarts it
/// from the durable checkpoint: the resume lands on level 2 and matches an
/// uninterrupted run bit for bit.
fn kill_and_restart<S: Into<Shape> + Clone>(base: FleetConfig<S>, tag: &str) {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1u32;
    let reference = Fleet::new(base.clone(), &g).bfs(source);

    let dir = state_dir(&format!("kill-{tag}"));
    let persist = Some(PersistPolicy::with_checkpoints(dir.clone(), 1));
    let doomed = FleetConfig { persist: persist.clone(), watchdog: doom_after(2), ..base.clone() };
    assert!(Fleet::new(doomed, &g).try_bfs(source).is_err(), "{tag}");
    assert!(dir.join("checkpoint.snap").exists(), "{tag}");

    let cfg = FleetConfig { persist, ..base };
    let resumed = Fleet::new(cfg, &g).try_bfs(source).expect("restart must recover");
    assert_eq!(resumed.recovery.resumed_at_level, Some(2), "{tag}");
    assert_eq!(resumed.levels, reference.levels, "{tag}");
    assert_eq!(resumed.parents, reference.parents, "{tag}");
}

#[test]
fn kill_and_restart_resumes_bit_identically_one_d() {
    kill_and_restart(MultiGpuConfig::k40s(4), "1d");
}

#[test]
fn kill_and_restart_resumes_bit_identically_two_d() {
    kill_and_restart(Grid2DConfig::k40s(2, 2), "2d");
}

#[test]
fn torn_writes_degrade_to_cold_start() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let dir = state_dir("torn");
    let spec = FaultSpec { torn_write_rate: 1.0, ..FaultSpec::none(7) };
    let cfg = || EnterpriseConfig {
        persist: Some(PersistPolicy::layout_only(dir.clone())),
        faults: Some(spec),
        ..EnterpriseConfig::default()
    };
    // Torn writes are silent at save time — that is the failure mode.
    let first = Enterprise::new(cfg(), &g).bfs(source);
    assert_eq!(first.levels, oracle);
    assert!(first.recovery.faults.torn_writes >= 1, "{:?}", first.recovery.faults);
    // The next process hits the truncated frame, reports it, cold-starts.
    let second = Enterprise::new(cfg(), &g).bfs(source);
    assert!(!second.recovery.warm_restart, "a torn layout must not warm-start");
    assert!(
        second
            .recovery
            .snapshot_errors
            .iter()
            .any(|e| matches!(e, PersistError::Truncated | PersistError::ChecksumMismatch)),
        "expected a torn-frame defect, got {:?}",
        second.recovery.snapshot_errors
    );
    assert_eq!(second.levels, oracle, "degraded cold start must still be correct");
}

#[test]
fn corrupt_snapshots_degrade_to_cold_start() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let dir = state_dir("corrupt");
    let spec = FaultSpec { snapshot_corrupt_rate: 1.0, ..FaultSpec::none(8) };
    let cfg = || EnterpriseConfig {
        persist: Some(PersistPolicy::layout_only(dir.clone())),
        faults: Some(spec),
        ..EnterpriseConfig::default()
    };
    let first = Enterprise::new(cfg(), &g).bfs(source);
    assert_eq!(first.levels, oracle);
    // Every load flips one bit somewhere in the frame: whichever field it
    // lands in, the header/checksum validation must catch it.
    let second = Enterprise::new(cfg(), &g).bfs(source);
    assert!(!second.recovery.warm_restart, "a corrupted layout must not warm-start");
    assert!(!second.recovery.snapshot_errors.is_empty());
    assert!(second.recovery.faults.snapshots_corrupted >= 1, "{:?}", second.recovery.faults);
    assert_eq!(second.levels, oracle);
}

/// Storage faults are re-armed from the seed at every run, as the device
/// and link plans are: four runs of one instance draw the same torn
/// checkpoint writes, so a run's tears never depend on the runs before it.
#[test]
fn repeated_runs_draw_the_same_storage_faults() {
    storage_faults_per_run(EnterpriseConfig::default(), "single");
    storage_faults_per_run(MultiGpuConfig::k40s(4), "1d");
}

fn storage_faults_per_run<S: Into<Shape> + Clone>(base: FleetConfig<S>, tag: &str) {
    let g = kronecker(9, 8, 5);
    let cfg = FleetConfig {
        faults: Some(FaultSpec { torn_write_rate: 0.3, ..FaultSpec::none(16) }),
        persist: Some(PersistPolicy::with_checkpoints(state_dir(&format!("rearm-{tag}")), 1)),
        ..base
    };
    let mut sys = Fleet::new(cfg, &g);
    let runs: Vec<_> = (0..4).map(|_| sys.try_bfs(3).expect("run")).collect();
    let first = &runs[0];
    assert!(first.recovery.faults.torn_writes > 0, "{tag}: no write was torn");
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(r.recovery, first.recovery, "{tag}: run {i} drew other faults");
        assert_eq!(r.levels, first.levels, "{tag}: run {i}");
        assert_eq!(r.time_ms.to_bits(), first.time_ms.to_bits(), "{tag}: run {i}");
    }
}

#[test]
fn version_mismatch_is_rejected() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    let dir = state_dir("version");
    std::fs::create_dir_all(&dir).unwrap();
    // A log from the future: an intact header record of an unknown format
    // version.
    assert_ne!(FORMAT_VERSION, 99);
    std::fs::write(dir.join("layout.snap"), record(&header_of_version(99))).unwrap();

    let cfg = EnterpriseConfig {
        persist: Some(PersistPolicy::layout_only(dir.clone())),
        ..EnterpriseConfig::default()
    };
    let r = Enterprise::new(cfg, &g).bfs(source);
    assert!(!r.recovery.warm_restart);
    assert!(
        r.recovery
            .snapshot_errors
            .iter()
            .any(|e| matches!(e, PersistError::VersionMismatch { found: 99 })),
        "expected VersionMismatch, got {:?}",
        r.recovery.snapshot_errors
    );
    assert_eq!(r.levels, cpu_levels(&g, source));
}

#[test]
fn stale_layout_for_a_different_graph_is_rejected() {
    let ga = kronecker(9, 8, 5);
    let gb = kronecker(9, 8, 6);
    let source = 3u32;
    let dir = state_dir("stale-graph");
    let cfg = || MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(dir.clone())),
        ..MultiGpuConfig::k40s(4)
    };
    let a = MultiGpuEnterprise::new(cfg(), &ga).bfs(source);
    assert!(a.recovery.snapshots_persisted >= 1);
    // Same state directory, different graph: the fingerprint must reject
    // the stale layout instead of silently mis-partitioning.
    let b = MultiGpuEnterprise::new(cfg(), &gb).bfs(source);
    assert!(!b.recovery.warm_restart);
    assert!(
        b.recovery.snapshot_errors.iter().any(|e| matches!(e, PersistError::GraphMismatch)),
        "expected GraphMismatch, got {:?}",
        b.recovery.snapshot_errors
    );
    assert_eq!(b.levels, cpu_levels(&gb, source));
}

#[test]
fn stale_checkpoint_for_a_different_source_is_rejected() {
    let g = road_grid(16, 16, 0.05, 7);
    let dir = state_dir("stale-source");
    let doomed = EnterpriseConfig {
        persist: Some(PersistPolicy::with_checkpoints(dir.clone(), 1)),
        watchdog: doom_after(2),
        ..EnterpriseConfig::default()
    };
    assert!(Enterprise::new(doomed, &g).try_bfs(1).is_err());
    // Restart traverses from a different source: the checkpoint must be
    // rejected (typed), not replayed into the wrong traversal.
    let cfg = EnterpriseConfig {
        persist: Some(PersistPolicy::with_checkpoints(dir.clone(), 1)),
        ..EnterpriseConfig::default()
    };
    let r = Enterprise::new(cfg, &g).try_bfs(2).expect("cold start must succeed");
    assert_eq!(r.recovery.resumed_at_level, None);
    assert!(
        r.recovery.snapshot_errors.iter().any(|e| matches!(e, PersistError::SourceMismatch)),
        "expected SourceMismatch, got {:?}",
        r.recovery.snapshot_errors
    );
    assert_eq!(r.levels, cpu_levels(&g, 2));
}

#[test]
fn storage_rates_without_persistence_are_a_strict_noop() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    // Maximal storage-fault rates, but no persistence configured: no
    // store exists, so not a single storage draw happens and the run is
    // bit-identical — results, timing, wire traffic, fault counters.
    let spec = FaultSpec { torn_write_rate: 1.0, snapshot_corrupt_rate: 1.0, ..FaultSpec::none(9) };

    let base = Enterprise::new(EnterpriseConfig::default(), &g).bfs(source);
    let cfg = EnterpriseConfig { faults: Some(spec), ..EnterpriseConfig::default() };
    let r = Enterprise::new(cfg, &g).bfs(source);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.parents, base.parents);
    assert_eq!(r.time_ms, base.time_ms, "single-GPU timing drifted");
    assert_eq!(r.recovery.faults.torn_writes, 0);
    assert_eq!(r.recovery.faults.snapshots_corrupted, 0);

    let base = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g).bfs(source);
    let cfg = MultiGpuConfig { faults: Some(spec), ..MultiGpuConfig::k40s(4) };
    let r = MultiGpuEnterprise::new(cfg, &g).bfs(source);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.time_ms, base.time_ms, "1-D timing drifted");
    assert_eq!(r.communication_bytes, base.communication_bytes);
    assert_eq!(r.recovery.faults.torn_writes, 0);
}

#[test]
fn rebalanced_boundaries_survive_restart() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let mut found = false;
    for seed in 0..20u64 {
        let dir = state_dir(&format!("rebalanced-1d-{seed}"));
        let spec = FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
            ..FaultSpec::none(seed)
        };
        let cfg = || MultiGpuConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::on(),
            persist: Some(PersistPolicy::layout_only(dir.clone())),
            ..MultiGpuConfig::k40s(4)
        };
        let first = MultiGpuEnterprise::new(cfg(), &g).bfs(source);
        if first.recovery.rebalances == 0 {
            continue;
        }
        found = true;
        assert_eq!(first.levels, oracle, "seed {seed}: rebalanced run diverged");
        // The next process warm-starts on the *shifted* boundaries.
        let second = MultiGpuEnterprise::new(cfg(), &g).bfs(source);
        assert!(second.recovery.warm_restart, "seed {seed}: rebalanced layout not restored");
        assert!(
            second.recovery.snapshot_errors.is_empty(),
            "seed {seed}: {:?}",
            second.recovery.snapshot_errors
        );
        assert_eq!(second.levels, oracle);
        break;
    }
    assert!(found, "no seed in 0..20 fired a straggler rebalance");
}

#[test]
fn collapsed_grid_layout_survives_restart() {
    let g = kronecker(9, 8, 5);
    let source = 3u32;
    let oracle = cpu_levels(&g, source);
    let mut found = false;
    for seed in 0..20u64 {
        let dir = state_dir(&format!("collapsed-2d-{seed}"));
        let spec = FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
            ..FaultSpec::none(seed)
        };
        let cfg = || Grid2DConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::on(),
            persist: Some(PersistPolicy::layout_only(dir.clone())),
            ..Grid2DConfig::k40s(2, 2)
        };
        let first = MultiGpu2DEnterprise::new(cfg(), &g).bfs(source);
        if first.recovery.rebalances == 0 {
            continue;
        }
        found = true;
        assert_eq!(first.levels, oracle, "seed {seed}: collapsed run diverged");
        // The next process restores the straggler-collapsed 1-D layout
        // (per-slice full views, not 2-D adjacency blocks).
        let second = MultiGpu2DEnterprise::new(cfg(), &g).bfs(source);
        assert!(second.recovery.warm_restart, "seed {seed}: collapsed layout not restored");
        assert!(
            second.recovery.snapshot_errors.is_empty(),
            "seed {seed}: {:?}",
            second.recovery.snapshot_errors
        );
        assert_eq!(second.levels, oracle);
        break;
    }
    assert!(found, "no seed in 0..20 collapsed the 2x2 grid");
}

/// Satellite contract (§5g × §5h): a campaign killed *after* a device
/// eviction restarts on the survivors. The checkpoint's eviction ledger
/// lets the fresh process re-evict the lost device, rebuild the spliced
/// survivor partitions to the checkpointed extents, and resume — with
/// levels and parents bit-identical to the uninterrupted faulted run.
/// The inherited loss shows up in the restart's eviction list while the
/// substrate's fault counter stays zero (nothing re-fired).
#[test]
fn kill_after_eviction_restarts_on_survivors_bit_identically() {
    kill_after_eviction(MultiGpuConfig::k40s(4), "1d");
}

/// The same contract on a 2x2 grid: its survivors resume on spliced
/// blocks, as a 1-D fleet resumes on spliced slices.
#[test]
fn kill_after_eviction_restarts_on_survivors_bit_identically_two_d() {
    kill_after_eviction(Grid2DConfig::k40s(2, 2), "2d");
}

fn kill_after_eviction<S: Into<Shape> + Clone>(shape: FleetConfig<S>, tag: &str) {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1u32;
    let oracle = cpu_levels(&g, source);
    for seed in 0..300u64 {
        let spec = FaultSpec { device_loss_rate: 0.004, ..FaultSpec::uniform(seed, 0.0) };
        let base = |persist: Option<PersistPolicy>| FleetConfig {
            faults: Some(spec),
            rebalance: RebalancePolicy::disabled(),
            persist,
            ..shape.clone()
        };
        // Uninterrupted faulted reference: exactly one absorbed loss.
        let Ok(reference) = Fleet::new(base(None), &g).try_bfs(source) else {
            continue;
        };
        if reference.recovery.devices_lost.len() != 1 || reference.recovery.cpu_fallback {
            continue;
        }
        // Same fault plan, killed well after the eviction window.
        let dir = state_dir(&format!("kill-evicted-{tag}-{seed}"));
        let doomed = FleetConfig {
            watchdog: doom_after(8),
            ..base(Some(PersistPolicy::with_checkpoints(dir.clone(), 1)))
        };
        assert!(
            Fleet::new(doomed, &g).try_bfs(source).is_err(),
            "{tag} seed {seed}: the doomed run must die mid-traversal"
        );
        if !dir.join("checkpoint.snap").exists() {
            continue;
        }
        let cfg = base(Some(PersistPolicy::with_checkpoints(dir.clone(), 1)));
        let Ok(resumed) = Fleet::new(cfg, &g).try_bfs(source) else {
            continue;
        };
        // Only seeds whose loss fired *before* the kill are in scope: the
        // restart must inherit the eviction from the ledger (fault counter
        // zero — nothing re-fired post-resume).
        if resumed.recovery.resumed_at_level.is_none()
            || resumed.recovery.devices_lost.len() != 1
            || resumed.recovery.faults.devices_lost != 0
        {
            continue;
        }
        assert_eq!(resumed.levels, reference.levels, "{tag} seed {seed}: resumed depths diverged");
        assert_eq!(
            resumed.parents, reference.parents,
            "{tag} seed {seed}: resumed parents diverged"
        );
        assert_eq!(resumed.levels, oracle, "{tag} seed {seed}: degraded restart diverged");
        assert!(
            resumed.recovery.snapshot_errors.is_empty(),
            "{tag} seed {seed}: {:?}",
            resumed.recovery.snapshot_errors
        );
        return;
    }
    panic!("{tag}: no seed in 0..300 produced a kill-after-eviction restart");
}

/// Satellite contract (§5g): steady-state checkpoints are appended to the
/// one checkpoint log as sparse deltas against the record before them —
/// each materially smaller than the keyframe — and a restart folds the
/// keyframe and every delta to the exact interrupted level, bit-identical
/// to an uninterrupted run. Both partition shapes publish through the
/// same writer, and there is no second checkpoint file.
#[test]
fn delta_checkpoints_shrink_on_disk_and_resume_bit_identically() {
    delta_checkpoints(MultiGpuConfig::k40s(4), "1d");
    delta_checkpoints(Grid2DConfig::k40s(2, 2), "2d");
}

fn delta_checkpoints<S: Into<Shape> + Clone>(base: FleetConfig<S>, tag: &str) {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1u32;
    let reference = Fleet::new(base.clone(), &g).bfs(source);

    let dir = state_dir(&format!("delta-{tag}"));
    let persist = Some(PersistPolicy::with_checkpoints(dir.clone(), 1));
    let doomed = FleetConfig { persist: persist.clone(), watchdog: doom_after(4), ..base.clone() };
    assert!(Fleet::new(doomed, &g).try_bfs(source).is_err(), "{tag}");
    let log = dir.join("checkpoint.snap");
    assert!(log.exists(), "{tag}: the checkpoint log must survive the crash");
    assert!(!dir.join("checkpoint.delta.snap").exists(), "{tag}: one checkpoint file");
    // Header, the level-1 keyframe, then deltas for levels 2, 3 and 4.
    let sizes = record_sizes(&std::fs::read(&log).unwrap());
    assert_eq!(sizes.len(), 5, "{tag}: {sizes:?}");
    for &delta in &sizes[2..] {
        assert!(delta * 2 < sizes[1], "{tag}: delta regressed: {sizes:?}");
    }

    let cfg = FleetConfig { persist, ..base };
    let resumed = Fleet::new(cfg, &g).try_bfs(source).expect("restart must recover");
    assert_eq!(
        resumed.recovery.resumed_at_level,
        Some(4),
        "{tag}: resume must land on the delta's level, not the keyframe's"
    );
    let errors = &resumed.recovery.snapshot_errors;
    assert!(errors.is_empty(), "{tag}: {errors:?}");
    assert_eq!(resumed.levels, reference.levels, "{tag}");
    assert_eq!(resumed.parents, reference.parents, "{tag}");
    assert!(!log.exists(), "{tag}: a finished run retires the checkpoint log");
}

/// Files of format v4 — `ENTSNAP` whole-file frames under each of the
/// three names, and a ledger log whose header carries version 4 — degrade
/// to a cold start with a typed error each: no warm layout, no resumed
/// checkpoint, no replayed outcome, and oracle-correct results.
#[test]
fn v4_snapshot_files_degrade_to_a_cold_start() {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1u32;
    let oracle = cpu_levels(&g, source);
    let v4_frame = |payload: &[u8]| {
        let mut frame = b"ENTSNAP\0".to_vec();
        frame.extend_from_slice(&4u32.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    let v4_ledger = [record(&header_of_version(4)), record(&[1, 0, 0, 0])].concat();
    for (ledger, expect) in [
        (v4_frame(b"v4 ledger"), PersistError::BadMagic),
        (v4_ledger, PersistError::VersionMismatch { found: 4 }),
    ] {
        let dir = state_dir("v4");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("layout.snap"), v4_frame(b"v4 layout")).unwrap();
        std::fs::write(dir.join("checkpoint.snap"), v4_frame(b"v4 keyframe")).unwrap();
        std::fs::write(dir.join("batch.snap"), ledger).unwrap();
        let cfg = MultiGpuConfig {
            persist: Some(PersistPolicy::with_checkpoints(&dir, 1)),
            ..MultiGpuConfig::k40s(4)
        };
        let mut fleet = Fleet::new(cfg, &g);
        let r = fleet.try_bfs(source).expect("a cold start");
        assert!(!r.recovery.warm_restart);
        assert_eq!(r.recovery.resumed_at_level, None);
        assert_eq!(r.recovery.snapshot_errors, [PersistError::BadMagic, PersistError::BadMagic]);
        assert_eq!(r.levels, oracle);
        let sources = [BatchSource::new(source), BatchSource::new(2)];
        let report = fleet.batch(&sources, &BatchPolicy::on());
        assert_eq!(report.manifest_errors, [expect]);
        assert_eq!((report.resumed(), report.completed()), (0, 2));
    }
}
