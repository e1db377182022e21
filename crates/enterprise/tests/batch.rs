//! Batch serving-plane contracts (DESIGN.md §5i).
//!
//! The load-bearing guarantees: a disabled policy is a strict no-op
//! against sequential per-source runs on all three drivers; a poisoned
//! source is quarantined without touching its siblings' results; the
//! hedged re-execution is bit-deterministic across fresh instances;
//! and a killed batch resumes from its durable outcome ledger without
//! re-running completed sources. Plus the deadline shedding order
//! contract, and the pipelined-lane contracts (DESIGN.md §5j):
//! `Overlap` changes scheduling but never answers, `Off` is
//! bit-identical to the sequential plane, hedging stays deterministic
//! under lanes, a pipelined kill resumes from the append-only ledger,
//! and a browned-out batch resumes on its survivor fleet.

use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, BfsError, Enterprise, EnterpriseConfig, FaultSpec,
    PersistPolicy, PipelineMode, PoisonReason, RebalancePolicy, ShedOrder, SourceOutcome,
    VerifyPolicy, WatchdogPolicy,
};
use enterprise_graph::gen::kronecker;
use std::path::PathBuf;

fn state_dir(tag: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch").join(tag);
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SOURCES: [u32; 4] = [3, 17, 101, 255];

fn queue() -> Vec<BatchSource> {
    SOURCES.iter().map(|&s| BatchSource::new(s)).collect()
}

/// Zero fault rates + disabled policy: the batch entry point must be
/// bit-identical — results, timings, recovery counters — to the caller
/// looping over `try_bfs` on a twin instance, on all three drivers.
#[test]
fn disabled_policy_is_bit_identical_to_sequential_on_all_drivers() {
    let g = kronecker(9, 8, 5);
    let zero = Some(FaultSpec::uniform(7, 0.0));

    // Single GPU.
    let cfg = EnterpriseConfig { faults: zero, ..EnterpriseConfig::default() };
    let mut seq = Enterprise::new(cfg.clone(), &g);
    let mut bat = Enterprise::new(cfg, &g);
    let report = bat.batch(&queue(), &BatchPolicy::disabled());
    assert!(report.accounted());
    assert_eq!(report.completed, SOURCES.len());
    for (bs, run) in SOURCES.iter().zip(&report.runs) {
        let want = seq.try_bfs(*bs).expect("sequential twin failed");
        let got = run.result.as_ref().expect("batch result missing");
        assert_eq!(got.levels, want.levels);
        assert_eq!(got.parents, want.parents);
        assert_eq!(got.time_ms, want.time_ms, "single-GPU timing diverged");
        assert_eq!(got.recovery, want.recovery);
    }

    // 1-D fleet.
    let cfg = MultiGpuConfig { faults: zero, ..MultiGpuConfig::k40s(4) };
    let mut seq = MultiGpuEnterprise::new(cfg.clone(), &g);
    let mut bat = MultiGpuEnterprise::new(cfg, &g);
    let report = bat.batch(&queue(), &BatchPolicy::disabled());
    assert_eq!(report.completed, SOURCES.len());
    for (bs, run) in SOURCES.iter().zip(&report.runs) {
        let want = seq.try_bfs(*bs).expect("sequential twin failed");
        let got = run.result.as_ref().expect("batch result missing");
        assert_eq!(got.levels, want.levels);
        assert_eq!(got.parents, want.parents);
        assert_eq!(got.time_ms, want.time_ms, "1-D timing diverged");
        assert_eq!(got.communication_bytes, want.communication_bytes);
        assert_eq!(got.recovery, want.recovery);
    }

    // 2-D grid.
    let cfg = Grid2DConfig { faults: zero, ..Grid2DConfig::k40s(2, 2) };
    let mut seq = MultiGpu2DEnterprise::new(cfg.clone(), &g);
    let mut bat = MultiGpu2DEnterprise::new(cfg, &g);
    let report = bat.batch(&queue(), &BatchPolicy::disabled());
    assert_eq!(report.completed, SOURCES.len());
    for (bs, run) in SOURCES.iter().zip(&report.runs) {
        let want = seq.try_bfs(*bs).expect("sequential twin failed");
        let got = run.result.as_ref().expect("batch result missing");
        assert_eq!(got.levels, want.levels);
        assert_eq!(got.parents, want.parents);
        assert_eq!(got.time_ms, want.time_ms, "2-D timing diverged");
        assert_eq!(got.communication_bytes, want.communication_bytes);
        assert_eq!(got.recovery, want.recovery);
    }
}

/// A source that exhausts its ladder (silent corruption the verifier
/// rejects twice, with repair off and no retries left) is quarantined
/// as `Poisoned` with its typed error, and every sibling source's
/// result stays oracle-correct — fault scoping keeps one source's
/// draws out of the others' universes.
#[test]
fn poisoned_source_quarantine_leaves_siblings_oracle_correct() {
    let g = kronecker(9, 8, 5);
    let policy = BatchPolicy { max_retries: 0, hedge_threshold: 0.0, ..BatchPolicy::on() };
    for seed in 0..40u64 {
        let spec = FaultSpec { bitflip_rate: 0.35, ..FaultSpec::uniform(seed, 0.0) };
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            verify: VerifyPolicy { repair: false, ..VerifyPolicy::full() },
            sanitize: false,
            ..MultiGpuConfig::k40s(4)
        };
        let mut sys = MultiGpuEnterprise::new(cfg, &g);
        let report = sys.batch(&queue(), &policy);
        assert!(report.accounted(), "seed {seed}: accounting broken");
        if report.poisoned == 0 || report.completed == 0 {
            continue; // need at least one of each to show isolation
        }
        for run in &report.runs {
            match &run.outcome {
                SourceOutcome::Poisoned(PoisonReason::Error(e)) => {
                    assert!(
                        matches!(e, BfsError::ValidationFailedAfterReplay(_)),
                        "seed {seed}: unexpected poison error {e:?}"
                    );
                    assert!(run.result.is_none());
                }
                SourceOutcome::Poisoned(other) => {
                    panic!("seed {seed}: poison without a typed error: {other}")
                }
                _ => {
                    let r = run.result.as_ref().expect("ok outcome without result");
                    assert_eq!(
                        r.levels,
                        cpu_levels(&g, run.source),
                        "seed {seed}: sibling of a poisoned source is wrong"
                    );
                }
            }
        }
        return;
    }
    panic!("no seed in 0..40 produced a mixed poisoned/completed batch");
}

/// The hedged re-execution — triggered by a straggler blowing the level
/// deadline, run with deadlines lifted — must be bit-deterministic:
/// two fresh instances produce identical outcomes, digests, and
/// simulated times, and the hedge universe never bleeds into the
/// regular attempts.
#[test]
fn hedged_reexecution_is_bit_deterministic_across_instances() {
    let g = kronecker(9, 8, 5);
    // A clean probe calibrates the level deadline: 1.5x the slowest
    // fault-free level trips a 4x straggler but never a clean source.
    let probe = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g).try_bfs(3).expect("probe");
    let worst = probe
        .level_trace
        .iter()
        .map(|l| l.expand_ms + l.queue_gen_ms)
        .fold(0.0f64, f64::max);
    let run_batch = |seed: u64| {
        let spec = FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: 4.0,
            ..FaultSpec::uniform(seed, 0.0)
        };
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            watchdog: WatchdogPolicy {
                level_deadline_ms: Some(1.5 * worst),
                ..WatchdogPolicy::default()
            },
            rebalance: RebalancePolicy::disabled(),
            ..MultiGpuConfig::k40s(4)
        };
        MultiGpuEnterprise::new(cfg, &g).batch(&queue(), &BatchPolicy::on())
    };
    for seed in 0..20u64 {
        let a = run_batch(seed);
        assert!(a.accounted(), "seed {seed}: accounting broken");
        if a.hedge_wins == 0 {
            continue;
        }
        let b = run_batch(seed);
        assert_eq!(a.hedge_wins, b.hedge_wins);
        assert_eq!(a.hedges, b.hedges);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.batch_ms, b.batch_ms, "seed {seed}: hedged batch timing diverged");
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.digest, y.digest, "seed {seed}: hedged digest diverged");
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.time_ms, y.time_ms);
        }
        // Hedge wins are real results, oracle-correct like any other.
        for run in &a.runs {
            if let Some(r) = &run.result {
                assert_eq!(r.levels, cpu_levels(&g, run.source));
            }
        }
        return;
    }
    panic!("no seed in 0..20 produced a hedge win");
}

/// A batch killed mid-queue resumes from the durable outcome ledger:
/// already-terminal sources are replayed as `resumed` (no re-run, no
/// result payload) and only the remainder executes, with digests
/// matching an uninterrupted twin.
#[test]
fn killed_batch_resumes_from_manifest_without_rerunning() {
    let g = kronecker(9, 8, 5);
    let dir = state_dir("resume");
    let cfg = || MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&dir)),
        ..MultiGpuConfig::k40s(4)
    };
    let sources = queue();

    // Uninterrupted twin (separate store so its ledger doesn't leak).
    let twin_dir = state_dir("resume-twin");
    let twin_cfg = MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&twin_dir)),
        ..MultiGpuConfig::k40s(4)
    };
    let twin = MultiGpuEnterprise::new(twin_cfg, &g).batch(&sources, &BatchPolicy::on());

    // "Killed" process: the batch only got through its first two
    // sources before dying — the ledger records exactly those.
    let partial = MultiGpuEnterprise::new(cfg(), &g).batch(&sources[..2], &BatchPolicy::on());
    assert_eq!(partial.completed, 2);
    assert_eq!(partial.resumed, 0);

    // Restarted process: same store, full queue.
    let resumed = MultiGpuEnterprise::new(cfg(), &g).batch(&sources, &BatchPolicy::on());
    assert!(resumed.accounted());
    assert_eq!(resumed.resumed, 2, "ledger entries not replayed");
    assert_eq!(resumed.completed, sources.len());
    for (i, run) in resumed.runs.iter().enumerate() {
        assert_eq!(run.resumed, i < 2, "wrong sources replayed");
        if run.resumed {
            assert!(run.result.is_none(), "resumed source was re-run");
            assert_eq!(run.attempts, 0);
            assert_eq!(run.time_ms, 0.0);
        }
        assert_eq!(run.digest, twin.runs[i].digest, "digest diverged across the kill");
    }
}

/// The batch deadline sheds pending sources — never silently drops them
/// — and under `LowestPriorityFirst` the shed set is exactly the
/// lowest-priority work; under `SubmissionTail` it is the queue's tail.
#[test]
fn deadline_sheds_by_priority_then_by_submission_order() {
    let g = kronecker(9, 8, 5);
    let prioritized: Vec<BatchSource> = SOURCES
        .iter()
        .enumerate()
        .map(|(i, &s)| BatchSource::with_priority(s, i as u32))
        .collect();
    // A deadline below any single run's simulated time: the first
    // executed source finishes (the check runs before each source, and
    // 0.0 spent < deadline), then everything still pending sheds.
    let policy = BatchPolicy { deadline_ms: Some(1e-6), ..BatchPolicy::on() };
    let report = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g).batch(&prioritized, &policy);
    assert!(report.accounted());
    assert_eq!(report.completed, 1);
    assert_eq!(report.shed, SOURCES.len() - 1);
    // Highest priority (submitted last) ran; the rest — all lower
    // priority — were shed and reported.
    let last = prioritized.last().unwrap();
    for run in &report.runs {
        if run.source == last.source && run.priority == last.priority {
            assert!(matches!(run.outcome, SourceOutcome::Completed));
        } else {
            assert!(matches!(run.outcome, SourceOutcome::Shed));
            assert!(run.result.is_none());
            assert_eq!(run.attempts, 0);
        }
    }

    let tail_policy = BatchPolicy { shed_order: ShedOrder::SubmissionTail, ..policy };
    let report =
        MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g).batch(&prioritized, &tail_policy);
    assert!(report.accounted());
    assert_eq!(report.completed, 1);
    assert!(matches!(report.runs[0].outcome, SourceOutcome::Completed), "head must run");
    for run in &report.runs[1..] {
        assert!(matches!(run.outcome, SourceOutcome::Shed), "tail must shed");
    }
}

/// Pipelined lanes change scheduling and timing, never answers: an
/// `Overlap(4)` batch produces the same per-source digests, levels, and
/// parents as the sequential plane on a twin instance, on all three
/// drivers.
#[test]
fn pipelined_batch_matches_sequential_digests_on_all_drivers() {
    let g = kronecker(9, 8, 5);
    let piped = BatchPolicy::pipelined(4);

    // Single GPU.
    let cfg = EnterpriseConfig::default();
    let seq = Enterprise::new(cfg.clone(), &g).batch(&queue(), &BatchPolicy::on());
    let par = Enterprise::new(cfg, &g).batch(&queue(), &piped);
    assert!(par.accounted());
    assert_eq!(par.completed, SOURCES.len());
    for (s, p) in seq.runs.iter().zip(&par.runs) {
        assert_eq!(p.digest, s.digest, "single-GPU pipelined digest diverged");
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert_eq!(pr.levels, sr.levels);
        assert_eq!(pr.parents, sr.parents);
    }

    // 1-D fleet.
    let cfg = MultiGpuConfig::k40s(4);
    let seq = MultiGpuEnterprise::new(cfg.clone(), &g).batch(&queue(), &BatchPolicy::on());
    let par = MultiGpuEnterprise::new(cfg, &g).batch(&queue(), &piped);
    assert!(par.accounted());
    assert_eq!(par.completed, SOURCES.len());
    for (s, p) in seq.runs.iter().zip(&par.runs) {
        assert_eq!(p.digest, s.digest, "1-D pipelined digest diverged");
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert_eq!(pr.levels, sr.levels);
        assert_eq!(pr.parents, sr.parents);
    }

    // 2-D grid.
    let cfg = Grid2DConfig::k40s(2, 2);
    let seq = MultiGpu2DEnterprise::new(cfg.clone(), &g).batch(&queue(), &BatchPolicy::on());
    let par = MultiGpu2DEnterprise::new(cfg, &g).batch(&queue(), &piped);
    assert!(par.accounted());
    assert_eq!(par.completed, SOURCES.len());
    for (s, p) in seq.runs.iter().zip(&par.runs) {
        assert_eq!(p.digest, s.digest, "2-D pipelined digest diverged");
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert_eq!(pr.levels, sr.levels);
        assert_eq!(pr.parents, sr.parents);
    }
}

/// Checks one shape against source `n`, one past the last vertex:
/// `try_bfs` returns the typed error, and in a passthrough, a sequential
/// and a pipelined batch the bad source alone is poisoned with it after
/// one attempt that cost no simulated time, while its siblings keep the
/// digests they get in a batch without it.
fn assert_rejects_out_of_range<R>(
    shape: &str,
    n: u32,
    try_bfs: impl FnOnce(u32) -> Result<R, BfsError>,
    mut batch: impl FnMut(&[BatchSource], &BatchPolicy) -> BatchReport<R>,
) {
    let is_rejection = |e: &BfsError| {
        matches!(e, BfsError::SourceOutOfRange { source, vertices }
            if *source == n && *vertices == n as usize)
    };
    let Err(e) = try_bfs(n) else { panic!("{shape}: source {n} was accepted") };
    assert!(is_rejection(&e), "{shape}: {e:?}");
    let mut with_bad = queue();
    with_bad.insert(2, BatchSource::new(n));
    for policy in [BatchPolicy::disabled(), BatchPolicy::on(), BatchPolicy::pipelined(4)] {
        let want: Vec<u64> = batch(&queue(), &policy).runs.iter().map(|r| r.digest).collect();
        let report = batch(&with_bad, &policy);
        assert!(report.accounted(), "{shape} {policy:?}: accounting broken");
        assert_eq!(report.poisoned, 1, "{shape} {policy:?}");
        let bad = &report.runs[2];
        match &bad.outcome {
            SourceOutcome::Poisoned(PoisonReason::Error(e)) => {
                assert!(is_rejection(e), "{shape} {policy:?}: {e:?}")
            }
            other => panic!("{shape} {policy:?}: bad source ended {other:?}"),
        }
        assert_eq!((bad.attempts, bad.time_ms), (1, 0.0), "{shape} {policy:?}");
        let mut got: Vec<u64> = report.runs.iter().map(|r| r.digest).collect();
        got.remove(2);
        assert_eq!(got, want, "{shape} {policy:?}: sibling digests moved");
    }
}

/// An out-of-range source is a typed error, not a panic, on every
/// shape, alone or as one entry of a batch in every serving mode.
#[test]
fn out_of_range_source_is_a_typed_error_on_every_shape() {
    let g = kronecker(9, 8, 5);
    let n = g.vertex_count() as u32;
    let single = EnterpriseConfig::default();
    assert_rejects_out_of_range(
        "single",
        n,
        |s| Enterprise::new(single.clone(), &g).try_bfs(s),
        |q, p| Enterprise::new(single.clone(), &g).batch(q, p),
    );
    let slices = MultiGpuConfig::k40s(4);
    assert_rejects_out_of_range(
        "1-D x4",
        n,
        |s| MultiGpuEnterprise::new(slices.clone(), &g).try_bfs(s),
        |q, p| MultiGpuEnterprise::new(slices.clone(), &g).batch(q, p),
    );
    let grid = Grid2DConfig::k40s(2, 2);
    assert_rejects_out_of_range(
        "2x2",
        n,
        |s| MultiGpu2DEnterprise::new(grid.clone(), &g).try_bfs(s),
        |q, p| MultiGpu2DEnterprise::new(grid.clone(), &g).batch(q, p),
    );
}

/// `PipelineMode::Off` is a strict no-op: an enabled-but-unpipelined
/// batch is bit-identical — timings, counters, recovery — to the
/// disabled plane fault-free on all three drivers, and bit-deterministic
/// across fresh instances with every fault plane armed.
#[test]
fn pipeline_off_is_strict_noop_bit_identity() {
    let g = kronecker(9, 8, 5);
    let off = BatchPolicy { pipeline: PipelineMode::Off, ..BatchPolicy::on() };
    assert_eq!(off, BatchPolicy::on(), "on() must default to PipelineMode::Off");

    // Fault-free: the armed-but-Off plane adds nothing over disabled.
    macro_rules! check {
        ($mk:expr, $tag:literal) => {{
            let a = $mk.batch(&queue(), &BatchPolicy::disabled());
            let b = $mk.batch(&queue(), &off);
            assert_eq!(a.batch_ms, b.batch_ms, concat!($tag, ": batch clock diverged"));
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!(x.digest, y.digest, concat!($tag, ": digest diverged"));
                assert_eq!(x.time_ms, y.time_ms, concat!($tag, ": timing diverged"));
                assert_eq!(x.attempts, y.attempts);
                let (xr, yr) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
                assert_eq!(xr.recovery, yr.recovery, concat!($tag, ": recovery diverged"));
            }
        }};
    }
    check!(Enterprise::new(EnterpriseConfig::default(), &g), "single");
    check!(MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g), "1-D");
    check!(MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g), "2-D");

    // Chaos: two fresh instances under Off produce bitwise-equal reports.
    let spec = FaultSpec {
        bitflip_rate: 0.1,
        straggler_rate: 0.2,
        straggler_slowdown: 4.0,
        ..FaultSpec::uniform(11, 0.001)
    };
    let run = || {
        let cfg = MultiGpuConfig { faults: Some(spec), ..MultiGpuConfig::k40s(4) };
        MultiGpuEnterprise::new(cfg, &g).batch(&queue(), &off)
    };
    let (a, b) = (run(), run());
    assert!(a.accounted());
    assert_eq!(a.batch_ms, b.batch_ms, "Off chaos batch clock diverged");
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.hedges, b.hedges);
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.digest, y.digest, "Off chaos digest diverged");
        assert_eq!(x.time_ms, y.time_ms, "Off chaos timing diverged");
        assert_eq!(x.attempts, y.attempts);
    }
}

/// Hedged re-execution under `Overlap(4)`: a lane that trips the level
/// deadline de-pipelines into the sequential ladder, whose hedge must
/// stay bit-deterministic — two fresh pipelined instances agree on
/// outcomes, digests, and simulated times, and hedge wins remain
/// oracle-correct.
#[test]
fn pipelined_hedging_is_bit_deterministic_across_instances() {
    let g = kronecker(9, 8, 5);
    let probe = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g).try_bfs(3).expect("probe");
    let worst = probe
        .level_trace
        .iter()
        .map(|l| l.expand_ms + l.queue_gen_ms)
        .fold(0.0f64, f64::max);
    let run_batch = |seed: u64| {
        let spec = FaultSpec {
            straggler_rate: 0.5,
            straggler_slowdown: 4.0,
            ..FaultSpec::uniform(seed, 0.0)
        };
        let cfg = MultiGpuConfig {
            faults: Some(spec),
            watchdog: WatchdogPolicy {
                level_deadline_ms: Some(1.5 * worst),
                ..WatchdogPolicy::default()
            },
            rebalance: RebalancePolicy::disabled(),
            ..MultiGpuConfig::k40s(4)
        };
        MultiGpuEnterprise::new(cfg, &g).batch(&queue(), &BatchPolicy::pipelined(4))
    };
    for seed in 0..20u64 {
        let a = run_batch(seed);
        assert!(a.accounted(), "seed {seed}: accounting broken");
        if a.hedge_wins == 0 {
            continue;
        }
        let b = run_batch(seed);
        assert_eq!(a.hedge_wins, b.hedge_wins);
        assert_eq!(a.hedges, b.hedges);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.batch_ms, b.batch_ms, "seed {seed}: pipelined batch timing diverged");
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.digest, y.digest, "seed {seed}: pipelined hedged digest diverged");
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.time_ms, y.time_ms);
        }
        for run in &a.runs {
            if let Some(r) = &run.result {
                assert_eq!(r.levels, cpu_levels(&g, run.source));
            }
        }
        return;
    }
    panic!("no seed in 0..20 produced a hedge win under Overlap(4)");
}

/// A pipelined batch killed with lanes in flight resumes from the
/// append-only ledger: the terminal outcomes recorded before the kill
/// replay as `resumed`, only the remainder executes, and digests match
/// an uninterrupted pipelined twin.
#[test]
fn killed_pipelined_batch_resumes_from_append_only_ledger() {
    let g = kronecker(9, 8, 5);
    let piped = BatchPolicy::pipelined(4);
    let dir = state_dir("resume-piped");
    let cfg = || MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&dir)),
        ..MultiGpuConfig::k40s(4)
    };
    let sources = queue();

    let twin_dir = state_dir("resume-piped-twin");
    let twin_cfg = MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&twin_dir)),
        ..MultiGpuConfig::k40s(4)
    };
    let twin = MultiGpuEnterprise::new(twin_cfg, &g).batch(&sources, &piped);
    assert_eq!(twin.completed, sources.len());

    // "Killed" process: both submitted sources were co-scheduled in the
    // pipeline; the ledger appended their outcomes as they drained.
    let partial = MultiGpuEnterprise::new(cfg(), &g).batch(&sources[..2], &piped);
    assert_eq!(partial.completed, 2);
    assert_eq!(partial.resumed, 0);

    // Restarted process: same store, full queue, still pipelined.
    let resumed = MultiGpuEnterprise::new(cfg(), &g).batch(&sources, &piped);
    assert!(resumed.accounted());
    assert_eq!(resumed.resumed, 2, "append-only ledger entries not replayed");
    assert_eq!(resumed.completed, sources.len());
    for (i, run) in resumed.runs.iter().enumerate() {
        assert_eq!(run.resumed, i < 2, "wrong sources replayed");
        if run.resumed {
            assert!(run.result.is_none(), "resumed source was re-run");
            assert_eq!(run.attempts, 0);
        }
        assert_eq!(run.digest, twin.runs[i].digest, "digest diverged across the pipelined kill");
    }
}

/// A batch that browns out its fleet, killed, must resume on the
/// *survivor* fleet: the durable fleet record re-evicts the lost
/// devices, the eviction-accounting invariant
/// `devices_lost == faults.devices_lost + link_isolated` holds for every
/// run on both sides of the kill, and the post-kill digests match an
/// uninterrupted twin that browned out the same way.
#[test]
fn degraded_batch_resumes_on_survivor_fleet() {
    let g = kronecker(9, 8, 5);
    let invariant = |run: &enterprise::SourceRun<enterprise::multi_gpu::MultiBfsResult>| {
        if let Some(r) = &run.result {
            assert_eq!(
                r.recovery.devices_lost.len(),
                r.recovery.faults.devices_lost as usize + r.recovery.link_isolated.len(),
                "source {}: eviction accounting broken",
                run.source
            );
        }
    };
    for seed in 0..40u64 {
        let spec = FaultSpec { device_loss_rate: 0.01, ..FaultSpec::none(seed) };
        let dir = state_dir(&format!("degraded-{seed}"));
        let cfg = |d: &PathBuf| MultiGpuConfig {
            faults: Some(spec),
            persist: Some(PersistPolicy::layout_only(d)),
            ..MultiGpuConfig::k40s(4)
        };
        let sources = queue();

        // "Killed" process: first two sources; need at least one device
        // lost for the scenario to be interesting.
        let mut sys = MultiGpuEnterprise::new(cfg(&dir), &g);
        let partial = sys.batch(&sources[..2], &BatchPolicy::on());
        assert!(partial.accounted(), "seed {seed}: accounting broken");
        let survivors = sys.alive_devices();
        if survivors == 4 || partial.completed < 2 {
            continue;
        }
        partial.runs.iter().for_each(&invariant);

        // Uninterrupted twin over the full queue (separate store).
        let twin_dir = state_dir(&format!("degraded-twin-{seed}"));
        let twin = MultiGpuEnterprise::new(cfg(&twin_dir), &g).batch(&sources, &BatchPolicy::on());
        assert!(twin.accounted());

        // Restarted process: the fleet record must re-evict before any
        // survivor runs, not restart on a full fleet.
        let mut resumed_sys = MultiGpuEnterprise::new(cfg(&dir), &g);
        let resumed = resumed_sys.batch(&sources, &BatchPolicy::on());
        assert!(resumed.accounted());
        assert_eq!(resumed.resumed, 2, "ledger entries not replayed");
        assert!(
            resumed_sys.alive_devices() <= survivors,
            "seed {seed}: resume restarted on a full fleet"
        );
        resumed.runs.iter().for_each(&invariant);
        for i in 2..sources.len() {
            assert!(!resumed.runs[i].resumed);
            assert_eq!(
                resumed.runs[i].digest, twin.runs[i].digest,
                "seed {seed}: post-kill source {} diverged from the uninterrupted twin",
                resumed.runs[i].source
            );
        }
        return;
    }
    panic!("no seed in 0..40 browned out the fleet inside the first two sources");
}
