//! Batch serving-plane harness (DESIGN.md §5i; not a paper figure).
//!
//! Three modes over the 1-D multi-GPU driver:
//!
//! * **Default** — fault-free cold / warm / pipelined comparison. The
//!   warm column runs every source as one [`BatchPolicy::on`] batch on
//!   a single fleet: setup (graph staging + hub census) is paid once
//!   and the learned layout is reused across sources. The cold column
//!   rebuilds the fleet per source, paying the census on the simulated
//!   device clock and the CSR staging over the modeled host link every
//!   time (the simulator charges kernels but not host→device copies,
//!   so staging is modeled from [`gpu_sim::InterconnectConfig`]'s host
//!   lane). The pipelined column re-runs the warm batch under
//!   [`BatchPolicy::pipelined`]`(4)`: four lanes share one fused kernel
//!   sweep per level, so the scan-floor-bound tail levels of finishing
//!   sources overlap instead of serializing. All columns must produce
//!   bit-identical digests; the warm batch must aggregate >= 1.2x the
//!   cold TEPS, and the pipelined batch >= 1.2x the warm simulated
//!   wall-time.
//!
//! * **`--chaos`** — the compound-chaos acceptance drill: device loss,
//!   severed/flapping links, silent bit flips, a 4x straggler draw, and
//!   torn/corrupted snapshot writes all armed at once, with the serving
//!   plane supervising the batch (retries, hedging on slow-but-alive
//!   sources, brownout on the shrinking fleet, durable outcome ledger).
//!   Asserts the accounting invariant
//!   `completed + hedge_wins + poisoned + shed == sources` and checks
//!   every ok outcome against the CPU oracle.
//!
//! * **`--state-dir=DIR [--kill-after=N]`** — kill/resume drill
//!   (fault-free). With `--kill-after=N` the batch runs only its first
//!   N sources — the ledger records them — and exits with status 3; a
//!   restart resumes from the ledger and executes only the remainder.
//!   One stdout line per source *executed in this process*:
//!
//!   ```text
//!   index=<i> source=<s> outcome=<o> digest=<hex>
//!   ```
//!
//!   so the concatenated stdout of any kill/restart sequence equals the
//!   stdout of one uninterrupted run. Timing goes to stderr only.
//!
//! `--pipeline=W` arms `Overlap(W)` lanes in the chaos and drill modes
//! (the default mode always benches both plans). `ENTERPRISE_SOURCES`
//! (default 8; the paper batch is 64), `ENTERPRISE_SEED`, and
//! `ENTERPRISE_GPUS` (default 4) as in the other regenerators.

use bench::{arg_value, env_parse, fmt_teps, pick_sources, run_seed, Table};
use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, FaultSpec, PersistPolicy, RebalancePolicy, RoutePolicy,
    SourceOutcome, VerifyPolicy, WatchdogPolicy,
};
use enterprise_graph::gen::kronecker;
use enterprise_graph::Csr;
use std::path::PathBuf;

fn outcome_name(o: &SourceOutcome) -> &'static str {
    match o {
        SourceOutcome::Completed => "completed",
        SourceOutcome::HedgeWin => "hedge_win",
        SourceOutcome::Poisoned(_) => "poisoned",
        SourceOutcome::Shed => "shed",
    }
}

fn summary<R>(r: &BatchReport<R>) -> String {
    format!(
        "sources={} completed={} hedge_wins={} poisoned={} shed={} retries={} hedges={} \
         resumed={} accounted={}",
        r.sources,
        r.completed,
        r.hedge_wins,
        r.poisoned,
        r.shed,
        r.retries,
        r.hedges,
        r.resumed,
        r.accounted(),
    )
}

/// Host-link staging cost of shipping the CSR to a fresh fleet, in
/// simulated milliseconds. The simulator charges kernel time but treats
/// host→device copies as free, so the cold column models them over the
/// fleet interconnect's host lane: one latency hit plus the four CSR
/// arrays (out/in offsets and adjacency) at host-link bandwidth.
fn staging_ms(g: &Csr) -> f64 {
    let ic = gpu_sim::InterconnectConfig::default();
    let words = 2 * (g.vertex_count() as u64 + 1) + 2 * g.edge_count();
    let bytes = words * 4;
    ic.host_latency_us / 1e3 + bytes as f64 / (ic.host_bandwidth_gbs * 1e9) * 1e3
}

/// Fault-free cold / warm / pipelined comparison; returns
/// (piped_teps, warm_teps, cold_teps).
fn warm_vs_cold(g: &Csr, gpus: usize, sources: &[BatchSource]) -> (f64, f64, f64) {
    // Warm: one fleet, one batch. Setup (hub census) is on the device
    // clock right after construction and is paid exactly once.
    let mut warm_sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), g);
    let warm_setup = warm_sys.sim_elapsed_ms() + staging_ms(g);
    let report = warm_sys.batch(sources, &BatchPolicy::on());
    assert!(report.accounted(), "warm batch accounting broken: {}", summary(&report));
    assert_eq!(report.completed, sources.len(), "fault-free warm batch must complete all");
    let edges: u64 =
        report.runs.iter().filter_map(|r| r.result.as_ref()).map(|r| r.traversed_edges).sum();
    let warm_ms = warm_setup + report.batch_ms;

    // Pipelined: the same warm fleet plan, but four lanes share each
    // kernel sweep, so the tail levels of one source overlap the next.
    let mut piped_sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), g);
    let piped_setup = piped_sys.sim_elapsed_ms() + staging_ms(g);
    let piped = piped_sys.batch(sources, &BatchPolicy::pipelined(4));
    assert!(piped.accounted(), "pipelined batch accounting broken: {}", summary(&piped));
    assert_eq!(piped.completed, sources.len(), "fault-free pipelined batch must complete all");
    for (w, p) in report.runs.iter().zip(&piped.runs) {
        assert_eq!(p.digest, w.digest, "warm and pipelined disagree on source {}", w.source);
    }
    let piped_ms = piped_setup + piped.batch_ms;

    // Cold: a fresh fleet per source — census re-measured on the device
    // clock, CSR re-staged over the host link, nothing reused.
    let mut cold_ms = 0.0f64;
    for (i, bs) in sources.iter().enumerate() {
        let stage = staging_ms(g);
        let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), g);
        let setup = sys.sim_elapsed_ms();
        let r = sys.try_bfs(bs.source).expect("fault-free cold run failed");
        cold_ms += stage + setup + r.time_ms;
        let digest = bench::result_digest(&r.levels, &r.parents);
        assert_eq!(
            digest, report.runs[i].digest,
            "warm and cold disagree on source {}",
            bs.source
        );
    }
    (
        edges as f64 / (piped_ms / 1e3),
        edges as f64 / (warm_ms / 1e3),
        edges as f64 / (cold_ms / 1e3),
    )
}

/// Compound-chaos batch: every fault plane armed at once under the
/// serving plane. Returns the report for the summary printout.
fn chaos_batch(
    g: &Csr,
    gpus: usize,
    sources: &[BatchSource],
    seed: u64,
    state_dir: &std::path::Path,
    policy: &BatchPolicy,
) {
    // Calibrate the hedge trigger off a fault-free probe: a level
    // deadline at 3x the slowest clean level converts a 4x straggler
    // draw into a slow-but-alive classification (overrun ~4/3, well
    // under the 16x hedge threshold) without tripping on clean runs.
    let probe = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), g)
        .try_bfs(sources[0].source)
        .expect("fault-free probe failed");
    let worst_level_ms = probe
        .level_trace
        .iter()
        .map(|l| l.expand_ms + l.queue_gen_ms)
        .fold(0.0f64, f64::max);
    let level_deadline_ms = 3.0 * worst_level_ms;

    // Loss rate sized for a *batch*: brownout never revives a lost
    // device, so the per-launch rate compounds over every source in the
    // queue — 4e-4 loses roughly one to two devices across a 64-source
    // batch instead of burning the whole fleet halfway through.
    let spec = FaultSpec {
        device_loss_rate: 0.0004,
        link_down_rate: 0.10,
        link_flap_rate: 0.10,
        link_flap_period_levels: enterprise::CHAOS_LINK_FLAP_PERIOD_LEVELS,
        bitflip_rate: 0.05,
        straggler_rate: 0.3,
        straggler_slowdown: 4.0,
        torn_write_rate: 0.3,
        snapshot_corrupt_rate: 0.3,
        ..FaultSpec::none(seed)
    };
    let _ = std::fs::remove_dir_all(state_dir);
    let cfg = MultiGpuConfig {
        faults: Some(spec),
        verify: VerifyPolicy::full(),
        sanitize: false,
        rebalance: RebalancePolicy::on(),
        route: RoutePolicy::on(),
        watchdog: WatchdogPolicy {
            level_deadline_ms: Some(level_deadline_ms),
            ..WatchdogPolicy::default()
        },
        persist: Some(PersistPolicy::with_checkpoints(state_dir, 1)),
        ..MultiGpuConfig::k40s(gpus)
    };
    let mut sys = MultiGpuEnterprise::new(cfg, g);
    let report = sys.batch(sources, policy);

    assert!(report.accounted(), "chaos batch accounting broken: {}", summary(&report));
    // Every non-poisoned, non-shed source must be oracle-correct — the
    // serving plane isolates faults, it never trades correctness.
    let mut audited = 0usize;
    for run in &report.runs {
        if let Some(r) = &run.result {
            assert_eq!(
                r.levels,
                cpu_levels(g, run.source),
                "source {} survived chaos with a wrong result",
                run.source
            );
            audited += 1;
        }
    }
    eprintln!(
        "chaos: {} ok outcome(s) audited against the oracle, fleet ended with {} device(s) alive",
        audited,
        sys.alive_devices(),
    );
    println!("{}", summary(&report));
}

/// Kill/resume drill: fault-free batch with the durable outcome ledger
/// armed; prints one line per source executed in *this* process.
fn drill(
    g: &Csr,
    gpus: usize,
    sources: &[BatchSource],
    state_dir: PathBuf,
    kill_after: Option<usize>,
    policy: &BatchPolicy,
) {
    std::fs::create_dir_all(&state_dir).expect("create state dir");
    let cfg = MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&state_dir)),
        ..MultiGpuConfig::k40s(gpus)
    };
    let mut sys = MultiGpuEnterprise::new(cfg, g);
    // The scripted kill: run only the batch's first N sources, so the
    // ledger records exactly them, then die. Priorities are uniform, so
    // execution order is submission order and a prefix of the queue is
    // a prefix of the execution.
    let submitted: &[BatchSource] = match kill_after {
        Some(n) => &sources[..n.min(sources.len())],
        None => sources,
    };
    let report = sys.batch(submitted, policy);
    assert!(report.accounted(), "drill accounting broken: {}", summary(&report));
    for (i, run) in report.runs.iter().enumerate() {
        if run.resumed {
            continue;
        }
        println!(
            "index={i} source={} outcome={} digest={:016x}",
            run.source,
            outcome_name(&run.outcome),
            run.digest,
        );
    }
    eprintln!("{}", summary(&report));
    if kill_after.is_some() {
        eprintln!("simulated crash after {} source(s); ledger left in place", submitted.len());
        std::process::exit(3);
    }
}

fn main() {
    let seed = run_seed();
    let gpus = env_parse("ENTERPRISE_GPUS", 4usize);
    let n_sources = bench::source_count();
    let chaos = std::env::args().any(|a| a == "--chaos");
    let state_dir = arg_value("state-dir").map(PathBuf::from);
    let kill_after: Option<usize> =
        arg_value("kill-after").map(|s| s.parse().expect("invalid --kill-after"));
    let policy = match arg_value("pipeline") {
        Some(w) => BatchPolicy::pipelined(w.parse().expect("invalid --pipeline")),
        None => BatchPolicy::on(),
    };

    if chaos {
        // Scale 10 keeps 64 compound-chaos sources (each up to 4
        // attempts) inside CI wall-clock while leaving every per-device
        // slice above the scan-grid floor (DESIGN.md §5f).
        let g = kronecker(10, 8, seed ^ 1);
        let sources: Vec<BatchSource> = pick_sources(&g, n_sources, seed ^ 0xba7c)
            .into_iter()
            .enumerate()
            .map(|(i, s)| BatchSource::with_priority(s, (i % 4) as u32))
            .collect();
        let dir = state_dir
            .unwrap_or_else(|| std::env::temp_dir().join(format!("enterprise-batch-chaos-{seed}")));
        chaos_batch(&g, gpus, &sources, seed, &dir, &policy);
        return;
    }

    if let Some(dir) = state_dir {
        let g = kronecker(12, 16, seed);
        let sources: Vec<BatchSource> =
            pick_sources(&g, n_sources, seed ^ 0xba7c).into_iter().map(BatchSource::new).collect();
        drill(&g, gpus, &sources, dir, kill_after, &policy);
        return;
    }

    let g = kronecker(12, 16, seed);
    let sources: Vec<BatchSource> =
        pick_sources(&g, n_sources, seed ^ 0xba7c).into_iter().map(BatchSource::new).collect();
    let (piped, warm, cold) = warm_vs_cold(&g, gpus, &sources);
    let mut t = Table::new(vec!["mode", "TEPS", "speedup"]);
    t.row(vec!["cold (fleet per source)".to_string(), fmt_teps(cold), "1.0x".into()]);
    t.row(vec!["warm (one batch)".to_string(), fmt_teps(warm), format!("{:.2}x", warm / cold)]);
    t.row(vec![
        "pipelined (Overlap(4) lanes)".to_string(),
        fmt_teps(piped),
        format!("{:.2}x", piped / cold),
    ]);
    println!(
        "Warm-batch amortization (kron-12, {gpus} GPUs, {n_sources} sources, seed {seed})"
    );
    println!("{}", t.render());
    println!(
        "cold = per-source fleet build: CSR re-staged over the host link and the hub census \
         re-measured every time; warm = one serving-plane batch reusing both; pipelined = the \
         same warm batch with four MS-BFS lanes sharing each kernel sweep"
    );
    assert!(
        warm >= 1.2 * cold,
        "warm batch must aggregate >= 1.2x cold TEPS (got {:.2}x)",
        warm / cold
    );
    assert!(
        piped >= 1.2 * warm,
        "pipelined batch must beat the sequential warm plane by >= 1.2x simulated wall-time \
         (got {:.2}x)",
        piped / warm
    );
}
