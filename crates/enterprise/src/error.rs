//! Typed errors and recovery accounting for fault-tolerant traversal.
//!
//! The one fleet driver ([`crate::multi_gpu::Fleet`]) runs every partition
//! shape, the single GPU included, against a device substrate that can
//! fail: allocations may be denied (real OOM or an injected fault), kernel
//! launches may abort transiently, and interconnect exchanges may drop or
//! corrupt a compressed bitmap. This module defines the error type the
//! driver propagates, the knobs bounding how hard it tries to recover,
//! and the counters reporting what recovery actually happened.

use crate::persist::PersistError;
use crate::validate::ValidationError;
use enterprise_graph::VertexId;
use gpu_sim::{DeviceError, FaultStats};

/// An unrecovered failure of a BFS run.
#[derive(Debug, Clone)]
pub enum BfsError {
    /// The graph has fewer vertices than the fleet has devices, so some
    /// device would own no vertex. Checked at setup, before any device
    /// allocation.
    TooFewVertices {
        /// Vertices in the graph.
        vertices: usize,
        /// Devices in the fleet's shape.
        devices: usize,
    },
    /// The requested source is not a vertex of the bound graph. Checked
    /// before anything runs, so the driver's state is untouched.
    SourceOutOfRange {
        /// The rejected source.
        source: VertexId,
        /// Vertices in the bound graph.
        vertices: usize,
    },
    /// A device operation failed outside any replayable region (setup
    /// allocation, graph upload).
    Device(DeviceError),
    /// A level was replayed `attempts` times and still failed; `last` is
    /// the final device error observed.
    LevelRetriesExhausted {
        /// Level that could not be completed.
        level: u32,
        /// Replay attempts consumed (including the first run).
        attempts: u32,
        /// The device error that ended the final attempt.
        last: DeviceError,
    },
    /// A bitmap exchange kept dropping/corrupting past the retry budget
    /// ([`crate::route`]'s `MAX_EXCHANGE_RETRIES`).
    ExchangeRetriesExhausted {
        /// Level whose merge exchange failed.
        level: u32,
        /// Retries consumed.
        attempts: u32,
    },
    /// The end-of-run validation gate failed even after a full replay.
    ValidationFailedAfterReplay(ValidationError),
    /// The watchdog declared the traversal hung: either the level counter
    /// exceeded its cap, or the frontier stayed non-empty for
    /// `stalled_levels` consecutive levels without any growth in the
    /// visited count. Hangs are terminal (a deterministic livelock
    /// replays identically), so drivers surface them immediately;
    /// [`crate::Enterprise::run_resilient`] degrades to the CPU baseline.
    Hang {
        /// Level at which the hang was declared.
        level: u32,
        /// Frontier size still pending when the hang was declared.
        frontier: usize,
        /// Consecutive no-progress levels observed (`0` when the hang
        /// came from the level-counter cap rather than the stall
        /// detector).
        stalled_levels: u32,
    },
    /// A level kept exceeding its simulated-time deadline
    /// ([`crate::watchdog::WatchdogPolicy::level_deadline_ms`]) through
    /// every checkpoint replay the recovery budget allowed.
    Deadline {
        /// Level that could not be completed within budget.
        level: u32,
        /// Attempts consumed (including the first run).
        attempts: u32,
        /// Simulated milliseconds the final attempt took.
        elapsed_ms: f64,
        /// The per-level budget in simulated milliseconds.
        budget_ms: f64,
    },
    /// Every route out of a device is down: its direct links, every
    /// two-hop relay through a peer, and the host bounce lane all failed
    /// the probe ladder in [`crate::route`]. The drivers treat this as a
    /// migration trigger — the isolated device's partition is spliced
    /// onto reachable survivors via the eviction path *before* the
    /// watchdog would have declared the device dead — so this error only
    /// surfaces when that escalation itself cannot proceed.
    LinkIsolated {
        /// Level at which isolation was established.
        level: u32,
        /// The device (dense index) that no route could reach.
        device: usize,
    },
    /// The device-eviction budget is exhausted: another device died
    /// permanently, but evicting it would leave fewer than
    /// [`RecoveryPolicy::min_surviving_devices`] survivors. The multi-GPU
    /// drivers surface this only after eviction + live repartitioning has
    /// already absorbed every loss the budget allowed;
    /// [`crate::multi_gpu::MultiGpuEnterprise::bfs`] then degrades to the
    /// CPU baseline.
    AllDevicesLost {
        /// Level at which the final, unabsorbable loss occurred.
        level: u32,
        /// Devices lost in total, including the final one.
        lost: u32,
    },
}

impl std::fmt::Display for BfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BfsError::TooFewVertices { vertices, devices } => {
                write!(f, "graph has {vertices} vertices, fewer than its {devices} devices")
            }
            BfsError::SourceOutOfRange { source, vertices } => {
                write!(f, "source {source} is out of range ({vertices} vertices)")
            }
            BfsError::Device(e) => write!(f, "device error: {e}"),
            BfsError::LevelRetriesExhausted { level, attempts, last } => {
                write!(f, "level {level} failed after {attempts} attempts: {last}")
            }
            BfsError::ExchangeRetriesExhausted { level, attempts } => {
                write!(f, "bitmap exchange at level {level} failed {attempts} retries")
            }
            BfsError::ValidationFailedAfterReplay(e) => {
                write!(f, "validation failed even after replay: {e}")
            }
            BfsError::Hang { level, frontier, stalled_levels } => {
                if *stalled_levels > 0 {
                    write!(
                        f,
                        "traversal hung at level {level}: {frontier} frontier vertices pending \
                         with no visited progress for {stalled_levels} consecutive levels"
                    )
                } else {
                    write!(
                        f,
                        "traversal hung: level counter reached {level} with {frontier} frontier \
                         vertices still pending (level cap exceeded)"
                    )
                }
            }
            BfsError::Deadline { level, attempts, elapsed_ms, budget_ms } => {
                write!(
                    f,
                    "level {level} exceeded its simulated-time deadline after {attempts} \
                     attempts: {elapsed_ms:.3} ms elapsed vs {budget_ms:.3} ms budget"
                )
            }
            BfsError::LinkIsolated { level, device } => {
                write!(
                    f,
                    "device {device} is link-isolated at level {level}: direct links, relay \
                     peers and the host bounce lane are all down"
                )
            }
            BfsError::AllDevicesLost { level, lost } => {
                write!(
                    f,
                    "device-eviction budget exhausted at level {level}: {lost} devices \
                     permanently lost"
                )
            }
        }
    }
}

impl std::error::Error for BfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BfsError::Device(e) | BfsError::LevelRetriesExhausted { last: e, .. } => Some(e),
            BfsError::ValidationFailedAfterReplay(e) => Some(e),
            BfsError::TooFewVertices { .. }
            | BfsError::SourceOutOfRange { .. }
            | BfsError::ExchangeRetriesExhausted { .. }
            | BfsError::Hang { .. }
            | BfsError::Deadline { .. }
            | BfsError::LinkIsolated { .. }
            | BfsError::AllDevicesLost { .. } => None,
        }
    }
}

impl From<DeviceError> for BfsError {
    fn from(e: DeviceError) -> Self {
        BfsError::Device(e)
    }
}

/// Bounds on the recovery machinery. Defaults are generous enough that a
/// 20% per-launch fault rate with in-driver relaunch disabled still
/// converges on reproduction-scale graphs, yet small enough that a
/// permanently failing substrate errors out quickly. The exchange retry
/// budget and the retry backoff schedule are constants
/// (`route::MAX_EXCHANGE_RETRIES` and `Backoff`).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Replays allowed per level after a device error (on top of the
    /// first attempt).
    pub max_level_retries: u32,
    /// Eviction budget for permanent device loss: a loss is absorbed by
    /// repartitioning only while at least this many devices would
    /// survive. The default of 1 lets a multi-GPU traversal degrade all
    /// the way down to a single GPU before
    /// [`BfsError::AllDevicesLost`] is surfaced.
    pub min_surviving_devices: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_level_retries: 12, min_surviving_devices: 1 }
    }
}

/// The one retry backoff schedule. Every retry ladder — an exchange
/// re-send, a link probe, a batch source re-run — waits
/// [`Backoff::FIRST_MS`] of simulated time before its first retry and
/// doubles the wait for each retry after that.
#[derive(Debug)]
pub(crate) struct Backoff {
    next_ms: f64,
}

impl Backoff {
    /// Simulated wait before the first retry, in milliseconds.
    pub(crate) const FIRST_MS: f64 = 0.05;

    /// A fresh schedule, at its first wait.
    pub(crate) fn new() -> Self {
        Self { next_ms: Self::FIRST_MS }
    }

    /// The next wait, without taking it.
    pub(crate) fn peek(&self) -> f64 {
        self.next_ms
    }

    /// Takes the next wait and doubles the one after.
    pub(crate) fn take(&mut self) -> f64 {
        let ms = self.next_ms;
        self.next_ms *= 2.0;
        ms
    }
}

/// What recovery actually happened during one run, in the same
/// counter-style as [`gpu_sim::DeviceReport`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Levels replayed from their checkpoint after a device error.
    pub levels_replayed: u32,
    /// Bitmap exchanges re-sent after a detected drop/corruption.
    pub exchange_retries: u32,
    /// Full-run replays triggered by the validation gate.
    pub validation_replays: u32,
    /// Whether the run fell back to the host CPU baseline.
    pub cpu_fallback: bool,
    /// Total simulated backoff added to the timeline, in milliseconds.
    pub backoff_ms: f64,
    /// Devices permanently lost and evicted during the run, in eviction
    /// order (the traversal finished on the survivors).
    pub devices_lost: Vec<usize>,
    /// Total simulated time spent repartitioning after evictions
    /// (re-uploading the lost CSR slices and splicing state), in
    /// milliseconds; already charged to the surviving timelines.
    pub repartition_ms: f64,
    /// Raw injected-fault counters from the device substrate.
    pub faults: FaultStats,
    /// Vertices the end-of-level verifier flagged as silently corrupted
    /// (each flagged vertex counts once per detection event).
    pub sdc_detected: u64,
    /// Flagged vertices healed in place by localized repair from the
    /// level checkpoint, without a full level replay.
    pub sdc_repaired: u64,
    /// Times the imbalance detector confirmed a straggler (a device whose
    /// per-level throughput fell below the
    /// [`RebalancePolicy`](crate::rebalance::RebalancePolicy) ratio for
    /// the full hysteresis streak, or a kernel-deadline overrun on a
    /// slow-but-alive device).
    pub stragglers_detected: u32,
    /// Live boundary-shifting repartitions executed to rebalance work
    /// toward faster devices (never more than
    /// [`RebalancePolicy::max_rebalances`](crate::rebalance::RebalancePolicy::max_rebalances)).
    pub rebalances: u32,
    /// Total simulated time spent moving partition slices during
    /// rebalances, in milliseconds; already charged to the device
    /// timelines.
    pub rebalance_ms: f64,
    /// Durable snapshots (layout or mid-traversal checkpoint) successfully
    /// published to the state directory during this run.
    pub snapshots_persisted: u32,
    /// When the run resumed from a durable mid-traversal checkpoint, the
    /// level it resumed at; `None` for cold starts.
    pub resumed_at_level: Option<u32>,
    /// Whether the driver instance warm-started from a persisted layout
    /// snapshot (skipping hub measurement and reusing learned boundaries).
    pub warm_restart: bool,
    /// Persistence failures that were absorbed by degrading to a cold
    /// start (torn/corrupt/stale snapshots, filesystem errors). Never
    /// fatal; recorded so campaigns can audit durability health.
    pub snapshot_errors: Vec<PersistError>,
    /// Times degraded-link telemetry (not compute-timing skew) tripped the
    /// imbalance detector and armed a rebalance.
    pub link_slow_detections: u32,
    /// Probe re-sends the exchange router spent waiting out transient or
    /// flapping links (bounded retry with exponential backoff), across
    /// every exchange of the run.
    pub link_retries: u32,
    /// Exchanges that abandoned a down direct link and crossed via a
    /// two-hop relay through a healthy peer instead.
    pub link_reroutes: u32,
    /// Exchanges that skipped the probe rung entirely because a carried
    /// link verdict (this run or an earlier source of the same batch)
    /// had already judged the link hard-down.
    pub link_verdict_hits: u32,
    /// Exchanges that fell all the way to the host-staged bounce path
    /// (both relay legs down too); each is charged two host-lane legs.
    pub host_bounces: u32,
    /// Devices whose partitions were migrated onto reachable survivors
    /// because every route to them was down (link isolation), in
    /// migration order. Each such device also appears in
    /// [`devices_lost`](Self::devices_lost) — the splice path is shared —
    /// but here the trigger was routing, not the watchdog.
    pub link_isolated: Vec<usize>,
}

impl RecoveryReport {
    /// Total recovery actions taken (replays + re-sends + validation
    /// replays + device evictions + rebalances), not counting in-driver
    /// kernel relaunches.
    pub fn total_recoveries(&self) -> u32 {
        self.levels_replayed
            + self.exchange_retries
            + self.validation_replays
            + self.devices_lost.len() as u32
            + self.rebalances
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_each_variant() {
        let dev = DeviceError::KernelFault { device: 1, kernel: "Warp".into(), launch_index: 7 };
        assert!(BfsError::Device(dev.clone()).to_string().contains("device error"));
        let s = BfsError::LevelRetriesExhausted { level: 3, attempts: 5, last: dev }.to_string();
        assert!(s.contains("level 3") && s.contains("5 attempts"), "{s}");
        let s = BfsError::ExchangeRetriesExhausted { level: 2, attempts: 9 }.to_string();
        assert!(s.contains("level 2") && s.contains('9'), "{s}");
        let s = BfsError::Hang { level: 4, frontier: 17, stalled_levels: 3 }.to_string();
        assert!(s.contains("hung at level 4") && s.contains("3 consecutive"), "{s}");
        let s = BfsError::Hang { level: 101, frontier: 1, stalled_levels: 0 }.to_string();
        assert!(s.contains("level cap"), "{s}");
        let s = BfsError::Deadline { level: 2, attempts: 13, elapsed_ms: 5.5, budget_ms: 1.0 }
            .to_string();
        assert!(s.contains("level 2") && s.contains("deadline") && s.contains("13"), "{s}");
        let s = BfsError::AllDevicesLost { level: 6, lost: 3 }.to_string();
        assert!(s.contains("level 6") && s.contains("3 devices"), "{s}");
        let s = BfsError::LinkIsolated { level: 5, device: 2 }.to_string();
        assert!(s.contains("device 2") && s.contains("link-isolated"), "{s}");
        let s = BfsError::SourceOutOfRange { source: 9, vertices: 9 }.to_string();
        assert!(s.contains("source 9") && s.contains("out of range"), "{s}");
        let s = BfsError::TooFewVertices { vertices: 3, devices: 4 }.to_string();
        assert!(s.contains("3 vertices") && s.contains("4 devices"), "{s}");
    }

    #[test]
    fn recovery_report_totals() {
        let r = RecoveryReport {
            levels_replayed: 2,
            exchange_retries: 3,
            validation_replays: 1,
            devices_lost: vec![1, 3],
            rebalances: 2,
            ..Default::default()
        };
        assert_eq!(r.total_recoveries(), 10);
    }

    #[test]
    fn default_policy_is_bounded() {
        let p = RecoveryPolicy::default();
        assert!(p.max_level_retries > 0);
        assert!(p.min_surviving_devices >= 1);
        let mut backoff = Backoff::new();
        assert_eq!(backoff.peek(), Backoff::FIRST_MS);
        assert_eq!([backoff.take(), backoff.take(), backoff.take()], [0.05, 0.1, 0.2]);
    }
}
