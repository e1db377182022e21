//! Adaptive load rebalancing against performance faults (stragglers).
//!
//! The gpu-sim fault plane can arm per-device multiplicative slowdowns
//! (`FaultSpec::straggler_rate` / `straggler_slowdown`) and per-link
//! interconnect degradation. A straggler does not fail — every kernel
//! completes correctly — it just burns simulated wall-clock, and because
//! each BFS level ends in a barrier, one slow device drags the whole
//! fleet to its pace.
//!
//! This module is the detection half of the mitigation ladder described
//! in DESIGN.md §5f:
//!
//! 1. per-level per-device timing telemetry feeds an
//!    [`ImbalanceDetector`], which compares the slowest device's
//!    per-vertex cost against the fleet median;
//! 2. once the imbalance persists for a hysteresis streak, the detector
//!    emits throughput-proportional weights and the driver shifts the
//!    1-D partition boundaries (or collapses the 2-D grid to weighted
//!    1-D slices) using the same splice machinery that absorbs a device
//!    loss;
//! 3. a kernel-deadline overrun on a device the fault plane marked as a
//!    straggler (slow-but-alive, *not* lost) forces an immediate
//!    rebalance instead of burning the level-replay budget.
//!
//! The default [`RebalancePolicy`] is disabled and a strict no-op: no
//! telemetry is interpreted, no boundary moves, and timing and results
//! are bit-identical to a driver without the policy. Rebalancing never
//! changes traversal *results* — levels and depths match the clean run —
//! only the simulated timeline.

/// A device is suspect when its per-level busy time exceeds the fleet
/// median by this factor (the slowest/median ratio of §5f).
pub(crate) const IMBALANCE_THRESHOLD: f64 = 1.5;

/// Consecutive suspect levels required before acting (hysteresis): one
/// slow level — a frontier burst, a cache refill — must not move
/// partition boundaries.
pub(crate) const HYSTERESIS_LEVELS: u32 = 2;

/// Levels to wait after a rebalance before the detector may fire again,
/// letting the new boundaries produce fresh telemetry.
pub(crate) const COOLDOWN_LEVELS: u32 = 2;

/// Knobs for straggler detection and adaptive rebalancing. The detector
/// itself is fixed: it fires once the slowest device's busy time has
/// exceeded 1.5x the fleet median for 2 consecutive levels, then sits
/// out 2 levels (`IMBALANCE_THRESHOLD`, `HYSTERESIS_LEVELS`,
/// `COOLDOWN_LEVELS`).
#[derive(Clone, Copy, Debug)]
pub struct RebalancePolicy {
    /// Master switch. `false` (the default) is a strict no-op.
    pub enabled: bool,
    /// Hard cap on boundary moves per run; combined with the cooldown
    /// this bounds rebalance work even under adversarial timing.
    pub max_rebalances: u32,
    /// Per-level budget of interconnect slow-down time (milliseconds of
    /// [`FaultStats::link_slow_us`](gpu_sim::FaultStats::link_slow_us)
    /// growth per level) above which a level counts toward the
    /// degraded-link streak. `None` (the default) ignores link telemetry.
    pub link_slow_budget_ms: Option<f64>,
}

impl RebalancePolicy {
    /// The strict no-op policy (also [`Default`]).
    pub fn disabled() -> Self {
        Self { enabled: false, max_rebalances: 4, link_slow_budget_ms: None }
    }

    /// Adaptive rebalancing with the §5f defaults.
    pub fn on() -> Self {
        Self { enabled: true, ..Self::disabled() }
    }
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One device's telemetry for one completed level.
#[derive(Clone, Copy, Debug)]
pub struct DeviceTiming {
    /// Device id in the fleet.
    pub device: usize,
    /// Simulated milliseconds of kernel *execution* this device spent on
    /// the level's slice-proportional phase (the queue-generation scan;
    /// launch overheads, barrier waits and frontier-chasing expansion
    /// excluded — see the drivers' telemetry notes).
    pub busy_ms: f64,
    /// Work items the busy time paid for — the partition slice length,
    /// which the scan is exactly proportional to, making
    /// `busy_ms / work_items` a direct read of relative device speed.
    pub work_items: u64,
}

/// Streak-and-cooldown straggler detector over per-level telemetry.
///
/// Created per run; [`observe`](Self::observe) is fed once per completed
/// level and returns throughput-proportional weights when a rebalance
/// should happen. All state is integer/compare logic over simulated
/// times, so detection is exactly as deterministic as the timeline it
/// watches.
#[derive(Debug)]
pub struct ImbalanceDetector {
    policy: RebalancePolicy,
    streak: u32,
    cooldown: u32,
    fired: u32,
    link_streak: u32,
}

impl ImbalanceDetector {
    /// A fresh detector for one run under `policy`.
    pub fn new(policy: RebalancePolicy) -> Self {
        Self { policy, streak: 0, cooldown: 0, fired: 0, link_streak: 0 }
    }

    /// Rebalances fired so far (confirmed detections that were allowed
    /// to act).
    pub fn fired(&self) -> u32 {
        self.fired
    }

    /// Feeds one level of telemetry. Returns `Some(weights)` — one
    /// `(device, weight)` per input entry, weight proportional to the
    /// device's measured throughput — when the imbalance has persisted
    /// for the hysteresis streak, the cooldown has expired, and the
    /// rebalance cap is not exhausted. Levels with degenerate telemetry
    /// (fewer than two devices, zero work or zero busy time) carry no
    /// signal and leave the streak untouched.
    pub fn observe(&mut self, timings: &[DeviceTiming]) -> Option<Vec<(usize, f64)>> {
        if !self.policy.enabled {
            return None;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if timings.len() < 2
            || timings.iter().any(|t| t.busy_ms <= 0.0 || t.work_items == 0)
        {
            return None;
        }
        // The straggler signal is the slowest device's *busy time*
        // against the fleet median. (Not per-item cost: a device with
        // a deliberately small slice amortizes its fixed per-level
        // overhead over few items, so a cost ratio would keep firing on
        // an already-mitigated straggler forever. Busy time is what the
        // barrier waits on, and it converges once the boundaries match
        // the throughputs.)
        let mut costs: Vec<f64> = timings.iter().map(|t| t.busy_ms).collect();
        let slowest = costs.iter().cloned().fold(0.0f64, f64::max);
        costs.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
        // True median (middle-pair mean on even fleets): taking the
        // upper-middle element would let one merely-busy device mask a
        // genuine straggler on a 4-GPU fleet.
        let mid = costs.len() / 2;
        let median = if costs.len() % 2 == 0 {
            (costs[mid - 1] + costs[mid]) / 2.0
        } else {
            costs[mid]
        };
        if median <= 0.0 || slowest < IMBALANCE_THRESHOLD * median {
            self.streak = 0;
            return None;
        }
        self.streak += 1;
        if self.streak < HYSTERESIS_LEVELS || self.fired >= self.policy.max_rebalances {
            return None;
        }
        self.arm_cooldown();
        Some(
            timings
                .iter()
                .map(|t| (t.device, t.work_items as f64 / t.busy_ms))
                .collect(),
        )
    }

    /// Feeds one level's interconnect-degradation telemetry: the growth
    /// of the fault plane's accumulated link slow-down over the level,
    /// in milliseconds. A degraded link stretches every exchange, which
    /// per-device busy time (exec clocks, barriers excluded) never sees —
    /// this folds that wire-side signal into the same
    /// streak/cooldown/cap ladder. Returns `true` when the overrun has
    /// persisted for the hysteresis streak and a rebalance should fire.
    /// Only [`observe`](Self::observe) ticks the cooldown down, so
    /// feeding both per level does not double-count it.
    pub fn observe_link(&mut self, slow_ms: f64) -> bool {
        let budget = match self.policy.link_slow_budget_ms {
            Some(b) if self.policy.enabled => b,
            _ => return false,
        };
        if self.cooldown > 0 {
            return false;
        }
        if slow_ms <= budget {
            self.link_streak = 0;
            return false;
        }
        self.link_streak += 1;
        if self.link_streak < HYSTERESIS_LEVELS || self.fired >= self.policy.max_rebalances {
            return false;
        }
        self.link_streak = 0;
        self.arm_cooldown();
        true
    }

    /// Forced detection from the watchdog's deadline classifier: a
    /// kernel-deadline overrun on a slow-but-alive device skips the
    /// hysteresis (the level cannot complete, so waiting for a streak
    /// just burns replay budget). Returns whether the rebalance cap
    /// still allows acting.
    pub fn force(&mut self) -> bool {
        if !self.policy.enabled || self.fired >= self.policy.max_rebalances {
            return false;
        }
        self.arm_cooldown();
        true
    }

    fn arm_cooldown(&mut self) {
        self.streak = 0;
        self.cooldown = COOLDOWN_LEVELS;
        self.fired += 1;
    }
}

/// Splits `n` vertices into contiguous slices proportional to `weights`
/// (one per device, in boundary order). Every slice gets at least one
/// vertex; rounding remainders accrete onto the last slice. Returns the
/// slice ranges in the same order as the weights.
pub(crate) fn weighted_slices(n: usize, weights: &[f64]) -> Vec<std::ops::Range<usize>> {
    assert!(!weights.is_empty() && n >= weights.len());
    let total: f64 = weights.iter().map(|w| w.max(f64::MIN_POSITIVE)).sum();
    let p = weights.len();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w.max(f64::MIN_POSITIVE) / total) * n as f64).floor() as usize)
        .map(|s| s.max(1))
        .collect();
    // Fix the rounding drift while keeping every slice non-empty.
    let mut assigned: usize = sizes.iter().sum();
    while assigned > n {
        let i = (0..p).max_by_key(|&i| sizes[i]).expect("non-empty");
        assert!(sizes[i] > 1, "cannot shrink below one vertex per device");
        sizes[i] -= 1;
        assigned -= 1;
    }
    if assigned < n {
        *sizes.last_mut().expect("non-empty") += n - assigned;
    }
    let mut out = Vec::with_capacity(p);
    let mut lo = 0usize;
    for s in sizes {
        out.push(lo..lo + s);
        lo += s;
    }
    assert_eq!(lo, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(costs: &[f64]) -> Vec<DeviceTiming> {
        costs
            .iter()
            .enumerate()
            .map(|(d, &c)| DeviceTiming { device: d, busy_ms: c, work_items: 100 })
            .collect()
    }

    #[test]
    fn disabled_policy_never_fires() {
        let mut det = ImbalanceDetector::new(RebalancePolicy::disabled());
        for _ in 0..10 {
            assert!(det.observe(&fleet(&[1.0, 1.0, 1.0, 40.0])).is_none());
        }
        assert!(!det.force());
        assert_eq!(det.fired(), 0);
    }

    #[test]
    fn hysteresis_requires_a_streak() {
        let mut det = ImbalanceDetector::new(RebalancePolicy::on());
        let skew = fleet(&[1.0, 1.0, 1.0, 4.0]);
        assert!(det.observe(&skew).is_none(), "first suspect level must not fire");
        // A clean level in between resets the streak.
        assert!(det.observe(&fleet(&[1.0, 1.0, 1.0, 1.0])).is_none());
        assert!(det.observe(&skew).is_none());
        let w = det.observe(&skew).expect("second consecutive suspect level fires");
        assert_eq!(w.len(), 4);
        // Weights are throughputs: the straggler gets 1/4 the share.
        assert!((w[3].1 / w[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cooldown_and_cap_bound_the_rebalance_count() {
        let policy = RebalancePolicy { max_rebalances: 2, ..RebalancePolicy::on() };
        let mut det = ImbalanceDetector::new(policy);
        let skew = fleet(&[1.0, 1.0, 4.0]);
        let mut fired = 0;
        for _ in 0..100 {
            if det.observe(&skew).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, policy.max_rebalances);
        assert_eq!(det.fired(), policy.max_rebalances);
        assert!(!det.force(), "the cap also bounds forced rebalances");
    }

    #[test]
    fn degenerate_telemetry_is_skipped() {
        let mut det = ImbalanceDetector::new(RebalancePolicy::on());
        assert!(det.observe(&fleet(&[5.0])).is_none(), "one device has no peers");
        let mut zero_work = fleet(&[1.0, 4.0]);
        zero_work[0].work_items = 0;
        for _ in 0..10 {
            assert!(det.observe(&zero_work).is_none());
        }
    }

    #[test]
    fn link_telemetry_needs_budget_streak_and_cap() {
        // No budget configured: link telemetry is ignored even when on.
        let mut det = ImbalanceDetector::new(RebalancePolicy::on());
        for _ in 0..10 {
            assert!(!det.observe_link(1e6));
        }
        // Budget configured but policy disabled: still a no-op.
        let mut det = ImbalanceDetector::new(RebalancePolicy {
            link_slow_budget_ms: Some(0.5),
            ..RebalancePolicy::disabled()
        });
        for _ in 0..10 {
            assert!(!det.observe_link(1e6));
        }
        let policy = RebalancePolicy {
            link_slow_budget_ms: Some(0.5),
            max_rebalances: 2,
            ..RebalancePolicy::on()
        };
        let mut det = ImbalanceDetector::new(policy);
        assert!(!det.observe_link(2.0), "first overrun level must not fire");
        assert!(!det.observe_link(0.1), "an in-budget level resets the streak");
        assert!(!det.observe_link(2.0));
        assert!(det.observe_link(2.0), "second consecutive overrun fires");
        assert_eq!(det.fired(), 1);
        // Cooldown: only observe() ticks it down.
        assert!(!det.observe_link(2.0));
        let clean = fleet(&[1.0, 1.0]);
        det.observe(&clean);
        det.observe(&clean);
        assert!(!det.observe_link(2.0));
        assert!(det.observe_link(2.0));
        // The shared cap also bounds link-driven rebalances.
        det.observe(&clean);
        det.observe(&clean);
        assert!(!det.observe_link(2.0));
        assert!(!det.observe_link(2.0));
        assert_eq!(det.fired(), policy.max_rebalances);
    }

    #[test]
    fn weighted_slices_tile_and_respect_weights() {
        let slices = weighted_slices(1000, &[1.0, 1.0, 1.0, 0.25]);
        assert_eq!(slices[0].start, 0);
        assert_eq!(slices.last().unwrap().end, 1000);
        for w in slices.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(slices[3].len() < slices[0].len() / 2, "{slices:?}");
        // Extreme weights still leave every device at least one vertex.
        let tiny = weighted_slices(4, &[1e9, 1e-9, 1e-9, 1e-9]);
        assert!(tiny.iter().all(|r| !r.is_empty()), "{tiny:?}");
    }
}
