//! Topology-aware exchange routing over the per-link fault plane.
//!
//! The multi-GPU drivers move every frontier across the interconnect
//! once per level. With the per-link topology model armed
//! ([`gpu_sim::FaultSpec::link_down_rate`] /
//! [`gpu_sim::FaultSpec::link_flap_rate`]), a single dead or flapping
//! pair link can stall that exchange even though both endpoints are
//! healthy devices. This module is the mitigation: a routing ladder that
//! every exchange climbs until the payload crosses or the device is
//! provably unreachable.
//!
//! The ladder, cheapest rung first (DESIGN.md §5h):
//!
//! 1. **Direct.** The plain exchange. Transient faults (drop /
//!    corruption) are retried on the shared backoff schedule exactly
//!    like the router-off path, up to `MAX_EXCHANGE_RETRIES` re-sends,
//!    but also bounded by `EXCHANGE_TIMEOUT_MS` of backoff per exchange
//!    on the simulated clock.
//! 2. **Probe.** A [`LinkDown`](gpu_sim::ExchangeFault::LinkDown) fault
//!    names the dead pair. Up to `MAX_LINK_PROBES` probes re-test that
//!    link on the same backoff schedule; each probe walks a flapping
//!    link's phase one tick forward, so bounded retry genuinely
//!    converges within one flap window. A hard-down link never heals
//!    and falls through.
//! 3. **Relay.** The payload crosses via a two-hop detour through a
//!    healthy peer (`from → relay → to`), charged two peer-link legs of
//!    honest wire time and traffic.
//! 4. **Host bounce.** Both relay legs are down too: stage through host
//!    memory (`from → host → to`), charged two host-lane legs — the
//!    host path crosses the root complex twice and is materially slower.
//! 5. **Isolation.** No rung worked because every route out of one
//!    endpoint is severed. The router surfaces
//!    [`BfsError::LinkIsolated`]; the drivers escalate to the eviction /
//!    live-repartitioning machinery and migrate the isolated device's
//!    partition onto reachable survivors *before* the watchdog would
//!    have declared the device dead.
//!
//! Every rung is recorded in
//! [`RecoveryReport`]`::{link_retries, link_reroutes, host_bounces}`.
//! With the policy disabled (the default) only the direct rung runs,
//! with no timeout, and a down link is one more transient fault, so
//! zero-rate and router-off runs are bit-identical to the seed.

use crate::error::{Backoff, BfsError, RecoveryReport};
use gpu_sim::{payload_checksum, ExchangeFault, ExchangeOutcome, MultiDevice};

/// Re-sends allowed per exchange after a transient fault: a drop, a
/// corruption, or with the router off a down link.
pub(crate) const MAX_EXCHANGE_RETRIES: u32 = 16;

/// Probes allowed per dead link before abandoning it for a relay.
pub(crate) const MAX_LINK_PROBES: u32 = 4;

// Bounded probing converges on a flapping link only if the budget
// covers a whole flap period.
const _: () = assert!(MAX_LINK_PROBES >= gpu_sim::CHAOS_LINK_FLAP_PERIOD_LEVELS);

/// Per-exchange budget on the simulated clock with the router armed, in
/// milliseconds: once the backoff spent inside one exchange would cross
/// this, the router stops waiting and climbs to the next rung.
pub(crate) const EXCHANGE_TIMEOUT_MS: f64 = 4.0;

/// Whether the exchange routing ladder is armed. The default is
/// [`RoutePolicy::disabled`] — a strict no-op that preserves
/// bit-identity with the pre-router drivers.
#[derive(Clone, Copy, Debug)]
pub struct RoutePolicy {
    /// Whether the routing ladder is armed at all. Disabled, every
    /// exchange goes through the plain retry loop and link-down faults
    /// are treated as generic exchange failures (retry → level replay →
    /// CPU fallback).
    pub enabled: bool,
}

impl RoutePolicy {
    /// The strict no-op policy: routing off, every exchange handled by
    /// the plain retry loop.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// The routing ladder armed: 4 probes per dead link (covering the
    /// chaos flap period of [`gpu_sim::CHAOS_LINK_FLAP_PERIOD_LEVELS`]),
    /// on the shared 0.05 ms doubling backoff, within a 4 ms
    /// per-exchange timeout.
    pub fn on() -> Self {
        Self { enabled: true }
    }
}

impl Default for RoutePolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Cross-source memo of pair links judged hard-down by the probe rung.
///
/// A hard-down link never heals, but with the router alone every
/// exchange that hits it — and every *source* of a batch — re-pays the
/// full probe ladder before relaying. Drivers carry one `LinkVerdicts`
/// across a batch (cleared per run outside batch brownout): once a link
/// has survived `MAX_LINK_PROBES` probes without healing, later
/// exchanges skip straight to the relay rung and count a
/// [`RecoveryReport::link_verdict_hits`].
///
/// This is strictly a performance memo, never a correctness input: a
/// flapping link mistakenly remembered as hard-down still crosses via
/// relay or host bounce — costlier, never wrong. Probes cut short by
/// the per-exchange timeout do not record a verdict.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkVerdicts {
    hard_down: std::collections::BTreeSet<(usize, usize)>,
}

impl LinkVerdicts {
    fn key(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    pub(crate) fn record(&mut self, a: usize, b: usize) {
        self.hard_down.insert(Self::key(a, b));
    }

    pub(crate) fn is_hard_down(&self, a: usize, b: usize) -> bool {
        self.hard_down.contains(&Self::key(a, b))
    }

    pub(crate) fn clear(&mut self) {
        self.hard_down.clear();
    }

    /// Serializable image of the learned verdicts, in canonical
    /// (min, max) order, for the durable batch fleet record.
    pub(crate) fn pairs(&self) -> Vec<(u32, u32)> {
        self.hard_down.iter().map(|&(a, b)| (a as u32, b as u32)).collect()
    }

    /// Re-learns a persisted verdict set (batch resume on a degraded
    /// fleet), so the restored process skips the same dead probes.
    pub(crate) fn restore(&mut self, pairs: &[(u32, u32)]) {
        for &(a, b) in pairs {
            self.record(a as usize, b as usize);
        }
    }
}

/// Returns the first alive device with no usable route out (its host
/// lane and every pair link to an alive peer are down), or `None` when
/// every alive device can still reach someone. The drivers poll this at
/// the top of each level so isolation is caught even when the isolated
/// device is not an endpoint of the next exchange.
pub(crate) fn find_isolated(multi: &MultiDevice) -> Option<usize> {
    if multi.link_topology().is_none() || multi.alive_count() <= 1 {
        return None;
    }
    multi.alive_ids().into_iter().find(|&d| !multi.peer_reachable(d))
}

/// Runs one fault-aware exchange through the routing ladder. `payload`
/// is the host-serialized wire image (checksummed for corruption
/// detection); `do_exchange` performs one direct attempt and reports the
/// injected fault, if any. With the router off (`route.enabled ==
/// false`) only the direct rung runs: every fault, a down link included,
/// is retried on the backoff schedule with no timeout.
pub(crate) fn exchange_routed<F>(
    multi: &mut MultiDevice,
    payload: &[u8],
    route: &RoutePolicy,
    level: u32,
    recovery: &mut RecoveryReport,
    verdicts: &mut LinkVerdicts,
    mut do_exchange: F,
) -> Result<(), BfsError>
where
    F: FnMut(&mut MultiDevice) -> ExchangeOutcome,
{
    let bytes = payload.len() as u64;
    let expected = payload_checksum(payload);
    let timeout_ms = if route.enabled { EXCHANGE_TIMEOUT_MS } else { f64::INFINITY };
    let mut transient_attempts: u32 = 0;
    let mut backoff = Backoff::new();
    let mut spent_ms = 0.0f64;
    loop {
        let outcome = do_exchange(multi);
        let fault = match outcome.fault {
            None => return Ok(()),
            Some(f) => f,
        };
        match fault {
            ExchangeFault::LinkDown { from, to } if route.enabled => {
                // Rung 2: probe the named link. Each probe walks a
                // flapping link's phase forward, so a flap heals within
                // `period_levels` probes; a severed link never does. A
                // carried hard-down verdict skips the rung entirely —
                // the ladder already proved probing this link futile.
                if verdicts.is_hard_down(from, to) {
                    recovery.link_verdict_hits += 1;
                } else {
                    let mut probe = Backoff::new();
                    let mut healed = false;
                    let mut probes = 0u32;
                    for _ in 0..MAX_LINK_PROBES {
                        if spent_ms + probe.peek() > timeout_ms {
                            break;
                        }
                        wait(multi, recovery, &mut spent_ms, probe.take());
                        recovery.link_retries += 1;
                        probes += 1;
                        if multi.probe_link(from, to) {
                            healed = true;
                            break;
                        }
                    }
                    if healed {
                        continue;
                    }
                    // Only a full, un-timed-out probe ladder earns a
                    // verdict; a timeout proves nothing about the link.
                    if probes == MAX_LINK_PROBES {
                        verdicts.record(from, to);
                    }
                }
                // Rung 3: two-hop relay through a healthy peer.
                let relay = multi.alive_ids().into_iter().find(|&r| {
                    r != from && r != to && multi.link_up(from, r) && multi.link_up(r, to)
                });
                if relay.is_some() {
                    multi.charge_route(2.0 * multi.peer_leg_ms(bytes), 2 * bytes);
                    recovery.link_reroutes += 1;
                    return Ok(());
                }
                // Rung 4: host-staged bounce (both host lanes needed).
                if multi.host_link_up(from) && multi.host_link_up(to) {
                    multi.charge_route(2.0 * multi.host_leg_ms(bytes), 2 * bytes);
                    recovery.host_bounces += 1;
                    return Ok(());
                }
                // Rung 5: one endpoint is unreachable by any route.
                let device = if !multi.peer_reachable(from) { from } else { to };
                return Err(BfsError::LinkIsolated { level, device });
            }
            transient => {
                // Rung 1: a transient fault. Receiver-side detection:
                // flip the faulted bit in a copy of the payload and
                // confirm the checksum catches it.
                if let ExchangeFault::Corrupted { bit, .. } = transient {
                    let mut received = payload.to_vec();
                    let bit = bit as usize % (received.len() * 8);
                    received[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(
                        payload_checksum(&received),
                        expected,
                        "checksum failed to detect a single-bit corruption"
                    );
                }
                transient_attempts += 1;
                if transient_attempts > MAX_EXCHANGE_RETRIES
                    || spent_ms + backoff.peek() > timeout_ms
                {
                    return Err(BfsError::ExchangeRetriesExhausted {
                        level,
                        attempts: transient_attempts,
                    });
                }
                recovery.exchange_retries += 1;
                wait(multi, recovery, &mut spent_ms, backoff.take());
            }
        }
    }
}

/// Charges one backoff wait to every device timeline and to the
/// exchange's running total `spent_ms`.
fn wait(multi: &mut MultiDevice, recovery: &mut RecoveryReport, spent_ms: &mut f64, ms: f64) {
    multi.advance_all(ms);
    recovery.backoff_ms += ms;
    *spent_ms += ms;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled_and_bounded() {
        let p = RoutePolicy::default();
        assert!(!p.enabled);
        assert!(RoutePolicy::on().enabled);
    }
}
