//! Multi-device system with an interconnect cost model.
//!
//! §4.4: Enterprise distributes a graph over N GPUs with 1-D vertex
//! partitioning; each level the GPUs exchange their private status arrays
//! as `__ballot()`-compressed bitmaps ("This compression reduces the size
//! of communication data by 90%" — 1 bit/vertex instead of 1 byte).
//!
//! The paper's devices sit on a PCIe tree; we model the exchange as an
//! all-to-all broadcast whose cost is `bytes / bandwidth + latency`, paid
//! on every device's timeline (the exchange is a synchronization point).

use crate::device::{Device, DeviceConfig};
use crate::fault::{ExchangeFault, FaultPlan, FaultSpec, FaultStats, LinkHealth};

/// Interconnect parameters.
#[derive(Clone, Copy, Debug)]
pub struct InterconnectConfig {
    /// Per-link bandwidth in GB/s (PCIe 3.0 x16 ~ 12 GB/s effective).
    pub bandwidth_gbs: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
    /// Bandwidth of the host-staged bounce path in GB/s. Bouncing a
    /// payload through host memory crosses the root complex twice and
    /// contends with the host's own traffic, so it is materially slower
    /// than a direct peer link.
    pub host_bandwidth_gbs: f64,
    /// Per-transfer latency of one host-staged leg in microseconds
    /// (driver round trip plus a host-memory staging copy).
    pub host_latency_us: f64,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        Self { bandwidth_gbs: 12.0, latency_us: 8.0, host_bandwidth_gbs: 6.0, host_latency_us: 20.0 }
    }
}

/// State of one interconnect link in the per-link topology model.
///
/// `Healthy`, `Flapping`, and `Down` are drawn per link at plan
/// installation (see [`crate::fault::FaultPlan::draw_link_state`]);
/// `Degraded` is the shared-root slowdown of
/// [`FaultSpec::link_degrade_rate`] overlaid on otherwise-healthy links
/// by [`MultiDevice::link_state`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkState {
    /// Delivers at full speed.
    Healthy,
    /// Delivers, but every span is multiplied by `factor`.
    Degraded {
        /// Multiplicative slowdown on spans crossing this link.
        factor: f64,
    },
    /// Alternates up/down windows of `period_levels` completed levels;
    /// `walked` counts the probes that have pushed its phase forward.
    Flapping {
        /// Width of each up/down window in completed BFS levels.
        period_levels: u32,
        /// Probes absorbed so far (each advances the phase by one tick).
        walked: u32,
    },
    /// Permanently severed.
    Down,
}

impl LinkState {
    /// Is the link unusable at topology tick `tick`?
    fn is_down(&self, tick: u32) -> bool {
        match *self {
            LinkState::Down => true,
            LinkState::Flapping { period_levels, walked } => {
                ((tick + walked) / period_levels) % 2 == 1
            }
            _ => false,
        }
    }
}

/// Per-link fault topology over a device fleet: one link per device pair
/// plus one host lane per device (the staging path for host bounces).
/// States are drawn deterministically from the interconnect fault stream
/// at plan installation; flap windows advance on a level tick driven by
/// the traversal loop.
#[derive(Clone, Debug)]
pub struct LinkTopology {
    n: usize,
    /// Upper-triangular pair links, row-major over `(i, j)` with `i < j`.
    pairs: Vec<LinkState>,
    /// Per-device host lanes.
    host: Vec<LinkState>,
    /// Completed-level tick driving flap windows.
    tick: u32,
}

impl LinkTopology {
    fn draw(n: usize, plan: &mut FaultPlan) -> Self {
        let state = |plan: &mut FaultPlan| match plan.draw_link_state() {
            LinkHealth::Healthy => LinkState::Healthy,
            LinkHealth::Flapping { period_levels } => {
                LinkState::Flapping { period_levels, walked: 0 }
            }
            LinkHealth::Down => LinkState::Down,
        };
        let pairs = (0..n * (n - 1) / 2).map(|_| state(plan)).collect();
        let host = (0..n).map(|_| state(plan)).collect();
        Self { n, pairs, host, tick: 0 }
    }

    fn pair_index(&self, a: usize, b: usize) -> usize {
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Is the pair link between `a` and `b` usable right now?
    pub fn pair_up(&self, a: usize, b: usize) -> bool {
        !self.pairs[self.pair_index(a, b)].is_down(self.tick)
    }

    /// Is device `d`'s host lane usable right now?
    pub fn host_up(&self, d: usize) -> bool {
        !self.host[d].is_down(self.tick)
    }

    /// Advances the level tick; returns how many flapping links changed
    /// phase (for the flap-transition counter).
    fn tick_level(&mut self) -> u64 {
        let (t0, t1) = (self.tick, self.tick + 1);
        let flips = self
            .pairs
            .iter()
            .chain(self.host.iter())
            .filter(|s| matches!(s, LinkState::Flapping { .. }) && s.is_down(t0) != s.is_down(t1))
            .count() as u64;
        self.tick = t1;
        flips
    }

    /// Probes the pair link `a<->b`: a flapping link's phase walks one
    /// tick forward (this is how bounded retry converges on a flap);
    /// other states are unchanged. Returns `(up_now, phase_changed)`.
    fn probe_pair(&mut self, a: usize, b: usize) -> (bool, bool) {
        let tick = self.tick;
        let idx = self.pair_index(a, b);
        let before = self.pairs[idx].is_down(tick);
        if let LinkState::Flapping { walked, .. } = &mut self.pairs[idx] {
            *walked += 1;
        }
        let after = self.pairs[idx].is_down(tick);
        (!after, before != after)
    }
}

/// A set of identical devices plus the interconnect between them.
///
/// Devices can be *evicted* after a permanent loss
/// ([`MultiDevice::evict`]); every collective — barrier, exchange,
/// system-wide advance, makespan — then runs over the surviving set only.
/// With no evictions the alive set covers every device and the
/// collectives are bit-identical to the pre-eviction model.
pub struct MultiDevice {
    devices: Vec<Device>,
    interconnect: InterconnectConfig,
    /// Per-device liveness; evicted devices drop out of every collective.
    alive: Vec<bool>,
    /// Total bytes moved across the interconnect since reset.
    transferred_bytes: u64,
    /// Fault campaign on the interconnect links, if any.
    link_fault: Option<FaultPlan>,
    /// Multiplicative slowdown on every exchange span, drawn from the
    /// link fault plan at installation (`1.0` = healthy; see
    /// [`FaultSpec::link_degrade_rate`]). The model's devices share one
    /// PCIe root, so a degraded link serializes — and slows — the whole
    /// collective.
    link_degrade: f64,
    /// Per-link fault topology (pair links + host lanes), present only
    /// when a plan with nonzero per-link rates is installed — so runs
    /// without link topology faults skip every topology query.
    topology: Option<LinkTopology>,
}

impl MultiDevice {
    /// Creates `count` devices from the same configuration preset.
    pub fn new(count: usize, config: DeviceConfig, interconnect: InterconnectConfig) -> Self {
        assert!(count >= 1, "need at least one device");
        let mut devices: Vec<Device> =
            (0..count).map(|_| Device::new(config.clone())).collect();
        for (i, d) in devices.iter_mut().enumerate() {
            d.set_id(i);
        }
        Self {
            devices,
            interconnect,
            alive: vec![true; count],
            transferred_bytes: 0,
            link_fault: None,
            link_degrade: 1.0,
            topology: None,
        }
    }

    /// Evicts device `i` from the system: it is marked lost and every
    /// subsequent barrier/exchange/advance runs over the survivors only.
    pub fn evict(&mut self, i: usize) {
        self.alive[i] = false;
        self.devices[i].mark_lost();
    }

    /// Revives every device (harness reset for a fresh run on a repaired
    /// system); restores the full alive set and clears each device's lost
    /// flag. A strict no-op when nothing was evicted.
    pub fn revive_all(&mut self) {
        for (a, d) in self.alive.iter_mut().zip(&mut self.devices) {
            *a = true;
            d.revive();
        }
    }

    /// True when device `i` has not been evicted.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Number of surviving devices.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Ids of the surviving devices, ascending.
    pub fn alive_ids(&self) -> Vec<usize> {
        self.alive.iter().enumerate().filter(|(_, &a)| a).map(|(i, _)| i).collect()
    }

    /// Installs one fault campaign across the whole system: every device
    /// gets an independent substream of `spec` (streams `0..count`) and
    /// the interconnect gets its own (stream `count`), so injection on
    /// one device never perturbs another's fault sequence. Determinism:
    /// same spec + same operation sequence → same faults.
    pub fn install_faults(&mut self, spec: FaultSpec) {
        let n = self.devices.len() as u64;
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.set_fault_plan(Some(FaultPlan::for_stream(spec, i as u64)));
        }
        let mut link_plan = FaultPlan::for_stream(spec, n);
        // Like the per-device straggler draw, link degradation is decided
        // once at installation, before any exchange consumes the stream.
        self.link_degrade = link_plan.draw_link_degrade_factor();
        // Per-link topology states are drawn after the degrade draw, in a
        // fixed order (pair links row-major over (i, j) with i < j, then
        // host lanes 0..n), so arming the topology rates never perturbs
        // the degrade draw or the per-exchange fault stream at zero
        // rates. Zero rates build no topology at all — strict no-op.
        self.topology = (spec.link_down_rate > 0.0 || spec.link_flap_rate > 0.0)
            .then(|| LinkTopology::draw(self.devices.len(), &mut link_plan));
        self.link_fault = Some(link_plan);
    }

    /// Sets the ECC mode on every device (see [`crate::Device::set_ecc`]).
    /// `Off` (the default) is a strict no-op across the system.
    pub fn set_ecc(&mut self, mode: crate::EccMode) {
        for d in &mut self.devices {
            d.set_ecc(mode);
        }
    }

    /// One background-scrubber sweep on every *alive* device (see
    /// [`crate::Device::scrub`]); a strict no-op with ECC off.
    pub fn scrub_all(&mut self) {
        for (d, alive) in self.devices.iter_mut().zip(&self.alive) {
            if *alive {
                d.scrub();
            }
        }
    }

    /// True when the interconnect drew as degraded at plan installation
    /// (see [`FaultSpec::link_degrade_rate`]).
    pub fn link_degraded(&self) -> bool {
        self.link_degrade > 1.0
    }

    /// The multiplicative slowdown on exchange spans (`1.0` = healthy).
    pub fn link_degrade_factor(&self) -> f64 {
        self.link_degrade
    }

    /// The per-link topology, if a plan with nonzero per-link rates is
    /// installed.
    pub fn link_topology(&self) -> Option<&LinkTopology> {
        self.topology.as_ref()
    }

    /// The effective state of the pair link between `a` and `b`: the
    /// drawn topology state, with the shared-root degradation overlaid
    /// on otherwise-healthy links.
    pub fn link_state(&self, a: usize, b: usize) -> LinkState {
        let drawn = match &self.topology {
            Some(t) => t.pairs[t.pair_index(a, b)],
            None => LinkState::Healthy,
        };
        match drawn {
            LinkState::Healthy if self.link_degrade > 1.0 => {
                LinkState::Degraded { factor: self.link_degrade }
            }
            s => s,
        }
    }

    /// Is the direct pair link between `a` and `b` usable right now?
    /// (Degraded links are slow but usable.)
    pub fn link_up(&self, a: usize, b: usize) -> bool {
        self.topology.as_ref().is_none_or(|t| t.pair_up(a, b))
    }

    /// Is device `d`'s host lane usable right now?
    pub fn host_link_up(&self, d: usize) -> bool {
        self.topology.as_ref().is_none_or(|t| t.host_up(d))
    }

    /// Every *alive* device pair whose direct link is currently down,
    /// in ascending `(a, b)` order over real device ids. Empty without a
    /// topology.
    pub fn down_alive_pairs(&self) -> Vec<(usize, usize)> {
        let Some(t) = &self.topology else { return Vec::new() };
        let ids = self.alive_ids();
        let mut down = Vec::new();
        for (x, &a) in ids.iter().enumerate() {
            for &b in &ids[x + 1..] {
                if !t.pair_up(a, b) {
                    down.push((a, b));
                }
            }
        }
        down
    }

    /// Can device `d` still talk to the rest of the system — any alive
    /// peer over an up pair link, or the host over its lane? A device
    /// for which this is false is *link-isolated*: no retry or reroute
    /// reaches it, only migrating its partition off it does.
    pub fn peer_reachable(&self, d: usize) -> bool {
        let Some(t) = &self.topology else { return true };
        if t.host_up(d) {
            return true;
        }
        self.alive_ids().into_iter().any(|p| p != d && t.pair_up(d, p))
    }

    /// Probes the pair link `a<->b` (one bounded-retry attempt): a
    /// flapping link's phase walks one tick forward — this is why
    /// bounded retry converges on a flap but not on a hard-down link.
    /// Returns whether the link is up after the probe. Phase changes are
    /// counted as flap transitions.
    pub fn probe_link(&mut self, a: usize, b: usize) -> bool {
        let Some(t) = &mut self.topology else { return true };
        let (up, flipped) = t.probe_pair(a, b);
        if flipped {
            if let Some(plan) = &mut self.link_fault {
                plan.count_link_flap();
            }
        }
        up
    }

    /// Advances the topology's level tick (called by the traversal loop
    /// once per completed level); flapping links change phase on window
    /// boundaries. A strict no-op without a topology.
    pub fn tick_link_level(&mut self) {
        let Some(t) = &mut self.topology else { return };
        let flips = t.tick_level();
        if flips > 0 {
            if let Some(plan) = &mut self.link_fault {
                for _ in 0..flips {
                    plan.count_link_flap();
                }
            }
        }
    }

    /// Wire time for one payload crossing one direct pair link, in ms
    /// (the unit leg a router charges for re-sends and relay hops).
    pub fn peer_leg_ms(&self, bytes: u64) -> f64 {
        self.interconnect.latency_us / 1e3
            + bytes as f64 / (self.interconnect.bandwidth_gbs * 1e9 / 1e3)
    }

    /// Wire time for one payload crossing one host-staged leg, in ms
    /// (a host bounce pays two of these).
    pub fn host_leg_ms(&self, bytes: u64) -> f64 {
        self.interconnect.host_latency_us / 1e3
            + bytes as f64 / (self.interconnect.host_bandwidth_gbs * 1e9 / 1e3)
    }

    /// Charges rerouted traffic to the system: `bytes` more on the wire
    /// and `span_ms` (through the shared-root degradation model, like
    /// every other span) on every surviving timeline. The router calls
    /// this for probe re-sends, relay hops, and host bounces so every
    /// recovery rung pays its honest wire cost.
    pub fn charge_route(&mut self, span_ms: f64, bytes: u64) {
        self.transferred_bytes += bytes;
        let span = self.degraded_span(span_ms);
        self.advance_all(span);
    }

    /// Aggregated injected-fault counters over all devices plus the
    /// interconnect.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for d in &self.devices {
            total.merge(&d.fault_stats());
        }
        if let Some(plan) = &self.link_fault {
            total.merge(plan.stats());
        }
        total
    }

    /// Number of devices.
    pub fn count(&self) -> usize {
        self.devices.len()
    }

    /// Mutable access to device `i`.
    pub fn device(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// Read-only access to device `i`.
    pub fn device_ref(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Iterates over all devices mutably.
    pub fn devices_mut(&mut self) -> impl Iterator<Item = &mut Device> {
        self.devices.iter_mut()
    }

    /// Synchronization barrier over the surviving devices: every live
    /// clock advances to the slowest live device's position
    /// (level-synchronous BFS semantics). Evicted devices keep their
    /// final clock position.
    pub fn barrier(&mut self) -> f64 {
        let max = self
            .devices
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(d, _)| d.elapsed_ms())
            .fold(0.0, f64::max);
        for (d, _) in self.devices.iter_mut().zip(&self.alive).filter(|(_, &a)| a) {
            let lag = max - d.elapsed_ms();
            if lag > 0.0 {
                d.advance_ms(lag);
            }
        }
        max
    }

    /// Models an all-to-all exchange where every surviving device
    /// broadcasts `bytes_per_device` to the other survivors; advances
    /// every live timeline by the transfer span and returns it in
    /// milliseconds.
    ///
    /// On a shared PCIe root, the N broadcasts serialize on each link
    /// direction: span = latency + (N-1) * bytes / bandwidth.
    pub fn exchange(&mut self, bytes_per_device: u64) -> f64 {
        let n = self.alive_count() as u64;
        if n == 1 {
            return 0.0;
        }
        self.transferred_bytes += bytes_per_device * n * (n - 1);
        let bw_bytes_per_ms = self.interconnect.bandwidth_gbs * 1e9 / 1e3;
        let span_ms = self.degraded_span(
            self.interconnect.latency_us / 1e3
                + ((n - 1) * bytes_per_device) as f64 / bw_bytes_per_ms,
        );
        self.barrier();
        self.advance_all(span_ms);
        span_ms
    }

    /// Models a structured exchange where every surviving device
    /// serializes `bytes_on_wire` on its link (e.g. a 2-D row/column
    /// pattern whose per-device traffic is far below the 1-D all-to-all).
    /// Advances all live timelines by the span and returns it in
    /// milliseconds.
    pub fn exchange_serialized(&mut self, bytes_on_wire: u64) -> f64 {
        let n = self.alive_count() as u64;
        if n == 1 || bytes_on_wire == 0 {
            return 0.0;
        }
        self.transferred_bytes += bytes_on_wire * n;
        let bw_bytes_per_ms = self.interconnect.bandwidth_gbs * 1e9 / 1e3;
        let span_ms = self.degraded_span(
            self.interconnect.latency_us / 1e3 + bytes_on_wire as f64 / bw_bytes_per_ms,
        );
        self.barrier();
        self.advance_all(span_ms);
        span_ms
    }

    /// Applies link degradation to a clean exchange span, charging the
    /// extra wire time to the link plan's counters. (Branch, not an
    /// unconditional multiply: a healthy link must stay bit-identical.)
    fn degraded_span(&mut self, span_ms: f64) -> f64 {
        if self.link_degrade <= 1.0 {
            return span_ms;
        }
        let slowed = span_ms * self.link_degrade;
        if let Some(plan) = &mut self.link_fault {
            plan.charge_link_slow_us(((slowed - span_ms) * 1e3).round() as u64);
        }
        slowed
    }

    /// Remaps an exchange fault drawn over the alive set (indices
    /// `0..alive_count`) onto real device ids, so callers always see the
    /// affected devices' ids even after evictions.
    fn remap_fault(&self, fault: ExchangeFault) -> ExchangeFault {
        let ids = self.alive_ids();
        match fault {
            ExchangeFault::Dropped { from, to } => {
                ExchangeFault::Dropped { from: ids[from], to: ids[to] }
            }
            ExchangeFault::Corrupted { from, to, bit } => {
                ExchangeFault::Corrupted { from: ids[from], to: ids[to], bit }
            }
            // LinkDown faults come from the topology and already carry
            // real device ids.
            f @ ExchangeFault::LinkDown { .. } => f,
        }
    }

    /// The fault outcome of one exchange: a down link on an alive pair
    /// beats the per-exchange transient draws (the topology says nothing
    /// crossed that edge), otherwise the link plan draws drop/corrupt as
    /// before. Without a topology this is exactly the pre-topology
    /// behavior, bit for bit.
    fn draw_wire_fault(&mut self, peers: usize, payload_bytes: u64) -> Option<ExchangeFault> {
        if let Some(&(from, to)) = self.down_alive_pairs().first() {
            return Some(ExchangeFault::LinkDown { from, to });
        }
        self.link_fault
            .as_mut()
            .and_then(|p| p.draw_exchange_fault(peers, payload_bytes))
            .map(|f| self.remap_fault(f))
    }

    /// [`MultiDevice::exchange`] through the fault plane: the wire time
    /// is always paid (a dropped or corrupted message still occupied the
    /// link), and the installed link fault plan decides whether one
    /// message was lost or corrupted in flight. With no plan (or zero
    /// rates) this is bit-identical to `exchange`.
    pub fn exchange_with_faults(&mut self, bytes_per_device: u64) -> ExchangeOutcome {
        let peers = self.alive_count();
        let span_ms = self.exchange(bytes_per_device);
        let fault =
            if span_ms > 0.0 { self.draw_wire_fault(peers, bytes_per_device) } else { None };
        ExchangeOutcome { span_ms, fault }
    }

    /// [`MultiDevice::exchange_serialized`] through the fault plane; see
    /// [`MultiDevice::exchange_with_faults`].
    pub fn exchange_serialized_with_faults(&mut self, bytes_on_wire: u64) -> ExchangeOutcome {
        let peers = self.alive_count();
        let span_ms = self.exchange_serialized(bytes_on_wire);
        let fault = if span_ms > 0.0 { self.draw_wire_fault(peers, bytes_on_wire) } else { None };
        ExchangeOutcome { span_ms, fault }
    }

    /// Advances every surviving device's timeline by `ms` (a host-imposed
    /// system stall, e.g. a recovery backoff before re-exchanging or a
    /// repartition pause).
    pub fn advance_all(&mut self, ms: f64) {
        for (d, _) in self.devices.iter_mut().zip(&self.alive).filter(|(_, &a)| a) {
            d.advance_ms(ms);
        }
    }

    /// Elapsed time of the slowest surviving device (the system's
    /// makespan).
    pub fn elapsed_ms(&self) -> f64 {
        self.devices
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(d, _)| d.elapsed_ms())
            .fold(0.0, f64::max)
    }

    /// Total interconnect traffic since reset.
    pub fn transferred_bytes(&self) -> u64 {
        self.transferred_bytes
    }

    /// Resets all device timelines, counters, and transfer accounting.
    pub fn reset_stats(&mut self) {
        for d in &mut self.devices {
            d.reset_stats();
        }
        self.transferred_bytes = 0;
    }

    /// Opens a fused multi-lane window on every surviving device (see
    /// [`Device::begin_fused`]).
    pub fn begin_fused(&mut self, width: usize) {
        for (d, _) in self.devices.iter_mut().zip(&self.alive).filter(|(_, &a)| a) {
            d.begin_fused(width);
        }
    }

    /// Switches every surviving device's fused clock to `lane`.
    pub fn fused_switch(&mut self, lane: usize) {
        for (d, _) in self.devices.iter_mut().zip(&self.alive).filter(|(_, &a)| a) {
            d.fused_switch(lane);
        }
    }

    /// Closes the fused window on every surviving device and returns the
    /// fleet-level per-lane charges: for each lane, the maximum timeline
    /// charge over the devices (the lane's critical path through the
    /// fleet). Each device rewinds to its own overlapped span, so clocks
    /// may diverge afterwards; the next barrier re-aligns them.
    pub fn end_fused(&mut self, width: usize) -> Vec<f64> {
        let mut charges = vec![0.0f64; width];
        for (d, _) in self.devices.iter_mut().zip(&self.alive).filter(|(_, &a)| a) {
            for (slot, c) in d.end_fused().into_iter().enumerate() {
                if slot < width {
                    charges[slot] = charges[slot].max(c);
                }
            }
        }
        charges
    }

    /// Swaps the complete fleet fault universe — every surviving
    /// device's bundle plus the interconnect plan, degrade factor, and
    /// per-link topology — with `bundle`. Lossless both ways (see
    /// [`Device::swap_fault_bundle`]); devices that died since the
    /// bundle was parked keep their own universe untouched.
    pub fn swap_fleet_fault_bundle(&mut self, bundle: &mut FleetFaultBundle) {
        bundle.devices.resize_with(self.devices.len(), crate::FaultBundle::default);
        for ((d, b), _) in
            self.devices.iter_mut().zip(&mut bundle.devices).zip(&self.alive).filter(|(_, &a)| a)
        {
            d.swap_fault_bundle(b);
        }
        std::mem::swap(&mut self.link_fault, &mut bundle.link_fault);
        std::mem::swap(&mut self.link_degrade, &mut bundle.link_degrade);
        std::mem::swap(&mut self.topology, &mut bundle.topology);
    }
}

/// A parked fleet-wide fault universe: per-device [`crate::FaultBundle`]s
/// plus the interconnect's plan, degrade draw, and link topology. The
/// default bundle is the healthy no-fault universe on every device and
/// link.
pub struct FleetFaultBundle {
    devices: Vec<crate::FaultBundle>,
    link_fault: Option<FaultPlan>,
    link_degrade: f64,
    topology: Option<LinkTopology>,
}

impl Default for FleetFaultBundle {
    fn default() -> Self {
        FleetFaultBundle {
            devices: Vec::new(),
            link_fault: None,
            link_degrade: 1.0,
            topology: None,
        }
    }
}

impl FleetFaultBundle {
    /// The healthy universe, pre-sized for `count` devices.
    pub fn healthy(count: usize) -> Self {
        let mut b = FleetFaultBundle::default();
        b.devices.resize_with(count, crate::FaultBundle::default);
        b.link_degrade = 1.0;
        b
    }

    /// Injected-fault counters accumulated across this bundle's device
    /// plans and link plan while they were swapped onto a fleet.
    pub fn stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for d in &self.devices {
            total.merge(&d.stats());
        }
        if let Some(plan) = &self.link_fault {
            total.merge(plan.stats());
        }
        total
    }
}

/// Result of one exchange through the fault plane: the time the wire was
/// occupied plus the injected fault, if any.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeOutcome {
    /// Transfer span in milliseconds (already applied to every device's
    /// timeline).
    pub span_ms: f64,
    /// The injected interconnect fault, if one fired.
    pub fault: Option<ExchangeFault>,
}

/// Size in bytes of a `__ballot()`-compressed status bitmap over `n`
/// vertices (1 bit per vertex, §4.4 step 2).
pub fn ballot_compressed_bytes(n: usize) -> u64 {
    (n as u64).div_ceil(8)
}

/// Size in bytes of the uncompressed byte-per-vertex status array.
pub fn uncompressed_status_bytes(n: usize) -> u64 {
    n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multi(n: usize) -> MultiDevice {
        MultiDevice::new(n, DeviceConfig::k40(), InterconnectConfig::default())
    }

    #[test]
    fn ballot_compression_is_90_percent() {
        // §4.4: bitmap exchange cuts communication by 90% vs byte status.
        let n = 1_000_000;
        let ratio = ballot_compressed_bytes(n) as f64 / uncompressed_status_bytes(n) as f64;
        assert!((ratio - 0.125).abs() < 1e-6);
    }

    #[test]
    fn exchange_scales_with_device_count_and_bytes() {
        let mut two = multi(2);
        let mut four = multi(4);
        let t2 = two.exchange(1 << 20);
        let t4 = four.exchange(1 << 20);
        assert!(t4 > t2, "more devices, more serialized transfers");
        assert_eq!(two.transferred_bytes(), 2 * (1 << 20));
        assert_eq!(four.transferred_bytes(), 12 * (1 << 20));
    }

    #[test]
    fn single_device_exchange_is_free() {
        let mut one = multi(1);
        assert_eq!(one.exchange(1 << 20), 0.0);
        assert_eq!(one.elapsed_ms(), 0.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut m = multi(2);
        m.device(0).advance_ms(5.0);
        m.barrier();
        assert_eq!(m.device_ref(1).elapsed_ms(), 5.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = multi(2);
        m.exchange(1024);
        m.reset_stats();
        assert_eq!(m.elapsed_ms(), 0.0);
        assert_eq!(m.transferred_bytes(), 0);
    }

    #[test]
    fn devices_get_distinct_ids() {
        let m = multi(3);
        for i in 0..3 {
            assert_eq!(m.device_ref(i).id(), i);
        }
    }

    #[test]
    fn faulty_exchange_pays_wire_time_and_reports_fault() {
        let mut m = multi(4);
        m.install_faults(FaultSpec {
            seed: 11,
            exchange_drop_rate: 1.0,
            ..FaultSpec::default()
        });
        let mut clean = multi(4);
        let out = m.exchange_with_faults(1 << 16);
        let clean_span = clean.exchange(1 << 16);
        assert_eq!(out.span_ms, clean_span, "a dropped message still occupied the wire");
        match out.fault {
            Some(ExchangeFault::Dropped { from, to }) => assert!(from < 4 && to < 4),
            other => panic!("drop rate 1.0 must drop, got {other:?}"),
        }
        assert_eq!(m.fault_stats().exchanges_dropped, 1);
    }

    #[test]
    fn zero_rate_faults_match_clean_exchange() {
        let mut faulty = multi(3);
        faulty.install_faults(FaultSpec::none(7));
        let mut clean = multi(3);
        for bytes in [1024u64, 1 << 18, 0] {
            let a = faulty.exchange_with_faults(bytes);
            let b = clean.exchange(bytes);
            assert_eq!(a.span_ms, b);
            assert!(a.fault.is_none());
        }
        assert_eq!(faulty.fault_stats().total_faults(), 0);
        assert_eq!(faulty.elapsed_ms(), clean.elapsed_ms());
    }

    #[test]
    fn exchange_faults_are_deterministic() {
        let run = || {
            let mut m = multi(4);
            m.install_faults(FaultSpec::uniform(21, 0.2));
            (0..50).map(|_| format!("{:?}", m.exchange_with_faults(4096).fault)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn eviction_shrinks_every_collective_to_survivors() {
        let mut m = multi(4);
        let full_span = m.exchange(1 << 16);
        m.evict(1);
        assert!(!m.is_alive(1) && m.alive_count() == 3);
        assert_eq!(m.alive_ids(), vec![0, 2, 3]);
        assert!(m.device_ref(1).is_lost());
        // 3 peers serialize fewer transfers than 4.
        let degraded_span = m.exchange(1 << 16);
        assert!(degraded_span < full_span, "{degraded_span} vs {full_span}");
        // Barrier and advance leave the evicted clock frozen.
        let dead_clock = m.device_ref(1).elapsed_ms();
        m.advance_all(5.0);
        m.barrier();
        assert_eq!(m.device_ref(1).elapsed_ms(), dead_clock);
        assert!(m.device_ref(0).elapsed_ms() > dead_clock);
    }

    #[test]
    fn eviction_down_to_one_makes_exchange_free() {
        let mut m = multi(2);
        m.evict(0);
        assert_eq!(m.exchange(1 << 20), 0.0);
        assert_eq!(m.exchange_serialized(1 << 20), 0.0);
    }

    #[test]
    fn revive_all_restores_the_full_set() {
        let mut m = multi(3);
        m.evict(2);
        m.revive_all();
        assert_eq!(m.alive_count(), 3);
        assert!(!m.device_ref(2).is_lost());
        // Post-revive collectives match a never-evicted system's span.
        let mut clean = multi(3);
        assert_eq!(m.exchange(4096), clean.exchange(4096));
    }

    #[test]
    fn exchange_fault_links_use_real_device_ids_after_eviction() {
        let mut m = multi(4);
        m.install_faults(FaultSpec {
            seed: 13,
            exchange_drop_rate: 1.0,
            ..FaultSpec::default()
        });
        m.evict(0);
        for _ in 0..20 {
            match m.exchange_with_faults(4096).fault {
                Some(ExchangeFault::Dropped { from, to }) => {
                    assert!(from != 0 && to != 0, "evicted device on a live link");
                    assert!(from < 4 && to < 4 && from != to);
                }
                other => panic!("drop rate 1.0 must drop, got {other:?}"),
            }
        }
    }

    #[test]
    fn lost_device_fails_launch_and_alloc_fast() {
        use crate::kernel::LaunchConfig;
        let mut m = multi(2);
        m.evict(1);
        let t = m.device_ref(1).elapsed_ms();
        let r = m.device(1).try_launch("k", LaunchConfig::for_threads(32, 32), |_| {});
        assert!(matches!(r, Err(crate::fault::DeviceError::DeviceLost { device: 1 })));
        assert!(matches!(
            m.device(1).try_alloc("b", 16),
            Err(crate::fault::DeviceError::DeviceLost { device: 1 })
        ));
        assert_eq!(m.device_ref(1).elapsed_ms(), t, "fail-fast must not burn time");
    }

    #[test]
    fn injected_loss_kills_the_device_permanently() {
        use crate::device::Device;
        use crate::kernel::LaunchConfig;
        let mut d = Device::new(DeviceConfig::k40());
        d.set_fault_plan(Some(FaultPlan::new(FaultSpec {
            device_loss_rate: 1.0,
            ..FaultSpec::none(3)
        })));
        let r = d.try_launch("k", LaunchConfig::for_threads(32, 32), |_| {});
        assert!(matches!(r, Err(crate::fault::DeviceError::DeviceLost { .. })), "{r:?}");
        assert!(d.is_lost());
        assert_eq!(d.fault_stats().devices_lost, 1);
        // Subsequent launches fail fast without further draws.
        let _ = d.try_launch("k2", LaunchConfig::for_threads(32, 32), |_| {});
        assert_eq!(d.fault_stats().devices_lost, 1);
    }

    #[test]
    fn loss_with_deadline_armed_surfaces_as_watchdog_overrun() {
        use crate::device::Device;
        use crate::kernel::LaunchConfig;
        let mut d = Device::new(DeviceConfig::k40());
        d.set_kernel_deadline_ms(Some(2.0));
        d.set_fault_plan(Some(FaultPlan::new(FaultSpec {
            device_loss_rate: 1.0,
            ..FaultSpec::none(3)
        })));
        let r = d.try_launch("k", LaunchConfig::for_threads(32, 32), |_| {});
        match r {
            Err(crate::fault::DeviceError::KernelDeadline { budget_us, elapsed_us, .. }) => {
                assert_eq!(budget_us, 2000);
                assert!(elapsed_us > budget_us);
            }
            other => panic!("expected a deadline overrun, got {other:?}"),
        }
        // The host waited out the budget before giving up on the device.
        assert!(d.is_lost());
        assert!((d.elapsed_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_link_inflates_every_exchange_span() {
        let spec = FaultSpec {
            link_degrade_rate: 1.0,
            link_degrade_factor: 4.0,
            ..FaultSpec::none(17)
        };
        let mut degraded = multi(4);
        degraded.install_faults(spec);
        assert!(degraded.link_degraded());
        assert_eq!(degraded.link_degrade_factor(), 4.0);
        let mut clean = multi(4);
        let slow = degraded.exchange(1 << 16);
        let fast = clean.exchange(1 << 16);
        assert!((slow - 4.0 * fast).abs() < 1e-12, "{slow} vs 4x {fast}");
        let slow_ser = degraded.exchange_serialized(1 << 14);
        let fast_ser = clean.exchange_serialized(1 << 14);
        assert!((slow_ser - 4.0 * fast_ser).abs() < 1e-12);
        let stats = degraded.fault_stats();
        assert_eq!(stats.links_degraded, 1);
        assert!(stats.link_slow_us > 0);
        // Payloads still deliver: degradation is timing-only.
        assert_eq!(degraded.transferred_bytes(), clean.transferred_bytes());
    }

    #[test]
    fn straggler_device_inflates_kernel_time_only() {
        use crate::kernel::LaunchConfig;
        let spec = FaultSpec {
            straggler_rate: 1.0,
            straggler_slowdown: 4.0,
            ..FaultSpec::none(23)
        };
        let run = |spec: Option<FaultSpec>| {
            let mut d = Device::new(DeviceConfig::k40());
            d.set_fault_plan(spec.map(FaultPlan::new));
            let buf = d.mem().alloc("data", 4096);
            d.launch("k", LaunchConfig::for_threads(2048, 256), |w| {
                w.load_global(buf, |l| Some((l.tid % 4096) as usize));
                w.store_global(buf, |l| Some((l.tid as usize % 4096, l.tid as u32)));
            });
            (d.elapsed_ms(), d.mem_ref().view(buf).to_vec(), d.fault_stats())
        };
        let (slow_ms, slow_data, stats) = run(Some(spec));
        let (clean_ms, clean_data, _) = run(None);
        // Throttling stretches execution only; the host-side launch
        // overhead is paid at full speed on a hot part too.
        let overhead_ms = DeviceConfig::k40().launch_overhead_us / 1e3;
        let expect_ms = 4.0 * (clean_ms - overhead_ms) + overhead_ms;
        assert!((slow_ms - expect_ms).abs() < 1e-9, "{slow_ms} vs expected {expect_ms}");
        assert!(slow_ms > clean_ms, "throttle must cost time");
        assert_eq!(slow_data, clean_data, "throttling must not change results");
        assert_eq!(stats.stragglers_armed, 1);
        assert!(stats.straggler_slow_us > 0);
    }

    #[test]
    fn throttle_onset_delays_the_slowdown() {
        use crate::kernel::LaunchConfig;
        let spec = FaultSpec {
            straggler_rate: 1.0,
            straggler_slowdown: 4.0,
            throttle_onset_levels: 2,
            ..FaultSpec::none(23)
        };
        // Identical 3-level launch sequences; only the third level falls
        // past the onset, so only it may slow down (L2 warm-up makes
        // consecutive launches differ, hence the clean-run comparison).
        let seq = |spec: Option<FaultSpec>| {
            let mut d = Device::new(DeviceConfig::k40());
            d.set_fault_plan(spec.map(FaultPlan::new));
            let buf = d.mem().alloc("data", 4096);
            let mut times = Vec::new();
            for _ in 0..3 {
                let t0 = d.elapsed_ms();
                d.launch("k", LaunchConfig::for_threads(2048, 256), |w| {
                    w.load_global(buf, |l| Some((l.tid % 4096) as usize));
                });
                times.push(d.elapsed_ms() - t0);
                d.note_level_end();
            }
            times
        };
        let throttled = {
            let mut d = Device::new(DeviceConfig::k40());
            d.set_fault_plan(Some(FaultPlan::new(spec)));
            assert!(d.is_straggler() && !d.throttle_active());
            seq(Some(spec))
        };
        let clean = seq(None);
        assert_eq!(throttled[0], clean[0], "throttle must not engage before onset");
        assert_eq!(throttled[1], clean[1], "throttle must not engage before onset");
        let overhead_ms = DeviceConfig::k40().launch_overhead_us / 1e3;
        let expect = 4.0 * (clean[2] - overhead_ms) + overhead_ms;
        assert!((throttled[2] - expect).abs() < 1e-9, "{} vs expected {expect}", throttled[2]);
    }

    #[test]
    fn zero_link_rates_build_no_topology() {
        let mut m = multi(4);
        m.install_faults(FaultSpec::uniform(9, 0.5));
        assert!(m.link_topology().is_none());
        assert!(m.down_alive_pairs().is_empty());
        assert!(m.link_up(0, 3) && m.host_link_up(2) && m.peer_reachable(1));
        assert_eq!(m.link_state(0, 1), LinkState::Healthy);
        // Level ticks and probes on a topology-free system change nothing.
        m.tick_link_level();
        assert!(m.probe_link(0, 1));
        assert_eq!(m.fault_stats().link_flaps, 0);
    }

    #[test]
    fn down_links_surface_as_linkdown_faults_and_isolate() {
        let spec = FaultSpec { link_down_rate: 1.0, ..FaultSpec::none(31) };
        let mut m = multi(4);
        m.install_faults(spec);
        let stats = m.fault_stats();
        // 6 pair links + 4 host lanes, all severed at rate 1.0.
        assert_eq!(stats.links_down, 10);
        assert_eq!(m.down_alive_pairs().len(), 6);
        assert!(!m.link_up(0, 1) && !m.host_link_up(0));
        for d in 0..4 {
            assert!(!m.peer_reachable(d), "device {d} has no usable link at rate 1.0");
        }
        // A down alive pair beats the transient draws.
        match m.exchange_with_faults(4096).fault {
            Some(ExchangeFault::LinkDown { from, to }) => assert!(from < to && to < 4),
            other => panic!("all links down must report LinkDown, got {other:?}"),
        }
        // Eviction removes the dead pairs with it.
        m.evict(0);
        assert_eq!(m.down_alive_pairs().len(), 3);
        assert!(m.down_alive_pairs().iter().all(|&(a, b)| a != 0 && b != 0));
    }

    #[test]
    fn flapping_links_walk_forward_under_probes() {
        let spec = FaultSpec {
            link_flap_rate: 1.0,
            link_flap_period_levels: 1,
            ..FaultSpec::none(41)
        };
        let mut m = multi(2);
        m.install_faults(spec);
        assert_eq!(m.fault_stats().links_flapping, 3, "1 pair link + 2 host lanes");
        // Window 0 is up; the first level tick enters the down window.
        assert!(m.link_up(0, 1));
        m.tick_link_level();
        assert!(!m.link_up(0, 1), "period 1 must be down at tick 1");
        assert!(m.fault_stats().link_flaps >= 1, "tick transitions are counted");
        // One probe walks the phase forward and heals the link.
        assert!(m.probe_link(0, 1), "a probe must heal a period-1 flap");
        assert!(m.link_up(0, 1));
        // Determinism: an identically-seeded system walks identically.
        let mut m2 = multi(2);
        m2.install_faults(spec);
        m2.tick_link_level();
        assert!(!m2.link_up(0, 1));
    }

    #[test]
    fn degraded_overlay_reports_on_healthy_links_only() {
        let spec = FaultSpec {
            link_degrade_rate: 1.0,
            link_degrade_factor: 4.0,
            link_down_rate: 1.0,
            ..FaultSpec::none(17)
        };
        let mut m = multi(2);
        m.install_faults(spec);
        // Drawn down: the overlay must not mask the severed state.
        assert_eq!(m.link_state(0, 1), LinkState::Down);
        let mut h = multi(2);
        h.install_faults(FaultSpec {
            link_degrade_rate: 1.0,
            link_degrade_factor: 4.0,
            ..FaultSpec::none(17)
        });
        assert_eq!(h.link_state(0, 1), LinkState::Degraded { factor: 4.0 });
    }

    #[test]
    fn route_charges_pay_wire_time_and_traffic() {
        let mut m = multi(3);
        let leg = m.peer_leg_ms(4096);
        let host = m.host_leg_ms(4096);
        assert!(host > leg, "a host-staged leg must cost more than a direct leg");
        let before = m.elapsed_ms();
        m.charge_route(2.0 * leg, 2 * 4096);
        assert!((m.elapsed_ms() - before - 2.0 * leg).abs() < 1e-12);
        assert_eq!(m.transferred_bytes(), 2 * 4096);
    }

    #[test]
    fn single_device_never_sees_exchange_faults() {
        let mut m = multi(1);
        m.install_faults(FaultSpec::uniform(5, 1.0));
        let out = m.exchange_with_faults(4096);
        assert_eq!(out.span_ms, 0.0);
        assert!(out.fault.is_none());
    }
}
