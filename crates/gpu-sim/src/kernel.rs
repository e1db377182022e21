//! Kernel launch configuration and the warp/CTA execution contexts.
//!
//! Kernels are Rust closures invoked once per *warp* with a [`WarpCtx`].
//! Warp-wide operations take a per-lane closure returning `Option<...>`:
//! `None` lanes are inactive (divergence), and the context records the
//! instruction, the active-lane count, and — for global accesses — the
//! coalesced transactions, exactly where CUDA hardware would.
//!
//! Each access costs the host only what its shape requires:
//!
//! * **Spans.** [`WarpCtx::load_span`] and [`WarpCtx::store_span`] serve
//!   the accesses where lane `l` touches `start + l` — the scans, counter
//!   publishes and adjacency chunks whose addresses depend only on
//!   lengths. A span copies one slice and derives its blocks in ascending
//!   order, which is their first-touch order, so its values, counters, L2
//!   order and critical path are those of the per-lane closure it stands
//!   for. A span that leaves its buffer, or any span under an installed
//!   sanitizer, runs lane by lane instead: suppressed under a bit-flip
//!   campaign, a typed panic otherwise, and one sanitizer check per lane.
//! * **Per-lane accesses** (gathers, scatters, atomics) look their buffer
//!   up once per warp access and check, access and place every lane in
//!   one loop; [`crate::memory::coalesce`] then dedupes the lanes' blocks
//!   in linear time.
//! * **Shared accesses** count bank conflicts by sorting `(bank, word)`
//!   keys ([`bank_conflict_replays`]).
//!
//! Warps within a CTA execute sequentially to completion, so intra-kernel
//! `__syncthreads` phase patterns are expressed with
//! [`crate::Device::launch_with_init`]: a per-CTA cooperative phase (e.g.
//! loading the hub cache into shared memory) runs before the per-warp
//! body, which is how Enterprise's kernels are phased.

use crate::counters::KernelRecord;
use crate::memory::{coalesce, BufMeta, BufferId, DeviceMem, L2Cache, ELEMS_PER_TRANSACTION};
use crate::sanitizer::{AccessKind, Sanitizer, ThreadCoord, COOP_PHASE};

/// Threads per warp (32 on every NVIDIA generation the paper uses).
pub const WARP_SIZE: u32 = 32;

/// Per-lane results of a warp-wide operation.
pub type Lanes<T> = [Option<T>; WARP_SIZE as usize];

/// Empty lane array helper.
pub fn no_lanes<T: Copy>() -> Lanes<T> {
    [None; WARP_SIZE as usize]
}

/// Identity of one lane inside a warp-wide operation, passed to per-lane
/// closures so kernels never need to re-borrow the context.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    /// Lane index within the warp (0..32).
    pub lane: u32,
    /// Global thread id of this lane.
    pub tid: u64,
}

/// Launch geometry.
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// CTAs in the grid.
    pub grid_ctas: u32,
    /// Threads per CTA (multiple of anything; partial trailing warp ok).
    pub threads_per_cta: u32,
    /// Shared memory per CTA in bytes.
    pub shared_bytes_per_cta: u32,
    /// Total threads that should execute (trailing threads of the last
    /// CTA beyond this bound never become active).
    pub total_threads: u64,
}

impl LaunchConfig {
    /// A grid of exactly `grid_ctas * threads_per_cta` threads.
    pub fn grid(grid_ctas: u32, threads_per_cta: u32) -> Self {
        assert!(grid_ctas > 0 && threads_per_cta > 0, "degenerate launch");
        Self {
            grid_ctas,
            threads_per_cta,
            shared_bytes_per_cta: 0,
            total_threads: grid_ctas as u64 * threads_per_cta as u64,
        }
    }

    /// The smallest grid of `threads_per_cta`-sized CTAs covering `total`
    /// threads.
    pub fn for_threads(total: u64, threads_per_cta: u32) -> Self {
        assert!(threads_per_cta > 0, "degenerate launch");
        let total = total.max(1);
        let grid_ctas = total.div_ceil(threads_per_cta as u64).min(u32::MAX as u64) as u32;
        Self { grid_ctas, threads_per_cta, shared_bytes_per_cta: 0, total_threads: total }
    }

    /// Requests `bytes` of shared memory per CTA.
    pub fn with_shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes_per_cta = bytes;
        self
    }

    pub(crate) fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(WARP_SIZE)
    }

    pub(crate) fn shared_words(&self) -> usize {
        (self.shared_bytes_per_cta as usize).div_ceil(4)
    }
}

/// Execution context of one warp.
pub struct WarpCtx<'a> {
    pub(crate) mem: &'a mut DeviceMem,
    pub(crate) l2: &'a mut L2Cache,
    pub(crate) stats: &'a mut KernelRecord,
    pub(crate) shared: &'a mut [u32],
    pub(crate) blocks: &'a mut Vec<u64>,
    /// Installed sanitizer, if any; checks are purely observational.
    pub(crate) san: Option<&'a mut Sanitizer>,
    /// Timing parameters for per-warp serial accounting.
    pub(crate) timing: WarpTiming,
    /// This warp's serial cycles so far (issue + MLP-limited latency).
    pub(crate) serial_cycles: f64,
    /// CTA index within the grid.
    pub cta_id: u32,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// Threads per CTA for this launch.
    pub threads_per_cta: u32,
    /// Active lanes in this warp (trailing warp may be partial).
    pub active_lanes: u32,
    /// Total threads in the launch.
    pub grid_threads: u64,
}

impl<'a> WarpCtx<'a> {
    /// Global thread id of `lane`.
    #[inline]
    pub fn global_thread_id(&self, lane: u32) -> u64 {
        self.cta_id as u64 * self.threads_per_cta as u64
            + self.warp_in_cta as u64 * WARP_SIZE as u64
            + lane as u64
    }

    /// Global warp id.
    #[inline]
    pub fn global_warp_id(&self) -> u64 {
        self.global_thread_id(0) / WARP_SIZE as u64
    }

    /// Iterator over this warp's active lanes.
    #[inline]
    pub fn lanes(&self) -> std::ops::Range<u32> {
        0..self.active_lanes
    }

    /// Builds the [`Lane`] identity for `lane`.
    #[inline]
    pub fn lane_info(&self, lane: u32) -> Lane {
        Lane { lane, tid: self.global_thread_id(lane) }
    }

    /// Records `warp_ops` warp-wide arithmetic instructions with
    /// `active` lanes participating in each.
    pub fn compute(&mut self, warp_ops: u64, active: u32) {
        debug_assert!(active <= WARP_SIZE);
        self.stats.warp_instructions += warp_ops;
        self.stats.lane_slots += warp_ops * WARP_SIZE as u64;
        self.stats.lane_instructions += warp_ops * active as u64;
        self.serial_cycles += warp_ops as f64;
    }

    /// Warp-wide global load: lane `l` reads `buf[f(l)?]`.
    pub fn load_global(
        &mut self,
        buf: BufferId,
        mut f: impl FnMut(Lane) -> Option<usize>,
    ) -> Lanes<u32> {
        self.gather(&[buf], |l| f(l).map(|i| (0, i)))
    }

    /// Warp-wide gather across several buffers: lane `l` reads
    /// `bufs[b][i]` where `f(l) = Some((b, i))`. Used when consecutive
    /// work items live in different allocations (e.g. the four class
    /// queues); coalescing still applies per 128-byte block.
    pub fn load_global_multi<const K: usize>(
        &mut self,
        bufs: &[BufferId; K],
        f: impl FnMut(Lane) -> Option<(usize, usize)>,
    ) -> Lanes<u32> {
        self.gather(bufs, f)
    }

    /// Warp-wide contiguous load: lane `l < count` reads `buf[start + l]`
    /// (lanes past `count` or past the warp's active lanes stay inactive).
    ///
    /// Exactly [`WarpCtx::load_global`] with the closure
    /// `|l| (l.lane < count).then(|| start + l.lane)` — same values,
    /// counters, L2 order and critical path — but it copies one slice and
    /// derives its one or two blocks arithmetically. A span that leaves
    /// its buffer, or any span under an installed sanitizer, takes the
    /// per-lane path, so it is suppressed or panics lane by lane.
    pub fn load_span(&mut self, buf: BufferId, start: usize, count: usize) -> Lanes<u32> {
        let n = count.min(self.active_lanes as usize);
        let mut out = no_lanes();
        if n == 0 {
            return out;
        }
        let view = self.mem.read_view(buf);
        match view.data.get(start..start.saturating_add(n)) {
            Some(vals) if self.san.is_none() => {
                for (o, &v) in out.iter_mut().zip(vals) {
                    *o = Some(v);
                }
                let blocks = view.meta.block(start)..=view.meta.block(start + n - 1);
                self.blocks.clear();
                self.blocks.extend(blocks);
                self.account_global(n as u32, true);
                out
            }
            _ => {
                self.load_global(buf, |l| ((l.lane as usize) < n).then(|| start + l.lane as usize))
            }
        }
    }

    /// Warp-wide global store: lane `l` writes `f(l)? = (index, value)`.
    ///
    /// When several lanes in the warp store to the same index, the
    /// highest lane wins — matching the hardware's unspecified-but-single
    /// survivor semantics the paper relies on ("whoever finishes last
    /// becomes vertex 2's parent", §2.1).
    pub fn store_global(&mut self, buf: BufferId, mut f: impl FnMut(Lane) -> Option<(usize, u32)>) {
        let mut lane_blocks = [0u64; WARP_SIZE as usize];
        let mut active = 0;
        let tid0 = self.global_thread_id(0);
        let (cta, warp, tolerant) = (self.cta_id, self.warp_in_cta, self.mem.sdc_tolerant);
        let mut view = self.mem.write_view(buf);
        let mut san = self.san.as_deref_mut();
        for lane in 0..self.active_lanes {
            let Some((idx, val)) = f(Lane { lane, tid: tid0 + lane as u64 }) else { continue };
            let coord = ThreadCoord { cta, warp, lane };
            let init = view.init.as_deref();
            if !admit(san.as_deref_mut(), view.meta, init, idx, coord, AccessKind::Write, tolerant)
            {
                continue; // suppressed out-of-bounds lane
            }
            view.set(idx, val);
            lane_blocks[active] = view.meta.block(idx);
            active += 1;
        }
        self.finish_lanes(&lane_blocks[..active], false);
    }

    /// Warp-wide contiguous store: lane `l < vals.len()` writes `vals[l]`
    /// to `buf[start + l]`. The store counterpart of
    /// [`WarpCtx::load_span`], exact in the same way.
    pub fn store_span(&mut self, buf: BufferId, start: usize, vals: &[u32]) {
        let vals = &vals[..vals.len().min(self.active_lanes as usize)];
        let n = vals.len();
        if n == 0 {
            return;
        }
        let sanitized = self.san.is_some();
        let view = self.mem.write_view(buf);
        match view.data.get_mut(start..start.saturating_add(n)) {
            Some(dst) if !sanitized => {
                dst.copy_from_slice(vals);
                if let Some(init) = view.init {
                    init[start..start + n].fill(true);
                }
                let blocks = view.meta.block(start)..=view.meta.block(start + n - 1);
                self.blocks.clear();
                self.blocks.extend(blocks);
                self.account_global(n as u32, false);
            }
            _ => self.store_global(buf, |l| {
                vals.get(l.lane as usize).map(|&v| (start + l.lane as usize, v))
            }),
        }
    }

    /// Warp-wide `atomicAdd` on global memory; returns each active lane's
    /// old value. Lanes execute in lane order (deterministic).
    pub fn atomic_add_global(
        &mut self,
        buf: BufferId,
        f: impl FnMut(Lane) -> Option<(usize, u32)>,
    ) -> Lanes<u32> {
        self.atomic(buf, f, |old, operand| Some(old.wrapping_add(operand)))
    }

    /// Warp-wide `atomicCAS`: lane provides `(index, expected, new)`;
    /// returns the old value (CAS succeeded iff old == expected).
    pub fn atomic_cas_global(
        &mut self,
        buf: BufferId,
        mut f: impl FnMut(Lane) -> Option<(usize, u32, u32)>,
    ) -> Lanes<u32> {
        self.atomic(
            buf,
            |l| f(l).map(|(idx, expected, new)| (idx, (expected, new))),
            |old, (expected, new)| (old == expected).then_some(new),
        )
    }

    /// The per-lane gather loop: looks every buffer up once, then for
    /// each lane checks the access (sanitizer, or the bit-flip campaign's
    /// tolerance), reads, and records the lane's block.
    fn gather<const K: usize>(
        &mut self,
        bufs: &[BufferId; K],
        mut f: impl FnMut(Lane) -> Option<(usize, usize)>,
    ) -> Lanes<u32> {
        let mut out = no_lanes();
        let mut lane_blocks = [0u64; WARP_SIZE as usize];
        let mut active = 0;
        let tid0 = self.global_thread_id(0);
        let (cta, warp, tolerant) = (self.cta_id, self.warp_in_cta, self.mem.sdc_tolerant);
        let mem: &DeviceMem = self.mem;
        let views = bufs.map(|b| mem.read_view(b));
        let mut san = self.san.as_deref_mut();
        for lane in 0..self.active_lanes {
            let Some((b, idx)) = f(Lane { lane, tid: tid0 + lane as u64 }) else { continue };
            let view = &views[b];
            let coord = ThreadCoord { cta, warp, lane };
            let init = view.init;
            if !admit(san.as_deref_mut(), view.meta, init, idx, coord, AccessKind::Read, tolerant) {
                continue; // suppressed out-of-bounds lane
            }
            out[lane as usize] = Some(view.get(idx));
            lane_blocks[active] = view.meta.block(idx);
            active += 1;
        }
        self.finish_lanes(&lane_blocks[..active], true);
        out
    }

    /// The per-lane atomic loop: lane `l` reads `buf[i]` and, when
    /// `update(old, operand)` returns a value, writes it, for
    /// `f(l) = Some((i, operand))`. Returns each lane's old value.
    fn atomic<T>(
        &mut self,
        buf: BufferId,
        mut f: impl FnMut(Lane) -> Option<(usize, T)>,
        update: impl Fn(u32, T) -> Option<u32>,
    ) -> Lanes<u32> {
        let mut out = no_lanes();
        let mut lane_blocks = [0u64; WARP_SIZE as usize];
        let mut addresses = [usize::MAX; WARP_SIZE as usize];
        let mut active = 0;
        let tid0 = self.global_thread_id(0);
        let (cta, warp, tolerant) = (self.cta_id, self.warp_in_cta, self.mem.sdc_tolerant);
        let mut view = self.mem.write_view(buf);
        let mut san = self.san.as_deref_mut();
        for lane in 0..self.active_lanes {
            let Some((idx, operand)) = f(Lane { lane, tid: tid0 + lane as u64 }) else { continue };
            let coord = ThreadCoord { cta, warp, lane };
            let init = view.init.as_deref();
            if !admit(san.as_deref_mut(), view.meta, init, idx, coord, AccessKind::Atomic, tolerant)
            {
                continue;
            }
            let old = view.get(idx);
            if let Some(new) = update(old, operand) {
                view.set(idx, new);
            }
            out[lane as usize] = Some(old);
            lane_blocks[active] = view.meta.block(idx);
            addresses[active] = idx;
            active += 1;
        }
        if active > 0 {
            self.account_atomic(&lane_blocks[..active], &addresses[..active]);
        }
        out
    }

    /// Shared accounting for atomic warp-ops: intra-warp same-address
    /// conflicts serialize at the L2 atomic unit, charged at
    /// `(max collisions - 1) * ATOMIC_REPLAY_CYCLES`.
    fn account_atomic(&mut self, lane_blocks: &[u64], addresses: &[usize]) {
        let max_dup = addresses
            .iter()
            .map(|a| addresses.iter().filter(|b| *b == a).count())
            .max()
            .unwrap_or(1) as u64;
        self.stats.atomic_serialization_cycles += (max_dup - 1) * ATOMIC_REPLAY_CYCLES;
        self.serial_cycles += ((max_dup - 1) * ATOMIC_REPLAY_CYCLES) as f64;
        self.stats.atomic_requests += 1;
        self.stats.warp_instructions += 1;
        self.stats.lane_slots += WARP_SIZE as u64;
        self.stats.lane_instructions += lane_blocks.len() as u64;
        coalesce(self.blocks, lane_blocks);
        self.charge_blocks(false);
    }

    /// Warp-wide shared-memory load from this CTA's shared array.
    ///
    /// Distinct words mapping to the same of the 32 banks serialize
    /// (broadcasts of the *same* word do not — Kepler semantics).
    pub fn load_shared(&mut self, mut f: impl FnMut(Lane) -> Option<usize>) -> Lanes<u32> {
        let mut out = no_lanes();
        let mut active = 0u32;
        let mut idxs = [usize::MAX; WARP_SIZE as usize];
        for lane in self.lanes() {
            if let Some(idx) = f(self.lane_info(lane)) {
                if !self.san_shared(idx, lane, AccessKind::Read) {
                    continue;
                }
                let v = *self
                    .shared
                    .get(idx)
                    .unwrap_or_else(|| panic!("shared read OOB: [{idx}] len {}", self.shared.len()));
                out[lane as usize] = Some(v);
                idxs[active as usize] = idx;
                active += 1;
            }
        }
        if active > 0 {
            self.account_shared(active, &idxs[..active as usize]);
        }
        out
    }

    /// Warp-wide shared-memory store (bank conflicts as for loads).
    pub fn store_shared(&mut self, mut f: impl FnMut(Lane) -> Option<(usize, u32)>) {
        let mut active = 0u32;
        let mut idxs = [usize::MAX; WARP_SIZE as usize];
        for lane in self.lanes() {
            if let Some((idx, val)) = f(self.lane_info(lane)) {
                if !self.san_shared(idx, lane, AccessKind::Write) {
                    continue;
                }
                let len = self.shared.len();
                *self
                    .shared
                    .get_mut(idx)
                    .unwrap_or_else(|| panic!("shared write OOB: [{idx}] len {len}")) = val;
                idxs[active as usize] = idx;
                active += 1;
            }
        }
        if active > 0 {
            self.account_shared(active, &idxs[..active as usize]);
        }
    }

    /// Same as the global sanitizer check for this CTA's shared memory;
    /// `true` means proceed.
    #[inline]
    fn san_shared(&mut self, idx: usize, lane: u32, kind: AccessKind) -> bool {
        let len = self.shared.len();
        match self.san.as_deref_mut() {
            Some(san) => {
                let coord = ThreadCoord { cta: self.cta_id, warp: self.warp_in_cta, lane };
                san.check_shared(idx, len, coord, kind)
            }
            None => true,
        }
    }

    /// Shared-access accounting: one instruction plus serialized replays
    /// for bank conflicts (see [`bank_conflict_replays`]).
    fn account_shared(&mut self, active: u32, idxs: &[usize]) {
        let replays = bank_conflict_replays(idxs);
        self.stats.shared_bank_conflicts += replays;
        self.stats.shared_accesses += 1;
        self.stats.warp_instructions += 1;
        self.stats.lane_slots += WARP_SIZE as u64;
        self.stats.lane_instructions += active as u64;
        self.serial_cycles +=
            1.0 + replays as f64 + self.timing.shared_latency / self.timing.mlp;
    }

    /// `__ballot()`: one compute instruction, returns the predicate mask.
    pub fn ballot(&mut self, mut f: impl FnMut(Lane) -> bool) -> u32 {
        let mut mask = 0u32;
        for lane in self.lanes() {
            if f(self.lane_info(lane)) {
                mask |= 1 << lane;
            }
        }
        self.compute(1, self.active_lanes);
        mask
    }

    /// Coalesces the blocks of a per-lane global access (one per lane
    /// that proceeded) and charges the access; no lane, no instruction.
    fn finish_lanes(&mut self, lane_blocks: &[u64], is_load: bool) {
        if lane_blocks.is_empty() {
            return;
        }
        coalesce(self.blocks, lane_blocks);
        self.account_global(lane_blocks.len() as u32, is_load);
    }

    /// Charges one warp global access of `active` lanes whose distinct
    /// blocks, in first-touch order, are in `self.blocks`.
    fn account_global(&mut self, active: u32, is_load: bool) {
        self.stats.warp_instructions += 1;
        self.stats.lane_slots += WARP_SIZE as u64;
        self.stats.lane_instructions += active as u64;
        if is_load {
            self.stats.gld_requests += 1;
        } else {
            self.stats.gst_requests += 1;
        }
        self.charge_blocks(is_load);
    }

    /// Transactions, L2 traffic and serial cost of the blocks in
    /// `self.blocks`.
    fn charge_blocks(&mut self, is_load: bool) {
        let n = self.blocks.len() as u64;
        if is_load {
            self.stats.gld_transactions += n;
        } else {
            self.stats.gst_transactions += n;
        }
        let any_miss = probe_l2(self.l2, self.stats, self.blocks);
        // Serial cost of one warp memory instruction: the LD/ST unit
        // replays once per transaction (issue cost), and the transactions
        // of a single instruction are independent, so their latencies
        // overlap — the warp stalls for one (MLP-discounted) latency.
        let lat = if any_miss { self.timing.dram_latency } else { self.timing.l2_latency };
        self.serial_cycles += n as f64 + lat / self.timing.mlp;
    }
}

/// Whether one lane's global access to `buf` (shadow init bitmap `init`)
/// proceeds. An installed sanitizer checks it and suppresses it when out
/// of bounds. Without one, an out-of-bounds lane is suppressed only during
/// a bit-flip campaign (`tolerant`), where a corrupted index acts like
/// stray hardware traffic; otherwise it reaches the access and panics with
/// the typed error.
#[inline]
fn admit(
    san: Option<&mut Sanitizer>,
    buf: BufMeta<'_>,
    init: Option<&[bool]>,
    idx: usize,
    coord: ThreadCoord,
    kind: AccessKind,
    tolerant: bool,
) -> bool {
    match san {
        Some(san) => san.check_global(buf, init, idx, coord, kind),
        None => idx < buf.len || !tolerant,
    }
}

/// Runs one access's distinct blocks through the L2 in order, counting
/// hits and DRAM transactions; returns whether any block missed.
fn probe_l2(l2: &mut L2Cache, stats: &mut KernelRecord, blocks: &[u64]) -> bool {
    let mut any_miss = false;
    for &block in blocks {
        if l2.access(block) {
            stats.l2_hits += 1;
        } else {
            stats.dram_transactions += 1;
            any_miss = true;
        }
    }
    any_miss
}

/// Bank-conflict replays of one warp-wide shared access whose active
/// lanes touch the words `idxs` (at most 32): the most distinct words
/// any one of the 32 banks (`idx % 32`) must serve, minus one. Lanes
/// reading the *same* word are a broadcast and cost nothing extra.
///
/// Counted by sorting `(bank, word)` keys: each index rotated right by
/// the five bank bits puts its bank on top, and equal keys are the same
/// word.
pub fn bank_conflict_replays(idxs: &[usize]) -> u64 {
    const BANK_BITS: u32 = WARP_SIZE.trailing_zeros();
    let mut keys = [0u64; WARP_SIZE as usize];
    let keys = &mut keys[..idxs.len()];
    for (key, &idx) in keys.iter_mut().zip(idxs) {
        *key = (idx as u64).rotate_right(BANK_BITS);
    }
    keys.sort_unstable();
    let bank = |key: u64| key >> (u64::BITS - BANK_BITS);
    let (mut worst, mut words) = (1, 1);
    for pair in keys.windows(2) {
        let same_bank = bank(pair[0]) == bank(pair[1]);
        words = if same_bank { words + u64::from(pair[0] != pair[1]) } else { 1 };
        worst = worst.max(words);
    }
    worst - 1
}

/// Extra cycles charged per colliding intra-warp atomic (replay cost).
pub const ATOMIC_REPLAY_CYCLES: u64 = 12;

/// Latency parameters handed to each warp for serial-path accounting.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WarpTiming {
    pub l2_latency: f64,
    pub dram_latency: f64,
    pub shared_latency: f64,
    pub mlp: f64,
}

/// Cooperative per-CTA initialization context (the phase before the first
/// `__syncthreads`): used to stage data into shared memory.
pub struct CtaCtx<'a> {
    pub(crate) mem: &'a mut DeviceMem,
    pub(crate) l2: &'a mut L2Cache,
    pub(crate) stats: &'a mut KernelRecord,
    pub(crate) shared: &'a mut [u32],
    pub(crate) blocks: &'a mut Vec<u64>,
    /// Installed sanitizer, if any.
    pub(crate) san: Option<&'a mut Sanitizer>,
    pub(crate) timing: WarpTiming,
    /// Serial cycles of the cooperative init phase (inherited by every
    /// warp of the CTA as its starting critical path).
    pub(crate) serial_cycles: f64,
    /// CTA index within the grid.
    pub cta_id: u32,
    /// Threads per CTA for this launch.
    pub threads_per_cta: u32,
}

impl<'a> CtaCtx<'a> {
    /// Cooperative, fully-coalesced copy of `buf[src_range]` into
    /// `shared[dst_offset..]`. Models every warp of the CTA streaming a
    /// contiguous chunk: transactions = touched blocks, instructions =
    /// warp iterations.
    pub fn coop_load_global(
        &mut self,
        buf: BufferId,
        src_range: std::ops::Range<usize>,
        dst_offset: usize,
    ) {
        let len = src_range.len();
        if len == 0 {
            return;
        }
        assert!(
            dst_offset + len <= self.shared.len(),
            "coop_load_global overflows shared memory: {}+{} > {}",
            dst_offset,
            len,
            self.shared.len()
        );
        let shared_len = self.shared.len();
        let dst = &mut self.shared[dst_offset..dst_offset + len];
        let view = self.mem.read_view(buf);
        match self.san.as_deref_mut() {
            None => match view.data.get(src_range.clone()) {
                Some(src) => dst.copy_from_slice(src),
                // The first element past the buffer panics typed, as its
                // per-element read would.
                None => view.meta.out_of_bounds(src_range.start.max(view.meta.len)),
            },
            Some(san) => {
                let coord = ThreadCoord { cta: self.cta_id, warp: COOP_PHASE, lane: 0 };
                for (i, src) in src_range.clone().enumerate() {
                    if !san.check_global(view.meta, view.init, src, coord, AccessKind::Read) {
                        continue; // suppressed out-of-bounds element
                    }
                    san.check_shared(dst_offset + i, shared_len, coord, AccessKind::Write);
                    dst[i] = view.get(src);
                }
            }
        }
        // Accounting: ceil(len/32) coalesced warp loads issued by
        // ceil(len/threads_per_cta) waves of the CTA's warps, plus the
        // matching shared stores. The range's blocks, ascending, are its
        // first-touch order.
        let blocks = view.meta.block(src_range.start)..=view.meta.block(src_range.end - 1);
        let warp_loads = (len as u64).div_ceil(ELEMS_PER_TRANSACTION);
        self.stats.gld_requests += warp_loads;
        self.stats.shared_accesses += warp_loads;
        self.stats.warp_instructions += 2 * warp_loads;
        self.stats.lane_slots += 2 * warp_loads * WARP_SIZE as u64;
        self.stats.lane_instructions += 2 * len as u64;
        self.blocks.clear();
        self.blocks.extend(blocks);
        self.stats.gld_transactions += self.blocks.len() as u64;
        let any_miss = probe_l2(self.l2, self.stats, self.blocks);
        // The whole CTA cooperates: each warp streams its share of the
        // tile with MLP-deep pipelining.
        let warps = (self.threads_per_cta as f64 / WARP_SIZE as f64).max(1.0);
        let lat = if any_miss { self.timing.dram_latency } else { self.timing.l2_latency };
        self.serial_cycles +=
            warp_loads as f64 / warps * (1.0 + lat / self.timing.mlp) / self.timing.mlp.max(1.0)
                + lat / self.timing.mlp;
    }

    /// Fills shared memory with `value` (cheap cooperative memset).
    pub fn shared_fill(&mut self, value: u32) {
        self.shared.fill(value);
        if let Some(san) = self.san.as_deref_mut() {
            san.mark_shared_all_init();
        }
        let warp_ops = (self.shared.len() as u64).div_ceil(WARP_SIZE as u64);
        self.stats.shared_accesses += warp_ops;
        self.stats.warp_instructions += warp_ops;
        self.stats.lane_slots += warp_ops * WARP_SIZE as u64;
        self.stats.lane_instructions += self.shared.len() as u64;
        let warps = (self.threads_per_cta as f64 / WARP_SIZE as f64).max(1.0);
        self.serial_cycles += warp_ops as f64 / warps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_config_for_threads_rounds_up() {
        let cfg = LaunchConfig::for_threads(1000, 256);
        assert_eq!(cfg.grid_ctas, 4);
        assert_eq!(cfg.total_threads, 1000);
        assert_eq!(cfg.warps_per_cta(), 8);
    }

    #[test]
    fn launch_config_shared_words() {
        let cfg = LaunchConfig::grid(1, 32).with_shared_bytes(6 * 1024);
        assert_eq!(cfg.shared_words(), 1536);
    }

    #[test]
    #[should_panic(expected = "degenerate launch")]
    fn zero_cta_launch_rejected() {
        LaunchConfig::grid(0, 32);
    }
}
