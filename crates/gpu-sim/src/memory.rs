//! Device global memory: buffer arena, 128-byte transaction coalescing,
//! and an exact-LRU L2 cache model.
//!
//! Every buffer element is a `u32` (4 bytes) — the reproduction's graphs
//! fit 32-bit ids and offsets — and each buffer gets a distinct virtual
//! base address aligned to the 128-byte transaction size, so coalescing
//! works across the same address space the hardware would see.
//!
//! The paper's K40 "replies each global memory access with a data block
//! that contains 32, 64 or 128 bytes ... If a warp of threads happen to
//! access the data in the same block, only one hardware access transaction
//! is performed" (§2.2). We model the worst-case-relevant 128-byte block
//! exclusively: BFS data structures are 4-byte typed and the paper's
//! optimizations all target *whether* accesses share a block, not the
//! block size.
//!
//! Buffers start on a transaction boundary, so element `i` of a buffer
//! lies in block `base_block + i / 32`. A warp access borrows its buffer
//! once and derives every lane's block from that rule instead of looking
//! the buffer up per lane. [`coalesce`] keeps the distinct blocks of a
//! warp access in first-touch order, which is the order the L2 sees them.
//!
//! The L2 is a set-associative cache with exact LRU replacement: a block
//! maps to set `block % sets`, and each set keeps its 16 ways in recency
//! order, so a hit moves its way to the front and a miss evicts the last
//! way. Exact LRU is a function of the access sequence alone, so any
//! implementation of it yields the same hit/miss sequence; the
//! differential test in `tests/properties.rs` pins this one against the
//! original tick-stamped model.

use crate::fault::DeviceError;
use crate::sanitizer::RacePolicy;

/// Transaction (cache line) size in bytes.
pub const TRANSACTION_BYTES: u64 = 128;
/// Buffer element size in bytes.
pub const ELEM_BYTES: u64 = 4;
/// Elements per transaction.
pub const ELEMS_PER_TRANSACTION: u64 = TRANSACTION_BYTES / ELEM_BYTES;

/// Handle to a device buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// A buffer's identity as the sanitizer and the typed out-of-bounds
/// panic report it, and its place in the address space, borrowed once
/// per warp access.
#[derive(Clone, Copy)]
pub(crate) struct BufMeta<'a> {
    pub(crate) id: BufferId,
    pub(crate) device: usize,
    pub(crate) name: &'a str,
    pub(crate) len: usize,
    pub(crate) race_policy: RacePolicy,
    /// Block of element 0.
    pub(crate) base_block: u64,
}

impl BufMeta<'_> {
    /// The transaction block covering element `index`.
    #[inline]
    pub(crate) fn block(&self, index: usize) -> u64 {
        self.base_block + index as u64 / ELEMS_PER_TRANSACTION
    }

    /// Panics with the typed error `DeviceMem::read`/`write` raise for an
    /// out-of-bounds index.
    #[cold]
    pub(crate) fn out_of_bounds(&self, index: usize) -> ! {
        let err = DeviceError::OutOfBounds {
            device: self.device,
            buffer: self.name.to_string(),
            index,
            len: self.len,
        };
        panic!("{err}")
    }
}

/// One buffer borrowed for the reads of a warp access.
pub(crate) struct ReadView<'a> {
    pub(crate) meta: BufMeta<'a>,
    pub(crate) data: &'a [u32],
    /// Shadow init bitmap (present only while a sanitizer is installed).
    pub(crate) init: Option<&'a [bool]>,
}

impl ReadView<'_> {
    /// `data[index]`, or the typed out-of-bounds panic.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> u32 {
        match self.data.get(index) {
            Some(&v) => v,
            None => self.meta.out_of_bounds(index),
        }
    }
}

/// One buffer borrowed for the writes (and atomic reads) of a warp access.
pub(crate) struct WriteView<'a> {
    pub(crate) meta: BufMeta<'a>,
    pub(crate) data: &'a mut [u32],
    pub(crate) init: Option<&'a mut [bool]>,
}

impl WriteView<'_> {
    /// `data[index]`, or the typed out-of-bounds panic.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> u32 {
        match self.data.get(index) {
            Some(&v) => v,
            None => self.meta.out_of_bounds(index),
        }
    }

    /// Writes `data[index]` and marks it initialized, or panics typed.
    #[inline]
    pub(crate) fn set(&mut self, index: usize, value: u32) {
        match self.data.get_mut(index) {
            Some(slot) => *slot = value,
            None => self.meta.out_of_bounds(index),
        }
        if let Some(init) = self.init.as_deref_mut() {
            init[index] = true;
        }
    }
}

/// True when word `index` of a buffer with shadow bitmap `init` has been
/// written since allocation. Always true when init tracking is off or the
/// index is out of range (range errors are reported separately).
#[inline]
pub(crate) fn word_initialized(init: Option<&[bool]>, index: usize) -> bool {
    init.is_none_or(|init| init.get(index).copied().unwrap_or(true))
}

struct Buffer {
    name: String,
    base_addr: u64,
    data: Vec<u32>,
    /// Race-detection policy (metadata; consulted only by an installed
    /// sanitizer, so annotating costs nothing otherwise).
    race_policy: RacePolicy,
    /// Shadow word-initialization bitmap; present only while init
    /// tracking is on (i.e. a sanitizer is installed on the device).
    init: Option<Vec<bool>>,
}

/// The global-memory arena of one device.
pub struct DeviceMem {
    buffers: Vec<Buffer>,
    next_base: u64,
    capacity_bytes: u64,
    /// Owning device id, baked into typed errors.
    pub(crate) device_id: usize,
    /// When true, every host/device write maintains per-word shadow
    /// initialization bitmaps for the sanitizer's uninit-read check.
    track_init: bool,
    /// When true (armed only during a bit-flip campaign), kernel-side
    /// accesses through an index that has been silently corrupted are
    /// tolerated as wild-but-harmless instead of panicking: an injected
    /// flip can turn a queue entry or CSR target into garbage, and real
    /// hardware would complete such an access (hitting whatever memory is
    /// there) rather than abort. Clean runs never set this, so genuine
    /// out-of-bounds bugs still panic loudly.
    pub(crate) sdc_tolerant: bool,
}

impl DeviceMem {
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        Self {
            buffers: Vec::new(),
            next_base: 0,
            capacity_bytes,
            device_id: 0,
            track_init: false,
            sdc_tolerant: false,
        }
    }

    /// Allocates a zero-initialized buffer of `len` elements, or returns
    /// a typed [`DeviceError::OutOfMemory`] carrying the device id,
    /// buffer name and byte counts if the arena cannot fit it.
    pub fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, DeviceError> {
        let bytes = (len as u64 * ELEM_BYTES).next_multiple_of(TRANSACTION_BYTES);
        if self.next_base + bytes > self.capacity_bytes {
            return Err(DeviceError::OutOfMemory {
                device: self.device_id,
                buffer: name.to_string(),
                requested_bytes: bytes,
                used_bytes: self.next_base,
                capacity_bytes: self.capacity_bytes,
            });
        }
        let id = BufferId(self.buffers.len());
        self.buffers.push(Buffer {
            name: name.to_string(),
            base_addr: self.next_base,
            data: vec![0; len],
            race_policy: RacePolicy::Strict,
            // Fresh allocations count as uninitialized for the sanitizer
            // even though the simulator zeroes them: hardware does not.
            init: self.track_init.then(|| vec![false; len]),
        });
        self.next_base += bytes;
        Ok(id)
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    ///
    /// # Panics
    /// Panics if the allocation would exceed device memory; fallible
    /// callers should use [`DeviceMem::try_alloc`].
    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        self.try_alloc(name, len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Host-side write of an entire buffer (cudaMemcpy host-to-device),
    /// or a typed [`DeviceError::UploadSizeMismatch`] on length mismatch.
    pub fn try_upload(&mut self, id: BufferId, data: &[u32]) -> Result<(), DeviceError> {
        let device = self.device_id;
        let buf = &mut self.buffers[id.0];
        if buf.data.len() != data.len() {
            return Err(DeviceError::UploadSizeMismatch {
                device,
                buffer: buf.name.clone(),
                buffer_len: buf.data.len(),
                data_len: data.len(),
            });
        }
        buf.data.copy_from_slice(data);
        if let Some(init) = buf.init.as_mut() {
            init.fill(true);
        }
        Ok(())
    }

    /// Host-side write of an entire buffer (cudaMemcpy host-to-device).
    ///
    /// # Panics
    /// Panics on length mismatch; fallible callers should use
    /// [`DeviceMem::try_upload`].
    pub fn upload(&mut self, id: BufferId, data: &[u32]) {
        self.try_upload(id, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Host-side read of an entire buffer (device-to-host).
    pub fn download(&self, id: BufferId) -> Vec<u32> {
        self.buffers[id.0].data.clone()
    }

    /// Host-side view without copying (for validation paths).
    pub fn view(&self, id: BufferId) -> &[u32] {
        &self.buffers[id.0].data
    }

    /// Host-side fill (cudaMemset-style).
    pub fn fill(&mut self, id: BufferId, value: u32) {
        let buf = &mut self.buffers[id.0];
        buf.data.fill(value);
        if let Some(init) = buf.init.as_mut() {
            init.fill(true);
        }
    }

    /// Host-side single-element write (tiny cudaMemcpy, e.g. seeding the
    /// BFS source).
    pub fn set(&mut self, id: BufferId, index: usize, value: u32) {
        self.write(id, index, value);
    }

    /// Host-side single-element read (tiny device-to-host copy).
    pub fn get(&self, id: BufferId, index: usize) -> u32 {
        self.read(id, index)
    }

    /// Buffer length in elements.
    pub fn len(&self, id: BufferId) -> usize {
        self.buffers[id.0].data.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self, id: BufferId) -> bool {
        self.buffers[id.0].data.is_empty()
    }

    /// Total bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.next_base
    }

    /// Fallible single-element read; the typed counterpart of
    /// `DeviceMem::read`'s panic path.
    #[inline]
    pub fn try_read(&self, id: BufferId, index: usize) -> Result<u32, DeviceError> {
        let buf = &self.buffers[id.0];
        match buf.data.get(index) {
            Some(&v) => Ok(v),
            None => Err(DeviceError::OutOfBounds {
                device: self.device_id,
                buffer: buf.name.clone(),
                index,
                len: buf.data.len(),
            }),
        }
    }

    /// Fallible single-element write; the typed counterpart of
    /// `DeviceMem::write`'s panic path.
    #[inline]
    pub fn try_write(&mut self, id: BufferId, index: usize, value: u32) -> Result<(), DeviceError> {
        let device = self.device_id;
        let buf = &mut self.buffers[id.0];
        let len = buf.data.len();
        match buf.data.get_mut(index) {
            Some(slot) => {
                *slot = value;
                if let Some(init) = buf.init.as_mut() {
                    init[index] = true;
                }
                Ok(())
            }
            None => Err(DeviceError::OutOfBounds {
                device,
                buffer: buf.name.clone(),
                index,
                len,
            }),
        }
    }

    #[inline]
    pub(crate) fn read(&self, id: BufferId, index: usize) -> u32 {
        self.try_read(id, index).unwrap_or_else(|e| panic!("{e}"))
    }

    #[inline]
    pub(crate) fn write(&mut self, id: BufferId, index: usize, value: u32) {
        self.try_write(id, index, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the race-detection policy for `id` (metadata; see
    /// [`RacePolicy`]). Safe to call whether or not a sanitizer is
    /// installed, in any order.
    pub fn set_race_policy(&mut self, id: BufferId, policy: RacePolicy) {
        self.buffers[id.0].race_policy = policy;
    }

    /// The race-detection policy of `id`.
    pub fn race_policy(&self, id: BufferId) -> RacePolicy {
        self.buffers[id.0].race_policy
    }

    /// The buffer's name (as passed to `alloc`).
    pub fn buffer_name(&self, id: BufferId) -> &str {
        &self.buffers[id.0].name
    }

    /// Turns on shadow word-initialization tracking. Buffers that
    /// already exist are conservatively marked fully initialized (their
    /// write history is unknown); enable the sanitizer before allocating
    /// to get full uninit-read coverage.
    pub(crate) fn enable_init_tracking(&mut self) {
        if self.track_init {
            return;
        }
        self.track_init = true;
        for buf in &mut self.buffers {
            buf.init = Some(vec![true; buf.data.len()]);
        }
    }

    /// Borrows `id` for the reads of one warp access.
    #[inline]
    pub(crate) fn read_view(&self, id: BufferId) -> ReadView<'_> {
        let buf = &self.buffers[id.0];
        ReadView {
            meta: BufMeta {
                id,
                device: self.device_id,
                name: &buf.name,
                len: buf.data.len(),
                race_policy: buf.race_policy,
                base_block: buf.base_addr / TRANSACTION_BYTES,
            },
            data: &buf.data,
            init: buf.init.as_deref(),
        }
    }

    /// Borrows `id` for the writes of one warp access.
    #[inline]
    pub(crate) fn write_view(&mut self, id: BufferId) -> WriteView<'_> {
        let device = self.device_id;
        let buf = &mut self.buffers[id.0];
        WriteView {
            meta: BufMeta {
                id,
                device,
                name: &buf.name,
                len: buf.data.len(),
                race_policy: buf.race_policy,
                base_block: buf.base_addr / TRANSACTION_BYTES,
            },
            data: &mut buf.data,
            init: buf.init.as_deref_mut(),
        }
    }

    /// Total elements across all allocated buffers (the flip injector's
    /// arena size, so hit probability is proportional to footprint).
    pub(crate) fn total_elems(&self) -> usize {
        self.buffers.iter().map(|b| b.data.len()).sum()
    }

    /// Maps an arena-global element ordinal (0..`total_elems()`) to the
    /// owning buffer and local element index.
    pub(crate) fn locate_elem(&self, mut global: usize) -> Option<(BufferId, usize)> {
        for (i, buf) in self.buffers.iter().enumerate() {
            if global < buf.data.len() {
                return Some((BufferId(i), global));
            }
            global -= buf.data.len();
        }
        None
    }

    /// XORs one bit of one element — the silent-corruption primitive. The
    /// shadow init bitmap is deliberately *not* touched: a cosmic-ray
    /// flip is not a write, and an uninitialized word stays
    /// uninitialized.
    pub(crate) fn flip_bit(&mut self, id: BufferId, elem: usize, bit: u32) {
        self.buffers[id.0].data[elem] ^= 1u32 << bit;
    }
}

/// Slots of the first-touch table [`coalesce`] dedupes a warp's blocks
/// in: twice the 32 lanes, so open addressing stays at most half full.
const COALESCE_SLOTS: usize = 64;

/// Coalesces one warp-wide access: the distinct blocks among
/// `lane_blocks` (one per active lane, at most 32), in first-touch order.
///
/// Linear time: each block is looked up in a fixed 64-slot
/// open-addressing table (Fibonacci-hashed, so strided block ids spread
/// over the slots) instead of being searched for in the output. A lane
/// in the same block as the lane before it is already in the table and
/// skips the lookup, so a contiguous access probes once per block.
pub fn coalesce(blocks: &mut Vec<u64>, lane_blocks: &[u64]) {
    assert!(lane_blocks.len() <= COALESCE_SLOTS / 2, "more lanes than a warp");
    blocks.clear();
    // Block ids are byte addresses over 128, so u64::MAX never occurs.
    let mut table = [u64::MAX; COALESCE_SLOTS];
    let mut previous = u64::MAX;
    for &b in lane_blocks {
        if b == previous {
            continue;
        }
        previous = b;
        let mut slot = (b.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        loop {
            let seen = table[slot];
            if seen == b {
                break;
            }
            if seen == u64::MAX {
                table[slot] = b;
                blocks.push(b);
                break;
            }
            slot = (slot + 1) % COALESCE_SLOTS;
        }
    }
}

/// Ways per L2 set.
const L2_WAYS: usize = 16;
/// Tag of a way that holds no block.
const EMPTY_WAY: u64 = u64::MAX;

/// Set-associative L2 cache model over 128-byte blocks, 16 ways with
/// exact LRU replacement.
///
/// (Fields are internal; use [`L2Cache::hits`]/[`L2Cache::misses`].)
///
/// The K40 has 1.5 MB of L2 shared by all SMXs; BFS working sets (status
/// array + adjacency) far exceed it, but short-term reuse (e.g. frontier
/// queue reads, repeated hub status probes without the hub cache) hits.
///
/// Tags live in one flat array, 16 per set. A set's ways are kept in
/// recency order — a way's position is its LRU rank — so a hit rotates
/// its way to the front and a miss shifts the set down by one, dropping
/// the least recently used block.
pub struct L2Cache {
    tags: Vec<u64>,
    sets: u64,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// Creates a 16-way LRU cache of `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        let lines = capacity_bytes / TRANSACTION_BYTES;
        let sets = (lines / L2_WAYS as u64).max(1);
        Self { tags: vec![EMPTY_WAY; sets as usize * L2_WAYS], sets, hits: 0, misses: 0 }
    }

    /// Accesses one block; returns `true` on hit. Block ids are byte
    /// addresses over 128, so `u64::MAX` (the empty-way tag) never occurs.
    #[inline]
    pub fn access(&mut self, block: u64) -> bool {
        debug_assert_ne!(block, EMPTY_WAY, "block id out of the address space");
        // `block % sets`, without a 64-bit division when it is a mask.
        let set =
            if self.sets.is_power_of_two() { block & (self.sets - 1) } else { block % self.sets };
        let base = set as usize * L2_WAYS;
        let ways = &mut self.tags[base..base + L2_WAYS];
        match ways.iter().position(|&tag| tag == block) {
            Some(rank) => {
                ways[..=rank].rotate_right(1);
                self.hits += 1;
                true
            }
            None => {
                ways.rotate_right(1);
                ways[0] = block;
                self.misses += 1;
                false
            }
        }
    }

    /// Hits since the last reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY_WAY);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_get_disjoint_block_ranges() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("a", 10);
        let b = mem.alloc("b", 10);
        assert_ne!(mem.read_view(a).meta.block(0), mem.read_view(b).meta.block(0));
        // 10 elements = 40 bytes, padded to 128: buffer b starts at the
        // next transaction boundary.
        assert_eq!(mem.read_view(b).meta.base_block, 1);
        assert_eq!(mem.read_view(b).meta.block(31), 1);
        assert_eq!(mem.read_view(b).meta.block(32), 2);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("a", 4);
        mem.write(a, 2, 77);
        assert_eq!(mem.read(a, 2), 77);
        assert_eq!(mem.view(a), &[0, 0, 77, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics_with_buffer_name() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("status", 4);
        mem.read(a, 4);
    }

    #[test]
    #[should_panic(expected = "device OOM")]
    fn oom_panics() {
        let mut mem = DeviceMem::new(256);
        mem.alloc("big", 1000);
    }

    #[test]
    fn try_alloc_reports_typed_oom() {
        let mut mem = DeviceMem::new(256);
        let err = mem.try_alloc("big", 1000).unwrap_err();
        match err {
            DeviceError::OutOfMemory { buffer, requested_bytes, used_bytes, capacity_bytes, .. } => {
                assert_eq!(buffer, "big");
                assert!(requested_bytes >= 4000, "transaction-aligned request");
                assert_eq!(used_bytes, 0);
                assert_eq!(capacity_bytes, 256);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn try_upload_reports_typed_mismatch() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("a", 3);
        let err = mem.try_upload(a, &[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::UploadSizeMismatch { buffer_len: 3, data_len: 2, .. }
        ));
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("a", 3);
        mem.upload(a, &[1, 2, 3]);
        assert_eq!(mem.download(a), vec![1, 2, 3]);
        mem.fill(a, 9);
        assert_eq!(mem.download(a), vec![9, 9, 9]);
    }

    #[test]
    fn try_read_write_report_typed_oob() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("status", 4);
        let err = mem.try_read(a, 9).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfBounds { device: 0, buffer: "status".into(), index: 9, len: 4 }
        );
        let err = mem.try_write(a, 4, 1).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBounds { index: 4, len: 4, .. }));
        assert!(mem.try_write(a, 3, 7).is_ok());
        assert_eq!(mem.try_read(a, 3), Ok(7));
    }

    #[test]
    fn race_policy_defaults_strict_and_is_settable() {
        let mut mem = DeviceMem::new(1 << 20);
        let a = mem.alloc("a", 4);
        assert_eq!(mem.race_policy(a), RacePolicy::Strict);
        mem.set_race_policy(a, RacePolicy::Relaxed);
        assert_eq!(mem.race_policy(a), RacePolicy::Relaxed);
        assert_eq!(mem.buffer_name(a), "a");
    }

    #[test]
    fn init_tracking_marks_host_writes() {
        let mut mem = DeviceMem::new(1 << 20);
        let is_init = |mem: &DeviceMem, id, i| word_initialized(mem.read_view(id).init, i);
        let pre = mem.alloc("pre", 2);
        assert!(is_init(&mem, pre, 0), "untracked buffers count as initialized");
        mem.enable_init_tracking();
        assert!(is_init(&mem, pre, 0), "pre-existing buffers count as initialized");
        let a = mem.alloc("a", 4);
        assert!(!is_init(&mem, a, 0));
        mem.set(a, 1, 5);
        assert!(is_init(&mem, a, 1));
        assert!(!is_init(&mem, a, 2));
        assert!(is_init(&mem, a, 9), "out-of-range words are reported elsewhere");
        mem.fill(a, 0);
        assert!(is_init(&mem, a, 2));
        let b = mem.alloc("b", 2);
        mem.upload(b, &[1, 2]);
        assert!(is_init(&mem, b, 0) && is_init(&mem, b, 1));
    }

    #[test]
    fn coalesce_dedupes_blocks() {
        let mut blocks = Vec::new();
        // 32 consecutive 4-byte elements share one 128-byte block.
        let lanes: Vec<u64> = (0..32u64).map(|i| i * 4 / TRANSACTION_BYTES).collect();
        coalesce(&mut blocks, &lanes);
        assert_eq!(blocks, vec![0]);
        // Stride-32 elements hit 32 distinct blocks.
        let lanes: Vec<u64> = (0..32u64).map(|i| i * 32 * 4 / TRANSACTION_BYTES).collect();
        coalesce(&mut blocks, &lanes);
        assert_eq!(blocks.len(), 32);
        // Duplicates keep the position of their first touch.
        coalesce(&mut blocks, &[7, 3, 7, 64 + 7, 3, 1]);
        assert_eq!(blocks, vec![7, 3, 64 + 7, 1]);
    }

    #[test]
    fn l2_hits_on_reuse_and_evicts_lru() {
        let mut l2 = L2Cache::new(16 * TRANSACTION_BYTES); // 16 lines, 16-way: 1 set
        assert!(!l2.access(1));
        assert!(l2.access(1));
        for b in 2..18 {
            l2.access(b); // fills and overflows the single set
        }
        // Block 1 was most recently... blocks 2..17 inserted after; the
        // eviction victim when 17 arrived was the LRU (block 1 was touched
        // at tick 2, block 2 at tick 3, so 1 went first).
        assert!(!l2.access(1), "LRU block should have been evicted");
        assert!(l2.hits() >= 1);
    }

    #[test]
    fn l2_reset_clears_everything() {
        let mut l2 = L2Cache::new(1 << 14);
        l2.access(5);
        l2.access(5);
        l2.reset();
        assert_eq!(l2.hits(), 0);
        assert!(!l2.access(5));
    }
}
