//! Device-resident BFS working state shared by the queue-generation and
//! expansion kernels, and its one host-side image.
//!
//! A `DeviceImage` is everything a traversal carries across a level
//! boundary on one device: status, parents, the live queue entries and the
//! hub table. The hub table belongs in it because a cached hub means
//! "visited at this level": the bottom-up kernels adopt it as a parent
//! without reading its status. `BfsState::capture` takes the one image and
//! `BfsState::install` applies it, for level replay, durable checkpoints
//! and resume, loss splices and SDC repair alike.

use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::status::UNVISITED;
use gpu_sim::{BufferId, Device, DeviceError};

/// Sentinel for an empty hub-cache slot.
pub const HUB_EMPTY: u32 = u32::MAX;

/// One device's traversal state at a level boundary, as the host holds
/// it. A device already evicted carries an empty image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct DeviceImage {
    pub status: Vec<u32>,
    pub parent: Vec<u32>,
    /// The live entries of the four class queues; the sizes are the
    /// lengths.
    pub queues: [Vec<u32>; 4],
    /// The hub table (`hub_cache_entries` slots).
    pub hub_src: Vec<u32>,
}

/// Device buffers used by one BFS run.
pub struct BfsState {
    /// Per-vertex status word (level or `UNVISITED`), `n` elements.
    pub status: BufferId,
    /// Per-vertex parent, `n` elements.
    pub parent: BufferId,
    /// The four class queues (Small/Middle/Large/Extreme), `n` elements
    /// each.
    pub queues: [BufferId; 4],
    /// Host copy of the queue sizes after the last generation pass.
    pub queue_sizes: [usize; 4],
    /// Warp-owned bins: class `k`'s region is `bins[k*T*chunk ..]`, and
    /// warp `w` of the `T`-thread scan grid owns the `32*chunk` slots from
    /// `w*32*chunk` inside each region, which its matches fill in queue
    /// order.
    pub bins: BufferId,
    /// Per-warp counters laid out as `counts[k*T/32 + w]` for the four
    /// classes; length `4T/32 + 1` so an exclusive scan leaves the grand
    /// total at `[4T/32]`.
    pub counts: BufferId,
    /// Global staging table for the shared-memory hub cache
    /// (`hub_cache_entries` slots of vertex id or `HUB_EMPTY`).
    pub hub_src: BufferId,
    /// Scratch for the device prefix-sum primitive.
    pub scan_scratch: gpu_sim::ScanScratch,
    /// Scan thread count `T` used for queue generation (a multiple of
    /// 256, so every scan warp is whole).
    pub scan_threads: usize,
    /// Vertices (or queue entries) per scan thread: a scan warp owns
    /// `32 * chunk` of them.
    pub chunk: usize,
    /// Vertex range scanned by *top-down* queue generation: the sources
    /// this device expands. Full range on a single GPU; the owned range
    /// under 1-D partitioning; the column block under 2-D partitioning.
    pub td_range: std::ops::Range<usize>,
    /// Vertex range scanned by the *direction-switch* (bottom-up)
    /// generation: the targets this device inspects. Equals `td_range`
    /// except under 2-D partitioning, where it is the row block.
    pub bu_range: std::ops::Range<usize>,
    /// Number of slots in the hub cache.
    pub hub_cache_entries: usize,
    /// Hub out-degree threshold τ for this graph.
    pub hub_tau: u32,
    /// Classification thresholds.
    pub thresholds: ClassifyThresholds,
}

/// Picks the queue-generation thread count for a graph of `n` vertices:
/// enough threads to keep every SMX busy during the scan (latency hiding
/// dominates the scan's cost), few enough that each thread's share of
/// its warp's bin tile stays meaningfully sized. Always a multiple of 256
/// (the CTA width).
///
/// The clamp bounds come from the simulator:
/// [`gpu_sim::SCAN_GRID_FLOOR_THREADS`] fixes the small-slice cost
/// quantum — below `16 *` the floor, every per-level counter scan costs
/// the same regardless of slice size, which bounds what rebalancing can
/// recover on small graphs (DESIGN.md §5f) — and
/// [`gpu_sim::SCAN_GRID_CEIL_THREADS`] caps the scan's share of large
/// slices.
pub fn scan_thread_count(n: usize) -> usize {
    let t = (n / 16).clamp(gpu_sim::SCAN_GRID_FLOOR_THREADS, gpu_sim::SCAN_GRID_CEIL_THREADS);
    t.next_multiple_of(256)
}

impl BfsState {
    /// Allocates all working buffers for a graph of `g.vertex_count`
    /// vertices and initializes status/parent to unvisited.
    pub fn new(
        device: &mut Device,
        g: &DeviceGraph,
        thresholds: ClassifyThresholds,
        hub_cache_entries: usize,
        hub_tau: u32,
    ) -> Self {
        let n = g.vertex_count;
        Self::try_new_labeled(device, g, thresholds, hub_cache_entries, hub_tau, 0..n, 0..n, "")
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one fallible constructor: working state whose scans cover
    /// separate top-down (sources) and bottom-up (targets) ranges, as 1-D
    /// and 2-D partitioning need (§4.4). Every buffer name is prefixed
    /// with `label`, so the states of co-scheduled pipeline lanes stay
    /// distinguishable in counter dumps and sanitizer reports (e.g.
    /// `lane2.status`); a fleet's own states take `""`. Allocation
    /// failures (real OOM or injected) surface as [`DeviceError`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_new_labeled(
        device: &mut Device,
        g: &DeviceGraph,
        thresholds: ClassifyThresholds,
        hub_cache_entries: usize,
        hub_tau: u32,
        td_range: std::ops::Range<usize>,
        bu_range: std::ops::Range<usize>,
        label: &str,
    ) -> Result<Self, DeviceError> {
        thresholds.validate();
        assert!(hub_cache_entries > 0, "hub cache needs at least one slot");
        for r in [&td_range, &bu_range] {
            assert!(r.end <= g.vertex_count && !r.is_empty(), "bad partition {r:?}");
        }
        let n = g.vertex_count;
        let domain = td_range.len().max(bu_range.len());
        let t = scan_thread_count(domain);
        let chunk = domain.div_ceil(t);
        let named = |base: &str| format!("{label}{base}");
        let status = device.try_alloc(&named("status"), n)?;
        let parent = device.try_alloc(&named("parent"), n)?;
        let queues = [
            device.try_alloc(&named("small_queue"), n)?,
            device.try_alloc(&named("middle_queue"), n)?,
            device.try_alloc(&named("large_queue"), n)?,
            device.try_alloc(&named("extreme_queue"), n)?,
        ];
        // Bin capacity: a warp can discover at most `32 * chunk`
        // frontiers, each landing in exactly one class region.
        let bins = device.try_alloc(&named("warp_bins"), 4 * t * chunk)?;
        let counts = device.try_alloc(&named("warp_counts"), 4 * t / 32 + 1)?;
        let hub_src = device.try_alloc(&named("hub_src"), hub_cache_entries)?;
        // Benign races by design, declared Relaxed so the sanitizer still
        // checks bounds and initialization but not write exclusivity:
        // status/parent discovery is the paper's §2.1 single-survivor
        // "last writer wins" (any competing write stores an equally valid
        // level/parent), and hub staging hashes many vertices onto one
        // slot (`HC[hash(ID)] = ID`, collisions intended). Every other
        // buffer — queues, warp bins, counters — stays Strict: the
        // atomic-free generation scheme's disjoint write sets (§4.1) are
        // exactly what the sanitizer verifies.
        let mem = device.mem();
        for buf in [status, parent, hub_src] {
            mem.set_race_policy(buf, gpu_sim::RacePolicy::Relaxed);
        }
        mem.fill(status, UNVISITED);
        mem.fill(parent, UNVISITED);
        mem.fill(hub_src, HUB_EMPTY);
        let scan_scratch = gpu_sim::ScanScratch::try_new(device, 4 * t / 32 + 1)?;
        Ok(Self {
            status,
            parent,
            queues,
            queue_sizes: [0; 4],
            bins,
            counts,
            hub_src,
            scan_scratch,
            scan_threads: t,
            chunk,
            td_range,
            bu_range,
            hub_cache_entries,
            hub_tau,
            thresholds,
        })
    }

    /// Total frontiers across the four queues.
    pub fn total_frontier(&self) -> usize {
        self.queue_sizes.iter().sum()
    }

    /// Hub-cache slot for a vertex id (the paper's `HC[hash(ID)] = ID`).
    #[inline]
    pub fn hub_slot(&self, vertex: u32) -> usize {
        vertex as usize % self.hub_cache_entries
    }

    /// The device's image: every buffer whole, the queues cut to their
    /// live sizes.
    pub(crate) fn capture(&self, device: &Device) -> DeviceImage {
        let mem = device.mem_ref();
        DeviceImage {
            status: mem.view(self.status).to_vec(),
            parent: mem.view(self.parent).to_vec(),
            queues: std::array::from_fn(|k| {
                let q = mem.view(self.queues[k]);
                q[..self.queue_sizes[k].min(q.len())].to_vec()
            }),
            hub_src: mem.view(self.hub_src).to_vec(),
        }
    }

    /// Uploads `image` to the device: each queue padded to its buffer's
    /// length, the queue sizes taken from the queue lengths.
    pub(crate) fn install(&mut self, device: &mut Device, image: &DeviceImage) {
        let mem = device.mem();
        mem.upload(self.status, &image.status);
        mem.upload(self.parent, &image.parent);
        for ((&buf, size), q) in self.queues.iter().zip(&mut self.queue_sizes).zip(&image.queues) {
            let mut padded = q.clone();
            padded.resize(mem.len(buf), 0);
            mem.upload(buf, &padded);
            *size = q.len();
        }
        mem.upload(self.hub_src, &image.hub_src);
    }

    /// Resets per-run device state (status, parent, queue sizes, hub
    /// staging) without reallocating.
    pub fn reset(&mut self, device: &mut Device) {
        device.mem().fill(self.status, UNVISITED);
        device.mem().fill(self.parent, UNVISITED);
        device.mem().fill(self.hub_src, HUB_EMPTY);
        self.queue_sizes = [0; 4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enterprise_graph::gen::kronecker;
    use gpu_sim::DeviceConfig;

    #[test]
    fn scan_thread_count_bounds() {
        assert_eq!(scan_thread_count(100), 512);
        assert_eq!(scan_thread_count(1 << 20), 32_768);
        assert_eq!(scan_thread_count(10_000) % 256, 0);
    }

    #[test]
    fn state_allocates_and_resets() {
        let g = kronecker(8, 4, 1);
        let mut d = Device::new(DeviceConfig::k40());
        let dg = crate::device_graph::DeviceGraph::upload(&mut d, &g);
        let mut st = BfsState::new(&mut d, &dg, ClassifyThresholds::default(), 1024, 100);
        assert_eq!(d.mem_ref().view(st.status)[0], UNVISITED);
        assert!(st.scan_threads * st.chunk >= g.vertex_count());
        st.queue_sizes = [1, 2, 3, 4];
        assert_eq!(st.total_frontier(), 10);
        st.reset(&mut d);
        assert_eq!(st.total_frontier(), 0);
        assert_eq!(st.hub_slot(1024 + 7), 7);
    }

    /// Capture cuts each queue to its live size and install pads it back
    /// to the buffer, taking the sizes from the lengths; the round trip
    /// carries every buffer, the hub table included.
    #[test]
    fn capture_cuts_queues_and_install_pads_them() {
        let g = kronecker(8, 4, 1);
        let n = g.vertex_count();
        let mut d = Device::new(DeviceConfig::k40());
        let dg = crate::device_graph::DeviceGraph::upload(&mut d, &g);
        let mut st = BfsState::new(&mut d, &dg, ClassifyThresholds::default(), 16, 100);
        let queues: [Vec<u32>; 4] = [vec![1, 2, 3, 4], vec![5, 6], vec![7], vec![]];
        for (&buf, q) in st.queues.iter().zip(&queues) {
            let mut full = q.clone();
            full.resize(n, 9);
            d.mem().upload(buf, &full);
        }
        st.queue_sizes = [2, 2, 0, 0];
        d.mem().set(st.status, 3, 1);
        d.mem().set(st.hub_src, 5, 21);
        let image = st.capture(&d);
        assert_eq!(image.queues, [vec![1, 2], vec![5, 6], vec![], vec![]]);
        assert_eq!((image.status[3], image.hub_src[5]), (1, 21));

        st.reset(&mut d);
        st.install(&mut d, &image);
        assert_eq!(st.queue_sizes, [2, 2, 0, 0]);
        let small = d.mem_ref().view(st.queues[0]);
        assert_eq!((small.len(), &small[..3]), (n, &[1, 2, 0][..]));
        assert_eq!(st.capture(&d), image);
    }
}
