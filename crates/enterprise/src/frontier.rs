//! Streamlined frontier-queue generation (§4.1) — technique TS.
//!
//! The queue is produced *without atomics* in two steps: the scan grid
//! finds the frontiers and bins them, then a prefix sum over the bin
//! counts places every bin into its class queue. The bins are owned by
//! warps: each warp of the `T`-thread scan grid owns one contiguous bin
//! tile and one counter per class, so the per-level prefix scan runs over
//! `4·T/32 + 1` words. A warp reads 32 consecutive items per step as one
//! coalesced span and ranks the step's matches with one `__ballot` plus
//! popc per class, so each class's matches land as one contiguous run
//! behind the tile's earlier ones. The copy pass then moves whole tiles
//! with spans. Three scan workflows optimize the
//! memory-access pattern of the *next* level:
//!
//! * **Top-down** — *interleaved* scan (thread `t` checks `t, t+T, ...`):
//!   consecutive lanes read consecutive status words. Each lane keeps its
//!   matches until the scan ends; an exclusive warp scan of the lane
//!   counts then places each lane's run, so the queue comes out in the
//!   per-thread order (thread-major over the items `j·T + t`). That order
//!   is unsorted, which is fine because top-down levels have few
//!   frontiers (~0.4%).
//! * **Direction-switching** — *blocked* scan: warp `w` owns the
//!   contiguous items `w·32c..(w+1)·32c` (`c` = `chunk`), the items its
//!   32 threads would own as per-thread chunks, and emits them in item
//!   order, so the resulting bottom-up queue is *sorted* and the next
//!   level walks the adjacency lists in order (sequential global memory
//!   access, the paper's 37.6% next-level win). The paper pays about
//!   2.4× the interleaved scan's time for this order; with warp-owned
//!   tiles the two read the status array equally well.
//! * **Bottom-up** — the current queue is always a subset of the previous
//!   one, so we *filter* the previous queue (warp tiles over the
//!   concatenated class queues, in order) instead of rescanning the
//!   status array (paper: ~3% improvement), preserving sortedness. In
//!   this model the filter measures slower than a rescan (EXPERIMENTS.md,
//!   §4.1 TS numbers); the drivers keep the paper's workflow.
//!
//! Queue generation is also where the hub cache is staged: the switch
//! and filter workflows stage freshly-visited hubs into the global hub
//! table that expansion kernels cache in shared memory (§4.3). A slot's
//! last writer decides which hub a bottom-up inspection adopts, so each
//! warp stages its hubs in the order per-thread chunks would write them:
//! step by step, lanes in order. The scans count no hubs: γ's two counts
//! come from the host, `T_h` from the CSR and `F_h` from the level's
//! exchange, so the driver knows the next direction before it generates
//! the one queue that direction needs.

use crate::device_graph::DeviceGraph;
use crate::state::{BfsState, HUB_EMPTY};
use crate::status::UNVISITED;
use gpu_sim::{BufferId, Device, DeviceError, Lanes, LaunchConfig, WarpCtx, WARP_SIZE};

const W: usize = WARP_SIZE as usize;

/// Which queue-generation workflow to run.
#[derive(Clone, Copy, Debug)]
pub enum GenWorkflow {
    /// Interleaved scan of the status array for vertices visited at
    /// `frontier_level` (they expand at the next level).
    TopDown {
        /// Status value identifying the frontier.
        frontier_level: u32,
    },
    /// Blocked scan of the status array for *unvisited* vertices (the
    /// first bottom-up queue); stages hubs freshly visited at
    /// `newly_level`.
    Switch {
        /// Status value of freshly visited vertices (hub staging).
        newly_level: u32,
    },
    /// Filter of the previous bottom-up queues, keeping unvisited
    /// entries; stages hubs freshly visited at `newly_level`.
    Filter {
        /// Status value of freshly visited vertices (hub staging).
        newly_level: u32,
    },
}

/// Outcome of one queue-generation pass.
#[derive(Clone, Copy, Debug)]
pub struct QueueGenResult {
    /// Entries per class queue.
    pub sizes: [usize; 4],
    /// Hub vertices staged into the cache table by this pass (expansion
    /// skips cache probing when nothing was staged).
    pub hub_fills: usize,
}

/// Seeds a cold traversal's level-0 frontier directly from the host:
/// marks `source` visited at level 0 with itself as parent, classifies
/// it by `out_degree`, and places it alone in its class queue. Shared
/// by every driver's cold start and by pipeline-lane admission, so the
/// seeded state is bit-identical whichever path built it.
pub fn enqueue_seed(device: &mut Device, st: &mut BfsState, source: u32, out_degree: u32) {
    device.mem().set(st.status, source as usize, 0);
    device.mem().set(st.parent, source as usize, source);
    let class = st.thresholds.classify(out_degree);
    device.mem().set(st.queues[class.index()], 0, source);
    st.queue_sizes = [0; 4];
    st.queue_sizes[class.index()] = 1;
}

/// Generates the four class queues with the given workflow. Updates
/// `st.queue_sizes` and returns the generation result.
///
/// `fill_hubs` additionally stages freshly-visited hub vertices into the
/// global hub table (only meaningful for `Switch`/`Filter`).
///
/// # Panics
/// Panics if an injected launch fault exhausts the device's relaunch
/// budget; recovery-aware drivers use [`try_generate_queues`].
pub fn generate_queues(
    device: &mut Device,
    g: &DeviceGraph,
    st: &mut BfsState,
    wf: GenWorkflow,
    fill_hubs: bool,
) -> QueueGenResult {
    try_generate_queues(device, g, st, wf, fill_hubs).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`generate_queues`]: surfaces unrecovered launch
/// faults as [`DeviceError`] so the driver can replay the level. On
/// error, `st.queue_sizes` keeps its pre-call value but device buffers
/// may hold partial scan output; the replay restores them from its
/// checkpoint.
pub fn try_generate_queues(
    device: &mut Device,
    g: &DeviceGraph,
    st: &mut BfsState,
    wf: GenWorkflow,
    fill_hubs: bool,
) -> Result<QueueGenResult, DeviceError> {
    if fill_hubs {
        clear_hub_table(device, st)?;
    }
    // Status-array scans spread over the domain-sized thread grid; the
    // bottom-up filter only touches the previous queue, so it sizes its
    // grid (and therefore the prefix-sum length and the copy pass) to the
    // queue instead — most of the §4.1 bottom-up workflow's win.
    let t = match wf {
        GenWorkflow::TopDown { frontier_level } => {
            scan_status(device, g, st, frontier_level, /*interleaved=*/ true, None)?;
            st.scan_threads
        }
        GenWorkflow::Switch { newly_level } => {
            let fill = fill_hubs.then_some(newly_level);
            scan_status(device, g, st, UNVISITED, /*interleaved=*/ false, fill)?;
            st.scan_threads
        }
        GenWorkflow::Filter { newly_level } => {
            filter_queues(device, g, st, fill_hubs.then_some(newly_level))?
        }
    };
    // Guard element so the exclusive scan leaves the grand total at
    // counts[4 warps] (a one-word memset folded into the scan's first
    // launch).
    let warps = t / W;
    device.mem().set(st.counts, 4 * warps, 0);
    gpu_sim::scan::try_exclusive_scan(device, st.counts, 4 * warps + 1, &st.scan_scratch)?;

    // Host reads the class boundaries and the grand total (a tiny
    // device-to-host copy of five words in a real system, folded into the
    // next launch's overhead).
    let counts = device.mem_ref().view(st.counts);
    let bases: [u32; 5] = std::array::from_fn(|k| counts[k * warps]);
    // Saturate and bound: a bit flip in the scanned counts buffer can
    // make the class boundaries non-monotonic or absurd; a queue can
    // never legitimately exceed its capacity, and keeping the sizes sane
    // keeps the expansion grids finite (the verifier repairs the rest).
    let queue_cap = device.mem_ref().view(st.queues[0]).len();
    let sizes: [usize; 4] =
        std::array::from_fn(|k| (bases[k + 1].saturating_sub(bases[k]) as usize).min(queue_cap));
    let class_bases = [bases[0], bases[1], bases[2], bases[3]];

    copy_bins_to_queues(device, st, class_bases, t)?;
    st.queue_sizes = sizes;
    let hub_fills = if fill_hubs {
        // Instrumentation read standing in for the fill counter a real
        // implementation would fold into the per-warp counts.
        device.mem_ref().view(st.hub_src).iter().filter(|&&x| x != HUB_EMPTY).count()
    } else {
        0
    };
    Ok(QueueGenResult { sizes, hub_fills })
}

/// Clears the global hub staging table (a device memset kernel).
fn clear_hub_table(device: &mut Device, st: &BfsState) -> Result<(), DeviceError> {
    let hub_src = st.hub_src;
    let entries = st.hub_cache_entries;
    device
        .try_launch("clear_hub_table", LaunchConfig::for_threads(entries as u64, 256), |w| {
            let tid0 = w.global_thread_id(0) as usize;
            w.store_span(hub_src, tid0, &[HUB_EMPTY; W][..lanes_below(entries, tid0)]);
        })
        .map(|_| ())
}

/// A lane's adjacency length from its two offset words (saturating: a
/// flipped offset must not panic the kernel; misclassification is
/// benign).
fn degree(begin: &Lanes<u32>, end: &Lanes<u32>, lane: u32) -> Option<u32> {
    Some(end[lane as usize]?.saturating_sub(begin[lane as usize]?))
}

/// Status-array scan shared by the top-down (interleaved, match ==
/// `match_status`) and switch (blocked, match unvisited) workflows.
///
/// `hub_fill_level`: when set, vertices whose status equals that level
/// and whose out-degree exceeds τ are staged into the hub table.
fn scan_status(
    device: &mut Device,
    g: &DeviceGraph,
    st: &mut BfsState,
    match_status: u32,
    interleaved: bool,
    hub_fill_level: Option<u32>,
) -> Result<(), DeviceError> {
    let t = st.scan_threads;
    // Top-down scans the sources this device expands; the direction
    // switch scans the targets it will inspect bottom-up (the two differ
    // only under 2-D partitioning).
    let range = if match_status == UNVISITED { st.bu_range.clone() } else { st.td_range.clone() };
    let (base, domain, chunk) = (range.start, range.len(), st.chunk);
    let (thresholds, tau, entries) = (st.thresholds, st.hub_tau, st.hub_cache_entries);
    let (status, bins, counts, hub_src) = (st.status, st.bins, st.counts, st.hub_src);
    // Classification degree: the adjacency the *next* level will inspect.
    // Top-down expands out-edges; the switch builds a bottom-up queue that
    // inspects in-edges.
    let class_offsets = if match_status == UNVISITED { g.in_offsets } else { g.out_offsets };
    let out_offsets = g.out_offsets;
    let name = if interleaved { "scan_status_interleaved" } else { "scan_status_blocked" };
    let (mut held, mut hubs) = (Vec::new(), Vec::new());

    device.try_launch(name, LaunchConfig::for_threads(t as u64, 256), |w| {
        let mut tile = Tile::new(w, chunk, t);
        let tid0 = w.global_thread_id(0) as usize;
        held.clear();
        for j in 0..chunk {
            // Lane `l` checks item `first + l`: interleaved, thread `tid`
            // checks `j * t + tid`; blocked, the warp walks its own tile.
            let first = if interleaved { j * t + tid0 } else { tile.first + j * W };
            let n = lanes_below(domain, first);
            if n == 0 {
                break;
            }
            let stats = w.load_span(status, base + first, n);
            let at = |l: usize, s: u32| (stats[l] == Some(s)).then_some(base + first + l);
            let frontier: Lanes<usize> = std::array::from_fn(|l| at(l, match_status));
            // Degree loads for classification (two offset words).
            let begin = w.load_global(class_offsets, |l| frontier[l.lane as usize]);
            let end = w.load_global(class_offsets, |l| frontier[l.lane as usize].map(|v| v + 1));
            w.compute(1, w.active_lanes);
            let items = std::array::from_fn(|l| {
                let class =
                    degree(&begin, &end, l as u32).map_or(0, |d| thresholds.classify(d).index());
                Some((class, frontier[l]? as u32))
            });
            if !interleaved {
                tile.place(w, bins, &items);
            } else if items.iter().any(Option::is_some) {
                held.push(items);
            }
            // The switch stages freshly-visited hubs into the table.
            if let Some(fill) = hub_fill_level {
                let newly = std::array::from_fn(|l| at(l, fill));
                find_hubs(w, out_offsets, tau, &newly, j * W, &mut hubs);
            }
        }
        if !held.is_empty() {
            tile.place_lane_runs(w, bins, &held);
        }
        stage_hubs(w, hub_src, entries, chunk, &mut hubs);
        tile.publish(w, counts, t / W);
    })?;
    Ok(())
}

/// Bottom-up filter workflow: rebuilds each class queue from its previous
/// contents, keeping unvisited entries; stages freshly-visited hubs.
fn filter_queues(
    device: &mut Device,
    g: &DeviceGraph,
    st: &mut BfsState,
    hub_fill_level: Option<u32>,
) -> Result<usize, DeviceError> {
    let chunk = st.chunk;
    let tau = st.hub_tau;
    let entries = st.hub_cache_entries;
    let (status, bins, counts, hub_src) = (st.status, st.bins, st.counts, st.hub_src);
    let out_offsets = g.out_offsets;
    let queues = st.queues;
    let sizes = st.queue_sizes;

    // Virtual concatenation of the four queues. The grid is sized to the
    // queue (not the graph), bounded so the warp tiles never overflow.
    // A bit-flip campaign can inflate the (device-derived) queue sizes
    // past what the bins can hold; clamp to bin capacity — dropped tail
    // entries are exactly what the traversal verifier detects and
    // repairs. Clean runs never exceed the capacity.
    let total: usize = sizes.iter().sum::<usize>().min(st.scan_threads * chunk);
    let starts = [0, sizes[0], sizes[0] + sizes[1], sizes[0] + sizes[1] + sizes[2]];
    let t = (total.div_ceil(8).max(total.div_ceil(chunk)))
        .clamp(256, st.scan_threads)
        .next_multiple_of(256)
        .min(st.scan_threads);
    let per_thread = total.div_ceil(t).max(1);
    assert!(per_thread <= chunk, "filter bins overflow: {per_thread} > {chunk}");
    let locate = move |i: usize| -> (usize, usize) {
        // (class, position) of concatenated index i.
        let k = (0..4).rev().find(|&k| i >= starts[k]).unwrap_or(0);
        (k, i - starts[k])
    };
    let mut hubs = Vec::new();

    device.try_launch("filter_queues", LaunchConfig::for_threads(t as u64, 256), |w| {
        let mut tile = Tile::new(w, chunk, t);
        // The warp filters the concatenated entries `w·32p..(w+1)·32p`
        // (`p` = `per_thread`), in order: sortedness survives within each
        // class region.
        let tile_first = w.global_warp_id() as usize * W * per_thread;
        for j in 0..per_thread {
            let first = tile_first + j * W;
            let n = lanes_below(total, first);
            if n == 0 {
                break;
            }
            let item = |l: usize| (l < n).then(|| locate(first + l));
            let vids = w.load_global_multi(&queues, |l| item(l.lane as usize));
            let stats = w.load_global(status, |l| vids[l.lane as usize].map(|v| v as usize));
            // Keep unvisited entries in their class.
            let items = std::array::from_fn(|l| match (item(l), vids[l], stats[l]) {
                (Some((k, _)), Some(v), Some(UNVISITED)) => Some((k, v)),
                _ => None,
            });
            tile.place(w, bins, &items);
            if let Some(fill) = hub_fill_level {
                let newly = std::array::from_fn(|l| {
                    vids[l].filter(|_| stats[l] == Some(fill)).map(|v| v as usize)
                });
                find_hubs(w, out_offsets, tau, &newly, j * W, &mut hubs);
            }
        }
        stage_hubs(w, hub_src, entries, per_thread, &mut hubs);
        tile.publish(w, counts, t / W);
    })?;
    Ok(t)
}

/// One warp's bin tile and counters in a queue-generation pass.
///
/// Class `k`'s bins for a `t`-thread grid are `bins[k * t * chunk ..]`,
/// and warp `w` owns the `32 · chunk` slots from `w · 32 · chunk` inside
/// each class region: room for every item its 32 threads scan.
struct Tile {
    /// First item of the warp's blocked tile (and its first bin slot).
    first: usize,
    /// Items per class region (`t · chunk`).
    region: usize,
    /// Entries binned so far, per class.
    cnt: [u32; 4],
}

impl Tile {
    fn new(w: &WarpCtx, chunk: usize, t: usize) -> Self {
        let first = w.global_warp_id() as usize * W * chunk;
        Self { first, region: t * chunk, cnt: [0; 4] }
    }

    /// Bin slot of the `rank`-th entry after the tile's `cnt[k]` earlier
    /// class-`k` entries.
    fn slot(&self, k: usize, rank: u32) -> usize {
        k * self.region + self.first + (self.cnt[k] + rank) as usize
    }

    /// Ballot-rank placement of one step's `(class, vertex)` matches:
    /// per class one `__ballot`, and each matching lane's rank is the popc
    /// of the ballot below its lane, so the step's class-`k` matches land
    /// as one run in lane order. One store.
    fn place(&mut self, w: &mut WarpCtx, bins: BufferId, items: &Lanes<(usize, u32)>) {
        let mut slots = [0; W];
        for k in 0..4 {
            let mask = w.ballot(|l| items[l.lane as usize].is_some_and(|(c, _)| c == k));
            for lane in (0..W).filter(|&l| mask >> l & 1 == 1) {
                slots[lane] = self.slot(k, (mask & ((1 << lane) - 1)).count_ones());
            }
            self.cnt[k] += mask.count_ones();
        }
        w.store_global(bins, |l| Some((slots[l.lane as usize], items[l.lane as usize]?.1)));
    }

    /// The interleaved scan's deferred placement: the lanes' matches of
    /// every step in `held`, each lane's as one run per class, the runs in
    /// lane order. An exclusive warp scan of the lane counts per class
    /// gives each run's start; then one store per held step.
    fn place_lane_runs(&mut self, w: &mut WarpCtx, bins: BufferId, held: &[Lanes<(usize, u32)>]) {
        let mut lane_counts = [[0; W]; 4];
        for step in held {
            for (l, &(k, _)) in step.iter().enumerate().filter_map(|(l, m)| Some((l, m.as_ref()?)))
            {
                lane_counts[k][l] += 1;
            }
        }
        let mut next = [[0; W]; 4];
        for k in 0..4 {
            let (starts, total) = w.warp_scan_exclusive(&lane_counts[k].map(Some));
            next[k] = starts;
            self.cnt[k] = total;
        }
        for step in held {
            w.store_global(bins, |l| {
                let (k, v) = step[l.lane as usize]?;
                let rank = &mut next[k][l.lane as usize];
                *rank += 1;
                Some((k * self.region + self.first + (*rank - 1) as usize, v))
            });
        }
    }

    /// Publishes the four class counts to `counts[k * warps + warp]`: one
    /// store of four lanes.
    fn publish(&self, w: &mut WarpCtx, counts: BufferId, warps: usize) {
        let warp = w.global_warp_id() as usize;
        w.store_global(counts, |l| {
            self.cnt.get(l.lane as usize).map(|&v| (l.lane as usize * warps + warp, v))
        });
    }
}

/// Hub search shared by the switch scan and the filter: loads the
/// out-degrees of one step's freshly visited vertices `newly` and keeps
/// the hubs, each with its position `step_first + lane` in the warp's
/// item tile, for [`stage_hubs`].
fn find_hubs(
    w: &mut WarpCtx,
    out_offsets: BufferId,
    tau: u32,
    newly: &Lanes<usize>,
    step_first: usize,
    hubs: &mut Vec<(usize, u32)>,
) {
    let begin = w.load_global(out_offsets, |l| newly[l.lane as usize]);
    let end = w.load_global(out_offsets, |l| newly[l.lane as usize].map(|v| v + 1));
    for lane in 0..W as u32 {
        if let (Some(v), Some(d)) = (newly[lane as usize], degree(&begin, &end, lane)) {
            if d > tau {
                hubs.push((step_first + lane as usize, v as u32));
            }
        }
    }
}

/// Stores a warp's hubs into the hub table in the per-thread order: with
/// `per_thread` items per thread, tile position `p` belongs to thread
/// `p / per_thread` at its step `p % per_thread`, and the table sees
/// every step's hubs in turn, lanes in order (the highest lane wins a
/// shared slot). The last writer of a slot decides which cached hub a
/// bottom-up inspection adopts, so this order keeps the parent trees.
fn stage_hubs(
    w: &mut WarpCtx,
    hub_src: BufferId,
    entries: usize,
    per_thread: usize,
    hubs: &mut Vec<(usize, u32)>,
) {
    hubs.sort_unstable_by_key(|&(p, _)| (p % per_thread, p / per_thread));
    for step in hubs.chunk_by(|a, b| a.0 % per_thread == b.0 % per_thread) {
        let mut lanes = [None; W];
        for &(p, v) in step {
            lanes[p / per_thread] = Some((v as usize % entries, v));
        }
        w.store_global(hub_src, |l| lanes[l.lane as usize]);
    }
    hubs.clear();
}

/// How many lanes of a warp whose lane 0 handles item `first` handle
/// items below `limit`.
fn lanes_below(limit: usize, first: usize) -> usize {
    limit.saturating_sub(first).min(W)
}

/// Copies every warp's bin tile into its class queues at the prefix-sum
/// offsets, 32 entries per span. `class_bases` are the scan values at
/// the four class boundaries (host-read, passed as kernel arguments).
fn copy_bins_to_queues(
    device: &mut Device,
    st: &BfsState,
    class_bases: [u32; 4],
    t: usize,
) -> Result<(), DeviceError> {
    let (bins, counts, queues) = (st.bins, st.counts, st.queues);
    let (chunk, warps) = (st.chunk, t / W);

    device.try_launch("copy_bins", LaunchConfig::for_threads(t as u64, 256), |w| {
        let tile = Tile::new(w, chunk, t);
        let warp = w.global_warp_id() as usize;
        // Each class's run: lanes 2k and 2k + 1 read the scan values at
        // the warp's class-`k` counter and the one after it.
        let runs = w.load_global(counts, |l| {
            let l = l.lane as usize;
            (l < 8).then_some((l / 2) * warps + warp + l % 2)
        });
        w.compute(1, w.active_lanes);
        for k in 0..4 {
            let (Some(start), Some(next)) = (runs[2 * k], runs[2 * k + 1]) else { continue };
            // A flipped scan word can invert or inflate the pair; a tile
            // never holds more than `32 · chunk` entries, so clamp to keep
            // the copy finite (the verifier owns correctness). Wrapping:
            // a corrupted value below the class base would otherwise
            // underflow; the wild store it produces is suppressed.
            let len = next.saturating_sub(start).min((W * chunk) as u32) as usize;
            let dst = start.wrapping_sub(class_bases[k]);
            for q in (0..len).step_by(W) {
                let n = (len - q).min(W);
                let vals = w.load_span(bins, tile.slot(k, q as u32), n);
                let vals: [u32; W] = std::array::from_fn(|l| vals[l].unwrap_or(0));
                w.store_span(queues[k], dst.wrapping_add(q as u32) as usize, &vals[..n]);
            }
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifyThresholds;
    use crate::device_graph::DeviceGraph;
    use crate::status::UNVISITED;
    use enterprise_graph::{Csr, GraphBuilder};
    use gpu_sim::DeviceConfig;

    /// Graph with controlled out-degrees: vertex i has out-degree
    /// `degs[i]` (edges to (i+1+j) % n).
    fn graph_with_degrees(degs: &[u32]) -> Csr {
        let n = degs.len();
        let mut b = GraphBuilder::new_directed(n);
        for (i, &d) in degs.iter().enumerate() {
            for j in 0..d {
                b.add_edge(i as u32, ((i as u32 + 1 + j) % n as u32) % n as u32);
            }
        }
        b.build()
    }

    struct Fixture {
        device: Device,
        dg: DeviceGraph,
        st: BfsState,
    }

    fn fixture(g: &Csr, tau: u32) -> Fixture {
        let mut device = Device::new(DeviceConfig::k40_repro());
        let dg = DeviceGraph::upload(&mut device, g);
        let st = BfsState::new(
            &mut device,
            &dg,
            ClassifyThresholds { small_below: 2, middle_below: 4, large_below: 8 },
            16,
            tau,
        );
        Fixture { device, dg, st }
    }

    fn queue_contents(f: &Fixture, k: usize) -> Vec<u32> {
        queue_contents_of(&f.device, &f.st, k)
    }

    fn queue_contents_of(device: &Device, st: &BfsState, k: usize) -> Vec<u32> {
        device.mem_ref().view(st.queues[k])[..st.queue_sizes[k]].to_vec()
    }

    #[test]
    fn topdown_scan_classifies_by_out_degree() {
        // Degrees: 0,1 -> Small(<2); 2,3 -> Middle(<4); 5 -> Large(<8); 9 -> Extreme.
        let g = graph_with_degrees(&[0, 1, 2, 3, 5, 9, 1, 0]);
        let mut f = fixture(&g, 100);
        // Mark vertices 1, 3, 4, 5 as visited at level 2.
        for v in [1usize, 3, 4, 5] {
            f.device.mem().set(f.st.status, v, 2);
        }
        let r = generate_queues(
            &mut f.device,
            &f.dg,
            &mut f.st,
            GenWorkflow::TopDown { frontier_level: 2 },
            false,
        );
        assert_eq!(r.sizes.iter().sum::<usize>(), 4);
        assert_eq!(queue_contents(&f, 0), vec![1]); // deg 1 -> Small
        assert_eq!(queue_contents(&f, 1), vec![3]); // deg 3 -> Middle
        assert_eq!(queue_contents(&f, 2), vec![4]); // deg 5 -> Large
        assert_eq!(queue_contents(&f, 3), vec![5]); // deg 9 -> Extreme
    }

    #[test]
    fn switch_scan_produces_sorted_unvisited_queue_and_stages_hubs() {
        let g = graph_with_degrees(&[9, 1, 9, 1, 1, 1, 9, 1]);
        let mut f = fixture(&g, 5); // hubs: 0, 2, 6
                                    // Visited: 0 at level 0; 2, 6 at level 1 (freshly visited hubs).
        f.device.mem().set(f.st.status, 0, 0);
        f.device.mem().set(f.st.status, 2, 1);
        f.device.mem().set(f.st.status, 6, 1);
        let r = generate_queues(
            &mut f.device,
            &f.dg,
            &mut f.st,
            GenWorkflow::Switch { newly_level: 1 },
            true,
        );
        // Unvisited vertices 1,3,4,5,7, all in-degree-classified.
        let mut all: Vec<u32> = (0..4).flat_map(|k| queue_contents(&f, k)).collect();
        assert_eq!(r.sizes.iter().sum::<usize>(), 5);
        all.sort_unstable();
        assert_eq!(all, vec![1, 3, 4, 5, 7]);
        // Per-class queues individually sorted (blocked scan order).
        for k in 0..4 {
            let q = queue_contents(&f, k);
            assert!(q.windows(2).all(|w| w[0] < w[1]), "class {k} not sorted: {q:?}");
        }
        // Hubs 2 and 6 staged at their hash slots (v % 16); hub 0 (old
        // level) not.
        assert_eq!(r.hub_fills, 2);
        let table = f.device.mem_ref().view(f.st.hub_src);
        assert_eq!(table[2], 2);
        assert_eq!(table[6], 6);
        assert_ne!(table[0], 0, "level-0 hub must not be staged");
    }

    #[test]
    fn filter_keeps_only_unvisited_and_preserves_order() {
        let g = graph_with_degrees(&[1; 12]);
        let mut f = fixture(&g, 100);
        // Previous bottom-up queue in Small class: {2,3,5,7,9,11}.
        let prev = [2u32, 3, 5, 7, 9, 11];
        for (i, &v) in prev.iter().enumerate() {
            f.device.mem().set(f.st.queues[0], i, v);
        }
        f.st.queue_sizes = [prev.len(), 0, 0, 0];
        // 3 and 9 just got visited at level 4.
        f.device.mem().set(f.st.status, 3, 4);
        f.device.mem().set(f.st.status, 9, 4);
        let r = generate_queues(
            &mut f.device,
            &f.dg,
            &mut f.st,
            GenWorkflow::Filter { newly_level: 4 },
            false,
        );
        assert_eq!(r.sizes, [4, 0, 0, 0]);
        assert_eq!(queue_contents(&f, 0), vec![2, 5, 7, 11], "order preserved");
    }

    #[test]
    fn filter_stages_freshly_visited_hubs() {
        let g = graph_with_degrees(&[9, 9, 1, 1]);
        let mut f = fixture(&g, 5); // hubs 0, 1
        for (i, &v) in [0u32, 1, 2, 3].iter().enumerate() {
            f.device.mem().set(f.st.queues[0], i, v);
        }
        f.st.queue_sizes = [4, 0, 0, 0];
        f.device.mem().set(f.st.status, 1, 7); // hub 1 freshly visited
        f.device.mem().set(f.st.status, 2, 7); // non-hub freshly visited
        let r = generate_queues(
            &mut f.device,
            &f.dg,
            &mut f.st,
            GenWorkflow::Filter { newly_level: 7 },
            true,
        );
        assert_eq!(r.hub_fills, 1);
        // Hub 1 sits at hash slot 1 % 16.
        assert_eq!(f.device.mem_ref().view(f.st.hub_src)[1], 1);
        assert_eq!(r.sizes, [2, 0, 0, 0]);
    }

    #[test]
    fn empty_generation_produces_empty_queues() {
        let g = graph_with_degrees(&[1, 1, 1]);
        let mut f = fixture(&g, 100);
        let r = generate_queues(
            &mut f.device,
            &f.dg,
            &mut f.st,
            GenWorkflow::TopDown { frontier_level: 5 },
            false,
        );
        assert_eq!(r.sizes, [0, 0, 0, 0]);
        let _ = UNVISITED;
    }

    /// Host model of the per-thread-chunk placement: with `per_thread`
    /// items per thread, warp `w`'s lane `l` handles tile item
    /// `(32w + l) * per_thread + j` at step `j`, and the hub table sees the
    /// warps in turn, each step by step, lanes in order (the last writer
    /// of a slot wins).
    fn per_thread_order(items: usize, threads: usize, per_thread: usize) -> Vec<usize> {
        let mut order = Vec::new();
        for w in 0..threads / W {
            for j in 0..per_thread {
                order.extend((0..W).map(|l| (W * w + l) * per_thread + j).filter(|&i| i < items));
            }
        }
        order
    }

    /// The hub table after staging `candidates` in the given order.
    fn hub_table(candidates: impl Iterator<Item = u32>, is_hub: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut table = vec![HUB_EMPTY; TABLE];
        for v in candidates.filter(|&v| is_hub(v)) {
            table[v as usize % TABLE] = v;
        }
        table
    }

    /// Hub-table slots: prime, so a slot's hubs inside one warp need not
    /// share a step of the per-thread order.
    const TABLE: usize = 61;

    /// The warp tiles must reproduce the per-thread placement exactly on
    /// every warp, not just warp 0: a slice with a non-zero start whose
    /// domain leaves a partial last warp, random status words, each
    /// workflow's class queues, sizes and hub table against the host
    /// model. The table has 61 slots, so hubs inside one warp share slots
    /// and the staging order decides the table.
    #[test]
    fn warp_tiles_reproduce_the_per_thread_order_across_warps() {
        let graphs = [
            ("kron", enterprise_graph::gen::kronecker(12, 8, 7), 16, [4, 12, 32]),
            ("road", enterprise_graph::gen::road_grid(64, 64, 0.05, 7), 3, [3, 4, 5]),
        ];
        for (name, g, tau, [small_below, middle_below, large_below]) in graphs {
            let thresholds = ClassifyThresholds { small_below, middle_below, large_below };
            let n = g.vertex_count();
            let range = 101..n - 7;
            let (base, domain) = (range.start, range.len());
            let mut device = Device::new(DeviceConfig::k40_repro());
            let dg = DeviceGraph::upload(&mut device, &g);
            let mut st = BfsState::try_new_labeled(
                &mut device,
                &dg,
                thresholds,
                TABLE,
                tau,
                range.clone(),
                range.clone(),
                "",
            )
            .unwrap();
            let (t, chunk) = (st.scan_threads, st.chunk);
            assert!(t / W > 1 && domain % W != 0, "{name}: several warps, a partial last one");
            let class = |d: u32| thresholds.classify(d).index();
            let out = |v: u32| g.out_degree(v);
            let is_hub = |v: u32| out(v) > tau;
            let queues = |device: &Device, st: &BfsState| -> [Vec<u32>; 4] {
                std::array::from_fn(|k| queue_contents_of(device, st, k))
            };
            let mut rng = sim_rng::DetRng::seed_from_u64(27);
            let mut status: Vec<u32> = (0..n)
                .map(|_| match rng.gen_index(6) {
                    0..=2 => UNVISITED,
                    l => l as u32 - 2,
                })
                .collect();
            device.mem().upload(st.status, &status);

            // Top-down: interleaved, thread-major over the items j·T + t.
            let mut want: [Vec<u32>; 4] = Default::default();
            for tid in 0..t {
                for i in (tid..domain).step_by(t) {
                    let v = (base + i) as u32;
                    if status[v as usize] == 2 {
                        want[class(out(v))].push(v);
                    }
                }
            }
            let wf = GenWorkflow::TopDown { frontier_level: 2 };
            let r = generate_queues(&mut device, &dg, &mut st, wf, false);
            assert_eq!(queues(&device, &st), want, "{name}: top-down queues");
            assert_eq!(r.sizes, want.each_ref().map(Vec::len), "{name}: top-down sizes");

            // Switch: blocked, each class ascending, classified by
            // in-degree; hubs visited at level 3 staged.
            let mut want: [Vec<u32>; 4] = Default::default();
            for v in range.clone().map(|v| v as u32) {
                if status[v as usize] == UNVISITED {
                    want[class(g.in_degree(v))].push(v);
                }
            }
            let fresh =
                |i: usize, status: &[u32]| (status[base + i] == 3).then_some((base + i) as u32);
            let table = hub_table(
                per_thread_order(domain, t, chunk).into_iter().filter_map(|i| fresh(i, &status)),
                is_hub,
            );
            let r = generate_queues(
                &mut device,
                &dg,
                &mut st,
                GenWorkflow::Switch { newly_level: 3 },
                true,
            );
            assert_eq!(queues(&device, &st), want, "{name}: switch queues");
            assert_eq!(r.sizes, want.each_ref().map(Vec::len), "{name}: switch sizes");
            assert_eq!(r.hub_fills, table.iter().filter(|&&v| v != HUB_EMPTY).count());
            assert_eq!(device.mem_ref().view(st.hub_src), table, "{name}: switch hub table");
            let by_item = hub_table((0..domain).filter_map(|i| fresh(i, &status)), is_hub);
            assert_ne!(by_item, table, "{name}: the switch case must tell the two orders apart");

            // Filter: a third of the switch queue's vertices are visited
            // at level 4; the rest keep the previous order. The filter grid
            // is sized to the queue.
            let prev = want;
            for v in prev.iter().flatten() {
                if rng.gen_index(3) == 0 {
                    status[*v as usize] = 4;
                }
            }
            device.mem().upload(st.status, &status);
            let want: [Vec<u32>; 4] = std::array::from_fn(|k| {
                prev[k].iter().copied().filter(|&v| status[v as usize] == UNVISITED).collect()
            });
            let concat = prev.concat();
            let total = concat.len();
            let tf = (total.div_ceil(8).max(total.div_ceil(chunk)))
                .clamp(256, t)
                .next_multiple_of(256)
                .min(t);
            let fresh = |i: usize| (status[concat[i] as usize] == 4).then_some(concat[i]);
            let order = per_thread_order(total, tf, total.div_ceil(tf));
            let table = hub_table(order.into_iter().filter_map(fresh), is_hub);
            let r = generate_queues(
                &mut device,
                &dg,
                &mut st,
                GenWorkflow::Filter { newly_level: 4 },
                true,
            );
            assert_eq!(queues(&device, &st), want, "{name}: filter queues");
            assert_eq!(r.sizes, want.each_ref().map(Vec::len), "{name}: filter sizes");
            assert_eq!(device.mem_ref().view(st.hub_src), table, "{name}: filter hub table");
            let by_item = hub_table((0..total).filter_map(fresh), is_hub);
            assert_ne!(by_item, table, "{name}: two fresh hubs share a slot inside one warp");
        }
    }
}
