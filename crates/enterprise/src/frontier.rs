//! Streamlined frontier-queue generation (§4.1) — technique TS.
//!
//! The queue is produced *without atomics* in two steps: GPU threads scan
//! for frontiers into private thread bins, then a prefix sum over the
//! per-thread (per-class) counts places every bin into its class queue.
//! Three scan workflows optimize the memory-access pattern:
//!
//! * **Top-down** — *interleaved* scan (thread `t` checks `t, t+T, ...`):
//!   consecutive lanes touch consecutive status words, so the scan itself
//!   is perfectly coalesced. The queue comes out unordered, which is fine
//!   because top-down levels have few frontiers (~0.4%).
//! * **Direction-switching** — *blocked* scan (thread `t` checks the
//!   contiguous chunk `t*c..(t+1)*c`): strided within a warp (≈2.4×
//!   slower to scan) but the resulting bottom-up queue is *sorted*, so
//!   the next level walks the adjacency lists in order (sequential global
//!   memory access, the paper's 37.6% next-level win).
//! * **Bottom-up** — the current queue is always a subset of the previous
//!   one, so we *filter* the previous queue instead of rescanning the
//!   status array (paper: ~3% improvement), preserving sortedness.
//!
//! Queue generation is also where the hub machinery lives: the scan
//! counts hub frontiers for the γ switch parameter, and the
//! switch/filter workflows stage freshly-visited hubs into the global
//! hub table that expansion kernels cache in shared memory (§4.3).

use crate::device_graph::DeviceGraph;
use crate::state::{BfsState, HUB_EMPTY};
use crate::status::UNVISITED;
use gpu_sim::{BufferId, Device, DeviceError, LaunchConfig, WarpCtx, WARP_SIZE};

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
    /// Hub vertices among the generated frontiers (`F_h`).
    pub hub_frontiers: u64,
    /// γ = F_h / T_h in percent (0 when the graph has no hubs).
    pub gamma_pct: f64,
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
            let fill = fill_hubs.then_some(newly_level);
            filter_queues(device, g, st, fill)?
        }
    };
    // Guard element so the exclusive scan leaves the grand total at
    // counts[5T] (a one-word memset folded into the scan's first launch).
    device.mem().set(st.counts, 5 * t, 0);
    gpu_sim::scan::try_exclusive_scan(device, st.counts, 5 * t + 1, &st.scan_scratch)?;

    // Host reads the class boundaries (a tiny device-to-host copy of five
    // words in a real system, folded into the next launch's overhead).
    let counts = device.mem_ref().view(st.counts);
    let bases = [counts[0], counts[t], counts[2 * t], counts[3 * t], counts[4 * t]];
    let grand_total = counts[5 * t];
    // Saturate and bound: a bit flip in the scanned counts buffer can
    // make the class boundaries non-monotonic or absurd; a queue can
    // never legitimately exceed its capacity, and keeping the sizes sane
    // keeps the expansion grids finite (the verifier repairs the rest).
    let queue_cap = device.mem_ref().view(st.queues[0]).len();
    let mut sizes = [0usize; 4];
    for k in 0..4 {
        sizes[k] = (bases[k + 1].saturating_sub(bases[k]) as usize).min(queue_cap);
    }
    let hub_frontiers = grand_total.saturating_sub(bases[4]) as u64;
    let class_bases = [bases[0], bases[1], bases[2], bases[3]];

    copy_bins_to_queues(device, st, class_bases, t)?;
    st.queue_sizes = sizes;
    let gamma_pct = crate::direction::gamma_pct(hub_frontiers, st.total_hubs);
    let hub_fills = if fill_hubs {
        // Instrumentation read standing in for the fill counter a real
        // implementation would fold into the per-thread counts.
        device.mem_ref().view(st.hub_src).iter().filter(|&&x| x != HUB_EMPTY).count()
    } else {
        0
    };
    Ok(QueueGenResult { sizes, hub_frontiers, gamma_pct, hub_fills })
}

/// Measures `T_h`, the total hub count, on device ("can be calculated
/// very quickly at the first level", §4.3). Stores it in `st.total_hubs`.
///
/// # Panics
/// Panics on an unrecovered launch fault; see [`try_measure_total_hubs`].
pub fn measure_total_hubs(device: &mut Device, g: &DeviceGraph, st: &mut BfsState) {
    try_measure_total_hubs(device, g, st).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`measure_total_hubs`].
pub fn try_measure_total_hubs(
    device: &mut Device,
    g: &DeviceGraph,
    st: &mut BfsState,
) -> Result<(), DeviceError> {
    let t = st.scan_threads;
    let base = st.td_range.start;
    let domain = st.td_range.len();
    let chunk = st.chunk;
    let (out_offsets, counts) = (g.out_offsets, st.counts);
    let tau = st.hub_tau;
    device.try_launch("count_hubs", LaunchConfig::for_threads(t as u64, 256), |w| {
        let tid0 = w.global_thread_id(0) as usize;
        let mut cnt = [0u32; WARP_SIZE as usize];
        for j in 0..chunk {
            // Interleaved: thread `tid` reads vertex `j * t + tid`, so the
            // warp's lanes read one coalesced span.
            let first = j * t + tid0;
            let n = lanes_below(domain, first);
            let begin = w.load_span(out_offsets, base + first, n);
            let end = w.load_span(out_offsets, base + first + 1, n);
            for lane in w.lanes() {
                if let (Some(b), Some(e)) = (begin[lane as usize], end[lane as usize]) {
                    if e.saturating_sub(b) > tau {
                        cnt[lane as usize] += 1;
                    }
                }
            }
            w.compute(1, w.active_lanes);
        }
        w.store_span(counts, tid0, &cnt[..lanes_below(t, tid0)]);
    })?;
    // Device-side tree reduction of the per-thread counts.
    st.total_hubs = gpu_sim::try_reduce_sum(device, st.counts, t, &st.scan_scratch)? as u64;
    Ok(())
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
    let base = range.start;
    let domain = range.len();
    let chunk = st.chunk;
    let thresholds = st.thresholds;
    let tau = st.hub_tau;
    let hub_entries = st.hub_cache_entries;
    let (status, bins, counts, hub_src) = (st.status, st.bins, st.counts, st.hub_src);
    // Classification degree: the adjacency the *next* level will inspect.
    // Top-down expands out-edges; the switch builds a bottom-up queue that
    // inspects in-edges.
    let class_offsets = if match_status == UNVISITED { g.in_offsets } else { g.out_offsets };
    let out_offsets = g.out_offsets;
    let bin_region = t * chunk;
    let name = if interleaved { "scan_status_interleaved" } else { "scan_status_blocked" };

    device.try_launch(name, LaunchConfig::for_threads(t as u64, 256), |w| {
        let tid0 = w.global_thread_id(0) as usize;
        let mut cnt = [[0u32; 4]; WARP_SIZE as usize];
        let mut hub_cnt = [0u32; WARP_SIZE as usize];
        for j in 0..chunk {
            let v_of = |tid: u64| -> Option<usize> {
                let tid = tid as usize;
                if tid >= t {
                    return None;
                }
                let i = if interleaved { j * t + tid } else { tid * chunk + j };
                (i < domain).then(|| base + i)
            };
            // The interleaved scan's lanes read one contiguous span of
            // status words; the blocked scan's lanes are `chunk` apart.
            let stats = if interleaved {
                let first = j * t + tid0;
                let n = lanes_below(t, tid0).min(domain.saturating_sub(first));
                w.load_span(status, base + first, n)
            } else {
                w.load_global(status, |l| v_of(l.tid))
            };
            // Per-lane frontier vertex ids.
            let mut frontier: [Option<usize>; WARP_SIZE as usize] = [None; WARP_SIZE as usize];
            for lane in w.lanes() {
                if stats[lane as usize] == Some(match_status) {
                    frontier[lane as usize] = v_of(w.lane_info(lane).tid);
                }
            }
            // Degree loads for classification (two offset words).
            let begin = w.load_global(class_offsets, |l| frontier[l.lane as usize]);
            let end = w.load_global(class_offsets, |l| frontier[l.lane as usize].map(|v| v + 1));
            let mut class: [usize; WARP_SIZE as usize] = [0; WARP_SIZE as usize];
            for lane in w.lanes() {
                if let (Some(b), Some(e)) = (begin[lane as usize], end[lane as usize]) {
                    // Saturating: a flipped offset must not panic the
                    // kernel (misclassification is benign).
                    class[lane as usize] = thresholds.classify(e.saturating_sub(b)).index();
                }
            }
            w.compute(1, w.active_lanes);
            // Bin the frontier (one store per active lane; bins are
            // thread-private so no synchronization is needed).
            w.store_global(bins, |l| {
                let lane = l.lane as usize;
                frontier[lane].map(|v| {
                    let k = class[lane];
                    let slot = k * bin_region + (l.tid as usize) * chunk + cnt[lane][k] as usize;
                    (slot, v as u32)
                })
            });
            for lane in w.lanes() {
                if frontier[lane as usize].is_some() {
                    let k = class[lane as usize];
                    cnt[lane as usize][k] += 1;
                }
            }
            // Hub accounting. Top-down counts hub frontiers for γ (the
            // classification degree is already the out-degree there);
            // switch stages freshly-visited hubs into the table.
            if let Some(fill_level) = hub_fill_level {
                let mut newly: [Option<usize>; WARP_SIZE as usize] = [None; WARP_SIZE as usize];
                for lane in w.lanes() {
                    if stats[lane as usize] == Some(fill_level) {
                        newly[lane as usize] = v_of(w.lane_info(lane).tid);
                    }
                }
                let ob = w.load_global(out_offsets, |l| newly[l.lane as usize]);
                let oe = w.load_global(out_offsets, |l| newly[l.lane as usize].map(|v| v + 1));
                w.store_global(hub_src, |l| {
                    let lane = l.lane as usize;
                    match (newly[lane], ob[lane], oe[lane]) {
                        (Some(v), Some(b), Some(e)) if e.saturating_sub(b) > tau => {
                            Some((v % hub_entries, v as u32))
                        }
                        _ => None,
                    }
                });
            } else {
                for lane in w.lanes() {
                    if let (Some(b), Some(e)) = (begin[lane as usize], end[lane as usize]) {
                        if e.saturating_sub(b) > tau {
                            hub_cnt[lane as usize] += 1;
                        }
                    }
                }
            }
        }
        // Publish per-thread counters: four class counts plus hubs.
        publish_counts(w, counts, t, &cnt, &hub_cnt);
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
    let hub_entries = st.hub_cache_entries;
    let (status, bins, counts, hub_src) = (st.status, st.bins, st.counts, st.hub_src);
    let out_offsets = g.out_offsets;
    let queues = st.queues;
    let sizes = st.queue_sizes;

    // Virtual concatenation of the four queues. The grid is sized to the
    // queue (not the graph), bounded so per-thread bins never overflow.
    // A bit-flip campaign can inflate the (device-derived) queue sizes
    // past what the per-thread bins can hold; clamp to bin capacity —
    // dropped tail entries are exactly what the traversal verifier
    // detects and repairs. Clean runs never exceed the capacity.
    let total: usize = sizes.iter().sum::<usize>().min(st.scan_threads * chunk);
    let starts = [0, sizes[0], sizes[0] + sizes[1], sizes[0] + sizes[1] + sizes[2]];
    let t = (total.div_ceil(8).max(total.div_ceil(chunk)))
        .clamp(256, st.scan_threads)
        .next_multiple_of(256)
        .min(st.scan_threads);
    let per_thread = total.div_ceil(t).max(1);
    assert!(per_thread <= chunk, "filter bins overflow: {per_thread} > {chunk}");
    let bin_region = t * chunk;
    let locate = move |i: usize| -> (usize, usize) {
        // (class, position) of concatenated index i.
        for k in (0..4).rev() {
            if i >= starts[k] {
                return (k, i - starts[k]);
            }
        }
        unreachable!()
    };

    device.try_launch("filter_queues", LaunchConfig::for_threads(t as u64, 256), |w| {
        let mut cnt = [[0u32; 4]; WARP_SIZE as usize];
        for j in 0..per_thread {
            // Blocked over the concatenated queue: preserves sortedness
            // within each class region.
            let i_of = |tid: u64| -> Option<(usize, usize)> {
                let tid = tid as usize;
                if tid >= t {
                    return None;
                }
                let i = tid * per_thread + j;
                (i < total).then(|| locate(i))
            };
            let vids = w.load_global_multi(&queues, |l| i_of(l.tid));
            let stats = w.load_global(status, |l| vids[l.lane as usize].map(|v| v as usize));
            // Keep unvisited entries in their class bin.
            let mut keep_class: [usize; WARP_SIZE as usize] = [0; WARP_SIZE as usize];
            for lane in w.lanes() {
                if let Some((k, _)) = i_of(w.lane_info(lane).tid) {
                    keep_class[lane as usize] = k;
                }
            }
            w.store_global(bins, |l| {
                let lane = l.lane as usize;
                match (vids[lane], stats[lane]) {
                    (Some(v), Some(s)) if s == UNVISITED => {
                        let k = keep_class[lane];
                        let slot =
                            k * bin_region + (l.tid as usize) * chunk + cnt[lane][k] as usize;
                        Some((slot, v))
                    }
                    _ => None,
                }
            });
            for lane in w.lanes() {
                if let (Some(_), Some(s)) = (vids[lane as usize], stats[lane as usize]) {
                    if s == UNVISITED {
                        cnt[lane as usize][keep_class[lane as usize]] += 1;
                    }
                }
            }
            // Stage freshly-visited hubs.
            if let Some(fill_level) = hub_fill_level {
                let mut newly: [Option<usize>; WARP_SIZE as usize] = [None; WARP_SIZE as usize];
                for lane in w.lanes() {
                    if let (Some(v), Some(s)) = (vids[lane as usize], stats[lane as usize]) {
                        if s == fill_level {
                            newly[lane as usize] = Some(v as usize);
                        }
                    }
                }
                let ob = w.load_global(out_offsets, |l| newly[l.lane as usize]);
                let oe = w.load_global(out_offsets, |l| newly[l.lane as usize].map(|v| v + 1));
                w.store_global(hub_src, |l| {
                    let lane = l.lane as usize;
                    match (newly[lane], ob[lane], oe[lane]) {
                        (Some(v), Some(b), Some(e)) if e.saturating_sub(b) > tau => {
                            Some((v % hub_entries, v as u32))
                        }
                        _ => None,
                    }
                });
            }
        }
        // No hub-frontier counting during bottom-up (γ has already fired).
        publish_counts(w, counts, t, &cnt, &[0; W]);
    })?;
    Ok(t)
}

/// Publishes a warp's per-thread counters: thread `tid < t` writes its
/// four class counts to `counts[k * t + tid]` and its hub count to
/// `counts[4 * t + tid]`, five coalesced spans.
fn publish_counts(
    w: &mut WarpCtx,
    counts: BufferId,
    t: usize,
    cnt: &[[u32; 4]; W],
    hub_cnt: &[u32; W],
) {
    let tid0 = w.global_thread_id(0) as usize;
    let n = lanes_below(t, tid0);
    #[allow(clippy::needless_range_loop)] // k also forms the `k * t + tid` offset
    for k in 0..4 {
        let class: [u32; W] = std::array::from_fn(|lane| cnt[lane][k]);
        w.store_span(counts, k * t + tid0, &class[..n]);
    }
    w.store_span(counts, 4 * t + tid0, &hub_cnt[..n]);
}

/// How many lanes of a warp whose lane 0 handles item `first` handle
/// items below `limit`.
fn lanes_below(limit: usize, first: usize) -> usize {
    limit.saturating_sub(first).min(W)
}

/// Copies every thread bin into its class queue at the prefix-sum
/// offsets. `class_bases` are the scan values at the four class
/// boundaries (host-read, passed as kernel arguments).
fn copy_bins_to_queues(
    device: &mut Device,
    st: &BfsState,
    class_bases: [u32; 4],
    t: usize,
) -> Result<(), DeviceError> {
    let chunk = st.chunk;
    let (bins, counts) = (st.bins, st.counts);
    let queues = st.queues;
    let bin_region = t * chunk;

    device.try_launch("copy_bins", LaunchConfig::for_threads(t as u64, 256), |w| {
        let tid0 = w.global_thread_id(0) as usize;
        let n = lanes_below(t, tid0);
        for k in 0..4usize {
            let start = w.load_span(counts, k * t + tid0, n);
            let next = w.load_span(counts, k * t + tid0 + 1, n);
            let mut cnts = [0u32; WARP_SIZE as usize];
            let mut max_cnt = 0u32;
            for lane in w.lanes() {
                if let (Some(s), Some(nx)) = (start[lane as usize], next[lane as usize]) {
                    // A flipped scan word can invert or inflate the
                    // prefix pair; a thread never binned more than
                    // `chunk` entries, so clamp to keep the copy loop
                    // finite (the verifier owns correctness).
                    let c = nx.saturating_sub(s).min(chunk as u32);
                    cnts[lane as usize] = c;
                    max_cnt = max_cnt.max(c);
                }
            }
            w.compute(1, w.active_lanes);
            for j in 0..max_cnt {
                let vals = w.load_global(bins, |l| {
                    let lane = l.lane as usize;
                    (j < cnts[lane])
                        .then(|| k * bin_region + (l.tid as usize) * chunk + j as usize)
                });
                w.store_global(queues[k], |l| {
                    let lane = l.lane as usize;
                    match (vals[lane], start[lane]) {
                        (Some(v), Some(s)) if j < cnts[lane] => {
                            // Wrapping: a corrupted scan value below the
                            // class base would otherwise underflow; the
                            // wild store it produces is suppressed.
                            Some((s.wrapping_sub(class_bases[k]).wrapping_add(j) as usize, v))
                        }
                        _ => None,
                    }
                });
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
        f.device.mem_ref().view(f.st.queues[k])[..f.st.queue_sizes[k]].to_vec()
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
    fn topdown_scan_counts_hub_frontiers_for_gamma() {
        let g = graph_with_degrees(&[9, 9, 1, 1, 9, 0]);
        let mut f = fixture(&g, 5); // hubs: out-degree > 5 -> vertices 0, 1, 4
        measure_total_hubs(&mut f.device, &f.dg, &mut f.st);
        assert_eq!(f.st.total_hubs, 3);
        for v in [0usize, 1, 2] {
            f.device.mem().set(f.st.status, v, 1);
        }
        let r = generate_queues(
            &mut f.device,
            &f.dg,
            &mut f.st,
            GenWorkflow::TopDown { frontier_level: 1 },
            false,
        );
        assert_eq!(r.hub_frontiers, 2, "vertices 0 and 1 are hub frontiers");
        assert!((r.gamma_pct - 2.0 / 3.0 * 100.0).abs() < 1e-9);
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
        assert_eq!(r.hub_frontiers, 0);
        let _ = UNVISITED;
    }

    #[test]
    fn measure_total_hubs_matches_host_count() {
        let g = enterprise_graph::gen::kronecker(9, 8, 3);
        let mut device = Device::new(DeviceConfig::k40_repro());
        let dg = DeviceGraph::upload(&mut device, &g);
        let tau = enterprise_graph::stats::hub_threshold_for_capacity(&g, 64);
        let mut st = BfsState::new(&mut device, &dg, ClassifyThresholds::default(), 64, tau);
        measure_total_hubs(&mut device, &dg, &mut st);
        assert_eq!(st.total_hubs as usize, enterprise_graph::stats::count_hubs(&g, tau));
    }
}
