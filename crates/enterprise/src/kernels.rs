//! Expansion/inspection kernels (§4.2, §4.3).
//!
//! Four granularities service the four class queues, launched
//! concurrently under Hyper-Q: the Thread kernel gives each thread one
//! SmallQueue frontier, and one striped kernel serves the three
//! shared-frontier classes — Warp (MiddleQueue: one warp per frontier),
//! CTA (LargeQueue: one CTA's 8 warps stripe a frontier) and Grid
//! (ExtremeQueue: all 960 warps stripe each frontier in turn) — with one
//! inspection that differs only in how a warp finds its frontier and how
//! many warps share it. Each has a top-down and a bottom-up variant; the
//! bottom-up variants optionally carry the shared-memory hub cache: CTAs
//! cooperatively stage the global hub table into shared memory and probe
//! it for every inspected neighbour *before* touching that neighbour's
//! status word in global memory — the neighbour ids of the current chunk
//! stay in registers, so a hit terminates the inspection with no global
//! status traffic for the chunk at all (Figure 12's 10-95% transaction
//! savings).

use crate::device_graph::DeviceGraph;
use crate::state::BfsState;
use crate::status::UNVISITED;
use gpu_sim::{BufferId, Device, DeviceError, LaunchConfig, Lanes, WarpCtx, WARP_SIZE};

const W: usize = WARP_SIZE as usize;

/// Traversal direction of an expansion pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Expand frontiers' out-edges, marking unvisited targets.
    TopDown,
    /// Inspect unvisited vertices' in-edges for a visited parent.
    BottomUp,
}

impl Direction {
    /// Stable human-readable name, used by level traces and benchmark
    /// output (`fig04`/`fig10` parse these strings).
    pub fn label(self) -> &'static str {
        match self {
            Direction::TopDown => "top-down",
            Direction::BottomUp => "bottom-up",
        }
    }
}

/// Grid geometry for the Grid kernel (whole-device cooperation): enough
/// CTAs to fill every SMX of a K40-class device.
pub const GRID_KERNEL_CTAS: u32 = 120;
/// CTA width shared by all expansion kernels.
pub const CTA_THREADS: u32 = 256;

/// Warps sharing one frontier in the CTA kernel.
const CTA_WARPS: usize = (CTA_THREADS / WARP_SIZE) as usize;
/// Warps sharing every frontier in the Grid kernel.
const GRID_WARPS: usize = (GRID_KERNEL_CTAS * CTA_THREADS / WARP_SIZE) as usize;

/// Launch parameters common to one expansion pass.
#[derive(Clone, Copy)]
struct Pass {
    dir: Direction,
    queue: BufferId,
    size: usize,
    level: u32,
    status: BufferId,
    parent: BufferId,
    offsets: BufferId,
    adjacency: BufferId,
    /// Adjacency-array length: a corrupted offset word (bit-flip
    /// campaign) is clamped to this bound so degree loops stay finite.
    adj_len: u32,
    hub_entries: usize,
    use_hc: bool,
    hub_src: BufferId,
}

impl Pass {
    fn new(
        g: &DeviceGraph,
        st: &BfsState,
        class_idx: usize,
        level: u32,
        dir: Direction,
        use_hc: bool,
    ) -> Self {
        let (offsets, adjacency) = match dir {
            Direction::TopDown => (g.out_offsets, g.out_targets),
            Direction::BottomUp => (g.in_offsets, g.in_sources),
        };
        Pass {
            dir,
            queue: st.queues[class_idx],
            size: st.queue_sizes[class_idx],
            level,
            status: st.status,
            parent: st.parent,
            offsets,
            adjacency,
            adj_len: g.edge_count.min(u32::MAX as u64) as u32,
            hub_entries: st.hub_cache_entries,
            use_hc: use_hc && dir == Direction::BottomUp,
            hub_src: st.hub_src,
        }
    }

    /// `(begin, degree)` from two loaded offset words, clamped to the
    /// adjacency array. On clean runs the clamp is a no-op; under a
    /// bit-flip campaign it turns a corrupted offset into a bounded
    /// (possibly wrong) range — like hardware, which would happily walk
    /// stray memory — and the traversal verifier catches the fallout.
    fn clamp_range(&self, begin: u32, end: u32) -> (u32, u32) {
        let end = end.min(self.adj_len);
        let begin = begin.min(end);
        (begin, end - begin)
    }

    fn launch_config(&self, class_idx: usize) -> LaunchConfig {
        let cfg = match class_idx {
            0 => LaunchConfig::for_threads(self.size as u64, CTA_THREADS),
            1 => LaunchConfig::for_threads(self.size as u64 * WARP_SIZE as u64, CTA_THREADS),
            2 => LaunchConfig::grid(self.size as u32, CTA_THREADS),
            _ => LaunchConfig::grid(GRID_KERNEL_CTAS, CTA_THREADS),
        };
        if self.use_hc {
            cfg.with_shared_bytes((self.hub_entries * 4) as u32)
        } else {
            cfg
        }
    }
}

/// Expands every non-empty class queue at `level` (marking discoveries
/// `level + 1`), with the four kernels launched concurrently (Hyper-Q).
///
/// `balanced = false` is the TS-only ablation mode: the single (Small)
/// queue is serviced at the fixed warp granularity of prior work.
///
/// # Panics
/// Panics if an injected launch fault exhausts the device's relaunch
/// budget; recovery-aware drivers use [`try_expand_level`].
pub fn expand_level(
    device: &mut Device,
    g: &DeviceGraph,
    st: &BfsState,
    level: u32,
    dir: Direction,
    balanced: bool,
    use_hc: bool,
) {
    try_expand_level(device, g, st, level, dir, balanced, use_hc)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`expand_level`]: surfaces unrecovered launch
/// faults as [`DeviceError`] so the driver can replay the level from its
/// checkpoint. The Hyper-Q group is always closed before the error
/// propagates, so the device timeline stays consistent.
pub fn try_expand_level(
    device: &mut Device,
    g: &DeviceGraph,
    st: &BfsState,
    level: u32,
    dir: Direction,
    balanced: bool,
    use_hc: bool,
) -> Result<(), DeviceError> {
    if !balanced {
        let pass = Pass::new(g, st, 0, level, dir, use_hc);
        if pass.size > 0 {
            launch_striped_kernel(device, "Warp(unbalanced)", pass, 1)?;
        }
        return Ok(());
    }
    device.begin_concurrent();
    let mut outcome = Ok(());
    for class_idx in 0..4 {
        if st.queue_sizes[class_idx] == 0 {
            continue;
        }
        let pass = Pass::new(g, st, class_idx, level, dir, use_hc);
        let name = kernel_name(dir, class_idx);
        outcome = match class_idx {
            0 => launch_thread_kernel(device, name, pass),
            _ => launch_striped_kernel(device, name, pass, class_idx),
        };
        if outcome.is_err() {
            break;
        }
    }
    // Close the Hyper-Q window unconditionally so the timeline stays
    // consistent, then surface errors in priority order: a launch failure
    // first, else a cross-kernel conflict the sanitizer found between the
    // four class kernels sharing the window.
    let window = device.end_concurrent_checked().map(|_span| ());
    outcome.and(window)
}

fn kernel_name(dir: Direction, class_idx: usize) -> &'static str {
    const NAMES: [[&str; 4]; 2] =
        [["Thread", "Warp", "CTA", "Grid"], ["Thread(bu)", "Warp(bu)", "CTA(bu)", "Grid(bu)"]];
    NAMES[usize::from(dir == Direction::BottomUp)][class_idx]
}

/// Thread kernel: one thread per frontier (SmallQueue, degree < 32).
fn launch_thread_kernel(device: &mut Device, name: &str, p: Pass) -> Result<(), DeviceError> {
    let body = move |w: &mut WarpCtx| {
        let tid0 = w.global_thread_id(0) as usize;
        let vids = w.load_span(p.queue, tid0, p.size.saturating_sub(tid0));
        let (begin, deg) = load_degrees(w, &p, &lanes_usize(&vids));
        let max_deg = deg.iter().take(w.active_lanes as usize).copied().max().unwrap_or(0);
        w.compute(2, w.active_lanes);

        let mut done = [false; W];
        for lane in w.lanes() {
            done[lane as usize] = vids[lane as usize].is_none();
        }

        // One pass per neighbour: the id stays in a register, the cache
        // probe (bottom-up only) runs first, and the global status load
        // is skipped for lanes that hit.
        for j in 0..max_deg {
            if w.lanes().all(|l| done[l as usize]) {
                break;
            }
            let nbr = w.load_global(p.adjacency, |l| {
                let lane = l.lane as usize;
                (!done[lane] && j < deg[lane]).then(|| (begin[lane] + j) as usize)
            });
            let mut cache_hit = [false; W];
            if p.use_hc {
                let cached = w.load_shared(|l| {
                    let lane = l.lane as usize;
                    (!done[lane]).then_some(()).and(nbr[lane]).map(|u| u as usize % p.hub_entries)
                });
                for lane in w.lanes() {
                    let lane = lane as usize;
                    if let (Some(u), Some(c)) = (nbr[lane], cached[lane]) {
                        cache_hit[lane] = c == u;
                    }
                }
                // Cached hubs are known to be visited at `level`: adopt
                // without touching global status.
                w.store_global(p.status, |l| {
                    let lane = l.lane as usize;
                    match (vids[lane], cache_hit[lane]) {
                        (Some(v), true) if !done[lane] => Some((v as usize, p.level + 1)),
                        _ => None,
                    }
                });
                w.store_global(p.parent, |l| {
                    let lane = l.lane as usize;
                    match (vids[lane], nbr[lane], cache_hit[lane]) {
                        (Some(v), Some(u), true) if !done[lane] => Some((v as usize, u)),
                        _ => None,
                    }
                });
                for lane in w.lanes() {
                    let lane = lane as usize;
                    if cache_hit[lane] {
                        done[lane] = true;
                    }
                }
            }
            let stt = w.load_global(p.status, |l| {
                let lane = l.lane as usize;
                (!done[lane] && !cache_hit[lane])
                    .then_some(())
                    .and(nbr[lane])
                    .map(|u| u as usize)
            });
            match p.dir {
                Direction::TopDown => mark_unvisited(w, &p, &nbr, &stt, |lane| vids[lane]),
                Direction::BottomUp => {
                    // Adopt the first neighbour visited at `level`.
                    w.store_global(p.status, |l| {
                        let lane = l.lane as usize;
                        match (vids[lane], stt[lane]) {
                            (Some(v), Some(s)) if s == p.level && !done[lane] => {
                                Some((v as usize, p.level + 1))
                            }
                            _ => None,
                        }
                    });
                    w.store_global(p.parent, |l| {
                        let lane = l.lane as usize;
                        match (vids[lane], nbr[lane], stt[lane]) {
                            (Some(v), Some(u), Some(s)) if s == p.level && !done[lane] => {
                                Some((v as usize, u))
                            }
                            _ => None,
                        }
                    });
                    for lane in w.lanes() {
                        let lane = lane as usize;
                        if stt[lane] == Some(p.level) {
                            done[lane] = true;
                        }
                    }
                }
            }
            w.compute(1, w.active_lanes);
        }
    };
    launch(device, name, &p, 0, body)
}

/// The striped kernel for the shared-frontier classes (`class_idx` 1-3).
/// Each warp finds its frontiers and its stripe `(index, count)` of each
/// frontier's adjacency list:
/// - Warp (MiddleQueue, degree 32..256): frontier `global_warp_id`,
///   stripe `(0, 1)`;
/// - CTA (LargeQueue, degree 256..65,536): frontier `cta_id`, stripe
///   `(warp_in_cta, 8)`;
/// - Grid (ExtremeQueue, degree >= 65,536 — e.g. the 2.5M-edge vertex in
///   KR2): every frontier in turn, stripe `(global_warp_id, 960)`.
fn launch_striped_kernel(
    device: &mut Device,
    name: &str,
    p: Pass,
    class_idx: usize,
) -> Result<(), DeviceError> {
    let body = move |w: &mut WarpCtx| {
        let gw = w.global_warp_id() as usize;
        let (frontiers, stripe) = match class_idx {
            1 => (gw..(gw + 1).min(p.size), (0, 1)),
            2 => (w.cta_id as usize..w.cta_id as usize + 1, (w.warp_in_cta as usize, CTA_WARPS)),
            _ => (0..p.size, (gw, GRID_WARPS)),
        };
        for q_idx in frontiers {
            let frontier = load_frontier(w, &p, q_idx);
            stripe_inspect(w, &p, frontier, stripe);
        }
    };
    launch(device, name, &p, class_idx, body)
}

/// Striped inspection of one frontier `(vid, begin, degree)`: this warp
/// covers adjacency positions `stripe.0 * 32 + lane + k * stripe.1 * 32`.
///
/// In the simulator warps execute sequentially, so a bottom-up hit by an
/// earlier warp sharing the frontier is visible to later warps through
/// the status word — on hardware all stripes run and the benign write
/// race resolves the same way.
fn stripe_inspect(
    w: &mut WarpCtx,
    p: &Pass,
    (vid, begin, deg): (u32, u32, u32),
    (stripe_idx, stripe_count): (usize, usize),
) {
    let bottom_up = p.dir == Direction::BottomUp;
    // Bottom-up on a shared frontier: if an earlier warp already claimed
    // the vertex this level, skip. A lone warp has no one to wait for,
    // so it never pays this load. A wild (suppressed) status read for a
    // corrupted vid inspects anyway; its stores are equally wild and
    // suppressed.
    if bottom_up && stripe_count > 1 {
        let s = w.load_span(p.status, vid as usize, 1)[0].unwrap_or(UNVISITED);
        if s != UNVISITED {
            return;
        }
    }

    let stride = (stripe_count * W) as u32;
    let mut base = (stripe_idx * W) as u32;
    while base < deg {
        let nbr = w.load_span(p.adjacency, (begin + base) as usize, (deg - base) as usize);
        // Per-chunk cache probe before any status traffic: a hit adopts
        // the hub and skips the chunk's global status loads entirely.
        if p.use_hc {
            let cached =
                w.load_shared(|l| nbr[l.lane as usize].map(|u| u as usize % p.hub_entries));
            let hit = w.ballot(|l| {
                matches!(
                    (nbr[l.lane as usize], cached[l.lane as usize]),
                    (Some(u), Some(c)) if c == u
                )
            });
            if adopt_first(w, p, vid, &nbr, hit) {
                return;
            }
        }
        let stt = w.load_global(p.status, |l| nbr[l.lane as usize].map(|u| u as usize));
        if bottom_up {
            let hit = w.ballot(|l| stt[l.lane as usize] == Some(p.level));
            if adopt_first(w, p, vid, &nbr, hit) {
                return;
            }
        } else {
            mark_unvisited(w, p, &nbr, &stt, |_| Some(vid));
        }
        base += stride;
    }
}

/// Top-down: marks each lane's unvisited neighbour (`nbr` with status
/// `stt`) visited at the next level, with parent `parent_of(lane)`
/// (benign race: last wins).
fn mark_unvisited(
    w: &mut WarpCtx,
    p: &Pass,
    nbr: &Lanes<u32>,
    stt: &Lanes<u32>,
    parent_of: impl Fn(usize) -> Option<u32>,
) {
    w.store_global(p.status, |l| {
        let lane = l.lane as usize;
        match (nbr[lane], stt[lane]) {
            (Some(u), Some(s)) if s == UNVISITED => Some((u as usize, p.level + 1)),
            _ => None,
        }
    });
    w.store_global(p.parent, |l| {
        let lane = l.lane as usize;
        match (parent_of(lane), nbr[lane], stt[lane]) {
            (Some(v), Some(u), Some(s)) if s == UNVISITED => Some((u as usize, v)),
            _ => None,
        }
    });
}

/// Bottom-up hit: lane 0 marks `vid` visited at the next level with the
/// neighbour of `hit`'s lowest lane as its parent. Returns whether any
/// lane hit.
fn adopt_first(w: &mut WarpCtx, p: &Pass, vid: u32, nbr: &Lanes<u32>, hit: u32) -> bool {
    if hit == 0 {
        return false;
    }
    let u = nbr[hit.trailing_zeros() as usize].unwrap();
    w.store_span(p.status, vid as usize, &[p.level + 1]);
    w.store_span(p.parent, vid as usize, &[u]);
    true
}

/// Launches `body` as class `class_idx`'s geometry, prefixing a
/// cooperative hub-cache load when the pass uses the shared-memory cache.
/// Launch faults surface as errors.
fn launch(
    device: &mut Device,
    name: &str,
    p: &Pass,
    class_idx: usize,
    body: impl FnMut(&mut WarpCtx),
) -> Result<(), DeviceError> {
    let cfg = p.launch_config(class_idx);
    if p.use_hc {
        let (hub_src, entries) = (p.hub_src, p.hub_entries);
        device.try_launch_with_init(
            name,
            cfg,
            move |cta| cta.coop_load_global(hub_src, 0..entries, 0),
            body,
        )?;
    } else {
        device.try_launch(name, cfg, body)?;
    }
    Ok(())
}

/// Lane 0 fetches queue entry `q_idx` and its two offset words (the
/// striped kernel broadcasts them), returning `(vid, begin, degree)`
/// clamped as in [`Pass::clamp_range`]. A corrupted queue entry makes the
/// offset loads wild (suppressed, `None`): default to an empty range and
/// let the verifier see whatever the traversal misses.
fn load_frontier(w: &mut WarpCtx, p: &Pass, q_idx: usize) -> (u32, u32, u32) {
    let vid = w.load_span(p.queue, q_idx, 1)[0].unwrap_or(0);
    let begin = w.load_span(p.offsets, vid as usize, 1)[0].unwrap_or(0);
    let end = w.load_span(p.offsets, vid as usize + 1, 1)[0].unwrap_or(0);
    w.compute(2, w.active_lanes);
    let (begin, deg) = p.clamp_range(begin, end);
    (vid, begin, deg)
}

/// Loads `offsets[v]` and `offsets[v+1]` for each lane's vertex, returning
/// `(begin, degree)` arrays clamped to the adjacency bounds (see
/// [`Pass::clamp_range`]).
fn load_degrees(w: &mut WarpCtx, p: &Pass, vids: &[Option<usize>; W]) -> ([u32; W], [u32; W]) {
    let begin = w.load_global(p.offsets, |l| vids[l.lane as usize]);
    let end = w.load_global(p.offsets, |l| vids[l.lane as usize].map(|v| v + 1));
    let mut b = [0u32; W];
    let mut d = [0u32; W];
    for lane in 0..W {
        if let (Some(bb), Some(ee)) = (begin[lane], end[lane]) {
            (b[lane], d[lane]) = p.clamp_range(bb, ee);
        }
    }
    (b, d)
}

fn lanes_usize(vids: &Lanes<u32>) -> [Option<usize>; W] {
    let mut out = [None; W];
    for (o, v) in out.iter_mut().zip(vids.iter()) {
        *o = v.map(|x| x as usize);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifyThresholds;
    use crate::device_graph::DeviceGraph;
    use crate::state::HUB_EMPTY;
    use enterprise_graph::{Csr, GraphBuilder};
    use gpu_sim::{Device, DeviceConfig};

    struct Fixture {
        device: Device,
        dg: DeviceGraph,
        st: BfsState,
    }

    fn fixture(g: &Csr) -> Fixture {
        let mut device = Device::new(DeviceConfig::k40_repro());
        let dg = DeviceGraph::upload(&mut device, g);
        let st = BfsState::new(
            &mut device,
            &dg,
            ClassifyThresholds { small_below: 2, middle_below: 8, large_below: 64 },
            16,
            1_000_000,
        );
        Fixture { device, dg, st }
    }

    fn star(n: u32) -> Csr {
        let mut b = GraphBuilder::new_undirected(n as usize);
        for i in 1..n {
            b.add_edge(0, i);
        }
        b.build()
    }

    fn status_of(f: &Fixture) -> Vec<u32> {
        f.device.mem_ref().view(f.st.status).to_vec()
    }

    /// Seeds one frontier vertex into the queue class chosen by degree.
    fn seed(f: &mut Fixture, v: u32, level: u32) {
        let deg = {
            let offs = f.device.mem_ref().view(f.dg.out_offsets);
            offs[v as usize + 1] - offs[v as usize]
        };
        let k = f.st.thresholds.classify(deg).index();
        f.device.mem().set(f.st.status, v as usize, level);
        f.device.mem().set(f.st.queues[k], f.st.queue_sizes[k], v);
        f.st.queue_sizes[k] += 1;
    }

    #[test]
    fn each_granularity_expands_top_down() {
        // Star centre degree 63 -> Large class (CTA kernel); leaves
        // degree 1 -> Small (Thread kernel).
        let g = star(64);
        let mut f = fixture(&g);
        seed(&mut f, 0, 0);
        expand_level(&mut f.device, &f.dg, &f.st, 0, Direction::TopDown, true, false);
        let s = status_of(&f);
        assert!(s[1..].iter().all(|&x| x == 1), "CTA kernel must mark all leaves");
        // Expand the leaves back (Thread kernel) - centre already visited.
        f.st.queue_sizes = [0; 4];
        for v in 1..64 {
            seed(&mut f, v, 1);
        }
        expand_level(&mut f.device, &f.dg, &f.st, 1, Direction::TopDown, true, false);
        assert_eq!(status_of(&f)[0], 0, "already-visited centre untouched");
    }

    #[test]
    fn grid_kernel_handles_extreme_queue() {
        let g = star(200);
        let mut f = fixture(&g);
        // Force the centre into the Extreme class with tiny thresholds.
        f.st.thresholds = ClassifyThresholds { small_below: 2, middle_below: 4, large_below: 8 };
        seed(&mut f, 0, 0);
        assert_eq!(f.st.queue_sizes[3], 1, "centre must be Extreme");
        expand_level(&mut f.device, &f.dg, &f.st, 0, Direction::TopDown, true, false);
        assert!(status_of(&f)[1..].iter().all(|&x| x == 1));
        assert!(f.device.records().iter().any(|k| k.name == "Grid"));
    }

    #[test]
    fn unbalanced_mode_uses_single_warp_kernel() {
        let g = star(40);
        let mut f = fixture(&g);
        // Single-queue mode: everything in class 0.
        f.st.thresholds = ClassifyThresholds {
            small_below: u32::MAX - 2,
            middle_below: u32::MAX - 1,
            large_below: u32::MAX,
        };
        seed(&mut f, 0, 0);
        expand_level(&mut f.device, &f.dg, &f.st, 0, Direction::TopDown, false, false);
        assert!(status_of(&f)[1..].iter().all(|&x| x == 1));
        assert_eq!(f.device.records().len(), 1);
        assert_eq!(f.device.records()[0].name, "Warp(unbalanced)");
    }

    #[test]
    fn bottom_up_adopts_parent_at_exact_level() {
        // Path 0-1-2: expand bottom-up for vertex 2 with 1 at level 1.
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut f = fixture(&g);
        f.device.mem().set(f.st.status, 0, 0);
        f.device.mem().set(f.st.status, 1, 1);
        // Bottom-up queue holds unvisited vertex 2.
        f.device.mem().set(f.st.queues[0], 0, 2);
        f.st.queue_sizes[0] = 1;
        expand_level(&mut f.device, &f.dg, &f.st, 1, Direction::BottomUp, true, false);
        let s = status_of(&f);
        assert_eq!(s[2], 2);
        assert_eq!(f.device.mem_ref().view(f.st.parent)[2], 1);
    }

    #[test]
    fn bottom_up_ignores_wrong_level_neighbours() {
        // 0-2 edge with 0 at level 0: inspecting 2 at frontier level 1
        // must NOT adopt 0 (bottom-up only pairs with the previous level).
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let mut f = fixture(&g);
        f.device.mem().set(f.st.status, 0, 0);
        f.device.mem().set(f.st.queues[0], 0, 2);
        f.st.queue_sizes[0] = 1;
        expand_level(&mut f.device, &f.dg, &f.st, 1, Direction::BottomUp, true, false);
        assert_eq!(status_of(&f)[2], crate::status::UNVISITED);
    }

    #[test]
    fn hub_cache_hit_avoids_status_loads() {
        // 512 hubs, each the parent of 4 unvisited leaves: without the
        // cache every leaf's inspection issues a *scattered* global
        // status read; with all hubs staged those reads disappear.
        let hubs = 512u32;
        let leaves_per_hub = 4u32;
        let n = (hubs + hubs * leaves_per_hub) as usize;
        let mut b = GraphBuilder::new_undirected(n);
        for h in 0..hubs {
            for j in 0..leaves_per_hub {
                // Scatter: consecutive leaves belong to unrelated hubs,
                // so the no-cache status reads cannot coalesce (the
                // regime the paper's Figure 12 measures).
                let leaf = hubs + (h + j * hubs).wrapping_mul(2654435761) % (hubs * leaves_per_hub);
                b.add_edge(h, leaf);
            }
        }
        let g = b.build();
        let run = |use_hc: bool| -> (u64, Vec<u32>) {
            let mut device = Device::new(DeviceConfig::k40_repro());
            let dg = DeviceGraph::upload(&mut device, &g);
            let mut st = BfsState::new(
                &mut device,
                &dg,
                ClassifyThresholds::default(),
                1024,
                1_000_000,
            );
            for h in 0..hubs {
                device.mem().set(st.status, h as usize, 1);
                if use_hc {
                    device.mem().set(st.hub_src, h as usize % 1024, h);
                }
            }
            if !use_hc {
                device.mem().fill(st.hub_src, HUB_EMPTY);
            }
            for (i, v) in (hubs..n as u32).enumerate() {
                device.mem().set(st.queues[0], i, v);
            }
            st.queue_sizes[0] = (n as u32 - hubs) as usize;
            expand_level(&mut device, &dg, &st, 1, Direction::BottomUp, true, use_hc);
            let gld: u64 = device.records().iter().map(|k| k.gld_transactions).sum();
            (gld, device.mem_ref().view(st.status).to_vec())
        };
        let (gld_without, s1) = run(false);
        let (gld_with, s2) = run(true);
        assert_eq!(s1, s2, "HC must not change the traversal");
        // Every leaf with an edge got visited.
        assert!(s1[hubs as usize..].iter().filter(|&&x| x != crate::status::UNVISITED).count() > 1000);
        assert!(
            (gld_with as f64) < 0.7 * gld_without as f64,
            "HC should cut global transactions: {gld_with} vs {gld_without}"
        );
    }

    /// Inspects the centre of a 40-leaf star bottom-up at level 1 with
    /// the centre forced into `class_idx` by thresholds. `at` sets leaves'
    /// status words and `hubs` stages leaves in the hub table (which arms
    /// the cache). Leaf `i + 1` sits at in-adjacency position `i`, so
    /// positions 0-31 are the first warp's stripe on every geometry and
    /// position 35 (leaf 36) is the Warp kernel's second chunk and the
    /// CTA and Grid kernels' second warp. Returns the centre's status and
    /// parent.
    fn inspect_centre(class_idx: usize, at: &[(u32, u32)], hubs: &[u32]) -> (u32, u32) {
        let g = star(41);
        let mut f = fixture(&g);
        let (middle_below, large_below) = [(64, 128), (4, 64), (4, 8)][class_idx - 1];
        f.st.thresholds = ClassifyThresholds { small_below: 2, middle_below, large_below };
        assert_eq!(f.st.thresholds.classify(40).index(), class_idx);
        for &(v, s) in at {
            f.device.mem().set(f.st.status, v as usize, s);
        }
        for &h in hubs {
            f.device.mem().set(f.st.hub_src, h as usize % f.st.hub_cache_entries, h);
        }
        f.device.mem().set(f.st.queues[class_idx], 0, 0);
        f.st.queue_sizes[class_idx] = 1;
        let use_hc = !hubs.is_empty();
        expand_level(&mut f.device, &f.dg, &f.st, 1, Direction::BottomUp, true, use_hc);
        let name = kernel_name(Direction::BottomUp, class_idx);
        assert!(f.device.records().iter().any(|k| k.name == name), "{name} must run");
        (status_of(&f)[0], f.device.mem_ref().view(f.st.parent)[0])
    }

    #[test]
    fn striped_bottom_up_adopts_a_frontier_level_neighbour() {
        for class_idx in 1..4 {
            assert_eq!(inspect_centre(class_idx, &[(36, 1)], &[]), (2, 36), "class {class_idx}");
        }
    }

    #[test]
    fn striped_bottom_up_ignores_an_older_level_neighbour() {
        for class_idx in 1..4 {
            let (status, parent) = inspect_centre(class_idx, &[(36, 0)], &[]);
            assert_eq!(status, crate::status::UNVISITED, "class {class_idx}");
            assert_eq!(parent, crate::status::NO_PARENT, "class {class_idx}");
        }
    }

    #[test]
    fn striped_bottom_up_adopts_the_cached_hub() {
        // Leaves 3 and 5 share the first chunk at the frontier level.
        // Status order alone adopts 3; with 5 staged, the probe runs
        // before any status load and adopts the hub.
        for class_idx in 1..4 {
            let at = [(3, 1), (5, 1)];
            assert_eq!(inspect_centre(class_idx, &at, &[]), (2, 3), "class {class_idx}");
            assert_eq!(inspect_centre(class_idx, &at, &[5]), (2, 5), "class {class_idx}");
        }
    }

    #[test]
    fn cta_warps_skip_a_vertex_an_earlier_warp_claimed() {
        // Leaf 6 is in warp 0's stripe and leaf 36 in warp 1's, both at
        // the frontier level: warp 1 must see warp 0's claim and keep its
        // parent.
        assert_eq!(inspect_centre(2, &[(6, 1), (36, 1)], &[]), (2, 6));
    }

    #[test]
    fn hyper_q_groups_expansion_kernels() {
        let g = star(64);
        let mut f = fixture(&g);
        seed(&mut f, 0, 0);
        for v in 1..5 {
            seed(&mut f, v, 0); // also some Small-class frontiers
        }
        expand_level(&mut f.device, &f.dg, &f.st, 0, Direction::TopDown, true, false);
        let names: Vec<&str> = f.device.records().iter().map(|k| k.name.as_str()).collect();
        assert!(names.contains(&"Thread") && names.contains(&"CTA"), "{names:?}");
        // Concurrent kernels share a start time.
        let starts: Vec<f64> = f.device.records().iter().map(|k| k.start_ms).collect();
        assert!(starts.windows(2).all(|w| w[0] == w[1]), "Hyper-Q group start: {starts:?}");
    }
}
