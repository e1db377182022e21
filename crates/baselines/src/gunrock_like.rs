//! Gunrock analogue (Wang et al. \[44\]).
//!
//! Gunrock's BFS (as published at the paper's time) is a top-down
//! advance/filter pipeline: a load-balanced *advance* over the frontier's
//! edges followed by an atomic *filter* that compacts discoveries into
//! the next queue. We model it as a two-way balanced expansion (thread
//! granularity below 128 out-edges, warp granularity above — coarser than
//! Enterprise's four-way split) with `atomicCAS` claims, an `atomicAdd`
//! filter, and the framework's separate per-level filter/compaction pass
//! over the produced queue. It sits between B40C and MapGraph on power-law
//! graphs (~5x behind Enterprise in Figure 14) and ~2x behind on
//! high-diameter graphs.

use crate::common::{BaselineResult, GpuBase};
use enterprise::status::UNVISITED;
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{BufferId, DeviceConfig, LaunchConfig, WARP_SIZE};

/// Degree boundary between the thread- and warp-granularity advance.
const WARP_DEGREE: u32 = 128;

/// The Gunrock-style system.
pub struct GunrockLikeBfs {
    base: GpuBase,
    queue_small_a: BufferId,
    queue_small_b: BufferId,
    queue_large_a: BufferId,
    queue_large_b: BufferId,
    tails: BufferId,
}

impl GunrockLikeBfs {
    /// Uploads `csr` onto a fresh simulated device.
    pub fn new(config: DeviceConfig, csr: &Csr) -> Self {
        let mut base = GpuBase::new(config, csr);
        let n = base.graph.vertex_count;
        let queue_small_a = base.device.mem().alloc("gq_small_a", n);
        let queue_small_b = base.device.mem().alloc("gq_small_b", n);
        let queue_large_a = base.device.mem().alloc("gq_large_a", n);
        let queue_large_b = base.device.mem().alloc("gq_large_b", n);
        let tails = base.device.mem().alloc("gq_tails", 2);
        Self { base, queue_small_a, queue_small_b, queue_large_a, queue_large_b, tails }
    }

    /// Runs one advance/filter BFS.
    pub fn bfs(&mut self, source: VertexId) -> BaselineResult {
        self.base.seed(source);
        let g = self.base.graph;
        let n = g.vertex_count;
        let src_deg = self.base.out_degrees[source as usize];
        let (mut small_in, mut small_out) = (self.queue_small_a, self.queue_small_b);
        let (mut large_in, mut large_out) = (self.queue_large_a, self.queue_large_b);
        let mut small_size = 0usize;
        let mut large_size = 0usize;
        if src_deg < WARP_DEGREE {
            self.base.device.mem().set(small_in, 0, source);
            small_size = 1;
        } else {
            self.base.device.mem().set(large_in, 0, source);
            large_size = 1;
        }
        let mut level = 0u32;

        while small_size + large_size > 0 {
            assert!(level <= n as u32 + 1, "gunrock-like BFS stuck");
            self.base.device.mem().set(self.tails, 0, 0);
            self.base.device.mem().set(self.tails, 1, 0);
            self.base.device.begin_concurrent();
            if small_size > 0 {
                self.advance_thread(level, small_in, small_size, small_out, large_out);
            }
            if large_size > 0 {
                self.advance_warp(level, large_in, large_size, small_out, large_out);
            }
            self.base.device.end_concurrent();
            small_size = self.base.device.mem_ref().get(self.tails, 0) as usize;
            large_size = self.base.device.mem_ref().get(self.tails, 1) as usize;
            // Gunrock's filter runs as its own pass over the advance
            // output (validity re-check + compaction) every iteration.
            for (q, size) in [(small_out, small_size), (large_out, large_size)] {
                if size > 0 {
                    let status = self.base.status;
                    self.base.device.launch(
                        "gunrock-filter",
                        LaunchConfig::for_threads(size as u64, 256),
                        |w| {
                            let vids = w.load_global(q, |l| {
                                ((l.tid as usize) < size).then_some(l.tid as usize)
                            });
                            let stt = w
                                .load_global(status, |l| vids[l.lane as usize].map(|v| v as usize));
                            w.store_global(q, |l| {
                                let lane = l.lane as usize;
                                match (vids[lane], stt[lane]) {
                                    (Some(v), Some(_)) => Some((l.tid as usize, v)),
                                    _ => None,
                                }
                            });
                        },
                    );
                }
            }
            std::mem::swap(&mut small_in, &mut small_out);
            std::mem::swap(&mut large_in, &mut large_out);
            level += 1;
        }
        self.base.collect(source)
    }

    /// Thread-granularity advance over low-degree frontiers.
    fn advance_thread(
        &mut self,
        level: u32,
        q_in: BufferId,
        qsize: usize,
        small_out: BufferId,
        large_out: BufferId,
    ) {
        let g = self.base.graph;
        let (status, parent, tails) = (self.base.status, self.base.parent, self.tails);
        self.base.device.launch(
            "gunrock-advance-thread",
            LaunchConfig::for_threads(qsize as u64, 256),
            |w| {
                let vids =
                    w.load_global(q_in, |l| ((l.tid as usize) < qsize).then_some(l.tid as usize));
                let begin =
                    w.load_global(g.out_offsets, |l| vids[l.lane as usize].map(|v| v as usize));
                let end = w
                    .load_global(g.out_offsets, |l| vids[l.lane as usize].map(|v| v as usize + 1));
                let mut deg = [0u32; 32];
                let mut beg = [0u32; 32];
                let mut max_deg = 0;
                for lane in w.lanes() {
                    let lane = lane as usize;
                    if let (Some(b), Some(e)) = (begin[lane], end[lane]) {
                        beg[lane] = b;
                        deg[lane] = e - b;
                        max_deg = max_deg.max(e - b);
                    }
                }
                w.compute(1, w.active_lanes);
                for j in 0..max_deg {
                    let nbr = w.load_global(g.out_targets, |l| {
                        let lane = l.lane as usize;
                        (j < deg[lane]).then(|| (beg[lane] + j) as usize)
                    });
                    filter_enqueue(
                        w, g, status, parent, tails, small_out, large_out, level, &nbr, &vids,
                    );
                }
            },
        );
    }

    /// Warp-granularity advance over high-degree frontiers.
    fn advance_warp(
        &mut self,
        level: u32,
        q_in: BufferId,
        qsize: usize,
        small_out: BufferId,
        large_out: BufferId,
    ) {
        let g = self.base.graph;
        let (status, parent, tails) = (self.base.status, self.base.parent, self.tails);
        self.base.device.launch(
            "gunrock-advance-warp",
            LaunchConfig::for_threads(qsize as u64 * WARP_SIZE as u64, 256),
            |w| {
                let q_idx = w.global_warp_id() as usize;
                if q_idx >= qsize {
                    return;
                }
                let vid = w.load_global(q_in, |l| (l.lane == 0).then_some(q_idx))[0].unwrap();
                let begin = w.load_global(g.out_offsets, |l| (l.lane == 0).then_some(vid as usize))
                    [0]
                .unwrap();
                let end = w
                    .load_global(g.out_offsets, |l| (l.lane == 0).then_some(vid as usize + 1))[0]
                    .unwrap();
                let deg = end - begin;
                let mut base = 0u32;
                let vids: gpu_sim::Lanes<u32> = [Some(vid); 32];
                while base < deg {
                    let nbr = w.load_global(g.out_targets, |l| {
                        (base + l.lane < deg).then(|| (begin + base + l.lane) as usize)
                    });
                    filter_enqueue(
                        w, g, status, parent, tails, small_out, large_out, level, &nbr, &vids,
                    );
                    base += WARP_SIZE;
                }
            },
        );
    }
}

/// The filter step: atomicCAS-claim each discovered neighbour, then
/// enqueue into the degree-matched output queue via atomicAdd.
#[allow(clippy::too_many_arguments)]
fn filter_enqueue(
    w: &mut gpu_sim::WarpCtx,
    g: enterprise::DeviceGraph,
    status: BufferId,
    parent: BufferId,
    tails: BufferId,
    small_out: BufferId,
    large_out: BufferId,
    level: u32,
    nbr: &gpu_sim::Lanes<u32>,
    vids: &gpu_sim::Lanes<u32>,
) {
    let old = w.atomic_cas_global(status, |l| {
        nbr[l.lane as usize].map(|u| (u as usize, UNVISITED, level + 1))
    });
    let mut won = [false; 32];
    for lane in w.lanes() {
        let lane = lane as usize;
        won[lane] = nbr[lane].is_some() && old[lane] == Some(UNVISITED);
    }
    w.store_global(parent, |l| {
        let lane = l.lane as usize;
        match (won[lane], nbr[lane], vids[lane]) {
            (true, Some(u), Some(v)) => Some((u as usize, v)),
            _ => None,
        }
    });
    // Classify the discovery by degree to pick the output queue.
    let nb = w.load_global(g.out_offsets, |l| {
        let lane = l.lane as usize;
        won[lane].then(|| nbr[lane].unwrap() as usize)
    });
    let ne = w.load_global(g.out_offsets, |l| {
        let lane = l.lane as usize;
        won[lane].then(|| nbr[lane].unwrap() as usize + 1)
    });
    let mut is_large = [false; 32];
    for lane in w.lanes() {
        let lane = lane as usize;
        if let (Some(b), Some(e)) = (nb[lane], ne[lane]) {
            is_large[lane] = e - b >= WARP_DEGREE;
        }
    }
    let pos_small = w.atomic_add_global(tails, |l| {
        let lane = l.lane as usize;
        (won[lane] && !is_large[lane]).then_some((0, 1))
    });
    let pos_large = w.atomic_add_global(tails, |l| {
        let lane = l.lane as usize;
        (won[lane] && is_large[lane]).then_some((1, 1))
    });
    w.store_global(small_out, |l| {
        let lane = l.lane as usize;
        match (pos_small[lane], nbr[lane]) {
            (Some(p), Some(u)) => Some((p as usize, u)),
            _ => None,
        }
    });
    w.store_global(large_out, |l| {
        let lane = l.lane as usize;
        match (pos_large[lane], nbr[lane]) {
            (Some(p), Some(u)) => Some((p as usize, u)),
            _ => None,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_bfs::sequential_levels;
    use enterprise_graph::gen::{kronecker, rmat, road_grid};

    #[test]
    fn gunrock_like_matches_oracle() {
        let g = kronecker(9, 8, 13);
        let mut gr = GunrockLikeBfs::new(DeviceConfig::k40(), &g);
        for src in [0u32, 100] {
            let r = gr.bfs(src);
            assert_eq!(r.levels, sequential_levels(&g, src), "src {src}");
        }
    }

    #[test]
    fn gunrock_like_on_directed_and_road() {
        let g = rmat(8, 8, 14);
        let mut gr = GunrockLikeBfs::new(DeviceConfig::k40(), &g);
        assert_eq!(gr.bfs(5).levels, sequential_levels(&g, 5));
        let road = road_grid(20, 20, 0.1, 4);
        let mut gr = GunrockLikeBfs::new(DeviceConfig::k40(), &road);
        assert_eq!(gr.bfs(0).levels, sequential_levels(&road, 0));
    }
}
