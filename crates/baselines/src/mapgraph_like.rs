//! MapGraph analogue (Fu et al. \[18\]).
//!
//! MapGraph is a GAS (gather-apply-scatter) framework: BFS runs as a
//! generic vertex program, paying a framework tax the specialized systems
//! avoid — thread-granularity expansion only (no warp/CTA gathering), an
//! atomic frontier filter, and a separate *apply* pass that re-reads and
//! re-writes every discovered vertex's state. Figure 14 places it ~9x
//! behind Enterprise on power-law graphs and ~5.6x on high-diameter
//! graphs; this analogue encodes exactly those three design taxes.

use crate::common::{BaselineResult, GpuBase};
use enterprise::status::UNVISITED;
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{BufferId, DeviceConfig, LaunchConfig};

/// The MapGraph-style system.
pub struct MapGraphLikeBfs {
    base: GpuBase,
    queue_a: BufferId,
    queue_b: BufferId,
    tail: BufferId,
    /// GAS vertex-program state (one word per vertex, touched by apply).
    vertex_state: BufferId,
}

impl MapGraphLikeBfs {
    /// Uploads `csr` onto a fresh simulated device.
    pub fn new(config: DeviceConfig, csr: &Csr) -> Self {
        let mut base = GpuBase::new(config, csr);
        let n = base.graph.vertex_count;
        let queue_a = base.device.mem().alloc("mg_queue_a", n);
        let queue_b = base.device.mem().alloc("mg_queue_b", n);
        let tail = base.device.mem().alloc("mg_tail", 1);
        let vertex_state = base.device.mem().alloc("mg_vertex_state", n);
        Self { base, queue_a, queue_b, tail, vertex_state }
    }

    /// Runs one GAS-style top-down BFS.
    pub fn bfs(&mut self, source: VertexId) -> BaselineResult {
        self.base.seed(source);
        self.base.device.mem().set(self.queue_a, 0, source);
        let g = self.base.graph;
        let n = g.vertex_count;
        let (status, parent, tail, vstate) =
            (self.base.status, self.base.parent, self.tail, self.vertex_state);
        let (mut q_in, mut q_out) = (self.queue_a, self.queue_b);
        let mut size = 1usize;
        let mut level = 0u32;

        while size > 0 {
            assert!(level <= n as u32 + 1, "mapgraph-like BFS stuck");
            self.base.device.mem().set(tail, 0, 0);
            let qsize = size;
            // Scatter/gather pass: thread per frontier, sequential edge
            // loop, atomic claim + enqueue.
            self.base.device.launch(
                "mapgraph-scatter",
                LaunchConfig::for_threads(qsize as u64, 256),
                |w| {
                    let vids = w
                        .load_global(q_in, |l| ((l.tid as usize) < qsize).then_some(l.tid as usize));
                    let begin = w
                        .load_global(g.out_offsets, |l| vids[l.lane as usize].map(|v| v as usize));
                    let end = w.load_global(g.out_offsets, |l| {
                        vids[l.lane as usize].map(|v| v as usize + 1)
                    });
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
                    w.compute(2, w.active_lanes);
                    for j in 0..max_deg {
                        let nbr = w.load_global(g.out_targets, |l| {
                            let lane = l.lane as usize;
                            (j < deg[lane]).then(|| (beg[lane] + j) as usize)
                        });
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
                        let pos = w.atomic_add_global(tail, |l| {
                            won[l.lane as usize].then_some((0, 1))
                        });
                        w.store_global(q_out, |l| {
                            let lane = l.lane as usize;
                            match (pos[lane], nbr[lane]) {
                                (Some(p), Some(u)) => Some((p as usize, u)),
                                _ => None,
                            }
                        });
                    }
                },
            );
            size = self.base.device.mem_ref().get(tail, 0) as usize;
            // Apply pass: the GAS framework re-visits every discovery to
            // run the vertex program (here: copy the level into the
            // vertex state). Pure overhead for BFS — the framework tax.
            if size > 0 {
                let new_size = size;
                self.base.device.launch(
                    "mapgraph-apply",
                    LaunchConfig::for_threads(new_size as u64, 256),
                    |w| {
                        let vids = w.load_global(q_out, |l| {
                            ((l.tid as usize) < new_size).then_some(l.tid as usize)
                        });
                        let stt =
                            w.load_global(status, |l| vids[l.lane as usize].map(|v| v as usize));
                        w.store_global(vstate, |l| {
                            let lane = l.lane as usize;
                            match (vids[lane], stt[lane]) {
                                (Some(v), Some(s)) => Some((v as usize, s)),
                                _ => None,
                            }
                        });
                    },
                );
            }
            std::mem::swap(&mut q_in, &mut q_out);
            level += 1;
        }
        self.base.collect(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_bfs::sequential_levels;
    use enterprise_graph::gen::{kronecker, rmat};

    #[test]
    fn mapgraph_like_matches_oracle() {
        let g = kronecker(9, 8, 15);
        let mut mg = MapGraphLikeBfs::new(DeviceConfig::k40(), &g);
        let r = mg.bfs(0);
        assert_eq!(r.levels, sequential_levels(&g, 0));
    }

    #[test]
    fn mapgraph_like_on_directed() {
        let g = rmat(8, 8, 16);
        let mut mg = MapGraphLikeBfs::new(DeviceConfig::k40(), &g);
        let r = mg.bfs(7);
        assert_eq!(r.levels, sequential_levels(&g, 7));
    }

    #[test]
    fn apply_pass_runs_each_level() {
        let g = kronecker(8, 8, 17);
        // Root at the biggest hub so the search is guaranteed to span
        // multiple levels regardless of the generator's seed mapping.
        let source = (0..g.vertex_count() as u32)
            .max_by_key(|&v| g.out_degree(v))
            .expect("graph is non-empty");
        let mut mg = MapGraphLikeBfs::new(DeviceConfig::k40(), &g);
        mg.bfs(source);
        let applies =
            mg.base.device.records().iter().filter(|k| k.name == "mapgraph-apply").count();
        assert!(applies >= 2, "the GAS apply tax must be visible");
    }
}
