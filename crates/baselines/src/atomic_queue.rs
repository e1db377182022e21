//! Atomic-operation-based frontier queue BFS (Figure 1(b), \[30\]).
//!
//! Top-down only: one thread per frontier, `atomicCAS` to claim each
//! neighbour (guaranteeing a duplicate-free queue) and `atomicAdd` on a
//! global tail to enqueue. The contention of those atomics across
//! thousands of threads is the §2.1 motivation for Enterprise's
//! atomic-free queue generation.

use crate::common::{BaselineResult, GpuBase};
use enterprise::status::UNVISITED;
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{BufferId, DeviceConfig, LaunchConfig};

/// The atomic-queue system.
pub struct AtomicQueueBfs {
    base: GpuBase,
    queue_a: BufferId,
    queue_b: BufferId,
    tail: BufferId,
}

impl AtomicQueueBfs {
    /// Uploads `csr` onto a fresh simulated device.
    pub fn new(config: DeviceConfig, csr: &Csr) -> Self {
        let mut base = GpuBase::new(config, csr);
        let n = base.graph.vertex_count;
        let queue_a = base.device.mem().alloc("queue_a", n);
        let queue_b = base.device.mem().alloc("queue_b", n);
        let tail = base.device.mem().alloc("queue_tail", 1);
        Self { base, queue_a, queue_b, tail }
    }

    /// Runs one top-down atomic-queue BFS.
    pub fn bfs(&mut self, source: VertexId) -> BaselineResult {
        self.base.seed(source);
        self.base.device.mem().set(self.queue_a, 0, source);
        let mut size = 1usize;
        let mut level = 0u32;
        let (mut q_in, mut q_out) = (self.queue_a, self.queue_b);
        let g = self.base.graph;
        let (status, parent, tail) = (self.base.status, self.base.parent, self.tail);

        while size > 0 {
            assert!(level <= g.vertex_count as u32 + 1, "atomic queue BFS stuck");
            self.base.device.mem().set(tail, 0, 0);
            let qsize = size;
            self.base.device.launch(
                "atomicq-expand",
                LaunchConfig::for_threads(qsize as u64, 256),
                |w| {
                    let vids = w.load_global(q_in, |l| {
                        ((l.tid as usize) < qsize).then_some(l.tid as usize)
                    });
                    let begin =
                        w.load_global(g.out_offsets, |l| vids[l.lane as usize].map(|v| v as usize));
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
                    w.compute(1, w.active_lanes);
                    for j in 0..max_deg {
                        let nbr = w.load_global(g.out_targets, |l| {
                            let lane = l.lane as usize;
                            (j < deg[lane]).then(|| (beg[lane] + j) as usize)
                        });
                        // atomicCAS claims the neighbour.
                        let old = w.atomic_cas_global(status, |l| {
                            nbr[l.lane as usize].map(|u| (u as usize, UNVISITED, level + 1))
                        });
                        // Winners record the parent and enqueue.
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
                            match (won[lane], nbr[lane], pos[lane]) {
                                (true, Some(u), Some(p)) => Some((p as usize, u)),
                                _ => None,
                            }
                        });
                    }
                },
            );
            size = self.base.device.mem_ref().get(tail, 0) as usize;
            std::mem::swap(&mut q_in, &mut q_out);
            level += 1;
        }
        self.base.collect(source)
    }

    /// Counter report access for comparisons.
    pub fn report(&self) -> gpu_sim::DeviceReport {
        self.base.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_bfs::sequential_levels;
    use enterprise_graph::gen::{kronecker, rmat};

    #[test]
    fn atomic_queue_matches_oracle() {
        let g = kronecker(8, 8, 5);
        let mut aq = AtomicQueueBfs::new(DeviceConfig::k40(), &g);
        for src in [0u32, 77] {
            let r = aq.bfs(src);
            assert_eq!(r.levels, sequential_levels(&g, src), "src {src}");
        }
    }

    #[test]
    fn atomic_queue_on_directed_graph() {
        let g = rmat(8, 8, 2);
        let mut aq = AtomicQueueBfs::new(DeviceConfig::k40(), &g);
        let r = aq.bfs(3);
        assert_eq!(r.levels, sequential_levels(&g, 3));
    }

    #[test]
    fn atomics_serialize_measurably() {
        let g = kronecker(8, 16, 5);
        let mut aq = AtomicQueueBfs::new(DeviceConfig::k40(), &g);
        aq.bfs(0);
        let ser: u64 = aq
            .base
            .device
            .records()
            .iter()
            .map(|k| k.atomic_serialization_cycles)
            .sum();
        assert!(ser > 0, "tail contention must show up in the counters");
    }

    #[test]
    fn queue_has_no_duplicates() {
        // The atomicCAS guarantees uniqueness: visited count equals the
        // oracle's reachable set even with heavy duplicate edges.
        let g = kronecker(9, 32, 6);
        let mut aq = AtomicQueueBfs::new(DeviceConfig::k40(), &g);
        let r = aq.bfs(0);
        let oracle = sequential_levels(&g, 0);
        assert_eq!(r.visited, oracle.iter().filter(|l| l.is_some()).count());
    }
}
