//! A plain sequential BFS owned by the harness: the CPU reference that
//! host times are compared with. It runs on the harness's own copy of the
//! graph, so no library change can move it; it moves only with the speed
//! of the machine, which is what the comparison cancels.

use enterprise_graph::{Csr, VertexId};
use std::time::Instant;

pub struct CpuReference {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    levels: Vec<u32>,
    queue: Vec<VertexId>,
}

/// Short references are repeated up to this long, so timer resolution and
/// cache warm-up do not dominate them.
const MIN_MS: f64 = 2.0;

impl CpuReference {
    pub fn new(g: &Csr) -> Self {
        CpuReference {
            offsets: g.out_offsets().iter().map(|&o| o as usize).collect(),
            targets: g.out_targets().to_vec(),
            levels: vec![u32::MAX; g.vertex_count()],
            queue: Vec::with_capacity(g.vertex_count()),
        }
    }

    /// Level-synchronous FIFO BFS; returns the number of vertices reached.
    pub fn bfs(&mut self, source: VertexId) -> usize {
        self.levels.fill(u32::MAX);
        self.queue.clear();
        self.levels[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let next = self.levels[v as usize] + 1;
            for &w in &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]] {
                if self.levels[w as usize] == u32::MAX {
                    self.levels[w as usize] = next;
                    self.queue.push(w);
                }
            }
        }
        self.queue.len()
    }

    /// Host milliseconds of one BFS from each of `sources`.
    pub fn ms(&mut self, sources: &[VertexId]) -> f64 {
        let t0 = Instant::now();
        let mut reps = 0u32;
        loop {
            for &s in sources {
                std::hint::black_box(self.bfs(s));
            }
            reps += 1;
            if t0.elapsed().as_secs_f64() * 1e3 >= MIN_MS {
                break;
            }
        }
        t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_what_the_oracle_reaches() {
        let g = enterprise_graph::gen::rmat(9, 8, 3);
        let mut r = CpuReference::new(&g);
        for s in [0, 5, 77] {
            let oracle = enterprise::validate::cpu_levels(&g, s);
            assert_eq!(r.bfs(s), oracle.iter().filter(|l| l.is_some()).count());
            let levels: Vec<Option<u32>> =
                r.levels.iter().map(|&l| (l != u32::MAX).then_some(l)).collect();
            assert_eq!(levels, oracle);
        }
        assert!(r.ms(&[0]) > 0.0);
    }
}
