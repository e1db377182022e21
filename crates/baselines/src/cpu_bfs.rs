//! CPU reference BFS: a sequential oracle and a multicore
//! level-synchronous implementation.
//!
//! The sequential version is the correctness oracle for everything in the
//! workspace; the parallel version exists both as a sanity benchmark and
//! as the kind of multicore baseline the direction-optimizing literature
//! \[10\] starts from.

use enterprise_graph::{Csr, VertexId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};

/// Level per vertex (`None` = unreachable) from a sequential BFS.
pub fn sequential_levels(g: &Csr, source: VertexId) -> Vec<Option<u32>> {
    let mut levels = vec![None; g.vertex_count()];
    let mut q = VecDeque::new();
    levels[source as usize] = Some(0);
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        let next = levels[v as usize].unwrap() + 1;
        for &w in g.out_neighbors(v) {
            if levels[w as usize].is_none() {
                levels[w as usize] = Some(next);
                q.push_back(w);
            }
        }
    }
    levels
}

/// Sequential BFS returning `(levels, parents)`.
pub fn sequential_tree(g: &Csr, source: VertexId) -> (Vec<Option<u32>>, Vec<Option<VertexId>>) {
    let mut levels = vec![None; g.vertex_count()];
    let mut parents = vec![None; g.vertex_count()];
    let mut q = VecDeque::new();
    levels[source as usize] = Some(0);
    parents[source as usize] = Some(source);
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        let next = levels[v as usize].unwrap() + 1;
        for &w in g.out_neighbors(v) {
            if levels[w as usize].is_none() {
                levels[w as usize] = Some(next);
                parents[w as usize] = Some(v);
                q.push_back(w);
            }
        }
    }
    (levels, parents)
}

/// Level-synchronous parallel BFS over a shared atomic level array.
///
/// Each level maps the current frontier in parallel; discoveries use a
/// `compare_exchange` on the level word so every vertex is claimed
/// exactly once. Produces the same levels as the sequential oracle.
pub fn parallel_levels(g: &Csr, source: VertexId) -> Vec<Option<u32>> {
    const UNSEEN: u32 = u32::MAX;
    let n = g.vertex_count();
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSEEN)).collect();
    levels[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![source];
    let mut depth = 0u32;
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    while !frontier.is_empty() {
        depth += 1;
        // Map the frontier in parallel shards; `compare_exchange` on the
        // level word claims each vertex exactly once, so shards can race.
        let expand = |part: &[VertexId]| -> Vec<VertexId> {
            part.iter()
                .flat_map(|&v| {
                    g.out_neighbors(v).iter().filter_map(|&w| {
                        levels[w as usize]
                            .compare_exchange(UNSEEN, depth, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                            .then_some(w)
                    })
                })
                .collect()
        };
        frontier = if workers < 2 || frontier.len() < 4096 {
            expand(&frontier)
        } else {
            let chunk = frontier.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    frontier.chunks(chunk).map(|part| scope.spawn(|| expand(part))).collect();
                let mut next = Vec::new();
                for h in handles {
                    next.extend(h.join().expect("BFS shard panicked"));
                }
                next
            })
        };
    }
    levels
        .into_iter()
        .map(|l| {
            let l = l.into_inner();
            (l != UNSEEN).then_some(l)
        })
        .collect()
}

/// Edges traversed by a search that reached `levels`-many vertices
/// (Graph 500 accounting, shared by every implementation's TEPS).
pub fn traversed_edges(g: &Csr, levels: &[Option<u32>]) -> u64 {
    g.vertices()
        .filter(|&v| levels[v as usize].is_some())
        .map(|v| g.out_degree(v) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enterprise_graph::gen::{kronecker, rmat};
    use enterprise_graph::GraphBuilder;

    #[test]
    fn sequential_on_cycle() {
        let mut b = GraphBuilder::new_directed(4);
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g = b.build();
        assert_eq!(sequential_levels(&g, 0), vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn parallel_matches_sequential_on_kronecker() {
        let g = kronecker(10, 8, 4);
        for src in [0u32, 99, 500] {
            assert_eq!(parallel_levels(&g, src), sequential_levels(&g, src), "src {src}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_directed() {
        let g = rmat(9, 8, 6);
        assert_eq!(parallel_levels(&g, 17), sequential_levels(&g, 17));
    }

    #[test]
    fn tree_parents_are_consistent() {
        let g = kronecker(8, 6, 8);
        let (levels, parents) = sequential_tree(&g, 0);
        for v in g.vertices() {
            if let Some(l) = levels[v as usize] {
                if v != 0 {
                    let p = parents[v as usize].expect("visited vertex has a parent");
                    assert_eq!(levels[p as usize], Some(l - 1));
                }
            }
        }
    }

    #[test]
    fn traversed_edges_counts_visited_out_degrees() {
        let mut b = GraphBuilder::new_directed(3);
        b.extend_edges([(0, 1), (1, 0), (2, 0)]);
        let g = b.build();
        let levels = sequential_levels(&g, 0);
        // Vertices 0 and 1 visited; vertex 2 not. Edges = deg(0)+deg(1).
        assert_eq!(traversed_edges(&g, &levels), 2);
    }
}
