//! CPU direction-optimizing BFS (Beamer, Asanović & Patterson \[10\]).
//!
//! The hybrid algorithm Enterprise builds on: top-down until
//! `m_u / m_f > α`, bottom-up until the frontier shrinks below `n / β`,
//! then top-down again for the tail. Per-level statistics (m_f, m_u,
//! frontier size, direction) feed the Figure 10 comparison of α against
//! Enterprise's γ.

use enterprise_graph::{Csr, VertexId};

/// Per-level trace entry.
#[derive(Clone, Copy, Debug)]
pub struct BeamerLevel {
    /// Level index.
    pub level: u32,
    /// Direction chosen for this level.
    pub direction: BeamerDirection,
    /// Vertices in the frontier entering this level.
    pub frontier: usize,
    /// Edges incident to the frontier (`m_f`).
    pub frontier_edges: u64,
    /// Edges incident to unexplored vertices (`m_u`).
    pub unexplored_edges: u64,
    /// Edges actually inspected at this level.
    pub inspected_edges: u64,
}

/// Traversal direction of one hybrid-BFS level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BeamerDirection {
    TopDown,
    BottomUp,
}

impl BeamerLevel {
    /// Beamer's α at this level.
    pub fn alpha(&self) -> f64 {
        if self.frontier_edges == 0 {
            f64::INFINITY
        } else {
            self.unexplored_edges as f64 / self.frontier_edges as f64
        }
    }
}

/// Result of a hybrid CPU BFS.
#[derive(Clone, Debug)]
pub struct BeamerResult {
    /// Per-vertex level (`None` = unreachable).
    pub levels: Vec<Option<u32>>,
    /// Reachable vertex count.
    pub visited: usize,
    /// Total edges inspected (the work the hybrid saves vs pure
    /// top-down, which inspects every edge of the component).
    pub inspected_edges: u64,
    /// Per-level trace (direction, m_f, m_u, inspections).
    pub trace: Vec<BeamerLevel>,
}

/// Runs direction-optimizing BFS with thresholds `alpha`, `beta`.
pub fn hybrid_bfs(g: &Csr, source: VertexId, alpha: f64, beta: f64) -> BeamerResult {
    let n = g.vertex_count();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    levels[source as usize] = Some(0);
    let mut frontier: Vec<VertexId> = vec![source];
    let mut depth = 0u32;
    let mut unexplored: u64 =
        g.edge_count() - g.out_degree(source) as u64;
    let mut trace = Vec::new();
    let mut total_inspected = 0u64;
    let mut dir = BeamerDirection::TopDown;
    let mut prev_m_f = 0u64;

    while !frontier.is_empty() {
        let m_f: u64 = frontier.iter().map(|&v| g.out_degree(v) as u64).sum();
        // Direction decision for this level.
        dir = match dir {
            BeamerDirection::TopDown => {
                // Switch when the frontier's edge share grows past the
                // threshold (m_f > m_u / alpha) *while the frontier is
                // still growing* — Beamer's published condition; without
                // the growth check the heuristic would fire on the
                // shrinking tail of high-diameter graphs.
                if m_f > 0
                    && (unexplored as f64) < alpha * m_f as f64
                    && m_f > prev_m_f
                    && frontier.len() > 1
                {
                    BeamerDirection::BottomUp
                } else {
                    BeamerDirection::TopDown
                }
            }
            BeamerDirection::BottomUp => {
                if (frontier.len() as f64) < n as f64 / beta {
                    BeamerDirection::TopDown
                } else {
                    BeamerDirection::BottomUp
                }
            }
        };

        let mut inspected = 0u64;
        let next: Vec<VertexId> = match dir {
            BeamerDirection::TopDown => {
                let mut next = Vec::new();
                for &v in &frontier {
                    for &w in g.out_neighbors(v) {
                        inspected += 1;
                        if levels[w as usize].is_none() {
                            levels[w as usize] = Some(depth + 1);
                            next.push(w);
                        }
                    }
                }
                next
            }
            BeamerDirection::BottomUp => {
                let mut next = Vec::new();
                for v in g.vertices() {
                    if levels[v as usize].is_some() {
                        continue;
                    }
                    for &u in g.in_neighbors(v) {
                        inspected += 1;
                        if levels[u as usize] == Some(depth) {
                            levels[v as usize] = Some(depth + 1);
                            next.push(v);
                            break; // the bottom-up early exit
                        }
                    }
                }
                next
            }
        };

        trace.push(BeamerLevel {
            level: depth,
            direction: dir,
            frontier: frontier.len(),
            frontier_edges: m_f,
            unexplored_edges: unexplored,
            inspected_edges: inspected,
        });
        total_inspected += inspected;
        unexplored =
            unexplored.saturating_sub(next.iter().map(|&v| g.out_degree(v) as u64).sum::<u64>());
        prev_m_f = m_f;
        frontier = next;
        depth += 1;
    }

    let visited = levels.iter().filter(|l| l.is_some()).count();
    BeamerResult { levels, visited, inspected_edges: total_inspected, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_bfs::sequential_levels;
    use enterprise_graph::gen::{kronecker, road_grid};

    #[test]
    fn hybrid_matches_oracle_levels() {
        let g = kronecker(10, 16, 2);
        for src in [0u32, 7, 333] {
            let r = hybrid_bfs(&g, src, 14.0, 24.0);
            assert_eq!(r.levels, sequential_levels(&g, src), "src {src}");
        }
    }

    #[test]
    fn hybrid_switches_on_power_law() {
        let g = kronecker(11, 16, 3);
        let r = hybrid_bfs(&g, 0, 14.0, 24.0);
        assert!(
            r.trace.iter().any(|l| l.direction == BeamerDirection::BottomUp),
            "Kronecker graphs trigger Beamer's switch"
        );
    }

    #[test]
    fn hybrid_inspects_fewer_edges_than_topdown() {
        let g = kronecker(11, 16, 3);
        let hybrid = hybrid_bfs(&g, 0, 14.0, 24.0);
        // alpha = 0 never satisfies m_u/m_f < alpha: pure top-down,
        // inspecting every out-edge of the component once.
        let pure = hybrid_bfs(&g, 0, 0.0, 24.0);
        assert!(pure.trace.iter().all(|l| l.direction == BeamerDirection::TopDown));
        assert!(
            hybrid.inspected_edges < pure.inspected_edges / 2,
            "direction optimization should skip most edge checks: {} vs {}",
            hybrid.inspected_edges,
            pure.inspected_edges
        );
    }

    #[test]
    fn road_network_stays_top_down() {
        let g = road_grid(30, 30, 0.0, 1);
        let r = hybrid_bfs(&g, 0, 14.0, 24.0);
        assert!(r.trace.iter().all(|l| l.direction == BeamerDirection::TopDown));
        assert_eq!(r.levels, sequential_levels(&g, 0));
    }

    #[test]
    fn alpha_trace_is_finite_on_nonempty_frontiers() {
        let g = kronecker(9, 8, 5);
        let r = hybrid_bfs(&g, 0, 14.0, 24.0);
        for l in &r.trace {
            assert!(l.alpha() >= 0.0);
        }
    }
}
