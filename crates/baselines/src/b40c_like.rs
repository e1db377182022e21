//! B40C analogue (Merrill et al. \[33\]).
//!
//! B40C was the strongest queue-based *top-down* GPU BFS of its era:
//! atomic-free scan-based queue generation and multi-granularity
//! gathering — structurally the same machinery as Enterprise's TS+WB,
//! minus the direction optimization and the hub cache. We therefore model
//! it as Enterprise with `TopDownOnly` policy: on power-law graphs it
//! pays the full edge-inspection bill (Enterprise wins ~4x, Figure 14);
//! on high-diameter graphs the two are nearly identical, also as in
//! Figure 14.
//!
//! (B40C's warp-culling duplicate filter is *not* modeled; the paper
//! notes it "could not completely avoid duplicated vertices", and the
//! status-array write-once check subsumes its effect here.)

use crate::common::BaselineResult;
use enterprise::{DirectionPolicy, Enterprise, EnterpriseConfig};
use enterprise_graph::{Csr, VertexId};
use gpu_sim::DeviceConfig;

/// The B40C-style system.
pub struct B40cLikeBfs {
    inner: Enterprise,
}

impl B40cLikeBfs {
    /// Uploads `csr` onto a fresh simulated device.
    pub fn new(config: DeviceConfig, csr: &Csr) -> Self {
        let cfg = EnterpriseConfig {
            device: config,
            policy: DirectionPolicy::TopDownOnly,
            hub_cache: false,
            ..Default::default()
        };
        Self { inner: Enterprise::new(cfg, csr) }
    }

    /// Aggregate counter report for the last run.
    pub fn report(&self) -> gpu_sim::DeviceReport {
        self.inner.device().report()
    }

    /// Runs one top-down scan-queue BFS.
    pub fn bfs(&mut self, source: VertexId) -> BaselineResult {
        let r = self.inner.bfs(source);
        BaselineResult {
            source,
            visited: r.visited,
            traversed_edges: r.traversed_edges,
            time_ms: r.time_ms,
            teps: r.teps,
            depth: r.depth,
            levels: r.levels,
            parents: r.parents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_bfs::sequential_levels;
    use enterprise_graph::gen::{kronecker, road_grid};

    #[test]
    fn b40c_like_matches_oracle() {
        let g = kronecker(9, 8, 9);
        let mut b = B40cLikeBfs::new(DeviceConfig::k40(), &g);
        let r = b.bfs(0);
        assert_eq!(r.levels, sequential_levels(&g, 0));
    }

    #[test]
    fn b40c_like_works_on_high_diameter() {
        let g = road_grid(25, 25, 0.05, 3);
        let mut b = B40cLikeBfs::new(DeviceConfig::k40(), &g);
        let r = b.bfs(0);
        assert_eq!(r.levels, sequential_levels(&g, 0));
        assert!(r.depth > 20);
    }
}
