//! Baseline and comparator BFS implementations.
//!
//! * [`cpu_bfs`] — sequential oracle + multicore CPU BFS.
//! * [`beamer`] — CPU direction-optimizing BFS \[10\] with the α/β
//!   thresholds Enterprise's γ replaces.
//! * [`bl`] — the paper's baseline: direction-optimizing status-array
//!   BFS on the simulated GPU, CTA per vertex (§5.1).
//! * [`atomic_queue`] — atomicCAS/atomicAdd frontier queue (Fig. 1(b)).
//! * [`b40c_like`], [`gunrock_like`], [`mapgraph_like`],
//!   [`graphbig_like`] — algorithmic analogues of the Figure 14
//!   comparators (see each module and DESIGN.md §2 for what each
//!   encodes).

#![warn(missing_docs)]

pub mod atomic_queue;
pub mod b40c_like;
pub mod beamer;
pub mod bl;
pub mod common;
pub mod cpu_bfs;
pub mod graphbig_like;
pub mod gunrock_like;
pub mod mapgraph_like;

pub use atomic_queue::AtomicQueueBfs;
pub use b40c_like::B40cLikeBfs;
pub use beamer::{hybrid_bfs, BeamerResult};
pub use bl::StatusArrayBfs;
pub use common::BaselineResult;
pub use cpu_bfs::{parallel_levels, sequential_levels, traversed_edges};
pub use graphbig_like::GraphBigLikeBfs;
pub use gunrock_like::GunrockLikeBfs;
pub use mapgraph_like::MapGraphLikeBfs;
