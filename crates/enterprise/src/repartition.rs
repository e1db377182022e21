//! Live repartitioning after permanent device loss.
//!
//! The last rung of the recovery ladder before the CPU fallback: when a
//! device is permanently lost mid-traversal (injected via
//! [`gpu_sim::FaultSpec::device_loss_rate`] or a watchdog-classified
//! kernel deadline on a dead device), the fleet driver splices its
//! partition onto the survivors and resumes from the current level's
//! checkpoint on them. The driver's loss rule only plans the survivors'
//! new extents: one neighbour's merged range, or equal strips when no
//! single merge applies or several devices are dead at once. It then
//! builds every new partition view with the builders below, and commits
//! only when all of them have been uploaded and placed: a failed build
//! evicts nothing and changes no partition, so every vertex keeps an
//! owner. Straggler rebalances commit their new strips the same way.
//!
//! The splice is exact because of two invariants the drivers maintain:
//!
//! 1. At the top of every level (checkpoint time) each device's status
//!    array equals the *merged global view* — the per-level bitmap
//!    exchange unions every discovery into every private status array.
//!    The recipient therefore already knows everything the lost device
//!    knew about levels.
//! 2. Parents are private to the discovering device, but the per-level
//!    checkpoint holds a host-side copy of every device's parent array,
//!    so the lost device's discoveries are recovered from its image
//!    and merged into the recipient ([`merge_parents`]).
//!
//! Frontier queues are rebuilt host-side from the checkpointed status
//! array ([`rebuild_queues`]): a top-down queue is exactly the vertices
//! of the scan range at the current level, a bottom-up queue exactly the
//! unvisited vertices of the range — both in ascending order, classified
//! by the *new* partition view's degrees, matching what the generation
//! kernels would have produced had the merged device existed all along.
//! The driver installs them as one device image with an empty hub table,
//! as a freshly placed state holds.

use crate::classify::ClassifyThresholds;
use crate::kernels::Direction;
use crate::status::{NO_PARENT, UNVISITED};
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{ballot_compressed_bytes, InterconnectConfig};
use std::ops::Range;

/// Host-built per-device CSR view, ready for upload. All offset arrays
/// span the full vertex range (`n + 1` entries); edges appear only for
/// the vertices the partition covers, so a device's partition-view
/// degree (`offsets[v+1] - offsets[v]`) is zero outside it.
pub(crate) struct PartitionArrays {
    /// `n + 1` out-offsets.
    pub(crate) out_offsets: Vec<u32>,
    /// Out-edge targets of covered sources.
    pub(crate) out_targets: Vec<u32>,
    /// `n + 1` in-offsets.
    pub(crate) in_offsets: Vec<u32>,
    /// In-edge sources of covered targets.
    pub(crate) in_sources: Vec<u32>,
}

impl PartitionArrays {
    /// Words that moving this view over the interconnect would copy
    /// (edge arrays plus both offset arrays).
    pub(crate) fn moved_words(&self) -> u64 {
        (self.out_offsets.len()
            + self.out_targets.len()
            + self.in_offsets.len()
            + self.in_sources.len()) as u64
    }
}

/// 1-D partition view (§4.4): out-adjacency for owned sources (targets
/// unrestricted), in-adjacency for owned targets (sources unrestricted).
pub(crate) fn build_1d(csr: &Csr, owned: &Range<usize>) -> PartitionArrays {
    let n = csr.vertex_count();
    let mut out_offsets = Vec::with_capacity(n + 1);
    let mut out_targets = Vec::new();
    out_offsets.push(0u32);
    for v in 0..n {
        if owned.contains(&v) {
            out_targets.extend_from_slice(csr.out_neighbors(v as VertexId));
        }
        out_offsets.push(out_targets.len() as u32);
    }
    let mut in_offsets = Vec::with_capacity(n + 1);
    let mut in_sources = Vec::new();
    in_offsets.push(0u32);
    for v in 0..n {
        if owned.contains(&v) {
            in_sources.extend_from_slice(csr.in_neighbors(v as VertexId));
        }
        in_offsets.push(in_sources.len() as u32);
    }
    PartitionArrays { out_offsets, out_targets, in_offsets, in_sources }
}

/// Interconnect words for shipping the CSR delta of `gained` vertices to
/// a new owner: both adjacency lists plus *compacted* offsets for the
/// gained range only (unlike [`PartitionArrays::moved_words`], which
/// prices a full partition view with its `n + 1` offset arrays — correct
/// for an eviction splice that replaces the whole view, a large
/// overcharge for a boundary shift that moves a narrow band).
pub(crate) fn delta_words(csr: &Csr, gained: &Range<usize>) -> u64 {
    let mut edges = 0usize;
    for v in gained.clone() {
        edges += csr.out_neighbors(v as VertexId).len() + csr.in_neighbors(v as VertexId).len();
    }
    (edges + 2 * (gained.len() + 1)) as u64
}

/// 2-D adjacency-matrix block: out-edges of column-block sources
/// restricted to row-block targets, plus the transposed in-view.
pub(crate) fn build_2d(csr: &Csr, rows: &Range<usize>, cols: &Range<usize>) -> PartitionArrays {
    let n = csr.vertex_count();
    let mut out_offsets = Vec::with_capacity(n + 1);
    let mut out_targets: Vec<u32> = Vec::new();
    out_offsets.push(0u32);
    for u in 0..n {
        if cols.contains(&u) {
            out_targets.extend(
                csr.out_neighbors(u as VertexId).iter().filter(|&&v| rows.contains(&(v as usize))),
            );
        }
        out_offsets.push(out_targets.len() as u32);
    }
    let mut in_offsets = Vec::with_capacity(n + 1);
    let mut in_sources: Vec<u32> = Vec::new();
    in_offsets.push(0u32);
    for v in 0..n {
        if rows.contains(&v) {
            in_sources.extend(
                csr.in_neighbors(v as VertexId).iter().filter(|&&u| cols.contains(&(u as usize))),
            );
        }
        in_offsets.push(in_sources.len() as u32);
    }
    PartitionArrays { out_offsets, out_targets, in_offsets, in_sources }
}

/// Rebuilds the four class queues a merged device needs at the top of
/// `level`, from the checkpointed (merged-global-view) status array, each
/// in ascending vertex order.
///
/// * Top-down: the frontier is `{v in td_range : status[v] == level}`,
///   classified by the new view's *out*-degree (what expansion walks).
/// * Bottom-up: the queue is `{v in bu_range : status[v] == UNVISITED}`,
///   classified by the new view's *in*-degree (what inspection walks) —
///   the same rule the direction-switch scan applies, which the filter
///   workflow then preserves.
pub(crate) fn rebuild_queues(
    status: &[u32],
    dir: Direction,
    level: u32,
    td_range: &Range<usize>,
    bu_range: &Range<usize>,
    view: &PartitionArrays,
    thresholds: &ClassifyThresholds,
) -> [Vec<u32>; 4] {
    let (range, match_status, class_offsets) = match dir {
        Direction::TopDown => (td_range, level, &view.out_offsets),
        Direction::BottomUp => (bu_range, UNVISITED, &view.in_offsets),
    };
    let mut queues: [Vec<u32>; 4] = Default::default();
    for v in range.clone() {
        if status[v] == match_status {
            let deg = class_offsets[v + 1] - class_offsets[v];
            queues[thresholds.classify(deg).index()].push(v as u32);
        }
    }
    queues
}

/// Merges the lost device's checkpointed parents into the recipient's:
/// a vertex the recipient never discovered takes the lost device's
/// recorded parent (written at the correct preceding level, so still a
/// valid BFS parent in the merged view).
pub(crate) fn merge_parents(dst: &mut [u32], src: &[u32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        if *d == NO_PARENT && s != NO_PARENT {
            *d = s;
        }
    }
}

/// Simulated cost of one repartition: the interconnect moves the lost
/// slice's CSR view to the recipient plus one status bitmap, paying one
/// transfer latency. Charged to every surviving timeline.
pub(crate) fn repartition_cost_ms(
    interconnect: &InterconnectConfig,
    moved_words: u64,
    vertex_count: usize,
) -> f64 {
    let bw_bytes_per_ms = interconnect.bandwidth_gbs * 1e9 / 1e3;
    let bytes = 4 * moved_words + ballot_compressed_bytes(vertex_count);
    interconnect.latency_us / 1e3 + bytes as f64 / bw_bytes_per_ms
}

/// Whether two ranges touch end-to-start (their union is contiguous).
pub(crate) fn adjacent(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.end == b.start || b.end == a.start
}

/// Contiguous union of two adjacent ranges.
pub(crate) fn union_range(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    debug_assert!(adjacent(a, b));
    a.start.min(b.start)..a.end.max(b.end)
}

/// Picks the survivor that absorbs a lost 1-D slice: the alive device
/// whose owned range is adjacent to the lost range (the union must stay
/// contiguous). `alive` holds `(device_index, owned_range)` pairs.
pub(crate) fn choose_recipient_1d(
    alive: &[(usize, Range<usize>)],
    lost: &Range<usize>,
) -> Option<usize> {
    alive
        .iter()
        .find(|(_, owned)| owned.end == lost.start)
        .or_else(|| alive.iter().find(|(_, owned)| owned.start == lost.end))
        .map(|(d, _)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enterprise_graph::GraphBuilder;

    fn line_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new_directed(n);
        for v in 0..n - 1 {
            b.add_edge(v as u32, v as u32 + 1);
        }
        b.build()
    }

    #[test]
    fn build_1d_covers_owned_degrees_only() {
        let g = line_graph(8);
        let p = build_1d(&g, &(2..5));
        for v in 0..8 {
            let out = p.out_offsets[v + 1] - p.out_offsets[v];
            let expect = if (2..5).contains(&v) { g.out_degree(v as u32) } else { 0 };
            assert_eq!(out, expect, "vertex {v}");
        }
        // In-view covers owned targets: vertices 2..5 each have one
        // in-edge from v-1.
        for v in 0..8 {
            let inn = p.in_offsets[v + 1] - p.in_offsets[v];
            let expect = if (2..5).contains(&v) { g.in_degree(v as u32) } else { 0 };
            assert_eq!(inn, expect, "vertex {v}");
        }
    }

    #[test]
    fn build_2d_restricts_both_sides() {
        let g = line_graph(8);
        // Block: sources 0..4, targets 4..8 — only edge 3 -> 4 crosses.
        let p = build_2d(&g, &(4..8), &(0..4));
        assert_eq!(p.out_targets, vec![4]);
        assert_eq!(p.in_sources, vec![3]);
        // Merging two horizontally adjacent blocks equals the wider one.
        let left = build_2d(&g, &(0..8), &(0..4));
        let right = build_2d(&g, &(0..8), &(4..8));
        let merged = build_2d(&g, &(0..8), &(0..8));
        assert_eq!(
            left.out_targets.len() + right.out_targets.len(),
            merged.out_targets.len()
        );
    }

    #[test]
    fn merged_1d_view_is_the_sum_of_its_parts() {
        let g = enterprise_graph::gen::kronecker(7, 8, 3);
        let a = build_1d(&g, &(0..40));
        let b = build_1d(&g, &(40..g.vertex_count()));
        let m = build_1d(&g, &(0..g.vertex_count()));
        assert_eq!(a.out_targets.len() + b.out_targets.len(), m.out_targets.len());
        assert_eq!(a.in_sources.len() + b.in_sources.len(), m.in_sources.len());
    }

    #[test]
    fn rebuild_topdown_matches_level_and_classifies_by_out_degree() {
        let g = line_graph(6);
        let p = build_1d(&g, &(0..6));
        // status: 0 at level 0, 1..=2 at level 1, rest unvisited.
        let status = [0, 1, 1, UNVISITED, UNVISITED, UNVISITED];
        let thresholds = ClassifyThresholds::default();
        let r = rebuild_queues(&status, Direction::TopDown, 1, &(0..6), &(0..6), &p, &thresholds);
        // Line graph: out-degree 1 -> Small class, ascending order.
        assert_eq!(r, [vec![1, 2], vec![], vec![], vec![]]);
    }

    #[test]
    fn rebuild_bottomup_collects_unvisited_in_range() {
        let g = line_graph(6);
        let p = build_1d(&g, &(0..6));
        let status = [0, 1, UNVISITED, UNVISITED, 2, UNVISITED];
        let thresholds = ClassifyThresholds::default();
        let r = rebuild_queues(&status, Direction::BottomUp, 2, &(0..6), &(1..6), &p, &thresholds);
        assert_eq!(r[0], vec![2, 3, 5]);
    }

    #[test]
    fn merge_parents_fills_only_gaps() {
        let mut dst = vec![NO_PARENT, 7, NO_PARENT];
        merge_parents(&mut dst, &[3, 9, NO_PARENT]);
        assert_eq!(dst, vec![3, 7, NO_PARENT]);
    }

    #[test]
    fn cost_is_positive_and_monotonic_in_moved_words() {
        let ic = InterconnectConfig::default();
        let small = repartition_cost_ms(&ic, 1_000, 1 << 10);
        let large = repartition_cost_ms(&ic, 1_000_000, 1 << 10);
        assert!(small > 0.0 && large > small);
    }

    #[test]
    fn recipient_prefers_left_neighbor() {
        let alive = vec![(0usize, 0..10), (2usize, 20..30)];
        assert_eq!(choose_recipient_1d(&alive, &(10..20)), Some(0));
        assert_eq!(choose_recipient_1d(&alive, &(30..40)), Some(2));
        assert_eq!(choose_recipient_1d(&alive, &(50..60)), None);
        assert_eq!(union_range(&(10..20), &(0..10)), 0..20);
        assert!(adjacent(&(0..10), &(10..20)) && !adjacent(&(0..10), &(11..20)));
    }
}
