//! CSR graph resident in device global memory.
//!
//! §5: "All the data is ... loaded into GPU's global memory. The timing
//! starts when the search key is given to the GPU kernel" — so the upload
//! happens once, outside the timed region.

use enterprise_graph::Csr;
use gpu_sim::{BufferId, Device, DeviceError};

/// Device-resident CSR: out-adjacency for top-down expansion and
/// in-adjacency for bottom-up inspection (aliased for undirected graphs).
#[derive(Clone, Copy, Debug)]
pub struct DeviceGraph {
    /// Vertex count of the (full) graph.
    pub vertex_count: usize,
    /// Directed edge count of the (full) graph.
    pub edge_count: u64,
    /// Whether the graph is directed.
    pub directed: bool,
    /// `n + 1` offsets into `out_targets`.
    pub out_offsets: BufferId,
    /// `m` edge targets.
    pub out_targets: BufferId,
    /// `n + 1` offsets into `in_sources`.
    pub in_offsets: BufferId,
    /// `m` edge sources.
    pub in_sources: BufferId,
}

impl DeviceGraph {
    /// Uploads `g` to `device`. Offsets are stored as `u32`, which bounds
    /// graphs to 2^32 - 1 directed edges (ample at reproduction scale).
    ///
    /// # Panics
    /// Panics if the graph exceeds the `u32` offset range or the device
    /// is out of memory; see [`DeviceGraph::try_upload`].
    pub fn upload(device: &mut Device, g: &Csr) -> Self {
        Self::try_upload(device, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DeviceGraph::upload`]: device OOM and
    /// injected allocation faults surface as [`DeviceError`], letting the
    /// driver degrade to a CPU traversal instead of aborting.
    ///
    /// # Panics
    /// Panics if the graph exceeds the `u32` offset range (a size
    /// precondition, not a device condition).
    pub fn try_upload(device: &mut Device, g: &Csr) -> Result<Self, DeviceError> {
        assert!(
            g.edge_count() < u32::MAX as u64,
            "graph too large for u32 device offsets: {} edges",
            g.edge_count()
        );
        let n = g.vertex_count();
        let to_u32 = |xs: &[u64]| xs.iter().map(|&x| x as u32).collect::<Vec<u32>>();

        let out_offsets = device.try_alloc("out_offsets", n + 1)?;
        device.try_upload(out_offsets, &to_u32(g.out_offsets()))?;
        let out_targets = device.try_alloc("out_targets", g.out_targets().len())?;
        device.try_upload(out_targets, g.out_targets())?;

        let (in_offsets, in_sources) = if g.is_directed() {
            let io = device.try_alloc("in_offsets", n + 1)?;
            device.try_upload(io, &to_u32(g.in_offsets()))?;
            let is = device.try_alloc("in_sources", g.in_sources().len())?;
            device.try_upload(is, g.in_sources())?;
            (io, is)
        } else {
            // Undirected: the in-view is the out-view; share the buffers.
            (out_offsets, out_targets)
        };

        Ok(Self {
            vertex_count: n,
            edge_count: g.edge_count(),
            directed: g.is_directed(),
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        })
    }
}

impl DeviceGraph {
    /// Uploads pre-built CSR arrays (used by the fleet partitioner, whose
    /// per-device out- and in-views cover different edge subsets). OOM
    /// and injected allocation faults surface as [`DeviceError`]: the
    /// repartitioner re-uploads a lost device's CSR slice onto a survivor
    /// mid-run and must respect fault injection.
    #[allow(clippy::too_many_arguments)]
    pub fn try_upload_parts(
        device: &mut Device,
        vertex_count: usize,
        edge_count: u64,
        directed: bool,
        out_offsets: &[u32],
        out_targets: &[u32],
        in_offsets: &[u32],
        in_sources: &[u32],
    ) -> Result<Self, DeviceError> {
        assert_eq!(out_offsets.len(), vertex_count + 1);
        assert_eq!(in_offsets.len(), vertex_count + 1);
        let oo = device.try_alloc("out_offsets", out_offsets.len())?;
        device.try_upload(oo, out_offsets)?;
        let ot = device.try_alloc("out_targets", out_targets.len())?;
        device.try_upload(ot, out_targets)?;
        let io = device.try_alloc("in_offsets", in_offsets.len())?;
        device.try_upload(io, in_offsets)?;
        let is = device.try_alloc("in_sources", in_sources.len())?;
        device.try_upload(is, in_sources)?;
        Ok(Self {
            vertex_count,
            edge_count,
            directed,
            out_offsets: oo,
            out_targets: ot,
            in_offsets: io,
            in_sources: is,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enterprise_graph::GraphBuilder;
    use gpu_sim::DeviceConfig;

    #[test]
    fn directed_upload_has_distinct_in_view() {
        let mut b = GraphBuilder::new_directed(3);
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        let g = b.build();
        let mut d = Device::new(DeviceConfig::k40());
        let dg = DeviceGraph::upload(&mut d, &g);
        assert_ne!(dg.out_offsets, dg.in_offsets);
        assert_eq!(d.mem_ref().view(dg.out_targets), &[1, 2, 0]);
        assert_eq!(d.mem_ref().view(dg.in_sources), &[2, 0, 1]);
    }

    #[test]
    fn undirected_upload_aliases_buffers() {
        let mut b = GraphBuilder::new_undirected(3);
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let mut d = Device::new(DeviceConfig::k40());
        let dg = DeviceGraph::upload(&mut d, &g);
        assert_eq!(dg.out_offsets, dg.in_offsets);
        assert_eq!(dg.out_targets, dg.in_sources);
        assert_eq!(dg.edge_count, 4);
    }
}
