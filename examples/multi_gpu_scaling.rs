//! Multi-GPU Enterprise (§4.4): 1-D partitioned BFS with
//! ballot-compressed status exchange, scaled across 1-8 simulated K40s.
//!
//! ```text
//! cargo run --release --example multi_gpu_scaling
//! ```

use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise::validate::cpu_levels;
use enterprise_graph::gen::kronecker;

fn main() {
    let graph = kronecker(18, 16, 99);
    println!(
        "graph: {} vertices, {} directed edges",
        graph.vertex_count(),
        graph.edge_count()
    );
    let source = (0..graph.vertex_count() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap();
    let oracle = cpu_levels(&graph, source);

    let mut base_time = 0.0;
    println!("\n{:>5} {:>12} {:>9} {:>14} {:>12}", "GPUs", "time (ms)", "speedup", "comm (KB)", "TEPS");
    for gpus in [1usize, 2, 4, 8] {
        let mut system = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), &graph);
        let result = system.bfs(source);
        assert_eq!(result.levels, oracle, "partitioned traversal must match the oracle");
        // The one-slice fleet is the single-GPU Enterprise: the baseline.
        if gpus == 1 {
            base_time = result.time_ms;
        }
        println!(
            "{gpus:>5} {:>12.3} {:>8.2}x {:>14.1} {:>9.2} G",
            result.time_ms,
            base_time / result.time_ms,
            result.communication_bytes as f64 / 1024.0,
            result.teps / 1e9,
        );
    }
    println!("\n(the paper's Fig. 15: 1.43x / 1.71x / 1.75x on 2 / 4 / 8 GPUs — BFS");
    println!(" communication quickly bounds strong scaling)");
}
