//! Figure 15 regenerator: multi-GPU scalability.
//!
//! * Strong scaling: the largest catalogue graph (KR4) on 1/2/4/8 GPUs
//!   (paper: 43% / 71% / 75% speedup over one GPU on 2/4/8).
//! * Weak scaling, edge scale: edgefactor grows with the GPU count at a
//!   fixed vertex count (paper: superlinear, 9.1x at 8 GPUs — the hub
//!   cache catches more of the denser graph).
//! * Weak scaling, vertex scale: vertex count grows with the GPU count
//!   at a fixed edgefactor (paper: sublinear).
//!
//! The 1-GPU baseline is the one-slice fleet, which is the single-GPU
//! `Enterprise` itself, so every speedup is over the single-GPU system.
//!
//! `cargo run -p bench --bin fig15 --release`

use bench::{aggregate_teps, fmt_teps, pick_sources, run_seed, Table};
use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise_graph::gen::kronecker;
use enterprise_graph::Csr;

fn run(g: &Csr, gpus: usize, seed: u64, sources_n: usize) -> f64 {
    let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), g);
    let sources = pick_sources(g, sources_n, seed ^ 0x15);
    let runs: Vec<(u64, f64)> =
        sources.iter().map(|&s| { let r = sys.bfs(s); (r.traversed_edges, r.time_ms) }).collect();
    aggregate_teps(&runs)
}

fn main() {
    let seed = run_seed();
    let sources_n = bench::env_parse("ENTERPRISE_SOURCES", 3usize);
    let gpu_counts = [1usize, 2, 4, 8];

    // Strong scaling on KR4 (the largest Table 1 graph).
    let kr4 = enterprise_graph::datasets::Dataset::Kron24_32.build(seed);
    let mut t = Table::new(vec!["GPUs", "strong TEPS", "speedup", "weak-edge TEPS", "speedup", "weak-vertex TEPS", "speedup"]);
    let strong: Vec<f64> = gpu_counts.iter().map(|&p| run(&kr4, p, seed, sources_n)).collect();

    // Weak scaling bases: scale 14, edgefactor 32.
    let (base_scale, base_ef) = (14u32, 32u32);
    let weak_edge: Vec<f64> = gpu_counts
        .iter()
        .map(|&p| {
            let g = kronecker(base_scale, base_ef * p as u32, seed ^ p as u64);
            run(&g, p, seed, sources_n)
        })
        .collect();
    let weak_vertex: Vec<f64> = gpu_counts
        .iter()
        .map(|&p| {
            let g = kronecker(base_scale + (p as u32).trailing_zeros(), base_ef, seed ^ (p as u64) << 8);
            run(&g, p, seed, sources_n)
        })
        .collect();

    for (i, &p) in gpu_counts.iter().enumerate() {
        t.row(vec![
            p.to_string(),
            fmt_teps(strong[i]),
            format!("{:.2}x", strong[i] / strong[0]),
            fmt_teps(weak_edge[i]),
            format!("{:.2}x", weak_edge[i] / weak_edge[0]),
            fmt_teps(weak_vertex[i]),
            format!("{:.2}x", weak_vertex[i] / weak_vertex[0]),
        ]);
    }
    println!("Figure 15: strong and weak scalability ({sources_n} sources/point)");
    println!("{}", t.render());
    println!("paper: strong 1.43x/1.71x/1.75x at 2/4/8 GPUs; weak-edge superlinear (9.1x at 8); weak-vertex sublinear");
}
