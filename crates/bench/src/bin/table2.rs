//! Table 2 regenerator: CPU (Xeon E7-4860) vs GPU (K40) memory hierarchy
//! and where each BFS data structure lives.
//!
//! `cargo run -p bench --bin table2 --release`

use bench::Table;
use gpu_sim::device::{
    xeon_e7_4860_rows, GLOBAL_LATENCY_CYCLES, L2_LATENCY_CYCLES, SHARED_LATENCY_CYCLES,
};
use gpu_sim::DeviceConfig;

fn main() {
    let k40 = DeviceConfig::k40();
    let cpu = xeon_e7_4860_rows();
    let mut t = Table::new(vec![
        "Memory", "CPU Size", "CPU Lat", "GPU Size", "GPU Lat", "BFS Data Structures",
    ]);
    let gpu_rows: Vec<(&str, String, String, &str)> = vec![
        (
            "Register",
            format!("{}/SMX", 65_536),
            "-".into(),
            "Status Array (working set)",
        ),
        (
            "L1/shared",
            format!("{}KB", k40.shared_mem_per_smx / 1024),
            format!("~{:.0}", SHARED_LATENCY_CYCLES),
            "Hub Cache",
        ),
        (
            "L2 cache",
            format!("{:.1}MB", k40.l2_bytes as f64 / (1024.0 * 1024.0)),
            format!("~{:.0}", L2_LATENCY_CYCLES),
            "-",
        ),
        ("L3 cache", "-".into(), "-".into(), "-"),
        (
            "DRAM",
            format!("{}GB", k40.global_mem_bytes >> 30),
            format!("{:.0}", GLOBAL_LATENCY_CYCLES),
            "Status Array, Frontier Queue, Adjacency List",
        ),
    ];
    for (cpu_row, (level, size, lat, ds)) in cpu.iter().zip(gpu_rows) {
        t.row(vec![
            level.to_string(),
            cpu_row.size.to_string(),
            cpu_row.latency_cycles.to_string(),
            size,
            lat,
            ds.to_string(),
        ]);
    }
    println!("Table 2: CPU (Xeon E7-4860) vs GPU (K40) memory hierarchy");
    println!("{}", t.render());
    println!(
        "K40 preset: {} SMX x {} cores, {:.0} GB/s DRAM, clock {:.0} MHz, Hyper-Q: {}",
        k40.smx_count, k40.cores_per_smx, k40.dram_bandwidth_gbs, k40.clock_mhz, k40.hyper_q
    );
}
