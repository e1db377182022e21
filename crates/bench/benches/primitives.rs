//! Microbenches for the substrate hot paths (host wall time of the
//! library itself, complementing the simulated-time figure regenerators).
//!
//! Plain harness (`harness = false`): run with `cargo bench --bench
//! primitives`. The workspace builds offline, so there is no Criterion;
//! each bench prints mean wall time per call and a derived throughput.
//! The `warp_access/*` rows print host nanoseconds per warp access of one
//! shape (a contiguous load issued per lane and as a span, a 32-block
//! gather, a 32-way bank-conflicted shared load) and per L2 probe.

use bench::{fmt_teps, time_ms, Table};
use enterprise_graph::gen::{kronecker, rmat, social, SocialParams};
use enterprise_graph::GraphBuilder;
use gpu_sim::memory::L2Cache;
use gpu_sim::{exclusive_scan, Device, DeviceConfig, LaunchConfig, ScanScratch, WarpCtx};

fn bench_generators(t: &mut Table) {
    for scale in [10u32, 12, 14] {
        let edges = (1u64 << scale) * 8;
        let ms = time_ms(10, || kronecker(scale, 8, 42));
        t.row(vec![
            format!("generators/kronecker/{scale}"),
            format!("{ms:.3} ms"),
            fmt_teps(edges as f64 / (ms / 1e3)),
        ]);
        let ms = time_ms(10, || rmat(scale, 8, 42));
        t.row(vec![
            format!("generators/rmat/{scale}"),
            format!("{ms:.3} ms"),
            fmt_teps(edges as f64 / (ms / 1e3)),
        ]);
    }
    let params =
        SocialParams { vertices: 50_000, mean_degree: 16.0, zipf_exponent: 0.8, directed: true };
    let ms = time_ms(10, || social(params, 7));
    t.row(vec![
        "generators/social_50k_x16".to_string(),
        format!("{ms:.3} ms"),
        fmt_teps(50_000.0 * 16.0 / (ms / 1e3)),
    ]);
}

fn bench_builder(t: &mut Table) {
    for n in [10_000usize, 100_000] {
        let edges: Vec<(u32, u32)> = (0..n as u32 * 8)
            .map(|i| (i % n as u32, (i.wrapping_mul(2654435761)) % n as u32))
            .collect();
        let ms = time_ms(10, || {
            let mut builder = GraphBuilder::new_directed(n);
            builder.extend_edges(edges.iter().copied());
            builder.build()
        });
        t.row(vec![
            format!("csr_builder/build/{n}"),
            format!("{ms:.3} ms"),
            fmt_teps(edges.len() as f64 / (ms / 1e3)),
        ]);
    }
}

fn bench_scan(t: &mut Table) {
    for len in [1_024usize, 32_768, 262_144] {
        let mut d = Device::new(DeviceConfig::k40_repro());
        let buf = d.mem().alloc("data", len);
        d.mem().upload(buf, &vec![1u32; len]);
        let scratch = ScanScratch::new(&mut d, len);
        let ms = time_ms(10, || {
            exclusive_scan(&mut d, buf, len, &scratch);
            d.reset_stats();
        });
        t.row(vec![
            format!("device_scan/exclusive_scan/{len}"),
            format!("{ms:.3} ms"),
            fmt_teps(len as f64 / (ms / 1e3)),
        ]);
    }
}

fn bench_kernel_launch(t: &mut Table) {
    for threads in [1_024u64, 65_536] {
        let mut d = Device::new(DeviceConfig::k40_repro());
        let x = d.mem().alloc("x", threads as usize);
        let y = d.mem().alloc("y", threads as usize);
        let ms = time_ms(10, || {
            d.launch("saxpy", LaunchConfig::for_threads(threads, 256), |w| {
                let xs = w.load_global(x, |l| (l.tid < threads).then_some(l.tid as usize));
                w.store_global(y, |l| {
                    xs[l.lane as usize].map(|v| (l.tid as usize, v.wrapping_mul(3) + 1))
                });
            });
            d.reset_stats();
        });
        t.row(vec![
            format!("simulator/saxpy_like/{threads}"),
            format!("{ms:.3} ms"),
            fmt_teps(threads as f64 / (ms / 1e3)),
        ]);
    }
}

/// Host cost of one warp access, by shape: a launch of `WARPS` full
/// warps in which every warp issues `REPS` accesses of the shape, timed
/// and divided by the accesses issued.
fn bench_warp_access(t: &mut Table) {
    const WARPS: u64 = 1024;
    const REPS: usize = 64;
    const LEN: usize = 1 << 20;
    let mut d = Device::new(DeviceConfig::k40_repro());
    let data = d.mem().alloc("data", LEN);
    let mut row = |name: &str, shared_bytes: u32, access: &mut dyn FnMut(&mut WarpCtx, usize)| {
        let cfg = LaunchConfig::for_threads(WARPS * 32, 256).with_shared_bytes(shared_bytes);
        let ms = time_ms(5, || {
            d.launch(name, cfg, |w| {
                let warp = w.global_warp_id() as usize;
                for r in 0..REPS {
                    access(w, warp * REPS + r);
                }
            });
            d.reset_stats();
        });
        let ops = (WARPS as usize * REPS) as f64;
        t.row(vec![
            format!("warp_access/{name}"),
            format!("{:.1} ns/op", ms * 1e6 / ops),
            format!("{:.1} Mop/s", ops / (ms / 1e3) / 1e6),
        ]);
    };
    // Access `i` of the launch covers elements `32 i .. 32 i + 32`.
    let tile = |i: usize| (i * 32) % LEN;
    row("contiguous_per_lane", 0, &mut |w, i| {
        w.load_global(data, |l| Some(tile(i) + l.lane as usize));
    });
    row("contiguous_span", 0, &mut |w, i| {
        w.load_span(data, tile(i), 32);
    });
    row("gather_32_blocks", 0, &mut |w, i| {
        w.load_global(data, |l| Some((i * 1024 + l.lane as usize * 32) % LEN));
    });
    row("shared_32way_conflict", 4096, &mut |w, _| {
        w.load_shared(|l| Some(l.lane as usize * 32));
    });

    // One L2 probe, on a stream over four times the cache's blocks.
    let l2_bytes = DeviceConfig::k40_repro().l2_bytes;
    let span = 4 * l2_bytes / 128;
    let mut l2 = L2Cache::new(l2_bytes);
    let probes = 1u64 << 20;
    let ms = time_ms(5, || {
        let mut x = 0x9E37_79B9u64;
        for _ in 0..probes {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            l2.access((x >> 33) % span);
        }
        l2.reset();
    });
    t.row(vec![
        "warp_access/l2_access".to_string(),
        format!("{:.1} ns/op", ms * 1e6 / probes as f64),
        format!("{:.1} Mop/s", probes as f64 / (ms / 1e3) / 1e6),
    ]);
}

fn main() {
    let mut t = Table::new(vec!["bench", "per call", "throughput"]);
    bench_generators(&mut t);
    bench_builder(&mut t);
    bench_scan(&mut t);
    bench_kernel_launch(&mut t);
    bench_warp_access(&mut t);
    print!("{}", t.render());
}
