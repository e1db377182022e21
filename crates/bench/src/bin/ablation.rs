//! Design-choice ablations beyond the paper's headline figures
//! (DESIGN.md §5): each sweep isolates one knob the paper fixes by
//! argument and shows the measured optimum agrees.
//!
//! 1. γ threshold sweep (paper: 30-40% is the right band — §4.3);
//! 2. hub-cache size vs occupancy (paper: a 48 KB allocation would leave
//!    one CTA per SMX; ~6 KB holding ~1K ids is the sweet spot — §4.3);
//! 3. classification-threshold sensitivity (paper: 32/256/65,536 — §4.2);
//! 4. device generations (K40 vs K20 vs Fermi C2070, which lacks
//!    Hyper-Q — §2.2/§5);
//! 5. the paper's own TS numbers (§4.1), driven through the frontier and
//!    kernel layers directly: blocked against interleaved status-scan
//!    time, the sorted switch queue's next-level gain, filtering against
//!    rescanning, the queue-generation share, and the three TS kernels'
//!    load transactions per request.
//!
//! `cargo run -p bench --bin ablation --release`

use bench::{aggregate_teps, fmt_teps, mean, pick_sources, run_seed, Table};
use enterprise::direction::gamma_pct;
use enterprise::frontier::{enqueue_seed, generate_queues, GenWorkflow, QueueGenResult};
use enterprise::kernels::{expand_level, Direction};
use enterprise::state::BfsState;
use enterprise::{ClassifyThresholds, DeviceGraph, DirectionPolicy, Enterprise, EnterpriseConfig};
use enterprise_graph::datasets::Dataset;
use enterprise_graph::stats::{count_hubs, hub_threshold_for_capacity};
use enterprise_graph::Csr;
use gpu_sim::{Device, DeviceConfig};
use sim_rng::DetRng;

fn teps_for(cfg: EnterpriseConfig, g: &Csr, sources: &[u32]) -> f64 {
    let mut e = Enterprise::new(cfg, g);
    let runs: Vec<(u64, f64)> =
        sources.iter().map(|&s| { let r = e.bfs(s); (r.traversed_edges, r.time_ms) }).collect();
    aggregate_teps(&runs)
}

/// Hub-cache slots of the default configuration.
const HUB_ENTRIES: usize = 1024;

/// One device at the direction switch of a γ-driven traversal: the
/// top-down levels ran until γ crossed the paper's 30%, and the status
/// array holds the vertices visited at `newly`. γ is counted on the host,
/// as the drivers count it: the hubs among the status words at the new
/// level over the graph's hubs. Replaying the same traversal gives the
/// same state bit for bit, so each measurement below starts from its own
/// copy with a cold L2.
struct Snapshot {
    dev: Device,
    dg: DeviceGraph,
    st: BfsState,
    newly: u32,
}

fn switch_snapshot(g: &Csr, source: u32) -> Option<Snapshot> {
    let mut dev = Device::new(DeviceConfig::k40_repro());
    let dg = DeviceGraph::upload(&mut dev, g);
    let tau = hub_threshold_for_capacity(g, HUB_ENTRIES);
    let mut st = BfsState::new(&mut dev, &dg, ClassifyThresholds::default(), HUB_ENTRIES, tau);
    let total_hubs = count_hubs(g, tau) as u64;
    enqueue_seed(&mut dev, &mut st, source, g.out_degree(source));
    for level in 0.. {
        expand_level(&mut dev, &dg, &st, level, Direction::TopDown, true, false);
        let wf = GenWorkflow::TopDown { frontier_level: level + 1 };
        generate_queues(&mut dev, &dg, &mut st, wf, false);
        if st.total_frontier() == 0 {
            return None;
        }
        let status = dev.mem_ref().view(st.status);
        let hubs =
            g.vertices().filter(|&v| status[v as usize] == level + 1 && g.out_degree(v) > tau);
        if gamma_pct(hubs.count() as u64, total_hubs) > 30.0 {
            dev.reset_stats();
            return Some(Snapshot { dev, dg, st, newly: level + 1 });
        }
    }
    unreachable!()
}

impl Snapshot {
    /// Runs one queue generation from a cold L2, staging hubs on the
    /// bottom-up workflows as the drivers do, and returns it with its
    /// simulated time.
    fn generate(&mut self, wf: GenWorkflow) -> (QueueGenResult, f64) {
        self.dev.reset_stats();
        let fill_hubs = !matches!(wf, GenWorkflow::TopDown { .. });
        let r = generate_queues(&mut self.dev, &self.dg, &mut self.st, wf, fill_hubs);
        (r, self.dev.elapsed_ms())
    }

    /// Simulated time of the one launch named `name` since the last reset.
    fn launch_ms(&self, name: &str) -> f64 {
        self.dev.records().iter().filter(|k| k.name == name).map(|k| k.time_ms).sum()
    }

    /// Builds the first bottom-up queue (blocked switch scan, hubs staged).
    fn switch_queue(&mut self) -> QueueGenResult {
        self.generate(GenWorkflow::Switch { newly_level: self.newly }).0
    }

    /// Runs the first bottom-up level from a cold L2; returns its time.
    fn expand_bottom_up(&mut self, use_hc: bool) -> f64 {
        self.dev.reset_stats();
        expand_level(
            &mut self.dev,
            &self.dg,
            &self.st,
            self.newly,
            Direction::BottomUp,
            true,
            use_hc,
        );
        self.dev.elapsed_ms()
    }

    fn queues(&self) -> Vec<Vec<u32>> {
        let mem = self.dev.mem_ref();
        (0..4).map(|k| mem.view(self.st.queues[k])[..self.st.queue_sizes[k]].to_vec()).collect()
    }
}

/// The paper's TS numbers (§4.1) on one graph, over the sources whose
/// traversal switches direction; prints one table row.
fn ts_row(t: &mut Table, name: &str, g: &Csr, sources: &[u32], seed: u64) {
    let (mut scan_ratio, mut sorted_gain, mut filter_gain) = (vec![], vec![], vec![]);
    let mut same = true;
    for &s in sources {
        let Some(mut a) = switch_snapshot(g, s) else { continue };
        // (a) Blocked against interleaved scan on one status snapshot.
        a.generate(GenWorkflow::TopDown { frontier_level: a.newly });
        let interleaved = a.launch_ms("scan_status_interleaved");
        let fills = a.switch_queue().hub_fills;
        scan_ratio.push(a.launch_ms("scan_status_blocked") / interleaved);
        // (b) The first bottom-up level from the sorted queue, and from a
        // host-shuffled copy of the same queue on a twin state.
        let sorted_ms = a.expand_bottom_up(fills > 0);
        let mut b = switch_snapshot(g, s).expect("the replay switches too");
        b.switch_queue();
        let mut rng = DetRng::seed_from_u64(seed ^ s as u64);
        for (k, mut q) in b.queues().into_iter().enumerate() {
            rng.shuffle(&mut q);
            let mem = b.dev.mem();
            let mut full = mem.download(b.st.queues[k]);
            full[..q.len()].copy_from_slice(&q);
            mem.upload(b.st.queues[k], &full);
        }
        let shuffled_ms = b.expand_bottom_up(fills > 0);
        sorted_gain.push(shuffled_ms / sorted_ms - 1.0);
        // (c) The second bottom-up queue: Filter on `a`, Switch on `b`
        // (both now hold the same status after one bottom-up level).
        let next = a.newly + 1;
        let (_, filter_ms) = a.generate(GenWorkflow::Filter { newly_level: next });
        let (_, switch_ms) = b.generate(GenWorkflow::Switch { newly_level: next });
        same &= a.queues() == b.queues();
        filter_gain.push(switch_ms / filter_ms - 1.0);
    }
    // (d) Queue-generation share and (e) load transactions per request,
    // over whole traversals of the default configuration.
    let mut e = Enterprise::new(EnterpriseConfig::default(), g);
    let (mut gen_ms, mut expand_ms) = (0.0, 0.0);
    let mut loads = [(0u64, 0u64); 3];
    const TS_KERNELS: [&str; 3] = ["scan_status_blocked", "filter_queues", "copy_bins"];
    for &s in sources {
        let r = e.bfs(s);
        gen_ms += r.level_trace.iter().map(|l| l.queue_gen_ms).sum::<f64>();
        expand_ms += r.level_trace.iter().map(|l| l.expand_ms).sum::<f64>();
        for k in &r.records {
            if let Some(i) = TS_KERNELS.iter().position(|&n| n == k.name) {
                loads[i].0 += k.gld_transactions;
                loads[i].1 += k.gld_requests;
            }
        }
    }
    let per_request = |(tx, req): (u64, u64)| format!("{:.1}", tx as f64 / req.max(1) as f64);
    t.row(vec![
        name.to_string(),
        format!("{:.2}x", mean(&scan_ratio)),
        format!("{:+.1}%", mean(&sorted_gain) * 100.0),
        format!("{:+.1}%{}", mean(&filter_gain) * 100.0, if same { "" } else { " (differ!)" }),
        format!("{:.0}%", gen_ms / (gen_ms + expand_ms) * 100.0),
        loads.map(per_request).join(" / "),
    ]);
}

fn main() {
    let seed = run_seed();
    let graphs = [Dataset::Kron22_128, Dataset::Twitter, Dataset::Orkut];

    // 1. γ threshold sweep.
    println!("(1) gamma-threshold sweep (TEPS; paper's pick: 30)");
    let mut t = Table::new(vec!["gamma%", "KR2", "TW", "OR"]);
    for threshold in [5.0, 15.0, 30.0, 50.0, 70.0, 90.0, 101.0] {
        let mut row = vec![if threshold > 100.0 {
            "never".to_string()
        } else {
            format!("{threshold:.0}")
        }];
        for d in graphs {
            let g = d.build(seed);
            let sources = pick_sources(&g, 3, seed ^ 0xA1);
            let cfg = EnterpriseConfig {
                policy: DirectionPolicy::Gamma { threshold_pct: threshold },
                ..Default::default()
            };
            row.push(fmt_teps(teps_for(cfg, &g, &sources)));
        }
        t.row(row);
    }
    println!("{}", t.render());

    // 2. Hub-cache size: entries -> shared bytes/CTA -> occupancy.
    println!("(2) hub-cache size vs occupancy (KR2)");
    let g = Dataset::Kron22_128.build(seed);
    let sources = pick_sources(&g, 3, seed ^ 0xA2);
    let mut t = Table::new(vec!["entries", "shared/CTA", "CTAs/SMX", "TEPS"]);
    for entries in [128usize, 512, 1024, 2048, 4096, 8192, 12_288] {
        let cfg = EnterpriseConfig { hub_cache_entries: entries, ..Default::default() };
        let device = gpu_sim::Device::new(cfg.device.clone());
        let occ = device.occupancy(
            &gpu_sim::LaunchConfig::grid(64, 256).with_shared_bytes((entries * 4) as u32),
        );
        t.row(vec![
            entries.to_string(),
            format!("{} KB", entries * 4 / 1024),
            occ.ctas_per_smx.to_string(),
            fmt_teps(teps_for(cfg, &g, &sources)),
        ]);
    }
    println!("{}", t.render());
    println!("(the 48 KB row pins one CTA per SMX — the paper's occupancy cliff)\n");

    // 3. Classification thresholds.
    println!("(3) classification-threshold sensitivity (KR2)");
    let mut t = Table::new(vec!["small/middle/large", "TEPS"]);
    for (s, m, l) in [(8u32, 64u32, 16_384u32), (32, 256, 65_536), (128, 1024, 262_144)] {
        let cfg = EnterpriseConfig {
            thresholds: ClassifyThresholds { small_below: s, middle_below: m, large_below: l },
            ..Default::default()
        };
        t.row(vec![format!("{s}/{m}/{l}"), fmt_teps(teps_for(cfg, &g, &sources))]);
    }
    println!("{}", t.render());

    // 4. Device generations.
    println!("(4) device generations (KR2; C2070 has no Hyper-Q)");
    let mut t = Table::new(vec!["device", "TEPS"]);
    for (name, dev) in [
        ("K40", DeviceConfig::k40_repro()),
        ("K20", DeviceConfig::k20_repro()),
        ("C2070", DeviceConfig::c2070_repro()),
    ] {
        let cfg = EnterpriseConfig { device: dev, ..Default::default() };
        t.row(vec![name.to_string(), fmt_teps(teps_for(cfg, &g, &sources))]);
    }
    println!("{}", t.render());

    // 5. The paper's TS numbers.
    println!("(5) TS queue generation (§4.1; paper: 2.4x / +37.6% / +3% / 11%)");
    let mut t = Table::new(vec![
        "graph",
        "blocked/interleaved scan",
        "sorted queue gain",
        "filter gain",
        "queue-gen share",
        "ld tx/req (blocked/filter/copy)",
    ]);
    let kron15 = enterprise_graph::gen::kronecker(15, 16, seed);
    ts_row(&mut t, "kron(15,16)", &kron15, &pick_sources(&kron15, 8, seed ^ 0xA5), seed);
    ts_row(&mut t, "KR2", &g, &pick_sources(&g, 8, seed ^ 0xA5), seed);
    println!("{}", t.render());
    println!(
        "(gains: the shuffled queue's bottom-up level time and the switch \
         rescan's generation time, over the sorted queue's and the filter's)"
    );
}
