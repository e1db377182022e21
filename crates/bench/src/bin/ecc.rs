//! ECC cost/benefit harness: paired traversal-rate delta under a fixed
//! environmental bit-flip rate.
//!
//! Runs the same sources over the same fault stream twice per graph:
//!
//! * `ecc=off` — flips land as silent data corruption; the end-of-level
//!   verifier detects and heals them (localized repair, level replay,
//!   or audit-triggered run replay), all charged to the timeline.
//! * `ecc=on` — SECDED absorbs single-bit flips below the traversal at
//!   [`ECC_CORRECTION_US`] per corrected word plus periodic scrub cost;
//!   the verifier finds nothing.
//!
//! The headline number is the paired TEPS delta: what turning ECC on
//! costs (or saves, once self-healing replays dominate) at that upset
//! rate. K40 note: the paper's hardware runs GDDR5 with ECC carved out
//! of data memory — the 72/64 DRAM derate is the same trade.
//!
//! `cargo run -p bench --bin ecc --release [-- --ecc=on|off]`
//!
//! With `--ecc=on` (or `off`) only that column is measured; the default
//! runs both and prints the delta. `ENTERPRISE_BITFLIP_RATE` overrides
//! the per-launch flip probability (default 0.02), `ENTERPRISE_SOURCES`
//! and `ENTERPRISE_SEED` as in every other regenerator.
//!
//! [`ECC_CORRECTION_US`]: gpu_sim::ecc::ECC_CORRECTION_US

use bench::{aggregate_teps, env_parse, fmt_teps, pick_sources, run_seed, Table};
use enterprise::{EccMode, Enterprise, EnterpriseConfig, FaultSpec, VerifyPolicy};
use enterprise_graph::gen::{kronecker, rmat};
use enterprise_graph::Csr;

struct ModeStats {
    teps: f64,
    sdc_detected: u64,
    sdc_repaired: u64,
    ecc_corrected: u64,
}

fn run_mode(g: &Csr, ecc: EccMode, rate: f64, seed: u64, sources_n: usize) -> ModeStats {
    let sources = pick_sources(g, sources_n, seed ^ 0xecc);
    let mut runs = Vec::with_capacity(sources.len());
    let (mut det, mut rep, mut corr) = (0u64, 0u64, 0u64);
    for (i, &s) in sources.iter().enumerate() {
        let cfg = EnterpriseConfig {
            ecc,
            scrub_levels: Some(4),
            faults: Some(FaultSpec {
                bitflip_rate: rate,
                ..FaultSpec::uniform(seed ^ (i as u64) << 16, 0.0)
            }),
            verify: VerifyPolicy::full(),
            sanitize: false,
            ..EnterpriseConfig::default()
        };
        let mut e = Enterprise::try_new(cfg, g).expect("construction is fault-free");
        // Self-healing is the point of the harness: a run that exhausts
        // even the audit replay at this upset rate would be a bug, so
        // fail loudly rather than skip the pair.
        let r = e.try_bfs(s).unwrap_or_else(|err| panic!("source {s}: {err}"));
        runs.push((r.traversed_edges, r.time_ms));
        det += r.recovery.sdc_detected;
        rep += r.recovery.sdc_repaired;
        corr += r.recovery.faults.ecc_corrected;
    }
    ModeStats {
        teps: aggregate_teps(&runs),
        sdc_detected: det,
        sdc_repaired: rep,
        ecc_corrected: corr,
    }
}

fn main() {
    let only: Option<EccMode> = std::env::args().find_map(|a| match a.as_str() {
        "--ecc=on" => Some(EccMode::On),
        "--ecc=off" => Some(EccMode::Off),
        _ => None,
    });
    let seed = run_seed();
    let sources_n = env_parse("ENTERPRISE_SOURCES", 4usize);
    let rate = env_parse("ENTERPRISE_BITFLIP_RATE", 0.02f64);

    let graphs: Vec<(&str, Csr)> = vec![
        ("kron-12", kronecker(12, 16, seed ^ 1)),
        ("rmat-12", rmat(12, 16, seed ^ 2)),
    ];

    let mut t = Table::new(vec![
        "graph", "ECC off", "ECC on", "delta", "SDC det/rep (off)", "corrected (on)",
    ]);
    for (name, g) in &graphs {
        let off = (only != Some(EccMode::On))
            .then(|| run_mode(g, EccMode::Off, rate, seed, sources_n));
        let on = (only != Some(EccMode::Off))
            .then(|| run_mode(g, EccMode::On, rate, seed, sources_n));
        let delta = match (&off, &on) {
            (Some(off), Some(on)) => format!("{:+.1}%", (on.teps / off.teps - 1.0) * 100.0),
            _ => "-".into(),
        };
        t.row(vec![
            name.to_string(),
            off.as_ref().map_or("-".into(), |m| fmt_teps(m.teps)),
            on.as_ref().map_or("-".into(), |m| fmt_teps(m.teps)),
            delta,
            off.as_ref().map_or("-".into(), |m| format!("{}/{}", m.sdc_detected, m.sdc_repaired)),
            on.as_ref().map_or("-".into(), |m| m.ecc_corrected.to_string()),
        ]);
    }
    println!(
        "ECC paired traversal rate (bitflip rate {rate}, {sources_n} sources/graph, seed {seed})"
    );
    println!("{}", t.render());
    println!("off = verifier self-heals SDC; on = SECDED absorbs flips (correction + scrub cost)");
}
