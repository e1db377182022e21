//! Crash-recovery drill for the persistence plane (not a paper figure):
//! runs a multi-source BFS campaign on the 1-D multi-GPU driver with
//! durable checkpoints, and can kill itself mid-campaign so CI can
//! restart it and assert bit-identical results across the crash.
//!
//! ```text
//! persist --state-dir=DIR [--sources=K] [--kill-after=N]
//! ```
//!
//! One line per completed source goes to stdout:
//!
//! ```text
//! source=<s> depth=<d> visited=<v> digest=<hex>
//! ```
//!
//! Campaign progress is a manifest (`manifest.txt` in the state
//! directory) holding exactly those lines, rewritten via
//! write-temp-then-rename after every completed source — the same
//! atomicity protocol as the snapshots underneath. A restarted process
//! replays the manifest lines verbatim, skips the completed sources,
//! and finishes the rest, so the concatenated stdout of any
//! kill/restart sequence must equal the stdout of one uninterrupted
//! run. With `--kill-after=N`, the N+1-th unfinished source is run
//! under a doomed level cap that aborts mid-traversal (leaving its
//! durable checkpoint behind) and the process exits with status 3.
//! Timing goes to stderr only; stdout is deterministic by construction.

use bench::{arg_value, pick_sources};
use enterprise::batch::result_digest;
use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise::{PersistPolicy, WatchdogPolicy};
use enterprise_graph::gen::kronecker;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const MANIFEST: &str = "manifest.txt";

/// Parses the completed-source lines out of a manifest body.
fn parse_manifest(body: &str) -> BTreeMap<u32, String> {
    let mut done = BTreeMap::new();
    for line in body.lines() {
        let Some(rest) = line.strip_prefix("source=") else { continue };
        let Some((s, _)) = rest.split_once(' ') else { continue };
        let Ok(s) = s.parse::<u32>() else { continue };
        done.insert(s, line.to_owned());
    }
    done
}

/// Rewrites the manifest atomically (temp file + rename).
fn write_manifest(dir: &Path, done: &BTreeMap<u32, String>) {
    let body: String = done.values().map(|l| format!("{l}\n")).collect();
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    std::fs::write(&tmp, body).expect("write manifest temp");
    std::fs::rename(&tmp, dir.join(MANIFEST)).expect("commit manifest");
}

fn main() {
    let state_dir = PathBuf::from(
        arg_value("state-dir").expect("usage: persist --state-dir=DIR [--sources=K] [--kill-after=N]"),
    );
    let source_count: usize =
        arg_value("sources").map_or(4, |s| s.parse().expect("invalid --sources"));
    let kill_after: Option<usize> =
        arg_value("kill-after").map(|s| s.parse().expect("invalid --kill-after"));
    std::fs::create_dir_all(&state_dir).expect("create state dir");

    let g = kronecker(12, 16, bench::run_seed());
    let sources = pick_sources(&g, source_count, bench::run_seed() ^ 0x9E75);

    let mut done = std::fs::read_to_string(state_dir.join(MANIFEST))
        .map(|b| parse_manifest(&b))
        .unwrap_or_default();
    if !done.is_empty() {
        eprintln!("resuming campaign: {} of {} sources already durable", done.len(), sources.len());
    }

    let mut ran_this_process = 0usize;
    let mut warm_restarts = 0u32;
    for &s in &sources {
        if done.contains_key(&s) {
            continue;
        }
        // Each source checkpoints into its own subdirectory: the layout
        // snapshot is shared per (graph, config) but the mid-traversal
        // checkpoint is per-source, and the drill must resume each
        // interrupted source from *its* checkpoint.
        let src_dir = state_dir.join(format!("src_{s}"));
        let doomed = kill_after == Some(ran_this_process);
        let cfg = MultiGpuConfig {
            persist: Some(PersistPolicy::with_checkpoints(&src_dir, 1)),
            watchdog: if doomed {
                // A level cap of 2 aborts the traversal after its durable
                // level-2 checkpoint — a deterministic stand-in for
                // `kill -9` that still exercises the restart path.
                WatchdogPolicy { max_levels: Some(2), ..WatchdogPolicy::default() }
            } else {
                WatchdogPolicy::default()
            },
            ..MultiGpuConfig::k40s(4)
        };
        let mut sys = MultiGpuEnterprise::new(cfg, &g);
        match sys.try_bfs(s) {
            Ok(r) => {
                if r.recovery.warm_restart || r.recovery.resumed_at_level.is_some() {
                    warm_restarts += 1;
                }
                let line = format!(
                    "source={s} depth={} visited={} digest={:016x}",
                    r.depth,
                    r.visited,
                    result_digest(&r.levels, &r.parents),
                );
                done.insert(s, line);
                write_manifest(&state_dir, &done);
                eprintln!(
                    "source {s}: {:.3} sim-ms, {} snapshot(s) persisted{}",
                    r.time_ms,
                    r.recovery.snapshots_persisted,
                    r.recovery
                        .resumed_at_level
                        .map_or(String::new(), |l| format!(", resumed at level {l}")),
                );
            }
            Err(e) if doomed => {
                eprintln!("simulated crash on source {s} ({e}); durable state left in place");
                std::process::exit(3);
            }
            Err(e) => panic!("source {s} failed outside the scripted crash: {e}"),
        }
        ran_this_process += 1;
    }

    // Deterministic stdout: the manifest IS the output, so any
    // kill/restart sequence prints exactly what one clean run prints.
    for line in done.values() {
        println!("{line}");
    }
    eprintln!(
        "campaign complete: {} sources, {} finished this process, {} warm restart(s)",
        done.len(),
        ran_this_process,
        warm_restarts
    );
}
