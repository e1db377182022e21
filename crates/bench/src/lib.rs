//! Shared harness utilities for the table/figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4). This library holds the common machinery:
//! deterministic source selection, multi-source TEPS aggregation, and
//! plain-text table rendering.

use enterprise_graph::{Csr, VertexId};
use sim_rng::DetRng;

/// Seed used by every regenerator unless overridden via `ENTERPRISE_SEED`.
pub const DEFAULT_SEED: u64 = 20150415;

/// Parses an environment variable, failing loudly (with the variable
/// name and the offending value) on a malformed entry instead of
/// silently falling back — a typo in an experiment command line must not
/// quietly change what was measured. Absent variable → `default`.
pub fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Err(_) => default,
        Ok(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("invalid {name}={s:?} in environment: {e}")),
    }
}

/// Reads the run seed from the environment (defaults to
/// [`DEFAULT_SEED`]); lets EXPERIMENTS.md runs be reproduced exactly.
pub fn run_seed() -> u64 {
    env_parse("ENTERPRISE_SEED", DEFAULT_SEED)
}

/// Number of BFS sources per experiment. The paper uses 64; the
/// regenerators default to a smaller sample for wall-clock reasons and
/// honor `ENTERPRISE_SOURCES` for full runs.
pub fn source_count() -> usize {
    env_parse("ENTERPRISE_SOURCES", 8)
}

/// Pseudo-randomly selected BFS sources with non-zero out-degree (the
/// Graph 500 convention; an isolated source measures nothing).
pub fn pick_sources(g: &Csr, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = DetRng::seed_from_u64(seed);
    let n = g.vertex_count();
    let mut sources = Vec::with_capacity(count);
    let mut attempts = 0;
    while sources.len() < count && attempts < count * 1000 {
        let v = rng.gen_index(n) as VertexId;
        attempts += 1;
        if g.out_degree(v) > 0 {
            sources.push(v);
        }
    }
    assert!(!sources.is_empty(), "graph has no vertex with out-degree > 0");
    sources
}

/// Reads a `--name=value` flag from the process arguments. The crash
/// recovery drill passes its state directory this way (an environment
/// variable would survive into the restarted process and hide bugs in
/// the restart path).
pub fn arg_value(name: &str) -> Option<String> {
    let prefix = format!("--{name}=");
    std::env::args().find_map(|a| a.strip_prefix(&prefix).map(str::to_owned))
}

/// Graph 500-style aggregate: total edges over total time, from per-run
/// `(traversed_edges, time_ms)` pairs.
pub fn aggregate_teps(runs: &[(u64, f64)]) -> f64 {
    let edges: u64 = runs.iter().map(|r| r.0).sum();
    let ms: f64 = runs.iter().map(|r| r.1).sum();
    if ms > 0.0 {
        edges as f64 / (ms / 1e3)
    } else {
        0.0
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Formats TEPS in engineering units (MTEPS/GTEPS).
pub fn fmt_teps(teps: f64) -> String {
    if teps >= 1e9 {
        format!("{:.2} GTEPS", teps / 1e9)
    } else if teps >= 1e6 {
        format!("{:.1} MTEPS", teps / 1e6)
    } else {
        format!("{:.0} KTEPS", teps / 1e3)
    }
}

/// Writes a machine-readable copy of an experiment's results to
/// `results/<name>.json` when `ENTERPRISE_JSON=1` is set, so EXPERIMENTS.md
/// rows can be regenerated programmatically. `to_json` renders the rows.
pub fn write_json<T: ToJson>(name: &str, rows: &[T]) {
    if std::env::var("ENTERPRISE_JSON").as_deref() != Ok("1") {
        return;
    }
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let body: Vec<String> =
        rows.iter().map(|r| format!("  {}", r.to_json().replace('\n', "\n  "))).collect();
    let json = format!("[\n{}\n]", body.join(",\n"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Hand-rolled JSON rendering (the workspace builds offline, with no JSON
/// dependency). Implementors emit one self-contained JSON value.
pub trait ToJson {
    fn to_json(&self) -> String;
}

/// Escapes `s` as the body of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Times `f` for the microbench harnesses in `benches/`: a few warmup
/// calls, then `iters` timed calls; returns mean wall time per call in
/// milliseconds. The closure's result is passed through `std::hint::black_box`
/// so the optimizer cannot delete the work.
pub fn time_ms<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0);
    for _ in 0..iters.min(3) {
        std::hint::black_box(f());
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Minimal fixed-width table printer for the regenerators' stdout.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// One graph's ablation measurements (used by the fig13 regenerator's
/// JSON output).
pub struct AblationRow {
    pub graph: String,
    pub bl_teps: f64,
    pub ts_teps: f64,
    pub wb_teps: f64,
    pub hc_teps: f64,
    pub queue_gen_fraction: f64,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"graph\": \"{}\", \"bl_teps\": {}, \"ts_teps\": {}, \"wb_teps\": {}, \
             \"hc_teps\": {}, \"queue_gen_fraction\": {}}}",
            json_escape(&self.graph),
            self.bl_teps,
            self.ts_teps,
            self.wb_teps,
            self.hc_teps,
            self.queue_gen_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enterprise_graph::gen::kronecker;

    #[test]
    fn sources_have_outdegree() {
        let g = kronecker(8, 4, 1);
        for s in pick_sources(&g, 16, 7) {
            assert!(g.out_degree(s) > 0);
        }
    }

    #[test]
    fn aggregate_teps_is_total_over_total() {
        let teps = aggregate_teps(&[(1000, 1.0), (3000, 1.0)]);
        assert!((teps - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        let s = t.render();
        assert!(s.contains("a  bb"));
        assert!(s.lines().count() == 3);
    }

    /// The digest the bench binaries print (the library's batch digest)
    /// moves on a level change and on a parent change alike.
    #[test]
    fn digest_separates_levels_from_parents() {
        use enterprise::batch::result_digest;
        let a = result_digest(&[Some(0), None], &[Some(0), None]);
        let b = result_digest(&[Some(0), Some(1)], &[Some(0), None]);
        let c = result_digest(&[Some(0), None], &[Some(0), Some(0)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, result_digest(&[Some(0), None], &[Some(0), None]));
    }

    #[test]
    fn fmt_teps_units() {
        assert_eq!(fmt_teps(2.5e9), "2.50 GTEPS");
        assert_eq!(fmt_teps(3.4e6), "3.4 MTEPS");
        assert_eq!(fmt_teps(9.0e3), "9 KTEPS");
    }
}
