//! `perf`: the repository benchmark (README.md describes the workloads,
//! metrics and trace format).
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload and prints one
//! `workload metric value unit` line per figure, then, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or the per-layer ones with `--trace 1`). Without
//! it, runs every workload in turn, each in a fresh child process, so
//! set-up time and peak memory are per workload. `--trace 1` also writes
//! the span file `.perf/trace/<workload>-<seed>.jsonl`. Everything the run
//! writes stays under `.perf/` in the working directory.

mod json;
mod reference;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 20150415;
const DEFAULT_SECONDS: f64 = 10.0;
const USAGE: &str =
    "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `None`: 10 s, or only the minimum passes at the smoke scale.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

impl Args {
    /// Accepts `--flag value` and `--flag=value`.
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a =
            Args { workload: None, seed: DEFAULT_SEED, seconds: None, trace: false, smoke: false };
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                a.smoke = true;
                continue;
            }
            let (flag, value) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), v.to_string()),
                None => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    (arg, v)
                }
            };
            match flag.as_str() {
                "--workload" => {
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                    a.workload = Some(value);
                }
                "--seed" => {
                    a.seed = value.parse().map_err(|e| format!("invalid --seed {value:?}: {e}"))?
                }
                "--seconds" => {
                    let s: f64 =
                        value.parse().map_err(|e| format!("invalid --seconds {value:?}: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("invalid --seconds {value:?}: must be >= 0"));
                    }
                    a.seconds = Some(s);
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("invalid --trace {value:?}: expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(a)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(workload::find(name).expect("validated while parsing"), &args),
        None => run_all(&args),
    }
}

fn run_one(w: &workload::Workload, args: &Args) -> ExitCode {
    let root = PathBuf::from(".perf");
    let opts = workload::Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS }),
        trace: args.trace,
        smoke: args.smoke,
        work_dir: root.join(format!("{}-{}", w.name, std::process::id())),
    };
    let out = workload::run(w, &opts);
    let line =
        |m: &json::Metric| println!("{} {} {} {}", w.name, m.name, json::number(m.value), m.unit);
    out.notes.iter().for_each(line);
    out.metrics.iter().for_each(line);
    println!("{} digest {:016x} hex", w.name, out.digest);
    if args.trace {
        for (name, ns) in trace::self_time_by_name(&out.spans) {
            line(&json::Metric::new(format!("span.{name}.self_ms"), ns as f64 / 1e6, "ms"));
        }
        let dir = root.join("trace");
        let path = dir.join(format!("{}-{}.jsonl", w.name, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&out.spans, w.name)));
        if let Err(e) = written {
            eprintln!("perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{} trace.file {} path", w.name, path.display());
    }
    for p in &out.problems {
        eprintln!("perf: {}: {p}", w.name);
    }
    println!(
        "{}",
        json::result_line(out.problems.is_empty(), out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}

/// Runs each workload in its own child process, one at a time, and folds
/// their result lines into one whose metrics are keyed by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut parts = Vec::new();
    let mut ok = true;
    for w in &workload::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.stderr(Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perf: cannot start workload {}: {e}", w.name);
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = if out.status.success() { lines.pop() } else { None };
        lines.iter().for_each(|l| println!("{l}"));
        let fields = result.and_then(|r| {
            Some((
                json::scalar_field(r, "correct")? == "true",
                json::scalar_field(r, "attempted")?.parse::<u64>().ok()?,
                json::scalar_field(r, "failed")?.parse::<u64>().ok()?,
                json::metrics_object(r)?,
            ))
        });
        match fields {
            Some((c, a, f, metrics)) => {
                correct &= c;
                attempted += a;
                failed += f;
                parts.push(format!("{}: {metrics}", json::string(w.name)));
            }
            None => {
                eprintln!("perf: workload {} gave no result ({})", w.name, out.status);
                ok = false;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && ok,
        parts.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{Options, Outcome, WORKLOADS};

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_both_flag_forms_and_rejects_bad_input() {
        let a =
            args(&["--workload", "kron-single", "--seed=7", "--seconds", "2.5", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("kron-single"), 7, Some(2.5), true)
        );
        let d = args(&["--smoke"]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace, d.smoke),
            (None, DEFAULT_SEED, None, false, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    fn smoke(trace: bool) -> Vec<Outcome> {
        WORKLOADS
            .iter()
            .map(|w| {
                let work_dir = std::env::temp_dir().join(format!(
                    "perf-smoke-{}-{}-{trace}",
                    std::process::id(),
                    w.name
                ));
                workload::run(
                    w,
                    &Options { seed: DEFAULT_SEED, seconds: 0.0, trace, smoke: true, work_dir },
                )
            })
            .collect()
    }

    /// Every simulated figure of a run, sorted by name.
    fn sim_figures(o: &Outcome) -> Vec<(String, u64)> {
        let mut figures: Vec<(String, u64)> = o
            .metrics
            .iter()
            .chain(&o.notes)
            .filter(|m| m.name.starts_with("sim_") || m.name == "failed_frac")
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect();
        figures.sort();
        figures
    }

    /// Names listed under `key` in BENCHMARK.json: the `"name"` fields
    /// between that key and the next section.
    fn declared(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let end = section[1..].find("\n  \"").map_or(section.len(), |i| i + 1);
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// Runs the smoke scale twice, untraced and traced, and checks that
    /// results are oracle-correct, simulated figures and digests repeat
    /// exactly, and each run emits exactly the metrics BENCHMARK.json
    /// declares.
    #[test]
    fn smoke_scale_is_correct_deterministic_and_declared() {
        let names = |ms: &[json::Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        let (a, b) = (smoke(false), smoke(true));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(declared("workloads"), workloads);
        for ((w, x), y) in WORKLOADS.iter().zip(&a).zip(&b) {
            assert!(
                x.problems.is_empty() && y.problems.is_empty(),
                "{}: {:?} {:?}",
                w.name,
                x.problems,
                y.problems
            );
            assert_eq!((x.failed, y.failed), (0, 0), "{}", w.name);
            assert!(x.attempted > 0, "{}", w.name);
            assert_eq!(x.digest, y.digest, "{}: digests differ between runs", w.name);
            let sims = sim_figures(x);
            assert_eq!(sims.len(), 5, "{}: {sims:?}", w.name);
            assert_eq!(sims, sim_figures(y), "{}: simulated figures differ between runs", w.name);
            assert!(
                !y.spans.is_empty() && x.spans.is_empty(),
                "{}: spans only when tracing",
                w.name
            );
            assert_eq!(names(&x.metrics), declared("end_to_end"), "{}", w.name);
            assert_eq!(names(&y.metrics), declared("per_layer"), "{}", w.name);
        }
    }
}
