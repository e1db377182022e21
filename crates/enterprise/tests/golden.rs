//! Golden fixtures for every driver shape, the single device included.
//!
//! - `golden_fleet.txt`: every multi-GPU partition shape, graph family
//!   and fault plane below. A line records a traversal's result digest,
//!   simulated time (as `f64` bits), interconnect bytes and full
//!   `RecoveryReport`, or a sequential or pipelined batch's wall time
//!   and per-source digests.
//! - `golden_single.txt`: the single-GPU `Enterprise` under its own fault
//!   planes and ablation points. A line adds the device report, the
//!   kernel count and the per-level trace (direction, class sizes, γ and
//!   α bits) to the digest, time bits and `RecoveryReport`.
//!
//! Any change to the simulated behaviour of a shape shows up as a diff.
//! On a mismatch the regenerated fixture is written next to the test
//! binary's scratch directory and the first differing line is reported.

use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, BfsError, BfsResult, DirectionPolicy, Enterprise,
    EnterpriseConfig, FaultSpec, PersistPolicy, RebalancePolicy, RoutePolicy, VerifyPolicy,
    CHAOS_LINK_FLAP_PERIOD_LEVELS, CHAOS_STRAGGLER_SLOWDOWN,
};
use enterprise_graph::gen::{kronecker, rmat, road_grid};
use enterprise_graph::{Csr, VertexId};
use std::fmt::Write as _;

const FLEET_FIXTURE: &str = include_str!("golden_fleet.txt");
const SINGLE_FIXTURE: &str = include_str!("golden_single.txt");

/// One fault plane: the injected faults plus the recovery layers armed
/// against them.
struct Plane {
    name: &'static str,
    faults: Option<FaultSpec>,
    verify: VerifyPolicy,
    rebalance: RebalancePolicy,
    route: RoutePolicy,
}

fn planes() -> Vec<Plane> {
    let plane = |name, faults| Plane {
        name,
        faults: Some(faults),
        verify: VerifyPolicy::disabled(),
        rebalance: RebalancePolicy::disabled(),
        route: RoutePolicy::disabled(),
    };
    vec![
        Plane { faults: None, ..plane("clean", FaultSpec::none(0)) },
        plane("loss", FaultSpec { device_loss_rate: 0.004, ..FaultSpec::none(11) }),
        Plane {
            route: RoutePolicy::on(),
            ..plane(
                "link+loss",
                FaultSpec {
                    link_down_rate: 0.15,
                    link_flap_rate: 0.15,
                    link_flap_period_levels: CHAOS_LINK_FLAP_PERIOD_LEVELS,
                    link_degrade_rate: 0.2,
                    device_loss_rate: 0.004,
                    ..FaultSpec::none(12)
                },
            )
        },
        Plane {
            verify: VerifyPolicy::full(),
            ..plane("bitflip", FaultSpec { bitflip_rate: 0.2, ..FaultSpec::none(13) })
        },
        Plane {
            rebalance: RebalancePolicy::on(),
            ..plane(
                "straggler",
                FaultSpec {
                    straggler_rate: 0.5,
                    straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
                    link_degrade_rate: 0.3,
                    ..FaultSpec::none(14)
                },
            )
        },
        // The exchange retry ladder with the router off: a down or
        // flapping link is one more transient fault.
        plane("wire", wire_faults()),
        // The same wire faults through the router's transient and probe
        // rungs.
        Plane { route: RoutePolicy::on(), ..plane("wire+route", wire_faults()) },
    ]
}

/// Dropped and corrupted exchanges over a topology with down and
/// flapping links.
fn wire_faults() -> FaultSpec {
    FaultSpec {
        exchange_drop_rate: 0.15,
        exchange_corrupt_rate: 0.15,
        link_down_rate: 0.03,
        link_flap_rate: 0.15,
        link_flap_period_levels: CHAOS_LINK_FLAP_PERIOD_LEVELS,
        ..FaultSpec::none(17)
    }
}

/// The batch policies both fixtures pin: the sequential serving plane
/// and four pipelined lanes.
fn batch_policies() -> [(&'static str, BatchPolicy); 2] {
    [("pipelined4", BatchPolicy::pipelined(4)), ("sequential", BatchPolicy::on())]
}

/// FNV-1a over levels then parents, `u32::MAX` for unreachable.
fn digest(levels: &[Option<u32>], parents: &[Option<VertexId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = levels.iter().map(|l| l.unwrap_or(u32::MAX));
    for w in words.chain(parents.iter().map(|p| p.unwrap_or(u32::MAX))) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn run_line(out: &mut String, tag: &str, source: VertexId, r: Result<MultiBfsResult, BfsError>) {
    match r {
        Ok(r) => writeln!(
            out,
            "{tag} src={source} digest={:016x} time={:016x} bytes={} recovery={:?}",
            digest(&r.levels, &r.parents),
            r.time_ms.to_bits(),
            r.communication_bytes,
            r.recovery
        ),
        Err(e) => writeln!(out, "{tag} src={source} err={e:?}"),
    }
    .unwrap();
}

fn batch_line<R>(out: &mut String, tag: &str, report: &BatchReport<R>) {
    write!(
        out,
        "{tag} batch_ms={:016x} retries={} hedges={} runs=",
        report.batch_ms.to_bits(),
        report.retries,
        report.hedges
    )
    .unwrap();
    for run in &report.runs {
        write!(
            out,
            "[{} {:?} {} {:016x} {:016x}]",
            run.source,
            run.outcome,
            run.attempts,
            run.time_ms.to_bits(),
            run.digest
        )
        .unwrap();
    }
    out.push('\n');
}

/// The shapes under test: one 1-D fleet and three grids.
#[derive(Clone, Copy)]
enum Shape {
    Slices(usize),
    Grid(usize, usize),
}

impl Shape {
    fn tag(self) -> String {
        match self {
            Shape::Slices(p) => format!("1d{p}"),
            Shape::Grid(r, c) => format!("2d{r}x{c}"),
        }
    }
}

/// Runs `body` against a fresh driver of `shape` configured for `plane`.
macro_rules! with_driver {
    ($shape:expr, $plane:expr, $g:expr, |$sys:ident| $body:expr) => {
        match $shape {
            Shape::Slices(p) => {
                let cfg = MultiGpuConfig {
                    faults: $plane.faults,
                    verify: $plane.verify,
                    rebalance: $plane.rebalance,
                    route: $plane.route,
                    sanitize: false,
                    ..MultiGpuConfig::k40s(p)
                };
                let mut $sys = MultiGpuEnterprise::new(cfg, $g);
                $body
            }
            Shape::Grid(r, c) => {
                let cfg = Grid2DConfig {
                    faults: $plane.faults,
                    verify: $plane.verify,
                    rebalance: $plane.rebalance,
                    route: $plane.route,
                    sanitize: false,
                    ..Grid2DConfig::k40s(r, c)
                };
                let mut $sys = MultiGpu2DEnterprise::new(cfg, $g);
                $body
            }
        }
    };
}

/// The graph families both fixtures run: kron-11, rmat-11 and a 24x24
/// road grid.
fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("kron11", kronecker(11, 8, 5)),
        ("rmat11", rmat(11, 8, 7)),
        ("road24", road_grid(24, 24, 0.05, 7)),
    ]
}

fn generate() -> String {
    let graphs = graphs();
    let shapes = [Shape::Slices(4), Shape::Grid(2, 2), Shape::Grid(3, 3), Shape::Grid(4, 2)];
    let planes = planes();
    let mut out = String::new();
    for (gname, g) in &graphs {
        let n = g.vertex_count() as u32;
        let sources = [1u32, n / 2 + 3];
        let batch: Vec<BatchSource> =
            (0..16u32).map(|i| BatchSource::new((i * 97 + 3) % n)).collect();
        for shape in shapes {
            for plane in &planes {
                let tag = format!("{gname} {} {}", shape.tag(), plane.name);
                with_driver!(shape, plane, g, |sys| {
                    for s in sources {
                        run_line(&mut out, &tag, s, sys.try_bfs(s));
                    }
                });
            }
            for plane in [&planes[0], &planes[1]] {
                for (mode, policy) in batch_policies() {
                    let tag = format!("{gname} {} {} {mode}", shape.tag(), plane.name);
                    with_driver!(shape, plane, g, |sys| {
                        batch_line(&mut out, &tag, &sys.batch(&batch, &policy));
                    });
                }
            }
        }
    }
    out
}

/// One single-GPU configuration: a fault plane or an ablation point.
struct SinglePlane {
    name: &'static str,
    config: EnterpriseConfig,
    /// In-driver relaunch budget; `Some(0)` escalates every injected
    /// kernel fault to a level replay.
    launch_retries: Option<u32>,
}

/// The single-GPU planes. `state_dir` hosts the torn-write plane's
/// per-level checkpoints.
fn single_planes(state_dir: &std::path::Path) -> Vec<SinglePlane> {
    let base = EnterpriseConfig { sanitize: false, ..EnterpriseConfig::default() };
    let plane = |name, config| SinglePlane { name, config, launch_retries: None };
    vec![
        plane("clean", base.clone()),
        plane(
            "loss",
            EnterpriseConfig {
                faults: Some(FaultSpec { device_loss_rate: 0.01, ..FaultSpec::none(11) }),
                ..base.clone()
            },
        ),
        plane(
            "bitflip",
            EnterpriseConfig {
                faults: Some(FaultSpec { bitflip_rate: 0.2, ..FaultSpec::none(13) }),
                verify: VerifyPolicy::full(),
                ..base.clone()
            },
        ),
        SinglePlane {
            launch_retries: Some(0),
            ..plane(
                "kernel",
                EnterpriseConfig {
                    faults: Some(FaultSpec { kernel_fault_rate: 0.05, ..FaultSpec::none(15) }),
                    ..base.clone()
                },
            )
        },
        plane(
            "torn",
            EnterpriseConfig {
                faults: Some(FaultSpec { torn_write_rate: 0.3, ..FaultSpec::none(16) }),
                persist: Some(PersistPolicy::with_checkpoints(state_dir, 1)),
                ..base.clone()
            },
        ),
        plane("ts_only", EnterpriseConfig { sanitize: false, ..EnterpriseConfig::ts_only() }),
        plane("ts_wb", EnterpriseConfig { sanitize: false, ..EnterpriseConfig::ts_wb() }),
        plane("alpha", EnterpriseConfig { policy: DirectionPolicy::alpha_default(), ..base }),
    ]
}

fn single_line(out: &mut String, tag: &str, source: VertexId, r: Result<BfsResult, BfsError>) {
    let r = match r {
        Ok(r) => r,
        Err(e) => return writeln!(out, "{tag} src={source} err={e:?}").unwrap(),
    };
    write!(
        out,
        "{tag} src={source} digest={:016x} time={:016x} recovery={:?} report={:?} records={} levels=",
        digest(&r.levels, &r.parents),
        r.time_ms.to_bits(),
        r.recovery,
        r.report,
        r.records.len()
    )
    .unwrap();
    for l in &r.level_trace {
        write!(
            out,
            "[{} {:?} {:016x} {:016x}]",
            l.direction,
            l.sizes,
            l.gamma_pct.to_bits(),
            l.alpha.to_bits()
        )
        .unwrap();
    }
    out.push('\n');
}

fn generate_single() -> String {
    let scratch = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_single");
    let mut out = String::new();
    for (gname, g) in &graphs() {
        let n = g.vertex_count() as u32;
        let sources = [1u32, n / 2 + 3];
        let batch: Vec<BatchSource> =
            (0..16u32).map(|i| BatchSource::new((i * 97 + 3) % n)).collect();
        let state_dir = scratch.join(gname);
        let _ = std::fs::remove_dir_all(&state_dir);
        let planes = single_planes(&state_dir);
        for plane in &planes {
            let tag = format!("{gname} {}", plane.name);
            let mut sys = Enterprise::new(plane.config.clone(), g);
            if let Some(retries) = plane.launch_retries {
                sys.set_launch_retries(retries);
            }
            for s in sources {
                single_line(&mut out, &tag, s, sys.try_bfs(s));
            }
        }
        for plane in [&planes[0], &planes[1]] {
            for (mode, policy) in batch_policies() {
                let tag = format!("{gname} {} {mode}", plane.name);
                let mut sys = Enterprise::new(plane.config.clone(), g);
                batch_line(&mut out, &tag, &sys.batch(&batch, &policy));
            }
        }
    }
    out
}

/// Panics unless `actual` equals the committed fixture `name`, writing
/// the regenerated fixture to the scratch directory first.
fn assert_reproduces(name: &str, fixture: &str, actual: &str) {
    if actual == fixture {
        return;
    }
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, actual).expect("write regenerated fixture");
    let (line, want, got) = fixture
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, a))| w != a)
        .map(|(i, (w, a))| (i + 1, w, a))
        .unwrap_or((0, "<line count differs>", ""));
    panic!(
        "driver diverged from {name} at line {line}:\n  want {want}\n  got  {got}\n\
         regenerated fixture: {}",
        path.display()
    );
}

#[test]
fn fleet_reproduces_golden_fixture() {
    assert_reproduces("golden_fleet.txt", FLEET_FIXTURE, &generate());
}

#[test]
fn single_reproduces_golden_fixture() {
    assert_reproduces("golden_single.txt", SINGLE_FIXTURE, &generate_single());
}
