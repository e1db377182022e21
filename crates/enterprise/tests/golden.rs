//! Golden fixture for the multi-GPU fleet: every partition shape, graph
//! family and fault plane below must reproduce `golden_fleet.txt` byte
//! for byte. A line records a traversal's result digest, simulated time
//! (as `f64` bits), interconnect bytes and full `RecoveryReport`, or a
//! pipelined batch's wall time and per-source digests, so any change to
//! the simulated behaviour of either partition shape shows up as a diff.
//!
//! On a mismatch the regenerated fixture is written next to the test
//! binary's scratch directory and the first differing line is reported.

use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, BfsError, FaultSpec, RebalancePolicy, RoutePolicy,
    VerifyPolicy, CHAOS_LINK_FLAP_PERIOD_LEVELS, CHAOS_STRAGGLER_SLOWDOWN,
};
use enterprise_graph::gen::{kronecker, rmat, road_grid};
use enterprise_graph::{Csr, VertexId};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("golden_fleet.txt");

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
    ]
}

/// FNV-1a over levels then parents, `u32::MAX` for unreachable.
fn digest(r: &MultiBfsResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = r.levels.iter().map(|l| l.unwrap_or(u32::MAX));
    for w in words.chain(r.parents.iter().map(|p| p.unwrap_or(u32::MAX))) {
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
            digest(&r),
            r.time_ms.to_bits(),
            r.communication_bytes,
            r.recovery
        ),
        Err(e) => writeln!(out, "{tag} src={source} err={e:?}"),
    }
    .unwrap();
}

fn batch_line(out: &mut String, tag: &str, report: &BatchReport<MultiBfsResult>) {
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

fn generate() -> String {
    let graphs: Vec<(&str, Csr)> = vec![
        ("kron11", kronecker(11, 8, 5)),
        ("rmat11", rmat(11, 8, 7)),
        ("road24", road_grid(24, 24, 0.05, 7)),
    ];
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
                let tag = format!("{gname} {} {} pipelined4", shape.tag(), plane.name);
                with_driver!(shape, plane, g, |sys| {
                    batch_line(&mut out, &tag, &sys.batch(&batch, &BatchPolicy::pipelined(4)));
                });
            }
        }
    }
    out
}

#[test]
fn fleet_reproduces_golden_fixture() {
    let actual = generate();
    if actual == FIXTURE {
        return;
    }
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_fleet.txt");
    std::fs::write(&path, &actual).expect("write regenerated fixture");
    let (line, want, got) = FIXTURE
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, a))| w != a)
        .map(|(i, (w, a))| (i + 1, w, a))
        .unwrap_or((0, "<line count differs>", ""));
    panic!(
        "fleet diverged from golden_fleet.txt at line {line}:\n  want {want}\n  got  {got}\n\
         regenerated fixture: {}",
        path.display()
    );
}
