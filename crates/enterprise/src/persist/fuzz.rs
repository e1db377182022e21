//! Mutation fuzzer for the one persisted format.
//!
//! Every state file is a record log, so one mutation engine covers them
//! all. For one device, a 1-D ×4 fleet and a 2×2 grid, a pristine state
//! directory is built once: a layout, a checkpoint log holding a keyframe
//! and a delta, and a batch ledger holding outcomes (and, on a fleet, a
//! fleet record). Each case copies it, mutates one file — or, in the last
//! cases, two different files, such as the layout and the checkpoint — at
//! one of two depths — raw bytes (a bit flip, a truncation, or a splice of
//! two files), or one decoded field set to an edge value with the log
//! re-encoded under valid checksums — and points a fresh fleet at it. The
//! header's version and driver-kind words decode only into a check, so
//! the decoded depth patches them into the header's re-encoded body. The
//! oracle: setup is a typed error or a fleet; a traversal is a typed error
//! or oracle-correct levels with audit-valid parents; a batch stays
//! `accounted()` and every source it runs is oracle-correct (replayed
//! outcomes are taken as recorded). A panic or a wrong result fails the
//! test and names the seed and every file and mutation of the case. The
//! 1-D ×4 and 2×2 cases step half their devices on the fleet's worker
//! thread, and a panic there reaches the case's `catch_unwind` like one
//! on the calling thread.

use super::*;
use crate::multi_gpu::{Fleet, FleetConfig, Shape};
use crate::validate::{audit, cpu_levels};
use crate::{BatchPolicy, BatchSource, WatchdogPolicy};
use enterprise_graph::gen::road_grid;
use enterprise_graph::VertexId;
use sim_rng::DetRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const FILES: [&str; 3] = [LAYOUT_FILE, CHECKPOINT_FILE, BATCH_FILE];
/// The traversal the checkpoint log belongs to.
const SOURCE: VertexId = 1;
/// The fuzzed batch: the pristine ledger holds the first two outcomes, so
/// the batch replays them and runs the third.
const BATCH: [VertexId; 3] = [1, 30, 77];
/// One-file mutations per shape.
const CASES: u64 = 64;
/// Two-file mutations per shape, run after the one-file cases.
const PAIR_CASES: u64 = 16;

/// The fuzzed fleet's configuration. The sanitizer is pinned off, as in
/// any environment: the target is the parser, and a device access out of
/// bounds panics without it.
fn config(shape: Shape, dir: &Path, max_levels: Option<u32>) -> FleetConfig<Shape> {
    FleetConfig {
        hub_cache_entries: 64,
        sanitize: false,
        persist: Some(PersistPolicy::with_checkpoints(dir, 1)),
        watchdog: WatchdogPolicy { max_levels, ..WatchdogPolicy::default() },
        ..FleetConfig::k40s_over(shape)
    }
}

fn sources(ids: &[VertexId]) -> Vec<BatchSource> {
    ids.iter().map(|&s| BatchSource::new(s)).collect()
}

/// A degraded placement of `shape` over `n` vertices: the last device of
/// a 1-D fleet spliced onto its neighbour, or on a 2×2 grid device 1's
/// columns absorbed by device 0.
fn degraded(shape: Shape, n: usize) -> FleetRecord {
    let (boundaries, evicted) = match shape {
        Shape::Slices(4) => {
            let strip = |lo, hi| (lo * n / 4..hi * n / 4, lo * n / 4..hi * n / 4);
            (vec![strip(0, 1), strip(1, 2), strip(2, 4), strip(3, 4)], vec![3])
        }
        Shape::Grid(2, 2) => {
            let (lo, hi) = (0..n / 2, n / 2..n);
            let blocks = vec![
                (0..n, lo.clone()),
                (hi.clone(), lo),
                (0..n / 2, hi.clone()),
                (hi.clone(), hi),
            ];
            (blocks, vec![1])
        }
        other => unreachable!("no degraded placement for {other:?}"),
    };
    FleetRecord { evicted, boundaries, verdicts: vec![] }
}

/// Builds the pristine state directory of `shape`: a batch of two leaves
/// the ledger and the layout, a fleet record is appended on a fleet, and
/// a traversal that dies after level 2 leaves `[Header, Keyframe, Delta]`.
fn pristine(shape: Shape, g: &Csr, dir: &Path) -> Vec<Vec<u8>> {
    let _ = fs::remove_dir_all(dir);
    let report =
        Fleet::new(config(shape, dir, None), g).batch(&sources(&BATCH[..2]), &BatchPolicy::on());
    assert_eq!(report.completed(), 2, "{shape:?}: pristine batch");
    if shape != Shape::Slices(1) {
        let header = Header { kind: Fleet::kind_of(shape), fingerprint: GraphFingerprint::of(g) };
        let mut store = SnapshotStore::open(dir, None, header).unwrap();
        store.append(BATCH_FILE, &encode(&degraded(shape, g.vertex_count()))).unwrap();
    }
    assert!(Fleet::new(config(shape, dir, Some(2)), g).try_bfs(SOURCE).is_err());
    let files: Vec<Vec<u8>> = FILES.iter().map(|f| fs::read(dir.join(f)).unwrap()).collect();
    let records = |bytes: &[u8]| scan(bytes).0.len();
    assert_eq!(records(&files[1]), 3, "{shape:?}: header, keyframe, delta");
    files
}

/// A settable scalar inside a decoded record.
enum Slot<'a> {
    U32(&'a mut u32),
    U64(&'a mut u64),
    Index(&'a mut usize),
    /// A `u32` word of the encoded body at this byte offset of the
    /// payload: a header word that decodes only into a check.
    Encoded(usize),
}

impl Slot<'_> {
    /// Sets the slot to `v`, or returns the payload offset of an
    /// [`Slot::Encoded`] word, to be patched after re-encoding.
    fn set(self, v: u64) -> Option<usize> {
        match self {
            Slot::U32(x) => *x = v as u32,
            Slot::U64(x) => *x = v,
            Slot::Index(x) => *x = v as usize,
            Slot::Encoded(at) => return Some(at),
        }
        None
    }
}

type Slots<'a> = Vec<(&'static str, Slot<'a>)>;

fn words<'a>(out: &mut Slots<'a>, name: &'static str, words: &'a mut [u32]) {
    out.extend(words.iter_mut().map(|w| (name, Slot::U32(w))));
}

fn pairs<'a>(out: &mut Slots<'a>, name: &'static str, pairs: &'a mut [(u32, u32)]) {
    for (i, v) in pairs {
        out.push((name, Slot::U32(i)));
        out.push((name, Slot::U32(v)));
    }
}

fn placement<'a>(out: &mut Slots<'a>, extents: &'a mut [Extents], evicted: &'a mut [u32]) {
    for (td, bu) in extents {
        let (Range { start: a, end: b }, Range { start: c, end: d }) = (td, bu);
        out.extend([a, b, c, d].map(|x| ("extent", Slot::Index(x))));
    }
    words(out, "evicted", evicted);
}

fn vars<'a>(out: &mut Slots<'a>, level: &'a mut u32, vars: &'a mut LoopVars) {
    out.push(("level", Slot::U32(level)));
    if let Some(s) = vars.switched_at.as_mut() {
        out.push(("switched_at", Slot::U32(s)));
    }
    out.push(("visited_edge_sum", Slot::U64(&mut vars.visited_edge_sum)));
    out.push(("prev_frontier_edges", Slot::U64(&mut vars.prev_frontier_edges)));
}

/// Every scalar field of a decoded record, named.
fn slots(rec: &mut Record) -> Slots<'_> {
    let mut out = Vec::new();
    match rec {
        Record::Header(h) => {
            // The payload is the tag, then the version and kind words.
            out.push(("version", Slot::Encoded(4)));
            out.push(("kind", Slot::Encoded(8)));
            let fp = &mut h.fingerprint;
            out.push(("fingerprint", Slot::U64(&mut fp.vertices)));
            out.push(("fingerprint", Slot::U64(&mut fp.edges)));
            out.push(("fingerprint", Slot::U64(&mut fp.structure)));
        }
        Record::Layout(l) => {
            out.push(("hub_tau", Slot::U32(&mut l.hub_tau)));
            out.push(("grid", Slot::U32(&mut l.grid.0)));
            out.push(("grid", Slot::U32(&mut l.grid.1)));
            placement(&mut out, &mut l.slices, &mut l.evicted);
        }
        Record::Keyframe(k) => {
            out.push(("source", Slot::U32(&mut k.source)));
            vars(&mut out, &mut k.level, &mut k.vars);
            placement(&mut out, &mut k.extents, &mut k.evicted);
            for dev in &mut k.devices {
                words(&mut out, "status", &mut dev.status);
                words(&mut out, "parent", &mut dev.parent);
                for q in &mut dev.queues {
                    words(&mut out, "queue", q);
                }
                words(&mut out, "hub_src", &mut dev.hub_src);
            }
        }
        Record::Delta(d) => {
            vars(&mut out, &mut d.level, &mut d.vars);
            for dev in &mut d.devices {
                pairs(&mut out, "status", &mut dev.status);
                pairs(&mut out, "parent", &mut dev.parent);
                for q in &mut dev.queues {
                    words(&mut out, "queue", q);
                }
                pairs(&mut out, "hub_src", &mut dev.hub_src);
            }
        }
        Record::Outcome(o) => {
            for (name, v) in [
                ("index", &mut o.index),
                ("source", &mut o.source),
                ("priority", &mut o.priority),
                ("outcome", &mut o.outcome),
                ("attempts", &mut o.attempts),
            ] {
                out.push((name, Slot::U32(v)));
            }
            out.push(("digest", Slot::U64(&mut o.digest)));
        }
        Record::Fleet(f) => {
            placement(&mut out, &mut f.boundaries, &mut f.evicted);
            pairs(&mut out, "verdicts", &mut f.verdicts);
        }
    }
    out
}

fn encode_record(rec: &Record) -> Vec<u8> {
    match rec {
        Record::Header(b) => encode(b),
        Record::Layout(b) => encode(b),
        Record::Keyframe(b) => encode(b),
        Record::Delta(b) => encode(b),
        Record::Outcome(b) => encode(b),
        Record::Fleet(b) => encode(b),
    }
}

/// Applies one seeded mutation to file `target` of `files`, returning the
/// mutated bytes and a description of what changed.
fn mutate(rng: &mut DetRng, files: &[Vec<u8>], target: usize, n: usize) -> (Vec<u8>, String) {
    let mut bytes = files[target].clone();
    let len = bytes.len();
    match rng.gen_index(5) {
        0 => {
            let bit = rng.gen_index(len * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            (bytes, format!("bit flip at bit {bit}"))
        }
        1 => {
            let keep = rng.gen_index(len);
            bytes.truncate(keep);
            (bytes, format!("truncation to {keep} bytes"))
        }
        2 => {
            let donor = rng.gen_index(files.len());
            let cut = rng.gen_index(len + 1);
            let from = rng.gen_index(files[donor].len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&files[donor][from..]);
            (bytes, format!("splice at {cut} with {}[{from}..]", FILES[donor]))
        }
        _ => {
            let mut records: Vec<Record> =
                scan(&files[target]).0.into_iter().map(|p| Record::decode(p).unwrap()).collect();
            let r = rng.gen_index(records.len());
            let value = [0, n as u64 - 1, n as u64, u32::MAX as u64, u64::MAX][rng.gen_index(5)];
            let mut fields = slots(&mut records[r]);
            let (name, slot) = fields.swap_remove(rng.gen_index(fields.len()));
            let patch = slot.set(value);
            let mut bytes = Vec::new();
            for (i, rec) in records.iter().enumerate() {
                let mut payload = encode_record(rec);
                if let Some(at) = patch.filter(|_| i == r) {
                    payload[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
                }
                frame(&mut bytes, &payload);
            }
            (bytes, format!("record {r} field {name} = {value}"))
        }
    }
}

/// The oracle over one mutated state directory.
fn check(shape: Shape, g: &Csr, dir: &Path) -> Result<(), String> {
    let correct = |source: VertexId, levels: &[Option<u32>], parents: &[Option<VertexId>]| {
        if levels != cpu_levels(g, source) {
            return Err(format!("source {source}: levels differ from the oracle"));
        }
        audit(g, source, levels, parents).map_err(|e| format!("source {source}: {e}"))
    };
    let Ok(mut fleet) = Fleet::try_new(config(shape, dir, None), g) else { return Ok(()) };
    if let Ok(r) = fleet.try_bfs(SOURCE) {
        correct(SOURCE, &r.levels, &r.parents)?;
    }
    let report = fleet.batch(&sources(&BATCH), &BatchPolicy::on());
    if !report.accounted() {
        return Err("batch is not accounted".into());
    }
    for run in &report.runs {
        if let Some(r) = &run.result {
            correct(run.source, &r.levels, &r.parents)?;
        }
    }
    Ok(())
}

fn fuzz(shape: Shape, tag: &str) {
    let g = road_grid(12, 12, 0.05, 7);
    let root = std::env::temp_dir().join(format!("enterprise-fuzz-{tag}-{}", std::process::id()));
    let files = pristine(shape, &g, &root.join("pristine"));
    let case_dir = root.join("case");
    let mut failures = Vec::new();
    for seed in 0..CASES + PAIR_CASES {
        let mut rng = DetRng::seed_from_u64(seed);
        let first = rng.gen_index(FILES.len());
        let mut targets = vec![first];
        if seed >= CASES {
            targets.push((first + 1 + rng.gen_index(FILES.len() - 1)) % FILES.len());
        }
        let mut case = files.clone();
        let mut whats = Vec::new();
        for target in targets {
            let (bytes, what) = mutate(&mut rng, &files, target, g.vertex_count());
            case[target] = bytes;
            whats.push(format!("{}: {what}", FILES[target]));
        }
        let _ = fs::remove_dir_all(&case_dir);
        fs::create_dir_all(&case_dir).unwrap();
        for (name, bytes) in FILES.iter().zip(&case) {
            fs::write(case_dir.join(name), bytes).unwrap();
        }
        let verdict = catch_unwind(AssertUnwindSafe(|| check(shape, &g, &case_dir)))
            .unwrap_or_else(|_| Err("panicked".into()));
        if let Err(e) = verdict {
            failures.push(format!("seed {seed}, {}: {e}", whats.join(" + ")));
        }
    }
    let _ = fs::remove_dir_all(&root);
    assert!(failures.is_empty(), "{tag}: {} failures:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn fuzz_one_device() {
    fuzz(Shape::Slices(1), "single");
}

#[test]
fn fuzz_one_d_fleet() {
    fuzz(Shape::Slices(4), "1d4");
}

#[test]
fn fuzz_grid() {
    fuzz(Shape::Grid(2, 2), "2x2");
}
