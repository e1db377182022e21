//! Crash-consistent persistence plane: durable snapshots of learned state.
//!
//! Long multi-source campaigns amortize expensive decisions — rebalanced
//! partition boundaries, the measured hub-cache population, a
//! mid-traversal checkpoint, a batch's finished outcomes — across many BFS
//! runs. All of that state lives in host memory and dies with the process.
//! This module serializes it to small versioned, checksummed files so a
//! restarted process can warm-start instead of re-deriving everything.
//!
//! **One format.** Every file is a record log: a sequence of frames
//! `REC_MAGIC ‖ payload_len(u32 LE) ‖ fnv1a64(payload)(u64 LE) ‖ payload`
//! whose first record is a header naming the [`FORMAT_VERSION`], the
//! [`DriverKind`] and the [`GraphFingerprint`] the log was written for.
//! One scanner reads every file, and one header check rejects a log of
//! another version ([`PersistError::VersionMismatch`]), driver kind
//! ([`PersistError::LayoutMismatch`]) or graph
//! ([`PersistError::GraphMismatch`]):
//!
//! - `layout.snap` is `[Header, Layout]`;
//! - `checkpoint.snap` is `[Header, Keyframe, Delta…]`: each delta diffs
//!   against the record before it, and a restore folds the intact deltas
//!   over the keyframe in order. A keyframe is the driver's level
//!   checkpoint itself — one device image (`state::DeviceImage`) per
//!   device — so what a level replay restores and what a restart resumes
//!   are the same record;
//! - `batch.snap` is `[Header, (Outcome | Fleet)…]`.
//!
//! **Durability.** A whole log — a layout, a keyframe, a fresh ledger — is
//! written to a temporary file in the same directory and published with an
//! atomic `rename`; a delta or a ledger record is appended. A torn write
//! (modeled by the gpu-sim storage fault plane) keeps a strict prefix of
//! one write's bytes; at-rest corruption flips a single bit on read. The
//! scan stops at the first damaged frame, so damage costs the tail of a
//! log, and a log missing a record it must hold is a typed error. Drivers
//! translate every error into a cold start, and a resumed checkpoint must
//! also pass value checks and the end-of-run audit: never a panic, never a
//! wrong result.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::ops::Range;
use std::path::PathBuf;

use crate::kernels::Direction;
use crate::multi_gpu::LoopVars;
use crate::state::DeviceImage;
use enterprise_graph::Csr;
use gpu_sim::{FaultPlan, FaultSpec, FaultStats};

/// On-disk format version. Bump on any incompatible layout change; a log
/// whose header carries another version fails with
/// [`PersistError::VersionMismatch`] and the driver cold-starts. Version 2
/// added degraded-fleet eviction records and delta checkpoints; version 3
/// made the batch ledger an append-only record log; version 4 dropped
/// fields the extents' tiling and the eviction list imply. Version 5 makes
/// every file a record log under one header, and a checkpoint chain one
/// log of a keyframe and the deltas appended after it. Version 6 drops the
/// link-isolated count from the batch log's fleet record, which lists the
/// dead devices in ascending order. Version 7 drops the bottom-up queue's
/// edge sum from the loop state: it is the edge count minus the visited
/// edge sum. Version 8 drops the hub census from the layout: the fleet
/// counts `T_h` from the graph at setup.
pub const FORMAT_VERSION: u32 = 8;

/// Magic prefix of every record frame.
pub const REC_MAGIC: [u8; 4] = *b"ENTL";

/// Fixed byte size of a record frame's header:
/// `REC_MAGIC(4) ‖ payload_len(u32) ‖ fnv1a64(payload)(u64)`.
const REC_HEADER_LEN: usize = 16;

/// Fault-plan stream id for storage faults, distinct from any device stream
/// (device streams are small indices; this keeps the storage RNG decoupled
/// from per-device draws so arming storage faults never perturbs them).
const STORAGE_STREAM: u64 = 0x51A6_E5E5;

/// Most devices a persisted placement may name: a corrupt count must not
/// cause a huge allocation.
const MAX_DEVICES: usize = 4096;

/// File name of the layout log inside a state directory.
pub(crate) const LAYOUT_FILE: &str = "layout.snap";
/// File name of the checkpoint log inside a state directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint.snap";
/// File name of the batch outcome ledger inside a state directory: one
/// record per terminal per-source outcome, interleaved with fleet-shape
/// records when the browned-out fleet changes, so a killed batch restarts,
/// replays the intact prefix, and resumes from the first unfinished source
/// on the surviving fleet.
pub(crate) const BATCH_FILE: &str = "batch.snap";
/// A full keyframe is forced after this many consecutive deltas, which
/// bounds the chain a restore folds and a torn delta can hide.
pub(crate) const KEYFRAME_EVERY: u32 = 8;

/// Typed failure of a persistence operation. Every variant is recoverable:
/// drivers record it in `RecoveryReport::snapshot_errors` and cold-start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Underlying filesystem operation failed (message preserved).
    Io(String),
    /// A frame ends before its header or its declared payload does, or a
    /// log ends before a record it must hold (a torn write kept a strict
    /// prefix).
    Truncated,
    /// A frame does not start with [`REC_MAGIC`]: not a record log of this
    /// format at all.
    BadMagic,
    /// The log's header was written by another format version.
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// A frame's payload checksum does not match (bit rot / corruption).
    ChecksumMismatch,
    /// The log was written for a different graph than the one loaded now.
    GraphMismatch,
    /// Checkpoint was taken for a different BFS source vertex.
    SourceMismatch,
    /// The log is incompatible with the current driver configuration
    /// (different driver kind, device count, grid shape, or buffer sizes).
    LayoutMismatch,
    /// A record decoded to structurally invalid data, or a checkpoint
    /// failed its value checks or its resumed traversal's audit (message
    /// says what).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            PersistError::Truncated => write!(f, "snapshot truncated (torn write?)"),
            PersistError::BadMagic => write!(f, "snapshot has bad magic"),
            PersistError::VersionMismatch { found } => {
                write!(f, "snapshot format version {found} != {FORMAT_VERSION}")
            }
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            PersistError::GraphMismatch => write!(f, "snapshot was taken on a different graph"),
            PersistError::SourceMismatch => {
                write!(f, "checkpoint was taken for a different source")
            }
            PersistError::LayoutMismatch => {
                write!(f, "snapshot layout incompatible with current configuration")
            }
            PersistError::Corrupt(msg) => write!(f, "snapshot payload corrupt: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

fn corrupt(msg: &str) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Opt-in persistence configuration for a BFS driver.
#[derive(Clone, Debug)]
pub struct PersistPolicy {
    /// Directory holding the snapshot files. Created on open if missing.
    pub state_dir: PathBuf,
    /// When `Some(every)`, a mid-traversal checkpoint is persisted at each
    /// level boundary where `level % every == 0` (level > 0). `None` persists
    /// only the learned layout at the end of each successful run.
    pub checkpoint_levels: Option<u32>,
}

impl PersistPolicy {
    /// Persist only the learned layout (partition boundaries); no
    /// mid-traversal checkpoints.
    pub fn layout_only(state_dir: impl Into<PathBuf>) -> Self {
        PersistPolicy { state_dir: state_dir.into(), checkpoint_levels: None }
    }

    /// Persist the layout plus a durable checkpoint every `every` levels.
    pub fn with_checkpoints(state_dir: impl Into<PathBuf>, every: u32) -> Self {
        PersistPolicy { state_dir: state_dir.into(), checkpoint_levels: Some(every.max(1)) }
    }
}

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty to detect torn
/// writes and single-bit rot (the storage fault model injects exactly those).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Structural identity of a graph, used to reject stale snapshots taken on a
/// different graph. Hashes the full adjacency (O(E)) so even same-shape
/// graphs with different edges are distinguished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphFingerprint {
    /// Vertex count.
    pub vertices: u64,
    /// Directed edge count.
    pub edges: u64,
    /// FNV-1a hash over the degree sequence and adjacency lists.
    pub structure: u64,
}

impl GraphFingerprint {
    /// Fingerprint a CSR graph.
    pub fn of(csr: &Csr) -> Self {
        let mut enc = Enc::new();
        for v in 0..csr.vertex_count() {
            enc.u32(csr.out_degree(v as u32));
        }
        for v in 0..csr.vertex_count() {
            for &t in csr.out_neighbors(v as u32) {
                enc.u32(t);
            }
        }
        GraphFingerprint {
            vertices: csr.vertex_count() as u64,
            edges: csr.edge_count(),
            structure: fnv1a64(&enc.buf),
        }
    }
}

/// Which fleet shape wrote a snapshot. Restores are only valid into the
/// same kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverKind {
    /// One device.
    Single,
    /// 1-D slices over several devices.
    OneD,
    /// A 2-D grid of several devices.
    TwoD,
}

impl DriverKind {
    fn to_u32(self) -> u32 {
        match self {
            DriverKind::Single => 0,
            DriverKind::OneD => 1,
            DriverKind::TwoD => 2,
        }
    }

    fn from_u32(v: u32) -> Result<Self, PersistError> {
        match v {
            0 => Ok(DriverKind::Single),
            1 => Ok(DriverKind::OneD),
            2 => Ok(DriverKind::TwoD),
            other => Err(PersistError::Corrupt(format!("unknown driver kind {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// The store: one scanner, one header check.
// ---------------------------------------------------------------------------

/// Durable store over one state directory, bound to the header that every
/// log it writes starts with and every log it reads must carry.
///
/// Owns the storage-fault plan (torn writes on write, at-rest corruption on
/// read) so the same seeded `FaultSpec` that drives device faults also
/// drives storage faults deterministically, on an independent RNG stream.
pub(crate) struct SnapshotStore {
    dir: PathBuf,
    plan: Option<FaultPlan>,
    /// Faults drawn by plans [`SnapshotStore::rearm`] replaced, not yet
    /// drained by [`SnapshotStore::take_stats`].
    drawn: FaultStats,
    header: Header,
}

/// The records of one log after its header, and the damage that ended the
/// scan early, if any.
pub(crate) struct Log {
    pub records: Vec<Record>,
    pub damage: Option<PersistError>,
}

/// Why a log lacks a record it must hold: the `damage` that cut it short,
/// or a clean end that came too soon.
fn missing(damage: Option<PersistError>) -> PersistError {
    damage.unwrap_or(PersistError::Truncated)
}

impl SnapshotStore {
    /// Opens (creating if needed) a store over `dir` for logs of `header`.
    /// When `faults` is `Some`, storage faults draw from its seeded plan on
    /// a dedicated stream; zero rates never touch the RNG (strict no-op).
    pub(crate) fn open(
        dir: impl Into<PathBuf>,
        faults: Option<&FaultSpec>,
        header: Header,
    ) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let plan = faults.map(|spec| FaultPlan::for_stream(*spec, STORAGE_STREAM));
        Ok(SnapshotStore { dir, plan, drawn: FaultStats::default(), header })
    }

    /// Re-arms storage faults from `spec`'s seed, so every run of a driver
    /// draws its own sequence whatever the runs before it wrote. The faults
    /// the old plan drew stay counted until the next drain.
    pub(crate) fn rearm(&mut self, spec: &FaultSpec) {
        self.drawn = self.take_stats();
        self.plan = Some(FaultPlan::for_stream(*spec, STORAGE_STREAM));
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The bytes one write actually lands: all of `bytes`, or a strict
    /// prefix when an armed torn-write fault fires (one draw per write,
    /// modeling a crash between the write and a flush).
    fn land(&mut self, mut bytes: Vec<u8>) -> Vec<u8> {
        if let Some(keep) = self.plan.as_mut().and_then(|p| p.draw_torn_write(bytes.len())) {
            bytes.truncate(keep);
        }
        bytes
    }

    /// Publishes log `name` whole — the header, then `payloads` — via
    /// write-temp-then-atomic-rename: a crash leaves the old log, the new
    /// log, or a stray temp file, never a mix under the published name.
    pub(crate) fn rewrite(&mut self, name: &str, payloads: &[Vec<u8>]) -> Result<(), PersistError> {
        let header = encode(&self.header);
        let records = std::iter::once(&header).chain(payloads);
        let mut log = Vec::with_capacity(records.clone().map(|p| REC_HEADER_LEN + p.len()).sum());
        for payload in records {
            frame(&mut log, payload);
        }
        let log = self.land(log);
        let tmp = self.path_of(&format!("{name}.tmp"));
        fs::write(&tmp, &log)?;
        fs::rename(&tmp, self.path_of(name))?;
        Ok(())
    }

    /// Appends one record to the existing log `name`. A torn append damages
    /// only its own bytes, so the records before it stay intact.
    pub(crate) fn append(&mut self, name: &str, payload: &[u8]) -> Result<(), PersistError> {
        let mut bytes = Vec::with_capacity(REC_HEADER_LEN + payload.len());
        frame(&mut bytes, payload);
        let bytes = self.land(bytes);
        fs::OpenOptions::new().append(true).open(self.path_of(name))?.write_all(&bytes)?;
        Ok(())
    }

    /// Reads log `name`; `Ok(None)` means it does not exist (a cold start,
    /// not an error). An armed at-rest corruption fault flips one bit of the
    /// image first. The scan keeps every intact record up to the first
    /// damaged frame; the first record must be a header of this store's
    /// version, driver kind and graph. A damaged tail of a matching log is
    /// cut off the file, so later appends extend intact records only.
    pub(crate) fn read(&mut self, name: &str) -> Result<Option<Log>, PersistError> {
        let mut bytes = match fs::read(self.path_of(name)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if let Some(bit) = self.plan.as_mut().and_then(|p| p.draw_snapshot_corruption(bytes.len()))
        {
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let (payloads, intact, damage) = scan(&bytes);
        let mut records = payloads.into_iter().map(Record::decode);
        let header = match records.next().transpose()? {
            Some(Record::Header(h)) => h,
            Some(_) => return Err(corrupt("log does not start with a header")),
            None => return Err(missing(damage)),
        };
        if header.kind != self.header.kind {
            return Err(PersistError::LayoutMismatch);
        }
        if header.fingerprint != self.header.fingerprint {
            return Err(PersistError::GraphMismatch);
        }
        let records = records.collect::<Result<Vec<_>, _>>()?;
        if intact < bytes.len() {
            fs::OpenOptions::new().write(true).open(self.path_of(name))?.set_len(intact as u64)?;
        }
        Ok(Some(Log { records, damage }))
    }

    /// Remove a log if present (missing file is not an error).
    pub(crate) fn remove(&mut self, name: &str) -> Result<(), PersistError> {
        match fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Drain accumulated storage fault statistics (torn writes, corrupted
    /// snapshots) without disturbing the RNG position.
    pub(crate) fn take_stats(&mut self) -> FaultStats {
        let mut stats = std::mem::take(&mut self.drawn);
        if let Some(plan) = self.plan.as_mut() {
            stats.merge(plan.stats());
            plan.reset_stats();
        }
        stats
    }
}

/// Appends the record frame holding `payload` to `out`.
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&REC_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The one scanner: splits a log image into its intact record payloads, in
/// order, stopping at the first damaged frame. Returns the payloads, the
/// byte length of the intact prefix, and the damage that stopped the scan.
fn scan(bytes: &[u8]) -> (Vec<&[u8]>, usize, Option<PersistError>) {
    let mut payloads = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() >= REC_MAGIC.len() && rest[..REC_MAGIC.len()] != REC_MAGIC {
            return (payloads, pos, Some(PersistError::BadMagic));
        }
        if rest.len() < REC_HEADER_LEN {
            return (payloads, pos, Some(PersistError::Truncated));
        }
        let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(rest[8..16].try_into().unwrap());
        let Some(payload) = rest.get(REC_HEADER_LEN..REC_HEADER_LEN + len) else {
            return (payloads, pos, Some(PersistError::Truncated));
        };
        if fnv1a64(payload) != checksum {
            return (payloads, pos, Some(PersistError::ChecksumMismatch));
        }
        payloads.push(payload);
        pos += REC_HEADER_LEN + len;
    }
    (payloads, pos, None)
}

// ---------------------------------------------------------------------------
// Byte codecs (little-endian, no external deps).
// ---------------------------------------------------------------------------

pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn range(&mut self, r: &Range<usize>) {
        self.u64(r.start as u64);
        self.u64(r.end as u64);
    }

    pub(crate) fn words(&mut self, words: &[u32]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.u32(w);
        }
    }

    fn pairs(&mut self, pairs: &[(u32, u32)]) {
        self.u64(pairs.len() as u64);
        for &(i, v) in pairs {
            self.u32(i);
            self.u32(v);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The one placement codec of layouts, checkpoints and fleet records:
    /// per-device `(td, bu)` extents, then the evicted device ids.
    fn placement(&mut self, extents: &[Extents], evicted: &[u32]) {
        self.u64(extents.len() as u64);
        for (td, bu) in extents {
            self.range(td);
            self.range(bu);
        }
        self.words(evicted);
    }

    /// The one loop-state codec of keyframes and deltas: the level, then
    /// the direction-switch bookkeeping.
    fn vars(&mut self, level: u32, vars: &LoopVars) {
        self.u32(level);
        self.boolean(vars.dir == Direction::BottomUp);
        self.boolean(vars.switched_at.is_some());
        self.u32(vars.switched_at.unwrap_or(0));
        self.boolean(vars.cache_filled);
        self.u64(vars.visited_edge_sum);
        self.u64(vars.prev_frontier_edges);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("payload shorter than declared"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn boolean(&mut self) -> Result<bool, PersistError> {
        Ok(self.take(1)?[0] != 0)
    }

    fn range(&mut self) -> Result<Range<usize>, PersistError> {
        let start = self.u64()? as usize;
        let end = self.u64()? as usize;
        if end < start {
            return Err(corrupt("inverted range"));
        }
        Ok(start..end)
    }

    /// A length prefix for items of `size` bytes, checked against the bytes
    /// left, so a corrupt length cannot cause a huge allocation.
    fn prefix(&mut self, size: usize) -> Result<usize, PersistError> {
        let len = self.u64()?;
        if len > ((self.buf.len() - self.pos) / size) as u64 {
            return Err(corrupt("vector length exceeds payload"));
        }
        Ok(len as usize)
    }

    pub(crate) fn words(&mut self) -> Result<Vec<u32>, PersistError> {
        let len = self.prefix(4)?;
        (0..len).map(|_| self.u32()).collect()
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, PersistError> {
        let len = self.prefix(8)?;
        (0..len).map(|_| Ok((self.u32()?, self.u32()?))).collect()
    }

    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.prefix(1)?;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| corrupt("string is not valid UTF-8"))
    }

    fn placement(&mut self) -> Result<(Vec<Extents>, Vec<u32>), PersistError> {
        let count = self.u64()?;
        if count > MAX_DEVICES as u64 {
            return Err(corrupt("implausible device count"));
        }
        let extents = (0..count)
            .map(|_| Ok((self.range()?, self.range()?)))
            .collect::<Result<Vec<Extents>, PersistError>>()?;
        let evicted = self.words()?;
        if evicted.iter().any(|&d| d as u64 >= count) {
            return Err(corrupt("evicted device out of range"));
        }
        Ok((extents, evicted))
    }

    fn vars(&mut self) -> Result<(u32, LoopVars), PersistError> {
        let level = self.u32()?;
        let bottom_up = self.boolean()?;
        let switched = self.boolean()?;
        let switch_level = self.u32()?;
        let vars = LoopVars {
            dir: if bottom_up { Direction::BottomUp } else { Direction::TopDown },
            switched_at: switched.then_some(switch_level),
            cache_filled: self.boolean()?,
            visited_edge_sum: self.u64()?,
            prev_frontier_edges: self.u64()?,
        };
        Ok((level, vars))
    }

    pub(crate) fn done(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(corrupt("trailing bytes in payload"));
        }
        Ok(())
    }
}

/// A device's `(td, bu)` scan extents.
pub(crate) type Extents = (Range<usize>, Range<usize>);

// ---------------------------------------------------------------------------
// Records: one codec for every file.
// ---------------------------------------------------------------------------

/// A record body: its tag and its codec.
pub(crate) trait Body: Sized {
    /// Leads the record payload, naming the body that follows.
    const TAG: u32;
    fn put(&self, enc: &mut Enc);
    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError>;
}

/// Encodes one record payload: the body's tag, then the body.
pub(crate) fn encode<T: Body>(body: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(T::TAG);
    body.put(&mut enc);
    enc.finish()
}

/// One decoded record of a log.
#[derive(Debug, PartialEq)]
pub(crate) enum Record {
    Header(Header),
    Layout(LayoutSnapshot),
    Keyframe(CheckpointSnapshot),
    Delta(CheckpointDelta),
    Outcome(BatchLedgerEntry),
    Fleet(FleetRecord),
}

impl Record {
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        fn body<T: Body>(dec: &mut Dec<'_>, wrap: fn(T) -> Record) -> Result<Record, PersistError> {
            T::get(dec).map(wrap)
        }
        let mut dec = Dec::new(payload);
        let rec = match dec.u32()? {
            Header::TAG => body(&mut dec, Record::Header),
            LayoutSnapshot::TAG => body(&mut dec, Record::Layout),
            CheckpointSnapshot::TAG => body(&mut dec, Record::Keyframe),
            CheckpointDelta::TAG => body(&mut dec, Record::Delta),
            BatchLedgerEntry::TAG => body(&mut dec, Record::Outcome),
            FleetRecord::TAG => body(&mut dec, Record::Fleet),
            t => Err(PersistError::Corrupt(format!("unknown record tag {t}"))),
        }?;
        dec.done()?;
        Ok(rec)
    }
}

/// The first record of every log: the driver kind and graph it was written
/// for, after the [`FORMAT_VERSION`], which leads its body so a header of
/// another format fails on it before any field that format may lay out
/// differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub kind: DriverKind,
    pub fingerprint: GraphFingerprint,
}

impl Body for Header {
    const TAG: u32 = 0;

    fn put(&self, enc: &mut Enc) {
        enc.u32(FORMAT_VERSION);
        enc.u32(self.kind.to_u32());
        enc.u64(self.fingerprint.vertices);
        enc.u64(self.fingerprint.edges);
        enc.u64(self.fingerprint.structure);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let found = dec.u32()?;
        if found != FORMAT_VERSION {
            return Err(PersistError::VersionMismatch { found });
        }
        let kind = DriverKind::from_u32(dec.u32()?)?;
        let fingerprint =
            GraphFingerprint { vertices: dec.u64()?, edges: dec.u64()?, structure: dec.u64()? };
        Ok(Header { kind, fingerprint })
    }
}

// ---------------------------------------------------------------------------
// Layout: learned partition boundaries.
// ---------------------------------------------------------------------------

/// The learned end-of-run layout: rebalanced partition boundaries (1-D
/// slices or 2-D blocks), grid shape, and the hub threshold τ it was
/// learned under. Restoring it lets a fresh process start from the
/// boundaries the previous process converged to; the extents' tiling
/// decides whether the devices hold strips or blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LayoutSnapshot {
    pub hub_tau: u32,
    /// (rows, cols) for 2-D; (1, device_count) for 1-D; (1, 1) for single.
    pub grid: (u32, u32),
    /// Per-device (td_range, bu_range) partition extents, device order.
    pub slices: Vec<Extents>,
    /// Devices permanently evicted in the run that learned this layout, in
    /// eviction order. When non-empty the layout is a *degraded-fleet*
    /// layout: the surviving devices' slices tile the vertex range by
    /// themselves (an evicted device's entry is its stale pre-eviction
    /// extent, kept only for positional indexing) and a warm restart
    /// re-evicts these devices to resume on the survivors.
    pub evicted: Vec<u32>,
}

impl Body for LayoutSnapshot {
    const TAG: u32 = 1;

    fn put(&self, enc: &mut Enc) {
        enc.u32(self.hub_tau);
        enc.u32(self.grid.0);
        enc.u32(self.grid.1);
        enc.placement(&self.slices, &self.evicted);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let hub_tau = dec.u32()?;
        let grid = (dec.u32()?, dec.u32()?);
        let (slices, evicted) = dec.placement()?;
        Ok(LayoutSnapshot { hub_tau, grid, slices, evicted })
    }
}

/// Reads the layout log, `[Header, Layout]`; `Ok(None)` means none exists.
pub(crate) fn read_layout(
    store: &mut SnapshotStore,
) -> Result<Option<LayoutSnapshot>, PersistError> {
    let Some(Log { records, damage }) = store.read(LAYOUT_FILE)? else { return Ok(None) };
    let mut records = records.into_iter();
    match (records.next(), records.next()) {
        (Some(Record::Layout(layout)), None) => Ok(Some(layout)),
        (None, _) => Err(missing(damage)),
        _ => Err(corrupt("layout log holds other records")),
    }
}

// ---------------------------------------------------------------------------
// Batch outcome ledger.
// ---------------------------------------------------------------------------

/// One terminal per-source outcome in the batch ledger. `index` is the
/// source's position in the submitted batch, so duplicate source ids in one
/// batch stay distinguishable and resume is order-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BatchLedgerEntry {
    pub index: u32,
    pub source: u32,
    pub priority: u32,
    /// `SourceOutcome` tag: 0 completed, 1 hedge win, 2 poisoned, 3 shed.
    pub outcome: u32,
    /// Runs executed for this source (including the hedge, if any).
    pub attempts: u32,
    /// FNV-1a digest of the result's levels + parents (0 when not ok).
    pub digest: u64,
    /// Rendered `BfsError` for poisoned entries, empty otherwise.
    pub error: String,
}

impl Body for BatchLedgerEntry {
    const TAG: u32 = 4;

    fn put(&self, enc: &mut Enc) {
        for v in [self.index, self.source, self.priority, self.outcome, self.attempts] {
            enc.u32(v);
        }
        enc.u64(self.digest);
        enc.str(&self.error);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let entry = BatchLedgerEntry {
            index: dec.u32()?,
            source: dec.u32()?,
            priority: dec.u32()?,
            outcome: dec.u32()?,
            attempts: dec.u32()?,
            digest: dec.u64()?,
            error: dec.str()?,
        };
        if entry.outcome > 3 {
            return Err(corrupt("unknown outcome tag"));
        }
        Ok(entry)
    }
}

/// The browned-out fleet shape at a point in a batch: which devices are
/// gone, the spliced partition extents the survivors run on, and the
/// learned hard-down link verdicts. Appended to the batch record log whenever
/// the shape changes, so a resumed batch re-evicts the same devices and
/// resumes on the survivors instead of a full fleet.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct FleetRecord {
    /// Evicted device ids, in ascending order.
    pub evicted: Vec<u32>,
    /// Per-device `(td, bu)` scan extents after splicing, positional over
    /// the full original fleet (evicted entries keep their last extents).
    pub boundaries: Vec<Extents>,
    /// Learned hard-down pair links, as `(a, b)` device-id pairs.
    pub verdicts: Vec<(u32, u32)>,
}

impl Body for FleetRecord {
    const TAG: u32 = 5;

    fn put(&self, enc: &mut Enc) {
        enc.placement(&self.boundaries, &self.evicted);
        enc.pairs(&self.verdicts);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let (boundaries, evicted) = dec.placement()?;
        Ok(FleetRecord { evicted, boundaries, verdicts: dec.pairs()? })
    }
}

/// The intact contents of a batch ledger, replayed for resume: the outcome
/// entries in log order and the *last* fleet record, if any (the fleet
/// shape when the previous process died).
#[derive(Debug, Default)]
pub(crate) struct BatchLogReplay {
    pub entries: Vec<BatchLedgerEntry>,
    pub fleet: Option<FleetRecord>,
}

/// Reads the batch ledger, `[Header, (Outcome | Fleet)…]`; `Ok(None)` means
/// none exists. A damaged tail has already been cut off by the scan.
pub(crate) fn read_ledger(
    store: &mut SnapshotStore,
) -> Result<Option<BatchLogReplay>, PersistError> {
    let Some(log) = store.read(BATCH_FILE)? else { return Ok(None) };
    let mut replay = BatchLogReplay::default();
    for record in log.records {
        match record {
            Record::Outcome(e) => replay.entries.push(e),
            Record::Fleet(f) => replay.fleet = Some(f),
            _ => return Err(corrupt("batch log holds other records")),
        }
    }
    Ok(Some(replay))
}

// ---------------------------------------------------------------------------
// Checkpoint log: a keyframe, then deltas.
// ---------------------------------------------------------------------------

/// A checkpoint at a level boundary: everything needed to replay the level
/// or to resume the BFS there in a fresh process — one device image per
/// device (status, parents, live queues, hub table) and the
/// direction-switch bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CheckpointSnapshot {
    pub source: u32,
    /// Level the checkpoint was taken at (resume executes this level next).
    pub level: u32,
    pub vars: LoopVars,
    /// Per-device `(td, bu)` scan extents, device order.
    pub extents: Vec<Extents>,
    /// Devices already evicted when this checkpoint was taken, in eviction
    /// order. Their positional images are empty (only survivors are
    /// installed); a resuming process re-evicts them and rebuilds the
    /// survivors to the spliced `extents`.
    pub evicted: Vec<u32>,
    pub devices: Vec<DeviceImage>,
}

impl Body for CheckpointSnapshot {
    const TAG: u32 = 2;

    fn put(&self, enc: &mut Enc) {
        enc.u32(self.source);
        enc.vars(self.level, &self.vars);
        enc.placement(&self.extents, &self.evicted);
        for dev in &self.devices {
            enc.words(&dev.status);
            enc.words(&dev.parent);
            for q in &dev.queues {
                enc.words(q);
            }
            enc.words(&dev.hub_src);
        }
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let source = dec.u32()?;
        let (level, vars) = dec.vars()?;
        let (extents, evicted) = dec.placement()?;
        let devices = extents
            .iter()
            .map(|_| {
                Ok(DeviceImage {
                    status: dec.words()?,
                    parent: dec.words()?,
                    queues: [dec.words()?, dec.words()?, dec.words()?, dec.words()?],
                    hub_src: dec.words()?,
                })
            })
            .collect::<Result<_, PersistError>>()?;
        Ok(CheckpointSnapshot { source, level, vars, extents, evicted, devices })
    }
}

impl CheckpointSnapshot {
    /// The value checks a checkpoint passes before any of it is used, on
    /// `csr` with `hub_entries` hub-cache slots per device. Wrong sizes are
    /// a layout mismatch: every live device's images are full-size. Wrong
    /// values are corruption:
    ///
    /// - the level is below the vertex count, and each edge sum is at most
    ///   the edge count;
    /// - each status word is `UNVISITED` or at most the level;
    /// - each parent and hub entry names a vertex or is its sentinel;
    /// - each queue entry lies in the device's scan range for the
    ///   checkpoint's direction (`td` top-down, `bu` bottom-up).
    pub(crate) fn check(&self, csr: &Csr, hub_entries: usize) -> Result<(), PersistError> {
        use crate::state::HUB_EMPTY;
        use crate::status::{NO_PARENT, UNVISITED};
        let n = csr.vertex_count();
        let vars = &self.vars;
        if self.level as usize >= n
            || vars.visited_edge_sum.max(vars.prev_frontier_edges) > csr.edge_count()
        {
            return Err(corrupt("loop state out of range"));
        }
        let vertex_or = |sentinel: u32| move |&v: &u32| (v as usize) < n || v == sentinel;
        for (d, (dev, (td, bu))) in self.devices.iter().zip(&self.extents).enumerate() {
            if self.evicted.contains(&(d as u32)) {
                continue;
            }
            let fits = dev.status.len() == n
                && dev.parent.len() == n
                && dev.hub_src.len() == hub_entries
                && dev.queues.iter().all(|q| q.len() <= n);
            if !fits {
                return Err(PersistError::LayoutMismatch);
            }
            let scanned = if vars.dir == Direction::BottomUp { bu } else { td };
            let valid = dev.status.iter().all(|&s| s == UNVISITED || s <= self.level)
                && dev.parent.iter().all(vertex_or(NO_PARENT))
                && dev.hub_src.iter().all(vertex_or(HUB_EMPTY))
                && dev.queues.iter().flatten().all(|&v| scanned.contains(&(v as usize)));
            if !valid {
                return Err(PersistError::Corrupt(format!("device {d} image out of range")));
            }
        }
        Ok(())
    }
}

/// A checkpoint stored as a diff against the one before it in the log: the
/// new level and loop state, and per device sparse `(index, value)` diffs
/// of the status, parent and hub images, with the queues whole (they turn
/// over entirely each level, so sparseness buys nothing).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CheckpointDelta {
    pub level: u32,
    pub vars: LoopVars,
    pub devices: Vec<DeviceDelta>,
}

/// One device's part of a [`CheckpointDelta`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct DeviceDelta {
    pub status: Vec<(u32, u32)>,
    pub parent: Vec<(u32, u32)>,
    pub queues: [Vec<u32>; 4],
    pub hub_src: Vec<(u32, u32)>,
}

/// Sparse word diff: the `(index, new_value)` pairs where `new` differs from
/// `old`. `None` when the vectors have different lengths (not diffable).
fn sparse_diff(old: &[u32], new: &[u32]) -> Option<Vec<(u32, u32)>> {
    (old.len() == new.len()).then(|| {
        old.iter()
            .zip(new)
            .enumerate()
            .filter(|(_, (o, n))| o != n)
            .map(|(i, (_, n))| (i as u32, *n))
            .collect()
    })
}

/// Overwrites `img` at each diffed index.
fn patch(img: &mut [u32], pairs: &[(u32, u32)]) -> Result<(), PersistError> {
    for &(i, v) in pairs {
        *img.get_mut(i as usize).ok_or_else(|| corrupt("delta index out of range"))? = v;
    }
    Ok(())
}

impl CheckpointDelta {
    /// `snap` as a diff against `prev`, or `None` when the two differ in
    /// anything a delta does not carry — source, placement, image sizes —
    /// and `snap` must be a keyframe.
    pub(crate) fn between(prev: &CheckpointSnapshot, snap: &CheckpointSnapshot) -> Option<Self> {
        if prev.source != snap.source
            || prev.extents != snap.extents
            || prev.evicted != snap.evicted
            || prev.devices.len() != snap.devices.len()
        {
            return None;
        }
        let devices = prev
            .devices
            .iter()
            .zip(&snap.devices)
            .map(|(p, s)| {
                Some(DeviceDelta {
                    status: sparse_diff(&p.status, &s.status)?,
                    parent: sparse_diff(&p.parent, &s.parent)?,
                    queues: s.queues.clone(),
                    hub_src: sparse_diff(&p.hub_src, &s.hub_src)?,
                })
            })
            .collect::<Option<_>>()?;
        Some(CheckpointDelta { level: snap.level, vars: snap.vars.clone(), devices })
    }

    /// Folds this delta over the checkpoint before it.
    fn apply(self, snap: &mut CheckpointSnapshot) -> Result<(), PersistError> {
        if self.devices.len() != snap.devices.len() {
            return Err(corrupt("delta device count mismatch"));
        }
        snap.level = self.level;
        snap.vars = self.vars;
        for (dev, delta) in snap.devices.iter_mut().zip(self.devices) {
            patch(&mut dev.status, &delta.status)?;
            patch(&mut dev.parent, &delta.parent)?;
            dev.queues = delta.queues;
            patch(&mut dev.hub_src, &delta.hub_src)?;
        }
        Ok(())
    }
}

impl Body for CheckpointDelta {
    const TAG: u32 = 3;

    fn put(&self, enc: &mut Enc) {
        enc.vars(self.level, &self.vars);
        enc.u64(self.devices.len() as u64);
        for dev in &self.devices {
            enc.pairs(&dev.status);
            enc.pairs(&dev.parent);
            for q in &dev.queues {
                enc.words(q);
            }
            enc.pairs(&dev.hub_src);
        }
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let (level, vars) = dec.vars()?;
        let count = dec.u64()?;
        if count > MAX_DEVICES as u64 {
            return Err(corrupt("implausible device count"));
        }
        let devices = (0..count)
            .map(|_| {
                Ok(DeviceDelta {
                    status: dec.pairs()?,
                    parent: dec.pairs()?,
                    queues: [dec.words()?, dec.words()?, dec.words()?, dec.words()?],
                    hub_src: dec.pairs()?,
                })
            })
            .collect::<Result<_, PersistError>>()?;
        Ok(CheckpointDelta { level, vars, devices })
    }
}

/// Checkpoint publisher shared by every shape.
///
/// The first checkpoint (and one after every [`KEYFRAME_EVERY`] deltas, or
/// whenever a delta would not be smaller) rewrites the checkpoint log as
/// `[Header, Keyframe]`; the checkpoints in between are appended as deltas
/// against the checkpoint before them. A restore folds them back in order
/// ([`read_checkpoint`]). Deltas chain on the writer's memory of its last
/// record, so a writer serves one run.
pub(crate) struct CheckpointWriter {
    /// The last checkpoint written, which the next delta diffs against.
    last: Option<CheckpointSnapshot>,
    /// Deltas appended since the keyframe.
    since_key: u32,
}

impl CheckpointWriter {
    pub(crate) fn new() -> Self {
        CheckpointWriter { last: None, since_key: 0 }
    }

    /// Durably publishes `snap`: one append for a delta, one rewrite for a
    /// keyframe, each a single write (and torn-write draw).
    pub(crate) fn persist(
        &mut self,
        store: &mut SnapshotStore,
        snap: CheckpointSnapshot,
    ) -> Result<(), PersistError> {
        let keyframe = encode(&snap);
        let delta = self
            .last
            .as_ref()
            .filter(|_| self.since_key < KEYFRAME_EVERY)
            .and_then(|prev| CheckpointDelta::between(prev, &snap))
            .map(|delta| encode(&delta))
            .filter(|delta| delta.len() < keyframe.len());
        let written = match &delta {
            Some(delta) => store.append(CHECKPOINT_FILE, delta),
            None => store.rewrite(CHECKPOINT_FILE, &[keyframe]),
        };
        self.since_key = if delta.is_some() { self.since_key + 1 } else { 0 };
        // After a failed write the log's last record is unknown, so the
        // next checkpoint must be a keyframe.
        self.last = written.is_ok().then_some(snap);
        written
    }
}

/// Reads the checkpoint log, `[Header, Keyframe, Delta…]`: the keyframe
/// with every intact delta folded over it in order. `Ok(None)` means no
/// checkpoint exists.
pub(crate) fn read_checkpoint(
    store: &mut SnapshotStore,
) -> Result<Option<CheckpointSnapshot>, PersistError> {
    let Some(Log { records, damage }) = store.read(CHECKPOINT_FILE)? else { return Ok(None) };
    let mut records = records.into_iter();
    let mut snap = match records.next() {
        Some(Record::Keyframe(snap)) => snap,
        None => return Err(missing(damage)),
        Some(_) => return Err(corrupt("checkpoint log does not start with a keyframe")),
    };
    for record in records {
        match record {
            Record::Delta(delta) => delta.apply(&mut snap)?,
            _ => return Err(corrupt("checkpoint log holds other records")),
        }
    }
    Ok(Some(snap))
}

#[cfg(test)]
mod fuzz;
#[cfg(test)]
mod tests;
