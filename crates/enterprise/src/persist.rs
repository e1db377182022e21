//! Crash-consistent persistence plane: durable snapshots of learned state.
//!
//! Long multi-source campaigns amortize expensive decisions — rebalanced
//! partition boundaries, the measured hub-cache population, and (optionally)
//! a mid-traversal checkpoint — across many BFS runs. All of that state
//! lives in host memory and dies with the process. This module serializes it
//! to a small versioned, checksummed on-disk format so a restarted process
//! can warm-start instead of re-deriving everything from scratch.
//!
//! Durability protocol: every snapshot is framed as
//! `MAGIC ‖ version(u32 LE) ‖ payload_len(u64 LE) ‖ fnv1a64(payload)(u64 LE) ‖ payload`
//! and written to a temporary file in the same directory, then published with
//! an atomic `rename`. A crash at any point leaves either the old snapshot,
//! the new snapshot, or a stray temp file — never a half-visible frame under
//! the published name. Torn writes (modeled by the gpu-sim storage fault
//! plane) truncate the frame to a strict prefix; at-rest corruption flips a
//! single bit. Both are caught on load by the length and checksum fields and
//! degrade to a typed error, which drivers translate into a cold start —
//! never a panic, never a wrong result.

use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::PathBuf;

use enterprise_graph::Csr;
use gpu_sim::{FaultPlan, FaultSpec, FaultStats};

/// On-disk format version. Bump on any incompatible layout change; loads of
/// a mismatched version fail with [`PersistError::VersionMismatch`] and the
/// driver cold-starts. Version 2 added degraded-fleet eviction records to
/// both snapshot kinds and the delta-checkpoint frame. Version 3 converted
/// the batch outcome ledger to an append-only record log and added the
/// active-lane set to checkpoint identity. Version 4 dropped the layout's
/// `collapsed` flag (the extents' tiling says which view they hold), the
/// always-empty checkpoint lane set and the fleet record's derivable
/// fault-loss count, and versioned the ledger's header record.
pub const FORMAT_VERSION: u32 = 4;

/// Magic prefix identifying an enterprise snapshot frame.
pub const MAGIC: [u8; 8] = *b"ENTSNAP\0";

/// Magic prefix identifying one record in an append-only record log (the
/// batch outcome ledger). Deliberately distinct from the first four bytes of
/// [`MAGIC`] (`ENTS`), so a legacy whole-frame `batch.snap` fails the record
/// magic check and degrades to a cold batch with a typed error instead of
/// being misparsed.
pub const REC_MAGIC: [u8; 4] = *b"ENTL";

/// Fixed byte size of a record-log frame header:
/// `REC_MAGIC(4) ‖ payload_len(u32) ‖ fnv1a64(payload)(u64)`.
const REC_HEADER_LEN: usize = 16;

/// What a record-log scan yields: every intact record payload in order,
/// plus the byte length of the intact prefix (the truncation point after
/// a torn tail).
pub type RecordScan = (Vec<Vec<u8>>, u64);

/// Fault-plan stream id for storage faults, distinct from any device stream
/// (device streams are small indices; this keeps the storage RNG decoupled
/// from per-device draws so arming storage faults never perturbs them).
const STORAGE_STREAM: u64 = 0x51A6_E5E5;

/// File name of the layout snapshot inside a state directory.
pub(crate) const LAYOUT_FILE: &str = "layout.snap";
/// File name of the mid-traversal checkpoint snapshot inside a state directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint.snap";
/// File name of the delta checkpoint: status/parent/hub images stored as
/// sparse diffs against the keyframe in [`CHECKPOINT_FILE`]. Self-contained
/// frame, but only applicable over the exact keyframe it was diffed against
/// (bound by level + payload checksum); any mismatch degrades the resume to
/// the keyframe alone.
pub(crate) const DELTA_FILE: &str = "checkpoint.delta.snap";
/// File name of the batch outcome ledger inside a state directory. An
/// append-only record log ([`SnapshotStore::append`]): one header record,
/// then one record per terminal per-source outcome, interleaved with fleet-
/// shape records when the browned-out fleet changes — so a killed batch
/// restarts, replays the intact prefix, and resumes from the first
/// unfinished source on the surviving fleet.
pub(crate) const BATCH_FILE: &str = "batch.snap";
/// A full keyframe is forced after this many consecutive delta saves, so a
/// lost or rotted keyframe can only strand a bounded chain of deltas.
pub(crate) const KEYFRAME_EVERY: u32 = 8;

/// Typed failure of a persistence operation. Every variant is recoverable:
/// drivers record it in `RecoveryReport::snapshot_errors` and cold-start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Underlying filesystem operation failed (message preserved).
    Io(String),
    /// Frame shorter than its header or its declared payload length
    /// (e.g. a torn write published a strict prefix).
    Truncated,
    /// Frame does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// Frame was written by an incompatible format version.
    VersionMismatch {
        /// The version found in the frame header.
        found: u32,
    },
    /// Payload checksum does not match the header (bit rot / corruption).
    ChecksumMismatch,
    /// Snapshot was taken on a different graph than the one loaded now.
    GraphMismatch,
    /// Checkpoint was taken for a different BFS source vertex.
    SourceMismatch,
    /// Snapshot layout is incompatible with the current driver configuration
    /// (different driver kind, device count, grid shape, or buffer sizes).
    LayoutMismatch,
    /// Payload decoded to structurally invalid data (message says what).
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
    /// Persist only the learned layout (partition boundaries + hub census);
    /// no mid-traversal checkpoints.
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
    /// One device: the single-GPU `Enterprise`.
    Single,
    /// 1-D slices over several devices (`MultiGpuEnterprise`).
    OneD,
    /// A 2-D grid of several devices (`MultiGpu2DEnterprise`).
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

/// Durable snapshot store over one state directory.
///
/// Owns the storage-fault plan (torn writes on save, at-rest corruption on
/// load) so the same seeded `FaultSpec` that drives device faults also
/// drives storage faults deterministically, on an independent RNG stream.
pub struct SnapshotStore {
    dir: PathBuf,
    plan: Option<FaultPlan>,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot store over `dir`. When `faults`
    /// is `Some`, storage faults draw from its seeded plan on a dedicated
    /// stream; zero rates never touch the RNG (strict no-op).
    pub fn open(dir: impl Into<PathBuf>, faults: Option<&FaultSpec>) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let plan = faults.map(|spec| FaultPlan::for_stream(*spec, STORAGE_STREAM));
        Ok(SnapshotStore { dir, plan })
    }

    /// Path of a snapshot file inside the store.
    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Frame and durably publish `payload` under `name` via
    /// write-temp-then-atomic-rename. An armed torn-write fault truncates the
    /// frame to a strict prefix before publication (modeling a crash between
    /// the write and a flush) — the checksum catches it on load.
    pub fn save(&mut self, name: &str, payload: &[u8]) -> Result<(), PersistError> {
        let mut frame = Vec::with_capacity(28 + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(plan) = self.plan.as_mut() {
            if let Some(keep) = plan.draw_torn_write(frame.len()) {
                frame.truncate(keep);
            }
        }
        let tmp = self.path_of(&format!("{name}.tmp"));
        let dst = self.path_of(name);
        fs::write(&tmp, &frame)?;
        fs::rename(&tmp, &dst)?;
        Ok(())
    }

    /// Load and verify a snapshot. `Ok(None)` means no snapshot exists (a
    /// cold start, not an error). An armed at-rest corruption fault flips one
    /// bit of the frame before verification — the checksum catches it.
    pub fn load(&mut self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        let mut bytes = match fs::read(self.path_of(name)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if let Some(plan) = self.plan.as_mut() {
            if let Some(bit) = plan.draw_snapshot_corruption(bytes.len()) {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        if bytes.len() < 28 {
            return Err(PersistError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PersistError::VersionMismatch { found: version });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = &bytes[28..];
        if payload.len() != payload_len {
            return Err(PersistError::Truncated);
        }
        if fnv1a64(payload) != checksum {
            return Err(PersistError::ChecksumMismatch);
        }
        Ok(Some(payload.to_vec()))
    }

    /// Append one checksummed record frame to the append-only log `name`
    /// (creating it if needed). The frame is
    /// `REC_MAGIC ‖ payload_len(u32) ‖ fnv1a64(payload) ‖ payload`; an
    /// armed torn-write fault truncates the *appended bytes* to a strict
    /// prefix (modeling a crash mid-append) — earlier records are never
    /// touched, so damage is confined to the tail and
    /// [`SnapshotStore::load_records`] degrades to the last intact
    /// record instead of a cold start.
    pub fn append(&mut self, name: &str, payload: &[u8]) -> Result<(), PersistError> {
        let mut frame = Vec::with_capacity(REC_HEADER_LEN + payload.len());
        frame.extend_from_slice(&REC_MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(plan) = self.plan.as_mut() {
            if let Some(keep) = plan.draw_torn_write(frame.len()) {
                frame.truncate(keep);
            }
        }
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path_of(name))?;
        f.write_all(&frame)?;
        Ok(())
    }

    /// Load an append-only record log: every intact record payload in
    /// order, plus the byte length of the intact prefix. `Ok(None)` means
    /// the log does not exist. A damaged tail (torn append, at-rest bit
    /// flip) ends the scan at the last intact record — the caller
    /// truncates to `intact_len` via [`SnapshotStore::truncate_to`]
    /// before appending again. A log whose *first* record is already
    /// damaged — including a legacy whole-frame file, whose `ENTS` magic
    /// fails the record check — surfaces a typed error so the caller
    /// cold-starts.
    pub fn load_records(&mut self, name: &str) -> Result<Option<RecordScan>, PersistError> {
        let mut bytes = match fs::read(self.path_of(name)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if let Some(plan) = self.plan.as_mut() {
            if let Some(bit) = plan.draw_snapshot_corruption(bytes.len()) {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        while bytes.len() - pos >= REC_HEADER_LEN {
            let head = &bytes[pos..pos + REC_HEADER_LEN];
            if head[..4] != REC_MAGIC {
                break;
            }
            let payload_len = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(head[8..16].try_into().unwrap());
            let start = pos + REC_HEADER_LEN;
            if bytes.len() - start < payload_len {
                break;
            }
            let payload = &bytes[start..start + payload_len];
            if fnv1a64(payload) != checksum {
                break;
            }
            records.push(payload.to_vec());
            pos = start + payload_len;
        }
        if records.is_empty() && !bytes.is_empty() {
            // Nothing salvageable: either a legacy whole-frame file
            // (wrong magic) or a first record damaged beyond recovery.
            return Err(if bytes.len() >= 4 && bytes[..4] != REC_MAGIC {
                PersistError::BadMagic
            } else {
                PersistError::Truncated
            });
        }
        Ok(Some((records, pos as u64)))
    }

    /// Truncate a log file to `len` bytes (discarding a damaged tail
    /// found by [`SnapshotStore::load_records`]). Missing file is not an
    /// error.
    pub fn truncate_to(&mut self, name: &str, len: u64) -> Result<(), PersistError> {
        match fs::OpenOptions::new().write(true).open(self.path_of(name)) {
            Ok(f) => {
                f.set_len(len)?;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Remove a snapshot if present (missing file is not an error).
    pub fn remove(&mut self, name: &str) -> Result<(), PersistError> {
        match fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Drain accumulated storage fault statistics (torn writes, corrupted
    /// snapshots) without disturbing the RNG position.
    pub fn take_stats(&mut self) -> FaultStats {
        match self.plan.as_mut() {
            Some(plan) => {
                let stats = plan.stats().clone();
                plan.reset_stats();
                stats
            }
            None => FaultStats::default(),
        }
    }
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

    pub(crate) fn range(&mut self, r: &Range<usize>) {
        self.u64(r.start as u64);
        self.u64(r.end as u64);
    }

    pub(crate) fn words(&mut self, words: &[u32]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.u32(w);
        }
    }

    pub(crate) fn pairs(&mut self, pairs: &[(u32, u32)]) {
        self.u64(pairs.len() as u64);
        for &(i, v) in pairs {
            self.u32(i);
            self.u32(v);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
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
            return Err(PersistError::Corrupt("payload shorter than declared".into()));
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

    pub(crate) fn range(&mut self) -> Result<Range<usize>, PersistError> {
        let start = self.u64()? as usize;
        let end = self.u64()? as usize;
        if end < start {
            return Err(PersistError::Corrupt("inverted range".into()));
        }
        Ok(start..end)
    }

    pub(crate) fn words(&mut self) -> Result<Vec<u32>, PersistError> {
        let len = self.u64()? as usize;
        // Sanity guard: a corrupt length must not cause a huge allocation.
        if len > (self.buf.len() - self.pos) / 4 {
            return Err(PersistError::Corrupt("word vector length exceeds payload".into()));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    pub(crate) fn pairs(&mut self) -> Result<Vec<(u32, u32)>, PersistError> {
        let len = self.u64()? as usize;
        if len > (self.buf.len() - self.pos) / 8 {
            return Err(PersistError::Corrupt("pair vector length exceeds payload".into()));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let i = self.u32()?;
            let v = self.u32()?;
            out.push((i, v));
        }
        Ok(out)
    }

    pub(crate) fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u64()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(PersistError::Corrupt("string length exceeds payload".into()));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| PersistError::Corrupt("string is not valid UTF-8".into()))
    }

    pub(crate) fn done(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Corrupt("trailing bytes in payload".into()));
        }
        Ok(())
    }
}

fn enc_fingerprint(enc: &mut Enc, fp: &GraphFingerprint) {
    enc.u64(fp.vertices);
    enc.u64(fp.edges);
    enc.u64(fp.structure);
}

fn dec_fingerprint(dec: &mut Dec<'_>) -> Result<GraphFingerprint, PersistError> {
    Ok(GraphFingerprint { vertices: dec.u64()?, edges: dec.u64()?, structure: dec.u64()? })
}

// ---------------------------------------------------------------------------
// Layout snapshot: learned partition boundaries + hub census.
// ---------------------------------------------------------------------------

/// The learned end-of-run layout: rebalanced partition boundaries (1-D
/// slices or 2-D blocks), grid shape, and the hub census that sizes the hub
/// cache. Restoring it lets a fresh process skip hub measurement and start
/// from the boundaries the previous process converged to; the extents'
/// tiling decides whether the devices hold strips or blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LayoutSnapshot {
    pub kind: DriverKind,
    pub fingerprint: GraphFingerprint,
    pub hub_tau: u32,
    pub total_hubs: u64,
    /// (rows, cols) for 2-D; (1, device_count) for 1-D; (1, 1) for single.
    pub grid: (u32, u32),
    /// Per-device (td_range, bu_range) partition extents, device order.
    pub slices: Vec<(Range<usize>, Range<usize>)>,
    /// Devices permanently evicted in the run that learned this layout, in
    /// eviction order. When non-empty the layout is a *degraded-fleet*
    /// layout: the surviving devices' slices tile the vertex range by
    /// themselves (an evicted device's entry is its stale pre-eviction
    /// extent, kept only for positional indexing) and a warm restart
    /// re-evicts these devices to resume on the survivors.
    pub evicted: Vec<u32>,
}

impl LayoutSnapshot {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(self.kind.to_u32());
        enc_fingerprint(&mut enc, &self.fingerprint);
        enc.u32(self.hub_tau);
        enc.u64(self.total_hubs);
        enc.u32(self.grid.0);
        enc.u32(self.grid.1);
        enc.u64(self.slices.len() as u64);
        for (td, bu) in &self.slices {
            enc.range(td);
            enc.range(bu);
        }
        enc.words(&self.evicted);
        enc.finish()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Dec::new(payload);
        let kind = DriverKind::from_u32(dec.u32()?)?;
        let fingerprint = dec_fingerprint(&mut dec)?;
        let hub_tau = dec.u32()?;
        let total_hubs = dec.u64()?;
        let grid = (dec.u32()?, dec.u32()?);
        let count = dec.u64()? as usize;
        if count > 4096 {
            return Err(PersistError::Corrupt("implausible device count".into()));
        }
        let mut slices = Vec::with_capacity(count);
        for _ in 0..count {
            let td = dec.range()?;
            let bu = dec.range()?;
            slices.push((td, bu));
        }
        let evicted = dec.words()?;
        if evicted.iter().any(|&d| d as usize >= count) {
            return Err(PersistError::Corrupt("evicted device out of range".into()));
        }
        dec.done()?;
        Ok(LayoutSnapshot { kind, fingerprint, hub_tau, total_hubs, grid, slices, evicted })
    }

    pub(crate) fn save(&self, store: &mut SnapshotStore) -> Result<(), PersistError> {
        store.save(LAYOUT_FILE, &self.encode())
    }

    /// Load the layout snapshot; `Ok(None)` means none exists.
    pub(crate) fn load(store: &mut SnapshotStore) -> Result<Option<Self>, PersistError> {
        match store.load(LAYOUT_FILE)? {
            Some(payload) => Ok(Some(Self::decode(&payload)?)),
            None => Ok(None),
        }
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

/// The browned-out fleet shape at a point in a batch: which devices are
/// gone (and how many of them were link-isolated rather than lost to
/// faults), the spliced partition extents the survivors run on, and the
/// learned hard-down link verdicts. Appended to the batch record log whenever
/// the shape changes, so a resumed batch re-evicts the same devices and
/// resumes on the survivors instead of a full fleet.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct FleetRecord {
    /// Evicted device ids: fault-plane losses first, link-isolated ones
    /// last.
    pub evicted: Vec<u32>,
    /// How many of `evicted` (its tail) were link-isolated (unreachable,
    /// migrated); the rest were lost to device faults.
    pub link_isolated: u32,
    /// Per-device `(td, bu)` scan extents after splicing, positional over
    /// the full original fleet (evicted entries keep their last extents).
    pub boundaries: Vec<(Range<usize>, Range<usize>)>,
    /// Learned hard-down pair links, as `(a, b)` device-id pairs.
    pub verdicts: Vec<(u32, u32)>,
}

/// One record in the append-only batch ledger (`batch.snap`).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum BatchRecord {
    /// First record of every log: binds the log to a driver kind and
    /// graph, after the [`FORMAT_VERSION`] it was written in. Another
    /// version fails to decode with [`PersistError::VersionMismatch`]; a
    /// kind or graph mismatch degrades the batch to a cold start.
    Header {
        kind: DriverKind,
        fingerprint: GraphFingerprint,
    },
    /// One terminal per-source outcome.
    Outcome(BatchLedgerEntry),
    /// The fleet shape after the preceding outcome.
    Fleet(FleetRecord),
}

impl BatchRecord {
    const TAG_HEADER: u32 = 0;
    const TAG_OUTCOME: u32 = 1;
    const TAG_FLEET: u32 = 2;

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        match self {
            BatchRecord::Header { kind, fingerprint } => {
                enc.u32(Self::TAG_HEADER);
                enc.u32(FORMAT_VERSION);
                enc.u32(kind.to_u32());
                enc_fingerprint(&mut enc, fingerprint);
            }
            BatchRecord::Outcome(e) => {
                enc.u32(Self::TAG_OUTCOME);
                enc.u32(e.index);
                enc.u32(e.source);
                enc.u32(e.priority);
                enc.u32(e.outcome);
                enc.u32(e.attempts);
                enc.u64(e.digest);
                enc.str(&e.error);
            }
            BatchRecord::Fleet(f) => {
                enc.u32(Self::TAG_FLEET);
                enc.words(&f.evicted);
                enc.u32(f.link_isolated);
                enc.u64(f.boundaries.len() as u64);
                for (td, bu) in &f.boundaries {
                    enc.range(td);
                    enc.range(bu);
                }
                enc.pairs(&f.verdicts);
            }
        }
        enc.finish()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Dec::new(payload);
        let rec = match dec.u32()? {
            Self::TAG_HEADER => {
                // The version leads, so a header of another format fails
                // on it before any field that format may lay out
                // differently (a version-3 header, which has none, fails
                // on its driver kind).
                let version = dec.u32()?;
                if version != FORMAT_VERSION {
                    return Err(PersistError::VersionMismatch { found: version });
                }
                BatchRecord::Header {
                    kind: DriverKind::from_u32(dec.u32()?)?,
                    fingerprint: dec_fingerprint(&mut dec)?,
                }
            }
            Self::TAG_OUTCOME => {
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
                    return Err(PersistError::Corrupt("unknown outcome tag".into()));
                }
                BatchRecord::Outcome(entry)
            }
            Self::TAG_FLEET => {
                let evicted = dec.words()?;
                let link_isolated = dec.u32()?;
                let count = dec.u64()? as usize;
                if count > 4096 {
                    return Err(PersistError::Corrupt("implausible boundary count".into()));
                }
                let mut boundaries = Vec::with_capacity(count);
                for _ in 0..count {
                    let td = dec.range()?;
                    let bu = dec.range()?;
                    boundaries.push((td, bu));
                }
                let verdicts = dec.pairs()?;
                BatchRecord::Fleet(FleetRecord { evicted, link_isolated, boundaries, verdicts })
            }
            t => {
                return Err(PersistError::Corrupt(format!("unknown batch record tag {t}")));
            }
        };
        dec.done()?;
        Ok(rec)
    }
}

/// The intact contents of a batch record log, replayed for resume: the
/// outcome entries keyed by batch index and the *last* fleet record, if
/// any (the fleet shape when the previous process died).
#[derive(Debug, Default)]
pub(crate) struct BatchLogReplay {
    pub entries: Vec<BatchLedgerEntry>,
    pub fleet: Option<FleetRecord>,
}

/// Loads and validates the batch record log against the running driver
/// and graph. `Ok(None)` means no log, or a log for a different
/// kind/graph (a cold batch, not an error); a log whose header carries
/// another format version is a [`PersistError::VersionMismatch`].
/// Damaged tails have already been dropped by
/// [`SnapshotStore::load_records`]; this also truncates the file to the
/// intact prefix so subsequent appends extend intact records only.
pub(crate) fn load_batch_log(
    store: &mut SnapshotStore,
    kind: DriverKind,
    fingerprint: GraphFingerprint,
) -> Result<Option<BatchLogReplay>, PersistError> {
    let Some((records, intact_len)) = store.load_records(BATCH_FILE)? else {
        return Ok(None);
    };
    store.truncate_to(BATCH_FILE, intact_len)?;
    let mut iter = records.iter();
    match iter.next().map(|r| BatchRecord::decode(r)).transpose()? {
        Some(BatchRecord::Header { kind: k, fingerprint: fp })
            if k == kind && fp == fingerprint => {}
        _ => return Ok(None),
    }
    let mut replay = BatchLogReplay::default();
    for r in iter {
        match BatchRecord::decode(r)? {
            BatchRecord::Header { .. } => {
                return Err(PersistError::Corrupt("duplicate ledger header".into()));
            }
            BatchRecord::Outcome(e) => replay.entries.push(e),
            BatchRecord::Fleet(f) => replay.fleet = Some(f),
        }
    }
    Ok(Some(replay))
}

// ---------------------------------------------------------------------------
// Mid-traversal checkpoint snapshot.
// ---------------------------------------------------------------------------

/// Per-device slice of a durable mid-traversal checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct DeviceCheckpoint {
    pub td: Range<usize>,
    pub bu: Range<usize>,
    pub status: Vec<u32>,
    pub parent: Vec<u32>,
    /// Queues truncated to their live sizes; sizes are the lengths.
    pub queues: [Vec<u32>; 4],
    pub hub_src: Vec<u32>,
}

/// A durable mid-traversal checkpoint: everything needed to resume a BFS at
/// a level boundary in a fresh process — per-device status/parents/queues,
/// hub-cache contents, and the direction-switch bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CheckpointSnapshot {
    pub kind: DriverKind,
    pub fingerprint: GraphFingerprint,
    pub source: u32,
    /// Level the checkpoint was taken at (resume executes this level next).
    pub level: u32,
    pub dir_bottom_up: bool,
    pub switched_at: Option<u32>,
    pub cache_filled: bool,
    pub visited_edge_sum: u64,
    pub bu_queue_edge_sum: u64,
    pub prev_frontier_edges: u64,
    pub devices: Vec<DeviceCheckpoint>,
    /// Devices already evicted when this checkpoint was taken, in eviction
    /// order. Their positional [`DeviceCheckpoint`] entries carry empty
    /// images (only survivors are restored); a resuming process re-evicts
    /// them and rebuilds the survivors to the spliced extents recorded in
    /// the surviving entries' `td`/`bu` ranges.
    pub evicted: Vec<u32>,
}

impl CheckpointSnapshot {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(self.kind.to_u32());
        enc_fingerprint(&mut enc, &self.fingerprint);
        enc.u32(self.source);
        enc.u32(self.level);
        enc.boolean(self.dir_bottom_up);
        enc.boolean(self.switched_at.is_some());
        enc.u32(self.switched_at.unwrap_or(0));
        enc.boolean(self.cache_filled);
        enc.u64(self.visited_edge_sum);
        enc.u64(self.bu_queue_edge_sum);
        enc.u64(self.prev_frontier_edges);
        enc.u64(self.devices.len() as u64);
        for dev in &self.devices {
            enc.range(&dev.td);
            enc.range(&dev.bu);
            enc.words(&dev.status);
            enc.words(&dev.parent);
            for q in &dev.queues {
                enc.words(q);
            }
            enc.words(&dev.hub_src);
        }
        enc.words(&self.evicted);
        enc.finish()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Dec::new(payload);
        let kind = DriverKind::from_u32(dec.u32()?)?;
        let fingerprint = dec_fingerprint(&mut dec)?;
        let source = dec.u32()?;
        let level = dec.u32()?;
        let dir_bottom_up = dec.boolean()?;
        let has_switch = dec.boolean()?;
        let switch_level = dec.u32()?;
        let switched_at = if has_switch { Some(switch_level) } else { None };
        let cache_filled = dec.boolean()?;
        let visited_edge_sum = dec.u64()?;
        let bu_queue_edge_sum = dec.u64()?;
        let prev_frontier_edges = dec.u64()?;
        let count = dec.u64()? as usize;
        if count > 4096 {
            return Err(PersistError::Corrupt("implausible device count".into()));
        }
        let mut devices = Vec::with_capacity(count);
        for _ in 0..count {
            let td = dec.range()?;
            let bu = dec.range()?;
            let status = dec.words()?;
            let parent = dec.words()?;
            let q0 = dec.words()?;
            let q1 = dec.words()?;
            let q2 = dec.words()?;
            let q3 = dec.words()?;
            let hub_src = dec.words()?;
            devices.push(DeviceCheckpoint {
                td,
                bu,
                status,
                parent,
                queues: [q0, q1, q2, q3],
                hub_src,
            });
        }
        let evicted = dec.words()?;
        if evicted.iter().any(|&d| d as usize >= count) {
            return Err(PersistError::Corrupt("evicted device out of range".into()));
        }
        dec.done()?;
        Ok(CheckpointSnapshot {
            kind,
            fingerprint,
            source,
            level,
            dir_bottom_up,
            switched_at,
            cache_filled,
            visited_edge_sum,
            bu_queue_edge_sum,
            prev_frontier_edges,
            devices,
            evicted,
        })
    }

    /// Write a full keyframe, bypassing the delta writer. Production
    /// checkpoints go through [`CheckpointWriter`].
    #[cfg(test)]
    pub(crate) fn save(&self, store: &mut SnapshotStore) -> Result<(), PersistError> {
        store.save(CHECKPOINT_FILE, &self.encode())
    }

    /// Load the raw keyframe, ignoring any delta; `Ok(None)` means none
    /// exists. Production resume goes through [`load_checkpoint_chain`].
    #[cfg(test)]
    pub(crate) fn load(store: &mut SnapshotStore) -> Result<Option<Self>, PersistError> {
        match store.load(CHECKPOINT_FILE)? {
            Some(payload) => Ok(Some(Self::decode(&payload)?)),
            None => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Delta checkpoints: sparse diffs against the durable keyframe.
// ---------------------------------------------------------------------------

/// Sparse word diff: the `(index, new_value)` pairs where `new` differs from
/// `old`. `None` when the vectors have different lengths (not diffable).
fn sparse_diff(old: &[u32], new: &[u32]) -> Option<Vec<(u32, u32)>> {
    if old.len() != new.len() {
        return None;
    }
    Some(
        old.iter()
            .zip(new)
            .enumerate()
            .filter(|(_, (o, n))| o != n)
            .map(|(i, (_, n))| (i as u32, *n))
            .collect(),
    )
}

/// Can `snap` be stored as a delta against `base`? Requires identical
/// identity (kind / fingerprint / source), fleet shape (device count,
/// per-device extents, image lengths) and eviction record — any of those
/// changing forces a fresh keyframe instead.
fn delta_compatible(base: &CheckpointSnapshot, snap: &CheckpointSnapshot) -> bool {
    base.kind == snap.kind
        && base.fingerprint == snap.fingerprint
        && base.source == snap.source
        && base.evicted == snap.evicted
        && base.devices.len() == snap.devices.len()
        && base.devices.iter().zip(&snap.devices).all(|(b, s)| {
            b.td == s.td
                && b.bu == s.bu
                && b.status.len() == s.status.len()
                && b.parent.len() == s.parent.len()
                && b.hub_src.len() == s.hub_src.len()
        })
}

/// Encode `snap` as a delta frame against `base` (whose encoded payload
/// hashes to `base_checksum`). Status, parent and hub images become sparse
/// `(index, value)` diffs; queues are stored whole (they turn over entirely
/// each level, so sparseness buys nothing). `None` when the shapes are not
/// diffable — the caller must write a keyframe.
pub(crate) fn encode_delta(
    snap: &CheckpointSnapshot,
    base: &CheckpointSnapshot,
    base_checksum: u64,
) -> Option<Vec<u8>> {
    if !delta_compatible(base, snap) {
        return None;
    }
    let mut enc = Enc::new();
    enc.u32(base.level);
    enc.u64(base_checksum);
    enc.u32(snap.level);
    enc.boolean(snap.dir_bottom_up);
    enc.boolean(snap.switched_at.is_some());
    enc.u32(snap.switched_at.unwrap_or(0));
    enc.boolean(snap.cache_filled);
    enc.u64(snap.visited_edge_sum);
    enc.u64(snap.bu_queue_edge_sum);
    enc.u64(snap.prev_frontier_edges);
    enc.u64(snap.devices.len() as u64);
    for (b, s) in base.devices.iter().zip(&snap.devices) {
        enc.pairs(&sparse_diff(&b.status, &s.status)?);
        enc.pairs(&sparse_diff(&b.parent, &s.parent)?);
        for q in &s.queues {
            enc.words(q);
        }
        enc.pairs(&sparse_diff(&b.hub_src, &s.hub_src)?);
    }
    Some(enc.finish())
}

/// Decode a delta frame and replay it over `base` (whose encoded payload
/// hashes to `base_checksum`), reconstructing the newer checkpoint. Fails —
/// recoverably; the caller resumes at the keyframe — when the delta was
/// diffed against a different keyframe than the one on disk.
pub(crate) fn apply_delta(
    base: &CheckpointSnapshot,
    base_checksum: u64,
    payload: &[u8],
) -> Result<CheckpointSnapshot, PersistError> {
    let mut dec = Dec::new(payload);
    let bound_level = dec.u32()?;
    let bound_checksum = dec.u64()?;
    if bound_level != base.level || bound_checksum != base_checksum {
        return Err(PersistError::Corrupt(
            "delta checkpoint was diffed against a different keyframe".into(),
        ));
    }
    let mut snap = base.clone();
    snap.level = dec.u32()?;
    snap.dir_bottom_up = dec.boolean()?;
    let has_switch = dec.boolean()?;
    let switch_level = dec.u32()?;
    snap.switched_at = if has_switch { Some(switch_level) } else { None };
    snap.cache_filled = dec.boolean()?;
    snap.visited_edge_sum = dec.u64()?;
    snap.bu_queue_edge_sum = dec.u64()?;
    snap.prev_frontier_edges = dec.u64()?;
    let count = dec.u64()? as usize;
    if count != snap.devices.len() {
        return Err(PersistError::Corrupt("delta device count mismatch".into()));
    }
    let apply = |img: &mut [u32], pairs: Vec<(u32, u32)>| -> Result<(), PersistError> {
        for (i, v) in pairs {
            *img.get_mut(i as usize)
                .ok_or_else(|| PersistError::Corrupt("delta index out of range".into()))? = v;
        }
        Ok(())
    };
    for dev in &mut snap.devices {
        apply(&mut dev.status, dec.pairs()?)?;
        apply(&mut dev.parent, dec.pairs()?)?;
        for q in &mut dev.queues {
            *q = dec.words()?;
        }
        apply(&mut dev.hub_src, dec.pairs()?)?;
    }
    dec.done()?;
    Ok(snap)
}

/// Keyframe + delta checkpoint publisher shared by the drivers.
///
/// The first save (and every [`KEYFRAME_EVERY`]-th after, or any save whose
/// fleet shape changed or whose delta would not actually be smaller) writes
/// a full keyframe to [`CHECKPOINT_FILE`] and retires the stale delta;
/// saves in between write a sparse delta to [`DELTA_FILE`] bound to that
/// keyframe by level + payload checksum. Restores chain the two via
/// [`load_checkpoint_chain`].
pub(crate) struct CheckpointWriter {
    keyframe: Option<(CheckpointSnapshot, u64)>,
    since_key: u32,
}

impl CheckpointWriter {
    pub(crate) fn new() -> Self {
        CheckpointWriter { keyframe: None, since_key: 0 }
    }

    /// Durably publish `snap` — as a delta when a compatible, fresher-than-
    /// [`KEYFRAME_EVERY`] keyframe exists and the delta is genuinely
    /// smaller; as a keyframe otherwise.
    pub(crate) fn persist(
        &mut self,
        store: &mut SnapshotStore,
        snap: &CheckpointSnapshot,
    ) -> Result<(), PersistError> {
        if let Some((base, base_checksum)) = &self.keyframe {
            if self.since_key < KEYFRAME_EVERY {
                if let Some(delta) = encode_delta(snap, base, *base_checksum) {
                    let full_len = snap.encode().len();
                    if delta.len() < full_len {
                        store.save(DELTA_FILE, &delta)?;
                        self.since_key += 1;
                        return Ok(());
                    }
                }
            }
        }
        let payload = snap.encode();
        store.save(CHECKPOINT_FILE, &payload)?;
        // A keyframe supersedes any delta bound to its predecessor; a stale
        // delta would fail its checksum binding anyway, but removing it
        // keeps the directory's story simple.
        store.remove(DELTA_FILE)?;
        self.keyframe = Some((snap.clone(), fnv1a64(&payload)));
        self.since_key = 0;
        Ok(())
    }
}

/// Load the newest resumable checkpoint: the keyframe, plus the delta
/// replayed over it when one exists and verifiably binds to that exact
/// keyframe. Delta defects (rot, torn write, keyframe mismatch) are *soft* —
/// pushed into `soft` and the resume degrades to the keyframe alone.
/// `Ok(None)` means no checkpoint exists at all.
pub(crate) fn load_checkpoint_chain(
    store: &mut SnapshotStore,
    soft: &mut Vec<PersistError>,
) -> Result<Option<CheckpointSnapshot>, PersistError> {
    let payload = match store.load(CHECKPOINT_FILE)? {
        Some(p) => p,
        None => return Ok(None),
    };
    let base = CheckpointSnapshot::decode(&payload)?;
    let base_checksum = fnv1a64(&payload);
    match store.load(DELTA_FILE) {
        Ok(Some(delta)) => match apply_delta(&base, base_checksum, &delta) {
            Ok(snap) => Ok(Some(snap)),
            Err(e) => {
                soft.push(e);
                Ok(Some(base))
            }
        },
        Ok(None) => Ok(Some(base)),
        Err(e) => {
            soft.push(e);
            Ok(Some(base))
        }
    }
}

/// Truncate the full-capacity queue views to their live sizes for
/// serialization (sizes are recovered as the lengths on restore).
pub(crate) fn truncate_queues(queues: &[Vec<u32>; 4], sizes: &[usize; 4]) -> [Vec<u32>; 4] {
    std::array::from_fn(|k| queues[k][..sizes[k].min(queues[k].len())].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use enterprise_graph::gen::kronecker;

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("enterprise-persist-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_layout() -> LayoutSnapshot {
        LayoutSnapshot {
            kind: DriverKind::OneD,
            fingerprint: GraphFingerprint { vertices: 64, edges: 512, structure: 0xdead_beef },
            hub_tau: 7,
            total_hubs: 12,
            grid: (1, 4),
            slices: vec![(0..10, 0..10), (10..31, 10..31), (31..40, 31..40), (40..64, 40..64)],
            evicted: vec![2],
        }
    }

    fn sample_entries() -> Vec<BatchLedgerEntry> {
        vec![
            BatchLedgerEntry {
                index: 0,
                source: 9,
                priority: 3,
                outcome: 0,
                attempts: 1,
                digest: 0x1234_5678_9abc_def0,
                error: String::new(),
            },
            BatchLedgerEntry {
                index: 1,
                source: 9,
                priority: 0,
                outcome: 2,
                attempts: 4,
                digest: 0,
                error: "all devices lost at level 3".into(),
            },
        ]
    }

    #[test]
    fn batch_record_log_round_trips_and_rejects_damage() {
        let dir = tmp_dir("batch-log");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let kind = DriverKind::OneD;
        let fp = GraphFingerprint { vertices: 64, edges: 512, structure: 0xdead_beef };
        let entries = sample_entries();
        // A degraded 2x2 grid: blocks keep distinct top-down and
        // bottom-up extents; device 3 was link-isolated after device 1
        // was lost.
        let fleet = FleetRecord {
            evicted: vec![1, 3],
            link_isolated: 1,
            boundaries: vec![(0..64, 0..32), (32..64, 0..32), (0..64, 32..64), (32..64, 32..64)],
            verdicts: vec![(0, 3)],
        };
        store.append(BATCH_FILE, &BatchRecord::Header { kind, fingerprint: fp }.encode()).unwrap();
        for e in &entries {
            store.append(BATCH_FILE, &BatchRecord::Outcome(e.clone()).encode()).unwrap();
        }
        store.append(BATCH_FILE, &BatchRecord::Fleet(fleet.clone()).encode()).unwrap();
        let replay = load_batch_log(&mut store, kind, fp).unwrap().unwrap();
        assert_eq!(replay.entries, entries);
        assert_eq!(replay.fleet, Some(fleet));
        // Mismatched kind or fingerprint degrades to a cold batch.
        assert!(load_batch_log(&mut store, DriverKind::Single, fp).unwrap().is_none());
        // A missing ledger is a cold batch, not an error.
        store.remove(BATCH_FILE).unwrap();
        assert!(load_batch_log(&mut store, kind, fp).unwrap().is_none());
        // An out-of-range outcome tag is rejected as corruption.
        let mut bad = sample_entries().remove(0);
        bad.outcome = 7;
        assert!(matches!(
            BatchRecord::decode(&BatchRecord::Outcome(bad).encode()),
            Err(PersistError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_record_log_torn_tail_degrades_to_last_intact_record() {
        let dir = tmp_dir("batch-log-torn");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let kind = DriverKind::TwoD;
        let fp = GraphFingerprint { vertices: 8, edges: 9, structure: 1 };
        let entries = sample_entries();
        store.append(BATCH_FILE, &BatchRecord::Header { kind, fingerprint: fp }.encode()).unwrap();
        store.append(BATCH_FILE, &BatchRecord::Outcome(entries[0].clone()).encode()).unwrap();
        let intact_len = fs::metadata(dir.join(BATCH_FILE)).unwrap().len();
        store.append(BATCH_FILE, &BatchRecord::Outcome(entries[1].clone()).encode()).unwrap();
        // Tear the last append mid-frame: the log keeps the first outcome.
        let full = fs::metadata(dir.join(BATCH_FILE)).unwrap().len();
        store.truncate_to(BATCH_FILE, full - 3).unwrap();
        let replay = load_batch_log(&mut store, kind, fp).unwrap().unwrap();
        assert_eq!(replay.entries, entries[..1]);
        // The damaged tail was physically dropped, so appends extend the
        // intact prefix.
        assert_eq!(fs::metadata(dir.join(BATCH_FILE)).unwrap().len(), intact_len);
        store.append(BATCH_FILE, &BatchRecord::Outcome(entries[1].clone()).encode()).unwrap();
        let replay = load_batch_log(&mut store, kind, fp).unwrap().unwrap();
        assert_eq!(replay.entries, entries);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A version-3 ledger, whose header carries no version, fails on its
    /// header with a typed version mismatch instead of decoding on into
    /// records laid out for another format, and a batch over it starts
    /// cold: nothing replays and a current header replaces the log.
    #[test]
    fn v3_ledger_header_degrades_to_a_cold_batch() {
        use crate::multi_gpu::{Fleet, MultiGpuConfig};
        use crate::{BatchPolicy, BatchSource};
        let g = kronecker(6, 4, 1);
        let (kind, fp) = (DriverKind::OneD, GraphFingerprint::of(&g));
        let dir = tmp_dir("batch-log-v3");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let mut v3_header = Enc::new();
        v3_header.u32(BatchRecord::TAG_HEADER);
        v3_header.u32(kind.to_u32());
        enc_fingerprint(&mut v3_header, &fp);
        store.append(BATCH_FILE, &v3_header.finish()).unwrap();
        let outcome = BatchRecord::Outcome(sample_entries().remove(0));
        store.append(BATCH_FILE, &outcome.encode()).unwrap();
        let mismatch = PersistError::VersionMismatch { found: kind.to_u32() };
        assert_eq!(load_batch_log(&mut store, kind, fp).unwrap_err(), mismatch);

        let cfg = MultiGpuConfig {
            persist: Some(PersistPolicy::layout_only(&dir)),
            ..MultiGpuConfig::k40s(4)
        };
        let sources: Vec<BatchSource> = [9, 17, 33].into_iter().map(BatchSource::new).collect();
        let report = Fleet::new(cfg, &g).batch(&sources, &BatchPolicy::on());
        assert_eq!(report.manifest_errors, vec![mismatch]);
        assert_eq!((report.resumed, report.completed), (0, sources.len()));
        let replay = load_batch_log(&mut store, kind, fp).unwrap().expect("a fresh v4 log");
        assert_eq!(replay.entries.len(), sources.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_whole_frame_ledger_fails_magic_and_cold_starts() {
        let dir = tmp_dir("batch-log-legacy");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        // A legacy whole-frame ledger starts with the snapshot MAGIC
        // ("ENTSNAP\0"), whose first four bytes are not REC_MAGIC.
        store.save(BATCH_FILE, b"legacy manifest payload").unwrap();
        let kind = DriverKind::OneD;
        let fp = GraphFingerprint { vertices: 1, edges: 1, structure: 1 };
        assert!(matches!(store.load_records(BATCH_FILE), Err(PersistError::BadMagic)));
        assert!(load_batch_log(&mut store, kind, fp).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_round_trips_and_is_atomic() {
        let dir = tmp_dir("roundtrip");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let layout = sample_layout();
        layout.save(&mut store).unwrap();
        // No stray temp file left behind after a successful publish.
        assert!(!dir.join(format!("{LAYOUT_FILE}.tmp")).exists());
        let back = LayoutSnapshot::load(&mut store).unwrap().unwrap();
        assert_eq!(back, layout);
        // Missing checkpoint is a cold start, not an error.
        assert_eq!(CheckpointSnapshot::load(&mut store).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = tmp_dir("ckpt");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let snap = CheckpointSnapshot {
            kind: DriverKind::Single,
            fingerprint: GraphFingerprint { vertices: 8, edges: 16, structure: 1 },
            source: 3,
            level: 2,
            dir_bottom_up: true,
            switched_at: Some(2),
            cache_filled: true,
            visited_edge_sum: 99,
            bu_queue_edge_sum: 7,
            prev_frontier_edges: 5,
            devices: vec![DeviceCheckpoint {
                td: 0..8,
                bu: 0..8,
                status: vec![0, 1, 1, 2, u32::MAX, 2, u32::MAX, u32::MAX],
                parent: vec![0, 0, 0, 1, u32::MAX, 2, u32::MAX, u32::MAX],
                queues: [vec![4, 6], vec![7], vec![], vec![]],
                hub_src: vec![u32::MAX; 4],
            }],
            evicted: vec![],
        };
        snap.save(&mut store).unwrap();
        let back = CheckpointSnapshot::load(&mut store).unwrap().unwrap();
        assert_eq!(back, snap);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_checkpoints_round_trip_and_shrink() {
        let dir = tmp_dir("delta");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let base = CheckpointSnapshot {
            kind: DriverKind::OneD,
            fingerprint: GraphFingerprint { vertices: 64, edges: 128, structure: 9 },
            source: 0,
            level: 1,
            dir_bottom_up: false,
            switched_at: None,
            cache_filled: false,
            visited_edge_sum: 0,
            bu_queue_edge_sum: 0,
            prev_frontier_edges: 0,
            devices: vec![DeviceCheckpoint {
                td: 0..64,
                bu: 0..64,
                status: vec![u32::MAX; 64],
                parent: vec![u32::MAX; 64],
                queues: [vec![0], vec![], vec![], vec![]],
                hub_src: vec![u32::MAX; 16],
            }],
            evicted: vec![],
        };
        // Next level: a handful of words change; everything else is shared.
        let mut next = base.clone();
        next.level = 2;
        next.devices[0].status[3] = 1;
        next.devices[0].status[9] = 1;
        next.devices[0].parent[3] = 0;
        next.devices[0].parent[9] = 0;
        next.devices[0].queues = [vec![3, 9], vec![], vec![], vec![]];

        let mut writer = CheckpointWriter::new();
        writer.persist(&mut store, &base).unwrap();
        writer.persist(&mut store, &next).unwrap();
        // Size regression: the delta frame must be materially smaller than
        // the keyframe it rides on.
        let key_len = fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
        let delta_len = fs::metadata(dir.join(DELTA_FILE)).unwrap().len();
        assert!(
            delta_len * 2 < key_len,
            "delta ({delta_len} B) not materially smaller than keyframe ({key_len} B)"
        );
        // The chain loader reconstructs the newer checkpoint exactly.
        let mut soft = Vec::new();
        let back = load_checkpoint_chain(&mut store, &mut soft).unwrap().unwrap();
        assert!(soft.is_empty(), "{soft:?}");
        assert_eq!(back, next);

        // A fresh keyframe retires the delta; the loader then sees only it.
        let mut third = next.clone();
        third.level = 3;
        third.devices[0].td = 0..32; // shape change forces a keyframe
        writer.persist(&mut store, &third).unwrap();
        assert!(!dir.join(DELTA_FILE).exists());
        let back = load_checkpoint_chain(&mut store, &mut soft).unwrap().unwrap();
        assert_eq!(back, third);

        // A delta bound to a *different* keyframe degrades softly.
        writer.persist(&mut store, &base).unwrap(); // keyframe (shape changed back)
        let orphan = encode_delta(&next, &base, 0xbad).unwrap();
        store.save(DELTA_FILE, &orphan).unwrap();
        let back = load_checkpoint_chain(&mut store, &mut soft).unwrap().unwrap();
        assert_eq!(back, base, "mismatched delta must degrade to the keyframe");
        assert_eq!(soft.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_detects_every_corruption_class() {
        let dir = tmp_dir("taxonomy");
        let mut store = SnapshotStore::open(&dir, None).unwrap();
        let layout = sample_layout();
        layout.save(&mut store).unwrap();
        let path = dir.join(LAYOUT_FILE);
        let pristine = fs::read(&path).unwrap();

        // Torn write: strict prefix.
        fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert_eq!(store.load(LAYOUT_FILE).unwrap_err(), PersistError::Truncated);
        // Shorter than the header.
        fs::write(&path, &pristine[..10]).unwrap();
        assert_eq!(store.load(LAYOUT_FILE).unwrap_err(), PersistError::Truncated);
        // Bad magic.
        let mut bad = pristine.clone();
        bad[0] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert_eq!(store.load(LAYOUT_FILE).unwrap_err(), PersistError::BadMagic);
        // Version mismatch.
        let mut bad = pristine.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bad).unwrap();
        assert_eq!(
            store.load(LAYOUT_FILE).unwrap_err(),
            PersistError::VersionMismatch { found: 99 }
        );
        // Payload bit flip.
        let mut bad = pristine.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        fs::write(&path, &bad).unwrap();
        assert_eq!(store.load(LAYOUT_FILE).unwrap_err(), PersistError::ChecksumMismatch);
        // Pristine still loads after all that.
        fs::write(&path, &pristine).unwrap();
        assert_eq!(LayoutSnapshot::load(&mut store).unwrap().unwrap(), layout);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_storage_faults_fire_and_are_counted() {
        let dir = tmp_dir("armed");
        let spec = FaultSpec {
            torn_write_rate: 1.0,
            snapshot_corrupt_rate: 0.0,
            ..FaultSpec::none(11)
        };
        let mut store = SnapshotStore::open(&dir, Some(&spec)).unwrap();
        sample_layout().save(&mut store).unwrap();
        // Torn frame must be detected on load.
        let err = LayoutSnapshot::load(&mut store).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Truncated
                    | PersistError::BadMagic
                    | PersistError::ChecksumMismatch
                    | PersistError::VersionMismatch { .. }
                    | PersistError::Corrupt(_)
            ),
            "unexpected error for torn frame: {err:?}"
        );
        let stats = store.take_stats();
        assert_eq!(stats.torn_writes, 1);

        // At-rest corruption on an otherwise pristine frame.
        let spec = FaultSpec {
            snapshot_corrupt_rate: 1.0,
            ..FaultSpec::none(11)
        };
        let mut clean = SnapshotStore::open(&dir, None).unwrap();
        sample_layout().save(&mut clean).unwrap();
        let mut store = SnapshotStore::open(&dir, Some(&spec)).unwrap();
        let err = LayoutSnapshot::load(&mut store).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Truncated
                    | PersistError::BadMagic
                    | PersistError::ChecksumMismatch
                    | PersistError::VersionMismatch { .. }
                    | PersistError::Corrupt(_)
            ),
            "unexpected error for corrupted frame: {err:?}"
        );
        assert_eq!(store.take_stats().snapshots_corrupted, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_distinguishes_graphs() {
        let a = kronecker(6, 4, 1);
        let b = kronecker(6, 4, 2);
        let fa = GraphFingerprint::of(&a);
        let fb = GraphFingerprint::of(&b);
        assert_eq!(fa, GraphFingerprint::of(&a));
        assert_ne!(fa, fb);
    }

    #[test]
    fn truncate_queues_respects_sizes() {
        let queues = [vec![1, 2, 3, 4], vec![5, 6], vec![7], vec![]];
        let sizes = [2, 2, 0, 0];
        let out = truncate_queues(&queues, &sizes);
        assert_eq!(out, [vec![1, 2], vec![5, 6], vec![], vec![]]);
    }
}
