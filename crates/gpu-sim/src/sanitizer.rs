//! Deterministic device-memory sanitizer and race detector.
//!
//! The paper's streamlined queue generation (§4.1) is atomic-free only
//! because every warp's global write-set is provably disjoint, and the
//! per-CTA hub cache (§4.3) is safe only while shared-memory indices stay
//! in bounds. This module turns those claims into continuously checked
//! invariants: when a [`Sanitizer`] is installed on a
//! [`crate::Device`], every `load_global` / `store_global` / `atomic_*` /
//! `load_shared` / `store_shared` issued by a kernel is validated against
//! shadow state, and violations surface as typed
//! [`SanitizerError`] values (wrapped in
//! [`crate::DeviceError::Sanitizer`]) carrying the buffer name, the
//! offending index, and the two conflicting thread coordinates.
//!
//! Because the simulator executes warps in a fixed deterministic order,
//! every report is bit-reproducible: the same program produces the same
//! first finding with the same coordinates on every run.
//!
//! ## What counts as a conflict
//!
//! Within one kernel launch, two accesses to the same global word
//! conflict when they come from different warps (or different CTAs), at
//! least one is a write, and they are not both atomic. The CTA-cooperative
//! init phase (the code before the first `__syncthreads`, modelled by
//! [`crate::CtaCtx`]) is barrier-separated from the body of its own CTA,
//! so init-vs-body accesses of the *same* CTA never conflict, while any
//! cross-CTA pair remains eligible. For shared memory the granularity is
//! warps within one CTA: two different warps touching the same shared
//! word in the body phase with at least one write conflict.
//!
//! Across kernels inside a `begin_concurrent`/`end_concurrent` window,
//! two kernels conflict when they touch the same global word and at
//! least one access is a non-atomic write (the four class-queue kernels
//! launched under Hyper-Q really do run concurrently, so their write
//! sets must be disjoint or relaxed).
//!
//! ## Benign races
//!
//! Enterprise relies on the hardware's single-survivor store semantics
//! for the status/parent arrays ("whoever finishes last becomes vertex
//! 2's parent", §2.1): many warps may write the same status word with the
//! *same level value*, and any surviving parent is a valid BFS parent.
//! Buffers with this monotone, last-wins update discipline are annotated
//! [`RacePolicy::Relaxed`] via [`crate::DeviceMem::set_race_policy`] and
//! are exempt from conflict detection (out-of-bounds and
//! uninitialized-read checks still apply). Everything else defaults to
//! [`RacePolicy::Strict`].
//!
//! ## Strict no-op guarantee
//!
//! With no sanitizer installed, no shadow state exists and no checks
//! run: timing, counters and results are bit-identical to a build
//! without this module. With a sanitizer installed, checking is purely
//! observational — it never adds simulated time or perturbs hardware
//! counters — so a clean program produces identical results with the
//! sanitizer on or off (the property the test suite asserts).

use crate::memory::{word_initialized, BufMeta, BufferId};
use std::collections::HashMap;

/// Per-buffer race-detection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RacePolicy {
    /// All cross-warp/cross-CTA conflicts on this buffer are findings
    /// (the default): the buffer's write sets must be disjoint.
    #[default]
    Strict,
    /// The buffer tolerates benign single-survivor races (status/parent
    /// style monotone updates); conflict detection is skipped, while
    /// out-of-bounds and uninitialized-read checks still apply.
    Relaxed,
}

/// Warp-in-CTA sentinel identifying the CTA-cooperative init phase
/// (before the first `__syncthreads`), which is barrier-separated from
/// the per-warp body of the same CTA.
pub const COOP_PHASE: u32 = u32::MAX;

/// Coordinates of one simulated thread (or cooperative phase) access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadCoord {
    /// CTA index within the grid.
    pub cta: u32,
    /// Warp index within the CTA ([`COOP_PHASE`] for the init phase).
    pub warp: u32,
    /// Lane within the warp (0 for the cooperative phase).
    pub lane: u32,
}

impl std::fmt::Display for ThreadCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.warp == COOP_PHASE {
            write!(f, "cta {} (init phase)", self.cta)
        } else {
            write!(f, "cta {} warp {} lane {}", self.cta, self.warp, self.lane)
        }
    }
}

/// How a word was touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Non-atomic load.
    Read,
    /// Non-atomic store.
    Write,
    /// Atomic read-modify-write (add/CAS).
    Atomic,
}

impl AccessKind {
    fn is_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// One recorded access: who and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The thread coordinates of the access.
    pub thread: ThreadCoord,
    /// The access kind.
    pub kind: AccessKind,
}

impl std::fmt::Display for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} by {}", self.kind, self.thread)
    }
}

/// A sanitizer finding: precise, typed, and bit-reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SanitizerError {
    /// A kernel accessed a global buffer outside its bounds. The access
    /// is suppressed (loads return 0, stores are dropped) so execution
    /// continues deterministically to the end of the launch.
    OutOfBounds {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Buffer name.
        buffer: String,
        /// Offending element index.
        index: usize,
        /// Buffer length in elements.
        len: usize,
        /// The offending access.
        access: Access,
    },
    /// A kernel read a global word that was never written — not by a
    /// host upload/fill/set and not by any kernel store. (Hardware
    /// leaves fresh allocations uninitialized; the simulator zeroes them,
    /// which is exactly the kind of latent divergence this check exists
    /// to catch.)
    UninitRead {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Buffer name.
        buffer: String,
        /// Offending element index.
        index: usize,
        /// The offending access.
        access: Access,
    },
    /// Two accesses to the same global word from different warps (or
    /// CTAs) within one launch, at least one a non-atomic write, on a
    /// [`RacePolicy::Strict`] buffer.
    RaceCondition {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Buffer name.
        buffer: String,
        /// Conflicting element index.
        index: usize,
        /// The earlier access.
        first: Access,
        /// The later (conflicting) access.
        second: Access,
    },
    /// Two kernels inside one `begin_concurrent`/`end_concurrent` window
    /// touched the same global word, at least one with a non-atomic
    /// write, on a strict buffer.
    ConcurrentConflict {
        /// Device id.
        device: usize,
        /// Buffer name.
        buffer: String,
        /// Conflicting element index.
        index: usize,
        /// Name of the kernel that touched the word first.
        first_kernel: String,
        /// Name of the conflicting kernel.
        second_kernel: String,
        /// The earlier access.
        first: Access,
        /// The later (conflicting) access.
        second: Access,
    },
    /// A shared-memory access outside the CTA's allocation. Suppressed
    /// like a global out-of-bounds (loads return 0, stores dropped).
    SharedOutOfBounds {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Offending word index.
        index: usize,
        /// Shared allocation length in words.
        len: usize,
        /// The offending access.
        access: Access,
    },
    /// A body-phase read of a shared word never written by this CTA
    /// (neither in the init phase nor earlier in the body).
    SharedUninitRead {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Offending word index.
        index: usize,
        /// The offending access.
        access: Access,
    },
    /// Two different warps of one CTA touched the same shared word in
    /// the body phase, at least one writing.
    SharedRace {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Conflicting word index.
        index: usize,
        /// The earlier access.
        first: Access,
        /// The later (conflicting) access.
        second: Access,
    },
}

impl std::fmt::Display for SanitizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizerError::OutOfBounds { device, kernel, buffer, index, len, access } => write!(
                f,
                "sanitizer: out-of-bounds {access} of {buffer:?}[{index}] (len {len}) \
                 in kernel {kernel:?} on device {device}"
            ),
            SanitizerError::UninitRead { device, kernel, buffer, index, access } => write!(
                f,
                "sanitizer: {access} of never-written word {buffer:?}[{index}] \
                 in kernel {kernel:?} on device {device}"
            ),
            SanitizerError::RaceCondition { device, kernel, buffer, index, first, second } => {
                write!(
                    f,
                    "sanitizer: race on {buffer:?}[{index}] in kernel {kernel:?} on device \
                     {device}: {first} conflicts with {second}"
                )
            }
            SanitizerError::ConcurrentConflict {
                device,
                buffer,
                index,
                first_kernel,
                second_kernel,
                first,
                second,
            } => write!(
                f,
                "sanitizer: concurrent-window conflict on {buffer:?}[{index}] on device \
                 {device}: {first} in kernel {first_kernel:?} conflicts with {second} in \
                 kernel {second_kernel:?}"
            ),
            SanitizerError::SharedOutOfBounds { device, kernel, index, len, access } => write!(
                f,
                "sanitizer: out-of-bounds shared {access} of [{index}] (len {len}) \
                 in kernel {kernel:?} on device {device}"
            ),
            SanitizerError::SharedUninitRead { device, kernel, index, access } => write!(
                f,
                "sanitizer: {access} of never-written shared word [{index}] \
                 in kernel {kernel:?} on device {device}"
            ),
            SanitizerError::SharedRace { device, kernel, index, first, second } => write!(
                f,
                "sanitizer: shared-memory race on [{index}] in kernel {kernel:?} on device \
                 {device}: {first} conflicts with {second}"
            ),
        }
    }
}

impl std::error::Error for SanitizerError {}

/// True when the `GPU_SIM_SANITIZER` environment knob asks for
/// sanitizer-enabled runs (the CI sanitizer job sets it). Accepted
/// values: `1`, `true`, `on` (case-insensitive).
pub fn env_enabled() -> bool {
    std::env::var("GPU_SIM_SANITIZER")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on"
        })
        .unwrap_or(false)
}

/// Shadow state of one global word within the current launch.
#[derive(Clone, Copy, Default)]
struct WordState {
    read: Option<ThreadCoord>,
    write: Option<ThreadCoord>,
    atomic: Option<ThreadCoord>,
    poisoned: bool,
}

/// Shadow state of one shared word within the current CTA.
#[derive(Clone, Copy, Default)]
struct SharedWord {
    written_init: bool,
    write: Option<ThreadCoord>,
    read: Option<ThreadCoord>,
    poisoned: bool,
}

/// Per-word summary merged into an open concurrent window. Each slot
/// remembers the first kernel (by window-local index) that touched the
/// word that way.
#[derive(Clone, Copy, Default)]
struct WindowWord {
    write: Option<(u32, Access)>,
    read: Option<(u32, Access)>,
    atomic: Option<(u32, Access)>,
    poisoned: bool,
}

/// Accumulated state of an open `begin_concurrent` window.
#[derive(Default)]
struct WindowState {
    kernels: Vec<String>,
    words: HashMap<u64, WindowWord>,
}

/// Maximum findings retained verbatim; further findings are counted but
/// not stored (determinism is unaffected — the *first* finding, which is
/// what surfaces as the launch error, is always retained).
pub const MAX_FINDINGS: usize = 64;

/// The device-memory sanitizer. Install with
/// [`crate::Device::enable_sanitizer`]; inspect with
/// [`Sanitizer::findings`].
pub struct Sanitizer {
    device_id: usize,
    findings: Vec<SanitizerError>,
    total_findings: u64,
    checked_accesses: u64,
    kernel: String,
    words: HashMap<u64, WordState>,
    /// Buffer-id → name cache so window merges can name buffers without
    /// holding a `&DeviceMem`.
    names: HashMap<usize, String>,
    launch_first: Option<SanitizerError>,
    window_first: Option<SanitizerError>,
    shared: Vec<SharedWord>,
    window: Option<WindowState>,
}

const INDEX_BITS: u32 = 40;

fn word_key(buf: BufferId, index: usize) -> u64 {
    ((buf.0 as u64) << INDEX_BITS) | index as u64
}

/// Two accesses are concurrency-eligible when no barrier orders them:
/// different CTAs always are; within one CTA, the init phase is
/// barrier-separated from the body (and itself cooperative), so only two
/// distinct body warps qualify.
fn concurrent(a: ThreadCoord, b: ThreadCoord) -> bool {
    if a.cta != b.cta {
        return true;
    }
    if a.warp == COOP_PHASE || b.warp == COOP_PHASE {
        return false;
    }
    a.warp != b.warp
}

impl Sanitizer {
    pub(crate) fn new(device_id: usize) -> Self {
        Self {
            device_id,
            findings: Vec::new(),
            total_findings: 0,
            checked_accesses: 0,
            kernel: String::new(),
            words: HashMap::new(),
            names: HashMap::new(),
            launch_first: None,
            window_first: None,
            shared: Vec::new(),
            window: None,
        }
    }

    /// All retained findings since construction (capped at
    /// [`MAX_FINDINGS`]; see [`Sanitizer::total_findings`] for the full
    /// count).
    pub fn findings(&self) -> &[SanitizerError] {
        &self.findings
    }

    /// Total findings detected, including any beyond the retention cap.
    pub fn total_findings(&self) -> u64 {
        self.total_findings
    }

    /// Total device-side accesses checked (one per active lane).
    pub fn checked_accesses(&self) -> u64 {
        self.checked_accesses
    }

    fn retain(&mut self, finding: SanitizerError) {
        self.total_findings += 1;
        if self.findings.len() < MAX_FINDINGS {
            self.findings.push(finding);
        }
    }

    /// Records a finding attributed to the current launch.
    fn record(&mut self, finding: SanitizerError) {
        if self.launch_first.is_none() {
            self.launch_first = Some(finding.clone());
        }
        self.retain(finding);
    }

    /// Records a finding attributed to the enclosing concurrent window.
    fn record_window(&mut self, finding: SanitizerError) {
        if self.window_first.is_none() {
            self.window_first = Some(finding.clone());
        }
        self.retain(finding);
    }

    pub(crate) fn begin_launch(&mut self, kernel: &str) {
        self.kernel.clear();
        self.kernel.push_str(kernel);
        self.words.clear();
        self.launch_first = None;
    }

    pub(crate) fn begin_cta(&mut self, shared_words: usize) {
        self.shared.clear();
        self.shared.resize(shared_words, SharedWord::default());
    }

    /// Marks every shared word of the current CTA as init-phase written
    /// (used by the cooperative `shared_fill`).
    pub(crate) fn mark_shared_all_init(&mut self) {
        for w in &mut self.shared {
            w.written_init = true;
        }
    }

    /// Closes the launch: merges its footprint into an open concurrent
    /// window and returns the launch's first finding, if any.
    pub(crate) fn end_launch(&mut self) -> Option<SanitizerError> {
        if self.window.is_some() {
            self.merge_into_window();
        }
        self.launch_first.take()
    }

    pub(crate) fn begin_window(&mut self) {
        self.window = Some(WindowState::default());
        self.window_first = None;
    }

    /// Closes the concurrent window and returns its first cross-kernel
    /// conflict, if any.
    pub(crate) fn end_window(&mut self) -> Option<SanitizerError> {
        self.window = None;
        self.window_first.take()
    }

    /// Validates one global access to the buffer `buf` (whose shadow
    /// init bitmap is `init`); returns `false` when the access must be
    /// suppressed (out of bounds).
    pub(crate) fn check_global(
        &mut self,
        buf: BufMeta<'_>,
        init: Option<&[bool]>,
        index: usize,
        thread: ThreadCoord,
        kind: AccessKind,
    ) -> bool {
        self.checked_accesses += 1;
        if index >= buf.len {
            let finding = SanitizerError::OutOfBounds {
                device: self.device_id,
                kernel: self.kernel.clone(),
                buffer: buf.name.to_string(),
                index,
                len: buf.len,
                access: Access { thread, kind },
            };
            self.record(finding);
            return false;
        }
        // Atomics also *read* the old value, so they count here too.
        if kind != AccessKind::Write && !word_initialized(init, index) {
            let finding = SanitizerError::UninitRead {
                device: self.device_id,
                kernel: self.kernel.clone(),
                buffer: buf.name.to_string(),
                index,
                access: Access { thread, kind },
            };
            self.record(finding);
        }
        if buf.race_policy == RacePolicy::Strict {
            self.check_race(buf, index, thread, kind);
        }
        true
    }

    fn check_race(&mut self, buf: BufMeta<'_>, index: usize, thread: ThreadCoord, kind: AccessKind) {
        self.names.entry(buf.id.0).or_insert_with(|| buf.name.to_string());
        let key = word_key(buf.id, index);
        let w = self.words.entry(key).or_default();
        if w.poisoned {
            return;
        }
        let second = Access { thread, kind };
        let conflict: Option<Access> = match kind {
            AccessKind::Read => w
                .write
                .filter(|&p| concurrent(p, thread))
                .map(|p| Access { thread: p, kind: AccessKind::Write })
                .or_else(|| {
                    w.atomic
                        .filter(|&p| concurrent(p, thread))
                        .map(|p| Access { thread: p, kind: AccessKind::Atomic })
                }),
            AccessKind::Write => w
                .write
                .filter(|&p| concurrent(p, thread))
                .map(|p| Access { thread: p, kind: AccessKind::Write })
                .or_else(|| {
                    w.read
                        .filter(|&p| concurrent(p, thread))
                        .map(|p| Access { thread: p, kind: AccessKind::Read })
                })
                .or_else(|| {
                    w.atomic
                        .filter(|&p| concurrent(p, thread))
                        .map(|p| Access { thread: p, kind: AccessKind::Atomic })
                }),
            AccessKind::Atomic => w
                .write
                .filter(|&p| concurrent(p, thread))
                .map(|p| Access { thread: p, kind: AccessKind::Write })
                .or_else(|| {
                    w.read
                        .filter(|&p| concurrent(p, thread))
                        .map(|p| Access { thread: p, kind: AccessKind::Read })
                }),
        };
        match kind {
            AccessKind::Read => {
                if w.read.is_none() {
                    w.read = Some(thread);
                }
            }
            AccessKind::Write => {
                if w.write.is_none() {
                    w.write = Some(thread);
                }
            }
            AccessKind::Atomic => {
                if w.atomic.is_none() {
                    w.atomic = Some(thread);
                }
            }
        }
        if let Some(first) = conflict {
            w.poisoned = true;
            let finding = SanitizerError::RaceCondition {
                device: self.device_id,
                kernel: self.kernel.clone(),
                buffer: buf.name.to_string(),
                index,
                first,
                second,
            };
            self.record(finding);
        }
    }

    /// Validates one shared-memory access; returns `false` when it must
    /// be suppressed (out of bounds).
    pub(crate) fn check_shared(
        &mut self,
        index: usize,
        len: usize,
        thread: ThreadCoord,
        kind: AccessKind,
    ) -> bool {
        self.checked_accesses += 1;
        if index >= len {
            let finding = SanitizerError::SharedOutOfBounds {
                device: self.device_id,
                kernel: self.kernel.clone(),
                index,
                len,
                access: Access { thread, kind },
            };
            self.record(finding);
            return false;
        }
        if self.shared.len() < len {
            self.shared.resize(len, SharedWord::default());
        }
        let second = Access { thread, kind };
        if thread.warp == COOP_PHASE {
            if kind.is_write() {
                self.shared[index].written_init = true;
            }
            return true;
        }
        if self.shared[index].poisoned {
            return true;
        }
        let uninit = {
            let word = &self.shared[index];
            !kind.is_write() && !word.written_init && word.write.is_none()
        };
        if uninit {
            let finding = SanitizerError::SharedUninitRead {
                device: self.device_id,
                kernel: self.kernel.clone(),
                index,
                access: second,
            };
            self.record(finding);
        }
        let conflict: Option<Access> = {
            let word = &self.shared[index];
            if kind.is_write() {
                word.write
                    .filter(|&p| p.warp != thread.warp)
                    .map(|p| Access { thread: p, kind: AccessKind::Write })
                    .or_else(|| {
                        word.read
                            .filter(|&p| p.warp != thread.warp)
                            .map(|p| Access { thread: p, kind: AccessKind::Read })
                    })
            } else {
                word.write
                    .filter(|&p| p.warp != thread.warp)
                    .map(|p| Access { thread: p, kind: AccessKind::Write })
            }
        };
        {
            let word = &mut self.shared[index];
            if kind.is_write() {
                if word.write.is_none() {
                    word.write = Some(thread);
                }
            } else if word.read.is_none() {
                word.read = Some(thread);
            }
        }
        if let Some(first) = conflict {
            self.shared[index].poisoned = true;
            let finding = SanitizerError::SharedRace {
                device: self.device_id,
                kernel: self.kernel.clone(),
                index,
                first,
                second,
            };
            self.record(finding);
        }
        true
    }

    /// Folds the just-finished launch's strict-word footprint into the
    /// open window, reporting cross-kernel conflicts. Only strict-buffer
    /// words ever enter `self.words`, so relaxed buffers are exempt here
    /// automatically.
    fn merge_into_window(&mut self) {
        let Some(mut window) = self.window.take() else { return };
        let kidx = window.kernels.len() as u32;
        window.kernels.push(self.kernel.clone());
        let mut conflicts: Vec<SanitizerError> = Vec::new();
        let mut keys: Vec<u64> = self.words.keys().copied().collect();
        keys.sort_unstable(); // HashMap iteration order is not deterministic
        for key in keys {
            let w = self.words[&key];
            let entry = window.words.entry(key).or_default();
            if entry.poisoned {
                continue;
            }
            // Deterministic order: writes, then atomics, then reads.
            let locals: [Option<Access>; 3] = [
                w.write.map(|t| Access { thread: t, kind: AccessKind::Write }),
                w.atomic.map(|t| Access { thread: t, kind: AccessKind::Atomic }),
                w.read.map(|t| Access { thread: t, kind: AccessKind::Read }),
            ];
            for second in locals.into_iter().flatten() {
                let prior: Option<(u32, Access)> = match second.kind {
                    AccessKind::Write => entry
                        .write
                        .filter(|(k, _)| *k != kidx)
                        .or(entry.atomic.filter(|(k, _)| *k != kidx))
                        .or(entry.read.filter(|(k, _)| *k != kidx)),
                    AccessKind::Atomic => entry
                        .write
                        .filter(|(k, _)| *k != kidx)
                        .or(entry.read.filter(|(k, _)| *k != kidx)),
                    AccessKind::Read => entry
                        .write
                        .filter(|(k, _)| *k != kidx)
                        .or(entry.atomic.filter(|(k, _)| *k != kidx)),
                };
                match second.kind {
                    AccessKind::Write => {
                        if entry.write.is_none() {
                            entry.write = Some((kidx, second));
                        }
                    }
                    AccessKind::Atomic => {
                        if entry.atomic.is_none() {
                            entry.atomic = Some((kidx, second));
                        }
                    }
                    AccessKind::Read => {
                        if entry.read.is_none() {
                            entry.read = Some((kidx, second));
                        }
                    }
                }
                if let Some((first_k, first)) = prior {
                    entry.poisoned = true;
                    let buf_id = (key >> INDEX_BITS) as usize;
                    let buffer = self
                        .names
                        .get(&buf_id)
                        .cloned()
                        .unwrap_or_else(|| format!("buffer#{buf_id}"));
                    conflicts.push(SanitizerError::ConcurrentConflict {
                        device: self.device_id,
                        buffer,
                        index: (key & ((1u64 << INDEX_BITS) - 1)) as usize,
                        first_kernel: window.kernels[first_k as usize].clone(),
                        second_kernel: self.kernel.clone(),
                        first,
                        second,
                    });
                    break;
                }
            }
        }
        self.window = Some(window);
        for c in conflicts {
            self.record_window(c);
        }
    }
}
