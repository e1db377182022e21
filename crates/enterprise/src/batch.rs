//! Batch multi-source BFS serving plane (DESIGN.md §5i, §5j).
//!
//! The paper's headline numbers are averages over 64 random sources — a
//! Graph500-style batch. This module turns that batch from 64
//! independent cold traversals into one supervised service over a warm
//! fleet:
//!
//! - **Per-source fault isolation.** A source that exhausts its
//!   recovery ladder is quarantined as [`SourceOutcome::Poisoned`] with
//!   its typed [`BfsError`]; the batch continues. Every run — first
//!   attempt, retry, or hedge — draws from a fault universe scoped by
//!   [`gpu_sim::FaultSpec::scoped`] to `(source, attempt)`, so
//!   injection is bit-reproducible no matter the batch order and one
//!   source's draws never perturb a sibling's.
//! - **Retries and hedging.** Failed sources are retried up to
//!   [`BatchPolicy::max_retries`] times with exponential backoff, each
//!   retry in a fresh fault universe. A source the deadline classifier
//!   judges *slow-but-alive* (level or kernel deadline overrun within
//!   [`BatchPolicy::hedge_threshold`]) instead gets one hedged
//!   re-execution with deadlines lifted; success is reported as
//!   [`SourceOutcome::HedgeWin`].
//! - **Deadline shedding.** Once the batch's accumulated simulated time
//!   crosses [`BatchPolicy::deadline_ms`], every still-pending source is
//!   reported as [`SourceOutcome::Shed`] — never silently dropped.
//!   Under [`ShedOrder::LowestPriorityFirst`] execution runs highest
//!   priority first, so the shed tail is exactly the lowest-priority
//!   work.
//! - **Graceful brownout.** While a batch runs, the per-run fleet
//!   restoration (revive + partition restore) is pinned off: devices
//!   evicted or link-isolated during one source stay evicted for the
//!   rest of the batch, and the rebalanced layout, imbalance-detector
//!   state, and link verdicts learned on one source carry to the next
//!   instead of being re-measured per source.
//! - **Durable outcome ledger.** With persistence armed, the batch
//!   appends a per-source outcome record to an append-only log after
//!   every terminal outcome; a killed batch restarts, replays the log,
//!   resumes from the first unfinished source, and reports prior
//!   outcomes as `resumed` without re-running them. A torn log tail
//!   degrades to the last intact record, not a cold batch, and the
//!   browned-out fleet shape (evictions, spliced boundaries, learned
//!   link verdicts) rides the same log so the resumed batch re-evicts
//!   and continues on the survivor fleet.
//! - **Pipelined frontiers (MS-BFS).** With
//!   [`BatchPolicy::pipeline`] set to [`PipelineMode::Overlap`], up to
//!   `width` sources are co-scheduled on the shared fleet: each sweep
//!   opens one fused multi-stream window, every active lane advances
//!   one level inside it, and a finishing source's tail levels overlap
//!   the next admitted source's first levels. Per-source digests are
//!   bit-identical to the sequential plane; only the overlapped
//!   wall clock differs. A lane that faults is demoted to the
//!   de-pipelined attempt ladder (its pipelined run counts as attempt
//!   #1), so poisoning, hedging, and shedding accounting are unchanged.
//!
//! The report's outcome counts are read off its per-source runs, so
//! every submitted source has exactly one outcome by construction. On a
//! fault-free fleet without persistence the plane is bit-identical to
//! the caller looping over `try_bfs` itself: a scoped zero-rate spec
//! draws nothing, the brownout pin has nothing to keep, and there is no
//! ledger. A caller that wants no serving plane calls `try_bfs`.

use crate::error::{Backoff, BfsError};
use crate::multi_gpu::{Fleet, FleetLane, MultiBfsResult};
use crate::persist::{
    encode, read_ledger, BatchLedgerEntry, FleetRecord, PersistError, BATCH_FILE,
};
use enterprise_graph::VertexId;
use gpu_sim::{DeviceError, FaultSpec};
use std::collections::{BTreeMap, VecDeque};

/// Scope id for the hedged re-execution's fault universe. Attempt
/// scopes are small indices (bounded by `max_retries`), so the hedge
/// can never alias one.
const HEDGE_SCOPE: u64 = u64::MAX;

/// The fault universe of one run of `source` under the fleet's `base`
/// spec: `scope` 0 is the source's own universe, for its first attempt,
/// sequential or in a pipelined lane; a retry passes its attempt index
/// and the hedge [`HEDGE_SCOPE`].
fn universe(base: Option<FaultSpec>, source: VertexId, scope: u64) -> Option<FaultSpec> {
    base.map(|spec| {
        let spec = spec.scoped(source as u64);
        if scope == 0 {
            spec
        } else {
            spec.scoped(scope)
        }
    })
}

/// Which pending sources a batch deadline sheds first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedOrder {
    /// Execute in descending priority (ties in submission order), so
    /// the sources still pending at the deadline — and therefore shed —
    /// are the lowest-priority ones.
    LowestPriorityFirst,
    /// Execute in submission order; the deadline sheds the tail.
    SubmissionTail,
}

/// Multi-source frontier pipelining for the serving plane (MS-BFS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// One source at a time. Strictly bit-identical — timing, counters,
    /// digests, ledger bytes — to the serving plane before pipelining
    /// existed.
    Off,
    /// Co-schedule up to `width` sources: one fused kernel sweep per
    /// level services the union of the active frontiers, and admission
    /// of the next source overlaps the tail levels of the finishing
    /// ones. Widths below 2 still take the pipelined code path with a
    /// single lane.
    Overlap(usize),
}

/// Knobs for the batch serving plane, built by [`BatchPolicy::on`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchPolicy {
    /// Batch-level budget on accumulated simulated time (run time plus
    /// retry backoff), in milliseconds. Once crossed, every pending
    /// source is shed. `None` = no deadline.
    pub deadline_ms: Option<f64>,
    /// Full re-runs allowed per source after its first failed attempt,
    /// each charged the shared retry backoff on the batch clock.
    pub max_retries: u32,
    /// Largest deadline-overrun factor (elapsed / budget) still
    /// classified slow-but-alive and worth one hedged re-execution with
    /// deadlines lifted. `0.0` disables hedging.
    pub hedge_threshold: f64,
    /// Which pending sources a batch deadline sheds first.
    pub shed_order: ShedOrder,
    /// Multi-source frontier pipelining ([`PipelineMode`]).
    pub pipeline: PipelineMode,
}

impl BatchPolicy {
    /// The serving plane with its defaults: 2 retries per source with
    /// 0.05 ms backoff doubling per retry, hedging for overruns up to
    /// 16x, no batch deadline, lowest-priority-first shedding, pipelining
    /// off.
    pub fn on() -> Self {
        BatchPolicy {
            deadline_ms: None,
            max_retries: 2,
            hedge_threshold: 16.0,
            shed_order: ShedOrder::LowestPriorityFirst,
            pipeline: PipelineMode::Off,
        }
    }

    /// The serving plane with `width`-wide frontier pipelining.
    pub fn pipelined(width: usize) -> Self {
        BatchPolicy { pipeline: PipelineMode::Overlap(width), ..Self::on() }
    }
}

/// One entry in the submitted batch queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchSource {
    /// BFS root.
    pub source: VertexId,
    /// Scheduling priority; higher runs earlier (and sheds later) under
    /// [`ShedOrder::LowestPriorityFirst`].
    pub priority: u32,
}

impl BatchSource {
    /// A source with the default priority 0.
    pub fn new(source: VertexId) -> Self {
        BatchSource { source, priority: 0 }
    }

    /// A source with an explicit priority.
    pub fn with_priority(source: VertexId, priority: u32) -> Self {
        BatchSource { source, priority }
    }
}

impl From<VertexId> for BatchSource {
    fn from(source: VertexId) -> Self {
        BatchSource::new(source)
    }
}

/// Why a source was quarantined.
#[derive(Clone, Debug)]
pub enum PoisonReason {
    /// The typed error that exhausted the source's ladder in this
    /// process.
    Error(BfsError),
    /// A poisoned outcome replayed from the durable ledger of an
    /// earlier (killed) batch process; carries the rendered error.
    Recorded(String),
}

impl std::fmt::Display for PoisonReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoisonReason::Error(e) => write!(f, "{e}"),
            PoisonReason::Recorded(s) => write!(f, "{s}"),
        }
    }
}

/// Terminal outcome of one batch source.
#[derive(Clone, Debug)]
pub enum SourceOutcome {
    /// Finished (possibly after retries) with an oracle-checkable
    /// result.
    Completed,
    /// Finished via the hedged re-execution after a slow-but-alive
    /// classification.
    HedgeWin,
    /// Exhausted its ladder; quarantined with its typed error. Sibling
    /// sources are unaffected.
    Poisoned(PoisonReason),
    /// Never ran because the batch deadline had already passed.
    Shed,
}

impl SourceOutcome {
    /// True for outcomes that produced a result (completed or hedge
    /// win).
    pub fn is_ok(&self) -> bool {
        matches!(self, SourceOutcome::Completed | SourceOutcome::HedgeWin)
    }

    fn tag(&self) -> u32 {
        match self {
            SourceOutcome::Completed => 0,
            SourceOutcome::HedgeWin => 1,
            SourceOutcome::Poisoned(_) => 2,
            SourceOutcome::Shed => 3,
        }
    }

    fn from_tag(tag: u32, error: &str) -> Self {
        match tag {
            0 => SourceOutcome::Completed,
            1 => SourceOutcome::HedgeWin,
            2 => SourceOutcome::Poisoned(PoisonReason::Recorded(error.to_string())),
            _ => SourceOutcome::Shed,
        }
    }
}

/// Per-source record in a [`BatchReport`], in submission order.
#[derive(Clone, Debug)]
pub struct SourceRun<R> {
    /// BFS root.
    pub source: VertexId,
    /// Submitted priority.
    pub priority: u32,
    /// Terminal outcome.
    pub outcome: SourceOutcome,
    /// Runs executed for this source in this process (first attempt,
    /// retries, and hedge; 0 for shed or resumed sources). A pipelined
    /// lane run counts as one attempt.
    pub attempts: u32,
    /// Simulated milliseconds this source consumed in this process
    /// (successful and failed runs plus its retry backoff). For a
    /// pipelined source this is its own lane's serial charge, not the
    /// overlapped wall time.
    pub time_ms: f64,
    /// FNV-1a digest over the result's levels and parents (0 unless the
    /// outcome is ok). Stable across processes, so a resumed source's
    /// digest can be diffed against an uninterrupted run's.
    pub digest: u64,
    /// True when the outcome was replayed from the durable ledger of an
    /// earlier batch process instead of being re-run.
    pub resumed: bool,
    /// The driver result for ok outcomes executed in this process
    /// (`None` for resumed, poisoned, and shed sources).
    pub result: Option<R>,
}

/// Accounting for one batch call. The outcome counts are read off
/// [`BatchReport::runs`], which holds one run per submitted source.
#[derive(Clone, Debug)]
pub struct BatchReport<R> {
    /// Submitted sources.
    pub sources: usize,
    /// Retry runs executed across the batch.
    pub retries: u32,
    /// Hedged re-executions launched across the batch.
    pub hedges: u32,
    /// Accumulated simulated time. Sequential: run time of every
    /// attempt plus retry backoff. Pipelined: the overlapped wall time
    /// of the fused sweeps plus de-pipelined recovery time — the number
    /// the ≥1.2x speedup criterion compares.
    pub batch_ms: f64,
    /// Retry backoff charged to the batch clock, in milliseconds.
    pub backoff_ms: f64,
    /// Per-source records, in submission order.
    pub runs: Vec<SourceRun<R>>,
    /// Ledger loads/saves that failed (torn writes, at-rest corruption,
    /// mismatched graphs). The batch degrades to cold execution rather
    /// than aborting; the errors are surfaced here.
    pub manifest_errors: Vec<PersistError>,
}

impl<R> BatchReport<R> {
    /// The serving plane's accounting invariant: every submitted source
    /// has exactly one run, and so exactly one terminal outcome.
    pub fn accounted(&self) -> bool {
        self.runs.len() == self.sources
    }

    fn count(&self, pick: impl Fn(&SourceRun<R>) -> bool) -> usize {
        self.runs.iter().filter(|r| pick(r)).count()
    }

    /// Sources that completed on a regular attempt.
    pub fn completed(&self) -> usize {
        self.count(|r| matches!(r.outcome, SourceOutcome::Completed))
    }

    /// Sources that completed via the hedged re-execution.
    pub fn hedge_wins(&self) -> usize {
        self.count(|r| matches!(r.outcome, SourceOutcome::HedgeWin))
    }

    /// Sources quarantined with a typed error.
    pub fn poisoned(&self) -> usize {
        self.count(|r| matches!(r.outcome, SourceOutcome::Poisoned(_)))
    }

    /// Sources shed by the batch deadline.
    pub fn shed(&self) -> usize {
        self.count(|r| matches!(r.outcome, SourceOutcome::Shed))
    }

    /// Sources whose outcome was replayed from the durable ledger.
    pub fn resumed(&self) -> usize {
        self.count(|r| r.resumed)
    }
}

/// FNV-1a digest over a result's levels, then its parents, with
/// `u32::MAX` standing in for unreachable (vertex ids stay below it).
/// The batch ledger, the bench binaries and the golden fixtures all
/// print this one digest, so their lines diff cleanly against each other.
pub fn result_digest(levels: &[Option<u32>], parents: &[Option<VertexId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for l in levels {
        feed(l.unwrap_or(u32::MAX));
    }
    for p in parents {
        feed(p.unwrap_or(u32::MAX));
    }
    h
}

/// Classifies an escaped error as slow-but-alive, returning the
/// deadline-overrun factor (elapsed / budget). Level-deadline overruns
/// and kernel-deadline overruns (direct, or as the last straw of a
/// replay budget) qualify; everything else — losses, validation
/// failures, hangs — is not hedgeable.
fn slow_overrun(e: &BfsError) -> Option<f64> {
    let kernel_overrun = |d: &DeviceError| match d {
        DeviceError::KernelDeadline { elapsed_us, budget_us, .. } if *budget_us > 0 => {
            Some(*elapsed_us as f64 / *budget_us as f64)
        }
        _ => None,
    };
    match e {
        BfsError::Deadline { elapsed_ms, budget_ms, .. } if *budget_ms > 0.0 => {
            Some(elapsed_ms / budget_ms)
        }
        BfsError::Device(d) => kernel_overrun(d),
        BfsError::LevelRetriesExhausted { last, .. } => kernel_overrun(last),
        _ => None,
    }
}

/// Appends one encoded record to the durable batch log (when armed).
/// Append failures degrade to a recorded error, never an aborted batch.
fn ledger_append(host: &mut Fleet, record: &[u8], errors: &mut Vec<PersistError>) {
    if let Some(store) = host.store() {
        if let Err(e) = store.append(BATCH_FILE, record) {
            errors.push(e);
        }
    }
}

/// Records a terminal outcome, then — if the fleet's degradation shape
/// changed since the last recorded one — the new fleet shape, so a
/// resumed batch re-evicts and continues on the survivors.
fn ledger_outcome(
    host: &mut Fleet,
    entry: BatchLedgerEntry,
    last_fleet: &mut Option<FleetRecord>,
    errors: &mut Vec<PersistError>,
) {
    ledger_append(host, &encode(&entry), errors);
    if let Some(rec) = host.capture_fleet() {
        if last_fleet.as_ref() != Some(&rec) {
            ledger_append(host, &encode(&rec), errors);
            *last_fleet = Some(rec);
        }
    }
}

/// Opens the durable batch log: replays prior terminal outcomes (keyed
/// by queue index, last record wins) and restores a recorded degraded
/// fleet shape. A cold batch — no log, or one that fails its header or
/// holds a bad record, each recorded as a typed error — rewrites the log
/// as a lone header binding it to this driver kind and graph.
fn ledger_open(
    host: &mut Fleet,
    report: &mut BatchReport<MultiBfsResult>,
) -> (BTreeMap<u32, BatchLedgerEntry>, Option<FleetRecord>) {
    let mut prior = BTreeMap::new();
    let mut fleet = None;
    if let Some(store) = host.store() {
        match read_ledger(store) {
            Ok(Some(replay)) => {
                for e in replay.entries {
                    prior.insert(e.index, e);
                }
                fleet = replay.fleet;
            }
            cold => {
                report.manifest_errors.extend(cold.err());
                if let Err(e) = store.rewrite(BATCH_FILE, &[]) {
                    report.manifest_errors.push(e);
                }
            }
        }
    }
    let mut last_fleet = None;
    if let Some(rec) = fleet {
        if host.restore_fleet(&rec) {
            last_fleet = Some(rec);
        } else {
            // The replayed outcomes stay valid (they are records of
            // finished work); only the fleet shape failed to transfer,
            // so the rest of the batch runs on the cold fleet.
            report.manifest_errors.push(PersistError::LayoutMismatch);
        }
    }
    (prior, last_fleet)
}

/// A source's terminal outcome, as the attempt ladder (or a pipelined
/// lane, or the deadline) produced it.
struct Terminal {
    outcome: SourceOutcome,
    result: Option<MultiBfsResult>,
    attempts: u32,
    spent_ms: f64,
}

impl Terminal {
    /// Shed by the batch deadline before it ever ran.
    fn shed() -> Self {
        Terminal { outcome: SourceOutcome::Shed, result: None, attempts: 0, spent_ms: 0.0 }
    }
}

/// One serving-plane batch in flight on a pinned fleet: the queue, the
/// policy, the fleet's base fault spec, and everything recorded so far.
struct BatchRun<'a> {
    sources: &'a [BatchSource],
    policy: &'a BatchPolicy,
    base: Option<FaultSpec>,
    report: BatchReport<MultiBfsResult>,
    /// Per-source records by queue index, filled as outcomes land.
    slots: Vec<Option<SourceRun<MultiBfsResult>>>,
    /// The last fleet shape appended to the durable log.
    last_fleet: Option<FleetRecord>,
}

impl<'a> BatchRun<'a> {
    /// The prologue both planes share: opens the durable log, replays
    /// the outcomes an earlier process recorded for these exact queue
    /// slots (not re-run, not re-appended), and pins the fleet. Returns
    /// the batch and the queue indices still to run, in execution order:
    /// highest priority first (stable in submission order) under
    /// [`ShedOrder::LowestPriorityFirst`], so a deadline sheds the
    /// lowest-priority pending tail.
    fn open(
        host: &mut Fleet,
        sources: &'a [BatchSource],
        policy: &'a BatchPolicy,
    ) -> (Self, Vec<usize>) {
        let mut report = BatchReport {
            sources: sources.len(),
            retries: 0,
            hedges: 0,
            batch_ms: 0.0,
            backoff_ms: 0.0,
            runs: Vec::new(),
            manifest_errors: Vec::new(),
        };
        let (prior, last_fleet) = ledger_open(host, &mut report);
        let mut order: Vec<usize> = (0..sources.len()).collect();
        if policy.shed_order == ShedOrder::LowestPriorityFirst {
            order.sort_by_key(|&i| (std::cmp::Reverse(sources[i].priority), i));
        }
        host.set_pinned(true);
        let mut slots = Vec::new();
        slots.resize_with(sources.len(), || None);
        let mut pending = Vec::new();
        for i in order {
            let bs = &sources[i];
            match prior.get(&(i as u32)) {
                Some(entry) if entry.source == bs.source && entry.priority == bs.priority => {
                    slots[i] = Some(SourceRun {
                        source: bs.source,
                        priority: bs.priority,
                        outcome: SourceOutcome::from_tag(entry.outcome, &entry.error),
                        attempts: 0,
                        time_ms: 0.0,
                        digest: entry.digest,
                        resumed: true,
                        result: None,
                    });
                }
                _ => pending.push(i),
            }
        }
        let base = host.base_faults();
        (BatchRun { sources, policy, base, report, slots, last_fleet }, pending)
    }

    /// Whether the batch clock has crossed the policy's deadline.
    fn past_deadline(&self) -> bool {
        self.policy.deadline_ms.is_some_and(|d| self.report.batch_ms >= d)
    }

    /// The de-pipelined attempt ladder for source `i`: first attempt,
    /// then either one hedged re-execution (slow-but-alive) or backoff
    /// retries, each in a fresh fault [`universe`].
    ///
    /// `prior_attempts`/`prior_spent_ms`/`first_error` let a failed
    /// pipelined lane enter the ladder mid-flight: its lane run counts as
    /// attempt #1, its sunk lane time is carried, and its error is
    /// classified (hedge vs retry) exactly as a sequential first-attempt
    /// failure would be.
    fn ladder(
        &mut self,
        host: &mut Fleet,
        i: usize,
        prior_attempts: u32,
        prior_spent_ms: f64,
        first_error: Option<BfsError>,
    ) -> Terminal {
        let source = self.sources[i].source;
        let mut attempts = prior_attempts;
        let mut retries_left = self.policy.max_retries;
        let mut backoff = Backoff::new();
        let mut spent_ms = prior_spent_ms;
        let mut hedged = false;
        let mut next_is_hedge = false;
        let mut pending_error = first_error;
        let (outcome, result) = loop {
            let (run, was_hedge, executed) = match pending_error.take() {
                // A lane failure enters here: already executed (and
                // charged) by the pipelined sweep, never a hedge.
                Some(e) => (Err(e), false, false),
                None => {
                    let scope = if next_is_hedge { HEDGE_SCOPE } else { attempts as u64 };
                    host.set_faults(universe(self.base, source, scope));
                    let saved = next_is_hedge.then(|| host.relax_deadlines());
                    let run = host.try_bfs(source);
                    if let Some(saved) = saved {
                        host.restore_deadlines(saved);
                    }
                    let was_hedge = next_is_hedge;
                    next_is_hedge = false;
                    attempts += 1;
                    (run, was_hedge, true)
                }
            };
            match run {
                Ok(r) => {
                    spent_ms += r.time_ms;
                    break if was_hedge {
                        (SourceOutcome::HedgeWin, Some(r))
                    } else {
                        (SourceOutcome::Completed, Some(r))
                    };
                }
                // A rejected source never started a run: nothing to
                // charge, hedge or retry.
                Err(e @ BfsError::SourceOutOfRange { .. }) => {
                    break (SourceOutcome::Poisoned(PoisonReason::Error(e)), None);
                }
                Err(e) => {
                    if executed {
                        spent_ms += host.sim_elapsed_ms();
                    }
                    let threshold = self.policy.hedge_threshold;
                    if !hedged && !was_hedge && threshold > 0.0 {
                        if let Some(overrun) = slow_overrun(&e) {
                            if overrun <= threshold {
                                hedged = true;
                                next_is_hedge = true;
                                self.report.hedges += 1;
                                continue;
                            }
                        }
                    }
                    if retries_left > 0 {
                        retries_left -= 1;
                        self.report.retries += 1;
                        let wait = backoff.take();
                        spent_ms += wait;
                        self.report.backoff_ms += wait;
                        continue;
                    }
                    break (SourceOutcome::Poisoned(PoisonReason::Error(e)), None);
                }
            }
        };
        Terminal { outcome, result, attempts, spent_ms }
    }

    /// Records source `i`'s terminal outcome: appends it (and any
    /// fleet-shape change) to the durable log, and fills its slot.
    fn finish(&mut self, host: &mut Fleet, i: usize, t: Terminal) {
        let bs = &self.sources[i];
        let digest = t.result.as_ref().map_or(0, |r| result_digest(&r.levels, &r.parents));
        ledger_outcome(
            host,
            BatchLedgerEntry {
                index: i as u32,
                source: bs.source,
                priority: bs.priority,
                outcome: t.outcome.tag(),
                attempts: t.attempts,
                digest,
                error: match &t.outcome {
                    SourceOutcome::Poisoned(reason) => reason.to_string(),
                    _ => String::new(),
                },
            },
            &mut self.last_fleet,
            &mut self.report.manifest_errors,
        );
        self.slots[i] = Some(SourceRun {
            source: bs.source,
            priority: bs.priority,
            outcome: t.outcome,
            attempts: t.attempts,
            time_ms: t.spent_ms,
            digest,
            resumed: false,
            result: t.result,
        });
    }

    /// Demotes failed pipelined source `i` to the attempt ladder. The
    /// lane run counts as attempt #1 with `lane_ms` already on its
    /// account; only the ladder's *additional* time joins the batch
    /// clock (the lane time was already inside a sweep span).
    fn depipeline(&mut self, host: &mut Fleet, i: usize, lane_ms: f64, error: BfsError) {
        let t = self.ladder(host, i, 1, lane_ms, Some(error));
        self.report.batch_ms += t.spent_ms - lane_ms;
        self.finish(host, i, t);
    }

    /// Releases the pin, restores the base fault spec, and hands back the
    /// report with every slot in submission order.
    fn close(self, host: &mut Fleet) -> BatchReport<MultiBfsResult> {
        host.set_pinned(false);
        host.set_faults(self.base);
        let mut report = self.report;
        report.runs = self.slots.into_iter().map(|s| s.expect("every slot filled")).collect();
        report
    }
}

/// Runs `sources` through the serving plane on `host`. See the module
/// docs for the semantics.
pub(crate) fn run_batch(
    host: &mut Fleet,
    sources: &[BatchSource],
    policy: &BatchPolicy,
) -> BatchReport<MultiBfsResult> {
    let (mut run, pending) = BatchRun::open(host, sources, policy);
    if let PipelineMode::Overlap(width) = policy.pipeline {
        run_pipelined(host, &mut run, pending.into(), width.max(1));
        return run.close(host);
    }
    for i in pending {
        // Deadline shedding: pending sources past the batch budget are
        // reported, never silently dropped.
        if run.past_deadline() {
            run.finish(host, i, Terminal::shed());
            continue;
        }
        let t = run.ladder(host, i, 0, 0.0, None);
        run.report.batch_ms += t.spent_ms;
        run.finish(host, i, t);
    }
    run.close(host)
}

/// An occupied pipeline slot: which queue index it serves, its lane
/// state, the simulated time charged to its stream so far, and the
/// fleet epoch it was opened against.
struct LaneSlot {
    idx: usize,
    lane: FleetLane,
    spent: f64,
    epoch: u64,
}

/// What a lane did during one fused sweep, resolved after the window
/// closes (in slot order, for determinism).
enum LaneEvent {
    /// The frontier drained; finish the lane into a result.
    Drained,
    /// The lane errored; demote the source to the de-pipelined ladder.
    Failed(BfsError),
    /// Admission failed before the lane existed (e.g. an injected
    /// allocation fault); the open counts as the source's attempt #1.
    Refused(usize, BfsError),
}

/// The pipelined (MS-BFS) serving plane: co-schedules up to `width`
/// sources, one fused kernel sweep per level over the union of the
/// active frontiers. Admission happens inside the sweep window, so a
/// fresh source's first levels overlap siblings' tail levels.
fn run_pipelined(
    host: &mut Fleet,
    run: &mut BatchRun<'_>,
    mut pending: VecDeque<usize>,
    width: usize,
) {
    let sources = run.sources;
    let mut lanes: Vec<Option<LaneSlot>> = Vec::new();
    lanes.resize_with(width, || None);
    // Lane time a source sank into a slice that was later aborted
    // (stale fleet epoch); carried into its re-opened lane's account.
    let mut carry_ms = vec![0.0f64; sources.len()];
    // Sources that ever held a lane: in-flight work, even when bounced
    // back to the queue by a stale fleet epoch, is never shed.
    let mut admitted = vec![false; sources.len()];

    loop {
        // Deadline shedding covers only sources never admitted to a
        // lane: in-flight lanes run to completion, exactly as the
        // sequential plane finishes its in-flight source, and that
        // includes stale-epoch re-admissions waiting at the queue front.
        let deadline_hit = run.past_deadline();
        if deadline_hit && !pending.is_empty() {
            let (keep, shed): (VecDeque<usize>, VecDeque<usize>) =
                pending.iter().copied().partition(|&i| admitted[i]);
            pending = keep;
            for i in shed {
                run.finish(host, i, Terminal::shed());
            }
        }
        if pending.is_empty() && lanes.iter().all(Option::is_none) {
            break;
        }

        // One fused sweep: every active lane advances one level, and
        // every free slot admits the next pending source inside the
        // same window.
        let epoch = host.fleet_epoch();
        let t0 = host.sim_elapsed_ms();
        host.sweep_begin(width);
        let mut events: Vec<(usize, LaneEvent)> = Vec::new();
        for (s, occupant) in lanes.iter_mut().enumerate().take(width) {
            host.sweep_switch(s);
            match occupant.as_mut() {
                Some(slot) => match host.lane_step(&mut slot.lane) {
                    Ok(true) => events.push((s, LaneEvent::Drained)),
                    Ok(false) => {}
                    Err(e) => events.push((s, LaneEvent::Failed(e))),
                },
                None => {
                    // Post-deadline, only stale re-admissions (already
                    // in flight before the budget ran out) may still
                    // take a slot; fresh sources were shed above.
                    let eligible =
                        pending.front().is_some_and(|&i| !deadline_hit || admitted[i]);
                    if eligible {
                        let i = pending.pop_front().expect("front just checked");
                        admitted[i] = true;
                        let spec = universe(run.base, sources[i].source, 0);
                        match host.lane_open(sources[i].source, s, spec) {
                            Ok(lane) => {
                                *occupant =
                                    Some(LaneSlot { idx: i, lane, spent: carry_ms[i], epoch });
                            }
                            Err(e) => events.push((s, LaneEvent::Refused(i, e))),
                        }
                    }
                }
            }
        }
        let charges = host.sweep_end(width);
        for (slot, charge) in lanes.iter_mut().zip(&charges) {
            if let Some(slot) = slot {
                slot.spent += charge;
            }
        }
        // The batch clock advances by the overlapped sweep span (the
        // whole point of pipelining), not the sum of lane charges.
        run.report.batch_ms += host.sim_elapsed_ms() - t0;

        // Terminal events resolve outside the fused window, in slot
        // order: drained lanes finish (audit + persistence), failed
        // lanes demote to the de-pipelined ladder with their lane run
        // counted as attempt #1 and their lane time carried.
        for (s, event) in events {
            match event {
                LaneEvent::Drained => {
                    let slot = lanes[s].take().expect("drained lane present");
                    match host.lane_finish(slot.lane, slot.spent) {
                        Ok(result) => {
                            let t = Terminal {
                                outcome: SourceOutcome::Completed,
                                result: Some(result),
                                attempts: 1,
                                spent_ms: slot.spent,
                            };
                            run.finish(host, slot.idx, t);
                        }
                        Err(e) => run.depipeline(host, slot.idx, slot.spent, e),
                    }
                }
                LaneEvent::Failed(e) => {
                    let slot = lanes[s].take().expect("failed lane present");
                    host.lane_abort(slot.lane);
                    run.depipeline(host, slot.idx, slot.spent, e);
                }
                LaneEvent::Refused(i, e) => run.depipeline(host, i, 0.0, e),
            }
        }

        // A de-pipelined recovery may have reshaped the fleet (device
        // eviction, boundary splice, rebalance): lanes opened on the
        // old shape hold stale device state. Abort them and re-admit at
        // the queue front in their original admission order; their sunk
        // lane time is carried over.
        let now_epoch = host.fleet_epoch();
        let mut stale: Vec<(usize, f64)> = Vec::new();
        for lane in &mut lanes {
            if lane.as_ref().is_some_and(|slot| slot.epoch != now_epoch) {
                let slot = lane.take().expect("stale lane present");
                stale.push((slot.idx, slot.spent));
                host.lane_abort(slot.lane);
            }
        }
        for (i, spent) in stale.into_iter().rev() {
            carry_ms[i] = spent;
            pending.push_front(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded() {
        let p = BatchPolicy::on();
        assert!(p.max_retries > 0);
        assert!(p.hedge_threshold > 0.0);
        assert!(p.deadline_ms.is_none());
        assert_eq!(p.pipeline, PipelineMode::Off);
        let piped = BatchPolicy::pipelined(4);
        assert_eq!(piped, BatchPolicy { pipeline: PipelineMode::Overlap(4), ..p });
    }

    #[test]
    fn outcome_tags_round_trip() {
        for (outcome, tag) in [
            (SourceOutcome::Completed, 0),
            (SourceOutcome::HedgeWin, 1),
            (SourceOutcome::Poisoned(PoisonReason::Recorded("x".into())), 2),
            (SourceOutcome::Shed, 3),
        ] {
            assert_eq!(outcome.tag(), tag);
            let back = SourceOutcome::from_tag(tag, "x");
            assert_eq!(back.tag(), tag);
            assert_eq!(outcome.is_ok(), back.is_ok());
        }
        assert!(matches!(
            SourceOutcome::from_tag(2, "boom"),
            SourceOutcome::Poisoned(PoisonReason::Recorded(s)) if s == "boom"
        ));
    }

    #[test]
    fn slow_overrun_classifies_deadline_shapes_only() {
        let slow = BfsError::Deadline { level: 3, attempts: 2, elapsed_ms: 4.0, budget_ms: 2.0 };
        assert_eq!(slow_overrun(&slow), Some(2.0));
        let kernel = DeviceError::KernelDeadline {
            device: 1,
            kernel: "expand".into(),
            elapsed_us: 300,
            budget_us: 100,
        };
        assert_eq!(slow_overrun(&BfsError::Device(kernel.clone())), Some(3.0));
        let exhausted = BfsError::LevelRetriesExhausted { level: 2, attempts: 5, last: kernel };
        assert_eq!(slow_overrun(&exhausted), Some(3.0));
        assert_eq!(slow_overrun(&BfsError::AllDevicesLost { level: 1, lost: 4 }), None);
        assert_eq!(
            slow_overrun(&BfsError::Hang { level: 1, frontier: 9, stalled_levels: 3 }),
            None
        );
    }

    #[test]
    fn digest_is_order_sensitive_and_sentinel_safe() {
        let a = result_digest(&[Some(0), Some(1)], &[Some(0), Some(0)]);
        let b = result_digest(&[Some(1), Some(0)], &[Some(0), Some(0)]);
        assert_ne!(a, b);
        // `None` must not collide with an adjacent in-band value.
        let c = result_digest(&[None, Some(1)], &[Some(0), Some(0)]);
        assert_ne!(a, c);
        // A parent change alone moves the digest.
        let d = result_digest(&[Some(0), Some(1)], &[Some(0), Some(1)]);
        assert_ne!(a, d);
        assert_eq!(a, result_digest(&[Some(0), Some(1)], &[Some(0), Some(0)]));
    }
}
