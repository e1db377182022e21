//! Device configuration presets and the `Device` facade.
//!
//! Presets mirror the paper's three evaluation GPUs (§5): Kepler K40 and
//! K20, and Fermi C2070, with the structural parameters of §2.2 / Table 2.

use std::collections::BTreeSet;

use crate::counters::{DeviceReport, KernelRecord};
use crate::ecc::{EccMode, SdcEvent, ECC_CORRECTION_US, ECC_SCRUB_US_PER_MB};
use crate::fault::{DeviceError, FaultPlan, FaultStats};
use crate::memory::{BufferId, DeviceMem, L2Cache};
use crate::sanitizer::{Sanitizer, SanitizerError};

/// Structural and timing parameters of a simulated GPU.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Streaming multiprocessors (K40: 15 SMX).
    pub smx_count: u32,
    /// CUDA cores per SMX (K40: 192).
    pub cores_per_smx: u32,
    /// Max resident warps per SMX (K40: 64).
    pub max_warps_per_smx: u32,
    /// Max resident CTAs per SMX (Kepler: 16).
    pub max_ctas_per_smx: u32,
    /// Max resident threads per SMX (Kepler: 2048).
    pub max_threads_per_smx: u32,
    /// Shared memory per SMX in bytes (K40: 64 KB).
    pub shared_mem_per_smx: u32,
    /// Configurable shared-memory-per-CTA allocations (§2.2: 16/32/48 KB).
    pub max_shared_per_cta: u32,
    /// L2 size in bytes (K40: 1.5 MB).
    pub l2_bytes: u64,
    /// Global memory in bytes (K40: 12 GB).
    pub global_mem_bytes: u64,
    /// Core clock in MHz (K40 boost: 875).
    pub clock_mhz: f64,
    /// Achievable DRAM bandwidth in GB/s (§2.2: "close to 300 GB/s").
    pub dram_bandwidth_gbs: f64,
    /// Global-memory access latency in cycles (Table 2: 200-400).
    pub global_latency_cycles: f64,
    /// L2 hit latency in cycles.
    pub l2_latency_cycles: f64,
    /// Shared-memory latency in cycles (an order of magnitude faster than
    /// global per §2.2).
    pub shared_latency_cycles: f64,
    /// Warp instructions each SMX can issue per cycle (Kepler: 4 warp
    /// schedulers).
    pub issue_width: u32,
    /// Fixed per-kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Scheduling cost per CTA (cycles a SMX's CTA slot machinery spends
    /// per block). Dominant for grids with one CTA per vertex (the BL
    /// baseline launches millions of mostly-idle CTAs).
    pub cta_dispatch_cycles: f64,
    /// Memory-level parallelism per warp: outstanding loads a single warp
    /// can keep in flight. Bounds the *critical path* of a warp that
    /// serially walks a long adjacency list (the workload-imbalance
    /// mechanism WB attacks).
    pub warp_mlp: f64,
    /// Idle (static) power in watts; calibrated so BFS-class kernels land
    /// in the paper's observed 60-90 W band (Fig. 16d).
    pub idle_power_w: f64,
    /// Dynamic power range in watts above idle at full utilization.
    pub dynamic_power_w: f64,
    /// Whether the device supports Hyper-Q concurrent kernels (Kepler
    /// yes, Fermi no — §2.2).
    pub hyper_q: bool,
}

impl DeviceConfig {
    /// NVIDIA Kepler K40 (the paper's primary device).
    pub fn k40() -> Self {
        Self {
            name: "K40",
            smx_count: 15,
            cores_per_smx: 192,
            max_warps_per_smx: 64,
            max_ctas_per_smx: 16,
            max_threads_per_smx: 2048,
            shared_mem_per_smx: 64 * 1024,
            max_shared_per_cta: 48 * 1024,
            l2_bytes: 1536 * 1024,
            global_mem_bytes: 12 << 30,
            clock_mhz: 875.0,
            dram_bandwidth_gbs: 288.0,
            global_latency_cycles: 300.0,
            l2_latency_cycles: 80.0,
            shared_latency_cycles: 30.0,
            issue_width: 4,
            launch_overhead_us: 4.0,
            cta_dispatch_cycles: 30.0,
            warp_mlp: 8.0,
            idle_power_w: 55.0,
            dynamic_power_w: 60.0,
            hyper_q: true,
        }
    }

    /// NVIDIA Kepler K20.
    pub fn k20() -> Self {
        Self {
            name: "K20",
            smx_count: 13,
            global_mem_bytes: 5 << 30,
            clock_mhz: 706.0,
            dram_bandwidth_gbs: 208.0,
            ..Self::k40()
        }
    }

    /// NVIDIA Fermi C2070 (no Hyper-Q, smaller shared memory).
    pub fn c2070() -> Self {
        Self {
            name: "C2070",
            smx_count: 14,
            cores_per_smx: 32,
            max_warps_per_smx: 48,
            max_ctas_per_smx: 8,
            max_threads_per_smx: 1536,
            shared_mem_per_smx: 48 * 1024,
            max_shared_per_cta: 48 * 1024,
            l2_bytes: 768 * 1024,
            global_mem_bytes: 6 << 30,
            clock_mhz: 575.0,
            dram_bandwidth_gbs: 144.0,
            issue_width: 2,
            hyper_q: false,
            ..Self::k40()
        }
    }

    /// Rescales the *size-dependent* parameters of a preset for
    /// reproduction-scale graphs (DESIGN.md §2): the evaluation graphs are
    /// ~64-500x smaller than the paper's, so the L2 capacity and the
    /// per-launch overhead — the two parameters whose ratio to the
    /// working-set size and per-level work determines every crossover the
    /// paper measures — shrink by `factor`. Per-access properties
    /// (latencies, bandwidth, SMX structure) are scale-free and stay.
    pub fn scaled_for_reproduction(mut self, factor: f64) -> Self {
        assert!(factor > 1.0);
        self.l2_bytes = ((self.l2_bytes as f64 / factor) as u64).max(8 * 1024);
        self.launch_overhead_us /= factor.min(64.0);
        self
    }

    /// K40 calibrated for the reproduction-scale graph catalogue
    /// (the default device of every experiment regenerator).
    pub fn k40_repro() -> Self {
        Self::k40().scaled_for_reproduction(48.0)
    }

    /// K20 at reproduction scale.
    pub fn k20_repro() -> Self {
        Self::k20().scaled_for_reproduction(48.0)
    }

    /// C2070 at reproduction scale.
    pub fn c2070_repro() -> Self {
        Self::c2070().scaled_for_reproduction(48.0)
    }

    /// Cycles per millisecond at this clock.
    pub fn cycles_per_ms(&self) -> f64 {
        self.clock_mhz * 1e3
    }

    /// DRAM bytes deliverable per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbs * 1e9 / (self.clock_mhz * 1e6)
    }
}

/// Host-visible description of the CPU the paper compares against in
/// Table 2 (Xeon E7-4860); used only by the `table2` regenerator.
#[derive(Clone, Debug)]
pub struct CpuMemoryRow {
    /// Hierarchy level name.
    pub level: &'static str,
    /// Capacity (the paper's Table 2 string).
    pub size: &'static str,
    /// Access latency in CPU cycles.
    pub latency_cycles: &'static str,
}

/// The Table 2 CPU column.
pub fn xeon_e7_4860_rows() -> Vec<CpuMemoryRow> {
    vec![
        CpuMemoryRow { level: "Register", size: "12", latency_cycles: "1" },
        CpuMemoryRow { level: "L1 cache", size: "64KB", latency_cycles: "4" },
        CpuMemoryRow { level: "L2 cache", size: "256KB", latency_cycles: "10" },
        CpuMemoryRow { level: "L3 cache", size: "24MB", latency_cycles: "40" },
        CpuMemoryRow { level: "DRAM", size: "up to 2TB", latency_cycles: "55-400" },
    ]
}

/// Default in-driver relaunch budget for injected transient kernel
/// faults. At a 20% per-launch fault rate a level issuing `k` kernels
/// would fault with probability `1 - 0.8^k` — whole-level replay alone
/// would almost never converge — so bounded per-launch retry is the
/// first line of defense and level replay the escalation path.
pub const DEFAULT_LAUNCH_RETRIES: u32 = 3;

/// Fraction of off-critical-path stream time a Hyper-Q device still
/// serializes when several lanes share one fused window: kernels from
/// different streams overlap, but launch slots, the L2, and DRAM
/// bandwidth are shared, so concurrency is imperfect. The fused span is
/// `max(streams) + FUSED_SERIAL_FRACTION * (sum - max)`. Fermi-class
/// devices (no Hyper-Q) serialize fully (fraction 1.0), collapsing the
/// fused span to the plain sum.
pub const FUSED_SERIAL_FRACTION: f64 = 0.25;

/// Clock state for one open fused multi-lane window (see
/// [`Device::begin_fused`]). The device clock keeps advancing normally
/// inside the window; the fused clock partitions the elapsed time into
/// per-lane streams by observing deltas at each [`Device::fused_switch`]
/// and rewinds the timeline to the overlapped span at
/// [`Device::end_fused`].
struct FusedClock {
    /// Timeline position when the window opened.
    base_ms: f64,
    /// Execution-clock position when the window opened.
    base_exec_ms: f64,
    /// Accumulated timeline milliseconds per lane stream.
    streams: Vec<f64>,
    /// Accumulated execution milliseconds per lane stream.
    exec_streams: Vec<f64>,
    /// Lane currently charged, if any.
    active: Option<usize>,
    /// Timeline position at the last switch.
    mark_ms: f64,
    /// Execution-clock position at the last switch.
    mark_exec_ms: f64,
}

/// Per-lane stream totals folded into one overlapped span: the critical
/// path (longest stream) plus a serialized fraction of the rest.
fn fused_span(streams: &[f64], serial_fraction: f64) -> f64 {
    let sum: f64 = streams.iter().sum();
    let max = streams.iter().cloned().fold(0.0, f64::max);
    max + serial_fraction * (sum - max)
}

/// A parked fault universe: everything [`Device::set_fault_plan`]
/// derives from a spec, packaged so one device can host several
/// interleaved universes (one per pipelined batch lane) without any
/// universe observing another's RNG draws. The default bundle is the
/// healthy no-fault universe.
pub struct FaultBundle {
    plan: Option<FaultPlan>,
    straggler_factor: f64,
    throttle_onset: u32,
    epochs: u32,
    sdc_tolerant: bool,
}

impl Default for FaultBundle {
    fn default() -> Self {
        FaultBundle {
            plan: None,
            straggler_factor: 1.0,
            throttle_onset: 0,
            epochs: 0,
            sdc_tolerant: false,
        }
    }
}

impl FaultBundle {
    /// Injected-fault counters accumulated by this bundle's plan while
    /// it was swapped onto a device (empty for the fault-free bundle).
    pub fn stats(&self) -> crate::fault::FaultStats {
        self.plan.as_ref().map(|p| p.stats().clone()).unwrap_or_default()
    }
}

/// One simulated GPU: memory arena, L2, counters, and a timeline.
pub struct Device {
    pub(crate) config: DeviceConfig,
    pub(crate) mem: DeviceMem,
    pub(crate) l2: L2Cache,
    pub(crate) records: Vec<KernelRecord>,
    /// Device timeline position in milliseconds since the last reset.
    pub(crate) now_ms: f64,
    /// Cumulative kernel *execution* milliseconds since the last reset:
    /// the timeline minus launch overheads and host-charged spans — the
    /// component a straggler's clock throttle stretches (see
    /// [`Device::exec_elapsed_ms`]).
    pub(crate) exec_ms: f64,
    /// Non-zero while inside a Hyper-Q concurrent group.
    pub(crate) concurrent_depth: u32,
    /// Record indices launched inside the open concurrent group.
    pub(crate) pending_group: Vec<usize>,
    /// Device id (0 for single-device runs; set by `MultiDevice`).
    pub(crate) id: usize,
    /// Installed fault-injection campaign, if any.
    pub(crate) fault: Option<FaultPlan>,
    /// Bounded in-driver relaunch budget for injected transient kernel
    /// faults (faults fire before the body runs, so relaunch is safe).
    pub(crate) launch_retries: u32,
    /// Installed memory sanitizer, if any (see [`crate::sanitizer`]).
    pub(crate) sanitizer: Option<Sanitizer>,
    /// Per-kernel simulated-time deadline budget in microseconds; `None`
    /// disables the check entirely (strict no-op).
    pub(crate) kernel_deadline_us: Option<u64>,
    /// True once the device has permanently died (injected device loss
    /// or host-side [`Device::mark_lost`]); every subsequent operation
    /// fails fast with [`DeviceError::DeviceLost`].
    pub(crate) lost: bool,
    /// First cross-kernel conflict of the most recently closed
    /// concurrent window (consumed by `end_concurrent_checked`).
    pub(crate) window_finding: Option<SanitizerError>,
    /// Whether device memory is SECDED-protected (see [`crate::ecc`]).
    pub(crate) ecc: EccMode,
    /// Latent single-bit errors under ECC: the set of
    /// `(buffer, 64-bit word)` coordinates already holding one corrected
    /// flip. A second flip in the same word is uncorrectable. (`BTreeSet`
    /// keeps iteration — and hence behaviour — deterministic.)
    pub(crate) latent: BTreeSet<(usize, usize)>,
    /// Log of silent-corruption events injected with ECC off, so
    /// verifiers and tests can tell which structure was hit.
    pub(crate) sdc_log: Vec<SdcEvent>,
    /// Multiplicative slowdown on charged kernel time, drawn from the
    /// fault plan at installation (`1.0` = healthy; see
    /// [`crate::FaultSpec::straggler_rate`]).
    pub(crate) straggler_factor: f64,
    /// Completed BFS levels before the straggler throttle engages
    /// (copied from the spec at plan installation).
    pub(crate) throttle_onset: u32,
    /// Completed BFS levels reported via [`Device::note_level_end`]
    /// since the plan was installed (the throttle-onset clock).
    pub(crate) epochs: u32,
    /// Open fused multi-lane window, if any (see
    /// [`Device::begin_fused`]).
    fused: Option<FusedClock>,
}

impl Device {
    /// Creates a device from a configuration preset.
    pub fn new(config: DeviceConfig) -> Self {
        let mem = DeviceMem::new(config.global_mem_bytes);
        let l2 = L2Cache::new(config.l2_bytes);
        Self {
            config,
            mem,
            l2,
            records: Vec::new(),
            now_ms: 0.0,
            exec_ms: 0.0,
            concurrent_depth: 0,
            pending_group: Vec::new(),
            id: 0,
            fault: None,
            launch_retries: DEFAULT_LAUNCH_RETRIES,
            sanitizer: None,
            kernel_deadline_us: None,
            lost: false,
            window_finding: None,
            ecc: EccMode::Off,
            latent: BTreeSet::new(),
            sdc_log: Vec::new(),
            straggler_factor: 1.0,
            throttle_onset: 0,
            epochs: 0,
            fused: None,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// This device's id (0 unless assigned by a [`crate::MultiDevice`]).
    pub fn id(&self) -> usize {
        self.id
    }

    pub(crate) fn set_id(&mut self, id: usize) {
        self.id = id;
        self.mem.device_id = id;
        if self.sanitizer.is_some() {
            self.sanitizer = Some(Sanitizer::new(id));
        }
    }

    /// Installs the memory sanitizer and turns on shadow
    /// word-initialization tracking. Buffers allocated *before* this call
    /// are conservatively treated as fully initialized, so enable the
    /// sanitizer right after constructing the device for full coverage.
    /// Checking is purely observational: timing, counters and results of
    /// clean programs are unchanged.
    pub fn enable_sanitizer(&mut self) {
        if self.sanitizer.is_none() {
            self.sanitizer = Some(Sanitizer::new(self.id));
        }
        self.mem.enable_init_tracking();
    }

    /// The installed sanitizer, if any (inspect findings/counters).
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_ref()
    }

    /// Sets (or clears) the per-kernel simulated-time deadline. A launch
    /// whose modelled duration exceeds the budget completes its side
    /// effects, then surfaces [`DeviceError::KernelDeadline`] — which the
    /// BFS drivers route into checkpoint replay. `None` is a strict
    /// no-op.
    pub fn set_kernel_deadline_ms(&mut self, deadline_ms: Option<f64>) {
        self.kernel_deadline_us = deadline_ms.map(|ms| {
            assert!(ms > 0.0, "deadline must be positive, got {ms}");
            (ms * 1000.0).round() as u64
        });
    }

    /// Draws the livelock-injection decision for one completed BFS level
    /// from this device's fault plan (false — with no RNG draw — when no
    /// plan or a zero rate is installed).
    pub fn should_inject_livelock(&mut self) -> bool {
        self.fault.as_mut().map(|p| p.should_inject_livelock()).unwrap_or(false)
    }

    /// Installs (or clears) a fault-injection campaign on this device.
    /// `None` — and any plan with all-zero rates — leaves every timing,
    /// counter and result bit-identical to an un-faulted run.
    ///
    /// The straggler decision ([`crate::FaultSpec::straggler_rate`]) is drawn
    /// here, once, before any launch consumes the stream — so whether a
    /// device is slow is fixed for the plan's lifetime, and reinstalling
    /// the same spec redraws the same answer.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        // A bit-flip campaign can corrupt indices (queue entries, CSR
        // targets); arm wild-access tolerance so such corruption behaves
        // like hardware (a stray access) instead of a simulator panic.
        self.mem.sdc_tolerant =
            plan.as_ref().map(|p| p.spec().bitflip_rate > 0.0).unwrap_or(false);
        self.fault = plan;
        self.epochs = 0;
        match self.fault.as_mut() {
            Some(p) => {
                self.throttle_onset = p.spec().throttle_onset_levels;
                self.straggler_factor = p.draw_straggler_factor();
            }
            None => {
                self.throttle_onset = 0;
                self.straggler_factor = 1.0;
            }
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// True when this device drew as a straggler at plan installation
    /// (see [`crate::FaultSpec::straggler_rate`]). A straggler is alive
    /// and correct; only its charged kernel time is inflated — and only
    /// once the throttle-onset clock has run down.
    pub fn is_straggler(&self) -> bool {
        self.straggler_factor > 1.0
    }

    /// The multiplicative slowdown on this device's charged kernel time
    /// (`1.0` = healthy).
    pub fn straggler_factor(&self) -> f64 {
        self.straggler_factor
    }

    /// True when the straggler throttle is currently inflating kernel
    /// time: the device drew as a straggler *and* at least
    /// [`crate::FaultSpec::throttle_onset_levels`] completed levels have
    /// been reported via [`Device::note_level_end`].
    pub fn throttle_active(&self) -> bool {
        self.straggler_factor > 1.0 && self.epochs >= self.throttle_onset
    }

    /// Reports one completed BFS level to the throttle-onset clock (see
    /// [`crate::FaultSpec::throttle_onset_levels`]). Drivers call this
    /// once per level per device; with no straggler armed it only bumps
    /// a counter — a strict no-op on timing, counters and results.
    pub fn note_level_end(&mut self) {
        self.epochs = self.epochs.saturating_add(1);
    }

    /// Injected-fault counters for this device (zeros when no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|p| p.stats().clone()).unwrap_or_default()
    }

    /// Sets the bounded relaunch budget used by [`Device::try_launch`]
    /// when an injected transient fault aborts a launch. Zero disables
    /// in-driver retry, forcing callers to handle every fault themselves.
    pub fn set_launch_retries(&mut self, retries: u32) {
        self.launch_retries = retries;
    }

    /// True once this device has permanently died (see
    /// [`crate::fault::FaultSpec::device_loss_rate`]). A lost device fails
    /// every launch and allocation fast with [`DeviceError::DeviceLost`];
    /// only [`Device::revive`] (a host-level harness reset, used when a
    /// bound system starts a fresh run) clears the flag.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Marks this device permanently lost (host-side eviction; the
    /// injected path sets the flag itself at the faulted launch).
    pub fn mark_lost(&mut self) {
        self.lost = true;
    }

    /// Clears the lost flag. This is a *harness* operation — it models
    /// starting a fresh run on a repaired system, not an in-run recovery —
    /// and touches no timeline, counter, or memory state.
    pub fn revive(&mut self) {
        self.lost = false;
    }

    /// Sets the ECC mode of device memory. `Off` (the default) is a
    /// strict no-op on timing, counters, and results; `On` derates the
    /// DRAM term of every kernel by [`crate::ECC_DRAM_OVERHEAD`], absorbs
    /// injected single-bit flips (charging [`crate::ECC_CORRECTION_US`]
    /// each), and surfaces a second flip in one 64-bit word as
    /// [`DeviceError::UncorrectableEcc`]. Flip the mode before timed work
    /// begins: latent-error state is cleared on every change.
    pub fn set_ecc(&mut self, mode: EccMode) {
        self.ecc = mode;
        self.latent.clear();
    }

    /// The device's ECC mode.
    pub fn ecc(&self) -> EccMode {
        self.ecc
    }

    /// Silent-corruption events injected so far (ECC off only; under ECC
    /// flips never reach live data).
    pub fn sdc_events(&self) -> &[SdcEvent] {
        &self.sdc_log
    }

    /// One background-scrubber sweep: rewrites every word holding a
    /// latent corrected error so a future flip there is once again a
    /// *single*-bit (correctable) event. Under ECC the sweep charges
    /// [`crate::ECC_SCRUB_US_PER_MB`] of simulated time per allocated
    /// megabyte; with ECC off there is nothing to scrub and the call is a
    /// strict no-op.
    pub fn scrub(&mut self) {
        if self.ecc == EccMode::Off {
            return;
        }
        self.latent.clear();
        let mb = self.mem.allocated_bytes() as f64 / (1024.0 * 1024.0);
        self.now_ms += mb * ECC_SCRUB_US_PER_MB / 1e3;
    }

    /// Draws (and applies) the bit-flip decision for one kernel launch.
    /// With no plan or a zero `bitflip_rate` this draws nothing — strict
    /// no-op. When a flip fires, the outcome depends on the ECC mode:
    ///
    /// * `Off`: the flip lands in live data ([`SdcEvent`] logged,
    ///   `sdc_injected` counted, no error — that is what *silent* means);
    /// * `On`: the data is untouched. A first flip in a 64-bit word is
    ///   corrected (`ecc_corrected`, [`ECC_CORRECTION_US`] charged); a
    ///   second flip in the *same* word is a double-bit error
    ///   (`ecc_uncorrectable`, [`DeviceError::UncorrectableEcc`]).
    pub(crate) fn maybe_inject_bitflip(&mut self) -> Result<(), DeviceError> {
        let armed =
            self.fault.as_ref().map(|p| p.spec().bitflip_rate > 0.0).unwrap_or(false);
        if !armed {
            return Ok(());
        }
        let total = self.mem.total_elems();
        let Some((global, bit)) = self.fault.as_mut().unwrap().draw_bitflip(total) else {
            return Ok(());
        };
        let (buf, elem) = self
            .mem
            .locate_elem(global)
            .expect("draw_bitflip targets are within the arena");
        match self.ecc {
            EccMode::Off => {
                self.mem.flip_bit(buf, elem, bit);
                self.fault.as_mut().unwrap().count_sdc();
                self.sdc_log.push(SdcEvent {
                    buffer: self.mem.buffer_name(buf).to_string(),
                    elem,
                    bit,
                });
                Ok(())
            }
            EccMode::On => {
                // SECDED protects 64-bit words: two adjacent 32-bit
                // elements share one codeword.
                let word = (buf.0, elem / 2);
                if self.latent.insert(word) {
                    self.fault.as_mut().unwrap().count_ecc_corrected();
                    self.now_ms += ECC_CORRECTION_US / 1e3;
                    Ok(())
                } else {
                    self.fault.as_mut().unwrap().count_ecc_uncorrectable();
                    Err(DeviceError::UncorrectableEcc {
                        device: self.id,
                        buffer: self.mem.buffer_name(buf).to_string(),
                        word: elem / 2,
                    })
                }
            }
        }
    }

    /// Allocates a buffer through the fault plane: an injected allocation
    /// fault or a genuine OOM surfaces as a typed [`DeviceError`] instead
    /// of a panic. A lost device fails fast.
    pub fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, DeviceError> {
        if self.lost {
            return Err(DeviceError::DeviceLost { device: self.id });
        }
        if let Some(plan) = &mut self.fault {
            if plan.should_fail_alloc() {
                return Err(DeviceError::InjectedAllocFault {
                    device: self.id,
                    buffer: name.to_string(),
                    requested_bytes: len as u64 * crate::memory::ELEM_BYTES,
                });
            }
        }
        self.mem.try_alloc(name, len)
    }

    /// Uploads host data through the fault plane (typed error on length
    /// mismatch).
    pub fn try_upload(&mut self, id: BufferId, data: &[u32]) -> Result<(), DeviceError> {
        self.mem.try_upload(id, data)
    }

    /// Mutable access to global memory (host side: alloc/upload/download).
    pub fn mem(&mut self) -> &mut DeviceMem {
        &mut self.mem
    }

    /// Read-only access to global memory.
    pub fn mem_ref(&self) -> &DeviceMem {
        &self.mem
    }

    /// Milliseconds of simulated kernel time since the last reset.
    pub fn elapsed_ms(&self) -> f64 {
        self.now_ms
    }

    /// Milliseconds of simulated kernel *execution* time since the last
    /// reset: [`Device::elapsed_ms`] minus launch overheads and
    /// host-charged spans ([`Device::advance_ms`]). This is the
    /// clock-rate-sensitive component — a throttled straggler stretches
    /// exactly this figure — so per-phase deltas of it make clean
    /// device-speed telemetry for imbalance detectors.
    pub fn exec_elapsed_ms(&self) -> f64 {
        self.exec_ms
    }

    /// Clears the timeline, counters and L2 (a fresh timed run; memory
    /// contents are preserved, matching the paper's methodology where the
    /// graph stays resident across the 64 timed searches).
    pub fn reset_stats(&mut self) {
        assert!(self.fused.is_none(), "reset_stats inside an open fused window");
        self.records.clear();
        self.now_ms = 0.0;
        self.exec_ms = 0.0;
        self.l2.reset();
    }

    /// Opens a fused multi-lane window with `width` lane streams. Work
    /// issued inside the window runs on the normal timeline; each
    /// [`Device::fused_switch`] attributes the time elapsed since the
    /// previous switch to the previously active lane, and
    /// [`Device::end_fused`] rewinds the timeline to the *overlapped*
    /// span of the lane streams — the critical path plus
    /// [`FUSED_SERIAL_FRACTION`] of the rest on a Hyper-Q device, the
    /// plain sum on Fermi. With no window opened every clock behaves
    /// exactly as before — a strict no-op path.
    pub fn begin_fused(&mut self, width: usize) {
        assert!(self.fused.is_none(), "fused window already open");
        assert_eq!(self.concurrent_depth, 0, "fused window inside a concurrent group");
        assert!(width > 0, "fused window needs at least one lane");
        self.fused = Some(FusedClock {
            base_ms: self.now_ms,
            base_exec_ms: self.exec_ms,
            streams: vec![0.0; width],
            exec_streams: vec![0.0; width],
            active: None,
            mark_ms: self.now_ms,
            mark_exec_ms: self.exec_ms,
        });
    }

    /// Flushes the time elapsed since the last switch into the
    /// previously active lane's stream, then makes `lane` the active
    /// stream for subsequent charges.
    pub fn fused_switch(&mut self, lane: usize) {
        let (now, exec) = (self.now_ms, self.exec_ms);
        let f = self.fused.as_mut().expect("fused_switch without an open window");
        if let Some(prev) = f.active {
            f.streams[prev] += now - f.mark_ms;
            f.exec_streams[prev] += exec - f.mark_exec_ms;
        }
        f.active = Some(lane);
        f.mark_ms = now;
        f.mark_exec_ms = exec;
    }

    /// Closes the fused window: rewinds the timeline (and execution
    /// clock) to the window base plus the overlapped span, and returns
    /// the raw per-lane timeline charges.
    pub fn end_fused(&mut self) -> Vec<f64> {
        let (now, exec) = (self.now_ms, self.exec_ms);
        let mut f = self.fused.take().expect("end_fused without an open window");
        if let Some(prev) = f.active {
            f.streams[prev] += now - f.mark_ms;
            f.exec_streams[prev] += exec - f.mark_exec_ms;
        }
        let frac = if self.config.hyper_q { FUSED_SERIAL_FRACTION } else { 1.0 };
        // Direct writes: the rewind moves the clock backwards, which
        // `advance_ms` (monotone by contract) must never do.
        self.now_ms = f.base_ms + fused_span(&f.streams, frac);
        self.exec_ms = f.base_exec_ms + fused_span(&f.exec_streams, frac);
        f.streams
    }

    /// True while a fused multi-lane window is open.
    pub fn fused_active(&self) -> bool {
        self.fused.is_some()
    }

    /// Swaps this device's complete fault universe — plan, straggler
    /// draw, throttle clock, and wild-access tolerance — with `bundle`.
    /// Lossless in both directions: RNG stream positions, drawn factors,
    /// and epoch counters all travel with the bundle, so two universes
    /// can interleave on one device without perturbing each other.
    pub fn swap_fault_bundle(&mut self, bundle: &mut FaultBundle) {
        std::mem::swap(&mut self.fault, &mut bundle.plan);
        std::mem::swap(&mut self.straggler_factor, &mut bundle.straggler_factor);
        std::mem::swap(&mut self.throttle_onset, &mut bundle.throttle_onset);
        std::mem::swap(&mut self.epochs, &mut bundle.epochs);
        std::mem::swap(&mut self.mem.sdc_tolerant, &mut bundle.sdc_tolerant);
    }

    /// All kernel records since the last reset.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Aggregate nvprof-style report since the last reset, including this
    /// device's injected-fault counters.
    pub fn report(&self) -> DeviceReport {
        let mut report = DeviceReport::from_records(&self.records, &self.config, self.now_ms);
        report.faults = self.fault_stats();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_matches_paper_structure() {
        let c = DeviceConfig::k40();
        assert_eq!(c.smx_count, 15);
        assert_eq!(c.cores_per_smx, 192);
        assert_eq!(c.max_warps_per_smx, 64);
        assert_eq!(c.shared_mem_per_smx, 64 * 1024);
        assert_eq!(c.l2_bytes, 1536 * 1024);
        assert!(c.hyper_q);
    }

    #[test]
    fn fermi_lacks_hyper_q() {
        assert!(!DeviceConfig::c2070().hyper_q);
    }

    #[test]
    fn bandwidth_conversion() {
        let c = DeviceConfig::k40();
        // 288 GB/s at 875 MHz ~ 329 bytes/cycle.
        assert!((c.dram_bytes_per_cycle() - 329.14).abs() < 0.1);
    }

    #[test]
    fn device_alloc_and_reset() {
        let mut d = Device::new(DeviceConfig::k40());
        let b = d.mem().alloc("x", 100);
        d.mem().upload(b, &vec![7; 100]);
        d.reset_stats();
        assert_eq!(d.elapsed_ms(), 0.0);
        assert_eq!(d.mem_ref().view(b)[0], 7, "reset keeps memory contents");
    }

    #[test]
    fn table2_cpu_rows_present() {
        assert_eq!(xeon_e7_4860_rows().len(), 5);
    }

    #[test]
    fn fused_window_overlaps_lane_streams_on_hyper_q() {
        let mut d = Device::new(DeviceConfig::k40());
        d.begin_fused(2);
        d.fused_switch(0);
        d.advance_ms(4.0);
        d.fused_switch(1);
        d.advance_ms(2.0);
        d.fused_switch(0);
        d.advance_ms(1.0);
        let charges = d.end_fused();
        assert_eq!(charges, vec![5.0, 2.0]);
        // span = max + 0.25 * (sum - max) = 5 + 0.25 * 2 = 5.5
        assert!((d.elapsed_ms() - 5.5).abs() < 1e-12);
        assert!(!d.fused_active());
    }

    #[test]
    fn fused_window_serializes_fully_without_hyper_q() {
        let mut d = Device::new(DeviceConfig::c2070());
        d.begin_fused(2);
        d.fused_switch(0);
        d.advance_ms(3.0);
        d.fused_switch(1);
        d.advance_ms(2.0);
        let charges = d.end_fused();
        assert_eq!(charges, vec![3.0, 2.0]);
        assert!((d.elapsed_ms() - 5.0).abs() < 1e-12, "Fermi span is the sum");
    }

    #[test]
    fn unused_fused_window_is_a_strict_no_op() {
        let mut d = Device::new(DeviceConfig::k40());
        d.advance_ms(1.5);
        d.begin_fused(4);
        let charges = d.end_fused();
        assert_eq!(charges, vec![0.0; 4]);
        assert_eq!(d.elapsed_ms(), 1.5);
    }

    #[test]
    fn fault_bundle_swap_round_trips_the_universe() {
        let mut d = Device::new(DeviceConfig::k40());
        let spec = crate::FaultSpec { bitflip_rate: 0.5, ..crate::FaultSpec::none(7) };
        d.set_fault_plan(Some(crate::FaultPlan::new(spec)));
        assert!(d.mem_ref().sdc_tolerant);
        let mut parked = FaultBundle::default();
        d.swap_fault_bundle(&mut parked);
        assert!(d.fault_plan().is_none(), "default bundle is the healthy universe");
        assert!(!d.mem_ref().sdc_tolerant);
        d.swap_fault_bundle(&mut parked);
        assert!(d.fault_plan().is_some());
        assert!(d.mem_ref().sdc_tolerant);
    }
}
