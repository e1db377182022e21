//! Kernel execution: SMX occupancy, the analytic time model, and Hyper-Q
//! concurrent-kernel groups.
//!
//! ## Time model
//!
//! The simulator is functional (kernels really execute and mutate device
//! memory) with analytic timing. A kernel's duration is the maximum of
//! three throughput/latency terms plus launch overhead:
//!
//! * **compute**: warp instructions over the grid's aggregate issue rate
//!   (`issue_width` per SMX per cycle);
//! * **dram**: DRAM transactions times 128 bytes over achievable DRAM
//!   bandwidth;
//! * **latency**: every warp-level memory op holds its warp for the
//!   (L2/DRAM-blended) access latency; with `W` resident warps per SMX
//!   those latencies overlap W-wide (the §2.2 "oversubscribing threads in
//!   each SMX \[so\] data access can be overlapped with execution"), so the
//!   term is `requests x latency / (smxs_used x W)`, plus shared-memory
//!   and atomic-serialization cycles.
//!
//! This reproduces the effects the paper measures — occupancy loss from
//! over-sized shared-memory allocations, latency exposure at low
//! parallelism, bandwidth saturation at high parallelism — without a
//! cycle-accurate pipeline (DESIGN.md §5 records the rationale).

use crate::counters::KernelRecord;
use crate::device::{
    Device, CTA_DISPATCH_CYCLES, DYNAMIC_POWER_W, GLOBAL_LATENCY_CYCLES, L2_LATENCY_CYCLES,
    MAX_SHARED_PER_CTA, SHARED_LATENCY_CYCLES, WARP_MLP,
};
use crate::fault::DeviceError;
use crate::kernel::{CtaCtx, LaunchConfig, WarpCtx, WarpTiming, WARP_SIZE};

/// Occupancy outcome for a launch on a given device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Occupancy {
    /// CTAs resident per SMX.
    pub ctas_per_smx: u32,
    /// Warps resident per SMX.
    pub resident_warps: u32,
    /// SMXs that receive at least one CTA.
    pub smxs_used: u32,
}

impl Device {
    /// Computes occupancy for a launch configuration (the §4.3 trade-off:
    /// a 48 KB shared allocation forces one CTA per SMX, a 6 KB hub cache
    /// keeps eight resident).
    pub fn occupancy(&self, cfg: &LaunchConfig) -> Occupancy {
        let c = &self.config;
        assert!(
            cfg.shared_bytes_per_cta <= MAX_SHARED_PER_CTA,
            "shared request {} B exceeds per-CTA limit {} B",
            cfg.shared_bytes_per_cta,
            MAX_SHARED_PER_CTA
        );
        let warps_per_cta = cfg.warps_per_cta();
        let mut ctas = c
            .max_ctas_per_smx
            .min(c.max_warps_per_smx / warps_per_cta.max(1))
            .min(c.max_threads_per_smx / cfg.threads_per_cta.max(1));
        if let Some(shared_cap) = c.shared_mem_per_smx.checked_div(cfg.shared_bytes_per_cta) {
            ctas = ctas.min(shared_cap);
        }
        let ctas = ctas.max(1);
        let resident_warps = (ctas * warps_per_cta).min(c.max_warps_per_smx).max(1);
        let smxs_used = c.smx_count.min(cfg.grid_ctas).max(1);
        Occupancy { ctas_per_smx: ctas, resident_warps, smxs_used }
    }

    /// Launches a kernel: the body runs once per warp.
    ///
    /// # Panics
    /// Panics if an injected transient fault exhausts the relaunch
    /// budget; recovery-aware callers should use [`Device::try_launch`].
    pub fn launch(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        body: impl FnMut(&mut WarpCtx),
    ) -> &KernelRecord {
        self.try_launch(name, cfg, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Launches a kernel with a cooperative per-CTA initialization phase
    /// (runs before any warp of that CTA; models a load-then-syncthreads
    /// prologue such as Enterprise's hub-cache fill).
    ///
    /// # Panics
    /// Panics if an injected transient fault exhausts the relaunch
    /// budget; recovery-aware callers should use
    /// [`Device::try_launch_with_init`].
    pub fn launch_with_init(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        init: impl FnMut(&mut CtaCtx),
        body: impl FnMut(&mut WarpCtx),
    ) -> &KernelRecord {
        self.try_launch_with_init(name, cfg, init, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Launches a kernel through the fault plane. An injected transient
    /// fault aborts the launch *before* the body runs — no memory side
    /// effects — costing one launch overhead per attempt; the driver
    /// relaunches up to [`Device::set_launch_retries`] times before
    /// surfacing [`DeviceError::KernelFault`]. With no fault plan (or a
    /// zero `kernel_fault_rate`) this is bit-identical to
    /// [`Device::launch`].
    pub fn try_launch(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        body: impl FnMut(&mut WarpCtx),
    ) -> Result<&KernelRecord, DeviceError> {
        self.try_launch_inner(name, cfg, None::<fn(&mut CtaCtx)>, body)
    }

    /// Fallible variant of [`Device::launch_with_init`]; see
    /// [`Device::try_launch`] for the fault semantics.
    pub fn try_launch_with_init(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        init: impl FnMut(&mut CtaCtx),
        body: impl FnMut(&mut WarpCtx),
    ) -> Result<&KernelRecord, DeviceError> {
        self.try_launch_inner(name, cfg, Some(init), body)
    }

    fn try_launch_inner(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        init: Option<impl FnMut(&mut CtaCtx)>,
        body: impl FnMut(&mut WarpCtx),
    ) -> Result<&KernelRecord, DeviceError> {
        // Device-loss injection point. A lost device fails every launch
        // fast; the loss draw itself fires at most once (after it the
        // device is flagged and short-circuits here).
        if self.lost {
            return Err(DeviceError::DeviceLost { device: self.id });
        }
        let lose = self.fault.as_mut().map(|p| p.should_lose_device()).unwrap_or(false);
        if lose {
            self.lost = true;
            // A dying device presents as a kernel that never completes.
            // With a kernel deadline armed, the host waits out the budget
            // and the watchdog fires first — callers must classify a
            // deadline overrun on a lost device as a loss, not a hang.
            // Without a deadline, the loss is reported after one launch
            // overhead (the failed launch attempt).
            if let Some(budget_us) = self.kernel_deadline_us {
                self.now_ms += budget_us as f64 / 1e3;
                return Err(DeviceError::KernelDeadline {
                    device: self.id,
                    kernel: name.to_string(),
                    elapsed_us: budget_us + 1,
                    budget_us,
                });
            }
            self.now_ms += self.config.launch_overhead_us / 1e3;
            return Err(DeviceError::DeviceLost { device: self.id });
        }
        // Bit-flip injection point: flips strike *between* kernel
        // launches (DRAM sits idle-vulnerable; the kernel then consumes
        // whatever the cell now holds). With ECC off the flip is silent
        // and the launch proceeds over corrupted data; under ECC a
        // double-bit word aborts the launch before any side effect.
        self.maybe_inject_bitflip()?;
        let mut attempts_left = self.launch_retries;
        while let Some(plan) = &mut self.fault {
            if !plan.should_fault_launch() {
                break;
            }
            // The faulted attempt still pays its launch overhead before
            // the fault is detected.
            self.now_ms += self.config.launch_overhead_us / 1e3;
            if attempts_left == 0 {
                return Err(DeviceError::KernelFault {
                    device: self.id,
                    kernel: name.to_string(),
                    launch_index: self.records.len(),
                });
            }
            attempts_left -= 1;
            if let Some(plan) = &mut self.fault {
                plan.count_kernel_retry();
            }
        }
        let time_ms = {
            let rec = self.launch_inner(name, cfg, init, body);
            rec.time_ms
        };
        // The launch ran to completion deterministically; only now do the
        // observational layers get to veto the result.
        if let Some(san) = self.sanitizer.as_mut() {
            if let Some(finding) = san.end_launch() {
                return Err(DeviceError::Sanitizer(Box::new(finding)));
            }
        }
        if let Some(budget_us) = self.kernel_deadline_us {
            let elapsed_us = (time_ms * 1000.0).round() as u64;
            if elapsed_us > budget_us {
                return Err(DeviceError::KernelDeadline {
                    device: self.id,
                    kernel: name.to_string(),
                    elapsed_us,
                    budget_us,
                });
            }
        }
        Ok(self.records.last().expect("launch_inner pushed a record"))
    }

    fn launch_inner(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        mut init: Option<impl FnMut(&mut CtaCtx)>,
        mut body: impl FnMut(&mut WarpCtx),
    ) -> &KernelRecord {
        let occ = self.occupancy(&cfg);
        if let Some(san) = self.sanitizer.as_mut() {
            san.begin_launch(name);
        }
        let mut stats = KernelRecord {
            name: name.to_string(),
            launched_threads: cfg.total_threads,
            grid_ctas: cfg.grid_ctas,
            threads_per_cta: cfg.threads_per_cta,
            shared_bytes_per_cta: cfg.shared_bytes_per_cta,
            resident_warps_per_smx: occ.resident_warps,
            smxs_used: occ.smxs_used,
            ..Default::default()
        };

        let mut shared = vec![0u32; cfg.shared_words()];
        let mut blocks: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let warps_per_cta = cfg.warps_per_cta();
        let timing = WarpTiming {
            l2_latency: L2_LATENCY_CYCLES,
            dram_latency: GLOBAL_LATENCY_CYCLES,
            shared_latency: SHARED_LATENCY_CYCLES,
            mlp: WARP_MLP,
        };
        let mut critical_path = 0.0f64;

        for cta_id in 0..cfg.grid_ctas {
            let cta_base = cta_id as u64 * cfg.threads_per_cta as u64;
            if cta_base >= cfg.total_threads {
                break;
            }
            // Shared memory is per-CTA scratch; we deterministically zero
            // it (hardware leaves it uninitialized — code must not rely
            // on either, but determinism aids testing).
            shared.fill(0);
            if let Some(san) = self.sanitizer.as_mut() {
                san.begin_cta(cfg.shared_words());
            }
            let mut cta_base_serial = 0.0;
            if let Some(ref mut init) = init {
                let mut cta = CtaCtx {
                    mem: &mut self.mem,
                    l2: &mut self.l2,
                    stats: &mut stats,
                    shared: &mut shared,
                    blocks: &mut blocks,
                    san: self.sanitizer.as_mut(),
                    timing,
                    serial_cycles: 0.0,
                    cta_id,
                    threads_per_cta: cfg.threads_per_cta,
                };
                init(&mut cta);
                cta_base_serial = cta.serial_cycles;
            }
            let cta_threads =
                (cfg.total_threads - cta_base).min(cfg.threads_per_cta as u64) as u32;
            for warp_in_cta in 0..warps_per_cta {
                let warp_base = warp_in_cta * WARP_SIZE;
                if warp_base >= cta_threads {
                    break;
                }
                let active_lanes = (cta_threads - warp_base).min(WARP_SIZE);
                let mut warp = WarpCtx {
                    mem: &mut self.mem,
                    l2: &mut self.l2,
                    stats: &mut stats,
                    shared: &mut shared,
                    blocks: &mut blocks,
                    san: self.sanitizer.as_mut(),
                    timing,
                    serial_cycles: cta_base_serial,
                    cta_id,
                    warp_in_cta,
                    threads_per_cta: cfg.threads_per_cta,
                    active_lanes,
                    grid_threads: cfg.total_threads,
                };
                body(&mut warp);
                critical_path = critical_path.max(warp.serial_cycles);
            }
        }
        stats.critical_path_cycles = critical_path;

        self.finish_kernel(&mut stats, occ);
        self.records.push(stats);
        self.records.last().unwrap()
    }

    /// Applies the time model to a finished kernel and advances the
    /// device timeline (unless inside a Hyper-Q group, which advances the
    /// timeline at `end_concurrent`).
    fn finish_kernel(&mut self, stats: &mut KernelRecord, occ: Occupancy) {
        let c = &self.config;
        let issue_rate = (c.issue_width * occ.smxs_used) as f64;
        stats.compute_cycles = stats.warp_instructions as f64 / issue_rate;
        stats.dram_cycles =
            stats.dram_transactions as f64 * 128.0 / c.dram_bytes_per_cycle();
        // Soft ECC moves 72 bits over the bus per 64 payload bits, so the
        // DRAM term pays the overhead on every transaction. (Branch, not
        // an unconditional multiply: ECC off must stay bit-identical.)
        if self.ecc == crate::ecc::EccMode::On {
            stats.dram_cycles *= crate::ecc::ECC_DRAM_OVERHEAD;
        }

        // Each transaction holds its warp for the L2/DRAM latency; a
        // poorly coalesced request issues many transactions and waits
        // correspondingly longer. Latencies overlap across the resident
        // warps of the busy SMXs.
        let total_latency = stats.l2_hits as f64 * L2_LATENCY_CYCLES
            + stats.dram_transactions as f64 * GLOBAL_LATENCY_CYCLES;
        let overlap = (occ.smxs_used * occ.resident_warps) as f64;
        stats.latency_cycles = total_latency / overlap
            + (stats.shared_accesses + stats.shared_bank_conflicts) as f64
                * SHARED_LATENCY_CYCLES
                / overlap
            + stats.atomic_serialization_cycles as f64 / occ.smxs_used as f64;

        // CTA-dispatch throughput bound: every block costs scheduling
        // machinery on its SMX.
        stats.dispatch_cycles =
            stats.grid_ctas as f64 * CTA_DISPATCH_CYCLES / occ.smxs_used as f64;

        let overhead_cycles = c.launch_overhead_us * c.clock_mhz;
        stats.cycles = stats
            .compute_cycles
            .max(stats.dram_cycles)
            .max(stats.latency_cycles)
            .max(stats.critical_path_cycles)
            .max(stats.dispatch_cycles)
            + overhead_cycles;
        stats.time_ms = stats.cycles / c.cycles_per_ms();

        // Power tracks *activity*: instructions issued and transactions
        // moved per available cycle. Wasted work (BL's per-vertex grids
        // spinning through status words) burns power exactly like useful
        // work — the §5.3 effect where the baseline draws the most.
        let activity = (stats.warp_instructions + stats.total_transactions()) as f64
            / ((c.issue_width * c.smx_count) as f64 * stats.cycles).max(1.0);
        let mix = 0.3 + 1.5 * activity;
        stats.power_w = c.idle_power_w + DYNAMIC_POWER_W * mix.min(1.0);

        // Straggler throttling (performance-fault plane): inflate the
        // charged *execution* duration — a thermally throttled part runs
        // its clock slower, so every executed cycle stretches, but the
        // host-side launch overhead is paid at full speed. The record
        // carries the inflated time, exactly as nvprof would report it,
        // and the kernel-deadline watchdog sees the same inflated figure.
        // (Branch, not an unconditional multiply: a healthy device must
        // stay bit-identical.)
        if self.throttle_active() {
            let clean_ms = stats.time_ms;
            stats.cycles = (stats.cycles - overhead_cycles) * self.straggler_factor
                + overhead_cycles;
            stats.time_ms = stats.cycles / c.cycles_per_ms();
            // Rounded up so even a sub-microsecond stretch is visible in
            // the accounting (the charge is telemetry, not timeline).
            let extra_us = ((stats.time_ms - clean_ms) * 1e3).ceil() as u64;
            if let Some(plan) = &mut self.fault {
                plan.charge_straggler_us(extra_us);
            }
        }

        stats.start_ms = self.now_ms;
        if self.concurrent_depth == 0 {
            self.now_ms += stats.time_ms;
            self.exec_ms += (stats.cycles - overhead_cycles) / c.cycles_per_ms();
        } else {
            self.pending_group.push(self.records.len());
        }
    }

    /// Enters a Hyper-Q concurrent-kernel region: launches until the
    /// matching [`Device::end_concurrent`] overlap on the device.
    ///
    /// On devices without Hyper-Q (Fermi) the group degenerates to
    /// sequential execution, as on real hardware.
    pub fn begin_concurrent(&mut self) {
        assert_eq!(self.concurrent_depth, 0, "concurrent groups do not nest");
        self.concurrent_depth = 1;
        self.pending_group.clear();
        if let Some(san) = self.sanitizer.as_mut() {
            san.begin_window();
        }
    }

    /// Closes a Hyper-Q region and advances the timeline by the group's
    /// overlapped span. Returns the span in milliseconds.
    ///
    /// Span model: concurrent kernels share DRAM bandwidth (their DRAM
    /// terms add), share issue capacity across *all* SMXs (compute work
    /// adds over the full device), and overlap their latency exposure
    /// (max). Each kernel also cannot finish faster than its own latency
    /// floor.
    pub fn end_concurrent(&mut self) -> f64 {
        assert_eq!(self.concurrent_depth, 1, "end_concurrent without begin_concurrent");
        self.concurrent_depth = 0;
        // Close the sanitizer window; the first cross-kernel conflict is
        // stashed for `end_concurrent_checked` (findings stay inspectable
        // via `Device::sanitizer` either way).
        if let Some(san) = self.sanitizer.as_mut() {
            self.window_finding = san.end_window();
        }
        let group: Vec<usize> = self.pending_group.drain(..).collect();
        if group.is_empty() {
            return 0.0;
        }
        let c = &self.config;
        let span_cycles = if c.hyper_q {
            let dram: f64 = group.iter().map(|&i| self.records[i].dram_cycles).sum();
            let compute_work: f64 = group
                .iter()
                .map(|&i| self.records[i].warp_instructions as f64)
                .sum();
            let compute = compute_work / (c.issue_width * c.smx_count) as f64;
            let latency = group
                .iter()
                .map(|&i| self.records[i].latency_cycles)
                .fold(0.0_f64, f64::max);
            let critical = group
                .iter()
                .map(|&i| self.records[i].critical_path_cycles)
                .fold(0.0_f64, f64::max);
            let dispatch: f64 = group
                .iter()
                .map(|&i| self.records[i].grid_ctas as f64)
                .sum::<f64>()
                * CTA_DISPATCH_CYCLES
                / c.smx_count as f64;
            let overhead = c.launch_overhead_us * c.clock_mhz;
            compute.max(dram).max(latency).max(critical).max(dispatch) + overhead
        } else {
            group.iter().map(|&i| self.records[i].cycles).sum()
        };
        // The Hyper-Q span is rebuilt from un-throttled component terms,
        // so a straggler's inflation is applied to the overlapped
        // execution span here (overhead excluded, as in `finish_kernel`);
        // the Fermi path sums per-record cycles that `finish_kernel`
        // already inflated.
        let span_cycles = if c.hyper_q && self.throttle_active() {
            let overhead = c.launch_overhead_us * c.clock_mhz;
            (span_cycles - overhead) * self.straggler_factor + overhead
        } else {
            span_cycles
        };
        let span_ms = span_cycles / c.cycles_per_ms();
        // Execution component of the span: one launch overhead for the
        // overlapped Hyper-Q window, one per kernel when serialized.
        let overheads = if c.hyper_q { 1.0 } else { group.len() as f64 };
        let exec_span_ms =
            (span_cycles - overheads * c.launch_overhead_us * c.clock_mhz) / c.cycles_per_ms();
        let start = self.now_ms;
        for &i in &group {
            // Kernels in the group share the start time; their recorded
            // standalone durations remain for timeline rendering.
            self.records[i].start_ms = start;
        }
        self.now_ms += span_ms;
        self.exec_ms += exec_span_ms;
        span_ms
    }

    /// Like [`Device::end_concurrent`], but surfaces the sanitizer's
    /// first cross-kernel conflict of the window as a typed
    /// [`DeviceError::Sanitizer`] instead of only recording it.
    pub fn end_concurrent_checked(&mut self) -> Result<f64, DeviceError> {
        let span = self.end_concurrent();
        match self.window_finding.take() {
            Some(finding) => Err(DeviceError::Sanitizer(Box::new(finding))),
            None => Ok(span),
        }
    }

    /// Advances the device timeline by a host-imposed delay (e.g. an
    /// interconnect transfer in the multi-GPU model).
    pub fn advance_ms(&mut self, ms: f64) {
        assert!(ms >= 0.0);
        self.now_ms += ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn k40() -> Device {
        Device::new(DeviceConfig::k40())
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let d = k40();
        // 256 threads/CTA = 8 warps. 48 KB shared -> 1 CTA/SMX.
        let big = LaunchConfig::grid(64, 256).with_shared_bytes(48 * 1024);
        assert_eq!(d.occupancy(&big).ctas_per_smx, 1);
        // 6 KB shared -> 64/6.4 = 10, but warp limit 64/8 = 8 CTAs.
        let small = LaunchConfig::grid(64, 256).with_shared_bytes(6 * 1024);
        let occ = d.occupancy(&small);
        assert_eq!(occ.ctas_per_smx, 8);
        assert_eq!(occ.resident_warps, 64);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let d = k40();
        let cfg = LaunchConfig::grid(100, 1024);
        // 2048 / 1024 = 2 CTAs, 64 warps.
        let occ = d.occupancy(&cfg);
        assert_eq!(occ.ctas_per_smx, 2);
        assert_eq!(occ.resident_warps, 64);
    }

    #[test]
    fn small_grid_uses_few_smxs() {
        let d = k40();
        assert_eq!(d.occupancy(&LaunchConfig::grid(3, 256)).smxs_used, 3);
        assert_eq!(d.occupancy(&LaunchConfig::grid(300, 256)).smxs_used, 15);
    }

    #[test]
    fn kernel_executes_and_mutates_memory() {
        let mut d = k40();
        let buf = d.mem().alloc("data", 1000);
        let cfg = LaunchConfig::for_threads(1000, 256);
        d.launch("fill_ids", cfg, |w| {
            w.store_global(buf, |l| (l.tid < 1000).then_some((l.tid as usize, l.tid as u32)));
        });
        let data = d.mem_ref().view(buf);
        assert_eq!(data[0], 0);
        assert_eq!(data[999], 999);
        let r = &d.records()[0];
        assert!(r.gst_transactions > 0);
        assert!(r.time_ms > 0.0);
        assert_eq!(d.elapsed_ms(), r.time_ms);
    }

    #[test]
    fn coalesced_beats_strided_on_transactions() {
        let mut d = k40();
        let buf = d.mem().alloc("data", 32 * 32);
        let cfg = LaunchConfig::for_threads(32, 32);
        d.launch("coalesced", cfg, |w| {
            w.load_global(buf, |l| Some(l.lane as usize));
        });
        d.launch("strided", cfg, |w| {
            w.load_global(buf, |l| Some(l.lane as usize * 32));
        });
        let rs = d.records();
        assert_eq!(rs[0].gld_transactions, 1);
        assert_eq!(rs[1].gld_transactions, 32);
        // A single tiny warp is launch-overhead dominated, so compare the
        // model's memory terms rather than wall time.
        assert!(rs[1].dram_cycles >= rs[0].dram_cycles);
        assert!(rs[1].latency_cycles > rs[0].latency_cycles);
    }

    #[test]
    fn partial_trailing_warp_has_inactive_lanes() {
        let mut d = k40();
        let buf = d.mem().alloc("data", 40);
        d.launch("partial", LaunchConfig::for_threads(40, 32), |w| {
            w.store_global(buf, |l| Some((l.tid as usize, 1)));
        });
        assert_eq!(d.mem_ref().view(buf).iter().sum::<u32>(), 40);
        let r = &d.records()[0];
        // Second warp ran with only 8 active lanes.
        assert_eq!(r.lane_instructions, 40);
        assert_eq!(r.lane_slots, 64);
    }

    #[test]
    fn hyper_q_overlaps_kernels() {
        let mut d = k40();
        let buf = d.mem().alloc("data", 1 << 16);
        let run = |d: &mut Device, concurrent: bool| {
            d.reset_stats();
            if concurrent {
                d.begin_concurrent();
            }
            for k in 0..3 {
                d.launch("k", LaunchConfig::for_threads(1 << 14, 256), |w| {
                    w.load_global(buf, |l| Some(((l.tid + k * 7) % (1 << 16)) as usize));
                    w.compute(20, w.active_lanes);
                });
            }
            if concurrent {
                d.end_concurrent();
            }
            d.elapsed_ms()
        };
        let sequential = run(&mut d, false);
        let overlapped = run(&mut d, true);
        assert!(
            overlapped < sequential * 0.9,
            "hyper-q should overlap: {overlapped} vs {sequential}"
        );
    }

    #[test]
    fn fermi_serializes_concurrent_groups() {
        let mut d = Device::new(DeviceConfig::c2070());
        let buf = d.mem().alloc("data", 1024);
        d.begin_concurrent();
        for _ in 0..2 {
            d.launch("k", LaunchConfig::for_threads(1024, 256), |w| {
                w.load_global(buf, |l| Some(l.tid as usize % 1024));
            });
        }
        d.end_concurrent();
        let sum: f64 = d.records().iter().map(|r| r.time_ms).sum();
        assert!((d.elapsed_ms() - sum).abs() < 1e-9, "no hyper-q on Fermi");
    }

    #[test]
    fn cta_init_fills_shared_before_body() {
        let mut d = k40();
        let src = d.mem().alloc("hubs", 64);
        d.mem().upload(src, &(0..64).map(|i| i * 3).collect::<Vec<_>>());
        let out = d.mem().alloc("out", 64);
        let cfg = LaunchConfig::for_threads(64, 64).with_shared_bytes(256);
        d.launch_with_init(
            "init_then_read",
            cfg,
            |cta| cta.coop_load_global(src, 0..64, 0),
            |w| {
                let vals = w.load_shared(|l| Some(l.tid as usize));
                w.store_global(out, |l| vals[l.lane as usize].map(|v| (l.tid as usize, v)));
            },
        );
        assert_eq!(d.mem_ref().view(out)[10], 30);
        let r = &d.records()[0];
        assert!(r.shared_accesses > 0);
    }

    #[test]
    fn atomic_add_returns_old_values_and_serializes() {
        let mut d = k40();
        let buf = d.mem().alloc("ctr", 1);
        d.launch("atomics", LaunchConfig::for_threads(32, 32), |w| {
            let old = w.atomic_add_global(buf, |_| Some((0, 1)));
            // Old values are the lane-ordered sequence 0..32.
            for (lane, &value) in old.iter().enumerate() {
                assert_eq!(value, Some(lane as u32));
            }
        });
        assert_eq!(d.mem_ref().view(buf)[0], 32);
        let r = &d.records()[0];
        assert!(r.atomic_serialization_cycles > 0, "same-address atomics must serialize");
    }

    #[test]
    fn atomic_cas_only_first_succeeds() {
        let mut d = k40();
        let buf = d.mem().alloc("flag", 1);
        d.launch("cas", LaunchConfig::for_threads(32, 32), |w| {
            let old = w.atomic_cas_global(buf, |l| Some((0, 0, l.lane + 100)));
            assert_eq!(old[0], Some(0), "lane 0 wins the CAS");
            assert_eq!(old[1], Some(100), "lane 1 sees lane 0's value");
        });
        assert_eq!(d.mem_ref().view(buf)[0], 100);
    }

    #[test]
    fn ballot_builds_mask_and_counts_instruction() {
        let mut d = k40();
        d.launch("ballot", LaunchConfig::for_threads(32, 32), |w| {
            let mask = w.ballot(|l| l.lane % 2 == 0);
            assert_eq!(mask, 0x5555_5555);
        });
        assert_eq!(d.records()[0].warp_instructions, 1);
    }

    #[test]
    fn latency_bound_at_low_occupancy() {
        // One CTA of one warp doing scattered loads: latency-bound.
        let mut d = k40();
        let buf = d.mem().alloc("data", 1 << 20);
        d.launch("scatter", LaunchConfig::grid(1, 32), |w| {
            for i in 0..100u64 {
                w.load_global(buf, |l| {
                    Some(((l.lane as u64 * 4099 + i * 65537) % (1 << 20)) as usize)
                });
            }
        });
        let r = &d.records()[0];
        assert!(
            r.latency_cycles > r.compute_cycles && r.latency_cycles > r.dram_cycles,
            "expected latency-bound: {r:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds per-CTA limit")]
    fn oversized_shared_request_rejected() {
        let d = k40();
        d.occupancy(&LaunchConfig::grid(1, 32).with_shared_bytes(64 * 1024));
    }

    #[test]
    fn injected_launch_fault_exhausts_budget_without_side_effects() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut d = k40();
        let spec = FaultSpec { seed: 1, kernel_fault_rate: 1.0, ..FaultSpec::default() };
        d.set_fault_plan(Some(FaultPlan::new(spec)));
        d.set_launch_retries(2);
        let buf = d.mem().alloc("data", 64);
        let err = d
            .try_launch("k", LaunchConfig::for_threads(64, 64), |w| {
                w.store_global(buf, |l| Some((l.tid as usize, 1)));
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::KernelFault { device: 0, .. }));
        assert_eq!(d.mem_ref().view(buf).iter().sum::<u32>(), 0, "fault precedes side effects");
        // 3 attempts (1 + 2 retries) each paid the launch overhead.
        let overhead_ms = d.config().launch_overhead_us / 1e3;
        assert!((d.elapsed_ms() - 3.0 * overhead_ms).abs() < 1e-12);
        assert_eq!(d.fault_stats().kernel_faults, 3);
        assert_eq!(d.fault_stats().kernel_retries, 2);
    }

    #[test]
    fn bounded_retry_absorbs_transient_faults() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut d = k40();
        let spec = FaultSpec { seed: 3, kernel_fault_rate: 0.5, ..FaultSpec::default() };
        d.set_fault_plan(Some(FaultPlan::new(spec)));
        d.set_launch_retries(64);
        let buf = d.mem().alloc("data", 64);
        for _ in 0..20 {
            d.try_launch("k", LaunchConfig::for_threads(64, 64), |w| {
                w.store_global(buf, |l| Some((l.tid as usize, 1)));
            })
            .expect("a retry budget of 64 must absorb rate-0.5 faults");
        }
        let stats = d.fault_stats();
        assert!(stats.kernel_faults > 0, "rate 0.5 must fire in 20 launches");
        assert_eq!(stats.kernel_faults, stats.kernel_retries, "every fault was retried");
    }

    #[test]
    fn zero_rate_fault_plan_leaves_timing_identical() {
        use crate::fault::{FaultPlan, FaultSpec};
        let run = |plan: Option<FaultPlan>| {
            let mut d = k40();
            d.set_fault_plan(plan);
            let buf = d.mem().alloc("data", 4096);
            for _ in 0..4 {
                d.try_launch("k", LaunchConfig::for_threads(2048, 256), |w| {
                    w.load_global(buf, |l| Some((l.tid % 4096) as usize));
                })
                .unwrap();
            }
            (d.elapsed_ms(), d.records().len())
        };
        assert_eq!(run(None), run(Some(FaultPlan::new(FaultSpec::none(99)))));
    }
}
