//! Property-style tests for the simulator's core invariants, driven by a
//! deterministic seeded sweep (the workspace builds offline, so there is
//! no proptest; `DetRng` supplies the case generation).

use gpu_sim::kernel::bank_conflict_replays;
use gpu_sim::memory::{coalesce, L2Cache};
use gpu_sim::{
    exclusive_scan, BufferId, Device, DeviceConfig, FaultPlan, FaultSpec, LaunchConfig,
    ScanScratch, WarpCtx, WARP_SIZE,
};
use sim_rng::DetRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The device scan equals the sequential exclusive prefix sum for
/// arbitrary contents and lengths.
#[test]
fn scan_matches_oracle() {
    let mut rng = DetRng::seed_from_u64(0x5CA7);
    for case in 0..16u64 {
        let len = 1 + rng.gen_index(2999);
        let input: Vec<u32> = (0..len).map(|_| rng.gen_index(1000) as u32).collect();
        let mut d = Device::new(DeviceConfig::k40());
        let buf = d.mem().alloc("data", input.len());
        d.mem().upload(buf, &input);
        let scratch = ScanScratch::new(&mut d, input.len());
        exclusive_scan(&mut d, buf, input.len(), &scratch);
        let got = d.mem().download(buf);
        let mut acc = 0u32;
        for (i, &x) in input.iter().enumerate() {
            assert_eq!(got[i], acc, "case {case} index {i}");
            acc = acc.wrapping_add(x);
        }
    }
}

/// A gather kernel reads exactly what a scatter kernel wrote, for any
/// permutation-ish index pattern, and the transaction count never
/// exceeds one per active lane nor drops below one per touched block.
#[test]
fn scatter_gather_roundtrip() {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut rng = DetRng::seed_from_u64(0x5CAB);
    let mults = [1usize, 3, 7, 31, 33];
    let mut cases = 0;
    while cases < 16 {
        let n = 1 + rng.gen_index(1999);
        let mult = mults[rng.gen_index(mults.len())];
        // Only coprime strides are permutations; others would overwrite.
        if gcd(mult, n) != 1 {
            continue;
        }
        cases += 1;
        let mut d = Device::new(DeviceConfig::k40());
        let src = d.mem().alloc("src", n);
        let dst = d.mem().alloc("dst", n);
        d.mem().upload(src, &(0..n as u32).collect::<Vec<_>>());
        let perm = move |i: usize| (i * mult) % n;
        d.launch("scatter", LaunchConfig::for_threads(n as u64, 256), |w| {
            let vals = w.load_global(src, |l| ((l.tid as usize) < n).then_some(l.tid as usize));
            w.store_global(dst, |l| {
                let i = l.tid as usize;
                (i < n).then(|| (perm(i), vals[l.lane as usize].unwrap()))
            });
        });
        let out = d.mem().download(dst);
        for i in 0..n {
            assert_eq!(out[perm(i)] as usize, i, "n {n} mult {mult}");
        }
        let r = &d.records()[0];
        let warps = (n as u64).div_ceil(WARP_SIZE as u64);
        assert!(r.gst_transactions >= warps, "at least one tx per warp");
        assert!(r.gst_transactions <= n as u64, "at most one tx per lane");
    }
}

/// Time-model sanity: every kernel's duration is at least the launch
/// overhead and each model component is non-negative and finite.
#[test]
fn time_model_components_sane() {
    let mut rng = DetRng::seed_from_u64(0x71BE);
    for case in 0..16u64 {
        let threads = 1 + rng.gen_index(4999) as u64;
        let loads_per_thread = rng.gen_index(8) as u32;
        let mut d = Device::new(DeviceConfig::k40_repro());
        let buf = d.mem().alloc("data", 8192);
        d.launch("k", LaunchConfig::for_threads(threads, 256), |w| {
            for j in 0..loads_per_thread {
                w.load_global(buf, |l| Some(((l.tid * 13 + j as u64 * 97) % 8192) as usize));
            }
        });
        let c = DeviceConfig::k40_repro();
        let r = &d.records()[0];
        let overhead_ms = c.launch_overhead_us / 1e3;
        assert!(r.time_ms >= overhead_ms * 0.99, "case {case}");
        for v in [
            r.compute_cycles,
            r.dram_cycles,
            r.latency_cycles,
            r.critical_path_cycles,
            r.dispatch_cycles,
            r.cycles,
        ] {
            assert!(v.is_finite() && v >= 0.0, "case {case}");
        }
        assert!(r.lane_instructions <= r.lane_slots, "case {case}");
        assert_eq!(r.l2_hits + r.dram_transactions, r.gld_transactions, "case {case}");
    }
}

/// Occupancy monotonicity: more shared memory per CTA never increases
/// resident CTAs.
#[test]
fn occupancy_monotone_in_shared_memory() {
    let d = Device::new(DeviceConfig::k40());
    let mut last = u32::MAX;
    for kb in [0u32, 2, 4, 8, 16, 24, 32, 48] {
        let cfg = LaunchConfig::grid(64, 256).with_shared_bytes(kb * 1024);
        let occ = d.occupancy(&cfg);
        assert!(occ.ctas_per_smx <= last, "{kb} KB: {occ:?}");
        last = occ.ctas_per_smx;
    }
    assert_eq!(last, 1, "48 KB pins one CTA per SMX");
}

/// Determinism of the full simulator stack: identical launches produce
/// identical counters and timings.
#[test]
fn simulator_is_deterministic() {
    let run = || {
        let mut d = Device::new(DeviceConfig::k40());
        let buf = d.mem().alloc("data", 4096);
        for i in 0..5u64 {
            d.launch("k", LaunchConfig::for_threads(2048, 256), |w| {
                let v = w.load_global(buf, |l| Some(((l.tid * 31 + i) % 4096) as usize));
                w.store_global(buf, |l| {
                    v[l.lane as usize].map(|x| ((l.tid % 4096) as usize, x.wrapping_add(1)))
                });
            });
        }
        (d.elapsed_ms(), d.report().gld_transactions, d.mem().download(buf))
    };
    assert_eq!(run(), run());
}

/// The L2 model the flat exact-LRU cache replaced, kept as its
/// reference: per-set vectors of `(tag, last_use)`, searched linearly,
/// evicting the oldest tick.
struct TickL2 {
    sets: Vec<Vec<(u64, u64)>>,
    tick: u64,
}

impl TickL2 {
    const WAYS: usize = 16;

    fn new(capacity_bytes: u64) -> Self {
        let lines = (capacity_bytes / 128) as usize;
        Self { sets: vec![Vec::new(); (lines / Self::WAYS).max(1)], tick: 0 }
    }

    fn access(&mut self, block: u64) -> bool {
        self.tick += 1;
        let set_count = self.sets.len() as u64;
        let set = &mut self.sets[(block % set_count) as usize];
        if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == block) {
            entry.1 = self.tick;
            return true;
        }
        if set.len() >= Self::WAYS {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set.swap_remove(lru);
        }
        set.push((block, self.tick));
        false
    }
}

/// The flat 16-way L2 gives the reference model's hit/miss sequence,
/// access for access, at every preset's capacity, on streams that mix
/// reuse, sequential successors and wide random blocks.
#[test]
fn flat_l2_matches_tick_reference() {
    let mut rng = DetRng::seed_from_u64(0x12C4);
    for config in [DeviceConfig::k40(), DeviceConfig::k40_repro(), DeviceConfig::c2070()] {
        let lines = config.l2_bytes / 128;
        let mut flat = L2Cache::new(config.l2_bytes);
        let mut reference = TickL2::new(config.l2_bytes);
        let mut recent = [0u64; 64];
        let accesses = 40_000u64;
        let mut hits = 0;
        for i in 0..accesses as usize {
            let block = match rng.gen_index(4) {
                0 => recent[rng.gen_index(recent.len())],
                1 => recent[(i + 63) % 64] + 1,
                _ => rng.next_u64() % (3 * lines),
            };
            recent[i % 64] = block;
            let hit = flat.access(block);
            assert_eq!(hit, reference.access(block), "{lines} lines, access {i}, block {block}");
            hits += u64::from(hit);
        }
        assert_eq!((flat.hits(), flat.misses()), (hits, accesses - hits));
        assert!(hits > accesses / 10, "{lines} lines: the stream must reuse ({hits} hits)");
        assert!(accesses - hits > lines, "{lines} lines: the stream must evict");
    }
}

/// First-touch coalescing as it was: `Vec::contains` per lane.
fn coalesce_reference(lane_blocks: &[u64]) -> Vec<u64> {
    let mut blocks = Vec::new();
    for &b in lane_blocks {
        if !blocks.contains(&b) {
            blocks.push(b);
        }
    }
    blocks
}

/// The linear-time coalescer returns the reference's distinct blocks in
/// the reference's first-touch order, on duplicate-heavy, strided,
/// slot-colliding and wide random lane patterns of 1 to 32 lanes.
#[test]
fn coalesce_matches_first_touch_reference() {
    let mut rng = DetRng::seed_from_u64(0xC0A1);
    let mut blocks = Vec::new();
    for case in 0..4_000 {
        let lanes = 1 + rng.gen_index(32) as u64;
        let base = rng.next_u64() >> 8;
        let stride = [1u64, 2, 64, 1 << 20][rng.gen_index(4)];
        let lane_blocks: Vec<u64> = (0..lanes)
            .map(|l| match case % 4 {
                0 => base + rng.gen_index(4) as u64,
                1 => base + (l / 2) * stride,
                2 => base + rng.gen_index(64) as u64 * 64,
                _ => rng.next_u64() >> 7,
            })
            .collect();
        coalesce(&mut blocks, &lane_blocks);
        assert_eq!(blocks, coalesce_reference(&lane_blocks), "case {case}: {lane_blocks:?}");
    }
}

/// Bank-conflict replays as they were counted: for each of the 32 banks,
/// the distinct words it serves, by a linear scan.
fn bank_replays_reference(idxs: &[usize]) -> u64 {
    let mut factor = 1u64;
    for bank in 0..WARP_SIZE as usize {
        let mut words: Vec<usize> = Vec::new();
        for &idx in idxs {
            if idx % WARP_SIZE as usize == bank && !words.contains(&idx) {
                words.push(idx);
            }
        }
        factor = factor.max(words.len().max(1) as u64);
    }
    factor - 1
}

/// Sorting `(bank, word)` keys counts the reference's replays on
/// conflict-free, broadcast, strided and random shared accesses.
#[test]
fn bank_conflicts_match_linear_reference() {
    let mut rng = DetRng::seed_from_u64(0xBA4C);
    for case in 0..4_000 {
        let lanes = 1 + rng.gen_index(32);
        let base = rng.gen_index(1 << 14);
        let stride = [0usize, 1, 2, 16, 32, 33, 64][rng.gen_index(7)];
        let idxs: Vec<usize> = (0..lanes)
            .map(|l| match case % 3 {
                0 => base + l * stride,
                1 => rng.gen_index(64),
                _ => base + rng.gen_index(8) * 32 + rng.gen_index(2),
            })
            .collect();
        assert_eq!(
            bank_conflict_replays(&idxs),
            bank_replays_reference(&idxs),
            "case {case}: {idxs:?}"
        );
    }
    assert_eq!(bank_conflict_replays(&[]), 0);
    assert_eq!(bank_conflict_replays(&[5; 32]), 0, "a broadcast never conflicts");
    let column: Vec<usize> = (0..32).map(|l| l * 32).collect();
    assert_eq!(bank_conflict_replays(&column), 31, "one bank, 32 words");
}

/// What the span twin test arms on both devices.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arming {
    /// Nothing: every span stays inside its buffer.
    Plain,
    /// A bit-flip campaign: out-of-buffer lanes are suppressed.
    BitFlips,
    /// The sanitizer: out-of-buffer lanes are findings.
    Sanitizer,
}

/// Lane `l < count` loads `buf[start + l]`, as a span or per lane.
fn load_contiguous(w: &mut WarpCtx, span: bool, buf: BufferId, start: usize, count: usize) -> u32 {
    let vals = if span {
        w.load_span(buf, start, count)
    } else {
        w.load_global(buf, |l| ((l.lane as usize) < count).then(|| start + l.lane as usize))
    };
    vals.iter().flatten().fold(0, |acc, &v| acc.rotate_left(5) ^ v)
}

/// Lane `l < vals.len()` stores `vals[l]` to `buf[start + l]`, as a span
/// or per lane.
fn store_contiguous(w: &mut WarpCtx, span: bool, buf: BufferId, start: usize, vals: &[u32]) {
    if span {
        w.store_span(buf, start, vals);
    } else {
        w.store_global(buf, |l| vals.get(l.lane as usize).map(|&v| (start + l.lane as usize, v)));
    }
}

/// Runs one seeded program of contiguous loads and stores (as spans, or
/// through per-lane closures), with scattered gathers churning the L2,
/// and returns everything observable: each launch's result and
/// `KernelRecord`, then memory, time, fault stats and sanitizer state.
fn span_program(config: &DeviceConfig, arming: Arming, seed: u64, span: bool) -> Vec<String> {
    let mut d = Device::new(config.clone());
    match arming {
        Arming::Plain => {}
        Arming::BitFlips => d.set_fault_plan(Some(FaultPlan::new(FaultSpec {
            bitflip_rate: 0.3,
            ..FaultSpec::uniform(seed, 0.0)
        }))),
        Arming::Sanitizer => d.enable_sanitizer(),
    }
    let mut rng = DetRng::seed_from_u64(seed);
    let mut bufs = Vec::new();
    for i in 0..3 {
        let len = 40 + rng.gen_index(1500);
        let buf = d.mem().alloc(&format!("buf{i}"), len);
        let contents: Vec<u32> = (0..len as u32).map(|x| x.wrapping_mul(2_654_435_761)).collect();
        d.mem().upload(buf, &contents);
        bufs.push((buf, len));
    }
    let wild = arming != Arming::Plain;
    let mut seen = Vec::new();
    for _ in 0..10 {
        let total = 1 + rng.gen_index(600) as u64;
        let cta = [32u32, 48, 64, 80, 256][rng.gen_index(5)];
        let launch_seed = rng.next_u64();
        let result = d.try_launch("spans", LaunchConfig::for_threads(total, cta), |w| {
            let warp = (w.cta_id as u64) << 32 | w.warp_in_cta as u64;
            let mut r = DetRng::seed_from_u64(launch_seed ^ warp);
            let mut acc = 0u32;
            for _ in 0..6 {
                let (buf, len) = bufs[r.gen_index(bufs.len())];
                let count = r.gen_index(41);
                let (start, count) = if wild {
                    (r.gen_index(len + 48), count)
                } else {
                    let start = r.gen_index(len);
                    (start, count.min(len - start))
                };
                match r.gen_index(3) {
                    0 => acc ^= load_contiguous(w, span, buf, start, count),
                    1 => {
                        let vals: Vec<u32> = (0..count as u32).map(|i| acc ^ i).collect();
                        store_contiguous(w, span, buf, start, &vals);
                    }
                    _ => {
                        let (stride, off) = (1 + r.gen_index(97), r.gen_index(len));
                        let vals =
                            w.load_global(buf, |l| Some((off + l.lane as usize * stride) % len));
                        acc = vals.iter().flatten().fold(acc, |a, &v| a.wrapping_add(v));
                    }
                }
            }
        });
        seen.push(format!("{result:?}"));
    }
    for &(buf, _) in &bufs {
        seen.push(format!("{:?}", d.mem_ref().view(buf)));
    }
    seen.push(format!("time {:?} {:?}", d.elapsed_ms().to_bits(), d.fault_stats()));
    if let Some(san) = d.sanitizer() {
        seen.push(format!(
            "sanitizer {} findings, {} checked: {:?}",
            san.total_findings(),
            san.checked_accesses(),
            san.findings()
        ));
    }
    seen
}

/// Spans are exact: twin devices running the same program, one through
/// `load_span`/`store_span` and one through per-lane closures, agree on
/// every launch result and `KernelRecord` (so on L2 hits and misses and
/// the critical path), on memory, time, fault stats and sanitizer
/// findings. Lengths, starts, counts past 32 and partial warps vary; the
/// armed runs also leave their buffers. The one-set L2 makes the order a
/// span hands its blocks to the cache observable.
#[test]
fn spans_match_per_lane_accesses() {
    let one_set = DeviceConfig { l2_bytes: 16 * 128, ..DeviceConfig::k40_repro() };
    let mut wild_findings = 0;
    for config in [DeviceConfig::k40_repro(), one_set] {
        for arming in [Arming::Plain, Arming::BitFlips, Arming::Sanitizer] {
            for seed in 0..8u64 {
                let spans = span_program(&config, arming, seed, true);
                let lanes = span_program(&config, arming, seed, false);
                for (i, (a, b)) in spans.iter().zip(&lanes).enumerate() {
                    assert_eq!(a, b, "{arming:?}, L2 {} B, seed {seed}, line {i}", config.l2_bytes);
                }
                assert_eq!(spans.len(), lanes.len());
                if arming == Arming::Sanitizer {
                    wild_findings += spans.iter().filter(|l| l.contains("OutOfBounds")).count();
                }
            }
        }
    }
    assert!(wild_findings > 0, "the sanitized runs must leave their buffers");
}

/// Without a campaign or a sanitizer, a span that leaves its buffer
/// panics with the per-lane path's typed message, and the lanes before
/// the first wild one have taken effect on both twins.
#[test]
fn wild_span_panics_like_per_lane_access() {
    for store in [false, true] {
        let run = |span: bool| {
            let mut d = Device::new(DeviceConfig::k40_repro());
            let buf = d.mem().alloc("queue", 50);
            let panic = catch_unwind(AssertUnwindSafe(|| {
                d.launch("wild", LaunchConfig::for_threads(32, 32), |w| {
                    if store {
                        store_contiguous(w, span, buf, 40, &[7; 20]);
                    } else {
                        load_contiguous(w, span, buf, 40, 20);
                    }
                });
            }))
            .expect_err("a wild span must panic");
            let message = panic.downcast_ref::<String>().cloned().expect("a formatted panic");
            (message, d.mem_ref().view(buf).to_vec())
        };
        let (message, memory) = run(true);
        assert!(message.contains("\"queue\"[50], len 50"), "{message}");
        assert_eq!((message, memory), run(false), "store: {store}");
    }
}
