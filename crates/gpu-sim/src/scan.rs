//! Device-side exclusive prefix sum.
//!
//! The recursive warp-scan pattern of Merrill & Grimshaw (the scan the
//! paper cites for its queue placement, [34, 22]): each warp loads a
//! coalesced 32-element tile, computes the tile's exclusive prefix in
//! registers (log-depth shuffles, modeled as five warp instructions),
//! writes it back, and publishes the tile total; the totals array is
//! scanned recursively and added back. Critical path per kernel is a few
//! hundred cycles regardless of input length — the property that keeps
//! Enterprise's queue generation at ~11% of the traversal (§4.1).
//!
//! The scan is data-oblivious: every address depends on the length, never
//! on the values, and each warp touches one contiguous tile. So every
//! access here is a span ([`crate::WarpCtx::load_span`],
//! [`crate::WarpCtx::store_span`]), which the simulator serves with one
//! slice copy and arithmetic blocks, with the counters of the per-lane
//! path.

use crate::device::Device;
use crate::fault::DeviceError;
use crate::kernel::LaunchConfig;
use crate::memory::BufferId;

/// Smallest scan grid a driver should launch, in threads.
///
/// BFS drivers size their per-level queue-generation grid as
/// `slice_vertices / 16` threads, clamped below by this floor (see
/// `enterprise`'s `scan_thread_count`). The counter layout is four words
/// per warp (one per class) plus one trailing total, so at the floor every
/// level pays a fixed `4 * SCAN_GRID_FLOOR_THREADS / 32 + 1`-element scan
/// — 65 words — no matter how few vertices the slice actually holds.
///
/// That fixed quantum bounds rebalance recovery on small graphs: once a
/// straggler's slice drops below `16 * SCAN_GRID_FLOOR_THREADS` vertices
/// (8192), shrinking it further cannot reduce its per-level counter
/// scan, only the per-vertex scan and expansion work (DESIGN.md §5f;
/// demonstrated by `scan_grid_floor_is_the_small_slice_cost_quantum`
/// below). The scan's cost moves in launch steps, not words: on
/// `DeviceConfig::k40()` scans of 65, 257 and 513 words each cost
/// 0.01222 ms (three launches) and one of 1025 words 0.02033 ms (five).
pub const SCAN_GRID_FLOOR_THREADS: usize = 512;

/// Largest scan grid a driver should launch, in threads. The cap keeps
/// each thread's chunk coarse enough that the counter scan stays a small
/// fraction of expansion on large slices (the paper's ~11% budget for
/// queue generation, §4.1).
pub const SCAN_GRID_CEIL_THREADS: usize = 32_768;

/// Scratch buffers for scans up to a fixed maximum length.
pub struct ScanScratch {
    /// One partials buffer per recursion level.
    levels: Vec<BufferId>,
    max_len: usize,
}

impl ScanScratch {
    /// Allocates scratch for scanning up to `max_len` elements.
    ///
    /// # Panics
    /// Panics on device OOM; see [`ScanScratch::try_new`].
    pub fn new(device: &mut Device, max_len: usize) -> Self {
        Self::try_new(device, max_len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ScanScratch::new`]: surfaces OOM and
    /// injected allocation faults as [`DeviceError`].
    pub fn try_new(device: &mut Device, max_len: usize) -> Result<Self, DeviceError> {
        let mut levels = Vec::new();
        let mut len = max_len.div_ceil(32);
        let mut i = 0;
        while len >= 1 {
            levels.push(device.try_alloc(&format!("scan_partials_{i}"), len)?);
            if len == 1 {
                break;
            }
            len = len.div_ceil(32);
            i += 1;
        }
        Ok(Self { levels, max_len })
    }
}

/// In-place exclusive scan of `buf[0..len]`.
///
/// After the call, `buf[i]` holds the sum of the original `buf[0..i]`.
/// (To obtain the grand total, scan one extra trailing zero element.)
///
/// # Panics
/// Panics if an injected launch fault exhausts the relaunch budget;
/// recovery-aware callers should use [`try_exclusive_scan`].
pub fn exclusive_scan(device: &mut Device, buf: BufferId, len: usize, scratch: &ScanScratch) {
    try_exclusive_scan(device, buf, len, scratch).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`exclusive_scan`]: surfaces injected launch
/// faults as [`DeviceError`] instead of panicking. A partially-scanned
/// buffer is left behind on error; callers replay from a checkpoint.
pub fn try_exclusive_scan(
    device: &mut Device,
    buf: BufferId,
    len: usize,
    scratch: &ScanScratch,
) -> Result<(), DeviceError> {
    assert!(len <= scratch.max_len, "scan length {len} exceeds scratch {}", scratch.max_len);
    if len == 0 {
        return Ok(());
    }
    scan_level(device, buf, len, scratch, 0)
}

fn scan_level(
    device: &mut Device,
    buf: BufferId,
    len: usize,
    scratch: &ScanScratch,
    depth: usize,
) -> Result<(), DeviceError> {
    let warps = len.div_ceil(32);
    let partials = scratch.levels[depth];

    // Pass 1: per-warp exclusive scan in place + tile totals.
    device.try_launch(
        "scan_warp_tiles",
        LaunchConfig::for_threads(warps as u64 * 32, 256),
        |w| {
            let tile = w.global_warp_id() as usize;
            if tile >= warps {
                return;
            }
            let start = tile * 32;
            let n = (len - start).min(32);
            let vals = w.load_span(buf, start, n);
            // Register prefix (log2(32) = 5 shuffle steps on hardware).
            w.compute(5, w.active_lanes);
            let mut prefix = [0u32; 32];
            let mut running = 0u32;
            for lane in 0..32usize {
                prefix[lane] = running;
                running = running.wrapping_add(vals[lane].unwrap_or(0));
            }
            w.store_span(buf, start, &prefix[..n]);
            w.store_span(partials, tile, &[running]);
        },
    )?;

    if warps == 1 {
        return Ok(());
    }

    // Recursively scan the tile totals, then add them back.
    scan_level(device, partials, warps, scratch, depth + 1)?;

    device.try_launch(
        "scan_add_offsets",
        LaunchConfig::for_threads(warps as u64 * 32, 256),
        |w| {
            let tile = w.global_warp_id() as usize;
            if tile >= warps {
                return;
            }
            let offset = w.load_span(partials, tile, 1)[0].unwrap();
            let start = tile * 32;
            let n = (len - start).min(32);
            let vals = w.load_span(buf, start, n);
            w.compute(1, w.active_lanes);
            let sums: [u32; 32] =
                std::array::from_fn(|l| vals[l].map_or(0, |v| v.wrapping_add(offset)));
            w.store_span(buf, start, &sums[..n]);
        },
    )?;
    Ok(())
}

/// Device-side sum reduction of `buf[0..len]`, recursive over warp
/// tiles (same scratch as the scan). The result stays on the device and
/// is returned via a single-word host read.
///
/// # Panics
/// Panics if an injected launch fault exhausts the relaunch budget;
/// recovery-aware callers should use [`try_reduce_sum`].
pub fn reduce_sum(device: &mut Device, buf: BufferId, len: usize, scratch: &ScanScratch) -> u32 {
    try_reduce_sum(device, buf, len, scratch).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`reduce_sum`]: surfaces injected launch faults
/// as [`DeviceError`] instead of panicking.
pub fn try_reduce_sum(
    device: &mut Device,
    buf: BufferId,
    len: usize,
    scratch: &ScanScratch,
) -> Result<u32, DeviceError> {
    assert!(len <= scratch.max_len, "reduce length {len} exceeds scratch {}", scratch.max_len);
    if len == 0 {
        return Ok(0);
    }
    let mut src = buf;
    let mut cur = len;
    let mut depth = 0;
    while cur > 1 {
        let warps = cur.div_ceil(32);
        let dst = scratch.levels[depth];
        let src_len = cur;
        device.try_launch(
            "reduce_warp_tiles",
            LaunchConfig::for_threads(warps as u64 * 32, 256),
            |w| {
                let tile = w.global_warp_id() as usize;
                if tile >= warps {
                    return;
                }
                let vals = w.load_span(src, tile * 32, src_len - tile * 32);
                let total = w.warp_reduce_sum(&vals);
                w.store_span(dst, tile, &[total]);
            },
        )?;
        src = dst;
        cur = warps;
        depth += 1;
    }
    Ok(device.mem_ref().get(src, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn run_scan(input: &[u32]) -> Vec<u32> {
        let mut d = Device::new(DeviceConfig::k40());
        let buf = d.mem().alloc("data", input.len());
        d.mem().upload(buf, input);
        let scratch = ScanScratch::new(&mut d, input.len());
        exclusive_scan(&mut d, buf, input.len(), &scratch);
        d.mem().download(buf)
    }

    fn oracle(input: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &x in input {
            out.push(acc);
            acc = acc.wrapping_add(x);
        }
        out
    }

    #[test]
    fn scans_various_lengths() {
        for len in [1usize, 2, 31, 32, 33, 100, 1024, 1025, 4096, 100_000] {
            let input: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 3) % 11).collect();
            assert_eq!(run_scan(&input), oracle(&input), "len {len}");
        }
    }

    #[test]
    fn trailing_zero_yields_grand_total() {
        let mut input: Vec<u32> = vec![5, 7, 9];
        input.push(0);
        let out = run_scan(&input);
        assert_eq!(out[3], 21);
    }

    #[test]
    fn scan_critical_path_is_logarithmic() {
        let mut d = Device::new(DeviceConfig::k40());
        let buf = d.mem().alloc("data", 100_000);
        d.mem().upload(buf, &vec![1; 100_000]);
        let scratch = ScanScratch::new(&mut d, 100_000);
        exclusive_scan(&mut d, buf, 100_000, &scratch);
        // No kernel in the scan should have a long per-warp serial path.
        for k in d.records() {
            assert!(
                k.critical_path_cycles < 2_000.0,
                "{}: critical path {}",
                k.name,
                k.critical_path_cycles
            );
        }
    }

    #[test]
    fn reduce_matches_oracle() {
        for len in [1usize, 31, 32, 33, 1000, 40_000] {
            let input: Vec<u32> = (0..len as u32).map(|i| i % 97).collect();
            let mut d = Device::new(DeviceConfig::k40());
            let buf = d.mem().alloc("data", len);
            d.mem().upload(buf, &input);
            let scratch = ScanScratch::new(&mut d, len);
            let got = reduce_sum(&mut d, buf, len, &scratch);
            assert_eq!(got, input.iter().sum::<u32>(), "len {len}");
        }
    }

    #[test]
    fn reduce_leaves_input_intact() {
        let mut d = Device::new(DeviceConfig::k40());
        let buf = d.mem().alloc("data", 100);
        d.mem().upload(buf, &vec![2; 100]);
        let scratch = ScanScratch::new(&mut d, 100);
        assert_eq!(reduce_sum(&mut d, buf, 100, &scratch), 200);
        assert_eq!(d.mem_ref().view(buf), vec![2; 100]);
    }

    #[test]
    fn scan_grid_floor_is_the_small_slice_cost_quantum() {
        // A driver clamps its scan grid to the floor, so every slice at
        // or below 16 * floor vertices scans the same 4T/32+1 counter
        // words (four per warp). Model that sizing here and show the
        // simulated cost is flat below the floor — the bound on what
        // rebalancing can recover for small slices (DESIGN.md §5f) — and
        // grows again once the slice is large enough to escape the clamp
        // and the scan's one-tile-per-warp quantum: 257 and 513 words
        // still cost what 65 do, 1025 words (256 * floor vertices) more.
        let grid = |slice_vertices: usize| {
            (slice_vertices / 16).clamp(SCAN_GRID_FLOOR_THREADS, SCAN_GRID_CEIL_THREADS)
        };
        let counters = |slice_vertices: usize| 4 * grid(slice_vertices) / 32 + 1;
        assert_eq!(counters(1), 4 * SCAN_GRID_FLOOR_THREADS / 32 + 1);
        assert_eq!(
            counters(1),
            counters(16 * SCAN_GRID_FLOOR_THREADS),
            "every sub-floor slice pays the same scan length"
        );
        let cost_ms = |len: usize| {
            let mut d = Device::new(DeviceConfig::k40());
            let buf = d.mem().alloc("counts", len);
            d.mem().upload(buf, &vec![1; len]);
            let scratch = ScanScratch::new(&mut d, len);
            exclusive_scan(&mut d, buf, len, &scratch);
            d.elapsed_ms()
        };
        let floor_cost = cost_ms(counters(1));
        assert_eq!(
            floor_cost,
            cost_ms(counters(16 * SCAN_GRID_FLOOR_THREADS)),
            "per-level scan cost is a fixed quantum below the floor"
        );
        assert!(
            cost_ms(counters(256 * SCAN_GRID_FLOOR_THREADS)) > floor_cost,
            "above the floor the scan cost scales with the slice again"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds scratch")]
    fn oversized_scan_rejected() {
        let mut d = Device::new(DeviceConfig::k40());
        let buf = d.mem().alloc("data", 64);
        let scratch = ScanScratch::new(&mut d, 32);
        exclusive_scan(&mut d, buf, 64, &scratch);
    }
}
