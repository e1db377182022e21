//! Silent-data-corruption negative paths: bit-flip campaigns against every
//! shape of the one fleet driver — the single device, 1-D slices and the
//! 2-D grid — with the verification ladder armed.
//!
//! The contract under test (ISSUE acceptance): with `bitflip_rate > 0`
//! and ECC off, every driver must still finish with depths identical to
//! the fault-free oracle — corruption is *detected* (`sdc_detected > 0`),
//! healed in place from the level checkpoint where possible
//! (`sdc_repaired > 0` without a level replay), and escalated to an
//! audit-triggered replay otherwise. With ECC on, single-bit flips are
//! absorbed below the traversal (`ecc_corrected > 0`, zero verifier
//! findings) at a measurable timing cost. With ECC off and all rates
//! zero, the whole plane is a strict no-op.
//!
//! All configs pin `sanitize: false`: the sanitizer's bounds findings are
//! redundant under a campaign (wild accesses are the *injected* failure
//! mode, tolerated by the memory model) and CI re-runs this suite with
//! `GPU_SIM_SANITIZER=1`.

use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::validate::cpu_levels;
use enterprise::{EccMode, Enterprise, EnterpriseConfig, FaultSpec, VerifyPolicy};
use enterprise_graph::gen::kronecker;
use enterprise_graph::Csr;

const SOURCE: u32 = 3;

fn graph() -> Csr {
    kronecker(9, 8, 5)
}

/// A pure bit-flip campaign: every other fault class disarmed.
fn bitflips(seed: u64, rate: f64) -> FaultSpec {
    FaultSpec { bitflip_rate: rate, ..FaultSpec::uniform(seed, 0.0) }
}

fn single_cfg(seed: u64, rate: f64) -> EnterpriseConfig {
    EnterpriseConfig {
        faults: Some(bitflips(seed, rate)),
        verify: VerifyPolicy::full(),
        sanitize: false,
        ..EnterpriseConfig::default()
    }
}

/// Single GPU: a hostile flip rate across many seeds. Every run must
/// come back with oracle depths; across the sweep the verifier must have
/// detected corruption, healed at least one run purely in place (repair
/// without any level replay), and seen flips land in both the status and
/// the parent arrays (the two arrays the checker cross-validates).
#[test]
fn single_gpu_flips_are_detected_and_healed_in_place() {
    let g = graph();
    let oracle = cpu_levels(&g, SOURCE);
    let mut detected = 0u64;
    let mut healed_in_place = 0usize;
    let (mut status_hit, mut parent_hit) = (false, false);
    for seed in 0..22 {
        let mut e = Enterprise::try_new(single_cfg(seed, 0.3), &g).expect("construction");
        let r = e.try_bfs(SOURCE).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        assert_eq!(r.levels, oracle, "seed {seed}: depths diverged despite verification");
        detected += r.recovery.sdc_detected;
        if r.recovery.sdc_repaired > 0
            && r.recovery.levels_replayed == 0
            && r.recovery.validation_replays == 0
        {
            healed_in_place += 1;
        }
        let hit = |name: &str| e.device().sdc_events().iter().any(|ev| ev.buffer == name);
        if r.recovery.sdc_detected > 0 {
            status_hit |= hit("status");
            parent_hit |= hit("parent");
        }
        assert!(r.recovery.faults.sdc_injected > 0, "seed {seed}: campaign never fired");
    }
    assert!(detected > 0, "a 30% flip rate over 22 seeds must trip the verifier");
    assert!(healed_in_place > 0, "at least one run must heal by localized repair alone");
    assert!(status_hit, "sweep must cover a status-array flip");
    assert!(parent_hit, "sweep must cover a parent-array flip");
}

/// 1-D multi-GPU: same contract via the merged cross-device verifier
/// (recovery counters only — devices are private to the driver).
#[test]
fn multi_gpu_1d_flips_detected_and_depths_correct() {
    let g = graph();
    let oracle = cpu_levels(&g, SOURCE);
    let (mut detected, mut repaired) = (0u64, 0u64);
    for seed in 0..8 {
        let cfg = MultiGpuConfig {
            faults: Some(bitflips(seed, 0.3)),
            verify: VerifyPolicy::full(),
            sanitize: false,
            ..MultiGpuConfig::k40s(4)
        };
        let mut sys = MultiGpuEnterprise::new(cfg, &g);
        let r = sys.try_bfs(SOURCE).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        assert_eq!(r.levels, oracle, "seed {seed}: depths diverged despite verification");
        assert!(r.recovery.faults.sdc_injected > 0, "seed {seed}: campaign never fired");
        detected += r.recovery.sdc_detected;
        repaired += r.recovery.sdc_repaired;
    }
    assert!(detected > 0, "merged verifier never tripped across the sweep");
    assert!(repaired > 0, "merged repair never healed a flagged vertex");
}

/// 2-D grid: same contract through block-partitioned queues, row/col
/// exchanges, and the first-wins merged parent view.
#[test]
fn grid_2d_flips_detected_and_depths_correct() {
    let g = graph();
    let oracle = cpu_levels(&g, SOURCE);
    let (mut detected, mut repaired) = (0u64, 0u64);
    for seed in 0..8 {
        let cfg = Grid2DConfig {
            faults: Some(bitflips(seed, 0.3)),
            verify: VerifyPolicy::full(),
            sanitize: false,
            ..Grid2DConfig::k40s(2, 2)
        };
        let mut sys = MultiGpu2DEnterprise::new(cfg, &g);
        let r = sys.try_bfs(SOURCE).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        assert_eq!(r.levels, oracle, "seed {seed}: depths diverged despite verification");
        assert!(r.recovery.faults.sdc_injected > 0, "seed {seed}: campaign never fired");
        detected += r.recovery.sdc_detected;
        repaired += r.recovery.sdc_repaired;
    }
    assert!(detected > 0, "merged verifier never tripped across the sweep");
    assert!(repaired > 0, "merged repair never healed a flagged vertex");
}

/// With end-of-level checks disabled, corruption survives to the final
/// audit, which must escalate to a full replay — and the replay (fresh
/// fault draws on the same stream) must converge to oracle depths. No
/// silently-wrong result is ever returned: an `Ok` is always correct.
#[test]
fn audit_alone_escalates_to_whole_run_replay() {
    let g = graph();
    let oracle = cpu_levels(&g, SOURCE);
    let audit_only = VerifyPolicy { end_of_level: false, end_of_run: true, repair: false };
    let mut replays = 0u64;
    for seed in 0..25 {
        let cfg = EnterpriseConfig {
            faults: Some(bitflips(seed, 0.3)),
            verify: audit_only,
            sanitize: false,
            ..EnterpriseConfig::default()
        };
        let mut e = Enterprise::try_new(cfg, &g).expect("construction");
        match e.try_bfs(SOURCE) {
            Ok(r) => {
                assert_eq!(r.levels, oracle, "seed {seed}: audit passed a wrong traversal");
                replays += u64::from(r.recovery.validation_replays);
            }
            // Both attempts corrupted: a loud typed failure, never a
            // silently-wrong Ok.
            Err(enterprise::BfsError::ValidationFailedAfterReplay(_)) => {}
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(replays > 0, "25 corrupted runs must trigger at least one audit replay");
}

/// ECC on absorbs the same campaign below the traversal: corrections are
/// charged, nothing reaches live data, and the verifier finds nothing.
#[test]
fn ecc_on_absorbs_flips_below_the_traversal() {
    let g = graph();
    let oracle = cpu_levels(&g, SOURCE);
    let mut corrected = 0u64;
    for seed in 0..6 {
        let cfg = EnterpriseConfig {
            ecc: EccMode::On,
            scrub_levels: Some(1),
            ..single_cfg(seed, 0.3)
        };
        let mut e = Enterprise::try_new(cfg, &g).expect("construction");
        let r = e.try_bfs(SOURCE).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        assert_eq!(r.levels, oracle, "seed {seed}: ECC-on run diverged");
        assert_eq!(r.recovery.faults.sdc_injected, 0, "seed {seed}: ECC leaked corruption");
        assert_eq!(r.recovery.sdc_detected, 0, "seed {seed}: verifier found ECC-on findings");
        corrected += r.recovery.faults.ecc_corrected;
    }
    assert!(corrected > 0, "a 30% flip rate over 6 ECC-on runs must correct something");
}

/// The cost of the ECC model: corrections charge simulated time. An
/// ECC-on run under flips performs the exact same traversal work as the
/// clean baseline (every flip is absorbed before a kernel sees it), so
/// any extra simulated time is pure correction/scrub overhead — and it
/// must be strictly positive.
#[test]
fn ecc_on_charges_a_timing_penalty() {
    let g = graph();
    let base = Enterprise::new(EnterpriseConfig::default(), &g).bfs(SOURCE);
    let cfg = EnterpriseConfig {
        ecc: EccMode::On,
        scrub_levels: Some(1),
        faults: Some(bitflips(4, 0.3)),
        sanitize: false,
        ..EnterpriseConfig::default()
    };
    let mut e = Enterprise::try_new(cfg, &g).expect("construction");
    let on = e.try_bfs(SOURCE).expect("ECC-on run");
    assert_eq!(on.levels, base.levels, "ECC absorption must not change the traversal");
    assert!(on.recovery.faults.ecc_corrected > 0, "campaign never exercised the corrector");
    assert!(
        on.time_ms > base.time_ms,
        "corrections must cost simulated time: {} vs {}",
        on.time_ms,
        base.time_ms
    );
}

/// ECC off + all-zero rates + verification disabled is bit-identical to
/// running with no fault plane at all; enabling verification on a clean
/// run changes nothing either (host-side checks are free and find
/// nothing).
#[test]
fn ecc_off_zero_rates_is_a_strict_noop() {
    let g = graph();
    let base = Enterprise::new(EnterpriseConfig::default(), &g).bfs(SOURCE);

    let zero = EnterpriseConfig {
        faults: Some(FaultSpec::uniform(11, 0.0)),
        ecc: EccMode::Off,
        ..EnterpriseConfig::default()
    };
    let r = Enterprise::new(zero, &g).bfs(SOURCE);
    assert_eq!(r.levels, base.levels);
    assert_eq!(r.parents, base.parents);
    assert_eq!(r.time_ms, base.time_ms, "zero-rate plan changed timing");
    assert_eq!(r.recovery, base.recovery);

    let verified = EnterpriseConfig { verify: VerifyPolicy::full(), ..EnterpriseConfig::default() };
    let v = Enterprise::new(verified, &g).bfs(SOURCE);
    assert_eq!(v.levels, base.levels);
    assert_eq!(v.parents, base.parents);
    assert_eq!(v.time_ms, base.time_ms, "clean-run verification charged device time");
    assert_eq!(v.recovery.sdc_detected, 0);
    assert_eq!(v.recovery.sdc_repaired, 0);
    assert_eq!(v.recovery.validation_replays, 0);
}
