use super::*;
use crate::multi_gpu::{Fleet, MultiGpuConfig};
use crate::status::UNVISITED;
use crate::validate::cpu_levels;
use crate::{BatchPolicy, BatchSource, Enterprise, EnterpriseConfig, WatchdogPolicy};
use enterprise_graph::gen::{kronecker, road_grid};

fn tmp_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("enterprise-persist-unit-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn header(kind: DriverKind, structure: u64) -> Header {
    Header { kind, fingerprint: GraphFingerprint { vertices: 64, edges: 512, structure } }
}

fn store(dir: &PathBuf, header: Header) -> SnapshotStore {
    SnapshotStore::open(dir, None, header).unwrap()
}

/// A log image framing `payloads` in order.
fn log_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut log = Vec::new();
    for payload in payloads {
        frame(&mut log, payload);
    }
    log
}

fn sample_layout() -> LayoutSnapshot {
    LayoutSnapshot {
        hub_tau: 7,
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

fn sample_checkpoint(level: u32) -> CheckpointSnapshot {
    CheckpointSnapshot {
        source: 0,
        level,
        vars: LoopVars {
            dir: Direction::TopDown,
            switched_at: None,
            cache_filled: false,
            visited_edge_sum: 0,
            prev_frontier_edges: 0,
        },
        extents: vec![(0..64, 0..64)],
        evicted: vec![],
        devices: vec![DeviceImage {
            status: vec![u32::MAX; 64],
            parent: vec![u32::MAX; 64],
            queues: [vec![0], vec![], vec![], vec![]],
            hub_src: vec![u32::MAX; 16],
        }],
    }
}

#[test]
fn batch_record_log_round_trips_and_rejects_damage() {
    let dir = tmp_dir("batch-log");
    let head = header(DriverKind::OneD, 0xdead_beef);
    let mut st = store(&dir, head);
    let entries = sample_entries();
    // A degraded 2x2 grid: blocks keep distinct top-down and bottom-up
    // extents; devices 1 and 3 are dead.
    let fleet = FleetRecord {
        evicted: vec![1, 3],
        boundaries: vec![(0..64, 0..32), (32..64, 0..32), (0..64, 32..64), (32..64, 32..64)],
        verdicts: vec![(0, 3)],
    };
    st.rewrite(BATCH_FILE, &[]).unwrap();
    for e in &entries {
        st.append(BATCH_FILE, &encode(e)).unwrap();
    }
    st.append(BATCH_FILE, &encode(&fleet)).unwrap();
    let replay = read_ledger(&mut st).unwrap().unwrap();
    assert_eq!(replay.entries, entries);
    assert_eq!(replay.fleet, Some(fleet));
    // Another driver kind or graph is a typed error, not a silent cold
    // batch.
    let mut single = store(&dir, header(DriverKind::Single, 0xdead_beef));
    assert_eq!(read_ledger(&mut single).unwrap_err(), PersistError::LayoutMismatch);
    let mut other = store(&dir, header(DriverKind::OneD, 1));
    assert_eq!(read_ledger(&mut other).unwrap_err(), PersistError::GraphMismatch);
    // A missing ledger is a cold batch, not an error.
    st.remove(BATCH_FILE).unwrap();
    assert!(read_ledger(&mut st).unwrap().is_none());
    // An out-of-range outcome tag is rejected as corruption.
    let mut bad = sample_entries().remove(0);
    bad.outcome = 7;
    assert!(matches!(Record::decode(&encode(&bad)), Err(PersistError::Corrupt(_))));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batch_record_log_torn_tail_degrades_to_last_intact_record() {
    let dir = tmp_dir("batch-log-torn");
    let mut st = store(&dir, header(DriverKind::TwoD, 1));
    let entries = sample_entries();
    st.rewrite(BATCH_FILE, &[]).unwrap();
    st.append(BATCH_FILE, &encode(&entries[0])).unwrap();
    let path = dir.join(BATCH_FILE);
    let intact_len = fs::metadata(&path).unwrap().len();
    st.append(BATCH_FILE, &encode(&entries[1])).unwrap();
    // Tear the last append mid-frame: the log keeps the first outcome.
    let full = fs::metadata(&path).unwrap().len();
    fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(full - 3).unwrap();
    let replay = read_ledger(&mut st).unwrap().unwrap();
    assert_eq!(replay.entries, entries[..1]);
    // The damaged tail was physically dropped, so appends extend the
    // intact prefix.
    assert_eq!(fs::metadata(&path).unwrap().len(), intact_len);
    st.append(BATCH_FILE, &encode(&entries[1])).unwrap();
    let replay = read_ledger(&mut st).unwrap().unwrap();
    assert_eq!(replay.entries, entries);
    let _ = fs::remove_dir_all(&dir);
}

/// Writes `log` as the batch ledger of a 1-D x4 fleet over `g` and checks
/// that it fails on its header with a typed version mismatch naming
/// `found`, instead of decoding on into records laid out for another
/// format, and that a batch over it starts cold: nothing replays and a
/// current header replaces the log.
fn assert_cold_batch_over(tag: &str, g: &Csr, log: &[u8], found: u32) {
    let head = Header { kind: DriverKind::OneD, fingerprint: GraphFingerprint::of(g) };
    let dir = tmp_dir(tag);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(BATCH_FILE), log).unwrap();
    let mut st = store(&dir, head);
    let mismatch = PersistError::VersionMismatch { found };
    assert_eq!(read_ledger(&mut st).unwrap_err(), mismatch);

    let cfg = MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&dir)),
        ..MultiGpuConfig::k40s(4)
    };
    let sources: Vec<BatchSource> = [9, 17, 33].into_iter().map(BatchSource::new).collect();
    let report = Fleet::new(cfg, g).batch(&sources, &BatchPolicy::on());
    assert_eq!(report.manifest_errors, vec![mismatch]);
    assert_eq!((report.resumed(), report.completed()), (0, sources.len()));
    let replay = read_ledger(&mut st).unwrap().expect("a fresh log");
    assert_eq!(replay.entries.len(), sources.len());
    let _ = fs::remove_dir_all(&dir);
}

/// The header fields after the version word, for a 1-D fleet over `g`.
fn put_header_fields(enc: &mut Enc, g: &Csr) {
    let fingerprint = GraphFingerprint::of(g);
    enc.u32(DriverKind::OneD.to_u32());
    enc.u64(fingerprint.vertices);
    enc.u64(fingerprint.edges);
    enc.u64(fingerprint.structure);
}

/// A version-3 ledger, whose header carries no version, fails on its
/// header (its driver kind read as the version) and starts cold.
#[test]
fn v3_ledger_header_degrades_to_a_cold_batch() {
    let g = kronecker(6, 4, 1);
    let mut v3_header = Enc::new();
    v3_header.u32(Header::TAG);
    put_header_fields(&mut v3_header, &g);
    let log = log_of(&[v3_header.finish(), encode(&sample_entries()[0])]);
    assert_cold_batch_over("batch-log-v3", &g, &log, DriverKind::OneD.to_u32());
}

/// A version-5 ledger, whose fleet record still carries the count of
/// link-isolated devices after its placement, fails on its header and
/// starts cold.
#[test]
fn v5_ledger_with_isolated_count_degrades_to_a_cold_batch() {
    let g = kronecker(6, 4, 1);
    let mut v5_header = Enc::new();
    v5_header.u32(Header::TAG);
    v5_header.u32(5);
    put_header_fields(&mut v5_header, &g);
    let n = g.vertex_count();
    let strips: Vec<Extents> =
        (0..4).map(|d| (d * n / 4..(d + 1) * n / 4, d * n / 4..(d + 1) * n / 4)).collect();
    let mut v5_fleet = Enc::new();
    v5_fleet.u32(FleetRecord::TAG);
    v5_fleet.placement(&strips, &[1, 3]);
    v5_fleet.u32(1);
    v5_fleet.pairs(&[]);
    let log = log_of(&[v5_header.finish(), encode(&sample_entries()[0]), v5_fleet.finish()]);
    assert_cold_batch_over("batch-log-v5", &g, &log, 5);
}

/// A version-6 checkpoint log, whose loop state still carries the
/// bottom-up queue's edge sum after the visited edge sum, fails on its
/// header, and the traversal starts cold and oracle-correct.
#[test]
fn v6_checkpoint_with_queue_edge_sum_degrades_to_a_cold_traversal() {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1;
    let dir = tmp_dir("ckpt-log-v6");
    let cfg = |max_levels| MultiGpuConfig {
        persist: Some(PersistPolicy::with_checkpoints(&dir, 1)),
        watchdog: WatchdogPolicy { max_levels, ..WatchdogPolicy::default() },
        ..MultiGpuConfig::k40s(2)
    };
    assert!(Fleet::new(cfg(Some(1)), &g).try_bfs(source).is_err(), "the level cap must kill it");
    let head = Header { kind: DriverKind::OneD, fingerprint: GraphFingerprint::of(&g) };
    let mut st = store(&dir, head);
    let snap = read_checkpoint(&mut st).unwrap().expect("a level-1 keyframe");

    let mut v6_header = Enc::new();
    v6_header.u32(Header::TAG);
    v6_header.u32(6);
    put_header_fields(&mut v6_header, &g);
    // Tag, source, level, direction, switch flag and level, cache flag and
    // visited edge sum lead the body; v6 put the queue's sum after them.
    let mut v6_keyframe = encode(&snap);
    let at = 4 + 4 + 4 + 1 + 1 + 4 + 1 + 8;
    v6_keyframe.splice(at..at, 0u64.to_le_bytes());
    fs::write(dir.join(CHECKPOINT_FILE), log_of(&[v6_header.finish(), v6_keyframe])).unwrap();
    assert_eq!(read_checkpoint(&mut st).unwrap_err(), PersistError::VersionMismatch { found: 6 });

    let r = Fleet::new(cfg(None), &g).try_bfs(source).expect("a cold restart");
    assert_eq!(r.recovery.snapshot_errors, vec![PersistError::VersionMismatch { found: 6 }]);
    assert_eq!(r.recovery.resumed_at_level, None);
    assert_eq!(r.levels, cpu_levels(&g, source));
    crate::audit(&g, source, &r.levels, &r.parents).expect("audit-valid parents");
    let _ = fs::remove_dir_all(&dir);
}

/// A version-7 layout log, whose layout still carries the hub census
/// after τ, fails on its header, and the fleet starts cold and
/// oracle-correct.
#[test]
fn v7_layout_with_hub_census_degrades_to_a_cold_start() {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1;
    let dir = tmp_dir("layout-log-v7");
    let cfg = || MultiGpuConfig {
        persist: Some(PersistPolicy::layout_only(&dir)),
        ..MultiGpuConfig::k40s(2)
    };
    Fleet::new(cfg(), &g).try_bfs(source).expect("a run that writes the layout");
    let head = Header { kind: DriverKind::OneD, fingerprint: GraphFingerprint::of(&g) };
    let mut st = store(&dir, head);
    let layout = read_layout(&mut st).unwrap().expect("a layout");

    let mut v7_header = Enc::new();
    v7_header.u32(Header::TAG);
    v7_header.u32(7);
    put_header_fields(&mut v7_header, &g);
    // Tag and τ lead the body; v7 put the hub census after them.
    let mut v7_layout = encode(&layout);
    let at = 4 + 4;
    v7_layout.splice(at..at, 12u64.to_le_bytes());
    fs::write(dir.join(LAYOUT_FILE), log_of(&[v7_header.finish(), v7_layout])).unwrap();
    assert_eq!(read_layout(&mut st).unwrap_err(), PersistError::VersionMismatch { found: 7 });

    let r = Fleet::new(cfg(), &g).try_bfs(source).expect("a cold start");
    assert_eq!(r.recovery.snapshot_errors, vec![PersistError::VersionMismatch { found: 7 }]);
    assert!(!r.recovery.warm_restart);
    assert_eq!(r.levels, cpu_levels(&g, source));
    crate::audit(&g, source, &r.levels, &r.parents).expect("audit-valid parents");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn legacy_whole_frame_ledger_fails_magic_and_cold_starts() {
    let dir = tmp_dir("batch-log-legacy");
    fs::create_dir_all(&dir).unwrap();
    // A legacy whole-file frame starts with "ENTSNAP\0", whose first four
    // bytes are not REC_MAGIC.
    let mut legacy = b"ENTSNAP\0".to_vec();
    legacy.extend_from_slice(&4u32.to_le_bytes());
    legacy.extend_from_slice(b"legacy manifest payload");
    fs::write(dir.join(BATCH_FILE), &legacy).unwrap();
    let mut st = store(&dir, header(DriverKind::OneD, 1));
    assert_eq!(read_ledger(&mut st).unwrap_err(), PersistError::BadMagic);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn frame_round_trips_and_is_atomic() {
    let dir = tmp_dir("roundtrip");
    let mut st = store(&dir, header(DriverKind::OneD, 0xdead_beef));
    let layout = sample_layout();
    st.rewrite(LAYOUT_FILE, &[encode(&layout)]).unwrap();
    // No stray temp file left behind after a successful publish.
    assert!(!dir.join(format!("{LAYOUT_FILE}.tmp")).exists());
    assert_eq!(read_layout(&mut st).unwrap(), Some(layout));
    // A missing checkpoint is a cold start, not an error.
    assert_eq!(read_checkpoint(&mut st).unwrap(), None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_round_trips() {
    let dir = tmp_dir("ckpt");
    let mut st = store(&dir, header(DriverKind::Single, 1));
    let mut snap = sample_checkpoint(2);
    snap.vars = LoopVars {
        dir: Direction::BottomUp,
        switched_at: Some(2),
        cache_filled: true,
        visited_edge_sum: 99,
        prev_frontier_edges: 5,
    };
    snap.devices[0].status[..4].copy_from_slice(&[0, 1, 1, 2]);
    snap.devices[0].queues = [vec![4, 6], vec![7], vec![], vec![]];
    CheckpointWriter::new().persist(&mut st, snap.clone()).unwrap();
    assert_eq!(read_checkpoint(&mut st).unwrap(), Some(snap));
    let _ = fs::remove_dir_all(&dir);
}

/// Steady-state checkpoints are appended as deltas against the record
/// before them, materially smaller than a keyframe; a restore folds them
/// in order; a shape change rewrites the log as a fresh keyframe; and a
/// torn delta hides only itself and what follows it.
#[test]
fn delta_checkpoints_round_trip_and_shrink() {
    let dir = tmp_dir("delta");
    let path = dir.join(CHECKPOINT_FILE);
    let mut st = store(&dir, header(DriverKind::OneD, 9));
    let base = sample_checkpoint(1);
    // Each next level changes a handful of words; the rest is shared.
    let mut next = base.clone();
    next.level = 2;
    for v in [3, 9] {
        next.devices[0].status[v] = 1;
        next.devices[0].parent[v] = 0;
    }
    next.devices[0].queues = [vec![3, 9], vec![], vec![], vec![]];
    let mut last = next.clone();
    last.level = 3;
    last.devices[0].status[20] = 2;
    last.devices[0].parent[20] = 3;
    last.devices[0].queues = [vec![20], vec![], vec![], vec![]];

    let mut writer = CheckpointWriter::new();
    writer.persist(&mut st, base.clone()).unwrap();
    let key_len = fs::metadata(&path).unwrap().len();
    writer.persist(&mut st, next.clone()).unwrap();
    let with_delta = fs::metadata(&path).unwrap().len();
    let delta_len = with_delta - key_len;
    assert!(
        delta_len * 2 < key_len,
        "delta ({delta_len} B) not materially smaller than keyframe ({key_len} B)"
    );
    assert_eq!(read_checkpoint(&mut st).unwrap().as_ref(), Some(&next));
    writer.persist(&mut st, last.clone()).unwrap();
    assert_eq!(read_checkpoint(&mut st).unwrap().as_ref(), Some(&last));

    // A torn third record leaves the fold at the second.
    let full = fs::metadata(&path).unwrap().len();
    fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(full - 5).unwrap();
    assert_eq!(read_checkpoint(&mut st).unwrap().as_ref(), Some(&next));
    assert_eq!(fs::metadata(&path).unwrap().len(), with_delta, "the torn tail is cut off");

    // A shape change rewrites the log as a lone keyframe.
    let mut moved = last.clone();
    moved.level = 4;
    moved.extents[0] = (0..32, 0..32);
    writer.persist(&mut st, moved.clone()).unwrap();
    assert_eq!(
        st.read(CHECKPOINT_FILE).unwrap().unwrap().records,
        [Record::Keyframe(moved.clone())]
    );
    assert_eq!(read_checkpoint(&mut st).unwrap(), Some(moved));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn load_detects_every_corruption_class() {
    let dir = tmp_dir("taxonomy");
    let head = header(DriverKind::OneD, 0xdead_beef);
    let mut st = store(&dir, head);
    let layout = sample_layout();
    st.rewrite(LAYOUT_FILE, &[encode(&layout)]).unwrap();
    let path = dir.join(LAYOUT_FILE);
    let pristine = fs::read(&path).unwrap();
    let mut expect = |bytes: &[u8], err: PersistError| {
        fs::write(&path, bytes).unwrap();
        assert_eq!(read_layout(&mut st).unwrap_err(), err);
    };

    // Torn write: a strict prefix, inside the layout record.
    expect(&pristine[..pristine.len() / 2], PersistError::Truncated);
    // Shorter than a frame header, and empty.
    expect(&pristine[..10], PersistError::Truncated);
    expect(&[], PersistError::Truncated);
    // Bad magic.
    let mut bad = pristine.clone();
    bad[0] ^= 0xff;
    expect(&bad, PersistError::BadMagic);
    // Payload bit flip.
    let mut bad = pristine.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x10;
    expect(&bad, PersistError::ChecksumMismatch);
    // A header of another version, under a valid checksum.
    let mut future = Enc::new();
    future.u32(Header::TAG);
    future.u32(99);
    let bad = log_of(&[future.finish(), encode(&layout)]);
    expect(&bad, PersistError::VersionMismatch { found: 99 });
    // A layout log holding something else.
    let bad = log_of(&[encode(&head), encode(&sample_entries()[0])]);
    expect(&bad, PersistError::Corrupt("layout log holds other records".into()));
    // Another driver kind or graph.
    fs::write(&path, &pristine).unwrap();
    let mut grid = store(&dir, header(DriverKind::TwoD, 0xdead_beef));
    assert_eq!(read_layout(&mut grid).unwrap_err(), PersistError::LayoutMismatch);
    let mut other = store(&dir, header(DriverKind::OneD, 1));
    assert_eq!(read_layout(&mut other).unwrap_err(), PersistError::GraphMismatch);
    // Pristine still loads after all that.
    assert_eq!(read_layout(&mut st).unwrap(), Some(layout));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn armed_storage_faults_fire_and_are_counted() {
    let dir = tmp_dir("armed");
    let head = header(DriverKind::OneD, 0xdead_beef);
    let spec =
        FaultSpec { torn_write_rate: 1.0, snapshot_corrupt_rate: 0.0, ..FaultSpec::none(11) };
    let mut torn = SnapshotStore::open(&dir, Some(&spec), head).unwrap();
    torn.rewrite(LAYOUT_FILE, &[encode(&sample_layout())]).unwrap();
    // The torn log must be detected on read.
    let err = read_layout(&mut torn).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Truncated | PersistError::BadMagic | PersistError::ChecksumMismatch
        ),
        "unexpected error for torn log: {err:?}"
    );
    assert_eq!(torn.take_stats().torn_writes, 1);

    // At-rest corruption on an otherwise pristine log.
    store(&dir, head).rewrite(LAYOUT_FILE, &[encode(&sample_layout())]).unwrap();
    let spec = FaultSpec { snapshot_corrupt_rate: 1.0, ..FaultSpec::none(11) };
    let mut rotted = SnapshotStore::open(&dir, Some(&spec), head).unwrap();
    let err = read_layout(&mut rotted).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Truncated
                | PersistError::BadMagic
                | PersistError::ChecksumMismatch
                | PersistError::VersionMismatch { .. }
        ),
        "unexpected error for corrupted log: {err:?}"
    );
    assert_eq!(rotted.take_stats().snapshots_corrupted, 1);
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

// ---------------------------------------------------------------------------
// Resume from an edited checkpoint. A single device on `road_grid(16, 16)`
// dies after its level-1 keyframe; the keyframe is edited under a valid
// checksum, and a restart must come back oracle-correct with a typed
// snapshot error, never a panic or a wrong result.
// ---------------------------------------------------------------------------

/// Runs the doomed traversal, rewrites its keyframe through `edit`, and
/// restarts: the restart must be oracle-correct with audit-valid parents
/// and report the edit as a corrupt snapshot.
fn resume_edited(tag: &str, edit: impl FnOnce(&Csr, &mut CheckpointSnapshot)) {
    let g = road_grid(16, 16, 0.05, 7);
    let source = 1;
    let dir = tmp_dir(&format!("resume-{tag}"));
    let cfg = |max_levels| EnterpriseConfig {
        persist: Some(PersistPolicy::with_checkpoints(&dir, 1)),
        watchdog: WatchdogPolicy { max_levels, ..WatchdogPolicy::default() },
        ..EnterpriseConfig::default()
    };
    assert!(Enterprise::new(cfg(Some(1)), &g).try_bfs(source).is_err(), "{tag}: must die");
    let head = Header { kind: DriverKind::Single, fingerprint: GraphFingerprint::of(&g) };
    let mut st = store(&dir, head);
    let mut snap = read_checkpoint(&mut st).unwrap().expect("a level-1 keyframe");
    assert_eq!(snap.level, 1, "{tag}");
    edit(&g, &mut snap);
    st.rewrite(CHECKPOINT_FILE, &[encode(&snap)]).unwrap();

    let r = Enterprise::new(cfg(None), &g).try_bfs(source).expect("restart must recover");
    assert_eq!(r.levels, cpu_levels(&g, source), "{tag}: levels");
    crate::audit(&g, source, &r.levels, &r.parents).expect("audit-valid parents");
    let errors = &r.recovery.snapshot_errors;
    assert!(errors.iter().any(|e| matches!(e, PersistError::Corrupt(_))), "{tag}: {errors:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_queue_entry_past_the_graph() {
    resume_edited("queue", |_, snap| snap.devices[0].queues[0][0] = 1_000_000);
}

#[test]
fn resume_rejects_status_words_past_the_level() {
    resume_edited("status", |_, snap| {
        for s in snap.devices[0].status.iter_mut().filter(|s| **s == UNVISITED).take(50) {
            *s = 7;
        }
    });
}

#[test]
fn resume_rejects_an_overflowing_edge_sum() {
    resume_edited("edge-sum", |_, snap| snap.vars.visited_edge_sum = u64::MAX);
}

/// An image that passes every value check but is wrong: a far unvisited
/// vertex marked at the checkpoint's level with the source as its parent.
/// Only the resumed traversal's audit can catch it.
#[test]
fn resume_audit_rejects_an_in_range_wrong_image() {
    resume_edited("wrong", |g, snap| {
        let oracle = cpu_levels(g, 1);
        let far = (0..oracle.len()).max_by_key(|&v| oracle[v]).unwrap();
        assert!(oracle[far] > Some(2));
        snap.devices[0].status[far] = snap.level;
        snap.devices[0].parent[far] = 1;
    });
}
