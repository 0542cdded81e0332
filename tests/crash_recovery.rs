//! Crash-recovery differential tests for the persistent block store
//! (`dragoon_chain::store`).
//!
//! A persisted market run appends every produced block's executed
//! transaction list to `blocks.log` and writes full state snapshots on
//! a cadence. These tests pin the store's contract: **recovery from
//! newest-snapshot + block-log tail is bit-identical to the live run**
//! — the whole committed state image (registry shards, ledger,
//! receipts, events) byte for byte — at 1, 4 and 8 executor threads
//! and at the host's budget, with snapshots, without snapshots
//! (whole-log replay from genesis), and with a torn final record
//! (discarded, never half-applied). Every scenario runs at each of
//! [`THREADS`]: the delta bytes follow the executor's dirty set, so the
//! torn-tail, tmp-delta, corrupt-delta and compaction cases are budget
//! cases too.

use dragoon_sim::{recover_market_chain, MarketConfig, MarketSim, PersistConfig};
use std::fs::OpenOptions;
use std::path::PathBuf;

/// The executor budgets every scenario runs at: serial and parallel.
const THREADS: [usize; 2] = [1, 4];

/// A unique scratch directory per test so parallel test binaries (and
/// reruns) never collide; wiped at the end of each test body.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dragoon-crash-{}-{name}", std::process::id()))
}

/// A small but structurally complete market: overbooked commit races,
/// gas-capped blocks, batched settlement, the default adversarial
/// behaviour mix — on a budget of `threads`.
fn base(seed: u64, threads: usize, dir: PathBuf, snapshot_every: u64) -> MarketConfig {
    MarketConfig {
        hits: 12,
        spawn_per_block: 3,
        workers: 14,
        exec_threads: threads,
        seed,
        persist: Some(PersistConfig {
            snapshot_every,
            ..PersistConfig::new(dir)
        }),
        ..MarketConfig::default()
    }
}

/// Runs the market with persistence on, recovers from the store and
/// returns `(live_image, recovered_image, live_round)`.
fn run_and_recover(config: MarketConfig) -> (Vec<u8>, Vec<u8>, u64) {
    let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
    assert_eq!(report.hits_unfinished, 0, "the scenario must drain");
    let recovered = recover_market_chain(&config).expect("recovery must succeed");
    (chain.state_image(), recovered.state_image(), chain.round())
}

/// The headline differential: replay from latest snapshot + block tail
/// lands on the exact bytes of the live run's committed state, for the
/// serial executor and two parallel widths. The recovered image is also
/// identical *across* thread counts — recovery composes with the
/// parallel-equivalence guarantee.
#[test]
fn recovery_is_bit_identical_across_thread_counts() {
    let mut images = Vec::new();
    for threads in [1usize, 4, 8] {
        let dir = scratch(&format!("threads{threads}"));
        let (live, recovered, _) = run_and_recover(base(0xc4a5, threads, dir.clone(), 8));
        assert_eq!(
            live, recovered,
            "recovered state must be byte-identical at {threads} threads"
        );
        images.push(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(images[0], images[1], "1 vs 4 threads");
    assert_eq!(images[0], images[2], "1 vs 8 threads");
}

/// The host's budget (`exec_threads: 0`), resolved once for the live
/// run and once more for recovery, must also recover exactly.
#[test]
fn recovery_is_bit_identical_under_host_thread_budget() {
    let dir = scratch("host");
    let (live, recovered, _) = run_and_recover(base(0xc4a5, 0, dir.clone(), 8));
    assert_eq!(live, recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the snapshot cadence off the whole log replays from genesis —
/// the longest possible recovery path — and still lands on the bytes.
#[test]
fn recovery_without_snapshots_replays_the_whole_log() {
    for threads in THREADS {
        let dir = scratch(&format!("nosnap-t{threads}"));
        let (live, recovered, _) = run_and_recover(base(0x1095, threads, dir.clone(), 0));
        assert_eq!(live, recovered, "{threads} threads");
        let snapshots = std::fs::read_dir(&dir)
            .expect("store dir exists")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("snapshot-")
            })
            .count();
        assert_eq!(snapshots, 0, "cadence 0 must write no snapshots");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A tight cadence leaves several snapshots on disk; recovery must pick
/// the newest and replay only the short tail behind it.
#[test]
fn recovery_uses_the_newest_snapshot() {
    for threads in THREADS {
        let dir = scratch(&format!("dense-t{threads}"));
        let (live, recovered, live_round) = run_and_recover(base(0xdeed, threads, dir.clone(), 4));
        assert_eq!(live, recovered, "{threads} threads");
        let snapshots: Vec<String> = std::fs::read_dir(&dir)
            .expect("store dir exists")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snapshot-"))
            .collect();
        assert!(
            snapshots.len() as u64 >= live_round / 4,
            "cadence 4 over {live_round} blocks must leave snapshots: {snapshots:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn write: a crash mid-append leaves a truncated final record. The
/// log scan must detect and discard it — recovery comes up one block
/// behind the live run, never with a half-applied block.
#[test]
fn torn_final_record_is_discarded_not_half_applied() {
    for threads in THREADS {
        let dir = scratch(&format!("torn-t{threads}"));
        // No snapshots, so every recovered byte comes from the log
        // replay and the final round is a pure function of intact
        // records.
        let config = base(0x70a9, threads, dir.clone(), 0);
        let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0);
        let log = dir.join("blocks.log");
        let intact_len = std::fs::metadata(&log).expect("log exists").len();
        // Tear the final record: cut into its payload (every record is
        // 8 header bytes + a payload much larger than 5).
        OpenOptions::new()
            .write(true)
            .open(&log)
            .expect("log opens")
            .set_len(intact_len - 5)
            .expect("truncate");
        let recovered = recover_market_chain(&config).expect("a torn tail must not fail recovery");
        assert_eq!(
            recovered.round(),
            chain.round() - 1,
            "exactly the torn final block is lost at {threads} threads"
        );
        assert_eq!(
            recovered.blocks().len(),
            chain.blocks().len() - 1,
            "no half-applied block may appear at {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Bit rot: a flipped byte inside the final record trips its checksum;
/// the record (and only that record) is discarded.
#[test]
fn corrupt_final_record_is_discarded_by_checksum() {
    for threads in THREADS {
        let dir = scratch(&format!("bitrot-t{threads}"));
        let config = base(0xb17, threads, dir.clone(), 0);
        let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0);
        let log = dir.join("blocks.log");
        let mut bytes = std::fs::read(&log).expect("log reads");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&log, &bytes).expect("log rewrites");
        let recovered = recover_market_chain(&config).expect("bit rot must not fail recovery");
        assert_eq!(
            recovered.round(),
            chain.round() - 1,
            "exactly the corrupt final block is lost at {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Pipelined lifecycle: background writer, incremental snapshots, log
// compaction and overlapped settlement verification all on at once.
// ---------------------------------------------------------------------------

/// The full pipeline (`PersistConfig::pipelined`) with a given snapshot
/// cadence, on a budget of `threads`.
fn pipelined(seed: u64, threads: usize, dir: PathBuf, snapshot_every: u64) -> MarketConfig {
    MarketConfig {
        hits: 12,
        spawn_per_block: 3,
        workers: 14,
        exec_threads: threads,
        seed,
        persist: Some(PersistConfig {
            snapshot_every,
            ..PersistConfig::pipelined(dir)
        }),
        ..MarketConfig::default()
    }
}

/// The round of the newest `delta-*.bin` artifact in a store dir.
fn newest_delta(dir: &PathBuf) -> Option<(u64, PathBuf)> {
    std::fs::read_dir(dir)
        .expect("store dir exists")
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_owned();
            let round = name
                .strip_prefix("delta-")?
                .strip_suffix(".bin")?
                .parse::<u64>()
                .ok()?;
            Some((round, p))
        })
        .max_by_key(|(round, _)| *round)
}

/// The headline pipelined differential: with the background writer,
/// incremental snapshots, compaction and overlapped verification all
/// enabled, recovery composes base + deltas + log tail to the exact
/// bytes of the live run — and the recovered image is identical across
/// executor thread counts.
#[test]
fn pipelined_recovery_is_bit_identical_across_thread_counts() {
    let mut images = Vec::new();
    for threads in THREADS {
        let dir = scratch(&format!("pipe-threads{threads}"));
        let (live, recovered, _) = run_and_recover(pipelined(0xc4a5, threads, dir.clone(), 8));
        assert_eq!(
            live, recovered,
            "pipelined recovery must be byte-identical at {threads} threads"
        );
        images.push(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(images[0], images[1], "pipelined: 1 vs 4 threads");
}

/// Kill between handoff and append: the round loop hands a frame to the
/// background writer and the process dies before (or mid-) append. After
/// the drain the on-disk state is identical to the synchronous writer's,
/// so the emulation is a torn final record under the pipelined config —
/// snapshots off so the log carries the whole history. Recovery comes up
/// exactly one block behind, never with a half-applied block.
#[test]
fn pipelined_torn_tail_recovers_to_previous_block() {
    for threads in THREADS {
        let dir = scratch(&format!("pipe-torn-t{threads}"));
        let config = pipelined(0x70a9, threads, dir.clone(), 0);
        let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0);
        let log = dir.join("blocks.log");
        let intact_len = std::fs::metadata(&log).expect("log exists").len();
        OpenOptions::new()
            .write(true)
            .open(&log)
            .expect("log opens")
            .set_len(intact_len - 5)
            .expect("truncate");
        let recovered = recover_market_chain(&config).expect("a torn tail must not fail recovery");
        assert_eq!(
            recovered.round(),
            chain.round() - 1,
            "exactly the torn final block is lost at {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash mid-incremental-snapshot, before the atomic rename: the store
/// is left with a stale `.tmp` file and no new artifact, and (without
/// compaction) the log still carries every record — recovery ignores the
/// tmp file and replays to the exact live bytes. Emulated by demoting
/// the newest published delta back to its pre-rename tmp name.
#[test]
fn pipelined_crash_before_delta_rename_recovers_exactly() {
    for threads in THREADS {
        let dir = scratch(&format!("pipe-tmpdelta-t{threads}"));
        let config = MarketConfig {
            persist: Some(PersistConfig {
                snapshot_every: 4,
                compact_log: false, // keep the whole log: deltas are redundant
                ..PersistConfig::pipelined(dir.clone())
            }),
            ..pipelined(0x1d3a, threads, dir.clone(), 4)
        };
        let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0);
        let (_, path) = newest_delta(&dir).expect("cadence 4 + incremental must leave deltas");
        std::fs::rename(&path, path.with_extension("tmp")).expect("demote to tmp");
        let recovered = recover_market_chain(&config).expect("a stale tmp must not fail recovery");
        assert_eq!(
            chain.state_image(),
            recovered.state_image(),
            "recovery must compose the surviving artifacts + log to the live bytes \
             at {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Bit rot inside a published delta trips its checksum; composition
/// stops at the last good artifact and the (uncompacted) log replays the
/// rest — still bit-identical. A truncated delta (torn artifact write)
/// degrades the same way.
#[test]
fn pipelined_corrupt_delta_degrades_to_log_replay() {
    for threads in THREADS {
        let dir = scratch(&format!("pipe-baddelta-t{threads}"));
        let config = MarketConfig {
            persist: Some(PersistConfig {
                snapshot_every: 4,
                compact_log: false,
                ..PersistConfig::pipelined(dir.clone())
            }),
            ..pipelined(0xde17a, threads, dir.clone(), 4)
        };
        let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0);
        let (_, path) = newest_delta(&dir).expect("cadence 4 + incremental must leave deltas");
        // Flip a payload byte: checksum mismatch.
        let mut bytes = std::fs::read(&path).expect("delta reads");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("delta rewrites");
        let recovered =
            recover_market_chain(&config).expect("a corrupt delta must not fail recovery");
        assert_eq!(
            chain.state_image(),
            recovered.state_image(),
            "bit rot in a delta must degrade to log replay, not corrupt state \
             ({threads} threads)"
        );
        // Torn artifact: same file cut in half.
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).expect("delta rewrites");
        let recovered = recover_market_chain(&config).expect("a torn delta must not fail recovery");
        assert_eq!(
            chain.state_image(),
            recovered.state_image(),
            "a torn delta must degrade to log replay, not corrupt state ({threads} threads)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Post-compaction recovery: with `compact_log` on the log is truncated
/// at every artifact publish, so recovery leans on the artifact chain
/// (full base + deltas) plus only the short post-artifact tail — and
/// still lands on the live bytes. The log stays bounded by one snapshot
/// interval and old artifacts are pruned at each full rebase.
#[test]
fn pipelined_post_compaction_recovery_is_bit_identical() {
    for threads in THREADS {
        let dir = scratch(&format!("pipe-compact-t{threads}"));
        let config = pipelined(0xc03a, threads, dir.clone(), 4);
        let (report, chain, _) = MarketSim::new(config.clone()).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0);
        let stats = report
            .persist
            .expect("persisted run must report store stats");
        assert!(stats.compactions > 0, "cadence 4 must compact: {stats:?}");
        assert!(
            stats.log_bytes_truncated > 0,
            "compaction must reclaim log bytes: {stats:?}"
        );
        let log_len = std::fs::metadata(dir.join("blocks.log"))
            .expect("log exists")
            .len();
        assert!(
            log_len < stats.log_bytes_written,
            "the compacted log ({log_len} bytes) must be a strict subset of \
             everything written ({} bytes)",
            stats.log_bytes_written
        );
        assert!(
            stats.delta_snapshots > 0,
            "incremental cadence must publish deltas: {stats:?}"
        );
        let recovered = recover_market_chain(&config).expect("recovery must succeed");
        assert_eq!(
            chain.state_image(),
            recovered.state_image(),
            "post-compaction recovery must be byte-identical at {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
