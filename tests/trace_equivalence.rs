//! Trace equivalence: the differential suite for `dragoon-trace`.
//!
//! The deterministic event stream's contract mirrors the report JSON's:
//! it is a pure function of `(seed, config)` — byte-identical at every
//! executor thread count and under every store mode — and recording it
//! must not perturb the market (a trace-disabled run's report is
//! byte-identical to a traced run's).
//!
//! Captures flip process-global flags, so every test here serializes on
//! one lock: a `run_market` outside a capture session would otherwise
//! emit events into a concurrent test's stream.

use dragoon_net::{NetConfig, PartitionWindow, RelaySpec};
use dragoon_sim::{run_market, MarketConfig, PersistConfig, ProvingConfig};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dragoon-traceeq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A marketplace config exercising every deterministic span source:
/// block execution, settlement verification, async proving with modeled
/// latency, and the persistent store's append/snapshot cadence.
fn full_config(
    exec_threads: usize,
    store_dir: std::path::PathBuf,
    pipelined: bool,
) -> MarketConfig {
    let base = if pipelined {
        PersistConfig::pipelined(store_dir)
    } else {
        PersistConfig::new(store_dir)
    };
    MarketConfig {
        hits: 24,
        spawn_per_block: 6,
        workers: 25,
        worker_capacity: 4,
        seed: 0x7e57_7ace,
        exec_threads,
        proving: ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 1,
        },
        persist: Some(PersistConfig {
            snapshot_every: 4,
            ..base
        }),
        ..MarketConfig::default()
    }
}

/// Runs the config under a fresh capture session and returns the drained
/// deterministic stream.
fn captured_stream(config: MarketConfig) -> Vec<String> {
    let capture = dragoon_trace::start_capture();
    let _ = run_market(config);
    capture.finish()
}

fn assert_covers(stream: &[String], spans: &[&str]) {
    for span in spans {
        let needle = format!("\"span\":\"{span}\"");
        assert!(
            stream.iter().any(|l| l.contains(&needle)),
            "stream must contain {span} events ({} lines total)",
            stream.len()
        );
    }
}

/// The deterministic stream is byte-identical at 1, 4 and 8 executor
/// threads — the tracing analogue of the report-JSON differential.
#[test]
fn deterministic_stream_identical_across_thread_counts() {
    let _guard = lock();
    let baseline = captured_stream(full_config(1, scratch("t1"), true));
    assert!(!baseline.is_empty(), "the traced run must emit events");
    assert_covers(
        &baseline,
        &[
            "execute", "verify", "prove", "release", "persist", "snapshot",
        ],
    );
    for threads in [4usize, 8] {
        let stream = captured_stream(full_config(threads, scratch(&format!("t{threads}")), true));
        assert_eq!(
            baseline, stream,
            "deterministic stream diverged at {threads} threads"
        );
    }
}

/// The deterministic stream is byte-identical under the synchronous
/// store and the pipelined lifecycle: persistence events carry the round
/// height only, never full-vs-delta shape or byte counts (those are
/// store-mode details, visible in the wall layer and the metrics).
#[test]
fn deterministic_stream_identical_across_store_modes() {
    let _guard = lock();
    let sync = captured_stream(full_config(1, scratch("sync"), false));
    let piped = captured_stream(full_config(1, scratch("pipe"), true));
    assert!(!sync.is_empty());
    assert_eq!(
        sync, piped,
        "deterministic stream must not depend on the store mode"
    );
}

/// Recording both trace layers must not change the market: the traced
/// run's report JSON is byte-identical to a trace-disabled run's.
#[test]
fn traced_run_report_identical_to_disabled_run() {
    let _guard = lock();
    let config = full_config(2, scratch("off"), true);
    let disabled = run_market(MarketConfig {
        persist: Some(PersistConfig {
            snapshot_every: 4,
            ..PersistConfig::pipelined(scratch("off2"))
        }),
        ..config.clone()
    });
    let capture = dragoon_trace::start_full_capture();
    let traced = run_market(config);
    let events = capture.finish();
    assert!(!events.is_empty(), "the full capture must record events");
    assert_eq!(
        disabled.to_json(),
        traced.to_json(),
        "tracing must not change the market report"
    );
    for section in ["scheduler", "proving", "persist"] {
        assert_eq!(
            disabled.section_json(section),
            traced.section_json(section),
            "{section}"
        );
    }
}

/// The network layer's gossip/fork/reorg events ride the same stream:
/// a lossy 4-node run covers all three kinds, and two identical runs
/// produce byte-identical streams.
#[test]
fn net_stream_covers_gossip_forks_reorgs() {
    let _guard = lock();
    let config = || MarketConfig {
        hits: 40,
        spawn_per_block: 4,
        workers: 30,
        seed: 0xd1a6_0006,
        net: Some(NetConfig {
            nodes: 4,
            delay: (1, 3),
            drop_per_mille: 60,
            duplicate_per_mille: 40,
            fork_patience: 3,
            partitions: vec![PartitionWindow {
                start: 10,
                end: 30,
                island: vec![2, 3],
            }],
            relay: RelaySpec::WithholdRelease { period: 6 },
            ..NetConfig::default()
        }),
        ..MarketConfig::default()
    };
    let first = captured_stream(config());
    assert_covers(&first, &["execute", "gossip", "fork", "reorg"]);
    let second = captured_stream(config());
    assert_eq!(first, second, "the net-enabled stream must be reproducible");
}
