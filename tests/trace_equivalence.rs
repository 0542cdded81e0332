//! Trace equivalence: the differential suite for `dragoon-trace`.
//!
//! The deterministic event stream's contract mirrors the report JSON's:
//! it is a pure function of `(seed, config)` — byte-identical at every
//! executor thread count and under every store mode — and recording it
//! must not perturb the market (a trace-disabled run's report is
//! byte-identical to a traced run's).
//!
//! A run records into the handle it was built with, so the tests here
//! share nothing and run concurrently.

use dragoon_net::{NetConfig, PartitionWindow, RelaySpec};
use dragoon_sim::{run_market, MarketConfig, MarketSim, PersistConfig, ProvingConfig};
use dragoon_trace::Tracer;

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

/// Runs the config under a fresh deterministic handle and returns the
/// recorded stream.
fn captured_stream(config: MarketConfig) -> Vec<String> {
    let tracer = Tracer::deterministic();
    let _ = MarketSim::traced(config, tracer.clone()).run();
    tracer.deterministic_lines()
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
    let config = full_config(2, scratch("off"), true);
    let disabled = run_market(MarketConfig {
        persist: Some(PersistConfig {
            snapshot_every: 4,
            ..PersistConfig::pipelined(scratch("off2"))
        }),
        ..config.clone()
    });
    let tracer = Tracer::full();
    let traced = MarketSim::traced(config, tracer.clone()).run();
    let events = tracer.deterministic_lines();
    assert!(!events.is_empty(), "the full handle must record events");
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

/// The lossy 4-node market of the net-stream tests.
fn lossy_net_config() -> MarketConfig {
    MarketConfig {
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
        }),
        ..MarketConfig::default()
    }
}

/// The network layer's gossip/fork/reorg events ride the same stream:
/// a lossy 4-node run covers all three kinds, and two identical runs
/// produce byte-identical streams.
#[test]
fn net_stream_covers_gossip_forks_reorgs() {
    let first = captured_stream(lossy_net_config());
    assert_covers(&first, &["execute", "gossip", "fork", "reorg"]);
    let second = captured_stream(lossy_net_config());
    assert_eq!(first, second, "the net-enabled stream must be reproducible");
}

/// The lossy net market's stream is the committed golden byte for byte:
/// the `net_market` example's at its default seed, recorded when the
/// network still ran inside the round loop. The network now runs on its
/// own thread and its events are spliced back where the round loop
/// would have recorded them; a misplaced batch moves a `seq` here.
#[test]
fn net_stream_matches_the_golden() {
    let golden = include_str!("golden/net_trace_seed0xd1a60006.jsonl");
    let stream = captured_stream(lossy_net_config());
    assert_eq!(stream.join("\n") + "\n", golden);
}

/// Two different markets traced at the same time, one thread each,
/// record exactly the streams they record alone: a handle sees its own
/// run and nothing else.
#[test]
fn concurrent_markets_trace_independently() {
    let persisted = |tag: &str| full_config(2, scratch(tag), true);
    let alone = [
        captured_stream(persisted("alone")),
        captured_stream(lossy_net_config()),
    ];
    assert_ne!(alone[0], alone[1], "the two markets must differ");
    let barrier = std::sync::Barrier::new(2);
    let start = |config| {
        barrier.wait();
        captured_stream(config)
    };
    let together = std::thread::scope(|s| {
        let a = s.spawn(|| start(persisted("together")));
        let b = s.spawn(|| start(lossy_net_config()));
        [a, b].map(|run| run.join().expect("traced run panicked"))
    });
    assert_eq!(alone, together);
}

/// A handle's Chrome document names only the threads of its own run:
/// after one full-traced pipelined run, a second one's document lists
/// the round loop and its own block writer as tids 1 and 2 and nothing
/// of the first.
#[test]
fn second_trace_names_only_its_own_threads() {
    let row = |tid: u32, name: &str| {
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
    };
    let me = std::thread::current();
    let head = format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{},{},",
        row(1, me.name().expect("test threads are named")),
        row(2, "dragoon-block-writer"),
    );
    for tag in ["chrome1", "chrome2"] {
        let tracer = Tracer::full();
        let _ = MarketSim::traced(full_config(2, scratch(tag), true), tracer.clone()).run();
        let (doc, spans) = dragoon_trace::chrome::render_chrome_trace(&tracer);
        assert!(spans > 0, "the full handle must record wall spans");
        assert!(doc.starts_with(&head), "{tag}: {:.300}", doc);
        assert_eq!(doc.matches("thread_name").count(), 2, "{tag}");
    }
}

/// The wall profile of a net market needs no subtraction: every block a
/// replica applies is an `apply` span (args `node`, `height`, `txs`;
/// node 0, the sequencer's node, executes nothing and records none), the
/// applications of the live run nest inside the round's `gossip` span,
/// and settlement verification says how it was partitioned. Only the
/// final drain — after the last `gossip` — applies outside one. That
/// they cover at least 90 % of it is a wall-clock share, held by the
/// `trace_overhead` tier of the `marketplace_throughput` bench.
#[test]
fn apply_spans_nest_inside_gossip_and_cover_it() {
    use dragoon_trace::{SpanKind, WallSpan};
    let tracer = Tracer::full();
    let report = MarketSim::traced(lossy_net_config(), tracer.clone()).run();
    let spans = tracer.wall_spans();
    let of =
        |kind: SpanKind| -> Vec<&WallSpan> { spans.iter().filter(|s| s.kind == kind).collect() };
    let arg = |span: &WallSpan, key: &str| {
        let found = span.args.iter().find(|(k, _)| *k == key);
        found
            .unwrap_or_else(|| panic!("{} span without `{key}`", span.kind.name()))
            .1
    };
    let end = |span: &WallSpan| span.start_us + span.dur_us;

    let gossip = of(SpanKind::Gossip);
    let apply = of(SpanKind::Apply);
    assert!(!gossip.is_empty() && !apply.is_empty());
    let live_end = gossip.iter().map(|g| end(g)).max().expect("gossip spans");
    for a in &apply {
        assert!(arg(a, "node") < 4);
        assert_eq!(arg(a, "height"), a.tick);
        let _ = arg(a, "txs");
        let nested = gossip
            .iter()
            .any(|g| g.tid == a.tid && g.start_us <= a.start_us && end(a) <= end(g));
        assert!(
            nested || a.start_us >= live_end,
            "an apply span of the live run outside every gossip span"
        );
    }
    assert!(
        apply.iter().all(|a| arg(a, "node") != 0),
        "node 0 applied a block"
    );
    // Every replica applied at least the canonical branch.
    let blocks = report.blocks as usize;
    for node in 1..4 {
        let applied = apply.iter().filter(|a| arg(a, "node") == node).count();
        assert!(applied >= blocks, "node {node}: {applied} of {blocks}");
    }
    for v in of(SpanKind::Verify) {
        let (batches, threads) = (arg(v, "batches"), arg(v, "threads"));
        assert!(1 <= batches && batches <= threads.max(1));
        assert!(batches <= arg(v, "items").max(1));
    }
}

/// Node 0's state is an audit view built after the run: it equals the
/// canonical chain, and building it — on a traced lossy market, with
/// both layers on — adds nothing to the run's stream or wall profile.
#[test]
fn node_0s_audit_view_is_canonical_and_leaves_the_trace_as_it_was() {
    let tracer = Tracer::full();
    let (_, chain, net) = MarketSim::traced(lossy_net_config(), tracer.clone()).run_keeping_net();
    let net = net.expect("net configured");
    let lines = tracer.deterministic_lines();
    let spans = tracer.wall_spans().len();
    let view = net.node_chain(0);
    assert_eq!(view.round(), chain.round());
    assert!(view.contract() == chain.contract(), "registry diverged");
    assert!(view.ledger == chain.ledger, "ledger diverged");
    assert!(view.blocks() == chain.blocks(), "receipts diverged");
    assert!(view.events() == chain.events(), "events diverged");
    assert_eq!(tracer.deterministic_lines(), lines);
    assert_eq!(tracer.wall_spans().len(), spans);
}

/// The round loop's waits on the network thread show on its own track:
/// a `handoff` span per round sent, at the network tick its `gossip`
/// runs at, then the final drain and join, marked `drain`.
#[test]
fn handoff_spans_show_the_round_loop_waiting_on_the_net() {
    use dragoon_trace::{SpanKind, WallSpan};
    let tracer = Tracer::full();
    let _ = MarketSim::traced(lossy_net_config(), tracer.clone()).run();
    let spans = tracer.wall_spans();
    let of =
        |kind: SpanKind| -> Vec<&WallSpan> { spans.iter().filter(|s| s.kind == kind).collect() };
    let main = of(SpanKind::Agent)[0].tid;
    let handoff = of(SpanKind::Handoff);
    let mut gossip: Vec<u64> = of(SpanKind::Gossip).iter().map(|g| g.tick).collect();
    gossip.sort_unstable();
    let (drain, rounds) = handoff.split_last().expect("handoff spans");
    assert_eq!(rounds.iter().map(|h| h.tick).collect::<Vec<_>>(), gossip);
    assert!(rounds.iter().all(|h| h.args.is_empty()));
    assert_eq!(drain.tick, gossip.len() as u64);
    assert_eq!(drain.args, [("drain", 1)]);
    assert!(handoff.iter().all(|h| h.tid == main));
    assert!(of(SpanKind::Gossip).iter().all(|g| g.tid != main));
}

/// The round loop's wall profile needs no subtraction either: on a
/// traced single-node market with proving on, the main thread records
/// `agent` and `harvest` spans and every `prove` nests in an `agent`.
/// That the top-level spans — `agent`, `execute`, `persist` and
/// `harvest` — cover at least 95 % of the loop's wall is a wall-clock
/// share, held by the `trace_overhead` tier of the
/// `marketplace_throughput` bench.
#[test]
fn round_loop_spans_cover_the_main_thread() {
    use dragoon_trace::{SpanKind, WallSpan};
    let tracer = Tracer::full();
    let config = MarketConfig {
        persist: None,
        ..full_config(2, scratch("cover"), true)
    };
    let _ = MarketSim::traced(config, tracer.clone()).run();
    let spans = tracer.wall_spans();
    let of =
        |kind: SpanKind| -> Vec<&WallSpan> { spans.iter().filter(|s| s.kind == kind).collect() };
    let end = |span: &WallSpan| span.start_us + span.dur_us;

    let agent = of(SpanKind::Agent);
    let harvest = of(SpanKind::Harvest);
    assert!(!agent.is_empty() && !harvest.is_empty());
    for prove in of(SpanKind::Prove) {
        assert!(
            agent.iter().any(|a| a.tid == prove.tid
                && a.start_us <= prove.start_us
                && end(prove) <= end(a)),
            "a prove span outside every agent span"
        );
    }
}
