//! **Marketplace throughput** — HITs settled per 1 000 blocks under the
//! engine, and the batched-vs-individual VPKE verification speedup that
//! pays for the batched settlement path. Emits one JSON object per
//! measurement on stdout (lines prefixed `JSON:`) for the perf
//! trajectory.
//!
//! ```sh
//! cargo bench -p dragoon-bench --bench marketplace_throughput
//! DRAGOON_SEED=7 cargo bench -p dragoon-bench --bench marketplace_throughput
//! DRAGOON_BENCH_ONLY=market_scale_1m DRAGOON_SCALE_HITS=20000 cargo bench -p dragoon-bench --bench marketplace_throughput
//! DRAGOON_THREADS=4 cargo bench -p dragoon-bench --bench marketplace_throughput
//! ```
//!
//! `DRAGOON_THREADS` sets the thread budget of every tier that does not
//! pin its own (unset = the host's available parallelism), and the
//! parallel side of `spawn_heavy_speedup`.
//!
//! Tiers are rows of [`TIERS`]; the A/B tiers (same market, two
//! configurations, identical reports, one wall-clock ratio) all go
//! through [`run_ab`].

use dragoon_bench::{fmt_duration, peak_rss_kb, time_once};
use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
use dragoon_crypto::vpke;
use dragoon_net::{NetConfig, PartitionWindow, RelaySpec};
use dragoon_sim::{
    run_market, seed_from_env_or, threads_from_env, MarketConfig, MarketReport, MarketSim,
    PersistConfig, ProvingConfig,
};
use dragoon_trace::{SpanKind, Tracer, WallSpan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Emits one `JSON:` summary line for `bench` with the given members.
fn json_line(bench: &str, members: String) {
    dragoon_trace::emit_summary("JSON", format!("{{\"bench\":\"{bench}\",{members}}}"));
}

fn market_throughput(seed: u64) {
    println!("== marketplace throughput ==");
    for (label, settlement) in [
        ("per_proof", dragoon_contract::SettlementMode::PerProof),
        ("batched", dragoon_contract::SettlementMode::Batched),
    ] {
        let config = MarketConfig {
            hits: 200,
            spawn_per_block: 10,
            workers: 80,
            worker_capacity: 5,
            settlement,
            seed,
            max_blocks: 900,
            exec_threads: threads_from_env(),
            ..MarketConfig::default()
        };
        let (wall, report) = time_once(|| run_market(config.clone()));
        let per_1k = report.hits_settled as f64 * 1_000.0 / report.blocks as f64;
        println!(
            "{label:<10} {} HITs settled in {} blocks ({per_1k:.0} per 1k blocks), \
             gas {:.0}k/block, wall {}",
            report.hits_settled,
            report.blocks,
            report.gas_per_block_mean / 1_000.0,
            fmt_duration(wall),
        );
        json_line(
            "market_throughput",
            format!(
                "\"mode\":\"{label}\",\"hits_settled\":{},\"blocks\":{},\
                 \"hits_per_1k_blocks\":{per_1k:.1},\"wall_ms\":{},\"report\":{}",
                report.hits_settled,
                report.blocks,
                wall.as_millis(),
                report.to_json(),
            ),
        );
    }
}

/// A scale-tier market config: lightweight tasks (4 questions, 2 golds)
/// and roomy blocks, so the measurement isolates the engine + state
/// layer rather than proof arithmetic. The executor is pinned serial so
/// every A/B tier prices its own effect on the same footing;
/// [`spawn_heavy_speedup`] measures the executor separately.
fn scale_config(hits: usize, seed: u64) -> MarketConfig {
    MarketConfig {
        hits,
        spawn_per_block: 25,
        workers: (hits / 2).clamp(200, 2_500),
        worker_capacity: 8,
        questions: 4,
        golds: 2,
        k: 3,
        theta: 2,
        block_gas_limit: Some(100_000_000),
        max_blocks: 4_000,
        seed,
        exec_threads: 1,
        ..MarketConfig::default()
    }
}

/// How an A/B tier states side B's wall clock against side A's; the
/// string is the key the figure is printed and emitted under.
enum Ratio {
    /// `a / b`: how many times faster B ran.
    Speedup(&'static str),
    /// `(b / a − 1) · 100`: what B costs over A, in percent.
    OverheadPct(&'static str),
}

/// One labelled side of an A/B tier: the label names its row and its
/// `<label>_ms` key.
type Side<'a> = (&'static str, &'a mut dyn FnMut() -> MarketReport);

/// One measured side: its first report and its best wall.
struct Measured {
    label: &'static str,
    wall: Duration,
    report: MarketReport,
}

/// A measured A/B pair whose reports were asserted identical, with
/// the tier's figure (B's speedup over A, or B's overhead in percent,
/// from the median per-round wall ratio).
struct Ab {
    bench: &'static str,
    key: &'static str,
    figure: f64,
    a: Measured,
    b: Measured,
}

/// Runs the two sides alternately for `best_of` rounds, the opening
/// side alternating too — A B, B A, A B … — so neither warm-up (page
/// cache, frequency ramp) nor running first favours one side alone.
/// The figure is the median over rounds of each round's B/A wall ratio:
/// the two runs of a round share the machine's load of the moment, so
/// the pair measures the difference where two best walls, taken from
/// different rounds, measure the load. Keeps each side's first report
/// and best wall (the printed rows), and asserts the two reports
/// byte-identical: every A/B tier compares configurations that must not
/// change the market, so the wall-clock ratio is the whole difference.
fn run_ab<'a>(bench: &'static str, best_of: u32, ratio: Ratio, a: Side<'a>, b: Side<'a>) -> Ab {
    println!("\n== {bench}: {} vs {} ==", a.0, b.0);
    let mut sides = [a, b].map(|(label, run)| (label, run, None::<Measured>));
    let mut ratios = Vec::with_capacity(best_of as usize);
    for round in 0..best_of {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut walls = [0.0; 2];
        for i in order {
            let (label, run, measured) = &mut sides[i];
            let (wall, report) = time_once(&mut **run);
            walls[i] = wall.as_secs_f64();
            match measured {
                Some(side) => side.wall = side.wall.min(wall),
                None => {
                    *measured = Some(Measured {
                        label,
                        wall,
                        report,
                    })
                }
            }
        }
        ratios.push(walls[1] / walls[0]);
    }
    let [a, b] = sides.map(|(_, _, measured)| measured.expect("best_of is at least 1"));
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "{bench}: the two sides must produce identical reports"
    );
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let b_over_a = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    let (key, figure) = match ratio {
        Ratio::Speedup(key) => (key, 1.0 / b_over_a),
        Ratio::OverheadPct(key) => (key, (b_over_a - 1.0) * 100.0),
    };
    Ab {
        bench,
        key,
        figure,
        a,
        b,
    }
}

impl Ab {
    /// Prints the two rows and the figure, and emits the tier's JSON
    /// line with the tier-specific `extra` members appended.
    fn report(&self, extra: &str) {
        let Ab { key, figure, .. } = self;
        for side in [&self.a, &self.b] {
            println!(
                "{:<11} {} HITs settled in {} blocks, wall {}",
                side.label,
                side.report.hits_settled,
                side.report.blocks,
                fmt_duration(side.wall),
            );
        }
        println!("{key} {figure:.2} (identical reports — differential holds)");
        json_line(
            self.bench,
            format!(
                "\"hits\":{},\"{}_ms\":{},\"{}_ms\":{},\"{key}\":{figure:.2},{extra}",
                self.a.report.hits_published,
                self.a.label,
                self.a.wall.as_millis(),
                self.b.label,
                self.b.wall.as_millis(),
            ),
        );
    }
}

/// The sync-vs-pipelined A/B the scale tier runs: `config` on the
/// synchronous full-snapshot store against the pipelined lifecycle
/// (background writer, dirty-shard incremental snapshots, log
/// compaction, overlapped settlement verification) at one snapshot
/// cadence. The stores live in scratch directories wiped before use (a
/// rerun never recovers into a previous run's artifacts) and removed
/// after; what outlives them is the second value, the bytes compaction
/// left in the pipelined store's `blocks.log`.
fn sync_vs_pipelined(bench: &'static str, config: &MarketConfig, cadence: u64) -> (Ab, u64) {
    let dirs = ["sync", "pipe"].map(|store| {
        let name = format!("dragoon-bench-{}-{bench}-{store}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let run = |preset: PersistConfig| {
        run_market(MarketConfig {
            persist: Some(PersistConfig {
                snapshot_every: cadence,
                ..preset
            }),
            ..config.clone()
        })
    };
    let ab = run_ab(
        bench,
        1,
        Ratio::Speedup("pipeline_speedup"),
        ("sync", &mut || run(PersistConfig::new(dirs[0].clone()))),
        ("pipelined", &mut || {
            run(PersistConfig::pipelined(dirs[1].clone()))
        }),
    );
    let log_left = std::fs::metadata(dirs[1].join("blocks.log")).map_or(0, |m| m.len());
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let deltas = ab.b.report.persist.map_or(0, |stats| stats.delta_snapshots);
    assert!(deltas > 0, "{bench}: the pipelined run must publish deltas");
    (ab, log_left)
}

/// The serial-vs-parallel A/B the spawn-heavy tier runs: `config(1)`
/// against `config(threads)` — the differential guarantee of
/// `tests/parallel_equivalence.rs`. `exec_threads` is the run's whole
/// thread budget (block execution, settlement verification and
/// proving), so the ratio prices all three, not the executor alone.
/// Returns the budget too: on a single-core host the pools degrade to
/// oversubscribed threads, so the JSON is honest about what it ran
/// with.
fn serial_vs_parallel(bench: &'static str, config: impl Fn(usize) -> MarketConfig) -> (Ab, usize) {
    // At least two workers so the parallel machinery actually engages
    // even when the host reports one core.
    let threads = dragoon_chain::resolve_threads(threads_from_env()).max(2);
    let ab = run_ab(
        bench,
        1,
        Ratio::Speedup("speedup"),
        ("serial", &mut || run_market(config(1))),
        ("parallel", &mut || run_market(config(threads))),
    );
    (ab, threads)
}

/// The peak-memory members of a tier's `JSON:` line, gated. `VmHWM` is
/// a process-lifetime mark, so the peak is reported — and asserted below
/// `DRAGOON_MEM_CEILING_MB` — only when `DRAGOON_BENCH_ONLY` runs `tier`
/// alone; after other tiers it would be their peak too, and the line
/// says `"rss_scope":"process"`.
fn peak_rss_members(tier: &str) -> String {
    let ceiling_mb: u64 = std::env::var("DRAGOON_MEM_CEILING_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24_576);
    let peak_mb = peak_rss_kb() / 1024;
    if std::env::var("DRAGOON_BENCH_ONLY").is_ok_and(|only| only == tier) {
        println!("peak memory {peak_mb} MB (ceiling {ceiling_mb} MB)");
        assert!(
            peak_mb < ceiling_mb,
            "{tier} peaked at {peak_mb} MB, over the {ceiling_mb} MB ceiling"
        );
        format!("\"peak_rss_mb\":{peak_mb},\"mem_ceiling_mb\":{ceiling_mb}")
    } else {
        println!(
            "process high-water mark {peak_mb} MB includes the tiers run before this one \
             (not gated; DRAGOON_BENCH_ONLY={tier} measures the tier alone)"
        );
        "\"rss_scope\":\"process\"".to_string()
    }
}

/// **10k-HIT scale** — the headline scenario the journal unlocks: ten
/// thousand concurrent HITs multiplexed over one chain. Emits the
/// throughput JSON that seeds the perf trajectory.
fn market_scale_10k(seed: u64) {
    println!("\n== 10 000-HIT market scale (journaled) ==");
    let config = scale_config(10_000, seed);
    let (wall, report) = time_once(|| run_market(config.clone()));
    let per_1k = report.hits_settled as f64 * 1_000.0 / report.blocks as f64;
    let txs: usize = report.block_stats.iter().map(|b| b.txs).sum();
    println!(
        "{} of {} HITs settled in {} blocks ({per_1k:.0} per 1k blocks), \
         {txs} txs, gas {:.0}k/block, wall {}",
        report.hits_settled,
        report.hits_published,
        report.blocks,
        report.gas_per_block_mean / 1_000.0,
        fmt_duration(wall),
    );
    assert_eq!(report.hits_unfinished, 0, "10k-HIT run must drain");
    json_line(
        "market_scale_10k",
        format!(
            "\"hits_settled\":{},\"blocks\":{},\"hits_per_1k_blocks\":{per_1k:.1},\
             \"txs\":{txs},\"wall_ms\":{},\"tx_per_sec\":{:.0}",
            report.hits_settled,
            report.blocks,
            wall.as_millis(),
            txs as f64 / wall.as_secs_f64(),
        ),
    );
}

/// **Million-HIT scale** — the tier the sharded registry and the
/// persistent block store exist for. Minimal tasks (2 questions, 1
/// gold, K = 2), uncapped blocks and a wide spawn curve, so the
/// measurement stresses instance count: one registry holding a million
/// concurrent-lifecycle HITs, every one settled, under a peak-memory
/// ceiling. The HIT count scales through `DRAGOON_SCALE_HITS` (CI
/// smokes it at 20k; unset = the full million) and the ceiling through
/// `DRAGOON_MEM_CEILING_MB` (see [`peak_rss_members`]). Reports
/// blocks/sec and tx/sec.
fn market_scale_1m(seed: u64) {
    let hits: usize = std::env::var("DRAGOON_SCALE_HITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    println!("\n== {hits}-HIT market scale (sharded registry) ==");
    let config = MarketConfig {
        hits,
        spawn_per_block: (hits / 500).clamp(25, 2_500),
        workers: (hits / 20).clamp(500, 50_000),
        worker_capacity: 8,
        questions: 2,
        golds: 1,
        k: 2,
        theta: 1,
        overbook: 0,
        block_gas_limit: None,
        max_blocks: 20_000,
        seed,
        exec_threads: threads_from_env(),
        ..MarketConfig::default()
    };
    let (wall, report) = time_once(|| run_market(config.clone()));
    assert_eq!(report.hits_unfinished, 0, "the scale run must drain");
    assert_eq!(report.hits_published, hits);
    let txs: usize = report.block_stats.iter().map(|b| b.txs).sum();
    let blocks_per_sec = report.blocks as f64 / wall.as_secs_f64();
    let tx_per_sec = txs as f64 / wall.as_secs_f64();
    println!(
        "{} of {hits} HITs settled ({} cancelled) in {} blocks, {txs} txs, \
         {blocks_per_sec:.1} blocks/sec, {tx_per_sec:.0} tx/sec, wall {}",
        report.hits_settled,
        report.hits_cancelled,
        report.blocks,
        fmt_duration(wall),
    );
    let rss_json = peak_rss_members("market_scale_1m");
    // The persisted tiers. The snapshot cadence adapts to the measured
    // block count so both stores publish a handful of artifacts whatever
    // `DRAGOON_SCALE_HITS` is set to.
    let cadence = (report.blocks / 8).max(4);
    let (ab, pipe_log_len) = sync_vs_pipelined("market_scale_1m", &config, cadence);
    assert_eq!(
        report.to_json(),
        ab.a.report.to_json(),
        "persistence must not change the market"
    );
    let [sync_bps, pipe_bps] =
        [&ab.a, &ab.b].map(|side| side.report.blocks as f64 / side.wall.as_secs_f64());
    let sync_stats = ab.a.report.persist.expect("sync store stats");
    let pipe_stats = ab.b.report.persist.expect("pipelined store stats");
    // Incremental snapshots must scale with the dirty working set, not
    // the instance population: the delta-publishing store writes
    // strictly fewer snapshot bytes than one that re-encodes every
    // instance at each cadence point.
    assert!(
        pipe_stats.snapshot_bytes_written < sync_stats.snapshot_bytes_written,
        "dirty-shard deltas ({} bytes) must undercut full snapshots ({} bytes)",
        pipe_stats.snapshot_bytes_written,
        sync_stats.snapshot_bytes_written,
    );
    // Compaction bound: the log left on disk is the post-artifact tail,
    // a strict subset of everything appended over the run.
    assert!(
        pipe_stats.compactions > 0 && pipe_log_len < pipe_stats.log_bytes_written,
        "compaction must bound the log: {pipe_log_len} of {} bytes left",
        pipe_stats.log_bytes_written,
    );
    ab.report(&format!(
        "\"hits_settled\":{},\"hits_cancelled\":{},\"blocks\":{},\"txs\":{txs},\
         \"blocks_per_sec\":{blocks_per_sec:.1},\"tx_per_sec\":{tx_per_sec:.0},\
         {rss_json},\"wall_ms\":{},\
         \"sync_blocks_per_sec\":{sync_bps:.1},\"pipelined_blocks_per_sec\":{pipe_bps:.1},\
         \"sync_snapshot_bytes\":{},\"pipelined_snapshot_bytes\":{},\
         \"pipelined_log_bytes_left\":{pipe_log_len},\
         \"sync_persist\":{},\"pipelined_persist\":{}",
        report.hits_settled,
        report.hits_cancelled,
        report.blocks,
        wall.as_millis(),
        sync_stats.snapshot_bytes_written,
        pipe_stats.snapshot_bytes_written,
        ab.a.report.section_json("persist"),
        ab.b.report.section_json("persist"),
    ));
}

/// A parallel-execution scale config: per-proof settlement, so VPKE and
/// PoQoEA verification cost sits *inside* the transactions the executor
/// fans out (batched settlement already parallelizes at the block
/// boundary), plus roomy blocks so batches are rarely cut by the cap.
fn parallel_config(hits: usize, seed: u64, exec_threads: usize) -> MarketConfig {
    MarketConfig {
        settlement: dragoon_contract::SettlementMode::PerProof,
        exec_threads,
        ..scale_config(hits, seed)
    }
}

/// **Spawn-heavy parallel execution** — the executor under the most
/// creation traffic a market produces: a 1k-HIT market whose spawn
/// phase keeps roughly a third of every round's mempool
/// `Create`/`Publish` transactions (concentrated spawning, small worker
/// quotas). Every `Create` is a serial barrier; the engine submits them
/// ahead of the round's routed traffic, so they run as one serial
/// stretch at the front of the block and the rest still batches. The
/// JSON records the measured create share and the scheduler counters
/// (`barriers` = creations) alongside the speedup.
fn spawn_heavy_speedup(seed: u64) {
    const SPAWN_PER_BLOCK: usize = 200;
    let (ab, threads) = serial_vs_parallel("spawn_heavy_speedup", |exec_threads| MarketConfig {
        // Concentrated spawning: 200 creations per block while the
        // backlog lasts, against lightweight 2-worker tasks with no
        // overbooking, keeps roughly a third of each ramp round's
        // mempool `Create`/`Publish`. The cap is raised so a 200-create
        // block (~260M gas) is not cut — this bench measures
        // scheduling, not carry-over.
        spawn_per_block: SPAWN_PER_BLOCK,
        k: 2,
        theta: 2,
        overbook: 0,
        block_gas_limit: Some(600_000_000),
        ..parallel_config(1_000, seed, exec_threads)
    });
    // Every published HIT is exactly one funded, successful `Create`.
    let serial = &ab.a.report;
    let txs_of = |blocks: usize| -> usize {
        let stats = serial.block_stats.iter().take(blocks);
        stats.map(|b| b.txs).sum::<usize>().max(1)
    };
    let creates = serial.hits_published;
    let create_share = creates as f64 / txs_of(usize::MAX) as f64;
    let spawn_share = creates as f64 / txs_of(creates.div_ceil(SPAWN_PER_BLOCK)) as f64;
    ab.report(&format!(
        "\"threads\":{threads},\"create_share\":{create_share:.3},\
         \"spawn_phase_create_share\":{spawn_share:.3},\"scheduler\":{}",
        ab.b.report.section_json("scheduler")
    ));
}

/// **Econ-layer overhead** — the same 1 000-HIT market with the
/// `dragoon-econ` layer off and in observe-only mode (reputation fed by
/// every settlement receipt, pricing/churn/adversaries idle, no gating
/// or ordering). Observe-only econ influences nothing, so the
/// wall-clock delta prices exactly the layer's bookkeeping — the
/// acceptance bar is <5% at 1k HITs.
fn econ_overhead(seed: u64) {
    let base = scale_config(1_000, seed);
    let econ_config = MarketConfig {
        econ: Some(dragoon_econ::EconConfig::observe_only()),
        ..base.clone()
    };
    let ab = run_ab(
        "econ_overhead",
        2,
        Ratio::OverheadPct("overhead_pct"),
        ("econ_off", &mut || run_market(base.clone())),
        ("econ_on", &mut || run_market(econ_config.clone())),
    );
    assert!(ab.b.report.econ.is_some() && ab.a.report.econ.is_none());
    ab.report(&format!("\"econ\":{}", ab.b.report.section_json("econ")));
}

/// **Tracing overhead** — the same 1 000-HIT market with `dragoon-trace`
/// fully off and with both layers live (deterministic events and
/// wall-clock spans recorded into the run's handle). Tracing observes the
/// pipeline and never steers it, so the wall-clock delta prices exactly
/// the instrumentation — the acceptance bar is <5% at 1k HITs, on the
/// median of 21 alternated rounds' paired ratios: the ratio of two
/// best walls read −16.30 … +9.52 % over five runs of one tree on a
/// 2-vCPU host, single runs spreading 744–1158 ms, and with five rounds
/// a deliberate +11.1 % on the traced side still passed once in seven
/// runs (with nine rounds, three times in seventeen; with 21, none in
/// seven).
/// The tier also holds the wall profile's two coverage shares
/// ([`apply_share_of_gossip`], [`round_loop_share`]).
fn trace_overhead(seed: u64) {
    let config = scale_config(1_000, seed);
    let mut traced = Tracer::default();
    let ab = run_ab(
        "trace_overhead",
        21,
        Ratio::OverheadPct("trace_overhead"),
        ("trace_off", &mut || run_market(config.clone())),
        ("trace_on", &mut || {
            traced = Tracer::full();
            MarketSim::traced(config.clone(), traced.clone()).run()
        }),
    );
    let events = traced.deterministic_lines().len();
    assert!(events > 0, "a traced run must record deterministic events");
    let (apply_us, gossip_us) = apply_share_of_gossip();
    let (covered_us, loop_us) = round_loop_share();
    ab.report(&format!(
        "\"events\":{events},\"apply_gossip_share\":{:.4},\"round_loop_share\":{:.4}",
        apply_us as f64 / gossip_us as f64,
        covered_us as f64 / loop_us as f64,
    ));
    assert!(
        ab.figure < 5.0,
        "tracing overhead {:.2}% exceeds the 5% acceptance bar",
        ab.figure
    );
    assert!(
        apply_us * 10 >= gossip_us * 9,
        "apply spans cover {apply_us} of {gossip_us} us of gossip (bar: 90 %)"
    );
    assert!(
        covered_us * 100 >= loop_us * 95,
        "top-level spans cover {covered_us} of {loop_us} us (bar: 95 %)"
    );
}

fn span_end(span: &WallSpan) -> u64 {
    span.start_us + span.dur_us
}

/// On the lossy 4-node market whose span nesting
/// `tests/trace_equivalence.rs` checks, the wall time of the `apply`
/// spans that nest inside a `gossip` span, and the `gossip` spans' total:
/// block application must be nearly all of gossip (bar: 90 %), so the
/// wall profile needs no subtraction. A wall-clock share, so it is held
/// here rather than in the test suite, where machine load can trip it.
fn apply_share_of_gossip() -> (u64, u64) {
    let config = MarketConfig {
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
    };
    let tracer = Tracer::full();
    let _ = MarketSim::traced(config, tracer.clone()).run();
    let spans = tracer.wall_spans();
    let gossip: Vec<&WallSpan> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Gossip)
        .collect();
    let nested_us = spans
        .iter()
        .filter(|a| a.kind == SpanKind::Apply)
        .filter(|a| {
            gossip
                .iter()
                .any(|g| g.tid == a.tid && g.start_us <= a.start_us && span_end(a) <= span_end(g))
        })
        .map(|a| a.dur_us)
        .sum();
    (nested_us, gossip.iter().map(|g| g.dur_us).sum())
}

/// On the traced single-node market with proving on whose span nesting
/// `tests/trace_equivalence.rs` checks, the main thread's wall covered by
/// its top-level spans — `agent`, `execute`, `persist` and `harvest` —
/// between the first `agent` start and the last `harvest` end, and that
/// wall (bar: 95 %). A wall-clock share, held here like
/// [`apply_share_of_gossip`].
fn round_loop_share() -> (u64, u64) {
    let config = MarketConfig {
        hits: 24,
        spawn_per_block: 6,
        workers: 25,
        worker_capacity: 4,
        seed: 0x7e57_7ace,
        exec_threads: 2,
        proving: ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 1,
        },
        ..MarketConfig::default()
    };
    let tracer = Tracer::full();
    let _ = MarketSim::traced(config, tracer.clone()).run();
    let spans = tracer.wall_spans();
    let of = |kind: SpanKind| spans.iter().filter(move |s| s.kind == kind);
    let main = of(SpanKind::Agent).next().expect("agent spans").tid;
    let from = of(SpanKind::Agent)
        .map(|a| a.start_us)
        .min()
        .expect("agent spans");
    let to = of(SpanKind::Harvest)
        .map(span_end)
        .max()
        .expect("harvest spans");
    let top = [
        SpanKind::Agent,
        SpanKind::Execute,
        SpanKind::Persist,
        SpanKind::Harvest,
    ];
    let covered_us = spans
        .iter()
        .filter(|s| s.tid == main && top.contains(&s.kind))
        .map(|s| span_end(s).min(to).saturating_sub(s.start_us.max(from)))
        .sum();
    (covered_us, to - from)
}

/// Runs of `net_overhead`'s lossy market; its figures are their median.
const LOSSY_RUNS: usize = 5;

/// **Network-layer overhead** — the same 1 000-HIT market single-node
/// and over a 4-node zero-delay gossip network (every replica
/// re-executes every canonical block serially, on the network's own
/// `dragoon-net` thread). The net layer observes the chain, it never
/// steers it, so the market hands it each round and runs on: the
/// wall-clock delta prices the overlapped net — the replica replay and
/// gossip bookkeeping the round loop's spare cores do not absorb, the
/// per-round handover, and the final drain — read as `overhead_pct`,
/// the median of 21 alternated rounds' paired ratios, as in
/// [`trace_overhead`] (with two rounds, one outlier set it). A lossy
/// variant (seeded delays, loss, duplicates, a withhold-and-release
/// relay) then reports blocks/sec with forks and reorgs in the mix, from
/// the median wall of [`LOSSY_RUNS`] runs whose reports must match.
/// Four full replicas with undo stacks make this the memory-heaviest
/// small tier, so its peak is gated like the scale tier's
/// ([`peak_rss_members`]).
fn net_overhead(seed: u64) {
    let base = scale_config(1_000, seed);
    let with_net = |net: NetConfig| MarketConfig {
        net: Some(net),
        ..base.clone()
    };
    let zero_delay = with_net(NetConfig {
        delay: (0, 0),
        ..NetConfig::default()
    });
    let ab = run_ab(
        "net_overhead",
        21,
        Ratio::OverheadPct("overhead_pct"),
        ("single_node", &mut || run_market(base.clone())),
        ("four_node", &mut || run_market(zero_delay.clone())),
    );
    let zero_report = ab.b.report.net.as_ref().expect("net report");
    assert!(
        zero_report.converged && zero_report.forks_produced == 0 && zero_report.reorgs == 0,
        "zero-delay replicas track the canonical chain exactly"
    );
    // The lossy wire: forks and reorgs now happen, and the final drain
    // still has to converge every node onto the canonical branch.
    let lossy = with_net(NetConfig {
        delay: (1, 3),
        drop_per_mille: 80,
        duplicate_per_mille: 40,
        fork_patience: 3,
        relay: RelaySpec::WithholdRelease { period: 6 },
        ..NetConfig::default()
    });
    // The median wall of five runs: one run spread 827–1 245 ms between
    // runs of the same tree.
    let mut runs: Vec<(Duration, MarketReport)> = (0..LOSSY_RUNS)
        .map(|_| time_once(|| run_market(lossy.clone())))
        .collect();
    for (_, report) in &runs[1..] {
        assert_eq!(
            report.to_json(),
            runs[0].1.to_json(),
            "net_overhead: every lossy run must produce the same report"
        );
    }
    runs.sort_by_key(|(wall, _)| *wall);
    let (lossy_wall, lossy_report) = runs.swap_remove(LOSSY_RUNS / 2);
    let lossy_net = lossy_report.net.as_ref().expect("net report");
    assert!(lossy_net.converged, "lossy run must still converge");
    let blocks_per_sec = lossy_report.blocks as f64 / lossy_wall.as_secs_f64();
    ab.report(&format!(
        "\"nodes\":4,\"lossy_ms\":{},\"lossy_blocks_per_sec\":{blocks_per_sec:.1},\
         \"lossy_reorgs\":{},\"lossy_max_reorg_depth\":{},{},\"net\":{}",
        lossy_wall.as_millis(),
        lossy_net.reorgs,
        lossy_net.max_reorg_depth,
        peak_rss_members("net_overhead"),
        lossy_report.section_json("net"),
    ));
}

/// One valid settlement item: a binary plaintext encrypted under `kp`
/// with its verifiable-decryption proof.
fn proven_item(
    kp: &KeyPair,
    i: usize,
    range: &PlaintextRange,
    rng: &mut StdRng,
) -> (vpke::DecryptionStatement, vpke::DecryptionProof) {
    let ct = kp.ek.encrypt((i % 2) as u64, rng);
    let (claim, proof) = vpke::prove(&kp.dk, &ct, range, rng);
    let ek = kp.ek;
    (vpke::DecryptionStatement { ek, ct, claim }, proof)
}

fn batch_speedup(seed: u64) {
    println!("\n== batched vs individual VPKE verification ==");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c4);
    let kp = KeyPair::generate(&mut rng);
    let range = PlaintextRange::binary();
    for n in [8usize, 32, 128, 512] {
        let items: Vec<_> = (0..n)
            .map(|i| proven_item(&kp, i, &range, &mut rng))
            .collect();
        let (individual, ok_each) = time_once(|| {
            items
                .iter()
                .map(|(s, p)| vpke::verify(s, p))
                .collect::<Vec<_>>()
        });
        let (batched, ok_batch) = time_once(|| vpke::batch_verify_each(&items));
        assert_eq!(ok_each, ok_batch, "verdicts must agree");
        let speedup = individual.as_secs_f64() / batched.as_secs_f64();
        println!(
            "n = {n:<4} individual {:<10} batched {:<10} speedup {speedup:.2}x",
            fmt_duration(individual),
            fmt_duration(batched),
        );
        json_line(
            "vpke_batch_speedup",
            format!(
                "\"n\":{n},\"individual_us\":{},\"batched_us\":{},\"speedup\":{speedup:.3}",
                individual.as_micros(),
                batched.as_micros(),
            ),
        );
    }
    vpke_partition(seed);
}

/// Settlement verification at the chunk shape the market really has.
///
/// A seed-42 `lossy_net_market` pass verifies 5 455 items at 168 block
/// boundaries, queued by 2 483 instances — 962 of them holding a single
/// item. This regenerates that histogram (seeded proofs, chunks shuffled
/// and dealt over 168 blocks) and settles every block both ways, under a
/// budget of one and of two threads: **per chunk** — one
/// `batch_verify_each` per instance fanned over the budget, the
/// partition before the block became the unit — and **balanced** — the
/// registry's `verify_chunks`. Verdicts must be identical; the row is
/// the µs/item of each, alternated block by block so drift hits both.
fn vpke_partition(seed: u64) {
    use dragoon_contract::registry::{verify_chunks, VerifyChunk};
    use rand::seq::SliceRandom;
    const HISTOGRAM: [(usize, usize); 6] =
        [(962, 1), (629, 2), (457, 3), (326, 4), (94, 5), (15, 6)];
    const BLOCKS: usize = 168;
    println!("\n== settlement partition: per chunk vs balanced ==");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a27_1710);
    let keys: Vec<KeyPair> = (0..8).map(|_| KeyPair::generate(&mut rng)).collect();
    let range = PlaintextRange::binary();
    let mut sizes: Vec<usize> = HISTOGRAM
        .iter()
        .flat_map(|&(count, len)| std::iter::repeat_n(len, count))
        .collect();
    sizes.shuffle(&mut rng);
    let mut blocks: Vec<Vec<VerifyChunk>> = vec![Vec::new(); BLOCKS];
    for (at, len) in sizes.into_iter().enumerate() {
        let kp = &keys[at % keys.len()];
        let chunk = (0..len)
            .map(|i| proven_item(kp, i, &range, &mut rng))
            .collect();
        blocks[at % BLOCKS].push(chunk);
    }
    let chunks: usize = blocks.iter().map(Vec::len).sum();
    let items: usize = blocks.iter().flatten().map(Vec::len).sum();
    assert_eq!((chunks, items), (2_483, 5_455));
    // The partition this PR replaced, threshold included.
    let per_chunk = |block: Vec<VerifyChunk>, threads: usize| {
        let total: usize = block.iter().map(Vec::len).sum();
        let threads = if total < 32 { 1 } else { threads };
        dragoon_chain::par_map(threads, block, |chunk| vpke::batch_verify_each(&chunk))
    };
    let mut members = format!("\"blocks\":{BLOCKS},\"chunks\":{chunks},\"items\":{items}");
    for threads in [1usize, 2] {
        let (mut chunked, mut balanced) = (Duration::ZERO, Duration::ZERO);
        for (at, block) in blocks.iter().enumerate() {
            let old = || time_once(|| per_chunk(block.clone(), threads));
            let new = || time_once(|| verify_chunks(block.clone(), threads));
            let ((old_wall, old_ok), (new_wall, new_ok)) = if at % 2 == 0 {
                let first = old();
                (first, new())
            } else {
                let first = new();
                (old(), first)
            };
            assert_eq!(old_ok, new_ok, "block {at}: verdicts must agree");
            assert!(new_ok.iter().flatten().all(|&ok| ok));
            chunked += old_wall;
            balanced += new_wall;
        }
        let us_per_item = |wall: Duration| wall.as_secs_f64() * 1e6 / items as f64;
        let (old_us, new_us) = (us_per_item(chunked), us_per_item(balanced));
        println!(
            "threads = {threads}  per chunk {old_us:>6.1} µs/item  balanced {new_us:>6.1} µs/item  \
             speedup {:.2}x",
            old_us / new_us,
        );
        members += &format!(
            ",\"per_chunk_us_per_item_t{threads}\":{old_us:.1},\
             \"balanced_us_per_item_t{threads}\":{new_us:.1}"
        );
    }
    json_line("vpke_partition", members);
}

/// A tier: its `DRAGOON_BENCH_ONLY` name and its runner (taking the seed).
type Tier = (&'static str, fn(u64));

/// Every tier, in full-run order.
const TIERS: [Tier; 8] = [
    ("market_throughput", market_throughput),
    ("spawn_heavy_speedup", spawn_heavy_speedup),
    ("econ_overhead", econ_overhead),
    ("trace_overhead", trace_overhead),
    ("net_overhead", net_overhead),
    ("market_scale_10k", market_scale_10k),
    ("market_scale_1m", market_scale_1m),
    ("batch_speedup", batch_speedup),
];

fn main() {
    let seed = seed_from_env_or(0xd1a6_0002);
    println!("seed: {seed:#x}\n");
    let only = std::env::var("DRAGOON_BENCH_ONLY").ok();
    if let Some(only) = &only {
        assert!(
            TIERS.iter().any(|(name, _)| name == only),
            "unknown DRAGOON_BENCH_ONLY tier {only:?}; valid tiers: {}",
            TIERS.map(|(name, _)| name).join(", "),
        );
    }
    for (name, tier) in TIERS {
        if only.as_deref().is_none_or(|only| only == name) {
            tier(seed);
        }
    }
}
