//! The multi-node network scenario: a full marketplace run whose
//! canonical chain fans out over a 4-node `dragoon-net` gossip network
//! with seeded link delays, loss, duplicate delivery, a mid-run
//! partition and a withhold-and-release block relay — so replicas go
//! stale, fork, and reorg back onto the canonical branch before the
//! final drain converges every node to bit-identical state.
//!
//! ```sh
//! cargo run --release --example net_market            # default seed
//! cargo run --release --example net_market -- 42      # CLI seed
//! DRAGOON_SEED=42 cargo run --release --example net_market
//! DRAGOON_THREADS=1 cargo run --release --example net_market   # serial budget
//! ```
//!
//! The `JSON:` and `NET:` lines are deterministic for a given seed at
//! any thread budget (`DRAGOON_THREADS`, unset = the host's); CI diffs
//! them against committed golden files (`tests/golden/`) at budgets 1
//! and 4 to regression-gate scenario determinism.

use dragoon_net::{NetConfig, PartitionWindow, RelaySpec};
use dragoon_sim::{seed_from_args_or, threads_from_env, MarketConfig, MarketSim};
use dragoon_trace::Tracer;

fn main() {
    let tracer = Tracer::from_env();
    let seed = seed_from_args_or(0xd1a6_0006);
    let net = NetConfig {
        nodes: 4,
        delay: (1, 3),
        drop_per_mille: 60,
        duplicate_per_mille: 40,
        fork_patience: 3,
        // Nodes 2 and 3 spend twenty rounds on an island mid-run...
        partitions: vec![PartitionWindow {
            start: 10,
            end: 30,
            island: vec![2, 3],
        }],
        // ...and the sequencer's blocks only reach anyone in periodic
        // bursts, so even connected replicas run stale and fork.
        relay: RelaySpec::WithholdRelease { period: 6 },
    };
    let config = MarketConfig {
        hits: 40,
        spawn_per_block: 4,
        workers: 30,
        seed,
        exec_threads: threads_from_env(),
        net: Some(net),
        ..MarketConfig::default()
    };
    println!(
        "net market: {} HITs (N={}, K={}, Θ={}) over a 4-node gossip network — \
         withhold-release relay, 20-round partition, seed {seed:#x}\n",
        config.hits, config.questions, config.k, config.theta
    );
    let report = MarketSim::traced(config, tracer.clone()).run();
    print!("{}", report.summary());
    println!();
    dragoon_trace::emit_summary("JSON", report.to_json());
    dragoon_trace::emit_summary("NET", report.section_json("net"));
    dragoon_trace::emit_summary("SCHEDULER", report.section_json("scheduler"));
    tracer.finish();
}
