//! The marketplace engine end to end: hundreds of concurrent HITs over
//! one gas-capped chain with batched settlement verification, persisted
//! through the pipelined block store (background writer, incremental
//! snapshots, log compaction, overlapped settlement verification).
//!
//! ```sh
//! cargo run --release --example marketplace            # default seed
//! cargo run --release --example marketplace -- 42      # CLI seed
//! DRAGOON_SEED=0xfeed cargo run --release --example marketplace
//! ```

use dragoon_sim::{seed_from_args_or, MarketConfig, MarketSim, PersistConfig};
use dragoon_trace::Tracer;

fn main() {
    let tracer = Tracer::from_env();
    let seed = seed_from_args_or(0xd1a6_0001);
    let store_dir =
        std::env::temp_dir().join(format!("dragoon-marketplace-{}", std::process::id()));
    let config = MarketConfig {
        hits: 250,
        spawn_per_block: 10,
        workers: 90,
        worker_capacity: 5,
        seed,
        max_blocks: 900,
        // The market report is byte-identical at every thread count, but
        // the store's delta byte counts follow the executor's dirty-set
        // over-approximation — the PERSIST line is only golden with the
        // executor pinned serial.
        exec_threads: 1,
        persist: Some(PersistConfig {
            snapshot_every: 8,
            ..PersistConfig::pipelined(store_dir.clone())
        }),
        ..MarketConfig::default()
    };
    println!(
        "publishing {} HITs (N={}, K={}, Θ={}) to a {}-worker pool, seed {seed:#x}\n",
        config.hits, config.questions, config.k, config.theta, config.workers
    );
    let report = MarketSim::traced(config, tracer.clone()).run();
    print!("{}", report.summary());
    println!();
    dragoon_trace::emit_summary("JSON", report.to_json());
    dragoon_trace::emit_summary("PROVING", report.section_json("proving"));
    dragoon_trace::emit_summary("PERSIST", report.section_json("persist"));
    dragoon_trace::emit_summary("SCHEDULER", report.section_json("scheduler"));
    tracer.finish();
    let _ = std::fs::remove_dir_all(&store_dir);
}
