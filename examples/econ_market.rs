//! The long-horizon econ-market scenario: the full `dragoon-econ` layer
//! over the marketplace engine — cross-HIT worker reputation (ordering
//! and gating), dynamic pricing of `B` from observed fill rates against
//! reservation-wage supply, seeded worker churn, a golden-withholding
//! requester cartel and a reputation-farming sybil cohort.
//!
//! ```sh
//! cargo run --release --example econ_market            # default seed
//! cargo run --release --example econ_market -- 42      # CLI seed
//! DRAGOON_SEED=42 cargo run --release --example econ_market
//! DRAGOON_THREADS=1 cargo run --release --example econ_market   # serial budget
//! ```
//!
//! The `JSON:` and `ECON:` lines are deterministic for a given seed at
//! any thread budget (`DRAGOON_THREADS`, unset = the host's); CI diffs
//! them against committed golden files (`tests/golden/`) at budgets 1
//! and 4 to regression-gate scenario determinism.

use dragoon_econ::{ChurnParams, EconConfig, PricingParams};
use dragoon_sim::{seed_from_args_or, threads_from_env, MarketConfig, MarketSim};
use dragoon_trace::Tracer;

fn main() {
    let tracer = Tracer::from_env();
    let seed = seed_from_args_or(0xd1a6_0005);
    let config = MarketConfig {
        hits: 120,
        // One HIT per block: publishing spans the whole horizon, so the
        // pricing controller adapts while the market is still live.
        spawn_per_block: 1,
        workers: 60,
        worker_capacity: 4,
        seed,
        max_blocks: 1_500,
        exec_threads: threads_from_env(),
        econ: Some(EconConfig {
            // Open the market underpriced: the controller has to discover
            // the clearing wage against the pool's reservation spread.
            pricing: Some(PricingParams {
                initial: 1_500,
                min: 600,
                max: 24_000,
            }),
            churn: Some(ChurnParams::default()),
            reservation_wages: true,
            cartel_requesters: 24, // 20% of requesters collude
            sybil_workers: 6,      // 10% of the opening pool
            ..EconConfig::default()
        }),
        ..MarketConfig::default()
    };
    println!(
        "econ market: {} HITs (N={}, K={}, Θ={}) to a churning {}-worker pool, \
         24 cartel requesters, 6 sybils, seed {seed:#x}\n",
        config.hits, config.questions, config.k, config.theta, config.workers
    );
    let report = MarketSim::traced(config, tracer.clone()).run();
    print!("{}", report.summary());
    println!();
    dragoon_trace::emit_summary("JSON", report.to_json());
    dragoon_trace::emit_summary("ECON", report.section_json("econ"));
    dragoon_trace::emit_summary("PROVING", report.section_json("proving"));
    dragoon_trace::emit_summary("SCHEDULER", report.section_json("scheduler"));
    tracer.finish();
}
