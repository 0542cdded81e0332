//! Prints a detailed per-transaction gas breakdown of a full ImageNet
//! run — the drill-down behind Table III, showing *where* every unit of
//! gas goes (calldata, storage, precompiles, logs) — plus the parallel
//! executor's scheduler telemetry for a small marketplace run. The lines
//! are raw receipts of the one-instance registry the task runs in; the
//! registry's routing share is printed on its own, and the total less
//! that share is Table III's.
//!
//! ```sh
//! cargo run --release --example gas_report
//! DRAGOON_THREADS=4 cargo run --release --example gas_report   # the market's thread budget
//! ```

use dragoon_chain::{gas_to_usd, GasSchedule, TxStatus};
use dragoon_contract::registry::routing_gas;
use dragoon_core::workload::{imagenet_workload, AnswerModel};
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{MarketConfig, MarketSim, OneHit};
use dragoon_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn main() {
    let tracer = Tracer::from_env();
    let seed = dragoon_sim::seed_from_args_or(1108);
    let mut rng = StdRng::seed_from_u64(seed);
    // Worst case (reject all) exercises every code path.
    let report = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: vec![WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.0 }); 4],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();

    println!("== Per-transaction gas breakdown (ImageNet task, worst case) ==\n");
    println!("{:<10} {:<9} {:>10}   breakdown", "tx", "status", "gas");
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut routing = 0;
    for r in report.chain.receipts() {
        routing += routing_gas(r.label, report.chain.schedule());
        let status = match &r.status {
            TxStatus::Ok => "ok",
            TxStatus::Reverted(_) => "reverted",
        };
        let mut by_label: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (label, g) in &r.gas_breakdown {
            *by_label.entry(label).or_default() += g;
            *totals.entry(label).or_default() += g;
        }
        let parts: Vec<String> = by_label
            .iter()
            .map(|(l, g)| format!("{l}={}k", g / 1_000))
            .collect();
        println!(
            "{:<10} {:<9} {:>10}   {}",
            r.label,
            status,
            r.gas_used,
            parts.join(" ")
        );
    }
    println!("\n== Where the gas goes (whole protocol) ==");
    let grand: u64 = totals.values().sum();
    for (label, g) in &totals {
        println!(
            "{:<12} {:>10} gas  ({:>4.1}%)",
            label,
            g,
            100.0 * *g as f64 / grand as f64
        );
    }
    println!(
        "\nTOTAL: {} gas  =  ${:.2} at 1.5 gwei / $115 per ETH",
        grand,
        gas_to_usd(grand)
    );
    println!(
        "ROUTING: {} gas of it is the registry's (create + routing lookups + id calldata); \
         the rest, {} gas, is Table III's",
        routing,
        grand - routing
    );
    assert_eq!(
        grand - routing,
        report.gas.total(),
        "Table III is TOTAL less routing"
    );

    // Parallel-executor telemetry: a small marketplace run surfaces the
    // scheduler counters (batches, groups, barriers, fallbacks) outside
    // the bench — the serial path reports all zeros.
    let market = MarketConfig {
        hits: 40,
        workers: 30,
        seed,
        exec_threads: dragoon_sim::threads_from_env(),
        ..MarketConfig::default()
    };
    println!("\n== Parallel-executor scheduler stats (40-HIT market, seed {seed:#x}) ==\n");
    let report = MarketSim::traced(market, tracer.clone()).run();
    dragoon_trace::emit_summary("SCHEDULER", report.section_json("scheduler"));
    println!("\n== Proving-service stats (same run) ==\n");
    dragoon_trace::emit_summary("PROVING", report.section_json("proving"));
    tracer.finish();
}
