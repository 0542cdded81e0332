//! Quickstart: a small private decentralized HIT, end to end.
//!
//! A requester crowdsources 10 binary questions from 3 workers with a
//! 300-coin budget; 2 gold standards gate the payments. Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dragoon_chain::{gas_to_usd, GasSchedule};
use dragoon_core::workload::{generate_workload, AnswerModel};
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{MarketSim, OneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(dragoon_sim::seed_from_args_or(42));

    // 1. Describe the task: 10 binary questions, 2 secret gold
    //    standards, 3 workers, pay each 100 coins if they clear Θ = 2.
    let workload = generate_workload(
        10,                       // N questions
        2,                        // |G| gold standards
        3,                        // K workers
        2,                        // Θ quality threshold
        PlaintextRange::binary(), // answer options {0, 1}
        300,                      // budget B
        &mut rng,
    );
    println!(
        "Task: {} questions, {} golds, {} workers, Θ = {}, reward = {} each\n",
        workload.spec.n,
        workload.golden.len(),
        workload.spec.k,
        workload.spec.theta,
        workload.spec.reward_per_worker()
    );

    // 2. Choose worker behaviours: two diligent, one careless.
    let behaviors = vec![
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 1.0 }),
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.95 }),
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.10 }),
    ];

    // 3. Run the whole protocol over the simulated chain: publish →
    //    commit → reveal → evaluate (PoQoEA rejections) → settle.
    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors,
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();

    // 4. Outcomes.
    println!("Settlements:");
    for (worker, settlement) in &report.settlements {
        println!(
            "  {worker}  →  {settlement:?}  (balance {})",
            report.balances[worker]
        );
    }
    println!(
        "\nRequester refund: {} coins",
        report.balances[&report.requester]
    );
    println!("Answers collected: {}", report.collected.len());
    for (worker, answer) in &report.collected {
        println!("  {worker}: {:?}", answer.0);
    }
    let total = report.gas.total();
    println!(
        "\nTotal on-chain handling: {} gas  (≈ ${:.2} at the paper's rates)",
        total,
        gas_to_usd(total)
    );
}
