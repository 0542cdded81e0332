//! The paper's §VI experiment: an ImageNet-style image-annotation HIT on
//! the decentralized protocol.
//!
//! Task policy (exactly the paper's): 106 binary attribute questions, 6
//! of which are the requester's secret gold standards; 4 workers; a
//! submission is rejected iff it fails 3 or more gold standards (Θ = 4).
//!
//! ```sh
//! cargo run --release --example imagenet_annotation
//! ```

use dragoon_chain::{gas_to_usd, GasSchedule};
use dragoon_contract::Settlement;
use dragoon_core::workload::{imagenet_workload, AnswerModel};
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{MarketSim, OneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(dragoon_sim::seed_from_args_or(2020));

    // The ImageNet annotation task with a 4M-unit budget (1M per worker).
    let workload = imagenet_workload(4_000_000, &mut rng);
    println!(
        "ImageNet HIT: N = {}, |G| = {}, K = {}, Θ = {}\n",
        workload.spec.n,
        workload.golden.len(),
        workload.spec.k,
        workload.spec.theta
    );

    // A realistic crowd: three diligent annotators with ordinary error
    // rates and one low-effort spammer
    // whose answers are mostly wrong.
    let behaviors = vec![
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.97 }),
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.93 }),
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.90 }),
        WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.15 }),
    ];

    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors,
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();

    println!("Worker outcomes:");
    for (i, worker) in report.workers.iter().enumerate() {
        let outcome = match report.settlements.get(worker) {
            Some(Settlement::Paid) => "PAID 1,000,000".to_string(),
            Some(Settlement::Rejected(reason)) => format!("REJECTED ({reason:?})"),
            None => "not in task".to_string(),
        };
        println!("  worker {i}: {outcome}");
    }
    println!(
        "\nAnnotations collected: {} × {} labels",
        report.collected.len(),
        report.collected.first().map(|(_, a)| a.len()).unwrap_or(0)
    );

    println!("\nOn-chain handling fees (Table III rows):");
    println!(
        "  publish:           {:>9} gas  (${:.2})",
        report.gas.publish,
        gas_to_usd(report.gas.publish)
    );
    for (i, submit) in report.gas.submit_per_worker().iter().enumerate() {
        println!(
            "  submit (worker {i}): {:>9} gas  (${:.2})",
            submit,
            gas_to_usd(*submit)
        );
    }
    for (i, rej) in report.gas.rejects.iter().enumerate() {
        println!(
            "  rejection #{i}:      {:>9} gas  (${:.2})",
            rej,
            gas_to_usd(*rej)
        );
    }
    println!(
        "  golden + settle:   {:>9} gas",
        report.gas.golden + report.gas.finalize
    );
    let total = report.gas.total();
    println!(
        "  TOTAL:             {:>9} gas  (${:.2}; MTurk charges ≥ $4.00 for this task)",
        total,
        gas_to_usd(total)
    );
}
