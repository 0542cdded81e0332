//! Adversarial scenarios: the attacks the paper's design defends
//! against, demonstrated on the running system.
//!
//! 1. **Copy-and-paste free-riding** — a worker replays an honest
//!    commitment that has landed on-chain, racing for a slot the
//!    adversary held open; the contract's duplicate check reverts it,
//!    and the ciphertext content is never visible in time to copy anyway.
//! 2. **Commit-then-vanish** — a worker commits but never opens; it is
//!    recorded as ⊥ and earns nothing.
//! 3. **Rushing adversary** — the network reorders every round's
//!    messages; outcomes are unchanged (the commit–reveal structure is
//!    order-insensitive within a phase).
//!
//! ```sh
//! cargo run --release --example adversarial_workers
//! ```

use dragoon_chain::{
    AdversarialPolicy, DelayVictimPolicy, GasSchedule, ReorderPolicy, ReversePolicy, TxStatus,
};
use dragoon_contract::Settlement;
use dragoon_core::workload::{imagenet_workload, AnswerModel};
use dragoon_protocol::{worker_addr, WorkerBehavior};
use dragoon_sim::{MarketSim, OneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(dragoon_sim::seed_from_args_or(7));
    let honest = WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.97 });

    // ---- Scenario 1: the copy-paste attacker races four honest workers.
    // A copier replays a commitment it saw land in an earlier block, so
    // the adversary keeps the last slot open for a round (worker 3's
    // commit is held back) and then delivers each block in reverse
    // arrival order, putting the replay ahead of the held-back commit.
    println!("Scenario 1: copy-and-paste free-rider");
    let mut delay = DelayVictimPolicy::new(worker_addr(3));
    let policy = AdversarialPolicy::new(move |round, pending| {
        let mut scheduled = delay.schedule(round, pending);
        scheduled.deliver.reverse();
        scheduled
    });
    let report = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: vec![
            honest.clone(),
            honest.clone(),
            honest.clone(),
            honest.clone(),
            WorkerBehavior::CopyPaste,
        ],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .with_policy(Box::new(policy))
    .run_hit();
    let copier = report.workers[4];
    let copies: Vec<_> = report
        .chain
        .receipts()
        .filter(|r| r.sender == copier)
        .collect();
    for r in &copies {
        println!(
            "  copier's {} in block {}: {:?}",
            r.label, r.round, r.status
        );
    }
    println!(
        "  copier settlement: {:?}  balance: {}",
        report.settlements.get(&copier),
        report.balances[&copier]
    );
    assert!(
        copies.len() == 1 && matches!(copies[0].status, TxStatus::Reverted(_)),
        "the copier's one commit is submitted and reverted"
    );
    assert_eq!(report.balances[&copier], 0);
    println!("  → duplicate commitment reverted; the attacker earned nothing.\n");

    // ---- Scenario 2: commit-then-vanish.
    println!("Scenario 2: commit without reveal");
    let report = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: vec![
            honest.clone(),
            honest.clone(),
            honest.clone(),
            WorkerBehavior::CommitNoReveal,
        ],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    let silent = report.workers[3];
    println!(
        "  silent worker: {:?}, balance {}; requester refunded {}",
        report.settlements[&silent], report.balances[&silent], report.balances[&report.requester]
    );
    assert_eq!(report.balances[&silent], 0);
    println!("  → recorded as ⊥; the unclaimed share returned to the requester.\n");

    // ---- Scenario 3: rushing adversary reorders every round.
    println!("Scenario 3: rushing adversary (reverse delivery order each round)");
    let report = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: vec![honest.clone(), honest.clone(), honest.clone(), honest],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .with_policy(Box::new(ReversePolicy))
    .run_hit();
    let all_paid = report.settlements.values().all(|s| *s == Settlement::Paid);
    println!(
        "  all four honest workers paid under reordering: {all_paid} \
         (answers collected: {})",
        report.collected.len()
    );
    assert!(all_paid);
    println!("  → message reordering cannot break fairness.");
}
