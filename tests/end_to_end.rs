//! Workspace-level end-to-end tests: the full Dragoon stack (crypto →
//! chain → contract → protocol → sim) under honest and adversarial
//! conditions, one HIT at a time.

use dragoon_chain::{AdversarialPolicy, DelayVictimPolicy, GasSchedule, Scheduled};
use dragoon_contract::{RejectReason, Settlement};
use dragoon_core::workload::{generate_workload, imagenet_workload, AnswerModel};
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{MarketSim, OneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn honest(acc: f64) -> WorkerBehavior {
    WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: acc })
}

#[test]
fn imagenet_task_full_run() {
    let mut rng = StdRng::seed_from_u64(1);
    let report = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: vec![honest(1.0), honest(0.95), honest(0.92), honest(0.0)],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    // The three diligent workers are paid; the spam worker is rejected
    // via PoQoEA (with overwhelming probability at accuracy 0).
    let paid = report
        .settlements
        .values()
        .filter(|s| **s == Settlement::Paid)
        .count();
    assert_eq!(paid, 3);
    assert_eq!(report.gas.rejects.len(), 1);
    assert_eq!(report.collected.len(), 3);
}

#[test]
fn non_binary_task_with_wide_range() {
    // A 4-option task (range {0..3}) with 8 golds and 5 workers.
    let mut rng = StdRng::seed_from_u64(2);
    let workload = generate_workload(40, 8, 5, 6, PlaintextRange::new(0, 3), 5_000, &mut rng);
    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors: vec![honest(1.0); 5],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    assert_eq!(report.collected.len(), 5);
    for w in &report.workers {
        assert_eq!(report.balances[w], 1_000);
    }
}

#[test]
fn single_worker_task() {
    let mut rng = StdRng::seed_from_u64(3);
    let workload = generate_workload(5, 2, 1, 2, PlaintextRange::binary(), 100, &mut rng);
    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors: vec![honest(1.0)],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    assert_eq!(report.collected.len(), 1);
    assert_eq!(report.balances[&report.workers[0]], 100);
}

#[test]
fn all_attackers_requester_keeps_budget() {
    let mut rng = StdRng::seed_from_u64(4);
    let report = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: vec![
            honest(0.0),
            WorkerBehavior::CommitNoReveal,
            WorkerBehavior::BadReveal,
            honest(0.0),
        ],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    // Nobody earns; the requester gets the full budget back.
    for w in &report.workers {
        assert_eq!(report.balances[w], 0);
    }
    assert_eq!(report.balances[&report.requester], 4_000_000);
    // Bad revealers are recorded as no-reveal (their opening failed).
    assert!(matches!(
        report.settlements[&report.workers[1]],
        Settlement::Rejected(RejectReason::NoReveal)
    ));
    assert!(matches!(
        report.settlements[&report.workers[2]],
        Settlement::Rejected(RejectReason::NoReveal)
    ));
}

#[test]
fn targeted_delay_cannot_steal_a_slot_forever() {
    // The adversary delays one victim's messages by the maximum one
    // clock period; the victim still lands in the task (synchrony bound).
    let mut rng = StdRng::seed_from_u64(5);
    let workload = imagenet_workload(4_000_000, &mut rng);
    // The victim is worker 0 of the run's pool.
    let policy = DelayVictimPolicy::new(dragoon_protocol::worker_addr(0));
    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors: vec![honest(1.0); 4],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .with_policy(Box::new(policy))
    .run_hit();
    // All four (including the delayed victim) were eventually paid.
    for w in &report.workers {
        assert_eq!(
            report.balances[w], 1_000_000,
            "worker {w} must be paid despite delays"
        );
    }
}

#[test]
fn chaotic_scheduling_preserves_fairness() {
    // A randomized adversary shuffles and delays half of each round.
    let mut rng = StdRng::seed_from_u64(6);
    let workload = imagenet_workload(4_000_000, &mut rng);
    let mut flip = false;
    let policy = AdversarialPolicy::new(move |_round, mut pending: Vec<_>| {
        pending.reverse();
        flip = !flip;
        if flip && pending.len() > 1 {
            let delay = pending.split_off(pending.len() / 2);
            // NOTE: delayed messages reappear next round — within the
            // synchrony bound.
            Scheduled {
                deliver: pending,
                delay,
            }
        } else {
            Scheduled {
                deliver: pending,
                delay: Vec::new(),
            }
        }
    });
    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors: vec![honest(1.0); 4],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .with_policy(Box::new(policy))
    .run_hit();
    for w in &report.workers {
        assert_eq!(report.balances[w], 1_000_000);
    }
    assert_eq!(report.collected.len(), 4);
}

#[test]
fn protocol_completes_under_block_gas_limit() {
    // Ethereum's ~10M block gas limit (the paper's era) fits only ~3 of
    // the 2.6M-gas reveals per block; the fourth spills into the next
    // round. The phase windows absorb the spill and everyone is paid.
    let mut rng = StdRng::seed_from_u64(8);
    let workload = imagenet_workload(4_000_000, &mut rng);
    let report = MarketSim::one_hit(OneHit {
        workload,
        behaviors: vec![honest(1.0); 4],
        schedule: GasSchedule::istanbul(),
        block_gas_limit: Some(10_000_000),
        seed: rng.gen(),
    })
    .run_hit();
    for w in &report.workers {
        assert_eq!(report.balances[w], 1_000_000);
    }
    assert_eq!(report.collected.len(), 4);
    // At least one block actually hit the cap (more than one block
    // carries reveals).
    let reveal_rounds: std::collections::BTreeSet<u64> = report
        .chain
        .receipts()
        .filter(|r| r.label == "reveal")
        .map(|r| r.round)
        .collect();
    assert!(
        reveal_rounds.len() > 1,
        "reveals must have spilled across blocks"
    );
}

#[test]
fn budget_conservation_across_runs() {
    // Whatever the behaviours, coins are conserved: payments + refund =
    // budget.
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let behaviors = vec![
            honest(1.0),
            honest(0.5),
            honest(0.0),
            WorkerBehavior::CommitNoReveal,
        ];
        let report = MarketSim::one_hit(OneHit {
            workload: imagenet_workload(4_000_000, &mut rng),
            behaviors,
            schedule: GasSchedule::istanbul(),
            block_gas_limit: None,
            seed: rng.gen(),
        })
        .run_hit();
        let total: u128 = report.balances.values().sum();
        assert_eq!(total, 4_000_000, "coins must be conserved (seed {seed})");
    }
}

#[test]
fn gas_totals_scale_with_workers() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut totals = Vec::new();
    for k in [2usize, 4, 8] {
        let workload = generate_workload(
            106,
            6,
            k,
            4,
            PlaintextRange::binary(),
            (k as u128) * 1_000_000,
            &mut rng,
        );
        let report = MarketSim::one_hit(OneHit {
            workload,
            behaviors: vec![honest(1.0); k],
            schedule: GasSchedule::istanbul(),
            block_gas_limit: None,
            seed: rng.gen(),
        })
        .run_hit();
        totals.push(report.gas.total());
    }
    assert!(totals[0] < totals[1] && totals[1] < totals[2]);
}

#[test]
fn one_key_pair_serves_many_tasks() {
    // §VI "Off-chain costs": the requester manages a single key pair
    // across all her tasks, because every protocol script is simulatable
    // without the secret key. Run two different tasks against the same
    // key pair and check both evaluate correctly.
    use dragoon_core::workload::draw_answer;
    use dragoon_crypto::commitment::CommitmentKey;
    use dragoon_crypto::elgamal::KeyPair;
    use dragoon_protocol::{ContentStore, Requester, Verdict};

    let mut rng = StdRng::seed_from_u64(0x5e55);
    let keypair = KeyPair::generate(&mut rng);
    let mut store = ContentStore::new();

    let w1 = imagenet_workload(4_000, &mut rng);
    let w2 = generate_workload(30, 4, 2, 3, PlaintextRange::new(0, 3), 2_000, &mut rng);
    let r1 = Requester::with_keypair(
        dragoon_ledger::Address::from_byte(1),
        keypair,
        CommitmentKey::random(&mut rng),
        &w1,
        &mut store,
    );
    let r2 = Requester::with_keypair(
        dragoon_ledger::Address::from_byte(1),
        keypair,
        CommitmentKey::random(&mut rng),
        &w2,
        &mut store,
    );
    // Same encryption key, different gold-standard commitments.
    assert_eq!(r1.public_key(), r2.public_key());
    let (dragoon_contract::HitMessage::Publish(p1), dragoon_contract::HitMessage::Publish(p2)) =
        (r1.publish_msg(), r2.publish_msg())
    else {
        panic!()
    };
    assert_ne!(p1.comm_gs, p2.comm_gs);

    // Both tasks evaluate correctly under the shared key.
    for (r, w) in [(&r1, &w1), (&r2, &w2)] {
        let good = draw_answer(
            &AnswerModel::Diligent { accuracy: 1.0 },
            &w.truth,
            &w.spec.range,
            &mut rng,
        );
        let cts = good.encrypt(&r.public_key(), &mut rng);
        assert!(matches!(
            r.evaluate(dragoon_ledger::Address::from_byte(9), &cts, &mut rng),
            Verdict::Accept { .. }
        ));
        let bad = draw_answer(
            &AnswerModel::Diligent { accuracy: 0.0 },
            &w.truth,
            &w.spec.range,
            &mut rng,
        );
        let cts = bad.encrypt(&r.public_key(), &mut rng);
        assert!(matches!(
            r.evaluate(dragoon_ledger::Address::from_byte(9), &cts, &mut rng),
            Verdict::RejectLowQuality { .. }
        ));
    }
}
