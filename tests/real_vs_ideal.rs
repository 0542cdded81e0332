//! Real-vs-ideal comparison — the executable counterpart of the paper's
//! Theorem 1 ("Π_hit securely realizes F_hit in the C_hit-hybrid, random
//! oracle model").
//!
//! Strategy: run the real protocol Π_hit (a one-HIT run of the market
//! engine over the gas-metered chain, where `C_hit` is instance 0 of its
//! `HitRegistry`, possibly under adversarial scheduling) and the ideal
//! functionality F_hit on the *same inputs* (same answers, same golden
//! standards, same requester strategy), then compare the joint outcomes
//! the environment can observe: which workers were paid, final
//! balances, and what data the requester obtained.

use dragoon_chain::{FifoPolicy, FrontRunPolicy, GasSchedule, ReorderPolicy, ReversePolicy};
use dragoon_contract::{RegistryMessage, Settlement};
use dragoon_core::quality::quality;
use dragoon_core::task::Answer;
use dragoon_core::workload::{draw_answer, imagenet_workload, AnswerModel, Workload};
use dragoon_ledger::{Address, Ledger};
use dragoon_protocol::ideal::IdealHit;
use dragoon_protocol::{worker_addr, WorkerBehavior};
use dragoon_sim::{MarketSim, OneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the ideal functionality with an honest requester who evaluates
/// every answer (rejecting the unqualified), on fixed plaintext answers.
fn run_ideal(workload: &Workload, answers: &[Option<Answer>]) -> (IdealHit, Address, Vec<Address>) {
    let mut ledger = Ledger::new();
    let requester = Address::from_byte(0xaa);
    ledger.mint(requester, workload.spec.budget);
    let workers: Vec<Address> = (0..answers.len() as u8)
        .map(|i| Address::from_byte(0x10 + i))
        .collect();
    let mut f = IdealHit::new(ledger);
    f.publish(
        requester,
        workload.spec.n,
        workload.spec.budget,
        workload.spec.k,
        workload.spec.range,
        workload.spec.theta,
        workload.golden.clone(),
    )
    .unwrap();
    for (w, a) in workers.iter().zip(answers) {
        f.submit_answer(*w, a.clone()).unwrap();
    }
    // Honest requester strategy: evaluate out-of-range answers via
    // outrange, low-quality via evaluate, stay silent on the rest.
    for (w, a) in workers.iter().zip(answers) {
        if let Some(a) = a {
            if let Some(i) = a.0.iter().position(|v| !workload.spec.range.contains(*v)) {
                f.outrange(requester, *w, i).unwrap();
            } else if quality(a, &workload.golden) < workload.spec.theta {
                f.evaluate(requester, *w).unwrap();
            }
        }
    }
    f.finalize();
    (f, requester, workers)
}

/// Draws deterministic answers for a mixed crowd and runs both worlds.
fn compare_worlds(accuracies: &[f64], seed: u64) {
    compare_worlds_under(accuracies, seed, Box::new(FifoPolicy));
}

/// [`compare_worlds`] with the real world's mempool scheduled by
/// `policy` every round.
fn compare_worlds_under(
    accuracies: &[f64],
    seed: u64,
    policy: Box<dyn ReorderPolicy<RegistryMessage>>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = imagenet_workload(4_000_000, &mut rng);

    // Fix the answers first so both worlds see identical inputs.
    let answers: Vec<Answer> = accuracies
        .iter()
        .map(|&acc| {
            draw_answer(
                &AnswerModel::Diligent { accuracy: acc },
                &workload.truth,
                &workload.spec.range,
                &mut rng,
            )
        })
        .collect();

    // Ideal world.
    let ideal_answers: Vec<Option<Answer>> = answers.iter().cloned().map(Some).collect();
    let (ideal, _ideal_requester, ideal_workers) = run_ideal(&workload, &ideal_answers);

    // Real world: workers replay the same fixed answers.
    let behaviors: Vec<WorkerBehavior> = answers
        .iter()
        .map(|a| WorkerBehavior::Fixed(a.clone()))
        .collect();
    let report = MarketSim::one_hit(OneHit {
        workload: workload.clone(),
        behaviors,
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .with_policy(policy)
    .run_hit();

    // Compare payment outcomes worker by worker.
    for ((iw, rw), answer) in ideal_workers.iter().zip(&report.workers).zip(&answers) {
        let ideal_paid = ideal.was_paid(iw).unwrap_or(false);
        let real_paid = matches!(report.settlements.get(rw), Some(Settlement::Paid));
        assert_eq!(
            ideal_paid,
            real_paid,
            "payment mismatch for quality {}",
            quality(answer, &workload.golden)
        );
        let reward = workload.spec.reward_per_worker();
        let ideal_balance = ideal.ledger.balance(iw);
        let real_balance = report.balances[rw];
        assert_eq!(ideal_balance, if ideal_paid { reward } else { 0 });
        assert_eq!(real_balance, ideal_balance);
    }

    // The requester's collected data must coincide: in the ideal world
    // the requester receives all K answers; in the real world it
    // decrypts them. Accepted answers must match exactly.
    for (addr, collected) in &report.collected {
        let idx = report.workers.iter().position(|w| w == addr).unwrap();
        assert_eq!(
            collected, &answers[idx],
            "requester must recover the submitted data"
        );
    }
}

#[test]
fn all_qualified_workers_same_outcome() {
    compare_worlds(&[1.0, 1.0, 1.0, 1.0], 1);
}

#[test]
fn mixed_quality_same_outcome() {
    compare_worlds(&[1.0, 0.9, 0.4, 0.0], 2);
}

#[test]
fn all_unqualified_same_outcome() {
    compare_worlds(&[0.0, 0.0, 0.0, 0.0], 3);
}

#[test]
fn several_seeds_randomized() {
    for seed in 10..15 {
        compare_worlds(&[0.95, 0.7, 0.5, 0.2], seed);
    }
}

#[test]
fn rushing_adversary_does_not_change_outcomes() {
    // Same inputs, adversarial (reversed) scheduling each round: the
    // outcomes must match the ideal world exactly as with FIFO.
    compare_worlds_under(&[1.0, 1.0, 0.0, 1.0], 99, Box::new(ReversePolicy));
}

#[test]
fn front_runner_does_not_change_outcomes() {
    // The market's third ordering: worker 0's transactions jump the
    // queue every round. It submits junk, so going first buys it
    // nothing: the outcomes match the ideal world.
    let front_runner = FrontRunPolicy::new(worker_addr(0));
    compare_worlds_under(&[0.0, 1.0, 1.0, 0.9], 100, Box::new(front_runner));
}

#[test]
fn ideal_leakage_is_length_bounded() {
    // Confidentiality: during collection the adversary learns only who
    // answered and the length — check the leakage log has no payload.
    let mut rng = StdRng::seed_from_u64(5);
    let workload = imagenet_workload(4_000, &mut rng);
    let answers: Vec<Option<Answer>> = (0..4)
        .map(|_| {
            Some(draw_answer(
                &AnswerModel::Diligent { accuracy: 0.8 },
                &workload.truth,
                &workload.spec.range,
                &mut rng,
            ))
        })
        .collect();
    let (ideal, _, _) = run_ideal(&workload, &answers);
    for leak in ideal.leakage() {
        if let dragoon_protocol::Leakage::Answering { len, .. } = leak {
            assert_eq!(*len, 106);
        }
    }
}
