//! Mempool `ReorderPolicy` under contention: a front-runner racing
//! honest workers for a task's last commitment slot, gas-capped blocks
//! deferring (never dropping) the overflow, and worker churn under
//! front-running never stranding escrowed coins.

use dragoon_chain::{Chain, FifoPolicy, FrontRunPolicy, GasSchedule, TxStatus};
use dragoon_contract::{
    HitContract, HitMessage, HitRegistry, Phase, PhaseWindows, PublishParams, RegistryMessage,
    SettlementMode,
};
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
use dragoon_econ::{ChurnParams, EconConfig};
use dragoon_ledger::Address;
use dragoon_protocol::worker_addr;
use dragoon_sim::{MarketConfig, MarketSim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: u128 = 3_000;

/// One task: instance 0 of a one-instance registry.
struct Fixture {
    rng: StdRng,
    chain: Chain<HitRegistry>,
}

/// The task's contract state.
fn task(chain: &Chain<HitRegistry>) -> &HitContract {
    chain.contract().hit(0).expect("published")
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let kp = KeyPair::generate(&mut rng);
    let requester = Address::from_byte(0xd0);
    let mut chain = Chain::deploy(
        HitRegistry::new(SettlementMode::PerProof),
        0,
        GasSchedule::istanbul(),
    );
    chain.ledger.mint(requester, BUDGET);
    chain.submit(
        requester,
        RegistryMessage::Create {
            windows: PhaseWindows {
                commit_timeout: Some(8),
                reveal: 2,
                evaluate: 2,
            },
            params: PublishParams {
                n: 4,
                budget: BUDGET,
                k: 3,
                range: PlaintextRange::binary(),
                theta: 2,
                ek: kp.ek,
                comm_gs: Commitment([7u8; 32]),
                task_digest: [1u8; 32],
            },
        },
    );
    chain.advance_round_fifo();
    assert_eq!(task(&chain).phase(), Phase::Commit);
    Fixture { rng, chain }
}

/// A commitment to `tag`, addressed to the fixture's task.
fn commit_msg(rng: &mut StdRng, tag: u8) -> RegistryMessage {
    let key = CommitmentKey::random(rng);
    let msg = HitMessage::Commit {
        commitment: Commitment::commit(&[tag], &key),
    };
    RegistryMessage::Hit { id: 0, msg }
}

/// Who won the K=3 slots when two honest workers hold slots 1–2 and an
/// honest straggler races an adversarial front-runner for the last one.
fn race_winners(seed: u64) -> (Vec<Address>, usize) {
    let mut f = fixture(seed);
    let honest: Vec<Address> = (1..=3).map(Address::from_byte).collect();
    let attacker = Address::from_byte(0xaa);
    // Two honest commits land first and are mined FIFO.
    for (i, w) in honest[..2].iter().enumerate() {
        let msg = commit_msg(&mut f.rng, i as u8);
        f.chain.submit(*w, msg);
    }
    f.chain.advance_round_fifo();
    // Round 2: the honest straggler submits; the attacker, watching the
    // mempool, submits after — but its front-running policy reorders
    // delivery so the attacker executes first and takes the last slot.
    let msg = commit_msg(&mut f.rng, 10);
    f.chain.submit(honest[2], msg);
    let msg = commit_msg(&mut f.rng, 11);
    f.chain.submit(attacker, msg);
    let mut policy = FrontRunPolicy::new(attacker);
    f.chain.advance_round(&mut policy);
    let winners = task(&f.chain).committed_workers().to_vec();
    let reverted = f
        .chain
        .receipts()
        .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
        .count();
    (winners, reverted)
}

#[test]
fn front_runner_steals_the_last_slot() {
    let (winners, reverted) = race_winners(0x5eed);
    assert_eq!(winners.len(), 3, "the task fills exactly");
    assert!(
        winners.contains(&Address::from_byte(0xaa)),
        "the front-runner must win the race under its policy"
    );
    assert!(
        !winners.contains(&Address::from_byte(3)),
        "the honest straggler lost the slot"
    );
    // The loser's commit reverted with TaskFull — it was delivered, not
    // dropped.
    assert_eq!(reverted, 1);
}

#[test]
fn race_outcome_is_deterministic_under_a_fixed_seed() {
    let a = race_winners(0x1234);
    let b = race_winners(0x1234);
    assert_eq!(a.0, b.0, "same seed, same winners");
    assert_eq!(a.1, b.1, "same seed, same revert count");
    // Under honest FIFO (no front-running) the straggler keeps the slot:
    // same submissions, different policy, different outcome.
    let mut f = fixture(0x1234);
    let honest: Vec<Address> = (1..=3).map(Address::from_byte).collect();
    let attacker = Address::from_byte(0xaa);
    for (i, w) in honest[..2].iter().enumerate() {
        let msg = commit_msg(&mut f.rng, i as u8);
        f.chain.submit(*w, msg);
    }
    f.chain.advance_round_fifo();
    let msg = commit_msg(&mut f.rng, 10);
    f.chain.submit(honest[2], msg);
    let msg = commit_msg(&mut f.rng, 11);
    f.chain.submit(attacker, msg);
    f.chain.advance_round(&mut FifoPolicy);
    let winners = task(&f.chain).committed_workers().to_vec();
    assert!(winners.contains(&honest[2]));
    assert!(!winners.contains(&attacker));
}

#[test]
fn full_block_defers_pending_txs_instead_of_dropping() {
    let Fixture { mut rng, chain } = fixture(0xcafe);
    // Cap blocks so roughly one commit (~47k gas) fits per block.
    let mut chain = chain.with_block_gas_limit(60_000);
    let workers: Vec<Address> = (1..=3).map(Address::from_byte).collect();
    for (i, w) in workers.iter().enumerate() {
        let msg = commit_msg(&mut rng, i as u8);
        chain.submit(*w, msg);
    }
    // First capped block: one commit lands, two defer into the mempool.
    let block = chain.advance_round_fifo();
    assert_eq!(block.receipts.len(), 1);
    assert_eq!(chain.mempool_len(), 2, "overflow must defer, not drop");
    chain.advance_round_fifo();
    assert_eq!(chain.mempool_len(), 1);
    chain.advance_round_fifo();
    assert_eq!(chain.mempool_len(), 0);
    // All three eventually committed, in submission order.
    let committed = task(&chain).committed_workers().to_vec();
    assert_eq!(committed, workers);
    assert_eq!(task(&chain).phase(), Phase::Reveal);
    // Nothing was lost to the cap: every submitted commit has a receipt.
    let commit_receipts = chain.receipts().filter(|r| r.label == "commit").count();
    assert_eq!(commit_receipts, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Worker churn under a front-running scheduler never strands
    /// escrow: departures mid-round (a worker that committed but left
    /// before revealing) settle as `⊥` and their shares flow back to
    /// the requester. Across random seeds and departure rates, every
    /// HIT settles, every instance escrow drains to zero, the ledger
    /// conserves total supply, and each budget splits exactly into
    /// worker rewards plus requester refunds.
    #[test]
    fn churn_under_front_running_never_strands_escrow(
        seed in 1u64..400,
        depart_pct in 10u32..40,
    ) {
        const HITS: usize = 10;
        const BUDGET_PER_HIT: u128 = 3_000;
        let config = MarketConfig {
            hits: HITS,
            spawn_per_block: 2,
            workers: 12,
            worker_capacity: 3,
            budget: BUDGET_PER_HIT,
            max_blocks: 500,
            seed,
            econ: Some(EconConfig {
                churn: Some(ChurnParams {
                    join_rate: 0.3,
                    depart_rate: depart_pct as f64 / 100.0,
                    max_events_per_block: 2,
                    min_pool: 4,
                    max_pool: 64,
                }),
                ..EconConfig::default()
            }),
            ..MarketConfig::default()
        };
        let minted = BUDGET_PER_HIT * HITS as u128;
        let (report, chain, _) = MarketSim::new(config)
            .with_policy(Box::new(FrontRunPolicy::new(worker_addr(0))))
            .run_keeping_net();
        prop_assert_eq!(report.hits_unfinished, 0, "the horizon must drain");
        prop_assert_eq!(report.hits_published, HITS);
        // Conservation: churn and front-running move coins, never
        // destroy them.
        prop_assert_eq!(chain.ledger.total_supply(), minted);
        // No stranded escrow: every instance settled and drained.
        for id in chain.contract().hit_ids() {
            let hit = chain.contract().hit(id).expect("listed instance exists");
            prop_assert!(hit.is_settled(), "hit #{} left open", id);
            let escrow = chain.contract().hit_address(id).unwrap();
            prop_assert_eq!(
                chain.ledger.balance(&escrow),
                0,
                "hit #{} stranded coins in escrow",
                id
            );
        }
        // Every frozen budget split exactly into rewards + refunds.
        prop_assert_eq!(
            report.rewards_paid + report.refunds,
            BUDGET_PER_HIT * report.hits_published as u128
        );
        let econ = report.econ.expect("churn implies econ on");
        prop_assert!(
            econ.workers_departed > 0 || econ.workers_joined > 0,
            "churn must actually fire for the invariant to mean anything"
        );
    }
}
