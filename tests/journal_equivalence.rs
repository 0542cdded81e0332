//! Journal-equivalence differential tests.
//!
//! The chain's revert atomicity is the journaled state layer (undo logs
//! in ledger, contract and registry). These tests pin its contract:
//! **journaled execution is bit-identical to the naïve clone-per-
//! transaction reference executor** (`tests/support`) — receipts,
//! events, balances, verdicts and full contract state — across random
//! transaction sequences, mid-block gas-cap rollback, front-runner
//! contention and whole-market runs, and the reference itself is shown
//! to catch a journal that forgets a field.

mod support;

use dragoon_chain::store::read_log;
use dragoon_chain::{Chain, FifoPolicy, FrontRunPolicy, GasSchedule, ReorderPolicy, TxStatus};
use dragoon_contract::{HitMessage, RegistryMessage, SettlementMode};
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_ledger::Address;
use dragoon_protocol::worker_addr;
use dragoon_sim::{MarketConfig, MarketReport, MarketSim, PersistConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{
    assert_same_committed_state, committed_state_diff, ChainSet, Fixture, Leaky, LeakyMsg, RefChain,
};

/// Advances the production chain(s) and the reference one round under
/// `policy`. Production goes through the parallel entry point, which is
/// the serial path at one thread.
fn advance_all(set: &mut ChainSet, policy: &mut dyn ReorderPolicy<RegistryMessage>) {
    for chain in &mut set.production {
        chain.advance_round_parallel(policy);
    }
    set.reference.run_round(policy);
}

/// Random transaction soup: a deliberately messy mix of valid creates,
/// commits, premature finalizes/cancels, unknown-instance routes and
/// duplicate commitments — most of which revert — replayed against the
/// journaled chain and the reference round by round.
#[test]
fn random_tx_sequences_matches_reference() {
    for seed in [1u64, 7, 0xfeed] {
        let fx = Fixture::new(seed);
        let mut set = fx.chain_set(SettlementMode::PerProof, None, &[1]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        for round in 0..12 {
            let txs = rng.gen_range(1..6u32);
            for _ in 0..txs {
                let created = set.production[0].contract().len() as u64;
                match rng.gen_range(0..7u32) {
                    0 => set.submit(fx.requester, fx.create_msg()),
                    // Unfunded create: reverts at the ledger freeze.
                    1 => set.submit(Address::from_byte(0x99), fx.create_msg()),
                    2 if created > 0 => {
                        // A commit; may duplicate a previous commitment
                        // (copy-and-paste defence) or hit a full task.
                        let id = rng.gen_range(0..created);
                        let w = Address::from_byte(rng.gen_range(1..7u32) as u8);
                        let tag = if rng.gen_range(0..3u32) == 0 {
                            0 // deliberately reused payload → duplicate
                        } else {
                            rng.gen_range(0..1000u32)
                        };
                        let key = CommitmentKey([7u8; 32]);
                        let comm = Commitment::commit(&tag.to_le_bytes(), &key);
                        set.submit(
                            w,
                            RegistryMessage::Hit {
                                id,
                                msg: HitMessage::Commit { commitment: comm },
                            },
                        );
                    }
                    3 if created > 0 => {
                        // Premature finalize: wrong phase or too early.
                        let id = rng.gen_range(0..created);
                        set.submit(
                            fx.requester,
                            RegistryMessage::Hit {
                                id,
                                msg: HitMessage::Finalize,
                            },
                        );
                    }
                    4 if created > 0 => {
                        let id = rng.gen_range(0..created);
                        set.submit(
                            fx.requester,
                            RegistryMessage::Hit {
                                id,
                                msg: HitMessage::Cancel,
                            },
                        );
                    }
                    5 => {
                        // Route to an instance that does not exist.
                        set.submit(
                            fx.requester,
                            RegistryMessage::Hit {
                                id: 999,
                                msg: HitMessage::Finalize,
                            },
                        );
                    }
                    _ => {
                        // Golden opening in the wrong phase: reverts.
                        let id = rng.gen_range(0..created.max(1));
                        set.submit(
                            fx.requester,
                            RegistryMessage::Hit {
                                id,
                                msg: HitMessage::Golden {
                                    golden: fx.golden.clone(),
                                    key: fx.gs_key,
                                },
                            },
                        );
                    }
                }
            }
            advance_all(&mut set, &mut FifoPolicy);
            set.assert_same(&format!("seed {seed} round {round}"));
        }
        // The soup must actually have exercised the revert path.
        let reverted = set.production[0]
            .receipts()
            .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
            .count();
        assert!(reverted > 5, "seed {seed}: only {reverted} reverts");
    }
}

/// Mid-block gas-cap rollback: Create transactions cost ~1.3M gas, so a
/// 2M-gas block fits exactly one — every round a *successful* speculative
/// execution must be rolled back out of the overfull block and carried.
#[test]
fn gas_cap_overflow_rollback_matches_reference() {
    let fx = Fixture::new(42);
    let mut set = fx.chain_set(SettlementMode::PerProof, Some(2_000_000), &[1]);
    for _ in 0..5 {
        set.submit(fx.requester, fx.create_msg());
    }
    for round in 0..6 {
        advance_all(&mut set, &mut FifoPolicy);
        set.assert_same(&format!("overflow round {round}"));
    }
    let chain = &set.production[0];
    assert_eq!(chain.contract().len(), 5, "all creates eventually landed");
    // Each of the first five blocks carried exactly one create.
    for block in &chain.blocks()[..5] {
        assert_eq!(block.receipts.len(), 1, "block {}", block.round);
    }
}

/// The same mid-block overflow discipline under the **parallel**
/// executor: a journaled chain running 4 executor threads against the
/// serial clone-per-transaction reference. Oversized creates land alone
/// through the serial-barrier path; the commit batch that follows spans
/// two instances and is cut by the 100k cap mid-batch, so the executor
/// must discard its optimistic results and reproduce the serial
/// carry-over exactly.
#[test]
fn gas_cap_overflow_rollback_parallel_matches_reference() {
    let fx = Fixture::new(43);
    let mut set = fx.chain_set(SettlementMode::PerProof, Some(100_000), &[4]);
    set.submit(fx.requester, fx.create_msg());
    set.submit(fx.requester, fx.create_msg());
    for round in 0..2 {
        advance_all(&mut set, &mut FifoPolicy);
        set.assert_same(&format!("parallel create round {round}"));
    }
    assert_eq!(set.production[0].contract().len(), 2);
    // Six commits alternating between the two instances: ~46k gas each,
    // so a 100k block fits two and the parallel batch is cut mid-way.
    for w in 1..=6u8 {
        let key = CommitmentKey([w; 32]);
        let comm = Commitment::commit(&[w], &key);
        set.submit(
            Address::from_byte(w),
            RegistryMessage::Hit {
                id: (w % 2) as u64,
                msg: HitMessage::Commit { commitment: comm },
            },
        );
    }
    for round in 0..4 {
        advance_all(&mut set, &mut FifoPolicy);
        set.assert_same(&format!("parallel overflow round {round}"));
    }
    let chain = &set.production[0];
    assert_eq!(chain.mempool_len(), 0, "every commit eventually landed");
    assert!(
        chain.parallel_stats().gas_fallbacks >= 1,
        "the cut batch must have fallen back: {:?}",
        chain.parallel_stats()
    );
}

/// Front-runner contention under a gas cap: the designated front-runner
/// jumps the queue every round while overbooked commits race for slots,
/// producing both reverts (TaskFull, duplicates) and carried spill-over.
#[test]
fn front_runner_contention_matches_reference() {
    let fx = Fixture::new(0xf407);
    let mut set = fx.chain_set(SettlementMode::Batched, Some(4_000_000), &[1]);
    let mut policy = FrontRunPolicy::new(Address::from_byte(1));
    set.submit(fx.requester, fx.create_msg());
    set.submit(fx.requester, fx.create_msg());
    let mut rng = StdRng::seed_from_u64(0xf407);
    for round in 0..10 {
        // Everybody (including the front-runner) races commits at both
        // instances; k = 3, so later commits revert with TaskFull.
        for w in 1..=5u8 {
            let id = rng.gen_range(0..2u64);
            let key = CommitmentKey([w; 32]);
            let comm = Commitment::commit(&[w, round as u8], &key);
            set.submit(
                Address::from_byte(w),
                RegistryMessage::Hit {
                    id,
                    msg: HitMessage::Commit { commitment: comm },
                },
            );
        }
        advance_all(&mut set, &mut policy);
        set.assert_same(&format!("front-run round {round}"));
    }
    let reverted = set.production[0]
        .receipts()
        .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
        .count();
    assert!(reverted > 0, "contention must produce reverts");
}

/// Regression: a failing transaction leaves the registry, the ledger and
/// the event logs exactly untouched under the journal.
#[test]
fn failing_tx_leaves_state_untouched() {
    let fx = Fixture::new(3);
    let mut chain = fx.chain(SettlementMode::PerProof, None, 1);
    chain.submit(fx.requester, fx.create_msg());
    chain.advance_round_fifo();

    let registry_before = chain.contract().clone();
    let ledger_before = chain.ledger.clone();
    let chain_events_before = chain.events().len();

    // Three reverting transactions: unfunded create, unknown instance,
    // wrong-phase golden opening.
    chain.submit(Address::from_byte(0x99), fx.create_msg());
    chain.submit(
        fx.requester,
        RegistryMessage::Hit {
            id: 42,
            msg: HitMessage::Finalize,
        },
    );
    chain.submit(
        fx.requester,
        RegistryMessage::Hit {
            id: 0,
            msg: HitMessage::Golden {
                golden: fx.golden.clone(),
                key: fx.gs_key,
            },
        },
    );
    chain.advance_round_fifo();

    let reverted = chain
        .receipts()
        .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
        .count();
    assert_eq!(reverted, 3, "all three must revert");
    assert_eq!(
        chain.contract(),
        &registry_before,
        "registry state must be untouched"
    );
    assert_eq!(chain.ledger, ledger_before, "ledger must be untouched");
    assert_eq!(
        chain.events().len(),
        chain_events_before,
        "no contract events may leak from reverted transactions"
    );
}

/// Runs `config` under `policy` with a synchronous block store, then
/// replays the persisted block records — landed transactions in log
/// order — through the reference from the market's own genesis, and
/// asserts the chain the market ended with holds the reference's
/// committed state.
fn market_matches_reference(
    config: MarketConfig,
    policy: Box<dyn ReorderPolicy<RegistryMessage>>,
    tag: &str,
) -> MarketReport {
    let dir = std::env::temp_dir().join(format!("dragoon-jeq-{}-{tag}", std::process::id()));
    let sim = MarketSim::new(MarketConfig {
        exec_threads: 4,
        persist: Some(PersistConfig::new(dir.clone())),
        ..config
    })
    .with_policy(policy);
    let mut reference = RefChain::at_genesis_of(sim.chain(), None);
    let (report, chain, _) = sim.run_keeping_net();
    let records = read_log::<RegistryMessage>(&dir).expect("block log must read back");
    assert_eq!(
        records.len(),
        chain.blocks().len(),
        "{tag}: one record per block"
    );
    for record in records {
        reference.run_landed(record.txs);
    }
    assert_eq!(
        chain.mempool_len(),
        0,
        "{tag}: a finished market has nothing pending"
    );
    assert_same_committed_state(&chain, &reference, tag);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Whole-market differential: the same seeded marketplace scenario —
/// batched settlement, gas-capped blocks, worker noise, PoQoEA
/// rejections, cancellations — must leave the journaled chain in exactly
/// the state the reference reaches from the same landed transactions.
#[test]
fn market_run_journal_equals_clone() {
    let report = market_matches_reference(
        MarketConfig {
            hits: 30,
            spawn_per_block: 6,
            workers: 25,
            worker_capacity: 4,
            seed: 0x10a1,
            ..MarketConfig::default()
        },
        Box::new(FifoPolicy),
        "fifo",
    );
    assert_eq!(report.hits_published, 30);
    assert!(report.workers_rejected > 0 || report.hits_cancelled > 0);
}

/// The same differential under an adversarial front-running scheduler.
#[test]
fn market_run_front_run_journal_equals_clone() {
    let report = market_matches_reference(
        MarketConfig {
            hits: 15,
            workers: 20,
            overbook: 2,
            seed: 0xab,
            ..MarketConfig::default()
        },
        Box::new(FrontRunPolicy::new(worker_addr(0))),
        "front-run",
    );
    assert!(report.reverted_txs > 0, "overbooking must cause reverts");
}

/// The oracle has teeth: a state machine whose `rollback_tx` forgets one
/// field diverges from the reference on a reverting transaction and on a
/// successful transaction carried out of an overfull block — and agrees
/// with it as long as nothing rolls back.
#[test]
fn reference_catches_a_leaky_rollback() {
    let run = |gas_limit: Option<u64>, msgs: &[LeakyMsg]| {
        let mut chain = Chain::deploy(Leaky::default(), 1000, GasSchedule::istanbul());
        let mut reference = RefChain::at_genesis_of(&chain, gas_limit);
        if let Some(limit) = gas_limit {
            chain = chain.with_block_gas_limit(limit);
        }
        for msg in msgs {
            chain.submit(Address::from_byte(1), msg.clone());
            reference.submit(Address::from_byte(1), msg.clone());
        }
        chain.advance_round(&mut FifoPolicy);
        reference.run_round(&mut FifoPolicy);
        (committed_state_diff(&chain, &reference), chain)
    };
    let adds = [LeakyMsg::Add(1), LeakyMsg::Add(2)];
    assert_eq!(run(None, &adds).0, None, "no rollback, no divergence");
    let (diff, chain) = run(None, &[LeakyMsg::Add(1), LeakyMsg::Fail]);
    assert_eq!(
        diff,
        Some("contract state"),
        "a revert must expose the leak"
    );
    assert_eq!((chain.contract().total, chain.contract().calls), (1, 2));
    // Each call costs ~26k gas: a 30k block fits one, the second is
    // rolled back out of the block and carried.
    let (diff, chain) = run(Some(30_000), &adds);
    assert_eq!(
        diff,
        Some("contract state"),
        "a gas-cap carry must expose the leak"
    );
    assert_eq!(chain.mempool_len(), 1);
}
