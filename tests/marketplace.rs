//! Marketplace-engine integration tests: a few hundred concurrent HITs
//! over one gas-capped chain, batched-vs-per-proof settlement
//! equivalence, and bit-exact reproducibility from a seed.

use dragoon_chain::{FifoPolicy, FrontRunPolicy, ReorderPolicy, ReversePolicy};
use dragoon_contract::{RegistryEvent, RegistryMessage, SettlementMode};
use dragoon_core::workload::AnswerModel;
use dragoon_econ::{ChurnParams, EconConfig, PricingParams};
use dragoon_protocol::{requester_addr, worker_addr, WorkerBehavior};
use dragoon_sim::{run_market, MarketConfig, MarketReport, MarketSim};

/// Runs a market with every round scheduled by `policy`.
fn run_under(
    config: MarketConfig,
    policy: Box<dyn ReorderPolicy<RegistryMessage>>,
) -> MarketReport {
    MarketSim::new(config).with_policy(policy).run()
}

/// A market sized to the acceptance criterion: ≥200 HITs racing through
/// one chain under a block gas cap.
fn big_config() -> MarketConfig {
    MarketConfig {
        hits: 220,
        spawn_per_block: 12,
        workers: 80,
        worker_capacity: 5,
        seed: 0xa11ce,
        max_blocks: 900,
        ..MarketConfig::default()
    }
}

#[test]
fn two_hundred_concurrent_hits_settle_under_gas_cap() {
    let report = run_market(big_config());
    assert_eq!(report.hits_published, 220);
    assert_eq!(
        report.hits_unfinished, 0,
        "every HIT must settle or cancel within the horizon"
    );
    assert!(
        report.hits_settled >= 180,
        "most HITs must fill and settle (settled {})",
        report.hits_settled
    );
    // The cap was respected by every block.
    let limit = report.block_gas_limit.unwrap();
    for b in &report.block_stats {
        assert!(
            b.gas_used <= limit,
            "block {} used {} > limit {}",
            b.height,
            b.gas_used,
            limit
        );
    }
    // Batched mode actually batched.
    assert!(report.batch.batches > 0);
    assert!(report.batch.items > 0);
    // Settlement latency is bounded by the phase windows plus queueing.
    assert!(report.latency_mean_blocks > 0.0);
    assert!(report.latency_max_blocks < 80);
    // Money flowed.
    assert!(report.workers_paid > 300, "paid {}", report.workers_paid);
    assert!(report.rewards_paid > 0);
    // JSON renders and carries the headline numbers.
    let json = report.to_json();
    assert!(json.contains("\"hits_published\":220"));
    assert!(json.contains("\"settlement\":\"batched\""));
}

/// The acceptance-criterion equivalence: same seed, same scenario, one
/// run verifying per proof and one through the batched path — every
/// HIT must settle its workers identically.
#[test]
fn batched_settlement_verdicts_equal_per_proof() {
    // Capacity is deliberately generous: verdict *timing* differs by one
    // block between modes, and scarce capacity would let that shift
    // which workers join later HITs.
    let base = MarketConfig {
        hits: 40,
        spawn_per_block: 6,
        workers: 60,
        worker_capacity: 40,
        behavior_mix: vec![
            (
                WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.9 }),
                3,
            ),
            (
                WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.1 }),
                2,
            ),
            (WorkerBehavior::Honest(AnswerModel::OutOfRange), 1),
            (WorkerBehavior::CommitNoReveal, 1),
        ],
        seed: 0xe0_0001,
        ..MarketConfig::default()
    };
    let report_a = run_market(MarketConfig {
        settlement: SettlementMode::PerProof,
        ..base.clone()
    });
    let report_b = run_market(MarketConfig {
        settlement: SettlementMode::Batched,
        ..base
    });

    assert_eq!(report_a.hits_published, report_b.hits_published);
    assert_eq!(report_a.hits_settled, report_b.hits_settled);
    assert_eq!(report_a.hits_cancelled, report_b.hits_cancelled);
    assert_eq!(report_a.workers_paid, report_b.workers_paid);
    assert_eq!(report_a.workers_rejected, report_b.workers_rejected);
    assert_eq!(report_a.rewards_paid, report_b.rewards_paid);
    assert_eq!(report_a.refunds, report_b.refunds);
    assert_eq!(report_a.answers_collected, report_b.answers_collected);
    assert!(report_a.answers_collected > 0);
    // Per-HIT outcomes (paid/rejected/no-reveal counts) must match 1:1.
    assert_eq!(report_a.outcomes.len(), report_b.outcomes.len());
    for (a, b) in report_a.outcomes.iter().zip(&report_b.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.paid, b.paid, "hit {}", a.id);
        assert_eq!(a.rejected, b.rejected, "hit {}", a.id);
        assert_eq!(a.no_reveal, b.no_reveal, "hit {}", a.id);
        assert_eq!(a.cancelled, b.cancelled, "hit {}", a.id);
    }
    // Something was actually rejected in this mix, and only the batched
    // run dispatched batches.
    assert!(report_a.workers_rejected > 0);
    assert_eq!(report_a.batch.batches, 0);
    assert!(report_b.batch.batches > 0);
}

/// The CI-speed scale smoke: 1 000 HITs through one registry — the
/// journaled state layer keeps this tractable (the old whole-state clone
/// per transaction was quadratic in live instances). Lightweight tasks
/// (4 questions, 2 golds) keep the crypto cost down; the point is the
/// engine and state layer, not the proofs.
#[test]
fn one_thousand_hit_smoke() {
    let report = run_market(MarketConfig {
        hits: 1_000,
        spawn_per_block: 25,
        workers: 400,
        worker_capacity: 8,
        questions: 4,
        golds: 2,
        k: 3,
        theta: 2,
        seed: 0x1000,
        // 25 Creates/block alone cost ~32M gas; a mainnet-sized 30M cap
        // would congest the mempool until reveals miss their phase
        // windows, so the scale smoke runs with roomier blocks.
        block_gas_limit: Some(100_000_000),
        max_blocks: 1_200,
        ..MarketConfig::default()
    });
    assert_eq!(report.hits_published, 1_000);
    assert_eq!(
        report.hits_unfinished, 0,
        "every HIT must settle or cancel within the horizon"
    );
    assert!(
        report.hits_settled >= 900,
        "most HITs must fill and settle (settled {})",
        report.hits_settled
    );
    assert!(report.workers_paid > 1_000, "paid {}", report.workers_paid);
    let limit = report.block_gas_limit.unwrap();
    assert!(report.gas_per_block_max <= limit);
}

#[test]
fn same_seed_reproduces_identical_reports() {
    let cfg = MarketConfig {
        hits: 25,
        workers: 30,
        seed: 0x5eed,
        ..MarketConfig::default()
    };
    let a = run_market(cfg.clone());
    let b = run_market(cfg.clone());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.blocks, b.blocks);
    // A different seed produces a genuinely different trajectory.
    let c = run_market(MarketConfig {
        seed: 0x5eed + 1,
        ..cfg
    });
    assert_ne!(a.to_json(), c.to_json());
}

/// Under the reversing mempool every block's `Create`s execute in
/// reverse, so the registry hands out ids against publish order: the
/// engine's per-HIT table must follow the id each `Created` event
/// carries. Every HIT still settles, and the report does not depend on
/// the thread budget.
#[test]
fn reverse_policy_market_settles_and_is_thread_count_independent() {
    let config = |exec_threads| MarketConfig {
        hits: 40,
        seed: 0x7e7,
        exec_threads,
        ..MarketConfig::default()
    };
    let (report, chain, _) = MarketSim::new(config(1))
        .with_policy(Box::new(ReversePolicy))
        .run_keeping_net();
    let displaced = chain
        .events()
        .iter()
        .filter(|(_, event)| match event {
            RegistryEvent::Created { id, requester, .. } => *requester != requester_addr(*id),
            RegistryEvent::Hit { .. } => false,
        })
        .count();
    assert_eq!(displaced, 40, "8 reversed creates a block: no id stays put");
    assert_eq!(report.hits_published, 40);
    assert_eq!(report.hits_settled + report.hits_cancelled, 40);
    assert_eq!(report.hits_unfinished, 0);
    assert!(report.hits_settled > 0 && report.workers_paid > 0);
    assert_eq!(
        report.to_json(),
        run_under(config(4), Box::new(ReversePolicy)).to_json()
    );
}

/// The traffic the executor's recovery paths were chosen on. Its one
/// validation failure path is "redo the whole batch serially", which is
/// only sound as a design while markets never take it: under every
/// scheduling policy, overbooked or not, econ layer on or off, a
/// four-thread market commits its batches optimistically with no
/// fallback, and its only barriers are its `Create`s (each lands, so
/// they number the published HITs). An engine change that starts
/// conflicting, or routing to unknown ids, fails here instead of
/// quietly going serial.
#[test]
fn seeded_markets_never_reach_the_serial_backstop() {
    let base = MarketConfig {
        hits: 60,
        workers: 40,
        seed: 0x7aff1c,
        exec_threads: 4,
        ..MarketConfig::default()
    };
    let overbooked = MarketConfig {
        overbook: 3,
        ..base.clone()
    };
    let markets: [(_, _, Box<dyn ReorderPolicy<RegistryMessage>>); 4] = [
        ("default", base.clone(), Box::new(FifoPolicy)),
        (
            "front-run, overbooked",
            overbooked.clone(),
            Box::new(FrontRunPolicy::new(worker_addr(0))),
        ),
        ("reverse, overbooked", overbooked, Box::new(ReversePolicy)),
        (
            "econ",
            MarketConfig {
                econ: Some(EconConfig {
                    pricing: Some(PricingParams::default()),
                    churn: Some(ChurnParams::default()),
                    reservation_wages: true,
                    cartel_requesters: 12,
                    sybil_workers: 4,
                    ..EconConfig::default()
                }),
                ..base
            },
            Box::new(FifoPolicy),
        ),
    ];
    for (name, config, policy) in markets {
        let report = run_under(config, policy);
        let stats = report.parallel;
        assert!(stats.parallel_txs > 0, "{name}: {stats:?}");
        assert_eq!(stats.barriers, report.hits_published, "{name}: {stats:?}");
        assert_eq!(stats.conflict_fallbacks, 0, "{name}: {stats:?}");
    }
}

/// The recovery that does have traffic: with a block gas cap small
/// enough that blocks fill, batches are cut mid-way and the groups that
/// fit commit as the block's prefix.
#[test]
fn gas_saturated_market_commits_group_prefixes() {
    let report = run_market(MarketConfig {
        hits: 60,
        workers: 40,
        seed: 0x7aff1c,
        exec_threads: 4,
        block_gas_limit: Some(4_000_000),
        max_blocks: 900,
        ..MarketConfig::default()
    });
    let stats = report.parallel;
    assert_eq!(report.hits_unfinished, 0);
    assert!(stats.gas_prefix_commits >= 1, "{stats:?}");
    assert_eq!(stats.conflict_fallbacks, 0, "{stats:?}");
}

#[test]
fn front_runner_policy_keeps_market_live() {
    let report = run_under(
        MarketConfig {
            hits: 20,
            workers: 25,
            overbook: 2,
            seed: 0xf407,
            ..MarketConfig::default()
        },
        Box::new(FrontRunPolicy::new(worker_addr(0))),
    );
    assert_eq!(report.hits_unfinished, 0);
    assert!(report.hits_settled > 0);
    // Overbooked slots mean some commits lost the race and reverted.
    assert!(report.reverted_txs > 0);
}

#[test]
fn scarce_workers_drop_unfillable_tasks() {
    // 30 tasks needing 3 workers each, but a pool of 6 with capacity 1:
    // most tasks cannot fill within the commit window and must cancel
    // with a full refund — never hang.
    let report = run_market(MarketConfig {
        hits: 30,
        spawn_per_block: 10,
        workers: 6,
        worker_capacity: 1,
        seed: 0xd20b,
        ..MarketConfig::default()
    });
    assert_eq!(report.hits_unfinished, 0);
    assert!(report.hits_cancelled > 0, "scarcity must cancel some tasks");
    // Cancelled budgets came back in full: refunds cover at least the
    // cancelled tasks' budgets.
    assert!(report.refunds >= report.hits_cancelled as u128 * 3_000);
}

#[test]
fn zero_accuracy_workers_get_rejected_with_poqoea() {
    let report = run_market(MarketConfig {
        hits: 30,
        workers: 40,
        worker_capacity: 30,
        behavior_mix: vec![
            (
                WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 1.0 }),
                2,
            ),
            (
                WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.0 }),
                1,
            ),
        ],
        seed: 0xbadc0de,
        ..MarketConfig::default()
    });
    assert_eq!(report.hits_unfinished, 0);
    assert!(
        report.workers_rejected > 0,
        "zero-accuracy workers must be rejected with PoQoEA"
    );
    let rejected_total: usize = report.outcomes.iter().map(|o| o.rejected).sum();
    assert_eq!(rejected_total, report.workers_rejected);
}
