//! The econ-layer integration suite: determinism, convergence and
//! adversary extraction for the `dragoon-econ` market-economics
//! subsystem, end to end through the marketplace engine.
//!
//! * **Thread-count determinism** — a fully loaded econ market
//!   (reputation ordering + gating, dynamic pricing, churn, cartel and
//!   sybils) produces byte-identical market *and* econ JSON at 1, 2 and
//!   8 executor threads: reputation ordering, price paths and churn are
//!   functions of committed chain state only.
//! * **Observe-only differential** — passive econ changes nothing; the
//!   market report is byte-identical to an econ-disabled run (the same
//!   differential the throughput bench prices overhead with).
//! * **Pricing convergence** — against a reservation-wage worker pool,
//!   a market opened underpriced discovers a clearing price: the
//!   windowed fill rate ends inside the tolerance band and the price
//!   lifts off its floor without pinning to the ceiling.
//! * **Cartel extraction** — a golden-withholding cartel (strict θ,
//!   off-chain pre-evaluation) pushes honest-worker payout measurably
//!   below the honest baseline and claws the difference back as
//!   refunds, byte-identically at 1, 2 and 8 threads.
//! * **Sybil farming** — reputation-farming sybils ride farmed scores
//!   into defection; the metrics record both the extraction and the
//!   proof-backed rejections that answer it.
//!
//! Every test names its thread budget: the properties that are not
//! themselves a thread-count comparison hold at each of [`THREADS`].

use dragoon_core::workload::AnswerModel;
use dragoon_econ::{ChurnParams, EconConfig, PricingParams, ReputationParams};
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{run_market, MarketConfig, MarketReport};

/// The budgets a single-budget property is checked at: the serial
/// everything, a real pool, and an oversubscribed one.
const THREADS: [usize; 3] = [1, 4, 8];

/// Runs `config` at a budget of `threads`.
fn run_at(config: &MarketConfig, threads: usize) -> MarketReport {
    run_market(MarketConfig {
        exec_threads: threads,
        ..config.clone()
    })
}

/// A fully loaded econ scenario: every feature on at once.
fn full_econ_config(seed: u64) -> MarketConfig {
    MarketConfig {
        hits: 30,
        spawn_per_block: 2,
        workers: 24,
        worker_capacity: 4,
        seed,
        max_blocks: 500,
        econ: Some(EconConfig {
            pricing: Some(PricingParams {
                initial: 1_200,
                min: 600,
                max: 12_000,
            }),
            churn: Some(ChurnParams::default()),
            reservation_wages: true,
            cartel_requesters: 6,
            sybil_workers: 4,
            ..EconConfig::default()
        }),
        ..MarketConfig::default()
    }
}

/// Reputation ordering (and every other econ input) is deterministic
/// across executor thread counts: the serial baseline and the 2- and
/// 8-thread runs must produce byte-identical market and econ JSON.
#[test]
fn econ_market_identical_across_thread_counts() {
    let mut base = full_econ_config(0xec01);
    // `full_econ_config` opens at 1 200 against reservation wages of
    // 0.6–1.4 × the 3 000 default budget, so every commit is declined
    // and no HIT fills. Price this market inside the wage spread: some
    // workers decline, the rest fill every HIT, and the comparison
    // covers evaluation, cartel rejections and settlement.
    base.econ.as_mut().expect("econ on").pricing = Some(PricingParams {
        initial: 3_600,
        min: 3_000,
        max: 12_000,
    });
    let serial = run_at(&base, 1);
    let econ = serial.econ.as_ref().expect("econ layer must be live");
    assert!(serial.hits_published > 0);
    assert!(
        econ.hits_filled > 0,
        "no HIT filled: {}",
        serial.section_json("econ")
    );
    assert!(
        serial.hits_settled > 0,
        "no HIT settled: {}",
        serial.to_json()
    );
    for threads in [2, 8] {
        let parallel = run_at(&base, threads);
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "market reports must be identical at {threads} threads"
        );
        assert_eq!(
            serial.section_json("econ"),
            parallel.section_json("econ"),
            "econ reports (reputation ordering, prices, churn) must be \
             identical at {threads} threads"
        );
    }
}

/// The same seed twice is the same market: the whole econ layer —
/// including the churn process's private RNG stream — replays exactly,
/// at every budget.
#[test]
fn econ_market_reproducible_for_a_seed() {
    let config = full_econ_config(0xec02);
    let a = run_at(&config, 1);
    for threads in THREADS {
        let b = run_at(&config, threads);
        assert_eq!(a.to_json(), b.to_json(), "{threads} threads");
        assert_eq!(
            a.section_json("econ"),
            b.section_json("econ"),
            "{threads} threads"
        );
    }
}

/// Passive (observe-only) econ influences nothing: the market report is
/// byte-identical to an econ-disabled run, while the reputation book
/// still absorbed every settlement receipt.
#[test]
fn observe_only_econ_matches_disabled() {
    let base = MarketConfig {
        hits: 25,
        workers: 20,
        seed: 0xec03,
        ..MarketConfig::default()
    };
    let observed = MarketConfig {
        econ: Some(EconConfig::observe_only()),
        ..base.clone()
    };
    for threads in THREADS {
        let off = run_at(&base, threads);
        let on = run_at(&observed, threads);
        assert_eq!(
            off.to_json(),
            on.to_json(),
            "observe-only econ must not change the market at {threads} threads"
        );
        let econ = on.econ.expect("layer reports in observe-only mode");
        assert!(econ.rep_receipts > 0, "receipts still feed the book");
        assert_eq!(econ.gated_commits, 0);
        assert_eq!(econ.declined_commits, 0);
        assert!(off.econ.is_none());
    }
}

/// Dynamic pricing converges against reservation-wage supply: opened
/// well under the pool's wage spread, the controller raises `B` until
/// the market clears and ends with the windowed fill rate inside the
/// tolerance band, off the floor and off the ceiling.
#[test]
fn dynamic_pricing_converges_to_a_clearing_band() {
    let config = MarketConfig {
        hits: 70,
        spawn_per_block: 1,
        workers: 40,
        worker_capacity: 4,
        seed: 0xec04,
        max_blocks: 800,
        econ: Some(EconConfig {
            // No gating/ordering noise: isolate the price↔supply loop.
            reputation: ReputationParams { steer: false },
            pricing: Some(PricingParams {
                initial: 900,
                min: 600,
                max: 24_000,
            }),
            reservation_wages: true,
            ..EconConfig::default()
        }),
        ..MarketConfig::default()
    };
    for threads in THREADS {
        let report = run_at(&config, threads);
        assert_eq!(report.hits_unfinished, 0, "the horizon must drain");
        let econ = report.econ.expect("econ on");
        assert!(
            econ.price_adjustments > 0,
            "the controller must actually steer"
        );
        assert!(
            econ.price_final > 900,
            "underpriced opening must be corrected upward (final {}, {threads} threads)",
            econ.price_final
        );
        assert!(
            econ.price_final < 24_000,
            "the price must not pin to the ceiling"
        );
        assert!(
            econ.fill_rate_recent >= 0.7,
            "the windowed fill rate must end inside the tolerance band \
             (got {:.3}, {threads} threads)",
            econ.fill_rate_recent
        );
        assert!(
            econ.declined_commits > 0,
            "reservation wages must bite for the loop to mean anything"
        );
    }
}

/// The golden-withholding cartel extracts from honest workers: with the
/// same seed and scenario, turning every requester into a cartel member
/// (strict θ = |G|, off-chain pre-evaluation, withheld goldens on clean
/// HITs) lowers the honest-worker payout measurably below the honest
/// baseline and claws the difference back into requester refunds.
#[test]
fn cartel_lowers_honest_worker_payout_vs_baseline() {
    // θ = 2 < |G| = 4 leaves honest requesters lenient (they can only
    // reject χ < 2); the cartel tightens to θ = 4 where any gold miss
    // is rejectable. Noisy-but-honest workers make misses common.
    let scenario = |cartel: usize| MarketConfig {
        hits: 24,
        spawn_per_block: 3,
        workers: 20,
        worker_capacity: 4,
        questions: 6,
        golds: 4,
        k: 3,
        theta: 2,
        behavior_mix: vec![(
            WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.85 }),
            1,
        )],
        seed: 0xec05,
        max_blocks: 400,
        econ: Some(EconConfig {
            // No gating: keep the worker side identical so the payout
            // delta is the cartel's alone.
            reputation: ReputationParams { steer: false },
            cartel_requesters: cartel,
            ..EconConfig::default()
        }),
        ..MarketConfig::default()
    };
    let baseline = run_at(&scenario(0), 1);
    // The honest baseline is the same market at every budget.
    for threads in THREADS {
        let again = run_at(&scenario(0), threads);
        assert_eq!(baseline.to_json(), again.to_json(), "{threads} threads");
        assert_eq!(
            baseline.section_json("econ"),
            again.section_json("econ"),
            "{threads} threads"
        );
    }
    let cartel_at = |threads: usize| run_at(&scenario(24), threads);
    let cartel = cartel_at(1);
    // The cartel's off-chain evaluation is a proof job like any other:
    // the pool computes it at 2 and 8 threads, and the withhold
    // decision taken from its verdicts must not move.
    for threads in [2, 8] {
        let pooled = cartel_at(threads);
        assert_eq!(cartel.to_json(), pooled.to_json(), "{threads} threads");
        assert_eq!(
            cartel.section_json("econ"),
            pooled.section_json("econ"),
            "{threads} threads"
        );
    }
    assert_eq!(baseline.hits_unfinished, 0);
    assert_eq!(cartel.hits_unfinished, 0);
    let base_econ = baseline.econ.as_ref().expect("econ on");
    let cartel_econ = cartel.econ.as_ref().expect("econ on");
    assert!(
        cartel_econ.cartel_rejections > 0,
        "the strict-θ cartel must land rejections the lenient baseline \
         cannot ({:?} rejections)",
        cartel_econ.cartel_rejections
    );
    assert!(
        cartel_econ.honest_paid < base_econ.honest_paid,
        "cartel must lower honest-worker payout (baseline {}, cartel {})",
        base_econ.honest_paid,
        cartel_econ.honest_paid
    );
    assert!(
        cartel_econ.cartel_refunds > base_econ.honest_refunds,
        "the clawed-back shares must show up as cartel refunds \
         (baseline honest refunds {}, cartel refunds {})",
        base_econ.honest_refunds,
        cartel_econ.cartel_refunds
    );
    // The extraction is the payout delta: what workers lost, the cartel
    // (plus rounding) got back.
    assert!(cartel.rewards_paid < baseline.rewards_paid);
    assert!(cartel.refunds > baseline.refunds);
}

/// Reputation-farming sybils: farmed scores buy commit slots
/// (reputation ordering), defection converts them into zero-effort
/// submissions on well-paying HITs, and the metrics record both the
/// extraction and the rejections that answer it.
#[test]
fn sybil_farming_extracts_and_gets_caught() {
    let config = MarketConfig {
        hits: 40,
        spawn_per_block: 2,
        workers: 16,
        worker_capacity: 4,
        seed: 0xec06,
        max_blocks: 500,
        econ: Some(EconConfig {
            sybil_workers: 4,
            ..EconConfig::default()
        }),
        ..MarketConfig::default()
    };
    for threads in THREADS {
        let report = run_at(&config, threads);
        assert_eq!(report.hits_unfinished, 0);
        let econ = report.econ.expect("econ on");
        assert!(
            econ.sybil_paid > 0,
            "farming must earn the sybils real payouts ({threads} threads)"
        );
        assert!(
            econ.sybil_rejected > 0,
            "defection (random-bot work above the reward threshold) must \
             draw proof-backed rejections ({threads} threads)"
        );
        assert!(econ.honest_paid > 0, "the market still serves honest work");
    }
}
