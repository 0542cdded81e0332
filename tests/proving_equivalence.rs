//! Proving-pipeline equivalence: the differential suite for the async
//! proving service (`dragoon_protocol::proving`).
//!
//! The service's contract mirrors the parallel executor's: routing
//! agent proving through the keyed job queue and scoped worker pool
//! must leave committed chain state — and therefore the whole-market
//! report JSON — **bit-identical** to a one-thread run (every job on
//! the calling thread, in enqueue order) at zero latency, and
//! bit-identical to itself for every thread count at any latency.
//! These tests pin that property across:
//!
//! * sync (service disabled) vs async at zero modeled latency, both at
//!   1, 2 and 8 threads against one `exec_threads: 1` oracle — the
//!   pool computes in both modes, so only a budget of one is serial —
//!   on the shared scenario and on a small paper-shaped market,
//! * nonzero modeled latency at 1, 2, 4 and 8 executor/prover threads
//!   and at the host's budget (`exec_threads: 0`) — report *and*
//!   proving counters must match; the counters are thread-independent
//!   by construction,
//! * straggler handling: with latency pushing proofs past phase
//!   deadlines, every HIT still settles (⊥ for the missing workers),
//!   escrow drains exactly into rewards + refunds, and
//! * stats bookkeeping: `jobs = completed + dropped`, stale releases
//!   bounded by completions, cache counters populated.
//!
//! The last two hold at every budget in [`THREADS`].

use dragoon_sim::{run_market, MarketConfig, MarketSim, ProvingConfig};

/// The budgets a single-budget property is checked at: the serial
/// everything, a real pool, and an oversubscribed one.
const THREADS: [usize; 3] = [1, 4, 8];

/// The shared scenario: a mid-sized market with the default behaviour
/// mix (noisy workers, a random bot, a commit-no-reveal ghost), batched
/// settlement and gas-capped blocks. Every test names its thread
/// budget.
fn base(seed: u64) -> MarketConfig {
    MarketConfig {
        hits: 30,
        spawn_per_block: 6,
        workers: 28,
        worker_capacity: 4,
        seed,
        ..MarketConfig::default()
    }
}

fn with_proving(config: MarketConfig, ticks_per_kilocost: u64) -> MarketConfig {
    MarketConfig {
        proving: ProvingConfig {
            enabled: true,
            ticks_per_kilocost,
        },
        ..config
    }
}

/// The paper's §VI task shape (106 questions, 6 golds, 4 workers per
/// HIT, θ = 4) on a market small enough for tier-1: a full round
/// carries 16 commit and 4 evaluate jobs, the mix the pool fans out on
/// the ImageNet workload.
fn paper_shaped(seed: u64) -> MarketConfig {
    MarketConfig {
        questions: 106,
        golds: 6,
        k: 4,
        theta: 4,
        hits: 4,
        spawn_per_block: 4,
        workers: 8,
        worker_capacity: 4,
        seed,
        ..MarketConfig::default()
    }
}

/// Async proving at zero modeled latency is the sync pipeline: same
/// jobs, same keyed RNG streams, same release tick, same pool. The
/// oracle is the disabled service at a budget of one thread — every job
/// on the calling thread, in enqueue order — and neither the mode nor
/// the thread count may show in the report or the proving counters.
#[test]
fn async_at_zero_latency_equals_sync() {
    for scenario in [base(0xa51), paper_shaped(0xa52)] {
        let run_at = |config: &MarketConfig, threads: usize| {
            run_market(MarketConfig {
                exec_threads: threads,
                ..config.clone()
            })
        };
        let sync = scenario.clone();
        let zero_latency = with_proving(scenario, 0);
        let oracle = run_at(&sync, 1);
        assert!(oracle.hits_settled > 0, "the scenario must settle HITs");
        assert!(
            oracle.proving.queue_peak >= 16,
            "a round must batch enough jobs to fan out: {:?}",
            oracle.proving
        );
        assert_eq!(
            oracle.proving.latency_max, 0,
            "no modeled latency means zero release latency"
        );
        for (mode, config, threads) in [
            ("sync", &sync, 2),
            ("sync", &sync, 8),
            ("async", &zero_latency, 1),
            ("async", &zero_latency, 2),
            ("async", &zero_latency, 8),
        ] {
            let run = run_at(config, threads);
            assert_eq!(
                oracle.to_json(),
                run.to_json(),
                "{mode} proving at {threads} threads must be invisible to the market"
            );
            assert_eq!(
                oracle.section_json("proving"),
                run.section_json("proving"),
                "{mode} proving counters must not depend on {threads} threads"
            );
        }
    }
}

/// The determinism witness at nonzero latency: the report JSON *and*
/// the proving counters are byte-identical for every thread count.
/// `ticks_per_kilocost = 300` puts commit proofs (cost `2·N + 2`) at
/// ~4 ticks and evaluation proofs at 2–3, deep enough to reorder
/// releases across rounds and trip phase deadlines.
#[test]
fn reports_identical_across_thread_counts_at_nonzero_latency() {
    let run_at = |threads: usize| {
        run_market(MarketConfig {
            exec_threads: threads,
            ..with_proving(base(0xbee), 300)
        })
    };
    let serial = run_at(1);
    assert!(
        serial.proving.latency_max > 0,
        "the scenario must exercise real release latency"
    );
    // `0` is the host's budget, resolved once when the market is built.
    for threads in [2, 4, 8, 0] {
        let parallel = run_at(threads);
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "market reports must be identical at {threads} prover threads"
        );
        assert_eq!(
            serial.section_json("proving"),
            parallel.section_json("proving"),
            "proving counters must be thread-independent at {threads} threads"
        );
    }
}

/// Stragglers: latency heavy enough that some proofs release after
/// their phase window closed. The deadline backstop settles those
/// sessions `⊥`, the engine discards the late outputs as stale, and
/// the ledger still conserves every escrowed coin.
#[test]
fn nonzero_latency_settles_bottom_and_conserves_escrow() {
    for threads in THREADS {
        let config = MarketConfig {
            exec_threads: threads,
            ..with_proving(base(0x1a7e), 900)
        };
        let budget = config.budget;
        let (report, chain, _) = MarketSim::new(config).run_keeping_net();
        assert_eq!(report.hits_unfinished, 0, "the horizon must drain");
        assert!(report.proving.latency_max >= 4, "proofs must actually lag");
        // ⊥ settlements happened: slots whose reveal (or commit) never
        // made it before the deadline.
        let no_reveals: usize = report.outcomes.iter().map(|o| o.no_reveal).sum();
        assert!(no_reveals > 0, "latency must strand some reveals as ⊥");
        // Conservation: every settled instance drained its escrow, and
        // the frozen budgets split exactly into rewards + refunds.
        for id in chain.contract().hit_ids() {
            let hit = chain.contract().hit(id).expect("listed instance exists");
            assert!(hit.is_settled(), "hit #{id} left open at {threads} threads");
            let escrow = chain.contract().hit_address(id).unwrap();
            assert_eq!(
                chain.ledger.balance(&escrow),
                0,
                "hit #{id} stranded coins in escrow at {threads} threads"
            );
        }
        assert_eq!(
            report.rewards_paid + report.refunds,
            budget * report.hits_published as u128,
            "budgets must split exactly into rewards + refunds at {threads} threads"
        );
    }
}

/// Counter bookkeeping holds under latency: every job is either
/// released or dropped at the end of the run, stale releases are a
/// subset of completions, the queue peak is visible, and the keyed
/// proof cache absorbed the commit-path encryptions.
#[test]
fn proving_stats_account_for_every_job() {
    for threads in THREADS {
        let report = run_market(MarketConfig {
            exec_threads: threads,
            ..with_proving(base(0x57a7), 400)
        });
        let p = &report.proving;
        assert!(p.jobs > 0);
        assert_eq!(
            p.jobs,
            p.completed + p.dropped,
            "every job is released or dropped at {threads} threads: {p:?}"
        );
        assert!(p.stale <= p.completed, "stale releases are completions");
        assert!(p.queue_peak > 0, "latency must queue outputs across ticks");
        assert_eq!(
            p.latency_hist.iter().sum::<u64>(),
            p.completed,
            "the latency histogram buckets exactly the released jobs"
        );
        assert!(
            p.cache_hits + p.cache_misses > 0,
            "commit proving must touch the keyed proof cache"
        );
    }
}
