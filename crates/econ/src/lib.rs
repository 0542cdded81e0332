//! # dragoon-econ
//!
//! The market-economics subsystem: the first layer of **cross-HIT
//! state** in the stack. Everything below it — contract, chain,
//! protocol — models one HIT instance at a time; everything here
//! persists *across* instances and feeds back into the next one:
//!
//! * [`reputation::ReputationBook`] — per-worker quality scores
//!   accumulated from settlement receipts, decaying per block; gates
//!   commit eligibility and orders worker selection.
//! * [`pricing::PricingEngine`] — each new HIT's budget `B` set from
//!   observed fill rates and settlement latency over a sliding window of
//!   recent blocks (fed by [`dragoon_chain::BlockObservation`]).
//! * [`churn::ChurnProcess`] — seeded, deterministic worker
//!   arrivals/departures over a long horizon.
//! * Two built-in adversaries, with extraction metrics in the
//!   [`report::EconReport`]: the first [`EconConfig::cartel_requesters`]
//!   requesters form a golden-withholding cartel, and the first
//!   [`EconConfig::sybil_workers`] pool workers are reputation-farming
//!   sybils. Their rules are fixed (the crate-private `policy` module).
//!
//! The [`EconEngine`] bundles the four into the runtime the
//! `dragoon-sim` marketplace engine drives at its block boundaries.
//! Every input is derived from committed chain state (settlement
//! receipts, block observations, event flows), and churn draws from its
//! own seeded RNG stream, so the whole layer is bit-deterministic across
//! runs *and* across executor thread counts.

#![forbid(unsafe_code)]

pub mod churn;
mod policy;
pub mod pricing;
pub mod report;
pub mod reputation;

pub use churn::{ChurnDecision, ChurnParams, ChurnProcess};
pub use pricing::{PricingEngine, PricingParams};
pub use report::EconReport;
pub use reputation::{ReputationBook, ReputationParams};

use dragoon_chain::BlockObservation;
use dragoon_contract::{Settlement, SettlementReceipt};
use dragoon_ledger::Address;
use dragoon_protocol::WorkerBehavior;
use std::collections::{BTreeMap, BTreeSet};

/// Everything that configures the econ layer of a market run. A market
/// runs the layer when its config carries one (`MarketConfig::econ` is
/// `Some`), like its net and persist layers.
#[derive(Clone, Debug, Default)]
pub struct EconConfig {
    /// Reputation dynamics (always on when the layer runs).
    pub reputation: ReputationParams,
    /// Dynamic pricing of `B` (`None` keeps the scenario's fixed budget).
    pub pricing: Option<PricingParams>,
    /// Worker churn (`None` keeps the pool fixed).
    pub churn: Option<ChurnParams>,
    /// Whether workers decline HITs paying under their reservation wage
    /// (deterministic per-worker wages spread around the base reward —
    /// the supply elasticity dynamic pricing needs to converge against).
    pub reservation_wages: bool,
    /// The first `cartel_requesters` requesters form the
    /// golden-withholding cartel.
    pub cartel_requesters: usize,
    /// The first `sybil_workers` pool workers are reputation-farming
    /// sybils.
    pub sybil_workers: usize,
}

impl EconConfig {
    /// A passive configuration: reputation is tracked and reported but
    /// influences nothing (no gating, no ordering, no pricing, no churn,
    /// no adversaries). A run under `observe_only` is **byte-identical**
    /// to a run without the layer — the differential the
    /// `marketplace_throughput` bench uses to price the layer's
    /// bookkeeping overhead.
    pub fn observe_only() -> Self {
        Self {
            reputation: ReputationParams { steer: false },
            ..Self::default()
        }
    }
}

/// A worker's commit-slot decision for one HIT.
#[derive(Clone, Debug)]
pub enum JoinDecision {
    /// Join, with the session a sybil picked (`None` = the worker's pool
    /// default).
    Join(Option<WorkerBehavior>),
    /// Barred by the reputation gate.
    Gated,
    /// Declined: the reward is below the worker's reservation wage.
    Declined,
}

/// Accumulated adversary/flow metrics (engine-internal).
#[derive(Clone, Debug, Default)]
struct EconMetrics {
    gated_commits: u64,
    declined_commits: u64,
    goldens_withheld: u64,
    cartel_rejections: u64,
    cartel_refunds: u128,
    honest_refunds: u128,
    honest_paid: u128,
    honest_paid_count: u64,
    honest_rejected: u64,
    sybil_paid: u128,
    sybil_paid_count: u64,
    sybil_rejected: u64,
}

/// The econ runtime a marketplace engine drives: reputation, pricing,
/// churn, adversary classification and metrics, behind block-boundary
/// hooks.
#[derive(Clone, Debug)]
pub struct EconEngine {
    config: EconConfig,
    reputation: ReputationBook,
    pricing: Option<PricingEngine>,
    churn: Option<ChurnProcess>,
    cartel: BTreeSet<Address>,
    sybils: BTreeSet<Address>,
    /// Deterministic per-worker reservation wages (coins per task).
    wages: BTreeMap<Address, u128>,
    /// The chain's block gas cap — the congestion reference the pricing
    /// controller reads [`BlockObservation`]s against.
    block_gas_limit: Option<u64>,
    metrics: EconMetrics,
}

impl EconEngine {
    /// Builds the runtime for a market whose scenario-default budget is
    /// `default_budget` (the pricing controller's opening price) and
    /// whose chain runs under `block_gas_limit` (the congestion
    /// reference for [`EconEngine::observe_block`]; `None` = uncapped,
    /// never congested). `seed` derives the churn process's own RNG
    /// stream.
    pub fn for_market(
        config: EconConfig,
        seed: u64,
        default_budget: u128,
        block_gas_limit: Option<u64>,
    ) -> Self {
        let pricing = config
            .pricing
            .map(|p| PricingEngine::new(p, default_budget));
        let churn = config.churn.map(|p| ChurnProcess::new(seed, p));
        Self {
            reputation: ReputationBook::new(config.reputation),
            pricing,
            churn,
            cartel: BTreeSet::new(),
            sybils: BTreeSet::new(),
            wages: BTreeMap::new(),
            metrics: EconMetrics::default(),
            block_gas_limit,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EconConfig {
        &self.config
    }

    /// Read access to the reputation book.
    pub fn reputation(&self) -> &ReputationBook {
        &self.reputation
    }

    /// Read access to the pricing controller.
    pub fn pricing(&self) -> Option<&PricingEngine> {
        self.pricing.as_ref()
    }

    /// Classifies requester `index` at pool construction.
    pub fn register_requester(&mut self, index: usize, addr: Address) {
        if index < self.config.cartel_requesters {
            self.cartel.insert(addr);
        }
    }

    /// Classifies worker `index` (initial pool position or churn-arrival
    /// sequence number) and fixes its deterministic reservation wage as
    /// a spread around `base_reward`.
    pub fn register_worker(&mut self, index: usize, addr: Address, base_reward: u128) {
        if index < self.config.sybil_workers {
            self.sybils.insert(addr);
        }
        // Wages spread deterministically over [0.6, 1.4] × base reward.
        let factor = 60 + (index as u128).wrapping_mul(37) % 81;
        self.wages.insert(addr, base_reward * factor / 100);
    }

    /// Whether `addr` is a cartel requester.
    pub fn is_cartel(&self, addr: &Address) -> bool {
        self.cartel.contains(addr)
    }

    /// Whether `addr` is a sybil worker.
    pub fn is_sybil(&self, addr: &Address) -> bool {
        self.sybils.contains(addr)
    }

    /// The θ requester `index` publishes for a task with `golds` gold
    /// standards (cartel members publish strict).
    pub fn theta_for(&self, index: usize, golds: usize, default: u64) -> u64 {
        if index < self.config.cartel_requesters {
            policy::cartel_theta(golds, default)
        } else {
            default
        }
    }

    /// The budget the next published HIT freezes (the dynamic price, or
    /// the scenario default when pricing is off).
    pub fn next_budget(&self, default: u128) -> u128 {
        self.pricing.as_ref().map_or(default, PricingEngine::price)
    }

    /// Whether commit-slot candidates are ordered by reputation.
    pub fn orders_by_score(&self) -> bool {
        self.config.reputation.steer
    }

    /// Sorts `(pool index, address)` candidates by decayed score,
    /// highest first (no-op unless scores steer the market).
    pub fn rank(&self, candidates: &mut [(usize, Address)], round: u64) {
        if self.config.reputation.steer {
            self.reputation.rank(candidates, round);
        }
    }

    /// One worker's commit decision for a HIT paying `reward` per
    /// worker.
    pub fn join_decision(&mut self, addr: &Address, reward: u128, round: u64) -> JoinDecision {
        if !self.reputation.eligible(addr, round) {
            self.metrics.gated_commits += 1;
            return JoinDecision::Gated;
        }
        if self.config.reservation_wages {
            if let Some(&wage) = self.wages.get(addr) {
                if reward < wage {
                    self.metrics.declined_commits += 1;
                    return JoinDecision::Declined;
                }
            }
        }
        if self.sybils.contains(addr) {
            let score = self.reputation.score(addr, round);
            return JoinDecision::Join(Some(policy::sybil_behavior(score, reward)));
        }
        JoinDecision::Join(None)
    }

    /// Whether requester `addr` withholds its golden opening given
    /// `rejectable` rejectable reveals. Counts the withholding.
    pub fn withholds_golden(&mut self, addr: &Address, rejectable: usize) -> bool {
        if self.cartel.contains(addr) && policy::cartel_withholds_golden(rejectable) {
            self.metrics.goldens_withheld += 1;
            true
        } else {
            false
        }
    }

    /// Absorbs one settled HIT's receipts: feeds the reputation book and
    /// the per-class payout metrics.
    pub fn on_settled_hit(
        &mut self,
        requester: &Address,
        receipts: &[SettlementReceipt],
        round: u64,
    ) {
        let cartel_hit = self.cartel.contains(requester);
        for receipt in receipts {
            self.reputation.observe(receipt, round);
            let sybil = self.sybils.contains(&receipt.worker);
            match &receipt.outcome {
                Settlement::Paid => {
                    if sybil {
                        self.metrics.sybil_paid += receipt.amount;
                        self.metrics.sybil_paid_count += 1;
                    } else {
                        self.metrics.honest_paid += receipt.amount;
                        self.metrics.honest_paid_count += 1;
                    }
                }
                Settlement::Rejected(reason) => {
                    if sybil {
                        self.metrics.sybil_rejected += 1;
                    } else {
                        self.metrics.honest_rejected += 1;
                    }
                    use dragoon_contract::RejectReason;
                    if cartel_hit && !matches!(reason, RejectReason::NoReveal) {
                        self.metrics.cartel_rejections += 1;
                    }
                }
            }
        }
    }

    /// Records an escrow refund flowing back to `requester`.
    pub fn note_refund(&mut self, requester: &Address, amount: u128) {
        if self.cartel.contains(requester) {
            self.metrics.cartel_refunds += amount;
        } else {
            self.metrics.honest_refunds += amount;
        }
    }

    /// Block boundary: feeds the pricing controller with the chain's
    /// [`BlockObservation`] (the congestion signal — gas used against
    /// the cap) plus the market-level fill outcomes and settlement
    /// latencies of the block.
    pub fn observe_block(
        &mut self,
        observation: &BlockObservation,
        filled: usize,
        cancelled: usize,
        latencies: &[u64],
    ) {
        if let Some(p) = &mut self.pricing {
            let congested = self.block_gas_limit.is_some_and(|limit| {
                observation.gas_used as f64 >= limit as f64 * pricing::CONGESTION_UTILIZATION
            });
            p.observe_block(filled, cancelled, latencies, congested);
        }
    }

    /// Block boundary: the churn decision against `active` pool workers
    /// (empty when churn is off).
    pub fn churn_step(&mut self, active: usize) -> ChurnDecision {
        self.churn
            .as_mut()
            .map(|c| c.step(active))
            .unwrap_or_default()
    }

    /// Assembles the end-of-run report at `round`.
    pub fn report(&self, round: u64) -> EconReport {
        let (rep_mean, rep_min, rep_max) = self.reputation.stats(round);
        let (price_final, price_min_seen, price_max_seen, adjustments, fill, filled, unfilled) =
            match &self.pricing {
                Some(p) => {
                    let (lo, hi) = p.price_range_seen();
                    let (f, c) = p.totals();
                    (
                        p.price(),
                        lo,
                        hi,
                        p.adjustments(),
                        p.fill_rate().unwrap_or(-1.0),
                        f,
                        c,
                    )
                }
                None => (0, 0, 0, 0, -1.0, 0, 0),
            };
        let (workers_joined, workers_departed) =
            self.churn.as_ref().map_or((0, 0), ChurnProcess::totals);
        EconReport {
            rep_tracked: self.reputation.tracked(),
            rep_receipts: self.reputation.observed(),
            rep_decay_violations: self.reputation.decay_violations(),
            rep_mean,
            rep_min,
            rep_max,
            gated_commits: self.metrics.gated_commits,
            declined_commits: self.metrics.declined_commits,
            price_final,
            price_min_seen,
            price_max_seen,
            price_adjustments: adjustments,
            fill_rate_recent: fill,
            hits_filled: filled,
            hits_unfilled: unfilled,
            workers_joined,
            workers_departed,
            goldens_withheld: self.metrics.goldens_withheld,
            cartel_rejections: self.metrics.cartel_rejections,
            cartel_refunds: self.metrics.cartel_refunds,
            honest_refunds: self.metrics.honest_refunds,
            honest_paid: self.metrics.honest_paid,
            honest_paid_count: self.metrics.honest_paid_count,
            honest_rejected: self.metrics.honest_rejected,
            sybil_paid: self.metrics.sybil_paid,
            sybil_paid_count: self.metrics.sybil_paid_count,
            sybil_rejected: self.metrics.sybil_rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_contract::RejectReason;

    fn receipt(worker: Address, outcome: Settlement, amount: u128) -> SettlementReceipt {
        SettlementReceipt {
            worker,
            outcome,
            amount,
        }
    }

    fn full_config() -> EconConfig {
        EconConfig {
            pricing: Some(PricingParams::default()),
            churn: Some(ChurnParams::default()),
            reservation_wages: true,
            cartel_requesters: 1,
            sybil_workers: 2,
            ..EconConfig::default()
        }
    }

    #[test]
    fn classification_and_metrics_split_by_class() {
        let mut e = EconEngine::for_market(full_config(), 7, 3_000, Some(30_000_000));
        let cartel_req = Address::from_byte(0xd0);
        let honest_req = Address::from_byte(0xd1);
        e.register_requester(0, cartel_req);
        e.register_requester(1, honest_req);
        let sybil = Address::from_byte(1);
        let honest = Address::from_byte(9);
        e.register_worker(0, sybil, 1_000);
        e.register_worker(5, honest, 1_000);
        assert!(e.is_cartel(&cartel_req) && !e.is_cartel(&honest_req));
        assert!(e.is_sybil(&sybil) && !e.is_sybil(&honest));
        e.on_settled_hit(
            &cartel_req,
            &[
                receipt(sybil, Settlement::Paid, 500),
                receipt(
                    honest,
                    Settlement::Rejected(RejectReason::LowQuality { chi: 1 }),
                    0,
                ),
            ],
            10,
        );
        e.note_refund(&cartel_req, 500);
        e.note_refund(&honest_req, 100);
        let r = e.report(10);
        assert_eq!(r.sybil_paid, 500);
        assert_eq!(r.honest_rejected, 1);
        assert_eq!(r.cartel_rejections, 1);
        assert_eq!(r.cartel_refunds, 500);
        assert_eq!(r.honest_refunds, 100);
        assert_eq!(r.rep_receipts, 2);
    }

    #[test]
    fn wage_gate_and_reputation_gate_count() {
        let mut e = EconEngine::for_market(full_config(), 7, 3_000, Some(30_000_000));
        let w = Address::from_byte(8);
        e.register_worker(7, w, 1_000); // wage = 1000 * (60 + 7*37 % 81)/100
        let wage = 1_000 * (60 + 7 * 37 % 81) / 100;
        assert!(matches!(
            e.join_decision(&w, wage, 1),
            JoinDecision::Join(None)
        ));
        assert!(matches!(
            e.join_decision(&w, wage - 1, 1),
            JoinDecision::Declined
        ));
        // Crash the reputation below the floor: gated.
        for _ in 0..3 {
            e.on_settled_hit(
                &Address::from_byte(0xd1),
                &[receipt(
                    w,
                    Settlement::Rejected(RejectReason::LowQuality { chi: 0 }),
                    0,
                )],
                1,
            );
        }
        assert!(matches!(e.join_decision(&w, wage, 1), JoinDecision::Gated));
        let r = e.report(1);
        assert_eq!(r.declined_commits, 1);
        assert_eq!(r.gated_commits, 1);
    }

    #[test]
    fn observe_only_influences_nothing() {
        let mut e = EconEngine::for_market(EconConfig::observe_only(), 1, 3_000, None);
        let w = Address::from_byte(3);
        e.register_worker(0, w, 1_000);
        assert!(!e.is_sybil(&w));
        assert!(!e.orders_by_score());
        // Even a terrible history neither gates nor declines.
        for _ in 0..5 {
            e.on_settled_hit(
                &Address::from_byte(0xd1),
                &[receipt(
                    w,
                    Settlement::Rejected(RejectReason::LowQuality { chi: 0 }),
                    0,
                )],
                1,
            );
        }
        assert!(matches!(
            e.join_decision(&w, 1, 1),
            JoinDecision::Join(None)
        ));
        assert_eq!(e.next_budget(42), 42);
        assert_eq!(e.churn_step(10), ChurnDecision::default());
        assert!(!e.withholds_golden(&Address::from_byte(0xd0), 0));
    }
}
