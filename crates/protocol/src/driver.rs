//! The end-to-end protocol driver: runs Π_hit over the simulated chain
//! and produces a structured report (settlements, payments, per-phase gas
//! — the raw material of Table III). The task is the one instance of the
//! [`HitRegistry`] the marketplace runs: the publish is its `Create`, every
//! later message is routed to id 0. The requester's side of the run is
//! the [`Sequencer`]'s, stepped once per round with its evaluations done
//! on the spot; the marketplace engine steps the same machine with the
//! evaluations on its proving pool.

use crate::requester::{Requester, Sequencer, Step, Strategy, Verdict};
use crate::storage::ContentStore;
use crate::worker::{Worker, WorkerBehavior};
use dragoon_chain::{Chain, Gas, GasSchedule, ReorderPolicy, TxStatus};
use dragoon_contract::registry::{routing_gas, HitRegistry, RegistryMessage, SettlementMode};
use dragoon_contract::{HitContract, HitMessage, Phase, PhaseWindows, Settlement};
use dragoon_core::task::Answer;
use dragoon_core::workload::Workload;
use dragoon_crypto::commitment::Commitment;
use dragoon_ledger::Address;
use rand::Rng;
use std::collections::BTreeMap;

/// Configuration of a protocol run.
pub struct RunConfig {
    /// The workload (task + gold standards + hidden truth).
    pub workload: Workload,
    /// One behaviour per worker; the first `K` that the contract accepts
    /// fill the task (extra entries model attackers racing for slots).
    pub behaviors: Vec<WorkerBehavior>,
    /// The gas schedule in force.
    pub schedule: GasSchedule,
    /// Optional per-block gas cap (Ethereum mainnet ran ~10M in the
    /// paper's measurement window); `None` = unbounded blocks.
    pub block_gas_limit: Option<dragoon_chain::Gas>,
}

impl RunConfig {
    /// Convenience constructor with unbounded blocks.
    pub fn new(workload: Workload, behaviors: Vec<WorkerBehavior>, schedule: GasSchedule) -> Self {
        Self {
            workload,
            behaviors,
            schedule,
            block_gas_limit: None,
        }
    }
}

/// Gas usage per protocol operation (the rows of Table III): `C_hit`'s
/// share of each receipt, net of the registry's [`routing_gas`].
#[derive(Clone, Debug, Default)]
pub struct GasByPhase {
    /// The requester's publish transaction (includes task-contract
    /// deployment).
    pub publish: Gas,
    /// Each worker's commit transaction.
    pub commits: Vec<Gas>,
    /// Each worker's reveal transaction.
    pub reveals: Vec<Gas>,
    /// The golden opening transaction.
    pub golden: Gas,
    /// Each rejection transaction (PoQoEA `evaluate` or `outrange`).
    pub rejects: Vec<Gas>,
    /// The settlement transaction.
    pub finalize: Gas,
}

impl GasByPhase {
    /// A worker's "submit answers" cost: commit + reveal (the Table III
    /// per-worker row).
    pub fn submit_per_worker(&self) -> Vec<Gas> {
        self.commits
            .iter()
            .zip(&self.reveals)
            .map(|(c, r)| c + r)
            .collect()
    }

    /// Total gas across all protocol transactions.
    pub fn total(&self) -> Gas {
        self.publish
            + self.commits.iter().sum::<Gas>()
            + self.reveals.iter().sum::<Gas>()
            + self.golden
            + self.rejects.iter().sum::<Gas>()
            + self.finalize
    }
}

/// The outcome of a protocol run.
pub struct RunReport {
    /// Per-phase gas usage.
    pub gas: GasByPhase,
    /// Final settlement of every committed worker.
    pub settlements: BTreeMap<Address, Settlement>,
    /// Final ledger balance of every party.
    pub balances: BTreeMap<Address, u128>,
    /// The answers the requester successfully collected (the utility of
    /// the whole exercise).
    pub collected: Vec<(Address, Answer)>,
    /// The chain (a one-instance registry), for deeper inspection.
    pub chain: Chain<HitRegistry>,
    /// The requester's address.
    pub requester: Address,
    /// The worker addresses, in behaviour order.
    pub workers: Vec<Address>,
}

/// The on-chain identity of simulated requester `i` — the account
/// every genesis (the driver's, the market's, each replica's, crash
/// recovery's) mints its budget to.
pub fn requester_addr(i: u64) -> Address {
    Address::from_seed(0xd1a6_0000 + i)
}

/// The on-chain identity of simulated worker `i`.
pub fn worker_addr(i: u64) -> Address {
    Address::from_seed(0x3031_0000 + i)
}

/// The run's one task: instance 0 of the chain's registry.
fn task(chain: &Chain<HitRegistry>) -> &HitContract {
    chain.contract().hit(0).expect("the task was created")
}

/// Runs the full protocol with honest FIFO scheduling.
pub fn run<R: Rng + ?Sized>(config: RunConfig, rng: &mut R) -> RunReport {
    run_with_policy(config, &mut dragoon_chain::FifoPolicy, rng)
}

/// Runs the full protocol under an arbitrary (possibly adversarial)
/// message-scheduling policy.
pub fn run_with_policy<R: Rng + ?Sized>(
    config: RunConfig,
    policy: &mut dyn ReorderPolicy<RegistryMessage>,
    rng: &mut R,
) -> RunReport {
    let RunConfig {
        workload,
        behaviors,
        schedule,
        block_gas_limit,
    } = config;
    let requester_addr = requester_addr(0);
    let worker_addrs: Vec<Address> = (0..behaviors.len() as u64).map(worker_addr).collect();

    let mut store = ContentStore::new();
    let requester = Requester::new(requester_addr, &workload, &mut store, rng);
    let mut chain = Chain::deploy(HitRegistry::new(SettlementMode::PerProof), 0, schedule);
    if let Some(limit) = block_gas_limit {
        chain = chain.with_block_gas_limit(limit);
    }
    chain.ledger.mint(requester_addr, workload.spec.budget);
    let route = |msg| RegistryMessage::Hit { id: 0, msg };

    // Phase 1: publish, as the registry's `Create`.
    let HitMessage::Publish(params) = requester.publish_msg() else {
        unreachable!("a publish message");
    };
    let windows = PhaseWindows::default();
    chain.submit(requester_addr, RegistryMessage::Create { windows, params });
    chain.advance_round(policy);

    // Phase 2-a: commits. Copy-paste attackers observe the honest
    // commitments in the mempool before submitting.
    let mut workers: Vec<Worker> = worker_addrs
        .iter()
        .zip(behaviors)
        .map(|(addr, b)| Worker::new(*addr, b))
        .collect();
    let mut observed: Vec<Commitment> = Vec::new();
    // Honest-ish workers first (they populate the mempool the attacker
    // watches), then the copiers.
    let ek = requester.public_key();
    let mut copier_indices = Vec::new();
    for (i, w) in workers.iter_mut().enumerate() {
        if matches!(w.behavior, WorkerBehavior::CopyPaste) {
            copier_indices.push(i);
            continue;
        }
        if let Some(msg) = w.commit_msg(&workload, &ek, &observed, rng) {
            if let HitMessage::Commit { commitment } = &msg {
                observed.push(*commitment);
            }
            chain.submit(w.addr, route(msg));
        }
    }
    for i in copier_indices {
        let w = &mut workers[i];
        if let Some(msg) = w.commit_msg(&workload, &ek, &observed, rng) {
            chain.submit(w.addr, route(msg));
        }
    }
    chain.advance_round(policy);

    // From here the driver is event-driven: each party watches the
    // contract's phase and reacts, tolerating adversarial delays (the
    // phase windows absorb the one-clock-period maximum). A generous
    // round bound guarantees termination even under pathological
    // policies.
    let mut sequencer = Sequencer::new(Strategy::GoldenFirst);
    let mut collected = Vec::new();
    let max_round = chain.round() + 48;
    while !task(&chain).is_settled() && chain.round() < max_round {
        if task(&chain).phase() == Phase::Reveal {
            // Phase 2-b: accepted workers open their commitments.
            let accepted = task(&chain).committed_workers().to_vec();
            for w in &mut workers {
                if accepted.contains(&w.addr) && !std::mem::replace(&mut w.reveal_sent, true) {
                    if let Some(msg) = w.reveal_msg(rng) {
                        chain.submit(w.addr, route(msg));
                    }
                }
            }
        }
        // Phase 3, one step per round.
        let msgs = match sequencer.next(task(&chain), chain.round()) {
            Some(Step::Cancel) => vec![HitMessage::Cancel],
            Some(Step::OpenGolden) => vec![requester.golden_msg()],
            Some(Step::Evaluate) => {
                // Read every revealed submission (from event logs),
                // decrypt, challenge the bad ones — all in this round.
                let hit = task(&chain);
                let revealed: Vec<_> = hit
                    .committed_workers()
                    .iter()
                    .filter_map(|w| hit.revealed(w).map(|cts| (*w, cts.clone())))
                    .collect();
                let verdicts = requester.evaluator().evaluate_all(&revealed, rng);
                for (addr, verdict) in &verdicts {
                    if let Verdict::Accept { answer, .. } = verdict {
                        collected.push((*addr, answer.clone()));
                    }
                }
                sequencer.verdicts_landed(verdicts, |_| false)
            }
            Some(Step::Reject(msgs)) => msgs,
            Some(Step::Finalize) => vec![HitMessage::Finalize],
            None => Vec::new(),
        };
        for msg in msgs {
            chain.submit(requester_addr, route(msg));
        }
        chain.advance_round(policy);
    }
    assert!(task(&chain).is_settled(), "protocol must terminate");

    // Collect the report.
    let mut gas = GasByPhase::default();
    for r in chain.receipts() {
        if r.status != TxStatus::Ok {
            continue;
        }
        let used = r.gas_used - routing_gas(r.label, chain.schedule());
        match r.label {
            "publish" => gas.publish = used,
            "commit" => gas.commits.push(used),
            "reveal" => gas.reveals.push(used),
            "golden" => gas.golden = used,
            "outrange" | "evaluate" => gas.rejects.push(used),
            "finalize" => gas.finalize = used,
            _ => {}
        }
    }
    let hit = task(&chain);
    let mut settlements = BTreeMap::new();
    for addr in hit.committed_workers() {
        if let Some(s) = hit.settlement(addr) {
            settlements.insert(*addr, s.clone());
        }
    }
    let mut balances = BTreeMap::new();
    balances.insert(requester_addr, chain.ledger.balance(&requester_addr));
    for addr in &worker_addrs {
        balances.insert(*addr, chain.ledger.balance(addr));
    }
    RunReport {
        gas,
        settlements,
        balances,
        collected,
        chain,
        requester: requester_addr,
        workers: worker_addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_contract::RejectReason;
    use dragoon_core::workload::{imagenet_workload, AnswerModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BUDGET: u128 = 4_000_000;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xd21e)
    }

    fn honest(n: usize, accuracy: f64) -> Vec<WorkerBehavior> {
        vec![WorkerBehavior::Honest(AnswerModel::Diligent { accuracy }); n]
    }

    #[test]
    fn four_honest_workers_all_paid() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let report = run(
            RunConfig::new(workload, honest(4, 1.0), GasSchedule::istanbul()),
            &mut rng,
        );
        assert_eq!(report.collected.len(), 4);
        for w in &report.workers {
            assert_eq!(report.balances[w], BUDGET / 4);
            assert_eq!(report.settlements[w], Settlement::Paid);
        }
        assert_eq!(report.balances[&report.requester], 0);
    }

    #[test]
    fn low_quality_worker_rejected_and_share_refunded() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let mut behaviors = honest(3, 1.0);
        behaviors.push(WorkerBehavior::Honest(AnswerModel::Diligent {
            accuracy: 0.0,
        }));
        let report = run(
            RunConfig::new(workload, behaviors, GasSchedule::istanbul()),
            &mut rng,
        );
        let bad = report.workers[3];
        assert_eq!(report.balances[&bad], 0);
        assert!(matches!(
            report.settlements[&bad],
            Settlement::Rejected(RejectReason::LowQuality { .. })
        ));
        assert_eq!(report.balances[&report.requester], BUDGET / 4);
        assert_eq!(report.gas.rejects.len(), 1);
        // Three good answers collected.
        assert_eq!(report.collected.len(), 3);
    }

    #[test]
    fn out_of_range_worker_rejected() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let mut behaviors = honest(3, 1.0);
        behaviors.push(WorkerBehavior::Honest(AnswerModel::OutOfRange));
        let report = run(
            RunConfig::new(workload, behaviors, GasSchedule::istanbul()),
            &mut rng,
        );
        let bad = report.workers[3];
        assert_eq!(report.balances[&bad], 0);
        assert!(matches!(
            report.settlements[&bad],
            Settlement::Rejected(RejectReason::OutOfRange { .. })
        ));
    }

    #[test]
    fn copy_paste_attacker_locked_out() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        // 4 honest fill the task; a 5th copier races them.
        let mut behaviors = honest(4, 1.0);
        behaviors.push(WorkerBehavior::CopyPaste);
        let report = run(
            RunConfig::new(workload, behaviors, GasSchedule::istanbul()),
            &mut rng,
        );
        let copier = report.workers[4];
        assert_eq!(report.balances[&copier], 0);
        assert!(!report.settlements.contains_key(&copier));
        // The honest four were all paid.
        for w in &report.workers[..4] {
            assert_eq!(report.balances[w], BUDGET / 4);
        }
    }

    #[test]
    fn non_revealer_unpaid_share_refunded() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let mut behaviors = honest(3, 1.0);
        behaviors.push(WorkerBehavior::CommitNoReveal);
        let report = run(
            RunConfig::new(workload, behaviors, GasSchedule::istanbul()),
            &mut rng,
        );
        let silent = report.workers[3];
        assert_eq!(report.balances[&silent], 0);
        assert_eq!(
            report.settlements[&silent],
            Settlement::Rejected(RejectReason::NoReveal)
        );
        assert_eq!(report.balances[&report.requester], BUDGET / 4);
    }

    #[test]
    fn gas_report_has_all_rows() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let report = run(
            RunConfig::new(workload, honest(4, 1.0), GasSchedule::istanbul()),
            &mut rng,
        );
        assert!(report.gas.publish > 1_000_000);
        assert_eq!(report.gas.commits.len(), 4);
        assert_eq!(report.gas.reveals.len(), 4);
        assert!(report.gas.golden > 21_000);
        assert!(report.gas.finalize > 21_000);
        assert_eq!(report.gas.submit_per_worker().len(), 4);
        let total = report.gas.total();
        assert!(
            (8_000_000..20_000_000).contains(&total),
            "total gas = {total}"
        );
    }

    /// Every row of a run's [`GasByPhase`], in field order, plus its total.
    type GasRows = (Gas, Vec<Gas>, Vec<Gas>, Gas, Vec<Gas>, Gas, Gas);

    fn rows(gas: &GasByPhase) -> GasRows {
        (
            gas.publish,
            gas.commits.clone(),
            gas.reveals.clone(),
            gas.golden,
            gas.rejects.clone(),
            gas.finalize,
            gas.total(),
        )
    }

    /// Table III's exact figures: the `table3_gas` bench's rng sequence
    /// (seed `0x7ab1e3`, the best-case run, then the worst-case run),
    /// then one worst-case run under Byzantium prices on the same rng.
    #[test]
    fn table_iii_gas_by_phase_is_exact() {
        let mut rng = StdRng::seed_from_u64(0x7ab1e3);
        let mut run_case = |accuracy: f64, schedule: GasSchedule| {
            let workload = imagenet_workload(BUDGET, &mut rng);
            let config = RunConfig::new(workload, honest(4, accuracy), schedule);
            rows(&run(config, &mut rng).gas)
        };
        let best = run_case(1.0, GasSchedule::istanbul());
        let worst = run_case(0.0, GasSchedule::istanbul());
        let byzantium = run_case(0.0, GasSchedule::byzantium());
        assert_eq!(
            best,
            (
                1_306_390,
                vec![44_390, 44_390, 44_390, 45_396],
                vec![2_560_306, 2_560_258, 2_560_174, 2_560_306],
                83_706,
                vec![],
                77_016,
                11_886_722,
            )
        );
        assert_eq!(
            worst,
            (
                1_306_378,
                vec![44_390, 44_390, 44_390, 45_384],
                vec![2_560_234, 2_560_258, 2_560_270, 2_560_306],
                83_694,
                vec![272_354, 272_378, 272_402, 272_366],
                30_016,
                12_929_210,
            )
        );
        assert_eq!(
            byzantium,
            (
                1_313_410,
                vec![44_906, 44_906, 44_906, 45_848],
                vec![3_201_338, 3_201_466, 3_201_274, 3_199_994],
                85_878,
                vec![1_545_802, 1_545_802, 1_545_866, 1_545_738],
                30_068,
                20_597_202,
            )
        );
    }

    #[test]
    fn collected_answers_match_ground_truth_for_perfect_workers() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let truth = workload.truth.clone();
        let report = run(
            RunConfig::new(workload, honest(4, 1.0), GasSchedule::istanbul()),
            &mut rng,
        );
        for (_, answer) in &report.collected {
            assert_eq!(answer.0, truth.0);
        }
    }
}
