//! One HIT through the market engine: the configuration a single task
//! runs under, and the report its end state reads as.

use super::MarketSim;
use crate::agents::{RequesterAgent, WorkerAgent};
use crate::config::MarketConfig;
use dragoon_chain::{Chain, Gas, GasSchedule};
use dragoon_contract::{GasByPhase, HitRegistry, PhaseWindows, Settlement, SettlementMode};
use dragoon_core::task::{Answer, EncryptedAnswer};
use dragoon_core::workload::Workload;
use dragoon_crypto::elgamal::Decrypted;
use dragoon_ledger::Address;
use dragoon_protocol::{
    requester_addr, worker_addr, ContentStore, Requester, Strategy, WorkerBehavior,
};
use dragoon_trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The rounds a one-HIT run may take: publish, commit, then a generous
/// bound on the rest, so a run ends even under a pathological policy.
const ONE_HIT_BLOCKS: u64 = 50;

/// Everything that defines a one-HIT run besides its mempool policy
/// ([`MarketSim::with_policy`]).
pub struct OneHit {
    /// The workload (task + gold standards + hidden truth).
    pub workload: Workload,
    /// One behaviour per worker, in pool order. Every worker races for
    /// the task; the first `K` commitments the contract accepts fill it.
    pub behaviors: Vec<WorkerBehavior>,
    /// The gas schedule in force.
    pub schedule: GasSchedule,
    /// Optional per-block gas cap (Ethereum mainnet ran ~10M in the
    /// paper's measurement window); `None` = unbounded blocks.
    pub block_gas_limit: Option<Gas>,
    /// The run's seed: the requester's keys and every proof job's
    /// randomness derive from it.
    pub seed: u64,
}

/// The outcome of a one-HIT run, read off the chain and the requester
/// after the run.
pub struct RunReport {
    /// Per-phase gas usage.
    pub gas: GasByPhase,
    /// Final settlement of every committed worker.
    pub settlements: BTreeMap<Address, Settlement>,
    /// Final ledger balance of every party.
    pub balances: BTreeMap<Address, u128>,
    /// The answers the requester collected: every paid worker's
    /// revealed answer, decrypted, in commit order.
    pub collected: Vec<(Address, Answer)>,
    /// The chain (a one-instance registry), for deeper inspection.
    pub chain: Chain<HitRegistry>,
    /// The requester's address.
    pub requester: Address,
    /// The worker addresses, in behaviour order.
    pub workers: Vec<Address>,
}

impl MarketSim {
    /// A market of one HIT: one requester publishing `workload` and one
    /// worker per behaviour, all of them racing for its `K` slots, under
    /// per-proof settlement and the default phase windows. Run it with
    /// [`MarketSim::run_hit`].
    pub fn one_hit(hit: OneHit) -> Self {
        Self::one_hit_on(hit, 0)
    }

    /// [`MarketSim::one_hit`] on an explicit thread budget (`0` resolves
    /// it as a market does).
    fn one_hit_on(hit: OneHit, exec_threads: usize) -> Self {
        let OneHit {
            workload,
            behaviors,
            schedule,
            block_gas_limit,
            seed,
        } = hit;
        let config = MarketConfig {
            hits: 1,
            workers: behaviors.len(),
            overbook: behaviors.len().saturating_sub(workload.spec.k),
            budget: workload.spec.budget,
            windows: PhaseWindows::default(),
            block_gas_limit,
            settlement: SettlementMode::PerProof,
            max_blocks: ONE_HIT_BLOCKS,
            seed,
            exec_threads,
            ..MarketConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let addr = requester_addr(0);
        let client = Requester::new(addr, &workload, &mut ContentStore::new(), &mut rng);
        let requester = RequesterAgent::new(addr, client, workload, Strategy::GoldenFirst);
        let workers = (0..)
            .zip(behaviors)
            .map(|(i, behavior)| WorkerAgent::new(worker_addr(i), behavior))
            .collect();
        let tracer = Tracer::default();
        Self::assemble(config, tracer, schedule, None, vec![requester], workers)
    }

    /// Runs a [`MarketSim::one_hit`] market to the end and reports its
    /// HIT.
    pub fn run_hit(mut self) -> RunReport {
        self.run_to_end();
        let chain = self.chain;
        let hit = chain.contract().hit(0).expect("the HIT was created");
        assert!(hit.is_settled(), "protocol must terminate");
        let settlements: BTreeMap<Address, Settlement> = hit
            .committed_workers()
            .iter()
            .filter_map(|w| Some((*w, hit.settlement(w)?.clone())))
            .collect();
        // The requester's data: each paid worker's revealed answer, read
        // with its decryption key.
        let requester = &self.requesters[0];
        let (dk, range) = (&requester.client.keypair().dk, requester.client.range());
        let decrypt = |cts: &EncryptedAnswer| {
            let items = dk.decrypt_batch(&cts.0, &range).into_iter();
            let plain = items.map(|item| match item {
                Decrypted::InRange(m) => Some(m),
                Decrypted::OutOfRange(_) => None,
            });
            plain.collect::<Option<_>>().map(Answer)
        };
        let collected = hit
            .committed_workers()
            .iter()
            .filter(|w| settlements.get(w) == Some(&Settlement::Paid))
            .filter_map(|w| Some((*w, decrypt(hit.revealed(w)?)?)))
            .collect();
        let workers: Vec<Address> = self.workers.iter().map(|w| w.addr).collect();
        let balances = std::iter::once(requester.addr)
            .chain(workers.iter().copied())
            .map(|addr| (addr, chain.ledger.balance(&addr)))
            .collect();
        RunReport {
            gas: GasByPhase::from_receipts(chain.receipts(), chain.schedule()),
            settlements,
            balances,
            collected,
            requester: requester.addr,
            workers,
            chain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_chain::{AdversarialPolicy, DelayVictimPolicy, ReorderPolicy, TxStatus};
    use dragoon_contract::RejectReason;
    use dragoon_core::workload::{draw_answer, imagenet_workload, AnswerModel};
    use rand::Rng;

    const BUDGET: u128 = 4_000_000;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xd21e)
    }

    fn honest(n: usize, accuracy: f64) -> Vec<WorkerBehavior> {
        vec![WorkerBehavior::Honest(AnswerModel::Diligent { accuracy }); n]
    }

    /// One ImageNet HIT under Istanbul prices, its workload and seed
    /// drawn from `rng`.
    fn run(rng: &mut StdRng, behaviors: Vec<WorkerBehavior>) -> RunReport {
        let hit = OneHit {
            workload: imagenet_workload(BUDGET, rng),
            behaviors,
            schedule: GasSchedule::istanbul(),
            block_gas_limit: None,
            seed: rng.gen(),
        };
        MarketSim::one_hit(hit).run_hit()
    }

    #[test]
    fn four_honest_workers_all_paid() {
        let report = run(&mut rng(), honest(4, 1.0));
        assert_eq!(report.collected.len(), 4);
        for w in &report.workers {
            assert_eq!(report.balances[w], BUDGET / 4);
            assert_eq!(report.settlements[w], Settlement::Paid);
        }
        assert_eq!(report.balances[&report.requester], 0);
    }

    #[test]
    fn low_quality_worker_rejected_and_share_refunded() {
        let mut behaviors = honest(3, 1.0);
        behaviors.push(WorkerBehavior::Honest(AnswerModel::Diligent {
            accuracy: 0.0,
        }));
        let report = run(&mut rng(), behaviors);
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
        let mut behaviors = honest(3, 1.0);
        behaviors.push(WorkerBehavior::Honest(AnswerModel::OutOfRange));
        let report = run(&mut rng(), behaviors);
        let bad = report.workers[3];
        assert_eq!(report.balances[&bad], 0);
        assert!(matches!(
            report.settlements[&bad],
            Settlement::Rejected(RejectReason::OutOfRange { .. })
        ));
    }

    /// A copier replays a commitment it saw land in an earlier block, so
    /// it can only race for a slot still open a round after the honest
    /// commits: the adversary holds the fourth honest commit back one
    /// round and delivers each block in reverse arrival order, which
    /// puts the copier's replay ahead of the delayed commit. The
    /// contract's duplicate check reverts it.
    #[test]
    fn copy_paste_attacker_locked_out() {
        let mut behaviors = honest(4, 1.0);
        behaviors.push(WorkerBehavior::CopyPaste);
        let mut delay = DelayVictimPolicy::new(worker_addr(3));
        let policy = AdversarialPolicy::new(move |round, pending| {
            let mut scheduled = delay.schedule(round, pending);
            scheduled.deliver.reverse();
            scheduled
        });
        let mut rng = rng();
        let hit = OneHit {
            workload: imagenet_workload(BUDGET, &mut rng),
            behaviors,
            schedule: GasSchedule::istanbul(),
            block_gas_limit: None,
            seed: rng.gen(),
        };
        let report = MarketSim::one_hit(hit)
            .with_policy(Box::new(policy))
            .run_hit();
        let copier = report.workers[4];
        let copied: Vec<_> = report
            .chain
            .receipts()
            .filter(|r| r.sender == copier)
            .map(|r| (r.label, r.status.clone()))
            .collect();
        assert_eq!(
            copied,
            [(
                "commit",
                TxStatus::Reverted("hit #0: duplicate commitment".to_string())
            )]
        );
        assert_eq!(report.balances[&copier], 0);
        assert!(!report.settlements.contains_key(&copier));
        // The honest four were all paid.
        for w in &report.workers[..4] {
            assert_eq!(report.balances[w], BUDGET / 4);
        }
    }

    #[test]
    fn non_revealer_unpaid_share_refunded() {
        let mut behaviors = honest(3, 1.0);
        behaviors.push(WorkerBehavior::CommitNoReveal);
        let report = run(&mut rng(), behaviors);
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
        let report = run(&mut rng(), honest(4, 1.0));
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

    /// Table III's runs: the `table3_gas` bench's rng sequence (seed
    /// `0x7ab1e3`, the best-case run, then the worst-case run), then one
    /// worst-case run under Byzantium prices on the same rng.
    fn table_iii_runs(exec_threads: usize) -> [RunReport; 3] {
        let mut rng = StdRng::seed_from_u64(0x7ab1e3);
        let mut run_case = |accuracy: f64, schedule: GasSchedule| {
            let hit = OneHit {
                workload: imagenet_workload(BUDGET, &mut rng),
                behaviors: honest(4, accuracy),
                schedule,
                block_gas_limit: None,
                seed: rng.gen(),
            };
            MarketSim::one_hit_on(hit, exec_threads).run_hit()
        };
        [
            run_case(1.0, GasSchedule::istanbul()),
            run_case(0.0, GasSchedule::istanbul()),
            run_case(0.0, GasSchedule::byzantium()),
        ]
    }

    /// A run's rows less each receipt's intrinsic charge (base fee and
    /// calldata): the gas model alone, independent of the bytes any
    /// seed draws.
    fn model_rows(report: &RunReport) -> GasByPhase {
        let receipts: Vec<_> = report
            .chain
            .receipts()
            .map(|r| {
                let mut r = r.clone();
                let intrinsic: Gas = r
                    .gas_breakdown
                    .iter()
                    .filter(|(label, _)| *label == "intrinsic")
                    .map(|(_, g)| g)
                    .sum();
                r.gas_used -= intrinsic;
                r
            })
            .collect();
        GasByPhase::from_receipts(&receipts, report.chain.schedule())
    }

    /// Table III's exact figures, and beneath them the gas model's: the
    /// rows less each receipt's intrinsic charge are the same for every
    /// seed.
    #[test]
    fn table_iii_gas_by_phase_is_exact() {
        let [best, worst, byzantium] = table_iii_runs(0);
        assert_eq!(
            rows(&best.gas),
            (
                1_306_390,
                vec![44_390, 44_390, 44_390, 45_396],
                vec![2_560_450, 2_560_306, 2_560_294, 2_560_234],
                83_706,
                vec![],
                77_016,
                11_886_962,
            )
        );
        assert_eq!(
            rows(&worst.gas),
            (
                1_306_390,
                vec![44_390, 44_390, 44_390, 45_396],
                vec![2_560_102, 2_560_270, 2_560_186, 2_560_222],
                83_694,
                vec![272_366, 272_378, 272_330, 272_366],
                30_016,
                12_928_886,
            )
        );
        assert_eq!(
            rows(&byzantium.gas),
            (
                1_313_410,
                vec![44_906, 44_906, 44_906, 45_848],
                vec![3_200_058, 3_202_042, 3_200_442, 3_200_378],
                85_814,
                vec![1_545_994, 1_546_186, 1_545_994, 1_546_314],
                30_068,
                20_597_266,
            )
        );
        assert_eq!(
            model_rows(&best),
            GasByPhase {
                publish: 1_282_790,
                commits: vec![22_806, 22_806, 22_806, 23_812],
                reveals: vec![2_322_342; 4],
                golden: 61_586,
                rejects: vec![],
                finalize: 55_944,
            }
        );
        assert_eq!(
            model_rows(&worst),
            GasByPhase {
                publish: 1_282_790,
                commits: vec![22_806, 22_806, 22_806, 23_812],
                reveals: vec![2_322_342; 4],
                golden: 61_586,
                rejects: vec![235_298; 4],
                finalize: 8_944,
            }
        );
        assert_eq!(
            model_rows(&byzantium),
            GasByPhase {
                publish: 1_282_166,
                commits: vec![21_502, 21_502, 21_502, 22_508],
                reveals: vec![2_258_638; 4],
                golden: 61_482,
                rejects: vec![1_458_294; 4],
                finalize: 8_840,
            }
        );
    }

    #[test]
    fn collected_answers_match_ground_truth_for_perfect_workers() {
        let mut rng = rng();
        let workload = imagenet_workload(BUDGET, &mut rng);
        let truth = workload.truth.clone();
        let hit = OneHit {
            workload,
            behaviors: honest(4, 1.0),
            schedule: GasSchedule::istanbul(),
            block_gas_limit: None,
            seed: rng.gen(),
        };
        let report = MarketSim::one_hit(hit).run_hit();
        for (_, answer) in &report.collected {
            assert_eq!(answer.0, truth.0);
        }
    }

    /// The one-HIT path runs the parallel executor and the proving pool:
    /// Table III's three runs and the mixed-quality real-vs-ideal case
    /// report the same gas rows, settlements, balances and collected
    /// answers on one thread and on four.
    #[test]
    fn one_hit_reports_match_across_thread_counts() {
        type View = (
            GasByPhase,
            BTreeMap<Address, Settlement>,
            BTreeMap<Address, u128>,
            Vec<(Address, Answer)>,
        );
        let view = |r: &RunReport| -> View {
            let (gas, settlements) = (r.gas.clone(), r.settlements.clone());
            (gas, settlements, r.balances.clone(), r.collected.clone())
        };
        let mixed_quality = |exec_threads| {
            let mut rng = StdRng::seed_from_u64(2);
            let workload = imagenet_workload(BUDGET, &mut rng);
            let behaviors = [1.0, 0.9, 0.4, 0.0]
                .iter()
                .map(|&accuracy| {
                    let model = AnswerModel::Diligent { accuracy };
                    let answer =
                        draw_answer(&model, &workload.truth, &workload.spec.range, &mut rng);
                    WorkerBehavior::Fixed(answer)
                })
                .collect();
            let hit = OneHit {
                workload,
                behaviors,
                schedule: GasSchedule::istanbul(),
                block_gas_limit: None,
                seed: rng.gen(),
            };
            MarketSim::one_hit_on(hit, exec_threads).run_hit()
        };
        let views = |exec_threads| -> Vec<View> {
            let mut reports = Vec::from(table_iii_runs(exec_threads));
            reports.push(mixed_quality(exec_threads));
            reports.iter().map(view).collect()
        };
        let serial = views(1);
        assert_eq!(serial[3].3.len(), 2, "the mixed crowd has two good answers");
        assert_eq!(serial, views(4));
    }
}
