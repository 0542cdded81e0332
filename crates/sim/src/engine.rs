//! The block-driven marketplace engine.
//!
//! [`MarketSim`] multiplexes hundreds of Π_hit instances over one
//! simulated chain hosting a [`HitRegistry`]. Each block it:
//!
//! 1. publishes up to `spawn_per_block` new HITs (factory `Create`
//!    transactions, budget frozen into per-instance escrow),
//! 2. snapshots every live instance's phase and lets the agent pools
//!    react — workers race for commit slots (optionally overbooked so
//!    `TaskFull` contention actually happens), accepted workers reveal,
//!    requesters open gold standards, challenge bad submissions and
//!    finalize,
//! 3. advances the chain one round under the configured mempool policy
//!    (honest FIFO, reverse, or a designated front-runner), and
//! 4. harvests events into per-block and per-HIT metrics.
//!
//! Everything — key generation, workloads, worker noise, scheduling —
//! derives from the single `MarketConfig::seed`, so a run is exactly
//! reproducible, and a `PerProof` vs `Batched` pair of runs with the
//! same seed settles every worker identically (asserted by the
//! `tests/marketplace.rs` equivalence test).

use crate::agents::{RequesterAgent, WorkerAgent};
use crate::config::{BehaviorMix, MarketConfig, MarketPolicy};
use crate::metrics::{BlockStat, HitOutcome, MarketReport};
use dragoon_chain::mempool::PendingTx;
use dragoon_chain::store::{BlockStore, StoreError};
use dragoon_chain::{
    resolve_threads, Chain, FifoPolicy, FrontRunPolicy, GasSchedule, ReorderPolicy, ReversePolicy,
};
use dragoon_contract::SettlementMode;
use dragoon_contract::{
    HitEvent, HitId, HitMessage, HitRegistry, Phase, RegistryEvent, RegistryMessage, RejectReason,
    Settlement, REGISTRY_CODE_LEN,
};
use dragoon_core::task::EncryptedAnswer;
use dragoon_core::workload::generate_workload;
use dragoon_crypto::commitment::Commitment;
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_crypto::precomp::ProofCache;
use dragoon_econ::{EconEngine, JoinDecision};
use dragoon_ledger::Address;
use dragoon_net::NetSim;
use dragoon_protocol::{
    CommitArtifacts, ContentStore, JobKey, ProofJob, ProofPhase, ProvingService, Requester,
    Verdict, Worker, WorkerBehavior,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A read-only snapshot of one live instance, taken between blocks so
/// agent reactions don't fight the chain borrow.
struct HitSnapshot {
    id: HitId,
    agent: usize,
    phase: Phase,
    committed: Vec<Address>,
    k: usize,
    budget: u128,
    commit_deadline: Option<u64>,
    revealed: Vec<(Address, EncryptedAnswer)>,
    golden_open: bool,
    evaluate_deadline: Option<u64>,
    settled_workers: BTreeSet<Address>,
}

/// What one proof job hands back to the engine when its modeled latency
/// elapses. Every agent-step submission — including zero-cost control
/// messages — flows through one of these, so the mempool admission
/// order is a function of `(ready_tick, enqueue_seq)` alone and is
/// identical whether the proving service is enabled or not.
enum JobOutput {
    /// A commit proof finished: install the artifacts into the worker's
    /// session and submit the commit message.
    Commit {
        wi: usize,
        artifacts: CommitArtifacts,
    },
    /// A reveal opening finished (`None` for non-revealing behaviours).
    Reveal { wi: usize, msg: Option<HitMessage> },
    /// An evaluation finished: the requester's verdict per revealed
    /// worker, decided and proven off the hot path.
    Verdicts {
        agent: usize,
        verdicts: Vec<(Address, Verdict)>,
        cartel: bool,
    },
    /// A zero-cost control message (cancel, golden, reject flush,
    /// finalize) routed through the queue purely for ordering.
    Direct { sender: Address, msg: HitMessage },
}

/// The marketplace engine. Build with [`MarketSim::new`], run with
/// [`MarketSim::run`].
pub struct MarketSim {
    config: MarketConfig,
    chain: Chain<HitRegistry>,
    requesters: Vec<RequesterAgent>,
    workers: Vec<WorkerAgent>,
    next_publish: usize,
    /// Requester address → agent index (addresses are fixed at setup).
    agent_by_addr: BTreeMap<Address, usize>,
    agent_of_hit: BTreeMap<HitId, usize>,
    /// Worker indices that joined (or tried to join) each live hit;
    /// dropped when the hit settles.
    joined: BTreeMap<HitId, Vec<usize>>,
    /// Commitments visible for each live hit (mempool observation, for
    /// the copy-paste behaviour); dropped when the hit settles.
    observed: BTreeMap<HitId, Vec<Commitment>>,
    settled_hits: BTreeSet<HitId>,
    settled_block: BTreeMap<HitId, u64>,
    cancelled_hits: BTreeSet<HitId>,
    block_stats: Vec<BlockStat>,
    /// Settle-before-publish clock violations (see
    /// [`MarketReport::latency_violations`]).
    latency_violations: usize,
    events_seen: usize,
    rewards_paid: u128,
    workers_paid: usize,
    refunds: u128,
    /// The econ layer runtime (`None` when `config.econ` is disabled).
    econ: Option<EconEngine>,
    /// The network layer runtime (`None` when `config.net` is unset):
    /// every canonical submission and produced block fans out to a
    /// simulated gossip network of full replicas.
    net: Option<NetSim<HitRegistry>>,
    /// Next churn-arrival sequence number (continues the initial pool's
    /// address derivation).
    next_worker_index: u64,
    /// The proving pipeline: every agent-step submission flows through
    /// it as a keyed job (inline at zero latency when disabled).
    proving: ProvingService<JobOutput>,
    /// The keyed proof cache (fixed-base tables per encryption key),
    /// shared with the proving workers. A requester's table is retired
    /// when its HIT settles, so the cache holds the live HITs' keys.
    cache: Arc<ProofCache>,
    /// Commitments that became visible this round, appended to
    /// `observed` only after the round's jobs are built: an observing
    /// copy-paste attacker replays *prior rounds'* commitments, which
    /// keeps the observation set identical whether this round's commit
    /// proofs are computed inline or released later by the async pool.
    observed_buffer: Vec<(HitId, Commitment)>,
    /// The on-disk block store (`None` when `config.persist` is unset):
    /// every produced block's executed transaction list appends to the
    /// log, with full state snapshots on the configured cadence.
    store: Option<BlockStore>,
}

/// Deterministic weighted behaviour assignment by pool position — the
/// same draw for the initial pool and for churn arrivals.
fn behavior_for(mix: &BehaviorMix, index: u64) -> WorkerBehavior {
    let total_weight: u32 = mix.iter().map(|(_, w)| *w).sum();
    assert!(total_weight > 0, "behaviour mix must have positive weight");
    let mut ticket = (index as u32).wrapping_mul(7919) % total_weight;
    mix.iter()
        .find_map(|(b, w)| {
            if ticket < *w {
                Some(b.clone())
            } else {
                ticket -= w;
                None
            }
        })
        .expect("ticket < total_weight")
}

/// The per-requester mint: the scenario budget, or the dynamic-pricing
/// ceiling when the econ controller can push publish-time budgets above
/// it.
fn publish_headroom(config: &MarketConfig) -> u128 {
    config
        .econ
        .enabled
        .then(|| config.econ.pricing.map(|p| p.max))
        .flatten()
        .unwrap_or(config.budget)
        .max(config.budget)
}

/// The genesis every chain of a run starts from: the registry
/// deployment plus the requester mints. The canonical chain, every
/// network replica, and crash recovery ([`recover_market_chain`]) all
/// build the same genesis, so replaying the same blocks lands on
/// bit-identical state.
fn genesis_chain(
    settlement: SettlementMode,
    threads: usize,
    hits: u64,
    headroom: u128,
) -> Chain<HitRegistry> {
    let mut chain = Chain::deploy(
        HitRegistry::new(settlement).with_verify_threads(threads),
        REGISTRY_CODE_LEN,
        GasSchedule::istanbul(),
    );
    for i in 0..hits {
        chain
            .ledger
            .mint(Address::from_seed(0xd1a6_0000 + i), headroom);
    }
    chain
}

/// Recovers the chain of a persisted run from its block store: the
/// genesis this config deploys, restored from the newest valid
/// snapshot, with the block-log tail replayed on top. The result is
/// bit-identical ([`Chain::state_image`]) to the chain the live run
/// held after its last persisted block — the crash-recovery
/// differential in `tests/crash_recovery.rs` pins this byte for byte.
pub fn recover_market_chain(config: &MarketConfig) -> Result<Chain<HitRegistry>, StoreError> {
    let persist = config
        .persist
        .as_ref()
        .expect("recover_market_chain needs config.persist");
    let genesis = genesis_chain(
        config.settlement,
        resolve_threads(config.exec_threads),
        config.hits as u64,
        publish_headroom(config),
    );
    Chain::recover_from(&persist.dir, genesis)
}

impl MarketSim {
    /// Sets up the chain, registry and agent pools from a config.
    pub fn new(config: MarketConfig) -> Self {
        assert!(config.hits > 0, "a market needs at least one HIT");
        assert!(config.workers > 0, "a market needs workers");
        let mut rng = StdRng::seed_from_u64(config.seed);
        // One resolved thread budget drives both the parallel block
        // executor and block-boundary settlement verification.
        let threads = resolve_threads(config.exec_threads);
        let headroom = publish_headroom(&config);
        let mut chain = genesis_chain(config.settlement, threads, config.hits as u64, headroom)
            .with_exec_threads(threads);
        if let Some(limit) = config.block_gas_limit {
            chain = chain.with_block_gas_limit(limit);
        }
        // The econ layer: reputation, pricing, churn and adversary
        // classification, constructed before the agent pools so cartel
        // requesters can shape their workloads (strict θ) at generation.
        let base_reward = config.budget / config.k.max(1) as u128;
        let mut econ = config.econ.enabled.then(|| {
            EconEngine::for_market(
                config.econ.clone(),
                config.seed,
                config.budget,
                config.block_gas_limit,
            )
        });
        let mut store = ContentStore::new();
        let mut requesters = Vec::with_capacity(config.hits);
        for i in 0..config.hits as u64 {
            let addr = Address::from_seed(0xd1a6_0000 + i);
            let theta = econ.as_mut().map_or(config.theta, |e| {
                e.register_requester(i as usize, addr);
                e.theta_for(i as usize, config.golds, config.theta)
            });
            let workload = generate_workload(
                config.questions,
                config.golds,
                config.k,
                theta,
                PlaintextRange::binary(),
                config.budget,
                &mut rng,
            );
            let client = Requester::new(addr, &workload, &mut store, &mut rng);
            requesters.push(RequesterAgent::new(addr, client, workload));
        }
        let workers = (0..config.workers as u64)
            .map(|i| {
                let addr = Address::from_seed(0x3031_0000 + i);
                if let Some(e) = &mut econ {
                    e.register_worker(i as usize, addr, base_reward);
                }
                WorkerAgent::new(addr, behavior_for(&config.behavior_mix, i))
            })
            .collect();
        let agent_by_addr = requesters
            .iter()
            .enumerate()
            .map(|(i, a)| (a.addr, i))
            .collect();
        let next_worker_index = config.workers as u64;
        // The network layer: every replica starts from the exact genesis
        // the canonical chain started from (same registry deployment,
        // same requester mints), so a replica that has applied every
        // canonical block holds bit-identical state. Replicas replay
        // blocks serially — the producer already enforced the gas limit
        // and resolved execution order — so they carry no executor or
        // gas-cap configuration of their own.
        let net = config.net.clone().map(|net_cfg| {
            let settlement = config.settlement;
            let hits = config.hits as u64;
            NetSim::new(net_cfg, config.seed ^ 0x6e65_7477_6f72_6b00, move || {
                genesis_chain(settlement, threads, hits, headroom)
            })
        });
        // The block store wipes any previous run's artifacts in the
        // directory and opens a fresh append handle.
        let block_store = config.persist.as_ref().map(|p| {
            BlockStore::create(&p.dir, p.snapshot_every)
                .expect("block store dir must be writable")
                .with_flush_every(p.flush_every)
                .with_incremental(p.incremental)
                .with_compaction(p.compact_log)
                .with_background_writer(p.background_writer)
        });
        if net.is_some() || block_store.is_some() {
            // Record each produced block's executed transaction list so
            // the run loop can hand it to the gossip layer and/or the
            // block store.
            chain.set_record_block_txs(true);
        }
        let proving = ProvingService::new(config.seed, threads, config.proving);
        Self {
            config,
            chain,
            requesters,
            workers,
            next_publish: 0,
            agent_by_addr,
            agent_of_hit: BTreeMap::new(),
            joined: BTreeMap::new(),
            observed: BTreeMap::new(),
            settled_hits: BTreeSet::new(),
            settled_block: BTreeMap::new(),
            cancelled_hits: BTreeSet::new(),
            block_stats: Vec::new(),
            latency_violations: 0,
            events_seen: 0,
            rewards_paid: 0,
            workers_paid: 0,
            refunds: 0,
            econ,
            net,
            next_worker_index,
            proving,
            cache: Arc::new(ProofCache::new()),
            observed_buffer: Vec::new(),
            store: block_store,
        }
    }

    /// Submits a transaction to the canonical chain and — with the
    /// network layer on — gossips it to every replica's mempool.
    fn submit_tx(&mut self, sender: Address, msg: RegistryMessage) {
        if let Some(net) = &mut self.net {
            let seq = self.chain.submit(sender, msg.clone());
            net.gossip_tx(PendingTx { sender, msg, seq });
        } else {
            self.chain.submit(sender, msg);
        }
    }

    /// Runs the market to completion (every HIT settled) or to
    /// `max_blocks`, returning the report.
    pub fn run(self) -> MarketReport {
        self.run_keeping_chain().0
    }

    /// Like [`MarketSim::run`], but also hands back the chain so tests
    /// can audit post-run ledger state (escrow conservation under churn,
    /// per-instance balances).
    pub fn run_keeping_chain(self) -> (MarketReport, Chain<HitRegistry>) {
        let (report, chain, _) = self.run_keeping_net();
        (report, chain)
    }

    /// Like [`MarketSim::run_keeping_chain`], but also hands back the
    /// network simulation (when configured) so tests can audit every
    /// replica's final state against the canonical chain — the
    /// convergence differential.
    pub fn run_keeping_net(
        mut self,
    ) -> (
        MarketReport,
        Chain<HitRegistry>,
        Option<NetSim<HitRegistry>>,
    ) {
        let mut fifo = FifoPolicy;
        let mut reverse = ReversePolicy;
        let mut front_run = FrontRunPolicy::new(self.workers[0].addr);
        loop {
            let done = self.next_publish >= self.config.hits
                && self.settled_hits.len() >= self.agent_of_hit.len()
                && self.agent_of_hit.len() >= self.config.hits;
            if done || self.chain.round() >= self.config.max_blocks {
                break;
            }
            self.publish_step();
            self.agent_step();
            let policy: &mut dyn ReorderPolicy<RegistryMessage> = match self.config.policy {
                MarketPolicy::Fifo => &mut fifo,
                MarketPolicy::Reverse => &mut reverse,
                MarketPolicy::FrontRun => &mut front_run,
            };
            // Optimistic parallel execution over disjoint HIT instances;
            // delegates to the serial path at one thread. Reports are
            // identical either way (tests/parallel_equivalence.rs).
            {
                let _sp =
                    dragoon_trace::span(dragoon_trace::SpanKind::Execute, self.chain.round() + 1);
                self.chain.advance_round_parallel(policy);
            }
            if let Some(obs) = self.chain.last_observation() {
                dragoon_trace::event(
                    dragoon_trace::SpanKind::Execute,
                    obs.round,
                    &[
                        ("height", obs.round),
                        ("txs", obs.txs as u64),
                        ("reverted", obs.reverted as u64),
                        ("gas", obs.gas_used),
                    ],
                );
            }
            // Durability boundary: the produced block's executed
            // transaction list appends to the on-disk log (and a full
            // state snapshot lands on the configured cadence) before
            // the market reacts to it — a crash after this point loses
            // nothing.
            if let Some(store) = &mut self.store {
                self.chain
                    .persist_block(store)
                    .expect("block store append must succeed");
            }
            // One network tick per market round: the produced block's
            // executed transaction list fans out to the replicas.
            if let Some(net) = &mut self.net {
                net.broadcast_block(self.chain.last_block_txs().to_vec());
            }
            self.harvest();
            // Pipeline stage 3: kick block N's batched settlement
            // verification onto a background thread, so it overlaps
            // round N+1's agent-step generation and proving. The next
            // clock tick joins it before the first settlement verdict
            // is read; between here and there only the mempool fills,
            // so the pending set cannot change and the precomputed
            // verdicts apply (registry misses fall back inline).
            if self
                .config
                .persist
                .as_ref()
                .is_some_and(|p| p.overlap_verify)
            {
                self.chain.contract_mut().begin_overlap_verify();
            }
        }
        // Run-end barriers, in pipeline order: no verifier thread
        // outlives the run, and every handed-off block frame and
        // snapshot is on disk before the report is built (crash
        // recovery reads these files).
        self.chain.contract_mut().join_overlap();
        if let Some(store) = &mut self.store {
            let (hits, misses) = self.chain.contract().overlap_stats();
            store.record_overlap(hits, misses);
            store.drain().expect("block store drain must succeed");
        }
        // The market is done producing; let the network converge
        // (queued deliveries land, partitions heal on schedule, forks
        // reorg away).
        if let Some(net) = &mut self.net {
            net.drain();
        }
        // Whatever the proving queue still holds was overtaken by the
        // deadline backstops (its HIT settled ⊥ without the proof) —
        // count it dropped.
        self.proving.finish();
        let report = self.build_report();
        (report, self.chain, self.net)
    }

    /// Submits this block's `Create` transactions. With dynamic pricing
    /// enabled, each new HIT freezes the controller's *current* price as
    /// its budget `B` instead of the scenario default.
    fn publish_step(&mut self) {
        let mut spawned = 0;
        while self.next_publish < self.config.hits && spawned < self.config.spawn_per_block {
            let agent = &self.requesters[self.next_publish];
            let addr = agent.addr;
            let HitMessage::Publish(mut params) = agent.client.publish_msg() else {
                unreachable!("publish_msg returns Publish");
            };
            if let Some(e) = &self.econ {
                params.budget = e.next_budget(params.budget);
            }
            let windows = self.config.windows;
            self.submit_tx(addr, RegistryMessage::Create { windows, params });
            self.next_publish += 1;
            spawned += 1;
        }
    }

    /// Snapshots every live instance.
    fn snapshots(&self) -> Vec<HitSnapshot> {
        let registry = self.chain.contract();
        let mut out = Vec::new();
        for (&id, &agent) in &self.agent_of_hit {
            if self.settled_hits.contains(&id) {
                continue;
            }
            let Some(hit) = registry.hit(id) else {
                continue;
            };
            if hit.is_settled() {
                continue;
            }
            let committed = hit.committed_workers().to_vec();
            // Revealed ciphertexts are only consumed by the one block in
            // which the requester decides its verdicts — skip the clones
            // everywhere else (they dominate snapshot cost otherwise).
            // Honest requesters decide after their golden opening
            // confirms; cartel requesters decide *before*, off-chain, so
            // the golden can be withheld when nothing is rejectable.
            let peeks_early = self
                .econ
                .as_ref()
                .is_some_and(|e| e.is_cartel(&self.requesters[agent].addr))
                && !self.requesters[agent].verdicts_ready;
            let wants_reveals = peeks_early
                || (hit.golden().is_some()
                    && !self.requesters[agent].verdicts_sent
                    && !self.requesters[agent].verdicts_ready);
            let revealed = if hit.phase() == Phase::Evaluate && wants_reveals {
                committed
                    .iter()
                    .filter_map(|w| hit.revealed(w).map(|cts| (*w, cts.clone())))
                    .collect()
            } else {
                Vec::new()
            };
            let settled_workers = committed
                .iter()
                .filter(|w| hit.settlement(w).is_some())
                .copied()
                .collect();
            out.push(HitSnapshot {
                id,
                agent,
                phase: hit.phase(),
                committed,
                k: hit.params().map_or(0, |p| p.k),
                budget: hit.params().map_or(0, |p| p.budget),
                commit_deadline: hit.commit_deadline(),
                revealed,
                golden_open: hit.golden().is_some(),
                evaluate_deadline: hit.evaluate_deadline(),
                settled_workers,
            });
        }
        out
    }

    /// Lets workers and requesters react to every live instance.
    ///
    /// Order matters for determinism: (1) proof jobs from earlier
    /// rounds whose latency has elapsed release first, (2) the drives
    /// enqueue this round's jobs, (3) the batch computes, (4) zero-
    /// latency outputs release, (5) this round's commitments join the
    /// observation set, (6) everything released this round enters the
    /// mempool in release order. Step 3 fans out over the run's thread
    /// budget whether or not latency is modeled. With the service
    /// disabled every job is zero-latency, so steps 1 and 4 collapse
    /// into the classic synchronous round — byte-identical reports.
    fn agent_step(&mut self) {
        let round = self.chain.round();
        let mut submissions: Vec<(Address, RegistryMessage)> = Vec::new();
        self.process_ready(round, &mut submissions);
        let snapshots = self.snapshots();
        // Reputation-ordered worker selection: one ranking per block
        // (scores only move at harvest), shared by every commit-phase
        // HIT — high-reputation workers get first claim on fresh slots,
        // and the per-worker capacity cap spreads the load.
        let ranked: Option<Vec<usize>> =
            self.econ.as_ref().filter(|e| e.orders_by_score()).map(|e| {
                let mut candidates: Vec<(usize, Address)> = self
                    .workers
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.active)
                    .map(|(i, w)| (i, w.addr))
                    .collect();
                e.rank(&mut candidates, round);
                candidates.into_iter().map(|(i, _)| i).collect()
            });
        let mut jobs: Vec<ProofJob<JobOutput>> = Vec::new();
        for snap in &snapshots {
            match snap.phase {
                Phase::Commit => self.drive_commit(snap, round, ranked.as_deref(), &mut jobs),
                Phase::Reveal => self.drive_reveal(snap, &mut jobs),
                Phase::Evaluate => self.drive_evaluate(snap, round, &mut jobs),
                Phase::Setup | Phase::Closed => {}
            }
        }
        self.proving.submit_batch(round, jobs);
        self.process_ready(round, &mut submissions);
        // This round's commitments become observable next round.
        for (id, commitment) in std::mem::take(&mut self.observed_buffer) {
            self.observed.entry(id).or_default().push(commitment);
        }
        for (sender, msg) in submissions {
            self.submit_tx(sender, msg);
        }
    }

    /// Releases every proof job whose modeled latency has elapsed and
    /// turns its output into agent bookkeeping plus mempool submissions.
    /// Outputs whose session or HIT was overtaken by a deadline backstop
    /// are discarded as stale.
    fn process_ready(&mut self, round: u64, submissions: &mut Vec<(Address, RegistryMessage)>) {
        for (key, output) in self.proving.drain_ready(round) {
            let id: HitId = key.instance;
            match output {
                JobOutput::Commit { wi, artifacts } => {
                    let w = &mut self.workers[wi];
                    let Some(session) = w.sessions.get_mut(&id) else {
                        // Commit window closed / HIT settled before the
                        // proof landed; the slot was already reclaimed.
                        self.proving.stats_mut().stale += 1;
                        continue;
                    };
                    let msg = session.install_commit(artifacts);
                    if let HitMessage::Commit { commitment } = &msg {
                        self.observed_buffer.push((id, *commitment));
                    }
                    submissions.push((w.addr, RegistryMessage::Hit { id, msg }));
                }
                JobOutput::Reveal { wi, msg } => {
                    if self.settled_hits.contains(&id) {
                        self.proving.stats_mut().stale += 1;
                        continue;
                    }
                    if let Some(msg) = msg {
                        submissions.push((self.workers[wi].addr, RegistryMessage::Hit { id, msg }));
                    }
                }
                JobOutput::Verdicts {
                    agent,
                    verdicts,
                    cartel,
                } => {
                    if self.settled_hits.contains(&id) {
                        self.proving.stats_mut().stale += 1;
                        continue;
                    }
                    let a = &mut self.requesters[agent];
                    for (worker, verdict) in verdicts {
                        match verdict {
                            Verdict::Accept { .. } => a.collected += 1,
                            Verdict::RejectOutOfRange { msg }
                            | Verdict::RejectLowQuality { msg, .. } => {
                                a.reject_targets.push(worker);
                                if cartel {
                                    a.pending_rejects.push(msg);
                                } else {
                                    submissions.push((a.addr, RegistryMessage::Hit { id, msg }));
                                }
                            }
                        }
                    }
                    if cartel {
                        // The withhold decision lands with the verdicts:
                        // only now is the rejectable count known.
                        let rejectable = a.pending_rejects.len();
                        if let Some(e) = &mut self.econ {
                            if e.withholds_golden(&a.addr, rejectable) {
                                a.golden_withheld = true;
                                a.golden_sent = true;
                                a.verdicts_sent = true;
                            }
                        }
                    }
                    a.verdicts_landed = true;
                }
                JobOutput::Direct { sender, msg } => {
                    submissions.push((sender, RegistryMessage::Hit { id, msg }));
                }
            }
        }
    }

    /// A zero-cost control job: carries an already-built message through
    /// the queue so its mempool position is decided by the same
    /// `(ready_tick, seq)` order as every proof.
    fn control_job(
        sender: Address,
        id: HitId,
        msg: HitMessage,
        jobs: &mut Vec<ProofJob<JobOutput>>,
    ) {
        jobs.push(ProofJob {
            key: JobKey {
                agent: sender,
                instance: id,
                phase: ProofPhase::Control,
            },
            cost: 0,
            run: Box::new(move |_rng: &mut StdRng| JobOutput::Direct { sender, msg }),
        });
    }

    /// Commit phase: eligible workers race for slots; the requester
    /// cancels an unfillable task after its timeout. With the econ layer
    /// on, candidates come reputation-ordered (`ranked`), departed
    /// workers sit out, the reputation gate and reservation wages filter
    /// the rest, and sybil policies pick each session's behaviour.
    fn drive_commit(
        &mut self,
        snap: &HitSnapshot,
        round: u64,
        ranked: Option<&[usize]>,
        jobs: &mut Vec<ProofJob<JobOutput>>,
    ) {
        let agent = &mut self.requesters[snap.agent];
        if let Some(deadline) = snap.commit_deadline {
            if round >= deadline && snap.committed.len() < snap.k && !agent.cancel_sent {
                agent.cancel_sent = true;
                Self::control_job(agent.addr, snap.id, HitMessage::Cancel, jobs);
                return;
            }
        }
        let target = snap.k + self.config.overbook;
        let joined = self.joined.entry(snap.id).or_default();
        if joined.len() >= target {
            return;
        }
        let ek = agent.client.public_key();
        // Disjoint field borrows: the workload stays borrowed from
        // `requesters` while `workers` etc. are mutated below.
        let workload = &self.requesters[snap.agent].workload;
        let observed = self.observed.entry(snap.id).or_default();
        let reward = if snap.k > 0 {
            snap.budget / snap.k as u128
        } else {
            0
        };
        // Rotate the pool start per hit so load spreads deterministically
        // (reputation ordering, when enabled, replaces the rotation).
        let pool = self.workers.len();
        let start = (snap.id as usize).wrapping_mul(13) % pool;
        let candidates = ranked.map_or(pool, <[usize]>::len);
        for off in 0..candidates {
            if joined.len() >= target {
                break;
            }
            let wi = match ranked {
                Some(order) => order[off],
                None => (start + off) % pool,
            };
            if !self.workers[wi].active || joined.contains(&wi) {
                continue;
            }
            // O(1) capacity check: the counter is maintained on join and
            // in `harvest`, replacing a rescan of the session map against
            // the settled set for every candidate of every live HIT.
            if self.workers[wi].live_sessions >= self.config.worker_capacity {
                continue;
            }
            // Econ filters: reputation gate, reservation wage, and the
            // sybil policy's per-session behaviour choice.
            let mut policy_behavior = None;
            if let Some(e) = &mut self.econ {
                match e.join_decision(&self.workers[wi].addr, reward, round) {
                    JoinDecision::Join(b) => policy_behavior = b,
                    JoinDecision::Gated | JoinDecision::Declined => continue,
                }
            }
            let w = &mut self.workers[wi];
            let behavior = policy_behavior.unwrap_or_else(|| w.behavior.clone());
            // The copy decision happens at enqueue time, against
            // commitments observed in *prior* rounds.
            let copied = match &behavior {
                WorkerBehavior::CopyPaste => match observed.first() {
                    Some(c) => Some(*c),
                    None => continue, // a copier with nothing to copy yet
                },
                _ => None,
            };
            // The slot is claimed now — the session exists and counts
            // against capacity — while the answer draw / encryption /
            // commitment run as a proof job.
            joined.push(wi);
            w.sessions
                .insert(snap.id, Worker::new(w.addr, behavior.clone()));
            w.live_sessions += 1;
            let truth = workload.truth.clone();
            let range = workload.spec.range;
            let cache = Arc::clone(&self.cache);
            // Modeled cost: two group ops per encrypted item plus the
            // commitment itself.
            let cost = 2 * truth.0.len() as u64 + 2;
            jobs.push(ProofJob {
                key: JobKey {
                    agent: w.addr,
                    instance: snap.id,
                    phase: ProofPhase::Commit,
                },
                cost,
                run: Box::new(move |rng: &mut StdRng| JobOutput::Commit {
                    wi,
                    artifacts: Worker::prepare_commit(
                        &behavior,
                        &truth,
                        range,
                        &ek,
                        copied,
                        Some(&cache),
                        rng,
                    )
                    .expect("commit inputs decided at enqueue"),
                }),
            });
        }
    }

    /// Reveal phase: accepted sessions open their commitments. Opening
    /// a commitment is free (no proving), so reveal jobs carry cost 0
    /// and always release in the round they were enqueued.
    fn drive_reveal(&mut self, snap: &HitSnapshot, jobs: &mut Vec<ProofJob<JobOutput>>) {
        for wi in self.joined.get(&snap.id).cloned().unwrap_or_default() {
            let w = &mut self.workers[wi];
            // A departed worker never reveals: its commitment settles as
            // `⊥` and the escrowed share flows back to the requester.
            if !w.active {
                continue;
            }
            if !snap.committed.contains(&w.addr) || w.revealed.contains(&snap.id) {
                continue;
            }
            let Some(session) = w.sessions.get(&snap.id) else {
                continue;
            };
            w.revealed.push(snap.id);
            let behavior = session.behavior.clone();
            let cts = session.ciphertexts().cloned();
            let key = session.commit_key();
            jobs.push(ProofJob {
                key: JobKey {
                    agent: w.addr,
                    instance: snap.id,
                    phase: ProofPhase::Reveal,
                },
                cost: 0,
                run: Box::new(move |rng: &mut StdRng| JobOutput::Reveal {
                    wi,
                    msg: Worker::reveal_msg_with(&behavior, cts.as_ref(), key, rng),
                }),
            });
        }
    }

    /// Evaluate phase: the requester sequences golden → rejections →
    /// finalize, waiting for each stage to confirm on-chain (rushing
    /// adversaries can reorder within a round). Cartel requesters run
    /// [`MarketSim::drive_evaluate_cartel`] instead.
    fn drive_evaluate(
        &mut self,
        snap: &HitSnapshot,
        round: u64,
        jobs: &mut Vec<ProofJob<JobOutput>>,
    ) {
        let is_cartel = self
            .econ
            .as_ref()
            .is_some_and(|e| e.is_cartel(&self.requesters[snap.agent].addr));
        if is_cartel {
            self.drive_evaluate_cartel(snap, round, jobs);
            return;
        }
        let agent = &mut self.requesters[snap.agent];
        if !agent.golden_sent {
            agent.golden_sent = true;
            Self::control_job(agent.addr, snap.id, agent.client.golden_msg(), jobs);
        } else if !agent.verdicts_sent && snap.golden_open {
            agent.verdicts_sent = true;
            Self::evaluate_job(snap, agent.addr, agent.client.evaluator(), false, jobs);
        } else if !agent.finalize_sent
            && agent.verdicts_sent
            && agent.verdicts_landed
            && agent
                .reject_targets
                .iter()
                .all(|w| snap.settled_workers.contains(w))
            && snap.evaluate_deadline.is_some_and(|d| round >= d)
        {
            agent.finalize_sent = true;
            Self::control_job(agent.addr, snap.id, HitMessage::Finalize, jobs);
        }
    }

    /// Enqueues the per-HIT evaluation job: decrypting every revealed
    /// submission and proving each rejection. Cost scales with what is
    /// actually evaluated, so a slow (high-latency) evaluation delays
    /// the rejections — and through the `verdicts_landed` gate the
    /// finalize — into later blocks.
    fn evaluate_job(
        snap: &HitSnapshot,
        addr: Address,
        evaluator: dragoon_protocol::Evaluator,
        cartel: bool,
        jobs: &mut Vec<ProofJob<JobOutput>>,
    ) {
        let revealed = snap.revealed.clone();
        let cost = revealed
            .iter()
            .map(|(_, cts)| evaluator.evaluation_cost(cts))
            .sum();
        let agent = snap.agent;
        jobs.push(ProofJob {
            key: JobKey {
                agent: addr,
                instance: snap.id,
                phase: ProofPhase::Evaluate,
            },
            cost,
            run: Box::new(move |rng: &mut StdRng| {
                let verdicts = revealed
                    .iter()
                    .map(|(w, cts)| (*w, evaluator.evaluate(*w, cts, rng)))
                    .collect();
                JobOutput::Verdicts {
                    agent,
                    verdicts,
                    cartel,
                }
            }),
        });
    }

    /// The golden-withholding cartel's evaluate phase: every verdict is
    /// decided **off-chain first** (the requester holds the decryption
    /// key; nothing forces evaluation through the chain), and the gold
    /// standards open only when at least one rejection will land. A HIT
    /// whose workers all pass keeps its golds secret — reusable across
    /// the cartel's other HITs — and settles through the deadline
    /// backstop; a HIT with rejectable work opens the golds and claws
    /// back every rejected share.
    fn drive_evaluate_cartel(
        &mut self,
        snap: &HitSnapshot,
        round: u64,
        jobs: &mut Vec<ProofJob<JobOutput>>,
    ) {
        let agent = &mut self.requesters[snap.agent];
        if !agent.verdicts_ready {
            agent.verdicts_ready = true;
            // The off-chain evaluation runs as a proof job; the withhold
            // decision is made when its verdicts land (`process_ready`).
            Self::evaluate_job(snap, agent.addr, agent.client.evaluator(), true, jobs);
        }
        if !agent.verdicts_landed {
            // Verdicts still proving — nothing further to sequence yet.
            return;
        }
        if agent.golden_withheld {
            // Nothing rejectable: settle through the deadline backstop
            // (the explicit finalize just lands it a round earlier).
            if !agent.finalize_sent && snap.evaluate_deadline.is_some_and(|d| round >= d) {
                agent.finalize_sent = true;
                Self::control_job(agent.addr, snap.id, HitMessage::Finalize, jobs);
            }
            return;
        }
        if !agent.golden_sent {
            agent.golden_sent = true;
            Self::control_job(agent.addr, snap.id, agent.client.golden_msg(), jobs);
        } else if !agent.verdicts_sent && snap.golden_open {
            agent.verdicts_sent = true;
            for msg in std::mem::take(&mut agent.pending_rejects) {
                Self::control_job(agent.addr, snap.id, msg, jobs);
            }
        } else if !agent.finalize_sent
            && agent.verdicts_sent
            && agent
                .reject_targets
                .iter()
                .all(|w| snap.settled_workers.contains(w))
            && snap.evaluate_deadline.is_some_and(|d| round >= d)
        {
            agent.finalize_sent = true;
            Self::control_job(agent.addr, snap.id, HitMessage::Finalize, jobs);
        }
    }

    /// Post-block bookkeeping: map fresh `Created` events to agents,
    /// record settlements and payment flows, accumulate block stats.
    fn harvest(&mut self) {
        let round = self.chain.round();
        let events = self.chain.events();
        let mut commit_closed: Vec<HitId> = Vec::new();
        let mut settled_now: Vec<HitId> = Vec::new();
        let mut cancelled_now = 0usize;
        for (at, event) in &events[self.events_seen..] {
            match event {
                RegistryEvent::Created { id, requester, .. } => {
                    let agent = self.agent_by_addr[requester];
                    self.requesters[agent].published_block = Some(*at);
                    self.agent_of_hit.insert(*id, agent);
                }
                RegistryEvent::Hit { id, event } => match event {
                    HitEvent::CommitClosed => commit_closed.push(*id),
                    HitEvent::Paid { amount, .. } => {
                        self.rewards_paid += amount;
                        self.workers_paid += 1;
                    }
                    HitEvent::Refunded { requester, amount } => {
                        self.refunds += amount;
                        if let Some(e) = &mut self.econ {
                            e.note_refund(requester, *amount);
                        }
                    }
                    HitEvent::Cancelled { refunded } => {
                        self.refunds += refunded;
                        cancelled_now += 1;
                        self.cancelled_hits.insert(*id);
                        if self.settled_hits.insert(*id) {
                            settled_now.push(*id);
                        }
                        self.settled_block.entry(*id).or_insert(*at);
                    }
                    HitEvent::Closed => {
                        if self.settled_hits.insert(*id) {
                            settled_now.push(*id);
                        }
                        self.settled_block.entry(*id).or_insert(*at);
                    }
                    _ => {}
                },
            }
        }
        self.events_seen = events.len();
        // A closed commit phase frees the losers of overbooked races:
        // their commit reverted (TaskFull), so their session holds no
        // slot and must not count against worker capacity.
        for &id in &commit_closed {
            let committed: Vec<Address> = self
                .chain
                .contract()
                .hit(id)
                .map(|h| h.committed_workers().to_vec())
                .unwrap_or_default();
            for &wi in self.joined.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                if !committed.contains(&self.workers[wi].addr)
                    && self.workers[wi].sessions.remove(&id).is_some()
                {
                    self.workers[wi].live_sessions -= 1;
                }
            }
        }
        // A settled (closed or cancelled) HIT releases every session slot
        // its workers held — this is the decrement that keeps the O(1)
        // capacity counters exact — and everything the engine kept only
        // while the HIT was live: the join list, the observed commitments
        // and the requester key's fixed-base table (looked up by this
        // HIT's commit jobs alone, all computed before the commit phase
        // closed).
        for &id in &settled_now {
            for wi in self.joined.remove(&id).unwrap_or_default() {
                if self.workers[wi].sessions.remove(&id).is_some() {
                    self.workers[wi].live_sessions -= 1;
                }
            }
            self.observed.remove(&id);
            let requester = &self.requesters[self.agent_of_hit[&id]];
            self.cache.retire(&requester.client.public_key().0);
        }
        // Econ block boundary: settlement receipts feed the reputation
        // book and per-class payout metrics, the fill/latency outcomes
        // feed the pricing controller, and the churn process reshapes
        // the worker pool. Everything derives from committed chain
        // state, so the layer is identical at every thread count.
        if let Some(e) = &mut self.econ {
            let mut latencies: Vec<u64> = Vec::new();
            for &id in &settled_now {
                let agent = self.agent_of_hit[&id];
                let requester = self.requesters[agent].addr;
                if let Some(hit) = self.chain.contract().hit(id) {
                    e.on_settled_hit(&requester, hit.settlement_receipts(), round);
                }
                if !self.cancelled_hits.contains(&id) {
                    if let (Some(&settled), Some(published)) = (
                        self.settled_block.get(&id),
                        self.requesters[agent].published_block,
                    ) {
                        // A HIT cannot settle before it was published;
                        // a violation means the block clock went
                        // backwards. Count it instead of clamping the
                        // latency to 0, which would silently skew the
                        // pricing controller's input.
                        debug_assert!(
                            settled >= published,
                            "hit #{id} settled at block {settled} before publish at {published}"
                        );
                        if let Some(latency) = settled.checked_sub(published) {
                            latencies.push(latency);
                        } else {
                            self.latency_violations += 1;
                            dragoon_trace::counter_inc("engine_latency_violations_total");
                        }
                    }
                }
            }
            let observation = self
                .chain
                .last_observation()
                .expect("advance_round produced a block");
            e.observe_block(&observation, commit_closed.len(), cancelled_now, &latencies);
            // Churn: departures first (against the current active list,
            // positions applied with removal), then arrivals extending
            // the pool with the next derived addresses.
            let mut actives: Vec<usize> = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.active)
                .map(|(i, _)| i)
                .collect();
            let decision = e.churn_step(actives.len());
            for pos in decision.departs {
                let wi = actives.remove(pos);
                self.workers[wi].active = false;
            }
            let base_reward = self.config.budget / self.config.k.max(1) as u128;
            for _ in 0..decision.joins {
                let index = self.next_worker_index;
                self.next_worker_index += 1;
                let addr = Address::from_seed(0x3031_0000 + index);
                e.register_worker(index as usize, addr, base_reward);
                self.workers.push(WorkerAgent::new(
                    addr,
                    behavior_for(&self.config.behavior_mix, index),
                ));
            }
        }
        let observation = self
            .chain
            .last_observation()
            .expect("advance_round produced a block");
        self.block_stats.push(BlockStat {
            height: round,
            txs: observation.txs,
            reverted: observation.reverted,
            gas_used: observation.gas_used,
        });
    }

    /// Assembles the final report.
    fn build_report(&self) -> MarketReport {
        let registry = self.chain.contract();
        let mut outcomes = Vec::new();
        let mut workers_rejected = 0;
        for (&id, &agent) in &self.agent_of_hit {
            let hit = registry.hit(id).expect("created instance");
            let (mut paid, mut rejected, mut no_reveal) = (0, 0, 0);
            for w in hit.committed_workers() {
                match hit.settlement(w) {
                    Some(Settlement::Paid) => paid += 1,
                    Some(Settlement::Rejected(RejectReason::NoReveal)) => no_reveal += 1,
                    Some(Settlement::Rejected(_)) => rejected += 1,
                    None => {}
                }
            }
            workers_rejected += rejected;
            outcomes.push(HitOutcome {
                id,
                published_block: self.requesters[agent].published_block.unwrap_or(0),
                settled_block: self.settled_block.get(&id).copied(),
                cancelled: self.cancelled_hits.contains(&id),
                paid,
                rejected,
                no_reveal,
            });
        }
        let latencies: Vec<u64> = outcomes.iter().filter_map(HitOutcome::latency).collect();
        let latency_mean_blocks = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        };
        let nonempty: Vec<&BlockStat> = self.block_stats.iter().filter(|b| b.txs > 0).collect();
        let gas_per_block_mean = if nonempty.is_empty() {
            0.0
        } else {
            nonempty.iter().map(|b| b.gas_used).sum::<u64>() as f64 / nonempty.len() as f64
        };
        let hits_cancelled = self.cancelled_hits.len();
        let hits_settled = self.settled_hits.len() - hits_cancelled;
        let mut proving = *self.proving.stats();
        let cache = self.cache.stats();
        proving.cache_hits = cache.hits;
        proving.cache_misses = cache.misses;
        MarketReport {
            seed: self.config.seed,
            settlement: self.config.settlement,
            blocks: self.chain.round(),
            hits_published: self.agent_of_hit.len(),
            hits_settled,
            hits_cancelled,
            hits_unfinished: self.agent_of_hit.len() - self.settled_hits.len(),
            total_gas: self.chain.total_gas(),
            gas_per_block_mean,
            gas_per_block_max: self
                .block_stats
                .iter()
                .map(|b| b.gas_used)
                .max()
                .unwrap_or(0),
            block_gas_limit: self.config.block_gas_limit,
            gas_utilization: self
                .config
                .block_gas_limit
                .map(|l| gas_per_block_mean / l as f64),
            latency_mean_blocks,
            latency_max_blocks: latencies.iter().copied().max().unwrap_or(0),
            answers_collected: self.requesters.iter().map(|a| a.collected).sum(),
            rewards_paid: self.rewards_paid,
            workers_paid: self.workers_paid,
            workers_rejected,
            refunds: self.refunds,
            reverted_txs: self.block_stats.iter().map(|b| b.reverted).sum(),
            latency_violations: self.latency_violations,
            batch: registry.batch_stats(),
            parallel: self.chain.parallel_stats(),
            econ: self.econ.as_ref().map(|e| e.report(self.chain.round())),
            net: self.net.as_ref().map(NetSim::report),
            proving,
            persist: self.store.as_ref().map(BlockStore::stats),
            outcomes,
            block_stats: self.block_stats.clone(),
        }
    }

    /// The chain, for post-run inspection in tests.
    pub fn chain(&self) -> &Chain<HitRegistry> {
        &self.chain
    }
}

/// Convenience: build and run in one call.
pub fn run_market(config: MarketConfig) -> MarketReport {
    MarketSim::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of `"key":<digits>` in a JSON line.
    fn json_u64(json: &str, key: &str) -> u64 {
        let at = json.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
        let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
        json[at..at + digits].parse().expect("a number")
    }

    /// Tables live as long as their HIT: after the `marketplace` golden
    /// scenario (every HIT settles) nothing is resident, and retiring at
    /// settle never turned a hit into a miss — the counters are the
    /// committed golden's.
    #[test]
    fn every_settled_hit_retired_its_table() {
        let golden = include_str!("../../../tests/golden/marketplace_seed42.json");
        let sim = MarketSim::new(MarketConfig {
            hits: 250,
            spawn_per_block: 10,
            workers: 90,
            worker_capacity: 5,
            seed: 42,
            max_blocks: 900,
            exec_threads: 1,
            ..MarketConfig::default()
        });
        let cache = Arc::clone(&sim.cache);
        let report = sim.run();
        assert_eq!((report.hits_settled, report.hits_unfinished), (250, 0));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(report.proving.cache_hits, json_u64(golden, "cache_hits"));
        assert_eq!(
            report.proving.cache_misses,
            json_u64(golden, "cache_misses")
        );
        assert_eq!(report.proving.cache_misses, 250, "one build per HIT");
    }
}
