//! The block-driven marketplace engine.
//!
//! [`MarketSim`] multiplexes hundreds of Π_hit instances over one
//! simulated chain hosting a [`HitRegistry`]. Each block it:
//!
//! 1. publishes up to `spawn_per_block` new HITs (factory `Create`
//!    transactions, budget frozen into per-instance escrow),
//! 2. lets the agent pools react to every live instance, read in place
//!    from the registry — workers race for commit slots (optionally
//!    overbooked so `TaskFull` contention actually happens), accepted
//!    workers reveal, and each requester takes the next step of its
//!    [`Sequencer`](dragoon_protocol::Sequencer) (cancel, open the gold
//!    standards, evaluate, challenge bad submissions, finalize),
//! 3. advances the chain one round under the mempool policy (honest
//!    FIFO, unless [`MarketSim::with_policy`] put an adversarial
//!    scheduler in its place), and
//! 4. harvests events into per-block metrics and the per-HIT table —
//!    one record per created HIT plus the set of live ids, the only
//!    per-HIT bookkeeping the engine keeps.
//!
//! Everything — key generation, workloads, worker noise, scheduling —
//! derives from the single `MarketConfig::seed`, so a run is exactly
//! reproducible, and a `PerProof` vs `Batched` pair of runs with the
//! same seed settles every worker identically (asserted by the
//! `tests/marketplace.rs` equivalence test).
//!
//! A single task runs through the same loop: [`MarketSim::one_hit`]
//! builds a one-requester market from a given workload and one worker
//! per given behaviour, and [`MarketSim::run_hit`] views its end state
//! as a [`RunReport`] — Table III's gas rows and the real world of the
//! real-vs-ideal comparison (`tests/real_vs_ideal.rs`).

mod one_hit;

pub use one_hit::{OneHit, RunReport};

use crate::agents::{RequesterAgent, WorkerAgent};
use crate::config::{BehaviorMix, MarketConfig};
use crate::metrics::{BlockStat, HitOutcome, MarketReport};
use dragoon_chain::mempool::PendingTx;
use dragoon_chain::store::{BlockStore, StoreError};
use dragoon_chain::{par_map, resolve_threads, Chain, FifoPolicy, GasSchedule, ReorderPolicy};
use dragoon_contract::{
    HitContract, HitEvent, HitId, HitMessage, HitRegistry, Phase, RegistryEvent, RegistryMessage,
    RejectReason, Settlement, SettlementMode, REGISTRY_CODE_LEN,
};
use dragoon_core::workload::generate_workload;
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
use dragoon_crypto::field::Fr;
use dragoon_crypto::precomp::{FixedBaseTable, BUILD_CHUNK};
use dragoon_econ::{EconEngine, JoinDecision};
use dragoon_ledger::Address;
use dragoon_net::{NetFeed, NetSim, RelayPolicy};
use dragoon_protocol::{
    requester_addr, worker_addr, CommitArtifacts, ContentStore, JobKey, ProofJob, ProofPhase,
    ProvingService, Requester, Step, Strategy, Verdict, Worker, WorkerBehavior,
};
use dragoon_trace::{SpanKind, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What the engine knows about one created HIT. Keyed by the id its
/// `Created` event carried: a reordering mempool policy creates
/// instances out of publish order.
#[derive(Default)]
struct HitRecord {
    /// Index of the owning requester agent.
    agent: usize,
    /// Block in which the instance was created.
    published_block: u64,
    /// Block in which it settled (closed or cancelled), once it has.
    settled_block: Option<u64>,
    /// Whether it was cancelled unfilled.
    cancelled: bool,
    /// Worker indices that joined (or tried to join); emptied when the
    /// hit settles.
    joined: Vec<usize>,
    /// Commitments visible for the hit (mempool observation, for the
    /// copy-paste behaviour); emptied when the hit settles.
    observed: Vec<Commitment>,
}

/// A job as a drive enqueues it. A commit job is made only after the
/// round's key tables are built, from the table of the requester it
/// encrypts to (`reads`; `None` for a replay, which encrypts nothing).
enum Queued {
    Ready(ProofJob<JobOutput>),
    Commit {
        reads: Option<usize>,
        make: Box<dyn FnOnce(Option<Arc<FixedBaseTable>>) -> ProofJob<JobOutput>>,
    },
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
    Reveal(Option<HitMessage>),
    /// An evaluation finished: the requester's verdict per revealed
    /// worker, decided and proven off the hot path.
    Verdicts(Vec<(Address, Verdict)>),
    /// A zero-cost control message (cancel, golden, reject flush,
    /// finalize) routed through the queue purely for ordering.
    Direct(HitMessage),
}

/// The marketplace engine. Build with [`MarketSim::new`] (or
/// [`MarketSim::one_hit`]), run with [`MarketSim::run`] (or
/// [`MarketSim::run_hit`]).
pub struct MarketSim {
    config: MarketConfig,
    /// The run's trace handle (off unless built by [`MarketSim::traced`]).
    tracer: Tracer,
    chain: Chain<HitRegistry>,
    /// The mempool scheduler every round runs under: FIFO, unless
    /// [`MarketSim::with_policy`] replaced it.
    policy: Box<dyn ReorderPolicy<RegistryMessage>>,
    requesters: Vec<RequesterAgent>,
    workers: Vec<WorkerAgent>,
    next_publish: usize,
    /// Requester address → agent index (addresses are fixed at setup).
    agent_by_addr: BTreeMap<Address, usize>,
    /// Every created HIT.
    hits: BTreeMap<HitId, HitRecord>,
    /// The created HITs that have not settled — all a block's agent
    /// step walks.
    live: BTreeSet<HitId>,
    block_stats: Vec<BlockStat>,
    /// Settle-before-publish clock violations (see
    /// [`MarketReport::latency_violations`]).
    latency_violations: usize,
    events_seen: usize,
    rewards_paid: u128,
    workers_paid: usize,
    refunds: u128,
    /// The econ layer runtime (`None` when `config.econ` is).
    econ: Option<EconEngine>,
    /// The network layer (`None` when `config.net` is unset): a
    /// simulated gossip network of full replicas, here before the run
    /// and after [`MarketSim::finish`], on its own thread as `feed`
    /// between the two.
    net: Option<NetSim<HitRegistry>>,
    /// The running network layer: every canonical submission and
    /// produced block fans out to it, one message per round.
    feed: Option<NetFeed<HitRegistry>>,
    /// The proving pipeline: every agent-step submission flows through
    /// it as a keyed job (inline at zero latency when disabled).
    proving: ProvingService<JobOutput>,
    /// The run's thread budget, resolved once in assembly: what a
    /// round's table builds fan out over.
    threads: usize,
    /// Commitments that became visible this round, appended to their
    /// HIT's `observed` only after the round's jobs are built: an
    /// observing copy-paste attacker replays *prior rounds'*
    /// commitments, which keeps the observation set identical whether
    /// this round's commit proofs are computed inline or released later
    /// by the async pool.
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
    let ceiling = config.econ.as_ref().and_then(|e| e.pricing);
    ceiling.map_or(config.budget, |p| p.max.max(config.budget))
}

/// The genesis every chain of a run starts from: the registry
/// deployment plus the requester mints. The canonical chain, every
/// network replica, and crash recovery ([`recover_market_chain`]) all
/// build the same genesis, so replaying the same blocks lands on
/// bit-identical state. `tracer` is the one input that is not state:
/// the handle the chain's registry records `verify` into. Markets price
/// gas by Istanbul; a one-HIT run picks its schedule.
fn genesis_chain(
    settlement: SettlementMode,
    threads: usize,
    hits: u64,
    headroom: u128,
    tracer: &Tracer,
    schedule: &GasSchedule,
) -> Chain<HitRegistry> {
    let mut chain = Chain::deploy(
        HitRegistry::new(settlement)
            .with_verify_threads(threads)
            .with_tracer(tracer.clone()),
        REGISTRY_CODE_LEN,
        schedule.clone(),
    );
    for i in 0..hits {
        chain.ledger.mint(requester_addr(i), headroom);
    }
    chain
}

/// Recovers the chain of a persisted run from its block store: the
/// genesis this config deploys, restored from the newest valid
/// snapshot, with the block-log tail replayed on top. The result is
/// bit-identical ([`Chain::state_image`]) to the chain the live run
/// held after its last persisted block — the crash-recovery
/// differential in `tests/crash_recovery.rs` pins this byte for byte.
/// The recovered registry verifies on `config.exec_threads`, resolved
/// as the live run resolved it.
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
        &Tracer::default(),
        &GasSchedule::istanbul(),
    );
    Chain::recover_from(&persist.dir, genesis)
}

impl MarketSim {
    /// Sets up the chain, registry and agent pools from a config.
    pub fn new(config: MarketConfig) -> Self {
        Self::traced(config, Tracer::default())
    }

    /// Like [`MarketSim::new`], with every emitter of the run — the
    /// round loop, each chain's registry, the block store, the proving
    /// service and the network — recording into `tracer`.
    pub fn traced(config: MarketConfig, tracer: Tracer) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        // The econ layer: reputation, pricing, churn and adversary
        // classification, constructed before the agent pools so cartel
        // requesters can shape their workloads (strict θ) at generation.
        let base_reward = config.budget / config.k.max(1) as u128;
        let mut econ = config.econ.clone().map(|econ| {
            EconEngine::for_market(econ, config.seed, config.budget, config.block_gas_limit)
        });
        // Each requester's workload, secret key and golden-standard
        // commitment key are drawn in turn, as `Requester::new` draws
        // them; the public keys are then built together.
        let mut drawn = Vec::with_capacity(config.hits);
        for i in 0..config.hits as u64 {
            let addr = requester_addr(i);
            let theta = econ.as_mut().map_or(config.theta, |e| {
                e.register_requester(i as usize, addr);
                e.theta_for(i as usize, config.golds, config.theta)
            });
            let strategy = if econ.as_ref().is_some_and(|e| e.is_cartel(&addr)) {
                Strategy::EvaluateFirst
            } else {
                Strategy::GoldenFirst
            };
            let workload = generate_workload(
                config.questions,
                config.golds,
                config.k,
                theta,
                PlaintextRange::binary(),
                config.budget,
                &mut rng,
            );
            let secret = Fr::random(&mut rng);
            drawn.push((
                addr,
                strategy,
                workload,
                secret,
                CommitmentKey::random(&mut rng),
            ));
        }
        let secrets: Vec<Fr> = drawn.iter().map(|&(.., secret, _)| secret).collect();
        let mut store = ContentStore::new();
        let requesters = drawn
            .into_iter()
            .zip(KeyPair::from_secrets(&secrets))
            .map(|((addr, strategy, workload, _, gs_key), keypair)| {
                let client = Requester::with_keypair(addr, keypair, gs_key, &workload, &mut store);
                RequesterAgent::new(addr, client, workload, strategy)
            })
            .collect();
        let workers = (0..config.workers as u64)
            .map(|i| {
                let addr = worker_addr(i);
                if let Some(e) = &mut econ {
                    e.register_worker(i as usize, addr, base_reward);
                }
                WorkerAgent::new(addr, behavior_for(&config.behavior_mix, i))
            })
            .collect();
        let schedule = GasSchedule::istanbul();
        Self::assemble(config, tracer, schedule, econ, requesters, workers)
    }

    /// Sets up the chain, network, block store and proving service
    /// around the agent pools: requester `i` owns the `i`-th HIT
    /// published, and each requester's account is minted its budget.
    fn assemble(
        config: MarketConfig,
        tracer: Tracer,
        schedule: GasSchedule,
        econ: Option<EconEngine>,
        requesters: Vec<RequesterAgent>,
        workers: Vec<WorkerAgent>,
    ) -> Self {
        assert!(config.hits > 0, "a market needs at least one HIT");
        assert!(config.workers > 0, "a market needs workers");
        // The run's thread budget, resolved once here: the parallel
        // block executor, the registry's settlement verification and
        // snapshot encoding, and the proving pool all get this count.
        let threads = resolve_threads(config.exec_threads);
        let headroom = publish_headroom(&config);
        // The canonical chain and every network replica start from this
        // one genesis.
        let genesis = {
            let (settlement, hits) = (config.settlement, config.hits as u64);
            move |tracer: &Tracer| {
                genesis_chain(settlement, threads, hits, headroom, tracer, &schedule)
            }
        };
        let mut chain = genesis(&tracer).with_exec_threads(threads);
        if let Some(limit) = config.block_gas_limit {
            chain = chain.with_block_gas_limit(limit);
        }
        let agent_by_addr = requesters
            .iter()
            .enumerate()
            .map(|(i, a)| (a.addr, i))
            .collect();
        // The network layer: every replica starts from the exact genesis
        // the canonical chain started from (same registry deployment,
        // same requester mints), so a replica that has applied every
        // canonical block holds bit-identical state. Replicas replay
        // blocks serially, on the network's own thread, overlapping the
        // round loop — the producer already enforced the gas limit and
        // resolved execution order — so they carry no executor or
        // gas-cap configuration of their own. Node 0, the sequencer's
        // node, replays nothing during the run: this chain already
        // executed every block it relays, and its genesis is kept only
        // for the audit view `NetSim::node_chain(0)` builds on request.
        // The network and its replicas' registries record through one
        // deferred handle, so their events land in the stream where a
        // synchronous network would have recorded them.
        let net = config.net.clone().map(|net_cfg| {
            let net_tracer = tracer.deferred();
            NetSim::new(net_cfg, config.seed ^ 0x6e65_7477_6f72_6b00, || {
                genesis(&net_tracer)
            })
            .with_tracer(net_tracer.clone())
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
                .with_tracer(tracer.clone())
        });
        if net.is_some() || block_store.is_some() {
            // Record each produced block's executed transaction list so
            // the run loop can hand it to the gossip layer and/or the
            // block store.
            chain.set_record_block_txs(true);
        }
        let proving =
            ProvingService::new(config.seed, threads, config.proving).with_tracer(tracer.clone());
        Self {
            config,
            tracer,
            chain,
            policy: Box::new(FifoPolicy),
            requesters,
            workers,
            next_publish: 0,
            agent_by_addr,
            hits: BTreeMap::new(),
            live: BTreeSet::new(),
            block_stats: Vec::new(),
            latency_violations: 0,
            events_seen: 0,
            rewards_paid: 0,
            workers_paid: 0,
            refunds: 0,
            econ,
            net,
            feed: None,
            proving,
            threads,
            observed_buffer: Vec::new(),
            store: block_store,
        }
    }

    /// Puts `relay` between every pair of the network layer's nodes in
    /// place of the configured [`dragoon_net::RelaySpec`] — an adversary
    /// beyond the built-ins. No-op without the network layer.
    pub fn with_relay(mut self, relay: Box<dyn RelayPolicy<RegistryMessage>>) -> Self {
        self.net = self.net.map(|net| net.with_relay(relay));
        self
    }

    /// Runs every round under `policy` in place of honest FIFO — the
    /// one way to schedule a market adversarially (`ReversePolicy`,
    /// `FrontRunPolicy`, or a test's own).
    pub fn with_policy(mut self, policy: Box<dyn ReorderPolicy<RegistryMessage>>) -> Self {
        self.policy = policy;
        self
    }

    /// Submits a transaction to the canonical chain and — with the
    /// network layer on — queues it for the round's gossip to every
    /// replica's mempool.
    fn submit_tx(&mut self, sender: Address, msg: RegistryMessage) {
        if let Some(feed) = &mut self.feed {
            let seq = self.chain.submit(sender, msg.clone());
            feed.queue_tx(PendingTx { sender, msg, seq });
        } else {
            self.chain.submit(sender, msg);
        }
    }

    /// Runs the market to completion (every HIT settled) or to
    /// `max_blocks`, returning the report.
    pub fn run(self) -> MarketReport {
        self.run_keeping_net().0
    }

    /// Like [`MarketSim::run`], but also hands back the chain, so tests
    /// can audit post-run ledger state (escrow conservation under churn,
    /// per-instance balances), and the network simulation (when
    /// configured), so they can audit every replica's final state
    /// against the canonical chain — the convergence differential.
    pub fn run_keeping_net(
        mut self,
    ) -> (
        MarketReport,
        Chain<HitRegistry>,
        Option<NetSim<HitRegistry>>,
    ) {
        let report = self.run_to_end();
        (report, self.chain, self.net)
    }

    /// The block loop and the run-end barriers.
    fn run_to_end(&mut self) -> MarketReport {
        self.start_net();
        while !self.finished() {
            self.publish_step();
            self.agent_step();
            self.close_round();
        }
        self.finish()
    }

    /// Moves the network layer onto its own thread for the run.
    fn start_net(&mut self) {
        self.feed = self.net.take().map(NetSim::spawn);
    }

    /// Whether every HIT has been published and settled, or the block
    /// budget is spent.
    fn finished(&self) -> bool {
        let done = self.next_publish >= self.config.hits
            && self.live.is_empty()
            && self.hits.len() >= self.config.hits;
        done || self.chain.round() >= self.config.max_blocks
    }

    /// The rest of a round once the agents have submitted: the block is
    /// produced, persisted and gossiped, and its events harvested.
    fn close_round(&mut self) {
        // Optimistic parallel execution over disjoint HIT instances;
        // delegates to the serial path at one thread. Reports are
        // identical either way (tests/parallel_equivalence.rs).
        {
            let _sp = self.tracer.span(SpanKind::Execute, self.chain.round() + 1);
            self.chain.advance_round_parallel(&mut *self.policy);
        }
        if let Some(obs) = self.chain.last_observation() {
            self.tracer.event(
                SpanKind::Execute,
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
        // One network tick per market round: the round's gossip and the
        // produced block's executed transaction list go to the network
        // thread, which fans them out to the replicas while the next
        // round runs.
        if let Some(feed) = &mut self.feed {
            feed.send_block(self.chain.last_block_txs().to_vec());
        }
        {
            let _sp = self.tracer.span(SpanKind::Harvest, self.chain.round());
            self.harvest();
        }
        // Pipeline stage 3: hand block N's batched settlement
        // verification to the registry's verifier stage (one thread
        // per run, started by the first hand-off), so it overlaps
        // round N+1's agent-step generation and proving. The next
        // clock tick waits for its answer before the first settlement
        // verdict is read; between here and there only the mempool
        // fills, so the pending set cannot change and the precomputed
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

    /// The run-end barriers, then the report.
    fn finish(&mut self) -> MarketReport {
        // Run-end barriers, in pipeline order: the verifier stage is
        // finished, and every handed-off block frame and snapshot is
        // on disk before the report is built (crash recovery reads
        // these files).
        self.chain.contract_mut().join_overlap();
        if let Some(store) = &mut self.store {
            let (hits, misses) = self.chain.contract().overlap_stats();
            store.record_overlap(hits, misses);
            store.drain().expect("block store drain must succeed");
        }
        // The market is done producing; let the network converge
        // (queued deliveries land, partitions heal on schedule, forks
        // reorg away) and take it back from its thread.
        if let Some(feed) = self.feed.take() {
            self.net = Some(feed.finish());
        }
        // Whatever the proving queue still holds was overtaken by the
        // deadline backstops (its HIT settled ⊥ without the proof) —
        // count it dropped.
        self.proving.finish();
        self.build_report()
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

    /// Lets workers and requesters react to every live instance.
    ///
    /// Order matters for determinism: (1) proof jobs from earlier
    /// rounds whose latency has elapsed release first, (2) the drives
    /// enqueue this round's jobs, (3) the batch computes, (4) zero-
    /// latency outputs release, (5) this round's commitments join the
    /// observation set, (6) everything released this round enters the
    /// mempool in release order. Between steps 2 and 3 the key tables
    /// the round's encrypting commit jobs need and their requesters do
    /// not hold are built, and only then are the commit jobs made, each
    /// holding its table. Step 3 and the builds fan out over the run's
    /// thread budget whether or not latency is modeled. With the service
    /// disabled every job is zero-latency, so steps 1 and 4 collapse
    /// into the classic synchronous round — byte-identical reports.
    fn agent_step(&mut self) {
        let round = self.chain.round();
        let _sp = self.tracer.span(SpanKind::Agent, round);
        let mut submissions: Vec<(Address, RegistryMessage)> = Vec::new();
        self.process_ready(round, &mut submissions);
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
        // Nothing below touches the chain — submissions enter the
        // mempool only after every drive has run — so each drive reads
        // its instance in place, borrowed from the registry, while
        // agents and records change beside it.
        let registry = self.chain.contract();
        let mut drives = Drives {
            config: &self.config,
            requesters: &mut self.requesters,
            workers: &mut self.workers,
            econ: &mut self.econ,
            round,
            ranked,
            jobs: Vec::new(),
            missing: Vec::new(),
            table_hits: 0,
        };
        for &id in &self.live {
            let hit = registry.hit(id).expect("a live HIT exists on-chain");
            let record = self.hits.get_mut(&id).expect("live ids are in the table");
            drives.react(id, hit, record);
        }
        let Drives {
            jobs,
            missing,
            table_hits,
            ..
        } = drives;
        // The missing tables, eight keys to a pass.
        let bases: Vec<_> = missing
            .iter()
            .map(|&a| self.requesters[a].client.public_key().0)
            .collect();
        let chunks: Vec<&[_]> = bases.chunks(BUILD_CHUNK).collect();
        let tables = par_map(self.threads, chunks, FixedBaseTable::new_batch);
        for (&a, table) in missing.iter().zip(tables.into_iter().flatten()) {
            self.requesters[a].table = Some(Arc::new(table));
        }
        let stats = self.proving.stats_mut();
        stats.cache_hits += table_hits;
        stats.cache_misses += missing.len() as u64;
        let requesters = &self.requesters;
        let jobs = jobs
            .into_iter()
            .map(|job| match job {
                Queued::Ready(job) => job,
                Queued::Commit { reads, make } => make(reads.map(|a| {
                    let table = requesters[a].table.as_ref();
                    Arc::clone(table.expect("an encrypting job's table is built"))
                })),
            })
            .collect();
        self.proving.submit_batch(round, jobs);
        self.process_ready(round, &mut submissions);
        // This round's commitments become observable next round.
        for (id, commitment) in std::mem::take(&mut self.observed_buffer) {
            let record = self.hits.get_mut(&id).expect("a session's HIT was created");
            record.observed.push(commitment);
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
                JobOutput::Reveal(msg) => {
                    if !self.live.contains(&id) {
                        self.proving.stats_mut().stale += 1;
                        continue;
                    }
                    if let Some(msg) = msg {
                        submissions.push((key.agent, RegistryMessage::Hit { id, msg }));
                    }
                }
                JobOutput::Verdicts(verdicts) => {
                    if !self.live.contains(&id) {
                        self.proving.stats_mut().stale += 1;
                        continue;
                    }
                    let a = &mut self.requesters[self.hits[&id].agent];
                    // The withhold decision lands with the verdicts: only
                    // now is the rejectable count known.
                    let econ = &mut self.econ;
                    let released = a.sequencer.verdicts_landed(verdicts, |rejectable| {
                        econ.as_mut()
                            .is_some_and(|e| e.withholds_golden(&a.addr, rejectable))
                    });
                    for msg in released {
                        submissions.push((a.addr, RegistryMessage::Hit { id, msg }));
                    }
                }
                JobOutput::Direct(msg) => {
                    submissions.push((key.agent, RegistryMessage::Hit { id, msg }));
                }
            }
        }
    }

    /// Post-block bookkeeping: open a record for each fresh `Created`
    /// event, record settlements and payment flows, accumulate block
    /// stats.
    fn harvest(&mut self) {
        let round = self.chain.round();
        let events = self.chain.events();
        let mut commit_closed: Vec<HitId> = Vec::new();
        let mut settled_now: Vec<HitId> = Vec::new();
        let mut cancelled_now = 0usize;
        for (at, event) in &events[self.events_seen..] {
            match event {
                RegistryEvent::Created { id, requester, .. } => {
                    self.hits.insert(
                        *id,
                        HitRecord {
                            agent: self.agent_by_addr[requester],
                            published_block: *at,
                            ..HitRecord::default()
                        },
                    );
                    self.live.insert(*id);
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
                    HitEvent::Cancelled { .. } | HitEvent::Closed => {
                        let cancelled = matches!(event, HitEvent::Cancelled { .. });
                        if let HitEvent::Cancelled { refunded } = event {
                            self.refunds += refunded;
                            cancelled_now += 1;
                        }
                        if self.live.remove(id) {
                            let record = self.hits.get_mut(id).expect("live ids are in the table");
                            record.settled_block = Some(*at);
                            record.cancelled = cancelled;
                            settled_now.push(*id);
                        }
                    }
                    _ => {}
                },
            }
        }
        self.events_seen = events.len();
        // A closed commit phase frees the losers of overbooked races:
        // their commit reverted (TaskFull), so their session holds no
        // slot and must not count against worker capacity. It also drops
        // the requester's key table: only this HIT's commit jobs read
        // it, each made in the round it was enqueued, and the commit
        // drive runs only in `Phase::Commit`, so no job asks for it again.
        for &id in &commit_closed {
            let record = &self.hits[&id];
            let hit = self.chain.contract().hit(id).expect("the event's instance");
            for &wi in &record.joined {
                if !hit.committed_workers().contains(&self.workers[wi].addr) {
                    self.workers[wi].sessions.remove(&id);
                }
            }
            self.requesters[record.agent].table = None;
        }
        // A settled (closed or cancelled) HIT releases every session slot
        // its workers held and everything the engine kept only while the
        // HIT was live: the join list, the observed commitments and —
        // for a HIT cancelled before its commit phase closed — the
        // requester key's fixed-base table. Its receipts feed the econ
        // layer's reputation book and per-class payout metrics; its
        // latency, the pricing controller.
        let mut latencies: Vec<u64> = Vec::new();
        for &id in &settled_now {
            let record = self
                .hits
                .get_mut(&id)
                .expect("settled ids are in the table");
            for wi in std::mem::take(&mut record.joined) {
                self.workers[wi].sessions.remove(&id);
            }
            record.observed = Vec::new();
            let requester = &mut self.requesters[record.agent];
            requester.table = None;
            if let Some(e) = &mut self.econ {
                let hit = self.chain.contract().hit(id).expect("the event's instance");
                e.on_settled_hit(&requester.addr, hit.settlement_receipts(), round);
            }
            if record.cancelled {
                continue;
            }
            // A HIT cannot settle before it was published; a violation
            // means the block clock went backwards. Count it instead of
            // clamping the latency to 0, which would silently skew the
            // pricing controller's input.
            let published = record.published_block;
            let settled = record.settled_block.expect("recorded above");
            debug_assert!(
                settled >= published,
                "hit #{id} settled at block {settled} before publish at {published}"
            );
            if let Some(latency) = settled.checked_sub(published) {
                latencies.push(latency);
            } else {
                self.latency_violations += 1;
            }
        }
        let observation = self
            .chain
            .last_observation()
            .expect("advance_round produced a block");
        // Econ block boundary: the fill/latency outcomes feed the pricing
        // controller, and the churn process reshapes the worker pool.
        // Everything derives from committed chain state, so the layer is
        // identical at every thread count.
        if let Some(e) = &mut self.econ {
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
                // Arrivals continue the initial pool's address derivation.
                let index = self.workers.len() as u64;
                let addr = worker_addr(index);
                e.register_worker(index as usize, addr, base_reward);
                self.workers.push(WorkerAgent::new(
                    addr,
                    behavior_for(&self.config.behavior_mix, index),
                ));
            }
        }
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
        for (&id, record) in &self.hits {
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
                published_block: record.published_block,
                settled_block: record.settled_block,
                cancelled: record.cancelled,
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
        let hits_cancelled = outcomes.iter().filter(|o| o.cancelled).count();
        let hits_unfinished = self.live.len();
        MarketReport {
            seed: self.config.seed,
            settlement: self.config.settlement,
            blocks: self.chain.round(),
            hits_published: self.hits.len(),
            hits_settled: self.hits.len() - hits_unfinished - hits_cancelled,
            hits_cancelled,
            hits_unfinished,
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
            answers_collected: self.requesters.iter().map(|a| a.sequencer.accepted()).sum(),
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
            proving: *self.proving.stats(),
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

/// The agent side of one [`MarketSim::agent_step`]: the engine's fields
/// the drives change, borrowed apart from the chain they read.
struct Drives<'a> {
    config: &'a MarketConfig,
    requesters: &'a mut [RequesterAgent],
    workers: &'a mut [WorkerAgent],
    econ: &'a mut Option<EconEngine>,
    round: u64,
    /// Reputation-ordered candidate workers (econ layer), if enabled.
    ranked: Option<Vec<usize>>,
    /// This round's jobs, in enqueue order: ascending `HitId`, then the
    /// per-HIT order below.
    jobs: Vec<Queued>,
    /// The requesters whose table this round's encrypting commit jobs
    /// read and who do not hold one, once each, in enqueue order.
    missing: Vec<usize>,
    /// Encrypting commit jobs whose requester holds its table or has it
    /// in `missing` already: every other encrypting job builds one.
    table_hits: u64,
}

impl Drives<'_> {
    /// One live HIT's reactions: its requester's next step if one is
    /// due, else the worker pool's drive for the phase.
    fn react(&mut self, id: HitId, hit: &HitContract, record: &mut HitRecord) {
        let requester = &mut self.requesters[record.agent];
        if let Some(step) = requester.sequencer.next(hit, self.round) {
            let msgs = match step {
                Step::Cancel => vec![HitMessage::Cancel],
                Step::OpenGolden => vec![requester.client.golden_msg()],
                Step::Evaluate => {
                    self.jobs
                        .push(Queued::Ready(evaluate_job(id, hit, requester)));
                    Vec::new()
                }
                Step::Reject(msgs) => msgs,
                Step::Finalize => vec![HitMessage::Finalize],
            };
            let sender = requester.addr;
            self.jobs.extend(
                msgs.into_iter()
                    .map(|msg| Queued::Ready(control_job(sender, id, msg))),
            );
            return;
        }
        match hit.phase() {
            Phase::Commit => self.commit(id, hit, record),
            Phase::Reveal => self.reveal(id, hit, record),
            Phase::Setup | Phase::Evaluate | Phase::Closed => {}
        }
    }

    /// Commit phase: eligible workers race for slots. With the econ
    /// layer on, candidates come reputation-ordered (`ranked`), departed
    /// workers sit out, the reputation gate and reservation wages filter
    /// the rest, and sybils pick each session's behaviour.
    fn commit(&mut self, id: HitId, hit: &HitContract, record: &mut HitRecord) {
        let params = hit.params().expect("published before the commit phase");
        let target = params.k + self.config.overbook;
        let joined = &mut record.joined;
        if joined.len() >= target {
            return;
        }
        let agent = record.agent;
        let requester = &self.requesters[agent];
        let ek = requester.client.public_key();
        let workload = &requester.workload;
        let reward = params.budget / params.k as u128;
        // Rotate the pool start per hit so load spreads deterministically
        // (reputation ordering, when enabled, replaces the rotation).
        let pool = self.workers.len();
        let start = (id as usize).wrapping_mul(13) % pool;
        let candidates = self.ranked.as_ref().map_or(pool, Vec::len);
        for off in 0..candidates {
            if joined.len() >= target {
                break;
            }
            let wi = match &self.ranked {
                Some(order) => order[off],
                None => (start + off) % pool,
            };
            let w = &mut self.workers[wi];
            if !w.active || joined.contains(&wi) {
                continue;
            }
            if w.sessions.len() >= self.config.worker_capacity {
                continue;
            }
            // Econ filters: reputation gate, reservation wage, and a
            // sybil's per-session behaviour choice.
            let mut sybil_behavior = None;
            if let Some(e) = self.econ.as_mut() {
                match e.join_decision(&w.addr, reward, self.round) {
                    JoinDecision::Join(b) => sybil_behavior = b,
                    JoinDecision::Gated | JoinDecision::Declined => continue,
                }
            }
            let behavior = sybil_behavior.unwrap_or_else(|| w.behavior.clone());
            // The copy decision happens at enqueue time, against
            // commitments observed in *prior* rounds.
            let copied = match &behavior {
                WorkerBehavior::CopyPaste => match record.observed.first() {
                    Some(c) => Some(*c),
                    None => continue, // a copier with nothing to copy yet
                },
                _ => None,
            };
            // The slot is claimed now — the session exists and counts
            // against capacity — while the answer draw / encryption /
            // commitment run as a proof job.
            joined.push(wi);
            w.sessions.insert(id, Worker::new(w.addr, behavior.clone()));
            let truth = workload.truth.clone();
            let range = workload.spec.range;
            // An encrypting job reads the requester's table: one it
            // holds, or one this round builds — the first such job of
            // the round queues the build.
            let reads = behavior.encrypts().then(|| {
                if requester.table.is_some() || self.missing.contains(&agent) {
                    self.table_hits += 1;
                } else {
                    self.missing.push(agent);
                }
                agent
            });
            // Modeled cost: two group ops per encrypted item plus the
            // commitment itself.
            let cost = 2 * truth.0.len() as u64 + 2;
            let key = JobKey {
                agent: w.addr,
                instance: id,
                phase: ProofPhase::Commit,
            };
            let make = move |table: Option<Arc<FixedBaseTable>>| ProofJob {
                key,
                cost,
                run: Box::new(move |rng: &mut StdRng| JobOutput::Commit {
                    wi,
                    artifacts: Worker::prepare_commit_with_table(
                        &behavior,
                        &truth,
                        range,
                        &ek,
                        copied,
                        table.as_deref(),
                        rng,
                    )
                    .expect("commit inputs decided at enqueue"),
                }),
            };
            self.jobs.push(Queued::Commit {
                reads,
                make: Box::new(make),
            });
        }
    }

    /// Reveal phase: accepted sessions open their commitments. Opening
    /// a commitment is free (no proving), so reveal jobs carry cost 0
    /// and always release in the round they were enqueued.
    fn reveal(&mut self, id: HitId, hit: &HitContract, record: &HitRecord) {
        for &wi in &record.joined {
            let w = &mut self.workers[wi];
            // A departed worker never reveals: its commitment settles as
            // `⊥` and the escrowed share flows back to the requester.
            if !w.active || !hit.committed_workers().contains(&w.addr) {
                continue;
            }
            let Some(session) = w.sessions.get_mut(&id) else {
                continue;
            };
            if std::mem::replace(&mut session.reveal_sent, true) {
                continue;
            }
            let behavior = session.behavior.clone();
            let cts = session.ciphertexts().cloned();
            let key = session.commit_key();
            self.jobs.push(Queued::Ready(ProofJob {
                key: JobKey {
                    agent: w.addr,
                    instance: id,
                    phase: ProofPhase::Reveal,
                },
                cost: 0,
                run: Box::new(move |rng: &mut StdRng| {
                    JobOutput::Reveal(Worker::reveal_msg_with(&behavior, cts.as_ref(), key, rng))
                }),
            }));
        }
    }
}

/// A zero-cost control job: carries an already-built message through
/// the queue so its mempool position is decided by the same
/// `(ready_tick, seq)` order as every proof.
fn control_job(sender: Address, id: HitId, msg: HitMessage) -> ProofJob<JobOutput> {
    ProofJob {
        key: JobKey {
            agent: sender,
            instance: id,
            phase: ProofPhase::Control,
        },
        cost: 0,
        run: Box::new(move |_rng: &mut StdRng| JobOutput::Direct(msg)),
    }
}

/// The per-HIT evaluation job: decrypting every revealed submission
/// and proving each rejection. Cost scales with what is actually
/// evaluated, so a slow (high-latency) evaluation delays the verdicts —
/// and, since the sequencer waits for them, the rejections and the
/// finalize — into later blocks.
fn evaluate_job(id: HitId, hit: &HitContract, requester: &RequesterAgent) -> ProofJob<JobOutput> {
    let evaluator = requester.client.evaluator();
    let revealed: Vec<_> = hit
        .committed_workers()
        .iter()
        .filter_map(|w| hit.revealed(w).map(|cts| (*w, cts.clone())))
        .collect();
    let cost = revealed
        .iter()
        .map(|(_, cts)| evaluator.evaluation_cost(cts))
        .sum();
    ProofJob {
        key: JobKey {
            agent: requester.addr,
            instance: id,
            phase: ProofPhase::Evaluate,
        },
        cost,
        run: Box::new(move |rng: &mut StdRng| {
            JobOutput::Verdicts(evaluator.evaluate_all(&revealed, rng))
        }),
    }
}

/// Convenience: build and run in one call.
pub fn run_market(config: MarketConfig) -> MarketReport {
    MarketSim::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersistConfig;
    use dragoon_chain::mempool::Scheduled;
    use dragoon_net::{NetConfig, NetMsg, RelayDecision};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Requesters holding a key table.
    fn tables_held(sim: &MarketSim) -> usize {
        sim.requesters.iter().filter(|r| r.table.is_some()).count()
    }

    /// The run loop of [`MarketSim::run_to_end`], calling `inspect` after
    /// each round's agent step — where the round's tables are built and
    /// before its harvest drops any.
    fn run_inspecting(sim: &mut MarketSim, mut inspect: impl FnMut(&MarketSim)) -> MarketReport {
        sim.start_net();
        while !sim.finished() {
            sim.publish_step();
            sim.agent_step();
            inspect(sim);
            sim.close_round();
        }
        sim.finish()
    }

    /// The most key tables the golden scenario holds at once.
    const PEAK_TABLES: usize = 10;

    /// Live ids and sessions last as long as their HIT, a key's table as
    /// long as the HIT's commit phase: after the `marketplace` golden
    /// scenario (every HIT settles) no requester holds a table, at most
    /// `PEAK_TABLES` did at once, and dropping it at commit close never
    /// turned a hit into a miss — the counters are the committed
    /// golden's. The report serializes to the golden's `JSON:` and
    /// `PROVING:` lines byte for byte (neither depends on the store the
    /// example adds), so a drifting serializer fails here, inside
    /// `cargo test`.
    #[test]
    fn every_settled_hit_retired_its_table() {
        let golden = include_str!("../../../tests/golden/marketplace_seed42.json");
        let mut sim = MarketSim::new(MarketConfig {
            hits: 250,
            spawn_per_block: 10,
            workers: 90,
            worker_capacity: 5,
            seed: 42,
            max_blocks: 900,
            exec_threads: 1,
            ..MarketConfig::default()
        });
        let mut peak = 0;
        let report = run_inspecting(&mut sim, |sim| peak = peak.max(tables_held(sim)));
        assert_eq!((report.hits_settled, report.hits_unfinished), (250, 0));
        assert_eq!(tables_held(&sim), 0);
        // Held to settlement, as many as 90 tables were resident.
        assert_eq!(peak, PEAK_TABLES);
        assert!(sim.live.is_empty());
        assert!(sim.workers.iter().all(|w| w.sessions.is_empty()));
        let golden_line = |tag: &str| {
            let line = golden.lines().find_map(|l| l.strip_prefix(tag));
            line.expect("the golden has the line")
        };
        assert_eq!(report.to_json(), golden_line("JSON: "));
        assert_eq!(report.section_json("proving"), golden_line("PROVING: "));
        assert_eq!(
            (report.proving.cache_hits, report.proving.cache_misses),
            (750, 250),
            "three hits and one build per HIT"
        );
    }

    /// A HIT cancelled in its commit phase never sees `CommitClosed`:
    /// settlement drops its table instead. Three workers with room for
    /// one HIT each race three at a time for three HITs of `K = 2`, under
    /// modeled proving latency (commitments land rounds after their jobs
    /// computed): HIT 0 fills at once and frees its race's loser, HIT 1
    /// takes that worker and, once HIT 0 settles, another — its second
    /// job reads the table its requester kept since the first — and HIT 2
    /// is cancelled with fewer than `K`. One build per HIT and no table
    /// left, at either thread budget.
    #[test]
    fn a_hit_cancelled_in_its_commit_phase_retires_its_table() {
        let run = |exec_threads| {
            let mut sim = MarketSim::new(MarketConfig {
                hits: 3,
                spawn_per_block: 3,
                workers: 3,
                worker_capacity: 1,
                overbook: 1,
                k: 2,
                windows: dragoon_contract::PhaseWindows {
                    commit_timeout: Some(30),
                    reveal: 2,
                    evaluate: 4,
                },
                seed: 0xcace1,
                max_blocks: 200,
                exec_threads,
                proving: dragoon_protocol::ProvingConfig {
                    enabled: true,
                    ticks_per_kilocost: 300,
                },
                ..MarketConfig::default()
            });
            let report = sim.run_to_end();
            assert_eq!(tables_held(&sim), 0);
            report
        };
        let report = run(1);
        assert!(report.proving.latency_max > 0, "{:?}", report.proving);
        assert_eq!(report.hits_unfinished, 0);
        let cancelled: Vec<bool> = report.outcomes.iter().map(|o| o.cancelled).collect();
        assert_eq!(cancelled, [false, false, true]);
        let counters = |r: &MarketReport| (r.proving.cache_hits, r.proving.cache_misses);
        assert_eq!(counters(&report).1, report.hits_published as u64);
        assert!(counters(&report).0 > 0);
        assert_eq!(counters(&run(2)), counters(&report));
    }

    /// Only an encrypting commit job reads a key table. In a market with
    /// copy-paste workers the table counters add up to the encrypting
    /// joins alone: two honest workers take each HIT of `K = 3` at once,
    /// and a copier takes the third slot a round later, replaying one of
    /// their commitments (the contract reverts it, so every HIT is
    /// cancelled). And a HIT whose only takers are copiers — replaying a
    /// commitment seen in the mempool — builds no table at all.
    #[test]
    fn copy_paste_jobs_read_no_table() {
        let honest = WorkerBehavior::Honest(dragoon_core::workload::AnswerModel::RandomBot);
        // Workers 0 and 2 are honest, worker 1 copies.
        let mut sim = MarketSim::new(MarketConfig {
            hits: 4,
            spawn_per_block: 4,
            workers: 3,
            overbook: 0,
            behavior_mix: vec![(honest, 2), (WorkerBehavior::CopyPaste, 1)],
            seed: 0xc0b1e5,
            exec_threads: 1,
            ..MarketConfig::default()
        });
        // Every join opens a session that lasts at least until the
        // round's harvest, so the sessions seen after each agent step are
        // every join of the run.
        let mut joins = BTreeSet::new();
        let report = run_inspecting(&mut sim, |sim| {
            for (wi, w) in sim.workers.iter().enumerate() {
                for (&id, session) in &w.sessions {
                    joins.insert((session.behavior.encrypts(), wi, id));
                }
            }
        });
        let encrypting = joins.iter().filter(|(encrypts, ..)| *encrypts).count();
        assert_eq!((encrypting, joins.len()), (8, 12));
        let p = &report.proving;
        assert_eq!((p.cache_hits, p.cache_misses), (4, 4));

        let mut sim = MarketSim::new(MarketConfig {
            hits: 1,
            workers: 4,
            behavior_mix: vec![(WorkerBehavior::CopyPaste, 1)],
            seed: 0xc0b1e6,
            exec_threads: 1,
            ..MarketConfig::default()
        });
        // The publishing round creates the HIT; a commitment then shows
        // up in the mempool for its copiers to replay.
        sim.publish_step();
        sim.agent_step();
        sim.close_round();
        let id = *sim.live.first().expect("the HIT was created");
        let record = sim.hits.get_mut(&id).expect("live ids are in the table");
        record.observed.push(Commitment([7; 32]));
        let mut copiers = 0;
        let report = run_inspecting(&mut sim, |sim| {
            assert_eq!(tables_held(sim), 0);
            copiers = copiers.max(
                sim.workers
                    .iter()
                    .filter(|w| !w.sessions.is_empty())
                    .count(),
            );
        });
        assert!(copiers > 0, "copiers joined");
        let p = &report.proving;
        assert_eq!((p.cache_hits, p.cache_misses), (0, 0));
    }

    /// FIFO before the round it holds, a panic from that round on.
    struct PanicAtRound(u64);

    impl ReorderPolicy<RegistryMessage> for PanicAtRound {
        fn schedule(
            &mut self,
            round: u64,
            pending: Vec<PendingTx<RegistryMessage>>,
        ) -> Scheduled<RegistryMessage> {
            if round >= self.0 {
                panic!("the market's policy panics at round {}", self.0);
            }
            FifoPolicy.schedule(round, pending)
        }
    }

    /// Forwards everything and raises its flag when dropped, that is
    /// when the network that holds it is.
    struct DropFlag(Arc<AtomicBool>);

    impl RelayPolicy<RegistryMessage> for DropFlag {
        fn relay(
            &mut self,
            _tick: u64,
            _from: usize,
            _to: usize,
            _msg: &NetMsg<RegistryMessage>,
        ) -> RelayDecision {
            RelayDecision::Forward
        }
    }

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// A market that unwinds mid-run takes its pipeline stages down with
    /// it: the run raises the market's own panic, and by then the
    /// network thread has returned and dropped the simulation (its
    /// relay's flag is up) — the feed's drop closed the channel and
    /// joined, without the drain. With the pipelined store as well, the
    /// same unwind drops the block writer and the overlap verifier
    /// (live since round 7's hand-off): the writer handles the frames
    /// already queued before it joins, so recovery lands on round 8,
    /// the last block produced before round 9's schedule panicked.
    #[test]
    fn an_unwinding_market_stops_its_network_thread() {
        let dir = std::env::temp_dir().join(format!("dragoon-unwind-{}", std::process::id()));
        for persist in [None, Some(PersistConfig::pipelined(dir.clone()))] {
            let config = MarketConfig {
                hits: 8,
                spawn_per_block: 4,
                workers: 10,
                exec_threads: 1,
                net: Some(NetConfig::default()),
                persist,
                ..MarketConfig::default()
            };
            let dropped = Arc::new(AtomicBool::new(false));
            let sim = MarketSim::new(config.clone())
                .with_policy(Box::new(PanicAtRound(9)))
                .with_relay(Box::new(DropFlag(Arc::clone(&dropped))));
            let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
            let payload = raised.expect_err("the policy panics mid-run");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("the market's policy panics at round 9")
            );
            assert!(dropped.load(Ordering::SeqCst));
            if config.persist.is_some() {
                let recovered = recover_market_chain(&config).expect("the store recovers");
                assert_eq!(recovered.round(), 8);
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
