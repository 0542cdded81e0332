//! The traced layer driver: per-layer numbers taken from outside.
//!
//! `MarketSim::run` is one opaque call, so this driver calls each
//! layer's public functions itself, with a span around every call:
//!
//! * **kernels** — `crypto`, `core` and `ledger` functions at the
//!   workload's `N`, `|G|`, `K`;
//! * **the lockstep pipeline** — cohorts of HITs driven through
//!   publish → commit → reveal → golden → evaluate → finalize with
//!   `Requester` / `Worker` clients against a `Chain<HitRegistry>`, one
//!   message kind per block so the phases separate from outside. Every
//!   block also goes to a pipelined `BlockStore`, a log-only store, a
//!   captured-undo replica (apply, revert, apply again) and a `NetSim`
//!   of full replicas, whatever the workload: the workload decides the
//!   task shape and the store and net configs, the driver is the same.
//!
//! The `sim.*` metrics come from one untraced end-to-end pass. The
//! driver checks its own output: every HIT settled, supply conserved,
//! recovered, replayed and replica state equal to live.

use crate::metrics::PER_LAYER;
use crate::pass::{same_committed_state, PassResult};
use crate::runner::{bench_dir, ScratchDir};
use crate::span::{chrome_trace_json, durations, self_times, Span, Tracer};
use crate::stats::median;
use crate::workload::{Shape, Workload, EXEC_THREADS};
use dragoon_chain::mempool::PendingTx;
use dragoon_chain::{BlockStore, Chain, FifoPolicy, GasSchedule, Journaled};
use dragoon_contract::{HitMessage, HitRegistry, Phase, RegistryMessage, REGISTRY_CODE_LEN};
use dragoon_core::poqoea;
use dragoon_core::task::Answer;
use dragoon_core::workload::{draw_answer, generate_workload, AnswerModel, GroundTruth};
use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
use dragoon_crypto::vpke::{self, DecryptionStatement};
use dragoon_crypto::{Commitment, CommitmentKey, FixedBaseTable, Fr, ProofCache};
use dragoon_ledger::{Address, Ledger};
use dragoon_net::NetSim;
use dragoon_protocol::{
    CommitArtifacts, ContentStore, JobKey, ProofJob, ProofPhase, ProvingConfig, ProvingService,
    Requester, Verdict, Worker, WorkerBehavior,
};
use dragoon_sim::{MarketConfig, PersistConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cohorts whose requesters are funded at genesis: recovery and the
/// replicas rebuild genesis, so no account can be minted later.
const MAX_ROUNDS: usize = 64;
/// Samples per kernel.
const KERNEL_SAMPLES: usize = 200;
/// `recover_from` calls on the finished pipelined store.
const RECOVERIES: usize = 5;
/// Empty spans timed for `bench.span_overhead_ns`.
const OVERHEAD_SPANS: usize = 100_000;

/// What the traced run of one workload produced.
pub struct LayerReport {
    pub workload: Workload,
    pub seed: u64,
    /// HITs driven through the lockstep pipeline.
    pub attempted: u64,
    /// HITs left unsettled; every HIT when a check failed.
    pub failed: u64,
    pub failures: Vec<String>,
    /// One value per entry of [`PER_LAYER`], in its order.
    values: Vec<f64>,
    /// Self time per layer inside the pipeline, `bench` being the
    /// driver's own, and the pipeline's wall: equal by construction.
    pub layer_self_ms: Vec<(&'static str, f64)>,
    pub pipeline_wall_ms: f64,
    pub trace_path: PathBuf,
    pub spans: usize,
}

impl LayerReport {
    pub fn value(&self, name: &str) -> f64 {
        let index = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[index]
    }

    pub fn print(&self) {
        let name = self.workload.name();
        println!("== {name}: per-layer metrics (seed {}) ==", self.seed);
        for (metric, value) in PER_LAYER.iter().zip(&self.values) {
            println!(
                "{name:<18} {:<38} {value:>16.4} {:<6} ({} is better) -> {}",
                metric.name,
                metric.unit,
                metric.better.as_str(),
                metric.moves
            );
        }
        println!("== {name}: lockstep pipeline, self time by layer ==");
        let mut sum = 0.0;
        for (layer, ms) in &self.layer_self_ms {
            let share = ms / self.pipeline_wall_ms * 100.0;
            println!("{name:<18} {layer:<38} {ms:>16.3} ms     {share:>5.1} %");
            sum += ms;
        }
        println!(
            "{name:<18} {:<38} {sum:>16.3} ms     against pipeline wall {:.3} ms",
            "sum of self times", self.pipeline_wall_ms
        );
        println!(
            "{name:<18} {} spans written to {}",
            self.spans,
            self.trace_path.display()
        );
        println!(
            "{name:<18} ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        for failure in &self.failures {
            println!("{name:<18} GATE FAILED: {failure}");
        }
    }
}

/// How much work the driver does: the full size, or the smoke size
/// when `--hits` shrinks the run.
struct Scale {
    cohort: usize,
    rounds: usize,
    samples: usize,
    overhead_spans: usize,
}

impl Scale {
    /// The round count is a function of `seconds`, not of the clock, so
    /// that every count the run reports repeats exactly for a seed.
    fn new(shape: Shape, seconds: f64, hits: Option<usize>) -> Self {
        match hits {
            None => Self {
                cohort: shape.cohort,
                rounds: ((seconds * shape.cohorts_per_second) as usize).clamp(2, MAX_ROUNDS),
                samples: KERNEL_SAMPLES,
                overhead_spans: OVERHEAD_SPANS,
            },
            Some(hits) => Self {
                cohort: shape.cohort.min(hits).max(1),
                rounds: 1,
                samples: 3,
                overhead_spans: 1_000,
            },
        }
    }
}

/// Runs the traced driver on one workload, sized to take about
/// `seconds` together with `pass`: an untraced end-to-end pass of the
/// same workload and seed, behind the `sim.*` metrics.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    hits: Option<usize>,
    pass: &PassResult,
) -> Result<LayerReport, String> {
    let scale = Scale::new(workload.shape(), seconds, hits);

    let scratch = ScratchDir::new(&format!("trace-{}", workload.name()));
    let config = workload.config(seed, hits, &scratch.path().join("store"));
    let mut t = Tracer::new();
    let mut kernels = Kernels::new(&config, seed);
    t.span("bench.kernels", |t| kernels.run(t, scale.samples));

    let mut pipeline = Pipeline::new(&config, scratch.path(), scale.cohort);
    let mut failures: Vec<String> = Vec::new();
    t.span("bench.pipeline", |t| {
        for round in 0..scale.rounds {
            t.set_round(round as u32);
            t.span("bench.round", |t| pipeline.round(t));
        }
        t.span("bench.finish", |t| pipeline.finish(t, &mut failures));
    });
    // The batch-verify kernel runs at the pipeline's mean batch size.
    let batch = pipeline.chain.contract().batch_stats();
    let mean_batch = (batch.items as usize)
        .div_ceil(batch.batches.max(1) as usize)
        .max(1);
    t.span("bench.kernels", |t| {
        kernels.batch_verify(t, mean_batch, scale.samples)
    });

    let attempted = pipeline.hits;
    let unsettled = pipeline.unsettled();
    if !pass.ok() {
        failures.push(format!("end-to-end pass: {}", pass.failed_checks));
    }
    let (layer_self_ms, pipeline_wall_ms) = pipeline_self_times(t.spans());
    let values = derive(
        t.spans(),
        &layer_self_ms,
        pipeline_wall_ms,
        &pipeline,
        pass,
        mean_batch,
        scale.overhead_spans,
    );
    let trace_path = bench_dir().join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_path, chrome_trace_json(t.spans(), workload.name()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(LayerReport {
        workload,
        seed,
        attempted,
        failed: if failures.is_empty() {
            unsettled
        } else {
            attempted
        },
        failures,
        values,
        layer_self_ms,
        pipeline_wall_ms,
        trace_path,
        spans: t.spans().len(),
    })
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// Inputs of the `crypto`, `core` and `ledger` kernels, drawn from the
/// seed at the workload's shape.
struct Kernels {
    rng: StdRng,
    kp: KeyPair,
    range: PlaintextRange,
    answer: Answer,
    golden: dragoon_core::GoldenStandards,
    k: usize,
}

impl Kernels {
    fn new(config: &MarketConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c_7300);
        let range = PlaintextRange::binary();
        let workload = generate_workload(
            config.questions,
            config.golds,
            config.k,
            config.theta,
            range,
            config.budget,
            &mut rng,
        );
        // A random-bot answer: about half the gold standards mismatch,
        // so quality proofs carry a typical number of items.
        let answer = draw_answer(&AnswerModel::RandomBot, &workload.truth, &range, &mut rng);
        Self {
            kp: KeyPair::generate(&mut rng),
            rng,
            range,
            answer,
            golden: workload.golden,
            k: config.k,
        }
    }

    fn run(&mut self, t: &mut Tracer, samples: usize) {
        let (kp, range, k) = (self.kp, self.range, self.k as u64);
        let (answer, golden) = (self.answer.clone(), self.golden.clone());
        let rng = &mut self.rng;
        let cache = ProofCache::new();
        let table = cache.table_for(&kp.ek.0);
        let ct = kp.ek.encrypt(1, rng);
        let (claim, proof) = vpke::prove_with_key(&kp, &ct, &range, rng);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim,
        };
        let cts = answer.encrypt_cached(&kp.ek, rng, Some(&cache));
        let encoded = cts.encode();
        let key = CommitmentKey::random(rng);
        let (chi, quality_proof) = poqoea::prove_quality_with_key(&kp, &cts, &golden, &range, rng);

        // A ledger shaped like one block's working set: a requester, an
        // escrow and K workers per HIT of a cohort.
        let mut ledger = Ledger::new();
        let party = Address::from_seed(1);
        let escrow = Address::from_seed(2);
        ledger.mint(party, u128::MAX / 2);
        for i in 0..1_000 {
            ledger.mint(Address::from_seed(100 + i), 1_000);
        }
        let overlay_accounts: Vec<Address> =
            (0..k + 2).map(|i| Address::from_seed(100 + i)).collect();

        for _ in 0..samples {
            t.span("crypto.keygen", |_| KeyPair::generate(rng));
            t.span("crypto.encrypt", |_| kp.ek.encrypt(1, rng));
            t.span("crypto.encrypt_table", |_| {
                kp.ek.encrypt_with_table(1, Fr::random(rng), Some(&table))
            });
            t.span("crypto.table_build", |_| FixedBaseTable::new(&kp.ek.0));
            t.span("crypto.decrypt", |_| kp.dk.decrypt(&ct, &range));
            t.span("crypto.vpke_prove", |_| {
                vpke::prove_with_key(&kp, &ct, &range, rng)
            });
            t.span("crypto.vpke_verify", |_| {
                assert!(vpke::verify(&stmt, &proof), "honest VPKE proof verifies")
            });
            t.span("crypto.commit", |_| Commitment::commit(&encoded, &key));
            t.span("core.answer_encrypt", |_| {
                answer.encrypt_cached(&kp.ek, rng, Some(&cache))
            });
            t.span("core.prove_quality", |_| {
                poqoea::prove_quality_with_key(&kp, &cts, &golden, &range, rng)
            });
            t.span("core.verify_quality", |_| {
                poqoea::verify_quality(&kp.ek, &cts, chi, &quality_proof, &golden)
                    .expect("honest quality proof verifies")
            });
            t.span("ledger.tx_bracket", |_| {
                ledger.begin_tx();
                ledger.freeze(escrow, party, 3).expect("party is funded");
                ledger
                    .pay(escrow, party, 3)
                    .expect("escrow holds the coins");
                ledger.commit_tx();
            });
            t.span("ledger.rollback", |_| {
                ledger.begin_tx();
                ledger.freeze(escrow, party, 3).expect("party is funded");
                ledger.rollback_tx();
            });
            t.span("ledger.overlay", |_| {
                ledger.sparse_overlay(overlay_accounts.iter().copied())
            });
        }
    }

    /// `batch_verify_each` over `batch` honest items per call.
    fn batch_verify(&mut self, t: &mut Tracer, batch: usize, samples: usize) {
        let items: Vec<_> = (0..batch)
            .map(|_| {
                let ct = self.kp.ek.encrypt(self.rng.gen_range(0..=1), &mut self.rng);
                let (claim, proof) =
                    vpke::prove_with_key(&self.kp, &ct, &self.range, &mut self.rng);
                let stmt = DecryptionStatement {
                    ek: self.kp.ek,
                    ct,
                    claim,
                };
                (stmt, proof)
            })
            .collect();
        for _ in 0..samples {
            t.span_with("crypto.vpke_batch_verify", None, "", |_| {
                let verdicts = vpke::batch_verify_each(&items);
                assert!(verdicts.iter().all(|&v| v), "honest batch verifies");
                ((), batch as u64)
            });
        }
    }
}

// ---------------------------------------------------------------------
// The lockstep pipeline
// ---------------------------------------------------------------------

/// One HIT of the cohort in flight.
struct Flight {
    id: u64,
    requester: Requester,
    truth: GroundTruth,
    workers: Vec<Worker>,
}

struct Pipeline {
    config: MarketConfig,
    persist: PersistConfig,
    log_dir: PathBuf,
    cohort: usize,
    rng: StdRng,
    chain: Chain<HitRegistry>,
    store: BlockStore,
    log_store: BlockStore,
    replica: Chain<HitRegistry>,
    net: NetSim<HitRegistry>,
    content: ContentStore,
    pool: ProvingService<CommitArtifacts>,
    supply: u128,
    /// Requesters funded at genesis.
    requesters: u64,
    /// HITs published so far (ids are `0..hits`).
    hits: u64,
    txs: u64,
    blocks: u64,
    /// Length of the final `state_image()`, set by `finish`.
    state_bytes: u64,
}

/// The genesis every chain of the traced run starts from — live chain,
/// replica, net nodes, recovery — as `MarketSim` builds its own.
fn genesis(config: &MarketConfig, requesters: u64) -> Chain<HitRegistry> {
    let mut chain = Chain::deploy(
        HitRegistry::new(config.settlement).with_verify_threads(EXEC_THREADS),
        REGISTRY_CODE_LEN,
        GasSchedule::istanbul(),
    );
    for i in 0..requesters {
        chain.ledger.mint(requester_addr(i), config.budget);
    }
    chain
}

fn requester_addr(hit: u64) -> Address {
    Address::from_seed(0xd1a6_0000 + hit)
}

/// The behaviour of the `n`-th worker: the config's weighted mix, dealt
/// round-robin.
fn behavior_at(config: &MarketConfig, n: u64) -> WorkerBehavior {
    let total: u32 = config.behavior_mix.iter().map(|(_, w)| w).sum();
    let mut ticket = (n % total as u64) as u32;
    for (behavior, weight) in &config.behavior_mix {
        if ticket < *weight {
            return behavior.clone();
        }
        ticket -= weight;
    }
    unreachable!("ticket < total weight")
}

/// Opens the block store a `PersistConfig` describes, as
/// `MarketSim::new` does (the engine has no public constructor for it).
fn open_store(persist: &PersistConfig) -> BlockStore {
    BlockStore::create(&persist.dir, persist.snapshot_every)
        .expect("store directory must be writable")
        .with_flush_every(persist.flush_every)
        .with_incremental(persist.incremental)
        .with_compaction(persist.compact_log)
        .with_background_writer(persist.background_writer)
}

impl Pipeline {
    fn new(config: &MarketConfig, scratch: &Path, cohort: usize) -> Self {
        let requesters = (MAX_ROUNDS * cohort) as u64;
        let persist = config.persist.clone().unwrap_or_else(|| PersistConfig {
            snapshot_every: crate::workload::SNAPSHOT_EVERY,
            ..PersistConfig::pipelined(scratch.join("store"))
        });
        let net_config = config.net.clone().unwrap_or_default();
        let log_dir = scratch.join("log");
        let mut chain = genesis(config, requesters).with_exec_threads(EXEC_THREADS);
        if let Some(limit) = config.block_gas_limit {
            chain = chain.with_block_gas_limit(limit);
        }
        chain.set_record_block_txs(true);
        let genesis_config = config.clone();
        let net = NetSim::new(net_config, config.seed ^ 0x6e65_7477_6f72_6b00, move || {
            genesis(&genesis_config, requesters)
        });
        Self {
            supply: chain.ledger.total_supply(),
            store: open_store(&persist),
            // Log only: never snapshots, so recovery replays every block.
            log_store: BlockStore::create(&log_dir, 0).expect("log directory must be writable"),
            replica: genesis(config, requesters),
            net,
            chain,
            persist,
            log_dir,
            cohort,
            rng: StdRng::seed_from_u64(config.seed),
            content: ContentStore::new(),
            pool: ProvingService::new(
                config.seed,
                EXEC_THREADS,
                ProvingConfig {
                    enabled: true,
                    ticks_per_kilocost: 0,
                },
            ),
            config: config.clone(),
            requesters,
            hits: 0,
            txs: 0,
            blocks: 0,
            state_bytes: 0,
        }
    }

    /// Submits one transaction to the live chain and gossips it.
    fn submit(&mut self, t: &mut Tracer, hit: u64, sender: Address, msg: RegistryMessage) {
        let seq = t.hit_span("chain.submit", hit, || {
            self.chain.submit(sender, msg.clone())
        });
        t.hit_span("net.gossip_tx", hit, || {
            self.net.gossip_tx(PendingTx { sender, msg, seq })
        });
    }

    fn submit_hit(&mut self, t: &mut Tracer, hit: u64, sender: Address, msg: HitMessage) {
        self.submit(t, hit, sender, RegistryMessage::Hit { id: hit, msg });
    }

    /// Produces one block from the mempool and hands it to every
    /// consumer: both stores, the replica (apply, revert, apply) and
    /// the network. `tag` is the one message kind the block carries.
    fn block(&mut self, t: &mut Tracer, tag: &'static str) {
        let txs = t.span_with("chain.execute", None, tag, |_| {
            self.chain.advance_round_parallel(&mut FifoPolicy);
            let txs = self.chain.last_block_txs().to_vec();
            let n = txs.len() as u64;
            (txs, n)
        });
        let n = txs.len() as u64;
        self.txs += n;
        self.blocks += 1;
        t.span_with("chain.log_append", None, tag, |_| {
            self.chain
                .persist_block(&mut self.log_store)
                .expect("log append must succeed");
            ((), n)
        });
        t.span_with("chain.persist_block", None, tag, |_| {
            self.chain
                .persist_block(&mut self.store)
                .expect("block store append must succeed");
            ((), n)
        });
        let undo = t.span_with("chain.replica_apply", None, tag, |_| {
            (self.replica.apply_block_captured(txs.clone()), n)
        });
        t.span_with("chain.replica_revert", None, tag, |_| {
            self.replica.revert_last_block(undo);
            ((), n)
        });
        t.span_with("chain.replica_apply", None, tag, |_| {
            self.replica.apply_block_captured(txs.clone());
            ((), n)
        });
        t.span_with("net.broadcast_block", None, tag, |_| {
            self.net.broadcast_block(txs);
            ((), n)
        });
        if self.persist.overlap_verify {
            t.span("contract.begin_overlap_verify", |_| {
                self.chain.contract_mut().begin_overlap_verify()
            });
        }
    }

    /// Idle blocks until `done` holds for every HIT of the cohort.
    fn idle_until(
        &mut self,
        t: &mut Tracer,
        flights: &[Flight],
        done: impl Fn(&Self, u64) -> bool,
    ) {
        // Every wait of the lifecycle is a phase window: a few blocks.
        for _ in 0..64 {
            if flights.iter().all(|f| done(self, f.id)) {
                return;
            }
            self.block(t, "idle");
        }
        panic!("lockstep cohort stalled: a phase window never closed");
    }

    fn phase(&self, hit: u64) -> Phase {
        self.chain
            .contract()
            .hit(hit)
            .expect("created instance")
            .phase()
    }

    /// Drives one cohort through its whole lifecycle.
    fn round(&mut self, t: &mut Tracer) {
        let k = self.config.k as u64;
        let range = PlaintextRange::binary();
        // Publish: requesters generate keys and tasks, one Create each.
        let mut flights: Vec<Flight> = Vec::with_capacity(self.cohort);
        for id in self.hits..self.hits + self.cohort as u64 {
            let workload = t.hit_span("core.generate_workload", id, || {
                generate_workload(
                    self.config.questions,
                    self.config.golds,
                    self.config.k,
                    self.config.theta,
                    range,
                    self.config.budget,
                    &mut self.rng,
                )
            });
            let addr = requester_addr(id);
            let requester = t.hit_span("protocol.requester_new", id, || {
                Requester::new(addr, &workload, &mut self.content, &mut self.rng)
            });
            let HitMessage::Publish(params) =
                t.hit_span("protocol.publish", id, || requester.publish_msg())
            else {
                unreachable!("publish_msg returns Publish");
            };
            let windows = self.config.windows;
            self.submit(t, id, addr, RegistryMessage::Create { windows, params });
            flights.push(Flight {
                id,
                requester,
                truth: workload.truth,
                workers: Vec::new(),
            });
        }
        self.hits += self.cohort as u64;
        self.block(t, "create");

        // Commit: K workers per HIT draw, encrypt and commit inline. Every
        // cohort brings new requester keys, so its table cache starts
        // cold (the market's cache is cold for each new key, too).
        let cache = ProofCache::new();
        for f in &mut flights {
            let ek = f.requester.public_key();
            for j in 0..k {
                let n = f.id * k + j;
                let mut worker = Worker::new(
                    Address::from_seed(0x3031_0000 + n),
                    behavior_at(&self.config, n),
                );
                let msg = t.hit_span("protocol.commit", f.id, || {
                    let artifacts = Worker::prepare_commit(
                        &worker.behavior,
                        &f.truth,
                        range,
                        &ek,
                        None,
                        Some(&cache),
                        &mut self.rng,
                    )
                    .expect("no copy-paste worker in the mix");
                    worker.install_commit(artifacts)
                });
                let addr = worker.addr;
                f.workers.push(worker);
                self.submit_hit(t, f.id, addr, msg);
            }
        }
        self.block(t, "commit");

        // The same cohort's commit jobs once more, through the pool.
        self.pool_commits(t, &flights);

        // Reveal, then wait for the reveal windows to close.
        for f in &flights {
            for worker in &f.workers {
                let msg = t.hit_span("protocol.reveal", f.id, || worker.reveal_msg(&mut self.rng));
                if let Some(msg) = msg {
                    self.submit_hit(t, f.id, worker.addr, msg);
                }
            }
        }
        self.block(t, "reveal");
        self.idle_until(t, &flights, |p, id| p.phase(id) == Phase::Evaluate);

        // Golden opening.
        for f in &flights {
            let msg = t.hit_span("protocol.golden", f.id, || f.requester.golden_msg());
            self.submit_hit(t, f.id, f.requester.addr, msg);
        }
        self.block(t, "golden");

        // Evaluate every revealed submission; rejections go on chain.
        for f in &flights {
            for worker in &f.workers {
                let revealed = self
                    .chain
                    .contract()
                    .hit(f.id)
                    .expect("created instance")
                    .revealed(&worker.addr)
                    .cloned();
                let Some(cts) = revealed else { continue };
                let verdict = t.hit_span("protocol.evaluate", f.id, || {
                    f.requester.evaluate(worker.addr, &cts, &mut self.rng)
                });
                match verdict {
                    Verdict::Accept { .. } => {}
                    Verdict::RejectOutOfRange { msg } | Verdict::RejectLowQuality { msg, .. } => {
                        self.submit_hit(t, f.id, f.requester.addr, msg);
                    }
                }
            }
        }
        self.block(t, "reject");

        // Finalize once every evaluation window has passed.
        self.idle_until(t, &flights, |p, id| {
            let hit = p.chain.contract().hit(id).expect("created instance");
            hit.is_settled()
                || hit
                    .evaluate_deadline()
                    .is_some_and(|d| p.chain.round() >= d)
        });
        for f in &flights {
            self.submit_hit(t, f.id, f.requester.addr, HitMessage::Finalize);
        }
        self.block(t, "finalize");
        self.idle_until(t, &flights, |p, id| {
            p.chain
                .contract()
                .hit(id)
                .expect("created instance")
                .is_settled()
        });
    }

    /// One cohort's commit jobs through `ProvingService` at
    /// `EXEC_THREADS`: `submit_batch` until `drain_ready` returns them.
    /// The same jobs ran inline as this round's `protocol.commit`
    /// spans, which is what `protocol.pool_efficiency` divides by; like
    /// those, they start on a cold table cache.
    fn pool_commits(&mut self, t: &mut Tracer, flights: &[Flight]) {
        let range = PlaintextRange::binary();
        let cold_cache = Arc::new(ProofCache::new());
        let mut jobs: Vec<ProofJob<CommitArtifacts>> = Vec::new();
        for f in flights {
            let ek = f.requester.public_key();
            for worker in &f.workers {
                let behavior = worker.behavior.clone();
                let truth = f.truth.clone();
                let cache = Arc::clone(&cold_cache);
                jobs.push(ProofJob {
                    key: JobKey {
                        agent: worker.addr,
                        instance: f.id,
                        phase: ProofPhase::Commit,
                    },
                    cost: 0,
                    run: Box::new(move |rng: &mut StdRng| {
                        Worker::prepare_commit(
                            &behavior,
                            &truth,
                            range,
                            &ek,
                            None,
                            Some(&cache),
                            rng,
                        )
                        .expect("no copy-paste worker in the mix")
                    }),
                });
            }
        }
        let tick = self.chain.round();
        t.span_with("protocol.pool", None, "", |_| {
            let n = jobs.len();
            self.pool.submit_batch(tick, jobs);
            let done = self.pool.drain_ready(tick);
            assert_eq!(done.len(), n, "zero-latency jobs release at once");
            ((), n as u64)
        });
    }

    /// HITs that never settled.
    fn unsettled(&self) -> u64 {
        let registry = self.chain.contract();
        (0..self.hits)
            .filter(|&id| !registry.hit(id).is_some_and(|h| h.is_settled()))
            .count() as u64
    }

    /// Barriers, recovery, replay and the driver's own checks.
    fn finish(&mut self, t: &mut Tracer, failures: &mut Vec<String>) {
        let mut check = |ok: bool, name: &str| {
            if !ok {
                failures.push(name.to_string());
            }
        };
        t.span("contract.join_overlap", |_| {
            self.chain.contract_mut().join_overlap()
        });
        let (hits, misses) = self.chain.contract().overlap_stats();
        self.store.record_overlap(hits, misses);
        t.span("chain.drain", |_| self.store.drain())
            .expect("block store drain must succeed");
        t.span("chain.log_drain", |_| self.log_store.drain())
            .expect("log drain must succeed");
        let converged = t.span("net.drain", |_| self.net.drain());
        check(converged, "net_converged");
        let live = t.span("contract.encode", |_| self.chain.state_image());
        self.state_bytes = live.len() as u64;
        let requesters = self.requesters;
        for _ in 0..RECOVERIES {
            let recovered = t.span_with("chain.recover", None, "", |_| {
                let chain =
                    Chain::recover_from(&self.persist.dir, genesis(&self.config, requesters));
                (chain, self.txs)
            });
            check(
                recovered.is_ok_and(|c| c.state_image() == live),
                "recovered_equals_live",
            );
        }
        let replayed = t.span_with("chain.replay", None, "", |_| {
            let chain = Chain::recover_from(&self.log_dir, genesis(&self.config, requesters));
            (chain, self.txs)
        });
        check(
            replayed.is_ok_and(|c| c.state_image() == live),
            "replayed_equals_live",
        );

        check(
            same_committed_state(&self.replica, &self.chain),
            "replica_equals_live",
        );
        check(
            (0..self.net.nodes())
                .all(|i| same_committed_state(self.net.node_chain(i), &self.chain)),
            "net_nodes_equal_live",
        );
        check(
            self.chain.ledger.total_supply() == self.supply,
            "total_supply_conserved",
        );
        check(self.unsettled() == 0, "every_hit_settled");
        let stats = self.chain.parallel_stats();
        check(
            stats.gas_fallbacks + stats.gas_prefix_commits == 0,
            "no_gas_congestion",
        );
    }
}

// ---------------------------------------------------------------------
// Metrics from the spans
// ---------------------------------------------------------------------

/// Self time per layer over the `bench.pipeline` subtree, and that
/// span's wall. The self times sum to the wall by construction.
fn pipeline_self_times(spans: &[Span]) -> (Vec<(&'static str, f64)>, f64) {
    let selfs = self_times(spans);
    let Some(root) = spans.iter().position(|s| s.name == "bench.pipeline") else {
        return (Vec::new(), 0.0);
    };
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for (i, span) in spans.iter().enumerate().skip(root) {
        // Parents precede children, so one forward sweep marks the subtree.
        if span.parent.is_some_and(|p| inside[p]) {
            inside[i] = true;
        }
        if inside[i] {
            let ms = selfs[i] as f64 / 1e6;
            match by_layer
                .iter_mut()
                .find(|(layer, _)| *layer == span.layer())
            {
                Some((_, total)) => *total += ms,
                None => by_layer.push((span.layer(), ms)),
            }
        }
    }
    (by_layer, spans[root].dur() as f64 / 1e6)
}

/// Median duration of the spans called `name`, in nanoseconds.
fn p50_ns(spans: &[Span], name: &str) -> f64 {
    median(&mut durations(spans, name))
}

/// Total duration over total items of the spans called `name` (with
/// tag `tag`, when given), in nanoseconds per item.
fn ns_per_item(spans: &[Span], name: &str, tags: &[&str]) -> f64 {
    let (ns, items) = spans
        .iter()
        .filter(|s| s.name == name && (tags.is_empty() || tags.contains(&s.tag)))
        .fold((0u64, 0u64), |(ns, items), s| {
            (ns + s.dur(), items + s.items)
        });
    ns as f64 / items.max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The cost of one empty span, in nanoseconds.
fn span_overhead_ns(count: usize) -> f64 {
    let mut t = Tracer::new();
    let start = Instant::now();
    for _ in 0..count {
        t.span("bench.empty", |_| std::hint::black_box(()));
    }
    start.elapsed().as_nanos() as f64 / count as f64
}

/// One value per [`PER_LAYER`] entry, in its order. `layer_self` and
/// `wall_ms` are [`pipeline_self_times`] of `spans`.
fn derive(
    spans: &[Span],
    layer_self: &[(&'static str, f64)],
    wall_ms: f64,
    pipeline: &Pipeline,
    pass: &PassResult,
    mean_batch: usize,
    overhead_spans: usize,
) -> Vec<f64> {
    let layer_ms = |layer: &str| {
        layer_self
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ms)| *ms)
    };
    // Calls into a layer are leaf spans: their self time is their duration.
    let total_ms = |name: &str| durations(spans, name).iter().sum::<f64>() / 1e6;
    let execute_ms = total_ms("chain.execute");
    let busy_blocks: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "chain.execute" && s.items > 0)
        .map(|s| s.dur() as f64)
        .collect();
    let pool_ms = total_ms("protocol.pool");
    let parallel = pipeline.chain.parallel_stats();
    let persist = pipeline.store.stats();
    let batch = pipeline.chain.contract().batch_stats();
    let (overlap_hits, overlap_misses) = pipeline.chain.contract().overlap_stats();
    let net = pipeline.net.report();
    let hits = pipeline.hits.max(1);
    let settle = ["golden", "reject", "finalize"];
    // The market-equivalent part of the driver's wall, per HIT: inline
    // proving (not the pool's second run of the commits) and canonical
    // execution.
    let market_ms = layer_ms("protocol") - pool_ms + execute_ms + total_ms("chain.submit");
    let driver_ms_per_hit = market_ms / hits as f64;
    let pipeline_gap = wall_ms - layer_self.iter().map(|(_, ms)| ms).sum::<f64>();

    let value = |name: &str| -> f64 {
        match name {
            "protocol.publish_us_p50" => p50_ns(spans, "protocol.publish") / 1e3,
            "protocol.commit_ms_p50" => p50_ns(spans, "protocol.commit") / 1e6,
            "protocol.reveal_us_p50" => p50_ns(spans, "protocol.reveal") / 1e3,
            "protocol.evaluate_ms_p50" => p50_ns(spans, "protocol.evaluate") / 1e6,
            "protocol.busy_share" => layer_ms("protocol") / wall_ms,
            "protocol.pool_jobs_per_s" => 1e9 / ns_per_item(spans, "protocol.pool", &[]),
            "protocol.pool_efficiency" => {
                total_ms("protocol.commit") / (EXEC_THREADS as f64 * pool_ms)
            }
            "crypto.keygen_us_p50" => p50_ns(spans, "crypto.keygen") / 1e3,
            "crypto.encrypt_us_p50" => p50_ns(spans, "crypto.encrypt") / 1e3,
            "crypto.encrypt_table_us_p50" => p50_ns(spans, "crypto.encrypt_table") / 1e3,
            "crypto.table_build_ms_p50" => p50_ns(spans, "crypto.table_build") / 1e6,
            "crypto.decrypt_us_p50" => p50_ns(spans, "crypto.decrypt") / 1e3,
            "crypto.vpke_prove_us_p50" => p50_ns(spans, "crypto.vpke_prove") / 1e3,
            "crypto.vpke_verify_us_p50" => p50_ns(spans, "crypto.vpke_verify") / 1e3,
            "crypto.vpke_batch_verify_us_per_item" => {
                p50_ns(spans, "crypto.vpke_batch_verify") / 1e3 / mean_batch as f64
            }
            "crypto.commit_us_p50" => p50_ns(spans, "crypto.commit") / 1e3,
            "core.answer_encrypt_ms_p50" => p50_ns(spans, "core.answer_encrypt") / 1e6,
            "core.prove_quality_ms_p50" => p50_ns(spans, "core.prove_quality") / 1e6,
            "core.verify_quality_ms_p50" => p50_ns(spans, "core.verify_quality") / 1e6,
            "chain.execute_ms_per_block_p50" => median(&mut busy_blocks.clone()) / 1e6,
            "chain.execute_us_per_tx.create" => {
                ns_per_item(spans, "chain.execute", &["create"]) / 1e3
            }
            "chain.execute_us_per_tx.commit" => {
                ns_per_item(spans, "chain.execute", &["commit"]) / 1e3
            }
            "chain.execute_us_per_tx.reveal" => {
                ns_per_item(spans, "chain.execute", &["reveal"]) / 1e3
            }
            "chain.execute_us_per_tx.settle" => ns_per_item(spans, "chain.execute", &settle) / 1e3,
            "chain.execute_busy_share" => execute_ms / wall_ms,
            "chain.groups_per_batch" => ratio(parallel.groups as u64, parallel.batches as u64),
            "chain.serial_tx_share" => ratio(
                parallel.serial_txs as u64,
                (parallel.serial_txs + parallel.parallel_txs) as u64,
            ),
            "chain.retry_share" => ratio(
                (parallel.selective_retries
                    + parallel.create_retries
                    + parallel.conflict_fallbacks
                    + parallel.gas_fallbacks) as u64,
                parallel.batches as u64,
            ),
            "chain.persist_block_us_p50" => p50_ns(spans, "chain.persist_block") / 1e3,
            "chain.persist_block_ms_max" => {
                durations(spans, "chain.persist_block")
                    .into_iter()
                    .fold(0.0, f64::max)
                    / 1e6
            }
            "chain.drain_ms" => p50_ns(spans, "chain.drain") / 1e6,
            "chain.log_bytes_per_tx" => ratio(persist.log_bytes_written, pipeline.txs),
            "chain.snapshot_bytes_per_publish" => ratio(
                persist.snapshot_bytes_written,
                persist.full_snapshots + persist.delta_snapshots,
            ),
            "chain.recover_ms_p50" => p50_ns(spans, "chain.recover") / 1e6,
            "chain.replay_us_per_tx" => ns_per_item(spans, "chain.replay", &[]) / 1e3,
            "chain.replica_apply_us_per_tx" => ns_per_item(spans, "chain.replica_apply", &[]) / 1e3,
            "chain.replica_revert_ms_p50" => p50_ns(spans, "chain.replica_revert") / 1e6,
            "contract.state_bytes_per_hit" => ratio(pipeline.state_bytes, hits),
            "contract.encode_ms" => p50_ns(spans, "contract.encode") / 1e6,
            "contract.batch_items_per_block" => ratio(batch.items, batch.batches),
            "contract.overlap_hit_share" => ratio(overlap_hits, overlap_hits + overlap_misses),
            "ledger.tx_bracket_ns_p50" => p50_ns(spans, "ledger.tx_bracket"),
            "ledger.rollback_ns_p50" => p50_ns(spans, "ledger.rollback"),
            "ledger.overlay_us_p50" => p50_ns(spans, "ledger.overlay") / 1e3,
            "net.gossip_tx_us_p50" => p50_ns(spans, "net.gossip_tx") / 1e3,
            "net.broadcast_block_ms_p50" => p50_ns(spans, "net.broadcast_block") / 1e6,
            "net.drain_ms" => p50_ns(spans, "net.drain") / 1e6,
            "net.msgs_per_block" => ratio(net.messages_sent, pipeline.blocks),
            "net.dropped_share" => ratio(net.messages_dropped, net.messages_sent),
            "net.reorgs" => net.reorgs as f64,
            "net.max_reorg_depth" => net.max_reorg_depth as f64,
            "sim.cpu_s_per_khit" => pass.cpu_s / pass.hits as f64 * 1e3,
            "sim.rss_kb_per_hit" => pass.peak_rss_kb as f64 / pass.hits as f64,
            "sim.txs_per_hit" => pass.txs as f64 / pass.hits as f64,
            "sim.blocks" => pass.blocks as f64,
            "sim.engine_overhead_ms_per_hit" => {
                pass.run_s * 1e3 / pass.hits as f64 - driver_ms_per_hit
            }
            "bench.span_overhead_ns" => span_overhead_ns(overhead_spans),
            "bench.pipeline_wall_ms" => wall_ms,
            "bench.span_gap_share" => pipeline_gap / wall_ms,
            "bench.rounds" => durations(spans, "bench.round").len() as f64,
            other => unreachable!("no derivation for per-layer metric {other}"),
        }
    };
    PER_LAYER.iter().map(|m| value(m.name)).collect()
}
