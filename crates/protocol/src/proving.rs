//! The asynchronous proving pipeline: a keyed job queue that takes
//! proving (answer encryption, commitments, VPKE / PoQoEA evaluation
//! proofs) off the agent hot path.
//!
//! Agents no longer prove inline while the round advances. Instead each
//! drive enqueues a [`ProofJob`] keyed by `(agent, instance, phase)`;
//! the [`ProvingService`] computes the batch through
//! [`dragoon_chain::par_map`] — the run's one resolved thread budget,
//! spent by the same fan-out block execution and settlement
//! verification use (this module owns no threads) — and releases each
//! finished output
//! at `enqueue_tick + latency`, where the latency is **modeled** —
//! derived deterministically from the job's declared cost units and
//! [`ProvingConfig::ticks_per_kilocost`], never from wall clock.
//! Released outputs re-enter the sim in deterministic
//! `(ready_tick, enqueue_seq)` order, so the mempool sequence — and
//! therefore committed chain state — is bit-identical for any thread
//! budget.
//!
//! Determinism of the proofs themselves comes from per-job RNG streams:
//! [`job_rng`] splits the master seed by the job key, so a proof's
//! randomness depends only on `(seed, agent, instance, phase)` — not on
//! which worker thread ran it or in what order the pool scheduled it.
//!
//! [`ProvingConfig::enabled`] switches the latency model and nothing
//! else. With it off (the default) the same jobs run on the same budget
//! with the same keyed RNG streams and release on the tick they were
//! enqueued, which is exactly the async pipeline at zero latency — the
//! equivalence the `proving_equivalence` suite pins down against a
//! one-thread oracle. A budget of one thread is the only serial path:
//! every job then runs on the calling thread, in the batch's hand-out
//! order (round-robin by instance, see
//! [`ProvingService::submit_batch`]).

use dragoon_chain::par_map;
use dragoon_ledger::Address;
use dragoon_trace::{SpanKind, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Which protocol phase a proof job belongs to (part of the job key and
/// of the per-job RNG domain separation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProofPhase {
    /// Answer draw + encryption + commitment.
    Commit,
    /// Commitment opening (no proving work; cost 0).
    Reveal,
    /// Decrypt + VPKE / PoQoEA verdict proving.
    Evaluate,
    /// Non-proving control messages (publish, golden, finalize, cancel)
    /// routed through the queue so mempool order is phase-independent.
    Control,
}

impl ProofPhase {
    fn tag(self) -> u64 {
        match self {
            ProofPhase::Commit => 1,
            ProofPhase::Reveal => 2,
            ProofPhase::Evaluate => 3,
            ProofPhase::Control => 4,
        }
    }
}

/// The queue key: which agent asked, for which HIT instance, in which
/// phase. Also the domain-separation input of [`job_rng`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey {
    /// The submitting agent's on-chain identity.
    pub agent: Address,
    /// The HIT instance the job belongs to (`u64::MAX` for jobs not tied
    /// to a single instance).
    pub instance: u64,
    /// The protocol phase.
    pub phase: ProofPhase,
}

/// One unit of proving work: a keyed closure plus its modeled cost.
///
/// The closure receives the job's private RNG stream and returns the
/// engine-defined output (a message to submit, artifacts to install…).
/// It must not touch shared agent state — everything it reads is
/// captured by value at enqueue time.
pub struct ProofJob<T> {
    /// The queue key.
    pub key: JobKey,
    /// Modeled proving cost in abstract cost units (0 for control jobs).
    pub cost: u64,
    /// The work itself, run with the job's keyed RNG stream.
    pub run: Box<dyn FnOnce(&mut StdRng) -> T + Send>,
}

/// How the proving service is wired into a market run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvingConfig {
    /// Whether release latency is modeled: `true` holds each output back
    /// `cost · ticks_per_kilocost / 1000` ticks; `false` (default)
    /// releases every output in the tick it was requested. It does not
    /// select a compute path — both settings fan a batch out over the
    /// service's thread budget.
    pub enabled: bool,
    /// Simulated ticks of latency per 1000 cost units (rounded down).
    /// 0 means every proof is ready in the tick it was requested.
    pub ticks_per_kilocost: u64,
}

/// Counters the proving service exposes into `MarketReport`. All fields
/// in [`ProvingStats::metric_set`] are thread-independent; the observed
/// `threads` value is kept out of the set for exactly that reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvingStats {
    /// Jobs enqueued.
    pub jobs: u64,
    /// Jobs whose output was released back into the sim.
    pub completed: u64,
    /// Jobs still pending when the run ended (their HITs settled ⊥ via
    /// the deadline path without them).
    pub dropped: u64,
    /// Outputs released after their session was already closed/settled —
    /// late proofs the engine discarded.
    pub stale: u64,
    /// Peak number of queued (not yet released) jobs.
    pub queue_peak: u64,
    /// Release-latency histogram in ticks: `[0, 1, 2–3, 4–7, 8+]`, i.e.
    /// buckets with upper edges 0, 1, 3, 7 and unbounded.
    pub latency_hist: [u64; 5],
    /// Largest observed release latency in ticks.
    pub latency_max: u64,
    /// Proof-cache hits attributable to this run.
    pub cache_hits: u64,
    /// Proof-cache misses (table builds) attributable to this run.
    pub cache_misses: u64,
    /// Release-before-enqueue clock violations: a drained output whose
    /// release tick preceded its enqueue tick. The tick clock is
    /// monotone, so this can never happen on a healthy run; debug
    /// builds assert it, release builds count offenders here (instead
    /// of silently clamping the latency to 0). Always 0.
    pub latency_violations: u64,
    /// The thread budget the service was built with: how many threads
    /// (the caller included) a batch may fan out over, in either mode.
    /// **Thread-dependent — excluded from the JSON witness.**
    pub threads: u64,
}

impl ProvingStats {
    /// The thread-independent proving counters as one registry
    /// [`dragoon_trace::MetricSet`]; its object view is the `PROVING:`
    /// report line.
    pub fn metric_set(&self) -> dragoon_trace::MetricSet {
        dragoon_trace::MetricSet::new("proving")
            .int("jobs", self.jobs)
            .int("completed", self.completed)
            .int("dropped", self.dropped)
            .int("stale", self.stale)
            .int("queue_peak", self.queue_peak)
            .ints("latency_hist", self.latency_hist)
            .int("latency_max", self.latency_max)
            .int("cache_hits", self.cache_hits)
            .int("cache_misses", self.cache_misses)
            .int("latency_violations", self.latency_violations)
    }

    fn record_latency(&mut self, ticks: u64) {
        let bucket = match ticks {
            0 => 0,
            1 => 1,
            2..=3 => 2,
            4..=7 => 3,
            _ => 4,
        };
        self.latency_hist[bucket] += 1;
        self.latency_max = self.latency_max.max(ticks);
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-job RNG stream: a splitmix64 sponge over the master seed and
/// the job key. A job's randomness is a pure function of
/// `(seed, agent, instance, phase)` — independent of thread count,
/// scheduling order, and every other job.
pub fn job_rng(master_seed: u64, key: &JobKey) -> StdRng {
    let mut h = splitmix64(master_seed ^ 0xd1a6_0b0b_5eed_0001);
    let absorb = |state: &mut u64, v: u64| {
        *state = splitmix64(*state ^ v);
    };
    // Address: 20 bytes → three u64 words (last one 4-byte padded).
    let a = &key.agent.0;
    let mut word = [0u8; 8];
    for chunk in a.chunks(8) {
        word.fill(0);
        word[..chunk.len()].copy_from_slice(chunk);
        absorb(&mut h, u64::from_le_bytes(word));
    }
    absorb(&mut h, key.instance);
    absorb(&mut h, key.phase.tag());
    StdRng::seed_from_u64(h)
}

/// The order [`ProvingService::submit_batch`] hands a batch to the pool,
/// as enqueue indices: round-robin by instance, instances in the order
/// they first appear and each instance's jobs in enqueue order — so no
/// two consecutive hand-outs share an instance while two remain.
fn hand_out_order(keys: &[JobKey]) -> Vec<usize> {
    // Instance → (first-appearance rank, jobs seen so far).
    let mut seen: HashMap<u64, (usize, usize)> = HashMap::new();
    let round_and_rank: Vec<(usize, usize)> = keys
        .iter()
        .map(|key| {
            let first_free = seen.len();
            let (rank, jobs) = seen.entry(key.instance).or_insert((first_free, 0));
            *jobs += 1;
            (*jobs - 1, *rank)
        })
        .collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&i| round_and_rank[i]);
    order
}

struct QueuedOutput<T> {
    ready_tick: u64,
    enqueue_tick: u64,
    seq: u64,
    key: JobKey,
    output: T,
}

/// The proving service: computes proof jobs over its thread budget and
/// releases their outputs in deterministic `(ready_tick, seq)` order.
pub struct ProvingService<T> {
    master_seed: u64,
    threads: usize,
    config: ProvingConfig,
    queue: Vec<QueuedOutput<T>>,
    next_seq: u64,
    stats: ProvingStats,
    /// The run's trace handle (off by default).
    tracer: Tracer,
}

impl<T: Send> ProvingService<T> {
    /// Creates the service. `threads` is the pool width the run resolved
    /// once (`dragoon_chain::resolve_threads`, in `MarketSim`'s
    /// assembly); it only affects wall-clock speed, never results.
    pub fn new(master_seed: u64, threads: usize, config: ProvingConfig) -> Self {
        Self {
            master_seed,
            threads: threads.max(1),
            config,
            queue: Vec::new(),
            next_seq: 0,
            stats: ProvingStats {
                threads: threads.max(1) as u64,
                ..ProvingStats::default()
            },
            tracer: Tracer::default(),
        }
    }

    /// Records `prove` / `release` into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> ProvingConfig {
        self.config
    }

    /// Enqueues and computes a batch of jobs requested at `tick`.
    ///
    /// Each job runs with its own [`job_rng`] stream, fanned out over
    /// the thread budget by [`par_map`] (the calling thread is worker 0;
    /// a budget of one, or a single job, runs on it alone), so outputs
    /// are identical at every budget. The pool takes the jobs
    /// round-robin by [`JobKey::instance`] — every instance's first job
    /// (instances in the order they first appear), then every
    /// instance's second, and so on — and the outputs are written back
    /// in enqueue order, which alone fixes `seq`. An instance's jobs
    /// share its requester's fixed-base table; a job that looks it up
    /// in a shared cache (the market hands its jobs the table, built
    /// before the batch) builds it on first use while later ones wait
    /// on it: handed out side by side, two threads would take two of
    /// them and one would sleep through the other's build.
    ///
    /// Not keyed on a job's declared cost: callers submit real work at
    /// cost 0 when they model no latency for it. The output becomes
    /// visible to [`Self::drain_ready`] at
    /// `tick + cost·ticks_per_kilocost/1000` (always `tick` itself when
    /// latency is not modeled).
    pub fn submit_batch(&mut self, tick: u64, jobs: Vec<ProofJob<T>>) {
        if jobs.is_empty() {
            return;
        }
        let total_cost: u64 = jobs.iter().map(|j| j.cost).sum();
        let mut sp = self.tracer.span(SpanKind::Prove, tick);
        sp.arg("jobs", jobs.len() as u64);
        sp.arg("cost", total_cost);
        // The batch's job set (keys + costs) is deterministic, so this
        // event is safe for the golden stream at any thread count.
        self.tracer.event(
            SpanKind::Prove,
            tick,
            &[("jobs", jobs.len() as u64), ("cost", total_cost)],
        );
        self.stats.jobs += jobs.len() as u64;
        let latencies: Vec<u64> = jobs
            .iter()
            .map(|j| {
                if self.config.enabled {
                    j.cost * self.config.ticks_per_kilocost / 1000
                } else {
                    0
                }
            })
            .collect();
        let keys: Vec<JobKey> = jobs.iter().map(|j| j.key).collect();
        let mut slots: Vec<Option<ProofJob<T>>> = jobs.into_iter().map(Some).collect();
        let handed: Vec<(usize, ProofJob<T>)> = hand_out_order(&keys)
            .into_iter()
            .map(|i| (i, slots[i].take().expect("the hand-out is a permutation")))
            .collect();
        let mut outputs = par_map(self.threads, handed, |(i, job)| {
            let mut rng = job_rng(self.master_seed, &job.key);
            (i, (job.run)(&mut rng))
        });
        outputs.sort_unstable_by_key(|&(i, _)| i);
        for (((_, output), key), latency) in outputs.into_iter().zip(keys).zip(latencies) {
            self.queue.push(QueuedOutput {
                ready_tick: tick + latency,
                enqueue_tick: tick,
                seq: self.next_seq,
                key,
                output,
            });
            self.next_seq += 1;
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
    }

    /// Releases every output whose ready tick has arrived, in
    /// `(ready_tick, seq)` order — the deterministic admission order
    /// into the mempool.
    pub fn drain_ready(&mut self, tick: u64) -> Vec<(JobKey, T)> {
        let mut ready: Vec<QueuedOutput<T>> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].ready_tick <= tick {
                ready.push(self.queue.swap_remove(i));
            } else {
                i += 1;
            }
        }
        ready.sort_by_key(|q| (q.ready_tick, q.seq));
        if !ready.is_empty() {
            self.tracer
                .event(SpanKind::Release, tick, &[("jobs", ready.len() as u64)]);
        }
        self.stats.completed += ready.len() as u64;
        for q in &ready {
            // The tick clock is monotone: an output can only drain at
            // or after the tick it was enqueued. Count (don't clamp) a
            // violation so a broken clock shows up in the stats.
            debug_assert!(
                tick >= q.enqueue_tick,
                "job released at tick {tick} before its enqueue at {}",
                q.enqueue_tick
            );
            match tick.checked_sub(q.enqueue_tick) {
                Some(latency) => self.stats.record_latency(latency),
                None => {
                    self.stats.latency_violations += 1;
                }
            }
        }
        ready.into_iter().map(|q| (q.key, q.output)).collect()
    }

    /// Jobs computed but not yet released.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Closes the service at the end of a run: whatever is still queued
    /// is recorded as dropped (its HIT settled ⊥ without it).
    pub fn finish(&mut self) {
        self.stats.dropped += self.queue.len() as u64;
        self.queue.clear();
    }

    /// Read access to the counters.
    pub fn stats(&self) -> &ProvingStats {
        &self.stats
    }

    /// Mutable access (the engine records stale drops and cache deltas).
    pub fn stats_mut(&mut self) -> &mut ProvingStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn key(byte: u8, instance: u64, phase: ProofPhase) -> JobKey {
        JobKey {
            agent: Address::from_byte(byte),
            instance,
            phase,
        }
    }

    fn draw_job(k: JobKey, cost: u64) -> ProofJob<u64> {
        ProofJob {
            key: k,
            cost,
            run: Box::new(|rng: &mut StdRng| rng.gen::<u64>()),
        }
    }

    #[test]
    fn job_rng_is_a_pure_function_of_seed_and_key() {
        let k = key(7, 3, ProofPhase::Commit);
        let a: u64 = job_rng(42, &k).gen();
        let b: u64 = job_rng(42, &k).gen();
        assert_eq!(a, b);
        let c: u64 = job_rng(43, &k).gen();
        assert_ne!(a, c, "different master seed, different stream");
        let d: u64 = job_rng(42, &key(7, 3, ProofPhase::Evaluate)).gen();
        assert_ne!(a, d, "different phase, different stream");
        let e: u64 = job_rng(42, &key(8, 3, ProofPhase::Commit)).gen();
        assert_ne!(a, e, "different agent, different stream");
    }

    #[test]
    fn disabled_service_releases_same_tick_in_enqueue_order() {
        let mut svc: ProvingService<u64> = ProvingService::new(1, 4, ProvingConfig::default());
        let jobs: Vec<_> = (0..8u8)
            .map(|b| draw_job(key(b, 0, ProofPhase::Commit), 10_000))
            .collect();
        svc.submit_batch(5, jobs);
        let out = svc.drain_ready(5);
        assert_eq!(out.len(), 8, "zero latency when disabled");
        let order: Vec<u8> = out.iter().map(|(k, _)| k.agent.0[19]).collect();
        assert_eq!(order, (0..8).collect::<Vec<u8>>());
    }

    /// Runs `body` on a helper thread and fails, instead of hanging,
    /// when it does not finish: jobs that rendezvous on a barrier
    /// deadlock if a batch runs them one after another.
    fn within_deadline<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(out) => out,
            Err(RecvTimeoutError::Timeout) => {
                panic!("batch deadlocked: barrier jobs did not run concurrently")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("the batch panicked"),
        }
    }

    #[test]
    fn disabled_service_fans_out_over_its_thread_budget() {
        let (caller, out) = within_deadline(|| {
            let mut svc = ProvingService::new(1, 2, ProvingConfig::default());
            // Two jobs that wait for each other: the batch completes
            // only with each on a thread of its own.
            let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
            let jobs = (0..2u8)
                .map(|b| {
                    let barrier = barrier.clone();
                    ProofJob {
                        key: key(b, 0, ProofPhase::Commit),
                        cost: 10_000,
                        run: Box::new(move |_: &mut StdRng| {
                            barrier.wait();
                            std::thread::current().id()
                        }),
                    }
                })
                .collect();
            svc.submit_batch(5, jobs);
            (std::thread::current().id(), svc.drain_ready(5))
        });
        assert_eq!(out.len(), 2, "zero latency when disabled");
        let order: Vec<u8> = out.iter().map(|(k, _)| k.agent.0[19]).collect();
        assert_eq!(order, [0, 1], "outputs merge in enqueue order");
        assert_ne!(out[0].1, out[1].1, "the two jobs ran on two threads");
        assert!(
            out.iter().any(|(_, thread)| *thread == caller),
            "the calling thread is worker 0"
        );
    }

    #[test]
    fn one_thread_budget_runs_every_job_on_the_calling_thread() {
        let enabled = ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 0,
        };
        for cfg in [ProvingConfig::default(), enabled] {
            let mut svc = ProvingService::new(1, 1, cfg);
            let jobs = (0..4u8)
                .map(|b| ProofJob {
                    key: key(b, 0, ProofPhase::Commit),
                    cost: 0,
                    run: Box::new(|_: &mut StdRng| std::thread::current().id()),
                })
                .collect();
            svc.submit_batch(0, jobs);
            let here = std::thread::current().id();
            let out = svc.drain_ready(0);
            assert_eq!(out.len(), 4);
            assert!(out.iter().all(|(_, thread)| *thread == here), "{cfg:?}");
        }
    }

    /// A panic inside a job reaches the caller of `submit_batch` with
    /// its own message, whichever thread the job ran on: the calling
    /// thread (a budget of one, or worker 0 of the pool) or a spawned
    /// worker.
    #[test]
    fn job_panic_keeps_its_message_at_every_thread_count() {
        const MESSAGE: &str = "no copy-paste worker in the mix";
        for (threads, panic_on_caller) in [(1, true), (4, true), (4, false)] {
            let message = within_deadline(move || {
                let caller = std::thread::current().id();
                let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
                let jobs: Vec<ProofJob<u64>> = (0..threads as u8)
                    .map(|b| {
                        let barrier = barrier.clone();
                        ProofJob {
                            key: key(b, 0, ProofPhase::Evaluate),
                            cost: 0,
                            run: Box::new(move |_: &mut StdRng| {
                                // One job per thread, so exactly one of
                                // them runs on the caller.
                                barrier.wait();
                                let on_caller = std::thread::current().id() == caller;
                                if on_caller == panic_on_caller {
                                    panic!("{MESSAGE}");
                                }
                                0
                            }),
                        }
                    })
                    .collect();
                let mut svc = ProvingService::new(1, threads, ProvingConfig::default());
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    svc.submit_batch(0, jobs)
                }))
                .expect_err("the batch must panic");
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .expect("a panic message")
            });
            assert_eq!(
                message, MESSAGE,
                "{threads} threads, panic on caller: {panic_on_caller}"
            );
        }
    }

    #[test]
    fn parallel_and_serial_outputs_are_identical() {
        let cfg = ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 0,
        };
        let make = || -> Vec<ProofJob<u64>> {
            (0..32u8)
                .map(|b| draw_job(key(b, u64::from(b) * 7, ProofPhase::Evaluate), 500))
                .collect()
        };
        let mut serial: ProvingService<u64> = ProvingService::new(9, 1, cfg);
        serial.submit_batch(0, make());
        let mut parallel: ProvingService<u64> = ProvingService::new(9, 8, cfg);
        parallel.submit_batch(0, make());
        assert_eq!(serial.drain_ready(0), parallel.drain_ready(0));
    }

    /// Seeded batches of instance ids: 1 to 6 instances, 1 to 6 jobs
    /// each, interleaved in a random enqueue order.
    fn instance_sequences() -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(0x4a4d);
        (0..200)
            .map(|_| {
                let mut ids: Vec<u64> = (0..rng.gen_range(1..=6u64))
                    .flat_map(|id| vec![id * 11; rng.gen_range(1..=6)])
                    .collect();
                rand::seq::SliceRandom::shuffle(&mut ids[..], &mut rng);
                ids
            })
            .collect()
    }

    fn keys_of(instances: &[u64]) -> Vec<JobKey> {
        instances
            .iter()
            .enumerate()
            .map(|(i, &instance)| key(i as u8, instance, ProofPhase::Commit))
            .collect()
    }

    #[test]
    fn hand_out_is_a_permutation_keeping_each_instance_in_enqueue_order() {
        for instances in instance_sequences() {
            let order = hand_out_order(&keys_of(&instances));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..instances.len()).collect::<Vec<_>>());
            for pair in order.windows(2) {
                if instances[pair[0]] == instances[pair[1]] {
                    assert!(pair[0] < pair[1], "{instances:?} → {order:?}");
                }
            }
        }
        assert!(hand_out_order(&[]).is_empty());
    }

    #[test]
    fn consecutive_hand_outs_differ_while_two_instances_remain() {
        for instances in instance_sequences() {
            let order = hand_out_order(&keys_of(&instances));
            for (at, pair) in order.windows(2).enumerate() {
                let remaining: std::collections::BTreeSet<u64> =
                    order[at..].iter().map(|&i| instances[i]).collect();
                if remaining.len() >= 2 {
                    assert_ne!(
                        instances[pair[0]], instances[pair[1]],
                        "{instances:?} → {order:?} at {at}"
                    );
                }
            }
        }
        // A HIT's four commit jobs next to each other go out apart.
        let order = hand_out_order(&keys_of(&[5, 5, 5, 5, 6, 6, 6, 6]));
        assert_eq!(order, [0, 4, 1, 5, 2, 6, 3, 7]);
    }

    /// A batch mixing 1-, 4- and 5-job instances, interleaved, with
    /// latencies of 0 to 2 ticks: at budgets 1, 2, 3 and 8 every job's
    /// output is its own keyed draw and the release order is
    /// `(ready_tick, enqueue order)`, as a one-thread run computes it.
    #[test]
    fn mixed_batch_matches_the_one_thread_run_at_every_budget() {
        let cfg = ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 1,
        };
        let instances = [7u64, 3, 3, 9, 3, 9, 9, 3, 9, 9];
        let jobs = || -> Vec<ProofJob<u64>> {
            keys_of(&instances)
                .into_iter()
                .enumerate()
                .map(|(i, k)| draw_job(k, (i as u64 % 3) * 1_000))
                .collect()
        };
        let mut expected: Vec<(u64, usize, JobKey, u64)> = keys_of(&instances)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (10 + i as u64 % 3, i, k, job_rng(9, &k).gen::<u64>()))
            .collect();
        expected.sort_by_key(|&(ready, seq, _, _)| (ready, seq));
        let expected: Vec<(JobKey, u64)> =
            expected.into_iter().map(|(_, _, k, v)| (k, v)).collect();
        for threads in [1, 2, 3, 8] {
            let mut svc: ProvingService<u64> = ProvingService::new(9, threads, cfg);
            svc.submit_batch(10, jobs());
            let released: Vec<(JobKey, u64)> = (10..13).flat_map(|t| svc.drain_ready(t)).collect();
            assert_eq!(released, expected, "{threads} threads");
        }
    }

    #[test]
    fn latency_delays_release_and_orders_by_ready_then_seq() {
        let cfg = ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 1,
        };
        let mut svc: ProvingService<u64> = ProvingService::new(3, 1, cfg);
        // Costs 2000 and 0 → latencies 2 and 0 ticks.
        svc.submit_batch(
            10,
            vec![
                draw_job(key(1, 0, ProofPhase::Commit), 2_000),
                draw_job(key(2, 0, ProofPhase::Control), 0),
            ],
        );
        let now = svc.drain_ready(10);
        assert_eq!(now.len(), 1);
        assert_eq!(now[0].0.agent, Address::from_byte(2));
        assert!(svc.drain_ready(11).is_empty());
        let later = svc.drain_ready(12);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].0.agent, Address::from_byte(1));
        assert_eq!(svc.stats().latency_hist, [1, 0, 1, 0, 0]);
        assert_eq!(svc.stats().latency_max, 2);
    }

    #[test]
    fn finish_counts_unreleased_jobs_as_dropped() {
        let cfg = ProvingConfig {
            enabled: true,
            ticks_per_kilocost: 1,
        };
        let mut svc: ProvingService<u64> = ProvingService::new(3, 2, cfg);
        svc.submit_batch(0, vec![draw_job(key(1, 0, ProofPhase::Commit), 50_000)]);
        assert!(svc.drain_ready(3).is_empty());
        svc.finish();
        assert_eq!(svc.stats().dropped, 1);
        assert_eq!(svc.pending(), 0);
    }
}
