//! Marketplace scenario configuration.

use dragoon_chain::Gas;
use dragoon_contract::{PhaseWindows, SettlementMode};
use dragoon_core::workload::AnswerModel;
use dragoon_econ::EconConfig;
use dragoon_net::NetConfig;
use dragoon_protocol::{ProvingConfig, WorkerBehavior};

/// A weighted worker-behaviour mix; weights are relative frequencies.
pub type BehaviorMix = Vec<(WorkerBehavior, u32)>;

/// Everything that defines one marketplace run. Every field has a
/// sensible default (see [`MarketConfig::default`]); construct with
/// struct-update syntax:
///
/// ```
/// use dragoon_sim::MarketConfig;
/// let cfg = MarketConfig { hits: 250, seed: 7, ..MarketConfig::default() };
/// ```
#[derive(Clone, Debug)]
pub struct MarketConfig {
    /// Total HITs published over the run.
    pub hits: usize,
    /// HITs published per block until `hits` is reached.
    pub spawn_per_block: usize,
    /// Size of the worker pool.
    pub workers: usize,
    /// Max concurrent unsettled HITs one worker participates in.
    pub worker_capacity: usize,
    /// Extra candidates racing for each task's last slot beyond `k`
    /// (exercises `TaskFull` contention; 0 = no overbooking).
    pub overbook: usize,
    /// Questions per task `N`.
    pub questions: usize,
    /// Gold standards per task `|G|`.
    pub golds: usize,
    /// Workers per task `K`.
    pub k: usize,
    /// Quality threshold `Θ`.
    pub theta: u64,
    /// Budget per task `B`.
    pub budget: u128,
    /// The weighted behaviour mix workers are drawn from.
    pub behavior_mix: BehaviorMix,
    /// Phase windows for every instance (`commit_timeout` should be
    /// `Some` so unfillable tasks cancel instead of lingering forever).
    pub windows: PhaseWindows,
    /// Per-block gas cap (`None` = unbounded blocks).
    pub block_gas_limit: Option<Gas>,
    /// Inline or batched settlement verification.
    pub settlement: SettlementMode,
    /// Hard stop after this many blocks (unfinished HITs are reported).
    pub max_blocks: u64,
    /// The run's master seed; equal seeds ⇒ identical reports.
    pub seed: u64,
    /// The run's one thread budget, shared by block execution,
    /// block-boundary settlement verification *and* proving (in both
    /// proving modes): `0` (default) is the host's available
    /// parallelism, resolved once when the market is built; `1` is the
    /// serial everything — the strictly serial executor,
    /// sequential verification and every proof job on the calling
    /// thread. Reports are identical for every value — only wall clock
    /// changes.
    pub exec_threads: usize,
    /// The market-economics layer (`dragoon-econ`): cross-HIT worker
    /// reputation, dynamic pricing of `B` from observed fill rates,
    /// seeded worker churn and adversary policies (golden-withholding
    /// requester cartels, reputation-farming sybils). `None` (default)
    /// = no layer, existing scenarios byte-identical.
    pub econ: Option<EconConfig>,
    /// The multi-node network layer (`dragoon-net`): the canonical
    /// chain's blocks fan out over a deterministic gossip network of
    /// full replicas with seeded link faults, scheduled partitions and
    /// longest-chain fork choice. `None` (default) = single-node, all
    /// existing scenarios byte-identical.
    pub net: Option<NetConfig>,
    /// The asynchronous proving pipeline (`dragoon_protocol::proving`).
    /// Every round's proof jobs fan out over the `exec_threads` budget
    /// (`dragoon_chain::par_map`) in both modes; the switch only decides
    /// when outputs release: disabled (default) in the tick they were
    /// requested, enabled `cost · ticks_per_kilocost / 1000` simulated
    /// ticks later. Committed chain state is bit-identical across
    /// thread budgets either way (per-job RNG streams); enabling the
    /// service with zero latency reproduces the disabled run exactly
    /// (`tests/proving_equivalence.rs`).
    pub proving: ProvingConfig,
    /// Durable chain state (`dragoon_chain::store`): every produced
    /// block's executed transactions append to an on-disk log, with full
    /// state snapshots at a configurable cadence, so a crashed run can
    /// be recovered bit-identically from snapshot + block tail. `None`
    /// (default) = in-memory only, all existing scenarios byte-identical.
    pub persist: Option<PersistConfig>,
}

/// Configuration of the on-disk block store.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding `blocks.log`, `snapshot-*.bin` and
    /// `delta-*.bin`. Created (and any previous run's artifacts cleared)
    /// at market construction.
    pub dir: std::path::PathBuf,
    /// Write a state snapshot every this many blocks (`0` = never;
    /// recovery then replays the whole log from genesis).
    pub snapshot_every: u64,
    /// Snapshots at the cadence are incremental (dirty working set
    /// against the previous artifact, periodic full rebases) instead of
    /// full encodes. Recovery composes base + deltas bit-identically.
    pub incremental: bool,
    /// Truncate `blocks.log` after each successful snapshot publish so
    /// the log stays bounded by one snapshot interval.
    pub compact_log: bool,
    /// Flush the log to the OS every this many appends (`0` = only at
    /// snapshots and drains). 1 (default) keeps the torn-tail window at
    /// a single record.
    pub flush_every: u64,
    /// Move disk writes to a writer stage behind a bounded channel;
    /// the round loop hands off frames and keeps executing.
    pub background_writer: bool,
    /// Overlap block N's batched settlement verification with round
    /// N+1's agent-step generation and proving (batched settlement
    /// only; committed state stays byte-identical).
    pub overlap_verify: bool,
}

impl PersistConfig {
    /// A store in `dir` with the default snapshot cadence (every 64
    /// blocks) and the synchronous, full-snapshot PR-8 behaviour: no
    /// pipelining, flush on every append.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 64,
            incremental: false,
            compact_log: false,
            flush_every: 1,
            background_writer: false,
            overlap_verify: false,
        }
    }

    /// The fully pipelined lifecycle: background writer, incremental
    /// snapshots, log compaction and overlapped settlement verification,
    /// with a relaxed (8-append) flush cadence.
    pub fn pipelined(dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            incremental: true,
            compact_log: true,
            flush_every: 8,
            background_writer: true,
            overlap_verify: true,
            ..Self::new(dir)
        }
    }
}

impl Default for MarketConfig {
    fn default() -> Self {
        Self {
            hits: 50,
            spawn_per_block: 8,
            workers: 40,
            worker_capacity: 4,
            overbook: 1,
            questions: 6,
            golds: 3,
            k: 3,
            theta: 3,
            budget: 3_000,
            behavior_mix: vec![
                (
                    WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.95 }),
                    6,
                ),
                (
                    WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.30 }),
                    2,
                ),
                (WorkerBehavior::Honest(AnswerModel::RandomBot), 1),
                (WorkerBehavior::CommitNoReveal, 1),
            ],
            windows: PhaseWindows {
                commit_timeout: Some(12),
                reveal: 2,
                evaluate: 4,
            },
            block_gas_limit: Some(30_000_000),
            settlement: SettlementMode::Batched,
            max_blocks: 600,
            seed: 0xd1a6_0000,
            exec_threads: 0,
            econ: None,
            net: None,
            proving: ProvingConfig::default(),
            persist: None,
        }
    }
}
