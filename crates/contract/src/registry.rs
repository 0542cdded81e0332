//! The HIT registry: one on-chain contract hosting **many** concurrent
//! HIT instances over a single chain, mempool and ledger.
//!
//! A marketplace serves hundreds of tasks racing through shared blocks;
//! a single task (Table III, the executable Theorem 1) is one instance.
//! [`HitRegistry`] is the factory-plus-router contract that serves both:
//!
//! * **Multi-instance addressing** — every created HIT gets a [`HitId`]
//!   and its own derived contract address
//!   (`Address::contract_address(registry, id)`), so each instance's
//!   escrow is isolated on the shared ledger while all instances share
//!   one mempool and one block gas budget.
//! * **Routing** — [`RegistryMessage::Hit`] wraps any [`HitMessage`] with
//!   its target id; the registry re-scopes the execution environment to
//!   the instance's address ([`dragoon_chain::ExecEnv::scoped`]) and
//!   delegates.
//! * **Batched settlement** — in [`SettlementMode::Batched`] every
//!   instance runs with deferred verification; at each block boundary
//!   the registry drives every instance's queued rejection proofs
//!   through `dragoon_crypto::vpke::batch_verify_each`.
//! * **Parallel execution** — the registry implements
//!   [`dragoon_chain::ParallelStateMachine`]: every routed message
//!   declares an access set (its target instance plus the ledger
//!   accounts the wrapped [`HitMessage::access_set`] names) and
//!   instances shard by [`HitId`] ([`RegistryShard`]). `Create` is a
//!   serial barrier, so the `Create` arm of `on_message` is the one place
//!   an instance is registered and the id counter advances; the engine
//!   submits a round's creations ahead of its agent traffic, so they run
//!   as one serial stretch at the front of the block. The serial handler
//!   and the shard handler share one router (`route`): every gas charge
//!   and event of a routed message exists once, and the two handlers
//!   keep only where the instance lives and how its undo is recorded;
//!   [`routing_gas`] prices the registry's own share of a receipt.

use crate::contract::{BatchStats, HitContract, HitError, HitEvent, PendingVerdict};
use crate::msg::{HitMessage, PublishParams};
use crate::PhaseWindows;
use dragoon_chain::stage::{Answer, Reply, Stage};
use dragoon_chain::store::{Persist, PersistDelta, Reader, StoreError};
use dragoon_chain::{
    par_map, AccessSet, CalldataStats, CaptureStateMachine, ChainMessage, ExecEnv, Gas,
    GasSchedule, Journaled, ParallelStateMachine, Receipt, StateJournal, StateMachine, TxStatus,
};
use dragoon_crypto::vpke::{self, DecryptionProof, DecryptionStatement};
use dragoon_ledger::Address;
use dragoon_trace::{SpanKind, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a HIT instance within a registry.
pub type HitId = u64;

/// Runtime bytecode size of the registry contract (factory + router +
/// the full Fig 4 instance logic), used for deployment gas.
pub const REGISTRY_CODE_LEN: usize = 9_800;

/// How rejection proofs are cryptographically verified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettlementMode {
    /// Every `evaluate` / `outrange` proof verifies inline in its own
    /// transaction (the paper's per-proof path).
    PerProof,
    /// Proofs are queued per block and dispatched through one batched
    /// verification at the block boundary.
    Batched,
}

/// Transactions accepted by the registry.
#[derive(Clone, Debug)]
pub enum RegistryMessage {
    /// Creates a new HIT instance *and* publishes it in the same
    /// transaction (the factory pattern a marketplace dApp uses): the
    /// sender becomes the requester and the budget is frozen into the
    /// new instance's escrow.
    Create {
        /// Phase windows for the new instance.
        windows: PhaseWindows,
        /// The publish parameters (Fig 4 phase 1).
        params: PublishParams,
    },
    /// A message routed to instance `id`.
    Hit {
        /// The target instance.
        id: HitId,
        /// The wrapped message.
        msg: HitMessage,
    },
}

/// Events emitted by the registry.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryEvent {
    /// A HIT instance was created.
    Created {
        /// Its registry id.
        id: HitId,
        /// Its derived contract address (escrow account).
        addr: Address,
        /// The requester who created and funded it.
        requester: Address,
    },
    /// An instance-level event.
    Hit {
        /// The emitting instance.
        id: HitId,
        /// The wrapped event.
        event: HitEvent,
    },
}

/// Errors that revert a registry transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// The referenced instance does not exist.
    UnknownHit(HitId),
    /// The routed instance reverted.
    Hit(HitId, HitError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownHit(id) => write!(f, "unknown hit #{id}"),
            RegistryError::Hit(id, e) => write!(f, "hit #{id}: {e}"),
        }
    }
}

impl ChainMessage for RegistryMessage {
    fn calldata(&self) -> CalldataStats {
        match self {
            RegistryMessage::Create { params, .. } => HitMessage::Publish(params.clone())
                .calldata()
                .plus(&CREATE_ENVELOPE),
            RegistryMessage::Hit { msg, .. } => msg.calldata().plus(&ROUTE_ENVELOPE),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            RegistryMessage::Create { .. } => "publish",
            RegistryMessage::Hit { msg, .. } => msg.label(),
        }
    }
}

/// One hosted instance.
#[derive(Clone, Debug, PartialEq)]
struct HitInstance {
    addr: Address,
    hit: HitContract,
}

/// Number of instance shards. A power of two so the shard of an id is a
/// mask; 16 keeps per-shard maps at ~62k instances even at the
/// million-HIT tier while staying cheap to snapshot-encode in parallel.
const SHARD_COUNT: usize = 16;

fn shard_of(id: HitId) -> usize {
    (id as usize) & (SHARD_COUNT - 1)
}

/// The registry's instance map, split into [`SHARD_COUNT`] shards keyed
/// by instance id so snapshot encoding can fan out across threads. Ids
/// are assigned sequentially, so consecutive instances land on distinct
/// shards and the per-shard `BTreeMap`s stay balanced. Plain maps: every
/// writer holds `&mut self`, so the borrow checker already keeps readers
/// and writers apart.
#[derive(Clone)]
struct ShardedHits {
    shards: Vec<BTreeMap<HitId, HitInstance>>,
    /// Instance ids handed out mutably (or inserted/removed) since the
    /// last [`ShardedHits::mark_clean`] — the working set an incremental
    /// snapshot encodes. An over-approximation: `inst_mut` marks even
    /// when the caller only reads, and the serial vs. parallel executors
    /// over-approximate differently (rollbacks mark too), so delta
    /// *bytes* are not thread-count-deterministic — the composed state
    /// is. Transient bookkeeping: excluded from equality and encoding.
    dirty: BTreeSet<HitId>,
}

impl ShardedHits {
    fn new() -> Self {
        Self {
            shards: vec![BTreeMap::new(); SHARD_COUNT],
            dirty: BTreeSet::new(),
        }
    }

    fn get(&self, id: HitId) -> Option<&HitInstance> {
        self.shards[shard_of(id)].get(&id)
    }

    fn inst_mut(&mut self, id: HitId) -> Option<&mut HitInstance> {
        self.dirty.insert(id);
        self.shards[shard_of(id)].get_mut(&id)
    }

    fn insert(&mut self, id: HitId, inst: HitInstance) {
        self.dirty.insert(id);
        self.shards[shard_of(id)].insert(id, inst);
    }

    fn remove(&mut self, id: HitId) {
        self.dirty.insert(id);
        self.shards[shard_of(id)].remove(&id);
    }

    /// The dirty working set as `(id, instance-or-tombstone)` pairs,
    /// ascending by id — what an incremental snapshot encodes. `None`
    /// means the instance no longer exists (removed since the mark).
    fn delta_instances(&self) -> Vec<(HitId, Option<HitInstance>)> {
        self.dirty
            .iter()
            .map(|&id| (id, self.get(id).cloned()))
            .collect()
    }

    fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    fn mark_clean(&mut self) {
        self.dirty.clear();
    }

    fn len(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(BTreeMap::is_empty)
    }

    /// All instance ids, ascending.
    fn ids(&self) -> Vec<HitId> {
        let mut ids: Vec<HitId> = self.shards.iter().flat_map(|s| s.keys().copied()).collect();
        ids.sort_unstable();
        ids
    }

    /// Every instance, shard by shard (not id order — use only for
    /// order-independent aggregation).
    fn iter(&self) -> impl Iterator<Item = &HitInstance> {
        self.shards.iter().flat_map(BTreeMap::values)
    }
}

impl PartialEq for ShardedHits {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards
    }
}

impl fmt::Debug for ShardedHits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedHits")
            .field("shards", &SHARD_COUNT)
            .field("len", &self.len())
            .finish()
    }
}

/// One undo record of the registry's transaction journal. Granularity is
/// **per instance**: a transaction that evaluates HIT #7 journals (at
/// most) HIT #7's own undo state — HIT #8 and the other thousands of
/// hosted instances are never copied.
#[derive(Clone, Debug, PartialEq)]
enum RegistryUndo {
    /// Instance `id` was created (and its escrow funded) this
    /// transaction; undo removes it and rewinds the id counter.
    Created(HitId),
    /// Instance `id`'s own journal was opened for this transaction;
    /// commit/rollback propagate into it.
    Opened(HitId),
    /// Instance `id` left the live set (settled at this clock tick);
    /// undo re-inserts it. Recorded only by instrumented clock ticks —
    /// message-path sweeps happen lazily at the next tick.
    Settled(HitId),
    /// Prior value of the cross-instance batch counters, journaled
    /// before a clock tick's batched-settlement dispatch records into
    /// them.
    Stats(BatchStats),
}

/// The run's overlapped verifier: a stage that answers each block's
/// chunks with their verdicts.
type Verifier = Stage<(Vec<VerifyChunk>, Reply<Vec<Vec<bool>>>), ()>;

/// An in-flight overlapped settlement verification: the pending-verdict
/// layout it was started from (per live instance, flattened VPKE items)
/// and the verifier's answer.
struct OverlapJob {
    expected: Vec<(HitId, Vec<(DecryptionStatement, DecryptionProof)>)>,
    verdicts: Answer<Vec<Vec<bool>>>,
}

/// Overlapped-verification bookkeeping. Local machinery, like the
/// journal: excluded from equality, encoding, and clones (a cloned
/// registry — replica, checkpoint — starts with no verifier and no job
/// in flight).
#[derive(Default)]
struct OverlapState {
    verifier: Option<Verifier>,
    pending: Option<OverlapJob>,
    /// Joins whose pending set matched the drained one (precomputed
    /// verdicts used).
    hits: u64,
    /// Joins whose layout changed between handoff and the block
    /// boundary (verdicts recomputed inline).
    misses: u64,
}

impl Clone for OverlapState {
    fn clone(&self) -> Self {
        Self {
            verifier: None,
            pending: None,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

impl fmt::Debug for OverlapState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OverlapState")
            .field("pending", &self.pending.is_some())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// The marketplace registry contract.
#[derive(Clone, Debug)]
pub struct HitRegistry {
    mode: SettlementMode,
    /// Hosted instances, sharded by id (see [`ShardedHits`]).
    hits: ShardedHits,
    /// Unsettled instance ids — block ticks are O(live), not O(ever
    /// created); swept lazily at each clock tick.
    live: BTreeSet<HitId>,
    next_id: HitId,
    /// Cross-instance (per-block) batch counters.
    batch_stats: BatchStats,
    /// Per-transaction undo journal (see [`RegistryUndo`]).
    journal: StateJournal<RegistryUndo>,
    /// Thread budget for block-boundary settlement verification and
    /// snapshot encoding: a resolved count, at least 1.
    verify_threads: usize,
    /// The run's trace handle (off unless the genesis was built with
    /// one) — local like `verify_threads`.
    tracer: Tracer,
    /// In-flight overlapped verification (see
    /// [`HitRegistry::begin_overlap_verify`]).
    overlap: OverlapState,
}

impl PartialEq for HitRegistry {
    /// Compares observable contract state; the journal is transient
    /// bookkeeping (as in [`dragoon_ledger::Ledger`]'s equality) and
    /// `verify_threads` and `tracer` are local to the node — none may
    /// distinguish two chains (the equivalence suites compare registries
    /// across thread counts).
    fn eq(&self, other: &Self) -> bool {
        self.mode == other.mode
            && self.hits == other.hits
            && self.live == other.live
            && self.next_id == other.next_id
            && self.batch_stats == other.batch_stats
    }
}

impl Journaled for HitRegistry {
    fn begin_tx(&mut self) {
        self.journal.begin();
    }

    fn commit_tx(&mut self) {
        for undo in self.journal.drain_commit() {
            if let RegistryUndo::Opened(id) = undo {
                self.hits
                    .inst_mut(id)
                    .expect("opened instance exists")
                    .hit
                    .commit_tx();
            }
        }
    }

    /// The [`CaptureStateMachine`] law as the implementation: a
    /// rollback is the revert of what the commit would have captured.
    fn rollback_tx(&mut self) {
        let capture = self.commit_tx_captured();
        self.revert_capture(capture);
    }
}

/// The captured undo log of *committed* registry brackets — one
/// transaction or instrumented clock tick, or a whole block of them
/// folded together with [`RegistryCapture::absorb`]: everything needed
/// to unwind the commits later. This is what `dragoon-net` replicas
/// stack per applied block so a losing fork can be reorged away — the
/// plain [`Journaled`] bracket only supports rollback-before-commit.
///
/// The three parts undo separate pieces of registry state, with one
/// overlap — the live set, which both a sweep and a creation write — so
/// a revert re-inserts swept instances *before* it removes created
/// ones: an instance can only have been swept after it was created.
#[derive(Debug, Default)]
pub struct RegistryCapture {
    /// Every instance the capture wrote, with what undoes the writes:
    /// `None` — the instance was created here (and its escrow funded),
    /// undo removes it and rewinds the id counter; `Some` — its state
    /// before the capture's first write to it.
    instances: BTreeMap<HitId, Option<Box<HitContract>>>,
    /// Instances that left the live set (settled at a captured clock
    /// tick); undo re-inserts them.
    swept: Vec<HitId>,
    /// The cross-instance batch counters before the capture's first
    /// batched-settlement dispatch.
    stats: Option<BatchStats>,
}

impl RegistryCapture {
    /// `true` when the committed brackets touched nothing.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty() && self.swept.is_empty() && self.stats.is_none()
    }

    /// Folds the capture of the next committed bracket into this one.
    /// An instance this capture already covers — by an earlier snapshot,
    /// or because it was created here — keeps that record and `later`'s
    /// snapshot of it is dropped: restoring the earliest state (or
    /// removing the instance) makes every intermediate one moot.
    pub fn absorb(&mut self, later: RegistryCapture) {
        for (id, undo) in later.instances {
            self.instances.entry(id).or_insert(undo);
        }
        self.swept.extend(later.swept);
        self.stats = self.stats.or(later.stats);
    }
}

impl CaptureStateMachine for HitRegistry {
    type Capture = RegistryCapture;

    /// Commits the open transaction like [`Journaled::commit_tx`], but
    /// returns the undo log — each opened instance that actually
    /// mutated contributing its own captured snapshot — so the commit
    /// can be unwound later with `revert_capture`.
    fn commit_tx_captured(&mut self) -> RegistryCapture {
        let mut capture = RegistryCapture::default();
        for undo in self.journal.drain_commit() {
            match undo {
                RegistryUndo::Created(id) => {
                    capture.instances.insert(id, None);
                }
                RegistryUndo::Opened(id) => {
                    let snapshot = self
                        .hits
                        .inst_mut(id)
                        .expect("opened instance exists")
                        .hit
                        .commit_tx_captured();
                    if let Some(snapshot) = snapshot {
                        capture.instances.entry(id).or_insert(Some(snapshot));
                    }
                }
                RegistryUndo::Settled(id) => capture.swept.push(id),
                RegistryUndo::Stats(prior) => {
                    capture.stats.get_or_insert(prior);
                }
            }
        }
        capture
    }

    /// Unwinds previously captured commits (see `commit_tx_captured`).
    /// Captures must be reverted in reverse commit order (newest first).
    fn revert_capture(&mut self, capture: RegistryCapture) {
        self.live.extend(capture.swept);
        for (id, undo) in capture.instances {
            match undo {
                None => {
                    self.hits.remove(id);
                    self.live.remove(&id);
                    self.next_id -= 1;
                }
                Some(snapshot) => self
                    .hits
                    .inst_mut(id)
                    .expect("captured instance exists")
                    .hit
                    .revert_capture(snapshot),
            }
        }
        if let Some(prior) = capture.stats {
            self.batch_stats = prior;
        }
    }

    fn absorb(block: &mut RegistryCapture, later: RegistryCapture) {
        block.absorb(later);
    }

    fn detach_trace(&mut self) {
        self.tracer = Tracer::default();
    }
}

impl HitRegistry {
    /// An empty registry with the given settlement mode.
    pub fn new(mode: SettlementMode) -> Self {
        Self {
            mode,
            hits: ShardedHits::new(),
            live: BTreeSet::new(),
            next_id: 0,
            batch_stats: BatchStats::default(),
            journal: StateJournal::new(),
            verify_threads: 1,
            tracer: Tracer::default(),
            overlap: OverlapState::default(),
        }
    }

    /// Sets the thread budget for block-boundary settlement verification
    /// and snapshot encoding — a count the caller has already resolved
    /// (`dragoon_chain::resolve_threads`); `0` is read as 1. Verdicts
    /// are thread-count-independent.
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        self.verify_threads = threads.max(1);
        self
    }

    /// Records block-boundary verification into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The settlement mode in force.
    pub fn mode(&self) -> SettlementMode {
        self.mode
    }

    /// Number of instances ever created.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether no instance exists yet.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Read-only access to an instance's contract state.
    pub fn hit(&self, id: HitId) -> Option<&HitContract> {
        self.hits.get(id).map(|inst| &inst.hit)
    }

    /// An instance's derived contract address (its escrow account).
    pub fn hit_address(&self, id: HitId) -> Option<Address> {
        self.hits.get(id).map(|inst| inst.addr)
    }

    /// All instance ids, ascending.
    pub fn hit_ids(&self) -> Vec<HitId> {
        self.hits.ids()
    }

    /// Number of settled (closed or cancelled) instances.
    pub fn settled_count(&self) -> usize {
        self.hits
            .iter()
            .filter(|inst| inst.hit.is_settled())
            .count()
    }

    /// Batched-settlement counters: the registry's own per-block
    /// cross-instance batches, plus anything an instance dispatched on
    /// its own (only possible via an explicit `Finalize` racing its own
    /// verdicts within one block).
    pub fn batch_stats(&self) -> BatchStats {
        let mut total = self.batch_stats;
        for inst in self.hits.iter() {
            total.absorb(&inst.hit.batch_stats());
        }
        total
    }

    /// Hands block N's settlement verification to the run's verifier
    /// stage, started by the first call, so it overlaps round N+1's
    /// agent-step generation and proving. Snapshots every live
    /// instance's queued verdict items (without draining — the queues
    /// stay journal-consistent) and sends the same `verify_chunks`
    /// fan-out the next clock tick would run. The tick waits for the
    /// answer and uses the precomputed verdicts only if the drained
    /// queues still match the snapshot exactly (the guarantee the round
    /// structure provides: between the end of round N and round N+1's
    /// boundary, only the mempool fills); any mismatch falls back to
    /// inline verification, so committed state is byte-identical either
    /// way — verdicts are pure functions of (statement, proof).
    ///
    /// No-op when a job is already in flight, when nothing is queued,
    /// or in per-proof mode (queues are always empty there). Replicas
    /// and recovery never call this, so replay takes the inline path.
    pub fn begin_overlap_verify(&mut self) {
        if self.overlap.pending.is_some() {
            return;
        }
        let mut expected: Vec<(HitId, Vec<(DecryptionStatement, DecryptionProof)>)> = Vec::new();
        for &id in &self.live {
            let Some(inst) = self.hits.get(id) else {
                continue;
            };
            if inst.hit.is_settled() {
                continue;
            }
            let items = inst.hit.peek_pending_items();
            if !items.is_empty() {
                expected.push((id, items));
            }
        }
        if expected.is_empty() {
            return;
        }
        let threads = self.verify_threads;
        let chunks: Vec<VerifyChunk> = expected.iter().map(|(_, items)| items.clone()).collect();
        let verifier = self.overlap.verifier.get_or_insert_with(|| {
            Stage::spawn("dragoon-overlap-verify", 1, move |jobs| {
                for (chunks, reply) in jobs {
                    Reply::send(reply, verify_chunks(chunks, threads));
                }
                Ok(())
            })
        });
        let Ok(verdicts) = verifier.request(|reply| (chunks, reply));
        self.overlap.pending = Some(OverlapJob { expected, verdicts });
    }

    /// Discards any in-flight overlapped verification and finishes the
    /// verifier stage — the run-end barrier, so no verifier thread
    /// outlives the registry's useful life.
    pub fn join_overlap(&mut self) {
        self.overlap.pending = None;
        if let Some(verifier) = self.overlap.verifier.take() {
            let Ok(()) = verifier.finish();
        }
    }

    /// Overlapped-verification counters: `(hits, misses)` — joins whose
    /// precomputed verdicts were used vs. recomputed inline.
    pub fn overlap_stats(&self) -> (u64, u64) {
        (self.overlap.hits, self.overlap.misses)
    }

    /// Waits for the in-flight overlap job (if any) and returns its
    /// chunk verdicts when the drained pending set matches the layout
    /// the job was started from; `None` (recompute inline) otherwise.
    fn take_overlap_results(
        &mut self,
        drained: &[(HitId, Vec<PendingVerdict>)],
    ) -> Option<Vec<Vec<bool>>> {
        let job = self.overlap.pending.take()?;
        let Ok(verdicts) = self.overlap.verifier.as_mut()?.wait(job.verdicts);
        let matches = job.expected.len() == drained.len()
            && job.expected.iter().zip(drained).all(
                |((expect_id, expect_items), (id, pending))| {
                    expect_id == id
                        && pending.iter().map(|v| v.items.len()).sum::<usize>()
                            == expect_items.len()
                        && pending
                            .iter()
                            .flat_map(|v| v.items.iter())
                            .zip(expect_items)
                            .all(|(a, b)| a == b)
                },
            );
        if matches {
            self.overlap.hits += 1;
            Some(verdicts)
        } else {
            self.overlap.misses += 1;
            None
        }
    }
}

/// The calldata a `Create` adds to its publish payload (the phase
/// windows) and a routed message to its own (the 8-byte instance id).
const CREATE_ENVELOPE: CalldataStats = CalldataStats {
    zero: 12,
    nonzero: 12,
};
const ROUTE_ENVELOPE: CalldataStats = CalldataStats {
    zero: 6,
    nonzero: 2,
};

/// Data bytes of the `Created` log.
const CREATED_LOG_BYTES: usize = 64;

/// The gas the registry adds to a `label` transaction on top of its
/// instance's handler: a `publish` (`Create`; a routed one reverts) pays
/// the id counter, address mapping, `Created` log and envelope, a routed
/// message the lookup and envelope. The rest is Table III's `C_hit` cost.
pub fn routing_gas(label: &str, schedule: &GasSchedule) -> Gas {
    let calldata = |envelope| schedule.intrinsic(&envelope) - schedule.tx_base;
    if label == "publish" {
        2 * schedule.sstore_set + schedule.log(1, CREATED_LOG_BYTES) + calldata(CREATE_ENVELOPE)
    } else {
        schedule.sload + calldata(ROUTE_ENVELOPE)
    }
}

/// Gas usage per protocol operation (the rows of Table III): `C_hit`'s
/// share of each successful receipt, net of the registry's
/// [`routing_gas`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// The rows of one task's receipts, in execution order; reverted
    /// transactions are not part of the protocol's cost.
    pub fn from_receipts<'a>(
        receipts: impl IntoIterator<Item = &'a Receipt>,
        schedule: &GasSchedule,
    ) -> Self {
        let mut gas = Self::default();
        for r in receipts {
            if r.status != TxStatus::Ok {
                continue;
            }
            let used = r.gas_used - routing_gas(r.label, schedule);
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
        gas
    }

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

/// Builds and publishes instance `id` at escrow address `addr` — the
/// whole gas and event footprint of a `Create`.
fn create_instance(
    mode: SettlementMode,
    id: HitId,
    addr: Address,
    env: &mut ExecEnv<'_, RegistryEvent>,
    sender: Address,
    windows: PhaseWindows,
    params: PublishParams,
) -> Result<HitInstance, RegistryError> {
    let mut hit = HitContract::new(windows);
    if mode == SettlementMode::Batched {
        hit = hit.with_deferred_verification();
    }
    // Registry bookkeeping: id counter + address mapping.
    env.gas.charge("sstore", 2 * env.schedule.sstore_set);
    env.scoped(
        addr,
        |child| hit.on_message(child, sender, HitMessage::Publish(params)),
        |event| RegistryEvent::Hit { id, event },
    )
    .map_err(|e| RegistryError::Hit(id, e))?;
    env.emit(
        RegistryEvent::Created {
            id,
            addr,
            requester: sender,
        },
        CREATED_LOG_BYTES,
    );
    Ok(HitInstance { addr, hit })
}

/// Delivers `msg` to the found instance `id` under its own escrow
/// address: the routing-lookup charge, the scoped call, the error
/// mapping.
fn route(
    inst: &mut HitInstance,
    id: HitId,
    env: &mut ExecEnv<'_, RegistryEvent>,
    sender: Address,
    msg: HitMessage,
) -> Result<(), RegistryError> {
    // Routing lookup.
    env.gas.charge("sload", env.schedule.sload);
    let hit = &mut inst.hit;
    env.scoped(
        inst.addr,
        |child| hit.on_message(child, sender, msg),
        |event| RegistryEvent::Hit { id, event },
    )
    .map_err(|e| RegistryError::Hit(id, e))
}

/// One instance's queued VPKE items for a block boundary.
pub type VerifyChunk = Vec<(DecryptionStatement, DecryptionProof)>;

/// The fewest proof items a settlement batch carries once a block is
/// split. 8 items under one key fold into a 34-point MSM: small enough
/// that a block of 16 already uses a second thread, large enough that
/// the fold still amortises (on the `vpke_partition` bench row's
/// ≈ 32-item blocks under two threads, 8 read 0.37× the per-instance
/// one-thread cost, 16 read 0.47× and 32 read 0.46×). Re-read after the
/// fold's MSM got ≈ 5× cheaper: on that histogram at two threads on a
/// 2-vCPU box, not splitting below 24 items read ≈ 20 % fewer µs per
/// item, but `lossy_net_market` `hits_per_s` did not move (three
/// alternated pairs), so 8 stays.
const MIN_BATCH_ITEMS: usize = 8;

/// How many batches [`verify_chunks`] cuts `items` queued proof items
/// into under a budget of `threads`: one per thread, as long as each
/// keeps at least [`MIN_BATCH_ITEMS`].
fn batch_count(items: usize, threads: usize) -> usize {
    threads.min(items / MIN_BATCH_ITEMS).max(1)
}

/// Verifies a block's queued proofs — one chunk per HIT instance, in
/// instance order — and returns one verdict vector per chunk, in chunk
/// order. The only caller of [`vpke::batch_verify_each`] in the
/// registry: the clock tick, the overlapped verifier and (through the
/// tick) recovery replay and every replica's captured block all settle
/// through it.
///
/// The **block**, not the instance, is the unit of verification: the
/// chunks are flattened, the flat list is cut into [`batch_count`]
/// contiguous batches of near-equal item count (a cut may fall inside an
/// instance's chunk), each batch is one folded MSM on its own thread,
/// and the verdicts are scattered back to the per-instance layout. A
/// micro-task instance queues 1–6 items; verified alone those are a full
/// per-proof check or a tiny MSM each, together a block's few dozen are
/// two or three ≈ 100-point folds.
///
/// Verdicts are per-item facts — `batch_verify_each` guarantees each
/// equals the individual `vpke::verify` result — so the partitioning,
/// and with it the thread budget, never shows in a receipt, an event or
/// a gas figure. What a forged proof can buy is time, and only in its
/// own batch: the fold over a batch of *n* fails and is bisected down to
/// the bad item, ≈ 2·log₂ *n* extra (ever smaller) folds; the other
/// batches, and every other instance's verdicts in the same batch, are
/// untouched, and the forger's rejection is thrown out (its worker is
/// paid).
///
/// Public so the `batch_speedup` bench tier can time the settlement
/// layer on its own; the market reaches it only through the registry.
pub fn verify_chunks(chunks: Vec<VerifyChunk>, threads: usize) -> Vec<Vec<bool>> {
    let flat: VerifyChunk = chunks.iter().flatten().copied().collect();
    let batches = batch_count(flat.len(), threads);
    let cut = |b: usize| flat.len() * b / batches;
    let ranges: Vec<_> = (0..batches).map(|b| cut(b)..cut(b + 1)).collect();
    let mut verdicts = par_map(batches, ranges, |range| {
        vpke::batch_verify_each(&flat[range])
    })
    .into_iter()
    .flatten();
    chunks
        .iter()
        .map(|chunk| verdicts.by_ref().take(chunk.len()).collect())
        .collect()
}

impl StateMachine for HitRegistry {
    type Msg = RegistryMessage;
    type Event = RegistryEvent;
    type Error = RegistryError;

    fn on_message(
        &mut self,
        env: &mut ExecEnv<'_, RegistryEvent>,
        sender: Address,
        msg: RegistryMessage,
    ) -> Result<(), RegistryError> {
        match msg {
            RegistryMessage::Create { windows, params } => {
                let id = self.next_id;
                // The id space is checked: at million-HIT scale a wrapped
                // counter would silently alias instance 0's escrow.
                let next = id.checked_add(1).expect("instance id space exhausted");
                let addr = Address::contract_address(&env.contract, next);
                let inst = create_instance(self.mode, id, addr, env, sender, windows, params)?;
                self.next_id = next;
                self.hits.insert(id, inst);
                self.live.insert(id);
                self.journal.record(RegistryUndo::Created(id));
                Ok(())
            }
            RegistryMessage::Hit { id, msg } => {
                // An unknown instance reverts before the routing lookup
                // is charged.
                let inst = self
                    .hits
                    .inst_mut(id)
                    .ok_or(RegistryError::UnknownHit(id))?;
                // Open the addressed instance's own journal under this
                // transaction's scope: only the touched instance records
                // undo state, and only if it actually mutates.
                if self.journal.recording() {
                    inst.hit.begin_tx();
                    self.journal.record(RegistryUndo::Opened(id));
                }
                route(inst, id, env, sender, msg)
            }
        }
    }

    fn on_clock(&mut self, env: &mut ExecEnv<'_, RegistryEvent>, round: u64) {
        // Block boundary, phase 1: drain every instance's queued
        // rejection proofs and settle the whole block's worth at once —
        // the block's items as one balanced batch per thread
        // ([`verify_chunks`]), whichever instances they came from.
        // Verdicts are identical to per-proof verification: batch
        // verdicts are per-item facts, so where the batches are cut
        // never reaches the state.
        let live: Vec<HitId> = self.live.iter().copied().collect();
        let mut drained: Vec<(HitId, Vec<PendingVerdict>)> = Vec::new();
        for &id in &live {
            let inst = self.hits.inst_mut(id).expect("live instance exists");
            if inst.hit.is_settled() {
                continue;
            }
            // Instrumented tick (an open registry bracket around the
            // clock tick — the captured block path of `dragoon-net`
            // replicas): open every live unsettled instance's own
            // journal exactly once, here, before this walk or any phase
            // below writes to it.
            if self.journal.recording() {
                inst.hit.begin_tx();
                self.journal.record(RegistryUndo::Opened(id));
            }
            let pending = inst.hit.take_pending();
            if !pending.is_empty() {
                drained.push((id, pending));
            }
        }
        // Take any overlapped verification started after the previous
        // block — outside the emptiness guard, so a stale job can never
        // linger (an empty drain against a non-empty snapshot is a
        // mismatch and the job is discarded).
        let precomputed = self.take_overlap_results(&drained);
        // Guard on drained verdicts, not items: a verdict whose proof
        // has zero VPKE items (all mismatches publicly visible) is
        // vacuously valid and must still be applied.
        if !drained.is_empty() {
            let total: usize = drained
                .iter()
                .map(|(_, pending)| pending.iter().map(|v| v.items.len()).sum::<usize>())
                .sum();
            let threads = self.verify_threads;
            let mut sp = self.tracer.span(SpanKind::Verify, round);
            sp.arg("instances", drained.len() as u64);
            sp.arg("items", total as u64);
            sp.arg("overlapped", u64::from(precomputed.is_some()));
            // The overlapped job ran under the same budget, so these
            // describe its partition too.
            sp.arg("batches", batch_count(total, threads) as u64);
            sp.arg("threads", threads as u64);
            // The drained verdict layout is deterministic; whether the
            // overlapped thread supplied the results is not (it depends
            // on the store mode), so only counts enter the event.
            self.tracer.event(
                SpanKind::Verify,
                round,
                &[("instances", drained.len() as u64), ("items", total as u64)],
            );
            let results = precomputed.unwrap_or_else(|| {
                let chunks: Vec<VerifyChunk> = drained
                    .iter()
                    .map(|(_, pending)| {
                        pending
                            .iter()
                            .flat_map(|v| v.items.iter().copied())
                            .collect()
                    })
                    .collect();
                verify_chunks(chunks, threads)
            });
            if total > 0 {
                let prior = self.batch_stats;
                self.journal.record(RegistryUndo::Stats(prior));
                self.batch_stats.record(total as u64);
            }
            for ((id, pending), verdicts) in drained.into_iter().zip(results) {
                let inst = self.hits.inst_mut(id).expect("drained from this map");
                let hit = &mut inst.hit;
                env.scoped(
                    inst.addr,
                    |child| hit.apply_verdicts(child, pending, &verdicts),
                    |event| RegistryEvent::Hit { id, event },
                );
            }
        }
        // Phase 2: tick every live instance's phase deadlines (phase 1
        // left every queue empty; `HitContract::on_clock` asserts it).
        for &id in &live {
            let inst = self.hits.inst_mut(id).expect("live instance exists");
            if inst.hit.is_settled() {
                continue;
            }
            let hit = &mut inst.hit;
            env.scoped(
                inst.addr,
                |child| hit.on_clock(child, round),
                |event| RegistryEvent::Hit { id, event },
            );
        }
        // Sweep: instances settled this block (by deadline, Finalize or
        // Cancel) leave the live set. Instrumented ticks journal each
        // removal so a reorg can resurrect the live set (the record is
        // a no-op outside a bracket).
        for id in live {
            let inst = self.hits.get(id).expect("live instance exists");
            if inst.hit.is_settled() {
                self.live.remove(&id);
                self.journal.record(RegistryUndo::Settled(id));
            }
        }
    }
}

/// One hosted instance extracted for a parallel-executor worker thread:
/// an owned clone of the instance plus its registry id. Opaque outside
/// this crate — the executor only moves it between threads and hands it
/// back through [`ParallelStateMachine::shard_install`].
pub struct RegistryShard {
    id: HitId,
    inst: HitInstance,
}

impl ParallelStateMachine for HitRegistry {
    type Shard = RegistryShard;

    fn access_set(&self, msg: &RegistryMessage) -> AccessSet {
        match msg {
            RegistryMessage::Hit { id, msg } => match self.hits.get(*id) {
                Some(inst) => {
                    let access = msg.access_set(inst.addr, &inst.hit);
                    AccessSet::instance(*id)
                        .reads_accounts(access.reads)
                        .writes_accounts(access.writes)
                }
                // Routes to unknown instances revert against global
                // state (no sharding target exists): serial barrier.
                None => AccessSet::global(),
            },
            // Creation registers an instance and advances the id counter:
            // serial barrier, so a batch never changes which instances
            // exist.
            RegistryMessage::Create { .. } => AccessSet::global(),
        }
    }

    fn shard_snapshot(&self, key: u64) -> Option<RegistryShard> {
        self.hits.get(key).map(|inst| RegistryShard {
            id: key,
            inst: inst.clone(),
        })
    }

    fn shard_install(&mut self, key: u64, shard: RegistryShard) {
        debug_assert_eq!(key, shard.id, "shard returned under a foreign key");
        self.hits.insert(key, shard.inst);
    }

    fn shard_on_message(
        shard: &mut RegistryShard,
        env: &mut ExecEnv<'_, RegistryEvent>,
        sender: Address,
        msg: RegistryMessage,
    ) -> Result<(), RegistryError> {
        // Invariant: `access_set` makes every `Create` a barrier, so shards get only routes.
        let RegistryMessage::Hit { id, msg } = msg else {
            unreachable!("a Create never reaches a shard")
        };
        debug_assert_eq!(id, shard.id, "message routed to the wrong shard");
        route(&mut shard.inst, id, env, sender, msg)
    }
}

/// The shard's journal bracket, as the executor's shared transaction
/// bracket drives it around [`ParallelStateMachine::shard_on_message`]:
/// the instance's own journal.
impl Journaled for RegistryShard {
    fn begin_tx(&mut self) {
        self.inst.hit.begin_tx();
    }

    fn commit_tx(&mut self) {
        self.inst.hit.commit_tx();
    }

    fn rollback_tx(&mut self) {
        self.inst.hit.rollback_tx();
    }
}

// -- durable state ------------------------------------------------------

impl Persist for SettlementMode {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SettlementMode::PerProof => 0,
            SettlementMode::Batched => 1,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(SettlementMode::PerProof),
            1 => Ok(SettlementMode::Batched),
            t => Err(StoreError::Corrupt(format!("bad settlement mode tag {t}"))),
        }
    }
}

impl Persist for HitInstance {
    fn put(&self, out: &mut Vec<u8>) {
        self.addr.put(out);
        self.hit.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            addr: Address::get(r)?,
            hit: HitContract::get(r)?,
        })
    }
}

/// Above this many instances, shards encode on the thread budget.
const PARALLEL_ENCODE_THRESHOLD: usize = 4_096;

/// The snapshot codec of the instance map (not a [`Persist`] impl: the
/// encoder takes the registry's thread budget).
impl ShardedHits {
    /// Shards encode independently and concatenate in shard order —
    /// deterministic at any budget. Large registries encode their shards
    /// on up to `threads` threads.
    fn encode(&self, threads: usize, out: &mut Vec<u8>) {
        (SHARD_COUNT as u64).put(out);
        let threads = if self.len() >= PARALLEL_ENCODE_THRESHOLD {
            threads
        } else {
            1
        };
        let chunks = par_map(threads, self.shards.iter().collect(), |shard| {
            let mut buf = Vec::new();
            shard.len().put(&mut buf);
            for (id, inst) in shard {
                id.put(&mut buf);
                inst.put(&mut buf);
            }
            buf
        });
        for chunk in &chunks {
            out.extend_from_slice(chunk);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let shard_count = u64::get(r)?;
        if shard_count != SHARD_COUNT as u64 {
            return Err(StoreError::Corrupt(format!(
                "snapshot has {shard_count} shards, this build uses {SHARD_COUNT}"
            )));
        }
        let mut hits = ShardedHits::new();
        for shard in 0..SHARD_COUNT {
            let len = usize::get(r)?;
            if len > r.remaining() {
                return Err(StoreError::Corrupt(format!(
                    "shard {shard} length {len} exceeds payload"
                )));
            }
            for _ in 0..len {
                let id = HitId::get(r)?;
                if shard_of(id) != shard {
                    return Err(StoreError::Corrupt(format!(
                        "instance {id} stored in shard {shard}"
                    )));
                }
                hits.insert(id, HitInstance::get(r)?);
            }
        }
        // Decoding is not mutation: a freshly restored registry starts
        // with a clean working set.
        hits.mark_clean();
        Ok(hits)
    }
}

impl Persist for HitRegistry {
    /// Observable contract state only: the journal is transient (empty
    /// between transactions, which is when snapshots are taken) and
    /// `verify_threads` and `tracer` are local to the node — exactly
    /// what [`PartialEq`] ignores.
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(
            !self.journal.recording(),
            "registry snapshots are taken between transactions"
        );
        self.mode.put(out);
        self.hits.encode(self.verify_threads, out);
        self.live.iter().copied().collect::<Vec<HitId>>().put(out);
        self.next_id.put(out);
        self.batch_stats.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let mode = SettlementMode::get(r)?;
        let hits = ShardedHits::decode(r)?;
        let live: Vec<HitId> = Vec::get(r)?;
        let next_id = HitId::get(r)?;
        let batch_stats = BatchStats::get(r)?;
        Ok(Self {
            mode,
            hits,
            live: live.into_iter().collect(),
            next_id,
            batch_stats,
            journal: StateJournal::new(),
            verify_threads: 1,
            tracer: Tracer::default(),
            overlap: OverlapState::default(),
        })
    }
}

impl PersistDelta for HitRegistry {
    /// The instance working set (with tombstones) plus the small scalar
    /// state. The live set is encoded in full — it is bare ids, pennies
    /// next to the instances — so a delta needs no set-difference
    /// encoding to compose it.
    fn put_delta(&self, out: &mut Vec<u8>) {
        debug_assert!(
            !self.journal.recording(),
            "registry snapshots are taken between transactions"
        );
        self.hits.delta_instances().put(out);
        self.live.iter().copied().collect::<Vec<HitId>>().put(out);
        self.next_id.put(out);
        self.batch_stats.put(out);
    }

    fn apply_delta(&mut self, r: &mut Reader<'_>) -> Result<(), StoreError> {
        let instances: Vec<(HitId, Option<HitInstance>)> = Vec::get(r)?;
        for (id, inst) in instances {
            match inst {
                Some(inst) => self.hits.insert(id, inst),
                None => self.hits.remove(id),
            }
        }
        // Applying a delta is restoration, not mutation.
        self.hits.mark_clean();
        let live: Vec<HitId> = Vec::get(r)?;
        self.live = live.into_iter().collect();
        self.next_id = HitId::get(r)?;
        self.batch_stats = BatchStats::get(r)?;
        Ok(())
    }

    /// A full snapshot replaces the contract state and keeps the local
    /// thread budget and trace handle the genesis registry was built
    /// with.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), StoreError> {
        let restored = Self::get(r)?;
        *self = Self {
            verify_threads: self.verify_threads,
            tracer: std::mem::take(&mut self.tracer),
            ..restored
        };
        Ok(())
    }

    fn mark_clean(&mut self) {
        self.hits.mark_clean();
    }

    fn dirty_units(&self) -> usize {
        self.hits.dirty_len()
    }
}

impl Persist for RegistryMessage {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RegistryMessage::Create { windows, params } => {
                out.push(0);
                windows.put(out);
                params.put(out);
            }
            RegistryMessage::Hit { id, msg } => {
                out.push(1);
                id.put(out);
                msg.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => RegistryMessage::Create {
                windows: PhaseWindows::get(r)?,
                params: PublishParams::get(r)?,
            },
            1 => RegistryMessage::Hit {
                id: HitId::get(r)?,
                msg: HitMessage::get(r)?,
            },
            t => {
                return Err(StoreError::Corrupt(format!("bad registry message tag {t}")));
            }
        })
    }
}

impl Persist for RegistryEvent {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RegistryEvent::Created {
                id,
                addr,
                requester,
            } => {
                out.push(0);
                id.put(out);
                addr.put(out);
                requester.put(out);
            }
            RegistryEvent::Hit { id, event } => {
                out.push(1);
                id.put(out);
                event.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => RegistryEvent::Created {
                id: HitId::get(r)?,
                addr: Address::get(r)?,
                requester: Address::get(r)?,
            },
            1 => RegistryEvent::Hit {
                id: HitId::get(r)?,
                event: HitEvent::get(r)?,
            },
            t => return Err(StoreError::Corrupt(format!("bad registry event tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Phase, RejectReason, Settlement, SettlementReceipt};
    use dragoon_chain::store::read_log;
    use dragoon_chain::{BlockStore, Chain, GasSchedule, TxStatus};
    use dragoon_core::poqoea;
    use dragoon_core::task::{Answer, EncryptedAnswer, GoldenStandards};
    use dragoon_crypto::commitment::{Commitment, CommitmentKey};
    use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BUDGET: u128 = 3_000;

    struct Market {
        rng: StdRng,
        chain: Chain<HitRegistry>,
        kp: KeyPair,
        requester: Address,
        golden: GoldenStandards,
        gs_key: CommitmentKey,
        /// Where [`tick`] persists each block, once a test attaches one.
        store: Option<BlockStore>,
    }

    fn market(mode: SettlementMode) -> Market {
        market_with(HitRegistry::new(mode))
    }

    fn market_with(registry: HitRegistry) -> Market {
        let mut rng = StdRng::seed_from_u64(0x5e61);
        let kp = KeyPair::generate(&mut rng);
        let requester = Address::from_byte(0xd0);
        let golden = GoldenStandards {
            indexes: vec![0, 2, 4],
            answers: vec![1, 0, 1],
        };
        let gs_key = CommitmentKey::random(&mut rng);
        let mut chain = Chain::deploy(registry, REGISTRY_CODE_LEN, GasSchedule::istanbul());
        chain.ledger.mint(requester, BUDGET * 10);
        Market {
            rng,
            chain,
            kp,
            requester,
            golden,
            gs_key,
            store: None,
        }
    }

    /// Produces the next block, persisting it when a store is attached.
    fn tick(m: &mut Market) {
        m.chain.advance_round_fifo();
        if let Some(store) = &mut m.store {
            m.chain.persist_block(store).expect("persist the block");
        }
    }

    fn params(m: &Market) -> PublishParams {
        // The task shape follows the market's gold standards (default:
        // 6 questions, 3 of them gold, every gold one must be right).
        PublishParams {
            n: 2 * m.golden.indexes.len(),
            budget: BUDGET,
            k: 3,
            range: PlaintextRange::binary(),
            theta: m.golden.indexes.len() as u64,
            ek: m.kp.ek,
            comm_gs: Commitment::commit(&m.golden.encode(), &m.gs_key),
            task_digest: [9u8; 32],
        }
    }

    fn windows() -> PhaseWindows {
        PhaseWindows {
            commit_timeout: Some(4),
            reveal: 2,
            evaluate: 3,
        }
    }

    /// Publishes `count` HITs and returns their ids.
    fn create_hits(m: &mut Market, count: usize) -> Vec<HitId> {
        for _ in 0..count {
            m.chain.submit(
                m.requester,
                RegistryMessage::Create {
                    windows: windows(),
                    params: params(m),
                },
            );
        }
        tick(m);
        let ids: Vec<HitId> = m.chain.contract().hit_ids();
        assert_eq!(ids.len(), count);
        ids
    }

    #[test]
    fn instances_get_distinct_addresses_and_escrows() {
        let mut m = market(SettlementMode::PerProof);
        let ids = create_hits(&mut m, 3);
        let addrs: Vec<Address> = ids
            .iter()
            .map(|&id| m.chain.contract().hit_address(id).unwrap())
            .collect();
        for (i, a) in addrs.iter().enumerate() {
            for b in &addrs[i + 1..] {
                assert_ne!(a, b);
            }
            // Each instance escrow holds its own budget.
            assert_eq!(m.chain.ledger.balance(a), BUDGET);
        }
        // And the registry's own address holds nothing.
        assert_eq!(m.chain.ledger.balance(&m.chain.contract_address()), 0);
    }

    #[test]
    fn create_without_funds_reverts_and_allocates_nothing() {
        let mut m = market(SettlementMode::PerProof);
        let poor = Address::from_byte(0x99);
        m.chain.submit(
            poor,
            RegistryMessage::Create {
                windows: windows(),
                params: params(&m),
            },
        );
        m.chain.advance_round_fifo();
        let last = m.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
        assert!(m.chain.contract().is_empty());
    }

    /// The `Create` arm's counter is the one id source: at the top of
    /// the `u64` space one creation still lands, and the next panics
    /// instead of wrapping onto instance 0's escrow.
    #[test]
    #[should_panic(expected = "instance id space exhausted")]
    fn id_counter_panics_instead_of_wrapping() {
        let mut registry = HitRegistry::new(SettlementMode::PerProof);
        registry.next_id = u64::MAX - 1;
        let mut m = market_with(registry);
        let create = |m: &mut Market| {
            let msg = RegistryMessage::Create {
                windows: windows(),
                params: params(m),
            };
            m.chain.submit(m.requester, msg);
            tick(m);
        };
        create(&mut m);
        assert_eq!(m.chain.contract().hit_ids(), [u64::MAX - 1]);
        assert_eq!(m.chain.contract().next_id, u64::MAX);
        create(&mut m); // id u64::MAX: its successor would wrap to 0
    }

    #[test]
    fn messages_route_to_the_addressed_instance_only() {
        let mut m = market(SettlementMode::PerProof);
        let ids = create_hits(&mut m, 2);
        let w = Address::from_byte(1);
        let key = CommitmentKey::random(&mut m.rng);
        let comm = Commitment::commit(b"c", &key);
        m.chain.submit(
            w,
            RegistryMessage::Hit {
                id: ids[0],
                msg: HitMessage::Commit { commitment: comm },
            },
        );
        m.chain.advance_round_fifo();
        let r = m.chain.contract();
        assert_eq!(r.hit(ids[0]).unwrap().committed_workers().len(), 1);
        assert_eq!(r.hit(ids[1]).unwrap().committed_workers().len(), 0);
    }

    #[test]
    fn unknown_hit_reverts() {
        let mut m = market(SettlementMode::PerProof);
        create_hits(&mut m, 1);
        m.chain.submit(
            Address::from_byte(1),
            RegistryMessage::Hit {
                id: 77,
                msg: HitMessage::Finalize,
            },
        );
        m.chain.advance_round_fifo();
        let last = m.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
    }

    /// Drives every instance in `ids` through commit, reveal and the
    /// golden opening in shared blocks (3 workers each; worker 0 gets
    /// every gold standard wrong, the others every one right) and
    /// returns worker 0's ciphertexts per instance.
    fn open_evaluation(m: &mut Market, ids: &[HitId]) -> Vec<EncryptedAnswer> {
        let workers: Vec<Address> = (1..=3).map(Address::from_byte).collect();
        let mut good = Answer(vec![0; 2 * m.golden.indexes.len()]);
        let mut bad = good.clone();
        for (&i, &a) in m.golden.indexes.iter().zip(&m.golden.answers) {
            good.0[i] = a;
            bad.0[i] = 1 - a;
        }
        let answers = [bad, good.clone(), good];
        let mut reveals = Vec::new();
        for &id in ids {
            for (w, a) in workers.iter().zip(&answers) {
                let enc = a.encrypt(&m.kp.ek, &mut m.rng);
                let key = CommitmentKey::random(&mut m.rng);
                let comm = Commitment::commit(&enc.encode(), &key);
                m.chain.submit(
                    *w,
                    RegistryMessage::Hit {
                        id,
                        msg: HitMessage::Commit { commitment: comm },
                    },
                );
                reveals.push((id, *w, enc, key));
            }
        }
        tick(m);
        for (id, w, enc, key) in &reveals {
            m.chain.submit(
                *w,
                RegistryMessage::Hit {
                    id: *id,
                    msg: HitMessage::Reveal {
                        ciphertexts: enc.clone(),
                        key: *key,
                    },
                },
            );
        }
        tick(m);
        // Close the reveal window.
        tick(m);
        tick(m);
        for &id in ids {
            assert_eq!(m.chain.contract().hit(id).unwrap().phase(), Phase::Evaluate);
            m.chain.submit(
                m.requester,
                RegistryMessage::Hit {
                    id,
                    msg: HitMessage::Golden {
                        golden: m.golden.clone(),
                        key: m.gs_key,
                    },
                },
            );
        }
        tick(m);
        reveals
            .into_iter()
            .filter(|(_, w, ..)| *w == workers[0])
            .map(|(_, _, enc, _)| enc)
            .collect()
    }

    /// The requester's PoQoEA rejection of worker 0, whose revealed
    /// ciphertexts are `cts`.
    fn reject_worker_0(m: &mut Market, cts: &EncryptedAnswer) -> HitMessage {
        let (chi, proof) = poqoea::prove_quality(
            &m.kp.dk,
            cts,
            &m.golden,
            &PlaintextRange::binary(),
            &mut m.rng,
        );
        assert_eq!(chi, 0);
        HitMessage::Evaluate {
            worker: Address::from_byte(1),
            chi,
            proof,
        }
    }

    /// Runs one instance end to end (3 workers, worker 0 low-quality)
    /// and returns the final settlements.
    fn run_instance(m: &mut Market, id: HitId) -> Vec<Settlement> {
        let cts = open_evaluation(m, &[id]);
        let msg = reject_worker_0(m, &cts[0]);
        m.chain
            .submit(m.requester, RegistryMessage::Hit { id, msg });
        for _ in 0..6 {
            m.chain.advance_round_fifo();
        }
        let hit = m.chain.contract().hit(id).unwrap();
        assert!(hit.is_settled());
        (1..=3)
            .map(|w| hit.settlement(&Address::from_byte(w)).unwrap().clone())
            .collect()
    }

    #[test]
    fn batched_settlement_matches_per_proof_verdicts() {
        let mut per_proof = market(SettlementMode::PerProof);
        let ids = create_hits(&mut per_proof, 1);
        let inline = run_instance(&mut per_proof, ids[0]);
        assert_eq!(
            per_proof.chain.contract().batch_stats(),
            BatchStats::default()
        );

        let mut batched = market(SettlementMode::Batched);
        let ids = create_hits(&mut batched, 1);
        let deferred = run_instance(&mut batched, ids[0]);
        let stats = batched.chain.contract().batch_stats();
        assert!(stats.batches >= 1, "batched mode must batch");
        assert!(stats.items >= 1);

        assert_eq!(inline, deferred, "verdicts must be mode-independent");
        assert!(matches!(inline[0], Settlement::Rejected(_)));
        assert_eq!(inline[1], Settlement::Paid);
        assert_eq!(inline[2], Settlement::Paid);
    }

    /// A rejection whose PoQoEA proof carries zero VPKE items (θ above
    /// the gold count, claimed χ between them) is vacuously valid and
    /// must land identically in both settlement modes — the batched path
    /// must not drop it just because there is nothing to verify.
    fn run_empty_proof_rejection(mode: SettlementMode) -> Settlement {
        let mut m = market(mode);
        // θ = 5 > |G| = 3: any χ in [3, 5) yields Ok(no items) + reject.
        m.chain.submit(
            m.requester,
            RegistryMessage::Create {
                windows: windows(),
                params: PublishParams {
                    theta: 5,
                    ..params(&m)
                },
            },
        );
        m.chain.advance_round_fifo();
        let id = 0;
        let workers: Vec<Address> = (1..=3).map(Address::from_byte).collect();
        let good = Answer(vec![1, 0, 0, 0, 1, 0]);
        let mut cts = Vec::new();
        let mut keys = Vec::new();
        for w in &workers {
            let enc = good.encrypt(&m.kp.ek, &mut m.rng);
            let key = CommitmentKey::random(&mut m.rng);
            let comm = Commitment::commit(&enc.encode(), &key);
            m.chain.submit(
                *w,
                RegistryMessage::Hit {
                    id,
                    msg: HitMessage::Commit { commitment: comm },
                },
            );
            cts.push(enc);
            keys.push(key);
        }
        m.chain.advance_round_fifo();
        for ((w, enc), key) in workers.iter().zip(&cts).zip(&keys) {
            m.chain.submit(
                *w,
                RegistryMessage::Hit {
                    id,
                    msg: HitMessage::Reveal {
                        ciphertexts: enc.clone(),
                        key: *key,
                    },
                },
            );
        }
        for _ in 0..3 {
            m.chain.advance_round_fifo();
        }
        assert_eq!(m.chain.contract().hit(id).unwrap().phase(), Phase::Evaluate);
        m.chain.submit(
            m.requester,
            RegistryMessage::Hit {
                id,
                msg: HitMessage::Golden {
                    golden: m.golden.clone(),
                    key: m.gs_key,
                },
            },
        );
        m.chain.advance_round_fifo();
        // χ = 3 = |G| with an empty proof: structurally valid, below Θ.
        m.chain.submit(
            m.requester,
            RegistryMessage::Hit {
                id,
                msg: HitMessage::Evaluate {
                    worker: workers[0],
                    chi: 3,
                    proof: dragoon_core::poqoea::QualityProof::default(),
                },
            },
        );
        for _ in 0..6 {
            m.chain.advance_round_fifo();
        }
        let hit = m.chain.contract().hit(id).unwrap();
        assert!(hit.is_settled());
        hit.settlement(&workers[0]).unwrap().clone()
    }

    #[test]
    fn empty_proof_rejection_lands_in_both_modes() {
        let inline = run_empty_proof_rejection(SettlementMode::PerProof);
        let batched = run_empty_proof_rejection(SettlementMode::Batched);
        assert_eq!(inline, batched, "zero-item verdicts must not be dropped");
        assert!(matches!(inline, Settlement::Rejected(_)));
    }

    #[test]
    fn concurrent_instances_settle_independently() {
        let mut m = market(SettlementMode::Batched);
        let ids = create_hits(&mut m, 2);
        // Run the first instance to completion; the second stays open in
        // its commit phase until its timeout cancels it.
        let s = run_instance(&mut m, ids[0]);
        assert_eq!(s.len(), 3);
        assert!(m.chain.contract().hit(ids[1]).unwrap().is_settled());
        // The unfilled instance refunded its budget (cancel path).
        let requester_balance = m.chain.ledger.balance(&m.requester);
        // Started with 10×BUDGET, spent 2 budgets, got back: the unfilled
        // one in full plus the rejected share of the filled one.
        assert_eq!(
            requester_balance,
            BUDGET * 10 - 2 * BUDGET + BUDGET + BUDGET / 3
        );
    }

    /// The oracle: every item through `vpke::verify` on its own.
    fn verify_individually(chunks: &[VerifyChunk]) -> Vec<Vec<bool>> {
        chunks
            .iter()
            .map(|c| c.iter().map(|(s, p)| vpke::verify(s, p)).collect())
            .collect()
    }

    #[test]
    fn verify_chunks_matches_sequential() {
        let mut m = market(SettlementMode::Batched);
        let range = PlaintextRange::new(0, 3);
        // Skewed chunk sizes (1, 7, 23, 2, 40) with corruption scattered
        // across chunks: 73 items, enough for four batches.
        let mut chunks: Vec<VerifyChunk> = Vec::new();
        for (ci, n) in [1usize, 7, 23, 2, 40].into_iter().enumerate() {
            let mut chunk = Vec::new();
            for i in 0..n {
                let ct = m.kp.ek.encrypt((i % 3) as u64, &mut m.rng);
                let (claim, mut proof) = vpke::prove(&m.kp.dk, &ct, &range, &mut m.rng);
                if (ci + i) % 5 == 0 {
                    proof.z += dragoon_crypto::Fr::one();
                }
                let stmt = DecryptionStatement {
                    ek: m.kp.ek,
                    ct,
                    claim,
                };
                chunk.push((stmt, proof));
            }
            chunks.push(chunk);
        }
        let individual = verify_individually(&chunks);
        // Some of the corrupted proofs actually failed.
        assert!(individual.iter().flatten().any(|&ok| !ok));
        let per_chunk: Vec<Vec<bool>> = chunks.iter().map(|c| vpke::batch_verify_each(c)).collect();
        assert_eq!(per_chunk, individual);
        // Verdict-identical at every budget, including 1 — and at every
        // budget above 1 some cut falls strictly inside a chunk.
        let starts: Vec<usize> = chunks
            .iter()
            .scan(0, |at, c| {
                *at += c.len();
                Some(*at - c.len())
            })
            .collect();
        for (threads, batches) in [(1usize, 1usize), (2, 2), (3, 3), (4, 4), (16, 9)] {
            assert_eq!(batch_count(73, threads), batches);
            assert!(
                batches == 1 || (1..batches).any(|b| !starts.contains(&(73 * b / batches))),
                "budget {threads}: every cut sits on a chunk boundary"
            );
            assert_eq!(
                verify_chunks(chunks.clone(), threads),
                individual,
                "thread budget {threads} must not change verdicts"
            );
        }
        // Both sides of the minimum batch size: one item short of two
        // full batches stays whole, two full batches split — the cut
        // inside the 23-item chunk, which the prefix itself truncates.
        for (total, batches) in [(2 * MIN_BATCH_ITEMS - 1, 1), (2 * MIN_BATCH_ITEMS, 2)] {
            assert_eq!(batch_count(total, 4), batches, "{total} items");
            let mut room = total;
            let input: Vec<VerifyChunk> = chunks
                .iter()
                .map(|c| {
                    let take = c.len().min(room);
                    room -= take;
                    c[..take].to_vec()
                })
                .collect();
            assert_eq!(input.iter().map(Vec::len).sum::<usize>(), total);
            let expect = verify_individually(&input);
            assert_eq!(verify_chunks(input, 4), expect, "{total} items");
        }
        // Degenerate layouts: nothing queued, and empty chunks between
        // full ones (a verdict whose proof exhibits no VPKE item).
        assert_eq!(verify_chunks(Vec::new(), 4), Vec::<Vec<bool>>::new());
        let holes = vec![Vec::new(), chunks[1].clone(), Vec::new(), chunks[2].clone()];
        let expect = vec![
            Vec::new(),
            individual[1].clone(),
            Vec::new(),
            individual[2].clone(),
        ];
        assert_eq!(verify_chunks(holes, 4), expect);
    }

    /// Three instances' rejections meet at one block boundary, A's
    /// forged. The block is verified as batches that ignore instance
    /// boundaries, so this pins that a forged item costs only its own
    /// verdict: at every thread budget each item's verdict is its
    /// `vpke::verify`, A's worker is paid, B's and C's rejections stand
    /// — and the same tick applied as a replica's captured block reverts
    /// to the pre-tick image.
    #[test]
    fn forged_proofs_stay_local() {
        // A market one tick before the verdicts land: 12 gold standards
        // per task, so the three rejections queue 36 items — under two
        // threads the cut falls inside B's chunk, under three on the
        // instance boundaries, under sixteen (four batches of nine)
        // inside all three.
        let queued = |threads: usize| {
            let mut m =
                market_with(HitRegistry::new(SettlementMode::Batched).with_verify_threads(threads));
            m.golden = GoldenStandards {
                indexes: (0..12).collect(),
                answers: vec![1; 12],
            };
            let ids = create_hits(&mut m, 3);
            let cts = open_evaluation(&mut m, &ids);
            for (&id, cts) in ids.iter().zip(&cts) {
                let mut msg = reject_worker_0(&mut m, cts);
                if let (0, HitMessage::Evaluate { proof, .. }) = (id, &mut msg) {
                    proof.items[0].proof.z += dragoon_crypto::Fr::one();
                }
                m.chain
                    .submit(m.requester, RegistryMessage::Hit { id, msg });
            }
            m.chain.advance_round_fifo();
            m
        };
        let outcomes = |m: &Market| -> Vec<Settlement> {
            let victim = Address::from_byte(1);
            (0..3)
                .map(|id| {
                    let hit = m.chain.contract().hit(id).unwrap();
                    hit.settlement(&victim).unwrap().clone()
                })
                .collect()
        };

        let m = queued(1);
        let chunks: Vec<VerifyChunk> = (0..3)
            .map(|id| m.chain.contract().hit(id).unwrap().peek_pending_items())
            .collect();
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [12; 3]);
        assert_eq!([2, 3, 16].map(|t| batch_count(36, t)), [2, 3, 4]);
        let individual = verify_individually(&chunks);
        let mut expect = vec![vec![true; 12]; 3];
        expect[0][0] = false;
        assert_eq!(individual, expect);

        let mut images = Vec::new();
        for threads in [1usize, 2, 3, 16] {
            assert_eq!(
                verify_chunks(chunks.clone(), threads),
                individual,
                "budget {threads}"
            );
            let mut m = queued(threads);
            m.chain.advance_round_fifo();
            let settled = outcomes(&m);
            assert_eq!(settled[0], Settlement::Paid, "budget {threads}");
            for rejected in &settled[1..] {
                assert!(
                    matches!(rejected, Settlement::Rejected(_)),
                    "budget {threads}"
                );
            }
            images.push(m.chain.state_image());
        }
        assert!(images.windows(2).all(|w| w[0] == w[1]));

        // Replica path: the tick under a captured bracket lands the same
        // verdicts and unwinds to the byte.
        let mut replica = queued(2);
        let before = replica.chain.state_image();
        let undo = replica.chain.apply_block_captured(Vec::new());
        assert!(replica.chain.state_image() == images[0]);
        replica.chain.revert_last_block(undo);
        assert!(replica.chain.state_image() == before);
        assert!(replica
            .chain
            .contract()
            .hit(0)
            .unwrap()
            .settlement(&Address::from_byte(1))
            .is_none());
    }

    #[test]
    fn snapshot_encoding_is_budget_independent() {
        let registry = Address::from_byte(0xaa);
        let mut hits = ShardedHits::new();
        for id in 0..5_000u64 {
            let inst = HitInstance {
                addr: Address::contract_address(&registry, id + 1),
                hit: HitContract::new(windows()),
            };
            hits.insert(id, inst);
        }
        assert!(hits.len() >= PARALLEL_ENCODE_THRESHOLD);
        let encode = |threads| {
            let mut out = Vec::new();
            hits.encode(threads, &mut out);
            out
        };
        let serial = encode(1);
        for threads in [2, 16] {
            assert!(encode(threads) == serial, "budget {threads} moved a byte");
        }
        let mut r = Reader::new(&serial);
        let decoded = ShardedHits::decode(&mut r).expect("a well-formed encoding");
        assert!(r.is_empty());
        assert!(decoded == hits, "decode(encode(hits)) differs from hits");
    }

    /// A full snapshot replaces the contract wholesale on recovery; the
    /// thread budget and the trace handle the genesis registry was built
    /// with are local configuration, not state, and must come through.
    #[test]
    fn recovered_registry_keeps_its_thread_budget() {
        let tracer = Tracer::deterministic();
        let genesis = || {
            market_with(
                HitRegistry::new(SettlementMode::Batched)
                    .with_verify_threads(3)
                    .with_tracer(tracer.clone()),
            )
        };
        let dir =
            std::env::temp_dir().join(format!("dragoon-registry-budget-{}", std::process::id()));
        // A full snapshot every second block, then one block of log tail.
        let mut store = BlockStore::create(&dir, 2).expect("create the store");
        let mut live = genesis();
        live.chain.set_record_block_txs(true);
        for round in 0..3u8 {
            let msg = if round == 0 {
                RegistryMessage::Create {
                    windows: windows(),
                    params: params(&live),
                }
            } else {
                let key = CommitmentKey::random(&mut live.rng);
                RegistryMessage::Hit {
                    id: 0,
                    msg: HitMessage::Commit {
                        commitment: Commitment::commit(&[round], &key),
                    },
                }
            };
            let sender = if round == 0 {
                live.requester
            } else {
                Address::from_byte(round)
            };
            live.chain.submit(sender, msg);
            live.chain.advance_round_fifo();
            live.chain
                .persist_block(&mut store)
                .expect("persist the block");
        }
        store.drain().expect("drain the store");
        assert_eq!(store.stats().full_snapshots, 1);
        assert_eq!(store.stats().blocks_appended, 3);

        let recovered = Chain::recover_from(&dir, genesis().chain).expect("recover");
        assert_eq!(recovered.contract().verify_threads, 3);
        // What the recovered registry emits lands in the genesis handle.
        let recorded = tracer.deterministic_lines().len();
        recovered.contract().tracer.event(SpanKind::Verify, 0, &[]);
        assert_eq!(tracer.deterministic_lines().len(), recorded + 1);
        assert_eq!(
            recovered
                .contract()
                .hit(0)
                .unwrap()
                .committed_workers()
                .len(),
            2,
            "the snapshot and the log tail both landed"
        );
        assert!(recovered.state_image() == live.chain.state_image());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The registry holds a resolved budget: a zero setting and a
    /// decoded snapshot (which carries no budget) both run on at least
    /// one thread, never on a count left for later resolution.
    #[test]
    fn a_registry_budget_is_at_least_one() {
        let zero = HitRegistry::new(SettlementMode::Batched).with_verify_threads(0);
        assert_eq!(zero.verify_threads, 1);
        let mut out = Vec::new();
        HitRegistry::new(SettlementMode::Batched)
            .with_verify_threads(4)
            .put(&mut out);
        let decoded = HitRegistry::get(&mut Reader::new(&out)).expect("a valid encoding");
        assert!(decoded.verify_threads >= 1);
    }

    /// The trace handle is not contract state: two registries that
    /// differ only in it compare equal and encode to the same bytes.
    #[test]
    fn the_trace_handle_is_neither_compared_nor_encoded() {
        let plain = HitRegistry::new(SettlementMode::Batched);
        let traced = plain.clone().with_tracer(Tracer::full());
        assert!(plain == traced);
        let encode = |registry: &HitRegistry| {
            let mut out = Vec::new();
            registry.put(&mut out);
            out
        };
        assert_eq!(encode(&plain), encode(&traced));
    }

    /// Decodes `bytes` as a `T`: `Some(accepted)` if the decoder
    /// returned, `None` if it panicked.
    fn decode<T: Persist>(bytes: &[u8]) -> Option<bool> {
        std::panic::catch_unwind(|| T::get(&mut Reader::new(bytes)).is_ok()).ok()
    }

    /// Hostile variants of a valid encoding, each tagged with its kind:
    /// `randoms` seeded random strings, then every `stride`-th truncation
    /// and every `stride`-th single-bit flip (stride 1: all of them).
    fn mutations<'a>(
        valid: &'a [u8],
        randoms: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> impl Iterator<Item = (&'static str, Vec<u8>)> + 'a {
        use rand::Rng;
        let random: Vec<Vec<u8>> = (0..randoms)
            .map(|_| {
                let mut bytes = vec![0u8; rng.gen_range(0..=valid.len() + 64)];
                rng.fill(&mut bytes[..]);
                bytes
            })
            .collect();
        let truncated = (0..valid.len())
            .step_by(stride)
            .map(move |cut| valid[..cut].to_vec());
        let flipped = (0..valid.len() * 8).step_by(stride).map(move |bit| {
            let mut bytes = valid.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        });
        let tag = |kind: &'static str| move |bytes: Vec<u8>| (kind, bytes);
        random
            .into_iter()
            .map(tag("random"))
            .chain(truncated.map(tag("truncated")))
            .chain(flipped.map(tag("flipped")))
    }

    /// Feeds `T`'s decoder seeded random bytes, every truncation of
    /// `valid`'s encoding and every single-bit flip of it. Each call must
    /// return; a truncated encoding must also be rejected.
    fn survives_hostile_bytes<T: Persist>(name: &str, valid: &T, rng: &mut StdRng) {
        let mut encoding = Vec::new();
        valid.put(&mut encoding);
        assert_eq!(decode::<T>(&encoding), Some(true), "{name}: valid encoding");
        for (kind, bytes) in mutations(&encoding, 64, 1, rng) {
            let verdict = decode::<T>(&bytes);
            assert!(verdict.is_some(), "{name}: {kind} input {bytes:02x?}");
            if kind == "truncated" {
                assert_eq!(verdict, Some(false), "{name}: {} bytes kept", bytes.len());
            }
        }
    }

    /// Every contract-layer decoder returns `Ok` or `Err` on hostile
    /// bytes — never panics. The valid encodings come from a market one
    /// tick after a rejection was queued for batched settlement, so the
    /// instance and the registry carry revealed answers, an opened
    /// golden, a pending verdict with its VPKE items, and receipts.
    #[test]
    fn decoders_survive_hostile_bytes() {
        let mut m = market(SettlementMode::Batched);
        let ids = create_hits(&mut m, 1);
        let cts = open_evaluation(&mut m, &ids);
        let evaluate = reject_worker_0(&mut m, &cts[0]);
        let create = RegistryMessage::Create {
            windows: windows(),
            params: params(&m),
        };
        let reject = RegistryMessage::Hit {
            id: ids[0],
            msg: evaluate.clone(),
        };
        m.chain.submit(m.requester, reject.clone());
        m.chain.advance_round_fifo();
        let registry = m.chain.contract().clone();
        let hit = registry.hit(ids[0]).expect("created");
        assert!(!hit.peek_pending_items().is_empty(), "a verdict is queued");

        let ct = m.kp.ek.encrypt(5, &mut m.rng);
        let (claim, proof) = vpke::prove(&m.kp.dk, &ct, &PlaintextRange::binary(), &mut m.rng);
        let key = CommitmentKey::random(&mut m.rng);
        let messages = [
            HitMessage::Publish(params(&m)),
            HitMessage::Commit {
                commitment: Commitment::commit(b"c", &key),
            },
            HitMessage::Reveal {
                ciphertexts: cts[0].clone(),
                key,
            },
            HitMessage::Golden {
                golden: m.golden.clone(),
                key,
            },
            HitMessage::OutRange {
                worker: Address::from_byte(2),
                index: 1,
                claim,
                proof,
            },
            evaluate,
            HitMessage::Finalize,
            HitMessage::Cancel,
        ];
        let receipt = SettlementReceipt {
            worker: Address::from_byte(1),
            outcome: Settlement::Rejected(RejectReason::LowQuality { chi: 0 }),
            amount: 0,
        };

        let rng = &mut StdRng::seed_from_u64(0xbad_b17e5);
        survives_hostile_bytes("PhaseWindows", &windows(), rng);
        survives_hostile_bytes("PublishParams", &params(&m), rng);
        for msg in &messages {
            survives_hostile_bytes("HitMessage", msg, rng);
        }
        for phase in [
            Phase::Setup,
            Phase::Commit,
            Phase::Reveal,
            Phase::Evaluate,
            Phase::Closed,
        ] {
            survives_hostile_bytes("Phase", &phase, rng);
        }
        for reason in [
            RejectReason::OutOfRange { index: 3 },
            RejectReason::LowQuality { chi: 1 },
            RejectReason::NoReveal,
        ] {
            survives_hostile_bytes("RejectReason", &reason, rng);
        }
        survives_hostile_bytes("Settlement", &Settlement::Paid, rng);
        survives_hostile_bytes("Settlement", &receipt.outcome, rng);
        survives_hostile_bytes("SettlementReceipt", &receipt, rng);
        survives_hostile_bytes("BatchStats", &registry.batch_stats(), rng);
        survives_hostile_bytes("RegistryMessage", &create, rng);
        survives_hostile_bytes("RegistryMessage", &reject, rng);
        survives_hostile_bytes("HitContract", hit, rng);
        survives_hostile_bytes("HitRegistry", &registry, rng);
        // Settle the HIT so the event log also holds the payout events.
        for _ in 0..6 {
            m.chain.advance_round_fifo();
        }
        let settled = m.chain.contract().hit(ids[0]).expect("created");
        assert!(settled.is_settled());
        let mut hit_events = 0;
        for (_, event) in m.chain.events() {
            survives_hostile_bytes("RegistryEvent", event, rng);
            if let RegistryEvent::Hit { event, .. } = event {
                survives_hostile_bytes("HitEvent", event, rng);
                hit_events += 1;
            }
        }
        assert!(hit_events > 0);
    }

    /// The store's checksum (FNV-1a, over every log frame and artifact
    /// payload), recomputed over mutated bytes so they reach the decoders
    /// instead of stopping at the checksum check.
    fn fnv1a(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0x811c_9dc5, |hash, &b| {
            (hash ^ u32::from(b)).wrapping_mul(0x0100_0193)
        })
    }

    /// Writes hostile `bytes` to the store file at `path` and runs `read`
    /// over the store: whether it accepted them, or `None` if it panicked.
    fn read_hostile_file(
        path: &std::path::Path,
        bytes: &[u8],
        read: impl FnOnce() -> bool,
    ) -> Option<bool> {
        std::fs::write(path, bytes).expect("write the store file");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(read)).ok()
    }

    /// The chain half of [`decoders_survive_hostile_bytes`]: every
    /// `Persist` impl in `dragoon_chain::store`, on values from the same
    /// market with every block persisted, then the store's files.
    /// `read_log` reads a `blocks.log` mutated raw and under recomputed
    /// frame checksums; `Chain::recover_from` reads a store whose newest
    /// snapshot or delta payload is mutated under a recomputed checksum,
    /// so the bytes reach `PersistDelta::restore` and `apply_delta` of
    /// the registry and the ledger. Every call returns `Ok` or `Err`;
    /// none panics. `--nocapture` prints how many inputs each case ran.
    #[test]
    fn store_decoders_survive_hostile_bytes() {
        let dir =
            std::env::temp_dir().join(format!("dragoon-hostile-store-{}", std::process::id()));
        let mut m = market(SettlementMode::Batched);
        // Blocks 1–6 publish, commit, reveal and open the golden
        // standards; 7–13 settle the rejection. The store writes a full
        // snapshot at 6, a delta at 12, and block 13 only to the log.
        let store = BlockStore::create(&dir, 6).expect("create the store");
        m.store = Some(store.with_incremental(true));
        m.chain.set_record_block_txs(true);
        let ids = create_hits(&mut m, 1);
        let cts = open_evaluation(&mut m, &ids);
        let msg = reject_worker_0(&mut m, &cts[0]);
        m.chain
            .submit(m.requester, RegistryMessage::Hit { id: ids[0], msg });
        for _ in 0..7 {
            tick(&mut m);
        }
        let mut store = m.store.take().expect("attached");
        store.drain().expect("drain the store");
        let stats = store.stats();
        assert_eq!(
            (
                stats.full_snapshots,
                stats.delta_snapshots,
                stats.blocks_appended
            ),
            (1, 1, 13)
        );
        drop(store);
        let chain = &m.chain;
        assert!(chain.contract().hit(ids[0]).expect("created").is_settled());

        let rng = &mut StdRng::seed_from_u64(0x5707e5);
        survives_hostile_bytes("Ledger", &chain.ledger, rng);
        for event in chain.ledger.events() {
            survives_hostile_bytes("LedgerEvent", event, rng);
        }
        for block in chain.blocks() {
            survives_hostile_bytes("Block", block, rng);
            for receipt in &block.receipts {
                survives_hostile_bytes("Receipt", receipt, rng);
            }
        }
        for status in [TxStatus::Ok, TxStatus::Reverted("window closed".into())] {
            survives_hostile_bytes("TxStatus", &status, rng);
        }
        let records = read_log::<RegistryMessage>(&dir).expect("read the log");
        assert_eq!(records.len(), 13);
        for tx in records.iter().flat_map(|record| &record.txs) {
            survives_hostile_bytes("PendingTx", tx, rng);
        }

        // The files. The intact store recovers the live chain.
        let genesis = || market(SettlementMode::Batched).chain;
        let recovered = Chain::recover_from(&dir, genesis()).expect("recover");
        assert!(recovered.state_image() == chain.state_image());
        // Per case: inputs run, inputs the reader rejected.
        let mut counts: BTreeMap<String, [usize; 2]> = BTreeMap::new();
        let mut tally = |case: String, kind: &str, result: Option<bool>| {
            let accepted = result.unwrap_or_else(|| panic!("{case}, {kind} input: panicked"));
            let count = counts.entry(case).or_default();
            count[0] += 1;
            count[1] += usize::from(!accepted);
        };
        let log_path = dir.join("blocks.log");
        let log = std::fs::read(&log_path).expect("read blocks.log");
        let read_log_ok = || read_log::<RegistryMessage>(&dir).is_ok();
        for (kind, bytes) in mutations(&log, 16, (log.len() / 64) | 1, rng) {
            let result = read_hostile_file(&log_path, &bytes, read_log_ok);
            tally("read_log, raw blocks.log".into(), kind, result);
        }
        // Each frame is `len ‖ checksum ‖ payload`: mutate one payload
        // and re-frame it.
        let mut payloads = Vec::new();
        let mut pos = 0;
        while pos < log.len() {
            let len = u32::from_le_bytes(log[pos..pos + 4].try_into().expect("4 bytes"));
            payloads.push(&log[pos + 8..pos + 8 + len as usize]);
            pos += 8 + len as usize;
        }
        for (at, payload) in payloads.iter().enumerate() {
            for (kind, bytes) in mutations(payload, 4, (payload.len() / 16) | 1, rng) {
                let mut file = Vec::new();
                for (i, p) in payloads.iter().enumerate() {
                    let p: &[u8] = if i == at { &bytes } else { p };
                    file.extend_from_slice(&(p.len() as u32).to_le_bytes());
                    file.extend_from_slice(&fnv1a(p).to_le_bytes());
                    file.extend_from_slice(p);
                }
                let result = read_hostile_file(&log_path, &file, read_log_ok);
                tally("read_log, re-framed record".into(), kind, result);
            }
        }
        std::fs::write(&log_path, &log).expect("restore blocks.log");

        // An artifact is `checksum ‖ payload`.
        for prefix in ["snapshot-", "delta-"] {
            let path = std::fs::read_dir(&dir)
                .expect("list the store")
                .map(|entry| entry.expect("entry").path())
                .filter(|path| {
                    path.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
                })
                .max()
                .expect("one artifact");
            let file = std::fs::read(&path).expect("read the artifact");
            let payload = &file[4..];
            for (kind, bytes) in mutations(payload, 8, (payload.len() / 32) | 1, rng) {
                let mut mutated = fnv1a(&bytes).to_le_bytes().to_vec();
                mutated.extend_from_slice(&bytes);
                let recover_ok = || Chain::recover_from(&dir, genesis()).is_ok();
                let result = read_hostile_file(&path, &mutated, recover_ok);
                // A truncated payload never decodes, so recovery fails —
                // for a delta too: applied in part and then replayed
                // over, it would recover a chain the live run never had.
                if kind == "truncated" {
                    let kept = bytes.len();
                    assert_eq!(result, Some(false), "{prefix}payload cut to {kept} bytes");
                }
                tally(format!("recover_from, {prefix}payload"), kind, result);
            }
            std::fs::write(&path, &file).expect("restore the artifact");
        }
        let _ = std::fs::remove_dir_all(&dir);
        for (case, [inputs, rejected]) in &counts {
            println!("{case}: {inputs} inputs, {rejected} rejected");
        }
        assert_eq!(counts.len(), 4);
    }
}
