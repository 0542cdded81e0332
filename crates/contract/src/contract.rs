//! The HIT contract functionality `C_hit` (Fig 4) as a gas-metered
//! instance, hosted (even a single task) by [`crate::registry::HitRegistry`].
//!
//! Phases:
//!
//! 1. **Publish** — the requester announces `(N, B, K, range, Θ, h,
//!    comm_gs)` and freezes `B` on the ledger.
//! 2. **Commit** — workers submit `Commit(c_j, key_j)`; duplicate
//!    commitments and duplicate workers are rejected (the copy-and-paste
//!    defence); when `K` distinct commitments arrive the contract moves
//!    to the reveal phase.
//! 3. **Reveal** — committed workers open their commitments with the
//!    actual ciphertext vectors; non-openers are recorded as `⊥`.
//! 4. **Evaluate** — the requester opens the gold standards and may
//!    reject individual submissions with PoQoEA (`evaluate`) or
//!    out-of-range proofs (`outrange`); at the evaluation deadline every
//!    revealed, un-rejected worker is paid `B/K` by default and leftover
//!    escrow returns to the requester. *Requester silence can only pay
//!    workers* — the fairness backstop.
//!
//! Gas model: every storage write, hash, precompile call (EC mul/add for
//! proof verification) and event log a deployed EVM contract would pay
//! for is charged to the transaction's meter, per the schedule in
//! `dragoon-chain`. The contract stores only 256-bit digests of the
//! ciphertexts (one per question — the paper's on-chain optimization) and
//! "emits" the ciphertexts themselves as event-log data.

use crate::msg::{HitMessage, PublishParams};
use dragoon_chain::{ExecEnv, Journaled, StateJournal};
use dragoon_core::poqoea::{self, QualityProof};
use dragoon_core::task::{EncryptedAnswer, GoldenStandards};
use dragoon_crypto::commitment::Commitment;
use dragoon_crypto::keccak::keccak256;
use dragoon_crypto::vpke::{self, DecryptionProof, DecryptionStatement, PlaintextClaim};
use dragoon_crypto::{Fr, G1Projective};
use dragoon_ledger::Address;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Runtime bytecode size of the task contract, used for deployment gas.
/// Calibrated against the paper's "publish task ≈ 1 293k gas" row: a
/// Solidity contract implementing Fig 4 with BN-254 precompile calls
/// compiles to roughly 5 kB of runtime code.
pub const HIT_CONTRACT_CODE_LEN: usize = 5_200;

/// The phase of the contract state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Awaiting the requester's publish message.
    Setup,
    /// Phase 2-a: collecting commitments.
    Commit,
    /// Phase 2-b: collecting reveals (closes at `reveal_deadline`).
    Reveal,
    /// Phase 3: evaluation (closes at `evaluate_deadline`).
    Evaluate,
    /// Settled; no further transitions.
    Closed,
}

/// Why a worker was not paid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// An answer item was proven out of range.
    OutOfRange {
        /// The offending question index.
        index: usize,
    },
    /// PoQoEA proved quality below the threshold.
    LowQuality {
        /// The proven quality upper bound.
        chi: u64,
    },
    /// The worker committed but never revealed.
    NoReveal,
}

/// Per-worker settlement outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Settlement {
    /// Paid `B/K`.
    Paid,
    /// Rejected without payment.
    Rejected(RejectReason),
}

/// One worker's finalized settlement, in the order settlements landed —
/// the per-worker outcome feed cross-HIT layers (reputation books,
/// payout analytics) consume without replaying the event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SettlementReceipt {
    /// The settled worker.
    pub worker: Address,
    /// The outcome.
    pub outcome: Settlement,
    /// Coins paid to the worker (`B/K` when paid, zero when rejected).
    pub amount: u128,
}

/// Events emitted by the contract (the transparent log all entities see).
#[derive(Clone, Debug, PartialEq)]
pub enum HitEvent {
    /// `(published, R, N, B, K, range, Θ, h, comm_gs)`.
    Published {
        /// The requester.
        requester: Address,
        /// Number of questions.
        n: usize,
        /// Budget.
        budget: u128,
        /// Worker quota.
        k: usize,
    },
    /// A commitment was accepted.
    CommitAccepted {
        /// The committing worker.
        worker: Address,
        /// How many commitments have been accepted so far.
        count: usize,
    },
    /// `(committed, comms)`: the K-th commitment arrived; reveal opens.
    CommitClosed,
    /// A worker opened its commitment; the ciphertexts are event-log
    /// data (on-chain state holds only their digests).
    Revealed {
        /// The revealing worker.
        worker: Address,
    },
    /// `(revealed, answers)`: the reveal window closed.
    RevealClosed {
        /// Workers that revealed.
        revealed: usize,
        /// Workers recorded as `⊥`.
        defaulted: usize,
    },
    /// `(golden, G, Gs)` was opened and matched `comm_gs` — the public
    /// auditability of gold standards.
    GoldenOpened,
    /// `(outranged, W_j, a_{i,j})`: an out-of-range item was proven.
    OutRanged {
        /// The rejected worker.
        worker: Address,
        /// The offending question index.
        index: usize,
    },
    /// `(evaluated, W_j, …)`: a PoQoEA rejection was verified.
    Evaluated {
        /// The rejected worker.
        worker: Address,
        /// The proven quality upper bound.
        chi: u64,
    },
    /// A worker was paid `B/K`.
    Paid {
        /// The paid worker.
        worker: Address,
        /// The amount.
        amount: u128,
    },
    /// Leftover escrow returned to the requester.
    Refunded {
        /// The requester.
        requester: Address,
        /// The amount returned.
        amount: u128,
    },
    /// The unfilled task was cancelled and the budget refunded.
    Cancelled {
        /// The refunded budget.
        refunded: u128,
    },
    /// The task settled.
    Closed,
}

/// Errors that revert a transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum HitError {
    /// The message is not valid in the current phase.
    WrongPhase {
        /// The phase the contract is in.
        current: Phase,
    },
    /// Only the requester may send this message.
    NotRequester,
    /// The worker already committed.
    DuplicateWorker,
    /// This exact commitment was already submitted (copy-and-paste
    /// defence).
    DuplicateCommitment,
    /// The commitment quota `K` is already met.
    TaskFull,
    /// The sender never committed.
    UnknownWorker,
    /// The reveal does not open the stored commitment.
    BadOpening,
    /// The worker already revealed.
    AlreadyRevealed,
    /// The ciphertext vector length differs from `N`.
    WrongCiphertextCount {
        /// Expected `N`.
        expected: usize,
        /// Got.
        got: usize,
    },
    /// The golden opening does not match `comm_gs` or is malformed.
    BadGolden(String),
    /// Gold standards must be opened before evaluate/outrange.
    GoldenNotOpened,
    /// The worker is already settled (paid or rejected).
    AlreadySettled,
    /// The referenced worker never revealed.
    NothingToEvaluate,
    /// The claimed quality is not below the threshold — nothing to
    /// reject.
    ChiNotBelowTheta {
        /// The claimed χ.
        chi: u64,
        /// The threshold Θ.
        theta: u64,
    },
    /// The PoQoEA proof failed; per Fig 4 the worker is paid instead
    /// (handled internally), but a malformed message still reverts.
    InvalidQualityProof(String),
    /// The out-of-range claim failed verification.
    InvalidOutRange(String),
    /// Freezing the budget failed (insufficient funds).
    NoFund,
    /// The publish parameters are malformed.
    BadParams(String),
    /// Settlement attempted before the evaluation deadline.
    TooEarly {
        /// The deadline round.
        deadline: u64,
    },
    /// Cancellation attempted while the task is not cancellable.
    NotCancellable,
}

impl fmt::Display for HitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitError::WrongPhase { current } => write!(f, "wrong phase ({current:?})"),
            HitError::NotRequester => write!(f, "sender is not the requester"),
            HitError::DuplicateWorker => write!(f, "worker already committed"),
            HitError::DuplicateCommitment => write!(f, "duplicate commitment"),
            HitError::TaskFull => write!(f, "commitment quota already met"),
            HitError::UnknownWorker => write!(f, "sender never committed"),
            HitError::BadOpening => write!(f, "commitment opening failed"),
            HitError::AlreadyRevealed => write!(f, "worker already revealed"),
            HitError::WrongCiphertextCount { expected, got } => {
                write!(f, "expected {expected} ciphertexts, got {got}")
            }
            HitError::BadGolden(s) => write!(f, "bad golden opening: {s}"),
            HitError::GoldenNotOpened => write!(f, "gold standards not opened"),
            HitError::AlreadySettled => write!(f, "worker already settled"),
            HitError::NothingToEvaluate => write!(f, "worker never revealed"),
            HitError::ChiNotBelowTheta { chi, theta } => {
                write!(f, "chi {chi} is not below theta {theta}")
            }
            HitError::InvalidQualityProof(s) => write!(f, "invalid PoQoEA proof: {s}"),
            HitError::InvalidOutRange(s) => write!(f, "invalid outrange proof: {s}"),
            HitError::NoFund => write!(f, "insufficient funds to freeze budget"),
            HitError::BadParams(s) => write!(f, "bad publish parameters: {s}"),
            HitError::TooEarly { deadline } => {
                write!(f, "settlement before deadline round {deadline}")
            }
            HitError::NotCancellable => write!(f, "task is not cancellable"),
        }
    }
}

/// Phase timing: how many rounds (clock periods) each window stays open
/// after it begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseWindows {
    /// Rounds the commit phase may stay open before the task becomes
    /// cancellable (`None` = wait for `K` commitments indefinitely, as
    /// in Fig 4).
    pub commit_timeout: Option<u64>,
    /// Rounds the reveal phase stays open once `K` commitments arrive.
    pub reveal: u64,
    /// Rounds the evaluate phase stays open after reveal closes.
    pub evaluate: u64,
}

impl Default for PhaseWindows {
    fn default() -> Self {
        // Each window spans the phase's own clock period *plus* the one
        // period of adversarial delay the synchrony assumption allows
        // (§IV: messages can be delayed "up to the next clock") — so an
        // honest message submitted in time is always delivered before
        // the window closes, even when maximally delayed.
        Self {
            commit_timeout: None,
            reveal: 2,
            evaluate: 2,
        }
    }
}

/// A worker's on-chain record.
#[derive(Clone, Debug, PartialEq)]
struct WorkerRecord {
    commitment: Commitment,
    /// `Some(cts)` once revealed; `None` is the paper's `⊥`.
    revealed: Option<EncryptedAnswer>,
    /// Digests of each ciphertext item (what actual storage holds).
    item_digests: Vec<[u8; 32]>,
    settlement: Option<Settlement>,
    /// A deferred rejection is queued for this worker (batched mode).
    pending: bool,
}

/// Why a queued rejection will fire if its proofs verify.
#[derive(Clone, Debug, PartialEq)]
enum PendingKind {
    /// An `outrange` challenge at this question index.
    OutRange { index: usize },
    /// A PoQoEA rejection with this claimed quality.
    LowQuality { chi: u64 },
}

/// A structurally valid rejection whose VPKE proofs await the end-of-block
/// batch verification.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PendingVerdict {
    worker: Address,
    kind: PendingKind,
    pub(crate) items: Arc<[(DecryptionStatement, DecryptionProof)]>,
}

/// Counters for the batched settlement path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of batch dispatches (one per block with pending verdicts).
    pub batches: u64,
    /// Total VPKE items verified through batches.
    pub items: u64,
    /// Largest single batch.
    pub largest: u64,
}

impl BatchStats {
    /// Component-wise accumulation (for registry-wide aggregation).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.batches += other.batches;
        self.items += other.items;
        self.largest = self.largest.max(other.largest);
    }

    /// Records one dispatched batch of `items` proofs.
    pub fn record(&mut self, items: u64) {
        self.batches += 1;
        self.items += items;
        self.largest = self.largest.max(items);
    }
}

/// The HIT contract `C_hit`: one instance of a [`crate::registry::HitRegistry`],
/// which creates it, routes its messages and ticks its deadlines.
#[derive(Clone, Debug, PartialEq)]
pub struct HitContract {
    phase: Phase,
    windows: PhaseWindows,
    requester: Option<Address>,
    params: Option<Arc<PublishParams>>,
    /// Records sit behind `Arc` so an undo snapshot (see
    /// [`HitContract::touch`]) copies pointers; a handler takes its own
    /// copy of the one record it writes through [`Arc::make_mut`].
    workers: BTreeMap<Address, Arc<WorkerRecord>>,
    /// Commit order (the contract pays in this order at settlement).
    commit_order: Vec<Address>,
    /// All commitments seen, for the duplicate check.
    seen_commitments: Vec<Commitment>,
    golden: Option<Arc<GoldenStandards>>,
    commit_deadline: Option<u64>,
    reveal_deadline: Option<u64>,
    evaluate_deadline: Option<u64>,
    settled: bool,
    /// Batched-settlement mode: rejection proofs are queued per block and
    /// dispatched through `vpke::batch_verify_each` instead of verified
    /// inline (see [`HitContract::with_deferred_verification`]).
    defer_verification: bool,
    pending_verdicts: Vec<PendingVerdict>,
    batch_stats: BatchStats,
    /// Per-worker settlement receipts, in the order settlements landed.
    receipts: Vec<SettlementReceipt>,
    /// Per-transaction undo journal: one lazy whole-instance snapshot,
    /// taken at the first mutating touch of an open transaction. Guard
    /// failures (wrong phase, duplicate commit, `TaskFull` races, …)
    /// revert without ever paying for it, and an instance that is not
    /// addressed by a transaction pays nothing at all. The snapshot is a
    /// plain clone, and a clone is shallow where it matters (see
    /// [`HitContract::touch`]).
    journal: StateJournal<Box<HitContract>>,
}

impl Journaled for HitContract {
    fn begin_tx(&mut self) {
        self.journal.begin();
    }

    fn commit_tx(&mut self) {
        self.journal.commit();
    }

    fn rollback_tx(&mut self) {
        if let Some(snapshot) = self.commit_tx_captured() {
            self.revert_capture(snapshot);
        }
    }
}

impl HitContract {
    /// Creates an unpublished contract with the given phase windows.
    pub fn new(windows: PhaseWindows) -> Self {
        Self {
            phase: Phase::Setup,
            windows,
            requester: None,
            params: None,
            workers: BTreeMap::new(),
            commit_order: Vec::new(),
            seen_commitments: Vec::new(),
            golden: None,
            commit_deadline: None,
            reveal_deadline: None,
            evaluate_deadline: None,
            settled: false,
            defer_verification: false,
            pending_verdicts: Vec::new(),
            batch_stats: BatchStats::default(),
            receipts: Vec::new(),
            journal: StateJournal::new(),
        }
    }

    /// Commits the open transaction but keeps the undo snapshot (if any)
    /// so the commit can be unwound later — the reorg path of
    /// `dragoon-net`. `None` means the transaction never touched this
    /// instance.
    pub(crate) fn commit_tx_captured(&mut self) -> Option<Box<HitContract>> {
        let snapshot = self.journal.drain_commit().into_iter().next();
        self.journal.reset();
        snapshot
    }

    /// Unwinds a previously captured commit by restoring the snapshot
    /// taken at that transaction's first touch.
    pub(crate) fn revert_capture(&mut self, snapshot: Box<HitContract>) {
        *self = *snapshot;
    }

    /// Journals a whole-instance snapshot before the first mutation of
    /// an open transaction (no-op outside a transaction or after the
    /// first touch). Every mutating handler calls this after its guard
    /// checks and before its first write.
    ///
    /// What the snapshot **shares** with the live instance (an `Arc`
    /// clone each): every worker record — and through it the revealed
    /// ciphertexts and item digests — the publish parameters, the opened
    /// gold standards and each queued verdict's proof items. What it
    /// **copies**: the struct itself (phase, deadlines, counters), the
    /// worker map's node of pointers, the commit order, the seen
    /// commitments, the verdict queue's spine and the receipts — a few
    /// hundred bytes, independent of the task's question count. Replicas
    /// keep one such snapshot per instance per block in their undo
    /// stacks, which is why the split matters.
    fn touch(&mut self) {
        if self.journal.recording() && self.journal.is_empty() {
            let mut snapshot = Box::new(self.clone());
            snapshot.journal.reset();
            self.journal.record(snapshot);
        }
    }

    /// Switches the contract to **batched settlement**: `evaluate` /
    /// `outrange` transactions run every structural check inline but
    /// queue their VPKE proofs; at the next clock tick (block boundary)
    /// all queued proofs are dispatched through one
    /// [`vpke::batch_verify_each`] call and the verdicts applied. The
    /// accept/reject outcome per worker is identical to inline
    /// verification — only *when* within the phase window the verdict
    /// lands (same block vs. next block boundary) and the verification
    /// cost profile change.
    pub fn with_deferred_verification(mut self) -> Self {
        self.defer_verification = true;
        self
    }

    /// Counters for the batched settlement path (zero in inline mode).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The published parameters, if any.
    pub fn params(&self) -> Option<&PublishParams> {
        self.params.as_deref()
    }

    /// The requester, once published.
    pub fn requester(&self) -> Option<Address> {
        self.requester
    }

    /// The opened gold standards, if the requester has revealed them.
    pub fn golden(&self) -> Option<&GoldenStandards> {
        self.golden.as_deref()
    }

    /// A worker's settlement outcome, if settled.
    pub fn settlement(&self, worker: &Address) -> Option<&Settlement> {
        self.workers.get(worker)?.settlement.as_ref()
    }

    /// The revealed ciphertexts of a worker (as read from event logs).
    pub fn revealed(&self, worker: &Address) -> Option<&EncryptedAnswer> {
        self.workers.get(worker)?.revealed.as_ref()
    }

    /// Workers in commit order.
    pub fn committed_workers(&self) -> &[Address] {
        &self.commit_order
    }

    /// The commit deadline round, when a commit timeout is configured.
    pub fn commit_deadline(&self) -> Option<u64> {
        self.commit_deadline
    }

    /// The reveal deadline round, once the commit phase has closed.
    pub fn reveal_deadline(&self) -> Option<u64> {
        self.reveal_deadline
    }

    /// The evaluation deadline round, once the reveal phase has closed.
    pub fn evaluate_deadline(&self) -> Option<u64> {
        self.evaluate_deadline
    }

    /// Whether the task has fully settled.
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    /// Per-worker settlement receipts in the order settlements landed —
    /// the outcome data reputation layers accumulate across HITs.
    pub fn settlement_receipts(&self) -> &[SettlementReceipt] {
        &self.receipts
    }

    /// The one place a worker's settlement is written: the escrow
    /// payment (for `Paid`), the record's outcome, the receipt and the
    /// verdict event — its log gas charged when `metered`, free
    /// otherwise. Callers keep their guards, their other gas and the
    /// decision.
    fn settle_worker(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        worker: Address,
        outcome: Settlement,
        metered: bool,
    ) {
        let (amount, event) = match outcome {
            Settlement::Paid => {
                let p = self.params_ref();
                let amount = p.budget / p.k as u128;
                env.ledger
                    .pay(env.contract, worker, amount)
                    .expect("escrow holds the budget");
                (amount, Some(HitEvent::Paid { worker, amount }))
            }
            Settlement::Rejected(RejectReason::OutOfRange { index }) => {
                (0, Some(HitEvent::OutRanged { worker, index }))
            }
            Settlement::Rejected(RejectReason::LowQuality { chi }) => {
                (0, Some(HitEvent::Evaluated { worker, chi }))
            }
            // `⊥` was already announced by `RevealClosed`.
            Settlement::Rejected(RejectReason::NoReveal) => (0, None),
        };
        let record = Arc::make_mut(self.workers.get_mut(&worker).expect("committed"));
        record.settlement = Some(outcome.clone());
        self.receipts.push(SettlementReceipt {
            worker,
            outcome,
            amount,
        });
        match event {
            Some(event) if metered => env.emit(event, 64),
            Some(event) => env.emit_free(event),
            None => {}
        }
    }

    fn params_ref(&self) -> &PublishParams {
        self.params.as_deref().expect("published")
    }

    // ------------------------------------------------------------------
    // Message handlers
    // ------------------------------------------------------------------

    fn handle_publish(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        p: PublishParams,
    ) -> Result<(), HitError> {
        if self.phase != Phase::Setup {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        if p.n == 0 || p.k == 0 {
            return Err(HitError::BadParams("N and K must be positive".into()));
        }
        if p.budget == 0 {
            return Err(HitError::BadParams("budget must be positive".into()));
        }
        if p.theta > 0 && p.budget / (p.k as u128) == 0 {
            return Err(HitError::BadParams("budget below K".into()));
        }
        // Deploying the task contract is part of publishing (factory
        // pattern): creation + code deposit.
        env.gas
            .charge("create", env.schedule.create(HIT_CONTRACT_CODE_LEN));
        // Freeze the budget via L.
        env.ledger
            .freeze(env.contract, sender, p.budget)
            .map_err(|_| HitError::NoFund)?;
        env.gas.charge("freeze", env.schedule.call_value);
        // Store the parameters: N, B, K, range, Θ, h (2 slots), comm_gs,
        // digest, requester ≈ 10 fresh slots.
        env.gas.charge("sstore", 10 * env.schedule.sstore_set);
        let ev = HitEvent::Published {
            requester: sender,
            n: p.n,
            budget: p.budget,
            k: p.k,
        };
        env.emit(ev, 160);
        self.touch();
        self.requester = Some(sender);
        self.params = Some(Arc::new(p));
        self.phase = Phase::Commit;
        self.commit_deadline = self.windows.commit_timeout.map(|w| env.round + w);
        Ok(())
    }

    fn handle_commit(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        commitment: Commitment,
    ) -> Result<(), HitError> {
        if self.phase != Phase::Commit {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        let k = self.params_ref().k;
        if self.commit_order.len() >= k {
            return Err(HitError::TaskFull);
        }
        // Duplicate checks: one SLOAD each against the worker map and the
        // commitment set.
        env.gas.charge("sload", 2 * env.schedule.sload);
        if self.workers.contains_key(&sender) {
            return Err(HitError::DuplicateWorker);
        }
        if self.seen_commitments.contains(&commitment) {
            return Err(HitError::DuplicateCommitment);
        }
        // Store the commitment.
        env.gas.charge("sstore", env.schedule.sstore_set);
        self.touch();
        self.seen_commitments.push(commitment);
        self.workers.insert(
            sender,
            Arc::new(WorkerRecord {
                commitment,
                revealed: None,
                item_digests: Vec::new(),
                settlement: None,
                pending: false,
            }),
        );
        self.commit_order.push(sender);
        let count = self.commit_order.len();
        env.emit(
            HitEvent::CommitAccepted {
                worker: sender,
                count,
            },
            64,
        );
        if count == k {
            self.phase = Phase::Reveal;
            self.reveal_deadline = Some(env.round + self.windows.reveal);
            env.emit(HitEvent::CommitClosed, 32);
        }
        Ok(())
    }

    fn handle_reveal(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        ciphertexts: EncryptedAnswer,
        key: dragoon_crypto::commitment::CommitmentKey,
    ) -> Result<(), HitError> {
        if self.phase != Phase::Reveal {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        let n = self.params_ref().n;
        let record = self.workers.get(&sender).ok_or(HitError::UnknownWorker)?;
        if record.revealed.is_some() {
            return Err(HitError::AlreadyRevealed);
        }
        if ciphertexts.len() != n {
            return Err(HitError::WrongCiphertextCount {
                expected: n,
                got: ciphertexts.len(),
            });
        }
        // Verify the opening: hash the full encoding.
        let encoded = ciphertexts.encode();
        env.gas
            .charge("keccak", env.schedule.keccak(encoded.len() + 32));
        if !record.commitment.open(&encoded, &key) {
            return Err(HitError::BadOpening);
        }
        // Store one digest per ciphertext item (the on-chain
        // representation; the outrange path later verifies single items
        // against these digests), plus per-item hashing and loop/ABI
        // overhead.
        let mut digests = Vec::with_capacity(n);
        for ct in ciphertexts.0.iter() {
            let d = keccak256(&ct.to_bytes());
            digests.push(d);
        }
        env.gas.charge("sstore", n as u64 * env.schedule.sstore_set);
        env.gas
            .charge("keccak", n as u64 * env.schedule.keccak(128));
        env.gas.charge("overhead", n as u64 * env.schedule.sload);
        // Emit the ciphertexts as event-log data.
        env.emit(HitEvent::Revealed { worker: sender }, encoded.len());
        self.touch();
        let record = Arc::make_mut(self.workers.get_mut(&sender).expect("checked above"));
        record.revealed = Some(ciphertexts);
        record.item_digests = digests;
        Ok(())
    }

    fn handle_golden(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        golden: GoldenStandards,
        key: dragoon_crypto::commitment::CommitmentKey,
    ) -> Result<(), HitError> {
        if self.phase != Phase::Evaluate {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        if Some(sender) != self.requester {
            return Err(HitError::NotRequester);
        }
        if self.golden.is_some() {
            return Err(HitError::BadGolden("already opened".into()));
        }
        let p = self.params_ref();
        golden
            .validate(p.n, &p.range)
            .map_err(HitError::BadGolden)?;
        let encoded = golden.encode();
        env.gas
            .charge("keccak", env.schedule.keccak(encoded.len() + 32));
        if !p.comm_gs.open(&encoded, &key) {
            return Err(HitError::BadGolden("commitment mismatch".into()));
        }
        // Store (G, Gs) packed: 2 gold entries per slot.
        let slots = golden.len().div_ceil(2) as u64;
        env.gas.charge("sstore", slots * env.schedule.sstore_set);
        env.emit(HitEvent::GoldenOpened, encoded.len());
        self.touch();
        self.golden = Some(Arc::new(golden));
        Ok(())
    }

    /// Charges the gas of one on-chain VPKE verification: 5 EC mults
    /// (`M^C`, `c1^Z`, `c2^C`, `g^Z`, `h^C`), 3 EC adds, and the
    /// Fiat–Shamir keccak over the ~520-byte transcript.
    fn charge_vpke_verify(env: &mut ExecEnv<'_, HitEvent>) {
        env.gas.charge("ec_mul", 5 * env.schedule.ec_mul);
        env.gas.charge("ec_add", 3 * env.schedule.ec_add);
        env.gas.charge("keccak", env.schedule.keccak(520));
    }

    fn handle_outrange(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        worker: Address,
        index: usize,
        claim: PlaintextClaim,
        proof: DecryptionProof,
    ) -> Result<(), HitError> {
        if self.phase != Phase::Evaluate {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        if Some(sender) != self.requester {
            return Err(HitError::NotRequester);
        }
        let record = self.workers.get(&worker).ok_or(HitError::UnknownWorker)?;
        if record.settlement.is_some() || record.pending {
            return Err(HitError::AlreadySettled);
        }
        let Some(cts) = record.revealed.as_ref() else {
            return Err(HitError::NothingToEvaluate);
        };
        let Some(ct) = cts.0.get(index) else {
            return Err(HitError::InvalidOutRange(format!(
                "no ciphertext at index {index}"
            )));
        };
        let p = self.params_ref();
        let range = p.range;
        let ek = p.ek;

        // Fig 4: pay the worker if the claim is in range or the proof is
        // invalid; otherwise record the rejection. Gas in batched mode
        // matches per-proof except the 9 000-gas value-transfer
        // surcharge when an invalid proof backfires into a payment: that
        // outcome is only known at the block boundary and its dispatch
        // is not metered per-transaction (a documented simplification of
        // the deferred path).
        Self::charge_vpke_verify(env);
        let stmt = DecryptionStatement { ek, ct: *ct, claim };
        // The contract additionally checks the claim is genuinely out of
        // range: the claimed point must differ from g^m for every
        // m ∈ range (|range| is a small constant — one EC mul each).
        let claimed_in_range = match claim {
            PlaintextClaim::InRange(m) => range.contains(m),
            PlaintextClaim::OutOfRange(pt) => {
                env.gas.charge("ec_mul", range.len() * env.schedule.ec_mul);
                (range.lo..=range.hi)
                    .any(|m| (G1Projective::generator() * Fr::from_u64(m)).to_affine() == pt)
            }
        };
        env.gas.charge("sstore", env.schedule.sstore_update);
        self.touch();
        if self.defer_verification && !claimed_in_range {
            Arc::make_mut(self.workers.get_mut(&worker).expect("checked above")).pending = true;
            // Pre-charge the verdict event's log gas (both outcomes emit
            // a 64-byte event, so the cost is outcome-independent); the
            // event itself is emitted free at resolution.
            env.gas.charge("log", env.schedule.log(1, 64));
            self.pending_verdicts.push(PendingVerdict {
                worker,
                kind: PendingKind::OutRange { index },
                items: [(stmt, proof)].into(),
            });
        } else if claimed_in_range || !vpke::verify(&stmt, &proof) {
            // The challenge backfires — in-range claim or invalid proof:
            // the worker is paid immediately.
            env.gas.charge("pay", env.schedule.call_value);
            self.settle_worker(env, worker, Settlement::Paid, true);
        } else {
            let outcome = Settlement::Rejected(RejectReason::OutOfRange { index });
            self.settle_worker(env, worker, outcome, true);
        }
        Ok(())
    }

    fn handle_evaluate(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        worker: Address,
        chi: u64,
        proof: QualityProof,
    ) -> Result<(), HitError> {
        if self.phase != Phase::Evaluate {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        if Some(sender) != self.requester {
            return Err(HitError::NotRequester);
        }
        let Some(golden) = self.golden.clone() else {
            return Err(HitError::GoldenNotOpened);
        };
        let record = self.workers.get(&worker).ok_or(HitError::UnknownWorker)?;
        if record.settlement.is_some() || record.pending {
            return Err(HitError::AlreadySettled);
        }
        let Some(cts) = record.revealed.clone() else {
            return Err(HitError::NothingToEvaluate);
        };
        let p = self.params_ref();
        let theta = p.theta;
        let ek = p.ek;

        // Gas: per mismatch item, one VPKE verification plus the
        // gold-point comparison (one EC mul) and bookkeeping SLOADs.
        // Batched mode charges the same, minus the value-transfer
        // surcharge of a backfired payment (see handle_outrange).
        for _ in &proof.items {
            Self::charge_vpke_verify(env);
            env.gas.charge("ec_mul", env.schedule.ec_mul);
            env.gas.charge("sload", 2 * env.schedule.sload);
        }
        env.gas.charge("sstore", env.schedule.sstore_update);

        // Fig 4: pay if χ ≥ Θ or the proof fails to verify. The
        // structural half of verification always runs inline; the VPKE
        // half runs inline or is queued for the block-boundary batch.
        self.touch();
        let structural = poqoea::split_quality_proof(&ek, &cts, chi, &proof, &golden);
        let pay_now = match &structural {
            _ if chi >= theta => true,
            Err(_) => true,
            Ok(items) if self.defer_verification => {
                let record = Arc::make_mut(self.workers.get_mut(&worker).expect("checked above"));
                record.pending = true;
                // Pre-charge the verdict event's log gas (outcome-
                // independent: both outcomes emit a 64-byte event).
                env.gas.charge("log", env.schedule.log(1, 64));
                self.pending_verdicts.push(PendingVerdict {
                    worker,
                    kind: PendingKind::LowQuality { chi },
                    items: items.as_slice().into(),
                });
                return Ok(());
            }
            Ok(items) => !items
                .iter()
                .all(|(stmt, dproof)| vpke::verify(stmt, dproof)),
        };
        if pay_now {
            env.gas.charge("pay", env.schedule.call_value);
            self.settle_worker(env, worker, Settlement::Paid, true);
        } else {
            let outcome = Settlement::Rejected(RejectReason::LowQuality { chi });
            self.settle_worker(env, worker, outcome, true);
        }
        Ok(())
    }

    fn handle_finalize(&mut self, env: &mut ExecEnv<'_, HitEvent>) -> Result<(), HitError> {
        if self.phase != Phase::Evaluate {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        let deadline = self.evaluate_deadline.expect("set on phase entry");
        if env.round < deadline {
            return Err(HitError::TooEarly { deadline });
        }
        self.settle(env, true);
        Ok(())
    }

    fn handle_cancel(&mut self, env: &mut ExecEnv<'_, HitEvent>) -> Result<(), HitError> {
        if self.phase != Phase::Commit {
            return Err(HitError::WrongPhase {
                current: self.phase,
            });
        }
        let Some(deadline) = self.commit_deadline else {
            return Err(HitError::NotCancellable);
        };
        if env.round < deadline {
            return Err(HitError::TooEarly { deadline });
        }
        self.cancel(env, true);
        Ok(())
    }

    /// Cancels an unfilled task: the whole escrow returns to the
    /// requester; no worker owes or receives anything.
    fn cancel(&mut self, env: &mut ExecEnv<'_, HitEvent>, charge_gas: bool) {
        self.touch();
        let requester = self.requester.expect("published");
        let refunded = env.ledger.balance(&env.contract);
        if refunded > 0 {
            env.ledger
                .pay(env.contract, requester, refunded)
                .expect("own balance");
            if charge_gas {
                env.gas.charge("pay", env.schedule.call_value);
                env.gas.charge("sstore", env.schedule.sstore_update);
            }
        }
        self.phase = Phase::Closed;
        self.settled = true;
        env.emit_free(HitEvent::Cancelled { refunded });
    }

    /// Dispatches every queued rejection through one batched VPKE
    /// verification and applies the verdicts (batched-settlement mode).
    ///
    /// Called by `settle`, so a verdict queued earlier in the block
    /// than a `Finalize` lands before it (at the block boundary the
    /// registry's clock tick drains every queue itself). A verdict
    /// whose proofs all verify lands as the rejection it claimed; any
    /// invalid proof pays the worker, exactly as inline verification
    /// would have.
    fn resolve_pending(&mut self, env: &mut ExecEnv<'_, HitEvent>) {
        if self.pending_verdicts.is_empty() {
            return;
        }
        self.touch();
        let pending = self.take_pending();
        let all_items: Vec<(DecryptionStatement, DecryptionProof)> = pending
            .iter()
            .flat_map(|v| v.items.iter().copied())
            .collect();
        let results = vpke::batch_verify_each(&all_items);
        if !all_items.is_empty() {
            self.batch_stats.record(all_items.len() as u64);
        }
        self.apply_verdicts(env, pending, &results);
    }

    /// Drains the queued verdicts — the registry uses this to pool every
    /// instance's queue into one block-wide batch verification.
    pub(crate) fn take_pending(&mut self) -> Vec<PendingVerdict> {
        if !self.pending_verdicts.is_empty() {
            self.touch();
        }
        std::mem::take(&mut self.pending_verdicts)
    }

    /// The queued verdicts' VPKE items, flattened in queue order, without
    /// draining (or journaling) anything — the overlapped-verification
    /// path reads these to start the batch early, then checks at the
    /// block boundary that the drained queue still matches.
    pub(crate) fn peek_pending_items(&self) -> Vec<(DecryptionStatement, DecryptionProof)> {
        self.pending_verdicts
            .iter()
            .flat_map(|v| v.items.iter().copied())
            .collect()
    }

    /// Applies drained verdicts given the verification result of each of
    /// their items (`results` aligned with the verdicts' items,
    /// flattened in order).
    pub(crate) fn apply_verdicts(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        pending: Vec<PendingVerdict>,
        results: &[bool],
    ) {
        if !pending.is_empty() {
            self.touch();
        }
        let mut offset = 0;
        for verdict in pending {
            let n = verdict.items.len();
            let all_valid = results[offset..offset + n].iter().all(|&ok| ok);
            offset += n;
            let record = Arc::make_mut(
                self.workers
                    .get_mut(&verdict.worker)
                    .expect("pending verdict for committed worker"),
            );
            record.pending = false;
            if record.settlement.is_some() {
                continue;
            }
            let outcome = if all_valid {
                Settlement::Rejected(match verdict.kind {
                    PendingKind::OutRange { index } => RejectReason::OutOfRange { index },
                    PendingKind::LowQuality { chi } => RejectReason::LowQuality { chi },
                })
            } else {
                Settlement::Paid
            };
            self.settle_worker(env, verdict.worker, outcome, false);
        }
    }

    /// Settlement: pay every revealed, unsettled worker; mark
    /// non-revealers; refund leftover escrow to the requester.
    fn settle(&mut self, env: &mut ExecEnv<'_, HitEvent>, charge_gas: bool) {
        self.touch();
        // Queued verdicts must land before default payments.
        self.resolve_pending(env);
        let requester = self.requester.expect("published");
        // If the requester never opened the gold standards, Fig 4's
        // "otherwise" branch pays every revealed worker — which the
        // default path below implements (no rejection can exist without
        // the golden opening, because evaluate requires it).
        for addr in self.commit_order.clone() {
            let record = &self.workers[&addr];
            if record.settlement.is_some() {
                continue;
            }
            if record.revealed.is_some() {
                if charge_gas {
                    env.gas.charge("pay", env.schedule.call_value);
                    env.gas.charge("sstore", env.schedule.sstore_update);
                }
                self.settle_worker(env, addr, Settlement::Paid, false);
            } else {
                let outcome = Settlement::Rejected(RejectReason::NoReveal);
                self.settle_worker(env, addr, outcome, false);
            }
        }
        // Refund whatever remains in escrow (unfilled slots, rejected
        // workers' shares, division remainder).
        let leftover = env.ledger.balance(&env.contract);
        if leftover > 0 {
            env.ledger
                .pay(env.contract, requester, leftover)
                .expect("paying own balance");
            if charge_gas {
                env.gas.charge("pay", env.schedule.call_value);
            }
            env.emit_free(HitEvent::Refunded {
                requester,
                amount: leftover,
            });
        }
        self.phase = Phase::Closed;
        self.settled = true;
        env.emit_free(HitEvent::Closed);
    }
}

/// The entry points the registry calls under the instance's escrow address.
impl HitContract {
    /// Executes one transaction addressed to this instance.
    pub(crate) fn on_message(
        &mut self,
        env: &mut ExecEnv<'_, HitEvent>,
        sender: Address,
        msg: HitMessage,
    ) -> Result<(), HitError> {
        match msg {
            HitMessage::Publish(p) => self.handle_publish(env, sender, p),
            HitMessage::Commit { commitment } => self.handle_commit(env, sender, commitment),
            HitMessage::Reveal { ciphertexts, key } => {
                self.handle_reveal(env, sender, ciphertexts, key)
            }
            HitMessage::Golden { golden, key } => self.handle_golden(env, sender, golden, key),
            HitMessage::OutRange {
                worker,
                index,
                claim,
                proof,
            } => self.handle_outrange(env, sender, worker, index, claim, proof),
            HitMessage::Evaluate { worker, chi, proof } => {
                self.handle_evaluate(env, sender, worker, chi, proof)
            }
            HitMessage::Finalize => self.handle_finalize(env),
            HitMessage::Cancel => self.handle_cancel(env),
        }
    }

    /// Fires the phase deadlines due at `round`'s block boundary.
    pub(crate) fn on_clock(&mut self, env: &mut ExecEnv<'_, HitEvent>, round: u64) {
        // The registry drained and applied the batched settlement queue
        // before this tick, so verdicts land ahead of default payouts.
        debug_assert!(
            self.pending_verdicts.is_empty(),
            "the registry drains the queue before it ticks an instance"
        );
        // Commit window expired without K commitments: auto-cancel one
        // grace round after the deadline (the explicit Cancel tx gets
        // the first chance, mirroring Finalize).
        if self.phase == Phase::Commit {
            if let Some(deadline) = self.commit_deadline {
                if round > deadline + 1 {
                    self.cancel(env, false);
                }
            }
        }
        // Reveal window closes: record ⊥ for non-openers and move to
        // evaluation.
        if self.phase == Phase::Reveal {
            if let Some(deadline) = self.reveal_deadline {
                if round > deadline {
                    self.touch();
                    let revealed = self
                        .workers
                        .values()
                        .filter(|w| w.revealed.is_some())
                        .count();
                    let defaulted = self.workers.len() - revealed;
                    self.phase = Phase::Evaluate;
                    self.evaluate_deadline = Some(round + self.windows.evaluate);
                    env.emit_free(HitEvent::RevealClosed {
                        revealed,
                        defaulted,
                    });
                }
            }
        }
        // Evaluation window closes: default settlement (functionality
        // semantics — requester silence pays the workers). One grace
        // round is left after the deadline so an explicit `Finalize`
        // transaction (which pays gas) can win the race; the clock-driven
        // settlement is the gas-free backstop.
        if self.phase == Phase::Evaluate {
            if let Some(deadline) = self.evaluate_deadline {
                if round > deadline + 1 && !self.settled {
                    self.settle(env, false);
                }
            }
        }
    }
}

// -- durable state ------------------------------------------------------
//
// The snapshot codec for one HIT instance. Lives here (not in
// `crate::persist`) because it reaches private fields. The journal is
// *not* persisted: snapshots are taken between transactions, when every
// journal is empty — a recovered instance starts with a fresh one.

use crate::persist::{
    get_answer, get_commitment, get_dproof, get_golden, get_statement, put_answer, put_commitment,
    put_dproof, put_golden, put_statement,
};
use dragoon_chain::store::{Persist, Reader, StoreError};

impl Persist for WorkerRecord {
    fn put(&self, out: &mut Vec<u8>) {
        put_commitment(&self.commitment, out);
        match &self.revealed {
            None => out.push(0),
            Some(answer) => {
                out.push(1);
                put_answer(answer, out);
            }
        }
        self.item_digests.put(out);
        self.settlement.put(out);
        self.pending.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            commitment: get_commitment(r)?,
            revealed: match u8::get(r)? {
                0 => None,
                1 => Some(get_answer(r)?),
                t => {
                    return Err(StoreError::Corrupt(format!("bad reveal tag {t}")));
                }
            },
            item_digests: Vec::get(r)?,
            settlement: Option::get(r)?,
            pending: bool::get(r)?,
        })
    }
}

impl Persist for PendingKind {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PendingKind::OutRange { index } => {
                out.push(0);
                index.put(out);
            }
            PendingKind::LowQuality { chi } => {
                out.push(1);
                chi.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => PendingKind::OutRange {
                index: usize::get(r)?,
            },
            1 => PendingKind::LowQuality { chi: u64::get(r)? },
            t => return Err(StoreError::Corrupt(format!("bad pending kind tag {t}"))),
        })
    }
}

impl Persist for PendingVerdict {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker.put(out);
        self.kind.put(out);
        self.items.len().put(out);
        for (statement, proof) in self.items.iter() {
            put_statement(statement, out);
            put_dproof(proof, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            worker: Address::get(r)?,
            kind: PendingKind::get(r)?,
            items: r.seq(|r| Ok((get_statement(r)?, get_dproof(r)?)))?.into(),
        })
    }
}

impl Persist for HitContract {
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(
            !self.journal.recording(),
            "instance snapshots are taken between transactions"
        );
        self.phase.put(out);
        self.windows.put(out);
        self.requester.put(out);
        self.params.put(out);
        self.workers.len().put(out);
        for (addr, record) in &self.workers {
            addr.put(out);
            record.put(out);
        }
        self.commit_order.put(out);
        self.seen_commitments.len().put(out);
        for c in &self.seen_commitments {
            put_commitment(c, out);
        }
        match &self.golden {
            None => out.push(0),
            Some(golden) => {
                out.push(1);
                put_golden(golden, out);
            }
        }
        self.commit_deadline.put(out);
        self.reveal_deadline.put(out);
        self.evaluate_deadline.put(out);
        self.settled.put(out);
        self.defer_verification.put(out);
        self.pending_verdicts.put(out);
        self.batch_stats.put(out);
        self.receipts.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            phase: Phase::get(r)?,
            windows: PhaseWindows::get(r)?,
            requester: Option::get(r)?,
            params: Option::get(r)?,
            workers: r
                .seq(|r| Ok((Address::get(r)?, Arc::get(r)?)))?
                .into_iter()
                .collect(),
            commit_order: Vec::get(r)?,
            seen_commitments: r.seq(get_commitment)?,
            golden: match u8::get(r)? {
                0 => None,
                1 => Some(Arc::new(get_golden(r)?)),
                t => {
                    return Err(StoreError::Corrupt(format!("bad golden tag {t}")));
                }
            },
            commit_deadline: Option::get(r)?,
            reveal_deadline: Option::get(r)?,
            evaluate_deadline: Option::get(r)?,
            settled: bool::get(r)?,
            defer_verification: bool::get(r)?,
            pending_verdicts: Vec::get(r)?,
            batch_stats: BatchStats::get(r)?,
            receipts: Vec::get(r)?,
            journal: StateJournal::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{routing_gas, HitRegistry, RegistryMessage, SettlementMode};
    use dragoon_chain::{Chain, GasSchedule, TxStatus};
    use dragoon_core::task::Answer;
    use dragoon_crypto::commitment::CommitmentKey;
    use dragoon_crypto::elgamal::KeyPair;
    use dragoon_crypto::elgamal::PlaintextRange;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One task: instance 0 of a one-instance registry.
    struct Setup {
        rng: StdRng,
        chain: Chain<HitRegistry>,
        windows: PhaseWindows,
        kp: KeyPair,
        requester: Address,
        workers: Vec<Address>,
        golden: GoldenStandards,
        gs_key: CommitmentKey,
        params: PublishParams,
    }

    const BUDGET: u128 = 4_000;

    impl Setup {
        /// The task's contract state.
        fn hit(&self) -> &HitContract {
            self.chain.contract().hit(0).expect("published")
        }

        /// The task's escrow account.
        fn escrow(&self) -> Address {
            self.chain.contract().hit_address(0).expect("published")
        }

        /// Submits `msg` to the task.
        fn submit(&mut self, sender: Address, msg: HitMessage) {
            self.chain
                .submit(sender, RegistryMessage::Hit { id: 0, msg });
        }

        /// The `Create` that publishes the task with `requester`'s funds.
        fn create(&mut self, requester: Address) {
            let (windows, params) = (self.windows, self.params.clone());
            self.chain
                .submit(requester, RegistryMessage::Create { windows, params });
        }
    }

    fn setup() -> Setup {
        let mut rng = StdRng::seed_from_u64(0xc0217ac7);
        let kp = KeyPair::generate(&mut rng);
        let requester = Address::from_byte(0xd0);
        let workers: Vec<Address> = (1..=4).map(Address::from_byte).collect();
        let golden = GoldenStandards {
            indexes: vec![0, 2, 4, 6, 8, 9],
            answers: vec![1, 0, 1, 1, 0, 0],
        };
        let gs_key = CommitmentKey::random(&mut rng);
        let comm_gs = Commitment::commit(&golden.encode(), &gs_key);
        let params = PublishParams {
            n: 10,
            budget: BUDGET,
            k: 4,
            range: PlaintextRange::binary(),
            theta: 4,
            ek: kp.ek,
            comm_gs,
            task_digest: [7u8; 32],
        };
        let windows = PhaseWindows {
            commit_timeout: Some(4),
            reveal: 1,
            evaluate: 2,
        };
        let mut chain = Chain::deploy(
            HitRegistry::new(SettlementMode::PerProof),
            0,
            GasSchedule::istanbul(),
        );
        chain.ledger.mint(requester, BUDGET * 2);
        Setup {
            rng,
            chain,
            windows,
            kp,
            requester,
            workers,
            golden,
            gs_key,
            params,
        }
    }

    /// The perfect answer for the fixture's gold standards.
    fn good_answer() -> Answer {
        Answer(vec![1, 0, 0, 0, 1, 0, 1, 0, 0, 0])
    }

    /// An answer failing 5 of 6 gold standards.
    fn bad_answer() -> Answer {
        Answer(vec![0, 0, 1, 0, 0, 0, 0, 0, 1, 0])
    }

    fn publish(s: &mut Setup) {
        s.create(s.requester);
        s.chain.advance_round_fifo();
        assert_eq!(s.hit().phase(), Phase::Commit);
    }

    /// Commits and reveals the given answers for all four workers;
    /// returns each worker's ciphertexts.
    fn submit_all(s: &mut Setup, answers: &[Answer]) -> Vec<EncryptedAnswer> {
        let mut cts = Vec::new();
        let mut keys = Vec::new();
        for (w, a) in s.workers.clone().iter().zip(answers) {
            let enc = a.encrypt(&s.kp.ek, &mut s.rng);
            let key = CommitmentKey::random(&mut s.rng);
            let comm = Commitment::commit(&enc.encode(), &key);
            s.submit(*w, HitMessage::Commit { commitment: comm });
            cts.push(enc);
            keys.push(key);
        }
        s.chain.advance_round_fifo();
        assert_eq!(s.hit().phase(), Phase::Reveal);
        for ((w, enc), key) in s.workers.clone().iter().zip(&cts).zip(&keys) {
            s.submit(
                *w,
                HitMessage::Reveal {
                    ciphertexts: enc.clone(),
                    key: *key,
                },
            );
        }
        s.chain.advance_round_fifo();
        cts
    }

    fn enter_evaluate(s: &mut Setup) {
        // One empty round closes the reveal window.
        s.chain.advance_round_fifo();
        assert_eq!(s.hit().phase(), Phase::Evaluate);
    }

    #[test]
    fn happy_path_all_paid() {
        let mut s = setup();
        publish(&mut s);
        submit_all(&mut s, &vec![good_answer(); 4]);
        enter_evaluate(&mut s);
        // Requester opens golden, then stays silent; deadline pays all.
        s.submit(
            s.requester,
            HitMessage::Golden {
                golden: s.golden.clone(),
                key: s.gs_key,
            },
        );
        s.chain.advance_round_fifo();
        // Run past the evaluation deadline.
        s.chain.advance_round_fifo();
        s.chain.advance_round_fifo();
        s.chain.advance_round_fifo();
        assert!(s.hit().is_settled());
        for w in &s.workers {
            assert_eq!(s.chain.ledger.balance(w), BUDGET / 4);
            assert_eq!(s.hit().settlement(w), Some(&Settlement::Paid));
        }
        assert_eq!(s.chain.ledger.balance(&s.escrow()), 0);
    }

    #[test]
    fn requester_silence_pays_everyone() {
        // Even without the golden opening, workers get paid at deadline —
        // false-reporting by omission is impossible.
        let mut s = setup();
        publish(&mut s);
        submit_all(&mut s, &vec![bad_answer(); 4]);
        enter_evaluate(&mut s);
        for _ in 0..4 {
            s.chain.advance_round_fifo();
        }
        assert!(s.hit().is_settled());
        for w in &s.workers {
            assert_eq!(s.chain.ledger.balance(w), BUDGET / 4);
        }
    }

    #[test]
    fn low_quality_rejected_with_poqoea() {
        let mut s = setup();
        publish(&mut s);
        let answers = vec![bad_answer(), good_answer(), good_answer(), good_answer()];
        let cts = submit_all(&mut s, &answers);
        enter_evaluate(&mut s);
        s.submit(
            s.requester,
            HitMessage::Golden {
                golden: s.golden.clone(),
                key: s.gs_key,
            },
        );
        s.chain.advance_round_fifo();
        // Reject worker 0 (quality 1 < Θ=4).
        let (chi, proof) = poqoea::prove_quality(
            &s.kp.dk,
            &cts[0],
            &s.golden,
            &PlaintextRange::binary(),
            &mut s.rng,
        );
        assert_eq!(chi, 1);
        s.submit(
            s.requester,
            HitMessage::Evaluate {
                worker: s.workers[0],
                chi,
                proof,
            },
        );
        s.chain.advance_round_fifo();
        assert_eq!(
            s.hit().settlement(&s.workers[0]),
            Some(&Settlement::Rejected(RejectReason::LowQuality { chi: 1 }))
        );
        // Settle.
        for _ in 0..3 {
            s.chain.advance_round_fifo();
        }
        assert_eq!(s.chain.ledger.balance(&s.workers[0]), 0);
        for w in &s.workers[1..] {
            assert_eq!(s.chain.ledger.balance(w), BUDGET / 4);
        }
        // The rejected share went back to the requester.
        assert_eq!(
            s.chain.ledger.balance(&s.requester),
            BUDGET * 2 - BUDGET + BUDGET / 4
        );
    }

    #[test]
    fn invalid_poqoea_pays_the_worker() {
        // A cheating requester claiming a good answer is bad gets the
        // proof rejected, and the contract pays the worker immediately.
        let mut s = setup();
        publish(&mut s);
        let cts = submit_all(&mut s, &vec![good_answer(); 4]);
        enter_evaluate(&mut s);
        s.submit(
            s.requester,
            HitMessage::Golden {
                golden: s.golden.clone(),
                key: s.gs_key,
            },
        );
        s.chain.advance_round_fifo();
        // Fabricate: claim χ=0 with no mismatch proofs at all.
        s.submit(
            s.requester,
            HitMessage::Evaluate {
                worker: s.workers[0],
                chi: 0,
                proof: QualityProof::default(),
            },
        );
        s.chain.advance_round_fifo();
        assert_eq!(s.hit().settlement(&s.workers[0]), Some(&Settlement::Paid));
        assert_eq!(s.chain.ledger.balance(&s.workers[0]), BUDGET / 4);
        let _ = cts;
    }

    #[test]
    fn duplicate_commitment_rejected() {
        let mut s = setup();
        publish(&mut s);
        let enc = good_answer().encrypt(&s.kp.ek, &mut s.rng);
        let key = CommitmentKey::random(&mut s.rng);
        let comm = Commitment::commit(&enc.encode(), &key);
        s.submit(s.workers[0], HitMessage::Commit { commitment: comm });
        // A copier submits the same commitment.
        s.submit(s.workers[1], HitMessage::Commit { commitment: comm });
        s.chain.advance_round_fifo();
        let ok = s
            .chain
            .receipts()
            .filter(|r| r.label == "commit" && r.status == TxStatus::Ok)
            .count();
        assert_eq!(ok, 1, "exactly one commit succeeds");
        let reverted = s
            .chain
            .receipts()
            .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
            .count();
        assert_eq!(reverted, 1, "the copied commitment must revert");
    }

    #[test]
    fn worker_cannot_commit_twice() {
        let mut s = setup();
        publish(&mut s);
        let key = CommitmentKey::random(&mut s.rng);
        let c1 = Commitment::commit(b"a", &key);
        let c2 = Commitment::commit(b"b", &key);
        s.submit(s.workers[0], HitMessage::Commit { commitment: c1 });
        s.submit(s.workers[0], HitMessage::Commit { commitment: c2 });
        s.chain.advance_round_fifo();
        let reverted = s
            .chain
            .receipts()
            .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
            .count();
        assert_eq!(reverted, 1);
    }

    #[test]
    fn reveal_must_open_commitment() {
        let mut s = setup();
        publish(&mut s);
        // All four commit.
        let mut keys = Vec::new();
        let mut encs = Vec::new();
        for w in s.workers.clone() {
            let enc = good_answer().encrypt(&s.kp.ek, &mut s.rng);
            let key = CommitmentKey::random(&mut s.rng);
            let comm = Commitment::commit(&enc.encode(), &key);
            s.submit(w, HitMessage::Commit { commitment: comm });
            keys.push(key);
            encs.push(enc);
        }
        s.chain.advance_round_fifo();
        // Worker 0 tries to reveal *different* ciphertexts.
        let other = bad_answer().encrypt(&s.kp.ek, &mut s.rng);
        s.submit(
            s.workers[0],
            HitMessage::Reveal {
                ciphertexts: other,
                key: keys[0],
            },
        );
        s.chain.advance_round_fifo();
        let last = s.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn non_revealer_gets_nothing() {
        let mut s = setup();
        publish(&mut s);
        // All commit; only workers 1..4 reveal.
        let mut keys = Vec::new();
        let mut encs = Vec::new();
        for w in s.workers.clone() {
            let enc = good_answer().encrypt(&s.kp.ek, &mut s.rng);
            let key = CommitmentKey::random(&mut s.rng);
            let comm = Commitment::commit(&enc.encode(), &key);
            s.submit(w, HitMessage::Commit { commitment: comm });
            keys.push(key);
            encs.push(enc);
        }
        s.chain.advance_round_fifo();
        for i in 1..4 {
            s.submit(
                s.workers[i],
                HitMessage::Reveal {
                    ciphertexts: encs[i].clone(),
                    key: keys[i],
                },
            );
        }
        for _ in 0..6 {
            s.chain.advance_round_fifo();
        }
        assert!(s.hit().is_settled());
        assert_eq!(s.chain.ledger.balance(&s.workers[0]), 0);
        assert_eq!(
            s.hit().settlement(&s.workers[0]),
            Some(&Settlement::Rejected(RejectReason::NoReveal))
        );
        for w in &s.workers[1..] {
            assert_eq!(s.chain.ledger.balance(w), BUDGET / 4);
        }
    }

    #[test]
    fn outrange_rejects_out_of_range_answer() {
        let mut s = setup();
        publish(&mut s);
        let mut answers = vec![good_answer(); 4];
        answers[0] = Answer(vec![7u64; 10]); // wildly out of range
        let cts = submit_all(&mut s, &answers);
        enter_evaluate(&mut s);
        // Prove item 0 of worker 0 is out of range.
        let (claim, proof) = vpke::prove(
            &s.kp.dk,
            &cts[0].0[0],
            &PlaintextRange::binary(),
            &mut s.rng,
        );
        assert!(matches!(claim, PlaintextClaim::OutOfRange(_)));
        s.submit(
            s.requester,
            HitMessage::OutRange {
                worker: s.workers[0],
                index: 0,
                claim,
                proof,
            },
        );
        s.chain.advance_round_fifo();
        assert_eq!(
            s.hit().settlement(&s.workers[0]),
            Some(&Settlement::Rejected(RejectReason::OutOfRange { index: 0 }))
        );
    }

    #[test]
    fn bogus_outrange_pays_the_worker() {
        let mut s = setup();
        publish(&mut s);
        let cts = submit_all(&mut s, &vec![good_answer(); 4]);
        enter_evaluate(&mut s);
        // The answer at index 0 is in range; an honest VPKE proof of it
        // yields an in-range claim — the contract pays the worker.
        let (claim, proof) = vpke::prove(
            &s.kp.dk,
            &cts[0].0[0],
            &PlaintextRange::binary(),
            &mut s.rng,
        );
        assert!(matches!(claim, PlaintextClaim::InRange(_)));
        s.submit(
            s.requester,
            HitMessage::OutRange {
                worker: s.workers[0],
                index: 0,
                claim,
                proof,
            },
        );
        s.chain.advance_round_fifo();
        assert_eq!(s.hit().settlement(&s.workers[0]), Some(&Settlement::Paid));
    }

    #[test]
    fn evaluate_requires_golden_opening() {
        let mut s = setup();
        publish(&mut s);
        let cts = submit_all(&mut s, &vec![bad_answer(); 4]);
        enter_evaluate(&mut s);
        let (chi, proof) = poqoea::prove_quality(
            &s.kp.dk,
            &cts[0],
            &s.golden,
            &PlaintextRange::binary(),
            &mut s.rng,
        );
        s.submit(
            s.requester,
            HitMessage::Evaluate {
                worker: s.workers[0],
                chi,
                proof,
            },
        );
        s.chain.advance_round_fifo();
        let last = s.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn only_requester_can_evaluate() {
        let mut s = setup();
        publish(&mut s);
        submit_all(&mut s, &vec![good_answer(); 4]);
        enter_evaluate(&mut s);
        s.submit(
            s.workers[1],
            HitMessage::Golden {
                golden: s.golden.clone(),
                key: s.gs_key,
            },
        );
        s.chain.advance_round_fifo();
        let last = s.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn wrong_golden_opening_rejected() {
        let mut s = setup();
        publish(&mut s);
        submit_all(&mut s, &vec![good_answer(); 4]);
        enter_evaluate(&mut s);
        let mut fake = s.golden.clone();
        fake.answers[0] = 1 - fake.answers[0];
        s.submit(
            s.requester,
            HitMessage::Golden {
                golden: fake,
                key: s.gs_key,
            },
        );
        s.chain.advance_round_fifo();
        let last = s.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn publish_without_funds_reverts() {
        let mut s = setup();
        let poor = Address::from_byte(0x99);
        s.create(poor);
        s.chain.advance_round_fifo();
        let last = s.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
        // No instance left `Phase::Setup`: the reverted `Create`
        // allocated none.
        assert!(s.chain.contract().is_empty());
    }

    #[test]
    fn fifth_commit_rejected() {
        let mut s = setup();
        publish(&mut s);
        for i in 1..=5u8 {
            let key = CommitmentKey::random(&mut s.rng);
            let comm = Commitment::commit(&[i], &key);
            s.submit(
                Address::from_byte(i),
                HitMessage::Commit { commitment: comm },
            );
        }
        s.chain.advance_round_fifo();
        let reverted = s
            .chain
            .receipts()
            .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
            .count();
        assert_eq!(reverted, 1, "the fifth commit must revert");
        assert_eq!(s.hit().phase(), Phase::Reveal);
    }

    #[test]
    fn unfilled_task_cancellable_after_timeout() {
        let mut s = setup();
        publish(&mut s);
        // Only two of four workers ever commit.
        for i in 1..=2u8 {
            let key = CommitmentKey::random(&mut s.rng);
            let comm = Commitment::commit(&[i], &key);
            s.submit(
                Address::from_byte(i),
                HitMessage::Commit { commitment: comm },
            );
        }
        s.chain.advance_round_fifo();
        // Cancelling before the commit deadline (publish round + 4)
        // reverts.
        s.submit(s.workers[0], HitMessage::Cancel);
        s.chain.advance_round_fifo(); // round 3 < 5
        let last = s.chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
        // Run past the deadline; then anyone can cancel.
        s.chain.advance_round_fifo(); // 4
        s.chain.advance_round_fifo(); // 5
        s.submit(s.workers[0], HitMessage::Cancel);
        s.chain.advance_round_fifo(); // 6 >= 5
        assert!(s.hit().is_settled());
        assert_eq!(s.hit().phase(), Phase::Closed);
        // The requester got the full budget back.
        assert_eq!(s.chain.ledger.balance(&s.requester), BUDGET * 2);
    }

    #[test]
    fn unfilled_task_auto_cancels_at_backstop() {
        let mut s = setup();
        publish(&mut s);
        // Nobody commits; advance far past deadline + grace.
        for _ in 0..8 {
            s.chain.advance_round_fifo();
        }
        assert!(s.hit().is_settled());
        assert_eq!(s.chain.ledger.balance(&s.requester), BUDGET * 2);
    }

    #[test]
    fn cancel_impossible_without_timeout_window() {
        // The paper-faithful default has no commit timeout; Cancel must
        // always revert.
        let mut chain = Chain::deploy(
            HitRegistry::new(SettlementMode::PerProof),
            0,
            GasSchedule::istanbul(),
        );
        let requester = Address::from_byte(0xd0);
        chain.ledger.mint(requester, 100);
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(1));
        chain.submit(
            requester,
            RegistryMessage::Create {
                windows: PhaseWindows::default(),
                params: PublishParams {
                    n: 2,
                    budget: 100,
                    k: 2,
                    range: PlaintextRange::binary(),
                    theta: 1,
                    ek: kp.ek,
                    comm_gs: Commitment([0u8; 32]),
                    task_digest: [0u8; 32],
                },
            },
        );
        chain.advance_round_fifo();
        for _ in 0..6 {
            chain.advance_round_fifo();
        }
        let msg = HitMessage::Cancel;
        chain.submit(requester, RegistryMessage::Hit { id: 0, msg });
        chain.advance_round_fifo();
        let last = chain.receipts().last().unwrap();
        assert!(matches!(last.status, TxStatus::Reverted(_)));
        assert!(!chain.contract().hit(0).unwrap().is_settled());
    }

    #[test]
    fn gas_shape_matches_table_iii() {
        // The publish and submit costs must land in the right order of
        // magnitude (detailed numbers are the bench's job).
        let mut s = setup();
        publish(&mut s);
        // `C_hit`'s own share of each receipt, as Table III reads it.
        let net = |r: &dragoon_chain::Receipt| {
            r.gas_used - routing_gas(r.label, &GasSchedule::istanbul())
        };
        let publish_gas = net(s.chain.receipts().find(|r| r.label == "publish").unwrap());
        assert!(
            (1_000_000..1_700_000).contains(&publish_gas),
            "publish gas = {publish_gas}"
        );
        submit_all(&mut s, &vec![good_answer(); 4]);
        let commit_gas: u64 = s
            .chain
            .receipts()
            .filter(|r| r.label == "commit" && r.status == TxStatus::Ok)
            .map(net)
            .next()
            .unwrap();
        let reveal_gas: u64 = s
            .chain
            .receipts()
            .filter(|r| r.label == "reveal" && r.status == TxStatus::Ok)
            .map(net)
            .next()
            .unwrap();
        // 10-question fixture: reveal ≈ 10 sstores + data ≈ 250k.
        assert!(commit_gas < 60_000, "commit gas = {commit_gas}");
        assert!(
            (150_000..500_000).contains(&reveal_gas),
            "reveal gas = {reveal_gas}"
        );
    }

    /// An undo snapshot copies pointers: every worker record the
    /// transaction leaves alone is the live map's own allocation, the one
    /// record it writes is copied on write — and even that copy still
    /// points at the ciphertexts the worker encrypted.
    #[test]
    fn journal_snapshot_shares_records_and_ciphertexts() {
        let mut s = setup();
        publish(&mut s);
        let cts = submit_all(&mut s, &vec![good_answer(); 4]);
        enter_evaluate(&mut s);
        let (round, addr) = (s.chain.round(), s.escrow());
        let mut ledger = s.chain.ledger.clone();
        let schedule = GasSchedule::istanbul();
        // A clone shares every record and ciphertext with the hosted one.
        let mut instance = s.hit().clone();
        let contract = &mut instance;
        let mut captured = |contract: &mut HitContract, msg| {
            let mut meter = dragoon_chain::GasMeter::new();
            let mut events = Vec::new();
            let mut env =
                ExecEnv::new(&mut ledger, &mut meter, &schedule, round, addr, &mut events);
            contract.begin_tx();
            contract.on_message(&mut env, s.requester, msg).unwrap();
            contract.commit_tx_captured().expect("the handler wrote")
        };
        // The golden opening writes no worker record.
        let golden = HitMessage::Golden {
            golden: s.golden.clone(),
            key: s.gs_key,
        };
        let snapshot = captured(contract, golden);
        for (w, enc) in s.workers.iter().zip(&cts) {
            assert!(Arc::ptr_eq(&snapshot.workers[w], &contract.workers[w]));
            assert!(Arc::ptr_eq(&snapshot.revealed(w).unwrap().0, &enc.0));
        }
        // A backfired rejection settles worker 0: one record is copied.
        let evaluate = HitMessage::Evaluate {
            worker: s.workers[0],
            chi: 0,
            proof: QualityProof::default(),
        };
        let snapshot = captured(contract, evaluate);
        for (i, (w, enc)) in s.workers.iter().zip(&cts).enumerate() {
            let shared = Arc::ptr_eq(&snapshot.workers[w], &contract.workers[w]);
            assert_eq!(shared, i != 0, "worker {i}");
            assert!(Arc::ptr_eq(&contract.revealed(w).unwrap().0, &enc.0));
            assert!(Arc::ptr_eq(&snapshot.revealed(w).unwrap().0, &enc.0));
        }
        assert_eq!(snapshot.settlement(&s.workers[0]), None);
        assert_eq!(contract.settlement(&s.workers[0]), Some(&Settlement::Paid));
    }
}
