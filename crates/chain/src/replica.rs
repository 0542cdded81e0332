//! Replica-side block application with **captured commits** — the state
//! layer `dragoon-net` builds reorgs on.
//!
//! A network replica does not schedule its own mempool: it receives a
//! produced block (the transaction list, in receipt order) and replays
//! it against local state. Because a replica may later learn that the
//! block sat on a losing fork, every commit is *captured*: the undo log
//! that [`crate::chain::Chain`]'s journal bracket normally discards at
//! commit time is kept, so the block can be unwound bit-exactly —
//! deadline settlements, batched verdicts and escrow movements included —
//! when fork choice switches branches.
//!
//! Undo is **per block**, not per transaction. Transactions still run
//! under their own journal brackets (a reverted one must roll back alone,
//! before the next executes) — the serial path's own bracket, which
//! hands back a success still open; the only thing a replica does
//! differently is close it with a *captured* commit — and each capture
//! is folded into the block's single [`BlockUndo`] as soon as it commits
//! ([`CaptureStateMachine::absorb`]). That loses nothing:
//! [`Chain::revert_last_block`] only ever unwinds whole blocks, and
//! restoring the state a piece had *before the block first wrote it* is
//! the same as unwinding every later write to it in turn — so a block
//! that touches one instance five times keeps one record of it, not five.
//!
//! The split mirrors the production/validation separation: the sequencer
//! keeps the optimistic parallel executor
//! ([`crate::parallel`]); replicas replay serially (validation is
//! re-execution, and a replayed block is already scheduled), with the
//! journal captures providing O(touched-state) rollback instead of
//! whole-chain snapshots.

use crate::chain::{Block, Chain, StateMachine};
use crate::mempool::PendingTx;
use dragoon_ledger::{Journaled, LedgerCapture};

/// A [`StateMachine`] whose journal commits can be captured and later
/// unwound — the contract-side contract for replica reorgs.
///
/// Laws (given a bracket `begin_tx` … mutations … `commit_tx_captured`):
/// `revert_capture(capture)` must restore the observable state exactly
/// as `rollback_tx` would have at the commit point, and captures must be
/// reverted in reverse commit order.
///
/// `absorb(&mut block, later)` folds the capture of a bracket committed
/// *after* everything already in `block` into it: reverting the folded
/// capture must equal reverting `later`, then `block`.
pub trait CaptureStateMachine: StateMachine {
    /// A captured undo log: one committed bracket, or a fold of
    /// consecutive ones.
    type Capture;

    /// Commits the open journal transaction, returning its undo log.
    fn commit_tx_captured(&mut self) -> Self::Capture;

    /// Unwinds a previously captured commit (newest first).
    fn revert_capture(&mut self, capture: Self::Capture);

    /// Folds the capture of the next committed bracket into `block`.
    fn absorb(block: &mut Self::Capture, later: Self::Capture);

    /// Stops recording into the run's trace. State replayed outside the
    /// run — the network's audit view of the sequencer's node — calls
    /// it before replaying, so building the view leaves the run's trace
    /// as it was. The default is for a machine that records nothing.
    fn detach_trace(&mut self) {}
}

/// Everything needed to unwind one externally applied block: the folded
/// undo captures of its clock tick and every successful transaction.
pub struct BlockUndo<S: CaptureStateMachine> {
    round: u64,
    events_len: usize,
    ledger: LedgerCapture,
    contract: S::Capture,
}

impl<S: CaptureStateMachine> BlockUndo<S> {
    /// The round (block height) this undo belongs to.
    pub fn round(&self) -> u64 {
        self.round
    }
}

impl<S: CaptureStateMachine> Chain<S> {
    /// Applies an externally produced block: advances the round, runs
    /// the clock tick and every given transaction serially — all under
    /// captured journal brackets — and seals the block directly (no
    /// mempool scheduling, no gas-limit cut: the producer already
    /// enforced its limit, so replay reproduces the receipts exactly).
    ///
    /// Returns the [`BlockUndo`] that [`Chain::revert_last_block`]
    /// consumes to unwind the block on a reorg.
    pub fn apply_block_captured(&mut self, txs: Vec<PendingTx<S::Msg>>) -> BlockUndo<S> {
        self.round += 1;
        let events_len = self.events.len();
        // The clock tick runs under its own captured bracket: phase
        // deadlines and batched settlement verdicts firing at this block
        // boundary are part of the block and must unwind with it.
        self.contract.begin_tx();
        self.ledger.begin_tx();
        self.clock_tick();
        let mut ledger = self.ledger.commit_tx_captured();
        let mut contract = self.contract.commit_tx_captured();
        let mut receipts = Vec::with_capacity(txs.len());
        for tx in txs {
            // The serial path's own bracket; a success closes with a
            // captured commit, a revert (which restored state at once)
            // captures nothing.
            let (receipt, open) = self.execute_tx_open(tx);
            receipts.push(receipt);
            if open {
                ledger.absorb(self.ledger.commit_tx_captured());
                S::absorb(&mut contract, self.contract.commit_tx_captured());
            }
        }
        self.blocks.push(Block {
            round: self.round,
            receipts,
        });
        BlockUndo {
            round: self.round,
            events_len,
            ledger,
            contract,
        }
    }

    /// Unwinds the most recent block using its captured undo state:
    /// contract and ledger return to their pre-block state, emitted
    /// events are truncated, the round steps back and the block is
    /// popped (and returned, so fork-choice bookkeeping can inspect it).
    /// Deeper reorgs call this repeatedly, newest block first.
    pub fn revert_last_block(&mut self, undo: BlockUndo<S>) -> Block {
        let block = self.blocks.pop().expect("a block to revert");
        assert_eq!(
            block.round, undo.round,
            "block undo must match the chain head"
        );
        self.contract.revert_capture(undo.contract);
        self.ledger.revert_capture(undo.ledger);
        self.events.truncate(undo.events_len);
        self.round -= 1;
        block
    }
}
