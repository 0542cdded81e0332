//! The simulated blockchain: a round-based (synchronous) chain hosting
//! one contract state machine, with gas metering and transaction
//! atomicity.
//!
//! Rounds model the paper's clock periods: parties submit messages during
//! a round; at the round boundary the adversary schedules the pending
//! set (see [`crate::mempool`]), the scheduled transactions execute
//! in order against the contract, and a block is produced. Reverted
//! transactions consume their gas but leave contract and ledger state
//! untouched (as on Ethereum).
//!
//! Atomicity is provided by the **state journal**
//! ([`dragoon_ledger::journal`]): the chain brackets every transaction
//! with [`Journaled::begin_tx`] on the contract and the ledger, and a
//! revert replays the undo records of exactly the state the transaction
//! touched. It is the chain's only revert mechanism; the naïve
//! clone-per-transaction executor the equivalence suites diff it against
//! lives in test code (`tests/support`).

use crate::gas::{CalldataStats, Gas, GasMeter, GasSchedule};
use crate::mempool::{PendingTx, ReorderPolicy, Scheduled};
use crate::parallel::ParallelStats;
use dragoon_ledger::{Address, Journaled, Ledger};
use std::fmt;

/// Messages must report their calldata profile (for intrinsic gas) and a
/// short label (for receipts and gas reports).
pub trait ChainMessage: Clone {
    /// Zero/non-zero byte composition of the ABI-encoded payload.
    fn calldata(&self) -> CalldataStats;
    /// A short human-readable label, e.g. `"commit"`.
    fn label(&self) -> &'static str;
}

/// A contract hosted on the chain.
///
/// Implementations must be [`Journaled`]: the chain brackets each
/// transaction with `begin_tx` / `commit_tx` / `rollback_tx`, and the
/// contract records undo entries for every mutation so a revert restores
/// exactly the touched state (no whole-state snapshot).
pub trait StateMachine: Journaled {
    /// The message type accepted by the contract.
    type Msg: ChainMessage;
    /// The event type the contract emits.
    type Event: Clone;
    /// The error type for reverted transactions.
    type Error: fmt::Display;

    /// Handles one delivered transaction.
    fn on_message(
        &mut self,
        env: &mut ExecEnv<'_, Self::Event>,
        sender: Address,
        msg: Self::Msg,
    ) -> Result<(), Self::Error>;

    /// Invoked once at the beginning of every round (clock period) —
    /// contracts use this for phase deadlines.
    fn on_clock(&mut self, _env: &mut ExecEnv<'_, Self::Event>, _round: u64) {}
}

/// The execution environment a contract sees while handling a message.
pub struct ExecEnv<'a, E> {
    /// The cryptocurrency ledger `L`.
    pub ledger: &'a mut Ledger,
    /// The transaction gas meter.
    pub gas: &'a mut GasMeter,
    /// The gas schedule in force.
    pub schedule: &'a GasSchedule,
    /// The current round (clock period).
    pub round: u64,
    /// The contract's own address (escrow account).
    pub contract: Address,
    events: &'a mut Vec<E>,
}

impl<'a, E> ExecEnv<'a, E> {
    /// Assembles an execution environment. The transaction bracket
    /// builds one per transaction — over the canonical ledger or a
    /// conflict group's shadow — and the test-side reference executor
    /// builds its own.
    pub fn new(
        ledger: &'a mut Ledger,
        gas: &'a mut GasMeter,
        schedule: &'a GasSchedule,
        round: u64,
        contract: Address,
        events: &'a mut Vec<E>,
    ) -> Self {
        Self {
            ledger,
            gas,
            schedule,
            round,
            contract,
            events,
        }
    }
}

impl<E: Clone> ExecEnv<'_, E> {
    /// Emits a contract event, charging LOG gas for `data_len` bytes with
    /// one topic (the event signature), as Solidity does.
    pub fn emit(&mut self, event: E, data_len: usize) {
        let cost = self.schedule.log(1, data_len);
        self.gas.charge("log", cost);
        self.events.push(event);
    }

    /// Emits an event without charging gas (for synthetic bookkeeping
    /// events that a real contract would not log).
    pub fn emit_free(&mut self, event: E) {
        self.events.push(event);
    }

    /// Runs `f` in a child environment scoped to a different contract
    /// address and event type — the internal-call mechanism a registry
    /// contract uses to route a transaction into one of many hosted
    /// instances (each with its own escrow account on the ledger).
    ///
    /// Gas, ledger and round state are shared with the parent; events
    /// the child emits are mapped through `adapt` back into the parent's
    /// event type. Transaction atomicity is unaffected: the child shares
    /// the outer transaction's journal scope, exactly as EVM sub-calls
    /// share the outer transaction's revert scope.
    pub fn scoped<E2: Clone, T>(
        &mut self,
        contract: Address,
        f: impl FnOnce(&mut ExecEnv<'_, E2>) -> T,
        adapt: impl FnMut(E2) -> E,
    ) -> T {
        let mut child_events: Vec<E2> = Vec::new();
        let out = {
            let mut child = ExecEnv {
                ledger: &mut *self.ledger,
                gas: &mut *self.gas,
                schedule: self.schedule,
                round: self.round,
                contract,
                events: &mut child_events,
            };
            f(&mut child)
        };
        self.events.extend(child_events.into_iter().map(adapt));
        out
    }
}

/// Execution status of a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Executed successfully.
    Ok,
    /// Reverted with the contract's error message; state rolled back.
    Reverted(String),
}

/// A transaction receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Submission sequence number.
    pub seq: u64,
    /// Sender address.
    pub sender: Address,
    /// Message label.
    pub label: &'static str,
    /// The round in which the transaction executed.
    pub round: u64,
    /// Gas consumed (including intrinsic cost; consumed even on revert).
    pub gas_used: Gas,
    /// Outcome.
    pub status: TxStatus,
    /// The labelled gas breakdown for this transaction.
    pub gas_breakdown: Vec<(&'static str, Gas)>,
}

/// A produced block: the receipts of one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Round number (block height).
    pub round: u64,
    /// Receipts, in execution order.
    pub receipts: Vec<Receipt>,
}

/// A compact per-block footprint read at block boundaries — the
/// chain-level observation feed market-economics layers (dynamic
/// pricing, congestion models) consume without re-scanning receipts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockObservation {
    /// Block height (round number).
    pub round: u64,
    /// Executed transactions (including reverted).
    pub txs: usize,
    /// Reverted transactions.
    pub reverted: usize,
    /// Gas consumed by the block.
    pub gas_used: Gas,
}

impl Block {
    /// Summarizes this block as a [`BlockObservation`].
    pub fn observation(&self) -> BlockObservation {
        BlockObservation {
            round: self.round,
            txs: self.receipts.len(),
            reverted: self
                .receipts
                .iter()
                .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
                .count(),
            gas_used: self.receipts.iter().map(|r| r.gas_used).sum(),
        }
    }
}

/// The one transaction bracket: everything a transaction costs and
/// leaves behind, wherever it executes — the sequencer's serial path,
/// recovery replay and replicas (against the contract and the canonical
/// ledger) and the parallel executor's conflict groups (against a shard
/// and the group's shadow ledger).
///
/// Opens the journal bracket on `state` and `ledger`, charges intrinsic
/// gas, hands the message to `handle` and builds the [`Receipt`]. A
/// revert rolls both back — gas is still consumed — and returns `None`;
/// a success returns the emitted events with the bracket **still open**,
/// so the caller decides how it closes (commit, captured commit, or
/// rollback out of an overfull block).
pub(crate) fn run_tx<St: Journaled, M: ChainMessage, E, Er: fmt::Display>(
    state: &mut St,
    ledger: &mut Ledger,
    schedule: &GasSchedule,
    round: u64,
    contract: Address,
    tx: PendingTx<M>,
    handle: impl FnOnce(&mut St, &mut ExecEnv<'_, E>, Address, M) -> Result<(), Er>,
) -> (Receipt, Option<Vec<E>>) {
    state.begin_tx();
    ledger.begin_tx();
    let mut meter = GasMeter::new();
    meter.charge("intrinsic", schedule.intrinsic(&tx.msg.calldata()));
    let label = tx.msg.label();
    let mut events = Vec::new();
    let result = {
        let mut env = ExecEnv::new(ledger, &mut meter, schedule, round, contract, &mut events);
        handle(state, &mut env, tx.sender, tx.msg)
    };
    let (status, events) = match result {
        Ok(()) => (TxStatus::Ok, Some(events)),
        Err(e) => {
            state.rollback_tx();
            ledger.rollback_tx();
            (TxStatus::Reverted(e.to_string()), None)
        }
    };
    let receipt = Receipt {
        seq: tx.seq,
        sender: tx.sender,
        label,
        round,
        gas_used: meter.used(),
        status,
        gas_breakdown: meter.breakdown().to_vec(),
    };
    (receipt, events)
}

/// The simulated chain hosting a single contract instance.
pub struct Chain<S: StateMachine> {
    /// The ledger (public, so tests can mint and inspect balances).
    pub ledger: Ledger,
    pub(crate) contract: S,
    pub(crate) contract_addr: Address,
    pub(crate) schedule: GasSchedule,
    pub(crate) round: u64,
    pub(crate) mempool: Vec<PendingTx<S::Msg>>,
    pub(crate) blocks: Vec<Block>,
    pub(crate) events: Vec<(u64, S::Event)>,
    pub(crate) next_seq: u64,
    deploy_gas: Gas,
    pub(crate) block_gas_limit: Option<Gas>,
    /// Worker threads for optimistic parallel block execution; `1` keeps
    /// the strictly serial path (see [`crate::parallel`]).
    pub(crate) exec_threads: usize,
    /// Counters for the parallel executor (how many transactions ran
    /// optimistically, how often it fell back, …).
    pub(crate) parallel_stats: ParallelStats,
    /// When set, every produced block's executed transactions are kept
    /// (in receipt order) in `last_block_txs` — the canonical sequencer
    /// feed `dragoon-net` rebroadcasts to replicas. Off by default:
    /// recording clones every landed transaction.
    pub(crate) record_block_txs: bool,
    /// The most recent block's executed transactions (receipt order);
    /// empty unless `record_block_txs` is on.
    pub(crate) last_block_txs: Vec<PendingTx<S::Msg>>,
}

impl<S: StateMachine> Chain<S> {
    /// Deploys `contract` at a fresh address, charging realistic
    /// deployment gas for `code_len` bytes of runtime code.
    pub fn deploy(contract: S, code_len: usize, schedule: GasSchedule) -> Self {
        let contract_addr = Address::contract_address(&Address::ZERO, 1);
        let deploy_gas = schedule.tx_base + schedule.create(code_len);
        Self {
            ledger: Ledger::new(),
            contract,
            contract_addr,
            schedule,
            round: 0,
            mempool: Vec::new(),
            blocks: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
            deploy_gas,
            block_gas_limit: None,
            exec_threads: 1,
            parallel_stats: ParallelStats::default(),
            record_block_txs: false,
            last_block_txs: Vec::new(),
        }
    }

    /// Caps the gas per block (Ethereum mainnet ran ~10M around the
    /// paper's measurement window). Transactions that do not fit are
    /// carried over to the next round, preserving order — which is why
    /// phase windows must absorb a round of spill-over in heavy tasks.
    pub fn with_block_gas_limit(mut self, limit: Gas) -> Self {
        self.block_gas_limit = Some(limit);
        self
    }

    /// Sets the worker-thread count for optimistic parallel block
    /// execution (`0` and `1` both keep the serial path). Takes effect
    /// through [`Chain::advance_round_parallel`]; the plain
    /// [`Chain::advance_round`] is always serial.
    pub fn with_exec_threads(mut self, threads: usize) -> Self {
        self.exec_threads = threads.max(1);
        self
    }

    /// The configured executor thread count.
    pub fn exec_threads(&self) -> usize {
        self.exec_threads
    }

    /// Counters describing how the parallel executor ran (all zero while
    /// only the serial path has been used).
    pub fn parallel_stats(&self) -> ParallelStats {
        self.parallel_stats
    }

    /// The contract's address (its escrow account on the ledger).
    pub fn contract_address(&self) -> Address {
        self.contract_addr
    }

    /// The gas charged for deploying the contract.
    pub fn deploy_gas(&self) -> Gas {
        self.deploy_gas
    }

    /// Read-only access to the hosted contract state.
    pub fn contract(&self) -> &S {
        &self.contract
    }

    /// Mutable access to the hosted contract state — for out-of-band
    /// machinery like kicking off overlapped verification, not for
    /// state changes (those go through transactions so the journal,
    /// replay and equivalence paths all see them).
    pub fn contract_mut(&mut self) -> &mut S {
        &mut self.contract
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The gas schedule in force.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Submits a transaction to the mempool; returns its sequence number.
    pub fn submit(&mut self, sender: Address, msg: S::Msg) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.mempool.push(PendingTx { sender, msg, seq });
        seq
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Toggles per-block transaction recording (see
    /// [`Chain::last_block_txs`]). The canonical sequencer in
    /// `dragoon-net` enables this so each produced block's executed
    /// transactions can be rebroadcast to replicas.
    pub fn set_record_block_txs(&mut self, on: bool) {
        self.record_block_txs = on;
        if !on {
            self.last_block_txs.clear();
        }
    }

    /// The most recent block's executed transactions in receipt order
    /// (carried-over transactions excluded). Empty unless
    /// [`Chain::set_record_block_txs`] enabled recording.
    pub fn last_block_txs(&self) -> &[PendingTx<S::Msg>] {
        &self.last_block_txs
    }

    /// Advances one round: the policy schedules the mempool, scheduled
    /// transactions execute, a block is produced. Returns the block.
    pub fn advance_round(&mut self, policy: &mut dyn ReorderPolicy<S::Msg>) -> &Block {
        let mut receipts = Vec::new();
        let mut block_gas: Gas = 0;
        let mut deliver = self.begin_round(policy).into_iter();
        let mut carried: Vec<PendingTx<S::Msg>> = Vec::new();
        for tx in deliver.by_ref() {
            if !self.execute_tx_into_block(tx, &mut block_gas, &mut receipts, &mut carried) {
                break;
            }
        }
        // Whatever did not fit in this block carries to the next round,
        // ahead of newly delayed messages.
        carried.extend(deliver);
        self.seal_block(receipts, carried)
    }

    /// Opens a round: bumps the clock, fires the clock tick, lets the
    /// policy schedule the mempool and keeps what it delayed. Returns
    /// the transactions to deliver, in schedule order.
    pub(crate) fn begin_round(
        &mut self,
        policy: &mut dyn ReorderPolicy<S::Msg>,
    ) -> Vec<PendingTx<S::Msg>> {
        self.round += 1;
        self.last_block_txs.clear();
        self.clock_tick();
        let pending = std::mem::take(&mut self.mempool);
        let Scheduled { deliver, delay } = policy.schedule(self.round, pending);
        self.mempool = delay;
        deliver
    }

    /// Clock tick: phase deadlines fire before the round's deliveries,
    /// matching the paper's "until the beginning of next clock period"
    /// semantics for delayed executions.
    pub(crate) fn clock_tick(&mut self) {
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        let mut env = ExecEnv {
            ledger: &mut self.ledger,
            gas: &mut meter,
            schedule: &self.schedule,
            round: self.round,
            contract: self.contract_addr,
            events: &mut events,
        };
        self.contract.on_clock(&mut env, self.round);
        for e in events {
            self.events.push((self.round, e));
        }
    }

    /// Executes one transaction into the block under construction,
    /// honoring the block gas limit. Returns `false` when the block is
    /// full: the transaction was rolled back and pushed to `carried`,
    /// and the caller must stop delivering (everything else carries).
    pub(crate) fn execute_tx_into_block(
        &mut self,
        tx: PendingTx<S::Msg>,
        block_gas: &mut Gas,
        receipts: &mut Vec<Receipt>,
        carried: &mut Vec<PendingTx<S::Msg>>,
    ) -> bool {
        match self.block_gas_limit {
            None => {
                if self.record_block_txs {
                    self.last_block_txs.push(tx.clone());
                }
                receipts.push(self.execute_tx(tx));
                true
            }
            Some(limit) => {
                // Execute speculatively; if the block would exceed
                // its gas limit (and is not empty — a single tx
                // larger than the limit must still land somewhere),
                // roll the transaction back out of the block and
                // carry it over. The transaction's journal bracket
                // stays open across the limit check, so block-overflow
                // rollback reuses the transaction's own revert path.
                let events_len = self.events.len();
                let (receipt, open) = self.execute_tx_open(tx.clone());
                if *block_gas + receipt.gas_used > limit && !receipts.is_empty() {
                    if open {
                        self.rollback_bracket();
                    }
                    // A closed bracket means the tx reverted, so state
                    // already equals the pre-transaction state.
                    self.events.truncate(events_len);
                    carried.push(tx);
                    false
                } else {
                    if open {
                        self.commit_bracket();
                    }
                    *block_gas += receipt.gas_used;
                    receipts.push(receipt);
                    if self.record_block_txs {
                        self.last_block_txs.push(tx);
                    }
                    true
                }
            }
        }
    }

    /// Produces the round's block and re-queues carried transactions
    /// ahead of newly delayed messages.
    pub(crate) fn seal_block(
        &mut self,
        receipts: Vec<Receipt>,
        mut carried: Vec<PendingTx<S::Msg>>,
    ) -> &Block {
        if !carried.is_empty() {
            carried.extend(std::mem::take(&mut self.mempool));
            self.mempool = carried;
        }
        self.blocks.push(Block {
            round: self.round,
            receipts,
        });
        self.blocks.last().expect("just pushed")
    }

    /// Convenience: advance with honest FIFO scheduling.
    pub fn advance_round_fifo(&mut self) -> &Block {
        self.advance_round(&mut crate::mempool::FifoPolicy)
    }

    /// Replays one persisted block: the recorded *landed* transactions of
    /// a round, in receipt order. Mirrors `advance_round` minus
    /// scheduling and the gas cap — both already happened when the block
    /// was produced, so every recorded transaction executes
    /// unconditionally and lands in the same order. Used by crash
    /// recovery ([`crate::store`]) to rebuild committed state from the
    /// block log; serial replay is bit-identical to the parallel
    /// production run by the same equivalence the replica layer pins.
    pub(crate) fn replay_block(&mut self, txs: Vec<PendingTx<S::Msg>>) -> &Block {
        self.round += 1;
        self.clock_tick();
        let receipts = txs.into_iter().map(|tx| self.execute_tx(tx)).collect();
        self.seal_block(receipts, Vec::new())
    }

    /// Reverts contract + ledger to the state at the open bracket.
    fn rollback_bracket(&mut self) {
        self.contract.rollback_tx();
        self.ledger.rollback_tx();
    }

    /// Finalizes the open bracket's mutations.
    fn commit_bracket(&mut self) {
        self.contract.commit_tx();
        self.ledger.commit_tx();
    }

    fn execute_tx(&mut self, tx: PendingTx<S::Msg>) -> Receipt {
        let (receipt, open) = self.execute_tx_open(tx);
        if open {
            self.commit_bracket();
        }
        receipt
    }

    /// Executes one transaction through [`run_tx`] against the contract
    /// and the canonical ledger, keeping the events of a success. On
    /// revert the bracket is already rolled back and `false` is
    /// returned; on success the bracket is **still open** (`true`) so
    /// the caller says how it closes: the gas-capped block path commits
    /// it or rolls the whole (successful) transaction back out of an
    /// overfull block, a replica commits it captured.
    pub(crate) fn execute_tx_open(&mut self, tx: PendingTx<S::Msg>) -> (Receipt, bool) {
        let (receipt, events) = run_tx(
            &mut self.contract,
            &mut self.ledger,
            &self.schedule,
            self.round,
            self.contract_addr,
            tx,
            S::on_message,
        );
        let open = events.is_some();
        let round = self.round;
        self.events
            .extend(events.into_iter().flatten().map(|e| (round, e)));
        (receipt, open)
    }

    /// All produced blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The footprint of the most recent block, for block-boundary
    /// observers (econ layers reading fill rate and congestion).
    pub fn last_observation(&self) -> Option<BlockObservation> {
        self.blocks.last().map(Block::observation)
    }

    /// All events with the round in which they were emitted.
    pub fn events(&self) -> &[(u64, S::Event)] {
        &self.events
    }

    /// All receipts across all blocks, in execution order.
    pub fn receipts(&self) -> impl Iterator<Item = &Receipt> {
        self.blocks.iter().flat_map(|b| b.receipts.iter())
    }

    /// Total gas consumed by all transactions (excluding deployment).
    pub fn total_gas(&self) -> Gas {
        self.receipts().map(|r| r.gas_used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mempool::ReversePolicy;

    /// A toy counter contract for exercising the chain plumbing. Its
    /// journal is the simplest possible: an eager snapshot of both fields
    /// at transaction start.
    #[derive(Clone, Default)]
    struct Counter {
        value: u64,
        last_sender: Option<Address>,
        undo: Option<(u64, Option<Address>)>,
    }

    impl Journaled for Counter {
        fn begin_tx(&mut self) {
            self.undo = Some((self.value, self.last_sender));
        }
        fn commit_tx(&mut self) {
            self.undo = None;
        }
        fn rollback_tx(&mut self) {
            let (value, last_sender) = self.undo.take().expect("open transaction");
            self.value = value;
            self.last_sender = last_sender;
        }
    }

    #[derive(Clone)]
    enum CounterMsg {
        Add(u64),
        Fail,
    }

    impl ChainMessage for CounterMsg {
        fn calldata(&self) -> CalldataStats {
            CalldataStats {
                zero: 28,
                nonzero: 8,
            }
        }
        fn label(&self) -> &'static str {
            match self {
                CounterMsg::Add(_) => "add",
                CounterMsg::Fail => "fail",
            }
        }
    }

    impl StateMachine for Counter {
        type Msg = CounterMsg;
        type Event = u64;
        type Error = String;

        fn on_message(
            &mut self,
            env: &mut ExecEnv<'_, u64>,
            sender: Address,
            msg: CounterMsg,
        ) -> Result<(), String> {
            match msg {
                CounterMsg::Add(n) => {
                    env.gas.charge("sstore", env.schedule.sstore_update);
                    self.value += n;
                    self.last_sender = Some(sender);
                    env.emit(self.value, 32);
                    Ok(())
                }
                CounterMsg::Fail => {
                    // Mutate state, then revert — atomicity must undo it.
                    self.value = 999_999;
                    Err("deliberate failure".into())
                }
            }
        }
    }

    fn chain() -> Chain<Counter> {
        Chain::deploy(Counter::default(), 1000, GasSchedule::istanbul())
    }

    #[test]
    fn executes_in_fifo_order() {
        let mut c = chain();
        let a1 = Address::from_byte(1);
        let a2 = Address::from_byte(2);
        c.submit(a1, CounterMsg::Add(1));
        c.submit(a2, CounterMsg::Add(2));
        let block = c.advance_round_fifo();
        assert_eq!(block.receipts.len(), 2);
        assert_eq!(c.contract().value, 3);
        assert_eq!(c.contract().last_sender, Some(a2));
    }

    #[test]
    fn reverse_policy_flips_final_sender() {
        let mut c = chain();
        c.submit(Address::from_byte(1), CounterMsg::Add(1));
        c.submit(Address::from_byte(2), CounterMsg::Add(2));
        c.advance_round(&mut ReversePolicy);
        assert_eq!(c.contract().last_sender, Some(Address::from_byte(1)));
    }

    #[test]
    fn reverted_tx_rolls_back_but_burns_gas() {
        let mut c = chain();
        c.submit(Address::from_byte(1), CounterMsg::Add(5));
        c.submit(Address::from_byte(1), CounterMsg::Fail);
        c.advance_round_fifo();
        assert_eq!(c.contract().value, 5, "failed tx must not mutate state");
        let receipts: Vec<_> = c.receipts().collect();
        assert_eq!(receipts.len(), 2);
        assert!(matches!(receipts[1].status, TxStatus::Reverted(_)));
        assert!(receipts[1].gas_used >= 21_000, "revert still burns gas");
    }

    #[test]
    fn gas_includes_intrinsic_and_ops() {
        let mut c = chain();
        c.submit(Address::from_byte(1), CounterMsg::Add(1));
        c.advance_round_fifo();
        let r = c.receipts().next().unwrap();
        // intrinsic 21000 + 28*4 + 8*16 = 21240; sstore 5000; log 375+375+256.
        assert_eq!(r.gas_used, 21_240 + 5_000 + 1_006);
        assert_eq!(r.label, "add");
    }

    #[test]
    fn events_recorded_with_round() {
        let mut c = chain();
        c.submit(Address::from_byte(1), CounterMsg::Add(7));
        c.advance_round_fifo();
        assert_eq!(c.events(), &[(1, 7)]);
    }

    #[test]
    fn mempool_persists_delayed() {
        let mut c = chain();
        c.submit(Address::from_byte(1), CounterMsg::Add(1));
        // Adversary delays everything one round.
        let mut delay_all = crate::mempool::AdversarialPolicy::new(|_, pending| Scheduled {
            deliver: Vec::new(),
            delay: pending,
        });
        c.advance_round(&mut delay_all);
        assert_eq!(c.contract().value, 0);
        assert_eq!(c.mempool_len(), 1);
        c.advance_round_fifo();
        assert_eq!(c.contract().value, 1);
    }

    #[test]
    fn block_gas_limit_defers_overflow() {
        let mut c = chain().with_block_gas_limit(50_000);
        // Each Add costs ~27k; a 50k block fits one (the second would
        // push the block past its limit and is carried over).
        for i in 0..4 {
            c.submit(Address::from_byte(1), CounterMsg::Add(1 << i));
        }
        let block = c.advance_round_fifo();
        assert_eq!(block.receipts.len(), 1, "second tx exceeds the block");
        assert_eq!(c.contract().value, 0b1);
        assert_eq!(c.mempool_len(), 3);
        // The deferred transactions execute in order across later rounds.
        c.advance_round_fifo();
        assert_eq!(c.contract().value, 0b11);
        c.advance_round_fifo();
        c.advance_round_fifo();
        assert_eq!(c.contract().value, 0b1111);
        assert_eq!(c.mempool_len(), 0);
    }

    #[test]
    fn oversized_tx_still_lands_alone() {
        // A transaction larger than the block limit executes alone in
        // its own block rather than starving forever.
        let mut c = chain().with_block_gas_limit(10_000);
        c.submit(Address::from_byte(1), CounterMsg::Add(1));
        let block = c.advance_round_fifo();
        assert_eq!(block.receipts.len(), 1);
        assert_eq!(c.contract().value, 1);
    }

    #[test]
    fn no_limit_executes_everything() {
        let mut c = chain();
        for _ in 0..10 {
            c.submit(Address::from_byte(1), CounterMsg::Add(1));
        }
        let block = c.advance_round_fifo();
        assert_eq!(block.receipts.len(), 10);
    }

    #[test]
    fn deploy_gas_scales_with_code() {
        let small = Chain::deploy(Counter::default(), 100, GasSchedule::istanbul());
        let large = Chain::deploy(Counter::default(), 10_000, GasSchedule::istanbul());
        assert!(large.deploy_gas() > small.deploy_gas());
    }
}
