//! The equivalence suites' shared oracle side: one fixture, one
//! comparison, one reference executor.
//!
//! [`RefChain`] is the naïve serial chain every differential diffs the
//! production [`Chain`] against. It is deliberately independent: its own
//! round loop, whole-state clones instead of journal brackets, and no
//! call into any production execution entry point — so a bug in the
//! journal, the parallel executor or block replay cannot hide in both
//! sides of a comparison. [`Leaky`] is the state machine that proves the
//! comparison can fail.
// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use dragoon_chain::{
    Block, CalldataStats, Chain, ChainMessage, ExecEnv, Gas, GasMeter, GasSchedule, Journaled,
    PendingTx, Receipt, ReorderPolicy, Scheduled, StateMachine, TxStatus,
};
use dragoon_contract::{
    HitRegistry, PhaseWindows, PublishParams, RegistryMessage, SettlementMode, REGISTRY_CODE_LEN,
};
use dragoon_core::task::GoldenStandards;
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
use dragoon_ledger::{Address, Ledger};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const BUDGET: u128 = 3_000;

/// A naïve serial executor: clone `(contract, ledger)` before every
/// transaction, restore the clones on revert and on gas-cap overflow.
pub struct RefChain<S: StateMachine + Clone> {
    pub ledger: Ledger,
    contract: S,
    contract_addr: Address,
    schedule: GasSchedule,
    gas_limit: Option<Gas>,
    round: u64,
    next_seq: u64,
    mempool: Vec<PendingTx<S::Msg>>,
    blocks: Vec<Block>,
    events: Vec<(u64, S::Event)>,
}

impl<S: StateMachine + Clone> RefChain<S> {
    /// A reference starting from the same genesis as `chain` (its
    /// contract, ledger, address and gas schedule cloned out before the
    /// first block), producing blocks under `gas_limit`.
    pub fn at_genesis_of(chain: &Chain<S>, gas_limit: Option<Gas>) -> Self {
        assert!(chain.blocks().is_empty() && chain.mempool_len() == 0);
        Self {
            ledger: chain.ledger.clone(),
            contract: chain.contract().clone(),
            contract_addr: chain.contract_address(),
            schedule: chain.schedule().clone(),
            gas_limit,
            round: 0,
            next_seq: 0,
            mempool: Vec::new(),
            blocks: Vec::new(),
            events: Vec::new(),
        }
    }

    pub fn submit(&mut self, sender: Address, msg: S::Msg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.mempool.push(PendingTx { sender, msg, seq });
    }

    /// One full round: clock tick, policy schedule, execution under the
    /// gas cap, in-order carry of whatever did not fit.
    pub fn run_round(&mut self, policy: &mut dyn ReorderPolicy<S::Msg>) {
        self.tick();
        let Scheduled { deliver, delay } =
            policy.schedule(self.round, std::mem::take(&mut self.mempool));
        let limit = self.gas_limit;
        let mut receipts: Vec<Receipt> = Vec::new();
        let mut block_gas: Gas = 0;
        let mut deliver = deliver.into_iter();
        for tx in deliver.by_ref() {
            // A transaction larger than the cap still lands alone.
            let alone = receipts.is_empty();
            let fits = |gas| alone || limit.is_none_or(|limit| block_gas + gas <= limit);
            match self.execute(tx.clone(), fits) {
                Some(receipt) => {
                    block_gas += receipt.gas_used;
                    receipts.push(receipt);
                }
                None => {
                    self.mempool.push(tx);
                    break;
                }
            }
        }
        self.mempool.extend(deliver);
        self.mempool.extend(delay);
        self.seal(receipts);
    }

    /// One already-produced block: its landed transactions in log order,
    /// no scheduling and no cap (both happened when it was produced).
    pub fn run_landed(&mut self, txs: Vec<PendingTx<S::Msg>>) {
        self.tick();
        let receipts = txs
            .into_iter()
            .filter_map(|tx| self.execute(tx, |_| true))
            .collect();
        self.seal(receipts);
    }

    fn tick(&mut self) {
        self.round += 1;
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        let mut env = ExecEnv::new(
            &mut self.ledger,
            &mut meter,
            &self.schedule,
            self.round,
            self.contract_addr,
            &mut events,
        );
        self.contract.on_clock(&mut env, self.round);
        let round = self.round;
        self.events.extend(events.into_iter().map(|e| (round, e)));
    }

    /// Runs `tx` against a whole-state clone taken first. A revert
    /// restores the clone and still yields the (gas-burning) receipt; a
    /// transaction whose gas does not fit the block restores the clone
    /// and yields nothing.
    fn execute(
        &mut self,
        tx: PendingTx<S::Msg>,
        fits: impl FnOnce(Gas) -> bool,
    ) -> Option<Receipt> {
        let before = (self.contract.clone(), self.ledger.clone());
        let mut meter = GasMeter::new();
        meter.charge("intrinsic", self.schedule.intrinsic(&tx.msg.calldata()));
        let label = tx.msg.label();
        let mut events = Vec::new();
        let mut env = ExecEnv::new(
            &mut self.ledger,
            &mut meter,
            &self.schedule,
            self.round,
            self.contract_addr,
            &mut events,
        );
        let result = self.contract.on_message(&mut env, tx.sender, tx.msg);
        let fits = fits(meter.used());
        if result.is_err() || !fits {
            (self.contract, self.ledger) = before;
        }
        if !fits {
            return None;
        }
        let status = match result {
            Ok(()) => {
                let round = self.round;
                self.events.extend(events.into_iter().map(|e| (round, e)));
                TxStatus::Ok
            }
            Err(e) => TxStatus::Reverted(e.to_string()),
        };
        Some(Receipt {
            seq: tx.seq,
            sender: tx.sender,
            label,
            round: self.round,
            gas_used: meter.used(),
            status,
            gas_breakdown: meter.breakdown().to_vec(),
        })
    }

    fn seal(&mut self, receipts: Vec<Receipt>) {
        self.blocks.push(Block {
            round: self.round,
            receipts,
        });
    }
}

/// The first observable on which `chain` and the reference disagree:
/// blocks (receipts), chain events, ledger, contract state, carried
/// mempool — or `None` when the committed state is the same.
pub fn committed_state_diff<S>(chain: &Chain<S>, reference: &RefChain<S>) -> Option<&'static str>
where
    S: StateMachine + Clone + PartialEq,
    S::Event: PartialEq,
{
    [
        ("receipts", chain.blocks() == reference.blocks),
        ("chain events", chain.events() == reference.events),
        ("ledger", chain.ledger == reference.ledger),
        ("contract state", *chain.contract() == reference.contract),
        (
            "carried mempool",
            chain.mempool_len() == reference.mempool.len(),
        ),
    ]
    .into_iter()
    .find_map(|(what, same)| (!same).then_some(what))
}

pub fn assert_same_committed_state<S>(chain: &Chain<S>, reference: &RefChain<S>, tag: &str)
where
    S: StateMachine + Clone + PartialEq,
    S::Event: PartialEq,
{
    if let Some(what) = committed_state_diff(chain, reference) {
        panic!(
            "{tag}: {what} diverged from the reference at {} executor thread(s)",
            chain.exec_threads()
        );
    }
}

/// Production chains (one per executor thread count) and the reference,
/// fed the same genesis and the same submissions.
pub struct ChainSet {
    pub production: Vec<Chain<HitRegistry>>,
    pub reference: RefChain<HitRegistry>,
}

impl ChainSet {
    pub fn submit(&mut self, sender: Address, msg: RegistryMessage) {
        for chain in &mut self.production {
            chain.submit(sender, msg.clone());
        }
        self.reference.submit(sender, msg);
    }

    pub fn mint(&mut self, to: Address, amount: u128) {
        for chain in &mut self.production {
            chain.ledger.mint(to, amount);
        }
        self.reference.ledger.mint(to, amount);
    }

    /// Every production chain holds the reference's committed state.
    pub fn assert_same(&self, tag: &str) {
        for chain in &self.production {
            assert_same_committed_state(chain, &self.reference, tag);
        }
    }
}

/// One requester with a 6-question, 3-worker task and a funded genesis.
pub struct Fixture {
    pub kp: KeyPair,
    pub requester: Address,
    pub golden: GoldenStandards,
    pub gs_key: CommitmentKey,
}

impl Fixture {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            kp: KeyPair::generate(&mut rng),
            requester: Address::from_byte(0xd0),
            golden: GoldenStandards {
                indexes: vec![0, 2, 4],
                answers: vec![1, 0, 1],
            },
            gs_key: CommitmentKey::random(&mut rng),
        }
    }

    fn params(&self) -> PublishParams {
        PublishParams {
            n: 6,
            budget: BUDGET,
            k: 3,
            range: PlaintextRange::binary(),
            theta: 3,
            ek: self.kp.ek,
            comm_gs: Commitment::commit(&self.golden.encode(), &self.gs_key),
            task_digest: [9u8; 32],
        }
    }

    pub fn create_msg(&self) -> RegistryMessage {
        RegistryMessage::Create {
            windows: PhaseWindows {
                commit_timeout: Some(4),
                reveal: 2,
                evaluate: 3,
            },
            params: self.params(),
        }
    }

    /// A funded production chain with `threads` executor (and settlement
    /// verification) threads.
    pub fn chain(
        &self,
        mode: SettlementMode,
        gas_limit: Option<Gas>,
        threads: usize,
    ) -> Chain<HitRegistry> {
        let mut chain = Chain::deploy(
            HitRegistry::new(mode).with_verify_threads(threads),
            REGISTRY_CODE_LEN,
            GasSchedule::istanbul(),
        )
        .with_exec_threads(threads);
        if let Some(limit) = gas_limit {
            chain = chain.with_block_gas_limit(limit);
        }
        chain.ledger.mint(self.requester, BUDGET * 20);
        for w in 1..=40u8 {
            chain.ledger.mint(Address::from_byte(w), 100);
        }
        chain
    }

    /// One production chain per entry of `threads`, plus the reference
    /// over the same funded genesis.
    pub fn chain_set(
        &self,
        mode: SettlementMode,
        gas_limit: Option<Gas>,
        threads: &[usize],
    ) -> ChainSet {
        ChainSet {
            production: threads
                .iter()
                .map(|&t| self.chain(mode, gas_limit, t))
                .collect(),
            reference: RefChain::at_genesis_of(&self.chain(mode, None, 1), gas_limit),
        }
    }
}

/// A two-field counter whose journal forgets `calls` on rollback — the
/// bug class the reference exists to catch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Leaky {
    pub total: u64,
    pub calls: u64,
    undo: Option<u64>,
}

impl Journaled for Leaky {
    fn begin_tx(&mut self) {
        self.undo = Some(self.total);
    }
    fn commit_tx(&mut self) {
        self.undo = None;
    }
    fn rollback_tx(&mut self) {
        self.total = self.undo.take().expect("open transaction");
    }
}

/// `Add(n)` succeeds, `Fail` mutates and then reverts.
#[derive(Clone)]
pub enum LeakyMsg {
    Add(u64),
    Fail,
}

impl ChainMessage for LeakyMsg {
    fn calldata(&self) -> CalldataStats {
        CalldataStats {
            zero: 28,
            nonzero: 8,
        }
    }
    fn label(&self) -> &'static str {
        "call"
    }
}

impl StateMachine for Leaky {
    type Msg = LeakyMsg;
    type Event = u64;
    type Error = String;

    fn on_message(
        &mut self,
        env: &mut ExecEnv<'_, u64>,
        _sender: Address,
        msg: LeakyMsg,
    ) -> Result<(), String> {
        env.gas.charge("sstore", env.schedule.sstore_update);
        self.calls += 1;
        match msg {
            LeakyMsg::Add(n) => {
                self.total += n;
                Ok(())
            }
            LeakyMsg::Fail => Err("deliberate failure".into()),
        }
    }
}
