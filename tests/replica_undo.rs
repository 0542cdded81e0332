//! The replica undo path, tested directly.
//!
//! `Chain::apply_block_captured` / `Chain::revert_last_block` are what
//! `dragoon-net` reorgs stand on: a replica folds every bracket a block
//! commits into one per-block undo record and must be able to unwind the
//! block bit-exactly. The contract pinned here: **apply `k` blocks
//! captured, revert `j`, and the chain equals one that only ever applied
//! `k − j`; re-apply them and it equals one that applied `k`** —
//! contract state, ledger, block receipts, chain events and round,
//! against the naïve reference executor in `tests/support` (which has no
//! undo at all: it is rebuilt from genesis for every comparison).
//!
//! The hand-written lifecycle covers every way a block can write one
//! piece of state more than once; seeded soups add noise on top of it;
//! and a state machine with a deliberately wrong fold shows the
//! comparison fails when the per-block record keeps the wrong snapshot.

mod support;

use dragoon_chain::replica::CaptureStateMachine;
use dragoon_chain::{
    Chain, ExecEnv, GasMeter, GasSchedule, Journaled, LedgerCapture, PendingTx, StateMachine,
    TxStatus,
};
use dragoon_contract::{
    HitMessage, HitRegistry, RegistryCapture, RegistryMessage, RejectReason, Settlement,
    SettlementMode,
};
use dragoon_core::poqoea;
use dragoon_core::task::Answer;
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_ledger::Address;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{committed_state_diff, Fixture, LeakyMsg, RefChain};

/// The transactions of each block, in execution order.
type Blocks<M> = Vec<Vec<PendingTx<M>>>;

/// Gives every `(sender, message)` its chain-wide sequence number.
fn number<M>(blocks: Vec<Vec<(Address, M)>>) -> Blocks<M> {
    let mut seq = 0;
    blocks
        .into_iter()
        .map(|block| {
            block
                .into_iter()
                .map(|(sender, msg)| {
                    seq += 1;
                    PendingTx {
                        sender,
                        msg,
                        seq: seq - 1,
                    }
                })
                .collect()
        })
        .collect()
}

/// The first observable on which `chain` differs from a reference that
/// applied exactly `blocks[..n]` from `genesis`.
fn diff_from_prefix<S>(
    chain: &Chain<S>,
    genesis: &Chain<S>,
    blocks: &Blocks<S::Msg>,
    n: usize,
) -> Option<&'static str>
where
    S: StateMachine + Clone + PartialEq,
    S::Event: PartialEq,
{
    let mut reference = RefChain::at_genesis_of(genesis, None);
    for block in &blocks[..n] {
        reference.run_landed(block.clone());
    }
    if chain.round() != n as u64 {
        return Some("round");
    }
    committed_state_diff(chain, &reference)
}

/// Applies `blocks[..k]` captured, reverts the newest `j`, re-applies
/// them. `Err` names the step and the first observable that diverged
/// from the reference.
fn check_undo<S>(
    genesis: impl Fn() -> Chain<S>,
    blocks: &Blocks<S::Msg>,
    k: usize,
    j: usize,
) -> Result<(), String>
where
    S: CaptureStateMachine + Clone + PartialEq,
    S::Event: PartialEq,
{
    let mut chain = genesis();
    let mut undos = Vec::new();
    for block in &blocks[..k] {
        undos.push(chain.apply_block_captured(block.clone()));
    }
    let step = |what: &str, chain: &Chain<S>, n: usize| match diff_from_prefix(
        chain,
        &genesis(),
        blocks,
        n,
    ) {
        None => Ok(()),
        Some(diff) => Err(format!("k={k} j={j}, {what}: {diff} diverged")),
    };
    step("applied", &chain, k)?;
    for reverted in blocks[k - j..k].iter().rev() {
        let undo = undos.pop().expect("an undo per applied block");
        let block = chain.revert_last_block(undo);
        assert_eq!(block.receipts.len(), reverted.len());
    }
    step("reverted", &chain, k - j)?;
    for block in &blocks[k - j..k] {
        chain.apply_block_captured(block.clone());
    }
    step("re-applied", &chain, k)
}

fn hit(id: u64, msg: HitMessage) -> RegistryMessage {
    RegistryMessage::Hit { id, msg }
}

fn worker(i: u8) -> Address {
    Address::from_byte(i)
}

/// Two HITs on a batched-settlement registry, block by block (the
/// fixture's windows: commit timeout 4, reveal 2, evaluate 3):
///
/// 1. `Create #0`, a commit to `#0`, `Create #1` — an instance created
///    and mutated in the same block;
/// 2. two more commits close `#0`'s commit phase, the overbooked fourth
///    commit reverts, and the first worker reveals — a reverted
///    transaction between successful ones on one instance, which the
///    block writes three times; `#1` gets its only commit;
/// 3. the other two reveals;
/// 4. empty;
/// 5. empty — the clock tick closes `#0`'s reveal window;
/// 6. golden opening and a PoQoEA rejection of worker 1, queued;
/// 7. empty — the tick applies the batched verdict and cancels the
///    unfilled `#1` past its commit timeout;
/// 8. – 9. empty;
/// 10. empty — the tick settles `#0` by deadline;
/// 11. empty.
fn lifecycle(fx: &Fixture, rng: &mut StdRng) -> Vec<Vec<(Address, RegistryMessage)>> {
    let bad = Answer(vec![0, 0, 1, 0, 0, 0]);
    let good = Answer(vec![1, 0, 0, 0, 1, 0]);
    let opened: Vec<_> = [bad, good.clone(), good]
        .iter()
        .map(|answer| {
            let cts = answer.encrypt(&fx.kp.ek, rng);
            let key = CommitmentKey::random(rng);
            (Commitment::commit(&cts.encode(), &key), cts, key)
        })
        .collect();
    let commit = |id, w: u8, commitment| (worker(w), hit(id, HitMessage::Commit { commitment }));
    let reveal = |w: u8| {
        let (_, cts, key) = &opened[w as usize - 1];
        let msg = HitMessage::Reveal {
            ciphertexts: cts.clone(),
            key: *key,
        };
        (worker(w), hit(0, msg))
    };
    let filler = Commitment::commit(b"filler", &CommitmentKey([7u8; 32]));
    let (chi, proof) = poqoea::prove_quality(
        &fx.kp.dk,
        &opened[0].1,
        &fx.golden,
        &PlaintextRange::binary(),
        rng,
    );
    assert!(chi < 3, "worker 1's answers must be rejectable");
    let golden = HitMessage::Golden {
        golden: fx.golden.clone(),
        key: fx.gs_key,
    };
    let evaluate = HitMessage::Evaluate {
        worker: worker(1),
        chi,
        proof,
    };
    let mut blocks = vec![
        vec![
            (fx.requester, fx.create_msg()),
            commit(0, 1, opened[0].0),
            (fx.requester, fx.create_msg()),
        ],
        vec![
            commit(0, 2, opened[1].0),
            commit(0, 3, opened[2].0),
            commit(0, 4, filler),
            reveal(1),
            commit(1, 5, filler),
        ],
        vec![reveal(2), reveal(3)],
        vec![],
        vec![],
        vec![
            (fx.requester, hit(0, golden)),
            (fx.requester, hit(0, evaluate)),
        ],
    ];
    blocks.resize_with(11, Vec::new);
    blocks
}

fn registry_genesis(fx: &Fixture) -> Chain<HitRegistry> {
    fx.chain(SettlementMode::Batched, None, 1)
}

/// Every `(k, j)` over the hand-written lifecycle — revert down to
/// genesis included — after checking that the script really does what
/// its blocks are there for.
#[test]
fn every_revert_depth_of_the_lifecycle_matches_the_reference() {
    let fx = Fixture::new(0x0d0);
    let blocks = number(lifecycle(&fx, &mut StdRng::seed_from_u64(0x0d0 ^ 1)));
    // The script's own claims, on a plain captured run.
    let mut chain = registry_genesis(&fx);
    for block in &blocks {
        chain.apply_block_captured(block.clone());
    }
    let overbooked = &chain.blocks()[1].receipts[2];
    assert!(matches!(overbooked.status, TxStatus::Reverted(_)));
    assert!(chain.blocks()[1]
        .receipts
        .iter()
        .enumerate()
        .all(|(i, r)| i == 2 || r.status == TxStatus::Ok));
    assert!(chain.blocks()[5]
        .receipts
        .iter()
        .all(|r| r.status == TxStatus::Ok));
    let registry = chain.contract();
    assert!(
        registry.batch_stats().batches > 0,
        "a tick applied a batched verdict"
    );
    let filled = registry.hit(0).expect("created");
    assert!(filled.is_settled(), "#0 settled by deadline");
    assert!(matches!(
        filled.settlement(&worker(1)),
        Some(Settlement::Rejected(RejectReason::LowQuality { .. }))
    ));
    for w in [2, 3] {
        assert_eq!(filled.settlement(&worker(w)), Some(&Settlement::Paid));
    }
    assert!(
        registry.hit(1).expect("created").is_settled(),
        "#1 cancelled"
    );

    for k in 0..=blocks.len() {
        for j in 0..=k {
            check_undo(|| registry_genesis(&fx), &blocks, k, j).unwrap();
        }
    }
}

/// The fold is lawful whatever the bracket boundaries: every bracket of
/// the whole lifecycle — eleven clock ticks (two of which sweep a settled
/// instance out of the live set, one of which records batch counters)
/// and every successful transaction — absorbed into **one** capture,
/// reverted once, lands on genesis.
#[test]
fn one_fold_over_the_whole_history_reverts_to_genesis() {
    let fx = Fixture::new(0x0d0);
    let blocks = number(lifecycle(&fx, &mut StdRng::seed_from_u64(0x0d0 ^ 1)));
    let genesis = registry_genesis(&fx);
    let (mut registry, mut ledger) = (genesis.contract().clone(), genesis.ledger.clone());
    let mut folded: Option<(LedgerCapture, RegistryCapture)> = None;
    for (block, round) in blocks.iter().zip(1..) {
        // `None` is the block's clock tick.
        for tx in std::iter::once(None).chain(block.iter().map(Some)) {
            registry.begin_tx();
            ledger.begin_tx();
            let mut meter = GasMeter::new();
            let mut events = Vec::new();
            let mut env = ExecEnv::new(
                &mut ledger,
                &mut meter,
                genesis.schedule(),
                round,
                genesis.contract_address(),
                &mut events,
            );
            let committed = match tx {
                None => {
                    registry.on_clock(&mut env, round);
                    true
                }
                Some(tx) => registry
                    .on_message(&mut env, tx.sender, tx.msg.clone())
                    .is_ok(),
            };
            if !committed {
                registry.rollback_tx();
                ledger.rollback_tx();
                continue;
            }
            let later = (ledger.commit_tx_captured(), registry.commit_tx_captured());
            match &mut folded {
                None => folded = Some(later),
                Some((ledger_fold, registry_fold)) => {
                    ledger_fold.absorb(later.0);
                    registry_fold.absorb(later.1);
                }
            }
        }
    }
    assert_eq!(registry.settled_count(), 2, "both instances settled");
    assert!(registry.batch_stats().batches > 0);
    let (ledger_fold, registry_fold) = folded.expect("the history committed something");
    registry.revert_capture(registry_fold);
    ledger.revert_capture(ledger_fold);
    assert!(registry == *genesis.contract(), "registry back at genesis");
    assert!(ledger == genesis.ledger, "ledger back at genesis");
}

/// One messy transaction: unfunded and funded creates, commits that may
/// duplicate or land on a closed phase, premature finalizes and cancels,
/// misrouted messages, a golden opening at the wrong time.
fn noise(fx: &Fixture, rng: &mut StdRng) -> (Address, RegistryMessage) {
    let id = rng.gen_range(0..4u64);
    match rng.gen_range(0..7u32) {
        0 => (fx.requester, fx.create_msg()),
        1 => (Address::from_byte(0x99), fx.create_msg()),
        2 | 3 => {
            let tag = rng.gen_range(0..4u32);
            let commitment = Commitment::commit(&tag.to_le_bytes(), &CommitmentKey([7u8; 32]));
            let w = worker(rng.gen_range(1..9u32) as u8);
            (w, hit(id, HitMessage::Commit { commitment }))
        }
        4 => (fx.requester, hit(id, HitMessage::Finalize)),
        5 => (fx.requester, hit(id, HitMessage::Cancel)),
        _ => {
            let golden = HitMessage::Golden {
                golden: fx.golden.clone(),
                key: fx.gs_key,
            };
            (fx.requester, hit(rng.gen_range(0..6u64), golden))
        }
    }
}

/// Seeded soups: the lifecycle with noise transactions spliced into
/// every block at random positions, so blocks mix reverts, extra
/// instances, stolen commit slots and early cancels with the scripted
/// writes. Whatever the noise does to the script, undo must be exact.
#[test]
fn seeded_soups_revert_and_reapply_exactly() {
    for seed in [3u64, 0xbeef, 0x5009] {
        let fx = Fixture::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
        let mut blocks = lifecycle(&fx, &mut rng);
        for block in &mut blocks {
            for _ in 0..rng.gen_range(0..5u32) {
                let at = rng.gen_range(0..=block.len());
                block.insert(at, noise(&fx, &mut rng));
            }
        }
        let blocks = number(blocks);
        let n = blocks.len();
        for (k, j) in [
            (n, 1),
            (n, n / 2),
            (n, n),
            (n / 2, 1),
            (n / 2, n / 2),
            (3, 2),
        ] {
            check_undo(|| registry_genesis(&fx), &blocks, k, j)
                .unwrap_or_else(|diff| panic!("seed {seed:#x}: {diff}"));
        }
        // The soup must actually have mixed reverts into the blocks.
        let mut chain = registry_genesis(&fx);
        for block in &blocks {
            chain.apply_block_captured(block.clone());
        }
        let reverted = chain
            .receipts()
            .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
            .count();
        assert!(reverted > 5, "seed {seed:#x}: only {reverted} reverts");
    }
}

/// A running total whose capture is the total before the bracket, folded
/// per block — correctly (the block keeps its *first* capture) or, with
/// `KEEP_LAST`, wrongly.
#[derive(Clone, Debug, Default, PartialEq)]
struct Tally<const KEEP_LAST: bool> {
    total: u64,
    undo: Option<u64>,
}

impl<const KEEP_LAST: bool> Journaled for Tally<KEEP_LAST> {
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

impl<const KEEP_LAST: bool> StateMachine for Tally<KEEP_LAST> {
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
        match msg {
            LeakyMsg::Add(n) => {
                self.total += n;
                Ok(())
            }
            LeakyMsg::Fail => {
                self.total += 1;
                Err("deliberate failure".into())
            }
        }
    }
}

impl<const KEEP_LAST: bool> CaptureStateMachine for Tally<KEEP_LAST> {
    type Capture = u64;

    fn commit_tx_captured(&mut self) -> u64 {
        self.undo.take().expect("open transaction")
    }
    fn revert_capture(&mut self, capture: u64) {
        self.total = capture;
    }
    fn absorb(block: &mut u64, later: u64) {
        if KEEP_LAST {
            *block = later;
        }
    }
}

/// The comparison has teeth: a fold that keeps the block's *last*
/// capture agrees with the reference while each block commits a single
/// writing transaction (its capture is the state the idle clock tick
/// left, which is the state before the block), and is caught as soon as
/// two transactions of one block write the same state — the revert
/// lands on the state between them.
#[test]
fn a_fold_that_keeps_the_last_snapshot_is_caught() {
    fn run<const KEEP_LAST: bool>(blocks: Vec<Vec<LeakyMsg>>) -> Result<(), String> {
        let sender = Address::from_byte(1);
        let blocks = number(
            blocks
                .into_iter()
                .map(|block| block.into_iter().map(|msg| (sender, msg)).collect())
                .collect(),
        );
        let genesis =
            || Chain::deploy(Tally::<KEEP_LAST>::default(), 1000, GasSchedule::istanbul());
        check_undo(genesis, &blocks, blocks.len(), blocks.len())
    }
    let one_write = || {
        vec![
            vec![LeakyMsg::Add(1)],
            vec![LeakyMsg::Fail, LeakyMsg::Add(2)],
        ]
    };
    let two_writes = || vec![vec![LeakyMsg::Add(1), LeakyMsg::Fail, LeakyMsg::Add(2)]];
    assert_eq!(run::<false>(one_write()), Ok(()));
    assert_eq!(run::<false>(two_writes()), Ok(()));
    assert_eq!(run::<true>(one_write()), Ok(()));
    assert_eq!(
        run::<true>(two_writes()),
        Err("k=1 j=1, reverted: contract state diverged".into()),
    );
}
