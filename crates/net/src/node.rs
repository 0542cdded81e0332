//! One simulated node: a block tree with longest-chain fork choice and,
//! on a replica, the state that tree's applied branch replays into.
//!
//! A replica applies blocks through the chain's **captured** path
//! ([`dragoon_chain::replica`]): every applied block leaves one
//! [`BlockUndo`] — the block's writes folded into a single record — on a
//! stack parallel to the applied branch, so switching to a heavier
//! branch is pop-revert / re-apply — bit-exact, touched state only,
//! deadline settlements included. The sequencer's node (node 0,
//! [`Node::sequencer`]) is the exception: it is the sequencer's network
//! presence, not a second execution of its chain. It follows the
//! canonical feed, which wins every fork choice, so it only ever moves
//! its head forward, and it holds the block tree alone — no replayed
//! state, no undo stack, no mempool. The network builds its state as an
//! audit view when asked ([`crate::NetSim::node_chain`]).
//!
//! The block tree holds `Arc<NetBlock>`: a node's entry for a block is
//! the allocation its producer made, whichever message delivered it. A
//! replica owns only what is its own — its state, its undo stack and
//! its mempool of not-yet-applied transactions.

use dragoon_chain::mempool::PendingTx;
use dragoon_chain::replica::{BlockUndo, CaptureStateMachine};
use dragoon_chain::Chain;
use dragoon_trace::{SpanKind, Tracer};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A block identity: a content hash over height, proposer, parent and
/// the transaction list — equal on every node that knows the block.
pub type BlockId = u64;

/// The implicit common ancestor of everything: the deployed genesis
/// state every replica starts from.
pub const GENESIS: BlockId = 0;

/// A gossiped block: enough to replay it (full transactions) and to
/// place it in the tree. Immutable once built, so the network handles it
/// as `Arc<NetBlock>`: every message carrying it and every node's tree
/// entry for it point at the allocation its producer made.
#[derive(Debug)]
pub struct NetBlock<M> {
    /// Content hash (see [`block_id`]).
    pub id: BlockId,
    /// Parent block (or [`GENESIS`]).
    pub parent: BlockId,
    /// Chain height (= the round the block advances its chain to).
    pub height: u64,
    /// Producing node index (`0` = the canonical sequencer).
    pub proposer: usize,
    /// Full transaction list, in execution order.
    pub txs: Vec<PendingTx<M>>,
}

/// Deterministic content hash for block identity (FNV-1a over the
/// header fields and each transaction's seq + sender).
pub fn block_id<M>(height: u64, proposer: usize, parent: BlockId, txs: &[PendingTx<M>]) -> BlockId {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&height.to_le_bytes());
    eat(&(proposer as u64).to_le_bytes());
    eat(&parent.to_le_bytes());
    eat(&(txs.len() as u64).to_le_bytes());
    for tx in txs {
        eat(&tx.seq.to_le_bytes());
        eat(&tx.sender.0);
    }
    // Reserve 0 for genesis.
    h.max(1)
}

/// The invariant node 0 is built on, named where it is relied on (its
/// missing replica state) and where it is checked (every canonical
/// feed).
pub(crate) const SEQUENCER_NEVER_REORGS: &str =
    "invariant `sequencer-never-reorgs` broken: node 0 follows the canonical feed, which is \
     strictly ahead on height and wins every tie, so it keeps no state to reorg";

/// What a replica holds beyond its block tree.
pub(crate) struct Replica<S: CaptureStateMachine> {
    /// The state the applied branch replays into.
    chain: Chain<S>,
    /// Captured undo state, parallel to the applied branch.
    pub(crate) undos: Vec<BlockUndo<S>>,
    /// Gossip mempool: transactions heard but not applied on the
    /// current branch, by canonical sequence number.
    mempool: BTreeMap<u64, Arc<PendingTx<S::Msg>>>,
    /// Sequence numbers applied on the current branch.
    applied_seqs: BTreeSet<u64>,
}

/// One node of the simulated network.
pub(crate) struct Node<S: CaptureStateMachine> {
    /// This node's position in the network (`0` = the sequencer's
    /// node).
    index: usize,
    /// Every block this node knows, by id (shared with the messages that
    /// delivered it and with every other node that knows it).
    blocks: BTreeMap<BlockId, Arc<NetBlock<S::Msg>>>,
    /// Parent → children edges (for completeness cascades).
    children: BTreeMap<BlockId, Vec<BlockId>>,
    /// Blocks whose entire ancestry down to genesis is known — the only
    /// fork-choice candidates (an orphan's branch can't be replayed).
    complete: BTreeSet<BlockId>,
    /// The applied branch, genesis-exclusive: `applied[h-1]` is the
    /// block at height `h`.
    applied: Vec<BlockId>,
    /// The replayed state; `None` on the sequencer's node, which keeps
    /// its block tree only.
    pub(crate) replica: Option<Replica<S>>,
    /// Ticks since the head last moved (fork patience counter).
    pub(crate) head_age: u64,
    /// Tick at which this node's head first matched the canonical tip
    /// and has matched ever since (`None` = currently diverged).
    pub(crate) converged_at: Option<u64>,
}

impl<S: CaptureStateMachine> Node<S> {
    /// Replica `index` (≥ 1): replays its applied branch into `chain`
    /// and follows fork choice wherever it leads, so it stacks one undo
    /// per applied block.
    pub(crate) fn replica(index: usize, chain: Chain<S>) -> Self {
        assert_eq!(chain.round(), 0, "replicas start from genesis");
        Self::with_state(
            index,
            Some(Replica {
                chain,
                undos: Vec::new(),
                mempool: BTreeMap::new(),
                applied_seqs: BTreeSet::new(),
            }),
        )
    }

    /// The sequencer's node (node 0): only ever extends the canonical
    /// branch the market already executed, so it holds the block tree
    /// and its head alone.
    pub(crate) fn sequencer() -> Self {
        Self::with_state(0, None)
    }

    fn with_state(index: usize, replica: Option<Replica<S>>) -> Self {
        Self {
            index,
            blocks: BTreeMap::new(),
            children: BTreeMap::new(),
            complete: BTreeSet::new(),
            applied: Vec::new(),
            replica,
            head_age: 0,
            converged_at: None,
        }
    }

    /// The replayed state (`None` on the sequencer's node).
    pub(crate) fn chain(&self) -> Option<&Chain<S>> {
        self.replica.as_ref().map(|r| &r.chain)
    }

    /// The applied branch's blocks, oldest first.
    pub(crate) fn applied_blocks(&self) -> impl Iterator<Item = &NetBlock<S::Msg>> {
        self.applied.iter().map(|id| &*self.blocks[id])
    }

    /// The applied head: `(block id, height)`.
    pub(crate) fn head(&self) -> (BlockId, u64) {
        match self.applied.last() {
            Some(id) => (*id, self.applied.len() as u64),
            None => (GENESIS, 0),
        }
    }

    /// Whether this node knows the block.
    pub(crate) fn knows(&self, id: BlockId) -> bool {
        id == GENESIS || self.blocks.contains_key(&id)
    }

    /// A known block by id, for re-gossip.
    pub(crate) fn block(&self, id: BlockId) -> Option<Arc<NetBlock<S::Msg>>> {
        self.blocks.get(&id).cloned()
    }

    /// Records a gossiped transaction in a replica's mempool (skipping
    /// ones already applied on the current branch).
    pub(crate) fn observe_tx(&mut self, tx: Arc<PendingTx<S::Msg>>) {
        let Some(replica) = &mut self.replica else {
            return;
        };
        if !replica.applied_seqs.contains(&tx.seq) {
            replica.mempool.entry(tx.seq).or_insert(tx);
        }
    }

    /// Inserts a block into the tree. Returns `false` for a duplicate.
    /// The caller runs [`Node::try_advance`] afterwards, and — if the
    /// parent is unknown — requests it from the sender.
    pub(crate) fn insert_block(&mut self, block: Arc<NetBlock<S::Msg>>) -> bool {
        let id = block.id;
        if self.knows(id) {
            return false;
        }
        let parent = block.parent;
        self.children.entry(parent).or_default().push(id);
        self.blocks.insert(id, block);
        // Completeness cascade: a block whose parent's ancestry is fully
        // known completes, and may complete buffered orphan descendants.
        if parent == GENESIS || self.complete.contains(&parent) {
            let mut queue = VecDeque::from([id]);
            while let Some(b) = queue.pop_front() {
                if self.complete.insert(b) {
                    if let Some(kids) = self.children.get(&b) {
                        queue.extend(kids.iter().copied());
                    }
                }
            }
        }
        true
    }

    /// The first unknown ancestor above `id`, if its branch is still
    /// incomplete — the anti-entropy back-fill target.
    pub(crate) fn missing_ancestor(&self, id: BlockId) -> Option<BlockId> {
        let mut at = id;
        loop {
            match self.blocks.get(&at) {
                None => return if at == GENESIS { None } else { Some(at) },
                Some(b) => {
                    if self.complete.contains(&at) {
                        return None;
                    }
                    at = b.parent;
                }
            }
        }
    }

    /// Longest-chain fork choice over complete blocks: greatest height;
    /// ties prefer the canonical proposer's block, then the smaller id
    /// (both deterministic and identical on every node).
    fn best_head(&self) -> BlockId {
        type ForkKey = (u64, bool, std::cmp::Reverse<BlockId>);
        let mut best: Option<(ForkKey, BlockId)> = None;
        for (&id, b) in &self.blocks {
            if !self.complete.contains(&id) {
                continue;
            }
            let key = (b.height, b.proposer == 0, std::cmp::Reverse(id));
            if best.as_ref().is_none_or(|(k, _)| key > *k) {
                best = Some((key, id));
            }
        }
        best.map_or(GENESIS, |(_, id)| id)
    }

    /// Re-runs fork choice and, if a better branch exists, switches to
    /// it: pops the divergent suffix (reverting a replica's state through
    /// its captured undo stack, returning transactions to its mempool)
    /// and applies the winning branch's blocks. Returns the number of
    /// blocks popped (0 for a plain extension or no change). Each block
    /// a replica applies is one wall span in `tracer` (no deterministic
    /// event: when a block reaches a node is already told by `gossip`,
    /// `fork` and `reorg`); the sequencer's node only moves its head.
    pub(crate) fn try_advance(&mut self, tracer: &Tracer) -> usize {
        let target = self.best_head();
        if target == self.head().0 {
            return 0;
        }
        // The target branch, genesis-exclusive, oldest first.
        let mut branch: Vec<BlockId> = Vec::new();
        let mut at = target;
        while at != GENESIS {
            branch.push(at);
            at = self.blocks[&at].parent;
        }
        branch.reverse();
        // Common prefix with the applied branch.
        let mut common = 0;
        while common < self.applied.len()
            && common < branch.len()
            && self.applied[common] == branch[common]
        {
            common += 1;
        }
        let popped = self.applied.len() - common;
        for _ in 0..popped {
            let replica = self.replica.as_mut().expect(SEQUENCER_NEVER_REORGS);
            let undo = replica.undos.pop().expect("undo per applied block");
            replica.chain.revert_last_block(undo);
            let id = self.applied.pop().expect("popped block exists");
            for tx in &self.blocks[&id].txs {
                replica.applied_seqs.remove(&tx.seq);
                replica.mempool.insert(tx.seq, Arc::new(tx.clone()));
            }
        }
        for &id in &branch[common..] {
            if let Some(replica) = &mut self.replica {
                let block = &self.blocks[&id];
                debug_assert_eq!(block.height, replica.chain.round() + 1);
                let txs = block.txs.clone();
                let mut sp = tracer.span(SpanKind::Apply, block.height);
                sp.arg("node", self.index as u64);
                sp.arg("height", block.height);
                sp.arg("txs", txs.len() as u64);
                for tx in &txs {
                    replica.applied_seqs.insert(tx.seq);
                    replica.mempool.remove(&tx.seq);
                }
                let undo = replica.chain.apply_block_captured(txs);
                replica.undos.push(undo);
            }
            self.applied.push(id);
        }
        self.head_age = 0;
        popped
    }

    /// Proposes a block on the current head from the gossip mempool —
    /// the fork source: a replica only does this when its head has been
    /// stale past the patience window, so the block competes with
    /// canonical blocks it has not seen. The block is inserted and
    /// applied locally; the caller gossips it.
    pub(crate) fn produce(&mut self, tracer: &Tracer) -> Arc<NetBlock<S::Msg>> {
        let proposer = self.index;
        let (parent, height) = self.head();
        let replica = self.replica.as_ref().expect("only replicas propose");
        let txs: Vec<PendingTx<S::Msg>> =
            replica.mempool.values().map(|tx| (**tx).clone()).collect();
        let block = Arc::new(NetBlock {
            id: block_id(height + 1, proposer, parent, &txs),
            parent,
            height: height + 1,
            proposer,
            txs,
        });
        self.insert_block(Arc::clone(&block));
        let popped = self.try_advance(tracer);
        debug_assert_eq!(popped, 0, "own production extends the head");
        block
    }
}
