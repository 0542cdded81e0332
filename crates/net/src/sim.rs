//! The discrete-event network engine.
//!
//! One [`NetSim`] owns N [`Node`]s and a single virtual clock. All
//! communication is message passing through a deterministic event
//! queue: every send draws its fate (relay decision, loss, delay,
//! duplication) from one seeded RNG in a fixed iteration order, so a
//! whole run — forks, reorgs, convergence ticks — is bit-reproducible
//! from the seed.
//!
//! ## Topology and roles
//!
//! Node 0 is the **sequencer's network presence**: the canonical chain
//! (driven by the market engine) hands each produced block's
//! transaction list to [`NetSim::broadcast_block`]; node 0 adds it to
//! its block tree, moves its head onto it and gossips it to every peer.
//! It does not execute the block again — the market already did — so it
//! holds no state during the run; [`NetSim::node_chain`] builds its
//! state as an audit view on request. Replicas (nodes 1..N) validate by
//! re-execution and follow longest-chain fork choice. A replica whose
//! head goes stale past the patience window proposes its own block
//! from its gossip mempool — the genuine fork source under partitions
//! and adversarial relays — which the canonical branch later reorgs
//! away (canonical production is strictly faster, so it always wins on
//! height; at equal height the canonical proposer wins the tie).
//!
//! ## One copy of every block
//!
//! A block is built once — by [`NetSim::broadcast_block`] for the
//! canonical feed, by a stalled replica's fork production otherwise —
//! and from then on travels as `Arc<NetBlock>`: the fan-out to every
//! peer, a duplicated delivery, a reply to a `BlockRequest` and each
//! node's tree entry all clone the pointer. A gossiped transaction
//! travels the same way, as `Arc<PendingTx>`, into every replica's
//! mempool. A relay policy still sees the whole message by reference.
//!
//! ## Anti-entropy
//!
//! Every tick each node announces its head to every peer; a receiver
//! that does not know the announced block requests it (and, for
//! orphans, walks parent requests) from the announcer. Combined with
//! scheduled partition heals this gives eventual delivery under
//! arbitrary drop rates.

use crate::config::NetConfig;
use crate::node::{block_id, BlockId, NetBlock, Node, GENESIS, SEQUENCER_NEVER_REORGS};
use crate::relay::{build_relay, RelayDecision, RelayPolicy};
use crate::report::NetReport;
use dragoon_chain::mempool::PendingTx;
use dragoon_chain::replica::CaptureStateMachine;
use dragoon_chain::Chain;
use dragoon_trace::{SpanKind, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Tick budget for the final convergence drain: after the last
/// canonical block the network keeps ticking — partitions heal by
/// schedule, anti-entropy back-fills — until every node converges or
/// the budget runs out.
const DRAIN_TICKS: u64 = 1_000;

/// A gossip-layer message.
#[derive(Clone, Debug)]
pub enum NetMsg<M> {
    /// Transaction propagation (sequencer → replica mempools): a pointer
    /// to the submission, so fan-out, duplicate delivery and every
    /// replica's mempool entry copy no transaction.
    Tx(Arc<PendingTx<M>>),
    /// Block propagation: a pointer to the producer's block, so fan-out,
    /// duplicate delivery and anti-entropy replies copy no transactions.
    Block(Arc<NetBlock<M>>),
    /// Anti-entropy head announcement.
    HeadAnnounce {
        /// The announcer's applied head.
        head: BlockId,
    },
    /// Request for a missing block (orphan back-fill).
    BlockRequest {
        /// The wanted block id.
        id: BlockId,
    },
}

/// One queued delivery.
struct Delivery<M> {
    to: usize,
    from: usize,
    msg: NetMsg<M>,
}

/// The N-node network simulation (see module docs).
pub struct NetSim<S: CaptureStateMachine> {
    cfg: NetConfig,
    nodes: Vec<Node<S>>,
    /// The event queue, totally ordered by (due tick, enqueue seq).
    queue: BTreeMap<(u64, u64), Delivery<S::Msg>>,
    next_event: u64,
    tick: u64,
    rng: StdRng,
    relay: Box<dyn RelayPolicy<S::Msg>>,
    /// The canonical branch tip (node 0's feed) and its height.
    canonical_tip: BlockId,
    canonical_height: u64,
    /// Fork production gate: on while the market is live, off during
    /// the final drain (proposers stop once demand stops).
    producing: bool,
    report: NetReport,
    /// Node 0's genesis chain, until [`NetSim::node_chain`] first reads
    /// node 0 and replays it into `sequencer_view`.
    sequencer_genesis: Mutex<Option<Chain<S>>>,
    /// Node 0's state as an audit view, built once on request.
    sequencer_view: OnceLock<Chain<S>>,
    /// The run's trace handle (off by default).
    pub(crate) tracer: Tracer,
}

impl<S: CaptureStateMachine> NetSim<S> {
    /// Builds the network: `nodes` nodes whose state starts from
    /// identical genesis state (`genesis` is called once per node and
    /// must be deterministic; node 0's chain is kept for its audit
    /// view), links seeded from `seed`.
    pub fn new(cfg: NetConfig, seed: u64, genesis: impl Fn() -> Chain<S>) -> Self {
        assert!(cfg.nodes >= 1, "a network needs at least the sequencer");
        let sequencer_genesis = genesis();
        assert_eq!(sequencer_genesis.round(), 0, "node 0 starts from genesis");
        let nodes: Vec<Node<S>> = std::iter::once(Node::sequencer())
            .chain((1..cfg.nodes).map(|i| Node::replica(i, genesis())))
            .collect();
        let relay = build_relay(&cfg.relay);
        let report = NetReport {
            nodes: cfg.nodes,
            partition_windows: cfg.partitions.len(),
            convergence_tick: vec![-1; cfg.nodes],
            ..NetReport::default()
        };
        Self {
            cfg,
            nodes,
            queue: BTreeMap::new(),
            next_event: 0,
            tick: 0,
            rng: StdRng::seed_from_u64(seed),
            relay,
            canonical_tip: GENESIS,
            canonical_height: 0,
            producing: true,
            report,
            sequencer_genesis: Mutex::new(Some(sequencer_genesis)),
            sequencer_view: OnceLock::new(),
            tracer: Tracer::default(),
        }
    }

    /// Records `gossip` / `fork` / `reorg` into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the relay policy (for adversaries beyond the
    /// [`crate::RelaySpec`] built-ins).
    pub fn with_relay(mut self, relay: Box<dyn RelayPolicy<S::Msg>>) -> Self {
        self.relay = relay;
        self
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node `i`'s state, for audits. A replica's is the chain it
    /// replayed. Node 0 keeps none during the run, so its state is an
    /// audit view: node 0's genesis chain replayed along its applied
    /// branch the first time it is asked for — outside the run, with
    /// nothing recorded into the run's trace — and kept from then on.
    /// The view does not follow later blocks, so read it once the feed
    /// is done.
    pub fn node_chain(&self, i: usize) -> &Chain<S> {
        match self.nodes[i].chain() {
            Some(chain) => chain,
            None => self.sequencer_view.get_or_init(|| {
                let mut chain = self
                    .sequencer_genesis
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("node 0's view is built once, from its genesis");
                chain.contract_mut().detach_trace();
                for block in self.nodes[i].applied_blocks() {
                    chain.apply_block_captured(block.txs.clone());
                }
                chain
            }),
        }
    }

    /// Node `i`'s applied head `(block id, height)`.
    pub fn node_head(&self, i: usize) -> (BlockId, u64) {
        self.nodes[i].head()
    }

    /// The canonical tip `(block id, height)` as fed by the sequencer.
    pub fn canonical_head(&self) -> (BlockId, u64) {
        (self.canonical_tip, self.canonical_height)
    }

    /// Announces one canonical-chain submission to every replica's
    /// mempool (transaction propagation; subject to link faults). The
    /// sequencer's node keeps no mempool: it never proposes.
    pub fn gossip_tx(&mut self, tx: PendingTx<S::Msg>) {
        let tx = Arc::new(tx);
        for to in 1..self.nodes.len() {
            self.send(0, to, NetMsg::Tx(Arc::clone(&tx)));
        }
    }

    /// Feeds one produced canonical block (its executed transaction
    /// list, in receipt order): node 0 adds it to its tree and moves its
    /// head onto it without executing it again, gossips it to every
    /// peer, and the network advances one tick.
    pub fn broadcast_block(&mut self, txs: Vec<PendingTx<S::Msg>>) {
        debug_assert!(
            self.sequencer_view.get().is_none(),
            "node 0's audit view was read before the feed was done"
        );
        let mut sp = self.tracer.span(SpanKind::Gossip, self.tick);
        let sent_before = self.report.messages_sent;
        let height = self.canonical_height + 1;
        let block = Arc::new(NetBlock {
            id: block_id(height, 0, self.canonical_tip, &txs),
            parent: self.canonical_tip,
            height,
            proposer: 0,
            txs,
        });
        self.canonical_tip = block.id;
        self.canonical_height = height;
        for to in 1..self.nodes.len() {
            self.send(0, to, NetMsg::Block(Arc::clone(&block)));
        }
        let sent = self.report.messages_sent - sent_before;
        sp.arg("height", height);
        sp.arg("sent", sent);
        // The gossip layer is seeded and single-threaded, so the send
        // count is deterministic and safe for the golden stream.
        self.tracer.event(
            SpanKind::Gossip,
            self.tick,
            &[("height", height), ("sent", sent)],
        );
        self.nodes[0].insert_block(block);
        let popped = self.nodes[0].try_advance(&self.tracer);
        assert_eq!(popped, 0, "{SEQUENCER_NEVER_REORGS}");
        self.advance_tick();
    }

    /// Runs the final convergence drain: fork production stops, the
    /// clock keeps ticking (delivering queued messages, healing
    /// partitions on schedule, anti-entropy back-filling) until every
    /// node's head is the canonical tip or [`DRAIN_TICKS`] run out.
    /// Returns whether the network converged.
    pub fn drain(&mut self) -> bool {
        self.producing = false;
        let start = self.tick;
        while !self.all_converged() && self.tick - start < DRAIN_TICKS {
            self.advance_tick();
        }
        self.report.drain_ticks = self.tick - start;
        self.all_converged()
    }

    /// The network outcome so far (final after [`NetSim::drain`]).
    pub fn report(&self) -> NetReport {
        let mut report = self.report.clone();
        report.ticks = self.tick;
        report.converged = self.all_converged();
        for (i, node) in self.nodes.iter().enumerate() {
            report.convergence_tick[i] = node.converged_at.map_or(-1, |t| t as i64);
        }
        report
    }

    fn all_converged(&self) -> bool {
        self.nodes.iter().all(|n| n.head().0 == self.canonical_tip)
    }

    /// One virtual clock tick: deliver everything due, run
    /// anti-entropy, let a stalled replica propose, update
    /// staleness/convergence bookkeeping.
    fn advance_tick(&mut self) {
        self.tick += 1;
        let heads: Vec<BlockId> = self.nodes.iter().map(|n| n.head().0).collect();
        self.deliver_due();
        self.anti_entropy();
        if self.producing {
            self.fork_production();
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.head().0 == heads[i] {
                node.head_age += 1;
            } else {
                node.head_age = 0;
            }
            if node.head().0 == self.canonical_tip {
                if node.converged_at.is_none() {
                    node.converged_at = Some(self.tick);
                }
            } else {
                node.converged_at = None;
            }
        }
    }

    /// Processes every queued delivery due at or before the current
    /// tick, in deterministic (due, enqueue-seq) order. Processing may
    /// enqueue new same-tick deliveries (zero-delay links); the loop
    /// drains those too.
    fn deliver_due(&mut self) {
        while let Some((&key, _)) = self.queue.first_key_value() {
            if key.0 > self.tick {
                break;
            }
            let delivery = self.queue.remove(&key).expect("peeked entry exists");
            self.process(delivery);
        }
    }

    fn process(&mut self, delivery: Delivery<S::Msg>) {
        let Delivery { to, from, msg } = delivery;
        match msg {
            NetMsg::Tx(tx) => self.nodes[to].observe_tx(tx),
            NetMsg::Block(block) => {
                let id = block.id;
                if self.nodes[to].insert_block(block) {
                    if let Some(missing) = self.nodes[to].missing_ancestor(id) {
                        self.send(to, from, NetMsg::BlockRequest { id: missing });
                    }
                    let popped = self.nodes[to].try_advance(&self.tracer);
                    if popped > 0 {
                        self.report.reorgs += 1;
                        self.report.max_reorg_depth =
                            self.report.max_reorg_depth.max(popped as u64);
                        self.tracer.event(
                            SpanKind::Reorg,
                            self.tick,
                            &[("node", to as u64), ("depth", popped as u64)],
                        );
                    }
                }
            }
            NetMsg::HeadAnnounce { head } => {
                if !self.nodes[to].knows(head) {
                    self.send(to, from, NetMsg::BlockRequest { id: head });
                } else if let Some(missing) = self.nodes[to].missing_ancestor(head) {
                    self.send(to, from, NetMsg::BlockRequest { id: missing });
                }
            }
            NetMsg::BlockRequest { id } => {
                if let Some(block) = self.nodes[to].block(id) {
                    self.send(to, from, NetMsg::Block(block));
                }
            }
        }
    }

    /// Every node announces its head to every peer, every tick — the
    /// retry mechanism that makes delivery eventual under drops and
    /// heals.
    fn anti_entropy(&mut self) {
        for from in 0..self.nodes.len() {
            let head = self.nodes[from].head().0;
            if head == GENESIS {
                continue;
            }
            for to in 0..self.nodes.len() {
                if to != from {
                    self.send(from, to, NetMsg::HeadAnnounce { head });
                }
            }
        }
    }

    /// The scheduled proposer — round-robin over the replicas
    /// (`1..nodes`) by tick — builds a block on its own head from its
    /// gossip mempool if its head is stale past patience.
    fn fork_production(&mut self) {
        let replicas = self.nodes.len().saturating_sub(1);
        if replicas == 0 {
            return;
        }
        let slot = 1 + (self.tick as usize % replicas);
        if self.nodes[slot].head_age < self.cfg.fork_patience {
            return;
        }
        let block = self.nodes[slot].produce(&self.tracer);
        self.report.forks_produced += 1;
        self.tracer.event(
            SpanKind::Fork,
            self.tick,
            &[("node", slot as u64), ("height", block.height)],
        );
        for to in 0..self.nodes.len() {
            if to != slot {
                self.send(slot, to, NetMsg::Block(Arc::clone(&block)));
            }
        }
    }

    /// Whether the link `a ↔ b` is cut by any active partition window.
    fn partitioned(&self, a: usize, b: usize) -> bool {
        self.cfg.partitions.iter().any(|w| w.cuts(self.tick, a, b))
    }

    /// Sends one message through the link `from → to`: partitions cut
    /// it, the relay policy rules on it, then seeded loss / delay /
    /// duplication apply. Deliveries are enqueued, never processed
    /// inline; the message is cloned only for a duplicate.
    fn send(&mut self, from: usize, to: usize, msg: NetMsg<S::Msg>) {
        self.report.messages_sent += 1;
        if self.partitioned(from, to) {
            self.report.messages_dropped += 1;
            return;
        }
        let extra = match self.relay.relay(self.tick, from, to, &msg) {
            RelayDecision::Forward => 0,
            RelayDecision::Delay(extra) => extra,
            RelayDecision::Drop => {
                self.report.messages_dropped += 1;
                return;
            }
        };
        if self.cfg.drop_per_mille > 0 && self.rng.gen_range(0..1000u32) < self.cfg.drop_per_mille {
            self.report.messages_dropped += 1;
            return;
        }
        let (lo, hi) = self.cfg.delay;
        let delay = if hi > lo {
            self.rng.gen_range(lo..=hi)
        } else {
            lo
        };
        let due = self.tick + delay + extra;
        let duplicate = self.cfg.duplicate_per_mille > 0
            && self.rng.gen_range(0..1000u32) < self.cfg.duplicate_per_mille;
        if duplicate {
            self.report.duplicates_delivered += 1;
            self.enqueue(due, from, to, msg.clone());
            self.enqueue(due + 1, from, to, msg);
        } else {
            self.enqueue(due, from, to, msg);
        }
    }

    fn enqueue(&mut self, due: u64, from: usize, to: usize, msg: NetMsg<S::Msg>) {
        let seq = self.next_event;
        self.next_event += 1;
        self.queue.insert((due, seq), Delivery { to, from, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_chain::{
        CalldataStats, ChainMessage, ExecEnv, GasSchedule, Journaled, StateMachine,
    };
    use dragoon_ledger::Address;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A counter: every message bumps it; the capture is the prior count.
    /// `executed` tallies the messages run, on every chain sharing it.
    #[derive(Default)]
    struct Counter {
        count: u64,
        prior: u64,
        executed: Arc<AtomicU64>,
    }

    #[derive(Clone)]
    struct Bump;

    impl ChainMessage for Bump {
        fn calldata(&self) -> CalldataStats {
            CalldataStats {
                zero: 0,
                nonzero: 4,
            }
        }
        fn label(&self) -> &'static str {
            "bump"
        }
    }

    impl Journaled for Counter {
        fn begin_tx(&mut self) {
            self.prior = self.count;
        }
        fn commit_tx(&mut self) {}
        fn rollback_tx(&mut self) {
            self.count = self.prior;
        }
    }

    impl StateMachine for Counter {
        type Msg = Bump;
        type Event = ();
        type Error = String;

        fn on_message(
            &mut self,
            _: &mut ExecEnv<'_, ()>,
            _: Address,
            _: Bump,
        ) -> Result<(), String> {
            self.count += 1;
            self.executed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    impl CaptureStateMachine for Counter {
        type Capture = u64;

        fn commit_tx_captured(&mut self) -> u64 {
            self.prior
        }
        fn revert_capture(&mut self, capture: u64) {
            self.count = capture;
        }
        fn absorb(_block: &mut u64, _later: u64) {}
    }

    /// Censors the sequencer's block messages to one victim, counting
    /// them: the victim can only learn a canonical block from a peer's
    /// reply to its `BlockRequest`.
    struct StarveVictim {
        victim: usize,
        censored: Arc<AtomicU64>,
    }

    impl RelayPolicy<Bump> for StarveVictim {
        fn relay(
            &mut self,
            _tick: u64,
            from: usize,
            to: usize,
            msg: &NetMsg<Bump>,
        ) -> RelayDecision {
            if from == 0 && to == self.victim && matches!(msg, NetMsg::Block(_)) {
                self.censored.fetch_add(1, Ordering::Relaxed);
                RelayDecision::Drop
            } else {
                RelayDecision::Forward
            }
        }
    }

    /// Panics when it rules on a message at the tick it holds.
    struct PanicAtTick(u64);

    impl RelayPolicy<Bump> for PanicAtTick {
        fn relay(&mut self, tick: u64, _: usize, _: usize, _: &NetMsg<Bump>) -> RelayDecision {
            if tick == self.0 {
                panic!("the relay panics at tick {tick}");
            }
            RelayDecision::Forward
        }
    }

    /// A panic on the network thread reaches the thread that feeds it,
    /// with its payload, however far ahead of the network that thread
    /// has run.
    #[test]
    fn a_panic_on_the_net_thread_is_raised_with_its_payload() {
        let net = NetSim::new(NetConfig::default(), 3, || {
            Chain::deploy(Counter::default(), 100, GasSchedule::istanbul())
        })
        .with_relay(Box::new(PanicAtTick(5)));
        let mut feed = net.spawn();
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            for seq in 0..16 {
                let tx = PendingTx {
                    sender: Address::from_byte(1),
                    msg: Bump,
                    seq,
                };
                feed.queue_tx(tx.clone());
                feed.send_block(vec![tx]);
            }
            feed.finish()
        }));
        let payload = raised.err().expect("the relay panicked");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("the relay panics at tick 5")
        );
    }

    /// Every node's tree entry for a canonical block is the allocation
    /// `broadcast_block` created — on nodes that received the block
    /// twice (every delivery is duplicated) and on the node that was
    /// only ever served it by a peer answering a `BlockRequest`.
    #[test]
    fn every_tree_entry_is_the_producers_allocation() {
        let cfg = NetConfig {
            delay: (0, 0),
            duplicate_per_mille: 1000,
            ..NetConfig::default()
        };
        let censored = Arc::new(AtomicU64::new(0));
        let mut net = NetSim::new(cfg, 11, || {
            Chain::deploy(Counter::default(), 100, GasSchedule::istanbul())
        })
        .with_relay(Box::new(StarveVictim {
            victim: 3,
            censored: Arc::clone(&censored),
        }));
        let mut canonical = Vec::new();
        for seq in 0..3 {
            let tx = PendingTx {
                sender: Address::from_byte(1),
                msg: Bump,
                seq,
            };
            net.gossip_tx(tx.clone());
            net.broadcast_block(vec![tx]);
            canonical.push(net.canonical_head().0);
        }
        assert!(net.drain(), "the starved node back-fills and converges");
        assert!(
            censored.load(Ordering::Relaxed) >= 3,
            "the victim never got a block from node 0"
        );
        assert!(net.report().duplicates_delivered > 0);
        for id in canonical {
            let produced = net.nodes[0].block(id).expect("node 0 holds its own feed");
            for (i, node) in net.nodes.iter().enumerate() {
                let held = node.block(id).expect("converged nodes know the block");
                assert!(Arc::ptr_eq(&held, &produced), "node {i}, block {id:#x}");
            }
        }
        assert_eq!(net.node_chain(3).contract().count, 3);
    }

    /// Node 0 keeps no replayed state and no undo stack — at no point of
    /// a run that forks and reorgs its replicas — while every replica's
    /// stack is its applied branch: one undo per block, by height,
    /// through every pop and re-apply.
    #[test]
    fn only_replicas_stack_undos() {
        let cfg = NetConfig {
            partitions: vec![crate::PartitionWindow {
                start: 2,
                end: 12,
                island: vec![3],
            }],
            fork_patience: 2,
            ..NetConfig::default()
        };
        let mut net = NetSim::new(cfg, 5, || {
            Chain::deploy(Counter::default(), 100, GasSchedule::istanbul())
        });
        let check = |net: &NetSim<Counter>| {
            assert!(net.nodes[0].chain().is_none(), "node 0 holds a live chain");
            assert_eq!(net.nodes[0].head(), net.canonical_head());
            for (i, node) in net.nodes.iter().enumerate().skip(1) {
                let rounds: Vec<u64> = node
                    .replica
                    .as_ref()
                    .expect("a replica keeps its undos")
                    .undos
                    .iter()
                    .map(|undo| undo.round())
                    .collect();
                let branch: Vec<u64> = (1..=node.head().1).collect();
                assert_eq!(rounds, branch, "node {i}");
            }
        };
        for seq in 0..16 {
            let tx = PendingTx {
                sender: Address::from_byte(1),
                msg: Bump,
                seq,
            };
            net.gossip_tx(tx.clone());
            net.broadcast_block(vec![tx]);
            check(&net);
        }
        assert!(net.drain(), "the island heals and converges");
        check(&net);
        assert!(net.report().reorgs > 0, "the run must exercise a pop");
        assert_eq!(net.node_head(3).1, 16);
    }

    /// Node 0's audit view is the canonical chain — on a network whose
    /// islanded replica forked and was reorged back — and it is built
    /// once: the first read replays the canonical branch, the second
    /// executes nothing and hands back the same chain.
    #[test]
    fn node_0s_audit_view_is_the_canonical_chain_built_once() {
        let cfg = NetConfig {
            partitions: vec![crate::PartitionWindow {
                start: 2,
                end: 12,
                island: vec![3],
            }],
            fork_patience: 2,
            ..NetConfig::default()
        };
        let executed = Arc::new(AtomicU64::new(0));
        let genesis = || {
            let counter = Counter {
                executed: Arc::clone(&executed),
                ..Counter::default()
            };
            Chain::deploy(counter, 100, GasSchedule::istanbul())
        };
        let mut canonical = genesis();
        canonical.set_record_block_txs(true);
        let mut net = NetSim::new(cfg, 5, genesis);
        for round in 0..16u8 {
            for sender in 0..=round % 3 {
                let msg = Bump;
                let seq = canonical.submit(Address::from_byte(sender), msg.clone());
                net.gossip_tx(PendingTx {
                    sender: Address::from_byte(sender),
                    msg,
                    seq,
                });
            }
            canonical.advance_round_fifo();
            net.broadcast_block(canonical.last_block_txs().to_vec());
        }
        assert!(net.drain(), "the island heals and converges");
        assert!(net.report().reorgs > 0, "the run must exercise a pop");
        assert!(net.nodes[0].chain().is_none(), "node 0 replayed nothing");

        let before = executed.load(Ordering::Relaxed);
        let view = net.node_chain(0);
        let replayed = executed.load(Ordering::Relaxed) - before;
        assert_eq!(
            replayed,
            canonical.contract().count,
            "one replay of the branch"
        );
        assert_eq!(view.round(), canonical.round());
        assert_eq!(view.contract().count, canonical.contract().count);
        assert!(view.blocks() == canonical.blocks(), "receipts diverged");
        assert!(view.ledger == canonical.ledger, "ledger diverged");
        let again = net.node_chain(0);
        assert!(std::ptr::eq(view, again), "the view is kept");
        assert_eq!(
            executed.load(Ordering::Relaxed) - before,
            replayed,
            "a second read executes nothing"
        );
    }

    /// `report()` reads, it never folds: asking twice gives the same
    /// answer, mid-run and after the drain, on a network whose islanded
    /// replica forked and was reorged back (so the reorg counters are
    /// live, counted once where the branch switch happens).
    #[test]
    fn report_is_pure_mid_run_and_after_drain() {
        let cfg = NetConfig {
            partitions: vec![crate::PartitionWindow {
                start: 2,
                end: 12,
                island: vec![3],
            }],
            fork_patience: 2,
            ..NetConfig::default()
        };
        let mut net = NetSim::new(cfg, 5, || {
            Chain::deploy(Counter::default(), 100, GasSchedule::istanbul())
        });
        let view = |net: &NetSim<Counter>| net.report().metric_set().to_json_object();
        for seq in 0..16 {
            let tx = PendingTx {
                sender: Address::from_byte(1),
                msg: Bump,
                seq,
            };
            net.gossip_tx(tx.clone());
            net.broadcast_block(vec![tx]);
            assert_eq!(view(&net), view(&net), "mid-run, block {seq}");
        }
        assert!(net.drain(), "the island heals and converges");
        let report = net.report();
        assert!(report.reorgs > 0 && report.max_reorg_depth > 0);
        assert_eq!(view(&net), report.metric_set().to_json_object());
        assert_eq!(view(&net), view(&net), "after the drain");
    }
}
