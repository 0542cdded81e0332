//! The network layer's pipeline thread.
//!
//! A market never reads its network before the run ends: the net
//! observes the chain, it never steers it. [`NetSim::spawn`] therefore
//! moves the simulation onto a pipeline [`Stage`] of its own, one
//! thread named `dragoon-net`, and hands back a [`NetFeed`]. The market
//! queues each round's gossiped transactions and sends them with the
//! round's block, one message per round over a bounded channel; the
//! thread runs each message as [`NetSim::gossip_tx`] for every
//! transaction, then [`NetSim::broadcast_block`] — the call sequence a
//! synchronous caller makes — so every relay decision and every draw of
//! the seeded RNG happens in the same order. [`NetFeed::finish`] sends
//! the final drain, joins the thread and hands the `NetSim` back for its
//! report and audits.
//!
//! ## The trace
//!
//! The simulation's handle — and its replicas' registries' — should be
//! one [`Tracer::deferred`] handle: each message carries the run
//! stream's [`Tracer::position`] at the moment it was sent, the thread
//! closes a batch there once the message has run, and `finish` splices
//! the batches in. The stream is then the one the synchronous calls
//! would have recorded; the wall spans (`gossip`, `apply`, the
//! replicas' `verify`) land on the `dragoon-net` track as they happen.
//! On the market's track, a `handoff` span covers each send — a full
//! channel blocks it — and `finish`'s drain and join, so the time the
//! round loop waits on the network shows in its profile.
//!
//! ## Failure
//!
//! The failure rule is the stage's: a panic on the thread is raised
//! again on the market's thread, with its payload, at the next send or
//! at `finish`. A feed dropped without `finish` — the market's thread
//! unwinding — closes the channel and joins: the thread runs what is
//! already queued and stops without the drain.

use crate::sim::NetSim;
use dragoon_chain::mempool::PendingTx;
use dragoon_chain::replica::CaptureStateMachine;
use dragoon_chain::stage::Stage;
use dragoon_trace::{SpanKind, Tracer};

/// Rounds the market may run ahead of the network thread. More buys
/// nothing: the thread either keeps up or the channel stays full.
const ROUNDS_IN_FLIGHT: usize = 4;

/// One message to the network thread.
enum Feed<M> {
    /// A round: its gossiped transactions, then its block.
    Round {
        txs: Vec<PendingTx<M>>,
        block: Vec<PendingTx<M>>,
        position: usize,
    },
    /// The run is over: drain and hand the simulation back.
    Drain { position: usize },
}

/// The market's end of a running network (see the module docs).
pub struct NetFeed<S: CaptureStateMachine> {
    /// The simulation's (deferred) trace handle.
    tracer: Tracer,
    /// This round's gossiped transactions, sent with its block.
    txs: Vec<PendingTx<S::Msg>>,
    /// Rounds sent so far: the network tick the next one runs at.
    rounds: u64,
    stage: Stage<Feed<S::Msg>, NetSim<S>>,
}

impl<S> NetSim<S>
where
    S: CaptureStateMachine + 'static,
    S::Msg: Send,
    Self: Send,
{
    /// Moves the simulation onto its own `dragoon-net` thread (see the
    /// module docs). The thread runs every message as the synchronous
    /// calls would, until the drain or a closed channel.
    pub fn spawn(mut self) -> NetFeed<S> {
        let tracer = self.tracer.clone();
        let stage = Stage::spawn("dragoon-net", ROUNDS_IN_FLIGHT, move |feed| {
            for message in feed {
                match message {
                    Feed::Round {
                        txs,
                        block,
                        position,
                    } => {
                        for tx in txs {
                            self.gossip_tx(tx);
                        }
                        self.broadcast_block(block);
                        self.tracer.end_batch(position);
                    }
                    Feed::Drain { position } => {
                        self.drain();
                        self.tracer.end_batch(position);
                        break;
                    }
                }
            }
            Ok(self)
        });
        NetFeed {
            tracer,
            txs: Vec::new(),
            rounds: 0,
            stage,
        }
    }
}

impl<S: CaptureStateMachine> NetFeed<S> {
    /// Queues one canonical submission for this round's message.
    pub fn queue_tx(&mut self, tx: PendingTx<S::Msg>) {
        self.txs.push(tx);
    }

    /// Sends this round: the queued transactions, then `block` (the
    /// produced block's executed transaction list, in receipt order).
    pub fn send_block(&mut self, block: Vec<PendingTx<S::Msg>>) {
        let _sp = self.tracer.span(SpanKind::Handoff, self.rounds);
        let txs = std::mem::take(&mut self.txs);
        let position = self.tracer.position();
        let Ok(()) = self.stage.send(Feed::Round {
            txs,
            block,
            position,
        });
        self.rounds += 1;
    }

    /// Runs the final convergence drain ([`NetSim::drain`]), joins the
    /// thread, splices its trace batches into the run's stream and
    /// hands the simulation back.
    pub fn finish(mut self) -> NetSim<S> {
        let mut sp = self.tracer.span(SpanKind::Handoff, self.rounds);
        sp.arg("drain", 1);
        let position = self.tracer.position();
        let Ok(()) = self.stage.send(Feed::Drain { position });
        let Ok(net) = self.stage.finish();
        drop(sp);
        self.tracer.splice();
        net
    }
}
