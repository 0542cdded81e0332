//! Relay policies: the adversary's grip on the wire.
//!
//! Every message handed to the gossip layer passes through one
//! [`RelayPolicy`] before link faults (seeded delay, loss, duplicates)
//! apply. An honest relay forwards everything; the built-in MEV flavor
//! withholds the sequencer's *block* propagation to keep the replicas'
//! chain views stale — the network-level generalization of mempool
//! front-running: instead of reordering transactions inside a block, the
//! adversary reorders *chain knowledge* across nodes. Other adversaries
//! implement the trait and enter through [`crate::NetSim::with_relay`].

use crate::config::RelaySpec;
use crate::sim::NetMsg;

/// What the relay decided for one message on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayDecision {
    /// Deliver normally (link faults still apply).
    Forward,
    /// Deliver, but add this many ticks of delay first.
    Delay(u64),
    /// Censor the message entirely.
    Drop,
}

/// An adversarial (or honest) relay between every pair of nodes.
///
/// Implementations must be deterministic in their inputs — the
/// convergence differential replays runs bit-exactly from the seed —
/// and `Send`: a market runs its network on a thread of its own
/// ([`crate::NetSim::spawn`]).
pub trait RelayPolicy<M>: Send {
    /// Decides the fate of `msg` sent `from → to` at `tick`.
    fn relay(&mut self, tick: u64, from: usize, to: usize, msg: &NetMsg<M>) -> RelayDecision;
}

/// Forwards everything unchanged.
struct HonestRelay;

impl<M> RelayPolicy<M> for HonestRelay {
    fn relay(&mut self, _tick: u64, _from: usize, _to: usize, _msg: &NetMsg<M>) -> RelayDecision {
        RelayDecision::Forward
    }
}

/// Withholds the sequencer's blocks and releases them in bursts: every
/// block message from node 0 is delayed to the next multiple of
/// `period`. Between bursts the replicas see a frozen chain — once
/// their patience runs out they fork — and each burst forces them to
/// reorg back onto the canonical branch.
struct WithholdReleaseRelay {
    period: u64,
}

impl<M> RelayPolicy<M> for WithholdReleaseRelay {
    fn relay(&mut self, tick: u64, from: usize, _to: usize, msg: &NetMsg<M>) -> RelayDecision {
        if from == 0 && matches!(msg, NetMsg::Block(_)) {
            RelayDecision::Delay(self.period - 1 - (tick % self.period))
        } else {
            RelayDecision::Forward
        }
    }
}

/// Builds the boxed policy a [`RelaySpec`] names.
pub(crate) fn build_relay<M>(spec: &RelaySpec) -> Box<dyn RelayPolicy<M>> {
    match spec {
        RelaySpec::Honest => Box::new(HonestRelay),
        RelaySpec::WithholdRelease { period } => Box::new(WithholdReleaseRelay {
            period: (*period).max(1),
        }),
    }
}
