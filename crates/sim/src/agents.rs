//! The marketplace's agent pools: requesters (one per HIT, reusing the
//! protocol-layer [`Requester`] client and its [`Sequencer`]) and a
//! shared worker pool whose members participate in many HITs
//! concurrently through per-task [`Worker`] sessions.

use dragoon_contract::HitId;
use dragoon_core::workload::Workload;
use dragoon_crypto::precomp::FixedBaseTable;
use dragoon_ledger::Address;
use dragoon_protocol::{Requester, Sequencer, Strategy, Worker, WorkerBehavior};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A requester agent: owns one HIT from publication to settlement.
pub struct RequesterAgent {
    /// On-chain identity.
    pub addr: Address,
    /// The protocol client (keys, proofs, evaluation).
    pub client: Requester,
    /// The workload this agent crowdsources.
    pub workload: Workload,
    /// When each of the agent's transactions goes out, and how many
    /// answers it has accepted (the marketplace's utility).
    pub sequencer: Sequencer,
    /// The fixed-base table of the agent's encryption key while its HIT
    /// takes commitments: set in the round the first encrypting commit
    /// job is enqueued, dropped when the commit phase closes (or, for a
    /// HIT cancelled in it, at settlement). Jobs still in flight hold
    /// their own `Arc`.
    pub table: Option<Arc<FixedBaseTable>>,
}

impl RequesterAgent {
    /// Wraps a protocol client.
    pub fn new(addr: Address, client: Requester, workload: Workload, strategy: Strategy) -> Self {
        Self {
            addr,
            client,
            workload,
            sequencer: Sequencer::new(strategy),
            table: None,
        }
    }
}

/// A pool worker: one identity, one behaviour, many concurrent sessions.
pub struct WorkerAgent {
    /// On-chain identity.
    pub addr: Address,
    /// The behaviour every session of this worker follows.
    pub behavior: WorkerBehavior,
    /// Live per-HIT protocol sessions. Sessions are removed when their
    /// HIT settles (or the worker loses an overbooked commit race), so
    /// the map's length is the worker's load against its capacity.
    pub sessions: BTreeMap<HitId, Worker>,
    /// Whether the worker is still in the pool (churn departures flip
    /// this off: the worker stops committing and stops revealing, so its
    /// outstanding commitments settle as `⊥` and escrow flows back).
    pub active: bool,
}

impl WorkerAgent {
    /// A fresh worker.
    pub fn new(addr: Address, behavior: WorkerBehavior) -> Self {
        Self {
            addr,
            behavior,
            sessions: BTreeMap::new(),
            active: true,
        }
    }
}
