//! # dragoon-net
//!
//! Deterministic multi-node network simulation for the dragoon
//! marketplace chain: N nodes connected by a discrete-event gossip
//! layer with seeded per-link delays, loss, duplicate delivery and
//! scheduled partitions — all on one virtual clock, bit-reproducible
//! from a seed.
//!
//! Node 0 is the sequencer's network presence: it adds each canonical
//! block to its block tree and gossips it, without executing it again —
//! the market already did — so its state is an audit view, built on
//! request ([`NetSim::node_chain`]). The other nodes are replicas, each
//! owning an independent mempool and a full chain replica (registry,
//! ledger, receipts): they follow by gossip, buffer competing branches,
//! and switch heads by longest-chain fork choice with full state
//! rollback (the chain's captured-undo replica path). Adversarial [`RelayPolicy`]
//! implementations can delay or withhold block propagation per link —
//! the network-level analogue of MEV — and the convergence
//! differential proves every honest node still settles to the exact
//! single-node state.
//!
//! A market runs its network on a thread of its own ([`NetSim::spawn`],
//! [`NetFeed`]), fed one message per round; the network's calls, RNG
//! draws and trace stream are those of the synchronous drive.

#![forbid(unsafe_code)]

pub mod config;
pub mod feed;
pub mod node;
pub mod relay;
pub mod report;
pub mod sim;

pub use config::{NetConfig, PartitionWindow, RelaySpec};
pub use feed::NetFeed;
pub use node::{block_id, BlockId, NetBlock, GENESIS};
pub use relay::{RelayDecision, RelayPolicy};
pub use report::NetReport;
pub use sim::{NetMsg, NetSim};
