//! # dragoon
//!
//! Workspace facade crate: re-exports every layer of the Dragoon
//! reproduction so integration tests and examples can depend on a single
//! package. The layers, bottom to top:
//!
//! * [`dragoon_crypto`] — BN-254 fields/groups, Keccak, ElGamal, VPKE.
//! * [`dragoon_core`] — the HIT task model, quality function, PoQoEA.
//! * [`dragoon_ledger`] — the cryptocurrency ledger functionality `L`.
//! * [`dragoon_chain`] — the simulated round-based chain with gas
//!   metering, mempool scheduling and block gas limits.
//! * [`dragoon_contract`] — the HIT contract `C_hit` and the
//!   multi-instance [`dragoon_contract::HitRegistry`].
//! * [`dragoon_protocol`] — the Π_hit clients, the requester's
//!   sequencer, the proving pipeline and the ideal functionality.
//! * [`dragoon_zkp`] — the generic Groth16 zk-SNARK baseline.
//! * [`dragoon_econ`] — the market-economics subsystem: cross-HIT
//!   reputation, dynamic pricing, churn and adversary policies.
//! * [`dragoon_sim`] — the concurrent multi-HIT marketplace engine,
//!   which also runs a single HIT (Table III, the real-vs-ideal tests).
//! * [`dragoon_net`] — the deterministic multi-node network simulation:
//!   gossip, link faults, partitions, forks and reorg-capable replicas.
//! * [`dragoon_trace`] — unified observability: deterministic span/event
//!   stream, metrics registry behind the JSON report lines, wall-clock
//!   phase profiler with Chrome `trace_event` export.

#![forbid(unsafe_code)]

pub use dragoon_chain as chain;
pub use dragoon_contract as contract;
pub use dragoon_core as core;
pub use dragoon_crypto as crypto;
pub use dragoon_econ as econ;
pub use dragoon_ledger as ledger;
pub use dragoon_net as net;
pub use dragoon_protocol as protocol;
pub use dragoon_sim as sim;
pub use dragoon_trace as trace;
pub use dragoon_zkp as zkp;
