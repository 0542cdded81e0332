//! # dragoon-protocol
//!
//! The decentralized HIT protocol Π_hit (Fig 5) and its security
//! harness:
//!
//! * [`requester`] / [`worker`] — the off-chain clients, including
//!   adversarial worker behaviours (copy-paste free-riders, silent
//!   committers, malformed reveals) and the requester's
//!   [`Sequencer`]: the one state machine that orders cancel, golden
//!   opening, evaluation, rejections and finalize, stepped by the
//!   market engine (`dragoon-sim`), which also runs a single task —
//!   Table III's gas rows and the real world of the real-vs-ideal
//!   comparison.
//! * [`requester_addr`] / [`worker_addr`] — the simulated parties'
//!   on-chain identities.
//! * [`ideal`] — the ideal functionality `F_hit` (Fig 2), the trusted
//!   specification used by the real-vs-ideal comparison tests.
//! * [`proving`] — the asynchronous proving pipeline: a keyed proof-job
//!   queue computed over the run's thread budget, with deterministic
//!   per-job RNG streams and modeled (tick-based) proving latency.
//! * [`storage`] — content-addressed off-chain storage (the Swarm
//!   stand-in for task question sets).
//! * [`strawman`] — the transparent (no-privacy) design the paper's
//!   introduction shows is broken; used to demonstrate the free-riding
//!   attack Dragoon prevents.

#![forbid(unsafe_code)]

pub mod ideal;
pub mod proving;
pub mod requester;
pub mod storage;
pub mod strawman;
pub mod worker;

pub use ideal::{IdealHit, IdealPhase, Leakage};
pub use proving::{
    job_rng, JobKey, ProofJob, ProofPhase, ProvingConfig, ProvingService, ProvingStats,
};
pub use requester::{Evaluator, Requester, Sequencer, Step, Strategy, Verdict};
pub use storage::ContentStore;
pub use worker::{CommitArtifacts, Worker, WorkerBehavior};

use dragoon_ledger::Address;

/// The on-chain identity of simulated requester `i` — the account
/// every genesis (the market's, each replica's, crash recovery's) mints
/// its budget to.
pub fn requester_addr(i: u64) -> Address {
    Address::from_seed(0xd1a6_0000 + i)
}

/// The on-chain identity of simulated worker `i`.
pub fn worker_addr(i: u64) -> Address {
    Address::from_seed(0x3031_0000 + i)
}
