//! # dragoon-protocol
//!
//! The decentralized HIT protocol Π_hit (Fig 5) and its security
//! harness:
//!
//! * [`requester`] / [`worker`] — the off-chain clients, including
//!   adversarial worker behaviours (copy-paste free-riders, silent
//!   committers, malformed reveals) and the requester's
//!   [`Sequencer`]: the one state machine that orders cancel, golden
//!   opening, evaluation, rejections and finalize, for the driver and
//!   the market engine alike.
//! * [`driver`] — end-to-end protocol runs over the simulated chain,
//!   producing per-phase gas reports (Table III's raw material).
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

pub mod driver;
pub mod ideal;
pub mod proving;
pub mod requester;
pub mod storage;
pub mod strawman;
pub mod worker;

pub use driver::{
    requester_addr, run, run_with_policy, worker_addr, GasByPhase, RunConfig, RunReport,
};
pub use ideal::{IdealHit, IdealPhase, Leakage};
pub use proving::{
    job_rng, JobKey, ProofJob, ProofPhase, ProvingConfig, ProvingService, ProvingStats,
};
pub use requester::{Evaluator, Requester, Sequencer, Step, Strategy, Verdict};
pub use storage::ContentStore;
pub use worker::{CommitArtifacts, Worker, WorkerBehavior};
