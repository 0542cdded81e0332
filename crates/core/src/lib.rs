//! # dragoon-core
//!
//! The paper's primary contribution, as a library:
//!
//! * [`task`] — the HIT task model: batched multiple-choice questions,
//!   gold standards, plaintext/encrypted answer vectors (§IV).
//! * [`mod@quality`] — the MTurk-style quality function
//!   `Quality(a_j; G, Gs) = Σ_{i∈G} [a_{i,j} ≡ s_i]`.
//! * [`poqoea`] — **PoQoEA**, the special-purpose proof of the quality of
//!   an encrypted answer (§V-A, Fig 3): reduced to verifiable decryption,
//!   with upper-bound soundness and special zero-knowledge.
//! * [`workload`] — synthetic ImageNet-style workloads and worker answer
//!   models for the evaluation harness.
//!
//! The smart contract verifying these proofs lives in `dragoon-contract`;
//! the full protocol Π_hit and the ideal functionality F_hit live in
//! `dragoon-protocol`.

#![forbid(unsafe_code)]

pub mod poqoea;
pub mod quality;
pub mod task;
pub mod workload;

pub use poqoea::{
    prove_quality, split_quality_proof, verify_quality, verify_quality_bool, MismatchItem,
    QualityError, QualityProof,
};
pub use quality::{mismatches, quality};
pub use task::{Answer, EncryptedAnswer, GoldenStandards, Question, TaskSpec};
