//! # dragoon-zkp
//!
//! The **generic zk-proof baseline** the paper compares Dragoon against
//! (Tables I & II): a complete Groth16 zk-SNARK pipeline built from
//! scratch on the BN-254 pairing of `dragoon-crypto`:
//!
//! * [`r1cs`] — rank-1 constraint systems and witness assignment.
//! * [`ntt`] — radix-2 number-theoretic transforms for the QAP division.
//! * [`jubjub`] — Baby Jubjub, the SNARK-friendly curve embedded in the
//!   BN-254 scalar field, with an ElGamal instantiation over it.
//! * [`gadgets`] — booleans, bit decomposition and in-circuit Edwards
//!   arithmetic.
//! * [`circuits`] — the baseline VPKE / PoQoEA statements as circuits.
//! * [`groth16`] — trusted setup, prover and (pairing-based) verifier.
//!
//! Substitution note: the paper's baseline measured libsnark proving of
//! RSA-OAEP decryption circuits; here the decryption relation is
//! expressed over the embedded curve instead (see `jubjub` docs). Both
//! put the statement in the tens-of-thousands-of-constraints regime, so
//! the orders-of-magnitude gap the paper reports is reproduced, not
//! assumed.

#![forbid(unsafe_code)]

pub mod circuits;
pub mod crs;
pub mod gadgets;
pub mod groth16;
pub mod jubjub;
pub mod ntt;
pub mod r1cs;

pub use circuits::{poqoea_circuit, vpke_circuit, PoqoeaInstance, VpkeInstance};
pub use crs::{shape_digest, CrsCache, CrsCacheStats};
pub use groth16::{prove, setup, verify, Proof, ProvingKey, SnarkError, VerifyingKey};
pub use r1cs::{ConstraintSystem, LinearCombination, Variable};
