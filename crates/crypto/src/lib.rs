//! # dragoon-crypto
//!
//! The cryptographic substrate of the Dragoon reproduction — every
//! primitive the paper instantiates (§V-C, §VI), implemented from scratch:
//!
//! * [`field`] — the BN-254 base/scalar prime fields in Montgomery form.
//! * [`g1`] — the G1 group (`y^2 = x^3 + 3`) over which all of Dragoon's
//!   own primitives live: GLV + width-5 NAF scalar multiplication and
//!   batch normalisation (one inversion per vector of points).
//! * [`tower`], [`g2`], [`pairing`] — the Fq12 tower, twist group and
//!   optimal ate pairing, needed only by the generic zk-SNARK baseline.
//! * [`keccak`] — Keccak-256, the paper's hash / random oracle and the
//!   EVM-compatible digest for the gas model.
//! * [`ro`] — Fiat–Shamir transcript utilities over the random oracle.
//! * [`commitment`] — the folklore `H(msg ‖ key)` commitment.
//! * [`elgamal`] — exponential ElGamal with short-range decryption
//!   (brute force and baby-step giant-step).
//! * [`vpke`] — verifiable decryption: the Schnorr/Chaum–Pedersen variant
//!   of §V-C with Fiat–Shamir, the building block PoQoEA reduces to.
//! * [`precomp`] — windowed affine fixed-base tables (built eight keys
//!   a pass where the lanes allow) and [`precomp::ProofCache`], a keyed
//!   cache of them for callers that look a key up inside their jobs.
//! * `lanes` (x86-64) — eight `Fq` products at once on AVX-512 IFMA,
//!   under [`G1Affine::batch_mul`] with one shared scalar (decryption)
//!   and under [`EncryptionKey::encrypt_batch`]'s fixed-base tables
//!   (encryption); the crate's only `unsafe` code.

#![deny(unsafe_code)]

pub mod arith;
pub mod commitment;
pub mod elgamal;
pub mod field;
pub mod g1;
pub mod g2;
pub mod keccak;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod lanes;
pub mod pairing;
pub mod precomp;
pub mod ro;
pub mod tower;
#[cfg(test)]
mod vectors;
pub mod vpke;

pub use commitment::{Commitment, CommitmentKey};
pub use elgamal::{Ciphertext, DecryptionKey, EncryptionKey, KeyPair};
pub use field::{Fq, Fr};
pub use g1::{G1Affine, G1Projective};
pub use keccak::{keccak256, keccak256_concat, Keccak256};
pub use precomp::{CacheStats, FixedBaseTable, ProofCache};
pub use vpke::{DecryptionProof, DecryptionStatement};
