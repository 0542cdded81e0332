//! The transaction messages accepted by the HIT contract `C_hit`, with
//! their byte encodings and declared ledger access sets.
//!
//! Encodings matter: intrinsic calldata gas is charged from the actual
//! zero/non-zero byte composition of the encoded message, exactly as
//! Ethereum prices transaction data. Access sets matter for scheduling:
//! [`HitMessage::access_set`] declares, per message, which ledger
//! accounts execution may read or write, and the optimistic parallel
//! block executor groups transactions by those declarations instead of
//! serializing on whole instances.

use crate::contract::HitContract;
use dragoon_chain::{CalldataStats, ChainMessage};
use dragoon_core::poqoea::QualityProof;
use dragoon_core::task::{EncryptedAnswer, GoldenStandards};
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{EncryptionKey, PlaintextRange};
use dragoon_crypto::vpke::{DecryptionProof, PlaintextClaim};
use dragoon_ledger::Address;
use serde::{Deserialize, Serialize};

/// The public parameters announced when a task is published
/// (`publish, N, B, K, range, Θ, h, comm_gs` in Fig 4, plus the off-chain
/// storage digest of the question set).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PublishParams {
    /// Number of questions `N`.
    pub n: usize,
    /// Total budget `B` (frozen on publish).
    pub budget: u128,
    /// Number of workers `K`.
    pub k: usize,
    /// Admissible answer range.
    pub range: PlaintextRange,
    /// Quality threshold `Θ`.
    pub theta: u64,
    /// The requester's public encryption key `h`.
    pub ek: EncryptionKey,
    /// Commitment to the gold standards `Commit(G ‖ Gs, key_gs)`.
    pub comm_gs: Commitment,
    /// Keccak digest of the off-chain question set (Swarm integrity
    /// anchor, §VI "the digest of the questions is committed in the
    /// contract").
    pub task_digest: [u8; 32],
}

/// A transaction to the HIT contract.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum HitMessage {
    /// Phase 1: the requester publishes the task and freezes `B`.
    Publish(PublishParams),
    /// Phase 2-a: a worker commits to its encrypted answers.
    Commit {
        /// `Commit(c_j, key_j)`.
        commitment: Commitment,
    },
    /// Phase 2-b: a worker opens its commitment, revealing ciphertexts.
    Reveal {
        /// The encrypted answer vector `c_j`.
        ciphertexts: EncryptedAnswer,
        /// The blinding key `key_j`.
        key: CommitmentKey,
    },
    /// Phase 3: the requester opens the gold standards.
    Golden {
        /// `(G, Gs)`.
        golden: GoldenStandards,
        /// The blinding key `key_gs`.
        key: CommitmentKey,
    },
    /// Phase 3: the requester rejects one answer item as out of range,
    /// with a verifiable decryption of that item.
    OutRange {
        /// The worker being challenged.
        worker: Address,
        /// The question index `i`.
        index: usize,
        /// The claimed decryption (out-of-range group element, or an
        /// in-range value — which would backfire and pay the worker).
        claim: PlaintextClaim,
        /// The VPKE proof.
        proof: DecryptionProof,
    },
    /// Phase 3: the requester proves a worker's quality `χ_j < Θ` with a
    /// PoQoEA proof to reject the submission.
    Evaluate {
        /// The worker being evaluated.
        worker: Address,
        /// The claimed quality upper bound `χ_j`.
        chi: u64,
        /// The PoQoEA proof.
        proof: QualityProof,
    },
    /// Phase 3 → closed: anyone may trigger settlement once the
    /// evaluation window has passed (default payments + refund).
    Finalize,
    /// Commit phase → closed: cancels an unfilled task after its commit
    /// window expires, refunding the budget.
    Cancel,
}

/// The ledger accounts one message may touch, declared before execution
/// for the parallel scheduler. `reads` must cover accounts whose entries
/// feed guards or *outcome-dependent* payments (the executor copies them
/// into the group's shadow ledger); `writes` are the accounts execution
/// deterministically moves coins between. A write that only materializes
/// on one outcome (a backfired rejection paying the worker) is declared
/// a read — the dynamic touch records catch the escalation and send the
/// batch to serial execution when it collides with another group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerAccess {
    /// Accounts execution may read (or conditionally write).
    pub reads: Vec<Address>,
    /// Accounts execution writes on every successful path that touches
    /// the ledger at all.
    pub writes: Vec<Address>,
}

impl HitMessage {
    /// Declares the ledger access of this message when routed to an
    /// instance escrowed at `escrow` with current state `hit`. The
    /// declaration is evaluated against pre-block state; drift within
    /// the block (e.g. a same-block commit extending the worker set a
    /// finalize pays) is absorbed by the executor's sender preset and
    /// its dynamic touch-record validation.
    pub fn access_set(&self, escrow: Address, hit: &HitContract) -> LedgerAccess {
        match self {
            // Publish freezes the budget from the sender (added to the
            // preset by the executor) into the escrow.
            HitMessage::Publish(_) => LedgerAccess {
                reads: Vec::new(),
                writes: vec![escrow],
            },
            // Pure contract-state transitions: no ledger traffic.
            HitMessage::Commit { .. } | HitMessage::Reveal { .. } | HitMessage::Golden { .. } => {
                LedgerAccess::default()
            }
            // A rejection that fails verification (or claims in-range)
            // backfires into an immediate escrow → worker payment. The
            // outcome depends on the proof, so the worker is a declared
            // read; the escrow is written either way at settlement.
            HitMessage::OutRange { worker, .. } | HitMessage::Evaluate { worker, .. } => {
                LedgerAccess {
                    reads: vec![*worker],
                    writes: vec![escrow],
                }
            }
            // Settlement drains the escrow to every committed worker
            // (defaults + queued verdicts) and refunds the requester.
            HitMessage::Finalize => {
                let mut writes = vec![escrow];
                writes.extend(hit.requester());
                writes.extend_from_slice(hit.committed_workers());
                LedgerAccess {
                    reads: Vec::new(),
                    writes,
                }
            }
            // Cancellation refunds the whole escrow to the requester.
            HitMessage::Cancel => {
                let mut writes = vec![escrow];
                writes.extend(hit.requester());
                LedgerAccess {
                    reads: Vec::new(),
                    writes,
                }
            }
        }
    }

    /// The byte encoding whose composition determines calldata gas.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            HitMessage::Publish(p) => {
                out.push(0x01);
                out.extend_from_slice(&(p.n as u64).to_be_bytes());
                out.extend_from_slice(&p.budget.to_be_bytes());
                out.extend_from_slice(&(p.k as u64).to_be_bytes());
                out.extend_from_slice(&p.range.lo.to_be_bytes());
                out.extend_from_slice(&p.range.hi.to_be_bytes());
                out.extend_from_slice(&p.theta.to_be_bytes());
                out.extend_from_slice(&p.ek.0.to_bytes());
                out.extend_from_slice(&p.comm_gs.0);
                out.extend_from_slice(&p.task_digest);
            }
            HitMessage::Commit { commitment } => {
                out.push(0x02);
                out.extend_from_slice(&commitment.0);
            }
            HitMessage::Reveal { ciphertexts, key } => {
                out.push(0x03);
                out.extend_from_slice(&ciphertexts.encode());
                out.extend_from_slice(&key.0);
            }
            HitMessage::Golden { golden, key } => {
                out.push(0x04);
                out.extend_from_slice(&golden.encode());
                out.extend_from_slice(&key.0);
            }
            HitMessage::OutRange {
                worker,
                index,
                claim,
                proof,
            } => {
                out.push(0x05);
                out.extend_from_slice(&worker.0);
                out.extend_from_slice(&(*index as u64).to_be_bytes());
                encode_claim(&mut out, claim);
                encode_proof(&mut out, proof);
            }
            HitMessage::Evaluate { worker, chi, proof } => {
                out.push(0x06);
                out.extend_from_slice(&worker.0);
                out.extend_from_slice(&chi.to_be_bytes());
                out.extend_from_slice(&(proof.items.len() as u64).to_be_bytes());
                for item in &proof.items {
                    out.extend_from_slice(&(item.index as u64).to_be_bytes());
                    encode_claim(&mut out, &item.claim);
                    encode_proof(&mut out, &item.proof);
                }
            }
            HitMessage::Finalize => out.push(0x07),
            HitMessage::Cancel => out.push(0x08),
        }
        out
    }
}

fn encode_claim(out: &mut Vec<u8>, claim: &PlaintextClaim) {
    match claim {
        PlaintextClaim::InRange(m) => {
            out.push(0x00);
            out.extend_from_slice(&m.to_be_bytes());
        }
        PlaintextClaim::OutOfRange(p) => {
            out.push(0x01);
            out.extend_from_slice(&p.to_bytes());
        }
    }
}

fn encode_proof(out: &mut Vec<u8>, proof: &DecryptionProof) {
    out.extend_from_slice(&proof.a.to_bytes());
    out.extend_from_slice(&proof.b.to_bytes());
    out.extend_from_slice(&proof.z.to_bytes_le());
}

impl ChainMessage for HitMessage {
    fn calldata(&self) -> CalldataStats {
        CalldataStats::from_bytes(&self.encode())
    }

    fn label(&self) -> &'static str {
        match self {
            HitMessage::Publish(_) => "publish",
            HitMessage::Commit { .. } => "commit",
            HitMessage::Reveal { .. } => "reveal",
            HitMessage::Golden { .. } => "golden",
            HitMessage::OutRange { .. } => "outrange",
            HitMessage::Evaluate { .. } => "evaluate",
            HitMessage::Finalize => "finalize",
            HitMessage::Cancel => "cancel",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_core::task::Answer;
    use dragoon_crypto::elgamal::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels() {
        assert_eq!(HitMessage::Finalize.label(), "finalize");
        assert_eq!(
            HitMessage::Commit {
                commitment: Commitment([0u8; 32])
            }
            .label(),
            "commit"
        );
    }

    #[test]
    fn reveal_calldata_scales_with_questions() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&mut rng);
        let small = Answer(vec![0; 10]).encrypt(&kp.ek, &mut rng);
        let large = Answer(vec![0; 100]).encrypt(&kp.ek, &mut rng);
        let key = CommitmentKey::random(&mut rng);
        let m_small = HitMessage::Reveal {
            ciphertexts: small,
            key,
        };
        let m_large = HitMessage::Reveal {
            ciphertexts: large,
            key,
        };
        assert!(m_large.calldata().len() > 9 * m_small.calldata().len() / 2);
        // 100 questions × 128 bytes + key + tag ≈ 12.8 kB.
        assert_eq!(m_large.calldata().len(), 1 + 100 * 128 + 32);
    }

    #[test]
    fn access_sets_declare_settlement_endpoints() {
        use crate::PhaseWindows;
        let escrow = Address::from_byte(0xee);
        let worker = Address::from_byte(0x01);
        let hit = HitContract::new(PhaseWindows {
            commit_timeout: Some(4),
            reveal: 2,
            evaluate: 3,
        });
        // Pure state transitions touch no ledger accounts.
        let commit = HitMessage::Commit {
            commitment: Commitment([0u8; 32]),
        };
        assert_eq!(commit.access_set(escrow, &hit), LedgerAccess::default());
        // A rejection declares the worker as an outcome-dependent read
        // (the backfire payment) and the escrow as a write.
        let evaluate = HitMessage::Evaluate {
            worker,
            chi: 0,
            proof: dragoon_core::poqoea::QualityProof::default(),
        };
        let access = evaluate.access_set(escrow, &hit);
        assert_eq!(access.reads, vec![worker]);
        assert_eq!(access.writes, vec![escrow]);
        // Settlement on an unpublished instance still names the escrow;
        // requester and workers join as the instance fills.
        let access = HitMessage::Finalize.access_set(escrow, &hit);
        assert_eq!(access.writes, vec![escrow]);
        assert!(access.reads.is_empty());
    }

    #[test]
    fn encodings_are_distinct() {
        let c1 = HitMessage::Commit {
            commitment: Commitment([1u8; 32]),
        };
        let c2 = HitMessage::Commit {
            commitment: Commitment([2u8; 32]),
        };
        assert_ne!(c1.encode(), c2.encode());
        assert_ne!(c1.encode(), HitMessage::Finalize.encode());
    }

    #[test]
    fn field_bytes_are_mostly_nonzero() {
        // Sanity for the gas model: ciphertext calldata is dominated by
        // non-zero bytes (random field elements).
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&mut rng);
        let enc = Answer(vec![1; 20]).encrypt(&kp.ek, &mut rng);
        let m = HitMessage::Reveal {
            ciphertexts: enc,
            key: CommitmentKey::random(&mut rng),
        };
        let stats = m.calldata();
        assert!(stats.nonzero > stats.zero * 10);
    }
}
