//! [`Persist`] codecs for the contract layer: messages, events and the
//! cryptographic payloads they carry.
//!
//! The block store replays *messages* to rebuild state, and snapshots
//! encode the registry's full instance tree — both need every
//! contract-layer type to round-trip through the deterministic byte
//! codec defined in `dragoon-chain`. Crypto types live in foreign crates
//! below the `Persist` trait, so they get free-function codecs here
//! (built on their canonical byte encodings) instead of trait impls;
//! contract-local types with public fields implement the trait directly.
//! Types with private fields ([`crate::contract::HitContract`], the
//! registry) implement it next to their definitions.

use crate::contract::{
    BatchStats, HitEvent, Phase, PhaseWindows, RejectReason, Settlement, SettlementReceipt,
};
use crate::msg::{HitMessage, PublishParams};
use dragoon_chain::store::{Persist, Reader, StoreError};
use dragoon_core::poqoea::{MismatchItem, QualityProof};
use dragoon_core::task::{EncryptedAnswer, GoldenStandards};
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_crypto::vpke::{DecryptionStatement, PlaintextClaim};
use dragoon_crypto::{
    Ciphertext, Commitment, CommitmentKey, DecryptionProof, EncryptionKey, Fr, G1Affine,
};
use dragoon_ledger::Address;

pub(crate) fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Corrupt(what.into())
}

// -- free-function codecs for foreign crypto types ---------------------

pub(crate) fn put_g1(p: &G1Affine, out: &mut Vec<u8>) {
    p.to_bytes().put(out);
}

pub(crate) fn get_g1(r: &mut Reader<'_>) -> Result<G1Affine, StoreError> {
    G1Affine::from_bytes(&r.array()?).ok_or_else(|| corrupt("invalid G1 point"))
}

pub(crate) fn put_fr(x: &Fr, out: &mut Vec<u8>) {
    x.to_bytes_le().put(out);
}

pub(crate) fn get_fr(r: &mut Reader<'_>) -> Result<Fr, StoreError> {
    Fr::from_bytes_le(&r.array()?).ok_or_else(|| corrupt("non-canonical field element"))
}

pub(crate) fn put_ciphertext(ct: &Ciphertext, out: &mut Vec<u8>) {
    ct.to_bytes().put(out);
}

pub(crate) fn get_ciphertext(r: &mut Reader<'_>) -> Result<Ciphertext, StoreError> {
    Ciphertext::from_bytes(&r.array()?).ok_or_else(|| corrupt("invalid ciphertext"))
}

pub(crate) fn put_commitment(c: &Commitment, out: &mut Vec<u8>) {
    c.0.put(out);
}

pub(crate) fn get_commitment(r: &mut Reader<'_>) -> Result<Commitment, StoreError> {
    Ok(Commitment(r.array()?))
}

pub(crate) fn put_commitment_key(k: &CommitmentKey, out: &mut Vec<u8>) {
    k.0.put(out);
}

pub(crate) fn get_commitment_key(r: &mut Reader<'_>) -> Result<CommitmentKey, StoreError> {
    Ok(CommitmentKey(r.array()?))
}

pub(crate) fn put_answer(a: &EncryptedAnswer, out: &mut Vec<u8>) {
    a.0.len().put(out);
    for ct in a.0.iter() {
        put_ciphertext(ct, out);
    }
}

pub(crate) fn get_answer(r: &mut Reader<'_>) -> Result<EncryptedAnswer, StoreError> {
    Ok(EncryptedAnswer(r.seq(get_ciphertext)?.into()))
}

pub(crate) fn put_golden(g: &GoldenStandards, out: &mut Vec<u8>) {
    g.indexes.put(out);
    g.answers.put(out);
}

pub(crate) fn get_golden(r: &mut Reader<'_>) -> Result<GoldenStandards, StoreError> {
    Ok(GoldenStandards {
        indexes: Vec::get(r)?,
        answers: Vec::get(r)?,
    })
}

pub(crate) fn put_claim(c: &PlaintextClaim, out: &mut Vec<u8>) {
    match c {
        PlaintextClaim::InRange(m) => {
            out.push(0);
            m.put(out);
        }
        PlaintextClaim::OutOfRange(p) => {
            out.push(1);
            put_g1(p, out);
        }
    }
}

pub(crate) fn get_claim(r: &mut Reader<'_>) -> Result<PlaintextClaim, StoreError> {
    match u8::get(r)? {
        0 => Ok(PlaintextClaim::InRange(u64::get(r)?)),
        1 => Ok(PlaintextClaim::OutOfRange(get_g1(r)?)),
        t => Err(corrupt(format!("bad claim tag {t}"))),
    }
}

pub(crate) fn put_dproof(p: &DecryptionProof, out: &mut Vec<u8>) {
    put_g1(&p.a, out);
    put_g1(&p.b, out);
    put_fr(&p.z, out);
}

pub(crate) fn get_dproof(r: &mut Reader<'_>) -> Result<DecryptionProof, StoreError> {
    Ok(DecryptionProof {
        a: get_g1(r)?,
        b: get_g1(r)?,
        z: get_fr(r)?,
    })
}

pub(crate) fn put_statement(s: &DecryptionStatement, out: &mut Vec<u8>) {
    put_g1(&s.ek.0, out);
    put_ciphertext(&s.ct, out);
    put_claim(&s.claim, out);
}

pub(crate) fn get_statement(r: &mut Reader<'_>) -> Result<DecryptionStatement, StoreError> {
    Ok(DecryptionStatement {
        ek: EncryptionKey(get_g1(r)?),
        ct: get_ciphertext(r)?,
        claim: get_claim(r)?,
    })
}

fn put_mismatch(m: &MismatchItem, out: &mut Vec<u8>) {
    m.index.put(out);
    put_claim(&m.claim, out);
    put_dproof(&m.proof, out);
}

fn get_mismatch(r: &mut Reader<'_>) -> Result<MismatchItem, StoreError> {
    Ok(MismatchItem {
        index: usize::get(r)?,
        claim: get_claim(r)?,
        proof: get_dproof(r)?,
    })
}

pub(crate) fn put_quality_proof(p: &QualityProof, out: &mut Vec<u8>) {
    p.items.len().put(out);
    for item in &p.items {
        put_mismatch(item, out);
    }
}

pub(crate) fn get_quality_proof(r: &mut Reader<'_>) -> Result<QualityProof, StoreError> {
    Ok(QualityProof {
        items: r.seq(get_mismatch)?,
    })
}

// -- contract-local public types ---------------------------------------

impl Persist for PhaseWindows {
    fn put(&self, out: &mut Vec<u8>) {
        self.commit_timeout.put(out);
        self.reveal.put(out);
        self.evaluate.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            commit_timeout: Option::get(r)?,
            reveal: u64::get(r)?,
            evaluate: u64::get(r)?,
        })
    }
}

impl Persist for PublishParams {
    fn put(&self, out: &mut Vec<u8>) {
        self.n.put(out);
        self.budget.put(out);
        self.k.put(out);
        self.range.lo.put(out);
        self.range.hi.put(out);
        self.theta.put(out);
        put_g1(&self.ek.0, out);
        put_commitment(&self.comm_gs, out);
        self.task_digest.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            n: usize::get(r)?,
            budget: u128::get(r)?,
            k: usize::get(r)?,
            range: PlaintextRange {
                lo: u64::get(r)?,
                hi: u64::get(r)?,
            },
            theta: u64::get(r)?,
            ek: EncryptionKey(get_g1(r)?),
            comm_gs: get_commitment(r)?,
            task_digest: r.array()?,
        })
    }
}

impl Persist for HitMessage {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            HitMessage::Publish(params) => {
                out.push(0);
                params.put(out);
            }
            HitMessage::Commit { commitment } => {
                out.push(1);
                put_commitment(commitment, out);
            }
            HitMessage::Reveal { ciphertexts, key } => {
                out.push(2);
                put_answer(ciphertexts, out);
                put_commitment_key(key, out);
            }
            HitMessage::Golden { golden, key } => {
                out.push(3);
                put_golden(golden, out);
                put_commitment_key(key, out);
            }
            HitMessage::OutRange {
                worker,
                index,
                claim,
                proof,
            } => {
                out.push(4);
                worker.put(out);
                index.put(out);
                put_claim(claim, out);
                put_dproof(proof, out);
            }
            HitMessage::Evaluate { worker, chi, proof } => {
                out.push(5);
                worker.put(out);
                chi.put(out);
                put_quality_proof(proof, out);
            }
            HitMessage::Finalize => out.push(6),
            HitMessage::Cancel => out.push(7),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => HitMessage::Publish(PublishParams::get(r)?),
            1 => HitMessage::Commit {
                commitment: get_commitment(r)?,
            },
            2 => HitMessage::Reveal {
                ciphertexts: get_answer(r)?,
                key: get_commitment_key(r)?,
            },
            3 => HitMessage::Golden {
                golden: get_golden(r)?,
                key: get_commitment_key(r)?,
            },
            4 => HitMessage::OutRange {
                worker: Address::get(r)?,
                index: usize::get(r)?,
                claim: get_claim(r)?,
                proof: get_dproof(r)?,
            },
            5 => HitMessage::Evaluate {
                worker: Address::get(r)?,
                chi: u64::get(r)?,
                proof: get_quality_proof(r)?,
            },
            6 => HitMessage::Finalize,
            7 => HitMessage::Cancel,
            t => return Err(corrupt(format!("bad hit message tag {t}"))),
        })
    }
}

impl Persist for Phase {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Phase::Setup => 0,
            Phase::Commit => 1,
            Phase::Reveal => 2,
            Phase::Evaluate => 3,
            Phase::Closed => 4,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => Phase::Setup,
            1 => Phase::Commit,
            2 => Phase::Reveal,
            3 => Phase::Evaluate,
            4 => Phase::Closed,
            t => return Err(corrupt(format!("bad phase tag {t}"))),
        })
    }
}

impl Persist for RejectReason {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RejectReason::OutOfRange { index } => {
                out.push(0);
                index.put(out);
            }
            RejectReason::LowQuality { chi } => {
                out.push(1);
                chi.put(out);
            }
            RejectReason::NoReveal => out.push(2),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => RejectReason::OutOfRange {
                index: usize::get(r)?,
            },
            1 => RejectReason::LowQuality { chi: u64::get(r)? },
            2 => RejectReason::NoReveal,
            t => return Err(corrupt(format!("bad reject reason tag {t}"))),
        })
    }
}

impl Persist for Settlement {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Settlement::Paid => out.push(0),
            Settlement::Rejected(reason) => {
                out.push(1);
                reason.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => Settlement::Paid,
            1 => Settlement::Rejected(RejectReason::get(r)?),
            t => return Err(corrupt(format!("bad settlement tag {t}"))),
        })
    }
}

impl Persist for SettlementReceipt {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker.put(out);
        self.outcome.put(out);
        self.amount.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            worker: Address::get(r)?,
            outcome: Settlement::get(r)?,
            amount: u128::get(r)?,
        })
    }
}

impl Persist for BatchStats {
    fn put(&self, out: &mut Vec<u8>) {
        self.batches.put(out);
        self.items.put(out);
        self.largest.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            batches: u64::get(r)?,
            items: u64::get(r)?,
            largest: u64::get(r)?,
        })
    }
}

impl Persist for HitEvent {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            HitEvent::Published {
                requester,
                n,
                budget,
                k,
            } => {
                out.push(0);
                requester.put(out);
                n.put(out);
                budget.put(out);
                k.put(out);
            }
            HitEvent::CommitAccepted { worker, count } => {
                out.push(1);
                worker.put(out);
                count.put(out);
            }
            HitEvent::CommitClosed => out.push(2),
            HitEvent::Revealed { worker } => {
                out.push(3);
                worker.put(out);
            }
            HitEvent::RevealClosed {
                revealed,
                defaulted,
            } => {
                out.push(4);
                revealed.put(out);
                defaulted.put(out);
            }
            HitEvent::GoldenOpened => out.push(5),
            HitEvent::OutRanged { worker, index } => {
                out.push(6);
                worker.put(out);
                index.put(out);
            }
            HitEvent::Evaluated { worker, chi } => {
                out.push(7);
                worker.put(out);
                chi.put(out);
            }
            HitEvent::Paid { worker, amount } => {
                out.push(8);
                worker.put(out);
                amount.put(out);
            }
            HitEvent::Refunded { requester, amount } => {
                out.push(9);
                requester.put(out);
                amount.put(out);
            }
            HitEvent::Cancelled { refunded } => {
                out.push(10);
                refunded.put(out);
            }
            HitEvent::Closed => out.push(11),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => HitEvent::Published {
                requester: Address::get(r)?,
                n: usize::get(r)?,
                budget: u128::get(r)?,
                k: usize::get(r)?,
            },
            1 => HitEvent::CommitAccepted {
                worker: Address::get(r)?,
                count: usize::get(r)?,
            },
            2 => HitEvent::CommitClosed,
            3 => HitEvent::Revealed {
                worker: Address::get(r)?,
            },
            4 => HitEvent::RevealClosed {
                revealed: usize::get(r)?,
                defaulted: usize::get(r)?,
            },
            5 => HitEvent::GoldenOpened,
            6 => HitEvent::OutRanged {
                worker: Address::get(r)?,
                index: usize::get(r)?,
            },
            7 => HitEvent::Evaluated {
                worker: Address::get(r)?,
                chi: u64::get(r)?,
            },
            8 => HitEvent::Paid {
                worker: Address::get(r)?,
                amount: u128::get(r)?,
            },
            9 => HitEvent::Refunded {
                requester: Address::get(r)?,
                amount: u128::get(r)?,
            },
            10 => HitEvent::Cancelled {
                refunded: u128::get(r)?,
            },
            11 => HitEvent::Closed,
            t => return Err(corrupt(format!("bad hit event tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crypto_codecs_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let kp = dragoon_crypto::KeyPair::generate(&mut rng);
        let ct = kp.ek.encrypt(3, &mut rng);
        let mut out = Vec::new();
        put_g1(&kp.ek.0, &mut out);
        put_ciphertext(&ct, &mut out);
        put_claim(&PlaintextClaim::InRange(3), &mut out);
        let mut r = Reader::new(&out);
        assert_eq!(get_g1(&mut r).unwrap(), kp.ek.0);
        assert_eq!(get_ciphertext(&mut r).unwrap(), ct);
        assert_eq!(get_claim(&mut r).unwrap(), PlaintextClaim::InRange(3));
        assert!(r.is_empty());
    }

    #[test]
    fn hit_message_round_trips() {
        let mut rng = StdRng::seed_from_u64(11);
        let kp = dragoon_crypto::KeyPair::generate(&mut rng);
        let key = CommitmentKey::random(&mut rng);
        let msgs = vec![
            HitMessage::Publish(PublishParams {
                n: 6,
                budget: 3000,
                k: 3,
                range: PlaintextRange::binary(),
                theta: 3,
                ek: kp.ek,
                comm_gs: Commitment::commit(b"gs", &key),
                task_digest: [9u8; 32],
            }),
            HitMessage::Commit {
                commitment: Commitment::commit(b"c", &key),
            },
            HitMessage::Golden {
                golden: GoldenStandards {
                    indexes: vec![0, 2],
                    answers: vec![1, 0],
                },
                key,
            },
            HitMessage::Finalize,
            HitMessage::Cancel,
        ];
        for msg in msgs {
            let mut out = Vec::new();
            msg.put(&mut out);
            let decoded = HitMessage::get(&mut Reader::new(&out)).unwrap();
            // HitMessage has no PartialEq; compare re-encodings.
            let mut again = Vec::new();
            decoded.put(&mut again);
            assert_eq!(out, again);
        }
    }

    #[test]
    fn event_and_settlement_round_trip() {
        let events = vec![
            HitEvent::Published {
                requester: Address::from_byte(1),
                n: 6,
                budget: 3000,
                k: 3,
            },
            HitEvent::RevealClosed {
                revealed: 2,
                defaulted: 1,
            },
            HitEvent::Paid {
                worker: Address::from_byte(2),
                amount: 1000,
            },
            HitEvent::Closed,
        ];
        for e in &events {
            let mut out = Vec::new();
            e.put(&mut out);
            assert_eq!(&HitEvent::get(&mut Reader::new(&out)).unwrap(), e);
        }
        let s = SettlementReceipt {
            worker: Address::from_byte(3),
            outcome: Settlement::Rejected(RejectReason::LowQuality { chi: 2 }),
            amount: 0,
        };
        let mut out = Vec::new();
        s.put(&mut out);
        assert_eq!(SettlementReceipt::get(&mut Reader::new(&out)).unwrap(), s);
    }
}
