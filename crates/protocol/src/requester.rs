//! The requester client of Π_hit (Fig 5): key management, task
//! publication, answer evaluation and proof generation.

use crate::storage::{encode_questions, ContentStore, Digest};
use dragoon_contract::{HitMessage, PublishParams};
use dragoon_core::poqoea;
use dragoon_core::task::{Answer, EncryptedAnswer, GoldenStandards, TaskSpec};
use dragoon_core::workload::Workload;
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{Decrypted, KeyPair, PlaintextRange};
use dragoon_crypto::vpke::{self, PlaintextClaim};
use dragoon_ledger::Address;
use rand::Rng;

/// What the requester decided about one worker's submission.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Quality ≥ Θ — accept (silence; the contract pays by default).
    Accept {
        /// The computed quality.
        quality: u64,
        /// The decrypted answer vector (the crowdsourced data!).
        answer: Answer,
    },
    /// Some item is out of range — reject with a VPKE proof.
    RejectOutOfRange {
        /// The message to submit.
        msg: HitMessage,
    },
    /// Quality < Θ — reject with a PoQoEA proof.
    RejectLowQuality {
        /// The proven quality.
        quality: u64,
        /// The message to submit.
        msg: HitMessage,
    },
}

/// The requester client.
///
/// One key pair serves all tasks — the paper highlights that all protocol
/// scripts are simulatable without the secret key, so key reuse leaks
/// nothing (§VI "Off-chain costs").
pub struct Requester {
    /// The requester's on-chain identity.
    pub addr: Address,
    keypair: KeyPair,
    task: TaskSpec,
    golden: GoldenStandards,
    gs_key: CommitmentKey,
    task_digest: Digest,
}

impl Requester {
    /// Creates a requester for a workload, uploading the question set to
    /// off-chain storage.
    pub fn new<R: Rng + ?Sized>(
        addr: Address,
        workload: &Workload,
        store: &mut ContentStore,
        rng: &mut R,
    ) -> Self {
        Self::with_keypair(addr, KeyPair::generate(rng), workload, store, rng)
    }

    /// Creates a requester reusing an existing key pair (one key pair
    /// across all tasks).
    pub fn with_keypair<R: Rng + ?Sized>(
        addr: Address,
        keypair: KeyPair,
        workload: &Workload,
        store: &mut ContentStore,
        rng: &mut R,
    ) -> Self {
        let task_digest = store.put(encode_questions(&workload.spec.questions));
        Self {
            addr,
            keypair,
            task: workload.spec.clone(),
            golden: workload.golden.clone(),
            gs_key: CommitmentKey::random(rng),
            task_digest,
        }
    }

    /// The requester's public encryption key.
    pub fn public_key(&self) -> dragoon_crypto::elgamal::EncryptionKey {
        self.keypair.ek
    }

    /// The task this requester runs.
    pub fn task(&self) -> &TaskSpec {
        &self.task
    }

    /// Phase 1: the publish message (freezes `B` in the contract).
    pub fn publish_msg(&self) -> HitMessage {
        HitMessage::Publish(PublishParams {
            n: self.task.n,
            budget: self.task.budget,
            k: self.task.k,
            range: self.task.range,
            theta: self.task.theta,
            ek: self.keypair.ek,
            comm_gs: Commitment::commit(&self.golden.encode(), &self.gs_key),
            task_digest: self.task_digest,
        })
    }

    /// Phase 3: the golden opening message.
    pub fn golden_msg(&self) -> HitMessage {
        HitMessage::Golden {
            golden: self.golden.clone(),
            key: self.gs_key,
        }
    }

    /// Decrypts a revealed submission and decides accept / reject,
    /// producing the proof message when rejecting (Fig 5, phase 3).
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        worker: Address,
        cts: &EncryptedAnswer,
        rng: &mut R,
    ) -> Verdict {
        self.evaluator().evaluate(worker, cts, rng)
    }

    /// A self-contained evaluation capsule: everything `evaluate` reads,
    /// cloneable into a proof job so evaluation (decrypt + VPKE/PoQoEA
    /// proving) can run on a proving worker thread while the requester
    /// agent stays on the sim thread.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator {
            keypair: self.keypair,
            golden: self.golden.clone(),
            range: self.task.range,
            theta: self.task.theta,
        }
    }

    /// The decryption key (exposed for benches of the proving cost; a
    /// real deployment would keep this private).
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// The golden standards (the requester's secret parameters).
    pub fn golden(&self) -> &GoldenStandards {
        &self.golden
    }

    /// The range of the task's questions.
    pub fn range(&self) -> PlaintextRange {
        self.task.range
    }
}

/// The detachable evaluation half of a [`Requester`]: owns the key
/// pair, gold standards and acceptance parameters — exactly what one
/// evaluation touches, nothing of the on-chain identity. `Clone` so the
/// proving service can move one per verdict job across threads.
#[derive(Clone)]
pub struct Evaluator {
    keypair: KeyPair,
    golden: GoldenStandards,
    range: PlaintextRange,
    theta: u64,
}

impl Evaluator {
    /// Decrypts a revealed submission and decides accept / reject,
    /// producing the proof message when rejecting (Fig 5, phase 3).
    /// Byte-for-byte the evaluation [`Requester::evaluate`] performs.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        worker: Address,
        cts: &EncryptedAnswer,
        rng: &mut R,
    ) -> Verdict {
        let range = self.range;
        // Decrypt the whole vector at once; find the first out-of-range
        // item.
        let mut plain = Vec::with_capacity(cts.len());
        for (i, decrypted) in self
            .keypair
            .dk
            .decrypt_batch(&cts.0, &range)
            .iter()
            .enumerate()
        {
            match decrypted {
                Decrypted::InRange(m) => plain.push(*m),
                Decrypted::OutOfRange(_) => {
                    let claim = PlaintextClaim::from_decrypted(decrypted);
                    let proof = vpke::prove_claim_with_key(&self.keypair, &cts.0[i], &claim, rng);
                    return Verdict::RejectOutOfRange {
                        msg: HitMessage::OutRange {
                            worker,
                            index: i,
                            claim,
                            proof,
                        },
                    };
                }
            }
        }
        let answer = Answer(plain);
        let q = dragoon_core::quality(&answer, &self.golden);
        if q >= self.theta {
            Verdict::Accept { quality: q, answer }
        } else {
            // The gold positions are already decrypted: prove those
            // plaintexts rather than decrypting them again.
            let (chi, proof) =
                poqoea::prove_quality_of_answer(&self.keypair, cts, &answer, &self.golden, rng);
            debug_assert_eq!(chi, q);
            Verdict::RejectLowQuality {
                quality: chi,
                msg: HitMessage::Evaluate { worker, chi, proof },
            }
        }
    }

    /// The number of proving cost units one evaluation of `cts` models:
    /// every item is decrypted, and (pessimistically) each gold standard
    /// may need a VPKE proof.
    pub fn evaluation_cost(&self, cts: &EncryptedAnswer) -> u64 {
        cts.len() as u64 + 2 * self.golden.answers.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_core::workload::{draw_answer, imagenet_workload, AnswerModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (StdRng, Workload, ContentStore, Requester) {
        let mut rng = StdRng::seed_from_u64(0x5e71);
        let w = imagenet_workload(4_000, &mut rng);
        let mut store = ContentStore::new();
        let r = Requester::new(Address::from_byte(1), &w, &mut store, &mut rng);
        (rng, w, store, r)
    }

    #[test]
    fn publish_message_carries_task_params() {
        let (_, w, store, r) = setup();
        let HitMessage::Publish(p) = r.publish_msg() else {
            panic!("expected publish");
        };
        assert_eq!(p.n, w.spec.n);
        assert_eq!(p.k, w.spec.k);
        assert_eq!(p.theta, w.spec.theta);
        // The digest resolves to the question set in the store.
        assert!(store.get(&p.task_digest).is_some());
    }

    #[test]
    fn golden_opens_publish_commitment() {
        let (_, _, _, r) = setup();
        let HitMessage::Publish(p) = r.publish_msg() else {
            panic!()
        };
        let HitMessage::Golden { golden, key } = r.golden_msg() else {
            panic!()
        };
        assert!(p.comm_gs.open(&golden.encode(), &key));
    }

    #[test]
    fn accepts_good_answers() {
        let (mut rng, w, _, r) = setup();
        let a = draw_answer(
            &AnswerModel::Diligent { accuracy: 1.0 },
            &w.truth,
            &w.spec.range,
            &mut rng,
        );
        let cts = a.encrypt(&r.public_key(), &mut rng);
        match r.evaluate(Address::from_byte(9), &cts, &mut rng) {
            Verdict::Accept { quality, answer } => {
                assert_eq!(quality, 6);
                assert_eq!(answer, a, "requester recovers the submitted data");
            }
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn rejects_low_quality_with_proof() {
        let (mut rng, w, _, r) = setup();
        let a = draw_answer(
            &AnswerModel::Diligent { accuracy: 0.0 },
            &w.truth,
            &w.spec.range,
            &mut rng,
        );
        let cts = a.encrypt(&r.public_key(), &mut rng);
        match r.evaluate(Address::from_byte(9), &cts, &mut rng) {
            Verdict::RejectLowQuality { quality, msg } => {
                assert_eq!(quality, 0);
                let HitMessage::Evaluate { chi, proof, .. } = msg else {
                    panic!()
                };
                assert_eq!(chi, 0);
                assert_eq!(proof.len(), 6);
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn low_quality_message_equals_the_one_task_prover_byte_for_byte() {
        // The evaluator proves the plaintexts it already decrypted; the
        // message — and the rng afterwards — must be what
        // `prove_quality_with_key`, which decrypts the gold positions
        // itself, produces from the same rng state.
        let (mut rng, w, _, r) = setup();
        let mut a = draw_answer(
            &AnswerModel::Diligent { accuracy: 1.0 },
            &w.truth,
            &w.spec.range,
            &mut rng,
        );
        // Three gold standards wrong, three right: mismatches are proven
        // and matches are skipped in one proof.
        for &i in &w.golden.indexes[..3] {
            a.0[i] = 1 - a.0[i];
        }
        let cts = a.encrypt(&r.public_key(), &mut rng);
        let worker = Address::from_byte(9);
        let mut reference_rng = rng.clone();
        let (chi, proof) = poqoea::prove_quality_with_key(
            r.keypair(),
            &cts,
            r.golden(),
            &r.range(),
            &mut reference_rng,
        );
        assert_eq!((chi, proof.len()), (3, 3));
        let expect = HitMessage::Evaluate { worker, chi, proof };
        let Verdict::RejectLowQuality { quality, msg } =
            r.evaluator().evaluate(worker, &cts, &mut rng)
        else {
            panic!("expected a low-quality rejection");
        };
        assert_eq!(quality, 3);
        assert_eq!(msg.encode(), expect.encode());
        assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
    }

    #[test]
    fn rejects_out_of_range_with_vpke() {
        let (mut rng, w, _, r) = setup();
        let a = draw_answer(&AnswerModel::OutOfRange, &w.truth, &w.spec.range, &mut rng);
        let cts = a.encrypt(&r.public_key(), &mut rng);
        match r.evaluate(Address::from_byte(9), &cts, &mut rng) {
            Verdict::RejectOutOfRange { msg } => {
                let HitMessage::OutRange { index, .. } = msg else {
                    panic!()
                };
                assert_eq!(index, 0);
            }
            other => panic!("expected outrange, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_verdict_reports_first_index_and_raw_point() {
        // Batched decryption must report what the per-item scan did:
        // the first out-of-range position, its raw group element, and a
        // proof that verifies — later out-of-range items are ignored.
        let (mut rng, w, _, r) = setup();
        let mut a = draw_answer(
            &AnswerModel::Diligent { accuracy: 1.0 },
            &w.truth,
            &w.spec.range,
            &mut rng,
        );
        a.0[17] = 5;
        a.0[60] = 9;
        let cts = a.encrypt(&r.public_key(), &mut rng);
        let dk = r.keypair().dk;
        let per_item_first = cts
            .0
            .iter()
            .position(|ct| matches!(dk.decrypt(ct, &w.spec.range), Decrypted::OutOfRange(_)));
        assert_eq!(per_item_first, Some(17));
        let Verdict::RejectOutOfRange {
            msg:
                HitMessage::OutRange {
                    index,
                    claim,
                    proof,
                    ..
                },
        } = r.evaluate(Address::from_byte(9), &cts, &mut rng)
        else {
            panic!("expected outrange");
        };
        assert_eq!(index, 17);
        assert_eq!(
            claim,
            PlaintextClaim::OutOfRange(dk.decrypt_raw(&cts.0[17]))
        );
        let stmt = vpke::DecryptionStatement {
            ek: r.public_key(),
            ct: cts.0[17],
            claim,
        };
        assert!(vpke::verify(&stmt, &proof));
    }
}
