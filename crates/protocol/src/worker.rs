//! The worker client of Π_hit (Fig 5) and adversarial worker behaviours.

use dragoon_contract::HitMessage;
use dragoon_core::task::{Answer, EncryptedAnswer};
use dragoon_core::workload::{draw_answer, AnswerModel, GroundTruth};
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{EncryptionKey, PlaintextRange};
use dragoon_crypto::precomp::{FixedBaseTable, ProofCache};
use dragoon_ledger::Address;
use rand::Rng;

/// How a worker behaves during the protocol run.
#[derive(Clone, Debug)]
pub enum WorkerBehavior {
    /// Follows the protocol, producing answers from a model.
    Honest(AnswerModel),
    /// Follows the protocol, submitting exactly this answer vector
    /// (used by the real-vs-ideal tests to fix both worlds' inputs).
    Fixed(Answer),
    /// Tries to free-ride by replaying the first commitment it observes
    /// in the mempool (the copy-and-paste attack the commit–reveal
    /// structure plus duplicate-rejection defeats).
    CopyPaste,
    /// Commits but never reveals — recorded as `⊥`, unpaid.
    CommitNoReveal,
    /// Reveals ciphertexts that do not open the commitment (malformed
    /// reveal; rejected on-chain, so equivalent to `⊥`).
    BadReveal,
}

impl WorkerBehavior {
    /// Whether this behaviour's commit encrypts an answer — every one
    /// but a copy-paste replay — and so reads the requester key's
    /// fixed-base table.
    pub fn encrypts(&self) -> bool {
        !matches!(self, WorkerBehavior::CopyPaste)
    }
}

/// Everything a commit proof-job computes: the drawn answer, its
/// ciphertexts, the blinding key and the resulting commitment. Produced
/// off the hot path by [`Worker::prepare_commit`] (pure — safe to run on
/// a proving worker thread) and installed into the session by
/// [`Worker::install_commit`] when the job's latency elapses.
#[derive(Clone, Debug)]
pub struct CommitArtifacts {
    /// The plaintext answer (None for copy-paste replays).
    pub answer: Option<Answer>,
    /// The encrypted answer (None for copy-paste replays).
    pub ciphertexts: Option<EncryptedAnswer>,
    /// The commitment blinding key (None for copy-paste replays).
    pub key: Option<CommitmentKey>,
    /// The commitment to submit.
    pub commitment: Commitment,
}

/// The worker client: holds the answer, blinding key and ciphertexts
/// between the commit and reveal phases.
pub struct Worker {
    /// The worker's on-chain identity.
    pub addr: Address,
    /// The behaviour this worker follows.
    pub behavior: WorkerBehavior,
    /// Whether the reveal has gone out (whoever drives the session sets
    /// it, so a commitment is opened once).
    pub reveal_sent: bool,
    answer: Option<Answer>,
    ciphertexts: Option<dragoon_core::task::EncryptedAnswer>,
    key: Option<CommitmentKey>,
    commitment: Option<Commitment>,
}

impl Worker {
    /// Creates a worker with an address and behaviour.
    pub fn new(addr: Address, behavior: WorkerBehavior) -> Self {
        Self {
            addr,
            behavior,
            reveal_sent: false,
            answer: None,
            ciphertexts: None,
            key: None,
            commitment: None,
        }
    }

    /// The compute half of the commit: draws the answer, encrypts it and
    /// commits — everything the proving service runs off the hot path.
    /// Pure in the session state (`&self`-free), so it can execute on a
    /// worker thread while the agent object stays on the sim thread.
    ///
    /// `copied` is the commitment a copy-paste attacker decided to
    /// replay at enqueue time (None aborts the copy). `cache` enables
    /// the keyed fixed-base table for the requester's encryption key;
    /// either way the answer vector is encrypted as one batch (a single
    /// field inversion for its `2N` points).
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_commit<R: Rng + ?Sized>(
        behavior: &WorkerBehavior,
        truth: &GroundTruth,
        range: PlaintextRange,
        ek: &EncryptionKey,
        copied: Option<Commitment>,
        cache: Option<&ProofCache>,
        rng: &mut R,
    ) -> Option<CommitArtifacts> {
        Self::commit_artifacts(behavior, truth, range, copied, rng, |answer, rng| {
            answer.encrypt_cached(ek, rng, cache)
        })
    }

    /// [`Self::prepare_commit`] with the requester key's fixed-base
    /// table already in hand (the market builds it before the job's
    /// batch runs): the same artifacts and rng draws.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_commit_with_table<R: Rng + ?Sized>(
        behavior: &WorkerBehavior,
        truth: &GroundTruth,
        range: PlaintextRange,
        ek: &EncryptionKey,
        copied: Option<Commitment>,
        table: Option<&FixedBaseTable>,
        rng: &mut R,
    ) -> Option<CommitArtifacts> {
        Self::commit_artifacts(behavior, truth, range, copied, rng, |answer, rng| {
            answer.encrypt_with_table(ek, rng, table)
        })
    }

    /// The commit's draw, encryption (by `encrypt`) and commitment.
    fn commit_artifacts<R: Rng + ?Sized>(
        behavior: &WorkerBehavior,
        truth: &GroundTruth,
        range: PlaintextRange,
        copied: Option<Commitment>,
        rng: &mut R,
        encrypt: impl FnOnce(&Answer, &mut R) -> EncryptedAnswer,
    ) -> Option<CommitArtifacts> {
        match behavior {
            WorkerBehavior::CopyPaste => {
                // Replay an observed commitment verbatim.
                let commitment = copied?;
                Some(CommitArtifacts {
                    answer: None,
                    ciphertexts: None,
                    key: None,
                    commitment,
                })
            }
            WorkerBehavior::Honest(_)
            | WorkerBehavior::Fixed(_)
            | WorkerBehavior::CommitNoReveal
            | WorkerBehavior::BadReveal => {
                let answer = match behavior {
                    WorkerBehavior::Honest(m) => draw_answer(m, truth, &range, rng),
                    WorkerBehavior::Fixed(a) => a.clone(),
                    // Non-revealers still commit to something plausible.
                    _ => draw_answer(&AnswerModel::RandomBot, truth, &range, rng),
                };
                let cts = encrypt(&answer, rng);
                let key = CommitmentKey::random(rng);
                let commitment = Commitment::commit(&cts.encode(), &key);
                Some(CommitArtifacts {
                    answer: Some(answer),
                    ciphertexts: Some(cts),
                    key: Some(key),
                    commitment,
                })
            }
        }
    }

    /// The install half of the commit: stores the artifacts in the
    /// session and returns the message to submit.
    pub fn install_commit(&mut self, artifacts: CommitArtifacts) -> HitMessage {
        let commitment = artifacts.commitment;
        self.answer = artifacts.answer;
        self.ciphertexts = artifacts.ciphertexts;
        self.key = artifacts.key;
        self.commitment = Some(commitment);
        HitMessage::Commit { commitment }
    }

    /// Phase 2-b: produce the reveal message (if this behaviour reveals).
    pub fn reveal_msg<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<HitMessage> {
        Self::reveal_msg_with(&self.behavior, self.ciphertexts.as_ref(), self.key, rng)
    }

    /// The static form of [`Self::reveal_msg`]: everything the reveal
    /// reads, passed by value/reference so a proof job can capture clones
    /// and run off-thread.
    pub fn reveal_msg_with<R: Rng + ?Sized>(
        behavior: &WorkerBehavior,
        ciphertexts: Option<&EncryptedAnswer>,
        key: Option<CommitmentKey>,
        rng: &mut R,
    ) -> Option<HitMessage> {
        match behavior {
            WorkerBehavior::CommitNoReveal | WorkerBehavior::CopyPaste => None,
            WorkerBehavior::BadReveal => {
                // Open with a wrong key.
                Some(HitMessage::Reveal {
                    ciphertexts: ciphertexts.cloned()?,
                    key: CommitmentKey::random(rng),
                })
            }
            WorkerBehavior::Honest(_) | WorkerBehavior::Fixed(_) => Some(HitMessage::Reveal {
                ciphertexts: ciphertexts.cloned()?,
                key: key?,
            }),
        }
    }

    /// The plaintext answer this worker produced (None for copiers).
    pub fn answer(&self) -> Option<&Answer> {
        self.answer.as_ref()
    }

    /// The commitment this worker submitted.
    pub fn commitment(&self) -> Option<&Commitment> {
        self.commitment.as_ref()
    }

    /// The stored ciphertexts (what a reveal job needs to capture).
    pub fn ciphertexts(&self) -> Option<&EncryptedAnswer> {
        self.ciphertexts.as_ref()
    }

    /// The stored blinding key (what a reveal job needs to capture).
    pub fn commit_key(&self) -> Option<CommitmentKey> {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_core::workload::{imagenet_workload, Workload};
    use dragoon_crypto::elgamal::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Worker {
        /// Phase 2-a: produce the commit message.
        ///
        /// `observed` is the set of commitments already visible in the
        /// mempool/chain — the copy-paste attacker replays one of them.
        pub fn commit_msg<R: Rng + ?Sized>(
            &mut self,
            workload: &Workload,
            ek: &EncryptionKey,
            observed: &[Commitment],
            rng: &mut R,
        ) -> Option<HitMessage> {
            let copied = match &self.behavior {
                WorkerBehavior::CopyPaste => Some(*observed.first()?),
                _ => None,
            };
            let artifacts = Self::prepare_commit(
                &self.behavior,
                &workload.truth,
                workload.spec.range,
                ek,
                copied,
                None,
                rng,
            )?;
            Some(self.install_commit(artifacts))
        }
    }

    fn setup() -> (StdRng, Workload, KeyPair) {
        let mut rng = StdRng::seed_from_u64(0x30b1);
        let w = imagenet_workload(4_000, &mut rng);
        let kp = KeyPair::generate(&mut rng);
        (rng, w, kp)
    }

    /// A behaviour `encrypts()` exactly when its commit reads the key's
    /// table: the market gives a table to those jobs alone, so its
    /// `cache_hits + cache_misses` are the lookups `prepare_commit`
    /// would make.
    #[test]
    fn encrypting_behaviours_are_the_ones_that_read_the_table() {
        let (mut rng, w, kp) = setup();
        let observed = Commitment::commit(b"seen", &CommitmentKey::random(&mut rng));
        let behaviors = [
            WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.9 }),
            WorkerBehavior::Fixed(Answer(vec![0; w.truth.0.len()])),
            WorkerBehavior::CopyPaste,
            WorkerBehavior::CommitNoReveal,
            WorkerBehavior::BadReveal,
        ];
        for behavior in behaviors {
            let cache = ProofCache::new();
            let copied = matches!(behavior, WorkerBehavior::CopyPaste).then_some(observed);
            let artifacts = Worker::prepare_commit(
                &behavior,
                &w.truth,
                w.spec.range,
                &kp.ek,
                copied,
                Some(&cache),
                &mut rng,
            )
            .expect("every behaviour commits");
            let lookups = cache.stats().hits + cache.stats().misses;
            assert_eq!(lookups, u64::from(behavior.encrypts()), "{behavior:?}");
            assert_eq!(artifacts.ciphertexts.is_some(), behavior.encrypts());
        }
    }

    #[test]
    fn a_commit_with_its_table_in_hand_matches_one_through_the_cache() {
        let (_, w, kp) = setup();
        let behavior = WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.9 });
        let table = FixedBaseTable::new(&kp.ek.0);
        let cache = ProofCache::new();
        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let (range, truth) = (w.spec.range, &w.truth);
        let via_cache =
            Worker::prepare_commit(&behavior, truth, range, &kp.ek, None, Some(&cache), &mut a);
        let via_table = Worker::prepare_commit_with_table(
            &behavior,
            truth,
            range,
            &kp.ek,
            None,
            Some(&table),
            &mut b,
        );
        let (via_cache, via_table) = (via_cache.unwrap(), via_table.unwrap());
        assert_eq!(via_cache.commitment, via_table.commitment);
        assert_eq!(via_cache.ciphertexts, via_table.ciphertexts);
        assert_eq!(via_cache.answer, via_table.answer);
    }

    #[test]
    fn honest_worker_commits_and_reveals() {
        let (mut rng, w, kp) = setup();
        let mut worker = Worker::new(
            Address::from_byte(1),
            WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.9 }),
        );
        let commit = worker.commit_msg(&w, &kp.ek, &[], &mut rng).unwrap();
        let HitMessage::Commit { commitment } = commit else {
            panic!()
        };
        let reveal = worker.reveal_msg(&mut rng).unwrap();
        let HitMessage::Reveal { ciphertexts, key } = reveal else {
            panic!()
        };
        assert!(commitment.open(&ciphertexts.encode(), &key));
        assert_eq!(worker.answer().unwrap().len(), 106);
    }

    #[test]
    fn copy_paste_replays_observed_commitment() {
        let (mut rng, w, kp) = setup();
        let mut honest = Worker::new(
            Address::from_byte(1),
            WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 1.0 }),
        );
        let HitMessage::Commit { commitment } =
            honest.commit_msg(&w, &kp.ek, &[], &mut rng).unwrap()
        else {
            panic!()
        };
        let mut copier = Worker::new(Address::from_byte(2), WorkerBehavior::CopyPaste);
        let HitMessage::Commit { commitment: copied } = copier
            .commit_msg(&w, &kp.ek, &[commitment], &mut rng)
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(copied, commitment, "the attack is an exact replay");
        assert!(copier.reveal_msg(&mut rng).is_none());
    }

    #[test]
    fn copy_paste_with_nothing_to_copy_aborts() {
        let (mut rng, w, kp) = setup();
        let mut copier = Worker::new(Address::from_byte(2), WorkerBehavior::CopyPaste);
        assert!(copier.commit_msg(&w, &kp.ek, &[], &mut rng).is_none());
    }

    #[test]
    fn no_reveal_behaviour() {
        let (mut rng, w, kp) = setup();
        let mut worker = Worker::new(Address::from_byte(3), WorkerBehavior::CommitNoReveal);
        assert!(worker.commit_msg(&w, &kp.ek, &[], &mut rng).is_some());
        assert!(worker.reveal_msg(&mut rng).is_none());
    }

    #[test]
    fn bad_reveal_does_not_open() {
        let (mut rng, w, kp) = setup();
        let mut worker = Worker::new(Address::from_byte(4), WorkerBehavior::BadReveal);
        let HitMessage::Commit { commitment } =
            worker.commit_msg(&w, &kp.ek, &[], &mut rng).unwrap()
        else {
            panic!()
        };
        let HitMessage::Reveal { ciphertexts, key } = worker.reveal_msg(&mut rng).unwrap() else {
            panic!()
        };
        assert!(!commitment.open(&ciphertexts.encode(), &key));
    }
}
