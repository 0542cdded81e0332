//! The requester client of Π_hit (Fig 5): key management, task
//! publication, answer evaluation and proof generation — and the
//! [`Sequencer`], the one place that decides *when* each of the
//! requester's transactions goes out.

use crate::storage::{encode_questions, ContentStore, Digest};
use dragoon_contract::{HitContract, HitMessage, Phase, PublishParams};
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
        let keypair = KeyPair::generate(rng);
        Self::with_keypair(addr, keypair, CommitmentKey::random(rng), workload, store)
    }

    /// Creates a requester from a key pair and a golden-standard
    /// commitment key drawn elsewhere (a market draws every requester's
    /// and builds the public keys together).
    pub fn with_keypair(
        addr: Address,
        keypair: KeyPair,
        gs_key: CommitmentKey,
        workload: &Workload,
        store: &mut ContentStore,
    ) -> Self {
        let task_digest = store.put(encode_questions(&workload.spec.questions));
        Self {
            addr,
            keypair,
            task: workload.spec.clone(),
            golden: workload.golden.clone(),
            gs_key,
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
        let decrypted = self.keypair.dk.decrypt_batch(&cts.0, &self.range);
        self.verdict(worker, cts, &decrypted, rng)
    }

    /// [`Self::evaluate`] for every revealed submission of a HIT, in
    /// order: all their ciphertexts are decrypted by one
    /// [`dragoon_crypto::DecryptionKey::decrypt_batch`] — one vector
    /// under the one secret key, which fills the eight-lane kernel even
    /// when each answer is short — and the verdicts are then decided one
    /// by one. Decryption draws nothing from `rng`, so every verdict and
    /// every draw is what consecutive `evaluate` calls produce.
    pub fn evaluate_all<R: Rng + ?Sized>(
        &self,
        submissions: &[(Address, EncryptedAnswer)],
        rng: &mut R,
    ) -> Vec<(Address, Verdict)> {
        let cts: Vec<_> = submissions
            .iter()
            .flat_map(|(_, cts)| cts.0.iter().copied())
            .collect();
        let decrypted = self.keypair.dk.decrypt_batch(&cts, &self.range);
        let mut rest = &decrypted[..];
        submissions
            .iter()
            .map(|(worker, cts)| {
                let (mine, tail) = rest.split_at(cts.len());
                rest = tail;
                (*worker, self.verdict(*worker, cts, mine, rng))
            })
            .collect()
    }

    /// The verdict on `cts`, given its decryption: the first
    /// out-of-range item is rejected with a VPKE proof, otherwise the
    /// quality against Θ decides, with a PoQoEA proof on rejection.
    fn verdict<R: Rng + ?Sized>(
        &self,
        worker: Address,
        cts: &EncryptedAnswer,
        decrypted: &[Decrypted],
        rng: &mut R,
    ) -> Verdict {
        let mut plain = Vec::with_capacity(cts.len());
        for (i, decrypted) in decrypted.iter().enumerate() {
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

/// The order in which a requester runs phase 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Fig 5: open the gold standards, evaluate once the opening has
    /// confirmed, send each rejection as soon as it is proven.
    GoldenFirst,
    /// The golden-withholding cartel: every verdict is decided
    /// **off-chain first** (the requester holds the decryption key;
    /// nothing forces evaluation through the chain) and the gold
    /// standards open only when a rejection will land. A HIT whose
    /// workers all pass keeps its golds secret — reusable across the
    /// cartel's other HITs — and settles through the deadline backstop;
    /// a HIT with rejectable work opens the golds, then claws back every
    /// rejected share.
    EvaluateFirst,
}

/// One transaction (or one evaluation) the requester owes its instance.
#[derive(Clone, Debug)]
pub enum Step {
    /// The commit window lapsed short of `K`: submit `Cancel`.
    Cancel,
    /// Submit [`Requester::golden_msg`].
    OpenGolden,
    /// Decrypt and judge every revealed submission, then report the
    /// verdicts through [`Sequencer::verdicts_landed`] — in the same
    /// round or, when proving takes time, rounds later.
    Evaluate,
    /// Submit these held rejections, in order.
    Reject(Vec<HitMessage>),
    /// Submit `Finalize`.
    Finalize,
}

/// The last thing a [`Sequencer`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Idle,
    CancelSent,
    /// The golden opening is out; what depends on it waits for it to
    /// confirm on-chain.
    GoldenSent,
    /// `Evaluate` was handed out; its verdicts have not landed.
    Evaluating,
    /// Evaluate-first: verdicts landed, rejections held, golds closed.
    Decided,
    /// Every rejection is out: `Finalize` waits for them to settle and
    /// for the evaluate deadline.
    Settling,
    FinalizeSent,
}

/// The requester's whole reaction to its instance, one step per round:
/// cancel an unfillable task, then sequence phase 3 so that every
/// message waits for the one it depends on to confirm on-chain — a
/// rushing adversary can reorder messages *within* a round, so
/// dependent messages must not share one. The market engine steps it
/// (for a one-HIT run as for a market) and feeds the verdicts back when
/// the evaluation's proof job releases: in the round `Evaluate` was
/// issued when proving latency is not modeled, rounds later when it is.
#[derive(Clone, Debug)]
pub struct Sequencer {
    strategy: Strategy,
    stage: Stage,
    /// Workers challenged; `Finalize` waits for their settlements.
    targets: Vec<Address>,
    /// Rejections decided before the golds opened (evaluate-first).
    held: Vec<HitMessage>,
    accepted: usize,
}

impl Sequencer {
    /// A sequencer that has sent nothing yet.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            stage: Stage::Idle,
            targets: Vec::new(),
            held: Vec::new(),
            accepted: 0,
        }
    }

    /// Submissions accepted so far (the requester's utility).
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// What to do this round given the instance's confirmed state, if
    /// anything. Each step is handed out once.
    pub fn next(&mut self, hit: &HitContract, round: u64) -> Option<Step> {
        let passed = |deadline: Option<u64>| deadline.is_some_and(|d| round >= d);
        let (step, stage) = match (hit.phase(), self.stage) {
            (Phase::Commit, Stage::Idle)
                if passed(hit.commit_deadline())
                    && hit.committed_workers().len() < hit.params().map_or(0, |p| p.k) =>
            {
                (Step::Cancel, Stage::CancelSent)
            }
            (Phase::Evaluate, Stage::Idle | Stage::CancelSent) => match self.strategy {
                Strategy::GoldenFirst => (Step::OpenGolden, Stage::GoldenSent),
                Strategy::EvaluateFirst => (Step::Evaluate, Stage::Evaluating),
            },
            (Phase::Evaluate, Stage::Decided) => (Step::OpenGolden, Stage::GoldenSent),
            (Phase::Evaluate, Stage::GoldenSent) if hit.golden().is_some() => match self.strategy {
                Strategy::GoldenFirst => (Step::Evaluate, Stage::Evaluating),
                Strategy::EvaluateFirst => (
                    Step::Reject(std::mem::take(&mut self.held)),
                    Stage::Settling,
                ),
            },
            // The clock-driven settlement is the gas-free backstop if
            // this gets delayed.
            (Phase::Evaluate, Stage::Settling)
                if passed(hit.evaluate_deadline())
                    && self.targets.iter().all(|w| hit.settlement(w).is_some()) =>
            {
                (Step::Finalize, Stage::FinalizeSent)
            }
            _ => return None,
        };
        self.stage = stage;
        Some(step)
    }

    /// The evaluation's verdicts are in: counts the accepted
    /// submissions and returns the rejections to submit now. Golden-first
    /// releases them all (the golds are already open). Evaluate-first
    /// asks `withhold` — given the number of rejectable submissions —
    /// whether to keep the golds closed: if so nothing is ever rejected,
    /// otherwise the rejections are held for [`Step::Reject`].
    pub fn verdicts_landed(
        &mut self,
        verdicts: Vec<(Address, Verdict)>,
        withhold: impl FnOnce(usize) -> bool,
    ) -> Vec<HitMessage> {
        debug_assert_eq!(self.stage, Stage::Evaluating, "verdicts without Evaluate");
        let mut rejections = Vec::new();
        for (worker, verdict) in verdicts {
            match verdict {
                Verdict::Accept { .. } => self.accepted += 1,
                Verdict::RejectOutOfRange { msg } | Verdict::RejectLowQuality { msg, .. } => {
                    self.targets.push(worker);
                    rejections.push(msg);
                }
            }
        }
        match self.strategy {
            Strategy::GoldenFirst => {
                self.stage = Stage::Settling;
                rejections
            }
            Strategy::EvaluateFirst if withhold(rejections.len()) => {
                self.targets.clear();
                self.stage = Stage::Settling;
                Vec::new()
            }
            Strategy::EvaluateFirst => {
                self.held = rejections;
                self.stage = Stage::Decided;
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{Worker, WorkerBehavior};
    use dragoon_chain::{Chain, FifoPolicy, GasSchedule};
    use dragoon_contract::{HitRegistry, PhaseWindows, RegistryMessage, SettlementMode};
    use dragoon_core::workload::{draw_answer, generate_workload, imagenet_workload, AnswerModel};
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

    /// What a verdict says, comparably: its kind, quality, recovered
    /// answer and message bytes.
    fn summary(verdict: &Verdict) -> (u8, u64, Option<Answer>, Vec<u8>) {
        match verdict {
            Verdict::Accept { quality, answer } => (0, *quality, Some(answer.clone()), Vec::new()),
            Verdict::RejectOutOfRange { msg } => (1, 0, None, msg.encode()),
            Verdict::RejectLowQuality { quality, msg } => (2, *quality, None, msg.encode()),
        }
    }

    #[test]
    fn evaluate_all_equals_evaluating_each_submission() {
        let (mut rng, w, _, r) = setup();
        let answer = |model: AnswerModel, rng: &mut StdRng| {
            draw_answer(&model, &w.truth, &w.spec.range, rng).encrypt(&r.public_key(), rng)
        };
        let accepted = answer(AnswerModel::Diligent { accuracy: 1.0 }, &mut rng);
        let low = answer(AnswerModel::Diligent { accuracy: 0.0 }, &mut rng);
        let out = answer(AnswerModel::OutOfRange, &mut rng);
        let low2 = answer(AnswerModel::Diligent { accuracy: 0.0 }, &mut rng);
        let worker = |b: u8| Address::from_byte(b);
        let sets = [
            vec![],
            vec![(worker(9), accepted.clone())],
            vec![(worker(9), low.clone())],
            vec![(worker(9), out.clone())],
            vec![
                (worker(9), low),
                (worker(10), accepted.clone()),
                (worker(11), out),
                (worker(12), accepted),
                (worker(13), low2),
            ],
        ];
        let evaluator = r.evaluator();
        for submissions in sets {
            let mut each_rng = rng.clone();
            let each: Vec<_> = submissions
                .iter()
                .map(|(w, cts)| (*w, summary(&evaluator.evaluate(*w, cts, &mut each_rng))))
                .collect();
            let all: Vec<_> = evaluator
                .evaluate_all(&submissions, &mut rng)
                .iter()
                .map(|(w, v)| (*w, summary(v)))
                .collect();
            assert_eq!(all, each);
            assert_eq!(rng.gen::<u64>(), each_rng.gen::<u64>());
        }
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
    // -- the sequencer -------------------------------------------------

    /// `msg`, addressed to the [`Task`]'s instance.
    fn routed(msg: HitMessage) -> RegistryMessage {
        RegistryMessage::Hit { id: 0, msg }
    }

    /// One small task on its own chain (instance 0 of a one-instance
    /// registry), its workers' sessions beside it.
    struct Task {
        chain: Chain<HitRegistry>,
        requester: Requester,
        workload: Workload,
        workers: Vec<Worker>,
        rng: StdRng,
    }

    impl Task {
        /// Publishes a `K = accuracies.len()` task (every gold standard
        /// must match) and creates one worker per accuracy.
        fn published(accuracies: &[f64], windows: PhaseWindows) -> Self {
            let mut rng = StdRng::seed_from_u64(0x5e9);
            let range = PlaintextRange::binary();
            let workload = generate_workload(6, 3, accuracies.len(), 3, range, 4_000, &mut rng);
            let addr = Address::from_byte(1);
            let requester = Requester::new(addr, &workload, &mut ContentStore::new(), &mut rng);
            let registry = HitRegistry::new(SettlementMode::PerProof);
            let mut chain = Chain::deploy(registry, 0, GasSchedule::istanbul());
            chain.ledger.mint(addr, workload.spec.budget);
            let HitMessage::Publish(params) = requester.publish_msg() else {
                unreachable!("a publish message");
            };
            chain.submit(addr, RegistryMessage::Create { windows, params });
            chain.advance_round(&mut FifoPolicy);
            let workers = accuracies
                .iter()
                .zip(10u8..)
                .map(|(&accuracy, byte)| {
                    let model = AnswerModel::Diligent { accuracy };
                    Worker::new(Address::from_byte(byte), WorkerBehavior::Honest(model))
                })
                .collect();
            Self {
                chain,
                requester,
                workload,
                workers,
                rng,
            }
        }

        /// The task's contract state.
        fn hit(&self) -> &HitContract {
            self.chain.contract().hit(0).expect("published")
        }

        /// The first `n` workers commit.
        fn commit(&mut self, n: usize) {
            let ek = self.requester.public_key();
            for w in &mut self.workers[..n] {
                let msg = w.commit_msg(&self.workload, &ek, &[], &mut self.rng);
                self.chain
                    .submit(w.addr, routed(msg.expect("honest workers commit")));
            }
            self.chain.advance_round(&mut FifoPolicy);
        }

        /// Every worker commits and reveals, and the reveal window
        /// closes: the contract is in its evaluate phase. The sequencer
        /// had nothing to say on the way there.
        fn in_evaluate_phase(accuracies: &[f64], seq: &mut Sequencer) -> Self {
            let windows = PhaseWindows {
                evaluate: 6,
                ..PhaseWindows::default()
            };
            let mut task = Self::published(accuracies, windows);
            assert!(task.next(seq).is_none());
            task.commit(accuracies.len());
            assert_eq!(task.hit().phase(), Phase::Reveal);
            assert!(task.next(seq).is_none());
            for w in &task.workers {
                let msg = w.reveal_msg(&mut task.rng);
                task.chain
                    .submit(w.addr, routed(msg.expect("honest workers reveal")));
            }
            while task.hit().phase() == Phase::Reveal {
                task.chain.advance_round(&mut FifoPolicy);
            }
            assert_eq!(task.hit().phase(), Phase::Evaluate);
            task
        }

        fn next(&self, seq: &mut Sequencer) -> Option<Step> {
            seq.next(self.hit(), self.chain.round())
        }

        /// Submits the requester's messages and produces a block.
        fn confirm(&mut self, msgs: Vec<HitMessage>) {
            for msg in msgs {
                self.chain.submit(self.requester.addr, routed(msg));
            }
            self.chain.advance_round(&mut FifoPolicy);
        }

        fn evaluate_all(&mut self) -> Vec<(Address, Verdict)> {
            let hit = self.chain.contract().hit(0).expect("published");
            hit.committed_workers()
                .iter()
                .map(|w| {
                    let cts = hit.revealed(w).expect("everyone revealed");
                    (*w, self.requester.evaluate(*w, cts, &mut self.rng))
                })
                .collect()
        }

        fn deadline_passed(&self) -> bool {
            let deadline = self.hit().evaluate_deadline();
            deadline.is_some_and(|d| self.chain.round() >= d)
        }
    }

    #[test]
    fn golden_first_runs_golden_evaluate_rejections_finalize() {
        let mut seq = Sequencer::new(Strategy::GoldenFirst);
        let mut task = Task::in_evaluate_phase(&[1.0, 0.0, 0.0], &mut seq);
        assert!(matches!(task.next(&mut seq), Some(Step::OpenGolden)));
        // Nothing is issued twice, and evaluation waits for the opening
        // to confirm.
        assert!(task.next(&mut seq).is_none());
        task.confirm(vec![task.requester.golden_msg()]);
        assert!(matches!(task.next(&mut seq), Some(Step::Evaluate)));
        assert!(task.next(&mut seq).is_none());
        let verdicts = task.evaluate_all();
        let rejections = seq.verdicts_landed(verdicts, |_| unreachable!("the golds are open"));
        assert_eq!((seq.accepted(), rejections.len()), (1, 2));
        // One rejection confirms, the other is delayed past the
        // deadline: finalize waits for it.
        let mut rejections = rejections.into_iter();
        task.confirm(rejections.next().into_iter().collect());
        while !task.deadline_passed() {
            assert!(task.next(&mut seq).is_none());
            task.confirm(Vec::new());
        }
        assert!(task.next(&mut seq).is_none(), "a target is unsettled");
        task.confirm(rejections.collect());
        assert!(matches!(task.next(&mut seq), Some(Step::Finalize)));
        assert!(task.next(&mut seq).is_none());
        task.confirm(vec![HitMessage::Finalize]);
        assert!(task.hit().is_settled());
        assert!(task.next(&mut seq).is_none());
    }

    #[test]
    fn finalize_waits_for_the_evaluate_deadline() {
        let mut seq = Sequencer::new(Strategy::GoldenFirst);
        let mut task = Task::in_evaluate_phase(&[1.0, 0.0], &mut seq);
        assert!(matches!(task.next(&mut seq), Some(Step::OpenGolden)));
        task.confirm(vec![task.requester.golden_msg()]);
        assert!(matches!(task.next(&mut seq), Some(Step::Evaluate)));
        let verdicts = task.evaluate_all();
        let rejections = seq.verdicts_landed(verdicts, |_| false);
        task.confirm(rejections);
        let rejected = task.workers[1].addr;
        assert!(task.hit().settlement(&rejected).is_some());
        let mut waited = 0;
        while !task.deadline_passed() {
            assert!(task.next(&mut seq).is_none(), "settled, but too early");
            task.confirm(Vec::new());
            waited += 1;
        }
        assert!(waited > 0);
        assert!(matches!(task.next(&mut seq), Some(Step::Finalize)));
    }

    #[test]
    fn evaluate_first_holds_rejections_until_the_golden_confirms() {
        let mut seq = Sequencer::new(Strategy::EvaluateFirst);
        let mut task = Task::in_evaluate_phase(&[1.0, 0.0], &mut seq);
        assert!(matches!(task.next(&mut seq), Some(Step::Evaluate)));
        assert!(task.next(&mut seq).is_none());
        let verdicts = task.evaluate_all();
        let released = seq.verdicts_landed(verdicts, |rejectable| {
            assert_eq!(rejectable, 1);
            false
        });
        assert!(released.is_empty(), "held: the golds are still closed");
        assert_eq!(seq.accepted(), 1);
        assert!(matches!(task.next(&mut seq), Some(Step::OpenGolden)));
        assert!(task.next(&mut seq).is_none());
        task.confirm(vec![task.requester.golden_msg()]);
        let Some(Step::Reject(held)) = task.next(&mut seq) else {
            panic!("the confirmed opening releases the held rejection");
        };
        assert_eq!(held.len(), 1);
        task.confirm(held);
        while !task.deadline_passed() {
            assert!(task.next(&mut seq).is_none());
            task.confirm(Vec::new());
        }
        assert!(matches!(task.next(&mut seq), Some(Step::Finalize)));
        assert!(task.next(&mut seq).is_none());
    }

    #[test]
    fn evaluate_first_withholds_a_clean_golden() {
        let mut seq = Sequencer::new(Strategy::EvaluateFirst);
        let mut task = Task::in_evaluate_phase(&[1.0, 1.0], &mut seq);
        assert!(matches!(task.next(&mut seq), Some(Step::Evaluate)));
        let verdicts = task.evaluate_all();
        let released = seq.verdicts_landed(verdicts, |rejectable| rejectable == 0);
        assert!(released.is_empty());
        assert_eq!(seq.accepted(), 2);
        // The golds never open; the only step left is the finalize.
        while !task.deadline_passed() {
            assert!(task.next(&mut seq).is_none());
            task.confirm(Vec::new());
        }
        assert!(matches!(task.next(&mut seq), Some(Step::Finalize)));
        assert!(task.hit().golden().is_none());
    }

    #[test]
    fn cancel_only_past_the_commit_deadline_short_of_k() {
        let windows = PhaseWindows {
            commit_timeout: Some(3),
            ..PhaseWindows::default()
        };
        let mut seq = Sequencer::new(Strategy::GoldenFirst);
        let mut short = Task::published(&[1.0, 1.0], windows);
        short.commit(1);
        let deadline = short.hit().commit_deadline().expect("a timeout");
        while short.chain.round() < deadline {
            assert!(short.next(&mut seq).is_none(), "the window is still open");
            short.confirm(Vec::new());
        }
        assert!(matches!(short.next(&mut seq), Some(Step::Cancel)));
        assert!(short.next(&mut seq).is_none());
        short.confirm(vec![HitMessage::Cancel]);
        assert!(short.hit().is_settled());

        // A task that filled is past its commit phase: never cancelled.
        let mut seq = Sequencer::new(Strategy::GoldenFirst);
        let mut full = Task::published(&[1.0, 1.0], windows);
        full.commit(2);
        while full.chain.round() <= deadline {
            assert!(full.next(&mut seq).is_none());
            full.confirm(Vec::new());
        }
    }
}
