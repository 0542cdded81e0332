//! The HIT task model (§IV, "Reviewing the HITs in reality").
//!
//! A task `T = (q_1, …, q_N)` is a batch of multiple-choice questions
//! whose answers must lie in a pre-specified `range`. A random subset `G`
//! of the questions are *gold standards* with requester-known answers
//! `Gs`, mixed secretly among the rest — the only quality-based incentive
//! mechanism incorporated by Amazon's MTurk, and the one ImageNet used.

use dragoon_crypto::elgamal::{Ciphertext, EncryptionKey, PlaintextRange};
use dragoon_crypto::precomp::{FixedBaseTable, ProofCache};
use dragoon_crypto::Fr;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One multiple-choice question (the off-chain content; only its digest
/// ever reaches the chain).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Question {
    /// The prompt shown to workers, e.g. "Does this image contain a cat?".
    pub prompt: String,
    /// Human-readable option labels; `options[m]` is the meaning of
    /// answering `m`.
    pub options: Vec<String>,
}

/// The public parameters of a HIT.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Number of questions `N`.
    pub n: usize,
    /// Number of workers to recruit `K`.
    pub k: usize,
    /// The admissible answer range of every question.
    pub range: PlaintextRange,
    /// The minimal quality standard `Θ` (correct gold standards required
    /// for payment).
    pub theta: u64,
    /// The total budget `B`; each worker is promised `B/K`.
    pub budget: u128,
    /// The questions themselves (stored off-chain; see
    /// `dragoon_protocol::storage`).
    pub questions: Vec<Question>,
}

impl TaskSpec {
    /// The per-worker reward `B/K`.
    pub fn reward_per_worker(&self) -> u128 {
        self.budget / self.k as u128
    }

    /// Basic well-formedness: question count matches `n`, `Θ` achievable.
    pub fn validate(&self) -> Result<(), String> {
        if self.questions.len() != self.n {
            return Err(format!(
                "task declares {} questions but contains {}",
                self.n,
                self.questions.len()
            ));
        }
        if self.k == 0 {
            return Err("task must recruit at least one worker".into());
        }
        if self.budget == 0 {
            return Err("task must carry a positive budget".into());
        }
        Ok(())
    }
}

/// The requester's secret parameters `sp = (G, Gs)`: indexes of the gold
/// standard questions and their known answers.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenStandards {
    /// Indexes `G ⊂ [0, N)` of gold-standard questions (sorted).
    pub indexes: Vec<usize>,
    /// Ground-truth answers `Gs = {s_i}`, aligned with `indexes`.
    pub answers: Vec<u64>,
}

impl GoldenStandards {
    /// Samples `m` random distinct gold-standard questions with random
    /// ground truth in `range`.
    pub fn random<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        range: &PlaintextRange,
        rng: &mut R,
    ) -> Self {
        assert!(m <= n, "more gold standards than questions");
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(rng);
        let mut indexes: Vec<usize> = idx.into_iter().take(m).collect();
        indexes.sort_unstable();
        let answers = indexes
            .iter()
            .map(|_| rng.gen_range(range.lo..=range.hi))
            .collect();
        Self { indexes, answers }
    }

    /// Number of gold standards `|G|`.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Whether there are no gold standards.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// The ground truth for question `i`, if it is a gold standard.
    pub fn answer_for(&self, i: usize) -> Option<u64> {
        self.indexes
            .iter()
            .position(|&g| g == i)
            .map(|pos| self.answers[pos])
    }

    /// Canonical byte encoding `G ‖ Gs` for the commitment `comm_gs`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.indexes.len() * 16);
        out.extend_from_slice(&(self.indexes.len() as u64).to_le_bytes());
        for (&i, &s) in self.indexes.iter().zip(&self.answers) {
            out.extend_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Well-formedness with respect to a task: indexes in `[0, n)`,
    /// distinct, answers in range.
    pub fn validate(&self, n: usize, range: &PlaintextRange) -> Result<(), String> {
        if self.indexes.len() != self.answers.len() {
            return Err("index/answer length mismatch".into());
        }
        let mut seen = std::collections::HashSet::new();
        for &i in &self.indexes {
            if i >= n {
                return Err(format!("gold-standard index {i} out of bounds"));
            }
            if !seen.insert(i) {
                return Err(format!("duplicate gold-standard index {i}"));
            }
        }
        for &s in &self.answers {
            if !range.contains(s) {
                return Err(format!("gold-standard answer {s} out of range"));
            }
        }
        Ok(())
    }
}

/// A worker's plaintext answer vector `a_j = (a_{1,j}, …, a_{N,j})`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Answer(pub Vec<u64>);

impl Answer {
    /// Number of answered questions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether every component lies in `range`.
    pub fn in_range(&self, range: &PlaintextRange) -> bool {
        self.0.iter().all(|&a| range.contains(a))
    }

    /// Encrypts the whole vector to the requester, returning the
    /// ciphertext vector `c_j`.
    pub fn encrypt<R: Rng + ?Sized>(&self, ek: &EncryptionKey, rng: &mut R) -> EncryptedAnswer {
        self.encrypt_cached(ek, rng, None)
    }

    /// [`Answer::encrypt`], optionally accelerated by a fixed-base table
    /// for `ek` fetched from the shared proof cache. The ciphertexts (and
    /// the rng draws) are identical with or without the cache — only the
    /// `h^ρ` multiplications get cheaper.
    pub fn encrypt_cached<R: Rng + ?Sized>(
        &self,
        ek: &EncryptionKey,
        rng: &mut R,
        cache: Option<&ProofCache>,
    ) -> EncryptedAnswer {
        let table = cache.map(|c| c.table_for(&ek.0));
        self.encrypt_with_table(ek, rng, table.as_deref())
    }

    /// [`Answer::encrypt`] through `ek`'s fixed-base table, when the
    /// caller already holds it: the same ciphertexts and rng draws.
    pub fn encrypt_with_table<R: Rng + ?Sized>(
        &self,
        ek: &EncryptionKey,
        rng: &mut R,
        table: Option<&FixedBaseTable>,
    ) -> EncryptedAnswer {
        let rhos: Vec<Fr> = self.0.iter().map(|_| Fr::random(rng)).collect();
        EncryptedAnswer(ek.encrypt_batch(&self.0, &rhos, table).into())
    }

    /// Deterministic encryption with caller-supplied randomness (one
    /// scalar per question) — used by tests and the simulator.
    pub fn encrypt_with(&self, ek: &EncryptionKey, rhos: &[Fr]) -> EncryptedAnswer {
        EncryptedAnswer(ek.encrypt_batch(&self.0, rhos, None).into())
    }
}

/// A worker's encrypted answer vector `c_j`.
///
/// The vector is immutable once built and lives in one shared
/// allocation: a clone (into a reveal message, a mempool, a gossiped
/// block, every replica's worker record, an undo snapshot) copies the
/// pointer, never the ciphertexts. Equality is by value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptedAnswer(pub Arc<[Ciphertext]>);

impl EncryptedAnswer {
    /// Number of ciphertexts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Canonical byte encoding (used for commitments and on-chain
    /// hashing): the concatenation of the 128-byte ciphertext encodings.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len() * 128);
        for ct in self.0.iter() {
            out.extend_from_slice(&ct.to_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_crypto::elgamal::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x7a5c)
    }

    #[test]
    fn imagenet_task_policy() {
        let mut rng = rng();
        let w = crate::workload::imagenet_workload(4_000_000, &mut rng);
        let (spec, gs) = (w.spec, w.golden);
        assert_eq!(spec.n, 106);
        assert_eq!(spec.k, 4);
        assert_eq!(spec.theta, 4);
        assert_eq!(spec.range, PlaintextRange::binary());
        assert_eq!(gs.len(), 6);
        assert_eq!(spec.reward_per_worker(), 1_000_000);
        spec.validate().unwrap();
        gs.validate(spec.n, &spec.range).unwrap();
    }

    #[test]
    fn task_validation_catches_mismatch() {
        let mut rng = rng();
        let mut spec = crate::workload::imagenet_workload(100, &mut rng).spec;
        spec.questions.pop();
        assert!(spec.validate().is_err());
        spec.questions.push(Question {
            prompt: "p".into(),
            options: vec![],
        });
        spec.validate().unwrap();
        spec.k = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn golden_standards_validation() {
        let range = PlaintextRange::binary();
        let ok = GoldenStandards {
            indexes: vec![1, 5, 9],
            answers: vec![0, 1, 1],
        };
        ok.validate(10, &range).unwrap();
        let dup = GoldenStandards {
            indexes: vec![1, 1],
            answers: vec![0, 1],
        };
        assert!(dup.validate(10, &range).is_err());
        let oob = GoldenStandards {
            indexes: vec![10],
            answers: vec![0],
        };
        assert!(oob.validate(10, &range).is_err());
        let bad_answer = GoldenStandards {
            indexes: vec![1],
            answers: vec![7],
        };
        assert!(bad_answer.validate(10, &range).is_err());
    }

    #[test]
    fn answer_for_lookup() {
        let gs = GoldenStandards {
            indexes: vec![2, 7],
            answers: vec![1, 0],
        };
        assert_eq!(gs.answer_for(2), Some(1));
        assert_eq!(gs.answer_for(7), Some(0));
        assert_eq!(gs.answer_for(3), None);
    }

    #[test]
    fn answer_encrypt_decrypt_all_questions() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let answer = Answer(vec![0, 1, 1, 0, 1]);
        let enc = answer.encrypt(&kp.ek, &mut rng);
        assert_eq!(enc.len(), 5);
        let range = PlaintextRange::binary();
        for (i, ct) in enc.0.iter().enumerate() {
            match kp.dk.decrypt(ct, &range) {
                dragoon_crypto::elgamal::Decrypted::InRange(m) => assert_eq!(m, answer.0[i]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn batched_encrypt_matches_per_item_bytes_and_rng_draws() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let answer = Answer(vec![0, 1, 1, 0, 7, 1]);
        let cache = ProofCache::new();
        for cache in [None, Some(&cache)] {
            let mut batch_rng = rng.clone();
            let mut item_rng = rng.clone();
            let batch = answer.encrypt_cached(&kp.ek, &mut batch_rng, cache);
            let table = cache.map(|c| c.table_for(&kp.ek.0));
            let per_item = EncryptedAnswer(
                answer
                    .0
                    .iter()
                    .map(|&m| {
                        kp.ek
                            .encrypt_with_table(m, Fr::random(&mut item_rng), table.as_deref())
                    })
                    .collect(),
            );
            assert_eq!(batch.encode(), per_item.encode());
            // Both generators made the same draws.
            assert_eq!(Fr::random(&mut batch_rng), Fr::random(&mut item_rng));
        }
        let rhos: Vec<Fr> = answer.0.iter().map(|_| Fr::random(&mut rng)).collect();
        let with = answer.encrypt_with(&kp.ek, &rhos);
        for ((&m, &rho), ct) in answer.0.iter().zip(&rhos).zip(with.0.iter()) {
            assert_eq!(*ct, kp.ek.encrypt_with(m, rho));
        }
    }

    #[test]
    fn answer_range_check() {
        let range = PlaintextRange::binary();
        assert!(Answer(vec![0, 1, 0]).in_range(&range));
        assert!(!Answer(vec![0, 2]).in_range(&range));
    }
}
