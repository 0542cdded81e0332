//! PoQoEA — **P**roof **o**f **Q**uality **o**f **E**ncrypted **A**nswer
//! (§V-A, Fig 3): the paper's core contribution.
//!
//! The requester proves to the contract that `χ` is (an upper bound of)
//! the quality of an encrypted answer, *without* generic zk-proofs: for
//! every gold-standard position the worker answered incorrectly, the
//! requester verifiably decrypts that single ciphertext (VPKE) and
//! exhibits the mismatch. The verifier counts the valid mismatch proofs;
//! with claimed quality `χ` and `|G| - χ` verified mismatches, `χ` is
//! sound as an upper bound:
//!
//! * **Completeness** — an honest requester can always produce the
//!   `|G| - χ` mismatch proofs.
//! * **Upper-bound soundness** — every verified mismatch pins one gold
//!   standard as wrong (VPKE soundness), so the true quality is at most
//!   `|G| - #mismatches ≤ χ`. A corrupted requester can *understate*
//!   mismatches (raising the bound, paying more), never overstate them —
//!   since the reward is increasing in quality, no worker is underpaid.
//! * **Special zero-knowledge** — only the gold positions' plaintexts are
//!   revealed, and those are simulatable from public knowledge because
//!   `|G|` and `range` are small constants (§V-A).

use crate::task::{Answer, EncryptedAnswer, GoldenStandards};
use dragoon_crypto::elgamal::{Ciphertext, DecryptionKey, EncryptionKey, KeyPair, PlaintextRange};
use dragoon_crypto::vpke::{self, DecryptionProof, DecryptionStatement, PlaintextClaim};
use dragoon_crypto::{Fr, G1Projective};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// One exhibited mismatch: gold-standard index `i`, the verifiably
/// decrypted answer `a_i`, and the VPKE proof `π_i`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MismatchItem {
    /// The question index `i ∈ G`.
    pub index: usize,
    /// The decrypted answer (in-range value or raw group element).
    pub claim: PlaintextClaim,
    /// The verifiable-decryption proof for `c_i`.
    pub proof: DecryptionProof,
}

/// A PoQoEA proof: the set `π = {(i, a_i, π_i)}` of Fig 3.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct QualityProof {
    /// The mismatch items, one per incorrectly answered gold standard.
    pub items: Vec<MismatchItem>,
}

impl QualityProof {
    /// Number of exhibited mismatches.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the proof exhibits no mismatches (perfect quality).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Serialized size in bytes (for calldata gas accounting): each item
    /// is `8 (index) + 2 points (A, B) + scalar (Z) + claim`.
    pub fn encoded_len(&self) -> usize {
        self.items
            .iter()
            .map(|it| {
                let claim_len = match it.claim {
                    PlaintextClaim::InRange(_) => 8,
                    PlaintextClaim::OutOfRange(_) => 64,
                };
                8 + claim_len + 64 + 64 + 32
            })
            .sum()
    }
}

/// Why a PoQoEA proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QualityError {
    /// An item referenced an index not in `G`.
    IndexNotGold(usize),
    /// The same index appeared twice.
    DuplicateIndex(usize),
    /// An item's claimed answer equals the gold standard — not a mismatch.
    ClaimMatchesGold(usize),
    /// An item's VPKE proof failed.
    BadDecryptionProof(usize),
    /// Fewer than `|G| - χ` valid mismatches were exhibited.
    InsufficientMismatches {
        /// The claimed quality.
        claimed: u64,
        /// The number of valid mismatch proofs found.
        proven: u64,
        /// The number of gold standards.
        golds: u64,
    },
    /// The ciphertext vector is shorter than a referenced index.
    CiphertextMissing(usize),
}

impl fmt::Display for QualityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualityError::IndexNotGold(i) => write!(f, "index {i} is not a gold standard"),
            QualityError::DuplicateIndex(i) => write!(f, "duplicate mismatch index {i}"),
            QualityError::ClaimMatchesGold(i) => {
                write!(f, "claimed answer at {i} equals the gold standard")
            }
            QualityError::BadDecryptionProof(i) => {
                write!(f, "VPKE proof for index {i} failed")
            }
            QualityError::InsufficientMismatches {
                claimed,
                proven,
                golds,
            } => write!(
                f,
                "claimed quality {claimed} with {proven} mismatches does not reach |G| = {golds}"
            ),
            QualityError::CiphertextMissing(i) => {
                write!(f, "no ciphertext at referenced index {i}")
            }
        }
    }
}

impl std::error::Error for QualityError {}

/// `ProveQuality_k(c_j, χ, G, Gs)`: produces the quality `χ` and its
/// proof, by verifiably decrypting every gold position and exhibiting the
/// mismatches (Fig 3, left).
pub fn prove_quality<R: Rng + ?Sized>(
    dk: &DecryptionKey,
    cts: &EncryptedAnswer,
    gs: &GoldenStandards,
    range: &PlaintextRange,
    rng: &mut R,
) -> (u64, QualityProof) {
    prove_quality_with_key(&KeyPair::from_secret(dk.0), cts, gs, range, rng)
}

/// [`prove_quality`] with the full key pair, so the inner VPKE proofs
/// don't each re-derive `h = g^k`. The gold positions are decrypted as
/// one batch, and the mismatches proven as another.
pub fn prove_quality_with_key<R: Rng + ?Sized>(
    kp: &KeyPair,
    cts: &EncryptedAnswer,
    gs: &GoldenStandards,
    range: &PlaintextRange,
    rng: &mut R,
) -> (u64, QualityProof) {
    let (golds, gold_cts) = gold_positions(cts, gs);
    let claims = kp
        .dk
        .decrypt_batch(&gold_cts, range)
        .iter()
        .map(PlaintextClaim::from_decrypted)
        .collect();
    prove_mismatches(kp, golds, &gold_cts, claims, rng)
}

/// [`prove_quality_with_key`] for a prover that already holds the
/// decryption `answer` of `cts`, every item in range — the proving
/// service's evaluate jobs, which decrypt the whole vector to compute
/// the quality, enter here instead of decrypting the gold positions a
/// second time. Decryption draws nothing from `rng`, so the proof and
/// every later draw are the ones `prove_quality_with_key` produces.
pub fn prove_quality_of_answer<R: Rng + ?Sized>(
    kp: &KeyPair,
    cts: &EncryptedAnswer,
    answer: &Answer,
    gs: &GoldenStandards,
    rng: &mut R,
) -> (u64, QualityProof) {
    assert_eq!(answer.len(), cts.len(), "one plaintext per ciphertext");
    let (golds, gold_cts) = gold_positions(cts, gs);
    let claims = golds
        .iter()
        .map(|&(i, _)| PlaintextClaim::InRange(answer.0[i]))
        .collect();
    prove_mismatches(kp, golds, &gold_cts, claims, rng)
}

/// The gold standards `(i, s_i)` that have a ciphertext, and those
/// ciphertexts. A missing ciphertext counts as a mismatch the verifier
/// can see directly; nothing to prove.
fn gold_positions(
    cts: &EncryptedAnswer,
    gs: &GoldenStandards,
) -> (Vec<(usize, u64)>, Vec<Ciphertext>) {
    gs.indexes
        .iter()
        .zip(&gs.answers)
        .filter_map(|(&i, &s)| Some(((i, s), *cts.0.get(i)?)))
        .unzip()
}

/// Counts the gold standards whose decryption `claims` matches and
/// proves the others. Every gold still draws its VPKE nonce, in order
/// ([`vpke::prove_kept_claims_with_key`]), so the proof and every later
/// draw are those of proving every gold and dropping the matches.
fn prove_mismatches<R: Rng + ?Sized>(
    kp: &KeyPair,
    golds: Vec<(usize, u64)>,
    gold_cts: &[Ciphertext],
    claims: Vec<PlaintextClaim>,
    rng: &mut R,
) -> (u64, QualityProof) {
    let mismatched: Vec<bool> = golds
        .iter()
        .zip(&claims)
        .map(|(&(_, s), claim)| *claim != PlaintextClaim::InRange(s))
        .collect();
    let proofs = vpke::prove_kept_claims_with_key(kp, gold_cts, &claims, &mismatched, rng);
    let chi = mismatched.iter().filter(|&&m| !m).count() as u64;
    let items = golds
        .into_iter()
        .zip(claims)
        .zip(mismatched)
        .filter_map(|(((index, _), claim), m)| m.then_some((index, claim)))
        .zip(proofs)
        .map(|((index, claim), proof)| MismatchItem {
            index,
            claim,
            proof,
        })
        .collect();
    (chi, QualityProof { items })
}

/// The structural half of `VerifyQuality`: every check *except* the
/// per-item VPKE verifications, which are returned as statements for the
/// caller to verify — individually ([`verify_quality`] does exactly
/// that) or batched across many proofs through
/// [`vpke::batch_verify_each`] (the marketplace's settlement path).
///
/// The full verdict is: structural checks pass **and** every returned
/// `(statement, proof)` pair verifies.
pub fn split_quality_proof(
    ek: &EncryptionKey,
    cts: &EncryptedAnswer,
    claimed_chi: u64,
    proof: &QualityProof,
    gs: &GoldenStandards,
) -> Result<Vec<(DecryptionStatement, DecryptionProof)>, QualityError> {
    let mut seen = HashSet::new();
    let mut items = Vec::with_capacity(proof.items.len());
    for item in &proof.items {
        let i = item.index;
        let Some(s) = gs.answer_for(i) else {
            return Err(QualityError::IndexNotGold(i));
        };
        if !seen.insert(i) {
            return Err(QualityError::DuplicateIndex(i));
        }
        let Some(ct) = cts.0.get(i) else {
            return Err(QualityError::CiphertextMissing(i));
        };
        // The claimed answer must genuinely differ from the gold
        // standard; compare as group elements so an out-of-range claim of
        // g^{s_i} cannot smuggle a match through.
        let gold_point = (G1Projective::generator() * Fr::from_u64(s)).to_affine();
        if item.claim.to_point() == gold_point {
            return Err(QualityError::ClaimMatchesGold(i));
        }
        items.push((
            DecryptionStatement {
                ek: *ek,
                ct: *ct,
                claim: item.claim,
            },
            item.proof,
        ));
    }
    // Missing ciphertexts are publicly visible mismatches.
    let missing = gs
        .indexes
        .iter()
        .filter(|&&i| cts.0.get(i).is_none())
        .count() as u64;
    let proven = proof.items.len() as u64 + missing;
    let golds = gs.len() as u64;
    // Saturating: an adversarial claimed χ near u64::MAX must revert the
    // transaction, not overflow-panic the (shared, multi-HIT) chain.
    if claimed_chi.saturating_add(proven) < golds {
        return Err(QualityError::InsufficientMismatches {
            claimed: claimed_chi,
            proven,
            golds,
        });
    }
    Ok(items)
}

/// `VerifyQuality_h(c_j, χ, π, G, Gs)`: Fig 3, right, with the
/// well-formedness hardening the set-notation of the paper implies
/// (distinct indices drawn from `G`; a claim equal to the gold answer is
/// not a mismatch — including out-of-range claims whose group element
/// equals `g^{s_i}`).
pub fn verify_quality(
    ek: &EncryptionKey,
    cts: &EncryptedAnswer,
    claimed_chi: u64,
    proof: &QualityProof,
    gs: &GoldenStandards,
) -> Result<(), QualityError> {
    let items = split_quality_proof(ek, cts, claimed_chi, proof, gs)?;
    for (item, (stmt, dproof)) in proof.items.iter().zip(&items) {
        if !vpke::verify(stmt, dproof) {
            return Err(QualityError::BadDecryptionProof(item.index));
        }
    }
    Ok(())
}

/// Convenience wrapper mirroring the paper's boolean `VerifyQuality`.
pub fn verify_quality_bool(
    ek: &EncryptionKey,
    cts: &EncryptedAnswer,
    claimed_chi: u64,
    proof: &QualityProof,
    gs: &GoldenStandards,
) -> bool {
    verify_quality(ek, cts, claimed_chi, proof, gs).is_ok()
}

/// The "special zero-knowledge" simulator for PoQoEA: given only public
/// knowledge (`h`, `G`, `Gs`, `c_j`, `χ`), produces a proof whose items
/// satisfy the VPKE verification equations under chosen challenges.
///
/// It guesses mismatching answers from `range \ {s_i}` — possible in
/// polynomial time exactly because `|G|` and `|range|` are small
/// constants (the paper's §V-A simulator invokes `S_VPKE` at most
/// `(|G| choose χ) · |range|` times).
pub fn simulate_quality_proof<R: Rng + ?Sized>(
    ek: &EncryptionKey,
    cts: &EncryptedAnswer,
    chi: u64,
    gs: &GoldenStandards,
    range: &PlaintextRange,
    rng: &mut R,
) -> Option<(QualityProof, Vec<Fr>)> {
    let golds = gs.len() as u64;
    if chi > golds {
        return None;
    }
    // Simulate mismatches at the last |G| - χ gold positions.
    let n_mismatch = (golds - chi) as usize;
    let mut items = Vec::new();
    let mut challenges = Vec::new();
    for (&i, &s) in gs.indexes.iter().zip(&gs.answers).rev().take(n_mismatch) {
        let ct = cts.0.get(i)?;
        // Guess any in-range answer other than the gold standard.
        let guess = (range.lo..=range.hi).find(|&m| m != s)?;
        let claim = PlaintextClaim::InRange(guess);
        let c = Fr::random(rng);
        let stmt = DecryptionStatement {
            ek: *ek,
            ct: *ct,
            claim,
        };
        let proof = vpke::simulate_with_challenge(&stmt, c, rng);
        items.push(MismatchItem {
            index: i,
            claim,
            proof,
        });
        challenges.push(c);
    }
    Some((QualityProof { items }, challenges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality;
    use crate::task::Answer;
    use dragoon_crypto::elgamal::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x90e0)
    }

    struct Fixture {
        rng: StdRng,
        kp: KeyPair,
        gs: GoldenStandards,
        range: PlaintextRange,
    }

    fn fixture() -> Fixture {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let gs = GoldenStandards {
            indexes: vec![1, 3, 5, 7],
            answers: vec![1, 0, 1, 0],
        };
        Fixture {
            rng,
            kp,
            gs,
            range: PlaintextRange::binary(),
        }
    }

    /// An answer with the desired number of correct gold standards
    /// (gold indexes beyond `n` are simply absent from the answer).
    fn answer_with_quality(gs: &GoldenStandards, n: usize, correct: usize) -> Answer {
        let mut a = vec![0u64; n];
        for (j, (&i, &s)) in gs.indexes.iter().zip(&gs.answers).enumerate() {
            if i < n {
                a[i] = if j < correct { s } else { 1 - s };
            }
        }
        Answer(a)
    }

    #[test]
    fn completeness_all_quality_levels() {
        let mut f = fixture();
        for correct in 0..=4usize {
            let answer = answer_with_quality(&f.gs, 10, correct);
            assert_eq!(quality::quality(&answer, &f.gs), correct as u64);
            let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
            let (chi, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
            assert_eq!(chi, correct as u64);
            assert_eq!(proof.len(), 4 - correct);
            verify_quality(&f.kp.ek, &cts, chi, &proof, &f.gs).unwrap();
        }
    }

    #[test]
    fn soundness_understating_quality_fails() {
        // The requester cannot claim χ = 1 for a worker whose true
        // quality is 3: only one real mismatch exists to prove.
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 3);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (chi, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        assert_eq!(chi, 3);
        let err = verify_quality(&f.kp.ek, &cts, 1, &proof, &f.gs).unwrap_err();
        assert!(matches!(
            err,
            QualityError::InsufficientMismatches { claimed: 1, .. }
        ));
    }

    #[test]
    fn overstating_quality_is_allowed_by_design() {
        // χ is an upper bound: claiming more than the true quality only
        // costs the requester money, so the verifier accepts it.
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 2);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (_, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        // Claim 3 with all real mismatch proofs (2 of them): 3 + 2 > 4 ✓.
        verify_quality(&f.kp.ek, &cts, 3, &proof, &f.gs).unwrap();
    }

    #[test]
    fn duplicate_mismatch_rejected() {
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 3);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (_, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        assert_eq!(proof.len(), 1);
        let mut doubled = proof.clone();
        doubled.items.push(doubled.items[0].clone());
        let err = verify_quality(&f.kp.ek, &cts, 2, &doubled, &f.gs).unwrap_err();
        assert!(matches!(err, QualityError::DuplicateIndex(_)));
    }

    #[test]
    fn non_gold_index_rejected() {
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 3);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (_, mut proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        proof.items[0].index = 0; // not a gold standard
        let err = verify_quality(&f.kp.ek, &cts, 3, &proof, &f.gs).unwrap_err();
        assert!(matches!(err, QualityError::IndexNotGold(0)));
    }

    #[test]
    fn claim_equal_to_gold_rejected() {
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 4);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        // Try to fabricate a mismatch at gold index 1 by honestly proving
        // its decryption (which matches the gold standard).
        let ct = cts.0[1];
        let (claim, dproof) = vpke::prove(&f.kp.dk, &ct, &f.range, &mut f.rng);
        let forged = QualityProof {
            items: vec![MismatchItem {
                index: 1,
                claim,
                proof: dproof,
            }],
        };
        let err = verify_quality(&f.kp.ek, &cts, 3, &forged, &f.gs).unwrap_err();
        assert!(matches!(err, QualityError::ClaimMatchesGold(1)));
    }

    #[test]
    fn out_of_range_claim_of_gold_point_rejected() {
        // A malicious requester claims "out of range" with the group
        // element g^{s_i} — the point-level equality check must catch it.
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 4);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let s = f.gs.answers[0];
        let gold_point = (G1Projective::generator() * Fr::from_u64(s)).to_affine();
        let claim = PlaintextClaim::OutOfRange(gold_point);
        let dproof = vpke::prove_claim(&f.kp.dk, &cts.0[f.gs.indexes[0]], &claim, &mut f.rng);
        let forged = QualityProof {
            items: vec![MismatchItem {
                index: f.gs.indexes[0],
                claim,
                proof: dproof,
            }],
        };
        let err = verify_quality(&f.kp.ek, &cts, 3, &forged, &f.gs).unwrap_err();
        assert!(matches!(err, QualityError::ClaimMatchesGold(_)));
    }

    #[test]
    fn fabricated_mismatch_with_wrong_proof_rejected() {
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 4); // perfect answer
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        // Claim the worker got gold 1 wrong, with a made-up claim value
        // and an honest-looking (but necessarily invalid) proof.
        let s = f.gs.answers[0];
        let wrong = 1 - s;
        let claim = PlaintextClaim::InRange(wrong);
        let dproof = vpke::prove_claim(&f.kp.dk, &cts.0[f.gs.indexes[0]], &claim, &mut f.rng);
        let forged = QualityProof {
            items: vec![MismatchItem {
                index: f.gs.indexes[0],
                claim,
                proof: dproof,
            }],
        };
        let err = verify_quality(&f.kp.ek, &cts, 3, &forged, &f.gs).unwrap_err();
        assert!(matches!(err, QualityError::BadDecryptionProof(_)));
    }

    #[test]
    fn out_of_range_answers_are_mismatches() {
        let mut f = fixture();
        // Answer 7 (out of the binary range) at every position.
        let answer = Answer(vec![7u64; 10]);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (chi, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        assert_eq!(chi, 0);
        assert_eq!(proof.len(), 4);
        assert!(proof
            .items
            .iter()
            .all(|it| matches!(it.claim, PlaintextClaim::OutOfRange(_))));
        verify_quality(&f.kp.ek, &cts, 0, &proof, &f.gs).unwrap();
    }

    #[test]
    fn short_ciphertext_vector_counts_missing_as_mismatch() {
        let mut f = fixture();
        // Only answer the first 4 questions; golds 5 and 7 are missing.
        let answer = answer_with_quality(&f.gs, 4, 2);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (chi, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        assert_eq!(chi, 2);
        // Verifier counts 2 missing golds toward the bound.
        verify_quality(&f.kp.ek, &cts, chi, &proof, &f.gs).unwrap();
    }

    #[test]
    fn batched_proof_matches_per_gold_vpke_proofs_and_rng_draws() {
        // The per-gold loop prove_quality ran before batching, as the
        // reference: same items, same bytes, same draws — also when the
        // ciphertext vector is short and golds 5 and 7 are missing.
        let mut f = fixture();
        for n in [10usize, 4] {
            let answer = answer_with_quality(&f.gs, n, 1);
            let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
            let mut batch_rng = f.rng.clone();
            let (chi, proof) = prove_quality_with_key(&f.kp, &cts, &f.gs, &f.range, &mut batch_rng);
            let mut expect_chi = 0;
            let mut expect_items = Vec::new();
            for (&index, &s) in f.gs.indexes.iter().zip(&f.gs.answers) {
                let Some(ct) = cts.0.get(index) else { continue };
                let (claim, proof) = vpke::prove_with_key(&f.kp, ct, &f.range, &mut f.rng);
                if claim == PlaintextClaim::InRange(s) {
                    expect_chi += 1;
                } else {
                    expect_items.push(MismatchItem {
                        index,
                        claim,
                        proof,
                    });
                }
            }
            assert_eq!((chi, proof.items), (expect_chi, expect_items));
            assert_eq!(Fr::random(&mut batch_rng), Fr::random(&mut f.rng));
        }
    }

    #[test]
    fn proving_the_mismatches_only_matches_proving_every_gold() {
        // The path that proved every gold and dropped the matches, as the
        // reference: same items, same bytes, same next draw — at every
        // quality level, and with golds 5 and 7 missing.
        let mut f = fixture();
        for (n, correct) in [(10usize, 0usize), (10, 1), (10, 3), (10, 4), (4, 1), (4, 2)] {
            let answer = answer_with_quality(&f.gs, n, correct);
            let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
            let mut reference_rng = f.rng.clone();
            let (golds, gold_cts) = gold_positions(&cts, &f.gs);
            let claims: Vec<PlaintextClaim> = golds
                .iter()
                .map(|&(i, _)| PlaintextClaim::InRange(answer.0[i]))
                .collect();
            let proofs = vpke::prove_claims_with_key(&f.kp, &gold_cts, &claims, &mut reference_rng);
            let expect: Vec<MismatchItem> = golds
                .iter()
                .zip(claims)
                .zip(proofs)
                .filter(|((&(_, s), claim), _)| *claim != PlaintextClaim::InRange(s))
                .map(|((&(index, _), claim), proof)| MismatchItem {
                    index,
                    claim,
                    proof,
                })
                .collect();
            let (chi, proof) = prove_quality_of_answer(&f.kp, &cts, &answer, &f.gs, &mut f.rng);
            assert_eq!(chi, quality::quality(&answer, &f.gs));
            assert_eq!(proof.items, expect, "n = {n}, {correct} correct");
            assert_eq!(Fr::random(&mut f.rng), Fr::random(&mut reference_rng));
        }
    }

    #[test]
    fn split_plus_batch_matches_inline_verification() {
        // The deferred settlement path (structural split + batched VPKE)
        // must agree with verify_quality on every quality level.
        let mut f = fixture();
        for correct in 0..=4usize {
            let answer = answer_with_quality(&f.gs, 10, correct);
            let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
            let (chi, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
            let items = split_quality_proof(&f.kp.ek, &cts, chi, &proof, &f.gs).unwrap();
            assert_eq!(items.len(), proof.len());
            assert!(vpke::batch_verify_each(&items).iter().all(|&ok| ok));
            assert!(verify_quality(&f.kp.ek, &cts, chi, &proof, &f.gs).is_ok());
        }
        // And on a forged proof the surviving VPKE item must fail both
        // paths identically.
        let answer = answer_with_quality(&f.gs, 10, 4);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let s = f.gs.answers[0];
        let claim = PlaintextClaim::InRange(1 - s);
        let dproof = vpke::prove_claim(&f.kp.dk, &cts.0[f.gs.indexes[0]], &claim, &mut f.rng);
        let forged = QualityProof {
            items: vec![MismatchItem {
                index: f.gs.indexes[0],
                claim,
                proof: dproof,
            }],
        };
        let items = split_quality_proof(&f.kp.ek, &cts, 3, &forged, &f.gs).unwrap();
        assert_eq!(vpke::batch_verify_each(&items), vec![false]);
        assert!(matches!(
            verify_quality(&f.kp.ek, &cts, 3, &forged, &f.gs),
            Err(QualityError::BadDecryptionProof(_))
        ));
    }

    #[test]
    fn absurd_claimed_chi_does_not_overflow() {
        // χ = u64::MAX must verify (χ is an upper bound, overstating is
        // allowed) without panicking — a panic here would crash the
        // whole shared chain instead of settling the transaction.
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 2);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (_, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        verify_quality(&f.kp.ek, &cts, u64::MAX, &proof, &f.gs).unwrap();
        assert!(split_quality_proof(&f.kp.ek, &cts, u64::MAX, &proof, &f.gs).is_ok());
    }

    #[test]
    fn simulator_produces_equation_valid_items() {
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 2);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (proof, challenges) =
            simulate_quality_proof(&f.kp.ek, &cts, 2, &f.gs, &f.range, &mut f.rng).unwrap();
        assert_eq!(proof.len(), 2);
        for (item, c) in proof.items.iter().zip(&challenges) {
            let stmt = DecryptionStatement {
                ek: f.kp.ek,
                ct: cts.0[item.index],
                claim: item.claim,
            };
            assert!(vpke::verify_equations(&stmt, &item.proof, *c));
        }
    }

    #[test]
    fn encoded_len_tracks_items() {
        let mut f = fixture();
        let answer = answer_with_quality(&f.gs, 10, 1);
        let cts = answer.encrypt(&f.kp.ek, &mut f.rng);
        let (_, proof) = prove_quality(&f.kp.dk, &cts, &f.gs, &f.range, &mut f.rng);
        assert_eq!(proof.len(), 3);
        assert_eq!(proof.encoded_len(), 3 * (8 + 8 + 64 + 64 + 32));
    }
}
