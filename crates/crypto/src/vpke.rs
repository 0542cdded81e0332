//! VPKE — verifiable decryption for exponential ElGamal (§V-C).
//!
//! The prover (the requester, who holds `k`) shows that a ciphertext
//! `(c1, c2)` decrypts to a claimed plaintext, via a Schnorr-style proof
//! for the Diffie–Hellman tuple `(g, h, c1, c2/g^m)` made non-interactive
//! with Fiat–Shamir in the random-oracle model:
//!
//! * `ProvePKE_k((c1, c2))`: run `Dec_k` to get `m` (or the raw group
//!   element `g^m` when out of range); sample `x ← Fr`; compute
//!   `A = c1^x`, `B = g^x`, `C = H(A ‖ B ‖ g ‖ h ‖ c1 ‖ c2 ‖ g^m)` and
//!   `Z = x + kC`; the proof is `π = (A, B, Z)`.
//! * `VerifyPKE_h(M, (c1, c2), π)`: recompute `C'` and accept iff
//!   `g^{M·C'} · c1^Z = A · c2^{C'}`  and  `g^Z = B · h^{C'}`.
//!
//! Both in-range (integer) and out-of-range (group element) claims hash
//! and verify against the same point `M = g^m`, exactly matching the two
//! branches of the paper's `VerifyPKE`.

use crate::elgamal::{
    Ciphertext, Decrypted, DecryptionKey, EncryptionKey, KeyPair, PlaintextRange,
};
use crate::field::Fr;
use crate::g1::{G1Affine, G1Projective};
use crate::precomp::mul_generator;
use crate::ro::Transcript;
use rand::Rng;

/// Domain-separation label for the VPKE Fiat–Shamir transcript.
const VPKE_DOMAIN: &[u8] = b"dragoon/vpke/v1";

/// The claimed decryption result carried alongside a proof.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum PlaintextClaim {
    /// The plaintext `m`, claimed to lie in the question's range.
    InRange(u64),
    /// The raw group element `g^m` for an out-of-range plaintext.
    OutOfRange(G1Affine),
}

impl PlaintextClaim {
    /// The group element `M = g^m` this claim denotes.
    pub fn to_point(&self) -> G1Affine {
        match self {
            PlaintextClaim::InRange(m) => mul_generator(&Fr::from_u64(*m)).to_affine(),
            PlaintextClaim::OutOfRange(p) => *p,
        }
    }

    /// Builds the claim from a decryption outcome.
    pub fn from_decrypted(d: &Decrypted) -> Self {
        match d {
            Decrypted::InRange(m) => PlaintextClaim::InRange(*m),
            Decrypted::OutOfRange(p) => PlaintextClaim::OutOfRange(*p),
        }
    }
}

/// A verifiable-decryption statement: "ciphertext `ct` under public key
/// `ek` decrypts to `claim`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecryptionStatement {
    /// The public encryption key `h`.
    pub ek: EncryptionKey,
    /// The ciphertext.
    pub ct: Ciphertext,
    /// The claimed plaintext.
    pub claim: PlaintextClaim,
}

/// The proof `π = (A, B, Z)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct DecryptionProof {
    /// `A = c1^x`.
    pub a: G1Affine,
    /// `B = g^x`.
    pub b: G1Affine,
    /// `Z = x + kC`.
    pub z: Fr,
}

/// Computes the Fiat–Shamir challenge
/// `C = H(A ‖ B ‖ g ‖ h ‖ c1 ‖ c2 ‖ M)`.
fn challenge(
    a: &G1Affine,
    b: &G1Affine,
    ek: &EncryptionKey,
    ct: &Ciphertext,
    m_point: &G1Affine,
) -> Fr {
    let mut t = Transcript::new(VPKE_DOMAIN);
    t.absorb_point(a)
        .absorb_point(b)
        .absorb_point(&G1Affine::generator())
        .absorb_point(&ek.0)
        .absorb_point(&ct.c1)
        .absorb_point(&ct.c2)
        .absorb_point(m_point);
    t.challenge_scalar()
}

/// `ProvePKE_k(c)`: decrypts and proves, returning the claim and proof.
pub fn prove<R: Rng + ?Sized>(
    dk: &DecryptionKey,
    ct: &Ciphertext,
    range: &PlaintextRange,
    rng: &mut R,
) -> (PlaintextClaim, DecryptionProof) {
    prove_with_key(&KeyPair::from_secret(dk.0), ct, range, rng)
}

/// [`prove`] with the full key pair, so the public key `h` is not
/// re-derived from the secret on every proof — the hot-path entry point
/// the proving service's evaluate jobs use.
pub fn prove_with_key<R: Rng + ?Sized>(
    kp: &KeyPair,
    ct: &Ciphertext,
    range: &PlaintextRange,
    rng: &mut R,
) -> (PlaintextClaim, DecryptionProof) {
    prove_batch_with_key(kp, std::slice::from_ref(ct), range, rng)[0]
}

/// [`prove_with_key`] for several ciphertexts under one key (a PoQoEA
/// proof calls this with its gold standards): one batched decryption,
/// then one batched proof. Entry `i` — and every draw from `rng` — is
/// what the `i`-th of consecutive `prove_with_key` calls would produce.
pub fn prove_batch_with_key<R: Rng + ?Sized>(
    kp: &KeyPair,
    cts: &[Ciphertext],
    range: &PlaintextRange,
    rng: &mut R,
) -> Vec<(PlaintextClaim, DecryptionProof)> {
    let claims: Vec<PlaintextClaim> = kp
        .dk
        .decrypt_batch(cts, range)
        .iter()
        .map(PlaintextClaim::from_decrypted)
        .collect();
    let proofs = prove_claims_with_key(kp, cts, &claims, rng);
    claims.into_iter().zip(proofs).collect()
}

/// Produces a proof for an already-computed claim (must be the true
/// decryption, or the proof will not verify).
pub fn prove_claim<R: Rng + ?Sized>(
    dk: &DecryptionKey,
    ct: &Ciphertext,
    claim: &PlaintextClaim,
    rng: &mut R,
) -> DecryptionProof {
    prove_claim_with_key(&KeyPair::from_secret(dk.0), ct, claim, rng)
}

/// [`prove_claim`] with the full key pair (no per-call `g^k`).
pub fn prove_claim_with_key<R: Rng + ?Sized>(
    kp: &KeyPair,
    ct: &Ciphertext,
    claim: &PlaintextClaim,
    rng: &mut R,
) -> DecryptionProof {
    prove_claims_with_key(
        kp,
        std::slice::from_ref(ct),
        std::slice::from_ref(claim),
        rng,
    )[0]
}

/// One proof per `(cts[i], claims[i])` — [`prove_claim_with_key`] for a
/// vector of already-computed claims (each must be the true decryption,
/// or its proof will not verify): draws `x_i` in order, then normalises
/// every `(A_i, B_i) = (c1_i^{x_i}, g^{x_i})` with a single field
/// inversion before hashing the challenges.
pub fn prove_claims_with_key<R: Rng + ?Sized>(
    kp: &KeyPair,
    cts: &[Ciphertext],
    claims: &[PlaintextClaim],
    rng: &mut R,
) -> Vec<DecryptionProof> {
    prove_kept_claims_with_key(kp, cts, claims, &vec![true; cts.len()], rng)
}

/// [`prove_claims_with_key`] for the items `keep` marks, in order. A
/// nonce `x_i` is still drawn for every item, so each proof — and every
/// later draw from `rng` — is the one proving them all yields; a dropped
/// item only skips computing its `(A_i, B_i, Z_i)`. PoQoEA proves the
/// mismatched gold standards of an answer this way.
///
/// A kept item's two nonce products share the scalar `x_i`, so on an
/// x86-64 CPU with AVX-512 IFMA they are one two-lane pass of the
/// shared-scalar kernel ([`crate::lanes::batch_mul_shared`] on
/// `[c1_i, g]`). Elsewhere `c1_i^{x_i}` goes through
/// [`G1Affine::batch_mul`] with one scalar per lane and `g^{x_i}`
/// through the generator's fixed-base table.
pub fn prove_kept_claims_with_key<R: Rng + ?Sized>(
    kp: &KeyPair,
    cts: &[Ciphertext],
    claims: &[PlaintextClaim],
    keep: &[bool],
    rng: &mut R,
) -> Vec<DecryptionProof> {
    assert_eq!(keep.len(), cts.len(), "one keep flag per ciphertext");
    let xs: Vec<Fr> = cts.iter().map(|_| Fr::random(rng)).collect();
    let kept: Vec<usize> = (0..cts.len()).filter(|&i| keep[i]).collect();
    let c1s: Vec<G1Affine> = kept.iter().map(|&i| cts[i].c1).collect();
    let kept_xs: Vec<Fr> = kept.iter().map(|&i| xs[i]).collect();
    let commitments = nonce_commitments(&c1s, &kept_xs);
    G1Projective::batch_to_affine(&commitments)
        .chunks_exact(2)
        .zip(kept)
        .map(|(ab, i)| {
            let (a, b) = (ab[0], ab[1]);
            let c = challenge(&a, &b, &kp.ek, &cts[i], &claims[i].to_point());
            DecryptionProof {
                a,
                b,
                z: xs[i] + kp.dk.0 * c,
            }
        })
        .collect()
}

/// `[c1_i^{x_i}, g^{x_i}]` for every `i`, flattened, in Jacobian
/// coordinates.
fn nonce_commitments(c1s: &[G1Affine], xs: &[Fr]) -> Vec<G1Projective> {
    #[cfg(target_arch = "x86_64")]
    if let Some(pairs) = c1s
        .iter()
        .zip(xs)
        .map(|(c1, x)| crate::lanes::batch_mul_shared(&[*c1, G1Affine::generator()], x))
        .collect::<Option<Vec<_>>>()
    {
        return pairs.concat();
    }
    G1Affine::batch_mul(c1s, xs)
        .into_iter()
        .zip(xs)
        .flat_map(|(a, x)| [a, mul_generator(x)])
        .collect()
}

/// `VerifyPKE_h(M, c, π)`: checks both verification equations.
pub fn verify(stmt: &DecryptionStatement, proof: &DecryptionProof) -> bool {
    let m_point = stmt.claim.to_point();
    let c = challenge(&proof.a, &proof.b, &stmt.ek, &stmt.ct, &m_point);
    let g = G1Projective::generator();
    // Equation 1: M^C · c1^Z == A · c2^C  (additively:
    // C·M + Z·c1 == A + C·c2).
    let lhs1 = m_point * c + stmt.ct.c1 * proof.z;
    let rhs1 = proof.a.to_projective() + stmt.ct.c2 * c;
    if lhs1 != rhs1 {
        return false;
    }
    // Equation 2: g^Z == B · h^C.
    let lhs2 = g * proof.z;
    let rhs2 = proof.b.to_projective() + stmt.ek.0 * c;
    lhs2 == rhs2
}

/// The zero-knowledge simulator (programmable random-oracle style):
/// given a challenge `c`, produces `(A, B, Z)` satisfying both
/// verification equations for the statement *without* the secret key.
///
/// In the ROM the simulator would program `H` to return `c` on the
/// corresponding query; here it is exposed so tests can check that
/// simulated transcripts are equation-valid and distributed like real
/// ones — the "special zero-knowledge" property PoQoEA relies on.
pub fn simulate_with_challenge<R: Rng + ?Sized>(
    stmt: &DecryptionStatement,
    c: Fr,
    rng: &mut R,
) -> DecryptionProof {
    let z = Fr::random(rng);
    let g = G1Projective::generator();
    let m_point = stmt.claim.to_point();
    // Solve equation 1 for A: A = C·M + Z·c1 - C·c2.
    let a = (m_point * c + stmt.ct.c1 * z - stmt.ct.c2 * c).to_affine();
    // Solve equation 2 for B: B = Z·g - C·h.
    let b = (g * z - stmt.ek.0 * c).to_affine();
    DecryptionProof { a, b, z }
}

/// Domain-separation label for deterministic batch-verification weights.
const VPKE_BATCH_DOMAIN: &[u8] = b"dragoon/vpke/batch/v1";

/// Derives the random-linear-combination weights for a batch by
/// Fiat–Shamir over the whole batch transcript: `ρ_i = H(batch ‖ i)`.
///
/// Weights must be unpredictable to whoever supplied the proofs; hashing
/// every statement and proof into the transcript achieves that without a
/// caller-provided RNG, so an on-chain (deterministic) verifier can use
/// the batched path.
fn batch_weights(
    items: &[(DecryptionStatement, DecryptionProof)],
    claim_points: &[G1Affine],
) -> Vec<Fr> {
    let mut t = Transcript::new(VPKE_BATCH_DOMAIN);
    for ((stmt, proof), m_point) in items.iter().zip(claim_points) {
        // Tag the claim variant: `InRange(m)` and `OutOfRange(g^m)`
        // denote the same point but are different claims.
        let tag = match stmt.claim {
            PlaintextClaim::InRange(_) => 0,
            PlaintextClaim::OutOfRange(_) => 1,
        };
        t.absorb_u64(tag)
            .absorb_point(&stmt.ek.0)
            .absorb_point(&stmt.ct.c1)
            .absorb_point(&stmt.ct.c2)
            .absorb_point(m_point)
            .absorb_point(&proof.a)
            .absorb_point(&proof.b)
            .absorb_scalar(&proof.z);
    }
    (0..items.len())
        .map(|i| {
            let mut ti = t.clone();
            ti.absorb_u64(i as u64);
            ti.challenge_scalar()
        })
        .collect()
}

/// Accumulator for the folded batch equation: (base, scalar) pairs for
/// one MSM. With fold weight `μ` for the second verification equation,
/// item `i` contributes
///
/// `ρ_i·(C_i·M_i + Z_i·c1_i − A_i − C_i·c2_i) + μρ_i·(Z_i·g − B_i − C_i·h_i)`,
///
/// and three kinds of base are folded before the MSM sees them: every
/// item's `g` coefficient is summed into one term; an `InRange(m)`
/// claim's `M = m·g` is not a base at all, its `ρC·m` joins that `g`
/// coefficient; and the items under one requester key share one `h`
/// base, their coefficients summed. What remains is `A`, `B`, `c1`, `c2`
/// per item, an `OutOfRange` claim's point, one `h` per key and `g`.
///
/// Each fold is an identity of the group — `ρC·(m·g) = (ρC·m)·g` and
/// `a·h + b·h = (a + b)·h` — so the MSM sums to the same group element
/// as the unfolded equation for every input, honest or forged, and no
/// verdict [`batch_verify_each`] returns can move. `M` is still computed
/// for the transcript: the weights and challenges hash it.
struct FoldedMsm {
    bases: Vec<G1Affine>,
    scalars: Vec<Fr>,
    g_coeff: Fr,
    /// `(h, coefficient)` per distinct key, in order of first appearance.
    keys: Vec<(G1Affine, Fr)>,
}

impl FoldedMsm {
    fn with_capacity(items: usize) -> Self {
        Self {
            bases: Vec::with_capacity(5 * items + 1),
            scalars: Vec::with_capacity(5 * items + 1),
            g_coeff: Fr::zero(),
            keys: Vec::new(),
        }
    }

    /// One item's contribution under challenge `c`, weight `rho` and
    /// fold weight `mu`.
    fn push(
        &mut self,
        stmt: &DecryptionStatement,
        proof: &DecryptionProof,
        c: Fr,
        rho: Fr,
        mu: Fr,
    ) {
        let rc = rho * c;
        let rz = rho * proof.z;
        match stmt.claim {
            PlaintextClaim::InRange(m) => self.g_coeff += rc * Fr::from_u64(m),
            PlaintextClaim::OutOfRange(m_point) => self.push_term(m_point, rc),
        }
        self.push_term(stmt.ct.c1, rz);
        self.push_term(proof.a, -rho);
        self.push_term(stmt.ct.c2, -rc);
        self.push_term(proof.b, -(mu * rho));
        self.g_coeff += mu * rz;
        let h_coeff = -(mu * rc);
        match self.keys.iter_mut().find(|(h, _)| *h == stmt.ek.0) {
            Some((_, coeff)) => *coeff += h_coeff,
            None => self.keys.push((stmt.ek.0, h_coeff)),
        }
    }

    fn push_term(&mut self, base: G1Affine, scalar: Fr) {
        self.bases.push(base);
        self.scalars.push(scalar);
    }

    /// The MSM's terms: the per-item ones, then one per key, then `g`.
    fn terms(mut self) -> (Vec<G1Affine>, Vec<Fr>) {
        for (h, coeff) in std::mem::take(&mut self.keys) {
            self.push_term(h, coeff);
        }
        self.push_term(G1Affine::generator(), self.g_coeff);
        (self.bases, self.scalars)
    }

    /// Evaluates the fold; `true` iff it sums to the identity.
    fn holds(self) -> bool {
        let (bases, scalars) = self.terms();
        crate::g1::msm_pippenger(&bases, &scalars).is_identity()
    }
}

/// The fold over the items at `idx`.
fn fold(
    items: &[(DecryptionStatement, DecryptionProof)],
    challenges: &[Fr],
    weights: &[Fr],
    mu: Fr,
    idx: &[usize],
) -> FoldedMsm {
    let mut fold = FoldedMsm::with_capacity(idx.len());
    for &i in idx {
        let (stmt, proof) = &items[i];
        fold.push(stmt, proof, challenges[i], weights[i], mu);
    }
    fold
}

/// Per-item batch verification: returns one verdict per proof, matching
/// what [`verify`] would return for each, but paying one multi-scalar
/// multiplication for the whole batch in the common all-valid case.
///
/// Weights are derived deterministically from the batch transcript (no
/// RNG), so the result is reproducible — this is the settlement path the
/// marketplace engine dispatches a block's worth of PoQoEA/VPKE checks
/// through. When the folded equation fails, the batch is bisected to
/// isolate the invalid proofs, with single-item subsets checked by
/// [`verify`] directly.
///
/// Soundness caveat (shared by every random-linear-combination batch
/// verifier, e.g. batched ed25519): a subset whose hash-derived weighted
/// errors cancel would be accepted wholesale. Constructing such a batch
/// requires grinding the Fiat–Shamir weights — a random-oracle hardness
/// assumption of the same strength the VPKE proofs themselves rest on —
/// so verdicts agree with per-proof verification except with negligible
/// adversarial probability, and always agree on all-valid batches
/// (valid items satisfy every subset fold identically).
pub fn batch_verify_each(items: &[(DecryptionStatement, DecryptionProof)]) -> Vec<bool> {
    batch_verify_each_with(items, FoldedMsm::holds)
}

/// [`batch_verify_each`] with `holds` deciding each fold.
fn batch_verify_each_with(
    items: &[(DecryptionStatement, DecryptionProof)],
    holds: fn(FoldedMsm) -> bool,
) -> Vec<bool> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // Materialize each claim's group element once: `InRange(m)` costs a
    // scalar multiplication per conversion, and the weights and the
    // challenges both hash the point (the folds take `m` itself).
    let claim_points: Vec<G1Affine> = items.iter().map(|(s, _)| s.claim.to_point()).collect();
    let weights = batch_weights(items, &claim_points);
    let challenges: Vec<Fr> = items
        .iter()
        .zip(&claim_points)
        .map(|((stmt, proof), m_point)| challenge(&proof.a, &proof.b, &stmt.ek, &stmt.ct, m_point))
        .collect();
    // Fold weight for the second verification equation.
    let mut t = Transcript::new(VPKE_BATCH_DOMAIN);
    t.absorb_bytes(b"fold");
    for w in &weights {
        t.absorb_scalar(w);
    }
    let mu = t.challenge_scalar();

    let mut verdicts = vec![true; n];
    let mut stack: Vec<Vec<usize>> = vec![(0..n).collect()];
    while let Some(idx) = stack.pop() {
        if idx.len() == 1 {
            let (stmt, proof) = &items[idx[0]];
            // The Fiat–Shamir challenge was already derived at entry;
            // checking the equations under it is exactly `verify`.
            verdicts[idx[0]] = verify_equations(stmt, proof, challenges[idx[0]]);
            continue;
        }
        if holds(fold(items, &challenges, &weights, mu, &idx)) {
            continue;
        }
        let (lo, hi) = idx.split_at(idx.len() / 2);
        stack.push(lo.to_vec());
        stack.push(hi.to_vec());
    }
    verdicts
}

/// Checks only the two algebraic verification equations under an
/// explicitly supplied challenge (used to validate simulated proofs).
pub fn verify_equations(stmt: &DecryptionStatement, proof: &DecryptionProof, c: Fr) -> bool {
    let m_point = stmt.claim.to_point();
    let lhs1 = m_point * c + stmt.ct.c1 * proof.z;
    let rhs1 = proof.a.to_projective() + stmt.ct.c2 * c;
    let lhs2 = G1Projective::generator() * proof.z;
    let rhs2 = proof.b.to_projective() + stmt.ek.0 * c;
    lhs1 == rhs1 && lhs2 == rhs2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x4b4e)
    }

    fn setup() -> (StdRng, KeyPair, PlaintextRange) {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        (rng, kp, PlaintextRange::new(0, 3))
    }

    #[test]
    fn completeness_in_range() {
        let (mut rng, kp, range) = setup();
        for m in 0..=3 {
            let ct = kp.ek.encrypt(m, &mut rng);
            let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
            assert_eq!(claim, PlaintextClaim::InRange(m));
            let stmt = DecryptionStatement {
                ek: kp.ek,
                ct,
                claim,
            };
            assert!(verify(&stmt, &proof));
        }
    }

    #[test]
    fn completeness_out_of_range() {
        let (mut rng, kp, range) = setup();
        let ct = kp.ek.encrypt(77, &mut rng);
        let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
        assert!(matches!(claim, PlaintextClaim::OutOfRange(_)));
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim,
        };
        assert!(verify(&stmt, &proof));
    }

    #[test]
    fn soundness_wrong_plaintext_rejected() {
        let (mut rng, kp, range) = setup();
        let ct = kp.ek.encrypt(2, &mut rng);
        let (_, proof) = prove(&kp.dk, &ct, &range, &mut rng);
        // Claiming a different plaintext with the honest proof must fail.
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim: PlaintextClaim::InRange(1),
        };
        assert!(!verify(&stmt, &proof));
    }

    #[test]
    fn soundness_forged_proof_rejected() {
        let (mut rng, kp, range) = setup();
        let ct = kp.ek.encrypt(2, &mut rng);
        let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim,
        };
        // Mutate each proof component.
        let mut bad = proof;
        bad.z += Fr::one();
        assert!(!verify(&stmt, &bad));
        let mut bad = proof;
        bad.a = G1Affine::generator();
        assert!(!verify(&stmt, &bad));
        let mut bad = proof;
        bad.b = G1Affine::generator();
        assert!(!verify(&stmt, &bad));
    }

    #[test]
    fn proof_bound_to_ciphertext() {
        let (mut rng, kp, range) = setup();
        let ct1 = kp.ek.encrypt(2, &mut rng);
        let ct2 = kp.ek.encrypt(2, &mut rng);
        let (claim, proof) = prove(&kp.dk, &ct1, &range, &mut rng);
        // Same plaintext, different ciphertext: proof must not transfer.
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct: ct2,
            claim,
        };
        assert!(!verify(&stmt, &proof));
    }

    #[test]
    fn proof_bound_to_key() {
        let (mut rng, kp, range) = setup();
        let other = KeyPair::generate(&mut rng);
        let ct = kp.ek.encrypt(1, &mut rng);
        let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
        let stmt = DecryptionStatement {
            ek: other.ek,
            ct,
            claim,
        };
        assert!(!verify(&stmt, &proof));
    }

    #[test]
    fn cheating_prover_cannot_claim_in_range_value() {
        // The requester cannot prove that an encryption of 2 decrypts to 0
        // even by generating a fresh (honestly structured) proof for it.
        let (mut rng, kp, _range) = setup();
        let ct = kp.ek.encrypt(2, &mut rng);
        let bogus_claim = PlaintextClaim::InRange(0);
        let forged = prove_claim(&kp.dk, &ct, &bogus_claim, &mut rng);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim: bogus_claim,
        };
        assert!(!verify(&stmt, &forged));
    }

    #[test]
    fn zero_knowledge_simulator_satisfies_equations() {
        let (mut rng, kp, _range) = setup();
        let ct = kp.ek.encrypt(1, &mut rng);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim: PlaintextClaim::InRange(1),
        };
        for _ in 0..5 {
            let c = Fr::random(&mut rng);
            let sim = simulate_with_challenge(&stmt, c, &mut rng);
            assert!(verify_equations(&stmt, &sim, c));
        }
    }

    #[test]
    fn simulator_even_for_false_statements() {
        // Special ZK: the simulator produces equation-valid transcripts
        // even for false claims — the proof leaks nothing beyond the
        // claim's validity (which the RO challenge enforces).
        let (mut rng, kp, _range) = setup();
        let ct = kp.ek.encrypt(1, &mut rng);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim: PlaintextClaim::InRange(0), // false!
        };
        let c = Fr::random(&mut rng);
        let sim = simulate_with_challenge(&stmt, c, &mut rng);
        assert!(verify_equations(&stmt, &sim, c));
    }

    #[test]
    fn batch_verify_each_matches_individual_verdicts() {
        let (mut rng, kp, range) = setup();
        let other = KeyPair::generate(&mut rng);
        let mut items = Vec::new();
        for m in 0..24u64 {
            let kp = if m % 5 == 0 { &other } else { &kp };
            let ct = kp.ek.encrypt(m % 4, &mut rng);
            let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
            items.push((
                DecryptionStatement {
                    ek: kp.ek,
                    ct,
                    claim,
                },
                proof,
            ));
        }
        // Corrupt a scattering of proofs and claims.
        items[3].1.z += Fr::one();
        items[11].0.claim = PlaintextClaim::InRange(2); // true plaintext is 3
        items[17].1.a = G1Affine::generator();
        let expected: Vec<bool> = items.iter().map(|(s, p)| verify(s, p)).collect();
        assert_eq!(batch_verify_each(&items), expected);
        assert_eq!(expected.iter().filter(|ok| !**ok).count(), 3);
    }

    #[test]
    fn batch_verify_each_all_valid_and_all_invalid() {
        let (mut rng, kp, range) = setup();
        let mut items = Vec::new();
        for m in 0..8u64 {
            let ct = kp.ek.encrypt(m % 4, &mut rng);
            let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
            items.push((
                DecryptionStatement {
                    ek: kp.ek,
                    ct,
                    claim,
                },
                proof,
            ));
        }
        assert!(batch_verify_each(&items).iter().all(|&ok| ok));
        for (_, p) in items.iter_mut() {
            p.z += Fr::one();
        }
        assert!(batch_verify_each(&items).iter().all(|&ok| !ok));
        assert!(batch_verify_each(&[]).is_empty());
    }

    #[test]
    fn batch_verify_each_is_deterministic() {
        let (mut rng, kp, range) = setup();
        let mut items = Vec::new();
        for m in 0..5u64 {
            let ct = kp.ek.encrypt(m % 4, &mut rng);
            let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
            items.push((
                DecryptionStatement {
                    ek: kp.ek,
                    ct,
                    claim,
                },
                proof,
            ));
        }
        items[2].1.z += Fr::one();
        assert_eq!(batch_verify_each(&items), batch_verify_each(&items));
    }

    /// A settlement fold decided on the portable MSM path.
    fn holds_portable(fold: FoldedMsm) -> bool {
        let (bases, scalars) = fold.terms();
        crate::g1::msm_pippenger_portable(&bases, &scalars).is_identity()
    }

    /// Asserts that both MSM paths give every item its per-proof verdict.
    fn assert_verdicts_on_both_paths(items: &[(DecryptionStatement, DecryptionProof)], what: &str) {
        let expect: Vec<bool> = items.iter().map(|(s, p)| verify(s, p)).collect();
        assert_eq!(batch_verify_each(items), expect, "{what}");
        assert_eq!(
            batch_verify_each_with(items, holds_portable),
            expect,
            "{what}, portable"
        );
    }

    /// An honest item under `kp` for plaintext `m` of `0..=3`.
    fn honest(kp: &KeyPair, m: u64, rng: &mut StdRng) -> (DecryptionStatement, DecryptionProof) {
        let ct = kp.ek.encrypt(m, rng);
        let (claim, proof) = prove(&kp.dk, &ct, &PlaintextRange::new(0, 3), rng);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim,
        };
        (stmt, proof)
    }

    /// Batches whose folds hold colliding points — bases that coincide
    /// with each other, with `g` or with the identity — under three keys,
    /// the third the negation of the first (`−h` shares `h`'s `x`).
    fn hostile_batches() -> Vec<(&'static str, Vec<(DecryptionStatement, DecryptionProof)>)> {
        let mut rng = rng();
        let mut keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&mut rng)).collect();
        keys.push(KeyPair::from_secret(-keys[0].dk.0));
        let g = G1Affine::generator();
        let two_g = (g.to_projective() + g.to_projective()).to_affine();
        // `A = c1`, `B = h`: forged, every point a base already in the fold.
        let collide: Vec<_> = (0..6u64)
            .map(|i| {
                let (stmt, mut proof) = honest(&keys[i as usize % 3], i % 4, &mut rng);
                (proof.a, proof.b) = (stmt.ct.c1, stmt.ek.0);
                (stmt, proof)
            })
            .collect();
        // One statement eight times, valid, then eight times forged.
        let valid = honest(&keys[0], 2, &mut rng);
        let mut forged = honest(&keys[1], 1, &mut rng);
        forged.1.z += Fr::one();
        let repeated = [vec![valid; 8], vec![forged; 8]].concat();
        // `OutOfRange(g)` and `OutOfRange(2g)`: true for encryptions of 1
        // and 2, false for the others; `M` meets the fold's `g` base.
        let out_of_range: Vec<_> = (0..8u64)
            .map(|i| {
                let kp = &keys[i as usize % 3];
                let ct = kp.ek.encrypt(i % 3, &mut rng);
                let claim = PlaintextClaim::OutOfRange(if i % 2 == 0 { g } else { two_g });
                let proof = prove_claim(&kp.dk, &ct, &claim, &mut rng);
                (
                    DecryptionStatement {
                        ek: kp.ek,
                        ct,
                        claim,
                    },
                    proof,
                )
            })
            .collect();
        // Identity `A` and `B`: the nonce-zero proof `(0, 0, kC)` is
        // valid, the same with `Z + 1` is not.
        let identity: Vec<_> = (0..6u64)
            .map(|i| {
                let kp = &keys[i as usize % 3];
                let (stmt, _) = honest(kp, i % 4, &mut rng);
                let (a, b) = (G1Affine::identity(), G1Affine::identity());
                let c = challenge(&a, &b, &stmt.ek, &stmt.ct, &stmt.claim.to_point());
                let z = kp.dk.0 * c + if i % 3 == 2 { Fr::one() } else { Fr::zero() };
                (stmt, DecryptionProof { a, b, z })
            })
            .collect();
        // Honest items over three keys, with one wrong claim.
        let mut mixed: Vec<_> = (0..12u64)
            .map(|i| honest(&keys[(i * 7 % 3) as usize], i % 4, &mut rng))
            .collect();
        mixed[5].0.claim = PlaintextClaim::InRange(3 - (5 % 4));
        let everything = [
            collide.clone(),
            repeated.clone(),
            out_of_range.clone(),
            identity.clone(),
            mixed.clone(),
        ]
        .concat();
        vec![
            ("A = c1, B = h", collide),
            ("one statement repeated", repeated),
            ("OutOfRange(g), OutOfRange(2g)", out_of_range),
            ("identity A and B", identity),
            ("mixed keys", mixed),
            ("all of them in one batch", everything),
        ]
    }

    #[test]
    fn hostile_folds_keep_every_per_proof_verdict() {
        for (what, items) in hostile_batches() {
            let verdicts: Vec<bool> = items.iter().map(|(s, p)| verify(s, p)).collect();
            assert!(verdicts.contains(&false), "{what}");
            assert_verdicts_on_both_paths(&items, what);
            // Every prefix too: the bisection's halves and small folds.
            for n in [1, 2, 3, 5] {
                assert_verdicts_on_both_paths(&items[..n.min(items.len())], what);
            }
        }
    }

    #[test]
    fn folding_bases_leaves_the_sum_unchanged() {
        // The folded MSM is the unfolded equation's group element, item
        // by item `ρ·(C·M + Z·c1 − A − C·c2) + μρ·(Z·g − B − C·h)`.
        for (what, items) in hostile_batches() {
            let mut rng = rng();
            let mu = Fr::random(&mut rng);
            let challenges: Vec<Fr> = items
                .iter()
                .map(|(s, p)| challenge(&p.a, &p.b, &s.ek, &s.ct, &s.claim.to_point()))
                .collect();
            let weights: Vec<Fr> = items.iter().map(|_| Fr::random(&mut rng)).collect();
            let idx: Vec<usize> = (0..items.len()).collect();
            let (bases, scalars) = fold(&items, &challenges, &weights, mu, &idx).terms();
            assert!(
                bases.len() < 6 * items.len() + 1,
                "{what}: some base is folded"
            );
            let mut unfolded = G1Projective::identity();
            for ((stmt, proof), (&c, &rho)) in items.iter().zip(challenges.iter().zip(&weights)) {
                let g = G1Projective::generator();
                unfolded += stmt.claim.to_point() * (rho * c) + stmt.ct.c1 * (rho * proof.z)
                    - proof.a.to_projective() * rho
                    - stmt.ct.c2 * (rho * c)
                    + (g * proof.z - proof.b.to_projective() - stmt.ek.0 * c) * (mu * rho);
            }
            let folded = crate::g1::msm(&bases, &scalars);
            assert_eq!(folded, unfolded, "{what}");
            assert_eq!(
                crate::g1::msm_pippenger(&bases, &scalars),
                unfolded,
                "{what}"
            );
            assert_eq!(
                crate::g1::msm_pippenger_portable(&bases, &scalars),
                unfolded,
                "{what}"
            );
        }
    }

    /// `prove_kept_claims_with_key` by the definition: every nonce
    /// drawn, then `(c1^x, g^x)` from `mul_scalar` and the generator's
    /// table for each kept item.
    fn prove_kept_oracle(
        kp: &KeyPair,
        cts: &[Ciphertext],
        claims: &[PlaintextClaim],
        keep: &[bool],
        rng: &mut StdRng,
    ) -> Vec<DecryptionProof> {
        let xs: Vec<Fr> = cts.iter().map(|_| Fr::random(rng)).collect();
        (0..cts.len())
            .filter(|&i| keep[i])
            .map(|i| {
                let a = cts[i].c1.to_projective().mul_scalar(&xs[i]).to_affine();
                let b = mul_generator(&xs[i]).to_affine();
                let c = challenge(&a, &b, &kp.ek, &cts[i], &claims[i].to_point());
                let z = xs[i] + kp.dk.0 * c;
                DecryptionProof { a, b, z }
            })
            .collect()
    }

    #[test]
    fn kept_proofs_match_the_per_item_oracle() {
        let (mut rng, kp, _) = setup();
        let g = G1Affine::generator();
        let c1s = [G1Affine::identity(), g, -g, G1Affine::random(&mut rng)];
        let cts: Vec<Ciphertext> = c1s
            .iter()
            .map(|&c1| Ciphertext {
                c1,
                c2: G1Affine::random(&mut rng),
            })
            .collect();
        let claims = [
            PlaintextClaim::InRange(0),
            PlaintextClaim::InRange(1),
            PlaintextClaim::OutOfRange(G1Affine::random(&mut rng)),
            PlaintextClaim::InRange(3),
        ];
        // Every mask over the four items: none, each one, each two,
        // each three and all.
        for mask in 0..16u32 {
            let keep: Vec<bool> = (0..4).map(|i| mask >> i & 1 == 1).collect();
            let seed = 0x4b4e_0000 + u64::from(mask);
            let (mut got_rng, mut want_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let got = prove_kept_claims_with_key(&kp, &cts, &claims, &keep, &mut got_rng);
            let want = prove_kept_oracle(&kp, &cts, &claims, &keep, &mut want_rng);
            let bytes = |proofs: &[DecryptionProof]| -> Vec<u8> {
                proofs
                    .iter()
                    .flat_map(|p| {
                        [
                            p.a.to_bytes().to_vec(),
                            p.b.to_bytes().to_vec(),
                            p.z.to_bytes_le().to_vec(),
                        ]
                    })
                    .flatten()
                    .collect()
            };
            assert_eq!(bytes(&got), bytes(&want), "keep {keep:?}");
            assert_eq!(
                got_rng.gen::<u64>(),
                want_rng.gen::<u64>(),
                "rng after keep {keep:?}"
            );
        }
    }

    #[test]
    fn serde_proof_round_trip_bytes() {
        let (mut rng, kp, range) = setup();
        let ct = kp.ek.encrypt(3, &mut rng);
        let (claim, proof) = prove(&kp.dk, &ct, &range, &mut rng);
        // The proof's components survive a bytes round trip.
        let a2 = G1Affine::from_bytes(&proof.a.to_bytes()).unwrap();
        let z2 = Fr::from_bytes_le(&proof.z.to_bytes_le()).unwrap();
        assert_eq!(a2, proof.a);
        assert_eq!(z2, proof.z);
        let stmt = DecryptionStatement {
            ek: kp.ek,
            ct,
            claim,
        };
        assert!(verify(&stmt, &proof));
    }
}
