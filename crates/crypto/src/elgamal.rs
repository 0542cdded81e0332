//! Exponential ElGamal over G1 with short-range decryption (§V-C).
//!
//! * Key generation: `k ← Fr`, `h = g^k`.
//! * Encryption: `Enc_h(m; ρ) = (g^ρ, g^m · h^ρ)`.
//! * Decryption: `Dec_k((c1, c2))` computes `M = c2 / c1^k = g^m` and then
//!   solves the discrete log over the (small) plaintext range; if `m` is
//!   outside the range, the *group element* `g^m` is returned instead —
//!   exactly the behaviour the paper's `Deck` specifies, which is what the
//!   `outrange` path of the contract verifies against.
//!
//! Answers in a HIT are options of multiple-choice questions, so the
//! plaintext range is a small constant (e.g. `{0, 1}` for the ImageNet
//! binary task); decryption is a handful of group operations. For larger
//! ranges a baby-step/giant-step solver is provided
//! ([`discrete_log_bsgs`]), benchmarked against brute force in the
//! ablation bench.

use crate::field::Fr;
use crate::g1::{BatchAddScratch, G1Affine, G1Projective};
use crate::precomp::{generator_table, mul_generator, FixedBaseTable};
use rand::Rng;
use std::collections::HashMap;

/// The public encryption key `h = g^k`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct EncryptionKey(pub G1Affine);

/// The secret decryption key `k`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecryptionKey(pub Fr);

/// An encryption/decryption key pair.
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    /// The public key.
    pub ek: EncryptionKey,
    /// The secret key.
    pub dk: DecryptionKey,
}

impl KeyPair {
    /// `KeyGen(1^λ)`: samples `k ← Fr`, sets `h = g^k`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let k = Fr::random(rng);
        Self::from_secret(k)
    }

    /// Rebuilds the key pair from an existing secret.
    pub fn from_secret(k: Fr) -> Self {
        let h = mul_generator(&k).to_affine();
        Self {
            ek: EncryptionKey(h),
            dk: DecryptionKey(k),
        }
    }

    /// [`Self::from_secret`] for every secret at once (a market's
    /// requesters): from as many keys as a vector with a table needs, the
    /// public keys are one lane list on the generator's table through the
    /// whole-vector kernel [`EncryptionKey::encrypt_batch`] runs; fewer
    /// take one fixed-base product each. Either way one inversion
    /// normalises them all.
    pub fn from_secrets(secrets: &[Fr]) -> Vec<Self> {
        let keys = if secrets.len() >= whole_vector_lanes() {
            let lanes: Vec<_> = secrets.iter().map(|k| (generator_table(), *k)).collect();
            match whole_vector_products(&lanes) {
                Products::Jacobian(points) => G1Projective::batch_to_affine(&points),
                Products::Affine(points) => points,
            }
        } else {
            let points: Vec<G1Projective> = secrets.iter().map(mul_generator).collect();
            G1Projective::batch_to_affine(&points)
        };
        keys.into_iter()
            .zip(secrets)
            .map(|(h, &k)| Self {
                ek: EncryptionKey(h),
                dk: DecryptionKey(k),
            })
            .collect()
    }
}

/// An exponential-ElGamal ciphertext `(c1, c2) = (g^ρ, g^m h^ρ)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct Ciphertext {
    /// `c1 = g^ρ`.
    pub c1: G1Affine,
    /// `c2 = g^m · h^ρ`.
    pub c2: G1Affine,
}

impl Ciphertext {
    /// Canonical 128-byte encoding (`c1 ‖ c2`, uncompressed points).
    pub fn to_bytes(&self) -> [u8; 128] {
        let mut out = [0u8; 128];
        out[..64].copy_from_slice(&self.c1.to_bytes());
        out[64..].copy_from_slice(&self.c2.to_bytes());
        out
    }

    /// Parses the canonical encoding, validating both points.
    pub fn from_bytes(bytes: &[u8; 128]) -> Option<Self> {
        let mut b1 = [0u8; 64];
        let mut b2 = [0u8; 64];
        b1.copy_from_slice(&bytes[..64]);
        b2.copy_from_slice(&bytes[64..]);
        Some(Self {
            c1: G1Affine::from_bytes(&b1)?,
            c2: G1Affine::from_bytes(&b2)?,
        })
    }

    /// Homomorphically adds another ciphertext (plaintexts add).
    pub fn homomorphic_add(&self, rhs: &Self) -> Self {
        Self {
            c1: (self.c1.to_projective() + rhs.c1.to_projective()).to_affine(),
            c2: (self.c2.to_projective() + rhs.c2.to_projective()).to_affine(),
        }
    }
}

/// The inclusive plaintext range of a multiple-choice question
/// (`range` in the paper — "some options in range ⊂ N ∪ 0").
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct PlaintextRange {
    /// Smallest admissible plaintext.
    pub lo: u64,
    /// Largest admissible plaintext (inclusive).
    pub hi: u64,
}

impl PlaintextRange {
    /// Constructs a range; panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty plaintext range");
        Self { lo, hi }
    }

    /// The binary range `{0, 1}` used by the paper's ImageNet task.
    pub fn binary() -> Self {
        Self::new(0, 1)
    }

    /// Whether `m` lies in the range.
    pub fn contains(&self, m: u64) -> bool {
        self.lo <= m && m <= self.hi
    }

    /// Number of admissible options.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Whether the range is a single value.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The outcome of short-range decryption.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decrypted {
    /// The plaintext was inside the declared range.
    InRange(u64),
    /// The plaintext was outside the range; the group element `g^m` is
    /// returned (the paper: "if decryption fails to output m ∈ range,
    /// then c2/c1^k is returned").
    OutOfRange(G1Affine),
}

impl EncryptionKey {
    /// Encrypts `m` with fresh randomness, returning the ciphertext.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Ciphertext {
        self.encrypt_with(m, Fr::random(rng))
    }

    /// Encrypts `m` with caller-chosen randomness `ρ` (deterministic;
    /// exposed for tests and for the simulator).
    pub fn encrypt_with(&self, m: u64, rho: Fr) -> Ciphertext {
        self.encrypt_with_table(m, rho, None)
    }

    /// [`EncryptionKey::encrypt_with`], with the `h^ρ` term computed
    /// through a precomputed fixed-base table for this key. Produces the
    /// identical ciphertext; only wall clock changes. A market's commit
    /// jobs receive their requester key's table, built before their batch
    /// runs, and thread it through here.
    pub fn encrypt_with_table(
        &self,
        m: u64,
        rho: Fr,
        table: Option<&FixedBaseTable>,
    ) -> Ciphertext {
        self.encrypt_batch(&[m], &[rho], table)[0]
    }

    /// Encrypts `ms[i]` under `rhos[i]` for a whole answer vector. Entry
    /// `i` is byte-for-byte `encrypt_with_table(ms[i], rhos[i], table)`.
    ///
    /// A long enough vector builds one lane list of its `2N` table
    /// multiplications (`N` on the generator's table, then `N` on this
    /// key's), hands it to the whole-vector kernel this CPU runs, and
    /// computes each distinct plaintext's `g^m` once:
    ///
    /// * on an x86-64 CPU with AVX-512 IFMA, from `LANE_TABLE_LANES`
    ///   ciphertext components on, [`crate::lanes::fixed_base_mul`],
    ///   eight lanes per pass whichever table each reads, so the list
    ///   fills `⌈2N/8⌉` passes (one for a 4-answer vector); `g^m` is
    ///   added to each `h^ρ` and all `2N` points are normalised with one
    ///   inversion;
    /// * elsewhere, from `LOCKSTEP_LANES` on,
    ///   [`FixedBaseTable::mul_lockstep`], affine throughout with one
    ///   inversion per step (27 for the two GLV halves) shared by all
    ///   lanes, and one more lockstep step adds `g^m`.
    ///
    /// Without a `table`, a vector of `LOCKSTEP_LANES` components or more
    /// builds a throw-away one (a 0.15–0.3 ms portable build,
    /// `micro_primitives` row `g1_affine_table_build`, against `N`
    /// variable-base multiplications) and takes the same kernel.
    ///
    /// A shorter slice must not pay a whole-vector kernel's fixed cost:
    /// its components are built in Jacobian coordinates and normalised
    /// with one inversion. With a table on an IFMA CPU no non-empty slice
    /// is that short (one answer's two lanes already repay a pass);
    /// without one, or on another CPU, the per-item API's slice of one
    /// is.
    pub fn encrypt_batch(
        &self,
        ms: &[u64],
        rhos: &[Fr],
        table: Option<&FixedBaseTable>,
    ) -> Vec<Ciphertext> {
        assert_eq!(ms.len(), rhos.len(), "one randomness per plaintext");
        let n = ms.len();
        let built;
        let table = match table {
            Some(table) if 2 * n >= whole_vector_lanes() => table,
            None if 2 * n >= LOCKSTEP_LANES => {
                built = FixedBaseTable::new(&self.0);
                &built
            }
            _ => {
                let mut points: Vec<G1Projective> = rhos.iter().map(mul_generator).collect();
                points.extend(ms.iter().zip(rhos).map(|(&m, rho)| {
                    let h_rho = match table {
                        Some(table) => table.mul(rho),
                        None => self.0 * *rho,
                    };
                    mul_generator(&Fr::from_u64(m)) + h_rho
                }));
                return ciphertexts(&G1Projective::batch_to_affine(&points));
            }
        };
        let g_ms = generator_powers(ms);
        match whole_vector_products(&encryption_lanes(table, rhos)) {
            Products::Jacobian(points) => encrypt_on_lanes(points, &g_ms),
            Products::Affine(points) => encrypt_lockstep(points, &g_ms),
        }
    }
}

/// A whole-vector kernel's products: the lanes leave them in Jacobian
/// coordinates, lockstep in affine ones.
enum Products {
    Jacobian(Vec<G1Projective>),
    Affine(Vec<G1Affine>),
}

/// `k·T` for every lane `(T, k)` through the whole-vector kernel this
/// CPU runs: [`crate::lanes::fixed_base_mul`] on an x86-64 CPU with
/// AVX-512 IFMA, [`FixedBaseTable::mul_lockstep`] elsewhere.
fn whole_vector_products(lanes: &[(&FixedBaseTable, Fr)]) -> Products {
    #[cfg(target_arch = "x86_64")]
    if let Some(points) = crate::lanes::fixed_base_mul(lanes) {
        return Products::Jacobian(points);
    }
    Products::Affine(FixedBaseTable::mul_lockstep(lanes))
}

/// `rhos` on the generator's table, then `rhos` on `table`: the one lane
/// list both whole-vector kernels take, `c1`s first, then the `h^ρ`s.
fn encryption_lanes<'a>(table: &'a FixedBaseTable, rhos: &[Fr]) -> Vec<(&'a FixedBaseTable, Fr)> {
    [generator_table(), table]
        .into_iter()
        .flat_map(|table| rhos.iter().map(move |rho| (table, *rho)))
        .collect()
}

/// The eight-lane path's ending: `g_ms` added to the `h^ρ`s in Jacobian
/// coordinates, and all `2N` products normalised with one inversion.
fn encrypt_on_lanes(mut products: Vec<G1Projective>, g_ms: &[G1Affine]) -> Vec<Ciphertext> {
    for (h_rho, g_m) in products[g_ms.len()..].iter_mut().zip(g_ms) {
        *h_rho = h_rho.add_affine(g_m);
    }
    ciphertexts(&G1Projective::batch_to_affine(&products))
}

/// The portable whole-vector path's ending: one more lockstep step adds
/// `g_ms` to the `c2` lanes.
fn encrypt_lockstep(mut points: Vec<G1Affine>, g_ms: &[G1Affine]) -> Vec<Ciphertext> {
    let c2s = &mut points[g_ms.len()..];
    G1Affine::batch_add_assign(c2s, g_ms, &mut BatchAddScratch::default());
    ciphertexts(&points)
}

/// `g^m` for every `m` in `ms`, affine, once per distinct plaintext (an
/// answer vector repeats a handful of options): `m ≤ 16` (the options
/// of every task the market generates) is the identity or an entry of
/// the generator table's window 0, already affine, and a larger `m`
/// takes a fixed-base multiplication and one normalisation shared by
/// all of them.
fn generator_powers(ms: &[u64]) -> Vec<G1Affine> {
    let mut distinct = ms.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let table = generator_table();
    let large: Vec<G1Projective> = distinct
        .iter()
        .filter(|&&m| table.small_multiple(m).is_none())
        .map(|&m| mul_generator(&Fr::from_u64(m)))
        .collect();
    let mut large = G1Projective::batch_to_affine(&large).into_iter();
    let powers: Vec<G1Affine> = distinct
        .iter()
        .map(|&m| {
            table
                .small_multiple(m)
                .unwrap_or_else(|| large.next().expect("one power per large plaintext"))
        })
        .collect();
    ms.iter()
        .map(|m| powers[distinct.partition_point(|d| d < m)])
        .collect()
}

/// Ciphertext `i` of `N` from `points[i]` (`c1`) and `points[N + i]`
/// (`c2`).
fn ciphertexts(points: &[G1Affine]) -> Vec<Ciphertext> {
    let (c1s, c2s) = points.split_at(points.len() / 2);
    c1s.iter()
        .zip(c2s)
        .map(|(&c1, &c2)| Ciphertext { c1, c2 })
        .collect()
}

/// Ciphertext components (`2N` for an `N`-vector) from which
/// [`EncryptionKey::encrypt_batch`] multiplies in lockstep, on a CPU
/// without AVX-512 IFMA (and from which a vector without a table builds
/// one). A lockstep step over both GLV halves of `L` lanes costs
/// `6M + I/2L` a half against the 11M of a mixed addition, and a vector
/// takes 27 such steps where a Jacobian product takes 52 additions, so
/// it wins once an inversion split `2L` ways is under about 10M.
/// Measured (lockstep / Jacobian + `batch_to_affine`, median of 41
/// alternated rounds, three runs): 1.17–1.22 at 4 components, 0.99–1.01
/// at 6, 0.86–0.89 at 8, 0.67–0.72 at 16 (`micro_primitives`: 1.16,
/// 0.92, 0.68); without a table, a portable build plus lockstep against
/// Jacobian products: 1.32–1.48 at 4, 0.96–1.07 at 6, 0.80–0.83 at 8.
/// The binary-GCD inversion moved both crossovers down from 12–16 and
/// 10.
const LOCKSTEP_LANES: usize = 8;

/// Ciphertext components from which [`EncryptionKey::encrypt_batch`]
/// runs a vector that comes with a table on the eight lanes, on a CPU
/// with AVX-512 IFMA: every vector of one answer or more. A call has a
/// fixed cost — one pass of 52 steps (26 windows of each GLV half) and
/// the key rows its digits touch (52 a lane at most) — that even one
/// answer's two lanes repay against two Jacobian table products. Measured
/// (`micro_primitives`, fixed-base lanes / Jacobian + `batch_to_affine`,
/// one lane list, conversion included, three runs): 0.70–0.83 at 2
/// lanes, 0.41–0.50 at 4, 0.24–0.28 at 8, 0.20–0.26 at 16, 0.22–0.24 at
/// 32, 0.16–0.22 at 212; against lockstep 0.17–0.20 up to 8 lanes and
/// 0.33–0.39 at 212.
#[cfg(target_arch = "x86_64")]
const LANE_TABLE_LANES: usize = 2;

/// Components from which a vector with a table takes a whole-vector
/// kernel on this CPU.
fn whole_vector_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::lanes::has_ifma() {
        return LANE_TABLE_LANES;
    }
    LOCKSTEP_LANES
}

impl DecryptionKey {
    /// Computes the "raw" decryption `M = c2 / c1^k = g^m`.
    pub fn decrypt_raw(&self, ct: &Ciphertext) -> G1Affine {
        (ct.c2.to_projective() - ct.c1 * self.0).to_affine()
    }

    /// Full short-range decryption: brute-forces the discrete log over
    /// `range`, falling back to the raw group element when out of range.
    pub fn decrypt(&self, ct: &Ciphertext, range: &PlaintextRange) -> Decrypted {
        self.decrypt_batch(std::slice::from_ref(ct), range)[0]
    }

    /// [`DecryptionKey::decrypt`] for a whole ciphertext vector. Every
    /// `c1^k` comes from one [`G1Affine::batch_mul`] with the one secret
    /// scalar, split and recoded once: from two ciphertexts on, on a CPU
    /// with AVX-512 IFMA, eight `c1`s at a time on the lane kernel;
    /// otherwise through lockstep-built affine tables on a long vector,
    /// and `mul_scalar` per lane on a short one (such as the per-item
    /// API's slice of one). The raw points `c2 / c1^k` and the range's
    /// candidates `g^lo, …, g^hi` are then normalised with a single field
    /// inversion and matched by coordinate comparison. Entry `i` equals
    /// `decrypt(&cts[i], range)`, on every path. A caller with several
    /// vectors under one key gains by passing them as one
    /// (`dragoon_protocol`'s `Evaluator::evaluate_all` does, per HIT).
    pub fn decrypt_batch(&self, cts: &[Ciphertext], range: &PlaintextRange) -> Vec<Decrypted> {
        let c1s: Vec<G1Affine> = cts.iter().map(|ct| ct.c1).collect();
        let mut points: Vec<G1Projective> = G1Affine::batch_mul(&c1s, &[self.0])
            .into_iter()
            .zip(cts)
            .map(|(c1_k, ct)| (-c1_k).add_affine(&ct.c2))
            .collect();
        points.extend(range_points(range));
        let points = G1Projective::batch_to_affine(&points);
        let (raws, candidates) = points.split_at(cts.len());
        raws.iter()
            .map(|raw| match candidates.iter().position(|c| c == raw) {
                Some(offset) => Decrypted::InRange(range.lo + offset as u64),
                None => Decrypted::OutOfRange(*raw),
            })
            .collect()
    }

    /// The matching public key.
    pub fn public_key(&self) -> EncryptionKey {
        EncryptionKey(mul_generator(&self.0).to_affine())
    }
}

/// The candidates `g^lo, g^{lo+1}, …, g^hi`, one mixed addition each.
fn range_points(range: &PlaintextRange) -> impl Iterator<Item = G1Projective> {
    let mut next = mul_generator(&Fr::from_u64(range.lo));
    (range.lo..=range.hi).map(move |_| {
        let cur = next;
        next = next + G1Affine::generator();
        cur
    })
}

/// Solves `g^m = target` for `m ∈ range` by linear scan (the paper's
/// "log is to brute-force the short plaintext range"). Candidates are
/// compared in Jacobian coordinates — no inversion per candidate.
pub fn discrete_log_in_range(target: &G1Affine, range: &PlaintextRange) -> Option<u64> {
    let target = target.to_projective();
    range_points(range)
        .position(|candidate| candidate == target)
        .map(|offset| range.lo + offset as u64)
}

/// Baby-step/giant-step discrete log: solves `g^m = target` for
/// `0 <= m < bound` in `O(√bound)` group operations and memory.
///
/// Used by the ablation benchmark to locate the range size at which BSGS
/// overtakes the linear scan.
pub fn discrete_log_bsgs(target: &G1Affine, bound: u64) -> Option<u64> {
    if bound == 0 {
        return None;
    }
    let m = (bound as f64).sqrt().ceil() as u64;
    // Baby steps g^j for j in [0, m), then giant steps
    // target · (g^-m)^i for i in [0, m]; all normalised together.
    let mut points = Vec::with_capacity(2 * m as usize + 1);
    let mut cur = G1Projective::identity();
    for _ in 0..m {
        points.push(cur);
        cur = cur + G1Affine::generator();
    }
    let g_minus_m = (-cur).to_affine();
    let mut gamma = target.to_projective();
    for _ in 0..=m {
        points.push(gamma);
        gamma = gamma + g_minus_m;
    }
    let points = G1Projective::batch_to_affine(&points);
    let (baby, giant) = points.split_at(m as usize);
    let table: HashMap<[u8; 64], u64> = baby.iter().map(G1Affine::to_bytes).zip(0..).collect();
    giant.iter().zip(0u64..).find_map(|(gamma, i)| {
        let j = table.get(&gamma.to_bytes())?;
        Some(i * m + j).filter(|&candidate| candidate < bound)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xe16a)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 10);
        for m in 0..=10 {
            let ct = kp.ek.encrypt(m, &mut rng);
            assert_eq!(kp.dk.decrypt(&ct, &range), Decrypted::InRange(m));
        }
    }

    #[test]
    fn out_of_range_returns_group_element() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::binary();
        let ct = kp.ek.encrypt(7, &mut rng);
        match kp.dk.decrypt(&ct, &range) {
            Decrypted::OutOfRange(p) => {
                assert_eq!(p, (G1Projective::generator() * Fr::from_u64(7)).to_affine());
            }
            other => panic!("expected out-of-range, got {other:?}"),
        }
    }

    #[test]
    fn wrong_key_garbles() {
        let mut rng = rng();
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let range = PlaintextRange::binary();
        let ct = kp1.ek.encrypt(1, &mut rng);
        // With overwhelming probability the wrong key decrypts out of the
        // tiny range.
        assert!(matches!(
            kp2.dk.decrypt(&ct, &range),
            Decrypted::OutOfRange(_)
        ));
    }

    #[test]
    fn randomized_ciphertexts_differ() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct1 = kp.ek.encrypt(1, &mut rng);
        let ct2 = kp.ek.encrypt(1, &mut rng);
        assert_ne!(ct1, ct2, "semantic security requires fresh randomness");
    }

    #[test]
    fn deterministic_encrypt_with_fixed_randomness() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let rho = Fr::random(&mut rng);
        assert_eq!(kp.ek.encrypt_with(3, rho), kp.ek.encrypt_with(3, rho));
    }

    /// The pre-batching formula, point by point.
    fn encrypt_reference(ek: &EncryptionKey, m: u64, rho: Fr) -> Ciphertext {
        use crate::g1::mul_reference;
        let g = G1Projective::generator();
        let c2 = mul_reference(&g, &Fr::from_u64(m)) + mul_reference(&ek.0.to_projective(), &rho);
        Ciphertext {
            c1: mul_reference(&g, &rho).to_affine(),
            c2: c2.to_affine(),
        }
    }

    /// Answers in the degenerate-lane vectors: each pattern four times,
    /// fixed so that coverage does not follow `LOCKSTEP_LANES`, which
    /// the vector must reach in components to take the lockstep path.
    const DEGENERATE_ANSWERS: usize = 16;
    const _: () = assert!(2 * DEGENERATE_ANSWERS >= LOCKSTEP_LANES);

    #[test]
    fn lockstep_encryption_handles_degenerate_lanes() {
        // With h = g, `h^ρ` meets `g^m` at ρ = m (the last step is a
        // tangent) and cancels it at ρ = −m (c2 is the identity); ρ = 0
        // leaves both lanes at the identity until the `g^m` step.
        let kp = KeyPair::from_secret(Fr::one());
        let n = DEGENERATE_ANSWERS;
        let ms: Vec<u64> = (0..n as u64).map(|i| i % 40).collect();
        let rhos: Vec<Fr> = ms
            .iter()
            .enumerate()
            .map(|(i, &m)| match i % 4 {
                0 => Fr::from_u64(m),
                1 => -Fr::from_u64(m),
                2 => Fr::zero(),
                _ => -Fr::one(),
            })
            .collect();
        let cts = kp.ek.encrypt_batch(&ms, &rhos, None);
        for ((&m, &rho), ct) in ms.iter().zip(&rhos).zip(&cts) {
            assert_eq!(*ct, encrypt_reference(&kp.ek, m, rho), "m = {m}");
        }
        assert!(cts[1].c2.is_identity() && cts[2].c1.is_identity());
        let range = PlaintextRange::new(0, 39);
        let plain: Vec<Decrypted> = ms.iter().map(|&m| Decrypted::InRange(m)).collect();
        assert_eq!(kp.dk.decrypt_batch(&cts, &range), plain);
    }

    /// The portable path of `lockstep_encryption_handles_degenerate_lanes`,
    /// which a CPU with AVX-512 IFMA does not take from `encrypt_batch`.
    #[test]
    fn portable_lockstep_encryption_handles_degenerate_lanes() {
        let kp = KeyPair::from_secret(Fr::one());
        let ms: Vec<u64> = (0..DEGENERATE_ANSWERS as u64).map(|i| i % 40).collect();
        let rhos: Vec<Fr> = ms
            .iter()
            .zip([1, -1, 0].into_iter().cycle())
            .map(|(&m, sign)| match sign {
                1 => Fr::from_u64(m),
                -1 => -Fr::from_u64(m),
                _ => Fr::zero(),
            })
            .collect();
        let table = FixedBaseTable::new(&kp.ek.0);
        let products = FixedBaseTable::mul_lockstep(&encryption_lanes(&table, &rhos));
        let cts = encrypt_lockstep(products, &generator_powers(&ms));
        for ((&m, &rho), ct) in ms.iter().zip(&rhos).zip(&cts) {
            assert_eq!(*ct, encrypt_reference(&kp.ek, m, rho), "m = {m}");
        }
    }

    /// Every way `encrypt_batch` can run a vector reproduces the offline
    /// vectors: with the key's table and without one, through each
    /// whole-vector kernel on its own (a 9- or 17-vector's lane list has
    /// a pass that mixes generator and key lanes), and item by item.
    #[test]
    fn encrypt_batch_matches_offline_vectors() {
        use crate::field::Fq;
        use crate::vectors::{Xy, ELGAMAL};
        let point = |xy: Option<Xy>| {
            xy.map_or(G1Affine::identity(), |(x, y)| {
                let (x, y) = (Fq::from_plain_limbs(x), Fq::from_plain_limbs(y));
                G1Affine::from_xy(x.unwrap(), y.unwrap()).expect("on the curve")
            })
        };
        let secret = Fr::from_plain_limbs(ELGAMAL.secret).expect("the secret is reduced");
        let kp = KeyPair::from_secret(secret);
        assert_eq!(kp.ek.0, point(Some(ELGAMAL.key)));
        let table = FixedBaseTable::new(&kp.ek.0);
        let lengths: Vec<usize> = ELGAMAL.vectors.iter().map(|v| v.len()).collect();
        assert_eq!(lengths, [1, 4, 9, 17]);
        for vector in ELGAMAL.vectors {
            let ms: Vec<u64> = vector.iter().map(|&(m, ..)| m).collect();
            let rhos: Vec<Fr> = vector
                .iter()
                .map(|&(_, rho, ..)| Fr::from_plain_limbs(rho).expect("ρ is reduced"))
                .collect();
            let expect: Vec<Ciphertext> = vector
                .iter()
                .map(|&(.., c1, c2)| Ciphertext {
                    c1: point(c1),
                    c2: point(c2),
                })
                .collect();
            let n = vector.len();
            assert_eq!(
                kp.ek.encrypt_batch(&ms, &rhos, Some(&table)),
                expect,
                "{n}, table"
            );
            assert_eq!(
                kp.ek.encrypt_batch(&ms, &rhos, None),
                expect,
                "{n}, no table"
            );
            let (lanes, g_ms) = (encryption_lanes(&table, &rhos), generator_powers(&ms));
            let products = FixedBaseTable::mul_lockstep(&lanes);
            assert_eq!(encrypt_lockstep(products, &g_ms), expect, "{n}, lockstep");
            #[cfg(target_arch = "x86_64")]
            if let Some(products) = crate::lanes::fixed_base_mul(&lanes) {
                assert_eq!(encrypt_on_lanes(products, &g_ms), expect, "{n}, lanes");
            }
            for ((&m, &rho), ct) in ms.iter().zip(&rhos).zip(&expect) {
                assert_eq!(kp.ek.encrypt_with_table(m, rho, Some(&table)), *ct);
                assert_eq!(kp.ek.encrypt_with(m, rho), *ct);
            }
        }
    }

    /// Keys made together equal keys made one at a time, on both sides
    /// of the whole-vector threshold, with the secrets 0, 1 and r − 1
    /// among seeded ones.
    #[test]
    fn keys_made_together_match_one_at_a_time() {
        let mut rng = rng();
        let mut secrets = vec![Fr::zero(), Fr::one(), -Fr::one()];
        secrets.extend((0..20).map(|_| Fr::random(&mut rng)));
        for n in [0, 1, 2, 3, 8, 9, 17, secrets.len()] {
            let together = KeyPair::from_secrets(&secrets[..n]);
            assert_eq!(together.len(), n);
            for (kp, &k) in together.iter().zip(&secrets) {
                let alone = KeyPair::from_secret(k);
                assert_eq!((kp.ek, kp.dk), (alone.ek, alone.dk), "{n} keys");
            }
        }
    }

    #[test]
    fn generator_powers_match_the_reference() {
        use crate::g1::mul_reference;
        // Repeats, the identity, both ends of window 0, and past it.
        let ms = [3, 0, 16, 1, 17, 3, 100, 16, 0, 1 << 40];
        let g = G1Projective::generator();
        let expect: Vec<G1Affine> = ms
            .iter()
            .map(|&m| mul_reference(&g, &Fr::from_u64(m)).to_affine())
            .collect();
        assert_eq!(generator_powers(&ms), expect);
        assert!(generator_powers(&[]).is_empty());
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 100);
        let ct1 = kp.ek.encrypt(30, &mut rng);
        let ct2 = kp.ek.encrypt(12, &mut rng);
        let sum = ct1.homomorphic_add(&ct2);
        assert_eq!(kp.dk.decrypt(&sum, &range), Decrypted::InRange(42));
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct = kp.ek.encrypt(1, &mut rng);
        assert_eq!(Ciphertext::from_bytes(&ct.to_bytes()).unwrap(), ct);
    }

    #[test]
    fn bsgs_matches_linear() {
        for m in [0u64, 1, 2, 17, 99, 100, 1000, 4095] {
            let target = (G1Projective::generator() * Fr::from_u64(m)).to_affine();
            assert_eq!(discrete_log_bsgs(&target, 4096), Some(m), "m = {m}");
            if m <= 100 {
                assert_eq!(
                    discrete_log_in_range(&target, &PlaintextRange::new(0, 100)),
                    Some(m)
                );
            }
        }
    }

    #[test]
    fn bsgs_out_of_bound() {
        let target = (G1Projective::generator() * Fr::from_u64(5000)).to_affine();
        assert_eq!(discrete_log_bsgs(&target, 4096), None);
        assert_eq!(
            discrete_log_in_range(&target, &PlaintextRange::new(0, 100)),
            None
        );
    }

    #[test]
    fn range_helpers() {
        let r = PlaintextRange::binary();
        assert!(r.contains(0) && r.contains(1) && !r.contains(2));
        assert_eq!(r.len(), 2);
        assert_eq!(PlaintextRange::new(3, 7).len(), 5);
    }

    #[test]
    fn key_pair_consistency() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        assert_eq!(kp.dk.public_key(), kp.ek);
    }
}
