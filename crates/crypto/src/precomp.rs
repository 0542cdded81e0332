//! Fixed-base precomputation: the tables and a keyed cache of them.
//!
//! Every proof object on the marketplace hot path — ElGamal encryption,
//! VPKE proving, PoQoEA quality proofs — spends its time in scalar
//! multiplications against two kinds of bases: the group generator `g`
//! (commitment randomness, claim points, public keys) and a requester's
//! encryption key `h` (the `h^ρ` term of every ciphertext). Both bases
//! repeat across thousands of proofs, so a windowed fixed-base table
//! ([`FixedBaseTable`]) turns each multiplication into at most 52 mixed
//! additions and no doublings. The table is half the size a 256-bit
//! scalar's windows would need: a scalar is GLV-split (`g1::glv_split`)
//! into `k = ±k1 ± k2·λ` with both halves below `2^127`, the table holds
//! the 26 windows of one half, and the `k2` half reads the same entries
//! through the endomorphism `φ(x, y) = (βx, y)`, which multiplies by
//! `λ`. A whole answer vector of multiplications takes 27 lockstep
//! affine steps ([`FixedBaseTable::mul_lockstep`]), or, on a CPU with
//! AVX-512 IFMA, 52 eight-lane steps per eight lanes
//! (`lanes::fixed_base_mul`). Both kernels take the same list of
//! `(table, scalar)` lanes, so one vector's lanes on `g`'s table and on
//! `h`'s share their steps. The lanes read a table through
//! `FixedBaseTable::entries`: they keep a lane-form copy of the
//! generator's table only, both halves of it, and convert another
//! table's entries per call, only those the call's digits select.
//!
//! A table costs about 0.15–0.3 ms to build portably
//! ([`FixedBaseTable::new`]: 125 doublings, five shared inversions, 390
//! affine additions; `micro_primitives` row `g1_affine_table_build`) —
//! on a micro-task, whose key serves a dozen or so encryptions, more
//! than the encryptions. So keys are built together where they can be:
//! [`FixedBaseTable::new_batch`] takes eight keys a pass on the AVX-512
//! IFMA lanes (`lanes::fixed_base_tables`, 30–45 µs a key in a full
//! pass), the same entries byte for byte.
//!
//! * [`generator_table`] — a process-wide table for `g`, built once.
//! * A requester key's table belongs to its owner. In the market that
//!   is the requester agent: its key is read only by the commit jobs of
//!   its one task, so the engine builds the table with the round's other
//!   missing keys ([`FixedBaseTable::new_batch`]) before it makes the
//!   round's commit jobs, hands each job the table, and drops it when
//!   the task's commit phase closes.
//! * [`ProofCache`] — a keyed cache of per-base tables for a caller
//!   that looks a key up inside its jobs instead: a lookup
//!   ([`ProofCache::table_for`]) builds its own miss after releasing
//!   the lock, so a cold key stalls only the threads that want that
//!   same key, and past the cap the oldest-inserted table is evicted.
//!
//! Table-based multiplication returns the same group element as
//! [`G1Projective::mul_scalar`] (asserted by unit tests), and every
//! caller normalizes to affine coordinates, so switching a code path to
//! the table changes no serialized bytes — goldens are unaffected.

use crate::field::Fr;
use crate::g1::{glv_split, BatchAddScratch, G1Affine, G1Projective};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Window width in bits: a GLV half is recoded into signed width-5
/// digits (see [`signed_digits`]), so a window stores only the 16
/// positive multiples and a negative digit negates `y` on the way out.
pub(crate) const WINDOW_BITS: usize = 5;
/// Signed digits in a 128-bit half: 25 full windows, and one for bits
/// 125–127 plus the carry.
pub(crate) const WINDOWS: usize = 128usize.div_ceil(WINDOW_BITS);
/// The digit radix, `2^5`.
const RADIX: i8 = 1 << WINDOW_BITS;
/// Stored multiples per window: `1..=16`.
const ENTRIES: usize = RADIX as usize / 2;
/// Entries in a table: 26 windows × 16 multiples.
pub(crate) const TABLE_ENTRIES: usize = ENTRIES * WINDOWS;

/// A scalar as table digits: row 0 holds the signed digits of `k1`,
/// row 1 those of `k2`, each half's sign folded into its digits, with
/// `k = k1 + k2·λ`.
pub(crate) type SplitDigits = [[i8; WINDOWS]; 2];

/// Recodes a 128-bit integer as `Σ dᵢ·2^{5i}` with `dᵢ ∈ [-15, 16]`,
/// least significant first: a raw window value above 16 becomes
/// `value − 32` and carries one into the next window. The last window
/// sees only bits 125–127 and a carry, so nothing carries out of it.
pub(crate) fn signed_digits(k: u128) -> [i8; WINDOWS] {
    let mut digits = [0i8; WINDOWS];
    let mut carry = 0;
    for (w, digit) in digits.iter_mut().enumerate() {
        let d = (k >> (w * WINDOW_BITS) & (RADIX as u128 - 1)) as i8 + carry;
        (*digit, carry) = if d > RADIX / 2 {
            (d - RADIX, 1)
        } else {
            (d, 0)
        };
    }
    debug_assert_eq!(carry, 0);
    digits
}

/// `k`'s GLV split, both halves recoded: the digits every fixed-base
/// kernel walks.
pub(crate) fn split_digits(k: &Fr) -> SplitDigits {
    glv_split(k).map(|(half, negative)| {
        let digits = signed_digits(half);
        if negative {
            digits.map(|d| -d)
        } else {
            digits
        }
    })
}

/// Where a table keeps the multiple for window `w` and digit magnitude
/// `d ∈ [1, 16]`: `(d-1)·26 + w`.
#[inline]
pub(crate) fn entry_index(w: usize, d: u8) -> usize {
    (usize::from(d) - 1) * WINDOWS + w
}

/// A windowed fixed-base multiplication table over GLV halves: for
/// window `w` and digit `d ∈ [1, 16]`, entry `(d-1)·26 + w` holds
/// `d · 2^{5w} · base` in affine coordinates, so every hit is a mixed
/// addition — 26 windows × 16 entries of 72 B, 29.25 KiB per base. A
/// scalar's `k1` half reads the entries as they are and its `k2` half
/// reads them through `φ`, `(x, y) ↦ (βx, y)`.
pub struct FixedBaseTable {
    entries: Vec<G1Affine>,
}

impl FixedBaseTable {
    /// Precomputes the table for one base point.
    ///
    /// The window bases `2^{5w}·base` come from one doubling chain (125
    /// doublings), normalised together; the digit multiples then grow by
    /// doubling the digit set — `{1..m}` to `{1..2m}` as `m·B + {1..m}·B`
    /// across all 26 windows at once, four times — through
    /// [`G1Affine::batch_add_assign`], five shared inversions in all.
    pub fn new(base: &G1Affine) -> Self {
        let mut window_bases = Vec::with_capacity(WINDOWS);
        let mut window_base = base.to_projective();
        for w in 0..WINDOWS {
            window_bases.push(window_base);
            if w + 1 < WINDOWS {
                for _ in 0..WINDOW_BITS {
                    window_base = window_base.double();
                }
            }
        }
        let mut entries = Vec::with_capacity(TABLE_ENTRIES);
        entries.extend(G1Projective::batch_to_affine(&window_bases));
        let mut scratch = BatchAddScratch::default();
        let mut top = Vec::with_capacity(TABLE_ENTRIES / 2);
        while entries.len() < TABLE_ENTRIES {
            let have = entries.len();
            top.clear();
            top.extend(entries[have - WINDOWS..].iter().cycle().take(have));
            entries.extend_from_within(..have);
            G1Affine::batch_add_assign(&mut entries[have..], &top, &mut scratch);
        }
        Self { entries }
    }

    /// One table per base, `bases.iter().map(FixedBaseTable::new)` entry
    /// for entry. On an x86-64 CPU with AVX-512 IFMA, from
    /// `LANE_BUILD_KEYS` bases on, eight bases share each pass of
    /// `lanes::fixed_base_tables` (a base that is the identity or off
    /// the curve still gets [`FixedBaseTable::new`]); everywhere else,
    /// and for fewer bases, each table is built on its own. A caller
    /// with more bases than a pass takes can fan chunks of
    /// [`BUILD_CHUNK`] out over its threads.
    pub fn new_batch(bases: &[G1Affine]) -> Vec<FixedBaseTable> {
        #[cfg(target_arch = "x86_64")]
        if bases.len() >= LANE_BUILD_KEYS {
            if let Some(tables) = crate::lanes::fixed_base_tables(bases) {
                return tables;
            }
        }
        bases.iter().map(FixedBaseTable::new).collect()
    }

    /// A table from entries laid out as [`FixedBaseTable::new`] lays
    /// them out.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn from_entries(entries: Vec<G1Affine>) -> Self {
        debug_assert_eq!(entries.len(), TABLE_ENTRIES);
        Self { entries }
    }

    /// The entries, `d · 2^{5w} · base` at [`entry_index`]`(w, d)`, so
    /// entry 0 is the base itself.
    pub(crate) fn entries(&self) -> &[G1Affine] {
        &self.entries
    }

    /// `m · base` for `m ≤ 16`, affine and free: the identity, or window
    /// 0's entry. `None` for a larger `m`.
    pub(crate) fn small_multiple(&self, m: u64) -> Option<G1Affine> {
        match m {
            0 => Some(G1Affine::identity()),
            1..=16 => Some(self.entries[entry_index(0, m as u8)]),
            _ => None,
        }
    }

    /// `d · 2^{5w} · base` for a signed digit, the identity for 0.
    #[inline]
    fn entry(&self, w: usize, d: i8) -> G1Affine {
        if d == 0 {
            return G1Affine::identity();
        }
        let e = self.entries[entry_index(w, d.unsigned_abs())];
        if d < 0 {
            -e
        } else {
            e
        }
    }

    /// `acc + Σ dᵢ · 2^{5i} · base` over one half's digits.
    fn add_half(&self, acc: G1Projective, digits: &[i8; WINDOWS]) -> G1Projective {
        digits
            .iter()
            .enumerate()
            .fold(acc, |acc, (w, &d)| acc.add_affine(&self.entry(w, d)))
    }

    /// Multiplies the table's base by `k`: `k2·B`, then `φ` of it —
    /// one `β` multiplication — and `k1·B` on top, one mixed addition
    /// per nonzero digit of either half, at most 52 and no doublings;
    /// small scalars (claim points `g^m`, fold counters) have an empty
    /// `k2` and cost one or two.
    pub fn mul(&self, k: &Fr) -> G1Projective {
        self.mul_split(&split_digits(k))
    }

    /// [`Self::mul`] of the scalar `digits` stand for.
    fn mul_split(&self, [first, second]: &SplitDigits) -> G1Projective {
        let image = self
            .add_half(G1Projective::identity(), second)
            .endomorphism();
        self.add_half(image, first)
    }

    /// `table.mul(k).to_affine()` for every lane `(table, k)`, walking
    /// the 26 windows once for the whole vector with both halves of
    /// every lane side by side: each step gathers every lane's two
    /// entries for that window and applies one
    /// [`G1Affine::batch_add_assign`] over the `2L` sums — about 6
    /// multiplications and a `1/2L` share of an inversion per half-step
    /// (`6M + I/2L`) where [`Self::mul`] pays an 11M mixed addition —
    /// and one last step adds `φ(k2·B)` to `k1·B`, 27 inversions in all.
    /// The results come out affine. The inversions only pay off on a long
    /// vector; callers choose by lane count (see
    /// `EncryptionKey::encrypt_batch`).
    pub fn mul_lockstep(lanes: &[(&FixedBaseTable, Fr)]) -> Vec<G1Affine> {
        let split: Vec<(&FixedBaseTable, SplitDigits)> = lanes
            .iter()
            .map(|&(table, k)| (table, split_digits(&k)))
            .collect();
        Self::lockstep_split(&split)
    }

    /// [`Self::mul_lockstep`] of the scalars the lanes' digits stand for.
    fn lockstep_split(lanes: &[(&FixedBaseTable, SplitDigits)]) -> Vec<G1Affine> {
        // `halves[2i]` sums lane `i`'s `k1` entries, `halves[2i + 1]` its
        // `k2` entries, read as they are: `φ` is applied once, at the end.
        let mut halves = vec![G1Affine::identity(); 2 * lanes.len()];
        let mut step = halves.clone();
        let mut scratch = BatchAddScratch::default();
        for w in 0..WINDOWS {
            for (pair, (table, digits)) in step.chunks_exact_mut(2).zip(lanes) {
                for (entry, half) in pair.iter_mut().zip(digits) {
                    *entry = table.entry(w, half[w]);
                }
            }
            G1Affine::batch_add_assign(&mut halves, &step, &mut scratch);
        }
        let (mut sums, seconds): (Vec<G1Affine>, Vec<G1Affine>) = halves
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1].endomorphism()))
            .unzip();
        G1Affine::batch_add_assign(&mut sums, &seconds, &mut scratch);
        sums
    }
}

/// The process-wide fixed-base table for the group generator `g`.
pub fn generator_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(&G1Affine::generator()))
}

/// Bases a pass of the lanes' table build takes: one a lane.
pub const BUILD_CHUNK: usize = 8;

/// Bases from which [`FixedBaseTable::new_batch`] builds on the eight
/// lanes, on a CPU with AVX-512 IFMA. A pass costs about the same however
/// many of its lanes hold a base, and one base's pass costs a little more
/// than its portable build. Measured (`micro_primitives`, table build
/// lanes / portable, alternated rounds, three runs): 1.03–1.28 at 1 key,
/// 0.52–0.67 at 2, 0.33–0.40 at 3–4 (one run 0.27), 0.14–0.17 at 8.
#[cfg(target_arch = "x86_64")]
const LANE_BUILD_KEYS: usize = 2;

/// Multiplies the generator by `k` through the process-wide table.
pub fn mul_generator(k: &Fr) -> G1Projective {
    generator_table().mul(k)
}

/// A snapshot of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a table (possibly still being built by the
    /// thread that missed).
    pub hits: u64,
    /// Lookups that took a new slot and built its table — one per
    /// distinct key while the key population fits the cap.
    pub misses: u64,
}

/// A table slot: taken under the cache lock, filled outside it.
type Slot = Arc<OnceLock<Arc<FixedBaseTable>>>;

/// The resident slots, the order they were inserted in, and the
/// lookups counted so far.
#[derive(Default)]
struct Slots {
    by_key: HashMap<[u8; 64], Slot>,
    oldest_first: VecDeque<[u8; 64]>,
    stats: CacheStats,
}

/// A keyed cache of fixed-base tables, one per base point, for callers
/// that look a key's table up inside their jobs and share the cache
/// across threads.
pub struct ProofCache {
    slots: Mutex<Slots>,
    cap: usize,
}

impl ProofCache {
    /// Default cap, bounding resident tables to ~14.6 MiB
    /// (512 × 29.25 KiB). Nothing retires a key, so the cap is what
    /// bounds a long-lived cache; a key that returns after its eviction
    /// is built again.
    pub const DEFAULT_CAP: usize = 512;

    /// A cache with the default cap.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// A cache holding at most `cap` tables (at least one). Admitting a
    /// key past the cap evicts the oldest-inserted table.
    fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Mutex::new(Slots::default()),
            cap: cap.max(1),
        }
    }

    /// The table for `base`, building it on first use. Exactly one
    /// lookup per resident key records the miss and builds, after
    /// releasing the lock: concurrent lookups of that key wait for its
    /// build, lookups of other keys do not.
    pub fn table_for(&self, base: &G1Affine) -> Arc<FixedBaseTable> {
        let key = base.to_bytes();
        let slot = {
            let mut slots = self.slots.lock().expect("proof cache poisoned");
            match slots.by_key.get(&key) {
                Some(slot) => {
                    let slot = Arc::clone(slot);
                    slots.stats.hits += 1;
                    slot
                }
                None => {
                    slots.stats.misses += 1;
                    if slots.by_key.len() >= self.cap {
                        if let Some(oldest) = slots.oldest_first.pop_front() {
                            slots.by_key.remove(&oldest);
                        }
                    }
                    let slot = Slot::default();
                    slots.by_key.insert(key, Arc::clone(&slot));
                    slots.oldest_first.push_back(key);
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(FixedBaseTable::new(base))))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.slots.lock().expect("proof cache poisoned").stats
    }
}

impl Default for ProofCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{lambda, mul_reference};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    fn random_base(rng: &mut StdRng) -> G1Affine {
        (G1Projective::generator() * Fr::random(rng)).to_affine()
    }

    #[test]
    fn table_matches_naive_multiplication() {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        let base = random_base(&mut rng);
        let table = FixedBaseTable::new(&base);
        for _ in 0..8 {
            let k = Fr::random(&mut rng);
            assert_eq!(table.mul(&k), mul_reference(&base.to_projective(), &k));
        }
    }

    #[test]
    fn table_handles_edge_scalars() {
        let table = generator_table();
        let g = G1Projective::generator();
        assert!(table.mul(&Fr::zero()).is_identity());
        assert_eq!(table.mul(&Fr::one()), g);
        for m in [2u64, 3, 15, 16, 17, 255, 1 << 20, 0xf0f0_f0f0_f0f0_f0f0] {
            let k = Fr::from_u64(m);
            assert_eq!(table.mul(&k), mul_reference(&g, &k), "m = {m}");
        }
        // Every digit of every window, and zero nibbles in between.
        for d in 1..=15u64 {
            let mut k = Fr::from_u64(d);
            for _ in 0..63 {
                assert_eq!(table.mul(&k), mul_reference(&g, &k), "d = {d}");
                k *= Fr::from_u64(16);
            }
        }
        assert_eq!(table.mul(&-Fr::one()), -g);
        // Window 0 holds `m·g` for `m ≤ 16`, affine.
        for m in 0..=16 {
            let expect = mul_reference(&g, &Fr::from_u64(m)).to_affine();
            assert_eq!(table.small_multiple(m), Some(expect), "m = {m}");
        }
        assert_eq!(table.small_multiple(17), None);
    }

    #[test]
    fn table_entries_are_affine_and_identity_base_is_inert() {
        assert_eq!(std::mem::size_of::<G1Affine>(), 72);
        assert_eq!((WINDOWS, ENTRIES, TABLE_ENTRIES), (26, 16, 416));
        // 29.25 KiB a table.
        assert_eq!(TABLE_ENTRIES * 72, 29_952);
        let table = FixedBaseTable::new(&G1Affine::identity());
        assert_eq!(table.entries.len(), 416);
        assert!(table.mul(&-Fr::one()).is_identity());
        let lanes = [(&table, -Fr::one()), (&table, Fr::zero())];
        assert_eq!(
            FixedBaseTable::mul_lockstep(&lanes),
            vec![G1Affine::identity(); 2]
        );
    }

    /// `Σ dᵢ·2^{5i}` modulo `2^128`, by Horner from the top digit.
    fn digits_value(digits: &[i8; WINDOWS]) -> u128 {
        digits.iter().rev().fold(0u128, |acc, &d| {
            (acc << WINDOW_BITS).wrapping_add_signed(i128::from(d))
        })
    }

    #[test]
    fn signed_digits_reconstruct() {
        let mut rng = StdRng::seed_from_u64(0xd161);
        let mut ks: Vec<u128> = vec![0, 1, 16, 17, 31, 32, 33, 48, 49, 527, 528];
        // The largest half a table could be asked for, and past it: every
        // window raw 31 (a carry ripples through all 26), a carry out of
        // window 24 into the last one, and the last window alone.
        ks.extend([(1 << 127) - 1, 1 << 127, u128::MAX, 31 << 120, 17 << 120]);
        ks.extend([7 << 125, 1 << 125]);
        ks.extend((0..500).map(|_| rand::Rng::gen::<u128>(&mut rng)));
        ks.extend((0..500).flat_map(|_| glv_split(&Fr::random(&mut rng)).map(|(half, _)| half)));
        for k in ks {
            let digits = signed_digits(k);
            assert!(digits.iter().all(|d| (-15..=16).contains(d)), "k = {k:#x}");
            assert_eq!(digits_value(&digits), k, "k = {k:#x}");
        }
        assert_eq!(signed_digits(16)[..2], [16, 0]);
        assert_eq!(signed_digits(17)[..2], [-15, 1]);
        assert_eq!(signed_digits(31 << 120)[24..], [-1, 1]);
        assert_eq!(signed_digits(16 << 120)[24..], [16, 0]);
        assert_eq!(signed_digits(u128::MAX)[25], 8);
        assert_eq!(signed_digits((1 << 127) - 1)[24..], [0, 4]);
    }

    /// `Σ dᵢ·2^{5i}` in `F_r`.
    fn half_value(digits: &[i8; WINDOWS]) -> Fr {
        digits.iter().rev().fold(Fr::zero(), |acc, &d| {
            let magnitude = Fr::from_u64(u64::from(d.unsigned_abs()));
            acc * Fr::from_u64(32) + if d < 0 { -magnitude } else { magnitude }
        })
    }

    /// The GLV edge scalars, each named: zero, ±1, `r − 1`, `λ`, `λ ± 1`,
    /// splits with an empty half and with both halves negative, the
    /// scalar `2¹²⁷ − 1` and `(2¹²⁷ − 1)(1 + λ)`, whose halves are the
    /// largest any scalar here has, and `24·2²⁵⁰ − r`, whose unsplit
    /// width-5 digits wrap modulo `r`.
    fn glv_edge_scalars() -> Vec<(&'static str, Fr)> {
        let max_half = Fr::from_u128((1 << 127) - 1);
        vec![
            ("0", Fr::zero()),
            ("1", Fr::one()),
            ("-1 = r - 1", -Fr::one()),
            ("λ", lambda()),
            ("λ + 1", lambda() + Fr::one()),
            ("λ - 1", lambda() - Fr::one()),
            ("-λ", -lambda()),
            ("k1 = 0", Fr::from_u64(5) * lambda()),
            ("k2 = 0", Fr::from_u64(12_345)),
            (
                "both halves negative",
                -(Fr::from_u64(3) + Fr::from_u64(7) * lambda()),
            ),
            ("2^127 - 1", max_half),
            ("(2^127 - 1)(1 + λ)", max_half * (Fr::one() + lambda())),
            (
                "24·2^250 - r",
                Fr::from_u64(24) * Fr::from_u64(2).pow(&[250]),
            ),
        ]
    }

    #[test]
    fn split_digits_reconstruct() {
        let mut rng = StdRng::seed_from_u64(0x5b17);
        let mut ks = glv_edge_scalars();
        ks.extend((0..500).map(|_| ("random", Fr::random(&mut rng))));
        for (what, k) in ks {
            let [first, second] = split_digits(&k);
            for d in first.iter().chain(&second) {
                assert!((-16..=16).contains(d), "{what}");
            }
            assert_eq!(
                half_value(&first) + half_value(&second) * lambda(),
                k,
                "{what}"
            );
        }
        // The shapes the edge scalars are named for.
        let split = |k: Fr| glv_split(&k);
        assert_eq!(split(lambda()), [(0, false), (1, false)]);
        assert_eq!(split(Fr::from_u64(5) * lambda()), [(0, false), (5, false)]);
        assert_eq!(split(Fr::from_u64(12_345)), [(12_345, false), (0, false)]);
        let both = -(Fr::from_u64(3) + Fr::from_u64(7) * lambda());
        assert_eq!(split(both), [(3, true), (7, true)]);
        assert_eq!(split(lambda() - Fr::one()), [(1, true), (1, false)]);
    }

    #[test]
    fn split_layout_matches_reference_on_glv_edge_scalars() {
        let mut rng = StdRng::seed_from_u64(0x5b18);
        let base = random_base(&mut rng);
        let table = FixedBaseTable::new(&base);
        let p = base.to_projective();
        let edges = glv_edge_scalars();
        for (what, k) in &edges {
            let expect = mul_reference(&p, k);
            assert_eq!(table.mul(k), expect, "{what}");
            let g = mul_reference(&G1Projective::generator(), k);
            assert_eq!(generator_table().mul(k), g, "{what}, generator");
        }
        let lanes: Vec<(&FixedBaseTable, Fr)> = edges
            .iter()
            .enumerate()
            .map(|(i, (_, k))| {
                (
                    if i % 3 == 0 {
                        generator_table()
                    } else {
                        &table
                    },
                    *k,
                )
            })
            .collect();
        let expect: Vec<G1Affine> = lanes.iter().map(|(t, k)| t.mul(k).to_affine()).collect();
        assert_eq!(FixedBaseTable::mul_lockstep(&lanes), expect);
        // Halves at `2¹²⁷ − 1` — beyond any scalar's split, read through
        // the digits — stand for `(2¹²⁷ − 1)(±1 ± λ)`.
        let max = signed_digits((1 << 127) - 1);
        let max_half = Fr::from_u128((1 << 127) - 1);
        for (digits, k) in [
            ([max, max], max_half * (Fr::one() + lambda())),
            ([max, max.map(|d| -d)], max_half * (Fr::one() - lambda())),
            ([max.map(|d| -d); 2], -max_half * (Fr::one() + lambda())),
        ] {
            let expect = mul_reference(&p, &k);
            assert_eq!(table.mul_split(&digits), expect);
            let lockstep = FixedBaseTable::lockstep_split(&[(&table, digits)]);
            assert_eq!(lockstep, vec![expect.to_affine()]);
        }
    }

    #[test]
    fn lockstep_matches_per_lane_multiplication() {
        let mut rng = StdRng::seed_from_u64(0x10c5);
        let base = random_base(&mut rng);
        let table = FixedBaseTable::new(&base);
        let g_table = generator_table();
        let check = |lanes: &[(&FixedBaseTable, Fr)]| {
            let expect: Vec<G1Affine> = lanes.iter().map(|(t, k)| t.mul(k).to_affine()).collect();
            assert_eq!(FixedBaseTable::mul_lockstep(lanes), expect);
            expect
        };
        assert!(check(&[]).is_empty());
        // Distinct scalars over two tables, and a single lane.
        let lanes: Vec<(&FixedBaseTable, Fr)> = (0..9)
            .map(|i| {
                (
                    if i % 2 == 0 { g_table } else { &table },
                    Fr::random(&mut rng),
                )
            })
            .collect();
        check(&lanes);
        check(&lanes[..1]);
        // One scalar on every lane, as `encrypt_batch` has it in pairs.
        let k = Fr::random(&mut rng);
        let sums = check(&[(g_table, k), (&table, k), (g_table, k)]);
        assert_eq!(
            sums[1],
            mul_reference(&base.to_projective(), &k).to_affine()
        );
        // Zero (the lane stays at the identity throughout), single
        // digits in every window, equal digits in adjacent windows
        // (`d·2^{5w}·(1 + 2^5)`), the top window, and r − 1.
        let mut ks = vec![Fr::zero(), Fr::one(), -Fr::one(), -Fr::from_u64(32)];
        for d in [1u64, 15, 16, 17, 31] {
            let mut k = Fr::from_u64(d);
            for _ in 0..51 {
                ks.push(k);
                ks.push(k * Fr::from_u64(33));
                k *= Fr::from_u64(32);
            }
        }
        let lanes: Vec<(&FixedBaseTable, Fr)> = ks.iter().map(|k| (&table, *k)).collect();
        for ((_, k), got) in lanes.iter().zip(check(&lanes)).step_by(11) {
            assert_eq!(got, mul_reference(&base.to_projective(), k).to_affine());
        }
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut rng = StdRng::seed_from_u64(0xcac4e);
        let cache = ProofCache::new();
        let b1 = random_base(&mut rng);
        let b2 = random_base(&mut rng);
        cache.table_for(&b1);
        cache.table_for(&b1);
        cache.table_for(&b2);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn cache_cap_evicts_oldest_inserted() {
        let mut rng = StdRng::seed_from_u64(0xca9);
        let cache = ProofCache::with_capacity(2);
        let bases: Vec<G1Affine> = (0..3).map(|_| random_base(&mut rng)).collect();
        let k = Fr::random(&mut rng);
        let stats = |hits, misses| CacheStats { hits, misses };
        let t0 = cache.table_for(&bases[0]);
        cache.table_for(&bases[1]);
        // A hit does not refresh: eviction is by insertion order.
        cache.table_for(&bases[0]);
        let t2 = cache.table_for(&bases[2]);
        assert_eq!(t2.mul(&k), mul_reference(&bases[2].to_projective(), &k));
        assert_eq!(cache.stats(), stats(1, 3));
        // The newcomer is resident and is now served from the cache…
        cache.table_for(&bases[2]);
        cache.table_for(&bases[1]);
        assert_eq!(cache.stats(), stats(3, 3));
        // …while the oldest key was evicted and pays a second build; a
        // table still held by a caller survives its eviction.
        let rebuilt = cache.table_for(&bases[0]);
        assert!(!Arc::ptr_eq(&t0, &rebuilt));
        assert_eq!(
            rebuilt.mul(&k),
            mul_reference(&bases[0].to_projective(), &k)
        );
        assert_eq!(cache.stats(), stats(3, 4));
        assert_eq!(t0.mul(&k), mul_reference(&bases[0].to_projective(), &k));
    }

    #[test]
    fn batched_builds_match_one_at_a_time() {
        let mut rng = StdRng::seed_from_u64(0xba7c);
        let mut bases: Vec<G1Affine> = (0..10).map(|_| random_base(&mut rng)).collect();
        bases[3] = bases[1];
        bases[6] = G1Affine::identity();
        for n in [0, 1, 2, 3, 9, 10] {
            let batch = FixedBaseTable::new_batch(&bases[..n]);
            assert_eq!(batch.len(), n);
            for (table, base) in batch.iter().zip(&bases) {
                assert!(
                    table.entries == FixedBaseTable::new(base).entries,
                    "{n} bases"
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(BUILD_CHUNK, crate::lanes::LANES);
    }

    /// Table entries against the offline vectors of `gen_bn254.py`,
    /// built portably and, on a CPU with AVX-512 IFMA, on the lanes.
    #[test]
    fn table_entries_match_offline_vectors() {
        use crate::field::Fq;
        use crate::vectors::{Xy, TABLES};
        let point = |(x, y): Xy| {
            let coordinate = |l| Fq::from_plain_limbs(l).expect("coordinates are reduced");
            G1Affine::from_xy(coordinate(x), coordinate(y)).expect("on the curve")
        };
        let bases: Vec<G1Affine> = TABLES.bases.iter().map(|&b| point(b)).collect();
        let mut builds = vec![("portable", bases.iter().map(FixedBaseTable::new).collect())];
        #[cfg(target_arch = "x86_64")]
        if let Some(tables) = crate::lanes::fixed_base_tables(&bases) {
            builds.push(("lanes", tables));
        }
        for (what, tables) in &builds {
            let tables: &Vec<FixedBaseTable> = tables;
            for &(b, w, d, entry, image) in TABLES.entries {
                let got = tables[b].entries()[entry_index(w, d)];
                assert_eq!(got, point(entry), "{what}: base {b}, w = {w}, d = {d}");
                assert_eq!(got.endomorphism(), point(image), "{what}: φ of it");
            }
        }
        assert_eq!(TABLES.entries.len(), 8);
    }

    #[test]
    fn concurrent_cold_lookups_build_once_and_count_one_miss() {
        let mut rng = StdRng::seed_from_u64(0xc01d);
        let cache = ProofCache::new();
        let base = random_base(&mut rng);
        let barrier = Barrier::new(4);
        let tables: Vec<Arc<FixedBaseTable>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.table_for(&base)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookup thread panicked"))
                .collect()
        });
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 1 });
    }
}
