//! Fixed-base precomputation and the keyed proof-precomputation cache.
//!
//! Every proof object on the marketplace hot path — ElGamal encryption,
//! VPKE proving, PoQoEA quality proofs — spends its time in scalar
//! multiplications against two kinds of bases: the group generator `g`
//! (commitment randomness, claim points, public keys) and a requester's
//! encryption key `h` (the `h^ρ` term of every ciphertext). Both bases
//! repeat across thousands of proofs, so a windowed fixed-base table
//! ([`FixedBaseTable`]) turns each multiplication into at most 52 mixed
//! additions and no doublings — and a whole answer vector of them into
//! 52 lockstep affine steps ([`FixedBaseTable::mul_lockstep`]), or, on a
//! CPU with AVX-512 IFMA, into 52 eight-lane steps per eight lanes
//! (`lanes::fixed_base_mul`). Both kernels take the same list of
//! `(table, scalar)` lanes, so one vector's lanes on `g`'s table and on
//! `h`'s share their steps. The lanes read a table through
//! `FixedBaseTable::entries`: they keep a lane-form copy of the
//! generator's table only, and convert another table's entries per
//! call, only those the call's digits select.
//!
//! * [`generator_table`] — a process-wide table for `g`, built once.
//! * [`ProofCache`] — a keyed cache of per-base tables (one per
//!   requester encryption key), shared by the proving service's worker
//!   pool. Hit/miss counters feed `ProvingStats`. A table lives as long
//!   as its task: the owner calls [`ProofCache::retire`] when the task
//!   settles, so the resident set is the live tasks' keys; the cap is
//!   the backstop for keys nobody retires, evicting the oldest-inserted
//!   table. A lookup claims its slot
//!   under the lock — so a miss is counted exactly once per distinct
//!   key regardless of thread interleaving and the statistics stay
//!   deterministic across `DRAGOON_THREADS` values — and builds the
//!   table after releasing it, so a cold key stalls only the threads
//!   that want that same key. The proving service makes sure that is
//!   none while other work remains: its pool takes a batch round-robin
//!   by HIT instance (`ProvingService::submit_batch` in
//!   `dragoon-protocol`), so the commit jobs that share a requester's
//!   key are handed out apart and a sibling does not sleep through the
//!   key's build.
//!
//! Table-based multiplication returns the same group element as
//! [`G1Projective::mul_scalar`] (asserted by unit tests), and every
//! caller normalizes to affine coordinates, so switching a code path to
//! the table changes no serialized bytes — goldens are unaffected.

use crate::field::Fr;
use crate::g1::{BatchAddScratch, G1Affine, G1Projective};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Window width in bits: a scalar is recoded into signed width-5 digits
/// (see [`signed_digits`]), so a window stores only the 16 positive
/// multiples and a negative digit negates `y` on the way out.
const WINDOW_BITS: usize = 5;
/// Signed digits in a 256-bit integer: 51 full windows, and one for
/// bit 255 plus the carry.
pub(crate) const WINDOWS: usize = 256usize.div_ceil(WINDOW_BITS);
/// The digit radix, `2^5`.
const RADIX: i8 = 1 << WINDOW_BITS;
/// Stored multiples per window: `1..=16`.
const ENTRIES: usize = RADIX as usize / 2;

/// Recodes a 256-bit integer as `Σ dᵢ·2^{5i}` with `dᵢ ∈ [-15, 16]`,
/// least significant first: a raw window value above 16 becomes
/// `value − 32` and carries one into the next window. The last window
/// sees only bit 255 and a carry, so nothing carries out of it.
pub(crate) fn signed_digits(k: &[u64; 4]) -> [i8; WINDOWS] {
    let mut digits = [0i8; WINDOWS];
    let mut carry = 0;
    for (w, digit) in digits.iter_mut().enumerate() {
        let (limb, shift) = (w * WINDOW_BITS / 64, w * WINDOW_BITS % 64);
        let mut raw = k[limb] >> shift;
        if shift + WINDOW_BITS > 64 && limb < 3 {
            raw |= k[limb + 1] << (64 - shift);
        }
        let d = (raw & (RADIX as u64 - 1)) as i8 + carry;
        (*digit, carry) = if d > RADIX / 2 {
            (d - RADIX, 1)
        } else {
            (d, 0)
        };
    }
    debug_assert_eq!(carry, 0);
    digits
}

/// Where a table keeps the multiple for window `w` and digit magnitude
/// `d ∈ [1, 16]`: `(d-1)·52 + w`.
#[inline]
pub(crate) fn entry_index(w: usize, d: u8) -> usize {
    (usize::from(d) - 1) * WINDOWS + w
}

/// A windowed fixed-base multiplication table: for window `w` and digit
/// `d ∈ [1, 16]`, entry `(d-1)·52 + w` holds `d · 2^{5w} · base` in
/// affine coordinates, so every hit is a mixed addition — 52 windows ×
/// 16 entries of 72 B, 58.5 KiB per base.
pub struct FixedBaseTable {
    entries: Vec<G1Affine>,
}

impl FixedBaseTable {
    /// Precomputes the table for one base point.
    ///
    /// The window bases `2^{5w}·base` come from one doubling chain,
    /// normalised together; the digit multiples then grow by doubling
    /// the digit set — `{1..m}` to `{1..2m}` as `m·B + {1..m}·B` across
    /// all 52 windows at once, four times — through
    /// [`G1Affine::batch_add_assign`], five shared inversions in all.
    pub fn new(base: &G1Affine) -> Self {
        Self::new_in(base, Vec::new())
    }

    /// [`FixedBaseTable::new`] into the allocation of a retired table.
    fn new_in(base: &G1Affine, mut entries: Vec<G1Affine>) -> Self {
        let mut window_bases = Vec::with_capacity(WINDOWS);
        let mut window_base = base.to_projective();
        for _ in 0..WINDOWS {
            window_bases.push(window_base);
            for _ in 0..WINDOW_BITS {
                window_base = window_base.double();
            }
        }
        entries.clear();
        entries.reserve_exact(ENTRIES * WINDOWS);
        entries.extend(G1Projective::batch_to_affine(&window_bases));
        let mut scratch = BatchAddScratch::default();
        let mut top = Vec::with_capacity(ENTRIES / 2 * WINDOWS);
        while entries.len() < ENTRIES * WINDOWS {
            let have = entries.len();
            top.clear();
            top.extend(entries[have - WINDOWS..].iter().cycle().take(have));
            entries.extend_from_within(..have);
            G1Affine::batch_add_assign(&mut entries[have..], &top, &mut scratch);
        }
        Self { entries }
    }

    /// The entries, `d · 2^{5w} · base` at [`entry_index`]`(w, d)`, so
    /// entry 0 is the base itself.
    pub(crate) fn entries(&self) -> &[G1Affine] {
        &self.entries
    }

    /// `d · 2^{5w} · base` for a nonzero signed digit.
    #[inline]
    fn entry(&self, w: usize, d: i8) -> G1Affine {
        let e = self.entries[entry_index(w, d.unsigned_abs())];
        if d < 0 {
            -e
        } else {
            e
        }
    }

    /// Multiplies the table's base by `k`: one mixed addition per
    /// nonzero signed digit, at most 52 and no doublings — small scalars
    /// (claim points `g^m`, fold counters) cost one or two.
    pub fn mul(&self, k: &Fr) -> G1Projective {
        let mut acc = G1Projective::identity();
        for (w, &d) in signed_digits(&k.to_plain_limbs()).iter().enumerate() {
            if d != 0 {
                acc = acc.add_affine(&self.entry(w, d));
            }
        }
        acc
    }

    /// `table.mul(k).to_affine()` for every lane `(table, k)`, walking
    /// the 52 windows once for the whole vector: each step gathers every
    /// lane's entry for that window and applies one
    /// [`G1Affine::batch_add_assign`] — about 6 multiplications and a
    /// `1/L` share of an inversion per lane-step (`6M + I/L`) where
    /// [`Self::mul`] pays an 11M mixed addition, and the results come out
    /// affine. The 52 inversions only pay off on a long vector; callers
    /// choose by lane count (see `EncryptionKey::encrypt_batch`).
    pub fn mul_lockstep(lanes: &[(&FixedBaseTable, Fr)]) -> Vec<G1Affine> {
        let digits: Vec<[i8; WINDOWS]> = lanes
            .iter()
            .map(|(_, k)| signed_digits(&k.to_plain_limbs()))
            .collect();
        let mut accs = vec![G1Affine::identity(); lanes.len()];
        let mut step = accs.clone();
        let mut scratch = BatchAddScratch::default();
        for w in 0..WINDOWS {
            for ((entry, (table, _)), digits) in step.iter_mut().zip(lanes).zip(&digits) {
                *entry = match digits[w] {
                    0 => G1Affine::identity(),
                    d => table.entry(w, d),
                };
            }
            G1Affine::batch_add_assign(&mut accs, &step, &mut scratch);
        }
        accs
    }
}

/// The process-wide fixed-base table for the group generator `g`.
pub fn generator_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(&G1Affine::generator()))
}

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
    /// Lookups that claimed a new slot and built its table — one per
    /// distinct key while the key population fits the cap.
    pub misses: u64,
    /// Tables currently resident.
    pub entries: usize,
}

/// A table slot: claimed under the cache lock, filled outside it.
type Slot = Arc<OnceLock<Arc<FixedBaseTable>>>;

/// The resident slots and the order they were inserted in.
#[derive(Default)]
struct Slots {
    by_key: HashMap<[u8; 64], Slot>,
    oldest_first: VecDeque<[u8; 64]>,
}

/// A keyed cache of fixed-base tables, one per base point (in the
/// marketplace: one per requester encryption key). Shared across the
/// proving service's worker threads.
pub struct ProofCache {
    slots: Mutex<Slots>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

impl ProofCache {
    /// Default cap: the backstop for keys that are never retired (a
    /// task that never finishes), bounding resident tables to ~29 MiB
    /// (512 × 58.5 KiB). A market retires each key when its task
    /// settles, so it stays far below the cap and its hit/miss counters
    /// are exact.
    pub const DEFAULT_CAP: usize = 512;

    /// A cache with the default cap.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// A cache holding at most `cap` tables (at least one). Admitting a
    /// key past the cap evicts the oldest-inserted table: a requester's
    /// key is used by its task's `K` commits within a few rounds and
    /// then never again, so the oldest table is the one least likely to
    /// be asked for, and the newcomer is built into its allocation. A
    /// key that returns after eviction counts (and costs) a second miss
    /// — size the cap above the live key population when stats must be
    /// exact.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Mutex::new(Slots::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap: cap.max(1),
        }
    }

    /// The table for `base`, building and admitting it on first use.
    /// Exactly one lookup per resident key records the miss and builds;
    /// concurrent lookups of that key wait for its build, lookups of
    /// other keys do not.
    pub fn table_for(&self, base: &G1Affine) -> Arc<FixedBaseTable> {
        let key = base.to_bytes();
        let mut evicted = None;
        let slot = {
            let mut slots = self.slots.lock().expect("proof cache poisoned");
            if let Some(slot) = slots.by_key.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(slot)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if slots.by_key.len() >= self.cap {
                    if let Some(oldest) = slots.oldest_first.pop_front() {
                        evicted = slots.by_key.remove(&oldest);
                    }
                }
                let slot = Slot::default();
                slots.by_key.insert(key, Arc::clone(&slot));
                slots.oldest_first.push_back(key);
                slot
            }
        };
        // Build into the evicted table's allocation when nobody else
        // still holds it: at the cap every admission frees one table and
        // allocates another, and across the pool's per-thread malloc
        // arenas that churn is memory the process never gets back.
        let recycled = evicted
            .and_then(|slot| Arc::try_unwrap(slot).ok())
            .and_then(OnceLock::into_inner)
            .and_then(|table| Arc::try_unwrap(table).ok())
            .map(|table| table.entries)
            .unwrap_or_default();
        Arc::clone(slot.get_or_init(|| Arc::new(FixedBaseTable::new_in(base, recycled))))
    }

    /// Drops the table for `base`, if resident: its owner will not ask
    /// for it again (the task that used the key has settled). A caller
    /// still holding the table keeps it alive; a later lookup of the key
    /// is a fresh miss. Unknown keys are ignored.
    pub fn retire(&self, base: &G1Affine) {
        let key = base.to_bytes();
        let mut slots = self.slots.lock().expect("proof cache poisoned");
        if slots.by_key.remove(&key).is_some() {
            // Tasks settle roughly in publication order, so the key sits
            // near the front.
            let at = slots.oldest_first.iter().position(|k| *k == key);
            slots
                .oldest_first
                .remove(at.expect("resident keys are queued"));
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .slots
                .lock()
                .expect("proof cache poisoned")
                .by_key
                .len(),
        }
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
    use crate::g1::mul_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    fn stats(hits: u64, misses: u64, entries: usize) -> CacheStats {
        CacheStats {
            hits,
            misses,
            entries,
        }
    }

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
    }

    #[test]
    fn table_entries_are_affine_and_identity_base_is_inert() {
        assert_eq!(std::mem::size_of::<G1Affine>(), 72);
        assert_eq!((WINDOWS, ENTRIES), (52, 16));
        let table = FixedBaseTable::new(&G1Affine::identity());
        assert_eq!(table.entries.len(), 832);
        assert!(table.mul(&-Fr::one()).is_identity());
        let lanes = [(&table, -Fr::one()), (&table, Fr::zero())];
        assert_eq!(
            FixedBaseTable::mul_lockstep(&lanes),
            vec![G1Affine::identity(); 2]
        );
    }

    /// `Σ dᵢ·2^{5i}` modulo `2^256`, by Horner from the top digit.
    fn digits_value(digits: &[i8; WINDOWS]) -> [u64; 4] {
        use crate::arith::{add_4, sub_4};
        let mut acc = [0u64; 4];
        for &d in digits.iter().rev() {
            for _ in 0..WINDOW_BITS {
                acc = add_4(&acc, &acc).0;
            }
            let magnitude = [d.unsigned_abs() as u64, 0, 0, 0];
            acc = if d < 0 {
                sub_4(&acc, &magnitude).0
            } else {
                add_4(&acc, &magnitude).0
            };
        }
        acc
    }

    #[test]
    fn signed_digits_reconstruct() {
        let mut rng = StdRng::seed_from_u64(0xd161);
        let mut ks: Vec<[u64; 4]> = [0u64, 1, 16, 17, 31, 32, 33, 48, 49, 527, 528]
            .iter()
            .map(|&k| [k, 0, 0, 0])
            .collect();
        ks.push((-Fr::one()).to_plain_limbs());
        // Unreduced inputs: every window raw 31 (a carry ripples through
        // all 52), and a carry out of window 50 into the last one.
        ks.push([u64::MAX; 4]);
        ks.push([0, 0, 0, 31 << 58]);
        ks.push([0, 0, 0, 17 << 58]);
        // Digits that straddle a limb boundary (windows 12, 25, 38).
        ks.push([0x1f << 60, 0x1, 0, 0]);
        ks.push([0, 0x1b << 61, 0x3, 0]);
        ks.extend((0..500).map(|_| Fr::random(&mut rng).to_plain_limbs()));
        ks.extend((0..100).map(|_| [(); 4].map(|()| rand::Rng::gen::<u64>(&mut rng))));
        for k in ks {
            let digits = signed_digits(&k);
            assert!(digits.iter().all(|d| (-15..=16).contains(d)), "k = {k:x?}");
            assert_eq!(digits_value(&digits), k, "k = {k:x?}");
        }
        assert_eq!(signed_digits(&[16, 0, 0, 0])[..2], [16, 0]);
        assert_eq!(signed_digits(&[17, 0, 0, 0])[..2], [-15, 1]);
        assert_eq!(signed_digits(&[0, 0, 0, 31 << 58])[50..], [-1, 1]);
        assert_eq!(signed_digits(&[0, 0, 0, 16 << 58])[50..], [16, 0]);
        assert_eq!(signed_digits(&[u64::MAX; 4])[51], 2);
        // A reduced scalar tops out at window 50.
        assert_eq!(signed_digits(&(-Fr::one()).to_plain_limbs())[50..], [12, 0]);
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
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn cache_cap_evicts_oldest_inserted() {
        let mut rng = StdRng::seed_from_u64(0xca9);
        let cache = ProofCache::with_capacity(2);
        let bases: Vec<G1Affine> = (0..3).map(|_| random_base(&mut rng)).collect();
        let k = Fr::random(&mut rng);
        cache.table_for(&bases[0]);
        cache.table_for(&bases[1]);
        // A hit does not refresh: eviction is by insertion order.
        cache.table_for(&bases[0]);
        let t2 = cache.table_for(&bases[2]);
        assert_eq!(t2.mul(&k), mul_reference(&bases[2].to_projective(), &k));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 2));
        // The newcomer is resident and is now served from the cache…
        cache.table_for(&bases[2]);
        cache.table_for(&bases[1]);
        assert_eq!(cache.stats().hits, 3);
        // …while the oldest key was evicted and pays a second build.
        let t0 = cache.table_for(&bases[0]);
        assert_eq!(t0.mul(&k), mul_reference(&bases[0].to_projective(), &k));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 4, 2));
        // A table still held by a caller survives its own eviction: only
        // an unshared allocation is recycled into the newcomer.
        cache.table_for(&bases[1]);
        assert_eq!(t2.mul(&k), mul_reference(&bases[2].to_projective(), &k));
    }

    #[test]
    fn retire_drops_the_table_and_a_later_lookup_rebuilds_it() {
        let mut rng = StdRng::seed_from_u64(0x4e71);
        let cache = ProofCache::new();
        let bases: Vec<G1Affine> = (0..2).map(|_| random_base(&mut rng)).collect();
        let k = Fr::random(&mut rng);
        // An unknown key is a no-op, on an empty and on a populated cache.
        cache.retire(&bases[0]);
        let held = cache.table_for(&bases[0]);
        cache.retire(&bases[1]);
        assert_eq!(cache.stats(), stats(0, 1, 1));
        cache.retire(&bases[0]);
        assert_eq!(cache.stats(), stats(0, 1, 0));
        // A table still held by a caller survives its retirement.
        assert_eq!(held.mul(&k), mul_reference(&bases[0].to_projective(), &k));
        // The key comes back as exactly one miss and a correct rebuild.
        let rebuilt = cache.table_for(&bases[0]);
        assert!(!Arc::ptr_eq(&held, &rebuilt));
        assert_eq!(
            rebuilt.mul(&k),
            mul_reference(&bases[0].to_projective(), &k)
        );
        cache.table_for(&bases[0]);
        assert_eq!(cache.stats(), stats(1, 2, 1));
    }

    #[test]
    fn retire_in_the_middle_keeps_eviction_order() {
        let mut rng = StdRng::seed_from_u64(0x4e72);
        let cache = ProofCache::with_capacity(3);
        let bases: Vec<G1Affine> = (0..5).map(|_| random_base(&mut rng)).collect();
        for base in &bases[..3] {
            cache.table_for(base);
        }
        cache.retire(&bases[1]);
        // Room for one more without evicting; the next admission evicts
        // the oldest survivor (0), not the slot the retired key left.
        cache.table_for(&bases[3]);
        assert_eq!(cache.stats(), stats(0, 4, 3));
        cache.table_for(&bases[4]);
        assert_eq!(cache.stats(), stats(0, 5, 3));
        for resident in [2, 3, 4] {
            cache.table_for(&bases[resident]);
        }
        assert_eq!(cache.stats(), stats(3, 5, 3));
        cache.table_for(&bases[0]);
        assert_eq!(cache.stats(), stats(3, 6, 3));
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
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 1, 1));
    }
}
