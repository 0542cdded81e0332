//! Fixed-base precomputation and the keyed proof-precomputation cache.
//!
//! Every proof object on the marketplace hot path — ElGamal encryption,
//! VPKE proving, PoQoEA quality proofs — spends its time in scalar
//! multiplications against two kinds of bases: the group generator `g`
//! (commitment randomness, claim points, public keys) and a requester's
//! encryption key `h` (the `h^ρ` term of every ciphertext). Both bases
//! repeat across thousands of proofs, so a windowed fixed-base table
//! ([`FixedBaseTable`]) turns each multiplication into at most 63 mixed
//! additions and no doublings.
//!
//! * [`generator_table`] — a process-wide table for `g`, built once.
//! * [`ProofCache`] — a keyed cache of per-base tables (one per
//!   requester encryption key), shared by the proving service's worker
//!   pool. Hit/miss counters feed `ProvingStats`; the cap bounds memory
//!   by evicting the oldest-inserted table. A lookup claims its slot
//!   under the lock — so a miss is counted exactly once per distinct
//!   key regardless of thread interleaving and the statistics stay
//!   deterministic across `DRAGOON_THREADS` values — and builds the
//!   table after releasing it, so a cold key stalls only the threads
//!   that want that same key.
//!
//! Table-based multiplication returns the same group element as
//! [`G1Projective::mul_scalar`] (asserted by unit tests), and every
//! caller normalizes to affine coordinates, so switching a code path to
//! the table changes no serialized bytes — goldens are unaffected.

use crate::field::Fr;
use crate::g1::{G1Affine, G1Projective};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Window width in bits. 4 divides the 64-bit limb evenly, keeps the
/// table at 64 windows × 15 affine entries (67.5 KiB per base) and caps
/// a multiplication at 63 additions.
const WINDOW_BITS: usize = 4;
/// Nibbles in a 256-bit scalar.
const WINDOWS: usize = 256 / WINDOW_BITS;
/// Nonzero digits per window.
const ENTRIES: usize = (1 << WINDOW_BITS) - 1;

/// A windowed fixed-base multiplication table: for window `w` and digit
/// `d ∈ [1, 15]`, entry `(d-1)·64 + w` holds `d · 2^{4w} · base` in
/// affine coordinates, so every hit is a mixed addition.
pub struct FixedBaseTable {
    entries: Vec<G1Affine>,
}

impl FixedBaseTable {
    /// Precomputes the table for one base point.
    ///
    /// The window bases `2^{4w}·base` come from one doubling chain,
    /// normalised together; the digit multiples then grow by doubling
    /// the table — `{1..m}` to `{1..2m}` as `m·B + {1..m}·B` across all
    /// 64 windows at once — through [`G1Affine::batch_add`], four shared
    /// inversions in all.
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
        while entries.len() < ENTRIES * WINDOWS {
            let digits = entries.len() / WINDOWS;
            let grow = digits.min(ENTRIES - digits) * WINDOWS;
            let top: Vec<G1Affine> = entries[(digits - 1) * WINDOWS..]
                .iter()
                .cycle()
                .take(grow)
                .copied()
                .collect();
            let sums = G1Affine::batch_add(&top, &entries[..grow]);
            entries.extend(sums);
        }
        Self { entries }
    }

    /// Multiplies the table's base by `k`, skipping zero nibbles — small
    /// scalars (claim points `g^m`, fold counters) cost one or two
    /// additions.
    pub fn mul(&self, k: &Fr) -> G1Projective {
        let limbs = k.to_plain_limbs();
        let mut acc = G1Projective::identity();
        for (li, limb) in limbs.iter().enumerate() {
            let mut limb = *limb;
            let mut w = li * (64 / WINDOW_BITS);
            while limb != 0 {
                let d = (limb & 0xf) as usize;
                if d != 0 {
                    acc = acc.add_affine(&self.entries[(d - 1) * WINDOWS + w]);
                }
                limb >>= WINDOW_BITS;
                w += 1;
            }
        }
        acc
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
/// proving service's worker threads; cold (first-use) table builds are
/// the "setup" cost the cold-vs-prewarmed bench measures.
pub struct ProofCache {
    slots: Mutex<Slots>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

impl ProofCache {
    /// Default cap: bounds resident tables to ~34 MiB while comfortably
    /// covering every test and golden scenario, so the hit/miss
    /// counters those assert on are exact.
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
        let table = FixedBaseTable::new(&G1Affine::identity());
        assert_eq!(table.entries.len(), WINDOWS * ENTRIES);
        assert!(table.mul(&-Fr::one()).is_identity());
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
