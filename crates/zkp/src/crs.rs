//! A keyed CRS cache for the Groth16 baseline.
//!
//! [`groth16::setup`] is per-circuit-*shape*: only the constraint matrix
//! and the variable counts enter the CRS ("assignments are ignored"), so
//! two circuits with identical shapes can share one proving key. Setup
//! dominates the baseline's cost (Table I measures it in seconds), and
//! callers used to regenerate it per use. [`CrsCache`] hashes the shape
//! — variable counts plus every constraint's linear-combination terms —
//! and hands back an `Arc<ProvingKey>`, so only the first proof of each
//! shape pays setup ("cold"); every later proof of that shape is
//! "prewarmed".
//!
//! [`CrsCache::get_or_setup`] is the one setup entry point wrapping
//! [`groth16::setup`]: the baseline tests and the table benches all
//! route through it. The caller owns the cache — the baseline test
//! file shares one across its tests, the benches build a fresh one when
//! they mean to measure the cold setup — so the crate keeps no
//! process-wide state.

use crate::groth16::{self, ProvingKey, SnarkError};
use crate::r1cs::{ConstraintSystem, LinearCombination, Variable};
use dragoon_crypto::keccak::Keccak256;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Digest of everything [`groth16::setup`] reads from a constraint
/// system: the variable counts and, per constraint, each linear
/// combination's (variable, coefficient) terms.
pub fn shape_digest(cs: &ConstraintSystem) -> [u8; 32] {
    let mut h = Keccak256::new();
    h.update(b"dragoon/crs-shape/v1");
    fn absorb_u64(h: &mut Keccak256, v: u64) {
        h.update(&v.to_le_bytes());
    }
    absorb_u64(&mut h, cs.num_public() as u64);
    absorb_u64(&mut h, cs.num_variables() as u64);
    absorb_u64(&mut h, cs.num_constraints() as u64);
    let absorb_lc = |h: &mut Keccak256, lc: &LinearCombination| {
        absorb_u64(h, lc.0.len() as u64);
        for (v, coeff) in &lc.0 {
            let (tag, index) = match v {
                Variable::One => (0u64, 0u64),
                Variable::Public(i) => (1, *i as u64),
                Variable::Aux(i) => (2, *i as u64),
            };
            absorb_u64(h, tag);
            absorb_u64(h, index);
            for limb in coeff.to_plain_limbs() {
                absorb_u64(h, limb);
            }
        }
    };
    for con in &cs.constraints {
        absorb_lc(&mut h, &con.a);
        absorb_lc(&mut h, &con.b);
        absorb_lc(&mut h, &con.c);
    }
    h.finalize()
}

/// Counters for the cold-vs-prewarmed differential.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrsCacheStats {
    /// Lookups that found a key.
    pub hits: u64,
    /// Cold setups actually run (one per distinct shape).
    pub cold_setups: u64,
}

/// A cache of proving keys keyed by circuit-shape digest.
pub struct CrsCache {
    keys: Mutex<HashMap<[u8; 32], Arc<ProvingKey>>>,
    stats: Mutex<CrsCacheStats>,
}

impl CrsCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self {
            keys: Mutex::new(HashMap::new()),
            stats: Mutex::new(CrsCacheStats::default()),
        }
    }

    /// The proving key for the shape of `cs`, running [`groth16::setup`]
    /// only on the first request of each shape. The setup (and the rng
    /// draws it makes) happens under the cache lock, so concurrent first
    /// requests of one shape run setup exactly once.
    pub fn get_or_setup<R: Rng + ?Sized>(
        &self,
        cs: &ConstraintSystem,
        rng: &mut R,
    ) -> Result<Arc<ProvingKey>, SnarkError> {
        let digest = shape_digest(cs);
        let mut keys = self.keys.lock().expect("crs cache poisoned");
        if let Some(pk) = keys.get(&digest) {
            self.stats.lock().expect("crs stats poisoned").hits += 1;
            return Ok(Arc::clone(pk));
        }
        let pk = Arc::new(groth16::setup(cs, rng)?);
        self.stats.lock().expect("crs stats poisoned").cold_setups += 1;
        keys.insert(digest, Arc::clone(&pk));
        Ok(pk)
    }

    /// Current counters.
    pub fn stats(&self) -> CrsCacheStats {
        *self.stats.lock().expect("crs stats poisoned")
    }
}

impl Default for CrsCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_crypto::Fr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cs(coeff: u64) -> ConstraintSystem {
        // One public input x, one aux w, constraint coeff·x * w = x.
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_public(Fr::from_u64(2));
        let w = cs.alloc_aux(Fr::from_u64(1));
        cs.enforce(
            LinearCombination::from_var(x).scale(Fr::from_u64(coeff)),
            LinearCombination::from_var(w),
            LinearCombination::from_var(x).scale(Fr::from_u64(coeff)),
        );
        cs
    }

    #[test]
    fn same_shape_hits_different_shape_misses() {
        let mut rng = StdRng::seed_from_u64(0xc45);
        let cache = CrsCache::new();
        let pk1 = cache.get_or_setup(&tiny_cs(3), &mut rng).unwrap();
        let pk2 = cache.get_or_setup(&tiny_cs(3), &mut rng).unwrap();
        assert!(Arc::ptr_eq(&pk1, &pk2), "same shape shares the CRS");
        cache.get_or_setup(&tiny_cs(5), &mut rng).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.cold_setups), (1, 2));
    }

    #[test]
    fn digest_ignores_assignments() {
        let mut a = tiny_cs(3);
        let b = tiny_cs(3);
        a.public_inputs[0] = Fr::from_u64(9);
        a.aux[0] = Fr::from_u64(7);
        assert_eq!(shape_digest(&a), shape_digest(&b));
    }

    #[test]
    fn cached_key_proves_and_verifies() {
        let mut rng = StdRng::seed_from_u64(0xc46);
        let cache = CrsCache::new();
        let cs = tiny_cs(1);
        let pk = cache.get_or_setup(&cs, &mut rng).unwrap();
        let proof = groth16::prove(&pk, &cs, &mut rng).unwrap();
        assert!(groth16::verify(&pk.vk, &proof, &cs.public_inputs).unwrap());
    }
}
