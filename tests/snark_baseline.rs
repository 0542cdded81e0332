//! End-to-end tests of the generic zk-proof baseline: Groth16 over the
//! VPKE statement, exactly the pipeline Tables I & II measure — run at
//! reduced key width so the suite stays fast. Trusted setup routes
//! through this file's one CRS cache, so the four tests that share the
//! TEST_BITS circuit shape pay for setup once.

use dragoon_crypto::Fr;
use dragoon_zkp::circuits::{vpke_circuit_with_bits, VpkeInstance};
use dragoon_zkp::crs::CrsCache;
use dragoon_zkp::jubjub::{jub_decrypt_point, JubPoint};
use dragoon_zkp::{groth16, ConstraintSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::LazyLock;

/// Key width for the fast tests (full protocol uses 251 bits; the
/// circuit scales linearly, so 24 bits keeps each test ~100x cheaper).
const TEST_BITS: usize = 24;

/// The proving keys every test here sets up, one per circuit shape.
static CRS: LazyLock<CrsCache> = LazyLock::new(CrsCache::new);

struct Fixture {
    instance: VpkeInstance,
    cs: ConstraintSystem,
    publics: Vec<Fr>,
}

fn fixture(rng: &mut StdRng, message: u64) -> (Fixture, Fr) {
    // A small key that fits TEST_BITS.
    let sk = Fr::from_u64(rng.gen_range(1..(1u64 << TEST_BITS)));
    let g = JubPoint::generator();
    let pk = g.mul_scalar(&sk);
    let rho = Fr::from_u64(rng.gen_range(1..(1u64 << TEST_BITS)));
    let ct = dragoon_zkp::jubjub::JubCiphertext {
        c1: g.mul_scalar(&rho),
        c2: g
            .mul_scalar(&Fr::from_u64(message))
            .add(&pk.mul_scalar(&rho)),
    };
    let m_point = jub_decrypt_point(&sk, &ct);
    assert_eq!(m_point, g.mul_scalar(&Fr::from_u64(message)));
    let instance = VpkeInstance { ct, pk, m_point };
    let cs = vpke_circuit_with_bits(&instance, &sk, TEST_BITS);
    let mut publics = instance.public_inputs();
    publics.push(g.x);
    publics.push(g.y);
    (
        Fixture {
            instance,
            cs,
            publics,
        },
        sk,
    )
}

#[test]
fn snark_proves_honest_decryption() {
    let mut rng = StdRng::seed_from_u64(1);
    let (f, _sk) = fixture(&mut rng, 1);
    f.cs.is_satisfied().unwrap();
    let pk = CRS.get_or_setup(&f.cs, &mut rng).unwrap();
    let proof = groth16::prove(&pk, &f.cs, &mut rng).unwrap();
    assert!(groth16::verify(&pk.vk, &proof, &f.publics).unwrap());
}

#[test]
fn snark_rejects_wrong_statement() {
    let mut rng = StdRng::seed_from_u64(2);
    let (f, _sk) = fixture(&mut rng, 1);
    let pk = CRS.get_or_setup(&f.cs, &mut rng).unwrap();
    let proof = groth16::prove(&pk, &f.cs, &mut rng).unwrap();
    // Tamper with the claimed message point in the public inputs.
    let mut bad_publics = f.publics.clone();
    bad_publics[6] += Fr::one();
    assert!(!groth16::verify(&pk.vk, &proof, &bad_publics).unwrap());
}

#[test]
fn snark_witness_for_false_claim_unsatisfiable() {
    let mut rng = StdRng::seed_from_u64(3);
    let (f, sk) = fixture(&mut rng, 1);
    // Claim the ciphertext decrypts to 0·G instead of 1·G.
    let lying_instance = VpkeInstance {
        ct: f.instance.ct,
        pk: f.instance.pk,
        m_point: JubPoint::identity(),
    };
    let cs = vpke_circuit_with_bits(&lying_instance, &sk, TEST_BITS);
    assert!(cs.is_satisfied().is_err(), "no witness for a false claim");
    let pk = CRS.get_or_setup(&cs, &mut rng).unwrap();
    assert!(groth16::prove(&pk, &cs, &mut rng).is_err());
}

#[test]
fn proof_not_transferable_across_instances() {
    let mut rng = StdRng::seed_from_u64(4);
    let (f1, _) = fixture(&mut rng, 1);
    let (f2, _) = fixture(&mut rng, 0);
    let pk = CRS.get_or_setup(&f1.cs, &mut rng).unwrap();
    let proof = groth16::prove(&pk, &f1.cs, &mut rng).unwrap();
    assert!(groth16::verify(&pk.vk, &proof, &f1.publics).unwrap());
    // The same proof against the other instance's publics fails.
    assert!(!groth16::verify(&pk.vk, &proof, &f2.publics).unwrap());
}

#[test]
fn circuit_size_scales_with_key_bits() {
    let mut rng = StdRng::seed_from_u64(5);
    let (f_small, sk) = fixture(&mut rng, 1);
    let cs_large = vpke_circuit_with_bits(&f_small.instance, &sk, 2 * TEST_BITS);
    assert!(
        cs_large.num_constraints() > 3 * f_small.cs.num_constraints() / 2,
        "constraints must grow with key width: {} vs {}",
        cs_large.num_constraints(),
        f_small.cs.num_constraints()
    );
    cs_large.is_satisfied().unwrap();
}
