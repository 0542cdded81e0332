//! Property-based tests of the cryptographic substrate: field axioms,
//! group laws, encoding round trips, and scheme-level properties under
//! randomized inputs.

use dragoon_crypto::elgamal::{
    discrete_log_bsgs, discrete_log_in_range, Decrypted, KeyPair, PlaintextRange,
};
use dragoon_crypto::g1::{BatchAddScratch, G1Affine, G1Projective};
use dragoon_crypto::keccak::keccak256;
use dragoon_crypto::precomp::generator_table;
use dragoon_crypto::vpke::{self, PlaintextClaim};
use dragoon_crypto::{FixedBaseTable, Fq, Fr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fr(seed: u64) -> Fr {
    Fr::random(&mut StdRng::seed_from_u64(seed))
}

fn fq(seed: u64) -> Fq {
    Fq::random(&mut StdRng::seed_from_u64(seed))
}

/// Bit-by-bit double-and-add, MSB first — the scalar multiplication the
/// crate shipped before the GLV/wNAF kernel, kept as the oracle every
/// multiplication path is diffed against.
fn double_and_add(p: &G1Projective, k: &Fr) -> G1Projective {
    let limbs = k.to_plain_limbs();
    let mut acc = G1Projective::identity();
    for i in (0..256).rev() {
        acc = acc.double();
        if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
            acc = G1Projective::add(&acc, p);
        }
    }
    acc
}

/// A scalar shaped by `shape`: uniform, a power of two (± 1), or small.
fn shaped_scalar(seed: u64, shape: u8) -> Fr {
    let mut pow = Fr::one();
    for _ in 0..seed % 254 {
        pow = pow.double();
    }
    match shape % 5 {
        0 => pow,
        1 => pow - Fr::one(),
        2 => -pow,
        3 => Fr::from_u64(seed),
        _ => fr(seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------- Field axioms over random elements ----------------

    #[test]
    fn fq_ring_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (fq(a), fq(b), fq(c));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!(x * (y * z), (x * y) * z);
        prop_assert_eq!(x * (y + z), x * y + x * z);
        prop_assert_eq!(x + (-x), Fq::zero());
        prop_assert_eq!(x * Fq::one(), x);
        prop_assert_eq!(x * Fq::zero(), Fq::zero());
    }

    #[test]
    fn fq_inversion_and_sqrt(a in any::<u64>()) {
        let x = fq(a);
        if !x.is_zero() {
            let inv = x.inverse().unwrap();
            prop_assert_eq!(x * inv, Fq::one());
            prop_assert_eq!(inv.inverse().unwrap(), x);
            // The binary GCD against Fermat: x^(q-2), in both fields.
            let mut q_minus_2 = Fq::MODULUS;
            q_minus_2[0] -= 2;
            prop_assert_eq!(inv, x.pow(&q_minus_2));
            let k = fr(a);
            let mut r_minus_2 = Fr::MODULUS;
            r_minus_2[0] -= 2;
            prop_assert_eq!(k.inverse().unwrap(), k.pow(&r_minus_2));
        }
    }

    #[test]
    fn fr_bytes_round_trip(a in any::<u64>()) {
        let x = fr(a);
        prop_assert_eq!(Fr::from_bytes_le(&x.to_bytes_le()), Some(x));
        // Wide reduction agrees on already-reduced values.
        prop_assert_eq!(Fr::from_bytes_le_reduced(&x.to_bytes_le()), x);
    }

    #[test]
    fn fq_pow_homomorphism(a in any::<u64>(), e1 in 0u64..50, e2 in 0u64..50) {
        let x = fq(a);
        prop_assert_eq!(x.pow(&[e1]) * x.pow(&[e2]), x.pow(&[e1 + e2]));
        prop_assert_eq!(x.pow(&[e1]).pow(&[e2]), x.pow(&[e1 * e2]));
    }

    // ---------------- Group laws ----------------

    #[test]
    fn g1_group_laws(a in any::<u64>(), b in any::<u64>()) {
        let (ka, kb) = (fr(a), fr(b));
        let g = G1Projective::generator();
        let p = g * ka;
        let q = g * kb;
        prop_assert_eq!(p + q, q + p);
        prop_assert_eq!(p - p, G1Projective::identity());
        prop_assert_eq!(g * ka + g * kb, g * (ka + kb));
        prop_assert_eq!((g * ka) * kb, g * (ka * kb));
        // Affine round trip preserves the point.
        prop_assert_eq!(p.to_affine().to_projective(), p);
        prop_assert!(p.to_affine().is_on_curve());
    }

    #[test]
    fn g1_serialization_round_trip(a in any::<u64>()) {
        let p = (G1Projective::generator() * fr(a)).to_affine();
        prop_assert_eq!(G1Affine::from_bytes(&p.to_bytes()), Some(p));
    }

    #[test]
    fn g1_mul_scalar_matches_double_and_add(
        a in any::<u64>(),
        b in any::<u64>(),
        shape in any::<u8>(),
    ) {
        let k = shaped_scalar(b, shape);
        let g = G1Projective::generator();
        // A base with Z ≠ 1, and the generator.
        let p = double_and_add(&g, &fr(a)).double();
        prop_assert_eq!(p.mul_scalar(&k), double_and_add(&p, &k));
        prop_assert_eq!(g.mul_scalar(&k), double_and_add(&g, &k));
        prop_assert_eq!(p.to_affine() * k, double_and_add(&p, &k));
        prop_assert!(G1Projective::identity().mul_scalar(&k).is_identity());
    }

    #[test]
    fn g1_fixed_base_table_matches_double_and_add(
        a in any::<u64>(),
        b in any::<u64>(),
        shape in any::<u8>(),
    ) {
        let base = double_and_add(&G1Projective::generator(), &fr(a));
        let table = FixedBaseTable::new(&base.to_affine());
        // The last scalar has zero nibbles between its digits.
        let ks = [
            shaped_scalar(b, shape),
            -Fr::one(),
            Fr::zero(),
            Fr::from_u64(b & 0xf0f0_0f0f),
        ];
        for k in ks {
            prop_assert_eq!(table.mul(&k), double_and_add(&base, &k));
        }
    }

    #[test]
    fn g1_batch_to_affine_matches_per_point(
        seeds in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        // Seeds divisible by 3 become identities, interleaved at random.
        let g = G1Projective::generator();
        let points: Vec<G1Projective> = seeds
            .iter()
            .map(|&s| {
                if s.is_multiple_of(3) {
                    G1Projective::identity()
                } else {
                    (g * fr(s)).double()
                }
            })
            .collect();
        let expect: Vec<G1Affine> = points.iter().map(G1Projective::to_affine).collect();
        prop_assert_eq!(G1Projective::batch_to_affine(&points), expect);
    }

    #[test]
    fn g1_batch_add_matches_projective(
        seeds in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..10),
    ) {
        // Residues pick the degenerate pairs: identity, P + P, P − P.
        let point = |s: u64| {
            if s.is_multiple_of(5) {
                G1Affine::identity()
            } else {
                (G1Projective::generator() * fr(s)).to_affine()
            }
        };
        let (lhs, rhs): (Vec<G1Affine>, Vec<G1Affine>) = seeds
            .iter()
            .map(|&(a, b)| match b % 4 {
                0 => (point(a), point(a)),
                1 => (point(a), -point(a)),
                _ => (point(a), point(b)),
            })
            .unzip();
        let expect: Vec<G1Affine> = lhs
            .iter()
            .zip(&rhs)
            .map(|(p, q)| (p.to_projective() + q.to_projective()).to_affine())
            .collect();
        prop_assert_eq!(G1Affine::batch_add(&lhs, &rhs), &expect[..]);
        // In place, twice through one scratch: the second call adds the
        // sums to themselves (all tangents and identities) on buffers
        // the first call left behind.
        let mut scratch = BatchAddScratch::default();
        let mut accs = lhs.clone();
        G1Affine::batch_add_assign(&mut accs, &rhs, &mut scratch);
        prop_assert_eq!(&accs, &expect);
        G1Affine::batch_add_assign(&mut accs, &expect, &mut scratch);
        let doubled: Vec<G1Affine> = expect
            .iter()
            .map(|p| p.to_projective().double().to_affine())
            .collect();
        prop_assert_eq!(accs, doubled);
    }

    #[test]
    fn g1_lockstep_table_mul_matches_double_and_add(
        lanes in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<u8>()), 0..12),
        a in any::<u64>(),
        shared in any::<bool>(),
    ) {
        let g = G1Projective::generator();
        let base = double_and_add(&g, &fr(a));
        let table = FixedBaseTable::new(&base.to_affine());
        // Lanes pick a table and a shaped scalar; `shared` puts the
        // first lane's scalar on all of them.
        let lanes: Vec<(&FixedBaseTable, Fr)> = lanes
            .iter()
            .map(|&(on_g, seed, shape)| {
                let (seed, shape) = if shared { (lanes[0].1, lanes[0].2) } else { (seed, shape) };
                (if on_g { generator_table() } else { &table }, shaped_scalar(seed, shape))
            })
            .collect();
        let got = FixedBaseTable::mul_lockstep(&lanes);
        prop_assert_eq!(got.len(), lanes.len());
        for ((t, k), got) in lanes.iter().zip(got) {
            let on_g = std::ptr::eq(*t, generator_table());
            let expect = double_and_add(if on_g { &g } else { &base }, k);
            prop_assert_eq!(got, expect.to_affine());
            prop_assert_eq!(got, t.mul(k).to_affine());
        }
    }

    #[test]
    fn g1_batch_mul_matches_double_and_add(
        seeds in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 0..12),
        shared in any::<bool>(),
    ) {
        // Lengths 0..12 straddle the lane count where `batch_mul`
        // switches to lockstep-built tables (8). Point seeds divisible
        // by 5 are identities; seeds that agree modulo 7 share a point.
        let g = G1Projective::generator();
        let points: Vec<G1Affine> = seeds
            .iter()
            .map(|&(s, _, _)| {
                if s.is_multiple_of(5) {
                    G1Affine::identity()
                } else {
                    double_and_add(&g, &Fr::from_u64(s % 7 + 1)).to_affine()
                }
            })
            .collect();
        let scalars: Vec<Fr> = if shared {
            vec![shaped_scalar(seeds.len() as u64, 4)]
        } else {
            seeds.iter().map(|&(_, seed, shape)| shaped_scalar(seed, shape)).collect()
        };
        let expect: Vec<G1Projective> = points
            .iter()
            .enumerate()
            .map(|(i, p)| double_and_add(&p.to_projective(), &scalars[i % scalars.len()]))
            .collect();
        prop_assert_eq!(G1Affine::batch_mul(&points, &scalars), &expect[..]);
        prop_assert_eq!(G1Affine::batch_mul_lockstep(&points, &scalars), expect);
    }

    // ---------------- Keccak ----------------

    #[test]
    fn keccak_deterministic_and_sensitive(data in any::<Vec<u8>>()) {
        let d1 = keccak256(&data);
        prop_assert_eq!(d1, keccak256(&data));
        let mut flipped = data.clone();
        if let Some(b) = flipped.first_mut() {
            *b ^= 1;
            prop_assert_ne!(d1, keccak256(&flipped));
        }
    }

    // ---------------- ElGamal ----------------

    #[test]
    fn elgamal_homomorphism(m1 in 0u64..50, m2 in 0u64..50, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 100);
        let ct1 = kp.ek.encrypt(m1, &mut rng);
        let ct2 = kp.ek.encrypt(m2, &mut rng);
        let sum = ct1.homomorphic_add(&ct2);
        prop_assert_eq!(kp.dk.decrypt(&sum, &range), Decrypted::InRange(m1 + m2));
    }

    #[test]
    fn elgamal_batched_encrypt_matches_per_item(
        ms in proptest::collection::vec(0u64..40, 0..10),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let rhos: Vec<Fr> = ms.iter().map(|_| Fr::random(&mut rng)).collect();
        let table = FixedBaseTable::new(&kp.ek.0);
        // The pre-batching formula, point by point.
        let g = G1Projective::generator();
        let h = kp.ek.0.to_projective();
        for table in [None, Some(&table)] {
            let batch = kp.ek.encrypt_batch(&ms, &rhos, table);
            prop_assert_eq!(batch.len(), ms.len());
            for ((&m, &rho), ct) in ms.iter().zip(&rhos).zip(&batch) {
                let per_item = kp.ek.encrypt_with_table(m, rho, table);
                prop_assert_eq!(ct.to_bytes(), per_item.to_bytes());
                prop_assert_eq!(ct.c1, double_and_add(&g, &rho).to_affine());
                let c2 = double_and_add(&g, &Fr::from_u64(m)) + double_and_add(&h, &rho);
                prop_assert_eq!(ct.c2, c2.to_affine());
            }
        }
    }

    #[test]
    fn elgamal_batched_decrypt_matches_per_item(
        ms in proptest::collection::vec(0u64..12, 0..10),
        seed in any::<u64>(),
    ) {
        // Plaintexts 0..12 against the range [2, 7]: both sides out of range.
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(2, 7);
        let cts: Vec<_> = ms.iter().map(|&m| kp.ek.encrypt(m, &mut rng)).collect();
        let batch = kp.dk.decrypt_batch(&cts, &range);
        prop_assert_eq!(batch.len(), cts.len());
        for ((&m, ct), got) in ms.iter().zip(&cts).zip(&batch) {
            prop_assert_eq!(*got, kp.dk.decrypt(ct, &range));
            let g_m = double_and_add(&G1Projective::generator(), &Fr::from_u64(m)).to_affine();
            let expect = if range.contains(m) {
                Decrypted::InRange(m)
            } else {
                Decrypted::OutOfRange(g_m)
            };
            prop_assert_eq!(*got, expect);
            prop_assert_eq!(kp.dk.decrypt_raw(ct), g_m);
            prop_assert_eq!(discrete_log_in_range(&g_m, &range), range.contains(m).then_some(m));
        }
        let first_out = |ds: &[Decrypted]| {
            ds.iter().position(|d| matches!(d, Decrypted::OutOfRange(_)))
        };
        let per_item: Vec<Decrypted> = cts.iter().map(|ct| kp.dk.decrypt(ct, &range)).collect();
        prop_assert_eq!(first_out(&batch), first_out(&per_item));
        prop_assert_eq!(first_out(&batch), ms.iter().position(|&m| !range.contains(m)));
    }

    #[test]
    fn bsgs_solves_random_dlogs(m in 0u64..10_000) {
        let target = (G1Projective::generator() * Fr::from_u64(m)).to_affine();
        prop_assert_eq!(discrete_log_bsgs(&target, 10_000), Some(m));
    }

    // ---------------- VPKE ----------------

    #[test]
    fn vpke_out_of_range_claims_verify(m in 100u64..200, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 10);
        let ct = kp.ek.encrypt(m, &mut rng);
        let (claim, proof) = vpke::prove(&kp.dk, &ct, &range, &mut rng);
        prop_assert!(matches!(claim, PlaintextClaim::OutOfRange(_)));
        let stmt = vpke::DecryptionStatement { ek: kp.ek, ct, claim };
        prop_assert!(vpke::verify(&stmt, &proof));
    }

    #[test]
    fn vpke_batched_prove_matches_consecutive_proofs(
        ms in proptest::collection::vec(0u64..8, 0..6),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 3);
        let cts: Vec<_> = ms.iter().map(|&m| kp.ek.encrypt(m, &mut rng)).collect();
        let mut batch_rng = rng.clone();
        let batch = vpke::prove_batch_with_key(&kp, &cts, &range, &mut batch_rng);
        let single: Vec<_> = cts
            .iter()
            .map(|ct| vpke::prove_with_key(&kp, ct, &range, &mut rng))
            .collect();
        prop_assert_eq!(&batch, &single);
        // Identical draws: the two generators are in the same state.
        prop_assert_eq!(Fr::random(&mut batch_rng), Fr::random(&mut rng));
        for (ct, (claim, proof)) in cts.iter().zip(batch) {
            let stmt = vpke::DecryptionStatement { ek: kp.ek, ct: *ct, claim };
            prop_assert!(vpke::verify(&stmt, &proof));
        }
    }

    #[test]
    fn vpke_batch_of_random_sizes(n in 1usize..8, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 3);
        let mut items = Vec::new();
        for m in 0..n as u64 {
            let ct = kp.ek.encrypt(m % 4, &mut rng);
            let (claim, proof) = vpke::prove(&kp.dk, &ct, &range, &mut rng);
            items.push((vpke::DecryptionStatement { ek: kp.ek, ct, claim }, proof));
        }
        prop_assert!(vpke::batch_verify_each(&items).iter().all(|&ok| ok));
        // Corrupt the last item: exactly its verdict turns.
        let last = items.len() - 1;
        items[last].1.z += Fr::one();
        let verdicts = vpke::batch_verify_each(&items);
        prop_assert!(!verdicts[last]);
        prop_assert!(verdicts[..last].iter().all(|&ok| ok));
    }
}

/// The whole-vector paths against the per-item API and double-and-add at
/// fixed sizes on both sides of the lane-count thresholds (`encrypt_batch`
/// goes lockstep from 16 ciphertexts, `decrypt_batch` from 8), up to the
/// paper's 106-question vector, with and without a table.
#[test]
fn answer_vector_batches_match_per_item_at_fixed_sizes() {
    let mut rng = StdRng::seed_from_u64(0xa115);
    let kp = KeyPair::generate(&mut rng);
    let table = FixedBaseTable::new(&kp.ek.0);
    let range = PlaintextRange::new(1, 3);
    let g = G1Projective::generator();
    let h = kp.ek.0.to_projective();
    for n in [0usize, 1, 4, 7, 8, 9, 15, 16, 17, 31, 32, 106] {
        let ms: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
        let rhos: Vec<Fr> = ms.iter().map(|_| Fr::random(&mut rng)).collect();
        let with_table = kp.ek.encrypt_batch(&ms, &rhos, Some(&table));
        assert_eq!(kp.ek.encrypt_batch(&ms, &rhos, None), with_table, "n = {n}");
        for ((&m, &rho), ct) in ms.iter().zip(&rhos).zip(&with_table) {
            assert_eq!(*ct, kp.ek.encrypt_with_table(m, rho, Some(&table)));
            assert_eq!(*ct, kp.ek.encrypt_with(m, rho));
            assert_eq!(ct.c1, double_and_add(&g, &rho).to_affine());
            let c2 = double_and_add(&g, &Fr::from_u64(m)) + double_and_add(&h, &rho);
            assert_eq!(ct.c2, c2.to_affine());
        }
        let decrypted = kp.dk.decrypt_batch(&with_table, &range);
        assert_eq!(decrypted.len(), n);
        for ((&m, ct), got) in ms.iter().zip(&with_table).zip(decrypted) {
            assert_eq!(got, kp.dk.decrypt(ct, &range), "n = {n}");
            let g_m = double_and_add(&g, &Fr::from_u64(m)).to_affine();
            let expect = if range.contains(m) {
                Decrypted::InRange(m)
            } else {
                Decrypted::OutOfRange(g_m)
            };
            assert_eq!(got, expect, "n = {n}");
        }
    }
}
