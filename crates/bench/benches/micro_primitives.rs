//! Statistical microbenchmarks (Criterion) of the cryptographic
//! substrate: field/curve/hash/pairing primitives and the VPKE/PoQoEA
//! kernels. These ground the table-level numbers in primitive costs.

use criterion::{criterion_group, criterion_main, Criterion};
use dragoon_core::poqoea;
use dragoon_core::task::Answer;
use dragoon_core::workload::imagenet_workload;
use dragoon_crypto::elgamal::{KeyPair, PlaintextRange};
use dragoon_crypto::g1::G1Projective;
use dragoon_crypto::g2::G2Affine;
use dragoon_crypto::pairing::pairing;
use dragoon_crypto::{keccak256, vpke, FixedBaseTable, Fq, Fr, G1Affine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_field(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Fq::random(&mut rng);
    let b = Fq::random(&mut rng);
    c.bench_function("fq_mul", |bench| bench.iter(|| black_box(a) * black_box(b)));
    c.bench_function("fq_inverse", |bench| {
        bench.iter(|| black_box(a).inverse().unwrap())
    });
    let x = Fr::random(&mut rng);
    let y = Fr::random(&mut rng);
    c.bench_function("fr_mul", |bench| bench.iter(|| black_box(x) * black_box(y)));
}

fn bench_group(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let p = G1Projective::generator();
    let k = Fr::random(&mut rng);
    c.bench_function("g1_scalar_mul", |bench| {
        bench.iter(|| black_box(p) * black_box(k))
    });
    let q = G1Affine::random(&mut rng);
    c.bench_function("g1_add_mixed", |bench| {
        bench.iter(|| black_box(p).add_affine(&black_box(q)))
    });
    // The GLV + wNAF kernel on a base with Z ≠ 1 (the row above has the
    // generator, whose table entries start out normalised).
    let jac = q.to_projective().double();
    c.bench_function("g1_glv_mul", |bench| {
        bench.iter(|| black_box(jac) * black_box(k))
    });
    let table = FixedBaseTable::new(&q);
    c.bench_function("g1_affine_table_mul", |bench| {
        bench.iter(|| table.mul(&black_box(k)))
    });
    c.bench_function("g1_affine_table_build", |bench| {
        bench.iter(|| FixedBaseTable::new(&black_box(q)))
    });
    let points: Vec<G1Projective> = (1..=212u64).map(|i| jac * Fr::from_u64(i)).collect();
    c.bench_function("g1_batch_to_affine_212", |bench| {
        bench.iter(|| G1Projective::batch_to_affine(black_box(&points)))
    });
}

/// The paper's 106-question answer vector through the batched paths
/// (one inversion per vector) next to the per-item API.
fn bench_answer_vector(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let kp = KeyPair::generate(&mut rng);
    let range = PlaintextRange::binary();
    let ms: Vec<u64> = (0..106).map(|i| i % 2).collect();
    let rhos: Vec<Fr> = ms.iter().map(|_| Fr::random(&mut rng)).collect();
    let table = FixedBaseTable::new(&kp.ek.0);
    c.bench_function("elgamal_encrypt_table_per_item_x106", |bench| {
        bench.iter(|| {
            ms.iter()
                .zip(&rhos)
                .map(|(&m, &rho)| kp.ek.encrypt_with_table(m, rho, Some(&table)))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("elgamal_encrypt_batch_106", |bench| {
        bench.iter(|| kp.ek.encrypt_batch(black_box(&ms), &rhos, Some(&table)))
    });
    let cts = kp.ek.encrypt_batch(&ms, &rhos, Some(&table));
    c.bench_function("elgamal_decrypt_per_item_x106", |bench| {
        bench.iter(|| {
            cts.iter()
                .map(|ct| kp.dk.decrypt(ct, &range))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("elgamal_decrypt_batch_106", |bench| {
        bench.iter(|| kp.dk.decrypt_batch(black_box(&cts), &range))
    });
}

fn bench_hash(c: &mut Criterion) {
    let data = vec![0xa5u8; 1024];
    c.bench_function("keccak256_1k", |bench| {
        bench.iter(|| keccak256(black_box(&data)))
    });
}

fn bench_pairing(c: &mut Criterion) {
    let mut c = c.benchmark_group("pairing");
    c.sample_size(10);
    let p = G1Affine::generator();
    let q = G2Affine::generator();
    c.bench_function("optimal_ate", |bench| {
        bench.iter(|| pairing(black_box(&p), black_box(&q)))
    });
    c.finish();
}

fn bench_vpke(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let kp = KeyPair::generate(&mut rng);
    let range = PlaintextRange::binary();
    let ct = kp.ek.encrypt(1, &mut rng);
    let mut prng = rng.clone();
    c.bench_function("vpke_prove", |bench| {
        bench.iter(|| vpke::prove(&kp.dk, black_box(&ct), &range, &mut prng))
    });
    let (claim, proof) = vpke::prove(&kp.dk, &ct, &range, &mut rng);
    let stmt = vpke::DecryptionStatement {
        ek: kp.ek,
        ct,
        claim,
    };
    c.bench_function("vpke_verify", |bench| {
        bench.iter(|| vpke::verify(black_box(&stmt), black_box(&proof)))
    });
}

fn bench_poqoea(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let kp = KeyPair::generate(&mut rng);
    let range = PlaintextRange::binary();
    let workload = imagenet_workload(4_000_000, &mut rng);
    let mut v = workload.truth.0.clone();
    for &i in &workload.golden.indexes {
        v[i] = 1 - v[i];
    }
    let cts = Answer(v).encrypt(&kp.ek, &mut rng);
    let mut prng = rng.clone();
    c.bench_function("poqoea_prove_6_golds", |bench| {
        bench.iter(|| {
            poqoea::prove_quality(&kp.dk, black_box(&cts), &workload.golden, &range, &mut prng)
        })
    });
    let (chi, proof) = poqoea::prove_quality(&kp.dk, &cts, &workload.golden, &range, &mut rng);
    c.bench_function("poqoea_verify_6_golds", |bench| {
        bench.iter(|| {
            poqoea::verify_quality_bool(&kp.ek, black_box(&cts), chi, &proof, &workload.golden)
        })
    });
}

criterion_group!(
    benches,
    bench_field,
    bench_group,
    bench_answer_vector,
    bench_hash,
    bench_pairing,
    bench_vpke,
    bench_poqoea
);
criterion_main!(benches);
