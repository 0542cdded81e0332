//! Statistical microbenchmarks (Criterion) of the cryptographic
//! substrate: field/curve/hash/pairing primitives and the VPKE/PoQoEA
//! kernels. These ground the table-level numbers in primitive costs.

use criterion::{criterion_group, criterion_main, Criterion};
use dragoon_bench::time_once;
use dragoon_core::poqoea;
use dragoon_core::task::Answer;
use dragoon_core::workload::imagenet_workload;
use dragoon_crypto::elgamal::{Ciphertext, KeyPair, PlaintextRange};
use dragoon_crypto::g1::{msm, msm_pippenger, msm_pippenger_portable, G1Projective};
use dragoon_crypto::g2::G2Affine;
#[cfg(target_arch = "x86_64")]
use dragoon_crypto::lanes;
use dragoon_crypto::pairing::pairing;
use dragoon_crypto::precomp::generator_table;
use dragoon_crypto::{keccak256, vpke, FixedBaseTable, Fq, Fr, G1Affine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

/// Hands out `items` round-robin, so a timed closure sees a different
/// operand every iteration: one fixed operand lets the branch predictor
/// memorise its carry/borrow pattern and flatters branchy field code by
/// ~30 %.
fn rotate<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T {
    let mut next = 0;
    move || {
        next = (next + 1) % items.len();
        &items[next]
    }
}

fn bench_field(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let fq_pairs: Vec<(Fq, Fq)> = (0..64)
        .map(|_| (Fq::random(&mut rng), Fq::random(&mut rng)))
        .collect();
    let mut pair = rotate(&fq_pairs);
    c.bench_function("fq_mul", |bench| {
        bench.iter(|| {
            let (a, b) = black_box(pair());
            *a * *b
        })
    });
    let operands: Vec<Fq> = (0..64).map(|_| Fq::random(&mut rng)).collect();
    let mut operand = rotate(&operands);
    c.bench_function("fq_square", |bench| {
        bench.iter(|| black_box(operand()).square())
    });
    // Each product feeds the next: the latency a G1 formula's dependent
    // multiplications pay, where `fq_mul` overlaps independent ones.
    let mut acc = Fq::one();
    c.bench_function("fq_mul_chain", |bench| {
        bench.iter(|| {
            acc *= *black_box(operand());
            acc
        })
    });
    c.bench_function("fq_inverse", |bench| {
        bench.iter(|| black_box(operand()).inverse().unwrap())
    });
    bench_fq8_mul(&operands);
    let fr_pairs: Vec<(Fr, Fr)> = (0..64)
        .map(|_| (Fr::random(&mut rng), Fr::random(&mut rng)))
        .collect();
    let mut pair = rotate(&fr_pairs);
    c.bench_function("fr_mul", |bench| {
        bench.iter(|| {
            let (x, y) = black_box(pair());
            *x * *y
        })
    });
}

/// The eight-lane IFMA product, as a dependent chain like
/// `fq_mul_chain`: per 8-lane product and per field product it holds.
#[cfg(target_arch = "x86_64")]
fn bench_fq8_mul(operands: &[Fq]) {
    const PRODUCTS: usize = 1 << 14;
    let a: [Fq; lanes::LANES] = std::array::from_fn(|i| operands[i]);
    let b: [Fq; lanes::LANES] = std::array::from_fn(|i| operands[i + lanes::LANES]);
    if lanes::mul_chain(a, b, 1).is_none() {
        println!("{:<40} skipped: this CPU has no avx512ifma", "fq8_mul");
        return;
    }
    let times: Vec<Duration> = (0..21)
        .map(|_| elapsed(|| lanes::mul_chain(black_box(a), black_box(b), PRODUCTS)))
        .collect();
    let ns = median_us(times) * 1e3 / PRODUCTS as f64;
    let per_lane = ns / lanes::LANES as f64;
    println!(
        "{:<40} {ns:>9.1} ns /8-lane product ({per_lane:.1} ns per Fq product, chained)",
        "fq8_mul"
    );
}

#[cfg(not(target_arch = "x86_64"))]
fn bench_fq8_mul(_: &[Fq]) {}

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
    let scalars: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
    let mut scalar = rotate(&scalars);
    c.bench_function("g1_table_mul_signed", |bench| {
        bench.iter(|| table.mul(black_box(scalar())))
    });
    c.bench_function("g1_affine_table_build", |bench| {
        bench.iter(|| FixedBaseTable::new(&black_box(q)))
    });
    bench_table_build_lanes(&mut rng);
    let points: Vec<G1Projective> = (1..=212u64).map(|i| jac * Fr::from_u64(i)).collect();
    c.bench_function("g1_batch_to_affine_212", |bench| {
        bench.iter(|| G1Projective::batch_to_affine(black_box(&points)))
    });
}

/// The lanes' table build beside `g1_affine_table_build`, per key: in a
/// full pass of eight keys, and for a lone key (one lane of a pass).
#[cfg(target_arch = "x86_64")]
fn bench_table_build_lanes(rng: &mut StdRng) {
    let keys: Vec<G1Affine> = (0..lanes::LANES).map(|_| G1Affine::random(rng)).collect();
    if lanes::fixed_base_tables(&[]).is_none() {
        println!(
            "{:<40} skipped: this CPU has no avx512ifma",
            "g1_affine_table_build_lanes"
        );
        return;
    }
    let per_key = |n: usize| {
        let times: Vec<Duration> = (0..21)
            .map(|_| elapsed(|| lanes::fixed_base_tables(black_box(&keys[..n]))))
            .collect();
        median_us(times) / n as f64
    };
    let (pass, lone) = (per_key(lanes::LANES), per_key(1));
    println!(
        "{:<40} {pass:>9.1} µs per key (eight-key pass), {lone:.1} µs (lone key)",
        "g1_affine_table_build_lanes"
    );
}

#[cfg(not(target_arch = "x86_64"))]
fn bench_table_build_lanes(_: &mut StdRng) {}

/// The lanes' table build against the portable one, `n` keys each, the
/// two sides alternated round by round over fresh keys. A pass costs
/// about the same however many of its eight lanes hold a key;
/// `precomp::LANE_BUILD_KEYS` sits where the ratio crosses 1.
#[cfg(target_arch = "x86_64")]
fn bench_table_build_crossover(_: &mut Criterion) {
    const ROUNDS: usize = 31;
    if lanes::fixed_base_tables(&[]).is_none() {
        println!("table build lanes / portable: skipped, this CPU has no avx512ifma");
        return;
    }
    let mut rng = StdRng::seed_from_u64(9);
    println!("table build, lanes / portable, median µs over {ROUNDS} alternated rounds");
    println!(
        "{:>6} {:>28} {:>18}",
        "keys", "lanes / portable", "µs per key"
    );
    for n in 1..=lanes::LANES {
        let (mut portable, mut lane) = (vec![], vec![]);
        for round in 0..ROUNDS {
            let keys: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
            let keys = black_box(keys);
            let mut time_portable = || {
                portable.push(elapsed(|| {
                    keys.iter().map(FixedBaseTable::new).collect::<Vec<_>>()
                }))
            };
            let mut time_lanes = || lane.push(elapsed(|| lanes::fixed_base_tables(&keys)));
            if round % 2 == 0 {
                time_portable();
                time_lanes();
            } else {
                time_lanes();
                time_portable();
            }
        }
        let [p, l] = [portable, lane].map(median_us);
        println!(
            "{n:>6} {:>28} {:>18}",
            format!("{l:.0} / {p:.0} = {:.2}", l / p),
            format!("{:.1} / {:.1}", l / n as f64, p / n as f64),
        );
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn bench_table_build_crossover(_: &mut Criterion) {}

/// The paper's 106-question answer vector through the batched paths
/// next to the per-item API, over distinct scalars and points every
/// iteration.
fn bench_answer_vector(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let kp = KeyPair::generate(&mut rng);
    let range = PlaintextRange::binary();
    let ms: Vec<u64> = (0..106).map(|i| i % 2).collect();
    let rho_sets: Vec<Vec<Fr>> = (0..8)
        .map(|_| ms.iter().map(|_| Fr::random(&mut rng)).collect())
        .collect();
    let table = FixedBaseTable::new(&kp.ek.0);
    let mut rhos = rotate(&rho_sets);
    c.bench_function("elgamal_encrypt_table_per_item_x106", |bench| {
        bench.iter(|| {
            ms.iter()
                .zip(rhos())
                .map(|(&m, &rho)| kp.ek.encrypt_with_table(m, rho, Some(&table)))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("elgamal_encrypt_batch_106", |bench| {
        bench.iter(|| kp.ek.encrypt_batch(black_box(&ms), rhos(), Some(&table)))
    });
    // A micro-task's 4-answer vector under the same warm key table.
    let ms_4 = &ms[..4];
    let rho_sets_4: Vec<&[Fr]> = rho_sets.iter().map(|rhos| &rhos[..4]).collect();
    let mut rhos_4 = rotate(&rho_sets_4);
    c.bench_function("elgamal_encrypt_batch_4", |bench| {
        bench.iter(|| kp.ek.encrypt_batch(black_box(ms_4), rhos_4(), Some(&table)))
    });
    let ct_sets: Vec<Vec<Ciphertext>> = rho_sets
        .iter()
        .map(|rhos| kp.ek.encrypt_batch(&ms, rhos, Some(&table)))
        .collect();
    let mut cts = rotate(&ct_sets);
    c.bench_function("elgamal_decrypt_per_item_x106", |bench| {
        bench.iter(|| {
            cts()
                .iter()
                .map(|ct| kp.dk.decrypt(ct, &range))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("elgamal_decrypt_batch_106", |bench| {
        bench.iter(|| kp.dk.decrypt_batch(black_box(cts()), &range))
    });
    // The two whole-vector kernels on their own: 212 table lanes (106 on
    // `g`, 106 on the key) and 106 variable bases under one scalar.
    let g_table = generator_table();
    let lane_sets: Vec<Vec<(&FixedBaseTable, Fr)>> = rho_sets
        .iter()
        .map(|rhos| table_lanes(g_table, &table, rhos))
        .collect();
    let mut lane_set = rotate(&lane_sets);
    c.bench_function("g1_lockstep_table_mul_212", |bench| {
        bench.iter(|| FixedBaseTable::mul_lockstep(black_box(lane_set())))
    });
    // The same 212 products on the eight-lane kernel, as one list, the
    // conversion of the key rows its digits touch included.
    #[cfg(target_arch = "x86_64")]
    if lanes::fixed_base_mul(&[]).is_some() {
        c.bench_function("g1_lanes_table_mul_212", |bench| {
            bench.iter(|| lanes_table_mul(black_box(lane_set())))
        });
    } else {
        println!(
            "{:<40} skipped: this CPU has no avx512ifma",
            "g1_lanes_table_mul_212"
        );
    }
    let point_sets: Vec<Vec<G1Affine>> = ct_sets
        .iter()
        .map(|cts| cts.iter().map(|ct| ct.c1).collect())
        .collect();
    let mut points = rotate(&point_sets);
    c.bench_function("g1_batch_mul_106_same_scalar", |bench| {
        bench.iter(|| G1Affine::batch_mul(black_box(points()), &[kp.dk.0]))
    });
}

/// `rhos` on the generator's table, then `rhos` on the key's table — the
/// lanes `encrypt_batch` multiplies.
fn table_lanes<'a>(
    g_table: &'a FixedBaseTable,
    key_table: &'a FixedBaseTable,
    rhos: &[Fr],
) -> Vec<(&'a FixedBaseTable, Fr)> {
    [g_table, key_table]
        .into_iter()
        .flat_map(|table| rhos.iter().map(move |rho| (table, *rho)))
        .collect()
}

/// `table_lanes`' list on the eight lanes in one call (the key table's
/// rows its digits touch converted for the call) and normalised — what
/// `encrypt_batch` does on a CPU with AVX-512 IFMA, and what
/// `mul_lockstep` returns.
#[cfg(target_arch = "x86_64")]
fn lanes_table_mul(pairs: &[(&FixedBaseTable, Fr)]) -> Vec<G1Affine> {
    G1Projective::batch_to_affine(&lanes::fixed_base_mul(pairs).expect("this CPU has IFMA"))
}

/// Wall clock of one run of `f`.
fn elapsed<O>(f: impl FnMut() -> O) -> Duration {
    time_once(f).0
}

/// The median of `times`, in microseconds.
fn median_us(mut times: Vec<Duration>) -> f64 {
    times.sort();
    times[times.len() / 2].as_secs_f64() * 1e6
}

/// Where lockstep starts to pay: both whole-vector kernels against their
/// per-lane Jacobian paths at growing lane counts, alternated over
/// distinct operands. The two private thresholds
/// (`elgamal::LOCKSTEP_LANES`, `g1::BATCH_MUL_LOCKSTEP_LANES`) sit where
/// the ratio crosses 1 on a CPU without AVX-512 IFMA; re-derive them
/// from this table (and `elgamal::LANE_TABLE_LANES`, the gate on an IFMA
/// CPU, from `bench_fixed_base_lane_crossover`'s).
fn bench_lockstep_crossover(_: &mut Criterion) {
    const ROUNDS: usize = 31;
    let mut rng = StdRng::seed_from_u64(6);
    let kp = KeyPair::generate(&mut rng);
    let table = FixedBaseTable::new(&kp.ek.0);
    println!("lockstep / Jacobian, median µs over {ROUNDS} alternated rounds");
    println!(
        "{:>6} {:>28} {:>28}",
        "lanes", "table mul", "batch_mul (one scalar)"
    );
    for lanes in [4usize, 8, 16, 32, 64, 128, 212] {
        // Fresh operands every round, the two sides alternated round by
        // round so drift hits both.
        let (mut t_jac, mut t_lock, mut m_jac, mut m_lock) = (vec![], vec![], vec![], vec![]);
        for _ in 0..ROUNDS {
            let rhos: Vec<Fr> = (0..lanes / 2).map(|_| Fr::random(&mut rng)).collect();
            let table_lanes = black_box(table_lanes(generator_table(), &table, &rhos));
            let points: Vec<G1Affine> = (0..lanes).map(|_| G1Affine::random(&mut rng)).collect();
            let points = black_box(points);
            t_jac.push(elapsed(|| {
                let products: Vec<G1Projective> =
                    table_lanes.iter().map(|(t, k)| t.mul(k)).collect();
                G1Projective::batch_to_affine(&products)
            }));
            t_lock.push(elapsed(|| FixedBaseTable::mul_lockstep(&table_lanes)));
            m_jac.push(elapsed(|| {
                points
                    .iter()
                    .map(|p| p.to_projective().mul_scalar(&kp.dk.0))
                    .collect::<Vec<_>>()
            }));
            m_lock.push(elapsed(|| {
                G1Affine::batch_mul_lockstep(&points, &[kp.dk.0])
            }));
        }
        let [tj, tl, mj, ml] = [t_jac, t_lock, m_jac, m_lock].map(median_us);
        println!(
            "{lanes:>6} {:>28} {:>28}",
            format!("{tl:.0} / {tj:.0} = {:.2}", tl / tj),
            format!("{ml:.0} / {mj:.0} = {:.2}", ml / mj),
        );
    }
}

/// The lane kernel against the portable `batch_mul` under one shared
/// scalar — the decryption shape — alternated round by round over fresh
/// points. `g1::LANE_KERNEL_LANES` sits where the ratio crosses 1.
#[cfg(target_arch = "x86_64")]
fn bench_lane_crossover(_: &mut Criterion) {
    const ROUNDS: usize = 31;
    let mut rng = StdRng::seed_from_u64(7);
    let k = Fr::random(&mut rng);
    if lanes::batch_mul_shared(&[], &k).is_none() {
        println!("lanes / portable: skipped, this CPU has no avx512ifma");
        return;
    }
    println!("lanes / portable batch_mul (one scalar), median µs over {ROUNDS} alternated rounds");
    println!(
        "{:>6} {:>32} {:>18}",
        "lanes", "lanes / portable", "µs per lane"
    );
    for n in [1usize, 2, 4, 8, 16, 106] {
        let (mut portable, mut lane) = (vec![], vec![]);
        for round in 0..ROUNDS {
            let points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
            let points = black_box(points);
            let mut time_portable =
                || portable.push(elapsed(|| G1Affine::batch_mul_portable(&points, &[k])));
            let mut time_lanes = || lane.push(elapsed(|| lanes::batch_mul_shared(&points, &k)));
            if round % 2 == 0 {
                time_portable();
                time_lanes();
            } else {
                time_lanes();
                time_portable();
            }
        }
        let [p, l] = [portable, lane].map(median_us);
        println!(
            "{n:>6} {:>32} {:>18}",
            format!("{l:.0} / {p:.0} = {:.2}", l / p),
            format!("{:.1} / {:.1}", l / n as f64, p / n as f64),
        );
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn bench_lane_crossover(_: &mut Criterion) {}

/// The fixed-base lanes against lockstep and against the per-lane
/// Jacobian path on `encrypt_batch`'s shape — one list of `n/2` scalars
/// over the generator's table and `n/2` over a key's, all normalised,
/// the per-call conversion of the key rows the digits touch included —
/// the three sides rotated round by round over fresh scalars. On a CPU
/// with AVX-512 IFMA, `elgamal::LANE_TABLE_LANES` sits where lanes /
/// Jacobian crosses 1.
#[cfg(target_arch = "x86_64")]
fn bench_fixed_base_lane_crossover(_: &mut Criterion) {
    const ROUNDS: usize = 31;
    if lanes::fixed_base_mul(&[]).is_none() {
        println!("fixed-base lanes / lockstep: skipped, this CPU has no avx512ifma");
        return;
    }
    let mut rng = StdRng::seed_from_u64(8);
    let kp = KeyPair::generate(&mut rng);
    let table = FixedBaseTable::new(&kp.ek.0);
    println!("fixed-base lanes (one lane list, touched key rows converted per call), median µs over {ROUNDS} alternated rounds");
    println!(
        "{:>6} {:>28} {:>28}",
        "lanes", "lanes / lockstep", "lanes / Jacobian"
    );
    for n in [2usize, 4, 8, 16, 32, 64, 212] {
        let mut times: [Vec<Duration>; 3] = Default::default();
        for round in 0..ROUNDS {
            let rhos: Vec<Fr> = (0..n / 2).map(|_| Fr::random(&mut rng)).collect();
            let rhos = black_box(rhos);
            let pairs = table_lanes(generator_table(), &table, &rhos);
            let sides: [&dyn Fn() -> Vec<G1Affine>; 3] = [
                &|| lanes_table_mul(&pairs),
                &|| FixedBaseTable::mul_lockstep(&pairs),
                &|| {
                    let products: Vec<G1Projective> = pairs.iter().map(|(t, k)| t.mul(k)).collect();
                    G1Projective::batch_to_affine(&products)
                },
            ];
            for i in 0..3 {
                let side = (round + i) % 3;
                times[side].push(elapsed(sides[side]));
            }
        }
        let [l, s, j] = times.map(median_us);
        println!(
            "{n:>6} {:>28} {:>28}",
            format!("{l:.0} / {s:.0} = {:.2}", l / s),
            format!("{l:.0} / {j:.0} = {:.2}", l / j),
        );
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn bench_fixed_base_lane_crossover(_: &mut Criterion) {}

/// `n` random bases and scalars.
fn msm_terms(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
    let bases = (0..n).map(|_| G1Affine::random(rng)).collect();
    let scalars = (0..n).map(|_| Fr::random(rng)).collect();
    (bases, scalars)
}

/// The settlement fold's MSM at 49, 97 and 193 points — what 8, 16 and
/// 32 items folded into before `vpke::FoldedMsm` folded shared bases (6
/// points an item, plus `g`), ≈ 12, 24 and 48 items of a one-key batch
/// now (4 an item, plus `h` and `g`) — on `msm_pippenger` (the bucket
/// sums on the lanes where the CPU has AVX-512 IFMA) and on
/// `msm_pippenger_portable`, over rotating terms.
fn bench_msm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    for n in [49usize, 97, 193] {
        let sets: Vec<(Vec<G1Affine>, Vec<Fr>)> = (0..4).map(|_| msm_terms(n, &mut rng)).collect();
        let mut set = rotate(&sets);
        c.bench_function(&format!("msm_pippenger_{n}"), |bench| {
            bench.iter(|| {
                let (bases, scalars) = black_box(set());
                msm_pippenger(bases, scalars)
            })
        });
        c.bench_function(&format!("msm_pippenger_portable_{n}"), |bench| {
            bench.iter(|| {
                let (bases, scalars) = black_box(set());
                msm_pippenger_portable(bases, scalars)
            })
        });
    }
}

/// Where buckets start to pay: both `msm_pippenger` paths against the
/// naive `msm` at small point counts, alternated round by round over
/// fresh terms. Below the private `g1::PIPPENGER_POINTS` both paths are
/// the naive `msm` (a ratio of 1); from it on, the buckets must read
/// below 1.
fn bench_msm_crossover(_: &mut Criterion) {
    const ROUNDS: usize = 31;
    let mut rng = StdRng::seed_from_u64(10);
    println!("msm_pippenger / naive msm, median µs over {ROUNDS} alternated rounds");
    println!(
        "{:>6} {:>28} {:>28}",
        "points", "msm_pippenger / naive", "portable / naive"
    );
    for n in [2usize, 3, 4, 6, 8, 16] {
        let mut times: [Vec<Duration>; 3] = Default::default();
        for round in 0..ROUNDS {
            let (bases, scalars) = black_box(msm_terms(n, &mut rng));
            let sides: [&dyn Fn() -> G1Projective; 3] = [
                &|| msm_pippenger(&bases, &scalars),
                &|| msm_pippenger_portable(&bases, &scalars),
                &|| msm(&bases, &scalars),
            ];
            for i in 0..3 {
                let side = (round + i) % 3;
                times[side].push(elapsed(sides[side]));
            }
        }
        let [l, p, naive] = times.map(median_us);
        println!(
            "{n:>6} {:>28} {:>28}",
            format!("{l:.0} / {naive:.0} = {:.2}", l / naive),
            format!("{p:.0} / {naive:.0} = {:.2}", p / naive),
        );
    }
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
    bench_lockstep_crossover,
    bench_lane_crossover,
    bench_fixed_base_lane_crossover,
    bench_table_build_crossover,
    bench_msm,
    bench_msm_crossover,
    bench_hash,
    bench_pairing,
    bench_vpke,
    bench_poqoea
);
criterion_main!(benches);
