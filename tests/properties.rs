//! Property-based tests (proptest) on the core invariants:
//! PoQoEA completeness and upper-bound soundness over random tasks,
//! ElGamal/commitment round trips, quality-function algebra, and ledger
//! conservation.

use dragoon_core::poqoea;
use dragoon_core::quality::{mismatches, quality};
use dragoon_core::task::{Answer, GoldenStandards};
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::{Decrypted, KeyPair, PlaintextRange};
use dragoon_crypto::{vpke, Fr};
use dragoon_ledger::{Address, Ledger};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random task shape (n, golds) with a random answer and
/// gold standards.
fn task_strategy() -> impl Strategy<Value = (Vec<u64>, Vec<usize>, Vec<u64>, u64)> {
    // n in 4..20, golds a subset, binary answers, range hi = 1..3.
    (4usize..20, 1u64..4).prop_flat_map(|(n, hi)| {
        let answers = proptest::collection::vec(0u64..=hi, n);
        let golds = proptest::sample::subsequence((0..n).collect::<Vec<_>>(), 1..n.min(8));
        let gold_answers = proptest::collection::vec(0u64..=hi, 8);
        (answers, golds, gold_answers, Just(hi))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quality_bounded_by_golds((answer, golds, gold_ans, _hi) in task_strategy()) {
        let gs = GoldenStandards {
            answers: gold_ans[..golds.len()].to_vec(),
            indexes: golds,
        };
        let a = Answer(answer);
        let q = quality(&a, &gs);
        prop_assert!(q <= gs.len() as u64);
        prop_assert_eq!(q + mismatches(&a, &gs), gs.len() as u64);
    }

    #[test]
    fn poqoea_complete_on_random_tasks((answer, golds, gold_ans, hi) in task_strategy()) {
        let mut rng = StdRng::seed_from_u64(0xfeed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, hi);
        let gs = GoldenStandards {
            answers: gold_ans[..golds.len()].to_vec(),
            indexes: golds,
        };
        let a = Answer(answer);
        let cts = a.encrypt(&kp.ek, &mut rng);
        let (chi, proof) = poqoea::prove_quality(&kp.dk, &cts, &gs, &range, &mut rng);
        prop_assert_eq!(chi, quality(&a, &gs));
        prop_assert!(poqoea::verify_quality(&kp.ek, &cts, chi, &proof, &gs).is_ok());
    }

    #[test]
    fn poqoea_upper_bound_soundness((answer, golds, gold_ans, hi) in task_strategy()) {
        // Claiming any χ' < true quality must fail (the requester cannot
        // underpay), while χ' ≥ quality verifies.
        let mut rng = StdRng::seed_from_u64(0xfade);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, hi);
        let gs = GoldenStandards {
            answers: gold_ans[..golds.len()].to_vec(),
            indexes: golds,
        };
        let a = Answer(answer);
        let q = quality(&a, &gs);
        let cts = a.encrypt(&kp.ek, &mut rng);
        let (_, proof) = poqoea::prove_quality(&kp.dk, &cts, &gs, &range, &mut rng);
        if q > 0 {
            prop_assert!(
                poqoea::verify_quality(&kp.ek, &cts, q - 1, &proof, &gs).is_err(),
                "understating quality must be rejected"
            );
        }
        prop_assert!(poqoea::verify_quality(&kp.ek, &cts, q, &proof, &gs).is_ok());
    }

    #[test]
    fn elgamal_round_trip(m in 0u64..64, key_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(key_seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 63);
        let ct = kp.ek.encrypt(m, &mut rng);
        prop_assert_eq!(kp.dk.decrypt(&ct, &range), Decrypted::InRange(m));
    }

    #[test]
    fn vpke_complete_for_all_plaintexts(m in 0u64..8, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 7);
        let ct = kp.ek.encrypt(m, &mut rng);
        let (claim, proof) = vpke::prove(&kp.dk, &ct, &range, &mut rng);
        let stmt = vpke::DecryptionStatement { ek: kp.ek, ct, claim };
        prop_assert!(vpke::verify(&stmt, &proof));
        prop_assert_eq!(claim, vpke::PlaintextClaim::InRange(m));
    }

    #[test]
    fn vpke_rejects_shifted_claims(m in 0u64..8, shift in 1u64..8, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let range = PlaintextRange::new(0, 15);
        let ct = kp.ek.encrypt(m, &mut rng);
        let (_, proof) = vpke::prove(&kp.dk, &ct, &range, &mut rng);
        let stmt = vpke::DecryptionStatement {
            ek: kp.ek,
            ct,
            claim: vpke::PlaintextClaim::InRange(m + shift),
        };
        prop_assert!(!vpke::verify(&stmt, &proof));
    }

    #[test]
    fn commitment_binding_and_hiding(msg1 in any::<Vec<u8>>(), msg2 in any::<Vec<u8>>(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = CommitmentKey::random(&mut rng);
        let comm = Commitment::commit(&msg1, &key);
        prop_assert!(comm.open(&msg1, &key));
        if msg1 != msg2 {
            prop_assert!(!comm.open(&msg2, &key));
        }
        let key2 = CommitmentKey::random(&mut rng);
        if key != key2 {
            prop_assert!(!comm.open(&msg1, &key2));
        }
    }

    #[test]
    fn field_algebra(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (fa, fb, fc) = (Fr::from_u64(a), Fr::from_u64(b), Fr::from_u64(c));
        prop_assert_eq!(fa * (fb + fc), fa * fb + fa * fc);
        prop_assert_eq!((fa + fb) + fc, fa + (fb + fc));
        prop_assert_eq!(fa - fa, Fr::zero());
        if !fa.is_zero() {
            prop_assert_eq!(fa * fa.inverse().unwrap(), Fr::one());
        }
    }

    #[test]
    fn ledger_conserves_supply(ops in proptest::collection::vec((0u8..3, 0u8..4, 0u8..4, 0u128..1000), 1..30)) {
        let mut ledger = Ledger::new();
        for i in 0..4u8 {
            ledger.mint(Address::from_byte(i), 10_000);
        }
        let supply = ledger.total_supply();
        for (op, from, to, amount) in ops {
            let from = Address::from_byte(from);
            let to = Address::from_byte(to);
            let _ = match op {
                0 => ledger.transfer(from, to, amount),
                1 => ledger.freeze(to, from, amount),
                _ => ledger.pay(from, to, amount),
            };
        }
        prop_assert_eq!(ledger.total_supply(), supply);
    }
}

// --- gas-accumulator width boundary ---
//
// The million-HIT path leans on two u64 counters: the registry's
// monotone instance-id counter (every escrow address derives from it;
// its boundary test sits beside the one `Create` arm that advances it,
// in `registry.rs`) and the per-transaction gas accumulator (summed into
// per-block totals). Both are checked, never wrapping: these properties
// pin the accumulator right at the top of the u64 space.

use dragoon_chain::GasMeter;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The gas accumulator is exact right up to `u64::MAX`: charges
    /// that fit sum precisely (no saturation, no early panic).
    #[test]
    fn gas_meter_is_exact_at_the_u64_boundary(
        head in (u64::MAX - 1_000_000)..u64::MAX,
        tail in 0u64..1_000,
    ) {
        let mut meter = GasMeter::new();
        meter.charge("intrinsic", head);
        let extra = tail.min(u64::MAX - head);
        meter.charge("sstore", extra);
        prop_assert_eq!(meter.used(), head + extra);
        prop_assert_eq!(meter.total_for("intrinsic"), head);
    }
}

#[test]
#[should_panic(expected = "transaction gas accumulator overflowed")]
fn gas_meter_panics_instead_of_wrapping() {
    let mut meter = GasMeter::new();
    meter.charge("intrinsic", u64::MAX);
    meter.charge("sstore", 1);
}
