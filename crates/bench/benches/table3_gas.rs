//! **Table III reproduction** — on-chain overall handling fees of the
//! concrete ImageNet task (4 workers; 106 questions; 6 gold standards;
//! rejection if 3+ gold standards failed).
//!
//! Paper (gas / USD at 1.5 gwei, $115/ETH):
//!
//! | Row                                 | Gas      | USD   |
//! |-------------------------------------|----------|-------|
//! | Publish task (requester)            | ~1 293k  | $0.22 |
//! | Submit answers (per worker)         | ~2 830k  | $0.48 |
//! | Verify PoQoEA to reject an answer   | ~180k    | $0.03 |
//! | Overall (best: reject none)         | ~12 164k | $2.09 |
//! | Overall (worst: reject all)         | ~12 877k | $2.22 |
//!
//! Our numbers come out of the gas-metered contract running the full
//! protocol — every SSTORE, keccak, precompile call, log and calldata
//! byte priced per the Istanbul schedule. The task is a one-HIT run of
//! the market engine (`MarketSim::one_hit`), instance 0 of its
//! `HitRegistry`; each row is `C_hit`'s own gas, the receipt net of the
//! registry's `routing_gas`.
//!
//! Also prints two ablations: gas vs. number of questions N, and the
//! Istanbul (EIP-1108) vs. Byzantium precompile-price comparison.

use dragoon_chain::{gas_to_usd, GasSchedule};
use dragoon_core::workload::{generate_workload, imagenet_workload, AnswerModel};
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{MarketSim, OneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn behaviors(good: usize, bad: usize) -> Vec<WorkerBehavior> {
    let mut v = vec![WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 1.0 }); good];
    v.extend(vec![
        WorkerBehavior::Honest(AnswerModel::Diligent {
            accuracy: 0.0
        });
        bad
    ]);
    v
}

fn row(label: &str, gas: u64, paper: &str) {
    println!(
        "{:<44} {:>9}k  ${:>5.2}   (paper: {})",
        label,
        gas / 1_000,
        gas_to_usd(gas),
        paper
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x7ab1e3);
    println!("== Table III: on-chain overall handling fees (ImageNet task) ==");
    println!("   task policy: 4 workers, 106 questions, 6 gold standards, Θ=4\n");

    // Best case: all four workers are perfect — no rejections.
    let best = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: behaviors(4, 0),
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    // Worst case: all four workers fail every gold standard — the
    // requester rejects all of them with PoQoEA proofs.
    let worst = MarketSim::one_hit(OneHit {
        workload: imagenet_workload(4_000_000, &mut rng),
        behaviors: behaviors(0, 4),
        schedule: GasSchedule::istanbul(),
        block_gas_limit: None,
        seed: rng.gen(),
    })
    .run_hit();
    assert_eq!(worst.gas.rejects.len(), 4, "worst case rejects all four");
    assert!(best.gas.rejects.is_empty(), "best case rejects none");

    let submit = best.gas.submit_per_worker();
    let avg_submit = submit.iter().sum::<u64>() / submit.len() as u64;
    let avg_reject = worst.gas.rejects.iter().sum::<u64>() / worst.gas.rejects.len() as u64;

    row(
        "Publish task (by requester)",
        best.gas.publish,
        "~1293k / $0.22",
    );
    row("Submit answers (by worker)", avg_submit, "~2830k / $0.48");
    row(
        "Verify PoQoEA to reject an answer",
        avg_reject,
        "~180k / $0.03",
    );
    row(
        "Overall (best-case: reject no submission)",
        best.gas.total(),
        "~12164k / $2.09",
    );
    row(
        "Overall (worst-case: reject all submissions)",
        worst.gas.total(),
        "~12877k / $2.22",
    );
    println!(
        "\nMTurk handling fee for the same task: >= $4.00 — the decentralized\n\
         handling cost undercuts the centralized platform, the paper's headline claim."
    );
    assert!(
        gas_to_usd(worst.gas.total()) < 4.0,
        "on-chain handling must undercut MTurk's $4 fee"
    );
    assert!(worst.gas.total() > best.gas.total());

    // ---------------- Ablation A: gas vs. N ----------------
    println!("\n-- Ablation A: per-worker submit gas vs. number of questions N --");
    println!("{:>6} {:>14} {:>12}", "N", "submit gas", "USD");
    for n in [25usize, 50, 106, 200, 400] {
        let golds = 6.min(n / 4).max(1);
        let w = generate_workload(
            n,
            golds,
            4,
            golds as u64 / 2 + 1,
            PlaintextRange::binary(),
            4_000_000,
            &mut rng,
        );
        let rep = MarketSim::one_hit(OneHit {
            workload: w,
            behaviors: behaviors(4, 0),
            schedule: GasSchedule::istanbul(),
            block_gas_limit: None,
            seed: rng.gen(),
        })
        .run_hit();
        let s = rep.gas.submit_per_worker();
        let avg = s.iter().sum::<u64>() / s.len() as u64;
        println!("{:>6} {:>13}k {:>11.2}", n, avg / 1_000, gas_to_usd(avg));
    }

    // ---------------- Ablation D: point compression what-if ----------------
    println!("\n-- Ablation D: calldata under compressed (32B) vs uncompressed (64B) points --");
    let sched = GasSchedule::istanbul();
    // A reveal carries 106 ciphertexts x 2 points; compression would halve
    // the point bytes. Non-zero-byte cost dominates (random field
    // elements), so the what-if is priced from byte counts alone: it
    // needs no codec, and the library has only the 64-byte point format.
    let uncompressed_bytes = 106 * 2 * 64;
    let compressed_bytes = 106 * 2 * 32;
    let unc = sched.calldata_nonzero * uncompressed_bytes as u64;
    let cmp = sched.calldata_nonzero * compressed_bytes as u64 + 106 * 2 * 40; // ~40 gas/point EVM decompression overhead (sqrt via modexp is far more; this is the optimistic bound)
    println!(
        "  reveal calldata, uncompressed: {:>7} gas   compressed: {:>7} gas   (saves {}k of a ~2.6M tx — why the paper keeps points uncompressed)",
        unc,
        cmp,
        (unc.saturating_sub(cmp)) / 1_000
    );

    // ---------------- Ablation B: Istanbul vs Byzantium ----------------
    println!("\n-- Ablation B: gas schedule (EIP-1108 repricing) --");
    for (name, sched) in [
        ("Istanbul (paper's setting)", GasSchedule::istanbul()),
        ("Byzantium (pre-EIP-1108)", GasSchedule::byzantium()),
    ] {
        let rep = MarketSim::one_hit(OneHit {
            workload: imagenet_workload(4_000_000, &mut rng),
            behaviors: behaviors(0, 4),
            schedule: sched,
            block_gas_limit: None,
            seed: rng.gen(),
        })
        .run_hit();
        let avg_rej = rep.gas.rejects.iter().sum::<u64>() / rep.gas.rejects.len().max(1) as u64;
        println!(
            "{:<28} reject: {:>5}k gas   total: {:>7}k gas (${:.2})",
            name,
            avg_rej / 1_000,
            rep.gas.total() / 1_000,
            gas_to_usd(rep.gas.total())
        );
    }
}
