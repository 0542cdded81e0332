//! Parallel-execution equivalence: the differential suite for the
//! optimistic parallel block executor.
//!
//! The executor's contract is absolute: committed state — receipts,
//! contract events, ledger balances and event log, registry state,
//! mempool carry-over, whole-market report JSON — is **bit-identical to
//! serial execution for every thread count**. Every chain-level case
//! runs production at 1, 2 and 8 threads against the one naïve serial
//! reference executor in `tests/support`; the whole-market cases compare
//! reports across thread counts. These tests pin that property across:
//!
//! * random transaction soups (proptest-driven) at 1, 2 and 8 threads,
//!   including Create-dominated soups (every `Create` a serial barrier),
//! * full multi-instance lifecycles where disjoint instances genuinely
//!   execute in parallel (stats prove optimistic batches committed),
//! * adversarial same-instance contention (everything must fall back to
//!   serial re-execution in mempool order),
//! * cross-instance ledger conflicts (instances paying the same worker
//!   in one block — the journal touch records must catch them and send
//!   the batch to the serial backstop),
//! * creations as serial barriers: a route to the id a `Create` of the
//!   same block receives, reverted creations (the id assignment shifts)
//!   and same-sender creations,
//! * mid-batch block-gas overflow (group-closed prefix commit or serial
//!   fallback — carry-over must match serial), and
//! * whole-market runs under FIFO and front-running schedulers.

mod support;

use dragoon_chain::{FifoPolicy, FrontRunPolicy, TxStatus};
use dragoon_contract::{HitMessage, RegistryMessage, SettlementMode};
use dragoon_core::poqoea::{self, QualityProof};
use dragoon_core::task::Answer;
use dragoon_crypto::commitment::{Commitment, CommitmentKey};
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_ledger::Address;
use dragoon_protocol::worker_addr;
use dragoon_sim::{run_market, MarketConfig, MarketReport, MarketSim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{ChainSet, Fixture, BUDGET};

/// Executor thread counts of every set's production chains; each is
/// compared against the serial reference (`support::RefChain`).
const THREADS: [usize; 3] = [1, 2, 8];

/// Advances every production chain one FIFO round through the parallel
/// entry point (the serial path at one thread), and the reference
/// through its own loop.
fn advance_all(set: &mut ChainSet) {
    for chain in &mut set.production {
        chain.advance_round_parallel(&mut FifoPolicy);
    }
    set.reference.run_round(&mut FifoPolicy);
}

/// The `Create` transactions a chain executed (receipts labelled
/// `publish`) — each one a serial barrier of the parallel executor.
fn creates_executed(chain: &dragoon_chain::Chain<dragoon_contract::HitRegistry>) -> usize {
    chain.receipts().filter(|r| r.label == "publish").count()
}

/// Drives `count` instances with per-instance worker pools through
/// commit and reveal, in interleaved blocks so every block carries
/// transactions for many disjoint instances. Returns each instance's
/// workers and their encrypted answers.
#[allow(clippy::type_complexity)]
fn drive_to_evaluate(
    fx: &Fixture,
    set: &mut ChainSet,
    rng: &mut StdRng,
    count: u64,
    shared_workers: &[(u8, Address)],
) -> Vec<(Vec<Address>, Vec<dragoon_core::task::EncryptedAnswer>)> {
    for _ in 0..count {
        set.submit(fx.requester, fx.create_msg());
    }
    advance_all(set);
    let good = Answer(vec![1, 0, 0, 0, 1, 0]);
    let bad = Answer(vec![0, 0, 1, 0, 0, 0]);
    let mut per_hit = Vec::new();
    // Commits: interleaved across instances within the same block.
    let mut commits: Vec<(Address, RegistryMessage)> = Vec::new();
    let mut keys = Vec::new();
    for id in 0..count {
        // Disjoint worker pools by default; each `(slot, worker)` of
        // `shared_workers` pins that slot of *every* instance to the same
        // worker to force cross-group ledger contention at settlement.
        let workers: Vec<Address> = (1..=3u8)
            .map(|j| {
                shared_workers
                    .iter()
                    .find(|(slot, _)| *slot == j)
                    .map(|(_, w)| *w)
                    .unwrap_or_else(|| Address::from_byte(10 + (id as u8) * 3 + j))
            })
            .collect();
        let answers = [bad.clone(), good.clone(), good.clone()];
        let mut cts = Vec::new();
        let mut hit_keys = Vec::new();
        for (w, a) in workers.iter().zip(&answers) {
            let enc = a.encrypt(&fx.kp.ek, rng);
            let key = CommitmentKey::random(rng);
            let comm = Commitment::commit(&enc.encode(), &key);
            commits.push((
                *w,
                RegistryMessage::Hit {
                    id,
                    msg: HitMessage::Commit { commitment: comm },
                },
            ));
            cts.push(enc);
            hit_keys.push(key);
        }
        per_hit.push((workers, cts));
        keys.push(hit_keys);
    }
    for (sender, msg) in commits {
        set.submit(sender, msg);
    }
    advance_all(set);
    set.assert_same("commit block");
    // Reveals, likewise interleaved.
    for (id, ((workers, cts), hit_keys)) in per_hit.iter().zip(&keys).enumerate() {
        for ((w, enc), key) in workers.iter().zip(cts).zip(hit_keys) {
            set.submit(
                *w,
                RegistryMessage::Hit {
                    id: id as u64,
                    msg: HitMessage::Reveal {
                        ciphertexts: enc.clone(),
                        key: *key,
                    },
                },
            );
        }
    }
    advance_all(set);
    set.assert_same("reveal block");
    // Close the reveal window.
    advance_all(set);
    advance_all(set);
    // Open gold standards on every instance in one block.
    for id in 0..count {
        set.submit(
            fx.requester,
            RegistryMessage::Hit {
                id,
                msg: HitMessage::Golden {
                    golden: fx.golden.clone(),
                    key: fx.gs_key,
                },
            },
        );
    }
    advance_all(set);
    set.assert_same("golden block");
    per_hit
}

/// Full multi-instance lifecycle: four disjoint instances running
/// commit → reveal → golden → PoQoEA rejection → deadline settlement,
/// with every phase's transactions interleaved across instances in the
/// same blocks. The serial reference and the 1-, 2- and 8-thread
/// executors must agree bit-for-bit, and the multi-threaded chains must actually
/// have committed optimistic batches (this workload has no conflicts).
#[test]
fn multi_instance_lifecycle_parallel_equals_serial() {
    let fx = Fixture::new(0x9a7a);
    let mut rng = StdRng::seed_from_u64(0x9a7a ^ 1);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let per_hit = drive_to_evaluate(&fx, &mut set, &mut rng, 4, &[]);
    // Reject each instance's low-quality worker 0 — all four PoQoEA
    // verifications land in the same block, one per instance, executing
    // concurrently on the multi-threaded chains.
    for (id, (workers, cts)) in per_hit.iter().enumerate() {
        let (chi, proof) = poqoea::prove_quality(
            &fx.kp.dk,
            &cts[0],
            &fx.golden,
            &PlaintextRange::binary(),
            &mut rng,
        );
        assert!(chi < 3);
        set.submit(
            fx.requester,
            RegistryMessage::Hit {
                id: id as u64,
                msg: HitMessage::Evaluate {
                    worker: workers[0],
                    chi,
                    proof,
                },
            },
        );
    }
    advance_all(&mut set);
    set.assert_same("evaluate block");
    for round in 0..6 {
        advance_all(&mut set);
        set.assert_same(&format!("settlement round {round}"));
    }
    for id in 0..4 {
        assert!(set.production[0].contract().hit(id).unwrap().is_settled());
    }
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert!(
            stats.batches > 0 && stats.parallel_txs > 0,
            "{threads} threads: no optimistic batch ever committed ({stats:?})"
        );
        assert_eq!(
            stats.conflict_fallbacks, 0,
            "{threads} threads: disjoint instances must not conflict"
        );
    }
}

/// Inline payments across disjoint instances in one block: a bogus
/// PoQoEA (χ=0, empty proof) backfires and pays the worker immediately,
/// so each group's shadow ledger carries real balance writes and `Paid`
/// events that must merge back in schedule order.
#[test]
fn parallel_inline_payments_merge_exactly() {
    let fx = Fixture::new(0x6e4d);
    let mut rng = StdRng::seed_from_u64(0x6e4d ^ 1);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let per_hit = drive_to_evaluate(&fx, &mut set, &mut rng, 3, &[]);
    for (id, (workers, _)) in per_hit.iter().enumerate() {
        set.submit(
            fx.requester,
            RegistryMessage::Hit {
                id: id as u64,
                msg: HitMessage::Evaluate {
                    worker: workers[1],
                    chi: 0,
                    proof: QualityProof::default(),
                },
            },
        );
    }
    advance_all(&mut set);
    set.assert_same("backfired evaluate block");
    // The backfired rejections paid each instance's worker 1 inline.
    for (workers, _) in &per_hit {
        assert_eq!(
            set.production[0].ledger.balance(&workers[1]),
            100 + BUDGET / 3
        );
    }
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert!(stats.batches > 0, "{threads} threads: {stats:?}");
        assert_eq!(stats.conflict_fallbacks, 0, "{threads} threads: {stats:?}");
    }
}

/// Conflict injection, cross-instance flavor: every instance enrolls the
/// *same* worker, and one block carries a backfired evaluation (an
/// inline payment to that worker) for each instance. The declared access
/// sets name the shared worker only as a *read* (the payment is
/// outcome-dependent), so the grouper leaves the instances parallel and
/// the observed write-write overlap on the worker's balance entry must
/// be caught by the validation pass: the batch's optimistic results are
/// dropped and it re-executes through the serial backstop, once.
#[test]
fn shared_worker_payments_fall_back_to_serial() {
    let fx = Fixture::new(0xc04f);
    let mut rng = StdRng::seed_from_u64(0xc04f ^ 1);
    let shared = Address::from_byte(40);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let per_hit = drive_to_evaluate(&fx, &mut set, &mut rng, 3, &[(1, shared)]);
    for (id, (workers, _)) in per_hit.iter().enumerate() {
        assert_eq!(workers[0], shared);
        set.submit(
            fx.requester,
            RegistryMessage::Hit {
                id: id as u64,
                msg: HitMessage::Evaluate {
                    worker: shared,
                    chi: 0,
                    proof: QualityProof::default(),
                },
            },
        );
    }
    advance_all(&mut set);
    set.assert_same("conflicting payment block");
    // All three instances paid the same worker BUDGET/3 each.
    assert_eq!(
        set.production[0].ledger.balance(&shared),
        100 + 3 * (BUDGET / 3)
    );
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            stats.conflict_fallbacks, 1,
            "{threads} threads: overlapping touch records must send the one \
             offending batch to the serial backstop ({stats:?})"
        );
        assert!(
            stats.batches > 0,
            "{threads} threads: the conflict-free blocks before it must still \
             commit optimistically ({stats:?})"
        );
    }
    // The serial re-execution preserves mempool order.
    let evaluate_seqs: Vec<u64> = set.production[2]
        .receipts()
        .filter(|r| r.label == "evaluate")
        .map(|r| r.seq)
        .collect();
    let mut sorted = evaluate_seqs.clone();
    sorted.sort_unstable();
    assert_eq!(evaluate_seqs, sorted, "backstop must keep mempool order");
}

/// Repeated cross-group ledger conflicts: two workers are shared across
/// every instance, and two consecutive blocks each carry one backfired
/// evaluation per instance targeting the block's shared worker. Every
/// conflicting block must take the serial backstop (the conflict
/// repeats), exactly once each, and state must stay bit-identical
/// throughout.
#[test]
fn repeated_cross_group_conflicts_fall_back_each_block() {
    let fx = Fixture::new(0x2e7a);
    let mut rng = StdRng::seed_from_u64(0x2e7a ^ 1);
    let shared_a = Address::from_byte(40);
    let shared_b = Address::from_byte(39);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let per_hit = drive_to_evaluate(&fx, &mut set, &mut rng, 3, &[(1, shared_a), (2, shared_b)]);
    for (round, shared) in [shared_a, shared_b].into_iter().enumerate() {
        for (id, (workers, _)) in per_hit.iter().enumerate() {
            assert!(workers.contains(&shared));
            set.submit(
                fx.requester,
                RegistryMessage::Hit {
                    id: id as u64,
                    msg: HitMessage::Evaluate {
                        worker: shared,
                        chi: 0,
                        proof: QualityProof::default(),
                    },
                },
            );
        }
        advance_all(&mut set);
        set.assert_same(&format!("conflict round {round}"));
    }
    // Both shared workers were paid by all three instances.
    for shared in [shared_a, shared_b] {
        assert_eq!(
            set.production[0].ledger.balance(&shared),
            100 + 3 * (BUDGET / 3)
        );
    }
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            stats.conflict_fallbacks, 2,
            "{threads} threads: each conflicting block must fall back once ({stats:?})"
        );
    }
}

/// Conflict injection, hot-instance flavor: every worker hammers the one
/// HIT in the block, with duplicate commitments and overbooked slots.
/// A single-instance batch is inherently sequential — all transactions
/// must go through serial execution in mempool order, no optimistic
/// batch may commit, and no journal state may leak across threads
/// (state equality plus the journal's own stale-undo debug assertions
/// police the latter).
#[test]
fn hot_instance_contention_all_serial_in_mempool_order() {
    let fx = Fixture::new(0x407);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    set.submit(fx.requester, fx.create_msg());
    advance_all(&mut set);
    // Ten workers race for k = 3 slots; worker 7 copies worker 1's
    // commitment (DuplicateCommitment), everyone past the quota reverts
    // with TaskFull.
    for w in 1..=10u8 {
        let tag = if w == 7 { 1 } else { w };
        let key = CommitmentKey([7u8; 32]);
        let comm = Commitment::commit(&[tag], &key);
        set.submit(
            Address::from_byte(w),
            RegistryMessage::Hit {
                id: 0,
                msg: HitMessage::Commit { commitment: comm },
            },
        );
    }
    advance_all(&mut set);
    set.assert_same("hot instance block");
    let reverted = set.production[0]
        .receipts()
        .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
        .count();
    assert!(
        reverted >= 7,
        "contention must produce reverts ({reverted})"
    );
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            stats.batches, 0,
            "{threads} threads: a single hot instance must not batch ({stats:?})"
        );
        assert_eq!(stats.parallel_txs, 0, "{threads} threads: {stats:?}");
        assert!(stats.serial_txs >= 11, "{threads} threads: {stats:?}");
        // Serial re-execution order is mempool order: seq strictly
        // ascending under FIFO.
        let seqs: Vec<u64> = chain.receipts().map(|r| r.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(
            seqs, sorted,
            "{threads} threads: order must be mempool order"
        );
    }
}

/// Gas-cap block overflow under the parallel executor, straddling
/// flavor: the six commits *alternate* instances, so both groups hold
/// transactions on each side of the gas cut and no group-closed prefix
/// can commit. The executor must detect the cut against the
/// schedule-ordered receipts, discard the optimistic results and fall
/// back to serial execution so the carry-over (and every later block)
/// matches the serial chain exactly.
#[test]
fn gas_cap_overflow_rollback_parallel_equals_serial() {
    let fx = Fixture::new(0x9a5);
    // ~46k gas per commit: a 100k block fits two.
    let mut set = fx.chain_set(SettlementMode::PerProof, Some(100_000), &THREADS);
    set.submit(fx.requester, fx.create_msg());
    set.submit(fx.requester, fx.create_msg());
    // Creates cost ~1.3M each — let them land in unlimited-size blocks
    // first? No: the cap applies from round one, so each block carries
    // one oversized create alone (also exercised under parallelism).
    advance_all(&mut set);
    advance_all(&mut set);
    set.assert_same("create blocks under cap");
    assert_eq!(set.production[0].contract().len(), 2);
    // Six commits, alternating instances: the parallel batch spans both
    // groups, but only two commits fit per block.
    for w in 1..=6u8 {
        let key = CommitmentKey([w; 32]);
        let comm = Commitment::commit(&[w], &key);
        set.submit(
            Address::from_byte(w),
            RegistryMessage::Hit {
                id: (w % 2) as u64,
                msg: HitMessage::Commit { commitment: comm },
            },
        );
    }
    for round in 0..4 {
        advance_all(&mut set);
        set.assert_same(&format!("overflow round {round}"));
    }
    assert_eq!(
        set.production[0].mempool_len(),
        0,
        "all commits eventually landed"
    );
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert!(
            stats.gas_fallbacks >= 1,
            "{threads} threads: the straddled cut batch must fall back ({stats:?})"
        );
    }
}

/// Gas-cap block overflow, group-aligned flavor: two commits per
/// instance, instance-contiguous in the mempool, so the gas cut falls
/// exactly on a group boundary. The executor must commit the first
/// group's optimistic results as the block prefix and re-execute only
/// the cut suffix serially — bit-identical to the serial chain's
/// carry-over, with the full-batch gas fallback staying cold.
#[test]
fn gas_cut_commits_group_closed_prefix() {
    let fx = Fixture::new(0x9a6);
    // ~46k gas per commit: a 100k block fits two — exactly instance 0's
    // group.
    let mut set = fx.chain_set(SettlementMode::PerProof, Some(100_000), &THREADS);
    set.submit(fx.requester, fx.create_msg());
    set.submit(fx.requester, fx.create_msg());
    advance_all(&mut set);
    advance_all(&mut set);
    set.assert_same("create blocks under cap");
    assert_eq!(set.production[0].contract().len(), 2);
    // Four commits, instance-contiguous: the batch spans two groups of
    // two commits each, and the block fits the first group exactly.
    for w in 1..=4u8 {
        let key = CommitmentKey([w; 32]);
        let comm = Commitment::commit(&[w], &key);
        set.submit(
            Address::from_byte(w),
            RegistryMessage::Hit {
                id: ((w - 1) / 2) as u64,
                msg: HitMessage::Commit { commitment: comm },
            },
        );
    }
    for round in 0..3 {
        advance_all(&mut set);
        set.assert_same(&format!("prefix-cut round {round}"));
    }
    assert_eq!(
        set.production[0].mempool_len(),
        0,
        "all commits eventually landed"
    );
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert!(
            stats.gas_prefix_commits >= 1,
            "{threads} threads: the fitting group must commit as the \
             block prefix ({stats:?})"
        );
        assert_eq!(
            stats.gas_fallbacks, 0,
            "{threads} threads: a group-aligned cut must not discard \
             the batch ({stats:?})"
        );
    }
}

/// Creation-heavy blocks: every `Create` is a serial barrier that runs
/// alone against full state, and the routed traffic around it is
/// attributed against the registry the barrier updated. State must stay
/// bit-identical (ids, derived addresses, escrow balances, `Created`
/// event order), and a run of routed messages to distinct instances
/// after a round's creations — the engine's shape — still batches.
#[test]
fn create_dominated_block_runs_creates_as_barriers() {
    let fx = Fixture::new(0xcafe);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let creators: Vec<Address> = (0..8u8).map(|i| Address::from_byte(0xa0 + i)).collect();
    for c in &creators {
        set.mint(*c, BUDGET * 4);
    }
    let commit = |set: &mut ChainSet, worker: u8, tag: u8, id: u64| {
        let key = CommitmentKey([tag; 32]);
        let comm = Commitment::commit(&[tag], &key);
        set.submit(
            Address::from_byte(worker),
            RegistryMessage::Hit {
                id,
                msg: HitMessage::Commit { commitment: comm },
            },
        );
    };
    // Block 1: eight concurrent creations, nothing else.
    for c in &creators {
        set.submit(*c, fx.create_msg());
    }
    advance_all(&mut set);
    set.assert_same("create-only block");
    assert_eq!(set.production[0].contract().len(), 8);
    // Block 2: creations interleaved with commits to the fresh ids —
    // every commit sits alone between two barriers.
    for (i, c) in creators.iter().enumerate() {
        set.submit(*c, fx.create_msg());
        commit(&mut set, i as u8 + 1, i as u8 + 1, i as u64);
    }
    advance_all(&mut set);
    set.assert_same("mixed create/commit block");
    assert_eq!(set.production[0].contract().len(), 16);
    // Block 3: the engine's order — the round's creations first, then
    // commits to eight distinct instances, which form one batch.
    for c in &creators {
        set.submit(*c, fx.create_msg());
    }
    for i in 0..8u8 {
        commit(&mut set, i + 1, i + 9, 8 + i as u64);
    }
    advance_all(&mut set);
    set.assert_same("creates-then-commits block");
    assert_eq!(set.production[0].contract().len(), 24);
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            stats.barriers,
            creates_executed(chain),
            "{threads} threads: every creation is a barrier ({stats:?})"
        );
        assert_eq!(
            (stats.barriers, stats.serial_txs),
            (24, 32),
            "{threads} threads: 24 barriers plus block 2's eight lone \
             commits run serially ({stats:?})"
        );
        assert_eq!(
            (stats.batches, stats.groups, stats.parallel_txs),
            (1, 8, 8),
            "{threads} threads: block 3's commits batch ({stats:?})"
        );
        assert_eq!(stats.conflict_fallbacks, 0, "{threads} threads: {stats:?}");
    }
}

/// A route to the id a `Create` of the same block receives: the barrier
/// registers the instance before the routed commits after it are
/// attributed, so they land (no `UnknownHit`) and batch with traffic to
/// an older instance, bit-identical to serial at every thread count.
#[test]
fn route_to_a_same_block_create_matches_serial() {
    let fx = Fixture::new(0xb10c);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    set.submit(fx.requester, fx.create_msg());
    advance_all(&mut set);
    set.assert_same("first create block");
    // Instance 1 does not exist when this block is scheduled.
    set.submit(fx.requester, fx.create_msg());
    for (w, id) in [(1u8, 1u64), (2, 0), (3, 1)] {
        let key = CommitmentKey([w; 32]);
        let comm = Commitment::commit(&[w], &key);
        set.submit(
            Address::from_byte(w),
            RegistryMessage::Hit {
                id,
                msg: HitMessage::Commit { commitment: comm },
            },
        );
    }
    advance_all(&mut set);
    set.assert_same("create-then-route block");
    assert_eq!(set.production[0].contract().hit_ids(), [0, 1]);
    for (chain, threads) in set.production.iter().zip(THREADS) {
        let landed = chain
            .receipts()
            .filter(|r| r.label == "commit" && !matches!(r.status, TxStatus::Reverted(_)))
            .count();
        assert_eq!(landed, 3, "{threads} threads: every commit lands");
    }
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            (
                stats.barriers,
                stats.batches,
                stats.groups,
                stats.parallel_txs
            ),
            (2, 1, 2, 3),
            "{threads} threads: two creations, then one two-group batch ({stats:?})"
        );
        assert_eq!(stats.conflict_fallbacks, 0, "{threads} threads: {stats:?}");
    }
}

/// Same-sender spawns: six `Create` transactions from **one** funded
/// requester in one block. Each is a serial barrier, so they run in
/// mempool order against full state — no batch, nothing to validate,
/// nothing to fall back from.
#[test]
fn same_sender_creates_run_as_barriers() {
    let fx = Fixture::new(0x5a5a);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    // chain_set funds the requester with BUDGET * 20; six creations
    // freeze 6 × BUDGET, comfortably inside the balance.
    for _ in 0..6 {
        set.submit(fx.requester, fx.create_msg());
    }
    advance_all(&mut set);
    set.assert_same("same-sender create block");
    assert_eq!(set.production[0].contract().len(), 6);
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            (stats.batches, stats.groups, stats.serial_txs),
            (0, 0, 6),
            "{threads} threads: same-sender spawns are six barriers, \
             which run serially ({stats:?})"
        );
        assert_eq!(stats.conflict_fallbacks, 0, "{threads} threads: {stats:?}");
        assert_eq!(stats.barriers, 6, "{threads} threads: {stats:?}");
        assert_eq!(stats.barriers, creates_executed(chain), "{threads} threads");
    }
}

/// Same-sender spawns that *overdraw*: the sender holds funds for three
/// of six creations. The six are barriers, so they run in mempool order
/// and the balance depletes exactly as it does serially. State must end
/// bit-identical to serial: ids 0–2 created, three reverts.
#[test]
fn same_sender_create_overdraft_matches_serial() {
    let fx = Fixture::new(0x0d5a);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let spender = Address::from_byte(0x77);
    set.mint(spender, BUDGET * 3);
    for _ in 0..6 {
        set.submit(spender, fx.create_msg());
    }
    advance_all(&mut set);
    set.assert_same("overdraft create block");
    assert_eq!(
        set.production[0].contract().len(),
        3,
        "exactly the funded three"
    );
    assert_eq!(set.production[0].ledger.balance(&spender), 0);
    let reverted = set.production[0]
        .receipts()
        .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
        .count();
    assert_eq!(reverted, 3);
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            stats.conflict_fallbacks, 0,
            "{threads} threads: barriers never speculate, so the reverts \
             need no backstop ({stats:?})"
        );
    }
}

/// A creation that *reverts* (unfunded requester) shifts the serial id
/// assignment of everything after it. Each creation is a barrier that
/// runs against the counter the one before it left, so the chain ends
/// bit-identical to serial, including the ids later successful
/// creations receive, without any batch to validate.
#[test]
fn reverted_create_keeps_serial_id_assignment() {
    let fx = Fixture::new(0xdead);
    let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
    let funded = Address::from_byte(0xa1);
    set.mint(funded, BUDGET * 4);
    // Funded, broke, funded: the middle creation reverts, shifting the
    // serial id assignment of the third one.
    set.submit(fx.requester, fx.create_msg());
    set.submit(Address::from_byte(0x99), fx.create_msg());
    set.submit(funded, fx.create_msg());
    advance_all(&mut set);
    set.assert_same("reverted-create block");
    assert_eq!(
        set.production[0].contract().len(),
        2,
        "two creations landed"
    );
    let reverted = set.production[0]
        .receipts()
        .filter(|r| matches!(r.status, TxStatus::Reverted(_)))
        .count();
    assert_eq!(reverted, 1);
    assert_eq!(set.production[0].contract().hit_ids(), [0, 1]);
    for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
        let stats = chain.parallel_stats();
        assert_eq!(
            (stats.barriers, stats.serial_txs, stats.batches),
            (3, 3, 0),
            "{threads} threads: three creations, three barriers ({stats:?})"
        );
        assert_eq!(stats.barriers, creates_executed(chain), "{threads} threads");
        assert_eq!(
            stats.conflict_fallbacks, 0,
            "{threads} threads: a reverted barrier needs no backstop ({stats:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random transaction soups: valid creates, racing commits,
    /// premature finalizes/cancels, unknown-instance routes, wrong-phase
    /// goldens — most reverting, many instance-addressed (so the
    /// multi-threaded chains build real optimistic batches). Proptest
    /// drives the shape; every round must leave all three chains
    /// bit-identical to the reference.
    #[test]
    fn random_soups_parallel_equals_serial(
        ops in proptest::collection::vec((0u32..7, 0u64..8, 1u32..200), 12..40),
    ) {
        let fx = Fixture::new(0x50a1);
        let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
        for (round, window) in ops.chunks(5).enumerate() {
            for &(kind, id_sel, tag) in window {
                let created = set.production[0].contract().len() as u64;
                match kind {
                    0 => set.submit(fx.requester, fx.create_msg()),
                    1 => set.submit(Address::from_byte(0x99), fx.create_msg()),
                    2 | 3 if created > 0 => {
                        let id = id_sel % created;
                        let w = Address::from_byte((tag % 12 + 1) as u8);
                        // Every third tag reuses a payload — the
                        // copy-and-paste duplicate-commitment defence.
                        let tag = if tag % 3 == 0 { 0 } else { tag };
                        let key = CommitmentKey([7u8; 32]);
                        let comm = Commitment::commit(&tag.to_le_bytes(), &key);
                        set.submit(w, RegistryMessage::Hit {
                            id,
                            msg: HitMessage::Commit { commitment: comm },
                        });
                    }
                    4 if created > 0 => {
                        let id = id_sel % created;
                        set.submit(fx.requester, RegistryMessage::Hit {
                            id,
                            msg: HitMessage::Finalize,
                        });
                    }
                    5 => {
                        set.submit(fx.requester, RegistryMessage::Hit {
                            id: 999,
                            msg: HitMessage::Finalize,
                        });
                    }
                    _ => {
                        let id = id_sel % created.max(1);
                        set.submit(fx.requester, RegistryMessage::Hit {
                            id,
                            msg: HitMessage::Golden {
                                golden: fx.golden.clone(),
                                key: fx.gs_key,
                            },
                        });
                    }
                }
            }
            advance_all(&mut set);
            set.assert_same(&format!("soup round {round}"));
        }
    }

    /// Create-dominated soups: roughly half of every round's mempool is
    /// a funded `Create` from a rotating pool of requesters, the rest
    /// commits and finalizes against the ids created so far. Every
    /// `Create` is a barrier and every route names an existing id, so the
    /// barriers are exactly the creations; state stays bit-identical
    /// across thread counts.
    #[test]
    fn create_dominated_soups_parallel_equals_serial(
        ops in proptest::collection::vec((0u32..8, 0u64..8, 1u32..200), 12..32),
    ) {
        let fx = Fixture::new(0x5ba1);
        let mut set = fx.chain_set(SettlementMode::PerProof, None, &THREADS);
        let creators: Vec<Address> = (0..6u8).map(|i| Address::from_byte(0xa0 + i)).collect();
        for c in &creators {
            set.mint(*c, BUDGET * 40);
        }
        for (round, window) in ops.chunks(4).enumerate() {
            for &(kind, id_sel, tag) in window {
                let created = set.production[0].contract().len() as u64;
                match kind {
                    // Half the operation space spawns new instances.
                    0..=3 => {
                        let creator = creators[(tag as usize) % creators.len()];
                        set.submit(creator, fx.create_msg());
                    }
                    4 | 5 if created > 0 => {
                        let id = id_sel % created;
                        let w = Address::from_byte((tag % 12 + 1) as u8);
                        let key = CommitmentKey([3u8; 32]);
                        let comm = Commitment::commit(&tag.to_le_bytes(), &key);
                        set.submit(w, RegistryMessage::Hit {
                            id,
                            msg: HitMessage::Commit { commitment: comm },
                        });
                    }
                    6 if created > 0 => {
                        let id = id_sel % created;
                        set.submit(fx.requester, RegistryMessage::Hit {
                            id,
                            msg: HitMessage::Finalize,
                        });
                    }
                    _ => {
                        let creator = creators[(id_sel as usize) % creators.len()];
                        set.submit(creator, fx.create_msg());
                    }
                }
            }
            advance_all(&mut set);
            set.assert_same(&format!("create soup round {round}"));
        }
        assert!(set.production[0].contract().len() >= 6, "soup must actually spawn");
        for (chain, threads) in set.production.iter().zip(THREADS).skip(1) {
            let stats = chain.parallel_stats();
            assert_eq!(
                stats.barriers,
                creates_executed(chain),
                "{threads} threads: the barriers are the creations ({stats:?})"
            );
            assert_eq!(stats.conflict_fallbacks, 0, "{threads} threads: {stats:?}");
        }
    }
}

/// Whole-market differential: the same seeded marketplace — batched
/// settlement, gas caps, worker noise, rejections, cancellations — must
/// produce byte-identical report JSON at 1, 2 and 8 executor threads.
#[test]
fn market_report_identical_across_thread_counts() {
    let base = MarketConfig {
        hits: 24,
        spawn_per_block: 6,
        workers: 25,
        worker_capacity: 4,
        seed: 0x10a2,
        exec_threads: 1,
        ..MarketConfig::default()
    };
    let serial = run_market(base.clone());
    assert_eq!(serial.hits_published, 24);
    for threads in [2, 8] {
        let parallel = run_market(MarketConfig {
            exec_threads: threads,
            ..base.clone()
        });
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "market reports must be identical at {threads} threads"
        );
    }
}

/// The same market differential with inline (per-proof) settlement —
/// the mode where verification cost sits inside the transactions the
/// executor parallelizes — under a front-running scheduler.
#[test]
fn market_report_per_proof_front_run_identical() {
    let base = MarketConfig {
        hits: 15,
        workers: 20,
        overbook: 2,
        settlement: SettlementMode::PerProof,
        seed: 0xab2,
        exec_threads: 1,
        ..MarketConfig::default()
    };
    let front_run = |config: MarketConfig| -> MarketReport {
        MarketSim::new(config)
            .with_policy(Box::new(FrontRunPolicy::new(worker_addr(0))))
            .run()
    };
    let serial = front_run(base.clone());
    let parallel = front_run(MarketConfig {
        exec_threads: 8,
        ..base
    });
    assert_eq!(serial.to_json(), parallel.to_json());
    assert!(serial.reverted_txs > 0, "overbooking must cause reverts");
}

/// The pipelined block lifecycle is a pure performance change: the same
/// seeded market with persistence fully pipelined (background writer,
/// incremental snapshots, log compaction, overlapped settlement
/// verification) must produce byte-identical report JSON to the
/// synchronous full-snapshot store — and to no persistence at all — at
/// serial and parallel widths.
#[test]
fn market_report_identical_with_pipelined_persistence() {
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!("dragoon-pipeeq-{}-{tag}", std::process::id()))
    };
    let base = MarketConfig {
        hits: 24,
        spawn_per_block: 6,
        workers: 25,
        worker_capacity: 4,
        seed: 0x10a2,
        exec_threads: 1,
        ..MarketConfig::default()
    };
    let in_memory = run_market(base.clone());
    for threads in [1usize, 4] {
        let sync_dir = scratch(&format!("sync{threads}"));
        let pipe_dir = scratch(&format!("pipe{threads}"));
        let sync = run_market(MarketConfig {
            exec_threads: threads,
            persist: Some(dragoon_sim::PersistConfig {
                snapshot_every: 4,
                ..dragoon_sim::PersistConfig::new(sync_dir.clone())
            }),
            ..base.clone()
        });
        let piped = run_market(MarketConfig {
            exec_threads: threads,
            persist: Some(dragoon_sim::PersistConfig {
                snapshot_every: 4,
                ..dragoon_sim::PersistConfig::pipelined(pipe_dir.clone())
            }),
            ..base.clone()
        });
        assert_eq!(
            sync.to_json(),
            piped.to_json(),
            "pipelining must not change the report at {threads} threads"
        );
        assert_eq!(
            in_memory.to_json(),
            piped.to_json(),
            "persistence must not change the report at {threads} threads"
        );
        let stats = piped
            .persist
            .expect("pipelined run must report store stats");
        assert!(
            stats.delta_snapshots > 0 && stats.compactions > 0,
            "the pipelined store must actually exercise the pipeline: {stats:?}"
        );
        let _ = std::fs::remove_dir_all(&sync_dir);
        let _ = std::fs::remove_dir_all(&pipe_dir);
    }
}
