//! The multi-node convergence differential: `dragoon-net`'s headline
//! guarantee.
//!
//! A market run with the network layer on drives N replicas through a
//! deterministic gossip layer with seeded delays, loss, duplicate
//! delivery, scheduled partitions and adversarial relays. After the
//! final drain, **every honest node must hold bit-identical state to
//! the single-node canonical chain of the same seed**: registry,
//! ledger (balances + event log), block receipts and contract events —
//! even when mid-run partitions or withheld blocks forced replicas onto
//! fork branches that had to be reorged away. The whole stack is also
//! pinned thread-independent: the market report JSON *and* the network
//! report JSON are byte-identical at 1 and 4 executor threads, and
//! every scenario runs at both.

use dragoon_chain::Chain;
use dragoon_contract::{HitRegistry, RegistryMessage};
use dragoon_net::{
    NetConfig, NetMsg, NetSim, PartitionWindow, RelayDecision, RelayPolicy, RelaySpec,
};
use dragoon_sim::{MarketConfig, MarketReport, MarketSim};
use proptest::prelude::*;

/// Executor thread counts the differential is pinned across — every
/// test runs at each.
const THREADS: [usize; 2] = [1, 4];

fn market(seed: u64, threads: usize, net: NetConfig) -> MarketConfig {
    MarketConfig {
        hits: 10,
        spawn_per_block: 4,
        workers: 18,
        exec_threads: threads,
        seed,
        net: Some(net),
        ..MarketConfig::default()
    }
}

fn run(cfg: MarketConfig) -> (MarketReport, Chain<HitRegistry>, NetSim<HitRegistry>) {
    finish(MarketSim::new(cfg))
}

fn finish(sim: MarketSim) -> (MarketReport, Chain<HitRegistry>, NetSim<HitRegistry>) {
    let (report, chain, net) = sim.run_keeping_net();
    (report, chain, net.expect("net configured"))
}

/// Network-level MEV, targeting flavor: block messages to the victim
/// are held back `extra` extra ticks, keeping its view of the chain
/// stale.
struct DelayVictim {
    victim: usize,
    extra: u64,
}

impl RelayPolicy<RegistryMessage> for DelayVictim {
    fn relay(
        &mut self,
        _tick: u64,
        _from: usize,
        to: usize,
        msg: &NetMsg<RegistryMessage>,
    ) -> RelayDecision {
        if to == self.victim && matches!(msg, NetMsg::Block(_)) {
            RelayDecision::Delay(self.extra)
        } else {
            RelayDecision::Forward
        }
    }
}

/// The differential itself: every node's head is the canonical tip and
/// its full replica state equals the canonical chain's.
fn assert_converged(chain: &Chain<HitRegistry>, net: &NetSim<HitRegistry>) {
    let (tip, height) = net.canonical_head();
    assert_eq!(height, chain.round(), "canonical feed covered every round");
    for i in 0..net.nodes() {
        let (head, head_height) = net.node_head(i);
        assert_eq!(head, tip, "node {i} settled on the canonical head");
        assert_eq!(head_height, height, "node {i} height");
        let replica = net.node_chain(i);
        assert_eq!(replica.round(), chain.round(), "node {i} round");
        assert!(
            replica.contract() == chain.contract(),
            "node {i} registry state diverged"
        );
        assert!(replica.ledger == chain.ledger, "node {i} ledger diverged");
        assert!(
            replica.blocks() == chain.blocks(),
            "node {i} block receipts diverged"
        );
        assert!(
            replica.events() == chain.events(),
            "node {i} contract events diverged"
        );
        assert_eq!(
            replica.ledger.total_supply(),
            chain.ledger.total_supply(),
            "node {i} escrow conservation"
        );
    }
}

/// Instant links: replicas track the canonical chain round by round —
/// no staleness, so no forks and no reorgs, and exact convergence.
#[test]
fn zero_delay_replicas_track_every_round() {
    let net_cfg = NetConfig {
        delay: (0, 0),
        ..NetConfig::default()
    };
    for threads in THREADS {
        let (report, chain, net) = run(market(0x6e31, threads, net_cfg.clone()));
        assert_converged(&chain, &net);
        let nr = report.net.expect("net report");
        assert!(nr.converged);
        assert_eq!(nr.forks_produced, 0, "nothing went stale on instant links");
        assert_eq!(nr.reorgs, 0);
    }
}

/// Lossy, delaying, duplicating links: anti-entropy still delivers
/// everything eventually, and the outcome is thread-independent.
#[test]
fn lossy_duplicating_network_converges() {
    let net_cfg = NetConfig {
        delay: (1, 4),
        drop_per_mille: 120,
        duplicate_per_mille: 80,
        ..NetConfig::default()
    };
    let mut witness: Option<(String, String)> = None;
    for threads in THREADS {
        let (report, chain, net) = run(market(0x6e32, threads, net_cfg.clone()));
        assert_converged(&chain, &net);
        let nr = report.net.as_ref().expect("net report");
        assert!(nr.converged);
        assert!(nr.messages_dropped > 0, "loss actually happened");
        assert!(nr.duplicates_delivered > 0, "duplicates actually happened");
        let jsons = (report.to_json(), report.section_json("net"));
        match &witness {
            None => witness = Some(jsons),
            Some(expected) => assert_eq!(
                *expected, jsons,
                "market + net JSON identical across thread counts"
            ),
        }
    }
}

/// A mid-run partition isolates two nodes; their patience runs out,
/// they produce fork blocks on the island, and the heal forces a real
/// reorg back onto the canonical branch — after which state is still
/// bit-identical, at both thread counts.
#[test]
fn partition_forces_forks_and_reorgs() {
    let net_cfg = NetConfig {
        delay: (1, 2),
        fork_patience: 3,
        partitions: vec![PartitionWindow {
            start: 6,
            end: 26,
            island: vec![2, 3],
        }],
        ..NetConfig::default()
    };
    let mut witness: Option<(String, String)> = None;
    for threads in THREADS {
        let (report, chain, net) = run(market(0x6e33, threads, net_cfg.clone()));
        assert_converged(&chain, &net);
        let nr = report.net.as_ref().expect("net report");
        assert!(nr.converged);
        assert!(nr.forks_produced > 0, "the island forked");
        assert!(nr.reorgs > 0, "the heal forced reorgs");
        assert!(nr.max_reorg_depth >= 1);
        let jsons = (report.to_json(), report.section_json("net"));
        match &witness {
            None => witness = Some(jsons),
            Some(expected) => assert_eq!(
                *expected, jsons,
                "market + net JSON identical across thread counts"
            ),
        }
    }
}

/// The targeting MEV adversary: block delivery to one victim is held
/// back long enough that it forks — yet it still ends bit-identical.
#[test]
fn delay_targets_adversary_still_converges() {
    let net_cfg = NetConfig {
        delay: (1, 2),
        fork_patience: 3,
        ..NetConfig::default()
    };
    for threads in THREADS {
        let relay = DelayVictim {
            victim: 1,
            extra: 10,
        };
        let sim =
            MarketSim::new(market(0x6e34, threads, net_cfg.clone())).with_relay(Box::new(relay));
        let (report, chain, net) = finish(sim);
        assert_converged(&chain, &net);
        let nr = report.net.expect("net report");
        assert!(nr.converged);
        assert!(nr.forks_produced > 0, "the starved victim forked");
        assert!(nr.reorgs > 0, "late blocks forced the victim to reorg");
    }
}

/// The withhold-and-release MEV adversary: the sequencer's blocks reach
/// the replicas only in periodic bursts; between bursts every replica
/// is blind, forks, and each burst reorgs them back. Still exact.
#[test]
fn withhold_release_adversary_forces_reorgs() {
    let net_cfg = NetConfig {
        delay: (1, 2),
        fork_patience: 3,
        relay: RelaySpec::WithholdRelease { period: 8 },
        ..NetConfig::default()
    };
    for threads in THREADS {
        let (report, chain, net) = run(market(0x6e35, threads, net_cfg.clone()));
        assert_converged(&chain, &net);
        let nr = report.net.expect("net report");
        assert!(nr.converged);
        assert!(nr.forks_produced > 0, "starved replicas forked");
        assert!(nr.reorgs > 0, "each burst forced reorgs");
    }
}

/// Strategy for random topology soups: node count in {2, 4, 7}, random
/// delay spread, loss and duplication rates, and one random partition
/// window isolating the highest-indexed node.
fn net_soup() -> impl Strategy<Value = NetConfig> {
    (0usize..3, 0u64..3, 0u32..180, 0u32..120, 4u64..16, 2u64..6).prop_map(
        |(sel, delay_min, drop, dup, part_start, patience)| {
            let nodes = [2usize, 4, 7][sel];
            NetConfig {
                nodes,
                delay: (delay_min, delay_min + 2),
                drop_per_mille: drop,
                duplicate_per_mille: dup,
                partitions: vec![PartitionWindow {
                    start: part_start,
                    end: part_start + 12,
                    island: vec![nodes - 1],
                }],
                fork_patience: patience,
                ..NetConfig::default()
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random topology soups: whatever the link faults, partition
    /// schedule and patience, every node converges to the canonical
    /// state and escrow is conserved — at both thread counts.
    #[test]
    fn random_topology_soups_converge(net_cfg in net_soup(), seed in 0u64..1_000) {
        let mut witness: Option<(String, String)> = None;
        for threads in THREADS {
            let cfg = MarketConfig {
                hits: 5,
                spawn_per_block: 3,
                workers: 12,
                exec_threads: threads,
                seed: 0x6e37_0000 + seed,
                net: Some(net_cfg.clone()),
                ..MarketConfig::default()
            };
            let (report, chain, net) = run(cfg);
            assert_converged(&chain, &net);
            prop_assert!(report.net.as_ref().expect("net report").converged);
            let jsons = (report.to_json(), report.section_json("net"));
            match &witness {
                None => witness = Some(jsons),
                Some(expected) => prop_assert_eq!(expected, &jsons),
            }
        }
    }
}
