//! The four seeded market workloads.
//!
//! Every config is `MarketConfig::default()` plus the presets
//! (`PersistConfig::pipelined`, `NetConfig::default()`) with
//! struct-update, so the switch fields those presets set are never
//! spelled out here and can collapse without touching the benchmark.
//! `exec_threads` is pinned: the thread count is never taken from the
//! host or from `DRAGOON_THREADS`.

use dragoon_net::{NetConfig, PartitionWindow, RelaySpec};
use dragoon_sim::{MarketConfig, PersistConfig, ProvingConfig};
use std::path::Path;

/// Executor, verifier and proving-pool threads of every workload.
pub const EXEC_THREADS: usize = 2;

/// Blocks are never gas-congested: a cap changes who gets to commit,
/// which is a different benchmark (the gate asserts no gas fallbacks).
const GAS_CAP: u64 = 100_000_000;

/// Snapshot cadence of the pipelined store: at ~50 blocks a pass this
/// gives ~25 publishes, past the store's full rebase at every 16th.
pub const SNAPSHOT_EVERY: u64 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Imagenet,
    Micro,
    Durable,
    LossyNet,
}

/// The task shape a workload's kernels and lockstep cohorts are sized by.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub questions: usize,
    pub golds: usize,
    pub k: usize,
    pub theta: u64,
    /// HITs per lockstep cohort of the traced driver.
    pub cohort: usize,
    /// Cohorts the traced driver runs per second of `--seconds` on the
    /// reference box, leaving room for its end-to-end pass and kernels.
    pub cohorts_per_second: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Imagenet,
        Workload::Micro,
        Workload::Durable,
        Workload::LossyNet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Imagenet => "imagenet_market",
            Workload::Micro => "micro_market",
            Workload::Durable => "durable_market",
            Workload::LossyNet => "lossy_net_market",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Imagenet => {
                "paper's 106-question task: crypto-bound, 424 encryptions per requester key, chain/store/net idle"
            }
            Workload::Micro => {
                "4-question micro-tasks through the proving pool: scheduler, executor, registry and engine share peaks; single-node baseline"
            }
            Workload::Durable => {
                "micro_market on the pipelined store, then recovery: store write path under load beside the read path"
            }
            Workload::LossyNet => {
                "micro shape on a 4-node net with delay, loss, duplicates, withholding relay and a partition: replicas re-verify, reorgs revert"
            }
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::Imagenet => Shape {
                questions: 106,
                golds: 6,
                k: 4,
                theta: 4,
                cohort: 4,
                cohorts_per_second: 0.9,
            },
            _ => Shape {
                questions: 4,
                golds: 2,
                k: 3,
                theta: 2,
                cohort: 50,
                cohorts_per_second: 1.2,
            },
        }
    }

    /// HITs of one end-to-end pass, sized so a pass takes about 5 s on
    /// the 2-core reference box (see README for why these are smaller
    /// than the ISSUE-time probe sizes).
    pub fn hits(self) -> usize {
        match self {
            Workload::Imagenet => 44,
            Workload::Micro | Workload::Durable => 1300,
            Workload::LossyNet => 800,
        }
    }

    /// The market config of one pass. `hits` overrides the pass size
    /// (the smoke test runs every workload at 8); `store_dir` is where
    /// `durable_market` keeps its block store.
    pub fn config(self, seed: u64, hits: Option<usize>, store_dir: &Path) -> MarketConfig {
        let shape = self.shape();
        let hits = hits.unwrap_or_else(|| self.hits());
        let base = MarketConfig {
            hits,
            questions: shape.questions,
            golds: shape.golds,
            k: shape.k,
            theta: shape.theta,
            block_gas_limit: Some(GAS_CAP),
            exec_threads: EXEC_THREADS,
            seed,
            ..MarketConfig::default()
        };
        let micro = MarketConfig {
            spawn_per_block: 25,
            workers: (hits / 2).max(8),
            worker_capacity: 8,
            proving: ProvingConfig {
                enabled: true,
                ticks_per_kilocost: 0,
            },
            ..base.clone()
        };
        match self {
            Workload::Imagenet => MarketConfig {
                spawn_per_block: 4,
                workers: hits + 10,
                worker_capacity: 4,
                ..base
            },
            Workload::Micro => micro,
            Workload::Durable => MarketConfig {
                persist: Some(PersistConfig {
                    snapshot_every: SNAPSHOT_EVERY,
                    ..PersistConfig::pipelined(store_dir)
                }),
                ..micro
            },
            Workload::LossyNet => MarketConfig {
                net: Some(NetConfig {
                    delay: (1, 3),
                    drop_per_mille: 80,
                    duplicate_per_mille: 40,
                    fork_patience: 3,
                    relay: RelaySpec::WithholdRelease { period: 6 },
                    partitions: vec![PartitionWindow {
                        start: 20,
                        end: 32,
                        island: vec![2, 3],
                    }],
                    ..NetConfig::default()
                }),
                ..micro
            },
        }
    }
}
