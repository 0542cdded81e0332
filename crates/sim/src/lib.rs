//! # dragoon-sim
//!
//! A concurrent multi-HIT marketplace engine over the Dragoon stack:
//! hundreds of Π_hit instances racing through one gas-capped simulated
//! chain, driven block by block.
//!
//! * [`config::MarketConfig`] — the scenario: spawn curve, task shape,
//!   worker-pool size and behaviour mix, phase windows, block gas limit
//!   and settlement mode.
//! * [`engine::MarketSim`] — the block-driven event loop multiplexing
//!   agent pools over a [`dragoon_contract::HitRegistry`]; a single task
//!   ([`OneHit`], reported as a [`RunReport`]) runs through the same
//!   loop.
//! * [`metrics::MarketReport`] — gas utilization, settlement latency,
//!   reward flows, dropped/expired tasks and batched-verification
//!   counters, with JSON output for the perf trajectory.
//! * [`seed`] — seed injection from `DRAGOON_SEED` / CLI so every run of
//!   every binary is reproducible, and the one reader of a binary's
//!   `DRAGOON_THREADS` budget.
//!
//! ```
//! use dragoon_sim::{run_market, MarketConfig};
//! let report = run_market(MarketConfig { hits: 10, seed: 1, ..MarketConfig::default() });
//! assert_eq!(report.hits_published, 10);
//! ```

#![forbid(unsafe_code)]

pub mod agents;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod seed;

pub use config::{BehaviorMix, MarketConfig, PersistConfig};
pub use dragoon_protocol::{ProvingConfig, ProvingStats};
pub use engine::{recover_market_chain, run_market, MarketSim, OneHit, RunReport};
pub use metrics::{BlockStat, HitOutcome, MarketReport};
pub use seed::{seed_from_args_or, seed_from_env_or, threads_from_env};
