//! # dragoon-contract
//!
//! The HIT contract functionality `C_hit` (Fig 4) as a state machine on
//! the simulated chain, with full EVM-style gas accounting. See
//! [`contract::HitContract`] for the phase logic and
//! [`msg::HitMessage`] for the transaction interface.
//!
//! For marketplace-scale operation, [`registry::HitRegistry`] hosts many
//! concurrent instances behind one contract address, with per-instance
//! escrow isolation and optional block-batched settlement verification.

#![forbid(unsafe_code)]

pub mod contract;
pub mod msg;
mod persist;
pub mod registry;

pub use contract::{
    BatchStats, HitContract, HitError, HitEvent, Phase, PhaseWindows, RejectReason, Settlement,
    SettlementReceipt, HIT_CONTRACT_CODE_LEN,
};
pub use msg::{HitMessage, LedgerAccess, PublishParams};
pub use registry::{
    HitId, HitRegistry, RegistryCapture, RegistryError, RegistryEvent, RegistryMessage,
    RegistryShard, SettlementMode, REGISTRY_CODE_LEN,
};
