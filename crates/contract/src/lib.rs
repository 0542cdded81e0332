//! # dragoon-contract
//!
//! The HIT contract functionality `C_hit` (Fig 4) with full EVM-style gas
//! accounting. See [`contract::HitContract`] for the phase logic and
//! [`msg::HitMessage`] for the transaction interface.
//!
//! The one state machine on the simulated chain, [`registry::HitRegistry`],
//! hosts concurrent instances behind one address, with per-instance escrow
//! and optional block-batched settlement verification; a single task (a
//! one-HIT market run) is a one-instance registry, and
//! [`registry::GasByPhase`] reads Table III's rows off its receipts.

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
    GasByPhase, HitId, HitRegistry, RegistryCapture, RegistryError, RegistryEvent, RegistryMessage,
    RegistryShard, SettlementMode, REGISTRY_CODE_LEN,
};
