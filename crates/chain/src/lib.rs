//! # dragoon-chain
//!
//! A simulated permissionless blockchain substrate with the fidelity the
//! Dragoon evaluation needs:
//!
//! * **Synchronous rounds** — the paper's clock periods; contract phase
//!   deadlines fire on round boundaries.
//! * **Adversarial scheduling** ([`mempool`]) — the rushing adversary who
//!   reorders and delays (≤ one clock period) undelivered messages.
//! * **Gas metering** ([`gas`]) — the Istanbul-fork Ethereum gas schedule
//!   (EIP-1108 BN-254 precompile prices, EIP-2028 calldata prices), so
//!   the contract's on-chain handling fees (Table III) are reproduced
//!   from first principles rather than asserted.
//! * **Transaction atomicity** ([`chain`]) — reverted transactions burn
//!   gas but leave contract + ledger state untouched.
//! * **Optimistic parallel execution** ([`parallel`]) — transactions
//!   declare access sets (one instance + ledger accounts, reads and
//!   writes apart), a conflict-graph grouper schedules disjoint groups
//!   onto the thread budget, instance creations run alone as serial
//!   barriers, each transaction runs through the serial path's own
//!   bracket, and journal-based touch records validate the batch once,
//!   with one serial backstop; committed state is bit-identical to
//!   serial execution at any thread count.
//!
//! Substitution note (DESIGN.md §Substitutions): this crate replaces the
//! Ethereum ropsten testnet used by the paper. The contract executes
//! natively in-process, but every operation a deployed EVM contract would
//! pay for (storage writes, precompile calls, event logs, calldata) is
//! charged through [`gas::GasMeter`].

#![forbid(unsafe_code)]

pub mod chain;
pub mod gas;
pub mod mempool;
pub mod parallel;
pub mod replica;
pub mod stage;
pub mod store;

pub use chain::{
    Block, BlockObservation, Chain, ChainMessage, ExecEnv, Receipt, StateMachine, TxStatus,
};
pub use dragoon_ledger::{Journaled, LedgerCapture, StateJournal, TouchRecord, TouchSet};
pub use gas::{gas_to_usd, CalldataStats, Gas, GasMeter, GasSchedule};
pub use mempool::{
    AdversarialPolicy, DelayVictimPolicy, FifoPolicy, FrontRunPolicy, PendingTx, ReorderPolicy,
    ReversePolicy, Scheduled,
};
pub use parallel::{par_map, resolve_threads, AccessSet, ParallelStateMachine, ParallelStats};
pub use replica::{BlockUndo, CaptureStateMachine};
pub use store::{BlockStore, Persist, PersistDelta, PersistStats, Reader, StoreError};
