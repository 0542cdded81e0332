//! Durable chain state: an append-only on-disk block store with
//! periodic snapshots (full or incremental), an optional background
//! writer thread, and bit-identical crash recovery.
//!
//! The simulator historically lived and died inside one process: every
//! block, receipt and contract instance existed only in memory, which
//! caps a market at whatever one process lifetime can settle. This
//! module backs a [`Chain`] with three artifacts in a store directory:
//!
//! * **`blocks.log`** — one framed record per produced block, holding
//!   the block's *executed transactions* (sender, seq, message), in
//!   receipt order. Transactions, not receipts: replaying them through
//!   the serial executor regenerates receipts, events, ledger and
//!   contract state bit-identically (the same property the
//!   `dragoon-net` convergence differential proves for replicas fed by
//!   the sequencer's block feed).
//! * **`snapshot-<round>.bin`** — a periodic full encoding of the chain
//!   image (round, sequence counter, contract, ledger, blocks, events)
//!   so recovery replays only the block tail after the newest valid
//!   snapshot instead of the whole history.
//! * **`delta-<round>.bin`** — with [`BlockStore::with_incremental`],
//!   most cadence points write an *incremental* snapshot instead: only
//!   the state written since the previous artifact (dirty registry
//!   instances with tombstones, dirty ledger entries, the block/event
//!   suffixes), chained on the artifact's round via the
//!   [`PersistDelta`] trait. Every [`REBASE_EVERY`]-th snapshot is a
//!   full rebase, bounding the chain recovery must compose. Encode cost
//!   is O(touched state), not O(all instances).
//!
//! # Pipelining
//!
//! [`BlockStore::with_background_writer`] moves every disk operation to
//! a writer [`Stage`] behind a bounded (double-buffered) channel: the
//! round loop hands off the encoded frame or snapshot and continues
//! into the next round while the writer appends, checksums and
//! publishes. Command order is FIFO, so the on-disk artifact sequence
//! is identical to the synchronous path; [`BlockStore::drain`] is the
//! barrier that waits for the queue to empty (call it before reading
//! the store's files, e.g. prior to an in-process
//! [`Chain::recover_from`]). Dropping the store drains implicitly. The
//! failure rule is the stage's: a panic on the writer is raised again
//! on the round loop, and an I/O error stops the writer and comes back
//! as the [`StoreError`] of the next hand-off or drain.
//!
//! # Durability guarantee
//!
//! Log appends are buffered and flushed to the OS every
//! [`BlockStore::with_flush_every`] records (default: every record), so
//! an application crash can tear at most the unflushed tail of
//! `blocks.log`; the torn frame is detected and discarded on recovery.
//! Snapshot publishes are stronger: the bytes are written to a temp
//! file, `sync_all`-ed to the device, then atomically renamed — a
//! machine crash leaves either the previous artifact set or the new
//! one, never a half-written snapshot under its final name. With
//! [`BlockStore::with_compaction`], `blocks.log` is truncated after
//! each successful snapshot publish (every record it held is ≤ the
//! snapshot round), so a long-lived market's log stays bounded by one
//! snapshot interval; the tradeoff is that recovery then depends on the
//! snapshot/delta chain back to the newest full snapshot — corrupt
//! middle links can no longer fall back to replaying the whole log.
//!
//! Recovery ([`Chain::recover_from`]) restores the newest valid full
//! snapshot, composes any newer deltas in round order (stopping at the
//! first broken link), then replays the block-log tail; a torn final
//! record — a crash mid-append — is **detected and discarded**, never
//! half-applied: the recovered chain lands exactly on the last fully
//! persisted block. Corrupt full snapshots fall back to the next older
//! one, down to genesis.
//!
//! Serialization is the hand-rolled [`Persist`] codec (the vendored
//! serde compat is derive-only): deterministic byte layout, so two
//! identical chain states — live and recovered, or produced at
//! different thread budgets — encode to identical bytes. That byte
//! string is the crash-recovery differential's witness. (Delta *bytes*
//! may differ across thread counts — the serial and parallel executors
//! over-approximate the dirty set differently — but the recovered
//! image they compose to is identical.)

use crate::chain::{Block, Chain, Receipt, StateMachine, TxStatus};
use crate::gas::Gas;
use crate::mempool::PendingTx;
use crate::stage::{Reply, Stage};
use dragoon_ledger::{Address, Ledger, LedgerEvent};
use dragoon_trace::{SpanGuard, SpanKind, Tracer};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Errors from the persistence layer.
#[derive(Clone, Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// Stored bytes failed structural validation (bad tag, short
    /// payload, checksum mismatch in a position recovery cannot skip).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "corrupt store: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Corrupt(what.into())
}

// ---------------------------------------------------------------------
// The Persist codec
// ---------------------------------------------------------------------

/// A byte cursor for decoding [`Persist`] values.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`, starting at the first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "short read: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes a fixed-size byte array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consumes a length-prefixed sequence, decoding each element with
    /// `get` — the one guard on a length read from disk. Every element
    /// encodes to at least one byte, so a prefix above the remaining
    /// input is corrupt before anything is reserved.
    pub fn seq<T>(
        &mut self,
        get: impl Fn(&mut Self) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        let len = usize::get(self)?;
        if len > self.remaining() {
            return Err(corrupt(format!("sequence length {len} exceeds payload")));
        }
        let mut out = Vec::with_capacity(seq_reserve::<T>(len, self.remaining()));
        for _ in 0..len {
            out.push(get(self)?);
        }
        Ok(out)
    }
}

/// Elements to reserve for a claimed `len`: never more memory than the
/// `remaining` input bytes, however wide `T` is in memory (a forged
/// prefix would otherwise reserve `len · size_of::<T>()`).
fn seq_reserve<T>(len: usize, remaining: usize) -> usize {
    len.min(remaining / std::mem::size_of::<T>().max(1))
}

/// Deterministic binary serialization for durable chain state.
///
/// The contract: `put` followed by `get` round-trips the value, and two
/// equal values produce identical bytes (collections are emitted in a
/// canonical order). Defined here — the lowest crate that sees chain,
/// ledger and (via downstream impls) contract state — so every layer
/// implements it for its own types without orphan-rule contortions.
pub trait Persist: Sized {
    /// Appends this value's canonical encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value from the cursor.
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

persist_int!(u8, u32, u64, u128);

impl Persist for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }
}

impl Persist for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        usize::try_from(u64::get(r)?).map_err(|_| corrupt("usize overflow"))
    }
}

macro_rules! persist_array {
    ($($n:literal),*) => {$(
        impl Persist for [u8; $n] {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                r.array()
            }
        }
    )*};
}

persist_array!(20, 32, 64, 128);

impl Persist for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let len = usize::get(r)?;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| corrupt("invalid utf-8"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }
}

/// A shared value encodes as the value itself.
impl<T: Persist> Persist for std::sync::Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        T::get(r).map(Self::new)
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.seq(T::get)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl Persist for Address {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Address(r.array()?))
    }
}

impl Persist for LedgerEvent {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            LedgerEvent::Minted { account, amount } => {
                out.push(0);
                account.put(out);
                amount.put(out);
            }
            LedgerEvent::Frozen {
                contract,
                party,
                amount,
            } => {
                out.push(1);
                contract.put(out);
                party.put(out);
                amount.put(out);
            }
            LedgerEvent::NoFund { party, amount } => {
                out.push(2);
                party.put(out);
                amount.put(out);
            }
            LedgerEvent::Paid {
                contract,
                party,
                amount,
            } => {
                out.push(3);
                contract.put(out);
                party.put(out);
                amount.put(out);
            }
            LedgerEvent::Transferred { from, to, amount } => {
                out.push(4);
                from.put(out);
                to.put(out);
                amount.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            0 => LedgerEvent::Minted {
                account: Address::get(r)?,
                amount: u128::get(r)?,
            },
            1 => LedgerEvent::Frozen {
                contract: Address::get(r)?,
                party: Address::get(r)?,
                amount: u128::get(r)?,
            },
            2 => LedgerEvent::NoFund {
                party: Address::get(r)?,
                amount: u128::get(r)?,
            },
            3 => LedgerEvent::Paid {
                contract: Address::get(r)?,
                party: Address::get(r)?,
                amount: u128::get(r)?,
            },
            4 => LedgerEvent::Transferred {
                from: Address::get(r)?,
                to: Address::get(r)?,
                amount: u128::get(r)?,
            },
            t => return Err(corrupt(format!("bad ledger event tag {t}"))),
        })
    }
}

impl Persist for Ledger {
    /// Balances serialize address-sorted (the internal map is hashed, so
    /// canonical order is what makes equal ledgers byte-equal).
    fn put(&self, out: &mut Vec<u8>) {
        self.accounts_sorted().put(out);
        self.events().to_vec().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let balances: Vec<(Address, u128)> = Vec::get(r)?;
        let events: Vec<LedgerEvent> = Vec::get(r)?;
        Ok(Ledger::from_parts(balances, events))
    }
}

/// Re-interns a decoded label into the `&'static str` receipts carry.
/// The table is closed and complete — the 8 message labels and the 11
/// labels the contract charges gas under — so a label outside it can
/// only come from damaged or foreign bytes and is rejected as corrupt
/// (nothing is allocated for it beyond the decoded string).
fn intern_label(label: String) -> Result<&'static str, StoreError> {
    const KNOWN: &[&str] = &[
        "publish",
        "commit",
        "reveal",
        "golden",
        "outrange",
        "evaluate",
        "finalize",
        "cancel",
        "intrinsic",
        "log",
        "sstore",
        "sload",
        "create",
        "freeze",
        "pay",
        "keccak",
        "ec_add",
        "ec_mul",
        "overhead",
    ];
    KNOWN
        .iter()
        .find(|k| **k == label)
        .copied()
        .ok_or_else(|| corrupt(format!("unknown receipt label {label:?}")))
}

impl Persist for TxStatus {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            TxStatus::Ok => out.push(0),
            TxStatus::Reverted(msg) => {
                out.push(1);
                msg.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(TxStatus::Ok),
            1 => Ok(TxStatus::Reverted(String::get(r)?)),
            t => Err(corrupt(format!("bad tx status tag {t}"))),
        }
    }
}

impl Persist for Receipt {
    fn put(&self, out: &mut Vec<u8>) {
        self.seq.put(out);
        self.sender.put(out);
        self.label.to_string().put(out);
        self.round.put(out);
        self.gas_used.put(out);
        self.status.put(out);
        self.gas_breakdown.len().put(out);
        for (label, gas) in &self.gas_breakdown {
            label.to_string().put(out);
            gas.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let seq = u64::get(r)?;
        let sender = Address::get(r)?;
        let label = intern_label(String::get(r)?)?;
        let round = u64::get(r)?;
        let gas_used = Gas::get(r)?;
        let status = TxStatus::get(r)?;
        let n = usize::get(r)?;
        let mut gas_breakdown = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let label = intern_label(String::get(r)?)?;
            gas_breakdown.push((label, Gas::get(r)?));
        }
        Ok(Receipt {
            seq,
            sender,
            label,
            round,
            gas_used,
            status,
            gas_breakdown,
        })
    }
}

impl Persist for Block {
    fn put(&self, out: &mut Vec<u8>) {
        self.round.put(out);
        self.receipts.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Block {
            round: u64::get(r)?,
            receipts: Vec::get(r)?,
        })
    }
}

impl<M: Persist> Persist for PendingTx<M> {
    fn put(&self, out: &mut Vec<u8>) {
        self.sender.put(out);
        self.seq.put(out);
        self.msg.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(PendingTx {
            sender: Address::get(r)?,
            seq: u64::get(r)?,
            msg: M::get(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Incremental encoding
// ---------------------------------------------------------------------

/// Incremental serialization on top of [`Persist`]: a type that tracks
/// which parts of itself were written since the last [`mark_clean`]
/// (`PersistDelta::mark_clean`) can encode just that working set, and
/// apply such a delta over its previous state to reproduce the current
/// one. The defaults degrade every method to the full encoding, so a
/// plain `Persist` type opts in with an empty impl.
///
/// The contract: after `mark_clean`, a later `put_delta` followed by
/// `apply_delta` on the marked state must land on a state whose full
/// [`Persist::put`] encoding is identical to the live one. Delta
/// *bytes* need not be deterministic across executor thread counts
/// (dirty sets may be over-approximated differently); the composed
/// state must be.
pub trait PersistDelta: Persist {
    /// Appends the canonical encoding of everything written since the
    /// last [`PersistDelta::mark_clean`].
    fn put_delta(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Applies one delta (as produced by [`PersistDelta::put_delta`])
    /// over the current state.
    fn apply_delta(&mut self, r: &mut Reader<'_>) -> Result<(), StoreError> {
        self.restore(r)
    }

    /// Replaces the persisted state with a full [`Persist::put`]
    /// encoding, in place. A type that carries local, non-persisted
    /// configuration (a thread budget, say) overrides this to keep it:
    /// recovery restores a snapshot *into* the genesis value the caller
    /// configured, and that configuration must survive the restore just
    /// as it survives [`PersistDelta::apply_delta`].
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), StoreError> {
        *self = Self::get(r)?;
        Ok(())
    }

    /// Resets the dirty baseline: the next [`PersistDelta::put_delta`]
    /// covers only writes after this call.
    fn mark_clean(&mut self) {}

    /// Size of the current working set (dirty entries a delta would
    /// encode) — telemetry for the snapshot-cost-scales-with-dirty
    /// acceptance check.
    fn dirty_units(&self) -> usize {
        0
    }
}

impl PersistDelta for Ledger {
    fn put_delta(&self, out: &mut Vec<u8>) {
        self.delta_entries().put(out);
        self.delta_events().to_vec().put(out);
    }

    fn apply_delta(&mut self, r: &mut Reader<'_>) -> Result<(), StoreError> {
        let entries: Vec<(Address, Option<u128>)> = Vec::get(r)?;
        for (account, entry) in entries {
            self.merge_entry(account, entry);
        }
        let events: Vec<LedgerEvent> = Vec::get(r)?;
        self.append_events(&events);
        Ok(())
    }

    fn mark_clean(&mut self) {
        self.mark_delta_clean();
    }

    fn dirty_units(&self) -> usize {
        self.dirty_len()
    }
}

/// Counters describing what the persistence layer wrote — the PERSIST
/// stats line of a market run. Log/snapshot byte counts are computed on
/// the enqueueing side, so they are identical whether the background
/// writer is on or off; delta byte counts may differ across executor
/// thread counts (see [`PersistDelta`]), so keep this out of
/// cross-thread equivalence assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Block records appended to `blocks.log`.
    pub blocks_appended: u64,
    /// Frame bytes appended to the log (header + payload).
    pub log_bytes_written: u64,
    /// Log bytes dropped by compaction truncations.
    pub log_bytes_truncated: u64,
    /// Compaction truncations performed.
    pub compactions: u64,
    /// Full snapshots published.
    pub full_snapshots: u64,
    /// Incremental (delta) snapshots published.
    pub delta_snapshots: u64,
    /// Snapshot bytes published (checksum + payload, full and delta).
    pub snapshot_bytes_written: u64,
    /// Dirty units (registry instances + ledger entries) encoded across
    /// all delta snapshots.
    pub dirty_units_encoded: u64,
    /// Settlement batches whose overlapped verification was joined and
    /// matched the drained pending set (precomputed verdicts used).
    pub overlap_hits: u64,
    /// Overlapped verifications that missed (layout changed between
    /// handoff and join; verdicts recomputed inline).
    pub overlap_misses: u64,
}

impl PersistStats {
    /// The persistence counters as one registry [`MetricSet`]; its
    /// object view is the `PERSIST:` stats line.
    pub fn metric_set(&self) -> dragoon_trace::MetricSet {
        dragoon_trace::MetricSet::new("persist")
            .int("blocks_appended", self.blocks_appended)
            .int("log_bytes_written", self.log_bytes_written)
            .int("log_bytes_truncated", self.log_bytes_truncated)
            .int("compactions", self.compactions)
            .int("full_snapshots", self.full_snapshots)
            .int("delta_snapshots", self.delta_snapshots)
            .int("snapshot_bytes_written", self.snapshot_bytes_written)
            .int("dirty_units_encoded", self.dirty_units_encoded)
            .int("overlap_hits", self.overlap_hits)
            .int("overlap_misses", self.overlap_misses)
    }
}

// ---------------------------------------------------------------------
// On-disk layout
// ---------------------------------------------------------------------

/// FNV-1a, the frame checksum. Not cryptographic — it guards against
/// torn writes and bit rot, not adversaries (the store directory is the
/// node's own trusted disk).
fn checksum(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

const LOG_FILE: &str = "blocks.log";
const SNAPSHOT_PREFIX: &str = "snapshot-";
const DELTA_PREFIX: &str = "delta-";
const SNAPSHOT_SUFFIX: &str = ".bin";

/// Every this many snapshots, an incremental store writes a full rebase
/// instead of a delta, bounding the chain recovery must compose.
const REBASE_EVERY: u64 = 16;

fn snapshot_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{round:020}{SNAPSHOT_SUFFIX}"))
}

fn delta_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("{DELTA_PREFIX}{round:020}{SNAPSHOT_SUFFIX}"))
}

/// The disk half of the store: the buffered log handle. Owned by the
/// caller's thread (synchronous mode) or moved into the background
/// writer thread (pipelined mode) — either way every command goes
/// through [`LogWriter::handle`], so the two modes produce identical
/// files. It keeps no policy: when to flush is the store's decision,
/// carried by the commands.
struct LogWriter {
    dir: PathBuf,
    log: BufWriter<File>,
}

impl LogWriter {
    /// The one interpreter of a [`WriterCmd`].
    fn handle(&mut self, cmd: WriterCmd) -> Result<(), StoreError> {
        match cmd {
            WriterCmd::Frame { bytes, flush, .. } => {
                self.log.write_all(&bytes)?;
                if flush {
                    self.log.flush()?;
                }
                Ok(())
            }
            WriterCmd::Publish {
                tmp,
                dest,
                bytes,
                compact,
                prune_below,
                ..
            } => self.publish(&tmp, &dest, &bytes, compact, prune_below),
            WriterCmd::Drain(ack) => {
                self.log.flush()?;
                ack.send(());
                Ok(())
            }
        }
    }

    /// Publishes one snapshot artifact atomically and durably: temp
    /// file, `sync_all`, rename. With `compact`, truncates `blocks.log`
    /// afterwards (every record it holds is covered by the artifact),
    /// and `prune_below` deletes artifacts older than a full rebase.
    fn publish(
        &mut self,
        tmp: &Path,
        dest: &Path,
        bytes: &[u8],
        compact: bool,
        prune_below: Option<u64>,
    ) -> Result<(), StoreError> {
        let mut f = File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(tmp, dest)?;
        if compact {
            self.log.flush()?;
            self.log.get_mut().set_len(0)?;
        }
        if let Some(round) = prune_below {
            self.prune_artifacts(round)?;
        }
        Ok(())
    }

    /// Deletes snapshot/delta artifacts for rounds below `round` — safe
    /// once a full snapshot at `round` is durable, since recovery never
    /// reaches past the newest valid full snapshot.
    fn prune_artifacts(&self, round: u64) -> Result<(), StoreError> {
        for prefix in [SNAPSHOT_PREFIX, DELTA_PREFIX] {
            for (r, path) in list_artifacts(&self.dir, prefix)? {
                if r < round {
                    fs::remove_file(&path)?;
                }
            }
        }
        Ok(())
    }
}

/// Every `<prefix><round>.bin` artifact in `dir` as `(round, path)`
/// pairs, ascending by round — the listing pruning and both recovery
/// readers share. A missing directory holds none.
fn list_artifacts(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let round = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix(prefix))
            .and_then(|n| n.strip_suffix(SNAPSHOT_SUFFIX))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(round) = round {
            out.push((round, path));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// One unit of work handed to the background writer. Each write
/// carries the round it belongs to so the writer thread's wall-clock
/// spans line up with the producing round in a Chrome trace.
enum WriterCmd {
    /// Append a pre-framed log record; `flush` when the store's cadence
    /// falls on it.
    Frame {
        round: u64,
        bytes: Vec<u8>,
        flush: bool,
    },
    /// Publish a snapshot artifact (full or delta).
    Publish {
        round: u64,
        tmp: PathBuf,
        dest: PathBuf,
        bytes: Vec<u8>,
        compact: bool,
        prune_below: Option<u64>,
    },
    /// Flush everything and acknowledge — the drain barrier.
    Drain(Reply<()>),
}

impl WriterCmd {
    /// The wall-clock span a write runs under on the writer thread.
    fn wall_span(&self, tracer: &Tracer) -> Option<SpanGuard> {
        let (kind, round, bytes) = match self {
            WriterCmd::Frame { round, bytes, .. } => (SpanKind::Persist, round, bytes),
            WriterCmd::Publish { round, bytes, .. } => (SpanKind::Snapshot, round, bytes),
            WriterCmd::Drain(_) => return None,
        };
        let mut sp = tracer.span(kind, *round);
        sp.arg("bytes", bytes.len() as u64);
        Some(sp)
    }
}

/// Where writes go: inline on the caller's thread, or over a bounded
/// channel to the writer stage. Dropped, either flushes what it holds:
/// the log buffer itself, or the stage once it has run its queue.
enum Writer {
    Inline(LogWriter),
    Background(Stage<(Tracer, WriterCmd), (), StoreError>),
}

/// The writing half of the persistence layer: the snapshot cadence and
/// incremental/compaction policy, stats counters, and the log writer
/// (inline or behind the background channel).
pub struct BlockStore {
    dir: PathBuf,
    /// Write a snapshot every this many persisted blocks (`0` = never
    /// snapshot; recovery replays the whole log).
    snapshot_every: u64,
    blocks_since_snapshot: u64,
    /// Incremental snapshots: cadence points write deltas chained on the
    /// previous artifact, with a full rebase every [`REBASE_EVERY`]-th.
    incremental: bool,
    /// Truncate `blocks.log` after each successful snapshot publish.
    compact_log: bool,
    /// Flush the log buffer to the OS every this many appends (`0` =
    /// only at snapshots and drains — the widest torn-tail window). The
    /// store counts; the writer flushes the frames it is told to.
    flush_every: u64,
    appends_since_flush: u64,
    /// Round of the newest published artifact — the base the next delta
    /// chains on. `None` until the first full snapshot.
    prev_artifact: Option<u64>,
    deltas_since_full: u64,
    /// Chain event-log length at the last snapshot (the chain-side
    /// suffix mark for delta images).
    events_mark: usize,
    /// Frame bytes appended since the last compaction truncate.
    log_bytes_pending: u64,
    stats: PersistStats,
    /// The run's trace handle (off by default).
    tracer: Tracer,
    writer: Writer,
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockStore")
            .field("dir", &self.dir)
            .field("snapshot_every", &self.snapshot_every)
            .field("incremental", &self.incremental)
            .field("compact_log", &self.compact_log)
            .field("background", &matches!(self.writer, Writer::Background(_)))
            .finish()
    }
}

impl BlockStore {
    /// Creates (or wipes) a store directory for a fresh run: a new empty
    /// `blocks.log`, any previous run's snapshots and deltas removed.
    /// Defaults: synchronous writes, flush on every append, full
    /// snapshots, no compaction — exactly the pre-pipeline behaviour.
    pub fn create(dir: impl AsRef<Path>, snapshot_every: u64) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if name.starts_with(SNAPSHOT_PREFIX)
                    || name.starts_with(DELTA_PREFIX)
                    || name == LOG_FILE
                {
                    fs::remove_file(&path)?;
                }
            }
        }
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(LOG_FILE))?;
        Ok(Self {
            dir: dir.clone(),
            snapshot_every,
            blocks_since_snapshot: 0,
            incremental: false,
            compact_log: false,
            flush_every: 1,
            appends_since_flush: 0,
            prev_artifact: None,
            deltas_since_full: 0,
            events_mark: 0,
            log_bytes_pending: 0,
            stats: PersistStats::default(),
            tracer: Tracer::default(),
            writer: Writer::Inline(LogWriter {
                dir,
                log: BufWriter::new(log),
            }),
        })
    }

    /// Flush the log buffer to the OS every `n` appends (`0` = only at
    /// snapshots and drains). The default of 1 keeps the torn-tail
    /// window at a single record; larger values trade that window for
    /// fewer syscalls. See the module docs for the guarantee.
    pub fn with_flush_every(mut self, n: u64) -> Self {
        self.flush_every = n;
        self
    }

    /// Enables incremental (delta) snapshots at cadence points, with a
    /// full rebase every [`REBASE_EVERY`]-th snapshot.
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Enables log compaction: `blocks.log` is truncated after each
    /// successful snapshot publish, bounding it by one snapshot
    /// interval. See the module docs for the recovery tradeoff.
    pub fn with_compaction(mut self, on: bool) -> Self {
        self.compact_log = on;
        self
    }

    /// Records `persist` / `snapshot` into `tracer` — on the calling
    /// thread and, with the background writer, on the writer thread.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Moves all disk writes to a writer stage behind a bounded
    /// double-buffered channel. FIFO handoff keeps the on-disk
    /// artifact sequence identical to the synchronous path;
    /// [`BlockStore::drain`] is the completion barrier.
    pub fn with_background_writer(self, on: bool) -> Self {
        match self.writer {
            Writer::Inline(mut w) if on => Self {
                // The writer stage handles commands in FIFO order, each
                // write under a wall-clock span on its thread, recorded
                // into the handle the command crossed the channel with
                // (the inline path runs inside `persist_block`'s spans
                // instead); a closed channel gets a final flush.
                writer: Writer::Background(Stage::spawn("dragoon-block-writer", 2, move |cmds| {
                    for (tracer, cmd) in cmds {
                        let _sp = WriterCmd::wall_span(&cmd, &tracer);
                        w.handle(cmd)?;
                    }
                    Ok(w.log.flush()?)
                })),
                ..self
            },
            _ => self,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters describing what was written so far. With the background
    /// writer, counts reflect enqueued work (the byte math happens on
    /// the enqueueing side); call [`BlockStore::drain`] first if the
    /// numbers must describe durable state.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Bumps the overlapped-verification counters (they live here so the
    /// PERSIST stats line covers the whole pipeline).
    pub fn record_overlap(&mut self, hits: u64, misses: u64) {
        self.stats.overlap_hits += hits;
        self.stats.overlap_misses += misses;
    }

    /// Hands one unit of work to the writer (inline: runs it now).
    fn dispatch(&mut self, cmd: WriterCmd) -> Result<(), StoreError> {
        match &mut self.writer {
            Writer::Inline(w) => w.handle(cmd),
            Writer::Background(stage) => stage.send((self.tracer.clone(), cmd)),
        }
    }

    /// The drain barrier: blocks until every handed-off append and
    /// snapshot publish has hit the filesystem and the log buffer is
    /// flushed. For the synchronous writer this is just the flush. Call
    /// before reading the store's files — e.g. prior to an in-process
    /// [`Chain::recover_from`] — and at run end.
    pub fn drain(&mut self) -> Result<(), StoreError> {
        self.appends_since_flush = 0;
        match &mut self.writer {
            Writer::Inline(w) => Ok(w.log.flush()?),
            Writer::Background(stage) => {
                let ack = stage.request(|ack| (self.tracer.clone(), WriterCmd::Drain(ack)))?;
                stage.wait(ack)
            }
        }
    }

    /// Appends one framed record (`len ‖ checksum ‖ payload`).
    fn append(&mut self, round: u64, payload: &[u8]) -> Result<(), StoreError> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(
            &u32::try_from(payload.len())
                .map_err(|_| StoreError::Io("block record exceeds u32 length".into()))?
                .to_le_bytes(),
        );
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.stats.blocks_appended += 1;
        self.stats.log_bytes_written += frame.len() as u64;
        self.log_bytes_pending += frame.len() as u64;
        self.appends_since_flush += 1;
        let flush = self.flush_every > 0 && self.appends_since_flush >= self.flush_every;
        if flush {
            self.appends_since_flush = 0;
        }
        self.dispatch(WriterCmd::Frame {
            round,
            bytes: frame,
            flush,
        })
    }

    /// Whether the cadence calls for a snapshot after this block.
    fn snapshot_due(&mut self) -> bool {
        if self.snapshot_every == 0 {
            return false;
        }
        self.blocks_since_snapshot += 1;
        if self.blocks_since_snapshot >= self.snapshot_every {
            self.blocks_since_snapshot = 0;
            true
        } else {
            false
        }
    }

    /// The round the next snapshot should delta against, or `None` when
    /// a full snapshot is due (incremental off, no base yet, or rebase).
    fn delta_base(&self) -> Option<u64> {
        if !self.incremental || self.deltas_since_full + 1 >= REBASE_EVERY {
            return None;
        }
        self.prev_artifact
    }

    /// Publishes one snapshot artifact (checksummed, atomic, durable)
    /// and runs the compaction/prune policy.
    fn publish_artifact(
        &mut self,
        round: u64,
        payload: &[u8],
        full: bool,
    ) -> Result<(), StoreError> {
        let dest = if full {
            snapshot_path(&self.dir, round)
        } else {
            delta_path(&self.dir, round)
        };
        let tmp = dest.with_extension("tmp");
        let mut bytes = Vec::with_capacity(4 + payload.len());
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        self.stats.snapshot_bytes_written += bytes.len() as u64;
        if full {
            self.stats.full_snapshots += 1;
            self.deltas_since_full = 0;
        } else {
            self.stats.delta_snapshots += 1;
            self.deltas_since_full += 1;
        }
        if self.compact_log {
            self.stats.compactions += 1;
            self.stats.log_bytes_truncated += self.log_bytes_pending;
            self.log_bytes_pending = 0;
            // The writer flushes the log before truncating it.
            self.appends_since_flush = 0;
        }
        // Old artifacts are pruned only once a *full* rebase is durable
        // (a delta still needs its base chain), and only under the
        // compaction policy — without it the store keeps full history.
        let prune_below = (full && self.compact_log).then_some(round);
        self.prev_artifact = Some(round);
        self.dispatch(WriterCmd::Publish {
            round,
            tmp,
            dest,
            bytes,
            compact: self.compact_log,
            prune_below,
        })
    }
}

/// The newest full snapshot in `dir` whose checksum validates, as
/// `(round, state image bytes)`. Corrupt snapshots fall back to the
/// next older one.
fn latest_snapshot(dir: &Path) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
    for (round, path) in list_artifacts(dir, SNAPSHOT_PREFIX)?.into_iter().rev() {
        if let Some(payload) = read_checksummed(&path)? {
            return Ok(Some((round, payload)));
        }
        // Corrupt snapshot: fall through to the next older one.
    }
    Ok(None)
}

/// Reads one checksummed artifact file; `None` if the checksum does not
/// validate (the file is torn or bit-rotted).
fn read_checksummed(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    let bytes = fs::read(path)?;
    if bytes.len() < 4 {
        return Ok(None);
    }
    let stored = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let payload = &bytes[4..];
    if checksum(payload) == stored {
        Ok(Some(payload.to_vec()))
    } else {
        Ok(None)
    }
}

/// Every checksum-valid delta artifact in `dir`, ascending by round.
/// Invalid files are skipped — composition stops at the first missing
/// link anyway.
fn read_deltas(dir: &Path) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
    let mut out = Vec::new();
    for (round, path) in list_artifacts(dir, DELTA_PREFIX)? {
        if let Some(payload) = read_checksummed(&path)? {
            out.push((round, payload));
        }
    }
    Ok(out)
}

/// One decoded block record from `blocks.log`.
pub struct BlockRecord<M> {
    /// The block's round (height).
    pub round: u64,
    /// The chain's submission counter after the block.
    pub next_seq: u64,
    /// The block's landed transactions, in receipt order.
    pub txs: Vec<PendingTx<M>>,
}

/// Reads every intact block record. A torn or corrupt tail — short
/// frame header, truncated payload, checksum mismatch — ends the scan:
/// everything before it is returned, the tail is discarded.
pub fn read_log<M: Persist>(dir: &Path) -> Result<Vec<BlockRecord<M>>, StoreError> {
    let path = dir.join(LOG_FILE);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let mut buf = Vec::new();
    File::open(&path)?.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 8 {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let stored = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        let body_start = pos + 8;
        if buf.len() - body_start < len {
            break; // torn final frame: discard
        }
        let payload = &buf[body_start..body_start + len];
        if checksum(payload) != stored {
            break; // corrupt tail: discard from here
        }
        let mut r = Reader::new(payload);
        let round = u64::get(&mut r)?;
        let next_seq = u64::get(&mut r)?;
        let txs: Vec<PendingTx<M>> = Vec::get(&mut r)?;
        if !r.is_empty() {
            return Err(corrupt(format!(
                "block record for round {round} has trailing bytes"
            )));
        }
        records.push(BlockRecord {
            round,
            next_seq,
            txs,
        });
        pos = body_start + len;
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// Chain persistence + recovery
// ---------------------------------------------------------------------

impl<S> Chain<S>
where
    S: StateMachine + PersistDelta,
    S::Msg: Persist,
    S::Event: Persist,
{
    /// The canonical byte image of this chain's committed state: round,
    /// sequence counter, contract, ledger, blocks and events. Two chains
    /// with equal committed state produce identical images — the
    /// crash-recovery differential compares exactly these bytes. The
    /// mempool is deliberately excluded: pending transactions are
    /// volatile by definition (a real node loses its mempool in a crash
    /// and recovers it from the network).
    pub fn state_image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.round.put(&mut out);
        self.next_seq.put(&mut out);
        self.contract.put(&mut out);
        self.ledger.put(&mut out);
        self.blocks.put(&mut out);
        self.events.put(&mut out);
        out
    }

    /// Overwrites this chain's committed state from a snapshot image
    /// produced by [`Chain::state_image`]. Configuration (gas schedule,
    /// contract address, thread budgets, block gas limit) is *not* in
    /// the image — the caller provides it by constructing `self` exactly
    /// as the live run's genesis did, and it is kept: the chain's own
    /// fields are not touched, and the contract is restored in place
    /// ([`PersistDelta::restore`]) so its local configuration survives.
    fn restore_image(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut r = Reader::new(bytes);
        self.round = u64::get(&mut r)?;
        self.next_seq = u64::get(&mut r)?;
        self.contract.restore(&mut r)?;
        self.ledger = Ledger::get(&mut r)?;
        self.blocks = Vec::get(&mut r)?;
        self.events = Vec::get(&mut r)?;
        if !r.is_empty() {
            return Err(corrupt("snapshot image has trailing bytes"));
        }
        Ok(())
    }

    /// The incremental counterpart of [`Chain::state_image`]: only what
    /// was written since the previous artifact (dirty contract and
    /// ledger working sets, the block and event suffixes), chained on
    /// `base_round`. Applying it over the state the base artifact
    /// decodes to reproduces the full image bit-identically.
    fn delta_image(&self, base_round: u64, events_mark: usize) -> Vec<u8> {
        debug_assert_eq!(
            self.blocks.len() as u64,
            self.round,
            "one block per round is the invariant the block suffix relies on"
        );
        let mut out = Vec::new();
        self.round.put(&mut out);
        self.next_seq.put(&mut out);
        base_round.put(&mut out);
        self.contract.put_delta(&mut out);
        self.ledger.put_delta(&mut out);
        self.blocks[usize::try_from(base_round)
            .unwrap_or(usize::MAX)
            .min(self.blocks.len())..]
            .to_vec()
            .put(&mut out);
        self.events[events_mark.min(self.events.len())..]
            .to_vec()
            .put(&mut out);
        out
    }

    /// Applies one delta image over the current state and returns the
    /// round it lands on — or `None`, with nothing touched, when it does
    /// not chain on `expect_base` (a broken link). Bytes that fail to
    /// decode are an error: the contract or the ledger may already hold
    /// part of the delta, and no log replay can start from a
    /// half-applied state.
    fn apply_delta_image(
        &mut self,
        bytes: &[u8],
        expect_base: u64,
    ) -> Result<Option<u64>, StoreError> {
        let mut r = Reader::new(bytes);
        let round = u64::get(&mut r)?;
        let next_seq = u64::get(&mut r)?;
        let base = u64::get(&mut r)?;
        if base != expect_base {
            return Ok(None);
        }
        self.contract.apply_delta(&mut r)?;
        self.ledger.apply_delta(&mut r)?;
        let blocks: Vec<Block> = Vec::get(&mut r)?;
        self.blocks.extend(blocks);
        let events: Vec<(u64, S::Event)> = Vec::get(&mut r)?;
        self.events.extend(events);
        if !r.is_empty() {
            return Err(corrupt("delta image has trailing bytes"));
        }
        self.round = round;
        self.next_seq = next_seq;
        Ok(Some(round))
    }

    /// Persists the most recently produced block: appends its executed
    /// transactions to `blocks.log` and, at the configured cadence,
    /// publishes a snapshot — full, or (with
    /// [`BlockStore::with_incremental`]) a delta against the previous
    /// artifact. Call once after every `advance_round*`; requires
    /// [`Chain::set_record_block_txs`] to be on so the block's landed
    /// transactions are available.
    pub fn persist_block(&mut self, store: &mut BlockStore) -> Result<(), StoreError> {
        debug_assert!(
            self.record_block_txs,
            "persistence needs record_block_txs enabled before the round runs"
        );
        let mut sp = store.tracer.span(SpanKind::Persist, self.round);
        let mut payload = Vec::new();
        self.round.put(&mut payload);
        self.next_seq.put(&mut payload);
        self.last_block_txs.put(&mut payload);
        sp.arg("txs", self.last_block_txs.len() as u64);
        store.append(self.round, &payload)?;
        // The deterministic persist event records only the height: the
        // append cadence is identical for the synchronous and the
        // pipelined store, so the stream stays mode-independent.
        store
            .tracer
            .event(SpanKind::Persist, self.round, &[("height", self.round)]);
        drop(sp);
        if store.snapshot_due() {
            let mut sp = store.tracer.span(SpanKind::Snapshot, self.round);
            match store.delta_base() {
                Some(base) => {
                    store.stats.dirty_units_encoded +=
                        (self.contract.dirty_units() + self.ledger.dirty_units()) as u64;
                    let image = self.delta_image(base, store.events_mark);
                    sp.arg("bytes", image.len() as u64);
                    store.publish_artifact(self.round, &image, false)?;
                }
                None => {
                    let image = self.state_image();
                    sp.arg("bytes", image.len() as u64);
                    store.publish_artifact(self.round, &image, true)?;
                }
            }
            // Full-vs-delta is a store-mode detail, so the snapshot
            // event carries the height only (see the persist event).
            store
                .tracer
                .event(SpanKind::Snapshot, self.round, &[("height", self.round)]);
            // Reset the dirty baseline: the next delta covers only what
            // this snapshot did not.
            self.contract.mark_clean();
            self.ledger.mark_clean();
            store.events_mark = self.events.len();
        }
        Ok(())
    }

    /// Recovers a chain from a store directory: loads the newest valid
    /// full snapshot (if any), composes any newer delta artifacts in
    /// round order, then replays the block-log tail through the serial
    /// executor. `genesis` must be constructed exactly as the live
    /// run's chain was before its first block (same deploy, same
    /// genesis mints, same configuration) — the same contract every
    /// `dragoon-net` replica starts from.
    ///
    /// The recovered chain is bit-identical (per [`Chain::state_image`])
    /// to the live chain at its last fully persisted block: replay runs
    /// the exact landed transaction sequence through the same journaled
    /// execution path, which the equivalence suites pin to the parallel
    /// production path at every thread count. A torn final record is
    /// discarded, not half-applied; a missing delta, or one that fails
    /// its checksum, ends the composition at the last intact link (the
    /// log tail covers the rest when compaction is off — see the module
    /// docs for the compaction tradeoff). A checksum-valid artifact that
    /// does not decode is an error, never a half-applied state.
    pub fn recover_from(dir: impl AsRef<Path>, genesis: Self) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let mut chain = genesis;
        let mut composed = 0u64;
        if let Some((round, image)) = latest_snapshot(dir)? {
            chain.restore_image(&image)?;
            composed = round;
        }
        for (round, bytes) in read_deltas(dir)? {
            if round <= composed {
                continue; // covered by the full snapshot or an earlier delta
            }
            match chain.apply_delta_image(&bytes, composed)? {
                Some(landed) => composed = landed,
                // Broken chain link (e.g. the delta's base was itself
                // corrupt and skipped): stop composing, fall back to
                // log replay from here.
                None => break,
            }
        }
        for record in read_log::<S::Msg>(dir)? {
            if record.round <= chain.round {
                continue; // covered by the snapshot/delta chain
            }
            if record.round != chain.round + 1 {
                return Err(corrupt(format!(
                    "block log gap: have round {}, next record is {}",
                    chain.round, record.round
                )));
            }
            chain.replay_block(record.txs);
            chain.next_seq = record.next_seq;
        }
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut out = Vec::new();
        42u64.put(&mut out);
        7usize.put(&mut out);
        true.put(&mut out);
        Some(9u32).put(&mut out);
        Option::<u32>::None.put(&mut out);
        vec![1u8, 2, 3].put(&mut out);
        "hello".to_string().put(&mut out);
        Address::from_byte(3).put(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(u64::get(&mut r).unwrap(), 42);
        assert_eq!(usize::get(&mut r).unwrap(), 7);
        assert!(bool::get(&mut r).unwrap());
        assert_eq!(Option::<u32>::get(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u32>::get(&mut r).unwrap(), None);
        assert_eq!(Vec::<u8>::get(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(String::get(&mut r).unwrap(), "hello");
        assert_eq!(Address::get(&mut r).unwrap(), Address::from_byte(3));
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_and_bad_tags_are_errors_not_panics() {
        let mut r = Reader::new(&[1, 2]);
        assert!(u64::get(&mut r).is_err());
        let mut r = Reader::new(&[9]);
        assert!(bool::get(&mut r).is_err());
        let mut r = Reader::new(&[7]);
        assert!(Option::<u64>::get(&mut r).is_err());
        // A corrupt vec length larger than the payload must not allocate.
        let mut bytes = Vec::new();
        u64::MAX.put(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u8>::get(&mut r).is_err());
        // A receipt whose label is outside the closed table is corrupt,
        // not leaked — as a message label and as a gas-breakdown label.
        let known = Receipt {
            seq: 0,
            sender: Address::from_byte(1),
            label: "commit",
            round: 1,
            gas_used: 21_000,
            status: TxStatus::Ok,
            gas_breakdown: vec![("intrinsic", 21_000)],
        };
        for unknown in [
            Receipt {
                label: "comit",
                ..known.clone()
            },
            Receipt {
                gas_breakdown: vec![("mstore", 3)],
                ..known
            },
        ] {
            let mut bytes = Vec::new();
            unknown.put(&mut bytes);
            assert!(matches!(
                Receipt::get(&mut Reader::new(&bytes)),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn receipt_round_trip_interns_labels() {
        let receipt = Receipt {
            seq: 7,
            sender: Address::from_byte(1),
            label: "commit",
            round: 3,
            gas_used: 21_240,
            status: TxStatus::Reverted("boom".into()),
            gas_breakdown: vec![("intrinsic", 21_240), ("sload", 800)],
        };
        let mut out = Vec::new();
        receipt.put(&mut out);
        let decoded = Receipt::get(&mut Reader::new(&out)).unwrap();
        assert_eq!(decoded, receipt);
        // Known labels come back from the intern table (same static for
        // repeated decodes — no per-decode leak).
        let again = Receipt::get(&mut Reader::new(&out)).unwrap();
        assert!(std::ptr::eq(decoded.label.as_ptr(), again.label.as_ptr()));
    }

    #[test]
    fn ledger_image_is_canonical_and_round_trips() {
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        // Insert in different orders; HashMap iteration would differ.
        for i in 0..50u8 {
            a.mint(Address::from_byte(i), u128::from(i) + 1);
        }
        for i in (0..50u8).rev() {
            b.mint(Address::from_byte(i), u128::from(i) + 1);
        }
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.put(&mut ba);
        b.put(&mut bb);
        // Events differ in order (they reflect mint order) but balances
        // serialize sorted: check balance section by decoding instead.
        let da = Ledger::get(&mut Reader::new(&ba)).unwrap();
        assert_eq!(da, a);
        let db = Ledger::get(&mut Reader::new(&bb)).unwrap();
        assert_eq!(db, b);
        assert_eq!(
            da.accounts_sorted(),
            db.accounts_sorted(),
            "canonical balance order"
        );
    }

    #[test]
    fn checksum_differs_on_flip() {
        let payload = b"round 7 payload";
        let c = checksum(payload);
        let mut flipped = payload.to_vec();
        flipped[3] ^= 0x40;
        assert_ne!(c, checksum(&flipped));
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = std::env::temp_dir().join(format!("dragoon-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir, 0).unwrap();
        // Two good frames...
        for round in 1u64..=2 {
            let mut payload = Vec::new();
            round.put(&mut payload);
            0u64.put(&mut payload);
            Vec::<PendingTx<u64Msg>>::new().put(&mut payload);
            store.append(round, &payload).unwrap();
        }
        // ...then a torn third: append, then truncate mid-payload.
        let mut payload = Vec::new();
        3u64.put(&mut payload);
        0u64.put(&mut payload);
        Vec::<PendingTx<u64Msg>>::new().put(&mut payload);
        store.append(3, &payload).unwrap();
        let log_path = dir.join(LOG_FILE);
        let full = fs::read(&log_path).unwrap();
        let torn = &full[..full.len() - 5];
        fs::write(&log_path, torn).unwrap();
        let records = read_log::<u64Msg>(&dir).unwrap();
        assert_eq!(records.len(), 2, "torn frame discarded");
        assert_eq!(records.last().unwrap().round, 2);
        // Corrupting a byte inside the second frame's payload discards
        // it (and everything after): only the first frame survives.
        // Frames are 8 header + 24 payload bytes here, so frame 2's
        // payload starts at byte 40.
        let mut corrupted = fs::read(&log_path).unwrap();
        corrupted[42] ^= 0xff;
        fs::write(&log_path, &corrupted).unwrap();
        assert_eq!(read_log::<u64Msg>(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The flush cadence belongs to the store, so it reaches a
    /// background writer whichever builder ran first: with a cadence of
    /// 8, three appends leave `blocks.log` empty on disk and the eighth
    /// lands all eight — in both orders. A non-compacting snapshot
    /// publish is the barrier (FIFO behind the frames, and it does not
    /// flush the log).
    #[test]
    fn flush_cadence_reaches_the_background_writer_in_either_builder_order() {
        type Build = fn(BlockStore) -> BlockStore;
        let orders: [(&str, Build); 2] = [
            ("cadence-first", |s| {
                s.with_flush_every(8).with_background_writer(true)
            }),
            ("writer-first", |s| {
                s.with_background_writer(true).with_flush_every(8)
            }),
        ];
        let mut payload = Vec::new();
        1u64.put(&mut payload);
        0u64.put(&mut payload);
        Vec::<PendingTx<u64Msg>>::new().put(&mut payload);
        let frame_len = 8 + payload.len() as u64;
        for (name, build) in orders {
            let dir = std::env::temp_dir().join(format!(
                "dragoon-store-cadence-{name}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            let mut store = build(BlockStore::create(&dir, 0).unwrap());
            let mut log_len_after = |appends: std::ops::RangeInclusive<u64>| {
                let barrier = *appends.end();
                for round in appends {
                    store.append(round, &payload).unwrap();
                }
                store.publish_artifact(barrier, b"barrier", true).unwrap();
                let published = snapshot_path(&dir, barrier);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while !published.exists() {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "{name}: writer stalled"
                    );
                    std::thread::yield_now();
                }
                fs::metadata(dir.join(LOG_FILE)).unwrap().len()
            };
            assert_eq!(
                log_len_after(1..=3),
                0,
                "{name}: flushed before the cadence"
            );
            assert_eq!(log_len_after(4..=8), 8 * frame_len, "{name}: eighth append");
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// An I/O error on the writer stage stops it and stays a value:
    /// with the store directory gone, a snapshot publish fails on the
    /// writer's thread, and the next drain — and every later hand-off —
    /// returns that `StoreError` instead of panicking.
    #[test]
    fn a_failed_background_write_comes_back_from_the_next_drain() {
        let dir =
            std::env::temp_dir().join(format!("dragoon-store-writer-error-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir, 0)
            .unwrap()
            .with_background_writer(true);
        store.append(1, b"payload").unwrap();
        fs::remove_dir_all(&dir).unwrap();
        store.publish_artifact(1, b"snapshot", true).unwrap();
        assert!(matches!(store.drain(), Err(StoreError::Io(_))));
        assert!(matches!(store.drain(), Err(StoreError::Io(_))));
        assert!(matches!(
            store.append(2, b"payload"),
            Err(StoreError::Io(_))
        ));
    }

    /// Every command crosses the channel with the store's handle, so
    /// the writer thread's spans land in it whichever builder ran first.
    #[test]
    fn tracer_reaches_the_background_writer_in_either_builder_order() {
        type Build = fn(BlockStore, Tracer) -> BlockStore;
        let orders: [(&str, Build); 2] = [
            ("tracer-first", |s, t| {
                s.with_tracer(t).with_background_writer(true)
            }),
            ("writer-first", |s, t| {
                s.with_background_writer(true).with_tracer(t)
            }),
        ];
        for (name, build) in orders {
            let dir = std::env::temp_dir().join(format!(
                "dragoon-store-tracer-{name}-{}",
                std::process::id()
            ));
            let tracer = Tracer::full();
            let mut store = build(BlockStore::create(&dir, 0).unwrap(), tracer.clone());
            for round in 1..=3 {
                store.append(round, b"payload").unwrap();
            }
            store.drain().unwrap();
            let (doc, spans) = dragoon_trace::chrome::render_chrome_trace(&tracer);
            assert_eq!(spans, 3, "{name}: one writer span per append");
            assert_eq!(doc.matches("\"name\":\"persist\"").count(), 3, "{name}");
            assert!(doc.contains("\"tid\":1,\"args\":{\"name\":\"dragoon-block-writer\"}"));
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A length prefix is checked against the input and the reservation
    /// is bounded by it: a prefix equal to the bytes behind it passes
    /// the guard and fails on the elements, and however wide the element
    /// is in memory the decoder reserves no more than the input's size.
    #[test]
    fn seq_is_bounded_by_the_input_not_by_its_prefix() {
        let garbage = [0xffu8; 64];
        let mut bytes = Vec::new();
        garbage.len().put(&mut bytes);
        bytes.extend_from_slice(&garbage);
        let mut r = Reader::new(&bytes);
        assert!(
            r.seq(u64::get).is_err(),
            "eight elements in, the input ends"
        );
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(r.seq(u8::get).is_err(), "the prefix exceeds what is left");

        type Wide = PendingTx<[u64; 32]>;
        let wide = std::mem::size_of::<Wide>();
        assert!(wide >= 256);
        assert_eq!(seq_reserve::<Wide>(1 << 20, 1 << 20), (1 << 20) / wide);
        assert_eq!(seq_reserve::<Wide>(3, 1 << 20), 3);
        assert_eq!(seq_reserve::<u8>(64, 64), 64);
        assert_eq!(seq_reserve::<()>(64, 64), 64, "zero-sized elements");
    }

    /// A trivial Persist message for framing tests.
    #[allow(non_camel_case_types)]
    #[derive(Clone, Debug, PartialEq)]
    struct u64Msg(u64);

    impl Persist for u64Msg {
        fn put(&self, out: &mut Vec<u8>) {
            self.0.put(out);
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
            Ok(u64Msg(u64::get(r)?))
        }
    }
}
