//! The transactional state journal: undo-log revert atomicity without
//! whole-state clones.
//!
//! The chain originally provided revert-on-error atomicity by cloning the
//! full contract + ledger before every transaction. With a registry
//! hosting thousands of HIT instances that clone became the dominant
//! simulation cost — every transaction paid for all the state it *didn't*
//! touch. The journal inverts the cost model: state components record an
//! undo entry for each mutation a transaction performs, and a revert
//! replays those entries in LIFO order. Only state actually touched by a
//! transaction pays any cost; a transaction that fails a guard check
//! before mutating anything reverts for free.
//!
//! Two pieces:
//!
//! * [`StateJournal<U>`] — the reusable undo log. Each journaled
//!   component picks its own undo-record type `U` (a prior balance, a
//!   boxed instance snapshot, a created-id marker, …) and appends
//!   records as it mutates. Recording is **off** outside a transaction,
//!   so non-transactional mutations (genesis minting, clock ticks) cost
//!   nothing and leak nothing.
//! * [`Journaled`] — the transaction boundary every chain-hosted state
//!   component implements. The chain brackets each transaction with
//!   [`Journaled::begin_tx`] and exactly one of [`Journaled::commit_tx`]
//!   / [`Journaled::rollback_tx`]; the gas-capped block path uses the
//!   same bracket to roll a *successful* transaction back out of an
//!   overfull block.
//! * [`TouchSet<K>`] — the touched-entry record the optimistic parallel
//!   block executor builds its conflict detection on: while the undo log
//!   captures writes, the touch set additionally captures *reads*, and
//!   keeps the two apart ([`TouchRecord`]) so the executor can let
//!   read-only sharing commute while any write-involved overlap sends
//!   the batch back to serial execution.

use std::cell::RefCell;
use std::collections::BTreeSet;

/// A state component that can bracket mutations into revertible
/// transactions.
///
/// Contract: calls come in strict `begin_tx` → (`commit_tx` |
/// `rollback_tx`) pairs; nesting is not supported (the chain's
/// internal-call mechanism shares the *outer* transaction's journal, as
/// EVM sub-calls share the outer transaction's revert scope).
pub trait Journaled {
    /// Starts recording undo information for subsequent mutations.
    fn begin_tx(&mut self);
    /// Ends the transaction keeping its mutations; discards the undo log.
    fn commit_tx(&mut self);
    /// Ends the transaction reverting every mutation recorded since
    /// [`Journaled::begin_tx`], in LIFO order.
    fn rollback_tx(&mut self);
}

/// The keys one execution group observed, with reads and writes kept
/// apart. Produced by [`TouchSet::take`]; consumed by the parallel block
/// executor's conflict validation: two groups whose records overlap only
/// in reads commute, while an overlap that involves a write on either
/// side makes the optimistic result order-sensitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TouchRecord<K: Ord> {
    /// Keys observed without being written.
    pub reads: BTreeSet<K>,
    /// Keys written (a read-modify-write counts as a write).
    pub writes: BTreeSet<K>,
}

impl<K: Ord> Default for TouchRecord<K> {
    fn default() -> Self {
        Self {
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
        }
    }
}

impl<K: Ord + Copy> TouchRecord<K> {
    /// Every key touched — read or written.
    pub fn all(&self) -> impl Iterator<Item = K> + '_ {
        self.reads.union(&self.writes).copied()
    }

    /// Whether `key` was touched at all.
    pub fn contains(&self, key: &K) -> bool {
        self.reads.contains(key) || self.writes.contains(key)
    }

    /// Whether this record and `other` have an order-sensitive overlap:
    /// a key written by one side and touched (read or written) by the
    /// other. Read-read overlaps commute and do not count.
    pub fn conflicts_with(&self, other: &Self) -> bool {
        !self.writes.is_disjoint(&other.writes)
            || !self.writes.is_disjoint(&other.reads)
            || !self.reads.is_disjoint(&other.writes)
    }

    /// Whether nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// A set of state keys touched — read **or** written — while tracking is
/// enabled. The undo log alone is not enough for optimistic concurrency:
/// it records writes (it exists to revert them), but two transactions
/// also conflict when one *reads* an entry the other writes, because the
/// read value feeds guard checks, revert messages and payout amounts.
/// `TouchSet` closes that gap: journaled components record every key a
/// transaction observes — reads and writes separately — and the parallel
/// block executor compares the per-group [`TouchRecord`]s against the
/// declared access sets and against each other to decide whether
/// optimistic results may commit or the batch must fall back to serial
/// order.
///
/// Reads come through `&self` accessors, so the sets live behind
/// [`RefCell`]s; tracking is off by default and costs one branch when
/// disabled, exactly like [`StateJournal::record`].
#[derive(Clone, Debug)]
pub struct TouchSet<K: Ord> {
    enabled: bool,
    reads: RefCell<BTreeSet<K>>,
    writes: RefCell<BTreeSet<K>>,
}

impl<K: Ord> Default for TouchSet<K> {
    fn default() -> Self {
        Self {
            enabled: false,
            reads: RefCell::new(BTreeSet::new()),
            writes: RefCell::new(BTreeSet::new()),
        }
    }
}

impl<K: Ord + Copy> TouchSet<K> {
    /// A disabled touch set (recording is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// An enabled touch set, recording from the first access.
    pub fn tracking() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether accesses are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one observed key (no-op when disabled). Takes `&self` so
    /// read-only accessors can report their reads.
    pub fn record_read(&self, key: K) {
        if self.enabled {
            self.reads.borrow_mut().insert(key);
        }
    }

    /// Records one written key (no-op when disabled).
    pub fn record_write(&self, key: K) {
        if self.enabled {
            self.writes.borrow_mut().insert(key);
        }
    }

    /// Drains and returns the touch record accumulated since tracking
    /// began (or the last take). Keys both read and written report only
    /// as writes — the stronger access subsumes the weaker.
    pub fn take(&mut self) -> TouchRecord<K> {
        let writes = std::mem::take(&mut *self.writes.borrow_mut());
        let mut reads = std::mem::take(&mut *self.reads.borrow_mut());
        reads.retain(|k| !writes.contains(k));
        TouchRecord { reads, writes }
    }
}

/// A reusable undo log with an explicit recording window.
///
/// While recording, [`StateJournal::record`] appends undo entries; while
/// idle it is a no-op (one branch), so journaled components can call it
/// unconditionally from every mutation site.
#[derive(Clone, Debug, PartialEq)]
pub struct StateJournal<U> {
    recording: bool,
    undo: Vec<U>,
}

impl<U> Default for StateJournal<U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<U> StateJournal<U> {
    /// An idle journal.
    pub fn new() -> Self {
        Self {
            recording: false,
            undo: Vec::new(),
        }
    }

    /// Opens the recording window.
    pub fn begin(&mut self) {
        debug_assert!(!self.recording, "journal transaction already open");
        debug_assert!(self.undo.is_empty(), "stale undo records");
        self.recording = true;
    }

    /// Whether a transaction is currently recording.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Whether no undo entry has been recorded yet this transaction.
    pub fn is_empty(&self) -> bool {
        self.undo.is_empty()
    }

    /// Appends an undo entry if recording (no-op otherwise).
    pub fn record(&mut self, undo: U) {
        if self.recording {
            self.undo.push(undo);
        }
    }

    /// Appends a lazily computed undo entry if recording. Use when
    /// capturing the prior value is not free (e.g. a map lookup).
    pub fn record_with(&mut self, undo: impl FnOnce() -> U) {
        if self.recording {
            self.undo.push(undo());
        }
    }

    /// Closes the window keeping the mutations; the undo log is dropped.
    pub fn commit(&mut self) {
        self.recording = false;
        self.undo.clear();
    }

    /// Closes the window keeping the mutations and returns the undo log
    /// in recording (FIFO) order — for components that must propagate
    /// the commit to sub-journals named by their records.
    pub fn drain_commit(&mut self) -> Vec<U> {
        self.recording = false;
        std::mem::take(&mut self.undo)
    }

    /// Closes the window and returns the undo log in LIFO (replay)
    /// order. The caller applies each entry to restore pre-transaction
    /// state.
    pub fn drain_rollback(&mut self) -> Vec<U> {
        self.recording = false;
        let mut undo = std::mem::take(&mut self.undo);
        undo.reverse();
        undo
    }

    /// Resets to idle, discarding any state (used after a snapshot
    /// restore re-imported a cloned journal).
    pub fn reset(&mut self) {
        self.recording = false;
        self.undo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_journal_records_nothing() {
        let mut j: StateJournal<u32> = StateJournal::new();
        j.record(1);
        j.record_with(|| 2);
        assert!(j.is_empty());
        assert!(!j.recording());
    }

    #[test]
    fn drain_rollback_is_lifo() {
        let mut j = StateJournal::new();
        j.begin();
        j.record(1);
        j.record(2);
        j.record(3);
        assert_eq!(j.drain_rollback(), vec![3, 2, 1]);
        assert!(!j.recording());
        assert!(j.is_empty());
    }

    #[test]
    fn disabled_touch_set_records_nothing() {
        let mut t: TouchSet<u32> = TouchSet::new();
        t.record_read(1);
        t.record_write(2);
        assert!(t.take().is_empty());
        let mut t = TouchSet::tracking();
        t.record_read(2);
        t.record_read(1);
        t.record_write(2);
        let rec = t.take();
        assert_eq!(rec.reads.into_iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(rec.writes.into_iter().collect::<Vec<_>>(), vec![2]);
        assert!(t.take().is_empty(), "take drains");
    }

    #[test]
    fn touch_records_conflict_on_any_write_overlap() {
        let rec = |reads: &[u32], writes: &[u32]| TouchRecord {
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        };
        // Read-read sharing commutes.
        assert!(!rec(&[1, 2], &[]).conflicts_with(&rec(&[2, 3], &[])));
        // Write-write and read-write do not.
        assert!(rec(&[], &[1]).conflicts_with(&rec(&[], &[1])));
        assert!(rec(&[1], &[]).conflicts_with(&rec(&[], &[1])));
        assert!(rec(&[], &[1]).conflicts_with(&rec(&[1], &[])));
        // Disjoint sets never conflict.
        assert!(!rec(&[1], &[2]).conflicts_with(&rec(&[3], &[4])));
        assert!(rec(&[1], &[2]).contains(&1) && rec(&[1], &[2]).contains(&2));
    }

    #[test]
    fn commit_discards_undo() {
        let mut j = StateJournal::new();
        j.begin();
        j.record(7);
        j.commit();
        assert!(j.is_empty());
        assert!(!j.recording());
        // The journal is reusable after commit.
        j.begin();
        j.record(9);
        assert_eq!(j.drain_rollback(), vec![9]);
    }
}
