//! # dragoon-ledger
//!
//! The cryptocurrency ledger functionality `L` of §III: a transparent
//! global bookkeeping ledger that smart-contract functionalities call as a
//! subroutine for conditional payments.
//!
//! `L` stores a balance for every party and handles exactly the two
//! oracle queries the paper specifies:
//!
//! * **FreezeCoins** — `(freeze, P_i, b)` from a contract `F`: if
//!   `b_i ≥ b`, move `b` from `P_i` into `F`'s escrow and announce
//!   `(frozen, F, P_i, b)` to every entity; otherwise reply
//!   `(nofund, P_i, b)`.
//! * **PayCoins** — `(pay, P_i, b)` from a contract `F`: if `b_F ≥ b`,
//!   move `b` from the escrow to `P_i` and announce `(paid, F, P_i, b)`.
//!
//! Balances are denominated in an abstract integer unit ("wei" in the
//! Ethereum instantiation). All transitions are recorded as
//! [`LedgerEvent`]s — the transparency the paper's blockchain model
//! assumes.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

pub mod address;
pub mod journal;
pub use address::Address;
pub use journal::{Journaled, StateJournal, TouchRecord, TouchSet};

/// An amount of coins (abstract smallest unit).
pub type Amount = u128;

/// Errors returned by ledger operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerError {
    /// The payer's balance is insufficient (`nofund` in the paper).
    InsufficientFunds {
        /// The account that lacked funds.
        account: Address,
        /// The requested amount.
        requested: Amount,
        /// The available balance.
        available: Amount,
    },
    /// An overflow would occur (astronomically large balances).
    Overflow,
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::InsufficientFunds {
                account,
                requested,
                available,
            } => write!(
                f,
                "insufficient funds in {account}: requested {requested}, available {available}"
            ),
            LedgerError::Overflow => write!(f, "balance overflow"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// A transparent record of a ledger transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerEvent {
    /// Coins were minted to an account (test/genesis provisioning).
    Minted {
        /// Receiving account.
        account: Address,
        /// Amount minted.
        amount: Amount,
    },
    /// `(frozen, F, P_i, b)`: a contract froze a party's coins.
    Frozen {
        /// The contract functionality that requested the freeze.
        contract: Address,
        /// The party whose coins were frozen.
        party: Address,
        /// Amount frozen.
        amount: Amount,
    },
    /// `(nofund, P_i, b)`: a freeze failed for lack of funds.
    NoFund {
        /// The party that lacked funds.
        party: Address,
        /// The requested amount.
        amount: Amount,
    },
    /// `(paid, F, P_i, b)`: a contract paid a party from escrow.
    Paid {
        /// The paying contract.
        contract: Address,
        /// The receiving party.
        party: Address,
        /// Amount paid.
        amount: Amount,
    },
    /// A plain transfer between two parties.
    Transferred {
        /// Sender.
        from: Address,
        /// Receiver.
        to: Address,
        /// Amount.
        amount: Amount,
    },
}

/// One undo record of the ledger's transaction journal.
#[derive(Clone, Debug, PartialEq)]
enum LedgerUndo {
    /// `account` held `prior` before this transaction's first write to it
    /// (`None` = no entry existed).
    Balance {
        account: Address,
        prior: Option<Amount>,
    },
    /// One event was appended to the transparent log.
    Event,
}

/// The ledger functionality `L`.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    balances: HashMap<Address, Amount>,
    events: Vec<LedgerEvent>,
    /// Per-transaction undo log: balance writes and event appends are
    /// journaled while a chain transaction is open, so a revert restores
    /// exactly the touched entries instead of a whole-map snapshot.
    journal: StateJournal<LedgerUndo>,
    /// Touched-entry tracking (reads *and* writes) for the optimistic
    /// parallel executor's conflict detection. Disabled on the canonical
    /// ledger; enabled on the [`Ledger::sparse_overlay`] shadows the
    /// executor hands to worker threads.
    touches: TouchSet<Address>,
    /// Accounts whose balance entry was written since the last
    /// [`Ledger::mark_delta_clean`] — the working set an incremental
    /// snapshot encodes instead of the whole balance table. Tracked on
    /// the canonical ledger; shadows carry (and discard) their own.
    dirty: std::collections::BTreeSet<Address>,
    /// Length of `events` at the last [`Ledger::mark_delta_clean`]; the
    /// suffix past it is the event delta since the previous snapshot.
    events_mark: usize,
}

impl PartialEq for Ledger {
    /// Ledger equality compares observable state (balances + event log);
    /// the journal and the touch tracking are transient bookkeeping and
    /// are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.balances == other.balances && self.events == other.events
    }
}

impl Journaled for Ledger {
    fn begin_tx(&mut self) {
        self.journal.begin();
    }

    fn commit_tx(&mut self) {
        self.journal.commit();
    }

    fn rollback_tx(&mut self) {
        for undo in self.journal.drain_rollback() {
            self.apply_undo(undo);
        }
    }
}

/// The captured undo log of *committed* ledger transactions: enough to
/// unwind the commits later (block reorgs in `dragoon-net`), where the
/// plain [`Journaled`] bracket only supports rollback-before-commit.
#[derive(Debug, Default)]
pub struct LedgerCapture(Vec<LedgerUndo>);

impl LedgerCapture {
    /// `true` when the committed transactions touched nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends the capture of the next committed transaction, so one
    /// [`Ledger::revert_capture`] unwinds both — `later` first.
    pub fn absorb(&mut self, later: LedgerCapture) {
        self.0.extend(later.0);
    }
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Commits the open transaction like [`Journaled::commit_tx`], but
    /// returns the undo log instead of discarding it, so the commit can
    /// be unwound later with [`Ledger::revert_capture`].
    pub fn commit_tx_captured(&mut self) -> LedgerCapture {
        LedgerCapture(self.journal.drain_commit())
    }

    /// Unwinds a previously captured commit. Captures must be reverted
    /// in reverse commit order (newest first) — each one replays its
    /// undo entries LIFO, exactly as a pre-commit rollback would have.
    pub fn revert_capture(&mut self, capture: LedgerCapture) {
        for undo in capture.0.into_iter().rev() {
            self.apply_undo(undo);
        }
    }

    /// Applies one undo record (shared by rollback and capture-revert).
    fn apply_undo(&mut self, undo: LedgerUndo) {
        match undo {
            LedgerUndo::Balance { account, prior } => {
                self.dirty.insert(account);
                match prior {
                    Some(amount) => {
                        self.balances.insert(account, amount);
                    }
                    None => {
                        self.balances.remove(&account);
                    }
                }
            }
            LedgerUndo::Event => {
                self.events.pop();
            }
        }
    }

    /// Journals the prior value of `account`'s balance entry before a
    /// write (no-op outside a transaction), and records the write touch.
    fn record_balance(&mut self, account: Address) {
        self.touches.record_write(account);
        self.dirty.insert(account);
        let balances = &self.balances;
        self.journal.record_with(|| LedgerUndo::Balance {
            account,
            prior: balances.get(&account).copied(),
        });
    }

    /// Appends to the transparent event log, journaling the append.
    fn push_event(&mut self, event: LedgerEvent) {
        self.journal.record(LedgerUndo::Event);
        self.events.push(event);
    }

    /// The full balance table in deterministic (address-sorted) order —
    /// the canonical form state snapshots serialize. The internal map is
    /// hashed, so iteration order is not stable across processes; the
    /// sort is what makes a snapshot byte-identical to the one a
    /// recovered replica would write.
    pub fn accounts_sorted(&self) -> Vec<(Address, Amount)> {
        let mut accounts: Vec<(Address, Amount)> =
            self.balances.iter().map(|(a, v)| (*a, *v)).collect();
        accounts.sort_unstable_by_key(|(a, _)| *a);
        accounts
    }

    /// Rebuilds a ledger from snapshot parts: the balance table and the
    /// transparent event log. The journal and touch tracking start idle —
    /// exactly the state of a live ledger between transactions, which is
    /// the only point snapshots are ever taken.
    pub fn from_parts(
        balances: impl IntoIterator<Item = (Address, Amount)>,
        events: Vec<LedgerEvent>,
    ) -> Self {
        Self {
            balances: balances.into_iter().collect(),
            events,
            ..Self::default()
        }
    }

    /// Provisions `amount` new coins to `account` (genesis/testing).
    pub fn mint(&mut self, account: Address, amount: Amount) {
        self.record_balance(account);
        *self.balances.entry(account).or_insert(0) += amount;
        self.push_event(LedgerEvent::Minted { account, amount });
    }

    /// The balance of `account` (zero if never seen).
    pub fn balance(&self, account: &Address) -> Amount {
        self.touches.record_read(*account);
        self.balances.get(account).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Optimistic-concurrency support (parallel block execution)
    // ------------------------------------------------------------------

    /// A shadow ledger for one optimistic execution group: the balance
    /// entries of `accounts` copied from this ledger, an empty event log
    /// (only *new* events accumulate), and touch tracking enabled.
    ///
    /// The preset must cover every entry the group may read — the
    /// executor verifies post-hoc that no touched account outside the
    /// preset had a base entry (such a read would have seen a phantom
    /// zero) and falls back to serial re-execution otherwise.
    pub fn sparse_overlay(&self, accounts: impl IntoIterator<Item = Address>) -> Ledger {
        let mut balances = HashMap::new();
        for account in accounts {
            if let Some(v) = self.balances.get(&account) {
                balances.insert(account, *v);
            }
        }
        Ledger {
            balances,
            events: Vec::new(),
            journal: StateJournal::new(),
            touches: TouchSet::tracking(),
            dirty: std::collections::BTreeSet::new(),
            events_mark: 0,
        }
    }

    /// The raw balance entry of `account` — `None` when no entry exists,
    /// which is observably different from an explicit zero for state
    /// comparison. Used by the executor to validate presets and merge
    /// shadow results; records the touch like any other read.
    pub fn balance_entry(&self, account: &Address) -> Option<Amount> {
        self.touches.record_read(*account);
        self.balances.get(account).copied()
    }

    /// Drains the record of accounts touched since touch tracking began,
    /// reads and writes kept apart. Empty unless the ledger was built by
    /// [`Ledger::sparse_overlay`].
    pub fn take_touched(&mut self) -> TouchRecord<Address> {
        self.touches.take()
    }

    /// Installs a shadow ledger's final entry for `account`: `Some`
    /// overwrites, `None` removes (an entry created and rolled back, or
    /// one that never existed). Bypasses journal and events — merging
    /// happens between transactions, after conflict validation.
    pub fn merge_entry(&mut self, account: Address, entry: Option<Amount>) {
        self.dirty.insert(account);
        match entry {
            Some(v) => {
                self.balances.insert(account, v);
            }
            None => {
                self.balances.remove(&account);
            }
        }
    }

    /// Appends a shadow ledger's event slice to the transparent log (the
    /// executor merges per-transaction slices in schedule order, so the
    /// committed log is identical to serial execution's).
    pub fn append_events(&mut self, events: &[LedgerEvent]) {
        self.events.extend_from_slice(events);
    }

    // ------------------------------------------------------------------
    // Incremental-snapshot support (dirty-entry tracking)
    // ------------------------------------------------------------------

    /// The balance entries written since the last
    /// [`Ledger::mark_delta_clean`], address-sorted, with `None` marking
    /// entries that no longer exist (tombstones). Replaying these over
    /// the previous snapshot's balance table reproduces the current one.
    pub fn delta_entries(&self) -> Vec<(Address, Option<Amount>)> {
        self.dirty
            .iter()
            .map(|a| (*a, self.balances.get(a).copied()))
            .collect()
    }

    /// The events appended since the last [`Ledger::mark_delta_clean`].
    pub fn delta_events(&self) -> &[LedgerEvent] {
        &self.events[self.events_mark..]
    }

    /// Number of dirty balance entries (the delta's working-set size).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Resets the delta baseline: clears the dirty set and marks the
    /// current event-log length. Call after encoding a snapshot (full or
    /// incremental) so the next delta covers only what changes after it.
    pub fn mark_delta_clean(&mut self) {
        self.dirty.clear();
        self.events_mark = self.events.len();
    }

    /// **FreezeCoins**: contract `contract` freezes `amount` from `party`.
    ///
    /// On success the coins move into the contract's escrow balance and a
    /// [`LedgerEvent::Frozen`] is recorded; on failure a
    /// [`LedgerEvent::NoFund`] is recorded and an error returned.
    pub fn freeze(
        &mut self,
        contract: Address,
        party: Address,
        amount: Amount,
    ) -> Result<(), LedgerError> {
        let available = self.balance(&party);
        if available < amount {
            self.push_event(LedgerEvent::NoFund { party, amount });
            return Err(LedgerError::InsufficientFunds {
                account: party,
                requested: amount,
                available,
            });
        }
        self.record_balance(party);
        self.record_balance(contract);
        *self.balances.get_mut(&party).expect("checked above") -= amount;
        *self.balances.entry(contract).or_insert(0) += amount;
        self.push_event(LedgerEvent::Frozen {
            contract,
            party,
            amount,
        });
        Ok(())
    }

    /// **PayCoins**: contract `contract` pays `amount` to `party` out of
    /// its escrow.
    pub fn pay(
        &mut self,
        contract: Address,
        party: Address,
        amount: Amount,
    ) -> Result<(), LedgerError> {
        let escrow = self.balance(&contract);
        if escrow < amount {
            return Err(LedgerError::InsufficientFunds {
                account: contract,
                requested: amount,
                available: escrow,
            });
        }
        self.record_balance(contract);
        self.record_balance(party);
        *self.balances.get_mut(&contract).expect("checked above") -= amount;
        *self.balances.entry(party).or_insert(0) += amount;
        self.push_event(LedgerEvent::Paid {
            contract,
            party,
            amount,
        });
        Ok(())
    }

    /// A plain party-to-party transfer.
    pub fn transfer(
        &mut self,
        from: Address,
        to: Address,
        amount: Amount,
    ) -> Result<(), LedgerError> {
        let available = self.balance(&from);
        if available < amount {
            return Err(LedgerError::InsufficientFunds {
                account: from,
                requested: amount,
                available,
            });
        }
        self.record_balance(from);
        self.record_balance(to);
        *self.balances.get_mut(&from).expect("checked above") -= amount;
        *self.balances.entry(to).or_insert(0) += amount;
        self.push_event(LedgerEvent::Transferred { from, to, amount });
        Ok(())
    }

    /// The transparent event log (every transition, in order).
    pub fn events(&self) -> &[LedgerEvent] {
        &self.events
    }

    /// Total coins in circulation (conservation-law invariant).
    ///
    /// Canonical-ledger only: on a [`Ledger::sparse_overlay`] shadow the
    /// sum would cover just the preset's copied entries, and a whole-map
    /// scan cannot be expressed as a touched-entry set, so contract code
    /// must never guard on it (the debug assertion makes a future misuse
    /// fail loudly in the differential suites instead of silently
    /// committing state that diverges from serial execution).
    pub fn total_supply(&self) -> Amount {
        debug_assert!(
            !self.touches.enabled(),
            "total_supply is not touch-trackable; do not call it on an execution shadow"
        );
        self.balances.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::from_byte(n)
    }

    #[test]
    fn mint_and_balance() {
        let mut l = Ledger::new();
        assert_eq!(l.balance(&addr(1)), 0);
        l.mint(addr(1), 100);
        assert_eq!(l.balance(&addr(1)), 100);
        l.mint(addr(1), 50);
        assert_eq!(l.balance(&addr(1)), 150);
    }

    #[test]
    fn freeze_moves_to_escrow() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        l.freeze(addr(9), addr(1), 60).unwrap();
        assert_eq!(l.balance(&addr(1)), 40);
        assert_eq!(l.balance(&addr(9)), 60);
        assert!(matches!(
            l.events().last(),
            Some(LedgerEvent::Frozen { amount: 60, .. })
        ));
    }

    #[test]
    fn freeze_insufficient_is_nofund() {
        let mut l = Ledger::new();
        l.mint(addr(1), 10);
        let err = l.freeze(addr(9), addr(1), 60).unwrap_err();
        assert_eq!(
            err,
            LedgerError::InsufficientFunds {
                account: addr(1),
                requested: 60,
                available: 10
            }
        );
        // Balance unchanged, NoFund event recorded.
        assert_eq!(l.balance(&addr(1)), 10);
        assert!(matches!(
            l.events().last(),
            Some(LedgerEvent::NoFund { amount: 60, .. })
        ));
    }

    #[test]
    fn pay_from_escrow() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        l.freeze(addr(9), addr(1), 100).unwrap();
        l.pay(addr(9), addr(2), 25).unwrap();
        assert_eq!(l.balance(&addr(2)), 25);
        assert_eq!(l.balance(&addr(9)), 75);
    }

    #[test]
    fn pay_exceeding_escrow_fails() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        l.freeze(addr(9), addr(1), 50).unwrap();
        assert!(l.pay(addr(9), addr(2), 60).is_err());
        assert_eq!(l.balance(&addr(2)), 0);
        assert_eq!(l.balance(&addr(9)), 50);
    }

    #[test]
    fn transfer_between_parties() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        l.transfer(addr(1), addr(2), 30).unwrap();
        assert_eq!(l.balance(&addr(1)), 70);
        assert_eq!(l.balance(&addr(2)), 30);
        assert!(l.transfer(addr(2), addr(1), 31).is_err());
    }

    #[test]
    fn supply_is_conserved() {
        let mut l = Ledger::new();
        l.mint(addr(1), 500);
        l.mint(addr(2), 300);
        let supply = l.total_supply();
        l.freeze(addr(9), addr(1), 200).unwrap();
        l.pay(addr(9), addr(3), 150).unwrap();
        l.transfer(addr(2), addr(1), 100).unwrap();
        assert_eq!(l.total_supply(), supply);
    }

    #[test]
    fn event_order_is_chronological() {
        let mut l = Ledger::new();
        l.mint(addr(1), 10);
        l.freeze(addr(9), addr(1), 5).unwrap();
        l.pay(addr(9), addr(1), 5).unwrap();
        let kinds: Vec<_> = l
            .events()
            .iter()
            .map(|e| match e {
                LedgerEvent::Minted { .. } => "mint",
                LedgerEvent::Frozen { .. } => "freeze",
                LedgerEvent::Paid { .. } => "pay",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["mint", "freeze", "pay"]);
    }

    #[test]
    fn rollback_restores_touched_entries_and_events() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        let baseline = l.clone();
        l.begin_tx();
        l.freeze(addr(9), addr(1), 60).unwrap();
        l.pay(addr(9), addr(2), 25).unwrap();
        l.transfer(addr(2), addr(3), 5).unwrap();
        assert_ne!(l, baseline);
        l.rollback_tx();
        assert_eq!(l, baseline, "rollback must restore balances and events");
        // Accounts created inside the transaction disappear entirely.
        assert_eq!(l.balance(&addr(2)), 0);
        assert_eq!(l.balance(&addr(3)), 0);
        assert_eq!(l.events().len(), 1);
    }

    #[test]
    fn rollback_removes_failed_freeze_nofund_event() {
        let mut l = Ledger::new();
        l.mint(addr(1), 10);
        let baseline = l.clone();
        l.begin_tx();
        assert!(l.freeze(addr(9), addr(1), 60).is_err());
        assert_eq!(l.events().len(), 2, "NoFund recorded inside the tx");
        l.rollback_tx();
        assert_eq!(l, baseline, "the NoFund event is part of the revert");
    }

    #[test]
    fn commit_keeps_mutations_and_reuses_journal() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        l.begin_tx();
        l.freeze(addr(9), addr(1), 60).unwrap();
        l.commit_tx();
        assert_eq!(l.balance(&addr(9)), 60);
        // A later transaction reverts independently of the committed one.
        l.begin_tx();
        l.pay(addr(9), addr(2), 10).unwrap();
        l.rollback_tx();
        assert_eq!(l.balance(&addr(9)), 60);
        assert_eq!(l.balance(&addr(2)), 0);
    }

    #[test]
    fn captured_commits_revert_in_reverse_order() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        let baseline = l.clone();
        // Two committed transactions, each captured.
        l.begin_tx();
        l.freeze(addr(9), addr(1), 60).unwrap();
        let first = l.commit_tx_captured();
        l.begin_tx();
        l.pay(addr(9), addr(2), 25).unwrap();
        l.transfer(addr(2), addr(3), 5).unwrap();
        let second = l.commit_tx_captured();
        let committed = l.clone();
        assert_eq!(l.balance(&addr(3)), 5);
        // Reverting newest-first restores the intermediate, then the
        // original state bit-for-bit.
        l.revert_capture(second);
        assert_eq!(l.balance(&addr(9)), 60);
        assert_eq!(l.balance(&addr(2)), 0);
        l.revert_capture(first);
        assert_eq!(l, baseline, "captured reverts restore the baseline");
        assert_ne!(l, committed);
    }

    #[test]
    fn absorbed_captures_revert_as_one() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        let baseline = l.clone();
        l.begin_tx();
        l.freeze(addr(9), addr(1), 60).unwrap();
        let mut block = l.commit_tx_captured();
        // The second transaction rewrites an account the first one wrote.
        l.begin_tx();
        l.pay(addr(9), addr(2), 25).unwrap();
        l.transfer(addr(2), addr(3), 5).unwrap();
        block.absorb(l.commit_tx_captured());
        l.revert_capture(block);
        assert_eq!(l, baseline, "one revert unwinds both transactions");
    }

    #[test]
    fn sparse_overlay_tracks_reads_and_writes() {
        let mut base = Ledger::new();
        base.mint(addr(1), 100);
        base.mint(addr(9), 50);
        let mut shadow = base.sparse_overlay([addr(1), addr(9)]);
        assert!(
            shadow.events().is_empty(),
            "overlay log holds new events only"
        );
        // A read alone must be touched: guards and revert messages depend
        // on it even when nothing is written.
        assert_eq!(shadow.balance(&addr(1)), 100);
        shadow.pay(addr(9), addr(2), 30).unwrap();
        let touched = shadow.take_touched();
        assert!(
            touched.reads.contains(&addr(1)),
            "read-only access is a read touch"
        );
        assert!(
            touched.writes.contains(&addr(9)) && touched.writes.contains(&addr(2)),
            "payment endpoints are write touches"
        );
        assert!(
            !touched.reads.contains(&addr(9)),
            "a read that precedes a write reports as the write alone"
        );
        // Merging the touched entries reproduces serial execution.
        for a in [addr(1), addr(2), addr(9)] {
            base.merge_entry(a, shadow.balance_entry(&a));
        }
        base.append_events(shadow.events());
        assert_eq!(base.balance(&addr(2)), 30);
        assert_eq!(base.balance(&addr(9)), 20);
        assert_eq!(base.events().len(), 3, "mint, mint, paid");
        // The canonical ledger never tracks.
        assert!(base.take_touched().is_empty());
    }

    #[test]
    fn overlay_rollback_removes_created_entries() {
        let mut base = Ledger::new();
        base.mint(addr(9), 50);
        let mut shadow = base.sparse_overlay([addr(9)]);
        shadow.begin_tx();
        shadow.pay(addr(9), addr(2), 10).unwrap();
        shadow.rollback_tx();
        assert_eq!(shadow.balance_entry(&addr(2)), None, "entry fully undone");
        assert_eq!(shadow.balance_entry(&addr(9)), Some(50));
        assert!(shadow.events().is_empty());
        // merge_entry(None) must not materialize a zero entry.
        base.merge_entry(addr(2), None);
        assert_eq!(base.balance_entry(&addr(2)), None);
    }

    #[test]
    fn delta_entries_track_the_working_set_with_tombstones() {
        let mut l = Ledger::new();
        l.mint(addr(1), 100);
        l.mint(addr(2), 50);
        l.mark_delta_clean();
        assert!(l.delta_entries().is_empty());
        assert!(l.delta_events().is_empty());
        l.transfer(addr(1), addr(3), 10).unwrap();
        let delta = l.delta_entries();
        assert_eq!(delta, vec![(addr(1), Some(90)), (addr(3), Some(10))]);
        assert_eq!(l.delta_events().len(), 1);
        // Replaying the delta over the pre-delta table reproduces the
        // current one.
        let mut base = Ledger::from_parts([(addr(1), 100), (addr(2), 50)], Vec::new());
        for (a, e) in delta {
            base.merge_entry(a, e);
        }
        assert_eq!(base.accounts_sorted(), l.accounts_sorted());
        // A rolled-back transaction still dirties what it touched, and an
        // entry created-then-undone shows up as a tombstone.
        l.mark_delta_clean();
        l.begin_tx();
        l.transfer(addr(2), addr(4), 5).unwrap();
        l.rollback_tx();
        assert_eq!(
            l.delta_entries(),
            vec![(addr(2), Some(50)), (addr(4), None)],
            "rollback leaves the touched set dirty; the vanished entry is a tombstone"
        );
        assert!(l.delta_events().is_empty(), "the event undo popped it");
    }

    #[test]
    fn journaled_rollback_equals_clone_restore_on_random_ops() {
        // Differential: replay a pseudo-random op sequence against a
        // journaled ledger and a cloned snapshot; rollback must equal the
        // snapshot exactly.
        let mut l = Ledger::new();
        for i in 0..8 {
            l.mint(addr(i), (i as u128 + 1) * 50);
        }
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for round in 0..50 {
            let snapshot = l.clone();
            l.begin_tx();
            for _ in 0..(round % 7 + 1) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = addr((x >> 8) as u8 % 8);
                let b = addr((x >> 16) as u8 % 8 + 8);
                let amt = (x >> 24) as u128 % 90;
                match x % 4 {
                    0 => {
                        let _ = l.freeze(b, a, amt);
                    }
                    1 => {
                        let _ = l.pay(b, a, amt);
                    }
                    2 => {
                        let _ = l.transfer(a, b, amt);
                    }
                    _ => l.mint(a, amt),
                }
            }
            if round % 2 == 0 {
                l.rollback_tx();
                assert_eq!(l, snapshot, "round {round}: rollback != clone restore");
            } else {
                l.commit_tx();
            }
        }
    }
}
