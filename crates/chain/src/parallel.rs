//! Optimistic parallel block execution over declared access sets, with
//! journal-based conflict detection and one serial backstop.
//!
//! Settlement verification already fans out across threads at the block
//! boundary; this module removes the last big sequential section in the
//! hot path — transaction *execution* within a block. The scheme is
//! optimistic concurrency control specialized to the registry shape:
//!
//! 1. **Declare.** Each scheduled transaction declares an [`AccessSet`]
//!    ([`ParallelStateMachine::access_set`]): the one hosted instance it
//!    writes plus the ledger accounts it reads and writes. A message
//!    that names no existing instance — a creation, or a route to an
//!    unknown id — is a serial **barrier**: it executes alone, in order,
//!    against full state, between batches. A creation registers its
//!    instance only there, so a batch never changes which instances
//!    exist, and a message routed to a fresh id is attributed against
//!    the registry the barrier updated.
//! 2. **Group.** A conflict-graph grouper partitions the batch: any
//!    resource — instance or account — declared written by one
//!    transaction and touched by another joins their groups (union-find);
//!    declared read-read sharing stays parallel. Each group gets owned
//!    shard snapshots of its instances, a [`Ledger::sparse_overlay`]
//!    shadow covering its declared accounts plus its transactions'
//!    senders, and executes its transactions in schedule order on one
//!    thread of the budget. Every
//!    transaction runs through the serial path's own bracket
//!    (`chain::run_tx` — intrinsic gas, journal bracket, revert
//!    handling, receipt), not a copy of it: the group only supplies the
//!    shard and the shadow ledger in place of the contract and the
//!    canonical ledger, and commits each success at once.
//! 3. **Validate, once.** Shadow ledgers record the observed touch sets,
//!    reads and writes apart ([`dragoon_ledger::TouchRecord`]). The
//!    batch stands iff no group escaped its declared preset (it read a
//!    phantom zero for an account whose base entry exists) and no two
//!    groups' observed records overlap on a write. Otherwise the one
//!    **serial backstop** runs: the optimistic results — which only ever
//!    lived on private copies — are dropped and the whole batch
//!    re-executes in mempool order. No seeded market reaches it
//!    (`tests/marketplace.rs` pins that), so there is no cheaper partial
//!    recovery to maintain.
//!    A mid-batch block-gas overflow (receipts simulated in schedule
//!    order) is the one recovery with traffic and keeps its own path: it
//!    commits the schedule-order prefix of whole groups that fit and
//!    re-executes only the cut suffix serially, which re-derives the
//!    exact gas-capped carry-over — byte-identical to the serial cut.
//! 4. **Merge.** Standing groups are pairwise disjoint on every written
//!    resource, so shard installs and written balance entries commute;
//!    receipts, contract events and ledger events merge in schedule
//!    order. The committed state is therefore **bit-identical to serial
//!    execution regardless of thread count** — the property
//!    `tests/parallel_equivalence.rs` pins.
//!
//! The run's thread budget has two halves, both here. A count resolves
//! through [`resolve_threads`] once, where a run starts: an explicit
//! setting wins, else the host's available parallelism (the library
//! reads no environment for it). And every fan-out that spends it —
//! conflict groups, settlement verification, proving, snapshot
//! encoding — goes through [`par_map`], so a budget of *n* means *n*
//! running threads, the caller included, wherever it is spent.

use crate::chain::{run_tx, Block, Chain, ExecEnv, Receipt, StateMachine};
use crate::gas::{Gas, GasSchedule};
use crate::mempool::{PendingTx, ReorderPolicy};
use dragoon_ledger::{Address, Journaled, Ledger, TouchRecord};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

/// What a message declares it may touch, before execution: the
/// instance it writes and the ledger accounts it reads and writes, from
/// which the scheduler builds conflict groups. Declarations must
/// *over-approximate reads* that feed guards (every declared account is
/// copied into the group's shadow ledger) but may under-approximate
/// outcome-dependent writes: an observed overlap between groups, or a
/// touch outside the preset, sends the batch to serial execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// The hosted instance written (the routing target); `None` for a
    /// serial barrier.
    instance: Option<u64>,
    /// Ledger accounts read (guards, potential outcome-dependent
    /// payees).
    pub account_reads: Vec<Address>,
    /// Ledger accounts written.
    pub account_writes: Vec<Address>,
}

impl AccessSet {
    /// A message that cannot be attributed to an existing instance:
    /// executes serially, in order, between parallel batches.
    pub fn global() -> Self {
        Self::default()
    }

    /// A message writing the hosted instance `key`.
    pub fn instance(key: u64) -> Self {
        Self {
            instance: Some(key),
            ..Self::default()
        }
    }

    /// Adds declared account reads.
    pub fn reads_accounts(mut self, accounts: impl IntoIterator<Item = Address>) -> Self {
        self.account_reads.extend(accounts);
        self
    }

    /// Adds declared account writes.
    pub fn writes_accounts(mut self, accounts: impl IntoIterator<Item = Address>) -> Self {
        self.account_writes.extend(accounts);
        self
    }
}

/// A [`StateMachine`] whose state shards by hosted instance, enabling
/// optimistic parallel execution. Implementations must reproduce the
/// serial `on_message` semantics *exactly* on a shard — same gas
/// charges in the same order, same events, same error strings — because
/// the differential guarantee is bit-identical receipts.
pub trait ParallelStateMachine: StateMachine {
    /// One extracted instance: an owned, thread-movable copy of the
    /// state a group of transactions may mutate. [`Journaled`], because
    /// the executor runs every transaction of a group through the same
    /// bracket the chain puts around `on_message`.
    type Shard: Journaled + Send;

    /// Declares the access set of a message against current state.
    /// Messages that create an instance or address an unknown one must
    /// return [`AccessSet::global`]: they execute serially, so instances
    /// come into existence only between batches.
    fn access_set(&self, msg: &Self::Msg) -> AccessSet;

    /// Clones the instance behind `key` into a shard (`None` if the key
    /// vanished — the executor then falls back to serial execution).
    fn shard_snapshot(&self, key: u64) -> Option<Self::Shard>;

    /// Installs an executed shard back, replacing the instance state.
    /// Only shards of a batch that stood are installed.
    fn shard_install(&mut self, key: u64, shard: Self::Shard);

    /// Handles one instance-addressed message against the shard — what
    /// `on_message` does for the instance behind it. Called inside the
    /// shard's open journal bracket.
    fn shard_on_message(
        shard: &mut Self::Shard,
        env: &mut ExecEnv<'_, Self::Event>,
        sender: Address,
        msg: Self::Msg,
    ) -> Result<(), Self::Error>;
}

/// Counters describing how the parallel executor ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Transactions whose optimistic parallel results committed.
    pub parallel_txs: usize,
    /// Transactions executed serially (global barriers, single-group
    /// batches, and fallback re-executions).
    pub serial_txs: usize,
    /// Parallel batches whose results committed.
    pub batches: usize,
    /// Conflict groups formed across committed batches.
    pub groups: usize,
    /// Serial-barrier transactions: messages declared
    /// [`AccessSet::global`] — instance creations and unknown-instance
    /// routes. In a market that is one per `Create`.
    pub barriers: usize,
    /// Always 0: the partial re-execution it counted is gone (every
    /// failed validation is a [`ParallelStats::conflict_fallbacks`]).
    /// The field stays until the benchmark stops reading it.
    pub selective_retries: usize,
    /// Always 0, kept for the benchmark like
    /// [`ParallelStats::selective_retries`].
    pub create_retries: usize,
    /// Batches that failed validation — a group escaped its declared
    /// preset, or two groups' observed touches overlapped on a write —
    /// and re-executed serially.
    pub conflict_fallbacks: usize,
    /// Batches discarded because the block gas limit cut the batch
    /// before any whole group fit — re-executed serially to reproduce
    /// exact carry-over semantics.
    pub gas_fallbacks: usize,
    /// Mid-batch block-gas cuts where the prefix of groups fitting the
    /// block committed optimistically and only the cut suffix
    /// re-executed serially.
    pub gas_prefix_commits: usize,
}

impl ParallelStats {
    /// The scheduler's counters as one registry [`MetricSet`]; its
    /// object view is the `SCHEDULER:` report line.
    pub fn metric_set(&self) -> dragoon_trace::MetricSet {
        dragoon_trace::MetricSet::new("scheduler")
            .int("parallel_txs", self.parallel_txs as u64)
            .int("serial_txs", self.serial_txs as u64)
            .int("batches", self.batches as u64)
            .int("groups", self.groups as u64)
            .int("barriers", self.barriers as u64)
            .int("conflict_fallbacks", self.conflict_fallbacks as u64)
            .int("gas_fallbacks", self.gas_fallbacks as u64)
            .int("gas_prefix_commits", self.gas_prefix_commits as u64)
    }
}

/// Resolves a thread count: `explicit` if non-zero, else the host's
/// available parallelism.
pub fn resolve_threads(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` threads and returns the
/// results in input order — the one fan-out every user of the thread
/// budget goes through.
///
/// Work-stealing: workers take the next item off one shared queue, so
/// skewed item costs (one busy instance can dominate a block) do not
/// idle a thread behind a static partition. The calling thread is
/// worker 0 — a fan-out spawns one thread fewer than it uses — and a
/// budget of one, or a single item, runs on the caller without
/// spawning. A panic inside `f` is re-raised on the caller with its
/// original payload.
pub fn par_map<I: Send, R: Send>(
    threads: usize,
    items: Vec<I>,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The lock covers only the hand-out, never a running item,
            // so a panicking item cannot poison it.
            let next = queue.lock().expect("no item runs under the lock").next();
            let Some((i, item)) = next else { break };
            done.push((i, f(item)));
        }
        done
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            match handle.join() {
                Ok(chunk) => done.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One scheduled transaction of a batch, with its declared access.
struct BatchTx<M> {
    /// Position within the round's schedule (the merge order).
    pos: usize,
    /// The instance whose shard executes it.
    key: u64,
    access: AccessSet,
    tx: PendingTx<M>,
}

/// The outcome of one optimistically executed transaction, held until
/// the batch validates.
struct TxOutcome<S: StateMachine> {
    /// Position within the round's schedule (the merge order).
    pos: usize,
    receipt: Receipt,
    /// Contract events the transaction emitted (empty on revert).
    events: Vec<S::Event>,
    /// The half-open range of the group shadow's ledger-event log this
    /// transaction appended.
    ledger_events: (usize, usize),
}

/// One conflict group's workspace: the shards of every instance it
/// declares, the shadow ledger, the transactions (schedule position +
/// payload) and, after execution, the outcomes and the observed touch
/// record.
struct GroupRun<S: ParallelStateMachine> {
    /// One shard per declared instance; all install back on commit.
    shards: BTreeMap<u64, S::Shard>,
    ledger: Ledger,
    preset: BTreeSet<Address>,
    txs: Vec<BatchTx<S::Msg>>,
    outcomes: Vec<TxOutcome<S>>,
    touched: TouchRecord<Address>,
}

impl<S: ParallelStateMachine> GroupRun<S> {
    /// Schedule position of the group's first transaction — the order
    /// groups are kept in between executions.
    fn first_pos(&self) -> usize {
        self.txs.first().map_or(usize::MAX, |btx| btx.pos)
    }

    /// Schedule position of the group's last transaction.
    fn last_pos(&self) -> usize {
        self.txs.last().map_or(0, |btx| btx.pos)
    }
}

/// Executes one group's transactions in schedule order against its
/// shards and shadow ledger — the body each worker thread runs. Every
/// transaction goes through [`run_tx`], the bracket the serial path
/// uses, and a success commits at once (groups are discarded whole when
/// validation fails, never unwound).
fn run_group<S: ParallelStateMachine>(
    group: &mut GroupRun<S>,
    round: u64,
    schedule: &GasSchedule,
    contract_addr: Address,
) {
    for btx in &group.txs {
        let shard = group
            .shards
            .get_mut(&btx.key)
            .expect("group holds every declared shard");
        let ev_start = group.ledger.events().len();
        let (receipt, events) = run_tx(
            shard,
            &mut group.ledger,
            schedule,
            round,
            contract_addr,
            btx.tx.clone(),
            S::shard_on_message,
        );
        if events.is_some() {
            shard.commit_tx();
            group.ledger.commit_tx();
        }
        group.outcomes.push(TxOutcome {
            pos: btx.pos,
            receipt,
            events: events.unwrap_or_default(),
            ledger_events: (ev_start, group.ledger.events().len()),
        });
    }
    group.touched = group.ledger.take_touched();
}

/// A plain union-find over `0..n`.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// A resource in the conflict graph: a hosted instance or a ledger
/// account.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Resource {
    Instance(u64),
    Account(Address),
}

impl<S> Chain<S>
where
    S: ParallelStateMachine,
    S::Msg: Send,
    S::Event: Send,
{
    /// Advances one round with optimistic parallel execution over
    /// declared access sets. Committed state — receipts, events, ledger,
    /// contract, mempool carry-over — is bit-identical to
    /// [`Chain::advance_round`] for every thread count; with one
    /// executor thread it *is* the serial path.
    pub fn advance_round_parallel(&mut self, policy: &mut dyn ReorderPolicy<S::Msg>) -> &Block {
        if self.exec_threads <= 1 {
            return self.advance_round(policy);
        }
        let mut queue: VecDeque<PendingTx<S::Msg>> = self.begin_round(policy).into();
        let mut receipts = Vec::new();
        let mut block_gas: Gas = 0;
        let mut carried: Vec<PendingTx<S::Msg>> = Vec::new();
        let mut pos = 0;
        'round: while !queue.is_empty() {
            // Accumulate the maximal run of attributable transactions
            // into one batch.
            let mut batch: Vec<BatchTx<S::Msg>> = Vec::new();
            while let Some(tx) = queue.front() {
                let access = self.contract.access_set(&tx.msg);
                let Some(key) = access.instance else { break };
                batch.push(BatchTx {
                    pos,
                    key,
                    access,
                    tx: queue.pop_front().expect("front exists"),
                });
                pos += 1;
            }
            if !batch.is_empty() {
                if !self.execute_batch(batch, &mut block_gas, &mut receipts, &mut carried) {
                    break 'round;
                }
                continue;
            }
            // The front transaction is a serial barrier: it executes
            // alone, in order, against full contract state.
            let tx = queue.pop_front().expect("checked non-empty");
            pos += 1;
            self.parallel_stats.serial_txs += 1;
            self.parallel_stats.barriers += 1;
            if !self.execute_tx_into_block(tx, &mut block_gas, &mut receipts, &mut carried) {
                break 'round;
            }
        }
        // A full block carries everything not yet executed, in order.
        carried.extend(queue);
        self.seal_block(receipts, carried)
    }

    /// Executes one batch of attributed transactions, in parallel when
    /// the grouper finds several disjoint groups. Returns `false` when
    /// the block gas limit stopped the batch (remaining transactions
    /// were pushed to `carried` by the serial fallback).
    fn execute_batch(
        &mut self,
        batch: Vec<BatchTx<S::Msg>>,
        block_gas: &mut Gas,
        receipts: &mut Vec<Receipt>,
        carried: &mut Vec<PendingTx<S::Msg>>,
    ) -> bool {
        let mut groups = match self.assemble_groups(batch) {
            Ok(groups) => groups,
            Err(batch) => {
                return self.execute_batch_serial(batch, block_gas, receipts, carried);
            }
        };

        let round = self.round;
        let schedule = &self.schedule;
        let contract_addr = self.contract_addr;

        // Fan the groups out over the thread budget, largest first
        // (group sizes are skewed — one busy instance can dominate a
        // block — so the big ones must not start last). Which thread
        // runs a group cannot affect results; groups are independent
        // until validation.
        groups.sort_by_key(|g| std::cmp::Reverse(g.txs.len()));
        let mut groups = par_map(self.exec_threads, groups, |mut group| {
            run_group::<S>(&mut group, round, schedule, contract_addr);
            group
        });
        groups.sort_by_key(GroupRun::first_pos);

        // The one validation pass. The batch stands iff
        // - no group touched an account outside its declared preset that
        //   has a base entry (its shadow read a phantom zero), and
        // - no two groups' touch records overlap on a write (their
        //   optimistic results would be order-sensitive).
        // Anything else drops the optimistic results — main state is
        // untouched, they lived on private copies — and re-executes the
        // whole batch serially in mempool order.
        let escaped = groups.iter().any(|g| {
            g.touched
                .all()
                .any(|addr| !g.preset.contains(&addr) && self.ledger.balance_entry(&addr).is_some())
        });
        let conflicting = groups.iter().enumerate().any(|(i, g)| {
            groups[i + 1..]
                .iter()
                .any(|h| g.touched.conflicts_with(&h.touched))
        });
        if escaped || conflicting {
            self.parallel_stats.conflict_fallbacks += 1;
            let batch = collect_batch(groups, None);
            return self.execute_batch_serial(batch, block_gas, receipts, carried);
        }

        // Gas-cap cut detection: replay the receipts' gas in schedule
        // order against the block under construction. A cut means the
        // serial path would have stopped mid-batch. Instead of
        // discarding everything, commit the schedule-order prefix of
        // *whole groups* that fits below the cut (their optimistic
        // results are serial-identical — the batch just validated
        // conflict-free) and re-execute only the suffix serially, which
        // re-derives the exact cut and carry-over.
        let cut_pos: Option<usize> = self.block_gas_limit.and_then(|limit| {
            let mut outcomes: Vec<&TxOutcome<S>> =
                groups.iter().flat_map(|g| g.outcomes.iter()).collect();
            outcomes.sort_by_key(|o| o.pos);
            let mut gas = *block_gas;
            let mut nonempty = !receipts.is_empty();
            for o in outcomes {
                if gas + o.receipt.gas_used > limit && nonempty {
                    return Some(o.pos);
                }
                gas += o.receipt.gas_used;
                nonempty = true;
            }
            None
        });
        if let Some(cut) = cut_pos {
            // Shrink the cut to a group-closure prefix: a group with
            // transactions on both sides of the boundary cannot commit
            // (its shards reflect *all* its transactions), so the
            // boundary retreats to its first position until every group
            // lies entirely on one side.
            let mut prefix_end = cut;
            while let Some(straddler) = groups
                .iter()
                .find(|g| g.first_pos() < prefix_end && g.last_pos() >= prefix_end)
            {
                prefix_end = straddler.first_pos();
            }
            let (commit, rest): (Vec<GroupRun<S>>, Vec<GroupRun<S>>) =
                groups.into_iter().partition(|g| g.last_pos() < prefix_end);
            if commit.is_empty() {
                // The straddling group reaches back to the batch start:
                // nothing can commit, so the whole batch falls back.
                self.parallel_stats.gas_fallbacks += 1;
                let batch = collect_batch(rest, None);
                return self.execute_batch_serial(batch, block_gas, receipts, carried);
            }
            self.parallel_stats.gas_prefix_commits += 1;
            self.commit_groups(commit, block_gas, receipts);
            let batch = collect_batch(rest, None);
            return self.execute_batch_serial(batch, block_gas, receipts, carried);
        }

        self.commit_groups(groups, block_gas, receipts);
        true
    }

    /// Merges validated groups into chain state. Groups are pairwise
    /// disjoint on every written resource, so shard installs and balance
    /// merges commute; receipts and both event streams merge in schedule
    /// order, making the committed block byte-identical to serial
    /// execution.
    fn commit_groups(
        &mut self,
        mut groups: Vec<GroupRun<S>>,
        block_gas: &mut Gas,
        receipts: &mut Vec<Receipt>,
    ) {
        self.parallel_stats.batches += 1;
        self.parallel_stats.groups += groups.len();
        self.parallel_stats.parallel_txs += groups.iter().map(|g| g.txs.len()).sum::<usize>();
        for g in &groups {
            for addr in &g.touched.writes {
                self.ledger.merge_entry(*addr, g.ledger.balance_entry(addr));
            }
        }
        let mut merged: Vec<(usize, usize, usize)> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            for (oi, o) in g.outcomes.iter().enumerate() {
                merged.push((o.pos, gi, oi));
            }
        }
        merged.sort_unstable();
        for (_, gi, oi) in merged {
            let (a, b) = groups[gi].outcomes[oi].ledger_events;
            let events = std::mem::take(&mut groups[gi].outcomes[oi].events);
            let receipt = groups[gi].outcomes[oi].receipt.clone();
            *block_gas += receipt.gas_used;
            receipts.push(receipt);
            if self.record_block_txs {
                self.last_block_txs.push(groups[gi].txs[oi].tx.clone());
            }
            for e in events {
                self.events.push((self.round, e));
            }
            self.ledger.append_events(&groups[gi].ledger.events()[a..b]);
        }
        for g in groups {
            for (key, shard) in g.shards {
                self.contract.shard_install(key, shard);
            }
        }
    }

    /// Builds the conflict groups for a batch: union-find over declared
    /// resources (any resource with a declared writer joins every
    /// transaction touching it), then one workspace per group with shard
    /// snapshots, the account preset (declared accounts plus transaction
    /// senders) and a sparse shadow ledger. `Err(batch)` when the batch
    /// should execute serially instead: it forms fewer than two groups
    /// (inherently sequential — no workspace is built) or a declared
    /// instance cannot be sharded (vanished id).
    #[allow(clippy::type_complexity)]
    fn assemble_groups(
        &self,
        batch: Vec<BatchTx<S::Msg>>,
    ) -> Result<Vec<GroupRun<S>>, Vec<BatchTx<S::Msg>>> {
        let mut members = group_by_declared_conflicts(batch);
        if members.len() < 2 {
            // A single group (one hot instance, or one conflict
            // component) is inherently sequential: hand the batch back
            // for serial execution before paying for shard snapshots and
            // ledger overlays it would never use.
            return Err(members.into_iter().flatten().collect());
        }
        let mut groups: Vec<GroupRun<S>> = Vec::with_capacity(members.len());
        let mut failed = false;
        for slot in members.iter_mut() {
            match self.build_group(std::mem::take(slot)) {
                Ok(g) => groups.push(g),
                Err(txs) => {
                    *slot = txs;
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            return Err(collect_batch(groups, members.into_iter().flatten()));
        }
        Ok(groups)
    }

    /// Builds one group's workspace from its transactions (already in
    /// schedule order). On a vanished declared instance, hands the
    /// transactions back so the caller can fall back serially.
    fn build_group(&self, txs: Vec<BatchTx<S::Msg>>) -> Result<GroupRun<S>, Vec<BatchTx<S::Msg>>> {
        let mut keys: BTreeSet<u64> = BTreeSet::new();
        let mut preset: BTreeSet<Address> = BTreeSet::new();
        for btx in &txs {
            keys.insert(btx.key);
            preset.extend(btx.access.account_reads.iter().copied());
            preset.extend(btx.access.account_writes.iter().copied());
            preset.insert(btx.tx.sender);
        }
        let mut shards: BTreeMap<u64, S::Shard> = BTreeMap::new();
        for key in keys {
            match self.contract.shard_snapshot(key) {
                Some(shard) => shards.insert(key, shard),
                None => return Err(txs),
            };
        }
        let ledger = self.ledger.sparse_overlay(preset.iter().copied());
        Ok(GroupRun {
            shards,
            ledger,
            preset,
            txs,
            outcomes: Vec::new(),
            touched: TouchRecord::default(),
        })
    }

    /// The serial path for a batch: also used as the conflict / gas-
    /// overflow fallback. Returns `false` when the block filled up.
    fn execute_batch_serial(
        &mut self,
        batch: Vec<BatchTx<S::Msg>>,
        block_gas: &mut Gas,
        receipts: &mut Vec<Receipt>,
        carried: &mut Vec<PendingTx<S::Msg>>,
    ) -> bool {
        let mut batch = batch.into_iter();
        for btx in batch.by_ref() {
            self.parallel_stats.serial_txs += 1;
            if !self.execute_tx_into_block(btx.tx, block_gas, receipts, carried) {
                // The block is full: the overflowing transaction is
                // already in `carried`; the rest of the batch follows
                // it, in order, exactly as the serial path carries the
                // remaining deliveries.
                carried.extend(batch.map(|btx| btx.tx));
                return false;
            }
        }
        true
    }
}

/// Flattens groups — plus any `loose` transactions no group holds — back
/// into one schedule-ordered batch, for serial re-execution.
fn collect_batch<S: ParallelStateMachine>(
    groups: Vec<GroupRun<S>>,
    loose: impl IntoIterator<Item = BatchTx<S::Msg>>,
) -> Vec<BatchTx<S::Msg>> {
    let mut batch: Vec<BatchTx<S::Msg>> = groups
        .into_iter()
        .flat_map(|g| g.txs)
        .chain(loose)
        .collect();
    batch.sort_by_key(|btx| btx.pos);
    batch
}

/// Partitions a batch into its declared conflict components: union-find
/// over declared resources — any resource with a declared writer joins
/// every transaction touching it; read-only sharing stays parallel. Each
/// component's transactions come back in schedule order.
fn group_by_declared_conflicts<M>(batch: Vec<BatchTx<M>>) -> Vec<Vec<BatchTx<M>>> {
    let mut uf = UnionFind::new(batch.len());
    let mut writers: BTreeMap<Resource, Vec<usize>> = BTreeMap::new();
    let mut readers: BTreeMap<Resource, Vec<usize>> = BTreeMap::new();
    for (ti, btx) in batch.iter().enumerate() {
        writers
            .entry(Resource::Instance(btx.key))
            .or_default()
            .push(ti);
        for addr in &btx.access.account_writes {
            writers
                .entry(Resource::Account(*addr))
                .or_default()
                .push(ti);
        }
        for addr in &btx.access.account_reads {
            readers
                .entry(Resource::Account(*addr))
                .or_default()
                .push(ti);
        }
    }
    for (res, ws) in &writers {
        let first = ws[0];
        for &w in &ws[1..] {
            uf.union(first, w);
        }
        if let Some(rs) = readers.get(res) {
            for &r in rs {
                uf.union(first, r);
            }
        }
    }
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut members: Vec<Vec<BatchTx<M>>> = Vec::new();
    for (ti, btx) in batch.into_iter().enumerate() {
        let root = uf.find(ti);
        let gi = *index.entry(root).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[gi].push(btx);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::{par_map, resolve_threads};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// Runs `body` on a helper thread and fails, instead of hanging,
    /// when it does not finish: items that rendezvous on a barrier
    /// deadlock if the fan-out runs them one after another.
    fn within_deadline<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        thread::spawn(move || {
            let _ = tx.send(body());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(out) => out,
            Err(RecvTimeoutError::Timeout) => {
                panic!("fan-out deadlocked: barrier items did not run concurrently")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("the fan-out panicked"),
        }
    }

    /// Burns CPU proportional to `units` without sleeping.
    fn spin(units: u64) -> u64 {
        (0..units * 1_000).fold(0u64, |acc, i| std::hint::black_box(acc ^ i))
    }

    #[test]
    fn results_come_back_in_input_order_under_skewed_costs() {
        // Every seventh item costs ~100× the rest, so workers finish
        // far out of input order.
        let items: Vec<u64> = (0..96).collect();
        let cost = |i: u64| if i.is_multiple_of(7) { 200 } else { 2 };
        let expected: Vec<u64> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = par_map(threads, items.clone(), |i| {
                spin(cost(i));
                i * 3
            });
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn zero_resolves_to_the_host_and_a_count_to_itself() {
        let host = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), host);
        for threads in [1, 4, 8] {
            assert_eq!(resolve_threads(threads), threads);
        }
    }

    #[test]
    fn empty_input_is_an_empty_output() {
        for threads in [0, 1, 4] {
            assert!(par_map(threads, Vec::<u8>::new(), |b| b).is_empty());
        }
    }

    #[test]
    fn a_budget_of_one_or_a_single_item_runs_on_the_caller() {
        let here = thread::current().id();
        let ids = par_map(1, vec![(); 8], |()| thread::current().id());
        assert_eq!(ids, vec![here; 8], "a budget of one spawns nothing");
        let ids = par_map(8, vec![()], |()| thread::current().id());
        assert_eq!(ids, [here], "a single item spawns nothing");
    }

    #[test]
    fn the_caller_is_a_worker() {
        for threads in [2usize, 4] {
            let (caller, ids) = within_deadline(move || {
                // One item per thread, each waiting for all the others:
                // the map completes only with `threads` threads running.
                let barrier = Barrier::new(threads);
                let ids: Vec<ThreadId> = par_map(threads, vec![(); threads], |()| {
                    barrier.wait();
                    thread::current().id()
                });
                (thread::current().id(), ids)
            });
            let distinct: HashSet<&ThreadId> = ids.iter().collect();
            assert_eq!(distinct.len(), threads, "one thread per item");
            assert!(ids.contains(&caller), "the calling thread is worker 0");
        }
    }

    #[test]
    fn never_more_items_in_flight_than_the_budget() {
        for threads in [1usize, 2, 3] {
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            par_map(threads, vec![(); 64], |()| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                spin(20);
                thread::yield_now();
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
            let peak = high_water.load(Ordering::SeqCst);
            assert!(peak <= threads, "{peak} items in flight on {threads}");
        }
    }

    /// A panic inside an item reaches the caller of `par_map` with its
    /// own message, whichever thread the item ran on: the calling thread
    /// (a budget of one, or worker 0 of the fan-out) or a spawned worker.
    #[test]
    fn a_panicking_item_keeps_its_message() {
        const MESSAGE: &str = "hit #7: escrow underflow";
        for (threads, panic_on_caller) in [(1usize, true), (4, true), (4, false)] {
            let message = within_deadline(move || {
                let caller = thread::current().id();
                // One item per thread, so exactly one runs on the caller.
                let barrier = Barrier::new(threads);
                let payload = std::panic::catch_unwind(|| {
                    par_map(threads, vec![(); threads], |()| {
                        barrier.wait();
                        if (thread::current().id() == caller) == panic_on_caller {
                            panic!("{MESSAGE}");
                        }
                    })
                })
                .expect_err("the map must panic");
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .expect("a panic message")
            });
            assert_eq!(
                message, MESSAGE,
                "{threads} threads, panic on caller: {panic_on_caller}"
            );
        }
    }
}
