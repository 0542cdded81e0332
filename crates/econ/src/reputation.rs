//! Cross-HIT worker reputation: a decaying per-worker score fed by
//! settlement receipts.
//!
//! Nothing in the contract layer persists across HIT instances — each
//! `C_hit` settles and closes. The [`ReputationBook`] is the first piece
//! of cross-instance state: every settlement receipt a HIT emits
//! ([`dragoon_contract::SettlementReceipt`]) moves its worker's score
//! (paid up, rejected or defaulted down), scores decay multiplicatively
//! per block toward neutral, and the marketplace engine consults the
//! book to *gate* commit eligibility and to *order* worker selection —
//! high-reputation workers get first claim on fresh commit slots.
//!
//! Scores are plain `f64`s updated by a deterministic sequence of
//! operations derived from chain state, so two runs of the same seeded
//! market — at any executor thread count — produce bit-identical books.

use dragoon_contract::{RejectReason, Settlement, SettlementReceipt};
use dragoon_ledger::Address;
use std::collections::BTreeMap;

/// Per-block multiplicative decay toward the neutral score 0 (≈ a
/// half-life of 140 blocks).
const DECAY: f64 = 0.995;
/// Score delta for a paid settlement.
const PAID_DELTA: f64 = 1.0;
/// Score delta for a proof-backed rejection (low quality or out of
/// range) — the strongest negative signal.
const REJECTED_DELTA: f64 = -2.5;
/// Score delta for a commit-without-reveal default.
const NO_REVEAL_DELTA: f64 = -1.5;
/// Workers whose decayed score sits below this floor are barred from
/// committing to new HITs (when scores steer the market).
const COMMIT_FLOOR: f64 = -3.0;

/// How the reputation book acts on the market.
#[derive(Clone, Copy, Debug)]
pub struct ReputationParams {
    /// Whether scores steer the market: commit-slot candidates are
    /// ordered by score (highest first, replacing the default rotation)
    /// and workers below the commit floor are barred. Off, the book only
    /// observes.
    pub steer: bool,
}

impl Default for ReputationParams {
    fn default() -> Self {
        Self { steer: true }
    }
}

/// One worker's reputation entry.
#[derive(Clone, Copy, Debug)]
struct RepEntry {
    /// Score at `as_of` (decay is applied lazily on read).
    score: f64,
    /// The round the score was last brought current.
    as_of: u64,
}

/// The cross-HIT reputation book.
#[derive(Clone, Debug)]
pub struct ReputationBook {
    params: ReputationParams,
    scores: BTreeMap<Address, RepEntry>,
    /// Receipts absorbed (for reporting).
    observed: u64,
    /// Reads at a round earlier than the entry's `as_of` — the round
    /// clock is monotone, so this can never happen on a healthy run.
    /// Debug builds assert it; release builds count it here (a `Cell`
    /// because scoring is a read path) instead of silently treating the
    /// backwards read as `dt = 0`. Always 0.
    decay_violations: std::cell::Cell<u64>,
}

impl ReputationBook {
    /// An empty book.
    pub fn new(params: ReputationParams) -> Self {
        Self {
            params,
            scores: BTreeMap::new(),
            observed: 0,
            decay_violations: std::cell::Cell::new(0),
        }
    }

    /// Brings `entry` current to `round` under lazy decay.
    fn decayed(&self, entry: &RepEntry, round: u64) -> f64 {
        debug_assert!(
            round >= entry.as_of,
            "reputation read at round {round} before the entry's as_of {}",
            entry.as_of
        );
        let dt = match round.checked_sub(entry.as_of) {
            Some(dt) => dt,
            None => {
                self.decay_violations.set(self.decay_violations.get() + 1);
                0
            }
        };
        entry.score * DECAY.powi(dt.min(i32::MAX as u64) as i32)
    }

    /// Backwards-clock reads observed so far (see `decay_violations`).
    pub fn decay_violations(&self) -> u64 {
        self.decay_violations.get()
    }

    /// The decayed score of `worker` at `round` (0 for unknown workers —
    /// newcomers start neutral).
    pub fn score(&self, worker: &Address, round: u64) -> f64 {
        self.scores
            .get(worker)
            .map_or(0.0, |e| self.decayed(e, round))
    }

    /// Whether `worker` may commit to a new HIT at `round` (always true
    /// when scores do not steer the market).
    pub fn eligible(&self, worker: &Address, round: u64) -> bool {
        !self.params.steer || self.score(worker, round) >= COMMIT_FLOOR
    }

    /// Absorbs one settlement receipt at `round`.
    pub fn observe(&mut self, receipt: &SettlementReceipt, round: u64) {
        let delta = match &receipt.outcome {
            Settlement::Paid => PAID_DELTA,
            Settlement::Rejected(RejectReason::NoReveal) => NO_REVEAL_DELTA,
            Settlement::Rejected(_) => REJECTED_DELTA,
        };
        let current = self.score(&receipt.worker, round);
        self.scores.insert(
            receipt.worker,
            RepEntry {
                score: current + delta,
                as_of: round,
            },
        );
        self.observed += 1;
    }

    /// Sorts worker indices by decayed score, highest first; ties break
    /// on the index so the order is total and deterministic. Scores are
    /// computed once per candidate (not per comparison) — at churn-scale
    /// pools this runs every block over the whole roster.
    pub fn rank(&self, candidates: &mut [(usize, Address)], round: u64) {
        let mut scored: Vec<(f64, usize, Address)> = candidates
            .iter()
            .map(|&(i, a)| (self.score(&a, round), i, a))
            .collect();
        scored.sort_by(|(sa, ia, _), (sb, ib, _)| sb.total_cmp(sa).then(ia.cmp(ib)));
        for (slot, (_, i, a)) in candidates.iter_mut().zip(scored) {
            *slot = (i, a);
        }
    }

    /// Number of workers with a non-neutral history.
    pub fn tracked(&self) -> usize {
        self.scores.len()
    }

    /// Receipts absorbed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// `(mean, min, max)` of the decayed scores at `round` (zeros when
    /// the book is empty).
    pub fn stats(&self, round: u64) -> (f64, f64, f64) {
        if self.scores.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for entry in self.scores.values() {
            let s = self.decayed(entry, round);
            sum += s;
            min = min.min(s);
            max = max.max(s);
        }
        (sum / self.scores.len() as f64, min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receipt(worker: Address, outcome: Settlement) -> SettlementReceipt {
        SettlementReceipt {
            worker,
            outcome,
            amount: 0,
        }
    }

    #[test]
    fn scores_accumulate_and_decay() {
        let mut book = ReputationBook::new(ReputationParams::default());
        let w = Address::from_byte(1);
        book.observe(&receipt(w, Settlement::Paid), 10);
        assert_eq!(book.score(&w, 10), 1.0);
        book.observe(&receipt(w, Settlement::Paid), 10);
        assert_eq!(book.score(&w, 10), 2.0);
        // Decay pulls toward neutral without crossing it.
        let later = book.score(&w, 300);
        assert!(later > 0.0 && later < 2.0);
    }

    #[test]
    fn rejections_gate_commits() {
        let mut book = ReputationBook::new(ReputationParams::default());
        let w = Address::from_byte(2);
        assert!(book.eligible(&w, 0), "newcomers start eligible");
        for _ in 0..2 {
            book.observe(
                &receipt(w, Settlement::Rejected(RejectReason::LowQuality { chi: 0 })),
                5,
            );
        }
        assert!(book.score(&w, 5) <= -3.0);
        assert!(!book.eligible(&w, 5));
        // Decay eventually rehabilitates.
        assert!(book.eligible(&w, 5 + 2_000));
    }

    #[test]
    fn ranking_is_total_and_deterministic() {
        let mut book = ReputationBook::new(ReputationParams::default());
        let a = Address::from_byte(1);
        let b = Address::from_byte(2);
        book.observe(&receipt(b, Settlement::Paid), 1);
        let mut order = vec![(0, a), (1, b)];
        book.rank(&mut order, 1);
        assert_eq!(order[0].1, b, "higher score ranks first");
        // Equal scores tie-break on index.
        let c = Address::from_byte(3);
        let mut order = vec![(1, c), (0, a)];
        book.rank(&mut order, 1);
        assert_eq!(order[0].0, 0);
    }
}
