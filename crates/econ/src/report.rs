//! The serializable outcome of the econ layer: reputation, pricing,
//! churn and adversary-extraction aggregates, serialized through their
//! metric set (the compat serde is derive-only).

/// Aggregates the econ layer reports at the end of a market run. All
/// values derive deterministically from chain state, so two runs of the
/// same seeded scenario — at any executor thread count — produce
/// byte-identical [`EconReport::metric_set`] object views (pinned by
/// `tests/econ.rs`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EconReport {
    /// Workers with a non-neutral reputation history.
    pub rep_tracked: usize,
    /// Settlement receipts absorbed by the book.
    pub rep_receipts: u64,
    /// Backwards-clock reputation reads (a score read at a round before
    /// the entry was last updated). Always 0 on a healthy run.
    pub rep_decay_violations: u64,
    /// Mean decayed score at the end of the run.
    pub rep_mean: f64,
    /// Minimum decayed score.
    pub rep_min: f64,
    /// Maximum decayed score.
    pub rep_max: f64,
    /// Commit attempts blocked by the reputation gate.
    pub gated_commits: u64,
    /// Commit attempts declined over the reservation wage.
    pub declined_commits: u64,
    /// The price the controller ended on (0 = pricing disabled).
    pub price_final: u128,
    /// Lowest price visited.
    pub price_min_seen: u128,
    /// Highest price visited.
    pub price_max_seen: u128,
    /// Price adjustments applied.
    pub price_adjustments: u64,
    /// Windowed fill rate at the end of the run (-1 = no signal).
    pub fill_rate_recent: f64,
    /// Lifetime filled commit phases observed by the controller.
    pub hits_filled: u64,
    /// Lifetime unfilled cancellations observed by the controller.
    pub hits_unfilled: u64,
    /// Workers that joined the pool through churn.
    pub workers_joined: usize,
    /// Workers that departed the pool through churn.
    pub workers_departed: usize,
    /// Goldens withheld by cartel requesters (kept secret off-chain).
    pub goldens_withheld: u64,
    /// Proof-backed rejections landed on cartel-owned HITs.
    pub cartel_rejections: u64,
    /// Escrow refunded to cartel requesters at settlement.
    pub cartel_refunds: u128,
    /// Escrow refunded to honest requesters at settlement.
    pub honest_refunds: u128,
    /// Coins paid to honest (non-sybil) workers.
    pub honest_paid: u128,
    /// Honest worker payments.
    pub honest_paid_count: u64,
    /// Honest worker rejections (any reason).
    pub honest_rejected: u64,
    /// Coins paid to sybil workers.
    pub sybil_paid: u128,
    /// Sybil worker payments.
    pub sybil_paid_count: u64,
    /// Sybil worker rejections (any reason).
    pub sybil_rejected: u64,
}

impl EconReport {
    /// The econ counters as one registry [`dragoon_trace::MetricSet`];
    /// its object view is the `ECON:` report line (pinned by the unit
    /// test below and the econ goldens).
    pub fn metric_set(&self) -> dragoon_trace::MetricSet {
        dragoon_trace::MetricSet::new("econ")
            .int("rep_tracked", self.rep_tracked as u64)
            .int("rep_receipts", self.rep_receipts)
            .int("rep_decay_violations", self.rep_decay_violations)
            .float("rep_mean", self.rep_mean, 3)
            .float("rep_min", self.rep_min, 3)
            .float("rep_max", self.rep_max, 3)
            .int("gated_commits", self.gated_commits)
            .int("declined_commits", self.declined_commits)
            .int("price_final", self.price_final as i128)
            .int("price_min_seen", self.price_min_seen as i128)
            .int("price_max_seen", self.price_max_seen as i128)
            .int("price_adjustments", self.price_adjustments)
            .float("fill_rate_recent", self.fill_rate_recent, 3)
            .int("hits_filled", self.hits_filled)
            .int("hits_unfilled", self.hits_unfilled)
            .int("workers_joined", self.workers_joined as u64)
            .int("workers_departed", self.workers_departed as u64)
            .int("goldens_withheld", self.goldens_withheld)
            .int("cartel_rejections", self.cartel_rejections)
            .int("cartel_refunds", self.cartel_refunds as i128)
            .int("honest_refunds", self.honest_refunds as i128)
            .int("honest_paid", self.honest_paid as i128)
            .int("honest_paid_count", self.honest_paid_count)
            .int("honest_rejected", self.honest_rejected)
            .int("sybil_paid", self.sybil_paid as i128)
            .int("sybil_paid_count", self.sybil_paid_count)
            .int("sybil_rejected", self.sybil_rejected)
    }

    /// A human-oriented multi-line summary for examples and logs.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rep:    {} workers tracked over {} receipts (mean {:.2}, min {:.2}, max {:.2}); \
             {} commits gated, {} declined over wage\n",
            self.rep_tracked,
            self.rep_receipts,
            self.rep_mean,
            self.rep_min,
            self.rep_max,
            self.gated_commits,
            self.declined_commits,
        ));
        if self.price_final > 0 {
            out.push_str(&format!(
                "price:  B ended at {} (saw {}..{}, {} adjustments), fill rate {:.0}% \
                 ({} filled / {} unfilled lifetime)\n",
                self.price_final,
                self.price_min_seen,
                self.price_max_seen,
                self.price_adjustments,
                self.fill_rate_recent * 100.0,
                self.hits_filled,
                self.hits_unfilled,
            ));
        }
        if self.workers_joined + self.workers_departed > 0 {
            out.push_str(&format!(
                "churn:  {} workers joined, {} departed\n",
                self.workers_joined, self.workers_departed,
            ));
        }
        out.push_str(&format!(
            "payout: honest workers {} coins over {} payments ({} rejected); \
             sybils {} coins over {} payments ({} rejected)\n",
            self.honest_paid,
            self.honest_paid_count,
            self.honest_rejected,
            self.sybil_paid,
            self.sybil_paid_count,
            self.sybil_rejected,
        ));
        if self.cartel_refunds + self.goldens_withheld as u128 + self.cartel_rejections as u128 > 0
        {
            out.push_str(&format!(
                "cartel: {} rejections landed, {} coins clawed back, {} goldens withheld \
                 (honest requesters refunded {})\n",
                self.cartel_rejections,
                self.cartel_refunds,
                self.goldens_withheld,
                self.honest_refunds,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_complete() {
        let r = EconReport {
            rep_tracked: 3,
            price_final: 1200,
            fill_rate_recent: 0.875,
            ..EconReport::default()
        };
        let json = r.metric_set().to_json_object();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rep_tracked\":3"));
        assert!(json.contains("\"price_final\":1200"));
        assert!(json.contains("\"fill_rate_recent\":0.875"));
        assert!(!json.contains(",,"));
    }
}
