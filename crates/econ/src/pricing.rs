//! Dynamic task pricing: the budget `B` of each newly published HIT set
//! from observed fill rates and settlement latency over a sliding window
//! of recent blocks.
//!
//! The paper fixes `B` per task; a marketplace cannot — worker supply is
//! elastic (reservation wages, churn), so a fixed price either overpays
//! or leaves tasks unfilled. The [`PricingEngine`] is a deliberately
//! simple multiplicative controller driven at each block boundary with
//! the block's fill outcomes (commit phases that closed vs. tasks that
//! cancelled unfilled), settlement latencies, and the chain-congestion
//! verdict the econ engine derives from the block's
//! [`dragoon_chain::BlockObservation`] against the gas cap. When the
//! windowed fill rate falls below target it raises the price (unless
//! the chain is congested — unfilled tasks then signal carried-over
//! transactions, not a wage shortage); when the market clears
//! comfortably (high fill, low latency) it walks the price back down.
//! All arithmetic is a deterministic function of chain state, so prices
//! are reproducible across runs and executor thread counts.

use std::collections::VecDeque;

/// Target windowed fill rate (filled / (filled + cancelled)).
const TARGET_FILL: f64 = 0.9;
/// Relative price raise applied when fill undershoots the target.
const RAISE: f64 = 0.10;
/// Relative price cut applied when the market clears at target and
/// settlement latency stays under [`LATENCY_SLACK_BLOCKS`].
const CUT: f64 = 0.02;
/// Latency (blocks, publish → settle) above which the controller stops
/// cutting even at full fill — a congested market is not overpaying.
const LATENCY_SLACK_BLOCKS: f64 = 30.0;
/// Sliding-window length in observed fill outcomes.
const WINDOW: usize = 24;
/// Gas utilization (block gas used / block gas limit) above which the
/// chain counts as congested: the controller then holds the price
/// instead of raising, because unfilled tasks under congestion signal
/// carried-over transactions, not a wage shortage.
pub(crate) const CONGESTION_UTILIZATION: f64 = 0.85;

/// The price band of the pricing controller.
#[derive(Clone, Copy, Debug)]
pub struct PricingParams {
    /// Opening price (`0` = the scenario's default budget).
    pub initial: u128,
    /// Hard price floor.
    pub min: u128,
    /// Hard price ceiling.
    pub max: u128,
}

impl Default for PricingParams {
    fn default() -> Self {
        Self {
            initial: 0,
            min: 600,
            max: 24_000,
        }
    }
}

/// One fill outcome: a HIT either filled its commit quota or cancelled
/// unfilled.
#[derive(Clone, Copy, Debug)]
enum FillOutcome {
    Filled,
    Cancelled,
}

/// The dynamic-pricing controller.
#[derive(Clone, Debug)]
pub struct PricingEngine {
    params: PricingParams,
    price: u128,
    outcomes: VecDeque<FillOutcome>,
    latencies: VecDeque<u64>,
    price_min_seen: u128,
    price_max_seen: u128,
    filled: u64,
    cancelled: u64,
    adjustments: u64,
}

impl PricingEngine {
    /// A controller opening at `params.initial` (or `default_budget`).
    pub fn new(params: PricingParams, default_budget: u128) -> Self {
        let open = if params.initial > 0 {
            params.initial
        } else {
            default_budget
        };
        let price = open.clamp(params.min, params.max);
        Self {
            params,
            price,
            outcomes: VecDeque::new(),
            latencies: VecDeque::new(),
            price_min_seen: price,
            price_max_seen: price,
            filled: 0,
            cancelled: 0,
            adjustments: 0,
        }
    }

    /// The price the next published HIT freezes as its budget `B`.
    pub fn price(&self) -> u128 {
        self.price
    }

    /// Extremes the controller visited.
    pub fn price_range_seen(&self) -> (u128, u128) {
        (self.price_min_seen, self.price_max_seen)
    }

    /// Lifetime fill counters `(filled, cancelled)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.filled, self.cancelled)
    }

    /// Price adjustments applied.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// The windowed fill rate, if any outcome has been observed.
    pub fn fill_rate(&self) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        let filled = self
            .outcomes
            .iter()
            .filter(|o| matches!(o, FillOutcome::Filled))
            .count();
        Some(filled as f64 / self.outcomes.len() as f64)
    }

    /// The windowed mean settlement latency in blocks.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        Some(self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64)
    }

    fn push_window<T>(window: &mut VecDeque<T>, item: T) {
        window.push_back(item);
        while window.len() > WINDOW {
            window.pop_front();
        }
    }

    /// Absorbs one block boundary's outcomes: `filled` commit phases
    /// closed, `cancelled` tasks expired unfilled, `latencies` are the
    /// publish→settle latencies of HITs that settled this block, and
    /// `congested` is the chain-level congestion verdict (derived from
    /// the block's [`dragoon_chain::BlockObservation`] against the gas
    /// cap). Adjusts the price when the block carried any fill signal —
    /// except upward under congestion, where unfilled tasks signal
    /// carried-over transactions rather than a wage shortage.
    pub fn observe_block(
        &mut self,
        filled: usize,
        cancelled: usize,
        latencies: &[u64],
        congested: bool,
    ) {
        for _ in 0..filled {
            Self::push_window(&mut self.outcomes, FillOutcome::Filled);
        }
        for _ in 0..cancelled {
            Self::push_window(&mut self.outcomes, FillOutcome::Cancelled);
        }
        for &l in latencies {
            Self::push_window(&mut self.latencies, l);
        }
        self.filled += filled as u64;
        self.cancelled += cancelled as u64;
        if filled + cancelled == 0 {
            return; // no fresh signal, hold the price
        }
        let Some(fill) = self.fill_rate() else {
            return;
        };
        let next = if fill < TARGET_FILL {
            if congested {
                // Unfilled under a congested chain: commits may simply
                // be carried over by the gas cap — hold, don't overpay.
                self.price
            } else {
                // Undershooting: workers are declining the wage — raise B.
                (self.price as f64 * (1.0 + RAISE)).round() as u128
            }
        } else if self
            .mean_latency()
            .is_none_or(|l| l <= LATENCY_SLACK_BLOCKS)
        {
            // Market clears with slack: walk the price back down.
            (self.price as f64 * (1.0 - CUT)).round() as u128
        } else {
            self.price
        };
        let next = next.clamp(self.params.min, self.params.max);
        if next != self.price {
            self.adjustments += 1;
            self.price = next;
            self.price_min_seen = self.price_min_seen.min(next);
            self.price_max_seen = self.price_max_seen.max(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PricingEngine {
        PricingEngine::new(
            PricingParams {
                min: 100,
                max: 10_000,
                ..PricingParams::default()
            },
            1_000,
        )
    }

    #[test]
    fn undershooting_fill_raises_the_price() {
        let mut e = engine();
        let p0 = e.price();
        e.observe_block(0, 3, &[], false);
        assert!(e.price() > p0, "cancellations must raise B");
        assert_eq!(e.fill_rate(), Some(0.0));
    }

    #[test]
    fn clearing_market_walks_the_price_down() {
        let mut e = engine();
        let p0 = e.price();
        for _ in 0..30 {
            e.observe_block(2, 0, &[4], false);
        }
        assert!(e.price() < p0, "a clearing market must cut B");
        assert!(e.price() >= 100, "floor holds");
    }

    #[test]
    fn congestion_blocks_the_cut() {
        let mut e = engine();
        let p0 = e.price();
        e.observe_block(5, 0, &[500], false);
        assert_eq!(e.price(), p0, "high latency at full fill holds price");
    }

    #[test]
    fn chain_congestion_blocks_the_raise() {
        let mut e = engine();
        let p0 = e.price();
        // Unfilled tasks under a congested chain are a carry-over
        // symptom, not a wage signal: the price holds.
        e.observe_block(0, 3, &[], true);
        assert_eq!(e.price(), p0);
        // The same signal on an uncongested chain raises.
        e.observe_block(0, 3, &[], false);
        assert!(e.price() > p0);
    }

    #[test]
    fn price_stays_clamped() {
        let mut e = engine();
        for _ in 0..200 {
            e.observe_block(0, 4, &[], false);
        }
        assert_eq!(e.price(), 10_000, "ceiling holds under pure undershoot");
        assert_eq!(e.price_range_seen().1, 10_000);
    }

    #[test]
    fn no_signal_holds_the_price() {
        let mut e = engine();
        let p0 = e.price();
        e.observe_block(0, 0, &[9], false);
        assert_eq!(e.price(), p0);
        assert_eq!(e.adjustments(), 0);
    }
}
