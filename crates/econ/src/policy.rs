//! The two built-in adversaries, as the rules the econ engine applies to
//! the agents it classified at pool construction:
//!
//! * the **golden-withholding requester cartel** ([`cartel_theta`],
//!   [`cartel_withholds_golden`]): its members publish with the
//!   strictest provable threshold (`Θ = |G|`, so any gold miss is
//!   rejectable), evaluate every reveal *off-chain first*, and open the
//!   gold standards only when at least one rejection will land. A HIT
//!   whose workers all pass keeps its golds secret (nothing on-chain ever
//!   reveals them) and settles through the deadline backstop — the
//!   cartel reuses the same hidden standards across its HITs while
//!   clawing back every rejectable share.
//! * **reputation-farming sybil workers** ([`sybil_behavior`]): many
//!   coordinated identities that work diligently while their reputation
//!   is below [`SYBIL_FARM_SCORE`], then switch to zero-effort
//!   (random-bot) submissions on HITs whose per-worker reward reaches
//!   [`SYBIL_DEFECT_REWARD`], riding the farmed score back into commit
//!   slots while it lasts.

use dragoon_core::workload::AnswerModel;
use dragoon_protocol::WorkerBehavior;

/// Sybils farm (work diligently) until their score reaches this target.
const SYBIL_FARM_SCORE: f64 = 2.0;
/// Sybils defect only on HITs paying at least this per-worker reward;
/// cheaper HITs keep getting diligent work (they are the farm).
const SYBIL_DEFECT_REWARD: u128 = 800;
/// Accuracy of the sybils' farming phase.
const SYBIL_FARM_ACCURACY: f64 = 0.97;

/// The θ a cartel member publishes for a task with `golds` gold
/// standards: maximal strictness, so any missed gold standard is
/// provably below threshold (an already stricter `default` is kept).
pub(crate) fn cartel_theta(golds: usize, default: u64) -> u64 {
    default.max(golds as u64)
}

/// Whether a cartel member withholds its golden opening given that
/// `rejectable` of the revealed submissions could be rejected: it opens
/// the golds only when a rejection will actually land.
pub(crate) fn cartel_withholds_golden(rejectable: usize) -> bool {
    rejectable == 0
}

/// The session a sybil with decayed reputation `score` runs on a HIT
/// paying `reward` per worker.
pub(crate) fn sybil_behavior(score: f64, reward: u128) -> WorkerBehavior {
    if score >= SYBIL_FARM_SCORE && reward >= SYBIL_DEFECT_REWARD {
        // Farmed enough: spend the reputation on zero-effort work where
        // the payout is worth it.
        WorkerBehavior::Honest(AnswerModel::RandomBot)
    } else {
        WorkerBehavior::Honest(AnswerModel::Diligent {
            accuracy: SYBIL_FARM_ACCURACY,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EconConfig, EconEngine};
    use dragoon_ledger::Address;

    #[test]
    fn cartel_publishes_strict_and_withholds_when_clean() {
        assert_eq!(cartel_theta(3, 2), 3, "θ is pushed to |G|");
        assert_eq!(cartel_theta(3, 5), 5, "an already stricter θ is kept");
        assert!(cartel_withholds_golden(0));
        assert!(!cartel_withholds_golden(1));
        // Requesters outside the cartel keep the scenario's θ and never
        // withhold.
        let config = EconConfig {
            cartel_requesters: 1,
            ..EconConfig::default()
        };
        let mut e = EconEngine::for_market(config, 1, 3_000, None);
        let honest = Address::from_byte(0xd1);
        e.register_requester(1, honest);
        assert!(e.theta_for(1, 3, 2) == 2 && !e.withholds_golden(&honest, 0));
    }

    #[test]
    fn sybils_farm_low_and_defect_high() {
        assert!(matches!(
            sybil_behavior(0.0, 10_000),
            WorkerBehavior::Honest(AnswerModel::Diligent { .. })
        ));
        assert!(matches!(
            sybil_behavior(5.0, 10_000),
            WorkerBehavior::Honest(AnswerModel::RandomBot)
        ));
        // High score but low reward keeps farming.
        assert!(matches!(
            sybil_behavior(5.0, 10),
            WorkerBehavior::Honest(AnswerModel::Diligent { .. })
        ));
    }
}
