//! Market-level metrics: per-block stats, per-HIT outcomes and the
//! aggregate [`MarketReport`], serialized only through its
//! [`dragoon_trace::MetricSet`]s (the compat serde is derive-only, so
//! the sets write the structured output directly).

use dragoon_chain::{Gas, ParallelStats, PersistStats};
use dragoon_contract::{BatchStats, HitId, SettlementMode};
use dragoon_econ::EconReport;
use dragoon_net::NetReport;
use dragoon_protocol::ProvingStats;

/// One produced block's footprint.
#[derive(Clone, Copy, Debug)]
pub struct BlockStat {
    /// Block height (round number).
    pub height: u64,
    /// Executed transactions (including reverted).
    pub txs: usize,
    /// Reverted transactions.
    pub reverted: usize,
    /// Gas consumed by the block.
    pub gas_used: Gas,
}

/// One HIT's lifecycle summary.
#[derive(Clone, Debug)]
pub struct HitOutcome {
    /// Registry id.
    pub id: HitId,
    /// Block in which the instance was created/published.
    pub published_block: u64,
    /// Block in which it settled (closed or cancelled), if it did.
    pub settled_block: Option<u64>,
    /// Whether it was cancelled unfilled (the "dropped/expired" bucket).
    pub cancelled: bool,
    /// Workers paid.
    pub paid: usize,
    /// Workers rejected with proofs (low quality / out of range).
    pub rejected: usize,
    /// Workers recorded as `⊥` (committed, never revealed).
    pub no_reveal: usize,
}

impl HitOutcome {
    /// Settlement latency in blocks, if settled. `None` too when the
    /// settle block precedes the publish block — a broken clock the
    /// engine counts in [`MarketReport::latency_violations`].
    pub fn latency(&self) -> Option<u64> {
        self.settled_block?.checked_sub(self.published_block)
    }
}

/// The serializable outcome of a marketplace run.
#[derive(Clone, Debug)]
pub struct MarketReport {
    /// The run's master seed.
    pub seed: u64,
    /// Settlement mode the market ran under.
    pub settlement: SettlementMode,
    /// Blocks produced.
    pub blocks: u64,
    /// HITs published.
    pub hits_published: usize,
    /// HITs settled with payments (closed).
    pub hits_settled: usize,
    /// HITs cancelled unfilled (dropped/expired).
    pub hits_cancelled: usize,
    /// HITs still open when the run stopped.
    pub hits_unfinished: usize,
    /// Total gas across all transactions.
    pub total_gas: Gas,
    /// Mean gas per non-empty block.
    pub gas_per_block_mean: f64,
    /// Max gas in one block.
    pub gas_per_block_max: Gas,
    /// The gas cap in force.
    pub block_gas_limit: Option<Gas>,
    /// `gas_per_block_mean / limit` over non-empty blocks.
    pub gas_utilization: Option<f64>,
    /// Mean settlement latency (publish → settle) in blocks.
    pub latency_mean_blocks: f64,
    /// Max settlement latency in blocks.
    pub latency_max_blocks: u64,
    /// Answers requesters accepted (decrypted, quality ≥ Θ) — the
    /// marketplace's utility.
    pub answers_collected: usize,
    /// Total reward payments made to workers.
    pub rewards_paid: u128,
    /// Count of worker payments.
    pub workers_paid: usize,
    /// Workers rejected with proofs.
    pub workers_rejected: usize,
    /// Escrow refunded to requesters (leftovers + cancellations).
    pub refunds: u128,
    /// Reverted transactions over the whole run.
    pub reverted_txs: usize,
    /// Settle-before-publish clock violations. The settlement block of
    /// a HIT can never precede its publish block; debug builds assert
    /// this, release builds count offenders here (instead of silently
    /// clamping the latency to 0) so a broken clock is visible in the
    /// report. Always 0 on a healthy run.
    pub latency_violations: usize,
    /// Batched-settlement counters (all zero in per-proof mode).
    pub batch: BatchStats,
    /// Parallel-executor counters (groups, fallbacks, prefix commits,
    /// barriers). Deliberately excluded from [`MarketReport::to_json`]:
    /// that JSON is the cross-thread-count equivalence witness, and these
    /// counters legitimately differ with the thread budget. Emit them via
    /// `section_json("scheduler")` instead.
    pub parallel: ParallelStats,
    /// The econ layer's report (`None` when the layer is disabled).
    /// Everything in it derives deterministically from chain state, so
    /// it is identical across executor thread counts (`tests/econ.rs`
    /// asserts byte equality) — emitted via `section_json("econ")`, kept
    /// out of [`MarketReport::to_json`] so pre-econ golden outputs stay
    /// stable.
    pub econ: Option<EconReport>,
    /// The network layer's report (`None` when the run was single-node).
    /// Derives from the canonical block feed and the seeded gossip
    /// layer, so it is identical across executor thread counts —
    /// emitted via `section_json("net")`, kept out of
    /// [`MarketReport::to_json`] so pre-net golden outputs stay stable.
    pub net: Option<NetReport>,
    /// The proving-service counters (job/queue/latency/cache). Every
    /// serialized field is thread-count independent (the service's
    /// per-job RNG streams and modeled latency don't see the pool
    /// width; `tests/proving_equivalence.rs` asserts byte equality) —
    /// emitted via `section_json("proving")`, kept out of
    /// [`MarketReport::to_json`] so pre-proving golden outputs stay
    /// stable.
    pub proving: ProvingStats,
    /// The persistence-layer counters (`None` when the run kept no
    /// block store). Log and snapshot *cadence* counters are
    /// deterministic, but incremental-snapshot byte counts may differ
    /// across executor thread counts (the serial and parallel executors
    /// over-approximate the dirty working set differently; golden-gate
    /// only with `exec_threads` pinned) — emitted via
    /// `section_json("persist")`, kept out of [`MarketReport::to_json`]
    /// so that JSON stays the cross-thread equivalence witness.
    pub persist: Option<PersistStats>,
    /// Per-HIT outcomes, in id order.
    pub outcomes: Vec<HitOutcome>,
    /// Per-block footprints.
    pub block_stats: Vec<BlockStat>,
}

impl MarketReport {
    /// Compact single-object JSON (summary scalars only; per-HIT and
    /// per-block series are available on the struct): the object view
    /// of the market metric set. Identical across executor thread
    /// counts, so it is the equivalence witness of a run.
    pub fn to_json(&self) -> String {
        self.market_metric_set().to_json_object()
    }

    /// One subsystem's counters as one JSON object — `"market"`,
    /// `"scheduler"`, `"proving"`, `"econ"`, `"net"` or `"persist"` —
    /// and `null` for a layer the run did not have. Each is the object
    /// view of that subsystem's set in [`MarketReport::metric_sets`].
    pub fn section_json(&self, subsystem: &str) -> String {
        self.metric_sets()
            .iter()
            .find(|set| set.subsystem == subsystem)
            .map_or_else(|| "null".into(), dragoon_trace::MetricSet::to_json_object)
    }

    /// The market-level scalars as one registry metric set — the one
    /// list of them.
    fn market_metric_set(&self) -> dragoon_trace::MetricSet {
        let set = dragoon_trace::MetricSet::new("market")
            .int("seed", self.seed)
            .text(
                "settlement",
                match self.settlement {
                    SettlementMode::PerProof => "per_proof",
                    SettlementMode::Batched => "batched",
                },
            )
            .int("blocks", self.blocks)
            .int("hits_published", self.hits_published as u64)
            .int("hits_settled", self.hits_settled as u64)
            .int("hits_cancelled", self.hits_cancelled as u64)
            .int("hits_unfinished", self.hits_unfinished as u64)
            .int("total_gas", self.total_gas)
            .float("gas_per_block_mean", self.gas_per_block_mean, 1)
            .int("gas_per_block_max", self.gas_per_block_max);
        let set = match self.block_gas_limit {
            Some(limit) => set.int("block_gas_limit", limit),
            None => set.absent("block_gas_limit"),
        };
        let set = match self.gas_utilization {
            Some(util) => set.float("gas_utilization", util, 4),
            None => set.absent("gas_utilization"),
        };
        set.float("latency_mean_blocks", self.latency_mean_blocks, 2)
            .int("latency_max_blocks", self.latency_max_blocks)
            .int("answers_collected", self.answers_collected as u64)
            .int("rewards_paid", self.rewards_paid as i128)
            .int("workers_paid", self.workers_paid as u64)
            .int("workers_rejected", self.workers_rejected as u64)
            .int("refunds", self.refunds as i128)
            .int("reverted_txs", self.reverted_txs as u64)
            .int("latency_violations", self.latency_violations as u64)
            .int("batch_dispatches", self.batch.batches)
            .int("batch_items", self.batch.items)
            .int("batch_largest", self.batch.largest)
    }

    /// Every subsystem's metric set, in report order: market scalars,
    /// then scheduler, proving, and the optional econ/net/persist
    /// layers.
    pub fn metric_sets(&self) -> Vec<dragoon_trace::MetricSet> {
        let mut sets = vec![
            self.market_metric_set(),
            self.parallel.metric_set(),
            self.proving.metric_set(),
        ];
        if let Some(econ) = &self.econ {
            sets.push(econ.metric_set());
        }
        if let Some(net) = &self.net {
            sets.push(net.metric_set());
        }
        if let Some(persist) = &self.persist {
            sets.push(persist.metric_set());
        }
        sets
    }

    /// A human-oriented multi-line summary for examples and logs.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "market: {} HITs over {} blocks ({} settled, {} cancelled, {} unfinished)\n",
            self.hits_published,
            self.blocks,
            self.hits_settled,
            self.hits_cancelled,
            self.hits_unfinished
        ));
        out.push_str(&format!(
            "gas:    {:.0}k/block mean, {}k max{} — {}k total\n",
            self.gas_per_block_mean / 1_000.0,
            self.gas_per_block_max / 1_000,
            self.gas_utilization
                .map_or(String::new(), |u| format!(" ({:.0}% of cap)", u * 100.0)),
            self.total_gas / 1_000
        ));
        out.push_str(&format!(
            "settle: {:.1} blocks mean latency, {} max\n",
            self.latency_mean_blocks, self.latency_max_blocks
        ));
        out.push_str(&format!(
            "payout: {} workers paid {} coins, {} rejected, {} refunded to requesters\n",
            self.workers_paid, self.rewards_paid, self.workers_rejected, self.refunds
        ));
        out.push_str(&format!(
            "useful: {} accepted answer vectors collected\n",
            self.answers_collected
        ));
        if self.batch.batches > 0 {
            out.push_str(&format!(
                "batch:  {} dispatches covering {} proofs (largest {})\n",
                self.batch.batches, self.batch.items, self.batch.largest
            ));
        }
        if let Some(econ) = &self.econ {
            out.push_str(&econ.summary());
        }
        if self.proving.jobs > 0 {
            out.push_str(&format!(
                "prove:  {} jobs ({} released, {} stale, {} dropped), \
                 queue peak {}, latency max {} ticks, \
                 cache {} hits / {} misses\n",
                self.proving.jobs,
                self.proving.completed,
                self.proving.stale,
                self.proving.dropped,
                self.proving.queue_peak,
                self.proving.latency_max,
                self.proving.cache_hits,
                self.proving.cache_misses,
            ));
        }
        if let Some(net) = &self.net {
            out.push_str(&net.summary());
            out.push('\n');
        }
        if let Some(persist) = &self.persist {
            out.push_str(&format!(
                "store:  {} blocks logged ({}k bytes, {}k compacted away in {} truncations), \
                 {} full + {} delta snapshots ({}k bytes, {} dirty units), \
                 overlap {} hits / {} misses\n",
                persist.blocks_appended,
                persist.log_bytes_written / 1_000,
                persist.log_bytes_truncated / 1_000,
                persist.compactions,
                persist.full_snapshots,
                persist.delta_snapshots,
                persist.snapshot_bytes_written / 1_000,
                persist.dirty_units_encoded,
                persist.overlap_hits,
                persist.overlap_misses,
            ));
        }
        let p = &self.parallel;
        if p.parallel_txs + p.serial_txs > 0 {
            out.push_str(&format!(
                "sched:  {} parallel / {} serial txs in {} batches ({} groups), \
                 {} conflict + {} gas fallbacks \
                 ({} prefix commits), {} barriers\n",
                p.parallel_txs,
                p.serial_txs,
                p.batches,
                p.groups,
                p.conflict_fallbacks,
                p.gas_fallbacks,
                p.gas_prefix_commits,
                p.barriers,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_market, MarketConfig, PersistConfig};
    use dragoon_econ::EconConfig;
    use dragoon_net::NetConfig;

    #[test]
    fn latency_is_none_when_settle_precedes_publish() {
        let outcome = |published_block, settled_block| HitOutcome {
            id: 0,
            published_block,
            settled_block,
            cancelled: false,
            paid: 0,
            rejected: 0,
            no_reveal: 0,
        };
        assert_eq!(outcome(3, Some(9)).latency(), Some(6));
        assert_eq!(outcome(3, None).latency(), None);
        assert_eq!(outcome(9, Some(3)).latency(), None);
    }

    /// An uncapped single-node market: the two gas-cap scalars keep
    /// their keys in `to_json` as `null`, a layer the run did not have
    /// is `null` as a section, and a layer it had is its set's object
    /// view.
    #[test]
    fn absent_scalars_and_layers_serialize_as_null() {
        let report = run_market(MarketConfig {
            hits: 4,
            seed: 7,
            exec_threads: 1,
            block_gas_limit: None,
            ..MarketConfig::default()
        });
        assert_eq!(report.hits_published, 4);
        let json = report.to_json();
        assert!(json.starts_with("{\"seed\":7,\"settlement\":\"batched\",\"blocks\":"));
        assert!(json.contains(&format!(
            ",\"gas_per_block_max\":{},\"block_gas_limit\":null,\
             \"gas_utilization\":null,\"latency_mean_blocks\":",
            report.gas_per_block_max
        )));
        assert_eq!(report.section_json("market"), json);
        for absent in ["econ", "net", "persist", "no_such_layer"] {
            assert_eq!(report.section_json(absent), "null", "{absent}");
        }
        assert_eq!(
            report.section_json("scheduler"),
            report.parallel.metric_set().to_json_object()
        );
        assert_eq!(
            report.section_json("proving"),
            report.proving.metric_set().to_json_object()
        );
    }

    /// With the optional econ, net and persist layers all on, the
    /// report has six sets, one per subsystem; no set repeats a key,
    /// and each section is its set's object view.
    #[test]
    fn every_subsystem_is_one_set_with_distinct_keys() {
        let dir = std::env::temp_dir().join(format!("dragoon-metrics-{}", std::process::id()));
        let report = run_market(MarketConfig {
            hits: 6,
            seed: 7,
            exec_threads: 1,
            econ: Some(EconConfig::default()),
            net: Some(NetConfig::default()),
            persist: Some(PersistConfig::new(&dir)),
            ..MarketConfig::default()
        });
        let _ = std::fs::remove_dir_all(&dir);
        let sets = report.metric_sets();
        let subsystems: Vec<&str> = sets.iter().map(|set| set.subsystem).collect();
        assert_eq!(
            subsystems,
            ["market", "scheduler", "proving", "econ", "net", "persist"]
        );
        for set in &sets {
            let keys: std::collections::BTreeSet<&str> =
                set.metrics.iter().map(|m| m.key).collect();
            assert_eq!(
                keys.len(),
                set.metrics.len(),
                "{}: a key appears twice",
                set.subsystem
            );
            assert_eq!(report.section_json(set.subsystem), set.to_json_object());
        }
    }
}
