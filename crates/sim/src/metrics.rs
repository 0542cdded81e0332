//! Market-level metrics: per-block stats, per-HIT outcomes and the
//! aggregate [`MarketReport`] with hand-rolled JSON output (the compat
//! serde is derive-only, so structured output is written directly).

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
    /// [`MarketReport::scheduler_json`] instead.
    pub parallel: ParallelStats,
    /// The econ layer's report (`None` when the layer is disabled).
    /// Everything in it derives deterministically from chain state, so
    /// it is identical across executor thread counts — emitted via
    /// [`MarketReport::econ_json`], kept out of [`MarketReport::to_json`]
    /// so pre-econ golden outputs stay stable.
    pub econ: Option<EconReport>,
    /// The network layer's report (`None` when the run was single-node).
    /// Derives from the canonical block feed and the seeded gossip
    /// layer, so it is identical across executor thread counts —
    /// emitted via [`MarketReport::net_json`], kept out of
    /// [`MarketReport::to_json`] so pre-net golden outputs stay stable.
    pub net: Option<NetReport>,
    /// The proving-service counters (job/queue/latency/cache). Every
    /// serialized field is thread-count independent (the service's
    /// per-job RNG streams and modeled latency don't see the pool
    /// width) — emitted via [`MarketReport::proving_json`], kept out of
    /// [`MarketReport::to_json`] so pre-proving golden outputs stay
    /// stable.
    pub proving: ProvingStats,
    /// The persistence-layer counters (`None` when the run kept no
    /// block store). Log and snapshot *cadence* counters are
    /// deterministic, but incremental-snapshot byte counts may differ
    /// across executor thread counts (the serial and parallel executors
    /// over-approximate the dirty working set differently) — emitted
    /// via [`MarketReport::persist_json`], kept out of
    /// [`MarketReport::to_json`] so that JSON stays the cross-thread
    /// equivalence witness.
    pub persist: Option<PersistStats>,
    /// Per-HIT outcomes, in id order.
    pub outcomes: Vec<HitOutcome>,
    /// Per-block footprints.
    pub block_stats: Vec<BlockStat>,
}

impl MarketReport {
    /// Compact single-object JSON (summary scalars only; per-HIT and
    /// per-block series are available on the struct).
    pub fn to_json(&self) -> String {
        let mode = match self.settlement {
            SettlementMode::PerProof => "per_proof",
            SettlementMode::Batched => "batched",
        };
        let mut s = String::with_capacity(512);
        s.push('{');
        push_kv(&mut s, "seed", &self.seed.to_string());
        push_kv(&mut s, "settlement", &format!("\"{mode}\""));
        push_kv(&mut s, "blocks", &self.blocks.to_string());
        push_kv(&mut s, "hits_published", &self.hits_published.to_string());
        push_kv(&mut s, "hits_settled", &self.hits_settled.to_string());
        push_kv(&mut s, "hits_cancelled", &self.hits_cancelled.to_string());
        push_kv(&mut s, "hits_unfinished", &self.hits_unfinished.to_string());
        push_kv(&mut s, "total_gas", &self.total_gas.to_string());
        push_kv(
            &mut s,
            "gas_per_block_mean",
            &format!("{:.1}", self.gas_per_block_mean),
        );
        push_kv(
            &mut s,
            "gas_per_block_max",
            &self.gas_per_block_max.to_string(),
        );
        push_kv(
            &mut s,
            "block_gas_limit",
            &self
                .block_gas_limit
                .map_or("null".into(), |l| l.to_string()),
        );
        push_kv(
            &mut s,
            "gas_utilization",
            &self
                .gas_utilization
                .map_or("null".into(), |u| format!("{u:.4}")),
        );
        push_kv(
            &mut s,
            "latency_mean_blocks",
            &format!("{:.2}", self.latency_mean_blocks),
        );
        push_kv(
            &mut s,
            "latency_max_blocks",
            &self.latency_max_blocks.to_string(),
        );
        push_kv(
            &mut s,
            "answers_collected",
            &self.answers_collected.to_string(),
        );
        push_kv(&mut s, "rewards_paid", &self.rewards_paid.to_string());
        push_kv(&mut s, "workers_paid", &self.workers_paid.to_string());
        push_kv(
            &mut s,
            "workers_rejected",
            &self.workers_rejected.to_string(),
        );
        push_kv(&mut s, "refunds", &self.refunds.to_string());
        push_kv(&mut s, "reverted_txs", &self.reverted_txs.to_string());
        push_kv(
            &mut s,
            "latency_violations",
            &self.latency_violations.to_string(),
        );
        push_kv(&mut s, "batch_dispatches", &self.batch.batches.to_string());
        push_kv(&mut s, "batch_items", &self.batch.items.to_string());
        s.push_str(&format!("\"batch_largest\":{}", self.batch.largest));
        s.push('}');
        s
    }

    /// The parallel-executor counters as one JSON object — kept separate
    /// from [`MarketReport::to_json`] so scheduler telemetry never leaks
    /// into the thread-count equivalence assertions. A thin view over
    /// [`ParallelStats::metric_set`].
    pub fn scheduler_json(&self) -> String {
        self.parallel.metric_set().to_json_object()
    }

    /// The econ layer's report as one JSON object (`null` when the layer
    /// is disabled). Deterministic across thread counts — `tests/econ.rs`
    /// asserts byte equality — so it is safe to golden-gate in CI.
    pub fn econ_json(&self) -> String {
        self.econ
            .as_ref()
            .map_or_else(|| "null".into(), EconReport::to_json)
    }

    /// The network layer's report as one JSON object (`null` when the
    /// run was single-node). Thread-count independent — safe to
    /// golden-gate in CI.
    pub fn net_json(&self) -> String {
        self.net
            .as_ref()
            .map_or_else(|| "null".into(), NetReport::to_json)
    }

    /// The proving-service counters as one JSON object. Thread-count
    /// independent (the worker-pool width is deliberately excluded) —
    /// safe to golden-gate in CI and to assert byte-equal across
    /// `DRAGOON_THREADS` (`tests/proving_equivalence.rs`).
    pub fn proving_json(&self) -> String {
        self.proving.to_json()
    }

    /// The persistence-layer counters as one JSON object (`null` when
    /// the run kept no block store). Deterministic at a fixed thread
    /// count and fixed pipeline config; golden-gate only with
    /// `exec_threads` pinned (delta byte counts track the executor's
    /// dirty-set over-approximation).
    pub fn persist_json(&self) -> String {
        self.persist
            .as_ref()
            .map_or_else(|| "null".into(), PersistStats::to_json)
    }

    /// The market-level scalars as one registry metric set
    /// (`market_*` names).
    fn market_metric_set(&self) -> dragoon_trace::MetricSet {
        let mut set = dragoon_trace::MetricSet::new("market")
            .gauge("seed", "market_seed", self.seed)
            .counter("blocks", "market_blocks_total", self.blocks)
            .counter(
                "hits_published",
                "market_hits_published_total",
                self.hits_published as u64,
            )
            .counter(
                "hits_settled",
                "market_hits_settled_total",
                self.hits_settled as u64,
            )
            .counter(
                "hits_cancelled",
                "market_hits_cancelled_total",
                self.hits_cancelled as u64,
            )
            .gauge(
                "hits_unfinished",
                "market_hits_unfinished",
                self.hits_unfinished as u64,
            )
            .counter("total_gas", "market_gas_used_total", self.total_gas)
            .gauge_f(
                "gas_per_block_mean",
                "market_gas_per_block_mean",
                self.gas_per_block_mean,
                1,
            )
            .gauge(
                "gas_per_block_max",
                "market_gas_per_block_max",
                self.gas_per_block_max,
            );
        if let Some(limit) = self.block_gas_limit {
            set = set.gauge("block_gas_limit", "market_block_gas_limit", limit);
        }
        if let Some(util) = self.gas_utilization {
            set = set.gauge_f("gas_utilization", "market_gas_utilization_ratio", util, 4);
        }
        set.gauge_f(
            "latency_mean_blocks",
            "market_latency_mean_blocks",
            self.latency_mean_blocks,
            2,
        )
        .gauge(
            "latency_max_blocks",
            "market_latency_max_blocks",
            self.latency_max_blocks,
        )
        .counter(
            "answers_collected",
            "market_answers_collected_total",
            self.answers_collected as u64,
        )
        .counter(
            "rewards_paid",
            "market_rewards_paid_coins_total",
            self.rewards_paid as i128,
        )
        .counter(
            "workers_paid",
            "market_workers_paid_total",
            self.workers_paid as u64,
        )
        .counter(
            "workers_rejected",
            "market_workers_rejected_total",
            self.workers_rejected as u64,
        )
        .counter(
            "refunds",
            "market_refunds_coins_total",
            self.refunds as i128,
        )
        .counter(
            "reverted_txs",
            "market_reverted_txs_total",
            self.reverted_txs as u64,
        )
        .counter(
            "latency_violations",
            "market_latency_violations_total",
            self.latency_violations as u64,
        )
        .counter(
            "batch_dispatches",
            "market_batch_dispatches_total",
            self.batch.batches,
        )
        .counter("batch_items", "market_batch_items_total", self.batch.items)
        .gauge(
            "batch_largest",
            "market_batch_largest_items",
            self.batch.largest,
        )
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

    /// One walk over the whole metrics registry — every subsystem's
    /// counters flattened under their `subsystem_name_unit` registry
    /// names, plus the process-lifetime violation counters. Excluded
    /// from [`MarketReport::to_json`]: the dump mixes thread-dependent
    /// telemetry (scheduler, persist bytes) with the equivalence
    /// witness fields, so it must never enter the golden assertions.
    pub fn metrics_json(&self) -> String {
        dragoon_trace::metrics::render_metrics_json(&self.metric_sets(), true)
    }

    /// The same registry walk in Prometheus text exposition format
    /// (hand-rolled: `# TYPE` lines, cumulative histogram buckets,
    /// per-index labels).
    pub fn metrics_prometheus(&self) -> String {
        dragoon_trace::metrics::render_prometheus(&self.metric_sets(), true)
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

fn push_kv(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(value);
    s.push(',');
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

    /// Every registry name the JSON dump carries is declared by a
    /// `# TYPE` line of the Prometheus exposition, with the optional
    /// econ, net and persist sets all present.
    #[test]
    fn prometheus_exposition_types_every_registry_name() {
        let dir = std::env::temp_dir().join(format!("dragoon-metrics-{}", std::process::id()));
        let report = run_market(MarketConfig {
            hits: 6,
            seed: 7,
            exec_threads: 1,
            econ: EconConfig {
                enabled: true,
                ..EconConfig::default()
            },
            net: Some(NetConfig::default()),
            persist: Some(PersistConfig::new(&dir)),
            ..MarketConfig::default()
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.econ.is_some() && report.net.is_some() && report.persist.is_some());
        let prometheus = report.metrics_prometheus();
        let typed: Vec<&str> = prometheus
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        // The dump is flat and its values are numbers, flags and number
        // arrays, so its quoted strings are exactly its names.
        let json = report.metrics_json();
        let names: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        for prefix in [
            "market_",
            "scheduler_",
            "proving_",
            "econ_",
            "net_",
            "persist_",
        ] {
            assert!(names.iter().any(|n| n.starts_with(prefix)), "{prefix}");
        }
        for name in names {
            assert!(typed.contains(&name), "{name} has no # TYPE line");
        }
    }
}
