//! The metric tables: names, units, directions and bounds, exactly as
//! `BENCHMARK.json` lists them, plus — for every layer metric — the
//! end-to-end metric and workload it is predicted to move.

use crate::stats::Better;

/// One end-to-end metric: what a user of the marketplace would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
    /// Absolute floor of the bound, in the metric's unit (0 = none).
    pub floor: f64,
    /// A pure function of `(workload, seed)`: two sets at one seed must
    /// agree exactly, whatever the bound says.
    pub exact: bool,
    /// Measured on `durable_market` only, so it cannot be part of the
    /// `BENCHMARK.json` contract (which wants every metric on every
    /// workload); the runner still prints and compares it.
    pub durable_only: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
        exact: false,
        durable_only: false,
    },
    EndToEnd {
        name: "hits_per_s",
        unit: "HITs/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        exact: false,
        durable_only: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        exact: false,
        durable_only: false,
    },
    EndToEnd {
        name: "settle_latency_blocks_p90",
        unit: "blocks",
        better: Better::Lower,
        bound: 0.05,
        floor: 0.0,
        exact: true,
        durable_only: false,
    },
    EndToEnd {
        name: "gas_per_hit",
        unit: "gas",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
        exact: true,
        durable_only: false,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.02,
        exact: false,
        durable_only: true,
    },
];

/// One single-layer metric. None of these gate a change.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this is predicted to move.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const PROVE: &str = "hits_per_s: imagenet_market most, micro_market less, lossy_net_market least";
const TABLE: &str =
    "hits_per_s on micro_market (12 encryptions per table), not imagenet_market (424)";
const VERIFY: &str = "hits_per_s on lossy_net_market (replicas pay it 3x), little on micro_market, none on imagenet_market";
const REPLICA: &str = "hits_per_s on lossy_net_market only";
const STORE: &str =
    "peak_rss_mb and recover_s on durable_market; hits_per_s there only through backpressure";
const RECOVER: &str = "recover_s on durable_market";
const RSS: &str =
    "peak_rss_mb: micro_market, ~4x as strongly lossy_net_market, barely imagenet_market";
const CORES: &str =
    "hits_per_s on micro/durable/lossy_net_market: bounds what more threads could buy";
const GUARD: &str = "none: a counter that explains the others";

pub const PER_LAYER: [PerLayer; 60] = [
    lower("protocol.publish_us_p50", "us", PROVE),
    lower("protocol.commit_ms_p50", "ms", PROVE),
    lower("protocol.reveal_us_p50", "us", PROVE),
    lower("protocol.evaluate_ms_p50", "ms", PROVE),
    lower("protocol.busy_share", "ratio", PROVE),
    higher("protocol.pool_jobs_per_s", "1/s", CORES),
    higher("protocol.pool_efficiency", "ratio", CORES),
    lower("crypto.keygen_us_p50", "us", "setup_s on every workload"),
    lower("crypto.encrypt_us_p50", "us", PROVE),
    lower("crypto.encrypt_table_us_p50", "us", PROVE),
    lower("crypto.table_build_ms_p50", "ms", TABLE),
    lower("crypto.decrypt_us_p50", "us", PROVE),
    lower("crypto.vpke_prove_us_p50", "us", PROVE),
    lower("crypto.vpke_verify_us_p50", "us", VERIFY),
    lower("crypto.vpke_batch_verify_us_per_item", "us", VERIFY),
    lower("crypto.commit_us_p50", "us", PROVE),
    lower("core.answer_encrypt_ms_p50", "ms", PROVE),
    lower("core.prove_quality_ms_p50", "ms", PROVE),
    lower("core.verify_quality_ms_p50", "ms", VERIFY),
    lower("chain.execute_ms_per_block_p50", "ms", VERIFY),
    lower("chain.execute_us_per_tx.create", "us", VERIFY),
    lower("chain.execute_us_per_tx.commit", "us", VERIFY),
    lower("chain.execute_us_per_tx.reveal", "us", VERIFY),
    lower("chain.execute_us_per_tx.settle", "us", VERIFY),
    lower("chain.execute_busy_share", "ratio", VERIFY),
    higher("chain.groups_per_batch", "count", CORES),
    lower("chain.serial_tx_share", "ratio", CORES),
    lower("chain.retry_share", "ratio", CORES),
    lower("chain.persist_block_us_p50", "us", STORE),
    lower("chain.persist_block_ms_max", "ms", STORE),
    lower("chain.drain_ms", "ms", STORE),
    lower("chain.log_bytes_per_tx", "B", STORE),
    lower("chain.snapshot_bytes_per_publish", "B", STORE),
    lower("chain.recover_ms_p50", "ms", RECOVER),
    lower("chain.replay_us_per_tx", "us", RECOVER),
    lower("chain.replica_apply_us_per_tx", "us", REPLICA),
    lower("chain.replica_revert_ms_p50", "ms", REPLICA),
    lower("contract.state_bytes_per_hit", "B", RSS),
    lower("contract.encode_ms", "ms", RECOVER),
    higher("contract.batch_items_per_block", "count", VERIFY),
    higher("contract.overlap_hit_share", "ratio", CORES),
    lower("ledger.tx_bracket_ns_p50", "ns", VERIFY),
    lower("ledger.rollback_ns_p50", "ns", VERIFY),
    lower("ledger.overlay_us_p50", "us", VERIFY),
    lower("net.gossip_tx_us_p50", "us", REPLICA),
    lower("net.broadcast_block_ms_p50", "ms", REPLICA),
    lower("net.drain_ms", "ms", REPLICA),
    lower("net.msgs_per_block", "count", REPLICA),
    lower("net.dropped_share", "ratio", GUARD),
    lower("net.reorgs", "count", GUARD),
    lower("net.max_reorg_depth", "blocks", GUARD),
    lower(
        "sim.cpu_s_per_khit",
        "s",
        "tells a real hits_per_s saving from work moved between the two cores",
    ),
    lower("sim.rss_kb_per_hit", "kB", RSS),
    lower("sim.txs_per_hit", "count", GUARD),
    lower("sim.blocks", "count", GUARD),
    lower(
        "sim.engine_overhead_ms_per_hit",
        "ms",
        "hits_per_s on micro_market (engine maps and steps); a difference, so noisy",
    ),
    lower(
        "bench.span_overhead_ns",
        "ns",
        "none: the cost of the tracing itself",
    ),
    lower(
        "bench.pipeline_wall_ms",
        "ms",
        "none: the lockstep pipeline's wall, the base of the shares",
    ),
    lower(
        "bench.span_gap_share",
        "ratio",
        "none: (wall - sum of self times) / wall, 0 by construction",
    ),
    higher(
        "bench.rounds",
        "count",
        "none: lockstep cohorts driven, a function of --seconds",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is data for the driver, this table is what the
    /// runner prints: they must name the same metrics in the same order.
    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        let expected: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(
                END_TO_END
                    .iter()
                    .filter(|m| !m.durable_only)
                    .map(|m| m.name),
            )
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names, expected);
        for m in END_TO_END.iter().filter(|m| !m.durable_only) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
