//! The network run's serializable outcome.

/// Counters and convergence facts for one simulated network run.
///
/// Everything here derives from the canonical block feed (which is
/// thread-count independent) and the seeded gossip layer, so the JSON
/// is byte-stable across thread budgets — safe to golden-gate — but
/// is kept out of `MarketReport::to_json` so pre-net witnesses stay
/// byte-identical.
#[derive(Clone, Debug, Default)]
pub struct NetReport {
    /// Node count (including the sequencer's node, node 0).
    pub nodes: usize,
    /// Virtual clock ticks elapsed (rounds + final drain).
    pub ticks: u64,
    /// Messages handed to the gossip layer.
    pub messages_sent: u64,
    /// Messages lost to partitions, link loss or relay censorship.
    pub messages_dropped: u64,
    /// Duplicate deliveries injected by the link layer.
    pub duplicates_delivered: u64,
    /// Fork blocks produced by stalled replicas.
    pub forks_produced: u64,
    /// Branch switches that popped at least one applied block, summed
    /// over nodes.
    pub reorgs: u64,
    /// Deepest single reorg (blocks popped and re-applied).
    pub max_reorg_depth: u64,
    /// Scheduled partition windows in the scenario.
    pub partition_windows: usize,
    /// Ticks spent in the final convergence drain.
    pub drain_ticks: u64,
    /// Whether every node ended on the canonical head.
    pub converged: bool,
    /// Per-node tick at which the node's head reached the canonical
    /// tip and stayed there (`-1` = never converged).
    pub convergence_tick: Vec<i64>,
}

impl NetReport {
    /// The network counters as one registry [`dragoon_trace::MetricSet`];
    /// its object view is the `NET:` report line.
    pub fn metric_set(&self) -> dragoon_trace::MetricSet {
        dragoon_trace::MetricSet::new("net")
            .int("nodes", self.nodes as u64)
            .int("ticks", self.ticks)
            .int("messages_sent", self.messages_sent)
            .int("messages_dropped", self.messages_dropped)
            .int("duplicates_delivered", self.duplicates_delivered)
            .int("forks_produced", self.forks_produced)
            .int("reorgs", self.reorgs)
            .int("max_reorg_depth", self.max_reorg_depth)
            .int("partition_windows", self.partition_windows as u64)
            .int("drain_ticks", self.drain_ticks)
            .flag("converged", self.converged)
            .ints("convergence_tick", self.convergence_tick.iter().copied())
    }

    /// A human-oriented one-liner for example binaries.
    pub fn summary(&self) -> String {
        format!(
            "net:    {} nodes over {} ticks — {} msgs ({} dropped, {} dups), \
             {} forks, {} reorgs (max depth {}), converged: {}",
            self.nodes,
            self.ticks,
            self.messages_sent,
            self.messages_dropped,
            self.duplicates_delivered,
            self.forks_produced,
            self.reorgs,
            self.max_reorg_depth,
            self.converged,
        )
    }
}
