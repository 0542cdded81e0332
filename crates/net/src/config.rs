//! Network scenario configuration.

/// A scheduled partition: while `start <= tick < end`, every link
/// between an `island` node and a non-island node is cut (messages sent
/// across the cut are lost, not delayed — anti-entropy re-announces
/// heads every tick, so state catches up after the heal).
#[derive(Clone, Debug)]
pub struct PartitionWindow {
    /// First tick (inclusive) the partition is active.
    pub start: u64,
    /// First tick the partition is healed again.
    pub end: u64,
    /// The node indices on the minority side of the cut.
    pub island: Vec<usize>,
}

impl PartitionWindow {
    /// Whether the link `a ↔ b` is cut at `tick`.
    pub fn cuts(&self, tick: u64, a: usize, b: usize) -> bool {
        (self.start..self.end).contains(&tick)
            && (self.island.contains(&a) != self.island.contains(&b))
    }
}

/// Built-in relay adversaries, selectable from configuration (the
/// [`crate::RelayPolicy`] trait accepts arbitrary implementations in
/// code, through [`crate::NetSim::with_relay`]; this enum is the
/// `Clone`-able subset a scenario can carry).
#[derive(Clone, Debug)]
pub enum RelaySpec {
    /// Forward everything unchanged.
    Honest,
    /// Network-level MEV, withhold-and-release flavor: the sequencer's
    /// block messages are buffered and released in bursts every
    /// `period` ticks — replicas see nothing, go stale (forking once
    /// patience runs out), then receive the whole burst and reorg.
    WithholdRelease {
        /// Burst period in ticks.
        period: u64,
    },
}

/// Everything that defines the simulated network. Defaults give a
/// healthy 4-node topology: short seeded delays, no loss, no
/// partitions, honest relay.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Node count, including the sequencer's own node (node 0).
    pub nodes: usize,
    /// Per-message link delay range `(min, max)` in ticks, drawn
    /// seeded per send. `(0, 0)` models a perfect instant network.
    pub delay: (u64, u64),
    /// Per-message loss probability in permille (0–1000).
    pub drop_per_mille: u32,
    /// Per-message duplicate-delivery probability in permille.
    pub duplicate_per_mille: u32,
    /// Scheduled partitions (may overlap; a link is cut if any active
    /// window cuts it).
    pub partitions: Vec<PartitionWindow>,
    /// Ticks a replica's head must be stale before it proposes its own
    /// block from its gossip mempool (the fork source).
    pub fork_patience: u64,
    /// The relay policy between every pair of nodes.
    pub relay: RelaySpec,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            delay: (1, 3),
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            partitions: Vec::new(),
            fork_patience: 4,
            relay: RelaySpec::Honest,
        }
    }
}
