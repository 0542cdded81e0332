//! One end-to-end pass: one workload through `MarketSim` in this
//! process, tracing off, followed by the correctness gate. The runner
//! starts every pass as a fresh child process so that `VmHWM` and CPU
//! time belong to that pass alone, and reads the result back from one
//! `PASS key=value ...` line.

use crate::workload::Workload;
use dragoon_chain::Chain;
use dragoon_contract::HitRegistry;
use dragoon_crypto::keccak::keccak256;
use dragoon_sim::{recover_market_chain, MarketConfig, MarketReport, MarketSim};
use std::path::Path;
use std::time::Instant;

/// `recover_market_chain` calls timed after a `durable_market` pass.
const RECOVERIES: usize = 9;

/// What one pass measured. Counts are exact for a `(workload, seed)`;
/// times, RSS and CPU vary pass to pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassResult {
    /// Pass start until `MarketSim::new` returns.
    pub setup_s: f64,
    /// Wall time of the run call.
    pub run_s: f64,
    /// Median of the recovery calls (`durable_market` only, else 0).
    pub recover_s: f64,
    /// `VmHWM` of the pass process.
    pub peak_rss_kb: u64,
    /// utime + stime of the pass process.
    pub cpu_s: f64,
    pub hits: u64,
    pub hits_settled: u64,
    pub hits_cancelled: u64,
    pub hits_unfinished: u64,
    pub blocks: u64,
    pub txs: u64,
    pub total_gas: u64,
    /// Publish→settle latencies behind the p90, and the p90 itself.
    pub latency_samples: u64,
    pub latency_p90: u64,
    /// First 8 bytes of keccak256(`report.to_json()`).
    pub digest: u64,
    /// Names of the gate checks that failed, `+`-joined; empty = pass.
    pub failed_checks: String,
}

impl PassResult {
    pub fn to_line(&self) -> String {
        format!(
            "PASS setup_s={} run_s={} recover_s={} peak_rss_kb={} cpu_s={} hits={} \
             hits_settled={} hits_cancelled={} hits_unfinished={} blocks={} txs={} total_gas={} \
             latency_samples={} latency_p90={} digest={} failed_checks={}",
            self.setup_s,
            self.run_s,
            self.recover_s,
            self.peak_rss_kb,
            self.cpu_s,
            self.hits,
            self.hits_settled,
            self.hits_cancelled,
            self.hits_unfinished,
            self.blocks,
            self.txs,
            self.total_gas,
            self.latency_samples,
            self.latency_p90,
            self.digest,
            self.failed_checks,
        )
    }

    /// Parses the last `PASS` line of a child's stdout.
    pub fn from_output(stdout: &str) -> Option<Self> {
        let line = stdout.lines().rev().find(|l| l.starts_with("PASS "))?;
        let mut r = PassResult::default();
        for field in line.split_whitespace().skip(1) {
            let (key, value) = field.split_once('=')?;
            match key {
                "setup_s" => r.setup_s = value.parse().ok()?,
                "run_s" => r.run_s = value.parse().ok()?,
                "recover_s" => r.recover_s = value.parse().ok()?,
                "peak_rss_kb" => r.peak_rss_kb = value.parse().ok()?,
                "cpu_s" => r.cpu_s = value.parse().ok()?,
                "hits" => r.hits = value.parse().ok()?,
                "hits_settled" => r.hits_settled = value.parse().ok()?,
                "hits_cancelled" => r.hits_cancelled = value.parse().ok()?,
                "hits_unfinished" => r.hits_unfinished = value.parse().ok()?,
                "blocks" => r.blocks = value.parse().ok()?,
                "txs" => r.txs = value.parse().ok()?,
                "total_gas" => r.total_gas = value.parse().ok()?,
                "latency_samples" => r.latency_samples = value.parse().ok()?,
                "latency_p90" => r.latency_p90 = value.parse().ok()?,
                "digest" => r.digest = value.parse().ok()?,
                "failed_checks" => r.failed_checks = value.to_string(),
                _ => return None,
            }
        }
        Some(r)
    }

    pub fn ok(&self) -> bool {
        self.failed_checks.is_empty()
    }
}

/// Peak resident set of this process in kB (`VmHWM`). A process
/// high-water mark: it covers everything the process ever did, which is
/// why a pass is a process of its own.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// utime + stime of this process, all threads, in seconds. The fields
/// are in `USER_HZ` ticks, which Linux fixes at 100 for every
/// architecture it exports procfs on.
fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// The value at the 90th percentile (nearest rank) of `sorted`.
fn p90(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * 9).div_ceil(10);
    sorted[rank.max(1) - 1]
}

/// Runs one pass and its correctness gate. `hits` overrides the pass
/// size; `store_dir` must be a directory this pass owns.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    hits: Option<usize>,
    store_dir: &Path,
) -> PassResult {
    let start = Instant::now();
    let config = workload.config(seed, hits, store_dir);
    let sim = MarketSim::new(config.clone());
    let setup_s = start.elapsed().as_secs_f64();
    let supply = sim.chain().ledger.total_supply();

    let run_start = Instant::now();
    let (report, chain, net) = sim.run_keeping_net();
    let run_s = run_start.elapsed().as_secs_f64();

    let mut failed: Vec<&str> = Vec::new();
    let mut check = |ok: bool, name: &'static str| {
        if !ok {
            failed.push(name);
        }
    };
    check(
        report.hits_settled + report.hits_cancelled == config.hits,
        "all_hits_settled_or_cancelled",
    );
    check(report.hits_unfinished == 0, "no_unfinished_hits");
    check(report.latency_violations == 0, "no_latency_violations");
    check(
        chain.ledger.total_supply() == supply,
        "total_supply_conserved",
    );
    check(
        report.parallel.gas_fallbacks + report.parallel.gas_prefix_commits == 0,
        "no_gas_congestion",
    );
    if let Some(net) = &net {
        check(net.report().converged, "net_converged");
        check(
            (0..net.nodes()).all(|i| same_committed_state(net.node_chain(i), &chain)),
            "replicas_equal_canonical",
        );
    }
    let recover_s = if config.persist.is_some() {
        let (recover_s, recovered_ok) = time_recoveries(&config, &chain);
        check(recovered_ok, "recovered_equals_live");
        recover_s
    } else {
        0.0
    };

    let mut latencies: Vec<u64> = report.outcomes.iter().filter_map(|o| o.latency()).collect();
    latencies.sort_unstable();
    PassResult {
        setup_s,
        run_s,
        recover_s,
        peak_rss_kb: peak_rss_kb(),
        cpu_s: cpu_seconds(),
        hits: config.hits as u64,
        hits_settled: report.hits_settled as u64,
        hits_cancelled: report.hits_cancelled as u64,
        hits_unfinished: report.hits_unfinished as u64,
        blocks: report.blocks,
        txs: report.block_stats.iter().map(|b| b.txs as u64).sum(),
        total_gas: report.total_gas,
        latency_samples: latencies.len() as u64,
        latency_p90: p90(&latencies),
        digest: report_digest(&report),
        failed_checks: failed.join("+"),
    }
}

/// Whether a replica holds the canonical chain's committed state:
/// registry, ledger, receipts and events. Not `state_image()`, which
/// also covers the submission counter only the sequencer advances.
pub fn same_committed_state(replica: &Chain<HitRegistry>, canonical: &Chain<HitRegistry>) -> bool {
    replica.contract() == canonical.contract()
        && replica.ledger == canonical.ledger
        && replica.blocks() == canonical.blocks()
        && replica.events() == canonical.events()
}

/// Times `RECOVERIES` recoveries of the finished store and checks each
/// against the live chain.
fn time_recoveries(config: &MarketConfig, live: &Chain<HitRegistry>) -> (f64, bool) {
    let live_image = live.state_image();
    let mut ok = true;
    let mut times = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let recovered = recover_market_chain(config);
        times.push(t.elapsed().as_secs_f64());
        ok &= recovered.is_ok_and(|c| c.state_image() == live_image);
    }
    (crate::stats::median(&mut times), ok)
}

fn report_digest(report: &MarketReport) -> u64 {
    let hash = keccak256(report.to_json().as_bytes());
    u64::from_be_bytes(hash[..8].try_into().expect("8 of 32 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_line_round_trips() {
        let r = PassResult {
            setup_s: 0.125,
            run_s: 4.5,
            recover_s: 0.0625,
            peak_rss_kb: 30_000,
            cpu_s: 8.25,
            hits: 44,
            hits_settled: 43,
            hits_cancelled: 1,
            hits_unfinished: 0,
            blocks: 21,
            txs: 600,
            total_gas: 123_456_789,
            latency_samples: 44,
            latency_p90: 9,
            digest: 0xdead_beef_0bad_f00d,
            failed_checks: "net_converged+no_unfinished_hits".into(),
        };
        let out = format!("noise\n{}\n", r.to_line());
        assert_eq!(PassResult::from_output(&out), Some(r));
        assert_eq!(PassResult::from_output("no pass line"), None);
    }

    #[test]
    fn p90_is_nearest_rank() {
        assert_eq!(p90(&[]), 0);
        assert_eq!(p90(&[7]), 7);
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(p90(&v), 9);
        let v: Vec<u64> = (1..=44).collect();
        assert_eq!(p90(&v), 40);
    }
}
