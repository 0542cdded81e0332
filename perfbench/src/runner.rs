//! The end-to-end runner: passes as child processes, per-workload
//! medians and quartiles, the correctness gate, and `repeat`.
//!
//! Load model: a closed loop on the virtual clock (each round publishes
//! `spawn_per_block` HITs and the agents react to the block just
//! produced), one process at a time, `exec_threads` pinned to 2.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::pass::PassResult;
use crate::stats::{highest_supported_percentile, quartiles, spread, within_bound, worsening};
use crate::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Passes per workload a set never goes below.
pub const MIN_PASSES: usize = 5;

/// Where the benchmark keeps what it writes: `<target dir>/bench`,
/// found from the running executable (`<target dir>/<profile>/<exe>`),
/// so it is inside the build directory whatever the caller's cwd is.
pub fn bench_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("executable lives in <target>/<profile>/");
    let dir = target.join("bench");
    std::fs::create_dir_all(&dir).expect("bench output directory must be writable");
    dir
}

/// A scratch directory for one pass's block store; removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let dir = bench_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory must be writable");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one pass of `workload` in a fresh child process.
fn spawn_pass(workload: Workload, seed: u64, hits: Option<usize>) -> Result<PassResult, String> {
    let scratch = ScratchDir::new(workload.name());
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("pass")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .arg("--store-dir")
        .arg(scratch.path());
    if let Some(hits) = hits {
        cmd.args(["--hits", &hits.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} pass exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    PassResult::from_output(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| format!("{} pass printed no result", workload.name()))
}

/// All passes of one workload in one set.
pub struct WorkloadRun {
    pub workload: Workload,
    pub passes: Vec<PassResult>,
}

impl WorkloadRun {
    /// Gate failures: every failed check of every pass, plus a report
    /// digest that differs between passes of the same seed.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .passes
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.ok())
            .map(|(i, p)| format!("pass {i}: {}", p.failed_checks))
            .collect();
        if self.passes.windows(2).any(|w| w[0].digest != w[1].digest) {
            out.push("report digest differs between passes".into());
        }
        out
    }

    /// HITs published over all passes.
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.hits).sum()
    }

    /// HITs unfinished at `max_blocks`; every HIT when the gate fails.
    pub fn failed(&self) -> u64 {
        if self.failures().is_empty() {
            self.passes.iter().map(|p| p.hits_unfinished).sum()
        } else {
            self.attempted()
        }
    }

    /// One value per pass of an end-to-end metric.
    pub fn values(&self, metric: &EndToEnd) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| match metric.name {
                "setup_s" => p.setup_s,
                "hits_per_s" => p.hits_settled as f64 / p.run_s,
                "peak_rss_mb" => p.peak_rss_kb as f64 / 1024.0,
                "settle_latency_blocks_p90" => p.latency_p90 as f64,
                "gas_per_hit" => p.total_gas as f64 / p.hits as f64,
                "recover_s" => p.recover_s,
                other => unreachable!("unknown end-to-end metric {other}"),
            })
            .collect()
    }

    pub fn median(&self, metric: &EndToEnd) -> f64 {
        quartiles(&mut self.values(metric)).1
    }

    /// Whether `metric` is measured on this workload.
    pub fn measures(&self, metric: &EndToEnd) -> bool {
        !metric.durable_only || self.workload == Workload::Durable
    }
}

/// One set: every workload in `workloads`, passes interleaved
/// round-robin (A B C D A B C D …) so slow drift on a shared machine
/// hits every workload equally. Runs until each workload has had
/// `seconds` of passes, and never fewer than `min_passes` rounds.
pub fn run_set(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    hits: Option<usize>,
) -> Result<Vec<WorkloadRun>, String> {
    let mut runs: Vec<WorkloadRun> = workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            passes: Vec::new(),
        })
        .collect();
    let budget = seconds * workloads.len() as f64;
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        for run in &mut runs {
            run.passes.push(spawn_pass(run.workload, seed, hits)?);
        }
        rounds += 1;
        // Stop when another round like this one would overrun.
        let next_end = start.elapsed().as_secs_f64() + round_start.elapsed().as_secs_f64();
        if rounds >= min_passes && next_end > budget {
            return Ok(runs);
        }
    }
}

/// Prints every end-to-end metric of every workload by name and unit:
/// median, quartiles, pass count, and the gate's verdict.
pub fn print_table(runs: &[WorkloadRun], seed: u64) {
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>14} {:<7} {:>6} {:>7}",
        "workload", "metric", "median", "q1", "q3", "unit", "passes", "spread"
    );
    for run in runs {
        println!("{:<18} {}", run.workload.name(), run.workload.why());
        for metric in END_TO_END.iter().filter(|m| run.measures(m)) {
            let (q1, med, q3) = quartiles(&mut run.values(metric));
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>14.4} {:<7} {:>6} {:>6.1}%",
                run.workload.name(),
                metric.name,
                med,
                q1,
                q3,
                metric.unit,
                run.passes.len(),
                spread(&mut run.values(metric)) * 100.0
            );
        }
        // A percentile wants ten samples beyond it; say so when a
        // shrunken pass cannot give the p90 that many.
        let samples = run.passes[0].latency_samples as usize;
        if highest_supported_percentile(samples).is_none_or(|p| p < 90) {
            println!(
                "{:<18} settle_latency_blocks_p90 rests on {samples} latencies, fewer than ten beyond it",
                run.workload.name()
            );
        }
        let (attempted, failed) = (run.attempted(), run.failed());
        println!(
            "{:<18} {:<26} {:>14.4} {:>14} {:>14} {:<7} {:>6}   seed {seed} ops_attempted {attempted} ops_failed {failed} digest {:016x}",
            run.workload.name(),
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "",
            "",
            "ratio",
            run.passes.len(),
            run.passes[0].digest,
        );
        for failure in run.failures() {
            println!("{:<18} GATE FAILED: {failure}", run.workload.name());
        }
    }
}

/// Whether every workload of the set passed its gate.
pub fn all_correct(runs: &[WorkloadRun]) -> bool {
    runs.iter().all(|r| r.failed() == 0)
}

/// `repeat`: two full sets back to back on the same build. Every
/// end-to-end median of the second must stay within its bound of the
/// first, in both directions (neither set is "the change"), and the
/// exact metrics and the report digest must be identical. When wall
/// metrics disagree the pass count goes 5 → 7 → 9; bounds never widen.
pub fn repeat(seed: u64, seconds: f64, hits: Option<usize>) -> Result<bool, String> {
    for min_passes in [MIN_PASSES, MIN_PASSES + 2, MIN_PASSES + 4] {
        println!("== repeat: two sets, at least {min_passes} passes per workload ==");
        let first = run_set(&Workload::ALL, seed, seconds, min_passes, hits)?;
        let second = run_set(&Workload::ALL, seed, seconds, min_passes, hits)?;
        print_table(&first, seed);
        print_table(&second, seed);
        if !all_correct(&first) || !all_correct(&second) {
            return Ok(false);
        }
        let (exact_ok, wall_ok) = compare_sets(&first, &second);
        if !exact_ok {
            return Ok(false);
        }
        if wall_ok {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Prints the comparison table; returns whether the exact metrics
/// (and digests) agree, and whether the others agree within bounds.
fn compare_sets(first: &[WorkloadRun], second: &[WorkloadRun]) -> (bool, bool) {
    let (mut exact_ok, mut wall_ok) = (true, true);
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        if a.passes[0].digest != b.passes[0].digest {
            println!(
                "{:<18} report digest differs between sets",
                a.workload.name()
            );
            exact_ok = false;
        }
        for metric in END_TO_END.iter().filter(|m| a.measures(m)) {
            let (x, y) = (a.median(metric), b.median(metric));
            let agree = if metric.exact {
                x == y
            } else {
                within_bound(x, y, metric.better, metric.bound, metric.floor)
                    && within_bound(y, x, metric.better, metric.bound, metric.floor)
            };
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                a.workload.name(),
                metric.name,
                x,
                y,
                worsening(x, y, metric.better) * 100.0,
                metric.bound * 100.0,
                if agree { "agree" } else { "DISAGREE" }
            );
            if !agree && metric.exact {
                exact_ok = false;
            } else if !agree {
                wall_ok = false;
            }
        }
    }
    (exact_ok, wall_ok)
}
