//! `dragoon-bench`: the repository's benchmark.
//!
//! ```text
//! dragoon-bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one workload; the last stdout line is the result as one JSON
//!     object (end-to-end metrics, or with --trace 1 the per-layer ones)
//! dragoon-bench run    [--seed N] [--seconds S]   all four workloads end to end
//! dragoon-bench trace  [--seed N] [--seconds S]   the traced layer driver on all four
//! dragoon-bench repeat [--seed N] [--seconds S]   two sets, compared against the bounds
//! ```
//!
//! `--seconds` is per workload. `--hits H` shrinks every pass and
//! cohort (the smoke test uses it). Exit code 0 means every
//! correctness gate passed (and, for `repeat`, that the sets agree).

mod layers;
mod metrics;
mod pass;
mod runner;
mod span;
mod stats;
mod workload;

use metrics::{END_TO_END, PER_LAYER};
use runner::{WorkloadRun, MIN_PASSES};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Seconds one workload is measured for when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;
const DEFAULT_SEED: u64 = 42;

/// Environment the engine reads. Cleared before anything runs, here and
/// so in every pass process, so the numbers never depend on the
/// caller's shell: tracing stays off and the thread count is the
/// config's.
const CLEARED_ENV: [&str; 4] = [
    "DRAGOON_TRACE",
    "DRAGOON_TRACE_EVENTS",
    "DRAGOON_THREADS",
    "DRAGOON_SEED",
];

struct Opts {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    hits: Option<usize>,
    store_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        hits: None,
        store_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value for {arg}: {v}");
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                opts.workload = Some(Workload::from_name(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                opts.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--hits" => {
                let v = value()?;
                opts.hits = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--store-dir" => opts.store_dir = Some(PathBuf::from(value()?)),
            "run" | "trace" | "repeat" | "pass" if opts.command.is_none() => {
                opts.command = Some(arg.clone());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// The contract's result line: `correct`, `attempted`, `failed` and the
/// metrics, each value printed with all its digits.
fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// `--workload W --trace 0`: the end-to-end passes of one workload.
fn end_to_end(opts: &Opts, workload: Workload) -> Result<bool, String> {
    let runs = runner::run_set(&[workload], opts.seed, opts.seconds, MIN_PASSES, opts.hits)?;
    runner::print_table(&runs, opts.seed);
    let run: &WorkloadRun = &runs[0];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .filter(|m| !m.durable_only)
        .map(|m| (m.name, run.median(m), m.unit))
        .collect();
    println!("{}", result_json(run.attempted(), run.failed(), &metrics));
    Ok(run.failed() == 0)
}

/// The traced layer driver on one workload, after the one untraced
/// end-to-end pass its `sim.*` metrics come from.
fn traced_report(opts: &Opts, workload: Workload) -> Result<layers::LayerReport, String> {
    let pass = runner::run_set(&[workload], opts.seed, 0.0, 1, opts.hits)?
        .remove(0)
        .passes
        .remove(0);
    let report = layers::run_traced(workload, opts.seed, opts.seconds, opts.hits, &pass)?;
    report.print();
    Ok(report)
}

/// `--workload W --trace 1`: the per-layer metrics of one workload.
fn traced(opts: &Opts, workload: Workload) -> Result<bool, String> {
    let report = traced_report(opts, workload)?;
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, report.value(m.name), m.unit))
        .collect();
    println!("{}", result_json(report.attempted, report.failed, &metrics));
    Ok(report.failed == 0)
}

fn dispatch(opts: &Opts) -> Result<bool, String> {
    match (opts.command.as_deref(), opts.workload) {
        (Some("pass"), Some(workload)) => {
            let dir = opts.store_dir.as_deref().ok_or("pass needs --store-dir")?;
            let result = pass::run_pass(workload, opts.seed, opts.hits, dir);
            println!("{}", result.to_line());
            Ok(result.ok())
        }
        (Some("run"), None) => {
            let runs = runner::run_set(
                &Workload::ALL,
                opts.seed,
                opts.seconds,
                MIN_PASSES,
                opts.hits,
            )?;
            runner::print_table(&runs, opts.seed);
            Ok(runner::all_correct(&runs))
        }
        (Some("trace"), None) => {
            let mut ok = true;
            for workload in Workload::ALL {
                ok &= traced_report(opts, workload)?.failed == 0;
            }
            Ok(ok)
        }
        (Some("repeat"), None) => runner::repeat(opts.seed, opts.seconds, opts.hits),
        (None, Some(workload)) if opts.trace => traced(opts, workload),
        (None, Some(workload)) => end_to_end(opts, workload),
        _ => Err("give --workload W, or one of: run, trace, repeat".into()),
    }
}

fn main() -> ExitCode {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|opts| dispatch(&opts)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dragoon-bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// The smoke tests: every workload and the layer driver through the
/// full pass code path, gate included, at 8 HITs — so the benchmark
/// cannot rot between the runs that take minutes.
#[cfg(test)]
mod smoke {
    use crate::layers::run_traced;
    use crate::metrics::PER_LAYER;
    use crate::pass::run_pass;
    use crate::runner::ScratchDir;
    use crate::workload::Workload;

    const HITS: usize = 8;

    #[test]
    fn every_workload_passes_its_gate() {
        for workload in Workload::ALL {
            let name = workload.name();
            let scratch = ScratchDir::new(&format!("smoke-pass-{name}"));
            let pass = run_pass(workload, 42, Some(HITS), scratch.path());
            assert!(pass.ok(), "{name}: gate failed: {}", pass.failed_checks);
            assert_eq!(pass.hits, HITS as u64, "{name}");
            assert_eq!(
                pass.hits_settled + pass.hits_cancelled,
                HITS as u64,
                "{name}"
            );
            assert_eq!(pass.latency_samples, HITS as u64, "{name}");
            assert!(pass.setup_s > 0.0 && pass.run_s > 0.0, "{name}");
            assert!(pass.peak_rss_kb > 0 && pass.total_gas > 0, "{name}");
            assert_eq!(
                pass.recover_s > 0.0,
                workload == Workload::Durable,
                "{name}: recovery is timed on durable_market only"
            );
            // Same seed, same report: the digest the runner compares.
            let again = run_pass(workload, 42, Some(HITS), scratch.path());
            assert_eq!(again.digest, pass.digest, "{name}");
            let other = run_pass(workload, 43, Some(HITS), scratch.path());
            assert_ne!(
                other.digest, pass.digest,
                "{name}: the seed reaches the run"
            );
        }
    }

    #[test]
    fn layer_driver_reports_every_metric_and_balances_its_spans() {
        for workload in Workload::ALL {
            let name = workload.name();
            let scratch = ScratchDir::new(&format!("smoke-trace-{name}"));
            let pass = run_pass(workload, 42, Some(HITS), scratch.path());
            let report = run_traced(workload, 42, 0.0, Some(HITS), &pass).expect("traced run");
            assert_eq!(report.failures, Vec::<String>::new(), "{name}");
            assert_eq!(report.failed, 0, "{name}");
            assert!(report.attempted > 0, "{name}");
            for metric in &PER_LAYER {
                assert!(
                    report.value(metric.name).is_finite(),
                    "{name}: {} is not a number",
                    metric.name
                );
            }
            assert!(report.value("protocol.commit_ms_p50") > 0.0, "{name}");
            assert!(report.value("chain.recover_ms_p50") > 0.0, "{name}");
            assert!(report.value("net.broadcast_block_ms_p50") > 0.0, "{name}");
            // Self times sum to the pipeline's wall: a gap is a bug in
            // the span bookkeeping.
            let sum: f64 = report.layer_self_ms.iter().map(|(_, ms)| ms).sum();
            assert!(
                (sum - report.pipeline_wall_ms).abs() <= 1e-6 * report.pipeline_wall_ms,
                "{name}: self times {sum} ms against wall {} ms",
                report.pipeline_wall_ms
            );
            let trace = std::fs::read_to_string(&report.trace_path).expect("span file");
            assert_eq!(
                trace.matches("\"ph\":\"X\"").count(),
                report.spans,
                "{name}"
            );
            assert!(trace.contains("\"name\":\"bench.round\""), "{name}");
        }
    }
}
