//! # dragoon-bench
//!
//! The benchmark harness regenerating every table of the paper's
//! evaluation (§VI), plus shared helpers for the bench binaries.
//!
//! * `benches/table1_proving.rs` — Table I (off-chain proving cost).
//! * `benches/table2_verification.rs` — Table II (verification cost).
//! * `benches/table3_gas.rs` — Table III (on-chain handling fees), each
//!   task a one-HIT run of the market engine (`MarketSim::one_hit`).
//! * `benches/ablation_decrypt.rs` — BSGS vs. linear-scan decryption.
//! * `benches/micro_primitives.rs` — statistical microbenchmarks
//!   (field/curve/hash/pairing) via Criterion.
//! * `benches/marketplace_throughput.rs` — the market engine's tiers:
//!   HITs settled per 1 000 blocks, batched vs. individual settlement
//!   verification, and the overhead, memory and scale tiers (one
//!   `JSON:` line per measurement).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Times `f` averaged over `iters` runs (after one warmup).
pub fn time_avg<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    let _ = f();
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed() / iters
}

/// Times `f` once (for expensive operations like SNARK proving).
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// Formats a duration compactly (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.1} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.1} s", us as f64 / 1_000_000.0)
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable — the
/// scale-tier benches report and gate on it so a memory regression at
/// million-HIT scale fails loudly instead of silently swapping.
///
/// `VmHWM` is a high-water mark over the **whole process lifetime**: it
/// includes everything that ran before the call, so it measures one
/// tier only when that tier is the only thing the process ran.
pub fn peak_rss_kb() -> u64 {
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
