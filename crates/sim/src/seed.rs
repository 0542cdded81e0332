//! Seed injection: every binary in this repository draws its randomness
//! from an explicit `u64` seed so runs are reproducible. These helpers
//! let the seed come from the environment or the command line instead of
//! a hard-coded constant — and let a binary take its thread budget from
//! `DRAGOON_THREADS`, the one place that variable is read. Only
//! binaries call them; the engine reads no environment, so a run is a
//! function of its `MarketConfig`.

/// The environment variable examples and benches consult for a seed.
pub const SEED_ENV_VAR: &str = "DRAGOON_SEED";

/// Reads a seed from `DRAGOON_SEED` (decimal or `0x`-prefixed hex),
/// falling back to `default`. Malformed values fall back too — a typo'd
/// seed should not crash a long benchmark run.
pub fn seed_from_env_or(default: u64) -> u64 {
    std::env::var(SEED_ENV_VAR)
        .ok()
        .and_then(|v| parse_seed(&v))
        .unwrap_or(default)
}

/// Reads a seed from the first CLI argument, then `DRAGOON_SEED`, then
/// `default` — the precedence examples use (`cargo run --example
/// marketplace -- 42`).
pub fn seed_from_args_or(default: u64) -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|v| parse_seed(&v))
        .unwrap_or_else(|| seed_from_env_or(default))
}

/// Reads a binary's thread budget from `DRAGOON_THREADS`, for
/// `MarketConfig::exec_threads`: unset or malformed is `0`, the host's
/// available parallelism. Reports are identical at every budget; only
/// wall clock and the scheduler counters move.
pub fn threads_from_env() -> usize {
    std::env::var("DRAGOON_THREADS").map_or(0, |v| parse_threads(&v))
}

/// A decimal thread count; `0`, or anything that is not one, is `0`.
fn parse_threads(v: &str) -> usize {
    v.trim().parse().unwrap_or(0)
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 42 "), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed("0X2A"), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn parses_thread_budgets() {
        assert_eq!(parse_threads("4"), 4);
        assert_eq!(parse_threads(" 8\n"), 8);
        // Zero and garbage both leave the budget to the host.
        assert_eq!(parse_threads("0"), 0);
        assert_eq!(parse_threads(""), 0);
        assert_eq!(parse_threads("four"), 0);
        assert_eq!(parse_threads("-1"), 0);
        assert_eq!(parse_threads("0x4"), 0);
    }
}
