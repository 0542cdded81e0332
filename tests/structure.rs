//! The structure gate: what this codebase keeps exactly once, checked
//! over the source tree as one record per invariant. A second copy of
//! one of these is how two paths drift apart, so a violation fails
//! `cargo test` rather than waiting for review. If a record fails, call
//! the site it names; do not add a second one.
//!
//! A record is a line pattern, the files it reads (`scope`), the part of
//! each file it reads (`cut`) and what it expects. Non-test text is
//! everything before a file's first line that *begins* with
//! `#[cfg(test)]`. The matcher is std-only and line-based; the few
//! regular expressions among the patterns are named predicates. This
//! file spells every name it forbids, so the gate skips it.
//!
//! `cargo test -q --test structure` runs the gate alone in seconds.

use std::path::Path;

/// The directories a scope may name; the tree is loaded from them once.
const ROOTS: &[&str] = &["crates", "tests", "examples"];
/// This file, which spells every forbidden name.
const SELF: &str = "tests/structure.rs";

const SRC: &[&str] = &["crates/*/src"];
const SRC_TESTS: &[&str] = &["crates/*/src", "tests"];
const SRC_TESTS_EXAMPLES: &[&str] = &["crates/*/src", "tests", "examples"];
const ALL: &[&str] = ROOTS;

/// `since` of a record added together with this file, whose adding
/// commit `git log --diff-filter=A tests/structure.rs` names.
const WITH_THIS_FILE: &str = "tests/structure.rs";
/// `since` of the records that hold a key table to its requester
/// agent, set by the commit this pickaxe names.
const AGENT_TABLES: &str = "git log -S 'table: Option<Arc<FixedBaseTable>>'";
/// `since` of the records that give each metric one name, set by the
/// commit this pickaxe names.
const ONE_METRIC_NAME: &str = "git log -1 -S 'render_metrics_json' -- crates/trace";

/// `since` of the records that put a VPKE proof's nonce pair on the
/// lanes and give both fields one binary-GCD inversion, set by the
/// commit this pickaxe names.
const LANE_NONCES: &str = "git log -S 'fn nonce_commitments' -- crates/crypto";

/// `since` of the records that run a market's network on its own
/// thread, set by the commit this pickaxe names.
const NET_THREAD: &str = "git log -S 'fn send_block' -- crates/net";

/// `since` of the records that keep node 0 to its block tree, set by
/// the commit this pickaxe names.
const SEQUENCER_TREE: &str = "git log -S 'fn detach_trace' -- crates/chain";

/// `since` of the records that put the round loop's background workers
/// on one pipeline stage, set by the commit this pickaxe names.
const ONE_STAGE: &str = "git log -S 'pub struct Stage<' -- crates/chain";

/// `since` of the records that put the settlement MSM's aggregation on
/// the lanes, set by the commit this pickaxe names.
const LANE_AGGREGATION: &str = "git log -S 'fn msm_combine' -- crates/crypto";

/// The files of the three workers that run on a `dragoon_chain::stage::Stage`.
const STAGE_OWNERS: &[&str] = &[
    "crates/chain/src/store.rs",
    "crates/contract/src/registry.rs",
    "crates/net/src/feed.rs",
];

/// One alternative of a record's pattern, matched against one line.
#[derive(Clone, Copy)]
enum Pat {
    /// A literal substring. A leading or trailing `\b` asks for a word
    /// boundary there, as in a regular expression.
    Lit(&'static str),
    /// A call: the literal, on a line that is not the callee's own
    /// `fn name(` definition.
    Call(&'static str),
    /// A regular expression (spelled out for messages) as a predicate.
    Pred(&'static str, fn(&str) -> bool),
}

/// The part of each file in scope that a record reads.
#[derive(Clone, Copy)]
enum Cut {
    Whole,
    /// Lines before the first one beginning with `#[cfg(test)]`.
    NonTest,
    /// From each line beginning with the head to the next line
    /// beginning with `}`, both included: a top-level fn's body.
    Body(&'static str),
}

#[derive(Clone, Copy)]
enum Expect {
    /// No matching line.
    Absent,
    /// Exactly this many matching lines.
    Count(usize),
    /// At least this many matching lines.
    AtLeast(usize),
    /// The files with a matching line are exactly these.
    Files(&'static [&'static str]),
    /// The matching lines sit in these files, one line per entry.
    Lines(&'static [&'static str]),
    /// The scope names a file that must not exist.
    Missing,
}

struct Record {
    pats: &'static [Pat],
    scope: &'static [&'static str],
    cut: Cut,
    expect: Expect,
    reason: &'static str,
    /// The commit that set the check.
    since: &'static str,
}

const RECORDS: &[Record] = &[
    Record {
        pats: &[Pat::Lit("charge(\"intrinsic\"")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Count(1),
        reason: "a transaction's cost and bracket live in `chain::run_tx`, which every execution path runs through",
        since: "8aba0eb",
    },
    Record {
        pats: &[Pat::Lit("thread::scope")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Files(&["crates/chain/src/parallel.rs", "crates/crypto/src/precomp.rs"]),
        reason: "every fan-out over the thread budget goes through `par_map` (`precomp.rs` holds a unit test of concurrent lookups)",
        since: "8aba0eb",
    },
    Record {
        pats: &[Pat::Lit("thread::scope")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Files(&["crates/chain/src/parallel.rs"]),
        reason: "outside tests, `dragoon_chain::par_map` is the one scoped-thread fan-out",
        since: WITH_THIS_FILE,
    },
    Record {
        pats: &[Pat::Pred("golden_\\?sent (any case)", golden_sent)],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Files(&["crates/protocol/src/requester.rs"]),
        reason: "`dragoon_protocol::Sequencer` decides a requester's transactions and holds the only golden-sent state",
        since: "70f8a96",
    },
    Record {
        pats: &[Pat::Lit("HitSnapshot")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "agents read a live instance in place through `HitRegistry::hit`, never from a per-block copy",
        since: "70f8a96",
    },
    Record {
        pats: &[
            Pat::Lit("record_debit"),
            Pat::Lit("debits_accounts"),
            Pat::Lit("repair_reverted_creates"),
            Pat::Lit("with_assignments"),
            Pat::Lit("shard lock poisoned"),
        ],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a speculative batch has one recovery, the serial backstop; registry shards are plain maps behind `&mut self`",
        since: "6fd6cab",
    },
    Record {
        pats: &[
            Pat::Lit("push_kv"),
            Pat::Lit("counter_inc"),
            Pat::Lit("counter_add"),
            Pat::Lit("registry_counters"),
            Pat::Lit("include_process"),
            Pat::Lit("finish_report"),
        ],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a run is serialized only by its `MetricSet`s: no hand-rolled key/value writer, no process-wide counters",
        since: "3c5f26d",
    },
    Record {
        pats: &[
            Pat::Pred("^ *static ", static_item),
            Pat::Lit("OnceLock"),
            Pat::Lit("Mutex"),
        ],
        scope: &["crates/trace/src/metrics.rs"],
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "the metrics registry holds no process-global state; violation counters are per-run fields of the sets",
        since: "3c5f26d",
    },
    Record {
        pats: &[
            Pat::Pred("^ *static ", static_item),
            Pat::Lit("OnceLock"),
            Pat::Lit("thread_local"),
        ],
        scope: &["crates/trace/src"],
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a run owns its trace: `dragoon_trace` holds no `static`, `OnceLock` or thread-local, only the handle's `Mutex`",
        since: "965ef3a",
    },
    Record {
        pats: &[
            Pat::Lit(r"dragoon_trace::event\b"),
            Pat::Lit(r"dragoon_trace::span\b"),
            Pat::Lit(r"dragoon_trace::start_capture\b"),
            Pat::Lit(r"dragoon_trace::start_full_capture\b"),
            Pat::Lit(r"dragoon_trace::init_from_env\b"),
            Pat::Lit(r"dragoon_trace::finish\b"),
            Pat::Lit(r"dragoon_trace::flush_thread\b"),
        ],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "emitters are built with the run's `Tracer`: no ambient event call, capture session or env init",
        since: "965ef3a",
    },
    Record {
        pats: &[Pat::Lit("get_seq"), Pat::Lit("run_keeping_chain")],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a length prefix read from disk has one guard, `Reader::seq`; a run's ways out are `run` and `run_keeping_net`",
        since: "965ef3a",
    },
    Record {
        pats: &[Pat::Pred("pub fn [a-z_]*_json", json_view)],
        scope: &["crates/sim/src/metrics.rs"],
        cut: Cut::Whole,
        expect: Expect::Count(2),
        reason: "two JSON views: `to_json` and the `section_json` filter",
        since: ONE_METRIC_NAME,
    },
    Record {
        pats: &[Pat::Lit("batch_verify_each(")],
        scope: &["crates/contract/src/registry.rs"],
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "a block's settlement proofs are partitioned in one place, `registry::verify_chunks`",
        since: "8b6fbac",
    },
    Record {
        pats: &[Pat::Lit("montgomery_reduce("), Pat::Lit("mul_wide_4(")],
        scope: &["crates/crypto/src/field.rs"],
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "a field product is one CIOS pass; the schoolbook product and its separate reduction are the test oracle",
        since: "577741c",
    },
    Record {
        pats: &[Pat::Lit("par_map(")],
        scope: &["crates/protocol/src/proving.rs"],
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "a proof batch reaches the pool through one `par_map`, in the hand-out order `submit_batch` computes",
        since: "577741c",
    },
    Record {
        pats: &[Pat::Lit("is_x86_feature_detected!")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Count(1),
        reason: "the CPU is probed once, in `lanes::has_ifma`",
        since: "52d0cb4",
    },
    Record {
        pats: &[Pat::Lit("allow(unsafe_code)")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Files(&["crates/crypto/src/lib.rs"]),
        reason: "every other crate root forbids `unsafe`; `dragoon-crypto` denies it and allows it on `lanes` only",
        since: "52d0cb4",
    },
    Record {
        pats: &[
            Pat::Lit("unsafe {"),
            Pat::Lit("unsafe fn"),
            Pat::Lit("unsafe impl"),
        ],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Files(&["crates/crypto/src/lanes.rs"]),
        reason: "`unsafe` code lives only in the AVX-512 IFMA lane kernel",
        since: "52d0cb4",
    },
    Record {
        pats: &[Pat::Call(r"\bmul_lockstep(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/elgamal.rs"]),
        reason: "`EncryptionKey::encrypt_batch` is lockstep's one production caller: no third fixed-base path",
        since: "ca6104c",
    },
    Record {
        pats: &[Pat::Call(r"\bfixed_base_mul(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/elgamal.rs"]),
        reason: "`encrypt_batch` reaches the lanes' fixed-base kernel with one call for the whole lane list",
        since: "be6d363",
    },
    Record {
        pats: &[Pat::Call(r"\bmsm_buckets(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/g1.rs"]),
        reason: "the MSM bucket phase reaches the lanes from `g1::msm_pippenger` only",
        since: "3e75ad4",
    },
    Record {
        pats: &[Pat::Lit(r"\bmsm_buckets(")],
        scope: &["crates/crypto/src/g1.rs"],
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "`g1` calls the lanes' bucket phase once, from `msm_pippenger`",
        since: "3e75ad4",
    },
    Record {
        pats: &[Pat::Lit(r"\bmsm_buckets(")],
        scope: &["crates/crypto/src/g1.rs"],
        cut: Cut::Body("pub fn msm_pippenger("),
        expect: Expect::Count(1),
        reason: "the lane call sits in `msm_pippenger`'s own body, not in a second MSM beside it",
        since: "3e75ad4",
    },
    Record {
        pats: &[Pat::Call(r"\bmsm_combine(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/g1.rs"]),
        reason: "the MSM aggregation reaches the lanes from `g1::msm_pippenger` only",
        since: LANE_AGGREGATION,
    },
    Record {
        pats: &[Pat::Lit(r"\bmsm_combine(")],
        scope: &["crates/crypto/src/g1.rs"],
        cut: Cut::Body("pub fn msm_pippenger("),
        expect: Expect::Count(1),
        reason: "the lane aggregation sits in `msm_pippenger`'s own body, beside its bucket phase",
        since: LANE_AGGREGATION,
    },
    Record {
        pats: &[Pat::Lit("b\"fold\"")],
        scope: &["crates/crypto/src/vpke.rs"],
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a fold weighs each item's two equations with its own two 127-bit weights; no transcript squeezes a shared fold weight",
        since: LANE_AGGREGATION,
    },
    Record {
        pats: &[Pat::Call(r"\bmsm_pippenger(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/vpke.rs"]),
        reason: "a settlement fold's MSM has one body, called from production code only by `vpke`'s fold",
        since: "3e75ad4",
    },
    Record {
        pats: &[Pat::Call(r"\bfixed_base_tables(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/precomp.rs"]),
        reason: "a requester key's table has one lane builder, reached only through `FixedBaseTable::new_batch`",
        since: "4d14758",
    },
    Record {
        pats: &[Pat::Lit(r"\bfixed_base_tables(")],
        scope: &["crates/crypto/src/precomp.rs"],
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "`FixedBaseTable::new_batch` calls the lane builder once",
        since: "4d14758",
    },
    Record {
        pats: &[Pat::Lit("table_for(")],
        scope: &["crates/sim/src", "crates/protocol/src"],
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "a market's commit job receives its table claimed and built before the batch, not looked up",
        since: "4d14758",
    },
    Record {
        pats: &[Pat::Lit("ProofCache")],
        scope: &["crates/sim/src"],
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "a requester agent owns its key table (`RequesterAgent::table`); the market keeps no keyed cache beside it",
        since: AGENT_TABLES,
    },
    Record {
        pats: &[
            Pat::Lit("TableClaim"),
            Pat::Lit("TableBuilds"),
            Pat::Lit(".claim("),
            Pat::Lit(".retire("),
        ],
        scope: &["crates"],
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a table's life is its owner's: no claim slots filled after the fact, no retirement from a shared map",
        since: AGENT_TABLES,
    },
    Record {
        pats: &[Pat::Lit("LaneTable::new(")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Count(1),
        reason: "only the generator's table is converted to lane form whole; other tables convert the rows a call touches",
        since: "be6d363",
    },
    Record {
        pats: &[Pat::Lit("LaneTable::new(")],
        scope: &["crates/crypto/src/lanes.rs"],
        cut: Cut::Body("fn generator_lane_table"),
        expect: Expect::Count(1),
        reason: "the whole-table conversion runs once per process, in `generator_lane_table`",
        since: "be6d363",
    },
    Record {
        pats: &[
            Pat::Lit("AgentPolicy"),
            Pat::Lit("HonestPolicy"),
            Pat::Lit("WorkerCtx"),
            Pat::Lit("ProposerPolicy"),
            Pat::Lit("DelayTargets"),
            Pat::Lit("cfg.drain_ticks"),
            Pat::Pred("drain_ticks: [0-9]", drain_ticks_literal),
        ],
        scope: SRC_TESTS_EXAMPLES,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a knob returns only with a caller: fixed econ adversaries, round-robin proposers, a constant drain budget",
        since: "e72bd95",
    },
    Record {
        pats: &[
            Pat::Lit("fn batch_verify<"),
            Pat::Lit("bytes_compressed"),
            Pat::Lit("pub fn sqrt"),
            Pat::Lit("imagenet_with_rng"),
            Pat::Lit("pub fn imagenet("),
            Pat::Lit("shared_cache"),
            Pat::Lit("impl Default for HitRegistry"),
            Pat::Lit("pub fn decode(bytes"),
        ],
        scope: SRC_TESTS_EXAMPLES,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "one implementation per job; a second returns only together with a production caller",
        since: "fe7c859",
    },
    Record {
        pats: &[Pat::Lit("impl StateMachine for HitContract")],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "the chain hosts `HitRegistry` only; `HitContract` is its instance type, so no `Chain<HitContract>`",
        since: "2abd58d",
    },
    Record {
        pats: &[
            Pat::Lit("IdReserver"),
            Pat::Lit("shard_reserve"),
            Pat::Lit("reservation_base"),
            Pat::Lit("AccessSet::create"),
            Pat::Lit("is_reserved"),
        ],
        scope: SRC_TESTS,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "`Create` is a serial barrier; speculative id reservation does not come back",
        since: "24264a4",
    },
    Record {
        pats: &[Pat::Call("create_instance(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "the registry's `Create` arm is the one place an instance is registered and the id counter advances",
        since: "24264a4",
    },
    Record {
        pats: &[Pat::Lit("fn glv_split(")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Lines(&["crates/crypto/src/g1.rs"]),
        reason: "`g1::glv_split` is the one Babai rounding against the lattice basis",
        since: "62e7639",
    },
    Record {
        pats: &[Pat::Lit(r"\bglv_split(")],
        scope: &["crates/crypto/src/precomp.rs"],
        cut: Cut::NonTest,
        expect: Expect::AtLeast(1),
        reason: "the fixed-base tables reach `glv_split` rather than carry a second recoding of the scalar",
        since: "62e7639",
    },
    Record {
        pats: &[
            Pat::Lit("GLV_C_OVER_R"),
            Pat::Lit("GLV_B_OVER_R"),
            Pat::Lit("fn mul_high_rounded"),
        ],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Files(&["crates/crypto/src/g1.rs"]),
        reason: "the GLV rounding constants live beside the one split",
        since: "62e7639",
    },
    Record {
        pats: &[],
        scope: &["crates/protocol/src/driver.rs"],
        cut: Cut::Whole,
        expect: Expect::Missing,
        reason: "a single task runs through the market engine; the protocol driver does not come back beside it",
        since: "76267a1",
    },
    Record {
        pats: &[
            Pat::Lit("run_with_policy"),
            Pat::Lit("RunConfig"),
            Pat::Lit("driver::"),
        ],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a single task is `MarketSim::one_hit(..).run_hit()`, not a driver run",
        since: "76267a1",
    },
    Record {
        pats: &[Pat::Call("verdicts_landed(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/sim/src/engine.rs"]),
        reason: "`Sequencer::verdicts_landed` has one production caller, the engine",
        since: "76267a1",
    },
    Record {
        pats: &[Pat::Call("advance_round_parallel(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/sim/src/engine.rs"]),
        reason: "`MarketSim::run_to_end` is the one loop that advances a chain round by round",
        since: "76267a1",
    },
    Record {
        pats: &[Pat::Lit("Step::OpenGolden =>")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/sim/src/engine.rs"]),
        reason: "`Drives::react` is the one place a requester's `Step` becomes messages",
        since: "76267a1",
    },
    Record {
        pats: &[Pat::Pred(
            "impl(<[^>]*>)? StateMachine for",
            state_machine_impl,
        )],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/contract/src/registry.rs"]),
        reason: "one deployment path: `HitRegistry` is the one production `StateMachine`",
        since: "2abd58d",
    },
    Record {
        pats: &[Pat::Lit("env::var")],
        scope: SRC,
        cut: Cut::Whole,
        expect: Expect::Files(&["crates/sim/src/seed.rs", "crates/trace/src/lib.rs"]),
        reason: "the library reads no environment but the seed and thread helpers binaries call and `Tracer::from_env`",
        since: "792c625",
    },
    Record {
        pats: &[Pat::Lit("resolve_threads(")],
        scope: &["crates/contract/src"],
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "`HitRegistry` stores the thread count it was handed instead of resolving it per use",
        since: "792c625",
    },
    Record {
        pats: &[Pat::Lit("MarketPolicy")],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "the scheduler is FIFO unless `MarketSim::with_policy` says otherwise; no policy config beside it",
        since: "792c625",
    },
    Record {
        pats: &[
            Pat::Lit("render_prometheus"),
            Pat::Lit("metrics_prometheus"),
            Pat::Lit("MetricKind"),
        ],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "the registry renders JSON only; a second exposition format returns only together with a caller",
        since: WITH_THIS_FILE,
    },
    Record {
        pats: &[Pat::Lit("metrics_json")],
        scope: ALL,
        cut: Cut::Whole,
        expect: Expect::Absent,
        reason: "a metric's one name is its JSON key; the report lines print every set, so no flat dump repeats them",
        since: ONE_METRIC_NAME,
    },
    Record {
        pats: &[Pat::Lit("mul_scalar(")],
        scope: &["crates/crypto/src/vpke.rs"],
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "a VPKE proof's nonce products go to the lanes as a pair, or to `batch_mul` and the generator's table; `mul_scalar` is the test oracle only",
        since: LANE_NONCES,
    },
    Record {
        pats: &[Pat::Call(r"\bbatch_mul_shared(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/crypto/src/g1.rs", "crates/crypto/src/vpke.rs"]),
        reason: "the shared-scalar lane kernel has two production callers: `G1Affine::batch_mul` and a VPKE proof's nonce pair",
        since: LANE_NONCES,
    },
    Record {
        pats: &[Pat::Lit("fn inverse(")],
        scope: &["crates/crypto/src/field.rs"],
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "`Fq` and `Fr` share one inversion, the binary GCD written once in `montgomery_field!`",
        since: LANE_NONCES,
    },
    Record {
        pats: &[Pat::Lit(".broadcast_block("), Pat::Lit(".gossip_tx(")],
        scope: &["crates/sim/src"],
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "the engine drives its network only through the `NetFeed` pipe, one message per round; the synchronous drive is gone",
        since: NET_THREAD,
    },
    Record {
        pats: &[
            Pat::Lit("thread::spawn"),
            Pat::Lit("thread::Builder"),
            Pat::Lit("thread::scope"),
        ],
        scope: &["crates/net/src"],
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "the network runs on one `Stage` of its own, started by `NetSim::spawn`; nodes replay serially, in order, on it",
        since: ONE_STAGE,
    },
    Record {
        pats: &[Pat::Lit(".apply_block_captured(")],
        scope: &["crates/net/src"],
        cut: Cut::NonTest,
        expect: Expect::Count(2),
        reason: "the network executes a block in a replica's `try_advance` and in node 0's audit view, nowhere else: the sequencer's node does not replay the market's chain",
        since: SEQUENCER_TREE,
    },
    Record {
        pats: &[Pat::Lit("fn sequencer() -> Self")],
        scope: &["crates/net/src/node.rs"],
        cut: Cut::NonTest,
        expect: Expect::Count(1),
        reason: "`Node::sequencer` takes no `Chain`: node 0 holds its block tree and head, and its state is built only as an audit view",
        since: SEQUENCER_TREE,
    },
    Record {
        pats: &[Pat::Lit("thread::Builder"), Pat::Lit("thread::spawn")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(&["crates/chain/src/stage.rs"]),
        reason: "a long-lived thread is a `dragoon_chain::stage::Stage`, which owns the one spawn, its channel, its teardown and its panic rule",
        since: ONE_STAGE,
    },
    Record {
        pats: &[Pat::Lit("Stage::spawn(")],
        scope: SRC,
        cut: Cut::NonTest,
        expect: Expect::Lines(STAGE_OWNERS),
        reason: "the round loop has three background workers — the block writer, the overlap verifier and the network feed — and each starts one stage",
        since: ONE_STAGE,
    },
    Record {
        pats: &[
            Pat::Lit("JoinHandle"),
            Pat::Lit("sync_channel"),
            Pat::Lit("resume_unwind"),
        ],
        scope: STAGE_OWNERS,
        cut: Cut::NonTest,
        expect: Expect::Absent,
        reason: "a stage's owner leaves the join, the channel and the panic to the stage",
        since: ONE_STAGE,
    },
];

/// `^ *static `: a `static` item, indented by spaces only.
fn static_item(line: &str) -> bool {
    line.trim_start_matches(' ').starts_with("static ")
}

/// `golden_\?sent`, any case.
fn golden_sent(line: &str) -> bool {
    let line = line.to_ascii_lowercase();
    line.contains("golden_sent") || line.contains("goldensent")
}

/// `pub fn [a-z_]*_json`.
fn json_view(line: &str) -> bool {
    line.match_indices("pub fn ").any(|(i, head)| {
        let name = &line[i + head.len()..];
        let end = name
            .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
            .unwrap_or(name.len());
        name[..end].contains("_json")
    })
}

/// `drain_ticks: [0-9]`.
fn drain_ticks_literal(line: &str) -> bool {
    line.match_indices("drain_ticks: ")
        .any(|(i, head)| line[i + head.len()..].starts_with(|c: char| c.is_ascii_digit()))
}

/// `impl(<[^>]*>)? StateMachine for`.
fn state_machine_impl(line: &str) -> bool {
    line.match_indices(" StateMachine for").any(|(i, _)| {
        let before = &line[..i];
        before.ends_with("impl")
            || before.strip_suffix('>').is_some_and(|generics| {
                generics
                    .match_indices("impl<")
                    .any(|(j, head)| !generics[j + head.len()..].contains('>'))
            })
    })
}

/// Whether `line` holds `lit`, honouring a leading or trailing `\b`.
fn contains_lit(line: &str, lit: &str) -> bool {
    let (left, core) = lit.strip_prefix(r"\b").map_or((false, lit), |c| (true, c));
    let (right, core) = core
        .strip_suffix(r"\b")
        .map_or((false, core), |c| (true, c));
    let bytes = line.as_bytes();
    let word = |at: Option<usize>| {
        at.and_then(|i| bytes.get(i))
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
    };
    let boundary = |at: usize| word(at.checked_sub(1)) != word(Some(at));
    line.match_indices(core)
        .any(|(i, _)| (!left || boundary(i)) && (!right || boundary(i + core.len())))
}

impl Pat {
    fn matches(self, line: &str) -> bool {
        match self {
            Pat::Lit(lit) => contains_lit(line, lit),
            Pat::Call(call) => {
                let name = call.trim_start_matches(r"\b").trim_end_matches('(');
                contains_lit(line, call) && !line.contains(&format!("fn {name}("))
            }
            Pat::Pred(_, pred) => pred(line),
        }
    }

    fn spelling(self) -> String {
        match self {
            Pat::Lit(lit) => lit.to_string(),
            Pat::Call(call) => format!("{call} (not its `fn` line)"),
            Pat::Pred(regex, _) => regex.to_string(),
        }
    }
}

impl Cut {
    /// The numbered lines of `text` this cut reads.
    fn lines(self, text: &str) -> Vec<(usize, &str)> {
        let numbered = text.lines().enumerate().map(|(i, line)| (i + 1, line));
        match self {
            Cut::Whole => numbered.collect(),
            Cut::NonTest => numbered
                .take_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
                .collect(),
            Cut::Body(head) => {
                let mut inside = false;
                numbered
                    .filter(|(_, line)| {
                        if inside {
                            inside = !line.starts_with('}');
                            true
                        } else {
                            inside = line.starts_with(head);
                            inside
                        }
                    })
                    .collect()
            }
        }
    }
}

impl Expect {
    fn describe(self) -> String {
        match self {
            Expect::Absent => "no line".into(),
            Expect::Count(n) => format!("exactly {n} line(s)"),
            Expect::AtLeast(n) => format!("at least {n} line(s)"),
            Expect::Files(files) => format!("lines in exactly {files:?}"),
            Expect::Lines(files) => format!("one line per entry of {files:?}"),
            Expect::Missing => "no such file".into(),
        }
    }

    /// Whether matching lines in `paths` (one entry per line, in tree
    /// order) meet the expectation.
    fn holds(self, paths: &[&str]) -> bool {
        fn sorted<'a>(list: &[&'a str]) -> Vec<&'a str> {
            let mut list = list.to_vec();
            list.sort_unstable();
            list
        }
        match self {
            Expect::Absent | Expect::Missing => paths.is_empty(),
            Expect::Count(n) => paths.len() == n,
            Expect::AtLeast(n) => paths.len() >= n,
            Expect::Files(files) => {
                let mut found = sorted(paths);
                found.dedup();
                found == sorted(files)
            }
            Expect::Lines(files) => sorted(paths) == sorted(files),
        }
    }
}

/// One file of the tree, by its path from the repository root.
struct Source {
    path: String,
    text: String,
}

/// Whether `path` lies at or under `scope`, whose `*` components match
/// any one component.
fn in_scope(path: &str, scope: &str) -> bool {
    let mut parts = path.split('/');
    scope
        .split('/')
        .all(|want| parts.next().is_some_and(|part| want == "*" || want == part))
}

impl Record {
    /// Checks the record against `tree`; the error says why it failed
    /// and lists each offending `file:line`.
    fn check(&self, tree: &[Source]) -> Result<(), String> {
        let files: Vec<&Source> = tree
            .iter()
            .filter(|f| self.scope.iter().any(|s| in_scope(&f.path, s)))
            .collect();
        let found: Vec<(&str, usize, &str)> = match self.expect {
            Expect::Missing => files.iter().map(|f| (f.path.as_str(), 0, "")).collect(),
            _ if files.is_empty() => {
                return Err(format!("scope {:?} reads no file", self.scope));
            }
            _ => files
                .iter()
                .flat_map(|f| {
                    self.cut
                        .lines(&f.text)
                        .into_iter()
                        .filter(|(_, line)| self.pats.iter().any(|p| p.matches(line)))
                        .map(|(no, line)| (f.path.as_str(), no, line))
                })
                .collect(),
        };
        let paths: Vec<&str> = found.iter().map(|(path, ..)| *path).collect();
        if self.expect.holds(&paths) {
            return Ok(());
        }
        let pats: Vec<String> = self.pats.iter().map(|p| p.spelling()).collect();
        let mut msg = format!(
            "{} (since {})\n  {} in {:?}: expected {}, found {}:",
            self.reason,
            self.since,
            pats.join(" | "),
            self.scope,
            self.expect.describe(),
            found.len(),
        );
        for (path, no, line) in &found {
            msg.push_str(&format!("\n    {path}:{no}: {}", line.trim()));
        }
        Err(msg)
    }
}

/// Every file under [`ROOTS`] but this one, in sorted path order.
fn load_tree() -> Vec<Source> {
    fn walk(root: &Path, rel: String, out: &mut Vec<Source>) {
        let path = root.join(&rel);
        let meta = std::fs::symlink_metadata(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        if meta.is_dir() {
            let mut names: Vec<String> = std::fs::read_dir(&path)
                .unwrap_or_else(|e| panic!("{rel}: {e}"))
                .map(|entry| entry.expect("directory entry").file_name())
                .map(|name| name.to_string_lossy().into_owned())
                .collect();
            names.sort_unstable();
            for name in names {
                walk(root, format!("{rel}/{name}"), out);
            }
        } else if meta.is_file() && rel != SELF {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            let text = String::from_utf8_lossy(&bytes).into_owned();
            out.push(Source { path: rel, text });
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut tree = Vec::new();
    for dir in ROOTS {
        walk(&root, dir.to_string(), &mut tree);
    }
    tree
}

#[test]
fn the_tree_keeps_every_record() {
    let tree = load_tree();
    let failures: Vec<String> = RECORDS
        .iter()
        .filter_map(|record| record.check(&tree).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} structure records fail:\n\n{}",
        failures.len(),
        RECORDS.len(),
        failures.join("\n\n")
    );
}

/// A rule that expects something present fails when nothing matches, so
/// a renamed call site cannot pass it vacuously; and every scope stays
/// under the loaded roots.
#[test]
fn positive_records_fail_on_zero_matches() {
    for record in RECORDS {
        let positive = !matches!(record.expect, Expect::Absent | Expect::Missing);
        assert_eq!(!record.expect.holds(&[]), positive, "{}", record.reason);
        for scope in record.scope {
            assert!(ROOTS.iter().any(|root| in_scope(scope, root)), "{scope}");
        }
    }
}

fn fixture(files: &[(&str, &str)]) -> Vec<Source> {
    files
        .iter()
        .map(|(path, text)| Source {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect()
}

fn rule(pats: &'static [Pat], cut: Cut, expect: Expect) -> Record {
    Record {
        pats,
        scope: &["crates/*/src"],
        cut,
        expect,
        reason: "fixture",
        since: WITH_THIS_FILE,
    }
}

const TEST_MODULE: &str = "#[cfg(test)]\nmod tests {\n    fn t() { legacy_path(); }\n}\n";

#[test]
fn absent_rule_reads_the_cut_it_names() {
    let clean = fixture(&[(
        "crates/a/src/lib.rs",
        &format!("fn f() {{}}\n{TEST_MODULE}"),
    )]);
    let planted = fixture(&[("crates/a/src/lib.rs", "fn f() { legacy_path(); }\n")]);
    let absent = |cut| rule(&[Pat::Lit("legacy_path(")], cut, Expect::Absent);
    assert!(absent(Cut::NonTest).check(&clean).is_ok());
    assert!(absent(Cut::Whole).check(&clean).is_err());
    let err = absent(Cut::NonTest).check(&planted).unwrap_err();
    assert!(
        err.contains("crates/a/src/lib.rs:1: fn f() { legacy_path(); }"),
        "{err}"
    );
    // An indented `#[cfg(test)]` does not end the non-test text.
    let nested = fixture(&[("crates/a/src/lib.rs", "    #[cfg(test)]\nlegacy_path();\n")]);
    assert!(absent(Cut::NonTest).check(&nested).is_err());
}

#[test]
fn count_rules_count_lines() {
    let one = fixture(&[("crates/a/src/lib.rs", "run_tx(); run_tx();\n")]);
    let two = fixture(&[
        ("crates/a/src/lib.rs", "run_tx();\n"),
        ("crates/b/src/x.rs", "run_tx();\n"),
    ]);
    let count = |expect| rule(&[Pat::Lit("run_tx(")], Cut::Whole, expect);
    assert!(count(Expect::Count(1)).check(&one).is_ok());
    assert!(count(Expect::Count(1)).check(&two).is_err());
    assert!(count(Expect::AtLeast(2)).check(&two).is_ok());
    assert!(count(Expect::AtLeast(2)).check(&one).is_err());
}

#[test]
fn file_set_rule_compares_sets() {
    let clean = fixture(&[
        ("crates/a/src/lib.rs", "scope(); scope();\nscope();\n"),
        ("crates/b/src/lib.rs", "none\n"),
    ]);
    let planted = fixture(&[
        ("crates/a/src/lib.rs", "scope();\n"),
        ("crates/b/src/lib.rs", "scope();\n"),
    ]);
    let files = rule(
        &[Pat::Lit("scope(")],
        Cut::Whole,
        Expect::Files(&["crates/a/src/lib.rs"]),
    );
    assert!(files.check(&clean).is_ok());
    assert!(files.check(&planted).is_err());
}

#[test]
fn call_rule_skips_the_definition_and_counts_each_line() {
    let clean = fixture(&[
        ("crates/a/src/lib.rs", "pub fn fold() {}\n"),
        (
            "crates/b/src/lib.rs",
            &format!("fn g() {{ a::fold(); }}\n{TEST_MODULE}    fold();\n"),
        ),
    ]);
    let twice = fixture(&[
        ("crates/a/src/lib.rs", "pub fn fold() {}\n"),
        (
            "crates/b/src/lib.rs",
            "fn g() { fold(); }\nfn h() { fold(); }\n",
        ),
    ]);
    let elsewhere = fixture(&[
        ("crates/a/src/lib.rs", "pub fn fold() { refold(); }\n"),
        ("crates/b/src/lib.rs", "fn g() { fold(); }\n"),
        ("crates/c/src/lib.rs", "fn h() { fold (); x.fold(); }\n"),
    ]);
    let callers = rule(
        &[Pat::Call(r"\bfold(")],
        Cut::NonTest,
        Expect::Lines(&["crates/b/src/lib.rs"]),
    );
    assert!(callers.check(&clean).is_ok());
    assert!(callers.check(&twice).is_err());
    assert!(callers.check(&elsewhere).is_err());
}

#[test]
fn body_cut_reads_one_top_level_fn() {
    let text = "pub fn msm() {\n    buckets();\n}\nfn other() {\n    buckets();\n}\n";
    let clean = fixture(&[("crates/a/src/lib.rs", text)]);
    let outside = fixture(&[(
        "crates/a/src/lib.rs",
        "pub fn msm() {\n}\nfn o() { buckets(); }\n",
    )]);
    let body = rule(
        &[Pat::Lit("buckets(")],
        Cut::Body("pub fn msm("),
        Expect::Count(1),
    );
    assert!(body.check(&clean).is_ok());
    assert!(body.check(&outside).is_err());
}

#[test]
fn missing_rule_fails_once_the_file_exists() {
    let gone = Record {
        scope: &["crates/a/src/driver.rs"],
        ..rule(&[], Cut::Whole, Expect::Missing)
    };
    assert!(gone.check(&fixture(&[("crates/a/src/lib.rs", "")])).is_ok());
    let back = fixture(&[("crates/a/src/driver.rs", "")]);
    assert!(gone
        .check(&back)
        .unwrap_err()
        .contains("crates/a/src/driver.rs"));
}

#[test]
fn an_empty_scope_fails() {
    let absent = rule(&[Pat::Lit("x")], Cut::Whole, Expect::Absent);
    let err = absent
        .check(&fixture(&[("crates/a/tests/t.rs", "")]))
        .unwrap_err();
    assert!(err.contains("reads no file"), "{err}");
}

#[test]
fn scopes_glob_one_component() {
    assert!(in_scope("crates/a/src/x.rs", "crates/*/src"));
    assert!(in_scope("crates/a/src/x.rs", "crates/a/src/x.rs"));
    assert!(!in_scope("crates/a/tests/x.rs", "crates/*/src"));
    assert!(!in_scope("crates/a/srcs/x.rs", "crates/*/src"));
    assert!(!in_scope("crates/compat/rand/src/lib.rs", "crates/*/src"));
    assert!(in_scope("tests/golden/a.json", "tests"));
}

#[test]
fn patterns_match_like_their_regular_expressions() {
    let lit = |lit, line| Pat::Lit(lit).matches(line);
    assert!(lit(r"\bmul(", "x.mul(1)") && lit(r"\bmul(", "mul(1)"));
    assert!(!lit(r"\bmul(", "x.lane_mul(1)"));
    assert!(lit(r"t::finish\b", "t::finish()") && !lit(r"t::finish\b", "t::finished()"));
    assert!(
        static_item("    static X: u8 = 0;")
            && !static_item("\tstatic X")
            && !static_item("pub static X")
    );
    assert!(golden_sent("GoldenSent") && golden_sent("golden_sent") && !golden_sent("golden-sent"));
    assert!(json_view("    pub fn section_json(&self)") && json_view("pub fn to_json()"));
    assert!(
        !json_view("pub fn json()") && !json_view("pub fn to_JSON()") && !json_view("fn x_json()")
    );
    assert!(
        drain_ticks_literal("NetConfig { drain_ticks: 40 }")
            && !drain_ticks_literal("drain_ticks: n")
    );
    for hit in [
        "impl StateMachine for HitRegistry {",
        "impl<S: Store> StateMachine for Chain<S> {",
        "impl<A<B> StateMachine for X",
    ] {
        assert!(state_machine_impl(hit), "{hit}");
    }
    for miss in [
        "impl<T: A<U>> StateMachine for X",
        "implement StateMachine for",
        "impl Foo for X",
    ] {
        assert!(!state_machine_impl(miss), "{miss}");
    }
}
