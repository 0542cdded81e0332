//! # dragoon-trace — unified observability for the dragoon pipeline
//!
//! Three layers, strictly separated:
//!
//! 1. **Deterministic span/event stream** ([`event`]) — structured
//!    events on the *virtual clock* (block execute/verify/persist/
//!    prove/gossip/reorg) with typed `u64` attributes. Events are
//!    recorded into a per-thread buffer and merged by `(tick, seq)`,
//!    so the collected stream is a pure function of `(seed, config)`:
//!    byte-identical at any `DRAGOON_THREADS`, with the pipelined or
//!    the synchronous store, and therefore golden-gatable. Emission
//!    sites MUST be deterministic program points (the round loop, a
//!    service's submit/drain edges) — never inside a worker thread.
//! 2. **Metrics registry** ([`metrics`]) — named counters/gauges/
//!    histograms following the `subsystem_name_unit` convention, with
//!    a hand-rolled Prometheus-text exporter. The per-subsystem stats
//!    structs build [`metrics::MetricSet`]s, and a set is the only
//!    serializer of what it holds: its object view is the golden-gated
//!    report line, the registry walks are the dump. Every value is
//!    owned by its run — invariant-violation counters included; the
//!    registry keeps no process-wide state.
//! 3. **Wall-clock phase profiler** ([`span`]) — `Instant`-based span
//!    durations kept *strictly outside* the deterministic stream (they
//!    never appear in captured events or goldens), exported as Chrome
//!    `trace_event` JSON via `DRAGOON_TRACE=out.json` and openable in
//!    `chrome://tracing` or Perfetto. Worker threads (the block
//!    writer, the overlap verifier, proving-pool workers) may record
//!    wall spans freely: ordering there comes from timestamps, not
//!    from the deterministic merge.
//!
//! **The deterministic-vs-wallclock split is the load-bearing design
//! rule**: anything derived from `Instant::now()` lives only in layer
//! 3; anything in layer 1 must be reproducible from `(seed, config)`
//! alone. Mixing the two would make the trace goldens flaky.
//!
//! Tracing is zero-cost when disabled: every emission site branches on
//! one relaxed atomic load of a static flag word and returns
//! immediately. Nothing is allocated, locked, or timestamped until a
//! layer is switched on via [`init_from_env`] (binaries) or
//! [`start_capture`] (tests).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

pub mod chrome;
pub mod metrics;

pub use metrics::{MetricKind, MetricSet, MetricValue};

// ---------------------------------------------------------------------
// Enable flags: one static word, branch-only when off
// ---------------------------------------------------------------------

const DET: u8 = 1 << 0;
const WALL: u8 = 1 << 1;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Whether the deterministic event stream is being recorded.
#[inline]
pub fn deterministic_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & DET != 0
}

/// Whether wall-clock spans are being recorded.
#[inline]
pub fn wall_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & WALL != 0
}

/// Whether any tracing layer is on.
#[inline]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------
// Span taxonomy
// ---------------------------------------------------------------------

/// The span/event taxonomy. One variant per pipeline phase; the same
/// kinds name both deterministic events and wall-clock spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One block's transaction execution (the parallel scheduler run).
    Execute,
    /// Batched settlement-proof verification for one block's verdicts.
    Verify,
    /// Appending one produced block to the on-disk log.
    Persist,
    /// Publishing a snapshot artifact (full or delta) at the cadence.
    Snapshot,
    /// Submitting a batch of proof jobs to the proving service.
    Prove,
    /// Proof jobs released from the proving queue into the mempool.
    Release,
    /// Broadcasting one produced block over the simulated network.
    Gossip,
    /// A stale replica producing a competing (fork) block.
    Fork,
    /// A replica switching branches, popping applied blocks.
    Reorg,
}

impl SpanKind {
    /// Stable lowercase name used in event JSON and Chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Execute => "execute",
            SpanKind::Verify => "verify",
            SpanKind::Persist => "persist",
            SpanKind::Snapshot => "snapshot",
            SpanKind::Prove => "prove",
            SpanKind::Release => "release",
            SpanKind::Gossip => "gossip",
            SpanKind::Fork => "fork",
            SpanKind::Reorg => "reorg",
        }
    }

    /// Chrome trace category (groups related phases in the UI).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Execute => "chain",
            SpanKind::Verify => "verify",
            SpanKind::Persist | SpanKind::Snapshot => "store",
            SpanKind::Prove | SpanKind::Release => "prove",
            SpanKind::Gossip | SpanKind::Fork | SpanKind::Reorg => "net",
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic events
// ---------------------------------------------------------------------

/// One deterministic event: a phase at a virtual-clock tick with typed
/// attributes. The global `seq` orders events within a tick; because
/// deterministic sites emit from deterministic program points, the
/// `(tick, seq)` order is itself a pure function of `(seed, config)`.
#[derive(Clone, Debug)]
pub struct Event {
    pub tick: u64,
    pub seq: u64,
    pub kind: SpanKind,
    pub attrs: Vec<(&'static str, u64)>,
}

impl Event {
    /// One JSON line, stable field order: tick, seq, span, then attrs
    /// in emission order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"tick\":");
        s.push_str(&self.tick.to_string());
        s.push_str(",\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"span\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        for (k, v) in &self.attrs {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            s.push_str(&v.to_string());
        }
        s.push('}');
        s
    }
}

static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Records one deterministic event. No-op (one branch) unless the
/// deterministic layer is enabled. Call only from deterministic
/// program points — see the module docs.
#[inline]
pub fn event(kind: SpanKind, tick: u64, attrs: &[(&'static str, u64)]) {
    if !deterministic_enabled() {
        return;
    }
    let seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed);
    with_lane(|lane| {
        lane.det.push(Event {
            tick,
            seq,
            kind,
            attrs: attrs.to_vec(),
        });
        if lane.det.len() >= LANE_CAP {
            lane.flush();
        }
    });
}

// ---------------------------------------------------------------------
// Wall-clock spans
// ---------------------------------------------------------------------

/// One completed wall-clock span (Chrome `ph:"X"` complete event).
#[derive(Clone, Debug)]
pub struct WallSpan {
    pub kind: SpanKind,
    pub tick: u64,
    /// Microseconds since the trace epoch.
    pub start_us: u64,
    pub dur_us: u64,
    pub tid: u64,
    pub args: Vec<(&'static str, u64)>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// RAII guard timing one phase on the wall clock. Construct via
/// [`span`]; the duration is recorded on drop. Entirely a no-op when
/// the wall layer is off.
pub struct SpanGuard(Option<SpanInner>);

struct SpanInner {
    kind: SpanKind,
    tick: u64,
    start: Instant,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Attaches an argument shown in the Chrome trace's detail pane.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.0 {
            inner.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let start_us = inner
                .start
                .saturating_duration_since(epoch())
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let dur_us = inner.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            with_lane(|lane| {
                let tid = lane.tid;
                lane.wall.push(WallSpan {
                    kind: inner.kind,
                    tick: inner.tick,
                    start_us,
                    dur_us,
                    tid,
                    args: inner.args,
                });
                if lane.wall.len() >= LANE_CAP {
                    lane.flush();
                }
            });
        }
    }
}

/// Opens a wall-clock span for `kind` at virtual tick `tick`. One
/// branch and no work when the wall layer is off. Safe from any
/// thread: worker threads get their own lane and thread id.
#[inline]
pub fn span(kind: SpanKind, tick: u64) -> SpanGuard {
    if !wall_enabled() {
        return SpanGuard(None);
    }
    // Pin the epoch before taking the start timestamp so the first
    // span never starts before the epoch.
    let _ = epoch();
    SpanGuard(Some(SpanInner {
        kind,
        tick,
        start: Instant::now(),
        args: Vec::new(),
    }))
}

// ---------------------------------------------------------------------
// Per-thread lanes and the global sink
// ---------------------------------------------------------------------

const LANE_CAP: usize = 256;

struct Lane {
    tid: u64,
    det: Vec<Event>,
    wall: Vec<WallSpan>,
}

impl Lane {
    fn new() -> Self {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        lock_sink().threads.push((tid, name));
        Lane {
            tid,
            det: Vec::new(),
            wall: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.det.is_empty() && self.wall.is_empty() {
            return;
        }
        let mut sink = lock_sink();
        sink.det.append(&mut self.det);
        sink.wall.append(&mut self.wall);
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LANE: RefCell<Option<Lane>> = const { RefCell::new(None) };
}

fn with_lane(f: impl FnOnce(&mut Lane)) {
    LANE.with(|cell| {
        let mut slot = cell.borrow_mut();
        f(slot.get_or_insert_with(Lane::new));
    });
}

/// Flushes the calling thread's lane into the global sink.
pub fn flush_thread() {
    LANE.with(|cell| {
        if let Some(lane) = cell.borrow_mut().as_mut() {
            lane.flush();
        }
    });
}

#[derive(Default)]
struct Sink {
    det: Vec<Event>,
    wall: Vec<WallSpan>,
    threads: Vec<(u64, String)>,
}

fn lock_sink() -> MutexGuard<'static, Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Drains the deterministic stream: merges all flushed lanes, sorts by
/// `(tick, seq)`, and renders one JSON line per event. Call only after
/// all worker threads of the traced run have been joined.
pub fn drain_deterministic_lines() -> Vec<String> {
    flush_thread();
    let mut det = std::mem::take(&mut lock_sink().det);
    det.sort_by_key(|e| (e.tick, e.seq));
    det.iter().map(Event::to_json).collect()
}

pub(crate) fn drain_wall() -> (Vec<WallSpan>, Vec<(u64, String)>) {
    flush_thread();
    let mut sink = lock_sink();
    let spans = std::mem::take(&mut sink.wall);
    let threads = sink.threads.clone();
    (spans, threads)
}

// ---------------------------------------------------------------------
// Capture sessions (tests, benches)
// ---------------------------------------------------------------------

static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// A scoped recording session for tests and benches. Holds a global
/// lock so concurrent tests in one binary cannot interleave their
/// streams; restores the prior enable flags and drains the sink on
/// [`Capture::finish`].
pub struct Capture {
    _guard: MutexGuard<'static, ()>,
    prior: u8,
}

fn begin_capture(flags: u8) -> Capture {
    let guard = CAPTURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Clear any residue from a previous session on this thread and in
    // the sink, and restart the merge sequence.
    flush_thread();
    {
        let mut sink = lock_sink();
        sink.det.clear();
        sink.wall.clear();
    }
    EVENT_SEQ.store(0, Ordering::Relaxed);
    let prior = FLAGS.swap(flags, Ordering::SeqCst);
    Capture {
        _guard: guard,
        prior,
    }
}

/// Starts recording the deterministic event stream only (wall layer
/// stays off, so captures are themselves deterministic).
pub fn start_capture() -> Capture {
    begin_capture(DET)
}

/// Starts recording both layers — used by the overhead bench to price
/// fully-enabled tracing.
pub fn start_full_capture() -> Capture {
    begin_capture(DET | WALL)
}

impl Capture {
    /// Stops recording and returns the merged deterministic stream as
    /// JSON lines. Wall spans recorded during the capture are
    /// discarded (they are nondeterministic by definition).
    pub fn finish(self) -> Vec<String> {
        FLAGS.store(self.prior, Ordering::SeqCst);
        let lines = drain_deterministic_lines();
        lock_sink().wall.clear();
        lines
    }
}

// ---------------------------------------------------------------------
// Binary entry points: env init / finish / summary lines
// ---------------------------------------------------------------------

struct EnvConfig {
    chrome_path: Option<String>,
    print_events: bool,
}

static ENV_CONFIG: OnceLock<EnvConfig> = OnceLock::new();

/// Reads the tracing environment and switches the layers on:
///
/// * `DRAGOON_TRACE=out.json` — record wall-clock spans and write a
///   Chrome `trace_event` file at [`finish`].
/// * `DRAGOON_TRACE_EVENTS=1` — record the deterministic stream and
///   print it as `TRACE: {json}` lines at [`finish`] (the CI trace
///   golden greps these).
///
/// Call once at the top of a binary's `main`.
pub fn init_from_env() {
    let chrome_path = std::env::var("DRAGOON_TRACE")
        .ok()
        .filter(|p| !p.is_empty());
    let print_events = std::env::var("DRAGOON_TRACE_EVENTS")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    let mut flags = 0;
    if chrome_path.is_some() {
        flags |= WALL;
        let _ = epoch();
    }
    if print_events {
        flags |= DET;
    }
    let config = EnvConfig {
        chrome_path,
        print_events,
    };
    if ENV_CONFIG.set(config).is_ok() && flags != 0 {
        FLAGS.fetch_or(flags, Ordering::SeqCst);
    }
}

/// Finalizes env-driven tracing: prints `TRACE:` lines when
/// `DRAGOON_TRACE_EVENTS` asked for them and writes the Chrome trace
/// file when `DRAGOON_TRACE` named one. Call at the end of `main`,
/// after the traced run (and its threads) completed.
pub fn finish() {
    let Some(config) = ENV_CONFIG.get() else {
        return;
    };
    if config.print_events {
        for line in drain_deterministic_lines() {
            println!("TRACE: {line}");
        }
    }
    if let Some(path) = &config.chrome_path {
        match chrome::write_chrome_trace(path) {
            Ok(n) => eprintln!("trace: wrote {n} spans to {path}"),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
}

/// Prints one stable machine-readable summary line: `KEY: {json}` —
/// the single format every example and bench binary uses, and the one
/// the CI golden greps anchor on.
pub fn emit_summary(key: &str, json: impl AsRef<str>) {
    println!("{}: {}", key, json.as_ref());
}
