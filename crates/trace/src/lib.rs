//! # dragoon-trace — unified observability for the dragoon pipeline
//!
//! Three layers, strictly separated:
//!
//! 1. **Deterministic span/event stream** ([`Tracer::event`]) —
//!    structured events on the *virtual clock* (block execute/verify/
//!    persist/prove/gossip/reorg) with typed `u64` attributes. Events
//!    are recorded into the run's handle in emission order and read
//!    back sorted by `(tick, seq)`, so the collected stream is a pure
//!    function of `(seed, config)`: byte-identical at any thread
//!    budget, with the pipelined or the synchronous store,
//!    and therefore golden-gatable. Emission sites MUST be
//!    deterministic program points (the round loop, a service's
//!    submit/drain edges) — never inside a worker thread.
//! 2. **Metrics registry** ([`metrics`]) — integers, floats, flags,
//!    histograms and per-index lists, each named by its JSON key. The
//!    per-subsystem stats structs build [`metrics::MetricSet`]s, and a
//!    set is the only serializer of what it holds: its object view is
//!    the golden-gated report line. Every value is owned by its run —
//!    invariant-violation counters included; the registry keeps no
//!    process-wide state.
//! 3. **Wall-clock phase profiler** ([`Tracer::span`]) —
//!    `Instant`-based span durations kept *strictly outside* the
//!    deterministic stream (they never appear in recorded events or
//!    goldens), exported as Chrome `trace_event` JSON via
//!    `DRAGOON_TRACE=out.json` and openable in `chrome://tracing` or
//!    Perfetto. Three threads record wall spans today — the round
//!    loop, the block writer and the network layer's `dragoon-net`
//!    thread; ordering there comes from timestamps, not from the
//!    deterministic merge.
//!
//! **The deterministic-vs-wallclock split is the load-bearing design
//! rule**: anything derived from `Instant::now()` lives only in layer
//! 3; anything in layer 1 must be reproducible from `(seed, config)`
//! alone. Mixing the two would make the trace goldens flaky.
//!
//! A run owns its trace: a [`Tracer`] is a cloneable handle the run's
//! emitters are built with, and this crate keeps no process-wide
//! state, so two runs in one process record independently. Tracing is
//! zero-cost when off: the default handle is null and every emission
//! site is one `Option` branch on it. Nothing is allocated, locked, or
//! timestamped unless the handle came from [`Tracer::from_env`]
//! (binaries) or [`Tracer::deterministic`] / [`Tracer::full`] (tests,
//! benches).
//!
//! **Deferred recording.** A pipeline stage that runs on its own thread
//! but stands, in the deterministic stream, where the round loop would
//! have called it synchronously records through a [`Tracer::deferred`]
//! handle: its wall spans go straight to the run's recording, its
//! events into a private buffer. The feeding thread stamps each unit of
//! work with the stream's [`Tracer::position`] when it hands it over,
//! the stage closes a batch at that position once the work is done
//! ([`Tracer::end_batch`]), and after the join [`Tracer::splice`] moves
//! every batch in at its position and renumbers `seq` — the stream the
//! synchronous call would have recorded, byte for byte.

#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

pub mod chrome;
pub mod metrics;

pub use metrics::{MetricSet, MetricValue};

// ---------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------

/// One run's trace. Clones share one recording; the default handle is
/// off and records nothing.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
    /// Set on a handle made by [`Tracer::deferred`]: where its
    /// deterministic events wait until [`Tracer::splice`].
    deferred: Option<Arc<Mutex<Deferred>>>,
}

/// A deferred handle's events, in recording order, cut into batches.
#[derive(Debug, Default)]
struct Deferred {
    events: Vec<Event>,
    /// `(position, end)` per closed batch, in closing order: the events
    /// from the previous batch's end up to `end` belong in the run's
    /// stream before its `position`-th directly recorded event.
    batches: Vec<(usize, usize)>,
}

/// Every update is a single push or a swap, so a lock left behind by a
/// panicking holder still guards valid data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct Shared {
    /// Whether the deterministic event stream is being recorded.
    det: bool,
    /// Whether wall-clock spans are being recorded.
    wall: bool,
    /// Zero of the wall spans' microsecond timestamps.
    epoch: Instant,
    /// Where [`Tracer::finish`] writes the Chrome document.
    chrome_path: Option<String>,
    /// Whether [`Tracer::finish`] prints the `TRACE:` lines.
    print_events: bool,
    recording: Mutex<Recording>,
}

#[derive(Debug, Default)]
struct Recording {
    events: Vec<Event>,
    spans: Vec<WallSpan>,
    /// Threads that recorded a span, in first-span order: a thread's
    /// Chrome `tid` is its position here plus one.
    threads: Vec<(ThreadId, String)>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Recording> {
        lock(&self.recording)
    }
}

impl Tracer {
    fn on(det: bool, wall: bool, chrome_path: Option<String>, print_events: bool) -> Self {
        Tracer {
            shared: Some(Arc::new(Shared {
                det,
                wall,
                epoch: Instant::now(),
                chrome_path,
                print_events,
                recording: Mutex::default(),
            })),
            deferred: None,
        }
    }

    /// Reads what the handle recorded so far (nothing, when off).
    fn read<R>(&self, f: impl FnOnce(&Recording) -> R) -> R {
        match &self.shared {
            Some(shared) => f(&shared.lock()),
            None => f(&Recording::default()),
        }
    }

    /// Records the deterministic event stream only (the wall layer
    /// stays off, so the recording is itself deterministic).
    pub fn deterministic() -> Self {
        Self::on(true, false, None, false)
    }

    /// Records both layers — used by the overhead bench to price
    /// fully-enabled tracing.
    pub fn full() -> Self {
        Self::on(true, true, None, false)
    }

    /// Reads the tracing environment (off when neither is set):
    ///
    /// * `DRAGOON_TRACE=out.json` — record wall-clock spans and write a
    ///   Chrome `trace_event` file at [`Tracer::finish`].
    /// * `DRAGOON_TRACE_EVENTS=1` — record the deterministic stream and
    ///   print it as `TRACE: {json}` lines at [`Tracer::finish`] (the
    ///   CI trace golden greps these).
    ///
    /// Call once at the top of a binary's `main`.
    pub fn from_env() -> Self {
        let chrome_path = std::env::var("DRAGOON_TRACE")
            .ok()
            .filter(|p| !p.is_empty());
        let print_events = std::env::var("DRAGOON_TRACE_EVENTS")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if chrome_path.is_none() && !print_events {
            return Self::default();
        }
        Self::on(
            print_events,
            chrome_path.is_some(),
            chrome_path,
            print_events,
        )
    }

    /// Finalizes env-driven tracing: prints `TRACE:` lines when
    /// `DRAGOON_TRACE_EVENTS` asked for them and writes the Chrome
    /// trace file when `DRAGOON_TRACE` named one. Call at the end of
    /// `main`, after the traced run (and its threads) completed.
    pub fn finish(&self) {
        let Some(shared) = &self.shared else {
            return;
        };
        if shared.print_events {
            for line in self.deterministic_lines() {
                println!("TRACE: {line}");
            }
        }
        if let Some(path) = &shared.chrome_path {
            match chrome::write_chrome_trace(self, path) {
                Ok(n) => eprintln!("trace: wrote {n} spans to {path}"),
                Err(e) => eprintln!("trace: failed to write {path}: {e}"),
            }
        }
    }
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
    /// One node re-executing one gossiped block (wall layer only).
    Apply,
    /// The round loop's agent step: releasing finished proofs, the
    /// drives, and the proof batch they submit (wall layer only).
    Agent,
    /// The round loop's post-block bookkeeping (wall layer only).
    Harvest,
    /// The round loop handing a round to the network's thread, or the
    /// final drain and join: the time it waits on that thread (wall
    /// layer only).
    Handoff,
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
            SpanKind::Apply => "apply",
            SpanKind::Agent => "agent",
            SpanKind::Harvest => "harvest",
            SpanKind::Handoff => "handoff",
        }
    }

    /// Chrome trace category (groups related phases in the UI).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Execute => "chain",
            SpanKind::Verify => "verify",
            SpanKind::Persist | SpanKind::Snapshot => "store",
            SpanKind::Prove | SpanKind::Release => "prove",
            SpanKind::Gossip
            | SpanKind::Fork
            | SpanKind::Reorg
            | SpanKind::Apply
            | SpanKind::Handoff => "net",
            SpanKind::Agent | SpanKind::Harvest => "sim",
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic events
// ---------------------------------------------------------------------

/// One deterministic event: a phase at a virtual-clock tick with typed
/// attributes. `seq` is the event's index in its handle's recording
/// and orders events within a tick; because deterministic sites emit
/// from deterministic program points, the `(tick, seq)` order is
/// itself a pure function of `(seed, config)`.
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

impl Tracer {
    /// Records one deterministic event. No-op (one branch) unless the
    /// deterministic layer is on. Call only from deterministic program
    /// points — see the module docs.
    #[inline]
    pub fn event(&self, kind: SpanKind, tick: u64, attrs: &[(&'static str, u64)]) {
        let Some(shared) = self.shared.as_ref().filter(|s| s.det) else {
            return;
        };
        let event = |seq| Event {
            tick,
            seq,
            kind,
            attrs: attrs.to_vec(),
        };
        match &self.deferred {
            // Numbered when spliced.
            Some(deferred) => lock(deferred).events.push(event(0)),
            None => {
                let mut rec = shared.lock();
                let seq = rec.events.len() as u64;
                rec.events.push(event(seq));
            }
        }
    }

    /// A handle for a pipeline stage on another thread (see the crate
    /// docs): it records wall spans into this run's recording and
    /// deterministic events into a buffer of its own, shared by its
    /// clones, until [`Tracer::splice`]. Off when this handle is.
    pub fn deferred(&self) -> Tracer {
        Tracer {
            shared: self.shared.clone(),
            deferred: self.shared.as_ref().map(|_| Arc::default()),
        }
    }

    /// How many events the run's stream holds so far, deferred batches
    /// not yet spliced left out: where work handed over now stands in
    /// the stream. Zero when the deterministic layer is off.
    pub fn position(&self) -> usize {
        self.read(|rec| rec.events.len())
    }

    /// On a deferred handle, closes a batch: every event recorded since
    /// the previous batch belongs before the stream's `position`-th
    /// event. No-op on an off handle.
    pub fn end_batch(&self, position: usize) {
        if let Some(deferred) = &self.deferred {
            let mut deferred = lock(deferred);
            let end = deferred.events.len();
            deferred.batches.push((position, end));
        }
    }

    /// On a deferred handle whose work is done — every buffered event
    /// in a closed batch — moves the batches into the run's stream at
    /// their positions and renumbers every event's `seq` to its place.
    /// No-op on an off handle.
    pub fn splice(&self) {
        let (Some(shared), Some(deferred)) = (&self.shared, &self.deferred) else {
            return;
        };
        let Deferred {
            events: batched,
            batches,
        } = std::mem::take(&mut *lock(deferred));
        debug_assert_eq!(
            batches.last().map_or(0, |&(_, end)| end),
            batched.len(),
            "every deferred event is in a closed batch"
        );
        let mut batched = batched.into_iter();
        let mut rec = shared.lock();
        let mut direct = std::mem::take(&mut rec.events).into_iter();
        let mut events = Vec::with_capacity(direct.len() + batched.len());
        let (mut placed, mut taken) = (0, 0);
        for (position, end) in batches {
            events.extend(direct.by_ref().take(position - placed));
            events.extend(batched.by_ref().take(end - taken));
            (placed, taken) = (position, end);
        }
        events.extend(direct);
        for (seq, event) in events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        rec.events = events;
    }

    /// The deterministic stream recorded so far: sorted by
    /// `(tick, seq)`, one JSON line per event. Empty for an off handle.
    pub fn deterministic_lines(&self) -> Vec<String> {
        self.read(|rec| {
            let mut events: Vec<&Event> = rec.events.iter().collect();
            events.sort_by_key(|e| (e.tick, e.seq));
            events.into_iter().map(Event::to_json).collect()
        })
    }
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

/// RAII guard timing one phase on the wall clock. Construct via
/// [`Tracer::span`]; the duration is recorded into that handle on
/// drop. Entirely a no-op when the wall layer is off.
pub struct SpanGuard(Option<SpanInner>);

struct SpanInner {
    shared: Arc<Shared>,
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

fn micros(d: std::time::Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let start_us = micros(inner.start.saturating_duration_since(inner.shared.epoch));
        let dur_us = micros(inner.start.elapsed());
        let me = std::thread::current();
        let mut rec = inner.shared.lock();
        let seen = rec.threads.iter().position(|(id, _)| *id == me.id());
        let index = seen.unwrap_or_else(|| {
            let name = me.name().unwrap_or("unnamed").to_string();
            rec.threads.push((me.id(), name));
            rec.threads.len() - 1
        });
        rec.spans.push(WallSpan {
            kind: inner.kind,
            tick: inner.tick,
            start_us,
            dur_us,
            tid: index as u64 + 1,
            args: inner.args,
        });
    }
}

impl Tracer {
    /// Opens a wall-clock span for `kind` at virtual tick `tick`. One
    /// branch and no work when the wall layer is off. Safe from any
    /// thread holding the handle: each gets its own Chrome track.
    #[inline]
    pub fn span(&self, kind: SpanKind, tick: u64) -> SpanGuard {
        SpanGuard(
            self.shared
                .as_ref()
                .filter(|s| s.wall)
                .map(|shared| SpanInner {
                    shared: Arc::clone(shared),
                    kind,
                    tick,
                    start: Instant::now(),
                    args: Vec::new(),
                }),
        )
    }

    /// The wall spans recorded so far, in completion order (a nested
    /// span precedes the one around it). Empty for an off handle.
    pub fn wall_spans(&self) -> Vec<WallSpan> {
        self.read(|rec| rec.spans.clone())
    }
}

/// Prints one stable machine-readable summary line: `KEY: {json}` —
/// the single format every example and bench binary uses, and the one
/// the CI golden greps anchor on.
pub fn emit_summary(key: &str, json: impl AsRef<str>) {
    println!("{}: {}", key, json.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_handle_records_nothing() {
        let off = Tracer::default();
        off.event(SpanKind::Execute, 1, &[("height", 1)]);
        let mut sp = off.span(SpanKind::Execute, 1);
        sp.arg("txs", 3);
        assert!(sp.0.is_none(), "a guard from an off handle is inert");
        drop(sp);
        assert!(off.deterministic_lines().is_empty());
        assert!(off.shared.is_none(), "nothing was allocated");
        // The deterministic-only handle keeps the wall layer off.
        let det = Tracer::deterministic();
        drop(det.span(SpanKind::Execute, 1));
        det.read(|rec| assert!(rec.spans.is_empty() && rec.threads.is_empty()));
    }

    #[test]
    fn seq_is_push_order_and_lines_sort_by_tick_then_seq() {
        let tracer = Tracer::deterministic();
        tracer.event(SpanKind::Persist, 2, &[("height", 2)]);
        tracer.clone().event(SpanKind::Execute, 1, &[]);
        tracer.event(SpanKind::Verify, 2, &[]);
        assert_eq!(
            tracer.deterministic_lines(),
            [
                r#"{"tick":1,"seq":1,"span":"execute"}"#,
                r#"{"tick":2,"seq":0,"span":"persist","height":2}"#,
                r#"{"tick":2,"seq":2,"span":"verify"}"#,
            ]
        );
    }

    /// A deferred handle's events reach the stream only at the splice,
    /// each closed batch before the event that was next when its work
    /// was handed over, with `seq` renumbered; its wall spans go
    /// straight to the run.
    #[test]
    fn deferred_batches_splice_in_where_they_were_handed_over() {
        let tracer = Tracer::full();
        let stage = tracer.deferred();
        tracer.event(SpanKind::Execute, 1, &[]);
        let first = tracer.position();
        tracer.event(SpanKind::Persist, 1, &[]);
        stage.event(SpanKind::Gossip, 1, &[("height", 1)]);
        stage.clone().event(SpanKind::Reorg, 1, &[]);
        stage.end_batch(first);
        let second = tracer.position();
        stage.event(SpanKind::Fork, 2, &[]);
        stage.end_batch(second);
        drop(stage.span(SpanKind::Apply, 1));
        assert_eq!(tracer.deterministic_lines().len(), 2);
        stage.splice();
        assert_eq!(
            tracer.deterministic_lines(),
            [
                r#"{"tick":1,"seq":0,"span":"execute"}"#,
                r#"{"tick":1,"seq":1,"span":"gossip","height":1}"#,
                r#"{"tick":1,"seq":2,"span":"reorg"}"#,
                r#"{"tick":1,"seq":3,"span":"persist"}"#,
                r#"{"tick":2,"seq":4,"span":"fork"}"#,
            ]
        );
        tracer.read(|rec| assert_eq!(rec.spans.len(), 1));
        assert!(Tracer::default().deferred().shared.is_none());
    }

    #[test]
    fn a_second_thread_gets_the_next_tid_and_its_own_name() {
        let tracer = Tracer::full();
        drop(tracer.span(SpanKind::Execute, 1));
        let handle = tracer.clone();
        std::thread::Builder::new()
            .name("second".into())
            .spawn(move || drop(handle.span(SpanKind::Persist, 1)))
            .expect("spawn")
            .join()
            .expect("join");
        drop(tracer.span(SpanKind::Verify, 2));
        tracer.read(|rec| {
            let tids: Vec<u64> = rec.spans.iter().map(|s| s.tid).collect();
            assert_eq!(tids, [1, 2, 1]);
            let names: Vec<&str> = rec.threads.iter().map(|(_, name)| name.as_str()).collect();
            let me = std::thread::current();
            assert_eq!(
                names,
                [me.name().expect("test threads are named"), "second"]
            );
        });
    }
}
