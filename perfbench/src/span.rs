//! In-memory spans recorded from the benchmark's own code, around the
//! calls it makes into each layer. Kept in a `Vec` while the driver
//! runs and written out when it ends, as Chrome `trace_event` JSON
//! (open in Perfetto: ui.perfetto.dev → "Open trace file").

use std::time::Instant;

/// One timed call. `name` is `layer.operation`; the layer is the crate
/// the call goes into (`bench` for the driver's own spans).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// The driver round (cohort) the call belongs to.
    pub round: u32,
    /// The HIT the call belongs to, when it belongs to one.
    pub hit: Option<u64>,
    /// Work items the call covered (transactions of a block, jobs of a
    /// batch); 0 when that has no meaning.
    pub items: u64,
    /// A sub-kind the metrics split on (the block's message kind).
    pub tag: &'static str,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans on one thread. Spans nest by call structure: a span
/// opened while another is open is its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_with(name, None, "", |t| (f(t), 0))
    }

    /// Times `f` as a span of one HIT.
    pub fn hit_span<T>(&mut self, name: &'static str, hit: u64, f: impl FnOnce() -> T) -> T {
        self.span_with(name, Some(hit), "", |_| (f(), 0))
    }

    /// Times `f`, which also returns the number of items it covered.
    pub fn span_with<T>(
        &mut self,
        name: &'static str,
        hit: Option<u64>,
        tag: &'static str,
        f: impl FnOnce(&mut Self) -> (T, u64),
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            round: self.round,
            hit,
            items: 0,
            tag,
        });
        self.open.push(index);
        let (out, items) = f(self);
        self.open.pop();
        let end = self.now();
        let span = &mut self.spans[index];
        span.end = end;
        span.items = items;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur() - covered
        })
        .collect()
}

/// Durations, in nanoseconds, of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

/// The spans as Chrome `trace_event` JSON: one complete (`"ph":"X"`)
/// event per span, timestamps in microseconds.
pub fn chrome_trace_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let hit = span.hit.map_or("null".to_string(), |h| h.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
             \"workload\":\"{workload}\",\"round\":{},\"hit\":{hit},\"items\":{},\"tag\":\"{}\"}}}}",
            span.name,
            span.layer(),
            span.start as f64 / 1e3,
            span.dur() as f64 / 1e3,
            span.round,
            span.items,
            span.tag,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "bench.test",
            start,
            end,
            parent,
            round: 0,
            hit: None,
            items: 0,
            tag: "",
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100; child 10..60; grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        // Self times of a properly nested tree sum to the root's wall.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Children 10..50 and 30..70 overlap on 30..50; a third runs
        // past the parent's end and is clipped to 90..100.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 120, Some(0)),
            // Entirely inside an earlier sibling: adds nothing.
            span(35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.set_round(3);
        let out = t.span("bench.round", |t| {
            t.hit_span("protocol.commit", 7, || 1)
                + t.span_with("chain.execute", None, "commit", |_| (2, 12))
        });
        assert_eq!(out, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].hit, spans[1].round), (Some(7), 3));
        assert_eq!((spans[2].items, spans[2].tag), (12, "commit"));
        assert_eq!(spans[2].layer(), "chain");
        assert!(spans[0].start <= spans[1].start && spans[2].end <= spans[0].end);
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].dur());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [span(0, 2_000, None), span(500, 1_500, Some(0))];
        let json = chrome_trace_json(&spans, "micro_market");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
