//! Chrome `trace_event` export for the wall-clock profiler layer.
//!
//! Writes the JSON Object Format understood by `chrome://tracing` and
//! Perfetto: a `traceEvents` array of complete events (`ph:"X"`, `ts`
//! and `dur` in microseconds since the trace epoch) plus `thread_name`
//! metadata events, so the round loop and the block writer render as
//! named tracks. Wall-clock data never enters the deterministic
//! stream — see the crate docs.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};

use crate::{Tracer, WallSpan};

fn push_span(out: &mut String, span: &WallSpan) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":1,\"tid\":{},\"args\":{{\"tick\":{}",
        span.kind.name(),
        span.kind.category(),
        span.start_us,
        span.dur_us,
        span.tid,
        span.tick,
    );
    for (k, v) in &span.args {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    out.push_str("}}");
}

/// Serializes the wall spans `tracer` recorded (plus thread-name
/// metadata) as one Chrome trace JSON document.
pub fn render_chrome_trace(tracer: &Tracer) -> (String, usize) {
    let (mut spans, threads) = tracer.read(|rec| (rec.spans.clone(), rec.threads.clone()));
    spans.sort_by_key(|s| (s.tid, s.start_us));
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for ((_, name), tid) in threads.iter().zip(1..) {
        if !first {
            out.push(',');
        }
        first = false;
        let safe: String = name
            .chars()
            .map(|c| if c == '"' || c == '\\' { '_' } else { c })
            .collect();
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{safe}\"}}}}",
        );
    }
    for span in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        push_span(&mut out, span);
    }
    out.push_str("]}");
    (out, spans.len())
}

/// Writes the Chrome trace to `path`, returning the span count.
pub fn write_chrome_trace(tracer: &Tracer, path: &str) -> std::io::Result<usize> {
    let (doc, count) = render_chrome_trace(tracer);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(doc.as_bytes())?;
    w.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_skeleton_when_empty() {
        let (doc, _) = render_chrome_trace(&Tracer::default());
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.ends_with("]}"));
    }
}
