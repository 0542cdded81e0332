//! The metrics registry: typed metric sets built by the per-subsystem
//! stats structs, and the only serializer of a run. A set renders
//! itself as one flat JSON object under its JSON keys
//! ([`MetricSet::to_json_object`] — the golden-gated report lines);
//! a metric's JSON key is its one name.
//!
//! Every value is owned by the set that carries it — there is no
//! process-wide state here. Invariant-violation counters are per-run
//! fields of the stats struct that detects them, like any other metric.

use std::fmt::Write as _;

/// A metric's value, carrying enough formatting information to render
/// the golden-gated JSON byte-identically.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Integer reading (covers u64/i64/u128 report fields).
    Int(i128),
    /// Float reading with a fixed decimal precision (`{:.p}` in JSON).
    Float(f64, usize),
    /// Boolean flag (JSON `true`/`false`).
    Flag(bool),
    /// Integer array (histogram buckets, per-node readings), rendered
    /// as a JSON array.
    Ints(Vec<i128>),
    /// A string the object view prints quoted.
    Text(&'static str),
    /// An optional reading the run did not have: `null` in the object
    /// view (the key set stays fixed).
    Absent,
}

impl MetricValue {
    fn render_json(&self, out: &mut String) {
        match self {
            MetricValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Float(v, prec) => {
                let _ = write!(out, "{v:.prec$}");
            }
            MetricValue::Flag(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Ints(values) => {
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            MetricValue::Text(v) => {
                let _ = write!(out, "\"{v}\"");
            }
            MetricValue::Absent => out.push_str("null"),
        }
    }
}

/// One named metric: the JSON key it serializes under and its value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub key: &'static str,
    pub value: MetricValue,
}

/// An ordered collection of metrics for one subsystem. Order is the
/// serialization order — the object view depends on it.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    pub subsystem: &'static str,
    pub metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn new(subsystem: &'static str) -> Self {
        MetricSet {
            subsystem,
            metrics: Vec::new(),
        }
    }

    fn push(mut self, key: &'static str, value: MetricValue) -> Self {
        self.metrics.push(Metric { key, value });
        self
    }

    /// An integer reading.
    pub fn int(self, key: &'static str, value: impl Into<i128>) -> Self {
        self.push(key, MetricValue::Int(value.into()))
    }

    /// A float reading rendered with `precision` decimals in JSON.
    pub fn float(self, key: &'static str, value: f64, precision: usize) -> Self {
        self.push(key, MetricValue::Float(value, precision))
    }

    /// A boolean reading.
    pub fn flag(self, key: &'static str, value: bool) -> Self {
        self.push(key, MetricValue::Flag(value))
    }

    /// An integer array: a histogram's buckets, a reading per node.
    pub fn ints<T: Into<i128>>(
        self,
        key: &'static str,
        values: impl IntoIterator<Item = T>,
    ) -> Self {
        let values = values.into_iter().map(Into::into).collect();
        self.push(key, MetricValue::Ints(values))
    }

    /// A string reading, printed quoted.
    pub fn text(self, key: &'static str, value: &'static str) -> Self {
        self.push(key, MetricValue::Text(value))
    }

    /// An optional reading this run did not have: the object view
    /// prints `"key":null`.
    pub fn absent(self, key: &'static str) -> Self {
        self.push(key, MetricValue::Absent)
    }

    /// The object view: `{"key":value,...}` in insertion order — the
    /// bytes the report lines and their goldens are made of.
    pub fn to_json_object(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(metric.key);
            s.push_str("\":");
            metric.value.render_json(&mut s);
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_view_matches_hand_rolled_format() {
        let set = MetricSet::new("demo")
            .int("jobs", 7u64)
            .float("rate", 0.5, 3)
            .flag("converged", true)
            .ints("latency_hist", [1u64, 2, 3])
            .ints("per_node", vec![4i64, -1]);
        assert_eq!(
            set.to_json_object(),
            "{\"jobs\":7,\"rate\":0.500,\"converged\":true,\
             \"latency_hist\":[1,2,3],\"per_node\":[4,-1]}"
        );
    }

    /// The object view prints a text entry quoted and an absent one
    /// as `null`, each under its key.
    #[test]
    fn text_and_absent_entries_render_only_in_the_object_view() {
        let set = MetricSet::new("demo")
            .text("mode", "batched")
            .int("jobs", 7u64)
            .absent("limit");
        assert_eq!(
            set.to_json_object(),
            "{\"mode\":\"batched\",\"jobs\":7,\"limit\":null}"
        );
    }
}
