//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A span is `(id, parent, name, start, end)` on one monotonic clock; all
//! spans of one run share the tracer's run id. Spans are kept in memory
//! and written out once, when the run ends. A disabled tracer records
//! nothing and costs one branch per call, so the untraced run measures the
//! program alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use walshcheck_core::json::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id to parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(Some(id));
        let end = self.origin.elapsed();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations(name).len()
    }

    /// The spans as a JSON document (times in microseconds from the
    /// tracer's origin).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans()
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Int(s.start.as_micros() as i64)),
                    ("end_us", Json::Int(s.end.as_micros() as i64)),
                ])
            })
            .collect();
        Json::obj([
            ("run_id", Json::str(self.run_id.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true, "r".into());
        t.span("outer", None, |id| {
            t.span("inner", id, |_| ());
            t.span("inner", id, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id) && s.start >= outer.start && s.end <= outer.end));
        assert_eq!(t.count("inner"), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, "r".into());
        assert_eq!(t.span("x", None, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
