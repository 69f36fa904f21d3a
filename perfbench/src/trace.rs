//! Outside-in tracing: a span around every call the benchmark makes
//! into a layer's public functions, kept in memory and written out when
//! the run ends. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Reads the monotonic clock. Every timing of the benchmark starts here.
// lint: allow(D6) — the benchmark's own clock; its readings feed the benchmark report only
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One recorded call: which layer function, when, under which parent
/// span, on behalf of which request (`0` = no request).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pyast.parse`.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// Count, total and self time (total minus time covered by child
/// spans) of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed duration not covered by child spans, in seconds.
    pub self_s: f64,
}

/// Span and counter recorder. When disabled it only measures
/// durations.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `value` to the counter `name` (only when enabled).
    pub fn add(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self
                .counters
                .lock()
                .expect("trace lock poisoned")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    /// The counter `name` (zero when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("trace lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the call's duration in seconds. `f` receives the new span's id
    /// (`None` when tracing is off) to parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> (T, f64) {
        let start = now();
        let id = self.enabled.then(|| {
            let mut spans = self.spans.lock().expect("trace lock poisoned");
            let at = start.duration_since(self.origin).as_secs_f64();
            spans.push(Span {
                name,
                start: at,
                end: at,
                parent,
                request,
            });
            spans.len() - 1
        });
        let out = f(id);
        let elapsed = secs_since(start);
        if let Some(id) = id {
            let end = start.duration_since(self.origin).as_secs_f64() + elapsed;
            if let Some(span) = self.spans.lock().expect("trace lock poisoned").get_mut(id) {
                span.end = end;
            }
        }
        (out, elapsed)
    }

    /// Per-name totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        self.totals_where(|_| true)
    }

    /// Per-name totals over the spans `keep` accepts.
    pub fn totals_where(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().expect("trace lock poisoned");
        let mut covered = vec![0.0f64; spans.len()];
        for span in spans.iter() {
            if let Some(slot) = span.parent.and_then(|p| covered.get_mut(p)) {
                *slot += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, child) in spans.iter().zip(&covered) {
            if !keep(span) {
                continue;
            }
            let t = out.entry(span.name).or_default();
            let duration = span.end - span.start;
            t.count += 1;
            t.total_s += duration;
            t.self_s += duration - child;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("trace lock poisoned");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"parent\":{parent},\"request\":{}}}\n",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.request
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let tracer = Tracer::new(true);
        let ((), outer) = tracer.span("outer", None, 1, |id| {
            tracer.span("inner", id, 1, |_| {
                std::hint::black_box((0..20_000u64).sum::<u64>());
            });
        });
        let totals = tracer.totals();
        let o = totals["outer"];
        let i = totals["inner"];
        assert_eq!((o.count, i.count), (1, 1));
        assert!(o.total_s >= i.total_s);
        assert!((o.self_s - (o.total_s - i.total_s)).abs() < 1e-12);
        let inner_only = tracer.totals_where(|s| s.name == "inner");
        assert_eq!(inner_only.keys().copied().collect::<Vec<_>>(), ["inner"]);
        assert!(outer >= i.total_s);
        assert!(tracer.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_still_times() {
        let tracer = Tracer::new(false);
        let (v, secs) = tracer.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.totals().is_empty());
        tracer.add("n", 1.0);
        assert_eq!(tracer.counter("n"), 0.0);
    }
}
