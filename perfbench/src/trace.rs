//! In-memory span recorder for the traced run.
//!
//! Every span is a call the benchmark made into one workspace crate:
//! its name starts with the crate's layer name (`corpus.build`,
//! `service.rtt.place`, ...), it has a start and an end on one monotonic
//! clock, the span that caused it, and a group id shared by every span of
//! one request or engine job. Spans stay in memory until the run ends and
//! are then written out as JSON lines.
//!
//! With tracing off, [`Tracer::span`] only runs its closure, so an untraced
//! run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Request or job id shared by related spans (0 = none).
    pub group: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: AtomicU64,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicU64::new(enabled as u64),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }

    /// Switch recording on or off (the traced run alternates traced and
    /// untraced passes to measure the tracer's own overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on as u64, Ordering::Relaxed);
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. The closure receives the new
    /// span's id so calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled() {
            return f(SpanId::ROOT);
        }
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            group,
            name,
            start_ns: self.since_origin(start),
            end_ns: self.since_origin(end),
        });
        out
    }

    /// Record a span whose interval was measured elsewhere (an engine job
    /// reports its own duration when it finishes).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        start: Instant,
        duration: Duration,
    ) {
        if !self.enabled() {
            return;
        }
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_ns = self.since_origin(start);
        self.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Append a batch of spans recorded by a thread without the lock (the
    /// load generator buffers its per-request spans).
    pub fn extend(&self, spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .extend(spans);
    }

    /// A fresh span id for spans built by [`Tracer::extend`] callers.
    pub fn alloc_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn stamp(&self, t: Instant) -> u64 {
        self.since_origin(t)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id.0, s.parent.0, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Every layer a span name may start with: the benchmark itself, then the
/// workspace crates.
pub const LAYERS: [&str; 11] = [
    "bench",
    "workloads",
    "sim",
    "experiments",
    "stats",
    "metric",
    "sched",
    "collector",
    "corpus",
    "autotune",
    "service",
];

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Total length of the union of `intervals` (each `(start, end)`).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval that its children cover, summed by layer. Every layer
/// of [`LAYERS`] is present; one without spans reads 0.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != SpanId::ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = LAYERS.iter().map(|l| (l.to_string(), 0.0)).collect();
    for s in spans {
        let covered = children
            .remove(&s.id)
            .map(|kids| {
                let clipped = kids
                    .into_iter()
                    .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                union_ns(clipped)
            })
            .unwrap_or(0);
        let own = s.duration_ns().saturating_sub(covered);
        *out.entry(layer_of(s.name).to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            group: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, "bench.pass", 0, 1_000),
            span(2, 1, "corpus.build", 100, 600),
            span(3, 2, "sim.run", 200, 300),
            span(4, 2, "sim.run", 250, 400),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["bench"] - 500e-9).abs() < 1e-15);
        assert!((t["corpus"] - 300e-9).abs() < 1e-15);
        assert!((t["sim"] - 250e-9).abs() < 1e-15);
        assert_eq!(t["service"], 0.0);
        assert_eq!(t.len(), LAYERS.len());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let v = tr.span("corpus.build", SpanId::ROOT, 0, |id| {
            assert_eq!(id, SpanId::ROOT);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
