//! In-memory span recording for the traced run, and the self-time
//! arithmetic that turns spans into per-layer numbers.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span: a named interval, in nanoseconds since the recorder's
/// origin, and the span it ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within one recorder.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer name, e.g. `warm` or `warehouse.save`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread; nothing is written until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<T>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> T) -> T {
        // The id only has to be unique; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span closure panicked while recording")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every recorded span, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span closure panicked while recording")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Time and count of one layer (all spans sharing a name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    /// The spans' name.
    pub name: &'static str,
    /// How many spans carry the name.
    pub count: usize,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: each span's duration minus the part of it its
    /// children cover.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the union of its children's
/// intervals, clipped to the span (children running in parallel on several
/// workers are counted once).
pub fn self_time(span: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.duration_ns() - covered
}

/// Per-layer totals over `spans`, sorted by name.
pub fn layer_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut layers: Vec<LayerTime> = Vec::new();
    for span in spans {
        let children: Vec<Span> = spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .copied()
            .collect();
        let own = self_time(span, &children);
        match layers.iter_mut().find(|l| l.name == span.name) {
            Some(l) => {
                l.count += 1;
                l.total_ns += span.duration_ns();
                l.self_ns += own;
            }
            None => layers.push(LayerTime {
                name: span.name,
                count: 1,
                total_ns: span.duration_ns(),
                self_ns: own,
            }),
        }
    }
    layers.sort_by_key(|l| l.name);
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(0, None, "run", 0, 100);
        // Two overlapping children (10..40 and 30..50) and one disjoint
        // (60..70) cover 50 ns; one child overhangs the parent's end.
        let kids = [
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "a", 30, 50),
            span(3, Some(0), "b", 60, 70),
            span(4, Some(0), "b", 95, 120),
        ];
        assert_eq!(self_time(&root, &kids), 100 - 40 - 10 - 5);
        assert_eq!(self_time(&root, &[]), 100);
    }

    #[test]
    fn layer_times_group_by_name() {
        let spans = [
            span(0, None, "run", 0, 100),
            span(1, Some(0), "warm", 0, 60),
            span(2, Some(1), "fork", 10, 20),
            span(3, Some(0), "warm", 60, 90),
        ];
        let layers = layer_times(&spans);
        let names: Vec<&str> = layers.iter().map(|l| l.name).collect();
        assert_eq!(names, ["fork", "run", "warm"]);
        let warm = &layers[2];
        assert_eq!((warm.count, warm.total_ns, warm.self_ns), (2, 90, 80));
        assert_eq!(layers[1].self_ns, 10);
    }

    #[test]
    fn recorder_keeps_parents_and_order() {
        let rec = Recorder::default();
        let v = rec.span("outer", None, |outer| rec.span("inner", Some(outer), |_| 7));
        assert_eq!(v, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
