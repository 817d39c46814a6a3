//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start, end)` in ns since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (0: none).
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span sink. Disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// ns since the origin of an instant.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index (usable as a parent).
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            req,
        };
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Reserves a slot for a span whose end is not known yet (a parent
    /// that must exist before its children); fill it with [`Tracer::close`].
    pub fn open(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        self.record(name, req, parent, start, start)
    }

    pub fn close(&self, id: Option<usize>, end: Instant) {
        if let Some(id) = id {
            let end = self.at(end);
            self.spans.lock().expect("span sink poisoned")[id].end = end;
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover. Overlapping children (concurrent work under one
/// parent) are counted once, and children are clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids).min(s.dur()))
        .collect()
}

/// Per request (a root span named `request`), the part of its end-to-end
/// time that no innermost span below it covers. Only spans without
/// children claim time: they time one call into one layer. An outer span
/// (`serve.request`, `shard.submit`, `session.submit`) claims nothing
/// itself, so whatever its call spent outside every inner measurement,
/// such as queueing in a server or the transport of a round trip, stays
/// unattributed.
pub fn unattributed(spans: &[Span]) -> Vec<u64> {
    let mut has_children = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_children[p] = true;
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut leaves: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() && !has_children[i] {
            let root = &spans[root_of(i)];
            let (a, b) = (s.start.max(root.start), s.end.min(root.end));
            if a < b {
                leaves[root_of(i)].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(leaves)
        .filter(|(s, _)| s.parent.is_none() && s.name == "request")
        .map(|(s, kids)| s.dur() - covered(kids).min(s.dur()))
        .collect()
}

/// Length of the union of `[a, b)` intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
            s.name, s.start, s.end, s.req
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)), // runs past its parent: clipped
            span("a.child", 20, 30, Some(1)),
        ];
        let selfs = self_times(&spans);
        // root: 100 - |[10,70) U [90,100)| = 100 - 70.
        assert_eq!(selfs, vec![30, 30, 40, 30, 10]);
    }

    #[test]
    fn unattributed_is_end_to_end_minus_the_innermost_spans() {
        let spans = vec![
            span("request", 0, 100, None),
            span("wait", 0, 20, Some(0)),
            // An outer call: only its inner measurement claims time.
            span("submit", 25, 95, Some(0)),
            span("execute", 40, 80, Some(2)),
            span("admit", 25, 30, Some(2)),
            span("request", 200, 260, None),
            span("submit", 200, 260, Some(5)),
            span("backend.golden", 210, 220, None), // unlinked: not a request
        ];
        // Claimed: wait 20 + admit 5 + execute 40; the submit call's other
        // 25 and the 5 between wait and submit are not.
        assert_eq!(unattributed(&spans), vec![100 - 65, 0]);
        // A leaf that overlaps another and runs past its root counts once
        // and only inside the root.
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 120, Some(0)),
        ];
        assert_eq!(unattributed(&spans), vec![10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 1, None, now, now), None);
        assert!(t.take().is_empty());
    }
}
