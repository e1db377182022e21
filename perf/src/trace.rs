//! Span recorder for the traced run. Spans are taken only here, around
//! the harness's own calls into each layer, kept in memory, and written as
//! JSONL when the run ends.

use crate::json;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// BFS source the call served, when it served one.
    pub source: Option<u32>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Collects spans when on; with tracing off, [`Tracer::span`] only calls
/// its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        source: Option<u32>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            source,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (the
/// union is subtracted once) and may stick out of the parent (they are
/// clipped to it); grandchildren are already inside their own parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, sum)) => *sum += t,
            None => totals.push((s.name, t)),
        }
    }
    totals
}

/// One JSON object per line: `name`, `workload`, `source`, `start_us`,
/// `end_us`, `id` and `parent` (ids are line numbers from 0).
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"name\": {}, \"workload\": {}, \"source\": {}, \"start_us\": {}, \"end_us\": {}, \
                 \"id\": {id}, \"parent\": {}}}\n",
                json::string(s.name),
                json::string(workload),
                opt(s.source.map(u64::from)),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.end_ns as f64 / 1e3),
                opt(s.parent.map(|p| p as u64)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, source: None, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,35); root > b [50,60).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        // Children [10,50) and [30,70) overlap; [90,130) sticks out of
        // the parent's [0,100). Covered: [10,70) + [90,100) = 70.
        let spans = vec![
            span("p", 0, 100, None),
            span("c", 10, 50, Some(0)),
            span("c", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
        // A child nested wholly inside a sibling adds nothing.
        let nested =
            vec![span("p", 0, 100, None), span("c", 10, 80, Some(0)), span("c", 20, 30, Some(0))];
        assert_eq!(self_times_ns(&nested)[0], 30);
        assert_eq!(self_time_by_name(&nested), vec![("p", 30), ("c", 80)]);
    }

    #[test]
    fn tracer_nests_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", Some(7), |t| t.span("inner", None, |_| 42));
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let line = to_jsonl(&spans, "w\"1");
        assert!(line.starts_with("{\"name\": \"outer\", \"workload\": \"w\\\"1\", \"source\": 7,"));
        assert!(line.lines().nth(1).unwrap().ends_with("\"id\": 1, \"parent\": 0}"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", None, |t| t.span("y", None, |_| 1)), 1);
        assert!(off.into_spans().is_empty());
    }
}
