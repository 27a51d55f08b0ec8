//! Spans recorded by the harness around its own calls into the
//! product: kept in memory during a traced run, written out at exit.
//! A layer's self time is its span minus the part its children cover.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One timed interval. `parent` is the id of the enclosing span (0 =
/// none); spans of one request share `request` (0 = not a request).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Threads each own a tracer that
/// shares the run's origin and are [`absorb`](Tracer::absorb)ed at the
/// end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str, request: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (which must be `id`) and returns
    /// its duration.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.begin(name, request);
        let out = f(self);
        self.end(id);
        out
    }

    /// Appends another thread's finished spans, re-numbering them past
    /// this tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Seconds the latest span called `name` took (0 if there is none).
    pub fn last_s(&self, name: &str) -> f64 {
        let last = self.spans.iter().rev().find(|s| s.name == name);
        last.map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
    }

    /// Self times of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes `{"workload": …, "spans": [{id, parent, request, name,
    /// start_ns, end_ns}, …]}`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("id", Value::Num(f64::from(s.id))),
                    ("parent", Value::Num(f64::from(s.parent))),
                    ("request", Value::Num(f64::from(s.request))),
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let doc = Value::obj(vec![
            ("workload", Value::str(workload)),
            ("spans", Value::Arr(spans)),
        ]);
        std::fs::write(path, doc.encode())
    }
}

/// Self time per span, by position: duration minus the part of the
/// interval its direct children cover (each child clipped to the
/// parent; children of one parent never overlap on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let parent = &spans[s.parent as usize - 1];
        let start = s.start_ns.max(parent.start_ns);
        let end = s.end_ns.min(parent.end_ns);
        covered[s.parent as usize - 1] += end.saturating_sub(start);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0,100) with children [10,30) and [40,90); the second
        // child has its own child [50,60) that must only reduce the
        // child's self time, not the root's.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 90),
            span(4, 3, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span(1, 0, 10, 20), span(2, 1, 5, 15), span(3, 1, 18, 40)];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let sum = a.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(sum, 3);
        let mut b = Tracer::new(origin);
        b.span("outer", 8, |t| t.span("inner", 8, |_| ()));
        a.absorb(b);
        let parents: Vec<u32> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, 1, 1, 0, 4]);
        let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(a.durations("inner").len(), 3);
        for (s, own) in a.spans().iter().zip(self_times(a.spans())) {
            assert!(own <= s.dur_ns());
        }
        assert_eq!(a.self_times("outer").len(), 2);
    }

    #[test]
    fn written_trace_parses_back() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 1, |t| t.span("inner", 1, |_| ()));
        let dir = std::env::temp_dir().join(format!("boxagg-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.write_json(&path, "unit").unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[1].get("name").and_then(Value::as_str), Some("inner"));
    }
}
