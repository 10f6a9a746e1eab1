//! In-memory span recorder for the traced run.
//!
//! A span is `(name, program, start, end, parent)`. Spans nest through an
//! explicit stack, so a span's *self time* is its duration minus that of
//! its direct children. The layer of a span is its name up to the first
//! `.` (`cache.load` belongs to `cache`, `fhe.mul` to `fhe`). Spans stay in
//! memory while the workload runs and are written out once at the end.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or, after a recovered panic, force-closed) span.
pub struct Span {
    pub name: &'static str,
    pub program: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, attributed to `program`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        program: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, program, start, end: start, parent });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    /// Number of open spans; pair with [`Tracer::close_to`] around code
    /// that may unwind out of a span.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` at the current time (spans
    /// a caught panic left open).
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("open span");
            self.spans[idx].end = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// Self time summed by layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.layer()).or_insert(0.0) += t;
        }
        by
    }

    /// Total duration of spans named `name` for `program`.
    pub fn total(&self, name: &str, program: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.program == program)
            .map(Span::seconds)
            .sum()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"program\": \"{}\", \"start\": {:.6}, \"end\": {:.6}, \"parent\": {}}}",
                    s.name,
                    s.program,
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_direct_children_only() {
        let mut tr = Tracer::new();
        tr.span("program", "p", |tr| {
            tr.span("expand", "p", |tr| {
                tr.span("cache.load", "p", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let own = tr.self_times();
        let total: f64 = own.iter().sum();
        assert!((total - tr.spans()[0].seconds()).abs() < 1e-9);
        assert!(own.iter().all(|&t| t >= 0.0));
        assert_eq!(tr.spans()[2].layer(), "cache");
    }

    #[test]
    fn close_to_recovers_from_an_unwound_span() {
        let mut tr = Tracer::new();
        let depth = tr.depth();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("checker", "p", |_| panic!("violation"));
        }));
        assert!(r.is_err());
        tr.close_to(depth);
        assert_eq!(tr.depth(), 0);
        assert!(tr.spans()[0].end >= tr.spans()[0].start);
    }
}
