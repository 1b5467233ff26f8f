//! The benchmark's own spans: recorded in memory around every call it
//! makes into a layer, written out once when the run ends.

use std::path::Path;
use std::time::Instant;

/// One closed span: microseconds from the recorder's start.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Layer calls the span covers (1 for a single call).
    pub calls: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder with a parent stack.
pub struct Spans {
    t0: Instant,
    stack: Vec<usize>,
    next_id: usize,
    done: Vec<SpanRec>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { t0: Instant::now(), stack: Vec::new(), next_id: 1, done: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` whose children are the spans
    /// `f` records.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        let start_us = self.now_us();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_us = self.now_us();
        self.done.push(SpanRec { id, parent, name: name.into(), calls: 0, start_us, end_us });
        out
    }

    /// Runs `calls` calls of `f` inside one leaf span named `name`.
    pub fn leaf(&mut self, name: &str, calls: u64, mut f: impl FnMut()) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        let start_us = self.now_us();
        for _ in 0..calls {
            f();
        }
        let end_us = self.now_us();
        self.done.push(SpanRec { id, parent, name: name.into(), calls, start_us, end_us });
    }

    /// Records an externally timed leaf span (for calls that need
    /// untimed preparation between them).
    pub fn record(&mut self, name: &str, calls: u64, start: Instant, end: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let (start_us, end_us) = (at(start), at(end));
        self.done.push(SpanRec { id, parent, name: name.into(), calls, start_us, end_us });
    }

    /// Per-call microseconds of every leaf span named `name`.
    pub fn per_call_us(&self, name: &str) -> Vec<f64> {
        self.done
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| s.dur_us() / s.calls as f64)
            .collect()
    }

    /// Writes every span as one JSON line, in closing order.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.done {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"calls\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name,
                s.calls,
                s.start_us,
                s.end_us
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
