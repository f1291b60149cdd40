//! Spans the harness takes around its own calls into each layer.
//!
//! Spans are kept in memory while the benchmark runs and written once
//! at the end (one JSON object per line), each with its self time: its
//! duration minus the part covered by its child spans. A disabled
//! tracer records nothing, so the timed path of an untraced run does
//! not pay for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Spans of one request or job share this identifier.
    pub req: u64,
    pub start: Duration,
    pub end: Duration,
    /// Time covered by child spans.
    children: Duration,
}

impl Span {
    pub fn self_time(&self) -> Duration {
        (self.end - self.start).saturating_sub(self.children)
    }
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub wall: Duration,
    pub self_time: Duration,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `Off` when tracing is disabled.
#[must_use]
pub enum Open {
    Off,
    At(usize),
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; the innermost open span is its parent.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open::Off;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            req,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            children: Duration::ZERO,
        });
        self.open.push(id);
        Open::At(id)
    }

    /// Close the innermost span.
    pub fn end(&mut self, span: Open) {
        let Open::At(id) = span else {
            return;
        };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.origin.elapsed();
        self.spans[id].end = now;
        let wall = now - self.spans[id].start;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].children += wall;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let s = self.begin(name, req);
        let out = f(self);
        self.end(s);
        out
    }

    /// Record a span measured elsewhere (on another thread, or from
    /// instants the harness already took), under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let span = Span {
            name,
            parent,
            req,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            children: Duration::ZERO,
        };
        if let Some(p) = parent {
            self.spans[p].children += span.end - span.start;
        }
        self.spans.push(span);
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.wall += s.end - s.start;
            t.self_time += s.self_time();
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.req,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.self_time().as_secs_f64() * 1e6
            )?;
        }
        Ok(())
    }
}
