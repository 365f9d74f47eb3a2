//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Request spans (submit → resolve) carry the request id;
//! probe spans nest under a parent probe span.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Id of a recorded span (0 is "no parent").
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: Option<u64>,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len()
    }

    /// Opens a span whose end is set later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id - 1) {
            span.end_ns = end;
        }
    }

    /// Runs `f` `reps` times under `parent`, one span per call, and
    /// returns the median call time in seconds.
    pub fn time_reps<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            std::hint::black_box(f());
            let end = Instant::now();
            self.record(name, start, end, parent, None);
            times.push((end - start).as_secs_f64());
        }
        crate::report::median(&times)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let request = span.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {request}}}{sep}",
                i + 1,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
