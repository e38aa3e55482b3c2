//! In-memory host-time spans recorded around calls into each layer's
//! public functions. Spans live in memory while the workload runs and are
//! written out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.taskgen`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Span ids are indices into [`Tracer::spans`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name: name.into(), parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record an interval measured elsewhere (e.g. a served request's
    /// queue wait, reconstructed from the times the server reports).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name: name.into(), parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_parents_and_write_one_line_each() {
        let mut t = Tracer::default();
        let root = t.open("pass", None);
        let t0 = t.origin;
        let child = t.record("layer", Some(root), t0, t0 + std::time::Duration::from_millis(2));
        t.close(root);
        assert_eq!(t.spans()[child].ms(), 2.0);
        assert!(t.spans()[root].end_ns >= t.spans()[root].start_ns);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_traces");
        let path = Path::new(dir).join(format!("unit-test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"pass\",\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"layer\",\"parent\":0"));
    }
}
