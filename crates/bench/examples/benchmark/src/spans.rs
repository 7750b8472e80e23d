//! In-memory host-clock spans recorded around the calls the benchmark
//! makes into each layer, written out as JSONL when the traced rep
//! ends. The program itself is not instrumented: a span covers exactly
//! one public call (or one request made of such calls).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent`/`req` value meaning "none".
pub const NONE: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    /// Opens a span whose end is filled in by [`Spans::close`]; used
    /// for parents, whose children are recorded before they end.
    pub fn open(&mut self, name: &'static str, parent: u64, req: u64, start: Instant) -> u64 {
        let at = self.at(start);
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: at,
            end_ns: at,
        });
        (self.spans.len() - 1) as u64
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        let at = self.at(end);
        self.spans[id as usize].end_ns = at;
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open(name, parent, req, start);
        self.close(id, end);
        id
    }

    /// Self time of every span: its duration minus the time its
    /// children cover (children of one parent never overlap here).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per span to `path`: id, name, parent,
    /// request id, start and end in ns since the pass began.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let opt = |v: u64| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.parent),
                opt(s.req),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
