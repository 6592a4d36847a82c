//! Span recorder for the benchmark's own boundaries.
//!
//! Spans are opened and closed only in `bench/` code, around calls into
//! the simulator's public functions; the simulator itself is not
//! instrumented (spans inside the program are a later change). They are
//! kept in a `Vec` and written out once, after the run, so recording
//! costs one `Instant::now()` pair and a push per span.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use mwn_obs::json::Obj;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Distinguishes repeated siblings (`slice[17]`, `job[3]`).
    pub index: Option<u32>,
    /// Which round of the run the span belongs to.
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::open`]; closing out of order is a bug the
/// tracer asserts on.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Sets the round number stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        self.open_indexed(name, None)
    }

    pub fn open_indexed(&mut self, name: &'static str, index: Option<u32>) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            index,
            run: self.run,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.secs()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of `id`: its duration minus the part its direct children
    /// cover.
    pub fn self_secs(&self, id: u32) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id as usize].secs() - children
    }

    /// Writes the spans as JSON Lines: `{id, parent, name, workload, run,
    /// start_ns, end_ns}` per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let name = match s.index {
                Some(i) => format!("{}[{i}]", s.name),
                None => s.name.to_string(),
            };
            let obj = Obj::new().u64("id", u64::from(s.id));
            let obj = match s.parent {
                Some(p) => obj.u64("parent", u64::from(p)),
                None => obj.raw("parent", "null"),
            };
            let line = obj
                .str("name", &name)
                .str("workload", self.workload)
                .u64("run", u64::from(s.run))
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        let outer = t.open("outer");
        let inner = t.open_indexed("inner", Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_secs = t.close(inner);
        let outer_secs = t.close(outer);
        assert!(inner_secs >= 0.002 && outer_secs >= inner_secs);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!((t.self_secs(0) - (outer_secs - inner_secs)).abs() < 1e-12);
    }
}
