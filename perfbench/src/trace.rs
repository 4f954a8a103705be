//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions.
//!
//! A span has a name, start and end (ns since the process's trace
//! epoch), the id of the span that caused it, and a request id shared
//! by every span of one request. Spans are kept in memory and written
//! out as JSON lines when the benchmark ends. Crossbar calls happen on
//! the service's worker threads, so their parent is whatever span the
//! driving thread declared current ([`Tracer::enter`]); that is exact
//! only while one request is in flight, which is how the probes run;
//! during the concurrent closed loop only the client round trips are
//! recorded.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// The request every span of one request shares; 0 when unknown.
    pub request: u64,
    /// Work the call did: cells touched for crossbar calls, else 0.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The crossbar operations the wrapping backend times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarOp {
    ProgramRow,
    ReadRow,
    Scouting,
    ScoutingWrite,
}

impl CrossbarOp {
    pub const ALL: [CrossbarOp; 4] = [
        CrossbarOp::ProgramRow,
        CrossbarOp::ReadRow,
        CrossbarOp::Scouting,
        CrossbarOp::ScoutingWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CrossbarOp::ProgramRow => "crossbar.program_row",
            CrossbarOp::ReadRow => "crossbar.read_row",
            CrossbarOp::Scouting => "crossbar.scouting",
            CrossbarOp::ScoutingWrite => "crossbar.scouting_write",
        }
    }
}

/// The process-wide span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Crossbar calls are timed and kept (probe phase).
    recording: AtomicBool,
    next_id: AtomicU64,
    /// The span crossbar calls attach to, and its request.
    current: AtomicU64,
    current_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::default)
}

impl Tracer {
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no thread panicked while recording a span").push(span);
    }

    /// Times `f` as a span named `name` under `parent`, recording it.
    /// The span is current while `f` runs, so crossbar calls made on
    /// its behalf become its children. Returns the result and the span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Span) {
        let id = self.fresh_id();
        let outer = self.current.swap(id, Ordering::SeqCst);
        let outer_request = self.current_request.swap(request, Ordering::SeqCst);
        let start_ns = now_ns();
        let value = f();
        let end_ns = now_ns();
        self.current.store(outer, Ordering::SeqCst);
        self.current_request.store(outer_request, Ordering::SeqCst);
        let span = Span { id, name, start_ns, end_ns, parent, request, work: 0 };
        self.push(span);
        (value, span)
    }

    /// Records a span measured elsewhere (client round trips of the
    /// closed loop).
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        let span =
            Span { id: self.fresh_id(), name, start_ns, end_ns, parent: 0, request, work: 0 };
        self.push(span);
    }

    /// Keeps one crossbar call under the current span.
    pub fn crossbar(&self, op: CrossbarOp, start_ns: u64, end_ns: u64, cells: u64) {
        let span = Span {
            id: self.fresh_id(),
            name: op.name(),
            start_ns,
            end_ns,
            parent: self.current.load(Ordering::SeqCst),
            request: self.current_request.load(Ordering::SeqCst),
            work: cells,
        };
        self.push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no thread panicked while recording a span").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"work\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request, s.work
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover. Overlapping children count once; the parts of a
/// child outside the parent's interval do not count.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

/// The children of `parent` among `spans`.
pub fn children_of(spans: &[Span], parent: u64) -> Vec<Span> {
    spans.iter().filter(|s| s.parent == parent).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span { id, name: "t", start_ns, end_ns, parent, request: 1, work: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 100, 200, 0);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(&parent, &[span(2, 110, 120, 1), span(3, 150, 170, 1)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns(&parent, &[span(2, 110, 140, 1), span(3, 130, 160, 1)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(&parent, &[span(2, 110, 190, 1), span(3, 120, 130, 1)]), 20);
        // Parts outside the parent are clipped; fully outside is ignored.
        assert_eq!(self_time_ns(&parent, &[span(2, 50, 120, 1), span(3, 190, 260, 1)]), 70);
        assert_eq!(self_time_ns(&parent, &[span(2, 10, 90, 1)]), 100);
        // Children covering everything leave no self time.
        assert_eq!(self_time_ns(&parent, &[span(2, 90, 210, 1)]), 0);
    }

    #[test]
    fn spans_nest_under_the_current_span() {
        let t = Tracer::default();
        t.set_recording(true);
        let ((), outer) = t.span("outer", 0, 7, || {
            t.crossbar(CrossbarOp::ReadRow, now_ns(), now_ns() + 5, 64);
        });
        let spans = t.spans();
        let kids = children_of(&spans, outer.id);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].name, "crossbar.read_row");
        assert_eq!((kids[0].request, kids[0].work), (7, 64));
        // Outside any span, crossbar calls are roots of request 0.
        t.crossbar(CrossbarOp::Scouting, 0, 1, 1);
        let last = *t.spans().last().expect("recorded");
        assert_eq!((last.parent, last.request), (0, 0));
    }
}
