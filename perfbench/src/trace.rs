//! In-memory spans for the traced run.
//!
//! Each traced operation gets a request id and a root span; the calls the
//! benchmark makes into each layer are recorded as child spans with a name,
//! start, end and parent. Spans stay in memory until the run ends, when
//! they are written out as JSON lines. A span's self time is its duration
//! minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. Ids come from a counter shared by every
/// recorder of the run, so they are unique across threads.
pub struct Tracer<'a> {
    epoch: Instant,
    ids: &'a AtomicU64,
    req: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl<'a> Tracer<'a> {
    pub fn new(epoch: Instant, ids: &'a AtomicU64) -> Self {
        Self { epoch, ids, req: 0, stack: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new request: a fresh id and a root span named `name`.
    pub fn request<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.req = self.ids.fetch_add(1, Ordering::Relaxed);
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(Span { req: self.req, id, parent, name, start_ns, end_ns });
        out
    }

    /// Records an already-timed span (start and end in run-epoch ns) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            req: self.req,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: since(start),
            end_ns: since(end),
        });
    }
}

/// Self time of every span, by span id: duration minus the union of its
/// children's intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as JSON lines to `path`, with each span's self time.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{}}}",
            s.req, s.id, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { req: 0, id, parent, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50), // overlaps 2: union is 10..50
            span(4, Some(3), 25, 35),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let ids = AtomicU64::new(1);
        let mut t = Tracer::new(Instant::now(), &ids);
        t.request("root", |t| t.span("child", |_| ()));
        let child = t.spans.iter().find(|s| s.name == "child").unwrap();
        let root = t.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.req, root.req);
    }
}
