//! Spans recorded in memory around the benchmark's calls into the program.
//!
//! A span carries its name, start, end, the span that caused it, and the
//! id of the request or window it belongs to. Nothing inside the program
//! is instrumented: spans wrap the public calls the benchmark makes (and
//! the `FetchSource` calls the program makes back into the benchmark's
//! wrapper), so a layer's self time is what its call took minus the part
//! its children's intervals cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 is "no parent").
    pub id: u32,
    /// The span that caused this one, or 0 for a root.
    pub parent: u32,
    /// Layer-qualified call name, e.g. `core.windows`.
    pub name: &'static str,
    /// Request or window id the span belongs to (0 when none).
    pub group: u64,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (so children can name it before it closes).
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span recorder panicked")
            .push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id for its
    /// children.
    pub fn span<T>(
        &self,
        parent: u32,
        name: &'static str,
        group: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name,
            group,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no span recorder panicked")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Runs `f` inside a span when tracing, or plainly (parent id 0) when not.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    parent: u32,
    name: &'static str,
    group: u64,
    f: impl FnOnce(u32) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(parent, name, group, f),
        None => f(0),
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi)`. Children from two pool threads overlap; the overlap counts
/// once.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per span name: (count, total duration ns, total self time ns), where a
/// span's self time is its duration minus the union of its children's
/// intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .remove(&s.id)
            .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// Writes spans as tab-separated `id parent name group start_ns end_ns`
/// lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tgroup\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.group, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, "core.windows", 0, 100),
            // Two pool threads: [10, 50) and [30, 70) overlap by 20.
            span(2, 1, "revstore.fetch", 10, 50),
            span(3, 1, "revstore.fetch", 30, 70),
            // Nested inside the first child: covered already.
            span(4, 1, "revstore.fetch", 20, 40),
            // Disjoint, and one sticking out past the parent's end.
            span(5, 1, "revstore.fetch", 80, 90),
            span(6, 1, "revstore.fetch", 95, 120),
        ];
        let t = self_times(&spans);
        // Covered: [10, 70) + [80, 90) + [95, 100) = 75.
        assert_eq!(t["core.windows"], (1, 100, 25));
        // Leaves have no children: self time is their whole duration.
        assert_eq!(t["revstore.fetch"], (5, 40 + 40 + 20 + 10 + 25, 135));
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![
            span(1, 0, "pass", 0, 10),
            span(2, 1, "a", 0, 6),
            span(3, 1, "b", 4, 10),
        ];
        assert_eq!(self_times(&spans)["pass"], (1, 10, 0));
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let t = Tracer::new(Instant::now());
        let inner = t.span(0, "outer", 7, |id| t.span(id, "inner", 7, |_| 42));
        assert_eq!(inner, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(traced(None, 0, "x", 0, |id| id), 0);
    }
}
