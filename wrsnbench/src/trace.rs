//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, request id, start, end)`. Spans are
//! appended to one mutex-guarded vector (the shard planner's worker
//! threads record too) and only analysed or written out after the
//! measured loop ends. Span times are read on the benchmark's clock,
//! [`Busy`], like every timing the benchmark reports. With tracing off, [`Tracer::span`] runs its
//! closure and records nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::host::Busy;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// The unit of work (plan, repetition, request) the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; `Tracer::off()` is the untraced configuration.
pub struct Tracer {
    on: bool,
    epoch: Busy,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Busy::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so nested calls can name it as their parent (0 when off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.record(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    /// Records a span whose interval the caller measured itself.
    pub fn record_interval(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Busy,
        end: Busy,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Busy| (t - self.epoch).as_nanos() as u64;
        self.record(Span {
            id,
            parent,
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Self times and tree structure of a finished span log.
pub struct SpanTree {
    pub spans: Vec<Span>,
    index: HashMap<u64, usize>,
    children: HashMap<u64, Vec<usize>>,
    /// `self_ns[i]`: span `i`'s duration minus the union of its
    /// children's intervals (clipped to the span).
    pub self_ns: Vec<u64>,
}

impl SpanTree {
    pub fn new(spans: Vec<Span>) -> SpanTree {
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
        }
        let self_ns = spans
            .iter()
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                s.dur_ns() - covered_ns(s, kids.iter().map(|&k| &spans[k]))
            })
            .collect();
        SpanTree {
            spans,
            index,
            children,
            self_ns,
        }
    }

    pub fn children_of(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
    }

    pub fn self_of(&self, id: u64) -> u64 {
        self.index.get(&id).map_or(0, |&i| self.self_ns[i])
    }

    /// Sum of self times, per span name.
    pub fn self_by_name(&self) -> HashMap<&'static str, u64> {
        let mut out = HashMap::new();
        for (s, &own) in self.spans.iter().zip(&self.self_ns) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Self time along the blocking path below span `id`: the span's own
    /// self time plus, for each run of overlapping children, the blocking
    /// path of the child that ended last (the one the parent waited on).
    pub fn blocking_ns(&self, id: u64) -> u64 {
        let mut total = self.self_of(id);
        let mut group_end = 0u64;
        let mut last: Option<&Span> = None;
        for child in self.children_of(id) {
            match last {
                Some(prev) if child.start_ns < group_end => {
                    if child.end_ns > prev.end_ns {
                        last = Some(child);
                    }
                }
                Some(prev) => {
                    total += self.blocking_ns(prev.id);
                    last = Some(child);
                }
                None => last = Some(child),
            }
            group_end = group_end.max(child.end_ns);
        }
        if let Some(prev) = last {
            total += self.blocking_ns(prev.id);
        }
        total
    }

    /// Median blocking-path self time of the spans named `name`, ms.
    pub fn median_blocking_ms(&self, name: &str) -> f64 {
        let paths: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.blocking_ns(s.id) as f64 / 1e6)
            .collect();
        crate::common::median(&paths)
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(&self.self_ns) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Length of the union of the children's intervals clipped to `parent`.
fn covered_ns<'a>(parent: &Span, kids: impl Iterator<Item = &'a Span>) -> u64 {
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for k in kids {
        let start = k.start_ns.max(cursor);
        let end = k.end_ns.min(parent.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two children overlap on [20, 30): the union covers [10, 40).
        let tree = SpanTree::new(vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
        ]);
        assert_eq!(tree.self_of(1), 70);
        assert_eq!(tree.self_of(2), 20);
    }

    #[test]
    fn blocking_path_follows_the_last_finisher_of_parallel_children() {
        // Sequential child 2, then parallel 3 and 4 where 4 ends last.
        let tree = SpanTree::new(vec![
            span(1, 0, 0, 100),
            span(2, 1, 0, 10),
            span(3, 1, 10, 50),
            span(4, 1, 12, 90),
        ]);
        // self(1) = 100 - 90 = 10; path = 10 + 10 + 78.
        assert_eq!(tree.blocking_ns(1), 98);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::off();
        let v = t.span("x", 0, 0, |id| id);
        assert_eq!(v, 0);
        assert!(t.take().is_empty());
    }
}
