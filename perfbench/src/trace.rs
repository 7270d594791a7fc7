//! In-memory spans: recorded by the benchmark around each call into a
//! layer, reduced to self time per layer, and written out at exit.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover; overlapping children are counted once.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `id` names the request or batch it belongs to;
/// `parent` indexes the span that caused it in the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// A span recorder with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index, for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sets the end of span `index` (recorded earlier with a provisional
    /// end), for spans whose children are recorded before they finish.
    pub fn set_end(&mut self, index: usize, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
    }
}

/// Self time of every span, index for index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| children.get_mut(p)) {
            p.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            duration.saturating_sub(covered(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Total self time and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// Writes at most `limit` spans as tab-separated lines:
/// `index parent id name start_ns end_ns` (parent `-` for a root).
pub fn write_tsv(out: &mut impl Write, spans: &[Span], limit: usize) -> std::io::Result<()> {
    writeln!(out, "index\tparent\tid\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren() {
        let spans = [
            span("batch", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("assess", 40, 90, Some(0)),
            span("kernel", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("request", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_time_totals_group_by_name() {
        let spans = [
            span("batch", 0, 50, None),
            span("key", 0, 10, Some(0)),
            span("batch", 50, 80, None),
            span("key", 55, 60, Some(2)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["batch"], (65, 2));
        assert_eq!(by_name["key"], (15, 2));
    }

    #[test]
    fn tracer_links_children_to_open_parents() {
        let mut t = Tracer::new(Instant::now());
        let start = t.now();
        let parent = t.record("batch", start, start, None, 7);
        let v = t.time("work", Some(parent), 7, || 41 + 1);
        let end = t.now();
        t.set_end(parent, end);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let mut tsv = Vec::new();
        write_tsv(&mut tsv, spans, 1).unwrap();
        let text = String::from_utf8(tsv).unwrap();
        assert_eq!(text.lines().count(), 2, "header plus the one span allowed");
        assert!(text.lines().nth(1).unwrap().starts_with("0\t-\t7\tbatch\t"));
    }
}
