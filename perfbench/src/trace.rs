//! In-memory span recorder for the traced replay.
//!
//! A span is recorded around each call into a layer: its name, start and
//! end (ns since the tracer was created), the span that was open when it
//! started, and the operation it belongs to. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or grouping name (`phase1`, `paths`, `candidate`, `op`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation this span belongs to.
    pub op: u32,
}

impl Span {
    /// Wall time covered by the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags every span opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(top) {
                span.end_ns = end_ns;
            }
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span and line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {id}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "op": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, ns, over the spans of operation `op`: each
/// span's duration minus the part of it that its child spans cover.
pub fn self_times(spans: &[Span], op: u32) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child_ns.get_mut(p) {
                *c += s.duration_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        if s.op == op {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
        }
    }
    out
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
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100] ⊃ candidate [10, 90] ⊃ paths [20, 50], place [60, 70].
        let spans = vec![
            span("op", 0, 100, None),
            span("candidate", 10, 90, Some(0)),
            span("paths", 20, 50, Some(1)),
            span("place", 60, 70, Some(1)),
        ];
        let t = self_times(&spans, 1);
        assert_eq!(t["op"], 20);
        assert_eq!(t["candidate"], 40);
        assert_eq!(t["paths"], 30);
        assert_eq!(t["place"], 10);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn self_time_sums_repeated_names_and_filters_by_op() {
        let mut spans = vec![
            span("op", 0, 100, None),
            span("paths", 0, 10, Some(0)),
            span("paths", 50, 75, Some(0)),
        ];
        spans.push(Span {
            name: "paths",
            start_ns: 0,
            end_ns: 1000,
            parent: None,
            op: 2,
        });
        let t = self_times(&spans, 1);
        assert_eq!(t["paths"], 35);
        assert_eq!(t["op"], 65);
        assert_eq!(self_times(&spans, 2)["paths"], 1000);
    }

    #[test]
    fn tracer_nests_spans_and_closes_inner_ones() {
        let mut tr = Tracer::new();
        tr.set_op(3);
        let root = tr.enter("op");
        let inner = tr.enter("candidate");
        tr.span("phase1", || std::hint::black_box(1 + 1));
        let _dangling = tr.enter("paths");
        tr.exit(inner);
        tr.exit(root);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(inner));
        assert_eq!(s[3].parent, Some(inner));
        assert!(s.iter().all(|x| x.op == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[3].end_ns);
    }
}
