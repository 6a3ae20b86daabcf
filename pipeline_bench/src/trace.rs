//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the per-op breakdown derived from them.
//!
//! Spans live in a `Vec` for the whole traced run and are written out once
//! when the benchmark ends ([`Tracer::to_jsonl`]). The program itself is
//! not instrumented: every span brackets a public call made from here.

use std::time::Instant;

/// Root span of one traced op.
pub const OP: &str = "op";

/// Leaf stages of a traced op. They are disjoint children of the op span,
/// so `op = Σ stages + unattributed` holds per op.
pub const STAGES: [&str; 5] = ["candgen", "coverage", "preprocess", "select", "metrics"];

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stage, op or probe name.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for ops and probes.
    pub parent: Option<usize>,
    /// The op this span belongs to (probes carry the op they measure).
    pub op: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Open a span and return its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a child span of `parent`.
    pub fn stage<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), op);
        let out = f();
        self.close(id);
        out
    }

    /// Time `f` as a probe: a root span outside the op's own time.
    pub fn probe<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None, op);
        let out = f();
        self.close(id);
        out
    }

    /// Close every span of `op` still open (an op that failed part-way).
    pub fn finish_op(&mut self, op: usize) {
        let now = self.now();
        for s in self
            .spans
            .iter_mut()
            .filter(|s| s.op == op && s.end_ns == 0)
        {
            s.end_ns = now;
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One JSON object per span, one per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Time of one traced op split into its leaf stages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpBreakdown {
    /// Duration of the op span.
    pub op_ns: u64,
    /// Per-stage busy time, in [`STAGES`] order.
    pub stage_ns: [u64; STAGES.len()],
    /// Op time no stage covers.
    pub unattributed_ns: u64,
}

/// Break each op span into its leaf stages.
///
/// Errors if a stage is not nested inside its op or overlaps another
/// stage of the same op, since the stages would then not add up.
pub fn breakdown(spans: &[Span]) -> Result<Vec<OpBreakdown>, String> {
    let mut out = Vec::new();
    for (root_id, root) in spans.iter().enumerate() {
        if root.name != OP {
            continue;
        }
        let mut stage_ns = [0u64; STAGES.len()];
        let mut intervals = Vec::new();
        for s in spans
            .iter()
            .filter(|s| s.op == root.op && s.parent.is_some())
        {
            let Some(k) = STAGES.iter().position(|&n| n == s.name) else {
                continue;
            };
            if !descends_from(spans, s, root_id)
                || s.start_ns < root.start_ns
                || s.end_ns > root.end_ns
            {
                return Err(format!(
                    "op {}: stage {} lies outside its op",
                    root.op, s.name
                ));
            }
            stage_ns[k] += s.ns();
            intervals.push((s.start_ns, s.end_ns));
        }
        intervals.sort_unstable();
        if intervals.windows(2).any(|w| w[1].0 < w[0].1) {
            return Err(format!("op {}: stages overlap", root.op));
        }
        let covered: u64 = stage_ns.iter().sum();
        out.push(OpBreakdown {
            op_ns: root.ns(),
            stage_ns,
            unattributed_ns: root.ns() - covered,
        });
    }
    Ok(out)
}

fn descends_from(spans: &[Span], s: &Span, root: usize) -> bool {
    let mut cur = s.parent;
    while let Some(p) = cur {
        if p == root {
            return true;
        }
        cur = spans[p].parent;
    }
    false
}

/// Summed duration of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
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
            op: 0,
        }
    }

    #[test]
    fn nested_stages_reconcile_with_their_op() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("learn.evaluate", 5, 90, Some(0)),
            span("coverage", 10, 30, Some(1)),
            span("select", 30, 70, Some(1)),
            span("probe.chase", 120, 140, None),
        ];
        let b = breakdown(&spans).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].stage_ns[1], 20);
        assert_eq!(b[0].stage_ns[3], 40);
        assert_eq!(b[0].unattributed_ns, 40);
    }

    #[test]
    fn overlapping_or_escaping_stages_are_rejected() {
        let overlap = vec![
            span(OP, 0, 100, None),
            span("coverage", 10, 50, Some(0)),
            span("select", 40, 60, Some(0)),
        ];
        assert!(breakdown(&overlap).is_err());
        let escape = vec![span(OP, 0, 100, None), span("metrics", 90, 110, Some(0))];
        assert!(breakdown(&escape).is_err());
    }
}
