//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public functions,
//! from the benchmark's own code: name, start, end, parent span and the
//! query they serve. They stay in memory until the run ends. With no
//! recorder installed, [`span`] is a thread-local check and a call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `eval.circuit`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was installed.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was installed.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Query the span serves, when it serves one.
    pub query: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs an empty recorder on this thread.
pub fn install() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Removes the recorder and returns its spans, in start order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Runs `f` inside a span named `name`, when a recorder is installed.
pub fn span<T>(name: &'static str, query: Option<u64>, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let start_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: rec.open.last().copied(),
                query,
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// Aggregates spans by name. Children of one parent run one after the
/// other on one thread, so a parent's self time is its duration minus the
/// sum of its children's.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns().saturating_sub(children);
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 * 1e-6)
        .collect()
}

/// Renders spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(q) = s.query {
            let _ = write!(out, ",\"query\":{q}");
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        install();
        span("outer", Some(7), || {
            span("inner", Some(7), || std::hint::black_box(1 + 1));
            span("inner", None, || ());
        });
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].query, Some(7));
        let t = totals(&spans);
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(to_jsonl(&spans).lines().count() == 3);
    }

    #[test]
    fn without_a_recorder_spans_only_run_the_call() {
        assert_eq!(span("x", None, || 5), 5);
        assert!(take().is_empty());
    }
}
