//! The clock, and spans recorded around calls into the program.
//!
//! Spans are recorded only here, from the benchmark's side of each public
//! call (spans inside the program are a later change). The judged run is
//! generic over [`Off`], whose methods are empty, so it pays exactly one
//! clock read per request; the traced run records into a [`Tracer`] and
//! the two are compared as `trace.overhead_ratio`.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `parent` / `req` of a span that has none.
pub const NONE: u32 = u32::MAX;

/// One timed interval around a call: `name`, bounds in ns since
/// [`now`]'s epoch, the span that caused it (index into the same trace),
/// and the request it belongs to. (Every driver runs its requests on the
/// calling thread, so spans carry no thread id.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

/// What a serving-shape driver reports to while it runs. Every method
/// of [`Off`] is empty and inlined away.
pub trait Rec {
    /// Whether anything is recorded (lets drivers skip trace-only reads).
    const ON: bool;
    /// Opens a span at time `t` (a clock value the caller already read).
    fn open_at(&mut self, name: &'static str, req: u32, t: u64);
    /// Records a child of the open span covering `[previous mark or open, now)`.
    fn mark(&mut self, name: &'static str);
    /// Closes the innermost open span at time `t`.
    fn close_at(&mut self, t: u64);
    /// Tuples the program reported touching for the request just served.
    fn touched(&mut self, tuples: u64);
}

/// The judged run's recorder: records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Rec for Off {
    const ON: bool = false;
    #[inline(always)]
    fn open_at(&mut self, _name: &'static str, _req: u32, _t: u64) {}
    #[inline(always)]
    fn mark(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn close_at(&mut self, _t: u64) {}
    #[inline(always)]
    fn touched(&mut self, _tuples: u64) {}
}

/// In-memory span store for one episode.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    /// Per-request touched-tuple counts, in request order.
    pub touched: Vec<u64>,
    open: Vec<u32>,
    last: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the recorded episode but keeps the allocations.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.touched.clear();
        self.open.clear();
    }

    /// Per-name totals: `(name, count, total_ns, self_ns)`, where self
    /// time is a span's duration minus what its child spans cover.
    pub fn aggregate(&self) -> Vec<SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<SpanTotal> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let slot = match totals.iter_mut().find(|t| t.name == s.name) {
                Some(t) => t,
                None => {
                    totals.push(SpanTotal {
                        name: s.name,
                        ..SpanTotal::default()
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            slot.count += 1;
            slot.total_ns += dur;
            slot.self_ns += dur.saturating_sub(*covered);
        }
        totals
    }

    /// Share of request-span time that child spans cover.
    pub fn req_child_coverage(&self) -> f64 {
        let mut req_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            if s.name == REQ {
                req_ns += s.end_ns - s.start_ns;
            } else if s.parent != NONE && self.spans[s.parent as usize].name == REQ {
                child_ns += s.end_ns - s.start_ns;
            }
        }
        if req_ns == 0 {
            0.0
        } else {
            child_ns as f64 / req_ns as f64
        }
    }

    /// Writes up to `cap` spans as JSON lines. `id` and `parent` count
    /// within `episode`, the label every line of this trace carries.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        episode: &str,
        cap: usize,
    ) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let req = if s.req == NONE { -1 } else { i64::from(s.req) };
            writeln!(
                out,
                "{{\"episode\":\"{episode}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// The span every request's children hang under.
pub const REQ: &str = "req";

/// Totals of one span name over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Looks up `name` in aggregated totals (absent = all zero).
pub fn total_of(totals: &[SpanTotal], name: &str) -> SpanTotal {
    totals
        .iter()
        .find(|t| t.name == name)
        .copied()
        .unwrap_or_default()
}

impl Rec for Tracer {
    const ON: bool = true;

    #[inline]
    fn open_at(&mut self, name: &'static str, req: u32, t: u64) {
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            req,
        });
        self.last = t;
    }

    #[inline]
    fn mark(&mut self, name: &'static str) {
        let t = now();
        let parent = self.open.last().copied().unwrap_or(NONE);
        let req = if parent == NONE {
            NONE
        } else {
            self.spans[parent as usize].req
        };
        self.spans.push(Span {
            name,
            start_ns: self.last,
            end_ns: t,
            parent,
            req,
        });
        self.last = t;
    }

    #[inline]
    fn close_at(&mut self, t: u64) {
        let idx = self.open.pop().expect("close without open");
        self.spans[idx as usize].end_ns = t;
        self.last = t;
    }

    #[inline]
    fn touched(&mut self, tuples: u64) {
        self.touched.push(tuples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let tr = Tracer {
            spans: vec![
                span(REQ, 0, 100, NONE),
                span("core.select", 0, 70, 0),
                span("columnstore.fold", 70, 95, 0),
            ],
            ..Tracer::default()
        };
        let totals = tr.aggregate();
        assert_eq!(total_of(&totals, REQ).total_ns, 100);
        assert_eq!(total_of(&totals, REQ).self_ns, 5);
        assert_eq!(total_of(&totals, "core.select").self_ns, 70);
        assert_eq!(total_of(&totals, "absent"), SpanTotal::default());
        assert!((tr.req_child_coverage() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn marks_chain_and_nest_under_the_open_span() {
        let mut tr = Tracer::new();
        tr.open_at(REQ, 7, 10);
        tr.mark("a");
        tr.mark("b");
        let end = now();
        tr.close_at(end);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].start_ns, 10);
        assert_eq!(
            tr.spans[2].start_ns, tr.spans[1].end_ns,
            "marks are chained"
        );
        assert!(tr.spans.iter().skip(1).all(|s| s.parent == 0 && s.req == 7));
        assert_eq!(tr.spans[0].end_ns, end);
    }

    #[test]
    fn trace_file_lines_are_json_and_capped() {
        let mut tr = Tracer::new();
        tr.open_at("setup", NONE, 0);
        tr.close_at(5);
        tr.open_at(REQ, 0, 5);
        tr.mark("txn.begin");
        tr.close_at(now());
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf, "unit", 2).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2, "cap is honoured");
        assert_eq!(
            text.lines().next().unwrap(),
            r#"{"episode":"unit","id":0,"name":"setup","start_ns":0,"end_ns":5,"parent":-1,"req":-1}"#
        );
        assert!(text.lines().all(|l| crate::json::Json::parse(l).is_ok()));
        tr.clear();
        assert!(tr.spans.is_empty() && tr.aggregate().is_empty());
    }
}
