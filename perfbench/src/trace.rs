//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer, recorded from the benchmark's
//! own code around the program's public functions: a name, start and end
//! relative to the run's epoch, the span that caused it, and the request
//! it belongs to. Spans stay in memory until the run ends and are then
//! written out in one piece.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread of the benchmark, against a shared epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Ends a span opened by [`Trace::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose ends were timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans (same epoch), re-basing their parent
    /// links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that the union of its children's intervals covers.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                // Clip to the parent, then merge overlapping intervals.
                let mut clipped: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&(a, b)| (a.max(span.start_ns), b.min(span.end_ns)))
                    .filter(|&(a, b)| b > a)
                    .collect();
                clipped.sort_unstable();
                let mut covered = 0u64;
                let mut run: Option<(u64, u64)> = None;
                for (a, b) in clipped {
                    run = match run {
                        Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                        Some((ra, rb)) => {
                            covered += rb - ra;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ra, rb)) = run {
                    covered += rb - ra;
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total and self time per span name, summed over all spans.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (u64, u64, usize)> {
        let mut out: BTreeMap<&'static str, (u64, u64, usize)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(span.name).or_default();
            e.0 += span.duration_ns();
            e.1 += self_ns;
            e.2 += 1;
        }
        out
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent,
    /// request]` rows (`parent` is -1 for a root).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.name.to_owned()),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                        Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                        Json::Num(s.request as f64),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        let mut trace = Trace::new(Instant::now());
        trace.spans = vec![
            span("core.process", 0, 100, None),     // 0
            span("core.asr", 10, 60, Some(0)),      // 1
            span("speech.fe", 10, 25, Some(1)),     // 2
            span("speech.decode", 25, 55, Some(1)), // 3
            span("core.qa", 60, 95, Some(0)),       // 4
            // Overlapping children count once; a child leaking past its
            // parent is clipped to the parent.
            span("nlp.qa", 62, 90, Some(4)),          // 5
            span("search.retrieve", 70, 99, Some(4)), // 6
        ];
        let own = trace.self_times_ns();
        assert_eq!(own, vec![15, 5, 15, 30, 2, 28, 29]);
        let by_name = trace.totals_by_name();
        assert_eq!(by_name["core.process"], (100, 15, 1));
        assert_eq!(by_name["search.retrieve"], (29, 29, 1));
        // Without the overlapping child, self times sum to the root.
        trace.spans.truncate(6);
        assert_eq!(trace.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch);
        let root = a.open("server.submit", None, 1);
        a.close(root);
        let mut b = Trace::new(epoch);
        let p = b.open("net.rtt", None, 2);
        let c = b.open("wire.encode", Some(p), 2);
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].name, "wire.encode");
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
