//! In-memory span recorder for the traced run. Each span names the layer
//! it wraps, the request it belongs to and the span that caused it; all
//! spans stay in memory until the run ends, when self times are computed.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One closed (or still open) span; times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to; all spans of one request share it.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `frontend.parse`.
    pub layer: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` until closed).
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// same replay code measures the untraced baseline.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or ignores them.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn open(&mut self, request: u64, parent: Option<SpanId>, layer: &'static str) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            request,
            parent,
            layer,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `work` inside a span.
    pub fn wrap<T>(
        &mut self,
        request: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, parent, layer);
        let out = work();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals of a span set.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub count: u64,
    /// Sum of their self times, nanoseconds.
    pub self_ns: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Each span's duration, nanoseconds, in recording order.
    pub durations_ns: Vec<u64>,
}

/// Group spans by layer.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.layer).or_default();
        let duration = span.end_ns - span.start_ns;
        entry.count += 1;
        entry.self_ns += self_ns;
        entry.total_ns += duration;
        entry.durations_ns.push(duration);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 0,
            parent,
            layer: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            span(Some(0), 35, 45),
        ];
        assert_eq!(self_times_ns(&spans)[0], 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(None, 10, 20),
            span(Some(0), 0, 15),
            span(Some(0), 18, 40),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 0, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut recorder = Recorder::new(false);
        let value = recorder.wrap(1, None, "x", || 7);
        assert_eq!(value, 7);
        assert!(recorder.spans().is_empty());
        let mut recorder = Recorder::new(true);
        let root = recorder.open(3, None, "request");
        recorder.wrap(3, Some(root), "leaf", || ());
        recorder.close(root);
        let layers = by_layer(recorder.spans());
        assert_eq!(layers["request"].count, 1);
        assert_eq!(layers["leaf"].count, 1);
        assert!(recorder.spans().iter().all(|s| s.request == 3));
    }
}
