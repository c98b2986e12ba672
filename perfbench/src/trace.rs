//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end, the span that caused it and the
//! request it belongs to. Spans are recorded from the benchmark's own
//! code around the calls into each layer, kept in memory, and written
//! out with a per-layer table when the run ends. A disabled tracer
//! records nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Most spans kept; later ones are counted but dropped.
const MAX_SPANS: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based id (0 means "no parent").
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// Layer and operation, e.g. `client.rtt`.
    pub name: &'static str,
    /// The request the span belongs to (0 for a direct layer call).
    pub request: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, in ns.
    pub total_ns: u64,
    /// Summed duration minus the time its child spans cover, in ns.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its id (0 when disabled or full).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Per-name count, total and self time. Self time is a span's
    /// duration minus the durations of its children.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let row = rows.entry(span.name).or_default();
            row.count += 1;
            row.total_ns += duration;
            row.self_ns += duration.saturating_sub(child_ns[span.id as usize]);
        }
        rows
    }

    /// The spans and the per-layer table as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4096);
        let _ = write!(
            out,
            "{{{header},\"dropped_spans\":{},\"layers\":[",
            self.dropped
        );
        for (i, (name, row)) in self.layers().iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{name}\",\"count\":{},\"total_ms\":{:.4},\"self_ms\":{:.4}}}",
                if i == 0 { "" } else { "," },
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let root = tracer.span("request", 0, 7, at(0), at(100));
        tracer.span("gen.late", root, 7, at(0), at(10));
        tracer.span("client.rtt", root, 7, at(10), at(100));
        let layers = tracer.layers();
        assert_eq!(layers["request"].total_ns, 100_000);
        assert_eq!(layers["request"].self_ns, 0);
        assert_eq!(layers["client.rtt"].self_ns, 90_000);
        assert_eq!(layers["gen.late"].count, 1);
    }

    #[test]
    fn a_disabled_tracer_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.span("request", 0, 1, now, now), 0);
        assert!(tracer.layers().is_empty());
    }
}
