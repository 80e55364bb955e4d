//! Spans recorded around the calls the benchmark makes into each layer, and
//! the per-layer self time derived from them.
//!
//! A span's layer is its name up to the first `.` (`sql.parse` belongs to
//! `sql`). Each traced request has one root span, `request`. Two kinds of
//! span need care:
//!
//! * A *shadow* span times a call the benchmark makes only to see a layer
//!   that another call hides: `Engine::prepare` on a miss runs the planner
//!   and the optimizer inside one call, and `Server` parses, binds and looks
//!   up the plan cache inside `submit` → `wait`. The benchmark makes those
//!   calls itself as well, and the shadow names the span whose time it
//!   duplicates (`covers`). That span's self time drops by the shadow's
//!   duration, and the request's wall time drops by every shadow's duration,
//!   so the duplicated work is counted once.
//! * A *reported* span carries a duration the program returns rather than
//!   one the benchmark timed (`QueryOutput::queue_wait`,
//!   `ExecutionMetrics::elapsed`). It is a child of the call that returned
//!   it and starts where that call starts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the run's trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// For a shadow span: the span whose work it duplicates.
    pub covers: Option<u32>,
    pub reported: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects the spans of one client thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, so a shadow span can name the span it covers
    /// before that span runs.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        request: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
        covers: Option<u32>,
    ) {
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
            covers,
            reported: false,
        });
    }

    /// Records a duration the program reported, as a child of `parent`.
    pub fn reported(&mut self, request: u64, parent: u32, name: &'static str, duration: Duration) {
        let id = self.reserve();
        let start = self
            .spans
            .iter()
            .rev()
            .find(|s| s.request == request && s.id == parent)
            .map_or(Duration::ZERO, |s| s.start);
        self.spans.push(Span {
            request,
            id,
            parent: Some(parent),
            name,
            start,
            end: start + duration,
            covers: None,
            reported: true,
        });
    }
}

/// The span context of one traced request.
#[derive(Debug)]
pub struct RequestTrace<'t> {
    pub tracer: &'t mut Tracer,
    pub request: u64,
    pub root: u32,
    started: Instant,
}

impl<'t> RequestTrace<'t> {
    pub fn start(tracer: &'t mut Tracer, request: u64) -> RequestTrace<'t> {
        let root = tracer.reserve();
        RequestTrace {
            tracer,
            request,
            root,
            started: Instant::now(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the request root.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.reserve();
        self.time_as(id, name, None, f)
    }

    /// Like [`RequestTrace::time`] with a reserved id and an optional
    /// covered span (for shadow spans).
    pub fn time_as<T>(
        &mut self,
        id: u32,
        name: &'static str,
        covers: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer
            .record(self.request, id, Some(self.root), name, start, end, covers);
        out
    }

    /// Closes the root span.
    pub fn finish(self) {
        let end = Instant::now();
        self.tracer.record(
            self.request,
            self.root,
            None,
            "request",
            self.started,
            end,
            None,
        );
    }
}

/// What the spans of all traced requests add up to, in seconds.
///
/// Self times are summed with their sign: a shadow call can take longer
/// than the work it duplicates inside another call, which makes that call's
/// self time negative for one request. Summing signed values keeps the
/// layers and the untraced rest adding up to the effective wall time.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Traced requests.
    pub requests: usize,
    /// Sum of request wall times, shadow spans subtracted.
    pub effective_wall: f64,
    /// Sum of self time per layer.
    pub self_time: BTreeMap<&'static str, f64>,
    /// Sum of the time no layer span covers.
    pub untraced: f64,
    /// Per span name, the duration of every span with that name.
    pub durations: BTreeMap<&'static str, Vec<Duration>>,
}

impl Breakdown {
    /// Derives self times from the spans of complete traced requests.
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut by_request: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for span in spans {
            by_request.entry(span.request).or_default().push(span);
        }
        let secs = |s: &Span| s.duration().as_secs_f64();
        let mut out = Breakdown::default();
        for spans in by_request.values() {
            let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
                continue;
            };
            let shadow: f64 = spans
                .iter()
                .filter(|s| s.covers.is_some())
                .map(|s| secs(s))
                .sum();
            let effective = secs(root) - shadow;
            let mut covered = 0.0;
            for span in spans.iter().filter(|s| s.parent.is_some()) {
                let children: f64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(span.id) || c.covers == Some(span.id))
                    .map(|c| secs(c))
                    .sum();
                let own = secs(span) - children;
                *out.self_time.entry(span.layer()).or_default() += own;
                covered += own;
                out.durations
                    .entry(span.name)
                    .or_default()
                    .push(span.duration());
            }
            out.requests += 1;
            out.effective_wall += effective;
            out.untraced += effective - covered;
        }
        out
    }

    /// A layer's share of the effective request wall time.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(
            self.self_time.get(layer).copied().unwrap_or_default(),
            self.effective_wall,
        )
    }

    pub fn untraced_share(&self) -> f64 {
        ratio(self.untraced, self.effective_wall)
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Renders spans as tab-separated lines, one per span.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("request\tid\tparent\tname\tstart_us\tend_us\tcovers\treported\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.request,
            s.id,
            s.parent.map_or(String::from("-"), |p| p.to_string()),
            s.name,
            s.start.as_micros(),
            s.end.as_micros(),
            s.covers.map_or(String::from("-"), |c| c.to_string()),
            u8::from(s.reported),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            request: 1,
            id,
            parent,
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            covers: None,
            reported: false,
        }
    }

    #[test]
    fn shadow_spans_are_counted_once() {
        // request 0..100: parse 0..10, graph (shadow of prepare) 10..20,
        // prepare 20..60 (re-does the graph inside), execute 60..95.
        let mut graph = span(3, Some(1), "plan.graph", 10, 20);
        graph.covers = Some(4);
        let spans = vec![
            span(1, None, "request", 0, 100),
            span(2, Some(1), "sql.parse", 0, 10),
            graph,
            span(4, Some(1), "cache.prepare", 20, 60),
            span(5, Some(1), "exec.execute", 60, 95),
        ];
        let b = Breakdown::of(&spans);
        let close = |a: f64, micros: f64| (a - micros * 1e-6).abs() < 1e-12;
        assert!(close(b.effective_wall, 90.0));
        assert!(close(b.self_time["cache"], 30.0));
        assert!(close(b.self_time["plan"], 10.0));
        assert!(close(b.untraced, 5.0));
        let total: f64 = b.self_time.values().sum::<f64>() + b.untraced;
        assert!(close(total, 90.0));
    }
}
