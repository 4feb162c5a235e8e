//! Spans recorded in the benchmark's own code around each call into a
//! library layer. Kept in memory while the workload runs and written
//! out as Chrome-trace JSON when it ends; a layer's self time is its
//! span minus the part of it its child spans cover.

use crate::surface::Json;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Library layer the call went into (`estim`, `mpi`, …).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start and end in nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Small per-thread number, for the trace viewer's lanes.
    pub tid: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans. When disabled, [`Tracer::span`] only times the call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Shared by every span of one workload run.
    run_id: u64,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run_id,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` and returns its result with the seconds it took; when
    /// tracing is on, also records the span. `f` receives the span's id
    /// so calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let started = Instant::now();
            let out = f(None);
            return (out, started.elapsed().as_secs_f64());
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let id = {
            let mut spans = self.spans.lock().expect("span buffer lock");
            spans.push(Span {
                layer,
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                tid: thread_number(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer lock")[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Seconds of self time summed over the spans of `layer`.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        let spans = self.spans();
        self_times_ns(&spans)
            .iter()
            .zip(&spans)
            .filter(|(_, s)| s.layer == layer)
            .map(|(&ns, _)| ns as f64 * 1e-9)
            .sum()
    }

    /// Seconds summed over the spans called `name`.
    pub fn named_total_s(&self, name: &str) -> f64 {
        let total: u64 = self
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        total as f64 * 1e-9
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(s.layer.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(self.run_id as f64)),
                    ("tid", Json::Num(f64::from(s.tid))),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children — calls on
/// parallel threads — are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            layer: "test",
            name: "s",
            start_ns,
            end_ns,
            parent,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(130, 170, Some(0)), // overlaps the previous child
            span(190, 250, Some(0)), // runs past the parent's end
        ];
        // Covered: [110, 170) and [190, 200) = 70 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false, 1);
        let (out, secs) = tracer.span("l", "n", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true, 9);
        tracer.span("outer", "a", None, |id| {
            tracer.span("inner", "b", id, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(
            tracer.named_total_s("b"),
            spans[1].duration_ns() as f64 * 1e-9
        );
        assert!(tracer.layer_self_s("outer") <= spans[0].duration_ns() as f64 * 1e-9);
        let text = tracer.chrome_trace().to_string_compact();
        assert!(text.contains("\"traceEvents\"") && text.contains("\"pid\":9"));
    }
}
