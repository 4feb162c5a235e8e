//! The six workloads, as they run inside one fresh child process, and
//! the report a child hands back to the driver.

pub mod replay;
pub mod serve;
pub mod tune;

use crate::host;
use crate::stats;
use crate::surface::{json_struct, set_thread_override};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TuneCold,
    RefitWarm,
    ServeCalm,
    ServeBrownout,
    ReplayCold,
    ReplayWarm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TuneCold,
        Workload::RefitWarm,
        Workload::ServeCalm,
        Workload::ServeBrownout,
        Workload::ReplayCold,
        Workload::ReplayWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneCold => "tune-cold",
            Workload::RefitWarm => "refit-warm",
            Workload::ServeCalm => "serve-calm",
            Workload::ServeBrownout => "serve-brownout",
            Workload::ReplayCold => "replay-cold",
            Workload::ReplayWarm => "replay-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TuneCold => {
                "cluster description to servable table in a fresh process: all schedule recording, \
                 so a recorder gain shows here and an evaluate-only gain must not"
            }
            Workload::RefitWarm => {
                "repeated refits on a warm memo: DAG evaluate, fabric booking, stopping rule and \
                 Huber fit do all the work and recording none, the mirror image of tune-cold"
            }
            Workload::ServeCalm => {
                "closed-loop decide traffic from 2 readers with hot swaps: CSR lookup and epoch \
                 pin on the fast path, no simulation at all"
            }
            Workload::ServeBrownout => {
                "same traffic under a wide brown-out: most answers go down the watchdog ladder, \
                 so a fast-path gain that slows the fallback path shows here"
            }
            Workload::ReplayCold => {
                "first replay of dp and pp traces in a fresh process: step recording and step-DAG \
                 compile dominate, as they do for a colltune replay user"
            }
            Workload::ReplayWarm => {
                "what-if re-replays of the same traces: DAG evaluate, fabric and selector lookups \
                 only, recording bypassed"
            }
        }
    }

    /// Memo state of the timed section.
    pub fn state(self) -> &'static str {
        match self {
            Workload::TuneCold | Workload::ReplayCold => "cold",
            Workload::RefitWarm | Workload::ReplayWarm => "warm",
            Workload::ServeCalm | Workload::ServeBrownout => "warm (no simulation)",
        }
    }

    /// Quantile reported as `op_tail_us`: the highest of p99/p90 that
    /// leaves at least ten samples of one child beyond it (a simulating
    /// warm loop collects ~200 samples per process, a reader ~20 000).
    /// Cold workloads run one operation per process, so their tail is
    /// that one sample.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ServeCalm | Workload::ServeBrownout => 0.99,
            Workload::RefitWarm | Workload::ReplayWarm => 0.90,
            Workload::TuneCold | Workload::ReplayCold => 1.0,
        }
    }
}

/// What a child process does with its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end measurement.
    Plain,
    /// Spans on, plus the layer probes after the timed section.
    Traced,
    /// `tune-cold` only: the three estimation stages called one by one,
    /// then the same cells walked through the raw layer calls.
    Stages,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Stages => "stages",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Stages]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds a warm loop measures for (cold passes have a fixed size).
    pub budget_s: f64,
    pub mode: Mode,
    /// Whether this child also scores the held-out selection quality
    /// and runs the checks that are pure functions of the seed. One
    /// child per run does; repeating them in every process would only
    /// repeat the same answer.
    pub thorough: bool,
    /// Where a traced child writes its Chrome trace.
    pub trace_path: Option<PathBuf>,
}

/// One correctness check's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Wall and CPU seconds of one timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, measuring wall-clock and process CPU time around it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let out = f();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = match (cpu_before, host::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    (out, Timed { wall_s, cpu_s })
}

/// What a workload hands back after its timed section and checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub timed: Timed,
    /// Operations completed in the timed section.
    pub ops: u64,
    /// Per-operation latencies in seconds (one per operation, or one per
    /// chunk of `decide` calls already divided by the chunk size).
    pub latencies_s: Vec<f64>,
    /// `quality_pct`, when this child computed it.
    pub quality_pct: Option<f64>,
    /// Seconds spent outside the timed section that are not set-up
    /// (what only the thorough child does, layer probes): kept out of
    /// `setup_s`, so it compares across a run's children.
    pub excluded_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub layers: BTreeMap<String, f64>,
    pub exact: BTreeMap<String, String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Records a value that must repeat exactly for one seed; it is also
    /// a layer metric.
    pub fn exact_layer(&mut self, name: &str, value: f64) {
        self.layer(name, value);
        self.exact.insert(name.to_string(), format!("{value:?}"));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }
}

/// A child's report: one JSON object on the last line of its stdout. A
/// non-finite metric travels as `null` and comes back as NaN, so the
/// driver reports it as broken instead of dropping it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    pub exact: BTreeMap<String, String>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
}

json_struct!(Check { name, ok, detail });
json_struct!(Report {
    e2e,
    layers,
    exact,
    checks,
    attempted,
    failed,
    samples
});

/// Runs one workload in this (fresh) process and assembles its report.
/// `process_start` is when `main` began, so `setup_s` covers everything
/// before and after the timed section. `oracle` is how the serving
/// workloads check answers (the failure injection passes a wrong one).
pub fn run_child(args: &ChildArgs, process_start: Instant, oracle: serve::Oracle) -> Report {
    set_thread_override(crate::sizes::POOL_WIDTH);
    let tracer = Tracer::new(args.mode != Mode::Plain, args.seed);
    let mut outcome = match args.workload {
        Workload::TuneCold if args.mode == Mode::Stages => tune::stages_and_walk(args, &tracer),
        Workload::TuneCold => tune::tune_cold(args, &tracer),
        Workload::RefitWarm => tune::refit_warm(args, &tracer),
        Workload::ServeCalm => serve::serve(args, &tracer, false, oracle),
        Workload::ServeBrownout => serve::serve(args, &tracer, true, oracle),
        Workload::ReplayCold => replay::replay(args, &tracer, false),
        Workload::ReplayWarm => replay::replay(args, &tracer, true),
    };
    if tracer.enabled() {
        let spans = tracer.spans().len();
        outcome.layer("bench.spans", spans as f64);
        // What the harness's own wrapper spans do not hand on to a
        // library call: loop bookkeeping and, for pooled work, idle time.
        outcome.layer("bench.self_s", tracer.layer_self_s("bench"));
        if let Some(path) = &args.trace_path {
            let written = std::fs::write(path, tracer.chrome_trace().to_string_compact());
            outcome.check(
                "the Chrome trace is written",
                written.is_ok(),
                format!("{spans} spans to {}", path.display()),
            );
        }
    }

    let ops = outcome.ops.max(1) as f64;
    let sorted = stats::sorted(&outcome.latencies_s);
    let mut e2e = BTreeMap::new();
    if !sorted.is_empty() {
        let untimed = process_start.elapsed().as_secs_f64() - outcome.timed.wall_s;
        e2e.insert("setup_s".to_string(), untimed - outcome.excluded_s);
        e2e.insert(
            "op_p50_us".to_string(),
            stats::percentile(&sorted, 0.5) * 1e6,
        );
        e2e.insert(
            "op_tail_us".to_string(),
            stats::percentile(&sorted, args.workload.tail_quantile()) * 1e6,
        );
        e2e.insert("ops_per_s".to_string(), ops / outcome.timed.wall_s);
        e2e.insert("cpu_us_per_op".to_string(), outcome.timed.cpu_s * 1e6 / ops);
        if let Some(q) = outcome.quality_pct {
            e2e.insert("quality_pct".to_string(), q);
        }
        // Read last, so it covers the whole process.
        e2e.insert(
            "peak_rss_mb".to_string(),
            host::peak_rss_mb().unwrap_or(f64::NAN),
        );
    }
    Report {
        e2e,
        layers: outcome.layers,
        exact: outcome.exact,
        checks: outcome.checks,
        attempted: outcome.attempted,
        failed: outcome.failed,
        samples: sorted.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why too long", w.name());
        }
        assert_eq!(Workload::parse("tune"), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = Report {
            attempted: 12,
            failed: 1,
            samples: 3,
            ..Report::default()
        };
        report.e2e.insert("op_p50_us".to_string(), 1.5);
        report.layers.insert("estim.memo_hits".to_string(), 7.0);
        report
            .exact
            .insert("model_digest".to_string(), "00ff".to_string());
        report.checks.push(Check::new("c", false, "why"));
        use crate::surface::{FromJson, Json, ToJson};
        let text = report.to_json().to_string_compact();
        let back = Report::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, report);
    }
}
