//! `collsel-benchmark`: one end-to-end, layer-attributed benchmark for
//! the tune → serve → replay journey. See README.md.
//!
//! The driver process only orchestrates: every workload run executes in
//! fresh child processes (this binary re-executed with `--child`),
//! because the library's DAG memo and payload store are process-global
//! with no way to clear them — a new process is the only honest cold
//! state, and it is what a `colltune` user gets.

mod host;
mod metrics;
mod probes;
mod sizes;
mod stats;
mod surface;
mod trace;
mod workloads;

use metrics::{Better, Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use surface::{FromJson, Json, ToJson};
use workloads::{Check, ChildArgs, Mode, Report, Workload};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 5.0;
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "\
usage: collsel-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--runs K]
       collsel-benchmark --all [--seed N] [--seconds S] [--runs K]
       collsel-benchmark --check-repeat [--seed N] [--seconds S] [--runs K]
       collsel-benchmark --spread N [--workload NAME] [--seed N] [--seconds S]
       collsel-benchmark --list

  --workload NAME   one workload; the last stdout line is the result as JSON
  --trace 1         the traced run: per-layer metrics and a Chrome trace
  --all             every workload, untraced then traced; writes results.json
  --check-repeat    the whole suite twice; fails unless the two agree
  --spread N        N untraced runs per workload, each with another seed; prints
                    every metric's interquartile distance as a share of its median
  --runs K          fresh child processes per workload run (default 5)
  --inject oracle   failure injection: check answers against a wrong oracle
  --list            workload and metric names";

#[derive(Debug)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    all: bool,
    check_repeat: bool,
    spread: Option<usize>,
    list: bool,
    inject_oracle: bool,
    // Child-only flags.
    child: bool,
    budget_s: f64,
    mode: Mode,
    thorough: bool,
    trace_path: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: None,
        all: false,
        check_repeat: false,
        spread: None,
        list: false,
        inject_oracle: false,
        child: false,
        budget_s: 0.0,
        mode: Mode::Plain,
        thorough: false,
        trace_path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cli.seed = number(flag, value()?)?,
            "--seconds" => cli.seconds = number(flag, value()?)?,
            "--runs" => cli.runs = Some(number(flag, value()?)?),
            "--trace" => cli.trace = number::<u8>(flag, value()?)? != 0,
            "--thorough" => cli.thorough = number::<u8>(flag, value()?)? != 0,
            "--budget-s" => cli.budget_s = number(flag, value()?)?,
            "--mode" => {
                let name = value()?;
                cli.mode = Mode::parse(name).ok_or_else(|| format!("unknown mode `{name}`"))?;
            }
            "--trace-path" => cli.trace_path = Some(PathBuf::from(value()?)),
            "--inject" => match value()? {
                "oracle" => cli.inject_oracle = true,
                other => return Err(format!("unknown injection `{other}`")),
            },
            "--all" => cli.all = true,
            "--check-repeat" => cli.check_repeat = true,
            "--spread" => cli.spread = Some(number(flag, value()?)?),
            "--list" => cli.list = true,
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    if cli.runs == Some(0) {
        return Err("--runs must be at least 1".to_string());
    }
    if cli.spread.is_some_and(|n| n < 2) {
        return Err("--spread needs at least 2 runs".to_string());
    }
    Ok(cli)
}

/// Where results and traces go: the cargo target directory this binary
/// was built into (`target/benchmark` with the README's build command).
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// Runs one child process and parses the report on its last stdout line.
fn spawn_child(cli: &Cli, args: &ChildArgs) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--budget-s", &args.budget_s.to_string()])
        .args(["--mode", args.mode.name()])
        .args(["--thorough", if args.thorough { "1" } else { "0" }]);
    if let Some(path) = &args.trace_path {
        command.arg("--trace-path").arg(path);
    }
    if cli.inject_oracle {
        command.args(["--inject", "oracle"]);
    }
    let output = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child `{} {}` ended with {}",
            args.workload.name(),
            args.mode.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed no report")?;
    let json = Json::parse(last).map_err(|e| format!("child report is not JSON: {e}"))?;
    Report::from_json(&json).map_err(|e| format!("child report is malformed: {e}"))
}

/// Median, quartiles and count of one metric over a run's children.
#[derive(Debug, Clone)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

impl Summary {
    fn of(values: Vec<f64>) -> Summary {
        let [q1, _, q3] = if values.len() >= 2 {
            stats::quartiles(&values)
        } else {
            [values[0]; 3]
        };
        Summary {
            median: stats::median(&values),
            q1,
            q3,
            values,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.values.len() as f64)),
            ("values", self.values.to_json()),
        ])
    }
}

/// One workload run (untraced or traced), aggregated over its children.
#[derive(Debug)]
struct RunResult {
    workload: Workload,
    traced: bool,
    seed: u64,
    seconds: f64,
    e2e: BTreeMap<String, Summary>,
    layers: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
    samples: u64,
    wall_s: f64,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Merges the values that must repeat exactly; children of one run get
/// the same seed, so a disagreement is itself a failed check.
fn merge_exact(into: &mut BTreeMap<String, String>, from: &Report, checks: &mut Vec<Check>) {
    for (key, value) in &from.exact {
        match into.get(key) {
            Some(seen) if seen != value => checks.push(Check::new(
                "children of one run agree on exact values",
                false,
                format!("{key}: {seen} vs {value}"),
            )),
            Some(_) => {}
            None => {
                into.insert(key.clone(), value.clone());
            }
        }
    }
}

fn run_workload(
    cli: &Cli,
    workload: Workload,
    traced: bool,
    seed: u64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let out = out_dir();
    // A traced run is one untraced child (the overhead reference) and
    // one traced child; `tune-cold` adds the stage-by-stage child.
    let plan: Vec<(Mode, bool, Option<PathBuf>)> = if traced {
        let mut plan = vec![
            (Mode::Plain, false, None),
            (
                Mode::Traced,
                true,
                Some(out.join(format!("trace-{}.json", workload.name()))),
            ),
        ];
        if workload == Workload::TuneCold {
            let path = out.join(format!("trace-{}-stages.json", workload.name()));
            plan.push((Mode::Stages, false, Some(path)));
        }
        plan
    } else {
        (0..cli.runs.unwrap_or(sizes::RUNS))
            .map(|i| (Mode::Plain, i == 0, None))
            .collect()
    };
    // `--seconds` is shared out evenly over the children that time a loop.
    let timed_children = plan.iter().filter(|(m, ..)| *m != Mode::Stages).count();
    let budget_s = cli.seconds / timed_children as f64;

    let mut reports = Vec::new();
    for (mode, thorough, trace_path) in plan {
        let args = ChildArgs {
            workload,
            seed,
            budget_s,
            mode,
            thorough,
            trace_path,
        };
        reports.push((mode, spawn_child(cli, &args)?));
    }

    let mut result = RunResult {
        workload,
        traced,
        seed,
        seconds: cli.seconds,
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        exact: BTreeMap::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
        samples: 0,
        wall_s: 0.0,
    };
    for (_, report) in &reports {
        merge_exact(&mut result.exact, report, &mut result.checks);
        // Every child runs the same checks: keep each passing one once,
        // and every failure.
        for check in &report.checks {
            if !check.ok || !result.checks.iter().any(|c| c.name == check.name) {
                result.checks.push(check.clone());
            }
        }
        result.attempted += report.attempted;
        result.failed += report.failed;
        result.samples += report.samples;
    }
    if traced {
        for (_, report) in &reports {
            result.layers.extend(report.layers.clone());
        }
        let p50 = |mode: Mode| {
            reports
                .iter()
                .find(|(m, _)| *m == mode)
                .and_then(|(_, r)| r.e2e.get("op_p50_us").copied())
                .unwrap_or(f64::NAN)
        };
        let (plain, with_spans) = (p50(Mode::Plain), p50(Mode::Traced));
        result.layers.insert(
            "bench.trace_overhead_pct".to_string(),
            100.0 * (with_spans - plain) / plain,
        );
        result
            .layers
            .insert("bench.traced_op_p50_us".to_string(), with_spans);
        result
            .layers
            .insert("bench.untraced_op_p50_us".to_string(), plain);
        // A layer the workload never enters spent no time and counted
        // nothing there.
        for m in &PER_LAYER {
            result.layers.entry(m.name.to_string()).or_insert(0.0);
        }
    } else {
        for m in &END_TO_END {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|(_, r)| r.e2e.get(m.name).copied())
                .collect();
            if values.is_empty() {
                return Err(format!("no child reported `{}`", m.name));
            }
            result.e2e.insert(m.name.to_string(), Summary::of(values));
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    Ok(result)
}

fn print_metric(m: &Metric, value: f64, extra: &str) {
    println!(
        "  {:<36} {:>16.6} {:<6} ({} is better){extra}",
        m.name,
        value,
        m.unit,
        m.better.name()
    );
}

fn print_run(run: &RunResult) {
    println!(
        "== {} [{}; seed {}; {} s; {}] — {}",
        run.workload.name(),
        if run.traced { "traced" } else { "untraced" },
        run.seed,
        run.seconds,
        run.workload.state(),
        run.workload.why()
    );
    if run.traced {
        for m in &PER_LAYER {
            print_metric(m, run.layers[m.name], "");
        }
    } else {
        for m in &END_TO_END {
            let s = &run.e2e[m.name];
            let extra = format!(
                "  quartiles [{:.6}, {:.6}] over {} processes",
                s.q1,
                s.q3,
                s.values.len()
            );
            print_metric(m, s.median, &extra);
        }
        println!(
            "  {:<36} {:>16.6} ratio  ({} failed of {} attempted; {} latency samples)",
            "failed_ops_share",
            run.failed_ops_share(),
            run.failed,
            run.attempted,
            run.samples
        );
    }
    for (key, value) in &run.exact {
        println!("  exact {key} = {value}");
    }
    for check in &run.checks {
        println!(
            "  [{}] {} — {}",
            if check.ok { "ok" } else { "FAILED" },
            check.name,
            check.detail
        );
    }
    println!("  (run took {:.1} s)", run.wall_s);
}

/// The contract's result line.
fn result_line(run: &RunResult) -> String {
    let catalogue: &[Metric] = if run.traced { &PER_LAYER } else { &END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|m| {
            let value = if run.traced {
                run.layers[m.name]
            } else {
                run.e2e[m.name].median
            };
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(run.correct())),
        ("attempted", Json::Num(run.attempted.max(1) as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn run_to_json(run: &RunResult) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(run.workload.name().to_string())),
        ("why", Json::Str(run.workload.why().to_string())),
        ("traced", Json::Bool(run.traced)),
        (
            "timed_section_state",
            Json::Str(run.workload.state().to_string()),
        ),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("correct", Json::Bool(run.correct())),
        ("ops_attempted", Json::Num(run.attempted as f64)),
        ("ops_failed", Json::Num(run.failed as f64)),
        ("failed_ops_share", Json::Num(run.failed_ops_share())),
        ("latency_samples", Json::Num(run.samples as f64)),
        ("wall_s", Json::Num(run.wall_s)),
        (
            "end_to_end",
            Json::Obj(
                run.e2e
                    .iter()
                    .map(|(k, s)| (k.clone(), s.to_json()))
                    .collect(),
            ),
        ),
        ("per_layer", run.layers.to_json()),
        ("exact", run.exact.to_json()),
        ("checks", run.checks.to_json()),
    ])
}

fn write_results(runs: &[RunResult]) -> Result<PathBuf, String> {
    let path = out_dir().join("results.json");
    let record = Json::obj(vec![
        ("benchmark", Json::Str("collsel-benchmark".to_string())),
        ("host", host::metadata()),
        ("sizes", sizes::record()),
        ("runs", Json::Arr(runs.iter().map(run_to_json).collect())),
    ]);
    std::fs::write(&path, record.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Every workload, untraced then traced.
fn run_suite(cli: &Cli) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let run = run_workload(cli, workload, traced, cli.seed)?;
            print_run(&run);
            runs.push(run);
        }
    }
    Ok(runs)
}

/// Whether `b` is worse than `a`, or `a` worse than `b`, by more than
/// the metric's bound.
fn beyond_bound(m: &Metric, a: f64, b: f64) -> bool {
    let bound = m.bound.unwrap_or(0.0);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match m.better {
        Better::Lower => hi > lo * (1.0 + bound),
        Better::Higher => lo < hi * (1.0 - bound),
    }
}

/// Runs the suite twice; exact values must be identical and every timed
/// end-to-end metric must agree within its own bound.
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    println!("# first pass");
    let first = run_suite(cli)?;
    println!("# second pass");
    let second = run_suite(cli)?;
    let mut ok = first.iter().chain(&second).all(RunResult::correct);
    println!("# repeatability");
    for (a, b) in first.iter().zip(&second) {
        let label = format!(
            "{} [{}]",
            a.workload.name(),
            if a.traced { "traced" } else { "untraced" }
        );
        if a.exact != b.exact || a.failed != b.failed {
            ok = false;
            println!("  [FAILED] {label}: exact values differ");
            for (key, value) in &a.exact {
                if b.exact.get(key) != Some(value) {
                    println!("      {key}: {value} vs {:?}", b.exact.get(key));
                }
            }
        } else {
            println!("  [ok] {label}: {} exact values identical", a.exact.len());
        }
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.e2e.get(m.name), b.e2e.get(m.name)) else {
                continue;
            };
            let apart = beyond_bound(m, x.median, y.median);
            ok &= !apart;
            println!(
                "  [{}] {label} {}: {:.6} vs {:.6} {} (bound {:.0} %)",
                if apart { "FAILED" } else { "ok" },
                m.name,
                x.median,
                y.median,
                m.unit,
                100.0 * m.bound.unwrap_or(0.0)
            );
        }
    }
    let path = write_results(&second)?;
    println!("results written to {}", path.display());
    Ok(ok)
}

/// The contract's steadiness check: `n` untraced runs of each workload,
/// each with another seed, and for every end-to-end metric the distance
/// between the first and third quartile of the `n` values as a share of
/// their median. A spread should stay below a third of the bound.
fn spread_report(cli: &Cli, n: usize) -> Result<bool, String> {
    let workloads = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for workload in workloads {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..n as u64 {
            let run = run_workload(cli, workload, false, cli.seed.wrapping_add(i))?;
            ok &= run.correct();
            for m in &END_TO_END {
                values
                    .entry(m.name)
                    .or_default()
                    .push(run.e2e[m.name].median);
            }
            println!("{} seed {}: {:.1} s", workload.name(), run.seed, run.wall_s);
        }
        println!("== {} over {n} seeds", workload.name());
        for m in &END_TO_END {
            let (spread, bound) = (stats::spread(&values[m.name]), m.bound.unwrap_or(0.0));
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound || m.name == "setup_s" {
                "within the bound, above a third of it"
            } else {
                ok = false;
                "BEYOND THE BOUND"
            };
            println!(
                "  {:<16} median {:>16.6} {:<4} spread {:>6.2} %  bound {:>3.0} %  {verdict}",
                m.name,
                stats::median(&values[m.name]),
                m.unit,
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<16} {}", w.name(), w.why());
    }
    println!("end-to-end metrics (tracing off):");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<6} {} is better, bound {:.0} %",
            m.name,
            m.unit,
            m.better.name(),
            100.0 * m.bound.unwrap_or(0.0)
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<6} {} is better",
            m.name,
            m.unit,
            m.better.name()
        );
    }
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cli.list {
        list();
        return Ok(true);
    }
    if cli.child {
        let workload = cli.workload.ok_or("--child needs --workload")?;
        let args = ChildArgs {
            workload,
            seed: cli.seed,
            budget_s: cli.budget_s,
            mode: cli.mode,
            thorough: cli.thorough,
            trace_path: cli.trace_path.clone(),
        };
        let oracle = if cli.inject_oracle {
            workloads::serve::Oracle::FixedRulesOnly
        } else {
            workloads::serve::Oracle::Registry
        };
        let report = workloads::run_child(&args, process_start, oracle);
        println!("{}", report.to_json().to_string_compact());
        return Ok(true);
    }
    if cli.check_repeat {
        return check_repeat(&cli);
    }
    if let Some(n) = cli.spread {
        return spread_report(&cli, n);
    }
    if cli.all {
        let runs = run_suite(&cli)?;
        let path = write_results(&runs)?;
        println!("results written to {}", path.display());
        return Ok(runs.iter().all(RunResult::correct));
    }
    let Some(workload) = cli.workload else {
        return Err(USAGE.to_string());
    };
    let run = run_workload(&cli, workload, cli.trace, cli.seed)?;
    print_run(&run);
    println!("{}", result_line(&run));
    Ok(run.correct())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("collsel-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_invocation_parses() {
        let c = cli(&[
            "--workload",
            "serve-calm",
            "--seed",
            "9",
            "--seconds",
            "4",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(c.workload, Some(Workload::ServeCalm));
        assert_eq!((c.seed, c.seconds, c.trace), (9, 4.0, true));
        assert_eq!(c.runs, None);
    }

    #[test]
    fn bad_arguments_are_rejected_by_name() {
        assert!(cli(&["--workload", "nope"]).unwrap_err().contains("nope"));
        assert!(cli(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--runs", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).unwrap_err().contains("--frobnicate"));
    }

    #[test]
    fn bounds_apply_in_the_direction_that_is_worse() {
        let lower = Metric {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.10),
        };
        assert!(!beyond_bound(&lower, 100.0, 109.0));
        assert!(beyond_bound(&lower, 100.0, 111.0));
        assert!(beyond_bound(&lower, 111.0, 100.0));
        let higher = Metric {
            better: Better::Higher,
            ..lower
        };
        assert!(!beyond_bound(&higher, 100.0, 91.0));
        assert!(beyond_bound(&higher, 100.0, 89.0));
    }

    #[test]
    fn summary_reports_median_and_quartiles() {
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let one = Summary::of(vec![5.0]);
        assert_eq!((one.q1, one.median, one.q3), (5.0, 5.0, 5.0));
    }
}
