//! `colltune` — tune the model-based collective selector for a cluster
//! and query it, the way a site administrator would deploy the paper's
//! method.
//!
//! ```text
//! colltune tune  [--preset grisou|gros | --nodes N --gbps G --latency-us L
//!                 --cpus-per-node C] [--tune-p P] [--paper] [--seed N] --out model.json
//! colltune query --model model.json --p P --m BYTES [--m BYTES]... [--collective NAME]...
//! colltune show  --model model.json
//! ```
//!
//! `tune` runs the full estimation pipeline (γ then per-algorithm α/β)
//! on the simulated platform and writes the tuned model as JSON;
//! `query` loads a model and prints the runtime selections (broadcast
//! unless `--collective` names others); `show` prints the estimated
//! parameter tables; `export` renders an Open MPI dynamic-rules file
//! (one block per tuned collective) usable with a *real* Open MPI
//! installation via
//! `--mca coll_tuned_use_dynamic_rules 1
//!  --mca coll_tuned_dynamic_rules_filename <file>`.

use collsel::coll::Collective;
use collsel::estim::RetryPolicy;
use collsel::netsim::{ClusterModel, FaultPlan, NoiseParams, SimSpan};
use collsel::select::{
    deployment_msg_sizes, DecisionServer, DecisionSource, ServerConfig, DEPLOYMENT_COMM_SIZES,
};
use collsel::{TunedModel, Tuner, TunerConfig};
use collsel_expt::replay::{
    comparison_csv, comparison_json, degradation_pct, memo_json, score_policies, ReplayPolicy,
};
use collsel_expt::soak::{run_soak, SoakConfig};
use collsel_expt::workload::{Trace, TraceGen, TracePreset};
use collsel_support::{FromJson, Json, JsonError, ToJson};
use std::process::ExitCode;

const USAGE: &str = "usage:
  colltune tune   [--preset grisou|gros | --nodes N --gbps G --latency-us L --cpus-per-node C]
                  [--tune-p P] [--paper] [--seed N] [--faults SPEC] [-j N | --threads N]
                  [--collective NAME]... --out model.json
  colltune query  --model model.json --p P --m BYTES [--m BYTES]...
                  [--collective NAME]...
  colltune show   --model model.json
  colltune export --model model.json --out rules.conf [--comm-sizes A,B,...]
  colltune serve  [--preset grisou|gros] [--tune-p P] [--queries N] [--threads N]
                  [--refits N] [--poison-every N] [--seed N] [--faults SPEC]
                  [--journal FILE] [--json FILE]
  colltune replay [--model model.json] (--trace trace.json | --gen dp|pp)
                  [--preset grisou|gros] [--world N] [--steps N] [--seed N]
                  [--selector fixed|tuned|worst|server|all]... [--json FILE] [--csv FILE]

fault specs (NAME or NAME:SEED): none, degraded-link, straggler, brownout, spike, chaos
--collective: a collective to tune/query (repeatable): bcast, reduce,
allreduce, gather, scatter, allgather, alltoall, or `all`; tune runs a breadth
campaign per listed collective beyond broadcast, query serves the listed
collectives (default: bcast)
-j/--threads: worker threads for the tuning campaign (default: COLLSEL_THREADS
or the host's available parallelism); any thread count yields bit-identical models
serve: soak the fault-tolerant decision server — tune a boot generation, then
drive seeded mixed query/refit traffic under the fault plan with hot swaps,
health-gated refits (every --poison-every'th is poisoned and must be rejected),
and post-hoc invariant validation; with --journal the run also demonstrates
crash-only recovery by rebuilding the server from the journalled last-good
generation afterwards; --json writes the soak report
replay: replay a training-job trace of mixed collectives on overlapping rank
groups end-to-end through the simulator and score selection policies by total
job completion time (JCT); --gen synthesises a seeded data-parallel (dp) or
pipeline-parallel (pp) trace instead of reading --trace; --selector picks the
policies to compare (default: fixed alone, or tuned+fixed+worst with --model;
`server` drives a live decision server with one lookup per call); JCT is
bit-identical at any thread count";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "tune" => cmd_tune(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "show" => cmd_show(&args[1..]),
        "export" => cmd_export(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Validates the whole argv of a subcommand against its flag set: every
/// token must be a known value-taking flag (which consumes the next
/// token), a known boolean flag, or a consumed value. A typo like
/// `--segsize` must abort with an error naming the flag, not silently
/// change results.
fn validate_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            if i + 1 >= args.len() {
                return Err(format!("flag {arg} requires a value"));
            }
            i += 2;
        } else if bool_flags.contains(&arg) {
            i += 1;
        } else if arg.starts_with('-') {
            let mut known: Vec<&str> = value_flags.iter().chain(bool_flags).copied().collect();
            known.sort_unstable();
            return Err(format!(
                "unknown flag `{arg}` (valid flags: {})",
                known.join(", ")
            ));
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Parses the repeated `--collective` flag: collective names or the
/// shorthand `all`, deduplicated in first-seen order. Broadcast alone
/// when the flag is absent (the paper's pipeline).
fn parse_collectives(args: &[String]) -> Result<Vec<Collective>, String> {
    let mut out: Vec<Collective> = Vec::new();
    for value in flag_values(args, "--collective") {
        if value == "all" {
            for c in Collective::ALL {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        } else {
            let c: Collective = parse(value, "collective")?;
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
    if out.is_empty() {
        out.push(Collective::Bcast);
    }
    Ok(out)
}

fn cmd_tune(args: &[String]) -> Result<(), String> {
    validate_flags(
        args,
        &[
            "--preset",
            "--nodes",
            "--gbps",
            "--latency-us",
            "--cpus-per-node",
            "--tune-p",
            "--seed",
            "--faults",
            "--out",
            "--threads",
            "-j",
            "--collective",
        ],
        &["--paper"],
    )?;
    let cluster = match flag_value(args, "--preset") {
        Some("grisou") => ClusterModel::grisou(),
        Some("gros") => ClusterModel::gros(),
        Some(other) => return Err(format!("unknown preset `{other}`")),
        None => {
            let nodes: usize = parse(
                flag_value(args, "--nodes").ok_or("--nodes or --preset required")?,
                "node count",
            )?;
            let gbps: f64 = parse(flag_value(args, "--gbps").unwrap_or("10"), "bandwidth")?;
            let lat: u64 = parse(flag_value(args, "--latency-us").unwrap_or("30"), "latency")?;
            let cpus: usize = parse(
                flag_value(args, "--cpus-per-node").unwrap_or("1"),
                "cpus per node",
            )?;
            if nodes == 0 {
                return Err("--nodes must be at least 1".into());
            }
            if cpus == 0 {
                return Err("--cpus-per-node must be at least 1".into());
            }
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(format!("--gbps must be positive, got {gbps}"));
            }
            ClusterModel::builder("custom", nodes)
                .cpus_per_node(cpus)
                .bandwidth_gbps(gbps)
                .wire_latency(SimSpan::from_micros(lat))
                .build()
        }
    };
    let tune_p: usize = match flag_value(args, "--tune-p") {
        Some(s) => parse(s, "tune-p")?,
        None => (cluster.max_ranks() / 2).max(2),
    };
    check_tune_p(tune_p, &cluster)?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse(s, "seed")?,
        None => 0xC0115E1,
    };
    let out = flag_value(args, "--out").ok_or("--out required")?;

    if let Some(s) = flag_value(args, "--threads").or_else(|| flag_value(args, "-j")) {
        let n: usize = parse(s, "thread count")?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        collsel_support::pool::set_thread_override(n);
    }

    let mut config = if args.iter().any(|a| a == "--paper") {
        TunerConfig::paper(tune_p)
    } else {
        TunerConfig::quick(tune_p)
    };
    config.seed = seed;

    let faults = match flag_value(args, "--faults") {
        Some(spec) => Some(FaultPlan::parse(spec, cluster.nodes())?),
        None => None,
    };
    let collectives = parse_collectives(args)?;

    eprintln!(
        "[colltune] tuning {} ({} slots) with {} experiment processes on {} threads...",
        cluster.name(),
        cluster.max_ranks(),
        tune_p,
        collsel_support::pool::current_threads()
    );
    if collectives != [Collective::Bcast] {
        let names: Vec<&str> = collectives.iter().map(|c| c.name()).collect();
        eprintln!(
            "[colltune] breadth campaign over {} collective(s): {}",
            collectives.len(),
            names.join(", ")
        );
    }
    let model = match faults {
        Some(plan) if !plan.is_none() => {
            eprintln!("[colltune] injecting faults: {plan}");
            let cluster = cluster.with_faults(plan);
            let report = Tuner::new(cluster, config)
                .try_tune_collectives(&collectives, Some(&RetryPolicy::default()))
                .map_err(|e| format!("tuning failed under the fault plan: {e}"))?;
            for (alg, why) in &report.skipped {
                eprintln!("[colltune] skipped {:<22} {why}", alg.qualified_name());
            }
            for (alg, verdict) in report.model.multi_validity() {
                if !verdict.is_valid() {
                    eprintln!(
                        "[colltune] suspect {:<22} fit is {verdict}",
                        alg.qualified_name()
                    );
                }
            }
            if report.is_complete() {
                eprintln!("[colltune] all algorithms fitted despite the faults");
            }
            report.model
        }
        _ => Tuner::new(cluster, config).tune_collectives(&collectives),
    };
    std::fs::write(out, model.to_json().to_string_pretty())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("[colltune] model written to {out}");
    if let Some(mib) = peak_rss_mib() {
        eprintln!("[colltune] peak RSS {mib} MiB");
    }
    print_tables(&model);
    Ok(())
}

/// Checks an experiment process count against the cluster it runs on.
fn check_tune_p(tune_p: usize, cluster: &ClusterModel) -> Result<(), String> {
    if tune_p < 2 {
        return Err(format!(
            "--tune-p must be at least 2 (an experiment needs two processes), got {tune_p}"
        ));
    }
    if tune_p > cluster.max_ranks() {
        return Err(format!(
            "--tune-p {tune_p} exceeds the {} process slots of cluster {}",
            cluster.max_ranks(),
            cluster.name()
        ));
    }
    Ok(())
}

/// This process's peak resident set size in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file is unreadable.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib.div_ceil(1024))
}

fn load_model(args: &[String]) -> Result<TunedModel, String> {
    load_json(flag_value(args, "--model").ok_or("--model required")?)
}

/// Reads and decodes one JSON input file; every error names the file.
fn load_json<T: FromJson>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parse_error = |e: JsonError| format!("cannot parse {path}: {e}");
    T::from_json(&Json::parse(&text).map_err(parse_error)?).map_err(parse_error)
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    validate_flags(args, &["--model", "--p", "--m", "--collective"], &[])?;
    let p: usize = parse(flag_value(args, "--p").ok_or("--p required")?, "p")?;
    if p == 0 {
        return Err("--p must be at least 1".into());
    }
    let model = load_model(args)?;
    let sizes = flag_values(args, "--m");
    if sizes.is_empty() {
        return Err("at least one --m required".into());
    }
    let collectives = parse_collectives(args)?;
    let selector = model.multi_selector();
    println!(
        "selections for {} at P = {p} ({} collective(s) tuned):",
        model.cluster_name,
        model.tuned_collectives().len()
    );
    for &c in &collectives {
        println!("{}:", c.name());
        for s in &sizes {
            let m: usize = parse(s, "message size")?;
            let d = selector.decide(c, p, m);
            let alg = d.selection.alg.qualified_name();
            match d.source {
                DecisionSource::Model { predicted } => {
                    let next = match selector.ranking(c, p, m).get(1) {
                        Some(&(next, t)) => format!("; next: {} at {:.3} ms", next.name(), t * 1e3),
                        None => String::new(),
                    };
                    let ms = predicted * 1e3;
                    println!("  m = {m:>9} B -> {alg:<22} (predicted {ms:.3} ms{next})");
                }
                DecisionSource::Fallback { reason } => {
                    println!("  m = {m:>9} B -> {alg:<22} (fixed rules: {reason})");
                }
            }
        }
    }
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    validate_flags(args, &["--model"], &[])?;
    let model = load_model(args)?;
    print_tables(&model);
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    validate_flags(args, &["--model", "--out", "--comm-sizes"], &[])?;
    let out = flag_value(args, "--out").ok_or("--out required")?;
    let comm_sizes = parse_comm_sizes(args)?;
    let model = load_model(args)?;
    let rules = model
        .compiled_multi_selector(&comm_sizes, &deployment_msg_sizes())
        .to_ompi_rules();
    std::fs::write(out, rules).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "[colltune] Open MPI dynamic rules for {} written to {out}",
        model.cluster_name
    );
    eprintln!(
        "[colltune] use with: mpirun --mca coll_tuned_use_dynamic_rules 1 \
         --mca coll_tuned_dynamic_rules_filename {out} ..."
    );
    Ok(())
}

/// The deployment comm-size grid: `--comm-sizes A,B,...` or
/// [`DEPLOYMENT_COMM_SIZES`].
fn parse_comm_sizes(args: &[String]) -> Result<Vec<usize>, String> {
    match flag_value(args, "--comm-sizes") {
        Some(list) => {
            let mut v = Vec::new();
            for part in list.split(',') {
                let p: usize = parse(part.trim(), "communicator size")?;
                if p == 0 {
                    return Err("--comm-sizes entries must be at least 1".into());
                }
                v.push(p);
            }
            v.sort_unstable();
            v.dedup();
            Ok(v)
        }
        None => Ok(DEPLOYMENT_COMM_SIZES.to_vec()),
    }
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    validate_flags(
        args,
        &[
            "--model",
            "--trace",
            "--gen",
            "--preset",
            "--world",
            "--steps",
            "--seed",
            "--selector",
            "--json",
            "--csv",
        ],
        &[],
    )?;
    let cluster = match flag_value(args, "--preset") {
        Some("grisou") => ClusterModel::grisou(),
        Some("gros") | None => ClusterModel::gros(),
        Some(other) => return Err(format!("unknown preset `{other}`")),
    };
    let seed: u64 = parse(flag_value(args, "--seed").unwrap_or("42"), "seed")?;
    let trace = match (flag_value(args, "--trace"), flag_value(args, "--gen")) {
        (Some(_), Some(_)) => {
            return Err("--trace and --gen are mutually exclusive".into());
        }
        (Some(path), None) => {
            let trace: Trace = load_json(path)?;
            trace
                .validate()
                .map_err(|e| format!("invalid trace {path}: {e}"))?;
            trace
        }
        (None, Some(spec)) => {
            let preset = TracePreset::parse(spec)
                .ok_or_else(|| format!("unknown trace preset `{spec}` (dp or pp)"))?;
            let world: usize = match flag_value(args, "--world") {
                Some(s) => parse(s, "world size")?,
                None => match preset {
                    TracePreset::DataParallel => 12,
                    TracePreset::Pipeline => 8,
                },
            };
            if world < 2 {
                return Err("--world must be at least 2".into());
            }
            let steps: usize = parse(flag_value(args, "--steps").unwrap_or("8"), "step count")?;
            if steps == 0 {
                return Err("--steps must be at least 1".into());
            }
            TraceGen {
                preset,
                world,
                steps,
                seed,
            }
            .generate()
        }
        (None, None) => return Err("--trace FILE or --gen dp|pp required".into()),
    };
    if trace.world > cluster.max_ranks() {
        return Err(format!(
            "trace `{}` needs {} ranks but {} supports at most {}",
            trace.name,
            trace.world,
            cluster.name(),
            cluster.max_ranks()
        ));
    }

    let model = match flag_value(args, "--model") {
        Some(path) => Some(load_json::<TunedModel>(path)?),
        None => None,
    };
    let mut names: Vec<&str> = Vec::new();
    for v in flag_values(args, "--selector") {
        let expand: &[&str] = match v {
            "all" => &["fixed", "tuned", "worst", "server"],
            "fixed" => &["fixed"],
            "tuned" => &["tuned"],
            "worst" => &["worst"],
            "server" => &["server"],
            other => {
                return Err(format!(
                    "unknown selector `{other}` (fixed, tuned, worst, server, all)"
                ))
            }
        };
        for n in expand {
            if !names.contains(n) {
                names.push(n);
            }
        }
    }
    if names.is_empty() {
        names = if model.is_some() {
            vec!["tuned", "fixed", "worst"]
        } else {
            vec!["fixed"]
        };
    }
    let selector = model.as_ref().map(|m| m.multi_selector());
    let server = if names.contains(&"server") {
        let m = model.as_ref().ok_or("--selector server needs --model")?;
        Some(DecisionServer::new(
            &m.multi_selector(),
            &m.cluster_name,
            ServerConfig::default(),
        ))
    } else {
        None
    };
    let mut policies = Vec::new();
    for n in &names {
        policies.push(match *n {
            "fixed" => ReplayPolicy::Fixed,
            "tuned" => {
                ReplayPolicy::Tuned(selector.as_ref().ok_or("--selector tuned needs --model")?)
            }
            "worst" => {
                ReplayPolicy::Worst(selector.as_ref().ok_or("--selector worst needs --model")?)
            }
            "server" => {
                ReplayPolicy::Server(server.as_ref().ok_or("--selector server needs --model")?)
            }
            _ => unreachable!("selector names validated above"),
        });
    }

    eprintln!(
        "[colltune] replaying `{}` on {}: {} steps / {} calls over {} groups...",
        trace.name,
        cluster.name(),
        trace.steps.len(),
        trace.total_calls(),
        trace.groups.len()
    );
    let outcomes = score_policies(&cluster, &trace, &policies, seed)
        .map_err(|e| format!("replay failed: {e}"))?;
    let best = outcomes
        .iter()
        .min_by_key(|o| o.jct_ns)
        .cloned()
        .ok_or("no policies to replay")?;
    println!(
        "JCT comparison for `{}` on {} ({} steps):",
        trace.name,
        cluster.name(),
        trace.steps.len()
    );
    for o in &outcomes {
        println!(
            "  {:<7} {:>12.3} ms  (+{:.2}% vs best; {} lookups, {} messages, {} bytes)",
            o.selector,
            o.jct_s * 1e3,
            degradation_pct(o, &best),
            o.lookups,
            o.messages,
            o.bytes
        );
    }
    println!("best: {}", best.selector);
    if let Some(path) = flag_value(args, "--json") {
        let mut json = comparison_json(cluster.name(), &outcomes);
        if let collsel_support::Json::Obj(fields) = &mut json {
            fields.push(("memo".into(), memo_json()));
        }
        collsel_support::json::write_artifact(path, &json)?;
        eprintln!("[colltune] JCT comparison written to {path}");
    }
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, comparison_csv(&outcomes))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[colltune] CSV written to {path}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    validate_flags(
        args,
        &[
            "--preset",
            "--tune-p",
            "--queries",
            "--threads",
            "--refits",
            "--poison-every",
            "--seed",
            "--faults",
            "--journal",
            "--json",
        ],
        &[],
    )?;
    let mut config = SoakConfig::quick();
    match flag_value(args, "--preset") {
        Some("grisou") => config.cluster = ClusterModel::grisou().with_noise(NoiseParams::OFF),
        Some("gros") | None => {}
        Some(other) => return Err(format!("unknown preset `{other}`")),
    }
    if let Some(s) = flag_value(args, "--tune-p") {
        config.tune_p = parse(s, "tune-p")?;
    }
    check_tune_p(config.tune_p, &config.cluster)?;
    if let Some(s) = flag_value(args, "--queries") {
        config.queries = parse(s, "query count")?;
    }
    if let Some(s) = flag_value(args, "--threads") {
        config.threads = parse(s, "thread count")?;
        if config.threads == 0 {
            return Err("--threads must be at least 1".into());
        }
    }
    if let Some(s) = flag_value(args, "--refits") {
        config.refits = parse(s, "refit count")?;
    }
    if let Some(s) = flag_value(args, "--poison-every") {
        config.poison_every = parse(s, "poison period")?;
    }
    if let Some(s) = flag_value(args, "--seed") {
        config.seed = parse(s, "seed")?;
    }
    if let Some(spec) = flag_value(args, "--faults") {
        config.server.faults = FaultPlan::parse(spec, config.cluster.nodes())?;
    }
    let journal = flag_value(args, "--journal");
    if let Some(path) = journal {
        config.server.journal = Some(std::path::PathBuf::from(path));
    }

    eprintln!(
        "[colltune] soaking the decision server on {}: {} queries / {} readers, \
         {} refits (every {} poisoned), faults: {}",
        config.cluster.name(),
        config.queries,
        config.threads,
        config.refits,
        if config.poison_every == 0 {
            "none".to_string()
        } else {
            format!("{}th", config.poison_every)
        },
        config.server.faults
    );
    let report = run_soak(&config);
    println!(
        "served {} queries in {:.2}s ({:.0} queries/s sustained, p99 {} ns)",
        report.queries, report.duration_s, report.qps, report.p99_latency_ns
    );
    println!(
        "hot swaps: {} installed (mean {:.0} ns, worst {} ns); refits rejected \
         by the health gate: {}",
        report.swaps, report.swap_nanos_mean, report.swap_nanos_max, report.rejected_refits
    );
    println!(
        "fallbacks: {} ({:.2}% of answers; {} previous-generation, {} rules-after-timeout, \
         {} rules-uncovered)",
        report.fallbacks,
        100.0 * report.fallback_rate,
        report.stats.served_previous_timeout,
        report.stats.served_rules_timeout,
        report.stats.served_rules_uncovered
    );
    if let Some(path) = flag_value(args, "--json") {
        collsel_support::json::write_artifact(path, &collsel_support::ToJson::to_json(&report))?;
        eprintln!("[colltune] soak report written to {path}");
    }

    // With a journal, demonstrate crash-only recovery: rebuild a server
    // from the journalled last-good generation, with no shutdown
    // handshake, and check it resumes at the final installed version.
    if journal.is_some() {
        let recovered = DecisionServer::recover(config.server.clone())
            .map_err(|e| format!("journal recovery failed: {e}"))?;
        let expected = 1 + report.swaps;
        if recovered.version() != expected {
            return Err(format!(
                "journal recovery resumed at generation {} instead of {expected}",
                recovered.version()
            ));
        }
        let probe = recovered.decide(Collective::Bcast, 16, 64 * 1024);
        println!(
            "journal recovery: resumed at generation {} (probe answer {} from epoch {})",
            recovered.version(),
            probe.selection.alg.qualified_name(),
            probe.epoch
        );
    }

    if !report.passed() {
        for v in &report.violations {
            eprintln!("[colltune] INVARIANT VIOLATION: {v}");
        }
        return Err(format!(
            "soak failed with {} invariant violation(s)",
            report.violations.len()
        ));
    }
    println!("soak invariants: all held (zero torn or unattributed answers)");
    Ok(())
}

fn print_tables(model: &TunedModel) {
    println!("cluster: {}", model.cluster_name);
    println!("gamma(P):");
    for (p, g) in model.gamma.table.pairs() {
        println!("  {p}: {g:.3}");
    }
    println!("per-algorithm parameters:");
    for (alg, h) in model.multi_hockney_table() {
        println!("  {:<22} {}", alg.qualified_name(), h);
    }
}
