//! Single-cell simulation throughput: dag vs events vs threads.
//!
//! A tuning campaign is tens of thousands of short simulation runs, so
//! the unit that decides campaign wall-clock is runs/second of one
//! cell. This bench records a broadcast into a [`Schedule`] once,
//! lowers it to a [`TimingDag`], then times all three execution tiers
//! on the same program: batched payload-free DAG evaluation, schedule
//! replay (the event-driven backend) and the thread-per-rank oracle.
//! It writes the rates plus both speedups to `BENCH_sim.json` at the
//! repository root.
//!
//! One-time costs are reported separately from steady-state
//! throughput: `record_s` (recording the schedule — a symbolic,
//! thread-free execution of every rank's program — plus lowering it
//! to the DAG) never pollutes the
//! replay-rate window, and `reps_per_compile` says how many DAG
//! evaluations one record+compile buys — the break-even batch size
//! beyond which the compiled tier is pure profit. `host_threads`
//! records the parallelism available to the run for context, since
//! the threaded oracle's rate depends on it.
//!
//! Like `campaign.rs`, this target skips the criterion harness: the
//! grid is explicit and the JSON artifact is the point. Set
//! `COLLSEL_BENCH_SMOKE=1` for the CI-sized run (smaller grid, shorter
//! timing windows); smoke mode asserts the dag backend is not slower
//! than events and events not slower than threads in any cell.

use collsel::coll::compile::compile_bcast;
use collsel::coll::{bcast, BcastAlg};
use collsel::mpi::{simulate_pooled, simulate_scheduled, DagEvaluator, SimOptions, TimingDag};
use collsel::netsim::ClusterModel;
use collsel_bench::quiet_cluster;
use collsel_support::payload::payload;
use collsel_support::Json;
use std::sync::Arc;
use std::time::Instant;

const SEG_SIZE: usize = 8 * 1024;
const ALG: BcastAlg = BcastAlg::Binomial;
const SEED: u64 = 0xBE7C;

/// Times `run` by doubling the batch size until the timed window is
/// long enough to trust, returning runs per second.
fn runs_per_sec(min_window_s: f64, mut run: impl FnMut(u64)) -> f64 {
    let mut batch = 1u64;
    let mut next_seed = 0u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            run(SEED.wrapping_add(next_seed));
            next_seed += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_window_s {
            return batch as f64 / elapsed;
        }
        batch *= 2;
    }
}

/// One (preset, P, m) cell: all three backends timed, the one-time
/// record+compile cost measured separately, plus a makespan
/// cross-check at a fixed seed.
fn bench_cell(cluster: &ClusterModel, p_requested: usize, m: usize, min_window_s: f64) -> Json {
    let p = p_requested.min(cluster.max_ranks());
    let root = 0;

    // One-time cost: record the schedule (symbolically, on this
    // thread) and lower it to the timing DAG. Timed apart from the
    // replay windows so compile time never masquerades as replay
    // throughput.
    let record_start = Instant::now();
    let sched =
        compile_bcast(cluster, ALG, p, root, m, SEG_SIZE).expect("broadcast records cleanly");
    let dag = Arc::new(TimingDag::compile(cluster, &sched).expect("schedule fits the DAG"));
    let record_s = record_start.elapsed().as_secs_f64();

    let msg = payload(m);

    // The backends must agree before their speeds are worth comparing.
    let mut evaluator = DagEvaluator::new(cluster, Arc::clone(&dag));
    let dag_run = evaluator
        .run(SEED, SimOptions::default())
        .expect("dag run completes");
    let replay = simulate_scheduled(cluster, &sched, SEED, SimOptions::default())
        .expect("replay run completes");
    let threaded = {
        let msg = msg.clone();
        simulate_pooled(cluster, p, SEED, SimOptions::default(), move |ctx| {
            let data = (ctx.rank() == root).then(|| msg.clone());
            bcast(ctx, ALG, root, data, m, SEG_SIZE);
        })
        .expect("threaded run completes")
    };
    assert_eq!(
        dag_run.report,
        replay.report,
        "dag and replay diverged at {} p={p} m={m}",
        cluster.name()
    );
    assert_eq!(
        replay.report.makespan,
        threaded.report.makespan,
        "backends diverged at {} p={p} m={m}",
        cluster.name()
    );

    let dag_rps = runs_per_sec(min_window_s, |seed| {
        let _ = evaluator
            .run(seed, SimOptions::default())
            .expect("dag run completes");
    });
    let events_rps = runs_per_sec(min_window_s, |seed| {
        let _ = simulate_scheduled(cluster, &sched, seed, SimOptions::default())
            .expect("replay run completes");
    });
    let threads_rps = runs_per_sec(min_window_s, |seed| {
        let msg = msg.clone();
        let _ = simulate_pooled(cluster, p, seed, SimOptions::default(), move |ctx| {
            let data = (ctx.rank() == root).then(|| msg.clone());
            bcast(ctx, ALG, root, data, m, SEG_SIZE);
        })
        .expect("threaded run completes");
    });
    let speedup = events_rps / threads_rps;
    let dag_speedup = dag_rps / events_rps;
    // How many steady-state DAG evaluations the one-time record+compile
    // cost is worth: past this batch size the compiled tier amortises.
    let reps_per_compile = record_s * dag_rps;
    println!(
        "  {:<6} p={p:>3} (requested {p_requested:>3}) m={m:>7}: \
         dag {dag_rps:>10.1}/s, events {events_rps:>9.1}/s, threads {threads_rps:>8.1}/s, \
         ev/th {speedup:.1}x, dag/ev {dag_speedup:.1}x, \
         record {:.1}ms ({reps_per_compile:.0} reps)",
        cluster.name(),
        record_s * 1e3,
    );

    Json::Obj(vec![
        ("preset".to_owned(), Json::Str(cluster.name().to_owned())),
        ("p_requested".to_owned(), Json::Num(p_requested as f64)),
        ("p".to_owned(), Json::Num(p as f64)),
        ("m".to_owned(), Json::Num(m as f64)),
        ("dag_runs_per_s".to_owned(), Json::Num(dag_rps)),
        ("events_runs_per_s".to_owned(), Json::Num(events_rps)),
        ("threads_runs_per_s".to_owned(), Json::Num(threads_rps)),
        ("record_s".to_owned(), Json::Num(record_s)),
        ("reps_per_compile".to_owned(), Json::Num(reps_per_compile)),
        ("speedup".to_owned(), Json::Num(speedup)),
        ("dag_speedup".to_owned(), Json::Num(dag_speedup)),
    ])
}

/// Reads one numeric field out of a cell object.
fn field(c: &Json, name: &str) -> f64 {
    match c {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or_else(|| panic!("every cell records {name}")),
        _ => unreachable!("cells are objects"),
    }
}

fn main() {
    let smoke = std::env::var("COLLSEL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    // Presets cap their rank counts (grisou 102, gros 124), so the
    // P = 128 column is clamped per preset; the JSON records both the
    // requested and the effective process count.
    let ps: &[usize] = if smoke { &[8, 32] } else { &[8, 32, 128] };
    let ms: &[usize] = if smoke {
        &[8 * 1024]
    } else {
        &[8 * 1024, 512 * 1024]
    };
    let min_window_s = if smoke { 0.05 } else { 0.3 };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "simrate bench: smoke={smoke} ps={ps:?} ms={ms:?} window={min_window_s}s \
         host_threads={host_threads}"
    );

    let mut cells = Vec::new();
    for cluster in [quiet_cluster(), ClusterModel::grisou()] {
        for &p in ps {
            for &m in ms {
                cells.push(bench_cell(&cluster, p, m, min_window_s));
            }
        }
    }

    let range = |name: &str| {
        let max = cells.iter().map(|c| field(c, name)).fold(0.0, f64::max);
        let min = cells
            .iter()
            .map(|c| field(c, name))
            .fold(f64::INFINITY, f64::min);
        (min, max)
    };
    let (min_speedup, max_speedup) = range("speedup");
    let (min_dag_speedup, max_dag_speedup) = range("dag_speedup");
    println!(
        "events/threads speedup: {min_speedup:.1}x .. {max_speedup:.1}x, \
         dag/events speedup: {min_dag_speedup:.1}x .. {max_dag_speedup:.1}x \
         over {} cells",
        cells.len()
    );

    if smoke {
        assert!(
            min_speedup >= 1.0,
            "event backend slower than threads in at least one cell ({min_speedup:.2}x)"
        );
        assert!(
            min_dag_speedup >= 1.0,
            "dag backend slower than events in at least one cell ({min_dag_speedup:.2}x)"
        );
        println!("smoke gate: dag >= events >= threads in every cell");
    }

    let json = Json::Obj(vec![
        ("bench".to_owned(), Json::Str("simrate".to_owned())),
        ("smoke".to_owned(), Json::Bool(smoke)),
        ("alg".to_owned(), Json::Str(ALG.name().to_owned())),
        ("seg_size".to_owned(), Json::Num(SEG_SIZE as f64)),
        ("host_threads".to_owned(), Json::Num(host_threads as f64)),
        ("min_speedup".to_owned(), Json::Num(min_speedup)),
        ("max_speedup".to_owned(), Json::Num(max_speedup)),
        ("min_dag_speedup".to_owned(), Json::Num(min_dag_speedup)),
        ("max_dag_speedup".to_owned(), Json::Num(max_dag_speedup)),
        ("cells".to_owned(), Json::Arr(cells)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    match collsel_support::bench::write_artifact(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}
