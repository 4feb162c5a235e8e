//! Layer probes: small fixed-size measurements of single library calls,
//! run by every traced child after its timed section. They size each
//! layer's unit cost (one booking, one lookup, one fit) so a change in
//! an end-to-end number can be traced to the layer whose unit cost
//! moved. Probe inputs depend only on the seed and the tuned model.

use crate::stats::median;
use crate::surface::{
    compile_timed_collective, huber_default, run_collective, simulate, splitmix64, ClusterModel,
    Collective, CollectiveDecisionService, CollectiveSelector, CompiledCollectiveSelector,
    DagEvaluator, DecisionServer, EpochSwap, Fabric, FromJson, Json, ServerConfig, SimOptions,
    SimTime, TimingDag, ToJson, TunedModel,
};
use crate::workloads::Outcome;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds `f` takes, as the median of `repeats` calls.
fn median_secs<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per call of `f` over a seeded query stream.
fn ns_per_query(
    queries: &[(Collective, usize, usize)],
    mut f: impl FnMut(Collective, usize, usize),
) -> f64 {
    let started = Instant::now();
    for &(c, p, m) in queries {
        f(c, p, m);
    }
    started.elapsed().as_secs_f64() * 1e9 / queries.len() as f64
}

/// The serving traffic mix: collective uniform over the seven, P uniform
/// in [2, 128], m = 1 KiB << [0, 14).
pub fn query(state: &mut u64) -> (Collective, usize, usize) {
    let c = Collective::ALL[(splitmix64(state) % 7) as usize];
    let p = 2 + (splitmix64(state) % 127) as usize;
    let m = 1024usize << (splitmix64(state) % 14);
    (c, p, m)
}

fn queries(seed: u64, n: usize) -> Vec<(Collective, usize, usize)> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..n).map(|_| query(&mut state)).collect()
}

pub fn run(out: &mut Outcome, cluster: &ClusterModel, model: &TunedModel, seed: u64) {
    let table = model.compiled_multi_selector_default();
    out.exact_layer("core.rules", table.rule_count() as f64);
    model_probes(out, model, seed);
    select_probes(out, cluster, model, &table, seed);
    support_and_netsim_probes(out, cluster, seed);
    simulation_probes(out, cluster, seed);
}

/// `support` JSON, `core` table generation, `model` ranking.
fn model_probes(out: &mut Outcome, model: &TunedModel, seed: u64) {
    let text = model.to_json().to_string_pretty();
    out.exact_layer("support.model_json_bytes", text.len() as f64);
    out.layer(
        "support.json_write_s",
        median_secs(5, || model.to_json().to_string_pretty()),
    );
    out.layer(
        "support.json_parse_s",
        median_secs(5, || {
            let value = Json::parse(&text).expect("the library reads the JSON it wrote");
            TunedModel::from_json(&value).expect("the library decodes the model it wrote")
        }),
    );
    out.layer(
        "core.table_compile_s",
        median_secs(5, || model.compiled_multi_selector_default()),
    );
    let live = model.multi_selector();
    out.layer(
        "model.rank_ns",
        ns_per_query(&queries(seed, 20_000), |c, p, m| {
            black_box(live.ranking(c, p, m));
        }),
    );
}

/// `select`: the lookup paths one by one, from the raw CSR lookup to a
/// full server `decide` on one thread.
fn select_probes(
    out: &mut Outcome,
    cluster: &ClusterModel,
    model: &TunedModel,
    table: &CompiledCollectiveSelector,
    seed: u64,
) {
    let live = model.multi_selector();
    let uniform = queries(seed, 400_000);
    out.layer(
        "select.compiled_lookup_ns",
        ns_per_query(&uniform, |c, p, m| {
            black_box(table.lookup(c, p, m));
        }),
    );
    out.layer(
        "select.live_rank_ns",
        ns_per_query(&uniform[..20_000], |c, p, m| {
            black_box(live.select_for(c, p, m));
        }),
    );

    // Hot: 1 k distinct keys fit the 4096-entry cache. Wide: the uniform
    // mix has ~12 k distinct keys, three times the cache.
    let hot_keys = queries(seed ^ 1, 1_000);
    let hot: Vec<_> = (0..200_000).map(|i| hot_keys[i % hot_keys.len()]).collect();
    let cached = |stream: &[(Collective, usize, usize)]| {
        let service = CollectiveDecisionService::compiled(table.clone()).with_cache(4096, seed);
        let ns = ns_per_query(stream, |c, p, m| {
            black_box(service.decide(c, p, m));
        });
        (ns, service.stats().hit_rate())
    };
    let (hot_ns, hot_ratio) = cached(&hot);
    let (_, wide_ratio) = cached(&uniform[..200_000]);
    out.layer("select.cached_decide_ns", hot_ns);
    out.exact_layer("select.cache_hit_ratio_hot", hot_ratio);
    out.exact_layer("select.cache_hit_ratio_wide", wide_ratio);

    let server = DecisionServer::new(
        &model.degraded_multi_selector(),
        cluster.name(),
        ServerConfig::default(),
    );
    out.layer(
        "select.server_decide_ns",
        ns_per_query(&uniform, |c, p, m| {
            black_box(server.decide(c, p, m));
        }),
    );
}

/// `support::epoch` pin cost, `netsim` booking and reset cost, `estim`
/// Huber fit cost.
fn support_and_netsim_probes(out: &mut Outcome, cluster: &ClusterModel, seed: u64) {
    let swap = EpochSwap::new(seed);
    let pins = 1_000_000;
    let started = Instant::now();
    for _ in 0..pins {
        black_box(*swap.pin());
    }
    out.layer(
        "support.epoch_pin_ns",
        started.elapsed().as_secs_f64() * 1e9 / f64::from(pins),
    );

    // Incast onto rank 0 and a ring, at an eager and a rendezvous size.
    const RANKS: usize = 64;
    const ROUNDS: usize = 200;
    let mut fabric = Fabric::new(cluster.clone(), seed);
    let mut bookings = 0u64;
    let started = Instant::now();
    for round in 0..ROUNDS {
        fabric.reset(seed.wrapping_add(round as u64));
        for bytes in [1024usize, 256 * 1024] {
            for src in 1..RANKS {
                black_box(fabric.plan_transfer(src, 0, bytes, SimTime::ZERO));
                black_box(fabric.plan_transfer(src, (src + 1) % RANKS, bytes, SimTime::ZERO));
                bookings += 2;
            }
        }
    }
    let with_resets = started.elapsed().as_secs_f64();
    let resets = 20_000;
    let started = Instant::now();
    for i in 0..resets {
        fabric.reset(seed.wrapping_add(i));
    }
    let reset_s = started.elapsed().as_secs_f64() / resets as f64;
    out.layer("netsim.fabric_reset_ns", reset_s * 1e9);
    out.layer(
        "netsim.plan_transfer_ns",
        (with_resets - reset_s * ROUNDS as f64).max(0.0) * 1e9 / bookings as f64,
    );

    let xs: Vec<f64> = (0..16).map(|i| 1024.0 * f64::from(1 << (i % 10))).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| 2e-5 + 1.1e-9 * x + if i == 7 { 5e-4 } else { 1e-7 * i as f64 })
        .collect();
    let fits = 2_000;
    let started = Instant::now();
    for _ in 0..fits {
        black_box(huber_default(black_box(&xs), black_box(&ys)));
    }
    out.layer(
        "estim.huber_fit_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(fits),
    );
}

/// `coll` recording, `mpi` DAG compile and evaluate, and the threaded
/// oracle, on a fixed set of probe cells: every algorithm of three
/// collectives at P = 8, 32 KiB, 8 KiB segments.
fn simulation_probes(out: &mut Outcome, cluster: &ClusterModel, seed: u64) {
    const P: usize = 8;
    const M: usize = 32 * 1024;
    const SEG: usize = 8 * 1024;
    const REPS: usize = 3;
    const RUNS: usize = 40;
    let (mut record_s, mut compile_s, mut eval_s, mut threads_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut sched_ops, mut dag_ops, mut cells) = (0u64, 0u64, 0usize);
    for c in [
        Collective::Bcast,
        Collective::Allreduce,
        Collective::Alltoall,
    ] {
        for &alg in c.algorithms() {
            let started = Instant::now();
            let sched = compile_timed_collective(cluster, alg, P, 0, M, SEG, REPS)
                .expect("a probe cell records cleanly");
            record_s += started.elapsed().as_secs_f64();
            sched_ops += sched.total_ops() as u64;

            let started = Instant::now();
            let dag = Arc::new(
                TimingDag::compile(cluster, &sched).expect("a probe cell fits the DAG tier"),
            );
            compile_s += started.elapsed().as_secs_f64();
            dag_ops += dag.op_count() as u64;

            let mut evaluator = DagEvaluator::new(cluster, dag);
            let started = Instant::now();
            black_box(
                evaluator
                    .evaluate_reps(seed, RUNS, SimOptions::default())
                    .expect("a probe cell cannot deadlock"),
            );
            eval_s += started.elapsed().as_secs_f64();

            let started = Instant::now();
            black_box(
                simulate(cluster, P, seed, |ctx| run_collective(ctx, alg, 0, M, SEG))
                    .expect("a probe cell cannot deadlock"),
            );
            threads_s += started.elapsed().as_secs_f64();
            cells += 1;
        }
    }
    out.layer("coll.record_us_per_op", record_s * 1e6 / sched_ops as f64);
    out.layer(
        "mpi.dag_compile_us_per_op",
        compile_s * 1e6 / dag_ops as f64,
    );
    out.layer(
        "mpi.dag_eval_ns_per_op",
        eval_s * 1e9 / (dag_ops * RUNS as u64) as f64,
    );
    out.layer(
        "mpi.dag_eval_reps_per_s",
        (RUNS * REPS * cells) as f64 / eval_s,
    );
    out.layer("mpi.threads_run_s", threads_s);
}
