//! `replay-cold` and `replay-warm`: whole-trace replay of a generated
//! data-parallel and a pipeline-parallel job under the tuned table and
//! the fixed rules, first in a cold process and then re-replayed with
//! fresh noise seeds.

use super::tune::tuner;
use super::{timed, ChildArgs, Mode, Outcome};
use crate::probes;
use crate::sizes::{REPLAY_MODEL_SEED, REPLAY_STEPS, REPLAY_TRACE_SEED, REPLAY_WORLD};
use crate::stats::median;
use crate::surface::{
    canned_dp, canned_pp, compile_step, fixed_selection, memo_counters, replay_trace, Backend,
    ClusterModel, CollectiveModelSelector, CollectiveSelector, DagEvaluator, GroupCall,
    ReplayPolicy, SimOptions, TimingDag, Trace, TraceGen, TracePreset,
};
use crate::trace::{SpanId, Tracer};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Tuned,
    Fixed,
}

const POLICIES: [Policy; 2] = [Policy::Tuned, Policy::Fixed];

/// Totals of one pass: every trace under every policy, one replay seed.
#[derive(Debug, Default, Clone)]
struct Pass {
    /// Seconds per trace (both policies), in trace order.
    trace_s: Vec<f64>,
    /// Simulated job completion time per (trace, policy), nanoseconds.
    jct_ns: Vec<[u64; 2]>,
    lookups: u64,
    steps: u64,
    bookings: u64,
    replays: u64,
    errors: u64,
}

fn pass(
    tracer: &Tracer,
    parent: Option<SpanId>,
    cluster: &ClusterModel,
    selector: &CollectiveModelSelector,
    traces: &[Trace],
    replay_seed: u64,
) -> Pass {
    let mut totals = Pass::default();
    for trace in traces {
        let mut jct = [0u64; 2];
        let mut secs = 0.0;
        for (slot, policy) in jct.iter_mut().zip(POLICIES) {
            let policy = match policy {
                Policy::Tuned => ReplayPolicy::Tuned(selector),
                Policy::Fixed => ReplayPolicy::Fixed,
            };
            let (result, replay_s) = tracer.span("expt", "replay_trace", parent, |_| {
                replay_trace(cluster, trace, &policy, Backend::Dag, replay_seed)
            });
            secs += replay_s;
            totals.replays += 1;
            match result {
                Ok(outcome) => {
                    *slot = outcome.jct_ns;
                    totals.lookups += outcome.lookups;
                    totals.steps += outcome.steps as u64;
                    totals.bookings += outcome.messages;
                }
                Err(_) => totals.errors += 1,
            }
        }
        totals.trace_s.push(secs);
        totals.jct_ns.push(jct);
    }
    totals
}

pub fn replay(args: &ChildArgs, tracer: &Tracer, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let cluster = ClusterModel::gros();
    let model = tuner(&cluster, REPLAY_MODEL_SEED).tune_all();
    let selector = model.multi_selector();
    let (traces, tracegen_s) = tracer.span("expt", "tracegen", None, |_| {
        [TracePreset::DataParallel, TracePreset::Pipeline].map(|preset| {
            TraceGen {
                preset,
                world: REPLAY_WORLD,
                steps: REPLAY_STEPS,
                seed: REPLAY_TRACE_SEED,
            }
            .generate()
        })
    });

    // The cold pass: the timed section of `replay-cold`, part of the
    // set-up of `replay-warm`.
    let memo_before = memo_counters();
    let (cold, cold_timed) = timed(|| {
        tracer
            .span("bench", "cold pass", None, |span| {
                pass(tracer, span, &cluster, &selector, &traces, args.seed)
            })
            .0
    });
    let cold_memo = memo_counters().since(memo_before);
    let mut attempted = cold.replays;
    let mut failed = cold.errors;

    let mut warm_trace_s: Vec<Vec<f64>> = vec![Vec::new(); traces.len()];
    if warm {
        let memo_before = memo_counters();
        let mut latencies = Vec::new();
        let (_, warm_timed) = timed(|| {
            let started = Instant::now();
            let mut i = 0u64;
            while started.elapsed().as_secs_f64() < args.budget_s || i == 0 {
                i += 1;
                let replay_seed = args.seed.wrapping_add(i);
                let (again, secs) = tracer.span("bench", "warm pass", None, |span| {
                    pass(tracer, span, &cluster, &selector, &traces, replay_seed)
                });
                latencies.push(secs);
                attempted += again.replays;
                failed += again.errors;
                for (log, secs) in warm_trace_s.iter_mut().zip(&again.trace_s) {
                    log.push(*secs);
                }
            }
        });
        let warm_memo = memo_counters().since(memo_before);
        out.timed = warm_timed;
        out.ops = latencies.len() as u64;
        out.latencies_s = latencies;
        out.check(
            "replay-warm: no step recorded in the timed section",
            warm_memo.dag_misses == 0,
            format!(
                "{} hits, {} misses",
                warm_memo.dag_hits, warm_memo.dag_misses
            ),
        );
    } else {
        out.timed = cold_timed;
        out.ops = 1;
        out.latencies_s = vec![cold_timed.wall_s];
    }
    out.attempted = attempted;
    out.failed = failed;

    let tuned_ns: u64 = cold.jct_ns.iter().map(|j| j[0]).sum();
    let fixed_ns: u64 = cold.jct_ns.iter().map(|j| j[1]).sum();
    out.quality_pct = Some(100.0 * fixed_ns as f64 / tuned_ns.max(1) as f64);
    out.exact_layer("expt.jct_tuned_ms", tuned_ns as f64 / 1e6);
    out.check(
        "replay: no replay returned an error",
        failed == 0,
        format!("{failed} of {attempted} replays failed"),
    );
    let excluded = Instant::now();
    if args.thorough {
        canned_trace_checks(&mut out, &cluster, &selector, args.seed);
    }
    if args.mode == Mode::Traced {
        let calls: usize = traces.iter().map(Trace::total_calls).sum();
        out.layer("expt.tracegen_s", tracegen_s);
        out.exact_layer("expt.trace_calls", calls as f64);
        out.exact_layer("expt.lookups", cold.lookups as f64);
        out.exact_layer("expt.steps", cold.steps as f64);
        out.exact_layer("expt.step_shapes", cold_memo.dag_misses as f64);
        out.exact_layer("netsim.bookings", cold.bookings as f64);
        for (i, name) in ["dp", "pp"].iter().enumerate() {
            let [tuned, fixed] = cold.jct_ns[i];
            out.exact_layer(
                &format!("expt.tuned_vs_fixed_pct.{name}"),
                100.0 * (fixed as f64 / tuned.max(1) as f64 - 1.0),
            );
            out.layer(&format!("expt.replay_cold_s.{name}"), cold.trace_s[i]);
            if warm {
                out.layer(
                    &format!("expt.replay_warm_ms.{name}"),
                    median(&warm_trace_s[i]) * 1e3,
                );
            }
        }
        if warm {
            out.exact_layer("estim.memo_misses", 0.0);
            out.exact_layer("estim.memo_hit_ratio", 1.0);
        } else {
            out.exact_layer("estim.memo_misses", cold_memo.dag_misses as f64);
            out.exact_layer("estim.memo_hits", cold_memo.dag_hits as f64);
            out.exact_layer(
                "estim.memo_hit_ratio",
                super::tune::hit_ratio(cold_memo.dag_hits, cold_memo.dag_misses),
            );
            step_walk(&mut out, tracer, &cluster, &selector, &traces);
        }
        probes::run(&mut out, &cluster, &model, args.seed);
    }
    out.excluded_s = excluded.elapsed().as_secs_f64();
    out
}

/// On the small canned traces: the tuned policy is never beaten by the
/// worst fitted algorithm, and the DAG tier's job completion time
/// equals the thread-per-rank oracle's.
fn canned_trace_checks(
    out: &mut Outcome,
    cluster: &ClusterModel,
    selector: &CollectiveModelSelector,
    seed: u64,
) {
    let jct = |trace: &Trace, policy: &ReplayPolicy<'_>, backend| {
        replay_trace(cluster, trace, policy, backend, seed).map(|o| o.jct_ns)
    };
    for trace in [canned_dp(), canned_pp()] {
        let tuned = jct(&trace, &ReplayPolicy::Tuned(selector), Backend::Dag);
        let worst = jct(&trace, &ReplayPolicy::Worst(selector), Backend::Dag);
        out.check(
            &format!("{}: tuned JCT is at most the worst policy's", trace.name),
            matches!((&tuned, &worst), (Ok(t), Ok(w)) if t <= w),
            format!("tuned {tuned:?} ns, worst {worst:?} ns"),
        );
    }
    let trace = canned_pp();
    let policy = ReplayPolicy::Tuned(selector);
    let dag = jct(&trace, &policy, Backend::Dag);
    let threads = jct(&trace, &policy, Backend::Threads);
    out.check(
        "canned pp: dag JCT equals the threaded oracle's",
        dag.is_ok() && dag == threads,
        format!("dag {dag:?} ns, threads {threads:?} ns"),
    );
}

/// Traced `replay-cold`: every distinct step shape the cold pass had to
/// record, pushed once more through the raw layer calls, so the cold
/// pass's time can be split into step recording, DAG compile and the
/// rest.
fn step_walk(
    out: &mut Outcome,
    tracer: &Tracer,
    cluster: &ClusterModel,
    selector: &CollectiveModelSelector,
    traces: &[Trace],
) {
    let mut shapes: HashSet<(usize, Vec<GroupCall>)> = HashSet::new();
    let (mut record_s, mut compile_s, mut eval_s) = (0.0, 0.0, 0.0);
    let (mut sched_ops, mut dag_ops, mut dag_edges) = (0u64, 0u64, 0u64);
    tracer.span("bench", "step walk", None, |walk| {
        for trace in traces {
            for policy in POLICIES {
                for step in &trace.steps {
                    let calls: Vec<GroupCall> = step
                        .calls
                        .iter()
                        .map(|call| {
                            let ranks = trace.groups[call.group].ranks.clone();
                            let pick = match policy {
                                Policy::Tuned => {
                                    selector.select_for(call.collective, ranks.len(), call.m)
                                }
                                Policy::Fixed => {
                                    fixed_selection(call.collective, ranks.len(), call.m)
                                }
                            };
                            GroupCall {
                                alg: pick.alg,
                                ranks,
                                m: call.m,
                                seg_size: pick.effective_seg_size(call.m),
                            }
                        })
                        .collect();
                    if !shapes.insert((trace.world, calls.clone())) {
                        continue;
                    }
                    let (sched, secs) = tracer.span("coll", "step record", walk, |_| {
                        compile_step(cluster, trace.world, &calls)
                            .expect("a trace step records cleanly")
                    });
                    record_s += secs;
                    sched_ops += sched.total_ops() as u64;
                    let (dag, secs) = tracer.span("mpi", "dag_compile", walk, |_| {
                        Arc::new(
                            TimingDag::compile(cluster, &sched)
                                .expect("a trace step fits the DAG tier"),
                        )
                    });
                    compile_s += secs;
                    dag_ops += dag.op_count() as u64;
                    dag_edges += dag.edge_count() as u64;
                    let (_, secs) = tracer.span("mpi", "dag_eval", walk, |_| {
                        DagEvaluator::new(cluster, dag)
                            .run(0, SimOptions::default())
                            .expect("a trace step cannot deadlock")
                    });
                    eval_s += secs;
                }
            }
        }
    });
    out.layer("coll.step_record_s", record_s);
    out.layer("mpi.dag_compile_s", compile_s);
    out.layer("mpi.dag_eval_s", eval_s);
    out.exact_layer("coll.step_shapes", shapes.len() as f64);
    out.exact_layer("coll.record_ops", sched_ops as f64);
    out.exact_layer("mpi.dag_ops", dag_ops as f64);
    out.exact_layer("mpi.dag_edges", dag_edges as f64);
}
