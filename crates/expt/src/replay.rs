//! End-to-end trace replay: score a selection policy by **job
//! completion time** (JCT), the application-level metric the
//! per-call tables cannot show.
//!
//! A [`crate::workload::Trace`] step resolves to a list of
//! [`GroupCall`]s by asking a [`ReplayPolicy`] — the tuned model
//! selector, the Open MPI-style fixed rules, the *worst* fitted
//! algorithm (an adversarial upper bound, turning the paper's
//! "up to 7297% degradation" into a whole-job number), or a live
//! [`DecisionServer`] (each call issues a real `decide` lookup first,
//! making replay a realistic traffic driver). The resolved step then
//! runs through either execution backend; steps with equal
//! shape share one compiled artifact via `estim`'s step-cell memo
//! ([`collsel::estim::compiled_step_dag`]), so the DAG tier compiles
//! each distinct (step-shape, geometry) cell once and batch-replays the
//! rest payload-free. A new step shape is not recorded either: its
//! schedule is composed from the schedules of its collectives
//! ([`collsel::estim::compile_step_shared`]), and only a collective —
//! (algorithm, group size, message size, segment size) — that no
//! earlier step, policy or trace of the process has used runs through
//! the recorder.
//!
//! JCT is the sum over steps of the step's makespan (steps are
//! serialised by the training loop's data dependency: forward/backward
//! compute of step *s+1* needs step *s*'s gradients, which we model as
//! a hard boundary). Both backends produce bit-identical
//! makespans, so JCT is bit-identical too — gated by
//! `tests/replay_determinism.rs` and ci.sh.

use crate::workload::Trace;
use collsel::coll::compile::GroupCall;
use collsel::coll::Collective;
use collsel::estim::{compile_step_shared, compiled_step_dag, memo_counters, step_cell, StepCell};
use collsel::mpi::{simulate_with, Backend, DagEvaluator, SimError, SimOptions};
use collsel::netsim::{ClusterModel, SimSpan, SimTime};
use collsel::select::{
    fixed_selection, CollSelection, CollectiveModelSelector, CollectiveSelector, DecisionServer,
};
use collsel_support::{json_struct, Json, ToJson};
use std::collections::HashMap;

/// How a replay chooses the algorithm for each collective call.
#[derive(Debug)]
pub enum ReplayPolicy<'a> {
    /// The Open MPI-style fixed decision rules (no model needed).
    Fixed,
    /// The tuned model selector's argmin.
    Tuned(&'a CollectiveModelSelector),
    /// The tuned ranking's *last* finite entry: the worst algorithm
    /// the models can justify, the adversarial bound a bad fixed rule
    /// can approach. Falls back to the fixed rules for collectives
    /// with no finite fit.
    Worst(&'a CollectiveModelSelector),
    /// A live decision server: every call issues a `decide` lookup
    /// (watchdogs, generation swaps and fallbacks included) before the
    /// step replays with the served algorithms.
    Server(&'a DecisionServer),
}

impl ReplayPolicy<'_> {
    /// The policy's name as spelled in reports and on the
    /// `colltune replay --selector` flag.
    pub fn name(&self) -> &'static str {
        match self {
            ReplayPolicy::Fixed => "fixed",
            ReplayPolicy::Tuned(_) => "tuned",
            ReplayPolicy::Worst(_) => "worst",
            ReplayPolicy::Server(_) => "server",
        }
    }

    fn decide(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        match self {
            ReplayPolicy::Fixed => fixed_selection(collective, p, m),
            ReplayPolicy::Tuned(sel) => sel.select_for(collective, p, m),
            ReplayPolicy::Worst(sel) => {
                let ranking = sel.ranking(collective, p, m);
                match ranking.iter().rev().find(|(_, t)| t.is_finite()) {
                    Some(&(alg, _)) => CollSelection::segmented(alg, sel.seg_for(collective)),
                    None => fixed_selection(collective, p, m),
                }
            }
            ReplayPolicy::Server(srv) => srv.decide(collective, p, m).selection,
        }
    }
}

/// The outcome of replaying one trace under one policy on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Trace name.
    pub trace: String,
    /// Policy name ([`ReplayPolicy::name`]).
    pub selector: String,
    /// Backend name (`dag`/`threads`).
    pub backend: String,
    /// Steps replayed.
    pub steps: usize,
    /// Selector lookups issued (one per collective call).
    pub lookups: u64,
    /// Total job completion time in seconds (Σ step makespans).
    pub jct_s: f64,
    /// JCT in integer nanoseconds — the bit-identity witness (floats
    /// hide low bits; this does not).
    pub jct_ns: u64,
    /// Per-step makespans in nanoseconds.
    pub step_ns: Vec<u64>,
    /// Total messages across all steps.
    pub messages: u64,
    /// Total bytes across all steps.
    pub bytes: u64,
}

json_struct!(ReplayOutcome {
    trace,
    selector,
    backend,
    steps,
    lookups,
    jct_s,
    jct_ns,
    step_ns,
    messages,
    bytes
});

/// The group calls step `step` of `trace` runs under `policy`: one
/// selector lookup per collective call, in call order.
pub fn step_calls(trace: &Trace, step: usize, policy: &ReplayPolicy<'_>) -> Vec<GroupCall> {
    trace.steps[step]
        .calls
        .iter()
        .map(|call| {
            let group = &trace.groups[call.group];
            let p = group.ranks.len();
            let sel = policy.decide(call.collective, p, call.m);
            GroupCall {
                alg: sel.alg,
                ranks: group.ranks.clone(),
                m: call.m,
                seg_size: sel.effective_seg_size(call.m),
            }
        })
        .collect()
}

/// Per-step seed: mixes the step index into the trace seed with the
/// golden-ratio increment (attempt-mixing discipline of the
/// measurement tier), identical on every backend.
fn step_seed(seed: u64, step: usize) -> u64 {
    seed.wrapping_add((step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Replays `trace` end-to-end on `cluster` under `policy` and
/// `backend`, accumulating JCT as the sum of step makespans.
///
/// Both backends yield bit-identical outcomes at any thread count. On
/// [`Backend::Dag`], distinct step shapes are compiled once through the
/// process-wide step memo (composed from the process-wide collective
/// templates) and batch-replayed; [`Backend::Threads`] runs every step
/// through the thread-per-rank oracle ([`simulate_with`]), with fresh
/// rank threads per step.
///
/// # Errors
///
/// [`SimError`] if a step's simulation fails (a watchdogless replay of
/// a valid trace cannot deadlock, but fault plans stay honest);
/// [`SimError::Deadlock`] naming the recording if a step cannot be
/// recorded or lowered to a timing DAG.
///
/// # Panics
///
/// Panics if the trace is invalid ([`Trace::validate`]).
pub fn replay_trace(
    cluster: &ClusterModel,
    trace: &Trace,
    policy: &ReplayPolicy<'_>,
    backend: Backend,
    seed: u64,
) -> Result<ReplayOutcome, SimError> {
    trace
        .validate()
        .unwrap_or_else(|e| panic!("invalid trace: {e}"));
    let mut lookups = 0u64;
    let mut jct = SimSpan::ZERO;
    let mut step_ns = Vec::with_capacity(trace.steps.len());
    let mut messages = 0u64;
    let mut bytes = 0u64;
    // Per-replay artifact reuse: the process-wide memo deduplicates
    // compiles across replays; this map additionally pins one
    // evaluator (fabric + scratch) per shape within this replay.
    let mut evaluators: HashMap<StepCell, DagEvaluator> = HashMap::new();

    for s in 0..trace.steps.len() {
        let calls = step_calls(trace, s, policy);
        lookups += calls.len() as u64;
        let seed_s = step_seed(seed, s);
        let opts = SimOptions::default();
        let report = match backend {
            Backend::Threads => {
                simulate_with(cluster, trace.world, seed_s, opts, |ctx| {
                    collsel::coll::compile::run_step(ctx, &calls)
                })?
                .report
            }
            Backend::Dag => {
                let cell = step_cell(trace.world, &calls);
                let ev = match evaluators.entry(cell) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        // Only a miss pays for a second copy of the key.
                        let dag = compiled_step_dag(cluster, e.key().clone(), |rec| {
                            compile_step_shared(rec, trace.world, &calls)
                        })
                        .ok_or_else(|| SimError::Deadlock {
                            detail: "step recording failed".into(),
                        })?;
                        e.insert(DagEvaluator::new(cluster, dag))
                    }
                };
                ev.run(seed_s, opts)?.report
            }
        };
        let span = report.makespan.saturating_since(SimTime::ZERO);
        jct += span;
        step_ns.push(span.as_nanos());
        messages += report.messages;
        bytes += report.bytes;
    }
    Ok(ReplayOutcome {
        trace: trace.name.clone(),
        selector: policy.name().to_string(),
        backend: backend.name().to_string(),
        steps: trace.steps.len(),
        lookups,
        jct_s: jct.as_secs_f64(),
        jct_ns: jct.as_nanos(),
        step_ns,
        messages,
        bytes,
    })
}

/// Replays `trace` under several policies on the timing DAG and
/// returns the outcomes in input order — the JCT comparison `colltune
/// replay` prints.
///
/// # Errors
///
/// The first [`SimError`] any replay hits.
pub fn score_policies(
    cluster: &ClusterModel,
    trace: &Trace,
    policies: &[ReplayPolicy<'_>],
    seed: u64,
) -> Result<Vec<ReplayOutcome>, SimError> {
    policies
        .iter()
        .map(|p| replay_trace(cluster, trace, p, Backend::Dag, seed))
        .collect()
}

/// JCT degradation of `outcome` relative to `best`, in percent
/// (`0.0` for the best itself; the paper's "7297%" framing).
pub fn degradation_pct(outcome: &ReplayOutcome, best: &ReplayOutcome) -> f64 {
    if best.jct_ns == 0 {
        return 0.0;
    }
    (outcome.jct_ns as f64 / best.jct_ns as f64 - 1.0) * 100.0
}

/// Renders a JCT comparison as JSON: one entry per outcome plus the
/// headline degradation of each vs the fastest. An empty slice renders
/// an empty comparison.
pub fn comparison_json(cluster_name: &str, outcomes: &[ReplayOutcome]) -> Json {
    let Some(best) = outcomes.iter().min_by_key(|o| o.jct_ns).cloned() else {
        return Json::Obj(vec![("outcomes".into(), Json::Arr(Vec::new()))]);
    };
    Json::Obj(vec![
        ("cluster".into(), Json::Str(cluster_name.into())),
        (
            "trace".into(),
            Json::Str(
                outcomes
                    .first()
                    .map(|o| o.trace.clone())
                    .unwrap_or_default(),
            ),
        ),
        ("best".into(), Json::Str(best.selector.clone())),
        (
            "outcomes".into(),
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        let mut obj = o.to_json();
                        if let Json::Obj(fields) = &mut obj {
                            fields.push((
                                "degradation_pct".into(),
                                Json::Num(degradation_pct(o, &best)),
                            ));
                        }
                        obj
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a JCT comparison as CSV (`selector,backend,steps,lookups,
/// jct_s,jct_ns,degradation_pct`). An empty slice renders the header
/// alone.
pub fn comparison_csv(outcomes: &[ReplayOutcome]) -> String {
    let mut out = String::from("selector,backend,steps,lookups,jct_s,jct_ns,degradation_pct\n");
    let Some(best) = outcomes.iter().min_by_key(|o| o.jct_ns).cloned() else {
        return out;
    };
    for o in outcomes {
        out.push_str(&format!(
            "{},{},{},{},{:.9},{},{:.2}\n",
            o.selector,
            o.backend,
            o.steps,
            o.lookups,
            o.jct_s,
            o.jct_ns,
            degradation_pct(o, &best)
        ));
    }
    out
}

/// Snapshot of the process-wide measurement memo counters — the
/// compiled-DAG cell and step caches, the collective templates steps
/// are composed from and the shared payload store — attached to
/// `colltune replay --json` so cache effectiveness lands in the same
/// artifact as the JCTs it explains. The counters are monotonic since
/// process start; a replay that is the process's only workload reads
/// them as its own hit/miss ledger.
pub fn memo_json() -> Json {
    let c = memo_counters();
    Json::Obj(vec![
        ("dag_hits".to_owned(), Json::Num(c.dag_hits as f64)),
        ("dag_misses".to_owned(), Json::Num(c.dag_misses as f64)),
        (
            "template_hits".to_owned(),
            Json::Num(c.template_hits as f64),
        ),
        (
            "template_misses".to_owned(),
            Json::Num(c.template_misses as f64),
        ),
        ("payload_hits".to_owned(), Json::Num(c.payload_hits as f64)),
        (
            "payload_misses".to_owned(),
            Json::Num(c.payload_misses as f64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{canned_dp, canned_pp};

    fn quiet_gros() -> ClusterModel {
        ClusterModel::gros().with_noise(collsel::netsim::NoiseParams::OFF)
    }

    #[test]
    fn backends_agree_on_jct_bit_for_bit() -> Result<(), SimError> {
        let cluster = quiet_gros();
        for trace in [canned_dp(), canned_pp()] {
            let outs: Vec<ReplayOutcome> = [Backend::Dag, Backend::Threads]
                .into_iter()
                .map(|b| replay_trace(&cluster, &trace, &ReplayPolicy::Fixed, b, 11))
                .collect::<Result<_, _>>()?;
            assert_eq!(
                outs[0].jct_ns, outs[1].jct_ns,
                "{}: dag vs threads",
                trace.name
            );
            assert_eq!(outs[0].step_ns, outs[1].step_ns);
            assert_eq!(outs[0].messages, outs[1].messages);
            assert!(outs[0].jct_ns > 0);
            assert_eq!(outs[0].lookups, trace.total_calls() as u64);
        }
        Ok(())
    }

    #[test]
    fn worst_policy_never_beats_tuned_by_construction() -> Result<(), SimError> {
        // Without a tuned model both Tuned and Worst degrade to the
        // fixed rules; the ranking-based inversion is covered by the
        // integration suite with a real model. Here: the degradation
        // arithmetic and CSV/JSON plumbing.
        let cluster = quiet_gros();
        let trace = canned_pp();
        let outs = score_policies(&cluster, &trace, &[ReplayPolicy::Fixed], 3)?;
        assert_eq!(degradation_pct(&outs[0], &outs[0]), 0.0);
        let csv = comparison_csv(&outs);
        assert!(csv.lines().count() == 2 && csv.contains("fixed,dag"));
        let json = comparison_json("gros", &outs);
        assert!(json.to_string_pretty().contains("degradation_pct"));
        Ok(())
    }

    #[test]
    fn memo_json_reports_every_memo_counter() {
        let memo = memo_json();
        let keys = [
            "dag_hits",
            "dag_misses",
            "template_hits",
            "template_misses",
            "payload_hits",
            "payload_misses",
        ];
        assert!(matches!(&memo, Json::Obj(fields) if fields.len() == keys.len()));
        for key in keys {
            assert!(memo.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
    }
}
