//! The counted gate of template composition: a cold replay runs the
//! schedule recorder once per distinct collective, not once per group
//! call or per step.
//!
//! The memo counters are process-global, so this file holds exactly one
//! `#[test]`: nothing else composes a step in this process, and the
//! counts below are exact.

use collsel::estim::memo_counters;
use collsel::mpi::Backend;
use collsel::netsim::ClusterModel;
use collsel::{Tuner, TunerConfig};
use collsel_expt::replay::{replay_trace, step_calls, ReplayPolicy};
use collsel_expt::workload::{TraceGen, TracePreset};
use std::collections::HashSet;

/// The geometry of the end-to-end benchmark's `replay-cold` workload
/// (`benchmark/src/sizes.rs`): the gros preset, a `quick(8)` model at
/// seed 42, generated dp and pp traces of 12 steps on 24 ranks at seed
/// 42, each replayed under the tuned and the fixed policy.
#[test]
fn a_cold_replay_records_each_distinct_collective_once() {
    let cluster = ClusterModel::gros();
    let mut config = TunerConfig::quick(8);
    config.seed = 42;
    let model = Tuner::new(cluster.clone(), config).tune_all();
    let selector = model.multi_selector();
    let traces = [TracePreset::DataParallel, TracePreset::Pipeline].map(|preset| {
        TraceGen {
            preset,
            world: 24,
            steps: 12,
            seed: 42,
        }
        .generate()
    });
    let policies = [ReplayPolicy::Tuned(&selector), ReplayPolicy::Fixed];

    let mut group_calls = 0;
    let mut collectives = HashSet::new();
    let mut step_shapes = HashSet::new();
    for trace in &traces {
        for policy in &policies {
            for step in 0..trace.steps.len() {
                let calls = step_calls(trace, step, policy);
                group_calls += calls.len();
                collectives.extend(
                    calls
                        .iter()
                        .map(|c| (c.alg, c.ranks.len(), c.m, c.seg_size)),
                );
                step_shapes.insert(calls);
            }
        }
    }
    assert_eq!(
        (group_calls, step_shapes.len(), collectives.len()),
        (530, 48, 38)
    );

    let before = memo_counters();
    for trace in &traces {
        for policy in &policies {
            replay_trace(&cluster, trace, policy, Backend::Dag, 42).expect("replays");
        }
    }
    let cold = memo_counters().since(before);
    assert_eq!(cold.dag_misses, 48, "step shapes lowered to a DAG");
    assert_eq!(cold.template_misses, 38, "collectives recorded");
    assert_eq!(cold.template_hits, 530 - 38, "group calls composed");

    // A second pass reuses every step DAG and composes nothing.
    let before = memo_counters();
    for trace in &traces {
        for policy in &policies {
            replay_trace(&cluster, trace, policy, Backend::Dag, 43).expect("replays");
        }
    }
    let warm = memo_counters().since(before);
    assert_eq!(
        (warm.dag_misses, warm.template_hits, warm.template_misses),
        (0, 0, 0)
    );
}
