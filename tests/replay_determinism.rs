//! Trace replay is deterministic end-to-end: traces round-trip through
//! JSON, generation is a pure function of its seed, and the job
//! completion time of a replay is **bit-identical** across both
//! execution backends and any worker thread count — the property that
//! lets ci.sh gate replay results without golden files.
//!
//! The thread override is process-global state, so all thread-count
//! comparisons live in a single `#[test]` (same discipline as
//! `parallel_determinism.rs`).

use collsel::mpi::Backend;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::{Tuner, TunerConfig};
use collsel_expt::replay::{degradation_pct, replay_trace, score_policies, ReplayPolicy};
use collsel_expt::workload::{canned_dp, canned_pp, Trace, TraceGen, TracePreset};
use collsel_support::{pool, FromJson, Json, ToJson};

fn quiet_gros() -> ClusterModel {
    ClusterModel::gros().with_noise(NoiseParams::OFF)
}

#[test]
fn traces_round_trip_through_json() {
    for trace in [
        canned_dp(),
        canned_pp(),
        TraceGen {
            preset: TracePreset::DataParallel,
            world: 7, // odd world: tp_width 1, dp group only
            steps: 3,
            seed: 99,
        }
        .generate(),
    ] {
        let text = trace.to_json().to_string_pretty();
        let back = Trace::from_json(&Json::parse(&text).expect("parses")).expect("deserialises");
        assert_eq!(trace, back, "{} changed across JSON round-trip", trace.name);
        back.validate().expect("round-tripped trace validates");
    }
}

#[test]
fn trace_generation_is_a_pure_function_of_its_seed() {
    for preset in [TracePreset::DataParallel, TracePreset::Pipeline] {
        let gen = |seed| {
            TraceGen {
                preset,
                world: 8,
                steps: 6,
                seed,
            }
            .generate()
        };
        assert_eq!(gen(5), gen(5), "{} regeneration diverged", preset.name());
        assert_ne!(
            gen(5),
            gen(6),
            "{} ignores its seed entirely",
            preset.name()
        );
    }
}

#[test]
fn jct_is_bit_identical_across_backends_and_thread_counts() {
    let gros = quiet_gros();
    let grisou = ClusterModel::grisou().with_noise(NoiseParams::OFF);
    for (cluster, trace) in [(&gros, canned_dp()), (&grisou, canned_pp())] {
        let reference = replay_trace(cluster, &trace, &ReplayPolicy::Fixed, Backend::Dag, 17)
            .expect("dag replay");
        assert!(reference.jct_ns > 0, "{}: empty replay", trace.name);
        // The threads backend is the only one that schedules work on a
        // pool, so it alone can depend on the worker count — pin it to
        // several counts and require the same bits as the DAG tier.
        for threads in [1, 2, 8] {
            pool::set_thread_override(threads);
            let out = replay_trace(cluster, &trace, &ReplayPolicy::Fixed, Backend::Threads, 17)
                .expect("threads replay");
            pool::clear_thread_override();
            assert_eq!(
                reference.jct_ns, out.jct_ns,
                "{}: JCT diverged at {threads} threads",
                trace.name
            );
            assert_eq!(reference.step_ns, out.step_ns);
            assert_eq!(reference.messages, out.messages);
            assert_eq!(reference.bytes, out.bytes);
        }
    }
}

#[test]
fn tuned_policy_is_never_beaten_by_the_model_worst() {
    // The adversarial bound from the paper's degradation framing: on a
    // tuned model, picking each call's model-worst algorithm must not
    // produce a faster job than picking the model-best.
    let cluster = quiet_gros();
    let model = Tuner::new(cluster.clone(), TunerConfig::quick(8)).tune_all();
    let selector = model.multi_selector();
    let trace = canned_dp();
    let outs = score_policies(
        &cluster,
        &trace,
        &[
            ReplayPolicy::Tuned(&selector),
            ReplayPolicy::Fixed,
            ReplayPolicy::Worst(&selector),
        ],
        23,
    )
    .expect("replays");
    let (tuned, fixed, worst) = (&outs[0], &outs[1], &outs[2]);
    assert!(
        tuned.jct_ns <= worst.jct_ns,
        "model-worst beat model-best: {} vs {} ns",
        worst.jct_ns,
        tuned.jct_ns
    );
    assert!(degradation_pct(worst, tuned) >= 0.0);
    assert_eq!(tuned.lookups, trace.total_calls() as u64);
    assert_eq!(fixed.steps, trace.steps.len());
}
