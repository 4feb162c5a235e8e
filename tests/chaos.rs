//! Chaos suite: the full sim → estim → select pipeline under injected
//! faults. For every canned fault plan on both cluster presets, tuning
//! must either complete or return a typed error — never panic, never
//! hang — and the graceful selector must answer every query, reporting
//! whether the model or the Open MPI rules decided.

use collsel::coll::{Alg, BcastAlg, Collective};
use collsel::estim::{Precision, RetryPolicy};
use collsel::netsim::{Brownout, ClusterModel, FaultPlan, NoiseParams, SimSpan, SimTime};
use collsel::select::{fixed_selection, DecisionSource, FallbackReason};
use collsel::{Tuner, TunerConfig};

const TUNE_P: usize = 8;

fn presets() -> Vec<ClusterModel> {
    vec![
        ClusterModel::grisou().with_noise(NoiseParams::OFF),
        ClusterModel::gros().with_noise(NoiseParams::OFF),
    ]
}

fn canned_plans(nodes: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "degraded-link",
            FaultPlan::degraded_links(nodes, 3, 4.0, 11),
        ),
        ("straggler", FaultPlan::stragglers(TUNE_P, 2, 6.0, 12)),
        (
            "brown-out",
            FaultPlan::brownouts(
                nodes,
                2,
                SimSpan::from_millis(50),
                SimSpan::from_millis(5),
                8.0,
                13,
            ),
        ),
    ]
}

/// For each canned plan on each preset: tuning completes or returns a
/// typed error; the selector never panics; fallback is reported via the
/// decision metadata.
#[test]
fn tuning_under_faults_completes_or_reports_typed_errors() {
    for cluster in presets() {
        for (label, plan) in canned_plans(cluster.nodes()) {
            let faulted = cluster.clone().with_faults(plan);
            let tuner = Tuner::new(faulted, TunerConfig::quick(TUNE_P));
            match tuner.try_tune_collectives(&[Collective::Bcast], Some(&RetryPolicy::default())) {
                Ok(report) => {
                    let sel = report.degraded_multi_selector();
                    // Every query must be answered without panicking,
                    // across a (P, m) grid wider than the tuning ran on.
                    for p in [2usize, 5, 16, 48] {
                        for m in [256usize, 8 * 1024, 256 * 1024, 4 << 20] {
                            let d = sel.decide_for(Collective::Bcast, p, m);
                            match &d.source {
                                DecisionSource::Model { predicted } => {
                                    assert!(
                                        predicted.is_finite() && *predicted > 0.0,
                                        "{label}: bad prediction {predicted} at ({p}, {m})"
                                    );
                                }
                                DecisionSource::Fallback { reason } => {
                                    // The fallback path must say why.
                                    assert!(
                                        !reason.to_string().is_empty(),
                                        "{label}: empty fallback reason"
                                    );
                                }
                            }
                            assert!(d.selection.effective_seg_size(m) > 0);
                        }
                    }
                    // Skipped algorithms carry typed, printable reasons.
                    for (alg, err) in &report.skipped {
                        assert!(
                            !err.to_string().is_empty(),
                            "{label}: {alg:?} skipped without a reason"
                        );
                    }
                }
                Err(e) => {
                    // A typed, printable error is an acceptable outcome
                    // for a heavily faulted platform — a panic is not.
                    assert!(
                        !e.to_string().is_empty(),
                        "{label}: error must explain itself"
                    );
                }
            }
        }
    }
}

/// The zero-cost invariant end to end: tuning with `FaultPlan::none()`
/// attached is bit-identical to tuning with no plan at all.
#[test]
fn none_plan_tunes_bit_identically() {
    let base = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let with_none = base.clone().with_faults(FaultPlan::none());
    let a = Tuner::new(base, TunerConfig::quick(TUNE_P)).tune();
    let b = Tuner::new(with_none, TunerConfig::quick(TUNE_P)).tune();
    assert_eq!(a, b);
}

/// A watchdog tight enough for the γ experiments but not for any
/// broadcast fit: every broadcast decision falls back to the fixed
/// rules and says the estimation timed out — not that no model exists.
#[test]
fn broadcasts_that_all_timed_out_report_estimation_timeout() {
    let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let policy = RetryPolicy {
        max_attempts: 1,
        budget: Some(SimSpan::from_micros(400)),
        backoff: 1,
    };
    let report = Tuner::new(cluster, TunerConfig::quick(TUNE_P))
        .try_tune_collectives(&[Collective::Bcast], Some(&policy))
        .expect("the γ experiments fit inside the budget");
    assert!(report.model.collectives[&Collective::Bcast].is_empty());
    assert_eq!(
        report.skipped.keys().copied().collect::<Vec<_>>(),
        BcastAlg::ALL.map(Alg::Bcast).to_vec()
    );
    let sel = report.degraded_multi_selector();
    for p in [2usize, 16, 64] {
        for m in [1024usize, 1 << 20] {
            let d = sel.decide_for(Collective::Bcast, p, m);
            assert_eq!(
                d.source.fallback_reason(),
                Some(FallbackReason::EstimationTimeout),
                "p={p} m={m}: {d}"
            );
            assert_eq!(d.selection, fixed_selection(Collective::Bcast, p, m));
        }
    }
}

/// A straggler plan hurts but does not kill: tuning completes, and the
/// fitted parameters reflect the slower platform.
#[test]
fn straggler_tuning_completes_with_inflated_parameters() {
    let base = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let faulted = base
        .clone()
        .with_faults(FaultPlan::none().with_straggler(TUNE_P - 1, 10.0));
    let healthy = Tuner::new(base, TunerConfig::quick(TUNE_P)).tune();
    let report = Tuner::new(faulted, TunerConfig::quick(TUNE_P))
        .try_tune_collectives(&[Collective::Bcast], Some(&RetryPolicy::default()))
        .expect("a single straggler cannot stall a quiet cluster");
    // Whatever fitted must predict slower broadcasts than the healthy
    // fit for at least the algorithms that funnel through the straggler.
    let fitted = &report.model.collectives[&Collective::Bcast];
    let mut slower = 0usize;
    for (alg, est) in fitted {
        if let Some(h) = healthy.collectives[&Collective::Bcast].get(alg) {
            if est.hockney.alpha + est.hockney.beta > h.hockney.alpha + h.hockney.beta {
                slower += 1;
            }
        }
    }
    assert!(
        slower >= fitted.len() / 2,
        "a 10x straggler should inflate most fits: {slower}/{}",
        fitted.len()
    );
}

/// A run that cannot reach the precision target within the repeat
/// budget returns `PrecisionNotReached` carrying the achieved CI width
/// on the fault-tolerant tier, and the unconverged sample as it stands
/// on the unwatched one — the only place the two tiers differ.
#[test]
fn unreachable_precision_reports_achieved_width() {
    use collsel::coll::Alg;
    use collsel::estim::{measure, try_measure, TimedProgram};
    use collsel::mpi::{Backend, SimError};
    // Heavy multiplicative noise with a tight target and a tiny budget.
    let noisy = ClusterModel::gros().with_noise(NoiseParams::new(0.4));
    let precision = Precision {
        rel_precision: 0.005,
        min_reps: 4,
        max_reps: 8,
    };
    let program = TimedProgram::Collective {
        alg: Alg::Bcast(BcastAlg::Binomial),
        p: 8,
        m: 64 * 1024,
        seg_size: 8 * 1024,
    };
    let err = try_measure(
        &noisy,
        program,
        &precision,
        1234,
        Some(&RetryPolicy::default()),
        Backend::default(),
    )
    .expect_err("sigma=0.4 cannot hit 0.5% precision in 8 reps");
    match err {
        SimError::PrecisionNotReached {
            target,
            achieved,
            samples,
        } => {
            assert_eq!(target, 0.005);
            assert!(achieved > target, "achieved width {achieved} not carried");
            assert!(samples >= 4 && samples <= 8);
        }
        other => panic!("expected PrecisionNotReached, got {other}"),
    }
    let unwatched = measure(&noisy, program, &precision, 1234, Backend::default());
    assert!(!unwatched.converged, "{unwatched:?}");
    assert_eq!(unwatched.n, precision.max_reps);
}

/// Brown-outs are windowed: a transfer outside every window costs the
/// same as on a healthy fabric.
#[test]
fn brownout_only_bites_inside_its_window() {
    let plan = FaultPlan::none().with_brownout(Brownout {
        node: 0,
        start: SimTime::from_nanos(1_000_000),
        end: SimTime::from_nanos(2_000_000),
        slowdown: 10.0,
    });
    assert_eq!(plan.link_factor(0, 1, SimTime::from_nanos(0)), 1.0);
    assert_eq!(plan.link_factor(0, 1, SimTime::from_nanos(1_500_000)), 10.0);
    assert_eq!(plan.link_factor(0, 1, SimTime::from_nanos(3_000_000)), 1.0);
    // Nodes not touching the browned-out node never notice.
    assert_eq!(plan.link_factor(2, 3, SimTime::from_nanos(1_500_000)), 1.0);
}

/// The chaos spec of the CLI grammar parses against both presets and
/// produces a plan that the graceful pipeline survives.
#[test]
fn parsed_chaos_plan_is_survivable() {
    let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let plan = FaultPlan::parse("chaos:99", cluster.nodes()).expect("chaos parses");
    assert!(!plan.is_none());
    let tuner = Tuner::new(cluster.with_faults(plan), TunerConfig::quick(TUNE_P));
    match tuner.try_tune_collectives(&[Collective::Bcast], Some(&RetryPolicy::default())) {
        Ok(report) => {
            let sel = report.degraded_multi_selector();
            let d = sel.decide_for(Collective::Bcast, 64, 1 << 20);
            assert!(d.selection.effective_seg_size(1 << 20) > 0);
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}
