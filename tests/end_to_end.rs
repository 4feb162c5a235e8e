//! Cross-crate integration: the full pipeline from cluster description
//! to runtime selection, exercised through the `collsel` facade.

use collsel::coll::{bcast, Alg, BcastAlg, Collective};
use collsel::estim::{measure, Precision, TimedProgram};
use collsel::mpi::simulate;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::{fixed_selection, CollSelection, CollectiveSelector};
use collsel::{Tuner, TunerConfig};
use collsel_support::Bytes;

fn quiet_gros() -> ClusterModel {
    ClusterModel::gros().with_noise(NoiseParams::OFF)
}

/// Mean measured time of one broadcast configuration at quick precision.
fn bcast_mean(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    seed: u64,
) -> f64 {
    let program = TimedProgram::Collective {
        alg: Alg::Bcast(alg),
        p,
        m,
        seg_size,
    };
    measure(cluster, program, &Precision::quick(), seed).mean
}

/// The broadcast algorithm of a broadcast selection.
fn bcast_alg(pick: CollSelection) -> BcastAlg {
    match pick.alg {
        Alg::Bcast(alg) => alg,
        other => panic!("a broadcast decision picked {}", other.qualified_name()),
    }
}

#[test]
fn tuned_selector_beats_openmpi_on_average() {
    // A miniature of the paper's headline result: across a size sweep,
    // the tuned model-based picks degrade less (vs the measured best at
    // 8 KB segments) than the native Open MPI picks.
    let cluster = quiet_gros();
    let p = 32;
    let seg = 8 * 1024;

    let tuned = Tuner::new(cluster.clone(), TunerConfig::quick(16)).tune();
    let model_sel = tuned.multi_selector();

    let mut model_total = 0.0;
    let mut ompi_total = 0.0;
    let mut best_total = 0.0;
    for m in [8 * 1024, 64 * 1024, 512 * 1024, 2 << 20] {
        let mut best = f64::MAX;
        let mut by_alg = std::collections::BTreeMap::new();
        for alg in BcastAlg::ALL {
            let t = bcast_mean(&cluster, alg, p, m, seg, 11);
            best = best.min(t);
            by_alg.insert(alg, t);
        }
        let model_t = by_alg[&bcast_alg(model_sel.select_for(Collective::Bcast, p, m))];
        let ompi_pick = fixed_selection(Collective::Bcast, p, m);
        let ompi_t = bcast_mean(
            &cluster,
            bcast_alg(ompi_pick),
            p,
            m,
            ompi_pick.effective_seg_size(m),
            11,
        );
        model_total += model_t;
        ompi_total += ompi_t;
        best_total += best;
    }
    assert!(
        model_total < ompi_total,
        "model-based ({model_total:.6}s) should beat Open MPI ({ompi_total:.6}s) in total"
    );
    assert!(
        model_total < best_total * 1.5,
        "model-based ({model_total:.6}s) should be near the best ({best_total:.6}s)"
    );
}

#[test]
fn tuned_selection_runs_the_selected_algorithm() {
    // Selection feeds straight into execution: broadcast with whatever
    // the tuned selector picks and verify delivery.
    let cluster = quiet_gros();
    let tuned = Tuner::new(cluster.clone(), TunerConfig::quick(12)).tune();
    let selector = tuned.multi_selector();
    let p = 24;
    let m = 96 * 1024;
    let pick = selector.select_for(Collective::Bcast, p, m);
    let alg = bcast_alg(pick);
    let payload = Bytes::from((0..m).map(|i| (i % 241) as u8).collect::<Vec<_>>());
    let expected = payload.clone();
    let out = simulate(&cluster, p, 3, move |ctx| {
        let msg = (ctx.rank() == 0).then(|| payload.clone());
        bcast(ctx, alg, 0, msg, m, pick.effective_seg_size(m))
    })
    .unwrap();
    assert!(out.results.iter().all(|r| r == &expected));
}

#[test]
fn gamma_estimates_are_stable_across_seeds() {
    // With noise on, two estimations with different seeds must agree
    // within the measurement methodology's tolerance.
    let cluster = ClusterModel::gros(); // noise on
    let cfg = collsel::estim::GammaConfig {
        max_width: 5,
        ..collsel::estim::GammaConfig::quick()
    };
    let a = collsel::estim::estimate_gamma(&cluster, &cfg, 1).table;
    let b = collsel::estim::estimate_gamma(&cluster, &cfg, 99).table;
    for p in 3..=5 {
        let (ga, gb) = (a.gamma(p), b.gamma(p));
        assert!(
            (ga - gb).abs() / ga < 0.15,
            "gamma({p}) unstable: {ga} vs {gb}"
        );
    }
}

#[test]
fn facade_reexports_are_wired() {
    // Spot-check that every layer is reachable through the facade.
    let _ = collsel::netsim::ClusterModel::grisou();
    let _ = collsel::coll::BcastAlg::ALL;
    let _ = collsel::model::GammaTable::ones();
    let _ = collsel::estim::Precision::paper();
    let _ = collsel::select::OpenMpiCollectiveSelector;
}

#[test]
fn two_clusters_get_different_tuned_parameters() {
    // The whole point of platform-specific tuning: Grisou and Gros must
    // not produce identical parameter tables.
    let grisou = Tuner::new(
        ClusterModel::grisou().with_noise(NoiseParams::OFF),
        TunerConfig::quick(12),
    )
    .tune();
    let gros = Tuner::new(quiet_gros(), TunerConfig::quick(12)).tune();
    let diff = BcastAlg::ALL.iter().any(|&b| {
        let alg = Alg::Bcast(b);
        let a = grisou.collectives[&Collective::Bcast][&alg].hockney;
        let b = gros.collectives[&Collective::Bcast][&alg].hockney;
        (a.alpha - b.alpha).abs() > 1e-12 || (a.beta - b.beta).abs() > 1e-15
    });
    assert!(diff, "clusters should tune differently");
    // And gamma should reflect the bandwidth-latency ratio difference.
    assert!(grisou.gamma.table.gamma(7) > gros.gamma.table.gamma(7));
}

#[test]
fn tuner_handles_oversubscribed_rack_topologies() {
    use collsel::netsim::SimSpan;
    // A fat-tree-ish platform: 32 nodes in racks of 8, 4x oversubscribed.
    let cluster = collsel::netsim::ClusterModel::builder("racked", 32)
        .bandwidth_gbps(10.0)
        .wire_latency(SimSpan::from_micros(20))
        .racks(8, 4.0, SimSpan::from_micros(5))
        .noise(NoiseParams::OFF)
        .build();
    let model = Tuner::new(cluster.clone(), TunerConfig::quick(16)).tune();
    let selector = model.multi_selector();
    // The tuned selector must produce a valid pick and the pick must
    // actually run on the racked platform.
    let pick = selector.select_for(Collective::Bcast, 32, 256 * 1024);
    let alg = bcast_alg(pick);
    let m = 256 * 1024;
    let payload = Bytes::from(vec![9u8; m]);
    let expected = payload.clone();
    let out = simulate(&cluster, 32, 5, move |ctx| {
        let msg = (ctx.rank() == 0).then(|| payload.clone());
        bcast(ctx, alg, 0, msg, m, pick.effective_seg_size(m))
    })
    .unwrap();
    assert!(out.results.iter().all(|r| r == &expected));
    // Oversubscription must slow the flat linear broadcast relative to
    // the same cluster without racks (it floods cross-rack links).
    let flat = collsel::netsim::ClusterModel::builder("flat", 32)
        .bandwidth_gbps(10.0)
        .wire_latency(SimSpan::from_micros(20))
        .noise(NoiseParams::OFF)
        .build();
    let t_racked = bcast_mean(&cluster, BcastAlg::Linear, 32, 1 << 20, 8 * 1024, 3);
    let t_flat = bcast_mean(&flat, BcastAlg::Linear, 32, 1 << 20, 8 * 1024, 3);
    assert!(
        t_racked > t_flat,
        "oversubscription should cost: racked {t_racked} vs flat {t_flat}"
    );
}
