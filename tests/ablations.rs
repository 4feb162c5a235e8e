//! Ablations of the paper's two innovations, as selection-quality
//! assertions:
//!
//! 1. **Implementation-derived vs traditional models** (innovation #1):
//!    replacing the derived models with textbook models + network-level
//!    parameters must not *improve* selection quality;
//! 2. **Per-algorithm vs shared parameters** (innovation #2): giving
//!    every algorithm the same point-to-point-measured Hockney pair
//!    must not improve selection quality either.
//!
//! Quality is total measured time of the picks across a size sweep (a
//! lower-variance criterion than per-point degradation percentages).

use collsel::coll::{Alg, BcastAlg, Collective};
use collsel::estim::{estimate_network_hockney, measure, Precision, TimedProgram};
use collsel::model::FitValidity;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::{CollectiveModelSelector, CollectiveSelector, TraditionalModelSelector};
use collsel::{Tuner, TunerConfig};
use std::collections::BTreeMap;

const SEG: usize = 8 * 1024;
const P: usize = 32;
const SIZES: [usize; 4] = [8 * 1024, 64 * 1024, 512 * 1024, 2 << 20];

struct Bench {
    cluster: ClusterModel,
    times: BTreeMap<(usize, Alg), f64>,
}

impl Bench {
    fn new() -> Self {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let precision = Precision::quick();
        let mut times = BTreeMap::new();
        for &m in &SIZES {
            for alg in BcastAlg::ALL {
                let program = TimedProgram::Collective {
                    alg: Alg::Bcast(alg),
                    p: P,
                    m,
                    seg_size: SEG,
                };
                let t = measure(&cluster, program, &precision, 5).mean;
                times.insert((m, Alg::Bcast(alg)), t);
            }
        }
        Bench { cluster, times }
    }

    /// Total measured time of a selector's picks across the sweep.
    fn total_time(&self, selector: &dyn CollectiveSelector) -> f64 {
        SIZES
            .iter()
            .map(|&m| self.times[&(m, selector.select_for(Collective::Bcast, P, m).alg)])
            .sum()
    }

    /// Total time of the per-point best picks (the oracle floor).
    fn oracle_time(&self) -> f64 {
        SIZES
            .iter()
            .map(|&m| {
                Collective::Bcast
                    .algorithms()
                    .iter()
                    .map(|&alg| self.times[&(m, alg)])
                    .fold(f64::MAX, f64::min)
            })
            .sum()
    }
}

#[test]
fn full_method_close_to_oracle_and_ablations_not_better() {
    let bench = Bench::new();

    // The full method: derived models + per-algorithm parameters.
    let tuned = Tuner::new(bench.cluster.clone(), TunerConfig::quick(16)).tune();
    let full = tuned.multi_selector();

    // Ablation A (innovation #1 removed): traditional models +
    // network-level parameters.
    let network = estimate_network_hockney(
        &bench.cluster,
        &[1024, 8 * 1024, 64 * 1024, 512 * 1024],
        &Precision::quick(),
        2,
    )
    .hockney;
    let traditional = TraditionalModelSelector::new(network, SEG);

    // Ablation B (innovation #2 removed): derived models but a single
    // shared network-level pair for every algorithm.
    let shared_params: BTreeMap<Alg, _> = Collective::Bcast
        .algorithms()
        .iter()
        .map(|&a| (a, network))
        .collect();
    let validity = shared_params
        .keys()
        .map(|&a| (a, FitValidity::Valid))
        .collect();
    let shared =
        CollectiveModelSelector::new(tuned.gamma.table.clone(), shared_params, validity, SEG);

    let oracle = bench.oracle_time();
    let t_full = bench.total_time(&full);
    let t_trad = bench.total_time(&traditional);
    let t_shared = bench.total_time(&shared);

    // The full method must be near the oracle...
    assert!(
        t_full <= oracle * 1.35,
        "full method {t_full:.6}s vs oracle {oracle:.6}s"
    );
    // ...and neither ablation may beat it meaningfully.
    assert!(
        t_full <= t_trad * 1.05,
        "traditional-models ablation unexpectedly better: {t_trad:.6}s vs {t_full:.6}s"
    );
    assert!(
        t_full <= t_shared * 1.05,
        "shared-parameters ablation unexpectedly better: {t_shared:.6}s vs {t_full:.6}s"
    );
}

#[test]
fn gamma_matters_for_model_quality() {
    // Replacing the measured gamma table with gamma = 1 changes the
    // predicted times of multi-child stages; the resulting predictions
    // must differ (the factor is load-bearing, not decorative).
    let bench = Bench::new();
    let tuned = Tuner::new(bench.cluster.clone(), TunerConfig::quick(16)).tune();
    let with_gamma = tuned.multi_selector();
    let ones = CollectiveModelSelector::new(
        collsel::model::GammaTable::ones(),
        tuned.multi_hockney_table(),
        tuned.multi_validity(),
        SEG,
    );
    let m = 1 << 20;
    let a = with_gamma.ranking(Collective::Bcast, P, m);
    let b = ones.ranking(Collective::Bcast, P, m);
    let moved = a
        .iter()
        .zip(&b)
        .any(|((alg_a, t_a), (alg_b, t_b))| alg_a != alg_b || (t_a - t_b).abs() > 1e-12);
    assert!(moved, "gamma table should influence predictions");
}
