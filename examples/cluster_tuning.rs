//! Cluster tuning end-to-end: tune the model-based selector for a
//! cluster, then pit it against the native Open MPI decision function
//! and the measured best — a miniature of the paper's Table 3.
//!
//! ```text
//! cargo run --release --example cluster_tuning
//! ```

use collsel::coll::{Alg, Collective};
use collsel::estim::{measure, Precision, TimedProgram};
use collsel::mpi::Backend;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::{fixed_selection, CollectiveSelector};
use collsel::{Tuner, TunerConfig};
use std::collections::BTreeMap;

fn main() {
    let cluster = ClusterModel::grisou().with_noise(NoiseParams::OFF);
    let p = 40;
    let seg = 8 * 1024;
    let precision = Precision::quick();
    let bcast_time = |alg, m, seg_size| {
        let program = TimedProgram::Collective {
            alg,
            p,
            m,
            seg_size,
        };
        measure(&cluster, program, &precision, 7, Backend::default()).mean
    };

    println!("tuning model-based selector for {} ...", cluster.name());
    let tuned = Tuner::new(cluster.clone(), TunerConfig::quick(24)).tune();
    let model_sel = tuned.multi_selector();

    println!(
        "\n{:>8} {:>14} {:>18} {:>22}",
        "m", "best", "model-based", "open mpi"
    );
    let mut model_degs = Vec::new();
    let mut ompi_degs = Vec::new();
    for m in [8 * 1024, 64 * 1024, 512 * 1024, 2 << 20] {
        // Measure every algorithm at the paper's fixed 8 KB segments.
        let times: BTreeMap<Alg, f64> = Collective::Bcast
            .algorithms()
            .iter()
            .map(|&alg| (alg, bcast_time(alg, m, seg)))
            .collect();
        let (&best, &best_t) = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();

        let model_pick = model_sel.select_for(Collective::Bcast, p, m).alg;
        let model_deg = 100.0 * (times[&model_pick] - best_t) / best_t;

        let ompi_pick = fixed_selection(Collective::Bcast, p, m);
        let ompi_t = bcast_time(ompi_pick.alg, m, ompi_pick.effective_seg_size(m));
        let ompi_deg = 100.0 * (ompi_t - best_t) / best_t;

        model_degs.push(model_deg);
        ompi_degs.push(ompi_deg);
        println!(
            "{:>8} {:>14} {:>13} (+{:>2.0}%) {:>16} (+{:>3.0}%)",
            m,
            best.name(),
            model_pick.name(),
            model_deg,
            ompi_pick.alg.name(),
            ompi_deg
        );
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean degradation vs best: model-based {:.0}%, open mpi {:.0}%",
        avg(&model_degs),
        avg(&ompi_degs)
    );
    println!("(the paper's claim: the tuned model column stays near zero)");
}
