//! Measured validation of the joint (algorithm, segment size)
//! selection — the paper's out-of-scope extension.

use collsel::coll::Collective;
use collsel::estim::{measure, Precision, TimedProgram};
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::{CollSelection, CollectiveSelector};
use collsel::{Tuner, TunerConfig};

#[test]
fn swept_segment_choice_is_competitive_when_measured() {
    let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let p = 24;
    let tuned = Tuner::new(cluster.clone(), TunerConfig::quick(16)).tune();
    let selector = tuned.multi_selector();
    let candidates = [2 * 1024, 8 * 1024, 32 * 1024];
    let precision = Precision::quick();

    for m in [64 * 1024, 1 << 20] {
        let fixed = selector.select_for(Collective::Bcast, p, m);
        let swept = selector.select_with_segment_sweep(Collective::Bcast, p, m, &candidates);
        let measured = |pick: &CollSelection| {
            let program = TimedProgram::Collective {
                alg: pick.alg,
                p,
                m,
                seg_size: pick.effective_seg_size(m),
            };
            measure(&cluster, program, &precision, 3).mean
        };
        let t_fixed = measured(&fixed);
        let t_swept = measured(&swept);
        // The swept choice is model-optimal; measured, it must not be
        // meaningfully worse than the fixed-8KB choice.
        assert!(
            t_swept <= t_fixed * 1.25,
            "m={m}: swept ({}, {:?}) {t_swept} vs fixed ({}, {:?}) {t_fixed}",
            swept.alg,
            swept.seg_size,
            fixed.alg,
            fixed.seg_size
        );
    }
}
