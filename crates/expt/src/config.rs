//! Experiment configuration: fidelity levels and the two cluster
//! scenarios of the paper.

use collsel::estim::{log_spaced_sizes, Precision};
use collsel::mpi::Backend;
use collsel::netsim::ClusterModel;
use collsel::TunerConfig;

/// How faithfully to reproduce the paper's experiment scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The paper's scales: 10 log-spaced sizes 8 KB–4 MB, Grisou runs
    /// at 50/80/90 processes, Gros at 80/100/124, MPIBlib precision.
    /// Takes minutes in release mode.
    Paper,
    /// Reduced scales for smoke runs and CI: fewer sizes, smaller
    /// process counts, loose precision. Seconds instead of minutes.
    Quick,
}

/// One experimental platform: a cluster plus the process counts the
/// paper evaluates on it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulated cluster.
    pub cluster: ClusterModel,
    /// Process count used for the α/β estimation experiments
    /// (the paper: 40 on Grisou, 124 on Gros).
    pub tune_p: usize,
    /// Process counts of the Fig. 5 panels.
    pub fig5_ps: Vec<usize>,
    /// The process count of this cluster's Table 3 column
    /// (90 on Grisou, 100 on Gros).
    pub table3_p: usize,
    /// Message sizes of the sweeps.
    pub msg_sizes: Vec<usize>,
    /// Measurement stopping rule.
    pub precision: Precision,
    /// Fixed segment size for the model-based and oracle runs.
    pub seg_size: usize,
    /// Execution backend of every measurement in this scenario (tuning
    /// and sweeps); both backends are bit-identical.
    pub backend: Backend,
}

impl Scenario {
    /// The tuner configuration for this scenario: every stage measures
    /// on the scenario's backend.
    pub fn tuner_config(&self, fidelity: Fidelity) -> TunerConfig {
        let cfg = match fidelity {
            Fidelity::Paper => TunerConfig::paper(self.tune_p),
            Fidelity::Quick => {
                let mut cfg = TunerConfig::quick(self.tune_p);
                cfg.gamma.max_width = 7;
                cfg
            }
        };
        cfg.with_backend(self.backend)
    }
}

/// The two platforms of the paper's evaluation, at the requested
/// fidelity.
pub fn scenarios(fidelity: Fidelity) -> Vec<Scenario> {
    match fidelity {
        Fidelity::Paper => vec![
            Scenario {
                cluster: ClusterModel::grisou(),
                // The paper tunes Grisou with 40 processes (half the
                // evaluated maximum). On the simulated Grisou the
                // interesting contention regime only starts once both
                // CPUs of a node are populated (P > 51), so the
                // estimation experiments run at the evaluation density
                // instead — the paper's own principle of estimating
                // parameters in the algorithm's execution context.
                tune_p: 80,
                fig5_ps: vec![50, 80, 90],
                table3_p: 90,
                msg_sizes: log_spaced_sizes(8 * 1024, 4 * 1024 * 1024, 10),
                precision: Precision::paper(),
                seg_size: 8 * 1024,
                backend: Backend::default(),
            },
            Scenario {
                cluster: ClusterModel::gros(),
                tune_p: 124,
                fig5_ps: vec![80, 100, 124],
                table3_p: 100,
                msg_sizes: log_spaced_sizes(8 * 1024, 4 * 1024 * 1024, 10),
                precision: Precision::paper(),
                seg_size: 8 * 1024,
                backend: Backend::default(),
            },
        ],
        Fidelity::Quick => vec![
            Scenario {
                cluster: ClusterModel::grisou(),
                tune_p: 16,
                fig5_ps: vec![24],
                table3_p: 24,
                msg_sizes: log_spaced_sizes(8 * 1024, 1024 * 1024, 5),
                precision: Precision::quick(),
                seg_size: 8 * 1024,
                backend: Backend::default(),
            },
            Scenario {
                cluster: ClusterModel::gros(),
                tune_p: 24,
                fig5_ps: vec![32],
                table3_p: 32,
                msg_sizes: log_spaced_sizes(8 * 1024, 1024 * 1024, 5),
                precision: Precision::quick(),
                seg_size: 8 * 1024,
                backend: Backend::default(),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_match_the_papers_setup() {
        let s = scenarios(Fidelity::Paper);
        assert_eq!(s.len(), 2);
        let grisou = &s[0];
        assert_eq!(grisou.cluster.name(), "grisou");
        assert_eq!(grisou.tune_p, 80);
        assert_eq!(grisou.fig5_ps, vec![50, 80, 90]);
        assert_eq!(grisou.table3_p, 90);
        assert_eq!(grisou.msg_sizes.len(), 10);
        assert_eq!(grisou.msg_sizes[0], 8 * 1024);
        assert_eq!(grisou.msg_sizes[9], 4 * 1024 * 1024);
        let gros = &s[1];
        assert_eq!(gros.tune_p, 124);
        assert_eq!(gros.table3_p, 100);
    }

    #[test]
    fn quick_scenarios_fit_their_clusters() {
        for sc in scenarios(Fidelity::Quick) {
            assert!(sc.tune_p <= sc.cluster.max_ranks());
            for &p in &sc.fig5_ps {
                assert!(p <= sc.cluster.max_ranks());
            }
            assert!(sc.fig5_ps.contains(&sc.table3_p));
        }
    }

    #[test]
    fn tuner_config_uses_scenario_p() {
        let sc = &scenarios(Fidelity::Quick)[0];
        let cfg = sc.tuner_config(Fidelity::Quick);
        assert_eq!(cfg.alpha_beta.p, sc.tune_p);
        assert_eq!(cfg.gamma.max_width, 7);
        for fidelity in [Fidelity::Paper, Fidelity::Quick] {
            let threads = Scenario {
                backend: Backend::Threads,
                ..scenarios(fidelity)[0].clone()
            };
            let cfg = threads.tuner_config(fidelity);
            assert_eq!(cfg.gamma.backend, Backend::Threads, "{fidelity:?}");
            assert_eq!(cfg.alpha_beta.backend, Backend::Threads, "{fidelity:?}");
            assert_eq!(cfg.breadth.backend, Backend::Threads, "{fidelity:?}");
        }
    }
}
