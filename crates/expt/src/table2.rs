//! Table 2: per-algorithm (α, β), estimated with the Sect. 4.2
//! procedure on both clusters, next to the paper's published values.
//!
//! Absolute values are not expected to match the paper (different
//! platform, even in shape), but two structural properties should hold:
//! the parameters differ *across algorithms* on one platform (the
//! context-dependence the paper demonstrates), and the full tuned model
//! is what drives Fig. 5 / Table 3.

use crate::config::{Fidelity, Scenario};
use crate::paper_ref::{TABLE2_GRISOU, TABLE2_GROS};
use crate::report::{format_csv, format_table};
use collsel::coll::{Alg, Collective};
use collsel::{TunedModel, Tuner};

/// The regenerated Table 2: one tuned model per cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Tuned models, in scenario order (Grisou, Gros).
    pub models: Vec<TunedModel>,
}

impl Table2Result {
    /// The tuned model for a cluster, by name.
    pub fn model(&self, cluster: &str) -> Option<&TunedModel> {
        self.models.iter().find(|m| m.cluster_name == cluster)
    }

    fn paper_ref(cluster: &str, alg: Alg) -> Option<(f64, f64)> {
        let table = match cluster {
            "grisou" => &TABLE2_GRISOU,
            "gros" => &TABLE2_GROS,
            _ => return None,
        };
        table
            .iter()
            .find(|&&(a, _, _)| Alg::Bcast(a) == alg)
            .map(|&(_, alpha, beta)| (alpha, beta))
    }

    fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for model in &self.models {
            for (&alg, est) in &model.collectives[&Collective::Bcast] {
                let (pa, pb) = Self::paper_ref(&model.cluster_name, alg)
                    .map_or(("-".into(), "-".into()), |(a, b)| {
                        (format!("{a:.1e}"), format!("{b:.1e}"))
                    });
                rows.push(vec![
                    model.cluster_name.clone(),
                    alg.name().to_owned(),
                    format!("{:.3e}", est.hockney.alpha),
                    format!("{:.3e}", est.hockney.beta),
                    pa,
                    pb,
                ]);
            }
        }
        rows
    }

    /// Renders the aligned text table.
    pub fn to_text(&self) -> String {
        format!(
            "Table 2 — per-algorithm Hockney parameters\n\n{}",
            format_table(
                &[
                    "cluster",
                    "algorithm",
                    "alpha(s) ours",
                    "beta(s/B) ours",
                    "alpha paper",
                    "beta paper",
                ],
                &self.rows(),
            )
        )
    }

    /// Renders the CSV artifact.
    pub fn to_csv(&self) -> String {
        format_csv(
            &[
                "cluster",
                "algorithm",
                "alpha_ours",
                "beta_ours",
                "alpha_paper",
                "beta_paper",
            ],
            &self.rows(),
        )
    }
}

/// Regenerates Table 2 by running the full tuner on every scenario.
pub fn run_table2(scenarios: &[Scenario], fidelity: Fidelity) -> Table2Result {
    let models = scenarios
        .iter()
        .map(|sc| Tuner::new(sc.cluster.clone(), sc.tuner_config(fidelity)).tune())
        .collect();
    Table2Result { models }
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(Table2Result { models });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::scenarios;
    use collsel::netsim::NoiseParams;

    #[test]
    fn table2_produces_six_rows_per_cluster() {
        let mut scs = scenarios(Fidelity::Quick);
        for sc in &mut scs {
            sc.cluster = sc.cluster.clone().with_noise(NoiseParams::OFF);
        }
        let t2 = run_table2(&scs, Fidelity::Quick);
        assert_eq!(t2.models.len(), 2);
        for model in &t2.models {
            assert_eq!(model.collectives[&Collective::Bcast].len(), 6);
        }
        // Context-dependence: on each cluster, the six algorithms must
        // not all share one beta.
        for model in &t2.models {
            let betas: Vec<f64> = model.collectives[&Collective::Bcast]
                .values()
                .map(|e| e.hockney.beta)
                .collect();
            let min = betas.iter().cloned().fold(f64::MAX, f64::min);
            let max = betas.iter().cloned().fold(0.0_f64, f64::max);
            assert!(
                max > min * 1.05,
                "betas should differ across algorithms: {betas:?}"
            );
        }
        let text = t2.to_text();
        assert!(text.contains("binomial"));
        assert_eq!(t2.to_csv().lines().count(), 13);
    }
}
