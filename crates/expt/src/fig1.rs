//! Fig. 1: traditional analytical models vs experimental curves.
//!
//! The paper's motivating figure: the textbook models of the binary and
//! binomial broadcast algorithms, fed with network-level Hockney
//! parameters from point-to-point experiments, against the measured
//! execution times at P = 90 on Grisou. The traditional binomial model
//! (⌈log₂P⌉ rounds of the full message) misses the segmented
//! implementation entirely.

use crate::config::Scenario;
use crate::plot::{ascii_chart, Series};
use crate::report::{format_csv, format_table, size_label};
use collsel::coll::{Alg, BcastAlg};
use collsel::estim::{estimate_network_hockney, measure, NetworkHockneyEstimate, TimedProgram};
use collsel::model::traditional;
use collsel::mpi::Backend;

/// One message size of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Point {
    /// Message size in bytes.
    pub m: usize,
    /// Measured binary-tree time (seconds).
    pub measured_binary: f64,
    /// Traditional model prediction for the binary tree.
    pub predicted_binary: f64,
    /// Measured binomial-tree time.
    pub measured_binomial: f64,
    /// Traditional model prediction for the binomial tree.
    pub predicted_binomial: f64,
}

/// The regenerated Fig. 1 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// Cluster the experiment ran on.
    pub cluster: String,
    /// Process count (the paper: 90).
    pub p: usize,
    /// Network-level Hockney parameters driving the predictions.
    pub network_alpha: f64,
    /// Reciprocal bandwidth of the network-level fit.
    pub network_beta: f64,
    /// One point per message size.
    pub points: Vec<Fig1Point>,
}

impl Fig1Result {
    /// Maximum over-/under-estimation factor of the traditional
    /// binomial model across the sweep (`max(pred/meas, meas/pred)`).
    pub fn binomial_worst_factor(&self) -> f64 {
        self.points
            .iter()
            .map(|pt| {
                let r = pt.predicted_binomial / pt.measured_binomial;
                r.max(1.0 / r)
            })
            .fold(1.0, f64::max)
    }

    /// Maximum over-/under-estimation factor of the traditional binary
    /// model across the sweep. The textbook model assumes two
    /// *serialized* sends per stage and a full point-to-point latency
    /// per segment, both of which the pipelined non-blocking
    /// implementation avoids — this is the factor that blows up.
    pub fn binary_worst_factor(&self) -> f64 {
        self.points
            .iter()
            .map(|pt| {
                let r = pt.predicted_binary / pt.measured_binary;
                r.max(1.0 / r)
            })
            .fold(1.0, f64::max)
    }

    /// Number of sweep points where the traditional models rank binary
    /// and binomial *opposite* to the measurement — the
    /// selection-relevant failure the paper demonstrates.
    pub fn ordering_inversions(&self) -> usize {
        self.points
            .iter()
            .filter(|pt| {
                let predicted_binary_wins = pt.predicted_binary < pt.predicted_binomial;
                let measured_binary_wins = pt.measured_binary < pt.measured_binomial;
                predicted_binary_wins != measured_binary_wins
            })
            .count()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.points
            .iter()
            .map(|pt| {
                vec![
                    size_label(pt.m),
                    format!("{:.6}", pt.measured_binary),
                    format!("{:.6}", pt.predicted_binary),
                    format!("{:.6}", pt.measured_binomial),
                    format!("{:.6}", pt.predicted_binomial),
                ]
            })
            .collect()
    }

    /// Renders the aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "Fig. 1 — traditional models vs experiment ({}, P = {})\n\
             network-level Hockney: alpha = {:.3e} s, beta = {:.3e} s/B\n\n",
            self.cluster, self.p, self.network_alpha, self.network_beta
        );
        out.push_str(&format_table(
            &[
                "m",
                "binary measured(s)",
                "binary trad-model(s)",
                "binomial measured(s)",
                "binomial trad-model(s)",
            ],
            &self.rows(),
        ));
        out.push_str(&format!(
            "\ntraditional models off by up to {:.1}x (binary) / {:.1}x (binomial); \
             binary-vs-binomial ordering wrong at {}/{} sizes (the paper's point)\n\n",
            self.binary_worst_factor(),
            self.binomial_worst_factor(),
            self.ordering_inversions(),
            self.points.len(),
        ));
        let pick = |f: fn(&Fig1Point) -> f64| -> Vec<(f64, f64)> {
            self.points
                .iter()
                .map(|pt| (pt.m as f64, f(pt).max(1e-12)))
                .collect()
        };
        let series = [
            Series::new("binary measured", 'B', pick(|pt| pt.measured_binary)),
            Series::new("binary model", 'b', pick(|pt| pt.predicted_binary)),
            Series::new("binomial measured", 'N', pick(|pt| pt.measured_binomial)),
            Series::new("binomial model", 'n', pick(|pt| pt.predicted_binomial)),
        ];
        out.push_str(&ascii_chart(
            &format!("Fig. 1 ({}, P = {})", self.cluster, self.p),
            &series,
            64,
            16,
        ));
        out
    }

    /// Renders the CSV artifact.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.m.to_string(),
                    format!("{:e}", pt.measured_binary),
                    format!("{:e}", pt.predicted_binary),
                    format!("{:e}", pt.measured_binomial),
                    format!("{:e}", pt.predicted_binomial),
                ]
            })
            .collect();
        format_csv(
            &[
                "m_bytes",
                "binary_measured_s",
                "binary_traditional_s",
                "binomial_measured_s",
                "binomial_traditional_s",
            ],
            &rows,
        )
    }
}

/// Regenerates Fig. 1 on a scenario at process count `p`.
pub fn run_fig1(scenario: &Scenario, p: usize, seed: u64) -> Fig1Result {
    let NetworkHockneyEstimate { hockney, .. } = estimate_network_hockney(
        &scenario.cluster,
        &[1024, 8 * 1024, 64 * 1024, 512 * 1024],
        &scenario.precision,
        seed,
    );
    let mut points = Vec::with_capacity(scenario.msg_sizes.len());
    for (i, &m) in scenario.msg_sizes.iter().enumerate() {
        let s = seed.wrapping_add((i as u64 + 1) * 10_007);
        let measured = |alg, seed| {
            let program = TimedProgram::Collective {
                alg: Alg::Bcast(alg),
                p,
                m,
                seg_size: scenario.seg_size,
            };
            measure(
                &scenario.cluster,
                program,
                &scenario.precision,
                seed,
                Backend::default(),
            )
            .mean
        };
        let measured_binary = measured(BcastAlg::Binary, s);
        let measured_binomial = measured(BcastAlg::Binomial, s.wrapping_add(1));
        points.push(Fig1Point {
            m,
            measured_binary,
            predicted_binary: traditional::predict_bcast(
                BcastAlg::Binary,
                p,
                m,
                scenario.seg_size,
                &hockney,
            ),
            measured_binomial,
            predicted_binomial: traditional::predict_bcast(
                BcastAlg::Binomial,
                p,
                m,
                scenario.seg_size,
                &hockney,
            ),
        });
    }
    Fig1Result {
        cluster: scenario.cluster.name().to_owned(),
        p,
        network_alpha: hockney.alpha,
        network_beta: hockney.beta,
        points,
    }
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(Fig1Point {
    m,
    measured_binary,
    predicted_binary,
    measured_binomial,
    predicted_binomial
});
collsel_support::json_struct!(Fig1Result {
    cluster,
    p,
    network_alpha,
    network_beta,
    points
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{scenarios, Fidelity};
    use collsel::netsim::NoiseParams;

    #[test]
    fn fig1_shows_traditional_model_error() {
        // The traditional models' blind spots (per-segment overheads,
        // NIC contention at the root) grow with P and message size, so
        // probe Fig. 1 at a paper-like scale.
        let mut sc = scenarios(Fidelity::Quick).remove(0);
        sc.cluster = sc.cluster.with_noise(NoiseParams::OFF);
        sc.msg_sizes = vec![8 * 1024, 4 * 1024 * 1024];
        let fig1 = run_fig1(&sc, 90, 1);
        assert_eq!(fig1.points.len(), 2);
        // The traditional binary model (serialized sends, per-segment
        // latency) must misestimate the pipelined implementation badly.
        assert!(
            fig1.binary_worst_factor() > 2.0,
            "binary worst factor {}",
            fig1.binary_worst_factor()
        );
        // And the binary/binomial ranking must come out wrong somewhere
        // — the selection-relevant failure of the traditional models.
        assert!(
            fig1.ordering_inversions() >= 1,
            "expected at least one ordering inversion"
        );
        let text = fig1.to_text();
        assert!(text.contains("Fig. 1"));
        assert!(text.contains("8KB"));
        let csv = fig1.to_csv();
        assert!(csv.lines().count() == 3);
    }
}
