//! Network-level Hockney estimation from point-to-point round-trips.
//!
//! This is the *traditional* parameter measurement (Hockney 1994): fit
//! `T(m) = α + β·m` to one-way times obtained from ping-pong
//! experiments. The paper's prior-work models (our
//! [`collsel_model::traditional`] family) are evaluated with these
//! network-level parameters; the contrast with the per-algorithm
//! parameters of Sect. 4.2 is the heart of the paper.

use crate::measure::{measure, TimedProgram};
use crate::regress::ols;
use crate::stats::{Precision, SampleStats};
use collsel_model::Hockney;
use collsel_mpi::Backend;
use collsel_netsim::ClusterModel;

/// Result of the network-level Hockney measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkHockneyEstimate {
    /// The fitted network-level pair.
    pub hockney: Hockney,
    /// Per-size one-way time measurements.
    pub samples: Vec<(usize, SampleStats)>,
}

/// Measures one-way point-to-point times for each size and fits the
/// Hockney line by ordinary least squares.
///
/// # Panics
///
/// Panics if fewer than two sizes are given.
pub fn estimate_network_hockney(
    cluster: &ClusterModel,
    sizes: &[usize],
    precision: &Precision,
    seed: u64,
) -> NetworkHockneyEstimate {
    assert!(sizes.len() >= 2, "need at least two sizes to fit a line");
    let samples: Vec<(usize, SampleStats)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let cell_seed = seed.wrapping_add(i as u64 * 131);
            let program = TimedProgram::P2p { m };
            (
                m,
                measure(cluster, program, precision, cell_seed, Backend::default()),
            )
        })
        .collect();
    let xs: Vec<f64> = samples.iter().map(|&(m, _)| m as f64).collect();
    let ys: Vec<f64> = samples.iter().map(|(_, s)| s.mean).collect();
    let fit = ols(&xs, &ys);
    NetworkHockneyEstimate {
        hockney: Hockney::new(fit.intercept.max(0.0), fit.slope.max(0.0)),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    #[test]
    fn recovers_configured_bandwidth_approximately() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let est = estimate_network_hockney(
            &cluster,
            &[1024, 4096, 16 * 1024, 48 * 1024],
            &Precision::quick(),
            1,
        );
        // Gros: 25 Gbps = 3.125 GB/s -> beta = 0.32 ns/B.
        let beta_true = 1.0 / cluster.bandwidth();
        let ratio = est.hockney.beta / beta_true;
        assert!(
            (0.7..1.5).contains(&ratio),
            "beta {} vs true {beta_true}",
            est.hockney.beta
        );
        // Alpha should be on the order of the one-way latency.
        assert!(est.hockney.alpha > 1e-6);
        assert!(est.hockney.alpha < 1e-3);
    }

    #[test]
    fn keeps_per_size_samples() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let est = estimate_network_hockney(&cluster, &[1024, 8192], &Precision::quick(), 2);
        assert_eq!(est.samples.len(), 2);
        assert!(est.samples[1].1.mean > est.samples[0].1.mean);
    }

    #[test]
    #[should_panic(expected = "at least two sizes")]
    fn rejects_single_size() {
        let cluster = ClusterModel::gros();
        let _ = estimate_network_hockney(&cluster, &[1024], &Precision::quick(), 0);
    }
}
