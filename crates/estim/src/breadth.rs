//! Per-collective (α, β) estimation — the Sect. 4.2 methodology
//! widened from broadcast to all seven collectives.
//!
//! For each algorithm of a collective, a sweep of payload sizes is
//! measured with the *modelled algorithm itself* as the timed program
//! ([`TimedProgram::Collective`]); every size contributes one linear
//! equation `a_i·α + b_i·β = T_i` with the coefficients read off the
//! implementation-derived model of that algorithm
//! ([`collsel_model::collectives::coefficients`]), canonicalised to
//! `α + x_i·β = y_i` and solved with the Huber robust regressor — the
//! same system shape as the broadcast pipeline's Fig. 4, without the
//! appended gather stage. Conditioning instead comes from the size
//! range: the sweep spans payloads *below* the segment size, where a
//! segmented algorithm runs a single segment and the canonical abscissa
//! `x = b/a` tracks `m` freely — above `m_s` the per-stage size pins to
//! the segment and `x` saturates near `m_s` (which is why the broadcast
//! pipeline needed the appended gather for conditioning). The default
//! configs therefore pair a *coarse estimation segment* (64 KB) with
//! sizes reaching well below it, so `x` spans almost two decades and β
//! separates cleanly from α; the fitted pair is segment-independent and
//! serves predictions at any runtime segment size.
//!
//! The result type is the broadcast pipeline's [`AlphaBetaEstimate`]
//! (its [`ExperimentPoint::gather_size`] is 0 here), so fit-validity
//! judgement, JSON persistence and the graceful-degradation path are
//! shared unchanged.

use crate::alpha_beta::{AlphaBetaEstimate, ExperimentPoint};
use crate::measure::{measure_batch, try_measure_batch, RetryPolicy, TimedProgram};
use crate::regress::huber_default;
use crate::stats::{Precision, SampleStats};
use collsel_coll::{Alg, Collective};
use collsel_model::{collectives, GammaTable, Hockney};
use collsel_mpi::{Backend, SimError};
use collsel_netsim::ClusterModel;
use collsel_support::pool::Pool;
use std::collections::BTreeMap;

/// The breadth campaigns' estimation segment size (64 KB, coarse so
/// the sub-segment payload sizes condition the fit — see the module
/// docs). Decision serving evaluates the non-broadcast models at this
/// same segment size, keeping prediction consistent with estimation.
pub const BREADTH_SEG_SIZE: usize = 64 * 1024;

/// Configuration of a per-collective estimation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BreadthConfig {
    /// Pipeline segment size `m_s` for segmented algorithms.
    pub seg_size: usize,
    /// Payload sizes swept per algorithm
    /// ([`run_collective`](collsel_coll::run_collective)'s convention).
    pub msg_sizes: Vec<usize>,
    /// Number of processes in the experiments.
    pub p: usize,
    /// Stopping rule per measurement.
    pub precision: Precision,
    /// Execution backend of the measurement simulations.
    pub backend: Backend,
}

impl BreadthConfig {
    /// The paper-scale configuration: a 64 KB estimation segment with
    /// 10 log-spaced sizes in 1 KB..4 MB (the sub-segment sizes
    /// condition the fit, see the module docs).
    pub fn paper(p: usize) -> Self {
        BreadthConfig {
            seg_size: BREADTH_SEG_SIZE,
            msg_sizes: crate::alpha_beta::log_spaced_sizes(1024, 4 * 1024 * 1024, 10),
            p,
            precision: Precision::paper(),
            backend: Backend::default(),
        }
    }

    /// A small, fast configuration for tests.
    pub fn quick(p: usize) -> Self {
        BreadthConfig {
            seg_size: BREADTH_SEG_SIZE,
            msg_sizes: crate::alpha_beta::log_spaced_sizes(1024, 512 * 1024, 5),
            p,
            precision: Precision::quick(),
            backend: Backend::default(),
        }
    }

    fn validate(&self) {
        assert!(self.seg_size > 0, "segment size must be positive");
        assert!(self.p >= 2, "experiments need at least two processes");
        assert!(
            self.msg_sizes.len() >= 2,
            "need at least two experiments to fit two parameters"
        );
    }
}

/// The measurement cells of one algorithm's sweep, in size order, with
/// the same per-point seed derivation as the broadcast pipeline.
fn collective_cells(alg: Alg, cfg: &BreadthConfig, seed: u64) -> Vec<(TimedProgram, u64)> {
    cfg.msg_sizes
        .iter()
        .enumerate()
        .map(|(idx, &m)| {
            let program = TimedProgram::Collective {
                alg,
                p: cfg.p,
                m,
                seg_size: cfg.seg_size,
            };
            (program, seed.wrapping_add(idx as u64 * 7919))
        })
        .collect()
}

/// The whole algorithm × size grid of a family as one batch, algorithm
/// by algorithm (the pool load-balances across all cells at once).
fn family_cells(algs: &[Alg], cfg: &BreadthConfig, seed: u64) -> Vec<(TimedProgram, u64)> {
    algs.iter()
        .enumerate()
        .flat_map(|(i, &alg)| collective_cells(alg, cfg, seed.wrapping_add((i as u64) << 32)))
        .collect()
}

/// Canonicalises the measured cells against `alg`'s model and fits
/// (α, β); `measured` is in size order.
fn fit_from_measurements(
    alg: Alg,
    cfg: &BreadthConfig,
    gamma: &GammaTable,
    measured: Vec<SampleStats>,
) -> AlphaBetaEstimate {
    let points: Vec<ExperimentPoint> = cfg
        .msg_sizes
        .iter()
        .zip(measured)
        .map(|(&m, measured)| {
            let coeff = collectives::coefficients(alg, cfg.p, m, cfg.seg_size, gamma);
            let (x, y) = coeff.canonicalise(measured.mean);
            ExperimentPoint {
                msg_size: m,
                gather_size: 0,
                x,
                y,
                measured,
            }
        })
        .collect();
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    let fit = huber_default(&xs, &ys);
    AlphaBetaEstimate {
        hockney: Hockney::new(fit.intercept.max(0.0), fit.slope.max(0.0)),
        points,
    }
}

/// Runs the estimation sweep for one algorithm of any collective and
/// fits its (α, β). Negative fitted values are clamped to zero, as in
/// the broadcast pipeline.
///
/// The per-size cells fan out across the current [`Pool`]; the fit is
/// bit-identical to serial execution at any thread count.
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn estimate_collective_alpha_beta(
    cluster: &ClusterModel,
    alg: Alg,
    cfg: &BreadthConfig,
    gamma: &GammaTable,
    seed: u64,
) -> AlphaBetaEstimate {
    cfg.validate();
    let measured = measure_batch(
        cluster,
        &collective_cells(alg, cfg, seed),
        &cfg.precision,
        Pool::current(),
        cfg.backend,
    );
    fit_from_measurements(alg, cfg, gamma, measured)
}

/// Runs the estimation for every algorithm of `collective`, the whole
/// grid in one batch.
pub fn estimate_collective_family(
    cluster: &ClusterModel,
    collective: Collective,
    cfg: &BreadthConfig,
    gamma: &GammaTable,
    seed: u64,
) -> BTreeMap<Alg, AlphaBetaEstimate> {
    cfg.validate();
    let algs = collective.algorithms();
    let measured = measure_batch(
        cluster,
        &family_cells(algs, cfg, seed),
        &cfg.precision,
        Pool::current(),
        cfg.backend,
    );
    let n = cfg.msg_sizes.len();
    let mut cells = measured.into_iter();
    algs.iter()
        .map(|&alg| {
            let alg_cells: Vec<SampleStats> = cells.by_ref().take(n).collect();
            (alg, fit_from_measurements(alg, cfg, gamma, alg_cells))
        })
        .collect()
}

/// Fallible twin of [`estimate_collective_family`], keeping
/// per-algorithm outcomes separate: one algorithm stalling under a
/// fault plan must not discard the fits that succeeded (the tuner skips
/// `Err` algorithms and the selection layer falls back to the fixed
/// rules for them).
pub fn try_estimate_collective_family(
    cluster: &ClusterModel,
    collective: Collective,
    cfg: &BreadthConfig,
    gamma: &GammaTable,
    seed: u64,
    policy: &RetryPolicy,
) -> BTreeMap<Alg, Result<AlphaBetaEstimate, SimError>> {
    cfg.validate();
    let algs = collective.algorithms();
    let outcomes = try_measure_batch(
        cluster,
        &family_cells(algs, cfg, seed),
        &cfg.precision,
        policy,
        Pool::current(),
        cfg.backend,
    );
    let n = cfg.msg_sizes.len();
    let mut cells = outcomes.into_iter();
    algs.iter()
        .map(|&alg| {
            let alg_cells: Result<Vec<SampleStats>, SimError> = cells.by_ref().take(n).collect();
            (
                alg,
                alg_cells.map(|measured| fit_from_measurements(alg, cfg, gamma, measured)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_model::FitValidity;
    use collsel_netsim::NoiseParams;

    fn quiet_gros() -> ClusterModel {
        ClusterModel::gros().with_noise(NoiseParams::OFF)
    }

    fn gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)])
    }

    #[test]
    fn every_collective_family_fits_valid_parameters() {
        let cluster = quiet_gros();
        let cfg = BreadthConfig::quick(8);
        for coll in Collective::ALL {
            let fits = estimate_collective_family(&cluster, coll, &cfg, &gamma(), 1);
            assert_eq!(fits.len(), coll.algorithms().len(), "{coll}");
            for (alg, est) in &fits {
                assert_eq!(alg.collective(), coll);
                // gather_bcast is the one algorithm whose canonical
                // abscissa saturates structurally (both of its stages
                // segment internally at a fixed 8 KB, so x spans less
                // than a factor 3); its β may collapse to the clamp.
                // Every other algorithm must resolve a positive β.
                use collsel_coll::AllgatherAlg;
                if *alg != Alg::Allgather(AllgatherAlg::GatherBcast) {
                    assert!(
                        est.hockney.beta > 0.0,
                        "{}: {:?}",
                        alg.qualified_name(),
                        est.hockney
                    );
                }
                assert_eq!(
                    est.validity(),
                    FitValidity::Valid,
                    "{}: {}",
                    alg.qualified_name(),
                    est.validity()
                );
            }
        }
    }

    #[test]
    fn single_algorithm_estimate_matches_family_entry() {
        let cluster = quiet_gros();
        let cfg = BreadthConfig::quick(6);
        let coll = Collective::Allgather;
        let family = estimate_collective_family(&cluster, coll, &cfg, &gamma(), 9);
        let alg = coll.algorithms()[0];
        let single = estimate_collective_alpha_beta(&cluster, alg, &cfg, &gamma(), 9);
        assert_eq!(family[&alg], single, "same seed derivation, same fit");
    }

    #[test]
    fn try_family_keeps_per_algorithm_outcomes() {
        use collsel_netsim::SimSpan;
        let cluster = quiet_gros();
        let cfg = BreadthConfig::quick(6);
        let hopeless = RetryPolicy {
            max_attempts: 1,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let all = try_estimate_collective_family(
            &cluster,
            Collective::Scatter,
            &cfg,
            &gamma(),
            1,
            &hopeless,
        );
        assert_eq!(all.len(), Collective::Scatter.algorithms().len());
        for (alg, outcome) in &all {
            let err = outcome.as_ref().expect_err("1 ns budget cannot fit a run");
            assert!(
                matches!(err, SimError::Timeout { .. }),
                "{}: {err}",
                alg.qualified_name()
            );
        }
        let fine = try_estimate_collective_family(
            &cluster,
            Collective::Scatter,
            &cfg,
            &gamma(),
            1,
            &RetryPolicy::no_deadline(),
        );
        let plain = estimate_collective_family(&cluster, Collective::Scatter, &cfg, &gamma(), 1);
        for (alg, outcome) in fine {
            assert_eq!(outcome.expect("fault-free"), plain[&alg]);
        }
    }
}
