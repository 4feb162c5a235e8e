//! Estimation of γ(P) — the paper's Sect. 4.1.
//!
//! For each process count `P` in `2..=max_width`, the root measures the
//! time `T1(P, N)` of `N` successive *non-blocking linear-tree*
//! broadcasts of one segment, separated by barriers, and estimates the
//! per-call time `T2(P) = T1(P, N) / N`. The discrete function
//! `γ(P) = T2(P) / T2(2)` is the platform-specific, algorithm-independent
//! factor used by every implementation-derived model.

use crate::measure::{try_measure_batch, unwatched, RetryPolicy, TimedProgram};
use crate::stats::{Precision, SampleStats};
use collsel_model::GammaTable;
use collsel_mpi::{Backend, SimError};
use collsel_netsim::ClusterModel;
use collsel_support::pool::Pool;

/// Configuration of the γ estimation experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaConfig {
    /// Segment size `m_s` (the paper uses 8 KB).
    pub seg_size: usize,
    /// Largest linear-tree width to measure (the paper measures 2..=7,
    /// the maximum child count of the segmented broadcast trees plus
    /// one).
    pub max_width: usize,
    /// Successive calls per sample (`N`).
    pub calls_per_sample: usize,
    /// Stopping rule for each `T2(P)`.
    pub precision: Precision,
    /// Execution backend of the measurement simulations (both return
    /// bit-identical statistics; the timing DAG is the campaign hot
    /// path).
    pub backend: Backend,
}

impl GammaConfig {
    /// The paper's configuration: 8 KB segments, widths 2..=7.
    pub fn paper() -> Self {
        GammaConfig {
            seg_size: 8 * 1024,
            max_width: 7,
            calls_per_sample: 10,
            precision: Precision::paper(),
            backend: Backend::default(),
        }
    }

    /// A loose, fast configuration for tests.
    pub fn quick() -> Self {
        GammaConfig {
            seg_size: 8 * 1024,
            max_width: 5,
            calls_per_sample: 3,
            precision: Precision::quick(),
            backend: Backend::default(),
        }
    }
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig::paper()
    }
}

/// Result of the γ estimation: the table plus the raw measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaEstimate {
    /// The fitted table, ready for the models.
    pub table: GammaTable,
    /// Per-width measured `T2(P)` statistics.
    pub t2: Vec<(usize, SampleStats)>,
}

/// The Sect. 4.1 cells, one per width in `2..=max_width`, each with its
/// own seed.
///
/// # Panics
///
/// Panics if `max_width` is below 2 or exceeds the cluster's slots.
fn width_cells(cluster: &ClusterModel, cfg: &GammaConfig, seed: u64) -> Vec<(TimedProgram, u64)> {
    assert!(cfg.max_width >= 2, "gamma needs widths of at least 2");
    assert!(
        cfg.max_width <= cluster.max_ranks(),
        "cluster {} cannot host {} processes",
        cluster.name(),
        cfg.max_width
    );
    (2..=cfg.max_width)
        .map(|p| {
            let program = TimedProgram::LinearSegment {
                p,
                seg_size: cfg.seg_size,
                calls: cfg.calls_per_sample,
            };
            (program, seed.wrapping_add(p as u64 * 1009))
        })
        .collect()
}

/// γ(P) = T2(P) / T2(2) from the per-width measurements.
fn gamma_from(t2: Vec<(usize, SampleStats)>) -> GammaEstimate {
    let base = t2[0].1.mean;
    assert!(base > 0.0, "T2(2) must be positive");
    let pairs: Vec<(usize, f64)> = t2
        .iter()
        .skip(1)
        .map(|&(p, s)| (p, (s.mean / base).max(1.0)))
        .collect();
    GammaEstimate {
        table: GammaTable::from_pairs(pairs),
        t2,
    }
}

/// Runs the Sect. 4.1 experiments on `cluster` and returns the γ table
/// — [`try_estimate_gamma`] on the unwatched tier.
///
/// # Panics
///
/// Same as [`try_estimate_gamma`].
pub fn estimate_gamma(cluster: &ClusterModel, cfg: &GammaConfig, seed: u64) -> GammaEstimate {
    unwatched(try_estimate_gamma(cluster, cfg, seed, None))
}

/// Runs the Sect. 4.1 experiments on `cluster` and returns the γ table.
/// `policy` is the measurement tier ([`try_measure`](crate::try_measure)):
/// under `Some(policy)`, for clusters running under an injected fault
/// plan, each `T2(P)` measurement runs under the policy's virtual-time
/// watchdog, and a width whose sample cannot reach the precision target
/// (or whose run stalls past every retry) aborts the whole estimation —
/// γ(P) is the foundation every derived model shares, so a partial
/// table is not a usable table.
///
/// # Errors
///
/// Only under `Some(policy)`: the first [`SimError`] from any width's
/// measurement (typically [`SimError::Timeout`] or
/// [`SimError::PrecisionNotReached`]).
///
/// # Panics
///
/// Panics if `max_width` is below 2 or exceeds the cluster's slots, and
/// if a completed estimation yields a non-positive `T2(2)` (impossible
/// on a causally consistent fabric).
pub fn try_estimate_gamma(
    cluster: &ClusterModel,
    cfg: &GammaConfig,
    seed: u64,
    policy: Option<&RetryPolicy>,
) -> Result<GammaEstimate, SimError> {
    // Each width is an independent experiment with its own seed, so the
    // widths fan out across the pool. All widths run even past a
    // failure, but the reported error is the first one in width order,
    // so the outcome is deterministic and identical to the serial loop
    // at any thread count.
    let cells = width_cells(cluster, cfg, seed);
    let outcomes = try_measure_batch(
        cluster,
        &cells,
        &cfg.precision,
        policy,
        Pool::current(),
        cfg.backend,
    );
    let mut t2 = Vec::with_capacity(cells.len());
    for (p, outcome) in (2..=cfg.max_width).zip(outcomes) {
        t2.push((p, outcome?));
    }
    Ok(gamma_from(t2))
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(GammaEstimate { table, t2 });

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    #[test]
    fn gamma_is_monotone_between_one_and_pminus1() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let est = estimate_gamma(&cluster, &GammaConfig::quick(), 3);
        let mut prev = 1.0;
        for p in 2..=5 {
            let g = est.table.gamma(p);
            assert!(g >= prev - 1e-9, "gamma({p}) = {g} not monotone");
            assert!(g <= (p - 1) as f64 + 1e-9, "gamma({p}) = {g} above P-1");
            prev = g;
        }
    }

    #[test]
    fn calibrated_presets_land_near_paper_table_1() {
        // Paper Table 1: Grisou 1.114..1.540, Gros 1.084..1.424 for
        // P = 3..7. The presets are calibrated to land in that
        // neighbourhood; allow a generous tolerance.
        let cfg = GammaConfig {
            max_width: 7,
            ..GammaConfig::quick()
        };
        for (cluster, g3_paper, g7_paper) in [
            (ClusterModel::grisou(), 1.114, 1.540),
            (ClusterModel::gros(), 1.084, 1.424),
        ] {
            let cluster = cluster.with_noise(NoiseParams::OFF);
            let est = estimate_gamma(&cluster, &cfg, 5);
            let g3 = est.table.gamma(3);
            let g7 = est.table.gamma(7);
            assert!(
                (g3 - g3_paper).abs() < 0.15,
                "{}: gamma(3) = {g3} vs paper {g3_paper}",
                cluster.name()
            );
            assert!(
                (g7 - g7_paper).abs() < 0.3,
                "{}: gamma(7) = {g7} vs paper {g7_paper}",
                cluster.name()
            );
        }
    }

    #[test]
    fn estimate_reports_raw_measurements() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let est = estimate_gamma(&cluster, &GammaConfig::quick(), 3);
        assert_eq!(est.t2.len(), 4); // widths 2..=5
        assert!(est.t2.iter().all(|(_, s)| s.mean > 0.0));
    }

    #[test]
    fn try_estimate_matches_infallible_without_deadline() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let cfg = GammaConfig::quick();
        let plain = estimate_gamma(&cluster, &cfg, 3);
        let tried = try_estimate_gamma(&cluster, &cfg, 3, Some(&RetryPolicy::no_deadline()));
        assert_eq!(Ok(plain), tried);
    }

    #[test]
    fn try_estimate_times_out_under_hopeless_deadline() {
        use collsel_netsim::SimSpan;
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let policy = RetryPolicy {
            max_attempts: 2,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let err =
            try_estimate_gamma(&cluster, &GammaConfig::quick(), 3, Some(&policy)).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "widths of at least 2")]
    fn rejects_tiny_width() {
        let cluster = ClusterModel::gros();
        let cfg = GammaConfig {
            max_width: 1,
            ..GammaConfig::quick()
        };
        let _ = estimate_gamma(&cluster, &cfg, 0);
    }
}
