//! Adaptive campaign primitives: leader-settled family cells and the
//! crossover-bisection planner.
//!
//! The exhaustive tuning sweep measures every (algorithm, P, m) cell of
//! a decision grid to a fixed CI precision, even though the decision
//! table only depends on where the argmin *changes* ("Fast Tuning of
//! Intra-Cluster Collective Communications", cs/0408034). This module
//! supplies the two mechanisms that remove the waste, both built so the
//! adaptive path is **differentially comparable** against the
//! exhaustive sweep:
//!
//! * [`measure_family_cell`] measures one collective's whole algorithm
//!   family at one (P, m) point, round-robining adaptive batches across
//!   the algorithms. With `early_stop`, an algorithm whose 95%
//!   confidence interval is disjoint *above* the current leader's stops
//!   sampling immediately, and once every rival has settled the leader
//!   stops too — repetitions are spent only while the argmin is
//!   statistically contested, and contested rivals run to the full
//!   precision target so near-tie winners match the exhaustive path's
//!   converged argmin. With `early_stop` off, every algorithm's
//!   statistics are bit-identical to [`measure`](crate::measure::measure)
//!   on its [`TimedProgram::Collective`] cell — that is the
//!   differential oracle.
//! * [`plan_crossover_fill`] decides *which* m-grid indices to measure:
//!   coarse anchors first, bisection only inside intervals whose
//!   endpoint winners differ, whose endpoint wins are not *decisive*
//!   (the winner's lead over the runner-up is below
//!   [`DECISIVE_MARGIN`] — near-ties are exactly where narrow winner
//!   islands live, so they are densified instead of interpolated), or
//!   where a warm-start hint disagrees with a fresh measurement;
//!   interpolation everywhere else. It is a pure function of the
//!   evaluator — memoised by index, so the traversal order can never
//!   change a winner.
//!
//! Both primitives derive every seed from the grid position, keeping
//! campaigns bit-identical at any thread count and on either execution
//! backend.

use crate::measure::{unwatched, CellSampler, TimedProgram};
use crate::stats::{AdaptiveAccumulator, Precision, SampleStats};
use collsel_coll::Collective;
use collsel_mpi::Backend;
use collsel_netsim::ClusterModel;

/// Minimum relative lead of a cell's winner over its runner-up for the
/// win to count as *decisive*. Two algorithms within this margin of
/// each other can trade places on adjacent grid cells (their time
/// curves cross repeatedly while staying nearly parallel), so the
/// planner refuses to interpolate across such cells and bisects them
/// densely instead.
pub const DECISIVE_MARGIN: f64 = 0.10;

/// Safety factor applied to [`DECISIVE_MARGIN`] when the margin comes
/// from a *model prediction* (a warm-start hint) instead of a
/// measurement: predictions carry fitting error, so a hint is only
/// trusted where the model predicts the win by at least
/// `HINT_MARGIN_FACTOR * DECISIVE_MARGIN`. Everywhere the model itself
/// says the race is close, the planner measures instead of trusting.
pub const HINT_MARGIN_FACTOR: f64 = 2.0;

/// The measured outcome of one (collective, P, m) family cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyCell {
    /// Per-algorithm statistics, in `collective.algorithms()` order.
    pub stats: Vec<SampleStats>,
    /// Index of the winning algorithm within the family (strict argmin
    /// of the means; the first algorithm wins exact ties).
    pub winner: usize,
    /// Total adaptive batches simulated across the family — the cost
    /// the leader-settled rule reduces.
    pub batches: usize,
}

impl FamilyCell {
    /// The winner's relative lead over the runner-up:
    /// `(second_best_mean - best_mean) / best_mean`. Infinite for
    /// single-algorithm families or a zero winning mean.
    pub fn runner_up_margin(&self) -> f64 {
        let best = self.stats[self.winner].mean;
        let runner_up = self
            .stats
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.winner)
            .map(|(_, s)| s.mean)
            .fold(f64::INFINITY, f64::min);
        if best > 0.0 && runner_up.is_finite() {
            (runner_up - best) / best
        } else {
            f64::INFINITY
        }
    }

    /// Whether the win is decisive under [`DECISIVE_MARGIN`] — the
    /// planner only interpolates between decisively-won cells.
    pub fn decisive(&self) -> bool {
        self.runner_up_margin() >= DECISIVE_MARGIN
    }
}

/// Strict argmin over means: the earliest algorithm strictly below
/// every later one wins, so exact ties resolve to family order (the
/// same stable rule on the adaptive and exhaustive paths).
fn argmin_mean(stats: &[SampleStats]) -> usize {
    let mut best = 0;
    for (i, s) in stats.iter().enumerate().skip(1) {
        if s.mean < stats[best].mean {
            best = i;
        }
    }
    best
}

/// One algorithm's sampling state inside a family cell: its prepared
/// cell plus the incremental stopping rule.
struct AlgSampler {
    cell: CellSampler,
    seed: u64,
    acc: AdaptiveAccumulator,
    /// Set by the leader-settled rule: this algorithm's CI is disjoint
    /// above the leader's, so it stops sampling as a settled loser.
    settled: bool,
}

impl AlgSampler {
    /// Pulls one adaptive batch under the batch seed
    /// [`measure`](crate::measure::measure) uses, so a sampler driven
    /// to completion is bit-identical to it.
    fn pull(&mut self, cluster: &ClusterModel, precision: &Precision) {
        let batch_seed = self.seed.wrapping_add(self.acc.batches() as u64);
        let samples = unwatched(self.cell.batch(cluster, batch_seed, None));
        self.acc.push_batch(samples, precision);
    }
}

/// Marks every algorithm whose 95% CI lies wholly above the current
/// leader's as a settled loser. The leader is the lowest running mean
/// among non-settled algorithms with at least `min_reps` samples; it is
/// never settled itself, so it always runs to its own precision target.
fn settle_losers(samplers: &mut [AlgSampler], precision: &Precision) {
    let mut leader: Option<usize> = None;
    for (i, s) in samplers.iter().enumerate() {
        if s.settled || s.acc.n() < precision.min_reps {
            continue;
        }
        match leader {
            Some(l) if samplers[l].acc.mean() <= s.acc.mean() => {}
            _ => leader = Some(i),
        }
    }
    let Some(l) = leader else { return };
    let leader_high = samplers[l].acc.mean() + samplers[l].acc.ci_half_width();
    for (i, s) in samplers.iter_mut().enumerate() {
        if i == l || s.settled || s.acc.n() < precision.min_reps {
            continue;
        }
        if s.acc.mean() - s.acc.ci_half_width() > leader_high {
            s.settled = true;
        }
    }
}

/// Measures one collective's whole algorithm family at one (P, m)
/// point, round-robining adaptive batches across the algorithms.
///
/// Algorithm `i` samples with seed `seed + (i << 32)` (the breadth
/// campaigns' per-algorithm convention), so the family's noise streams
/// are decorrelated and independent of the measurement order. With
/// `early_stop` off, every algorithm's statistics are
/// bit-identical to [`measure`](crate::measure::measure) on the same
/// cell; with it on, algorithms whose CI separates above the leader stop
/// early (`settle_losers`), and the leader itself stops once every
/// rival has settled — only still-contested rivals run to the full
/// precision target, so the argmin (the only thing the decision table
/// reads) is decided at the same confidence as the exhaustive path.
///
/// # Panics
///
/// Panics if `p` exceeds the cluster's slots.
#[allow(clippy::too_many_arguments)]
pub fn measure_family_cell(
    cluster: &ClusterModel,
    collective: Collective,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    backend: Backend,
    early_stop: bool,
) -> FamilyCell {
    precision.validate();
    let mut samplers: Vec<AlgSampler> = collective
        .algorithms()
        .iter()
        .enumerate()
        .map(|(i, &alg)| {
            let program = TimedProgram::Collective {
                alg,
                p,
                m,
                seg_size,
            };
            AlgSampler {
                cell: CellSampler::new(cluster, program, precision.min_reps, backend),
                seed: seed.wrapping_add((i as u64) << 32),
                acc: AdaptiveAccumulator::new(),
                settled: false,
            }
        })
        .collect();
    loop {
        let mut progressed = false;
        for s in samplers.iter_mut() {
            if s.settled || s.acc.done(precision) {
                continue;
            }
            s.pull(cluster, precision);
            progressed = true;
        }
        if early_stop {
            settle_losers(&mut samplers, precision);
            // Once every rival is a settled loser the argmin is decided
            // at the same 95% confidence — the leader stops too instead
            // of polishing a mean the decision table never reads. (In
            // contested cells nothing settles, so every contender still
            // runs to the full precision target and the argmin matches
            // the exhaustive path's converged argmin.)
            if samplers.len() > 1 && samplers.iter().filter(|s| !s.settled).count() <= 1 {
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    let batches = samplers.iter().map(|s| s.acc.batches()).sum();
    let stats: Vec<SampleStats> = samplers.iter().map(|s| s.acc.finish()).collect();
    let winner = argmin_mean(&stats);
    FamilyCell {
        stats,
        winner,
        batches,
    }
}

/// The resolved winner column of one (collective, P) row: which grid
/// index got which winner, and which indices were actually measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossoverPlan {
    /// Winner per m-grid index (family-local algorithm index).
    pub winners: Vec<usize>,
    /// Whether each index was measured (`true`) or interpolated.
    pub measured: Vec<bool>,
}

impl CrossoverPlan {
    /// Number of indices actually measured.
    pub fn measured_count(&self) -> usize {
        self.measured.iter().filter(|&&m| m).count()
    }
}

/// Memoised evaluator: each index is measured at most once, so the
/// traversal order can never change a winner. The memo holds
/// `(winner, decisive)` per measured or interpolated index.
struct Prober<F> {
    memo: Vec<Option<(usize, bool)>>,
    measured: Vec<bool>,
    eval: F,
}

impl<F: FnMut(usize) -> (usize, bool)> Prober<F> {
    /// Evaluates index `i` (memoised).
    fn probe(&mut self, i: usize) -> (usize, bool) {
        if let Some(w) = self.memo[i] {
            return w;
        }
        let w = (self.eval)(i);
        self.memo[i] = Some(w);
        self.measured[i] = true;
        w
    }
}

/// Resolves one (collective, P) row's winner column by crossover
/// bisection: measure coarse anchors, bisect only the contested
/// intervals, interpolate the rest.
///
/// `eval(i)` measures grid index `i` and returns `(winner, decisive)`
/// — typically the family-local [`FamilyCell::winner`] and
/// [`FamilyCell::decisive`]. An interval between two measured indices
/// is *interpolated* (filled with the shared winner, no measurements
/// inside) only when both endpoints report the same winner **and**
/// both wins are decisive; otherwise it is bisected. Near-ties — two
/// algorithm curves within [`DECISIVE_MARGIN`] of each other — are
/// exactly where winners trade places on adjacent cells, so those
/// regions densify down to every cell instead of being guessed.
///
/// Without `hints`, the anchors are every `anchor_step`-th index plus
/// the last. With `hints` (a warm-start prediction per index — the
/// predicted winner and whether the model predicts that win
/// *decisively*, e.g. by [`HINT_MARGIN_FACTOR`] times the measured
/// margin), the anchors shrink to the endpoints, both sides of every
/// predicted winner change, and every index whose prediction is
/// non-decisive — the model is only trusted where it is confident. An
/// interval is then interpolated only when the measured endpoints
/// *and* every hint inside agree decisively, so a wrong or shaky
/// prediction triggers dense verification instead of a silently wrong
/// table.
///
/// The residual blind spot: a winner island strictly inside an
/// interval whose endpoints are decisively won by the same algorithm
/// (and hint-consistent, when warm-started) is invisible. The
/// differential gates in `tests/adaptive_campaign.rs` check that no
/// such island exists on the shipped presets' grids.
///
/// # Panics
///
/// Panics if `n` is zero, `anchor_step` is zero, or `hints` has the
/// wrong length.
pub fn plan_crossover_fill(
    n: usize,
    anchor_step: usize,
    hints: Option<&[(usize, bool)]>,
    eval: impl FnMut(usize) -> (usize, bool),
) -> CrossoverPlan {
    assert!(n > 0, "need at least one grid index");
    assert!(anchor_step > 0, "anchor step must be at least 1");
    if let Some(h) = hints {
        assert_eq!(h.len(), n, "hints must cover the grid");
    }
    let mut prober = Prober {
        memo: vec![None; n],
        measured: vec![false; n],
        eval,
    };
    let mut anchors: Vec<usize> = match hints {
        Some(h) => {
            let mut a = vec![0, n - 1];
            for i in 1..n {
                if h[i].0 != h[i - 1].0 {
                    a.push(i - 1);
                    a.push(i);
                }
            }
            // Wherever the model itself predicts a near-tie, its
            // winner pick is one fitting error away from wrong — those
            // cells are measured, never trusted.
            a.extend((0..n).filter(|&i| !h[i].1));
            a
        }
        None => (0..n).step_by(anchor_step).chain([n - 1]).collect(),
    };
    anchors.sort_unstable();
    anchors.dedup();
    for &a in &anchors {
        prober.probe(a);
    }
    // An interval is interpolable only when its measured endpoints
    // agree — and, when warm-started, only when every hint strictly
    // inside agrees with them decisively (a model/measurement
    // disagreement, or a model-predicted near-tie, must be verified,
    // not trusted; the endpoints themselves are already measured).
    let fill_ok = |a: usize, b: usize, w: usize| -> bool {
        hints.is_none_or(|h| (a + 1..b).all(|i| h[i] == (w, true)))
    };
    // Left-to-right worklist over measured-anchor intervals; bisection
    // pushes sub-intervals. Deterministic order, and winners are
    // memoised by index, so ordering is cosmetic anyway. The anchors
    // span the grid and every interval is filled or bisected down to
    // adjacent indices, so every index ends measured or interpolated.
    let mut stack: Vec<(usize, usize)> = anchors.windows(2).rev().map(|w| (w[0], w[1])).collect();
    while let Some((a, b)) = stack.pop() {
        if b - a <= 1 {
            continue;
        }
        let ((wa, da), (wb, db)) = (prober.probe(a), prober.probe(b));
        if wa == wb && da && db && fill_ok(a, b, wa) {
            for i in a + 1..b {
                if prober.memo[i].is_none() {
                    prober.memo[i] = Some((wa, true));
                }
            }
            continue;
        }
        let mid = (a + b) / 2;
        prober.probe(mid);
        stack.push((mid, b));
        stack.push((a, mid));
    }
    let winners: Vec<usize> = prober.memo.into_iter().flatten().map(|(w, _)| w).collect();
    debug_assert_eq!(winners.len(), n, "every index is measured or interpolated");
    CrossoverPlan {
        winners,
        measured: prober.measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    #[test]
    fn family_cell_without_early_stop_matches_measure() {
        let cluster = ClusterModel::gros();
        let precision = Precision::quick();
        let (c, p, m, seg_size) = (Collective::Reduce, 8usize, 64 * 1024usize, 64 * 1024usize);
        let seed = 0xFEED;
        let cell = measure_family_cell(
            &cluster,
            c,
            p,
            m,
            seg_size,
            &precision,
            seed,
            Backend::Dag,
            false,
        );
        for (i, &alg) in c.algorithms().iter().enumerate() {
            let direct = crate::measure::measure(
                &cluster,
                TimedProgram::Collective {
                    alg,
                    p,
                    m,
                    seg_size,
                },
                &precision,
                seed.wrapping_add((i as u64) << 32),
            );
            assert_eq!(cell.stats[i], direct, "alg {alg}");
        }
    }

    #[test]
    fn family_cell_is_backend_invariant() {
        let cluster = ClusterModel::gros();
        let precision = Precision::quick();
        for early in [false, true] {
            let [th, dag] = [Backend::Threads, Backend::Dag].map(|backend| {
                measure_family_cell(
                    &cluster,
                    Collective::Allgather,
                    6,
                    32 * 1024,
                    64 * 1024,
                    &precision,
                    7,
                    backend,
                    early,
                )
            });
            assert_eq!(th, dag, "early_stop={early}");
        }
    }

    #[test]
    fn early_stop_never_simulates_more_batches() {
        let cluster = ClusterModel::gros(); // noise ON: contested cells
        let precision = Precision::quick();
        let full = measure_family_cell(
            &cluster,
            Collective::Bcast,
            12,
            256 * 1024,
            8 * 1024,
            &precision,
            3,
            Backend::Dag,
            false,
        );
        let early = measure_family_cell(
            &cluster,
            Collective::Bcast,
            12,
            256 * 1024,
            8 * 1024,
            &precision,
            3,
            Backend::Dag,
            true,
        );
        assert!(early.batches <= full.batches);
        assert_eq!(early.winner, full.winner);
    }

    #[test]
    fn quiet_cluster_converges_in_one_batch_per_algorithm() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let precision = Precision::quick();
        let cell = measure_family_cell(
            &cluster,
            Collective::Scatter,
            8,
            16 * 1024,
            64 * 1024,
            &precision,
            1,
            Backend::Dag,
            false,
        );
        // Zero variance: the CI collapses at min_reps.
        assert_eq!(cell.batches, Collective::Scatter.algorithms().len());
    }

    #[test]
    fn planner_recovers_step_functions_with_wide_runs() {
        // Runs at least as wide as the anchor stride are always found.
        let seq = |i: usize| match i {
            0..=9 => 0usize,
            10..=24 => 2,
            _ => 1,
        };
        let n = 40;
        let mut evals = 0;
        let plan = plan_crossover_fill(n, 8, None, |i| {
            evals += 1;
            (seq(i), true)
        });
        assert_eq!(plan.winners, (0..n).map(seq).collect::<Vec<_>>());
        assert_eq!(plan.measured_count(), evals);
        assert!(evals < n, "bisection must beat the exhaustive sweep");
    }

    #[test]
    fn planner_with_correct_hints_measures_only_boundaries() {
        let seq: Vec<usize> = (0..64).map(|i| usize::from(i >= 40)).collect();
        let hints: Vec<(usize, bool)> = seq.iter().map(|&w| (w, true)).collect();
        let plan = plan_crossover_fill(64, 8, Some(&hints), |i| (seq[i], true));
        assert_eq!(plan.winners, seq);
        // Endpoints + the two hinted boundary cells.
        assert_eq!(plan.measured_count(), 4);
    }

    #[test]
    fn planner_distrusts_wrong_hints() {
        // The model predicts a crossover at 8; the measurements say 12.
        let truth: Vec<usize> = (0..24).map(|i| usize::from(i >= 12)).collect();
        let hints: Vec<(usize, bool)> = (0..24).map(|i| (usize::from(i >= 8), true)).collect();
        let plan = plan_crossover_fill(24, 8, Some(&hints), |i| (truth[i], true));
        assert_eq!(plan.winners, truth, "disagreement must densify, not fill");
    }

    #[test]
    fn planner_measures_non_decisive_hints() {
        // The model predicts winner 0 everywhere, but flags indices
        // 10..=14 as a predicted near-tie; the truth hides a winner
        // island there. Winner-agreement alone would interpolate the
        // whole row from its endpoints — the uncertainty flags force
        // those cells to be measured and the island to be found.
        let truth = |i: usize| usize::from((11..=13).contains(&i));
        let hints: Vec<(usize, bool)> = (0..32).map(|i| (0, !(10..=14).contains(&i))).collect();
        let plan = plan_crossover_fill(32, 8, Some(&hints), |i| (truth(i), true));
        assert_eq!(plan.winners, (0..32).map(truth).collect::<Vec<_>>());
        assert!((10..=14).all(|i| plan.measured[i]));
        assert!(plan.measured_count() < 32);
    }

    #[test]
    fn planner_is_deterministic() {
        let truth: Vec<usize> = (0..50).map(|i| (i / 17) % 3).collect();
        let a = plan_crossover_fill(50, 8, None, |i| (truth[i], true));
        let b = plan_crossover_fill(50, 8, None, |i| (truth[i], true));
        assert_eq!(a, b);
    }

    #[test]
    fn planner_densifies_non_decisive_regions() {
        // A one-cell winner island inside a near-tie band: anchors on
        // both sides agree, so winner-equality alone would interpolate
        // right over it. The non-decisive flag forces full bisection.
        let truth = |i: usize| usize::from(i == 11);
        let contested = |i: usize| (8..=14).contains(&i);
        let n = 24;
        let plan = plan_crossover_fill(n, 8, None, |i| (truth(i), !contested(i)));
        assert_eq!(plan.winners, (0..n).map(truth).collect::<Vec<_>>());
        // Every contested cell was measured, decisive spans were not.
        assert!((8..=14).all(|i| plan.measured[i]));
        assert!(plan.measured_count() < n);
    }
}
