//! One-stop tuning workflow: from a cluster description to a runtime
//! decision function.
//!
//! [`Tuner`] packages the paper's whole pipeline:
//!
//! 1. estimate γ(P) from non-blocking linear broadcast experiments
//!    (Sect. 4.1);
//! 2. estimate a per-algorithm `(α, β)` pair from broadcast + gather
//!    experiments solved by Huber regression (Sect. 4.2) — and, for
//!    [`Tuner::tune_collectives`], each further collective's family
//!    from its own timed sweeps;
//! 3. assemble the [`CollectiveModelSelector`] that picks the
//!    predicted-fastest algorithm at runtime (Sect. 5.3) —
//!    [`TunedModel::multi_selector`].
//!
//! Broadcast is [`Collective::Bcast`] like any other collective: each
//! fit is stored once, in [`TunedModel::collectives`], and served at the
//! segment it was measured at ([`TunedModel::seg_size_for`]).
//!
//! One method, [`Tuner::try_tune_collectives`], runs the γ stage and
//! every per-collective stage. Its `policy: Option<&RetryPolicy>` is the
//! measurement tier of every stage (see [`collsel_estim::measure`]):
//! `None` arms no watchdog and cannot fail, so [`Tuner::tune`],
//! [`Tuner::tune_collectives`] and [`Tuner::tune_all`] return its model
//! unwrapped; `Some(policy)` is the fault-tolerant tier, whose failed
//! algorithms are skipped and reported.
//!
//! Tuning campaigns parallelise: the independent measurement cells of
//! both estimation stages (γ widths; the algorithm × message-size
//! experiment grid) fan out across a
//! [`collsel_support::pool::Pool`] sized by the `COLLSEL_THREADS`
//! environment variable or the CLI's `-j` (default: the host's
//! available parallelism). Every cell derives its seed from its grid
//! position, so the tuned model is **bit-identical at any thread
//! count** — parallelism changes wall-clock, never results.
//!
//! Within each cell, measurements run on the timing DAG: the
//! measurement program is recorded and lowered to a static timing DAG
//! once per cell (memoised process-wide), then repetitions are
//! batch-evaluated payload-free with zero OS threads per run, so a
//! campaign's threads are spent *across* cells, not inside them. The
//! thread-per-rank engine is the oracle the DAG is held to, in the
//! `estim` and `coll` differential tests.

use collsel_coll::{Alg, BcastAlg, Collective};
use collsel_estim::{
    measure_family_cell, plan_crossover_fill, try_estimate_all_alpha_beta,
    try_estimate_collective_family, try_estimate_gamma, AlphaBetaConfig, AlphaBetaEstimate,
    BreadthConfig, GammaConfig, GammaEstimate, Precision, RetryPolicy,
};
use collsel_model::{FitValidity, Hockney};
use collsel_mpi::{Backend, SimError};
use collsel_netsim::ClusterModel;
use collsel_select::{
    deployment_msg_sizes, CollSelection, CollectiveModelSelector, CollectiveSelector,
    CompiledCollectiveSelector, FallbackReason, GracefulCollectiveSelector, DEPLOYMENT_COMM_SIZES,
};
use collsel_support::pool::Pool;
use collsel_support::{FromJson, Json, JsonError};
use std::collections::BTreeMap;

/// Configuration of a full tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// γ estimation settings (Sect. 4.1).
    pub gamma: GammaConfig,
    /// α/β estimation settings (Sect. 4.2); broadcast is served at
    /// its segment size.
    pub alpha_beta: AlphaBetaConfig,
    /// Per-collective estimation sweep settings (the Sect. 4.2
    /// methodology widened beyond broadcast; used by
    /// [`Tuner::tune_collectives`]).
    pub breadth: BreadthConfig,
    /// Seed for the (simulated) measurement noise.
    pub seed: u64,
}

impl TunerConfig {
    /// The paper's configuration for a cluster: experiments at
    /// `experiment_p` processes (the paper uses ~half the cluster on
    /// Grisou, the whole cluster on Gros).
    pub fn paper(experiment_p: usize) -> Self {
        TunerConfig {
            gamma: GammaConfig::paper(),
            alpha_beta: AlphaBetaConfig::paper(experiment_p),
            breadth: BreadthConfig::paper(experiment_p),
            seed: 0xC0115E1,
        }
    }

    /// A fast, loose configuration for tests and demos.
    pub fn quick(experiment_p: usize) -> Self {
        TunerConfig {
            gamma: GammaConfig::quick(),
            alpha_beta: AlphaBetaConfig::quick(experiment_p),
            breadth: BreadthConfig::quick(experiment_p),
            seed: 0xC0115E1,
        }
    }

    /// The segment size `collective` is measured at: `alpha_beta`'s for
    /// broadcast, `breadth`'s for the rest. Serving at any other segment
    /// would mis-rank the pipelined algorithms.
    pub fn seg_size_for(&self, collective: Collective) -> usize {
        if collective == Collective::Bcast {
            self.alpha_beta.seg_size
        } else {
            self.breadth.seg_size
        }
    }
}

/// The output of a tuning run: everything needed to select algorithms
/// at runtime, plus the raw estimates for inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedModel {
    /// Name of the cluster the model was tuned for.
    pub cluster_name: String,
    /// The γ estimation result (paper Table 1).
    pub gamma: GammaEstimate,
    /// Every fit, keyed by collective then by qualified algorithm:
    /// always a [`Collective::Bcast`] entry (paper Table 2, empty if
    /// every broadcast fit was skipped), plus each breadth collective.
    pub collectives: BTreeMap<Collective, BTreeMap<Alg, AlphaBetaEstimate>>,
    /// Segment size broadcast's fits were measured and are served at.
    pub seg_size: usize,
    /// Segment size every other collective's fits were measured and are
    /// served at.
    pub breadth_seg_size: usize,
}

impl TunedModel {
    /// The tuned collectives, in [`Collective::ALL`] order.
    pub fn tuned_collectives(&self) -> Vec<Collective> {
        self.collectives.keys().copied().collect()
    }

    /// The segment size `collective` is served at: the one its fits
    /// were measured at ([`TunerConfig::seg_size_for`]).
    pub fn seg_size_for(&self, collective: Collective) -> usize {
        if collective == Collective::Bcast {
            self.seg_size
        } else {
            self.breadth_seg_size
        }
    }

    /// Every fit keyed by qualified algorithm.
    fn fits(&self) -> impl Iterator<Item = (Alg, &AlphaBetaEstimate)> {
        self.collectives
            .values()
            .flat_map(|fits| fits.iter().map(|(&alg, est)| (alg, est)))
    }

    /// The per-algorithm Hockney pairs across every tuned collective,
    /// keyed by qualified algorithm.
    pub fn multi_hockney_table(&self) -> BTreeMap<Alg, Hockney> {
        self.fits().map(|(alg, est)| (alg, est.hockney)).collect()
    }

    /// Validity verdicts for every tuned collective's fits (computed
    /// from the stored data, never persisted — older model files gain
    /// verdicts for free).
    pub fn multi_validity(&self) -> BTreeMap<Alg, FitValidity> {
        self.fits()
            .map(|(alg, est)| (alg, est.validity()))
            .collect()
    }

    /// Builds the runtime decision function: argmin over the tuned fits
    /// per collective, falling back to the fixed rules for collectives
    /// without usable fits. Each collective is evaluated at its
    /// [`seg_size_for`](Self::seg_size_for).
    pub fn multi_selector(&self) -> CollectiveModelSelector {
        let selector = CollectiveModelSelector::new(
            self.gamma.table.clone(),
            self.multi_hockney_table(),
            self.seg_size,
        );
        Collective::ALL
            .into_iter()
            .fold(selector, |s, c| s.with_seg_size(c, self.seg_size_for(c)))
    }

    /// The graceful runtime decision function: only fits that pass
    /// validation join the rankings, queries no valid model can decide
    /// fall back to the fixed rules, and per decision the fallback
    /// reason is reported. Segment sizes follow
    /// [`multi_selector`](Self::multi_selector).
    pub fn degraded_multi_selector(&self) -> GracefulCollectiveSelector {
        let selector = GracefulCollectiveSelector::new(
            self.gamma.table.clone(),
            self.multi_hockney_table(),
            self.multi_validity(),
            self.seg_size,
        );
        Collective::ALL
            .into_iter()
            .fold(selector, |s, c| s.with_seg_size(c, self.seg_size_for(c)))
    }

    /// Compiles every tuned collective's decision table into one
    /// [`CompiledCollectiveSelector`] over the given grids: the
    /// serving-time shape of the model (two binary searches per query,
    /// no allocation) for call sites that query at MPI call rates, and
    /// what `colltune export` renders as Open MPI rules. Off-grid
    /// queries snap to the grid point at or below them.
    ///
    /// # Panics
    ///
    /// Panics if either grid is empty or unsorted.
    pub fn compiled_multi_selector(
        &self,
        comm_sizes: &[usize],
        msg_sizes: &[usize],
    ) -> CompiledCollectiveSelector {
        CompiledCollectiveSelector::compile(
            &self.multi_selector(),
            &self.tuned_collectives(),
            comm_sizes,
            msg_sizes,
        )
    }

    /// [`compiled_multi_selector`](Self::compiled_multi_selector) over
    /// the deployment grid ([`DEPLOYMENT_COMM_SIZES`] ×
    /// [`deployment_msg_sizes`], the one `colltune export` and the
    /// decision server use).
    pub fn compiled_multi_selector_default(&self) -> CompiledCollectiveSelector {
        self.compiled_multi_selector(&DEPLOYMENT_COMM_SIZES, &deployment_msg_sizes())
    }
}

/// The output of a fault-tolerant tuning run: the model assembled from
/// whatever fits survived, plus the per-algorithm failures.
#[derive(Debug)]
pub struct TuneReport {
    /// The tuned model over the algorithms that fitted.
    pub model: TunedModel,
    /// Algorithms whose estimation failed, keyed by qualified
    /// algorithm, with the typed reason.
    pub skipped: BTreeMap<Alg, SimError>,
}

impl TuneReport {
    /// Whether every algorithm fitted (nothing was skipped).
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }

    /// Like [`TunedModel::degraded_multi_selector`], but with the
    /// report's skipped-algorithm errors attached as fallback causes: a
    /// decision for a collective whose fits are all missing carries
    /// `EstimationTimeout` / `PrecisionNotReached` instead of the
    /// generic `NoUsableModel`.
    pub fn degraded_multi_selector(&self) -> GracefulCollectiveSelector {
        let failures = self
            .skipped
            .iter()
            .map(|(&alg, e)| (alg, FallbackReason::from_sim_error(e)))
            .collect();
        self.model.degraded_multi_selector().with_failures(failures)
    }
}

/// Runs the paper's estimation pipeline on a cluster.
#[derive(Debug, Clone)]
pub struct Tuner {
    cluster: ClusterModel,
    config: TunerConfig,
}

impl Tuner {
    /// Creates a tuner.
    ///
    /// # Panics
    ///
    /// Panics if the experiment process count exceeds the cluster's
    /// slots.
    pub fn new(cluster: ClusterModel, config: TunerConfig) -> Self {
        assert!(
            config.alpha_beta.p <= cluster.max_ranks(),
            "experiment process count {} exceeds cluster {} slots {}",
            config.alpha_beta.p,
            cluster.name(),
            cluster.max_ranks()
        );
        Tuner { cluster, config }
    }

    /// The cluster under tuning.
    pub fn cluster(&self) -> &ClusterModel {
        &self.cluster
    }

    /// The configuration in use.
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    /// Runs the paper's pipeline: γ, then per-algorithm broadcast
    /// (α, β) — [`tune_collectives`](Self::tune_collectives) over
    /// broadcast alone.
    ///
    /// This performs simulated communication experiments and can take
    /// seconds for paper-scale configurations. Within each stage the
    /// independent cells run across the current thread pool (see the
    /// module docs); the result does not depend on the thread count.
    pub fn tune(&self) -> TunedModel {
        self.tune_collectives(&[Collective::Bcast])
    }

    /// Runs γ, then fits each listed collective's algorithm family —
    /// [`try_tune_collectives`](Self::try_tune_collectives) on the
    /// unwatched tier, which cannot fail and skips nothing.
    pub fn tune_collectives(&self, collectives: &[Collective]) -> TunedModel {
        // The unwatched tier of every estimator returns each sample as
        // it stands, so neither γ nor any algorithm can fail.
        let report = self
            .try_tune_collectives(collectives, None)
            .unwrap_or_else(|e| unreachable!("an unwatched tune cannot fail: {e}"));
        assert!(
            report.is_complete(),
            "an unwatched tune cannot fail: {:?}",
            report.skipped
        );
        report.model
    }

    /// [`tune_collectives`](Self::tune_collectives) over all seven
    /// collectives.
    pub fn tune_all(&self) -> TunedModel {
        self.tune_collectives(&Collective::ALL)
    }

    /// The one pipeline body: runs γ, then fits each listed collective's
    /// algorithm family. Broadcast always runs, first, from the
    /// Sect. 4.2 broadcast + gather experiments (the dedicated broadcast
    /// estimation is strictly better conditioned than a plain sweep);
    /// every other collective is fitted from its own timed sweeps
    /// ([`try_estimate_collective_family`]), in the caller's order.
    ///
    /// `policy` is the measurement tier of every stage. Under
    /// `Some(policy)`, for clusters running under an injected
    /// [`collsel_netsim::FaultPlan`], every measurement runs under the
    /// policy's virtual-time watchdog with retry-and-backoff, and
    /// failure is graded, not binary:
    ///
    /// * a γ estimation failure is **fatal** (`Err`) — every derived
    ///   model shares the γ table, so nothing useful can be built;
    /// * a per-algorithm (α, β) failure **skips that algorithm** — its
    ///   collective keeps the fits that survived, the report records
    ///   the typed reason and [`TuneReport::degraded_multi_selector`]
    ///   falls back to the Open MPI rules wherever the surviving models
    ///   cannot decide.
    ///
    /// Under `None` neither can happen.
    ///
    /// # Errors
    ///
    /// Returns the γ estimation's [`SimError`] (timeout, precision not
    /// reached, deadlock, rank panic) when the foundation cannot be
    /// measured.
    pub fn try_tune_collectives(
        &self,
        collectives: &[Collective],
        policy: Option<&RetryPolicy>,
    ) -> Result<TuneReport, SimError> {
        let (cluster, config) = (&self.cluster, &self.config);
        let gamma = try_estimate_gamma(cluster, &config.gamma, config.seed, policy)?;
        let mut report = TuneReport {
            model: TunedModel {
                cluster_name: cluster.name().to_owned(),
                gamma,
                collectives: BTreeMap::new(),
                seg_size: config.alpha_beta.seg_size,
                breadth_seg_size: config.breadth.seg_size,
            },
            skipped: BTreeMap::new(),
        };
        for c in std::iter::once(Collective::Bcast).chain(collectives.iter().copied()) {
            if report.model.collectives.contains_key(&c) {
                continue;
            }
            let (gamma, seed) = (&report.model.gamma.table, self.stage_seed(c));
            let outcomes = if c == Collective::Bcast {
                rekey(try_estimate_all_alpha_beta(
                    cluster,
                    &config.alpha_beta,
                    gamma,
                    seed,
                    policy,
                ))
            } else {
                try_estimate_collective_family(cluster, c, &config.breadth, gamma, seed, policy)
            };
            let mut fits = BTreeMap::new();
            for (alg, outcome) in outcomes {
                match outcome {
                    Ok(est) => _ = fits.insert(alg, est),
                    Err(e) => _ = report.skipped.insert(alg, e),
                }
            }
            report.model.collectives.insert(c, fits);
        }
        Ok(report)
    }

    /// The seed of one collective's estimation stage, decorrelated from
    /// the γ stage (seed) and from the other collectives.
    fn stage_seed(&self, c: Collective) -> u64 {
        if c == Collective::Bcast {
            self.config.seed.wrapping_add(1)
        } else {
            self.config
                .seed
                .wrapping_add(2)
                .wrapping_add((c.index() as u64) << 40)
        }
    }
}

/// Re-keys broadcast-only outcomes by qualified algorithm.
fn rekey<V>(by_bcast: BTreeMap<BcastAlg, V>) -> BTreeMap<Alg, V> {
    by_bcast
        .into_iter()
        .map(|(b, v)| (Alg::Bcast(b), v))
        .collect()
}

/// How a measurement campaign covers its (collective, P, m) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStrategy {
    /// Measure every grid cell to full precision — the differential
    /// oracle the adaptive path is gated against.
    Exhaustive,
    /// Crossover bisection on m plus leader-settled repetitions
    /// ([`measure_family_cell`]'s early-stop rule).
    Adaptive {
        /// Anchor stride on the m grid: every `anchor_step`-th index is
        /// measured unconditionally, bounding how narrow a winner
        /// island can hide between anchors.
        anchor_step: usize,
    },
}

/// A measured-winner campaign over a decision grid: for every
/// (collective, P, m) cell the algorithm family is *measured* (not
/// model-predicted) and the argmin becomes the decision-table entry.
///
/// This is the (algorithm × P × m) sweep the adaptive experiment
/// design makes affordable; [`Tuner::run_campaign`] executes it on
/// either strategy, and the two must produce byte-identical tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Collectives to build tables for.
    pub collectives: Vec<Collective>,
    /// Communicator-size grid (ascending; every entry must fit the
    /// cluster's slots, since cells are simulated at that size).
    pub comm_sizes: Vec<usize>,
    /// Message-size grid (ascending).
    pub msg_sizes: Vec<usize>,
    /// Adaptive-repetition precision of each cell.
    pub precision: Precision,
    /// Base seed; every cell derives its own seed from its grid
    /// position, so campaigns are bit-identical at any thread count.
    pub seed: u64,
    /// Grid-coverage strategy.
    pub strategy: CampaignStrategy,
}

impl CampaignPlan {
    /// An exhaustive plan over the given grids with the quick
    /// precision.
    pub fn exhaustive(
        collectives: Vec<Collective>,
        comm_sizes: Vec<usize>,
        msg_sizes: Vec<usize>,
    ) -> Self {
        CampaignPlan {
            collectives,
            comm_sizes,
            msg_sizes,
            precision: Precision::quick(),
            seed: 0xC0115E1,
            strategy: CampaignStrategy::Exhaustive,
        }
    }

    /// An adaptive plan over the given grids: anchors every
    /// `anchor_step` indices, leader-settled repetitions on, otherwise
    /// the same defaults as [`exhaustive`](Self::exhaustive) — so the
    /// pair differs *only* in strategy.
    pub fn adaptive(
        collectives: Vec<Collective>,
        comm_sizes: Vec<usize>,
        msg_sizes: Vec<usize>,
        anchor_step: usize,
    ) -> Self {
        CampaignPlan {
            strategy: CampaignStrategy::Adaptive { anchor_step },
            ..CampaignPlan::exhaustive(collectives, comm_sizes, msg_sizes)
        }
    }
}

/// Per-collective cost accounting of one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveCampaignStats {
    /// The collective.
    pub collective: Collective,
    /// (P, m) grid cells of this collective's table.
    pub grid_cells: usize,
    /// Family cells actually simulated (the rest were interpolated).
    pub measured_cells: usize,
    /// Total adaptive batches simulated across the measured cells.
    pub simulated_batches: usize,
}

/// The outcome of [`Tuner::run_campaign`]: the measured-winner
/// decision table of every planned collective, plus the cost
/// accounting the differential gates in `tests/adaptive_campaign.rs`
/// assert over.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The measured-winner decision table of every planned collective.
    pub tables: CompiledCollectiveSelector,
    /// Per-collective cost accounting, in plan order.
    pub per_collective: Vec<CollectiveCampaignStats>,
}

impl CampaignReport {
    /// Total (P, m) grid cells across the collectives.
    pub fn grid_cells(&self) -> usize {
        self.per_collective.iter().map(|s| s.grid_cells).sum()
    }

    /// Total family cells actually simulated.
    pub fn measured_cells(&self) -> usize {
        self.per_collective.iter().map(|s| s.measured_cells).sum()
    }

    /// Total adaptive batches simulated.
    pub fn simulated_batches(&self) -> usize {
        self.per_collective
            .iter()
            .map(|s| s.simulated_batches)
            .sum()
    }

    /// Grid cells per measured cell — the headline coverage saving.
    pub fn cell_reduction(&self) -> f64 {
        self.grid_cells() as f64 / self.measured_cells().max(1) as f64
    }
}

/// One (collective, P) row's resolved winner column plus its costs.
struct CampaignRow {
    winners: Vec<usize>,
    measured: usize,
    batches: usize,
}

impl Tuner {
    /// Runs a measured-winner campaign: simulates (a subset of) the
    /// plan's grid cells, resolves every cell's winning algorithm and
    /// tabulates the winners into one [`CompiledCollectiveSelector`]
    /// through the same merge contract as the model-predicted tables.
    ///
    /// The (collective, P) rows fan out across the current
    /// [`Pool`]; within a row the bisection is sequential (each probe
    /// decides the next). Every cell's seed derives from its grid
    /// position — campaigns are **bit-identical at any thread count**,
    /// and an adaptive plan must produce the byte-identical tables of
    /// its exhaustive twin (`tests/adaptive_campaign.rs` and its CI gate
    /// assert this).
    ///
    /// `warm` seeds the anchors from an already-tuned neighbor: its
    /// model predicts the winner column, and only the predicted
    /// crossover neighborhoods — plus wherever a fresh measurement
    /// disagrees with the prediction — are measured. Ignored by the
    /// exhaustive strategy.
    ///
    /// Each collective's cells run at [`TunerConfig::seg_size_for`], the
    /// segment its fits are measured and served at.
    ///
    /// # Panics
    ///
    /// Panics if a grid is empty or not strictly ascending, the plan
    /// names a collective twice, or a communicator size exceeds the
    /// cluster's slots.
    pub fn run_campaign(&self, plan: &CampaignPlan, warm: Option<&TunedModel>) -> CampaignReport {
        assert!(!plan.collectives.is_empty(), "need at least one collective");
        assert!(
            plan.comm_sizes.windows(2).all(|w| w[0] < w[1]) && !plan.comm_sizes.is_empty(),
            "communicator sizes must be non-empty ascending"
        );
        assert!(
            plan.msg_sizes.windows(2).all(|w| w[0] < w[1]) && !plan.msg_sizes.is_empty(),
            "message sizes must be non-empty ascending"
        );
        for &p in &plan.comm_sizes {
            assert!(
                p <= self.cluster.max_ranks(),
                "campaign communicator size {p} exceeds cluster {} slots {}",
                self.cluster.name(),
                self.cluster.max_ranks()
            );
        }
        let warm_selector = warm.map(|m| m.multi_selector());
        let jobs: Vec<_> = plan
            .collectives
            .iter()
            .enumerate()
            .flat_map(|(ci, &c)| {
                plan.comm_sizes
                    .iter()
                    .enumerate()
                    .map(move |(pi, &p)| (ci, c, pi, p))
            })
            .map(|(_ci, c, pi, p)| {
                let warm_selector = &warm_selector;
                move || self.campaign_row(plan, c, p, pi, warm_selector.as_ref())
            })
            .collect();
        let rows = Pool::current().run(jobs);
        let comm_count = plan.comm_sizes.len();
        let tables = CompiledCollectiveSelector::from_grid(
            "measured-grid",
            &plan.collectives,
            &plan.comm_sizes,
            &plan.msg_sizes,
            |c, pi, mi| {
                let ci = plan.collectives.iter().position(|&x| x == c);
                let row = &rows[ci.expect("a planned collective") * comm_count + pi];
                let alg = c.algorithms()[row.winners[mi]];
                CollSelection::segmented(alg, self.config.seg_size_for(c))
            },
        );
        let per_collective = plan
            .collectives
            .iter()
            .zip(rows.chunks(comm_count))
            .map(|(&c, rows)| CollectiveCampaignStats {
                collective: c,
                grid_cells: comm_count * plan.msg_sizes.len(),
                measured_cells: rows.iter().map(|r| r.measured).sum(),
                simulated_batches: rows.iter().map(|r| r.batches).sum(),
            })
            .collect();
        CampaignReport {
            tables,
            per_collective,
        }
    }

    /// Resolves one (collective, P) row's winner column under the
    /// plan's strategy. The cell seed packs (collective, P-index,
    /// m-index) into disjoint bit ranges above the per-algorithm
    /// (`<< 32`) and per-batch (low bits) offsets used inside
    /// [`measure_family_cell`].
    fn campaign_row(
        &self,
        plan: &CampaignPlan,
        c: Collective,
        p: usize,
        pi: usize,
        warm: Option<&CollectiveModelSelector>,
    ) -> CampaignRow {
        let seg = self.config.seg_size_for(c);
        let row_seed = plan
            .seed
            .wrapping_add((c.index() as u64) << 56)
            .wrapping_add((pi as u64) << 48);
        let n = plan.msg_sizes.len();
        let measure = |mi: usize, early: bool, batches: &mut usize| -> (usize, bool) {
            let cell = measure_family_cell(
                &self.cluster,
                c,
                p,
                plan.msg_sizes[mi],
                seg,
                &plan.precision,
                row_seed.wrapping_add((mi as u64) << 16),
                Backend::Dag,
                early,
            );
            *batches += cell.batches;
            (cell.winner, cell.decisive())
        };
        match plan.strategy {
            CampaignStrategy::Exhaustive => {
                let mut batches = 0;
                let winners = (0..n)
                    .map(|mi| measure(mi, false, &mut batches).0)
                    .collect();
                CampaignRow {
                    winners,
                    measured: n,
                    batches,
                }
            }
            CampaignStrategy::Adaptive { anchor_step } => {
                // A hint is the model's predicted winner plus whether
                // the model predicts that win decisively — by
                // HINT_MARGIN_FACTOR times the measured margin, since
                // predictions carry fitting error. Cells the model
                // itself calls close are measured, never trusted.
                let hint_margin =
                    collsel_estim::HINT_MARGIN_FACTOR * collsel_estim::DECISIVE_MARGIN;
                let hints: Option<Vec<(usize, bool)>> = warm.map(|sel| {
                    let algs = c.algorithms();
                    plan.msg_sizes
                        .iter()
                        .map(|&m| {
                            let pick = sel.select_for(c, p, m).alg;
                            let wi = algs.iter().position(|&a| a == pick).unwrap_or(0);
                            let decisive = match sel.ranking(c, p, m).as_slice() {
                                [(_, best), (_, next), ..] if *best > 0.0 => {
                                    (next - best) / best >= hint_margin
                                }
                                _ => true,
                            };
                            (wi, decisive)
                        })
                        .collect()
                });
                let mut batches = 0;
                let crossover = plan_crossover_fill(n, anchor_step, hints.as_deref(), |mi| {
                    measure(mi, true, &mut batches)
                });
                CampaignRow {
                    measured: crossover.measured_count(),
                    winners: crossover.winners,
                    batches,
                }
            }
        }
    }
}

/// The model-file layout [`TunedModel::to_json`] writes.
const FORMAT_VERSION: u64 = 2;

// JSON persistence. Version 2 writes the struct's fields after
// `"format_version": 2`, with every collective, broadcast included,
// under `collectives`. A file without `format_version` is version 1,
// read but no longer written: broadcast comes from `params` (any
// `collectives.Bcast` copy is ignored), `collectives` is optional
// (files from before the breadth campaigns have none), and
// `breadth_seg_size` is the breadth campaigns' default segment, the one
// every version 1 file was served at.
impl collsel_support::ToJson for TunedModel {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format_version", FORMAT_VERSION.to_json()),
            ("cluster_name", self.cluster_name.to_json()),
            ("gamma", self.gamma.to_json()),
            ("collectives", self.collectives.to_json()),
            ("seg_size", self.seg_size.to_json()),
            ("breadth_seg_size", self.breadth_seg_size.to_json()),
        ])
    }
}
impl FromJson for TunedModel {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (mut collectives, breadth_seg_size) = match v.get("format_version") {
            None => {
                let params: BTreeMap<BcastAlg, AlphaBetaEstimate> =
                    FromJson::from_json(v.field("params")?)?;
                let mut collectives: BTreeMap<Collective, _> = match v.get("collectives") {
                    Some(c) => FromJson::from_json(c)?,
                    None => BTreeMap::new(),
                };
                collectives.insert(Collective::Bcast, rekey(params));
                (collectives, collsel_estim::BREADTH_SEG_SIZE)
            }
            Some(version) => match u64::from_json(version)? {
                FORMAT_VERSION => (
                    FromJson::from_json(v.field("collectives")?)?,
                    segment(v, "breadth_seg_size")?,
                ),
                other => {
                    return Err(JsonError(format!(
                        "unsupported model format_version {other}: \
                         this build reads 1 and {FORMAT_VERSION}"
                    )))
                }
            },
        };
        collectives.entry(Collective::Bcast).or_default();
        Ok(TunedModel {
            cluster_name: FromJson::from_json(v.field("cluster_name")?)?,
            gamma: FromJson::from_json(v.field("gamma")?)?,
            collectives,
            seg_size: segment(v, "seg_size")?,
            breadth_seg_size,
        })
    }
}

/// Reads a segment-size field, which must be positive.
fn segment(v: &Json, field: &str) -> Result<usize, JsonError> {
    match usize::from_json(v.field(field)?)? {
        0 => Err(JsonError(format!(
            "field `{field}` must be positive, found 0"
        ))),
        seg => Ok(seg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;
    use collsel_support::ToJson;

    fn quick_tuner(p: usize) -> Tuner {
        Tuner::new(
            ClusterModel::gros().with_noise(NoiseParams::OFF),
            TunerConfig::quick(p),
        )
    }

    fn decode(json: &Json) -> TunedModel {
        FromJson::from_json(json).expect("decodes")
    }

    #[test]
    fn quick_tune_produces_complete_model() {
        let model = quick_tuner(16).tune();
        assert_eq!(model.cluster_name, "gros");
        let fitted = model.collectives[&Collective::Bcast].len();
        assert_eq!(fitted, 6, "all six algorithms tuned");
        assert_eq!(model.tuned_collectives(), vec![Collective::Bcast]);
        let selector = model.multi_selector();
        let sel = selector.select_for(Collective::Bcast, 16, 64 * 1024);
        assert_eq!(sel.seg_size, Some(8 * 1024));
        // At scale the tuned selector never picks linear.
        for m in [8 * 1024, 64 * 1024, 1 << 20] {
            let pick = selector.select_for(Collective::Bcast, 100, m).alg;
            assert_ne!(pick, Alg::Bcast(BcastAlg::Linear));
        }
    }

    #[test]
    fn tune_all_fits_every_collective_family() {
        let tuner = quick_tuner(8);
        let model = tuner.tune_all();
        assert_eq!(model.tuned_collectives(), Collective::ALL.to_vec());
        for (c, fits) in &model.collectives {
            assert_eq!(fits.len(), c.algorithms().len(), "{c}");
            for alg in fits.keys() {
                assert_eq!(alg.collective(), *c);
            }
        }
        let multi = model.multi_selector();
        for &(p, m) in &[(4usize, 8192usize), (16, 64 * 1024), (90, 1 << 20)] {
            for c in Collective::ALL {
                assert_eq!(multi.select_for(c, p, m).alg.collective(), c, "p={p} m={m}");
            }
        }
        // Broadcast's entry is the Sect. 4.2 fits, whatever else ran.
        assert_eq!(
            model.collectives[&Collective::Bcast],
            tuner.tune().collectives[&Collective::Bcast]
        );
    }

    /// A non-default breadth segment is measured, served and persisted:
    /// the selector and a campaign both use it, before and after a JSON
    /// round trip.
    #[test]
    fn breadth_seg_size_is_served_where_it_was_measured() {
        let mut config = TunerConfig::quick(8);
        config.breadth.seg_size = 16 * 1024;
        let tuner = Tuner::new(ClusterModel::gros().with_noise(NoiseParams::OFF), config);
        let model = tuner.tune_collectives(&[Collective::Reduce]);
        let back = decode(&Json::parse(&model.to_json().to_string_pretty()).expect("parses"));
        for m in [&model, &back] {
            assert_eq!(m.multi_selector().seg_for(Collective::Reduce), 16 * 1024);
            assert_eq!(m.multi_selector().seg_for(Collective::Bcast), 8 * 1024);
        }
        let plan = CampaignPlan::exhaustive(vec![Collective::Reduce], vec![8], vec![1 << 20]);
        let table = tuner.run_campaign(&plan, None).tables;
        assert_eq!(table.rule_count(), 1);
        let rule = table.lookup(Collective::Reduce, 8, 1 << 20);
        assert_eq!(rule.seg_size, Some(16 * 1024), "{rule:?}");
    }

    /// Broadcast is served from its own Sect. 4.2 fits whatever else the
    /// model holds: a plain `tune()` model and a `--collective reduce`
    /// model both answer broadcast with the argmin over those fits,
    /// never the fixed rules.
    #[test]
    fn broadcast_is_served_from_its_own_fits() {
        let tuner = quick_tuner(8);
        for model in [tuner.tune_collectives(&[Collective::Reduce]), tuner.tune()] {
            assert_eq!(model.tuned_collectives()[0], Collective::Bcast);
            let live = model.multi_selector();
            let graceful = model.degraded_multi_selector();
            for p in [2usize, 4, 9, 24, 64, 128] {
                for m in [512usize, 8192, 100_000, 1 << 20, 8 << 20] {
                    let argmin = model.collectives[&Collective::Bcast]
                        .iter()
                        .map(|(&alg, est)| {
                            let t = collsel_model::collectives::predict(
                                alg,
                                p,
                                m,
                                model.seg_size,
                                &model.gamma.table,
                                &est.hockney,
                            );
                            (alg, t)
                        })
                        .filter(|(_, t)| t.is_finite())
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|(alg, _)| alg);
                    let pick = live.select_for(Collective::Bcast, p, m);
                    assert_eq!(Some(pick.alg), argmin, "p={p} m={m}");
                    let d = graceful.decide_for(Collective::Bcast, p, m);
                    assert!(d.source.is_model(), "p={p} m={m}: {d}");
                    assert_eq!(d.selection, pick, "p={p} m={m}");
                }
            }
        }
    }

    #[test]
    fn compiled_multi_selector_matches_live_on_grid() {
        let tuner = quick_tuner(8);
        for model in [tuner.tune(), tuner.tune_all()] {
            let live = model.multi_selector();
            let compiled = model.compiled_multi_selector_default();
            assert_eq!(compiled.collectives(), model.tuned_collectives());
            for c in model.tuned_collectives() {
                for p in DEPLOYMENT_COMM_SIZES {
                    for m in deployment_msg_sizes() {
                        assert_eq!(
                            compiled.lookup(c, p, m),
                            live.select_for(c, p, m),
                            "{c} p={p} m={m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn try_tune_collectives_matches_infallible_on_a_healthy_cluster() {
        let tuner = quick_tuner(12);
        let breadth = [Collective::Bcast, Collective::Reduce, Collective::Alltoall];
        for (collectives, plain) in [
            (&[Collective::Bcast][..], tuner.tune()),
            (&breadth[..], tuner.tune_collectives(&breadth)),
        ] {
            let report = tuner
                .try_tune_collectives(collectives, Some(&RetryPolicy::no_deadline()))
                .expect("healthy cluster tunes");
            assert!(report.is_complete());
            assert_eq!(report.model, plain, "fault-tolerant path is bit-identical");
        }
        for v in tuner.tune().multi_validity().values() {
            assert!(v.is_valid(), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds cluster")]
    fn rejects_oversized_experiments() {
        let cluster = ClusterModel::builder("tiny", 4).build();
        let _ = Tuner::new(cluster, TunerConfig::quick(16));
    }

    #[test]
    fn try_tune_collectives_fails_fast_when_gamma_cannot_be_measured() {
        use collsel_netsim::SimSpan;
        let tuner = quick_tuner(12);
        let policy = RetryPolicy {
            max_attempts: 1,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let err = tuner
            .try_tune_collectives(&[Collective::Bcast], Some(&policy))
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err}");
    }

    #[test]
    fn degraded_selector_survives_missing_algorithms() {
        let mut model = quick_tuner(12).tune();
        // Pretend half the algorithms were skipped under faults.
        let bcast = model.collectives.get_mut(&Collective::Bcast).unwrap();
        for b in [BcastAlg::Linear, BcastAlg::Chain, BcastAlg::KChain] {
            bcast.remove(&Alg::Bcast(b));
        }
        let sel = model.degraded_multi_selector();
        assert_eq!(sel.modelled_algorithms().len(), 3);
        for &(p, m) in &[(4usize, 512usize), (16, 64 * 1024), (100, 1 << 20)] {
            let d = sel.decide_for(Collective::Bcast, p, m);
            assert!(d.source.is_model(), "three valid models remain: {d:?}");
            assert!(
                matches!(
                    d.selection.alg,
                    Alg::Bcast(BcastAlg::SplitBinary | BcastAlg::Binary | BcastAlg::Binomial)
                ),
                "the model path must only pick surviving algorithms: {d:?}"
            );
        }
    }

    /// `colltune tune --preset gros --tune-p 8 --collective reduce -j 1`
    /// as written before version 2: broadcast in `params` and again in
    /// `collectives.Bcast`, plus `tuning_threads` and `sim_backend`.
    fn v1_fixture() -> Json {
        Json::parse(include_str!("../../../tests/fixtures/model_v1_reduce.json")).expect("parses")
    }

    /// Replaces (or, for `None`, removes) one top-level field.
    fn with_field(json: &Json, key: &str, value: Option<Json>) -> Json {
        let Json::Obj(mut fields) = json.clone() else {
            unreachable!("a model encodes as an object")
        };
        fields.retain(|(k, _)| k != key);
        fields.extend(value.map(|v| (key.to_owned(), v)));
        Json::Obj(fields)
    }

    /// The model file is lossless: floats are written shortest-round-trip,
    /// so a model reads back bit for bit, and a version 1 file decodes to
    /// the same model as its version 2 re-encoding. Version 2 files that
    /// older builds wrote with a top-level `campaign` block (a
    /// measured-winner campaign's coverage accounting) decode to the
    /// same model too: nothing reads the block.
    #[test]
    fn tuned_model_round_trips_through_json() {
        let v1 = decode(&v1_fixture());
        assert_eq!(v1.seg_size, 8 * 1024);
        assert_eq!(v1.breadth_seg_size, collsel_estim::BREADTH_SEG_SIZE);
        assert_eq!(
            v1.tuned_collectives(),
            [Collective::Bcast, Collective::Reduce]
        );
        assert_eq!(v1.collectives[&Collective::Bcast].len(), 6);
        let campaign = Json::obj(vec![
            ("strategy", Json::Str("adaptive (anchor_step=4)".to_owned())),
            ("grid_cells", Json::Num(60.0)),
            ("measured_cells", Json::Num(23.0)),
            ("per_collective", Json::Arr(Vec::new())),
            ("warm_start", Json::Str("self".to_owned())),
            ("budget", Json::Null),
        ]);
        for model in [quick_tuner(8).tune_all(), v1] {
            let json = model.to_json();
            for file in [
                json.clone(),
                with_field(&json, "campaign", Some(campaign.clone())),
            ] {
                let text = file.to_string_pretty();
                assert_eq!(decode(&Json::parse(&text).expect("parses")), model);
            }
        }
    }

    #[test]
    fn pre_breadth_model_files_still_decode() {
        // Version 1 files written before the breadth campaigns existed
        // have no `collectives` field; they load as broadcast-only
        // models, not fail.
        let mut want = decode(&v1_fixture());
        want.collectives.retain(|&c, _| c == Collective::Bcast);
        let bare = with_field(&v1_fixture(), "collectives", None);
        assert_eq!(decode(&bare), want);
    }

    /// A version 1 file decodes to the same model whatever it holds
    /// under `collectives.Bcast` — the copy, nothing, or an empty
    /// entry: broadcast is read from `params` alone.
    #[test]
    fn broadcast_copy_under_collectives_is_ignored_on_decode() {
        let json = v1_fixture();
        let Some(Json::Obj(entries)) = json.get("collectives") else {
            panic!("the fixture has a collectives object")
        };
        for copy in [None, Some(Json::Obj(Vec::new()))] {
            let mut entries = entries.clone();
            entries.retain(|(c, _)| c != "Bcast");
            entries.extend(copy.clone().map(|c| ("Bcast".to_owned(), c)));
            let edited = with_field(&json, "collectives", Some(Json::Obj(entries)));
            assert_eq!(decode(&edited), decode(&json), "{copy:?}");
        }
    }

    /// Version 2 mirrors the model: no `params`, and broadcast's six
    /// fits listed once, under qualified keys in `collectives.Bcast`.
    #[test]
    fn v2_stores_every_fit_once_under_collectives() {
        let json = quick_tuner(8).tune().to_json();
        let Json::Obj(fields) = &json else {
            unreachable!("a model encodes as an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let want = "format_version cluster_name gamma collectives seg_size breadth_seg_size";
        assert_eq!(keys.join(" "), want);
        assert_eq!(json.get("format_version"), Some(&Json::Num(2.0)));
        let collectives: BTreeMap<String, BTreeMap<String, Json>> =
            FromJson::from_json(json.field("collectives").expect("collectives"))
                .expect("an object of objects");
        let bcast: Vec<&String> = collectives["Bcast"].keys().collect();
        assert!(bcast.len() == 6 && bcast.iter().all(|k| k.starts_with("bcast/")));
    }

    #[test]
    fn decoder_rejects_unknown_versions_and_zero_segments() {
        let json = quick_tuner(8).tune().to_json();
        let err = |json: &Json| TunedModel::from_json(json).unwrap_err().0;
        let msg = err(&with_field(&json, "format_version", Some(Json::Num(3.0))));
        assert!(msg.contains("format_version 3"), "{msg}");
        for field in ["seg_size", "breadth_seg_size"] {
            let msg = err(&with_field(&json, field, Some(Json::Num(0.0))));
            assert!(msg.contains(&format!("`{field}`")), "{msg}");
        }
        let v1 = with_field(&v1_fixture(), "seg_size", Some(Json::Num(0.0)));
        assert!(err(&v1).contains("`seg_size`"));
    }
}
