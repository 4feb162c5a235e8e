//! One-stop tuning workflow: from a cluster description to a runtime
//! decision function.
//!
//! [`Tuner`] packages the paper's whole pipeline:
//!
//! 1. estimate γ(P) from non-blocking linear broadcast experiments
//!    (Sect. 4.1);
//! 2. estimate a per-algorithm `(α, β)` pair from broadcast + gather
//!    experiments solved by Huber regression (Sect. 4.2);
//! 3. assemble the [`CollectiveModelSelector`] that picks the
//!    predicted-fastest algorithm at runtime (Sect. 5.3) —
//!    [`TunedModel::multi_selector`].
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
//! Within each cell, measurements run by default on the timing-DAG
//! backend ([`collsel_mpi::Backend::Dag`]): the measurement program is
//! recorded and lowered to a static timing DAG once per cell (memoised
//! process-wide), then repetitions are batch-evaluated payload-free
//! with zero OS threads per run, so a campaign's threads are spent
//! *across* cells, not inside them. [`TunerConfig::with_backend`] (or
//! `colltune tune --backend threads`) runs every cell on the threaded
//! oracle instead; the tuned model is bit-identical on both.

use collsel_coll::{Alg, BcastAlg, Collective};
use collsel_estim::{
    estimate_all_alpha_beta, estimate_collective_family, estimate_gamma, measure_family_cell,
    plan_crossover_fill, try_estimate_all_alpha_beta, try_estimate_collective_family,
    try_estimate_gamma, AlphaBetaConfig, AlphaBetaEstimate, BreadthConfig, GammaConfig,
    GammaEstimate, Precision, RetryPolicy,
};
use collsel_model::{FitValidity, Hockney};
use collsel_mpi::{Backend, SimError};
use collsel_netsim::ClusterModel;
use collsel_select::{
    CollDecisionTable, CollSelection, CollectiveModelSelector, CollectiveSelector,
    CompiledCollectiveSelector, FallbackReason, GracefulCollectiveSelector,
};
use collsel_support::pool::Pool;
use collsel_support::FromJson;
use std::collections::BTreeMap;

/// Configuration of a full tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// γ estimation settings (Sect. 4.1).
    pub gamma: GammaConfig,
    /// α/β estimation settings (Sect. 4.2).
    pub alpha_beta: AlphaBetaConfig,
    /// Per-collective estimation sweep settings (the Sect. 4.2
    /// methodology widened beyond broadcast; used by
    /// [`Tuner::tune_collectives`]).
    pub breadth: BreadthConfig,
    /// Segment size the tuned selector will use for segmented
    /// algorithms (the paper fixes 8 KB).
    pub seg_size: usize,
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
            seg_size: 8 * 1024,
            seed: 0xC0115E1,
        }
    }

    /// A fast, loose configuration for tests and demos.
    pub fn quick(experiment_p: usize) -> Self {
        TunerConfig {
            gamma: GammaConfig::quick(),
            alpha_beta: AlphaBetaConfig::quick(experiment_p),
            breadth: BreadthConfig::quick(experiment_p),
            seg_size: 8 * 1024,
            seed: 0xC0115E1,
        }
    }

    /// Runs every measurement cell of the campaign — γ, α/β and the
    /// per-collective sweeps — on `backend`.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.gamma.backend = backend;
        self.alpha_beta.backend = backend;
        self.breadth.backend = backend;
        self
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
    /// Per-algorithm broadcast estimation results (paper Table 2) —
    /// the one source of truth for every broadcast decision.
    pub params: BTreeMap<BcastAlg, AlphaBetaEstimate>,
    /// Per-collective estimation results beyond broadcast, keyed by
    /// collective then by qualified algorithm (empty for models tuned
    /// by the broadcast-only [`Tuner::tune`]; a `Bcast` entry, where
    /// present, is a verbatim copy of `params`).
    pub collectives: BTreeMap<Collective, BTreeMap<Alg, AlphaBetaEstimate>>,
    /// Segment size of the tuned selector.
    pub seg_size: usize,
}

impl TunedModel {
    /// The per-algorithm Hockney pairs (paper Table 2's content).
    pub fn hockney_table(&self) -> BTreeMap<BcastAlg, Hockney> {
        self.params
            .iter()
            .map(|(&alg, est)| (alg, est.hockney))
            .collect()
    }

    /// Judges every stored broadcast fit (computed from the stored
    /// data, never persisted — older model files gain verdicts for
    /// free).
    pub fn validity(&self) -> BTreeMap<BcastAlg, FitValidity> {
        self.params
            .iter()
            .map(|(&alg, est)| (alg, est.validity()))
            .collect()
    }

    /// The tuned collectives, in [`Collective::ALL`] order: broadcast
    /// (every model runs the Sect. 4.2 broadcast stage) plus every
    /// collective a breadth campaign fitted.
    pub fn tuned_collectives(&self) -> Vec<Collective> {
        Collective::ALL
            .into_iter()
            .filter(|c| *c == Collective::Bcast || self.collectives.contains_key(c))
            .collect()
    }

    /// Every fit keyed by qualified algorithm: broadcast's from
    /// `params`, the other collectives' from `collectives`.
    fn fits(&self) -> impl Iterator<Item = (Alg, &AlphaBetaEstimate)> {
        let bcast = self.params.iter().map(|(&b, est)| (Alg::Bcast(b), est));
        let breadth = self
            .collectives
            .iter()
            .filter(|(&c, _)| c != Collective::Bcast)
            .flat_map(|(_, fits)| fits.iter().map(|(&alg, est)| (alg, est)));
        bcast.chain(breadth)
    }

    /// The per-algorithm Hockney pairs across every tuned collective,
    /// keyed by qualified algorithm.
    pub fn multi_hockney_table(&self) -> BTreeMap<Alg, Hockney> {
        self.fits().map(|(alg, est)| (alg, est.hockney)).collect()
    }

    /// Validity verdicts for every tuned collective's fits.
    pub fn multi_validity(&self) -> BTreeMap<Alg, FitValidity> {
        self.fits()
            .map(|(alg, est)| (alg, est.validity()))
            .collect()
    }

    /// Builds the runtime decision function: argmin over the tuned fits
    /// per collective, falling back to the fixed rules for collectives
    /// without usable fits.
    ///
    /// The broadcast arm evaluates at the tuned broadcast segment (the
    /// paper's 8 KB); every other collective evaluates at the breadth
    /// campaigns' coarser [`BREADTH_SEG_SIZE`](collsel_estim::BREADTH_SEG_SIZE) —
    /// the segment its fits were estimated with. Serving them at the
    /// broadcast segment instead would charge the pipelined algorithms
    /// eight times the per-segment overheads their fits absorbed,
    /// mis-ranking them at large payloads.
    pub fn multi_selector(&self) -> CollectiveModelSelector {
        let mut selector = CollectiveModelSelector::new(
            self.gamma.table.clone(),
            self.multi_hockney_table(),
            self.seg_size,
        );
        for c in Collective::ALL {
            if c != Collective::Bcast {
                selector = selector.with_seg_size(c, collsel_estim::BREADTH_SEG_SIZE);
            }
        }
        selector
    }

    /// The graceful runtime decision function: only fits that pass
    /// validation join the rankings, queries no valid model can decide
    /// fall back to the fixed rules, and per decision the fallback
    /// reason is reported. Segment sizes follow
    /// [`multi_selector`](Self::multi_selector).
    pub fn degraded_multi_selector(&self) -> GracefulCollectiveSelector {
        let mut selector = GracefulCollectiveSelector::new(
            self.gamma.table.clone(),
            self.multi_hockney_table(),
            self.multi_validity(),
            self.seg_size,
        );
        for c in Collective::ALL {
            if c != Collective::Bcast {
                selector = selector.with_seg_size(c, collsel_estim::BREADTH_SEG_SIZE);
            }
        }
        selector
    }

    /// Materialises the decision table of one tuned collective over the
    /// given grids.
    ///
    /// # Panics
    ///
    /// Panics if either grid is empty or unsorted.
    pub fn decision_table(
        &self,
        collective: Collective,
        comm_sizes: &[usize],
        msg_sizes: &[usize],
    ) -> CollDecisionTable {
        CollDecisionTable::generate(&self.multi_selector(), collective, comm_sizes, msg_sizes)
    }

    /// Compiles every tuned collective's decision table into one
    /// [`CompiledCollectiveSelector`] over the given grids: the
    /// serving-time shape of the model (two binary searches per query,
    /// no allocation) for call sites that query at MPI call rates.
    /// Off-grid queries snap exactly like [`CollDecisionTable::lookup`].
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
    /// the default deployment grids (the ones `colltune export` and the
    /// decision server use): communicator sizes 2..128 in powers of
    /// two, fourteen log-spaced message sizes from 1 KB to 8 MB.
    pub fn compiled_multi_selector_default(&self) -> CompiledCollectiveSelector {
        let msg_sizes = collsel_estim::log_spaced_sizes(1024, 8 * 1024 * 1024, 14);
        self.compiled_multi_selector(&[2, 4, 8, 16, 32, 64, 128], &msg_sizes)
    }
}

/// The output of a fault-tolerant tuning run: the model assembled from
/// whatever fits survived, plus the per-algorithm failures.
#[derive(Debug)]
pub struct TuneReport {
    /// The tuned model over the algorithms that fitted.
    pub model: TunedModel,
    /// Broadcast algorithms whose estimation failed, with the typed
    /// reason.
    pub skipped: BTreeMap<BcastAlg, SimError>,
    /// Algorithms of the breadth campaigns whose estimation failed
    /// (empty for broadcast-only runs).
    pub skipped_multi: BTreeMap<Alg, SimError>,
}

impl TuneReport {
    /// Whether every algorithm fitted (nothing was skipped).
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty() && self.skipped_multi.is_empty()
    }

    /// Like [`TunedModel::degraded_multi_selector`], but with the
    /// report's skipped-algorithm errors — broadcast's and the breadth
    /// campaigns' — attached as fallback causes: a decision for a
    /// collective whose fits are all missing carries
    /// `EstimationTimeout` / `PrecisionNotReached` instead of the
    /// generic `NoUsableModel`.
    pub fn degraded_multi_selector(&self) -> GracefulCollectiveSelector {
        let bcast = self.skipped.iter().map(|(&b, e)| (Alg::Bcast(b), e));
        let breadth = self.skipped_multi.iter().map(|(&alg, e)| (alg, e));
        let failures = bcast
            .chain(breadth)
            .map(|(alg, e)| (alg, FallbackReason::from_sim_error(e)))
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

    /// Runs the full pipeline: γ, then per-algorithm (α, β).
    ///
    /// This performs simulated communication experiments and can take
    /// seconds for paper-scale configurations. Within each stage the
    /// independent cells run across the current thread pool (see the
    /// module docs); the result does not depend on the thread count.
    pub fn tune(&self) -> TunedModel {
        let gamma = estimate_gamma(&self.cluster, &self.config.gamma, self.config.seed);
        let params = estimate_all_alpha_beta(
            &self.cluster,
            &self.config.alpha_beta,
            &gamma.table,
            self.config.seed.wrapping_add(1),
        );
        TunedModel {
            cluster_name: self.cluster.name().to_owned(),
            gamma,
            params,
            collectives: BTreeMap::new(),
            seg_size: self.config.seg_size,
        }
    }

    /// Runs the full pipeline *plus* a breadth campaign per listed
    /// collective: after γ and the broadcast fits, each collective's
    /// algorithm family is fitted from its own timed sweeps
    /// ([`estimate_collective_family`]).
    ///
    /// Broadcast's per-collective entry reuses the Sect. 4.2
    /// gather-conditioned fits rather than re-measuring — the dedicated
    /// broadcast estimation is strictly better conditioned. The entry is
    /// a verbatim copy of `params`, which stays the source every
    /// broadcast decision reads.
    pub fn tune_collectives(&self, collectives: &[Collective]) -> TunedModel {
        let mut model = self.tune();
        for &c in collectives {
            let fits = if c == Collective::Bcast {
                model
                    .params
                    .iter()
                    .map(|(&b, est)| (Alg::Bcast(b), est.clone()))
                    .collect()
            } else {
                estimate_collective_family(
                    &self.cluster,
                    c,
                    &self.config.breadth,
                    &model.gamma.table,
                    self.breadth_seed(c),
                )
            };
            model.collectives.insert(c, fits);
        }
        model
    }

    /// [`tune_collectives`](Self::tune_collectives) over all seven
    /// collectives.
    pub fn tune_all(&self) -> TunedModel {
        self.tune_collectives(&Collective::ALL)
    }

    /// The seed of one collective's breadth campaign: decorrelated from
    /// the γ (seed) and broadcast (seed+1) stages and from the other
    /// collectives.
    fn breadth_seed(&self, c: Collective) -> u64 {
        self.config
            .seed
            .wrapping_add(2)
            .wrapping_add((c.index() as u64) << 40)
    }

    /// Fault-tolerant pipeline for clusters running under an injected
    /// [`collsel_netsim::FaultPlan`]: every measurement runs under
    /// `policy`'s virtual-time watchdog with retry-and-backoff.
    ///
    /// Failure is graded, not binary:
    ///
    /// * a γ estimation failure is **fatal** (`Err`) — every derived
    ///   model shares the γ table, so nothing useful can be built;
    /// * a per-algorithm (α, β) failure **skips that algorithm** — the
    ///   report records the typed reason and
    ///   [`TuneReport::degraded_multi_selector`] falls back to the Open
    ///   MPI rules wherever the surviving models cannot decide.
    ///
    /// # Errors
    ///
    /// Returns the γ estimation's [`SimError`] (timeout, precision not
    /// reached, deadlock, rank panic) when the foundation cannot be
    /// measured.
    pub fn try_tune(&self, policy: &RetryPolicy) -> Result<TuneReport, SimError> {
        let gamma =
            try_estimate_gamma(&self.cluster, &self.config.gamma, self.config.seed, policy)?;
        let outcomes = try_estimate_all_alpha_beta(
            &self.cluster,
            &self.config.alpha_beta,
            &gamma.table,
            self.config.seed.wrapping_add(1),
            policy,
        );
        let mut params = BTreeMap::new();
        let mut skipped = BTreeMap::new();
        for (alg, outcome) in outcomes {
            match outcome {
                Ok(est) => {
                    params.insert(alg, est);
                }
                Err(e) => {
                    skipped.insert(alg, e);
                }
            }
        }
        Ok(TuneReport {
            model: TunedModel {
                cluster_name: self.cluster.name().to_owned(),
                gamma,
                params,
                collectives: BTreeMap::new(),
                seg_size: self.config.seg_size,
            },
            skipped,
            skipped_multi: BTreeMap::new(),
        })
    }

    /// Fault-tolerant twin of [`tune_collectives`]
    /// (Self::tune_collectives): the γ and broadcast stages follow
    /// [`try_tune`](Self::try_tune)'s grading, and each breadth
    /// algorithm that stalls is skipped individually — its collective
    /// keeps the fits that survived, and the graceful selector falls
    /// back to the fixed rules wherever a family lost every fit.
    ///
    /// # Errors
    ///
    /// Returns the γ estimation's [`SimError`] when the foundation
    /// cannot be measured.
    pub fn try_tune_collectives(
        &self,
        collectives: &[Collective],
        policy: &RetryPolicy,
    ) -> Result<TuneReport, SimError> {
        let mut report = self.try_tune(policy)?;
        for &c in collectives {
            let mut fits = BTreeMap::new();
            if c == Collective::Bcast {
                for (&b, est) in &report.model.params {
                    fits.insert(Alg::Bcast(b), est.clone());
                }
                // Broadcast algorithms skipped by the Sect. 4.2 stage
                // stay skipped here, under their qualified name.
                for (&b, e) in &report.skipped {
                    report.skipped_multi.insert(Alg::Bcast(b), e.clone());
                }
            } else {
                let outcomes = try_estimate_collective_family(
                    &self.cluster,
                    c,
                    &self.config.breadth,
                    &report.model.gamma.table,
                    self.breadth_seed(c),
                    policy,
                );
                for (alg, outcome) in outcomes {
                    match outcome {
                        Ok(est) => {
                            fits.insert(alg, est);
                        }
                        Err(e) => {
                            report.skipped_multi.insert(alg, e);
                        }
                    }
                }
            }
            report.model.collectives.insert(c, fits);
        }
        Ok(report)
    }
}

/// How a measurement campaign covers its (collective, P, m) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStrategy {
    /// Measure every grid cell to full precision — the differential
    /// oracle the adaptive path is gated against.
    Exhaustive,
    /// Crossover bisection on m plus leader-settled repetitions.
    Adaptive {
        /// Anchor stride on the m grid: every `anchor_step`-th index is
        /// measured unconditionally, bounding how narrow a winner
        /// island can hide between anchors.
        anchor_step: usize,
        /// Stop sampling an algorithm as soon as its CI separates
        /// above the leader's
        /// ([`measure_family_cell`]'s early-stop rule).
        leader_early_stop: bool,
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
    /// Execution backend of every simulated cell.
    pub backend: Backend,
    /// Base seed; every cell derives its own seed from its grid
    /// position, so campaigns are bit-identical at any thread count.
    pub seed: u64,
    /// Grid-coverage strategy.
    pub strategy: CampaignStrategy,
    /// Cap on *measured* cells per (collective, P) row (adaptive
    /// strategy only; the m-grid endpoints are always measured). When
    /// the budget runs out, unresolved intervals fill from the nearest
    /// measured anchors and the report flags the exhaustion.
    pub budget: Option<usize>,
    /// Minimum relative winner-over-runner-up lead for a measured cell
    /// to anchor an interpolation (see
    /// [`collsel_estim::DECISIVE_MARGIN`], the default). Raising it
    /// densifies more of the near-tie regions; lowering it interpolates
    /// more aggressively.
    pub decisive_margin: f64,
}

impl CampaignPlan {
    /// An exhaustive plan over the given grids with the quick
    /// precision and the default backend.
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
            backend: Backend::default(),
            seed: 0xC0115E1,
            strategy: CampaignStrategy::Exhaustive,
            budget: None,
            decisive_margin: collsel_estim::DECISIVE_MARGIN,
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
            strategy: CampaignStrategy::Adaptive {
                anchor_step,
                leader_early_stop: true,
            },
            ..CampaignPlan::exhaustive(collectives, comm_sizes, msg_sizes)
        }
    }

    /// Total grid cells ((P, m) pairs summed over the collectives).
    pub fn grid_cells(&self) -> usize {
        self.collectives.len() * self.comm_sizes.len() * self.msg_sizes.len()
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

/// The outcome of [`Tuner::run_campaign`]: one measured-winner
/// decision table per collective, plus the cost accounting the
/// differential gates in `tests/adaptive_campaign.rs` assert over.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Decision tables in plan order, keyed by collective.
    pub tables: BTreeMap<Collective, CollDecisionTable>,
    /// Per-collective cost accounting, in plan order.
    pub per_collective: Vec<CollectiveCampaignStats>,
    /// Whether any (collective, P) row hit the measurement budget.
    pub budget_exhausted: bool,
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

/// Serves a measured winner grid to [`CollDecisionTable::generate`],
/// which only queries exactly on the grid.
#[derive(Debug)]
struct GridWinnerSelector<'a> {
    comm_sizes: &'a [usize],
    msg_sizes: &'a [usize],
    /// `winners[pi][mi]`, resolved over the full grid.
    winners: &'a [Vec<Alg>],
    seg_size: usize,
}

impl CollectiveSelector for GridWinnerSelector<'_> {
    fn select_for(&self, _collective: Collective, p: usize, m: usize) -> CollSelection {
        let pi = self
            .comm_sizes
            .iter()
            .position(|&x| x == p)
            .expect("table generation stays on the campaign grid");
        let mi = self
            .msg_sizes
            .iter()
            .position(|&x| x == m)
            .expect("table generation stays on the campaign grid");
        CollSelection::segmented(self.winners[pi][mi], self.seg_size)
    }

    fn name(&self) -> &str {
        "measured-grid"
    }
}

/// One (collective, P) row's resolved winner column plus its costs.
struct CampaignRow {
    winners: Vec<usize>,
    measured: usize,
    batches: usize,
    budget_exhausted: bool,
}

impl Tuner {
    /// Runs a measured-winner campaign: simulates (a subset of) the
    /// plan's grid cells, resolves every cell's winning algorithm and
    /// materialises one [`CollDecisionTable`] per collective through
    /// the same merge contract as the model-predicted tables.
    ///
    /// The (collective, P) rows fan out across the current
    /// [`Pool`]; within a row the bisection is sequential (each probe
    /// decides the next). Every cell's seed derives from its grid
    /// position — campaigns are **bit-identical at any thread count
    /// and on either backend**, and an adaptive plan must produce the
    /// byte-identical tables of its exhaustive twin
    /// (`tests/adaptive_campaign.rs` and its CI gate assert this).
    ///
    /// `warm` seeds the anchors from an already-tuned neighbor: its
    /// model predicts the winner column, and only the predicted
    /// crossover neighborhoods — plus wherever a fresh measurement
    /// disagrees with the prediction — are measured. Ignored by the
    /// exhaustive strategy.
    ///
    /// Segment sizes follow the serving convention of
    /// [`TunedModel::multi_selector`]: broadcast cells run at the
    /// tuned segment, every other collective at
    /// [`BREADTH_SEG_SIZE`](collsel_estim::BREADTH_SEG_SIZE).
    ///
    /// # Panics
    ///
    /// Panics if a grid is empty or not strictly ascending, or a
    /// communicator size exceeds the cluster's slots.
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
        let mut tables = BTreeMap::new();
        let mut per_collective = Vec::with_capacity(plan.collectives.len());
        let mut budget_exhausted = false;
        for (ci, &c) in plan.collectives.iter().enumerate() {
            let rows = &rows[ci * comm_count..(ci + 1) * comm_count];
            let algs = c.algorithms();
            let winners: Vec<Vec<Alg>> = rows
                .iter()
                .map(|r| r.winners.iter().map(|&w| algs[w]).collect())
                .collect();
            let selector = GridWinnerSelector {
                comm_sizes: &plan.comm_sizes,
                msg_sizes: &plan.msg_sizes,
                winners: &winners,
                seg_size: self.campaign_seg(c),
            };
            tables.insert(
                c,
                CollDecisionTable::generate(&selector, c, &plan.comm_sizes, &plan.msg_sizes),
            );
            per_collective.push(CollectiveCampaignStats {
                collective: c,
                grid_cells: comm_count * plan.msg_sizes.len(),
                measured_cells: rows.iter().map(|r| r.measured).sum(),
                simulated_batches: rows.iter().map(|r| r.batches).sum(),
            });
            budget_exhausted |= rows.iter().any(|r| r.budget_exhausted);
        }
        CampaignReport {
            tables,
            per_collective,
            budget_exhausted,
        }
    }

    /// The segment size campaign cells run at — the serving convention
    /// of [`TunedModel::multi_selector`].
    fn campaign_seg(&self, c: Collective) -> usize {
        if c == Collective::Bcast {
            self.config.seg_size
        } else {
            collsel_estim::BREADTH_SEG_SIZE
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
        let seg = self.campaign_seg(c);
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
                plan.backend,
                early,
            );
            *batches += cell.batches;
            (cell.winner, cell.runner_up_margin() >= plan.decisive_margin)
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
                    budget_exhausted: false,
                }
            }
            CampaignStrategy::Adaptive {
                anchor_step,
                leader_early_stop,
            } => {
                // A hint is the model's predicted winner plus whether
                // the model predicts that win decisively — by
                // HINT_MARGIN_FACTOR times the measured margin, since
                // predictions carry fitting error. Cells the model
                // itself calls close are measured, never trusted.
                let hint_margin = collsel_estim::HINT_MARGIN_FACTOR * plan.decisive_margin;
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
                let crossover =
                    plan_crossover_fill(n, anchor_step, hints.as_deref(), plan.budget, |mi| {
                        measure(mi, leader_early_stop, &mut batches)
                    });
                CampaignRow {
                    measured: crossover.measured_count(),
                    winners: crossover.winners,
                    batches,
                    budget_exhausted: crossover.budget_exhausted,
                }
            }
        }
    }
}

// JSON persistence (layout-compatible with the former serde derives).
// Hand-written rather than `json_struct!` so that `collectives` is
// optional on decode: model files written before the breadth campaigns
// existed (including the committed `results/table2.json` artifact and
// any user's saved broadcast-only model) must keep loading, with the
// per-collective fits defaulting to empty.
impl collsel_support::ToJson for TunedModel {
    fn to_json(&self) -> collsel_support::Json {
        collsel_support::Json::Obj(vec![
            ("cluster_name".to_string(), self.cluster_name.to_json()),
            ("gamma".to_string(), self.gamma.to_json()),
            ("params".to_string(), self.params.to_json()),
            ("collectives".to_string(), self.collectives.to_json()),
            ("seg_size".to_string(), self.seg_size.to_json()),
        ])
    }
}
impl collsel_support::FromJson for TunedModel {
    fn from_json(v: &collsel_support::Json) -> Result<Self, collsel_support::JsonError> {
        Ok(TunedModel {
            cluster_name: FromJson::from_json(v.field("cluster_name")?)?,
            gamma: FromJson::from_json(v.field("gamma")?)?,
            params: FromJson::from_json(v.field("params")?)?,
            collectives: match v.get("collectives") {
                Some(c) => FromJson::from_json(c)?,
                None => BTreeMap::new(),
            },
            seg_size: FromJson::from_json(v.field("seg_size")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    #[test]
    fn quick_tune_produces_complete_model() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let tuner = Tuner::new(cluster, TunerConfig::quick(16));
        let model = tuner.tune();
        assert_eq!(model.cluster_name, "gros");
        assert_eq!(model.params.len(), 6, "all six algorithms tuned");
        assert_eq!(model.tuned_collectives(), vec![Collective::Bcast]);
        let sel = model
            .multi_selector()
            .select_for(Collective::Bcast, 16, 64 * 1024);
        assert_eq!(sel.seg_size, Some(8 * 1024));
    }

    #[test]
    fn tuned_selector_never_picks_linear_at_scale() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let model = Tuner::new(cluster, TunerConfig::quick(16)).tune();
        let selector = model.multi_selector();
        for m in [8 * 1024, 64 * 1024, 1 << 20] {
            let pick = selector.select_for(Collective::Bcast, 100, m).alg;
            assert_ne!(pick, Alg::Bcast(BcastAlg::Linear));
        }
    }

    #[test]
    fn tune_is_bit_identical_across_backends() {
        use collsel_mpi::Backend;
        // Noise stays ON: the tuned parameters must match to the last
        // bit even when every sample carries jitter.
        let cluster = ClusterModel::gros();
        let dag_cfg = TunerConfig::quick(10);
        let threads_cfg = dag_cfg.clone().with_backend(Backend::Threads);
        // No sub-config is left behind, in either direction.
        for (cfg, backend) in [(&dag_cfg, Backend::Dag), (&threads_cfg, Backend::Threads)] {
            assert_eq!(cfg.gamma.backend, backend);
            assert_eq!(cfg.alpha_beta.backend, backend);
            assert_eq!(cfg.breadth.backend, backend);
        }
        let dag = Tuner::new(cluster.clone(), dag_cfg).tune();
        let threads = Tuner::new(cluster, threads_cfg).tune();
        assert_eq!(dag, threads, "backends must tune identical models");
    }

    #[test]
    fn tune_all_fits_every_collective_family() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let model = Tuner::new(cluster, TunerConfig::quick(8)).tune_all();
        assert_eq!(model.tuned_collectives(), Collective::ALL.to_vec());
        for (c, fits) in &model.collectives {
            assert_eq!(fits.len(), c.algorithms().len(), "{c}");
            for alg in fits.keys() {
                assert_eq!(alg.collective(), *c);
            }
        }
        // Broadcast's entry is the Sect. 4.2 fits, re-keyed.
        for (&b, est) in &model.params {
            assert_eq!(model.collectives[&Collective::Bcast][&Alg::Bcast(b)], *est);
        }
    }

    #[test]
    fn multi_selector_serves_every_collective() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let model = Tuner::new(cluster, TunerConfig::quick(8)).tune_all();
        let multi = model.multi_selector();
        for &(p, m) in &[(4usize, 8192usize), (16, 64 * 1024), (90, 1 << 20)] {
            for c in Collective::ALL {
                let s = multi.select_for(c, p, m);
                assert_eq!(s.alg.collective(), c, "p={p} m={m}");
            }
        }
    }

    /// Broadcast is served from `params` whatever else the model holds:
    /// a plain `tune()` model and a `--collective reduce` model carry no
    /// `collectives[Bcast]` entry, yet their broadcast answers are the
    /// argmin over their own broadcast fits, never the fixed rules.
    #[test]
    fn broadcast_is_served_from_its_own_fits() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let tuner = Tuner::new(cluster, TunerConfig::quick(8));
        for model in [tuner.tune_collectives(&[Collective::Reduce]), tuner.tune()] {
            assert!(!model.collectives.contains_key(&Collective::Bcast));
            let live = model.multi_selector();
            let graceful = model.degraded_multi_selector();
            for p in [2usize, 4, 9, 24, 64, 128] {
                for m in [512usize, 8192, 100_000, 1 << 20, 8 << 20] {
                    let argmin = model
                        .params
                        .iter()
                        .map(|(&b, est)| {
                            let t = collsel_model::derived::predict_bcast(
                                b,
                                p,
                                m,
                                model.seg_size,
                                &model.gamma.table,
                                &est.hockney,
                            );
                            (b, t)
                        })
                        .filter(|(_, t)| t.is_finite())
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|(b, _)| Alg::Bcast(b));
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
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let tuner = Tuner::new(cluster, TunerConfig::quick(8));
        for model in [tuner.tune(), tuner.tune_all()] {
            let live = model.multi_selector();
            let compiled = model.compiled_multi_selector_default();
            assert_eq!(compiled.collectives(), model.tuned_collectives());
            for c in model.tuned_collectives() {
                for &p in &[2usize, 4, 8, 16, 32, 64, 128] {
                    for m in collsel_estim::log_spaced_sizes(1024, 8 * 1024 * 1024, 14) {
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
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let tuner = Tuner::new(cluster, TunerConfig::quick(6));
        let collectives = [Collective::Bcast, Collective::Reduce, Collective::Alltoall];
        let plain = tuner.tune_collectives(&collectives);
        let report = tuner
            .try_tune_collectives(&collectives, &RetryPolicy::no_deadline())
            .expect("healthy cluster tunes");
        assert!(report.is_complete());
        assert_eq!(report.model, plain, "fault-tolerant path is bit-identical");
    }

    #[test]
    #[should_panic(expected = "exceeds cluster")]
    fn rejects_oversized_experiments() {
        let cluster = ClusterModel::builder("tiny", 4).build();
        let _ = Tuner::new(cluster, TunerConfig::quick(16));
    }

    #[test]
    fn try_tune_matches_tune_on_a_healthy_cluster() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let tuner = Tuner::new(cluster, TunerConfig::quick(12));
        let plain = tuner.tune();
        let report = tuner
            .try_tune(&RetryPolicy::no_deadline())
            .expect("healthy cluster tunes");
        assert!(report.is_complete());
        assert_eq!(report.model, plain, "fault-tolerant path is bit-identical");
        for v in tuner.tune().validity().values() {
            assert!(v.is_valid(), "{v}");
        }
    }

    #[test]
    fn try_tune_fails_fast_when_gamma_cannot_be_measured() {
        use collsel_netsim::SimSpan;
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let tuner = Tuner::new(cluster, TunerConfig::quick(12));
        let policy = RetryPolicy {
            max_attempts: 1,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let err = tuner.try_tune(&policy).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err}");
    }

    #[test]
    fn degraded_selector_survives_missing_algorithms() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let mut model = Tuner::new(cluster, TunerConfig::quick(12)).tune();
        // Pretend half the algorithms were skipped under faults.
        model.params.remove(&BcastAlg::Linear);
        model.params.remove(&BcastAlg::Chain);
        model.params.remove(&BcastAlg::KChain);
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
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    #[test]
    fn tuned_model_round_trips_through_json() {
        // The colltune workflow persists models as JSON; selections
        // must survive the round trip bit-for-bit.
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let model = Tuner::new(cluster, TunerConfig::quick(12)).tune();
        let json = collsel_support::ToJson::to_json(&model).to_string_pretty();
        let value = collsel_support::Json::parse(&json).expect("parses");
        let back: TunedModel = collsel_support::FromJson::from_json(&value).expect("decodes");
        // Floats may lose the last ulp through the JSON text form, so
        // compare behaviourally: same structure, same parameters to
        // high precision, identical runtime selections.
        assert_eq!(back.cluster_name, model.cluster_name);
        assert_eq!(back.seg_size, model.seg_size);
        assert_eq!(back.params.len(), model.params.len());
        for (alg, est) in &model.params {
            let h1 = est.hockney;
            let h2 = back.params[alg].hockney;
            assert!((h1.alpha - h2.alpha).abs() <= 1e-12 * h1.alpha.abs().max(1e-30));
            assert!((h1.beta - h2.beta).abs() <= 1e-12 * h1.beta.abs().max(1e-30));
        }
        let (a, b) = (model.multi_selector(), back.multi_selector());
        for m in [4 * 1024, 64 * 1024, 1 << 20] {
            assert_eq!(
                a.select_for(Collective::Bcast, 64, m),
                b.select_for(Collective::Bcast, 64, m)
            );
        }
    }

    #[test]
    fn pre_breadth_model_files_still_decode() {
        // Model JSON written before the breadth campaigns existed has
        // no `collectives` field; it must load with the per-collective
        // fits empty, not fail (regression: the committed
        // results/table2.json artifact and any saved broadcast-only
        // model).
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let model = Tuner::new(cluster, TunerConfig::quick(12)).tune();
        let json = collsel_support::ToJson::to_json(&model).to_string_pretty();
        let value = collsel_support::Json::parse(&json).expect("parses");
        let legacy = match value {
            collsel_support::Json::Obj(fields) => collsel_support::Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "collectives")
                    .collect(),
            ),
            other => other,
        };
        let back: TunedModel = collsel_support::FromJson::from_json(&legacy).expect("decodes");
        assert!(back.collectives.is_empty());
        assert_eq!(back.tuned_collectives(), vec![Collective::Bcast]);
        assert_eq!(back.cluster_name, model.cluster_name);
        assert_eq!(back.params.len(), model.params.len());
    }
}
