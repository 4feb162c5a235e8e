//! Decision functions keyed by **`(collective, P, m)`** — the paper's
//! runtime decision function (Sect. 5.3) applied unchanged to every
//! collective, broadcast included — and the stack that serves them.
//!
//! * [`CollSelection`] — an [`Alg`] (tagged with its collective, so a
//!   selection can never be applied to the wrong collective) plus the
//!   segment size to run it with;
//! * [`CollectiveSelector`] — the decision-function trait;
//! * [`fixed_selection`] / [`OpenMpiCollectiveSelector`] — Open MPI
//!   3.1's fixed rules; the broadcast arm is the faithful port the paper
//!   compares against;
//! * [`CollectiveModelSelector`] — the paper's contribution: argmin over
//!   the implementation-derived models with per-algorithm parameters
//!   (plus the joint segment-size sweep);
//! * [`TraditionalModelSelector`] — the textbook-model ablation;
//! * [`GracefulCollectiveSelector`] — validity-filtered ranking with a
//!   per-query fixed-rules fallback whose cause ([`FallbackReason`]) is
//!   reported through [`CollDecision`];
//! * [`CompiledCollectiveSelector`] — the decision table: a selector
//!   tabulated over a (P, m) grid into per-collective CSR arrays, with an
//!   allocation-free two-binary-search lookup, the Open MPI dynamic-rules
//!   export (each block under the *collective's own* id) and the JSON
//!   layout the decision server journals;
//! * [`CollectiveDecisionService`] — thread-safe cached front end over
//!   compiled tables whose cache keys include the collective (keying by
//!   `(p, m)` alone would serve one collective's algorithm for another —
//!   the regression pinned in this module's tests).

use collsel_coll::{
    Alg, AllgatherAlg, AllreduceAlg, AlltoallAlg, BcastAlg, Collective, GatherAlg, ReduceAlg,
    ScatterAlg,
};
use collsel_model::{collectives, FitValidity, GammaTable, Hockney};
use collsel_mpi::SimError;
use collsel_support::rng::splitmix64;
use collsel_support::{FromJson, Json, JsonError, ToJson};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The outcome of a selection: an algorithm (tagged with its
/// collective) plus the segment size to run it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollSelection {
    /// The selected algorithm.
    pub alg: Alg,
    /// Pipeline segment size in bytes; `None` for unsegmented.
    pub seg_size: Option<usize>,
}

impl CollSelection {
    /// Creates a segmented selection.
    pub fn segmented(alg: Alg, seg_size: usize) -> Self {
        CollSelection {
            alg,
            seg_size: Some(seg_size),
        }
    }

    /// Creates an unsegmented selection.
    pub fn unsegmented(alg: Alg) -> Self {
        CollSelection {
            alg,
            seg_size: None,
        }
    }

    /// The segment size to actually run with for an `m`-byte payload
    /// (unsegmented ⇒ one segment spanning the payload).
    pub fn effective_seg_size(&self, m: usize) -> usize {
        self.seg_size.unwrap_or_else(|| m.max(1))
    }
}

collsel_support::json_struct!(CollSelection { alg, seg_size });

/// A runtime decision function covering every collective.
pub trait CollectiveSelector: fmt::Debug {
    /// Selects the algorithm for running `collective` on an `m`-byte
    /// payload among `p` processes (`m` follows
    /// [`run_collective`](collsel_coll::run_collective)'s convention).
    fn select_for(&self, collective: Collective, p: usize, m: usize) -> CollSelection;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// Per-collective fixed decision rules in the style of Open MPI 3.1's
/// `coll_tuned_decision_fixed.c`.
///
/// The broadcast arm is the faithful port of
/// `ompi_coll_tuned_bcast_intra_dec_fixed`, including its empirical
/// constants and per-choice segment sizes — the baseline whose
/// mis-selections reach 7297 % degradation in the paper. The other six
/// are simplified transcriptions of the corresponding `*_intra_dec_fixed`
/// routines, reduced to the algorithms we port: the small/large
/// crossover shape is kept, the vendor's exact empirical thresholds are
/// rounded to powers of two. They serve as the deterministic safety net
/// under graceful degradation, so shape (never panicking, always
/// returning an algorithm of the queried collective) matters more than
/// the exact crossover byte counts.
pub fn fixed_selection(collective: Collective, p: usize, m: usize) -> CollSelection {
    match collective {
        Collective::Bcast => {
            // Below this: the unsegmented binomial tree.
            const SMALL_MESSAGE_SIZE: usize = 2048;
            // Below this (and above small): split-binary, 1 KB segments.
            const INTERMEDIATE_MESSAGE_SIZE: usize = 370_728;
            const A_P16: f64 = 3.2118e-6;
            const B_P16: f64 = 8.7936;
            const A_P64: f64 = 2.3679e-6;
            const B_P64: f64 = 1.1787;
            const A_P128: f64 = 1.6134e-6;
            const B_P128: f64 = 2.1102;
            let (comm, msg) = (p as f64, m as f64);
            let bcast = |alg, seg_size| CollSelection::segmented(Alg::Bcast(alg), seg_size);
            if m < SMALL_MESSAGE_SIZE {
                CollSelection::unsegmented(Alg::Bcast(BcastAlg::Binomial))
            } else if m < INTERMEDIATE_MESSAGE_SIZE {
                bcast(BcastAlg::SplitBinary, 1024)
            } else if comm < A_P128 * msg + B_P128 {
                bcast(BcastAlg::Chain, 128 * 1024)
            } else if p < 13 {
                bcast(BcastAlg::SplitBinary, 64 * 1024)
            } else if comm < A_P64 * msg + B_P64 {
                bcast(BcastAlg::Chain, 64 * 1024)
            } else if comm < A_P16 * msg + B_P16 {
                bcast(BcastAlg::Chain, 16 * 1024)
            } else {
                bcast(BcastAlg::Chain, 8 * 1024)
            }
        }
        Collective::Reduce => {
            if m < 8 * 1024 {
                CollSelection::unsegmented(Alg::Reduce(ReduceAlg::Binomial))
            } else if m < 512 * 1024 {
                CollSelection::segmented(Alg::Reduce(ReduceAlg::Binomial), 32 * 1024)
            } else {
                // Large vectors pipeline (Open MPI picks pipeline or the
                // in-order binary tree here; in-order is only forced for
                // non-commutative operators, which we do not model).
                CollSelection::segmented(Alg::Reduce(ReduceAlg::Pipeline), 64 * 1024)
            }
        }
        Collective::Allreduce => {
            if m < 16 * 1024 {
                CollSelection::unsegmented(Alg::Allreduce(AllreduceAlg::RecursiveDoubling))
            } else {
                CollSelection::segmented(Alg::Allreduce(AllreduceAlg::ReduceBcast), 32 * 1024)
            }
        }
        Collective::Gather => {
            if p > 8 && m < 8 * 1024 {
                CollSelection::unsegmented(Alg::Gather(GatherAlg::Binomial))
            } else {
                CollSelection::unsegmented(Alg::Gather(GatherAlg::Linear))
            }
        }
        Collective::Scatter => {
            if p > 8 && m < 2 * 1024 {
                CollSelection::unsegmented(Alg::Scatter(ScatterAlg::Binomial))
            } else {
                CollSelection::unsegmented(Alg::Scatter(ScatterAlg::Linear))
            }
        }
        Collective::Allgather => {
            if p.is_power_of_two() && p * m < 64 * 1024 {
                CollSelection::unsegmented(Alg::Allgather(AllgatherAlg::RecursiveDoubling))
            } else {
                CollSelection::unsegmented(Alg::Allgather(AllgatherAlg::Ring))
            }
        }
        Collective::Alltoall => {
            if p <= 8 && m < 1024 {
                CollSelection::unsegmented(Alg::Alltoall(AlltoallAlg::Linear))
            } else {
                CollSelection::unsegmented(Alg::Alltoall(AlltoallAlg::Pairwise))
            }
        }
    }
}

/// [`fixed_selection`] as a [`CollectiveSelector`] (the baseline and
/// graceful fallback).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenMpiCollectiveSelector;

impl CollectiveSelector for OpenMpiCollectiveSelector {
    fn select_for(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        fixed_selection(collective, p, m)
    }

    fn name(&self) -> &str {
        "open-mpi-fixed-multi"
    }
}

/// Model-based runtime selection over any subset of collectives:
/// evaluates the implementation-derived model of every fitted algorithm
/// of the queried collective and returns the predicted-fastest.
///
/// A query never panics: an algorithm whose model evaluates to NaN/∞ is
/// skipped, and a collective with no usable (finite) fitted model falls
/// back to [`fixed_selection`], so partial tuning campaigns (e.g. only
/// reduce tuned so far) still serve every collective.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveModelSelector {
    gamma: GammaTable,
    params: BTreeMap<Alg, Hockney>,
    seg_size: usize,
    seg_overrides: BTreeMap<Collective, usize>,
}

impl CollectiveModelSelector {
    /// Builds the selector from per-algorithm fits (keys carry the
    /// collective, so one map covers all seven families).
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is zero (an *empty* params map is allowed —
    /// every query then falls back to the fixed rules).
    pub fn new(gamma: GammaTable, params: BTreeMap<Alg, Hockney>, seg_size: usize) -> Self {
        assert!(seg_size > 0, "segment size must be positive");
        CollectiveModelSelector {
            gamma,
            params,
            seg_size,
            seg_overrides: BTreeMap::new(),
        }
    }

    /// Overrides the segment size used to evaluate (and serve) one
    /// collective's models. Predictions are only meaningful at the
    /// segment size the collective's fits were estimated with: the
    /// broadcast fits are conditioned at the paper's 8 KB segment while
    /// the breadth campaigns estimate at a coarser one, so serving
    /// every collective at the broadcast segment — the implicit-bcast
    /// default this method exists to correct — mis-ranks the pipelined
    /// algorithms at large payloads.
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is zero.
    pub fn with_seg_size(mut self, collective: Collective, seg_size: usize) -> Self {
        assert!(seg_size > 0, "segment size must be positive");
        self.seg_overrides.insert(collective, seg_size);
        self
    }

    /// The γ table in use.
    pub fn gamma(&self) -> &GammaTable {
        &self.gamma
    }

    /// The per-algorithm Hockney parameters.
    pub fn params(&self) -> &BTreeMap<Alg, Hockney> {
        &self.params
    }

    /// The segment size used for `collective`'s predictions and served
    /// selections.
    pub fn seg_for(&self, collective: Collective) -> usize {
        self.seg_overrides
            .get(&collective)
            .copied()
            .unwrap_or(self.seg_size)
    }

    /// The fitted algorithms of one collective.
    fn family(&self, collective: Collective) -> impl Iterator<Item = (Alg, &Hockney)> {
        self.params
            .iter()
            .filter(move |(alg, _)| alg.collective() == collective)
            .map(|(&alg, h)| (alg, h))
    }

    /// Predicted times of the queried collective's fitted algorithms,
    /// ascending, **non-finite predictions last**: a poisoned fit sinks
    /// to the end of the ranking in a deterministic total order instead
    /// of panicking the sort.
    pub fn ranking(&self, collective: Collective, p: usize, m: usize) -> Vec<(Alg, f64)> {
        let seg = self.seg_for(collective);
        let mut v: Vec<(Alg, f64)> = self
            .family(collective)
            .map(|(alg, h)| (alg, collectives::predict(alg, p, m, seg, &self.gamma, h)))
            .collect();
        v.sort_by(|a, b| match (a.1.is_finite(), b.1.is_finite()) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            _ => a.1.total_cmp(&b.1),
        });
        v
    }

    /// The model-path argmin, if any fitted model of this collective
    /// yields a finite prediction.
    fn model_argmin(&self, collective: Collective, p: usize, m: usize) -> Option<(Alg, f64)> {
        let seg = self.seg_for(collective);
        let mut best: Option<(Alg, f64)> = None;
        for (alg, h) in self.family(collective) {
            let t = collectives::predict(alg, p, m, seg, &self.gamma, h);
            if t.is_finite() && best.is_none_or(|(_, bt)| t < bt) {
                best = Some((alg, t));
            }
        }
        best
    }

    /// Joint algorithm **and segment size** selection — the extension
    /// the paper marks out of scope ("Selection of optimal segment size
    /// is out of the scope of this paper"): since the derived models
    /// are parameterised on the segment size, minimising over a
    /// candidate segment grid comes for free.
    ///
    /// Returns the predicted-fastest `(algorithm, segment size)` pair of
    /// `collective` over `seg_candidates` (the collective's own segment
    /// is always included, so this never does worse than
    /// [`select_for`](CollectiveSelector::select_for) in model terms);
    /// with no finite prediction it falls back to [`fixed_selection`],
    /// as `select_for` does.
    ///
    /// # Panics
    ///
    /// Panics if any candidate is zero.
    pub fn select_with_segment_sweep(
        &self,
        collective: Collective,
        p: usize,
        m: usize,
        seg_candidates: &[usize],
    ) -> CollSelection {
        let own = self.seg_for(collective);
        let mut best: Option<(f64, CollSelection)> = None;
        for seg in seg_candidates.iter().copied().chain(std::iter::once(own)) {
            assert!(seg > 0, "segment size candidates must be positive");
            for (alg, h) in self.family(collective) {
                let t = collectives::predict(alg, p, m, seg, &self.gamma, h);
                if t.is_finite() && best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                    best = Some((t, CollSelection::segmented(alg, seg)));
                }
            }
        }
        best.map_or_else(|| fixed_selection(collective, p, m), |(_, s)| s)
    }
}

impl CollectiveSelector for CollectiveModelSelector {
    fn select_for(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        match self.model_argmin(collective, p, m) {
            Some((alg, _)) => CollSelection::segmented(alg, self.seg_for(collective)),
            None => fixed_selection(collective, p, m),
        }
    }

    fn name(&self) -> &str {
        "model-based-multi"
    }
}

/// Ablation selector: ranks broadcast algorithms with the
/// **traditional** (textbook) models and a single *network-level*
/// Hockney pair — the prior-work approach the paper improves on (both
/// innovations removed). Textbook models exist for broadcast only, so
/// every other collective is answered by [`fixed_selection`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraditionalModelSelector {
    hockney: Hockney,
    seg_size: usize,
}

impl TraditionalModelSelector {
    /// Builds the selector from a network-level Hockney pair.
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is zero.
    pub fn new(hockney: Hockney, seg_size: usize) -> Self {
        assert!(seg_size > 0, "segment size must be positive");
        TraditionalModelSelector { hockney, seg_size }
    }
}

impl CollectiveSelector for TraditionalModelSelector {
    fn select_for(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        if collective != Collective::Bcast {
            return fixed_selection(collective, p, m);
        }
        let mut best: Option<(BcastAlg, f64)> = None;
        for alg in BcastAlg::ALL {
            let t =
                collsel_model::traditional::predict_bcast(alg, p, m, self.seg_size, &self.hockney);
            if t.is_finite() && best.is_none_or(|(_, bt)| t < bt) {
                best = Some((alg, t));
            }
        }
        match best {
            Some((alg, _)) => CollSelection::segmented(Alg::Bcast(alg), self.seg_size),
            None => fixed_selection(collective, p, m),
        }
    }

    fn name(&self) -> &str {
        "traditional-models"
    }
}

/// Why the model path could not decide a query (or an algorithm was
/// excluded from the ranking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackReason {
    /// No algorithm has a usable model at all (and no recorded failure
    /// explains why).
    NoUsableModel,
    /// Every modelled prediction for this `(P, m)` was non-finite.
    NonFinitePredictions,
    /// Fits exist for the queried collective but every one failed
    /// validation ([`FitValidity`] other than `Valid`).
    InvalidFit,
    /// The fits are missing because their estimation runs exceeded the
    /// watchdog deadline ([`SimError::Timeout`]).
    EstimationTimeout,
    /// The fits are missing because their measurements never reached
    /// the target precision ([`SimError::PrecisionNotReached`]).
    PrecisionNotReached,
}

impl FallbackReason {
    /// Classifies a tuning-stage [`SimError`] into the fallback cause a
    /// decision for the affected algorithm(s) should carry.
    pub fn from_sim_error(e: &SimError) -> FallbackReason {
        match e {
            SimError::Timeout { .. } => FallbackReason::EstimationTimeout,
            SimError::PrecisionNotReached { .. } => FallbackReason::PrecisionNotReached,
            _ => FallbackReason::NoUsableModel,
        }
    }
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::NoUsableModel => write!(f, "no algorithm has a valid model fit"),
            FallbackReason::NonFinitePredictions => {
                write!(f, "every model prediction was non-finite")
            }
            FallbackReason::InvalidFit => {
                write!(f, "every fit for the collective failed validation")
            }
            FallbackReason::EstimationTimeout => {
                write!(f, "estimation timed out before fitting the collective")
            }
            FallbackReason::PrecisionNotReached => {
                write!(f, "estimation never reached the target precision")
            }
        }
    }
}

collsel_support::json_enum!(FallbackReason {
    NoUsableModel,
    NonFinitePredictions,
    InvalidFit,
    EstimationTimeout,
    PrecisionNotReached,
});

/// Which path produced a [`CollDecision`].
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionSource {
    /// The model-based ranking decided; carries the winning predicted
    /// time in seconds.
    Model {
        /// Predicted execution time of the winning algorithm.
        predicted: f64,
    },
    /// The fixed rules decided; carries why the model path was
    /// unavailable.
    Fallback {
        /// Why the model path could not decide.
        reason: FallbackReason,
    },
}

impl DecisionSource {
    /// Whether the model path decided.
    pub fn is_model(&self) -> bool {
        matches!(self, DecisionSource::Model { .. })
    }

    /// The fallback cause, when the rules path decided.
    pub fn fallback_reason(&self) -> Option<FallbackReason> {
        match self {
            DecisionSource::Model { .. } => None,
            DecisionSource::Fallback { reason } => Some(*reason),
        }
    }
}

impl collsel_support::ToJson for DecisionSource {
    fn to_json(&self) -> collsel_support::Json {
        use collsel_support::Json;
        match self {
            DecisionSource::Model { predicted } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("model".to_string())),
                ("predicted".to_string(), predicted.to_json()),
            ]),
            DecisionSource::Fallback { reason } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("fallback".to_string())),
                ("reason".to_string(), reason.to_json()),
            ]),
        }
    }
}

impl collsel_support::FromJson for DecisionSource {
    fn from_json(v: &collsel_support::Json) -> Result<Self, collsel_support::JsonError> {
        use collsel_support::JsonError;
        let kind = v
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| JsonError(format!("decision source needs a `kind`: {v}")))?;
        match kind {
            "model" => Ok(DecisionSource::Model {
                predicted: f64::from_json(
                    v.get("predicted")
                        .ok_or_else(|| JsonError("model source needs `predicted`".to_string()))?,
                )?,
            }),
            "fallback" => Ok(DecisionSource::Fallback {
                reason: FallbackReason::from_json(
                    v.get("reason")
                        .ok_or_else(|| JsonError("fallback source needs `reason`".to_string()))?,
                )?,
            }),
            other => Err(JsonError(format!("invalid decision source kind `{other}`"))),
        }
    }
}

/// A selection together with how it was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct CollDecision {
    /// The selected algorithm and segment size.
    pub selection: CollSelection,
    /// Which path decided, and why.
    pub source: DecisionSource,
}

impl fmt::Display for CollDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            DecisionSource::Model { predicted } => write!(
                f,
                "{} (model, predicted {:.3e} s)",
                self.selection.alg.qualified_name(),
                predicted
            ),
            DecisionSource::Fallback { reason } => write!(
                f,
                "{} (rules fallback: {})",
                self.selection.alg.qualified_name(),
                reason
            ),
        }
    }
}

collsel_support::json_struct!(CollDecision { selection, source });

/// Graceful degradation across collectives: model-based per query when
/// the queried collective has trusted fits, [`fixed_selection`]
/// otherwise — reporting which path decided through [`CollDecision`].
#[derive(Debug, Clone, PartialEq)]
pub struct GracefulCollectiveSelector {
    model: CollectiveModelSelector,
    validity: BTreeMap<Alg, FitValidity>,
    failures: BTreeMap<Alg, FallbackReason>,
}

impl GracefulCollectiveSelector {
    /// Builds the selector from judged fits; only
    /// [`FitValidity::Valid`] fits join the rankings.
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is zero.
    pub fn new(
        gamma: GammaTable,
        params: BTreeMap<Alg, Hockney>,
        validity: BTreeMap<Alg, FitValidity>,
        seg_size: usize,
    ) -> Self {
        let trusted: BTreeMap<Alg, Hockney> = params
            .into_iter()
            .filter(|(alg, _)| validity.get(alg).is_some_and(FitValidity::is_valid))
            .collect();
        GracefulCollectiveSelector {
            model: CollectiveModelSelector::new(gamma, trusted, seg_size),
            validity,
            failures: BTreeMap::new(),
        }
    }

    /// Records why algorithms are missing entirely (their estimation
    /// failed before producing a fit, e.g. with
    /// [`FallbackReason::EstimationTimeout`] or
    /// [`FallbackReason::PrecisionNotReached`]). Fallback decisions for
    /// a collective whose fits are all missing carry the recorded cause
    /// instead of the generic [`FallbackReason::NoUsableModel`].
    #[must_use]
    pub fn with_failures(mut self, failures: BTreeMap<Alg, FallbackReason>) -> Self {
        self.failures = failures;
        self
    }

    /// The recorded per-algorithm estimation failures.
    pub fn failures(&self) -> &BTreeMap<Alg, FallbackReason> {
        &self.failures
    }

    /// Predicted execution time of one specific algorithm at `(p, m)`
    /// under this selector's trusted fits, or `None` when the algorithm
    /// is not modelled (no fit, or its fit failed validation). Used by
    /// the decision server's health gate to shadow-score a candidate
    /// generation's picks with the live generation's models.
    pub fn predicted_time(&self, alg: Alg, p: usize, m: usize) -> Option<f64> {
        self.model
            .ranking(alg.collective(), p, m)
            .into_iter()
            .find(|&(a, _)| a == alg)
            .map(|(_, t)| t)
    }

    /// Overrides one collective's evaluation/serving segment size (see
    /// [`CollectiveModelSelector::with_seg_size`]).
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is zero.
    pub fn with_seg_size(mut self, collective: Collective, seg_size: usize) -> Self {
        self.model = self.model.with_seg_size(collective, seg_size);
        self
    }

    /// Per-algorithm validity verdicts this selector was built from.
    pub fn validity(&self) -> &BTreeMap<Alg, FitValidity> {
        &self.validity
    }

    /// The algorithms whose models participate in the rankings.
    pub fn modelled_algorithms(&self) -> Vec<Alg> {
        self.model.params().keys().copied().collect()
    }

    /// Decides a query, reporting which path decided. Never panics.
    ///
    /// A fallback decision carries the most specific cause available:
    /// trusted fits that all predicted non-finite times report
    /// [`FallbackReason::NonFinitePredictions`]; fits that exist but
    /// all failed validation report [`FallbackReason::InvalidFit`];
    /// collectives whose estimation failed outright report the cause
    /// recorded via [`with_failures`](Self::with_failures).
    pub fn decide_for(&self, collective: Collective, p: usize, m: usize) -> CollDecision {
        match self.model.model_argmin(collective, p, m) {
            Some((alg, predicted)) => CollDecision {
                selection: CollSelection::segmented(alg, self.model.seg_for(collective)),
                source: DecisionSource::Model { predicted },
            },
            None => CollDecision {
                selection: fixed_selection(collective, p, m),
                source: DecisionSource::Fallback {
                    reason: self.fallback_cause(collective),
                },
            },
        }
    }

    /// The cause a rules-path decision for `collective` should carry.
    fn fallback_cause(&self, collective: Collective) -> FallbackReason {
        if self.model.family(collective).next().is_some() {
            return FallbackReason::NonFinitePredictions;
        }
        let has_judged_fits = self
            .validity
            .keys()
            .any(|alg| alg.collective() == collective);
        if has_judged_fits {
            return FallbackReason::InvalidFit;
        }
        self.failures
            .iter()
            .find(|(alg, _)| alg.collective() == collective)
            .map(|(_, &reason)| reason)
            .unwrap_or(FallbackReason::NoUsableModel)
    }
}

impl CollectiveSelector for GracefulCollectiveSelector {
    fn select_for(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        self.decide_for(collective, p, m).selection
    }

    fn name(&self) -> &str {
        "graceful-multi"
    }
}

/// Open MPI's `COLL_TUNED` collective id (the alphabetical index of
/// `mca_coll_base_colltype_t` in `coll_base_functions.h`) for each
/// collective we tune. A rules file whose block names the wrong id is
/// silently ignored for the intended collective — the bug the test
/// `ompi_export_names_each_collectives_own_id` pins.
fn ompi_coll_id(collective: Collective) -> u32 {
    match collective {
        Collective::Allgather => 0,
        Collective::Allreduce => 2,
        Collective::Alltoall => 3,
        Collective::Bcast => 7,
        Collective::Gather => 9,
        Collective::Reduce => 11,
        Collective::Scatter => 14,
    }
}

/// Open MPI 3.1 `coll_tuned_<collective>_algorithm` number for any
/// collective algorithm (the per-collective MCA enumerations; for
/// broadcast our `k_chain` is Open MPI's fanout-4 "chain" and our
/// `chain` its "pipeline").
fn ompi_algorithm_id(alg: Alg) -> u32 {
    match alg {
        Alg::Bcast(b) => match b {
            BcastAlg::Linear => 1,
            BcastAlg::KChain => 2,
            BcastAlg::Chain => 3,
            BcastAlg::SplitBinary => 4,
            BcastAlg::Binary => 5,
            BcastAlg::Binomial => 6,
        },
        Alg::Reduce(r) => match r {
            ReduceAlg::Linear => 1,
            ReduceAlg::Chain => 2,
            ReduceAlg::Pipeline => 3,
            ReduceAlg::Binary => 4,
            ReduceAlg::Binomial => 5,
            ReduceAlg::InOrderBinary => 6,
        },
        Alg::Allreduce(a) => match a {
            AllreduceAlg::ReduceBcast => 1,
            AllreduceAlg::RecursiveDoubling => 3,
        },
        Alg::Gather(g) => match g {
            GatherAlg::Linear => 1,
            GatherAlg::Binomial => 2,
        },
        Alg::Scatter(s) => match s {
            ScatterAlg::Linear => 1,
            ScatterAlg::Binomial => 2,
        },
        Alg::Allgather(a) => match a {
            AllgatherAlg::GatherBcast => 1,
            AllgatherAlg::RecursiveDoubling => 3,
            AllgatherAlg::Ring => 4,
        },
        Alg::Alltoall(a) => match a {
            AlltoallAlg::Linear => 1,
            AlltoallAlg::Pairwise => 2,
        },
    }
}

/// The CSR arrays of one collective inside a
/// [`CompiledCollectiveSelector`]: `comm_sizes[b]` is block `b`'s
/// communicator size, its rules occupy
/// `thresholds[block_starts[b]..block_starts[b + 1]]` (payload-size
/// thresholds, strictly ascending) with the decided selection at the
/// same index of `selections`.
///
/// # Snapping semantics
///
/// * `p` below the smallest block → the smallest block (clamp);
///   otherwise the highest block not above `p` (floor).
/// * `m` below the block's first threshold → the first rule (clamp;
///   tabulated tables start every block at threshold 0, so this arm
///   only fires for decoded ones); otherwise the highest threshold not
///   above `m` (floor).
///
/// Both follow from `partition_point(x <= q)`: the partition index is
/// one past the floor entry, and `saturating_sub(1)` turns "no entry
/// below the query" into the clamp-to-first rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CollCsr {
    comm_sizes: Vec<usize>,
    block_starts: Vec<usize>,
    thresholds: Vec<usize>,
    selections: Vec<CollSelection>,
}

impl CollCsr {
    fn empty() -> Self {
        CollCsr {
            comm_sizes: Vec::new(),
            block_starts: vec![0],
            thresholds: Vec::new(),
            selections: Vec::new(),
        }
    }

    /// Each comm block as `(comm_size, thresholds, selections)`.
    fn blocks(&self) -> impl Iterator<Item = (usize, &[usize], &[CollSelection])> {
        self.comm_sizes
            .iter()
            .zip(self.block_starts.windows(2))
            .map(|(&p, w)| {
                (
                    p,
                    &self.thresholds[w[0]..w[1]],
                    &self.selections[w[0]..w[1]],
                )
            })
    }

    fn lookup(&self, p: usize, m: usize) -> CollSelection {
        let b = self
            .comm_sizes
            .partition_point(|&c| c <= p)
            .saturating_sub(1);
        let start = self.block_starts[b];
        let rules = &self.thresholds[start..self.block_starts[b + 1]];
        let r = rules.partition_point(|&t| t <= m).saturating_sub(1);
        self.selections[start + r]
    }
}

/// The decision table of a [`CollectiveSelector`]: per collective, one
/// rule block per communicator size of a (P, m) grid, flattened to CSR
/// arrays with allocation-free O(log n) lookup. Re-evaluating the
/// analytical models per call is the tuning-time shape of the problem,
/// two binary searches per query (no per-query `Vec` or sort) the
/// serving-time shape.
///
/// Open MPI's `tuned` collective component can load selection rules
/// from a file (`coll_tuned_dynamic_rules_filename`), overriding its
/// built-in fixed decision functions — the natural deployment path for
/// the paper's method on a real cluster: tune offline, emit a rules
/// file ([`to_ompi_rules`](Self::to_ompi_rules)), point Open MPI at it.
/// The JSON form ([`ToJson`]/[`FromJson`]) is a list of
/// `{collective, comms: [{comm_size, rules: [{min_msg_size,
/// selection}]}]}`, the decision server's journal payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCollectiveSelector {
    name: String,
    per: Vec<Option<CollCsr>>, // indexed by Collective::index()
}

impl CompiledCollectiveSelector {
    /// Tabulates `selector` over the grids for each listed collective.
    ///
    /// # Panics
    ///
    /// As [`from_grid`](Self::from_grid).
    pub fn compile(
        selector: &dyn CollectiveSelector,
        collectives: &[Collective],
        comm_sizes: &[usize],
        msg_sizes: &[usize],
    ) -> Self {
        Self::from_grid(
            &format!("compiled({})", selector.name()),
            collectives,
            comm_sizes,
            msg_sizes,
            |c, pi, mi| selector.select_for(c, comm_sizes[pi], msg_sizes[mi]),
        )
    }

    /// Tabulates `pick(collective, pi, mi)`, the selection at grid point
    /// `(comm_sizes[pi], msg_sizes[mi])`, for each listed collective.
    /// Consecutive message sizes that select identically merge into one
    /// rule, and every block's first threshold is 0 (Open MPI rule
    /// blocks conventionally start at size 0).
    ///
    /// # Panics
    ///
    /// Panics if `collectives` is empty or names a collective twice, or
    /// either grid is empty or not strictly ascending.
    pub fn from_grid(
        name: &str,
        collectives: &[Collective],
        comm_sizes: &[usize],
        msg_sizes: &[usize],
        mut pick: impl FnMut(Collective, usize, usize) -> CollSelection,
    ) -> Self {
        let ascending = |g: &[usize]| !g.is_empty() && g.windows(2).all(|w| w[0] < w[1]);
        assert!(!collectives.is_empty(), "need at least one collective");
        assert!(
            ascending(comm_sizes),
            "communicator sizes must be non-empty ascending"
        );
        assert!(
            ascending(msg_sizes),
            "message sizes must be non-empty ascending"
        );
        let mut per = vec![None; Collective::ALL.len()];
        for &c in collectives {
            let mut csr = CollCsr::empty();
            for (pi, &p) in comm_sizes.iter().enumerate() {
                let start = csr.thresholds.len();
                for (mi, &m) in msg_sizes.iter().enumerate() {
                    let selection = pick(c, pi, mi);
                    debug_assert_eq!(selection.alg.collective(), c);
                    if csr.selections.len() > start && csr.selections.last() == Some(&selection) {
                        continue;
                    }
                    let threshold = if csr.thresholds.len() == start { 0 } else { m };
                    csr.thresholds.push(threshold);
                    csr.selections.push(selection);
                }
                csr.comm_sizes.push(p);
                csr.block_starts.push(csr.thresholds.len());
            }
            let slot = &mut per[c.index()];
            assert!(slot.is_none(), "collective {c} listed twice");
            *slot = Some(csr);
        }
        CompiledCollectiveSelector {
            name: name.to_owned(),
            per,
        }
    }

    /// Whether `collective` was compiled into this selector.
    pub fn covers(&self, collective: Collective) -> bool {
        self.per[collective.index()].is_some()
    }

    /// The compiled collectives, in [`Collective::ALL`] order.
    pub fn collectives(&self) -> Vec<Collective> {
        Collective::ALL
            .into_iter()
            .filter(|&c| self.covers(c))
            .collect()
    }

    /// Answers a query with two binary searches; no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `collective` was not compiled (check
    /// [`covers`](Self::covers) or compile every collective you serve).
    pub fn lookup(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        self.per[collective.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("collective {collective} was not compiled"))
            .lookup(p, m)
    }

    /// Total number of compiled rules across all collectives.
    pub fn rule_count(&self) -> usize {
        self.per
            .iter()
            .flatten()
            .map(|csr| csr.selections.len())
            .sum()
    }

    /// The compiled collectives with their CSR arrays, in
    /// [`Collective::ALL`] order.
    fn tables(&self) -> impl Iterator<Item = (Collective, &CollCsr)> {
        Collective::ALL
            .into_iter()
            .filter_map(|c| Some((c, self.per[c.index()].as_ref()?)))
    }

    /// Renders the table as one Open MPI dynamic-rules file, usable with
    /// a real Open MPI via `--mca coll_tuned_use_dynamic_rules 1 --mca
    /// coll_tuned_dynamic_rules_filename <file>`: one block per compiled
    /// collective under the collective's own id (a reduce block emits id
    /// 11, never broadcast's 7). Each rule line is `message_size
    /// algorithm_id topo_faninout segsize`.
    pub fn to_ompi_rules(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} # num of collectives", self.tables().count());
        for (c, csr) in self.tables() {
            let _ = writeln!(out, "{} # collective id ({c})", ompi_coll_id(c));
            let _ = writeln!(out, "{} # number of com sizes", csr.comm_sizes.len());
            for (p, thresholds, selections) in csr.blocks() {
                let _ = writeln!(out, "{p} # comm size");
                let _ = writeln!(out, "{} # number of msg sizes", thresholds.len());
                for (&t, s) in thresholds.iter().zip(selections) {
                    let alg = ompi_algorithm_id(s.alg);
                    let _ = writeln!(out, "{t} {alg} 0 {}", s.seg_size.unwrap_or(0));
                }
            }
        }
        out
    }
}

impl ToJson for CompiledCollectiveSelector {
    fn to_json(&self) -> Json {
        let rule = |(t, s): (&usize, &CollSelection)| {
            Json::obj(vec![
                ("min_msg_size", t.to_json()),
                ("selection", s.to_json()),
            ])
        };
        let block = |(p, thresholds, selections): (usize, &[usize], &[CollSelection])| {
            let rules = thresholds.iter().zip(selections).map(rule).collect();
            Json::obj(vec![
                ("comm_size", p.to_json()),
                ("rules", Json::Arr(rules)),
            ])
        };
        Json::Arr(
            self.tables()
                .map(|(c, csr)| {
                    let comms = csr.blocks().map(block).collect();
                    Json::obj(vec![
                        ("collective", c.to_json()),
                        ("comms", Json::Arr(comms)),
                    ])
                })
                .collect(),
        )
    }
}

/// Decodes and validates a table: at least one collective, none twice;
/// per collective at least one comm block, strictly ascending, each
/// with at least one rule and strictly ascending thresholds; every
/// selection an algorithm of its own collective with a non-zero segment.
impl FromJson for CompiledCollectiveSelector {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        macro_rules! ensure {
            ($ok:expr, $($msg:tt)+) => {
                if !$ok {
                    return Err(JsonError(format!($($msg)+)));
                }
            };
        }
        fn arr(v: &Json) -> Result<&[Json], JsonError> {
            v.as_arr()
                .ok_or_else(|| JsonError(format!("expected array, found {v}")))
        }
        let tables = arr(v)?;
        ensure!(!tables.is_empty(), "need at least one decision table");
        let mut per = vec![None; Collective::ALL.len()];
        for table in tables {
            let c = Collective::from_json(table.field("collective")?)?;
            ensure!(per[c.index()].is_none(), "duplicate decision table for {c}");
            let comms = arr(table.field("comms")?)?;
            ensure!(!comms.is_empty(), "empty decision table for {c}");
            let mut csr = CollCsr::empty();
            for block in comms {
                let p = usize::from_json(block.field("comm_size")?)?;
                let ascending = csr.comm_sizes.last().is_none_or(|&prev| prev < p);
                ensure!(ascending, "{c} comm blocks must be strictly ascending");
                let rules = arr(block.field("rules")?)?;
                ensure!(!rules.is_empty(), "{c} comm block {p} has no rules");
                let start = csr.thresholds.len();
                for rule in rules {
                    let t = usize::from_json(rule.field("min_msg_size")?)?;
                    let s = CollSelection::from_json(rule.field("selection")?)?;
                    let ascending =
                        csr.thresholds.len() == start || csr.thresholds.last() < Some(&t);
                    ensure!(ascending, "{c} rule thresholds must be strictly ascending");
                    let alg = s.alg.qualified_name();
                    ensure!(s.alg.collective() == c, "{c} comm block {p} selects {alg}");
                    ensure!(
                        s.seg_size != Some(0),
                        "{c} comm block {p} has a zero segment size"
                    );
                    csr.thresholds.push(t);
                    csr.selections.push(s);
                }
                csr.comm_sizes.push(p);
                csr.block_starts.push(csr.thresholds.len());
            }
            per[c.index()] = Some(csr);
        }
        Ok(CompiledCollectiveSelector {
            name: "decoded".to_string(),
            per,
        })
    }
}

impl CollectiveSelector for CompiledCollectiveSelector {
    fn select_for(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        self.lookup(collective, p, m)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Fixed-capacity exact-query cache with **seeded random eviction**.
///
/// Random replacement needs no per-hit bookkeeping (an LRU would
/// serialise every *read* through list surgery under the lock), has no
/// pathological scan pattern, and — seeded through [`splitmix64`] — its
/// eviction sequence is reproducible for a given seed and insertion
/// order. The key is the whole query identity `(collective, p, m)`: two
/// collectives share every `(p, m)` point, so a key that omitted the
/// collective would silently serve one collective's algorithm for
/// another.
#[derive(Debug)]
struct QueryCache {
    capacity: usize,
    map: HashMap<(Collective, usize, usize), CollSelection>,
    keys: Vec<(Collective, usize, usize)>,
    rng_state: u64,
}

impl QueryCache {
    fn new(capacity: usize, seed: u64) -> Self {
        QueryCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            rng_state: seed,
        }
    }

    fn get(&self, key: (Collective, usize, usize)) -> Option<CollSelection> {
        self.map.get(&key).copied()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn insert(&mut self, key: (Collective, usize, usize), val: CollSelection) {
        // Two workers can race the same missed key; the second insert
        // must not duplicate it in the eviction pool.
        if self.map.contains_key(&key) {
            return;
        }
        if self.keys.len() >= self.capacity {
            let victim_ix = (splitmix64(&mut self.rng_state) as usize) % self.keys.len();
            let victim = self.keys.swap_remove(victim_ix);
            self.map.remove(&victim);
        }
        self.map.insert(key, val);
        self.keys.push(key);
    }
}

/// Snapshot of a [`CollectiveDecisionService`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries answered from the exact-query cache.
    pub hits: u64,
    /// Queries answered by the compiled tables.
    pub misses: u64,
}

impl ServiceStats {
    /// Total queries served.
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of queries served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let q = self.queries();
        if q == 0 {
            0.0
        } else {
            self.hits as f64 / q as f64
        }
    }
}

/// Thread-safe cached front end over compiled per-collective tables.
///
/// All queries take `&self`, so one service can be shared by reference
/// across threads. The optional exact-query cache sits in front of the
/// tables; because lookup is pure, a cached answer is always identical
/// to a recomputed one (**cache transparency**, enforced by the
/// differential suite), so caching changes throughput and counters but
/// never results. Counters are relaxed atomics: exact in total under
/// any interleaving, though the hit/miss *split* of concurrent queries
/// depends on thread timing — results never do.
///
/// The tables are fixed for the service's lifetime; the hot-swap front
/// end is [`DecisionServer`](crate::DecisionServer).
#[derive(Debug)]
pub struct CollectiveDecisionService {
    tables: CompiledCollectiveSelector,
    cache: Option<Mutex<QueryCache>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CollectiveDecisionService {
    /// Serves from compiled per-collective tables.
    pub fn compiled(tables: CompiledCollectiveSelector) -> Self {
        CollectiveDecisionService {
            tables,
            cache: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Adds an exact-query cache of `capacity` entries with
    /// seeded-random eviction.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (omit the cache instead).
    pub fn with_cache(mut self, capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        self.cache = Some(Mutex::new(QueryCache::new(capacity, seed)));
        self
    }

    /// Decides one query, consulting the cache first.
    ///
    /// # Panics
    ///
    /// Panics if `collective` was not compiled into the tables.
    pub fn decide(&self, collective: Collective, p: usize, m: usize) -> CollSelection {
        let key = (collective, p, m);
        if let Some(cache) = &self.cache {
            if let Some(sel) = cache.lock().expect("cache lock").get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return sel;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sel = self.tables.lookup(collective, p, m);
        if let Some(cache) = &self.cache {
            cache.lock().expect("cache lock").insert(key, sel);
        }
        sel
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Entries currently resident in the cache (0 without one).
    pub fn cached_entries(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.lock().expect("cache lock").len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.11), (4, 1.22), (5, 1.28), (6, 1.45), (7, 1.54)])
    }

    fn all_params(alpha: f64, beta: f64) -> BTreeMap<Alg, Hockney> {
        Collective::ALL
            .iter()
            .flat_map(|c| c.algorithms())
            .enumerate()
            .map(|(i, &alg)| (alg, Hockney::new(alpha * (1.0 + i as f64 * 0.1), beta)))
            .collect()
    }

    /// One shared `(α, β)` for every broadcast algorithm.
    fn bcast_params(alpha: f64, beta: f64) -> BTreeMap<Alg, Hockney> {
        Collective::Bcast
            .algorithms()
            .iter()
            .map(|&a| (a, Hockney::new(alpha, beta)))
            .collect()
    }

    fn all_valid(params: &BTreeMap<Alg, Hockney>) -> BTreeMap<Alg, FitValidity> {
        params.keys().map(|&a| (a, FitValidity::Valid)).collect()
    }

    #[test]
    fn fixed_rules_always_return_the_queried_collective() {
        for c in Collective::ALL {
            for p in [1usize, 2, 5, 16, 90, 200] {
                for m in [0usize, 100, 8192, 1 << 20, 8 << 20] {
                    let s = fixed_selection(c, p, m);
                    assert_eq!(s.alg.collective(), c, "p={p} m={m}");
                }
            }
        }
    }

    #[test]
    fn open_mpi_bcast_matches_published_thresholds() {
        let bcast = |p, m| fixed_selection(Collective::Bcast, p, m);
        let seg = |alg, seg_size| CollSelection::segmented(Alg::Bcast(alg), seg_size);
        // < 2 KB: unsegmented binomial.
        assert_eq!(
            bcast(90, 1024),
            CollSelection::unsegmented(Alg::Bcast(BcastAlg::Binomial))
        );
        // 8 KB..256 KB: split-binary with 1 KB segments.
        for m in [8 * 1024, 64 * 1024, 256 * 1024] {
            assert_eq!(bcast(90, m), seg(BcastAlg::SplitBinary, 1024), "m = {m}");
        }
        // >= 512 KB at 90 or 100 ranks: chain (pipeline), 8 KB segments.
        for (p, m) in [(90usize, 512 * 1024usize), (100, 4 << 20), (90, 1 << 20)] {
            assert_eq!(bcast(p, m), seg(BcastAlg::Chain, 8 * 1024), "p={p} m={m}");
        }
        // Few processes, huge message: the P-vs-size laws pick larger
        // segment pipelines or split-binary.
        assert_eq!(bcast(4, 4 << 20), seg(BcastAlg::Chain, 128 * 1024));
        assert_eq!(bcast(12, 1 << 20), seg(BcastAlg::SplitBinary, 64 * 1024));
    }

    #[test]
    fn selection_effective_seg_size() {
        let binomial = Alg::Bcast(BcastAlg::Binomial);
        assert_eq!(
            CollSelection::unsegmented(binomial).effective_seg_size(500),
            500
        );
        assert_eq!(
            CollSelection::segmented(binomial, 8192).effective_seg_size(500),
            8192
        );
        assert_eq!(
            CollSelection::unsegmented(binomial).effective_seg_size(0),
            1
        );
    }

    #[test]
    fn model_selector_picks_argmin_of_ranking() {
        let sel = CollectiveModelSelector::new(gamma(), all_params(1e-6, 1e-9), 8192);
        for c in Collective::ALL {
            let ranking = sel.ranking(c, 24, 1 << 20);
            assert_eq!(ranking.len(), c.algorithms().len());
            assert_eq!(sel.select_for(c, 24, 1 << 20).alg, ranking[0].0);
            for w in ranking.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn bcast_model_prefers_shallow_trees_small_and_avoids_linear_large() {
        let sel = CollectiveModelSelector::new(gamma(), bcast_params(1e-5, 1e-9), 8192);
        let pick = sel.select_for(Collective::Bcast, 90, 256).alg;
        assert!(
            matches!(
                pick,
                Alg::Bcast(BcastAlg::Binomial | BcastAlg::Binary | BcastAlg::SplitBinary)
            ),
            "small messages should avoid deep chains, got {pick}"
        );
        let sel = CollectiveModelSelector::new(gamma(), bcast_params(1e-6, 1e-9), 8192);
        let pick = sel.select_for(Collective::Bcast, 90, 4 << 20).alg;
        assert_ne!(pick, Alg::Bcast(BcastAlg::Linear));
    }

    #[test]
    fn nan_prediction_excludes_algorithm_and_ranks_last() {
        // A poisoned Hockney fit (NaN alpha) makes one algorithm's
        // prediction NaN — the exact situation graceful degradation
        // exists to survive. select_for must skip it, ranking must sort
        // it last.
        let poisoned = Alg::Bcast(BcastAlg::Binomial);
        let mut params = bcast_params(1e-6, 1e-9);
        params.insert(
            poisoned,
            Hockney {
                alpha: f64::NAN,
                beta: 1e-9,
            },
        );
        let sel = CollectiveModelSelector::new(gamma(), params, 8192);
        for &(p, m) in &[(16usize, 1024usize), (90, 1 << 20), (124, 8192)] {
            let pick = sel.select_for(Collective::Bcast, p, m);
            assert_ne!(pick.alg, poisoned, "p={p} m={m}");
            let ranking = sel.ranking(Collective::Bcast, p, m);
            assert_eq!(ranking.len(), BcastAlg::ALL.len());
            let (last_alg, last_t) = ranking[ranking.len() - 1];
            assert_eq!(last_alg, poisoned, "poisoned fit sorts last");
            assert!(last_t.is_nan());
            for w in ranking[..ranking.len() - 1].windows(2) {
                assert!(w[0].1 <= w[1].1, "finite prefix stays sorted");
            }
            assert_eq!(pick.alg, ranking[0].0, "select still agrees with ranking");
        }
    }

    #[test]
    fn empty_params_fall_back_to_fixed_rules() {
        let sel = CollectiveModelSelector::new(gamma(), BTreeMap::new(), 8192);
        for c in Collective::ALL {
            assert_eq!(sel.select_for(c, 16, 8192), fixed_selection(c, 16, 8192));
            assert_eq!(
                sel.select_with_segment_sweep(c, 16, 8192, &[1024]),
                fixed_selection(c, 16, 8192)
            );
        }
    }

    #[test]
    fn segment_sweep_never_worse_than_fixed_in_model_terms() {
        let sel = CollectiveModelSelector::new(gamma(), all_params(1e-5, 1e-9), 8192);
        let candidates = [1024, 4096, 8192, 16 * 1024, 64 * 1024];
        for c in Collective::ALL {
            for &(p, m) in &[(24usize, 8192usize), (90, 1 << 20), (124, 4 << 20)] {
                let fixed = sel.ranking(c, p, m)[0].1;
                let swept = sel.select_with_segment_sweep(c, p, m, &candidates);
                assert_eq!(swept.alg.collective(), c);
                let seg = swept.seg_size.expect("sweep always segments");
                let swept_t = collectives::predict(
                    swept.alg,
                    p,
                    m,
                    seg,
                    sel.gamma(),
                    &sel.params()[&swept.alg],
                );
                assert!(swept_t <= fixed + 1e-15, "{c} p={p} m={m}");
            }
        }
    }

    #[test]
    fn segment_sweep_avoids_extremes_for_large_messages() {
        // With a startup cost per segment, tiny segments lose; with no
        // pipelining, huge segments lose. The optimum is interior.
        let sel = CollectiveModelSelector::new(gamma(), bcast_params(2e-5, 1e-9), 8192);
        let candidates: Vec<usize> = (0..12).map(|i| 256 << i).collect(); // 256 B .. 512 KB
        let pick = sel.select_with_segment_sweep(Collective::Bcast, 64, 4 << 20, &candidates);
        let seg = pick.seg_size.unwrap();
        assert!(seg > 256, "tiny segments pay too many startups: {seg}");
        assert!(seg < 4 << 20, "one giant segment kills pipelining: {seg}");
    }

    #[test]
    fn traditional_selector_answers_bcast_and_defers_the_rest() {
        let sel = TraditionalModelSelector::new(Hockney::new(1e-5, 1e-9), 8192);
        assert_eq!(sel.name(), "traditional-models");
        for &(p, m) in &[(16usize, 1024usize), (90, 1 << 20)] {
            let pick = sel.select_for(Collective::Bcast, p, m);
            assert_eq!(pick.seg_size, Some(8192));
            let best = BcastAlg::ALL
                .iter()
                .map(|&a| {
                    let t = collsel_model::traditional::predict_bcast(
                        a,
                        p,
                        m,
                        8192,
                        &Hockney::new(1e-5, 1e-9),
                    );
                    (a, t)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(a, _)| Alg::Bcast(a));
            assert_eq!(Some(pick.alg), best, "p={p} m={m}");
            for c in Collective::ALL.into_iter().skip(1) {
                assert_eq!(sel.select_for(c, p, m), fixed_selection(c, p, m), "{c}");
            }
        }
    }

    #[test]
    fn graceful_with_all_valid_fits_matches_the_model_selector() {
        let params = all_params(1e-6, 1e-9);
        let sel =
            GracefulCollectiveSelector::new(gamma(), params.clone(), all_valid(&params), 8192);
        let plain = CollectiveModelSelector::new(gamma(), params, 8192);
        assert_eq!(sel.name(), "graceful-multi");
        for c in Collective::ALL {
            let d = sel.decide_for(c, 90, 1 << 20);
            assert!(d.source.is_model(), "{d:?}");
            assert_eq!(d.selection, plain.select_for(c, 90, 1 << 20));
            assert_eq!(sel.select_for(c, 90, 1 << 20), d.selection);
        }
        assert_eq!(sel.modelled_algorithms().len(), plain.params().len());
    }

    #[test]
    fn graceful_excludes_invalid_and_missing_fits() {
        let mut params = bcast_params(1e-6, 1e-9);
        let mut validity = all_valid(&params);
        // Chain stays valid, Linear is missing entirely, everything
        // else failed validation.
        params.remove(&Alg::Bcast(BcastAlg::Linear));
        validity.remove(&Alg::Bcast(BcastAlg::Linear));
        for (&alg, v) in validity.iter_mut() {
            if alg != Alg::Bcast(BcastAlg::Chain) {
                *v = FitValidity::Unconverged { achieved: 0.3 };
            }
        }
        let sel = GracefulCollectiveSelector::new(gamma(), params, validity, 8192);
        assert_eq!(sel.modelled_algorithms(), vec![Alg::Bcast(BcastAlg::Chain)]);
        let d = sel.decide_for(Collective::Bcast, 90, 1 << 20);
        assert!(d.source.is_model());
        assert_eq!(d.selection.alg, Alg::Bcast(BcastAlg::Chain));
    }

    #[test]
    fn graceful_reports_fallback_reason_per_collective() {
        // Only reduce has (valid) fits: reduce queries take the model
        // path, everything else falls back with NoUsableModel.
        let params: BTreeMap<Alg, Hockney> = Collective::Reduce
            .algorithms()
            .iter()
            .map(|&a| (a, Hockney::new(1e-6, 1e-9)))
            .collect();
        let validity = all_valid(&params);
        let sel = GracefulCollectiveSelector::new(gamma(), params, validity, 8192);
        let d = sel.decide_for(Collective::Reduce, 24, 1 << 20);
        assert!(d.source.is_model(), "{d}");
        for c in [Collective::Bcast, Collective::Gather, Collective::Alltoall] {
            let d = sel.decide_for(c, 24, 1 << 20);
            assert!(!d.source.is_model(), "{c}: {d}");
            assert_eq!(d.selection, fixed_selection(c, 24, 1 << 20));
        }
    }

    #[test]
    fn graceful_carries_specific_fallback_causes() {
        // Three collectives in three failure shapes: reduce has valid
        // fits (model path); gather's fits all failed validation
        // (InvalidFit); scatter never produced fits because estimation
        // timed out (recorded failure → EstimationTimeout); alltoall's
        // estimation never converged (PrecisionNotReached); bcast's
        // trusted fits all predict NaN (NonFinitePredictions).
        let mut params: BTreeMap<Alg, Hockney> = BTreeMap::new();
        let mut validity: BTreeMap<Alg, FitValidity> = BTreeMap::new();
        for &a in Collective::Reduce.algorithms() {
            params.insert(a, Hockney::new(1e-6, 1e-9));
            validity.insert(a, FitValidity::Valid);
        }
        for &a in Collective::Gather.algorithms() {
            params.insert(a, Hockney::new(1e-6, 1e-9));
            validity.insert(a, FitValidity::Degenerate);
        }
        for &a in Collective::Bcast.algorithms() {
            params.insert(
                a,
                Hockney {
                    alpha: f64::NAN,
                    beta: 1e-9,
                },
            );
            validity.insert(a, FitValidity::Valid);
        }
        let mut failures: BTreeMap<Alg, FallbackReason> = BTreeMap::new();
        for &a in Collective::Scatter.algorithms() {
            failures.insert(a, FallbackReason::EstimationTimeout);
        }
        for &a in Collective::Alltoall.algorithms() {
            failures.insert(a, FallbackReason::PrecisionNotReached);
        }
        let sel = GracefulCollectiveSelector::new(gamma(), params, validity, 8192)
            .with_failures(failures);
        assert!(sel
            .decide_for(Collective::Reduce, 24, 1 << 20)
            .source
            .is_model());
        let cases = [
            (Collective::Bcast, FallbackReason::NonFinitePredictions),
            (Collective::Gather, FallbackReason::InvalidFit),
            (Collective::Scatter, FallbackReason::EstimationTimeout),
            (Collective::Alltoall, FallbackReason::PrecisionNotReached),
            (Collective::Allgather, FallbackReason::NoUsableModel),
        ];
        for (c, want) in cases {
            for &(p, m) in &[(4usize, 100usize), (24, 1 << 20), (124, 4 << 20)] {
                let d = sel.decide_for(c, p, m);
                assert_eq!(
                    d.source.fallback_reason(),
                    Some(want),
                    "{c}: expected {want:?}, got {:?}",
                    d.source
                );
                assert_eq!(d.selection, fixed_selection(c, p, m));
            }
        }
    }

    #[test]
    fn decision_display_names_the_path() {
        let params = bcast_params(1e-6, 1e-9);
        let sel =
            GracefulCollectiveSelector::new(gamma(), params.clone(), all_valid(&params), 8192);
        let d = sel.decide_for(Collective::Bcast, 90, 1 << 20);
        assert!(d.to_string().contains("model"), "{d}");
        let empty =
            GracefulCollectiveSelector::new(gamma(), BTreeMap::new(), BTreeMap::new(), 8192);
        let d = empty.decide_for(Collective::Bcast, 90, 1 << 20);
        assert!(d.to_string().contains("fallback"), "{d}");
    }

    #[test]
    fn decisions_and_causes_round_trip_through_json() {
        use collsel_support::{FromJson, ToJson};
        let mut params: BTreeMap<Alg, Hockney> = BTreeMap::new();
        let mut validity: BTreeMap<Alg, FitValidity> = BTreeMap::new();
        for &a in Collective::Reduce.algorithms() {
            params.insert(a, Hockney::new(1e-6, 1e-9));
            validity.insert(a, FitValidity::Valid);
        }
        let failures: BTreeMap<Alg, FallbackReason> = Collective::Scatter
            .algorithms()
            .iter()
            .map(|&a| (a, FallbackReason::EstimationTimeout))
            .collect();
        let sel = GracefulCollectiveSelector::new(gamma(), params, validity, 8192)
            .with_failures(failures);
        // One model decision and one attributed fallback per shape.
        for (c, p, m) in [
            (Collective::Reduce, 24usize, 1usize << 20),
            (Collective::Scatter, 24, 1 << 20),
            (Collective::Bcast, 16, 8192),
        ] {
            let d = sel.decide_for(c, p, m);
            let json = d.to_json();
            let text = json.to_string_pretty();
            let parsed = collsel_support::Json::parse(&text).expect("round-trip parse");
            let back = CollDecision::from_json(&parsed).expect("round-trip decode");
            assert_eq!(back, d, "{c}: JSON round-trip must preserve the decision");
            if let Some(reason) = d.source.fallback_reason() {
                assert_eq!(back.source.fallback_reason(), Some(reason));
            }
        }
    }

    #[test]
    fn algorithm_and_collective_ids_match_open_mpi_numbering() {
        let bcast: Vec<u32> = [
            BcastAlg::Linear,
            BcastAlg::KChain,
            BcastAlg::Chain,
            BcastAlg::SplitBinary,
            BcastAlg::Binary,
            BcastAlg::Binomial,
        ]
        .into_iter()
        .map(|b| ompi_algorithm_id(Alg::Bcast(b)))
        .collect();
        assert_eq!(bcast, [1, 2, 3, 4, 5, 6]);
        assert_eq!(ompi_coll_id(Collective::Allgather), 0);
        assert_eq!(ompi_coll_id(Collective::Allreduce), 2);
        assert_eq!(ompi_coll_id(Collective::Alltoall), 3);
        assert_eq!(ompi_coll_id(Collective::Bcast), 7);
        assert_eq!(ompi_coll_id(Collective::Gather), 9);
        assert_eq!(ompi_coll_id(Collective::Reduce), 11);
        assert_eq!(ompi_coll_id(Collective::Scatter), 14);
        // Reduce: Open MPI's coll_tuned_reduce enumeration.
        assert_eq!(ompi_algorithm_id(Alg::Reduce(ReduceAlg::Pipeline)), 3);
        assert_eq!(ompi_algorithm_id(Alg::Reduce(ReduceAlg::InOrderBinary)), 6);
    }

    fn fixed_compiled_on(collectives: &[Collective]) -> CompiledCollectiveSelector {
        CompiledCollectiveSelector::compile(
            &OpenMpiCollectiveSelector,
            collectives,
            &[16, 64, 128],
            &[1024, 8 * 1024, 64 * 1024, 512 * 1024, 4 << 20],
        )
    }

    #[test]
    fn compile_merges_identical_consecutive_rules() {
        let table = fixed_compiled_on(&Collective::ALL);
        for (c, csr) in table.tables() {
            assert_eq!(csr.comm_sizes, [16, 64, 128], "{c}");
            for (_, thresholds, selections) in csr.blocks() {
                for w in selections.windows(2) {
                    assert_ne!(w[0], w[1], "{c}: unmerged duplicate");
                }
                assert!(thresholds.windows(2).all(|w| w[0] < w[1]), "{c}");
                assert_eq!(thresholds[0], 0);
            }
        }
    }

    #[test]
    fn lookup_between_grid_points_uses_floor() {
        let t = fixed_compiled_on(&[Collective::Bcast]);
        let bcast = |p, m| t.lookup(Collective::Bcast, p, m);
        // p = 100 falls back to the 64-block; m = 9000 to the rule
        // starting at or below 9000.
        assert_eq!(bcast(100, 9000), bcast(64, 8 * 1024));
        // Below the smallest block, clamp to the first.
        assert_eq!(bcast(2, 1024), bcast(16, 1024));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn compile_rejects_unsorted_grid() {
        let _ = CompiledCollectiveSelector::compile(
            &OpenMpiCollectiveSelector,
            &[Collective::Bcast],
            &[64, 16],
            &[1024],
        );
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn compile_rejects_a_collective_listed_twice() {
        let _ = fixed_compiled_on(&[Collective::Bcast, Collective::Bcast]);
    }

    #[test]
    fn ompi_rules_format_shape() {
        let s = fixed_compiled_on(&Collective::ALL).to_ompi_rules();
        let mut lines = s.lines();
        assert_eq!(lines.next().unwrap(), "7 # num of collectives");
        assert_eq!(lines.next().unwrap(), "7 # collective id (bcast)");
        assert_eq!(lines.next().unwrap(), "3 # number of com sizes");
        assert_eq!(s.matches("# comm size").count(), 7 * 3);
        // Every other line holds 1 or 4 numeric fields.
        for line in s.lines() {
            let data = line.split('#').next().unwrap().trim();
            let fields: Vec<&str> = data.split_whitespace().collect();
            assert!(
                fields.len() == 1 || fields.len() == 4,
                "unexpected line: {line}"
            );
            for f in fields {
                f.parse::<u64>().expect("numeric field");
            }
        }
    }

    #[test]
    fn ompi_export_names_each_collectives_own_id() {
        let s = CompiledCollectiveSelector::compile(
            &OpenMpiCollectiveSelector,
            &[Collective::Reduce, Collective::Bcast],
            &[16, 64],
            &[1024, 1 << 20],
        )
        .to_ompi_rules();
        assert!(s.starts_with("2 # num of collectives\n"), "{s}");
        assert!(s.contains("7 # collective id (bcast)"), "{s}");
        assert!(
            s.contains("11 # collective id (reduce)"),
            "a reduce table must emit Open MPI's reduce id, not broadcast's: {s}"
        );
    }

    /// The highest grid value not above `x`, else the smallest.
    fn snap(grid: &[usize], x: usize) -> usize {
        *grid.iter().rfind(|&&g| g <= x).unwrap_or(&grid[0])
    }

    #[test]
    fn compiled_matches_live_on_and_off_grid() {
        let sel = CollectiveModelSelector::new(gamma(), all_params(1e-6, 1e-9), 8192);
        let comms = [4usize, 16, 64, 128];
        let msgs = [1024usize, 64 * 1024, 1 << 20];
        let compiled = CompiledCollectiveSelector::compile(&sel, &Collective::ALL, &comms, &msgs);
        assert_eq!(compiled.collectives(), Collective::ALL.to_vec());
        assert_eq!(compiled.name(), "compiled(model-based-multi)");
        for c in Collective::ALL {
            for p in [1usize, 3, 4, 5, 9, 16, 50, 100, 128, 300] {
                for m in [0usize, 1, 1024, 5000, 70_000, 1 << 20, 9 << 20] {
                    assert_eq!(
                        compiled.lookup(c, p, m),
                        sel.select_for(c, snap(&comms, p), snap(&msgs, m)),
                        "{c} p={p} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not compiled")]
    fn lookup_of_uncompiled_collective_panics_clearly() {
        let compiled = fixed_compiled_on(&[Collective::Bcast]);
        assert!(compiled.covers(Collective::Bcast));
        assert!(!compiled.covers(Collective::Reduce));
        let _ = compiled.lookup(Collective::Reduce, 16, 1024);
    }

    #[test]
    fn service_counts_hits_and_misses() {
        let svc = CollectiveDecisionService::compiled(fixed_compiled_on(&Collective::ALL))
            .with_cache(8, 0xCAFE);
        let first = svc.decide(Collective::Bcast, 64, 8192);
        let second = svc.decide(Collective::Bcast, 64, 8192);
        assert_eq!(first, second);
        let stats = svc.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.queries(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(svc.cached_entries(), 1);
    }

    #[test]
    fn cache_eviction_is_bounded_and_seed_deterministic() {
        let run = |seed: u64| {
            let svc = CollectiveDecisionService::compiled(fixed_compiled_on(&Collective::ALL))
                .with_cache(4, seed);
            let picks: Vec<CollSelection> = (0..64usize)
                .map(|i| svc.decide(Collective::ALL[i % 7], 4 + i, 1024 * i))
                .collect();
            assert!(svc.cached_entries() <= 4);
            (picks, svc.stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        assert_eq!(a, b, "same seed, same answers");
        assert_eq!(sa, sb, "same seed, same serial counter trace");
    }

    /// The satellite regression: a cache keyed by `(p, m)` alone would
    /// return the *bcast* answer for a *reduce* query at the same
    /// geometry. The service cache keys by `(collective, p, m)`, so two
    /// collectives sharing every `(p, m)` stay distinct.
    #[test]
    fn cache_never_crosses_collectives() {
        let sel = CollectiveModelSelector::new(gamma(), all_params(1e-6, 1e-9), 8192);
        let compiled = CompiledCollectiveSelector::compile(
            &sel,
            &Collective::ALL,
            &[16, 90],
            &[8192, 1 << 20],
        );
        let svc = CollectiveDecisionService::compiled(compiled).with_cache(64, 0xBEEF);
        // Grid points only, so every compiled answer is the live pick.
        for (p, m) in [(16usize, 8192usize), (90, 1 << 20), (16, 8192)] {
            for c in Collective::ALL {
                let got = svc.decide(c, p, m);
                assert_eq!(got, sel.select_for(c, p, m), "{c} p={p} m={m}");
                assert_eq!(got.alg.collective(), c, "{c} p={p} m={m}");
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.hits, 7, "third round repeats the first exactly");
        assert_eq!(stats.misses, 14);
    }

    #[test]
    fn coll_selection_json_round_trips() {
        use collsel_support::{FromJson, ToJson};
        for s in [
            CollSelection::segmented(Alg::Bcast(BcastAlg::Binomial), 8192),
            CollSelection::unsegmented(Alg::Gather(GatherAlg::Linear)),
        ] {
            assert_eq!(CollSelection::from_json(&s.to_json()).unwrap(), s);
        }
    }
}
