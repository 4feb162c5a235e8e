//! # collsel-estim
//!
//! Model-parameter **estimation** — the second half of the paper's
//! contribution.
//!
//! The paper's innovation is to estimate the Hockney parameters
//! *separately for each collective algorithm*, from communication
//! experiments that *contain the modelled algorithm itself*:
//!
//! * [`estimate_gamma`] — Sect. 4.1: γ(P) from repeated non-blocking
//!   linear-tree broadcasts of one segment;
//! * [`estimate_all_alpha_beta`] — Sect. 4.2: per-algorithm (α, β) from
//!   broadcast + linear-gather experiments, canonicalised into the
//!   linear system of Fig. 4 and solved with the Huber robust
//!   regressor ([`huber_default`]); [`estimate_collective_family`] runs
//!   the same fit for any collective's algorithms, timed alone;
//! * [`estimate_network_hockney`] — the traditional point-to-point
//!   measurement, kept for the prior-work baseline models.
//!
//! Measurement follows the MPIBlib methodology the paper cites: every
//! data point is re-sampled until its mean lies within a 2.5% precision
//! 95% confidence interval ([`Precision::paper`]).
//!
//! Estimation campaigns fan their *independent* measurement cells
//! (γ widths, per-algorithm experiment sizes) across a
//! [`collsel_support::pool::Pool`] sized by `COLLSEL_THREADS`; every
//! cell derives its seed from its grid position, so results are
//! bit-identical at any thread count. The adaptive stopping rule stays
//! strictly sequential *within* a cell.
//!
//! Every experiment is one [`TimedProgram`] measured by one pipeline
//! ([`try_measure`] and its batch fan-out, see [`measure`](mod@measure))
//! on the timing DAG: the program is compiled to a static DAG once per
//! cell (memoised process-wide, see [`memo_counters`]) and repetitions
//! are batch-evaluated payload-free. The thread-per-rank engine
//! ([`collsel_mpi::Backend::Threads`]) is the oracle the DAG is checked
//! against and the fallback for a cell that cannot be lowered.
//!
//! Each estimator is one body, the `try_` function, whose
//! `policy: Option<&RetryPolicy>` picks the measurement tier: `None`
//! arms no watchdog and returns an unconverged sample as it stands, so
//! nothing can fail and the plain function ([`estimate_gamma`],
//! [`measure()`], …) returns it unwrapped; `Some(policy)` is the
//! fault-tolerant tier — watchdog, retry with a perturbed seed,
//! MAD-outlier rescue, then [`collsel_mpi::SimError::PrecisionNotReached`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alpha_beta;
mod campaign;
mod gamma_est;
mod hockney_est;
pub mod measure;
mod memo;
mod regress;
mod stats;

pub use alpha_beta::{
    estimate_all_alpha_beta, estimate_collective_family, log_spaced_sizes,
    try_estimate_all_alpha_beta, try_estimate_collective_family, AlphaBetaConfig,
    AlphaBetaEstimate, BreadthConfig, ExperimentPoint, BREADTH_SEG_SIZE,
};
pub use campaign::{
    measure_family_cell, plan_crossover_fill, CrossoverPlan, FamilyCell, DECISIVE_MARGIN,
    HINT_MARGIN_FACTOR,
};
pub use gamma_est::{estimate_gamma, try_estimate_gamma, GammaConfig, GammaEstimate};
pub use hockney_est::{estimate_network_hockney, NetworkHockneyEstimate};
pub use measure::{
    measure, measure_batch, try_measure, try_measure_batch, RetryPolicy, TimedProgram,
};
pub use memo::{
    compile_step_shared, compiled_step_dag, memo_counters, step_cell, MemoCounters, StepCell,
};
pub use regress::{huber, huber_default, ols, LinearFit};
pub use stats::{Precision, SampleStats};
