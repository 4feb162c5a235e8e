//! Measured (simulated) execution times of the paper's timed programs,
//! with its adaptive repetition methodology.
//!
//! The paper has one measurement procedure (Sect. 4): a barrier, the
//! root's clock around the operation (closed by a second barrier when
//! the operation does not naturally end on the root), repeated until
//! the mean lies within the precision target's confidence interval.
//! What is timed is a [`TimedProgram`] — any collective algorithm, the
//! Sect. 4.2 broadcast + gather experiment, the Sect. 4.1
//! linear-segment broadcasts, or a point-to-point round trip — and a
//! measurement *cell* is such a program plus a base seed.
//!
//! Every cell is measured on the timing DAG: one round of the program
//! is recorded once per cell, lowered to a [`collsel_mpi::TimingDag`]
//! (memoised process-wide in `estim`'s DAG memo) and evaluated
//! payload-free with one [`DagEvaluator`], which loops the round
//! `precision.min_reps` times per batch and resets its fabric and
//! scratch in place between batches. The thread-per-rank engine
//! ([`collsel_mpi::simulate_with`], [`Backend::Threads`]) is the oracle
//! the DAG is checked against (`crates/coll/tests/dag_equivalence.rs`,
//! and this module's tests through the crate-private `try_measure_on`)
//! and the fallback for a cell that cannot be recorded or lowered. Both
//! derive a sample from the root's clock pair with the same float
//! arithmetic, so they return **bit-identical** statistics and errors.
//!
//! One pipeline measures a cell, [`try_measure`], and
//! [`try_measure_batch`] spreads independent cells across a [`Pool`]
//! (bit-identical to the serial calls at any thread count, because
//! every cell carries its own seed). Its `policy: Option<&RetryPolicy>`
//! is the measurement tier:
//!
//! * `None` — for the golden regression path: no watchdog is armed (a
//!   barrier-synchronised measurement program cannot deadlock by
//!   construction), and a sample that exhausts its budget is returned
//!   as it stands. Nothing on this tier can fail, so [`measure`] and
//!   [`measure_batch`] return it unwrapped;
//! * `Some(policy)` — for measurement on a *faulted* cluster
//!   ([`collsel_netsim::FaultPlan`]): batches run under the
//!   virtual-time watchdog, timed-out batches are retried under the
//!   [`RetryPolicy`] with a grown budget and a perturbed seed, and
//!   non-convergence is [`SimError::PrecisionNotReached`] (after a
//!   MAD-outlier rescue) instead of a silently loose sample.

use crate::memo::compiled_dag;
use crate::stats::{sample_adaptive, Precision, SampleStats};
use collsel_mpi::{simulate_with, Backend, DagEvaluator, SimError, SimOptions};
use collsel_netsim::{ClusterModel, SimSpan, SimTime};
use collsel_support::pool::Pool;

pub use collsel_coll::compile::TimedProgram;

/// Retry policy for measurements on a cluster that may stall.
///
/// Each batch of repetitions runs under a virtual-time watchdog
/// [`budget`](RetryPolicy::budget); a batch that times out is retried
/// up to [`max_attempts`](RetryPolicy::max_attempts) times with the
/// budget multiplied by [`backoff`](RetryPolicy::backoff) each attempt
/// and a deterministically perturbed seed (attempt 0 uses the caller's
/// seed unchanged). Non-timeout errors are never retried — a deadlock
/// or rank panic is a bug, not bad luck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per batch (first try included).
    pub max_attempts: usize,
    /// Virtual-time budget of the first attempt; `None` disables the
    /// watchdog (and makes retries pointless).
    pub budget: Option<SimSpan>,
    /// Multiplier applied to the budget on every retry.
    pub backoff: u64,
}

impl Default for RetryPolicy {
    /// Three attempts starting from a 10-second virtual budget,
    /// quadrupling on each retry (10 s → 40 s → 160 s of virtual time —
    /// generous against real collective runtimes of micro- to
    /// milliseconds, tight against a genuine stall).
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            budget: Some(SimSpan::from_secs_f64(10.0)),
            backoff: 4,
        }
    }
}

impl RetryPolicy {
    /// A policy with no watchdog and no retries: every batch runs as on
    /// the unwatched tier (`None`), but a sample that exhausts its
    /// budget unconverged is still escalated — MAD-outlier rescue, then
    /// [`SimError::PrecisionNotReached`] — where `None` returns it as it
    /// stands.
    pub fn no_deadline() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            budget: None,
            backoff: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero attempts or a zero backoff.
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "need at least one attempt");
        assert!(self.backoff >= 1, "backoff multiplier must be at least 1");
    }

    /// Simulation options for the given (0-based) attempt.
    ///
    /// The deadline grows geometrically with the attempt; the growth
    /// saturates at `u64::MAX` nanoseconds (an effectively unarmed
    /// watchdog) rather than overflowing — `backoff^attempt` exceeds
    /// u64 after a few dozen retries of an aggressive policy, and the
    /// unchecked product would panic in debug or wrap to a uselessly
    /// tiny deadline in release.
    fn options_for(&self, attempt: usize) -> SimOptions {
        match self.budget {
            Some(budget) => {
                let factor = self
                    .backoff
                    .saturating_pow(attempt.min(u32::MAX as usize) as u32);
                let nanos = budget.as_nanos().saturating_mul(factor);
                SimOptions::with_deadline(SimSpan::from_nanos(nanos))
            }
            None => SimOptions::default(),
        }
    }
}

/// Mixes the retry attempt into the seed; attempt 0 leaves it unchanged
/// so the first try reproduces the unwatched tier bit-for-bit.
fn mix_attempt(seed: u64, attempt: usize) -> u64 {
    seed.wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Unwraps an outcome of the unwatched tier (`policy: None`), which
/// cannot fail: with no watchdog armed a barrier-synchronised
/// measurement program completes on a causally consistent fabric, and
/// an unconverged sample is returned as it stands rather than as
/// [`SimError::PrecisionNotReached`]. Every plain entry point
/// ([`measure`], [`measure_batch`], the `estimate_*` functions) is its
/// `try_` body run with `None` through this one invariant.
pub(crate) fn unwatched<T>(outcome: Result<T, SimError>) -> T {
    outcome.expect("an unwatched measurement cannot fail")
}

/// Root rank of every measurement: the programs are rooted there and
/// its clock pairs are the samples.
pub const ROOT: usize = 0;

/// One measurement cell prepared for sampling: the program, and on the
/// timing-DAG tier its compiled DAG pinned to the cluster. Each
/// [`batch`](CellSampler::batch) yields the root's samples of one batch
/// of repetitions; what drives it owns the stopping rule.
pub(crate) struct CellSampler {
    program: TimedProgram,
    /// Rounds per threaded batch; a DAG carries its own round count.
    rounds: usize,
    /// What a round's clock difference is divided by.
    per: f64,
    /// `None` runs the program on rank threads: the threaded oracle, or
    /// a cell that could not be recorded or lowered.
    dag: Option<DagEvaluator>,
}

impl CellSampler {
    /// Prepares `program` at `reps` repetitions per batch on `backend`.
    /// On [`Backend::Dag`] the cell's timing DAG comes from the
    /// process-wide memo (recorded and lowered on a miss) and one
    /// evaluator serves every batch, so all after the first run
    /// allocation-free against a reset-in-place fabric.
    ///
    /// # Panics
    ///
    /// Panics if the program's rank count exceeds the cluster's slots
    /// or its geometry is invalid.
    pub(crate) fn new(
        cluster: &ClusterModel,
        program: TimedProgram,
        reps: usize,
        backend: Backend,
    ) -> CellSampler {
        let dag = match backend {
            Backend::Dag => {
                compiled_dag(cluster, program, reps).map(|dag| DagEvaluator::new(cluster, dag))
            }
            Backend::Threads => None,
        };
        CellSampler {
            program,
            rounds: program.rounds_per_batch(reps),
            per: program.sample_divisor(),
            dag,
        }
    }

    /// Runs one batch under `seed` and returns the root's samples in
    /// seconds. With `None` the batch runs once with no watchdog; under
    /// `Some(policy)` it runs under the policy's watchdog, and a
    /// timed-out attempt is retried with a grown budget and a perturbed
    /// seed (attempt 0 runs exactly as `None` does, bar the deadline).
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] when every attempt times out; any other
    /// error of [`collsel_mpi::simulate_with`] at once, unretried.
    pub(crate) fn batch(
        &mut self,
        cluster: &ClusterModel,
        seed: u64,
        policy: Option<&RetryPolicy>,
    ) -> Result<Vec<f64>, SimError> {
        let policy = policy.copied().unwrap_or_else(RetryPolicy::no_deadline);
        let mut last_timeout: Option<SimError> = None;
        for attempt in 0..policy.max_attempts {
            match self.run(
                cluster,
                mix_attempt(seed, attempt),
                policy.options_for(attempt),
            ) {
                Ok(samples) => return Ok(samples),
                Err(e @ SimError::Timeout { .. }) => last_timeout = Some(e),
                Err(e) => return Err(e),
            }
        }
        // Invariant: max_attempts >= 1, so at least one timeout was seen.
        Err(last_timeout.expect("at least one attempt ran"))
    }

    /// Runs one batch under `seed` and `opts`. Both tiers apply the same
    /// float arithmetic to the same virtual clock values.
    fn run(
        &mut self,
        cluster: &ClusterModel,
        seed: u64,
        opts: SimOptions,
    ) -> Result<Vec<f64>, SimError> {
        let per = self.per;
        let sample = |t0: SimTime, t1: SimTime| (t1 - t0).as_secs_f64() / per;
        match &mut self.dag {
            Some(ev) => {
                let run = ev.run(seed, opts)?;
                Ok(run.wtimes[ROOT]
                    .chunks_exact(2)
                    .map(|w| sample(w[0], w[1]))
                    .collect())
            }
            None => {
                let out = simulate_with(cluster, self.program.ranks(), seed, opts, |ctx| {
                    (0..self.rounds)
                        .map(|_| self.program.round(ctx, ROOT))
                        .collect::<Vec<_>>()
                })?;
                Ok(out.results[ROOT]
                    .iter()
                    .map(|&(t0, t1)| sample(t0, t1))
                    .collect())
            }
        }
    }
}

/// Measures the execution time of `program` until the paper's precision
/// target is met (or the sample budget runs out: the sample is returned
/// either way, see [`SampleStats::converged`]) — [`try_measure`] on the
/// unwatched tier.
///
/// # Panics
///
/// Same as [`try_measure`].
pub fn measure(
    cluster: &ClusterModel,
    program: TimedProgram,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    unwatched(try_measure(cluster, program, precision, seed, None))
}

/// Measures the execution time of `program` until the paper's precision
/// target is met. Batch `i` runs under seed `seed + i`. `policy` is the
/// tier (see the module docs): `None` arms no watchdog and returns an
/// unconverged sample as it stands; `Some(policy)` runs every batch
/// under the policy's virtual-time watchdog and makes non-convergence a
/// typed error.
///
/// With [`RetryPolicy::no_deadline`] on a fault-free cluster and a
/// converging sample, both tiers are bit-identical.
///
/// # Errors
///
/// Only under `Some(policy)`: [`SimError::Timeout`] when every retry
/// exhausts its budget; [`SimError::PrecisionNotReached`] when the
/// sample budget runs out before the precision target (even after the
/// MAD-outlier rescue); any other [`SimError`] from the simulation,
/// unretried.
///
/// # Panics
///
/// Panics if the program's rank count exceeds the cluster's slots or
/// its geometry is invalid (zero `seg_size` for a segmented broadcast
/// in the Sect. 4.2 experiment, zero calls per linear-segment sample),
/// and on an invalid `policy`.
pub fn try_measure(
    cluster: &ClusterModel,
    program: TimedProgram,
    precision: &Precision,
    seed: u64,
    policy: Option<&RetryPolicy>,
) -> Result<SampleStats, SimError> {
    try_measure_on(cluster, program, precision, seed, policy, Backend::Dag)
}

/// [`try_measure`] on an explicit execution tier, so the tests can hold
/// the DAG to the threaded oracle.
fn try_measure_on(
    cluster: &ClusterModel,
    program: TimedProgram,
    precision: &Precision,
    seed: u64,
    policy: Option<&RetryPolicy>,
    backend: Backend,
) -> Result<SampleStats, SimError> {
    if let Some(policy) = policy {
        policy.validate();
    }
    let mut cell = CellSampler::new(cluster, program, precision.min_reps, backend);
    let acc = sample_adaptive(precision, |batch| {
        cell.batch(cluster, seed.wrapping_add(batch as u64), policy)
    })?;
    match policy {
        None => Ok(acc.finish()),
        Some(_) => acc.finish_or_rescue(precision),
    }
}

/// [`try_measure_batch`] on the unwatched tier: the statistics in cell
/// order, bit-identical to calling [`measure`] per cell.
pub fn measure_batch(
    cluster: &ClusterModel,
    cells: &[(TimedProgram, u64)],
    precision: &Precision,
    pool: Pool,
) -> Vec<SampleStats> {
    try_measure_batch(cluster, cells, precision, None, pool)
        .into_iter()
        .map(unwatched)
        .collect()
}

/// Measures a batch of independent `(program, seed)` cells across
/// `pool`, returning every cell's own outcome in cell order.
///
/// Each cell is a complete adaptive measurement (the stopping rule is
/// inherently sequential *within* a cell); the pool fans the *cells*
/// out. Because every cell carries its own seed, the result is
/// bit-identical to calling [`try_measure`] per cell in order — at any
/// thread count. All cells run even past a failure (in-flight jobs
/// cannot be cancelled), so folding the outcomes in order reports the
/// error the early-exiting serial loop would.
pub fn try_measure_batch(
    cluster: &ClusterModel,
    cells: &[(TimedProgram, u64)],
    precision: &Precision,
    policy: Option<&RetryPolicy>,
    pool: Pool,
) -> Vec<Result<SampleStats, SimError>> {
    pool.run(
        cells
            .iter()
            .map(|&(program, seed)| move || try_measure(cluster, program, precision, seed, policy)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AdaptiveAccumulator;
    use collsel_coll::{Alg, BcastAlg, Collective};
    use collsel_netsim::{FaultPlan, NoiseParams};

    const SEG: usize = 8 * 1024;

    fn quiet_gros() -> ClusterModel {
        ClusterModel::gros().with_noise(NoiseParams::OFF)
    }

    fn collective(alg: Alg, p: usize, m: usize) -> TimedProgram {
        TimedProgram::Collective {
            alg,
            p,
            m,
            seg_size: SEG,
        }
    }

    fn bcast(alg: BcastAlg, p: usize, m: usize) -> TimedProgram {
        collective(Alg::Bcast(alg), p, m)
    }

    /// One cell of each program kind, with its seed.
    fn one_of_each_kind() -> [(TimedProgram, u64); 4] {
        [
            (bcast(BcastAlg::SplitBinary, 8, 64 * 1024), 9),
            (
                TimedProgram::BcastGather {
                    alg: BcastAlg::Binary,
                    p: 7,
                    m: 32 * 1024,
                    m_g: 2048,
                    seg_size: SEG,
                },
                11,
            ),
            (
                TimedProgram::LinearSegment {
                    p: 5,
                    seg_size: SEG,
                    calls: 4,
                },
                13,
            ),
            (TimedProgram::P2p { m: 100_000 }, 17),
        ]
    }

    #[test]
    fn bcast_time_is_positive_and_converges_without_noise() {
        let s = measure(
            &quiet_gros(),
            bcast(BcastAlg::Binomial, 8, 64 * 1024),
            &Precision::quick(),
            1,
        );
        assert!(s.mean > 0.0);
        assert!(s.converged);
        assert_eq!(s.std_dev, 0.0, "deterministic runs repeat exactly");
    }

    #[test]
    fn larger_messages_take_longer() {
        let c = quiet_gros();
        let p = Precision::quick();
        let small = measure(&c, bcast(BcastAlg::Chain, 8, 16 * 1024), &p, 1);
        let large = measure(&c, bcast(BcastAlg::Chain, 8, 256 * 1024), &p, 1);
        assert!(large.mean > small.mean);
    }

    #[test]
    fn experiment_time_exceeds_bare_bcast() {
        let c = quiet_gros();
        let p = Precision::quick();
        let bare = measure(&c, bcast(BcastAlg::Binomial, 8, 64 * 1024), &p, 1);
        let experiment = TimedProgram::BcastGather {
            alg: BcastAlg::Binomial,
            p: 8,
            m: 64 * 1024,
            m_g: 1024,
            seg_size: SEG,
        };
        let with_gather = measure(&c, experiment, &p, 1);
        assert!(with_gather.mean > bare.mean * 0.9);
    }

    #[test]
    fn linear_segment_time_grows_with_children() {
        let c = quiet_gros();
        let prec = Precision::quick();
        let t = |p| {
            let program = TimedProgram::LinearSegment {
                p,
                seg_size: SEG,
                calls: 5,
            };
            measure(&c, program, &prec, 1).mean
        };
        let (t2, t5, t7) = (t(2), t(5), t(7));
        assert!(t5 > t2);
        assert!(t7 > t5);
        // And the ratio stays well below P-1 (non-blocking overlap).
        assert!(t7 / t2 < 4.0);
    }

    #[test]
    fn p2p_time_scales_affinely() {
        let c = quiet_gros();
        let p = Precision::quick();
        let t1 = measure(&c, TimedProgram::P2p { m: 1_000 }, &p, 1).mean;
        let t2 = measure(&c, TimedProgram::P2p { m: 2_000_000 }, &p, 1).mean;
        assert!(t2 > t1);
        // Rendezvous messages pay extra latency, still far below 2000x.
        assert!(t2 / t1 < 100.0);
    }

    #[test]
    #[should_panic(expected = "need at least one call per sample")]
    fn linear_segment_needs_a_call() {
        let program = TimedProgram::LinearSegment {
            p: 4,
            seg_size: SEG,
            calls: 0,
        };
        let _ = measure(&quiet_gros(), program, &Precision::quick(), 1);
    }

    #[test]
    fn try_measure_matches_measure_without_deadline() {
        use collsel_coll::ReduceAlg;
        let c = quiet_gros();
        let p = Precision::quick();
        for program in [
            bcast(BcastAlg::Binomial, 8, 64 * 1024),
            collective(Alg::Reduce(ReduceAlg::Binomial), 8, 64 * 1024),
        ] {
            let infallible = measure(&c, program, &p, 1);
            let watched = try_measure(&c, program, &p, 1, Some(&RetryPolicy::no_deadline()));
            assert_eq!(Ok(infallible), watched, "the tiers must be bit-identical");
        }
    }

    #[test]
    fn tiny_deadline_times_out_after_retries() {
        let policy = RetryPolicy {
            max_attempts: 2,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let err = try_measure(
            &quiet_gros(),
            bcast(BcastAlg::Binomial, 8, 64 * 1024),
            &Precision::quick(),
            1,
            Some(&policy),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err}");
    }

    #[test]
    fn backoff_grows_the_budget_until_success() {
        // 1 µs is hopeless for this run; two ×1_000_000 backoffs later
        // the budget reaches 10^6 s of virtual time and the run fits.
        let policy = RetryPolicy {
            max_attempts: 3,
            budget: Some(SimSpan::from_micros(1)),
            backoff: 1_000_000,
        };
        let s = try_measure(
            &quiet_gros(),
            bcast(BcastAlg::Binomial, 8, 64 * 1024),
            &Precision::quick(),
            1,
            Some(&policy),
        )
        .expect("third attempt has ample budget");
        assert!(s.mean > 0.0);
        assert!(s.converged);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // backoff^attempt blows through u64 after ~3 retries here; the
        // deadline must pin at u64::MAX nanoseconds (watchdog
        // effectively unarmed), never wrap to a tiny budget or panic.
        let policy = RetryPolicy {
            max_attempts: 64,
            budget: Some(SimSpan::from_micros(10)),
            backoff: 1_000_000,
        };
        assert_eq!(
            policy.options_for(0).deadline,
            Some(SimSpan::from_micros(10))
        );
        assert_eq!(
            policy.options_for(1).deadline,
            Some(SimSpan::from_micros(10) * 1_000_000)
        );
        for attempt in [4, 63, policy.max_attempts - 1, 10_000] {
            assert_eq!(
                policy.options_for(attempt).deadline,
                Some(SimSpan::from_nanos(u64::MAX)),
                "attempt {attempt} must saturate, not wrap"
            );
        }
        // An unarmed policy stays unarmed at any attempt.
        assert_eq!(RetryPolicy::no_deadline().options_for(999).deadline, None);
    }

    #[test]
    fn straggler_fault_slows_the_measurement() {
        let quiet = quiet_gros();
        let slowed = quiet
            .clone()
            .with_faults(FaultPlan::none().with_straggler(3, 20.0));
        let p = Precision::quick();
        let program = bcast(BcastAlg::Binomial, 8, 64 * 1024);
        let base = measure(&quiet, program, &p, 1);
        let hurt = try_measure(&slowed, program, &p, 1, Some(&RetryPolicy::default()))
            .expect("straggler slows but does not stall");
        assert!(hurt.mean > base.mean, "{} vs {}", hurt.mean, base.mean);
    }

    #[test]
    fn batch_measurements_match_serial_at_any_thread_count() {
        use collsel_coll::{AllgatherAlg, ReduceAlg};
        let c = quiet_gros();
        let prec = Precision::quick();
        let mut cells = one_of_each_kind().to_vec();
        cells.extend([
            (bcast(BcastAlg::Chain, 8, 64 * 1024), 2),
            (
                collective(Alg::Reduce(ReduceAlg::Pipeline), 6, 16 * 1024),
                3,
            ),
            (
                collective(Alg::Allgather(AllgatherAlg::Ring), 6, 16 * 1024),
                4,
            ),
        ]);
        let policy = RetryPolicy::default();
        let serial: Vec<SampleStats> = cells
            .iter()
            .map(|&(program, seed)| measure(&c, program, &prec, seed))
            .collect();
        for threads in [1, 2] {
            let pool = Pool::with_threads(threads);
            let batch = measure_batch(&c, &cells, &prec, pool);
            assert_eq!(serial, batch, "threads={threads}");
            let tried: Result<Vec<SampleStats>, SimError> =
                try_measure_batch(&c, &cells, &prec, Some(&policy), pool)
                    .into_iter()
                    .collect();
            assert_eq!(Ok(&serial), tried.as_ref(), "threads={threads}");
        }
    }

    #[test]
    fn backends_return_bit_identical_statistics() {
        // Noise ON: the clock values must match exactly, not just the
        // zero-variance deterministic case.
        let c = ClusterModel::grisou();
        let p = Precision::quick();
        for (program, seed) in one_of_each_kind() {
            let [dag, threads] = [Backend::Dag, Backend::Threads]
                .map(|backend| unwatched(try_measure_on(&c, program, &p, seed, None, backend)));
            assert_eq!(dag, threads, "{program:?}");
        }
    }

    #[test]
    fn try_backends_agree_on_results_and_errors() {
        let both = |c: &ClusterModel, program, prec: &Precision, policy: &RetryPolicy| {
            let [dag, threads] = [Backend::Dag, Backend::Threads]
                .map(|backend| try_measure_on(c, program, prec, 3, Some(policy), backend));
            assert_eq!(dag, threads, "{program:?}");
            dag
        };
        let slowed = quiet_gros().with_faults(FaultPlan::none().with_straggler(2, 15.0));
        // Heavy multiplicative noise with a tight target and a tiny
        // budget: the stopping rule cannot be met.
        let noisy = slowed.clone().with_noise(NoiseParams::new(0.4));
        let unreachable = Precision {
            rel_precision: 1e-4,
            min_reps: 4,
            max_reps: 8,
        };
        // A hopeless budget must time out identically on both tiers.
        let tiny = RetryPolicy {
            max_attempts: 2,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let quick = Precision::quick();
        let policy = RetryPolicy::default();
        for (program, _) in one_of_each_kind() {
            assert!(both(&slowed, program, &quick, &policy).is_ok());
            assert!(matches!(
                both(&noisy, program, &unreachable, &policy),
                Err(SimError::PrecisionNotReached { .. })
            ));
            assert!(matches!(
                both(&slowed, program, &quick, &tiny),
                Err(SimError::Timeout { .. })
            ));
        }
    }

    /// A batch's rounds run as one compiled round in a loop. Per program
    /// kind and batch size, the looped DAG, the DAG of the flat stream
    /// (the batch recorded as one `rounds`-fold loop) and the threaded
    /// oracle return the same samples, and the same timeout when the
    /// watchdog fires in the batch's last round — past the first
    /// whenever the batch has several, so the request ids the timeout
    /// names are shifted by whole rounds.
    #[test]
    fn looped_flat_and_threaded_batches_agree_round_for_round(
    ) -> Result<(), Box<dyn std::error::Error>> {
        use collsel_mpi::{record_schedule, TimingDag};
        use std::sync::Arc;

        let chaos = FaultPlan::parse("chaos:7", ClusterModel::gros().nodes())?;
        for c in [
            ClusterModel::grisou(),
            ClusterModel::gros().with_faults(chaos),
        ] {
            for (program, seed) in one_of_each_kind() {
                for reps in [1, 2, 3, 5] {
                    let rounds = program.rounds_per_batch(reps);
                    let flat = record_schedule(&c, program.ranks(), |rc| {
                        for _ in 0..rounds {
                            program.round(rc, ROOT);
                        }
                    })?;
                    let flat = Arc::new(TimingDag::compile(&c, &flat)?);
                    let looped = CellSampler::new(&c, program, reps, Backend::Dag);
                    let looped_rounds = looped.dag.as_ref().map(|ev| ev.dag().rounds());
                    assert_eq!((looped_rounds, flat.rounds()), (Some(rounds), 1));
                    // The root's clock pair of the last round, unwatched.
                    let clocks = DagEvaluator::new(&c, Arc::clone(&flat))
                        .run(seed, SimOptions::default())?
                        .wtimes
                        .swap_remove(ROOT);
                    let [t0, t1] = [clocks[2 * rounds - 2], clocks[2 * rounds - 1]];
                    let mid_last_round = RetryPolicy {
                        max_attempts: 1,
                        budget: Some(
                            t0.saturating_since(SimTime::ZERO) + t1.saturating_since(t0) / 2,
                        ),
                        backoff: 1,
                    };
                    let threaded = || CellSampler::new(&c, program, reps, Backend::Threads);
                    let mut cells = [
                        looped,
                        CellSampler {
                            dag: Some(DagEvaluator::new(&c, Arc::clone(&flat))),
                            ..threaded()
                        },
                        threaded(),
                    ];
                    for policy in [None, Some(&mid_last_round)] {
                        let [looped, flat, threads] =
                            cells.each_mut().map(|cell| cell.batch(&c, seed, policy));
                        let what = format!("{program:?} in {reps}-rep batches on {}", c.name());
                        assert_eq!(looped, threads, "{what}");
                        assert_eq!(looped, flat, "{what}");
                        match policy {
                            None => assert_eq!(looped.map(|s| s.len()), Ok(rounds), "{what}"),
                            Some(_) => {
                                assert!(matches!(looped, Err(SimError::Timeout { .. })), "{what}")
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The identity `measure_family_cell` relies on: the stopping rule
    /// can live outside the sampler.
    #[test]
    fn sampler_driven_by_an_accumulator_equals_measure() {
        let c = ClusterModel::gros();
        let prec = Precision::quick();
        for backend in [Backend::Dag, Backend::Threads] {
            for (program, seed) in one_of_each_kind() {
                let mut cell = CellSampler::new(&c, program, prec.min_reps, backend);
                let mut acc = AdaptiveAccumulator::new();
                while !acc.done(&prec) {
                    let batch_seed = seed.wrapping_add(acc.batches() as u64);
                    acc.push_batch(unwatched(cell.batch(&c, batch_seed, None)), &prec);
                }
                assert_eq!(
                    Ok(acc.finish()),
                    try_measure_on(&c, program, &prec, seed, None, backend),
                    "{program:?} on {}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn collective_time_is_positive_for_every_family() {
        let c = quiet_gros();
        let p = Precision::quick();
        for coll in Collective::ALL {
            let alg = coll.algorithms()[0];
            let s = measure(&c, collective(alg, 6, 16 * 1024), &p, 1);
            assert!(s.mean > 0.0, "{}", alg.qualified_name());
            assert!(s.converged, "{}", alg.qualified_name());
        }
    }

    #[test]
    fn noisy_measurements_converge_with_adaptive_reps() {
        let c = ClusterModel::gros(); // noise on
        let s = measure(
            &c,
            bcast(BcastAlg::Binary, 6, 32 * 1024),
            &Precision::paper(),
            7,
        );
        assert!(s.converged, "{s:?}");
        assert!(s.n >= 5);
        assert!(s.normality(), "{s:?}");
    }
}
