//! Measured (simulated) execution times of collectives, with the
//! paper's adaptive repetition methodology.
//!
//! All measurements are framed the MPIBlib way: a barrier, the root's
//! clock around the operation, and (for operations that do not
//! naturally end on the root) a closing barrier so the root observes
//! the completion of the slowest rank.
//!
//! Three API tiers live here:
//!
//! * the original infallible functions ([`bcast_time`] etc.) — used by
//!   the golden regression path; they run without a watchdog and panic
//!   only on programming errors (a barrier/broadcast measurement
//!   program cannot deadlock by construction);
//! * fallible `try_*` twins — for measurement on a *faulted* cluster
//!   ([`collsel_netsim::FaultPlan`]). They arm the virtual-time
//!   watchdog, retry timed-out batches under a [`RetryPolicy`] with a
//!   grown budget and a perturbed seed, and report
//!   [`SimError::PrecisionNotReached`] instead of silently returning a
//!   non-converged sample;
//! * `*_batch` fan-out twins ([`bcast_time_batch`],
//!   [`bcast_gather_experiment_time_batch`]) — run many independent
//!   measurement cells across a [`Pool`], returning results in spec
//!   order, bit-identical to the serial tier at any thread count.
//!
//! Every tier also comes in a `*_with` variant taking an execution
//! [`Backend`]. The default ([`Backend::Dag`]) compiles the
//! measurement program to a [`collsel_mpi::Schedule`] and lowers it to
//! a [`collsel_mpi::TimingDag`] once per *cell* (memoised process-wide
//! in [`crate::memo`]), then evaluates repetitions payload-free with a
//! per-call [`DagEvaluator`] whose fabric and scratch are reset in
//! place per batch. [`Backend::Events`] replays the schedule through
//! the full discrete-event engine instead. On either backend the
//! timing samples are derived from the run's `wtime` observations with
//! the same float arithmetic the threaded closures apply, so all three
//! backends return **bit-identical** statistics. [`Backend::Threads`]
//! runs the original closures through [`collsel_mpi::simulate_pooled`]
//! and remains the oracle the other two are checked against
//! (`tests/backend_equivalence.rs`, `tests/dag_equivalence.rs`).

use crate::memo::{compiled_dag, CellProgram, DagCell};
use crate::stats::{sample_adaptive, sample_adaptive_fallible, Precision, SampleStats};
use collsel_coll::compile::{
    compile_timed_bcast, compile_timed_bcast_gather, compile_timed_collective,
    compile_timed_linear_segment,
};
use collsel_coll::{bcast, gather_linear, run_collective, Alg, BcastAlg};
use collsel_mpi::{
    record_schedule, simulate_scheduled, Backend, Comm, Ctx, DagEvaluator, RecordError, Schedule,
    ScheduledRun, SimError, SimOptions, TimingDag,
};
use collsel_netsim::{ClusterModel, SimSpan};
use collsel_support::pool::Pool;
use collsel_support::Bytes;
use std::sync::Arc;

pub use collsel_support::payload::payload;

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
    /// A policy with no watchdog and no retries: batches behave exactly
    /// like the infallible measurement tier.
    pub fn no_deadline() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            budget: None,
            backoff: 1,
        }
    }

    /// The per-request watchdog tier of the decision server: a tight
    /// 10 µs virtual budget for the first attempt (a compiled-table
    /// lookup is tens of nanoseconds, so only a degraded generation
    /// trips it), one retry on the previous generation with an 8×
    /// budget. Tuning-stage policies measure whole collectives and need
    /// seconds; serving-stage budgets guard a table lookup.
    pub fn for_serving() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            budget: Some(SimSpan::from_nanos(10_000)),
            backoff: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero attempts or a zero backoff with several attempts.
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
/// so the first try reproduces the infallible tier bit-for-bit.
fn mix_attempt(seed: u64, attempt: usize) -> u64 {
    seed.wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `program` as a `p`-rank simulation under `policy`, retrying
/// watchdog timeouts, and returns the root rank's samples.
fn try_root_samples(
    cluster: &ClusterModel,
    p: usize,
    seed: u64,
    policy: &RetryPolicy,
    program: impl Fn(&mut Ctx) -> Vec<f64> + Send + Sync + 'static,
) -> Result<Vec<f64>, SimError> {
    policy.validate();
    let program = Arc::new(program);
    let mut last_timeout: Option<SimError> = None;
    for attempt in 0..policy.max_attempts {
        let opts = policy.options_for(attempt);
        let prog = Arc::clone(&program);
        match collsel_mpi::simulate_pooled(
            cluster,
            p,
            mix_attempt(seed, attempt),
            opts,
            move |ctx| prog(ctx),
        ) {
            Ok(out) => {
                // Invariant: the root always returns a value once the
                // simulation completes.
                return Ok(out.results.into_iter().nth(ROOT).expect("root result"));
            }
            Err(e @ SimError::Timeout { .. }) => last_timeout = Some(e),
            Err(e) => return Err(e),
        }
    }
    // Invariant: max_attempts >= 1, so at least one timeout was seen.
    Err(last_timeout.expect("at least one attempt ran"))
}

/// Root rank used by all measurement experiments.
pub const ROOT: usize = 0;

/// Derives the root's timing samples from a replay's clock
/// observations: consecutive `wtime` pairs, each divided by `per` —
/// exactly the float arithmetic the threaded closures apply to the same
/// virtual clock values (division by `1.0` is exact).
pub(crate) fn paired_samples(run: &ScheduledRun, per: f64) -> Vec<f64> {
    run.wtimes[ROOT]
        .chunks_exact(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() / per)
        .collect()
}

/// Replays `sched` once per adaptive batch and feeds the root's samples
/// to the stopping rule. Infallible tier: no watchdog is armed, and a
/// recorded measurement program cannot deadlock.
fn events_stats(
    cluster: &ClusterModel,
    sched: &Schedule,
    precision: &Precision,
    seed: u64,
    per: f64,
) -> SampleStats {
    sample_adaptive(precision, |batch| {
        let run = simulate_scheduled(
            cluster,
            sched,
            seed.wrapping_add(batch as u64),
            SimOptions::default(),
        )
        .expect("measurement program cannot deadlock");
        paired_samples(&run, per)
    })
}

/// Fallible twin of [`events_stats`]: replays run under `policy`'s
/// virtual-time watchdog with the same retry, backoff and
/// seed-perturbation discipline as [`try_root_samples`].
fn try_events_stats(
    cluster: &ClusterModel,
    sched: &Schedule,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    per: f64,
) -> Result<SampleStats, SimError> {
    policy.validate();
    sample_adaptive_fallible(precision, |batch| {
        let batch_seed = seed.wrapping_add(batch as u64);
        let mut last_timeout: Option<SimError> = None;
        for attempt in 0..policy.max_attempts {
            match simulate_scheduled(
                cluster,
                sched,
                mix_attempt(batch_seed, attempt),
                policy.options_for(attempt),
            ) {
                Ok(run) => return Ok(paired_samples(&run, per)),
                Err(e @ SimError::Timeout { .. }) => last_timeout = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_timeout.expect("at least one attempt ran"))
    })
}

/// Evaluates a memoised cell DAG once per adaptive batch and feeds the
/// root's samples to the stopping rule. One [`DagEvaluator`] serves
/// the whole call, so every batch after the first runs allocation-free
/// against a reset-in-place fabric. Infallible tier: no watchdog is
/// armed, and a recorded measurement program cannot deadlock.
fn dag_stats(
    cluster: &ClusterModel,
    dag: &Arc<TimingDag>,
    precision: &Precision,
    seed: u64,
    per: f64,
) -> SampleStats {
    let mut ev = DagEvaluator::new(cluster, Arc::clone(dag));
    sample_adaptive(precision, |batch| {
        let run = ev
            .run(seed.wrapping_add(batch as u64), SimOptions::default())
            .expect("measurement program cannot deadlock");
        paired_samples(&run, per)
    })
}

/// Fallible twin of [`dag_stats`]: evaluations run under `policy`'s
/// virtual-time watchdog with the same retry, backoff and
/// seed-perturbation discipline as [`try_root_samples`].
fn try_dag_stats(
    cluster: &ClusterModel,
    dag: &Arc<TimingDag>,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    per: f64,
) -> Result<SampleStats, SimError> {
    policy.validate();
    let mut ev = DagEvaluator::new(cluster, Arc::clone(dag));
    sample_adaptive_fallible(precision, |batch| {
        let batch_seed = seed.wrapping_add(batch as u64);
        let mut last_timeout: Option<SimError> = None;
        for attempt in 0..policy.max_attempts {
            match ev.run(
                mix_attempt(batch_seed, attempt),
                policy.options_for(attempt),
            ) {
                Ok(run) => return Ok(paired_samples(&run, per)),
                Err(e @ SimError::Timeout { .. }) => last_timeout = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_timeout.expect("at least one attempt ran"))
    })
}

/// The shared backend dispatch of every `*_time_with` measurement: on
/// [`Backend::Dag`], the cell's compiled timing DAG (recorded
/// symbolically with `precision.min_reps` repetitions per batch,
/// memoised process-wide under `program`) is evaluated per batch; on [`Backend::Events`], `compile` records the measurement
/// program once per call and the replays feed the adaptive stopping
/// rule; on [`Backend::Threads`] — or on a recording failure,
/// impossible for these wildcard-free programs but the contract is
/// open — `threads` runs the original closure through the
/// thread-per-rank oracle. All three paths are bit-identical.
fn stats_with_backend(
    cluster: &ClusterModel,
    backend: Backend,
    precision: &Precision,
    seed: u64,
    per: f64,
    program: CellProgram,
    compile: impl FnOnce(&ClusterModel, usize) -> Result<Schedule, RecordError>,
    threads: impl FnOnce() -> SampleStats,
) -> SampleStats {
    match backend {
        Backend::Dag => {
            match compiled_dag(cluster, program, precision.min_reps, compile) {
                Some(DagCell::Compiled(dag)) => {
                    return dag_stats(cluster, &dag, precision, seed, per);
                }
                // Too many ops for the DAG index space: replay the
                // already-recorded schedule through the events tier.
                Some(DagCell::TooLarge(sched)) => {
                    return events_stats(cluster, &sched, precision, seed, per);
                }
                None => {}
            }
        }
        Backend::Events => {
            if let Ok(sched) = compile(cluster, precision.min_reps) {
                return events_stats(cluster, &sched, precision, seed, per);
            }
        }
        Backend::Threads => {}
    }
    threads()
}

/// Fallible twin of [`stats_with_backend`] for the `try_*_with` tier:
/// DAG evaluations and event replays run under `policy`'s
/// watchdog-and-retry discipline ([`try_dag_stats`],
/// [`try_events_stats`]).
#[allow(clippy::too_many_arguments)]
fn try_stats_with_backend(
    cluster: &ClusterModel,
    backend: Backend,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    per: f64,
    program: CellProgram,
    compile: impl FnOnce(&ClusterModel, usize) -> Result<Schedule, RecordError>,
    threads: impl FnOnce() -> Result<SampleStats, SimError>,
) -> Result<SampleStats, SimError> {
    match backend {
        Backend::Dag => match compiled_dag(cluster, program, precision.min_reps, compile) {
            Some(DagCell::Compiled(dag)) => {
                return try_dag_stats(cluster, &dag, precision, seed, policy, per);
            }
            Some(DagCell::TooLarge(sched)) => {
                return try_events_stats(cluster, &sched, precision, seed, policy, per);
            }
            None => {}
        },
        Backend::Events => {
            if let Ok(sched) = compile(cluster, precision.min_reps) {
                return try_events_stats(cluster, &sched, precision, seed, policy, per);
            }
        }
        Backend::Threads => {}
    }
    threads()
}

/// Records the round-trip program of [`p2p_time`]: `reps` repetitions
/// of `barrier; wtime; ping-pong; wtime` between ranks 0 and 1. Public
/// so the recorder's oracle test reaches it like the other timed
/// programs.
///
/// # Errors
///
/// [`RecordError`] if recording fails (it cannot: the program uses no
/// wildcards and its receives are all matched).
pub fn compile_timed_p2p(
    cluster: &ClusterModel,
    m: usize,
    reps: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, 2, move |rc| {
        rc.barrier();
        let _ = rc.wtime();
        if rc.rank() == 0 {
            rc.send(1, 0, Bytes::symbolic(m));
            let _ = rc.recv(1, 1);
        } else {
            let (data, _) = rc.recv(0, 0);
            rc.send(0, 1, data);
        }
        let _ = rc.wtime();
    })
    .map(|one| one.repeated(reps))
}

/// Runs `reps` timed repetitions of `body` inside one simulation and
/// returns the root's per-repetition times in seconds.
///
/// Each repetition is `barrier; t0; body; barrier; t1` measured on the
/// root, so the sample covers the completion of the slowest rank.
///
/// The `expect`s below are documented invariants, not error handling:
/// barrier-synchronised collective programs cannot deadlock on a
/// causally consistent fabric with no watchdog armed, and a completed
/// simulation always yields the root's result. Measurement paths that
/// CAN fail (watchdog deadlines, fault plans) go through
/// [`try_root_samples`] instead and propagate typed errors.
pub(crate) fn timed_reps(
    cluster: &ClusterModel,
    p: usize,
    seed: u64,
    reps: usize,
    body: impl Fn(&mut collsel_mpi::Ctx) + Send + Sync + 'static,
) -> Vec<f64> {
    let out = collsel_mpi::simulate_pooled(cluster, p, seed, SimOptions::default(), move |ctx| {
        let mut ts = Vec::with_capacity(reps);
        for _ in 0..reps {
            ctx.barrier();
            let t0 = ctx.wtime();
            body(ctx);
            ctx.barrier();
            let t1 = ctx.wtime();
            if ctx.rank() == ROOT {
                ts.push((t1 - t0).as_secs_f64());
            }
        }
        ts
    })
    .expect("measurement program cannot deadlock");
    out.results.into_iter().nth(ROOT).expect("root result")
}

/// Measures the execution time of one broadcast configuration until the
/// paper's precision target is met, on the default [`Backend`].
///
/// # Panics
///
/// Panics if `p` exceeds the cluster's slots or `seg_size` is zero for
/// a segmented algorithm.
pub fn bcast_time(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    bcast_time_with(
        cluster,
        alg,
        p,
        m,
        seg_size,
        precision,
        seed,
        Backend::default(),
    )
}

/// [`bcast_time`] on an explicit execution [`Backend`]; both backends
/// return bit-identical statistics.
///
/// # Panics
///
/// Same as [`bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn bcast_time_with(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    backend: Backend,
) -> SampleStats {
    stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        1.0,
        CellProgram::Bcast {
            alg,
            p,
            m,
            seg_size,
        },
        |rec, reps| compile_timed_bcast(rec, alg, p, ROOT, m, seg_size, reps),
        || bcast_time_threads(cluster, alg, p, m, seg_size, precision, seed),
    )
}

/// The threaded-oracle body of [`bcast_time`].
fn bcast_time_threads(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    let msg = payload(m);
    let reps = precision.min_reps;
    sample_adaptive(precision, |batch| {
        let msg = msg.clone();
        timed_reps(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            reps,
            move |ctx| {
                let data = (ctx.rank() == ROOT).then(|| msg.clone());
                let _ = bcast(ctx, alg, ROOT, data, m, seg_size);
            },
        )
    })
}

/// Measures the execution time of one collective configuration —
/// any algorithm of any of the seven collectives — until the paper's
/// precision target is met, on the default [`Backend`].
///
/// `m` follows [`run_collective`]'s payload convention: the total
/// vector for rooted one-to-all/all-to-one collectives and allreduce,
/// the per-rank block for gather/scatter/allgather/alltoall. Each
/// repetition is `barrier; t0; collective; barrier; t1` on the root, so
/// the sample covers the slowest rank's completion.
///
/// # Panics
///
/// Panics if `p` exceeds the cluster's slots.
pub fn collective_time(
    cluster: &ClusterModel,
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    collective_time_with(
        cluster,
        alg,
        p,
        m,
        seg_size,
        precision,
        seed,
        Backend::default(),
    )
}

/// [`collective_time`] on an explicit execution [`Backend`]; both
/// backends return bit-identical statistics
/// (`tests/collective_breadth.rs`).
///
/// # Panics
///
/// Same as [`collective_time`].
#[allow(clippy::too_many_arguments)]
pub fn collective_time_with(
    cluster: &ClusterModel,
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    backend: Backend,
) -> SampleStats {
    stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        1.0,
        CellProgram::Collective {
            alg,
            p,
            m,
            seg_size,
        },
        |rec, reps| compile_timed_collective(rec, alg, p, ROOT, m, seg_size, reps),
        || collective_time_threads(cluster, alg, p, m, seg_size, precision, seed),
    )
}

/// The threaded-oracle body of [`collective_time`].
fn collective_time_threads(
    cluster: &ClusterModel,
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    let reps = precision.min_reps;
    sample_adaptive(precision, |batch| {
        timed_reps(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            reps,
            move |ctx| run_collective(ctx, alg, ROOT, m, seg_size),
        )
    })
}

/// Fallible twin of [`collective_time`] for clusters that may stall
/// under an injected fault plan; see [`try_bcast_time`] for the retry
/// discipline.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn try_collective_time(
    cluster: &ClusterModel,
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    try_collective_time_with(
        cluster,
        alg,
        p,
        m,
        seg_size,
        precision,
        seed,
        policy,
        Backend::default(),
    )
}

/// [`try_collective_time`] on an explicit execution [`Backend`]; both
/// backends return bit-identical results, including error variants.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn try_collective_time_with(
    cluster: &ClusterModel,
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    backend: Backend,
) -> Result<SampleStats, SimError> {
    try_stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        policy,
        1.0,
        CellProgram::Collective {
            alg,
            p,
            m,
            seg_size,
        },
        |rec, reps| compile_timed_collective(rec, alg, p, ROOT, m, seg_size, reps),
        || try_collective_time_threads(cluster, alg, p, m, seg_size, precision, seed, policy),
    )
}

/// The threaded-oracle body of [`try_collective_time`].
#[allow(clippy::too_many_arguments)]
fn try_collective_time_threads(
    cluster: &ClusterModel,
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    let reps = precision.min_reps;
    sample_adaptive_fallible(precision, |batch| {
        try_root_samples(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            policy,
            move |ctx| {
                let mut ts = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.barrier();
                    let t0 = ctx.wtime();
                    run_collective(ctx, alg, ROOT, m, seg_size);
                    ctx.barrier();
                    let t1 = ctx.wtime();
                    if ctx.rank() == ROOT {
                        ts.push((t1 - t0).as_secs_f64());
                    }
                }
                ts
            },
        )
    })
}

/// Measures the paper's Sect. 4.2 communication experiment: the
/// modelled broadcast of `m` bytes followed by a linear gather of
/// `m_g`-byte contributions, timed on the root (the experiment starts
/// and finishes there, so no closing barrier is needed). Runs on the
/// default [`Backend`].
#[allow(clippy::too_many_arguments)]
pub fn bcast_gather_experiment_time(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    bcast_gather_experiment_time_with(
        cluster,
        alg,
        p,
        m,
        m_g,
        seg_size,
        precision,
        seed,
        Backend::default(),
    )
}

/// [`bcast_gather_experiment_time`] on an explicit execution
/// [`Backend`]; both backends return bit-identical statistics.
#[allow(clippy::too_many_arguments)]
pub fn bcast_gather_experiment_time_with(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    backend: Backend,
) -> SampleStats {
    stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        1.0,
        CellProgram::BcastGather {
            alg,
            p,
            m,
            m_g,
            seg_size,
        },
        |rec, reps| compile_timed_bcast_gather(rec, alg, p, ROOT, m, m_g, seg_size, reps),
        || bcast_gather_experiment_time_threads(cluster, alg, p, m, m_g, seg_size, precision, seed),
    )
}

/// The threaded-oracle body of [`bcast_gather_experiment_time`].
#[allow(clippy::too_many_arguments)]
fn bcast_gather_experiment_time_threads(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    let msg = payload(m);
    let contrib = payload(m_g);
    let reps = precision.min_reps;
    sample_adaptive(precision, |batch| {
        let msg = msg.clone();
        let contrib = contrib.clone();
        let out = collsel_mpi::simulate_pooled(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            SimOptions::default(),
            move |ctx| {
                let mut ts = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.barrier();
                    let t0 = ctx.wtime();
                    let data = (ctx.rank() == ROOT).then(|| msg.clone());
                    let _ = bcast(ctx, alg, ROOT, data, m, seg_size);
                    let _ = gather_linear(ctx, ROOT, contrib.clone());
                    let t1 = ctx.wtime();
                    if ctx.rank() == ROOT {
                        ts.push((t1 - t0).as_secs_f64());
                    }
                }
                ts
            },
        )
        .expect("measurement program cannot deadlock");
        out.results.into_iter().nth(ROOT).expect("root result")
    })
}

/// Measures the Sect. 4.1 experiment: `calls` successive non-blocking
/// linear-tree broadcasts of one `seg_size`-byte segment, separated by
/// barriers, measured on the root; the sample is the total divided by
/// `calls` (the paper's `T2(P) = T1(P, N) / N`). Runs on the default
/// [`Backend`].
pub fn linear_segment_bcast_time(
    cluster: &ClusterModel,
    p: usize,
    seg_size: usize,
    calls: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    linear_segment_bcast_time_with(
        cluster,
        p,
        seg_size,
        calls,
        precision,
        seed,
        Backend::default(),
    )
}

/// [`linear_segment_bcast_time`] on an explicit execution [`Backend`];
/// both backends return bit-identical statistics.
pub fn linear_segment_bcast_time_with(
    cluster: &ClusterModel,
    p: usize,
    seg_size: usize,
    calls: usize,
    precision: &Precision,
    seed: u64,
    backend: Backend,
) -> SampleStats {
    assert!(calls > 0, "need at least one call per sample");
    stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        calls as f64,
        CellProgram::LinearSegment { p, seg_size, calls },
        |rec, _reps| compile_timed_linear_segment(rec, p, ROOT, seg_size, calls),
        || linear_segment_bcast_time_threads(cluster, p, seg_size, calls, precision, seed),
    )
}

/// The threaded-oracle body of [`linear_segment_bcast_time`].
fn linear_segment_bcast_time_threads(
    cluster: &ClusterModel,
    p: usize,
    seg_size: usize,
    calls: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    assert!(calls > 0, "need at least one call per sample");
    let msg = payload(seg_size);
    sample_adaptive(precision, |batch| {
        let msg = msg.clone();
        let out = collsel_mpi::simulate_pooled(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            SimOptions::default(),
            move |ctx| {
                ctx.barrier();
                let t0 = ctx.wtime();
                for _ in 0..calls {
                    let data = (ctx.rank() == ROOT).then(|| msg.clone());
                    let _ = collsel_coll::bcast_linear(ctx, ROOT, data, msg.len());
                    ctx.barrier();
                }
                let t1 = ctx.wtime();
                (t1 - t0).as_secs_f64() / calls as f64
            },
        )
        .expect("measurement program cannot deadlock");
        vec![out.results[ROOT]]
    })
}

/// Measures the one-way point-to-point time for `m` bytes via a
/// round-trip between ranks 0 and 1 (the Hockney measurement used by
/// the *traditional* models). Runs on the default [`Backend`].
pub fn p2p_time(cluster: &ClusterModel, m: usize, precision: &Precision, seed: u64) -> SampleStats {
    p2p_time_with(cluster, m, precision, seed, Backend::default())
}

/// [`p2p_time`] on an explicit execution [`Backend`]; both backends
/// return bit-identical statistics.
pub fn p2p_time_with(
    cluster: &ClusterModel,
    m: usize,
    precision: &Precision,
    seed: u64,
    backend: Backend,
) -> SampleStats {
    stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        2.0,
        CellProgram::P2p { m },
        |rec, reps| compile_timed_p2p(rec, m, reps),
        || p2p_time_threads(cluster, m, precision, seed),
    )
}

/// The threaded-oracle body of [`p2p_time`].
fn p2p_time_threads(
    cluster: &ClusterModel,
    m: usize,
    precision: &Precision,
    seed: u64,
) -> SampleStats {
    let msg = payload(m);
    let reps = precision.min_reps;
    sample_adaptive(precision, |batch| {
        let msg = msg.clone();
        let out = collsel_mpi::simulate_pooled(
            cluster,
            2,
            seed.wrapping_add(batch as u64),
            SimOptions::default(),
            move |ctx| {
                let mut ts = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.barrier();
                    let t0 = ctx.wtime();
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, msg.clone());
                        let _ = ctx.recv(1, 1);
                    } else {
                        let (data, _) = ctx.recv(0, 0);
                        ctx.send(0, 1, data);
                    }
                    let t1 = ctx.wtime();
                    if ctx.rank() == 0 {
                        ts.push((t1 - t0).as_secs_f64() / 2.0);
                    }
                }
                ts
            },
        )
        .expect("measurement program cannot deadlock");
        out.results.into_iter().next().expect("rank 0 result")
    })
}

/// Fallible twin of [`bcast_time`] for clusters that may stall under an
/// injected fault plan: batches run under `policy`'s virtual-time
/// watchdog and non-convergence becomes a typed error.
///
/// With [`RetryPolicy::no_deadline`] on a fault-free cluster and a
/// converging sample, the result is bit-identical to [`bcast_time`].
///
/// # Errors
///
/// [`SimError::Timeout`] when every retry exhausts its budget;
/// [`SimError::PrecisionNotReached`] when the sample budget runs out
/// before the precision target (even after the MAD-outlier rescue);
/// any other [`SimError`] from the simulation, unretried.
#[allow(clippy::too_many_arguments)]
pub fn try_bcast_time(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    try_bcast_time_with(
        cluster,
        alg,
        p,
        m,
        seg_size,
        precision,
        seed,
        policy,
        Backend::default(),
    )
}

/// [`try_bcast_time`] on an explicit execution [`Backend`]; both
/// backends return bit-identical results, including error variants.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn try_bcast_time_with(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    backend: Backend,
) -> Result<SampleStats, SimError> {
    try_stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        policy,
        1.0,
        CellProgram::Bcast {
            alg,
            p,
            m,
            seg_size,
        },
        |rec, reps| compile_timed_bcast(rec, alg, p, ROOT, m, seg_size, reps),
        || try_bcast_time_threads(cluster, alg, p, m, seg_size, precision, seed, policy),
    )
}

/// The threaded-oracle body of [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
fn try_bcast_time_threads(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    let msg = payload(m);
    let reps = precision.min_reps;
    sample_adaptive_fallible(precision, |batch| {
        let msg = msg.clone();
        try_root_samples(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            policy,
            move |ctx| {
                let mut ts = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.barrier();
                    let t0 = ctx.wtime();
                    let data = (ctx.rank() == ROOT).then(|| msg.clone());
                    let _ = bcast(ctx, alg, ROOT, data, m, seg_size);
                    ctx.barrier();
                    let t1 = ctx.wtime();
                    if ctx.rank() == ROOT {
                        ts.push((t1 - t0).as_secs_f64());
                    }
                }
                ts
            },
        )
    })
}

/// Fallible twin of [`bcast_gather_experiment_time`]; see
/// [`try_bcast_time`] for the error contract.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn try_bcast_gather_experiment_time(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    try_bcast_gather_experiment_time_with(
        cluster,
        alg,
        p,
        m,
        m_g,
        seg_size,
        precision,
        seed,
        policy,
        Backend::default(),
    )
}

/// [`try_bcast_gather_experiment_time`] on an explicit execution
/// [`Backend`]; both backends return bit-identical results, including
/// error variants.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn try_bcast_gather_experiment_time_with(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    backend: Backend,
) -> Result<SampleStats, SimError> {
    try_stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        policy,
        1.0,
        CellProgram::BcastGather {
            alg,
            p,
            m,
            m_g,
            seg_size,
        },
        |rec, reps| compile_timed_bcast_gather(rec, alg, p, ROOT, m, m_g, seg_size, reps),
        || {
            try_bcast_gather_experiment_time_threads(
                cluster, alg, p, m, m_g, seg_size, precision, seed, policy,
            )
        },
    )
}

/// The threaded-oracle body of [`try_bcast_gather_experiment_time`].
#[allow(clippy::too_many_arguments)]
fn try_bcast_gather_experiment_time_threads(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    let msg = payload(m);
    let contrib = payload(m_g);
    let reps = precision.min_reps;
    sample_adaptive_fallible(precision, |batch| {
        let msg = msg.clone();
        let contrib = contrib.clone();
        try_root_samples(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            policy,
            move |ctx| {
                let mut ts = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.barrier();
                    let t0 = ctx.wtime();
                    let data = (ctx.rank() == ROOT).then(|| msg.clone());
                    let _ = bcast(ctx, alg, ROOT, data, m, seg_size);
                    let _ = gather_linear(ctx, ROOT, contrib.clone());
                    let t1 = ctx.wtime();
                    if ctx.rank() == ROOT {
                        ts.push((t1 - t0).as_secs_f64());
                    }
                }
                ts
            },
        )
    })
}

/// Fallible twin of [`linear_segment_bcast_time`]; see
/// [`try_bcast_time`] for the error contract.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
pub fn try_linear_segment_bcast_time(
    cluster: &ClusterModel,
    p: usize,
    seg_size: usize,
    calls: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    try_linear_segment_bcast_time_with(
        cluster,
        p,
        seg_size,
        calls,
        precision,
        seed,
        policy,
        Backend::default(),
    )
}

/// [`try_linear_segment_bcast_time`] on an explicit execution
/// [`Backend`]; both backends return bit-identical results, including
/// error variants.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
#[allow(clippy::too_many_arguments)]
pub fn try_linear_segment_bcast_time_with(
    cluster: &ClusterModel,
    p: usize,
    seg_size: usize,
    calls: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    backend: Backend,
) -> Result<SampleStats, SimError> {
    assert!(calls > 0, "need at least one call per sample");
    try_stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        policy,
        calls as f64,
        CellProgram::LinearSegment { p, seg_size, calls },
        |rec, _reps| compile_timed_linear_segment(rec, p, ROOT, seg_size, calls),
        || {
            try_linear_segment_bcast_time_threads(
                cluster, p, seg_size, calls, precision, seed, policy,
            )
        },
    )
}

/// The threaded-oracle body of [`try_linear_segment_bcast_time`].
#[allow(clippy::too_many_arguments)]
fn try_linear_segment_bcast_time_threads(
    cluster: &ClusterModel,
    p: usize,
    seg_size: usize,
    calls: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    assert!(calls > 0, "need at least one call per sample");
    let msg = payload(seg_size);
    sample_adaptive_fallible(precision, |batch| {
        let msg = msg.clone();
        try_root_samples(
            cluster,
            p,
            seed.wrapping_add(batch as u64),
            policy,
            move |ctx| {
                ctx.barrier();
                let t0 = ctx.wtime();
                for _ in 0..calls {
                    let data = (ctx.rank() == ROOT).then(|| msg.clone());
                    let _ = collsel_coll::bcast_linear(ctx, ROOT, data, msg.len());
                    ctx.barrier();
                }
                let t1 = ctx.wtime();
                vec![(t1 - t0).as_secs_f64() / calls as f64]
            },
        )
    })
}

/// Fallible twin of [`p2p_time`]; see [`try_bcast_time`] for the error
/// contract.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
pub fn try_p2p_time(
    cluster: &ClusterModel,
    m: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    try_p2p_time_with(cluster, m, precision, seed, policy, Backend::default())
}

/// [`try_p2p_time`] on an explicit execution [`Backend`]; both backends
/// return bit-identical results, including error variants.
///
/// # Errors
///
/// Same contract as [`try_bcast_time`].
pub fn try_p2p_time_with(
    cluster: &ClusterModel,
    m: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
    backend: Backend,
) -> Result<SampleStats, SimError> {
    try_stats_with_backend(
        cluster,
        backend,
        precision,
        seed,
        policy,
        2.0,
        CellProgram::P2p { m },
        |rec, reps| compile_timed_p2p(rec, m, reps),
        || try_p2p_time_threads(cluster, m, precision, seed, policy),
    )
}

/// The threaded-oracle body of [`try_p2p_time`].
fn try_p2p_time_threads(
    cluster: &ClusterModel,
    m: usize,
    precision: &Precision,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<SampleStats, SimError> {
    let msg = payload(m);
    let reps = precision.min_reps;
    sample_adaptive_fallible(precision, |batch| {
        let msg = msg.clone();
        try_root_samples(
            cluster,
            2,
            seed.wrapping_add(batch as u64),
            policy,
            move |ctx| {
                let mut ts = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.barrier();
                    let t0 = ctx.wtime();
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, msg.clone());
                        let _ = ctx.recv(1, 1);
                    } else {
                        let (data, _) = ctx.recv(0, 0);
                        ctx.send(0, 1, data);
                    }
                    let t1 = ctx.wtime();
                    if ctx.rank() == 0 {
                        ts.push((t1 - t0).as_secs_f64() / 2.0);
                    }
                }
                ts
            },
        )
    })
}

/// Specification of one independent [`bcast_time`] measurement inside a
/// batch: the full (algorithm, P, m, segment, seed) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcastSpec {
    /// Broadcast algorithm under measurement.
    pub alg: BcastAlg,
    /// Number of ranks.
    pub p: usize,
    /// Message size in bytes.
    pub m: usize,
    /// Segment size for segmented algorithms.
    pub seg_size: usize,
    /// Base seed of this cell's noise stream.
    pub seed: u64,
}

/// Specification of one independent [`collective_time`] measurement
/// inside a batch: the full (algorithm, P, m, segment, seed) cell —
/// the algorithm tag carries its collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSpec {
    /// Algorithm under measurement (tagged with its collective).
    pub alg: Alg,
    /// Number of ranks.
    pub p: usize,
    /// Payload size in bytes ([`run_collective`]'s convention).
    pub m: usize,
    /// Segment size for segmented algorithms.
    pub seg_size: usize,
    /// Base seed of this cell's noise stream.
    pub seed: u64,
}

/// Specification of one independent
/// [`bcast_gather_experiment_time`] measurement inside a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Broadcast algorithm under measurement.
    pub alg: BcastAlg,
    /// Number of ranks.
    pub p: usize,
    /// Broadcast message size in bytes.
    pub m: usize,
    /// Per-rank gather contribution size in bytes.
    pub m_g: usize,
    /// Segment size for segmented algorithms.
    pub seg_size: usize,
    /// Base seed of this cell's noise stream.
    pub seed: u64,
}

/// Measures a batch of independent broadcast cells across `pool`,
/// returning the statistics in spec order.
///
/// Each cell is a complete adaptive measurement (the MPIBlib stopping
/// rule is inherently sequential *within* a cell); the pool fans the
/// *cells* out. Because every cell carries its own seed, the result is
/// bit-identical to calling [`bcast_time`] per spec in order — at any
/// thread count.
pub fn bcast_time_batch(
    cluster: &ClusterModel,
    specs: &[BcastSpec],
    precision: &Precision,
    pool: Pool,
) -> Vec<SampleStats> {
    bcast_time_batch_with(cluster, specs, precision, pool, Backend::default())
}

/// [`bcast_time_batch`] on an explicit execution [`Backend`]; every
/// cell runs on `backend` and the statistics are bit-identical across
/// backends and thread counts.
pub fn bcast_time_batch_with(
    cluster: &ClusterModel,
    specs: &[BcastSpec],
    precision: &Precision,
    pool: Pool,
    backend: Backend,
) -> Vec<SampleStats> {
    pool.run(specs.iter().map(|spec| {
        let spec = *spec;
        move || {
            bcast_time_with(
                cluster,
                spec.alg,
                spec.p,
                spec.m,
                spec.seg_size,
                precision,
                spec.seed,
                backend,
            )
        }
    }))
}

/// Measures a batch of independent collective cells across `pool`,
/// returning the statistics in spec order; bit-identical to calling
/// [`collective_time`] per spec in order at any thread count (see
/// [`bcast_time_batch`]).
pub fn collective_time_batch(
    cluster: &ClusterModel,
    specs: &[CollectiveSpec],
    precision: &Precision,
    pool: Pool,
) -> Vec<SampleStats> {
    collective_time_batch_with(cluster, specs, precision, pool, Backend::default())
}

/// [`collective_time_batch`] on an explicit execution [`Backend`]; see
/// [`bcast_time_batch_with`].
pub fn collective_time_batch_with(
    cluster: &ClusterModel,
    specs: &[CollectiveSpec],
    precision: &Precision,
    pool: Pool,
    backend: Backend,
) -> Vec<SampleStats> {
    pool.run(specs.iter().map(|spec| {
        let spec = *spec;
        move || {
            collective_time_with(
                cluster,
                spec.alg,
                spec.p,
                spec.m,
                spec.seg_size,
                precision,
                spec.seed,
                backend,
            )
        }
    }))
}

/// Measures a batch of independent Sect. 4.2 bcast+gather experiment
/// cells across `pool`, returning the statistics in spec order;
/// bit-identical to serial [`bcast_gather_experiment_time`] calls (see
/// [`bcast_time_batch`]).
pub fn bcast_gather_experiment_time_batch(
    cluster: &ClusterModel,
    specs: &[ExperimentSpec],
    precision: &Precision,
    pool: Pool,
) -> Vec<SampleStats> {
    bcast_gather_experiment_time_batch_with(cluster, specs, precision, pool, Backend::default())
}

/// [`bcast_gather_experiment_time_batch`] on an explicit execution
/// [`Backend`]; see [`bcast_time_batch_with`].
pub fn bcast_gather_experiment_time_batch_with(
    cluster: &ClusterModel,
    specs: &[ExperimentSpec],
    precision: &Precision,
    pool: Pool,
    backend: Backend,
) -> Vec<SampleStats> {
    pool.run(specs.iter().map(|spec| {
        let spec = *spec;
        move || {
            bcast_gather_experiment_time_with(
                cluster,
                spec.alg,
                spec.p,
                spec.m,
                spec.m_g,
                spec.seg_size,
                precision,
                spec.seed,
                backend,
            )
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    fn quiet_gros() -> ClusterModel {
        ClusterModel::gros().with_noise(NoiseParams::OFF)
    }

    #[test]
    fn bcast_time_is_positive_and_converges_without_noise() {
        let s = bcast_time(
            &quiet_gros(),
            BcastAlg::Binomial,
            8,
            64 * 1024,
            8 * 1024,
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
        let small = bcast_time(&c, BcastAlg::Chain, 8, 16 * 1024, 8 * 1024, &p, 1);
        let large = bcast_time(&c, BcastAlg::Chain, 8, 256 * 1024, 8 * 1024, &p, 1);
        assert!(large.mean > small.mean);
    }

    #[test]
    fn experiment_time_exceeds_bare_bcast() {
        let c = quiet_gros();
        let p = Precision::quick();
        let bare = bcast_time(&c, BcastAlg::Binomial, 8, 64 * 1024, 8 * 1024, &p, 1);
        let with_gather = bcast_gather_experiment_time(
            &c,
            BcastAlg::Binomial,
            8,
            64 * 1024,
            1024,
            8 * 1024,
            &p,
            1,
        );
        assert!(with_gather.mean > bare.mean * 0.9);
    }

    #[test]
    fn linear_segment_time_grows_with_children() {
        let c = quiet_gros();
        let p = Precision::quick();
        let t2 = linear_segment_bcast_time(&c, 2, 8 * 1024, 5, &p, 1);
        let t5 = linear_segment_bcast_time(&c, 5, 8 * 1024, 5, &p, 1);
        let t7 = linear_segment_bcast_time(&c, 7, 8 * 1024, 5, &p, 1);
        assert!(t5.mean > t2.mean);
        assert!(t7.mean > t5.mean);
        // And the ratio stays well below P-1 (non-blocking overlap).
        assert!(t7.mean / t2.mean < 4.0);
    }

    #[test]
    fn p2p_time_scales_affinely() {
        let c = quiet_gros();
        let p = Precision::quick();
        let t1 = p2p_time(&c, 1_000, &p, 1).mean;
        let t2 = p2p_time(&c, 2_000_000, &p, 1).mean;
        assert!(t2 > t1);
        // Rendezvous messages pay extra latency, still far below 2000x.
        assert!(t2 / t1 < 100.0);
    }

    #[test]
    fn try_bcast_time_matches_infallible_without_deadline() {
        let c = quiet_gros();
        let p = Precision::quick();
        let infallible = bcast_time(&c, BcastAlg::Binomial, 8, 64 * 1024, 8 * 1024, &p, 1);
        let fallible = try_bcast_time(
            &c,
            BcastAlg::Binomial,
            8,
            64 * 1024,
            8 * 1024,
            &p,
            1,
            &RetryPolicy::no_deadline(),
        )
        .expect("fault-free run converges");
        assert_eq!(infallible, fallible, "try tier must be bit-identical");
    }

    #[test]
    fn tiny_deadline_times_out_after_retries() {
        let c = quiet_gros();
        let policy = RetryPolicy {
            max_attempts: 2,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let err = try_bcast_time(
            &c,
            BcastAlg::Binomial,
            8,
            64 * 1024,
            8 * 1024,
            &Precision::quick(),
            1,
            &policy,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "{err}");
    }

    #[test]
    fn backoff_grows_the_budget_until_success() {
        // 1 µs is hopeless for this run; two ×1_000_000 backoffs later
        // the budget reaches 10^6 s of virtual time and the run fits.
        let c = quiet_gros();
        let policy = RetryPolicy {
            max_attempts: 3,
            budget: Some(SimSpan::from_micros(1)),
            backoff: 1_000_000,
        };
        let s = try_bcast_time(
            &c,
            BcastAlg::Binomial,
            8,
            64 * 1024,
            8 * 1024,
            &Precision::quick(),
            1,
            &policy,
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
        use collsel_netsim::FaultPlan;
        let quiet = quiet_gros();
        let slowed = quiet
            .clone()
            .with_faults(FaultPlan::none().with_straggler(3, 20.0));
        let p = Precision::quick();
        let base = bcast_time(&quiet, BcastAlg::Binomial, 8, 64 * 1024, 8 * 1024, &p, 1);
        let hurt = try_bcast_time(
            &slowed,
            BcastAlg::Binomial,
            8,
            64 * 1024,
            8 * 1024,
            &p,
            1,
            &RetryPolicy::default(),
        )
        .expect("straggler slows but does not stall");
        assert!(hurt.mean > base.mean, "{} vs {}", hurt.mean, base.mean);
    }

    #[test]
    fn batch_measurements_match_serial_at_any_thread_count() {
        let c = quiet_gros();
        let prec = Precision::quick();
        let cells = [
            (BcastAlg::Binomial, 16 * 1024),
            (BcastAlg::Chain, 64 * 1024),
            (BcastAlg::Binary, 32 * 1024),
        ];
        let specs: Vec<BcastSpec> = cells
            .iter()
            .enumerate()
            .map(|(i, &(alg, m))| BcastSpec {
                alg,
                p: 8,
                m,
                seg_size: 8 * 1024,
                seed: 1 + i as u64,
            })
            .collect();
        let serial: Vec<SampleStats> = specs
            .iter()
            .map(|s| bcast_time(&c, s.alg, s.p, s.m, s.seg_size, &prec, s.seed))
            .collect();
        for threads in [1, 4] {
            let batch = bcast_time_batch(&c, &specs, &prec, Pool::with_threads(threads));
            assert_eq!(serial, batch, "threads={threads}");
        }
    }

    #[test]
    fn backends_return_bit_identical_statistics() {
        // Noise ON: the clock values must match exactly, not just the
        // zero-variance deterministic case.
        let c = ClusterModel::grisou();
        let p = Precision::quick();
        let ev = Backend::Events;
        let th = Backend::Threads;
        assert_eq!(
            bcast_time_with(&c, BcastAlg::SplitBinary, 8, 64 * 1024, 8 * 1024, &p, 9, ev),
            bcast_time_with(&c, BcastAlg::SplitBinary, 8, 64 * 1024, 8 * 1024, &p, 9, th),
        );
        assert_eq!(
            bcast_gather_experiment_time_with(
                &c,
                BcastAlg::Binary,
                7,
                32 * 1024,
                2048,
                8 * 1024,
                &p,
                11,
                ev
            ),
            bcast_gather_experiment_time_with(
                &c,
                BcastAlg::Binary,
                7,
                32 * 1024,
                2048,
                8 * 1024,
                &p,
                11,
                th
            ),
        );
        assert_eq!(
            linear_segment_bcast_time_with(&c, 5, 8 * 1024, 4, &p, 13, ev),
            linear_segment_bcast_time_with(&c, 5, 8 * 1024, 4, &p, 13, th),
        );
        assert_eq!(
            p2p_time_with(&c, 100_000, &p, 17, ev),
            p2p_time_with(&c, 100_000, &p, 17, th),
        );
    }

    #[test]
    fn try_backends_agree_on_results_and_errors() {
        use collsel_netsim::FaultPlan;
        let slowed = quiet_gros()
            .clone()
            .with_faults(FaultPlan::none().with_straggler(2, 15.0));
        let p = Precision::quick();
        let policy = RetryPolicy::default();
        let ev = try_bcast_time_with(
            &slowed,
            BcastAlg::Binomial,
            6,
            32 * 1024,
            8 * 1024,
            &p,
            3,
            &policy,
            Backend::Events,
        );
        let th = try_bcast_time_with(
            &slowed,
            BcastAlg::Binomial,
            6,
            32 * 1024,
            8 * 1024,
            &p,
            3,
            &policy,
            Backend::Threads,
        );
        assert_eq!(ev.expect("straggler run fits"), th.expect("oracle fits"));

        // A hopeless budget must time out identically on both backends.
        let tiny = RetryPolicy {
            max_attempts: 2,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let ev = try_bcast_time_with(
            &quiet_gros(),
            BcastAlg::Binomial,
            6,
            32 * 1024,
            8 * 1024,
            &p,
            3,
            &tiny,
            Backend::Events,
        )
        .expect_err("1 ns cannot fit a run");
        let th = try_bcast_time_with(
            &quiet_gros(),
            BcastAlg::Binomial,
            6,
            32 * 1024,
            8 * 1024,
            &p,
            3,
            &tiny,
            Backend::Threads,
        )
        .expect_err("1 ns cannot fit a run");
        assert_eq!(ev, th, "timeout diagnostics must match");
    }

    #[test]
    fn collective_time_is_positive_for_every_family() {
        use collsel_coll::Collective;
        let c = quiet_gros();
        let p = Precision::quick();
        for coll in Collective::ALL {
            let alg = coll.algorithms()[0];
            let s = collective_time(&c, alg, 6, 16 * 1024, 8 * 1024, &p, 1);
            assert!(s.mean > 0.0, "{}", alg.qualified_name());
            assert!(s.converged, "{}", alg.qualified_name());
        }
    }

    #[test]
    fn collective_time_matches_bcast_time_for_bcast_algs() {
        // The universal dispatcher must measure broadcast exactly like
        // the original bcast-only path on both backends.
        let c = ClusterModel::grisou();
        let p = Precision::quick();
        for backend in [Backend::Events, Backend::Threads] {
            assert_eq!(
                collective_time_with(
                    &c,
                    Alg::Bcast(BcastAlg::Binomial),
                    8,
                    64 * 1024,
                    8 * 1024,
                    &p,
                    5,
                    backend
                ),
                bcast_time_with(
                    &c,
                    BcastAlg::Binomial,
                    8,
                    64 * 1024,
                    8 * 1024,
                    &p,
                    5,
                    backend
                ),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn try_collective_time_matches_infallible_without_deadline() {
        use collsel_coll::ReduceAlg;
        let c = quiet_gros();
        let p = Precision::quick();
        let alg = Alg::Reduce(ReduceAlg::Binomial);
        let infallible = collective_time(&c, alg, 8, 64 * 1024, 8 * 1024, &p, 1);
        let fallible = try_collective_time(
            &c,
            alg,
            8,
            64 * 1024,
            8 * 1024,
            &p,
            1,
            &RetryPolicy::no_deadline(),
        )
        .expect("fault-free run converges");
        assert_eq!(infallible, fallible);
    }

    #[test]
    fn collective_batch_matches_serial_at_any_thread_count() {
        use collsel_coll::{AllgatherAlg, AlltoallAlg, ReduceAlg};
        let c = quiet_gros();
        let prec = Precision::quick();
        let specs: Vec<CollectiveSpec> = [
            Alg::Reduce(ReduceAlg::Pipeline),
            Alg::Allgather(AllgatherAlg::Ring),
            Alg::Alltoall(AlltoallAlg::Pairwise),
        ]
        .iter()
        .enumerate()
        .map(|(i, &alg)| CollectiveSpec {
            alg,
            p: 6,
            m: 16 * 1024,
            seg_size: 8 * 1024,
            seed: 1 + i as u64,
        })
        .collect();
        let serial: Vec<SampleStats> = specs
            .iter()
            .map(|s| collective_time(&c, s.alg, s.p, s.m, s.seg_size, &prec, s.seed))
            .collect();
        for threads in [1, 4] {
            let batch = collective_time_batch(&c, &specs, &prec, Pool::with_threads(threads));
            assert_eq!(serial, batch, "threads={threads}");
        }
    }

    #[test]
    fn noisy_measurements_converge_with_adaptive_reps() {
        let c = ClusterModel::gros(); // noise on
        let s = bcast_time(
            &c,
            BcastAlg::Binary,
            6,
            32 * 1024,
            8 * 1024,
            &Precision::paper(),
            7,
        );
        assert!(s.converged, "{s:?}");
        assert!(s.n >= 5);
        assert!(s.normality(), "{s:?}");
    }
}
