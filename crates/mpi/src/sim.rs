//! Simulation entry point: spawn one scoped thread per rank, run the
//! engine on the calling thread, collect results.
//!
//! [`simulate_with`] is the one launcher ([`simulate`] and
//! [`simulate_traced`] fix its options). Rank threads are scoped, so the
//! rank closure may borrow from the caller's stack, and every run builds
//! its engine and fabric afresh: nothing outlives the call.

use crate::ctx::Ctx;
use crate::engine::{ChannelTransport, Engine, EngineReport};
use crate::error::SimError;
use crate::proto::RankMsg;
use collsel_netsim::{ClusterModel, Fabric, SimSpan, SimTime, TransferRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// Marker panic payload used to unwind rank threads on engine abort.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AbortToken;

/// Which execution tier runs a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per rank (the general-purpose oracle; supports
    /// arbitrary rank closures, wildcards and `wait_any_recv`).
    Threads,
    /// Record the program once, compile the schedule to a static timing
    /// DAG ([`crate::TimingDag`]), then evaluate payload-free with zero
    /// allocation per repetition (every product measurement path).
    Dag,
}

impl Backend {
    /// Stable lowercase name (JSON metadata).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Dag => "dag",
        }
    }
}

/// Knobs for [`simulate_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Record a [`TransferRecord`] per message (see [`simulate_traced`]).
    pub traced: bool,
    /// Virtual-time watchdog: abort with [`SimError::Timeout`] as soon
    /// as the next possible event lies past this much virtual time.
    /// `None` (the default) disables the watchdog.
    ///
    /// The watchdog is a *virtual-clock* budget, so it is deterministic:
    /// it catches runs whose simulated time explodes (e.g. under an
    /// injected brown-out), not host-machine slowness.
    pub deadline: Option<SimSpan>,
}

impl SimOptions {
    /// Options with a virtual-time deadline and no tracing.
    pub fn with_deadline(deadline: SimSpan) -> SimOptions {
        SimOptions {
            traced: false,
            deadline: Some(deadline),
        }
    }
}

/// Summary statistics of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time at which each rank's function returned.
    pub finish_times: Vec<SimTime>,
    /// The latest finish time (virtual makespan of the run).
    pub makespan: SimTime,
    /// Total point-to-point messages transferred.
    pub messages: u64,
    /// Total payload bytes transferred.
    pub bytes: u64,
    /// Messages that used the shared-memory (same node) path.
    pub shm_messages: u64,
    /// Per-transfer records (empty unless [`simulate_traced`] was used).
    pub trace: Vec<TransferRecord>,
}

/// Result of a completed simulation: per-rank return values plus the
/// run report.
#[derive(Debug, Clone)]
pub struct SimOutcome<T> {
    /// `results[r]` is what rank `r`'s function returned.
    pub results: Vec<T>,
    /// Aggregate statistics of the run.
    pub report: RunReport,
}

/// Runs `f` as an SPMD program with `ranks` processes on `cluster`.
///
/// Each rank executes `f(&mut ctx)` on its own OS thread while a central
/// engine advances virtual time deterministically; `seed` drives the
/// network noise stream (same seed, same cluster, same program ⇒
/// identical timings).
///
/// ```
/// use collsel_support::Bytes;
/// use collsel_netsim::ClusterModel;
///
/// let cluster = ClusterModel::gros();
/// let out = collsel_mpi::simulate(&cluster, 2, 7, |ctx| {
///     if ctx.rank() == 0 {
///         ctx.send(1, 0, Bytes::from_static(b"hi"));
///         0
///     } else {
///         let (data, _) = ctx.recv(0, 0);
///         data.len()
///     }
/// })
/// .expect("no deadlock");
/// assert_eq!(out.results, vec![0, 2]);
/// ```
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the program can make no progress and
/// [`SimError::RankPanic`] if any rank's function panics.
///
/// # Panics
///
/// Panics if `ranks` is zero or exceeds the cluster's process slots.
pub fn simulate<T, F>(
    cluster: &ClusterModel,
    ranks: usize,
    seed: u64,
    f: F,
) -> Result<SimOutcome<T>, SimError>
where
    F: Fn(&mut Ctx) -> T + Sync,
    T: Send,
{
    simulate_with(cluster, ranks, seed, SimOptions::default(), f)
}

/// Like [`simulate`], with explicit [`SimOptions`] (tracing and/or a
/// virtual-time watchdog deadline).
///
/// # Errors
///
/// Same as [`simulate`], plus [`SimError::Timeout`] when a deadline is
/// configured and the run's virtual time would exceed it.
///
/// # Panics
///
/// Same as [`simulate`].
pub fn simulate_with<T, F>(
    cluster: &ClusterModel,
    ranks: usize,
    seed: u64,
    opts: SimOptions,
    f: F,
) -> Result<SimOutcome<T>, SimError>
where
    F: Fn(&mut Ctx) -> T + Sync,
    T: Send,
{
    check_ranks(cluster, ranks);
    let mut fabric = Fabric::new(cluster.clone(), seed);
    if opts.traced {
        fabric.enable_tracing();
    }
    let (to_engine, from_ranks) = mpsc::channel::<RankMsg>();
    let (resume_tx, resume_rxs): (Vec<_>, Vec<_>) = (0..ranks).map(|_| mpsc::channel()).unzip();
    let transport = ChannelTransport {
        from_ranks,
        resume_tx,
    };
    let deadline = opts.deadline.map(|d| SimTime::ZERO + d);
    let engine = Engine::new(fabric, ranks, transport, deadline);

    let (engine_result, results) = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = resume_rxs
            .into_iter()
            .enumerate()
            .map(|(rank, resume_rx)| {
                let to_engine = to_engine.clone();
                scope.spawn(move || {
                    let mut ctx = Ctx::new(rank, ranks, to_engine, resume_rx);
                    match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                        Ok(value) => {
                            ctx.notify_finished();
                            Some(value)
                        }
                        Err(payload) => {
                            // An abort the engine initiated unwinds quietly.
                            if payload.downcast_ref::<AbortToken>().is_none() {
                                ctx.notify_panicked(panic_message(payload.as_ref()));
                            }
                            None
                        }
                    }
                })
            })
            .collect();
        drop(to_engine);
        let engine_result = engine.run();
        let results: Vec<Option<T>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (engine_result, results)
    });

    let report = engine_result?;
    let results = results
        .into_iter()
        .enumerate()
        .map(|(rank, v)| v.unwrap_or_else(|| panic!("rank {rank} finished without a result")))
        .collect();
    Ok(SimOutcome {
        results,
        report: report_from_engine(report),
    })
}

/// Like [`simulate`], but records a [`TransferRecord`] for every
/// message transfer; the trace is returned in
/// [`RunReport::trace`] (render it with
/// [`collsel_netsim::trace::to_chrome_trace`] or summarise with
/// [`collsel_netsim::trace::summarize`]).
///
/// # Errors
///
/// Same as [`simulate`].
///
/// # Panics
///
/// Same as [`simulate`].
pub fn simulate_traced<T, F>(
    cluster: &ClusterModel,
    ranks: usize,
    seed: u64,
    f: F,
) -> Result<SimOutcome<T>, SimError>
where
    F: Fn(&mut Ctx) -> T + Sync,
    T: Send,
{
    simulate_with(
        cluster,
        ranks,
        seed,
        SimOptions {
            traced: true,
            deadline: None,
        },
        f,
    )
}

/// Validates the (cluster, ranks) pair shared by all entry points.
pub(crate) fn check_ranks(cluster: &ClusterModel, ranks: usize) {
    assert!(ranks > 0, "need at least one rank");
    assert!(
        ranks <= cluster.max_ranks(),
        "cluster {} has {} process slots, requested {ranks}",
        cluster.name(),
        cluster.max_ranks()
    );
}

/// Converts the engine's internal report into the public [`RunReport`].
pub(crate) fn report_from_engine(report: EngineReport) -> RunReport {
    let makespan = report
        .finish_times
        .iter()
        .copied()
        .fold(SimTime::ZERO, SimTime::max);
    RunReport {
        finish_times: report.finish_times,
        makespan,
        messages: report.stats.messages,
        bytes: report.stats.bytes,
        shm_messages: report.stats.shm_messages,
        trace: report.trace,
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Threads.name(), "threads");
        assert_eq!(Backend::Dag.name(), "dag");
    }
}
