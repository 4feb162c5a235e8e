//! The event-driven execution backend: replay a [`Schedule`] with no
//! OS threads in the loop.
//!
//! The threaded backend parks one OS thread per rank and hands every
//! operation through mpsc channels; on a tuning campaign issuing tens
//! of thousands of short runs, most wall-clock goes to context
//! switches, not discrete-event work. [`simulate_scheduled`] replaces
//! the rank threads with inline cursors over a recorded [`Schedule`]:
//! the engine pulls each rank's next operations synchronously from the
//! [`ReplayTransport`] and "wakes" a rank by pushing its cursor back
//! onto a run queue.
//!
//! # Equivalence
//!
//! The engine core (event heap, `ReqTable`, fabric, watchdog, fault
//! plans) is byte-for-byte the same code for both backends — only the
//! [`Transport`] differs. Because the engine merges per-rank pending
//! queues by (local time, rank, program order) before applying them,
//! cross-rank arrival interleaving never influences results, so the
//! replay produces **bit-identical** reports (virtual times, transfer
//! traces, fabric stats, and error variants) to the threaded run of
//! the same program. `tests/backend_equivalence.rs` enforces this.

use crate::engine::{Engine, Transport};
use crate::error::SimError;
use crate::proto::{BlockOp, Completion, PostOp, RankMsg};
use crate::schedule::{SchedOp, Schedule};
use crate::sim::{build_fabric, check_ranks, report_from_engine, stash_scratch, take_scratch};
use crate::sim::{RunReport, SimOptions};
use collsel_netsim::{ClusterModel, SimTime};
use collsel_support::Bytes;
use std::collections::VecDeque;

/// Which execution backend runs a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One OS thread per rank (the general-purpose oracle; supports
    /// arbitrary rank closures, wildcards and `wait_any_recv`).
    Threads,
    /// Record the program once, then replay the schedule inline with
    /// zero threads per run.
    Events,
    /// Record once, compile the schedule to a static timing DAG
    /// ([`crate::TimingDag`]), then evaluate payload-free with zero
    /// allocation per repetition (the campaign hot path and default).
    #[default]
    Dag,
}

impl Backend {
    /// Stable lowercase name (CLI values and JSON metadata).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Events => "events",
            Backend::Dag => "dag",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Backend::Threads),
            "events" => Ok(Backend::Events),
            "dag" => Ok(Backend::Dag),
            other => Err(format!(
                "unknown backend '{other}' (expected 'threads', 'events' or 'dag')"
            )),
        }
    }
}

/// Result of replaying a schedule: the run report plus every clock
/// value the program observed.
///
/// The replay discards rank return values (there are no rank closures
/// to return anything), so `wtime` observations — which measurement
/// code derives its samples from — are collected here instead:
/// `wtimes[r]` lists rank `r`'s `Wtime` results in program order,
/// exactly what the threaded run's closure would have seen.
#[derive(Debug, Clone)]
pub struct ScheduledRun {
    /// Aggregate statistics, identical to the threaded backend's.
    pub report: RunReport,
    /// Per-rank `wtime` observations in program order.
    pub wtimes: Vec<Vec<SimTime>>,
}

/// The thread-free transport: per-rank cursors over a [`Schedule`].
pub(crate) struct ReplayTransport<'a> {
    sched: &'a Schedule,
    /// Next op index per rank.
    cursor: Vec<usize>,
    /// Ranks currently able to emit operations, in wake order.
    runnable: VecDeque<usize>,
    /// Collected `Wtime` results per rank.
    wtimes: Vec<Vec<SimTime>>,
}

impl<'a> ReplayTransport<'a> {
    fn new(sched: &'a Schedule) -> Self {
        let p = sched.ranks();
        ReplayTransport {
            sched,
            cursor: vec![0; p],
            runnable: (0..p).collect(),
            wtimes: vec![Vec::new(); p],
        }
    }
}

impl Transport for ReplayTransport<'_> {
    fn next_msg(&mut self) -> Option<RankMsg> {
        let &rank = self.runnable.front()?;
        let ops = &self.sched.ops[rank];
        let Some(op) = ops.get(self.cursor[rank]) else {
            self.runnable.pop_front();
            return Some(RankMsg::Finished { rank });
        };
        self.cursor[rank] += 1;
        let msg = match op {
            SchedOp::Isend { req, dst, tag, len } => RankMsg::Post {
                rank,
                op: PostOp::Isend {
                    req: *req,
                    dst: *dst,
                    tag: *tag,
                    payload: Bytes::symbolic(*len),
                },
            },
            SchedOp::Irecv { req, src, tag } => RankMsg::Post {
                rank,
                op: PostOp::Irecv {
                    req: *req,
                    src: *src,
                    tag: *tag,
                },
            },
            SchedOp::Compute { span } => RankMsg::Post {
                rank,
                op: PostOp::Compute { span: *span },
            },
            SchedOp::Wait { reqs, mode } => {
                self.runnable.pop_front();
                RankMsg::Block {
                    rank,
                    op: BlockOp::Wait {
                        reqs: reqs.clone(),
                        mode: *mode,
                    },
                }
            }
            SchedOp::Barrier => {
                self.runnable.pop_front();
                RankMsg::Block {
                    rank,
                    op: BlockOp::Barrier,
                }
            }
            SchedOp::Wtime => {
                self.runnable.pop_front();
                RankMsg::Block {
                    rank,
                    op: BlockOp::Wtime,
                }
            }
        };
        Some(msg)
    }

    fn deliver(&mut self, rank: usize, now: SimTime, _completions: Vec<Completion>) {
        // The op the rank was blocked on is the one just behind its
        // cursor; a `Wtime` resume is the observation the threaded
        // rank's closure would have read.
        if matches!(self.sched.ops[rank][self.cursor[rank] - 1], SchedOp::Wtime) {
            self.wtimes[rank].push(now);
        }
        self.runnable.push_back(rank);
    }

    fn abort(&mut self) {
        // No threads to tear down: dropping the transport is enough.
        self.runnable.clear();
    }
}

/// Replays a recorded [`Schedule`] under `seed` and `opts`, with zero
/// OS threads, locks or condvars in the loop.
///
/// Produces reports bit-identical to running the recorded program on
/// the threaded backend with the same cluster, seed and options —
/// including `SimError` variants under fault plans and watchdog
/// deadlines.
///
/// # Errors
///
/// Same as [`crate::simulate_with`].
///
/// # Panics
///
/// Panics if the schedule's rank count exceeds the cluster's process
/// slots.
pub fn simulate_scheduled(
    cluster: &ClusterModel,
    sched: &Schedule,
    seed: u64,
    opts: SimOptions,
) -> Result<ScheduledRun, SimError> {
    let ranks = sched.ranks();
    check_ranks(cluster, ranks);
    let fabric = build_fabric(cluster, seed, opts);
    let deadline = opts.deadline.map(|d| SimTime::ZERO + d);
    let transport = ReplayTransport::new(sched);
    let engine = Engine::new(fabric, ranks, transport, deadline, take_scratch());
    let (result, scratch, transport) = engine.run();
    stash_scratch(scratch);
    let report = result?;
    Ok(ScheduledRun {
        report: report_from_engine(report),
        wtimes: transport.wtimes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::schedule::{record_schedule, RecordError};
    use crate::sim::simulate_with;

    /// A timed ring exchange exercising sends, receives, barrier and
    /// wtime — written once against `Comm`, run on both backends.
    fn timed_ring<C: Comm>(ctx: &mut C) -> (SimTime, SimTime) {
        let p = ctx.size();
        let next = (ctx.rank() + 1) % p;
        let prev = (ctx.rank() + p - 1) % p;
        ctx.barrier();
        let t0 = ctx.wtime();
        ctx.send(next, 0, Bytes::from(vec![ctx.rank() as u8; 4096]));
        let _ = ctx.recv(prev, 0);
        ctx.barrier();
        (t0, ctx.wtime())
    }

    #[test]
    fn replay_matches_threaded_bit_for_bit() {
        let cluster = ClusterModel::grisou();
        let sched = record_schedule(&cluster, 6, |rc| {
            timed_ring(rc);
        })
        .expect("ring records cleanly");
        for seed in [0u64, 1, 42, 0xDEAD] {
            let opts = SimOptions {
                traced: true,
                deadline: None,
            };
            let threaded = simulate_with(&cluster, 6, seed, opts, timed_ring).expect("threaded");
            let replay = simulate_scheduled(&cluster, &sched, seed, opts).expect("replay");
            assert_eq!(threaded.report.finish_times, replay.report.finish_times);
            assert_eq!(threaded.report.makespan, replay.report.makespan);
            assert_eq!(threaded.report.messages, replay.report.messages);
            assert_eq!(threaded.report.bytes, replay.report.bytes);
            assert_eq!(threaded.report.shm_messages, replay.report.shm_messages);
            assert_eq!(threaded.report.trace, replay.report.trace);
            // The wtime observations are the threaded closure's values.
            for (rank, &(t0, t1)) in threaded.results.iter().enumerate() {
                assert_eq!(replay.wtimes[rank], vec![t0, t1]);
            }
        }
    }

    #[test]
    fn replay_reuses_one_schedule_across_seeds_deterministically() {
        let cluster = ClusterModel::gros();
        let sched = record_schedule(&cluster, 4, |rc| {
            timed_ring(rc);
        })
        .expect("records");
        let a = simulate_scheduled(&cluster, &sched, 7, SimOptions::default()).expect("run a");
        let b = simulate_scheduled(&cluster, &sched, 7, SimOptions::default()).expect("run b");
        assert_eq!(a.report.finish_times, b.report.finish_times);
        assert_eq!(a.wtimes, b.wtimes);
    }

    #[test]
    fn wildcards_are_rejected_at_recording_time() {
        let cluster = ClusterModel::gros();
        let err = record_schedule(&cluster, 2, |rc| {
            if rc.rank() == 0 {
                rc.send(1, 0, Bytes::from_static(b"x"));
            } else {
                let _ = rc.recv(crate::Peer::Any, 0);
            }
        })
        .expect_err("wildcard source cannot be replayed");
        match err {
            RecordError::Unsupported { rank, what } => {
                assert_eq!(rank, 1);
                assert!(what.contains("Peer::Any"), "got: {what}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn backend_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(Backend::from_str("events"), Ok(Backend::Events));
        assert_eq!(Backend::from_str("threads"), Ok(Backend::Threads));
        assert_eq!(Backend::from_str("dag"), Ok(Backend::Dag));
        assert!(Backend::from_str("fibers").is_err());
        assert_eq!(Backend::default(), Backend::Dag);
        assert_eq!(Backend::Events.to_string(), "events");
        assert_eq!(Backend::Dag.to_string(), "dag");
    }
}
