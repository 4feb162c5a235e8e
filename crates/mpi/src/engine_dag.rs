//! The fast execution tier: compile a [`Schedule`] to a static
//! **timing DAG** and evaluate it with no payloads, no request tables,
//! no per-op message objects and no OS threads.
//!
//! The thread-per-rank engine ([`crate::simulate`]) re-runs the full
//! discrete-event machinery on every run: a context switch per
//! blocking call, `RankMsg` construction with a reference-counted
//! payload clone per send, per-rank mailbox queues, a request slab,
//! linear match-queue scans and a `Vec<Completion>` allocation per
//! wait. None of that work depends on the seed —
//! a recordable program's op stream is a pure function of
//! `(rank, size, lengths)`, and per-channel matching is FIFO on both
//! sides, so *which send matches which receive* (and whether the pair
//! is eager or rendezvous) is a compile-time fact.
//!
//! [`TimingDag::compile`] resolves all of it once: every send/recv is
//! paired into a [`DagEdge`] (k-th send on a `(src, dst, tag)` channel
//! ↔ k-th receive), every request becomes a dense *completion slot*,
//! and every wait becomes a precomputed slot range. What remains at
//! evaluation time is exactly the part that IS seed-dependent: the
//! global order of fabric bookings (the noise stream and NIC/rack
//! occupancy are consumed in ascending local-time order) and the
//! resulting clock values. The evaluator therefore keeps the engine's
//! drain/apply/resume discipline — the same `(local time, rank,
//! program order)` merge over a tiny reusable heap — but walks flat
//! arrays and writes completion times into a flat `Vec<SimTime>`:
//! zero allocation and zero `Bytes` traffic in the steady state.
//!
//! # Equivalence
//!
//! The evaluator reproduces the engine's observable behaviour
//! bit-for-bit: virtual times, fabric statistics and traces, fault
//! and watchdog behaviour, and `SimError` values including the exact
//! diagnostic strings (compiled waits retain their original
//! [`ReqId`]s for that purpose). `tests/dag_equivalence.rs` and the
//! ci.sh differential gate enforce this against the threaded engine
//! across all seven collectives.
//!
//! # Batched evaluation
//!
//! [`DagEvaluator`] pins one fabric and one scratch to a compiled DAG
//! and resets them in place per repetition
//! ([`collsel_netsim::Fabric::reset`]), so a cell's thousands of
//! repetitions share one cluster clone and one set of buffers;
//! [`DagEvaluator::evaluate_reps`] is the batched entry point.
//!
//! Within one run, a DAG compiled from a schedule of several rounds
//! holds one round and loops it [`TimingDag::rounds`] times: clocks,
//! the fabric, its noise stream and the clock reads carry over, and
//! only the round's completion slots, edges and resume candidates start
//! over (see [`TimingDag::compile`] for when that is exact).

use crate::engine::EngineReport;
use crate::error::SimError;
use crate::proto::ReqId;
use crate::schedule::{SchedOp, Schedule};
use crate::sim::{check_ranks, report_from_engine, RunReport, SimOptions};
use collsel_netsim::{ClusterModel, Fabric, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Completion-slot sentinel: "this request has not completed".
const T_NONE: SimTime = SimTime::from_nanos(u64::MAX);
/// Slot/op index sentinel.
const NONE_IDX: u32 = u32::MAX;

/// Per-edge match state tags (stored beside a [`SimTime`]).
const EDGE_IDLE: u8 = 0;
/// The send side arrived first; the time is `delivered` for an eager
/// edge, the sender's post time for a rendezvous edge.
const EDGE_SEND: u8 = 1;
/// The receive was posted first; the time is its post time.
const EDGE_RECV: u8 = 2;
/// Both sides met; the edge is spent.
const EDGE_DONE: u8 = 3;

/// One compiled operation. Posts carry their resolved edge; blocking
/// ops carry their precomputed slot range.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
enum DagOp {
    /// `Isend`, resolved: the edge knows peer, size, protocol and slots.
    Send { edge: u32 },
    /// `Irecv`, resolved to the same edge as its matching send.
    Recv { edge: u32 },
    /// Blocking wait until every slot of `wait_slots[off..off + len]`
    /// has completed.
    Wait { off: u32, len: u32 },
    /// The runtime's ideal barrier.
    Barrier,
    /// Clock read; observations land in [`ScheduledRun::wtimes`].
    Wtime,
}

// Two `u32` fields and a discriminant: the evaluator walks these flat.
const _: () = assert!(std::mem::size_of::<DagOp>() == 12);

impl DagOp {
    /// Whether the op blocks the issuing rank (ends an apply window).
    fn is_block(self) -> bool {
        matches!(self, DagOp::Wait { .. } | DagOp::Barrier | DagOp::Wtime)
    }
}

/// One resolved send/recv pair (or unmatched half) of the program.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct DagEdge {
    src: u32,
    dst: u32,
    /// Payload length; only the length ever reaches the fabric.
    bytes: usize,
    /// Protocol, decided at compile time against the cluster's eager
    /// threshold.
    eager: bool,
    /// Completion slot of the send request (`NONE_IDX`: a receive with
    /// no matching send — it can never complete).
    send_slot: u32,
    /// Completion slot of the receive request (`NONE_IDX`: a send that
    /// is never received — eager sends still complete and book fabric
    /// time; rendezvous sends block forever).
    recv_slot: u32,
}

/// One posted half of a message, as [`TimingDag::compile`] collects
/// them for matching. The field order is the sort order: sorted, a
/// channel's halves are contiguous, its sends before its receives, each
/// side in its rank's program order (op indices grow along a rank), and
/// the channels in `(src, dst, tag)` order, which fixes the edge
/// numbering (it never affects timing, but a reproducible compile is
/// easier to debug).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Half {
    src: u32,
    dst: u32,
    tag: u32,
    recv: bool,
    /// Global index of the posting op.
    op: u32,
    /// Completion slot of the request.
    slot: u32,
    /// Payload length of a send; zero for a receive.
    bytes: usize,
}

/// Why a [`Schedule`] could not be lowered to a [`TimingDag`].
///
/// A caller treats it like a program that could not be recorded: run
/// the program on the threaded engine, or report the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The schedule has more operations than the DAG's `u32` index
    /// space can address; compiling would silently truncate indices
    /// and mis-wire the DAG.
    TooLarge {
        /// Total operations in the offending schedule.
        ops: usize,
        /// The largest schedule the compiler accepts.
        max: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooLarge { ops, max } => write!(
                f,
                "schedule with {ops} ops exceeds the timing DAG's index \
                 space (max {max})"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// A [`Schedule`] lowered to flat arrays with matching, protocol
/// selection and wait-set resolution done once.
///
/// Compile with [`TimingDag::compile`]; evaluate with a
/// [`DagEvaluator`]. The DAG is immutable and shareable (`Arc`) across
/// threads and repetitions.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct TimingDag {
    p: usize,
    /// The eager threshold the edges were classified against; the
    /// evaluation cluster must agree.
    eager_threshold: usize,
    /// All ranks' ops, concatenated in rank order.
    ops: Vec<DagOp>,
    /// `rank_bounds[r]..rank_bounds[r + 1]` is rank `r`'s op range.
    rank_bounds: Vec<u32>,
    /// For op index `i`: the first blocking op at or after `i` within
    /// the same rank's range (the rank's range end if none remain).
    next_block: Vec<u32>,
    edges: Vec<DagEdge>,
    /// Flattened wait slot lists (see [`DagOp::Wait`]).
    wait_slots: Vec<u32>,
    /// The original request ids, parallel to `wait_slots`, so deadlock
    /// and timeout diagnostics print exactly what the engine prints.
    wait_reqs: Vec<ReqId>,
    /// Total completion slots (one per send/recv request).
    slots: usize,
    /// For each slot: the op index of the `Wait` that references it
    /// (`NONE_IDX` if the request is never waited on). Lets a slot
    /// write notify the waiting rank instead of the evaluator scanning
    /// every rank's wait set per resume round.
    slot_wait: Vec<u32>,
    /// For each slot: the rank that posted (and therefore waits on) it.
    slot_rank: Vec<u32>,
    /// Per-rank `Wtime` counts of one round, to pre-size observation
    /// vectors.
    wtime_counts: Vec<u32>,
    /// How many times an evaluation runs the compiled round.
    rounds: usize,
    /// Per rank, the requests one round issues: round `i`'s request ids
    /// are the compiled ones moved up by `i ×` this, which is how
    /// diagnostics print them.
    round_reqs: Vec<ReqId>,
}

impl TimingDag {
    /// Lowers `sched` to a timing DAG for clusters with `cluster`'s
    /// eager threshold.
    ///
    /// Matching is resolved per `(src, dst, tag)` channel: sends are
    /// applied in the sender's program order and receives in the
    /// receiver's, and the engine's match queues are FIFO within a
    /// channel, so the k-th send always pairs with the k-th receive
    /// regardless of seed — which is what makes this a compile-time
    /// step. Unmatched halves are kept as half-edges with the engine's
    /// semantics (an unreceived eager send still books fabric time and
    /// completes; an unreceived rendezvous send never completes).
    ///
    /// A schedule of several [rounds](Schedule::repeated) is lowered once
    /// and looped when that is exact: every rank's round opens with a
    /// barrier and crosses as many barriers as every other rank's, and
    /// every message of a round is received in the same round. A barrier
    /// books no fabric time and releases no rank before all have
    /// finished the round before it, so every booking of round `k`
    /// precedes every booking of round `k + 1`, and running the one
    /// compiled round again with the clocks, fabric and noise stream
    /// carried over is the flat stream's evaluation. A timed measurement
    /// round (`barrier; wtime; body; [barrier;] wtime`, see
    /// [`Schedule::repeated`]) qualifies; any other schedule is lowered
    /// as its flat stream.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooLarge`] when the op count to lower
    /// exceeds the `u32` index space ([`Self::MAX_OPS`]); the bare
    /// `as u32` narrowing below would otherwise silently truncate
    /// indices and mis-wire the DAG.
    ///
    /// # Panics
    ///
    /// Panics on a wait on an unposted request, which is impossible in
    /// a [`crate::record_schedule`] product.
    pub fn compile(cluster: &ClusterModel, sched: &Schedule) -> Result<TimingDag, CompileError> {
        Self::compile_capped(cluster, sched, Self::MAX_OPS)
    }

    /// The largest op count [`Self::compile`] lowers. One `u32` value
    /// (`NONE_IDX`) is reserved as the "no index" sentinel, and every
    /// compiled index space — ops, completion slots, wait-slot entries,
    /// edges — is bounded by the lowered op count (each op posts at
    /// most one request, and each request is waited on at most once),
    /// so a single guard covers them all.
    pub const MAX_OPS: usize = (u32::MAX - 1) as usize;

    fn compile_capped(
        cluster: &ClusterModel,
        sched: &Schedule,
        cap: usize,
    ) -> Result<TimingDag, CompileError> {
        if sched.rounds > 1 && rounds_are_barrier_separated(sched) {
            let round = Self::lower(cluster, sched, false, cap)?;
            let matched = |e: &DagEdge| e.send_slot != NONE_IDX && e.recv_slot != NONE_IDX;
            if round.edges.iter().all(matched) {
                return Ok(round);
            }
        }
        Self::lower(cluster, sched, true, cap)
    }

    /// Lowers one round of `sched` (to be looped `sched.rounds` times)
    /// or, with `flat`, its whole flat stream (run once).
    fn lower(
        cluster: &ClusterModel,
        sched: &Schedule,
        flat: bool,
        cap: usize,
    ) -> Result<TimingDag, CompileError> {
        let rounds = if flat { sched.rounds } else { 1 };
        let total = sched.total_ops().saturating_mul(rounds);
        if total > cap {
            return Err(CompileError::TooLarge {
                ops: total,
                max: cap,
            });
        }
        let p = sched.ranks();
        let eager_threshold = cluster.eager_threshold();
        let mut ops: Vec<DagOp> = Vec::with_capacity(total);
        let mut rank_bounds = Vec::with_capacity(p + 1);
        let mut wait_slots: Vec<u32> = Vec::new();
        let mut wait_reqs: Vec<ReqId> = Vec::new();
        let mut wtime_counts = vec![0u32; p];
        let mut slots: u32 = 0;
        let requests = sched.reqs.iter().map(|&n| n as usize).sum::<usize>() * rounds;
        let mut slot_wait: Vec<u32> = Vec::with_capacity(requests);
        let mut slot_rank: Vec<u32> = Vec::with_capacity(requests);
        let mut halves: Vec<Half> = Vec::with_capacity(requests);
        let mut round_reqs = Vec::with_capacity(p);

        for (rank, wtimes) in wtime_counts.iter_mut().enumerate() {
            rank_bounds.push(ops.len() as u32);
            // Request ids are dense per rank in issue order, and so are
            // slots: request `id` of this rank owns slot `first_slot + id`.
            let first_slot = slots;
            for (by, round) in sched.rank_rounds(rank, flat) {
                for op in round {
                    let idx = ops.len() as u32;
                    match op {
                        SchedOp::Isend { req, dst, tag, len } => {
                            assert_eq!(first_slot + by + req, slots, "request ids are dense");
                            halves.push(Half {
                                src: rank as u32,
                                dst: *dst as u32,
                                tag: *tag,
                                recv: false,
                                op: idx,
                                slot: slots,
                                bytes: *len,
                            });
                            slots += 1;
                            slot_wait.push(NONE_IDX);
                            slot_rank.push(rank as u32);
                            ops.push(DagOp::Send { edge: NONE_IDX });
                        }
                        SchedOp::Irecv { req, src, tag } => {
                            assert_eq!(first_slot + by + req, slots, "request ids are dense");
                            halves.push(Half {
                                src: *src as u32,
                                dst: rank as u32,
                                tag: *tag,
                                recv: true,
                                op: idx,
                                slot: slots,
                                bytes: 0,
                            });
                            slots += 1;
                            slot_wait.push(NONE_IDX);
                            slot_rank.push(rank as u32);
                            ops.push(DagOp::Recv { edge: NONE_IDX });
                        }
                        SchedOp::Wait { reqs } => {
                            let off = wait_slots.len() as u32;
                            for id in reqs.iter().map(|id| by + id) {
                                assert!(
                                    id < slots - first_slot,
                                    "waited request was posted earlier in program order"
                                );
                                let slot = first_slot + id;
                                wait_slots.push(slot);
                                wait_reqs.push(id);
                                slot_wait[slot as usize] = idx;
                            }
                            ops.push(DagOp::Wait {
                                off,
                                len: reqs.len() as u32,
                            });
                        }
                        SchedOp::Barrier => ops.push(DagOp::Barrier),
                        SchedOp::Wtime => {
                            *wtimes += 1;
                            ops.push(DagOp::Wtime);
                        }
                    }
                }
            }
            round_reqs.push(slots - first_slot);
        }
        rank_bounds.push(ops.len() as u32);

        halves.sort_unstable();
        let mut edges = Vec::new();
        let same_channel = |a: &Half, b: &Half| (a.src, a.dst, a.tag) == (b.src, b.dst, b.tag);
        for channel in halves.chunk_by(same_channel) {
            let (sends, recvs) = channel.split_at(channel.partition_point(|half| !half.recv));
            for k in 0..sends.len().max(recvs.len()) {
                let edge = edges.len() as u32;
                let bytes = sends.get(k).map_or(0, |half| half.bytes);
                edges.push(DagEdge {
                    src: channel[0].src,
                    dst: channel[0].dst,
                    bytes,
                    eager: bytes <= eager_threshold,
                    send_slot: sends.get(k).map_or(NONE_IDX, |half| half.slot),
                    recv_slot: recvs.get(k).map_or(NONE_IDX, |half| half.slot),
                });
                if let Some(half) = sends.get(k) {
                    ops[half.op as usize] = DagOp::Send { edge };
                }
                if let Some(half) = recvs.get(k) {
                    ops[half.op as usize] = DagOp::Recv { edge };
                }
            }
        }

        let mut next_block = vec![0u32; ops.len()];
        for r in 0..p {
            let (start, end) = (rank_bounds[r] as usize, rank_bounds[r + 1] as usize);
            let mut nb = end as u32;
            for i in (start..end).rev() {
                if ops[i].is_block() {
                    nb = i as u32;
                }
                next_block[i] = nb;
            }
        }

        Ok(TimingDag {
            p,
            eager_threshold,
            ops,
            rank_bounds,
            next_block,
            edges,
            wait_slots,
            wait_reqs,
            slots: slots as usize,
            slot_wait,
            slot_rank,
            wtime_counts,
            rounds: if flat { 1 } else { sched.rounds },
            round_reqs,
        })
    }

    /// Number of ranks the DAG was compiled for.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Resolved send/recv pairs, including unmatched halves
    /// (diagnostics).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total compiled operations across all ranks: one round's for a
    /// looped DAG (diagnostics).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// How many times an evaluation runs the compiled operations.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    fn rank_end(&self, r: usize) -> u32 {
        self.rank_bounds[r + 1]
    }
}

/// Whether every rank's round of `sched` opens with a barrier and all
/// ranks cross equally many barriers per round, so the barrier that
/// opens round `k + 1` is the one every rank waits in after round `k`.
fn rounds_are_barrier_separated(sched: &Schedule) -> bool {
    let barriers = |ops: &Vec<SchedOp>| ops.iter().filter(|op| **op == SchedOp::Barrier).count();
    let per_round = barriers(&sched.ops[0]);
    sched
        .ops
        .iter()
        .all(|ops| ops.first() == Some(&SchedOp::Barrier) && barriers(ops) == per_round)
}

/// Where a rank stands during evaluation (mirrors the engine's view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Blocked,
    Done,
}

/// Evaluation buffers a [`DagEvaluator`] reuses across repetitions: all
/// per-rank, per-slot and per-edge state plus the scheduling heap. One
/// reset per repetition, zero allocation in the steady state.
#[derive(Debug, Default)]
struct DagScratch {
    local: Vec<SimTime>,
    status: Vec<Status>,
    /// Global op index of the block a rank is parked on (`NONE_IDX`
    /// when running/done).
    blocked: Vec<u32>,
    /// Next op to apply, as a global op index.
    cursor: Vec<u32>,
    /// This phase's apply window end (the block op, or the rank end).
    limit: Vec<u32>,
    finish: Vec<SimTime>,
    /// Completion time per request slot (`T_NONE` = outstanding).
    slot_done: Vec<SimTime>,
    /// Match state per edge (tag, time) — see the `EDGE_*` constants.
    edge_state: Vec<(u8, SimTime)>,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Resume candidates `(time, rank)`, maintained by notification: a
    /// rank is pushed when it blocks with a computable resume time and
    /// whenever a slot write changes the wait it is parked on. Entries
    /// are validated lazily on pop, so the evaluator never scans all
    /// ranks to find the minimal resume time.
    ready: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Ranks woken since the last apply phase (the next phase's
    /// runnable set).
    woken: Vec<usize>,
    /// Ranks that have finished (counter twin of `status == Done`).
    done: usize,
    /// Ranks currently blocked on a barrier.
    in_barrier: usize,
    /// The round being evaluated (see [`TimingDag::rounds`]).
    round: usize,
    /// Ranks that finished the round and wait in the barrier opening
    /// the next one.
    at_round_end: usize,
}

impl DagScratch {
    fn reset(&mut self, dag: &TimingDag) {
        let p = dag.p;
        self.local.clear();
        self.local.resize(p, SimTime::ZERO);
        self.status.clear();
        self.status.resize(p, Status::Running);
        self.blocked.clear();
        self.blocked.resize(p, NONE_IDX);
        self.cursor.clear();
        self.cursor.extend(dag.rank_bounds[..p].iter().copied());
        self.limit.clear();
        self.limit.resize(p, 0);
        self.finish.clear();
        self.finish.resize(p, SimTime::ZERO);
        self.slot_done.clear();
        self.slot_done.resize(dag.slots, T_NONE);
        self.edge_state.clear();
        self.edge_state
            .resize(dag.edges.len(), (EDGE_IDLE, SimTime::ZERO));
        self.heap.clear();
        self.ready.clear();
        self.woken.clear();
        self.woken.extend(0..p);
        self.done = 0;
        self.in_barrier = 0;
        self.round = 0;
        self.at_round_end = 0;
    }

    /// Starts the next round once every rank has finished this one:
    /// every request and message of the round is spent, so completion
    /// slots, edges and resume candidates start over; clocks, the
    /// fabric and the noise stream carry on.
    fn next_round(&mut self) {
        self.slot_done.fill(T_NONE);
        self.edge_state.fill((EDGE_IDLE, SimTime::ZERO));
        self.ready.clear();
        self.round += 1;
        self.at_round_end = 0;
    }
}

/// Result of evaluating a compiled program: the run report plus every
/// clock value the program observed.
///
/// An evaluation has no rank closures to return anything, so `wtime`
/// observations — which measurement code derives its samples from —
/// are collected here instead: `wtimes[r]` lists rank `r`'s `Wtime`
/// results in program order, exactly what the threaded run's closure
/// would have seen.
#[derive(Debug, Clone)]
pub struct ScheduledRun {
    /// Aggregate statistics, identical to the threaded engine's.
    pub report: RunReport,
    /// Per-rank `wtime` observations in program order.
    pub wtimes: Vec<Vec<SimTime>>,
}

/// One evaluation pass: borrows the DAG, a fabric and scratch.
struct DagRun<'a> {
    dag: &'a TimingDag,
    fabric: &'a mut Fabric,
    s: &'a mut DagScratch,
    deadline: Option<SimTime>,
    wtimes: Vec<Vec<SimTime>>,
}

impl DagRun<'_> {
    fn run(mut self) -> Result<ScheduledRun, SimError> {
        self.s.reset(self.dag);
        loop {
            self.apply_pending();
            if self.s.done == self.dag.p {
                let report = EngineReport {
                    finish_times: self.s.finish.clone(),
                    stats: self.fabric.stats(),
                    trace: self.fabric.take_trace(),
                };
                return Ok(ScheduledRun {
                    report: report_from_engine(report),
                    wtimes: self.wtimes,
                });
            }
            match self.resume_minimal() {
                Ok(0) => {
                    return Err(SimError::Deadlock {
                        detail: self.deadlock_detail(),
                    })
                }
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The engine's apply phase over compiled windows: queued ops of
    /// the runnable ranks merged by (local time, rank, program order),
    /// with the identical tie-break so fabric bookings land in the
    /// engine's order. A rank keeps applying inline while its `(local
    /// time, rank)` key still sorts before the heap's head — the pop
    /// it would win anyway — so lockstep-free stretches cost no heap
    /// traffic at all.
    fn apply_pending(&mut self) {
        debug_assert!(self.s.heap.is_empty());
        while let Some(r) = self.s.woken.pop() {
            let c = self.s.cursor[r];
            self.s.limit[r] = if c < self.dag.rank_end(r) {
                self.dag.next_block[c as usize]
            } else {
                c
            };
            self.s.heap.push(Reverse((self.s.local[r], r)));
        }
        while let Some(Reverse((t, r))) = self.s.heap.pop() {
            if t != self.s.local[r] {
                self.s.heap.push(Reverse((self.s.local[r], r)));
                continue;
            }
            if self.s.status[r] != Status::Running {
                continue;
            }
            loop {
                let limit = self.s.limit[r];
                if self.s.cursor[r] < limit {
                    let op = self.dag.ops[self.s.cursor[r] as usize];
                    self.s.cursor[r] += 1;
                    self.apply_post(r, op);
                    if let Some(&Reverse(head)) = self.s.heap.peek() {
                        if (self.s.local[r], r) > head {
                            self.s.heap.push(Reverse((self.s.local[r], r)));
                            break;
                        }
                    }
                } else if limit == self.dag.rank_end(r) {
                    if self.s.round + 1 < self.dag.rounds {
                        // Into the barrier that opens the next round,
                        // as the flat stream's rank would block in it.
                        let opening = self.dag.rank_bounds[r];
                        self.s.status[r] = Status::Blocked;
                        self.s.blocked[r] = opening;
                        self.s.cursor[r] = opening + 1;
                        self.s.in_barrier += 1;
                        self.s.at_round_end += 1;
                    } else {
                        self.s.status[r] = Status::Done;
                        self.s.finish[r] = self.s.local[r];
                        self.s.done += 1;
                    }
                    break;
                } else {
                    self.s.status[r] = Status::Blocked;
                    self.s.blocked[r] = limit;
                    self.s.cursor[r] = limit + 1;
                    match self.dag.ops[limit as usize] {
                        DagOp::Barrier => self.s.in_barrier += 1,
                        DagOp::Wtime => self.s.ready.push(Reverse((self.s.local[r], r))),
                        DagOp::Wait { off, len } => {
                            if let Some(at) = self.wait_ready_at(r, off, len) {
                                self.s.ready.push(Reverse((at, r)));
                            }
                        }
                        _ => unreachable!("next_block points at a blocking op"),
                    }
                    break;
                }
            }
        }
    }

    /// Writes a completion slot and notifies its owner if that rank is
    /// currently parked on the wait referencing the slot: the updated
    /// resume time (if now computable) joins the ready heap, replacing
    /// the engine's per-round scan over every blocked rank.
    fn complete_slot(&mut self, slot: u32, t: SimTime) {
        self.s.slot_done[slot as usize] = t;
        let w = self.dag.slot_wait[slot as usize];
        if w == NONE_IDX {
            return;
        }
        let owner = self.dag.slot_rank[slot as usize] as usize;
        if self.s.status[owner] == Status::Blocked && self.s.blocked[owner] == w {
            let DagOp::Wait { off, len } = self.dag.ops[w as usize] else {
                unreachable!("slot_wait points at a wait op")
            };
            if let Some(at) = self.wait_ready_at(owner, off, len) {
                self.s.ready.push(Reverse((at, owner)));
            }
        }
    }

    fn apply_post(&mut self, r: usize, op: DagOp) {
        match op {
            DagOp::Send { edge } => self.apply_send(r, edge),
            DagOp::Recv { edge } => self.apply_recv(r, edge),
            _ => unreachable!("blocking ops end the apply window"),
        }
    }

    fn apply_send(&mut self, src: usize, edge: u32) {
        let e = self.dag.edges[edge as usize];
        debug_assert_eq!(e.src as usize, src);
        self.s.local[src] += self.fabric.send_overhead(src);
        let ready = self.s.local[src];
        let dst = e.dst as usize;
        if e.eager {
            // Eager: book the wire immediately; the send completes at
            // `send_done` whether or not a receive ever shows up.
            let plan = self.fabric.plan_transfer(src, dst, e.bytes, ready);
            self.complete_slot(e.send_slot, plan.send_done);
            if e.recv_slot == NONE_IDX {
                return;
            }
            let (tag, t) = self.s.edge_state[edge as usize];
            if tag == EDGE_RECV {
                let done = plan.delivered.max(t) + self.fabric.recv_overhead(dst);
                self.complete_slot(e.recv_slot, done);
                self.s.edge_state[edge as usize].0 = EDGE_DONE;
            } else {
                self.s.edge_state[edge as usize] = (EDGE_SEND, plan.delivered);
            }
        } else {
            let (tag, t) = self.s.edge_state[edge as usize];
            if e.recv_slot != NONE_IDX && tag == EDGE_RECV {
                self.rendezvous(&e, ready, t);
                self.s.edge_state[edge as usize].0 = EDGE_DONE;
            } else {
                // No receive yet (or ever): the handshake stalls and
                // the send request stays outstanding.
                self.s.edge_state[edge as usize] = (EDGE_SEND, ready);
            }
        }
    }

    fn apply_recv(&mut self, dst: usize, edge: u32) {
        let e = self.dag.edges[edge as usize];
        debug_assert_eq!(e.dst as usize, dst);
        let posted_at = self.s.local[dst];
        if e.send_slot == NONE_IDX {
            // No sender ever: the request can never complete.
            self.s.edge_state[edge as usize] = (EDGE_RECV, posted_at);
            return;
        }
        let (tag, t) = self.s.edge_state[edge as usize];
        if tag == EDGE_SEND {
            if e.eager {
                let done = t.max(posted_at) + self.fabric.recv_overhead(dst);
                self.complete_slot(e.recv_slot, done);
            } else {
                self.rendezvous(&e, t, posted_at);
            }
            self.s.edge_state[edge as usize].0 = EDGE_DONE;
        } else {
            self.s.edge_state[edge as usize] = (EDGE_RECV, posted_at);
        }
    }

    /// Books the data transfer of a rendezvous pair whose two sides
    /// have now both been posted (the engine's formula verbatim).
    fn rendezvous(&mut self, e: &DagEdge, send_posted: SimTime, recv_posted: SimTime) {
        let lc = self.fabric.control_latency();
        let ready = (send_posted + lc).max(recv_posted) + lc;
        let plan = self
            .fabric
            .plan_transfer(e.src as usize, e.dst as usize, e.bytes, ready);
        self.complete_slot(e.send_slot, plan.send_done);
        let recv_done = plan.delivered + self.fabric.recv_overhead(e.dst as usize);
        self.complete_slot(e.recv_slot, recv_done);
    }

    fn check_deadline(&self, next: SimTime) -> Result<(), SimError> {
        match self.deadline {
            Some(d) if next > d => Err(SimError::Timeout {
                deadline: d.saturating_since(SimTime::ZERO),
                detail: format!(
                    "next event at {next} lies past the deadline; {}",
                    self.deadlock_detail()
                ),
            }),
            _ => Ok(()),
        }
    }

    /// The engine's resume phase: barrier completion when every alive
    /// rank is in it, otherwise wake exactly the blocked ranks
    /// attaining the minimal resume time.
    ///
    /// The minimum comes from the notification-fed ready heap rather
    /// than a scan: every blocked rank with a computable resume time
    /// has an entry carrying exactly that time (pushed when it blocked,
    /// refreshed by [`complete_slot`](Self::complete_slot) on every
    /// relevant slot write), so the smallest entry that still matches
    /// its rank's current state IS the global minimum, and ties pop
    /// consecutively. Stale entries — the rank already woke, or a later
    /// slot write raised its time — fail the match and are discarded.
    fn resume_minimal(&mut self) -> Result<usize, SimError> {
        let p = self.dag.p;
        if self.s.done == 0 && self.s.in_barrier == p {
            let mut barrier_t = SimTime::ZERO;
            for r in 0..p {
                barrier_t = barrier_t.max(self.s.local[r]);
            }
            self.check_deadline(barrier_t)?;
            self.s.in_barrier = 0;
            if self.s.at_round_end > 0 {
                debug_assert_eq!(self.s.at_round_end, p, "rounds are barrier-separated");
                self.s.next_round();
            }
            for r in 0..p {
                self.wake(r, barrier_t);
            }
            return Ok(p);
        }

        let mut woken = 0usize;
        let mut best: Option<SimTime> = None;
        while let Some(&Reverse((t, r))) = self.s.ready.peek() {
            if best.is_some_and(|b| t != b) {
                break;
            }
            self.s.ready.pop();
            if self.s.status[r] != Status::Blocked || self.resume_at(r) != Some(t) {
                continue;
            }
            if best.is_none() {
                self.check_deadline(t)?;
                best = Some(t);
            }
            if matches!(self.dag.ops[self.s.blocked[r] as usize], DagOp::Wtime) {
                self.wtimes[r].push(t);
            }
            self.wake(r, t);
            woken += 1;
        }
        Ok(woken)
    }

    fn resume_at(&self, r: usize) -> Option<SimTime> {
        if self.s.status[r] != Status::Blocked {
            return None;
        }
        match self.dag.ops[self.s.blocked[r] as usize] {
            DagOp::Wtime => Some(self.s.local[r]),
            DagOp::Wait { off, len } => self.wait_ready_at(r, off, len),
            _ => None,
        }
    }

    fn wait_ready_at(&self, r: usize, off: u32, len: u32) -> Option<SimTime> {
        let mut at = self.s.local[r];
        for &slot in &self.dag.wait_slots[off as usize..(off + len) as usize] {
            let t = self.s.slot_done[slot as usize];
            if t == T_NONE {
                return None;
            }
            at = at.max(t);
        }
        Some(at)
    }

    fn wake(&mut self, r: usize, now: SimTime) {
        self.s.local[r] = now;
        self.s.status[r] = Status::Running;
        self.s.blocked[r] = NONE_IDX;
        self.s.woken.push(r);
    }

    /// The request id the flat stream gives wait entry `i` of rank `r`
    /// in the current round.
    fn flat_req(&self, r: usize, i: u32) -> u64 {
        let round_base = self.s.round as u64 * u64::from(self.dag.round_reqs[r]);
        round_base + u64::from(self.dag.wait_reqs[i as usize])
    }

    fn deadlock_detail(&self) -> String {
        let mut parts = Vec::new();
        for r in 0..self.dag.p {
            match self.s.status[r] {
                Status::Done => {}
                Status::Running => parts.push(format!("rank {r}: running (internal error)")),
                Status::Blocked => {
                    let what = match self.dag.ops[self.s.blocked[r] as usize] {
                        DagOp::Barrier => "barrier".to_owned(),
                        DagOp::Wtime => "wtime (internal error)".to_owned(),
                        DagOp::Wait { off, len } => {
                            let outstanding: Vec<String> = (off..off + len)
                                .filter(|&i| {
                                    let slot = self.dag.wait_slots[i as usize];
                                    self.s.slot_done[slot as usize] == T_NONE
                                })
                                .map(|i| format!("req {}", self.flat_req(r, i)))
                                .collect();
                            format!("wait on {}", outstanding.join(", "))
                        }
                        _ => "unknown".to_owned(),
                    };
                    parts.push(format!(
                        "rank {r}: blocked on {what} at t={}",
                        self.s.local[r]
                    ));
                }
            }
        }
        parts.join("; ")
    }
}

/// Validates a (cluster, dag) pairing before evaluation.
fn check_dag(cluster: &ClusterModel, dag: &TimingDag) {
    check_ranks(cluster, dag.p);
    assert_eq!(
        cluster.eager_threshold(),
        dag.eager_threshold,
        "DAG compiled for eager threshold {} evaluated on cluster {} with threshold {}",
        dag.eager_threshold,
        cluster.name(),
        cluster.eager_threshold()
    );
}

fn run_once(
    dag: &TimingDag,
    fabric: &mut Fabric,
    scratch: &mut DagScratch,
    opts: SimOptions,
) -> Result<ScheduledRun, SimError> {
    let wtimes = dag
        .wtime_counts
        .iter()
        .map(|&n| Vec::with_capacity(n as usize * dag.rounds))
        .collect();
    DagRun {
        dag,
        fabric,
        s: scratch,
        deadline: opts.deadline.map(|d| SimTime::ZERO + d),
        wtimes,
    }
    .run()
}

/// A compiled DAG pinned to one cluster, with a resettable fabric and
/// reused scratch: the one way a [`TimingDag`] is evaluated.
///
/// Each [`run`](DagEvaluator::run) resets the fabric in place
/// ([`Fabric::reset`]) instead of re-cloning the cluster model, so a
/// cell's whole repetition stream shares one allocation set.
#[derive(Debug)]
pub struct DagEvaluator {
    dag: Arc<TimingDag>,
    fabric: Fabric,
    scratch: DagScratch,
}

impl DagEvaluator {
    /// Pins `dag` to `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if the DAG's rank count exceeds the cluster's slots or the
    /// cluster's eager threshold differs from the compile-time one.
    pub fn new(cluster: &ClusterModel, dag: Arc<TimingDag>) -> DagEvaluator {
        check_dag(cluster, &dag);
        DagEvaluator {
            dag,
            fabric: Fabric::new(cluster.clone(), 0),
            scratch: DagScratch::default(),
        }
    }

    /// The compiled DAG this evaluator runs.
    pub fn dag(&self) -> &TimingDag {
        &self.dag
    }

    /// One repetition under `seed` and `opts`. The report and clock
    /// reads are bit-identical to what [`crate::simulate_with`] yields
    /// for the recorded program with the same cluster, seed and options,
    /// including `SimError` values under fault plans and watchdog
    /// deadlines.
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate_with`].
    pub fn run(&mut self, seed: u64, opts: SimOptions) -> Result<ScheduledRun, SimError> {
        self.fabric.reset(seed);
        if opts.traced {
            self.fabric.enable_tracing();
        } else {
            self.fabric.disable_tracing();
        }
        run_once(&self.dag, &mut self.fabric, &mut self.scratch, opts)
    }

    /// `n` repetitions under seeds `base_seed + i` (wrapping), the
    /// convention of the adaptive measurement tiers.
    ///
    /// # Errors
    ///
    /// Fails on the first repetition that fails, same as
    /// [`crate::simulate_with`].
    pub fn evaluate_reps(
        &mut self,
        base_seed: u64,
        n: usize,
        opts: SimOptions,
    ) -> Result<Vec<ScheduledRun>, SimError> {
        (0..n)
            .map(|i| self.run(base_seed.wrapping_add(i as u64), opts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::ctx::Ctx;
    use crate::schedule::record_schedule;
    use crate::sim::simulate_with;
    use collsel_netsim::{FaultPlan, SimSpan};
    use collsel_support::Bytes;

    /// Sends both below and above the eager threshold, plus barrier and
    /// wtime traffic. Nonblocking, so the ring is deadlock-free at
    /// rendezvous sizes too. Returns the clock reads.
    fn mixed_ring<C: Comm>(ctx: &mut C, bytes: usize) -> Vec<SimTime> {
        ctx.barrier();
        let t0 = ctx.wtime();
        ring_exchange(ctx, bytes);
        ctx.barrier();
        vec![t0, ctx.wtime()]
    }

    /// `program` on the thread-per-rank engine, in the shape the
    /// evaluator reports: each rank returns its clock reads.
    fn threaded(
        cluster: &ClusterModel,
        p: usize,
        seed: u64,
        opts: SimOptions,
        program: impl Fn(&mut Ctx) -> Vec<SimTime> + Sync,
    ) -> Result<ScheduledRun, SimError> {
        simulate_with(cluster, p, seed, opts, program).map(|out| ScheduledRun {
            report: out.report,
            wtimes: out.results,
        })
    }

    /// Records `mixed_ring` at `p` ranks.
    fn record_ring(cluster: &ClusterModel, p: usize, bytes: usize) -> Schedule {
        record_schedule(cluster, p, move |rc| {
            mixed_ring(rc, bytes);
        })
        .expect("ring records cleanly")
    }

    /// The point-to-point part of [`mixed_ring`]: what a rank group can
    /// run.
    fn ring_exchange<C: Comm>(ctx: &mut C, bytes: usize) {
        let p = ctx.size();
        let next = (ctx.rank() + 1) % p;
        let prev = (ctx.rank() + p - 1) % p;
        let r0 = ctx.irecv(prev, 0);
        let s0 = ctx.isend(next, 0, Bytes::from(vec![1u8; bytes]));
        let _ = ctx.wait_recv(r0);
        ctx.wait_send(s0);
        let r1 = ctx.irecv(next, 1);
        let s1 = ctx.isend(prev, 1, Bytes::from(vec![2u8; 64]));
        let _ = ctx.wait_recv(r1);
        ctx.wait_send(s1);
    }

    /// [`TimingDag::compile`] of the flat stream as it was built before
    /// the sorted-halves construction: a `BTreeMap` of per-channel send
    /// and receive lists and a per-rank `HashMap` from request id to
    /// slot. Kept as the oracle for edge numbering and slot wiring.
    #[allow(clippy::type_complexity)]
    fn compile_reference(cluster: &ClusterModel, sched: &Schedule) -> TimingDag {
        use std::collections::{BTreeMap, HashMap};

        let p = sched.ranks();
        let eager_threshold = cluster.eager_threshold();
        let mut ops: Vec<DagOp> = Vec::new();
        let mut rank_bounds = Vec::with_capacity(p + 1);
        let mut wait_slots: Vec<u32> = Vec::new();
        let mut wait_reqs: Vec<ReqId> = Vec::new();
        let mut wtime_counts = vec![0u32; p];
        let mut slots: u32 = 0;
        let mut slot_wait: Vec<u32> = Vec::new();
        let mut slot_rank: Vec<u32> = Vec::new();
        // Channel -> (sends: (op, slot, bytes), recvs: (op, slot)), in
        // program order per side. A BTreeMap keeps edge numbering
        // deterministic (the numbering never affects timing, but a
        // reproducible compile is easier to debug).
        type SendEnt = (u32, u32, usize);
        type RecvEnt = (u32, u32);
        let mut channels: BTreeMap<(u32, u32, u32), (Vec<SendEnt>, Vec<RecvEnt>)> = BTreeMap::new();
        let mut req_slot: HashMap<ReqId, u32> = HashMap::new();

        for (rank, rops) in sched.flattened().ops.iter().enumerate() {
            rank_bounds.push(ops.len() as u32);
            req_slot.clear();
            for op in rops {
                let idx = ops.len() as u32;
                match op {
                    SchedOp::Isend { req, dst, tag, len } => {
                        let slot = slots;
                        slots += 1;
                        slot_wait.push(NONE_IDX);
                        slot_rank.push(rank as u32);
                        req_slot.insert(*req, slot);
                        channels
                            .entry((rank as u32, *dst as u32, *tag))
                            .or_default()
                            .0
                            .push((idx, slot, *len));
                        ops.push(DagOp::Send { edge: NONE_IDX });
                    }
                    SchedOp::Irecv { req, src, tag } => {
                        let slot = slots;
                        slots += 1;
                        slot_wait.push(NONE_IDX);
                        slot_rank.push(rank as u32);
                        req_slot.insert(*req, slot);
                        channels
                            .entry((*src as u32, rank as u32, *tag))
                            .or_default()
                            .1
                            .push((idx, slot));
                        ops.push(DagOp::Recv { edge: NONE_IDX });
                    }
                    SchedOp::Wait { reqs } => {
                        let off = wait_slots.len() as u32;
                        for id in reqs {
                            let slot = *req_slot
                                .get(id)
                                .expect("waited request was posted earlier in program order");
                            wait_slots.push(slot);
                            wait_reqs.push(*id);
                            slot_wait[slot as usize] = idx;
                        }
                        ops.push(DagOp::Wait {
                            off,
                            len: reqs.len() as u32,
                        });
                    }
                    SchedOp::Barrier => ops.push(DagOp::Barrier),
                    SchedOp::Wtime => {
                        wtime_counts[rank] += 1;
                        ops.push(DagOp::Wtime);
                    }
                }
            }
        }
        rank_bounds.push(ops.len() as u32);

        let mut edges = Vec::new();
        for ((src, dst, _tag), (sends, recvs)) in &channels {
            for k in 0..sends.len().max(recvs.len()) {
                let edge = edges.len() as u32;
                let bytes = sends.get(k).map_or(0, |&(_, _, b)| b);
                edges.push(DagEdge {
                    src: *src,
                    dst: *dst,
                    bytes,
                    eager: bytes <= eager_threshold,
                    send_slot: sends.get(k).map_or(NONE_IDX, |&(_, s, _)| s),
                    recv_slot: recvs.get(k).map_or(NONE_IDX, |&(_, s)| s),
                });
                if let Some(&(op, _, _)) = sends.get(k) {
                    ops[op as usize] = DagOp::Send { edge };
                }
                if let Some(&(op, _)) = recvs.get(k) {
                    ops[op as usize] = DagOp::Recv { edge };
                }
            }
        }

        let mut next_block = vec![0u32; ops.len()];
        for r in 0..p {
            let (start, end) = (rank_bounds[r] as usize, rank_bounds[r + 1] as usize);
            let mut nb = end as u32;
            for i in (start..end).rev() {
                if ops[i].is_block() {
                    nb = i as u32;
                }
                next_block[i] = nb;
            }
        }

        TimingDag {
            p,
            eager_threshold,
            ops,
            rank_bounds,
            next_block,
            edges,
            wait_slots,
            wait_reqs,
            slots: slots as usize,
            slot_wait,
            slot_rank,
            wtime_counts,
            rounds: 1,
            round_reqs: sched.flattened().reqs,
        }
    }

    fn assert_identical(a: &ScheduledRun, b: &ScheduledRun) {
        assert_eq!(a.report.finish_times, b.report.finish_times);
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.report.messages, b.report.messages);
        assert_eq!(a.report.bytes, b.report.bytes);
        assert_eq!(a.report.shm_messages, b.report.shm_messages);
        assert_eq!(a.report.trace, b.report.trace);
        assert_eq!(a.wtimes, b.wtimes);
    }

    /// One evaluation of `dag` under `seed` on a fresh evaluator.
    fn evaluate(
        cluster: &ClusterModel,
        dag: &Arc<TimingDag>,
        seed: u64,
        opts: SimOptions,
    ) -> Result<ScheduledRun, SimError> {
        DagEvaluator::new(cluster, Arc::clone(dag)).run(seed, opts)
    }

    #[test]
    fn dag_matches_threads_bit_for_bit_eager_and_rendezvous() {
        let cluster = ClusterModel::grisou();
        for bytes in [512usize, 256 * 1024] {
            let sched = record_ring(&cluster, 6, bytes);
            let dag = Arc::new(TimingDag::compile(&cluster, &sched).expect("compiles"));
            for seed in [0u64, 1, 42, 0xDEAD] {
                let opts = SimOptions {
                    traced: true,
                    deadline: None,
                };
                let oracle =
                    threaded(&cluster, 6, seed, opts, |c| mixed_ring(c, bytes)).expect("threads");
                let fast = evaluate(&cluster, &dag, seed, opts).expect("dag");
                assert_identical(&oracle, &fast);
            }
        }
    }

    #[test]
    fn compile_builds_the_dag_the_map_based_construction_built() {
        use collsel_support::rng::StdRng;

        let cluster = ClusterModel::gros();
        for bytes in [512usize, 256 * 1024] {
            let sched = record_ring(&cluster, 6, bytes);
            let dag = TimingDag::compile(&cluster, &sched).expect("compiles");
            assert!(dag == compile_reference(&cluster, &sched), "mixed ring");
        }

        // A generated step: ring exchanges on random overlapping rank
        // groups, some run twice in a row (several messages per
        // channel), each call in its own tag window.
        let world = 16;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut step = Schedule::idle(&cluster, world);
        for call in 0..24u32 {
            let mut members: Vec<usize> =
                (0..world).filter(|_| rng.gen_range(0..3u32) == 0).collect();
            if members.len() < 2 {
                members = vec![0, world - 1];
            }
            if rng.gen_range(0..2u32) == 0 {
                members.reverse();
            }
            let bytes = if call % 2 == 0 { 2048 } else { 128 * 1024 };
            let template = record_schedule(&cluster, members.len(), move |rc| {
                ring_exchange(rc, bytes);
            })
            .expect("ring records cleanly")
            .repeated(1 + call as usize % 3);
            step.embed(&template, &members, call * crate::GROUP_TAG_STRIDE)
                .expect("a valid group and no barrier");
        }
        let dag = TimingDag::compile(&cluster, &step).expect("compiles");
        assert!(dag.edge_count() > 24 * 4 && dag.op_count() == step.total_ops());
        assert!(dag == compile_reference(&cluster, &step), "generated step");
    }

    #[test]
    fn dag_matches_threads_under_faults() {
        let base = ClusterModel::gros();
        let dag = Arc::new(
            TimingDag::compile(&base, &record_ring(&base, 5, 128 * 1024)).expect("compiles"),
        );
        for spec in ["degraded-link:3", "straggler:11", "brownout:5", "chaos:7"] {
            let plan = FaultPlan::parse(spec, base.nodes()).expect("canned plan");
            let faulted = base.clone().with_faults(plan);
            for seed in [2u64, 99] {
                let opts = SimOptions::default();
                let oracle = threaded(&faulted, 5, seed, opts, |c| mixed_ring(c, 128 * 1024))
                    .expect("threads");
                let fast = evaluate(&faulted, &dag, seed, opts).expect("dag");
                assert_identical(&oracle, &fast);
            }
        }
    }

    #[test]
    fn dag_timeout_matches_threads_error_exactly() {
        let cluster = ClusterModel::gros();
        let dag = Arc::new(
            TimingDag::compile(&cluster, &record_ring(&cluster, 4, 64 * 1024)).expect("compiles"),
        );
        let opts = SimOptions::with_deadline(SimSpan::from_nanos(10));
        let oracle = threaded(&cluster, 4, 3, opts, |c| mixed_ring(c, 64 * 1024))
            .expect_err("deadline must trip");
        let fast = evaluate(&cluster, &dag, 3, opts).expect_err("deadline must trip");
        assert_eq!(oracle, fast, "timeout errors must be value-identical");
    }

    /// A schedule of `k` rounds compiles to one looped round, which
    /// evaluates as its flat stream does and as the threaded engine runs
    /// the `k` rounds: on both sides of the eager threshold, under a
    /// fault plan, and with a deadline that trips in a later round (the
    /// timeout names the requests by their flat ids).
    #[test]
    fn looped_rounds_match_the_flat_stream_and_threads() {
        let base = ClusterModel::gros();
        let p = 5;
        let traced = SimOptions {
            traced: true,
            deadline: None,
        };
        for bytes in [512usize, 128 * 1024] {
            let one = record_ring(&base, p, bytes);
            for k in [1, 2, 3, 5] {
                let sched = one.repeated(k);
                let looped = Arc::new(TimingDag::compile(&base, &sched).expect("compiles"));
                assert_eq!((looped.rounds(), looped.op_count()), (k, one.total_ops()));
                let flat =
                    Arc::new(TimingDag::compile(&base, &sched.flattened()).expect("compiles"));
                assert_eq!((flat.rounds(), flat.op_count()), (1, k * one.total_ops()));
                let rounds = |c: &mut Ctx| -> Vec<SimTime> {
                    (0..k).flat_map(|_| mixed_ring(c, bytes)).collect()
                };
                for spec in ["none", "chaos:7"] {
                    let plan = FaultPlan::parse(spec, base.nodes()).expect("canned plan");
                    let cluster = base.clone().with_faults(plan);
                    for seed in [2u64, 99] {
                        let oracle = threaded(&cluster, p, seed, traced, rounds).expect("threads");
                        let fast = evaluate(&cluster, &looped, seed, traced).expect("looped");
                        assert_identical(&oracle, &fast);
                        assert_identical(
                            &fast,
                            &evaluate(&cluster, &flat, seed, traced).expect("flat"),
                        );
                        if k < 2 {
                            continue;
                        }
                        // Halfway through the last round's ring exchange.
                        let last = &fast.wtimes[0][2 * (k - 1)..];
                        let deadline = last[0].saturating_since(SimTime::ZERO)
                            + last[1].saturating_since(last[0]) / 2;
                        let opts = SimOptions::with_deadline(deadline);
                        let oracle = threaded(&cluster, p, seed, opts, rounds).expect_err("trips");
                        let fast = evaluate(&cluster, &looped, seed, opts).expect_err("trips");
                        assert_eq!(oracle, fast, "{k} rounds, {spec}, seed {seed}");
                        assert_eq!(
                            fast,
                            evaluate(&cluster, &flat, seed, opts).expect_err("trips")
                        );
                    }
                }
            }
        }
    }

    /// Rounds that do not open with a barrier, or whose messages cross
    /// into the next round, are lowered as the flat stream.
    #[test]
    fn rounds_that_cannot_loop_compile_flat() {
        let cluster = ClusterModel::gros();
        let no_barrier =
            record_schedule(&cluster, 4, |rc| ring_exchange(rc, 2048)).expect("records");
        // Rank 0's second send of a round is received in the next one.
        let crossing = record_schedule(&cluster, 2, |rc| {
            rc.barrier();
            if rc.rank() == 0 {
                rc.send(1, 0, Bytes::from_static(b"x"));
                rc.send(1, 0, Bytes::from_static(b"y"));
            } else {
                let _ = rc.recv(0, 0);
            }
        })
        .expect("records");
        for one in [no_barrier, crossing] {
            let sched = one.repeated(3);
            let dag = TimingDag::compile(&cluster, &sched).expect("compiles");
            assert_eq!((dag.rounds(), dag.op_count()), (1, 3 * one.total_ops()));
            assert!(dag == compile_reference(&cluster, &sched));
        }
    }

    #[test]
    fn reused_evaluator_matches_a_fresh_one_per_seed() {
        let cluster = ClusterModel::grisou();
        let sched = record_ring(&cluster, 8, 4096);
        let dag = Arc::new(TimingDag::compile(&cluster, &sched).expect("compiles"));
        let mut ev = DagEvaluator::new(&cluster, Arc::clone(&dag));
        let reps = ev
            .evaluate_reps(100, 5, SimOptions::default())
            .expect("reps run");
        for (i, rep) in reps.iter().enumerate() {
            let solo = evaluate(&cluster, &dag, 100 + i as u64, SimOptions::default())
                .expect("fresh evaluator");
            assert_identical(rep, &solo);
        }
    }

    #[test]
    fn oversized_schedule_is_rejected_not_truncated() {
        let cluster = ClusterModel::gros();
        let sched = record_ring(&cluster, 4, 1024);
        // Exercise the guard with a tiny cap (a real >u32::MAX schedule
        // would need >64 GiB of ops); the public entry point uses the
        // same code path with cap = MAX_OPS.
        let cap = sched.total_ops() - 1;
        let err = TimingDag::compile_capped(&cluster, &sched, cap)
            .expect_err("over-cap schedule must be rejected");
        assert_eq!(
            err,
            CompileError::TooLarge {
                ops: sched.total_ops(),
                max: cap,
            }
        );
        assert!(err.to_string().contains("index space"));
        // At exactly the cap the schedule still compiles, and the
        // public entry point accepts it too.
        assert!(TimingDag::compile_capped(&cluster, &sched, sched.total_ops()).is_ok());
        assert!(TimingDag::compile(&cluster, &sched).is_ok());
    }

    /// A deadlock that exists only in time records fine and is reported
    /// by the DAG with the threaded engine's exact error: rank 0 blocks
    /// in a rendezvous-sized send nobody receives, rank 1 waits in the
    /// barrier before its send to rank 2, and rank 2 receives before
    /// the barrier.
    #[test]
    fn a_deadlock_in_time_is_the_threaded_engine_s_deadlock(
    ) -> Result<(), Box<dyn std::error::Error>> {
        fn stuck<C: Comm>(c: &mut C) -> Vec<SimTime> {
            match c.rank() {
                0 => {
                    c.send(1, 5, Bytes::from(vec![0u8; 1 << 20]));
                    c.barrier();
                }
                1 => {
                    c.barrier();
                    c.send(2, 0, Bytes::from_static(b"x"));
                }
                _ => {
                    let _ = c.recv(1, 0);
                    c.barrier();
                }
            }
            Vec::new()
        }
        let cluster = ClusterModel::gros();
        // Recording cannot see the deadlock: no receive lacks its send.
        let sched = record_schedule(&cluster, 3, |rc| {
            stuck(rc);
        })?;
        let dag = Arc::new(TimingDag::compile(&cluster, &sched)?);
        let opts = SimOptions::default();
        let oracle = threaded(&cluster, 3, 7, opts, stuck::<Ctx>).expect_err("deadlocks");
        let fast = evaluate(&cluster, &dag, 7, opts).expect_err("deadlocks");
        let SimError::Deadlock { detail } = &oracle else {
            panic!("expected Deadlock, got {oracle:?}");
        };
        for blocked in [
            "rank 0: blocked on wait on req 0 at",
            "rank 1: blocked on barrier at",
            "rank 2: blocked on wait on req 0 at",
        ] {
            assert!(detail.contains(blocked), "{detail}");
        }
        assert_eq!(oracle, fast, "deadlock errors must be value-identical");
        Ok(())
    }

    #[test]
    fn unreceived_eager_send_still_completes_and_books_traffic() {
        let cluster = ClusterModel::gros();
        // Rank 0 sends a small message nobody receives; both ranks
        // finish (the eager send completes at send_done).
        fn orphan<C: Comm>(c: &mut C) -> Vec<SimTime> {
            if c.rank() == 0 {
                c.send(1, 9, Bytes::from_static(b"orphan"));
            }
            // A matched pair keeps the recording run meaningful.
            if c.rank() == 0 {
                c.send(1, 0, Bytes::from_static(b"x"));
            } else {
                let _ = c.recv(0, 0);
            }
            Vec::new()
        }
        let sched = record_schedule(&cluster, 2, |rc| {
            orphan(rc);
        })
        .expect("records");
        let dag = Arc::new(TimingDag::compile(&cluster, &sched).expect("compiles"));
        let oracle = threaded(&cluster, 2, 5, SimOptions::default(), orphan::<Ctx>).expect("ok");
        let fast = evaluate(&cluster, &dag, 5, SimOptions::default()).expect("ok");
        assert_identical(&oracle, &fast);
        assert_eq!(fast.report.messages, 2, "orphan eager send hits the wire");
    }
}
