//! The central scheduler of the simulated MPI runtime.
//!
//! One engine instance drives one simulation run. Rank threads execute
//! real user code; every communication call becomes a message to the
//! engine, which owns all simulation state: per-rank virtual clocks,
//! request tables, match queues and the network [`Fabric`].
//!
//! # Scheduling discipline
//!
//! The engine is **conservative**: it only lets virtual time move forward.
//! The loop alternates three phases:
//!
//! 1. *Drain* — wait until every rank thread is parked in a blocking call
//!    (or finished). Per-rank message order equals program order, so by
//!    the time a rank's `Block` arrives, all its earlier posts are queued.
//! 2. *Apply* — apply the queued operations of all ranks merged in
//!    ascending local-time order (ties broken by rank, then program
//!    order), charging CPU overheads and booking NIC time on the fabric.
//! 3. *Resume* — among blocked ranks whose wait condition is satisfied,
//!    wake exactly the ones with the minimal resume time (all ties).
//!    Every operation a woken rank subsequently issues carries a local
//!    time ≥ that minimum, so no later operation can affect an earlier
//!    instant: causality holds without rollback.
//!
//! If no rank is resumable while some are still blocked, the program has
//! deadlocked and the engine reports which rank waits on what.
//!
//! # Protocol modelling
//!
//! Sends at or below the cluster's eager threshold are *eager*: the
//! transfer is booked immediately and the payload waits at the receiver
//! if no receive is posted. Larger sends use a *rendezvous*: the payload
//! leaves the sender only after an RTS/CTS handshake with the matching
//! receive, adding two control-message latencies. Receive completion
//! additionally charges the receiver's CPU overhead.
//!
//! # Hot-path layout
//!
//! Tuning campaigns run tens of thousands of short simulations, so the
//! per-run cost of this file matters. Request state lives in an
//! index-keyed [`ReqTable`] slab (request ids are allocated
//! monotonically per rank, so a ring of slots with a sliding base
//! replaces hashing), and all per-rank vectors plus the scheduling heap
//! are recycled across runs through [`EngineScratch`] instead of being
//! reallocated per `simulate()` call.

use crate::error::SimError;
use crate::msg::{Peer, Tag, TagSel};
use crate::proto::{BlockOp, Completion, PostOp, RankMsg, ReqId, Resume, WaitMode};
use collsel_netsim::{Fabric, FabricStats, SimTime};
use collsel_support::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};

/// How the engine exchanges messages with its ranks: ranks are OS
/// threads; their messages arrive over one mpsc channel and resumes are
/// sent back over per-rank channels. Used by [`crate::simulate`] and
/// [`crate::simulate_pooled`].
///
/// Because `apply_pending` merges per-rank queues by (local time, rank,
/// program order), the cross-rank arrival interleaving of the channel
/// never influences results.
pub(crate) struct ChannelTransport {
    pub(crate) from_ranks: Receiver<RankMsg>,
    pub(crate) resume_tx: Vec<Sender<Resume>>,
}

impl ChannelTransport {
    /// Blocking-receives the next rank message; `None` means every
    /// rank thread died.
    fn next_msg(&mut self) -> Option<RankMsg> {
        self.from_ranks.recv().ok()
    }

    /// Delivers a resume to `rank`, whose blocking op finished at `now`.
    fn deliver(&mut self, rank: usize, now: SimTime, completions: Vec<Completion>) {
        // A send failure means the rank thread died; the subsequent
        // drain will surface its panic message.
        let _ = self.resume_tx[rank].send(Resume::Ready { now, completions });
    }

    /// Tears the ranks down after a fatal error.
    fn abort(&mut self) {
        for tx in &self.resume_tx {
            let _ = tx.send(Resume::Abort);
        }
    }
}

/// Where a rank currently stands, from the engine's point of view.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Status {
    Running,
    Blocked,
    Done,
}

/// Engine-side state of one request.
#[derive(Debug)]
struct ReqState {
    complete_at: Option<SimTime>,
    payload: Option<Bytes>,
    origin: Option<(usize, Tag)>,
}

impl ReqState {
    fn pending() -> Self {
        ReqState {
            complete_at: None,
            payload: None,
            origin: None,
        }
    }
}

/// Per-rank request table: a slab keyed by request index.
///
/// [`ReqId`]s are allocated monotonically per rank, and requests are
/// short-lived (posted, completed, waited, removed), so the live ids of
/// a rank always form a narrow window. The table stores that window as
/// a deque of slots starting at `base`; [`remove`](ReqTable::remove)
/// reclaims the contiguous vacant prefix, sliding the window forward so
/// long campaigns reuse a handful of slots instead of growing a hash
/// table — and lookups are a bounds check plus an index instead of a
/// hash.
#[derive(Debug, Default)]
struct ReqTable {
    /// Id of the request stored in `slots[0]`.
    base: ReqId,
    /// `slots[i]` holds the state of request `base + i` (None = vacant:
    /// either removed out of order or never inserted).
    slots: VecDeque<Option<ReqState>>,
}

impl ReqTable {
    fn clear(&mut self) {
        self.base = 0;
        self.slots.clear();
    }

    fn insert(&mut self, req: ReqId, state: ReqState) {
        debug_assert!(req >= self.base, "request ids are monotone per rank");
        let idx = (req - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        debug_assert!(self.slots[idx].is_none(), "request id {req} reused");
        self.slots[idx] = Some(state);
    }

    fn get(&self, req: ReqId) -> Option<&ReqState> {
        let idx = req.checked_sub(self.base)? as usize;
        self.slots.get(idx)?.as_ref()
    }

    fn get_mut(&mut self, req: ReqId) -> Option<&mut ReqState> {
        let idx = req.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    fn remove(&mut self, req: ReqId) -> Option<ReqState> {
        let idx = req.checked_sub(self.base)? as usize;
        let state = self.slots.get_mut(idx)?.take();
        // Slide the window past the vacant prefix so the slab stays as
        // small as the set of live requests.
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        state
    }

    #[cfg(test)]
    fn live_slots(&self) -> usize {
        self.slots.len()
    }
}

/// Recyclable per-run buffers of the engine.
///
/// One simulation allocates ~10 vectors sized by the rank count plus a
/// scheduling heap; a tuning campaign runs tens of thousands of
/// simulations. The caller (see `crate::sim`) keeps one scratch per OS
/// thread and threads it through consecutive runs, so those allocations
/// happen once per campaign instead of once per run. Recycling is
/// invisible to results: [`reset`](EngineScratch::reset) restores the
/// exact state a fresh allocation would have.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    local: Vec<SimTime>,
    status: Vec<Status>,
    blocked_op: Vec<Option<BlockOp>>,
    reqs: Vec<ReqTable>,
    posted_recvs: Vec<VecDeque<PostedRecv>>,
    unexpected: Vec<VecDeque<UnexpectedSend>>,
    pending: Vec<VecDeque<RankMsg>>,
    finish_times: Vec<SimTime>,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
}

/// Rank capacity kept alive in recycled scratch (and rank teams): a
/// one-off oversized run (say P=512) must not pin its buffers for the
/// rest of a campaign that otherwise runs at P≤128.
pub(crate) const RECYCLE_RANK_CAP: usize = 256;

impl EngineScratch {
    /// Drops capacity beyond `cap` ranks (and oversized per-rank
    /// queues) so a stashed scratch never pins an outlier run's
    /// buffers. A no-op for runs at or below the cap.
    pub(crate) fn shrink_to_ranks(&mut self, cap: usize) {
        self.local.truncate(cap);
        self.local.shrink_to(cap);
        self.status.truncate(cap);
        self.status.shrink_to(cap);
        self.blocked_op.truncate(cap);
        self.blocked_op.shrink_to(cap);
        self.finish_times.truncate(cap);
        self.finish_times.shrink_to(cap);
        self.reqs.truncate(cap);
        self.reqs.shrink_to(cap);
        for t in &mut self.reqs {
            t.slots.shrink_to(cap);
        }
        self.posted_recvs.truncate(cap);
        self.posted_recvs.shrink_to(cap);
        for q in &mut self.posted_recvs {
            q.shrink_to(cap);
        }
        self.unexpected.truncate(cap);
        self.unexpected.shrink_to(cap);
        for q in &mut self.unexpected {
            q.shrink_to(cap);
        }
        self.pending.truncate(cap);
        self.pending.shrink_to(cap);
        for q in &mut self.pending {
            q.shrink_to(cap);
        }
        self.heap.shrink_to(cap);
    }

    /// Total rank capacity currently held (the largest per-rank vector).
    #[cfg(test)]
    pub(crate) fn rank_capacity(&self) -> usize {
        self.local
            .capacity()
            .max(self.status.capacity())
            .max(self.reqs.capacity())
            .max(self.pending.capacity())
    }

    fn reset(&mut self, p: usize) {
        self.local.clear();
        self.local.resize(p, SimTime::ZERO);
        self.status.clear();
        self.status.resize(p, Status::Running);
        self.blocked_op.clear();
        self.blocked_op.resize_with(p, || None);
        self.reqs.truncate(p);
        self.reqs.iter_mut().for_each(ReqTable::clear);
        self.reqs.resize_with(p, ReqTable::default);
        self.posted_recvs.truncate(p);
        self.posted_recvs.iter_mut().for_each(VecDeque::clear);
        self.posted_recvs.resize_with(p, VecDeque::new);
        self.unexpected.truncate(p);
        self.unexpected.iter_mut().for_each(VecDeque::clear);
        self.unexpected.resize_with(p, VecDeque::new);
        self.pending.truncate(p);
        self.pending.iter_mut().for_each(VecDeque::clear);
        self.pending.resize_with(p, VecDeque::new);
        self.finish_times.clear();
        self.finish_times.resize(p, SimTime::ZERO);
        self.heap.clear();
    }
}

/// A posted but unmatched receive.
#[derive(Debug)]
struct PostedRecv {
    req: ReqId,
    src: Peer,
    tag: TagSel,
    posted_at: SimTime,
}

/// How an unmatched incoming send will complete once matched.
#[derive(Debug)]
enum Arrival {
    /// Payload already travelling/buffered; fully delivered at this time.
    Eager { delivered: SimTime },
    /// Rendezvous send waiting for its matching receive.
    Rendezvous { send_req: ReqId, posted_at: SimTime },
}

/// An incoming send with no matching posted receive yet.
#[derive(Debug)]
struct UnexpectedSend {
    src: usize,
    tag: Tag,
    payload: Bytes,
    arrival: Arrival,
}

/// Summary handed back to [`crate::simulate`] when the run completes.
#[derive(Debug, Clone)]
pub(crate) struct EngineReport {
    pub finish_times: Vec<SimTime>,
    pub stats: FabricStats,
    pub trace: Vec<collsel_netsim::TransferRecord>,
}

pub(crate) struct Engine {
    fabric: Fabric,
    p: usize,
    scratch: EngineScratch,
    running: usize,
    transport: ChannelTransport,
    /// Virtual-time watchdog: if the next possible resume time lies past
    /// this instant, the run is aborted with [`SimError::Timeout`].
    deadline: Option<SimTime>,
}

impl Engine {
    pub(crate) fn new(
        fabric: Fabric,
        p: usize,
        transport: ChannelTransport,
        deadline: Option<SimTime>,
        mut scratch: EngineScratch,
    ) -> Self {
        scratch.reset(p);
        Engine {
            fabric,
            p,
            scratch,
            running: p,
            transport,
            deadline,
        }
    }

    /// Runs the simulation to completion, returning the outcome and the
    /// scratch buffers for the next run to reuse.
    pub(crate) fn run(mut self) -> (Result<EngineReport, SimError>, EngineScratch) {
        let result = self.run_inner();
        (result, self.scratch)
    }

    fn run_inner(&mut self) -> Result<EngineReport, SimError> {
        loop {
            if let Err(e) = self.drain() {
                self.abort_all();
                return Err(e);
            }
            self.apply_pending();
            if self.scratch.status.iter().all(|s| *s == Status::Done) {
                let stats = self.fabric.stats();
                let trace = self.fabric.take_trace();
                return Ok(EngineReport {
                    finish_times: self.scratch.finish_times.clone(),
                    stats,
                    trace,
                });
            }
            match self.resume_minimal() {
                Ok(0) => {
                    let detail = self.deadlock_detail();
                    self.abort_all();
                    return Err(SimError::Deadlock { detail });
                }
                Ok(_) => {}
                Err(e) => {
                    self.abort_all();
                    return Err(e);
                }
            }
        }
    }

    /// Phase 1: receive rank messages until no rank is running.
    fn drain(&mut self) -> Result<(), SimError> {
        while self.running > 0 {
            let msg = self
                .transport
                .next_msg()
                .ok_or_else(|| SimError::Deadlock {
                    detail: "all rank threads disappeared while still marked running".to_owned(),
                })?;
            match &msg {
                RankMsg::Post { .. } => {}
                RankMsg::Block { .. } | RankMsg::Finished { .. } => self.running -= 1,
                RankMsg::Panicked { rank, message } => {
                    return Err(SimError::RankPanic {
                        rank: *rank,
                        message: message.clone(),
                    });
                }
            }
            let rank = match &msg {
                RankMsg::Post { rank, .. }
                | RankMsg::Block { rank, .. }
                | RankMsg::Finished { rank } => *rank,
                RankMsg::Panicked { .. } => unreachable!(),
            };
            self.scratch.pending[rank].push_back(msg);
        }
        Ok(())
    }

    /// Phase 2: apply queued operations merged in ascending time order.
    fn apply_pending(&mut self) {
        debug_assert!(self.scratch.heap.is_empty());
        for r in 0..self.p {
            if !self.scratch.pending[r].is_empty() {
                self.scratch.heap.push(Reverse((self.scratch.local[r], r)));
            }
        }
        while let Some(Reverse((t, r))) = self.scratch.heap.pop() {
            if t != self.scratch.local[r] {
                // Stale key: the rank's clock advanced since this entry
                // was pushed; re-key it.
                self.scratch.heap.push(Reverse((self.scratch.local[r], r)));
                continue;
            }
            let Some(item) = self.scratch.pending[r].pop_front() else {
                continue;
            };
            self.apply(item);
            if !self.scratch.pending[r].is_empty() {
                self.scratch.heap.push(Reverse((self.scratch.local[r], r)));
            }
        }
    }

    fn apply(&mut self, msg: RankMsg) {
        match msg {
            RankMsg::Post { rank, op } => match op {
                PostOp::Isend {
                    req,
                    dst,
                    tag,
                    payload,
                } => self.apply_isend(rank, req, dst, tag, payload),
                PostOp::Irecv { req, src, tag } => self.apply_irecv(rank, req, src, tag),
                PostOp::Compute { span } => self.scratch.local[rank] += span,
            },
            RankMsg::Block { rank, op } => {
                debug_assert!(
                    self.scratch.pending[rank].is_empty(),
                    "protocol violation: rank {rank} issued operations after blocking"
                );
                self.scratch.status[rank] = Status::Blocked;
                self.scratch.blocked_op[rank] = Some(op);
            }
            RankMsg::Finished { rank } => {
                self.scratch.status[rank] = Status::Done;
                self.scratch.finish_times[rank] = self.scratch.local[rank];
            }
            RankMsg::Panicked { .. } => unreachable!("handled during drain"),
        }
    }

    fn apply_isend(&mut self, src: usize, req: ReqId, dst: usize, tag: Tag, payload: Bytes) {
        // The send call occupies the sending CPU (straggler-aware).
        self.scratch.local[src] += self.fabric.send_overhead(src);
        let ready = self.scratch.local[src];
        let bytes = payload.len();
        self.scratch.reqs[src].insert(req, ReqState::pending());

        if bytes <= self.fabric.cluster().eager_threshold() {
            let plan = self.fabric.plan_transfer(src, dst, bytes, ready);
            self.complete_req(src, req, plan.send_done, None, None);
            if let Some(recv) = self.take_matching_recv(dst, src, tag) {
                let done = plan.delivered.max(recv.posted_at) + self.fabric.recv_overhead(dst);
                self.complete_req(dst, recv.req, done, Some(payload), Some((src, tag)));
            } else {
                self.scratch.unexpected[dst].push_back(UnexpectedSend {
                    src,
                    tag,
                    payload,
                    arrival: Arrival::Eager {
                        delivered: plan.delivered,
                    },
                });
            }
        } else if let Some(recv) = self.take_matching_recv(dst, src, tag) {
            self.rendezvous(src, req, dst, recv.req, tag, payload, ready, recv.posted_at);
        } else {
            self.scratch.unexpected[dst].push_back(UnexpectedSend {
                src,
                tag,
                payload,
                arrival: Arrival::Rendezvous {
                    send_req: req,
                    posted_at: ready,
                },
            });
        }
    }

    fn apply_irecv(&mut self, dst: usize, req: ReqId, src: Peer, tag: TagSel) {
        let posted_at = self.scratch.local[dst];
        self.scratch.reqs[dst].insert(req, ReqState::pending());

        let matched = self.scratch.unexpected[dst]
            .iter()
            .position(|u| src.matches(u.src) && tag.matches(u.tag));
        if let Some(idx) = matched {
            let u = self.scratch.unexpected[dst]
                .remove(idx)
                .expect("index just found");
            match u.arrival {
                Arrival::Eager { delivered } => {
                    let done = delivered.max(posted_at) + self.fabric.recv_overhead(dst);
                    self.complete_req(dst, req, done, Some(u.payload), Some((u.src, u.tag)));
                }
                Arrival::Rendezvous {
                    send_req,
                    posted_at: send_posted,
                } => {
                    self.rendezvous(
                        u.src,
                        send_req,
                        dst,
                        req,
                        u.tag,
                        u.payload,
                        send_posted,
                        posted_at,
                    );
                }
            }
        } else {
            self.scratch.posted_recvs[dst].push_back(PostedRecv {
                req,
                src,
                tag,
                posted_at,
            });
        }
    }

    /// Books the data transfer of a rendezvous send whose receive has now
    /// been matched, completing both requests.
    #[allow(clippy::too_many_arguments)]
    fn rendezvous(
        &mut self,
        src: usize,
        send_req: ReqId,
        dst: usize,
        recv_req: ReqId,
        tag: Tag,
        payload: Bytes,
        send_posted: SimTime,
        recv_posted: SimTime,
    ) {
        let lc = self.fabric.control_latency();
        // RTS reaches the receiver, CTS returns once the receive exists.
        let ready = (send_posted + lc).max(recv_posted) + lc;
        let bytes = payload.len();
        let plan = self.fabric.plan_transfer(src, dst, bytes, ready);
        self.complete_req(src, send_req, plan.send_done, None, None);
        let done = plan.delivered + self.fabric.recv_overhead(dst);
        self.complete_req(dst, recv_req, done, Some(payload), Some((src, tag)));
    }

    /// Removes and returns the oldest posted receive at `dst` matching a
    /// message from `src` with `tag`.
    fn take_matching_recv(&mut self, dst: usize, src: usize, tag: Tag) -> Option<PostedRecv> {
        let idx = self.scratch.posted_recvs[dst]
            .iter()
            .position(|r| r.src.matches(src) && r.tag.matches(tag))?;
        self.scratch.posted_recvs[dst].remove(idx)
    }

    fn complete_req(
        &mut self,
        rank: usize,
        req: ReqId,
        at: SimTime,
        payload: Option<Bytes>,
        origin: Option<(usize, Tag)>,
    ) {
        let state = self.scratch.reqs[rank]
            .get_mut(req)
            .expect("request must exist when completed");
        debug_assert!(state.complete_at.is_none(), "request completed twice");
        state.complete_at = Some(at);
        state.payload = payload;
        state.origin = origin;
    }

    /// Checks the virtual-time watchdog against the next resume time.
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

    /// Phase 3: wake the blocked ranks with the minimal resume time.
    /// Returns the number of ranks resumed, or [`SimError::Timeout`]
    /// when that minimal resume time lies past the watchdog deadline.
    fn resume_minimal(&mut self) -> Result<usize, SimError> {
        // Barrier: only complete when every non-finished rank is in it.
        // A barrier only completes if every rank of the world can still
        // reach it; a rank that finished without it makes the program
        // erroneous (caught below as a deadlock).
        let mut alive = 0usize;
        let mut all_in_barrier = true;
        let mut barrier_t = SimTime::ZERO;
        for r in 0..self.p {
            if self.scratch.status[r] == Status::Done {
                continue;
            }
            alive += 1;
            if matches!(self.scratch.blocked_op[r], Some(BlockOp::Barrier)) {
                barrier_t = barrier_t.max(self.scratch.local[r]);
            } else {
                all_in_barrier = false;
            }
        }
        if alive == self.p && all_in_barrier {
            self.check_deadline(barrier_t)?;
            for r in 0..self.p {
                self.wake(r, barrier_t, Vec::new());
            }
            return Ok(alive);
        }

        // Everything else: find the minimal resume time over all blocked
        // ranks, then wake exactly the ranks that attain it. Two passes
        // keep this allocation-free; `wait_ready_at` is a cheap pure
        // scan of the rank's live requests.
        let mut best: Option<SimTime> = None;
        for r in 0..self.p {
            if let Some(at) = self.resume_at(r) {
                best = Some(best.map_or(at, |b: SimTime| b.min(at)));
            }
        }
        let Some(best) = best else { return Ok(0) };
        self.check_deadline(best)?;
        let mut woken = 0usize;
        for r in 0..self.p {
            if self.resume_at(r) != Some(best) {
                continue;
            }
            let op = self.scratch.blocked_op[r]
                .take()
                .expect("blocked rank has an op");
            let completions = match op {
                BlockOp::Wtime => Vec::new(),
                BlockOp::Barrier => unreachable!("barrier ranks have no resume time"),
                BlockOp::Wait { reqs, mode } => self.collect_completions(r, &reqs, mode),
            };
            self.wake(r, best, completions);
            woken += 1;
        }
        Ok(woken)
    }

    /// The earliest time at which rank `r` could resume, if it can.
    fn resume_at(&self, r: usize) -> Option<SimTime> {
        if self.scratch.status[r] != Status::Blocked {
            return None;
        }
        match self.scratch.blocked_op[r].as_ref() {
            Some(BlockOp::Wtime) => Some(self.scratch.local[r]),
            Some(BlockOp::Wait { reqs, mode }) => self.wait_ready_at(r, reqs, *mode),
            Some(BlockOp::Barrier) | None => None,
        }
    }

    /// The earliest time at which rank `r`'s wait can finish, if it can.
    fn wait_ready_at(&self, r: usize, reqs: &[ReqId], mode: WaitMode) -> Option<SimTime> {
        let times = reqs
            .iter()
            .map(|&id| self.scratch.reqs[r].get(id).and_then(|s| s.complete_at));
        match mode {
            WaitMode::All => {
                let mut at = self.scratch.local[r];
                for t in times {
                    at = at.max(t?);
                }
                Some(at)
            }
            WaitMode::Any => {
                let earliest = times.flatten().min()?;
                Some(earliest.max(self.scratch.local[r]))
            }
        }
    }

    /// Pops completed requests out of the table for the resume message.
    fn collect_completions(&mut self, r: usize, reqs: &[ReqId], mode: WaitMode) -> Vec<Completion> {
        match mode {
            WaitMode::All => reqs
                .iter()
                .map(|&id| {
                    let state = self.scratch.reqs[r]
                        .remove(id)
                        .expect("waited request exists");
                    Completion {
                        req: id,
                        payload: state.payload,
                        origin: state.origin,
                    }
                })
                .collect(),
            WaitMode::Any => {
                let (&winner, _) = reqs
                    .iter()
                    .filter_map(|id| {
                        self.scratch.reqs[r]
                            .get(*id)
                            .and_then(|s| s.complete_at)
                            .map(|t| (id, t))
                    })
                    .min_by_key(|&(id, t)| (t, *id))
                    .expect("wait-any resumed without a completed request");
                let state = self.scratch.reqs[r].remove(winner).expect("request exists");
                vec![Completion {
                    req: winner,
                    payload: state.payload,
                    origin: state.origin,
                }]
            }
        }
    }

    fn wake(&mut self, rank: usize, now: SimTime, completions: Vec<Completion>) {
        self.scratch.local[rank] = now;
        self.scratch.status[rank] = Status::Running;
        self.scratch.blocked_op[rank] = None;
        self.running += 1;
        self.transport.deliver(rank, now, completions);
    }

    fn abort_all(&mut self) {
        self.transport.abort();
    }

    fn deadlock_detail(&self) -> String {
        let mut parts = Vec::new();
        for r in 0..self.p {
            match self.scratch.status[r] {
                Status::Done => {}
                Status::Running => parts.push(format!("rank {r}: running (internal error)")),
                Status::Blocked => {
                    let what = match self.scratch.blocked_op[r].as_ref() {
                        Some(BlockOp::Barrier) => "barrier".to_owned(),
                        Some(BlockOp::Wtime) => "wtime (internal error)".to_owned(),
                        Some(BlockOp::Wait { reqs, mode }) => {
                            let outstanding: Vec<String> = reqs
                                .iter()
                                .filter(|&&id| {
                                    self.scratch.reqs[r]
                                        .get(id)
                                        .is_none_or(|s| s.complete_at.is_none())
                                })
                                .map(|id| format!("req {id}"))
                                .collect();
                            format!("wait[{mode:?}] on {}", outstanding.join(", "))
                        }
                        None => "unknown".to_owned(),
                    };
                    parts.push(format!(
                        "rank {r}: blocked on {what} at t={}",
                        self.scratch.local[r]
                    ));
                }
            }
        }
        parts.join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_at(t: u64) -> ReqState {
        ReqState {
            complete_at: Some(SimTime::from_nanos(t)),
            payload: None,
            origin: None,
        }
    }

    #[test]
    fn slab_inserts_and_removes_in_order() {
        let mut t = ReqTable::default();
        for id in 0..4u32 {
            t.insert(id, state_at(id as u64));
        }
        for id in 0..4u32 {
            assert_eq!(
                t.get(id).and_then(|s| s.complete_at),
                Some(SimTime::from_nanos(id as u64))
            );
            assert!(t.remove(id).is_some());
            assert!(t.get(id).is_none(), "removed request must read as absent");
        }
        assert_eq!(t.live_slots(), 0, "in-order removal reclaims everything");
    }

    #[test]
    fn slab_reuses_slots_across_the_id_window() {
        // A long campaign allocates monotonically increasing ids; the
        // slab must stay as small as the live window, not the id range.
        let mut t = ReqTable::default();
        for id in 0..10_000u32 {
            t.insert(id, ReqState::pending());
            assert!(t.get(id).is_some());
            assert!(t.remove(id).is_some());
        }
        assert_eq!(t.live_slots(), 0);
        // Fresh inserts after the window slid still work.
        t.insert(10_000, state_at(1));
        assert!(t.get(10_000).is_some());
        assert!(t.get(9_999).is_none(), "old ids stay absent");
    }

    #[test]
    fn slab_tolerates_out_of_order_removal() {
        let mut t = ReqTable::default();
        for id in 0..5u32 {
            t.insert(id, state_at(id as u64));
        }
        // Remove the middle first: the prefix cannot slide yet.
        assert!(t.remove(2).is_some());
        assert!(t.get(2).is_none());
        assert!(t.get(1).is_some() && t.get(3).is_some());
        assert_eq!(t.live_slots(), 5);
        // Removing the front reclaims through the vacant middle.
        assert!(t.remove(0).is_some());
        assert!(t.remove(1).is_some());
        assert_eq!(t.live_slots(), 2, "prefix slid past the vacant slot 2");
        assert!(t.remove(2).is_none(), "double remove reads as absent");
        assert!(t.remove(3).is_some());
        assert!(t.remove(4).is_some());
        assert_eq!(t.live_slots(), 0);
    }

    #[test]
    fn slab_mutation_through_get_mut() {
        let mut t = ReqTable::default();
        t.insert(7, ReqState::pending());
        t.get_mut(7).expect("live").complete_at = Some(SimTime::from_nanos(9));
        assert_eq!(
            t.get(7).and_then(|s| s.complete_at),
            Some(SimTime::from_nanos(9))
        );
        assert!(t.get_mut(6).is_none());
    }

    #[test]
    fn shrink_to_ranks_caps_recycled_capacity() {
        let mut s = EngineScratch::default();
        s.reset(512);
        assert!(s.rank_capacity() >= 512, "oversized run grows the scratch");
        s.shrink_to_ranks(RECYCLE_RANK_CAP);
        assert!(
            s.rank_capacity() <= RECYCLE_RANK_CAP,
            "shrink must cap capacity, found {}",
            s.rank_capacity()
        );
        // The scratch stays fully usable after shrinking.
        s.reset(8);
        assert_eq!(s.local.len(), 8);
        s.reset(300);
        assert_eq!(s.status.len(), 300);
    }

    #[test]
    fn scratch_reset_restores_a_fresh_state() {
        let mut s = EngineScratch::default();
        s.reset(3);
        s.local[1] = SimTime::from_nanos(5);
        s.status[2] = Status::Done;
        s.reqs[0].insert(0, ReqState::pending());
        s.heap.push(Reverse((SimTime::ZERO, 1)));
        // Shrinks and grows alike.
        for p in [2, 5] {
            s.reset(p);
            assert_eq!(s.local, vec![SimTime::ZERO; p]);
            assert_eq!(s.status, vec![Status::Running; p]);
            assert_eq!(s.reqs.len(), p);
            assert!(s.reqs.iter().all(|t| t.base == 0 && t.slots.is_empty()));
            assert!(s.heap.is_empty());
        }
    }
}
