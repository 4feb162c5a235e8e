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
//! # Request map
//!
//! Request state lives in an index-keyed [`ReqTable`] slab per rank:
//! request ids are allocated monotonically per rank, so a ring of slots
//! with a sliding base replaces hashing. Every other per-rank vector is
//! allocated afresh by [`Engine::new`] for each run.

use crate::comm::Tag;
use crate::error::SimError;
use crate::proto::{BlockOp, PostOp, RankMsg, ReqId, Resume};
use collsel_netsim::{Fabric, FabricStats, SimTime};
use collsel_support::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};

/// How the engine exchanges messages with its ranks: ranks are OS
/// threads; their messages arrive over one mpsc channel and resumes are
/// sent back over per-rank channels. Used by [`crate::simulate_with`].
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
    fn deliver(&mut self, rank: usize, now: SimTime, payloads: Vec<Bytes>) {
        // A send failure means the rank thread died; the subsequent
        // drain will surface its panic message.
        let _ = self.resume_tx[rank].send(Resume::Ready { now, payloads });
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
    /// The matched message's payload, for a completed receive.
    payload: Option<Bytes>,
}

impl ReqState {
    fn pending() -> Self {
        ReqState {
            complete_at: None,
            payload: None,
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

/// A posted but unmatched receive.
#[derive(Debug)]
struct PostedRecv {
    req: ReqId,
    src: usize,
    tag: Tag,
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
    running: usize,
    transport: ChannelTransport,
    /// Virtual-time watchdog: if the next possible resume time lies past
    /// this instant, the run is aborted with [`SimError::Timeout`].
    deadline: Option<SimTime>,
    /// Per-rank virtual clocks.
    local: Vec<SimTime>,
    status: Vec<Status>,
    blocked_op: Vec<Option<BlockOp>>,
    reqs: Vec<ReqTable>,
    posted_recvs: Vec<VecDeque<PostedRecv>>,
    unexpected: Vec<VecDeque<UnexpectedSend>>,
    /// Rank messages drained but not yet applied, in program order.
    pending: Vec<VecDeque<RankMsg>>,
    finish_times: Vec<SimTime>,
    /// The apply phase's `(local time, rank)` merge heap.
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
}

impl Engine {
    pub(crate) fn new(
        fabric: Fabric,
        p: usize,
        transport: ChannelTransport,
        deadline: Option<SimTime>,
    ) -> Self {
        Engine {
            fabric,
            p,
            running: p,
            transport,
            deadline,
            local: vec![SimTime::ZERO; p],
            status: vec![Status::Running; p],
            blocked_op: (0..p).map(|_| None).collect(),
            reqs: (0..p).map(|_| ReqTable::default()).collect(),
            posted_recvs: (0..p).map(|_| VecDeque::new()).collect(),
            unexpected: (0..p).map(|_| VecDeque::new()).collect(),
            pending: (0..p).map(|_| VecDeque::new()).collect(),
            finish_times: vec![SimTime::ZERO; p],
            heap: BinaryHeap::new(),
        }
    }

    /// Runs the simulation to completion.
    pub(crate) fn run(mut self) -> Result<EngineReport, SimError> {
        loop {
            if let Err(e) = self.drain() {
                self.abort_all();
                return Err(e);
            }
            self.apply_pending();
            if self.status.iter().all(|s| *s == Status::Done) {
                let stats = self.fabric.stats();
                let trace = self.fabric.take_trace();
                return Ok(EngineReport {
                    finish_times: self.finish_times.clone(),
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
            self.pending[rank].push_back(msg);
        }
        Ok(())
    }

    /// Phase 2: apply queued operations merged in ascending time order.
    fn apply_pending(&mut self) {
        debug_assert!(self.heap.is_empty());
        for r in 0..self.p {
            if !self.pending[r].is_empty() {
                self.heap.push(Reverse((self.local[r], r)));
            }
        }
        while let Some(Reverse((t, r))) = self.heap.pop() {
            if t != self.local[r] {
                // Stale key: the rank's clock advanced since this entry
                // was pushed; re-key it.
                self.heap.push(Reverse((self.local[r], r)));
                continue;
            }
            let Some(item) = self.pending[r].pop_front() else {
                continue;
            };
            self.apply(item);
            if !self.pending[r].is_empty() {
                self.heap.push(Reverse((self.local[r], r)));
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
            },
            RankMsg::Block { rank, op } => {
                debug_assert!(
                    self.pending[rank].is_empty(),
                    "protocol violation: rank {rank} issued operations after blocking"
                );
                self.status[rank] = Status::Blocked;
                self.blocked_op[rank] = Some(op);
            }
            RankMsg::Finished { rank } => {
                self.status[rank] = Status::Done;
                self.finish_times[rank] = self.local[rank];
            }
            RankMsg::Panicked { .. } => unreachable!("handled during drain"),
        }
    }

    fn apply_isend(&mut self, src: usize, req: ReqId, dst: usize, tag: Tag, payload: Bytes) {
        // The send call occupies the sending CPU (straggler-aware).
        self.local[src] += self.fabric.send_overhead(src);
        let ready = self.local[src];
        let bytes = payload.len();
        self.reqs[src].insert(req, ReqState::pending());

        if bytes <= self.fabric.cluster().eager_threshold() {
            let plan = self.fabric.plan_transfer(src, dst, bytes, ready);
            self.complete_req(src, req, plan.send_done, None);
            if let Some(recv) = self.take_matching_recv(dst, src, tag) {
                let done = plan.delivered.max(recv.posted_at) + self.fabric.recv_overhead(dst);
                self.complete_req(dst, recv.req, done, Some(payload));
            } else {
                self.unexpected[dst].push_back(UnexpectedSend {
                    src,
                    tag,
                    payload,
                    arrival: Arrival::Eager {
                        delivered: plan.delivered,
                    },
                });
            }
        } else if let Some(recv) = self.take_matching_recv(dst, src, tag) {
            self.rendezvous(src, req, dst, recv.req, payload, ready, recv.posted_at);
        } else {
            self.unexpected[dst].push_back(UnexpectedSend {
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

    fn apply_irecv(&mut self, dst: usize, req: ReqId, src: usize, tag: Tag) {
        let posted_at = self.local[dst];
        self.reqs[dst].insert(req, ReqState::pending());

        let matched = self.unexpected[dst]
            .iter()
            .position(|u| u.src == src && u.tag == tag)
            .and_then(|idx| self.unexpected[dst].remove(idx));
        if let Some(u) = matched {
            match u.arrival {
                Arrival::Eager { delivered } => {
                    let done = delivered.max(posted_at) + self.fabric.recv_overhead(dst);
                    self.complete_req(dst, req, done, Some(u.payload));
                }
                Arrival::Rendezvous {
                    send_req,
                    posted_at: send_posted,
                } => {
                    self.rendezvous(src, send_req, dst, req, u.payload, send_posted, posted_at);
                }
            }
        } else {
            self.posted_recvs[dst].push_back(PostedRecv {
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
        payload: Bytes,
        send_posted: SimTime,
        recv_posted: SimTime,
    ) {
        let lc = self.fabric.control_latency();
        // RTS reaches the receiver, CTS returns once the receive exists.
        let ready = (send_posted + lc).max(recv_posted) + lc;
        let bytes = payload.len();
        let plan = self.fabric.plan_transfer(src, dst, bytes, ready);
        self.complete_req(src, send_req, plan.send_done, None);
        let done = plan.delivered + self.fabric.recv_overhead(dst);
        self.complete_req(dst, recv_req, done, Some(payload));
    }

    /// Removes and returns the oldest posted receive at `dst` matching a
    /// message from `src` with `tag`.
    fn take_matching_recv(&mut self, dst: usize, src: usize, tag: Tag) -> Option<PostedRecv> {
        let idx = self.posted_recvs[dst]
            .iter()
            .position(|r| r.src == src && r.tag == tag)?;
        self.posted_recvs[dst].remove(idx)
    }

    fn complete_req(&mut self, rank: usize, req: ReqId, at: SimTime, payload: Option<Bytes>) {
        let state = self.reqs[rank]
            .get_mut(req)
            .expect("request must exist when completed");
        debug_assert!(state.complete_at.is_none(), "request completed twice");
        state.complete_at = Some(at);
        state.payload = payload;
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
            if self.status[r] == Status::Done {
                continue;
            }
            alive += 1;
            if matches!(self.blocked_op[r], Some(BlockOp::Barrier)) {
                barrier_t = barrier_t.max(self.local[r]);
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
            let op = self.blocked_op[r].take().expect("blocked rank has an op");
            let payloads = match op {
                BlockOp::Wtime => Vec::new(),
                BlockOp::Barrier => unreachable!("barrier ranks have no resume time"),
                BlockOp::Wait { reqs } => self.collect_payloads(r, &reqs),
            };
            self.wake(r, best, payloads);
            woken += 1;
        }
        Ok(woken)
    }

    /// The earliest time at which rank `r` could resume, if it can.
    fn resume_at(&self, r: usize) -> Option<SimTime> {
        if self.status[r] != Status::Blocked {
            return None;
        }
        match self.blocked_op[r].as_ref() {
            Some(BlockOp::Wtime) => Some(self.local[r]),
            Some(BlockOp::Wait { reqs }) => self.wait_ready_at(r, reqs),
            Some(BlockOp::Barrier) | None => None,
        }
    }

    /// The earliest time at which rank `r`'s wait can finish, if it can.
    fn wait_ready_at(&self, r: usize, reqs: &[ReqId]) -> Option<SimTime> {
        let mut at = self.local[r];
        for &id in reqs {
            at = at.max(self.reqs[r].get(id)?.complete_at?);
        }
        Some(at)
    }

    /// Pops the waited requests out of the table; the payloads of the
    /// receives among them, in request order, go back to the rank.
    fn collect_payloads(&mut self, r: usize, reqs: &[ReqId]) -> Vec<Bytes> {
        reqs.iter()
            .filter_map(|&id| {
                let state = self.reqs[r].remove(id).expect("waited request exists");
                state.payload
            })
            .collect()
    }

    fn wake(&mut self, rank: usize, now: SimTime, payloads: Vec<Bytes>) {
        self.local[rank] = now;
        self.status[rank] = Status::Running;
        self.blocked_op[rank] = None;
        self.running += 1;
        self.transport.deliver(rank, now, payloads);
    }

    fn abort_all(&mut self) {
        self.transport.abort();
    }

    fn deadlock_detail(&self) -> String {
        let mut parts = Vec::new();
        for r in 0..self.p {
            match self.status[r] {
                Status::Done => {}
                Status::Running => parts.push(format!("rank {r}: running (internal error)")),
                Status::Blocked => {
                    let what = match self.blocked_op[r].as_ref() {
                        Some(BlockOp::Barrier) => "barrier".to_owned(),
                        Some(BlockOp::Wtime) => "wtime (internal error)".to_owned(),
                        Some(BlockOp::Wait { reqs }) => {
                            let outstanding: Vec<String> = reqs
                                .iter()
                                .filter(|&&id| {
                                    self.reqs[r].get(id).is_none_or(|s| s.complete_at.is_none())
                                })
                                .map(|id| format!("req {id}"))
                                .collect();
                            format!("wait on {}", outstanding.join(", "))
                        }
                        None => "unknown".to_owned(),
                    };
                    parts.push(format!(
                        "rank {r}: blocked on {what} at t={}",
                        self.local[r]
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
}
