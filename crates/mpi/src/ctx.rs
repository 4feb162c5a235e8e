//! The per-rank communication handle: the API collective algorithms are
//! written against.
//!
//! [`Ctx`] mirrors the slice of MPI that the Open MPI collective
//! implementations use: blocking and non-blocking point-to-point
//! operations, typed requests, waits, a barrier, and the local clock
//! (`MPI_Wtime`). User code between communication calls takes **zero
//! virtual time**; CPU costs of communication itself (send/receive
//! overheads) are charged by the engine.
//!
//! Requests are typed ([`SendRequest`] vs [`RecvRequest`]) so that the
//! compiler enforces what a wait can return: payloads come only out of
//! receives.

use crate::msg::{Peer, RecvStatus, Tag, TagSel};
use crate::proto::{BlockOp, Completion, PostOp, RankMsg, ReqId, Resume, WaitMode};
use collsel_netsim::SimTime;
use collsel_support::Bytes;
use std::sync::mpsc::{Receiver, Sender};

/// Handle to an in-flight non-blocking send.
///
/// Must be completed with [`Ctx::wait_send`] or [`Ctx::wait_all_sends`].
#[derive(Debug)]
#[must_use = "a send request must be waited on"]
pub struct SendRequest {
    pub(crate) id: ReqId,
}

impl SendRequest {
    /// The rank-local id of this request: sends and receives share one
    /// counter per rank, from zero, in issue order.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Handle to an in-flight non-blocking receive.
///
/// Must be completed with [`Ctx::wait_recv`], [`Ctx::wait_all_recvs`] or
/// [`Ctx::wait_any_recv`].
#[derive(Debug)]
#[must_use = "a receive request must be waited on"]
pub struct RecvRequest {
    pub(crate) id: ReqId,
}

impl RecvRequest {
    /// The rank-local id of this request (see [`SendRequest::id`]).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The per-rank communication context handed to the user function by
/// [`crate::simulate`].
///
/// All methods take `&mut self`: a rank is a single sequential process.
#[derive(Debug)]
pub struct Ctx {
    rank: usize,
    size: usize,
    next_req: ReqId,
    to_engine: Sender<RankMsg>,
    resume: Receiver<Resume>,
}

impl Ctx {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        to_engine: Sender<RankMsg>,
        resume: Receiver<Resume>,
    ) -> Self {
        Ctx {
            rank,
            size,
            next_req: 0,
            to_engine,
            resume,
        }
    }

    /// This process's rank in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the simulation (world size).
    pub fn size(&self) -> usize {
        self.size
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn post(&mut self, op: PostOp) {
        let _ = self.to_engine.send(RankMsg::Post {
            rank: self.rank,
            op,
        });
    }

    fn block(&mut self, op: BlockOp) -> (SimTime, Vec<Completion>) {
        let _ = self.to_engine.send(RankMsg::Block {
            rank: self.rank,
            op,
        });
        match self.resume.recv() {
            Ok(Resume::Ready { now, completions }) => (now, completions),
            Ok(Resume::Abort) | Err(_) => {
                // Unwind this rank thread; the harness catches this and
                // the engine already knows why the run is being aborted.
                // `resume_unwind` skips the panic hook, so an aborted run
                // prints nothing.
                std::panic::resume_unwind(Box::new(crate::sim::AbortToken));
            }
        }
    }

    /// Starts a non-blocking send of `payload` to `dst` with `tag`
    /// (`MPI_Isend`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a valid rank.
    pub fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest {
        assert!(dst < self.size, "isend to rank {dst} of {}", self.size);
        let req = self.alloc_req();
        self.post(PostOp::Isend {
            req,
            dst,
            tag,
            payload,
        });
        SendRequest { id: req }
    }

    /// Starts a non-blocking receive matching `src` and `tag`
    /// (`MPI_Irecv`). Both accept wildcards via [`Peer::Any`] /
    /// [`TagSel::Any`]; plain `usize` / `u32` values convert to exact
    /// matches.
    pub fn irecv(&mut self, src: impl Into<Peer>, tag: impl Into<TagSel>) -> RecvRequest {
        let src = src.into();
        if let Peer::Rank(r) = src {
            assert!(r < self.size, "irecv from rank {r} of {}", self.size);
        }
        let req = self.alloc_req();
        self.post(PostOp::Irecv {
            req,
            src,
            tag: tag.into(),
        });
        RecvRequest { id: req }
    }

    /// Completes a non-blocking send (`MPI_Wait`).
    pub fn wait_send(&mut self, req: SendRequest) {
        let _ = self.block(BlockOp::Wait {
            reqs: vec![req.id],
            mode: WaitMode::All,
        });
    }

    /// Completes a non-blocking receive (`MPI_Wait`), returning the
    /// payload and its status.
    pub fn wait_recv(&mut self, req: RecvRequest) -> (Bytes, RecvStatus) {
        let (_, mut completions) = self.block(BlockOp::Wait {
            reqs: vec![req.id],
            mode: WaitMode::All,
        });
        let c = completions.pop().expect("engine returns one completion");
        Self::into_recv(c)
    }

    /// Completes a batch of sends (`MPI_Waitall`).
    pub fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) {
        if reqs.is_empty() {
            return;
        }
        let _ = self.block(BlockOp::Wait {
            reqs: reqs.into_iter().map(|r| r.id).collect(),
            mode: WaitMode::All,
        });
    }

    /// Completes a batch of receives (`MPI_Waitall`), returning payloads
    /// in request order.
    pub fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<(Bytes, RecvStatus)> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let (_, completions) = self.block(BlockOp::Wait {
            reqs: reqs.iter().map(|r| r.id).collect(),
            mode: WaitMode::All,
        });
        completions.into_iter().map(Self::into_recv).collect()
    }

    /// Completes the earliest-finishing receive of `reqs`
    /// (`MPI_Waitany`), returning its index within `reqs`, the payload
    /// and the status. The remaining requests stay pending and are given
    /// back as the final element of the tuple.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty.
    pub fn wait_any_recv(
        &mut self,
        reqs: Vec<RecvRequest>,
    ) -> (usize, Bytes, RecvStatus, Vec<RecvRequest>) {
        assert!(!reqs.is_empty(), "wait_any_recv needs at least one request");
        let (_, mut completions) = self.block(BlockOp::Wait {
            reqs: reqs.iter().map(|r| r.id).collect(),
            mode: WaitMode::Any,
        });
        let c = completions.pop().expect("engine returns one completion");
        let idx = reqs
            .iter()
            .position(|r| r.id == c.req)
            .expect("completed request belongs to the waited set");
        let mut rest = reqs;
        let _ = rest.remove(idx);
        let (payload, status) = Self::into_recv(c);
        (idx, payload, status, rest)
    }

    /// Blocking standard-mode send (`MPI_Send`): `isend` + wait.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a valid rank.
    pub fn send(&mut self, dst: usize, tag: Tag, payload: Bytes) {
        let req = self.isend(dst, tag, payload);
        self.wait_send(req);
    }

    /// Blocking receive (`MPI_Recv`).
    pub fn recv(&mut self, src: impl Into<Peer>, tag: impl Into<TagSel>) -> (Bytes, RecvStatus) {
        let req = self.irecv(src, tag);
        self.wait_recv(req)
    }

    /// Combined blocking send and receive (`MPI_Sendrecv`): both
    /// directions progress concurrently.
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: Tag,
        payload: Bytes,
        src: impl Into<Peer>,
        recv_tag: impl Into<TagSel>,
    ) -> (Bytes, RecvStatus) {
        let r = self.irecv(src, recv_tag);
        let s = self.isend(dst, send_tag, payload);
        self.wait_send(s);
        self.wait_recv(r)
    }

    /// Synchronises all ranks (`MPI_Barrier`).
    ///
    /// The built-in barrier is an *ideal* synchronisation: every rank
    /// resumes at the latest entry time, with no network cost. It exists
    /// for measurement framing; a real dissemination barrier lives in
    /// the collective-algorithms crate.
    pub fn barrier(&mut self) {
        let _ = self.block(BlockOp::Barrier);
    }

    /// Reads this rank's local virtual clock (`MPI_Wtime`).
    pub fn wtime(&mut self) -> SimTime {
        let (now, _) = self.block(BlockOp::Wtime);
        now
    }

    /// Advances this rank's virtual clock by `span` of local computation
    /// (the `Compute(γ)` op of the schedule IR) without touching the
    /// network.
    pub fn compute(&mut self, span: collsel_netsim::SimSpan) {
        self.post(PostOp::Compute { span });
    }

    fn into_recv(c: Completion) -> (Bytes, RecvStatus) {
        let payload = c.payload.expect("receive completion carries a payload");
        let (source, tag) = c.origin.expect("receive completion carries its origin");
        let len = payload.len();
        (payload, RecvStatus { source, tag, len })
    }

    pub(crate) fn notify_finished(&mut self) {
        let _ = self.to_engine.send(RankMsg::Finished { rank: self.rank });
    }

    pub(crate) fn notify_panicked(&mut self, message: String) {
        let _ = self.to_engine.send(RankMsg::Panicked {
            rank: self.rank,
            message,
        });
    }
}
