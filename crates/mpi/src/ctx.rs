//! The per-rank communication handle of the threaded engine.
//!
//! [`Ctx`] implements [`Comm`], the slice of MPI that the Open MPI
//! collective implementations use: blocking and non-blocking
//! point-to-point operations with exact sources and tags, typed
//! requests, waits, a barrier, and the local clock (`MPI_Wtime`). User
//! code between communication calls takes **zero virtual time**; CPU
//! costs of communication itself (send/receive overheads) are charged
//! by the engine.
//!
//! Requests are typed ([`SendRequest`] vs [`RecvRequest`]) so that the
//! compiler enforces what a wait can return: payloads come only out of
//! receives.

use crate::comm::{Comm, Tag};
use crate::proto::{BlockOp, PostOp, RankMsg, ReqId, Resume};
use collsel_netsim::SimTime;
use collsel_support::Bytes;
use std::sync::mpsc::{Receiver, Sender};

/// Handle to an in-flight non-blocking send.
///
/// Must be completed with [`Comm::wait_send`] or
/// [`Comm::wait_all_sends`].
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
/// Must be completed with [`Comm::wait_recv`] or
/// [`Comm::wait_all_recvs`].
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
/// [`crate::simulate`]: every [`Comm`] call is a message to the engine.
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

    /// Parks the rank in `op` until the engine resumes it: the rank's
    /// new local time and, for a wait, the payloads of the waited
    /// receives in request order.
    fn block(&mut self, op: BlockOp) -> (SimTime, Vec<Bytes>) {
        let _ = self.to_engine.send(RankMsg::Block {
            rank: self.rank,
            op,
        });
        match self.resume.recv() {
            Ok(Resume::Ready { now, payloads }) => (now, payloads),
            Ok(Resume::Abort) | Err(_) => {
                // Unwind this rank thread; the harness catches this and
                // the engine already knows why the run is being aborted.
                // `resume_unwind` skips the panic hook, so an aborted run
                // prints nothing.
                std::panic::resume_unwind(Box::new(crate::sim::AbortToken));
            }
        }
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

impl Comm for Ctx {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest {
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

    fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest {
        assert!(src < self.size, "irecv from rank {src} of {}", self.size);
        let req = self.alloc_req();
        self.post(PostOp::Irecv { req, src, tag });
        RecvRequest { id: req }
    }

    fn wait_send(&mut self, req: SendRequest) {
        let _ = self.block(BlockOp::Wait { reqs: vec![req.id] });
    }

    fn wait_recv(&mut self, req: RecvRequest) -> Bytes {
        let (_, mut payloads) = self.block(BlockOp::Wait { reqs: vec![req.id] });
        payloads
            .pop()
            .expect("a completed receive carries its payload")
    }

    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) {
        if reqs.is_empty() {
            return;
        }
        let _ = self.block(BlockOp::Wait {
            reqs: reqs.into_iter().map(|r| r.id).collect(),
        });
    }

    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<Bytes> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let (_, payloads) = self.block(BlockOp::Wait {
            reqs: reqs.into_iter().map(|r| r.id).collect(),
        });
        payloads
    }

    /// The built-in barrier is an *ideal* synchronisation: every rank
    /// resumes at the latest entry time, with no network cost. It
    /// exists for measurement framing; no collective calls it.
    fn barrier(&mut self) {
        let _ = self.block(BlockOp::Barrier);
    }

    fn wtime(&mut self) -> SimTime {
        let (now, _) = self.block(BlockOp::Wtime);
        now
    }
}
