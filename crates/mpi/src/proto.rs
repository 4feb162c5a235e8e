//! Crate-private wire protocol between rank threads and the engine.

use crate::comm::Tag;
use collsel_netsim::SimTime;
use collsel_support::Bytes;

/// Rank-local request identifier (allocated monotonically per rank).
pub(crate) type ReqId = u32;

/// A non-blocking operation posted by a rank (fire-and-forget: the engine
/// learns about it no later than the rank's next blocking call).
#[derive(Debug)]
pub(crate) enum PostOp {
    Isend {
        req: ReqId,
        dst: usize,
        tag: Tag,
        payload: Bytes,
    },
    Irecv {
        req: ReqId,
        src: usize,
        tag: Tag,
    },
}

/// A blocking operation: the rank parks until the engine resumes it.
#[derive(Debug)]
pub(crate) enum BlockOp {
    /// Wait until every request in `reqs` has completed.
    Wait {
        reqs: Vec<ReqId>,
    },
    Barrier,
    /// Read the rank's local virtual clock (resumes immediately).
    Wtime,
}

/// Everything a rank can tell the engine.
#[derive(Debug)]
pub(crate) enum RankMsg {
    Post { rank: usize, op: PostOp },
    Block { rank: usize, op: BlockOp },
    Finished { rank: usize },
    Panicked { rank: usize, message: String },
}

/// The engine's reply that unparks a blocked rank.
#[derive(Debug)]
pub(crate) enum Resume {
    /// The blocking operation finished at `now` (the rank's new local
    /// time); a wait hands back the payloads of its receives in request
    /// order.
    Ready { now: SimTime, payloads: Vec<Bytes> },
    /// The simulation is being torn down (another rank panicked or the
    /// engine detected an unrecoverable error); the rank thread must exit.
    Abort,
}
