//! The [`Comm`] trait: the communication surface collective algorithms
//! are written against, abstracted over *how* the operations execute.
//!
//! The surface is what the ported Open MPI collectives call and nothing
//! more: point-to-point operations with an exact source and tag, typed
//! requests and waits, the runtime's ideal barrier and the local clock.
//! Two implementors exist:
//!
//! * [`crate::Ctx`] — the real per-rank handle of the threaded
//!   backend; every call talks to the engine.
//! * [`crate::RecCtx`] — the symbolic recording context: it logs each
//!   operation into a [`crate::Schedule`] and satisfies receives from
//!   an untimed message board with length-only
//!   [`Bytes::symbolic`] buffers, so the schedule IR is *derived from
//!   the implementing code* rather than hand-written, without
//!   simulating it or moving a byte.
//!
//! Both implement only the required methods; `send`, `recv` and
//! `sendrecv` are this trait's provided methods, and `RecCtx` allocates
//! request ids exactly as `Ctx` does, so a program issues the identical
//! operation stream on either by construction — the foundation of the
//! backends' bit-identical equivalence.

use crate::ctx::{RecvRequest, SendRequest};
use collsel_netsim::SimTime;
use collsel_support::Bytes;

/// A message tag (non-negative, like MPI user tags).
pub type Tag = u32;

/// Communication operations available to a rank of an SPMD program.
///
/// Implemented by [`crate::Ctx`] and [`crate::RecCtx`]. Every receive
/// names the exact source rank and tag; messages between a pair of
/// ranks with the same tag are non-overtaking, so the k-th receive on a
/// `(src, dst, tag)` channel matches the k-th send.
pub trait Comm {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of processes in the communicator.
    fn size(&self) -> usize;

    /// Starts a non-blocking send (`MPI_Isend`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a valid rank.
    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest;

    /// Starts a non-blocking receive from `src` with `tag`
    /// (`MPI_Irecv`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a valid rank.
    fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest;

    /// Completes a non-blocking send (`MPI_Wait`).
    fn wait_send(&mut self, req: SendRequest);

    /// Completes a non-blocking receive (`MPI_Wait`), returning its
    /// payload.
    fn wait_recv(&mut self, req: RecvRequest) -> Bytes;

    /// Completes a batch of sends (`MPI_Waitall`).
    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>);

    /// Completes a batch of receives (`MPI_Waitall`), payloads in
    /// request order.
    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<Bytes>;

    /// Synchronises all ranks (`MPI_Barrier`, the runtime's ideal one).
    fn barrier(&mut self);

    /// Reads this rank's local virtual clock (`MPI_Wtime`).
    fn wtime(&mut self) -> SimTime;

    /// Blocking standard-mode send (`MPI_Send`): `isend` + wait.
    fn send(&mut self, dst: usize, tag: Tag, payload: Bytes) {
        let req = self.isend(dst, tag, payload);
        self.wait_send(req);
    }

    /// Blocking receive (`MPI_Recv`).
    fn recv(&mut self, src: usize, tag: Tag) -> Bytes {
        let req = self.irecv(src, tag);
        self.wait_recv(req)
    }

    /// Combined blocking send and receive (`MPI_Sendrecv`): both
    /// directions progress concurrently.
    fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: Tag,
        payload: Bytes,
        src: usize,
        recv_tag: Tag,
    ) -> Bytes {
        let r = self.irecv(src, recv_tag);
        let s = self.isend(dst, send_tag, payload);
        self.wait_send(s);
        self.wait_recv(r)
    }
}
