//! The [`Comm`] trait: the communication surface collective algorithms
//! are written against, abstracted over *how* the operations execute.
//!
//! Two implementors exist:
//!
//! * [`Ctx`] — the real per-rank handle of the threaded backend; every
//!   call talks to the engine.
//! * [`crate::RecCtx`] — the symbolic recording context: it logs each
//!   operation into a [`crate::Schedule`] and satisfies receives from
//!   an untimed message board with length-only
//!   [`Bytes::symbolic`] buffers, so the schedule IR is *derived from
//!   the implementing code* rather than hand-written, without
//!   simulating it or moving a byte.
//!
//! The provided methods (`send`, `recv`, `sendrecv`) use exactly the
//! decomposition of the corresponding inherent `Ctx` methods, and
//! `RecCtx` allocates request ids exactly as `Ctx` does, so a program
//! run generically through `Comm` issues the identical operation
//! stream on either — the foundation of the backends' bit-identical
//! equivalence.

use crate::ctx::{Ctx, RecvRequest, SendRequest};
use crate::msg::{Peer, RecvStatus, Tag, TagSel};
use collsel_netsim::{SimSpan, SimTime};
use collsel_support::Bytes;

/// Communication operations available to a rank of an SPMD program.
///
/// See the [module docs](self) for the equivalence contract between
/// implementors. The trait is not object-safe (receive sources and tags
/// are generic, mirroring [`Ctx::irecv`]); use it as a generic bound.
pub trait Comm {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of processes in the simulation (world size).
    fn size(&self) -> usize;

    /// Starts a non-blocking send (`MPI_Isend`).
    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest;

    /// Starts a non-blocking receive (`MPI_Irecv`).
    fn irecv(&mut self, src: impl Into<Peer>, tag: impl Into<TagSel>) -> RecvRequest;

    /// Completes a non-blocking send (`MPI_Wait`).
    fn wait_send(&mut self, req: SendRequest);

    /// Completes a non-blocking receive (`MPI_Wait`).
    fn wait_recv(&mut self, req: RecvRequest) -> (Bytes, RecvStatus);

    /// Completes a batch of sends (`MPI_Waitall`).
    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>);

    /// Completes a batch of receives (`MPI_Waitall`), payloads in
    /// request order.
    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<(Bytes, RecvStatus)>;

    /// Completes the earliest-finishing receive (`MPI_Waitany`).
    fn wait_any_recv(
        &mut self,
        reqs: Vec<RecvRequest>,
    ) -> (usize, Bytes, RecvStatus, Vec<RecvRequest>);

    /// Synchronises all ranks (`MPI_Barrier`, the runtime's ideal one).
    fn barrier(&mut self);

    /// Reads this rank's local virtual clock (`MPI_Wtime`).
    fn wtime(&mut self) -> SimTime;

    /// Advances this rank's virtual clock by `span` of local
    /// computation (the `Compute(γ)` op of the schedule IR).
    fn compute(&mut self, span: SimSpan);

    /// Blocking standard-mode send (`MPI_Send`): `isend` + wait.
    fn send(&mut self, dst: usize, tag: Tag, payload: Bytes) {
        let req = self.isend(dst, tag, payload);
        self.wait_send(req);
    }

    /// Blocking receive (`MPI_Recv`).
    fn recv(&mut self, src: impl Into<Peer>, tag: impl Into<TagSel>) -> (Bytes, RecvStatus) {
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
        src: impl Into<Peer>,
        recv_tag: impl Into<TagSel>,
    ) -> (Bytes, RecvStatus) {
        let r = self.irecv(src, recv_tag);
        let s = self.isend(dst, send_tag, payload);
        self.wait_send(s);
        self.wait_recv(r)
    }
}

impl Comm for Ctx {
    fn rank(&self) -> usize {
        Ctx::rank(self)
    }

    fn size(&self) -> usize {
        Ctx::size(self)
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest {
        Ctx::isend(self, dst, tag, payload)
    }

    fn irecv(&mut self, src: impl Into<Peer>, tag: impl Into<TagSel>) -> RecvRequest {
        Ctx::irecv(self, src, tag)
    }

    fn wait_send(&mut self, req: SendRequest) {
        Ctx::wait_send(self, req);
    }

    fn wait_recv(&mut self, req: RecvRequest) -> (Bytes, RecvStatus) {
        Ctx::wait_recv(self, req)
    }

    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) {
        Ctx::wait_all_sends(self, reqs);
    }

    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<(Bytes, RecvStatus)> {
        Ctx::wait_all_recvs(self, reqs)
    }

    fn wait_any_recv(
        &mut self,
        reqs: Vec<RecvRequest>,
    ) -> (usize, Bytes, RecvStatus, Vec<RecvRequest>) {
        Ctx::wait_any_recv(self, reqs)
    }

    fn barrier(&mut self) {
        Ctx::barrier(self);
    }

    fn wtime(&mut self) -> SimTime {
        Ctx::wtime(self)
    }

    fn compute(&mut self, span: SimSpan) {
        Ctx::compute(self, span);
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Bytes) {
        Ctx::send(self, dst, tag, payload);
    }

    fn recv(&mut self, src: impl Into<Peer>, tag: impl Into<TagSel>) -> (Bytes, RecvStatus) {
        Ctx::recv(self, src, tag)
    }

    fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: Tag,
        payload: Bytes,
        src: impl Into<Peer>,
        recv_tag: impl Into<TagSel>,
    ) -> (Bytes, RecvStatus) {
        Ctx::sendrecv(self, dst, send_tag, payload, src, recv_tag)
    }
}
