//! # collsel-mpi
//!
//! A deterministic, thread-per-rank **MPI-like runtime** over the
//! [`collsel-netsim`](collsel_netsim) cluster substrate.
//!
//! This crate lets collective algorithms be written exactly the way the
//! Open MPI C implementations are written — imperative loops of
//! `isend`/`irecv`/`wait` — while a central engine advances a virtual
//! clock and books network resources on the simulated fabric. That
//! fidelity matters for the paper being reproduced: its core idea is to
//! derive analytical models *from the implementation code*, so the
//! implementation code must exist in runnable form.
//!
//! Entry point: [`simulate`]. Per-rank API: the [`Comm`] trait, which
//! [`Ctx`] implements. Its surface is what the ported collectives call:
//! point-to-point operations with an exact source and tag, typed
//! requests and wait-alls, the ideal barrier and the local clock.
//!
//! Two execution tiers share the engine's semantics (see [`Backend`]).
//! The thread-per-rank tier ([`simulate_with`], with [`simulate`] and
//! [`simulate_traced`] as shorthands) runs any rank closure exactly as
//! written, one scoped OS thread per rank: it is the oracle. The
//! timing-DAG tier compiles a program written against the [`Comm`]
//! trait into a [`Schedule`] once ([`record_schedule`]: symbolically,
//! on the calling thread, with no rank threads, engine, fabric or
//! payload bytes), lowers it to a [`TimingDag`] with send/recv matching
//! resolved at compile time, and evaluates it with a [`DagEvaluator`]
//! with zero OS threads, zero allocation and zero payload traffic per
//! repetition — the campaign hot path and the tier every product path
//! runs on. The crate keeps no state between calls: no thread outlives
//! its run, and the only buffers reused across runs are those a
//! [`DagEvaluator`] owns.
//!
//! ```
//! use collsel_mpi::Comm;
//! use collsel_support::Bytes;
//! use collsel_netsim::ClusterModel;
//!
//! // Ping-pong between two ranks, measured on rank 0's virtual clock.
//! let cluster = ClusterModel::grisou();
//! let out = collsel_mpi::simulate(&cluster, 2, 1, |ctx| {
//!     let t0 = ctx.wtime();
//!     if ctx.rank() == 0 {
//!         ctx.send(1, 0, Bytes::from(vec![0u8; 1024]));
//!         let _ = ctx.recv(1, 1);
//!     } else {
//!         let data = ctx.recv(0, 0);
//!         ctx.send(0, 1, data);
//!     }
//!     ctx.wtime() - t0
//! })
//! .unwrap();
//! assert!(out.results[0].as_nanos() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod comm;
mod ctx;
mod engine;
mod engine_dag;
mod error;
mod group;
mod proto;
mod schedule;
mod sim;

pub use comm::{Comm, Tag};
pub use ctx::{Ctx, RecvRequest, SendRequest};
pub use engine_dag::{CompileError, DagEvaluator, ScheduledRun, TimingDag};
pub use error::SimError;
pub use group::{GroupComm, GROUP_TAG_STRIDE};
pub use schedule::{check_group, record_schedule, RecCtx, RecordError, SchedOp, Schedule};
pub use sim::{
    simulate, simulate_traced, simulate_with, Backend, RunReport, SimOptions, SimOutcome,
};
