//! # collsel-coll
//!
//! From-scratch Rust ports of the **Open MPI 3.1 collective algorithms**
//! the paper models, written against the simulated MPI runtime
//! ([`collsel-mpi`](collsel_mpi)).
//!
//! The centrepiece is the broadcast suite — the six tree-based
//! algorithms behind `MPI_Bcast` ([`BcastAlg`], [`bcast`]) — plus the
//! supporting collective the paper's measurement methodology needs
//! (linear gather without synchronisation) and a scatter suite as an
//! extension. Timed programs frame themselves with the runtime's ideal
//! `Comm::barrier`, so no barrier algorithm is ported.
//!
//! The ports preserve the *structure* of the C implementations
//! (topology builders, segment pipelines of non-blocking linear
//! broadcasts, double-buffered receives) because the paper's whole point
//! is that performance models must be derived from that structure rather
//! than from textbook definitions of the algorithms.
//!
//! ```
//! use collsel_support::Bytes;
//! use collsel_coll::{bcast, BcastAlg};
//! use collsel_mpi::Comm;
//! use collsel_netsim::ClusterModel;
//!
//! let cluster = ClusterModel::gros();
//! let msg_len = 64 * 1024;
//! let out = collsel_mpi::simulate(&cluster, 16, 0, |ctx| {
//!     let msg = (ctx.rank() == 0).then(|| Bytes::from(vec![7u8; msg_len]));
//!     bcast(ctx, BcastAlg::Binomial, 0, msg, msg_len, 8 * 1024)
//! })
//! .unwrap();
//! assert!(out.results.iter().all(|m| m.len() == msg_len));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alg;
mod allgather;
mod allreduce;
mod alltoall;
mod bcast;
mod collective;
pub mod compile;
mod gather;
mod reduce;
mod scatter;
mod topology;

pub use alg::{BcastAlg, ParseBcastAlgError, DEFAULT_CHAIN_FANOUT};
pub use allgather::{allgather_gather_bcast, allgather_recursive_doubling, allgather_ring};
pub use allreduce::{allreduce_recursive_doubling, allreduce_reduce_bcast};
pub use alltoall::{alltoall_linear, alltoall_pairwise};
pub use bcast::{
    bcast, bcast_binary, bcast_binomial, bcast_chain, bcast_k_chain, bcast_linear,
    bcast_split_binary, bcast_tree_segmented,
};
pub use collective::{
    run_collective, Alg, AllgatherAlg, AllreduceAlg, AlltoallAlg, Collective, GatherAlg,
    ParseAlgError, ParseCollectiveError, ScatterAlg,
};
pub use gather::{gather_binomial, gather_linear};
pub use reduce::{
    reduce, reduce_binary, reduce_binomial, reduce_chain, reduce_in_order_binary, reduce_linear,
    reduce_pipeline, reduce_tree_segmented, ParseReduceAlgError, ReduceAlg, ReduceOp,
};
pub use scatter::{scatter_binomial, scatter_linear};
pub use topology::Topology;
