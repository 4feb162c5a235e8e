//! The collective-operation catalogue: every collective the tuning
//! pipeline covers, each with its algorithm family, plus a single
//! dispatcher ([`run_collective`]) that executes any `(collective,
//! algorithm)` pair against a [`Comm`].
//!
//! The broadcast-only pipeline identified algorithms with [`BcastAlg`]
//! alone; tuning all seven collectives needs an identifier that carries
//! *which collective* an algorithm belongs to. [`Alg`] is that tagged
//! identifier; [`Collective`] enumerates the operations. Both serialize
//! to stable snake_case names (the qualified form `collective/alg` for
//! [`Alg`]), so fitted parameters keyed by algorithm persist across
//! collectives without ambiguity.
//!
//! `run_collective` is the measurement-program kernel: the estimation
//! crate times it on the threaded backend
//! ([`TimedProgram::round`](crate::compile::TimedProgram::round)), and
//! [`TimedProgram::record`](crate::compile::TimedProgram::record)
//! records the *same function* into schedule IR for the timing-DAG
//! backend — one source of truth for both execution paths, which is
//! what makes them bit-identical.

use crate::alg::BcastAlg;
use crate::allgather::{allgather_gather_bcast, allgather_recursive_doubling, allgather_ring};
use crate::allreduce::{allreduce_recursive_doubling, allreduce_reduce_bcast};
use crate::alltoall::{alltoall_linear, alltoall_pairwise};
use crate::bcast::bcast;
use crate::gather::{gather_binomial, gather_linear};
use crate::reduce::{reduce, ReduceAlg, ReduceOp};
use crate::scatter::{scatter_binomial, scatter_linear};
use collsel_mpi::Comm;
use collsel_support::Bytes;
use std::fmt;
use std::str::FromStr;

/// The seven collective operations covered by the tuning pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Collective {
    /// `MPI_Bcast` — the paper's subject.
    Bcast,
    /// `MPI_Reduce` (commutative integer operators).
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Gather`.
    Gather,
    /// `MPI_Scatter`.
    Scatter,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Alltoall`.
    Alltoall,
}

impl Collective {
    /// All collectives, in a stable display order.
    pub const ALL: [Collective; 7] = [
        Collective::Bcast,
        Collective::Reduce,
        Collective::Allreduce,
        Collective::Gather,
        Collective::Scatter,
        Collective::Allgather,
        Collective::Alltoall,
    ];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            Collective::Bcast => "bcast",
            Collective::Reduce => "reduce",
            Collective::Allreduce => "allreduce",
            Collective::Gather => "gather",
            Collective::Scatter => "scatter",
            Collective::Allgather => "allgather",
            Collective::Alltoall => "alltoall",
        }
    }

    /// Stable dense index (position in [`Collective::ALL`]), used by
    /// per-collective lookup structures.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The algorithm family of this collective, in a stable order.
    pub fn algorithms(self) -> &'static [Alg] {
        match self {
            Collective::Bcast => &BCAST_ALGS,
            Collective::Reduce => &REDUCE_ALGS,
            Collective::Allreduce => &ALLREDUCE_ALGS,
            Collective::Gather => &GATHER_ALGS,
            Collective::Scatter => &SCATTER_ALGS,
            Collective::Allgather => &ALLGATHER_ALGS,
            Collective::Alltoall => &ALLTOALL_ALGS,
        }
    }
}

impl fmt::Display for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown collective name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCollectiveError {
    input: String,
}

impl fmt::Display for ParseCollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown collective `{}` (expected one of: bcast, reduce, allreduce, gather, \
             scatter, allgather, alltoall)",
            self.input
        )
    }
}

impl std::error::Error for ParseCollectiveError {}

impl FromStr for Collective {
    type Err = ParseCollectiveError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Collective::ALL
            .iter()
            .copied()
            .find(|c| c.name() == s)
            .ok_or_else(|| ParseCollectiveError {
                input: s.to_owned(),
            })
    }
}

collsel_support::json_enum!(Collective {
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall
});

/// The gather algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GatherAlg {
    /// Linear gather without synchronisation (`gather_intra_basic_linear`).
    Linear,
    /// Binomial-tree gather (`gather_intra_binomial`).
    Binomial,
}

impl GatherAlg {
    /// All gather algorithms, in a stable order.
    pub const ALL: [GatherAlg; 2] = [GatherAlg::Linear, GatherAlg::Binomial];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            GatherAlg::Linear => "linear",
            GatherAlg::Binomial => "binomial",
        }
    }
}

/// The scatter algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScatterAlg {
    /// Flat scatter (`scatter_intra_basic_linear`).
    Linear,
    /// Binomial-tree scatter (`scatter_intra_binomial`).
    Binomial,
}

impl ScatterAlg {
    /// All scatter algorithms, in a stable order.
    pub const ALL: [ScatterAlg; 2] = [ScatterAlg::Linear, ScatterAlg::Binomial];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            ScatterAlg::Linear => "linear",
            ScatterAlg::Binomial => "binomial",
        }
    }
}

/// The allgather algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AllgatherAlg {
    /// P-1 ring steps (`allgather_intra_ring`).
    Ring,
    /// log₂P exchange rounds (`allgather_intra_recursivedoubling`);
    /// non-power-of-two worlds fall back to the ring.
    RecursiveDoubling,
    /// Linear gather to rank 0 followed by a binomial broadcast
    /// (`allgather_intra_basic_linear`).
    GatherBcast,
}

impl AllgatherAlg {
    /// All allgather algorithms, in a stable order.
    pub const ALL: [AllgatherAlg; 3] = [
        AllgatherAlg::Ring,
        AllgatherAlg::RecursiveDoubling,
        AllgatherAlg::GatherBcast,
    ];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            AllgatherAlg::Ring => "ring",
            AllgatherAlg::RecursiveDoubling => "recursive_doubling",
            AllgatherAlg::GatherBcast => "gather_bcast",
        }
    }
}

/// The allreduce algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AllreduceAlg {
    /// Binomial reduce to rank 0 followed by a binomial broadcast
    /// (`allreduce_intra_basic`).
    ReduceBcast,
    /// log₂P exchange-and-fold rounds
    /// (`allreduce_intra_recursivedoubling`).
    RecursiveDoubling,
}

impl AllreduceAlg {
    /// All allreduce algorithms, in a stable order.
    pub const ALL: [AllreduceAlg; 2] = [AllreduceAlg::ReduceBcast, AllreduceAlg::RecursiveDoubling];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlg::ReduceBcast => "reduce_bcast",
            AllreduceAlg::RecursiveDoubling => "recursive_doubling",
        }
    }
}

/// The all-to-all algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlltoallAlg {
    /// Post everything at once (`alltoall_intra_basic_linear`).
    Linear,
    /// P-1 balanced sendrecv rounds (`alltoall_intra_pairwise`).
    Pairwise,
}

impl AlltoallAlg {
    /// All all-to-all algorithms, in a stable order.
    pub const ALL: [AlltoallAlg; 2] = [AlltoallAlg::Linear, AlltoallAlg::Pairwise];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            AlltoallAlg::Linear => "linear",
            AlltoallAlg::Pairwise => "pairwise",
        }
    }
}

macro_rules! display_by_name {
    ($($ty:ty),+) => {$(
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    )+};
}
display_by_name!(
    GatherAlg,
    ScatterAlg,
    AllgatherAlg,
    AllreduceAlg,
    AlltoallAlg
);

/// A collective algorithm, tagged with the collective it implements.
///
/// This is the cross-collective identifier used by the breadth tuning
/// pipeline: fitted `(α, β)` parameters, decision-table selections and
/// cache keys all carry an `Alg`, so a `reduce/linear` fit can never be
/// confused with a `gather/linear` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Alg {
    /// A broadcast algorithm.
    Bcast(BcastAlg),
    /// A reduce algorithm.
    Reduce(ReduceAlg),
    /// An allreduce algorithm.
    Allreduce(AllreduceAlg),
    /// A gather algorithm.
    Gather(GatherAlg),
    /// A scatter algorithm.
    Scatter(ScatterAlg),
    /// An allgather algorithm.
    Allgather(AllgatherAlg),
    /// An all-to-all algorithm.
    Alltoall(AlltoallAlg),
}

const BCAST_ALGS: [Alg; 6] = [
    Alg::Bcast(BcastAlg::Linear),
    Alg::Bcast(BcastAlg::Chain),
    Alg::Bcast(BcastAlg::KChain),
    Alg::Bcast(BcastAlg::SplitBinary),
    Alg::Bcast(BcastAlg::Binary),
    Alg::Bcast(BcastAlg::Binomial),
];
const REDUCE_ALGS: [Alg; 6] = [
    Alg::Reduce(ReduceAlg::Linear),
    Alg::Reduce(ReduceAlg::Chain),
    Alg::Reduce(ReduceAlg::Pipeline),
    Alg::Reduce(ReduceAlg::Binary),
    Alg::Reduce(ReduceAlg::InOrderBinary),
    Alg::Reduce(ReduceAlg::Binomial),
];
const ALLREDUCE_ALGS: [Alg; 2] = [
    Alg::Allreduce(AllreduceAlg::ReduceBcast),
    Alg::Allreduce(AllreduceAlg::RecursiveDoubling),
];
const GATHER_ALGS: [Alg; 2] = [
    Alg::Gather(GatherAlg::Linear),
    Alg::Gather(GatherAlg::Binomial),
];
const SCATTER_ALGS: [Alg; 2] = [
    Alg::Scatter(ScatterAlg::Linear),
    Alg::Scatter(ScatterAlg::Binomial),
];
const ALLGATHER_ALGS: [Alg; 3] = [
    Alg::Allgather(AllgatherAlg::Ring),
    Alg::Allgather(AllgatherAlg::RecursiveDoubling),
    Alg::Allgather(AllgatherAlg::GatherBcast),
];
const ALLTOALL_ALGS: [Alg; 2] = [
    Alg::Alltoall(AlltoallAlg::Linear),
    Alg::Alltoall(AlltoallAlg::Pairwise),
];

impl Alg {
    /// The collective this algorithm implements.
    pub fn collective(self) -> Collective {
        match self {
            Alg::Bcast(_) => Collective::Bcast,
            Alg::Reduce(_) => Collective::Reduce,
            Alg::Allreduce(_) => Collective::Allreduce,
            Alg::Gather(_) => Collective::Gather,
            Alg::Scatter(_) => Collective::Scatter,
            Alg::Allgather(_) => Collective::Allgather,
            Alg::Alltoall(_) => Collective::Alltoall,
        }
    }

    /// The algorithm's short name within its collective (not globally
    /// unique: both reduce and gather have a `linear`).
    pub fn name(self) -> &'static str {
        match self {
            Alg::Bcast(a) => a.name(),
            Alg::Reduce(a) => a.name(),
            Alg::Allreduce(a) => a.name(),
            Alg::Gather(a) => a.name(),
            Alg::Scatter(a) => a.name(),
            Alg::Allgather(a) => a.name(),
            Alg::Alltoall(a) => a.name(),
        }
    }

    /// The globally unique `collective/name` identifier (the map-key
    /// form used for JSON persistence).
    pub fn qualified_name(self) -> String {
        format!("{}/{}", self.collective().name(), self.name())
    }

    /// Whether the algorithm pipelines the payload in segments (and
    /// therefore uses the selection's segment size).
    pub fn is_segmented(self) -> bool {
        match self {
            Alg::Bcast(a) => a.is_segmented(),
            Alg::Reduce(a) => a.is_segmented(),
            Alg::Allreduce(a) => matches!(a, AllreduceAlg::ReduceBcast),
            Alg::Gather(_) | Alg::Scatter(_) | Alg::Allgather(_) | Alg::Alltoall(_) => false,
        }
    }

    /// Parses an algorithm name within `collective`'s family.
    pub fn parse_for(collective: Collective, s: &str) -> Result<Alg, ParseAlgError> {
        collective
            .algorithms()
            .iter()
            .copied()
            .find(|a| a.name() == s)
            .ok_or_else(|| ParseAlgError {
                input: s.to_owned(),
                collective: Some(collective),
            })
    }
}

impl fmt::Display for Alg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown algorithm identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgError {
    input: String,
    collective: Option<Collective>,
}

impl fmt::Display for ParseAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.collective {
            Some(c) => {
                let names: Vec<&str> = c.algorithms().iter().map(|a| a.name()).collect();
                write!(
                    f,
                    "unknown {c} algorithm `{}` (expected one of: {})",
                    self.input,
                    names.join(", ")
                )
            }
            None => write!(
                f,
                "invalid algorithm identifier `{}` (expected `collective/name`)",
                self.input
            ),
        }
    }
}

impl std::error::Error for ParseAlgError {}

impl FromStr for Alg {
    type Err = ParseAlgError;

    /// Parses the qualified `collective/name` form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (coll, name) = s.split_once('/').ok_or_else(|| ParseAlgError {
            input: s.to_owned(),
            collective: None,
        })?;
        let collective = coll.parse::<Collective>().map_err(|_| ParseAlgError {
            input: s.to_owned(),
            collective: None,
        })?;
        Alg::parse_for(collective, name)
    }
}

impl collsel_support::ToJson for Alg {
    fn to_json(&self) -> collsel_support::Json {
        collsel_support::Json::Str(self.qualified_name())
    }
}

impl collsel_support::FromJson for Alg {
    fn from_json(v: &collsel_support::Json) -> Result<Self, collsel_support::JsonError> {
        match v.as_str() {
            Some(s) => s
                .parse()
                .map_err(|e: ParseAlgError| collsel_support::JsonError(e.to_string())),
            None => Err(collsel_support::JsonError(format!(
                "expected algorithm string, found {v}"
            ))),
        }
    }
}

impl collsel_support::json::JsonKey for Alg {
    fn to_key(&self) -> String {
        self.qualified_name()
    }

    fn from_key(key: &str) -> Result<Self, collsel_support::JsonError> {
        key.parse()
            .map_err(|e: ParseAlgError| collsel_support::JsonError(e.to_string()))
    }
}

/// Rounds a byte count up to whole `u64` lanes (the reduction payload
/// unit), keeping at least one lane for non-empty requests.
fn lane_bytes(m: usize) -> usize {
    m.div_ceil(8) * 8
}

/// Rounds a segment size up to a positive multiple of 8 (the segmented
/// reductions require lane-aligned segments).
fn lane_seg(seg_size: usize) -> usize {
    seg_size.max(1).div_ceil(8) * 8
}

/// Executes one instance of `alg` on `ctx` and discards the result.
///
/// This is the shared measurement-program kernel: the payload geometry
/// is a pure function of `(alg, rank, size, m, seg_size)`, so recording
/// it yields the same operation stream as running it live — the basis
/// of the backend-equivalence guarantee for every collective. Since
/// the result is discarded and only lengths reach a timing, the inputs
/// are [symbolic](Bytes::symbolic): on every backend the call costs per
/// operation, not per byte.
///
/// `m` is the **total vector size** for bcast/reduce/allreduce and the
/// **per-rank block size** for gather/scatter/allgather/alltoall
/// (matching how MPI benchmarks parameterise each operation). Reduction
/// payloads are rounded up to whole `u64` lanes and their segment sizes
/// to multiples of 8.
///
/// # Panics
///
/// Panics on invalid geometry (root out of range, zero ranks), as the
/// underlying collective would.
pub fn run_collective<C: Comm>(ctx: &mut C, alg: Alg, root: usize, m: usize, seg_size: usize) {
    let p = ctx.size();
    let rank = ctx.rank();
    match alg {
        Alg::Bcast(a) => {
            let msg = (rank == root).then(|| Bytes::symbolic(m));
            let _ = bcast(ctx, a, root, msg, m, seg_size.max(1));
        }
        Alg::Reduce(a) => {
            let contribution = Bytes::symbolic(lane_bytes(m));
            let _ = reduce(
                ctx,
                a,
                root,
                ReduceOp::Sum,
                contribution,
                lane_seg(seg_size),
            );
        }
        Alg::Allreduce(AllreduceAlg::ReduceBcast) => {
            let contribution = Bytes::symbolic(lane_bytes(m));
            let _ = allreduce_reduce_bcast(ctx, ReduceOp::Sum, contribution, lane_seg(seg_size));
        }
        Alg::Allreduce(AllreduceAlg::RecursiveDoubling) => {
            let contribution = Bytes::symbolic(lane_bytes(m));
            let _ = allreduce_recursive_doubling(ctx, ReduceOp::Sum, contribution);
        }
        Alg::Gather(GatherAlg::Linear) => {
            let _ = gather_linear(ctx, root, Bytes::symbolic(m));
        }
        Alg::Gather(GatherAlg::Binomial) => {
            let _ = gather_binomial(ctx, root, Bytes::symbolic(m));
        }
        Alg::Scatter(a) => {
            let blocks = (rank == root).then(|| (0..p).map(|_| Bytes::symbolic(m)).collect());
            let _ = match a {
                ScatterAlg::Linear => scatter_linear(ctx, root, blocks),
                ScatterAlg::Binomial => scatter_binomial(ctx, root, blocks),
            };
        }
        Alg::Allgather(a) => {
            let block = Bytes::symbolic(m);
            let _ = match a {
                AllgatherAlg::Ring => allgather_ring(ctx, block),
                AllgatherAlg::RecursiveDoubling => allgather_recursive_doubling(ctx, block),
                AllgatherAlg::GatherBcast => allgather_gather_bcast(ctx, block),
            };
        }
        Alg::Alltoall(a) => {
            let blocks: Vec<Bytes> = (0..p).map(|_| Bytes::symbolic(m)).collect();
            let _ = match a {
                AlltoallAlg::Linear => alltoall_linear(ctx, blocks),
                AlltoallAlg::Pairwise => alltoall_pairwise(ctx, blocks),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;
    use collsel_support::{FromJson, ToJson};

    #[test]
    fn collective_names_round_trip() {
        for c in Collective::ALL {
            assert_eq!(c.name().parse::<Collective>().unwrap(), c);
            assert_eq!(c.to_string(), c.name());
        }
        assert!("bogus".parse::<Collective>().is_err());
    }

    #[test]
    fn collective_indices_are_dense_and_stable() {
        for (i, c) in Collective::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn every_family_is_consistent() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Collective::ALL {
            let algs = c.algorithms();
            assert!(!algs.is_empty(), "{c} has no algorithms");
            for &a in algs {
                assert_eq!(a.collective(), c, "{a:?} filed under {c}");
                assert!(seen.insert(a.qualified_name()), "duplicate {a:?}");
                assert_eq!(Alg::parse_for(c, a.name()).unwrap(), a);
                assert_eq!(a.qualified_name().parse::<Alg>().unwrap(), a);
            }
        }
        // 6 bcast + 6 reduce + 2 allreduce + 2 gather + 2 scatter
        // + 3 allgather + 2 alltoall.
        assert_eq!(seen.len(), 23);
    }

    #[test]
    fn qualified_names_disambiguate_shared_short_names() {
        let r: Alg = "reduce/linear".parse().unwrap();
        let g: Alg = "gather/linear".parse().unwrap();
        assert_ne!(r, g);
        assert_eq!(r.name(), g.name());
        assert!("linear".parse::<Alg>().is_err(), "unqualified is ambiguous");
        assert!("reduce/bogus".parse::<Alg>().is_err());
        assert!("bogus/linear".parse::<Alg>().is_err());
    }

    #[test]
    fn alg_json_round_trips() {
        for c in Collective::ALL {
            for &a in c.algorithms() {
                assert_eq!(Alg::from_json(&a.to_json()).unwrap(), a);
            }
            assert_eq!(Collective::from_json(&c.to_json()).unwrap(), c);
        }
    }

    #[test]
    fn run_collective_completes_for_every_algorithm() {
        let cluster = ClusterModel::gros();
        for c in Collective::ALL {
            for &alg in c.algorithms() {
                for (p, m) in [(1usize, 100usize), (5, 4096), (8, 0)] {
                    simulate(&cluster, p, 0, move |ctx| {
                        run_collective(ctx, alg, 0, m, 1024);
                    })
                    .unwrap_or_else(|e| panic!("{alg:?} p={p} m={m}: {e}"));
                }
            }
        }
    }

    #[test]
    fn lane_rounding_is_sound() {
        assert_eq!(lane_bytes(0), 0);
        assert_eq!(lane_bytes(1), 8);
        assert_eq!(lane_bytes(8), 8);
        assert_eq!(lane_bytes(9), 16);
        assert_eq!(lane_seg(0), 8);
        assert_eq!(lane_seg(8192), 8192);
        assert_eq!(lane_seg(8193), 8200);
    }
}
