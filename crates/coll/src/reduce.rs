//! Reduce algorithms (extension beyond the paper's broadcast focus).
//!
//! The paper's conclusion proposes extending the modelling approach to
//! other collectives; reduce is the mirror image of broadcast (data
//! flows *up* the same virtual topologies) and reuses the whole
//! toolbox. Ports follow `coll/base/coll_base_reduce.c`:
//!
//! * [`reduce_linear`] — the root receives every contribution and folds
//!   them (`reduce_intra_basic_linear`);
//! * [`reduce_binomial`], [`reduce_chain`], [`reduce_pipeline`],
//!   [`reduce_binary`], [`reduce_in_order_binary`] — segmented
//!   pipelined tree reductions via the shared engine
//!   [`reduce_tree_segmented`] (`ompi_coll_base_reduce_generic`).
//!
//! Payloads are vectors of little-endian `u64` lanes; [`ReduceOp`]
//! provides the usual commutative-associative MPI operators, so any
//! reduction order over the tree yields the same result (as with
//! `MPI_SUM` etc. on integer types).

use crate::alg::DEFAULT_CHAIN_FANOUT;
use crate::topology::Topology;
use collsel_mpi::Comm;
use collsel_support::Bytes;

const TAG_REDUCE: u32 = 0xF;

/// The catalogue of ported reduce algorithms, mirroring the Open MPI
/// 3.1 `MPI_Reduce` family (used by the extension models and the
/// dispatcher [`reduce`]).
///
/// | Variant | Open MPI routine | Topology | Segmented |
/// |---|---|---|---|
/// | `Linear` | `reduce_intra_basic_linear` | flat | no |
/// | `Chain` | `reduce_intra_chain` (4 chains) | 4 chains | yes |
/// | `Pipeline` | `reduce_intra_pipeline` | single chain | yes |
/// | `Binary` | `reduce_intra_binary` | heap binary | yes |
/// | `InOrderBinary` | `reduce_intra_in_order_binary` | in-order binary | yes |
/// | `Binomial` | `reduce_intra_binomial` | balanced binomial | yes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReduceAlg {
    /// Flat reduction at the root.
    Linear,
    /// Segmented reduction up [`DEFAULT_CHAIN_FANOUT`] parallel chains
    /// (Open MPI "chain").
    Chain,
    /// Segmented pipeline up a single chain (Open MPI "pipeline").
    Pipeline,
    /// Segmented reduction up a heap binary tree.
    Binary,
    /// Segmented reduction up an in-order binary tree. Open MPI uses
    /// this shape for non-commutative operators; our lane operators are
    /// commutative, so it is simply another pipelined tree here.
    InOrderBinary,
    /// Segmented reduction up a balanced binomial tree.
    Binomial,
}

impl ReduceAlg {
    /// All reduce algorithms, in a stable order.
    pub const ALL: [ReduceAlg; 6] = [
        ReduceAlg::Linear,
        ReduceAlg::Chain,
        ReduceAlg::Pipeline,
        ReduceAlg::Binary,
        ReduceAlg::InOrderBinary,
        ReduceAlg::Binomial,
    ];

    /// Short snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            ReduceAlg::Linear => "linear",
            ReduceAlg::Chain => "chain",
            ReduceAlg::Pipeline => "pipeline",
            ReduceAlg::Binary => "binary",
            ReduceAlg::InOrderBinary => "in_order_binary",
            ReduceAlg::Binomial => "binomial",
        }
    }

    /// Whether the algorithm splits the payload into pipeline segments.
    pub fn is_segmented(self) -> bool {
        !matches!(self, ReduceAlg::Linear)
    }
}

impl std::fmt::Display for ReduceAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown reduce algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseReduceAlgError {
    input: String,
}

impl std::fmt::Display for ParseReduceAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown reduce algorithm `{}` (expected one of: linear, chain, pipeline, \
             binary, in_order_binary, binomial)",
            self.input
        )
    }
}

impl std::error::Error for ParseReduceAlgError {}

impl std::str::FromStr for ReduceAlg {
    type Err = ParseReduceAlgError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ReduceAlg::ALL
            .iter()
            .copied()
            .find(|a| a.name() == s)
            .ok_or_else(|| ParseReduceAlgError {
                input: s.to_owned(),
            })
    }
}

collsel_support::json_enum!(ReduceAlg {
    Linear,
    Chain,
    Pipeline,
    Binary,
    InOrderBinary,
    Binomial
});

/// Dispatches to the selected reduce algorithm (segmented algorithms
/// use `seg_size`; [`ReduceAlg::Linear`] ignores it).
pub fn reduce<C: Comm>(
    ctx: &mut C,
    alg: ReduceAlg,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    match alg {
        ReduceAlg::Linear => reduce_linear(ctx, root, op, contribution),
        ReduceAlg::Chain => reduce_chain(ctx, root, op, contribution, seg_size),
        ReduceAlg::Pipeline => reduce_pipeline(ctx, root, op, contribution, seg_size),
        ReduceAlg::Binary => reduce_binary(ctx, root, op, contribution, seg_size),
        ReduceAlg::InOrderBinary => reduce_in_order_binary(ctx, root, op, contribution, seg_size),
        ReduceAlg::Binomial => reduce_binomial(ctx, root, op, contribution, seg_size),
    }
}

/// A commutative, associative reduction operator over little-endian
/// `u64` lanes (the integer subset of MPI's predefined operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Wrapping element-wise sum (`MPI_SUM`).
    Sum,
    /// Element-wise maximum (`MPI_MAX`).
    Max,
    /// Element-wise minimum (`MPI_MIN`).
    Min,
    /// Element-wise bitwise xor (`MPI_BXOR`).
    Xor,
}

impl ReduceOp {
    fn fold_lane(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Xor => a ^ b,
        }
    }

    /// The lane-wise reduction of `parts`, folded in iteration order,
    /// as one new buffer: one allocation when every part has contents
    /// (a single part is shared, not copied), and a
    /// [symbolic](Bytes::symbolic) buffer of the same length, in time
    /// proportional to the number of parts, as soon as one does not.
    /// This is the only place a collective touches reduction bytes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, if the parts differ in length or are
    /// not a whole number of 8-byte lanes.
    pub fn combine<'a>(self, parts: impl IntoIterator<Item = &'a Bytes>) -> Bytes {
        let parts: Vec<&Bytes> = parts.into_iter().collect();
        let (first, rest) = parts
            .split_first()
            .expect("a reduction has at least one input");
        let len = first.len();
        assert!(len.is_multiple_of(8), "reduce buffers must be u64 lanes");
        assert!(
            rest.iter().all(|part| part.len() == len),
            "reduce buffers differ in length"
        );
        if rest.is_empty() {
            return (*first).clone();
        }
        if parts.iter().any(|part| part.is_symbolic()) {
            return Bytes::symbolic(len);
        }
        let mut acc = first.to_vec();
        for part in rest {
            self.fold(&mut acc, part);
        }
        Bytes::from(acc)
    }

    /// Folds `other` into `acc`, lane by lane.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length or are not a whole number
    /// of 8-byte lanes.
    pub fn fold(self, acc: &mut [u8], other: &[u8]) {
        assert_eq!(acc.len(), other.len(), "reduce buffers differ in length");
        assert!(
            acc.len().is_multiple_of(8),
            "reduce buffers must be u64 lanes"
        );
        for (a, b) in acc.chunks_exact_mut(8).zip(other.chunks_exact(8)) {
            let lane = self.fold_lane(
                u64::from_le_bytes(a.try_into().expect("8-byte chunk")),
                u64::from_le_bytes(b.try_into().expect("8-byte chunk")),
            );
            a.copy_from_slice(&lane.to_le_bytes());
        }
    }
}

fn check_contribution(contribution: &Bytes) {
    assert_eq!(
        contribution.len() % 8,
        0,
        "contribution must be a whole number of u64 lanes"
    );
}

/// Flat reduction (`reduce_intra_basic_linear`): every rank sends its
/// contribution to the root, which folds them in ascending rank order.
/// Returns `Some(result)` at the root, `None` elsewhere.
///
/// # Panics
///
/// Panics if `root` is out of range or the contribution is not a whole
/// number of lanes.
pub fn reduce_linear<C: Comm>(
    ctx: &mut C,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
) -> Option<Bytes> {
    assert!(root < ctx.size(), "reduce root {root} out of range");
    check_contribution(&contribution);
    if ctx.rank() == root {
        let reqs: Vec<_> = (0..ctx.size())
            .filter(|&src| src != root)
            .map(|src| ctx.irecv(src, TAG_REDUCE))
            .collect();
        let arrived = ctx.wait_all_recvs(reqs);
        Some(op.combine(std::iter::once(&contribution).chain(arrived.iter())))
    } else {
        ctx.send(root, TAG_REDUCE, contribution);
        None
    }
}

/// The shared segmented tree-reduction engine
/// (`ompi_coll_base_reduce_generic`): data flows leaf-to-root down the
/// given topology, one segment at a time; every interior rank receives
/// each child's partial segment, folds it into its own, and forwards
/// the folded segment to its parent, pipelining across segments.
///
/// Returns `Some(result)` at the root, `None` elsewhere.
///
/// # Panics
///
/// Panics if `seg_size` is zero or not a multiple of 8, if `root` is
/// out of range, or if the contribution is not a whole number of lanes.
pub fn reduce_tree_segmented<C: Comm>(
    ctx: &mut C,
    tree: &Topology,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    assert!(root < ctx.size(), "reduce root {root} out of range");
    assert!(
        seg_size > 0 && seg_size.is_multiple_of(8),
        "segment size must be a positive multiple of 8"
    );
    check_contribution(&contribution);
    debug_assert_eq!(tree.root(), root);
    if ctx.size() == 1 {
        return Some(contribution);
    }

    let len = contribution.len();
    let ns = len.div_ceil(seg_size).max(1);
    let children = tree.children(ctx.rank());
    let parent = tree.parent(ctx.rank());

    // Pre-post the receives for the first segment from every child.
    let mut inflight: Vec<_> = children.iter().map(|&c| ctx.irecv(c, TAG_REDUCE)).collect();

    // The root's folded segments.
    let mut out = Vec::new();
    for i in 0..ns {
        let lo = (i * seg_size).min(len);
        let hi = ((i + 1) * seg_size).min(len);
        // Collect this segment's partials, pre-posting the next round
        // before folding (double buffering, as in the Open MPI loop).
        let arrived = ctx.wait_all_recvs(std::mem::take(&mut inflight));
        if i + 1 < ns {
            inflight = children.iter().map(|&c| ctx.irecv(c, TAG_REDUCE)).collect();
        }
        let mine = contribution.slice(lo..hi);
        let folded = op.combine(std::iter::once(&mine).chain(arrived.iter()));
        match parent {
            Some(parent) => ctx.send(parent, TAG_REDUCE, folded),
            None => out.push(folded),
        }
    }

    parent.is_none().then(|| Bytes::concat(&out))
}

/// Segmented binomial-tree reduction (`reduce_intra_binomial`).
pub fn reduce_binomial<C: Comm>(
    ctx: &mut C,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    let tree = Topology::binomial(ctx.size(), root);
    reduce_tree_segmented(ctx, &tree, root, op, contribution, seg_size)
}

/// Segmented reduction up [`DEFAULT_CHAIN_FANOUT`] parallel chains
/// (`reduce_intra_chain` with Open MPI's default fanout).
pub fn reduce_chain<C: Comm>(
    ctx: &mut C,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    let tree = Topology::k_chain(DEFAULT_CHAIN_FANOUT, ctx.size(), root);
    reduce_tree_segmented(ctx, &tree, root, op, contribution, seg_size)
}

/// Segmented single-chain (pipeline) reduction
/// (`reduce_intra_pipeline`).
pub fn reduce_pipeline<C: Comm>(
    ctx: &mut C,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    let tree = Topology::chain(ctx.size(), root);
    reduce_tree_segmented(ctx, &tree, root, op, contribution, seg_size)
}

/// Segmented reduction up an in-order binary tree
/// (`reduce_intra_in_order_binary`).
pub fn reduce_in_order_binary<C: Comm>(
    ctx: &mut C,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    let tree = Topology::in_order_binary(ctx.size(), root);
    reduce_tree_segmented(ctx, &tree, root, op, contribution, seg_size)
}

/// Segmented binary-tree reduction (`reduce_intra_bintree`).
pub fn reduce_binary<C: Comm>(
    ctx: &mut C,
    root: usize,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Option<Bytes> {
    let tree = Topology::binary(ctx.size(), root);
    reduce_tree_segmented(ctx, &tree, root, op, contribution, seg_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;

    fn lanes(rank: usize, n: usize) -> Bytes {
        let mut v = Vec::with_capacity(n * 8);
        for lane in 0..n {
            v.extend_from_slice(&((rank * 1000 + lane) as u64).to_le_bytes());
        }
        Bytes::from(v)
    }

    fn expected(op: ReduceOp, p: usize, n: usize) -> Vec<u64> {
        (0..n)
            .map(|lane| {
                (0..p)
                    .map(|rank| (rank * 1000 + lane) as u64)
                    .reduce(|a, b| op.fold_lane(a, b))
                    .expect("p >= 1")
            })
            .collect()
    }

    fn decode(b: &Bytes) -> Vec<u64> {
        b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn check(
        f: impl Fn(&mut collsel_mpi::Ctx, usize, ReduceOp, Bytes) -> Option<Bytes> + Sync,
        op: ReduceOp,
        p: usize,
        root: usize,
        n: usize,
    ) {
        let cluster = ClusterModel::gros();
        let out = simulate(&cluster, p, 0, move |ctx| {
            f(ctx, root, op, lanes(ctx.rank(), n))
        })
        .unwrap();
        for (rank, res) in out.results.iter().enumerate() {
            if rank == root {
                assert_eq!(
                    decode(res.as_ref().expect("root gets the result")),
                    expected(op, p, n),
                    "op={op:?} p={p} root={root}"
                );
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn linear_reduce_all_ops() {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Xor] {
            check(reduce_linear, op, 7, 2, 16);
        }
    }

    #[test]
    fn tree_reduces_match_linear() {
        for p in [1, 2, 3, 5, 9, 16] {
            for root in [0, p - 1] {
                for alg in ReduceAlg::ALL {
                    let op = if alg == ReduceAlg::Binary {
                        ReduceOp::Max
                    } else {
                        ReduceOp::Sum
                    };
                    check(
                        move |c, r, o, b| reduce(c, alg, r, o, b, 64),
                        op,
                        p,
                        root,
                        40,
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_names_round_trip() {
        for alg in ReduceAlg::ALL {
            assert_eq!(alg.name().parse::<ReduceAlg>().unwrap(), alg);
            assert_eq!(alg.is_segmented(), alg != ReduceAlg::Linear);
        }
        assert!("bogus".parse::<ReduceAlg>().is_err());
    }

    #[test]
    fn segmentation_boundaries() {
        // 40 lanes = 320 bytes; segment sizes that divide, straddle and
        // exceed the payload.
        for seg in [8, 24, 320, 640] {
            check(
                |c, r, o, b| reduce_binomial(c, r, o, b, seg),
                ReduceOp::Sum,
                6,
                0,
                40,
            );
        }
    }

    #[test]
    fn empty_contribution() {
        check(
            |c, r, o, b| reduce_binomial(c, r, o, b, 64),
            ReduceOp::Sum,
            4,
            0,
            0,
        );
    }

    #[test]
    fn fold_lane_semantics() {
        assert_eq!(ReduceOp::Sum.fold_lane(u64::MAX, 1), 0, "wrapping");
        assert_eq!(ReduceOp::Max.fold_lane(3, 9), 9);
        assert_eq!(ReduceOp::Min.fold_lane(3, 9), 3);
        assert_eq!(ReduceOp::Xor.fold_lane(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn combine_folds_real_parts_and_goes_symbolic_with_any_symbolic_part() {
        let (a, b, c) = (lanes(1, 3), lanes(2, 3), lanes(3, 3));
        let mut want = a.to_vec();
        ReduceOp::Sum.fold(&mut want, &b);
        ReduceOp::Sum.fold(&mut want, &c);
        assert_eq!(ReduceOp::Sum.combine([&a, &b, &c]), want);
        assert_eq!(ReduceOp::Max.combine([&a]), a);

        let sym = Bytes::symbolic(24);
        for parts in [[&sym, &b, &c], [&a, &sym, &c], [&a, &b, &sym]] {
            let out = ReduceOp::Sum.combine(parts);
            assert!(out.is_symbolic());
            assert_eq!(out.len(), 24);
        }
        assert!(ReduceOp::Sum.combine([&sym]).is_symbolic());
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn combine_rejects_mismatched_lengths_even_when_symbolic() {
        let _ = ReduceOp::Sum.combine([&Bytes::symbolic(16), &Bytes::symbolic(8)]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn fold_rejects_mismatched_lengths() {
        let mut a = vec![0u8; 16];
        ReduceOp::Sum.fold(&mut a, &[0u8; 8]);
    }

    #[test]
    fn tree_reduce_rejects_unaligned_segments() {
        let cluster = ClusterModel::gros();
        let err = simulate(&cluster, 2, 0, |ctx| {
            reduce_binomial(ctx, 0, ReduceOp::Sum, lanes(ctx.rank(), 4), 12)
        })
        .unwrap_err();
        match err {
            collsel_mpi::SimError::RankPanic { message, .. } => {
                assert!(message.contains("multiple of 8"), "{message}");
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }
}
