//! Allreduce algorithms (extension): every rank ends up with the
//! reduction of all contributions.
//!
//! Ports follow `coll/base/coll_base_allreduce.c`:
//!
//! * [`allreduce_reduce_bcast`] — the classic composition: reduce to
//!   rank 0, then broadcast the result (`allreduce_intra_basic`);
//! * [`allreduce_recursive_doubling`] — log₂P exchange-and-fold rounds
//!   (`allreduce_intra_recursivedoubling`), handling non-power-of-two
//!   worlds with the standard fold-in/fold-out pre/post phases.

use crate::bcast::bcast_binomial;
use crate::reduce::{reduce_binomial, ReduceOp};
use collsel_mpi::Comm;
use collsel_support::Bytes;

const TAG_ALLREDUCE: u32 = 0x3A;

/// Reduce-then-broadcast allreduce: binomial reduce to rank 0 followed
/// by a binomial broadcast of the result.
///
/// # Panics
///
/// Panics if the contribution is not a whole number of `u64` lanes or
/// `seg_size` is not a positive multiple of 8.
pub fn allreduce_reduce_bcast<C: Comm>(
    ctx: &mut C,
    op: ReduceOp,
    contribution: Bytes,
    seg_size: usize,
) -> Bytes {
    let len = contribution.len();
    let reduced = reduce_binomial(ctx, 0, op, contribution, seg_size);
    bcast_binomial(ctx, 0, reduced, len, seg_size)
}

/// Recursive-doubling allreduce: in round `k`, partners at distance
/// `2^k` exchange their current values and fold; after log₂P rounds
/// every rank holds the full reduction.
///
/// Non-power-of-two worlds use the standard trick: the first
/// `P - 2^⌊log₂P⌋` "extra" ranks fold their value into a partner before
/// the rounds and receive the final result afterwards.
///
/// # Panics
///
/// Panics if the contribution is not a whole number of `u64` lanes.
pub fn allreduce_recursive_doubling<C: Comm>(
    ctx: &mut C,
    op: ReduceOp,
    contribution: Bytes,
) -> Bytes {
    assert!(
        contribution.len().is_multiple_of(8),
        "contribution must be a whole number of u64 lanes"
    );
    let p = ctx.size();
    if p == 1 {
        return contribution;
    }
    let me = ctx.rank();
    // Largest power of two <= p, and the number of "extra" ranks.
    let pow2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let extra = p - pow2;

    let mut value = contribution;

    // Pre-phase: extras send their value to their base partner and sit
    // out; the partners fold it in.
    let participating = if me < 2 * extra {
        if me.is_multiple_of(2) {
            // Extra rank: ship the value to me+1 and wait for the result.
            ctx.send(me + 1, TAG_ALLREDUCE, value.clone());
            false
        } else {
            let data = ctx.recv(me - 1, TAG_ALLREDUCE);
            value = op.combine([&value, &data]);
            true
        }
    } else {
        true
    };

    if participating {
        // Map to a dense 0..pow2 id space.
        let id = if me < 2 * extra { me / 2 } else { me - extra };
        let unmap = |v: usize| if v < extra { 2 * v + 1 } else { v + extra };
        let mut dist = 1;
        while dist < pow2 {
            let partner = unmap(id ^ dist);
            let data = ctx.sendrecv(
                partner,
                TAG_ALLREDUCE,
                value.clone(),
                partner,
                TAG_ALLREDUCE,
            );
            value = op.combine([&value, &data]);
            dist *= 2;
        }
        // Post-phase: return the result to my extra rank, if any.
        if me < 2 * extra {
            ctx.send(me - 1, TAG_ALLREDUCE, value.clone());
        }
        value
    } else {
        ctx.recv(me + 1, TAG_ALLREDUCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;

    fn lanes(rank: usize, n: usize) -> Bytes {
        let mut v = Vec::with_capacity(n * 8);
        for lane in 0..n {
            v.extend_from_slice(&((rank * 100 + lane) as u64).to_le_bytes());
        }
        Bytes::from(v)
    }

    fn expected(op: ReduceOp, p: usize, n: usize) -> Bytes {
        let mut acc = lanes(0, n).to_vec();
        for r in 1..p {
            op.fold(&mut acc, &lanes(r, n));
        }
        Bytes::from(acc)
    }

    fn check(f: impl Fn(&mut collsel_mpi::Ctx, Bytes) -> Bytes + Sync, op: ReduceOp, p: usize) {
        let cluster = ClusterModel::gros();
        let out = simulate(&cluster, p, 0, move |ctx| f(ctx, lanes(ctx.rank(), 12))).unwrap();
        let want = expected(op, p, 12);
        for (rank, got) in out.results.iter().enumerate() {
            assert_eq!(got, &want, "op={op:?} p={p} rank={rank}");
        }
    }

    #[test]
    fn reduce_bcast_composition() {
        for p in [1, 2, 3, 5, 8, 13] {
            check(
                |ctx, b| allreduce_reduce_bcast(ctx, ReduceOp::Sum, b, 64),
                ReduceOp::Sum,
                p,
            );
        }
    }

    #[test]
    fn recursive_doubling_powers_of_two() {
        for p in [1, 2, 4, 8, 16] {
            check(
                |ctx, b| allreduce_recursive_doubling(ctx, ReduceOp::Sum, b),
                ReduceOp::Sum,
                p,
            );
        }
    }

    #[test]
    fn recursive_doubling_non_powers_of_two() {
        for p in [3, 5, 6, 7, 11, 12] {
            check(
                |ctx, b| allreduce_recursive_doubling(ctx, ReduceOp::Max, b),
                ReduceOp::Max,
                p,
            );
        }
    }

    #[test]
    fn all_ops_agree_between_algorithms() {
        let cluster = ClusterModel::gros();
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Xor] {
            let p = 9;
            let a = simulate(&cluster, p, 0, move |ctx| {
                allreduce_reduce_bcast(ctx, op, lanes(ctx.rank(), 8), 64)
            })
            .unwrap();
            let b = simulate(&cluster, p, 0, move |ctx| {
                allreduce_recursive_doubling(ctx, op, lanes(ctx.rank(), 8))
            })
            .unwrap();
            assert_eq!(a.results, b.results, "op={op:?}");
        }
    }
}
