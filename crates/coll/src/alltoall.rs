//! All-to-all algorithms (extension): rank `r` sends block `d` of its
//! input to rank `d` and receives block `s` from every rank `s`.
//!
//! Ports follow `coll/base/coll_base_alltoall.c`:
//!
//! * [`alltoall_linear`] — post everything at once
//!   (`alltoall_intra_basic_linear`);
//! * [`alltoall_pairwise`] — P-1 balanced sendrecv rounds with partner
//!   `(r + round) mod P` (`alltoall_intra_pairwise`).

use collsel_mpi::Comm;
use collsel_support::Bytes;

const TAG_ALLTOALL: u32 = 0x2A;

fn check_blocks<C: Comm>(ctx: &C, blocks: &[Bytes]) {
    assert_eq!(
        blocks.len(),
        ctx.size(),
        "alltoall needs exactly one block per destination"
    );
}

/// Linear all-to-all: post all receives, then all sends, then wait for
/// everything. Returns the received blocks in source-rank order (the
/// local block is passed through).
///
/// # Panics
///
/// Panics if `blocks` does not contain exactly one block per rank.
pub fn alltoall_linear<C: Comm>(ctx: &mut C, blocks: Vec<Bytes>) -> Vec<Bytes> {
    check_blocks(ctx, &blocks);
    let p = ctx.size();
    let me = ctx.rank();
    if p == 1 {
        return blocks;
    }
    let recvs: Vec<_> = (0..p)
        .filter(|&src| src != me)
        .map(|src| ctx.irecv(src, TAG_ALLTOALL))
        .collect();
    let sends: Vec<_> = (0..p)
        .filter(|&dst| dst != me)
        .map(|dst| ctx.isend(dst, TAG_ALLTOALL, blocks[dst].clone()))
        .collect();
    ctx.wait_all_sends(sends);
    let mut arrived = ctx.wait_all_recvs(recvs).into_iter();
    (0..p)
        .map(|src| {
            if src == me {
                blocks[me].clone()
            } else {
                arrived.next().expect("one block per peer")
            }
        })
        .collect()
}

/// Pairwise-exchange all-to-all: in round `k` (1 ≤ k < P), rank `r`
/// sends to `(r + k) mod P` and receives from `(r - k) mod P`, so every
/// round is a perfect matching and no endpoint is oversubscribed.
///
/// # Panics
///
/// Panics if `blocks` does not contain exactly one block per rank.
pub fn alltoall_pairwise<C: Comm>(ctx: &mut C, blocks: Vec<Bytes>) -> Vec<Bytes> {
    check_blocks(ctx, &blocks);
    let p = ctx.size();
    let me = ctx.rank();
    let mut out: Vec<Option<Bytes>> = vec![None; p];
    out[me] = Some(blocks[me].clone());
    for k in 1..p {
        let to = (me + k) % p;
        let from = (me + p - k) % p;
        let data = ctx.sendrecv(to, TAG_ALLTOALL, blocks[to].clone(), from, TAG_ALLTOALL);
        out[from] = Some(data);
    }
    out.into_iter()
        .map(|b| b.expect("all rounds ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;

    /// Block from `src` to `dst` is `[src, dst]` repeated: uniquely
    /// identifies both endpoints.
    fn blocks(src: usize, p: usize) -> Vec<Bytes> {
        (0..p)
            .map(|dst| Bytes::from([src as u8, dst as u8].repeat(8)))
            .collect()
    }

    fn check(f: impl Fn(&mut collsel_mpi::Ctx, Vec<Bytes>) -> Vec<Bytes> + Sync, p: usize) {
        let cluster = ClusterModel::gros();
        let out = simulate(&cluster, p, 0, move |ctx| {
            f(ctx, blocks(ctx.rank(), ctx.size()))
        })
        .unwrap();
        for (dst, got) in out.results.iter().enumerate() {
            assert_eq!(got.len(), p);
            for (src, b) in got.iter().enumerate() {
                assert_eq!(
                    b.as_ref(),
                    [src as u8, dst as u8].repeat(8).as_slice(),
                    "dst {dst} src {src}"
                );
            }
        }
    }

    #[test]
    fn linear_alltoall_routes_all_pairs() {
        for p in [1, 2, 3, 5, 8, 11] {
            check(alltoall_linear, p);
        }
    }

    #[test]
    fn pairwise_alltoall_routes_all_pairs() {
        for p in [1, 2, 3, 5, 8, 11] {
            check(alltoall_pairwise, p);
        }
    }

    #[test]
    fn both_move_the_same_bytes() {
        let cluster = ClusterModel::gros();
        let p = 6;
        let lin = simulate(&cluster, p, 0, |ctx| {
            alltoall_linear(ctx, blocks(ctx.rank(), ctx.size()))
        })
        .unwrap()
        .report;
        let pw = simulate(&cluster, p, 0, |ctx| {
            alltoall_pairwise(ctx, blocks(ctx.rank(), ctx.size()))
        })
        .unwrap()
        .report;
        assert_eq!(lin.messages, (p * (p - 1)) as u64);
        assert_eq!(pw.messages, lin.messages);
        assert_eq!(pw.bytes, lin.bytes);
    }

    #[test]
    fn alltoall_rejects_wrong_block_count() {
        let cluster = ClusterModel::gros();
        let err = simulate(&cluster, 3, 0, |ctx| {
            alltoall_linear(ctx, blocks(ctx.rank(), 2))
        })
        .unwrap_err();
        assert!(matches!(err, collsel_mpi::SimError::RankPanic { .. }));
    }
}
