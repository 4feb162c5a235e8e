//! Allgather algorithms (extension): every rank contributes one block
//! and ends up with all blocks, in rank order.
//!
//! Ports follow `coll/base/coll_base_allgather.c`:
//!
//! * [`allgather_ring`] — P-1 steps around a ring, each step forwarding
//!   the newest block to the right neighbour;
//! * [`allgather_recursive_doubling`] — log₂P exchange rounds for
//!   power-of-two worlds (falls back to the ring otherwise);
//! * [`allgather_gather_bcast`] — the "basic linear" composition:
//!   gather to rank 0, then broadcast the packed result.

use crate::bcast::bcast_binomial;
use crate::gather::gather_linear;
use collsel_mpi::Comm;
use collsel_support::Bytes;

const TAG_ALLGATHER: u32 = 0x1A;

fn check_block<C: Comm>(ctx: &C, block: &Bytes) -> usize {
    let _ = ctx;
    block.len()
}

/// Ring allgather: in step `s`, rank `r` sends the block it received in
/// step `s-1` (its own in step 0) to `(r+1) mod P` and receives from
/// `(r-1) mod P`. Returns all blocks in rank order.
pub fn allgather_ring<C: Comm>(ctx: &mut C, block: Bytes) -> Vec<Bytes> {
    let p = ctx.size();
    let me = ctx.rank();
    let item = check_block(ctx, &block);
    let mut out: Vec<Option<Bytes>> = vec![None; p];
    out[me] = Some(block);
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // The block travelling through `me` in step s originates at
    // (me - s) mod p.
    for s in 0..p.saturating_sub(1) {
        let outgoing = out[(me + p - s) % p].clone().expect("block from last step");
        let incoming = ctx.sendrecv(right, TAG_ALLGATHER, outgoing, left, TAG_ALLGATHER);
        debug_assert_eq!(incoming.len(), item);
        out[(me + p - s - 1) % p] = Some(incoming);
    }
    out.into_iter()
        .map(|b| b.expect("every block filled"))
        .collect()
}

/// Recursive-doubling allgather: in round `k`, partners at distance
/// `2^k` exchange everything they have accumulated so far. Requires a
/// power-of-two world; other sizes fall back to [`allgather_ring`].
pub fn allgather_recursive_doubling<C: Comm>(ctx: &mut C, block: Bytes) -> Vec<Bytes> {
    let p = ctx.size();
    if !p.is_power_of_two() {
        return allgather_ring(ctx, block);
    }
    let me = ctx.rank();
    let item = check_block(ctx, &block);
    let mut have: Vec<Option<Bytes>> = vec![None; p];
    have[me] = Some(block);
    let mut dist = 1;
    while dist < p {
        let partner = me ^ dist;
        // My accumulated window covers the `dist` ranks sharing my
        // high bits; pack it in rank order.
        let base = me & !(dist - 1);
        let window = have.iter().skip(base).take(dist);
        let packed = Bytes::concat(window.map(|slot| slot.as_ref().expect("window filled")));
        let incoming = ctx.sendrecv(partner, TAG_ALLGATHER, packed, partner, TAG_ALLGATHER);
        let partner_base = partner & !(dist - 1);
        assert_eq!(incoming.len(), dist * item, "partner window size");
        for (i, r) in (partner_base..partner_base + dist).enumerate() {
            have[r] = Some(incoming.slice(i * item..(i + 1) * item));
        }
        dist *= 2;
    }
    have.into_iter()
        .map(|b| b.expect("every block filled"))
        .collect()
}

/// Gather-then-broadcast allgather (`basic_linear`): blocks are
/// gathered to rank 0 with the linear gather, packed, broadcast with
/// the binomial tree, and unpacked.
pub fn allgather_gather_bcast<C: Comm>(ctx: &mut C, block: Bytes) -> Vec<Bytes> {
    let p = ctx.size();
    let item = check_block(ctx, &block);
    let gathered = gather_linear(ctx, 0, block);
    let packed = gathered.map(|blocks| {
        assert!(
            blocks.iter().all(|b| b.len() == item),
            "allgather blocks must be uniform"
        );
        Bytes::concat(&blocks)
    });
    let all = bcast_binomial(ctx, 0, packed, p * item, 8 * 1024);
    (0..p)
        .map(|r| all.slice(r * item..(r + 1) * item))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;

    fn block(rank: usize) -> Bytes {
        Bytes::from(vec![rank as u8; 24])
    }

    fn check(f: impl Fn(&mut collsel_mpi::Ctx, Bytes) -> Vec<Bytes> + Sync, p: usize) {
        let cluster = ClusterModel::gros();
        let out = simulate(&cluster, p, 0, move |ctx| f(ctx, block(ctx.rank()))).unwrap();
        for (rank, all) in out.results.iter().enumerate() {
            assert_eq!(all.len(), p, "rank {rank} block count");
            for (src, b) in all.iter().enumerate() {
                assert_eq!(
                    b.as_ref(),
                    vec![src as u8; 24].as_slice(),
                    "rank {rank} block {src}"
                );
            }
        }
    }

    #[test]
    fn ring_collects_everything() {
        for p in [1, 2, 3, 5, 8, 13] {
            check(allgather_ring, p);
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for p in [1, 2, 4, 8, 16] {
            check(allgather_recursive_doubling, p);
        }
    }

    #[test]
    fn recursive_doubling_falls_back_gracefully() {
        for p in [3, 6, 12] {
            check(allgather_recursive_doubling, p);
        }
    }

    #[test]
    fn gather_bcast_composition() {
        for p in [1, 2, 5, 9] {
            check(allgather_gather_bcast, p);
        }
    }

    #[test]
    fn ring_uses_p_squared_messages_rd_uses_plogp() {
        let cluster = ClusterModel::gros();
        let p = 8;
        let ring = simulate(&cluster, p, 0, |ctx| allgather_ring(ctx, block(ctx.rank())))
            .unwrap()
            .report;
        let rd = simulate(&cluster, p, 0, |ctx| {
            allgather_recursive_doubling(ctx, block(ctx.rank()))
        })
        .unwrap()
        .report;
        assert_eq!(ring.messages, (p * (p - 1)) as u64);
        assert_eq!(rd.messages, (p * 3) as u64); // log2(8) rounds
        assert!(rd.bytes >= ring.bytes / 3, "rd moves bigger windows");
    }
}
