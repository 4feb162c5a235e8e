//! Gather algorithms.
//!
//! The paper's parameter-estimation experiments (Sect. 4.2) follow each
//! broadcast with a *linear gather without synchronisation*
//! (`ompi_coll_base_gather_intra_basic_linear`): every non-root rank
//! sends its contribution straight to the root, which posts one receive
//! per peer and waits for all of them. Its cost model is
//! `(P-1)·(α + m_g·β)` (paper Eq. 8).
//!
//! A binomial-tree gather is provided as well (Open MPI's other gather
//! algorithm), used by the extension experiments.

use crate::topology::Topology;
use collsel_mpi::Comm;
use collsel_support::Bytes;

const TAG_GATHER: u32 = 0xC;

/// Linear gather without synchronisation
/// (`gather_intra_basic_linear`): returns `Some(contributions)` indexed
/// by rank at the root, `None` elsewhere.
pub fn gather_linear<C: Comm>(ctx: &mut C, root: usize, contribution: Bytes) -> Option<Vec<Bytes>> {
    assert!(root < ctx.size(), "gather root {root} out of range");
    if ctx.rank() == root {
        let reqs: Vec<_> = (0..ctx.size())
            .filter(|&src| src != root)
            .map(|src| ctx.irecv(src, TAG_GATHER))
            .collect();
        let mut received = ctx.wait_all_recvs(reqs).into_iter();
        let mut out = Vec::with_capacity(ctx.size());
        for rank in 0..ctx.size() {
            if rank == root {
                out.push(contribution.clone());
            } else {
                out.push(received.next().expect("one message per peer"));
            }
        }
        Some(out)
    } else {
        ctx.send(root, TAG_GATHER, contribution);
        None
    }
}

/// Binomial-tree gather (`gather_intra_binomial`): contributions flow up
/// a balanced binomial tree, each interior rank concatenating its
/// subtree's block before forwarding. Returns `Some(contributions)`
/// indexed by rank at the root, `None` elsewhere.
///
/// All contributions must have the same length (as with `MPI_Gather`'s
/// uniform `recvcount`).
///
/// # Panics
///
/// Panics (at the root, when deblocking) if contributions have
/// inconsistent lengths.
pub fn gather_binomial<C: Comm>(
    ctx: &mut C,
    root: usize,
    contribution: Bytes,
) -> Option<Vec<Bytes>> {
    assert!(root < ctx.size(), "gather root {root} out of range");
    let p = ctx.size();
    if p == 1 {
        return Some(vec![contribution]);
    }
    let item_len = contribution.len();
    let tree = Topology::binomial(p, root);
    let me = ctx.rank();
    let vrank = |r: usize| (r + p - root) % p;

    // Subtree of virtual rank v covers v..v+span(v) (contiguous virtual
    // ranks), where span is the lowest set bit for v > 0 and p for the
    // root; blocks therefore concatenate in virtual-rank order.
    let span = |v: usize| -> usize {
        if v == 0 {
            p
        } else {
            let lsb = v & v.wrapping_neg();
            lsb.min(p - v)
        }
    };

    let mut parts = vec![contribution];
    // Children must be drained in ascending virtual-rank order so the
    // concatenation stays sorted; binomial children are already ordered.
    for &child in tree.children(me) {
        let data = ctx.recv(child, TAG_GATHER);
        debug_assert_eq!(data.len(), span(vrank(child)) * item_len);
        parts.push(data);
    }
    let block = Bytes::concat(&parts);
    debug_assert_eq!(block.len(), span(vrank(me)) * item_len);

    if let Some(parent) = tree.parent(me) {
        ctx.send(parent, TAG_GATHER, block);
        None
    } else {
        // Root: deblock from virtual-rank order back to real ranks.
        assert_eq!(
            block.len(),
            p * item_len,
            "gathered block has the wrong total length"
        );
        let mut out = vec![Bytes::new(); p];
        for v in 0..p {
            let r = (v + root) % p;
            out[r] = block.slice(v * item_len..(v + 1) * item_len);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;

    fn contribution(rank: usize) -> Bytes {
        Bytes::from(vec![rank as u8; 16])
    }

    fn check_gathered(out: &[Bytes], p: usize) {
        assert_eq!(out.len(), p);
        for (rank, data) in out.iter().enumerate() {
            assert_eq!(data.as_ref(), vec![rank as u8; 16].as_slice());
        }
    }

    #[test]
    fn linear_gather_collects_all() {
        let cluster = ClusterModel::gros();
        for root in [0, 3] {
            let out = simulate(&cluster, 7, 0, |ctx| {
                gather_linear(ctx, root, contribution(ctx.rank()))
            })
            .unwrap();
            for (rank, res) in out.results.iter().enumerate() {
                if rank == root {
                    check_gathered(res.as_ref().unwrap(), 7);
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn binomial_gather_collects_all() {
        let cluster = ClusterModel::gros();
        for p in [1, 2, 3, 5, 8, 13] {
            for root in [0, p - 1] {
                let out = simulate(&cluster, p, 0, |ctx| {
                    gather_binomial(ctx, root, contribution(ctx.rank()))
                })
                .unwrap();
                check_gathered(out.results[root].as_ref().unwrap(), p);
            }
        }
    }

    #[test]
    fn gathers_agree_with_each_other() {
        let cluster = ClusterModel::grisou();
        let lin = simulate(&cluster, 9, 0, |ctx| {
            gather_linear(ctx, 2, contribution(ctx.rank()))
        })
        .unwrap();
        let bin = simulate(&cluster, 9, 0, |ctx| {
            gather_binomial(ctx, 2, contribution(ctx.rank()))
        })
        .unwrap();
        assert_eq!(lin.results[2], bin.results[2]);
    }
}
