//! Broadcast algorithm implementations, ported from Open MPI 3.1
//! (`coll/base/coll_base_bcast.c`).
//!
//! All segmented algorithms share the pipelined tree engine
//! [`bcast_tree_segmented`] (the port of
//! `ompi_coll_base_bcast_intra_generic`): the root streams segments to
//! its children one stage at a time; interior ranks pre-post the next
//! receive, wait for the current segment, forward it to their children
//! with non-blocking sends, and wait for those sends before forwarding
//! the next segment. This per-stage "non-blocking linear broadcast" is
//! exactly the building block the paper's implementation-derived models
//! capture with the γ(P) factor.
//!
//! As in MPI, every rank knows the message length up front (the `count`
//! argument of `MPI_Bcast`); only the root supplies the payload.
//!
//! The caller-facing entry point is [`bcast`], selecting by
//! [`BcastAlg`].

use crate::alg::{BcastAlg, DEFAULT_CHAIN_FANOUT};
use crate::topology::Topology;
use collsel_mpi::Comm;
use collsel_support::Bytes;

/// Internal tag for broadcast pipeline traffic.
const TAG_BCAST: u32 = 0xB;
/// Internal tag for the split-binary half exchange.
const TAG_BCAST_XCHG: u32 = 0xB1;

/// Number of pipeline segments for a `len`-byte message (at least one,
/// so a zero-length broadcast still synchronises the tree).
fn num_segments(len: usize, seg_size: usize) -> usize {
    len.div_ceil(seg_size).max(1)
}

/// Splits `msg` into exactly [`num_segments`] segments of `seg_size`
/// bytes (the last possibly shorter, or empty for a zero-length
/// message).
fn segments(msg: &Bytes, seg_size: usize) -> Vec<Bytes> {
    let ns = num_segments(msg.len(), seg_size);
    (0..ns)
        .map(|i| {
            let start = (i * seg_size).min(msg.len());
            let end = ((i + 1) * seg_size).min(msg.len());
            msg.slice(start..end)
        })
        .collect()
}

/// Validates the common broadcast arguments and returns the root's
/// payload when this rank is the root.
fn check_args<C: Comm>(ctx: &C, root: usize, msg: &Option<Bytes>, len: usize) {
    assert!(root < ctx.size(), "bcast root {root} out of range");
    if ctx.rank() == root {
        let m = msg.as_ref().expect("bcast root must supply the message");
        assert_eq!(m.len(), len, "root payload length disagrees with len");
    }
}

/// Broadcasts a `len`-byte message from `root` to every rank using
/// `alg`, returning the full message on every rank.
///
/// Only the root passes the payload (`msg`); all ranks pass the same
/// `len`, mirroring `MPI_Bcast`'s `count` argument. `seg_size` is the
/// pipeline segment size in bytes for the segmented algorithms (the
/// paper uses 8 KB); [`BcastAlg::Linear`] ignores it.
///
/// # Panics
///
/// Panics if `root` is out of range, if the root's payload is missing or
/// of the wrong length, or if `seg_size` is zero for a segmented
/// algorithm.
pub fn bcast<C: Comm>(
    ctx: &mut C,
    alg: BcastAlg,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    match alg {
        BcastAlg::Linear => bcast_linear(ctx, root, msg, len),
        BcastAlg::Chain => bcast_chain(ctx, root, msg, len, seg_size),
        BcastAlg::KChain => bcast_k_chain(ctx, DEFAULT_CHAIN_FANOUT, root, msg, len, seg_size),
        BcastAlg::SplitBinary => bcast_split_binary(ctx, root, msg, len, seg_size),
        BcastAlg::Binary => bcast_binary(ctx, root, msg, len, seg_size),
        BcastAlg::Binomial => bcast_binomial(ctx, root, msg, len, seg_size),
    }
}

/// Flat non-segmented broadcast (`bcast_intra_basic_linear`): the root
/// posts one non-blocking send of the whole message per rank, then waits
/// for all of them; everyone else receives once.
pub fn bcast_linear<C: Comm>(ctx: &mut C, root: usize, msg: Option<Bytes>, len: usize) -> Bytes {
    check_args(ctx, root, &msg, len);
    if ctx.size() == 1 {
        return msg.expect("root supplies the message");
    }
    if ctx.rank() == root {
        let msg = msg.expect("root supplies the message");
        let sends = (0..ctx.size())
            .filter(|&dst| dst != root)
            .map(|dst| ctx.isend(dst, TAG_BCAST, msg.clone()))
            .collect();
        ctx.wait_all_sends(sends);
        msg
    } else {
        ctx.recv(root, TAG_BCAST)
    }
}

/// Pipelined broadcast down a single chain (`bcast_intra_pipeline`).
pub fn bcast_chain<C: Comm>(
    ctx: &mut C,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    let tree = Topology::chain(ctx.size(), root);
    bcast_tree_segmented(ctx, &tree, root, msg, len, seg_size)
}

/// Pipelined broadcast down `k` parallel chains (`bcast_intra_chain`,
/// the paper's *K-Chain tree*; Open MPI defaults to 4 chains).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn bcast_k_chain<C: Comm>(
    ctx: &mut C,
    k: usize,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    let tree = Topology::k_chain(k, ctx.size(), root);
    bcast_tree_segmented(ctx, &tree, root, msg, len, seg_size)
}

/// Segmented pipelined broadcast down a heap-shaped binary tree
/// (`bcast_intra_bintree`).
pub fn bcast_binary<C: Comm>(
    ctx: &mut C,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    let tree = Topology::binary(ctx.size(), root);
    bcast_tree_segmented(ctx, &tree, root, msg, len, seg_size)
}

/// Segmented pipelined broadcast down a balanced binomial tree
/// (`bcast_intra_binomial`; modelled in Sect. 3.1 of the paper).
pub fn bcast_binomial<C: Comm>(
    ctx: &mut C,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    let tree = Topology::binomial(ctx.size(), root);
    bcast_tree_segmented(ctx, &tree, root, msg, len, seg_size)
}

/// The shared pipelined tree engine
/// (`ompi_coll_base_bcast_intra_generic`).
///
/// Returns the reassembled message on every rank.
///
/// # Panics
///
/// Panics if `seg_size` is zero or the arguments are inconsistent (see
/// [`bcast`]).
pub fn bcast_tree_segmented<C: Comm>(
    ctx: &mut C,
    tree: &Topology,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    assert!(seg_size > 0, "segment size must be positive");
    check_args(ctx, root, &msg, len);
    debug_assert_eq!(tree.root(), root);
    if ctx.size() == 1 {
        return msg.expect("root supplies the message");
    }
    let ns = num_segments(len, seg_size);

    if ctx.rank() == root {
        let msg = msg.expect("root supplies the message");
        let children = tree.children(root);
        for seg in segments(&msg, seg_size) {
            // One stage per segment: a non-blocking linear broadcast to
            // the children, completed before the next segment starts.
            let sends = children
                .iter()
                .map(|&c| ctx.isend(c, TAG_BCAST, seg.clone()))
                .collect();
            ctx.wait_all_sends(sends);
        }
        msg
    } else {
        let parent = tree.parent(ctx.rank()).expect("non-root has a parent");
        let children = tree.children(ctx.rank());
        let mut segs = Vec::with_capacity(ns);
        let mut prev = ctx.irecv(parent, TAG_BCAST);
        for i in 1..=ns {
            // Double buffering: pre-post the next receive before
            // draining the current one, as the Open MPI interior loop
            // does.
            let next = (i < ns).then(|| ctx.irecv(parent, TAG_BCAST));
            let data = ctx.wait_recv(prev);
            let sends = children
                .iter()
                .map(|&c| ctx.isend(c, TAG_BCAST, data.clone()))
                .collect();
            ctx.wait_all_sends(sends);
            segs.push(data);
            match next {
                Some(next) => prev = next,
                None => break,
            }
        }
        let out = Bytes::concat(&segs);
        assert_eq!(out.len(), len, "reassembled message has the wrong length");
        out
    }
}

/// Split-binary broadcast (`bcast_intra_split_bintree`): the message is
/// split in two halves pipelined down the two subtrees of an in-order
/// binary tree; afterwards ranks of opposite subtrees swap halves
/// pairwise (the unpaired rank, when the subtrees differ in size, is
/// served by the root). With fewer than three ranks it degenerates to
/// [`bcast_linear`].
///
/// # Panics
///
/// Panics if `seg_size` is zero or the arguments are inconsistent (see
/// [`bcast`]).
pub fn bcast_split_binary<C: Comm>(
    ctx: &mut C,
    root: usize,
    msg: Option<Bytes>,
    len: usize,
    seg_size: usize,
) -> Bytes {
    assert!(seg_size > 0, "segment size must be positive");
    check_args(ctx, root, &msg, len);
    let p = ctx.size();
    if p < 3 {
        return bcast_linear(ctx, root, msg, len);
    }

    let tree = Topology::in_order_binary(p, root);
    let me = ctx.rank();
    let vrank = |r: usize| (r + p - root) % p;
    let unmap = |v: usize| (v + root) % p;

    // The in-order tree gives the root two subtrees over contiguous
    // virtual-rank ranges: 1..=nl (left) and nl+1..=nl+nr (right), with
    // nl >= nr. Left ranks pipeline the first half, right ranks the
    // second.
    let nl = (p - 1).div_ceil(2);
    let nr = p - 1 - nl;
    let half = len.div_ceil(2);
    let half_lens = [half, len - half];

    if me == root {
        let msg = msg.expect("root supplies the message");
        let halves = [msg.slice(..half), msg.slice(half..)];
        let kids = tree.children(root);
        debug_assert_eq!(kids.len(), 2);
        let streams: Vec<Vec<Bytes>> = halves.iter().map(|h| segments(h, seg_size)).collect();
        let stages = streams.iter().map(Vec::len).max().unwrap_or(0);
        for stage in 0..stages {
            let mut sends = Vec::new();
            for (stream, &child) in streams.iter().zip(kids) {
                if let Some(seg) = stream.get(stage) {
                    sends.push(ctx.isend(child, TAG_BCAST, seg.clone()));
                }
            }
            ctx.wait_all_sends(sends);
        }
        // Serve the unpaired rank (when nl > nr) its missing half.
        if nl > nr {
            ctx.send(unmap(nl), TAG_BCAST_XCHG, halves[1].clone());
        }
        msg
    } else {
        let v = vrank(me);
        let in_left = v <= nl;
        let my_len = if in_left { half_lens[0] } else { half_lens[1] };
        let ns = num_segments(my_len, seg_size);
        let parent = tree.parent(me).expect("non-root has a parent");
        let children = tree.children(me);

        // Pipeline my subtree's half from the parent to my children.
        let mut segs = Vec::with_capacity(ns);
        let mut prev = ctx.irecv(parent, TAG_BCAST);
        for i in 1..=ns {
            let next = (i < ns).then(|| ctx.irecv(parent, TAG_BCAST));
            let data = ctx.wait_recv(prev);
            let sends = children
                .iter()
                .map(|&c| ctx.isend(c, TAG_BCAST, data.clone()))
                .collect();
            ctx.wait_all_sends(sends);
            segs.push(data);
            match next {
                Some(next) => prev = next,
                None => break,
            }
        }
        let mine = Bytes::concat(&segs);
        assert_eq!(mine.len(), my_len, "pipelined half has the wrong length");

        // Swap halves with the partner in the opposite subtree.
        let partner = if in_left {
            (v + nl <= nl + nr).then(|| unmap(v + nl))
        } else {
            Some(unmap(v - nl))
        };
        let other = match partner {
            Some(partner) => ctx.sendrecv(
                partner,
                TAG_BCAST_XCHG,
                mine.clone(),
                partner,
                TAG_BCAST_XCHG,
            ),
            // Unpaired left rank: the root supplies the right half.
            None => ctx.recv(root, TAG_BCAST_XCHG),
        };

        let (first, second) = if in_left {
            (&mine, &other)
        } else {
            (&other, &mine)
        };
        let out = Bytes::concat([first, second]);
        assert_eq!(out.len(), len, "reassembled message has the wrong length");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_message() {
        let msg = Bytes::from((0..100u8).collect::<Vec<_>>());
        let segs = segments(&msg, 33);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[3].len(), 1);
        let glued: Vec<u8> = segs.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(glued, msg.to_vec());
    }

    #[test]
    fn exact_multiple_has_no_trailer() {
        let msg = Bytes::from(vec![1u8; 64]);
        let segs = segments(&msg, 32);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].len(), 32);
    }

    #[test]
    fn empty_message_is_one_empty_segment() {
        let segs = segments(&Bytes::new(), 8);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].is_empty());
    }

    #[test]
    fn num_segments_matches_ceil() {
        assert_eq!(num_segments(0, 8), 1);
        assert_eq!(num_segments(1, 8), 1);
        assert_eq!(num_segments(8, 8), 1);
        assert_eq!(num_segments(9, 8), 2);
        assert_eq!(num_segments(64, 8), 8);
    }
}
