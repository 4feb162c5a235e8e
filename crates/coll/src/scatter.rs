//! Scatter algorithms (extension beyond the paper's broadcast focus).
//!
//! The paper's conclusion proposes applying the modelling approach to
//! further collectives; scatter is the natural first candidate because
//! its Open MPI implementation reuses the same topology toolbox. Two
//! ports are provided:
//!
//! * [`scatter_linear`] — `scatter_intra_basic_linear`: the root sends
//!   each rank its block directly;
//! * [`scatter_binomial`] — `scatter_intra_binomial`: blocks travel down
//!   a balanced binomial tree, each interior rank peeling off and
//!   forwarding its children's sub-blocks.

use crate::topology::Topology;
use collsel_mpi::Comm;
use collsel_support::Bytes;

const TAG_SCATTER: u32 = 0xE;

/// Validates scatter arguments; returns blocks at the root.
fn check_blocks<C: Comm>(ctx: &C, root: usize, blocks: &Option<Vec<Bytes>>) {
    assert!(root < ctx.size(), "scatter root {root} out of range");
    if ctx.rank() == root {
        let blocks = blocks.as_ref().expect("scatter root must supply blocks");
        assert_eq!(
            blocks.len(),
            ctx.size(),
            "scatter needs exactly one block per rank"
        );
    }
}

/// Flat scatter: the root isends block `r` to each rank `r`, then waits
/// for all sends. Returns this rank's block.
///
/// # Panics
///
/// Panics if `root` is out of range or the root's blocks are missing or
/// miscounted.
pub fn scatter_linear<C: Comm>(ctx: &mut C, root: usize, blocks: Option<Vec<Bytes>>) -> Bytes {
    check_blocks(ctx, root, &blocks);
    if ctx.rank() == root {
        let blocks = blocks.expect("root supplies blocks");
        let sends = (0..ctx.size())
            .filter(|&dst| dst != root)
            .map(|dst| ctx.isend(dst, TAG_SCATTER, blocks[dst].clone()))
            .collect();
        ctx.wait_all_sends(sends);
        blocks[root].clone()
    } else {
        ctx.recv(root, TAG_SCATTER)
    }
}

/// Binomial-tree scatter: the root packs blocks in virtual-rank order
/// and sends each child its whole subtree's super-block; interior ranks
/// peel their own block off the front and forward the rest. All blocks
/// must have equal length (uniform `sendcount`).
///
/// # Panics
///
/// Panics if `root` is out of range, the root's blocks are missing or
/// miscounted, or block lengths are not uniform.
pub fn scatter_binomial<C: Comm>(ctx: &mut C, root: usize, blocks: Option<Vec<Bytes>>) -> Bytes {
    check_blocks(ctx, root, &blocks);
    let p = ctx.size();
    if p == 1 {
        return blocks.expect("root supplies blocks")[0].clone();
    }
    let tree = Topology::binomial(p, root);
    let me = ctx.rank();
    let vrank = |r: usize| (r + p - root) % p;
    let span = |v: usize| -> usize {
        if v == 0 {
            p
        } else {
            let lsb = v & v.wrapping_neg();
            lsb.min(p - v)
        }
    };

    // My super-block covers virtual ranks vrank(me)..vrank(me)+span,
    // packed contiguously. The root builds it; everyone else receives it
    // from the parent.
    let (super_block, item_len) = if me == root {
        let blocks = blocks.expect("root supplies blocks");
        let item_len = blocks[0].len();
        assert!(
            blocks.iter().all(|b| b.len() == item_len),
            "scatter blocks must have uniform length"
        );
        let packed = Bytes::concat((0..p).map(|v| &blocks[(v + root) % p]));
        (packed, item_len)
    } else {
        let parent = tree.parent(me).expect("non-root has a parent");
        let data = ctx.recv(parent, TAG_SCATTER);
        let my_span = span(vrank(me));
        debug_assert_eq!(data.len() % my_span, 0, "super-block not divisible");
        let item_len = data.len() / my_span;
        (data, item_len)
    };

    // Forward each child its slice. Children are in ascending virtual
    // rank order; send the largest (last) child first, as Open MPI does,
    // so the deepest subtree starts earliest.
    let base_v = vrank(me);
    let mut sends = Vec::new();
    for &child in tree.children(me).iter().rev() {
        let cv = vrank(child);
        let offset = (cv - base_v) * item_len;
        let len = span(cv) * item_len;
        sends.push(ctx.isend(child, TAG_SCATTER, super_block.slice(offset..offset + len)));
    }
    ctx.wait_all_sends(sends);
    super_block.slice(0..item_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::simulate;
    use collsel_netsim::ClusterModel;

    fn blocks(p: usize) -> Vec<Bytes> {
        (0..p).map(|r| Bytes::from(vec![r as u8; 8])).collect()
    }

    fn run(p: usize, root: usize, f: impl Fn(&mut collsel_mpi::Ctx) -> Bytes + Sync) {
        let cluster = ClusterModel::gros();
        let out = simulate(&cluster, p, 0, |ctx| f(ctx)).unwrap();
        for (rank, block) in out.results.iter().enumerate() {
            assert_eq!(
                block.as_ref(),
                vec![rank as u8; 8].as_slice(),
                "rank {rank} got the wrong block (p={p}, root={root})"
            );
        }
    }

    #[test]
    fn linear_scatter_routes_blocks() {
        for p in [1, 2, 5, 9] {
            for root in [0, p - 1] {
                run(p, root, move |ctx| {
                    let b = (ctx.rank() == root).then(|| blocks(p));
                    scatter_linear(ctx, root, b)
                });
            }
        }
    }

    #[test]
    fn binomial_scatter_routes_blocks() {
        for p in [1, 2, 3, 5, 8, 13, 16] {
            for root in [0, p / 2, p - 1] {
                run(p, root, move |ctx| {
                    let b = (ctx.rank() == root).then(|| blocks(p));
                    scatter_binomial(ctx, root, b)
                });
            }
        }
    }

    #[test]
    fn binomial_scatter_moves_fewer_bytes_than_linear_total_hops() {
        // Binomial scatter moves each block log-depth times at most;
        // here we only check both deliver and the binomial one uses
        // fewer messages than P-1 only when P is small... it always uses
        // exactly P-1 messages (tree edges), same as linear; bytes
        // differ: binomial sends super-blocks. Verify message counts.
        let cluster = ClusterModel::gros();
        let p = 8;
        let lin = simulate(&cluster, p, 0, |ctx| {
            let b = (ctx.rank() == 0).then(|| blocks(p));
            scatter_linear(ctx, 0, b)
        })
        .unwrap();
        let bin = simulate(&cluster, p, 0, |ctx| {
            let b = (ctx.rank() == 0).then(|| blocks(p));
            scatter_binomial(ctx, 0, b)
        })
        .unwrap();
        assert_eq!(lin.report.messages, (p - 1) as u64);
        assert_eq!(bin.report.messages, (p - 1) as u64);
        assert!(bin.report.bytes > lin.report.bytes);
    }
}
