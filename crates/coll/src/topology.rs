//! Virtual topologies used by the tree-based collective algorithms.
//!
//! These mirror the builders in Open MPI's `coll/base/coll_base_topo.c`:
//! the tree is constructed over *virtual ranks* `v = (rank - root) mod P`
//! so that the root is always virtual rank 0, then mapped back to real
//! ranks.
//!
//! * [`Topology::linear`] — root is parent of everybody (flat tree);
//! * [`Topology::chain`] — a single pipeline `0 → 1 → 2 → …`;
//! * [`Topology::k_chain`] — `k` parallel chains hanging off the root
//!   (Open MPI `build_chain(fanout=k)`);
//! * [`Topology::binary`] — heap-shaped binary tree (`build_tree(2)`);
//! * [`Topology::in_order_binary`] — contiguous-range in-order binary
//!   tree (`build_in_order_bintree`), used by the split-binary broadcast
//!   because its two subtrees are index-contiguous and thus pairable;
//! * [`Topology::binomial`] — balanced binomial tree (`build_bmtree`,
//!   paper Fig. 2).

use std::fmt;

/// A rooted tree over ranks `0..p`, with parent/children links for every
/// rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    p: usize,
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl Topology {
    fn from_virtual_edges(p: usize, root: usize, vparent: Vec<Option<usize>>) -> Self {
        let unmap = |v: usize| (v + root) % p;
        let mut parent = vec![None; p];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); p];
        // Visit virtual ranks in order so children lists are ordered by
        // virtual rank, matching the send order of the algorithms.
        for (v, vp) in vparent.iter().enumerate() {
            if let Some(pv) = *vp {
                let r = unmap(v);
                let pr = unmap(pv);
                parent[r] = Some(pr);
                children[pr].push(r);
            }
        }
        Topology {
            p,
            root,
            parent,
            children,
        }
    }

    fn check(p: usize, root: usize) {
        assert!(p > 0, "topology needs at least one rank");
        assert!(root < p, "root {root} out of range for {p} ranks");
    }

    /// Flat tree: the root is the parent of every other rank.
    pub fn linear(p: usize, root: usize) -> Self {
        Self::check(p, root);
        let vparent = (0..p).map(|v| (v > 0).then_some(0)).collect();
        Self::from_virtual_edges(p, root, vparent)
    }

    /// A single chain (pipeline): virtual rank `v` is fed by `v - 1`.
    pub fn chain(p: usize, root: usize) -> Self {
        Self::check(p, root);
        let vparent = (0..p).map(|v| v.checked_sub(1)).collect();
        Self::from_virtual_edges(p, root, vparent)
    }

    /// `k` parallel chains hanging off the root (Open MPI
    /// `build_chain(fanout = k)`): the non-root ranks are divided into
    /// `k` contiguous chains, each fed directly by the root.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn k_chain(k: usize, p: usize, root: usize) -> Self {
        Self::check(p, root);
        assert!(k > 0, "k-chain needs at least one chain");
        let rest = p - 1; // ranks besides the root
        let k = k.min(rest.max(1));
        let mut vparent: Vec<Option<usize>> = vec![None; p];
        // Chain c covers `len` consecutive virtual ranks starting at
        // `start`; earlier chains get the extra element when k ∤ rest.
        let base = rest / k;
        let extra = rest % k;
        let mut start = 1;
        for c in 0..k {
            let len = base + usize::from(c < extra);
            for i in 0..len {
                let v = start + i;
                vparent[v] = Some(if i == 0 { 0 } else { v - 1 });
            }
            start += len;
        }
        Self::from_virtual_edges(p, root, vparent)
    }

    /// Heap-shaped k-ary tree (`build_tree(fanout)`): virtual rank `v`
    /// has children `fanout·v + 1 … fanout·v + fanout`.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0`.
    pub fn k_ary(fanout: usize, p: usize, root: usize) -> Self {
        Self::check(p, root);
        assert!(fanout > 0, "tree fanout must be positive");
        let vparent = (0..p)
            .map(|v| (v > 0).then(|| k_ary_parent(fanout, v)))
            .collect();
        Self::from_virtual_edges(p, root, vparent)
    }

    /// Heap-shaped binary tree (`build_tree(2)`).
    pub fn binary(p: usize, root: usize) -> Self {
        Self::k_ary(2, p, root)
    }

    /// Height of [`binary`](Self::binary)`(p, _)`, without building it:
    /// heap depth never decreases with the virtual rank, so it is the
    /// depth of the last rank.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn binary_height(p: usize) -> usize {
        Self::check(p, 0);
        let (mut v, mut depth) = (p - 1, 0);
        while v > 0 {
            v = k_ary_parent(2, v);
            depth += 1;
        }
        depth
    }

    /// In-order binary tree (`build_in_order_bintree`): each subtree
    /// covers a contiguous range of virtual ranks, the left subtree
    /// taking the first (larger) half. The root's two subtrees are the
    /// ranges `1..=h` and `h+1..p-1`, which is what allows the
    /// split-binary broadcast to pair ranks across subtrees.
    pub fn in_order_binary(p: usize, root: usize) -> Self {
        Self::check(p, root);
        let mut vparent: Vec<Option<usize>> = vec![None; p];
        // Recursive contiguous construction: the subtree over `lo..=hi`
        // is rooted at `lo`; its left child owns the first half of the
        // remainder, its right child the second half.
        fn build(vparent: &mut [Option<usize>], lo: usize, hi: usize) {
            if lo >= hi {
                return;
            }
            let rest = hi - lo; // number of descendants
            let left = in_order_left(rest);
            vparent[lo + 1] = Some(lo);
            build(vparent, lo + 1, lo + left);
            if rest > left {
                vparent[lo + left + 1] = Some(lo);
                build(vparent, lo + left + 1, hi);
            }
        }
        build(&mut vparent, 0, p - 1);
        Self::from_virtual_edges(p, root, vparent)
    }

    /// Height of [`in_order_binary`](Self::in_order_binary)`(p, _)`,
    /// without building it: the left subtree is never the smaller one,
    /// so the deepest rank is reached by always descending left.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn in_order_binary_height(p: usize) -> usize {
        Self::check(p, 0);
        let (mut rest, mut depth) = (p - 1, 0);
        while rest > 0 {
            rest = in_order_left(rest) - 1;
            depth += 1;
        }
        depth
    }

    /// Balanced binomial tree (`build_bmtree`, paper Fig. 2): the
    /// children of virtual rank `v` are `v + 2^i` for all `2^i` smaller
    /// than `v`'s own distance bit (the whole range for the root), and
    /// the height is `⌊log₂ P⌋`.
    pub fn binomial(p: usize, root: usize) -> Self {
        Self::check(p, root);
        let mut vparent: Vec<Option<usize>> = vec![None; p];
        for (v, vp) in vparent.iter_mut().enumerate().skip(1) {
            // Parent is v with its lowest set bit cleared.
            let lsb = v & v.wrapping_neg();
            *vp = Some(v - lsb);
        }
        Self::from_virtual_edges(p, root, vparent)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.p
    }

    /// Whether the topology covers zero ranks (never true; kept for the
    /// conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.p == 0
    }

    /// The root rank.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `rank` (`None` for the root).
    pub fn parent(&self, rank: usize) -> Option<usize> {
        self.parent[rank]
    }

    /// Children of `rank`, in algorithm send order.
    pub fn children(&self, rank: usize) -> &[usize] {
        &self.children[rank]
    }

    /// Whether `rank` has no children.
    pub fn is_leaf(&self, rank: usize) -> bool {
        self.children[rank].is_empty()
    }

    /// Longest root-to-leaf edge count.
    pub fn height(&self) -> usize {
        // Virtual-rank order is not guaranteed topological over real
        // ranks, so walk from each node up to the root instead (trees
        // are shallow; p is at most a few hundred).
        let mut max = 0;
        for r in 0..self.p {
            let mut d = 0;
            let mut cur = r;
            while let Some(parent) = self.parent[cur] {
                d += 1;
                cur = parent;
            }
            max = max.max(d);
        }
        max
    }

    /// The largest child count over all ranks.
    pub fn max_children(&self) -> usize {
        self.children.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Parent of virtual rank `v > 0` in the heap-shaped `fanout`-ary tree.
fn k_ary_parent(fanout: usize, v: usize) -> usize {
    (v - 1) / fanout
}

/// Size of the left subtree of an in-order binary subtree root with
/// `rest > 0` descendants: the first, larger half.
fn in_order_left(rest: usize) -> usize {
    rest.div_ceil(2)
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tree(p={}, root={})", self.p, self.root)?;
        for r in 0..self.p {
            if !self.children[r].is_empty() {
                write!(f, " {r}->{:?}", self.children[r])?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every non-root rank must have exactly one parent, and following
    /// parents must reach the root (i.e. the edges form a spanning tree).
    fn assert_spanning_tree(t: &Topology) {
        assert_eq!(t.parent(t.root()), None);
        for r in 0..t.len() {
            if r == t.root() {
                continue;
            }
            let mut cur = r;
            let mut hops = 0;
            while let Some(p) = t.parent(cur) {
                assert!(t.children(p).contains(&cur));
                cur = p;
                hops += 1;
                assert!(hops <= t.len(), "cycle detected at rank {r}");
            }
            assert_eq!(cur, t.root(), "rank {r} does not reach the root");
        }
        let total_children: usize = (0..t.len()).map(|r| t.children(r).len()).sum();
        assert_eq!(total_children, t.len() - 1);
    }

    #[test]
    fn all_builders_make_spanning_trees() {
        for p in [1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 90, 124] {
            for root in [0, p / 2, p - 1] {
                assert_spanning_tree(&Topology::linear(p, root));
                assert_spanning_tree(&Topology::chain(p, root));
                assert_spanning_tree(&Topology::k_chain(4, p, root));
                assert_spanning_tree(&Topology::binary(p, root));
                assert_spanning_tree(&Topology::in_order_binary(p, root));
                assert_spanning_tree(&Topology::binomial(p, root));
            }
        }
    }

    #[test]
    fn heights_without_trees_equal_the_built_trees() {
        for p in 1..=1024 {
            assert_eq!(
                Topology::binary_height(p),
                Topology::binary(p, 0).height(),
                "binary p={p}"
            );
            assert_eq!(
                Topology::in_order_binary_height(p),
                Topology::in_order_binary(p, 0).height(),
                "in-order binary p={p}"
            );
        }
    }

    #[test]
    fn linear_shape() {
        let t = Topology::linear(5, 0);
        assert_eq!(t.children(0), &[1, 2, 3, 4]);
        assert_eq!(t.height(), 1);
        assert_eq!(t.max_children(), 4);
    }

    #[test]
    fn chain_shape() {
        let t = Topology::chain(4, 0);
        assert_eq!(t.children(0), &[1]);
        assert_eq!(t.children(1), &[2]);
        assert_eq!(t.children(2), &[3]);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn chain_with_nonzero_root_wraps() {
        let t = Topology::chain(4, 2);
        assert_eq!(t.children(2), &[3]);
        assert_eq!(t.children(3), &[0]);
        assert_eq!(t.children(0), &[1]);
        assert!(t.is_leaf(1));
    }

    #[test]
    fn k_chain_splits_into_chains() {
        // 9 ranks, root 0, 4 chains over 8 ranks: two per chain.
        let t = Topology::k_chain(4, 9, 0);
        assert_eq!(t.children(0).len(), 4);
        assert_eq!(t.height(), 2);
        // Chains are contiguous: 1-2, 3-4, 5-6, 7-8.
        assert_eq!(t.children(1), &[2]);
        assert_eq!(t.children(3), &[4]);
        assert_eq!(t.children(5), &[6]);
        assert_eq!(t.children(7), &[8]);
    }

    #[test]
    fn k_chain_with_uneven_division() {
        // 6 ranks: 5 non-root over 4 chains -> lengths 2,1,1,1.
        let t = Topology::k_chain(4, 6, 0);
        assert_eq!(t.children(0).len(), 4);
        assert_eq!(t.children(1), &[2]);
        assert!(t.is_leaf(3) && t.is_leaf(4) && t.is_leaf(5));
    }

    #[test]
    fn k_chain_caps_k_at_nonroot_count() {
        let t = Topology::k_chain(8, 3, 0);
        assert_eq!(t.children(0).len(), 2);
    }

    #[test]
    fn binary_is_heap_shaped() {
        let t = Topology::binary(7, 0);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.children(1), &[3, 4]);
        assert_eq!(t.children(2), &[5, 6]);
        assert_eq!(t.height(), 2);
        assert_eq!(t.max_children(), 2);
    }

    #[test]
    fn in_order_binary_subtrees_are_contiguous() {
        let t = Topology::in_order_binary(8, 0);
        // Root's children split 1..=7 into 1..=4 and 5..=7.
        assert_eq!(t.children(0), &[1, 5]);
        // Left subtree root 1 covers 2..=4 -> children 2 and 4.
        assert_eq!(t.children(1), &[2, 4]);
        assert!(t.max_children() <= 2);
    }

    #[test]
    fn binomial_matches_paper_figure_2() {
        // P = 8 balanced binomial (paper Fig. 2): 0 -> {1, 2, 4},
        // 2 -> {3}, 4 -> {5, 6}, 6 -> {7}.
        let t = Topology::binomial(8, 0);
        assert_eq!(t.children(0), &[1, 2, 4]);
        assert_eq!(t.children(2), &[3]);
        assert_eq!(t.children(4), &[5, 6]);
        assert_eq!(t.children(6), &[7]);
        assert_eq!(t.height(), 3); // ⌊log2 8⌋
    }

    #[test]
    fn binomial_height_is_floor_log2() {
        for p in 2..130 {
            let t = Topology::binomial(p, 0);
            let expected = (usize::BITS - 1 - p.leading_zeros()) as usize;
            assert_eq!(t.height(), expected, "p = {p}");
        }
    }

    #[test]
    fn binomial_root_degree_is_ceil_log2() {
        for p in 2..130usize {
            let t = Topology::binomial(p, 0);
            let expected = (usize::BITS - (p - 1).leading_zeros()) as usize;
            assert_eq!(t.children(0).len(), expected, "p = {p}");
        }
    }

    #[test]
    fn single_rank_topologies() {
        for t in [
            Topology::linear(1, 0),
            Topology::chain(1, 0),
            Topology::binomial(1, 0),
        ] {
            assert_eq!(t.height(), 0);
            assert!(t.is_leaf(0));
            assert!(!t.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "root 3 out of range")]
    fn root_must_be_in_range() {
        let _ = Topology::binary(3, 3);
    }

    #[test]
    fn display_lists_edges() {
        let s = Topology::chain(3, 0).to_string();
        assert!(s.contains("0->[1]"));
        assert!(s.contains("1->[2]"));
    }
}
