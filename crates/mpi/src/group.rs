//! Sub-communicator support: run a collective on a subset of the
//! world's ranks by *rank remapping*, with no new engine machinery.
//!
//! [`GroupComm`] wraps any [`Comm`] and presents a dense
//! `0..group_size` rank space over an explicit member list: sends and
//! receives translate group ranks to global ranks on the way down, and
//! offset tags by a per-group base
//! so concurrent collectives on overlapping groups never collide on a
//! `(src, dst, tag)` channel. Because the translation happens *above*
//! the `Comm` surface, the same wrapped program runs on rank threads
//! ([`crate::Ctx`]), records ([`crate::RecCtx`]) and compiles to a
//! timing DAG ([`crate::TimingDag`]) exactly like a world-sized
//! program — the Schedule/DAG machinery sees only ordinary
//! point-to-point traffic between global ranks.
//!
//! The collective algorithms in `collsel-coll` are written against
//! `Comm` using only exact point-to-point operations and `wtime` (none
//! calls `barrier` internally), which is exactly the surface a
//! remapping adapter can support. A *global* barrier inside a
//! sub-communicator collective would deadlock ranks outside the group,
//! so [`GroupComm::barrier`] panics instead of silently synchronising
//! the wrong set.

use crate::comm::{Comm, Tag};
use crate::ctx::{RecvRequest, SendRequest};
use collsel_netsim::SimTime;
use collsel_support::Bytes;

/// Tag offset between concurrent group collectives issued in one step.
///
/// Each collective running on a sub-communicator gets its own tag
/// window of this width; within a window, algorithms use small tags
/// (segment indices and round numbers — far below 2^20), so traffic
/// from different calls that happens to share a global `(src, dst)`
/// pair still lands on distinct channels and FIFO matching per channel
/// stays a compile-time fact.
pub const GROUP_TAG_STRIDE: Tag = 1 << 20;

/// The panic message of [`GroupComm::barrier`].
pub(crate) const GROUP_BARRIER: &str = "engine barrier unsupported on a rank group";

/// Why `ranks` is not a rank group of a `world`-rank communicator
/// (empty, a member outside the world, a duplicate member), in the
/// words [`GroupComm::new`] panics with; `None` for a valid group.
pub(crate) fn group_fault(ranks: &[usize], world: usize) -> Option<String> {
    if ranks.is_empty() {
        return Some("empty rank group".to_owned());
    }
    ranks.iter().enumerate().find_map(|(i, &r)| {
        if r >= world {
            Some(format!("group member {r} outside world of {world}"))
        } else if ranks[..i].contains(&r) {
            Some(format!("duplicate member {r} in rank group"))
        } else {
            None
        }
    })
}

/// A dense-rank view of a subset of the world, layered over any
/// [`Comm`].
///
/// `ranks[g]` is the global rank of group rank `g`; group rank 0 is
/// the group's root by convention (callers keep `ranks` sorted so the
/// root is the lowest global member).
#[derive(Debug)]
pub struct GroupComm<'a, C: Comm> {
    inner: &'a mut C,
    ranks: &'a [usize],
    /// This process's rank *within the group*.
    me: usize,
    tag_base: Tag,
}

impl<'a, C: Comm> GroupComm<'a, C> {
    /// Wraps `inner` as group rank `ranks.iter().position(== rank)`,
    /// or `None` if the calling rank is not a member (non-members
    /// simply skip the collective).
    ///
    /// # Panics
    ///
    /// Panics on an empty group, a member outside the world, or a
    /// duplicate member.
    pub fn new(inner: &'a mut C, ranks: &'a [usize], tag_base: Tag) -> Option<GroupComm<'a, C>> {
        if let Some(fault) = group_fault(ranks, inner.size()) {
            panic!("{fault}");
        }
        let me = ranks.iter().position(|&r| r == inner.rank())?;
        Some(GroupComm {
            inner,
            ranks,
            me,
            tag_base,
        })
    }

    fn global(&self, group_rank: usize) -> usize {
        assert!(
            group_rank < self.ranks.len(),
            "group rank {group_rank} outside group of {}",
            self.ranks.len()
        );
        self.ranks[group_rank]
    }
}

impl<C: Comm> Comm for GroupComm<'_, C> {
    fn rank(&self) -> usize {
        self.me
    }

    fn size(&self) -> usize {
        self.ranks.len()
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest {
        let dst = self.global(dst);
        self.inner.isend(dst, self.tag_base + tag, payload)
    }

    fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest {
        let src = self.global(src);
        self.inner.irecv(src, self.tag_base + tag)
    }

    fn wait_send(&mut self, req: SendRequest) {
        self.inner.wait_send(req);
    }

    fn wait_recv(&mut self, req: RecvRequest) -> Bytes {
        self.inner.wait_recv(req)
    }

    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) {
        self.inner.wait_all_sends(reqs);
    }

    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<Bytes> {
        self.inner.wait_all_recvs(reqs)
    }

    fn barrier(&mut self) {
        // A global barrier would synchronise non-members too (wrong),
        // and a group barrier needs an algorithm, not an engine
        // primitive — use `Alg::Barrier` collectives on the group.
        panic!("{GROUP_BARRIER}");
    }

    fn wtime(&mut self) -> SimTime {
        self.inner.wtime()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::sim::{simulate, simulate_with, SimOptions};
    use collsel_netsim::ClusterModel;

    /// Each group member sends its group rank to group rank 0 over the
    /// group view; the root names senders by their *group* rank while
    /// traffic flows between global ranks.
    #[test]
    fn group_remaps_ranks_and_tags() {
        let cluster = ClusterModel::gros();
        let ranks: Vec<usize> = vec![1, 3, 4];
        let out = simulate(&cluster, 6, 0, {
            let ranks = ranks.clone();
            move |ctx| {
                let Some(mut g) = GroupComm::new(ctx, &ranks, GROUP_TAG_STRIDE) else {
                    return None; // non-member: no group traffic at all
                };
                assert_eq!(g.size(), 3);
                if g.rank() == 0 {
                    let mut seen = Vec::new();
                    for src in 1..g.size() {
                        seen.push(g.recv(src, 7)[0]);
                    }
                    Some(seen)
                } else {
                    let me = g.rank() as u8;
                    g.send(0, 7, Bytes::from(vec![me]));
                    Some(Vec::new())
                }
            }
        })
        .expect("group exchange completes");
        assert_eq!(out.results[0], None, "rank 0 is not a member");
        assert_eq!(out.results[1], Some(vec![1, 2]), "root sees group ranks");
        assert_eq!(out.results[3], Some(vec![]));
        assert_eq!(out.results[5], None);
    }

    /// Two overlapping groups exchanging concurrently with distinct tag
    /// windows must not cross-match even on shared (src, dst) pairs.
    #[test]
    fn overlapping_groups_stay_on_separate_channels() {
        let cluster = ClusterModel::gros();
        let a: Vec<usize> = vec![0, 1];
        let b: Vec<usize> = vec![0, 1, 2];
        let out = simulate_with(&cluster, 3, 0, SimOptions::default(), {
            let (a, b) = (a.clone(), b.clone());
            move |ctx| {
                let mut got = Vec::new();
                if let Some(mut g) = GroupComm::new(ctx, &a, 0) {
                    if g.rank() == 0 {
                        got.push(g.recv(1, 0)[0]);
                    } else {
                        g.send(0, 0, Bytes::from(vec![0xAA]));
                    }
                }
                if let Some(mut g) = GroupComm::new(ctx, &b, GROUP_TAG_STRIDE) {
                    if g.rank() == 0 {
                        got.push(g.recv(1, 0)[0]);
                    } else if g.rank() == 1 {
                        g.send(0, 0, Bytes::from(vec![0xBB]));
                    }
                }
                got
            }
        })
        .expect("both groups complete");
        assert_eq!(out.results[0], vec![0xAA, 0xBB]);
    }

    #[test]
    fn group_barrier_is_rejected() {
        let cluster = ClusterModel::gros();
        let err = simulate(&cluster, 2, 0, move |ctx| {
            let ranks = [0usize, 1];
            if let Some(mut g) = GroupComm::new(ctx, &ranks, 0) {
                g.barrier();
            }
        })
        .expect_err("group barrier must panic the rank");
        match err {
            SimError::RankPanic { message, .. } => {
                assert!(message.contains("engine barrier unsupported"), "{message}");
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
    }
}
