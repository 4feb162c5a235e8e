//! `Schedule::embed` against the construction it stands in for:
//! recording the same programs through a `GroupComm` per call over a
//! world-sized recording context.

use collsel_mpi::{
    record_schedule, Comm, GroupComm, RecordError, SchedOp, Schedule, SimError, GROUP_TAG_STRIDE,
};
use collsel_netsim::ClusterModel;
use collsel_support::prelude::*;
use collsel_support::Bytes;
use std::collections::BTreeSet;

/// A two-phase neighbour exchange on any communicator of at least two
/// ranks: single waits, then a wait-all over two requests.
fn exchange<C: Comm>(ctx: &mut C, len: usize) {
    let p = ctx.size();
    let next = (ctx.rank() + 1) % p;
    let prev = (ctx.rank() + p - 1) % p;
    let r = ctx.irecv(prev, 0);
    let s = ctx.isend(next, 0, Bytes::symbolic(len));
    let _ = ctx.wait_recv(r);
    ctx.wait_send(s);
    let back = ctx.irecv(next, 1);
    let again = ctx.irecv(next, 1);
    ctx.send(prev, 1, Bytes::symbolic(len / 2));
    ctx.send(prev, 1, Bytes::symbolic(1));
    let _ = ctx.wait_all_recvs(vec![back, again]);
    let _ = ctx.wtime();
}

/// One call of a step: the group, and how often it runs the exchange.
type Call = (Vec<usize>, usize);

fn cluster() -> ClusterModel {
    ClusterModel::gros()
}

/// The step recorded whole: every rank walks the calls, joining the
/// ones it is a member of through a `GroupComm` in the call's window.
fn recorded(world: usize, calls: &[Call]) -> Schedule {
    record_schedule(&cluster(), world, |rc| {
        for (i, (members, reps)) in calls.iter().enumerate() {
            if let Some(mut group) = GroupComm::new(rc, members, i as u32 * GROUP_TAG_STRIDE) {
                (0..*reps).for_each(|_| exchange(&mut group, 4096));
            }
        }
    })
    .expect("the step records")
}

/// The same step composed: one template per group size, tiled and
/// embedded per call.
fn composed(world: usize, calls: &[Call]) -> Schedule {
    let mut step = Schedule::idle(&cluster(), world);
    for (i, (members, reps)) in calls.iter().enumerate() {
        let template = record_schedule(&cluster(), members.len(), |rc| exchange(rc, 4096))
            .expect("the template records")
            .repeated(*reps);
        step.embed(&template, members, i as u32 * GROUP_TAG_STRIDE)
            .expect("a valid group");
    }
    step
}

#[test]
fn overlapping_groups_sharing_a_rank_pair_stay_in_their_tag_windows() {
    // Ranks 1 and 2 are neighbours in all three groups, so the global
    // pair (1, 2) carries traffic of three calls.
    let calls = vec![(vec![1, 2], 1), (vec![0, 1, 2, 5], 2), (vec![1, 2, 4], 1)];
    let step = composed(6, &calls);
    assert_eq!(step.shape(), recorded(6, &calls).shape());

    let windows: BTreeSet<u32> = step.shape()[1]
        .iter()
        .filter_map(|op| match op {
            SchedOp::Isend { dst: 2, tag, .. } => Some(tag / GROUP_TAG_STRIDE),
            _ => None,
        })
        .collect();
    assert_eq!(windows, BTreeSet::from([0, 1, 2]));
}

#[test]
fn request_ids_continue_across_calls_and_non_members_stay_untouched() {
    let calls = vec![(vec![0, 3], 1), (vec![3, 4], 1), (vec![0, 3, 4], 1)];
    let step = composed(6, &calls);
    assert_eq!(step.shape(), recorded(6, &calls).shape());

    let shape = step.shape();
    // The exchange issues six requests per rank; rank 3 runs it three
    // times, rank 0 and rank 4 twice, and nobody else at all.
    let ids = |rank: usize| -> Vec<u32> {
        shape[rank]
            .iter()
            .filter_map(|op| match op {
                SchedOp::Isend { req, .. } | SchedOp::Irecv { req, .. } => Some(*req),
                _ => None,
            })
            .collect()
    };
    assert_eq!(ids(3), (0..18).collect::<Vec<u32>>());
    assert_eq!(ids(0), (0..12).collect::<Vec<u32>>());
    assert_eq!(ids(4), (0..12).collect::<Vec<u32>>());
    for idle in [1, 2, 5] {
        assert!(shape[idle].is_empty(), "rank {idle} is in no group");
    }
    // Peers are world ranks: in the last call rank 4 is group rank 2,
    // and its left neighbour (group rank 1) is world rank 3.
    assert_eq!(
        shape[4][shape[4].len() / 2],
        SchedOp::Irecv {
            req: 6,
            src: 3,
            tag: 2 * GROUP_TAG_STRIDE,
        }
    );
}

#[test]
fn embedding_a_tiled_template_equals_tiling_the_embedded_one() {
    let template = record_schedule(&cluster(), 3, |rc| exchange(rc, 999)).expect("records");
    let members = [5, 1, 3];
    for reps in [0, 1, 2, 5] {
        let mut tiled_first = Schedule::idle(&cluster(), 7);
        tiled_first
            .embed(&template.repeated(reps), &members, 3 * GROUP_TAG_STRIDE)
            .expect("embeds");
        let mut embedded_first = Schedule::idle(&cluster(), 7);
        embedded_first
            .embed(&template, &members, 3 * GROUP_TAG_STRIDE)
            .expect("embeds");
        let mut tiled_after = embedded_first.repeated(reps);
        assert_eq!(
            tiled_first.shape(),
            tiled_after.shape(),
            "{reps} repetitions"
        );
        // The request counts carried along agree too: a further embed
        // numbers its requests the same on both.
        for step in [&mut tiled_first, &mut tiled_after] {
            step.embed(&template, &[1, 2, 3], 0).expect("embeds");
        }
        assert_eq!(tiled_first.shape(), tiled_after.shape());
    }
}

fn rank_panic(rank: usize, message: &str) -> RecordError {
    RecordError::Sim(SimError::RankPanic {
        rank,
        message: message.to_owned(),
    })
}

#[test]
fn invalid_groups_and_barrier_templates_are_refused_as_the_recording_is() {
    let world = 4;
    let template = record_schedule(&cluster(), 2, |rc| exchange(rc, 8)).expect("records");
    let mut step = Schedule::idle(&cluster(), world);
    for (members, message) in [
        (vec![], "empty rank group"),
        (vec![1, 4], "group member 4 outside world of 4"),
        (vec![2, 2], "duplicate member 2 in rank group"),
    ] {
        // The whole-step recording reports the same thing.
        let whole = record_schedule(&cluster(), world, |rc| {
            let _ = GroupComm::new(rc, &members, 0);
        });
        assert_eq!(whole.err(), Some(rank_panic(0, message)));
        assert_eq!(
            step.embed(&template, &members, 0),
            Err(rank_panic(0, message))
        );
    }

    // The engine barrier synchronises the world, not the group.
    let barrier = "engine barrier unsupported on a rank group";
    let whole = record_schedule(&cluster(), world, |rc| {
        if let Some(mut group) = GroupComm::new(rc, &[1, 3], 0) {
            group.barrier();
        }
    });
    assert_eq!(whole.err(), Some(rank_panic(1, barrier)));
    let template = record_schedule(&cluster(), 2, |rc| rc.barrier()).expect("records");
    assert_eq!(
        step.embed(&template, &[1, 3], 0),
        Err(rank_panic(1, barrier))
    );
    assert_eq!(step.total_ops(), 0, "a refused embed leaves the step alone");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random steps of random sorted groups: composing equals recording.
    #[test]
    fn composing_random_sorted_groups_equals_recording_them(
        world in 2usize..14,
        picks in prop::collection::vec(
            (prop::collection::btree_set(0usize..14, 2..9), 1usize..4),
            1..7,
        ),
    ) {
        let calls: Vec<Call> = picks
            .into_iter()
            .map(|(set, reps)| {
                let mut members: Vec<usize> = set.into_iter().map(|r| r % world).collect();
                members.sort_unstable();
                members.dedup();
                (members, reps)
            })
            .filter(|(members, _)| members.len() >= 2)
            .collect();
        prop_assert_eq!(composed(world, &calls).shape(), recorded(world, &calls).shape());
    }
}
