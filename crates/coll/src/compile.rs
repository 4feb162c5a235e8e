//! Compiling collectives to [`Schedule`]s for the event-driven backend.
//!
//! Each `compile_*` function runs the corresponding collective against
//! the symbolic recording context ([`collsel_mpi::record_schedule`]:
//! rank by rank on the calling thread, no simulation), so the schedule
//! IR is *derived from the implementing code* — the same principle the
//! paper applies when deriving analytical models from the
//! implementations. The timed measurement programs record one
//! repetition and tile it ([`Schedule::repeated`]). The resulting
//! [`Schedule`] replays under any seed, fault plan or watchdog deadline
//! via [`collsel_mpi::simulate_scheduled`] with zero OS threads per
//! run, bit-identical to the threaded backend.
//!
//! A workload step — collectives on rank groups — is not run through
//! the recorder at all: [`compile_step`] composes its schedule from the
//! schedules of its collectives ([`compose_step`],
//! [`Schedule::embed`]), each recorded once as a template.
//!
//! All collectives here are compilable: their operation streams depend
//! only on `(rank, size, payload lengths, seg_size)`, never on timing
//! or payload contents. Inputs are created [symbolic](Bytes::symbolic)
//! and every receive of a recording is symbolic too, so no payload
//! byte exists while a collective is compiled: the cost is per
//! operation whatever the message size.

use crate::alg::BcastAlg;
use crate::bcast::bcast;
use crate::gather::gather_linear;
use crate::{
    allgather_ring, allreduce_recursive_doubling, alltoall_pairwise, barrier_dissemination, reduce,
    scatter_binomial, ReduceAlg, ReduceOp,
};
use collsel_mpi::{
    check_group, record_schedule, Comm, GroupComm, RecordError, Schedule, SimError,
    GROUP_TAG_STRIDE,
};
use collsel_netsim::ClusterModel;
use collsel_support::Bytes;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Compiles one broadcast algorithm at geometry `(p, root, len,
/// seg_size)` into a per-rank schedule.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails (the broadcast ports use
/// no wildcards, so `Unsupported` cannot occur for them).
///
/// # Panics
///
/// Panics on invalid geometry (zero ranks, root out of range, zero
/// `seg_size` for a segmented algorithm), as [`bcast`] would.
pub fn compile_bcast(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    root: usize,
    len: usize,
    seg_size: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        let m = (rc.rank() == root).then(|| Bytes::symbolic(len));
        bcast(rc, alg, root, m, len, seg_size);
    })
}

/// Compiles the paper's measurement round: one timed repetition of
/// `bcast` framed by barriers and `wtime` reads, repeated `reps` times
/// — the exact program `estim::measure` times on the threaded backend.
///
/// Per repetition the recorded ops are: `barrier; t0 = wtime; bcast;
/// barrier; t1 = wtime`, so each rank observes `2·reps` clock values
/// and the root's consecutive pairs are the timing samples.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
///
/// # Panics
///
/// Panics on invalid geometry, as [`bcast`] would.
pub fn compile_timed_bcast(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    root: usize,
    len: usize,
    seg_size: usize,
    reps: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        rc.barrier();
        let _ = rc.wtime();
        let m = (rc.rank() == root).then(|| Bytes::symbolic(len));
        bcast(rc, alg, root, m, len, seg_size);
        rc.barrier();
        let _ = rc.wtime();
    })
    .map(|one| one.repeated(reps))
}

/// Compiles the breadth measurement round: `reps` timed repetitions of
/// any collective algorithm (via
/// [`run_collective`](crate::collective::run_collective)), each framed
/// `barrier; t0 = wtime; op; barrier; t1 = wtime` — the same protocol
/// as [`compile_timed_bcast`], so `estim` times every collective the
/// same way on both backends.
///
/// `m` follows `run_collective`'s convention (total vector for
/// bcast/reduce/allreduce, per-rank block otherwise).
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
///
/// # Panics
///
/// Panics on invalid geometry, as the underlying collective would.
pub fn compile_timed_collective(
    cluster: &ClusterModel,
    alg: crate::collective::Alg,
    p: usize,
    root: usize,
    m: usize,
    seg_size: usize,
    reps: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        rc.barrier();
        let _ = rc.wtime();
        crate::collective::run_collective(rc, alg, root, m, seg_size);
        rc.barrier();
        let _ = rc.wtime();
    })
    .map(|one| one.repeated(reps))
}

/// Compiles the paper's Sect. 4.2 measurement round: `reps` timed
/// repetitions of `bcast` followed by a linear gather, each opened by a
/// barrier and a `wtime` read and closed by a `wtime` read alone (the
/// experiment finishes on the root, so no closing barrier is needed) —
/// the exact program `estim::measure` times on the threaded backend.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
///
/// # Panics
///
/// Panics on invalid geometry, as [`bcast`] would.
#[allow(clippy::too_many_arguments)]
pub fn compile_timed_bcast_gather(
    cluster: &ClusterModel,
    alg: BcastAlg,
    p: usize,
    root: usize,
    m: usize,
    m_g: usize,
    seg_size: usize,
    reps: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        rc.barrier();
        let _ = rc.wtime();
        let data = (rc.rank() == root).then(|| Bytes::symbolic(m));
        let _ = bcast(rc, alg, root, data, m, seg_size);
        let _ = gather_linear(rc, root, Bytes::symbolic(m_g));
        let _ = rc.wtime();
    })
    .map(|one| one.repeated(reps))
}

/// Compiles the paper's Sect. 4.1 measurement round: one `wtime`d run
/// of `calls` successive linear-tree broadcasts of a `seg_size`-byte
/// segment, each followed by a barrier — the exact program
/// `estim::measure` times on the threaded backend (the sample is the
/// root's single clock pair divided by `calls`).
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_timed_linear_segment(
    cluster: &ClusterModel,
    p: usize,
    root: usize,
    seg_size: usize,
    calls: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        rc.barrier();
        let _ = rc.wtime();
        for _ in 0..calls {
            let data = (rc.rank() == root).then(|| Bytes::symbolic(seg_size));
            let _ = crate::bcast_linear(rc, root, data, seg_size);
            rc.barrier();
        }
        let _ = rc.wtime();
    })
}

/// Compiles the linear gather at geometry `(p, root, len)`.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_gather_linear(
    cluster: &ClusterModel,
    p: usize,
    root: usize,
    len: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        gather_linear(rc, root, Bytes::symbolic(len));
    })
}

/// Compiles the binomial scatter at geometry `(p, root, len)` (each
/// rank's block is `len` bytes).
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_scatter_binomial(
    cluster: &ClusterModel,
    p: usize,
    root: usize,
    len: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        let blocks = (rc.rank() == root).then(|| (0..p).map(|_| Bytes::symbolic(len)).collect());
        scatter_binomial(rc, root, blocks);
    })
}

/// Compiles the ring allgather at geometry `(p, len)`.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_allgather_ring(
    cluster: &ClusterModel,
    p: usize,
    len: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        allgather_ring(rc, Bytes::symbolic(len));
    })
}

/// Compiles a reduce algorithm at geometry `(p, root, lanes,
/// seg_size)` — payloads are `lanes` `u64` lanes.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_reduce(
    cluster: &ClusterModel,
    alg: ReduceAlg,
    p: usize,
    root: usize,
    lanes: usize,
    seg_size: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        reduce(
            rc,
            alg,
            root,
            ReduceOp::Sum,
            Bytes::symbolic(lanes * 8),
            seg_size,
        );
    })
}

/// Compiles the recursive-doubling allreduce at geometry `(p, lanes)`.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_allreduce_recursive_doubling(
    cluster: &ClusterModel,
    p: usize,
    lanes: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        allreduce_recursive_doubling(rc, ReduceOp::Sum, Bytes::symbolic(lanes * 8));
    })
}

/// Compiles the pairwise all-to-all at geometry `(p, len)` (each block
/// is `len` bytes).
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_alltoall_pairwise(
    cluster: &ClusterModel,
    p: usize,
    len: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        alltoall_pairwise(rc, (0..p).map(|_| Bytes::symbolic(len)).collect());
    })
}

/// Compiles the dissemination barrier at world size `p`.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
pub fn compile_barrier_dissemination(
    cluster: &ClusterModel,
    p: usize,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, |rc| {
        barrier_dissemination(rc);
    })
}

/// One collective of a workload step, bound to a sub-communicator.
///
/// `ranks` lists the group's global members in ascending order; the
/// collective's root is group rank 0 (the lowest member). `m` follows
/// [`crate::run_collective`]'s convention: total vector size for
/// bcast/reduce/allreduce, per-rank block size otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupCall {
    /// The algorithm to run (also names the collective).
    pub alg: crate::collective::Alg,
    /// Global ranks of the sub-communicator, ascending, no duplicates.
    pub ranks: Vec<usize>,
    /// Message size in bytes (see [`crate::run_collective`]).
    pub m: usize,
    /// Segment size in bytes (0 means unsegmented where applicable).
    pub seg_size: usize,
}

/// Tag windows of [`GROUP_TAG_STRIDE`] in the tag space: the bound on a
/// step's calls.
const TAG_WINDOWS: usize = (u32::MAX / GROUP_TAG_STRIDE) as usize;
const TOO_MANY_CALLS: &str = "step has more calls than tag windows";

/// Runs one workload step — a set of collectives on (possibly
/// overlapping) sub-communicators — from the perspective of one rank.
///
/// Calls are issued in list order; each gets its own tag window
/// ([`GROUP_TAG_STRIDE`]) so overlapping groups can be in flight
/// concurrently without channel collisions. A rank that is not a
/// member of a call's group skips that call (no synchronisation — the
/// step ends when every member of every group is done). The op stream
/// is a pure function of `(rank, world, calls)`, and the calls'
/// streams simply follow one another on each rank, which is why
/// [`compile_step`] can compose the step's schedule from the schedules
/// of its collectives without running this function.
///
/// # Panics
///
/// Panics on an invalid group (empty, out-of-world member, duplicate)
/// or more calls than tag windows.
pub fn run_step<C: Comm>(ctx: &mut C, calls: &[GroupCall]) {
    assert!(calls.len() < TAG_WINDOWS, "{TOO_MANY_CALLS}");
    for (i, call) in calls.iter().enumerate() {
        let tag_base = i as u32 * GROUP_TAG_STRIDE;
        if let Some(mut group) = GroupComm::new(ctx, &call.ranks, tag_base) {
            crate::collective::run_collective(&mut group, call.alg, 0, call.m, call.seg_size);
        }
    }
}

/// What fixes the schedule of a collective run in isolation with root
/// 0: `(alg, ranks, m, seg_size)`. Every [`GroupCall`] with the same
/// key runs the same program, whichever ranks its group holds.
pub type TemplateKey = (crate::collective::Alg, usize, usize, usize);

/// Records the template of `key`: the collective on its own
/// communicator, root 0 ([`crate::run_collective`] against a recording
/// context) — what [`compose_step`] embeds once per group that runs it.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails.
///
/// # Panics
///
/// Panics if the rank count is zero or exceeds the cluster's slots.
pub fn compile_template(
    cluster: &ClusterModel,
    (alg, p, m, seg_size): TemplateKey,
) -> Result<Schedule, RecordError> {
    record_schedule(cluster, p, move |rc| {
        crate::collective::run_collective(rc, alg, 0, m, seg_size);
    })
}

/// A template's recording failure as the step reports it: under the
/// world rank of the group member it happened on.
fn on_members(err: RecordError, members: &[usize]) -> RecordError {
    match err {
        RecordError::Sim(SimError::RankPanic { rank, message }) => {
            RecordError::Sim(SimError::RankPanic {
                rank: members[rank],
                message,
            })
        }
        RecordError::Unsupported { rank, what } => RecordError::Unsupported {
            rank: members[rank],
            what,
        },
        RecordError::Sim(SimError::Deadlock { detail }) => RecordError::Sim(SimError::Deadlock {
            detail: format!("on the rank group {members:?}, by group rank: {detail}"),
        }),
        other => other,
    }
}

/// Composes one workload step — what [`run_step`] issues on `world`
/// ranks — from per-collective templates instead of running it: call
/// `i`'s template, obtained from `template` by its [`TemplateKey`], is
/// [embedded](Schedule::embed) on the call's ranks in tag window `i`.
/// A step's calls never synchronise with each other, so this is op for
/// op the schedule recording `run_step` yields, and a collective shared
/// by many groups, steps or traces is recorded as often as `template`
/// chooses to — once, if it keeps what it returns.
///
/// # Errors
///
/// What recording the step would report: an invalid group (empty,
/// member outside the world, duplicate) or more calls than tag windows
/// as [`SimError::RankPanic`] on rank 0 with [`run_step`]'s panic
/// message; a template's own failure under the world rank of the member
/// it happened on.
///
/// # Panics
///
/// Panics if `world` is zero or exceeds the cluster's slots.
pub fn compose_step(
    cluster: &ClusterModel,
    world: usize,
    calls: &[GroupCall],
    mut template: impl FnMut(TemplateKey) -> Result<Arc<Schedule>, RecordError>,
) -> Result<Schedule, RecordError> {
    let mut step = Schedule::idle(cluster, world);
    if calls.len() >= TAG_WINDOWS {
        return Err(RecordError::Sim(SimError::RankPanic {
            rank: 0,
            message: TOO_MANY_CALLS.to_owned(),
        }));
    }
    for (i, call) in calls.iter().enumerate() {
        // Checked before the template is asked for: its rank count is
        // the group's size, which only a valid group bounds.
        check_group(&call.ranks, world)?;
        let key = (call.alg, call.ranks.len(), call.m, call.seg_size);
        let template = template(key).map_err(|err| on_members(err, &call.ranks))?;
        step.embed(&template, &call.ranks, i as u32 * GROUP_TAG_STRIDE)?;
    }
    Ok(step)
}

/// Compiles one workload step into a `world`-rank schedule: the
/// schedule recording [`run_step`] yields, [composed](compose_step)
/// from templates that are recorded once per distinct collective of the
/// step. (To share templates across steps too, use
/// `collsel_estim::compile_step_shared`.)
///
/// # Errors
///
/// As [`compose_step`]; the group collectives use no wildcards and
/// read no payload, so `Unsupported` cannot occur.
///
/// # Panics
///
/// Panics if `world` is zero or exceeds the cluster's slots.
pub fn compile_step(
    cluster: &ClusterModel,
    world: usize,
    calls: &[GroupCall],
) -> Result<Schedule, RecordError> {
    let mut templates: HashMap<TemplateKey, Arc<Schedule>> = HashMap::new();
    compose_step(cluster, world, calls, |key| {
        Ok(match templates.entry(key) {
            Entry::Occupied(slot) => Arc::clone(slot.get()),
            Entry::Vacant(slot) => {
                Arc::clone(slot.insert(Arc::new(compile_template(cluster, key)?)))
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_mpi::{simulate_scheduled, simulate_with, Ctx, SimOptions};
    use collsel_support::payload::payload;

    /// Payload of `lanes` little-endian `u64` lanes for the reductions.
    fn lane_payload(rank: usize, lanes: usize) -> Bytes {
        let mut v = Vec::with_capacity(lanes * 8);
        for lane in 0..lanes {
            v.extend_from_slice(&((rank * 1000 + lane) as u64).to_le_bytes());
        }
        Bytes::from(v)
    }

    const OPTS: SimOptions = SimOptions {
        traced: true,
        deadline: None,
    };

    /// Replaying a compiled schedule must match running the same
    /// program live on the threaded backend, bit for bit.
    fn assert_equivalent(
        cluster: &ClusterModel,
        p: usize,
        sched: &Schedule,
        program: impl Fn(&mut Ctx) + Sync,
    ) {
        for seed in [0u64, 3, 77] {
            let threaded =
                simulate_with(cluster, p, seed, OPTS, |ctx| program(ctx)).expect("threaded run");
            let replay = simulate_scheduled(cluster, sched, seed, OPTS).expect("replay run");
            assert_eq!(threaded.report.finish_times, replay.report.finish_times);
            assert_eq!(threaded.report.makespan, replay.report.makespan);
            assert_eq!(threaded.report.messages, replay.report.messages);
            assert_eq!(threaded.report.bytes, replay.report.bytes);
            assert_eq!(threaded.report.trace, replay.report.trace);
        }
    }

    #[test]
    fn gigabyte_step_records_exact_lengths_without_touching_a_byte() {
        use crate::collective::Alg;
        use crate::AllreduceAlg;
        use collsel_mpi::OpShape;
        use std::collections::BTreeSet;

        const GIB: usize = 1 << 30;
        const SEG: usize = 64 << 20;
        let world = 24;
        // A data-parallel step: four strided gradient allreduces at P=6,
        // then a parameter broadcast to the whole world. The recorder
        // only ever holds lengths, so 71 GiB of traffic costs what its
        // few hundred operations cost.
        let mut calls: Vec<GroupCall> = (0..4)
            .map(|g| GroupCall {
                alg: Alg::Allreduce(AllreduceAlg::RecursiveDoubling),
                ranks: (g..world).step_by(4).collect(),
                m: GIB,
                seg_size: 0,
            })
            .collect();
        calls.push(GroupCall {
            alg: Alg::Bcast(BcastAlg::SplitBinary),
            ranks: (0..world).collect(),
            m: GIB,
            seg_size: SEG,
        });
        let started = std::time::Instant::now();
        let sched = compile_step(&ClusterModel::grisou(), world, &calls).expect("step compiles");
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 1.0, "recording took {took:?}");

        // Send lengths of one call, picked out by its tag window.
        let shape = sched.shape();
        let lens_of = |call: u32| -> Vec<usize> {
            shape
                .iter()
                .flatten()
                .filter_map(|op| match op {
                    OpShape::Isend { tag, len, .. } if tag / GROUP_TAG_STRIDE == call => Some(*len),
                    _ => None,
                })
                .collect()
        };
        // Recursive doubling at P=6: two extras fold in and get the
        // result back (4 sends), four participants exchange in two
        // rounds (8 sends), every one of the full vector.
        for call in 0..4 {
            assert_eq!(lens_of(call), vec![GIB; 12], "allreduce {call}");
        }
        // Split-binary at P=24: each of the 23 non-roots gets its half
        // in 64 MiB segments, then 11 pairs swap halves and the root
        // serves the unpaired rank.
        let bcast = lens_of(4);
        assert_eq!(
            bcast.iter().copied().collect::<BTreeSet<_>>(),
            BTreeSet::from([SEG, GIB / 2])
        );
        assert_eq!(bcast.iter().filter(|&&len| len == GIB / 2).count(), 23);
        assert_eq!(bcast.iter().sum::<usize>(), 23 * GIB);
    }

    fn rank_panic(rank: usize, message: &str) -> RecordError {
        RecordError::Sim(SimError::RankPanic {
            rank,
            message: message.to_owned(),
        })
    }

    /// An invalid step is a typed error, never a panic, and reads as
    /// it did when steps were recorded whole (`run_step` against the
    /// recording context, kept here as the reference).
    #[test]
    fn invalid_steps_are_typed_errors_with_the_recorder_s_messages() {
        use crate::collective::Alg;
        let cluster = ClusterModel::gros();
        let world = 6;
        let call = |ranks: Vec<usize>| GroupCall {
            alg: Alg::Bcast(BcastAlg::Binomial),
            ranks,
            m: 4096,
            seg_size: 1024,
        };
        for (ranks, message) in [
            (vec![], "empty rank group"),
            (vec![0, 2, 6], "group member 6 outside world of 6"),
            (vec![1, 3, 1], "duplicate member 1 in rank group"),
        ] {
            // A valid call first: the fault is found wherever it sits.
            let calls = vec![call(vec![4, 5]), call(ranks)];
            let whole = record_schedule(&cluster, world, |rc| run_step(rc, &calls));
            assert_eq!(whole.err(), Some(rank_panic(0, message)));
            assert_eq!(
                compile_step(&cluster, world, &calls).err(),
                Some(rank_panic(0, message))
            );
        }

        let calls = vec![call(vec![0, 1]); TAG_WINDOWS];
        let whole = record_schedule(&cluster, world, |rc| run_step(rc, &calls));
        assert_eq!(whole.err(), Some(rank_panic(0, TOO_MANY_CALLS)));
        assert_eq!(
            compile_step(&cluster, world, &calls).err(),
            Some(rank_panic(0, TOO_MANY_CALLS))
        );
    }

    #[test]
    fn a_template_s_failure_is_reported_under_the_member_s_world_rank() {
        use crate::collective::Alg;
        let cluster = ClusterModel::gros();
        let calls = vec![GroupCall {
            alg: Alg::Bcast(BcastAlg::Linear),
            ranks: vec![2, 5, 7],
            m: 64,
            seg_size: 0,
        }];
        let compose = |template: Result<Schedule, RecordError>| {
            compose_step(&cluster, 8, &calls, |key| {
                assert_eq!(key, (Alg::Bcast(BcastAlg::Linear), 3, 64, 0));
                template.clone().map(Arc::new)
            })
            .err()
        };
        // Group rank 1 is world rank 5.
        assert_eq!(
            compose(Err(rank_panic(1, "boom"))),
            Some(rank_panic(5, "boom"))
        );
        assert_eq!(
            compose(Err(RecordError::Unsupported {
                rank: 2,
                what: "wait_any_recv".to_owned(),
            })),
            Some(RecordError::Unsupported {
                rank: 7,
                what: "wait_any_recv".to_owned(),
            })
        );
        // A template that crosses the engine barrier: refused under the
        // first member, world rank 2, as its `GroupComm` would panic.
        let with_barrier = record_schedule(&cluster, 3, |rc| rc.barrier());
        assert_eq!(
            compose(with_barrier),
            Some(rank_panic(2, "engine barrier unsupported on a rank group"))
        );
    }

    #[test]
    fn step_with_overlapping_groups_replays_and_compiles_identically() {
        use crate::collective::Alg;
        use crate::{AllgatherAlg, AllreduceAlg};
        use collsel_mpi::{simulate_dag, TimingDag};

        let cluster = ClusterModel::gros();
        let world = 8;
        // dp/tp-style overlap: two strided data-parallel allreduces, a
        // tensor-parallel allgather on a contiguous block, and a
        // broadcast on a group sharing members with all of them.
        let calls = vec![
            GroupCall {
                alg: Alg::Allreduce(AllreduceAlg::RecursiveDoubling),
                ranks: vec![0, 2, 4, 6],
                m: 32 * 1024,
                seg_size: 8 * 1024,
            },
            GroupCall {
                alg: Alg::Allreduce(AllreduceAlg::RecursiveDoubling),
                ranks: vec![1, 3, 5, 7],
                m: 32 * 1024,
                seg_size: 8 * 1024,
            },
            GroupCall {
                alg: Alg::Allgather(AllgatherAlg::Ring),
                ranks: vec![0, 1, 2, 3],
                m: 4 * 1024,
                seg_size: 0,
            },
            GroupCall {
                alg: Alg::Bcast(BcastAlg::Binomial),
                ranks: vec![0, 4, 5, 6, 7],
                m: 16 * 1024,
                seg_size: 8 * 1024,
            },
        ];
        let sched = compile_step(&cluster, world, &calls).expect("step compiles");
        assert_eq!(sched.ranks(), world);
        {
            let calls = calls.clone();
            assert_equivalent(&cluster, world, &sched, move |ctx| run_step(ctx, &calls));
        }
        // The compiled step also lowers to a timing DAG bit-identically.
        let dag = TimingDag::compile(&cluster, &sched).expect("step fits the DAG");
        for seed in [0u64, 3, 77] {
            let replay = simulate_scheduled(&cluster, &sched, seed, OPTS).expect("replay");
            let fast = simulate_dag(&cluster, &dag, seed, OPTS).expect("dag");
            assert_eq!(replay.report.finish_times, fast.report.finish_times);
            assert_eq!(replay.report.makespan, fast.report.makespan);
            assert_eq!(replay.report.trace, fast.report.trace);
        }
    }

    #[test]
    fn all_bcast_algorithms_compile_and_replay_identically() {
        let cluster = ClusterModel::grisou();
        let (p, root, len, seg) = (9, 1, 40_000, 8 * 1024);
        for alg in BcastAlg::ALL {
            let sched = compile_bcast(&cluster, alg, p, root, len, seg).expect("compiles");
            assert_eq!(sched.ranks(), p);
            let msg = payload(len);
            assert_equivalent(&cluster, p, &sched, move |ctx| {
                let m = (Comm::rank(ctx) == root).then(|| msg.clone());
                bcast(ctx, alg, root, m, len, seg);
            });
        }
    }

    #[test]
    fn timed_bcast_schedule_replays_identically() {
        let cluster = ClusterModel::gros();
        let (p, root, len, seg, reps) = (6, 0, 10_000, 4096, 3);
        let sched = compile_timed_bcast(&cluster, BcastAlg::Binomial, p, root, len, seg, reps)
            .expect("compiles");
        let msg = payload(len);
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            for _ in 0..reps {
                ctx.barrier();
                let _ = ctx.wtime();
                let m = (Comm::rank(ctx) == root).then(|| msg.clone());
                bcast(ctx, BcastAlg::Binomial, root, m, len, seg);
                ctx.barrier();
                let _ = ctx.wtime();
            }
        });
    }

    #[test]
    fn timed_bcast_gather_schedule_replays_identically() {
        let cluster = ClusterModel::grisou();
        let (p, root, m, m_g, seg, reps) = (5, 0, 20_000, 1024, 8192, 2);
        let sched =
            compile_timed_bcast_gather(&cluster, BcastAlg::Chain, p, root, m, m_g, seg, reps)
                .expect("compiles");
        let msg = payload(m);
        let contrib = payload(m_g);
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            for _ in 0..reps {
                ctx.barrier();
                let _ = ctx.wtime();
                let data = (Comm::rank(ctx) == root).then(|| msg.clone());
                let _ = bcast(ctx, BcastAlg::Chain, root, data, m, seg);
                let _ = gather_linear(ctx, root, contrib.clone());
                let _ = ctx.wtime();
            }
        });
    }

    #[test]
    fn timed_linear_segment_schedule_replays_identically() {
        let cluster = ClusterModel::gros();
        let (p, root, seg, calls) = (5, 0, 4096, 4);
        let sched = compile_timed_linear_segment(&cluster, p, root, seg, calls).expect("compiles");
        let msg = payload(seg);
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            ctx.barrier();
            let _ = ctx.wtime();
            for _ in 0..calls {
                let data = (Comm::rank(ctx) == root).then(|| msg.clone());
                let _ = crate::bcast_linear(ctx, root, data, msg.len());
                ctx.barrier();
            }
            let _ = ctx.wtime();
        });
    }

    #[test]
    fn other_collectives_compile_and_replay_identically() {
        let cluster = ClusterModel::gros();
        let p = 7;

        let sched = compile_gather_linear(&cluster, p, 2, 512).expect("gather");
        assert_equivalent(&cluster, p, &sched, |ctx| {
            gather_linear(ctx, 2, payload(512));
        });

        let sched = compile_scatter_binomial(&cluster, p, 0, 256).expect("scatter");
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            let blocks = (Comm::rank(ctx) == 0).then(|| (0..p).map(|_| payload(256)).collect());
            scatter_binomial(ctx, 0, blocks);
        });

        let sched = compile_allgather_ring(&cluster, p, 300).expect("allgather");
        assert_equivalent(&cluster, p, &sched, |ctx| {
            allgather_ring(ctx, payload(300));
        });

        let sched = compile_reduce(&cluster, ReduceAlg::Binomial, p, 0, 64, 128).expect("reduce");
        assert_equivalent(&cluster, p, &sched, |ctx| {
            reduce(
                ctx,
                ReduceAlg::Binomial,
                0,
                ReduceOp::Sum,
                lane_payload(Comm::rank(ctx), 64),
                128,
            );
        });

        let sched = compile_allreduce_recursive_doubling(&cluster, p, 32).expect("allreduce");
        assert_equivalent(&cluster, p, &sched, |ctx| {
            allreduce_recursive_doubling(ctx, ReduceOp::Sum, lane_payload(Comm::rank(ctx), 32));
        });

        let sched = compile_alltoall_pairwise(&cluster, p, 128).expect("alltoall");
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            alltoall_pairwise(ctx, (0..p).map(|_| payload(128)).collect());
        });

        let sched = compile_barrier_dissemination(&cluster, p).expect("barrier");
        assert_equivalent(&cluster, p, &sched, |ctx| {
            barrier_dissemination(ctx);
        });
    }
}
