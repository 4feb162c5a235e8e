//! Compiling collectives to [`Schedule`]s for the timing-DAG backend.
//!
//! Each `compile_*` function runs the corresponding collective against
//! the symbolic recording context ([`collsel_mpi::record_schedule`]:
//! rank by rank on the calling thread, no simulation), so the schedule
//! IR is *derived from the implementing code* — the same principle the
//! paper applies when deriving analytical models from the
//! implementations. The resulting [`Schedule`] lowers to a
//! [`collsel_mpi::TimingDag`], which evaluates under any seed, fault
//! plan or watchdog deadline with zero OS threads per run,
//! bit-identical to the threaded backend.
//!
//! The paper's timed measurement programs are each defined once, as a
//! [`TimedProgram`]: one round, generic over [`Comm`], which the
//! threaded engine runs as it stands and the recorder records once,
//! with the batch's round count beside it ([`TimedProgram::record`],
//! [`Schedule::repeated`]); the timing DAG lowers that round once and
//! loops it.
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
use crate::bcast_linear;
use crate::collective::{run_collective, Alg};
use crate::gather::gather_linear;
use collsel_mpi::{
    check_group, record_schedule, Comm, GroupComm, RecordError, Schedule, SimError,
    GROUP_TAG_STRIDE,
};
use collsel_netsim::{ClusterModel, SimTime};
use collsel_support::Bytes;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Compiles one broadcast algorithm at geometry `(p, root, len,
/// seg_size)` into a per-rank schedule.
///
/// # Errors
///
/// [`RecordError`] if the recording run fails (the broadcast ports
/// read no payload and are deterministic, so `Unsupported` cannot occur
/// for them).
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

/// One of the paper's timed measurement programs — every parameter
/// that can change its operation stream, so it doubles as the identity
/// of a measurement cell.
///
/// The paper times everything one way (Sect. 4): a barrier, the root's
/// clock around the operation, repeated until the confidence interval
/// is tight. [`round`](TimedProgram::round) is one such repetition,
/// written once against [`Comm`]: the threaded engine runs it on real
/// rank threads, [`record`](TimedProgram::record) runs the same text
/// against the recorder. Payloads are [symbolic](Bytes::symbolic) on
/// both — only lengths reach a timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimedProgram {
    /// Any algorithm of any collective ([`run_collective`]; `m` follows
    /// its convention: total vector for bcast/reduce/allreduce,
    /// per-rank block otherwise), closed by a barrier so the root
    /// observes the slowest rank's completion.
    Collective {
        /// Algorithm under measurement (tagged with its collective).
        alg: Alg,
        /// Number of ranks.
        p: usize,
        /// Payload size in bytes.
        m: usize,
        /// Segment size for segmented algorithms.
        seg_size: usize,
    },
    /// The Sect. 4.2 experiment: the modelled broadcast of `m` bytes
    /// followed by a linear gather of `m_g`-byte contributions. It
    /// starts and finishes on the root, so no closing barrier.
    BcastGather {
        /// Broadcast algorithm under measurement.
        alg: BcastAlg,
        /// Number of ranks.
        p: usize,
        /// Broadcast message size in bytes.
        m: usize,
        /// Per-rank gather contribution size in bytes.
        m_g: usize,
        /// Segment size for segmented algorithms.
        seg_size: usize,
    },
    /// The Sect. 4.1 experiment: `calls` successive non-blocking
    /// linear-tree broadcasts of one `seg_size`-byte segment, each
    /// followed by a barrier, inside one clock pair (the paper's
    /// `T2(P) = T1(P, N) / N`).
    LinearSegment {
        /// Number of ranks (the linear tree's width).
        p: usize,
        /// Segment size in bytes.
        seg_size: usize,
        /// Broadcasts per sample (`N`).
        calls: usize,
    },
    /// The Hockney round trip of `m` bytes between the root and the
    /// other of ranks 0 and 1; half of it is the one-way time.
    P2p {
        /// Message size in bytes.
        m: usize,
    },
}

impl TimedProgram {
    /// Number of ranks the program runs on.
    pub fn ranks(&self) -> usize {
        match *self {
            TimedProgram::Collective { p, .. }
            | TimedProgram::BcastGather { p, .. }
            | TimedProgram::LinearSegment { p, .. } => p,
            TimedProgram::P2p { .. } => 2,
        }
    }

    /// What one round's clock difference is divided by to give the
    /// sample: `calls` broadcasts share a linear-segment round, a round
    /// trip is two one-way times.
    ///
    /// # Panics
    ///
    /// Panics on a linear-segment program with zero calls.
    pub fn sample_divisor(&self) -> f64 {
        match *self {
            TimedProgram::Collective { .. } | TimedProgram::BcastGather { .. } => 1.0,
            TimedProgram::LinearSegment { calls, .. } => {
                assert!(calls > 0, "need at least one call per sample");
                calls as f64
            }
            TimedProgram::P2p { .. } => 2.0,
        }
    }

    /// Rounds in a batch of `reps` repetitions: a linear-segment round
    /// already holds `calls` operations and is a batch by itself.
    pub fn rounds_per_batch(&self, reps: usize) -> usize {
        match self {
            TimedProgram::LinearSegment { .. } => 1,
            _ => reps,
        }
    }

    /// One timed round on the calling rank: `barrier; wtime; body;
    /// [barrier;] wtime`. Every rank returns its own clock pair; the
    /// sample is the one read on `root`.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry, as the underlying collective would.
    pub fn round<C: Comm>(&self, c: &mut C, root: usize) -> (SimTime, SimTime) {
        c.barrier();
        let t0 = c.wtime();
        match *self {
            TimedProgram::Collective {
                alg, m, seg_size, ..
            } => {
                run_collective(c, alg, root, m, seg_size);
                c.barrier();
            }
            TimedProgram::BcastGather {
                alg,
                m,
                m_g,
                seg_size,
                ..
            } => {
                let data = (c.rank() == root).then(|| Bytes::symbolic(m));
                let _ = bcast(c, alg, root, data, m, seg_size);
                let _ = gather_linear(c, root, Bytes::symbolic(m_g));
            }
            TimedProgram::LinearSegment {
                seg_size, calls, ..
            } => {
                for _ in 0..calls {
                    let data = (c.rank() == root).then(|| Bytes::symbolic(seg_size));
                    let _ = bcast_linear(c, root, data, seg_size);
                    c.barrier();
                }
            }
            TimedProgram::P2p { m } => {
                assert!(root < 2, "a round trip runs between ranks 0 and 1");
                let peer = 1 - root;
                if c.rank() == root {
                    c.send(peer, 0, Bytes::symbolic(m));
                    let _ = c.recv(peer, 1);
                } else {
                    let data = c.recv(root, 0);
                    c.send(root, 1, data);
                }
            }
        }
        (t0, c.wtime())
    }

    /// Records one batch of `reps` repetitions: one
    /// [`round`](TimedProgram::round) through the recorder, run
    /// [`rounds_per_batch`](TimedProgram::rounds_per_batch) times (the
    /// round is stored once, with the count). Each rank observes two
    /// clock values per round, and the root's consecutive pairs are the
    /// timing samples.
    ///
    /// # Errors
    ///
    /// [`RecordError`] if the recording run fails (it cannot: the
    /// programs read no payload and their receives are all matched).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry, as [`round`](TimedProgram::round)
    /// would.
    pub fn record(
        &self,
        cluster: &ClusterModel,
        root: usize,
        reps: usize,
    ) -> Result<Schedule, RecordError> {
        let one = record_schedule(cluster, self.ranks(), |rc| {
            self.round(rc, root);
        })?;
        Ok(one.repeated(self.rounds_per_batch(reps)))
    }
}

/// [`TimedProgram::Collective`] recorded at an explicit root.
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
    alg: Alg,
    p: usize,
    root: usize,
    m: usize,
    seg_size: usize,
    reps: usize,
) -> Result<Schedule, RecordError> {
    let program = TimedProgram::Collective {
        alg,
        p,
        m,
        seg_size,
    };
    program.record(cluster, root, reps)
}

/// [`TimedProgram::BcastGather`] recorded at an explicit root.
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
    let program = TimedProgram::BcastGather {
        alg,
        p,
        m,
        m_g,
        seg_size,
    };
    program.record(cluster, root, reps)
}

/// [`TimedProgram::LinearSegment`] recorded at an explicit root: one
/// round of `calls` broadcasts.
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
    TimedProgram::LinearSegment { p, seg_size, calls }.record(cluster, root, 1)
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
/// As [`compose_step`]; the group collectives are deterministic and
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
    use crate::{
        allgather_ring, allreduce_recursive_doubling, alltoall_pairwise, reduce, scatter_binomial,
        ReduceAlg, ReduceOp,
    };
    use collsel_mpi::{simulate_with, Ctx, DagEvaluator, SimOptions, TimingDag};
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

    /// Evaluating a compiled schedule must match running the same
    /// program live on the threaded backend, bit for bit — the clock
    /// reads the program returns included.
    fn assert_equivalent(
        cluster: &ClusterModel,
        p: usize,
        sched: &Schedule,
        program: impl Fn(&mut Ctx) -> Vec<SimTime> + Sync,
    ) {
        let dag = Arc::new(TimingDag::compile(cluster, sched).expect("fits the DAG"));
        for seed in [0u64, 3, 77] {
            let threaded =
                simulate_with(cluster, p, seed, OPTS, |ctx| program(ctx)).expect("threaded run");
            let fast = DagEvaluator::new(cluster, Arc::clone(&dag))
                .run(seed, OPTS)
                .expect("dag run");
            assert_eq!(threaded.report, fast.report);
            assert_eq!(threaded.results, fast.wtimes);
        }
    }

    #[test]
    fn gigabyte_step_records_exact_lengths_without_touching_a_byte() {
        use crate::collective::Alg;
        use crate::AllreduceAlg;
        use collsel_mpi::SchedOp;
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
                    SchedOp::Isend { tag, len, .. } if tag / GROUP_TAG_STRIDE == call => Some(*len),
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
        let unsupported = |rank| RecordError::Unsupported {
            rank,
            what: "a non-deterministic op stream".to_owned(),
        };
        assert_eq!(compose(Err(unsupported(2))), Some(unsupported(7)));
        // A template that crosses the engine barrier: refused under the
        // first member, world rank 2, as its `GroupComm` would panic.
        let with_barrier = record_schedule(&cluster, 3, |rc| rc.barrier());
        assert_eq!(
            compose(with_barrier),
            Some(rank_panic(2, "engine barrier unsupported on a rank group"))
        );
    }

    #[test]
    fn step_with_overlapping_groups_compiles_identically() {
        use crate::collective::Alg;
        use crate::{AllgatherAlg, AllreduceAlg};

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
        assert_equivalent(&cluster, world, &sched, |ctx| {
            run_step(ctx, &calls);
            Vec::new()
        });
    }

    #[test]
    fn all_bcast_algorithms_compile_identically() {
        let cluster = ClusterModel::grisou();
        let (p, root, len, seg) = (9, 1, 40_000, 8 * 1024);
        for alg in BcastAlg::ALL {
            let sched = compile_bcast(&cluster, alg, p, root, len, seg).expect("compiles");
            assert_eq!(sched.ranks(), p);
            let msg = payload(len);
            assert_equivalent(&cluster, p, &sched, move |ctx| {
                let m = (Comm::rank(ctx) == root).then(|| msg.clone());
                bcast(ctx, alg, root, m, len, seg);
                Vec::new()
            });
        }
    }

    /// A timed program is one text: its rounds on rank threads read the
    /// clocks its recording evaluates to, at a non-zero root too.
    #[test]
    fn timed_programs_run_on_threads_as_their_recordings_evaluate() {
        let cluster = ClusterModel::grisou();
        let alg = BcastAlg::Chain;
        for (program, root, reps) in [
            (
                TimedProgram::Collective {
                    alg: Alg::Bcast(BcastAlg::Binomial),
                    p: 6,
                    m: 10_000,
                    seg_size: 4096,
                },
                2,
                3,
            ),
            (
                TimedProgram::BcastGather {
                    alg,
                    p: 5,
                    m: 20_000,
                    m_g: 1024,
                    seg_size: 8192,
                },
                0,
                2,
            ),
            (
                TimedProgram::LinearSegment {
                    p: 5,
                    seg_size: 4096,
                    calls: 4,
                },
                0,
                3,
            ),
            (TimedProgram::P2p { m: 1000 }, 0, 2),
            (TimedProgram::P2p { m: 512 * 1024 }, 1, 2),
        ] {
            let sched = program.record(&cluster, root, reps).expect("records");
            let rounds = program.rounds_per_batch(reps);
            assert_equivalent(&cluster, program.ranks(), &sched, |ctx| {
                (0..rounds)
                    .flat_map(|_| <[SimTime; 2]>::from(program.round(ctx, root)))
                    .collect()
            });
        }
    }

    /// The other collectives' real-payload threaded runs evaluate as
    /// their production recordings ([`run_collective`]) do.
    #[test]
    fn other_collectives_compile_identically() {
        use crate::{AllgatherAlg, AllreduceAlg, AlltoallAlg, GatherAlg, ScatterAlg};
        let cluster = ClusterModel::gros();
        let p = 7;
        let record = |alg, root, m, seg| {
            record_schedule(&cluster, p, move |rc| run_collective(rc, alg, root, m, seg))
                .expect("records")
        };

        let sched = record(Alg::Gather(GatherAlg::Linear), 2, 512, 0);
        assert_equivalent(&cluster, p, &sched, |ctx| {
            gather_linear(ctx, 2, payload(512));
            Vec::new()
        });

        let sched = record(Alg::Scatter(ScatterAlg::Binomial), 0, 256, 0);
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            let blocks = (Comm::rank(ctx) == 0).then(|| (0..p).map(|_| payload(256)).collect());
            scatter_binomial(ctx, 0, blocks);
            Vec::new()
        });

        let sched = record(Alg::Allgather(AllgatherAlg::Ring), 0, 300, 0);
        assert_equivalent(&cluster, p, &sched, |ctx| {
            allgather_ring(ctx, payload(300));
            Vec::new()
        });

        let sched = record(Alg::Reduce(ReduceAlg::Binomial), 0, 64 * 8, 128);
        assert_equivalent(&cluster, p, &sched, |ctx| {
            reduce(
                ctx,
                ReduceAlg::Binomial,
                0,
                ReduceOp::Sum,
                lane_payload(Comm::rank(ctx), 64),
                128,
            );
            Vec::new()
        });

        let sched = record(
            Alg::Allreduce(AllreduceAlg::RecursiveDoubling),
            0,
            32 * 8,
            0,
        );
        assert_equivalent(&cluster, p, &sched, |ctx| {
            allreduce_recursive_doubling(ctx, ReduceOp::Sum, lane_payload(Comm::rank(ctx), 32));
            Vec::new()
        });

        let sched = record(Alg::Alltoall(AlltoallAlg::Pairwise), 0, 128, 0);
        assert_equivalent(&cluster, p, &sched, move |ctx| {
            alltoall_pairwise(ctx, (0..p).map(|_| payload(128)).collect());
            Vec::new()
        });
    }
}
