//! The symbolic schedule recorder against the threaded oracle.
//!
//! `mpi::record_schedule` learns a program's operation stream by
//! executing it rank by rank against an untimed message board. Until
//! this PR it ran a full thread-per-rank timing simulation and logged
//! what the ranks issued; that recorder survives here, as test support
//! only ([`OracleCtx`]), and every program the pipeline records must
//! come out of both the same: operation kind, request ids, peer, tag,
//! wait sets and payload length, rank by rank, op by op.
//!
//! Trace steps are no longer recorded whole but composed from
//! per-collective templates (`coll::compile::compile_step`); the
//! whole-step recording they replaced is the second oracle here.

use collsel::coll::compile::{
    compile_step, compile_timed_bcast_gather, compile_timed_collective,
    compile_timed_linear_segment, run_step, TimedProgram,
};
use collsel::coll::{
    allgather_ring, allreduce_recursive_doubling, bcast, bcast_linear, gather_linear,
    run_collective, Alg, BcastAlg, Collective, ReduceOp,
};
use collsel::mpi::{
    record_schedule, simulate, Comm, Ctx, RecvRequest, SchedOp, Schedule, SendRequest, Tag,
};
use collsel::netsim::{ClusterModel, SimTime};
use collsel::{Tuner, TunerConfig};
use collsel_expt::replay::{step_calls, ReplayPolicy};
use collsel_expt::workload::{canned_dp, canned_pp, TraceGen, TracePreset};
use collsel_support::payload::payload;
use collsel_support::Bytes;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pre-symbolic recorder: a [`Comm`] that logs every operation
/// while delegating to a live [`Ctx`], so the log is what a complete,
/// timed, threaded simulation of the program actually issued.
struct OracleCtx<'a> {
    inner: &'a mut Ctx,
    ops: Vec<SchedOp>,
}

impl OracleCtx<'_> {
    fn wait_all(&mut self, reqs: Vec<u32>) {
        self.ops.push(SchedOp::Wait { reqs });
    }
}

impl Comm for OracleCtx<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest {
        let len = payload.len();
        let req = self.inner.isend(dst, tag, payload);
        self.ops.push(SchedOp::Isend {
            req: req.id(),
            dst,
            tag,
            len,
        });
        req
    }

    fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest {
        let req = self.inner.irecv(src, tag);
        self.ops.push(SchedOp::Irecv {
            req: req.id(),
            src,
            tag,
        });
        req
    }

    fn wait_send(&mut self, req: SendRequest) {
        self.wait_all(vec![req.id()]);
        self.inner.wait_send(req);
    }

    fn wait_recv(&mut self, req: RecvRequest) -> Bytes {
        self.wait_all(vec![req.id()]);
        self.inner.wait_recv(req)
    }

    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) {
        if !reqs.is_empty() {
            self.wait_all(reqs.iter().map(SendRequest::id).collect());
        }
        self.inner.wait_all_sends(reqs);
    }

    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<Bytes> {
        if !reqs.is_empty() {
            self.wait_all(reqs.iter().map(RecvRequest::id).collect());
        }
        self.inner.wait_all_recvs(reqs)
    }

    fn barrier(&mut self) {
        self.ops.push(SchedOp::Barrier);
        self.inner.barrier();
    }

    fn wtime(&mut self) -> SimTime {
        self.ops.push(SchedOp::Wtime);
        self.inner.wtime()
    }
}

/// What the threaded simulation of `program` issues, per rank.
fn oracle_shape(
    cluster: &ClusterModel,
    ranks: usize,
    program: impl Fn(&mut OracleCtx<'_>) + Sync,
) -> Vec<Vec<SchedOp>> {
    simulate(cluster, ranks, 0, |ctx| {
        let mut oracle = OracleCtx {
            inner: ctx,
            ops: Vec::new(),
        };
        program(&mut oracle);
        oracle.ops
    })
    .expect("the oracle run completes")
    .results
}

fn assert_same(sched: &Schedule, oracle: &[Vec<SchedOp>], what: &str) {
    let shape = sched.shape();
    assert_eq!(shape.len(), oracle.len(), "{what}: rank count");
    for (rank, (got, want)) in shape.iter().zip(oracle).enumerate() {
        if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            panic!(
                "{what}: rank {rank} op {i}: recorded {:?}, oracle issued {:?}",
                got.get(i),
                want.get(i)
            );
        }
    }
}

/// `barrier; wtime; body; barrier; wtime`, `reps` times: the frame of
/// `compile_timed_collective`.
fn timed<C: Comm>(ctx: &mut C, reps: usize, body: impl Fn(&mut C)) {
    for _ in 0..reps {
        ctx.barrier();
        let _ = ctx.wtime();
        body(ctx);
        ctx.barrier();
        let _ = ctx.wtime();
    }
}

fn all_algorithms() -> Vec<Alg> {
    let algs: Vec<Alg> = Collective::ALL
        .iter()
        .flat_map(|c| c.algorithms().iter().copied())
        .collect();
    assert_eq!(algs.len(), 23);
    algs
}

#[test]
fn every_algorithm_records_what_the_threaded_oracle_issues() {
    let cluster = ClusterModel::gros();
    for alg in all_algorithms() {
        for p in [2, 3, 5, 8, 13] {
            for m in [1024, 40_000, 512 * 1024] {
                for seg in [8 * 1024, 64 * 1024] {
                    let sched = compile_timed_collective(&cluster, alg, p, 0, m, seg, 1)
                        .expect("collectives record");
                    let oracle = oracle_shape(&cluster, p, |oc| {
                        timed(oc, 1, |oc| run_collective(oc, alg, 0, m, seg));
                    });
                    assert_same(&sched, &oracle, &format!("{alg:?} P={p} m={m} seg={seg}"));
                }
            }
        }
    }
}

#[test]
fn the_timed_programs_record_what_the_threaded_oracle_issues() {
    let cluster = ClusterModel::grisou();
    let (p, root, m, m_g, seg, reps) = (7, 0, 40_000, 1024, 8 * 1024, 3);
    let msg = payload(m);
    let contrib = payload(m_g);

    for alg in BcastAlg::ALL {
        let sched = compile_timed_collective(&cluster, Alg::Bcast(alg), p, root, m, seg, reps)
            .expect("records");
        let oracle = oracle_shape(&cluster, p, |oc| {
            timed(oc, reps, |oc| {
                let data = (oc.rank() == root).then(|| msg.clone());
                bcast(oc, alg, root, data, m, seg);
            });
        });
        assert_same(&sched, &oracle, &format!("timed bcast {alg:?}"));

        let sched =
            compile_timed_bcast_gather(&cluster, alg, p, root, m, m_g, seg, reps).expect("records");
        let oracle = oracle_shape(&cluster, p, |oc| {
            for _ in 0..reps {
                oc.barrier();
                let _ = oc.wtime();
                let data = (oc.rank() == root).then(|| msg.clone());
                let _ = bcast(oc, alg, root, data, m, seg);
                let _ = gather_linear(oc, root, contrib.clone());
                let _ = oc.wtime();
            }
        });
        assert_same(&sched, &oracle, &format!("timed bcast+gather {alg:?}"));
    }

    let alg = Alg::Reduce(collsel::coll::ReduceAlg::Pipeline);
    let sched = compile_timed_collective(&cluster, alg, p, root, m, seg, reps).expect("records");
    let oracle = oracle_shape(&cluster, p, |oc| {
        timed(oc, reps, |oc| run_collective(oc, alg, root, m, seg));
    });
    assert_same(&sched, &oracle, "timed collective");

    // Both sides of the eager threshold: the oracle's rendezvous sends
    // really wait for their receivers, the recorder's never do.
    for m in [1024, 512 * 1024] {
        let sched = TimedProgram::P2p { m }
            .record(&cluster, root, reps)
            .expect("records");
        let msg = payload(m);
        let oracle = oracle_shape(&cluster, 2, |oc| {
            for _ in 0..reps {
                oc.barrier();
                let _ = oc.wtime();
                if oc.rank() == 0 {
                    oc.send(1, 0, msg.clone());
                    let _ = oc.recv(1, 1);
                } else {
                    let data = oc.recv(0, 0);
                    oc.send(0, 1, data);
                }
                let _ = oc.wtime();
            }
        });
        assert_same(&sched, &oracle, &format!("timed p2p m={m}"));
    }

    let calls = 4;
    let sched = compile_timed_linear_segment(&cluster, p, root, seg, calls).expect("records");
    let msg = payload(seg);
    let oracle = oracle_shape(&cluster, p, |oc| {
        oc.barrier();
        let _ = oc.wtime();
        for _ in 0..calls {
            let data = (oc.rank() == root).then(|| msg.clone());
            let _ = bcast_linear(oc, root, data, seg);
            oc.barrier();
        }
        let _ = oc.wtime();
    });
    assert_same(&sched, &oracle, "timed linear segment");
}

#[test]
fn every_canned_trace_step_records_what_the_threaded_oracle_issues() {
    let cluster = ClusterModel::gros();
    for trace in [canned_dp(), canned_pp()] {
        for step in 0..trace.steps.len() {
            let calls = step_calls(&trace, step, &ReplayPolicy::Fixed);
            let sched = compile_step(&cluster, trace.world, &calls).expect("steps record");
            let oracle = oracle_shape(&cluster, trace.world, |oc| run_step(oc, &calls));
            assert_same(&sched, &oracle, &format!("{} step {step}", trace.name));
        }
    }
}

/// `compile_step` composes a step from per-collective templates;
/// recording the whole step through `run_step` (one `GroupComm` per
/// call over the world-sized recording context) is the construction it
/// replaced and stays here as its oracle, on every step of generated
/// traces under every model-free and model-driven policy.
#[test]
fn composed_steps_equal_whole_step_recording_op_for_op() {
    let cluster = ClusterModel::gros();
    let model = Tuner::new(cluster.clone(), TunerConfig::quick(8)).tune_all();
    let selector = model.multi_selector();
    let policies = [
        ReplayPolicy::Fixed,
        ReplayPolicy::Tuned(&selector),
        ReplayPolicy::Worst(&selector),
    ];
    let mut compared = 0;
    for (world, steps) in [(24, 12), (60, 4)] {
        for preset in [TracePreset::DataParallel, TracePreset::Pipeline] {
            let trace = TraceGen {
                preset,
                world,
                steps,
                seed: 42,
            }
            .generate();
            for policy in &policies {
                for step in 0..trace.steps.len() {
                    let calls = step_calls(&trace, step, policy);
                    let composed = compile_step(&cluster, world, &calls).expect("step composes");
                    let whole = record_schedule(&cluster, world, |rc| run_step(rc, &calls))
                        .expect("step records");
                    assert_eq!(
                        composed.shape(),
                        whole.shape(),
                        "{} at world {world}, {} policy, step {step}",
                        trace.name,
                        policy.name()
                    );
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 2 * 3 * (12 + 4));
}

#[test]
fn recording_k_repetitions_equals_tiling_one() {
    let cluster = ClusterModel::gros();
    let (p, m, seg) = (6, 40_000, 8 * 1024);
    for alg in all_algorithms() {
        let one = record_schedule(&cluster, p, |rc| {
            timed(rc, 1, |rc| run_collective(rc, alg, 0, m, seg));
        })
        .expect("records");
        for k in [2, 3, 5] {
            let looped = record_schedule(&cluster, p, |rc| {
                timed(rc, k, |rc| run_collective(rc, alg, 0, m, seg));
            })
            .expect("records");
            assert_eq!(
                looped.shape(),
                one.repeated(k).shape(),
                "{alg:?}: {k} repetitions"
            );
        }
    }
}

/// Re-execution must stay cheap at the largest world the presets
/// allow. A sweep runs the closure of every unfinished rank whose
/// awaited send has been posted since it stopped (a rank still waiting
/// for the same unposted message is carried over without a run), so
/// the closure runs count the work; they are deterministic, and the
/// bounds below are the counts when this was written.
#[test]
fn recording_at_the_gros_maximum_stays_within_a_sweep_bound() {
    let cluster = ClusterModel::gros();
    let p = cluster.max_ranks();
    assert_eq!(p, 124);

    // Ring: in the first sweep rank r gets through r of its P-1 steps
    // before its left neighbour runs dry (rank 0 through all of them:
    // its left neighbour P-1 sends before it waits); the second sweep
    // finishes everyone else.
    const RING_RUNS: usize = 2 * 124 - 1;
    // Recursive doubling: the 64 participating ranks run six exchange
    // rounds, and a rank passes round k only once its partner has been
    // run up to round k — granted to the higher rank of a pair in the
    // same ascending sweep and to the lower one a sweep later. One
    // sweep per round over all ranks would be 744 runs (a blow-up would
    // be one sweep per rank); re-running only ranks whose message has
    // arrived since took the 564 of the always-re-run sweep to 376.
    const DOUBLING_RUNS: usize = 376;

    let runs = AtomicUsize::new(0);
    let sched = record_schedule(&cluster, p, |rc| {
        runs.fetch_add(1, Ordering::Relaxed);
        allgather_ring(rc, payload(1024));
    })
    .expect("ring allgather records");
    assert_eq!(sched.ranks(), p);
    let ring_runs = runs.swap(0, Ordering::Relaxed);
    assert!(
        ring_runs <= RING_RUNS,
        "ring allgather: {ring_runs} closure runs for {p} ranks"
    );

    let sched = record_schedule(&cluster, p, |rc| {
        runs.fetch_add(1, Ordering::Relaxed);
        allreduce_recursive_doubling(rc, ReduceOp::Sum, payload(1024));
    })
    .expect("recursive-doubling allreduce records");
    assert_eq!(sched.ranks(), p);
    let doubling_runs = runs.load(Ordering::Relaxed);
    assert!(
        doubling_runs <= DOUBLING_RUNS,
        "recursive-doubling allreduce: {doubling_runs} closure runs for {p} ranks"
    );
}
