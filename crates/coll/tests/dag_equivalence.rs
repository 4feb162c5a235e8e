//! Differential suite for the two execution tiers: for every
//! collective the repo tunes, recording the program, lowering the
//! [`Schedule`](collsel_mpi::Schedule) to a [`TimingDag`] and
//! evaluating it payload-free must be *bit-identical* to running the
//! same program on the thread-per-rank engine — same finish times,
//! makespan, traffic counters, traces, `wtime` observations and
//! [`SimError`] values — across grid and off-grid geometries, under
//! fault plans, under the virtual-time watchdog, and regardless of the
//! host thread budget.

use collsel_coll::compile::{compile_bcast, TimedProgram};
use collsel_coll::{bcast, Alg, BcastAlg, Collective};
use collsel_mpi::{
    simulate_with, Comm, Ctx, DagEvaluator, ScheduledRun, SimError, SimOptions, TimingDag,
};
use collsel_netsim::{Brownout, ClusterModel, FaultPlan, SimSpan, SimTime};
use collsel_support::Bytes;
use std::sync::Arc;

const ROOT: usize = 0;
const SEG: usize = 1024;
const REPS: usize = 2;

const TRACED: SimOptions = SimOptions {
    traced: true,
    deadline: None,
};

/// A program both tiers can run.
#[derive(Debug, Clone, Copy)]
enum Program {
    /// `REPS` rounds of the timed measurement program: the text the
    /// threaded tier runs is the text the recorder ran.
    Timed(TimedProgram),
    /// One untimed broadcast at an 8 KiB segment; the threaded side
    /// sends real bytes where the recording held lengths.
    Bcast { alg: BcastAlg, p: usize, m: usize },
}

const BCAST_SEG: usize = 8 * 1024;

impl Program {
    fn timed(alg: Alg, p: usize, m: usize) -> Program {
        Program::Timed(TimedProgram::Collective {
            alg,
            p,
            m,
            seg_size: SEG,
        })
    }

    fn ranks(&self) -> usize {
        match self {
            Program::Timed(program) => program.ranks(),
            Program::Bcast { p, .. } => *p,
        }
    }

    /// Records the program and lowers it to a timing DAG.
    fn compile(&self, cluster: &ClusterModel) -> Arc<TimingDag> {
        let sched = match *self {
            Program::Timed(program) => program.record(cluster, ROOT, REPS),
            Program::Bcast { alg, p, m } => compile_bcast(cluster, alg, p, ROOT, m, BCAST_SEG),
        }
        .unwrap_or_else(|e| panic!("{self:?}: recording failed: {e}"));
        Arc::new(TimingDag::compile(cluster, &sched).expect("compiles"))
    }

    /// The rank body of the threaded side; returns the rank's clock
    /// reads in program order.
    fn run(&self, ctx: &mut Ctx) -> Vec<SimTime> {
        match *self {
            Program::Timed(program) => (0..REPS)
                .flat_map(|_| <[SimTime; 2]>::from(program.round(ctx, ROOT)))
                .collect(),
            Program::Bcast { alg, m, .. } => {
                let data = (ctx.rank() == ROOT)
                    .then(|| Bytes::from((0..m).map(|i| (i % 251) as u8).collect::<Vec<u8>>()));
                bcast(ctx, alg, ROOT, data, m, BCAST_SEG);
                Vec::new()
            }
        }
    }
}

/// Runs `program` on rank threads and evaluates `dag` (its compiled
/// recording) under the same cluster, seed and options, and requires
/// the same outcome: full structural equality of the report (finish
/// times, makespan, message/byte counters, trace) and of every rank's
/// clock observations, or equal error values. Returns that outcome.
fn check(
    what: &str,
    cluster: &ClusterModel,
    program: Program,
    dag: &Arc<TimingDag>,
    seed: u64,
    opts: SimOptions,
) -> Result<ScheduledRun, SimError> {
    let what = format!("{what}: {program:?} on {} seed={seed}", cluster.name());
    let oracle = simulate_with(cluster, program.ranks(), seed, opts, |ctx| program.run(ctx));
    let fast = DagEvaluator::new(cluster, Arc::clone(dag)).run(seed, opts);
    match (&oracle, &fast) {
        (Ok(oracle), Ok(fast)) => {
            assert_eq!(oracle.report, fast.report, "{what}: reports diverged");
            assert_eq!(oracle.results, fast.wtimes, "{what}: wtimes diverged");
        }
        (Err(oracle), Err(fast)) => assert_eq!(oracle, fast, "{what}: error values diverged"),
        _ => panic!("{what}: tiers disagree on the outcome: threads {oracle:?} vs dag {fast:?}"),
    }
    fast
}

/// [`check`] on a fault-free cluster at each seed; every run completes.
fn check_cell(cluster: &ClusterModel, program: Program, seeds: &[u64]) {
    let dag = program.compile(cluster);
    for &seed in seeds {
        check("grid", cluster, program, &dag, seed, TRACED).expect("completes");
    }
}

#[test]
fn every_algorithm_bit_identical_on_grid_cells() {
    let cluster = ClusterModel::grisou();
    for coll in Collective::ALL {
        for &alg in coll.algorithms() {
            // A power-of-two and a non-power-of-two process count, one
            // eager and one rendezvous-sized message each.
            for (p, m) in [(8, 4 * 1024), (8, 128 * 1024), (6, 4 * 1024)] {
                check_cell(&cluster, Program::timed(alg, p, m), &[0, 42]);
            }
        }
    }
    // Real payload bytes against recorded lengths: both presets (noise
    // ON), all six broadcast algorithms.
    for cluster in [ClusterModel::grisou(), ClusterModel::gros()] {
        for alg in BcastAlg::ALL {
            for p in [4usize, 9, 16] {
                for m in [1024usize, 256 * 1024] {
                    check_cell(&cluster, Program::Bcast { alg, p, m }, &[1, 42]);
                }
            }
        }
    }
}

#[test]
fn off_grid_cells_bit_identical() {
    // Geometries a tuning grid would never sample directly: prime
    // process counts and ragged message sizes that do not divide into
    // segments or ranks evenly.
    let cluster = ClusterModel::gros();
    for coll in Collective::ALL {
        let alg = coll.algorithms()[0];
        for (p, m) in [(5, 3000), (7, 999), (13, 10_000)] {
            check_cell(&cluster, Program::timed(alg, p, m), &[7]);
        }
    }
}

#[test]
fn fault_plans_bit_identical() {
    // Faults are an evaluation-time property of the cluster, not of the
    // schedule: one recording, made on the fault-free cluster, must
    // evaluate as the threaded engine runs under degraded links,
    // stragglers and bandwidth brown-outs.
    let base = ClusterModel::gros();
    let algs = [
        Collective::Bcast.algorithms()[5],     // binomial bcast
        Collective::Allreduce.algorithms()[1], // recursive doubling
        Collective::Alltoall.algorithms()[1],  // pairwise
    ];
    for alg in algs {
        let program = Program::timed(alg, 9, 64 * 1024);
        let dag = program.compile(&base);
        for spec in ["degraded-link:3", "straggler:11", "brownout:5"] {
            let plan = FaultPlan::parse(spec, base.nodes()).expect("canned fault plan");
            let faulted = base.clone().with_faults(plan);
            for seed in [1u64, 0xFEED] {
                check(spec, &faulted, program, &dag, seed, SimOptions::default())
                    .expect("completes");
            }
        }
    }

    // Hand-built plans on both presets, one broadcast algorithm each
    // (the fault machinery is algorithm-independent).
    for base in [ClusterModel::grisou(), ClusterModel::gros()] {
        let plans = [
            (
                "straggler",
                BcastAlg::Binomial,
                FaultPlan::none()
                    .with_straggler(1, 7.5)
                    .with_straggler(3, 2.0),
            ),
            (
                "degraded-link",
                BcastAlg::Chain,
                FaultPlan::none().with_degraded_link(0, 1, 5.0),
            ),
            (
                "brown-out",
                BcastAlg::SplitBinary,
                FaultPlan::none().with_brownout(Brownout {
                    node: 0,
                    start: SimTime::ZERO + SimSpan::from_micros(10),
                    end: SimTime::ZERO + SimSpan::from_millis(400),
                    slowdown: 9.0,
                }),
            ),
        ];
        for (label, alg, plan) in plans {
            let program = Program::Bcast {
                alg,
                p: 8,
                m: 64 * 1024,
            };
            let dag = program.compile(&base);
            let faulted = base.clone().with_faults(plan);
            for seed in [5u64, 77] {
                check(label, &faulted, program, &dag, seed, TRACED).expect("completes");
            }
        }
    }
}

#[test]
fn watchdog_agreement_on_trip_and_pass() {
    let grisou = ClusterModel::grisou();
    let gros = ClusterModel::gros();
    let brownout = gros
        .clone()
        .with_faults(FaultPlan::none().with_brownout(Brownout {
            node: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimSpan::from_secs_f64(1000.0),
            slowdown: 50.0,
        }));
    let ring = Program::timed(Collective::Allgather.algorithms()[0], 8, 32 * 1024);
    let binomial = Program::Bcast {
        alg: BcastAlg::Binomial,
        p: 8,
        m: 128 * 1024,
    };
    // A deadline no run can meet, or one a brown-out stretches the run
    // past: both tiers must abort with the *same* timeout error value
    // (same virtual time, same detail). A generous deadline: both
    // pass, still bit-identical.
    for (label, program, recorded_on, cluster, deadline, trips) in [
        (
            "tight",
            ring,
            &grisou,
            &grisou,
            SimSpan::from_nanos(50),
            true,
        ),
        (
            "loose",
            ring,
            &grisou,
            &grisou,
            SimSpan::from_secs_f64(3600.0),
            false,
        ),
        (
            "hopeless",
            binomial,
            &gros,
            &gros,
            SimSpan::from_nanos(1),
            true,
        ),
        (
            "brown-out past budget",
            binomial,
            &gros,
            &brownout,
            SimSpan::from_micros(200),
            true,
        ),
        (
            "ample",
            binomial,
            &gros,
            &gros,
            SimSpan::from_secs_f64(1000.0),
            false,
        ),
        (
            "ample, brown-out",
            binomial,
            &gros,
            &brownout,
            SimSpan::from_secs_f64(100_000.0),
            false,
        ),
    ] {
        let dag = program.compile(recorded_on);
        let opts = SimOptions::with_deadline(deadline);
        for seed in [0u64, 9, 13] {
            match check(label, cluster, program, &dag, seed, opts) {
                Err(SimError::Timeout { .. }) if trips => {}
                Ok(_) if !trips => {}
                other => panic!("{label} seed={seed}: unexpected outcome {other:?}"),
            }
        }
    }
}

#[test]
fn results_invariant_under_thread_budget() {
    // `COLLSEL_THREADS` (and the programmatic override backing it)
    // sizes the host-side worker pool used for batch parallelism.
    // Neither recording nor evaluation may let that budget leak into
    // virtual time: the whole record → compile → run pipeline must
    // produce byte-identical results at any setting.
    let cluster = ClusterModel::grisou();
    let alg = Collective::Reduce.algorithms()[5]; // binomial
    let mut baseline: Option<(ScheduledRun, Vec<ScheduledRun>)> = None;
    for threads in [1usize, 2, 4] {
        collsel_support::pool::set_thread_override(threads);
        let run = run_pipeline(&cluster, alg);
        collsel_support::pool::clear_thread_override();
        match &baseline {
            None => baseline = Some(run),
            Some((single, reps)) => {
                assert_identical(&format!("threads={threads} single run"), single, &run.0);
                assert_eq!(reps.len(), run.1.len());
                for (i, (a, b)) in reps.iter().zip(&run.1).enumerate() {
                    assert_identical(&format!("threads={threads} rep {i}"), a, b);
                }
            }
        }
    }
}

fn assert_identical(what: &str, a: &ScheduledRun, b: &ScheduledRun) {
    assert_eq!(a.report, b.report, "{what}: reports diverged");
    assert_eq!(a.wtimes, b.wtimes, "{what}: wtimes diverged");
}

/// Records, compiles and evaluates one cell: a single threads-vs-dag
/// checked run plus a batched [`DagEvaluator::evaluate_reps`] sweep.
fn run_pipeline(cluster: &ClusterModel, alg: Alg) -> (ScheduledRun, Vec<ScheduledRun>) {
    let program = Program::timed(alg, 8, 16 * 1024);
    let dag = program.compile(cluster);
    let fast =
        check("pipeline", cluster, program, &dag, 5, SimOptions::default()).expect("completes");
    let reps = DagEvaluator::new(cluster, dag)
        .evaluate_reps(100, 4, SimOptions::default())
        .expect("batch completes");
    (fast, reps)
}
