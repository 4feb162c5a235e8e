//! Persistent rank-worker team: reuse OS threads across simulations.
//!
//! [`simulate`](crate::simulate) spawns (and joins) one scoped thread
//! per rank on every call. For a single run that cost is noise; a tuning
//! campaign issues tens of thousands of short runs, and the spawn/join
//! round-trips plus their stack allocations become a measurable slice of
//! wall-clock. [`simulate_pooled`] removes it: each *caller* OS thread
//! lazily grows a private team of detached rank workers (thread-local,
//! so concurrent campaign jobs never share a team or contend on it) and
//! re-dispatches rank bodies onto them run after run.
//!
//! The price is tighter bounds: the rank closure must be `Send + Sync +
//! 'static` because it travels to long-lived threads, where the scoped
//! variant lets it borrow from the caller's stack. Results are
//! bit-identical between the two paths — they share the engine, the
//! fabric seeding and the rank bodies; only thread reuse differs.

use crate::ctx::Ctx;
use crate::error::SimError;
use crate::proto::RankMsg;
use crate::sim::{
    assemble_outcome, build_fabric, check_ranks, run_rank_body, stash_scratch, take_scratch,
    SimOptions, SimOutcome,
};
use collsel_netsim::{ClusterModel, SimTime};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};

/// A unit of work shipped to a rank worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A lazily grown set of detached worker threads, one per rank slot.
struct Team {
    workers: Vec<Sender<Job>>,
}

impl Team {
    const fn new() -> Team {
        Team {
            workers: Vec::new(),
        }
    }

    /// Grows the team to at least `n` workers.
    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (tx, rx) = mpsc::channel::<Job>();
            let slot = self.workers.len();
            std::thread::Builder::new()
                .name(format!("collsel-rank-{slot}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A rank body already catches its own panics;
                        // this outer catch keeps the worker alive even
                        // if job plumbing itself unwinds.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("failed to spawn rank worker thread");
            self.workers.push(tx);
        }
    }

    fn submit(&self, slot: usize, job: Job) {
        self.workers[slot]
            .send(job)
            .expect("rank worker thread died");
    }

    /// Drops workers beyond `cap` so a one-off oversized run doesn't pin
    /// its threads for the rest of a campaign. Dropping a sender lets
    /// the worker finish its current job and exit its receive loop.
    fn shrink_to(&mut self, cap: usize) {
        self.workers.truncate(cap);
        self.workers.shrink_to(cap);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.workers.len()
    }
}

thread_local! {
    /// Each caller OS thread owns its team, so concurrent campaign jobs
    /// (e.g. from `collsel_support::pool`) never contend on workers.
    static TEAM: RefCell<Team> = const { RefCell::new(Team::new()) };
}

/// Like [`simulate_with`](crate::simulate_with), but dispatches ranks
/// onto a persistent per-caller-thread worker team instead of spawning
/// `ranks` fresh OS threads per call.
///
/// This is the campaign hot path: across tens of thousands of short
/// simulations, thread reuse removes the per-run spawn/join cost. The
/// rank closure needs `Send + Sync + 'static` (it is shared with
/// long-lived workers); use [`simulate`](crate::simulate) when it must
/// borrow from the caller's stack. Given the same cluster, seed and
/// program, the outcome is bit-identical to the scoped variant.
///
/// # Errors
///
/// Same as [`simulate_with`](crate::simulate_with).
///
/// # Panics
///
/// Same as [`simulate`](crate::simulate).
pub fn simulate_pooled<T, F>(
    cluster: &ClusterModel,
    ranks: usize,
    seed: u64,
    opts: SimOptions,
    f: F,
) -> Result<SimOutcome<T>, SimError>
where
    F: Fn(&mut Ctx) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    check_ranks(cluster, ranks);
    let fabric = build_fabric(cluster, seed, opts);
    let (to_engine, from_ranks) = mpsc::channel::<RankMsg>();
    let mut resume_txs = Vec::with_capacity(ranks);
    let mut resume_rxs = Vec::with_capacity(ranks);
    for _ in 0..ranks {
        let (tx, rx) = mpsc::channel();
        resume_txs.push(tx);
        resume_rxs.push(rx);
    }

    let f = Arc::new(f);
    let results: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..ranks).map(|_| None).collect()));
    let deadline = opts.deadline.map(|d| SimTime::ZERO + d);
    let transport = crate::engine::ChannelTransport {
        from_ranks,
        resume_tx: resume_txs,
    };
    let engine = crate::engine::Engine::new(fabric, ranks, transport, deadline, take_scratch());

    // One latch message per rank marks its job (not just its simulated
    // program) as finished, so `results` is complete before we read it.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    TEAM.with(|team| {
        let mut team = team.borrow_mut();
        team.ensure(ranks);
        for (rank, resume_rx) in resume_rxs.into_iter().enumerate() {
            let to_engine = to_engine.clone();
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let done = done_tx.clone();
            team.submit(
                rank,
                Box::new(move || {
                    run_rank_body(rank, ranks, to_engine, resume_rx, &results, |ctx| f(ctx));
                    // Release our handles before signalling: the caller
                    // unwraps `results` as soon as every latch fires.
                    drop(results);
                    drop(f);
                    let _ = done.send(());
                }),
            );
        }
        // Cap the persistent team: workers beyond the cap still run the
        // job queued above (dropping a sender lets them drain first),
        // but don't survive into the rest of the campaign.
        team.shrink_to(crate::engine::RECYCLE_RANK_CAP);
    });
    drop(to_engine);
    drop(done_tx);

    // The engine runs on the caller thread. On error it aborts all
    // blocked ranks, whose workers then finish their jobs; either way
    // every job signals (or drops) its latch, so this cannot hang.
    let (engine_result, scratch) = engine.run();
    stash_scratch(scratch);
    let mut remaining = ranks;
    while remaining > 0 {
        match done_rx.recv() {
            Ok(()) => remaining -= 1,
            Err(_) => break, // all latch senders dropped: every job ended
        }
    }

    let report = engine_result?;
    let results = Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("a rank job still holds the results"))
        .into_inner()
        .expect("a rank panicked while holding the results lock");
    Ok(assemble_outcome(report, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_support::Bytes;

    fn ring_program(ctx: &mut Ctx) -> u64 {
        let p = ctx.size();
        let next = (ctx.rank() + 1) % p;
        let prev = (ctx.rank() + p - 1) % p;
        ctx.send(next, 0, Bytes::from(vec![ctx.rank() as u8; 2048]));
        let (data, _) = ctx.recv(prev, 0);
        data.len() as u64 + ctx.wtime().as_nanos()
    }

    #[test]
    fn pooled_matches_scoped_bit_for_bit() {
        let cluster = ClusterModel::gros();
        for seed in [1u64, 42, 1009] {
            let scoped =
                crate::simulate(&cluster, 8, seed, ring_program).expect("scoped run succeeds");
            let pooled = simulate_pooled(&cluster, 8, seed, SimOptions::default(), ring_program)
                .expect("pooled run succeeds");
            assert_eq!(scoped.results, pooled.results);
            assert_eq!(scoped.report.finish_times, pooled.report.finish_times);
            assert_eq!(scoped.report.makespan, pooled.report.makespan);
            assert_eq!(scoped.report.messages, pooled.report.messages);
            assert_eq!(scoped.report.bytes, pooled.report.bytes);
        }
    }

    #[test]
    fn pooled_runs_back_to_back_reusing_workers() {
        let cluster = ClusterModel::gros();
        let first = simulate_pooled(&cluster, 4, 7, SimOptions::default(), ring_program)
            .expect("first run");
        for _ in 0..10 {
            let again = simulate_pooled(&cluster, 4, 7, SimOptions::default(), ring_program)
                .expect("repeat run");
            assert_eq!(first.report.makespan, again.report.makespan);
        }
    }

    #[test]
    fn pooled_surfaces_rank_panics() {
        let cluster = ClusterModel::gros();
        let err = simulate_pooled(&cluster, 4, 3, SimOptions::default(), |ctx: &mut Ctx| {
            assert!(ctx.rank() != 2, "rank 2 exploded");
            ctx.barrier();
        })
        .expect_err("rank panic must surface");
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("rank 2 exploded"));
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
        // The team survives a panicked run and keeps working.
        let ok = simulate_pooled(&cluster, 4, 3, SimOptions::default(), ring_program)
            .expect("team still healthy");
        assert_eq!(ok.results.len(), 4);
    }

    #[test]
    fn team_is_capped_after_an_oversized_run() {
        use crate::engine::RECYCLE_RANK_CAP;
        // A dedicated OS thread keeps this test's thread-local team
        // isolated from the other tests on the harness threads.
        std::thread::spawn(|| {
            let big = ClusterModel::builder("big", RECYCLE_RANK_CAP + 44).build();
            let p = RECYCLE_RANK_CAP + 44;
            let out = simulate_pooled(&big, p, 5, SimOptions::default(), |ctx: &mut Ctx| {
                ctx.barrier();
                ctx.rank()
            })
            .expect("oversized run succeeds");
            assert_eq!(out.results.len(), p);
            TEAM.with(|team| {
                assert!(
                    team.borrow().len() <= RECYCLE_RANK_CAP,
                    "one oversized run must not pin workers past the cap"
                );
            });
            // Back under the cap, the team still works.
            let ok = simulate_pooled(&big, 4, 5, SimOptions::default(), ring_program)
                .expect("small follow-up run");
            assert_eq!(ok.results.len(), 4);
        })
        .join()
        .expect("capped-team test thread");
    }

    #[test]
    fn pooled_surfaces_deadlocks() {
        let cluster = ClusterModel::gros();
        let err = simulate_pooled(&cluster, 2, 1, SimOptions::default(), |ctx: &mut Ctx| {
            // Both ranks receive, nobody sends.
            let _ = ctx.recv(crate::Peer::Any, 0);
        })
        .expect_err("deadlock must surface");
        assert!(matches!(err, SimError::Deadlock { .. }));
    }
}
