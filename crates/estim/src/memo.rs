//! Process-wide memo for compiled measurement cells, with the cache
//! effectiveness counters campaign accounting surfaces.
//!
//! On the timing-DAG backend a measurement cell costs three phases:
//! record the program (symbolically, on the calling thread: no rank
//! threads, no fabric), lower the schedule to a [`TimingDag`], then
//! evaluate repetitions. The first two are a pure function of the
//! cell identity — the program shape ([`CellProgram`]), the
//! repetitions per batch and the cluster's eager threshold (the only
//! cluster property that reaches the compiled artifact; schedules
//! themselves are cluster-independent).
//! Tuning campaigns and `DecisionServer` refits re-measure the same
//! grid cells across batches, retries and generations, so the DAG for
//! each cell is compiled once here and shared (`Arc`) afterwards.
//!
//! [`memo_counters`] snapshots the hit/miss counters of this cache
//! *and* of the shared payload store
//! ([`collsel_support::payload`]); `colltune` attaches the
//! campaign-phase delta to its coverage accounting JSON.

use collsel_coll::compile::GroupCall;
use collsel_coll::{Alg, BcastAlg};
use collsel_mpi::{RecordError, Schedule, TimingDag};
use collsel_netsim::ClusterModel;
use collsel_support::payload::payload_counters;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The identity of one measurement cell's recorded program — every
/// parameter that can change the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CellProgram {
    /// [`crate::measure::bcast_time`]'s timed broadcast.
    Bcast {
        alg: BcastAlg,
        p: usize,
        m: usize,
        seg_size: usize,
    },
    /// [`collective_time`](crate::measure::collective_time)'s timed
    /// collective (the tag carries which collective).
    Collective {
        alg: Alg,
        p: usize,
        m: usize,
        seg_size: usize,
    },
    /// The Sect. 4.2 broadcast + linear-gather experiment.
    BcastGather {
        alg: BcastAlg,
        p: usize,
        m: usize,
        m_g: usize,
        seg_size: usize,
    },
    /// The Sect. 4.1 repeated linear-segment broadcast.
    LinearSegment {
        p: usize,
        seg_size: usize,
        calls: usize,
    },
    /// The Hockney round-trip between ranks 0 and 1.
    P2p { m: usize },
}

/// Full cache key: the program, the repetitions baked into the
/// recording, and the eager threshold the edges were classified
/// against.
type DagKey = (CellProgram, usize, usize);

/// Entry cap. Compiled DAGs hold the full flattened op stream
/// (`reps × P × ops`), so the cache is bounded by entry count rather
/// than evicted: a campaign grid wider than this keeps its first
/// `DAG_CACHE_CAP` cells cached and recompiles the rest (visible as
/// misses in [`memo_counters`]).
const DAG_CACHE_CAP: usize = 256;

static CACHE: OnceLock<Mutex<HashMap<DagKey, Arc<TimingDag>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Locks a memo map, propagating recorder panics: a poisoned cache
/// means a recording thread died mid-insert, and serving from it could
/// hand out a half-built artifact.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("memo cache lock (a recorder panicked)")
}

/// A recorded cell after DAG lowering was attempted: either the
/// compiled artifact, or — when the schedule overflows the DAG's index
/// space ([`collsel_mpi::CompileError::TooLarge`]) — the schedule
/// itself so the caller can fall back to the events backend without
/// re-recording.
#[derive(Debug)]
pub(crate) enum DagCell {
    /// Lowering succeeded; evaluate with the DAG tier.
    Compiled(Arc<TimingDag>),
    /// The schedule is too large to compile; replay it with
    /// [`collsel_mpi::simulate_scheduled`] instead.
    TooLarge(Schedule),
}

/// Returns the compiled timing DAG for a measurement cell, recording
/// and lowering it on a miss (`None` if recording fails — impossible
/// for the wildcard-free measurement programs, but the contract is
/// kept open like the backend dispatch it serves). A schedule too
/// large for the DAG's index space comes back as
/// [`DagCell::TooLarge`]; such cells are never cached (they would dwarf
/// the cache, and the events fallback re-records per call anyway).
///
/// Of `cluster`, recording reads the rank capacity and lowering the
/// eager threshold (part of the key), so a faulted cluster shares its
/// pristine twin's entry and needs no fault-free copy.
pub(crate) fn compiled_dag(
    cluster: &ClusterModel,
    program: CellProgram,
    reps: usize,
    compile: impl FnOnce(&ClusterModel, usize) -> Result<Schedule, RecordError>,
) -> Option<DagCell> {
    let key = (program, reps, cluster.eager_threshold());
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(dag) = locked(cache).get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Some(DagCell::Compiled(Arc::clone(dag)));
    }
    // Record and compile outside the lock — recording executes every
    // rank's program, far too slow to serialise globally. Two threads
    // racing on one cell both compile the same (deterministic) DAG;
    // the loser's insert is a no-op overwrite with an equal value.
    MISSES.fetch_add(1, Ordering::Relaxed);
    let sched = compile(cluster, reps).ok()?;
    let dag = match TimingDag::compile(cluster, &sched) {
        Ok(dag) => Arc::new(dag),
        Err(collsel_mpi::CompileError::TooLarge { .. }) => {
            return Some(DagCell::TooLarge(sched));
        }
    };
    let mut cache = locked(cache);
    if cache.len() < DAG_CACHE_CAP || cache.contains_key(&key) {
        cache.insert(key, Arc::clone(&dag));
    }
    Some(DagCell::Compiled(dag))
}

/// The identity of one replay step's recorded program: the world size
/// plus every group call (algorithm, exact member ranks, message size,
/// segment size) in issue order. Two trace steps with equal cells
/// replay the same schedule, whatever their position in the trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepCell {
    /// Global communicator size the step was recorded at.
    pub world: usize,
    /// Per call: `(alg, group ranks, message size, segment size)`.
    pub calls: Vec<(Alg, Vec<usize>, usize, usize)>,
}

/// A replay step after DAG lowering was attempted — the public twin of
/// the measurement tier's cell artifact (see [`compiled_step_dag`]).
#[derive(Debug, Clone)]
pub enum StepDag {
    /// Lowering succeeded; evaluate with [`collsel_mpi::DagEvaluator`].
    Compiled(Arc<TimingDag>),
    /// Schedule too large for the DAG index space; replay with
    /// [`collsel_mpi::simulate_scheduled`].
    TooLarge(Arc<Schedule>),
}

type StepKey = (StepCell, usize);

static STEP_CACHE: OnceLock<Mutex<HashMap<StepKey, StepDag>>> = OnceLock::new();

/// Builds the [`StepCell`] key for a resolved list of group calls.
pub fn step_cell(world: usize, calls: &[GroupCall]) -> StepCell {
    StepCell {
        world,
        calls: calls
            .iter()
            .map(|c| (c.alg, c.ranks.clone(), c.m, c.seg_size))
            .collect(),
    }
}

/// Returns the compiled timing DAG (or, for schedules beyond the DAG
/// index space, the recorded schedule) for one replay step, recording
/// and lowering on a miss. Shares the measurement-cell cache's
/// hit/miss counters ([`memo_counters`]) and entry cap, but lives in
/// its own map: step shapes are keyed by their full group/call
/// geometry, not a [`CellProgram`].
///
/// Of `cluster` only the rank capacity and the eager threshold are
/// read, as for the measurement cells. Returns `None` if recording
/// fails.
pub fn compiled_step_dag(
    cluster: &ClusterModel,
    cell: StepCell,
    compile: impl FnOnce(&ClusterModel) -> Result<Schedule, RecordError>,
) -> Option<StepDag> {
    let key = (cell, cluster.eager_threshold());
    let cache = STEP_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(dag) = locked(cache).get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Some(dag.clone());
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let sched = compile(cluster).ok()?;
    let dag = match TimingDag::compile(cluster, &sched) {
        Ok(dag) => StepDag::Compiled(Arc::new(dag)),
        Err(collsel_mpi::CompileError::TooLarge { .. }) => StepDag::TooLarge(Arc::new(sched)),
    };
    let mut cache = locked(cache);
    if cache.len() < DAG_CACHE_CAP || cache.contains_key(&key) {
        cache.insert(key, dag.clone());
    }
    Some(dag)
}

/// Monotonic process-wide cache counters: the compiled-DAG memo and
/// the shared payload store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoCounters {
    /// Payload-store requests served from cache.
    pub payload_hits: u64,
    /// Payload-store requests that allocated.
    pub payload_misses: u64,
    /// Measurement cells whose compiled DAG was reused.
    pub dag_hits: u64,
    /// Measurement cells that recorded and compiled.
    pub dag_misses: u64,
}

impl MemoCounters {
    /// Counter-wise difference since an earlier snapshot (for
    /// per-phase accounting of the global monotonic counters).
    #[must_use]
    pub fn since(self, earlier: MemoCounters) -> MemoCounters {
        MemoCounters {
            payload_hits: self.payload_hits - earlier.payload_hits,
            payload_misses: self.payload_misses - earlier.payload_misses,
            dag_hits: self.dag_hits - earlier.dag_hits,
            dag_misses: self.dag_misses - earlier.dag_misses,
        }
    }
}

/// Snapshot of all memo counters since process start.
pub fn memo_counters() -> MemoCounters {
    let payload = payload_counters();
    MemoCounters {
        payload_hits: payload.hits,
        payload_misses: payload.misses,
        dag_hits: HITS.load(Ordering::Relaxed),
        dag_misses: MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_coll::compile::compile_timed_collective;

    #[test]
    fn cell_dag_is_compiled_once_and_shared() {
        let cluster = ClusterModel::gros();
        let alg = Alg::Scatter(collsel_coll::ScatterAlg::Binomial);
        let program = CellProgram::Collective {
            alg,
            p: 4,
            m: 12_345,
            seg_size: 12_345,
        };
        let compile_count = std::cell::Cell::new(0u32);
        let get = || match compiled_dag(&cluster, program, 2, |rec, reps| {
            compile_count.set(compile_count.get() + 1);
            compile_timed_collective(rec, alg, 4, 0, 12_345, 12_345, reps)
        })
        .expect("scatter records cleanly")
        {
            DagCell::Compiled(dag) => dag,
            DagCell::TooLarge(_) => panic!("tiny cell cannot overflow the DAG"),
        };
        let a = get();
        let b = get();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(compile_count.get(), 1, "recording must run exactly once");
        let c = memo_counters();
        assert!(c.dag_hits >= 1 && c.dag_misses >= 1);
    }

    #[test]
    fn step_dag_is_compiled_once_and_shared() {
        let cluster = ClusterModel::gros();
        let calls = vec![GroupCall {
            alg: Alg::Bcast(BcastAlg::Binomial),
            ranks: vec![0, 2, 4, 5],
            m: 8_192,
            seg_size: 8_192,
        }];
        let compile_count = std::cell::Cell::new(0u32);
        let get = || match compiled_step_dag(&cluster, step_cell(6, &calls), |rec| {
            compile_count.set(compile_count.get() + 1);
            collsel_coll::compile::compile_step(rec, 6, &calls)
        }) {
            Some(StepDag::Compiled(dag)) => dag,
            other => panic!("tiny step must record and compile, got {other:?}"),
        };
        let a = get();
        let b = get();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(compile_count.get(), 1, "recording must run exactly once");
    }
}
