//! Process-wide memo for compiled measurement cells, replay steps and
//! collective templates, with the cache effectiveness counters campaign
//! accounting surfaces.
//!
//! On the timing-DAG backend a measurement cell costs three phases:
//! record the program (symbolically, on the calling thread: no rank
//! threads, no fabric), lower the schedule to a [`TimingDag`], then
//! evaluate repetitions. The first two are a pure function of the
//! cell identity — the program ([`TimedProgram`]), the repetitions per
//! batch and the cluster's eager threshold (the only cluster property
//! that reaches the compiled artifact; schedules themselves are
//! cluster-independent). Only one round is recorded and lowered: the
//! DAG carries the batch's round count and its evaluator loops the
//! round ([`TimingDag::rounds`]).
//! Tuning campaigns and `DecisionServer` refits re-measure the same
//! grid cells across batches, retries and generations, so the DAG for
//! each cell is compiled once here and shared (`Arc`) afterwards.
//!
//! Three stores live here, each a map behind its own lock, each capped
//! at [`DAG_CACHE_CAP`] entries (a full store keeps what it has and
//! builds the rest per request), each built outside its lock:
//!
//! | store | key | value | counters |
//! |---|---|---|---|
//! | cell DAGs ([`compiled_dag`]) | ([`TimedProgram`], reps, eager threshold) | `Arc<TimingDag>`: one round, looped per batch | `dag_hits` / `dag_misses` |
//! | step DAGs ([`compiled_step_dag`]) | ([`StepCell`]: world + every call's algorithm, member ranks, sizes; eager threshold) | `Arc<TimingDag>` | `dag_hits` / `dag_misses` |
//! | collective templates ([`compile_step_shared`]) | [`TemplateKey`]: (algorithm, group size, message size, segment size) | `Arc<Schedule>` | `template_hits` / `template_misses` |
//!
//! A step DAG is keyed by exactly which ranks run what, so two steps
//! rarely share one; the *collectives* they are made of recur across
//! groups, steps, policies and traces. A step-DAG miss therefore
//! composes its schedule from the template store
//! ([`collsel_coll::compile::compose_step`]) and runs the recorder only
//! for a collective no earlier step has used.
//!
//! [`memo_counters`] snapshots the hit/miss counters of these stores
//! *and* of the shared payload store
//! ([`collsel_support::payload`]); `colltune` attaches the
//! campaign-phase delta to its coverage accounting JSON.

use crate::measure::ROOT;
use collsel_coll::compile::{compile_template, compose_step, GroupCall, TemplateKey, TimedProgram};
use collsel_coll::Alg;
use collsel_mpi::{RecordError, Schedule, TimingDag};
use collsel_netsim::ClusterModel;
use collsel_support::payload::payload_counters;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Full cache key: the program, the repetitions per batch (the DAG's
/// round count), and the eager threshold the edges were classified
/// against.
type DagKey = (TimedProgram, usize, usize);

/// Entry cap of each store. A cell DAG holds one round's op stream
/// (`P × ops` of one repetition) and a step DAG a whole step's, so a
/// store is bounded by entry count rather than evicted: a campaign grid
/// wider than this keeps its first `DAG_CACHE_CAP` cells cached and
/// recompiles the rest (visible as misses in [`memo_counters`]).
const DAG_CACHE_CAP: usize = 256;

/// One memo store: a capped map and its hit/miss counters.
struct Store<K, V> {
    map: OnceLock<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Store<K, V> {
    const fn new() -> Self {
        Store {
            map: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the map, propagating recorder panics: a poisoned cache
    /// means a recording thread died mid-insert, and serving from it
    /// could hand out a half-built artifact.
    fn locked(&self) -> std::sync::MutexGuard<'_, HashMap<K, V>> {
        self.map
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("memo cache lock (a recorder panicked)")
    }

    /// The cached value of `key`, counting the lookup as a hit or a
    /// miss. The caller builds a missing value *outside* the lock —
    /// recording executes every rank's program, far too slow to
    /// serialise globally — and hands it to [`Store::insert`]. Two
    /// threads racing on one key both build the same (deterministic)
    /// value; the loser's insert is a no-op overwrite with an equal one.
    fn get(&self, key: &K) -> Option<V> {
        let found = self.locked().get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Keeps `value` unless the store is full.
    fn insert(&self, key: K, value: V) {
        let mut map = self.locked();
        if map.len() < DAG_CACHE_CAP || map.contains_key(&key) {
            map.insert(key, value);
        }
    }
}

static CELLS: Store<DagKey, Arc<TimingDag>> = Store::new();
static STEPS: Store<StepKey, Arc<TimingDag>> = Store::new();
static TEMPLATES: Store<TemplateKey, Arc<Schedule>> = Store::new();

/// Returns the compiled timing DAG for a measurement cell, recording
/// and lowering it on a miss. `None` means the cell cannot be lowered —
/// recording failed (impossible for the measurement programs, which
/// read no payload, but the contract is kept open) or the schedule overflows
/// the DAG's index space — and the caller runs it on the threaded tier.
///
/// Of `cluster`, recording reads the rank capacity and lowering the
/// eager threshold (part of the key), so a faulted cluster shares its
/// pristine twin's entry and needs no fault-free copy.
pub(crate) fn compiled_dag(
    cluster: &ClusterModel,
    program: TimedProgram,
    reps: usize,
) -> Option<Arc<TimingDag>> {
    let key = (program, reps, cluster.eager_threshold());
    if let Some(dag) = CELLS.get(&key) {
        return Some(dag);
    }
    let sched = program.record(cluster, ROOT, reps).ok()?;
    let dag = Arc::new(TimingDag::compile(cluster, &sched).ok()?);
    CELLS.insert(key, Arc::clone(&dag));
    Some(dag)
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

type StepKey = (StepCell, usize);

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

/// Returns the compiled timing DAG for one replay step, recording
/// (`compile`; replay passes [`compile_step_shared`]) and lowering on a
/// miss. Counts into the same `dag_hits`/`dag_misses`
/// ([`memo_counters`]) as the measurement cells, but lives in its own
/// store: step shapes are keyed by their full group/call geometry, not
/// a [`TimedProgram`].
///
/// Of `cluster` only the rank capacity and the eager threshold are
/// read, as for the measurement cells. Returns `None` if recording
/// fails or the schedule overflows the DAG's index space.
pub fn compiled_step_dag(
    cluster: &ClusterModel,
    cell: StepCell,
    compile: impl FnOnce(&ClusterModel) -> Result<Schedule, RecordError>,
) -> Option<Arc<TimingDag>> {
    let key = (cell, cluster.eager_threshold());
    if let Some(dag) = STEPS.get(&key) {
        return Some(dag);
    }
    let sched = compile(cluster).ok()?;
    let dag = Arc::new(TimingDag::compile(cluster, &sched).ok()?);
    STEPS.insert(key, Arc::clone(&dag));
    Some(dag)
}

/// [`collsel_coll::compile::compile_step`] with the templates held in
/// the process-wide template store instead of a map of its own: a
/// collective — `(algorithm, group size, message size, segment size)`
/// — runs through the recorder once per process, whichever groups,
/// steps, policies and traces use it afterwards. The schedule is the
/// same, op for op.
///
/// # Errors
///
/// As [`collsel_coll::compile::compose_step`]. A template whose
/// recording fails is not kept.
///
/// # Panics
///
/// Panics if `world` is zero or exceeds the cluster's slots.
pub fn compile_step_shared(
    cluster: &ClusterModel,
    world: usize,
    calls: &[GroupCall],
) -> Result<Schedule, RecordError> {
    compose_step(cluster, world, calls, |key| {
        if let Some(template) = TEMPLATES.get(&key) {
            return Ok(template);
        }
        let template = Arc::new(compile_template(cluster, key)?);
        TEMPLATES.insert(key, Arc::clone(&template));
        Ok(template)
    })
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
    /// Group calls composed from an already recorded collective
    /// template ([`compile_step_shared`]).
    pub template_hits: u64,
    /// Collective templates that ran through the recorder.
    pub template_misses: u64,
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
            template_hits: self.template_hits - earlier.template_hits,
            template_misses: self.template_misses - earlier.template_misses,
        }
    }
}

/// Snapshot of all memo counters since process start.
pub fn memo_counters() -> MemoCounters {
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let payload = payload_counters();
    MemoCounters {
        payload_hits: payload.hits,
        payload_misses: payload.misses,
        dag_hits: load(&CELLS.hits) + load(&STEPS.hits),
        dag_misses: load(&CELLS.misses) + load(&STEPS.misses),
        template_hits: load(&TEMPLATES.hits),
        template_misses: load(&TEMPLATES.misses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_coll::BcastAlg;

    #[test]
    fn cell_dag_is_compiled_once_and_shared() {
        let cluster = ClusterModel::gros();
        let program = TimedProgram::Collective {
            alg: Alg::Scatter(collsel_coll::ScatterAlg::Binomial),
            p: 4,
            m: 12_345,
            seg_size: 12_345,
        };
        let before = memo_counters();
        let a = compiled_dag(&cluster, program, 2).expect("scatter records cleanly");
        let b = compiled_dag(&cluster, program, 2).expect("scatter records cleanly");
        // A second compile would have built a second artifact.
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let moved = memo_counters().since(before);
        assert!(moved.dag_hits >= 1 && moved.dag_misses >= 1);
    }

    /// Two steps that share a collective record it once. No other test
    /// of this binary composes steps, so the template counters move by
    /// this test's lookups alone.
    #[test]
    fn two_steps_sharing_a_collective_record_it_once() -> Result<(), RecordError> {
        use collsel_coll::compile::compile_step;
        let cluster = ClusterModel::gros();
        let shared = Alg::Allgather(collsel_coll::AllgatherAlg::Ring);
        let call = |alg, ranks: &[usize], m| GroupCall {
            alg,
            ranks: ranks.to_vec(),
            m,
            seg_size: 1_111,
        };
        let key = (shared, 3, 7_777, 1_111);
        let kept = || TEMPLATES.locked().get(&key).cloned();
        assert!(kept().is_none());

        let before = memo_counters();
        let first = vec![
            call(shared, &[0, 2, 4], 7_777),
            call(shared, &[1, 3, 5], 7_777),
            call(Alg::Bcast(BcastAlg::Chain), &[0, 1], 7_777),
        ];
        let sched = compile_step_shared(&cluster, 8, &first)?;
        assert_eq!(sched.shape(), compile_step(&cluster, 8, &first)?.shape());
        let Some(template) = kept() else {
            panic!("the template is kept");
        };

        let second = vec![
            call(shared, &[5, 6, 7], 7_777),
            call(shared, &[0, 1, 2, 3], 7_777),
        ];
        compile_step_shared(&cluster, 8, &second)?;
        assert!(kept().is_some_and(|again| Arc::ptr_eq(&template, &again)));

        // Five group calls, three collectives: the ring at P=3, the
        // chain, the ring at P=4.
        let moved = memo_counters().since(before);
        assert_eq!((moved.template_misses, moved.template_hits), (3, 2));
        Ok(())
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
        let get = || {
            compiled_step_dag(&cluster, step_cell(6, &calls), |rec| {
                compile_count.set(compile_count.get() + 1);
                collsel_coll::compile::compile_step(rec, 6, &calls)
            })
            .expect("tiny step must record and compile")
        };
        let a = get();
        let b = get();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(compile_count.get(), 1, "recording must run exactly once");
    }
}
