//! The **fault-tolerant decision server**: a long-running front end
//! over epoch-versioned [`CompiledCollectiveSelector`] generations with
//! hot swap, a per-request virtual-time watchdog, a health gate for
//! online refits, and a crash-only recovery journal.
//!
//! The paper's selection function ultimately lives inside an MPI
//! library that must answer every collective call site for weeks — it
//! cannot restart to pick up a refit, cannot serve a torn table during
//! one, and must keep answering (with *attributed* degradation) when a
//! refit goes bad or the serving path itself browns out. This module is
//! that shape:
//!
//! * **Generations** — each installed fit is an immutable `Generation`
//!   (compiled tables + the graceful selector that produced them). The
//!   current generation lives in an [`EpochSwap`]: readers pin it
//!   wait-free, swaps are atomic, and a superseded generation is
//!   reclaimed only after its last reader drains.
//! * **Watchdog** — every request is charged a deterministic
//!   virtual-time cost: a 1 µs base lookup cost scaled by the
//!   [`FaultPlan`]'s link/CPU factors at the server's virtual clock
//!   (the plan models serving-node brown-outs and stragglers, e.g. a
//!   refit thrashing the table cache mid-install). A request whose cost
//!   exceeds the 10 µs budget retries once on the **previous**
//!   generation (resident and warm, charged the uninflated base cost
//!   against an 8× budget), and falls back to the fixed rules when no
//!   previous generation covers the collective. Every fallback carries
//!   its cause as a [`ServeSource`] variant and bumps the matching
//!   counter — no fallback without a recorded cause.
//! * **Health gate** — [`submit_refit`](DecisionServer::submit_refit)
//!   rejects a candidate whose fits include any [`FitValidity`] failure
//!   and shadow-scores the rest: on a canary query grid, every decision
//!   where the candidate disagrees with the live generation is priced
//!   with the *live* generation's models; a candidate predicted to
//!   regress by more than 25 % on any canary is rejected. The live
//!   generation keeps serving either way — a bad refit can never flip
//!   decisions for the worse.
//! * **Journal** — every installed generation is journalled (its
//!   compiled tables' JSON + version) with a temp-file + rename write,
//!   and [`DecisionServer::recover`] replays the last-good generation
//!   after a crash. Recovery is *crash-only*: there is no clean-shutdown
//!   path to get wrong.

use crate::multi::{
    fixed_selection, CollSelection, CompiledCollectiveSelector, GracefulCollectiveSelector,
};
use collsel_coll::{Alg, Collective};
use collsel_model::FitValidity;
use collsel_netsim::{FaultPlan, SimTime};
use collsel_support::epoch::EpochSwap;
use collsel_support::{FromJson, Json, ToJson};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Virtual-time cost of one healthy table lookup, in nanoseconds.
const BASE_COST_NS: u64 = 1_000;

/// Watchdog budget of a lookup on the current generation, in
/// nanoseconds. A compiled-table lookup is tens of nanoseconds, so only
/// a degraded generation trips it.
const BUDGET_NS: u64 = 10_000;

/// Budget multiplier of the one retry, on the previous generation.
const RETRY_BACKOFF: u64 = 8;

// The retry charges the previous generation the uninflated base cost,
// so it always fits its backoff budget and needs no runtime check.
const _: () = assert!(BASE_COST_NS <= BUDGET_NS * RETRY_BACKOFF);

/// Predicted relative slowdown beyond which a canary counts as a
/// regression (0.25 = 25 %); a single regressing canary rejects a refit.
const TOLERANCE: f64 = 0.25;

/// Configuration of a [`DecisionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fault schedule applied to the serving path (node 0 hosts the
    /// server, link 0–1 is its table-fetch path): brown-outs and
    /// degraded links inflate the lookup cost inside their windows,
    /// stragglers inflate it permanently. [`FaultPlan::none`] keeps
    /// every lookup at the 1 µs base cost.
    pub faults: FaultPlan,
    /// Communicator-size grid used to compile generations.
    pub comm_sizes: Vec<usize>,
    /// Message-size grid used to compile generations; the health gate
    /// scores every collective on this grid and `comm_sizes`.
    pub msg_sizes: Vec<usize>,
    /// Journal file for crash-only recovery; `None` disables
    /// journalling.
    pub journal: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            faults: FaultPlan::none(),
            comm_sizes: crate::DEPLOYMENT_COMM_SIZES.to_vec(),
            msg_sizes: crate::deployment_msg_sizes(),
            journal: None,
        }
    }
}

/// One immutable installed generation.
#[derive(Debug)]
struct Generation {
    /// Server-assigned version, monotonically increasing from 1.
    version: u64,
    /// Human-readable origin ("boot", "refit 3", "journal").
    label: String,
    /// Cluster the generation was tuned for.
    cluster: String,
    /// The compiled serving tables (also the journal payload).
    tables: Arc<CompiledCollectiveSelector>,
    /// The graceful selector that produced the tables; prices the
    /// health gate's shadow scores. `None` after journal recovery.
    referee: Option<Arc<GracefulCollectiveSelector>>,
    /// The immediately preceding generation's version and tables — the
    /// watchdog's retry target. Only one step of history is kept.
    prev: Option<(u64, Arc<CompiledCollectiveSelector>)>,
}

/// Which path answered a query — and, for every fallback, why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeSource {
    /// The pinned (current) generation answered within budget.
    Current,
    /// The current generation exceeded the watchdog budget; the
    /// previous generation answered within the backoff budget.
    PreviousAfterTimeout,
    /// Current and previous generations both exceeded their budgets
    /// (or no previous generation exists); the fixed rules answered.
    RulesAfterTimeout,
    /// The queried collective is not compiled into the current
    /// generation; the fixed rules answered.
    RulesUncovered,
}

collsel_support::json_enum!(ServeSource {
    Current,
    PreviousAfterTimeout,
    RulesAfterTimeout,
    RulesUncovered,
});

impl ServeSource {
    /// Whether this answer came from anywhere but the current
    /// generation.
    pub fn is_fallback(&self) -> bool {
        !matches!(self, ServeSource::Current)
    }
}

/// One served answer: the selection, the generation that produced it
/// (0 for the fixed rules), and the attributed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedAnswer {
    /// The selected algorithm and segment size.
    pub selection: CollSelection,
    /// Version of the generation that answered; 0 when the fixed rules
    /// answered.
    pub epoch: u64,
    /// Which path answered, with the fallback cause when applicable.
    pub source: ServeSource,
}

/// Outcome of [`DecisionServer::submit_refit`].
#[derive(Debug)]
pub enum RefitOutcome {
    /// The candidate passed the health gate and now serves.
    Installed {
        /// The new generation's version.
        epoch: u64,
        /// The installed tables (for external verification, e.g. the
        /// soak harness's per-generation answer oracle).
        tables: Arc<CompiledCollectiveSelector>,
    },
    /// Rejected: at least one fit failed validation.
    RejectedInvalidFit {
        /// The algorithms whose fits failed, with their verdicts.
        invalid: Vec<(Alg, FitValidity)>,
    },
    /// Rejected: the shadow score predicts a regression beyond 25 % on
    /// at least one canary.
    RejectedRegression {
        /// Canaries predicted to regress beyond 25 %.
        regressions: usize,
        /// Total canaries scored.
        canaries: usize,
    },
}

impl RefitOutcome {
    /// Whether the candidate was installed.
    pub fn is_installed(&self) -> bool {
        matches!(self, RefitOutcome::Installed { .. })
    }
}

/// Counter snapshot of a [`DecisionServer`]. The four `served_*`
/// fields partition every answer by its [`ServeSource`], so each
/// fallback is attributed to exactly one recorded cause.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Answers served by the current generation.
    pub served_current: u64,
    /// Fallbacks to the previous generation after a watchdog timeout.
    pub served_previous_timeout: u64,
    /// Fallbacks to the fixed rules after timeouts exhausted the retry
    /// tier.
    pub served_rules_timeout: u64,
    /// Fallbacks to the fixed rules for uncompiled collectives.
    pub served_rules_uncovered: u64,
    /// Completed hot swaps (installed refits; boot not counted).
    pub swaps: u64,
    /// Refits rejected for fit-validity failures.
    pub rejected_invalid: u64,
    /// Refits rejected by the shadow-score regression gate.
    pub rejected_regression: u64,
    /// Successful journal writes.
    pub journal_writes: u64,
    /// Failed journal writes (serving continues; recovery degrades).
    pub journal_errors: u64,
    /// Mean wall-clock swap latency in nanoseconds (0 before the first
    /// swap).
    pub swap_nanos_mean: f64,
    /// Worst wall-clock swap latency in nanoseconds.
    pub swap_nanos_max: u64,
}

collsel_support::json_struct!(ServerStats {
    served_current,
    served_previous_timeout,
    served_rules_timeout,
    served_rules_uncovered,
    swaps,
    rejected_invalid,
    rejected_regression,
    journal_writes,
    journal_errors,
    swap_nanos_mean,
    swap_nanos_max
});

impl ServerStats {
    /// Total answers served.
    pub fn queries(&self) -> u64 {
        self.served_current
            + self.served_previous_timeout
            + self.served_rules_timeout
            + self.served_rules_uncovered
    }

    /// Answers not served by the current generation.
    pub fn fallbacks(&self) -> u64 {
        self.served_previous_timeout + self.served_rules_timeout + self.served_rules_uncovered
    }

    /// Fraction of answers that fell back (0 when idle).
    pub fn fallback_rate(&self) -> f64 {
        let q = self.queries();
        if q == 0 {
            0.0
        } else {
            self.fallbacks() as f64 / q as f64
        }
    }
}

/// The journal record: everything needed to rebuild the last-good
/// generation after a crash.
struct JournalRecord {
    version: u64,
    label: String,
    cluster: String,
    tables: CompiledCollectiveSelector,
}

collsel_support::json_struct!(JournalRecord {
    version,
    label,
    cluster,
    tables
});

/// The words every [`DecisionServer::decide`] writes, kept on cache
/// lines of their own. Concurrent readers bounce these lines on every
/// request; sharing one with the read-mostly configuration or the
/// generation cell would turn each of those reads into a miss too (the
/// serving benchmark's decide loop ran ~1.8× slower on a 2-core host
/// with the clock on the line that holds the current-generation index).
#[derive(Debug, Default)]
#[repr(align(128))]
struct HotCounters {
    /// Virtual serving clock in nanoseconds; advanced by each request's
    /// charged cost. The fault schedule is evaluated against it.
    clock: AtomicU64,
    served_current: AtomicU64,
    served_previous_timeout: AtomicU64,
    served_rules_timeout: AtomicU64,
    served_rules_uncovered: AtomicU64,
}

/// The long-running decision server (see the module docs).
///
/// All methods take `&self`; the server is `Sync` and meant to be
/// shared across however many serving threads the host runs.
#[derive(Debug)]
pub struct DecisionServer {
    config: ServerConfig,
    generations: EpochSwap<Generation>,
    /// Serialises refits/installs (readers never take it).
    install_lock: Mutex<()>,
    hot: HotCounters,
    swaps: AtomicU64,
    rejected_invalid: AtomicU64,
    rejected_regression: AtomicU64,
    journal_writes: AtomicU64,
    journal_errors: AtomicU64,
    swap_nanos_total: AtomicU64,
    swap_nanos_max: AtomicU64,
}

impl DecisionServer {
    /// Boots the server with generation 1 compiled from `initial` (a
    /// graceful selector, typically `TuneReport::degraded_multi_selector`
    /// output) and journals it if a journal path is configured.
    pub fn new(initial: &GracefulCollectiveSelector, cluster: &str, config: ServerConfig) -> Self {
        let generation = Generation {
            version: 1,
            label: "boot".to_string(),
            cluster: cluster.to_string(),
            tables: Self::compile_generation(initial, &config),
            referee: Some(Arc::new(initial.clone())),
            prev: None,
        };
        let server = Self::with_boot_generation(generation, config);
        server.journal_current();
        server
    }

    /// Rebuilds the server from the journalled last-good generation.
    ///
    /// The recovered generation serves exactly the journalled decision
    /// tables under its original version (a journal whose tables fail
    /// [`CompiledCollectiveSelector`]'s decoding checks is an error
    /// naming the journal path); it has no referee, so the first refit
    /// after recovery skips the shadow score (fit validity is still
    /// enforced) and restores one.
    pub fn recover(config: ServerConfig) -> Result<DecisionServer, String> {
        let path = config
            .journal
            .as_ref()
            .ok_or_else(|| "recovery needs a configured journal path".to_string())?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let json = Json::parse(&text)
            .map_err(|e| format!("journal {} is corrupt: {e}", path.display()))?;
        let record = JournalRecord::from_json(&json)
            .map_err(|e| format!("journal {} is corrupt: {e}", path.display()))?;
        let generation = Generation {
            version: record.version,
            label: format!("journal({})", record.label),
            cluster: record.cluster,
            tables: Arc::new(record.tables),
            referee: None,
            prev: None,
        };
        Ok(Self::with_boot_generation(generation, config))
    }

    fn with_boot_generation(generation: Generation, config: ServerConfig) -> Self {
        DecisionServer {
            config,
            generations: EpochSwap::new(generation),
            install_lock: Mutex::new(()),
            hot: HotCounters::default(),
            swaps: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            rejected_regression: AtomicU64::new(0),
            journal_writes: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            swap_nanos_total: AtomicU64::new(0),
            swap_nanos_max: AtomicU64::new(0),
        }
    }

    fn compile_generation(
        selector: &GracefulCollectiveSelector,
        config: &ServerConfig,
    ) -> Arc<CompiledCollectiveSelector> {
        Arc::new(CompiledCollectiveSelector::compile(
            selector,
            &Collective::ALL,
            &config.comm_sizes,
            &config.msg_sizes,
        ))
    }

    /// The current generation's version (1 at boot, +1 per installed
    /// refit; a recovered server resumes from the journalled version).
    pub fn version(&self) -> u64 {
        self.generations.read(|g| g.version)
    }

    /// The cluster name the current generation was tuned for.
    pub fn cluster(&self) -> String {
        self.generations.read(|g| g.cluster.clone())
    }

    /// The current generation's compiled tables (an answer oracle for
    /// external verification).
    pub fn current_tables(&self) -> Arc<CompiledCollectiveSelector> {
        self.generations.read(|g| Arc::clone(&g.tables))
    }

    /// The server's virtual clock.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.hot.clock.load(Ordering::Relaxed))
    }

    /// Answers one query under the watchdog (see the module docs for
    /// the cost model). Never panics and never blocks on a swap.
    pub fn decide(&self, collective: Collective, p: usize, m: usize) -> ServedAnswer {
        let gen = self.generations.pin();
        // Deterministic virtual cost of serving from the current
        // generation right now.
        let now = SimTime::from_nanos(self.hot.clock.load(Ordering::Relaxed));
        let factor = self.config.faults.link_factor(0, 1, now) * self.config.faults.cpu_factor(0);
        let cost_ns = (BASE_COST_NS as f64 * factor).round() as u64;
        self.hot.clock.fetch_add(cost_ns, Ordering::Relaxed);
        if !gen.tables.covers(collective) {
            self.hot
                .served_rules_uncovered
                .fetch_add(1, Ordering::Relaxed);
            return ServedAnswer {
                selection: fixed_selection(collective, p, m),
                epoch: 0,
                source: ServeSource::RulesUncovered,
            };
        }
        if cost_ns <= BUDGET_NS {
            self.hot.served_current.fetch_add(1, Ordering::Relaxed);
            return ServedAnswer {
                selection: gen.tables.lookup(collective, p, m),
                epoch: gen.version,
                source: ServeSource::Current,
            };
        }
        // Watchdog tripped: back off onto the previous generation. It
        // has been resident and serving for a while, so it is charged
        // the uninflated base cost against the backoff-multiplied
        // budget (the fault window models pressure on the freshly
        // installed tables, not on long-resident ones), which it always
        // meets.
        if let Some((prev_version, prev_tables)) = &gen.prev {
            if prev_tables.covers(collective) {
                self.hot
                    .served_previous_timeout
                    .fetch_add(1, Ordering::Relaxed);
                return ServedAnswer {
                    selection: prev_tables.lookup(collective, p, m),
                    epoch: *prev_version,
                    source: ServeSource::PreviousAfterTimeout,
                };
            }
        }
        self.hot
            .served_rules_timeout
            .fetch_add(1, Ordering::Relaxed);
        ServedAnswer {
            selection: fixed_selection(collective, p, m),
            epoch: 0,
            source: ServeSource::RulesAfterTimeout,
        }
    }

    /// Health-gates `candidate` against the live generation and
    /// installs it if it passes. The live generation keeps serving
    /// throughout (and keeps serving on rejection).
    ///
    /// The gate, in order:
    /// 1. **Fit validity** — any non-`Valid` verdict among the
    ///    candidate's judged fits rejects it outright.
    /// 2. **Shadow score** — the canaries are every collective on the
    ///    compile grid. On every canary where the candidate picks a
    ///    different algorithm than the live generation, both picks are
    ///    priced with the live generation's models; a predicted
    ///    slowdown beyond 25 % on any canary rejects the candidate.
    ///    (Skipped when the live generation has no referee, i.e. right
    ///    after journal recovery.)
    pub fn submit_refit(
        &self,
        candidate: &GracefulCollectiveSelector,
        label: &str,
    ) -> RefitOutcome {
        // Gate 1: fit validity.
        let invalid: Vec<(Alg, FitValidity)> = candidate
            .validity()
            .iter()
            .filter(|(_, v)| !v.is_valid())
            .map(|(&a, &v)| (a, v))
            .collect();
        if !invalid.is_empty() {
            self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return RefitOutcome::RejectedInvalidFit { invalid };
        }
        // Gate 2: shadow score against the live referee.
        let referee = self.generations.read(|g| g.referee.clone());
        if let Some(referee) = referee {
            let config = &self.config;
            let canaries = Collective::ALL.into_iter().flat_map(|c| {
                config
                    .comm_sizes
                    .iter()
                    .flat_map(move |&p| config.msg_sizes.iter().map(move |&m| (c, p, m)))
            });
            let mut regressions = 0usize;
            for (c, p, m) in canaries {
                let cand_pick = candidate.decide_for(c, p, m).selection.alg;
                let live_pick = referee.decide_for(c, p, m).selection.alg;
                if cand_pick == live_pick {
                    continue;
                }
                let (Some(t_cand), Some(t_live)) = (
                    referee.predicted_time(cand_pick, p, m),
                    referee.predicted_time(live_pick, p, m),
                ) else {
                    // The live models cannot price one of the picks
                    // (e.g. an algorithm the live fit skipped): the
                    // disagreement is unscoreable, not a regression.
                    continue;
                };
                if t_cand > t_live * (1.0 + TOLERANCE) {
                    regressions += 1;
                }
            }
            if regressions > 0 {
                self.rejected_regression.fetch_add(1, Ordering::Relaxed);
                return RefitOutcome::RejectedRegression {
                    regressions,
                    canaries: Collective::ALL.len()
                        * config.comm_sizes.len()
                        * config.msg_sizes.len(),
                };
            }
        }
        // Passed: compile and install.
        let tables = Self::compile_generation(candidate, &self.config);
        let installed = Arc::clone(&tables);
        let epoch = {
            let _guard = self.install_lock.lock().expect("install lock");
            let (version, cluster, prev) = self.generations.read(|g| {
                (
                    g.version + 1,
                    g.cluster.clone(),
                    Some((g.version, Arc::clone(&g.tables))),
                )
            });
            let generation = Generation {
                version,
                label: label.to_string(),
                cluster,
                tables,
                referee: Some(Arc::new(candidate.clone())),
                prev,
            };
            let started = std::time::Instant::now();
            self.generations.swap(generation);
            let nanos = started.elapsed().as_nanos() as u64;
            self.swap_nanos_total.fetch_add(nanos, Ordering::Relaxed);
            self.swap_nanos_max.fetch_max(nanos, Ordering::Relaxed);
            self.swaps.fetch_add(1, Ordering::Relaxed);
            version
        };
        self.journal_current();
        RefitOutcome::Installed {
            epoch,
            tables: installed,
        }
    }

    /// Journals the current generation (temp file + rename, so a crash
    /// mid-write can never corrupt the previous journal). Failures are
    /// counted, not propagated: a lost journal degrades recovery, not
    /// serving.
    fn journal_current(&self) {
        let Some(path) = &self.config.journal else {
            return;
        };
        let record = self.generations.read(|g| JournalRecord {
            version: g.version,
            label: g.label.clone(),
            cluster: g.cluster.clone(),
            tables: (*g.tables).clone(),
        });
        let text = record.to_json().to_string_pretty();
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "journal.json".to_string())
        ));
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
        match result {
            Ok(()) => {
                self.journal_writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let swaps = self.swaps.load(Ordering::Relaxed);
        let total = self.swap_nanos_total.load(Ordering::Relaxed);
        ServerStats {
            served_current: self.hot.served_current.load(Ordering::Relaxed),
            served_previous_timeout: self.hot.served_previous_timeout.load(Ordering::Relaxed),
            served_rules_timeout: self.hot.served_rules_timeout.load(Ordering::Relaxed),
            served_rules_uncovered: self.hot.served_rules_uncovered.load(Ordering::Relaxed),
            swaps,
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_regression: self.rejected_regression.load(Ordering::Relaxed),
            journal_writes: self.journal_writes.load(Ordering::Relaxed),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            swap_nanos_mean: if swaps == 0 {
                0.0
            } else {
                total as f64 / swaps as f64
            },
            swap_nanos_max: self.swap_nanos_max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_model::{GammaTable, Hockney};
    use collsel_netsim::Brownout;
    use std::collections::BTreeMap;

    fn gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.11), (4, 1.22), (5, 1.28), (6, 1.45), (7, 1.54)])
    }

    /// A graceful selector whose per-algorithm betas follow `order`:
    /// the i-th algorithm of each collective gets `beta * (1 + i)` in
    /// the given enumeration order, so different orders prefer
    /// different algorithms.
    fn selector_with(order_rev: bool) -> GracefulCollectiveSelector {
        let mut params: BTreeMap<Alg, Hockney> = BTreeMap::new();
        for c in Collective::ALL {
            let algs = c.algorithms();
            for (i, &a) in algs.iter().enumerate() {
                let rank = if order_rev { algs.len() - 1 - i } else { i };
                params.insert(a, Hockney::new(1e-6, 1e-9 * (1.0 + rank as f64)));
            }
        }
        let validity = params.keys().map(|&a| (a, FitValidity::Valid)).collect();
        GracefulCollectiveSelector::new(gamma(), params, validity, 8192)
    }

    fn small_config() -> ServerConfig {
        ServerConfig {
            comm_sizes: vec![4, 16, 64],
            msg_sizes: vec![1024, 64 * 1024, 1 << 20],
            ..ServerConfig::default()
        }
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!(
            "collsel-server-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn boot_generation_serves_current() {
        let server = DecisionServer::new(&selector_with(false), "test", small_config());
        assert_eq!(server.version(), 1);
        let tables = server.current_tables();
        let a = server.decide(Collective::Reduce, 16, 64 * 1024);
        assert_eq!(a.source, ServeSource::Current);
        assert_eq!(a.epoch, 1);
        assert_eq!(
            a.selection,
            tables.lookup(Collective::Reduce, 16, 64 * 1024)
        );
    }

    #[test]
    fn healthy_refit_installs_and_swaps() {
        let server = DecisionServer::new(&selector_with(false), "test", small_config());
        // A "refit" with slightly perturbed but order-preserving fits.
        let outcome = server.submit_refit(&selector_with(false), "refit 1");
        assert!(outcome.is_installed(), "{outcome:?}");
        assert_eq!(server.version(), 2);
        let stats = server.stats();
        assert_eq!(stats.swaps, 1);
        assert!(stats.swap_nanos_max > 0);
        let a = server.decide(Collective::Bcast, 16, 1024);
        assert_eq!(a.epoch, 2);
    }

    #[test]
    fn health_gate_rejects_invalid_fits() {
        let server = DecisionServer::new(&selector_with(false), "test", small_config());
        let mut params: BTreeMap<Alg, Hockney> = BTreeMap::new();
        let mut validity: BTreeMap<Alg, FitValidity> = BTreeMap::new();
        for c in Collective::ALL {
            for &a in c.algorithms() {
                params.insert(a, Hockney::new(1e-6, 1e-9));
                validity.insert(a, FitValidity::Valid);
            }
        }
        // Poison one fit's verdict.
        let poisoned_alg = *validity.keys().next().unwrap();
        validity.insert(poisoned_alg, FitValidity::NonFinite);
        let poisoned = GracefulCollectiveSelector::new(gamma(), params, validity, 8192);
        match server.submit_refit(&poisoned, "poisoned") {
            RefitOutcome::RejectedInvalidFit { invalid } => {
                assert_eq!(invalid.len(), 1);
                assert_eq!(invalid[0].0, poisoned_alg);
            }
            other => panic!("expected invalid-fit rejection, got {other:?}"),
        }
        assert_eq!(server.version(), 1, "live generation keeps serving");
        assert_eq!(server.stats().rejected_invalid, 1);
    }

    #[test]
    fn health_gate_rejects_decision_flipping_regression() {
        let server = DecisionServer::new(&selector_with(false), "test", small_config());
        // Valid-looking fits whose betas are reversed: the candidate
        // prefers exactly the algorithms the live models price worst.
        match server.submit_refit(&selector_with(true), "flipped") {
            RefitOutcome::RejectedRegression {
                regressions,
                canaries,
            } => {
                assert!(regressions > 0, "flipped fits must regress");
                assert!(canaries >= regressions);
            }
            other => panic!("expected regression rejection, got {other:?}"),
        }
        assert_eq!(server.version(), 1);
        assert_eq!(server.stats().rejected_regression, 1);
    }

    #[test]
    fn watchdog_backs_off_onto_previous_generation() {
        // Brown-out on the serving node from t=0 for 1 ms, 50× slowdown:
        // with a 1 µs base cost and a 10 µs budget, lookups inside the
        // window cost 50 µs — over budget — and must fall back.
        let mut config = small_config();
        config.faults = FaultPlan::none()
            .try_with_brownout(Brownout::try_new(0, 0.0, 0.001, 50.0).unwrap())
            .unwrap();
        let server = DecisionServer::new(&selector_with(false), "test", config);
        // No previous generation yet: rules fallback, cause recorded.
        let a = server.decide(Collective::Reduce, 16, 1 << 20);
        assert_eq!(a.source, ServeSource::RulesAfterTimeout);
        assert_eq!(a.epoch, 0);
        assert_eq!(
            a.selection,
            fixed_selection(Collective::Reduce, 16, 1 << 20)
        );
        // Install generation 2; the previous generation (1) now backs
        // the watchdog.
        let gen1 = server.current_tables();
        assert!(server
            .submit_refit(&selector_with(false), "refit")
            .is_installed());
        let a = server.decide(Collective::Reduce, 16, 1 << 20);
        assert_eq!(a.source, ServeSource::PreviousAfterTimeout);
        assert_eq!(a.epoch, 1);
        assert_eq!(a.selection, gen1.lookup(Collective::Reduce, 16, 1 << 20));
        // Once the virtual clock leaves the window, service returns to
        // the current generation.
        while server.now() < SimTime::from_nanos(1_000_000) {
            server.decide(Collective::Bcast, 4, 1024);
        }
        let a = server.decide(Collective::Reduce, 16, 1 << 20);
        assert_eq!(a.source, ServeSource::Current);
        assert_eq!(a.epoch, 2);
        let stats = server.stats();
        assert!(stats.served_previous_timeout > 0);
        assert!(stats.served_rules_timeout > 0);
        assert_eq!(
            stats.fallbacks(),
            stats.served_previous_timeout + stats.served_rules_timeout,
            "every fallback attributed"
        );
    }

    #[test]
    fn journal_round_trips_through_recovery() {
        let path = temp_journal("recover");
        let _ = std::fs::remove_file(&path);
        let mut config = small_config();
        config.journal = Some(path.clone());
        let server = DecisionServer::new(&selector_with(false), "grisou", config.clone());
        assert!(server
            .submit_refit(&selector_with(false), "refit 1")
            .is_installed());
        assert_eq!(server.stats().journal_writes, 2, "boot + refit journalled");
        let tables = server.current_tables();
        let version = server.version();
        drop(server);
        // Crash-only: no shutdown handshake, just re-read the journal.
        let recovered = DecisionServer::recover(config).expect("recovery");
        assert_eq!(recovered.version(), version);
        assert_eq!(recovered.cluster(), "grisou");
        for c in Collective::ALL {
            for (p, m) in [
                (4usize, 1024usize),
                (16, 64 * 1024),
                (64, 1 << 20),
                (90, 123),
            ] {
                let a = recovered.decide(c, p, m);
                assert_eq!(a.selection, tables.lookup(c, p, m), "{c} p={p} m={m}");
                assert_eq!(a.epoch, version);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_without_journal_is_a_typed_error() {
        assert!(DecisionServer::recover(small_config()).is_err());
        let mut config = small_config();
        config.journal = Some(temp_journal("missing"));
        let _ = std::fs::remove_file(config.journal.as_ref().unwrap());
        assert!(DecisionServer::recover(config).is_err());
    }

    /// A journal that parses but fails the table's decoding checks is a
    /// typed recovery error naming the journal, never a server that
    /// answers from it. Each case is `from | to | error`: the boot
    /// journal's first `from` becomes `to` (a leading empty array
    /// shadows the real one under the same key).
    #[test]
    fn recovery_from_an_invalid_journal_is_a_typed_error() -> std::io::Result<()> {
        let cases = [
            r#""tables": [ | "tables": [], "x": [ | need at least one decision table"#,
            r#""comms": [ | "comms": [], "comms": [ | empty decision table for bcast"#,
            r#""rules": [ | "rules": [], "rules": [ | bcast comm block 4 has no rules"#,
            r#""Reduce" | "Bcast" | duplicate decision table for bcast"#,
            r#""comm_size": 16 | "comm_size": 2 | comm blocks must be strictly ascending"#,
            r#""min_msg_size": 65536 | "min_msg_size": 0 | thresholds must be strictly ascending"#,
            r#""bcast/linear" | "reduce/linear" | bcast comm block 4 selects reduce/linear"#,
            r#""seg_size": 8192 | "seg_size": 0 | bcast comm block 4 has a zero segment size"#,
        ];
        for case in cases {
            let parts: Vec<&str> = case.split(" | ").collect();
            let (from, to, want) = (parts[0], parts[1], parts[2]);
            let path = temp_journal("invalid");
            let mut config = small_config();
            config.journal = Some(path.clone());
            drop(DecisionServer::new(
                &selector_with(false),
                "test",
                config.clone(),
            ));
            let text = std::fs::read_to_string(&path)?;
            assert!(text.contains(from), "{want}: the edit must apply");
            std::fs::write(&path, text.replacen(from, to, 1))?;
            let err = DecisionServer::recover(config).expect_err(want);
            let _ = std::fs::remove_file(&path);
            assert!(err.contains(want), "{want}: {err}");
            assert!(err.contains(&path.display().to_string()), "{want}: {err}");
        }
        Ok(())
    }

    #[test]
    fn refit_after_recovery_restores_the_referee() {
        let path = temp_journal("refit-after");
        let _ = std::fs::remove_file(&path);
        let mut config = small_config();
        config.journal = Some(path.clone());
        let server = DecisionServer::new(&selector_with(false), "test", config.clone());
        drop(server);
        let recovered = DecisionServer::recover(config).expect("recovery");
        // No referee: the shadow score is skipped, validity still holds.
        assert!(recovered
            .submit_refit(&selector_with(true), "post-recovery")
            .is_installed());
        // The referee is back: a flipped candidate is rejected again.
        assert!(!recovered
            .submit_refit(&selector_with(false), "flip-back")
            .is_installed());
        let _ = std::fs::remove_file(&path);
    }
}
