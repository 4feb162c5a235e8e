//! Chaos soak harness for the [`DecisionServer`]: seeded mixed
//! query/refit traffic under an active [`FaultPlan`], with post-hoc
//! validation of the serving invariants.
//!
//! The soak boots a server from one genuine
//! [`Tuner::try_tune_collectives`] run, then drives it from two sides
//! at once:
//!
//! * **readers** — `threads` OS threads replaying a seeded stream of
//!   `(collective, P, m)` queries, recording for every answer the
//!   generation version observed *before* the call, the answer itself,
//!   and its latency;
//! * **a refit driver** — paced against served-query progress so
//!   installs land *mid-traffic*, submitting perturbed-but-healthy
//!   candidates (which must install) and periodically poisoned ones
//!   (which the health gate must reject), while brown-out windows from
//!   the fault plan sweep over the serving clock.
//!
//! After the threads join, [`run_soak`] checks every recorded answer
//! against the per-version table registry built from the installs:
//!
//! 1. **no torn/dropped answers** — an answer stamped with version `v`
//!    equals `registry[v].lookup(..)` exactly; an answer stamped 0
//!    equals the fixed rules *and* carries a fallback cause;
//! 2. **bounded staleness** — a generation-stamped answer is at most
//!    one version behind the version observed before the call;
//! 3. **every fallback attributed** — the per-source counts the readers
//!    observed reconcile exactly with the server's cause counters.
//!
//! Violations are collected (not asserted) so the harness can report
//! them all; the soak test and the `colltune serve` smoke gate assert
//! the list is empty.

use collsel::coll::{Alg, Collective};
use collsel::estim::RetryPolicy;
use collsel::model::{FitValidity, Hockney};
use collsel::netsim::{Brownout, ClusterModel, FaultPlan, NoiseParams};
use collsel::select::{
    fixed_selection, CollSelection, CompiledCollectiveSelector, DecisionServer,
    GracefulCollectiveSelector, RefitOutcome, ServeSource, ServedAnswer, ServerConfig, ServerStats,
};
use collsel::{TunedModel, Tuner, TunerConfig};
use collsel_support::rng::splitmix64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Cluster the boot generation is tuned on.
    pub cluster: ClusterModel,
    /// Process count of the tuning experiments.
    pub tune_p: usize,
    /// Collectives to genuinely tune for the boot generation (the
    /// server compiles rules for the rest).
    pub collectives: Vec<Collective>,
    /// Reader threads.
    pub threads: usize,
    /// Total queries across all readers.
    pub queries: usize,
    /// Refit submissions from the driver.
    pub refits: usize,
    /// Every `poison_every`-th refit (1-based) is poisoned; 0 disables
    /// poisoning.
    pub poison_every: usize,
    /// Seed of the query stream and the candidate perturbations.
    pub seed: u64,
    /// Server configuration (watchdog, faults, journal, grids).
    pub server: ServerConfig,
}

impl SoakConfig {
    /// The CI-sized soak: a quick tune of two collectives on the Gros
    /// preset, 12 000 queries over 4 readers, 5 refits with every third
    /// poisoned, and three brown-out windows timed to sweep the virtual
    /// serving clock (1 µs healthy lookups, 50× slowdown inside a
    /// window, 10 µs budget — so windowed lookups trip the watchdog).
    pub fn quick() -> SoakConfig {
        let server = ServerConfig {
            // ~12 ms of virtual time at 1 µs per healthy lookup; windows
            // at 2/5/8 ms each last 0.5 ms ≈ hundreds of faulted queries.
            faults: FaultPlan::none()
                .with_brownout(Brownout::new(0, 0.002, 0.0005, 50.0))
                .with_brownout(Brownout::new(0, 0.005, 0.0005, 50.0))
                .with_brownout(Brownout::new(0, 0.008, 0.0005, 50.0)),
            ..ServerConfig::default()
        };
        SoakConfig {
            cluster: ClusterModel::gros().with_noise(NoiseParams::OFF),
            tune_p: 8,
            collectives: vec![Collective::Bcast, Collective::Reduce],
            threads: 4,
            queries: 12_000,
            refits: 5,
            poison_every: 3,
            seed: 0xC0FFEE,
            server,
        }
    }
}

/// One recorded answer: what a reader saw, for post-hoc validation.
#[derive(Debug, Clone, Copy)]
struct Observation {
    collective: Collective,
    p: usize,
    m: usize,
    /// Generation version read immediately before the query.
    version_before: u64,
    answer: ServedAnswer,
}

/// Outcome of a soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Total answered queries.
    pub queries: u64,
    /// Wall-clock duration of the traffic phase in seconds.
    pub duration_s: f64,
    /// Sustained queries per second across all readers.
    pub qps: f64,
    /// 99th-percentile per-query latency in nanoseconds.
    pub p99_latency_ns: u64,
    /// Completed hot swaps (installed refits).
    pub swaps: u64,
    /// Refits rejected by the health gate (either gate).
    pub rejected_refits: u64,
    /// Answers not served by the current generation.
    pub fallbacks: u64,
    /// Fallback fraction of all answers.
    pub fallback_rate: f64,
    /// Mean wall-clock swap latency in nanoseconds.
    pub swap_nanos_mean: f64,
    /// Worst wall-clock swap latency in nanoseconds.
    pub swap_nanos_max: u64,
    /// The server's own counter snapshot.
    pub stats: ServerStats,
    /// Invariant violations (empty on a passing soak).
    pub violations: Vec<String>,
}

collsel_support::json_struct!(SoakReport {
    queries,
    duration_s,
    qps,
    p99_latency_ns,
    swaps,
    rejected_refits,
    fallbacks,
    fallback_rate,
    swap_nanos_mean,
    swap_nanos_max,
    stats,
    violations
});

impl SoakReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Rebuilds a candidate selector from the boot model's fits with every β
/// scaled by a tiny seeded factor (order-preserving, so the health
/// gate accepts it), or — when `poisoned` — with the per-collective β
/// order reversed (decision-flipping, so the gate must reject it).
fn candidate(
    boot: &TunedModel,
    round: usize,
    seed: u64,
    poisoned: bool,
) -> GracefulCollectiveSelector {
    let mut state = seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let params: BTreeMap<Alg, Hockney> = if poisoned {
        // Reverse each collective's β ranking: the cheapest algorithm
        // gets the dearest β and vice versa.
        let mut by_coll: BTreeMap<Collective, Vec<(Alg, Hockney)>> = BTreeMap::new();
        for (alg, h) in boot.multi_hockney_table() {
            by_coll.entry(alg.collective()).or_default().push((alg, h));
        }
        let mut flipped = BTreeMap::new();
        for (_, mut fits) in by_coll {
            fits.sort_by(|a, b| a.1.beta.total_cmp(&b.1.beta));
            let betas: Vec<f64> = fits.iter().rev().map(|(_, h)| h.beta).collect();
            for ((alg, h), beta) in fits.into_iter().zip(betas) {
                flipped.insert(alg, Hockney::new(h.alpha, beta));
            }
        }
        flipped
    } else {
        boot.multi_hockney_table()
            .into_iter()
            .map(|(alg, h)| {
                // ±0.1 % β jitter: a realistic refit of the same
                // cluster, far inside the health gate's tolerance.
                let u = (splitmix64(&mut state) % 2_000) as f64 / 1_000.0 - 1.0;
                (alg, Hockney::new(h.alpha, h.beta * (1.0 + 1e-3 * u)))
            })
            .collect()
    };
    let validity = params.keys().map(|&a| (a, FitValidity::Valid)).collect();
    let gamma = boot.gamma.table.clone();
    let selector = GracefulCollectiveSelector::new(gamma, params, validity, boot.seg_size);
    Collective::ALL
        .into_iter()
        .fold(selector, |s, c| s.with_seg_size(c, boot.seg_size_for(c)))
}

/// Runs one soak (see the module docs). The returned report carries
/// every invariant violation; callers assert [`SoakReport::passed`].
///
/// # Panics
///
/// Panics when the initial tuning itself fails — the soak needs a boot
/// generation to exercise the server at all.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    // One genuine tune for the boot generation.
    let tuner = Tuner::new(config.cluster.clone(), TunerConfig::quick(config.tune_p));
    let report = tuner
        .try_tune_collectives(&config.collectives, Some(&RetryPolicy::default()))
        .expect("soak boot tune must complete");
    let boot_selector = report.degraded_multi_selector();
    // The boot generation's fits, kept for deriving refit candidates.
    let boot = &report.model;

    let server = DecisionServer::new(&boot_selector, config.cluster.name(), config.server.clone());
    // version → tables, the oracle the validator replays answers
    // against. Version 1 is the boot generation.
    let registry: Mutex<BTreeMap<u64, Arc<CompiledCollectiveSelector>>> =
        Mutex::new(BTreeMap::from([(1u64, server.current_tables())]));

    let threads = config.threads.max(1);
    // Reader `t`'s share of the queries: the remainder goes to the
    // first readers, so the shares add up to `config.queries`.
    let share = |t: usize| config.queries / threads + usize::from(t < config.queries % threads);
    let refits = config.refits;
    // Query-cohort checkpoints: reader `t` pauses at checkpoint `round`
    // of its own share until refit `round` has been decided, and the
    // driver waits for every reader to reach its checkpoint first — so
    // each swap deterministically lands *between* query cohorts, with
    // live traffic on both sides. Both sides compute the same floors,
    // so neither can deadlock.
    let checkpoint = move |t: usize, round: usize| share(t) * round / (refits + 1);
    let answered = AtomicU64::new(0);
    let rounds_done = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let started = Instant::now();

    let mut observations: Vec<Vec<Observation>> = Vec::new();
    let mut latencies: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..threads {
            let server = &server;
            let answered = &answered;
            let rounds_done = &rounds_done;
            let mut state = config.seed ^ ((t as u64 + 1) << 32);
            let queries = share(t);
            readers.push(scope.spawn(move || {
                let mut obs = Vec::with_capacity(queries);
                let mut lat = Vec::with_capacity(queries);
                let mut next_round = 1usize;
                for j in 0..queries {
                    while next_round <= refits && j == checkpoint(t, next_round) {
                        while rounds_done.load(Ordering::Acquire) < next_round as u64 {
                            std::thread::yield_now();
                        }
                        next_round += 1;
                    }
                    let c = Collective::ALL[(splitmix64(&mut state) % 7) as usize];
                    let p = 2 + (splitmix64(&mut state) % 127) as usize;
                    let m = 1024usize << (splitmix64(&mut state) % 14);
                    let version_before = server.version();
                    let t0 = Instant::now();
                    let answer = server.decide(c, p, m);
                    lat.push(t0.elapsed().as_nanos() as u64);
                    answered.fetch_add(1, Ordering::Release);
                    obs.push(Observation {
                        collective: c,
                        p,
                        m,
                        version_before,
                        answer,
                    });
                }
                (obs, lat)
            }));
        }

        // Refit driver: waits for every reader to reach the round's
        // checkpoint, submits, then releases them.
        let driver = scope.spawn(|| {
            for round in 1..=refits {
                let gate = (0..threads).map(|t| checkpoint(t, round)).sum::<usize>() as u64;
                while answered.load(Ordering::Acquire) < gate {
                    std::thread::yield_now();
                }
                let poisoned = config.poison_every != 0 && round % config.poison_every == 0;
                let cand = candidate(boot, round, config.seed, poisoned);
                match server.submit_refit(&cand, &format!("refit {round}")) {
                    RefitOutcome::Installed { epoch, tables } => {
                        registry
                            .lock()
                            .expect("registry lock")
                            .insert(epoch, tables);
                    }
                    RefitOutcome::RejectedInvalidFit { .. }
                    | RefitOutcome::RejectedRegression { .. } => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
                rounds_done.store(round as u64, Ordering::Release);
            }
        });

        for r in readers {
            let (obs, lat) = r.join().expect("reader thread");
            observations.push(obs);
            latencies.push(lat);
        }
        driver.join().expect("refit driver");
    });
    let duration_s = started.elapsed().as_secs_f64();

    // Post-hoc invariant validation.
    let registry = registry.into_inner().expect("registry lock");
    let final_version = server.version();
    let mut violations = Vec::new();
    let mut counted = BTreeMap::from([
        (ServeSource::Current, 0u64),
        (ServeSource::PreviousAfterTimeout, 0u64),
        (ServeSource::RulesAfterTimeout, 0u64),
        (ServeSource::RulesUncovered, 0u64),
    ]);
    let check = |ok: bool, violations: &mut Vec<String>, msg: String| {
        if !ok && violations.len() < 32 {
            violations.push(msg);
        }
    };
    for obs in observations.iter().flatten() {
        let Observation {
            collective: c,
            p,
            m,
            version_before,
            answer,
        } = *obs;
        *counted.entry(answer.source).or_default() += 1;
        if answer.epoch == 0 {
            // Rules answers must carry a cause and match the rules.
            check(
                answer.source.is_fallback(),
                &mut violations,
                format!("rules answer without a cause at {c} p={p} m={m}"),
            );
            check(
                answer.selection == fixed_selection(c, p, m),
                &mut violations,
                format!("rules answer does not match the fixed rules at {c} p={p} m={m}"),
            );
            continue;
        }
        // Generation-stamped answers must match that generation's
        // tables exactly: a torn read (half pre-swap, half post-swap)
        // or a reclaimed-too-early generation cannot produce this.
        match registry.get(&answer.epoch) {
            None => check(
                false,
                &mut violations,
                format!("answer stamped with unknown generation {}", answer.epoch),
            ),
            Some(tables) => {
                let expect: CollSelection = tables.lookup(c, p, m);
                check(
                    answer.selection == expect,
                    &mut violations,
                    format!(
                        "torn answer at {c} p={p} m={m}: got {:?} from generation {}, \
                         which serves {expect:?}",
                        answer.selection, answer.epoch
                    ),
                );
            }
        }
        // Bounded staleness: at most one generation behind the version
        // observed before the call (the watchdog's retry tier).
        check(
            answer.epoch + 1 >= version_before,
            &mut violations,
            format!(
                "stale answer at {c} p={p} m={m}: generation {} served while {} was current",
                answer.epoch, version_before
            ),
        );
        check(
            answer.epoch <= final_version,
            &mut violations,
            format!("answer from future generation {}", answer.epoch),
        );
    }
    // Fallback accounting: the readers' per-source tallies reconcile
    // exactly with the server's cause counters — no fallback happened
    // without its counter recording why.
    let stats = server.stats();
    for (source, observed, recorded) in [
        (
            ServeSource::Current,
            counted[&ServeSource::Current],
            stats.served_current,
        ),
        (
            ServeSource::PreviousAfterTimeout,
            counted[&ServeSource::PreviousAfterTimeout],
            stats.served_previous_timeout,
        ),
        (
            ServeSource::RulesAfterTimeout,
            counted[&ServeSource::RulesAfterTimeout],
            stats.served_rules_timeout,
        ),
        (
            ServeSource::RulesUncovered,
            counted[&ServeSource::RulesUncovered],
            stats.served_rules_uncovered,
        ),
    ] {
        if observed != recorded {
            violations.push(format!(
                "cause counter mismatch for {source:?}: readers saw {observed}, \
                 server recorded {recorded}"
            ));
        }
    }

    let mut all_lat: Vec<u64> = latencies.into_iter().flatten().collect();
    all_lat.sort_unstable();
    let p99 = if all_lat.is_empty() {
        0
    } else {
        all_lat[(all_lat.len() - 1).min(all_lat.len() * 99 / 100)]
    };
    let queries = stats.queries();
    SoakReport {
        queries,
        duration_s,
        qps: if duration_s > 0.0 {
            queries as f64 / duration_s
        } else {
            0.0
        },
        p99_latency_ns: p99,
        swaps: stats.swaps,
        rejected_refits: rejected.load(Ordering::Relaxed),
        fallbacks: stats.fallbacks(),
        fallback_rate: stats.fallback_rate(),
        swap_nanos_mean: stats.swap_nanos_mean,
        swap_nanos_max: stats.swap_nanos_max,
        stats,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak: every invariant holds, the health gate
    /// rejects the poisoned refit, and the watchdog attributes its
    /// brown-out fallbacks. The full-size soak lives in `tests/soak.rs`.
    #[test]
    fn mini_soak_passes_all_invariants() {
        let mut config = SoakConfig::quick();
        config.queries = 2_000;
        config.threads = 2;
        config.refits = 3;
        // ~2 ms of virtual traffic: one window at 0.5 ms.
        config.server.faults =
            FaultPlan::none().with_brownout(Brownout::new(0, 0.0005, 0.0005, 50.0));
        let report = run_soak(&config);
        assert!(report.passed(), "soak violations: {:#?}", report.violations);
        assert_eq!(report.queries, 2_000);
        assert!(report.swaps >= 2, "two healthy refits must install");
        assert_eq!(report.rejected_refits, 1, "poisoned refit rejected");
        assert!(report.fallbacks > 0, "brown-out must trip the watchdog");
    }

    #[test]
    fn report_round_trips_through_json() {
        use collsel_support::{FromJson, Json, ToJson};
        let report = SoakReport {
            queries: 10,
            duration_s: 0.5,
            qps: 20.0,
            p99_latency_ns: 1_200,
            swaps: 3,
            rejected_refits: 1,
            fallbacks: 2,
            fallback_rate: 0.2,
            swap_nanos_mean: 800.0,
            swap_nanos_max: 1_000,
            stats: ServerStats::default(),
            violations: vec!["example".to_string()],
        };
        let text = report.to_json().to_string_pretty();
        let back = SoakReport::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back.queries, 10);
        assert_eq!(back.violations, vec!["example".to_string()]);
    }
}
