//! `serve-calm` and `serve-brownout`: closed-loop `decide` traffic from
//! two reader threads against a [`DecisionServer`], with health-gated
//! refits landing mid-traffic and every sampled answer checked against
//! the tables of the generation that gave it.

use super::tune::tuner;
use super::{timed, ChildArgs, Mode, Outcome};
use crate::probes::{self, query};
use crate::sizes::{
    BROWNOUT_DURATION_S, BROWNOUT_SLOWDOWN, BROWNOUT_START_S, DECIDE_CHUNK, FIRST_REFIT_AT,
    READERS, REFIT_CANDIDATES, REFIT_EVERY, VERIFY_EVERY,
};
use crate::stats::median;
use crate::surface::{
    fixed_selection, Brownout, ClusterModel, Collective, CompiledCollectiveSelector,
    DecisionServer, FaultPlan, GracefulCollectiveSelector, RefitOutcome, ServedAnswer,
    ServerConfig,
};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The answer oracle: the tables of every installed generation, by
/// epoch. Epoch 0 stands for the fixed rules.
type Registry = RwLock<BTreeMap<u64, Arc<CompiledCollectiveSelector>>>;

/// How answers are checked. `FixedRulesOnly` is the failure injection
/// behind `--inject oracle`: it pretends no generation was registered,
/// so tuned answers no longer match and the run must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    Registry,
    FixedRulesOnly,
}

/// Pins the server's shared atomics (virtual clock, source counters,
/// epoch slots) to a fixed position within their cache lines. Left to
/// the stack, that position changes from process to process, and with it
/// which of the contended words share a line: the two readers then run
/// ~190 ns or ~330 ns per `decide` at random.
#[repr(align(128))]
struct CacheAligned<T>(T);

/// What one reader thread saw.
#[derive(Debug, Default)]
struct ReaderLog {
    answered: u64,
    verified: u64,
    wrong: u64,
    /// Per-call latency of each timed chunk, in seconds.
    latencies_s: Vec<f64>,
    refit_gate_s: Vec<f64>,
    installed: u64,
    rejected: u64,
}

/// Checks a chunk of answers against the generation each names.
fn verify(
    registry: &Registry,
    oracle: Oracle,
    queries: &[(Collective, usize, usize)],
    answers: &[ServedAnswer],
    log: &mut ReaderLog,
) {
    // The generation looked up last; a chunk rarely spans more than one.
    let mut known: Option<(u64, Arc<CompiledCollectiveSelector>)> = None;
    for (&(c, p, m), answer) in queries.iter().zip(answers) {
        let expected = if answer.epoch == 0 || oracle == Oracle::FixedRulesOnly {
            fixed_selection(c, p, m)
        } else {
            if known.as_ref().map(|(epoch, _)| *epoch) != Some(answer.epoch) {
                // Reader 0 registers a generation right after installing
                // it; another reader can see the epoch a moment earlier.
                let tables = loop {
                    let found = registry
                        .read()
                        .expect("registry lock")
                        .get(&answer.epoch)
                        .cloned();
                    match found {
                        Some(tables) => break tables,
                        None => std::thread::yield_now(),
                    }
                };
                known = Some((answer.epoch, tables));
            }
            let (_, tables) = known.as_ref().expect("looked up just above");
            tables.lookup(c, p, m)
        };
        // A fixed-rules answer must carry its fallback cause.
        let attributed = answer.epoch != 0 || answer.source.is_fallback();
        log.verified += 1;
        if answer.selection != expected || !attributed {
            log.wrong += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reader(
    index: usize,
    server: &DecisionServer,
    registry: &Registry,
    candidates: &[GracefulCollectiveSelector],
    oracle: Oracle,
    seed: u64,
    budget_s: f64,
    tracer: &Tracer,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut state = seed ^ ((index as u64 + 1) << 32);
    let mut queries = vec![(Collective::Bcast, 2usize, 1024usize); DECIDE_CHUNK];
    let mut answers: Vec<ServedAnswer> = Vec::with_capacity(DECIDE_CHUNK);
    let mut next_refit = FIRST_REFIT_AT;
    let mut refits = 0usize;
    let mut chunks = 0usize;
    let started = Instant::now();
    tracer.span("select", "decide loop", None, |reader_span| loop {
        for q in queries.iter_mut() {
            *q = query(&mut state);
        }
        answers.clear();
        let chunk_started = Instant::now();
        for &(c, p, m) in &queries {
            answers.push(server.decide(c, p, m));
        }
        let chunk_s = chunk_started.elapsed().as_secs_f64();
        log.latencies_s.push(chunk_s / DECIDE_CHUNK as f64);
        log.answered += DECIDE_CHUNK as u64;
        if chunks.is_multiple_of(VERIFY_EVERY) {
            verify(registry, oracle, &queries, &answers, &mut log);
        }
        chunks += 1;

        // Reader 0 doubles as the refit driver (no third thread).
        if index == 0 && log.answered >= next_refit {
            next_refit += REFIT_EVERY;
            let candidate = &candidates[refits % candidates.len()];
            refits += 1;
            let (outcome, gate_s) = tracer.span("select", "submit_refit", reader_span, |_| {
                server.submit_refit(candidate, "benchmark refit")
            });
            log.refit_gate_s.push(gate_s);
            match outcome {
                RefitOutcome::Installed { epoch, tables } => {
                    registry
                        .write()
                        .expect("registry lock")
                        .insert(epoch, tables);
                    log.installed += 1;
                }
                RefitOutcome::RejectedInvalidFit { .. }
                | RefitOutcome::RejectedRegression { .. } => log.rejected += 1,
            }
        }
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    });
    log
}

pub fn serve(args: &ChildArgs, tracer: &Tracer, brownout: bool, oracle: Oracle) -> Outcome {
    let mut out = Outcome::default();
    let cluster = ClusterModel::gros();
    let boot = tuner(&cluster, args.seed).tune_all();
    let candidates: Vec<GracefulCollectiveSelector> = (1..=REFIT_CANDIDATES as u64)
        .map(|i| {
            tuner(&cluster, args.seed.wrapping_add(i))
                .tune_all()
                .degraded_multi_selector()
        })
        .collect();
    let mut config = ServerConfig::default();
    if brownout {
        let window = Brownout::try_new(0, BROWNOUT_START_S, BROWNOUT_DURATION_S, BROWNOUT_SLOWDOWN)
            .expect("the frozen brown-out window is valid");
        config.faults = FaultPlan::none()
            .try_with_brownout(window)
            .expect("a single window cannot overlap");
    }
    let (server, _) = tracer.span("select", "server boot", None, |_| {
        CacheAligned(DecisionServer::new(
            &boot.degraded_multi_selector(),
            cluster.name(),
            config,
        ))
    });
    let server = &server.0;
    let registry: Registry = RwLock::new(BTreeMap::from([(1, server.current_tables())]));

    let (logs, timed_section) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..READERS)
                .map(|index| {
                    let (registry, candidates) = (&registry, &candidates);
                    scope.spawn(move || {
                        reader(
                            index,
                            server,
                            registry,
                            candidates,
                            oracle,
                            args.seed,
                            args.budget_s,
                            tracer,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a reader thread panicked"))
                .collect::<Vec<ReaderLog>>()
        })
    });

    let answered: u64 = logs.iter().map(|l| l.answered).sum();
    let verified: u64 = logs.iter().map(|l| l.verified).sum();
    let wrong: u64 = logs.iter().map(|l| l.wrong).sum();
    let installed = logs[0].installed;
    let stats = server.stats();
    out.timed = timed_section;
    out.ops = answered;
    out.latencies_s = logs
        .iter()
        .flat_map(|l| l.latencies_s.iter().copied())
        .collect();
    out.attempted = answered;
    out.failed = wrong;
    let tuned = stats.served_current + stats.served_previous_timeout;
    out.quality_pct = Some(100.0 * tuned as f64 / stats.queries().max(1) as f64);

    out.check(
        "serve: every checked answer equals its generation's tables",
        wrong == 0,
        format!("{wrong} of {verified} checked answers differ ({answered} answered)"),
    );
    out.check(
        "serve: the server's source counters partition the answers",
        stats.queries() == answered,
        format!("{} counted, {answered} answered", stats.queries()),
    );
    out.check(
        "serve: refits land mid-traffic",
        installed >= 1 && stats.swaps == installed,
        format!("{installed} installed, {} rejected", logs[0].rejected),
    );
    if brownout {
        out.check(
            "serve-brownout: both rungs of the watchdog ladder are used",
            stats.served_previous_timeout > 0 && stats.served_rules_timeout > 0,
            format!(
                "{} from the previous generation, {} from the fixed rules",
                stats.served_previous_timeout, stats.served_rules_timeout
            ),
        );
    } else {
        out.check(
            "serve-calm: no answer falls back",
            stats.fallbacks() == 0,
            format!("{} fallbacks", stats.fallbacks()),
        );
    }

    if args.mode == Mode::Traced {
        let excluded = Instant::now();
        out.layer("select.swap_mean_us", stats.swap_nanos_mean / 1e3);
        out.layer("select.swap_max_us", stats.swap_nanos_max as f64 / 1e3);
        out.layer("select.refit_gate_ms", median(&logs[0].refit_gate_s) * 1e3);
        out.layer("select.fallback_share", stats.fallback_rate());
        out.layer(
            "select.served_previous",
            stats.served_previous_timeout as f64,
        );
        out.layer("select.served_rules", stats.served_rules_timeout as f64);
        out.layer("select.refits_installed", installed as f64);
        out.layer("select.refits_rejected", logs[0].rejected as f64);
        out.layer("select.answers_checked", verified as f64);
        probes::run(&mut out, &cluster, &boot, args.seed);
        out.excluded_s = excluded.elapsed().as_secs_f64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn args() -> ChildArgs {
        ChildArgs {
            workload: Workload::ServeCalm,
            seed: 7,
            budget_s: 0.2,
            mode: Mode::Plain,
            thorough: false,
            trace_path: None,
        }
    }

    /// The run must fail when the oracle is corrupted: tuned answers are
    /// then compared with the fixed rules, which they differ from.
    #[test]
    fn a_corrupted_oracle_fails_the_run() {
        crate::surface::set_thread_override(crate::sizes::POOL_WIDTH);
        let tracer = Tracer::new(false, 7);
        let healthy = serve(&args(), &tracer, false, Oracle::Registry);
        assert_eq!(healthy.failed, 0, "{:?}", healthy.checks);
        assert!(healthy.checks.iter().all(|c| c.ok), "{:?}", healthy.checks);
        let corrupted = serve(&args(), &tracer, false, Oracle::FixedRulesOnly);
        assert!(corrupted.failed > 0);
        assert!(corrupted.checks.iter().any(|c| !c.ok));
    }
}
