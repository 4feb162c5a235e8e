//! `tune-cold` and `refit-warm`: cluster description → tuned model →
//! model JSON → compiled table, first in a cold process and then again
//! and again on a warm memo.

use super::{timed, ChildArgs, Mode, Outcome};
use crate::probes;
use crate::sizes::{HELD_OUT_M, HELD_OUT_P, TUNE_P};
use crate::surface::{
    compile_timed_bcast_gather, compile_timed_collective, compile_timed_linear_segment,
    estimate_all_alpha_beta, estimate_collective_family, estimate_gamma, measure_family_cell,
    memo_counters, Alg, Backend, BcastAlg, CampaignPlan, ClusterModel, Collective,
    CollectiveSelector, CompiledCollectiveSelector, DagEvaluator, FromJson, Json, Pool, Precision,
    Schedule, ServerConfig, SimOptions, TimingDag, ToJson, TunedModel, Tuner, TunerConfig,
    BREADTH_SEG_SIZE,
};
use crate::trace::{SpanId, Tracer};
use std::sync::Arc;
use std::time::Instant;

pub fn tuner(cluster: &ClusterModel, seed: u64) -> Tuner {
    let mut config = TunerConfig::quick(TUNE_P);
    config.seed = seed;
    Tuner::new(cluster.clone(), config)
}

/// FNV-1a over the model JSON: a compact witness that two runs tuned
/// the same model.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (valid, total) algorithm fits of a tuned model.
pub fn fit_counts(model: &TunedModel) -> (u64, u64) {
    let validity = model.multi_validity();
    let valid = validity.values().filter(|v| v.is_valid()).count();
    (valid as u64, validity.len() as u64)
}

/// Every (collective, P, m) point of the deployment grid tables are
/// compiled over (the server's default grids).
pub fn grid_points() -> Vec<(Collective, usize, usize)> {
    let config = ServerConfig::default();
    let mut points = Vec::new();
    for c in Collective::ALL {
        for &p in &config.comm_sizes {
            for &m in &config.msg_sizes {
                points.push((c, p, m));
            }
        }
    }
    points
}

/// One cluster's journey from description to servable table.
pub struct Journey {
    pub model: TunedModel,
    pub json: String,
    pub back: TunedModel,
    pub table: CompiledCollectiveSelector,
}

pub fn journey(
    tracer: &Tracer,
    parent: Option<SpanId>,
    cluster: &ClusterModel,
    seed: u64,
) -> Journey {
    let (model, _) = tracer.span("core", "tune_all", parent, |_| {
        tuner(cluster, seed).tune_all()
    });
    let (json, _) = tracer.span("support", "json_write", parent, |_| {
        model.to_json().to_string_pretty()
    });
    let (back, _) = tracer.span("support", "json_parse", parent, |_| {
        let value = Json::parse(&json).expect("the library reads the JSON it wrote");
        TunedModel::from_json(&value).expect("the library decodes the model it wrote")
    });
    let (table, _) = tracer.span("core", "table_compile", parent, |_| {
        back.compiled_multi_selector_default()
    });
    Journey {
        model,
        json,
        back,
        table,
    }
}

/// The paper's quality figure on a held-out grid.
pub struct Quality {
    /// Mean over cells of `(t_selected − t_best) / t_best`, in percent.
    pub degradation_pct: f64,
    /// Mean over cells of `t_best / t_selected`, in percent (never 0).
    pub efficiency_pct: f64,
}

/// Scores `table`'s picks against measured family cells at points that
/// are not on the tuning grid. A pure function of its arguments.
pub fn selection_quality(
    cluster: &ClusterModel,
    model: &TunedModel,
    table: &CompiledCollectiveSelector,
    seed: u64,
) -> Quality {
    let precision = Precision::quick();
    let mut jobs = Vec::new();
    for c in Collective::ALL {
        for p in HELD_OUT_P {
            for m in HELD_OUT_M {
                let precision = &precision;
                jobs.push(move || {
                    let seg = if c == Collective::Bcast {
                        model.seg_size
                    } else {
                        BREADTH_SEG_SIZE
                    };
                    let cell_seed = seed
                        .wrapping_add((c.index() as u64) << 48)
                        .wrapping_add((p as u64) << 40)
                        .wrapping_add(m as u64);
                    let cell = measure_family_cell(
                        cluster,
                        c,
                        p,
                        m,
                        seg,
                        precision,
                        cell_seed,
                        Backend::Dag,
                        false,
                    );
                    let pick = table.lookup(c, p, m).alg;
                    let t_best = cell.stats[cell.winner].mean;
                    // A pick outside the family cannot happen for a
                    // compiled table; score it as the family's worst.
                    let t_selected = c
                        .algorithms()
                        .iter()
                        .position(|&a| a == pick)
                        .map(|i| cell.stats[i].mean)
                        .unwrap_or_else(|| {
                            cell.stats.iter().map(|s| s.mean).fold(t_best, f64::max)
                        });
                    (t_selected, t_best)
                });
            }
        }
    }
    let cells = Pool::current().run(jobs);
    let n = cells.len() as f64;
    Quality {
        degradation_pct: 100.0 * cells.iter().map(|(s, b)| (s - b) / b).sum::<f64>() / n,
        efficiency_pct: 100.0 * cells.iter().map(|(s, b)| b / s).sum::<f64>() / n,
    }
}

/// The correctness checks of one journey.
fn check_journey(out: &mut Outcome, cluster: &ClusterModel, j: &Journey) {
    let name = cluster.name();
    out.check(
        &format!("{name}: model JSON round-trips to an equal model"),
        j.back == j.model,
        format!("{} bytes", j.json.len()),
    );
    let live = j.model.multi_selector();
    let points = grid_points();
    let differing = points
        .iter()
        .filter(|&&(c, p, m)| j.table.lookup(c, p, m) != live.select_for(c, p, m))
        .count();
    out.check(
        &format!("{name}: compiled table equals the live selector on the grid"),
        differing == 0,
        format!("{differing} of {} grid points differ", points.len()),
    );
}

/// Three small family cells must measure bit-identically on the DAG
/// tier and on the thread-per-rank oracle.
fn check_backends_agree(out: &mut Outcome, cluster: &ClusterModel, seed: u64) {
    let precision = Precision::quick();
    for (c, p, m) in [
        (Collective::Bcast, 4usize, 8 * 1024usize),
        (Collective::Allreduce, 6, 4 * 1024),
        (Collective::Alltoall, 4, 2 * 1024),
    ] {
        let cell = |backend| {
            measure_family_cell(cluster, c, p, m, 8 * 1024, &precision, seed, backend, false)
        };
        let (dag, threads) = (cell(Backend::Dag), cell(Backend::Threads));
        out.check(
            &format!("{c} P={p} m={m}: dag and threads cells are bit-identical"),
            dag == threads,
            format!("winner {} vs {}", dag.winner, threads.winner),
        );
    }
}

/// `tune-cold`: for gros then grisou, tune → write → parse → compile.
pub fn tune_cold(args: &ChildArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let clusters = [ClusterModel::gros(), ClusterModel::grisou()];
    let memo_before = memo_counters();
    let mut memo_first = memo_before;
    let (journeys, timed_section) = timed(|| {
        tracer
            .span("bench", "tune-cold pass", None, |pass| {
                clusters
                    .iter()
                    .enumerate()
                    .map(|(i, cluster)| {
                        let j = journey(tracer, pass, cluster, args.seed);
                        if i == 0 {
                            memo_first = memo_counters().since(memo_before);
                        }
                        j
                    })
                    .collect::<Vec<Journey>>()
            })
            .0
    });
    let memo = memo_counters().since(memo_before);
    out.timed = timed_section;
    out.ops = 1;
    out.latencies_s = vec![timed_section.wall_s];

    for (cluster, j) in clusters.iter().zip(&journeys) {
        let (valid, total) = fit_counts(&j.model);
        out.attempted += total;
        out.failed += total - valid;
        check_journey(&mut out, cluster, j);
        out.exact.insert(
            format!("model_digest.{}", cluster.name()),
            format!("{:016x}", digest(&j.json)),
        );
    }
    // Schedules are cluster-independent, so the second preset may reuse
    // what the first recorded; the first must find the memo empty.
    out.check(
        "tune-cold: the first preset starts on an empty memo",
        memo_first.dag_hits == 0 && memo_first.dag_misses > 0,
        format!(
            "{} hits, {} misses",
            memo_first.dag_hits, memo_first.dag_misses
        ),
    );

    let excluded = Instant::now();
    if args.thorough {
        check_backends_agree(&mut out, &clusters[0], args.seed);
        let mut efficiency = 0.0;
        let mut degradation = 0.0;
        for (cluster, j) in clusters.iter().zip(&journeys) {
            let q = selection_quality(cluster, &j.model, &j.table, args.seed);
            efficiency += q.efficiency_pct / clusters.len() as f64;
            degradation += q.degradation_pct / clusters.len() as f64;
        }
        out.quality_pct = Some(efficiency);
        out.exact_layer("core.selection_degradation_pct", degradation);
    }
    if args.mode == Mode::Traced {
        out.exact_layer("estim.fits_valid", (out.attempted - out.failed) as f64);
        out.exact_layer("estim.fits_total", out.attempted as f64);
        out.exact_layer("estim.memo_hits", memo.dag_hits as f64);
        out.exact_layer("estim.memo_misses", memo.dag_misses as f64);
        out.exact_layer(
            "estim.memo_hit_ratio",
            hit_ratio(memo.dag_hits, memo.dag_misses),
        );
        out.exact_layer("support.payload_hits", memo.payload_hits as f64);
        out.exact_layer("support.payload_misses", memo.payload_misses as f64);
        out.layer("core.tune_all_s", tracer.named_total_s("tune_all"));
        campaign_pair(&mut out, &clusters[0], args.seed);
        probes::run(&mut out, &clusters[0], &journeys[0].model, args.seed);
    }
    out.excluded_s = excluded.elapsed().as_secs_f64();
    out
}

pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// `refit-warm`: one priming tune, then refits at fresh seeds for the
/// budgeted time. The memo answers every cell, so no schedule is
/// recorded in the timed section.
pub fn refit_warm(args: &ChildArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cluster = ClusterModel::gros();
    let prime = journey(tracer, None, &cluster, args.seed);
    let points = grid_points();

    let memo_before = memo_counters();
    let mut latencies = Vec::new();
    let mut agreeing = 0u64;
    let mut compared = 0u64;
    let mut fits = (0u64, 0u64);
    let (_, timed_section) = timed(|| {
        let started = Instant::now();
        let mut i = 0u64;
        while started.elapsed().as_secs_f64() < args.budget_s || i == 0 {
            i += 1;
            let refit_seed = args.seed.wrapping_add(i);
            let ((model, table), secs) = tracer.span("bench", "refit", None, |refit| {
                let (model, _) = tracer.span("core", "tune_all", refit, |_| {
                    tuner(&cluster, refit_seed).tune_all()
                });
                let (table, _) = tracer.span("core", "table_compile", refit, |_| {
                    model.compiled_multi_selector_default()
                });
                (model, table)
            });
            latencies.push(secs);
            // Bookkeeping outside the latency sample (~30 µs against a
            // 6 ms refit): validity of the fits, and how stable the
            // refit's decisions are against the priming table.
            let (valid, total) = fit_counts(&model);
            fits = (fits.0 + valid, fits.1 + total);
            compared += points.len() as u64;
            agreeing += points
                .iter()
                .filter(|&&(c, p, m)| table.lookup(c, p, m) == prime.table.lookup(c, p, m))
                .count() as u64;
        }
    });
    let memo = memo_counters().since(memo_before);
    out.timed = timed_section;
    out.ops = latencies.len() as u64;
    out.latencies_s = latencies;
    out.attempted = fits.1;
    out.failed = fits.1 - fits.0;
    out.quality_pct = Some(100.0 * agreeing as f64 / compared as f64);

    out.check(
        "refit-warm: no schedule recorded in the timed section",
        memo.dag_misses == 0 && memo.dag_hits > 0,
        format!("{} hits, {} misses", memo.dag_hits, memo.dag_misses),
    );
    let again = tuner(&cluster, args.seed).tune_all();
    out.check(
        "refit-warm: a refit at the priming seed reproduces the priming model",
        again == prime.model,
        format!("digest {:016x}", digest(&prime.json)),
    );
    out.exact.insert(
        "model_digest.gros".to_string(),
        format!("{:016x}", digest(&prime.json)),
    );

    if args.mode == Mode::Traced {
        let excluded = Instant::now();
        let ops = out.ops as f64;
        out.exact_layer("estim.memo_misses", memo.dag_misses as f64);
        out.exact_layer(
            "estim.memo_hit_ratio",
            hit_ratio(memo.dag_hits, memo.dag_misses),
        );
        out.layer("estim.memo_hits", memo.dag_hits as f64 / ops);
        out.layer("estim.fits_valid", fits.0 as f64 / ops);
        out.layer("estim.fits_total", fits.1 as f64 / ops);
        out.layer("core.tune_all_s", tracer.named_total_s("tune_all") / ops);
        probes::run(&mut out, &cluster, &prime.model, args.seed);
        out.excluded_s = excluded.elapsed().as_secs_f64();
    }
    out
}

/// One small exhaustive/adaptive campaign pair on a warm memo: the
/// batch counts are exact, and the two walls show what the batch saving
/// is worth once recording is out of the picture.
fn campaign_pair(out: &mut Outcome, cluster: &ClusterModel, seed: u64) {
    let tuner = tuner(cluster, seed);
    let sizes: Vec<usize> = (0..8).map(|i| 1024usize << i).collect();
    let plan = |adaptive: bool| {
        let mut plan = if adaptive {
            CampaignPlan::adaptive(Collective::ALL.to_vec(), vec![TUNE_P], sizes.clone(), 3)
        } else {
            CampaignPlan::exhaustive(Collective::ALL.to_vec(), vec![TUNE_P], sizes.clone())
        };
        plan.seed = seed;
        plan
    };
    // Priming pass: records every cell either strategy can touch.
    let primed = tuner.run_campaign(&plan(false), None);
    let started = Instant::now();
    let exhaustive = tuner.run_campaign(&plan(false), None);
    let exhaustive_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let adaptive = tuner.run_campaign(&plan(true), None);
    let adaptive_s = started.elapsed().as_secs_f64();
    out.check(
        "campaign: the adaptive tables equal the exhaustive tables",
        adaptive.tables == exhaustive.tables && primed.tables == exhaustive.tables,
        format!(
            "{} vs {} batches",
            adaptive.simulated_batches(),
            exhaustive.simulated_batches()
        ),
    );
    out.layer("core.campaign_exhaustive_warm_s", exhaustive_s);
    out.layer("core.campaign_adaptive_warm_s", adaptive_s);
    out.exact_layer(
        "core.campaign_batches_exhaustive",
        exhaustive.simulated_batches() as f64,
    );
    out.exact_layer(
        "core.campaign_batches_adaptive",
        adaptive.simulated_batches() as f64,
    );
}

/// One measurement cell of the tuning grid, as the raw layers see it.
#[derive(Debug, Clone, Copy)]
enum Cell {
    LinearSegment { p: usize },
    BcastGather { alg: BcastAlg, m: usize, m_g: usize },
    Collective { alg: Alg, m: usize },
}

/// What walking one cell through record → compile → evaluate cost.
#[derive(Debug, Default, Clone, Copy)]
struct CellCost {
    record_s: f64,
    compile_s: f64,
    eval_s: f64,
    sched_ops: u64,
    dag_ops: u64,
    dag_edges: u64,
    bookings: u64,
    runs: u64,
}

impl CellCost {
    fn add(&mut self, other: &CellCost) {
        self.record_s += other.record_s;
        self.compile_s += other.compile_s;
        self.eval_s += other.eval_s;
        self.sched_ops += other.sched_ops;
        self.dag_ops += other.dag_ops;
        self.dag_edges += other.dag_edges;
        self.bookings += other.bookings;
        self.runs += other.runs;
    }

    fn busy_s(&self) -> f64 {
        self.record_s + self.compile_s + self.eval_s
    }
}

/// Records, compiles and evaluates one cell `runs` times through the
/// public layer calls, with a span around each.
fn walk_cell(
    tracer: &Tracer,
    parent: Option<SpanId>,
    cluster: &ClusterModel,
    config: &TunerConfig,
    cell: Cell,
    runs: u64,
) -> CellCost {
    let reps = config.breadth.precision.min_reps;
    let (sched, record_s) = tracer.span("coll", "record", parent, |_| -> Schedule {
        match cell {
            Cell::LinearSegment { p } => compile_timed_linear_segment(
                cluster,
                p,
                0,
                config.gamma.seg_size,
                config.gamma.calls_per_sample,
            ),
            Cell::BcastGather { alg, m, m_g } => compile_timed_bcast_gather(
                cluster,
                alg,
                config.alpha_beta.p,
                0,
                m,
                m_g,
                config.alpha_beta.seg_size,
                reps,
            ),
            Cell::Collective { alg, m } => compile_timed_collective(
                cluster,
                alg,
                config.breadth.p,
                0,
                m,
                config.breadth.seg_size,
                reps,
            ),
        }
        .expect("a measurement program records cleanly")
    });
    let (dag, compile_s) = tracer.span("mpi", "dag_compile", parent, |_| {
        Arc::new(TimingDag::compile(cluster, &sched).expect("a tuning cell fits the DAG tier"))
    });
    let (bookings, eval_s) = tracer.span("mpi", "dag_eval", parent, |_| {
        let mut evaluator = DagEvaluator::new(cluster, Arc::clone(&dag));
        evaluator
            .evaluate_reps(0, runs as usize, SimOptions::default())
            .expect("a measurement program cannot deadlock")
            .iter()
            .map(|run| run.report.messages)
            .sum::<u64>()
    });
    CellCost {
        record_s,
        compile_s,
        eval_s,
        sched_ops: sched.total_ops() as u64,
        dag_ops: dag.op_count() as u64,
        dag_edges: dag.edge_count() as u64,
        bookings,
        runs,
    }
}

/// Traced `tune-cold`, second process: first the three estimation
/// stages called one by one (so each has a wall time), then the same
/// cells — with the evaluation counts the stages reported — walked
/// through the raw layer calls on the same pool, group by group. What
/// the stages cost beyond the walk is `estim`'s own time: statistics,
/// stopping rule, fits, memo and pool bookkeeping.
pub fn stages_and_walk(args: &ChildArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cluster = ClusterModel::gros();
    let tuner = tuner(&cluster, args.seed);
    let config = tuner.config().clone();
    let families: Vec<Collective> = Collective::ALL
        .into_iter()
        .filter(|&c| c != Collective::Bcast)
        .collect();

    let started = Instant::now();
    let (gamma, gamma_s) = tracer.span("estim", "estimate_gamma", None, |_| {
        estimate_gamma(&cluster, &config.gamma, args.seed)
    });
    let (params, alpha_beta_s) = tracer.span("estim", "estimate_all_alpha_beta", None, |_| {
        estimate_all_alpha_beta(
            &cluster,
            &config.alpha_beta,
            &gamma.table,
            args.seed.wrapping_add(1),
        )
    });
    let mut breadth_s = 0.0;
    let mut fits = Vec::new();
    for &c in &families {
        let family_seed = args
            .seed
            .wrapping_add(2)
            .wrapping_add((c.index() as u64) << 40);
        let (family, secs) = tracer.span("estim", "estimate_collective_family", None, |_| {
            estimate_collective_family(&cluster, c, &config.breadth, &gamma.table, family_seed)
        });
        breadth_s += secs;
        fits.push(family);
    }
    let stages_s = started.elapsed().as_secs_f64();

    // The same cells, grouped as the stages batch them onto the pool.
    // A linear-segment run yields one sample, the others `min_reps`.
    let reps = config.breadth.precision.min_reps as u64;
    let mut groups: Vec<Vec<(Cell, u64)>> = Vec::new();
    groups.push(
        gamma
            .t2
            .iter()
            .map(|(p, stats)| (Cell::LinearSegment { p: *p }, stats.n as u64))
            .collect(),
    );
    groups.push(
        params
            .iter()
            .flat_map(|(&alg, est)| {
                est.points.iter().map(move |pt| {
                    let cell = Cell::BcastGather {
                        alg,
                        m: pt.msg_size,
                        m_g: pt.gather_size,
                    };
                    (cell, (pt.measured.n as u64).div_ceil(reps))
                })
            })
            .collect(),
    );
    for family in &fits {
        groups.push(
            family
                .iter()
                .flat_map(|(&alg, est)| {
                    est.points.iter().map(move |pt| {
                        let cell = Cell::Collective {
                            alg,
                            m: pt.msg_size,
                        };
                        (cell, (pt.measured.n as u64).div_ceil(reps))
                    })
                })
                .collect(),
        );
    }

    let mut total = CellCost::default();
    let mut cells = 0u64;
    let (_, walk_timed) = timed(|| {
        tracer.span("bench", "layer walk", None, |walk| {
            for group in &groups {
                let jobs = group.iter().map(|&(cell, runs)| {
                    let (cluster, config) = (&cluster, &config);
                    move || walk_cell(tracer, walk, cluster, config, cell, runs)
                });
                for cost in Pool::current().run(jobs) {
                    total.add(&cost);
                    cells += 1;
                }
            }
        });
    });
    out.timed = walk_timed;

    // Busy seconds were spent on POOL_WIDTH threads at once; scale them
    // so the three layers add up to the walk's wall time.
    let scale = walk_timed.wall_s / total.busy_s();
    let self_s = stages_s - walk_timed.wall_s;
    out.layer("estim.gamma_s", gamma_s);
    out.layer("estim.alpha_beta_s", alpha_beta_s);
    out.layer("estim.breadth_s", breadth_s);
    out.layer("estim.self_s", self_s);
    out.layer("coll.record_s", total.record_s * scale);
    out.layer("mpi.dag_compile_s", total.compile_s * scale);
    out.layer("mpi.dag_eval_s", total.eval_s * scale);
    out.exact_layer("coll.record_cells", cells as f64);
    out.exact_layer("coll.record_ops", total.sched_ops as f64);
    out.exact_layer("mpi.dag_ops", total.dag_ops as f64);
    out.exact_layer("mpi.dag_edges", total.dag_edges as f64);
    out.exact_layer("mpi.dag_eval_runs", total.runs as f64);
    out.exact_layer("netsim.bookings", total.bookings as f64);
    out.check(
        "tune-cold: the layer walk accounts for the stages",
        self_s >= -0.10 * stages_s,
        format!(
            "stages {stages_s:.3} s = record {:.3} + compile {:.3} + evaluate {:.3} + estim self \
             {self_s:.3}",
            total.record_s * scale,
            total.compile_s * scale,
            total.eval_s * scale
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest("model-a"), digest("model-b"));
    }

    #[test]
    fn hit_ratio_handles_an_idle_memo() {
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(hit_ratio(3, 1), 0.75);
    }
}
