//! Per-collective selection comparison — the Table 3 methodology
//! widened to the full collective breadth: for every `(collective, m)`
//! cell at one process count, the measured best algorithm of the
//! family, the model-based multi selector's pick, and the fixed-rules
//! pick, with percentage degradations vs best.
//!
//! Like [`sweep`](crate::sweep), the whole
//! (collective × message size × algorithm) grid — plus the extra cells
//! for picks whose segment size differs from the grid's — is flattened
//! into a single batch over the current [`Pool`], with per-cell seeds
//! derived from grid position, so the report is bit-identical at any
//! thread count and on either backend.

use crate::report::{format_csv, format_table, size_label};
use collsel::coll::{Alg, Collective};
use collsel::estim::{measure_batch, Precision, TimedProgram};
use collsel::mpi::Backend;
use collsel::netsim::ClusterModel;
use collsel::select::analysis::{summarise, SelectorSummary};
use collsel::select::{fixed_selection, CollSelection, CollectiveSelector};
use collsel::TunedModel;
use collsel_support::pool::Pool;
use std::collections::BTreeMap;

/// Everything measured and decided at one `(collective, m)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BreadthPoint {
    /// Message size in bytes ([`run_collective`]'s convention: total
    /// vector for rooted/reduction collectives, per-rank block for the
    /// all-to-all family).
    ///
    /// [`run_collective`]: collsel::coll::run_collective
    pub m: usize,
    /// Measured mean time of every algorithm of the family at the
    /// report's fixed segment size.
    pub times: BTreeMap<Alg, f64>,
    /// The measured best algorithm at the fixed segment size.
    pub best: Alg,
    /// Its time in seconds.
    pub best_time: f64,
    /// The model-based multi selector's pick.
    pub model_pick: CollSelection,
    /// Measured time of the model pick (at its own segment size when it
    /// differs from the grid's).
    pub model_time: f64,
    /// The fixed-rules pick.
    pub fixed_pick: CollSelection,
    /// Measured time of the fixed-rules pick.
    pub fixed_time: f64,
}

impl BreadthPoint {
    /// Degradation of the model-based pick vs best, percent.
    pub fn model_degradation_pct(&self) -> f64 {
        100.0 * (self.model_time - self.best_time) / self.best_time
    }

    /// Degradation of the fixed-rules pick vs best, percent.
    pub fn fixed_degradation_pct(&self) -> f64 {
        100.0 * (self.fixed_time - self.best_time) / self.best_time
    }
}

/// One collective's column: its message-size sweep plus summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BreadthColumn {
    /// The collective.
    pub collective: Collective,
    /// One point per message size, ascending.
    pub points: Vec<BreadthPoint>,
    /// Summary of the model-based degradations.
    pub model_summary: SelectorSummary,
    /// Summary of the fixed-rules degradations.
    pub fixed_summary: SelectorSummary,
}

/// The per-collective comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct BreadthResult {
    /// Cluster name.
    pub cluster: String,
    /// Process count of the report.
    pub p: usize,
    /// Fixed segment size of the grid measurements.
    pub seg_size: usize,
    /// One column per requested collective.
    pub columns: Vec<BreadthColumn>,
}

/// `MPI_Allreduce`-style display label of a collective.
fn mpi_label(c: Collective) -> String {
    let name = c.name();
    let mut out = String::from("MPI_");
    let mut chars = name.chars();
    if let Some(first) = chars.next() {
        out.extend(first.to_uppercase());
    }
    out.push_str(chars.as_str());
    out
}

impl BreadthResult {
    /// Renders the aligned text tables (one block per collective).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "Breadth — per-collective selections vs the measured best\n\
             (P = {}, {}; degradation vs best, in percent, in parentheses)\n",
            self.p, self.cluster
        );
        for col in &self.columns {
            out.push_str(&format!("\n{}\n", mpi_label(col.collective)));
            let rows: Vec<Vec<String>> = col
                .points
                .iter()
                .map(|pt| {
                    vec![
                        size_label(pt.m),
                        pt.best.name().to_owned(),
                        format!(
                            "{} ({:.0})",
                            pt.model_pick.alg.name(),
                            pt.model_degradation_pct()
                        ),
                        format!(
                            "{} ({:.0})",
                            pt.fixed_pick.alg.name(),
                            pt.fixed_degradation_pct()
                        ),
                    ]
                })
                .collect();
            out.push_str(&format_table(
                &["m", "best", "model-based (%)", "fixed rules (%)"],
                &rows,
            ));
            out.push_str(&format!(
                "model-based: near-optimal {:.0}% of cases, worst {:.0}%; \
                 fixed rules: near-optimal {:.0}% of cases, worst {:.0}%\n",
                100.0 * col.model_summary.near_optimal_fraction,
                col.model_summary.max_degradation_pct,
                100.0 * col.fixed_summary.near_optimal_fraction,
                col.fixed_summary.max_degradation_pct,
            ));
        }
        out
    }

    /// Renders the CSV artifact (one row per `(collective, m)` cell).
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .columns
            .iter()
            .flat_map(|col| {
                col.points.iter().map(|pt| {
                    vec![
                        col.collective.name().to_owned(),
                        self.p.to_string(),
                        pt.m.to_string(),
                        pt.best.name().to_owned(),
                        pt.model_pick.alg.name().to_owned(),
                        format!("{:.2}", pt.model_degradation_pct()),
                        pt.fixed_pick.alg.name().to_owned(),
                        format!("{:.2}", pt.fixed_degradation_pct()),
                    ]
                })
            })
            .collect();
        format_csv(
            &[
                "collective",
                "p",
                "m_bytes",
                "best",
                "model_pick",
                "model_degradation_pct",
                "fixed_pick",
                "fixed_degradation_pct",
            ],
            &rows,
        )
    }
}

/// One cell's measurement plan: where its family grid landed in the
/// flattened cell list, plus the extra slots (if any) of the picks
/// measured at their own segment sizes.
struct PointPlan {
    m: usize,
    seed: u64,
    grid_start: usize,
    family: &'static [Alg],
    model_pick: CollSelection,
    fixed_pick: CollSelection,
    model_slot: Option<usize>,
    fixed_slot: Option<usize>,
}

/// Runs the per-collective comparison at one process count.
///
/// Decisions are pure, so both picks are known before anything is
/// measured; picks whose effective segment size differs from the grid's
/// get an extra measurement cell appended after the grid.
///
/// # Panics
///
/// Panics if `collectives` or `msg_sizes` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_breadth(
    cluster: &ClusterModel,
    model: &TunedModel,
    collectives: &[Collective],
    p: usize,
    msg_sizes: &[usize],
    seg_size: usize,
    precision: &Precision,
    backend: Backend,
    seed: u64,
) -> BreadthResult {
    assert!(!collectives.is_empty(), "no collectives requested");
    assert!(!msg_sizes.is_empty(), "no message sizes requested");
    let selector = model.multi_selector();
    let cell = |alg, m, seg_size, seed| {
        let program = TimedProgram::Collective {
            alg,
            p,
            m,
            seg_size,
        };
        (program, seed)
    };
    let mut cells: Vec<(TimedProgram, u64)> = Vec::new();
    let mut plans: Vec<PointPlan> = Vec::new();
    for &c in collectives {
        let family = c.algorithms();
        for (i, &m) in msg_sizes.iter().enumerate() {
            let point_seed = seed
                .wrapping_add((c.index() as u64) << 28)
                .wrapping_add((i as u64) << 20);
            let grid_start = cells.len();
            for (j, &alg) in family.iter().enumerate() {
                cells.push(cell(
                    alg,
                    m,
                    seg_size,
                    point_seed.wrapping_add(j as u64 * 65537),
                ));
            }
            plans.push(PointPlan {
                m,
                seed: point_seed,
                grid_start,
                family,
                model_pick: selector.select_for(c, p, m),
                fixed_pick: fixed_selection(c, p, m),
                model_slot: None,
                fixed_slot: None,
            });
        }
    }
    // Extra cells for picks measured at their own segment sizes.
    for plan in &mut plans {
        if plan.model_pick.effective_seg_size(plan.m) != seg_size {
            plan.model_slot = Some(cells.len());
            cells.push(cell(
                plan.model_pick.alg,
                plan.m,
                plan.model_pick.effective_seg_size(plan.m),
                plan.seed.wrapping_add(0xA0),
            ));
        }
        if plan.fixed_pick.effective_seg_size(plan.m) != seg_size {
            plan.fixed_slot = Some(cells.len());
            cells.push(cell(
                plan.fixed_pick.alg,
                plan.m,
                plan.fixed_pick.effective_seg_size(plan.m),
                plan.seed.wrapping_add(0xB0),
            ));
        }
    }

    let stats = measure_batch(cluster, &cells, precision, Pool::current(), backend);

    let per = msg_sizes.len();
    let columns = collectives
        .iter()
        .enumerate()
        .map(|(ci, &c)| {
            let points: Vec<BreadthPoint> = plans[ci * per..(ci + 1) * per]
                .iter()
                .map(|plan| {
                    let times: BTreeMap<Alg, f64> = plan
                        .family
                        .iter()
                        .zip(&stats[plan.grid_start..])
                        .map(|(&alg, s)| (alg, s.mean))
                        .collect();
                    let (&best, &best_time) = times
                        .iter()
                        .min_by(|a, b| a.1.total_cmp(b.1))
                        .expect("every collective has at least one algorithm");
                    let model_time = match plan.model_slot {
                        Some(slot) => stats[slot].mean,
                        None => times[&plan.model_pick.alg],
                    };
                    let fixed_time = match plan.fixed_slot {
                        Some(slot) => stats[slot].mean,
                        None => times[&plan.fixed_pick.alg],
                    };
                    BreadthPoint {
                        m: plan.m,
                        times,
                        best,
                        best_time,
                        model_pick: plan.model_pick,
                        model_time,
                        fixed_pick: plan.fixed_pick,
                        fixed_time,
                    }
                })
                .collect();
            let model_deg: Vec<f64> = points
                .iter()
                .map(BreadthPoint::model_degradation_pct)
                .collect();
            let fixed_deg: Vec<f64> = points
                .iter()
                .map(BreadthPoint::fixed_degradation_pct)
                .collect();
            BreadthColumn {
                collective: c,
                model_summary: summarise(&model_deg),
                fixed_summary: summarise(&fixed_deg),
                points,
            }
        })
        .collect();
    BreadthResult {
        cluster: cluster.name().to_owned(),
        p,
        seg_size,
        columns,
    }
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(BreadthPoint {
    m,
    times,
    best,
    best_time,
    model_pick,
    model_time,
    fixed_pick,
    fixed_time
});
collsel_support::json_struct!(BreadthColumn {
    collective,
    points,
    model_summary,
    fixed_summary
});
collsel_support::json_struct!(BreadthResult {
    cluster,
    p,
    seg_size,
    columns
});

#[cfg(test)]
mod tests {
    use super::*;
    use collsel::netsim::NoiseParams;
    use collsel::{Tuner, TunerConfig};

    fn quick_model(cluster: &ClusterModel, collectives: &[Collective]) -> TunedModel {
        Tuner::new(cluster.clone(), TunerConfig::quick(12)).tune_collectives(collectives)
    }

    #[test]
    fn breadth_point_invariants() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let collectives = [Collective::Reduce, Collective::Alltoall];
        let model = quick_model(&cluster, &collectives);
        let result = run_breadth(
            &cluster,
            &model,
            &collectives,
            16,
            &[8 * 1024, 512 * 1024],
            64 * 1024,
            &Precision::quick(),
            Backend::default(),
            11,
        );
        assert_eq!(result.columns.len(), 2);
        for col in &result.columns {
            assert_eq!(col.points.len(), 2);
            for pt in &col.points {
                // Every pick belongs to the column's collective.
                assert_eq!(pt.model_pick.alg.collective(), col.collective);
                assert_eq!(pt.fixed_pick.alg.collective(), col.collective);
                // Best is the minimum of the family's measured table.
                assert!(
                    pt.best_time <= pt.times.values().fold(f64::INFINITY, |a, &b| a.min(b)) + 1e-12
                );
                assert!(pt.model_degradation_pct() >= -1e-9);
                assert!(pt.fixed_degradation_pct() >= -1e-9);
                assert!(pt.fixed_time > 0.0);
            }
        }
        let text = result.to_text();
        assert!(text.contains("MPI_Reduce"));
        assert!(text.contains("MPI_Alltoall"));
        assert_eq!(result.to_csv().lines().count(), 5);
    }

    #[test]
    fn breadth_report_is_backend_and_json_stable() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let collectives = [Collective::Scatter];
        let model = quick_model(&cluster, &collectives);
        let run = |backend| {
            run_breadth(
                &cluster,
                &model,
                &collectives,
                8,
                &[16 * 1024],
                64 * 1024,
                &Precision::quick(),
                backend,
                7,
            )
        };
        let dag = run(Backend::Dag);
        let threads = run(Backend::Threads);
        // Both backends execute the same programs: bit-identical.
        assert_eq!(dag, threads);
        // JSON round-trip preserves the report exactly.
        let json = collsel_support::ToJson::to_json(&dag).to_string();
        let parsed = collsel_support::Json::parse(&json).unwrap();
        let back: BreadthResult = collsel_support::FromJson::from_json(&parsed).unwrap();
        assert_eq!(back, dag);
    }
}
