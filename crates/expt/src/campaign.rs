//! Rendering of adaptive-campaign reports: per-collective coverage
//! accounting (grid cells vs measured cells vs simulated batches) in
//! the same text/CSV/JSON shapes as the other experiment artifacts.

use crate::report::{format_csv, format_table};
use collsel::estim::memo_counters;
use collsel::{CampaignPlan, CampaignReport, CampaignStrategy};
use collsel_support::Json;

/// A campaign report paired with the plan that produced it, ready to
/// render.
#[derive(Debug, Clone)]
pub struct CampaignSummary<'a> {
    plan: &'a CampaignPlan,
    report: &'a CampaignReport,
}

/// Column headers shared by the text and CSV renderings.
const HEADERS: [&str; 6] = [
    "collective",
    "grid_cells",
    "measured",
    "interpolated",
    "batches",
    "reduction",
];

impl<'a> CampaignSummary<'a> {
    /// Pairs a plan with its report.
    pub fn new(plan: &'a CampaignPlan, report: &'a CampaignReport) -> Self {
        CampaignSummary { plan, report }
    }

    /// One row per collective, plus a `total` row.
    fn rows(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .report
            .per_collective
            .iter()
            .map(|s| {
                vec![
                    s.collective.to_string(),
                    s.grid_cells.to_string(),
                    s.measured_cells.to_string(),
                    (s.grid_cells - s.measured_cells.min(s.grid_cells)).to_string(),
                    s.simulated_batches.to_string(),
                    format!(
                        "{:.2}x",
                        s.grid_cells as f64 / s.measured_cells.max(1) as f64
                    ),
                ]
            })
            .collect();
        let (grid, measured) = (self.report.grid_cells(), self.report.measured_cells());
        rows.push(vec![
            "total".to_owned(),
            grid.to_string(),
            measured.to_string(),
            (grid - measured.min(grid)).to_string(),
            self.report.simulated_batches().to_string(),
            format!("{:.2}x", self.report.cell_reduction()),
        ]);
        rows
    }

    /// The strategy line shown above the text table.
    fn strategy_label(&self) -> String {
        match self.plan.strategy {
            CampaignStrategy::Exhaustive => "exhaustive".to_owned(),
            CampaignStrategy::Adaptive {
                anchor_step,
                leader_early_stop,
            } => format!(
                "adaptive (anchor_step={anchor_step}, early_stop={leader_early_stop}, \
                 decisive_margin={})",
                self.plan.decisive_margin
            ),
        }
    }

    /// Aligned text table with a strategy header line.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "campaign strategy: {}{}\n",
            self.strategy_label(),
            if self.report.budget_exhausted {
                " [budget exhausted]"
            } else {
                ""
            }
        );
        out.push_str(&format_table(&HEADERS, &self.rows()));
        out
    }

    /// CSV with the same columns as the text table.
    pub fn to_csv(&self) -> String {
        format_csv(&HEADERS, &self.rows())
    }

    /// JSON object embedding the plan shape, the per-collective cost
    /// accounting and the headline totals (the shape `colltune`
    /// attaches as model metadata).
    pub fn to_json(&self) -> Json {
        let per_collective = self
            .report
            .per_collective
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("collective".to_owned(), Json::Str(s.collective.to_string())),
                    ("grid_cells".to_owned(), Json::Num(s.grid_cells as f64)),
                    (
                        "measured_cells".to_owned(),
                        Json::Num(s.measured_cells as f64),
                    ),
                    (
                        "simulated_batches".to_owned(),
                        Json::Num(s.simulated_batches as f64),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("strategy".to_owned(), Json::Str(self.strategy_label())),
            (
                "collectives".to_owned(),
                Json::Num(self.plan.collectives.len() as f64),
            ),
            (
                "comm_sizes".to_owned(),
                Json::Num(self.plan.comm_sizes.len() as f64),
            ),
            (
                "msg_sizes".to_owned(),
                Json::Num(self.plan.msg_sizes.len() as f64),
            ),
            (
                "grid_cells".to_owned(),
                Json::Num(self.report.grid_cells() as f64),
            ),
            (
                "measured_cells".to_owned(),
                Json::Num(self.report.measured_cells() as f64),
            ),
            (
                "simulated_batches".to_owned(),
                Json::Num(self.report.simulated_batches() as f64),
            ),
            (
                "cell_reduction".to_owned(),
                Json::Num(self.report.cell_reduction()),
            ),
            (
                "budget_exhausted".to_owned(),
                Json::Bool(self.report.budget_exhausted),
            ),
            ("per_collective".to_owned(), Json::Arr(per_collective)),
            ("memo".to_owned(), memo_json()),
        ])
    }
}

/// Snapshot of the process-wide measurement memo counters — the
/// compiled-DAG cell and step caches, the collective templates steps
/// are composed from and the shared payload store — attached to
/// campaign accounting and to `colltune replay --json` so cache
/// effectiveness lands in the same artifact as the totals it explains.
/// The counters are monotonic since process start; a campaign or replay
/// that is the process's only workload reads them as its own hit/miss
/// ledger.
pub fn memo_json() -> Json {
    let c = memo_counters();
    Json::Obj(vec![
        ("dag_hits".to_owned(), Json::Num(c.dag_hits as f64)),
        ("dag_misses".to_owned(), Json::Num(c.dag_misses as f64)),
        (
            "template_hits".to_owned(),
            Json::Num(c.template_hits as f64),
        ),
        (
            "template_misses".to_owned(),
            Json::Num(c.template_misses as f64),
        ),
        ("payload_hits".to_owned(), Json::Num(c.payload_hits as f64)),
        (
            "payload_misses".to_owned(),
            Json::Num(c.payload_misses as f64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel::coll::Collective;
    use collsel::netsim::{ClusterModel, NoiseParams};
    use collsel::{Tuner, TunerConfig};

    fn summary_fixture() -> (CampaignPlan, CampaignReport) {
        let tuner = Tuner::new(
            ClusterModel::gros().with_noise(NoiseParams::OFF),
            TunerConfig::quick(8),
        );
        let plan = CampaignPlan::adaptive(
            vec![Collective::Scatter],
            vec![4, 8],
            vec![1024, 4096, 16384, 65536],
            2,
        );
        let report = tuner.run_campaign(&plan, None);
        (plan, report)
    }

    #[test]
    fn text_table_has_per_collective_and_total_rows() {
        let (plan, report) = summary_fixture();
        let text = CampaignSummary::new(&plan, &report).to_text();
        assert!(text.contains("campaign strategy: adaptive"));
        assert!(text.contains("scatter"));
        assert!(text.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn csv_matches_grid_accounting() {
        let (plan, report) = summary_fixture();
        let csv = CampaignSummary::new(&plan, &report).to_csv();
        let total = csv.lines().last().unwrap();
        assert!(total.starts_with(&format!(
            "total,{},{}",
            report.grid_cells(),
            report.measured_cells()
        )));
    }

    #[test]
    fn json_embeds_headline_totals() {
        let (plan, report) = summary_fixture();
        let json = CampaignSummary::new(&plan, &report).to_json();
        assert_eq!(
            json.get("grid_cells").and_then(Json::as_f64),
            Some(report.grid_cells() as f64)
        );
        assert_eq!(
            json.get("budget_exhausted"),
            Some(&Json::Bool(report.budget_exhausted))
        );
        assert!(json.get("per_collective").is_some());
        let memo = json.get("memo").expect("memo counters attached");
        for key in [
            "dag_hits",
            "dag_misses",
            "template_hits",
            "template_misses",
            "payload_hits",
            "payload_misses",
        ] {
            assert!(memo.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
    }
}
