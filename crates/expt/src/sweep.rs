//! Shared measurement sweeps: every Fig. 5 panel and Table 3 column is
//! built from the same per-point procedure — measure all six algorithms
//! at the paper's fixed 8 KB segment size, ask each decision function
//! for its pick, and measure the Open MPI pick with its own segment
//! size.

use crate::config::Scenario;
use collsel::coll::{Alg, BcastAlg, Collective};
use collsel::estim::{measure_batch, TimedProgram};
use collsel::select::analysis::MeasuredPoint;
use collsel::select::{fixed_selection, CollSelection, CompiledCollectiveSelector};
use collsel::TunedModel;
use collsel_support::pool::Pool;
use collsel_support::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// Everything measured and decided at one `(p, m)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Process count.
    pub p: usize,
    /// Message size in bytes.
    pub m: usize,
    /// Measured mean time of every algorithm at the fixed segment size.
    pub measured: MeasuredPoint,
    /// The measured best algorithm at the fixed segment size.
    pub best: BcastAlg,
    /// Its time in seconds.
    pub best_time: f64,
    /// The model-based decision's pick.
    pub model_pick: BcastAlg,
    /// Measured time of the model-based pick.
    pub model_time: f64,
    /// The native Open MPI decision (algorithm + its own segment size).
    pub openmpi_pick: CollSelection,
    /// Measured time of the Open MPI pick at its own segment size.
    pub openmpi_time: f64,
}

impl SweepPoint {
    /// Degradation of the model-based pick vs best, percent.
    pub fn model_degradation_pct(&self) -> f64 {
        100.0 * (self.model_time - self.best_time) / self.best_time
    }

    /// Degradation of the Open MPI pick vs best, percent.
    pub fn openmpi_degradation_pct(&self) -> f64 {
        100.0 * (self.openmpi_time - self.best_time) / self.best_time
    }
}

/// One Fig. 5 panel: a full message-size sweep at one process count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPanel {
    /// Cluster name.
    pub cluster: String,
    /// Process count of the panel.
    pub p: usize,
    /// Fixed segment size of the model-based/oracle measurements.
    pub seg_size: usize,
    /// One point per message size, ascending.
    pub points: Vec<SweepPoint>,
}

/// One timed-broadcast cell.
fn bcast_cell(alg: Alg, p: usize, m: usize, seg_size: usize, seed: u64) -> (TimedProgram, u64) {
    let program = TimedProgram::Collective {
        alg,
        p,
        m,
        seg_size,
    };
    (program, seed)
}

/// The broadcast algorithm of a broadcast selection.
fn bcast_alg(pick: CollSelection) -> BcastAlg {
    match pick.alg {
        Alg::Bcast(alg) => alg,
        other => unreachable!("a broadcast decision picked {}", other.qualified_name()),
    }
}

/// The per-algorithm cells of one `(p, m)` point, in [`BcastAlg::ALL`]
/// order, each with its own seed.
fn point_cells(p: usize, m: usize, seg_size: usize, seed: u64) -> Vec<(TimedProgram, u64)> {
    BcastAlg::ALL
        .iter()
        .enumerate()
        .map(|(i, &alg)| {
            bcast_cell(
                Alg::Bcast(alg),
                p,
                m,
                seg_size,
                seed.wrapping_add(i as u64 * 65537),
            )
        })
        .collect()
}

/// Runs the full sweep for one panel.
///
/// The whole (message size × algorithm) grid — plus the extra Open MPI
/// cells for picks whose segment size differs from the panel's — is
/// flattened into a single batch over the current [`Pool`], so the pool
/// load-balances across every cell of the panel at once. Per-cell seeds
/// match the serial per-point loop, keeping the panel bit-identical at
/// any thread count.
pub fn sweep_panel(scenario: &Scenario, tuned: &TunedModel, p: usize, seed: u64) -> SweepPanel {
    // The panel's model picks are served from the compiled decision
    // table — the same serving structure `colltune bench-select`
    // measures — instead of re-ranking all six models at every point.
    // Every queried (p, m) is a grid point of the compilation, where
    // the compiled table agrees exactly with the live selector (the
    // differential suite in tests/service.rs enforces this), so the
    // panel's contents are unchanged.
    let mut msg_grid = scenario.msg_sizes.clone();
    msg_grid.sort_unstable();
    msg_grid.dedup();
    let compiled = CompiledCollectiveSelector::compile(
        &tuned.multi_selector(),
        &[Collective::Bcast],
        &[p],
        &msg_grid,
    );
    let n_alg = BcastAlg::ALL.len();
    let point_seed = |i: usize| seed.wrapping_add((i as u64) << 20);

    // Selection is pure, so the Open MPI picks (and hence which points
    // need an extra differently-segmented measurement) are known before
    // anything is measured.
    let picks: Vec<CollSelection> = scenario
        .msg_sizes
        .iter()
        .map(|&m| fixed_selection(Collective::Bcast, p, m))
        .collect();

    let mut cells = Vec::with_capacity(scenario.msg_sizes.len() * (n_alg + 1));
    for (i, &m) in scenario.msg_sizes.iter().enumerate() {
        cells.extend(point_cells(p, m, scenario.seg_size, point_seed(i)));
    }
    // Extra Open MPI cells are appended after the grid; remember where
    // each point's extra landed (if it needed one).
    let mut extra_slot: Vec<Option<usize>> = Vec::with_capacity(scenario.msg_sizes.len());
    for (i, &m) in scenario.msg_sizes.iter().enumerate() {
        let pick = &picks[i];
        if pick.effective_seg_size(m) == scenario.seg_size {
            extra_slot.push(None);
        } else {
            extra_slot.push(Some(cells.len()));
            cells.push(bcast_cell(
                pick.alg,
                p,
                m,
                pick.effective_seg_size(m),
                point_seed(i).wrapping_add(0xE0),
            ));
        }
    }

    let stats = measure_batch(
        &scenario.cluster,
        &cells,
        &scenario.precision,
        Pool::current(),
    );

    let mut points = Vec::with_capacity(scenario.msg_sizes.len());
    for (i, &m) in scenario.msg_sizes.iter().enumerate() {
        let times: BTreeMap<BcastAlg, f64> = BcastAlg::ALL
            .iter()
            .zip(&stats[i * n_alg..(i + 1) * n_alg])
            .map(|(&alg, s)| (alg, s.mean))
            .collect();
        let measured = MeasuredPoint::new(p, m, times);
        let (best, best_time) = measured.best();
        let model_pick = bcast_alg(compiled.lookup(Collective::Bcast, p, m));
        let model_time = measured.times[&model_pick];
        let openmpi_pick = picks[i];
        let openmpi_time = match extra_slot[i] {
            Some(slot) => stats[slot].mean,
            None => measured.times[&bcast_alg(openmpi_pick)],
        };
        points.push(SweepPoint {
            p,
            m,
            measured,
            best,
            best_time,
            model_pick,
            model_time,
            openmpi_pick,
            openmpi_time,
        });
    }
    SweepPanel {
        cluster: scenario.cluster.name().to_owned(),
        p,
        seg_size: scenario.seg_size,
        points,
    }
}

// JSON persistence (layout-compatible with the former serde derives).
// The Open MPI pick keeps the broadcast layout of the committed Fig. 5
// and Table 3 artifacts: `{"alg": "SplitBinary", "seg_size": 1024}`.
impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        let pick = Json::Obj(vec![
            ("alg".to_owned(), bcast_alg(self.openmpi_pick).to_json()),
            ("seg_size".to_owned(), self.openmpi_pick.seg_size.to_json()),
        ]);
        Json::Obj(vec![
            ("p".to_owned(), self.p.to_json()),
            ("m".to_owned(), self.m.to_json()),
            ("measured".to_owned(), self.measured.to_json()),
            ("best".to_owned(), self.best.to_json()),
            ("best_time".to_owned(), self.best_time.to_json()),
            ("model_pick".to_owned(), self.model_pick.to_json()),
            ("model_time".to_owned(), self.model_time.to_json()),
            ("openmpi_pick".to_owned(), pick),
            ("openmpi_time".to_owned(), self.openmpi_time.to_json()),
        ])
    }
}
impl FromJson for SweepPoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pick = v.field("openmpi_pick")?;
        Ok(SweepPoint {
            p: FromJson::from_json(v.field("p")?)?,
            m: FromJson::from_json(v.field("m")?)?,
            measured: FromJson::from_json(v.field("measured")?)?,
            best: FromJson::from_json(v.field("best")?)?,
            best_time: FromJson::from_json(v.field("best_time")?)?,
            model_pick: FromJson::from_json(v.field("model_pick")?)?,
            model_time: FromJson::from_json(v.field("model_time")?)?,
            openmpi_pick: CollSelection {
                alg: Alg::Bcast(FromJson::from_json(pick.field("alg")?)?),
                seg_size: FromJson::from_json(pick.field("seg_size")?)?,
            },
            openmpi_time: FromJson::from_json(v.field("openmpi_time")?)?,
        })
    }
}
collsel_support::json_struct!(SweepPanel {
    cluster,
    p,
    seg_size,
    points
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{scenarios, Fidelity};
    use collsel::netsim::NoiseParams;
    use collsel::{Tuner, TunerConfig};

    #[test]
    fn sweep_point_invariants() {
        // A tiny sweep on a quiet small configuration.
        let mut sc = scenarios(Fidelity::Quick).remove(1); // gros
        sc.cluster = sc.cluster.with_noise(NoiseParams::OFF);
        sc.msg_sizes = vec![8 * 1024, 128 * 1024];
        let tuned = Tuner::new(sc.cluster.clone(), TunerConfig::quick(12)).tune();
        let panel = sweep_panel(&sc, &tuned, 16, 9);
        assert_eq!(panel.points.len(), 2);
        for pt in &panel.points {
            // Best is the minimum of the measured table.
            assert!(pt.best_time <= pt.model_time + 1e-12);
            assert!(pt.model_degradation_pct() >= -1e-9);
            // The model pick's time comes from the measured table.
            assert_eq!(pt.model_time, pt.measured.times[&pt.model_pick]);
            // Open MPI time is positive (measured separately when its
            // segment size differs).
            assert!(pt.openmpi_time > 0.0);
        }
    }
}
