//! Differential gates for the adaptive campaign planner: crossover
//! bisection plus leader-settled repetitions must produce the
//! byte-identical decision tables of the exhaustive sweep, at a
//! fraction of the simulated cells, invariantly across thread counts
//! and warm starts.

use collsel::coll::Collective;
use collsel::estim::{log_spaced_sizes, measure_family_cell, Precision};
use collsel::mpi::Backend;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::{CampaignPlan, Tuner, TunerConfig};
use collsel_support::pool;
use collsel_support::rng::StdRng;

fn tuner_for(cluster: ClusterModel) -> Tuner {
    Tuner::new(cluster, TunerConfig::quick(8))
}

/// The table-equality gates run on quiet presets: with noise on, the
/// measured winner dithers between near-equal algorithms on *adjacent*
/// grid cells, which no interpolating planner can reconstruct without
/// measuring every cell. The noisy regime is covered by
/// `early_stopped_means_fall_within_full_precision_ci` below, and on a
/// single-communicator-size grid by the warm-start gate.
fn quiet(cluster: ClusterModel) -> ClusterModel {
    cluster.with_noise(NoiseParams::OFF)
}

fn msg_grid(count: usize) -> Vec<usize> {
    let mut sizes = log_spaced_sizes(1024, 1024 * 1024, count);
    sizes.dedup();
    sizes
}

/// Adaptive and exhaustive plans differing only in strategy.
fn plan_pair(comms: &[usize], msgs: &[usize], anchor_step: usize) -> (CampaignPlan, CampaignPlan) {
    let exhaustive =
        CampaignPlan::exhaustive(Collective::ALL.to_vec(), comms.to_vec(), msgs.to_vec());
    let adaptive = CampaignPlan::adaptive(
        Collective::ALL.to_vec(),
        comms.to_vec(),
        msgs.to_vec(),
        anchor_step,
    );
    (exhaustive, adaptive)
}

fn assert_adaptive_matches_exhaustive(cluster: ClusterModel) {
    let name = cluster.name().to_owned();
    let tuner = tuner_for(cluster);
    let msgs = msg_grid(24);
    let (exhaustive, adaptive) = plan_pair(&[4, 8, 16], &msgs, 6);
    let full = tuner.run_campaign(&exhaustive, None);
    let fast = tuner.run_campaign(&adaptive, None);
    assert_eq!(
        full.tables, fast.tables,
        "{name}: adaptive tables must be byte-identical to the exhaustive sweep"
    );
    assert!(
        fast.measured_cells() < full.measured_cells(),
        "{name}: adaptive must measure fewer cells"
    );
    assert!(
        fast.cell_reduction() >= 2.0,
        "{name}: expected at least 2x fewer cells on this small grid, got {:.2}x",
        fast.cell_reduction()
    );
    assert!(
        fast.simulated_batches() < full.simulated_batches(),
        "{name}: leader-settled repetitions must also save batches"
    );
    assert!(!fast.budget_exhausted);
}

#[test]
fn adaptive_matches_exhaustive_on_gros() {
    assert_adaptive_matches_exhaustive(quiet(ClusterModel::gros()));
}

#[test]
fn adaptive_matches_exhaustive_on_grisou() {
    assert_adaptive_matches_exhaustive(quiet(ClusterModel::grisou()));
}

#[test]
fn adaptive_campaign_is_thread_count_invariant() {
    let tuner = tuner_for(ClusterModel::gros());
    let msgs = msg_grid(16);
    let plan = CampaignPlan::adaptive(
        vec![Collective::Bcast, Collective::Reduce, Collective::Alltoall],
        vec![4, 8],
        msgs,
        4,
    );
    pool::set_thread_override(1);
    let serial = tuner.run_campaign(&plan, None);
    pool::set_thread_override(3);
    let threaded = tuner.run_campaign(&plan, None);
    pool::clear_thread_override();
    assert_eq!(
        serial, threaded,
        "campaigns must not depend on the pool size"
    );
}

/// Satellite property test: on seeded random sub-grids of a base grid,
/// the adaptive campaign still matches the exhaustive decision table.
///
/// Sub-grids are contiguous windows of the base grid (random extent,
/// random comm subsets, random seeds), not random decimations: the
/// planner's contract is a grid fine enough that a winner island's
/// near-tie flanks are on-grid (see `plan_crossover_fill`), and
/// deleting interior points breaks exactly that adjacency for the
/// exhaustive oracle too.
#[test]
fn adaptive_matches_exhaustive_on_seeded_random_subgrids() {
    let tuner = tuner_for(quiet(ClusterModel::gros()));
    let base_msgs = msg_grid(32);
    let base_comms = [2usize, 4, 6, 8, 12, 16];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..4 {
        let lo = (rng.next_u64() as usize) % (base_msgs.len() - 8);
        let hi = lo + 8 + (rng.next_u64() as usize) % (base_msgs.len() - lo - 8);
        let msgs: Vec<usize> = base_msgs[lo..=hi].to_vec();
        let comms: Vec<usize> = base_comms
            .iter()
            .copied()
            .filter(|_| rng.next_u64().is_multiple_of(2))
            .collect();
        if comms.is_empty() {
            continue;
        }
        let collective = Collective::ALL[case % Collective::ALL.len()];
        let mut exhaustive =
            CampaignPlan::exhaustive(vec![collective], comms.clone(), msgs.clone());
        exhaustive.seed = 0xB0B + case as u64;
        let mut adaptive = CampaignPlan::adaptive(vec![collective], comms, msgs, 5);
        adaptive.seed = exhaustive.seed;
        assert_eq!(
            tuner.run_campaign(&exhaustive, None).tables,
            tuner.run_campaign(&adaptive, None).tables,
            "case {case} ({collective})"
        );
    }
}

/// Satellite property test: a leader-settled (early-stopped) cell's
/// per-algorithm means stay inside the full-precision 95% CI.
#[test]
fn early_stopped_means_fall_within_full_precision_ci() {
    let cluster = ClusterModel::gros(); // noise ON: early stop engages
    let precision = Precision {
        rel_precision: 0.05,
        min_reps: 4,
        max_reps: 40,
    };
    for (i, &(c, p, m)) in [
        (Collective::Bcast, 12usize, 128 * 1024usize),
        (Collective::Reduce, 8, 512 * 1024),
        (Collective::Allgather, 6, 64 * 1024),
    ]
    .iter()
    .enumerate()
    {
        let seg = if c == Collective::Bcast {
            8 * 1024
        } else {
            64 * 1024
        };
        let seed = 0xCAFE + ((i as u64) << 8);
        let full = measure_family_cell(
            &cluster,
            c,
            p,
            m,
            seg,
            &precision,
            seed,
            Backend::Dag,
            false,
        );
        let early =
            measure_family_cell(&cluster, c, p, m, seg, &precision, seed, Backend::Dag, true);
        assert_eq!(
            early.winner, full.winner,
            "{c}: early stop must not flip the winner"
        );
        assert!(early.batches <= full.batches, "{c}");
        for (a, (e, f)) in early.stats.iter().zip(&full.stats).enumerate() {
            assert!(
                (e.mean - f.mean).abs() <= f.ci_half_width.max(f.mean * 1e-12),
                "{c} alg {a}: early mean {} outside full-precision CI {} ± {}",
                e.mean,
                f.mean,
                f.ci_half_width
            );
        }
    }
}

/// Warm-starting from the cluster's own model keeps the exhaustive
/// tables and measures fewer cells. Besides the quiet grid of the table
/// gates, it runs both presets with noise on at one communicator size
/// under a tight precision target (0.5%, 3-50 repetitions a cell): there
/// repetitions dominate the cost, and the better of the cold and warm
/// adaptive runs must simulate at least 2x fewer batches than the sweep.
#[test]
fn warm_start_from_own_model_matches_exhaustive_with_fewer_cells() {
    let tight = Precision {
        rel_precision: 0.005,
        min_reps: 3,
        max_reps: 50,
    };
    let mut noisy_msgs = log_spaced_sizes(1024, 256 * 1024, 10);
    noisy_msgs.dedup();
    // (cluster, comm grid, message grid, stopping-rule override,
    // minimum batch reduction of the better adaptive run)
    let inputs = [
        (
            quiet(ClusterModel::gros()),
            vec![4, 8, 16],
            msg_grid(24),
            None,
            1.0,
        ),
        (
            ClusterModel::gros(),
            vec![8],
            noisy_msgs.clone(),
            Some(tight),
            2.0,
        ),
        (
            ClusterModel::grisou(),
            vec![8],
            noisy_msgs,
            Some(tight),
            2.0,
        ),
    ];
    for (cluster, comms, msgs, precision, min_batch_reduction) in inputs {
        let name = cluster.name().to_owned();
        let tuner = tuner_for(cluster);
        let model = tuner.tune_all();
        let (mut exhaustive, mut adaptive) = plan_pair(&comms, &msgs, 6);
        if let Some(precision) = precision {
            exhaustive.precision = precision;
            adaptive.precision = precision;
        }
        let full = tuner.run_campaign(&exhaustive, None);
        let cold = tuner.run_campaign(&adaptive, None);
        let warm = tuner.run_campaign(&adaptive, Some(&model));
        assert_eq!(
            full.tables, cold.tables,
            "{name}: cold start must stay correct"
        );
        assert_eq!(
            full.tables, warm.tables,
            "{name}: warm start must stay correct"
        );
        assert!(
            warm.measured_cells() < full.measured_cells(),
            "{name}: warm start must beat the exhaustive sweep"
        );
        // The model's predictions concentrate anchors near true
        // crossovers; a decent model should not cost more than the cold
        // anchor grid.
        assert!(
            warm.measured_cells() <= cold.measured_cells() * 2,
            "{name}: warm {} vs cold {}",
            warm.measured_cells(),
            cold.measured_cells()
        );
        let fewest = cold.simulated_batches().min(warm.simulated_batches());
        let reduction = full.simulated_batches() as f64 / fewest.max(1) as f64;
        assert!(
            reduction >= min_batch_reduction,
            "{name}: expected >= {min_batch_reduction}x fewer simulated batches, got {reduction:.2}x"
        );
    }
}

#[test]
fn warm_start_from_wrong_neighbor_stays_correct() {
    // Warm-starting gros from grisou's model: predictions are off, so
    // the planner must verify its way back to the exhaustive table.
    let gros = tuner_for(quiet(ClusterModel::gros()));
    let grisou_model = tuner_for(quiet(ClusterModel::grisou())).tune_all();
    let msgs = msg_grid(16);
    let exhaustive = CampaignPlan::exhaustive(
        vec![Collective::Bcast, Collective::Reduce],
        vec![4, 8],
        msgs.clone(),
    );
    let adaptive = CampaignPlan::adaptive(
        vec![Collective::Bcast, Collective::Reduce],
        vec![4, 8],
        msgs,
        4,
    );
    assert_eq!(
        gros.run_campaign(&exhaustive, None).tables,
        gros.run_campaign(&adaptive, Some(&grisou_model)).tables,
        "a wrong warm start may cost cells but never correctness"
    );
}

#[test]
fn budget_caps_measured_cells_and_flags_exhaustion() {
    let tuner = tuner_for(quiet(ClusterModel::gros()));
    let msgs = msg_grid(24);
    let mut plan = CampaignPlan::adaptive(vec![Collective::Reduce], vec![8], msgs.clone(), 4);
    plan.budget = Some(3);
    let report = tuner.run_campaign(&plan, None);
    // 3 budgeted probes + the two budget-exempt endpoints.
    assert!(report.measured_cells() <= 5, "{}", report.measured_cells());
    assert!(report.budget_exhausted);
    // The table still covers the whole grid.
    let table = &report.tables[&Collective::Reduce];
    assert!(table.lookup(8, *msgs.last().unwrap()).is_some());
}
