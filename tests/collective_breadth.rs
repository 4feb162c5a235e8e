//! Differential suite for the full-collective tuning breadth: per
//! collective, the compiled decision tables must be indistinguishable
//! from the live model ranking (on- and off-grid), the timing DAG must
//! agree bit-for-bit with the thread-per-rank oracle on every
//! collective's measurement programs. The reduce crossover golden test pins
//! the fitted models to the osu_reduce winner ordering on the gros
//! preset. `ci.sh` re-runs this suite at `COLLSEL_THREADS=2` as the
//! breadth equivalence gate.

use collsel::coll::{Collective, ReduceAlg};
use collsel::estim::{log_spaced_sizes, measure_family_cell, Precision};
use collsel::mpi::Backend;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::CollectiveSelector;
use collsel::{TunedModel, Tuner, TunerConfig};
use collsel_support::rng::splitmix64;
use std::sync::OnceLock;

/// One shared breadth tuning campaign on a quiet gros: every test in
/// this binary differentiates against the same fitted model.
fn tuned() -> &'static TunedModel {
    static MODEL: OnceLock<TunedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        Tuner::new(cluster, TunerConfig::quick(12)).tune_all()
    })
}

const COMM_GRID: [usize; 4] = [2, 8, 32, 128];

fn msg_grid() -> Vec<usize> {
    log_spaced_sizes(1024, 8 * 1024 * 1024, 10)
}

/// The highest grid value not above `x`, else the smallest.
fn snap(grid: &[usize], x: usize) -> usize {
    *grid.iter().rfind(|&&g| g <= x).unwrap_or(&grid[0])
}

/// Compiled per-collective tables == the live selector on every grid
/// point, and == the live selector at the snapped grid point on
/// arbitrary off-grid queries — for all seven collectives.
#[test]
fn compiled_tables_match_live_ranking_on_and_off_grid() {
    let model = tuned();
    let live = model.multi_selector();
    let msg_grid = msg_grid();
    let compiled = model.compiled_multi_selector(&COMM_GRID, &msg_grid);
    assert_eq!(compiled.collectives(), Collective::ALL.to_vec());
    for c in Collective::ALL {
        // On-grid: the compiled lookup reproduces the live argmin.
        for &p in &COMM_GRID {
            for &m in &msg_grid {
                assert_eq!(
                    compiled.lookup(c, p, m),
                    live.select_for(c, p, m),
                    "{} diverged from live at grid point p={p} m={m}",
                    c.name()
                );
            }
        }
        // Off-grid: the compiled lookup == the live pick at the grid
        // point at or below the query (clamped to the first) on a
        // randomized query stream.
        let mut state = 0xB5EAD ^ (c.index() as u64);
        for _ in 0..200 {
            let p = 1 + (splitmix64(&mut state) % 300) as usize;
            let m = (splitmix64(&mut state) % (16 << 20)) as usize;
            let (sp, sm) = (snap(&COMM_GRID, p), snap(&msg_grid, m));
            assert_eq!(
                compiled.lookup(c, p, m),
                live.select_for(c, sp, sm),
                "{} diverged from live at p={p} m={m} (snapped p={sp} m={sm})",
                c.name()
            );
        }
    }
}

/// The timing DAG evaluates every collective's measurement programs
/// bit-identically to the thread-per-rank oracle — each family whole,
/// every algorithm sampled as a plain measurement (no early stop),
/// noise on.
#[test]
fn backends_agree_on_every_collective_measurement_program() {
    let cluster = ClusterModel::gros(); // noise on: the harder case
    let precision = Precision::quick();
    for c in Collective::ALL {
        let seed = 0xD1FF ^ ((c.index() as u64) << 16);
        let [dag, threads] = [Backend::Dag, Backend::Threads].map(|backend| {
            measure_family_cell(
                &cluster,
                c,
                6,
                16 * 1024,
                8 * 1024,
                &precision,
                seed,
                backend,
                false,
            )
        });
        assert_eq!(dag, threads, "backends diverged on {c}");
    }
}

/// Crossover-shape golden test: the fitted reduce models on the gros
/// preset reproduce the osu_reduce winner ordering — a low-latency tree
/// (linear/binomial) for small vectors, a pipelined shape
/// (pipeline/in-order-binary) for large ones. The exact crossover byte
/// count is platform-dependent and deliberately not pinned; only the
/// small-m/large-m winner families are.
#[test]
fn reduce_crossover_matches_osu_reduce_ordering() {
    let model = tuned();
    let selector = model.multi_selector();
    let p = 16;

    let winner = |m: usize| match selector.select_for(Collective::Reduce, p, m).alg {
        collsel::coll::Alg::Reduce(r) => r,
        other => panic!("reduce query answered with {}", other.qualified_name()),
    };

    let small = [1024usize, 4 * 1024, 8 * 1024];
    let mid = [512 * 1024, 2 << 20];
    let large = [8 << 20, 16 << 20];
    for &m in &small {
        let w = winner(m);
        assert!(
            matches!(w, ReduceAlg::Linear | ReduceAlg::Binomial),
            "small m={m}: expected linear/binomial, got {w}"
        );
    }
    // Between the regimes a segmented tree takes over (which of the
    // pipelined trees wins first is platform noise, flat never is).
    for &m in &mid {
        let w = winner(m);
        assert!(
            w.is_segmented(),
            "mid m={m}: expected a segmented tree, got {w}"
        );
    }
    for &m in &large {
        let w = winner(m);
        assert!(
            matches!(w, ReduceAlg::Pipeline | ReduceAlg::InOrderBinary),
            "large m={m}: expected pipeline/in_order_binary, got {w}"
        );
    }
    // The crossover exists: the two regimes pick different shapes.
    assert_ne!(winner(small[0]), winner(large[1]));
}

/// Every collective is tunable end-to-end: fit → decision table →
/// compiled lookup, with β > 0 everywhere the family conditions it.
#[test]
fn every_collective_serves_from_its_own_fits() {
    let model = tuned();
    assert_eq!(model.tuned_collectives(), Collective::ALL.to_vec());
    let live = model.multi_selector();
    for c in Collective::ALL {
        // The live selector decides from the model path (not the fixed
        // rules): its ranking over this collective is non-empty and its
        // head matches the selection.
        let ranking = live.ranking(c, 16, 64 * 1024);
        assert!(
            !ranking.is_empty(),
            "{} has no fitted models to rank",
            c.name()
        );
        let pick = live.select_for(c, 16, 64 * 1024);
        assert_eq!(
            pick.alg,
            ranking[0].0,
            "{} selection disagrees with its own ranking",
            c.name()
        );
        assert_eq!(pick.alg.collective(), c);
    }
}
