//! Differential suite for the decision-serving layer: the compiled
//! selector must be indistinguishable from its source on every grid
//! point, from its source at the snapped grid point everywhere else
//! (the highest grid value at or below the query, else the smallest,
//! in each dimension), and the exact-query cache must be transparent
//! — for the model, traditional and fixed selector kinds on every
//! collective, under randomized grids and query streams — and compiled
//! lookup must be no slower than the live ranking it replaces. `ci.sh` re-runs this suite at
//! `COLLSEL_THREADS=2` as the compiled-vs-live equivalence gate.

use collsel::coll::{Alg, Collective};
use collsel::model::{FitValidity, GammaTable, Hockney};
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::{
    CollectiveDecisionService, CollectiveModelSelector, CollectiveSelector,
    CompiledCollectiveSelector, OpenMpiCollectiveSelector, TraditionalModelSelector,
};
use collsel::{Tuner, TunerConfig};
use collsel_support::prelude::*;
use collsel_support::rng::{splitmix64, StdRng};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

fn gamma() -> GammaTable {
    GammaTable::from_pairs([(3, 1.11), (4, 1.22), (5, 1.28), (6, 1.45), (7, 1.54)])
}

/// Per-algorithm fits for every collective, parameterised so the
/// property harness can vary the model-based decision boundaries.
fn all_params(a_scale: f64, b_scale: f64) -> BTreeMap<Alg, Hockney> {
    Collective::ALL
        .iter()
        .flat_map(|c| c.algorithms().iter().enumerate())
        .map(|(i, &alg)| {
            (
                alg,
                Hockney::new(1e-6 * a_scale * (i + 1) as f64, 1e-9 * b_scale),
            )
        })
        .collect()
}

/// The three selector kinds: model-based, traditional-model ablation,
/// and the Open MPI fixed rules.
fn all_selectors(a_scale: f64, b_scale: f64) -> Vec<Box<dyn CollectiveSelector + Send + Sync>> {
    vec![
        Box::new({
            let params = all_params(a_scale, b_scale);
            let validity = params.keys().map(|&a| (a, FitValidity::Valid)).collect();
            CollectiveModelSelector::new(gamma(), params, validity, 8192)
        }),
        Box::new(TraditionalModelSelector::new(
            Hockney::new(1e-6 * a_scale, 1e-9 * b_scale),
            8192,
        )),
        Box::new(OpenMpiCollectiveSelector),
    ]
}

fn grids(comms: &BTreeSet<usize>, msgs: &BTreeSet<usize>) -> (Vec<usize>, Vec<usize>) {
    (
        comms.iter().copied().collect(),
        msgs.iter().copied().collect(),
    )
}

/// The highest grid value not above `x`, else the smallest.
fn snap(grid: &[usize], x: usize) -> usize {
    *grid.iter().rfind(|&&g| g <= x).unwrap_or(&grid[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CompiledCollectiveSelector == source selector on every grid
    /// point, and == the source selector at the snapped grid point on
    /// arbitrary (incl. off-grid) queries, for every selector kind and
    /// collective.
    #[test]
    fn compiled_is_differential_twin_of_table_and_source(
        comms in prop::collection::btree_set(2usize..200, 2..6),
        msgs in prop::collection::btree_set(1usize..(4 << 20), 2..8),
        queries in prop::collection::vec((1usize..256, 0usize..(8 << 20)), 1..40),
        a_scale in 1.0f64..40.0,
        b_scale in 1.0f64..40.0,
    ) {
        let (comm_grid, msg_grid) = grids(&comms, &msgs);
        for sel in all_selectors(a_scale, b_scale) {
            let compiled = CompiledCollectiveSelector::compile(
                sel.as_ref(), &Collective::ALL, &comm_grid, &msg_grid,
            );
            for c in Collective::ALL {
                for &p in &comm_grid {
                    for &m in &msg_grid {
                        prop_assert_eq!(
                            compiled.lookup(c, p, m),
                            sel.select_for(c, p, m),
                            "{} diverged from its source for {} at grid point p={} m={}",
                            sel.name(), c, p, m
                        );
                    }
                }
                for &(p, m) in &queries {
                    let (sp, sm) = (snap(&comm_grid, p), snap(&msg_grid, m));
                    prop_assert_eq!(
                        compiled.lookup(c, p, m),
                        sel.select_for(c, sp, sm),
                        "{} diverged from its source for {} at p={} m={} (snapped p={} m={})",
                        sel.name(), c, p, m, sp, sm
                    );
                }
            }
        }
    }

    /// Cache transparency: under a randomized query stream (with
    /// repeats, small capacities, arbitrary eviction seeds), a cached
    /// service answers bit-identically to an uncached one and to the
    /// bare compiled tables — for every selector kind.
    #[test]
    fn cache_is_transparent_for_every_selector_type(
        comms in prop::collection::btree_set(2usize..200, 2..5),
        msgs in prop::collection::btree_set(1usize..(4 << 20), 2..6),
        queries in prop::collection::vec((0usize..7, 1usize..256, 0usize..(8 << 20)), 1..60),
        capacity in 1usize..24,
        seed in prop::any::<u64>(),
        a_scale in 1.0f64..40.0,
    ) {
        let (comm_grid, msg_grid) = grids(&comms, &msgs);
        for sel in all_selectors(a_scale, 3.0) {
            let compiled = CompiledCollectiveSelector::compile(
                sel.as_ref(), &Collective::ALL, &comm_grid, &msg_grid,
            );
            let cached =
                CollectiveDecisionService::compiled(compiled.clone()).with_cache(capacity, seed);
            let uncached = CollectiveDecisionService::compiled(compiled.clone());
            // Replay the stream twice so later passes hit warm entries.
            for &(ci, p, m) in queries.iter().chain(queries.iter()) {
                let c = Collective::ALL[ci];
                let hot = cached.decide(c, p, m);
                prop_assert_eq!(hot, uncached.decide(c, p, m), "{} cached != uncached", sel.name());
                prop_assert_eq!(hot, compiled.lookup(c, p, m), "{} cached != compiled", sel.name());
            }
            let stats = cached.stats();
            prop_assert_eq!(stats.queries(), 2 * queries.len() as u64);
            prop_assert!(
                cached.cached_entries() <= capacity,
                "cache overflowed: {} > {}", cached.cached_entries(), capacity
            );
        }
    }
}

/// The seeded eviction stream is reproducible: same seed, same
/// insertion order → same resident set and the same serial counters.
#[test]
fn seeded_eviction_is_reproducible() {
    let compiled = CompiledCollectiveSelector::compile(
        &OpenMpiCollectiveSelector,
        &Collective::ALL,
        &[2, 16, 128],
        &[1024, 64 * 1024, 4 << 20],
    );
    let run = |seed: u64| {
        let svc = CollectiveDecisionService::compiled(compiled.clone()).with_cache(8, seed);
        let mut rng = StdRng::seed_from_u64(99);
        let mut picks = Vec::new();
        for _ in 0..400 {
            let c = Collective::ALL[rng.gen_range(0usize..7)];
            let p = 2 + rng.gen_range(0usize..180);
            let m = rng.gen_range(0usize..(8 << 20));
            picks.push(svc.decide(c, p, m));
        }
        (picks, svc.stats())
    };
    assert_eq!(run(41), run(41), "same seed must replay identically");
    // Different seeds may cache differently, but answers never change.
    assert_eq!(run(41).0, run(42).0, "answers are eviction-independent");
}

/// Compiled lookup is the serving fast path: over the same seeded stream
/// of queries on all seven collectives, a tuned model's compiled tables
/// must answer at least as fast as re-ranking the live model. The gap is
/// tens of times on an idle host, so a plain >= 1x comparison of the
/// best of three timing windows per path holds on a loaded one too.
#[test]
fn compiled_lookup_is_no_slower_than_live_ranking() {
    let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let model = Tuner::new(cluster, TunerConfig::quick(8)).tune_all();
    let live = model.multi_selector();
    let compiled = model.compiled_multi_selector_default();
    let mut state = 0x5E1EC7u64;
    let queries: Vec<(Collective, usize, usize)> = (0..4096)
        .map(|i| {
            (
                Collective::ALL[i % Collective::ALL.len()],
                2 + (splitmix64(&mut state) % 127) as usize,
                1024usize << (splitmix64(&mut state) % 14),
            )
        })
        .collect();
    let best_secs = |answer: &dyn Fn(Collective, usize, usize)| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                for &(c, p, m) in &queries {
                    answer(c, p, m);
                }
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let live_s = best_secs(&|c, p, m| {
        black_box(live.ranking(c, p, m));
    });
    let compiled_s = best_secs(&|c, p, m| {
        black_box(compiled.lookup(c, p, m));
    });
    assert!(
        compiled_s <= live_s,
        "compiled lookup slower than live ranking: {compiled_s:.6}s vs {live_s:.6}s \
         for {} queries",
        queries.len()
    );
}
