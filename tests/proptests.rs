//! Property-based tests over the whole stack: random platforms, random
//! collective configurations, random measurement data.

use collsel::coll::{bcast, gather_linear, scatter_binomial, Alg, BcastAlg, Collective, Topology};
use collsel::estim::{huber_default, ols};
use collsel::model::{derived, FitValidity, GammaTable, Hockney};
use collsel::mpi::simulate;
use collsel::netsim::{ClusterModel, NoiseParams, SimSpan};
use collsel::select::{
    fixed_selection, CollectiveModelSelector, CollectiveSelector, DecisionSource,
};
use collsel_support::prelude::*;
use collsel_support::Bytes;
use std::collections::BTreeMap;

/// A random small-but-plausible cluster.
fn arb_cluster() -> impl Strategy<Value = ClusterModel> {
    (
        2usize..24, // nodes
        1usize..3,  // cpus per node
        1u64..100,  // bandwidth (Gbps * 10 is too wide; use 1..100 Gbps)
        1u64..200,  // wire latency us
        0usize..2,  // mapping choice
    )
        .prop_map(|(nodes, cpus, gbps, lat_us, mapping)| {
            let b = ClusterModel::builder("prop", nodes)
                .cpus_per_node(cpus)
                .bandwidth_gbps(gbps as f64)
                .wire_latency(SimSpan::from_micros(lat_us))
                .noise(NoiseParams::OFF);
            let c = b.build();
            if mapping == 0 {
                c
            } else {
                c.with_mapping(collsel::netsim::RankMapping::Block)
            }
        })
}

fn arb_alg() -> impl Strategy<Value = BcastAlg> {
    prop::sample::select(BcastAlg::ALL.to_vec())
}

fn arb_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

/// Hockney fits for every algorithm of every collective, scaled so the
/// property harness varies the decision boundaries between cases.
fn all_family_params(a_scale: f64, b_scale: f64) -> BTreeMap<Alg, Hockney> {
    Collective::ALL
        .iter()
        .flat_map(|c| c.algorithms())
        .enumerate()
        .map(|(i, &alg)| {
            (
                alg,
                Hockney::new(1e-6 * a_scale * (i + 1) as f64, 1e-9 * b_scale),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every broadcast algorithm delivers the exact payload on every
    /// rank, on arbitrary platforms, roots, sizes and segment sizes.
    #[test]
    fn broadcast_always_delivers(
        cluster in arb_cluster(),
        alg in arb_alg(),
        ranks_frac in 0.0f64..1.0,
        root_frac in 0.0f64..1.0,
        len in 0usize..20_000,
        seg in 1usize..4096,
    ) {
        let max = cluster.max_ranks();
        let p = 1 + (ranks_frac * (max.min(16) - 1) as f64).round() as usize;
        let root = (root_frac * (p - 1) as f64).round() as usize;
        let payload = Bytes::from((0..len).map(|i| (i % 253) as u8).collect::<Vec<_>>());
        let expected = payload.clone();
        let out = simulate(&cluster, p, 0, move |ctx| {
            let msg = (ctx.rank() == root).then(|| payload.clone());
            bcast(ctx, alg, root, msg, len, seg)
        }).unwrap();
        for got in &out.results {
            prop_assert_eq!(got, &expected);
        }
    }

    /// Gather then scatter round-trips every rank's contribution.
    #[test]
    fn gather_scatter_round_trip(
        cluster in arb_cluster(),
        root_frac in 0.0f64..1.0,
        item_len in 1usize..256,
    ) {
        let p = cluster.max_ranks().min(12);
        let root = (root_frac * (p - 1) as f64).round() as usize;
        let out = simulate(&cluster, p, 0, move |ctx| {
            let mine = Bytes::from(vec![ctx.rank() as u8; item_len]);
            let gathered = gather_linear(ctx, root, mine);
            let blocks = gathered.map(|g| g.to_vec());
            scatter_binomial(ctx, root, blocks)
        }).unwrap();
        for (rank, got) in out.results.iter().enumerate() {
            let expected = vec![rank as u8; item_len];
            prop_assert_eq!(got.as_ref(), expected.as_slice());
        }
    }

    /// Same seed, same program => identical virtual timings, even with
    /// noise enabled.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        len in 1usize..50_000,
    ) {
        let cluster = ClusterModel::grisou(); // noise on
        let run = || {
            simulate(&cluster, 8, seed, |ctx| {
                let msg = (ctx.rank() == 0).then(|| Bytes::from(vec![7u8; len]));
                let _ = bcast(ctx, BcastAlg::Binary, 0, msg, len, 2048);
                ctx.wtime()
            }).unwrap().results
        };
        prop_assert_eq!(run(), run());
    }

    /// Every topology builder yields a spanning tree for any (p, root).
    #[test]
    fn topologies_are_spanning_trees(p in 1usize..200, root_frac in 0.0f64..1.0, k in 1usize..8) {
        let root = (root_frac * (p - 1) as f64).round() as usize;
        for t in [
            Topology::linear(p, root),
            Topology::chain(p, root),
            Topology::k_chain(k, p, root),
            Topology::binary(p, root),
            Topology::in_order_binary(p, root),
            Topology::binomial(p, root),
        ] {
            let mut seen = 0usize;
            for r in 0..p {
                let mut cur = r;
                let mut hops = 0;
                while let Some(parent) = t.parent(cur) {
                    prop_assert!(t.children(parent).contains(&cur));
                    cur = parent;
                    hops += 1;
                    prop_assert!(hops <= p, "cycle at rank {}", r);
                }
                prop_assert_eq!(cur, root);
                seen += 1;
            }
            prop_assert_eq!(seen, p);
        }
    }

    /// Model coefficients are finite, non-negative, and monotone in
    /// message size for fixed (p, seg).
    #[test]
    fn model_costs_monotone_in_message_size(
        alg in arb_alg(),
        p in 2usize..160,
        m in 1usize..(1 << 22),
    ) {
        let gamma = GammaTable::from_pairs([(3, 1.1), (5, 1.3), (7, 1.5)]);
        let h = Hockney::new(1e-5, 1e-9);
        let seg = 8192;
        let t1 = derived::predict_bcast(alg, p, m, seg, &gamma, &h);
        let t2 = derived::predict_bcast(alg, p, m * 2, seg, &gamma, &h);
        prop_assert!(t1.is_finite() && t1 >= 0.0);
        prop_assert!(t2 >= t1 * 0.999, "{} vs {}", t1, t2);
    }

    /// Multi-collective selection is total and well-typed: for random
    /// (collective, P, m) and arbitrary model scales, neither the fixed
    /// rules nor the model-based selector panics, and both always
    /// return an algorithm of the queried collective.
    #[test]
    fn multi_selection_never_panics_and_is_well_typed(
        c in arb_collective(),
        p in 1usize..300,
        m in 0usize..(16 << 20),
        a_scale in 1.0f64..50.0,
        b_scale in 1.0f64..50.0,
        seg_exp in 10u32..18,
    ) {
        let fixed = fixed_selection(c, p, m);
        prop_assert_eq!(fixed.alg.collective(), c);

        let gamma = GammaTable::from_pairs([(3, 1.1), (5, 1.3), (7, 1.5)]);
        let params = all_family_params(a_scale, b_scale);
        let validity = params.keys().map(|&alg| (alg, FitValidity::Valid)).collect();
        let model = CollectiveModelSelector::new(gamma, params, validity, 1usize << seg_exp);
        let pick = model.select_for(c, p, m);
        prop_assert_eq!(pick.alg.collective(), c);
        let ranking = model.ranking(c, p, m);
        prop_assert_eq!(ranking.len(), c.algorithms().len());
        prop_assert_eq!(ranking[0].0, pick.alg);
        for (alg, t) in &ranking {
            prop_assert_eq!(alg.collective(), c);
            prop_assert!(t.is_finite() && *t >= 0.0);
        }
    }

    /// Graceful degradation across collectives: when every fit of the
    /// queried collective is invalid (or missing entirely), the model
    /// selector falls back to the fixed rules — same selection,
    /// fallback source, no panic.
    #[test]
    fn graceful_multi_falls_back_when_fits_are_invalid(
        c in arb_collective(),
        p in 1usize..300,
        m in 0usize..(16 << 20),
        missing in 0usize..2,
    ) {
        let gamma = GammaTable::from_pairs([(3, 1.1), (5, 1.3), (7, 1.5)]);
        let (params, validity) = if missing == 1 {
            (BTreeMap::new(), BTreeMap::new())
        } else {
            let params = all_family_params(1.0, 1.0);
            let validity: BTreeMap<Alg, FitValidity> = params
                .keys()
                .map(|&alg| (alg, FitValidity::NonFinite))
                .collect();
            (params, validity)
        };
        let selector = CollectiveModelSelector::new(gamma, params, validity, 8192);
        let d = selector.decide(c, p, m);
        prop_assert!(!d.source.is_model(), "invalid fits must not decide");
        prop_assert_eq!(d.selection, fixed_selection(c, p, m));
        prop_assert_eq!(d.selection.alg.collective(), c);
    }

    /// One decision body: over random fits and validity verdicts (some
    /// missing, some NaN), `select_for` is `decide`'s selection, only
    /// valid fits rank, `predicted_time` of every ranked algorithm is
    /// its ranking entry bit for bit, and a model decision is the
    /// ranking's head at its predicted time.
    #[test]
    fn select_for_and_predicted_time_are_views_of_decide(
        c in arb_collective(),
        p in 1usize..300,
        m in 0usize..(16 << 20),
        fits in prop::collection::vec((1.0f64..1e3, 1.0f64..1e3, 0usize..6), 0..32),
    ) {
        let gamma = GammaTable::from_pairs([(3, 1.1), (5, 1.3), (7, 1.5)]);
        let mut params = BTreeMap::new();
        let mut validity = BTreeMap::new();
        let algs = Collective::ALL.iter().flat_map(|c| c.algorithms());
        for (&alg, (a, b, kind)) in algs.zip(fits) {
            // Kind 5 is a NaN fit judged valid; kind 3 has no verdict.
            let alpha = if kind == 5 { f64::NAN } else { 1e-7 * a };
            params.insert(alg, Hockney { alpha, beta: 1e-11 * b });
            let verdict = match kind {
                1 => Some(FitValidity::Unconverged { achieved: 0.3 }),
                2 => Some(FitValidity::NonFinite),
                3 => None,
                _ => Some(FitValidity::Valid),
            };
            if let Some(v) = verdict {
                validity.insert(alg, v);
            }
        }
        let selector = CollectiveModelSelector::new(gamma, params, validity.clone(), 8192);
        let d = selector.decide(c, p, m);
        prop_assert_eq!(selector.select_for(c, p, m), d.selection);
        let ranking = selector.ranking(c, p, m);
        for &(alg, t) in &ranking {
            prop_assert!(validity.get(&alg).is_some_and(FitValidity::is_valid), "{alg:?} ranked");
            let priced = selector.predicted_time(alg, p, m).map(f64::to_bits);
            prop_assert_eq!(priced, Some(t.to_bits()), "{:?}", alg);
        }
        match d.source {
            DecisionSource::Model { predicted } => {
                prop_assert_eq!(ranking[0].0, d.selection.alg);
                prop_assert_eq!(ranking[0].1.to_bits(), predicted.to_bits());
            }
            DecisionSource::Fallback { .. } => {
                prop_assert!(ranking.iter().all(|(_, t)| !t.is_finite()));
                prop_assert_eq!(d.selection, fixed_selection(c, p, m));
            }
        }
    }

    /// OLS and Huber agree on outlier-free affine data.
    #[test]
    fn regressions_recover_clean_lines(
        intercept in -1.0f64..1.0,
        slope in -2.0f64..2.0,
        n in 4usize..40,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let o = ols(&xs, &ys);
        let h = huber_default(&xs, &ys);
        prop_assert!((o.intercept - intercept).abs() < 1e-6);
        prop_assert!((o.slope - slope).abs() < 1e-7);
        prop_assert!((h.intercept - intercept).abs() < 1e-6);
        prop_assert!((h.slope - slope).abs() < 1e-7);
    }
}
