//! Bench for Table 3: regenerates the selection-comparison table at
//! reduced scale, then measures the *runtime decision cost* — the
//! paper's efficiency claim is that evaluating the analytical models is
//! cheap enough to run inside `MPI_Bcast` itself.

use collsel::coll::{Alg, Collective};
use collsel::model::{GammaTable, Hockney};
use collsel::select::{fixed_selection, CollectiveModelSelector, CollectiveSelector};
use collsel::{Tuner, TunerConfig};
use collsel_bench::bench_scenario;
use collsel_expt::fig5::run_fig5;
use collsel_expt::table3::table3_from_fig5;
use collsel_support::bench::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

fn regenerate_and_bench(c: &mut Criterion) {
    let sc = bench_scenario();
    let tuned = vec![Tuner::new(sc.cluster.clone(), TunerConfig::quick(12)).tune()];
    let fig5 = run_fig5(std::slice::from_ref(&sc), &tuned, 3);
    let t3 = table3_from_fig5(&fig5, &[(sc.cluster.name().to_owned(), 16)]);
    println!("\n{}", t3.to_text());

    // Runtime decision cost: model-based vs native fixed rules.
    let gamma = GammaTable::from_pairs([(3, 1.08), (4, 1.17), (5, 1.25), (6, 1.34), (7, 1.42)]);
    let params: BTreeMap<Alg, _> = Collective::Bcast
        .algorithms()
        .iter()
        .map(|&a| (a, Hockney::new(1.0e-5, 1.0e-9)))
        .collect();
    let model_sel = CollectiveModelSelector::new(gamma, params, 8 * 1024);
    let bcast = Collective::Bcast;

    c.bench_function("table3/select_model_based", |b| {
        b.iter(|| model_sel.select_for(bcast, black_box(100), black_box(1 << 20)))
    });
    c.bench_function("table3/select_open_mpi_fixed", |b| {
        b.iter(|| fixed_selection(bcast, black_box(100), black_box(1 << 20)))
    });
    c.bench_function("table3/model_ranking_all_algs", |b| {
        b.iter(|| model_sel.ranking(bcast, black_box(100), black_box(1 << 20)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = regenerate_and_bench
}
criterion_main!(benches);
