//! Quickstart: tune a cluster, inspect the estimated parameters, and
//! use the resulting decision function.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use collsel::coll::Collective;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::CollectiveSelector;
use collsel::{Tuner, TunerConfig};

fn main() {
    // The simulated stand-in for the paper's Gros cluster (124 nodes,
    // 25 GbE). Noise off makes this demo exactly reproducible.
    let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
    println!(
        "cluster: {} ({} nodes x {} slots, {:.1} GB/s per NIC)",
        cluster.name(),
        cluster.nodes(),
        cluster.cpus_per_node(),
        cluster.bandwidth() / 1e9
    );

    // Run the paper's estimation pipeline at demo scale:
    //   1. gamma(P) from non-blocking linear-broadcast experiments;
    //   2. per-algorithm (alpha, beta) from bcast+gather experiments
    //      solved with Huber regression.
    println!("\ntuning (reduced scales; use TunerConfig::paper for full)...");
    let model = Tuner::new(cluster, TunerConfig::quick(16)).tune();

    println!("\nestimated gamma(P):");
    for (p, g) in model.gamma.table.pairs() {
        println!("  gamma({p}) = {g:.3}");
    }

    println!("\nper-algorithm Hockney parameters:");
    for (alg, h) in model.multi_hockney_table() {
        println!("  {:<16} {h}", alg.qualified_name());
    }

    // The tuned decision function: what the paper proposes to run
    // inside MPI_Bcast.
    let selector = model.multi_selector();
    println!("\nruntime selections (P = 100):");
    for m in [4 * 1024, 64 * 1024, 1 << 20, 4 << 20] {
        let pick = selector.select_for(Collective::Bcast, 100, m);
        let ranking = selector.ranking(Collective::Bcast, 100, m);
        let runner_up = ranking[1].0;
        println!(
            "  {:>8} bytes -> {:<12} (runner-up {}, predicted {:.1}% slower)",
            m,
            pick.alg.name(),
            runner_up.name(),
            100.0 * (ranking[1].1 - ranking[0].1) / ranking[0].1
        );
    }
}
