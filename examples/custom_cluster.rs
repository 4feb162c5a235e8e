//! Custom cluster: describe your own platform with the builder, then
//! watch how the optimal broadcast algorithm shifts as the network
//! changes — the portability argument for model-based selection.
//!
//! ```text
//! cargo run --release --example custom_cluster
//! ```

use collsel::coll::Collective;
use collsel::netsim::{ClusterModel, NoiseParams, SimSpan};
use collsel::select::CollectiveSelector;
use collsel::{Tuner, TunerConfig};

fn build(name: &str, gbps: f64, latency_us: u64) -> ClusterModel {
    ClusterModel::builder(name, 64)
        .bandwidth_gbps(gbps)
        .wire_latency(SimSpan::from_micros(latency_us))
        .switch_hops(2, SimSpan::from_micros(1))
        .noise(NoiseParams::OFF)
        .build()
}

fn main() {
    // Three hypothetical platforms: a slow high-latency campus
    // network, a balanced 10 GbE cluster, and a fast low-latency
    // fabric.
    let platforms = [
        ("campus-1g", build("campus-1g", 1.0, 200)),
        ("balanced-10g", build("balanced-10g", 10.0, 50)),
        ("fast-100g", build("fast-100g", 100.0, 5)),
    ];

    let p = 48;
    let sizes = [8 * 1024, 128 * 1024, 4 << 20];

    println!("how the tuned selection shifts with the platform (P = {p}):\n");
    print!("{:>14}", "m \\ platform");
    for (name, _) in &platforms {
        print!("{name:>16}");
    }
    println!();

    let mut tuned = Vec::new();
    for (_, cluster) in &platforms {
        tuned.push(
            Tuner::new(cluster.clone(), TunerConfig::quick(16))
                .tune()
                .multi_selector(),
        );
    }

    for &m in &sizes {
        print!("{:>14}", format!("{}KB", m / 1024));
        for selector in &tuned {
            print!(
                "{:>16}",
                selector.select_for(Collective::Bcast, p, m).alg.name()
            );
        }
        println!();
    }

    println!(
        "\nA fixed decision function (like Open MPI's) bakes one platform's\n\
         trade-offs into constants; the model-based selector re-derives them\n\
         from each platform's own gamma and per-algorithm (alpha, beta)."
    );

    // Show the gamma difference driving the shift.
    println!("\nestimated gamma(7) per platform:");
    for ((name, cluster), _) in platforms.iter().zip(&tuned) {
        let model = Tuner::new(cluster.clone(), TunerConfig::quick(8)).tune();
        println!("  {name:>14}: {:.3}", model.gamma.table.gamma(7));
    }
}
