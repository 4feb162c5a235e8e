//! Algorithm explorer: measure every broadcast algorithm over a sweep
//! of message sizes on a simulated cluster and print the performance
//! matrix — the raw material behind the paper's Fig. 5.
//!
//! ```text
//! cargo run --release --example algorithm_explorer [ranks] [cluster]
//! ```
//!
//! `ranks` defaults to 32; `cluster` is `grisou` or `gros` (default).

use collsel::coll::{Alg, BcastAlg};
use collsel::estim::{measure, Precision, TimedProgram};
use collsel::netsim::{ClusterModel, NoiseParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args
        .next()
        .map(|s| s.parse().expect("ranks must be an integer"))
        .unwrap_or(32);
    let cluster = match args.next().as_deref() {
        Some("grisou") => ClusterModel::grisou(),
        None | Some("gros") => ClusterModel::gros(),
        Some(other) => panic!("unknown cluster `{other}` (grisou|gros)"),
    }
    .with_noise(NoiseParams::OFF);
    assert!(
        ranks <= cluster.max_ranks(),
        "{} supports at most {} ranks",
        cluster.name(),
        cluster.max_ranks()
    );

    let seg = 8 * 1024;
    let sizes: Vec<usize> = (0..8).map(|i| (8 * 1024) << i).collect(); // 8 KB .. 1 MB
    let precision = Precision::quick();

    println!(
        "broadcast times (ms) on {} with P = {ranks}, 8 KB segments\n",
        cluster.name()
    );
    print!("{:>8}", "m");
    for alg in BcastAlg::ALL {
        print!("{:>14}", alg.name());
    }
    println!("{:>14}", "winner");

    for &m in &sizes {
        print!("{:>8}", format_size(m));
        let mut best = (BcastAlg::Linear, f64::MAX);
        let mut row = Vec::new();
        for alg in BcastAlg::ALL {
            let program = TimedProgram::Collective {
                alg: Alg::Bcast(alg),
                p: ranks,
                m,
                seg_size: seg,
            };
            let t = measure(&cluster, program, &precision, 42).mean;
            if t < best.1 {
                best = (alg, t);
            }
            row.push(t);
        }
        for t in row {
            print!("{:>14.4}", t * 1e3);
        }
        println!("{:>14}", best.0.name());
    }

    println!(
        "\nReading guide: 'linear' wins only at small m / few ranks; pipelined\n\
         trees take over as n_s = m / m_s grows; 'chain' needs very large m\n\
         to amortise its P-deep pipeline — exactly the trade-offs the paper's\n\
         models capture."
    );
}

fn format_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}
