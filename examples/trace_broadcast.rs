//! Trace a broadcast: run one collective with transfer tracing enabled,
//! print a contention summary, and write a Chrome-tracing JSON you can
//! open at `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release --example trace_broadcast [linear|chain|k_chain|split_binary|binary|binomial]
//! ```

use collsel::coll::{bcast, BcastAlg};
use collsel::mpi::{simulate_traced, Comm};
use collsel::netsim::trace::{summarize, to_chrome_trace};
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel_support::Bytes;

fn main() {
    let alg: BcastAlg = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("unknown algorithm name"))
        .unwrap_or(BcastAlg::Binomial);

    let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
    let p = 16;
    let m = 128 * 1024;
    let seg = 8 * 1024;

    let out = simulate_traced(&cluster, p, 0, move |ctx| {
        let msg = (ctx.rank() == 0).then(|| Bytes::from(vec![0x5au8; m]));
        bcast(ctx, alg, 0, msg, m, seg).len()
    })
    .expect("broadcast cannot deadlock");

    let s = summarize(&out.report.trace);
    println!("algorithm     : {alg}");
    println!("ranks/message : {p} ranks, {m} bytes, {seg}-byte segments");
    println!("transfers     : {}", s.transfers);
    println!("bytes moved   : {}", s.bytes);
    println!("finished at   : {}", s.last_delivery);
    println!(
        "NIC queueing  : mean {:.2} us, max {:.2} us",
        s.mean_queueing * 1e6,
        s.max_queueing * 1e6
    );

    // Who queued the longest? (Root-adjacent edges, for tree algorithms.)
    let mut worst = out.report.trace.clone();
    worst.sort_by(|a, b| b.queueing().partial_cmp(&a.queueing()).unwrap());
    println!("\nworst queueing transfers:");
    for r in worst.iter().take(5) {
        println!(
            "  {:>3} -> {:<3} {:>7} B  queued {:>8.2} us",
            r.src,
            r.dst,
            r.bytes,
            r.queueing() * 1e6
        );
    }

    let path = std::env::temp_dir().join(format!("collsel-trace-{alg}.json"));
    std::fs::write(&path, to_chrome_trace(&out.report.trace)).expect("write trace");
    println!("\nchrome trace written to {}", path.display());
}
