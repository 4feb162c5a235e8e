//! Correctness of every broadcast algorithm: all ranks must end up with
//! exactly the root's message, for a grid of process counts, roots,
//! message sizes and segment sizes.

use collsel_coll::{bcast, bcast_k_chain, BcastAlg};
use collsel_mpi::{simulate, Comm};
use collsel_netsim::{ClusterModel, NoiseParams, SimSpan};
use collsel_support::Bytes;

/// A fast cluster so the exhaustive grid stays cheap in real time.
fn test_cluster(nodes: usize) -> ClusterModel {
    ClusterModel::builder("test", nodes)
        .bandwidth_gbps(10.0)
        .wire_latency(SimSpan::from_micros(5))
        .noise(NoiseParams::OFF)
        .build()
}

/// A recognisable payload: position-dependent bytes so reordering or
/// mis-slicing is detected, not just length errors.
fn message(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

fn check(alg: BcastAlg, p: usize, root: usize, len: usize, seg: usize) {
    let cluster = test_cluster(p);
    let msg = message(len);
    let expected = msg.clone();
    let out = simulate(&cluster, p, 0, move |ctx| {
        let m = (ctx.rank() == root).then(|| msg.clone());
        bcast(ctx, alg, root, m, len, seg)
    })
    .unwrap_or_else(|e| panic!("{alg} p={p} root={root} len={len} seg={seg}: {e}"));
    for (rank, got) in out.results.iter().enumerate() {
        assert_eq!(
            got, &expected,
            "{alg} p={p} root={root} len={len} seg={seg}: rank {rank} got wrong data"
        );
    }
}

#[test]
fn all_algorithms_small_grid() {
    for alg in BcastAlg::ALL {
        for p in [1, 2, 3, 4, 5, 8] {
            for root in [0, p - 1] {
                check(alg, p, root, 1000, 256);
            }
        }
    }
}

#[test]
fn all_algorithms_medium_world() {
    for alg in BcastAlg::ALL {
        check(alg, 17, 5, 10_000, 1024);
    }
}

#[test]
fn odd_and_exact_segment_boundaries() {
    for alg in BcastAlg::ALL {
        // Exact multiple of the segment size.
        check(alg, 6, 0, 2048, 256);
        // One byte over.
        check(alg, 6, 0, 2049, 256);
        // One byte under.
        check(alg, 6, 0, 2047, 256);
        // Message smaller than one segment.
        check(alg, 6, 0, 100, 256);
        // Single byte.
        check(alg, 6, 0, 1, 256);
    }
}

#[test]
fn zero_length_broadcast() {
    for alg in BcastAlg::ALL {
        check(alg, 5, 0, 0, 256);
    }
}

#[test]
fn segment_size_one() {
    for alg in BcastAlg::ALL {
        check(alg, 4, 0, 64, 1);
    }
}

#[test]
fn segment_size_larger_than_message() {
    for alg in BcastAlg::ALL {
        check(alg, 7, 3, 128, 8192);
    }
}

#[test]
fn large_message_crosses_rendezvous_threshold() {
    // Default eager threshold is 64 KB; the linear algorithm sends the
    // whole 256 KB message (rendezvous) while segmented ones stay eager.
    for alg in [BcastAlg::Linear, BcastAlg::Binomial, BcastAlg::SplitBinary] {
        check(alg, 9, 0, 256 * 1024, 8 * 1024);
    }
}

#[test]
fn k_chain_various_fanouts() {
    let p = 11;
    for k in [1, 2, 3, 4, 8, 16] {
        let cluster = test_cluster(p);
        let len = 5000;
        let msg = message(len);
        let expected = msg.clone();
        let out = simulate(&cluster, p, 0, move |ctx| {
            let m = (ctx.rank() == 0).then(|| msg.clone());
            bcast_k_chain(ctx, k, 0, m, len, 512)
        })
        .unwrap();
        assert!(out.results.iter().all(|g| g == &expected), "k = {k}");
    }
}

#[test]
fn every_rank_can_be_root() {
    let p = 6;
    for alg in BcastAlg::ALL {
        for root in 0..p {
            check(alg, p, root, 777, 128);
        }
    }
}

#[test]
fn broadcast_on_calibrated_presets() {
    for cluster in [ClusterModel::grisou(), ClusterModel::gros()] {
        for alg in BcastAlg::ALL {
            let len = 32 * 1024;
            let msg = message(len);
            let expected = msg.clone();
            let out = simulate(&cluster, 24, 1, move |ctx| {
                let m = (ctx.rank() == 0).then(|| msg.clone());
                bcast(ctx, alg, 0, m, len, 8 * 1024)
            })
            .unwrap();
            assert!(
                out.results.iter().all(|g| g == &expected),
                "{alg} on {}",
                cluster.name()
            );
        }
    }
}

#[test]
fn back_to_back_broadcasts_do_not_interfere() {
    // Two different algorithms in sequence within one simulated program;
    // stale matching state from the first must not corrupt the second.
    let p = 8;
    let cluster = test_cluster(p);
    let out = simulate(&cluster, p, 0, |ctx| {
        let m1 = (ctx.rank() == 0).then(|| message(3000));
        let r1 = bcast(ctx, BcastAlg::Binomial, 0, m1, 3000, 512);
        let m2 = (ctx.rank() == 2).then(|| message(500));
        let r2 = bcast(ctx, BcastAlg::SplitBinary, 2, m2, 500, 128);
        let m3 = (ctx.rank() == 1).then(|| message(4096));
        let r3 = bcast(ctx, BcastAlg::Chain, 1, m3, 4096, 1024);
        (r1, r2, r3)
    })
    .unwrap();
    for (r1, r2, r3) in &out.results {
        assert_eq!(r1, &message(3000));
        assert_eq!(r2, &message(500));
        assert_eq!(r3, &message(4096));
    }
}

#[test]
fn message_counts_match_tree_edges() {
    // Each segmented algorithm sends ns segments over each of the P-1
    // tree edges (split-binary differs: halves + exchange).
    let p = 8;
    let len = 4096;
    let seg = 1024; // ns = 4
    let cluster = test_cluster(p);
    for alg in [BcastAlg::Chain, BcastAlg::Binary, BcastAlg::Binomial] {
        let msg = message(len);
        let out = simulate(&cluster, p, 0, move |ctx| {
            let m = (ctx.rank() == 0).then(|| msg.clone());
            bcast(ctx, alg, 0, m, len, seg)
        })
        .unwrap();
        assert_eq!(out.report.messages, ((p - 1) * 4) as u64, "{alg}");
        assert_eq!(out.report.bytes, ((p - 1) * len) as u64, "{alg}");
    }
}

#[test]
fn broadcast_with_block_mapping_and_shared_nodes() {
    // Two ranks per node, Open MPI-style block mapping: neighbours are
    // co-located and use the shared-memory path mid-tree.
    use collsel_netsim::RankMapping;
    let cluster = ClusterModel::builder("blocky", 6)
        .cpus_per_node(2)
        .mapping(RankMapping::Block)
        .noise(NoiseParams::OFF)
        .build();
    for alg in BcastAlg::ALL {
        let len = 6000;
        let msg = message(len);
        let expected = msg.clone();
        let out = simulate(&cluster, 12, 0, move |ctx| {
            let m = (ctx.rank() == 0).then(|| msg.clone());
            bcast(ctx, alg, 0, m, len, 512)
        })
        .unwrap();
        assert!(out.results.iter().all(|g| g == &expected), "{alg}");
        assert!(out.report.shm_messages > 0, "{alg} should cross shm paths");
    }
}

#[test]
fn broadcast_on_oversubscribed_racks() {
    let cluster = ClusterModel::builder("racked", 12)
        .racks(4, 3.0, collsel_netsim::SimSpan::from_micros(4))
        .noise(NoiseParams::OFF)
        .build();
    for alg in BcastAlg::ALL {
        let len = 40_000;
        let msg = message(len);
        let expected = msg.clone();
        let out = simulate(&cluster, 12, 0, move |ctx| {
            let m = (ctx.rank() == 0).then(|| msg.clone());
            bcast(ctx, alg, 0, m, len, 4096)
        })
        .unwrap();
        assert!(out.results.iter().all(|g| g == &expected), "{alg}");
    }
}
