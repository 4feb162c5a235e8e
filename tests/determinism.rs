//! Deterministic-replay guarantees of the simulator: the virtual clock
//! and the noise stream are functions of the seed alone.

use collsel::coll::{bcast, BcastAlg};
use collsel::mpi::{simulate_traced, Comm};
use collsel::netsim::{ClusterModel, Fabric, SimTime, TransferRecord};
use collsel_support::Bytes;

fn traced_bcast(seed: u64) -> Vec<TransferRecord> {
    let cluster = ClusterModel::grisou(); // default noise ON
    let len = 96 * 1024;
    let out = simulate_traced(&cluster, 12, seed, |ctx| {
        let msg = (ctx.rank() == 0).then(|| Bytes::from(vec![0xA5u8; len]));
        let _ = bcast(ctx, BcastAlg::SplitBinary, 0, msg, len, 8 * 1024);
        ctx.wtime()
    })
    .expect("no deadlock");
    assert!(!out.report.trace.is_empty());
    out.report.trace
}

#[test]
fn same_seed_replays_an_identical_event_trace() {
    // Bit-for-bit: every transfer record (src, dst, bytes, all four
    // timestamps, shm flag) must match across runs, noise included.
    let a = traced_bcast(2021);
    let b = traced_bcast(2021);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_draw_different_noise() {
    let a = traced_bcast(1);
    let b = traced_bcast(2);
    // Same program, same cluster: the traffic (as a multiset — noise
    // reorders the event log) is identical...
    let key = |t: &[TransferRecord]| {
        let mut k: Vec<_> = t.iter().map(|r| (r.src, r.dst, r.bytes, r.shm)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(key(&a), key(&b));
    // ...but the noise stream is not, so the timestamps move.
    let times = |t: &[TransferRecord]| {
        let mut k: Vec<_> = t.iter().map(|r| r.delivered).collect();
        k.sort_unstable();
        k
    };
    assert_ne!(
        times(&a),
        times(&b),
        "noise draws did not change with the seed"
    );
}

#[test]
fn fabric_noise_stream_is_seed_keyed() {
    let cluster = ClusterModel::grisou();
    let plan = |seed: u64| {
        Fabric::new(cluster.clone(), seed)
            .plan_transfer(0, 1, 1 << 20, SimTime::ZERO)
            .delivered
    };
    assert_eq!(plan(7), plan(7));
    assert_ne!(plan(7), plan(8));
}
