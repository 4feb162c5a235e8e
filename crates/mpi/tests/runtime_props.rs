//! Property tests of the MPI runtime: random communication patterns
//! must complete, route correctly, and keep virtual time coherent.

use collsel_mpi::{simulate, Comm};
use collsel_netsim::{ClusterModel, NoiseParams, SimSpan, SimTime};
use collsel_support::prelude::*;
use collsel_support::Bytes;

fn cluster(nodes: usize) -> ClusterModel {
    ClusterModel::builder("prop", nodes)
        .bandwidth_gbps(10.0)
        .wire_latency(SimSpan::from_micros(10))
        .noise(NoiseParams::OFF)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Permutation routing: every rank sends one message according to a
    /// random permutation and receives, from the rank the inverse
    /// permutation names, exactly the message addressed to it.
    #[test]
    fn permutation_routing(
        p in 2usize..12,
        perm_seed in any::<u64>(),
        len in 1usize..10_000,
    ) {
        // Build a permutation from the seed (Fisher-Yates with an LCG).
        let mut perm: Vec<usize> = (0..p).collect();
        let mut state = perm_seed | 1;
        for i in (1..p).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut inverse = vec![0; p];
        for (src, &dst) in perm.iter().enumerate() {
            inverse[dst] = src;
        }
        let perm2 = perm.clone();
        let out = simulate(&cluster(p), p, 0, move |ctx| {
            let dst = perm2[ctx.rank()];
            let r = ctx.irecv(inverse[ctx.rank()], 7);
            let s = ctx.isend(dst, 7, Bytes::from(vec![ctx.rank() as u8; len]));
            ctx.wait_send(s);
            let data = ctx.wait_recv(r);
            (data[0] as usize, data.len())
        }).unwrap();
        for (rank, &(payload_src, got_len)) in out.results.iter().enumerate() {
            prop_assert_eq!(perm[payload_src], rank, "message misrouted");
            prop_assert_eq!(got_len, len);
        }
    }

    /// Random many-to-one traffic: the root receives each sender's
    /// count of messages from that sender, every one carrying the
    /// sender's rank, and nothing is lost.
    #[test]
    fn many_to_one_delivers_every_message(
        p in 2usize..10,
        counts in prop::collection::vec(0usize..5, 1..10),
    ) {
        let per_rank: Vec<usize> = (0..p - 1).map(|i| counts[i % counts.len()]).collect();
        let total: usize = per_rank.iter().sum();
        let per_rank2 = per_rank.clone();
        let out = simulate(&cluster(p), p, 0, move |ctx| {
            if ctx.rank() == 0 {
                let mut seen = vec![0usize; ctx.size()];
                for src in 1..ctx.size() {
                    for _ in 0..per_rank2[src - 1] {
                        seen[ctx.recv(src, 3)[0] as usize] += 1;
                    }
                }
                seen
            } else {
                for _ in 0..per_rank2[ctx.rank() - 1] {
                    ctx.send(0, 3, Bytes::from(vec![ctx.rank() as u8]));
                }
                Vec::new()
            }
        }).unwrap();
        prop_assert_eq!(out.results[0].iter().sum::<usize>(), total);
        for (i, &expected) in per_rank.iter().enumerate() {
            prop_assert_eq!(out.results[0][i + 1], expected);
        }
    }

    /// Virtual time never runs backwards on any rank, and a later
    /// barrier exit is at least the maximum of earlier exits.
    #[test]
    fn clocks_are_coherent(p in 2usize..10, rounds in 1usize..6) {
        let out = simulate(&cluster(p), p, 0, move |ctx| {
            let mut exits = Vec::new();
            for r in 0..rounds {
                // Staggered work: rank i sends to rank (i+1)%p in round r
                // if i % (r+2) == 0.
                let nxt = (ctx.rank() + 1) % ctx.size();
                let prv = (ctx.rank() + ctx.size() - 1) % ctx.size();
                if ctx.rank() % (r + 2) == 0 {
                    ctx.send(nxt, r as u32, Bytes::from(vec![0u8; 512]));
                }
                if prv % (r + 2) == 0 {
                    let _ = ctx.recv(prv, r as u32);
                }
                ctx.barrier();
                exits.push(ctx.wtime());
            }
            exits
        }).unwrap();
        // Within each rank: monotone. Across ranks: equal per round
        // (the built-in barrier synchronises exactly).
        for round in 0..rounds {
            let t0: SimTime = out.results[0][round];
            for exits in &out.results {
                prop_assert_eq!(exits[round], t0);
                if round > 0 {
                    prop_assert!(exits[round] >= exits[round - 1]);
                }
            }
        }
    }

    /// Message counters equal exactly the number of sends issued.
    #[test]
    fn counters_match_traffic(p in 2usize..8, msgs in 0usize..12) {
        let out = simulate(&cluster(p), p, 0, move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..msgs {
                    ctx.send(1 + i % (ctx.size() - 1), 9, Bytes::from(vec![0u8; 100]));
                }
            } else {
                let mine = (0..msgs).filter(|i| 1 + i % (p - 1) == ctx.rank()).count();
                for _ in 0..mine {
                    let _ = ctx.recv(0, 9);
                }
            }
        }).unwrap();
        prop_assert_eq!(out.report.messages, msgs as u64);
        prop_assert_eq!(out.report.bytes, (msgs * 100) as u64);
    }
}
