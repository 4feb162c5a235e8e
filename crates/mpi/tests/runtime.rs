//! Behavioural tests of the simulated MPI runtime.

use collsel_mpi::{simulate, Comm, SimError};
use collsel_netsim::{ClusterModel, NoiseParams, SimSpan, SimTime};
use collsel_support::Bytes;

/// A small quiet cluster for exact-time assertions: 1 GB/s, 10 us wire
/// latency, no hops/gaps/overheads/noise.
fn quiet(nodes: usize) -> ClusterModel {
    ClusterModel::builder("quiet", nodes)
        .bandwidth_gbps(8.0)
        .wire_latency(SimSpan::from_micros(10))
        .switch_hops(0, SimSpan::ZERO)
        .per_msg_gap(SimSpan::ZERO)
        .overheads(SimSpan::ZERO, SimSpan::ZERO)
        .noise(NoiseParams::OFF)
        .build()
}

fn payload(n: usize) -> Bytes {
    Bytes::from(vec![0xabu8; n])
}

#[test]
fn point_to_point_delivers_payload() {
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 42, Bytes::from_static(b"hello"));
            Vec::new()
        } else {
            ctx.recv(0, 42).to_vec()
        }
    })
    .unwrap();
    assert_eq!(out.results[1], b"hello");
}

#[test]
fn p2p_time_is_latency_plus_serialization() {
    // 1000 bytes at 1 GB/s = 1 us serialization; 10 us latency.
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, payload(1000));
            SimTime::ZERO
        } else {
            let _ = ctx.recv(0, 0);
            ctx.wtime()
        }
    })
    .unwrap();
    assert_eq!(out.results[1], SimTime::from_nanos(11_000));
}

#[test]
fn runs_are_deterministic_across_repeats() {
    let cluster = ClusterModel::grisou();
    let run = || {
        simulate(&cluster, 8, 33, |ctx| {
            let t0 = ctx.wtime();
            if ctx.rank() == 0 {
                for dst in 1..ctx.size() {
                    ctx.send(dst, 0, payload(8192));
                }
            } else {
                let _ = ctx.recv(0, 0);
            }
            ctx.barrier();
            ctx.wtime() - t0
        })
        .unwrap()
        .results
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_change_noisy_timings() {
    let cluster = ClusterModel::grisou(); // default noise on
    let run = |seed| {
        simulate(&cluster, 4, seed, |ctx| {
            if ctx.rank() == 0 {
                for dst in 1..ctx.size() {
                    ctx.send(dst, 0, payload(65536));
                }
            } else {
                let _ = ctx.recv(0, 0);
            }
            ctx.barrier();
            ctx.wtime()
        })
        .unwrap()
        .results
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn nonblocking_sends_overlap() {
    // Two isends of 1000 B from rank 0: serialized on the NIC, so the
    // second is delivered 1 us after the first, not a full p2p later.
    let out = simulate(&quiet(3), 3, 0, |ctx| match ctx.rank() {
        0 => {
            let r1 = ctx.isend(1, 0, payload(1000));
            let r2 = ctx.isend(2, 0, payload(1000));
            ctx.wait_all_sends(vec![r1, r2]);
            SimTime::ZERO
        }
        _ => {
            let _ = ctx.recv(0, 0);
            ctx.wtime()
        }
    })
    .unwrap();
    assert_eq!(out.results[1], SimTime::from_nanos(11_000));
    assert_eq!(out.results[2], SimTime::from_nanos(12_000));
}

#[test]
fn rendezvous_waits_for_receiver() {
    // Eager threshold is 64 KB by default; a 1 MB message cannot start
    // until the receiver posts, so a late receiver delays the sender-side
    // completion too.
    let cluster = quiet(2);
    let out = simulate(&cluster, 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, payload(1 << 20));
            ctx.wtime()
        } else {
            // Delay posting the receive by first synchronising on a
            // late message exchange with rank 0? Simpler: the receive
            // is posted immediately at t=0 here; the handshake still
            // costs two control latencies.
            let _ = ctx.recv(0, 0);
            ctx.wtime()
        }
    })
    .unwrap();
    // Transfer: ready = 0 + 2*10us (RTS/CTS), + 1 MiB at 1 GB/s
    // = 1048.576 us, + 10 us latency.
    let expected = SimTime::from_nanos(20_000 + 1_048_576 + 10_000);
    assert_eq!(out.results[1], expected);
    // Sender completes when the NIC finishes: 20 us + 1048.576 us.
    assert_eq!(out.results[0], SimTime::from_nanos(20_000 + 1_048_576));
}

#[test]
fn eager_send_completes_without_receiver() {
    // A small send finishes locally even though the receive is posted
    // (much) later in virtual time.
    let out = simulate(&quiet(3), 3, 0, |ctx| match ctx.rank() {
        0 => {
            ctx.send(2, 0, payload(100));
            ctx.wtime()
        }
        1 => {
            // Keep rank 2 busy so its recv from 0 is posted late.
            ctx.send(2, 1, payload(1000));
            SimTime::ZERO
        }
        _ => {
            let _ = ctx.recv(1, 1);
            let _ = ctx.recv(0, 0);
            ctx.wtime()
        }
    })
    .unwrap();
    assert!(out.results[0] < out.results[2]);
}

#[test]
fn message_order_between_pair_is_fifo() {
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            for i in 0..10u8 {
                ctx.send(1, 7, Bytes::from(vec![i]));
            }
            Vec::new()
        } else {
            (0..10).map(|_| ctx.recv(0, 7)[0]).collect::<Vec<u8>>()
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (0..10).collect::<Vec<u8>>());
}

#[test]
fn tags_select_messages_out_of_order() {
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 1, Bytes::from_static(b"one"));
            ctx.send(1, 2, Bytes::from_static(b"two"));
            Vec::new()
        } else {
            // Receive tag 2 first even though tag 1 arrived first.
            let two = ctx.recv(0, 2);
            let one = ctx.recv(0, 1);
            vec![two.to_vec(), one.to_vec()]
        }
    })
    .unwrap();
    assert_eq!(out.results[1], vec![b"two".to_vec(), b"one".to_vec()]);
}

#[test]
fn barrier_synchronises_clocks() {
    let out = simulate(&quiet(4), 4, 0, |ctx| {
        if ctx.rank() == 1 {
            // Make rank 1 late by exchanging an extra large message.
            ctx.send(1, 9, payload(50_000)); // self-send
            let _ = ctx.recv(1, 9);
        }
        ctx.barrier();
        ctx.wtime()
    })
    .unwrap();
    let t0 = out.results[0];
    assert!(out.results.iter().all(|&t| t == t0), "{:?}", out.results);
}

#[test]
fn self_send_works() {
    let out = simulate(&quiet(1), 1, 0, |ctx| {
        ctx.send(0, 3, Bytes::from_static(b"me"));
        ctx.recv(0, 3).to_vec()
    })
    .unwrap();
    assert_eq!(out.results[0], b"me");
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        let other = 1 - ctx.rank();
        let data = ctx.sendrecv(other, 0, Bytes::from(vec![ctx.rank() as u8; 4]), other, 0);
        data[0]
    })
    .unwrap();
    assert_eq!(out.results, vec![1, 0]);
}

#[test]
fn deadlock_is_detected() {
    let err = simulate(&quiet(2), 2, 0, |ctx| {
        // Both ranks receive, nobody sends.
        let _ = ctx.recv(1 - ctx.rank(), 0);
    })
    .unwrap_err();
    match err {
        SimError::Deadlock { detail } => {
            assert!(detail.contains("rank 0"), "{detail}");
            assert!(detail.contains("rank 1"), "{detail}");
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn barrier_with_finished_rank_deadlocks() {
    let err = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.barrier();
        }
        // Rank 1 exits immediately: the barrier can never complete.
    })
    .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }));
}

#[test]
fn rank_panic_is_reported() {
    let err = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 1 {
            panic!("intentional failure");
        }
        ctx.barrier();
    })
    .unwrap_err();
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 1);
            assert!(message.contains("intentional failure"));
        }
        other => panic!("expected rank panic, got {other}"),
    }
}

#[test]
fn report_counts_messages_and_bytes() {
    let out = simulate(&quiet(3), 3, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, payload(100));
            ctx.send(2, 0, payload(200));
        } else {
            let _ = ctx.recv(0, 0);
        }
    })
    .unwrap();
    assert_eq!(out.report.messages, 2);
    assert_eq!(out.report.bytes, 300);
    assert!(out.report.makespan > SimTime::ZERO);
}

#[test]
fn shared_memory_path_is_used_for_colocated_ranks() {
    // 2 nodes x 2 cpus, cyclic mapping: ranks 0 and 2 share node 0.
    let cluster = ClusterModel::builder("shm", 2)
        .cpus_per_node(2)
        .noise(NoiseParams::OFF)
        .build();
    let out = simulate(&cluster, 4, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(2, 0, payload(128));
        } else if ctx.rank() == 2 {
            let _ = ctx.recv(0, 0);
        }
    })
    .unwrap();
    assert_eq!(out.report.shm_messages, 1);
}

#[test]
fn wtime_is_monotonic_per_rank() {
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        let mut times = Vec::new();
        for _ in 0..5 {
            times.push(ctx.wtime());
            if ctx.rank() == 0 {
                ctx.send(1, 0, payload(1000));
            } else {
                let _ = ctx.recv(0, 0);
            }
        }
        times
    })
    .unwrap();
    for times in &out.results {
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}

#[test]
fn many_ranks_full_exchange() {
    // Each rank sends to every other rank and receives from every other
    // rank; checks payload routing at a modest scale.
    let p = 16;
    let out = simulate(&quiet(p), p, 0, |ctx| {
        let me = ctx.rank() as u8;
        let srcs: Vec<usize> = (0..ctx.size()).filter(|&src| src != ctx.rank()).collect();
        let recvs = srcs.iter().map(|&src| ctx.irecv(src, 0)).collect();
        let mut sends = Vec::new();
        for dst in 0..ctx.size() {
            if dst != ctx.rank() {
                sends.push(ctx.isend(dst, 0, Bytes::from(vec![me; 8])));
            }
        }
        ctx.wait_all_sends(sends);
        let got = ctx.wait_all_recvs(recvs);
        got.iter()
            .zip(&srcs)
            .all(|(data, &src)| data[0] as usize == src)
    })
    .unwrap();
    assert!(out.results.iter().all(|&ok| ok));
}

#[test]
fn isend_validates_destination() {
    let err = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(5, 0, payload(1));
        } else {
            ctx.barrier();
        }
    })
    .unwrap_err();
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 0);
            assert!(message.contains("isend to rank"), "{message}");
        }
        other => panic!("expected rank panic, got {other}"),
    }
}

#[test]
#[should_panic(expected = "process slots")]
fn simulate_validates_rank_count() {
    let _ = simulate(&quiet(2), 64, 0, |_| ());
}

#[test]
fn traced_simulation_records_every_transfer() {
    use collsel_mpi::simulate_traced;
    use collsel_netsim::trace::summarize;
    let out = simulate_traced(&quiet(3), 3, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, payload(100));
            ctx.send(2, 0, payload(200));
        } else {
            let _ = ctx.recv(0, 0);
        }
    })
    .unwrap();
    assert_eq!(out.report.trace.len(), 2);
    let s = summarize(&out.report.trace);
    assert_eq!(s.transfers, 2);
    assert_eq!(s.bytes, 300);
    assert!(s.last_delivery > SimTime::ZERO);
    // The untraced path stays trace-free.
    let out = simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, payload(10));
        } else {
            let _ = ctx.recv(0, 0);
        }
    })
    .unwrap();
    assert!(out.report.trace.is_empty());
}

#[test]
fn trace_exports_to_chrome_json() {
    use collsel_mpi::simulate_traced;
    use collsel_netsim::trace::to_chrome_trace;
    let out = simulate_traced(&quiet(4), 4, 0, |ctx| {
        if ctx.rank() == 0 {
            for dst in 1..ctx.size() {
                ctx.send(dst, 0, payload(64));
            }
        } else {
            let _ = ctx.recv(0, 0);
        }
    })
    .unwrap();
    let json = to_chrome_trace(&out.report.trace);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
}
