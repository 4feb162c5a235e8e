//! Direct tests of the engine's deadlock detector: programs built to
//! block forever must return [`SimError::Deadlock`] with a `detail`
//! string useful enough to debug the cycle, and must never hang the
//! host test process.

use collsel_mpi::{simulate, simulate_with, Comm, SimError, SimOptions};
use collsel_netsim::{ClusterModel, NoiseParams, SimSpan};
use collsel_support::Bytes;

fn quiet(nodes: usize) -> ClusterModel {
    ClusterModel::builder("quiet", nodes)
        .noise(NoiseParams::OFF)
        .build()
}

fn expect_deadlock<T: Send + std::fmt::Debug>(
    result: Result<collsel_mpi::SimOutcome<T>, SimError>,
) -> String {
    match result {
        Err(SimError::Deadlock { detail }) => detail,
        Err(other) => panic!("expected Deadlock, got {other:?}"),
        Ok(out) => panic!("expected Deadlock, program finished: {:?}", out.results),
    }
}

#[test]
fn two_rank_recv_recv_cycle_is_detected() {
    // Both ranks block in recv waiting for the other: the classic cycle.
    let detail = expect_deadlock(simulate(&quiet(2), 2, 0, |ctx| {
        let peer = 1 - ctx.rank();
        let _ = ctx.recv(peer, 0);
    }));
    // The detail must name the blocked ranks so the cycle is debuggable.
    assert!(
        detail.contains('0') && detail.contains('1'),
        "detail should identify both blocked ranks: {detail:?}"
    );
}

#[test]
fn four_rank_ring_recv_cycle_is_detected() {
    // rank r waits for r+1 (mod 4): a 4-cycle with no sender anywhere.
    let detail = expect_deadlock(simulate(&quiet(4), 4, 0, |ctx| {
        let next = (ctx.rank() + 1) % 4;
        let _ = ctx.recv(next, 0);
    }));
    for rank in 0..4 {
        assert!(
            detail.contains(&rank.to_string()),
            "all four blocked ranks should appear in the detail: {detail:?}"
        );
    }
}

#[test]
fn rendezvous_send_cycle_is_detected() {
    // Large (rendezvous-protocol) blocking sends in a ring: every rank
    // waits for a receiver that is itself stuck sending.
    let big = Bytes::from(vec![0u8; 4 << 20]);
    let detail = expect_deadlock(simulate(&quiet(4), 4, 0, move |ctx| {
        let next = (ctx.rank() + 1) % 4;
        ctx.send(next, 0, big.clone());
        let _ = ctx.recv((ctx.rank() + 3) % 4, 0);
    }));
    assert!(!detail.is_empty(), "detail must not be empty");
}

#[test]
fn partial_deadlock_with_finished_ranks_is_detected() {
    // Rank 0 finishes immediately; ranks 1 and 2 deadlock on each
    // other. The engine must see through the finished rank.
    let detail = expect_deadlock(simulate(&quiet(3), 3, 0, |ctx| match ctx.rank() {
        0 => {}
        1 => {
            let _ = ctx.recv(2, 7);
        }
        _ => {
            let _ = ctx.recv(1, 7);
        }
    }));
    assert!(
        detail.contains('1') && detail.contains('2'),
        "the two live blocked ranks should be reported: {detail:?}"
    );
}

#[test]
fn mismatched_tag_never_matches_and_deadlocks() {
    // The send exists but carries the wrong tag: the recv can never
    // match, which is a deadlock once both sides are quiescent.
    let detail = expect_deadlock(simulate(&quiet(2), 2, 0, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, Bytes::from_static(b"wrong tag"));
            let _ = ctx.recv(1, 6);
        } else {
            let _ = ctx.recv(0, 6);
        }
    }));
    assert!(!detail.is_empty());
}

#[test]
fn deadlock_is_reported_even_with_a_watchdog_armed() {
    // The deadlock fires at a finite virtual time, long before any
    // generous deadline: the detector must win, not the watchdog.
    let opts = SimOptions::with_deadline(SimSpan::from_secs_f64(100.0));
    let result = simulate_with(&quiet(2), 2, 0, opts, |ctx| {
        let peer = 1 - ctx.rank();
        let _ = ctx.recv(peer, 0);
    });
    let _ = expect_deadlock(result);
}

#[test]
fn deadlock_detail_is_stable_across_runs() {
    // Determinism extends to failure: the same program yields the same
    // diagnostic, which keeps chaos-suite logs diffable.
    let run = || {
        expect_deadlock(simulate(&quiet(4), 4, 9, |ctx| {
            let next = (ctx.rank() + 1) % 4;
            let _ = ctx.recv(next, 0);
        }))
    };
    assert_eq!(run(), run());
}
