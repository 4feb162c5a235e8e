//! Implementation-derived models for **all seven collectives** — the
//! breadth extension of the paper's Sect. 3 method.
//!
//! [`coefficients`] is one `match` over [`Alg`], one arm per algorithm,
//! each formula read off the ported implementation in
//! [`collsel-coll`](collsel_coll) exactly as [`derived`](crate::derived)
//! reads off the broadcast ports. Broadcast and reduce delegate to the
//! [`derived`](crate::derived) and [`reduce_ext`](crate::reduce_ext)
//! formulas, scatter to the `derived` extension formulas; the other
//! arms derive theirs here. Every cost is linear in `(α, β)` once γ is
//! fixed, so the estimation crate assembles Fig. 4-style linear systems
//! for any collective the same way it does for broadcast.

use crate::derived::{
    bcast_coefficients, gather_linear_coefficients, scatter_binomial_coefficients,
    scatter_linear_coefficients,
};
use crate::gamma::GammaTable;
use crate::hockney::{Coefficients, Hockney};
use crate::reduce_ext::reduce_coefficients;
use collsel_coll::{
    Alg, AllgatherAlg, AllreduceAlg, AlltoallAlg, BcastAlg, GatherAlg, ReduceAlg, ScatterAlg,
};

/// The segment size hardcoded by `allgather_gather_bcast`'s broadcast
/// phase.
const GATHER_BCAST_SEG: usize = 8 * 1024;

/// Cost coefficients of running `alg` over `p` ranks on an `m`-byte
/// payload with `seg_size`-byte segments (`m` follows
/// [`run_collective`](collsel_coll::run_collective)'s convention: total
/// vector for bcast/reduce/allreduce, per-rank block otherwise;
/// non-segmented algorithms ignore `seg_size`). A single rank is free.
///
/// # Panics
///
/// Panics if `seg_size` is zero for a segmented algorithm.
pub fn coefficients(
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    gamma: &GammaTable,
) -> Coefficients {
    if p <= 1 {
        return Coefficients::ZERO;
    }
    let n = (p - 1) as f64;
    match alg {
        // The paper's Sect. 3 formulas (Eqs. 2–7).
        Alg::Bcast(b) => bcast_coefficients(b, p, m, seg_size, gamma),
        // Broadcast shapes with data flowing up.
        Alg::Reduce(r) => reduce_coefficients(r, p, m, seg_size, gamma),
        // A binomial reduce into rank 0 followed by a binomial broadcast
        // of the result, both segmented with the caller's `seg_size`:
        // the sequential composition of the two tree models.
        Alg::Allreduce(AllreduceAlg::ReduceBcast) => {
            reduce_coefficients(ReduceAlg::Binomial, p, m, seg_size, gamma).plus(
                bcast_coefficients(BcastAlg::Binomial, p, m, seg_size, gamma),
            )
        }
        // `log₂P` exchange-and-fold rounds of the full `m`-byte vector;
        // non-power-of-two worlds add a fold-in and a fold-out round for
        // the extra ranks, i.e. two more full-vector exchanges on the
        // critical path.
        Alg::Allreduce(AllreduceAlg::RecursiveDoubling) => {
            let pow2 = (usize::BITS - 1 - p.leading_zeros()) as f64; // ⌊log₂ p⌋
            let extra_rounds = if p.is_power_of_two() { 0.0 } else { 2.0 };
            let rounds = pow2 + extra_rounds;
            Coefficients::new(rounds, rounds * m as f64)
        }
        // The root pre-posts `P-1` receives of `m`-byte blocks and waits
        // for all; same drain as Eq. 8: `(P-1)·(α + m·β)`.
        Alg::Gather(GatherAlg::Linear) => gather_linear_coefficients(p, m),
        // `⌈log₂P⌉` rounds on the root's critical path, but the root's
        // last receive carries half of everything, and the bytes
        // funnelling into the root over the whole run total `(P-1)·m` —
        // the mirror image of the binomial scatter.
        Alg::Gather(GatherAlg::Binomial) => {
            Coefficients::new(log2_ceil(p), (p - 1) as f64 * m as f64)
        }
        Alg::Scatter(ScatterAlg::Linear) => scatter_linear_coefficients(p, m),
        Alg::Scatter(ScatterAlg::Binomial) => scatter_binomial_coefficients(p, m),
        // `P-1` rounds, each a neighbour sendrecv of one `m`-byte block:
        // `(P-1)·(α + m·β)`.
        Alg::Allgather(AllgatherAlg::Ring) => Coefficients::new(n, n * m as f64),
        // `log₂P` exchange rounds doubling the payload each time: `log₂P`
        // startups moving `(P-1)·m` bytes in total; the port falls back
        // to the ring on non-power-of-two worlds, and so does the model.
        Alg::Allgather(AllgatherAlg::RecursiveDoubling) => {
            if p.is_power_of_two() {
                Coefficients::new(log2_ceil(p), (p - 1) as f64 * m as f64)
            } else {
                Coefficients::new(n, n * m as f64)
            }
        }
        // A linear gather of `m`-byte blocks into rank 0 followed by a
        // binomial broadcast of the packed `P·m`-byte vector (the port
        // broadcasts with its own fixed 8 KiB segments, so the caller's
        // `seg_size` does not appear).
        Alg::Allgather(AllgatherAlg::GatherBcast) => gather_linear_coefficients(p, m).plus(
            bcast_coefficients(BcastAlg::Binomial, p, p * m, GATHER_BCAST_SEG, gamma),
        ),
        // Every rank posts its `P-1` receives and `P-1` sends at once;
        // all `P-1` outgoing blocks contend on the sender's NIC exactly
        // like a `P`-destination non-blocking linear broadcast, so the
        // stage is costed `γ(P)·(P-1)·(α + m·β)`.
        Alg::Alltoall(AlltoallAlg::Linear) => {
            let g = gamma.gamma(p);
            Coefficients::new(g * n, g * n * m as f64)
        }
        // `P-1` balanced sendrecv rounds, one partner per round, no
        // contention: `(P-1)·(α + m·β)`.
        Alg::Alltoall(AlltoallAlg::Pairwise) => Coefficients::new(n, n * m as f64),
    }
}

/// Predicted execution time (seconds) of any collective algorithm
/// under `hockney`.
pub fn predict(
    alg: Alg,
    p: usize,
    m: usize,
    seg_size: usize,
    gamma: &GammaTable,
    hockney: &Hockney,
) -> f64 {
    hockney.eval(coefficients(alg, p, m, seg_size, gamma))
}

/// `⌈log₂ p⌉` for `p ≥ 1` (binomial/recursive-doubling round counts).
fn log2_ceil(p: usize) -> f64 {
    (usize::BITS - (p - 1).leading_zeros()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_coll::Collective;

    fn gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.114), (4, 1.219), (5, 1.283), (6, 1.451), (7, 1.540)])
    }

    #[test]
    fn every_algorithm_has_finite_non_negative_coefficients() {
        let g = gamma();
        for c in Collective::ALL {
            for &alg in c.algorithms() {
                for p in [2usize, 3, 5, 17, 90, 124] {
                    for m in [0usize, 1, 8192, 1 << 22] {
                        let co = coefficients(alg, p, m, 8192, &g);
                        assert!(co.a.is_finite() && co.a >= 0.0, "{alg:?} p={p} m={m}");
                        assert!(co.b.is_finite() && co.b >= 0.0, "{alg:?} p={p} m={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_rank_is_free_everywhere() {
        let g = gamma();
        for c in Collective::ALL {
            for &alg in c.algorithms() {
                assert_eq!(
                    coefficients(alg, 1, 4096, 512, &g),
                    Coefficients::ZERO,
                    "{alg:?}"
                );
            }
        }
    }

    #[test]
    fn bcast_and_reduce_delegate_to_existing_formulas() {
        let g = gamma();
        let (p, m, seg) = (24, 1 << 20, 8192);
        for b in BcastAlg::ALL {
            assert_eq!(
                coefficients(Alg::Bcast(b), p, m, seg, &g),
                bcast_coefficients(b, p, m, seg, &g)
            );
        }
        for r in ReduceAlg::ALL {
            assert_eq!(
                coefficients(Alg::Reduce(r), p, m, seg, &g),
                reduce_coefficients(r, p, m, seg, &g)
            );
        }
    }

    #[test]
    fn costs_grow_with_message_size() {
        let g = gamma();
        let h = Hockney::new(1e-6, 1e-9);
        for c in Collective::ALL {
            for &alg in c.algorithms() {
                let t1 = predict(alg, 16, 64 * 1024, 8192, &g, &h);
                let t2 = predict(alg, 16, 2 << 20, 8192, &g, &h);
                assert!(
                    t2 >= t1 * 0.999,
                    "{alg:?}: {t1} then {t2} should not shrink"
                );
            }
        }
    }
}
