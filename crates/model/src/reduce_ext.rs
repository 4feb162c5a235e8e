//! Extension models for the reduce algorithms.
//!
//! The paper's conclusion proposes carrying the implementation-derived
//! approach to other collectives; this module does it for the ported
//! reduce suite. The reduce implementations mirror the broadcast
//! pipelines with data flowing towards the root, so their derived cost
//! shapes mirror the broadcast models:
//!
//! * linear — the root drains `P-1` non-blocking receives, one
//!   γ(P)-weighted transfer of `m` bytes: `γ(P)·(α + m·β)` (the NIC
//!   serialization is what γ measures, mirroring the linear broadcast);
//! * chain — 4 parallel chains feed the root, which drains 4 segment
//!   streams per stage (γ(5)) across the longest chain;
//! * pipeline — `(P-2+n_s)` pipeline stages of one segment up a single
//!   chain;
//! * binary / in-order binary — `(D + n_s - 1)` stages, each a 2-source
//!   non-blocking linear *gather* costed with the same γ(3) factor
//!   (receiving from k children serializes on the NIC exactly like
//!   sending to k); the two differ only in their tree's depth;
//! * binomial — Eq. 6's multiplier with the root's in-degree.
//!
//! The per-lane compute cost of the reduction operator is absorbed by
//! the fitted per-algorithm (α, β), exactly as the communication
//! context effects are.

use crate::derived::num_segments;
use crate::gamma::GammaTable;
use crate::hockney::{Coefficients, Hockney};
use collsel_coll::{ReduceAlg, Topology};

/// Cost coefficients of reducing `m` bytes from `p` ranks with `alg`
/// using `seg_size`-byte segments.
///
/// # Panics
///
/// Panics if `seg_size` is zero.
pub fn reduce_coefficients(
    alg: ReduceAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    gamma: &GammaTable,
) -> Coefficients {
    if p <= 1 {
        return Coefficients::ZERO;
    }
    let ns = num_segments(m, seg_size);
    let m_s = m as f64 / ns as f64;
    match alg {
        ReduceAlg::Linear => {
            let g = gamma.gamma(p);
            Coefficients::new(g, g * m as f64)
        }
        ReduceAlg::Chain => {
            let k = collsel_coll::DEFAULT_CHAIN_FANOUT.min(p - 1);
            let chain_len = (p - 1).div_ceil(k);
            let g = gamma.gamma(k + 1);
            let a = ns as f64 * g + (chain_len - 1) as f64;
            Coefficients::new(a, a * m_s)
        }
        ReduceAlg::Pipeline => {
            let stages = (p - 2 + ns) as f64;
            Coefficients::new(stages, stages * m_s)
        }
        ReduceAlg::Binary => {
            let depth = Topology::binary_height(p) as f64;
            let a = (depth + ns as f64 - 1.0) * gamma.gamma(3);
            Coefficients::new(a, a * m_s)
        }
        ReduceAlg::InOrderBinary => {
            let depth = Topology::in_order_binary_height(p) as f64;
            let a = (depth + ns as f64 - 1.0) * gamma.gamma(3);
            Coefficients::new(a, a * m_s)
        }
        ReduceAlg::Binomial => {
            let h_floor = (usize::BITS - 1 - p.leading_zeros()) as usize;
            let h_ceil = (usize::BITS - (p - 1).leading_zeros()) as usize;
            let mut a = ns as f64 * gamma.gamma(h_ceil + 1) - 1.0;
            for i in 1..h_floor {
                a += gamma.gamma(h_ceil - i + 1);
            }
            Coefficients::new(a.max(1.0), a.max(1.0) * m_s)
        }
    }
}

/// Predicted execution time (seconds) of a reduction under `hockney`.
pub fn predict_reduce(
    alg: ReduceAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    gamma: &GammaTable,
    hockney: &Hockney,
) -> f64 {
    hockney.eval(reduce_coefficients(alg, p, m, seg_size, gamma))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.1), (5, 1.3), (7, 1.5)])
    }

    #[test]
    fn single_rank_is_free() {
        for alg in ReduceAlg::ALL {
            assert_eq!(
                reduce_coefficients(alg, 1, 4096, 512, &gamma()),
                Coefficients::ZERO
            );
        }
    }

    #[test]
    fn reduce_mirrors_bcast_shapes() {
        use collsel_coll::BcastAlg;
        let g = gamma();
        let (p, m, seg) = (32, 1 << 20, 8192);
        for (r, b) in [
            (ReduceAlg::Chain, BcastAlg::KChain),
            (ReduceAlg::Pipeline, BcastAlg::Chain),
            (ReduceAlg::Binary, BcastAlg::Binary),
            (ReduceAlg::Binomial, BcastAlg::Binomial),
        ] {
            let rc = reduce_coefficients(r, p, m, seg, &g);
            let bc = crate::derived::bcast_coefficients(b, p, m, seg, &g);
            assert!((rc.a - bc.a).abs() < 1e-9, "{r}: {} vs {}", rc.a, bc.a);
        }
    }

    #[test]
    fn pipeline_beats_flat_for_large_messages() {
        let g = gamma();
        let h = Hockney::new(1e-6, 1e-9);
        let t_pipeline = predict_reduce(ReduceAlg::Pipeline, 16, 4 << 20, 8192, &g, &h);
        let t_chain = predict_reduce(ReduceAlg::Chain, 16, 4 << 20, 8192, &g, &h);
        let t_linear = predict_reduce(ReduceAlg::Linear, 16, 4 << 20, 8192, &g, &h);
        assert!(t_pipeline < t_linear);
        assert!(t_chain < t_linear);
    }

    #[test]
    fn costs_monotone_in_p() {
        let g = gamma();
        for alg in ReduceAlg::ALL {
            let small = reduce_coefficients(alg, 4, 65536, 8192, &g);
            let large = reduce_coefficients(alg, 64, 65536, 8192, &g);
            assert!(large.a >= small.a, "{alg}");
        }
    }
}
