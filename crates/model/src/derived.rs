//! Implementation-derived analytical models (the paper's Sect. 3).
//!
//! Each model is read off the *ported implementation* in
//! [`collsel-coll`](collsel_coll), not from the algorithm's textbook
//! definition. Two implementation details drive every formula:
//!
//! 1. segmented algorithms proceed in **stages**, one per segment per
//!    tree level, and each stage is a *non-blocking linear broadcast* to
//!    that node's children, costed `γ(children+1)·(α + m_s·β)` (Eq. 2);
//! 2. tree heights come from the **actual topology builders** (the same
//!    code the algorithms run: `Topology::binary_height` and
//!    `Topology::in_order_binary_height` walk the builders' own parent
//!    rules without allocating a tree), not from idealised `log₂ P`
//!    formulas.
//!
//! Every cost is returned as [`Coefficients`] `(a, b)` with
//! `T = a·α + b·β`, which the estimation crate turns into the linear
//! system of the paper's Fig. 4.

use crate::gamma::GammaTable;
use crate::hockney::{Coefficients, Hockney};
use collsel_coll::{BcastAlg, Topology, DEFAULT_CHAIN_FANOUT};

/// Number of pipeline segments (matches the implementation:
/// `ceil(m / seg)`, at least 1).
pub fn num_segments(m: usize, seg_size: usize) -> usize {
    assert!(seg_size > 0, "segment size must be positive");
    m.div_ceil(seg_size).max(1)
}

/// Cost coefficients of broadcasting `m` bytes to `p` ranks with `alg`
/// using `seg_size`-byte segments, under the γ table `gamma`.
///
/// # Panics
///
/// Panics if `seg_size` is zero.
pub fn bcast_coefficients(
    alg: BcastAlg,
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
        // Root posts P-1 non-blocking sends of the whole message and
        // waits for all: one γ(P)-weighted transfer of m bytes.
        BcastAlg::Linear => {
            let g = gamma.gamma(p);
            Coefficients::new(g, g * m as f64)
        }
        // Single chain: the pipeline fills over P-1 hops, then drains
        // one segment per stage; every stage is a 1-child transfer
        // (γ(2) = 1).
        BcastAlg::Chain => {
            let stages = (p - 2 + ns) as f64;
            Coefficients::new(stages, stages * m_s)
        }
        // K chains: the root pumps every segment to K chain heads
        // (γ(K+1) per stage); the last segment then travels the rest of
        // the longest chain at γ(2) = 1 per hop.
        BcastAlg::KChain => {
            let k = DEFAULT_CHAIN_FANOUT.min(p - 1);
            let chain_len = (p - 1).div_ceil(k);
            let g = gamma.gamma(k + 1);
            let a = ns as f64 * g + (chain_len - 1) as f64;
            Coefficients::new(a, a * m_s)
        }
        // Split-binary: each half (⌈m/2⌉ bytes) pipelines down one
        // subtree of the in-order binary tree (γ(3) stages), then the
        // halves are swapped pairwise — one extra m/2-byte transfer.
        BcastAlg::SplitBinary => {
            if p < 3 {
                // Degenerates to the linear broadcast (see the port).
                return bcast_coefficients(BcastAlg::Linear, p, m, seg_size, gamma);
            }
            let half = m.div_ceil(2);
            let ns_h = num_segments(half, seg_size);
            let ms_h = half as f64 / ns_h as f64;
            let depth = Topology::in_order_binary_height(p) as f64;
            let pipe = (depth + ns_h as f64 - 1.0) * gamma.gamma(3);
            Coefficients::new(pipe + 1.0, pipe * ms_h + (m as f64 - half as f64).max(1.0))
        }
        // Heap binary tree: fill over the tree height, then one segment
        // per γ(3) stage.
        BcastAlg::Binary => {
            let depth = Topology::binary_height(p) as f64;
            let a = (depth + ns as f64 - 1.0) * gamma.gamma(3);
            Coefficients::new(a, a * m_s)
        }
        // Balanced binomial tree: paper Eq. 6. The root repeats its
        // ⌈log₂P⌉-child linear broadcast n_s times; the fill phase
        // descends the tree through progressively smaller linear
        // broadcasts.
        BcastAlg::Binomial => {
            let h_floor = (usize::BITS - 1 - p.leading_zeros()) as usize; // ⌊log₂ p⌋
            let h_ceil = (usize::BITS - (p - 1).leading_zeros()) as usize; // ⌈log₂ p⌉
            let mut a = ns as f64 * gamma.gamma(h_ceil + 1) - 1.0;
            for i in 1..h_floor {
                a += gamma.gamma(h_ceil - i + 1);
            }
            let a = a.max(1.0);
            Coefficients::new(a, a * m_s)
        }
    }
}

/// Predicted execution time (seconds) of a broadcast under `hockney`.
pub fn predict_bcast(
    alg: BcastAlg,
    p: usize,
    m: usize,
    seg_size: usize,
    gamma: &GammaTable,
    hockney: &Hockney,
) -> f64 {
    hockney.eval(bcast_coefficients(alg, p, m, seg_size, gamma))
}

/// Cost coefficients of the linear gather without synchronisation of
/// `m_g`-byte contributions from `p - 1` peers (paper Eq. 8):
/// `(P-1)·(α + m_g·β)`.
pub fn gather_linear_coefficients(p: usize, m_g: usize) -> Coefficients {
    if p <= 1 {
        return Coefficients::ZERO;
    }
    let n = (p - 1) as f64;
    Coefficients::new(n, n * m_g as f64)
}

/// Cost coefficients of the flat linear scatter of `m`-byte blocks
/// (extension): `(P-1)·(α + m·β)`, the root's serialized sends.
pub fn scatter_linear_coefficients(p: usize, m: usize) -> Coefficients {
    gather_linear_coefficients(p, m)
}

/// Cost coefficients of the binomial-tree scatter of `m`-byte blocks
/// (extension): `⌈log₂P⌉` startups on the critical path, moving
/// half the remaining payload at each level — `Σ 2^{-i}·P·m` bytes ≈
/// `(P-1)·m` on the root's critical path.
pub fn scatter_binomial_coefficients(p: usize, m: usize) -> Coefficients {
    if p <= 1 {
        return Coefficients::ZERO;
    }
    let h_ceil = (usize::BITS - (p - 1).leading_zeros()) as f64;
    Coefficients::new(h_ceil, (p - 1) as f64 * m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_gamma() -> GammaTable {
        GammaTable::ones()
    }

    fn grisou_gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.114), (4, 1.219), (5, 1.283), (6, 1.451), (7, 1.540)])
    }

    #[test]
    fn single_rank_costs_nothing() {
        for alg in BcastAlg::ALL {
            let c = bcast_coefficients(alg, 1, 1 << 20, 8192, &flat_gamma());
            assert_eq!(c, Coefficients::ZERO);
        }
    }

    #[test]
    fn linear_grows_linearly_in_message() {
        let g = grisou_gamma();
        let c1 = bcast_coefficients(BcastAlg::Linear, 8, 1000, 8192, &g);
        let c2 = bcast_coefficients(BcastAlg::Linear, 8, 2000, 8192, &g);
        assert_eq!(c1.a, c2.a);
        assert!((c2.b - 2.0 * c1.b).abs() < 1e-9);
    }

    #[test]
    fn chain_stage_count_matches_pipeline() {
        // P=10, ns=4: stages = P-2+ns = 12.
        let c = bcast_coefficients(BcastAlg::Chain, 10, 4 * 8192, 8192, &flat_gamma());
        assert!((c.a - 12.0).abs() < 1e-9);
        assert!((c.b - 12.0 * 8192.0).abs() < 1e-6);
    }

    #[test]
    fn binomial_matches_paper_equation_6() {
        // P = 8, ns = 3, flat gamma: a = ns·γ(4) + γ(4-1+1)... with
        // γ ≡ 1: a = ns + (⌊log₂P⌋ - 1) - 1 + ... = ns - 1 + (h_floor - 1)
        // = 3 - 1 + 2 = 4? Eq. 6: ns·γ(h_ceil+1) + Σ_{i=1}^{h_floor-1}
        // γ(·) - 1 = 3·1 + 2·1 - 1 = 4.
        let c = bcast_coefficients(BcastAlg::Binomial, 8, 3 * 8192, 8192, &flat_gamma());
        assert!((c.a - 4.0).abs() < 1e-9, "a = {}", c.a);
    }

    #[test]
    fn binomial_uses_gamma_of_root_degree() {
        let g = grisou_gamma();
        // P = 64: h_ceil = 6, root does ns broadcasts at γ(7) = 1.540.
        let ns = 10.0;
        let c = bcast_coefficients(BcastAlg::Binomial, 64, 10 * 8192, 8192, &g);
        // Eq. 6 with ⌊log₂64⌋ = ⌈log₂64⌉ = 6: sum runs i = 1..=5.
        let expected = ns * g.gamma(7) - 1.0 + (1..6).map(|i| g.gamma(6 - i + 1)).sum::<f64>();
        assert!((c.a - expected).abs() < 1e-9, "a = {} vs {expected}", c.a);
    }

    #[test]
    fn deeper_trees_cost_more_startups_for_one_segment() {
        // With one segment, chain (depth P-1) must beat binomial
        // (depth log P) on startups.
        let g = flat_gamma();
        let chain = bcast_coefficients(BcastAlg::Chain, 32, 100, 8192, &g);
        let binom = bcast_coefficients(BcastAlg::Binomial, 32, 100, 8192, &g);
        assert!(chain.a > binom.a);
    }

    #[test]
    fn pipelining_wins_for_many_segments() {
        // With many segments, the per-stage cost dominates: chain
        // (γ(2) = 1 per stage) beats linear (γ(P)·whole message).
        let g = grisou_gamma();
        let p = 16;
        let m = 4 << 20;
        let hockney = Hockney::new(1e-6, 1e-9);
        let t_chain = predict_bcast(BcastAlg::Chain, p, m, 8192, &g, &hockney);
        let t_linear = predict_bcast(BcastAlg::Linear, p, m, 8192, &g, &hockney);
        assert!(t_chain < t_linear);
    }

    #[test]
    fn split_binary_close_to_half_binary_plus_exchange() {
        let g = grisou_gamma();
        let p = 31;
        let m = 1 << 20;
        let sb = bcast_coefficients(BcastAlg::SplitBinary, p, m, 8192, &g);
        let b = bcast_coefficients(BcastAlg::Binary, p, m, 8192, &g);
        // Split-binary moves half the bytes down the pipeline.
        assert!(sb.b < b.b);
        assert!(sb.b > 0.4 * b.b);
    }

    #[test]
    fn split_binary_degenerates_to_linear_below_three() {
        let g = grisou_gamma();
        let sb = bcast_coefficients(BcastAlg::SplitBinary, 2, 8192, 1024, &g);
        let lin = bcast_coefficients(BcastAlg::Linear, 2, 8192, 1024, &g);
        assert_eq!(sb, lin);
    }

    #[test]
    fn k_chain_interpolates_chain_and_linear() {
        let g = grisou_gamma();
        let p = 33;
        let m = 1 << 20;
        let kc = bcast_coefficients(BcastAlg::KChain, p, m, 8192, &g);
        let ch = bcast_coefficients(BcastAlg::Chain, p, m, 8192, &g);
        // Fewer pipeline fill hops than the single chain...
        assert!(
            kc.a < ch.a + (p as f64),
            "k-chain startup should be moderate"
        );
        // ...but a costlier per-stage broadcast.
        let ns = num_segments(m, 8192) as f64;
        assert!(kc.a > ns, "root pumps ns stages at gamma(5) > 1");
    }

    #[test]
    fn gather_matches_equation_8() {
        let c = gather_linear_coefficients(40, 1024);
        assert_eq!(c.a, 39.0);
        assert_eq!(c.b, 39.0 * 1024.0);
        assert_eq!(gather_linear_coefficients(1, 1024), Coefficients::ZERO);
    }

    #[test]
    fn scatter_models_extension() {
        let lin = scatter_linear_coefficients(16, 512);
        let bin = scatter_binomial_coefficients(16, 512);
        assert_eq!(lin.a, 15.0);
        assert_eq!(bin.a, 4.0);
        assert_eq!(lin.b, bin.b); // same bytes on the root's path
    }

    #[test]
    fn coefficients_are_finite_over_a_big_grid() {
        let g = grisou_gamma();
        for alg in BcastAlg::ALL {
            for p in [2, 3, 5, 17, 90, 124] {
                for m in [0usize, 1, 8192, 1 << 22] {
                    let c = bcast_coefficients(alg, p, m, 8192, &g);
                    assert!(c.a.is_finite() && c.a >= 0.0, "{alg} p={p} m={m}");
                    assert!(c.b.is_finite() && c.b >= 0.0, "{alg} p={p} m={m}");
                }
            }
        }
    }
}
