//! Extension validation: the reduce models (paper future-work
//! direction) must rank the reduce algorithms consistently with
//! simulated measurements, after the same tuning treatment the
//! broadcast models get.

use collsel::coll::{reduce, ReduceAlg, ReduceOp};
use collsel::estim::{estimate_gamma, huber_default, GammaConfig, Precision};
use collsel::model::reduce_ext::{predict_reduce, reduce_coefficients};
use collsel::model::{GammaTable, Hockney};
use collsel::mpi::{simulate, Comm};
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel_support::Bytes;

const SEG: usize = 8 * 1024;

fn cluster() -> ClusterModel {
    ClusterModel::gros().with_noise(NoiseParams::OFF)
}

fn lanes(rank: usize, bytes: usize) -> Bytes {
    let mut v = Vec::with_capacity(bytes);
    for i in 0..bytes / 8 {
        v.extend_from_slice(&((rank + i) as u64).to_le_bytes());
    }
    Bytes::from(v)
}

/// Measured time of one reduce configuration (barrier-framed, root
/// clock).
fn measure(cluster: &ClusterModel, alg: ReduceAlg, p: usize, m: usize) -> f64 {
    let out = simulate(cluster, p, 1, move |ctx| {
        ctx.barrier();
        let t0 = ctx.wtime();
        let _ = reduce(ctx, alg, 0, ReduceOp::Sum, lanes(ctx.rank(), m), SEG);
        ctx.barrier();
        (ctx.wtime() - t0).as_secs_f64()
    })
    .unwrap();
    out.results[0]
}

/// Fit per-algorithm (alpha, beta) for a reduce algorithm with the same
/// canonicalised-system approach as the broadcast estimation.
fn fit(cluster: &ClusterModel, alg: ReduceAlg, p: usize, gamma: &GammaTable) -> Hockney {
    let sizes = [8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024, 2 << 20];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &m in &sizes {
        let t = measure(cluster, alg, p, m);
        let c = reduce_coefficients(alg, p, m, SEG, gamma);
        let (x, y) = c.canonicalise(t);
        xs.push(x);
        ys.push(y);
    }
    let f = huber_default(&xs, &ys);
    Hockney::new(f.intercept.max(0.0), f.slope.max(0.0))
}

#[test]
fn tuned_reduce_models_select_near_optimal() {
    let cluster = cluster();
    let p = 24;
    let gamma = estimate_gamma(
        &cluster,
        &GammaConfig {
            max_width: 6,
            precision: Precision::quick(),
            ..GammaConfig::quick()
        },
        3,
    )
    .table;

    // Tune each reduce algorithm in its own execution context.
    let params: Vec<(ReduceAlg, Hockney)> = ReduceAlg::ALL
        .iter()
        .map(|&alg| (alg, fit(&cluster, alg, p, &gamma)))
        .collect();

    // Evaluate the selection quality on held-out sizes.
    for m in [16 * 1024, 256 * 1024, 1 << 20] {
        let measured: Vec<(ReduceAlg, f64)> = ReduceAlg::ALL
            .iter()
            .map(|&alg| (alg, measure(&cluster, alg, p, m)))
            .collect();
        let best = measured
            .iter()
            .cloned()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let pick = params
            .iter()
            .map(|&(alg, h)| (alg, predict_reduce(alg, p, m, SEG, &gamma, &h)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        let pick_time = measured.iter().find(|&&(a, _)| a == pick).unwrap().1;
        let degradation = 100.0 * (pick_time - best.1) / best.1;
        assert!(
            degradation < 50.0,
            "m={m}: picked {pick} at +{degradation:.0}% vs best {}",
            best.0
        );
    }
}

#[test]
fn reduce_measurements_have_broadcast_like_structure() {
    // Flat reduction must lose to trees at scale for large messages
    // (the root drains P-1 full contributions), and the chain pipeline
    // must beat the flat reduction for large m at moderate P.
    let cluster = cluster();
    let p = 24;
    let m = 2 << 20;
    let linear = measure(&cluster, ReduceAlg::Linear, p, m);
    let chain = measure(&cluster, ReduceAlg::Chain, p, m);
    let binomial = measure(&cluster, ReduceAlg::Binomial, p, m);
    assert!(chain < linear, "chain {chain} vs linear {linear}");
    assert!(binomial < linear, "binomial {binomial} vs linear {linear}");
}
