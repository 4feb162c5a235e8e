//! Decision-serving throughput: live ranking vs compiled table vs
//! cached service.
//!
//! A selection query sits on the critical path of every simulated
//! collective call, so the unit that matters is queries/second of one
//! decision. This bench tunes a model per preset, then times the same
//! seeded broadcast query stream three ways — re-ranking all six
//! analytical models per query (the live path `colltune query` takes),
//! binary-searching the compiled [`CompiledCollectiveSelector`] table,
//! and going through a [`CollectiveDecisionService`] with its
//! exact-query cache warm — and writes all three rates plus the speedups to `BENCH_select.json` at
//! the repository root.
//!
//! This target skips the criterion harness: the
//! grid is explicit and the JSON artifact is the point. Set
//! `COLLSEL_BENCH_SMOKE=1` for the CI-sized run (shorter timing
//! windows, fewer presets); smoke mode asserts the compiled path is
//! never slower than live ranking.

use collsel::coll::Collective;
use collsel::netsim::{ClusterModel, NoiseParams};
use collsel::select::{CollectiveDecisionService, CompiledCollectiveSelector};
use collsel::{Tuner, TunerConfig};
use collsel_support::bench::write_artifact;
use collsel_support::rng::splitmix64;
use collsel_support::Json;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0x5E1EC7;
const CACHE_CAPACITY: usize = 4096;
const WORKING_SET: usize = 1024;

/// Times `run` by doubling the batch size until the timed window is
/// long enough to trust, returning queries per second.
fn queries_per_sec(
    min_window_s: f64,
    queries: &[(usize, usize)],
    mut run: impl FnMut(usize, usize),
) -> f64 {
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for i in 0..batch {
            let (p, m) = queries[i as usize % queries.len()];
            run(p, m);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_window_s {
            return batch as f64 / elapsed;
        }
        batch *= 2;
    }
}

/// A seeded working set of (p, m) queries drawn from the tuned range,
/// the same recipe `colltune bench-select` uses.
fn working_set(max_p: usize) -> Vec<(usize, usize)> {
    let mut state = SEED;
    (0..WORKING_SET)
        .map(|_| {
            let p = 2 + (splitmix64(&mut state) as usize % (max_p - 1));
            let m = 1024usize << (splitmix64(&mut state) as usize % 13);
            (p, m)
        })
        .collect()
}

/// One preset cell: tune, compile, and time all three serving paths on
/// the same query stream.
fn bench_preset(cluster: ClusterModel, min_window_s: f64) -> Json {
    let preset = cluster.name().to_owned();
    let tuned = Tuner::new(cluster, TunerConfig::quick(12)).tune();
    let live = tuned.multi_selector();
    let msg_sizes = collsel::estim::log_spaced_sizes(1024, 8 * 1024 * 1024, 14);
    let table = tuned.decision_table(Collective::Bcast, &[2, 4, 8, 16, 32, 64, 128], &msg_sizes);
    let compiled = CompiledCollectiveSelector::from_tables(std::slice::from_ref(&table), "bcast");
    let service =
        CollectiveDecisionService::compiled(compiled.clone()).with_cache(CACHE_CAPACITY, SEED);
    let queries = working_set(128);
    let bcast = Collective::Bcast;

    // Warm the cache so the cached column measures the steady state.
    for &(p, m) in &queries {
        black_box(service.decide(bcast, p, m));
    }

    let live_qps = queries_per_sec(min_window_s, &queries, |p, m| {
        black_box(live.ranking(bcast, p, m));
    });
    let compiled_qps = queries_per_sec(min_window_s, &queries, |p, m| {
        black_box(compiled.lookup(bcast, p, m));
    });
    let cached_qps = queries_per_sec(min_window_s, &queries, |p, m| {
        black_box(service.decide(bcast, p, m));
    });

    let compiled_speedup = compiled_qps / live_qps;
    let cached_speedup = cached_qps / live_qps;
    println!(
        "  {preset:<6}: live {live_qps:>12.0}/s, compiled {compiled_qps:>12.0}/s ({compiled_speedup:.1}x), \
         cached {cached_qps:>12.0}/s ({cached_speedup:.1}x), hit rate {:.3}",
        service.stats().hit_rate()
    );

    Json::Obj(vec![
        ("preset".to_owned(), Json::Str(preset)),
        ("rules".to_owned(), Json::Num(compiled.rule_count() as f64)),
        (
            "comm_blocks".to_owned(),
            Json::Num(table.comms.len() as f64),
        ),
        ("live_queries_per_s".to_owned(), Json::Num(live_qps)),
        ("compiled_queries_per_s".to_owned(), Json::Num(compiled_qps)),
        ("cached_queries_per_s".to_owned(), Json::Num(cached_qps)),
        ("compiled_speedup".to_owned(), Json::Num(compiled_speedup)),
        ("cached_speedup".to_owned(), Json::Num(cached_speedup)),
        (
            "cache_hit_rate".to_owned(),
            Json::Num(service.stats().hit_rate()),
        ),
    ])
}

fn main() {
    let smoke = std::env::var("COLLSEL_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let min_window_s = if smoke { 0.05 } else { 0.3 };
    let presets: Vec<ClusterModel> = if smoke {
        vec![ClusterModel::gros().with_noise(NoiseParams::OFF)]
    } else {
        vec![
            ClusterModel::gros().with_noise(NoiseParams::OFF),
            ClusterModel::grisou().with_noise(NoiseParams::OFF),
        ]
    };
    println!(
        "selrate bench: smoke={smoke} window={min_window_s}s working_set={WORKING_SET} cache={CACHE_CAPACITY}"
    );

    let cells: Vec<Json> = presets
        .into_iter()
        .map(|c| bench_preset(c, min_window_s))
        .collect();

    let speedup_of = |c: &Json, key: &str| match c {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .expect("every cell records its speedups"),
        _ => unreachable!("cells are objects"),
    };
    let min_compiled = cells
        .iter()
        .map(|c| speedup_of(c, "compiled_speedup"))
        .fold(f64::INFINITY, f64::min);
    let max_compiled = cells
        .iter()
        .map(|c| speedup_of(c, "compiled_speedup"))
        .fold(0.0, f64::max);
    println!(
        "compiled speedup range: {min_compiled:.1}x .. {max_compiled:.1}x over {} presets",
        cells.len()
    );

    if smoke {
        assert!(
            min_compiled >= 1.0,
            "compiled lookup slower than live ranking ({min_compiled:.2}x)"
        );
        println!("smoke gate: compiled never slower than live ranking");
    }

    let json = Json::Obj(vec![
        ("bench".to_owned(), Json::Str("selrate".to_owned())),
        ("smoke".to_owned(), Json::Bool(smoke)),
        ("working_set".to_owned(), Json::Num(WORKING_SET as f64)),
        (
            "cache_capacity".to_owned(),
            Json::Num(CACHE_CAPACITY as f64),
        ),
        ("min_compiled_speedup".to_owned(), Json::Num(min_compiled)),
        ("max_compiled_speedup".to_owned(), Json::Num(max_compiled)),
        ("cells".to_owned(), Json::Arr(cells)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_select.json");
    // Atomic write that refuses an empty `cells` array: a panicking or
    // degenerate run can never clobber the previous real artifact.
    match write_artifact(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
