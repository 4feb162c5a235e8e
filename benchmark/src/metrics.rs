//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction, and for end-to-end metrics the share of the parent's
//! median by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` at the repository root declares the
//! same lists; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one;
/// README.md says what the operation and the quality figure of each
/// workload are. On the quiet 2-core reference host the widest spread
/// of a timing (quartile distance over median, ten seeds) is 7–8 %,
/// because fresh processes differ by up to ±10 %; any other activity on
/// the two cores pushes it past 20 %. The timing bounds are therefore
/// the widest the contract allows.
pub const END_TO_END: [Metric; 7] = [
    // Untimed wall of one child process: priming tunes, trace
    // generation, server boot, correctness checks.
    e2e("setup_s", "s", Lower, 0.25),
    // Median latency of one operation.
    e2e("op_p50_us", "us", Lower, 0.25),
    // p99 (serve-*), p90 (refit-warm, replay-warm) or the single cold
    // pass (tune-cold, replay-cold).
    e2e("op_tail_us", "us", Lower, 0.25),
    // Operations per wall second of the timed section.
    e2e("ops_per_s", "1/s", Higher, 0.25),
    // User + system CPU of the process per operation.
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    // VmHWM of the child process.
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    // Answer quality, simulated: never a wall-clock figure.
    e2e("quality_pct", "%", Higher, 0.03),
];

/// Single layers, `layer.metric`, from the traced run.
pub const PER_LAYER: [Metric; 75] = [
    layer("support.json_write_s", "s", Lower),
    layer("support.json_parse_s", "s", Lower),
    layer("support.model_json_bytes", "count", Lower),
    layer("support.payload_hits", "count", Higher),
    layer("support.payload_misses", "count", Lower),
    layer("support.epoch_pin_ns", "ns", Lower),
    layer("netsim.plan_transfer_ns", "ns", Lower),
    layer("netsim.fabric_reset_ns", "ns", Lower),
    layer("netsim.bookings", "count", Lower),
    layer("mpi.threads_run_s", "s", Lower),
    layer("mpi.dag_compile_s", "s", Lower),
    layer("mpi.dag_compile_us_per_op", "us", Lower),
    layer("mpi.dag_ops", "count", Lower),
    layer("mpi.dag_edges", "count", Lower),
    layer("mpi.dag_eval_s", "s", Lower),
    layer("mpi.dag_eval_runs", "count", Lower),
    layer("mpi.dag_eval_ns_per_op", "ns", Lower),
    layer("mpi.dag_eval_reps_per_s", "1/s", Higher),
    layer("coll.record_s", "s", Lower),
    layer("coll.record_cells", "count", Lower),
    layer("coll.record_ops", "count", Lower),
    layer("coll.record_us_per_op", "us", Lower),
    layer("coll.step_record_s", "s", Lower),
    layer("coll.step_shapes", "count", Lower),
    layer("model.rank_ns", "ns", Lower),
    layer("estim.gamma_s", "s", Lower),
    layer("estim.alpha_beta_s", "s", Lower),
    layer("estim.breadth_s", "s", Lower),
    layer("estim.self_s", "s", Lower),
    layer("estim.memo_hits", "count", Higher),
    layer("estim.memo_misses", "count", Lower),
    layer("estim.memo_hit_ratio", "ratio", Higher),
    layer("estim.huber_fit_us", "us", Lower),
    layer("estim.fits_valid", "count", Higher),
    layer("estim.fits_total", "count", Higher),
    layer("core.tune_all_s", "s", Lower),
    layer("core.table_compile_s", "s", Lower),
    layer("core.rules", "count", Lower),
    layer("core.selection_degradation_pct", "%", Lower),
    layer("core.campaign_exhaustive_warm_s", "s", Lower),
    layer("core.campaign_adaptive_warm_s", "s", Lower),
    layer("core.campaign_batches_exhaustive", "count", Lower),
    layer("core.campaign_batches_adaptive", "count", Lower),
    layer("select.compiled_lookup_ns", "ns", Lower),
    layer("select.live_rank_ns", "ns", Lower),
    layer("select.cached_decide_ns", "ns", Lower),
    layer("select.cache_hit_ratio_hot", "ratio", Higher),
    layer("select.cache_hit_ratio_wide", "ratio", Higher),
    layer("select.server_decide_ns", "ns", Lower),
    layer("select.swap_mean_us", "us", Lower),
    layer("select.swap_max_us", "us", Lower),
    layer("select.refit_gate_ms", "ms", Lower),
    layer("select.fallback_share", "ratio", Lower),
    layer("select.served_previous", "count", Higher),
    layer("select.served_rules", "count", Lower),
    layer("select.refits_installed", "count", Higher),
    layer("select.refits_rejected", "count", Lower),
    layer("select.answers_checked", "count", Higher),
    layer("expt.tracegen_s", "s", Lower),
    layer("expt.trace_calls", "count", Lower),
    layer("expt.lookups", "count", Lower),
    layer("expt.steps", "count", Lower),
    layer("expt.step_shapes", "count", Lower),
    layer("expt.replay_cold_s.dp", "s", Lower),
    layer("expt.replay_cold_s.pp", "s", Lower),
    layer("expt.replay_warm_ms.dp", "ms", Lower),
    layer("expt.replay_warm_ms.pp", "ms", Lower),
    layer("expt.tuned_vs_fixed_pct.dp", "%", Higher),
    layer("expt.tuned_vs_fixed_pct.pp", "%", Higher),
    layer("expt.jct_tuned_ms", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.traced_op_p50_us", "us", Lower),
    layer("bench.untraced_op_p50_us", "us", Lower),
    layer("bench.spans", "count", Lower),
    layer("bench.self_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Json;
    use crate::workloads::Workload;

    fn text<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).expect("string field")
    }

    /// `BENCHMARK.json` and this catalogue must declare the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| manifest.get(key).and_then(Json::as_arr).expect("array");

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(entry, "name"), w.name());
            assert_eq!(text(entry, "why"), w.why());
        }

        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), catalogue.len(), "{key}");
            for (entry, m) in declared.iter().zip(catalogue) {
                assert_eq!(text(entry, "name"), m.name);
                assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(entry, "better"), m.better.name(), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(Workload::ALL.map(Workload::name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
    }
}
