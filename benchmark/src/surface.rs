//! The benchmark's whole call surface into the `collsel` crates.
//!
//! Every `use collsel…` of the package lives in this one file, so a PR
//! that renames or deletes a library item can see at a glance whether
//! the benchmark is affected — and the benchmark may not be edited by
//! the PR it judges. The list is deliberately limited to items ROADMAP
//! open items 2–3 intend to keep. It names none of `Backend::Events`,
//! `simulate_scheduled`, the bcast-only `select::{Selector,
//! ModelBasedSelector, GracefulSelector, CompiledSelector,
//! DecisionService}` or any `estim::measure::*` entry point: those are
//! slated for deletion.

pub use collsel::coll::compile::{
    compile_step, compile_timed_bcast_gather, compile_timed_collective,
    compile_timed_linear_segment, GroupCall,
};
pub use collsel::coll::{run_collective, Alg, BcastAlg, Collective};
pub use collsel::estim::{
    estimate_all_alpha_beta, estimate_collective_family, estimate_gamma, huber_default,
    measure_family_cell, memo_counters, Precision, BREADTH_SEG_SIZE,
};
pub use collsel::mpi::{simulate, Backend, DagEvaluator, Schedule, SimOptions, TimingDag};
pub use collsel::netsim::{Brownout, ClusterModel, Fabric, FaultPlan, SimTime};
pub use collsel::select::{
    fixed_selection, CollectiveDecisionService, CollectiveModelSelector, CollectiveSelector,
    CompiledCollectiveSelector, DecisionServer, GracefulCollectiveSelector, RefitOutcome,
    ServedAnswer, ServerConfig,
};
pub use collsel::{CampaignPlan, TunedModel, Tuner, TunerConfig};
pub use collsel_expt::replay::{replay_trace, ReplayPolicy};
pub use collsel_expt::workload::{canned_dp, canned_pp, Trace, TraceGen, TracePreset};
pub use collsel_support::epoch::EpochSwap;
pub use collsel_support::pool::{set_thread_override, Pool};
pub use collsel_support::rng::splitmix64;
pub use collsel_support::{json_struct, FromJson, Json, ToJson};
