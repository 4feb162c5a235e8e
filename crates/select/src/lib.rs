//! # collsel-select
//!
//! Runtime **decision functions** for MPI collective algorithm
//! selection and the analysis tooling that compares them — the paper's
//! Sect. 5.3, applied to every collective. Every decision is keyed by
//! `(collective, P, m)`; broadcast is simply
//! [`Collective::Bcast`](collsel_coll::Collective::Bcast).
//!
//! * [`CollectiveModelSelector`] — the paper's contribution: argmin over
//!   the implementation-derived models with per-algorithm parameters;
//! * [`fixed_selection`] / [`OpenMpiCollectiveSelector`] — the Open MPI
//!   3.1 fixed decision functions; the broadcast arm is the faithful
//!   port whose mis-selections reach 7297% degradation in the paper;
//! * [`TraditionalModelSelector`] — the textbook-model ablation;
//! * [`GracefulCollectiveSelector`] — validity-filtered ranking that
//!   falls back to the fixed rules per query, reporting why;
//! * [`analysis`] — Table 3-style degradation accounting (the measured
//!   best is [`analysis::MeasuredPoint::best`]);
//! * [`multi`] — the serving stack: [`CompiledCollectiveSelector`] (the
//!   one decision table: allocation-free lookup, Open MPI dynamic-rules
//!   export, journal JSON) and [`CollectiveDecisionService`] (thread-safe
//!   cached front end over a fixed table);
//! * [`server`] — the fault-tolerant decision server:
//!   [`DecisionServer`] with epoch-versioned hot swap, a per-request
//!   watchdog, a health-gated online refit path, and a crash-only
//!   recovery journal.
//!
//! ```
//! use collsel_coll::Collective;
//! use collsel_select::{CollectiveSelector, OpenMpiCollectiveSelector};
//!
//! // 1 MB on 90 processes: the native choice the paper criticises.
//! let s = OpenMpiCollectiveSelector.select_for(Collective::Bcast, 90, 1 << 20);
//! assert_eq!(s.alg.qualified_name(), "bcast/chain");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod multi;
pub mod server;

pub use multi::{
    fixed_selection, CollDecision, CollSelection, CollectiveDecisionService,
    CollectiveModelSelector, CollectiveSelector, CompiledCollectiveSelector, DecisionSource,
    FallbackReason, GracefulCollectiveSelector, OpenMpiCollectiveSelector, ServiceStats,
    TraditionalModelSelector,
};
pub use server::{
    DecisionServer, RefitOutcome, ServeSource, ServedAnswer, ServerConfig, ServerStats,
};

/// Communicator sizes of the deployment grid, the one grid a tuned
/// model is compiled over for serving: by default the decision server
/// compiles its generations over it and `colltune export` writes its
/// rules for it.
pub const DEPLOYMENT_COMM_SIZES: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// Message sizes of the deployment grid (see [`DEPLOYMENT_COMM_SIZES`]):
/// fourteen sizes log-spaced from 1 KiB to 8 MiB.
pub fn deployment_msg_sizes() -> Vec<usize> {
    collsel_estim::log_spaced_sizes(1024, 8 * 1024 * 1024, 14)
}
