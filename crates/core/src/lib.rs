//! # collsel
//!
//! **Model-based selection of optimal MPI collective algorithms** — a
//! production-quality Rust reproduction of Nuriyev & Lastovetsky,
//! *"A New Model-Based Approach to Performance Comparison of MPI
//! Collective Algorithms"* (PaCT 2021).
//!
//! This facade crate re-exports the whole stack and adds the
//! high-level [`Tuner`] workflow, whose output is one [`TunedModel`]
//! shape for every collective: each fit stored once, keyed by
//! collective (broadcast is [`coll::Collective::Bcast`] like the rest),
//! and served at the segment it was measured at
//! ([`TunedModel::seg_size_for`]):
//!
//! | Layer | Crate | Re-exported as |
//! |---|---|---|
//! | Cluster/network simulator | `collsel-netsim` | [`netsim`] |
//! | MPI-like runtime | `collsel-mpi` | [`mpi`] |
//! | Open MPI algorithm ports | `collsel-coll` | [`coll`] |
//! | Analytical models | `collsel-model` | [`model`] |
//! | Parameter estimation | `collsel-estim` | [`estim`] |
//! | Decision functions | `collsel-select` | [`select`] |
//!
//! # Quickstart
//!
//! ```
//! use collsel::coll::Collective;
//! use collsel::netsim::{ClusterModel, NoiseParams};
//! use collsel::select::CollectiveSelector;
//! use collsel::{Tuner, TunerConfig};
//!
//! // Tune the selector for a (simulated) cluster...
//! let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
//! let model = Tuner::new(cluster, TunerConfig::quick(12)).tune();
//!
//! // ...and use it as the runtime decision function.
//! let selector = model.multi_selector();
//! let pick = selector.select_for(Collective::Bcast, 100, 1 << 20);
//! println!("broadcast 1 MB to 100 ranks with {}", pick.alg);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod tuner;

pub use tuner::{
    CampaignPlan, CampaignReport, CampaignStrategy, CollectiveCampaignStats, TuneReport,
    TunedModel, Tuner, TunerConfig,
};

/// The cluster/network simulation substrate.
pub use collsel_netsim as netsim;

/// The MPI-like deterministic runtime.
pub use collsel_mpi as mpi;

/// Ports of the Open MPI collective algorithms.
pub use collsel_coll as coll;

/// Analytical performance models.
pub use collsel_model as model;

/// Parameter estimation (γ, per-algorithm α/β).
pub use collsel_estim as estim;

/// Decision functions and selection analysis.
pub use collsel_select as select;
