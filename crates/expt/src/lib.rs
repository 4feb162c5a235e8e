//! # collsel-expt
//!
//! The experiment harness: regenerates **every table and figure** of
//! the paper's evaluation on the simulated clusters.
//!
//! | Artifact | Runner | Paper content |
//! |---|---|---|
//! | Fig. 1 | [`fig1::run_fig1`] | traditional models vs experiment |
//! | Table 1 | [`table1::run_table1`] | γ(P) on Grisou and Gros |
//! | Table 2 | [`table2::run_table2`] | per-algorithm α, β |
//! | Fig. 5 | [`fig5::run_fig5`] | Open MPI vs model-based vs best |
//! | Table 3 | [`table3::table3_from_fig5`] | selections + degradations |
//!
//! The `repro` binary drives them all:
//!
//! ```text
//! repro [--quick] [--out DIR] [fig1|table1|table2|fig5|table3|all]
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod fig1;
pub mod paper_ref;
pub mod plot;
pub mod replay;
pub mod report;
pub mod soak;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod workload;

/// Fig. 5 sweeps (also the data source of Table 3).
pub mod fig5;

pub use config::{scenarios, Fidelity, Scenario};
