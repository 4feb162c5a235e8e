//! # collsel-model
//!
//! Analytical performance models of the Open MPI broadcast algorithms —
//! the first half of the paper's contribution.
//!
//! Two families live here:
//!
//! * [`derived`] — **implementation-derived** models (paper Sect. 3):
//!   read off the ported code, staged as non-blocking linear broadcasts
//!   weighted by the platform factor γ(P) ([`GammaTable`]); evaluated
//!   with a *per-algorithm* Hockney pair ([`Hockney`]).
//! * [`traditional`] — textbook models built from the algorithms'
//!   mathematical definitions, as in prior work; kept to regenerate the
//!   paper's Fig. 1 and the model-ablation study.
//!
//! Every model is linear in `(α, β)` once γ is fixed, so costs are
//! exposed as [`Coefficients`] `(a, b)` with `T = a·α + b·β`; this is
//! what lets the estimation crate assemble the linear system of the
//! paper's Fig. 4 directly from the models.
//!
//! ```
//! use collsel_coll::BcastAlg;
//! use collsel_model::{derived, GammaTable, Hockney};
//!
//! let gamma = GammaTable::from_pairs([(3, 1.11), (5, 1.28), (7, 1.54)]);
//! let hockney = Hockney::new(3.0e-5, 1.0e-9);
//! let t = derived::predict_bcast(BcastAlg::Binomial, 90, 1 << 20, 8192, &gamma, &hockney);
//! assert!(t > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collectives;
pub mod derived;
mod gamma;
mod hockney;
pub mod reduce_ext;
pub mod traditional;
mod validity;

pub use gamma::GammaTable;
pub use hockney::{Coefficients, Hockney};
pub use validity::FitValidity;
