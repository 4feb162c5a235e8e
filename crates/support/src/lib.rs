//! # collsel-support
//!
//! The workspace's **zero-dependency support library**. Every external
//! crate the project used to pull from crates.io is replaced here by a
//! small, purpose-built implementation, so the whole workspace builds
//! and tests **offline** with nothing but the Rust toolchain:
//!
//! | Module | Replaces | Surface |
//! |---|---|---|
//! | [`bytes`] | `bytes` | [`Bytes`] (cheap-clone `Arc<[u8]>` slice view, or length-only [`Bytes::symbolic`]) |
//! | [`rng`] | `rand` | splitmix64 seeding + xoshiro256\*\* [`StdRng`] with `gen_range` |
//! | [`json`] | `serde`/`serde_json` | [`Json`] tree, parser, pretty writer, [`ToJson`]/[`FromJson`], atomic [`json::write_artifact`] |
//! | [`prop`] | `proptest` | [`proptest!`] macro, strategies, shrinking, seeded replay |
//! | [`pool`] | `rayon` | [`pool::Pool`] scoped job pool with submission-order results |
//! | [`epoch`] | `arc-swap` | [`epoch::EpochSwap`] epoch-versioned atomic value swapping |
//!
//! The implementations cover exactly the subset of the upstream APIs the
//! workspace uses — they are not general-purpose replacements.
//!
//! [`payload`] is the one module that replaces nothing external: it is
//! the shared memoised store for deterministic measurement payloads
//! (with hit/miss counters) used by the threaded measurement tier, the
//! end-to-end benchmark and the differential tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bytes;
pub mod epoch;
pub mod json;
pub mod payload;
pub mod pool;
pub mod prop;
pub mod rng;

pub use bytes::Bytes;
pub use epoch::{EpochGuard, EpochSwap};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{SeedableRng, StdRng};

/// Prelude for property-based tests, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::prop::{any, ProptestConfig, Strategy, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}
