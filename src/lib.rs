//! Workspace-level examples/tests package (see crates/core for the
//! library facade). Its crate docs are the README, so the README's Rust
//! blocks compile as doctests under `cargo test`.
#![doc = include_str!("../README.md")]
