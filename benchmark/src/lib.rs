#![forbid(unsafe_code)]
//! The benchmark's parts; `main.rs` is the command line over them and
//! `benchmark/README.md` the manual.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workload;
