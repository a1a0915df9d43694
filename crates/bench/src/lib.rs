//! Shared experiment definitions for the reproduction harness: every
//! table and figure of the paper, expressed as reusable functions driven
//! by the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;

pub use experiments::{evaluate_scenario, TraceKind, TraceRun};
