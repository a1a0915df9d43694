//! Evaluation pipeline, tables, plots and baselines for the wifiprint
//! suite — the harness behind §V of the paper.
//!
//! * [`PipelineConfig`] / [`StreamingEvaluator`] — the train/validate
//!   split, detection windows and per-parameter scoring of §V-A, driven
//!   by one fused `MultiEngine` (a single header parse per frame feeds
//!   every parameter); [`TraceEvaluation::fused`] scores the engine's
//!   equally weighted fusion of the configured parameters (the paper's
//!   §VIII future work),
//! * [`tables`] — formatters regenerating Tables I, II and III,
//! * [`plot`] — ASCII histograms and TPR/FPR curves plus CSV export
//!   (Figs. 2–8),
//! * [`baseline`] — the Pang-et-al-style broadcast-size identifier the
//!   paper compares against in §V-B2, the same evaluator over a
//!   one-parameter engine,
//! * [`attacks`] — the §VII-A mimicry attacker and its evaluation,
//! * [`linking`] — MAC-randomization linking accuracy
//!   (precision/recall/merge-rate vs rotation rate) against the
//!   rotation-policy scenarios' exact ledgers,
//! * [`robustness`] — accuracy-vs-fault-rate sweeps over degraded
//!   captures (seeded loss/reorder/corruption via the scenarios crate's
//!   `FaultInjector`), beyond the paper's clean-monitor assumption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::pedantic)]
// Pedantic lints this crate opts out of, mirroring wifiprint-core:
#![allow(
    // Table counts and window indices stay far below 2^52; casts into
    // f64 for ratios and percentages are deliberate.
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    // Exact float compares pin sentinel values in tests and plots.
    clippy::float_cmp,
    // Getter-heavy report types: #[must_use] on every accessor is noise.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Public items are re-exported from the crate root, so
    // module-qualified names repeat the module name.
    clippy::module_name_repetitions,
    // The table/plot formatters interleave many push_str/format calls;
    // collapsing them into single format! invocations hurts readability.
    clippy::format_push_string
)]

pub mod attacks;
pub mod baseline;
pub mod linking;
mod pipeline;
pub mod plot;
pub mod robustness;
pub mod tables;

pub use pipeline::{
    evaluate_frames, evaluate_frames_supervised, PipelineConfig, StreamingEvaluator,
    TraceEvaluation,
};
