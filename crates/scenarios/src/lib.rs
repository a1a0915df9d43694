//! Capture scenarios reproducing the traces of Neumann et al. (ICDCS 2012).
//!
//! The paper evaluates on four traces (Table I) plus a set of controlled
//! Faraday-cage experiments (§VI). This crate regenerates all of them on
//! top of the [`wifiprint-netsim`](wifiprint_netsim) simulator and the
//! [`wifiprint-devices`](wifiprint_devices) profile library:
//!
//! * [`OfficeScenario`] — static WPA network (*office 1*: 7 h,
//!   *office 2*: 1 h),
//! * [`ConferenceScenario`] — open network with mobility and churn
//!   (*conference 1*: 7 h, *conference 2*: 1 h),
//! * [`FaradayRig`] — single-device rigs for the Fig. 4–8 experiments,
//! * [`MetropolisScenario`] — far beyond the paper: a ~50 000-device
//!   population of heterogeneous traffic mixes, the stress workload for
//!   the sharded reference store's pruned sweeps,
//! * [`rotation`] — MAC-randomization policies (periodic,
//!   per-association burst, per-SSID stable) layered on the scenarios
//!   above, with an exact [`RotationLedger`] of ground truth for
//!   linking experiments,
//! * [`faults`] — a deterministic, seeded [`FaultInjector`] that wraps
//!   any trace or scenario stream with composable capture degradations
//!   (burst loss, duplication, bounded reordering, truncation, poison
//!   frames, source stalls, overload bursts) for resilience experiments,
//! * [`export`] — Radiotap pcap export/import so traces interoperate with
//!   standard tooling.
//!
//! Every scenario also runs straight into the streaming fingerprinting
//! engine, `MultiEngine` ([`run_multi_engine`],
//! `OfficeScenario::run_multi_engine`,
//! `ConferenceScenario::run_multi_engine`): monitor → engine, the online
//! deployment shape, with no trace collection in between.
//!
//! Every scenario is fully deterministic in its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::pedantic)]
// Pedantic lints this crate opts out of, mirroring wifiprint-core:
#![allow(
    // Device counts, seeds and bin indices stay far below 2^52; casts
    // into f64 for rates and shares are deliberate.
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    // Exact float compares pin sentinel values in tests.
    clippy::float_cmp,
    // Getter-heavy scenario types: #[must_use] everywhere is noise.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Public items are re-exported from the crate root, so
    // module-qualified names repeat the module name.
    clippy::module_name_repetitions
)]

mod conference;
pub mod export;
mod faraday;
pub mod faults;
mod metropolis;
mod office;
pub mod rotation;
mod trace;

pub use conference::ConferenceScenario;
pub use faraday::{device_frames, FaradayRig, FARADAY_AP, FARADAY_DEVICE};
pub use faults::{
    is_poison_frame, FaultInjector, FaultLog, FaultPlan, FaultedStream, LossModel,
    POISON_DEVICE_BASE,
};
pub use metropolis::MetropolisScenario;
pub use office::OfficeScenario;
pub use rotation::{
    rotate_frames, RotatedSighting, RotationLedger, RotationPolicy, RotationScenario,
    RotationTrail,
};
pub use trace::{run_collect, run_multi_engine, run_streaming, Trace, TraceReport};
