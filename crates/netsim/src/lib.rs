//! A discrete-event simulator of one IEEE 802.11b/g channel.
//!
//! This crate is the measurement substrate of the wifiprint suite: it
//! replaces the paper's real-world captures (the CRAWDAD Sigcomm 2008
//! conference trace, the authors' office traces, and their Faraday-cage
//! experiments) with a faithful, seeded simulation producing the exact
//! observables a passive monitor sees.
//!
//! Modelled mechanisms:
//!
//! * **DCF contention** — DIFS/EIFS deferral, slotted random backoff with
//!   freezing, contention-window doubling, retry limits, and per-device
//!   backoff quirks ([`BackoffQuirk`]),
//! * **frame exchanges** — data/ACK, RTS/CTS/data/ACK above the RTS
//!   threshold, SIFS-timed responses with per-device jitter and clock
//!   skew,
//! * **rate adaptation** — pluggable controllers ([`RateController`]:
//!   fixed, ARF, SNR-driven) over per-device rate sets,
//! * **PHY/channel** — per-station SNR processes with mobility models,
//!   logistic frame-error curves, collisions with a CCA race window,
//! * **AP behaviour** — beacons, probe responses, ACKs, relay of
//!   group-addressed uplink traffic,
//! * **traffic** — composable sources ([`TrafficSource`]): CBR (iperf),
//!   Poisson, bursty on/off, periodic broadcast services, probe scanning
//!   and power-save null frames,
//! * **the monitor** — an SNR- and loss-aware passive tap emitting
//!   [`wifiprint_radiotap::CapturedFrame`]s in timestamp order.
//!
//! See [`Simulator`] for a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod behavior;
mod medium;
mod monitor;
pub mod phy;
mod rng;
mod sim;
mod station;
mod traffic;

pub use behavior::{Arf, BackoffQuirk, FixedRate, MacBehavior, RateController, SnrSticky};
pub use medium::TxFrame;
pub use monitor::{Monitor, MonitorStats};
pub use phy::{frame_success_probability, rate_snr_threshold_db, LinkQuality, MobilityModel};
pub use rng::SimRng;
pub use sim::{SimConfig, SimStats, Simulator};
pub use station::{phy_for, FrameJob, Role, Station, StationConfig};
pub use traffic::{
    CbrSource, Destination, Emission, Msdu, MsduKind, OnOffSource, PeriodicBroadcast,
    PoissonSource, PowerSaveNulls, ProbeScanner, TrafficSource,
};
