//! # wifiprint
//!
//! A Rust reproduction of *"An empirical study of passive 802.11 device
//! fingerprinting"* (Neumann, Heen, Onno — ICDCS workshops 2012): the
//! fingerprinting library itself, the 802.11 substrate it is evaluated on,
//! and the full experiment harness.
//!
//! # The streaming engine
//!
//! The production entry point is [`core::MultiEngine`] — a
//! builder-configured facade over the whole ingest → window → match →
//! fuse path, extracting the network parameters of its
//! [`core::FusionSpec`] from a single header parse per frame and
//! combining their similarity scores online.
//! A passive monitor is online by nature, so the engine is too: feed it
//! every captured frame once, in capture order, and it emits typed
//! [`core::MultiEvent`]s as 5-minute detection windows close —
//! [`Enrolled`](core::MultiEvent::Enrolled) when the training phase
//! seals the per-parameter reference databases,
//! [`FusedMatch`](core::MultiEvent::FusedMatch) /
//! [`FusedNewDevice`](core::MultiEvent::FusedNewDevice) per per-window
//! candidate (per-parameter similarity vectors plus one weighted-average
//! fused score, per [`core::FusionSpec`]), and a
//! [`WindowClosed`](core::MultiEvent::WindowClosed) terminator. Windows
//! also close on wall clock ([`core::MultiEngine::advance_to`] /
//! `tick`), so a quiet channel cannot stall the final decision.
//! Failures are typed ([`core::EngineError`] wrapping
//! [`core::CoreError`]); a single-parameter deployment is the same
//! engine over [`core::FusionSpec::single`].
//!
//! ```
//! use wifiprint::core::{FusionSpec, MultiConfig, MultiEngine, MultiEvent};
//! use wifiprint::ieee80211::Nanos;
//! use wifiprint::scenarios::OfficeScenario;
//!
//! // 90 s of simulated office traffic: train 30 s, then 15 s windows,
//! // all five parameters fused with equal weights.
//! let cfg = MultiConfig::default()
//!     .with_min_observations(30)
//!     .with_window(Nanos::from_secs(15));
//! let mut engine = MultiEngine::builder()
//!     .spec(FusionSpec::all_equal())
//!     .config(cfg)
//!     .train_for(Nanos::from_secs(30))
//!     .build()
//!     .expect("valid configuration");
//!
//! let scenario = OfficeScenario::small(42, 90, 8);
//! let (mut events, _report) = scenario.run_multi_engine(&mut engine).expect("in-order capture");
//! events.extend(engine.finish().expect("first finish"));
//! assert!(events.iter().any(|e| matches!(e, MultiEvent::Enrolled { .. })));
//! assert!(events.iter().any(|e| matches!(e, MultiEvent::WindowClosed { .. })));
//! ```
//!
//! The experiment harness ([`analysis::StreamingEvaluator`]) is a thin
//! driver of the same fused engine: the per-parameter tables, the fused
//! score ([`analysis::TraceEvaluation::fused`]) and the Pang-style
//! baseline ([`analysis::baseline`], a one-parameter engine) all come
//! from one collector over its events, so the paper's accuracy tables
//! and a production deployment exercise the identical code path.
//!
//! # Degraded captures
//!
//! Real monitors are not the clean capture the paper assumes: they drop
//! frames under load, deliver out of order through USB batching, and
//! pass truncated or duplicated frames. The engine therefore sits
//! behind a configurable ingest front ([`core::ResilienceConfig`],
//! builder method `resilience()`): a late-frame policy
//! ([`core::LateFramePolicy`] — strict `Reject` by default, or
//! `Reorder` which restores any stream shuffled within a bounded
//! horizon to capture order *bit-identically*, and with
//! `max_lateness: 0` simply drops late frames), exact-duplicate
//! suppression, and a runt-size gate. Every dropped frame is accounted
//! for in [`core::EngineHealth`] (`health()`), and fusion degrades
//! gracefully: with a fusion quorum set, a sparse window is
//! fused over the parameters that survived, with the missing ones named
//! on the event. The `scenarios::faults::FaultInjector` generates
//! seeded, reproducible capture degradations (burst loss, duplication,
//! reordering, truncation) and `analysis::robustness` turns them
//! into accuracy-vs-fault-rate tables; CI runs that matrix as a chaos
//! gate.
//!
//! # Overload & supervision
//!
//! Degraded *flow* — burst overload, a stalled source, a poison frame
//! that panics mid-sweep — is handled one layer up by the supervised
//! ingest front ([`core::IngestPipeline`]): the engine runs on a
//! supervised worker thread behind a bounded multi-producer ring. An
//! [`core::OverloadPolicy`] decides what a full ring does to a
//! submission (`Block` back-pressure by default, or shed the
//! newest/oldest frame, every shed counted); `catch_unwind` quarantines
//! a frame whose sweep panics (the most recent 32 are kept as
//! [`core::Quarantined`] entries) and restarts the worker so the stream
//! survives; a stall watchdog drives `tick()` on a wall-clock deadline so
//! a silent source cannot stall window decisions; and the one worker
//! delivers events in the order the engine emitted them — bit-identical
//! to synchronous `observe` under `Block` with no faults
//! (property-tested). The whole
//! session reconciles exactly through the [`core::EngineHealth`]
//! conservation law
//! (`seen = delivered + dropped + shed + quarantined + pending`), and
//! `analysis::robustness::evaluate_overload` turns offered-load sweeps
//! into accuracy/latency/shed-rate tables.
//!
//! # The sharded reference store
//!
//! Underneath every engine sits a **sharded** [`core::ReferenceDb`]:
//! rows are bucketed by a locality-sensitive key of each device's
//! dominant histogram. The store sizes its own shards: it starts flat,
//! and the pruned sweep grows the shard count from the row count (up to
//! 64). [`core::MatchConfig`] picks only the row precision, threaded
//! through [`core::MultiConfig`] and [`analysis::PipelineConfig`]. The
//! dense sweeps the engine runs are bit-for-bit the flat single-matrix
//! sweep — sharding never changes a decision — while the pruned
//! [`core::ReferenceDb::match_topk_tile`] sweep
//! uses per-shard summaries (upper envelope of the normalised rows +
//! max weight) to skip every shard whose best possible score cannot
//! beat the current top-k: at 10⁵ enrolled devices
//! (`scenarios::MetropolisScenario`, ~50 000 heterogeneous traffic
//! mixes by default) it answers identification queries severalfold
//! faster than the dense sweep (the perf snapshot's
//! `sharded_sweep_speedup`).
//!
//! # MAC randomization & linking
//!
//! Modern clients rotate randomized MAC addresses precisely to defeat
//! address-based tracking — which makes the paper's fingerprints the
//! interesting signal: they survive the rotation. The
//! [`core::RotationLinker`] chains rotated addresses back to stable
//! device identities online: each sighting (an address plus the
//! per-parameter signatures observed under it) is first resolved
//! through its MAC binding (a universally-administered address *is* an
//! identity), and otherwise swept against per-parameter identity
//! galleries — internal [`core::ReferenceDb`]s — ranking every retained
//! identity by its exact [`core::FusionSpec`] weighted score (one dense
//! sweep per parameter, added with the engine's fusion arithmetic; a
//! one-parameter spec runs the pruned
//! [`core::ReferenceDb::match_topk_tile`] sweep) and emitting a
//! typed [`core::LinkEvent`]: `Linked` (with confidence), `NewIdentity`
//! or `Ambiguous` (abstention under a configurable margin). TTL and
//! capacity eviction bound the gallery; every decision is accounted for
//! in [`core::LinkerStats`], whose conservation law
//! (`sightings = linked + new_identities + ambiguous`) is
//! property-tested.
//!
//! `scenarios::rotation` generates seeded rotation trails over any base
//! population ([`scenarios::RotationScenario`] over
//! [`scenarios::MetropolisScenario`]): `Never`, `Periodic`,
//! `PerAssociation` burst and `PerSsid` policies, each with an exact
//! [`scenarios::RotationLedger`] mapping every emitted address back to
//! its true owner. `analysis::linking` replays a trail through the
//! linker and scores it against the ledger
//! ([`analysis::linking::evaluate_linking`]): fresh-link
//! precision/recall and identity merge rate vs rotation rate, tabled
//! like the paper's spoofing experiments. CI pins the headline point
//! (1 000 devices, periodic rotation, precision ≥ 0.90 at the tuned
//! operating point) as a fixed-seed linking gate, and the perf snapshot
//! gates linker sighting throughput (`linker_throughput_fps`).
//!
//! ```
//! use wifiprint::analysis::linking::{evaluate_linking, metropolis_linker_config};
//! use wifiprint::scenarios::{MetropolisScenario, RotationPolicy};
//!
//! // 64 devices, 4 sightings each: a stable population and one that
//! // rotates its MAC every second sighting.
//! let base = MetropolisScenario::with_devices(7, 64);
//! let sweep = evaluate_linking(
//!     &base,
//!     4,
//!     &[RotationPolicy::Never, RotationPolicy::Periodic { period: 2 }],
//!     &metropolis_linker_config(),
//! )
//! .expect("valid linking configuration");
//!
//! // Rotation rate 0 is the identity map: nothing to link, nothing wrong.
//! assert_eq!(sweep.points[0].precision(), 1.0);
//! assert_eq!(sweep.points[0].merge_rate(), 0.0);
//! println!("{}", sweep.table());
//! ```
//!
//! # Real-capture replay
//!
//! Everything above consumed simulated traffic; real deployments start
//! from a capture file. [`pcap::Replay`] is the zero-copy bridge: raw
//! DLT-127/119/105 pcap bytes are decoded straight into
//! [`radiotap::CapturedFrame`] observations through the borrowed
//! [`ieee80211::WireFrame`] header view — **zero heap allocations**
//! (allocation-counter-tested): [`pcap::Replay::from_slice`] borrows the
//! records of an in-memory file (read whole, or memory-mapped) in place
//! and never touches frame bodies at all. The view reads only what the
//! paper's method may use: the frame kind, retry bit, transmitter,
//! receiver, logical destination and on-air size.
//! Driving a whole file into the engine is a loop over
//! [`pcap::Replay::next_frame`] into [`core::MultiEngine::observe`];
//! the replay keeps per-file [`pcap::ReplayStats`]: decode-error counts
//! per layer, plus how often the monitor omitted rate/signal/TSFT so
//! decode fell back to defaults — silently-defaulted fields skew derived
//! air times, and the stats make that visible. Every link type, raw
//! 802.11 included, takes those defaults from one decoder,
//! [`radiotap::CapturedFrame::from_decoded`].
//!
//! ```
//! use wifiprint::core::{FusionSpec, MultiConfig, MultiEngine, MultiEvent};
//! use wifiprint::ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint::pcap::{LinkType, Record, Replay, Writer};
//! use wifiprint::radiotap::{RxFlags, RxInfo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Stand-in for a real monitor-mode capture: two stations, one AP.
//! let ap = MacAddr::from_index(0xA0);
//! let stations = [MacAddr::from_index(1), MacAddr::from_index(2)];
//! let mut file = Vec::new();
//! let mut writer = Writer::new(&mut file, LinkType::Ieee80211Radiotap)?;
//! for i in 0..2_000u64 {
//!     let sta = stations[(i % 2) as usize];
//!     let frame = Frame::data_to_ds(sta, ap, ap, 200 + (i % 2) as usize * 600);
//!     let ts_us = 2_000 * (i + 1);
//!     let info = RxInfo {
//!         tsft_us: Some(ts_us),
//!         rate: Some(Rate::R54M),
//!         signal_dbm: Some(if i % 2 == 0 { -48 } else { -61 }),
//!         flags: RxFlags::FCS_INCLUDED,
//!         ..RxInfo::default()
//!     };
//!     let mut packet = info.to_radiotap();
//!     packet.extend_from_slice(&frame.to_bytes());
//!     writer.write_record(&Record::from_micros(ts_us, packet))?;
//! }
//!
//! // Replay the capture into the fused engine.
//! let mut cfg = MultiConfig::default().with_min_observations(20);
//! cfg.window = Nanos::from_secs(1);
//! let mut engine = MultiEngine::builder()
//!     .spec(FusionSpec::all_equal())
//!     .config(cfg)
//!     .train_for(Nanos::from_secs(2))
//!     .build()?;
//! let mut replay = Replay::from_slice(&file)?;
//! let mut events = Vec::new();
//! while let Some(f) = replay.next_frame()? {
//!     events.extend(engine.observe(&f)?);
//! }
//! events.extend(engine.finish()?);
//! let stats = replay.stats();
//!
//! assert_eq!((stats.decoded, stats.decode_errors()), (2_000, 0));
//! assert_eq!(
//!     events.iter().filter(|e| matches!(e, MultiEvent::Enrolled { .. })).count(),
//!     2,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Workspace map
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — the streaming [`core::MultiEngine`], signatures, score
//!   fusion, the sharded column-major
//!   matching store with pruned top-k sweeps, the
//!   [`core::RotationLinker`] identity tracker, and accuracy metrics
//!   (the paper's contribution),
//! * [`ieee80211`] — MAC frames, rates and PHY timing,
//! * [`radiotap`] — capture headers and the [`radiotap::CapturedFrame`]
//!   interchange type,
//! * [`pcap`] — capture-file I/O and the zero-copy
//!   [`pcap::Replay`] path from raw capture bytes into the engine,
//! * [`netsim`] — the discrete-event 802.11 channel simulator,
//! * [`devices`] — chipset/driver/service profiles,
//! * [`scenarios`] — the office/conference/Faraday trace generators
//!   (each able to stream straight into the engine,
//!   `run_multi_engine`), the
//!   metropolis large-population stress scenario, seeded MAC-rotation
//!   trail generators with exact ownership ledgers, and the seeded
//!   fault injector for degraded-capture experiments,
//! * [`analysis`] — the evaluation pipeline, tables, plots, the
//!   robustness (accuracy-vs-fault-rate) sweeps and the
//!   linking-accuracy (precision/recall-vs-rotation-rate) sweeps.
//!
//! See the `examples/` directory for runnable walkthroughs (start with
//! `quickstart.rs`; `rotation_linking.rs` runs the MAC-randomization
//! linking sweep; `crates/bench/examples/pcap_replay.rs` replays a pcap
//! capture — yours or a synthetic one — through the zero-copy ingest
//! path) and `crates/bench/src/bin/repro.rs` for the table/figure
//! reproduction harness.

#![forbid(unsafe_code)]

pub use wifiprint_analysis as analysis;
pub use wifiprint_core as core;
pub use wifiprint_devices as devices;
pub use wifiprint_ieee80211 as ieee80211;
pub use wifiprint_netsim as netsim;
pub use wifiprint_pcap as pcap;
pub use wifiprint_radiotap as radiotap;
pub use wifiprint_scenarios as scenarios;
