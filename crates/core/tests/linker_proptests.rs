//! Property tests for the MAC-randomization linker.
//!
//! The load-bearing property: at rotation rate 0 (every device keeps
//! one stable address) the linker *is* the identity map — linked
//! identities correspond one-to-one with plain MAC identities, the
//! emitted events are bit-stable across replays, and no gallery sweep
//! ever runs. Plus conservation and eviction-consistency properties on
//! arbitrary interleaved sighting streams. (The layout independence of
//! gallery growth is a unit test of the linker, which can re-lay a
//! gallery out.)

use proptest::prelude::*;
use std::collections::BTreeMap;
use wifiprint_core::engine::linker::{LinkEvent, LinkerConfig, RotationLinker};
use wifiprint_core::{EvalConfig, FusionSpec, NetworkParameter, Signature};
use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos};

const IAT: NetworkParameter = NetworkParameter::InterArrivalTime;

/// A deterministic signature for device `device` on sighting `round`:
/// a stable per-device timing peak plus per-round noise.
fn device_signature(device: u64, round: u64) -> Signature {
    let eval = EvalConfig::for_parameter(IAT);
    let mut sig = Signature::new();
    let center = 40.0 + ((device.wrapping_mul(0x9E37_79B9) >> 8) % 2200) as f64;
    for i in 0..50u64 {
        let jitter = (((device ^ round.wrapping_mul(31)).wrapping_add(i) % 7) as f64) - 3.0;
        sig.record(FrameKind::Data, (center + jitter).clamp(1.0, 2400.0), &eval);
    }
    sig
}

fn linker() -> RotationLinker {
    RotationLinker::new(LinkerConfig::default().with_spec(FusionSpec::single(IAT)))
        .expect("valid config")
}

/// An interleaved stable-MAC sighting stream: `devices` devices, each
/// sighted once per round under its burned-in universal address.
fn stable_stream(devices: u64, rounds: u64) -> Vec<(MacAddr, Nanos, u64)> {
    let mut out = Vec::new();
    let mut tick = 0u64;
    for round in 0..rounds {
        for device in 0..devices {
            tick += 1;
            out.push((MacAddr::universal_from_index(device + 1), Nanos::from_millis(tick), round));
        }
    }
    out
}

proptest! {
    #[test]
    fn rotation_zero_is_the_identity_map(devices in 1u64..40, rounds in 1u64..6) {
        let mut l = linker();
        // Device address → linker identity, built from the event stream.
        let mut identity_of_mac: BTreeMap<MacAddr, u64> = BTreeMap::new();
        for (mac, at, round) in stable_stream(devices, rounds) {
            let device = u64::from(mac.octets()[5]) - 1;
            let sigs = [(IAT, device_signature(device, round))];
            match l.link(mac, at, &sigs) {
                LinkEvent::NewIdentity { identity, mac: m } => {
                    prop_assert_eq!(m, mac);
                    // First sighting of this address, and only then.
                    prop_assert_eq!(round, 0, "re-sighted address founded a second identity");
                    prop_assert!(identity_of_mac.insert(mac, identity.0).is_none());
                }
                LinkEvent::Linked { identity, mac: m, confidence } => {
                    prop_assert_eq!(m, mac);
                    prop_assert_eq!(confidence, 1.0, "stable MACs re-link by exact binding");
                    prop_assert_eq!(identity_of_mac.get(&mac), Some(&identity.0));
                }
                LinkEvent::Ambiguous { .. } => {
                    prop_assert!(false, "rotation 0 can never be ambiguous");
                }
            }
        }
        // Identity map: exactly one identity per device, one device per
        // identity.
        prop_assert_eq!(identity_of_mac.len() as u64, devices);
        let distinct: std::collections::BTreeSet<u64> =
            identity_of_mac.values().copied().collect();
        prop_assert_eq!(distinct.len() as u64, devices);
        // And the map was built without a single gallery sweep.
        let stats = l.stats();
        prop_assert_eq!(stats.shards_swept + stats.shards_pruned, 0);
        prop_assert_eq!(stats.linked_by_gallery, 0);
        prop_assert_eq!(stats.new_identities, devices);
        prop_assert_eq!(stats.linked_by_mac, devices * (rounds - 1));
        prop_assert!(stats.conserves());
    }

    #[test]
    fn rotation_zero_events_are_bit_stable(devices in 1u64..25, rounds in 1u64..5) {
        let run = || {
            let mut l = linker();
            let mut events = Vec::new();
            for (mac, at, round) in stable_stream(devices, rounds) {
                let device = u64::from(mac.octets()[5]) - 1;
                let sigs = [(IAT, device_signature(device, round))];
                events.push(l.link(mac, at, &sigs));
            }
            (events, l.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn decisions_always_conserve(
        sightings in prop::collection::vec((0u64..30, 0u64..8, any::<bool>()), 1..80),
    ) {
        // Arbitrary interleavings of randomized and universal addresses:
        // whatever the linker decides, every sighting produces exactly
        // one decision and the counters reconcile.
        let mut l = linker();
        let mut tick = 0u64;
        for (device, round, randomized) in sightings {
            tick += 1;
            let mac = if randomized {
                MacAddr::randomized(device.wrapping_mul(97) + round)
            } else {
                MacAddr::universal_from_index(device + 1)
            };
            let sigs = [(IAT, device_signature(device, round))];
            l.link(mac, Nanos::from_millis(tick), &sigs);
        }
        let stats = l.stats();
        prop_assert!(stats.conserves(), "{:?}", stats);
        prop_assert_eq!(stats.identities_retained as u64, stats.new_identities - stats.evicted_cap);
    }

    #[test]
    fn cap_bounds_retained_identities(cap in 1usize..12, devices in 1u64..40) {
        let cfg = LinkerConfig::default()
            .with_spec(FusionSpec::single(IAT))
            .with_gallery_cap(cap);
        let mut l = RotationLinker::new(cfg).expect("valid config");
        for device in 0..devices {
            let sigs = [(IAT, device_signature(device, 0))];
            l.link(MacAddr::universal_from_index(device + 1), Nanos::from_millis(device), &sigs);
        }
        let stats = l.stats();
        prop_assert!(stats.identities_retained <= cap);
        prop_assert_eq!(stats.gallery_rows, stats.identities_retained);
        prop_assert!(stats.conserves());
    }
}
