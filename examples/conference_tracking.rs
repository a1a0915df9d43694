//! Privacy implications (§VII-B3): fingerprints track devices across MAC
//! address changes.
//!
//! A conference attendee randomises their MAC address halfway through the
//! day. MAC-based tracking loses them — but the fused [`MultiEngine`]
//! flags the "new" address as a [`MultiEvent::FusedNewDevice`] whose
//! **combined** timing-trio similarity (inter-arrival, medium access,
//! transmission time) ranks the old identity among the closest
//! references: fusing parameters makes re-identification harder to
//! dodge when any single projection is ambiguous.
//!
//! ```sh
//! cargo run --release --example conference_tracking
//! ```

use wifiprint::core::{FusionSpec, MultiConfig, MultiEngine, MultiEvent};
use wifiprint::ieee80211::{MacAddr, Nanos};
use wifiprint::scenarios::ConferenceScenario;

fn cfg() -> MultiConfig {
    MultiConfig::default().with_min_observations(50)
}

fn main() {
    // Morning session: a training-only engine run is the enrollment
    // entry point — finish() emits one Enrolled event per attendee and
    // hands over the frozen per-parameter reference databases.
    println!("morning: learning reference signatures at the venue ...");
    let morning = ConferenceScenario::small(5, 120, 14).run_collect();
    let mut enroller = MultiEngine::builder()
        .spec(FusionSpec::timing_trio())
        .config(cfg())
        .train_for(Nanos::from_secs(3600))
        .build()
        .expect("valid engine configuration");
    enroller.observe_all(&morning.frames).expect("frames in capture order");
    let enrolled = enroller.finish().expect("first finish");
    let dbs = enroller.into_references();
    let known_devices: Vec<MacAddr> =
        dbs.values().next().map(|db| db.devices().collect()).unwrap_or_default();
    println!(
        "reference databases: {} devices × {} parameters ({} Enrolled events)",
        known_devices.len(),
        dbs.len(),
        enrolled.len()
    );

    // Afternoon: the same venue, same devices — but we pretend the
    // chattiest enrolled device rotated its MAC address (we relabel its
    // frames).
    let target = *morning
        .transmitters()
        .iter()
        .filter(|(addr, _)| known_devices.contains(addr) && !morning.report.aps.contains(addr))
        .max_by_key(|(_, n)| **n)
        .expect("nonempty reference")
        .0;
    let new_mac = MacAddr::new([0x02, 0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
    println!("afternoon: device {target} rotates its MAC to {new_mac}");

    let mut afternoon = ConferenceScenario::small(6, 120, 14).run_collect();
    for f in &mut afternoon.frames {
        if f.transmitter == Some(target) {
            f.transmitter = Some(new_mac);
        }
    }

    // Detection: a second engine against the morning's frozen databases.
    // The rotated device has no reference entry, so it surfaces as a
    // FusedNewDevice event — scored against every reference anyway, per
    // parameter and fused.
    let mut detector = MultiEngine::builder()
        .spec(FusionSpec::timing_trio())
        .config(cfg())
        .references(dbs)
        .build()
        .expect("valid engine configuration");
    let mut events = detector.observe_all(&afternoon.frames).expect("frames in capture order");
    events.extend(detector.finish().expect("first finish"));

    let Some(fused) = events.iter().find_map(|e| match e {
        MultiEvent::FusedNewDevice { device, fused: Some(f), .. } if *device == new_mac => {
            Some(f)
        }
        _ => None,
    }) else {
        println!("(the rotated device sent too little traffic this afternoon)");
        return;
    };

    // Who is this "new" device really? Rank the closest references by
    // the fused timing score via partial top-k selection.
    let ranked = fused.top(3);
    println!("closest references for {new_mac} (fused over the timing trio):");
    for (rank, (dev, sim)) in ranked.iter().enumerate() {
        println!("  {}. {dev} (fused similarity {sim:.3})", rank + 1);
    }
    let (best, sim) = ranked[0];
    println!("best match for {new_mac}: {best} (fused similarity {sim:.3})");
    if best == target {
        println!("=> re-identified despite the MAC rotation: address randomisation");
        println!("   alone does not defeat passive fingerprinting (paper §VII).");
    } else {
        println!("=> not re-identified this time: in a crowded conference a rotated");
        println!("   address is often closer to another device's fingerprint.");
    }
}
