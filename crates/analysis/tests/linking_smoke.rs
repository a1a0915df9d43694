//! Linking smoke gate: fixed-seed MAC-randomization linking accuracy
//! over a 1 000-device metropolis slice, plus a release-only 10⁴-device
//! operating point on the quantized tile-wide pruned sweep.
//!
//! CI runs this file as the linking gate. For every policy the trail
//! must reconcile *exactly* against its rotation ledger and the sweep
//! must complete without panics; at the tuned operating point the
//! periodic and per-association policies must hold their pinned
//! precision/recall floors, and the gallery sweeps must demonstrably
//! run through the pruned `match_topk_tile` sweep.

use wifiprint_analysis::linking::{
    default_policy_grid, evaluate_linking, metropolis_linker_config,
};
#[cfg(not(debug_assertions))]
use wifiprint_analysis::linking::metropolis_linker_config_10k;
use wifiprint_scenarios::{MetropolisScenario, RotationPolicy, RotationScenario};

/// The gate's fixed operating point: seed, population, trail length.
const SEED: u64 = 20_120_711;
const DEVICES: usize = 1000;
const SIGHTINGS: usize = 6;

fn base() -> MetropolisScenario {
    MetropolisScenario::with_devices(SEED, DEVICES)
}

#[test]
fn linking_gate_holds_pinned_floors() {
    let sweep = evaluate_linking(
        &base(),
        SIGHTINGS,
        &[RotationPolicy::Periodic { period: 2 }, RotationPolicy::PerAssociation { burst: 3 }],
        &metropolis_linker_config(),
    )
    .expect("valid gate configuration");

    let periodic = &sweep.points[0];
    // The headline point (ISSUE 8 acceptance): periodic rotation at
    // 10³ devices, fresh-link precision ≥ 0.90. Measured 92.5% at the
    // pinned seed; the floors leave margin for float-order variance
    // across platforms, not for regressions.
    assert!(
        periodic.precision() >= 0.90,
        "periodic precision floor broken: {:.3} < 0.90\n{}",
        periodic.precision(),
        sweep.table()
    );
    assert!(
        periodic.recall() >= 0.75,
        "periodic recall floor broken: {:.3} < 0.75\n{}",
        periodic.recall(),
        sweep.table()
    );
    assert!(periodic.merge_rate() <= 0.08, "merge rate blew up: {:.3}", periodic.merge_rate());

    let burst = &sweep.points[1];
    assert!(
        burst.precision() >= 0.88,
        "per-association precision floor broken: {:.3} < 0.88\n{}",
        burst.precision(),
        sweep.table()
    );
    assert!(
        burst.recall() >= 0.78,
        "per-association recall floor broken: {:.3} < 0.78\n{}",
        burst.recall(),
        sweep.table()
    );

    // The gallery must run through the pruned sweep, not a dense one.
    // The galleries start flat and the pruned sweep grows them from
    // their row count, to four shards from 512 identities; at 1 000
    // spread devices most (candidate, shard) pairs must still be
    // pruned: 0.69 periodic, 0.61 per-association at the pinned seed
    // (0.86 when the galleries held 32 shards from their first row).
    for p in &sweep.points {
        assert!(p.stats.shards_swept > 0, "{}: no sweeps ran", p.label);
        assert!(
            p.stats.pruned_fraction() >= 0.5,
            "{}: pruned fraction {:.2} — dense sweeping?",
            p.label,
            p.stats.pruned_fraction()
        );
        assert!(p.stats.conserves(), "{}: decision counters leak: {:?}", p.label, p.stats);
    }
}

#[test]
fn rotation_rate_zero_is_the_identity_map() {
    // With no rotation the linker must reduce to plain MAC identity:
    // one identity per device, founded on first sight, every later
    // sighting re-linked by exact binding at confidence 1.0 — no
    // gallery sweeps, no ambiguity, no merges.
    let sweep = evaluate_linking(
        &base(),
        SIGHTINGS,
        &[RotationPolicy::Never],
        &metropolis_linker_config(),
    )
    .expect("valid gate configuration");
    let p = &sweep.points[0];
    assert_eq!(p.rotation_rate, 0.0);
    assert_eq!(p.identities_founded, DEVICES);
    assert_eq!(p.distinct_macs, DEVICES);
    assert_eq!(p.fresh_links, 0);
    assert_eq!(p.precision(), 1.0);
    assert_eq!(p.recall(), 1.0);
    assert_eq!(p.merge_rate(), 0.0);
    assert_eq!(p.stats.ambiguous, 0);
    assert_eq!(p.stats.linked_by_gallery, 0);
    assert_eq!(p.stats.linked_by_mac as usize, DEVICES * (SIGHTINGS - 1));
    assert_eq!(p.stats.shards_swept + p.stats.shards_pruned, 0, "no sweeps at rotation 0");
}

#[test]
fn trails_reconcile_exactly_across_the_policy_grid() {
    for policy in default_policy_grid() {
        let trail = RotationScenario::new(base(), policy).with_sightings(SIGHTINGS).generate();
        trail
            .reconcile()
            .unwrap_or_else(|e| panic!("{} trail failed reconciliation: {e}", policy.label()));
        assert_eq!(trail.sightings.len(), DEVICES * SIGHTINGS);
    }
}

#[test]
fn linker_never_merges_distinct_archetype_devices_on_clean_traces() {
    // Seeded no-merge floor (ISSUE 8 satellite): six devices drawn from
    // *distinct* archetype mixes, each sighted repeatedly under fresh
    // randomized MACs with clean (per-day noise only) signatures. The
    // linker may fragment (miss a link) but must never chain two
    // different devices into one identity.
    use std::collections::BTreeMap;
    use wifiprint_core::engine::linker::{LinkEvent, RotationLinker};
    use wifiprint_core::NetworkParameter;
    use wifiprint_ieee80211::{MacAddr, Nanos};

    let scenario = MetropolisScenario::with_devices(SEED, 4096);
    // Archetypes cycle through the population; stride past the mix
    // period to collect devices with well-separated traffic mixes.
    let picks = [0usize, 683, 1366, 2049, 2732, 3415];
    let mut linker = RotationLinker::new(metropolis_linker_config()).expect("valid config");
    let mut owners: BTreeMap<u64, usize> = BTreeMap::new();
    let mut counter = 0u64;
    for day in 0..8u64 {
        for &device in &picks {
            counter += 1;
            let mac = MacAddr::randomized(SEED ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let sigs =
                [(NetworkParameter::InterArrivalTime, scenario.candidate(device, day))];
            match linker.link(mac, Nanos::from_secs(counter), &sigs) {
                LinkEvent::Linked { identity, .. } => {
                    let owner = owners.get(&identity.0).copied();
                    assert_eq!(
                        owner,
                        Some(device),
                        "identity {identity} founded by device {owner:?} \
                         absorbed device {device} on day {day}"
                    );
                }
                LinkEvent::NewIdentity { identity, .. } => {
                    owners.insert(identity.0, device);
                }
                LinkEvent::Ambiguous { .. } => {}
            }
        }
    }
    assert!(linker.stats().conserves());
}

/// The 10⁴-device operating point (ISSUE 9): the same metropolis
/// population scaled 10×, replayed through the quantized (`u8`) gallery
/// tier, its galleries grown from their row count (64 shards from 8 192
/// identities), so every sweep runs the tile-wide pruned integer kernels at
/// metropolis scale. Release-only: the point of this gate is
/// the tuned operating numbers, and CI runs this file with `--release`;
/// a debug replay of 4×10⁴ sightings would dominate `cargo test`.
///
/// Floors were re-tuned at this density. The 0.995/0.005 accept/margin
/// knee from the 10³ gate still dominates its neighbours here (0.997
/// and 0.993 both lose precision *and* balance), but the 10× denser
/// impostor field costs ~6 points of fresh-link precision: measured
/// 86.1%/80.6% (periodic) and 86.9%/83.4% (per-association)
/// precision/recall at the pinned seed, merge rate 3.8%, 78.7% of
/// shards pruned per sweep (80.8% when the galleries held 64 shards from
/// their first row). The floors leave margin for float-order
/// variance, not regressions.
#[cfg(not(debug_assertions))]
#[test]
fn linking_gate_holds_at_ten_thousand_devices() {
    const DEVICES_10K: usize = 10_000;
    const SIGHTINGS_10K: usize = 4;
    let sweep = evaluate_linking(
        &MetropolisScenario::with_devices(SEED, DEVICES_10K),
        SIGHTINGS_10K,
        &[RotationPolicy::Periodic { period: 2 }, RotationPolicy::PerAssociation { burst: 3 }],
        &metropolis_linker_config_10k(),
    )
    .expect("valid gate configuration");

    let periodic = &sweep.points[0];
    assert!(
        periodic.precision() >= 0.84,
        "10k periodic precision floor broken: {:.3} < 0.84\n{}",
        periodic.precision(),
        sweep.table()
    );
    assert!(
        periodic.recall() >= 0.77,
        "10k periodic recall floor broken: {:.3} < 0.77\n{}",
        periodic.recall(),
        sweep.table()
    );

    let burst = &sweep.points[1];
    assert!(
        burst.precision() >= 0.84,
        "10k per-association precision floor broken: {:.3} < 0.84\n{}",
        burst.precision(),
        sweep.table()
    );
    assert!(
        burst.recall() >= 0.80,
        "10k per-association recall floor broken: {:.3} < 0.80\n{}",
        burst.recall(),
        sweep.table()
    );

    for p in &sweep.points {
        assert_eq!(p.devices, DEVICES_10K);
        assert!(p.merge_rate() <= 0.06, "{}: merge rate blew up: {:.3}", p.label, p.merge_rate());
        // The whole point of the quantized, grown layout: the sweeps
        // must stay overwhelmingly pruned at 10⁴ resident identities.
        assert!(p.stats.shards_swept > 0, "{}: no sweeps ran", p.label);
        assert!(
            p.stats.pruned_fraction() >= 0.75,
            "{}: pruned fraction {:.2} at 10k — dense sweeping?",
            p.label,
            p.stats.pruned_fraction()
        );
        assert!(p.stats.conserves(), "{}: decision counters leak: {:?}", p.label, p.stats);
    }
}
