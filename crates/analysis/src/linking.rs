//! Linking-accuracy evaluation: precision/recall/merge-rate of the
//! [`RotationLinker`] against rotation-policy scenarios, tabled like
//! the paper's §VII spoofing experiments.
//!
//! [`evaluate_linking`] drives a [`MetropolisScenario`] population
//! through a grid of [`RotationPolicy`]s (via
//! [`RotationScenario`]), feeds
//! every sighting to a fresh linker, and scores the decisions against
//! the trail's exact [`RotationLedger`](wifiprint_scenarios::RotationLedger)
//! ground truth:
//!
//! * **precision** — of the *fresh links* (a never-before-seen MAC
//!   chained to a retained identity, i.e. the gallery decisions), the
//!   fraction that chained to an identity founded by the same true
//!   device. A wrong fresh link merges two people's histories — the
//!   privacy-relevant error.
//! * **recall** — of the *linkable* sightings (a fresh MAC whose true
//!   device had already founded an identity), the fraction correctly
//!   linked. Abstentions ([`LinkEvent::Ambiguous`]) and fragmentation
//!   (founding a second identity for the same device) both land here.
//! * **merge rate** — the fraction of founded identities that ended up
//!   owning sightings of more than one true device: the population-level
//!   view of the same error precision counts per decision.
//!
//! Every point also carries the linker's [`LinkerStats`] snapshot —
//! identities retained, evictions, and the pruned-shard accounting of
//! the gallery sweeps — so linking *cost* is visible next to accuracy.

use wifiprint_core::engine::linker::{LinkEvent, LinkerConfig, LinkerStats, RotationLinker};
use wifiprint_core::{CoreError, FusionSpec, MatchConfig, NetworkParameter};
use wifiprint_scenarios::{MetropolisScenario, RotationPolicy, RotationScenario, RotationTrail};

use std::collections::{BTreeMap, BTreeSet};

use crate::tables::render_columns;

/// One evaluated cell: a rotation policy against one population, with
/// the ledger-scored accuracy and the linker's own cost counters.
#[derive(Debug, Clone)]
pub struct LinkingPoint {
    /// Row label (the policy's shape, e.g. `"periodic p2"`).
    pub label: String,
    /// The policy evaluated.
    pub policy: RotationPolicy,
    /// Devices in the population.
    pub devices: usize,
    /// Sightings in the trail.
    pub sightings: usize,
    /// The trail's measured rotation rate (rotations per sighting).
    pub rotation_rate: f64,
    /// Distinct MAC addresses the trail emitted.
    pub distinct_macs: usize,
    /// Fresh links scored (gallery decisions on never-seen MACs).
    pub fresh_links: usize,
    /// Fresh links that chained to the right device's identity.
    pub correct_links: usize,
    /// Linkable sightings (fresh MAC, device already founded).
    pub linkable: usize,
    /// Identities founded over the trail.
    pub identities_founded: usize,
    /// Founded identities that ended up owning >1 true device.
    pub merged_identities: usize,
    /// The linker's counter snapshot at the end of the trail.
    pub stats: LinkerStats,
}

impl LinkingPoint {
    /// Fresh-link precision in `[0, 1]` (`1.0` when no fresh links —
    /// nothing risked, nothing merged).
    pub fn precision(&self) -> f64 {
        if self.fresh_links == 0 {
            1.0
        } else {
            self.correct_links as f64 / self.fresh_links as f64
        }
    }

    /// Linkable recall in `[0, 1]` (`1.0` when nothing was linkable).
    pub fn recall(&self) -> f64 {
        if self.linkable == 0 {
            1.0
        } else {
            self.correct_links as f64 / self.linkable as f64
        }
    }

    /// Fraction of founded identities owning sightings of more than one
    /// true device.
    pub fn merge_rate(&self) -> f64 {
        if self.identities_founded == 0 {
            0.0
        } else {
            self.merged_identities as f64 / self.identities_founded as f64
        }
    }
}

/// A linking sweep: one [`LinkingPoint`] per rotation policy over the
/// same population.
#[derive(Debug, Clone)]
pub struct LinkingSweep {
    /// The seed the population and every trail derive from.
    pub seed: u64,
    /// One point per policy, grid order.
    pub points: Vec<LinkingPoint>,
}

impl LinkingSweep {
    /// Renders the linking table: one row per rotation policy, accuracy
    /// next to the gallery's pruned-sweep cost.
    pub fn table(&self) -> String {
        let mut labels = vec!["Rotation policy".to_owned()];
        let mut rate = vec!["Rot rate".to_owned()];
        let mut macs = vec!["MACs".to_owned()];
        let mut identities = vec!["Identities".to_owned()];
        let mut precision = vec!["Precision".to_owned()];
        let mut recall = vec!["Recall".to_owned()];
        let mut merges = vec!["Merge rate".to_owned()];
        let mut ambiguous = vec!["Ambig".to_owned()];
        let mut evicted = vec!["Evicted".to_owned()];
        let mut pruned = vec!["Pruned".to_owned()];
        for p in &self.points {
            labels.push(p.label.clone());
            rate.push(format!("{:.2}", p.rotation_rate));
            macs.push(p.distinct_macs.to_string());
            identities.push(p.identities_founded.to_string());
            precision.push(format!("{:.1}%", 100.0 * p.precision()));
            recall.push(format!("{:.1}%", 100.0 * p.recall()));
            merges.push(format!("{:.1}%", 100.0 * p.merge_rate()));
            ambiguous.push(p.stats.ambiguous.to_string());
            evicted.push((p.stats.evicted_ttl + p.stats.evicted_cap).to_string());
            pruned.push(format!("{:.0}%", 100.0 * p.stats.pruned_fraction()));
        }
        render_columns(&[
            labels, rate, macs, identities, precision, recall, merges, ambiguous, evicted, pruned,
        ])
    }
}

/// The default policy grid: the control group plus the three real
/// randomization shapes at their common operating points.
pub fn default_policy_grid() -> Vec<RotationPolicy> {
    vec![
        RotationPolicy::Never,
        RotationPolicy::Periodic { period: 2 },
        RotationPolicy::PerAssociation { burst: 3 },
        RotationPolicy::PerSsid { ssids: 2 },
    ]
}

/// The linker configuration the evaluation (and the CI gate) runs:
/// single-parameter inter-arrival-time galleries matching the
/// metropolis signature shape, at the empirically tuned operating point
/// for that population — a strict 0.995 accept threshold plus a 0.005
/// ambiguity margin (single-parameter cosine scores compress near 1.0,
/// so the precision/recall knee sits much higher than the fused
/// default), with gallery evidence accumulation on. At 10³ devices and
/// 6 sightings this holds fresh-link precision ≥ 0.90 across the
/// periodic and burst policies at ~0.83–0.86 recall.
pub fn metropolis_linker_config() -> LinkerConfig {
    LinkerConfig::default()
        .with_spec(FusionSpec::single(NetworkParameter::InterArrivalTime))
        .with_accept_threshold(0.995)
        .with_ambiguity_margin(0.005)
        .with_update_on_link(true)
}

/// The 10⁴-device metropolis operating point: the same single-parameter
/// fusion as [`metropolis_linker_config`], re-laid-out for a gallery an
/// order of magnitude larger. The reference store runs on the quantized
/// `u8` tier ([`MatchConfig::quantized`]) over 64 shards, so every
/// gallery sweep goes through the tile-wide pruned integer kernels —
/// at 10⁴ resident identities that is the difference between a linking
/// replay dominated by dot products and one dominated by bookkeeping.
///
/// The accept/margin knee stays at 0.995/0.005: quantization drift on
/// these dense inter-arrival rows is well under the 7-bit worst case,
/// and the 10× denser impostor field is already absorbed by the strict
/// threshold (precision degrades gracefully; see `linking_smoke` for
/// the pinned floors at this point).
pub fn metropolis_linker_config_10k() -> LinkerConfig {
    metropolis_linker_config().with_match_config(MatchConfig::quantized().with_shards(64))
}

/// Scores one generated trail: reconciles its ledger exactly, replays
/// every sighting through a fresh [`RotationLinker`] under `cfg`, and
/// scores the decisions against ground truth (see the
/// [module docs](self) for the metric definitions).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `cfg` cannot build a linker.
///
/// # Panics
///
/// If the trail fails exact ledger reconciliation — a generator bug,
/// not an input condition.
pub fn evaluate_linking_trail(
    trail: &RotationTrail,
    cfg: LinkerConfig,
) -> Result<LinkingPoint, CoreError> {
    trail.reconcile().expect("rotation trail must reconcile exactly against its ledger");
    let mut linker = RotationLinker::new(cfg)?;
    let mut seen_macs: BTreeSet<_> = BTreeSet::new();
    let mut founded_by: BTreeMap<u64, usize> = BTreeMap::new();
    let mut device_founded: BTreeSet<usize> = BTreeSet::new();
    let mut owners: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    let mut fresh_links = 0usize;
    let mut correct_links = 0usize;
    let mut linkable = 0usize;
    for s in &trail.sightings {
        let fresh = seen_macs.insert(s.mac);
        if fresh && device_founded.contains(&s.true_device) {
            linkable += 1;
        }
        let sigs = [(NetworkParameter::InterArrivalTime, s.signature.clone())];
        match linker.link(s.mac, s.at, &sigs) {
            LinkEvent::Linked { identity, .. } => {
                owners.entry(identity.0).or_default().insert(s.true_device);
                if fresh {
                    fresh_links += 1;
                    // Linking to *any* identity this device founded (or
                    // a fragment of it) is correct; chaining into
                    // another device's history is the merge error.
                    if founded_by.get(&identity.0) == Some(&s.true_device) {
                        correct_links += 1;
                    }
                }
            }
            LinkEvent::NewIdentity { identity, .. } => {
                founded_by.insert(identity.0, s.true_device);
                owners.entry(identity.0).or_default().insert(s.true_device);
                device_founded.insert(s.true_device);
            }
            LinkEvent::Ambiguous { .. } => {}
        }
    }
    let merged_identities = owners.values().filter(|o| o.len() > 1).count();
    let stats = linker.stats();
    debug_assert!(stats.conserves());
    Ok(LinkingPoint {
        label: format!("{} ({})", trail.policy.label(), policy_detail(trail.policy)),
        policy: trail.policy,
        devices: trail.ledger.devices(),
        sightings: trail.sightings.len(),
        rotation_rate: trail.ledger.rotation_rate(),
        distinct_macs: trail.ledger.distinct_macs(),
        fresh_links,
        correct_links,
        linkable,
        identities_founded: founded_by.len(),
        merged_identities,
        stats,
    })
}

fn policy_detail(policy: RotationPolicy) -> String {
    match policy {
        RotationPolicy::Never => "stable".to_owned(),
        RotationPolicy::Periodic { period } => format!("p{period}"),
        RotationPolicy::PerAssociation { burst } => format!("b{burst}"),
        RotationPolicy::PerSsid { ssids } => format!("s{ssids}"),
    }
}

/// Evaluates a policy grid over one population: one generated trail and
/// one fresh linker per policy, `sightings_per_device` observations of
/// every device.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `cfg` cannot build a linker.
///
/// # Panics
///
/// If a generated trail fails exact ledger reconciliation.
pub fn evaluate_linking(
    base: &MetropolisScenario,
    sightings_per_device: usize,
    policies: &[RotationPolicy],
    cfg: &LinkerConfig,
) -> Result<LinkingSweep, CoreError> {
    let mut points = Vec::with_capacity(policies.len());
    for &policy in policies {
        let trail = RotationScenario::new(base.clone(), policy)
            .with_sightings(sightings_per_device)
            .generate();
        points.push(evaluate_linking_trail(&trail, cfg.clone())?);
    }
    Ok(LinkingSweep { seed: base.seed, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_policy_scores_perfectly() {
        let base = MetropolisScenario::with_devices(41, 60);
        let sweep =
            evaluate_linking(&base, 4, &[RotationPolicy::Never], &metropolis_linker_config())
                .unwrap();
        let p = &sweep.points[0];
        assert_eq!(p.rotation_rate, 0.0);
        assert_eq!(p.precision(), 1.0);
        assert_eq!(p.recall(), 1.0);
        assert_eq!(p.merge_rate(), 0.0);
        assert_eq!(p.identities_founded, 60);
        assert_eq!(p.fresh_links, 0, "stable MACs re-link by binding, never by gallery");
        assert_eq!(p.stats.gate_bypassed, 60);
    }

    #[test]
    fn periodic_policy_links_with_measurable_accuracy() {
        let base = MetropolisScenario::with_devices(42, 120);
        let sweep = evaluate_linking(
            &base,
            6,
            &[RotationPolicy::Periodic { period: 2 }],
            &metropolis_linker_config(),
        )
        .unwrap();
        let p = &sweep.points[0];
        assert!(p.rotation_rate > 0.0);
        assert!(p.fresh_links > 0, "rotation must force gallery decisions: {p:?}");
        assert!(p.linkable > 0);
        assert!(p.precision() > 0.5, "precision collapsed: {p:?}");
        assert!(p.stats.shards_swept > 0, "gallery sweeps must run pruned: {:?}", p.stats);
    }

    #[test]
    fn table_renders_all_policies() {
        let base = MetropolisScenario::with_devices(43, 50);
        let sweep =
            evaluate_linking(&base, 4, &default_policy_grid(), &metropolis_linker_config())
                .unwrap();
        let table = sweep.table();
        for needle in ["Rotation policy", "never", "periodic", "per-assoc", "per-ssid", "Pruned"] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
        assert_eq!(sweep.points.len(), 4);
    }
}
