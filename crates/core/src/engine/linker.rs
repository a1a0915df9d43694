//! MAC-randomization linking: chaining rotated addresses back to one
//! device identity.
//!
//! The paper's §VII headline is that passive fingerprints survive MAC
//! address changes — the engine already hands every stranger's candidate
//! signatures over in [`MultiEvent::FusedNewDevice`] events, and this
//! module is the consumer that closes the loop. A
//! [`RotationLinker`] maintains a **gallery** of retained identities —
//! one internal sharded [`ReferenceDb`] per fused parameter, so the hot
//! path reuses the summary-pruned [`ReferenceDb::match_topk_tile`] sweep —
//! and decides, per sighting of an unknown MAC, whether the behaviour
//! behind it is an identity it already knows:
//!
//! * **MAC binding fast path** — an address the linker has already bound
//!   re-links in one map lookup, no gallery sweep;
//! * **universally-administered pre-gate** — a MAC with the U/L bit
//!   *clear* is burned-in and cannot rotate
//!   ([`MacAddr::is_locally_administered`]), so it founds (or re-links)
//!   its own identity without paying for a sweep; only
//!   randomized-looking addresses reach the gallery;
//! * **pruned gallery sweep** — each qualifying per-parameter candidate
//!   signature is ranked against that parameter's gallery via
//!   [`ReferenceDb::match_topk_tile`] and the per-parameter scores are
//!   combined under the configured [`FusionSpec`] weights; the fused
//!   best either links ([`LinkEvent::Linked`], at or above
//!   [`LinkerConfig::accept_threshold`] with a clear
//!   [`LinkerConfig::ambiguity_margin`] over the runner-up), stays
//!   undecided ([`LinkEvent::Ambiguous`], above threshold but inside the
//!   margin), or founds a fresh identity ([`LinkEvent::NewIdentity`]).
//!
//! Retained identities age out under a configurable TTL and a hard
//! gallery cap (least-recently-seen eviction), and every decision and
//! sweep cost is counted into a [`LinkerStats`] snapshot — including the
//! pruned-shard accounting from [`MatchScratch::prune_stats`], so the
//! linking cost is visible right next to its accuracy.
//!
//! # Example
//!
//! ```
//! use wifiprint_core::engine::linker::{LinkEvent, LinkerConfig, RotationLinker};
//! use wifiprint_core::{EvalConfig, FusionSpec, NetworkParameter, Signature};
//! use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos};
//!
//! let cfg = LinkerConfig::default().with_spec(FusionSpec::single(
//!     NetworkParameter::InterArrivalTime,
//! ));
//! let mut linker = RotationLinker::new(cfg)?;
//!
//! // A device's behaviour, observed twice under two randomized MACs.
//! let eval = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
//! let mut sig = Signature::new();
//! for i in 0..60 {
//!     sig.record(FrameKind::Data, 400.0 + f64::from(i % 3), &eval);
//! }
//! let sigs = vec![(NetworkParameter::InterArrivalTime, sig)];
//!
//! let first = linker.link(MacAddr::randomized(1), Nanos::from_secs(1), &sigs);
//! let LinkEvent::NewIdentity { identity, .. } = first else { panic!("fresh gallery") };
//! let second = linker.link(MacAddr::randomized(2), Nanos::from_secs(300), &sigs);
//! assert!(matches!(second, LinkEvent::Linked { identity: id, .. } if id == identity));
//! # Ok::<(), wifiprint_core::CoreError>(())
//! ```

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use wifiprint_ieee80211::{MacAddr, Nanos};

use crate::error::CoreError;
use crate::fusion::FusionSpec;
use crate::matching::{MatchConfig, MatchScratch, ReferenceDb};
use crate::params::NetworkParameter;
use crate::signature::Signature;

use super::multi::MultiEvent;

/// A linker-assigned device identity: stable across however many MAC
/// addresses the device rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdentityId(pub u64);

impl std::fmt::Display for IdentityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "id:{}", self.0)
    }
}

/// Configuration of a [`RotationLinker`].
#[derive(Debug, Clone)]
pub struct LinkerConfig {
    /// Which parameters the gallery keeps (and with what weights the
    /// per-parameter gallery scores fuse). Defaults to
    /// [`FusionSpec::all_equal`] — the [`MultiEngine`](super::MultiEngine)
    /// shape; single-parameter deployments use [`FusionSpec::single`].
    pub spec: FusionSpec,
    /// Minimum fused gallery score to link a sighting to a retained
    /// identity (cosine-weighted, in `[0, 1]`).
    pub accept_threshold: f64,
    /// Minimum lead of the best identity over the runner-up: a best
    /// score above [`LinkerConfig::accept_threshold`] whose lead is
    /// smaller stays [`LinkEvent::Ambiguous`] instead of linking —
    /// trading recall for precision exactly where false merges live.
    pub ambiguity_margin: f64,
    /// How many fused parameters must have produced a qualifying
    /// candidate signature before a gallery link is allowed (clamped to
    /// `[1, spec.len()]`). Sightings below the quorum found a fresh
    /// identity rather than risk linking on starved evidence.
    pub link_quorum: usize,
    /// Gallery candidates ranked per parameter sweep (the pruned
    /// top-`k`); at least 2 so the ambiguity margin has a runner-up to
    /// compare against.
    pub topk: usize,
    /// Hard cap on retained identities; exceeding it evicts the
    /// least-recently-seen identity (its gallery rows and MAC bindings
    /// go with it).
    pub gallery_cap: usize,
    /// Optional age-out: an identity not sighted for this long is
    /// evicted on the next observation.
    pub identity_ttl: Option<Nanos>,
    /// When `true` (default), a universally-administered MAC (U/L bit
    /// clear — a burned-in address that cannot rotate) bypasses the
    /// gallery sweep entirely: the cheap pre-gate that keeps
    /// non-randomized traffic off the hot path.
    pub gate_universal: bool,
    /// When `true`, a gallery link merges the sighting's candidate
    /// signatures into the linked identity's gallery rows (evidence
    /// accumulation). Default `false`: galleries stay exactly the
    /// founding observation, which keeps decisions independent of
    /// sighting order.
    pub update_on_link: bool,
    /// Shard layout of the per-parameter gallery databases; sharding is
    /// what makes the pruned sweep prune.
    pub match_config: MatchConfig,
}

impl Default for LinkerConfig {
    /// All five parameters equally weighted, 0.90 accept threshold,
    /// 0.01 ambiguity margin, quorum 1, top-4 ranking, 200 000-identity
    /// cap, no TTL, universal-MAC gate on, 32-shard galleries.
    fn default() -> Self {
        LinkerConfig {
            spec: FusionSpec::all_equal(),
            accept_threshold: 0.90,
            ambiguity_margin: 0.01,
            link_quorum: 1,
            topk: 4,
            gallery_cap: 200_000,
            identity_ttl: None,
            gate_universal: true,
            update_on_link: false,
            match_config: MatchConfig::default().with_shards(32),
        }
    }
}

impl LinkerConfig {
    /// Returns a copy with a different fusion spec.
    #[must_use]
    pub fn with_spec(mut self, spec: FusionSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Returns a copy with a different accept threshold.
    #[must_use]
    pub fn with_accept_threshold(mut self, threshold: f64) -> Self {
        self.accept_threshold = threshold;
        self
    }

    /// Returns a copy with a different ambiguity margin.
    #[must_use]
    pub fn with_ambiguity_margin(mut self, margin: f64) -> Self {
        self.ambiguity_margin = margin;
        self
    }

    /// Returns a copy with a different link quorum.
    #[must_use]
    pub fn with_link_quorum(mut self, quorum: usize) -> Self {
        self.link_quorum = quorum;
        self
    }

    /// Returns a copy with a different gallery cap.
    #[must_use]
    pub fn with_gallery_cap(mut self, cap: usize) -> Self {
        self.gallery_cap = cap;
        self
    }

    /// Returns a copy with a different identity TTL.
    #[must_use]
    pub fn with_identity_ttl(mut self, ttl: Option<Nanos>) -> Self {
        self.identity_ttl = ttl;
        self
    }

    /// Returns a copy with the universal-MAC pre-gate on or off.
    #[must_use]
    pub fn with_gate_universal(mut self, gate: bool) -> Self {
        self.gate_universal = gate;
        self
    }

    /// Returns a copy with gallery evidence accumulation on or off.
    #[must_use]
    pub fn with_update_on_link(mut self, update: bool) -> Self {
        self.update_on_link = update;
        self
    }

    /// Returns a copy with a different gallery shard layout.
    #[must_use]
    pub fn with_match_config(mut self, match_config: MatchConfig) -> Self {
        self.match_config = match_config;
        self
    }

    /// Checks the configuration can drive a linker.
    fn validate(&self) -> Result<(), CoreError> {
        self.spec.validate()?;
        if !(0.0..=1.0).contains(&self.accept_threshold) {
            return Err(CoreError::InvalidConfig {
                reason: "linker accept threshold must lie in [0, 1]",
            });
        }
        if !self.ambiguity_margin.is_finite() || self.ambiguity_margin < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "linker ambiguity margin must be finite and non-negative",
            });
        }
        if self.topk < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "linker top-k must be at least 2 (the margin needs a runner-up)",
            });
        }
        if self.gallery_cap == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "linker gallery cap must be at least 1",
            });
        }
        Ok(())
    }
}

/// A typed linking decision, one per sighting fed to
/// [`RotationLinker::link`].
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEvent {
    /// The sighting was chained to a retained identity — by exact MAC
    /// binding (confidence 1.0) or by a gallery match at `confidence`
    /// (the fused gallery score).
    Linked {
        /// The retained identity the sighting was chained to.
        identity: IdentityId,
        /// The sighted MAC address (now bound to the identity).
        mac: MacAddr,
        /// Fused gallery score of the link; exactly 1.0 for a MAC
        /// binding or a universal-MAC re-sighting.
        confidence: f64,
    },
    /// No retained identity matched: the sighting founded a fresh one
    /// (its candidate signatures are now gallery rows).
    NewIdentity {
        /// The newly founded identity.
        identity: IdentityId,
        /// The founding MAC address.
        mac: MacAddr,
    },
    /// The best gallery score cleared the accept threshold but not the
    /// ambiguity margin over the runner-up: the linker abstains rather
    /// than risk a false merge. The MAC stays unbound, so a later
    /// sighting of it retries with fresh evidence.
    Ambiguous {
        /// The sighted MAC address (left unbound).
        mac: MacAddr,
        /// The contending identities with their fused gallery scores,
        /// best first.
        contenders: Vec<(IdentityId, f64)>,
    },
}

impl LinkEvent {
    /// The sighted MAC address the event decided on.
    pub fn mac(&self) -> MacAddr {
        match *self {
            LinkEvent::Linked { mac, .. }
            | LinkEvent::NewIdentity { mac, .. }
            | LinkEvent::Ambiguous { mac, .. } => mac,
        }
    }

    /// The identity the sighting resolved to, if the linker decided
    /// (`None` for [`LinkEvent::Ambiguous`]).
    pub fn identity(&self) -> Option<IdentityId> {
        match *self {
            LinkEvent::Linked { identity, .. } | LinkEvent::NewIdentity { identity, .. } => {
                Some(identity)
            }
            LinkEvent::Ambiguous { .. } => None,
        }
    }
}

/// Counter snapshot of a [`RotationLinker`]'s work: every decision,
/// eviction and pruned-sweep cost since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkerStats {
    /// Sightings observed.
    pub sightings: u64,
    /// Sightings chained to a retained identity (all link paths).
    pub linked: u64,
    /// Links resolved by the exact MAC-binding fast path.
    pub linked_by_mac: u64,
    /// Links resolved by a fused gallery sweep.
    pub linked_by_gallery: u64,
    /// Sightings that founded a fresh identity.
    pub new_identities: u64,
    /// Sightings the linker abstained on (inside the ambiguity margin).
    pub ambiguous: u64,
    /// Sightings that skipped the gallery sweep because the MAC is
    /// universally administered ([`LinkerConfig::gate_universal`]).
    pub gate_bypassed: u64,
    /// Identities evicted by the TTL.
    pub evicted_ttl: u64,
    /// Identities evicted by the gallery cap.
    pub evicted_cap: u64,
    /// Retained identities right now.
    pub identities_retained: usize,
    /// Gallery rows resident right now (sum over the per-parameter
    /// databases).
    pub gallery_rows: usize,
    /// Gallery shards actually scored across all sweeps
    /// ([`MatchScratch::prune_stats`], accumulated).
    pub shards_swept: u64,
    /// Gallery shards skipped by the admissible score bound.
    pub shards_pruned: u64,
}

impl LinkerStats {
    /// Fraction of gallery shards the pruned sweeps skipped.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.shards_swept + self.shards_pruned;
        if total == 0 {
            0.0
        } else {
            self.shards_pruned as f64 / total as f64
        }
    }

    /// Conservation law: every sighting produced exactly one decision.
    pub fn conserves(&self) -> bool {
        self.sightings == self.linked + self.new_identities + self.ambiguous
            && self.linked == self.linked_by_mac + self.linked_by_gallery
    }
}

/// What the linker retains about one identity.
#[derive(Debug, Clone)]
struct IdentityRecord {
    last_seen: Nanos,
    sightings: u64,
    /// Every MAC bound to this identity, binding order (first is the
    /// founding address). Needed to clear the bindings on eviction.
    macs: Vec<MacAddr>,
}

/// The streaming MAC-randomization linker (see the [module docs](self)).
#[derive(Debug)]
pub struct RotationLinker {
    cfg: LinkerConfig,
    /// Effective link quorum (clamped to `[1, spec.len()]`).
    quorum: usize,
    /// `(parameter, weight)` in spec order, denormalised from the spec.
    params: Vec<(NetworkParameter, f64)>,
    /// One gallery database per spec parameter (same order).
    galleries: Vec<ReferenceDb>,
    identities: BTreeMap<u64, IdentityRecord>,
    /// Exact MAC → identity bindings (the fast path).
    bindings: BTreeMap<MacAddr, u64>,
    /// Least-recently-seen index over the identities, for TTL and cap
    /// eviction in `O(log n)`.
    by_last_seen: BTreeSet<(Nanos, u64)>,
    next_id: u64,
    scratch: MatchScratch,
    /// Reused fused-score accumulator (identity → weighted score sum).
    acc: BTreeMap<u64, f64>,
    stats: LinkerStats,
}

/// The gallery databases key identities by a synthetic address derived
/// from the identity number (identities outlive any particular MAC).
fn gallery_key(id: u64) -> MacAddr {
    MacAddr::from_index(id)
}

/// Inverse of [`gallery_key`].
fn key_id(mac: MacAddr) -> u64 {
    let o = mac.octets();
    (u64::from(o[1]) << 32)
        | (u64::from(o[2]) << 24)
        | (u64::from(o[3]) << 16)
        | (u64::from(o[4]) << 8)
        | u64::from(o[5])
}

impl RotationLinker {
    /// Builds a linker from a validated configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an invalid fusion spec, an
    /// accept threshold outside `[0, 1]`, a negative or non-finite
    /// ambiguity margin, `topk < 2` or a zero gallery cap.
    pub fn new(cfg: LinkerConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let params: Vec<(NetworkParameter, f64)> = cfg.spec.parameters.clone();
        let galleries = params.iter().map(|_| ReferenceDb::with_config(cfg.match_config)).collect();
        let quorum = cfg.link_quorum.clamp(1, params.len());
        Ok(RotationLinker {
            quorum,
            params,
            galleries,
            identities: BTreeMap::new(),
            bindings: BTreeMap::new(),
            by_last_seen: BTreeSet::new(),
            next_id: 0,
            scratch: MatchScratch::new(),
            acc: BTreeMap::new(),
            stats: LinkerStats::default(),
            cfg,
        })
    }

    /// The configuration the linker runs.
    pub fn config(&self) -> &LinkerConfig {
        &self.cfg
    }

    /// Observes one sighting — a MAC address seen at `at` with the
    /// per-parameter candidate signatures a detection window produced
    /// for it — and returns the linking decision.
    ///
    /// This is the core entry point; [`RotationLinker::observe_multi`]
    /// adapts engine events onto it.
    /// Parameters outside the linker's spec are ignored; empty
    /// signatures never enter the gallery.
    pub fn link(
        &mut self,
        mac: MacAddr,
        at: Nanos,
        signatures: &[(NetworkParameter, Signature)],
    ) -> LinkEvent {
        self.stats.sightings += 1;
        self.evict_expired(at);

        // Fast path: an address already bound to an identity re-links
        // in one lookup — with no rotation this is every sighting after
        // a device's first, making the linker the identity map.
        if let Some(&id) = self.bindings.get(&mac) {
            self.touch(id, at, None);
            if self.cfg.update_on_link {
                self.reinforce(id, signatures);
            }
            self.stats.linked += 1;
            self.stats.linked_by_mac += 1;
            return LinkEvent::Linked { identity: IdentityId(id), mac, confidence: 1.0 };
        }

        // Pre-gate: a universally-administered MAC is burned in — it
        // cannot be a rotation of anything, so it founds its own
        // identity without a sweep.
        if self.cfg.gate_universal && mac.is_universally_administered() {
            self.stats.gate_bypassed += 1;
            return self.found(mac, at, signatures);
        }

        let (scored, ranked) = self.sweep(signatures);
        if scored >= self.quorum {
            if let Some(&(best_id, best_score)) = ranked.first() {
                if best_score >= self.cfg.accept_threshold {
                    let runner = ranked.get(1).map_or(0.0, |&(_, s)| s);
                    if best_score - runner >= self.cfg.ambiguity_margin {
                        self.touch(best_id, at, Some(mac));
                        if self.cfg.update_on_link {
                            self.reinforce(best_id, signatures);
                        }
                        self.stats.linked += 1;
                        self.stats.linked_by_gallery += 1;
                        return LinkEvent::Linked {
                            identity: IdentityId(best_id),
                            mac,
                            confidence: best_score,
                        };
                    }
                    // Above threshold but inside the margin: abstain.
                    // The MAC stays unbound so a later, better-evidenced
                    // sighting of it can still decide.
                    self.stats.ambiguous += 1;
                    let contenders = ranked
                        .into_iter()
                        .take_while(|&(_, s)| s >= self.cfg.accept_threshold)
                        .map(|(id, s)| (IdentityId(id), s))
                        .collect();
                    return LinkEvent::Ambiguous { mac, contenders };
                }
            }
        }
        self.found(mac, at, signatures)
    }

    /// Adapts a fused-engine event stream onto [`RotationLinker::link`]:
    /// [`MultiEvent::FusedNewDevice`] carries its per-parameter
    /// candidate signatures into a full sighting, and
    /// [`MultiEvent::FusedMatch`] (an address enrolled in the engine's
    /// own references) passes through as a signature-less sighting so
    /// its MAC binding stays warm. Other events return `None`.
    ///
    /// `at` is the sighting time on the caller's clock (the engine
    /// reports window indices, not timestamps — multiply by the window
    /// length, or feed the capture clock).
    pub fn observe_multi(&mut self, event: &MultiEvent, at: Nanos) -> Option<LinkEvent> {
        match event {
            MultiEvent::FusedNewDevice { device, signatures, .. } => {
                Some(self.link(*device, at, signatures))
            }
            MultiEvent::FusedMatch { device, .. } => Some(self.link(*device, at, &[])),
            _ => None,
        }
    }

    /// The identity a MAC address is currently bound to, if any.
    pub fn identity_of(&self, mac: &MacAddr) -> Option<IdentityId> {
        self.bindings.get(mac).map(|&id| IdentityId(id))
    }

    /// Retained identities right now.
    pub fn identity_count(&self) -> usize {
        self.identities.len()
    }

    /// The MAC addresses bound to an identity, binding order (first is
    /// the founding address). `None` for an unknown or evicted identity.
    pub fn macs_of(&self, identity: IdentityId) -> Option<&[MacAddr]> {
        self.identities.get(&identity.0).map(|r| r.macs.as_slice())
    }

    /// The counter snapshot: decisions, evictions, resident gallery
    /// size and the accumulated pruned-sweep accounting.
    pub fn stats(&self) -> LinkerStats {
        let mut stats = self.stats;
        stats.identities_retained = self.identities.len();
        stats.gallery_rows = self.galleries.iter().map(ReferenceDb::len).sum();
        stats
    }

    /// Ranks the gallery against the sighting's signatures: one pruned
    /// top-k sweep per spec parameter with a qualifying signature,
    /// fused under the spec weights (identities missing from a
    /// parameter's top-k contribute zero for it — conservative).
    /// Returns `(parameters scored, ranked (identity, fused score))`.
    fn sweep(&mut self, signatures: &[(NetworkParameter, Signature)]) -> (usize, Vec<(u64, f64)>) {
        self.acc.clear();
        let mut scored = 0usize;
        let mut weight_total = 0.0f64;
        for (&(param, weight), db) in self.params.iter().zip(&self.galleries) {
            let Some(sig) = signatures
                .iter()
                .find(|(p, s)| *p == param && s.observation_count() > 0)
                .map(|(_, s)| s)
            else {
                continue;
            };
            scored += 1;
            weight_total += weight;
            if db.is_empty() {
                continue;
            }
            let tops = db
                .match_topk_tile(std::slice::from_ref(sig), self.cfg.topk, &mut self.scratch)
                .pop()
                .unwrap_or_default();
            let prune = self.scratch.prune_stats();
            self.stats.shards_swept += prune.swept_shards as u64;
            self.stats.shards_pruned += prune.pruned_shards as u64;
            for (key, score) in tops {
                *self.acc.entry(key_id(key)).or_insert(0.0) += weight * score;
            }
        }
        if weight_total <= 0.0 {
            return (scored, Vec::new());
        }
        let mut ranked: Vec<(u64, f64)> =
            self.acc.iter().map(|(&id, &sum)| (id, sum / weight_total)).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(self.cfg.topk);
        (scored, ranked)
    }

    /// Founds a fresh identity from a sighting: enrolls its qualifying
    /// signatures as gallery rows, binds the MAC, and enforces the
    /// gallery cap.
    fn found(
        &mut self,
        mac: MacAddr,
        at: Nanos,
        signatures: &[(NetworkParameter, Signature)],
    ) -> LinkEvent {
        let id = self.next_id;
        self.next_id += 1;
        let key = gallery_key(id);
        for (&(param, _), db) in self.params.iter().zip(&mut self.galleries) {
            let Some(sig) = signatures
                .iter()
                .find(|(p, s)| *p == param && s.observation_count() > 0)
                .map(|(_, s)| s)
            else {
                continue;
            };
            db.insert(key, sig.clone()).expect("gallery databases are never frozen");
        }
        self.identities.insert(id, IdentityRecord { last_seen: at, sightings: 1, macs: vec![mac] });
        self.bindings.insert(mac, id);
        self.by_last_seen.insert((at, id));
        self.stats.new_identities += 1;
        // Cap enforcement never evicts the identity just founded.
        while self.identities.len() > self.cfg.gallery_cap {
            let Some(&(seen, victim)) = self.by_last_seen.iter().find(|&&(_, v)| v != id) else {
                break;
            };
            self.evict(seen, victim);
            self.stats.evicted_cap += 1;
        }
        LinkEvent::NewIdentity { identity: IdentityId(id), mac }
    }

    /// Marks an identity sighted at `at`, optionally binding a fresh
    /// MAC to it.
    fn touch(&mut self, id: u64, at: Nanos, fresh_mac: Option<MacAddr>) {
        let Some(record) = self.identities.get_mut(&id) else { return };
        self.by_last_seen.remove(&(record.last_seen, id));
        record.last_seen = record.last_seen.max(at);
        record.sightings += 1;
        if let Some(mac) = fresh_mac {
            record.macs.push(mac);
            self.bindings.insert(mac, id);
        }
        self.by_last_seen.insert((record.last_seen, id));
    }

    /// Merges a sighting's signatures into an identity's gallery rows
    /// ([`LinkerConfig::update_on_link`]).
    fn reinforce(&mut self, id: u64, signatures: &[(NetworkParameter, Signature)]) {
        let key = gallery_key(id);
        for (&(param, _), db) in self.params.iter().zip(&mut self.galleries) {
            let Some(sig) = signatures
                .iter()
                .find(|(p, s)| *p == param && s.observation_count() > 0)
                .map(|(_, s)| s)
            else {
                continue;
            };
            let merged = match db.get(&key) {
                Some(existing) => {
                    let mut merged = existing.clone();
                    merged.merge(sig);
                    merged
                }
                None => sig.clone(),
            };
            db.insert(key, merged).expect("gallery databases are never frozen");
        }
    }

    /// TTL sweep: evicts every identity whose last sighting is at least
    /// one TTL behind `at`. `O(log n)` per evicted identity, nothing
    /// when the TTL is off.
    fn evict_expired(&mut self, at: Nanos) {
        let Some(ttl) = self.cfg.identity_ttl else { return };
        while let Some(&(seen, id)) = self.by_last_seen.first() {
            if seen.saturating_add(ttl) > at {
                break;
            }
            self.evict(seen, id);
            self.stats.evicted_ttl += 1;
        }
    }

    /// Removes an identity: its LRU entry, its MAC bindings and its
    /// gallery rows.
    fn evict(&mut self, seen: Nanos, id: u64) {
        self.by_last_seen.remove(&(seen, id));
        let Some(record) = self.identities.remove(&id) else { return };
        for mac in &record.macs {
            self.bindings.remove(mac);
        }
        let key = gallery_key(id);
        for db in &mut self.galleries {
            db.remove(&key).expect("gallery databases are never frozen");
        }
    }
}

/// Inserts a candidate's per-parameter signatures into a map of
/// per-parameter reference databases — the conversion a
/// [`MultiEvent::FusedNewDevice`] consumer needs to enroll the newcomer
/// (track-then-enroll, or a linker-style gallery) without hand-rolling
/// it. Missing databases are created with `config`; empty signatures
/// and parameters already enrolled for this device are skipped (the
/// first sighting wins, matching the linker's founding semantics).
///
/// Returns how many `(parameter, signature)` pairs were inserted.
///
/// # Errors
///
/// [`CoreError::FrozenDatabase`] if a target database is frozen; prior
/// insertions stick.
pub fn enroll_signatures(
    dbs: &mut BTreeMap<NetworkParameter, ReferenceDb>,
    config: MatchConfig,
    device: MacAddr,
    signatures: &[(NetworkParameter, Signature)],
) -> Result<usize, CoreError> {
    let mut inserted = 0usize;
    for (param, sig) in signatures {
        if sig.observation_count() == 0 {
            continue;
        }
        let db = dbs.entry(*param).or_insert_with(|| ReferenceDb::with_config(config));
        if db.contains(&device) {
            continue;
        }
        db.insert(device, sig.clone())?;
        inserted += 1;
    }
    Ok(inserted)
}

impl MultiEvent {
    /// Enrolls a [`MultiEvent::FusedNewDevice`]'s candidate signatures
    /// into per-parameter reference databases via
    /// [`enroll_signatures`]; any other event variant is a no-op.
    /// Returns how many `(parameter, signature)` pairs were inserted.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrozenDatabase`] if a target database is frozen.
    pub fn enroll_into(
        &self,
        dbs: &mut BTreeMap<NetworkParameter, ReferenceDb>,
        config: MatchConfig,
    ) -> Result<usize, CoreError> {
        match self {
            MultiEvent::FusedNewDevice { device, signatures, .. } => {
                enroll_signatures(dbs, config, *device, signatures)
            }
            _ => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use wifiprint_ieee80211::FrameKind;

    const IAT: NetworkParameter = NetworkParameter::InterArrivalTime;

    fn single_cfg() -> LinkerConfig {
        LinkerConfig::default().with_spec(FusionSpec::single(IAT))
    }

    /// A deterministic signature peaked around `center` µs.
    fn sig_at(center: f64, obs: u64) -> Signature {
        let eval = EvalConfig::for_parameter(IAT);
        let mut sig = Signature::new();
        for i in 0..obs {
            let offset = match i % 4 {
                0 | 1 => 0.0,
                2 => -10.0,
                _ => 10.0,
            };
            sig.record(FrameKind::Data, (center + offset).clamp(1.0, 2400.0), &eval);
        }
        sig
    }

    fn sighting(center: f64) -> Vec<(NetworkParameter, Signature)> {
        vec![(IAT, sig_at(center, 60))]
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(RotationLinker::new(LinkerConfig::default().with_accept_threshold(1.5)).is_err());
        assert!(RotationLinker::new(LinkerConfig::default().with_ambiguity_margin(-0.1)).is_err());
        assert!(RotationLinker::new(LinkerConfig::default().with_gallery_cap(0)).is_err());
        let bad_topk = LinkerConfig { topk: 1, ..LinkerConfig::default() };
        assert!(RotationLinker::new(bad_topk).is_err());
        let empty_spec = LinkerConfig::default().with_spec(FusionSpec { parameters: vec![] });
        assert!(RotationLinker::new(empty_spec).is_err());
        assert!(RotationLinker::new(LinkerConfig::default()).is_ok());
    }

    #[test]
    fn mac_binding_is_the_identity_map() {
        let mut linker = RotationLinker::new(single_cfg()).unwrap();
        let mac = MacAddr::randomized(7);
        let first = linker.link(mac, Nanos::from_secs(1), &sighting(400.0));
        let LinkEvent::NewIdentity { identity, .. } = first else {
            panic!("fresh gallery founds: {first:?}");
        };
        // Same MAC again: linked by binding, confidence exactly 1.0,
        // no second identity, regardless of how different the evidence is.
        let second = linker.link(mac, Nanos::from_secs(2), &sighting(1900.0));
        assert_eq!(
            second,
            LinkEvent::Linked { identity, mac, confidence: 1.0 }
        );
        let stats = linker.stats();
        assert_eq!(stats.linked_by_mac, 1);
        assert_eq!(stats.new_identities, 1);
        assert_eq!(stats.identities_retained, 1);
        assert!(stats.conserves());
        assert_eq!(linker.identity_of(&mac), Some(identity));
        assert_eq!(linker.macs_of(identity), Some(&[mac][..]));
    }

    #[test]
    fn universal_macs_bypass_the_gallery_sweep() {
        let mut linker = RotationLinker::new(single_cfg()).unwrap();
        // Two universally-administered devices with identical behaviour:
        // without the gate the second would link to the first.
        let a = MacAddr::universal_from_index(1);
        let b = MacAddr::universal_from_index(2);
        let ea = linker.link(a, Nanos::from_secs(1), &sighting(700.0));
        let eb = linker.link(b, Nanos::from_secs(2), &sighting(700.0));
        assert!(matches!(ea, LinkEvent::NewIdentity { .. }));
        assert!(matches!(eb, LinkEvent::NewIdentity { .. }));
        assert_ne!(ea.identity(), eb.identity());
        let stats = linker.stats();
        assert_eq!(stats.gate_bypassed, 2);
        assert_eq!(stats.shards_swept + stats.shards_pruned, 0, "no sweep ran");

        // Gate off: the identically-behaving twin *does* link.
        let mut gateless =
            RotationLinker::new(single_cfg().with_gate_universal(false)).unwrap();
        let ea = gateless.link(a, Nanos::from_secs(1), &sighting(700.0));
        let eb = gateless.link(b, Nanos::from_secs(2), &sighting(700.0));
        assert!(matches!(eb, LinkEvent::Linked { .. }));
        assert_eq!(eb.identity(), ea.identity());
    }

    #[test]
    fn gallery_links_rotated_macs_and_separates_strangers() {
        let mut linker = RotationLinker::new(single_cfg()).unwrap();
        let e1 = linker.link(MacAddr::randomized(1), Nanos::from_secs(1), &sighting(500.0));
        let founded = e1.identity().expect("founds");
        // A fresh randomized MAC with the same behaviour links back...
        let e2 = linker.link(MacAddr::randomized(2), Nanos::from_secs(300), &sighting(500.0));
        let LinkEvent::Linked { identity, confidence, mac } = e2 else {
            panic!("same behaviour must link: {e2:?}");
        };
        assert_eq!(identity, founded);
        assert!(confidence >= linker.config().accept_threshold);
        assert_eq!(linker.macs_of(founded).unwrap().len(), 2);
        assert_eq!(linker.identity_of(&mac), Some(founded));
        // ...while a distinct behaviour founds its own identity.
        let e3 = linker.link(MacAddr::randomized(3), Nanos::from_secs(600), &sighting(1800.0));
        assert!(matches!(e3, LinkEvent::NewIdentity { .. }));
        assert_ne!(e3.identity(), Some(founded));
        let stats = linker.stats();
        assert_eq!(stats.linked_by_gallery, 1);
        assert_eq!(stats.new_identities, 2);
        assert!(stats.conserves());
    }

    #[test]
    fn near_ties_abstain_as_ambiguous() {
        // An ambiguity margin no lead can clear turns every would-be
        // link into an abstention — the degenerate case that pins the
        // Ambiguous contract: no binding, counters conserve, the same
        // MAC retries on its next sighting.
        let mut strict = RotationLinker::new(
            single_cfg().with_gate_universal(false).with_ambiguity_margin(2.0),
        )
        .unwrap();
        strict.link(MacAddr::randomized(31), Nanos::from_secs(1), &sighting(900.0));
        strict.link(MacAddr::randomized(32), Nanos::from_secs(2), &sighting(1700.0));
        let e = strict.link(MacAddr::randomized(33), Nanos::from_secs(3), &sighting(900.0));
        let LinkEvent::Ambiguous { contenders, mac } = e else {
            panic!("margin 2.0 can never be cleared: {e:?}");
        };
        assert!(!contenders.is_empty());
        assert!(contenders[0].1 >= strict.config().accept_threshold);
        // Ambiguous leaves the MAC unbound: the same MAC retries later
        // (and an unchanged margin abstains again, conserving counters).
        assert_eq!(strict.identity_of(&mac), None);
        let again = strict.link(mac, Nanos::from_secs(4), &sighting(900.0));
        assert!(matches!(again, LinkEvent::Ambiguous { .. }));
        assert_eq!(strict.stats().ambiguous, 2);
        assert!(strict.stats().conserves());
    }

    #[test]
    fn ttl_and_cap_evict_identities_with_their_bindings() {
        let cfg = single_cfg()
            .with_identity_ttl(Some(Nanos::from_secs(100)))
            .with_gallery_cap(2);
        let mut linker = RotationLinker::new(cfg).unwrap();
        let m1 = MacAddr::randomized(1);
        linker.link(m1, Nanos::from_secs(1), &sighting(300.0));
        linker.link(MacAddr::randomized(2), Nanos::from_secs(60), &sighting(1200.0));
        // TTL: at t=150 the first identity (last seen t=1) ages out;
        // the second (last seen t=60) survives.
        linker.link(MacAddr::randomized(3), Nanos::from_secs(150), &sighting(2100.0));
        assert_eq!(linker.identity_of(&m1), None, "TTL evicted the binding");
        let stats = linker.stats();
        assert_eq!(stats.evicted_ttl, 1);
        assert_eq!(stats.identities_retained, 2);
        // Cap: a fourth identity inside the TTL evicts the LRU one.
        linker.link(MacAddr::randomized(4), Nanos::from_secs(151), &sighting(600.0));
        let stats = linker.stats();
        assert_eq!(stats.evicted_cap, 1);
        assert_eq!(stats.identities_retained, 2);
        assert_eq!(stats.gallery_rows, 2, "evicted gallery rows are gone");
        assert!(stats.conserves());
    }

    #[test]
    fn sweeps_report_prune_stats() {
        // A gallery of identities clustered at well-separated dominant
        // bins: a probe near one cluster must not sweep every shard.
        // The universal-MAC gate enrolls the population without
        // sweeping, so the prune counters isolate the probe sweeps.
        let mut linker = RotationLinker::new(single_cfg()).unwrap();
        for i in 0..160u64 {
            let center = 150.0 * ((i % 16) as f64) + 10.0;
            linker.link(MacAddr::universal_from_index(i + 1), Nanos::from_secs(i), &sighting(center));
        }
        assert_eq!(linker.stats().shards_swept + linker.stats().shards_pruned, 0);
        for j in 0..4u64 {
            linker.link(MacAddr::randomized(j), Nanos::from_secs(200 + j), &sighting(310.0));
        }
        let stats = linker.stats();
        assert!(stats.shards_swept > 0, "gallery sweeps ran: {stats:?}");
        assert!(
            stats.shards_pruned > 0,
            "pruned match_topk_tile must prune on clustered galleries: {stats:?}"
        );
        assert!(stats.pruned_fraction() > 0.0);
        assert!(stats.conserves());
    }

    #[test]
    fn enroll_signatures_round_trips() {
        let sigs = vec![
            (NetworkParameter::FrameSize, sig_at(400.0, 30)),
            (IAT, sig_at(900.0, 40)),
            (NetworkParameter::TransmissionRate, Signature::new()), // empty: skipped
        ];
        let device = MacAddr::randomized(9);
        let mut dbs: BTreeMap<NetworkParameter, ReferenceDb> = BTreeMap::new();
        let inserted =
            enroll_signatures(&mut dbs, MatchConfig::default(), device, &sigs).unwrap();
        assert_eq!(inserted, 2);
        assert_eq!(dbs.len(), 2);
        // Round trip: the enrolled rows are exactly the candidate
        // signatures.
        assert_eq!(dbs[&NetworkParameter::FrameSize].get(&device), Some(&sigs[0].1));
        assert_eq!(dbs[&IAT].get(&device), Some(&sigs[1].1));
        // Re-enrolling the same device is a no-op (first sighting wins).
        let again = enroll_signatures(&mut dbs, MatchConfig::default(), device, &sigs).unwrap();
        assert_eq!(again, 0);
        // The MultiEvent adapter drives the same path.
        let event = MultiEvent::FusedNewDevice {
            window: 3,
            device: MacAddr::randomized(10),
            signatures: vec![(IAT, sig_at(500.0, 25))],
            scores: Vec::new(),
            fused: None,
            degraded: Vec::new(),
        };
        assert_eq!(event.enroll_into(&mut dbs, MatchConfig::default()).unwrap(), 1);
        assert_eq!(dbs[&IAT].len(), 2);
        let closed = MultiEvent::WindowClosed { window: 3, candidates: 0, known: 0, unknown: 0 };
        assert_eq!(closed.enroll_into(&mut dbs, MatchConfig::default()).unwrap(), 0);
    }

    #[test]
    fn quorum_gates_starved_sightings() {
        let spec = FusionSpec::equal_weights([IAT, NetworkParameter::FrameSize]);
        let cfg = LinkerConfig::default().with_spec(spec).with_link_quorum(2);
        let mut linker = RotationLinker::new(cfg).unwrap();
        let full = vec![(IAT, sig_at(800.0, 40)), (NetworkParameter::FrameSize, sig_at(300.0, 40))];
        linker.link(MacAddr::randomized(1), Nanos::from_secs(1), &full);
        // Only one of two parameters scored: below quorum, founds.
        let starved = vec![(IAT, sig_at(800.0, 40))];
        let e = linker.link(MacAddr::randomized(2), Nanos::from_secs(2), &starved);
        assert!(matches!(e, LinkEvent::NewIdentity { .. }), "{e:?}");
        // Full evidence links.
        let e = linker.link(MacAddr::randomized(3), Nanos::from_secs(3), &full);
        assert!(matches!(e, LinkEvent::Linked { .. }), "{e:?}");
    }

    #[test]
    fn update_on_link_merges_gallery_evidence() {
        let cfg = single_cfg().with_update_on_link(true);
        let mut linker = RotationLinker::new(cfg).unwrap();
        let e = linker.link(MacAddr::randomized(1), Nanos::from_secs(1), &sighting(650.0));
        let id = e.identity().unwrap();
        let before = linker.galleries[0].get(&gallery_key(id.0)).unwrap().observation_count();
        linker.link(MacAddr::randomized(2), Nanos::from_secs(2), &sighting(650.0));
        let after = linker.galleries[0].get(&gallery_key(id.0)).unwrap().observation_count();
        assert!(after > before, "linked evidence merged into the gallery row");
    }

    #[test]
    fn gallery_key_round_trips() {
        for id in [0u64, 1, 255, 1 << 20, (1 << 40) - 1] {
            assert_eq!(key_id(gallery_key(id)), id);
        }
    }
}
