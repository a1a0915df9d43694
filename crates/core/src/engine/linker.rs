//! MAC-randomization linking: chaining rotated addresses back to one
//! device identity.
//!
//! The paper's §VII headline is that passive fingerprints survive MAC
//! address changes — the engine already hands every stranger's candidate
//! signatures over in [`MultiEvent::FusedNewDevice`] events, and this
//! module is the consumer that closes the loop. A
//! [`RotationLinker`] maintains a **gallery** of retained identities —
//! one internal [`ReferenceDb`] per fused parameter, so the hot path
//! reuses the store's own sweeps — and decides, per sighting of an
//! unknown MAC, whether the behaviour behind it is an identity it
//! already knows:
//!
//! * **MAC binding fast path** — an address the linker has already bound
//!   re-links in one map lookup, no gallery sweep;
//! * **universally-administered pre-gate** — a MAC with the U/L bit
//!   *clear* is burned-in and cannot rotate
//!   ([`MacAddr::is_locally_administered`]), so it founds (or re-links)
//!   its own identity without paying for a sweep; only
//!   randomized-looking addresses reach the gallery;
//! * **exact fused gallery sweep** — the retained identities that can
//!   still decide the sighting are ranked by their [`FusionSpec`]
//!   weighted average `Σ w·sim / Σ w` over the parameters the sighting
//!   has a qualifying signature for (an identity with no gallery row for
//!   a parameter scores 0 there), with the engine's own fusion
//!   arithmetic (same seed, spec order and per-term division). Only an
//!   identity scoring at least `accept_threshold − ambiguity_margin` can
//!   change a decision, so a multi-parameter spec runs a threshold
//!   query: one dense [`ReferenceDb::match_tile`] on the first such
//!   parameter, then, per later parameter, random access
//!   (`ReferenceDb::score_row`) for each identity whose partial score
//!   plus the most the remaining parameters can add still reaches that
//!   cut (a dense sweep again while many survive), then takes the best
//!   few survivors in one pass. A one-parameter spec's fused score is
//!   its one term, so it keeps the pruned
//!   [`ReferenceDb::match_topk_tile`] over its gallery's rows.
//!   The fused best either links ([`LinkEvent::Linked`], at or above
//!   [`LinkerConfig::accept_threshold`] with a clear
//!   [`LinkerConfig::ambiguity_margin`] over the runner-up), stays
//!   undecided ([`LinkEvent::Ambiguous`], above threshold but inside the
//!   margin), or founds a fresh identity ([`LinkEvent::NewIdentity`]).
//!
//! Each gallery starts as one flat shard. A dense sweep scores every row
//! in any layout and never changes it, so multi-parameter galleries stay
//! flat. The pruned sweep grows a one-parameter gallery's shard count
//! from its row count as it fills (see [`ReferenceDb::match_topk_tile`]):
//! a small gallery is cheapest to sweep whole, a large one needs shards
//! for the bound to prune. Sweeps rank the same under any layout, so
//! growth changes no decision.
//!
//! Retained identities are bounded by a hard gallery cap
//! (least-recently-seen eviction), and every decision and
//! sweep cost is counted into a [`LinkerStats`] snapshot — including the
//! shard accounting from [`MatchScratch::prune_stats`], so the linking
//! cost is visible right next to its accuracy.
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
use crate::fusion::{add_term, floored_sum, fused_seed, term, FusionSpec};
use crate::matching::{MatchConfig, MatchScratch, PruneStats, ReferenceDb, PRUNE_BOUND_SLACK};
use crate::params::NetworkParameter;
use crate::signature::Signature;
use crate::similarity::SimilarityMeasure;

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
    /// A multi-parameter spec scores the retained identities by their
    /// exact fused score as a threshold query: one dense sweep over every
    /// identity for the first parameter, then only the identities that
    /// can still reach `accept_threshold − ambiguity_margin`, so the cost
    /// past the first parameter follows the survivors, not the gallery
    /// (a margin at or above the threshold prunes nothing, and every
    /// parameter is swept densely). A one-parameter spec runs the pruned
    /// sweep.
    pub spec: FusionSpec,
    /// Minimum fused gallery score to link a sighting to a retained
    /// identity (cosine-weighted, in `[0, 1]`).
    pub accept_threshold: f64,
    /// Minimum lead of the best identity over the runner-up: a best
    /// score above [`LinkerConfig::accept_threshold`] whose lead is
    /// smaller stays [`LinkEvent::Ambiguous`] instead of linking —
    /// trading recall for precision exactly where false merges live.
    pub ambiguity_margin: f64,
    /// Hard cap on retained identities; exceeding it evicts the
    /// least-recently-seen identity (its gallery rows and MAC bindings
    /// go with it).
    pub gallery_cap: usize,
    /// When `true`, a gallery link merges the sighting's candidate
    /// signatures into the linked identity's gallery rows (evidence
    /// accumulation). Default `false`: galleries stay exactly the
    /// founding observation, which keeps decisions independent of
    /// sighting order.
    pub update_on_link: bool,
    /// Row precision of the per-parameter gallery databases. The
    /// shard count is not an option: each gallery starts flat (one
    /// shard, nothing to prune). Only a one-parameter spec's gallery
    /// grows shards: its pruned sweep doubles the shard count from the
    /// row count — one shard below 256 rows, two from 256, four from 512,
    /// up to 64 from 8 192 — and evictions never shrink it (see
    /// [`ReferenceDb::match_topk_tile`]). Sharding is what makes the
    /// pruned sweep prune on a large gallery; on a small one, visiting
    /// many near-empty shards costs more than the bound saves. A
    /// multi-parameter spec's dense sweeps score every row in any layout,
    /// so its galleries stay flat. The sweeps rank the same under any
    /// layout, so growth changes no decision.
    pub match_config: MatchConfig,
}

impl Default for LinkerConfig {
    /// All five parameters equally weighted, 0.90 accept threshold,
    /// 0.01 ambiguity margin, 200 000-identity cap, `f32` gallery rows.
    fn default() -> Self {
        LinkerConfig {
            spec: FusionSpec::all_equal(),
            accept_threshold: 0.90,
            ambiguity_margin: 0.01,
            gallery_cap: 200_000,
            update_on_link: false,
            match_config: MatchConfig::default(),
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

    /// Returns a copy with a different gallery cap.
    #[must_use]
    pub fn with_gallery_cap(mut self, cap: usize) -> Self {
        self.gallery_cap = cap;
        self
    }

    /// Returns a copy with gallery evidence accumulation on or off.
    #[must_use]
    pub fn with_update_on_link(mut self, update: bool) -> Self {
        self.update_on_link = update;
        self
    }

    /// Returns a copy with a different gallery row precision.
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
/// eviction and gallery-sweep cost since construction.
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
    /// universally administered (a burned-in address cannot rotate).
    pub gate_bypassed: u64,
    /// Identities evicted by the gallery cap.
    pub evicted_cap: u64,
    /// Retained identities right now.
    pub identities_retained: usize,
    /// Gallery rows resident right now (sum over the per-parameter
    /// databases).
    pub gallery_rows: usize,
    /// Gallery shards actually scored across all sweeps
    /// ([`MatchScratch::prune_stats`], accumulated): every occupied shard
    /// of a multi-parameter spec's dense sweeps, and the shards a
    /// one-parameter spec's pruned sweeps did not skip. Only dense and
    /// pruned sweeps count: a multi-parameter spec's random access to the
    /// survivors of its threshold query scores rows, not shards.
    pub shards_swept: u64,
    /// Gallery shards a one-parameter spec's pruned sweeps skipped by the
    /// admissible score bound (a dense sweep skips none).
    pub shards_pruned: u64,
}

impl LinkerStats {
    /// Fraction of gallery shards the sweeps skipped: 0 for a
    /// multi-parameter spec, whose sweeps are dense.
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
    /// Every MAC bound to this identity, binding order (first is the
    /// founding address). Needed to clear the bindings on eviction.
    macs: Vec<MacAddr>,
}

/// The streaming MAC-randomization linker (see the [module docs](self)).
#[derive(Debug)]
pub struct RotationLinker {
    cfg: LinkerConfig,
    /// `(parameter, weight)` in spec order, denormalised from the spec.
    params: Vec<(NetworkParameter, f64)>,
    /// One gallery database per spec parameter (same order).
    galleries: Vec<ReferenceDb>,
    identities: BTreeMap<u64, IdentityRecord>,
    /// The retained identities' gallery keys, ascending (in step with
    /// `identities`): the identity universe a dense sweep fuses over.
    identity_keys: Vec<MacAddr>,
    /// Exact MAC → identity bindings (the fast path).
    bindings: BTreeMap<MacAddr, u64>,
    /// Least-recently-seen index over the identities, for cap eviction
    /// in `O(log n)`.
    by_last_seen: BTreeSet<(Nanos, u64)>,
    next_id: u64,
    scratch: MatchScratch,
    /// Reused fused scores, one per entry of `identity_keys`.
    fused: Vec<f64>,
    /// Reused indices into `identity_keys`, ascending: the identities a
    /// sweep still scores.
    survivors: Vec<usize>,
    stats: LinkerStats,
}

/// Identities a sweep ranks (the best `TOPK` by fused score).
const TOPK: usize = 4;

/// Share of a gallery's rows above which a threshold sweep scores a
/// parameter with one dense sweep instead of random access per survivor.
///
/// Measured on e2ebench's `crowd_rotation` (seed 1, 277-row galleries,
/// 2 vCPUs), timing both routes on every later parameter of every
/// sighting: a dense sweep costs about 416 ns + 5.4 ns per row, random
/// access about 380 ns + 24.8 ns per survivor, so they break even near
/// 0.22 of the rows.
const DENSE_SHARE: f64 = 0.2;
// The ambiguity margin compares the best identity with a runner-up.
const _: () = assert!(TOPK >= 2);

/// The gallery databases key identities by a synthetic address derived
/// from the identity number (identities outlive any particular MAC).
fn gallery_key(id: u64) -> MacAddr {
    MacAddr::from_index(id)
}

/// The sighting's signature for `param`, if it has observations: the
/// only signatures a sweep scores and a gallery row takes.
fn signature_for(
    signatures: &[(NetworkParameter, Signature)],
    param: NetworkParameter,
) -> Option<&Signature> {
    signatures.iter().find(|(p, s)| *p == param && s.observation_count() > 0).map(|(_, s)| s)
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
    /// ambiguity margin or a zero gallery cap.
    pub fn new(cfg: LinkerConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let params: Vec<(NetworkParameter, f64)> = cfg.spec.parameters.clone();
        let galleries = params.iter().map(|_| ReferenceDb::with_config(cfg.match_config)).collect();
        Ok(RotationLinker {
            params,
            galleries,
            identities: BTreeMap::new(),
            identity_keys: Vec::new(),
            bindings: BTreeMap::new(),
            by_last_seen: BTreeSet::new(),
            next_id: 0,
            scratch: MatchScratch::new(),
            fused: Vec::new(),
            survivors: Vec::new(),
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
        if mac.is_universally_administered() {
            self.stats.gate_bypassed += 1;
            return self.found(mac, at, signatures);
        }

        let ranked = self.sweep(signatures);
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
                // Above threshold but inside the margin: abstain. The
                // MAC stays unbound so a later, better-evidenced
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

    /// The MAC addresses bound to an identity, binding order (first is
    /// the founding address). `None` for an unknown or evicted identity.
    pub fn macs_of(&self, identity: IdentityId) -> Option<&[MacAddr]> {
        self.identities.get(&identity.0).map(|r| r.macs.as_slice())
    }

    /// The counter snapshot: decisions, evictions, resident gallery
    /// size and the accumulated sweep accounting.
    pub fn stats(&self) -> LinkerStats {
        let mut stats = self.stats;
        stats.identities_retained = self.identities.len();
        stats.gallery_rows = self.galleries.iter().map(ReferenceDb::len).sum();
        stats
    }

    /// Ranks the retained identities that can still decide the sighting
    /// by their exact fused score: per spec parameter with a qualifying
    /// signature, `w · sim / Σw` in spec order, where `Σw` sums those
    /// parameters' weights and an identity without a row in a parameter's
    /// gallery scores 0 there. Returns the best [`TOPK`] `(identity,
    /// fused score)` pairs by descending score, ties toward the lower
    /// identity, among those scoring at least the cut `accept_threshold −
    /// ambiguity_margin − PRUNE_BOUND_SLACK`; empty unless at least one
    /// parameter with a nonzero weight was scored.
    ///
    /// The cut changes no decision of [`RotationLinker::link`]: a dropped
    /// identity scores below `accept_threshold − ambiguity_margin`, so
    /// either the best is below the threshold too, or it leads the dropped
    /// runner-up by more than the margin — and an ambiguous sighting
    /// lists only contenders at or above the threshold.
    ///
    /// A multi-parameter spec runs a threshold query. The first present
    /// parameter is one dense sweep over every identity; after each
    /// parameter an identity survives only while its partial score plus
    /// the most the parameters still to come can add (`w / Σw` each)
    /// reaches the cut. A later parameter scores each survivor by random
    /// access ([`ReferenceDb::score_row`]), or sweeps densely when more
    /// than [`DENSE_SHARE`] of its gallery's rows survive. A survivor gets
    /// every term in spec order from the seed, through the fusion's own
    /// arithmetic, so its score is bit for bit the brute-force one.
    /// A one-parameter spec's fused score is its one term, so its pruned
    /// sweep ranks the identities its gallery holds (one without a row
    /// would score 0 and is not listed).
    fn sweep(&mut self, signatures: &[(NetworkParameter, Signature)]) -> Vec<(u64, f64)> {
        let RotationLinker {
            cfg, params, galleries, identity_keys, scratch, fused, survivors, stats, ..
        } = self;
        // `(gallery index, signature, weight)` per parameter with a qualifying
        // signature, in spec order.
        let present = || {
            params
                .iter()
                .enumerate()
                .filter_map(|(i, &(p, w))| Some((i, signature_for(signatures, p)?, w)))
        };
        if !present().any(|(.., w)| w > 0.0) {
            return Vec::new();
        }
        let weight_sum = floored_sum(present().map(|(.., w)| w));
        let cut = cfg.accept_threshold - cfg.ambiguity_margin - PRUNE_BOUND_SLACK;
        let mut count = |prune: PruneStats| {
            stats.shards_swept += prune.swept_shards as u64;
            stats.shards_pruned += prune.pruned_shards as u64;
        };
        if params.len() == 1 {
            let (_, sig, w) = present().next().expect("the one parameter is present");
            let tops = galleries[0].match_topk_tile(std::slice::from_ref(sig), TOPK, scratch);
            count(scratch.prune_stats());
            return tops
                .into_iter()
                .flatten()
                .map(|(key, sim)| (key_id(key), fused_seed() + term(w, sim, weight_sum)))
                .filter(|&(_, score)| score >= cut)
                .collect();
        }
        let n = identity_keys.len();
        fused.clear();
        fused.resize(n, fused_seed());
        survivors.clear();
        survivors.extend(0..n);
        for (step, (i, sig, w)) in present().enumerate() {
            let db = &galleries[i];
            // Sorted access while more than `DENSE_SHARE` of the gallery's
            // rows survive (the first parameter, and every one when the cut
            // prunes nothing): one dense sweep. Otherwise random access per
            // survivor; both give the survivors the same bits.
            if survivors.len() as f64 > DENSE_SHARE * db.len() as f64 {
                let tile = db.match_tile(std::slice::from_ref(sig), SimilarityMeasure::Cosine, scratch);
                let view = tile.candidate(0);
                if view.devices().len() == n {
                    // Every gallery key is a retained identity's, so a
                    // gallery as long as the universe is the universe.
                    add_term(fused, w, weight_sum, view.scores.iter().copied());
                } else {
                    let mut rows = view.similarities().peekable();
                    let aligned = identity_keys.iter().map(|key| {
                        rows.next_if(|(device, _)| device == key).map_or(0.0, |(_, sim)| sim)
                    });
                    add_term(fused, w, weight_sum, aligned);
                    debug_assert!(rows.next().is_none(), "gallery keys are retained identities");
                }
                count(scratch.prune_stats());
            } else {
                db.pack_candidates(std::slice::from_ref(sig), scratch);
                let table = db.device_table();
                for &ident in survivors.iter() {
                    let row = if table.len() == n {
                        Ok(ident)
                    } else {
                        table.binary_search(&identity_keys[ident])
                    };
                    let sim = row.map_or(0.0, |row| db.score_row(row, scratch));
                    fused[ident] += term(w, sim, weight_sum);
                }
            }
            // The most the parameters still to come can add.
            let rest: f64 = present().skip(step + 1).map(|(.., w)| term(w, 1.0, weight_sum)).sum();
            if cut > 0.0 {
                survivors.retain(|&ident| fused[ident] + rest >= cut);
            }
            if survivors.is_empty() {
                break;
            }
        }
        // One pass over the survivors, ascending identity, into a fixed
        // best-first array whose empty entries score -∞: a later identity
        // outranks a kept one only with a strictly higher score, so most
        // identities cost one comparison with the last entry.
        let mut top = [(0usize, f64::NEG_INFINITY); TOPK];
        let mut kept = 0;
        for &ident in survivors.iter() {
            let score = fused[ident];
            if score <= top[TOPK - 1].1 {
                continue;
            }
            let mut at = TOPK - 1;
            while at > 0 && top[at - 1].1 < score {
                top[at] = top[at - 1];
                at -= 1;
            }
            top[at] = (ident, score);
            kept = TOPK.min(kept + 1);
        }
        top[..kept].iter().map(|&(ident, score)| (key_id(identity_keys[ident]), score)).collect()
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
            let Some(sig) = signature_for(signatures, param) else { continue };
            db.insert(key, sig.clone()).expect("gallery databases are never frozen");
        }
        self.identities.insert(id, IdentityRecord { last_seen: at, macs: vec![mac] });
        // Identities are numbered in founding order, so the newest key
        // is the largest.
        debug_assert!(self.identity_keys.last().is_none_or(|&last| last < key));
        self.identity_keys.push(key);
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
            let Some(sig) = signature_for(signatures, param) else { continue };
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

    /// Removes an identity: its LRU entry, its MAC bindings and its
    /// gallery rows.
    fn evict(&mut self, seen: Nanos, id: u64) {
        self.by_last_seen.remove(&(seen, id));
        let Some(record) = self.identities.remove(&id) else { return };
        for mac in &record.macs {
            self.bindings.remove(mac);
        }
        let key = gallery_key(id);
        if let Ok(at) = self.identity_keys.binary_search(&key) {
            self.identity_keys.remove(at);
        }
        for db in &mut self.galleries {
            db.remove(&key).expect("gallery databases are never frozen");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::fusion::fuse_outcomes;
    use crate::matching::MatchOutcome;
    use proptest::prelude::*;
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
        let mut strict =
            RotationLinker::new(single_cfg().with_ambiguity_margin(2.0)).unwrap();
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
    fn cap_evicts_identities_with_their_bindings() {
        let mut linker = RotationLinker::new(single_cfg().with_gallery_cap(2)).unwrap();
        let m1 = MacAddr::randomized(1);
        linker.link(m1, Nanos::from_secs(1), &sighting(300.0));
        linker.link(MacAddr::randomized(2), Nanos::from_secs(60), &sighting(1200.0));
        // Cap: a third identity evicts the least-recently-seen one (the
        // first, last seen t=1) together with its MAC binding.
        linker.link(MacAddr::randomized(3), Nanos::from_secs(150), &sighting(2100.0));
        assert_eq!(linker.identity_of(&m1), None, "cap evicted the binding");
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
        // sweeping, so the prune counters isolate the probe sweeps. 640
        // rows grow the gallery past two splits (1 → 2 → 4 shards)
        // before the first probe sweeps it.
        let mut linker = RotationLinker::new(single_cfg()).unwrap();
        for i in 0..640u64 {
            let center = 150.0 * ((i % 16) as f64) + 10.0;
            linker.link(MacAddr::universal_from_index(i + 1), Nanos::from_secs(i), &sighting(center));
        }
        assert_eq!(linker.stats().shards_swept + linker.stats().shards_pruned, 0);
        assert_eq!(linker.galleries[0].shard_count(), 1, "growth waits for a sweep");
        for j in 0..4u64 {
            linker.link(MacAddr::randomized(j), Nanos::from_secs(700 + j), &sighting(310.0));
        }
        assert_eq!(linker.galleries[0].shard_count(), 4);
        let stats = linker.stats();
        assert!(stats.shards_swept > 0, "gallery sweeps ran: {stats:?}");
        assert!(
            stats.shards_pruned > 0,
            "pruned match_topk_tile must prune on clustered galleries: {stats:?}"
        );
        assert!(stats.pruned_fraction() > 0.0);
        assert!(stats.conserves());
    }

    /// A data-frame signature for `param`: `frames` observations at each
    /// of `values`.
    fn sig_of(param: NetworkParameter, values: &[f64], frames: u64) -> Signature {
        let eval = EvalConfig::for_parameter(param);
        let mut sig = Signature::new();
        for &value in values {
            for _ in 0..frames {
                sig.record(FrameKind::Data, value, &eval);
            }
        }
        sig
    }

    #[test]
    fn exact_fused_best_can_lie_outside_every_parameter_top4() {
        // Two equally weighted parameters. Four decoys match the probe
        // exactly on frame size and not at all on inter-arrival time
        // (fused 0.5), four the other way round (fused 0.5). The device
        // behind the probe half-matches on both (cosine 0.707 each, fused
        // 0.707), so it is fifth in each parameter's own ranking, yet its
        // fused score is the best by a clear margin.
        const FS: NetworkParameter = NetworkParameter::FrameSize;
        let cfg = LinkerConfig::default()
            .with_spec(FusionSpec::equal_weights([FS, IAT]))
            .with_accept_threshold(0.6)
            .with_ambiguity_margin(0.05);
        let mut linker = RotationLinker::new(cfg).unwrap();
        let both = |fs: &[f64], iat: &[f64]| {
            vec![(FS, sig_of(FS, fs, 30)), (IAT, sig_of(IAT, iat, 30))]
        };
        let universal = MacAddr::universal_from_index;
        let half = [400.0, 1200.0];
        let founded = linker.link(universal(1), Nanos::from_secs(1), &both(&half, &half));
        let device = founded.identity().expect("founds");
        for i in 0..4 {
            let at = Nanos::from_secs(2 + i);
            linker.link(universal(10 + i), at, &both(&[400.0], &[2000.0]));
            linker.link(universal(20 + i), at, &both(&[2000.0], &[400.0]));
        }
        let probe =
            linker.link(MacAddr::randomized(1), Nanos::from_secs(9), &both(&[400.0], &[400.0]));
        let LinkEvent::Linked { identity, confidence, .. } = probe else {
            panic!("the exact fused best links: {probe:?}");
        };
        assert_eq!(identity, device);
        assert!((confidence - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6, "{confidence}");
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

    /// A growing-gallery stream: `devices` burned-in devices enrol in turn
    /// (founding without a sweep), and after every `every`-th enrolment a
    /// randomized re-sighting of an enrolled device sweeps the gallery, so
    /// the gallery is swept as it crosses each growth step.
    fn growth_stream(devices: u64, every: u64) -> Vec<(MacAddr, Nanos, u64, u64)> {
        let mut out = Vec::new();
        for device in 0..devices {
            let tick = Nanos::from_millis(2 * device);
            out.push((MacAddr::universal_from_index(device + 1), tick, device, 0));
            if device % every == every - 1 {
                let target = (device * 7) % (device + 1);
                let mac = MacAddr::randomized(device.wrapping_mul(0x9E37_79B9) + 1);
                out.push((mac, tick + Nanos::from_millis(1), target, 1 + device % 3));
            }
        }
        out
    }

    /// The counters a decision stream determines (the shard counters
    /// depend on the layout by design).
    fn decisions(s: &LinkerStats) -> [u64; 10] {
        [
            s.sightings,
            s.linked,
            s.linked_by_mac,
            s.linked_by_gallery,
            s.new_identities,
            s.ambiguous,
            s.gate_bypassed,
            s.evicted_cap,
            s.identities_retained as u64,
            s.gallery_rows as u64,
        ]
    }

    /// The 802.11b/g rates, the categorical bins of the rate parameter.
    const RATES: [f64; 8] = [1.0, 2.0, 5.5, 6.0, 9.0, 11.0, 12.0, 18.0];

    /// Device `device`'s behaviour for `param` on sighting `round`:
    /// behaviour classes (devices in one class score alike, so ranks tie)
    /// spread over three adjacent bins that shift with the round, two
    /// frame kinds. The rate has five overlapping classes, as few rates
    /// are in use; every other parameter has ten disjoint ones, so a
    /// threshold sweep prunes most identities after such a parameter.
    fn behaviour(param: NetworkParameter, device: u64, round: u64) -> Signature {
        let eval = EvalConfig::for_parameter(param);
        let mut sig = Signature::new();
        for i in 0..24u64 {
            let shift = (i + round) % 3;
            let value = match param {
                NetworkParameter::TransmissionRate => RATES[(device % 5 + shift) as usize],
                _ => 100.0 + 40.0 * (3 * (device % 10) + shift) as f64,
            };
            let kind =
                if (i + device).is_multiple_of(5) { FrameKind::NullFunction } else { FrameKind::Data };
            sig.record(kind, value, &eval);
        }
        sig
    }

    /// The brute-force fused ranking: `fuse_outcomes` over the present
    /// sub-spec of each gallery's dense view (an empty outcome for an
    /// empty gallery), over every retained identity (a one-parameter
    /// spec: over its gallery's identities), sorted in full by descending
    /// score then ascending identity and truncated to [`TOPK`]. Empty
    /// unless a present parameter has a nonzero weight.
    fn brute_force_ranking(
        linker: &RotationLinker,
        signatures: &[(NetworkParameter, Signature)],
    ) -> Vec<(u64, f64)> {
        let present: Vec<(usize, &Signature)> = linker
            .params
            .iter()
            .enumerate()
            .filter_map(|(i, &(p, _))| Some((i, signature_for(signatures, p)?)))
            .collect();
        if present.iter().all(|&(i, _)| linker.params[i].1 == 0.0) {
            return Vec::new();
        }
        let mut scratch = MatchScratch::new();
        let outcomes: Vec<MatchOutcome> = present
            .iter()
            .map(|&(i, sig)| {
                let db = &linker.galleries[i];
                if db.is_empty() {
                    return MatchOutcome::default();
                }
                let candidate = std::slice::from_ref(sig);
                db.match_tile(candidate, SimilarityMeasure::Cosine, &mut scratch)
                    .candidate(0)
                    .to_outcome()
            })
            .collect();
        let sub_spec =
            FusionSpec { parameters: present.iter().map(|&(i, _)| linker.params[i]).collect() };
        let universe: Vec<MacAddr> = if linker.params.len() == 1 {
            outcomes[0].devices().to_vec()
        } else {
            linker.identities.keys().map(|&id| gallery_key(id)).collect()
        };
        let fused = fuse_outcomes(&sub_spec, &outcomes, &universe);
        let mut ranked: Vec<(u64, f64)> =
            fused.similarities().map(|(key, score)| (key_id(key), score)).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores").then(a.0.cmp(&b.0)));
        ranked.truncate(TOPK);
        ranked
    }

    /// The decision rule of [`RotationLinker::link`] applied to the full
    /// brute-force ranking, from the linker's state before the sighting:
    /// a bound MAC re-links, a universal MAC founds, and otherwise the
    /// best of [`brute_force_ranking`] links at or above the threshold
    /// with the margin over the runner-up (0 without one), abstains with
    /// the contenders at or above the threshold inside the margin, or
    /// founds below the threshold.
    fn full_ranking_decision(
        linker: &RotationLinker,
        mac: MacAddr,
        signatures: &[(NetworkParameter, Signature)],
    ) -> LinkEvent {
        if let Some(&id) = linker.bindings.get(&mac) {
            return LinkEvent::Linked { identity: IdentityId(id), mac, confidence: 1.0 };
        }
        let fresh = LinkEvent::NewIdentity { identity: IdentityId(linker.next_id), mac };
        if mac.is_universally_administered() {
            return fresh;
        }
        let (threshold, margin) = (linker.cfg.accept_threshold, linker.cfg.ambiguity_margin);
        let ranked = brute_force_ranking(linker, signatures);
        match ranked.first() {
            Some(&(best, score)) if score >= threshold => {
                let runner = ranked.get(1).map_or(0.0, |&(_, s)| s);
                if score - runner >= margin {
                    LinkEvent::Linked { identity: IdentityId(best), mac, confidence: score }
                } else {
                    let contenders = ranked
                        .iter()
                        .filter(|&&(_, s)| s >= threshold)
                        .map(|&(id, s)| (IdentityId(id), s))
                        .collect();
                    LinkEvent::Ambiguous { mac, contenders }
                }
            }
            _ => fresh,
        }
    }

    /// The sightings a linker proptest streams: `(device, round, mask,
    /// randomized)` draws become a MAC (randomized or burned in) and the
    /// [`behaviour`] signatures of the parameters `mask` selects.
    fn sighting_of(
        device: u64,
        round: u64,
        mask: u8,
        randomized: bool,
    ) -> (MacAddr, Vec<(NetworkParameter, Signature)>) {
        let mac = if randomized {
            MacAddr::randomized(device * 8 + round)
        } else {
            MacAddr::universal_from_index(device + 1)
        };
        let signatures = NetworkParameter::ALL
            .iter()
            .enumerate()
            .filter(|&(bit, _)| mask >> bit & 1 == 1)
            .map(|(_, &p)| (p, behaviour(p, device, round)))
            .collect();
        (mac, signatures)
    }

    /// A spec of `params` parameters from `rotate` on, weighted
    /// `weights[i] / 2` (zeros included, never all zero).
    fn drawn_spec(params: usize, rotate: usize, weights: &[u32]) -> FusionSpec {
        let mut parameters: Vec<(NetworkParameter, f64)> = (0..params)
            .map(|i| (NetworkParameter::ALL[(i + rotate) % 5], f64::from(weights[i]) / 2.0))
            .collect();
        if parameters.iter().all(|&(_, w)| w == 0.0) {
            parameters[0].1 = 1.0;
        }
        FusionSpec { parameters }
    }

    #[test]
    fn a_runner_up_inside_the_margin_below_the_threshold_keeps_the_link_ambiguous() {
        // Two equally weighted parameters, threshold 0.9, margin 0.2. One
        // identity matches the probe exactly (1.0); the runner-up matches
        // frame size exactly and inter-arrival time at cosine 0.707 (fused
        // 0.854): below the threshold, but inside the margin of the best.
        // A sweep that dropped identities below the threshold alone would
        // see no runner-up and link.
        const FS: NetworkParameter = NetworkParameter::FrameSize;
        let cfg = LinkerConfig::default()
            .with_spec(FusionSpec::equal_weights([FS, IAT]))
            .with_accept_threshold(0.9)
            .with_ambiguity_margin(0.2);
        let mut linker = RotationLinker::new(cfg).unwrap();
        let both = |fs: &[f64], iat: &[f64]| {
            vec![(FS, sig_of(FS, fs, 30)), (IAT, sig_of(IAT, iat, 30))]
        };
        let universal = MacAddr::universal_from_index;
        let exact = linker.link(universal(1), Nanos::from_secs(1), &both(&[400.0], &[400.0]));
        linker.link(universal(2), Nanos::from_secs(2), &both(&[400.0], &[400.0, 1200.0]));
        let probe = both(&[400.0], &[400.0]);
        let ranked = linker.sweep(&probe);
        assert_eq!(ranked.len(), 2, "the runner-up clears the cut: {ranked:?}");
        assert!(ranked[1].1 > 0.7 && ranked[1].1 < 0.9, "{ranked:?}");
        let event = linker.link(MacAddr::randomized(1), Nanos::from_secs(3), &probe);
        let LinkEvent::Ambiguous { contenders, .. } = event else {
            panic!("the runner-up sits inside the margin: {event:?}");
        };
        assert_eq!(contenders, vec![(exact.identity().unwrap(), ranked[0].1)]);
        assert_eq!(contenders[0].1, 1.0);
    }

    #[test]
    fn threshold_sweep_scores_survivors_by_random_access() {
        // Three equally weighted parameters over 60 identities in ten
        // disjoint behaviour classes, every third without an inter-arrival
        // row. After the first, dense sweep only the probe's class can
        // still reach the cut, so the other two parameters are scored by
        // random access (one dense sweep is counted, not three), the
        // inter-arrival gallery through its own rows. The ranking is still
        // the brute force's, restricted to the cut, bit for bit.
        const SPEC: [NetworkParameter; 3] =
            [NetworkParameter::FrameSize, IAT, NetworkParameter::MediumAccessTime];
        let mut linker =
            RotationLinker::new(LinkerConfig::default().with_spec(FusionSpec::equal_weights(SPEC)))
                .unwrap();
        let observed = |device: u64, skip: Option<NetworkParameter>| -> Vec<_> {
            SPEC.iter()
                .filter(|&&p| Some(p) != skip)
                .map(|&p| (p, behaviour(p, device, 0)))
                .collect()
        };
        for device in 0..60u64 {
            let skip = device.is_multiple_of(3).then_some(IAT);
            let at = Nanos::from_secs(device);
            linker.link(MacAddr::universal_from_index(device + 1), at, &observed(device, skip));
        }
        assert!(linker.galleries[1].len() < linker.identity_keys.len());
        let probe = observed(4, None);
        let swept = linker.stats().shards_swept;
        let got = linker.sweep(&probe);
        assert_eq!(linker.stats().shards_swept - swept, 1, "one dense sweep");
        let cfg = linker.config();
        let cut = cfg.accept_threshold - cfg.ambiguity_margin - PRUNE_BOUND_SLACK;
        let mut want = brute_force_ranking(&linker, &probe);
        want.retain(|&(_, score)| score >= cut);
        // Devices 4, 14, 34 and 44 match on all three parameters; 24 and 54
        // lack the inter-arrival row and fall below the cut.
        assert_eq!(got.iter().map(|&(id, _)| id).collect::<Vec<_>>(), [4, 14, 34, 44]);
        let bits = |ranked: &[(u64, f64)]| -> Vec<(u64, u64)> {
            ranked.iter().map(|&(id, score)| (id, score.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&want));
    }

    proptest! {
        #[test]
        fn sweep_ranks_by_the_exact_fused_score(
            params in 1usize..=5,
            rotate in 0usize..5,
            weights in prop::collection::vec(0u32..5, 5),
            sightings in prop::collection::vec(
                (0u64..40, 0u64..3, any::<u8>(), any::<bool>()),
                1..80,
            ),
            threshold in 0u32..10,
            update_on_link in any::<bool>(),
            cap in prop::option::of(3usize..10),
        ) {
            // Before every sighting, the shipped sweep against the brute
            // force over the linker's current galleries, restricted to the
            // scores at or above the cut, bit for bit: 1–5 parameters in
            // any spec order, weights including zeros, sightings lacking
            // any parameters (the spec's or others), tied behaviours, links
            // with and without evidence merging, and cap evictions. At
            // threshold 0 the cut is negative and nothing is filtered.
            let cfg = LinkerConfig::default()
                .with_spec(drawn_spec(params, rotate, &weights))
                .with_accept_threshold(f64::from(threshold) / 10.0)
                .with_update_on_link(update_on_link)
                .with_gallery_cap(cap.unwrap_or(200_000));
            let cut = cfg.accept_threshold - cfg.ambiguity_margin - PRUNE_BOUND_SLACK;
            let mut linker = RotationLinker::new(cfg).expect("valid config");
            for (tick, &(device, round, mask, randomized)) in sightings.iter().enumerate() {
                let (mac, signatures) = sighting_of(device, round, mask, randomized);
                let mut want = brute_force_ranking(&linker, &signatures);
                want.retain(|&(_, score)| score >= cut);
                let got = linker.sweep(&signatures);
                prop_assert_eq!(got.len(), want.len(), "{:?} vs {:?}", got, want);
                for (&(gid, gs), &(wid, ws)) in got.iter().zip(&want) {
                    prop_assert_eq!(gid, wid, "{:?} vs {:?}", got, want);
                    prop_assert_eq!(gs.to_bits(), ws.to_bits(), "{:?} vs {:?}", got, want);
                }
                linker.link(mac, Nanos::from_millis(tick as u64), &signatures);
            }
            let stats = linker.stats();
            prop_assert!(stats.conserves());
            if let Some(cap) = cap {
                prop_assert!(stats.identities_retained <= cap);
            }
        }

        #[test]
        fn link_events_equal_the_full_ranking_decision(
            params in 1usize..=5,
            rotate in 0usize..5,
            weights in prop::collection::vec(0u32..5, 5),
            sightings in prop::collection::vec(
                (0u64..40, 0u64..3, any::<u8>(), any::<bool>()),
                1..80,
            ),
            threshold in 0.0f64..=1.0,
            margin_share in 0.0f64..1.5,
            update_on_link in any::<bool>(),
            cap in prop::option::of(3usize..10),
        ) {
            // Every event, confidences and contender scores to the bit,
            // equals the decision rule applied to the full brute-force
            // ranking: thresholds over [0, 1], margins from 0 to above the
            // threshold (where the cut prunes nothing), 1–5 parameters with
            // zero weights, evidence merging and cap evictions. `{:?}`
            // prints a float's shortest round-trip digits, so equal debug
            // strings are equal bits.
            let cfg = LinkerConfig::default()
                .with_spec(drawn_spec(params, rotate, &weights))
                .with_accept_threshold(threshold)
                .with_ambiguity_margin(margin_share * threshold)
                .with_update_on_link(update_on_link)
                .with_gallery_cap(cap.unwrap_or(200_000));
            let mut linker = RotationLinker::new(cfg).expect("valid config");
            for (tick, &(device, round, mask, randomized)) in sightings.iter().enumerate() {
                let (mac, signatures) = sighting_of(device, round, mask, randomized);
                let want = full_ranking_decision(&linker, mac, &signatures);
                let got = linker.link(mac, Nanos::from_millis(tick as u64), &signatures);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
            let stats = linker.stats();
            prop_assert!(stats.conserves());
            if let Some(cap) = cap {
                prop_assert!(stats.identities_retained <= cap);
            }
        }

        #[test]
        fn gallery_growth_changes_no_decision(
            devices in 520u64..640,
            every in 4u64..9,
            update_on_link in any::<bool>(),
            cap in prop::option::of(512usize..520),
        ) {
            // The shipped linker, whose galleries grow with their rows,
            // against one whose galleries are re-laid out to 64 shards
            // before every sighting (growth never shrinks, so they sweep
            // 64 shards throughout): the same events bit for bit
            // (confidences included) and the same decision counters,
            // with evidence merging on or off and with or without cap
            // evictions.
            let stream = growth_stream(devices, every);
            let run = |relaid: bool| {
                let cfg = single_cfg()
                    .with_update_on_link(update_on_link)
                    .with_gallery_cap(cap.unwrap_or(200_000));
                let mut l = RotationLinker::new(cfg).expect("valid config");
                let mut events = Vec::with_capacity(stream.len());
                let mut last_sweep = 0;
                for &(mac, at, device, round) in &stream {
                    if relaid {
                        l.galleries[0].reshard(64);
                    }
                    let before = l.stats();
                    events.push(l.link(mac, at, &[(IAT, device_signature(device, round))]));
                    let after = l.stats();
                    let shards = after.shards_swept + after.shards_pruned;
                    if shards > before.shards_swept + before.shards_pruned {
                        last_sweep = shards - before.shards_swept - before.shards_pruned;
                    }
                }
                (events, l.stats(), last_sweep, l.galleries[0].shard_count())
            };
            let (grown, grown_stats, grown_last, grown_shards) = run(false);
            let (relaid, relaid_stats, _, relaid_shards) = run(true);
            prop_assert_eq!(&grown, &relaid);
            prop_assert_eq!(decisions(&grown_stats), decisions(&relaid_stats));
            prop_assert!(grown_stats.conserves());
            prop_assert_eq!(
                cap.is_some(), grown_stats.evicted_cap > 0, "{:?}", grown_stats
            );
            prop_assert_eq!(relaid_shards, 64);
            // The last sweep saw at least three occupied shards, so the
            // grown gallery crossed at least two growth steps (1 → 2 → 4).
            prop_assert_eq!(grown_shards, 4);
            prop_assert!(grown_last >= 3, "{} shards in the last sweep", grown_last);
        }
    }
}
