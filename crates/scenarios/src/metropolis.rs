//! The metropolis scenario: a large-population stress workload for the
//! sharded reference store.
//!
//! The paper's traces top out at a few hundred devices; the ROADMAP's
//! north star is a monitor fleet covering a metropolitan population —
//! the regime where `wifiprint_core`'s sharded [`ReferenceDb`] and its
//! pruned [`ReferenceDb::match_topk_tile`] sweep earn their keep. This
//! scenario synthesises that population *directly at the signature
//! level* (running a discrete-event simulation of 50 000 stations for
//! long enough to enroll them would dominate every benchmark run):
//! every device draws a deterministic **traffic-mix archetype** — bulk
//! transfer, `VoIP`-like periodic bursts, web browsing, `IoT` beaconing,
//! streaming video, background chatter — and a device-specific timing
//! centre, then renders it into an inter-arrival-time [`Signature`]
//! with per-run observation noise. [`MetropolisScenario::candidate`]
//! re-observes the same device on a different "day" (fresh noise over
//! the same mix), which is exactly the re-identification workload the
//! detection phase runs.
//!
//! Everything is deterministic in the seed, and the archetype mixes are
//! heterogeneous on purpose: tight single-peak `IoT` devices shard far
//! from broad video mixes, so shard summaries stay tight and the pruned
//! sweep's win is measurable end-to-end (`perf_snapshot`'s
//! `sharded_sweep_speedup`).

use std::collections::BTreeMap;

use wifiprint_core::{
    BinSpec, EvalConfig, Histogram, MatchConfig, NetworkParameter, ReferenceDb, Signature,
};
use wifiprint_devices::InstanceRng;
use wifiprint_ieee80211::{FrameKind, MacAddr};

/// One timing cluster of a device's traffic mix: `share` of its
/// observations land around `value` (µs).
#[derive(Debug, Clone, Copy)]
struct Cluster {
    value: f64,
    share: f64,
}

/// Configuration of a metropolis population.
#[derive(Debug, Clone)]
pub struct MetropolisScenario {
    /// Root seed; the whole population is deterministic in it.
    pub seed: u64,
    /// Number of enrolled devices.
    pub devices: usize,
    /// Capture-loss fraction in `[0, 1)` applied to every *observation*
    /// (reference and candidate alike): the monitor misses this share of
    /// each cluster's frames, thinning the rendered histograms the way a
    /// lossy vantage point would. `0.0` (the default) is the pristine
    /// capture.
    pub capture_loss: f64,
}

impl MetropolisScenario {
    /// The headline shape: 50 000 enrolled devices.
    pub fn metropolis(seed: u64) -> Self {
        MetropolisScenario { seed, devices: 50_000, capture_loss: 0.0 }
    }

    /// A population of explicit size (tests and benchmarks scale it from
    /// a few thousand to 10⁵).
    pub fn with_devices(seed: u64, devices: usize) -> Self {
        MetropolisScenario { seed, devices, capture_loss: 0.0 }
    }

    /// Returns a copy observing through a lossy capture path: `loss` of
    /// every cluster's observations are missed (clamped to `[0, 0.95]`).
    /// Cluster positions are unaffected — loss thins evidence, it does
    /// not move timing peaks — so degraded candidates stay comparable
    /// against a pristine (or equally degraded) reference database.
    #[must_use]
    pub fn with_capture_loss(mut self, loss: f64) -> Self {
        self.capture_loss = loss.clamp(0.0, 0.95);
        self
    }

    /// The evaluation configuration metropolis signatures are binned
    /// with: inter-arrival time over 0–2500 µs in 25 µs bins — coarser
    /// than the paper's 10 µs default so a 10⁵-device store stays
    /// memory-friendly while the sweep stays row-shaped like the real
    /// one.
    pub fn config() -> EvalConfig {
        EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_bins(BinSpec::uniform_to(2500.0, 25.0))
    }

    /// The address of enrolled device `idx` (`0..devices`).
    pub fn device(&self, idx: usize) -> MacAddr {
        // Spread the index across the OUI octets so MAC-prefix sharding
        // sees a realistic vendor spread, not one prefix.
        MacAddr::from_index((idx as u64).wrapping_mul(0x0001_0001) + 1)
    }

    /// Device `idx`'s reference signature (enrollment-day observation).
    pub fn signature(&self, idx: usize) -> Signature {
        self.observe(idx, 0)
    }

    /// A fresh observation of device `idx` on a later `day`: the same
    /// traffic mix rendered with different noise — similar to, but not
    /// identical with, its reference signature. This is the candidate a
    /// detection window would hand the matcher.
    pub fn candidate(&self, idx: usize, day: u64) -> Signature {
        self.observe(idx, day.wrapping_add(1))
    }

    /// Builds the enrolled reference database under a given shard
    /// layout. Insertion streams device by device (the store's amortised
    /// append path), exactly like online enrollment would.
    ///
    /// # Panics
    ///
    /// Never in practice: every generated signature carries
    /// observations, so enrollment cannot be rejected.
    pub fn reference_db(&self, match_config: MatchConfig) -> ReferenceDb {
        let mut db = ReferenceDb::with_config(match_config);
        for idx in 0..self.devices {
            db.insert(self.device(idx), self.signature(idx)).expect("non-empty signature");
        }
        db
    }

    /// The device's stable traffic mix: archetype, timing clusters and
    /// probe-request share. Deterministic in `(seed, idx)` — observation
    /// noise lives in [`MetropolisScenario::observe`], not here.
    fn mix(&self, idx: usize) -> (Vec<Cluster>, f64) {
        let mut rng = InstanceRng::new(self.seed ^ 0x4D45_5452_4F00, idx as u64);
        let archetype = rng.below(6);
        // Device-specific dominant timing centre, spread over the bin
        // range: this is what the dominant-histogram shard key localises.
        let center = 60.0 + rng.f64() * 2300.0;
        let near = |rng: &mut InstanceRng, spread: f64| {
            (center + (rng.f64() - 0.5) * spread).clamp(5.0, 2490.0)
        };
        let far = |rng: &mut InstanceRng| 60.0 + rng.f64() * 2300.0;
        let (clusters, probe_share) = match archetype {
            // Bulk transfer: one tight peak plus a retransmission tail.
            0 => (vec![Cluster { value: center, share: 0.9 }, Cluster { value: far(&mut rng), share: 0.1 }], 0.0),
            // VoIP-like: two nearby periodic peaks plus scatter.
            1 => (
                vec![
                    Cluster { value: center, share: 0.6 },
                    Cluster { value: near(&mut rng, 200.0), share: 0.3 },
                    Cluster { value: far(&mut rng), share: 0.1 },
                ],
                0.0,
            ),
            // Web browsing: dominant peak, one far secondary, probes.
            2 => (
                vec![
                    Cluster { value: center, share: 0.7 },
                    Cluster { value: far(&mut rng), share: 0.2 },
                ],
                0.1,
            ),
            // IoT beaconing: essentially one spike.
            3 => (vec![Cluster { value: center, share: 0.97 }, Cluster { value: far(&mut rng), share: 0.03 }], 0.0),
            // Streaming video: a broad dominant region (two adjacent
            // clusters) plus a service peak.
            4 => (
                vec![
                    Cluster { value: center, share: 0.5 },
                    Cluster { value: near(&mut rng, 120.0), share: 0.4 },
                    Cluster { value: far(&mut rng), share: 0.1 },
                ],
                0.0,
            ),
            // Background chatter: dominant but diffuse, with probes.
            _ => (
                vec![
                    Cluster { value: center, share: 0.65 },
                    Cluster { value: near(&mut rng, 400.0), share: 0.2 },
                    Cluster { value: far(&mut rng), share: 0.15 },
                ],
                0.05,
            ),
        };
        (clusters, probe_share)
    }

    /// Renders one observation run of device `idx`'s mix into a
    /// signature (`run` 0 is the reference; later runs are candidates).
    ///
    /// Cluster *positions* belong to the mix and are stable across runs
    /// — a device's periodic timing does not drift day to day — while
    /// the per-cluster observation *counts* carry the run noise, the way
    /// real detection windows see the same behaviour with different
    /// sample counts.
    fn observe(&self, idx: usize, run: u64) -> Signature {
        let (clusters, probe_share) = self.mix(idx);
        let mut noise = InstanceRng::new(
            self.seed ^ 0x0B5E_52E5 ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            idx as u64,
        );
        let bins = Self::config().bins;
        let total = 200 + noise.below(60);
        // A lossy capture path misses `capture_loss` of every cluster's
        // frames: the histograms thin uniformly (peak positions stay),
        // exactly like sniffer-side loss on periodic traffic.
        let captured = 1.0 - self.capture_loss;
        let mut data = Histogram::new(bins.clone());
        for cluster in &clusters {
            let n = (total as f64) * cluster.share * captured;
            // Each cluster straddles three fixed sub-positions (the slot
            // comb of periodic traffic); the run noise perturbs how many
            // observations land on each, not where they land.
            for (offset, weight) in [(-12.0, 0.25), (0.0, 0.5), (12.0, 0.25)] {
                let count = (n * weight * (0.8 + 0.4 * noise.f64())).round().max(1.0) as u64;
                data.add_n((cluster.value + offset).clamp(0.0, 2499.0), count);
            }
        }
        let mut hists = BTreeMap::new();
        if probe_share > 0.0 {
            let mut probe = Histogram::new(bins);
            let n = ((total as f64) * probe_share * captured * (0.8 + 0.4 * noise.f64()))
                .round()
                .max(1.0);
            probe.add_n((clusters[0].value * 0.5).clamp(0.0, 2499.0), n as u64);
            hists.insert(FrameKind::ProbeReq, probe);
        }
        hists.insert(FrameKind::Data, data);
        Signature::from_histograms(hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_core::{MatchScratch, RowPrecision, SimilarityMeasure};

    /// The CI smoke test for the sharded store at (scaled-down)
    /// metropolis scale: pruned top-k decisions equal the dense sweep's
    /// on every probe, most shards are actually pruned, and
    /// re-observation still identifies the right device.
    #[test]
    fn metropolis_pruned_sweep_matches_dense_and_prunes() {
        let scenario = MetropolisScenario::with_devices(11, 2000);
        let db = scenario.reference_db(MatchConfig::default().with_shards(32));
        assert_eq!(db.len(), 2000);
        let mut scratch = MatchScratch::new();
        let mut pruned_total = 0usize;
        let mut swept_total = 0usize;
        let mut self_hits = 0usize;
        for probe_idx in (0..2000).step_by(97) {
            let cand = scenario.candidate(probe_idx, 3);
            let cand = std::slice::from_ref(&cand);
            let top = db.match_topk_tile(cand, 5, &mut scratch).remove(0);
            let stats = scratch.prune_stats();
            pruned_total += stats.pruned_shards;
            swept_total += stats.swept_shards;
            let dense = db.match_tile(cand, SimilarityMeasure::Cosine, &mut scratch);
            assert_eq!(top, dense.candidate(0).top(5), "probe {probe_idx}: pruned ≠ dense");
            if top.first().map(|&(d, _)| d) == Some(scenario.device(probe_idx)) {
                self_hits += 1;
            }
        }
        assert!(
            pruned_total > swept_total,
            "expected most shards pruned at metropolis scale: {pruned_total} pruned vs {swept_total} swept"
        );
        // Re-observations of heterogeneous mixes identify themselves in
        // the vast majority of cases (clusters can collide by chance).
        assert!(self_hits >= 17, "only {self_hits}/21 probes self-identified");
    }

    /// The tile-wide pruned sweep at the detection phase's natural
    /// width: a full K=8 tile of probes over a metropolis slice must
    /// skip at least half of the (candidate, shard) work — in both
    /// precision tiers — while every candidate's top-k still equals its
    /// dense ranking.
    #[test]
    fn metropolis_tile_sweep_prunes_half_at_k8() {
        let scenario = MetropolisScenario::with_devices(11, 2000);
        for precision in [RowPrecision::F32, RowPrecision::U8] {
            let db = scenario.reference_db(
                MatchConfig::default().with_shards(32).with_precision(precision),
            );
            let mut scratch = MatchScratch::new();
            let cands: Vec<Signature> =
                (0..8).map(|i| scenario.candidate(i * 251, 3)).collect();
            let tiled = db.match_topk_tile(&cands, 8, &mut scratch);
            let stats = scratch.prune_stats();
            for (ci, (cand, got)) in cands.iter().zip(&tiled).enumerate() {
                let dense =
                    db.match_tile(std::slice::from_ref(cand), SimilarityMeasure::Cosine, &mut scratch);
                assert_eq!(got, &dense.candidate(0).top(8), "{precision:?}: candidate {ci}");
            }
            assert!(
                stats.pruned_fraction() >= 0.5,
                "{precision:?}: K=8 tile pruned only {:.3} of shard visits ({stats:?})",
                stats.pruned_fraction()
            );
        }
    }

    #[test]
    fn metropolis_is_seed_deterministic() {
        let a = MetropolisScenario::with_devices(5, 50);
        let b = MetropolisScenario::with_devices(5, 50);
        for idx in [0usize, 7, 49] {
            assert_eq!(a.signature(idx), b.signature(idx));
            assert_eq!(a.candidate(idx, 2), b.candidate(idx, 2));
            // Candidates differ from references (fresh noise) but not
            // beyond recognition.
            assert_ne!(a.signature(idx), a.candidate(idx, 2));
        }
        let c = MetropolisScenario::with_devices(6, 50);
        assert_ne!(a.signature(3), c.signature(3));
    }

    /// The degraded-capture variant of the metropolis smoke: candidates
    /// observed through 50 % capture loss, matched against the pristine
    /// reference store. Identification survives because loss thins
    /// evidence without moving timing peaks — the similarity measure is
    /// scale-normalised.
    #[test]
    fn metropolis_candidates_survive_heavy_capture_loss() {
        let clean = MetropolisScenario::with_devices(11, 1000);
        let degraded = clean.clone().with_capture_loss(0.5);
        assert_eq!(degraded.capture_loss, 0.5);
        // The degraded observation really is thinner.
        assert!(
            degraded.candidate(0, 3).observation_count() < clean.candidate(0, 3).observation_count()
        );
        // Loss 0 is bit-identical to the pristine scenario.
        assert_eq!(clean.clone().with_capture_loss(0.0).signature(7), clean.signature(7));

        let db = clean.reference_db(MatchConfig::default().with_shards(16));
        let mut scratch = MatchScratch::new();
        let mut self_hits = 0usize;
        let probes: Vec<usize> = (0..1000).step_by(97).collect();
        for &probe_idx in &probes {
            let cand = degraded.candidate(probe_idx, 3);
            let top = db
                .match_topk_tile(std::slice::from_ref(&cand), 1, &mut scratch)
                .remove(0);
            if top.first().map(|&(d, _)| d) == Some(clean.device(probe_idx)) {
                self_hits += 1;
            }
        }
        assert!(
            self_hits * 10 >= probes.len() * 8,
            "degraded identification floor: {self_hits}/{} probes self-identified",
            probes.len()
        );
    }

    #[test]
    fn metropolis_shape_is_the_headline_population() {
        let m = MetropolisScenario::metropolis(1);
        assert_eq!(m.devices, 50_000);
        // Distinct, stable addresses across the population.
        assert_ne!(m.device(0), m.device(1));
        assert_eq!(m.device(42), MetropolisScenario::metropolis(9).device(42));
    }
}
