//! Property tests for histograms, the cosine similarity and metrics — the
//! similarity properties run against the dense frequency view
//! ([`Histogram::frequencies`]) and the SoA matching engine's tile
//! sweep. The per-pair scalar oracles of its `f32` and `u8` sweeps run
//! in the `matching` unit tests, over every shard layout.

use proptest::prelude::*;
use wifiprint_core::metrics::{identification_points, similarity_curve, MatchSet};
use wifiprint_core::{
    BinSpec, EvalConfig, FrameFilter, FusedExtractor, Histogram,
    MatchScratch, NetworkParameter, ParameterExtractor, ReferenceDb, Signature,
    SimilarityMeasure, TxTimeEstimator,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

/// Two histograms over one shared spec, filled from generated samples
/// (possibly empty).
fn histogram_pair(
    width: f64,
    a: &[f64],
    b: &[f64],
) -> (Histogram, Histogram) {
    let spec = BinSpec::uniform_to(2500.0, width);
    let mut ha = Histogram::new(spec.clone());
    for &v in a {
        ha.add(v);
    }
    let mut hb = Histogram::new(spec);
    for &v in b {
        hb.add(v);
    }
    (ha, hb)
}

fn arb_freqs(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, len).prop_map(|raw| {
        let sum: f64 = raw.iter().sum();
        if sum == 0.0 {
            raw
        } else {
            raw.into_iter().map(|x| x / sum).collect()
        }
    })
}

fn arb_match_set() -> impl Strategy<Value = MatchSet> {
    (0.0f64..=1.0, prop::collection::vec(0.0f64..=1.0, 1..20)).prop_map(|(true_sim, wrong)| {
        let best_wrong = wrong.iter().copied().fold(0.0f64, f64::max);
        MatchSet {
            true_device: MacAddr::from_index(1),
            true_sim,
            best_is_true: true_sim >= best_wrong,
            best_sim: true_sim.max(best_wrong),
            wrong_sims: wrong,
        }
    })
}

proptest! {
    #[test]
    fn histogram_frequencies_sum_to_one(
        values in prop::collection::vec(-100.0f64..5000.0, 1..200),
        width in 1.0f64..100.0,
    ) {
        let mut h = Histogram::new(BinSpec::uniform_to(2500.0, width));
        for v in &values {
            h.add(*v);
        }
        let sum: f64 = h.frequencies().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(h.total(), values.len() as u64);
    }

    #[test]
    fn bin_index_always_in_range(value in any::<f64>(), width in 0.1f64..500.0, max in 10.0f64..5000.0) {
        let spec = BinSpec::uniform_to(max, width);
        let idx = spec.bin_index(value);
        prop_assert!(idx < spec.bin_count());
    }

    #[test]
    fn similarity_in_unit_interval(a in arb_freqs(40), b in arb_freqs(40)) {
        let m = SimilarityMeasure::Cosine;
        let s = m.compute(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{m}: {s}");
    }

    #[test]
    fn similarity_symmetric(a in arb_freqs(30), b in arb_freqs(30)) {
        let m = SimilarityMeasure::Cosine;
        let ab = m.compute(&a, &b);
        let ba = m.compute(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9, "{m}");
    }

    #[test]
    fn self_similarity_is_one(a in arb_freqs(30)) {
        prop_assume!(a.iter().any(|&x| x > 0.0));
        let m = SimilarityMeasure::Cosine;
        let s = m.compute(&a, &a);
        prop_assert!((s - 1.0).abs() < 1e-9, "{m}: {s}");
    }

    #[test]
    fn curve_monotone_and_auc_bounded(sets in prop::collection::vec(arb_match_set(), 1..40)) {
        let curve = similarity_curve(&sets, 64);
        prop_assert!((0.0..=1.0).contains(&curve.auc));
        for pair in curve.points.windows(2) {
            prop_assert!(pair[1].fpr >= pair[0].fpr - 1e-12);
            prop_assert!(pair[1].tpr >= pair[0].tpr - 1e-12);
        }
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        prop_assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        prop_assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn identification_fpr_and_ratio_monotone(sets in prop::collection::vec(arb_match_set(), 1..40)) {
        let points = identification_points(&sets, 64);
        for pair in points.windows(2) {
            prop_assert!(pair[1].fpr >= pair[0].fpr - 1e-12);
            prop_assert!(pair[1].ratio >= pair[0].ratio - 1e-12);
            prop_assert!(pair[1].threshold <= pair[0].threshold);
        }
        // ratio + fpr never exceeds 1 (each instance counted once).
        for p in &points {
            prop_assert!(p.ratio + p.fpr <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn all_measures_stay_in_unit_interval_on_cached_frequencies(
        a in prop::collection::vec(0.0f64..3000.0, 0..150),
        b in prop::collection::vec(0.0f64..3000.0, 0..150),
        width in 5.0f64..250.0,
    ) {
        let (ha, hb) = histogram_pair(width, &a, &b);
        let m = SimilarityMeasure::Cosine;
        let s = m.compute(&ha.frequencies(), &hb.frequencies());
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{m}: {s}");
    }

    #[test]
    fn all_measures_symmetric_on_cached_frequencies(
        a in prop::collection::vec(0.0f64..3000.0, 1..150),
        b in prop::collection::vec(0.0f64..3000.0, 1..150),
        width in 5.0f64..250.0,
    ) {
        let (ha, hb) = histogram_pair(width, &a, &b);
        let m = SimilarityMeasure::Cosine;
        let ab = m.compute(&ha.frequencies(), &hb.frequencies());
        let ba = m.compute(&hb.frequencies(), &ha.frequencies());
        prop_assert!((ab - ba).abs() < 1e-9, "{m}: {ab} vs {ba}");
    }

    #[test]
    fn identical_histograms_score_one_on_cached_frequencies(
        values in prop::collection::vec(0.0f64..3000.0, 1..150),
        width in 5.0f64..250.0,
    ) {
        let (h, _) = histogram_pair(width, &values, &[]);
        let m = SimilarityMeasure::Cosine;
        let s = m.compute(&h.frequencies(), &h.frequencies());
        prop_assert!((s - 1.0).abs() < 1e-9, "{m}: {s}");
    }

    #[test]
    fn mismatched_bin_counts_score_zero_for_every_measure(
        values in prop::collection::vec(0.0f64..900.0, 1..60),
    ) {
        let spec_a = BinSpec::uniform_to(1000.0, 10.0);
        let spec_b = BinSpec::uniform_to(1000.0, 25.0); // different bin count
        let mut ha = Histogram::new(spec_a);
        let mut hb = Histogram::new(spec_b);
        for &v in &values {
            ha.add(v);
            hb.add(v);
        }
        let m = SimilarityMeasure::Cosine;
        prop_assert_eq!(m.compute(&ha.frequencies(), &hb.frequencies()), 0.0, "{}", m);
    }

    #[test]
    fn scratch_matching_agrees_with_owned_matching(
        per_device in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 1..40), 1..12),
        cand_values in prop::collection::vec(0.0f64..2400.0, 1..40),
    ) {
        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        let mut db = ReferenceDb::new();
        for (i, values) in per_device.iter().enumerate() {
            let mut sig = Signature::new();
            for (j, &v) in values.iter().enumerate() {
                let kind = if j % 3 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                sig.record(kind, v, &cfg);
            }
            db.insert(MacAddr::from_index(i as u64 + 1), sig).unwrap();
        }
        let mut cand = Signature::new();
        for &v in &cand_values {
            cand.record(FrameKind::Data, v, &cfg);
        }
        let mut scratch = MatchScratch::new();
        let m = SimilarityMeasure::Cosine;
        let tile = db.match_tile(std::slice::from_ref(&cand), m, &mut scratch);
        for (_, s) in tile.candidate(0).similarities() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{m}: {s}");
        }
    }

    // Tiling equivalence: match_tile over K candidates must reproduce K
    // independent tiles of one exactly (same arithmetic per pair, only
    // the loop order differs).
    #[test]
    fn match_tile_equals_k_independent_sweeps(
        per_device in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 1..40), 1..10),
        per_candidate in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 0..40), 1..12),
    ) {
        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        let mut db = ReferenceDb::new();
        for (i, values) in per_device.iter().enumerate() {
            let mut sig = Signature::new();
            for (j, &v) in values.iter().enumerate() {
                let kind = if j % 3 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                sig.record(kind, v, &cfg);
            }
            db.insert(MacAddr::from_index(i as u64 + 1), sig).unwrap();
        }
        let candidates: Vec<Signature> = per_candidate
            .iter()
            .map(|values| {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 5 == 0 { FrameKind::Beacon } else { FrameKind::Data };
                    sig.record(kind, v, &cfg);
                }
                sig
            })
            .collect();
        let mut tile_scratch = MatchScratch::new();
        let mut single_scratch = MatchScratch::new();
        let m = SimilarityMeasure::Cosine;
        let tile = db.match_tile(&candidates, m, &mut tile_scratch);
        prop_assert_eq!(tile.candidate_count(), candidates.len());
        let tiled: Vec<Vec<(MacAddr, f64)>> =
            tile.views().map(|v| v.similarities().collect()).collect();
        for (cand, got) in candidates.iter().zip(tiled) {
            let want = db.match_tile(std::slice::from_ref(cand), m, &mut single_scratch);
            prop_assert_eq!(got, want.candidate(0).similarities().collect::<Vec<_>>(), "{}", m);
        }
    }

    #[test]
    fn merged_histogram_equals_bulk_histogram(
        a in prop::collection::vec(0.0f64..1000.0, 0..50),
        b in prop::collection::vec(0.0f64..1000.0, 0..50),
    ) {
        let spec = BinSpec::uniform_to(1000.0, 10.0);
        let mut ha = Histogram::new(spec.clone());
        for v in &a { ha.add(*v); }
        let mut hb = Histogram::new(spec.clone());
        for v in &b { hb.add(*v); }
        ha.merge(&hb);
        let mut bulk = Histogram::new(spec);
        for v in a.iter().chain(&b) { bulk.add(*v); }
        prop_assert_eq!(ha, bulk);
    }

    // The fused single-pass extractor must be indistinguishable from
    // five independent per-parameter extractors on arbitrary capture
    // streams — same `Observation` (device, kind, value, timestamp) or
    // same absence, frame by frame, parameter by parameter, across
    // anonymous frames (ACK/CTS), retries, heterogeneous rates and
    // filters.
    #[test]
    fn fused_extractor_equals_five_parameter_extractors(
        specs in prop::collection::vec(
            (0u8..6, 1u64..5, 1u64..200_000, 0usize..1500, 0u8..12, any::<bool>()),
            1..60,
        ),
        estimator_measured in any::<bool>(),
        exclude_retries in any::<bool>(),
    ) {
        // Build an arbitrary (but in-order) capture stream.
        let mut t_us = 0u64;
        let frames: Vec<CapturedFrame> = specs
            .into_iter()
            .map(|(kind, dev, gap, payload, rate_idx, retry)| {
                t_us += gap;
                let sta = MacAddr::from_index(dev);
                let peer = MacAddr::from_index(42);
                let frame = match kind {
                    0 => Frame::data_to_ds(sta, peer, peer, payload),
                    1 => Frame::ack(sta),
                    2 => Frame::cts(sta, 100),
                    3 => Frame::rts(peer, sta, 300),
                    4 => Frame::probe_req(sta, vec![0; payload.min(200)]),
                    _ => Frame::beacon(sta, vec![0; payload.min(200)]),
                };
                let rate = Rate::ALL_BG[rate_idx as usize];
                let mut cap =
                    CapturedFrame::from_frame(&frame, rate, Nanos::from_micros(t_us), -50);
                cap.retry = retry;
                cap
            })
            .collect();

        let estimator = if estimator_measured {
            TxTimeEstimator::MeasuredAirTime
        } else {
            TxTimeEstimator::SizeOverRate
        };
        let filter = FrameFilter { exclude_retries, ..FrameFilter::default() };

        let mut fused = FusedExtractor::with_options(estimator, filter.clone());
        let mut singles: Vec<ParameterExtractor> = NetworkParameter::ALL
            .into_iter()
            .map(|p| ParameterExtractor::with_options(p, estimator, filter.clone()))
            .collect();
        for frame in &frames {
            let fused_obs = fused.push(frame);
            for (param, single) in NetworkParameter::ALL.into_iter().zip(&mut singles) {
                let want = single.push(frame);
                let got = fused_obs.as_ref().and_then(|o| o.observation(param));
                prop_assert_eq!(got, want, "{} diverged at t={} ns", param, frame.t_end.as_nanos());
            }
        }
    }
}
