//! Property tests for histograms, the cosine similarity and metrics — the
//! similarity properties run against the *cached* frequency path
//! ([`Histogram::frequencies`] borrows) and the SoA matching engine, whose
//! `f32` and `u8` sweeps are pinned to per-pair scalar oracles.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wifiprint_core::metrics::{identification_points, similarity_curve, MatchSet};
use wifiprint_core::{
    BinSpec, EvalConfig, FrameFilter, FusedExtractor, Histogram, MatchConfig,
    MatchScratch, NetworkParameter, ParameterExtractor, ReferenceDb, Signature,
    SimilarityMeasure, TxTimeEstimator,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

/// Two histograms over one shared spec, filled from generated samples
/// (possibly empty), exercising the cached-frequency path.
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

/// Exact integer dot of two equal-length code rows: eight independent
/// `u32` partial sums over widened `u8` products, then the remainder.
fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len());
    let mut acc = [0u32; 8];
    let chunks = a.len() / 8 * 8;
    for (ca, cb) in a[..chunks].chunks_exact(8).zip(b[..chunks].chunks_exact(8)) {
        for lane in 0..8 {
            acc[lane] += u32::from(ca[lane]) * u32::from(cb[lane]);
        }
    }
    let mut total: u32 = acc.iter().sum();
    for (&x, &y) in a[chunks..].iter().zip(&b[chunks..]) {
        total += u32::from(x) * u32::from(y);
    }
    total
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
        let s = m.compute(ha.frequencies(), hb.frequencies());
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
        let ab = m.compute(ha.frequencies(), hb.frequencies());
        let ba = m.compute(hb.frequencies(), ha.frequencies());
        prop_assert!((ab - ba).abs() < 1e-9, "{m}: {ab} vs {ba}");
    }

    #[test]
    fn identical_histograms_score_one_on_cached_frequencies(
        values in prop::collection::vec(0.0f64..3000.0, 1..150),
        width in 5.0f64..250.0,
    ) {
        let (h, _) = histogram_pair(width, &values, &[]);
        let m = SimilarityMeasure::Cosine;
        let s = m.compute(h.frequencies(), h.frequencies());
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
        prop_assert_eq!(m.compute(ha.frequencies(), hb.frequencies()), 0.0, "{}", m);
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
        for &(_, s) in tile.candidate(0).similarities() {
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
            tile.views().map(|v| v.similarities().to_vec()).collect();
        for (cand, got) in candidates.iter().zip(tiled) {
            let want = db.match_tile(std::slice::from_ref(cand), m, &mut single_scratch);
            prop_assert_eq!(&got[..], want.candidate(0).similarities(), "{}", m);
        }
    }

    // The u8 cosine sweep's scores are exact integer dots folded by one
    // f64 epilogue, so they equal, with `==`, a per-pair oracle built on
    // a dense scalar `u32` dot: per reference, ascending frame kind, the
    // stored f32 weight times the clamped cosine of the two code rows.
    #[test]
    fn u8_match_tile_equals_a_per_pair_dot_u8_oracle(
        per_device in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 1..60), 1..12),
        per_candidate in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 0..60), 1..10),
        shards in 1usize..5,
    ) {
        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        let signature = |values: &[f64]| {
            let mut sig = Signature::new();
            for (j, &v) in values.iter().enumerate() {
                let kind = if j % 3 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                sig.record(kind, v, &cfg);
            }
            sig
        };
        let references: BTreeMap<MacAddr, Signature> = per_device
            .iter()
            .enumerate()
            .map(|(i, values)| (MacAddr::from_index(i as u64 + 1), signature(values)))
            .collect();
        let mut db = ReferenceDb::with_config(MatchConfig::quantized().with_shards(shards));
        for (&device, sig) in &references {
            db.insert(device, sig.clone()).unwrap();
        }
        let candidates: Vec<Signature> = per_candidate.iter().map(|v| signature(v)).collect();
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        for (ci, cand) in candidates.iter().enumerate() {
            for &(device, got) in tile.candidate(ci).similarities() {
                let reference = &references[&device];
                let mut want = 0.0f64;
                for (kind, rh) in reference.iter() {
                    let Some(ch) = cand.histogram(kind) else { continue };
                    if ch.total() == 0 {
                        continue;
                    }
                    let (cq, rq) = (ch.frequencies_u8(), rh.frequencies_u8());
                    let dot = f64::from(dot_u8(cq.values(), rq.values()));
                    let cos = (dot * f64::from(cq.inv_norm()) * f64::from(rq.inv_norm()))
                        .clamp(0.0, 1.0);
                    want += f64::from(reference.weight(kind) as f32) * cos;
                }
                prop_assert_eq!(got, want, "candidate {} vs {}", ci, device);
            }
        }
    }

    // The f32 cosine sweep is a column pass of ascending-bin f64 sums
    // over a candidate's nonzero bins, with norms from fixed-order f64
    // sums of squares. Every f32 × f32 product is exact in f64 and a zero
    // bin adds exactly +0, so its scores equal, with `==`, a per-pair
    // scalar oracle that walks every bin in order — on every host.
    // Sparse, dense and all-zero candidates, at
    // widths around the 32-lane boundary and the default 251 bins.
    #[test]
    fn f32_match_tile_equals_an_ascending_bin_f64_oracle(
        per_device in prop::collection::vec(prop::collection::vec(0u64..4, 502), 1..12),
        per_candidate in prop::collection::vec(
            (prop::collection::vec(0u64..4, 502), 0u8..3), 1..10),
        width in prop::sample::select(vec![1usize, 31, 32, 33, 251]),
        shards in 1usize..5,
    ) {
        let spec = BinSpec::Uniform { min: 0.0, width: 1.0, count: width - 1 };
        // Data reads the first half of `raw`, ProbeReq the second.
        let signature = |raw: &[u64]| {
            let mut entries = BTreeMap::new();
            for (kind, counts) in
                [(FrameKind::Data, &raw[..width]), (FrameKind::ProbeReq, &raw[251..251 + width])]
            {
                entries.insert(kind, Histogram::from_counts(spec.clone(), counts.to_vec()));
            }
            Signature::from_histograms(entries)
        };
        let references: BTreeMap<MacAddr, Signature> = per_device
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let mut raw = raw.clone();
                raw[0] = raw[0].max(1); // never an empty signature
                (MacAddr::from_index(i as u64 + 1), signature(&raw))
            })
            .collect();
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(shards));
        for (&device, sig) in &references {
            db.insert(device, sig.clone()).unwrap();
        }
        // Density 0 is an all-zero candidate, 1 a fully dense one (no
        // zero bin), 2 a sparse one keeping about one bin in four.
        let candidates: Vec<Signature> = per_candidate
            .iter()
            .map(|(raw, density)| {
                let raw: Vec<u64> = raw
                    .iter()
                    .map(|&c| match density {
                        0 => 0,
                        1 => c.max(1),
                        _ => u64::from(c == 3),
                    })
                    .collect();
                signature(&raw)
            })
            .collect();
        let inv_norm = |row: &[f32]| {
            let norm_sq = row.iter().fold(0.0, |acc, &x| acc + f64::from(x) * f64::from(x));
            if norm_sq > 0.0 { f64::from((1.0 / norm_sq.sqrt()) as f32) } else { 0.0 }
        };
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        for (ci, cand) in candidates.iter().enumerate() {
            for &(device, got) in tile.candidate(ci).similarities() {
                let reference = &references[&device];
                let mut want = 0.0f64;
                for (kind, rh) in reference.iter() {
                    let Some(ch) = cand.histogram(kind) else { continue };
                    if ch.total() == 0 || rh.total() == 0 {
                        continue;
                    }
                    let (c, r) = (ch.frequencies_f32(), rh.frequencies_f32());
                    let dot = c.iter().zip(r).fold(0.0, |acc, (&x, &y)| {
                        acc + f64::from(x) * f64::from(y)
                    });
                    let cos = (dot * inv_norm(c) * inv_norm(r)).clamp(0.0, 1.0);
                    want += f64::from(reference.weight(kind) as f32) * cos;
                }
                prop_assert_eq!(got, want, "candidate {} vs {} at width {}", ci, device, width);
            }
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
