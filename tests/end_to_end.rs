//! Cross-crate integration tests: simulator → pcap → fingerprinting →
//! metrics, exercising the whole suite the way a downstream user would.

use std::collections::BTreeMap;

use wifiprint::analysis::{evaluate_frames, PipelineConfig};
use wifiprint::core::{
    load_db, save_db, EvalConfig, FusionSpec, MatchConfig, MatchOutcome,
    MatchScratch, MultiConfig, MultiEngine, MultiEvent, NetworkParameter, ReferenceDb,
    ResilienceConfig, ShardStrategy, Signature, SignatureBuilder, SimilarityMeasure,
    WindowedSignatures, F32_SCORE_TOLERANCE,
};
use wifiprint::ieee80211::{FrameKind, MacAddr, Nanos};
use wifiprint::scenarios::export::{read_pcap, write_pcap};
use wifiprint::scenarios::{ConferenceScenario, FaradayRig, OfficeScenario, FARADAY_DEVICE};

/// The dense sweep's similarity vector for one candidate (a tile of one).
fn match_one(db: &ReferenceDb, candidate: &Signature) -> MatchOutcome {
    let cosine = SimilarityMeasure::Cosine;
    db.match_tile(std::slice::from_ref(candidate), cosine, &mut MatchScratch::new())
        .candidate(0)
        .to_outcome()
}

#[test]
fn sim_to_pcap_to_fingerprint_round_trip() {
    // Generate a trace, write it to a standard pcap file, read it back,
    // and verify the fingerprinting pipeline produces identical reference
    // databases from both copies.
    let trace = OfficeScenario::small(101, 60, 8).run_collect();
    let dir = std::env::temp_dir().join("wifiprint-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round-trip.pcap");
    write_pcap(&path, &trace.frames).unwrap();
    let (reloaded, skipped) = read_pcap(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(skipped, 0);
    assert_eq!(reloaded.len(), trace.frames.len());

    let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
        .with_min_observations(30);
    let build = |frames: &[wifiprint::radiotap::CapturedFrame]| {
        let mut b = SignatureBuilder::new(&cfg);
        for f in frames {
            b.push(f);
        }
        b.finish().expect("devices qualify")
    };
    let from_sim = build(&trace.frames);
    let from_pcap = build(&reloaded);
    assert!(!from_sim.is_empty());
    assert_eq!(from_sim.len(), from_pcap.len());
    for (dev, sig) in &from_sim {
        // Timestamps quantise to µs in pcap, so histograms may shift by a
        // sub-µs amount; compare structure, not bit equality.
        let other = &from_pcap[dev];
        assert_eq!(sig.kind_count(), other.kind_count(), "{dev}");
        assert_eq!(sig.observation_count(), other.observation_count(), "{dev}");
    }
}

#[test]
fn reference_db_persists_and_matches_identically() {
    let trace = ConferenceScenario::small(55, 60, 10).run_collect();
    let cfg = EvalConfig::for_parameter(NetworkParameter::TransmissionTime)
        .with_min_observations(30);
    let mut builder = SignatureBuilder::new(&cfg);
    for f in &trace.frames {
        builder.push(f);
    }
    let sigs = builder.finish().expect("devices qualify");
    assert!(sigs.len() >= 3, "too few devices: {}", sigs.len());
    let db = ReferenceDb::from_signatures(sigs.clone());

    let mut buf = Vec::new();
    save_db(&mut buf, &db, cfg.parameter, &cfg.bins).unwrap();
    let (loaded, param, _bins) = load_db(&buf[..]).unwrap();
    assert_eq!(param, NetworkParameter::TransmissionTime);
    assert_eq!(loaded.len(), db.len());

    // Matching any candidate against the loaded DB gives identical scores.
    let candidate = sigs.values().next().unwrap();
    let a = match_one(&db, candidate);
    let b = match_one(&loaded, candidate);
    assert_eq!(a.similarities(), b.similarities());
}

#[test]
fn pipeline_identifies_devices_in_a_small_office() {
    // Seed chosen for a clear identification margin under the in-repo
    // ChaCha8 stream (the scenario is stochastic; weak draws exist).
    let scenario = OfficeScenario::small(5, 300, 10);
    let trace = scenario.run_collect();
    let cfg = PipelineConfig::miniature(100, 50, 50);
    let eval = evaluate_frames(&cfg, &trace.frames).expect("pipeline run");
    assert!(eval.ref_devices >= 6, "ref devices = {}", eval.ref_devices);
    // Identification well above the 1/N ≈ 10% chance level for the
    // timing parameters.
    let ia = eval.identification(NetworkParameter::InterArrivalTime, 0.5);
    assert!(ia > 0.3, "inter-arrival identification = {ia}");
    // The similarity AUC beats coin flipping for every parameter.
    for p in NetworkParameter::ALL {
        let auc = eval.auc(p);
        assert!(auc > 0.5, "{p}: AUC = {auc}");
    }
}

#[test]
fn same_device_matches_itself_across_reruns() {
    // Two captures of the same device profile on different days (seeds)
    // must match each other far better than a different profile does.
    let catalog = wifiprint::devices::profile_catalog();
    let sig = |profile_idx: usize, seed: u64| {
        let trace =
            FaradayRig::for_profile(&catalog[profile_idx], seed, Nanos::from_secs(8)).run();
        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        let mut b = SignatureBuilder::new(&cfg);
        for f in &trace.frames {
            b.push(f);
        }
        b.finish().expect("device qualifies").remove(&FARADAY_DEVICE).expect("signature")
    };
    let reference = sig(0, 1);
    let same_later = sig(0, 99);
    let different = sig(4, 99);
    let mut db = ReferenceDb::new();
    db.insert(FARADAY_DEVICE, reference).expect("enroll");
    let sim_same = match_one(&db, &same_later)
        .similarity_to(&FARADAY_DEVICE)
        .unwrap();
    let sim_diff = match_one(&db, &different)
        .similarity_to(&FARADAY_DEVICE)
        .unwrap();
    assert!(
        sim_same > sim_diff + 0.2,
        "same-device {sim_same:.3} vs different-device {sim_diff:.3}"
    );
}

#[test]
fn encrypted_and_open_traces_both_fingerprint() {
    // The method works on WPA traffic (§III): encryption only changes
    // frame sizes, never the observables' availability.
    for enc in [0usize, 16] {
        let mut sc = OfficeScenario::small(21, 90, 6);
        sc.encryption_overhead = enc;
        let trace = sc.run_collect();
        let cfg = PipelineConfig::miniature(30, 30, 30);
        let eval = evaluate_frames(&cfg, &trace.frames).expect("pipeline run");
        assert!(eval.ref_devices >= 4, "enc={enc}: refs = {}", eval.ref_devices);
        assert!(
            eval.auc(NetworkParameter::InterArrivalTime) > 0.5,
            "enc={enc}"
        );
    }
}

#[test]
fn anonymous_control_frames_never_produce_observations() {
    let trace = OfficeScenario::small(31, 30, 6).run_collect();
    let acks = trace
        .frames
        .iter()
        .filter(|f| matches!(f.kind, FrameKind::Ack | FrameKind::Cts))
        .count();
    assert!(acks > 50, "expected plenty of ACK/CTS frames, got {acks}");
    // Every ACK/CTS carries no transmitter, so no signature may contain
    // those kinds.
    let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize).with_min_observations(1);
    let mut builder = SignatureBuilder::new(&cfg);
    for f in &trace.frames {
        assert!(
            !(matches!(f.kind, FrameKind::Ack | FrameKind::Cts) && f.transmitter.is_some()),
            "anonymous frame with a transmitter: {f:?}"
        );
        builder.push(f);
    }
    for (dev, sig) in builder.finish().expect("devices qualify") {
        for (kind, _) in sig.iter() {
            assert!(
                !kind.is_sender_anonymous(),
                "{dev} has observations for anonymous kind {kind}"
            );
        }
    }
}

/// Every per-candidate decision of a one-parameter engine's event
/// stream: window, device and the parameter's similarity view.
fn single_decisions(events: Vec<MultiEvent>) -> Vec<(usize, MacAddr, MatchOutcome)> {
    events
        .into_iter()
        .filter_map(|e| match e {
            MultiEvent::FusedMatch { window, device, mut scores, .. }
            | MultiEvent::FusedNewDevice { window, device, mut scores, .. } => {
                Some((window, device, scores.remove(0).view))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn streaming_engine_equals_batch_pipeline_on_office_and_conference() {
    // The acceptance equivalence for the streaming engine: a
    // one-parameter engine must reproduce the batch flow's per-window
    // match decisions —
    // same (window, device) sequence, same argmax, scores within the
    // documented f32 tolerance — on both of the paper's trace shapes,
    // and the (engine-driven) analysis pipeline must agree on the
    // aggregate counts.
    let traces = [
        ("office", OfficeScenario::small(5, 300, 10).run_collect()),
        ("conference", ConferenceScenario::small(7, 300, 12).run_collect()),
    ];
    for (name, trace) in traces {
        let param = NetworkParameter::InterArrivalTime;
        let mcfg = MultiConfig::default()
            .with_min_observations(50)
            .with_window(Nanos::from_secs(50));
        let cfg = mcfg.eval_config(param);
        let train = Nanos::from_secs(100);

        // Batch flow: split at the training boundary, learn, window the
        // validation portion, sweep every candidate at the end.
        let origin = trace.frames[0].t_end;
        let mut trainer = SignatureBuilder::new(&cfg);
        let mut validator = WindowedSignatures::new(&cfg);
        for f in &trace.frames {
            if f.t_end.saturating_sub(origin) < train {
                trainer.push(f);
            } else {
                validator.push(f);
            }
        }
        let db = ReferenceDb::from_signatures(trainer.finish().expect("devices qualify"));
        let candidates = validator.finish();
        assert!(!candidates.is_empty(), "{name}: batch flow must produce candidates");

        // Streaming flow: the engine over the identical frame stream.
        let mut engine = MultiEngine::builder()
            .spec(FusionSpec::single(param))
            .config(mcfg)
            .train_for(train)
            .build()
            .expect("valid engine configuration");
        let mut events = engine.observe_all(&trace.frames).expect("frames in capture order");
        events.extend(engine.finish().expect("first finish"));

        // The online-enrolled reference matches the batch-learned one.
        let engine_db = engine.reference(param).expect("trained reference");
        assert_eq!(
            engine_db.devices().collect::<Vec<_>>(),
            db.devices().collect::<Vec<_>>(),
            "{name}: enrolled devices differ"
        );

        let decisions = single_decisions(events);
        assert_eq!(decisions.len(), candidates.len(), "{name}: decision count");

        let mut scratch = MatchScratch::new();
        let mut known = 0usize;
        for (cand, (window, device, view)) in candidates.iter().zip(&decisions) {
            assert_eq!((cand.index, cand.device), (*window, *device), "{name}");
            let sig = std::slice::from_ref(&cand.signature);
            let want = db.match_tile(sig, SimilarityMeasure::Cosine, &mut scratch).candidate(0);
            assert_eq!(
                view.best().map(|(d, _)| d),
                want.best().map(|(d, _)| d),
                "{name}: argmax for {device} in window {window}"
            );
            assert_eq!(view.similarities().len(), want.similarities().len(), "{name}");
            for (got, expect) in view.similarities().iter().zip(want.similarities()) {
                assert_eq!(got.0, expect.0, "{name}: device order");
                assert!(
                    (got.1 - expect.1).abs() < F32_SCORE_TOLERANCE,
                    "{name}: {} vs {} for {device} in window {window}",
                    got.1,
                    expect.1
                );
            }
            if db.contains(device) {
                known += 1;
            }
        }

        // The analysis pipeline (a thin driver of the same engine)
        // reports exactly the decisions counted above.
        let pcfg = PipelineConfig {
            train_duration: train,
            window: cfg.window,
            min_observations: 50,
            parameters: vec![NetworkParameter::InterArrivalTime],
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        };
        let eval = evaluate_frames(&pcfg, &trace.frames).expect("pipeline run");
        assert_eq!(
            eval.candidate_instances[&NetworkParameter::InterArrivalTime], known,
            "{name}: pipeline instance count"
        );
        assert_eq!(eval.ref_devices, db.len(), "{name}: pipeline reference count");
    }
}

#[test]
fn multi_engine_equals_five_engines_and_offline_fusion() {
    // The acceptance equivalence for the MultiEngine redesign, on both
    // of the paper's trace shapes:
    //
    // 1. per parameter, the fused engine's decisions are exactly the
    //    decisions of five one-parameter engines — same (window, device)
    //    sequence, same similarity vectors;
    // 2. the fused (combined) scores equal the offline end-of-trace
    //    combination the analysis crate's fusion evaluator historically
    //    computed: per-parameter similarity vectors weighted-averaged
    //    over the commonly enrolled devices.
    let traces = [
        ("office", OfficeScenario::small(5, 300, 10).run_collect()),
        ("conference", ConferenceScenario::small(7, 300, 12).run_collect()),
    ];
    for (name, trace) in traces {
        let mcfg = MultiConfig::default()
            .with_min_observations(50)
            .with_window(Nanos::from_secs(50));
        let spec = FusionSpec::all_equal();
        let train = Nanos::from_secs(100);

        // Streaming: one fused engine over the identical frame stream.
        let mut multi = MultiEngine::builder()
            .spec(spec.clone())
            .config(mcfg.clone())
            .train_for(train)
            .build()
            .expect("valid engine configuration");
        let mut events = multi.observe_all(&trace.frames).expect("frames in capture order");
        events.extend(multi.finish().expect("first finish"));

        // 1. Per-parameter equivalence against five one-parameter engines.
        let mut total_decisions = 0usize;
        for param in NetworkParameter::ALL {
            let mut single = MultiEngine::builder()
                .spec(FusionSpec::single(param))
                .config(mcfg.clone())
                .train_for(train)
                .build()
                .expect("valid engine configuration");
            let mut single_events =
                single.observe_all(&trace.frames).expect("frames in capture order");
            single_events.extend(single.finish().expect("first finish"));

            assert_eq!(
                single.reference(param).expect("trained").devices().collect::<Vec<_>>(),
                multi.reference(param).expect("trained").devices().collect::<Vec<_>>(),
                "{name}/{param}: enrolled devices differ"
            );

            let singles = single_decisions(single_events);
            let multis: Vec<(usize, MacAddr, MatchOutcome)> = events
                .iter()
                .filter_map(|e| match e {
                    MultiEvent::FusedMatch { window, device, scores, .. }
                    | MultiEvent::FusedNewDevice { window, device, scores, .. } => scores
                        .iter()
                        .find(|d| d.parameter == param)
                        .map(|d| (*window, *device, d.view.clone())),
                    _ => None,
                })
                .collect();
            assert!(!singles.is_empty(), "{name}/{param}: no decisions to compare");
            total_decisions += singles.len();
            // Bit for bit: the same candidates meet the same references in
            // the same tiles, whatever else the fused spec runs.
            assert!(singles == multis, "{name}/{param}: decisions differ");
        }
        assert!(total_decisions > 0, "{name}: equivalence must cover real decisions");

        // 2. Fused scores equal the offline combination: learn per-param
        //    databases and window candidates batch-style, then weighted-
        //    average the per-parameter similarity vectors per candidate.
        let configs: Vec<EvalConfig> =
            NetworkParameter::ALL.iter().map(|&p| mcfg.eval_config(p)).collect();
        let origin = trace.frames[0].t_end;
        let mut trainers: Vec<SignatureBuilder> =
            configs.iter().map(SignatureBuilder::new).collect();
        let mut validators: Vec<WindowedSignatures> =
            configs.iter().map(WindowedSignatures::new).collect();
        for f in &trace.frames {
            if f.t_end.saturating_sub(origin) < train {
                for t in &mut trainers {
                    t.push(f);
                }
            } else {
                for v in &mut validators {
                    v.push(f);
                }
            }
        }
        let dbs: Vec<ReferenceDb> = trainers
            .into_iter()
            .map(|t| ReferenceDb::from_signatures(t.finish().unwrap_or_default()))
            .collect();
        let enrolled: Vec<MacAddr> = dbs[0]
            .devices()
            .filter(|d| dbs.iter().all(|db| db.contains(d)))
            .collect();
        let mut offline: BTreeMap<(usize, MacAddr), BTreeMap<MacAddr, f64>> = BTreeMap::new();
        let n_params = configs.len();
        let mut per_key: BTreeMap<(usize, MacAddr), Vec<Option<Signature>>> =
            BTreeMap::new();
        for (i, validator) in validators.into_iter().enumerate() {
            for cand in validator.finish() {
                per_key
                    .entry((cand.index, cand.device))
                    .or_insert_with(|| vec![None; n_params])[i] = Some(cand.signature);
            }
        }
        for ((window, device), sigs) in per_key {
            if !enrolled.contains(&device) || sigs.iter().any(Option::is_none) {
                continue;
            }
            let mut fused: BTreeMap<MacAddr, f64> =
                enrolled.iter().map(|&d| (d, 0.0)).collect();
            for (i, sig) in sigs.iter().enumerate() {
                let outcome = match_one(&dbs[i], sig.as_ref().expect("checked"));
                for &(dev, sim) in outcome.similarities() {
                    if let Some(acc) = fused.get_mut(&dev) {
                        // Equal weights: each parameter contributes 1/5.
                        *acc += sim / n_params as f64;
                    }
                }
            }
            offline.insert((window, device), fused);
        }

        // The streamed fused scores must be exactly that combination.
        let mut streamed_fused = 0usize;
        for event in &events {
            let MultiEvent::FusedMatch { window, device, fused: Some(fused), .. } = event
            else {
                continue;
            };
            let want = offline
                .remove(&(*window, *device))
                .unwrap_or_else(|| panic!("{name}: no offline fusion for {device} in {window}"));
            assert_eq!(fused.similarities().len(), want.len(), "{name}: fused domain");
            for &(dev, got) in fused.similarities() {
                let expect = want[&dev];
                assert!(
                    (got - expect).abs() < F32_SCORE_TOLERANCE,
                    "{name}: fused {got} vs offline {expect} for {device} in window {window}"
                );
            }
            streamed_fused += 1;
        }
        assert!(streamed_fused > 0, "{name}: no fused decisions compared");
        assert!(
            offline.is_empty(),
            "{name}: offline fusion produced extra instances: {offline:?}"
        );
    }
}

#[test]
fn windows_shrink_when_traffic_is_sparse() {
    // A device active only in the first half of the validation period
    // yields candidate windows only there.
    let trace = OfficeScenario::small(61, 120, 5).run_collect();
    let cfg = PipelineConfig::miniature(30, 15, 50);
    let eval = evaluate_frames(&cfg, &trace.frames).expect("pipeline run");
    // 90 s validation in 15 s windows = at most 6 windows × devices.
    let n = eval.candidate_instances[&NetworkParameter::InterArrivalTime];
    assert!(n <= 6 * (eval.ref_devices + 5), "implausible candidate count {n}");
    assert!(n > 0);
}

#[test]
fn sharded_references_leave_multi_engine_decisions_unchanged() {
    // The acceptance equivalence for the sharded-store refactor: a
    // MultiEngine whose trained references use the sharded layout (any
    // strategy) must emit exactly the decisions of one using the flat
    // single-matrix layout — same event sequence, same per-parameter and
    // fused scores — on both of the paper's trace shapes.
    let traces = [
        ("office", OfficeScenario::small(5, 300, 10).run_collect()),
        ("conference", ConferenceScenario::small(7, 300, 12).run_collect()),
    ];
    let layouts = [
        ("dominant-histogram", MatchConfig::default()),
        ("mac-prefix", MatchConfig::default().with_strategy(ShardStrategy::MacPrefix)),
    ];
    for (name, trace) in traces {
        let run = |match_config: MatchConfig| {
            let mcfg = MultiConfig::default()
                .with_min_observations(50)
                .with_window(Nanos::from_secs(50))
                .with_match_config(match_config);
            let mut engine = MultiEngine::builder()
                .spec(FusionSpec::all_equal())
                .config(mcfg)
                .train_for(Nanos::from_secs(100))
                .build()
                .expect("valid engine configuration");
            let mut events = engine.observe_all(&trace.frames).expect("in-order frames");
            events.extend(engine.finish().expect("first finish"));
            events
        };
        let flat = run(MatchConfig::flat());
        for (layout, config) in layouts {
            let sharded = run(config);
            assert_eq!(flat.len(), sharded.len(), "{name}/{layout}: event count");
            let mut decisions = 0usize;
            for (a, b) in flat.iter().zip(&sharded) {
                match (a, b) {
                    (
                        MultiEvent::Enrolled { device: da, observations: oa },
                        MultiEvent::Enrolled { device: db_, observations: ob },
                    ) => {
                        assert_eq!((da, oa), (db_, ob), "{name}/{layout}: enrollment");
                    }
                    (
                        MultiEvent::FusedMatch {
                            window: wa, device: da, scores: sa, fused: fa, ..
                        },
                        MultiEvent::FusedMatch {
                            window: wb, device: db_, scores: sb, fused: fb, ..
                        },
                    )
                    | (
                        MultiEvent::FusedNewDevice {
                            window: wa, device: da, scores: sa, fused: fa, ..
                        },
                        MultiEvent::FusedNewDevice {
                            window: wb, device: db_, scores: sb, fused: fb, ..
                        },
                    ) => {
                        assert_eq!((wa, da), (wb, db_), "{name}/{layout}: decision identity");
                        assert_eq!(sa.len(), sb.len(), "{name}/{layout}: parameter count");
                        for (pa, pb) in sa.iter().zip(sb) {
                            assert_eq!(pa.parameter, pb.parameter, "{name}/{layout}");
                            assert_eq!(pa.known, pb.known, "{name}/{layout}");
                            // The sharded dense sweep is bit-identical to
                            // the flat one — exact equality, no tolerance.
                            assert_eq!(
                                pa.view.similarities(),
                                pb.view.similarities(),
                                "{name}/{layout}/{}: per-parameter scores",
                                pa.parameter
                            );
                        }
                        assert_eq!(
                            fa.as_ref().map(wifiprint::core::FusedOutcome::similarities),
                            fb.as_ref().map(wifiprint::core::FusedOutcome::similarities),
                            "{name}/{layout}: fused scores"
                        );
                        decisions += 1;
                    }
                    (
                        MultiEvent::WindowClosed { window: wa, candidates: ca, .. },
                        MultiEvent::WindowClosed { window: wb, candidates: cb, .. },
                    ) => {
                        assert_eq!((wa, ca), (wb, cb), "{name}/{layout}: window terminator");
                    }
                    other => panic!("{name}/{layout}: event sequences diverged: {other:?}"),
                }
            }
            assert!(decisions > 0, "{name}/{layout}: equivalence must cover real decisions");
        }
    }
}
