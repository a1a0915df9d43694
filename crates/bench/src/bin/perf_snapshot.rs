//! Emits a machine-readable perf snapshot (`BENCH_<n>.json`) so the
//! repository keeps a trajectory of matching-engine throughput across
//! PRs, and optionally gates CI on it.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p wifiprint-bench --bin perf_snapshot \
//!     [output.json] [--check baseline.json]
//! ```
//!
//! Default output is `BENCH_9.json` in the current directory. With
//! `--check`, the freshly measured `match_matrix_ns`,
//! `multi_engine_ingest_fps`, `sharded_sweep_speedup`,
//! `quant_tile_speedup`, `ingest_pipeline_fps`,
//! `linker_throughput_fps`, `replay_fps` and `replay_vs_materialized`
//! are compared against the committed baseline snapshot and the
//! process exits non-zero if any regressed by more than 25 % — the CI
//! perf-smoke gate.
//!
//! The measurements mirror the headline benches in
//! `crates/bench/benches/fingerprint.rs`: the naive f64 baseline versus
//! the f32 column sweep at 256 devices, the K=8 matrix–matrix tile
//! versus 8 matrix–vector sweeps, streaming insert cost, and the
//! serial-vs-parallel window batch — plus the streaming engines'
//! end-to-end ingest throughput (frames/second through extraction,
//! windowing and per-window tiled matching against 256-device
//! references): a one-parameter `MultiEngine` (`engine_ingest_*`) and
//! the fused five-parameter `MultiEngine`, whose per-frame cost must
//! stay **well below five one-parameter engines** (one header parse and
//! one timing history instead of five). Since PR 5 the snapshot also
//! measures the **sharded** store at metropolis scale: the dense full
//! sweep versus the summary-pruned top-k sweep at 10⁴ and 10⁵ enrolled
//! devices (`sharded_sweep_speedup`, with the pruned-shard fraction),
//! and records the host CPU count and OS kernel so 1-CPU artifacts
//! (`batch_speedup ≈ 1`) are self-explaining. Since PR 7 the snapshot
//! also runs the same fused stream through the **supervised ingest
//! front** (`ingest_pipeline_fps`: bounded ring + worker thread +
//! ordered sequencer under `Block`, gated) and records the shed rate of
//! a fixed overload configuration (tiny `ShedOldest` ring against an
//! artificially slowed worker — recorded for the trajectory, not gated,
//! because shed counts depend on real scheduling). Since PR 8 the
//! snapshot also streams a 1 000-device periodic-rotation trail through
//! the `RotationLinker` (`linker_throughput_fps`: sightings/second
//! through the pruned gallery sweeps at the headline operating point)
//! and records the linking precision/recall the accuracy gate pins, so
//! the trajectory keeps cost and accuracy side by side. Since PR 9 the
//! snapshot also measures the **quantized `u8` tier**: the resident
//! bytes per enrolled device on both tiers
//! (`bytes_per_device_{f32,u8}` — the `u8` store must stay at most
//! half the `f32` store), and the headline `quant_tile_speedup`: the
//! f32 dense 8-wide tile sweep versus the quantized tile-wide pruned
//! top-8 sweep over the same 10⁵-device metropolis population, with
//! the tile-wide pruned-shard fraction (`pruned_shard_fraction_k8`).
//! Since PR 10 the snapshot also measures the **zero-copy wire ingest**:
//! the borrowed radiotap→`CapturedFrame` decode of one mid-size data
//! packet (`wire_decode_ns`), the allocation-free pcap replay loop over
//! a 60 000-record in-memory capture (`replay_fps`), and the headline
//! `replay_vs_materialized` — the same capture decoded through the old
//! materializing path (fresh `Vec` per record, owned `Frame` with a
//! body copy) divided by the zero-copy loop, a same-host ratio that
//! transfers across machines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use wifiprint_core::{
    batch, EvalConfig, FusionSpec, IngestConfig, IngestPipeline, MatchConfig,
    MatchScratch, MultiConfig, MultiEngine, NetworkParameter, OverloadPolicy, ReferenceDb,
    Signature, SimilarityMeasure, MATCH_TILE,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_pcap::{LinkType, Reader, Record, Replay, Writer};
use wifiprint_radiotap::{CapturedFrame, RxFlags, RxInfo};
use wifiprint_analysis::linking::{evaluate_linking_trail, metropolis_linker_config};
use wifiprint_core::engine::linker::RotationLinker;
use wifiprint_scenarios::{MetropolisScenario, RotationPolicy, RotationScenario};

/// Allowed relative regression of the gated metrics under `--check`.
const REGRESSION_BUDGET: f64 = 0.25;

fn synthetic_signature(seed: u64, obs: u64) -> Signature {
    let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
    synthetic_signature_for(&cfg, seed, obs)
}

/// A deterministic signature whose values land inside `cfg`'s bins (the
/// transmission-rate parameter is categorical over the 802.11b/g rates).
fn synthetic_signature_for(cfg: &EvalConfig, seed: u64, obs: u64) -> Signature {
    let mut sig = Signature::new();
    for i in 0..obs {
        let v = match cfg.parameter {
            NetworkParameter::TransmissionRate => {
                Rate::ALL_BG[((seed + i) % 12) as usize].mbps()
            }
            _ => ((seed * 131 + i * 37) % 2400) as f64,
        };
        sig.record(FrameKind::Data, v, cfg);
        if i % 5 == 0 {
            let probe = match cfg.parameter {
                NetworkParameter::TransmissionRate => Rate::R1M.mbps(),
                _ => (seed * 17 % 500) as f64,
            };
            sig.record(FrameKind::ProbeReq, probe, cfg);
        }
    }
    sig
}

/// Median per-iteration nanoseconds over `samples` timed samples.
fn measure<F: FnMut()>(samples: usize, iters_per_sample: usize, mut f: F) -> f64 {
    // Warm-up.
    for _ in 0..iters_per_sample {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters_per_sample as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
    times[times.len() / 2]
}

/// Pulls a numeric field out of a previous snapshot without a JSON
/// dependency (the format is this binary's own single-level output).
fn read_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let mut out_path = "BENCH_9.json".to_owned();
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check_path = Some(args.next().expect("--check requires a baseline path"));
        } else {
            out_path = arg;
        }
    }

    let mut db = ReferenceDb::new();
    for d in 0..256u64 {
        db.insert(MacAddr::from_index(d), synthetic_signature(d, 500)).expect("insert");
    }
    let candidate = synthetic_signature(3, 500);
    let windows: Vec<Signature> =
        (0..8u64).map(|w| synthetic_signature(w * 11 + 3, 500)).collect();
    let candidates: Vec<Signature> =
        (0..512u64).map(|w| synthetic_signature(w % 97, 200)).collect();

    // Headline: naive f64 baseline vs the f32 column sweep (a
    // tile of one).
    let naive_ns = measure(15, 20, || {
        std::hint::black_box(db.match_signature_naive(&candidate));
    });
    let mut scratch = MatchScratch::new();
    let matrix_ns = measure(15, 20, || {
        let tile = db.match_tile(
            std::slice::from_ref(&candidate),
            SimilarityMeasure::Cosine,
            &mut scratch,
        );
        std::hint::black_box(tile.candidate(0).best());
    });

    // Tiling: 8 matrix–vector sweeps vs one K=8 matrix–matrix tile
    // (both reported per tile of 8 windows).
    let matvec8_ns = measure(15, 10, || {
        for cand in &windows {
            let tile =
                db.match_tile(std::slice::from_ref(cand), SimilarityMeasure::Cosine, &mut scratch);
            std::hint::black_box(tile.candidate(0).best());
        }
    });
    let tile_ns = measure(15, 10, || {
        let tile = db.match_tile(&windows, SimilarityMeasure::Cosine, &mut scratch);
        std::hint::black_box(tile.candidate(7).best());
    });

    // Streaming inserts: per-device cost of growing to 256 devices.
    let insert_sigs: Vec<Signature> = (0..256u64).map(|d| synthetic_signature(d, 200)).collect();
    let insert_ns = measure(9, 1, || {
        let mut fresh = ReferenceDb::new();
        for (d, sig) in insert_sigs.iter().enumerate() {
            fresh.insert(MacAddr::from_index(d as u64), sig.clone()).expect("insert");
        }
        std::hint::black_box(fresh.len());
    }) / insert_sigs.len() as f64;

    // The window batch in MATCH_TILE-wide tiles: one thread reusing a
    // scratch vs the tile fan-out across workers.
    let mut serial_scratch = MatchScratch::new();
    let serial_ns = measure(9, 1, || {
        let mut acc = 0.0f64;
        for tile in candidates.chunks(MATCH_TILE) {
            let view = db.match_tile(tile, SimilarityMeasure::Cosine, &mut serial_scratch);
            acc += view.views().map(|v| v.best().map_or(0.0, |(_, s)| s)).sum::<f64>();
        }
        std::hint::black_box(acc);
    });
    let parallel_ns = measure(9, 1, || {
        std::hint::black_box(batch::map_tiles_with_scratch(
            &candidates,
            MATCH_TILE,
            MatchScratch::new,
            |scratch, tile| {
                let view = db.match_tile(tile, SimilarityMeasure::Cosine, scratch);
                view.views().map(|v| v.best()).collect()
            },
        ));
    });

    // Engine ingest: the streaming facade end to end over one parameter
    // — per-frame extraction + windowing, one tiled match sweep per
    // closed 1 s window, 64 active devices against the 256-device
    // reference.
    let engine_param = NetworkParameter::InterArrivalTime;
    let engine_cfg =
        MultiConfig::default().with_min_observations(30).with_window(Nanos::from_secs(1));
    let stream_devices = 64u64;
    let engine_frames: Vec<CapturedFrame> = (0..240_000u64)
        .map(|i| {
            let dev = MacAddr::from_index(i % stream_devices);
            let ap = MacAddr::from_index(0xA11);
            // 25 µs between consecutive captures on the channel: the
            // 240k-frame stream spans 6 s, so six 1 s windows close
            // mid-run with ~625 observations per device each.
            let f = Frame::data_to_ds(dev, ap, ap, 200 + (i % 7) as usize * 100);
            CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(25 * (i + 1)), -50)
        })
        .collect();
    let engine_ingest_ns = measure(5, 1, || {
        let mut engine = MultiEngine::builder()
            .spec(FusionSpec::single(engine_param))
            .config(engine_cfg.clone())
            .references(BTreeMap::from([(engine_param, db.snapshot())]))
            .build()
            .expect("valid engine configuration");
        let mut decisions = 0usize;
        for frame in &engine_frames {
            decisions += engine.observe(frame).expect("in-order frame").len();
        }
        decisions += engine.finish().expect("first finish").len();
        std::hint::black_box(decisions);
    }) / engine_frames.len() as f64;
    let engine_ingest_fps = 1e9 / engine_ingest_ns;

    // MultiEngine ingest: the same stream through the fused
    // five-parameter engine — one header parse and one timing history
    // per frame instead of five, five per-parameter reference sweeps as
    // each window closes. The per-frame cost must stay well below five
    // one-parameter engines.
    let multi_cfg = MultiConfig::default()
        .with_min_observations(30)
        .with_window(Nanos::from_secs(1));
    let multi_refs: BTreeMap<NetworkParameter, ReferenceDb> = NetworkParameter::ALL
        .into_iter()
        .map(|param| {
            let cfg = multi_cfg.eval_config(param);
            let mut db = ReferenceDb::new();
            for d in 0..256u64 {
                db.insert(MacAddr::from_index(d), synthetic_signature_for(&cfg, d, 500))
                    .expect("insert");
            }
            (param, db)
        })
        .collect();
    let multi_engine_ingest_ns = measure(5, 1, || {
        let refs: BTreeMap<NetworkParameter, ReferenceDb> =
            multi_refs.iter().map(|(&p, db)| (p, db.snapshot())).collect();
        let mut engine = MultiEngine::builder()
            .spec(FusionSpec::all_equal())
            .config(multi_cfg.clone())
            .references(refs)
            .build()
            .expect("valid engine configuration");
        let mut decisions = 0usize;
        for frame in &engine_frames {
            decisions += engine.observe(frame).expect("in-order frame").len();
        }
        decisions += engine.finish().expect("first finish").len();
        std::hint::black_box(decisions);
    }) / engine_frames.len() as f64;
    let multi_engine_ingest_fps = 1e9 / multi_engine_ingest_ns;
    // How many one-parameter engines one fused pass costs; five
    // independent engines would sit at 5.0.
    let multi_vs_single = multi_engine_ingest_ns / engine_ingest_ns;

    // Supervised ingest front: the same fused stream submitted through
    // the bounded ring to the engine's worker thread under `Block`
    // (lossless back-pressure — bit-identical to the synchronous run).
    // The per-frame cost adds ring hand-off + ordered sequencing on top
    // of the fused engine work, so the fps floor gates the whole front.
    let build_multi = || {
        let refs: BTreeMap<NetworkParameter, ReferenceDb> =
            multi_refs.iter().map(|(&p, db)| (p, db.snapshot())).collect();
        MultiEngine::builder()
            .spec(FusionSpec::all_equal())
            .config(multi_cfg.clone())
            .references(refs)
            .build()
            .expect("valid engine configuration")
    };
    let ingest_pipeline_ns = measure(5, 1, || {
        let pipeline = IngestPipeline::spawn(build_multi(), IngestConfig::default())
            .expect("spawn supervised pipeline");
        for frame in &engine_frames {
            pipeline.submit(frame).expect("open pipeline");
        }
        let report = pipeline.finish().expect("pipeline terminates");
        assert!(report.is_reconciled(), "ledger must reconcile");
        std::hint::black_box(report.events.len());
    }) / engine_frames.len() as f64;
    let ingest_pipeline_fps = 1e9 / ingest_pipeline_ns;

    // Fixed overload configuration: a tiny ShedOldest ring against an
    // artificially slowed worker on a 50k-frame prefix. The shed rate
    // depends on real scheduling, so it is recorded for the trajectory
    // but not gated.
    let overload_frames = &engine_frames[..50_000];
    let overload_cfg = IngestConfig::default()
        .with_capacity(8)
        .with_overload(OverloadPolicy::ShedOldest)
        .with_sweep_delay(std::time::Duration::from_micros(5));
    let ingest_shed_rate = {
        let pipeline =
            IngestPipeline::spawn(build_multi(), overload_cfg).expect("spawn overload pipeline");
        for frame in overload_frames {
            pipeline.submit(frame).expect("open pipeline");
        }
        let report = pipeline.finish().expect("pipeline terminates");
        assert!(report.is_reconciled(), "overload ledger must reconcile");
        report.stats.shed_rate()
    };

    // Sharded sweeps at metropolis scale: the dense full sweep (every
    // shard, full similarity vector) versus the pruned top-5 sweep over
    // the same store, at 10^4 and 10^5 enrolled devices. The speedup is
    // a ratio of two measurements on the same hardware, so the gate
    // transfers across hosts better than absolute nanoseconds.
    let sharded_cfg = MatchConfig::default().with_shards(64);
    let mut sharded = Vec::new();
    let (mut bytes_per_device_f32, mut bytes_per_device_u8) = (0.0f64, 0.0f64);
    let (mut quant_f32_tile_ns, mut quant_u8_tile_ns) = (f64::NAN, f64::NAN);
    let mut pruned_fraction_k8 = 0.0f64;
    for devices in [10_000usize, 100_000] {
        let scenario = MetropolisScenario::with_devices(17, devices);
        let db = scenario.reference_db(sharded_cfg);
        let probes: Vec<Signature> =
            (0..8usize).map(|i| scenario.candidate((i * 997) % devices, 2)).collect();
        let mut scratch = MatchScratch::new();
        let dense_ns = measure(7, 1, || {
            for cand in &probes {
                let tile = db.match_tile(
                    std::slice::from_ref(cand),
                    SimilarityMeasure::Cosine,
                    &mut scratch,
                );
                std::hint::black_box(tile.candidate(0).best());
            }
        }) / probes.len() as f64;
        let topk_ns = measure(7, 1, || {
            for cand in &probes {
                std::hint::black_box(db.match_topk_tile(
                    std::slice::from_ref(cand),
                    5,
                    &mut scratch,
                ));
            }
        }) / probes.len() as f64;
        let (mut swept, mut pruned) = (0usize, 0usize);
        for cand in &probes {
            db.match_topk_tile(std::slice::from_ref(cand), 5, &mut scratch);
            let stats = scratch.prune_stats();
            swept += stats.swept_shards;
            pruned += stats.pruned_shards;
        }
        let fraction = pruned as f64 / (swept + pruned).max(1) as f64;
        sharded.push((devices, dense_ns, topk_ns, dense_ns / topk_ns, fraction));

        // Quantized tier at the 10⁵ operating point: the f32 dense
        // 8-wide tile sweep (every shard, every row, f32 columns)
        // versus the u8 tile-wide pruned top-8 sweep over the same
        // population — the PR 9 headline. Both numbers are per tile of
        // 8 candidates, so the speedup folds storage (4× smaller rows),
        // integer column passes and tile-wide pruning into one ratio.
        if devices == 100_000 {
            let u8_db = scenario.reference_db(MatchConfig::quantized().with_shards(64));
            bytes_per_device_f32 = db.row_bytes() as f64 / devices as f64;
            bytes_per_device_u8 = u8_db.row_bytes() as f64 / devices as f64;
            assert!(
                bytes_per_device_u8 * 2.0 <= bytes_per_device_f32,
                "quantized rows must at most halve the f32 resident bytes"
            );
            quant_f32_tile_ns = measure(7, 1, || {
                let tile = db.match_tile(&probes, SimilarityMeasure::Cosine, &mut scratch);
                std::hint::black_box(tile.candidate(7).best());
            });
            quant_u8_tile_ns = measure(7, 1, || {
                std::hint::black_box(u8_db.match_topk_tile(
                    &probes,
                    8,
                    &mut scratch,
                ));
            });
            u8_db.match_topk_tile(&probes, 8, &mut scratch);
            let stats = scratch.prune_stats();
            pruned_fraction_k8 = stats.pruned_fraction();
        }
    }
    let (_, sharded_dense_10k, sharded_topk_10k, sharded_speedup_10k, pruned_fraction_10k) =
        sharded[0];
    let (_, sharded_dense_ns, sharded_topk_ns, sharded_speedup, pruned_fraction) = sharded[1];
    let quant_tile_speedup = quant_f32_tile_ns / quant_u8_tile_ns;

    // Rotation linking at the headline operating point: a 1 000-device
    // metropolis slice rotating periodically (fresh MAC every 2
    // sightings), streamed through the RotationLinker cold. Throughput
    // is sightings/second through the pruned gallery sweeps; the
    // accuracy numbers are the same quantities the CI linking gate
    // pins, recorded here so the trajectory shows cost next to them.
    let link_trail = RotationScenario::new(
        MetropolisScenario::with_devices(20_120_711, 1000),
        RotationPolicy::Periodic { period: 2 },
    )
    .generate();
    let linker_ns = measure(5, 1, || {
        let mut linker =
            RotationLinker::new(metropolis_linker_config()).expect("valid linker configuration");
        let mut decided = 0usize;
        for s in &link_trail.sightings {
            let sigs = [(NetworkParameter::InterArrivalTime, s.signature.clone())];
            decided += usize::from(linker.link(s.mac, s.at, &sigs).identity().is_some());
        }
        std::hint::black_box(decided);
    }) / link_trail.sightings.len() as f64;
    let linker_throughput_fps = 1e9 / linker_ns;
    let link_point = evaluate_linking_trail(&link_trail, metropolis_linker_config())
        .expect("valid linker configuration");
    let linker_stats = link_point.stats;

    // Zero-copy wire ingest: a 60 000-record (~35 MB) radiotap capture
    // built in memory once, then (a) replayed through the borrowed-slice
    // path — records viewed in place, `WireFrame` header arithmetic,
    // zero copies and zero allocations, record bodies never read — and
    // (b) decoded through the materialized baseline: a fresh `Vec` per
    // record plus an owned `Frame` with its body copy, every byte
    // touched. The headline is their same-host ratio.
    let replay_records: u64 = 60_000;
    let capture = {
        let ap = MacAddr::from_index(0xA11);
        let mut file = Vec::with_capacity(40 << 20);
        let mut writer =
            Writer::new(&mut file, LinkType::Ieee80211Radiotap).expect("in-memory writer");
        for i in 0..replay_records {
            let dev = MacAddr::from_index(i % stream_devices);
            let frame = Frame::data_to_ds(dev, ap, ap, 200 + (i % 7) as usize * 100);
            let info = RxInfo {
                tsft_us: Some(25 * (i + 1)),
                rate: Some(Rate::R54M),
                signal_dbm: Some(-50),
                flags: RxFlags::FCS_INCLUDED,
                ..RxInfo::default()
            };
            let mut packet = info.to_radiotap();
            packet.extend_from_slice(&frame.to_bytes());
            writer
                .write_record(&Record::from_micros(25 * (i + 1), packet))
                .expect("in-memory write");
        }
        file
    };

    // Single-packet borrowed decode: radiotap header walk + WireFrame
    // header arithmetic on a mid-size data frame, no copies.
    let sample_packet = {
        let frame =
            Frame::data_to_ds(MacAddr::from_index(1), MacAddr::from_index(2), MacAddr::from_index(2), 500);
        let info = RxInfo {
            tsft_us: Some(1),
            rate: Some(Rate::R54M),
            signal_dbm: Some(-50),
            flags: RxFlags::FCS_INCLUDED,
            ..RxInfo::default()
        };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        packet
    };
    let wire_decode_ns = measure(15, 20_000, || {
        std::hint::black_box(
            CapturedFrame::from_radiotap_packet(&sample_packet, Nanos::ZERO).expect("valid packet"),
        );
    });

    // The borrowed-slice replay path: records are subslices of the
    // in-memory file, bodies are never touched, nothing allocates.
    let replay_ns = measure(15, 1, || {
        let mut replay = Replay::from_slice(&capture).expect("dlt 127");
        let mut decoded = 0u64;
        while let Some(frame) = replay.next_frame().expect("well-formed stream") {
            decoded += 1;
            std::hint::black_box(frame.size);
        }
        assert_eq!(decoded, replay_records);
    }) / replay_records as f64;
    let replay_fps = 1e9 / replay_ns;

    let materialized_ns = measure(15, 1, || {
        let mut reader = Reader::new(&capture[..]).expect("readable capture");
        let mut decoded = 0u64;
        while let Some(rec) = reader.next_record().expect("well-formed stream") {
            let (info, hdr_len) = RxInfo::from_radiotap(&rec.data).expect("valid header");
            let frame = Frame::parse(&rec.data[hdr_len..]).expect("valid frame");
            let cap = CapturedFrame::from_frame(
                &frame,
                info.rate.unwrap_or(Rate::R1M),
                info.tsft_us.map(Nanos::from_micros).unwrap_or(Nanos::from_nanos(rec.timestamp_nanos())),
                info.signal_dbm.unwrap_or(-70),
            );
            decoded += 1;
            std::hint::black_box(cap.size);
        }
        assert_eq!(decoded, replay_records);
    }) / replay_records as f64;
    let replay_vs_materialized = materialized_ns / replay_ns;

    let match_speedup = naive_ns / matrix_ns;
    let tile_speedup = matvec8_ns / tile_ns;
    let batch_speedup = serial_ns / parallel_ns;
    let mut json = String::from("{\n");
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Host provenance: a 1-CPU container necessarily reports
    // batch_speedup ~ 1, and the OS kernel identifies the machine class
    // the absolute numbers came from.
    let host_kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let _ = writeln!(json, "  \"schema\": \"wifiprint-bench-snapshot-v10\",");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"host_os\": \"{}\",", std::env::consts::OS);
    let _ = writeln!(json, "  \"host_kernel\": \"{host_kernel}\",");
    let _ = writeln!(json, "  \"reference_devices\": 256,");
    let _ = writeln!(json, "  \"batch_windows\": 512,");
    let _ = writeln!(json, "  \"match_naive_ns\": {naive_ns:.0},");
    let _ = writeln!(json, "  \"match_matrix_ns\": {matrix_ns:.0},");
    let _ = writeln!(json, "  \"match_speedup\": {match_speedup:.2},");
    let _ = writeln!(json, "  \"tile_k\": 8,");
    let _ = writeln!(json, "  \"tile_matvec_ns\": {matvec8_ns:.0},");
    let _ = writeln!(json, "  \"tile_ns\": {tile_ns:.0},");
    let _ = writeln!(json, "  \"tile_speedup\": {tile_speedup:.2},");
    let _ = writeln!(json, "  \"insert_stream_ns_per_device\": {insert_ns:.0},");
    let _ = writeln!(json, "  \"batch_serial_ns\": {serial_ns:.0},");
    let _ = writeln!(json, "  \"batch_parallel_ns\": {parallel_ns:.0},");
    let _ = writeln!(json, "  \"batch_speedup\": {batch_speedup:.2},");
    let _ = writeln!(json, "  \"engine_stream_devices\": {stream_devices},");
    let _ = writeln!(json, "  \"engine_window_secs\": 1,");
    let _ = writeln!(json, "  \"engine_frames\": {},", engine_frames.len());
    let _ = writeln!(json, "  \"engine_ingest_ns_per_frame\": {engine_ingest_ns:.0},");
    let _ = writeln!(json, "  \"engine_ingest_fps\": {engine_ingest_fps:.0},");
    let _ = writeln!(json, "  \"shard_count\": 64,");
    let _ = writeln!(json, "  \"shard_strategy\": \"dominant-histogram\",");
    let _ = writeln!(json, "  \"sharded_topk\": 5,");
    let _ = writeln!(json, "  \"sharded_devices_10k\": 10000,");
    let _ = writeln!(json, "  \"sharded_dense_ns_10k\": {sharded_dense_10k:.0},");
    let _ = writeln!(json, "  \"sharded_topk_ns_10k\": {sharded_topk_10k:.0},");
    let _ = writeln!(json, "  \"sharded_sweep_speedup_10k\": {sharded_speedup_10k:.2},");
    let _ = writeln!(json, "  \"pruned_shard_fraction_10k\": {pruned_fraction_10k:.3},");
    let _ = writeln!(json, "  \"sharded_devices\": 100000,");
    let _ = writeln!(json, "  \"sharded_dense_ns\": {sharded_dense_ns:.0},");
    let _ = writeln!(json, "  \"sharded_topk_ns\": {sharded_topk_ns:.0},");
    let _ = writeln!(json, "  \"sharded_sweep_speedup\": {sharded_speedup:.2},");
    let _ = writeln!(json, "  \"pruned_shard_fraction\": {pruned_fraction:.3},");
    let _ = writeln!(json, "  \"quant_tile_k\": 8,");
    let _ = writeln!(json, "  \"quant_f32_tile_ns\": {quant_f32_tile_ns:.0},");
    let _ = writeln!(json, "  \"quant_u8_tile_topk_ns\": {quant_u8_tile_ns:.0},");
    let _ = writeln!(json, "  \"quant_tile_speedup\": {quant_tile_speedup:.2},");
    let _ = writeln!(json, "  \"pruned_shard_fraction_k8\": {pruned_fraction_k8:.3},");
    let _ = writeln!(json, "  \"bytes_per_device_f32\": {bytes_per_device_f32:.0},");
    let _ = writeln!(json, "  \"bytes_per_device_u8\": {bytes_per_device_u8:.0},");
    let _ = writeln!(json, "  \"multi_engine_parameters\": 5,");
    let _ = writeln!(json, "  \"multi_engine_ingest_ns_per_frame\": {multi_engine_ingest_ns:.0},");
    let _ = writeln!(json, "  \"multi_engine_ingest_fps\": {multi_engine_ingest_fps:.0},");
    let _ = writeln!(json, "  \"multi_vs_single_frame_cost\": {multi_vs_single:.2},");
    let _ = writeln!(json, "  \"ingest_ring_capacity\": 1024,");
    let _ = writeln!(json, "  \"ingest_pipeline_ns_per_frame\": {ingest_pipeline_ns:.0},");
    let _ = writeln!(json, "  \"ingest_pipeline_fps\": {ingest_pipeline_fps:.0},");
    let _ = writeln!(json, "  \"ingest_overload_frames\": {},", overload_frames.len());
    let _ = writeln!(json, "  \"ingest_shed_rate\": {ingest_shed_rate:.3},");
    let _ = writeln!(json, "  \"linker_devices\": 1000,");
    let _ = writeln!(json, "  \"linker_sightings\": {},", link_trail.sightings.len());
    let _ = writeln!(json, "  \"linker_ns_per_sighting\": {linker_ns:.0},");
    let _ = writeln!(json, "  \"linker_throughput_fps\": {linker_throughput_fps:.0},");
    let _ = writeln!(json, "  \"linker_precision_periodic\": {:.3},", link_point.precision());
    let _ = writeln!(json, "  \"linker_recall_periodic\": {:.3},", link_point.recall());
    let _ = writeln!(json, "  \"linker_merge_rate_periodic\": {:.3},", link_point.merge_rate());
    let _ = writeln!(json, "  \"linker_identities\": {},", link_point.identities_founded);
    let _ = writeln!(json, "  \"linker_pruned_fraction\": {:.3},", linker_stats.pruned_fraction());
    let _ = writeln!(json, "  \"replay_records\": {replay_records},");
    let _ = writeln!(json, "  \"wire_decode_ns\": {wire_decode_ns:.1},");
    let _ = writeln!(json, "  \"replay_ns_per_record\": {replay_ns:.0},");
    let _ = writeln!(json, "  \"replay_fps\": {replay_fps:.0},");
    let _ = writeln!(json, "  \"materialized_ns_per_record\": {materialized_ns:.0},");
    let _ = writeln!(json, "  \"replay_vs_materialized\": {replay_vs_materialized:.2}");
    json.push('}');

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline_matrix = read_field(&baseline, "match_matrix_ns")
            .expect("baseline lacks match_matrix_ns");
        let limit = baseline_matrix * (1.0 + REGRESSION_BUDGET);
        if matrix_ns > limit {
            eprintln!(
                "PERF REGRESSION: match_matrix_ns {matrix_ns:.0} exceeds {limit:.0} \
                 (baseline {baseline_matrix:.0} + {:.0}%)",
                REGRESSION_BUDGET * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "perf check ok: match_matrix_ns {matrix_ns:.0} within {:.0}% of baseline {baseline_matrix:.0}",
            REGRESSION_BUDGET * 100.0
        );
        // Pre-v4 baselines carry no multi-engine number; the matrix
        // gate above still applies.
        if let Some(baseline_fps) = read_field(&baseline, "multi_engine_ingest_fps") {
            let floor = baseline_fps * (1.0 - REGRESSION_BUDGET);
            if multi_engine_ingest_fps < floor {
                eprintln!(
                    "PERF REGRESSION: multi_engine_ingest_fps {multi_engine_ingest_fps:.0} \
                     below {floor:.0} (baseline {baseline_fps:.0} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: multi_engine_ingest_fps {multi_engine_ingest_fps:.0} within \
                 {:.0}% of baseline {baseline_fps:.0}",
                REGRESSION_BUDGET * 100.0
            );
        }
        // Pre-v6 baselines carry no supervised-ingest number.
        if let Some(baseline_fps) = read_field(&baseline, "ingest_pipeline_fps") {
            let floor = baseline_fps * (1.0 - REGRESSION_BUDGET);
            if ingest_pipeline_fps < floor {
                eprintln!(
                    "PERF REGRESSION: ingest_pipeline_fps {ingest_pipeline_fps:.0} below \
                     {floor:.0} (baseline {baseline_fps:.0} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: ingest_pipeline_fps {ingest_pipeline_fps:.0} within {:.0}% of \
                 baseline {baseline_fps:.0}",
                REGRESSION_BUDGET * 100.0
            );
        }
        // Pre-v7 baselines carry no linker number.
        if let Some(baseline_fps) = read_field(&baseline, "linker_throughput_fps") {
            let floor = baseline_fps * (1.0 - REGRESSION_BUDGET);
            if linker_throughput_fps < floor {
                eprintln!(
                    "PERF REGRESSION: linker_throughput_fps {linker_throughput_fps:.0} below \
                     {floor:.0} (baseline {baseline_fps:.0} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: linker_throughput_fps {linker_throughput_fps:.0} within {:.0}% \
                 of baseline {baseline_fps:.0}",
                REGRESSION_BUDGET * 100.0
            );
        }
        // Pre-v8 baselines carry no quantized-tier numbers. The tile
        // speedup is a ratio of two same-host measurements, so it gates
        // the integer column passes + tile-wide pruning without pinning
        // absolute nanoseconds.
        if let Some(baseline_speedup) = read_field(&baseline, "quant_tile_speedup") {
            let floor = baseline_speedup * (1.0 - REGRESSION_BUDGET);
            if quant_tile_speedup < floor {
                eprintln!(
                    "PERF REGRESSION: quant_tile_speedup {quant_tile_speedup:.2} below \
                     {floor:.2} (baseline {baseline_speedup:.2} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: quant_tile_speedup {quant_tile_speedup:.2} within {:.0}% of \
                 baseline {baseline_speedup:.2}",
                REGRESSION_BUDGET * 100.0
            );
        }
        if let Some(baseline_bytes) = read_field(&baseline, "bytes_per_device_u8") {
            // Storage is deterministic, not timing: any growth of the
            // quantized row footprint is a layout regression.
            if bytes_per_device_u8 > baseline_bytes * 1.01 {
                eprintln!(
                    "PERF REGRESSION: bytes_per_device_u8 {bytes_per_device_u8:.0} exceeds \
                     baseline {baseline_bytes:.0}"
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: bytes_per_device_u8 {bytes_per_device_u8:.0} at or below \
                 baseline {baseline_bytes:.0}"
            );
        }
        // Pre-v9 baselines carry no zero-copy replay numbers. The
        // replay_vs_materialized ratio is two same-host measurements, so
        // it gates the borrowed decode without pinning nanoseconds;
        // replay_fps additionally guards the absolute loop cost on the
        // (fixed) CI machine class.
        if let Some(baseline_fps) = read_field(&baseline, "replay_fps") {
            let floor = baseline_fps * (1.0 - REGRESSION_BUDGET);
            if replay_fps < floor {
                eprintln!(
                    "PERF REGRESSION: replay_fps {replay_fps:.0} below {floor:.0} \
                     (baseline {baseline_fps:.0} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: replay_fps {replay_fps:.0} within {:.0}% of baseline \
                 {baseline_fps:.0}",
                REGRESSION_BUDGET * 100.0
            );
        }
        if let Some(baseline_speedup) = read_field(&baseline, "replay_vs_materialized") {
            let floor = baseline_speedup * (1.0 - REGRESSION_BUDGET);
            if replay_vs_materialized < floor {
                eprintln!(
                    "PERF REGRESSION: replay_vs_materialized {replay_vs_materialized:.2} \
                     below {floor:.2} (baseline {baseline_speedup:.2} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: replay_vs_materialized {replay_vs_materialized:.2} within \
                 {:.0}% of baseline {baseline_speedup:.2}",
                REGRESSION_BUDGET * 100.0
            );
        }
        // Pre-v5 baselines carry no sharded-sweep number.
        if let Some(baseline_speedup) = read_field(&baseline, "sharded_sweep_speedup") {
            let floor = baseline_speedup * (1.0 - REGRESSION_BUDGET);
            if sharded_speedup < floor {
                eprintln!(
                    "PERF REGRESSION: sharded_sweep_speedup {sharded_speedup:.2} below \
                     {floor:.2} (baseline {baseline_speedup:.2} - {:.0}%)",
                    REGRESSION_BUDGET * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf check ok: sharded_sweep_speedup {sharded_speedup:.2} within {:.0}% of \
                 baseline {baseline_speedup:.2}",
                REGRESSION_BUDGET * 100.0
            );
        }
    }
}
