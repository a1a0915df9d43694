//! Microbenchmarks of the fingerprinting pipeline: signature
//! construction, the cosine histogram similarity, and Algorithm 1
//! matching — including the headline comparisons for the tiled f32
//! column-sweep matching engine:
//!
//! * `match_one_candidate/{naive,matrix}/N` — the per-call-allocation
//!   f64 baseline (`match_signature_naive`, the pre-SoA layout) against
//!   the f32 column sweep (`match_tile` of one) for growing
//!   reference-database sizes up to 256 devices;
//! * `match_tile/{matvec_x8,tile_x8}` — eight independent matrix–vector
//!   sweeps versus one matrix–matrix tile over the same eight windows;
//! * `db_insert_stream/{stream,bulk}/N` — incremental appends versus the
//!   one-shot pack (streaming inserts are no longer quadratic);
//! * `match_window_batch/{serial,parallel}` — `MATCH_TILE`-wide tiles on
//!   one thread reusing a scratch versus the `parallel`-feature tile
//!   fan-out (`batch::map_tiles_with_scratch`) over a multi-window
//!   candidate set;
//! * `sharded_sweep/{dense_full,pruned_top5}` — the sharded store's
//!   dense full sweep versus the summary-pruned top-k sweep over a
//!   metropolis population (the large-population hot path);
//! * `quant_tile/{f32_dense_tile,u8_pruned_topk}` — the f32 dense
//!   8-wide tile sweep versus the quantized tile-wide pruned top-8
//!   sweep over the same metropolis store (`perf_snapshot` reports the
//!   10⁵-device ratio as `quant_tile_speedup`);
//! * `engine_ingest/observe_48k_frames` — a one-parameter streaming
//!   `MultiEngine` end to end: extraction, windowing and per-window
//!   tiled matching, the online deployment's hot path;
//! * `multi_engine_ingest/{five_engines,fused}` — five independent
//!   one-parameter engines versus one fused `MultiEngine` over the
//!   identical stream: the fused path parses each frame and keeps the
//!   timing history **once** instead of five times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use wifiprint_core::{
    batch, EvalConfig, FusionSpec, MatchConfig, MatchScratch, MultiConfig, MultiEngine,
    NetworkParameter, ReferenceDb, Signature, SignatureBuilder, SimilarityMeasure, MATCH_TILE,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::MetropolisScenario;

fn synthetic_frames(n: usize, devices: u64) -> Vec<CapturedFrame> {
    let ap = MacAddr::from_index(0xFFFF);
    (0..n)
        .map(|i| {
            let dev = MacAddr::from_index(1 + (i as u64 % devices));
            let f = Frame::data_to_ds(dev, ap, ap, 200 + (i % 7) * 100);
            CapturedFrame::from_frame(
                &f,
                Rate::R54M,
                Nanos::from_micros(300 * (i as u64 + 1)),
                -50,
            )
        })
        .collect()
}

fn synthetic_signature(seed: u64, obs: u64) -> Signature {
    let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
    let mut sig = Signature::new();
    for i in 0..obs {
        let v = ((seed * 131 + i * 37) % 2400) as f64;
        sig.record(FrameKind::Data, v, &cfg);
        if i % 5 == 0 {
            sig.record(FrameKind::ProbeReq, (seed * 17 % 500) as f64, &cfg);
        }
    }
    sig
}

fn reference_db(devices: u64) -> ReferenceDb {
    let mut db = ReferenceDb::new();
    for d in 0..devices {
        db.insert(MacAddr::from_index(d), synthetic_signature(d, 500)).unwrap();
    }
    db
}

fn bench_signature_build(c: &mut Criterion) {
    let frames = synthetic_frames(20_000, 20);
    let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
        .with_min_observations(10);
    c.bench_function("signature_build_20k_frames", |b| {
        b.iter(|| {
            let mut builder = SignatureBuilder::new(&cfg);
            for f in &frames {
                builder.push(black_box(f));
            }
            black_box(builder.finish())
        })
    });
}

fn bench_similarity(c: &mut Criterion) {
    let a = synthetic_signature(1, 2_000);
    let bvec = a.histogram(FrameKind::Data).unwrap().frequencies().to_vec();
    let avec = bvec.clone();
    let m = SimilarityMeasure::Cosine;
    let mut group = c.benchmark_group("similarity_250bins");
    group.bench_function(m.to_string(), |b| {
        b.iter(|| black_box(m.compute(black_box(&avec), black_box(&bvec))))
    });
    group.finish();
}

/// The headline tentpole comparison: naive per-call-allocation matching
/// (the seed's layout) versus the SoA matrix sweep with a reused scratch.
fn bench_matching_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_one_candidate");
    for db_size in [10u64, 50, 256] {
        let db = reference_db(db_size);
        let candidate = synthetic_signature(3, 500);
        group.bench_with_input(BenchmarkId::new("naive", db_size), &db_size, |b, _| {
            b.iter(|| black_box(db.match_signature_naive(&candidate)))
        });
        group.bench_with_input(BenchmarkId::new("matrix", db_size), &db_size, |b, _| {
            let mut scratch = MatchScratch::new();
            b.iter(|| {
                let tile = db.match_tile(
                    std::slice::from_ref(&candidate),
                    SimilarityMeasure::Cosine,
                    &mut scratch,
                );
                black_box(tile.candidate(0).best())
            })
        });
    }
    group.finish();
}

/// The tiling payoff: eight windows scored as eight matrix–vector sweeps
/// (eight passes over the reference rows) versus one matrix–matrix tile
/// (each row loaded once, dotted against all eight).
fn bench_match_tile(c: &mut Criterion) {
    let db = reference_db(256);
    let windows: Vec<Signature> = (0..8u64).map(|w| synthetic_signature(w * 11 + 3, 500)).collect();
    let mut group = c.benchmark_group("match_tile");
    group.bench_function("matvec_x8", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for cand in &windows {
                let tile =
                    db.match_tile(std::slice::from_ref(cand), SimilarityMeasure::Cosine, &mut scratch);
                acc += tile.candidate(0).best().map_or(0.0, |(_, s)| s);
            }
            black_box(acc)
        })
    });
    group.bench_function("tile_x8", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let tile = db.match_tile(&windows, SimilarityMeasure::Cosine, &mut scratch);
            let acc: f64 =
                tile.views().map(|v| v.best().map_or(0.0, |(_, s)| s)).sum();
            black_box(acc)
        })
    });
    group.finish();
}

/// Incremental growth: building a database by streaming inserts (now
/// amortised O(row) per insert) versus the one-shot bulk pack. Before
/// the append path, the stream variant repacked every block per insert —
/// quadratic in the device count.
fn bench_db_insert_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("db_insert_stream");
    for devices in [64u64, 256] {
        let sigs: Vec<(u64, Signature)> =
            (0..devices).map(|d| (d, synthetic_signature(d, 200))).collect();
        group.bench_with_input(BenchmarkId::new("stream", devices), &devices, |b, _| {
            b.iter(|| {
                let mut db = ReferenceDb::new();
                for (d, sig) in &sigs {
                    db.insert(MacAddr::from_index(*d), sig.clone()).unwrap();
                }
                black_box(db.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("bulk", devices), &devices, |b, _| {
            b.iter(|| {
                let map: BTreeMap<MacAddr, Signature> =
                    sigs.iter().map(|(d, s)| (MacAddr::from_index(*d), s.clone())).collect();
                black_box(ReferenceDb::from_signatures(map).len())
            })
        });
    }
    group.finish();
}

/// Serial versus parallel evaluation of a multi-window candidate batch
/// in `MATCH_TILE`-wide tiles against a 256-device reference DB.
fn bench_window_batch(c: &mut Criterion) {
    let db = reference_db(256);
    let candidates: Vec<Signature> =
        (0..512u64).map(|w| synthetic_signature(w % 97, 200)).collect();
    let mut group = c.benchmark_group("match_window_batch");
    group.bench_function("serial", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for tile in candidates.chunks(MATCH_TILE) {
                let view = db.match_tile(tile, SimilarityMeasure::Cosine, &mut scratch);
                acc += view.views().map(|v| v.best().map_or(0.0, |(_, s)| s)).sum::<f64>();
            }
            black_box(acc)
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(batch::map_tiles_with_scratch(
                &candidates,
                MATCH_TILE,
                MatchScratch::new,
                |scratch, tile| {
                    let view = db.match_tile(tile, SimilarityMeasure::Cosine, scratch);
                    view.views().map(|v| v.best()).collect()
                },
            ))
        })
    });
    group.finish();
}

/// The sharded-store payoff: the dense full sweep (every shard, full
/// similarity vector) versus the pruned top-k sweep (shards in bound
/// order, most skipped) over a metropolis population of heterogeneous
/// traffic mixes. `perf_snapshot` reports the same comparison at 10⁴ and
/// 10⁵ devices as `sharded_sweep_speedup`.
fn bench_sharded_sweep(c: &mut Criterion) {
    let scenario = MetropolisScenario::with_devices(3, 8192);
    let db = scenario.reference_db(MatchConfig::default().with_shards(64));
    let candidates: Vec<Signature> =
        (0..4usize).map(|i| scenario.candidate(i * 619, 2)).collect();
    let mut group = c.benchmark_group("sharded_sweep");
    group.bench_function("dense_full", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for cand in &candidates {
                let tile =
                    db.match_tile(std::slice::from_ref(cand), SimilarityMeasure::Cosine, &mut scratch);
                acc += tile.candidate(0).best().map_or(0.0, |(_, s)| s);
            }
            black_box(acc)
        })
    });
    group.bench_function("pruned_top5", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let mut acc = 0.0f64;
            for cand in &candidates {
                let tops = db.match_topk_tile(std::slice::from_ref(cand), 5, &mut scratch);
                acc += tops[0].first().map_or(0.0, |&(_, s)| s);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The quantized-tier payoff at population scale: eight candidate
/// windows against a metropolis store, once as the f32 dense tile
/// (every shard, every row, f32 columns) and once as the u8 tile-wide
/// pruned top-8 sweep (integer columns, shards skipped per candidate by
/// envelope bound).
fn bench_quant_tile(c: &mut Criterion) {
    use wifiprint_core::RowPrecision;
    let scenario = MetropolisScenario::with_devices(3, 8192);
    let f32_db = scenario.reference_db(MatchConfig::default().with_shards(64));
    let u8_db = scenario
        .reference_db(MatchConfig::default().with_shards(64).with_precision(RowPrecision::U8));
    let probes: Vec<Signature> = (0..8usize).map(|i| scenario.candidate(i * 619, 2)).collect();
    let mut group = c.benchmark_group("quant_tile");
    group.bench_function("f32_dense_tile", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let tile = f32_db.match_tile(&probes, SimilarityMeasure::Cosine, &mut scratch);
            black_box(tile.candidate(7).best())
        })
    });
    group.bench_function("u8_pruned_topk", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            black_box(u8_db.match_topk_tile(&probes, 8, &mut scratch))
        })
    });
    group.finish();
}

/// A one-parameter streaming engine end to end: per-frame extraction +
/// windowing with one tiled match sweep per closed 1 s window, against a
/// 256-device frozen reference. This is the ingest hot path of an
/// online deployment (`perf_snapshot` reports it as frames/second).
fn bench_engine_ingest(c: &mut Criterion) {
    let db = reference_db(256);
    let param = NetworkParameter::InterArrivalTime;
    let cfg = MultiConfig::default().with_min_observations(30).with_window(Nanos::from_secs(1));
    // 48k frames, 25 µs apart = 1.2 s: one full window closes mid-run.
    let frames: Vec<CapturedFrame> = (0..48_000u64)
        .map(|i| {
            let dev = MacAddr::from_index(i % 64);
            let ap = MacAddr::from_index(0xA11);
            let f = Frame::data_to_ds(dev, ap, ap, 200 + (i % 7) as usize * 100);
            CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(25 * (i + 1)), -50)
        })
        .collect();
    let mut group = c.benchmark_group("engine_ingest");
    group.bench_function("observe_48k_frames", |b| {
        b.iter(|| {
            let mut engine = MultiEngine::builder()
                .spec(FusionSpec::single(param))
                .config(cfg.clone())
                .references(BTreeMap::from([(param, db.snapshot())]))
                .build()
                .expect("valid engine configuration");
            let mut decisions = 0usize;
            for frame in &frames {
                decisions += engine.observe(frame).expect("in-order frame").len();
            }
            decisions += engine.finish().expect("first finish").len();
            black_box(decisions)
        })
    });
    group.finish();
}

/// Five independent one-parameter engines versus one fused
/// `MultiEngine`, both fed the identical 48k-frame stream against
/// 256-device references. The fused path must come in well under the
/// five-engine fan-out: extraction and history bookkeeping happen once
/// per frame instead of five times.
fn bench_multi_engine_ingest(c: &mut Criterion) {
    let multi_cfg = MultiConfig::default()
        .with_min_observations(30)
        .with_window(Nanos::from_secs(1));
    let refs: BTreeMap<NetworkParameter, ReferenceDb> = NetworkParameter::ALL
        .into_iter()
        .map(|param| {
            let cfg = multi_cfg.eval_config(param);
            let mut db = ReferenceDb::new();
            for d in 0..256u64 {
                let mut sig = Signature::new();
                for i in 0..500u64 {
                    let v = match param {
                        NetworkParameter::TransmissionRate => {
                            Rate::ALL_BG[((d + i) % 12) as usize].mbps()
                        }
                        _ => ((d * 131 + i * 37) % 2400) as f64,
                    };
                    sig.record(FrameKind::Data, v, &cfg);
                }
                db.insert(MacAddr::from_index(d), sig).expect("insert");
            }
            (param, db)
        })
        .collect();
    let frames: Vec<CapturedFrame> = (0..48_000u64)
        .map(|i| {
            let dev = MacAddr::from_index(i % 64);
            let ap = MacAddr::from_index(0xA11);
            let f = Frame::data_to_ds(dev, ap, ap, 200 + (i % 7) as usize * 100);
            CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(25 * (i + 1)), -50)
        })
        .collect();

    let mut group = c.benchmark_group("multi_engine_ingest");
    group.bench_function("five_engines", |b| {
        b.iter(|| {
            let mut engines: Vec<MultiEngine> = NetworkParameter::ALL
                .into_iter()
                .map(|param| {
                    MultiEngine::builder()
                        .spec(FusionSpec::single(param))
                        .config(multi_cfg.clone())
                        .references(BTreeMap::from([(param, refs[&param].snapshot())]))
                        .build()
                        .expect("valid engine configuration")
                })
                .collect();
            let mut decisions = 0usize;
            for frame in &frames {
                for engine in &mut engines {
                    decisions += engine.observe(frame).expect("in-order frame").len();
                }
            }
            for engine in &mut engines {
                decisions += engine.finish().expect("first finish").len();
            }
            black_box(decisions)
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            let snapshot: BTreeMap<NetworkParameter, ReferenceDb> =
                refs.iter().map(|(&p, db)| (p, db.snapshot())).collect();
            let mut engine = MultiEngine::builder()
                .spec(FusionSpec::all_equal())
                .config(multi_cfg.clone())
                .references(snapshot)
                .build()
                .expect("valid engine configuration");
            let mut decisions = 0usize;
            for frame in &frames {
                decisions += engine.observe(frame).expect("in-order frame").len();
            }
            decisions += engine.finish().expect("first finish").len();
            black_box(decisions)
        })
    });
    group.finish();
}

/// Rotation linking throughput: a periodic-rotation metropolis trail
/// streamed through a cold `RotationLinker` — founding, binding and
/// pruned gallery sweeps included — at two population sizes.
fn bench_rotation_linker(c: &mut Criterion) {
    use wifiprint_analysis::linking::metropolis_linker_config;
    use wifiprint_core::engine::linker::RotationLinker;
    use wifiprint_scenarios::{RotationPolicy, RotationScenario};

    let mut group = c.benchmark_group("rotation_linker");
    for devices in [250usize, 1000] {
        let trail = RotationScenario::new(
            MetropolisScenario::with_devices(20_120_711, devices),
            RotationPolicy::Periodic { period: 2 },
        )
        .generate();
        group.bench_function(BenchmarkId::new("periodic_p2", devices), |b| {
            b.iter(|| {
                let mut linker = RotationLinker::new(metropolis_linker_config())
                    .expect("valid linker configuration");
                for s in &trail.sightings {
                    let sigs = [(NetworkParameter::InterArrivalTime, s.signature.clone())];
                    black_box(linker.link(s.mac, s.at, &sigs));
                }
                black_box(linker.stats().identities_retained)
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_signature_build, bench_similarity, bench_matching_scaling,
        bench_match_tile, bench_db_insert_stream, bench_window_batch, bench_sharded_sweep,
        bench_quant_tile, bench_engine_ingest, bench_multi_engine_ingest, bench_rotation_linker
}
criterion_main!(benches);
