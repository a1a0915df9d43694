//! The CI perf gate: times nine quantities of the matching engine, the
//! ingest fronts, the rotation linker and pcap replay, writes them as a
//! one-level JSON snapshot and, with `--check`, compares them against a
//! committed anchor snapshot.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p wifiprint-bench --bin perf_snapshot -- \
//!     <output.json> [--check <anchor.json>]
//! ```
//!
//! The gated quantities and what they run:
//!
//! * `match_matrix_ns` — one candidate swept against a 256-device f32
//!   reference (a `match_tile` of one).
//! * `multi_engine_ingest_fps` — 240 000 frames from 64 devices through
//!   the fused five-parameter `MultiEngine` (1 s windows, 256-device
//!   references per parameter).
//! * `ingest_pipeline_fps` — the same stream through the supervised
//!   `IngestPipeline` under lossless `Block`; its ledger must reconcile.
//! * `sharded_sweep_speedup` — the dense full sweep's time divided by
//!   the pruned top-5 sweep's, over 10⁵ enrolled metropolis devices in
//!   64 shards.
//! * `quant_tile_speedup` — the f32 dense 8-wide tile sweep's time
//!   divided by the quantized tile-wide pruned top-8 sweep's, on the
//!   same population.
//! * `bytes_per_device_u8` — resident row bytes per device on the `u8`
//!   tier, which must stay at most half the `f32` tier's (asserted).
//! * `linker_throughput_fps` — sightings/second of a 1 000-device
//!   periodic-rotation trail through a cold `RotationLinker`.
//! * `replay_fps` — records/second of the zero-copy replay of a
//!   60 000-record in-memory radiotap capture.
//! * `replay_vs_materialized` — the time to decode the same capture
//!   through owned records and frames divided by the zero-copy
//!   replay's.
//!
//! The three speedups divide two measurements taken on the same host,
//! so they transfer across machines; the throughputs and
//! `match_matrix_ns` assume a host like the one that wrote the anchor.
//! The snapshot also records the CPU count, OS and kernel.
//!
//! With `--check` the anchor is read before anything is written (an
//! output path naming the anchor is refused). A timing may be worse
//! than its anchor value by at most `REGRESSION_BUDGET` (25 %); the
//! byte footprint is deterministic and may grow by at most
//! `BYTES_BUDGET` (1 %). A quantity the anchor lacks fails. Every
//! failure is printed before the process exits 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use wifiprint_analysis::linking::metropolis_linker_config;
use wifiprint_core::engine::linker::RotationLinker;
use wifiprint_core::{
    EvalConfig, FusionSpec, IngestConfig, IngestPipeline, MatchConfig, MatchScratch, MultiConfig,
    MultiEngine, NetworkParameter, ReferenceDb, Signature, SimilarityMeasure,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_pcap::{LinkType, Record, Replay, SliceReader, Writer};
use wifiprint_radiotap::{CapturedFrame, RxFlags, RxInfo};
use wifiprint_scenarios::{MetropolisScenario, RotationPolicy, RotationScenario};

/// Allowed relative regression of the gated timings under `--check`.
const REGRESSION_BUDGET: f64 = 0.25;

/// Allowed relative growth of `bytes_per_device_u8`: storage is
/// deterministic, so any real growth is a layout regression.
const BYTES_BUDGET: f64 = 0.01;

const USAGE: &str = "usage: perf_snapshot <output.json> [--check <anchor.json>]";

/// Which way a gated quantity improves.
#[derive(Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// One gated quantity: its snapshot field, the measured value and how
/// far it may move the wrong way from the anchor.
#[derive(Clone, Copy)]
struct Gate {
    name: &'static str,
    value: f64,
    better: Better,
    budget: f64,
}

impl Gate {
    fn timing(name: &'static str, value: f64, better: Better) -> Self {
        Gate { name, value, better, budget: REGRESSION_BUDGET }
    }

    /// Compares the measured value with the anchor's field of the same
    /// name: `Ok` with a summary line, or `Err` naming the failure.
    fn verdict(&self, anchor: &str) -> Result<String, String> {
        let Gate { name, value, better, budget } = *self;
        let Some(base) = read_field(anchor, name) else {
            return Err(format!("{name}: the anchor has no such field"));
        };
        let (bound, ok, word) = match better {
            Better::Lower => {
                let limit = base * (1.0 + budget);
                (limit, value <= limit, "limit")
            }
            Better::Higher => {
                let floor = base * (1.0 - budget);
                (floor, value >= floor, "floor")
            }
        };
        let line = format!(
            "{name} {} against {word} {} (anchor {} {} {:.0}%)",
            fmt_value(value),
            fmt_value(bound),
            fmt_value(base),
            if better == Better::Lower { '+' } else { '-' },
            budget * 100.0
        );
        if ok {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// Checks every gate against the anchor snapshot, printing each pass;
/// returns one line per failure.
fn check(gates: &[Gate], anchor: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for gate in gates {
        match gate.verdict(anchor) {
            Ok(line) => println!("perf check ok: {line}"),
            Err(line) => failures.push(line),
        }
    }
    failures
}

/// Ratios are written with two decimals, counts, rates and nanoseconds
/// as whole numbers.
fn fmt_value(v: f64) -> String {
    if v.abs() < 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.0}")
    }
}

/// Pulls a numeric field out of a snapshot without a JSON dependency
/// (the format is this binary's own single-level output).
fn read_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The output path and the optional `--check` anchor, or `None` when
/// the arguments do not fit `USAGE`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Option<(String, Option<String>)> {
    let (mut out_path, mut check_path) = (None, None);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check_path = Some(args.next()?);
        } else if out_path.is_none() {
            out_path = Some(arg);
        } else {
            return None;
        }
    }
    Some((out_path?, check_path))
}

/// A deterministic signature whose values land inside `cfg`'s bins (the
/// transmission-rate parameter is categorical over the 802.11b/g rates).
fn synthetic_signature(cfg: &EvalConfig, seed: u64, obs: u64) -> Signature {
    let mut sig = Signature::new();
    for i in 0..obs {
        let v = match cfg.parameter {
            NetworkParameter::TransmissionRate => Rate::ALL_BG[((seed + i) % 12) as usize].mbps(),
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

fn main() {
    let Some((out_path, check_path)) = parse_args(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    // Read the anchor before anything is written: a check against the
    // file this run is about to overwrite would compare the new numbers
    // with themselves and always pass.
    let anchor = check_path.map(|anchor_path| {
        let out = std::fs::canonicalize(&out_path).ok();
        if out.is_some() && out == std::fs::canonicalize(&anchor_path).ok() {
            eprintln!(
                "perf_snapshot: output {out_path} is the --check anchor; \
                 name a different output path"
            );
            std::process::exit(2);
        }
        std::fs::read_to_string(&anchor_path)
            .unwrap_or_else(|e| panic!("read anchor {anchor_path}: {e}"))
    });

    let (gates, bytes_per_device_f32) = measure_gates();

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The OS kernel identifies the machine class the absolute numbers
    // came from.
    let host_kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"wifiprint-bench-snapshot-v11\",");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"host_os\": \"{}\",", std::env::consts::OS);
    let _ = writeln!(json, "  \"host_kernel\": \"{host_kernel}\",");
    let _ = writeln!(json, "  \"bytes_per_device_f32\": {bytes_per_device_f32:.0},");
    let fields: Vec<String> =
        gates.iter().map(|g| format!("  \"{}\": {}", g.name, fmt_value(g.value))).collect();
    json.push_str(&fields.join(",\n"));
    json.push_str("\n}");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    if let Some(anchor) = anchor {
        let failures = check(&gates, &anchor);
        for line in &failures {
            eprintln!("PERF REGRESSION: {line}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
    }
}

/// Runs every gated measurement; returns the gates and the `f32` tier's
/// bytes per device that the `u8` footprint is asserted against.
fn measure_gates() -> (Vec<Gate>, f64) {
    let iat_cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
    let mut db = ReferenceDb::new();
    for d in 0..256u64 {
        db.insert(MacAddr::from_index(d), synthetic_signature(&iat_cfg, d, 500)).expect("insert");
    }
    let candidate = synthetic_signature(&iat_cfg, 3, 500);

    // The f32 column sweep of one candidate (a tile of one).
    let mut scratch = MatchScratch::new();
    let matrix_ns = measure(15, 20, || {
        let tile = db.match_tile(
            std::slice::from_ref(&candidate),
            SimilarityMeasure::Cosine,
            &mut scratch,
        );
        std::hint::black_box(tile.candidate(0).best());
    });

    // Fused ingest: per-frame extraction and windowing for five
    // parameters, five per-parameter reference sweeps as each 1 s
    // window closes, 64 active devices against 256-device references.
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
    let multi_cfg =
        MultiConfig::default().with_min_observations(30).with_window(Nanos::from_secs(1));
    let multi_refs: BTreeMap<NetworkParameter, ReferenceDb> = NetworkParameter::ALL
        .into_iter()
        .map(|param| {
            let cfg = multi_cfg.eval_config(param);
            let mut db = ReferenceDb::new();
            for d in 0..256u64 {
                db.insert(MacAddr::from_index(d), synthetic_signature(&cfg, d, 500))
                    .expect("insert");
            }
            (param, db)
        })
        .collect();
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
    let multi_engine_ingest_ns = measure(5, 1, || {
        let mut engine = build_multi();
        let mut decisions = 0usize;
        for frame in &engine_frames {
            decisions += engine.observe(frame).expect("in-order frame").len();
        }
        decisions += engine.finish().expect("first finish").len();
        std::hint::black_box(decisions);
    }) / engine_frames.len() as f64;

    // Supervised ingest front: the same stream submitted through the
    // bounded ring to the engine's worker thread under `Block`
    // (lossless back-pressure, bit-identical to the synchronous run),
    // so the fps floor gates ring hand-off and ordered sequencing on
    // top of the fused engine work.
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

    // Sharded sweeps at metropolis scale (10⁵ devices, 64 shards): the
    // dense full sweep (every shard, full similarity vector) versus the
    // pruned top-5 sweep, per candidate. A store grows its own shards in
    // its first pruned sweep, so each store is grown by one before any
    // timing, and every gate times the 64-shard layout.
    let devices = 100_000usize;
    let scenario = MetropolisScenario::with_devices(17, devices);
    let probes: Vec<Signature> =
        (0..8usize).map(|i| scenario.candidate((i * 997) % devices, 2)).collect();
    let grown = |config: MatchConfig, scratch: &mut MatchScratch| {
        let mut db = scenario.reference_db(config);
        db.match_topk_tile(&probes, 1, scratch);
        assert_eq!(db.shard_count(), 64, "10⁵ rows grow to 64 shards");
        db
    };
    let mut f32_db = grown(MatchConfig::default(), &mut scratch);
    let sharded_dense_ns = measure(7, 1, || {
        for cand in &probes {
            let tile = f32_db.match_tile(
                std::slice::from_ref(cand),
                SimilarityMeasure::Cosine,
                &mut scratch,
            );
            std::hint::black_box(tile.candidate(0).best());
        }
    }) / probes.len() as f64;
    let sharded_topk_ns = measure(7, 1, || {
        for cand in &probes {
            std::hint::black_box(f32_db.match_topk_tile(
                std::slice::from_ref(cand),
                5,
                &mut scratch,
            ));
        }
    }) / probes.len() as f64;

    // Quantized tier on the same population: the f32 dense 8-wide tile
    // sweep versus the u8 tile-wide pruned top-8 sweep, both per tile
    // of 8 candidates, so the ratio folds storage (4× smaller rows),
    // integer column passes and tile-wide pruning into one number.
    let mut u8_db = grown(MatchConfig::quantized(), &mut scratch);
    let bytes_per_device_f32 = f32_db.row_bytes() as f64 / devices as f64;
    let bytes_per_device_u8 = u8_db.row_bytes() as f64 / devices as f64;
    assert!(
        bytes_per_device_u8 * 2.0 <= bytes_per_device_f32,
        "quantized rows must at most halve the f32 resident bytes"
    );
    let quant_f32_tile_ns = measure(7, 1, || {
        let tile = f32_db.match_tile(&probes, SimilarityMeasure::Cosine, &mut scratch);
        std::hint::black_box(tile.candidate(7).best());
    });
    let quant_u8_tile_ns = measure(7, 1, || {
        std::hint::black_box(u8_db.match_topk_tile(&probes, 8, &mut scratch));
    });

    // Rotation linking at the headline operating point: a 1 000-device
    // metropolis slice rotating periodically (fresh MAC every 2
    // sightings), streamed through the linker's pruned gallery sweeps.
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

    // Wire ingest: a 60 000-record (~35 MB) radiotap capture built in
    // memory once, then (a) replayed through the borrowed-slice path
    // (records viewed in place, `WireFrame` header arithmetic, no copies
    // or allocations, bodies never read) and (b) decoded through owned
    // records: a fresh `Vec` per record plus an owned `Frame` with its
    // body copy, every byte touched.
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
    let replay_ns = measure(15, 1, || {
        let mut replay = Replay::from_slice(&capture).expect("dlt 127");
        let mut decoded = 0u64;
        while let Some(frame) = replay.next_frame().expect("well-formed stream") {
            decoded += 1;
            std::hint::black_box(frame.size);
        }
        assert_eq!(decoded, replay_records);
    }) / replay_records as f64;
    // The owned baseline: every record copied into a fresh zeroed buffer,
    // then decoded into an owned `RxInfo` and `Frame`.
    let materialized_ns = measure(15, 1, || {
        let mut reader = SliceReader::new(&capture).expect("readable capture");
        let mut decoded = 0u64;
        while let Some((meta, bytes)) = reader.next_record().expect("well-formed stream") {
            let mut data = vec![0u8; bytes.len()];
            data.copy_from_slice(bytes);
            let (info, hdr_len) = RxInfo::from_radiotap(&data).expect("valid header");
            let frame = Frame::parse(&data[hdr_len..]).expect("valid frame");
            let cap = CapturedFrame::from_frame(
                &frame,
                info.rate.unwrap_or(Rate::R1M),
                info.tsft_us
                    .map(Nanos::from_micros)
                    .unwrap_or(Nanos::from_nanos(meta.timestamp_nanos())),
                info.signal_dbm.unwrap_or(-70),
            );
            decoded += 1;
            std::hint::black_box(cap.size);
        }
        assert_eq!(decoded, replay_records);
    }) / replay_records as f64;

    let gates = vec![
        Gate::timing("match_matrix_ns", matrix_ns, Better::Lower),
        Gate::timing("multi_engine_ingest_fps", 1e9 / multi_engine_ingest_ns, Better::Higher),
        Gate::timing("ingest_pipeline_fps", 1e9 / ingest_pipeline_ns, Better::Higher),
        Gate::timing("sharded_sweep_speedup", sharded_dense_ns / sharded_topk_ns, Better::Higher),
        Gate::timing("quant_tile_speedup", quant_f32_tile_ns / quant_u8_tile_ns, Better::Higher),
        Gate {
            name: "bytes_per_device_u8",
            value: bytes_per_device_u8,
            better: Better::Lower,
            budget: BYTES_BUDGET,
        },
        Gate::timing("linker_throughput_fps", 1e9 / linker_ns, Better::Higher),
        Gate::timing("replay_fps", 1e9 / replay_ns, Better::Higher),
        Gate::timing("replay_vs_materialized", materialized_ns / replay_ns, Better::Higher),
    ];
    (gates, bytes_per_device_f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANCHOR: &str = "{\n  \"match_matrix_ns\": 100,\n  \"replay_fps\": 100,\n  \
                          \"bytes_per_device_u8\": 226\n}";

    fn lower(value: f64) -> Gate {
        Gate::timing("match_matrix_ns", value, Better::Lower)
    }

    fn higher(value: f64) -> Gate {
        Gate::timing("replay_fps", value, Better::Higher)
    }

    fn bytes(value: f64) -> Gate {
        Gate { name: "bytes_per_device_u8", value, better: Better::Lower, budget: BYTES_BUDGET }
    }

    #[test]
    fn values_within_the_budget_pass() {
        assert!(lower(124.0).verdict(ANCHOR).is_ok());
        assert!(higher(76.0).verdict(ANCHOR).is_ok());
        assert!(lower(60.0).verdict(ANCHOR).is_ok());
        assert!(higher(160.0).verdict(ANCHOR).is_ok());
    }

    #[test]
    fn values_beyond_the_budget_fail_in_either_direction() {
        assert!(lower(126.0).verdict(ANCHOR).is_err());
        assert!(higher(74.0).verdict(ANCHOR).is_err());
    }

    #[test]
    fn the_byte_footprint_may_grow_by_one_percent() {
        assert!(bytes(226.0).verdict(ANCHOR).is_ok());
        assert!(bytes(228.0).verdict(ANCHOR).is_ok());
        assert!(bytes(229.0).verdict(ANCHOR).is_err());
    }

    #[test]
    fn a_field_missing_from_the_anchor_fails() {
        let gate = Gate::timing("linker_throughput_fps", 1e6, Better::Higher);
        let err = gate.verdict(ANCHOR).expect_err("missing field fails");
        assert!(err.contains("linker_throughput_fps"), "{err}");
    }

    #[test]
    fn every_failure_is_reported() {
        let gates = [lower(130.0), higher(100.0), bytes(240.0)];
        let failures = check(&gates, ANCHOR);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("match_matrix_ns "), "{failures:?}");
        assert!(failures[1].starts_with("bytes_per_device_u8 "), "{failures:?}");
    }

    #[test]
    fn the_output_path_is_required() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), None);
        assert_eq!(args(&["--check", "anchor.json"]), None);
        assert_eq!(args(&["out.json", "--check"]), None);
        assert_eq!(args(&["a.json", "b.json"]), None);
        assert_eq!(args(&["out.json"]), Some(("out.json".into(), None)));
        assert_eq!(
            args(&["out.json", "--check", "anchor.json"]),
            Some(("out.json".into(), Some("anchor.json".into())))
        );
    }
}
