//! End-to-end benchmark of the wifiprint pipeline: pcap bytes → fused
//! window decision → MAC-rotation linker, on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --write-spec BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). The full
//! result — provenance, per-metric spread and, for a traced run, the
//! span totals and kept spans — is written to
//! `e2ebench/out/<workload>-seed<n>-trace<t>.json`. See `README.md`.

mod json;
mod probe;
mod spec;
mod stages;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use probe::Probe;
use stats::{percentile, Spread};
use trace::{Aggregate, Tracer};
use workloads::{FrameInputs, PassOutcome, SetupTimes};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed passes per run, at least, however long they take.
const MIN_PASSES: usize = 3;
/// Share of a traced run spent on end-to-end passes; the rest re-runs
/// the stages in isolation.
const TRACED_PASS_SHARE: f64 = 0.7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The two helper modes besides a benchmark run.
enum Tool {
    /// Regenerate `BENCHMARK.json` from the registry.
    WriteSpec(String),
    /// Spread across the result files in a directory.
    Summarize(String),
}

fn parse_args() -> Result<Result<Args, Tool>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--write-spec" => return Ok(Err(Tool::WriteSpec(value()?))),
            "--summarize" => return Ok(Err(Tool::Summarize(value()?))),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(spec::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Ok(args)) => args,
        Ok(Err(tool)) => {
            let done = match tool {
                Tool::WriteSpec(path) => {
                    std::fs::write(&path, spec::benchmark_json().render_pretty())
                        .map_err(|e| format!("write {path}: {e}"))
                }
                Tool::Summarize(dir) => summarize(&dir).map(|table| print!("{table}")),
            };
            return match done {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{}", line.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    setups: Vec<SetupTimes>,
    /// Probe time taken right before each set-up.
    setup_probes: Vec<f64>,
    untraced: Vec<PassOutcome>,
    /// Probe time taken before each untraced pass, and once after the
    /// last.
    probes: Vec<f64>,
    traced: Vec<PassOutcome>,
    stages: Vec<stages::StageCosts>,
    violations: Vec<String>,
}

impl Run {
    fn passes(&self) -> impl Iterator<Item = &PassOutcome> {
        self.untraced.iter().chain(&self.traced)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn ns_per_input(p: &PassOutcome) -> f64 {
    p.wall_ns as f64 / p.inputs.max(1) as f64
}

fn run(args: &Args) -> Result<Json, String> {
    let mut run = Run::default();
    let mut inputs: Option<FrameInputs> = None;
    let mut input_digest = None;
    let mut probe = Probe::new();
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        run.setup_probes.push(probe.run());
        let t = Instant::now();
        let (built, mut times) =
            workloads::setup(&args.workload, args.seed).expect("workload name checked")?;
        // Anything set-up did outside the three timed phases.
        times.sim_s += (t.elapsed().as_secs_f64() - times.total()).max(0.0);
        let digest = built.digest();
        run.check(input_digest.is_none_or(|d| d == digest), || {
            "set-up is not deterministic in the seed".to_owned()
        });
        input_digest = Some(digest);
        run.setups.push(times);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    // Warm caches, lazy statics and the allocator before timing.
    let mut untraced = Tracer::new(false);
    let warm = workloads::run_pass(&inputs, &mut untraced);
    let digest = warm.digest;

    let mut tracer = Tracer::new(true);
    let decoded = args.trace.then(|| stages::Decoded::new(&inputs));
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let pass_budget = if args.trace {
        budget.mul_f64(TRACED_PASS_SHARE)
    } else {
        budget
    };
    while start.elapsed() < pass_budget || run.untraced.len() < MIN_PASSES {
        run.probes.push(probe.run());
        run.untraced
            .push(workloads::run_pass(&inputs, &mut untraced));
        if args.trace {
            trace::set_counting(true);
            run.traced.push(workloads::run_pass(&inputs, &mut tracer));
            trace::set_counting(false);
        }
    }
    // Each pass is scaled by the mean of the probes that bracket it.
    run.probes.push(probe.run());
    if let Some(decoded) = &decoded {
        while start.elapsed() < budget || run.stages.is_empty() {
            run.stages.push(stages::measure(&inputs, decoded));
        }
    }

    let passes: Vec<PassOutcome> = run.passes().cloned().collect();
    for (i, p) in passes.iter().enumerate() {
        run.check(p.digest == digest, || {
            format!("pass {i}: event digest differs")
        });
        for v in &p.violations {
            run.violations.push(format!("pass {i}: {v}"));
        }
    }
    for v in &warm.violations {
        run.violations.push(format!("warm-up: {v}"));
    }
    check_accuracy(&mut run, &inputs, &warm);

    let metrics = if args.trace {
        per_layer(&run, &inputs, &tracer)
    } else {
        end_to_end(&run)
    };
    let attempted: u64 = passes.iter().map(|p| p.inputs).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    for v in &run.violations {
        eprintln!("e2ebench: check failed: {v}");
    }
    let correct = run.violations.is_empty();

    let registry: Vec<&spec::Metric> = if args.trace {
        spec::PER_LAYER.iter().collect()
    } else {
        spec::END_TO_END.iter().collect()
    };
    let metric_json = Json::obj(registry.iter().map(|m| {
        let value = metrics.get(m.name).map_or(0.0, |v| v.value);
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    }));
    write_result(args, &run, &inputs, &tracer, &metrics, digest, correct)?;
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metric_json),
    ]))
}

/// Accuracy floors: a change that breaks the decisions fails the run
/// even if it is fast. Deterministic per seed, with margin across seeds.
fn check_accuracy(run: &mut Run, inputs: &FrameInputs, p: &PassOutcome) {
    if inputs.true_device.is_empty() {
        let ratio = ratio(p.fused_match_hits, p.fused_matches);
        run.check(p.fused_matches > 0 && ratio >= 0.5, || {
            format!(
                "identification ratio {ratio:.3} over {} matches",
                p.fused_matches
            )
        });
    } else {
        // Every rotated address is a stranger to the references.
        run.check(p.strangers_scored > 0 && p.fused_matches == 0, || {
            format!(
                "{} strangers, {} matches",
                p.strangers_scored, p.fused_matches
            )
        });
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One reported metric: its value and, where it has one value per pass
/// or set-up, their spread.
#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    spread: Option<Spread>,
    samples: usize,
}

impl Value {
    /// The median of `samples`.
    fn of(samples: &[f64]) -> Value {
        let spread = Spread::of(samples);
        Value {
            value: spread.map_or(0.0, |s| s.median),
            spread,
            samples: samples.len(),
        }
    }

    fn single(value: f64) -> Value {
        Value {
            value,
            spread: None,
            samples: 1,
        }
    }
}

/// End-to-end times: per pass, scaled by the probes that bracket it
/// (see [`probe`]), then the median over passes.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, Value> {
    let mut m = BTreeMap::new();
    let scales: Vec<f64> = run
        .probes
        .windows(2)
        .map(|w| Probe::scale((w[0] + w[1]) / 2.0))
        .collect();
    let per_pass = |value: &dyn Fn(&PassOutcome) -> Option<f64>| -> Vec<f64> {
        run.untraced
            .iter()
            .zip(&scales)
            .filter_map(|(p, s)| value(p).map(|v| v * s))
            .collect()
    };
    m.insert(
        "ns_per_input",
        Value::of(&per_pass(&|p| Some(ns_per_input(p)))),
    );
    for (name, q) in [
        ("decision_latency_ms_p50", 50.0),
        ("decision_latency_ms_p90", 90.0),
    ] {
        m.insert(
            name,
            Value::of(&per_pass(&|p| percentile(&p.latencies_ms, q))),
        );
    }
    let setup: Vec<f64> = run
        .setups
        .iter()
        .zip(&run.setup_probes)
        .map(|(s, &p)| s.total() * Probe::scale(p))
        .collect();
    m.insert("setup_s", Value::of(&setup));
    m.insert("peak_rss_mb", Value::single(peak_rss_mb()));
    m
}

/// The same times unscaled, and the probe itself, for the result file.
fn raw_times(run: &Run) -> BTreeMap<&'static str, Value> {
    let pooled: Vec<f64> = run
        .untraced
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    BTreeMap::from([
        (
            "ns_per_input",
            Value::of(&run.untraced.iter().map(ns_per_input).collect::<Vec<_>>()),
        ),
        (
            "decision_latency_ms_p50",
            Value::single(percentile(&pooled, 50.0).unwrap_or(0.0)),
        ),
        (
            "decision_latency_ms_p90",
            Value::single(percentile(&pooled, 90.0).unwrap_or(0.0)),
        ),
        (
            "setup_s",
            Value::of(&run.setups.iter().map(SetupTimes::total).collect::<Vec<_>>()),
        ),
        ("probe_ns", Value::of(&run.probes)),
    ])
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_layer(run: &Run, f: &FrameInputs, tracer: &Tracer) -> BTreeMap<&'static str, Value> {
    let mut m: BTreeMap<&'static str, Value> = BTreeMap::new();
    let t = |name: &str| tracer.total(name);
    let last = run.traced.last().cloned().unwrap_or_default();

    // Set-up phases.
    for (name, get) in [
        (
            "setup.sim_s",
            (|s: &SetupTimes| s.sim_s) as fn(&SetupTimes) -> f64,
        ),
        ("setup.export_s", |s| s.export_s),
        ("setup.train_s", |s| s.train_s),
    ] {
        m.insert(
            name,
            Value::of(&run.setups.iter().map(get).collect::<Vec<_>>()),
        );
    }

    // Stage re-runs, median over rounds.
    let stage = |get: fn(&stages::StageCosts) -> f64| {
        Value::of(&run.stages.iter().map(get).collect::<Vec<_>>())
    };
    let traced_records: u64 = run.traced.iter().map(|p| p.inputs).sum();
    let replay = t("pcap.next_frame");
    m.insert("pcap.replay_ns", Value::single(replay.mean_ns()));
    m.insert(
        "pcap.allocs_per_record",
        Value::single(ratio(replay.allocs, traced_records)),
    );
    m.insert("pcap.framing_ns", stage(|s| s.framing_ns));
    m.insert("radiotap.decode_ns", stage(|s| s.decode_ns));
    m.insert("params.extract_ns", stage(|s| s.extract_ns));
    m.insert("windows.record_ns", stage(|s| s.record_ns));
    m.insert(
        "matching.sweep_us_per_window",
        stage(|s| s.sweep_us_per_window),
    );
    m.insert(
        "matching.rows_scored_per_window",
        stage(|s| s.rows_scored_per_window),
    );
    m.insert(
        "fusion.fuse_ns_per_candidate",
        stage(|s| s.fuse_ns_per_candidate),
    );

    let (observe_ns, close_us, allocs) = if f.supervised {
        let o = |get: fn(&stages::ObserveCosts) -> f64| {
            Value::of(
                &run.stages
                    .iter()
                    .filter_map(|s| s.observe.as_ref().map(get))
                    .collect::<Vec<_>>(),
            )
        };
        (
            o(|c| c.observe_ns),
            o(|c| c.close_us),
            o(|c| c.allocs_per_frame),
        )
    } else {
        let plain = t("engine.observe");
        let sealing = t("engine.observe_close");
        let closes = merged(sealing, t("engine.finish"));
        let allocs = ratio(plain.allocs + sealing.allocs, plain.count + sealing.count);
        (
            Value::single(plain.mean_ns()),
            Value::single(closes.mean_ns() / 1e3),
            Value::single(allocs),
        )
    };
    let front = observe_ns.value - m["params.extract_ns"].value - m["windows.record_ns"].value;
    m.insert("engine.observe_ns", observe_ns);
    m.insert("engine.close_us", close_us);
    m.insert("engine.allocs_per_frame", allocs);
    m.insert("resilience.front_ns", Value::single(front.max(0.0)));
    m.insert(
        "engine.candidates_per_window",
        Value::single(ratio(last.candidates, last.windows)),
    );

    let untraced_wall = stats::median(
        &run.untraced
            .iter()
            .map(|p| p.wall_ns as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let sweep_share: Vec<f64> = run
        .stages
        .iter()
        .map(|s| {
            if untraced_wall > 0.0 {
                100.0 * s.sweep_total_ns / untraced_wall
            } else {
                0.0
            }
        })
        .collect();
    m.insert("matching.sweep_share_pct", Value::of(&sweep_share));
    m.insert(
        "accuracy.ident_ratio",
        Value::single(if f.true_device.is_empty() {
            ratio(last.fused_match_hits, last.fused_matches)
        } else {
            ratio(last.stranger_hits, last.strangers_scored)
        }),
    );

    if f.supervised {
        m.insert(
            "ingest.submit_ns",
            Value::single(t("ingest.submit").mean_ns()),
        );
        m.insert(
            "ingest.drain_ns",
            Value::single(t("ingest.drain_events").mean_ns()),
        );
        let waits: Vec<f64> = run
            .passes()
            .filter_map(|p| p.ingest.map(|s| s.mean_latency_ns() / 1e3))
            .collect();
        m.insert("ingest.queue_wait_us_mean", Value::of(&waits));
    }
    m.insert(
        "resilience.duplicates",
        Value::single(last.health.frames_duplicate as f64),
    );
    m.insert(
        "resilience.reordered",
        Value::single(last.health.frames_reordered as f64),
    );
    m.insert(
        "resilience.late_dropped",
        Value::single(last.health.frames_late_dropped as f64),
    );

    let link = t("linker.observe_multi");
    m.insert(
        "linker.link_us_per_sighting",
        Value::single(link.mean_ns() / 1e3),
    );
    let ls = last.linker;
    let sweeps = ls
        .sightings
        .saturating_sub(ls.linked_by_mac + ls.gate_bypassed);
    m.insert(
        "linker.pruned_fraction",
        Value::single(ls.pruned_fraction()),
    );
    m.insert(
        "linker.gallery_share",
        Value::single(ratio(ls.linked_by_gallery, sweeps)),
    );
    m.insert(
        "linker.ambiguous_share",
        Value::single(ratio(ls.ambiguous, ls.sightings)),
    );
    m.insert("linker.gallery_rows", Value::single(ls.gallery_rows as f64));

    // How much of the traced pass the layer spans explain, and what
    // tracing costs against the interleaved untraced passes.
    let pass = t("pass");
    m.insert(
        "trace.unexplained_pct",
        Value::single(if pass.total_ns == 0 {
            0.0
        } else {
            100.0 * pass.self_ns as f64 / pass.total_ns as f64
        }),
    );
    let traced = stats::median(&run.traced.iter().map(ns_per_input).collect::<Vec<_>>());
    let plain = stats::median(&run.untraced.iter().map(ns_per_input).collect::<Vec<_>>());
    if let (Some(traced), Some(plain)) = (traced, plain) {
        m.insert(
            "trace.overhead_pct",
            Value::single(100.0 * (traced - plain) / plain),
        );
    }
    m
}

/// Two span totals counted as one.
fn merged(a: Aggregate, b: Aggregate) -> Aggregate {
    Aggregate {
        count: a.count + b.count,
        total_ns: a.total_ns + b.total_ns,
        self_ns: a.self_ns + b.self_ns,
        allocs: a.allocs + b.allocs,
    }
}

/// Across the result files in `dir` (one per seed), per workload and
/// metric: how many runs, their median and quartiles, and the
/// interquartile distance as a share of the median — flagged `!` for an
/// end-to-end metric whose spread exceeds a third of its bound.
fn summarize(dir: &str) -> Result<String, String> {
    type Key = (String, bool, String);
    let mut values: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let traced = doc.get("traced") == Some(&Json::Bool(true));
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.clone(), traced, name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    let mut out = String::from("workload trace metric runs median q1 q3 iqr/median\n");
    for ((workload, traced, name), v) in &values {
        let Some(s) = Spread::of(v) else { continue };
        let bound = spec::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound);
        let flag = if bound.is_some_and(|b| !traced && s.relative_iqr() > b / 3.0) {
            " !"
        } else {
            ""
        };
        out.push_str(&format!(
            "{workload} {} {name} {} {:.6} {:.6} {:.6} {:.4}{flag}\n",
            u8::from(*traced),
            s.runs,
            s.median,
            s.q1,
            s.q3,
            s.relative_iqr()
        ));
    }
    Ok(out)
}

/// Host facts every result carries.
fn provenance() -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads_env = std::env::var("WIFIPRINT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    // A window close fans its five per-parameter sweeps out over this
    // many workers (the `parallel` feature's rule in `core::batch`).
    let close_workers = threads_env.filter(|&n| n > 0).unwrap_or(cpus).min(5);
    let kernel_release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    Json::obj([
        ("cpus", Json::Num(cpus as f64)),
        ("host_kernel", Json::str(kernel_release)),
        (
            "simd_kernel",
            Json::str(wifiprint_core::kernel::active().to_string()),
        ),
        (
            "int_kernel",
            Json::str(wifiprint_core::kernel::active_int().as_str()),
        ),
        ("rustc", Json::str(env!("E2EBENCH_RUSTC"))),
        ("producer_threads", Json::Num(1.0)),
        ("window_close_workers", Json::Num(close_workers as f64)),
        ("parallel_close_fanout", Json::Bool(close_workers > 1)),
    ])
}

fn spread_json(v: &Value) -> Json {
    let mut pairs = vec![
        ("value", Json::Num(v.value)),
        ("samples", Json::Num(v.samples as f64)),
    ];
    if let Some(s) = v.spread {
        pairs.extend([
            ("runs", Json::Num(s.runs as f64)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
        ]);
    }
    Json::obj(pairs)
}

fn span_json(s: &trace::Span) -> Json {
    Json::obj([
        ("name", Json::str(s.name)),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
        (
            "parent",
            if s.parent == trace::ROOT {
                Json::Null
            } else {
                Json::Num(f64::from(s.parent))
            },
        ),
        ("run", Json::Num(f64::from(s.run))),
        ("allocs", Json::Num(s.allocs as f64)),
    ])
}

/// Writes the full result next to the benchmark's sources.
fn write_result(
    args: &Args,
    run: &Run,
    inputs: &FrameInputs,
    tracer: &Tracer,
    metrics: &BTreeMap<&'static str, Value>,
    digest: u64,
    correct: bool,
) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut pairs = vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        (
            "violations",
            Json::Arr(
                run.violations
                    .iter()
                    .map(|v| Json::str(v.clone()))
                    .collect(),
            ),
        ),
        ("host", provenance()),
        ("inputs_per_pass", Json::Num(inputs.records as f64)),
        ("untraced_passes", Json::Num(run.untraced.len() as f64)),
        ("traced_passes", Json::Num(run.traced.len() as f64)),
        ("stage_rounds", Json::Num(run.stages.len() as f64)),
        ("event_digest", Json::str(format!("{digest:016x}"))),
        ("reference_probe_ns", Json::Num(probe::REFERENCE_NS)),
        (
            "raw",
            Json::obj(raw_times(run).iter().map(|(k, v)| (*k, spread_json(v)))),
        ),
        (
            "raw_ns_per_input_by_pass",
            Json::Arr(
                run.untraced
                    .iter()
                    .map(|p| Json::Num(ns_per_input(p)))
                    .collect(),
            ),
        ),
        (
            "probe_ns_by_pass",
            Json::Arr(run.probes.iter().map(|&p| Json::Num(p)).collect()),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(k, v)| (*k, spread_json(v)))),
        ),
    ];
    if args.trace {
        pairs.push((
            "span_totals",
            Json::obj(tracer.totals.iter().map(|(name, a)| {
                (
                    *name,
                    Json::obj([
                        ("count", Json::Num(a.count as f64)),
                        ("total_ns", Json::Num(a.total_ns as f64)),
                        ("self_ns", Json::Num(a.self_ns as f64)),
                        ("allocs", Json::Num(a.allocs as f64)),
                    ]),
                )
            })),
        ));
        pairs.push((
            "spans",
            Json::Arr(tracer.kept.iter().map(span_json).collect()),
        ));
    }
    std::fs::write(&path, Json::obj(pairs).render_pretty())
        .map_err(|e| format!("write {path}: {e}"))
}
