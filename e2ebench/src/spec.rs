//! The benchmark's registry — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and its `BENCHMARK.json`
//! rendering. The committed `BENCHMARK.json` is generated from here
//! (`--write-spec`), and a test keeps the two identical.

use crate::json::Json;

/// How one run is invoked, relative to the repository root.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "e2ebench/Cargo.toml",
    "--",
];
/// The benchmark's own directories.
pub const PATHS: [&str; 1] = ["e2ebench"];
/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is rejected.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why)` per workload.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "office_replay",
        "frame path: clean office capture replayed from pcap bytes; decode, front, extract and record dominate, sweep is small",
    ),
    (
        "crowd_rotation",
        "sweep/fuse path: 1.1k-row references, 256 candidates per 5 s window, every address rotated so each is a stranger handed to the linker",
    ),
    (
        "noisy_supervised",
        "supervised front: lossy, duplicated, reordered capture through the ingest ring with dedup and reorder on",
    ),
];

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 5] = [
    e2e("ns_per_input", "ns", 0.25),
    e2e("decision_latency_ms_p50", "ms", 0.2),
    e2e("decision_latency_ms_p90", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.2),
];

pub const PER_LAYER: [Metric; 32] = [
    layer("pcap.replay_ns", "ns", Lower),
    layer("pcap.framing_ns", "ns", Lower),
    layer("radiotap.decode_ns", "ns", Lower),
    layer("pcap.allocs_per_record", "count", Lower),
    layer("engine.observe_ns", "ns", Lower),
    layer("params.extract_ns", "ns", Lower),
    layer("windows.record_ns", "ns", Lower),
    layer("resilience.front_ns", "ns", Lower),
    layer("engine.allocs_per_frame", "count", Lower),
    layer("engine.close_us", "us", Lower),
    layer("matching.sweep_us_per_window", "us", Lower),
    layer("matching.rows_scored_per_window", "count", Lower),
    layer("matching.sweep_share_pct", "%", Lower),
    layer("fusion.fuse_ns_per_candidate", "ns", Lower),
    layer("engine.candidates_per_window", "count", Higher),
    layer("ingest.submit_ns", "ns", Lower),
    layer("ingest.queue_wait_us_mean", "us", Lower),
    layer("ingest.drain_ns", "ns", Lower),
    layer("resilience.duplicates", "count", Higher),
    layer("resilience.reordered", "count", Higher),
    layer("resilience.late_dropped", "count", Lower),
    layer("linker.link_us_per_sighting", "us", Lower),
    layer("linker.pruned_fraction", "ratio", Higher),
    layer("linker.gallery_share", "ratio", Higher),
    layer("linker.ambiguous_share", "ratio", Lower),
    layer("linker.gallery_rows", "count", Lower),
    layer("setup.sim_s", "s", Lower),
    layer("setup.export_s", "s", Lower),
    layer("setup.train_s", "s", Lower),
    layer("trace.unexplained_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("accuracy.ident_ratio", "ratio", Higher),
];

fn strings(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(*s)).collect())
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
    ];
    if let Some(bound) = m.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// A parsed `BENCHMARK.json`.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
}

/// Reads a `BENCHMARK.json` document back, checking its shape.
#[cfg(test)]
pub fn parse_benchmark(text: &str) -> Result<ParsedSpec, String> {
    let doc = Json::parse(text)?;
    let Json::Obj(pairs) = &doc else {
        return Err("not an object".to_owned());
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys != want {
        return Err(format!("keys {keys:?}, want {want:?}"));
    }
    let field = |key: &str| doc.get(key).ok_or(format!("missing {key}"));
    let str_list = |key: &str| -> Result<Vec<String>, String> {
        field(key)?
            .as_array()
            .ok_or(format!("{key} is not a list"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or(format!("{key} holds a non-string"))
            })
            .collect()
    };
    let text_of = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("entry lacks {key}"))
    };
    let list = |key: &str| field(key)?.as_array().ok_or(format!("{key} is not a list"));
    let run_seconds = field("run_seconds")?
        .as_f64()
        .ok_or("run_seconds is not a number")?;
    Ok(ParsedSpec {
        command: str_list("command")?,
        paths: str_list("paths")?,
        run_seconds: run_seconds as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                let bound = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric lacks bound")?;
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                    bound,
                ))
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| {
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                ))
            })
            .collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ParsedSpec {
        let own = |m: &Metric| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.as_str().to_owned(),
            )
        };
        ParsedSpec {
            command: COMMAND.iter().map(|s| (*s).to_owned()).collect(),
            paths: PATHS.iter().map(|s| (*s).to_owned()).collect(),
            run_seconds: RUN_SECONDS,
            workloads: WORKLOADS
                .iter()
                .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
                .collect(),
            end_to_end: END_TO_END
                .iter()
                .map(|m| {
                    let (n, u, b) = own(m);
                    (n, u, b, m.bound.expect("end-to-end metrics carry a bound"))
                })
                .collect(),
            per_layer: PER_LAYER.iter().map(own).collect(),
        }
    }

    #[test]
    fn emitted_spec_parses_back_to_the_registry() {
        let parsed = parse_benchmark(&benchmark_json().render_pretty()).unwrap();
        assert_eq!(parsed, registry());
    }

    #[test]
    fn committed_benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json().render_pretty(),
            "regenerate with --write-spec"
        );
    }

    #[test]
    fn registry_respects_the_benchmark_limits() {
        let valid_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "names are used once");
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", Lower, Some(widest))
        );
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| {
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        }));
    }
}
