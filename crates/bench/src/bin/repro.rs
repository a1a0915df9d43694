//! Reproduction harness: regenerates every table and figure of
//! *"An empirical study of passive 802.11 device fingerprinting"*
//! (Neumann, Heen, Onno — ICDCS workshops 2012).
//!
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [<experiment>...]
//!
//! experiments (run in the order given; none means all):
//!   table1   evaluation trace features
//!   table2   AUC of the similarity test
//!   table3   identification ratios at FPR 0.01 / 0.1
//!   fig1     sender-attribution worked example
//!   fig2     example inter-arrival histogram
//!   fig3     similarity curves (TPR vs FPR), all traces × parameters
//!   fig4     backoff implementation differences
//!   fig5     RTS threshold on/off
//!   fig6     rate-adaptation differences
//!   fig7     same-model netbooks, broadcast frames
//!   fig8     null-function (power save) frames
//!   baseline Pang-style broadcast-size identifier (§V-B2)
//!   fusion   multi-parameter combination (§VIII future work)
//!   attack   §VII-A mimicry attacker evaluation
//!   claims   the paper's findings as orderings, each held or broken
//!   all      everything above, in this order
//! ```
//!
//! The four traces are simulated once, when any listed experiment needs
//! them (`table1`, `table2`, `table3`, `fig3`, `baseline`, `claims`). `--quick`
//! shortens the two 7-hour traces to 2 hours. CSV series for every
//! figure/table are written under `--out` (default `target/repro`).

use std::fs;
use std::path::{Path, PathBuf};

use wifiprint_analysis::plot::{curve_csv, curve_plot, histogram_bars, histogram_csv};
use wifiprint_analysis::tables::{render_columns, table1, table2, table3, TraceFeatures};
use wifiprint_bench::experiments::{evaluate_scenario, TraceKind, TraceRun};
use wifiprint_bench::figures;
use wifiprint_core::{EvalOutcome, Histogram, NetworkParameter, SimilarityMeasure};

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 15] = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "baseline", "fusion", "attack", "claims",
];

/// The experiments that read the four simulated traces.
const TRACE_EXPERIMENTS: [&str; 6] = ["table1", "table2", "table3", "fig3", "baseline", "claims"];

#[derive(Debug)]
struct Options {
    quick: bool,
    seed: u64,
    out: PathBuf,
    /// Experiments to run, in order; each is one of [`EXPERIMENTS`].
    experiments: Vec<&'static str>,
}

/// Parses the command line (program name excluded). `Ok(None)` asks for
/// the usage text; an unknown flag or experiment name is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let mut opts = Options {
        quick: false,
        seed: 1,
        out: PathBuf::from("target/repro"),
        experiments: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                opts.seed =
                    args.next().and_then(|s| s.parse().ok()).ok_or("--seed needs an integer")?;
            }
            "--out" => opts.out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--help" | "-h" => return Ok(None),
            "all" => opts.experiments.extend(EXPERIMENTS),
            other if !other.starts_with('-') => {
                let name = EXPERIMENTS
                    .into_iter()
                    .find(|e| *e == other)
                    .ok_or_else(|| format!("unknown experiment {other}; try --help"))?;
                opts.experiments.push(name);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.extend(EXPERIMENTS);
    }
    Ok(Some(opts))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("usage: repro [--quick] [--seed N] [--out DIR] [<experiment>...]");
            println!("experiments: {} all", EXPERIMENTS.join(" "));
            return;
        }
        Err(msg) => die(&msg),
    };
    fs::create_dir_all(&opts.out).unwrap_or_else(|e| die(&format!("creating out dir: {e}")));

    let needs_traces = opts.experiments.iter().any(|e| TRACE_EXPERIMENTS.contains(e));
    let runs: Vec<TraceRun> = if needs_traces {
        TraceKind::ALL
            .into_iter()
            .map(|kind| {
                eprintln!(
                    "[repro] generating + evaluating {} ({}) ...",
                    kind.name(),
                    if opts.quick && kind.is_long() { "quick 2h" } else { "full" }
                );
                let run = evaluate_scenario(kind, opts.quick, opts.seed);
                eprintln!(
                    "[repro]   {}: {} train + {} validation frames, {} ref devices, {:.1}s",
                    kind.name(),
                    run.eval.train_frames,
                    run.eval.validation_frames,
                    run.eval.ref_devices,
                    run.wall_secs
                );
                run
            })
            .collect()
    } else {
        Vec::new()
    };

    for experiment in &opts.experiments {
        run_experiment(experiment, &runs, &opts);
    }
    eprintln!("[repro] CSV outputs in {}", opts.out.display());
}

fn run_experiment(experiment: &str, runs: &[TraceRun], opts: &Options) {
    match experiment {
        "table1" => print_table1(runs, opts),
        "table2" => print_table2(runs, opts),
        "table3" => print_table3(runs, opts),
        "fig1" => print_fig1(),
        "fig2" => print_fig2(opts),
        "fig3" => print_fig3(runs, opts),
        "fig4" => print_histogram_figure(
            "fig4",
            "Fig. 4: backoff implementations (data @54 Mb/s, no retries)",
            figures::fig4_backoff(opts.seed),
            250.0,
            450.0,
            opts,
        ),
        "fig5" => print_histogram_figure(
            "fig5",
            "Fig. 5: RTS settings (same device, busy lab)",
            figures::fig5_rts(opts.seed),
            0.0,
            2000.0,
            opts,
        ),
        "fig6" => print_fig6(opts),
        "fig7" => print_histogram_figure(
            "fig7",
            "Fig. 7: same-model netbooks, broadcast frames only",
            figures::fig7_services(opts.seed),
            0.0,
            2500.0,
            opts,
        ),
        "fig8" => print_histogram_figure(
            "fig8",
            "Fig. 8: null-function (power save) frames only",
            figures::fig8_power_save(opts.seed),
            0.0,
            2500.0,
            opts,
        ),
        "baseline" => print_baseline(runs),
        "fusion" => print_fusion(opts),
        "attack" => print_attack(opts),
        "claims" => print_claims(runs, opts),
        other => unreachable!("parse_args admits only known experiments, got {other}"),
    }
}

fn write_out(out: &Path, name: &str, content: &str) {
    let path = out.join(name);
    if let Err(e) = fs::write(&path, content) {
        eprintln!("[repro] warning: could not write {}: {e}", path.display());
    }
}

fn print_table1(runs: &[TraceRun], opts: &Options) {
    let rows: Vec<TraceFeatures> = runs
        .iter()
        .map(|run| {
            let (total, reference, candidate, encryption) = run.kind.descriptions(opts.quick);
            TraceFeatures {
                name: run.kind.name().to_owned(),
                total: total.to_owned(),
                reference: reference.to_owned(),
                candidate: candidate.to_owned(),
                encryption: encryption.to_owned(),
                ref_devices: run.eval.ref_devices,
            }
        })
        .collect();
    let text = table1(&rows);
    println!("\n== Table I: evaluation trace features ==\n{text}");
    write_out(&opts.out, "table1.txt", &text);
}

fn print_table2(runs: &[TraceRun], opts: &Options) {
    let evals: Vec<(&str, &wifiprint_analysis::TraceEvaluation)> =
        runs.iter().map(|r| (r.kind.name(), &r.eval)).collect();
    let text = table2(&evals);
    println!("\n== Table II: AUC of the similarity test ==\n{text}");
    write_out(&opts.out, "table2.txt", &text);
}

fn print_table3(runs: &[TraceRun], opts: &Options) {
    let evals: Vec<(&str, &wifiprint_analysis::TraceEvaluation)> =
        runs.iter().map(|r| (r.kind.name(), &r.eval)).collect();
    let text = table3(&evals);
    println!("\n== Table III: identification ratios ==\n{text}");
    write_out(&opts.out, "table3.txt", &text);
}

fn print_fig1() {
    println!("\n== Fig. 1: sender attribution on the worked example ==");
    for line in figures::fig1_worked_example() {
        println!("  {line}");
    }
}

fn print_fig2(opts: &Options) {
    let (device, hist) = figures::fig2_example_histogram(opts.seed);
    println!("\n== Fig. 2: example inter-arrival histogram (device {device}) ==");
    println!("{}", histogram_bars(&hist, 0.0, 2500.0, 40, 50));
    write_out(&opts.out, "fig2.csv", &histogram_csv(&hist));
}

fn print_fig3(runs: &[TraceRun], opts: &Options) {
    println!("\n== Fig. 3: similarity curves (TPR vs FPR) ==");
    for run in runs {
        println!("\n--- {} ---", run.kind.name());
        for p in NetworkParameter::ALL {
            let outcome = &run.eval.outcomes[&p];
            println!("{} (AUC {:.1}%):", p.label(), 100.0 * outcome.auc());
            println!("{}", curve_plot(&outcome.curve.points, 60, 14));
            let name = format!(
                "fig3_{}_{}.csv",
                run.kind.name().to_lowercase().replace([' ', '.'], ""),
                p.slug()
            );
            write_out(&opts.out, &name, &curve_csv(&outcome.curve.points));
        }
    }
}

fn print_histogram_figure(
    tag: &str,
    title: &str,
    hists: Vec<(String, wifiprint_core::Histogram)>,
    min_x: f64,
    max_x: f64,
    opts: &Options,
) {
    println!("\n== {title} ==");
    for (label, hist) in &hists {
        println!("\n[{label}] ({} observations)", hist.total());
        println!("{}", histogram_bars(hist, min_x, max_x, 32, 46));
        let name = format!("{tag}_{}.csv", label.to_lowercase().replace([' ', '/'], "_"));
        write_out(&opts.out, &name, &histogram_csv(hist));
    }
}

fn print_fig6(opts: &Options) {
    println!("\n== Fig. 6: rate adaptation differences ==");
    for (label, hist, rates) in figures::fig6_rates(opts.seed) {
        println!("\n[{label}] inter-arrival histogram ({} observations)", hist.total());
        println!("{}", histogram_bars(&hist, 0.0, 1000.0, 32, 46));
        println!("[{label}] transmission-rate distribution:");
        let mut cols: Vec<Vec<String>> = vec![vec!["rate".into()], vec!["density".into()]];
        for (rate, share) in &rates {
            cols[0].push(rate.clone());
            cols[1].push(format!("{share:.3}"));
        }
        println!("{}", render_columns(&cols));
        let name = format!("fig6_{}.csv", label.to_lowercase().replace(['/', ' '], "_"));
        write_out(&opts.out, &name, &histogram_csv(&hist));
    }
}

fn print_fusion(opts: &Options) {
    use wifiprint_analysis::{PipelineConfig, StreamingEvaluator};
    use wifiprint_core::FusionSpec;
    use wifiprint_scenarios::OfficeScenario;

    println!("\n== §VIII future work: combining network parameters ==");
    // Two passes over one simulation: all five parameters (their rows
    // and the all-five fusion) and the timing trio (its fusion).
    let all_cfg = PipelineConfig::short_trace();
    let trio_cfg = PipelineConfig {
        parameters: FusionSpec::timing_trio().parameters().collect(),
        ..PipelineConfig::short_trace()
    };
    let mut all = StreamingEvaluator::new(&all_cfg).expect("valid pipeline configuration");
    let mut trio = StreamingEvaluator::new(&trio_cfg).expect("valid pipeline configuration");
    OfficeScenario::office2(opts.seed).run_streaming(&mut |f| {
        all.push(f);
        trio.push(f);
    });
    let all = all.finish().expect("engine run");
    let trio = trio.finish().expect("engine run");
    let mut cols: Vec<Vec<String>> = vec![
        vec!["Matcher".into()],
        vec!["AUC".into()],
        vec!["ident @ 0.01".into()],
        vec!["ident @ 0.1".into()],
    ];
    let rows = NetworkParameter::ALL
        .iter()
        .map(|p| (p.label(), &all.outcomes[p]))
        .chain([("FUSION timing trio", &trio.fused), ("FUSION all five", &all.fused)]);
    for (name, o) in rows {
        cols[0].push(name.to_owned());
        cols[1].push(format!("{:.1}%", 100.0 * o.auc()));
        cols[2].push(format!("{:.1}%", 100.0 * o.identification_at_fpr(0.01)));
        cols[3].push(format!("{:.1}%", 100.0 * o.identification_at_fpr(0.1)));
    }
    println!("{}", render_columns(&cols));
    println!("(office 2 trace; fusion rows combine per-parameter similarities)");
}

fn print_attack(opts: &Options) {
    use wifiprint_analysis::attacks::evaluate_mimicry;
    use wifiprint_devices::profile_catalog;
    use wifiprint_ieee80211::Nanos;
    use wifiprint_scenarios::{FaradayRig, FARADAY_AP, FARADAY_DEVICE};

    println!("\n== §VII-A: mimicry attack (replaying the victim's size distribution) ==");
    let catalog = profile_catalog();
    let training =
        FaradayRig::for_profile(&catalog[0], opts.seed, Nanos::from_secs(15)).run();
    let later =
        FaradayRig::for_profile(&catalog[0], opts.seed + 1, Nanos::from_secs(15)).run();
    let results = evaluate_mimicry(
        &training.frames,
        &later.frames,
        FARADAY_DEVICE,
        FARADAY_AP,
        opts.seed,
    )
    .expect("in-order Faraday captures");
    let mut cols: Vec<Vec<String>> = vec![
        vec!["Parameter".into()],
        vec!["genuine sim".into()],
        vec!["attacker sim".into()],
        vec!["forged?".into()],
    ];
    for r in &results {
        cols[0].push(r.parameter.label().to_owned());
        cols[1].push(format!("{:.3}", r.genuine_similarity));
        cols[2].push(format!("{:.3}", r.attacker_similarity));
        cols[3].push(if r.forged(0.7) { "YES".into() } else { "no".into() });
    }
    println!("{}", render_columns(&cols));
    println!("(size distributions forge easily; chipset/driver timing does not — §VII-A)");
}

fn print_baseline(runs: &[TraceRun]) {
    println!("\n== §V-B2 comparison: Pang-style broadcast-size identifier ==");
    let mut cols: Vec<Vec<String>> = vec![
        vec!["Trace".into()],
        vec!["ident @ FPR 0.01".into()],
        vec!["ident @ FPR 0.1".into()],
        vec!["candidates".into()],
    ];
    for run in runs {
        cols[0].push(run.kind.name().to_owned());
        cols[1].push(format!("{:.1}%", 100.0 * run.baseline.identification_at_fpr(0.01)));
        cols[2].push(format!("{:.1}%", 100.0 * run.baseline.identification_at_fpr(0.1)));
        cols[3].push(run.baseline.instances.to_string());
    }
    println!("{}", render_columns(&cols));
    println!("(broadcast frame sizes only; `repro claims` checks the paper's orderings)");
}

/// Prints each of the paper's findings as held or broken, with the
/// numbers behind it. A claim is an ordering between parameters, traces
/// or settings, never a paper number: the traces are simulated, so only
/// their shape can be compared. A claim holds when every line under it
/// does.
fn print_claims(runs: &[TraceRun], opts: &Options) {
    println!("\n== Paper claims: the findings as orderings over these traces ==");
    let verdict = |held: bool| if held { "held" } else { "broken" };
    let report = |claim: &str, lines: Vec<(bool, String)>| {
        println!("\n[{}] {claim}", verdict(lines.iter().all(|&(held, _)| held)));
        for (held, line) in lines {
            println!("  {:<6} {line}", verdict(held));
        }
    };
    let pct = |x: f64| format!("{:.1}%", 100.0 * x);
    /// A table's measure: its name and how to read it off an outcome.
    type Measure = (&'static str, fn(&EvalOutcome) -> f64);
    let measures: [Measure; 2] =
        [("AUC", EvalOutcome::auc), ("ident @ FPR 0.1", |o| o.identification_at_fpr(0.1))];
    let score = |run: &TraceRun, p: NetworkParameter, measure: fn(&EvalOutcome) -> f64| {
        measure(&run.eval.outcomes[&p])
    };

    // Transmission time and inter-arrival time lead (abstract, §V-B).
    let leaders = [NetworkParameter::TransmissionTime, NetworkParameter::InterArrivalTime];
    let mut lines = Vec::new();
    for run in runs {
        for (name, measure) in measures {
            let mut ranked: Vec<_> =
                NetworkParameter::ALL.iter().map(|&p| (p, score(run, p, measure))).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            let order: Vec<String> =
                ranked.iter().map(|&(p, v)| format!("{} {}", p.label(), pct(v))).collect();
            lines.push((
                ranked[..2].iter().all(|(p, _)| leaders.contains(p)),
                format!("{:<8} by {name}: {}", run.kind.name(), order.join(" > ")),
            ));
        }
    }
    report("transmission time and inter-arrival time rank first and second", lines);

    // Office traces score above conference traces, and transmission rate
    // falls with mobility (§V-B): every office trace above every
    // conference trace.
    let (office, conference): (Vec<&TraceRun>, Vec<&TraceRun>) = runs
        .iter()
        .partition(|run| matches!(run.kind, TraceKind::Office1 | TraceKind::Office2));
    let range = |runs: &[&TraceRun], p, measure| {
        let scores = runs.iter().map(|run| score(run, p, measure));
        let low = scores.clone().fold(f64::INFINITY, f64::min);
        (low, scores.fold(f64::NEG_INFINITY, f64::max))
    };
    let office_above = |p, (name, measure)| {
        let ((office_low, office_high), (conf_low, conf_high)) =
            (range(&office, p, measure), range(&conference, p, measure));
        let line = format!(
            "{:<18} {name}: office {}-{} vs conference {}-{}",
            p.label(),
            pct(office_low),
            pct(office_high),
            pct(conf_low),
            pct(conf_high),
        );
        (office_low > conf_high, line)
    };
    let lines = NetworkParameter::ALL
        .into_iter()
        .flat_map(|p| measures.map(|measure| office_above(p, measure)))
        .collect();
    report("office traces score above conference traces", lines);
    report(
        "transmission rate's AUC falls from office to conference",
        vec![office_above(NetworkParameter::TransmissionRate, measures[0])],
    );

    // Inter-arrival time depends on the §VI factors: in each of Figs. 4-8
    // the factor moves the histogram further than re-running a setting
    // under the next seed does.
    let figures = |seed| -> [(&str, Vec<(String, Histogram)>); 5] {
        let fig6 = figures::fig6_rates(seed).into_iter().map(|(label, hist, _)| (label, hist));
        [
            ("fig4 backoff", figures::fig4_backoff(seed)),
            ("fig5 RTS", figures::fig5_rts(seed)),
            ("fig6 rate adaptation", fig6.collect()),
            ("fig7 service stacks", figures::fig7_services(seed)),
            ("fig8 power save", figures::fig8_power_save(seed)),
        ]
    };
    let cosine = |a: &Histogram, b: &Histogram| {
        SimilarityMeasure::Cosine.compute(&a.frequencies(), &b.frequencies())
    };
    let lines = figures(opts.seed)
        .into_iter()
        .zip(figures(opts.seed + 1))
        .map(|((name, first), (_, rerun))| {
            let across = cosine(&first[0].1, &first[1].1);
            let again =
                first.iter().zip(&rerun).map(|(a, b)| cosine(&a.1, &b.1)).fold(1.0, f64::min);
            let line = format!(
                "{name:<20} similarity across settings {across:.3} \
                 vs same setting re-run >= {again:.3}"
            );
            (across < again, line)
        })
        .collect();
    report("inter-arrival time shows the §VI dependencies", lines);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn experiments_are_kept_in_order_and_all_expands() {
        let opts = parse(&["--quick", "fig1", "attack"]).expect("valid").expect("not help");
        assert!(opts.quick);
        assert_eq!(opts.experiments, ["fig1", "attack"]);
        let all = parse(&["all"]).expect("valid").expect("not help");
        assert_eq!(all.experiments, EXPERIMENTS);
        let default = parse(&["--seed", "3"]).expect("valid").expect("not help");
        assert_eq!((default.seed, default.experiments), (3, EXPERIMENTS.to_vec()));
    }

    #[test]
    fn unknown_experiments_are_rejected() {
        let err = parse(&["table2", "table9"]).expect_err("unknown name");
        assert!(err.contains("table9"), "{err}");
        assert!(parse(&["--help"]).expect("valid").is_none());
    }
}
