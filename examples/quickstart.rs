//! Quickstart: stream a small office capture through the production
//! [`MultiEngine`] — online enrollment, then per-window fused
//! identification events as the monitor would emit them live.
//!
//! One fused header parse per frame feeds all five network parameters;
//! each event carries the per-parameter similarity vectors *and* their
//! weighted combination, which is where the paper's method is strongest
//! (§VIII: combining parameters).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wifiprint::core::{
    FusionSpec, MatchConfig, MatchScratch, MultiConfig, MultiEngine, MultiEvent,
};
use wifiprint::ieee80211::Nanos;
use wifiprint::scenarios::{MetropolisScenario, OfficeScenario};

fn main() {
    // 1. A 4-minute office capture with 12 devices (seeded, reproducible).
    let scenario = OfficeScenario::small(42, 240, 12);
    println!("simulating {} seconds of office traffic ...", 240);

    // 2. One fused streaming engine: the first 60 s of the stream train
    //    the per-parameter reference databases (frozen at the boundary),
    //    the rest is matched in 30 s detection windows as they close —
    //    all five parameters extracted from a single parse per frame.
    let cfg = MultiConfig::default()
        .with_min_observations(50)
        .with_window(Nanos::from_secs(30));
    let mut engine = MultiEngine::builder()
        .spec(FusionSpec::all_equal())
        .config(cfg)
        .train_for(Nanos::from_secs(60))
        .build()
        .expect("valid engine configuration");

    // Monitor → engine, no trace collection in between.
    let (mut events, report) =
        scenario.run_multi_engine(&mut engine).expect("simulator emits frames in capture order");
    events.extend(engine.finish().expect("first finish"));

    println!(
        "captured {} frames ({} collisions on the medium)",
        report.stats.monitor.captured, report.stats.collisions
    );
    let enrolled = events.iter().filter(|e| matches!(e, MultiEvent::Enrolled { .. })).count();
    println!("reference databases: {enrolled} devices enrolled after 60 s of training");

    // 3. Narrate the event stream: one fused identification decision per
    //    (window, device), emitted the moment each window closed.
    let mut correct = 0usize;
    let mut total = 0usize;
    for event in &events {
        match event {
            MultiEvent::FusedMatch { window, device, scores, fused: Some(fused), .. } => {
                let (best, sim) = fused.best().expect("common enrolled set is non-empty");
                let verdict = if best == *device {
                    correct += 1;
                    "ok"
                } else {
                    "MISIDENTIFIED"
                };
                total += 1;
                println!(
                    "  window {window:2}  {device}  ->  {best}  (fused {sim:.3} over {} parameters)  {verdict}",
                    scores.len()
                );
            }
            MultiEvent::FusedNewDevice { window, device, fused, .. } => match fused {
                Some(f) => {
                    let (closest, sim) = f.best().expect("fused view is non-empty");
                    println!(
                        "  window {window:2}  {device}  not enrolled; closest reference {closest} (fused {sim:.3})"
                    );
                }
                None => println!("  window {window:2}  {device}  not enrolled"),
            },
            MultiEvent::FusedMatch { .. }
            | MultiEvent::Enrolled { .. }
            | MultiEvent::WindowClosed { .. } => {}
        }
    }

    // 4. The paper's identification test, over the streamed fused
    //    decisions.
    if total > 0 {
        println!(
            "fused identification: {correct}/{total} window decisions correct ({:.1}%)",
            100.0 * correct as f64 / total as f64
        );
    } else {
        println!("no detection window produced a qualifying candidate; try a longer capture");
    }

    // 5. Beyond the paper: the reference store is sharded
    //    (dominant-histogram locality buckets, MatchConfig), so a
    //    metropolis-scale population answers "who is this?" without
    //    sweeping every enrolled row — shards whose summary cannot beat
    //    the current top-k are pruned before any column is swept.
    let metropolis = MetropolisScenario::with_devices(7, 5_000);
    let db = metropolis.reference_db(MatchConfig::default().with_shards(64));
    let mut scratch = MatchScratch::new();
    let probe = metropolis.candidate(1234, 3);
    let tops =
        db.match_topk_tile(std::slice::from_ref(&probe), 3, &mut scratch);
    let stats = scratch.prune_stats();
    println!(
        "metropolis: matched one probe against {} devices sweeping {}/{} shards ({:.0}% pruned)",
        db.len(),
        stats.swept_shards,
        stats.swept_shards + stats.pruned_shards,
        100.0 * stats.pruned_fraction()
    );
    for &(device, sim) in &tops[0] {
        println!("  closest reference {device}  (cosine {sim:.3})");
    }
}
