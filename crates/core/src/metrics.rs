//! Accuracy metrics for the similarity and identification tests (§IV-B).
//!
//! The paper's similarity curve plots the **average true positive rate**
//! against the false positive rate across a threshold sweep. Because there
//! is one class per reference device (not a binary classifier), this is not
//! a classical ROC curve and points below the diagonal are possible — the
//! transmission-rate parameter in the conference trace produces exactly
//! that (AUC 4%).
//!
//! Definitions used here, per candidate instance (one device in one
//! detection window, with the true device present in the reference DB):
//!
//! * similarity test at threshold `T`: the returned set is every reference
//!   with similarity ≥ `T`. `TPR(T)` = fraction of instances whose true
//!   device is in the returned set; `FPR(T)` = mean fraction of the `N−1`
//!   wrong references that were returned.
//! * identification test at threshold `T`: the instance is *identified* as
//!   the argmax reference if its similarity ≥ `T`. The identification
//!   ratio counts correct identifications; the FPR counts instances
//!   identified as a wrong device.

use wifiprint_ieee80211::MacAddr;

use crate::error::CoreError;
use crate::matching::{best_of, MatchScratch, ReferenceDb, MATCH_TILE};
use crate::signature::Signature;
use crate::similarity::SimilarityMeasure;
use crate::windows::CandidateWindow;

/// Threshold-sweep resolution used by [`evaluate`] and
/// [`EvalOutcome::from_match_sets`].
const MAX_THRESHOLDS: usize = 512;

/// The similarities of one candidate instance against every reference,
/// plus the ground-truth device.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSet {
    /// The true identity of the candidate (its source MAC address).
    pub true_device: MacAddr,
    /// Similarity to the true device's reference signature.
    pub true_sim: f64,
    /// Similarities to all *other* references.
    pub wrong_sims: Vec<f64>,
    /// The largest similarity overall and whether it belongs to the true
    /// device (argmax of Algorithm 1's vector).
    pub best_is_true: bool,
    /// The largest similarity value.
    pub best_sim: f64,
}

impl MatchSet {
    /// Builds the ground-truthed set from one candidate's similarity
    /// vector (as produced by Algorithm 1 — e.g.
    /// [`MatchOutcome::similarities`](crate::MatchOutcome::similarities)).
    ///
    /// The true device's similarity defaults to 0.0 when it is absent
    /// from the vector; the argmax tie-breaks toward the lower address,
    /// matching [`MatchView::best`](crate::MatchView::best). An empty
    /// vector (no references at all) yields `best_is_true: false` — with
    /// nothing to match against, nothing was identified correctly.
    pub fn from_similarities(
        true_device: MacAddr,
        sims: impl IntoIterator<Item = (MacAddr, f64)>,
    ) -> MatchSet {
        let sims = sims.into_iter();
        let mut true_sim = 0.0;
        let mut wrong = Vec::with_capacity(sims.size_hint().0.saturating_sub(1));
        let best = best_of(sims.inspect(|&(device, sim)| {
            if device == true_device {
                true_sim = sim;
            } else {
                wrong.push(sim);
            }
        }));
        MatchSet {
            true_device,
            true_sim,
            wrong_sims: wrong,
            best_is_true: best.is_some_and(|(device, _)| device == true_device),
            best_sim: best.map_or(0.0, |(_, sim)| sim),
        }
    }
}

/// One point of the similarity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The similarity threshold `T` producing this point.
    pub threshold: f64,
    /// False positive rate at `T`.
    pub fpr: f64,
    /// Average true positive rate at `T`.
    pub tpr: f64,
}

/// The TPR-vs-FPR curve of the similarity test and its AUC.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityCurve {
    /// Curve points in order of decreasing threshold (FPR ascending).
    pub points: Vec<CurvePoint>,
    /// Area under the curve — the paper's "global probability of correct
    /// classification" (Table II).
    pub auc: f64,
}

/// One operating point of the identification test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentOperatingPoint {
    /// The similarity threshold.
    pub threshold: f64,
    /// Fraction of instances identified as a wrong device.
    pub fpr: f64,
    /// Fraction of instances correctly identified (Table III's ratio).
    pub ratio: f64,
}

/// Full outcome of evaluating one parameter on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// The similarity-test curve.
    pub curve: SimilarityCurve,
    /// Identification operating points (decreasing threshold).
    pub ident_points: Vec<IdentOperatingPoint>,
    /// Number of candidate instances evaluated (known to the DB).
    pub instances: usize,
    /// Candidate instances skipped because their device has no reference.
    pub unknown_candidates: usize,
}

impl EvalOutcome {
    /// Assembles the full outcome from already-computed match sets — the
    /// aggregation step shared by the batch [`evaluate`] sweep and
    /// streaming consumers that accumulate [`MatchSet`]s from
    /// [`engine`](crate::engine) match events.
    pub fn from_match_sets(sets: &[MatchSet], unknown_candidates: usize) -> EvalOutcome {
        EvalOutcome {
            curve: similarity_curve(sets, MAX_THRESHOLDS),
            ident_points: identification_points(sets, MAX_THRESHOLDS),
            instances: sets.len(),
            unknown_candidates,
        }
    }

    /// AUC of the similarity test.
    pub fn auc(&self) -> f64 {
        self.curve.auc
    }

    /// The identification ratio at a target FPR (Table III reports 0.01
    /// and 0.1), linearly interpolated between operating points.
    ///
    /// If even the loosest threshold keeps the FPR below `target`, the
    /// final (maximal) ratio is returned.
    pub fn identification_at_fpr(&self, target: f64) -> f64 {
        interpolate_at_fpr(&self.ident_points, target)
    }
}

/// Matches every candidate window against the database, keeping instances
/// whose device is known (the paper's accuracy metrics are defined over
/// those).
///
/// Candidates are scored through the tiled dense sweep
/// ([`ReferenceDb::match_tile`]) at the database's precision tier:
/// windows sharing a tile are scored in one pass over the reference
/// rows, and tiles are fanned out across worker threads, one scratch per
/// worker. Output order matches candidate order at any worker count.
pub fn match_candidates(
    db: &ReferenceDb,
    candidates: &[CandidateWindow],
) -> (Vec<MatchSet>, usize) {
    // Unknown devices carry no ground truth; drop them before tiling so
    // no sweep time is spent scoring them.
    let mut known: Vec<&CandidateWindow> =
        candidates.iter().filter(|c| db.contains(&c.device)).collect();
    let unknown = candidates.len() - known.len();
    let sets = crate::batch::map_tiles_with_scratch(
        &mut known,
        MATCH_TILE,
        &mut Vec::<MatchScratch>::new(),
        |scratch, tile| {
            let sigs: Vec<&Signature> = tile.iter().map(|c| &c.signature).collect();
            let view = db.match_tile(&sigs, SimilarityMeasure::Cosine, scratch);
            tile.iter()
                .enumerate()
                .map(|(t, cand)| {
                    MatchSet::from_similarities(cand.device, view.candidate(t).similarities())
                })
                .collect()
        },
    );
    (sets, unknown)
}

/// Computes the similarity curve over a threshold sweep.
///
/// `max_thresholds` bounds the sweep resolution (thresholds are the
/// observed similarity values, subsampled evenly when too many).
pub fn similarity_curve(sets: &[MatchSet], max_thresholds: usize) -> SimilarityCurve {
    let thresholds = threshold_sweep(sets, max_thresholds);
    let n = sets.len() as f64;
    let mut points = Vec::with_capacity(thresholds.len() + 2);
    points.push(CurvePoint { threshold: f64::INFINITY, fpr: 0.0, tpr: 0.0 });
    for &t in &thresholds {
        if sets.is_empty() {
            break;
        }
        let mut tp = 0.0;
        let mut fp = 0.0;
        for set in sets {
            if set.true_sim >= t {
                tp += 1.0;
            }
            if !set.wrong_sims.is_empty() {
                let wrong_hits = set.wrong_sims.iter().filter(|&&s| s >= t).count();
                fp += wrong_hits as f64 / set.wrong_sims.len() as f64;
            }
        }
        points.push(CurvePoint { threshold: t, fpr: fp / n, tpr: tp / n });
    }
    if !sets.is_empty() {
        points.push(CurvePoint { threshold: f64::NEG_INFINITY, fpr: 1.0, tpr: 1.0 });
    }
    let auc = auc_trapezoid(&points);
    SimilarityCurve { points, auc }
}

/// Computes identification operating points over a threshold sweep.
pub fn identification_points(sets: &[MatchSet], max_thresholds: usize) -> Vec<IdentOperatingPoint> {
    let thresholds = threshold_sweep(sets, max_thresholds);
    let n = sets.len().max(1) as f64;
    let mut points = Vec::with_capacity(thresholds.len() + 1);
    points.push(IdentOperatingPoint { threshold: f64::INFINITY, fpr: 0.0, ratio: 0.0 });
    for &t in &thresholds {
        let mut correct = 0.0;
        let mut wrong = 0.0;
        for set in sets {
            if set.best_sim >= t {
                if set.best_is_true {
                    correct += 1.0;
                } else {
                    wrong += 1.0;
                }
            }
        }
        points.push(IdentOperatingPoint { threshold: t, fpr: wrong / n, ratio: correct / n });
    }
    points
}

/// Runs both tests end to end.
///
/// # Errors
///
/// [`CoreError::EmptyDatabase`] when `db` holds no reference device —
/// there is nothing to match against. Callers that want the degenerate
/// "every candidate is unknown" outcome instead can build it with
/// [`EvalOutcome::from_match_sets`]`(&[], candidates.len())`.
pub fn evaluate(
    db: &ReferenceDb,
    candidates: &[CandidateWindow],
) -> Result<EvalOutcome, CoreError> {
    if db.is_empty() {
        return Err(CoreError::EmptyDatabase);
    }
    let (sets, unknown) = match_candidates(db, candidates);
    Ok(EvalOutcome::from_match_sets(&sets, unknown))
}

/// All distinct similarity values, descending, subsampled to at most
/// `max_thresholds` entries.
fn threshold_sweep(sets: &[MatchSet], max_thresholds: usize) -> Vec<f64> {
    let mut values: Vec<f64> = sets
        .iter()
        .flat_map(|s| s.wrong_sims.iter().copied().chain([s.true_sim]))
        .filter(|v| v.is_finite())
        .collect();
    values.sort_by(|a, b| b.partial_cmp(a).expect("finite values"));
    values.dedup();
    if values.len() > max_thresholds && max_thresholds > 0 {
        let step = values.len() as f64 / max_thresholds as f64;
        let mut sampled = Vec::with_capacity(max_thresholds);
        for i in 0..max_thresholds {
            sampled.push(values[(i as f64 * step) as usize]);
        }
        // Always keep the loosest threshold so the sweep reaches FPR 1.
        if sampled.last() != values.last() {
            sampled.push(*values.last().expect("nonempty"));
        }
        sampled
    } else {
        values
    }
}

/// Trapezoidal area under the curve; points must be FPR-ascending.
fn auc_trapezoid(points: &[CurvePoint]) -> f64 {
    let mut auc = 0.0;
    for pair in points.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        auc += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2.0;
    }
    auc.clamp(0.0, 1.0)
}

fn interpolate_at_fpr(points: &[IdentOperatingPoint], target: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let mut prev = points[0];
    for &p in points {
        if p.fpr >= target {
            if (p.fpr - prev.fpr).abs() < f64::EPSILON {
                return p.ratio;
            }
            let alpha = (target - prev.fpr) / (p.fpr - prev.fpr);
            return prev.ratio + alpha * (p.ratio - prev.ratio);
        }
        prev = p;
    }
    prev.ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(true_sim: f64, wrong: &[f64]) -> MatchSet {
        let best_sim = wrong.iter().copied().fold(true_sim, f64::max);
        MatchSet {
            true_device: MacAddr::from_index(1),
            true_sim,
            wrong_sims: wrong.to_vec(),
            best_is_true: true_sim >= best_sim,
            best_sim,
        }
    }

    #[test]
    fn from_similarities_handles_empty_and_missing_true_device() {
        let dev = MacAddr::from_index(1);
        // No references at all: nothing was identified, correctly or not.
        let empty = MatchSet::from_similarities(dev, []);
        assert!(!empty.best_is_true);
        assert_eq!((empty.true_sim, empty.best_sim), (0.0, 0.0));
        assert!(empty.wrong_sims.is_empty());
        // True device absent from the vector: its similarity is 0.
        let other = MacAddr::from_index(2);
        let set = MatchSet::from_similarities(dev, [(other, 0.4)]);
        assert!(!set.best_is_true);
        assert_eq!(set.true_sim, 0.0);
        assert_eq!(set.best_sim, 0.4);
        assert_eq!(set.wrong_sims, vec![0.4]);
        // Argmax ties break toward the lower address, like best().
        let set = MatchSet::from_similarities(dev, [(dev, 0.7), (other, 0.7)]);
        assert!(set.best_is_true);
    }

    #[test]
    fn perfect_classifier_has_auc_one() {
        // True sims always 0.9; wrong sims always 0.1.
        let sets: Vec<_> = (0..10).map(|_| set(0.9, &[0.1, 0.1, 0.1])).collect();
        let curve = similarity_curve(&sets, 100);
        assert!(curve.auc > 0.99, "auc = {}", curve.auc);
    }

    #[test]
    fn inverted_classifier_has_auc_zero() {
        // The wrong references always score higher: deep lower-right curve,
        // like the transmission rate in the conference trace.
        let sets: Vec<_> = (0..10).map(|_| set(0.1, &[0.9, 0.9, 0.9])).collect();
        let curve = similarity_curve(&sets, 100);
        assert!(curve.auc < 0.01, "auc = {}", curve.auc);
    }

    #[test]
    fn random_classifier_has_auc_half() {
        // True and wrong similarities drawn from the same ladder.
        let mut sets = Vec::new();
        for i in 0..100 {
            let v = f64::from(i) / 100.0;
            sets.push(set(v, &[1.0 - v]));
        }
        let curve = similarity_curve(&sets, 512);
        assert!((curve.auc - 0.5).abs() < 0.05, "auc = {}", curve.auc);
    }

    #[test]
    fn curve_is_monotone_and_anchored() {
        let sets: Vec<_> = (0..20)
            .map(|i| set(0.5 + 0.02 * f64::from(i), &[0.3, 0.6, 0.1]))
            .collect();
        let curve = similarity_curve(&sets, 64);
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        for pair in curve.points.windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr);
            assert!(pair[1].tpr >= pair[0].tpr);
            assert!(pair[1].threshold <= pair[0].threshold);
        }
    }

    #[test]
    fn identification_points_count_argmax() {
        // 3 instances: two identified correctly with sims .9/.8, one where a
        // wrong device wins with .95.
        let sets = vec![set(0.9, &[0.2]), set(0.8, &[0.5]), set(0.3, &[0.95])];
        let points = identification_points(&sets, 100);
        let last = points.last().unwrap();
        assert!((last.ratio - 2.0 / 3.0).abs() < 1e-9);
        assert!((last.fpr - 1.0 / 3.0).abs() < 1e-9);
        // At a threshold above all sims, nothing is identified.
        let first = points.first().unwrap();
        assert_eq!((first.fpr, first.ratio), (0.0, 0.0));
    }

    #[test]
    fn identification_at_fpr_interpolates() {
        let points = vec![
            IdentOperatingPoint { threshold: f64::INFINITY, fpr: 0.0, ratio: 0.0 },
            IdentOperatingPoint { threshold: 0.9, fpr: 0.0, ratio: 0.4 },
            IdentOperatingPoint { threshold: 0.5, fpr: 0.2, ratio: 0.6 },
        ];
        let outcome = EvalOutcome {
            curve: SimilarityCurve { points: vec![], auc: 0.0 },
            ident_points: points,
            instances: 10,
            unknown_candidates: 0,
        };
        // Halfway between fpr 0.0 (ratio .4) and fpr 0.2 (ratio .6).
        assert!((outcome.identification_at_fpr(0.1) - 0.5).abs() < 1e-9);
        // Beyond the last point: the maximal ratio.
        assert!((outcome.identification_at_fpr(0.9) - 0.6).abs() < 1e-9);
        // Exactly at a point.
        assert!((outcome.identification_at_fpr(0.2) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_sets_give_empty_outcome() {
        let curve = similarity_curve(&[], 100);
        assert_eq!(curve.points.len(), 1);
        assert_eq!(curve.auc, 0.0);
        let ident = identification_points(&[], 100);
        assert_eq!(ident.len(), 1);
    }

    #[test]
    fn threshold_sweep_subsamples() {
        let sets: Vec<_> = (0..1000).map(|i| set(f64::from(i) / 1000.0, &[0.5])).collect();
        let t = threshold_sweep(&sets, 100);
        assert!(t.len() <= 101);
        // Descending and ending at the global minimum.
        for pair in t.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert_eq!(*t.last().unwrap(), 0.0);
    }

    #[test]
    fn match_candidates_skips_unknown_devices() {
        use crate::config::EvalConfig;
        use crate::params::NetworkParameter;
        use crate::signature::Signature;
        use wifiprint_ieee80211::FrameKind;

        let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
        let mut sig = Signature::new();
        for _ in 0..60 {
            sig.record(FrameKind::Data, 500.0, &cfg);
        }
        let known = MacAddr::from_index(1);
        let stranger = MacAddr::from_index(2);
        let mut db = ReferenceDb::new();
        db.insert(known, sig.clone()).unwrap();
        let candidates = vec![
            CandidateWindow { index: 0, device: known, signature: sig.clone() },
            CandidateWindow { index: 0, device: stranger, signature: sig },
        ];
        let (sets, unknown) = match_candidates(&db, &candidates);
        assert_eq!(sets.len(), 1);
        assert_eq!(unknown, 1);
        assert!(sets[0].best_is_true);
    }

    #[test]
    fn evaluate_end_to_end_small() {
        use crate::config::EvalConfig;
        use crate::params::NetworkParameter;
        use crate::signature::Signature;
        use wifiprint_ieee80211::FrameKind;

        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        let mut db = ReferenceDb::new();
        let make_sig = |center: f64| {
            let mut s = Signature::new();
            for i in 0..50 {
                s.record(FrameKind::Data, center + f64::from(i % 5), &cfg);
            }
            s
        };
        let d1 = MacAddr::from_index(1);
        let d2 = MacAddr::from_index(2);
        db.insert(d1, make_sig(300.0)).unwrap();
        db.insert(d2, make_sig(1500.0)).unwrap();
        let candidates = vec![
            CandidateWindow { index: 0, device: d1, signature: make_sig(300.0) },
            CandidateWindow { index: 0, device: d2, signature: make_sig(1500.0) },
            CandidateWindow { index: 1, device: d1, signature: make_sig(302.0) },
        ];
        let outcome = evaluate(&db, &candidates).unwrap();
        assert_eq!(outcome.instances, 3);
        assert_eq!(outcome.unknown_candidates, 0);
        assert!(outcome.auc() > 0.9, "auc = {}", outcome.auc());
        assert!(outcome.identification_at_fpr(0.1) > 0.9);
    }
}
