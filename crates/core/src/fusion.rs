//! Multi-parameter score fusion — combining the five per-parameter
//! similarity vectors into one decision.
//!
//! The paper's stated future work (§VIII: *"future work should also
//! investigate whether the fingerprinting method can be improved by
//! combining several network parameters"*) is where passive
//! fingerprinting wins in practice: a device pair indistinguishable on
//! frame size alone may separate cleanly on inter-arrival time, and vice
//! versa. [`FusionSpec`] names the parameters to combine and their
//! weights; [`fuse_outcomes`] folds per-parameter [`MatchOutcome`]s into
//! one [`FusedOutcome`] by weighted averaging over a common device set.
//!
//! Fusion is an aligned add: each parameter's device table is lined up
//! with the common set (the identity when the two are equal, otherwise
//! an index map from one merge walk), and the weighted scores are then
//! added per device in spec order. [`fuse_outcomes`] lines the tables up
//! on every call. The [`MultiEngine`](crate::engine::MultiEngine) lines
//! its frozen references up once, when detection starts, and runs the
//! same accumulation per candidate the moment each detection window
//! closes, so fused decisions stream out with the same latency as
//! single-parameter ones. The
//! [`RotationLinker`](crate::engine::linker::RotationLinker) shares the
//! per-term step too: a multi-parameter gallery sweep adds each
//! parameter's dense view into one fused score per retained identity,
//! with the same seed, term order and division, so its ranking is the
//! one [`fuse_outcomes`] would give over the same views.

use std::sync::Arc;

use wifiprint_ieee80211::MacAddr;

use crate::error::CoreError;
use crate::matching::{DeviceTable, MatchOutcome};
use crate::params::NetworkParameter;

/// A weighted set of network parameters to fuse.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionSpec {
    /// `(parameter, weight)` pairs; weights need not be normalised.
    pub parameters: Vec<(NetworkParameter, f64)>,
}

impl FusionSpec {
    /// The combination the paper's results suggest: the three timing
    /// parameters that lead its rankings, equally weighted.
    pub fn timing_trio() -> Self {
        FusionSpec {
            parameters: vec![
                (NetworkParameter::InterArrivalTime, 1.0),
                (NetworkParameter::TransmissionTime, 1.0),
                (NetworkParameter::MediumAccessTime, 1.0),
            ],
        }
    }

    /// All five parameters, equally weighted.
    pub fn all_equal() -> Self {
        FusionSpec {
            parameters: NetworkParameter::ALL.iter().map(|&p| (p, 1.0)).collect(),
        }
    }

    /// A single-parameter "fusion" — useful for driving the
    /// [`MultiEngine`](crate::engine::MultiEngine) as a drop-in for one
    /// single-parameter engine.
    pub fn single(parameter: NetworkParameter) -> Self {
        FusionSpec { parameters: vec![(parameter, 1.0)] }
    }

    /// An equally weighted spec over an explicit parameter list.
    pub fn equal_weights(parameters: impl IntoIterator<Item = NetworkParameter>) -> Self {
        FusionSpec { parameters: parameters.into_iter().map(|p| (p, 1.0)).collect() }
    }

    /// The parameters named by the spec, in spec order.
    pub fn parameters(&self) -> impl Iterator<Item = NetworkParameter> + '_ {
        self.parameters.iter().map(|&(p, _)| p)
    }

    /// Number of fused parameters.
    pub fn len(&self) -> usize {
        self.parameters.len()
    }

    /// `true` for a spec with no parameters (always invalid).
    pub fn is_empty(&self) -> bool {
        self.parameters.is_empty()
    }

    /// Checks that the spec can drive a fusion at all.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an empty spec, a duplicated
    /// parameter, a non-finite or negative weight, an all-zero weight
    /// vector (the fused score would be 0/0), or weights whose sum
    /// overflows to infinity (every fused score would be 0).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.parameters.is_empty() {
            return Err(CoreError::InvalidConfig { reason: "fusion spec names no parameters" });
        }
        for (i, &(p, w)) in self.parameters.iter().enumerate() {
            if self.parameters[..i].iter().any(|&(q, _)| q == p) {
                return Err(CoreError::InvalidConfig {
                    reason: "fusion spec repeats a parameter",
                });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: "fusion weights must be finite and non-negative",
                });
            }
        }
        if self.parameters.iter().all(|&(_, w)| w == 0.0) {
            return Err(CoreError::InvalidConfig { reason: "fusion weights sum to zero" });
        }
        if !self.weight_sum().is_finite() {
            return Err(CoreError::InvalidConfig { reason: "fusion weights sum to infinity" });
        }
        Ok(())
    }

    /// Sum of the weights, floored away from zero so normalisation is
    /// always defined.
    pub(crate) fn weight_sum(&self) -> f64 {
        floored_sum(self.parameters.iter().map(|&(_, w)| w))
    }
}

/// One candidate's **fused** similarity vector: the weighted average of
/// its per-parameter similarities, over the devices enrolled for *every*
/// fused parameter.
///
/// The same type as a per-parameter [`MatchOutcome`] (a device table,
/// ascending, and the scores aligned with it; the same accessors), so
/// downstream consumers — threshold tests, argmax identification, top-k
/// ranking — treat fused and single-parameter scores uniformly.
pub type FusedOutcome = MatchOutcome;

/// Fuses per-parameter similarity vectors into one [`FusedOutcome`] over
/// `devices` (the devices enrolled for every fused parameter, ascending
/// address order).
///
/// `outcomes` must be aligned with `spec.parameters` (one outcome per
/// spec entry, same order); owned outcomes and borrows both work, like
/// [`ReferenceDb::match_tile`](crate::ReferenceDb::match_tile)'s
/// candidates. Per device, the fused score is `Σᵢ wᵢ·simᵢ / Σᵢ wᵢ`; a
/// device absent from one parameter's vector contributes 0 for that
/// parameter — though with `devices` restricted to the common enrolled
/// set, every device is present in every vector.
///
/// Fusion is an aligned add. Each outcome's table is lined up with
/// `devices` once per call: the identity when the two are equal (the
/// usual case: every parameter enrolled the same devices), otherwise an
/// index map built by one merge walk (both are in ascending address
/// order). The scores are then added per device in spec order, exactly
/// as summing them per device would. The result shares the first
/// outcome table equal to `devices` and copies `devices` otherwise. The
/// [`MultiEngine`](crate::engine::MultiEngine) runs the same
/// accumulation with alignments it decides once, when detection starts.
pub fn fuse_outcomes<O: std::borrow::Borrow<MatchOutcome>>(
    spec: &FusionSpec,
    outcomes: &[O],
    devices: &[MacAddr],
) -> FusedOutcome {
    debug_assert_eq!(spec.parameters.len(), outcomes.len(), "one outcome per fused parameter");
    let alignments: Vec<Alignment> =
        outcomes.iter().map(|o| Alignment::between(o.borrow().devices(), devices)).collect();
    let table = outcomes
        .iter()
        .zip(&alignments)
        .find(|(_, a)| matches!(a, Alignment::Identity))
        .map_or_else(|| Arc::new(devices.to_vec()), |(o, _)| Arc::clone(&o.borrow().devices));
    let terms: Vec<Term<'_>> = spec
        .parameters
        .iter()
        .zip(outcomes)
        .zip(&alignments)
        .map(|((&(_, w), o), a)| (w, o.borrow(), a))
        .collect();
    fuse_aligned(&terms, table)
}

/// How one similarity vector's device table lines up with a fused
/// device set.
#[derive(Debug)]
pub(crate) enum Alignment {
    /// The table is the fused set: fused device `i` is row `i`.
    Identity,
    /// Per fused device, its row in the table (`None` when absent).
    Rows(Vec<Option<usize>>),
}

impl Alignment {
    /// Lines `table` up with `devices` (both ascending): the identity
    /// when they are equal, otherwise one merge walk over the two.
    pub(crate) fn between(table: &[MacAddr], devices: &[MacAddr]) -> Self {
        debug_assert!(devices.windows(2).all(|w| w[0] < w[1]), "devices in ascending order");
        if table == devices {
            return Alignment::Identity;
        }
        let mut next = 0;
        let rows = devices
            .iter()
            .map(|device| {
                while table.get(next).is_some_and(|d| d < device) {
                    next += 1;
                }
                (table.get(next) == Some(device)).then_some(next)
            })
            .collect();
        Alignment::Rows(rows)
    }
}

/// One fused term: a weight, a similarity vector and how that vector
/// lines up with the fused device set.
pub(crate) type Term<'a> = (f64, &'a MatchOutcome, &'a Alignment);

/// The one fusion accumulation: per device of `table`, adds
/// `w · sim / Σw` for each term in order (0 for a device the term's
/// vector lacks). The scores share `table`.
pub(crate) fn fuse_aligned(terms: &[Term<'_>], table: DeviceTable) -> FusedOutcome {
    let weight_sum = floored_sum(terms.iter().map(|&(w, ..)| w));
    let mut scores = vec![fused_seed(); table.len()];
    for &(w, outcome, alignment) in terms {
        let sims = &outcome.scores;
        match alignment {
            Alignment::Identity => {
                debug_assert_eq!(sims.len(), scores.len(), "identity alignment");
                add_term(&mut scores, w, weight_sum, sims.iter().copied());
            }
            Alignment::Rows(rows) => {
                let aligned = rows.iter().map(|row| row.map_or(0.0, |r| sims[r]));
                add_term(&mut scores, w, weight_sum, aligned);
            }
        }
    }
    FusedOutcome { devices: table, scores }
}

/// The score every fused accumulation starts from: the empty sum, the
/// seed `Iterator::sum` folds from, so the accumulated scores stay
/// bit-identical to a per-device `sum()`.
pub(crate) fn fused_seed() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// One term of the fusion accumulation: adds `w · sim / Σw` to each fused
/// score, `sims` lined up with `fused` (0 for a device the term's vector
/// lacks). [`fuse_aligned`] and the
/// [`RotationLinker`](crate::engine::linker::RotationLinker)'s gallery
/// sweep both add their terms through it (or, one score at a time,
/// through [`term`]), from [`fused_seed`], in spec order.
pub(crate) fn add_term(
    fused: &mut [f64],
    weight: f64,
    weight_sum: f64,
    sims: impl Iterator<Item = f64>,
) {
    for (score, sim) in fused.iter_mut().zip(sims) {
        *score += term(weight, sim, weight_sum);
    }
}

/// The value one parameter adds to a fused score: `w · sim / Σw`.
pub(crate) fn term(weight: f64, sim: f64, weight_sum: f64) -> f64 {
    weight * sim / weight_sum
}

/// The weights' sum, floored away from zero so normalisation is always
/// defined.
pub(crate) fn floored_sum(weights: impl Iterator<Item = f64>) -> f64 {
    weights.sum::<f64>().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::matching::{MatchScratch, ReferenceDb};
    use crate::signature::Signature;
    use crate::similarity::SimilarityMeasure;
    use proptest::prelude::*;
    use wifiprint_ieee80211::FrameKind;

    #[test]
    fn specs_have_expected_shapes() {
        assert_eq!(FusionSpec::timing_trio().len(), 3);
        assert_eq!(FusionSpec::all_equal().len(), 5);
        assert_eq!(FusionSpec::single(NetworkParameter::FrameSize).len(), 1);
        assert!(!FusionSpec::all_equal().is_empty());
        for spec in [FusionSpec::timing_trio(), FusionSpec::all_equal()] {
            spec.validate().expect("built-in specs validate");
        }
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let empty = FusionSpec { parameters: vec![] };
        assert!(empty.validate().is_err());
        let dup = FusionSpec::equal_weights([
            NetworkParameter::FrameSize,
            NetworkParameter::FrameSize,
        ]);
        assert!(dup.validate().is_err());
        let negative = FusionSpec {
            parameters: vec![(NetworkParameter::FrameSize, -1.0)],
        };
        assert!(negative.validate().is_err());
        let nan = FusionSpec {
            parameters: vec![(NetworkParameter::FrameSize, f64::NAN)],
        };
        assert!(nan.validate().is_err());
        let zero = FusionSpec {
            parameters: vec![
                (NetworkParameter::FrameSize, 0.0),
                (NetworkParameter::InterArrivalTime, 0.0),
            ],
        };
        assert!(zero.validate().is_err());
        // Each weight is finite, but their sum overflows to infinity.
        let overflowing = FusionSpec {
            parameters: vec![
                (NetworkParameter::FrameSize, f64::MAX),
                (NetworkParameter::InterArrivalTime, f64::MAX),
            ],
        };
        assert!(overflowing.validate().is_err());
    }

    /// A real outcome: one frame-size reference per `(device, size)`,
    /// matched by a probe sending the first device's size (so it scores
    /// 1 against that device and 0 against disjoint sizes).
    fn outcome_for(values: &[(u64, f64)]) -> MatchOutcome {
        let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
        let mut db = ReferenceDb::new();
        for &(idx, center) in values {
            let mut sig = Signature::new();
            for _ in 0..20 {
                sig.record(FrameKind::Data, center, &cfg);
            }
            db.insert(MacAddr::from_index(idx), sig).unwrap();
        }
        let mut probe = Signature::new();
        for _ in 0..20 {
            probe.record(FrameKind::Data, values[0].1, &cfg);
        }
        let mut scratch = MatchScratch::new();
        db.match_tile(std::slice::from_ref(&probe), SimilarityMeasure::Cosine, &mut scratch)
            .candidate(0)
            .to_outcome()
    }

    #[test]
    fn fuse_outcomes_averages_with_weights() {
        // Two parameters, weights 3 and 1. Parameter A scores d1=1.0
        // (self-match) and d2=0.0 (disjoint bins); parameter B is the
        // mirror image, so fused(d1)=0.75, fused(d2)=0.25.
        let a = outcome_for(&[(1, 100.0), (2, 2000.0)]);
        let b = outcome_for(&[(2, 100.0), (1, 2000.0)]);
        let spec = FusionSpec {
            parameters: vec![
                (NetworkParameter::FrameSize, 3.0),
                (NetworkParameter::InterArrivalTime, 1.0),
            ],
        };
        let devices = [MacAddr::from_index(1), MacAddr::from_index(2)];
        let fused = fuse_outcomes(&spec, &[a, b], &devices);
        assert_eq!(fused.similarities().len(), 2);
        assert!((fused.similarity_to(&devices[0]).unwrap() - 0.75).abs() < 1e-9);
        assert!((fused.similarity_to(&devices[1]).unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(fused.best().unwrap().0, devices[0]);
        assert_eq!(fused.top(1)[0].0, devices[0]);
        assert_eq!(fused.above_threshold(0.5).count(), 1);
        assert_eq!(fused.similarity_to(&MacAddr::from_index(9)), None);
    }

    /// The per-device lookup formula the aligned add must equal: one
    /// binary search per (device, parameter), summed per device.
    fn fuse_by_lookup(
        spec: &FusionSpec,
        outcomes: &[MatchOutcome],
        devices: &[MacAddr],
    ) -> Vec<(MacAddr, f64)> {
        let weight_sum = spec.weight_sum();
        devices
            .iter()
            .map(|&device| {
                let fused: f64 = spec
                    .parameters
                    .iter()
                    .zip(outcomes)
                    .map(|(&(_, w), outcome)| {
                        w * outcome.similarity_to(&device).unwrap_or(0.0) / weight_sum
                    })
                    .sum();
                (device, fused)
            })
            .collect()
    }

    proptest! {
        // Per parameter, a reference database over a subset of eight
        // devices, shaped against the fused set: a random subset, an
        // equal copy of the fused set, a subset of it or a superset of
        // it, so devices go missing from some outcomes and the fused set
        // is a strict subset (or superset) of others. With `share` set,
        // the first outcome's table *is* the fused set (the same `Arc`).
        // Dropping parameters from the spec gives the degraded sub-spec
        // shape. Both entries — `fuse_outcomes`, which lines the tables
        // up per call, and the engine's alignments decided once — must
        // equal the per-device lookup bit for bit.
        #[test]
        fn merge_walk_fusion_is_bit_identical_to_per_device_lookup(
            masks in prop::collection::vec(any::<u8>(), 1..6),
            shapes in prop::collection::vec(0u8..4, 5),
            weights in prop::collection::vec(0u32..8, 5),
            fused_mask in any::<u8>(),
            probe in 0u64..8,
            share in any::<bool>(),
        ) {
            let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
            let signature = |seed: u64| {
                let mut sig = Signature::new();
                for i in 0..20 {
                    sig.record(FrameKind::Data, ((seed * 131 + i * 37) % 1500) as f64, &cfg);
                }
                sig
            };
            let outcomes: Vec<MatchOutcome> = masks
                .iter()
                .zip(&shapes)
                .enumerate()
                .map(|(p, (&mask, &shape))| {
                    let mask = match shape {
                        _ if share && p == 0 => fused_mask,
                        0 => mask,
                        1 => fused_mask,
                        2 => mask & fused_mask,
                        _ => mask | fused_mask,
                    };
                    let mut db = ReferenceDb::new();
                    for d in (0..8u64).filter(|d| mask >> d & 1 == 1) {
                        db.insert(MacAddr::from_index(d), signature(d + p as u64)).unwrap();
                    }
                    let probe = [signature(probe)];
                    db.match_tile(&probe, SimilarityMeasure::Cosine, &mut MatchScratch::new())
                        .candidate(0)
                        .to_outcome()
                })
                .collect();
            let mut parameters: Vec<(NetworkParameter, f64)> = NetworkParameter::ALL
                .iter()
                .zip(&weights)
                .map(|(&p, &w)| (p, f64::from(w) / 4.0))
                .take(outcomes.len())
                .collect();
            parameters[0].1 += 0.5; // never an all-zero weight vector
            let spec = FusionSpec { parameters };
            let devices: DeviceTable = if share {
                Arc::clone(&outcomes[0].devices)
            } else {
                Arc::new(
                    (0..8u64)
                        .filter(|d| fused_mask >> d & 1 == 1)
                        .map(MacAddr::from_index)
                        .collect(),
                )
            };
            let want = fuse_by_lookup(&spec, &outcomes, &devices);

            let per_call = fuse_outcomes(&spec, &outcomes, &devices);
            let alignments: Vec<Alignment> =
                outcomes.iter().map(|o| Alignment::between(o.devices(), &devices)).collect();
            let terms: Vec<Term<'_>> = spec
                .parameters
                .iter()
                .zip(&outcomes)
                .zip(&alignments)
                .map(|((&(_, w), o), a)| (w, o, a))
                .collect();
            let decided_once = fuse_aligned(&terms, Arc::clone(&devices));
            prop_assert!(Arc::ptr_eq(&decided_once.devices, &devices));
            if share {
                prop_assert!(Arc::ptr_eq(&per_call.devices, &devices));
            }
            for got in [per_call, decided_once] {
                prop_assert_eq!(got.devices(), &devices[..]);
                prop_assert_eq!(got.similarities().len(), want.len());
                for ((gd, gs), &(wd, ws)) in got.similarities().zip(&want) {
                    prop_assert_eq!(gd, wd);
                    prop_assert_eq!(gs.to_bits(), ws.to_bits(), "{} vs {} for {}", gs, ws, gd);
                }
            }
        }
    }

    #[test]
    fn fuse_outcomes_restricts_to_the_common_device_set() {
        // Parameter A knows devices 1 and 2; the fused set is just {1}.
        let a = outcome_for(&[(1, 100.0), (2, 2000.0)]);
        let spec = FusionSpec::single(NetworkParameter::FrameSize);
        let fused = fuse_outcomes(&spec, &[a], &[MacAddr::from_index(1)]);
        assert_eq!(fused.similarities().len(), 1);
        assert!((fused.similarity_to(&MacAddr::from_index(1)).unwrap() - 1.0).abs() < 1e-6);
    }
}
