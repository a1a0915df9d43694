//! Histogram similarity measures.
//!
//! The paper uses the cosine similarity (Definition 2) citing Cha's
//! taxonomy of histogram distances. Several alternatives from that taxonomy
//! are provided for the ablation benchmarks; all are normalised so that 1
//! means identical and 0 means disjoint.
//!
//! *Erratum note*: Definition 2 in the paper writes `1 −` in front of the
//! cosine, yet the surrounding text specifies "equals 1 if two signatures
//! are exactly the same … 0 when signatures have no intersection", and
//! Algorithm 1 accumulates the value as a similarity. The `1 −` is treated
//! as a typo; [`SimilarityMeasure::Cosine`] is plain cosine similarity.

use core::fmt;
use core::str::FromStr;

/// A similarity measure between two percentage-frequency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimilarityMeasure {
    /// Cosine similarity (the paper's measure, Definition 2).
    #[default]
    Cosine,
    /// Histogram intersection: `Σ min(cⱼ, rⱼ)`.
    Intersection,
    /// Bhattacharyya coefficient: `Σ √(cⱼ·rⱼ)`.
    Bhattacharyya,
    /// `1 − L1/2`: total-variation complement.
    TotalVariation,
    /// `1 / (1 + L2)`: inverse Euclidean distance.
    InverseEuclidean,
}

impl SimilarityMeasure {
    /// All provided measures, for ablation sweeps.
    pub const ALL: [SimilarityMeasure; 5] = [
        SimilarityMeasure::Cosine,
        SimilarityMeasure::Intersection,
        SimilarityMeasure::Bhattacharyya,
        SimilarityMeasure::TotalVariation,
        SimilarityMeasure::InverseEuclidean,
    ];

    /// Computes the similarity of two frequency vectors.
    ///
    /// Both inputs must be the same length; frequency vectors from
    /// [`Histogram::frequencies`](crate::Histogram::frequencies) with equal
    /// [`BinSpec`](crate::BinSpec)s always are. A length mismatch means
    /// the histograms were binned incompatibly and carries no similarity
    /// information, so it deterministically scores 0.0 — in release *and*
    /// debug builds. Also returns 0.0 when either vector is all-zero (an
    /// empty histogram matches nothing).
    pub fn compute(self, candidate: &[f64], reference: &[f64]) -> f64 {
        if candidate.len() != reference.len() {
            return 0.0;
        }
        // An empty histogram carries no information and matches nothing.
        if candidate.iter().all(|&x| x == 0.0) || reference.iter().all(|&x| x == 0.0) {
            return 0.0;
        }
        self.compute_dense(candidate, reference)
    }

    /// The raw kernel over equal-length, not-all-zero rows: the matrix
    /// sweep in [`matching`](crate::matching) hoists the zero/length
    /// checks out of the per-device loop and calls this directly.
    #[inline]
    pub(crate) fn compute_dense(self, candidate: &[f64], reference: &[f64]) -> f64 {
        match self {
            SimilarityMeasure::Cosine => cosine(candidate, reference),
            SimilarityMeasure::Intersection => {
                candidate.iter().zip(reference).map(|(&c, &r)| c.min(r)).sum()
            }
            SimilarityMeasure::Bhattacharyya => {
                candidate.iter().zip(reference).map(|(&c, &r)| (c * r).sqrt()).sum()
            }
            SimilarityMeasure::TotalVariation => {
                let l1: f64 = candidate.iter().zip(reference).map(|(&c, &r)| (c - r).abs()).sum();
                (1.0 - l1 / 2.0).max(0.0)
            }
            SimilarityMeasure::InverseEuclidean => {
                let l2: f64 = candidate
                    .iter()
                    .zip(reference)
                    .map(|(&c, &r)| (c - r) * (c - r))
                    .sum::<f64>()
                    .sqrt();
                1.0 / (1.0 + l2)
            }
        }
    }

    /// The dense kernel over the `f32` rows the matching engine packs
    /// ([`matching`](crate::matching)): inputs are `f32` (half the memory
    /// traffic of the `f64` form), every sum accumulates in `f64`, so the
    /// only divergence from [`SimilarityMeasure::compute_dense`] is the
    /// one-off `f64 → f32` quantisation of the stored rows — bounded by
    /// [`F32_SCORE_TOLERANCE`](crate::matching::F32_SCORE_TOLERANCE).
    ///
    /// The cosine arm is the dense scalar form through the dispatched
    /// [`kernel`](crate::kernel) dot; the matching sweep never calls it
    /// (its cosine is a column pass over the candidate's nonzero bins in
    /// `f64`, with precomputed norms), but property tests hold both within
    /// [`F32_SCORE_TOLERANCE`](crate::matching::F32_SCORE_TOLERANCE) of
    /// the `f64` form.
    #[inline]
    pub(crate) fn compute_dense_f32(self, candidate: &[f32], reference: &[f32]) -> f64 {
        match self {
            SimilarityMeasure::Cosine => {
                let dot = f64::from(crate::kernel::dot_f32(candidate, reference));
                let na = f64::from(crate::kernel::dot_f32(candidate, candidate));
                let nb = f64::from(crate::kernel::dot_f32(reference, reference));
                if na <= 0.0 || nb <= 0.0 {
                    0.0
                } else {
                    (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
                }
            }
            SimilarityMeasure::Intersection => {
                candidate.iter().zip(reference).map(|(&c, &r)| f64::from(c.min(r))).sum()
            }
            SimilarityMeasure::Bhattacharyya => candidate
                .iter()
                .zip(reference)
                .map(|(&c, &r)| (f64::from(c) * f64::from(r)).sqrt())
                .sum(),
            SimilarityMeasure::TotalVariation => {
                let l1: f64 = candidate
                    .iter()
                    .zip(reference)
                    .map(|(&c, &r)| (f64::from(c) - f64::from(r)).abs())
                    .sum();
                (1.0 - l1 / 2.0).max(0.0)
            }
            SimilarityMeasure::InverseEuclidean => {
                let l2: f64 = candidate
                    .iter()
                    .zip(reference)
                    .map(|(&c, &r)| {
                        let d = f64::from(c) - f64::from(r);
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt();
                1.0 / (1.0 + l2)
            }
        }
    }

    /// The cosine *distance* form as literally printed in the paper's
    /// Definition 2 (`1 − cosine`); provided for completeness.
    pub fn paper_cosine_distance(candidate: &[f64], reference: &[f64]) -> f64 {
        1.0 - cosine(candidate, reference)
    }
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
    }
}

impl fmt::Display for SimilarityMeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SimilarityMeasure::Cosine => "cosine",
            SimilarityMeasure::Intersection => "intersection",
            SimilarityMeasure::Bhattacharyya => "bhattacharyya",
            SimilarityMeasure::TotalVariation => "total-variation",
            SimilarityMeasure::InverseEuclidean => "inverse-euclidean",
        };
        f.write_str(s)
    }
}

/// Error parsing a [`SimilarityMeasure`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSimilarityMeasureError(String);

impl fmt::Display for ParseSimilarityMeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown similarity measure {:?}", self.0)
    }
}

impl std::error::Error for ParseSimilarityMeasureError {}

impl FromStr for SimilarityMeasure {
    type Err = ParseSimilarityMeasureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cosine" => Ok(SimilarityMeasure::Cosine),
            "intersection" => Ok(SimilarityMeasure::Intersection),
            "bhattacharyya" => Ok(SimilarityMeasure::Bhattacharyya),
            "total-variation" => Ok(SimilarityMeasure::TotalVariation),
            "inverse-euclidean" => Ok(SimilarityMeasure::InverseEuclidean),
            other => Err(ParseSimilarityMeasureError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 4] = [0.5, 0.5, 0.0, 0.0];
    const B: [f64; 4] = [0.0, 0.0, 0.5, 0.5];

    #[test]
    fn identical_distributions_score_one() {
        for m in SimilarityMeasure::ALL {
            let s = m.compute(&A, &A);
            assert!((s - 1.0).abs() < 1e-12, "{m}: {s}");
        }
    }

    #[test]
    fn disjoint_distributions_score_zero_for_overlap_measures() {
        for m in [
            SimilarityMeasure::Cosine,
            SimilarityMeasure::Intersection,
            SimilarityMeasure::Bhattacharyya,
            SimilarityMeasure::TotalVariation,
        ] {
            let s = m.compute(&A, &B);
            assert!(s.abs() < 1e-12, "{m}: {s}");
        }
        // Inverse Euclidean is small but nonzero for disjoint inputs.
        let s = SimilarityMeasure::InverseEuclidean.compute(&A, &B);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn mismatched_lengths_score_zero_in_release_too() {
        let short = [0.5, 0.5];
        for m in SimilarityMeasure::ALL {
            assert_eq!(m.compute(&short, &A), 0.0, "{m}");
            assert_eq!(m.compute(&A, &short), 0.0, "{m}");
            assert_eq!(m.compute(&[], &A), 0.0, "{m}");
        }
    }

    #[test]
    fn empty_vectors_score_zero() {
        let zero = [0.0; 4];
        for m in SimilarityMeasure::ALL {
            assert_eq!(m.compute(&zero, &A), 0.0, "{m}");
            assert_eq!(m.compute(&A, &zero), 0.0, "{m}");
        }
    }

    #[test]
    fn symmetry() {
        let c = [0.1, 0.2, 0.3, 0.4];
        for m in SimilarityMeasure::ALL {
            assert!((m.compute(&A, &c) - m.compute(&c, &A)).abs() < 1e-12, "{m}");
        }
    }

    #[test]
    fn partial_overlap_in_unit_interval() {
        let c = [0.25, 0.25, 0.25, 0.25];
        for m in SimilarityMeasure::ALL {
            let s = m.compute(&A, &c);
            assert!((0.0..=1.0).contains(&s), "{m}: {s}");
            assert!(s > 0.0 && s < 1.0, "{m}: {s}");
        }
    }

    #[test]
    fn dense_f32_kernel_tracks_dense_f64() {
        // Awkward values (thirds, sevenths) so f64 → f32 actually rounds.
        let c64: Vec<f64> = (0..251).map(|i| (f64::from(i % 3) + 1.0) / (3.0 * 251.0)).collect();
        let r64: Vec<f64> = (0..251).map(|i| (f64::from(i % 7) + 1.0) / (7.0 * 251.0)).collect();
        let c32: Vec<f32> = c64.iter().map(|&v| v as f32).collect();
        let r32: Vec<f32> = r64.iter().map(|&v| v as f32).collect();
        for m in SimilarityMeasure::ALL {
            let want = m.compute_dense(&c64, &r64);
            let got = m.compute_dense_f32(&c32, &r32);
            assert!(
                (got - want).abs() < crate::matching::F32_SCORE_TOLERANCE,
                "{m}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn paper_distance_form_inverts_cosine() {
        assert!(SimilarityMeasure::paper_cosine_distance(&A, &A).abs() < 1e-12);
        assert!((SimilarityMeasure::paper_cosine_distance(&A, &B) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn names_round_trip() {
        for m in SimilarityMeasure::ALL {
            let parsed: SimilarityMeasure = m.to_string().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("euclidean-ish".parse::<SimilarityMeasure>().is_err());
    }
}
