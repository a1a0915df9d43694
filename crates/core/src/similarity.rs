//! The histogram similarity measure.
//!
//! The paper matches signatures with the cosine similarity (Definition 2)
//! citing Cha's taxonomy of histogram distances: 1 means identical and 0
//! means disjoint.
//!
//! *Erratum note*: Definition 2 in the paper writes `1 −` in front of the
//! cosine, yet the surrounding text specifies "equals 1 if two signatures
//! are exactly the same … 0 when signatures have no intersection", and
//! Algorithm 1 accumulates the value as a similarity. The `1 −` is treated
//! as a typo; [`SimilarityMeasure::Cosine`] is plain cosine similarity.

use core::fmt;

/// A similarity measure between two percentage-frequency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimilarityMeasure {
    /// Cosine similarity (the paper's measure, Definition 2).
    #[default]
    Cosine,
}

impl SimilarityMeasure {
    /// Computes the similarity of two frequency vectors in `f64` — the
    /// oracle the packed sweeps in [`matching`](crate::matching) are
    /// tested against.
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
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for (&x, &y) in candidate.iter().zip(reference) {
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
}

impl fmt::Display for SimilarityMeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cosine")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 4] = [0.5, 0.5, 0.0, 0.0];
    const B: [f64; 4] = [0.0, 0.0, 0.5, 0.5];
    const COSINE: SimilarityMeasure = SimilarityMeasure::Cosine;

    #[test]
    fn identical_distributions_score_one() {
        let s = COSINE.compute(&A, &A);
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn disjoint_distributions_score_zero_for_overlap_measures() {
        let s = COSINE.compute(&A, &B);
        assert!(s.abs() < 1e-12, "{s}");
    }

    #[test]
    fn mismatched_lengths_score_zero_in_release_too() {
        let short = [0.5, 0.5];
        assert_eq!(COSINE.compute(&short, &A), 0.0);
        assert_eq!(COSINE.compute(&A, &short), 0.0);
        assert_eq!(COSINE.compute(&[], &A), 0.0);
    }

    #[test]
    fn empty_vectors_score_zero() {
        let zero = [0.0; 4];
        assert_eq!(COSINE.compute(&zero, &A), 0.0);
        assert_eq!(COSINE.compute(&A, &zero), 0.0);
    }

    #[test]
    fn symmetry() {
        let c = [0.1, 0.2, 0.3, 0.4];
        assert!((COSINE.compute(&A, &c) - COSINE.compute(&c, &A)).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_in_unit_interval() {
        let c = [0.25, 0.25, 0.25, 0.25];
        let s = COSINE.compute(&A, &c);
        assert!(s > 0.0 && s < 1.0, "{s}");
    }
}
