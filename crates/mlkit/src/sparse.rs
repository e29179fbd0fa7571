//! Sparse feature vectors.

/// A sparse vector: sorted `(index, value)` pairs.
///
/// The TF-IDF vectorizer produces these and the logistic-regression
/// trainer consumes them; keeping indices sorted makes dot products and
/// merges linear-time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    entries: Vec<(u32, f32)>,
}

impl SparseVector {
    /// Empty vector.
    pub fn new() -> Self {
        SparseVector::default()
    }

    /// Build from possibly unsorted, possibly duplicated pairs; duplicate
    /// indices are summed.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            match entries.last_mut() {
                Some((j, acc)) if *j == i => *acc += v,
                _ => entries.push((i, v)),
            }
        }
        entries.retain(|(_, v)| *v != 0.0);
        SparseVector { entries }
    }

    /// Take `entries` as they are: already sorted by strictly ascending
    /// index, none of them zero — what [`SparseVector::from_pairs`] would
    /// have made of them, without the sort and the second buffer.
    pub(crate) fn from_sorted(entries: Vec<(u32, f32)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|(_, v)| *v != 0.0));
        SparseVector { entries }
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Dot product with a dense weight slice (out-of-range indices are
    /// ignored, matching a fixed-width model head).
    pub fn dot_dense(&self, dense: &[f32]) -> f32 {
        self.entries
            .iter()
            .filter_map(|(i, v)| dense.get(*i as usize).map(|w| w * v))
            .sum()
    }

    /// Dot product with another sparse vector.
    pub fn dot(&self, other: &SparseVector) -> f32 {
        let (mut a, mut b) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while a < self.entries.len() && b < other.entries.len() {
            let (ia, va) = self.entries[a];
            let (ib, vb) = other.entries[b];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += va * vb;
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|(_, v)| v * v).sum::<f32>().sqrt()
    }

    /// Scale in place.
    pub fn scale(&mut self, factor: f32) {
        for (_, v) in &mut self.entries {
            *v *= factor;
        }
    }

    /// L2-normalize in place (no-op on the zero vector).
    pub fn l2_normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 0.5), (2, 0.0)]);
        assert_eq!(v.entries(), &[(1, 2.0), (3, 1.5)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn dot_dense_ignores_out_of_range() {
        let v = SparseVector::from_pairs(vec![(0, 1.0), (5, 2.0)]);
        let w = vec![3.0f32, 0.0, 0.0];
        assert_eq!(v.dot_dense(&w), 3.0);
    }

    #[test]
    fn sparse_dot() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = SparseVector::from_pairs(vec![(2, 5.0), (4, 1.0), (9, 7.0)]);
        assert_eq!(a.dot(&b), 13.0);
        assert_eq!(a.dot(&SparseVector::new()), 0.0);
    }

    #[test]
    fn normalization() {
        let mut v = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        assert_eq!(v.norm(), 5.0);
        v.l2_normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        let mut zero = SparseVector::new();
        zero.l2_normalize(); // must not divide by zero
        assert_eq!(zero.nnz(), 0);
    }
}
