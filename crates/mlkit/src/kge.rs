//! Knowledge-graph embeddings and TransE-style scoring.
//!
//! The KGE task (§II-D) loads an embedding table, matches products to
//! embeddings, scores them against a user, ranks, and reverse-looks-up
//! the winners. These are those pieces, real and deterministic.

use std::collections::HashMap;

use scriptflow_simcluster::SplitMix64;

/// A dense embedding table: entity id → vector.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    vectors: HashMap<i64, Vec<f32>>,
}

impl EmbeddingTable {
    /// An empty table of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        EmbeddingTable {
            dim,
            vectors: HashMap::new(),
        }
    }

    /// A table with seeded random unit vectors for `ids`.
    pub fn random(dim: usize, ids: impl IntoIterator<Item = i64>, seed: u64) -> Self {
        let mut t = EmbeddingTable::new(dim);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for id in ids {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.range(-1.0..1.0)).collect();
            let n = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in &mut v {
                *x /= n;
            }
            t.insert(id, v);
        }
        t
    }

    /// Insert a vector.
    ///
    /// # Panics
    /// Panics if the vector has the wrong dimensionality.
    pub fn insert(&mut self, id: i64, vector: Vec<f32>) {
        assert_eq!(vector.len(), self.dim, "wrong embedding dimension");
        self.vectors.insert(id, vector);
    }

    /// Look up a vector.
    pub fn get(&self, id: i64) -> Option<&[f32]> {
        self.vectors.get(&id).map(Vec::as_slice)
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if no entities are stored.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Approximate serialized size in bytes (id + f32 vector per entity).
    pub fn approx_bytes(&self) -> u64 {
        (self.vectors.len() * (8 + self.dim * 4)) as u64
    }
}

/// TransE-style scorer: `score(u, r, p) = -‖u + r − p‖₂`. Higher is a
/// better match ("the user, moved by the purchase relation, lands near
/// the product").
#[derive(Debug, Clone)]
pub struct KgeScorer {
    user: Vec<f32>,
    relation: Vec<f32>,
}

impl KgeScorer {
    /// Scorer for one user and one relation vector.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn new(user: Vec<f32>, relation: Vec<f32>) -> Self {
        assert_eq!(user.len(), relation.len(), "dimension mismatch");
        KgeScorer { user, relation }
    }

    /// Score one product embedding.
    pub fn score(&self, product: &[f32]) -> f32 {
        assert_eq!(product.len(), self.user.len(), "dimension mismatch");
        let mut dist2 = 0.0f32;
        for ((u, r), p) in self.user.iter().zip(&self.relation).zip(product) {
            let d = u + r - p;
            dist2 += d * d;
        }
        -dist2.sqrt()
    }

    /// Rank `(id, embedding)` candidates; returns the top-`k` ids with
    /// scores, best first. Ties break by id for determinism.
    pub fn top_k<'a>(
        &self,
        candidates: impl IntoIterator<Item = (i64, &'a [f32])>,
        k: usize,
    ) -> Vec<(i64, f32)> {
        let mut scored: Vec<(i64, f32)> = candidates
            .into_iter()
            .map(|(id, e)| (id, self.score(e)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }
}

/// Reverse lookup: entity id → display name (the KGE task's final step).
#[derive(Debug, Clone, Default)]
pub struct ReverseLookup {
    names: HashMap<i64, String>,
}

impl ReverseLookup {
    /// Build from `(id, name)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (i64, String)>) -> Self {
        ReverseLookup {
            names: pairs.into_iter().collect(),
        }
    }

    /// Resolve an id.
    pub fn name(&self, id: i64) -> Option<&str> {
        self.names.get(&id).map(String::as_str)
    }

    /// Number of known entities.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_table_is_deterministic_and_unit_norm() {
        let a = EmbeddingTable::random(8, 0..10, 42);
        let b = EmbeddingTable::random(8, 0..10, 42);
        for id in 0..10 {
            assert_eq!(a.get(id), b.get(id));
            let n: f32 = a.get(id).unwrap().iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
        let c = EmbeddingTable::random(8, 0..10, 43);
        assert_ne!(a.get(0), c.get(0));
    }

    #[test]
    fn scorer_prefers_exact_translation() {
        let user = vec![1.0, 0.0];
        let rel = vec![0.0, 1.0];
        let scorer = KgeScorer::new(user, rel);
        // Perfect product: u + r = (1, 1).
        assert_eq!(scorer.score(&[1.0, 1.0]), 0.0);
        assert!(scorer.score(&[1.0, 1.0]) > scorer.score(&[0.0, 0.0]));
    }

    #[test]
    fn top_k_matches_full_sort() {
        let scorer = KgeScorer::new(vec![0.5, 0.5], vec![0.1, -0.2]);
        let table = EmbeddingTable::random(2, 0..100, 7);
        let all: Vec<(i64, f32)> =
            scorer.top_k((0..100).map(|id| (id, table.get(id).unwrap())), 100);
        let top5 = scorer.top_k((0..100).map(|id| (id, table.get(id).unwrap())), 5);
        assert_eq!(&all[..5], &top5[..]);
        // Scores weakly decreasing.
        for w in all.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn reverse_lookup() {
        let rl =
            ReverseLookup::from_pairs([(1, "Espresso Maker".to_owned()), (2, "Novel".to_owned())]);
        assert_eq!(rl.name(1), Some("Espresso Maker"));
        assert_eq!(rl.name(9), None);
        assert_eq!(rl.len(), 2);
    }

    #[test]
    fn approx_bytes_scales() {
        let small = EmbeddingTable::random(4, 0..10, 1);
        let big = EmbeddingTable::random(4, 0..1000, 1);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "wrong embedding dimension")]
    fn wrong_dim_insert_panics() {
        EmbeddingTable::new(4).insert(0, vec![1.0]);
    }
}
