//! Binary logistic regression trained with SGD.
//!
//! The real, trainable model standing in for the paper's BERT binary
//! classifiers: the WEF task fine-tunes four of these over TF-IDF
//! features. Training is seeded and fully deterministic.

use scriptflow_simcluster::SplitMix64;

use crate::sparse::SparseVector;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            lr: 0.5,
            l2: 1e-4,
            seed: 7,
        }
    }
}

/// A trained binary classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
}

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Train on `(x, y)` pairs; `dim` is the feature width.
    ///
    /// # Panics
    /// Panics if `xs` and `ys` differ in length or are empty.
    pub fn fit(dim: usize, xs: &[SparseVector], ys: &[bool], config: TrainConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "features and labels must align");
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        let mut weights = vec![0.0f32; dim];
        let mut bias = 0.0f32;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut rng = SplitMix64::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let x = &xs[i];
                let y = if ys[i] { 1.0f32 } else { 0.0 };
                let p = sigmoid(x.dot_dense(&weights) + bias);
                let err = p - y;
                for &(idx, v) in x.entries() {
                    let w = &mut weights[idx as usize];
                    *w -= config.lr * (err * v + config.l2 * *w);
                }
                bias -= config.lr * err;
            }
        }
        LogisticRegression { weights, bias }
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, x: &SparseVector) -> f32 {
        sigmoid(x.dot_dense(&self.weights) + self.bias)
    }

    /// Hard decision at threshold 0.5.
    pub fn predict(&self, x: &SparseVector) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Approximate in-memory size in bytes (weights + bias), used for
    /// object-store accounting.
    pub fn approx_bytes(&self) -> u64 {
        (self.weights.len() * 4 + 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::TfIdfVectorizer;

    /// A linearly separable toy problem: positive iff feature 0 present.
    fn toy() -> (Vec<SparseVector>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let pos = i % 2 == 0;
            let mut pairs = vec![(1 + (i % 5) as u32, 0.5f32)];
            if pos {
                pairs.push((0, 1.0));
            }
            xs.push(SparseVector::from_pairs(pairs));
            ys.push(pos);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_problem() {
        let (xs, ys) = toy();
        let model = LogisticRegression::fit(6, &xs, &ys, TrainConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| model.predict(x) == **y)
            .count();
        assert_eq!(correct, xs.len(), "separable problem must be learned");
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = toy();
        let a = LogisticRegression::fit(6, &xs, &ys, TrainConfig::default());
        let b = LogisticRegression::fit(6, &xs, &ys, TrainConfig::default());
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn different_seed_different_path() {
        let (xs, ys) = toy();
        let a = LogisticRegression::fit(6, &xs, &ys, TrainConfig::default());
        let b = LogisticRegression::fit(
            6,
            &xs,
            &ys,
            TrainConfig {
                seed: 99,
                ..TrainConfig::default()
            },
        );
        assert_ne!(a.weights, b.weights);
    }

    #[test]
    fn works_on_real_text_features() {
        let docs = [
            "wildfire caused by climate change",
            "climate change drives wildfires",
            "cute cat video compilation",
            "my cat sleeps all day",
        ];
        let labels = [true, true, false, false];
        let vec = TfIdfVectorizer::fit(docs);
        let xs = vec.transform_all(docs);
        let model = LogisticRegression::fit(vec.dim(), &xs, &labels, TrainConfig::default());
        assert!(model.predict(&vec.transform("climate change and wildfire smoke")));
        assert!(!model.predict(&vec.transform("a sleepy cat")));
    }

    #[test]
    #[should_panic(expected = "features and labels must align")]
    fn mismatched_lengths_panic() {
        LogisticRegression::fit(2, &[SparseVector::new()], &[], TrainConfig::default());
    }
}
