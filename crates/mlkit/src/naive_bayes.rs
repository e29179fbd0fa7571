//! Multinomial Naive Bayes text classifier.
//!
//! A second real model family next to the logistic ensemble: fast to
//! train, fully deterministic, and a useful baseline in the examples and
//! tests (the paper's tasks routinely compare model families).

use std::collections::HashMap;

use crate::text::Vocabulary;

/// A trained multinomial Naive Bayes classifier with Laplace smoothing.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    vocab: Vocabulary,
    classes: Vec<String>,
    /// Per class: log prior.
    log_prior: Vec<f64>,
    /// Per class: per-token log likelihood (dense over the vocabulary).
    log_likelihood: Vec<Vec<f64>>,
}

impl NaiveBayes {
    /// Train on `(text, class-label)` pairs.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn fit(examples: &[(String, String)]) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty dataset");
        let vocab = Vocabulary::fit(examples.iter().map(|(t, _)| t.as_str()));

        // Stable class order: first appearance.
        let mut classes: Vec<String> = Vec::new();
        for (_, c) in examples {
            if !classes.contains(c) {
                classes.push(c.clone());
            }
        }

        let mut class_counts = vec![0usize; classes.len()];
        let mut token_counts: Vec<Vec<f64>> = vec![vec![0.0; vocab.len()]; classes.len()];
        for (text, label) in examples {
            let ci = classes.iter().position(|c| c == label).expect("collected");
            class_counts[ci] += 1;
            for id in vocab.encode(text) {
                token_counts[ci][id as usize] += 1.0;
            }
        }

        let n = examples.len() as f64;
        let log_prior = class_counts.iter().map(|&c| (c as f64 / n).ln()).collect();
        let v = vocab.len() as f64;
        let log_likelihood = token_counts
            .into_iter()
            .map(|counts| {
                let total: f64 = counts.iter().sum();
                counts
                    .into_iter()
                    .map(|c| ((c + 1.0) / (total + v)).ln())
                    .collect()
            })
            .collect();

        NaiveBayes {
            vocab,
            classes,
            log_prior,
            log_likelihood,
        }
    }

    /// Class labels in model order.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Per-class log joint scores for a text (unknown tokens ignored).
    pub fn log_scores(&self, text: &str) -> Vec<(String, f64)> {
        let ids: Vec<u32> = self.vocab.encode(text);
        self.classes
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let mut score = self.log_prior[ci];
                for id in &ids {
                    score += self.log_likelihood[ci][*id as usize];
                }
                (c.clone(), score)
            })
            .collect()
    }

    /// The most likely class (ties break by model order).
    pub fn predict(&self, text: &str) -> &str {
        let scores = self.log_scores(text);
        let mut best = 0usize;
        for (i, (_, s)) in scores.iter().enumerate() {
            if *s > scores[best].1 {
                best = i;
            }
        }
        &self.classes[best]
    }
}

/// Macro-averaged F1 over multi-class string predictions.
pub fn macro_f1(pred: &[&str], gold: &[&str]) -> f64 {
    assert_eq!(pred.len(), gold.len(), "prediction/gold length mismatch");
    assert!(!pred.is_empty(), "cannot score an empty set");
    let mut classes: Vec<&str> = gold.to_vec();
    classes.sort_unstable();
    classes.dedup();

    let mut f1_sum = 0.0;
    for class in &classes {
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut fne = 0.0;
        for (p, g) in pred.iter().zip(gold) {
            match (p == class, g == class) {
                (true, true) => tp += 1.0,
                (true, false) => fp += 1.0,
                (false, true) => fne += 1.0,
                _ => {}
            }
        }
        if tp > 0.0 {
            let precision = tp / (tp + fp);
            let recall = tp / (tp + fne);
            f1_sum += 2.0 * precision * recall / (precision + recall);
        }
    }
    f1_sum / classes.len() as f64
}

/// A confusion matrix over string labels.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    labels: Vec<String>,
    counts: HashMap<(usize, usize), usize>,
}

impl ConfusionMatrix {
    /// Build from aligned predictions and gold labels.
    pub fn build(pred: &[&str], gold: &[&str]) -> Self {
        assert_eq!(pred.len(), gold.len(), "prediction/gold length mismatch");
        let mut labels: Vec<String> = pred.iter().chain(gold).map(|s| (*s).to_owned()).collect();
        labels.sort_unstable();
        labels.dedup();
        let index = |l: &str| labels.iter().position(|x| x == l).expect("collected");
        let mut counts = HashMap::new();
        for (p, g) in pred.iter().zip(gold) {
            *counts.entry((index(g), index(p))).or_insert(0) += 1;
        }
        ConfusionMatrix { labels, counts }
    }

    /// Count of (gold, predicted) pairs.
    pub fn count(&self, gold: &str, pred: &str) -> usize {
        let g = self.labels.iter().position(|x| x == gold);
        let p = self.labels.iter().position(|x| x == pred);
        match (g, p) {
            (Some(g), Some(p)) => *self.counts.get(&(g, p)).unwrap_or(&0),
            _ => 0,
        }
    }

    /// The label set, sorted.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Total correct predictions (matrix trace).
    pub fn trace(&self) -> usize {
        (0..self.labels.len())
            .map(|i| *self.counts.get(&(i, i)).unwrap_or(&0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<(String, String)> {
        let mut v = Vec::new();
        for i in 0..8 {
            v.push((
                format!("wildfire smoke and climate change {i}"),
                "climate".to_owned(),
            ));
            v.push((format!("the cat sat on the sofa {i}"), "pets".to_owned()));
            v.push((
                format!("election results and parliament votes {i}"),
                "politics".to_owned(),
            ));
        }
        v
    }

    #[test]
    fn learns_and_predicts() {
        let model = NaiveBayes::fit(&examples());
        assert_eq!(model.predict("smoke from the wildfire"), "climate");
        assert_eq!(model.predict("my cat on the sofa"), "pets");
        assert_eq!(model.predict("parliament election"), "politics");
        assert_eq!(model.classes().len(), 3);
    }

    #[test]
    fn scores_cover_all_classes_and_are_finite() {
        let model = NaiveBayes::fit(&examples());
        let scores = model.log_scores("completely novel words qqq");
        assert_eq!(scores.len(), 3);
        for (_, s) in scores {
            assert!(s.is_finite());
        }
    }

    #[test]
    fn deterministic() {
        let a = NaiveBayes::fit(&examples());
        let b = NaiveBayes::fit(&examples());
        assert_eq!(a.log_scores("wildfire"), b.log_scores("wildfire"));
    }

    #[test]
    fn macro_f1_perfect_and_mixed() {
        assert_eq!(macro_f1(&["a", "b"], &["a", "b"]), 1.0);
        let f1 = macro_f1(&["a", "a", "b"], &["a", "b", "b"]);
        assert!(f1 > 0.5 && f1 < 1.0, "{f1}");
    }

    #[test]
    fn confusion_matrix_counts() {
        let pred = ["a", "a", "b", "b"];
        let gold = ["a", "b", "b", "a"];
        let cm = ConfusionMatrix::build(&pred, &gold);
        assert_eq!(cm.count("a", "a"), 1);
        assert_eq!(cm.count("b", "a"), 1);
        assert_eq!(cm.count("a", "b"), 1);
        assert_eq!(cm.count("b", "b"), 1);
        assert_eq!(cm.trace(), 2);
        assert_eq!(cm.labels(), &["a".to_owned(), "b".to_owned()]);
        assert_eq!(cm.count("zz", "a"), 0);
    }

    #[test]
    fn end_to_end_with_split() {
        use crate::split::train_test_split;
        let data = examples();
        let (train_idx, test_idx) = train_test_split(data.len(), 0.25, 5);
        let train: Vec<(String, String)> = train_idx.iter().map(|&i| data[i].clone()).collect();
        let model = NaiveBayes::fit(&train);
        let pred: Vec<&str> = test_idx
            .iter()
            .map(|&i| model.predict(&data[i].0))
            .collect();
        let gold: Vec<&str> = test_idx.iter().map(|&i| data[i].1.as_str()).collect();
        assert!(macro_f1(&pred, &gold) > 0.8);
    }
}
