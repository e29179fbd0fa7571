//! Multi-label classification via an ensemble of binary models.
//!
//! WEF (§II-B) "fine-tunes four pre-trained BERT models to classify
//! whether each tweet belonged to a given framing" — an ensemble of
//! independent binary classifiers, one per label. This is that structure
//! over the real logistic-regression models.

use crate::logreg::{LogisticRegression, TrainConfig};
use crate::sparse::SparseVector;
use crate::tfidf::TfIdfVectorizer;

/// A trained multi-label model: one binary head per label.
#[derive(Debug, Clone)]
pub struct MultiLabelModel {
    labels: Vec<String>,
    vectorizer: TfIdfVectorizer,
    heads: Vec<LogisticRegression>,
}

impl MultiLabelModel {
    /// Train one binary head per label.
    ///
    /// `examples` are `(text, active-labels)` pairs; `labels` fixes the
    /// label order. Each head trains on the same features with its own
    /// binary targets (and its own seed, like the paper's four separate
    /// fine-tuning runs).
    pub fn fit(labels: &[&str], examples: &[(String, Vec<String>)], base: TrainConfig) -> Self {
        Self::fit_vectors(labels, examples, base).0
    }

    /// [`MultiLabelModel::fit`], also returning the feature vector each
    /// head trained on, in example order: [`MultiLabelModel::predict_vector`]
    /// on one of them equals [`MultiLabelModel::predict`] on its text,
    /// without tokenizing it again.
    pub fn fit_vectors(
        labels: &[&str],
        examples: &[(String, Vec<String>)],
        base: TrainConfig,
    ) -> (Self, Vec<SparseVector>) {
        assert!(!labels.is_empty(), "need at least one label");
        assert!(!examples.is_empty(), "cannot train on an empty dataset");
        let (vectorizer, xs) =
            TfIdfVectorizer::fit_transform(examples.iter().map(|(t, _)| t.as_str()));
        let heads = labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let ys: Vec<bool> = examples
                    .iter()
                    .map(|(_, active)| active.iter().any(|l| l == label))
                    .collect();
                LogisticRegression::fit(
                    vectorizer.dim(),
                    &xs,
                    &ys,
                    TrainConfig {
                        seed: base.seed.wrapping_add(i as u64),
                        ..base
                    },
                )
            })
            .collect();
        let model = MultiLabelModel {
            labels: labels.iter().map(|s| (*s).to_owned()).collect(),
            vectorizer,
            heads,
        };
        (model, xs)
    }

    /// Label names, in head order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Per-label probabilities for a text.
    pub fn predict_proba(&self, text: &str) -> Vec<(String, f32)> {
        let x = self.vectorizer.transform(text);
        self.labels
            .iter()
            .zip(&self.heads)
            .map(|(l, h)| (l.clone(), h.predict_proba(&x)))
            .collect()
    }

    /// Labels whose head fires at threshold 0.5.
    pub fn predict(&self, text: &str) -> Vec<String> {
        self.predict_vector(&self.vectorizer.transform(text))
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// Labels whose head fires at threshold 0.5 on a feature vector of
    /// this model's vectorizer, such as one [`MultiLabelModel::fit_vectors`]
    /// returned.
    pub fn predict_vector(&self, x: &SparseVector) -> Vec<&str> {
        self.labels
            .iter()
            .zip(&self.heads)
            .filter(|(_, h)| h.predict(x))
            .map(|(l, _)| l.as_str())
            .collect()
    }

    /// Approximate model size in bytes (all heads + vocabulary), for
    /// object-store accounting.
    pub fn approx_bytes(&self) -> u64 {
        self.heads.iter().map(|h| h.approx_bytes()).sum::<u64>()
            + (self.vectorizer.dim() * 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<(String, Vec<String>)> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push((
                format!("wildfire smoke climate change event {i}"),
                vec!["climate_link".to_owned()],
            ));
            v.push((
                format!("government must act on emissions now {i}"),
                vec!["climate_action".to_owned()],
            ));
            v.push((
                format!("wildfire smoke and emissions action {i}"),
                vec!["climate_link".to_owned(), "climate_action".to_owned()],
            ));
            v.push((
                format!("just a nice sunny day {i}"),
                vec!["not_relevant".to_owned()],
            ));
        }
        v
    }

    const LABELS: [&str; 3] = ["climate_link", "climate_action", "not_relevant"];

    #[test]
    fn learns_multi_label_structure() {
        let model = MultiLabelModel::fit(&LABELS, &examples(), TrainConfig::default());
        let both = model.predict("wildfire smoke and emissions action today");
        assert!(both.contains(&"climate_link".to_owned()), "{both:?}");
        assert!(both.contains(&"climate_action".to_owned()), "{both:?}");
        let none = model.predict("a nice sunny day outside");
        assert!(none.contains(&"not_relevant".to_owned()), "{none:?}");
    }

    #[test]
    fn proba_covers_every_label() {
        let model = MultiLabelModel::fit(&LABELS, &examples(), TrainConfig::default());
        let probs = model.predict_proba("anything");
        assert_eq!(probs.len(), 3);
        for (_, p) in probs {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_training() {
        let a = MultiLabelModel::fit(&LABELS, &examples(), TrainConfig::default());
        let b = MultiLabelModel::fit(&LABELS, &examples(), TrainConfig::default());
        assert_eq!(
            a.predict_proba("wildfire climate"),
            b.predict_proba("wildfire climate")
        );
    }

    #[test]
    fn training_vectors_predict_as_their_texts() {
        let examples = examples();
        let (model, xs) = MultiLabelModel::fit_vectors(&LABELS, &examples, TrainConfig::default());
        assert_eq!(xs.len(), examples.len());
        for ((text, _), x) in examples.iter().zip(&xs) {
            assert_eq!(model.predict_vector(x), model.predict(text));
        }
    }

    #[test]
    fn heads_differ_across_labels() {
        let model = MultiLabelModel::fit(&LABELS, &examples(), TrainConfig::default());
        let probs = model.predict_proba("wildfire smoke climate change");
        let link = probs.iter().find(|(l, _)| l == "climate_link").unwrap().1;
        let nr = probs.iter().find(|(l, _)| l == "not_relevant").unwrap().1;
        assert!(link > nr);
    }
}
