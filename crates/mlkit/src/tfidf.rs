//! TF-IDF vectorization.

use crate::sparse::SparseVector;
use crate::text::{for_each_token, Vocabulary};

/// A fitted TF-IDF vectorizer (scikit-learn style fit/transform).
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    vocab: Vocabulary,
    idf: Vec<f32>,
}

impl TfIdfVectorizer {
    /// Fit on a corpus: builds the vocabulary and smooth IDF weights
    /// (`ln((1+N)/(1+df)) + 1`).
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a str>) -> Self {
        Self::fit_ids(docs).0
    }

    /// [`TfIdfVectorizer::fit`] plus [`TfIdfVectorizer::transform_all`]
    /// over the same corpus, tokenizing each document once: the vectors
    /// are the ones `transform` makes, entry for entry and bit for bit.
    pub fn fit_transform<'a>(docs: impl IntoIterator<Item = &'a str>) -> (Self, Vec<SparseVector>) {
        let (v, ids) = Self::fit_ids(docs);
        let xs = ids.iter().map(|ids| v.vector(ids)).collect();
        (v, xs)
    }

    /// Fit, returning each document's token ids, sorted: one pass interns
    /// the tokens (ids in first-appearance order, as
    /// [`Vocabulary::fit`] assigns them) and counts document frequencies.
    fn fit_ids<'a>(docs: impl IntoIterator<Item = &'a str>) -> (Self, Vec<Vec<u32>>) {
        let mut vocab = Vocabulary::new();
        let mut df: Vec<u32> = Vec::new();
        let ids: Vec<Vec<u32>> = docs
            .into_iter()
            .map(|doc| {
                let mut ids = Vec::new();
                for_each_token(doc, |tok| ids.push(vocab.add(tok)));
                ids.sort_unstable();
                df.resize(vocab.len(), 0);
                for run in ids.chunk_by(u32::eq) {
                    df[run[0] as usize] += 1;
                }
                ids
            })
            .collect();
        let n_docs = ids.len() as u32;
        let idf = df
            .iter()
            .map(|&d| ((1.0 + n_docs as f32) / (1.0 + d as f32)).ln() + 1.0)
            .collect();
        (TfIdfVectorizer { vocab, idf }, ids)
    }

    /// The L2-normalized TF-IDF vector of a document's sorted in-vocabulary
    /// ids: a run of equal ids is that term's count.
    fn vector(&self, sorted_ids: &[u32]) -> SparseVector {
        let mut entries = Vec::with_capacity(sorted_ids.chunk_by(u32::eq).count());
        for run in sorted_ids.chunk_by(u32::eq) {
            let id = run[0];
            entries.push((id, run.len() as f32 * self.idf[id as usize]));
        }
        let mut v = SparseVector::from_sorted(entries);
        v.l2_normalize();
        v
    }

    /// Vocabulary size (feature dimensionality).
    pub fn dim(&self) -> usize {
        self.vocab.len()
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Transform one document into an L2-normalized TF-IDF vector.
    /// Out-of-vocabulary tokens are dropped.
    pub fn transform(&self, doc: &str) -> SparseVector {
        let mut ids = self.vocab.encode(doc);
        ids.sort_unstable();
        self.vector(&ids)
    }

    /// Transform a whole corpus.
    pub fn transform_all<'a>(&self, docs: impl IntoIterator<Item = &'a str>) -> Vec<SparseVector> {
        docs.into_iter().map(|d| self.transform(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: [&str; 3] = [
        "wildfire smoke covers the city",
        "climate change drives wildfire risk",
        "the city breathes smoke",
    ];

    #[test]
    fn fit_builds_vocab_and_idf() {
        let v = TfIdfVectorizer::fit(CORPUS);
        assert!(v.dim() >= 8);
        // "the" appears in 2 docs, "climate" in 1: rarer gets higher IDF.
        let the_id = v.vocabulary().id("the").unwrap() as usize;
        let climate_id = v.vocabulary().id("climate").unwrap() as usize;
        assert!(v.idf[climate_id] > v.idf[the_id]);
    }

    #[test]
    fn transform_is_normalized() {
        let v = TfIdfVectorizer::fit(CORPUS);
        let x = v.transform("wildfire smoke in the city");
        assert!((x.norm() - 1.0).abs() < 1e-5);
        assert!(x.nnz() >= 3);
    }

    #[test]
    fn similar_docs_score_higher() {
        let v = TfIdfVectorizer::fit(CORPUS);
        let a = v.transform("wildfire smoke covers the city");
        let b = v.transform("smoke covers the city tonight");
        let c = v.transform("climate change risk");
        assert!(a.dot(&b) > a.dot(&c));
    }

    #[test]
    fn oov_only_doc_is_zero_vector() {
        let v = TfIdfVectorizer::fit(CORPUS);
        let x = v.transform("zzz qqq");
        assert_eq!(x.nnz(), 0);
    }

    fn bits(xs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
        xs.iter()
            .map(|x| x.entries().iter().map(|&(i, v)| (i, v.to_bits())).collect())
            .collect()
    }

    /// The per-document `HashMap` term counts the run lengths replaced.
    fn oracle_transform(v: &TfIdfVectorizer, doc: &str) -> SparseVector {
        let mut tf: std::collections::HashMap<u32, f32> = Default::default();
        for tok in crate::text::tokenize(doc) {
            if let Some(id) = v.vocab.id(&tok) {
                *tf.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let pairs = tf
            .into_iter()
            .map(|(id, count)| (id, count * v.idf[id as usize]))
            .collect();
        let mut x = SparseVector::from_pairs(pairs);
        x.l2_normalize();
        x
    }

    #[test]
    fn one_pass_matches_fit_then_transform_bit_for_bit() {
        let corpus: Vec<String> = (0..200)
            .map(|i| {
                format!(
                    "Doc {i}: smoke SMOKE smoke, fire{} Überfluß {} the the city-{}",
                    i % 7,
                    "wildfire ".repeat(i % 4),
                    i % 13
                )
            })
            .collect();
        let docs = || corpus.iter().map(String::as_str);
        let (fitted, xs) = TfIdfVectorizer::fit_transform(docs());
        let refit = TfIdfVectorizer::fit(docs());
        // The two-pass fit: vocabulary first, then deduplicated encodings.
        let mut df = vec![0u32; refit.dim()];
        for d in docs() {
            let mut seen = refit.vocab.encode(d);
            seen.sort_unstable();
            seen.dedup();
            for id in seen {
                df[id as usize] += 1;
            }
        }
        let n = corpus.len() as f32;
        let idf: Vec<u32> = df
            .iter()
            .map(|&d| (((1.0 + n) / (1.0 + d as f32)).ln() + 1.0).to_bits())
            .collect();
        assert_eq!(
            fitted.idf.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            idf
        );
        assert_eq!(
            refit.idf.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            idf
        );
        assert_eq!(bits(&xs), bits(&refit.transform_all(docs())));
        let oracle: Vec<SparseVector> = docs().map(|d| oracle_transform(&refit, d)).collect();
        assert_eq!(bits(&xs), bits(&oracle));
        let unseen = "smoke over the Caldor fire, smoke everywhere";
        assert_eq!(
            bits(&[refit.transform(unseen)]),
            bits(&[oracle_transform(&refit, unseen)])
        );
    }
}
