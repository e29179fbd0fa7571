//! # scriptflow-mlkit
//!
//! ML substrate for the four paper tasks.
//!
//! The paper's tasks fine-tune BERT (WEF), run a fine-tuned BART (GOTTA),
//! and score knowledge-graph embeddings (KGE). Shipping those PyTorch
//! models is impossible here, so this crate follows the substitution rule
//! in two layers:
//!
//! 1. **Real, trainable lightweight models** — a tokenizer, TF-IDF
//!    vectorizer, SGD logistic regression, a multi-label ensemble, an
//!    extractive cloze answerer, and a TransE-style embedding scorer.
//!    These produce *real* outputs that the correctness tests compare
//!    across paradigms.
//! 2. **Calibrated cost descriptors** — [`transformer::ModelProfile`]
//!    records the virtual size/compute of the paper's heavyweight models
//!    (e.g. GOTTA's 1.59 GB BART) so the timing experiments charge what
//!    the real models would.
//!
//! Everything is seeded and deterministic.

#![warn(missing_docs)]

pub mod ensemble;
pub mod eval;
pub mod kge;
pub mod logreg;
pub mod naive_bayes;
pub mod sparse;
pub mod split;
pub mod text;
pub mod tfidf;
pub mod transformer;

pub use ensemble::MultiLabelModel;
pub use eval::{accuracy, exact_match, f1_binary, hits_at_k};
pub use kge::{EmbeddingTable, KgeScorer};
pub use logreg::LogisticRegression;
pub use naive_bayes::{macro_f1, ConfusionMatrix, NaiveBayes};
pub use sparse::SparseVector;
pub use split::{kfold, train_test_split};
pub use text::{tokenize, Vocabulary};
pub use tfidf::TfIdfVectorizer;
pub use transformer::{ClozeAnswerer, ModelProfile};
