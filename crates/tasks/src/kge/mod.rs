//! Task 4 — KGE multi-step inference (§II-D).
//!
//! Triple prediction via knowledge-graph embeddings: filter candidate
//! products by availability, match each with its embedding, score
//! against the user's TransE translation, rank, and reverse-look-up the
//! top-k product names (Fig. 7).
//!
//! KGE is the paper's workhorse: it appears in the dataset-scaling
//! sweep (Fig. 13c), the worker sweep (Fig. 14c), the language swap
//! (Table I), and the modularity sweep (Fig. 12b). The workflow
//! implementation therefore supports fusion levels 1–6 and a
//! Python/Scala join pipeline swap.

pub mod script;
pub mod workflow;

use scriptflow_core::Calibration;
use scriptflow_datagen::amazon::AmazonCatalog;
use scriptflow_mlkit::kge::KgeScorer;
use scriptflow_simcluster::Language;

/// Parameters of one KGE run.
#[derive(Debug, Clone)]
pub struct KgeParams {
    /// Candidate products.
    pub products: usize,
    /// Worker count.
    pub workers: usize,
    /// Workflow fusion level 1–6 (Fig. 12b); ignored by the script.
    pub fusion: usize,
    /// Language of the embedding-join pipeline (Table I); ignored by the
    /// script.
    pub join_language: Language,
    /// Use the pandas-style Python join with vectorization warm-up (the
    /// Table I Python configuration). The standard workflow uses a plain
    /// dict-probe join without warm-up.
    pub pandas_join: bool,
    /// Dataset seed.
    pub seed: u64,
}

impl KgeParams {
    /// The standard configuration at `products` candidates and `workers`
    /// workers: fusion level 4 (filter / join / score / rank+lookup),
    /// Python join.
    pub fn new(products: usize, workers: usize) -> Self {
        KgeParams {
            products,
            workers,
            fusion: 4,
            join_language: Language::Python,
            pandas_join: false,
            seed: 0x4613,
        }
    }

    /// Same configuration with a different fusion level.
    pub fn with_fusion(mut self, fusion: usize) -> Self {
        assert!((1..=6).contains(&fusion), "fusion level must be 1..=6");
        self.fusion = fusion;
        self
    }

    /// Same configuration with the join pipeline in another language.
    pub fn with_join_language(mut self, language: Language) -> Self {
        self.join_language = language;
        self
    }

    /// Same configuration with the pandas-style warm-up join (Table I's
    /// Python side).
    pub fn with_pandas_join(mut self) -> Self {
        self.pandas_join = true;
        self
    }

    /// Generate the input catalogue.
    pub fn catalog(&self, cal: &Calibration) -> AmazonCatalog {
        AmazonCatalog::generate(self.products, cal.kge_embedding_dim, self.seed)
    }

    /// Human-readable config string.
    pub fn config_string(&self) -> String {
        format!(
            "{} products, {} workers, fusion {}, {} join",
            self.products, self.workers, self.fusion, self.join_language
        )
    }
}

/// The real computation both paradigms share: filter, score, rank,
/// reverse-lookup. Returns the top-k fingerprint rows.
pub fn oracle(catalog: &AmazonCatalog, top_k: usize) -> Vec<String> {
    let scorer = KgeScorer::new(
        catalog.user_embedding.clone(),
        catalog.relation_embedding.clone(),
    );
    let candidates = catalog.products.iter().filter(|p| p.in_stock).map(|p| {
        (
            p.id,
            catalog.embeddings.get(p.id).expect("embedding exists"),
        )
    });
    let ranked = scorer.top_k(candidates, top_k);
    let lookup = catalog.reverse_lookup();
    ranked
        .iter()
        .enumerate()
        .map(|(rank, (id, score))| {
            format!(
                "rank={}|id={id}|name={}|score={score:.4}",
                rank + 1,
                lookup.name(*id).expect("name exists"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_returns_k_ranked_rows() {
        let params = KgeParams::new(500, 1);
        let cal = Calibration::paper();
        let rows = oracle(&params.catalog(&cal), cal.kge_top_k);
        assert_eq!(rows.len(), 10);
        assert!(rows[0].starts_with("rank=1|"));
        // Only in-stock products can win.
        let catalog = params.catalog(&cal);
        for row in &rows {
            let id: i64 = row
                .split("|id=")
                .nth(1)
                .unwrap()
                .split('|')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(catalog.products[id as usize].in_stock);
        }
    }

    #[test]
    fn fusion_validation() {
        let p = KgeParams::new(10, 1).with_fusion(6);
        assert_eq!(p.fusion, 6);
    }

    #[test]
    #[should_panic(expected = "fusion level must be 1..=6")]
    fn fusion_out_of_range_panics() {
        KgeParams::new(10, 1).with_fusion(7);
    }
}
