//! Amazon-like product catalogue + user knowledge graph (the KGE data).

use scriptflow_simcluster::SplitMix64;

use scriptflow_datakit::{Batch, BatchBuilder, DataType, Schema, SchemaRef, Value};
use scriptflow_mlkit::kge::{EmbeddingTable, ReverseLookup};

/// One candidate product.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// Product id (the KG entity id).
    pub id: i64,
    /// Display name.
    pub name: String,
    /// Category label.
    pub category: String,
    /// Whether the product is currently available (the KGE filter step
    /// removes out-of-stock candidates).
    pub in_stock: bool,
}

/// A generated catalogue plus the user-side KG vectors.
#[derive(Debug, Clone)]
pub struct AmazonCatalog {
    /// Candidate products.
    pub products: Vec<Product>,
    /// Product embeddings (the 375 MB table of the paper, in miniature).
    pub embeddings: EmbeddingTable,
    /// The target user's embedding.
    pub user_embedding: Vec<f32>,
    /// The "likely to purchase" relation embedding.
    pub relation_embedding: Vec<f32>,
}

const CATEGORIES: [&str; 6] = [
    "Kitchen",
    "Books",
    "Electronics",
    "Garden",
    "Sports",
    "Toys",
];
const NOUNS: [&str; 8] = [
    "Espresso Maker",
    "Trail Guide",
    "Noise-Cancelling Headphones",
    "Herb Planter",
    "Yoga Mat",
    "Puzzle Set",
    "Desk Lamp",
    "Water Bottle",
];

impl AmazonCatalog {
    /// Generate `n_products` candidates with `dim`-dimensional
    /// embeddings. Roughly 12% of products are out of stock.
    pub fn generate(n_products: usize, dim: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut products = Vec::with_capacity(n_products);
        for id in 0..n_products {
            let noun = NOUNS[rng.range(0..NOUNS.len())];
            let category = CATEGORIES[rng.range(0..CATEGORIES.len())];
            products.push(Product {
                id: id as i64,
                name: format!("{noun} #{id}"),
                category: category.to_owned(),
                in_stock: !rng.bool(0.12),
            });
        }
        let embeddings = EmbeddingTable::random(dim, 0..n_products as i64, seed ^ 0xE1B);
        let user_embedding = unit_vector(dim, &mut rng);
        let relation_embedding = unit_vector(dim, &mut rng);
        AmazonCatalog {
            products,
            embeddings,
            user_embedding,
            relation_embedding,
        }
    }

    /// In-stock product count.
    pub fn in_stock_count(&self) -> usize {
        self.products.iter().filter(|p| p.in_stock).count()
    }

    /// Reverse id→name lookup table.
    pub fn reverse_lookup(&self) -> ReverseLookup {
        ReverseLookup::from_pairs(self.products.iter().map(|p| (p.id, p.name.clone())))
    }

    /// Schema of [`AmazonCatalog::product_batch`].
    pub fn product_schema() -> SchemaRef {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("category", DataType::Str),
            ("in_stock", DataType::Bool),
        ])
    }

    /// The candidates as one batch.
    pub fn product_batch(&self) -> Batch {
        let mut bb = BatchBuilder::new(Self::product_schema());
        for p in &self.products {
            bb.push_row(vec![
                Value::Int(p.id),
                Value::Str(p.name.clone()),
                Value::Str(p.category.clone()),
                Value::Bool(p.in_stock),
            ])
            .expect("generator rows conform to schema");
        }
        bb.build()
    }

    /// Schema of [`AmazonCatalog::embedding_batch`].
    pub fn embedding_schema() -> SchemaRef {
        Schema::of(&[("id", DataType::Int), ("embedding", DataType::List)])
    }

    /// The embedding table as one batch (one row per entity), for tasks
    /// that join products with embeddings relationally.
    pub fn embedding_batch(&self) -> Batch {
        let mut bb = BatchBuilder::new(Self::embedding_schema());
        for p in &self.products {
            let e = self
                .embeddings
                .get(p.id)
                .expect("every product has an embedding");
            bb.push_row(vec![
                Value::Int(p.id),
                Value::List(e.iter().map(|x| Value::Float(f64::from(*x))).collect()),
            ])
            .expect("generator rows conform to schema");
        }
        bb.build()
    }
}

fn unit_vector(dim: usize, rng: &mut SplitMix64) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.range(-1.0..1.0)).collect();
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    for x in &mut v {
        *x /= n;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = AmazonCatalog::generate(100, 8, 4);
        let b = AmazonCatalog::generate(100, 8, 4);
        assert_eq!(a.products, b.products);
        assert_eq!(a.user_embedding, b.user_embedding);
    }

    #[test]
    fn stock_mix() {
        let c = AmazonCatalog::generate(1000, 4, 7);
        let in_stock = c.in_stock_count();
        assert!(in_stock > 800 && in_stock < 950, "in_stock = {in_stock}");
    }

    #[test]
    fn every_product_has_embedding() {
        let c = AmazonCatalog::generate(50, 6, 1);
        for p in &c.products {
            assert_eq!(c.embeddings.get(p.id).unwrap().len(), 6);
        }
        assert_eq!(c.embeddings.len(), 50);
    }

    #[test]
    fn reverse_lookup_resolves_names() {
        let c = AmazonCatalog::generate(10, 4, 2);
        let rl = c.reverse_lookup();
        assert_eq!(rl.name(3), Some(c.products[3].name.as_str()));
    }

    #[test]
    fn batches() {
        let c = AmazonCatalog::generate(20, 4, 3);
        assert_eq!(c.product_batch().len(), 20);
        let eb = c.embedding_batch();
        assert_eq!(eb.len(), 20);
        let first = eb.tuples()[0].get("embedding").unwrap().as_list().unwrap();
        assert_eq!(first.len(), 4);
    }
}
