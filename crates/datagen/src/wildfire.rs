//! Wildfire tweets with climate framings (the WEF training data).

use scriptflow_simcluster::SplitMix64;

use scriptflow_datakit::{Batch, BatchBuilder, DataType, Schema, SchemaRef, Value};

/// The four climate framings of §II-B, in label order.
pub const FRAMINGS: [&str; 4] = [
    "climate_link",    // explicit link between wildfire and climate change
    "climate_action",  // suggests climate actions
    "other_adversity", // attributes climate change to other adversities
    "not_relevant",    // not relevant
];

/// One labelled tweet.
#[derive(Debug, Clone, PartialEq)]
pub struct Tweet {
    /// Tweet id.
    pub id: i64,
    /// Tweet text.
    pub text: String,
    /// Active framings (1–4 of [`FRAMINGS`]).
    pub framings: Vec<String>,
}

/// A generated tweet dataset.
#[derive(Debug, Clone)]
pub struct WildfireDataset {
    /// The labelled tweets.
    pub tweets: Vec<Tweet>,
}

const FIRES: [&str; 6] = ["Camp", "Dixie", "Caldor", "Kincade", "Glass", "Creek"];

const LINK_PHRASES: [&str; 3] = [
    "this wildfire is climate change in action",
    "hotter summers from climate change feed these wildfires",
    "the link between the fire and global warming is undeniable",
];
const ACTION_PHRASES: [&str; 3] = [
    "we must cut emissions now",
    "vote for climate policy before the next fire season",
    "invest in renewables to stop this cycle",
];
const ADVERSITY_PHRASES: [&str; 3] = [
    "droughts and floods share the same climate cause",
    "heat waves and crop failures are the same story",
    "rising seas will follow the burning hills",
];
const IRRELEVANT_PHRASES: [&str; 3] = [
    "traffic was terrible near the evacuation route",
    "sending hugs to everyone tonight",
    "my favorite cafe finally reopened",
];

impl WildfireDataset {
    /// Generate `n` tweets.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut tweets = Vec::with_capacity(n);
        for id in 0..n {
            let fire = FIRES[rng.range(0..FIRES.len())];
            let mut framings = Vec::new();
            let mut parts: Vec<String> = vec![format!("{fire} fire update:")];
            // Not-relevant tweets are exclusive; others can combine (the
            // paper: "one to four climate framings").
            if rng.bool(0.25) {
                framings.push(FRAMINGS[3].to_owned());
                parts.push(IRRELEVANT_PHRASES[rng.range(0..3)].to_owned());
            } else {
                if rng.bool(0.7) {
                    framings.push(FRAMINGS[0].to_owned());
                    parts.push(LINK_PHRASES[rng.range(0..3)].to_owned());
                }
                if rng.bool(0.5) {
                    framings.push(FRAMINGS[1].to_owned());
                    parts.push(ACTION_PHRASES[rng.range(0..3)].to_owned());
                }
                if rng.bool(0.3) {
                    framings.push(FRAMINGS[2].to_owned());
                    parts.push(ADVERSITY_PHRASES[rng.range(0..3)].to_owned());
                }
                if framings.is_empty() {
                    framings.push(FRAMINGS[0].to_owned());
                    parts.push(LINK_PHRASES[rng.range(0..3)].to_owned());
                }
            }
            tweets.push(Tweet {
                id: id as i64,
                text: parts.join(" "),
                framings,
            });
        }
        WildfireDataset { tweets }
    }

    /// `(text, labels)` training pairs for
    /// [`scriptflow_mlkit::MultiLabelModel::fit`].
    pub fn training_pairs(&self) -> Vec<(String, Vec<String>)> {
        self.tweets
            .iter()
            .map(|t| (t.text.clone(), t.framings.clone()))
            .collect()
    }

    /// Schema of [`WildfireDataset::batch`].
    pub fn schema() -> SchemaRef {
        Schema::of(&[
            ("id", DataType::Int),
            ("text", DataType::Str),
            ("framings", DataType::List),
        ])
    }

    /// The tweets as one batch.
    pub fn batch(&self) -> Batch {
        let mut bb = BatchBuilder::new(Self::schema());
        for t in &self.tweets {
            bb.push_row(vec![
                Value::Int(t.id),
                Value::Str(t.text.clone()),
                Value::List(t.framings.iter().map(|f| Value::Str(f.clone())).collect()),
            ])
            .expect("generator rows conform to schema");
        }
        bb.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = WildfireDataset::generate(100, 5);
        let b = WildfireDataset::generate(100, 5);
        assert_eq!(a.tweets, b.tweets);
        assert_ne!(
            a.tweets[0].text,
            WildfireDataset::generate(100, 6).tweets[0].text
        );
    }

    #[test]
    fn every_tweet_has_one_to_four_framings() {
        let ds = WildfireDataset::generate(500, 2);
        for t in &ds.tweets {
            assert!((1..=4).contains(&t.framings.len()), "{:?}", t.framings);
            for f in &t.framings {
                assert!(FRAMINGS.contains(&f.as_str()));
            }
        }
    }

    #[test]
    fn all_framings_represented() {
        let ds = WildfireDataset::generate(500, 2);
        for f in FRAMINGS {
            assert!(
                ds.tweets.iter().any(|t| t.framings.iter().any(|g| g == f)),
                "framing {f} never generated"
            );
        }
    }

    #[test]
    fn not_relevant_is_exclusive() {
        let ds = WildfireDataset::generate(500, 2);
        for t in &ds.tweets {
            if t.framings.iter().any(|f| f == "not_relevant") {
                assert_eq!(t.framings.len(), 1);
            }
        }
    }

    #[test]
    fn batch_shape() {
        let ds = WildfireDataset::generate(10, 1);
        let b = ds.batch();
        assert_eq!(b.len(), 10);
        assert_eq!(b.tuples()[0].get_int("id").unwrap(), 0);
        assert!(b.tuples()[0].get("framings").unwrap().as_list().is_some());
    }

    #[test]
    fn training_pairs_align() {
        let ds = WildfireDataset::generate(10, 1);
        let pairs = ds.training_pairs();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[3].0, ds.tweets[3].text);
    }
}
