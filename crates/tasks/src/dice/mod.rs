//! Task 1 — DICE data wrangling (§II-A).
//!
//! Preprocess MACCROBAT-style clinical reports into MACCROBAT-EE: split
//! annotations into entities and events, filter events on trigger
//! resolvability, join triggered events with their trigger entities to
//! recover spans, rejoin the held-out (trigger-less) events, and link
//! every annotation to its containing sentence (Fig. 4 of the paper).
//!
//! Both implementations produce the same output rows; see
//! [`script::run_script`] and [`workflow::run_workflow`].

pub mod script;
pub mod workflow;

use scriptflow_datagen::maccrobat::{AnnotationKind, MaccrobatDataset};

/// Parameters of one DICE run.
#[derive(Debug, Clone)]
pub struct DiceParams {
    /// Number of text/annotation file pairs.
    pub pairs: usize,
    /// Sentences per report (the paper's corpus averages ~8).
    pub sentences_per_report: usize,
    /// Worker count (Ray CPUs / Texera operator parallelism).
    pub workers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl DiceParams {
    /// A run over `pairs` file pairs with `workers` workers.
    pub fn new(pairs: usize, workers: usize) -> Self {
        DiceParams {
            pairs,
            sentences_per_report: 8,
            workers,
            seed: 0xD1CE,
        }
    }

    /// Generate the input dataset for these parameters.
    pub fn dataset(&self) -> MaccrobatDataset {
        MaccrobatDataset::generate(self.pairs, self.sentences_per_report, self.seed)
    }

    /// Human-readable config string for reports.
    pub fn config_string(&self) -> String {
        format!("{} pairs, {} workers", self.pairs, self.workers)
    }
}

/// Canonical fingerprint of one MACCROBAT-EE output row. Both paradigm
/// implementations and the oracle build rows through this single
/// function, so equality checks are byte-exact.
pub fn row_fingerprint(
    doc_id: i64,
    sent_idx: Option<i64>,
    key: &str,
    kind: &str,
    ann_type: &str,
    text: Option<&str>,
    sentence: Option<&str>,
) -> String {
    format!(
        "doc={doc_id}|sent={}|key={key}|kind={kind}|type={ann_type}|text={}|sentence={}",
        sent_idx.map_or("null".to_owned(), |s| s.to_string()),
        text.unwrap_or("null"),
        sentence.unwrap_or("null"),
    )
}

/// Reference implementation: the expected MACCROBAT-EE rows, computed
/// directly on the dataset structures (no engine involved). Tests compare
/// both paradigm outputs against this.
pub fn oracle(dataset: &MaccrobatDataset) -> Vec<String> {
    let mut rows = Vec::new();
    for report in &dataset.reports {
        for a in &report.annotations {
            match a.kind {
                AnnotationKind::Entity => {
                    let sent = report
                        .sentence_of(a.start)
                        .expect("entities always fall inside a sentence");
                    let (s, e) = report.sentences[sent];
                    rows.push(row_fingerprint(
                        report.doc_id,
                        Some(sent as i64),
                        &a.key,
                        "T",
                        &a.ann_type,
                        Some(&a.text),
                        Some(&report.text[s..e]),
                    ));
                }
                AnnotationKind::Event => match &a.trigger {
                    Some(trigger_key) => {
                        let trigger = report
                            .annotations
                            .iter()
                            .find(|t| t.kind == AnnotationKind::Entity && &t.key == trigger_key)
                            .expect("generator guarantees trigger exists");
                        let sent = report
                            .sentence_of(trigger.start)
                            .expect("trigger falls inside a sentence");
                        let (s, e) = report.sentences[sent];
                        rows.push(row_fingerprint(
                            report.doc_id,
                            Some(sent as i64),
                            &a.key,
                            "E",
                            &a.ann_type,
                            Some(&trigger.text),
                            Some(&report.text[s..e]),
                        ));
                    }
                    None => rows.push(row_fingerprint(
                        report.doc_id,
                        None,
                        &a.key,
                        "E",
                        &a.ann_type,
                        None,
                        None,
                    )),
                },
            }
        }
    }
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_match_annotations() {
        let params = DiceParams::new(6, 1);
        let ds = params.dataset();
        let rows = oracle(&ds);
        assert_eq!(rows.len(), ds.annotation_count());
    }

    #[test]
    fn oracle_links_entities_to_their_sentence() {
        let params = DiceParams::new(3, 1);
        let ds = params.dataset();
        let rows = oracle(&ds);
        // Every entity row names a sentence containing its text.
        for row in rows.iter().filter(|r| r.contains("|kind=T|")) {
            let text = row
                .split("|text=")
                .nth(1)
                .unwrap()
                .split('|')
                .next()
                .unwrap();
            let sentence = row.split("|sentence=").nth(1).unwrap();
            assert!(
                sentence.contains(text),
                "entity text `{text}` not in its sentence `{sentence}`"
            );
        }
    }

    #[test]
    fn heldout_events_have_null_links() {
        let params = DiceParams {
            pairs: 40,
            ..DiceParams::new(40, 1)
        };
        let rows = oracle(&params.dataset());
        let nulls: Vec<&String> = rows.iter().filter(|r| r.contains("sent=null")).collect();
        assert!(!nulls.is_empty(), "expected some held-out events");
        for r in nulls {
            assert!(r.contains("kind=E"));
            assert!(r.ends_with("sentence=null"));
        }
    }

    #[test]
    fn fingerprint_format() {
        let fp = row_fingerprint(3, Some(1), "T2", "T", "Age", Some("34-yr-old"), Some("s"));
        assert_eq!(
            fp,
            "doc=3|sent=1|key=T2|kind=T|type=Age|text=34-yr-old|sentence=s"
        );
    }
}
