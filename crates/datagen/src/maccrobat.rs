//! MACCROBAT-like clinical case reports with annotation files.

use scriptflow_simcluster::SplitMix64;

use scriptflow_datakit::{Batch, BatchBuilder, DataType, Schema, SchemaRef, Value};

/// Annotation category, following the paper's Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// Entity annotation (`T<i>`): a typed text span.
    Entity,
    /// Event annotation (`E<i>`): references a trigger entity.
    Event,
}

/// One annotation row of an `.ann` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// `T1`, `T2`, … or `E1`, `E2`, …
    pub key: String,
    /// Entity/event type label (`Age`, `Sex`, `Sign_symptom`,
    /// `Clinical_event`, …).
    pub ann_type: String,
    /// Entity vs event.
    pub kind: AnnotationKind,
    /// Character span start in the report text (entities only; events
    /// carry the span of their trigger).
    pub start: usize,
    /// Character span end (exclusive).
    pub end: usize,
    /// The covered text.
    pub text: String,
    /// For events: the key of the trigger entity (`T<i>`).
    pub trigger: Option<String>,
}

/// One case report: free text plus its annotations.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Document id (file stem).
    pub doc_id: i64,
    /// The report text: sentences separated by single spaces.
    pub text: String,
    /// Sentence boundaries: `(start, end)` char offsets into `text`.
    pub sentences: Vec<(usize, usize)>,
    /// All annotations (entities then events).
    pub annotations: Vec<Annotation>,
}

impl CaseReport {
    /// Render the `.txt` file content.
    pub fn to_txt_file(&self) -> String {
        self.text.clone()
    }

    /// Render the `.ann` file content (brat-like format).
    pub fn to_ann_file(&self) -> String {
        let mut out = String::new();
        for a in &self.annotations {
            match a.kind {
                AnnotationKind::Entity => {
                    out.push_str(&format!(
                        "{}\t{} {} {}\t{}\n",
                        a.key, a.ann_type, a.start, a.end, a.text
                    ));
                }
                AnnotationKind::Event => {
                    out.push_str(&format!(
                        "{}\t{}:{}\n",
                        a.key,
                        a.ann_type,
                        a.trigger.as_deref().unwrap_or("?")
                    ));
                }
            }
        }
        out
    }

    /// The sentence index containing char offset `pos`, if any.
    pub fn sentence_of(&self, pos: usize) -> Option<usize> {
        self.sentences
            .iter()
            .position(|(s, e)| *s <= pos && pos < *e)
    }
}

/// A generated dataset of case-report file pairs.
#[derive(Debug, Clone)]
pub struct MaccrobatDataset {
    /// The reports (one per text/annotation file pair).
    pub reports: Vec<CaseReport>,
}

const AGES: [&str; 4] = ["34-yr-old", "52-yr-old", "8-yr-old", "71-yr-old"];
const SEXES: [&str; 2] = ["man", "woman"];
const SYMPTOMS: [&str; 8] = [
    "fever",
    "cough",
    "fatigue",
    "dyspnea",
    "headache",
    "nausea",
    "rash",
    "dizziness",
];
const EVENTS: [&str; 4] = ["presented", "admitted", "discharged", "treated"];
const EVENT_TYPES: [&str; 2] = ["Clinical_event", "Therapeutic_procedure"];

impl MaccrobatDataset {
    /// Generate `n_pairs` file pairs with `sentences_per_report` sentences
    /// each.
    pub fn generate(n_pairs: usize, sentences_per_report: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let reports = (0..n_pairs)
            .map(|doc| Self::generate_report(doc as i64, sentences_per_report, &mut rng))
            .collect();
        MaccrobatDataset { reports }
    }

    fn generate_report(doc_id: i64, n_sentences: usize, rng: &mut SplitMix64) -> CaseReport {
        let mut text = String::new();
        let mut sentences = Vec::with_capacity(n_sentences);
        let mut annotations: Vec<Annotation> = Vec::new();
        let mut t_counter = 0usize;
        let mut e_counter = 0usize;

        for s in 0..n_sentences {
            let start = text.len();
            if s == 0 {
                // Demographic lead sentence (like the paper's sample).
                let age = AGES[rng.range(0..AGES.len())];
                let sex = SEXES[rng.range(0..SEXES.len())];
                let event = EVENTS[rng.range(0..EVENTS.len())];
                let symptom = SYMPTOMS[rng.range(0..SYMPTOMS.len())];

                text.push_str("The patient was a ");
                push_entity(&mut text, &mut annotations, &mut t_counter, "Age", age);
                text.push(' ');
                push_entity(&mut text, &mut annotations, &mut t_counter, "Sex", sex);
                text.push_str(" who ");
                let trigger_key = push_entity(
                    &mut text,
                    &mut annotations,
                    &mut t_counter,
                    "Clinical_event",
                    event,
                );
                text.push_str(" with complaints of ");
                push_entity(
                    &mut text,
                    &mut annotations,
                    &mut t_counter,
                    "Sign_symptom",
                    symptom,
                );
                text.push('.');
                push_event(
                    &mut annotations,
                    &mut e_counter,
                    EVENT_TYPES[rng.range(0..EVENT_TYPES.len())],
                    &trigger_key,
                );
            } else {
                let event = EVENTS[rng.range(0..EVENTS.len())];
                let symptom = SYMPTOMS[rng.range(0..SYMPTOMS.len())];
                text.push_str("Later the patient was ");
                let trigger_key = push_entity(
                    &mut text,
                    &mut annotations,
                    &mut t_counter,
                    "Clinical_event",
                    event,
                );
                text.push_str(" after reporting ");
                push_entity(
                    &mut text,
                    &mut annotations,
                    &mut t_counter,
                    "Sign_symptom",
                    symptom,
                );
                text.push('.');
                // Some events lack a resolvable trigger (the condition the
                // DICE filter step tests for).
                if rng.bool(0.8) {
                    push_event(
                        &mut annotations,
                        &mut e_counter,
                        EVENT_TYPES[rng.range(0..EVENT_TYPES.len())],
                        &trigger_key,
                    );
                } else {
                    annotations.push(Annotation {
                        key: format!("E{}", {
                            e_counter += 1;
                            e_counter
                        }),
                        ann_type: EVENT_TYPES[rng.range(0..EVENT_TYPES.len())].to_owned(),
                        kind: AnnotationKind::Event,
                        start: 0,
                        end: 0,
                        text: String::new(),
                        trigger: None,
                    });
                }
            }
            let end = text.len();
            sentences.push((start, end));
            text.push(' ');
        }
        let text = text.trim_end().to_owned();

        // Events inherit their trigger's span so they can be located.
        let spans: Vec<(String, usize, usize, String)> = annotations
            .iter()
            .filter(|a| a.kind == AnnotationKind::Entity)
            .map(|a| (a.key.clone(), a.start, a.end, a.text.clone()))
            .collect();
        for a in &mut annotations {
            if a.kind == AnnotationKind::Event {
                if let Some(tr) = &a.trigger {
                    if let Some((_, s, e, t)) = spans.iter().find(|(k, ..)| k == tr) {
                        a.start = *s;
                        a.end = *e;
                        a.text = t.clone();
                    }
                }
            }
        }

        CaseReport {
            doc_id,
            text,
            sentences,
            annotations,
        }
    }

    /// Total annotations across reports.
    pub fn annotation_count(&self) -> usize {
        self.reports.iter().map(|r| r.annotations.len()).sum()
    }

    /// Schema of [`MaccrobatDataset::annotation_batch`].
    pub fn annotation_schema() -> SchemaRef {
        Schema::of(&[
            ("doc_id", DataType::Int),
            ("key", DataType::Str),
            ("kind", DataType::Str),
            ("ann_type", DataType::Str),
            ("start", DataType::Int),
            ("end", DataType::Int),
            ("text", DataType::Str),
            ("trigger", DataType::Str),
        ])
    }

    /// All annotations as one batch (one row per annotation).
    ///
    /// Event rows deliberately carry **null** span/text columns: resolving
    /// an event's location through its trigger entity is the DICE task's
    /// join, so the raw input must not leak the answer.
    pub fn annotation_batch(&self) -> Batch {
        let schema = Self::annotation_schema();
        let mut bb = BatchBuilder::new(schema);
        for r in &self.reports {
            for a in &r.annotations {
                let is_entity = a.kind == AnnotationKind::Entity;
                bb.push_row(vec![
                    Value::Int(r.doc_id),
                    Value::Str(a.key.clone()),
                    Value::Str(if is_entity { "T" } else { "E" }.to_owned()),
                    Value::Str(a.ann_type.clone()),
                    if is_entity {
                        Value::Int(a.start as i64)
                    } else {
                        Value::Null
                    },
                    if is_entity {
                        Value::Int(a.end as i64)
                    } else {
                        Value::Null
                    },
                    if is_entity {
                        Value::Str(a.text.clone())
                    } else {
                        Value::Null
                    },
                    match &a.trigger {
                        Some(t) => Value::Str(t.clone()),
                        None => Value::Null,
                    },
                ])
                .expect("generator rows conform to schema");
            }
        }
        bb.build()
    }

    /// Schema of [`MaccrobatDataset::sentence_batch`].
    pub fn sentence_schema() -> SchemaRef {
        Schema::of(&[
            ("doc_id", DataType::Int),
            ("sent_idx", DataType::Int),
            ("start", DataType::Int),
            ("end", DataType::Int),
            ("sentence", DataType::Str),
        ])
    }

    /// All sentences as one batch (one row per sentence).
    pub fn sentence_batch(&self) -> Batch {
        let schema = Self::sentence_schema();
        let mut bb = BatchBuilder::new(schema);
        for r in &self.reports {
            for (i, (s, e)) in r.sentences.iter().enumerate() {
                bb.push_row(vec![
                    Value::Int(r.doc_id),
                    Value::Int(i as i64),
                    Value::Int(*s as i64),
                    Value::Int(*e as i64),
                    Value::Str(r.text[*s..*e].to_owned()),
                ])
                .expect("generator rows conform to schema");
            }
        }
        bb.build()
    }
}

fn push_entity(
    text: &mut String,
    annotations: &mut Vec<Annotation>,
    t_counter: &mut usize,
    ann_type: &str,
    span_text: &str,
) -> String {
    *t_counter += 1;
    let key = format!("T{t_counter}");
    let start = text.len();
    text.push_str(span_text);
    annotations.push(Annotation {
        key: key.clone(),
        ann_type: ann_type.to_owned(),
        kind: AnnotationKind::Entity,
        start,
        end: start + span_text.len(),
        text: span_text.to_owned(),
        trigger: None,
    });
    key
}

fn push_event(
    annotations: &mut Vec<Annotation>,
    e_counter: &mut usize,
    ann_type: &str,
    trigger: &str,
) {
    *e_counter += 1;
    annotations.push(Annotation {
        key: format!("E{e_counter}"),
        ann_type: ann_type.to_owned(),
        kind: AnnotationKind::Event,
        start: 0,
        end: 0,
        text: String::new(),
        trigger: Some(trigger.to_owned()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = MaccrobatDataset::generate(5, 4, 11);
        let b = MaccrobatDataset::generate(5, 4, 11);
        assert_eq!(a.reports.len(), 5);
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.text, rb.text);
            assert_eq!(ra.annotations, rb.annotations);
        }
        let c = MaccrobatDataset::generate(5, 4, 12);
        assert_ne!(a.reports[0].text, c.reports[0].text);
    }

    #[test]
    fn entity_spans_index_into_text() {
        let ds = MaccrobatDataset::generate(10, 5, 3);
        for r in &ds.reports {
            for a in &r.annotations {
                if a.kind == AnnotationKind::Entity {
                    assert_eq!(&r.text[a.start..a.end], a.text, "doc {}", r.doc_id);
                }
            }
        }
    }

    #[test]
    fn events_reference_existing_triggers() {
        let ds = MaccrobatDataset::generate(10, 5, 3);
        for r in &ds.reports {
            let entity_keys: Vec<&str> = r
                .annotations
                .iter()
                .filter(|a| a.kind == AnnotationKind::Entity)
                .map(|a| a.key.as_str())
                .collect();
            for a in &r.annotations {
                if let Some(tr) = &a.trigger {
                    assert!(entity_keys.contains(&tr.as_str()));
                }
            }
        }
    }

    #[test]
    fn some_events_lack_triggers() {
        let ds = MaccrobatDataset::generate(30, 6, 3);
        let dangling = ds
            .reports
            .iter()
            .flat_map(|r| &r.annotations)
            .filter(|a| a.kind == AnnotationKind::Event && a.trigger.is_none())
            .count();
        assert!(dangling > 0, "the DICE filter needs some dangling events");
    }

    #[test]
    fn sentences_partition_the_text() {
        let ds = MaccrobatDataset::generate(5, 4, 9);
        for r in &ds.reports {
            assert_eq!(r.sentences.len(), 4);
            for w in r.sentences.windows(2) {
                assert!(w[0].1 <= w[1].0);
            }
            // Every entity lands in exactly one sentence.
            for a in &r.annotations {
                if a.kind == AnnotationKind::Entity {
                    assert!(r.sentence_of(a.start).is_some());
                }
            }
        }
    }

    #[test]
    fn batches_have_expected_shape() {
        let ds = MaccrobatDataset::generate(4, 3, 1);
        let ann = ds.annotation_batch();
        assert_eq!(ann.len(), ds.annotation_count());
        let sent = ds.sentence_batch();
        assert_eq!(sent.len(), 4 * 3);
        assert_eq!(
            sent.schema().to_string(),
            "doc_id: Int, sent_idx: Int, start: Int, end: Int, sentence: Str"
        );
    }

    #[test]
    fn ann_file_rendering() {
        let ds = MaccrobatDataset::generate(1, 2, 5);
        let ann = ds.reports[0].to_ann_file();
        assert!(ann.contains("T1\t"));
        assert!(ann.contains("E1\t"));
        let txt = ds.reports[0].to_txt_file();
        assert!(txt.starts_with("The patient was a"));
    }
}
