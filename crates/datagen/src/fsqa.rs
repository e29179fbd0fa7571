//! Few-shot QA paragraphs with cloze questions (the GOTTA inference
//! data).

use scriptflow_simcluster::SplitMix64;

use scriptflow_datakit::{Batch, BatchBuilder, DataType, Schema, SchemaRef, Value};
use scriptflow_mlkit::transformer::ClozeQuestion;

/// One paragraph with its cloze questions.
#[derive(Debug, Clone)]
pub struct FsqaExample {
    /// Paragraph id.
    pub id: i64,
    /// The passage.
    pub paragraph: String,
    /// Cloze questions with gold answers drawn from the passage.
    pub questions: Vec<ClozeQuestion>,
}

/// A generated FSQA dataset.
#[derive(Debug, Clone)]
pub struct FsqaDataset {
    /// The examples.
    pub examples: Vec<FsqaExample>,
}

const SUBJECTS: [&str; 5] = ["patient", "traveler", "student", "engineer", "athlete"];
const SYMPTOMS: [&str; 6] = ["fever", "cough", "fatigue", "rash", "nausea", "headache"];
const TREATMENTS: [&str; 4] = ["antibiotics", "rest", "fluids", "surgery"];
const DURATIONS: [&str; 4] = ["days", "weeks", "months", "hours"];

impl FsqaDataset {
    /// Generate `n_paragraphs` passages with `questions_per_paragraph`
    /// cloze questions each.
    pub fn generate(n_paragraphs: usize, questions_per_paragraph: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut examples = Vec::with_capacity(n_paragraphs);
        for id in 0..n_paragraphs {
            let subject = SUBJECTS[rng.range(0..SUBJECTS.len())];
            let symptom = SYMPTOMS[rng.range(0..SYMPTOMS.len())];
            let treatment = TREATMENTS[rng.range(0..TREATMENTS.len())];
            let duration = DURATIONS[rng.range(0..DURATIONS.len())];
            let paragraph = format!(
                "The {subject} reported {symptom} lasting several {duration}. \
                 Doctors recommended {treatment} as the first response. \
                 After follow up the {subject} recovered fully."
            );
            // Cloze questions mask one known span each; the context words
            // around the mask appear verbatim in the passage.
            let candidates = [
                (
                    format!("The {subject} reported [MASK] lasting several {duration}."),
                    symptom,
                ),
                (
                    "Doctors recommended [MASK] as the first response.".to_owned(),
                    treatment,
                ),
                (
                    format!("The {subject} reported {symptom} lasting several [MASK]."),
                    duration,
                ),
            ];
            let questions = candidates
                .iter()
                .cycle()
                .take(questions_per_paragraph)
                .map(|(m, a)| ClozeQuestion {
                    masked: m.clone(),
                    answer: (*a).to_owned(),
                })
                .collect();
            examples.push(FsqaExample {
                id: id as i64,
                paragraph,
                questions,
            });
        }
        FsqaDataset { examples }
    }

    /// Total questions across paragraphs.
    pub fn question_count(&self) -> usize {
        self.examples.iter().map(|e| e.questions.len()).sum()
    }

    /// Schema of [`FsqaDataset::question_batch`]: one row per (paragraph,
    /// question).
    pub fn question_schema() -> SchemaRef {
        Schema::of(&[
            ("paragraph_id", DataType::Int),
            ("question_idx", DataType::Int),
            ("paragraph", DataType::Str),
            ("masked", DataType::Str),
            ("answer", DataType::Str),
        ])
    }

    /// All questions as one batch.
    pub fn question_batch(&self) -> Batch {
        let mut bb = BatchBuilder::new(Self::question_schema());
        for e in &self.examples {
            for (qi, q) in e.questions.iter().enumerate() {
                bb.push_row(vec![
                    Value::Int(e.id),
                    Value::Int(qi as i64),
                    Value::Str(e.paragraph.clone()),
                    Value::Str(q.masked.clone()),
                    Value::Str(q.answer.clone()),
                ])
                .expect("generator rows conform to schema");
            }
        }
        bb.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_mlkit::ClozeAnswerer;

    #[test]
    fn deterministic() {
        let a = FsqaDataset::generate(4, 3, 9);
        let b = FsqaDataset::generate(4, 3, 9);
        for (x, y) in a.examples.iter().zip(&b.examples) {
            assert_eq!(x.paragraph, y.paragraph);
            assert_eq!(x.questions, y.questions);
        }
    }

    #[test]
    fn answers_come_from_passage() {
        let ds = FsqaDataset::generate(10, 3, 3);
        for e in &ds.examples {
            for q in &e.questions {
                assert!(
                    e.paragraph.contains(&q.answer),
                    "answer `{}` missing from `{}`",
                    q.answer,
                    e.paragraph
                );
            }
        }
    }

    #[test]
    fn extractive_model_solves_most_questions() {
        // End-to-end sanity: the real ClozeAnswerer must beat random
        // guessing by a wide margin on this data.
        let ds = FsqaDataset::generate(20, 3, 5);
        let model = ClozeAnswerer::new();
        let mut hits = 0usize;
        let mut total = 0usize;
        for e in &ds.examples {
            for q in &e.questions {
                total += 1;
                if model.answer(&e.paragraph, &q.masked) == q.answer {
                    hits += 1;
                }
            }
        }
        assert!(
            hits * 2 > total,
            "answerer solved only {hits}/{total} cloze questions"
        );
    }

    #[test]
    fn batch_shape() {
        let ds = FsqaDataset::generate(4, 3, 1);
        let b = ds.question_batch();
        assert_eq!(b.len(), 12);
        assert_eq!(ds.question_count(), 12);
    }
}
