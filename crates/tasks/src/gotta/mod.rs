//! Task 3 — GOTTA one-step inference (§II-C).
//!
//! Few-shot QA by prompt-based cloze data augmentation: prepare
//! (question, masked answer, paragraph) inputs, run a forward pass of the
//! fine-tuned generator over each, and evaluate exact match (Fig. 6).
//! The real model is the extractive [`scriptflow_mlkit::ClozeAnswerer`];
//! the virtual cost model charges what the paper's 1.59 GB BART charges —
//! including the Ray object-store tax that drives Fig. 13d.

pub mod script;
pub mod script_actors;
pub mod workflow;

use scriptflow_core::Calibration;
use scriptflow_datagen::fsqa::FsqaDataset;
use scriptflow_mlkit::ClozeAnswerer;
use scriptflow_simcluster::SimDuration;

/// Parameters of one GOTTA run.
#[derive(Debug, Clone)]
pub struct GottaParams {
    /// Number of paragraphs.
    pub paragraphs: usize,
    /// Worker count (Ray CPUs / inference-operator parallelism).
    pub workers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl GottaParams {
    /// A run over `paragraphs` paragraphs with `workers` workers.
    pub fn new(paragraphs: usize, workers: usize) -> Self {
        GottaParams {
            paragraphs,
            workers,
            seed: 0x607A,
        }
    }

    /// Generate the input dataset.
    pub fn dataset(&self, cal: &Calibration) -> FsqaDataset {
        FsqaDataset::generate(
            self.paragraphs,
            cal.gotta_questions_per_paragraph,
            self.seed,
        )
    }

    /// Human-readable config string.
    pub fn config_string(&self) -> String {
        format!("{} paragraphs, {} workers", self.paragraphs, self.workers)
    }
}

/// Per-question generation work after batching amortization: the total
/// work over `paragraphs` scales as `P^exponent`, so each question's
/// share is `base · P^(exponent-1)`.
pub fn amortized_question_work(base: SimDuration, paragraphs: usize, exponent: f64) -> SimDuration {
    let p = paragraphs.max(1) as f64;
    base.scale(p.powf(exponent - 1.0))
}

/// The real inference both paradigms run for one paragraph: answer every
/// cloze question (the paragraph is tokenized once for all of them),
/// producing fingerprint rows.
pub fn infer_paragraph(
    model: &ClozeAnswerer,
    example: &scriptflow_datagen::fsqa::FsqaExample,
) -> Vec<String> {
    let preds = model.answer_batch(&example.paragraph, &example.questions);
    example
        .questions
        .iter()
        .zip(preds)
        .enumerate()
        .map(|(qi, (q, pred))| {
            let correct = pred.eq_ignore_ascii_case(&q.answer);
            format!(
                "p={}|q={qi}|pred={pred}|gold={}|correct={correct}",
                example.id, q.answer
            )
        })
        .collect()
}

/// Exact-match rate over fingerprint rows.
pub fn exact_match_of(rows: &[String]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let hits = rows.iter().filter(|r| r.ends_with("correct=true")).count();
    hits as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortization_decreases_with_scale() {
        let base = SimDuration::from_secs(48);
        let one = amortized_question_work(base, 1, 0.811);
        let sixteen = amortized_question_work(base, 16, 0.811);
        assert_eq!(one, base);
        assert!(sixteen < one);
        // 16^(0.811-1) = 16^-0.189 ≈ 0.592.
        let ratio = sixteen.as_secs_f64() / one.as_secs_f64();
        assert!((0.55..0.65).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn inference_solves_most_questions() {
        let params = GottaParams::new(16, 1);
        let ds = params.dataset(&Calibration::paper());
        let model = ClozeAnswerer::new();
        let rows: Vec<String> = ds
            .examples
            .iter()
            .flat_map(|e| infer_paragraph(&model, e))
            .collect();
        let em = exact_match_of(&rows);
        assert!(em > 0.5, "exact match {em}");
        assert_eq!(rows.len(), 48);
    }

    /// The rows of `infer_paragraph`, in order, pinned by the digests the
    /// per-question tokenization of each paragraph produced.
    #[test]
    fn rows_are_pinned() {
        let model = ClozeAnswerer::new();
        for (paragraphs, seed, digest) in [
            (800, 1, 0x8143_4de6_dd49_f69d_95b4_d104_fe12_a158),
            (800, 0x607A, 0xecba_5b7d_c5a2_b7f6_997e_d371_d741_c006),
            (16, 3, 0xe048_1b50_6ba8_cbd0_7ae1_b143_035c_c211),
        ] {
            let mut params = GottaParams::new(paragraphs, 2);
            params.seed = seed;
            let ds = params.dataset(&Calibration::paper());
            let mut h = scriptflow_core::fingerprint::Fingerprinter::new("gotta");
            for e in &ds.examples {
                for r in infer_paragraph(&model, e) {
                    h.write_str(&r);
                }
            }
            assert_eq!(h.finish().0, digest, "({paragraphs}, {seed:#x})");
        }
    }
}
