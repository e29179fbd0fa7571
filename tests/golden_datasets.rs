//! Pins the generated datasets. Every number this repository has
//! recorded (EXPERIMENTS.md, the benchmark runs, `artifacts/*.csv`) was
//! measured on data from these generators, so a change to the generator
//! stream must show up here rather than as quietly different inputs.
//! The digests were captured from the build those numbers were taken on.

use scriptflow::core::Fingerprinter;
use scriptflow::datagen::{AmazonCatalog, FsqaDataset, MaccrobatDataset, WildfireDataset};
use scriptflow::datakit::Batch;
use scriptflow::workflow::operator::fingerprint_tuple;

fn digest(batches: &[Batch]) -> String {
    let mut h = Fingerprinter::new("rows");
    for batch in batches {
        for tuple in batch.tuples() {
            fingerprint_tuple(&mut h, tuple);
        }
    }
    h.finish().to_string()
}

#[test]
fn fixed_seed_datasets_match_their_recorded_digests() {
    let amazon = AmazonCatalog::generate(200, 8, 7);
    assert_eq!(
        digest(&[amazon.product_batch(), amazon.embedding_batch()]),
        "2c01a1d8cb24f6db931c2802de2a6da2",
        "amazon"
    );
    let fsqa = FsqaDataset::generate(20, 3, 7);
    assert_eq!(
        digest(&[fsqa.question_batch()]),
        "edfb13426586734cd15b2e299484a0dc",
        "fsqa"
    );
    let maccrobat = MaccrobatDataset::generate(10, 6, 7);
    assert_eq!(
        digest(&[maccrobat.annotation_batch(), maccrobat.sentence_batch()]),
        "a7836aacbb31cb67bd7563565df693a2",
        "maccrobat"
    );
    let wildfire = WildfireDataset::generate(200, 7);
    assert_eq!(
        digest(&[wildfire.batch()]),
        "b83e838502f6916874a52685d1b4dc20",
        "wildfire"
    );
}
