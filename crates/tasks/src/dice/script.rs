//! DICE under the script paradigm: a notebook driving Ray stages.
//!
//! Cell structure mirrors the paper's description of the straightforward
//! script approach (§III-B): load everything, build in-memory hash
//! tables, loop and probe. Scaling out follows the Ray idiom — partition
//! the file pairs, run one remote task per chunk per stage, barrier with
//! `ray.get`.

use std::sync::Arc;

use scriptflow_core::{Calibration, Paradigm};
use scriptflow_datagen::maccrobat::{AnnotationKind, CaseReport, MaccrobatDataset};
use scriptflow_notebook::{Cell, CellError, Kernel, Notebook};
use scriptflow_raysim::{RayConfig, RayTask};
use scriptflow_simcluster::ClusterSpec;

use super::{row_fingerprint, DiceParams};
use crate::common::TaskRun;
use crate::listing;

/// Wrangle one report into its output rows (the real computation each
/// Ray task performs).
fn wrangle_report(report: &CaseReport) -> Vec<String> {
    // Entity hash table: key -> (start, text), the "global annotation
    // table" the paper says the script approach keeps in memory.
    let entities: std::collections::HashMap<&str, (usize, &str)> = report
        .annotations
        .iter()
        .filter(|a| a.kind == AnnotationKind::Entity)
        .map(|a| (a.key.as_str(), (a.start, a.text.as_str())))
        .collect();
    let mut rows = Vec::with_capacity(report.annotations.len());
    for a in &report.annotations {
        match a.kind {
            AnnotationKind::Entity => {
                let sent = report.sentence_of(a.start).expect("entity in sentence");
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
            AnnotationKind::Event => match a.trigger.as_deref().and_then(|t| entities.get(t)) {
                Some((start, text)) => {
                    let sent = report.sentence_of(*start).expect("trigger in sentence");
                    let (s, e) = report.sentences[sent];
                    rows.push(row_fingerprint(
                        report.doc_id,
                        Some(sent as i64),
                        &a.key,
                        "E",
                        &a.ann_type,
                        Some(text),
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
    rows
}

/// Run DICE as a notebook + Ray job; returns the report and output rows.
pub fn run_script(params: &DiceParams, cal: &Calibration) -> Result<TaskRun, CellError> {
    let dataset = Arc::new(params.dataset());
    let mut kernel = Kernel::new(
        &ClusterSpec::paper_cluster(),
        RayConfig::with_cpus(params.workers),
    );

    let mut nb = Notebook::new("dice");
    // Cell 1: imports + config (driver-side setup).
    {
        let setup = cal.dice_script_setup;
        nb.push(
            Cell::new("setup", listing::dice_script_cell_setup(), move |k| {
                k.advance(setup);
                Ok(())
            })
            .writes(&["config"]),
        );
    }
    // Cell 2: parse the file pairs with one Ray task per chunk.
    {
        let ds = dataset.clone();
        let parse_cost = cal.dice_script_parse_per_pair;
        let workers = params.workers;
        nb.push(
            Cell::new("parse", listing::dice_script_cell_parse(), move |k| {
                let chunks = chunk_docs(ds.reports.len(), workers);
                let ds_ref = k.ray().put(ds.clone(), 2_000_000);
                let tasks: Vec<RayTask<Vec<usize>>> = chunks
                    .into_iter()
                    .enumerate()
                    .map(|(i, chunk)| {
                        let work = parse_cost * chunk.len() as u64;
                        RayTask::new(format!("parse_{i}"), work, move |d| {
                            // Parsing validates annotation structure.
                            let ds = d.get(ds_ref)?;
                            for &doc in &chunk {
                                assert!(!ds.reports[doc].annotations.is_empty());
                            }
                            Ok(chunk)
                        })
                        .with_input(ds_ref)
                    })
                    .collect();
                let parsed = k.ray().parallel_map(tasks)?;
                k.set("parsed_chunks", parsed);
                k.set("ds_ref", ds_ref);
                Ok(())
            })
            .reads(&["config"])
            .writes(&["parsed_chunks", "ds_ref"]),
        );
    }
    // Cell 3: wrangle each chunk (filter + join + sentence link).
    {
        let wrangle_cost = cal.dice_script_wrangle_per_pair;
        nb.push(
            Cell::new("wrangle", listing::dice_script_cell_wrangle(), move |k| {
                let chunks = k.get::<Vec<Vec<usize>>>("parsed_chunks")?;
                let ds_ref =
                    *k.get::<scriptflow_raysim::ObjRef<Arc<MaccrobatDataset>>>("ds_ref")?;
                let tasks: Vec<RayTask<Vec<String>>> = chunks
                    .iter()
                    .enumerate()
                    .map(|(i, chunk)| {
                        let chunk = chunk.clone();
                        let work = wrangle_cost * chunk.len() as u64;
                        RayTask::new(format!("wrangle_{i}"), work, move |d| {
                            let ds = d.get(ds_ref)?;
                            let mut rows = Vec::new();
                            for &doc in &chunk {
                                rows.extend(wrangle_report(&ds.reports[doc]));
                            }
                            Ok(rows)
                        })
                        .with_input(ds_ref)
                    })
                    .collect();
                let results = k.ray().parallel_map(tasks)?;
                k.set("wrangled", results);
                Ok(())
            })
            .reads(&["parsed_chunks", "ds_ref"])
            .writes(&["wrangled"]),
        );
    }
    // Cell 4: collect + write out (driver-side, not distributed).
    {
        let collect = cal.dice_script_collect_per_pair;
        let pairs = params.pairs;
        nb.push(
            Cell::new("collect", listing::dice_script_cell_collect(), move |k| {
                let chunks = k.get::<Vec<Vec<String>>>("wrangled")?;
                k.advance(collect * pairs as u64);
                let rows: Vec<String> = chunks.iter().flatten().cloned().collect();
                k.set("maccrobat_ee", rows);
                Ok(())
            })
            .reads(&["wrangled"])
            .writes(&["maccrobat_ee"]),
        );
    }

    nb.run_all(&mut kernel)?;
    let output = (*kernel.get::<Vec<String>>("maccrobat_ee")?).clone();
    let loc = nb.lines_of_code();
    let cells = nb.len();
    Ok(TaskRun::new(
        "DICE",
        Paradigm::Script,
        params.config_string(),
        kernel.now(),
        params.workers,
        loc,
        cells,
        output,
    ))
}

/// Round-robin the doc indices into `workers` chunks.
fn chunk_docs(n_docs: usize, workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for doc in 0..n_docs {
        chunks[doc % workers].push(doc);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dice::oracle;

    #[test]
    fn script_output_matches_oracle() {
        let params = DiceParams::new(8, 2);
        let run = run_script(&params, &Calibration::paper()).unwrap();
        assert_eq!(run.output, oracle(&params.dataset()));
        assert_eq!(run.report.paradigm, Paradigm::Script);
        assert!(run.seconds() > 0.0);
    }

    #[test]
    fn more_workers_are_faster() {
        let cal = Calibration::paper();
        let one = run_script(&DiceParams::new(40, 1), &cal).unwrap();
        let four = run_script(&DiceParams::new(40, 4), &cal).unwrap();
        assert!(four.seconds() < one.seconds());
        // Same data either way.
        assert_eq!(one.output, four.output);
    }

    #[test]
    fn time_scales_roughly_linearly() {
        let cal = Calibration::paper();
        let small = run_script(&DiceParams::new(10, 1), &cal).unwrap();
        let large = run_script(&DiceParams::new(40, 1), &cal).unwrap();
        let ratio = large.seconds() / small.seconds();
        assert!((2.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn chunking_covers_all_docs() {
        let chunks = chunk_docs(10, 3);
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        assert_eq!(chunk_docs(2, 8).len(), 2);
    }
}
