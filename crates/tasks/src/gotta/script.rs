//! GOTTA under the script paradigm: Ray tasks fetching the model from
//! the shared object store.
//!
//! This is the configuration whose cost structure the paper dissects in
//! §IV-E: the 1.59 GB model is `ray.put` once, then **every task pays a
//! get**, and `num_cpus=1` pins the generation kernel to a single CPU.

use std::sync::Arc;

use scriptflow_core::{Calibration, Paradigm};
use scriptflow_mlkit::ClozeAnswerer;
use scriptflow_notebook::{Cell, CellError, Kernel, Notebook};
use scriptflow_raysim::{RayConfig, RayTask};
use scriptflow_simcluster::ClusterSpec;

use super::{amortized_question_work, infer_paragraph, GottaParams};
use crate::common::TaskRun;
use crate::listing;

/// Run GOTTA as a notebook + Ray job.
pub fn run_script(params: &GottaParams, cal: &Calibration) -> Result<TaskRun, CellError> {
    let dataset = Arc::new(params.dataset(cal));
    let mut kernel = Kernel::new(
        &ClusterSpec::paper_cluster(),
        RayConfig::with_cpus(params.workers),
    );

    let mut nb = Notebook::new("gotta");
    // Cell 1: load model from disk + put into the object store.
    {
        let setup = cal.gotta_script_setup;
        let model_bytes = cal.gotta_model_bytes;
        nb.push(
            Cell::new("load_model", listing::gotta_script_listing(), move |k| {
                k.advance(setup);
                let model_ref = k.ray().put(ClozeAnswerer::new(), model_bytes);
                k.set("model_ref", model_ref);
                Ok(())
            })
            .writes(&["model_ref"]),
        );
    }
    // Cell 2: build prompts and run one task per paragraph.
    {
        let ds = dataset.clone();
        let q_work = amortized_question_work(
            cal.gotta_work_per_question,
            params.paragraphs,
            cal.gotta_script_batch_exponent,
        );
        let per_paragraph = cal.gotta_questions_per_paragraph as u64;
        nb.push(
            Cell::new(
                "inference",
                "preds = ray.get([infer.remote(c) for c in chunks])",
                move |k| {
                    let model_ref =
                        *k.get::<scriptflow_raysim::ObjRef<ClozeAnswerer>>("model_ref")?;
                    let tasks: Vec<RayTask<Vec<String>>> = ds
                        .examples
                        .iter()
                        .map(|example| {
                            let example = example.clone();
                            RayTask::new(
                                format!("infer_p{}", example.id),
                                q_work * per_paragraph,
                                move |d| {
                                    let model = d.get(model_ref)?;
                                    Ok(infer_paragraph(&model, &example))
                                },
                            )
                            .with_input(model_ref)
                        })
                        .collect();
                    let preds = k.ray().parallel_map(tasks)?;
                    k.set("preds", preds);
                    Ok(())
                },
            )
            .reads(&["model_ref"])
            .writes(&["preds"]),
        );
    }
    // Cell 3: flatten + evaluate exact match.
    nb.push(
        Cell::new("evaluate", "em = exact_match(flat_preds)", |k| {
            let preds = k.get::<Vec<Vec<String>>>("preds")?;
            let rows: Vec<String> = preds.iter().flatten().cloned().collect();
            let em = super::exact_match_of(&rows);
            k.set("rows", rows);
            k.set("exact_match", em);
            Ok(())
        })
        .reads(&["preds"])
        .writes(&["rows", "exact_match"]),
    );

    nb.run_all(&mut kernel)?;
    let output = (*kernel.get::<Vec<String>>("rows")?).clone();
    Ok(TaskRun::new(
        "GOTTA",
        Paradigm::Script,
        params.config_string(),
        kernel.now(),
        params.workers,
        listing::count_loc(&listing::gotta_script_listing()),
        nb.len(),
        output,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gotta::exact_match_of;

    #[test]
    fn fig13d_script_anchors() {
        // Paper: 163.22 / 463.96 / 1389.93 s at 1 / 4 / 16 paragraphs.
        let cal = Calibration::paper();
        let t1 = run_script(&GottaParams::new(1, 1), &cal).unwrap().seconds();
        let t4 = run_script(&GottaParams::new(4, 1), &cal).unwrap().seconds();
        let t16 = run_script(&GottaParams::new(16, 1), &cal)
            .unwrap()
            .seconds();
        assert!((150.0..180.0).contains(&t1), "t1 {t1}");
        assert!((430.0..500.0).contains(&t4), "t4 {t4}");
        assert!((1290.0..1490.0).contains(&t16), "t16 {t16}");
    }

    #[test]
    fn model_is_fetched_per_task() {
        let cal = Calibration::paper();
        let params = GottaParams::new(4, 4);
        let ds = params.dataset(&cal);
        let run = run_script(&params, &cal).unwrap();
        // 4 paragraphs → 4 tasks → at least 4 declared gets + closures.
        assert_eq!(run.output.len(), ds.question_count());
        assert!(exact_match_of(&run.output) > 0.5);
    }

    #[test]
    fn workers_reduce_time() {
        let cal = Calibration::paper();
        let one = run_script(&GottaParams::new(4, 1), &cal).unwrap().seconds();
        let four = run_script(&GottaParams::new(4, 4), &cal).unwrap().seconds();
        assert!(four < one * 0.45, "four {four} vs one {one}");
    }
}
