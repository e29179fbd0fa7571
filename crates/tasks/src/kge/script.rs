//! KGE under the script paradigm: pandas-style driver + Ray scoring
//! stage.

use std::sync::Arc;

use scriptflow_core::{Calibration, Paradigm};
use scriptflow_datagen::amazon::AmazonCatalog;
use scriptflow_mlkit::kge::KgeScorer;
use scriptflow_notebook::{Cell, CellError, Kernel, Notebook};
use scriptflow_raysim::{RayConfig, RayTask};
use scriptflow_simcluster::ClusterSpec;

use super::KgeParams;
use crate::common::TaskRun;
use crate::listing;

/// Run KGE as a notebook + Ray job.
pub fn run_script(params: &KgeParams, cal: &Calibration) -> Result<TaskRun, CellError> {
    let catalog = Arc::new(params.catalog(cal));
    let mut kernel = Kernel::new(
        &ClusterSpec::paper_cluster(),
        RayConfig::with_cpus(params.workers),
    );

    let mut nb = Notebook::new("kge");
    // Cell 1: load candidates + embedding model into the object store.
    {
        let cat = catalog.clone();
        nb.push(
            Cell::new("load", listing::kge_script_listing(), move |k| {
                let bytes = cat.embeddings.approx_bytes().max(375_000_000);
                let emb_ref = k.ray().put(cat.clone(), bytes);
                k.set("emb_ref", emb_ref);
                Ok(())
            })
            .writes(&["emb_ref"]),
        );
    }
    // Cell 2: filter + score in parallel chunks (each task pays a model
    // get), then rank + reverse-lookup in the driver.
    {
        let per_product = cal.kge_script_per_product;
        let workers = params.workers.max(1);
        let top_k = cal.kge_top_k;
        let n_products = params.products;
        nb.push(
            Cell::new(
                "score_and_rank",
                "scored = ray.get(futures); top = rank(scored)",
                move |k| {
                    let emb_ref =
                        *k.get::<scriptflow_raysim::ObjRef<Arc<AmazonCatalog>>>("emb_ref")?;
                    let chunk = n_products.div_ceil(workers);
                    let tasks: Vec<RayTask<Vec<(i64, f32)>>> = (0..workers)
                        .map(|wi| {
                            let lo = wi * chunk;
                            let hi = ((wi + 1) * chunk).min(n_products);
                            let span = hi.saturating_sub(lo);
                            RayTask::new(
                                format!("score_{wi}"),
                                per_product * span as u64,
                                move |d| {
                                    let cat = d.get(emb_ref)?;
                                    let scorer = KgeScorer::new(
                                        cat.user_embedding.clone(),
                                        cat.relation_embedding.clone(),
                                    );
                                    Ok(cat.products[lo..hi]
                                        .iter()
                                        .filter(|p| p.in_stock)
                                        .map(|p| {
                                            let e =
                                                cat.embeddings.get(p.id).expect("embedding exists");
                                            (p.id, scorer.score(e))
                                        })
                                        .collect())
                                },
                            )
                            .with_input(emb_ref)
                        })
                        .filter(|t| t.work > scriptflow_simcluster::SimDuration::ZERO)
                        .collect();
                    let scored = k.ray().parallel_map(tasks)?;
                    // Driver-side rank + lookup (pandas nlargest + merge).
                    let cat = k.ray().get(emb_ref)?;
                    let mut all: Vec<(i64, f32)> = scored.into_iter().flatten().collect();
                    all.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.0.cmp(&b.0))
                    });
                    all.truncate(top_k);
                    let lookup = cat.reverse_lookup();
                    let rows: Vec<String> = all
                        .iter()
                        .enumerate()
                        .map(|(rank, (id, score))| {
                            format!(
                                "rank={}|id={id}|name={}|score={score:.4}",
                                rank + 1,
                                lookup.name(*id).expect("name exists"),
                            )
                        })
                        .collect();
                    k.set("top_products", rows);
                    Ok(())
                },
            )
            .reads(&["emb_ref"])
            .writes(&["top_products"]),
        );
    }

    nb.run_all(&mut kernel)?;
    let output = (*kernel.get::<Vec<String>>("top_products")?).clone();
    Ok(TaskRun::new(
        "KGE",
        Paradigm::Script,
        params.config_string(),
        kernel.now(),
        params.workers,
        listing::count_loc(&listing::kge_script_listing()),
        nb.len(),
        output,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kge::oracle;

    #[test]
    fn script_matches_oracle() {
        let cal = Calibration::paper();
        let params = KgeParams::new(800, 2);
        let run = run_script(&params, &cal).unwrap();
        let mut expected = oracle(&params.catalog(&cal), cal.kge_top_k);
        expected.sort_unstable();
        assert_eq!(run.output, expected);
    }

    #[test]
    fn fig13c_script_anchors() {
        // Paper: 90.69 s @6.8k and 975.46 s @68k.
        let cal = Calibration::paper();
        let small = run_script(&KgeParams::new(6_800, 1), &cal)
            .unwrap()
            .seconds();
        let large = run_script(&KgeParams::new(68_000, 1), &cal)
            .unwrap()
            .seconds();
        assert!((85.0..105.0).contains(&small), "6.8k {small}");
        assert!((930.0..1020.0).contains(&large), "68k {large}");
    }

    #[test]
    fn fig14c_script_worker_scaling() {
        // Paper: 975.46 / 459.46 / 273.89 s at 1 / 2 / 4 workers.
        let cal = Calibration::paper();
        let one = run_script(&KgeParams::new(68_000, 1), &cal)
            .unwrap()
            .seconds();
        let two = run_script(&KgeParams::new(68_000, 2), &cal)
            .unwrap()
            .seconds();
        let four = run_script(&KgeParams::new(68_000, 4), &cal)
            .unwrap()
            .seconds();
        assert!(one > two && two > four);
        let s2 = one / two;
        let s4 = one / four;
        assert!((1.7..2.2).contains(&s2), "2-worker speedup {s2}");
        assert!((3.0..4.1).contains(&s4), "4-worker speedup {s4}");
    }
}
