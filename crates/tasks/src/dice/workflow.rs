//! DICE under the GUI-workflow paradigm: a 10-operator Texera-style DAG.
//!
//! ```text
//! [Annotations Scan] → [Parse] → [Entities Filter]   ──────────────┐
//!                             ↘ [Triggered Events]→┐               │
//!                             ↘ [Held-out Events] ─┼─(join w/ entities)
//! [Sentences Scan] ──(broadcast)──────────────┐    │               │
//!                                    [Link Sentences] ← [Union] ←──┘
//!                                             ↓
//!                                         [Results]
//! ```
//!
//! Unlike the script version there is no global annotation table: the
//! entity side is explicitly hash-partitioned into the join, and the
//! sentence boundary index is broadcast to every link worker — the exact
//! structural constraint §III-B describes.

use std::collections::HashMap;
use std::sync::Arc;

use scriptflow_core::{BackendKind, Calibration};
use scriptflow_datakit::{DataType, Schema, SchemaRef, Tuple, Value};
use scriptflow_workflow::ops::{FilterOp, HashJoinOp, ScanOp, SinkOp, StatefulUdfOp, UdfOp};
use scriptflow_workflow::{
    CostProfile, EngineConfig, PartitionStrategy, ResultCache, WorkflowBuilder, WorkflowError,
    WorkflowResult,
};

use super::{row_fingerprint, DiceParams};
use crate::common::{engine_config, run_on, BackendRun, TaskRun};
use crate::listing;

/// The normalized annotation schema flowing into the union/link stage.
fn normalized_schema() -> SchemaRef {
    Schema::of(&[
        ("doc_id", DataType::Int),
        ("key", DataType::Str),
        ("kind", DataType::Str),
        ("ann_type", DataType::Str),
        ("pos", DataType::Int),
        ("text", DataType::Str),
    ])
}

/// The final MACCROBAT-EE schema.
fn output_schema() -> SchemaRef {
    Schema::of(&[
        ("doc_id", DataType::Int),
        ("sent_idx", DataType::Int),
        ("key", DataType::Str),
        ("kind", DataType::Str),
        ("ann_type", DataType::Str),
        ("text", DataType::Str),
        ("sentence", DataType::Str),
    ])
}

/// One normalized annotation under `schema`, the workflow's one
/// [`normalized_schema`] handle.
fn norm_tuple(
    schema: &SchemaRef,
    doc: i64,
    key: &str,
    kind: &str,
    ann_type: &str,
    pos: Value,
    text: Value,
) -> Tuple {
    Tuple::collect_unchecked(
        schema.clone(),
        [
            Value::Int(doc),
            Value::Str(key.to_owned()),
            Value::Str(kind.to_owned()),
            Value::Str(ann_type.to_owned()),
            pos,
            text,
        ],
    )
}

/// Build the DICE workflow DAG; returns it with the results handle.
/// Shared by the simulated run and the live-executor integration tests.
pub fn build_dice_workflow(
    params: &DiceParams,
    cal: &Calibration,
) -> WorkflowResult<(
    scriptflow_workflow::Workflow,
    scriptflow_workflow::ops::SinkHandle,
)> {
    let dataset = params.dataset();
    let w = params.workers.max(1);

    let mut b = WorkflowBuilder::new();
    let ann_scan = b.add(
        Arc::new(ScanOp::new("Annotations Scan", dataset.annotation_batch())),
        w,
    );
    let sent_scan = b.add(
        Arc::new(ScanOp::new("Sentences Scan", dataset.sentence_batch())),
        1,
    );

    // Parse: validates raw annotation rows (the heavy per-record step).
    let parse = b.add(
        Arc::new(
            UdfOp::with_schema_fn(
                "Parse Annotations",
                1,
                |inputs| Ok((*inputs[0]).clone()),
                |t, _, out| {
                    out.emit(t);
                    Ok(())
                },
            )
            .with_cost(CostProfile {
                per_tuple: cal.dice_wf_parse_per_annotation,
                ..CostProfile::default()
            }),
        ),
        w,
    );

    // Three-way split.
    let entities = b.add(
        Arc::new(FilterOp::new("Entities", |t| Ok(t.get_str("kind")? == "T"))),
        w,
    );
    let triggered = b.add(
        Arc::new(FilterOp::new("Triggered Events", |t| {
            Ok(t.get_str("kind")? == "E" && !t.get("trigger")?.is_null())
        })),
        w,
    );
    let heldout = b.add(
        Arc::new(FilterOp::new("Held-out Events", |t| {
            Ok(t.get_str("kind")? == "E" && t.get("trigger")?.is_null())
        })),
        w,
    );

    // Join triggered events (probe) with entities (build) on
    // (doc_id, trigger) = (doc_id, key).
    let join = b.add(
        Arc::new(
            HashJoinOp::new(
                "Resolve Triggers",
                &["doc_id", "trigger"],
                &["doc_id", "key"],
            )
            .with_cost(
                CostProfile {
                    per_tuple: cal.dice_wf_join_per_annotation,
                    ..CostProfile::default()
                }
                .with_port_cost(0, scriptflow_simcluster::SimDuration::from_micros(2_000)),
            ),
        ),
        w,
    );

    // Normalizers project each branch to the shared schema: built once
    // here, one handle moved into each closure, and from there onto every
    // row they emit.
    let normalized = normalized_schema();
    let schema = normalized.clone();
    let norm_entities = b.add(
        Arc::new(UdfOp::new(
            "Normalize Entities",
            (*normalized).clone(),
            move |t, _, out| {
                out.emit(norm_tuple(
                    &schema,
                    t.get_int("doc_id")
                        .map_err(|e| WorkflowError::from_data("Normalize Entities", e))?,
                    t.get_str("key")
                        .map_err(|e| WorkflowError::from_data("Normalize Entities", e))?,
                    "T",
                    t.get_str("ann_type")
                        .map_err(|e| WorkflowError::from_data("Normalize Entities", e))?,
                    t.get("start")
                        .map_err(|e| WorkflowError::from_data("Normalize Entities", e))?
                        .clone(),
                    t.get("text")
                        .map_err(|e| WorkflowError::from_data("Normalize Entities", e))?
                        .clone(),
                ));
                Ok(())
            },
        )),
        w,
    );
    let schema = normalized.clone();
    let norm_events = b.add(
        Arc::new(UdfOp::new(
            "Normalize Events",
            (*normalized).clone(),
            move |t, _, out| {
                let ctx = |e| WorkflowError::from_data("Normalize Events", e);
                out.emit(norm_tuple(
                    &schema,
                    t.get_int("doc_id").map_err(ctx)?,
                    t.get_str("key").map_err(ctx)?,
                    "E",
                    t.get_str("ann_type").map_err(ctx)?,
                    t.get("start_r").map_err(ctx)?.clone(),
                    t.get("text_r").map_err(ctx)?.clone(),
                ));
                Ok(())
            },
        )),
        w,
    );
    let schema = normalized.clone();
    let norm_heldout = b.add(
        Arc::new(UdfOp::new(
            "Normalize Held-out",
            (*normalized).clone(),
            move |t, _, out| {
                let ctx = |e| WorkflowError::from_data("Normalize Held-out", e);
                out.emit(norm_tuple(
                    &schema,
                    t.get_int("doc_id").map_err(ctx)?,
                    t.get_str("key").map_err(ctx)?,
                    "E",
                    t.get_str("ann_type").map_err(ctx)?,
                    Value::Null,
                    Value::Null,
                ));
                Ok(())
            },
        )),
        w,
    );

    // Union of the three normalized branches.
    let union = b.add(
        Arc::new(UdfOp::with_schema_fn(
            "Union",
            3,
            |inputs| Ok((*inputs[0]).clone()),
            |t, _, out| {
                out.emit(t);
                Ok(())
            },
        )),
        w,
    );

    // Link with sentences: port 0 (blocking) builds the per-doc boundary
    // index from the broadcast sentence stream; port 1 probes.
    type BoundaryIndex = HashMap<i64, Vec<(i64, i64, i64, String)>>;
    let out_schema_for_link = output_schema();
    let link = b.add(
        Arc::new(
            StatefulUdfOp::new(
                "Link Sentences",
                2,
                (*output_schema()).clone(),
                BoundaryIndex::new,
                move |index: &mut BoundaryIndex, t, port, out| {
                    let ctx = |e| WorkflowError::from_data("Link Sentences", e);
                    if port == 0 {
                        index
                            .entry(t.get_int("doc_id").map_err(ctx)?)
                            .or_default()
                            .push((
                                t.get_int("sent_idx").map_err(ctx)?,
                                t.get_int("start").map_err(ctx)?,
                                t.get_int("end").map_err(ctx)?,
                                t.get_str("sentence").map_err(ctx)?.to_owned(),
                            ));
                        return Ok(());
                    }
                    let doc = t.get_int("doc_id").map_err(ctx)?;
                    let pos = t.get("pos").map_err(ctx)?.as_int();
                    let (sent_idx, sentence) = match pos {
                        Some(p) => {
                            let hit = index
                                .get(&doc)
                                .and_then(|v| v.iter().find(|(_, s, e, _)| *s <= p && p < *e))
                                .ok_or_else(|| WorkflowError::OperatorFailed {
                                    operator: "Link Sentences".into(),
                                    message: format!("no sentence covers doc {doc} pos {p}"),
                                })?;
                            (Value::Int(hit.0), Value::Str(hit.3.clone()))
                        }
                        None => (Value::Null, Value::Null),
                    };
                    out.emit(Tuple::collect_unchecked(
                        out_schema_for_link.clone(),
                        [
                            Value::Int(doc),
                            sent_idx,
                            t.get("key").map_err(ctx)?.clone(),
                            t.get("kind").map_err(ctx)?.clone(),
                            t.get("ann_type").map_err(ctx)?.clone(),
                            t.get("text").map_err(ctx)?.clone(),
                            sentence,
                        ],
                    ));
                    Ok(())
                },
                |_, _, _| Ok(()),
            )
            .with_blocking_ports(vec![0])
            .with_cost(
                CostProfile {
                    per_tuple: cal.dice_wf_link_probe_per_annotation,
                    ..CostProfile::default()
                }
                .with_port_cost(0, cal.dice_wf_link_build_per_sentence),
            ),
        ),
        w,
    );

    let sink_op = SinkOp::new("Results");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);

    let rr = PartitionStrategy::RoundRobin;
    let by_doc = PartitionStrategy::Hash(vec!["doc_id".into()]);
    b.connect(ann_scan, parse, 0, rr.clone());
    b.connect(parse, entities, 0, rr.clone());
    b.connect(parse, triggered, 0, rr.clone());
    b.connect(parse, heldout, 0, rr.clone());
    b.connect(entities, join, 0, by_doc.clone());
    b.connect(triggered, join, 1, by_doc.clone());
    b.connect(entities, norm_entities, 0, rr.clone());
    b.connect(join, norm_events, 0, rr.clone());
    b.connect(heldout, norm_heldout, 0, rr.clone());
    b.connect(norm_entities, union, 0, rr.clone());
    b.connect(norm_events, union, 1, rr.clone());
    b.connect(norm_heldout, union, 2, rr.clone());
    b.connect(sent_scan, link, 0, PartitionStrategy::Broadcast);
    b.connect(union, link, 1, rr);
    b.connect(link, sink, 0, PartitionStrategy::Single);

    Ok((b.build()?, handle))
}

/// Run DICE on the simulated workflow engine.
pub fn run_workflow(params: &DiceParams, cal: &Calibration) -> WorkflowResult<TaskRun> {
    Ok(run_workflow_on(params, cal, BackendKind::Sim)?.run)
}

/// Run DICE on an explicitly chosen execution backend.
pub fn run_workflow_on(
    params: &DiceParams,
    cal: &Calibration,
    kind: BackendKind,
) -> WorkflowResult<BackendRun> {
    run_with_config(params, cal, kind, engine_config(cal))
}

/// Run DICE serving and recording through a shared result cache; warm
/// reruns replay unedited operators from sealed segments.
pub fn run_workflow_cached(
    params: &DiceParams,
    cal: &Calibration,
    kind: BackendKind,
    cache: &Arc<ResultCache>,
) -> WorkflowResult<BackendRun> {
    let config = engine_config(cal).with_result_cache(cache.clone());
    run_with_config(params, cal, kind, config)
}

fn run_with_config(
    params: &DiceParams,
    cal: &Calibration,
    kind: BackendKind,
    config: EngineConfig,
) -> WorkflowResult<BackendRun> {
    run_on(
        "DICE",
        params.config_string(),
        listing::dice_workflow_listing().lines().count(),
        build_dice_workflow(params, cal)?,
        kind,
        config,
        |t| {
            row_fingerprint(
                t.get_int("doc_id").expect("schema"),
                t.get("sent_idx").expect("schema").as_int(),
                t.get_str("key").expect("schema"),
                t.get_str("kind").expect("schema"),
                t.get_str("ann_type").expect("schema"),
                t.get("text").expect("schema").as_str(),
                t.get("sentence").expect("schema").as_str(),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dice::oracle;
    use scriptflow_core::Paradigm;

    #[test]
    fn workflow_output_matches_oracle() {
        let params = DiceParams::new(6, 2);
        let run = run_workflow(&params, &Calibration::paper()).unwrap();
        assert_eq!(run.output, oracle(&params.dataset()));
        assert_eq!(run.report.paradigm, Paradigm::Workflow);
        assert_eq!(run.report.metrics.operator_count, 13);
    }

    #[test]
    fn workflow_matches_script() {
        let params = DiceParams::new(10, 3);
        let cal = Calibration::paper();
        let wf = run_workflow(&params, &cal).unwrap();
        let sc = crate::dice::script::run_script(&params, &cal).unwrap();
        assert_eq!(wf.output, sc.output);
    }

    #[test]
    fn workflow_beats_script_at_scale_with_one_worker() {
        // Fig. 13a: Texera is faster at every dataset size.
        let cal = Calibration::paper();
        let params = DiceParams::new(25, 1);
        let wf = run_workflow(&params, &cal).unwrap();
        let sc = crate::dice::script::run_script(&params, &cal).unwrap();
        assert!(
            wf.seconds() < sc.seconds(),
            "workflow {} vs script {}",
            wf.seconds(),
            sc.seconds()
        );
    }
}
