//! KGE under the GUI-workflow paradigm, with fusion levels 1–6 and a
//! Python/Scala join-pipeline swap.
//!
//! The logical pipeline is always filter → embedding-join → score →
//! rank → lookup (Fig. 7). The *fusion level* controls how many
//! operators those five steps are packed into (Fig. 12b's modularity
//! knob); [`super::KgeParams::join_language`] selects the paper's
//! Table I swap, replacing the one Python join operator with a
//! nine-operator built-in Scala pipeline of identical logic.
//!
//! Top-k ranking is distributed the way a real engine does it: each rank
//! worker keeps a local top-k, and a single merge operator finalizes the
//! global order — so the ranking step parallelizes without changing
//! results.

use std::collections::HashMap;
use std::sync::Arc;

use scriptflow_core::{BackendKind, Calibration};
use scriptflow_datakit::{DataType, Schema, SchemaRef, Tuple, Value};
use scriptflow_mlkit::kge::KgeScorer;
use scriptflow_simcluster::{Language, SimDuration};
use scriptflow_workflow::ops::{HashJoinOp, ScanOp, SinkOp, StatefulUdfOp, UdfOp};
use scriptflow_workflow::{
    CostProfile, EngineConfig, OpId, PartitionStrategy, ResultCache, WorkflowBuilder,
    WorkflowError, WorkflowResult,
};

use super::KgeParams;
use crate::common::{engine_config, row_text, run_on, BackendRun, TaskRun};
use crate::listing;

/// (id, name, score) rows flowing after scoring.
fn scored_schema() -> SchemaRef {
    Schema::of(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("score", DataType::Float),
    ])
}

/// Final formatted row.
fn row_schema() -> SchemaRef {
    Schema::of(&[("row", DataType::Str)])
}

/// Ranked (rank, id, name, score) rows.
fn ranked_schema() -> SchemaRef {
    Schema::of(&[
        ("rank", DataType::Int),
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("score", DataType::Float),
    ])
}

/// Bounded local top-k accumulator (score desc, id asc tiebreak).
#[derive(Default)]
struct TopK {
    rows: Vec<(f64, i64, String)>,
}

impl TopK {
    fn push(&mut self, score: f64, id: i64, name: String, k: usize) {
        self.rows.push((score, id, name));
        self.rows.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        self.rows.truncate(k);
    }
}

fn format_row(rank: usize, id: i64, name: &str, score: f64) -> String {
    format!("rank={rank}|id={id}|name={name}|score={score:.4}")
}

/// Build the KGE workflow DAG at the params' fusion level; returns it
/// with the results handle.
pub fn build_kge_workflow(
    params: &KgeParams,
    cal: &Calibration,
) -> WorkflowResult<(
    scriptflow_workflow::Workflow,
    scriptflow_workflow::ops::SinkHandle,
)> {
    assert!(
        (1..=6).contains(&params.fusion),
        "fusion level must be 1..=6"
    );
    let catalog = Arc::new(params.catalog(cal));
    let w = params.workers.max(1);
    let k = cal.kge_top_k;
    let scorer = Arc::new(KgeScorer::new(
        catalog.user_embedding.clone(),
        catalog.relation_embedding.clone(),
    ));

    let py_setup = cal.kge_py_op_setup;
    let filter_c = cal.kge_wf_filter_per_product;
    let join_c = cal.kge_wf_join_per_product;
    let score_c = cal.kge_wf_score_per_product;
    let rank_c = cal.kge_wf_rank_per_product;
    let lookup_c = cal.kge_wf_lookup_per_product;

    let py_cost = |per_tuple: SimDuration| CostProfile {
        per_tuple,
        setup: py_setup,
        ..CostProfile::default()
    };

    let mut b = WorkflowBuilder::new();
    let candidates = b.add(
        Arc::new(ScanOp::new("Candidates Scan", catalog.product_batch())),
        w,
    );
    let embeddings = b.add(
        Arc::new(ScanOp::new("Embedding Scan", catalog.embedding_batch())),
        1,
    );

    // The merge + format tail shared by fusion levels 3..=6. Returns the
    // op whose output is formatted rows.
    let add_merge = |b: &mut WorkflowBuilder, upstream: OpId, k: usize| -> OpId {
        let schema = ranked_schema();
        let merge = b.add(
            Arc::new(
                StatefulUdfOp::new(
                    "Merge Top-K",
                    1,
                    (*ranked_schema()).clone(),
                    TopK::default,
                    move |state: &mut TopK, t, _, _| {
                        let ctx = |e| WorkflowError::from_data("Merge Top-K", e);
                        state.push(
                            t.get_float("score").map_err(ctx)?,
                            t.get_int("id").map_err(ctx)?,
                            t.get_str("name").map_err(ctx)?.to_owned(),
                            k,
                        );
                        Ok(())
                    },
                    move |state, _, out| {
                        for (i, (score, id, name)) in state.rows.drain(..).enumerate() {
                            out.emit(Tuple::collect_unchecked(
                                schema.clone(),
                                [
                                    Value::Int((i + 1) as i64),
                                    Value::Int(id),
                                    Value::Str(name),
                                    Value::Float(score),
                                ],
                            ));
                        }
                        Ok(())
                    },
                )
                .with_cost(CostProfile::per_tuple_micros(200)),
            ),
            1,
        );
        b.connect(upstream, merge, 0, PartitionStrategy::Single);
        merge
    };

    // Build the fusion-level-specific body; returns the operator that
    // emits formatted `row` tuples.
    let rows_op: OpId = match params.fusion {
        1 => {
            // Everything in one blocking mega-operator.
            let cat = catalog.clone();
            let sc = scorer.clone();
            let schema = row_schema();
            let mega_cost = py_cost(filter_c + join_c + score_c + rank_c + lookup_c)
                .with_port_cost(0, cal.kge_wf_build_per_entry);
            struct MegaState {
                table: HashMap<i64, Vec<f32>>,
                top: TopK,
            }
            let mega = b.add(
                Arc::new(
                    StatefulUdfOp::new(
                        "KGE Pipeline",
                        2,
                        (*row_schema()).clone(),
                        || MegaState {
                            table: HashMap::new(),
                            top: TopK::default(),
                        },
                        move |state, t, port, _| {
                            let ctx = |e| WorkflowError::from_data("KGE Pipeline", e);
                            if port == 0 {
                                let id = t.get_int("id").map_err(ctx)?;
                                let v = t
                                    .get("embedding")
                                    .map_err(ctx)?
                                    .as_list()
                                    .map(|l| {
                                        l.iter()
                                            .map(|x| x.as_float().unwrap_or(0.0) as f32)
                                            .collect::<Vec<f32>>()
                                    })
                                    .unwrap_or_default();
                                state.table.insert(id, v);
                                return Ok(());
                            }
                            if !t.get("in_stock").map_err(ctx)?.as_bool().unwrap_or(false) {
                                return Ok(());
                            }
                            let id = t.get_int("id").map_err(ctx)?;
                            if let Some(v) = state.table.get(&id) {
                                let score = f64::from(sc.score(v));
                                state.top.push(
                                    score,
                                    id,
                                    t.get_str("name").map_err(ctx)?.to_owned(),
                                    k,
                                );
                            }
                            Ok(())
                        },
                        move |state, port, out| {
                            if port != 1 {
                                return Ok(());
                            }
                            let _ = &cat;
                            for (i, (score, id, name)) in state.top.rows.drain(..).enumerate() {
                                out.emit(Tuple::collect_unchecked(
                                    schema.clone(),
                                    [Value::Str(format_row(i + 1, id, &name, score))],
                                ));
                            }
                            Ok(())
                        },
                    )
                    .with_blocking_ports(vec![0])
                    .with_cost(mega_cost),
                ),
                1,
            );
            b.connect(embeddings, mega, 0, PartitionStrategy::Single);
            b.connect(candidates, mega, 1, PartitionStrategy::Single);
            mega
        }
        level => {
            // Split pipeline. Stage A: filter (own op for level >= 3,
            // fused into the join group at level 2).
            let standalone_filter = level >= 3;
            let filter_op = if standalone_filter {
                let op = b.add(
                    Arc::new(
                        UdfOp::with_schema_fn(
                            "Stock Filter",
                            1,
                            |inputs| Ok((*inputs[0]).clone()),
                            |t, _, out| {
                                let keep = t
                                    .get("in_stock")
                                    .map_err(|e| WorkflowError::from_data("Stock Filter", e))?
                                    .as_bool()
                                    .unwrap_or(false);
                                if keep {
                                    out.emit(t);
                                }
                                Ok(())
                            },
                        )
                        .with_cost(py_cost(filter_c)),
                    ),
                    w,
                );
                b.connect(candidates, op, 0, PartitionStrategy::RoundRobin);
                Some(op)
            } else {
                None
            };

            // Stage B: the join (Python operator or the Scala pipeline),
            // possibly fused with filter (level 2) and score (level 2).
            // Its output carries (.., embedding) or (.., score).
            let fuse_score_into_join = level == 2;
            let join_out = build_join(
                &mut b,
                cal,
                params,
                JoinWiring {
                    candidates,
                    embeddings,
                    filtered: filter_op,
                    workers: w,
                    fuse_filter: !standalone_filter,
                    fuse_score: fuse_score_into_join,
                    scorer: scorer.clone(),
                    filter_c,
                    join_c,
                    score_c,
                    py_setup,
                },
            );

            // Stage C: score (own op for level >= 4; level 3 fuses the
            // scoring into the rank group below).
            let fuse_score_into_rank = level == 3;
            let scored = if fuse_score_into_join || fuse_score_into_rank {
                join_out
            } else {
                let sc = scorer.clone();
                let schema = scored_schema();
                let op = b.add(
                    Arc::new(
                        UdfOp::new("KGE Score", (*scored_schema()).clone(), move |t, _, out| {
                            let ctx = |e| WorkflowError::from_data("KGE Score", e);
                            let v: Vec<f32> = t
                                .get("embedding")
                                .map_err(ctx)?
                                .as_list()
                                .map(|l| {
                                    l.iter()
                                        .map(|x| x.as_float().unwrap_or(0.0) as f32)
                                        .collect()
                                })
                                .unwrap_or_default();
                            out.emit(Tuple::collect_unchecked(
                                schema.clone(),
                                [
                                    Value::Int(t.get_int("id").map_err(ctx)?),
                                    Value::Str(t.get_str("name").map_err(ctx)?.to_owned()),
                                    Value::Float(f64::from(sc.score(&v))),
                                ],
                            ));
                            Ok(())
                        })
                        .with_cost(py_cost(score_c)),
                    ),
                    w,
                );
                b.connect(join_out, op, 0, PartitionStrategy::RoundRobin);
                op
            };

            // Stage D: rank (+ lookup/format depending on level).
            match level {
                2 => {
                    // [rank + lookup] fused, single worker, emits rows.
                    let schema = row_schema();
                    let op = b.add(
                        Arc::new(
                            StatefulUdfOp::new(
                                "Rank & Lookup",
                                1,
                                (*row_schema()).clone(),
                                TopK::default,
                                move |state: &mut TopK, t, _, _| {
                                    let ctx = |e| WorkflowError::from_data("Rank & Lookup", e);
                                    state.push(
                                        t.get_float("score").map_err(ctx)?,
                                        t.get_int("id").map_err(ctx)?,
                                        t.get_str("name").map_err(ctx)?.to_owned(),
                                        k,
                                    );
                                    Ok(())
                                },
                                move |state, _, out| {
                                    for (i, (score, id, name)) in state.top_rows().enumerate() {
                                        out.emit(Tuple::collect_unchecked(
                                            schema.clone(),
                                            [Value::Str(format_row(i + 1, id, &name, score))],
                                        ));
                                    }
                                    Ok(())
                                },
                            )
                            .with_cost(py_cost(rank_c + lookup_c)),
                        ),
                        1,
                    );
                    b.connect(scored, op, 0, PartitionStrategy::Single);
                    op
                }
                3 => {
                    // [score+rank+lookup] fused: local scoring + top-k at
                    // `w` workers, then merge + format.
                    let local = add_scoring_rank(
                        &mut b,
                        scored,
                        w,
                        k,
                        scorer.clone(),
                        py_cost(score_c + rank_c + lookup_c),
                        "Score, Rank & Lookup (local)",
                    );
                    let merge = add_merge(&mut b, local, k);
                    add_format(&mut b, merge, "Format", CostProfile::per_tuple_micros(100))
                }
                4 => {
                    // [rank+lookup]: local top-k at `w` workers, then
                    // merge, then format fused into lookup.
                    let local = add_local_rank(
                        &mut b,
                        scored,
                        w,
                        k,
                        py_cost(rank_c + lookup_c),
                        "Rank & Lookup (local)",
                    );
                    let merge = add_merge(&mut b, local, k);
                    add_format(&mut b, merge, "Format", CostProfile::per_tuple_micros(100))
                }
                _ => {
                    // 5, 6: [rank] local + merge, [lookup], (6: [format]).
                    let local =
                        add_local_rank(&mut b, scored, w, k, py_cost(rank_c), "Top-K Rank (local)");
                    let merge = add_merge(&mut b, local, k);
                    if level == 5 {
                        add_format(&mut b, merge, "Reverse Lookup", py_cost(lookup_c))
                    } else {
                        let lookup = b.add(
                            Arc::new(
                                UdfOp::with_schema_fn(
                                    "Reverse Lookup",
                                    1,
                                    |inputs| Ok((*inputs[0]).clone()),
                                    |t, _, out| {
                                        out.emit(t);
                                        Ok(())
                                    },
                                )
                                .with_cost(py_cost(lookup_c)),
                            ),
                            1,
                        );
                        b.connect(merge, lookup, 0, PartitionStrategy::Single);
                        add_format(
                            &mut b,
                            lookup,
                            "Format",
                            py_cost(SimDuration::from_micros(100)),
                        )
                    }
                }
            }
        }
    };

    let sink_op = SinkOp::new("Results");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);
    b.connect(rows_op, sink, 0, PartitionStrategy::Single);

    Ok((b.build()?, handle))
}

/// Run KGE on the simulated workflow engine.
pub fn run_workflow(params: &KgeParams, cal: &Calibration) -> WorkflowResult<TaskRun> {
    Ok(run_workflow_on(params, cal, BackendKind::Sim)?.run)
}

/// Run KGE on an explicitly chosen execution backend.
pub fn run_workflow_on(
    params: &KgeParams,
    cal: &Calibration,
    kind: BackendKind,
) -> WorkflowResult<BackendRun> {
    run_with_config(params, cal, kind, engine_config(cal))
}

/// Run KGE serving and recording through a shared result cache: rerun
/// the same (or an edited) pipeline against the same `cache` and every
/// unedited upstream cone is replayed from sealed segments instead of
/// recomputed.
pub fn run_workflow_cached(
    params: &KgeParams,
    cal: &Calibration,
    kind: BackendKind,
    cache: &Arc<ResultCache>,
) -> WorkflowResult<BackendRun> {
    let config = engine_config(cal).with_result_cache(cache.clone());
    run_with_config(params, cal, kind, config)
}

fn run_with_config(
    params: &KgeParams,
    cal: &Calibration,
    kind: BackendKind,
    config: EngineConfig,
) -> WorkflowResult<BackendRun> {
    run_on(
        "KGE",
        params.config_string(),
        listing::count_loc(&listing::kge_workflow_listing()),
        build_kge_workflow(params, cal)?,
        kind,
        config,
        row_text,
    )
}

impl TopK {
    fn top_rows(&mut self) -> impl Iterator<Item = (f64, i64, String)> + '_ {
        self.rows.drain(..)
    }
}

/// Add a local top-k operator emitting `scored_schema` rows.
fn add_local_rank(
    b: &mut WorkflowBuilder,
    upstream: OpId,
    workers: usize,
    k: usize,
    cost: CostProfile,
    name: &str,
) -> OpId {
    let schema = scored_schema();
    let name_owned = name.to_owned();
    let op = b.add(
        Arc::new(
            StatefulUdfOp::new(
                name,
                1,
                (*scored_schema()).clone(),
                TopK::default,
                move |state: &mut TopK, t, _, _| {
                    let ctx = |e| WorkflowError::from_data(&name_owned, e);
                    state.push(
                        t.get_float("score").map_err(ctx)?,
                        t.get_int("id").map_err(ctx)?,
                        t.get_str("name").map_err(ctx)?.to_owned(),
                        k,
                    );
                    Ok(())
                },
                move |state, _, out| {
                    for (score, id, name) in state.rows.drain(..) {
                        out.emit(Tuple::collect_unchecked(
                            schema.clone(),
                            [Value::Int(id), Value::Str(name), Value::Float(score)],
                        ));
                    }
                    Ok(())
                },
            )
            .with_cost(cost),
        ),
        workers,
    );
    b.connect(upstream, op, 0, PartitionStrategy::RoundRobin);
    op
}

/// Add a fused scoring + local top-k operator: consumes (id, name,
/// embedding) join output, scores, and keeps a local top-k.
fn add_scoring_rank(
    b: &mut WorkflowBuilder,
    upstream: OpId,
    workers: usize,
    k: usize,
    scorer: Arc<KgeScorer>,
    cost: CostProfile,
    name: &str,
) -> OpId {
    let schema = scored_schema();
    let name_owned = name.to_owned();
    let op = b.add(
        Arc::new(
            StatefulUdfOp::new(
                name,
                1,
                (*scored_schema()).clone(),
                TopK::default,
                move |state: &mut TopK, t, _, _| {
                    let ctx = |e| WorkflowError::from_data(&name_owned, e);
                    let v: Vec<f32> = t
                        .get("embedding")
                        .map_err(ctx)?
                        .as_list()
                        .map(|l| {
                            l.iter()
                                .map(|x| x.as_float().unwrap_or(0.0) as f32)
                                .collect()
                        })
                        .unwrap_or_default();
                    state.push(
                        f64::from(scorer.score(&v)),
                        t.get_int("id").map_err(ctx)?,
                        t.get_str("name").map_err(ctx)?.to_owned(),
                        k,
                    );
                    Ok(())
                },
                move |state, _, out| {
                    for (score, id, name) in state.rows.drain(..) {
                        out.emit(Tuple::collect_unchecked(
                            schema.clone(),
                            [Value::Int(id), Value::Str(name), Value::Float(score)],
                        ));
                    }
                    Ok(())
                },
            )
            .with_cost(cost),
        ),
        workers,
    );
    b.connect(upstream, op, 0, PartitionStrategy::RoundRobin);
    op
}

/// Add a formatter from `ranked_schema` rows to final `row` strings.
fn add_format(b: &mut WorkflowBuilder, upstream: OpId, name: &str, cost: CostProfile) -> OpId {
    let schema = row_schema();
    let name_owned = name.to_owned();
    let op = b.add(
        Arc::new(
            UdfOp::new(name, (*row_schema()).clone(), move |t, _, out| {
                let ctx = |e| WorkflowError::from_data(&name_owned, e);
                out.emit(Tuple::collect_unchecked(
                    schema.clone(),
                    [Value::Str(format_row(
                        t.get_int("rank").map_err(ctx)? as usize,
                        t.get_int("id").map_err(ctx)?,
                        t.get_str("name").map_err(ctx)?,
                        t.get_float("score").map_err(ctx)?,
                    ))],
                ));
                Ok(())
            })
            .with_cost(cost),
        ),
        1,
    );
    b.connect(upstream, op, 0, PartitionStrategy::Single);
    op
}

/// Wiring inputs for the join stage.
struct JoinWiring {
    candidates: OpId,
    embeddings: OpId,
    filtered: Option<OpId>,
    workers: usize,
    fuse_filter: bool,
    fuse_score: bool,
    scorer: Arc<KgeScorer>,
    filter_c: SimDuration,
    join_c: SimDuration,
    score_c: SimDuration,
    py_setup: SimDuration,
}

/// Build the embedding-join stage: a single Python operator, or the
/// paper's nine-operator Scala pipeline (Table I).
fn build_join(
    b: &mut WorkflowBuilder,
    cal: &Calibration,
    params: &KgeParams,
    wiring: JoinWiring,
) -> OpId {
    let probe_src = wiring.filtered.unwrap_or(wiring.candidates);
    let w = wiring.workers;
    let fused_out = if wiring.fuse_score {
        scored_schema()
    } else {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("embedding", DataType::List),
        ])
    };

    if params.join_language == Language::Python {
        // One Python UDF: blocking build on port 0, probe on port 1,
        // optionally fused with filter and score.
        let mut per_tuple = wiring.join_c;
        if wiring.fuse_filter {
            per_tuple += wiring.filter_c;
        }
        if wiring.fuse_score {
            per_tuple += wiring.score_c;
        }
        let mut cost = CostProfile {
            per_tuple,
            setup: wiring.py_setup,
            ..CostProfile::default()
        }
        .with_port_cost(0, cal.kge_wf_build_per_entry);
        if params.pandas_join {
            // Table I's Python configuration: the pandas merge pays a
            // vectorization warm-up on its probe side.
            cost.warmup_extra = cal.kge_py_join_warmup;
            cost.warmup_tuples = cal.kge_py_warmup_tuples;
            cost.warmup_port = 1;
        }
        let fuse_filter = wiring.fuse_filter;
        let fuse_score = wiring.fuse_score;
        let scorer = wiring.scorer.clone();
        let out_schema = fused_out.clone();
        let join = b.add(
            Arc::new(
                StatefulUdfOp::new(
                    "Embedding Join",
                    2,
                    (*fused_out).clone(),
                    HashMap::<i64, Vec<f32>>::new,
                    move |table, t, port, out| {
                        let ctx = |e| WorkflowError::from_data("Embedding Join", e);
                        if port == 0 {
                            let id = t.get_int("id").map_err(ctx)?;
                            let v = t
                                .get("embedding")
                                .map_err(ctx)?
                                .as_list()
                                .map(|l| {
                                    l.iter()
                                        .map(|x| x.as_float().unwrap_or(0.0) as f32)
                                        .collect::<Vec<f32>>()
                                })
                                .unwrap_or_default();
                            table.insert(id, v);
                            return Ok(());
                        }
                        if fuse_filter
                            && !t.get("in_stock").map_err(ctx)?.as_bool().unwrap_or(false)
                        {
                            return Ok(());
                        }
                        let id = t.get_int("id").map_err(ctx)?;
                        let name = t.get_str("name").map_err(ctx)?.to_owned();
                        let Some(v) = table.get(&id) else {
                            return Ok(());
                        };
                        let value = if fuse_score {
                            Value::Float(f64::from(scorer.score(v)))
                        } else {
                            Value::List(v.iter().map(|x| Value::Float(f64::from(*x))).collect())
                        };
                        out.emit(Tuple::collect_unchecked(
                            out_schema.clone(),
                            [Value::Int(id), Value::Str(name), value],
                        ));
                        Ok(())
                    },
                    |_, _, _| Ok(()),
                )
                .with_blocking_ports(vec![0])
                .with_cost(cost),
            ),
            w,
        );
        b.connect(
            wiring.embeddings,
            join,
            0,
            PartitionStrategy::Hash(vec!["id".into()]),
        );
        b.connect(
            probe_src,
            join,
            1,
            PartitionStrategy::Hash(vec!["id".into()]),
        );
        return join;
    }

    // Scala pipeline: nine built-in operators implementing the same join
    // (projections + partition markers + hash join + merge/validate).
    assert!(
        !wiring.fuse_filter && !wiring.fuse_score,
        "the Scala swap targets the standalone join operator (fusion >= 3)"
    );
    let scala_cost = || CostProfile {
        per_tuple: SimDuration::from_micros(250),
        setup: cal.kge_scala_op_setup,
        ..CostProfile::default()
    };
    let passthrough = |b: &mut WorkflowBuilder, name: &str, upstream: OpId, workers: usize| {
        let op = b.add(
            Arc::new(
                UdfOp::with_schema_fn(
                    name,
                    1,
                    |inputs| Ok((*inputs[0]).clone()),
                    |t, _, out| {
                        out.emit(t);
                        Ok(())
                    },
                )
                .with_cost(scala_cost())
                .with_language(Language::Scala),
            ),
            workers,
        );
        b.connect(upstream, op, 0, PartitionStrategy::RoundRobin);
        op
    };

    let build_a = passthrough(b, "Project Build (Scala)", wiring.embeddings, 1);
    let build_b = passthrough(b, "Partition Build (Scala)", build_a, 1);
    let probe_in = passthrough(b, "Arrow Ingest (Scala)", probe_src, w);
    let probe_a = passthrough(b, "Project Probe (Scala)", probe_in, w);
    let probe_b = passthrough(b, "Partition Probe (Scala)", probe_a, w);
    let join = b.add(
        Arc::new(
            HashJoinOp::new("Hash Join (Scala)", &["id"], &["id"])
                .with_language(Language::Scala)
                .with_cost(
                    CostProfile {
                        per_tuple: wiring.join_c,
                        setup: cal.kge_scala_op_setup,
                        ..CostProfile::default()
                    }
                    .with_port_cost(0, cal.kge_wf_build_per_entry),
                ),
        ),
        w,
    );
    b.connect(build_b, join, 0, PartitionStrategy::Hash(vec!["id".into()]));
    b.connect(probe_b, join, 1, PartitionStrategy::Hash(vec!["id".into()]));
    // Post-join: merge/validate/exchange back to Python land. The merge
    // projects to the (id, name, embedding) shape downstream expects.
    let schema = fused_out.clone();
    let merge = b.add(
        Arc::new(
            UdfOp::new(
                "Merge Columns (Scala)",
                (*fused_out).clone(),
                move |t, _, out| {
                    let ctx = |e| WorkflowError::from_data("Merge Columns (Scala)", e);
                    out.emit(Tuple::collect_unchecked(
                        schema.clone(),
                        [
                            Value::Int(t.get_int("id").map_err(ctx)?),
                            Value::Str(t.get_str("name").map_err(ctx)?.to_owned()),
                            t.get("embedding").map_err(ctx)?.clone(),
                        ],
                    ));
                    Ok(())
                },
            )
            .with_cost(scala_cost())
            .with_language(Language::Scala),
        ),
        w,
    );
    b.connect(join, merge, 0, PartitionStrategy::RoundRobin);
    let validate = passthrough(b, "Validate Join (Scala)", merge, w);
    passthrough(b, "Arrow Exchange (Scala)", validate, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kge::{oracle, script::run_script};

    fn expected(params: &KgeParams, cal: &Calibration) -> Vec<String> {
        let mut rows = oracle(&params.catalog(cal), cal.kge_top_k);
        rows.sort_unstable();
        rows
    }

    #[test]
    fn workflow_matches_oracle_at_every_fusion_level() {
        let cal = Calibration::paper();
        for fusion in 1..=6 {
            let params = KgeParams::new(600, 2).with_fusion(fusion);
            let run = run_workflow(&params, &cal).unwrap();
            assert_eq!(run.output, expected(&params, &cal), "fusion {fusion}");
        }
    }

    #[test]
    fn scala_swap_preserves_results() {
        let cal = Calibration::paper();
        let params = KgeParams::new(600, 2).with_join_language(Language::Scala);
        let run = run_workflow(&params, &cal).unwrap();
        assert_eq!(run.output, expected(&params, &cal));
        // Nine extra operators replace the single Python join.
        let py = run_workflow(&KgeParams::new(600, 2), &cal).unwrap();
        assert_eq!(
            run.report.metrics.operator_count,
            py.report.metrics.operator_count + 8
        );
    }

    #[test]
    fn workflow_matches_script() {
        let cal = Calibration::paper();
        let params = KgeParams::new(900, 2);
        let wf = run_workflow(&params, &cal).unwrap();
        let sc = run_script(&params, &cal).unwrap();
        assert_eq!(wf.output, sc.output);
    }

    #[test]
    fn script_beats_workflow_fig13c() {
        // KGE is the task the script paradigm wins at every scale.
        let cal = Calibration::paper();
        let params = KgeParams::new(6_800, 1).with_fusion(3);
        let wf = run_workflow(&params, &cal).unwrap().seconds();
        let sc = run_script(&params, &cal).unwrap().seconds();
        assert!(sc < wf, "script {sc} must beat workflow {wf}");
        let slower = wf / sc - 1.0;
        assert!((0.2..0.7).contains(&slower), "workflow {slower} slower");
    }

    #[test]
    fn scala_join_is_faster_small_scale() {
        let cal = Calibration::paper();
        let py = run_workflow(&KgeParams::new(6_800, 1).with_fusion(3), &cal)
            .unwrap()
            .seconds();
        let scala = run_workflow(
            &KgeParams::new(6_800, 1)
                .with_fusion(3)
                .with_join_language(Language::Scala),
            &cal,
        )
        .unwrap()
        .seconds();
        assert!(scala < py, "scala {scala} vs python {py}");
    }
}
