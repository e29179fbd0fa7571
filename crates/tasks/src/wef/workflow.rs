//! WEF under the GUI-workflow paradigm.
//!
//! One tokenize operator feeds a single blocking "Train Ensemble"
//! operator that fine-tunes all four heads when its input completes
//! (mirroring the paper's non-distributed training), then emits
//! per-tweet predictions.

use std::sync::Arc;

use scriptflow_core::{BackendKind, Calibration};
use scriptflow_datakit::{DataType, Schema, Tuple, Value};
use scriptflow_simcluster::SimDuration;
use scriptflow_workflow::ops::{ScanOp, SinkOp, StatefulUdfOp, UdfOp};
use scriptflow_workflow::{
    CostProfile, EngineConfig, PartitionStrategy, ResultCache, WorkflowBuilder, WorkflowResult,
};

use super::WefParams;
use crate::common::{self, row_text, run_on, BackendRun, TaskRun};
use crate::listing;

/// Build the WEF workflow DAG; returns it with the results handle.
pub fn build_wef_workflow(
    params: &WefParams,
    cal: &Calibration,
) -> WorkflowResult<(
    scriptflow_workflow::Workflow,
    scriptflow_workflow::ops::SinkHandle,
)> {
    let dataset = Arc::new(params.dataset());

    let out_schema = Schema::of(&[("row", DataType::Str)]);

    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new("Tweets Scan", dataset.batch())), 1);
    let tokenize = b.add(
        Arc::new(UdfOp::with_schema_fn(
            "Tokenize",
            1,
            |inputs| Ok((*inputs[0]).clone()),
            |t, _, out| {
                out.emit(t);
                Ok(())
            },
        )),
        1,
    );

    // Train Ensemble: blocking; buffers all tweets, then fine-tunes the
    // four heads and emits predictions. The per-tuple cost is the full
    // 4-head × epochs fine-tuning work per tweet, discounted by Texera's
    // feeding efficiency (Fig. 13b's 1–3%).
    let per_tweet = cal
        .wef_work_per_tweet_epoch
        .scale(4.0 * cal.wef_epochs as f64 * cal.wef_wf_train_discount);
    let ds_for_train = dataset.clone();
    let emit_schema = out_schema.clone();
    let train = b.add(
        Arc::new(
            StatefulUdfOp::new(
                "Train Ensemble",
                1,
                (*out_schema).clone(),
                || 0usize,
                |seen: &mut usize, _t, _, _out| {
                    *seen += 1;
                    Ok(())
                },
                move |seen, _, out| {
                    if *seen == 0 {
                        return Ok(());
                    }
                    debug_assert_eq!(*seen, ds_for_train.tweets.len());
                    for row in super::train_and_predict(&ds_for_train) {
                        out.emit(Tuple::collect_unchecked(
                            emit_schema.clone(),
                            [Value::Str(row)],
                        ));
                    }
                    *seen = 0;
                    Ok(())
                },
            )
            .with_blocking_ports(vec![0])
            .with_cost(CostProfile {
                per_tuple: per_tweet,
                setup: cal.wef_model_load,
                ..CostProfile::default()
            }),
        ),
        1,
    );

    let sink_op = SinkOp::new("Results");
    let handle = sink_op.handle();
    let sink = b.add(Arc::new(sink_op), 1);

    b.connect(scan, tokenize, 0, PartitionStrategy::RoundRobin);
    b.connect(tokenize, train, 0, PartitionStrategy::Single);
    b.connect(train, sink, 0, PartitionStrategy::Single);

    Ok((b.build()?, handle))
}

/// The engine configuration WEF runs under. The per-tuple serde cost is
/// pinned: the blocking trainer amortizes Texera's per-batch overhead
/// differently than the streaming tasks.
pub fn engine_config(cal: &Calibration) -> EngineConfig {
    EngineConfig {
        serde_per_tuple: SimDuration::from_micros(200),
        ..common::engine_config(cal)
    }
}

/// Run WEF on the simulated workflow engine.
pub fn run_workflow(params: &WefParams, cal: &Calibration) -> WorkflowResult<TaskRun> {
    Ok(run_workflow_on(params, cal, BackendKind::Sim)?.run)
}

/// Run WEF on an explicitly chosen execution backend.
pub fn run_workflow_on(
    params: &WefParams,
    cal: &Calibration,
    kind: BackendKind,
) -> WorkflowResult<BackendRun> {
    run_with_config(params, cal, kind, engine_config(cal))
}

/// Run WEF serving and recording through a shared result cache; warm
/// reruns replay unedited operators from sealed segments.
pub fn run_workflow_cached(
    params: &WefParams,
    cal: &Calibration,
    kind: BackendKind,
    cache: &Arc<ResultCache>,
) -> WorkflowResult<BackendRun> {
    let config = engine_config(cal).with_result_cache(cache.clone());
    run_with_config(params, cal, kind, config)
}

fn run_with_config(
    params: &WefParams,
    cal: &Calibration,
    kind: BackendKind,
    config: EngineConfig,
) -> WorkflowResult<BackendRun> {
    run_on(
        "WEF",
        params.config_string(),
        listing::count_loc(&listing::wef_workflow_listing()),
        build_wef_workflow(params, cal)?,
        kind,
        config,
        row_text,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wef::script::run_script;

    #[test]
    fn workflow_matches_script_output() {
        let params = WefParams::new(80);
        let cal = Calibration::paper();
        let wf = run_workflow(&params, &cal).unwrap();
        let sc = run_script(&params, &cal).unwrap();
        assert_eq!(wf.output, sc.output);
    }

    #[test]
    fn both_paradigms_within_a_few_percent() {
        // Fig. 13b: Texera 1–3% faster, never slower.
        let cal = Calibration::paper();
        let params = WefParams::new(200);
        let wf = run_workflow(&params, &cal).unwrap().seconds();
        let sc = run_script(&params, &cal).unwrap().seconds();
        assert!(wf < sc, "workflow {wf} should edge out script {sc}");
        let gap = (sc - wf) / sc;
        assert!(gap < 0.06, "gap {gap} too large for Fig. 13b");
    }
}
