//! Invalidation correctness for fingerprinted operator memoization.
//!
//! The result cache is only sound if the [`OpFingerprint`] vocabulary
//! draws the invalidation boundary exactly right: every observable spec
//! edit must move the fingerprint (stale entries can never be served),
//! while equivalences that cannot change the rows — commutative input
//! reordering — must *not* move it (or the cache would never hit).
//! This suite pins both directions structurally. The contract that
//! matters — a warm rerun after an edit produces the rows of the edited
//! DAG — is checked on both backends by the reference property
//! (`property_tests::every_configuration_matches_the_reference_on_random_dags`,
//! its edited cache state).
//!
//! [`OpFingerprint`]: scriptflow::core::OpFingerprint

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scriptflow::core::{BackendKind, OpFingerprint};
use scriptflow::datakit::{Batch, CmpOp, ColumnarBatch, DataType, Schema, SchemaRef, Tuple, Value};
use scriptflow::simcluster::Language;
use scriptflow::workflow::ops::{FilterOp, HashJoinOp, ScanOp, SinkHandle, SinkOp, UnionOp};
use scriptflow::workflow::{
    CostProfile, EngineConfig, LiveExecutor, OpDescriptor, Operator, OperatorFactory,
    PartitionStrategy, ResultCache, SimExecutor, Workflow, WorkflowBuilder, WorkflowResult,
};

fn int_batch(rows: &[i64]) -> Batch {
    let schema = Schema::of(&[("id", DataType::Int)]);
    Batch::from_rows(schema, rows.iter().map(|&i| vec![Value::Int(i)]).collect())
        .expect("rows conform")
}

/// scan → filter → sink with every knob explicit; returns the filter
/// node's fingerprint.
#[allow(clippy::too_many_arguments)]
fn filter_fp(
    rows: &[i64],
    scan_name: &str,
    filter_name: &str,
    threshold: i64,
    cmp: CmpOp,
    cost_micros: u64,
    language: Language,
    workers: usize,
) -> OpFingerprint {
    let mut b = WorkflowBuilder::new();
    let scan = b.add(Arc::new(ScanOp::new(scan_name, int_batch(rows))), workers);
    let filter = b.add(
        Arc::new(
            FilterOp::cmp(filter_name, "id", cmp, Value::Int(threshold))
                .with_cost(CostProfile::per_tuple_micros(cost_micros))
                .with_language(language),
        ),
        workers,
    );
    let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
    b.connect(scan, filter, 0, PartitionStrategy::RoundRobin);
    b.connect(filter, sink, 0, PartitionStrategy::Single);
    let wf = b.build().expect("valid DAG");
    wf.fingerprint(filter)
}

/// Every observable spec field — on the operator itself or anywhere in
/// its upstream cone — must move the node's fingerprint; all mutations
/// must also be pairwise distinct.
#[test]
fn every_spec_field_mutation_changes_the_fingerprint() {
    let rows: Vec<i64> = (0..50).collect();
    let base = filter_fp(&rows, "scan", "f", 5, CmpOp::Gt, 10, Language::Python, 2);

    let mut edited_rows = rows.clone();
    edited_rows[7] = -7;
    let mutations = [
        (
            "scan data",
            filter_fp(
                &edited_rows,
                "scan",
                "f",
                5,
                CmpOp::Gt,
                10,
                Language::Python,
                2,
            ),
        ),
        (
            "scan name",
            filter_fp(&rows, "scan2", "f", 5, CmpOp::Gt, 10, Language::Python, 2),
        ),
        (
            "filter name",
            filter_fp(&rows, "scan", "g", 5, CmpOp::Gt, 10, Language::Python, 2),
        ),
        (
            "literal",
            filter_fp(&rows, "scan", "f", 6, CmpOp::Gt, 10, Language::Python, 2),
        ),
        (
            "comparison",
            filter_fp(&rows, "scan", "f", 5, CmpOp::Ge, 10, Language::Python, 2),
        ),
        (
            "cost",
            filter_fp(&rows, "scan", "f", 5, CmpOp::Gt, 11, Language::Python, 2),
        ),
        (
            "language",
            filter_fp(&rows, "scan", "f", 5, CmpOp::Gt, 10, Language::Scala, 2),
        ),
    ];
    let mut seen = HashSet::from([base.0]);
    for (what, fp) in mutations {
        assert_ne!(fp, base, "editing {what} must invalidate");
        assert!(seen.insert(fp.0), "mutation {what} collided with another");
    }
    // Stability: rebuilding the identical spec reproduces the digest.
    assert_eq!(
        base,
        filter_fp(&rows, "scan", "f", 5, CmpOp::Gt, 10, Language::Python, 2)
    );
}

/// Repartitioning invalidates conservatively: per-worker-stateful
/// operators (distinct, join) can emit different multisets under a
/// different worker count, so the node fold deliberately includes
/// parallelism even though the operator's own spec digest does not.
#[test]
fn repartitioning_conservatively_invalidates() {
    let rows: Vec<i64> = (0..50).collect();
    assert_ne!(
        filter_fp(&rows, "scan", "f", 5, CmpOp::Gt, 10, Language::Python, 2),
        filter_fp(&rows, "scan", "f", 5, CmpOp::Gt, 10, Language::Python, 4),
    );
}

/// A union's inputs are interchangeable, so wiring them in either order
/// folds to the same fingerprint — while a join's build/probe ports are
/// not, so swapping those must invalidate.
#[test]
fn commutative_input_reordering_preserves_the_fingerprint() {
    let union_fp = |swap: bool| {
        let mut b = WorkflowBuilder::new();
        let a = b.add(Arc::new(ScanOp::new("a", int_batch(&[1, 2, 3]))), 1);
        let c = b.add(Arc::new(ScanOp::new("c", int_batch(&[4, 5]))), 1);
        let u = b.add(Arc::new(UnionOp::new("u", 2)), 1);
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        let (p0, p1) = if swap { (c, a) } else { (a, c) };
        b.connect(p0, u, 0, PartitionStrategy::RoundRobin);
        b.connect(p1, u, 1, PartitionStrategy::RoundRobin);
        b.connect(u, sink, 0, PartitionStrategy::Single);
        let wf = b.build().expect("valid DAG");
        wf.fingerprint(u)
    };
    assert_eq!(union_fp(false), union_fp(true));

    let join_fp = |swap: bool| {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let mk = |n: i64| {
            Batch::from_rows(
                schema.clone(),
                (0..n).map(|i| vec![Value::Int(i)]).collect(),
            )
            .expect("rows conform")
        };
        let mut b = WorkflowBuilder::new();
        let x = b.add(Arc::new(ScanOp::new("x", mk(3))), 1);
        let y = b.add(Arc::new(ScanOp::new("y", mk(5))), 1);
        let j = b.add(Arc::new(HashJoinOp::new("j", &["k"], &["k"])), 1);
        let sink = b.add(Arc::new(SinkOp::new("sink")), 1);
        let (build, probe) = if swap { (y, x) } else { (x, y) };
        b.connect(build, j, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(probe, j, 1, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(j, sink, 0, PartitionStrategy::Single);
        let wf = b.build().expect("valid DAG");
        wf.fingerprint(j)
    };
    assert_ne!(join_fp(false), join_fp(true), "build/probe order matters");
}

/// Forwards every call to `inner`, counting the spec digests asked of it.
struct Counted {
    inner: Arc<dyn OperatorFactory>,
    asked: Arc<AtomicUsize>,
}

impl OperatorFactory for Counted {
    fn descriptor(&self) -> &OpDescriptor {
        self.inner.descriptor()
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        self.inner.output_schema(inputs)
    }

    fn create(&self) -> Box<dyn Operator> {
        self.inner.create()
    }

    fn source_partitions(&self, workers: usize) -> Option<Vec<Vec<Tuple>>> {
        self.inner.source_partitions(workers)
    }

    fn source_columnar(&self) -> Option<ColumnarBatch> {
        self.inner.source_columnar()
    }

    fn reset_shared_state(&self) {
        self.inner.reset_shared_state()
    }

    fn fingerprint(&self) -> OpFingerprint {
        self.asked.fetch_add(1, Ordering::Relaxed);
        self.inner.fingerprint()
    }
}

/// scan → filter → union ← scan, → sink, every factory counted.
fn counted_dag(asked: &Arc<AtomicUsize>) -> (Workflow, SinkHandle) {
    let counted = |inner: Arc<dyn OperatorFactory>| -> Arc<dyn OperatorFactory> {
        Arc::new(Counted {
            inner,
            asked: Arc::clone(asked),
        })
    };
    let rows: Vec<i64> = (0..200).collect();
    let sink_op = SinkOp::new("sink");
    let handle = sink_op.handle();
    let mut b = WorkflowBuilder::new();
    let a = b.add(counted(Arc::new(ScanOp::new("a", int_batch(&rows)))), 2);
    let c = b.add(counted(Arc::new(ScanOp::new("c", int_batch(&rows)))), 1);
    let f = b.add(
        counted(Arc::new(FilterOp::cmp(
            "f",
            "id",
            CmpOp::Ge,
            Value::Int(50),
        ))),
        2,
    );
    let u = b.add(counted(Arc::new(UnionOp::new("u", 2))), 1);
    let sink = b.add(counted(Arc::new(sink_op)), 1);
    b.connect(a, f, 0, PartitionStrategy::RoundRobin);
    b.connect(f, u, 0, PartitionStrategy::RoundRobin);
    b.connect(c, u, 1, PartitionStrategy::RoundRobin);
    b.connect(u, sink, 0, PartitionStrategy::Single);
    (b.build().expect("valid DAG"), handle)
}

/// `build` hashes nothing: a cache-less run on either engine never asks
/// an operator for its spec digest, and a cache-armed run asks each
/// operator once — the service's single-flight key and the dispatch-time
/// cache plan share one fold, and a warm rerun of the same workflow
/// reuses it.
#[test]
fn fingerprints_are_computed_only_when_a_cache_asks_and_once() {
    const OPS: usize = 5;
    for kind in [BackendKind::Live, BackendKind::Sim] {
        let run = |wf: &Workflow, cache: Option<&Arc<ResultCache>>| match kind {
            BackendKind::Live => {
                let mut exec = LiveExecutor::new(16);
                if let Some(cache) = cache {
                    exec = exec.with_result_cache(Arc::clone(cache));
                }
                exec.run(wf).map(|_| ())
            }
            BackendKind::Sim => {
                let mut config = EngineConfig::default();
                if let Some(cache) = cache {
                    config = config.with_result_cache(Arc::clone(cache));
                }
                SimExecutor::new(config).run(wf).map(|_| ())
            }
        };

        let asked = Arc::new(AtomicUsize::new(0));
        let (wf, handle) = counted_dag(&asked);
        assert_eq!(asked.load(Ordering::Relaxed), 0, "{kind}: build");
        run(&wf, None).expect("cache-less run");
        assert_eq!(handle.len(), 350, "{kind}");
        assert_eq!(asked.load(Ordering::Relaxed), 0, "{kind}: cache-less run");

        let cache = Arc::new(ResultCache::new());
        run(&wf, Some(&cache)).expect("cold run");
        assert_eq!(asked.load(Ordering::Relaxed), OPS, "{kind}: cold run");
        assert!(cache.entries() > 0, "{kind}: the cold run recorded");
        run(&wf, Some(&cache)).expect("warm run");
        assert_eq!(asked.load(Ordering::Relaxed), OPS, "{kind}: warm rerun");
    }
}
