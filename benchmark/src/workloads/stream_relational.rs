//! `stream_relational`: synthetic relational DAGs whose per-tuple work
//! is trivial, so `exec_live` scheduling, mailboxes, `partition`
//! scatter and batch chunking and sealing do most of the work. Row and
//! columnar legs alternate, so a gain for one layout that taxes the
//! other shows.

use std::sync::Arc;
use std::time::Duration;

use scriptflow_datakit::{CmpOp, Value};
use scriptflow_workflow::ops::{
    AggFn, AggregateOp, FilterOp, HashJoinOp, ScanOp, SinkHandle, SinkOp,
};
use scriptflow_workflow::{LiveExecutor, PartitionStrategy, Workflow, WorkflowBuilder};

use super::{dims, executor, facts, run_dag, Digest, Tally, Workload};
use crate::sysinfo;

/// Fact tuples per DAG, a quarter of what ISSUE 11 names. Run time and
/// memory grow faster than the input: on the seed commit the four-column
/// filter chain takes 0.15 s and 140 MiB at 100 000 tuples, 0.5 s and
/// 420 MiB at 200 000, and at 400 000 single-column tuples between 0.5 s
/// and 21 s and 1.3 to 5 GiB from one repeat to the next. No 10 % bound
/// can sit on that, and a pass has to fit the driver's run length; the
/// ladder's `workflow.exec_live.scale_exponent` watches the growth.
pub const TUPLES: usize = 100_000;

/// `(name, columnar)` of each leg, in pass order.
pub const LEGS: [(&str, bool); 4] = [
    ("filter_chain_row", false),
    ("filter_chain_columnar", true),
    ("selective_filter_columnar", true),
    ("join_aggregate_row", false),
];

pub struct StreamRelational {
    facts: Arc<ScanOp>,
    dims: Arc<ScanOp>,
    tuples: usize,
}

fn sink(b: &mut WorkflowBuilder) -> (scriptflow_workflow::OpId, SinkHandle) {
    let op = Arc::new(SinkOp::new("sink"));
    let handle = op.handle();
    (b.add(op, 1), handle)
}

impl StreamRelational {
    /// The workload over `tuples` fact rows.
    pub fn sized(seed: u64, tuples: usize) -> StreamRelational {
        StreamRelational {
            facts: Arc::new(ScanOp::new("facts", facts(seed, tuples))),
            dims: Arc::new(ScanOp::new("dims", dims(seed))),
            tuples,
        }
    }

    /// scan → `k < 200` → `v >= 256` → sink, every operator `width` wide.
    pub fn filter_chain(&self, width: usize) -> (Workflow, SinkHandle) {
        let mut b = WorkflowBuilder::new();
        let scan = b.add(self.facts.clone(), width);
        let f1 = b.add(
            Arc::new(FilterOp::cmp("k_lt", "k", CmpOp::Lt, Value::Int(200))),
            width,
        );
        let f2 = b.add(
            Arc::new(FilterOp::cmp("v_ge", "v", CmpOp::Ge, Value::Float(256.0))),
            width,
        );
        let (out, handle) = sink(&mut b);
        b.connect(scan, f1, 0, PartitionStrategy::RoundRobin);
        b.connect(f1, f2, 0, PartitionStrategy::RoundRobin);
        b.connect(f2, out, 0, PartitionStrategy::Single);
        (b.build().expect("filter chain is a valid DAG"), handle)
    }

    /// scan → top percentile of the ascending `id` → sink: in columnar
    /// mode zone maps prove almost every batch empty.
    fn selective_filter(&self, width: usize) -> (Workflow, SinkHandle) {
        let n = self.tuples as i64;
        let mut b = WorkflowBuilder::new();
        let scan = b.add(self.facts.clone(), width);
        let sel = b.add(
            Arc::new(FilterOp::cmp(
                "top",
                "id",
                CmpOp::Ge,
                Value::Int(n - n / 100),
            )),
            width,
        );
        let (out, handle) = sink(&mut b);
        b.connect(scan, sel, 0, PartitionStrategy::RoundRobin);
        b.connect(sel, out, 0, PartitionStrategy::Single);
        (b.build().expect("selective filter is a valid DAG"), handle)
    }

    /// dims broadcast into a join with the facts, hash-scattered into a
    /// per-key count and sum.
    fn join_aggregate(&self, width: usize) -> (Workflow, SinkHandle) {
        let mut b = WorkflowBuilder::new();
        let dims = b.add(self.dims.clone(), 1);
        let scan = b.add(self.facts.clone(), width);
        let join = b.add(Arc::new(HashJoinOp::new("join", &["k"], &["k"])), width);
        let agg = b.add(
            Arc::new(AggregateOp::new(
                "per_key",
                &["k", "label"],
                vec![AggFn::Count("n".into()), AggFn::Sum("v".into())],
            )),
            width,
        );
        let (out, handle) = sink(&mut b);
        b.connect(dims, join, 0, PartitionStrategy::Broadcast);
        b.connect(scan, join, 1, PartitionStrategy::RoundRobin);
        b.connect(join, agg, 0, PartitionStrategy::Hash(vec!["k".into()]));
        b.connect(agg, out, 0, PartitionStrategy::Single);
        (b.build().expect("join-aggregate is a valid DAG"), handle)
    }

    fn build(&self, leg: usize, width: usize) -> (Workflow, SinkHandle) {
        match leg {
            0 | 1 => self.filter_chain(width),
            2 => self.selective_filter(width),
            _ => self.join_aggregate(width),
        }
    }
}

impl Workload for StreamRelational {
    type Expected = [Digest; 4];

    fn setup(seed: u64) -> StreamRelational {
        StreamRelational::sized(seed, TUPLES)
    }

    fn runs_per_pass(&self) -> u64 {
        LEGS.len() as u64
    }

    /// The solo anchor: the same DAGs with row batches on the
    /// thread-per-worker executor, which shares no scheduling code with
    /// the pooled one.
    fn reference(&self) -> [Digest; 4] {
        let solo = Arc::new(LiveExecutor::thread_per_worker(super::BATCH_SIZE));
        [0, 1, 2, 3].map(|leg| {
            run_dag(&solo, || self.build(leg, sysinfo::load_width()))
                .unwrap_or_else(|e| panic!("{} anchor: {e}", LEGS[leg].0))
                .0
                .output
        })
    }

    fn pass(&mut self, expected: Option<&[Digest; 4]>, tally: &mut Tally) {
        let width = sysinfo::load_width();
        let mut job = Duration::ZERO;
        for (leg, (name, columnar)) in LEGS.iter().enumerate() {
            let exec = executor(|e| e.with_columnar(*columnar));
            let outcome = run_dag(&exec, || self.build(leg, width)).map(|(timed, _)| timed);
            job += tally.run(name, outcome, |d| expected.is_none_or(|e| *d == e[leg]));
        }
        tally.job_ms.push(job.as_secs_f64() * 1e3);
    }
}
