//! The reference interpreter behind [`crate::LiveExecutor::thread_per_worker`]:
//! the trivial, single-threaded meaning of a [`Workflow`] that every
//! engine configuration is checked against.
//!
//! It walks the DAG once in topological order. A source worker deals its
//! [`crate::OperatorFactory::source_partitions`] share; every other worker
//! is a fresh instance that consumes its blocking ports first and then the
//! rest in port order — each port's tuples through
//! [`crate::Operator::on_tuple`], then
//! [`crate::Operator::on_port_complete`]. What a worker emits is routed by
//! the uncompiled [`crate::PartitionStrategy::route`], one sequence per
//! (producer worker, edge), into per-(consumer worker, port) inboxes, and
//! an inbox is dropped once its consumer has read it.
//!
//! It shares no code with the pooled engine's routing, mailboxes or
//! scheduler, never calls [`crate::Operator::on_batch`] and never seals,
//! spawns no thread, and ignores everything that must not change a run's
//! rows: fault plans, retry policies, the result cache, tracing, pool
//! size, channel capacity and batch size. It honours the memory budget,
//! because a budgeted operator must produce the unbudgeted rows. A failed
//! run returns the first error in topological order.

use std::time::Instant;

use scriptflow_core::BackendKind;
use scriptflow_datakit::Tuple;

use crate::backend::EngineRun;
use crate::dag::Workflow;
use crate::exec_live::makespan_of;
use crate::metrics::{OperatorMetrics, OperatorState, RunMetrics};
use crate::operator::{OutputCollector, WorkflowResult};
use crate::trace::ProgressTrace;

/// Run `wf` to completion on the calling thread (see the module docs).
pub(crate) fn run(wf: &Workflow, memory_budget: Option<usize>) -> WorkflowResult<EngineRun> {
    let start = Instant::now();
    // inboxes[op][worker][port]: what has been routed to that port so far.
    let mut inboxes: Vec<Vec<Vec<Vec<Tuple>>>> = wf
        .ops()
        .iter()
        .map(|n| vec![vec![Vec::new(); n.desc().input_ports]; n.parallelism])
        .collect();
    let mut operators = OperatorMetrics::for_workflow(wf);
    for &op in wf.topo_order() {
        let node = wf.op(op);
        let desc = node.desc();
        let out_edges = wf.out_edges(op);
        let mut parts = if desc.source {
            let parts = node.factory.source_partitions(node.parallelism);
            parts.expect("validated at build time")
        } else {
            Vec::new()
        }
        .into_iter();
        let ports: Vec<usize> = (desc.blocking_ports.iter().copied())
            .chain((0..desc.input_ports).filter(|p| !desc.blocking_ports.contains(p)))
            .collect();
        let metrics = &mut operators[op.0];
        for mut inbox in std::mem::take(&mut inboxes[op.0]) {
            let emitted = if desc.source {
                parts.next().unwrap_or_default()
            } else {
                let mut instance = node.factory.create();
                instance.set_memory_budget(memory_budget);
                let mut out = OutputCollector::new();
                for &port in &ports {
                    let tuples = std::mem::take(&mut inbox[port]);
                    metrics.input_tuples += tuples.len() as u64;
                    for t in tuples {
                        instance.on_tuple(t, port, &mut out)?;
                    }
                    instance.on_port_complete(port, &mut out)?;
                }
                out.take()
            };
            metrics.output_tuples += emitted.len() as u64;
            for (_, e) in &out_edges {
                let to = &mut inboxes[e.to.0];
                for (seq, t) in emitted.iter().enumerate() {
                    for w in e.partition.route(t, seq as u64, to.len())? {
                        to[w][e.to_port].push(t.clone());
                    }
                }
            }
        }
        metrics.state = OperatorState::Completed;
    }
    let elapsed = start.elapsed();
    Ok(EngineRun {
        kind: BackendKind::Live,
        rows: Vec::new(),
        elapsed,
        metrics: RunMetrics {
            makespan: makespan_of(elapsed),
            operators,
            total_workers: wf.total_workers(),
            events: 0,
        },
        trace: ProgressTrace::default(),
        pool: None,
        cache_published: 0,
        worker_timeline: Vec::new(),
    })
}
