//! Sink operator: collects workflow results.

use std::sync::{Arc, Mutex};

use scriptflow_datakit::{ColumnarBatch, Schema, SchemaRef, Tuple};

use crate::cost::CostProfile;
use crate::operator::{Operator, OperatorFactory, OutputCollector, WorkflowResult};
use crate::sync::lock;

/// Terminal operator gathering result tuples (Texera's "View Results").
///
/// The factory owns shared storage; every worker instance appends into
/// it, so results survive the executor and are retrievable afterwards via
/// [`SinkOp::results`]. A mutex keeps this safe for the live
/// multi-threaded executor; the simulated executor is single-threaded
/// and pays no contention.
pub struct SinkOp {
    name: String,
    results: Arc<Mutex<Vec<Tuple>>>,
}

impl SinkOp {
    /// A new sink.
    pub fn new(name: impl Into<String>) -> Self {
        SinkOp {
            name: name.into(),
            results: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Handle to the collected results (shared with all instances).
    pub fn handle(&self) -> SinkHandle {
        SinkHandle {
            results: self.results.clone(),
        }
    }

    /// Snapshot of the tuples collected so far.
    pub fn results(&self) -> Vec<Tuple> {
        lock(&self.results).clone()
    }
}

/// Cloneable handle to a sink's collected results.
#[derive(Clone)]
pub struct SinkHandle {
    results: Arc<Mutex<Vec<Tuple>>>,
}

impl SinkHandle {
    /// Snapshot of the tuples collected so far.
    pub fn results(&self) -> Vec<Tuple> {
        lock(&self.results).clone()
    }

    /// Number of tuples collected so far.
    pub fn len(&self) -> usize {
        lock(&self.results).len()
    }

    /// True if nothing has been collected.
    pub fn is_empty(&self) -> bool {
        lock(&self.results).is_empty()
    }

    /// Clear collected tuples (for re-running a workflow object).
    pub fn clear(&self) {
        lock(&self.results).clear();
    }
}

struct SinkInstance {
    results: Arc<Mutex<Vec<Tuple>>>,
}

impl Operator for SinkInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        lock(&self.results).push(tuple);
        Ok(())
    }

    /// The results view is rows: this is where a batch that stayed
    /// columnar end to end is finally materialized, appended under one
    /// lock hold.
    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let rows = batch.to_tuples();
        lock(&self.results).extend(rows);
        Ok(())
    }
}

impl OperatorFactory for SinkOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> usize {
        1
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        Ok((*inputs[0]).clone())
    }

    fn cost(&self) -> CostProfile {
        // Appending a row to the results view is ~free.
        CostProfile::per_tuple_micros(1)
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(SinkInstance {
            results: self.results.clone(),
        })
    }

    /// The result buffer is shared across instances *and* across clones
    /// of the workflow holding this factory: its address is the identity
    /// the service uses to serialize runs that would interleave rows.
    fn shared_state_id(&self) -> Option<usize> {
        Some(Arc::as_ptr(&self.results) as usize)
    }

    /// Re-assert the "sink cleared per run" invariant before a dispatch.
    fn reset_shared_state(&self) {
        lock(&self.results).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Value};

    #[test]
    fn instances_share_result_storage() {
        let sink = SinkOp::new("sink");
        let handle = sink.handle();
        let schema = Schema::of(&[("x", DataType::Int)]);
        let mut a = sink.create();
        let mut b = sink.create();
        let mut out = OutputCollector::new();
        a.on_tuple(
            Tuple::new(schema.clone(), vec![Value::Int(1)]).unwrap(),
            0,
            &mut out,
        )
        .unwrap();
        b.on_tuple(
            Tuple::new(schema, vec![Value::Int(2)]).unwrap(),
            0,
            &mut out,
        )
        .unwrap();
        assert_eq!(handle.len(), 2);
        assert_eq!(sink.results().len(), 2);
        handle.clear();
        assert!(handle.is_empty());
    }

    #[test]
    fn shared_state_identity_and_reset() {
        let sink = SinkOp::new("sink");
        let other = SinkOp::new("other");
        // Identity follows the shared buffer, not the factory value.
        assert_eq!(sink.shared_state_id(), sink.shared_state_id());
        assert_ne!(sink.shared_state_id(), other.shared_state_id());
        assert!(sink.shared_state_id().is_some());

        let schema = Schema::of(&[("x", DataType::Int)]);
        let mut w = sink.create();
        let mut out = OutputCollector::new();
        w.on_tuple(
            Tuple::new(schema, vec![Value::Int(7)]).unwrap(),
            0,
            &mut out,
        )
        .unwrap();
        assert_eq!(sink.results().len(), 1);
        sink.reset_shared_state();
        assert!(sink.results().is_empty());
    }

    /// The non-poisoning behaviour the chaos suites rely on: a panic
    /// fault that lands while a worker holds the results lock must not
    /// take the results away from every later reader.
    #[test]
    fn results_stay_readable_after_a_panic_under_the_lock() {
        let sink = SinkOp::new("sink");
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock(&sink.results);
                panic!("injected: panic while holding the results lock");
            })
            .join()
        });
        assert!(panicked.is_err() && sink.results.is_poisoned());
        assert!(sink.handle().is_empty());
        sink.handle().clear();
        assert_eq!(sink.results().len(), 0);
    }
}
