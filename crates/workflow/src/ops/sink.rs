//! Sink operator: collects workflow results.

use std::sync::{Arc, Mutex};

use scriptflow_datakit::{ColumnarBatch, Schema, SchemaRef, Tuple};

use crate::cost::CostProfile;
use crate::operator::{
    Emitted, OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowResult,
};
use crate::sync::lock;

/// What a sink has received, as it arrived: runs of rows and sealed
/// batches kept whole. A pool thread only ever appends a reference here;
/// rows are built from the batches by whoever reads the results.
#[derive(Default)]
struct Received {
    runs: Vec<Emitted>,
    rows: usize,
}

impl Received {
    fn push_row(&mut self, tuple: Tuple) {
        self.rows += 1;
        match self.runs.last_mut() {
            Some(Emitted::Rows(run)) => run.push(tuple),
            _ => self.runs.push(Emitted::Rows(vec![tuple])),
        }
    }

    fn push_batch(&mut self, batch: ColumnarBatch) {
        self.rows += batch.len();
        self.runs.push(Emitted::Columnar(batch));
    }

    fn clear(&mut self) {
        *self = Received::default();
    }
}

/// The rows received so far, in arrival order. Only reference counts are
/// bumped under the lock; held batches are materialized after it is
/// released, on the calling thread.
fn read(received: &Mutex<Received>) -> Vec<Tuple> {
    let (runs, rows) = {
        let held = lock(received);
        (held.runs.clone(), held.rows)
    };
    let mut out = Vec::with_capacity(rows);
    for run in runs {
        out.extend(run.into_rows());
    }
    out
}

/// Terminal operator gathering result tuples (Texera's "View Results").
///
/// The factory owns shared storage; every worker instance appends into
/// it, so results survive the executor and are retrievable afterwards via
/// [`SinkOp::results`]. A mutex keeps this safe for the live
/// multi-threaded executor; the simulated executor is single-threaded
/// and pays no contention.
///
/// The sink materializes on read: a sealed batch that reached it is kept
/// as it is (a reference-count bump on the pool thread) and turned into
/// rows by [`SinkHandle::results`], on the reader's thread. A batch sealed
/// from a scan hands out the scan's own tuples, and while it is held it
/// keeps the scan's row array alive.
pub struct SinkOp {
    desc: OpDescriptor,
    results: Arc<Mutex<Received>>,
}

impl SinkOp {
    /// A new sink.
    pub fn new(name: impl Into<String>) -> Self {
        let results: Arc<Mutex<Received>> = Arc::default();
        SinkOp {
            desc: OpDescriptor {
                // Appending a row to the results view is ~free.
                cost: CostProfile::per_tuple_micros(1),
                // The result buffer is shared across instances *and*
                // across clones of the workflow holding this factory: its
                // address is the identity the service uses to serialize
                // runs that would interleave rows.
                shared_state: Some(Arc::as_ptr(&results) as usize),
                ..OpDescriptor::new(name, 1)
            },
            results,
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
        read(&self.results)
    }
}

/// Cloneable handle to a sink's collected results.
#[derive(Clone)]
pub struct SinkHandle {
    results: Arc<Mutex<Received>>,
}

impl SinkHandle {
    /// Snapshot of the tuples collected so far, in arrival order. Sealed
    /// batches the sink holds are materialized here, on the caller's
    /// thread, each time this is called: rows of a batch sealed from a
    /// scan are the scan's own tuples, cloned (no row is built); other
    /// batches build theirs from their columns
    /// ([`ColumnarBatch::to_tuples`]).
    pub fn results(&self) -> Vec<Tuple> {
        read(&self.results)
    }

    /// Number of tuples collected so far.
    pub fn len(&self) -> usize {
        lock(&self.results).rows
    }

    /// True if nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear collected tuples (for re-running a workflow object).
    pub fn clear(&self) {
        lock(&self.results).clear();
    }
}

struct SinkInstance {
    results: Arc<Mutex<Received>>,
}

impl Operator for SinkInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        lock(&self.results).push_row(tuple);
        Ok(())
    }

    /// A batch that stayed columnar end to end is kept sealed: the pool
    /// thread shares it, the reader builds its rows.
    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        lock(&self.results).push_batch(batch.clone());
        Ok(())
    }
}

impl OperatorFactory for SinkOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        Ok((*inputs[0]).clone())
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(SinkInstance {
            results: self.results.clone(),
        })
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
        let buffer = Arc::as_ptr(&sink.results) as usize;
        assert_eq!(sink.desc.shared_state, Some(buffer));
        assert_ne!(sink.desc.shared_state, other.desc.shared_state);

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

    /// The sink materializes on read: a sealed batch is held as it came
    /// (a shared reference), counted at once, and turned into rows by
    /// whoever reads — every time, in arrival order.
    #[test]
    fn held_batches_count_at_once_and_materialize_on_every_read() {
        use scriptflow_datakit::SharedBatch;
        let schema = Schema::of(&[("x", DataType::Int)]);
        let row = |x: i64| Tuple::new(schema.clone(), vec![Value::Int(x)]).unwrap();
        let batch = |xs: &[i64]| {
            ColumnarBatch::from_tuples(
                schema.clone(),
                &xs.iter().map(|&x| row(x)).collect::<Vec<_>>(),
            )
        };
        let sink = SinkOp::new("sink");
        let handle = sink.handle();
        let identity = sink.desc.shared_state;
        let (mut a, mut b) = (sink.create(), sink.create());
        let mut out = OutputCollector::new();
        let sealed = batch(&[2, 3, 4]);
        // The sealed columns' reference count, read off a second handle.
        let refs = SharedBatch::from_columnar(sealed.clone());
        assert_eq!(refs.ref_count(), 2);

        assert!(handle.is_empty());
        a.on_tuple(row(0), 0, &mut out).unwrap();
        b.on_tuple(row(1), 0, &mut out).unwrap();
        a.on_batch(&sealed, 0, &mut out).unwrap();
        assert_eq!(refs.ref_count(), 3, "held, not copied");
        b.on_tuple(row(5), 0, &mut out).unwrap();
        b.on_batch(&batch(&[]), 0, &mut out).unwrap();
        a.on_batch(&batch(&[6]), 0, &mut out).unwrap();
        a.on_tuple(row(7), 0, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!((handle.len(), handle.is_empty()), (8, false));

        let xs =
            |rows: &[Tuple]| -> Vec<i64> { rows.iter().map(|t| t.get_int("x").unwrap()).collect() };
        let first = handle.results();
        assert_eq!(xs(&first), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(handle.results(), first);
        assert_eq!(sink.results(), first);
        assert_eq!(refs.ref_count(), 3, "reading leaves the batch held");
        assert_eq!(handle.len(), 8);

        handle.clear();
        assert_eq!(refs.ref_count(), 2, "clear drops the held batch");
        assert!(handle.is_empty() && handle.results().is_empty());
        a.on_batch(&sealed, 0, &mut out).unwrap();
        assert_eq!((handle.len(), refs.ref_count()), (3, 3));
        sink.reset_shared_state();
        assert_eq!((handle.len(), refs.ref_count()), (0, 2));
        // What the service serializes runs on is still the buffer.
        assert_eq!(identity, Some(Arc::as_ptr(&sink.results) as usize));
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
