//! Schema-homogeneous groups of tuples.

use std::sync::Arc;

use crate::column::ColumnarBatch;
use crate::error::{DataError, DataResult};
use crate::schema::SchemaRef;
use crate::tuple::Tuple;
use crate::value::Value;

/// A group of tuples sharing one schema.
///
/// Batches are the pipelining unit of the workflow engine: Texera moves
/// data between operators in batches whose size the system tunes, which is
/// exactly the knob the paper contrasts with hand-tuned `DataLoader`
/// batching in the notebook (Fig. 10). The simulator charges serialization
/// per batch boundary crossing.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
}

impl Batch {
    /// An empty batch of the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Batch {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Build a batch, verifying every tuple carries the same schema.
    pub fn new(schema: SchemaRef, tuples: Vec<Tuple>) -> DataResult<Self> {
        for t in &tuples {
            if **t.schema() != *schema {
                return Err(DataError::SchemaMismatch {
                    left: schema.to_string(),
                    right: t.schema().to_string(),
                });
            }
        }
        Ok(Batch { schema, tuples })
    }

    /// Build from already-validated tuples without re-walking them.
    ///
    /// [`Batch::new`] re-checks every tuple's schema, which profiling
    /// shows re-walks the whole batch at every operator boundary even
    /// though internal producers (operators whose output schema was
    /// verified at DAG-build time, [`ColumnarBatch::to_batch`], chunk
    /// re-assembly) have already proven conformance. Those paths use
    /// this constructor; the check survives as a `debug_assert`.
    pub fn new_unchecked(schema: SchemaRef, tuples: Vec<Tuple>) -> Self {
        debug_assert!(
            tuples.iter().all(|t| **t.schema() == *schema),
            "new_unchecked requires schema-homogeneous tuples"
        );
        Batch { schema, tuples }
    }

    /// Build from rows of raw values, validating each against the schema.
    pub fn from_rows(schema: SchemaRef, rows: Vec<Vec<Value>>) -> DataResult<Self> {
        let mut tuples = Vec::with_capacity(rows.len());
        for row in rows {
            tuples.push(Tuple::new(schema.clone(), row)?);
        }
        Ok(Batch { schema, tuples })
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consume into the tuple vector.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total wire size of all tuples (serde/network cost accounting).
    pub fn encoded_len(&self) -> usize {
        self.tuples.iter().map(Tuple::encoded_len).sum()
    }

    /// Split into chunks of at most `size` tuples, preserving order.
    ///
    /// This is how the workflow engine re-batches data between operators
    /// with differing tuning.
    pub fn chunks(&self, size: usize) -> Vec<Batch> {
        assert!(size > 0, "chunk size must be positive");
        self.tuples
            .chunks(size)
            .map(|c| Batch {
                schema: self.schema.clone(),
                tuples: c.to_vec(),
            })
            .collect()
    }

    /// Concatenate batches of identical schema.
    pub fn concat(batches: Vec<Batch>) -> DataResult<Batch> {
        let mut iter = batches.into_iter();
        let mut first = match iter.next() {
            Some(b) => b,
            None => {
                return Err(DataError::SchemaMismatch {
                    left: "<no batches>".into(),
                    right: "<no batches>".into(),
                })
            }
        };
        for b in iter {
            if *b.schema != *first.schema {
                return Err(DataError::SchemaMismatch {
                    left: first.schema.to_string(),
                    right: b.schema.to_string(),
                });
            }
            first.tuples.extend(b.tuples);
        }
        Ok(first)
    }

    /// Sorted multiset fingerprint of the batch contents, used by tests to
    /// assert that both paradigms produced the same data regardless of
    /// tuple order (pipelined execution does not preserve global order).
    pub fn fingerprint(&self) -> Vec<String> {
        let mut rows: Vec<String> = self.tuples.iter().map(|t| t.to_string()).collect();
        rows.sort_unstable();
        rows
    }
}

/// An immutable, reference-counted group of tuples.
///
/// This is the zero-copy unit the workflow engine's live executor routes
/// along DAG edges: a broadcast edge (or any multi-consumer fan-out)
/// clones the `Arc`, not the tuples, so every downstream worker reads the
/// same allocation. A consumer that holds the only reference can reclaim
/// the owned tuples without copying via [`SharedBatch::into_tuples`].
///
/// The payload is either row-oriented (`Vec<Tuple>`) or a sealed
/// [`ColumnarBatch`]; the columnar form travels through the scheduler
/// untouched, so a producer's seal (and its statistics) reach the
/// consumer zero-copy. Consumers without a columnar kernel fall back to
/// [`SharedBatch::into_tuples`], which materializes rows on demand.
#[derive(Debug, Clone)]
pub struct SharedBatch {
    payload: SharedPayload,
}

#[derive(Debug, Clone)]
enum SharedPayload {
    Rows(Arc<Vec<Tuple>>),
    /// Held directly: a [`ColumnarBatch`] is already reference-counted.
    Columnar(ColumnarBatch),
}

impl SharedBatch {
    /// Wrap owned tuples into a shareable batch (no copy).
    pub fn new(tuples: Vec<Tuple>) -> Self {
        SharedBatch {
            payload: SharedPayload::Rows(Arc::new(tuples)),
        }
    }

    /// Wrap a sealed columnar batch (no copy): its statistics travel
    /// with it to every consumer.
    pub fn from_columnar(batch: ColumnarBatch) -> Self {
        SharedBatch {
            payload: SharedPayload::Columnar(batch),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.payload {
            SharedPayload::Rows(t) => t.len(),
            SharedPayload::Columnar(c) => c.len(),
        }
    }

    /// True if the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The columnar payload, if this batch carries one.
    pub fn columnar(&self) -> Option<&ColumnarBatch> {
        match &self.payload {
            SharedPayload::Columnar(c) => Some(c),
            SharedPayload::Rows(_) => None,
        }
    }

    /// Number of live references to this allocation (diagnostics).
    pub fn ref_count(&self) -> usize {
        match &self.payload {
            SharedPayload::Rows(t) => Arc::strong_count(t),
            SharedPayload::Columnar(c) => c.ref_count(),
        }
    }

    /// Reclaim the owned tuples.
    ///
    /// For row payloads: free when this is the sole reference (the
    /// common case for hash/round-robin routed batches, whose consumer
    /// is unique); clones only when the allocation is still shared
    /// (broadcast edges, where every consumer but the last pays the copy
    /// it actually needs to mutate independently). Columnar payloads
    /// materialize rows.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self.payload {
            SharedPayload::Rows(tuples) => {
                Arc::try_unwrap(tuples).unwrap_or_else(|shared| (*shared).clone())
            }
            SharedPayload::Columnar(c) => c.to_tuples(),
        }
    }
}

impl From<Vec<Tuple>> for SharedBatch {
    fn from(tuples: Vec<Tuple>) -> Self {
        SharedBatch::new(tuples)
    }
}

/// Push-style batch construction.
#[derive(Debug)]
pub struct BatchBuilder {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
}

impl BatchBuilder {
    /// Start an empty builder.
    pub fn new(schema: SchemaRef) -> Self {
        BatchBuilder {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Start with capacity for `n` tuples.
    pub fn with_capacity(schema: SchemaRef, n: usize) -> Self {
        BatchBuilder {
            schema,
            tuples: Vec::with_capacity(n),
        }
    }

    /// Append a pre-built tuple, checking its schema matches.
    pub fn push(&mut self, tuple: Tuple) -> DataResult<()> {
        if **tuple.schema() != *self.schema {
            return Err(DataError::SchemaMismatch {
                left: self.schema.to_string(),
                right: tuple.schema().to_string(),
            });
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Append a row of raw values, validating against the schema.
    pub fn push_row(&mut self, row: Vec<Value>) -> DataResult<()> {
        self.tuples.push(Tuple::new(self.schema.clone(), row)?);
        Ok(())
    }

    /// Number of tuples buffered so far.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Finish into a batch.
    pub fn build(self) -> Batch {
        Batch {
            schema: self.schema,
            tuples: self.tuples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[("id", DataType::Int), ("tag", DataType::Str)])
    }

    fn batch(n: i64) -> Batch {
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::Str(format!("t{i}"))])
            .collect();
        Batch::from_rows(schema(), rows).unwrap()
    }

    #[test]
    fn from_rows_validates() {
        let bad = Batch::from_rows(schema(), vec![vec![Value::Str("x".into()), Value::Null]]);
        assert!(bad.is_err());
        assert_eq!(batch(3).len(), 3);
    }

    #[test]
    fn chunks_preserve_order_and_cover_all() {
        let b = batch(10);
        let cs = b.chunks(3);
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0].len(), 3);
        assert_eq!(cs[3].len(), 1);
        let total: usize = cs.iter().map(Batch::len).sum();
        assert_eq!(total, 10);
        let rejoined = Batch::concat(cs).unwrap();
        assert_eq!(rejoined, b);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn chunks_rejects_zero() {
        batch(1).chunks(0);
    }

    #[test]
    fn concat_checks_schema() {
        let other = Batch::from_rows(
            Schema::of(&[("x", DataType::Int)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        assert!(Batch::concat(vec![batch(1), other]).is_err());
        assert!(Batch::concat(vec![]).is_err());
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        let a = batch(5);
        let mut tuples = a.tuples().to_vec();
        tuples.reverse();
        let b = Batch::new(schema(), tuples).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.tuples(), b.tuples());
    }

    #[test]
    fn builder_roundtrip() {
        let mut bb = BatchBuilder::with_capacity(schema(), 2);
        assert!(bb.is_empty());
        bb.push_row(vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        bb.push(batch(1).tuples()[0].clone()).unwrap();
        assert_eq!(bb.len(), 2);
        let b = bb.build();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn builder_rejects_foreign_schema() {
        let mut bb = BatchBuilder::new(schema());
        let foreign = Batch::from_rows(
            Schema::of(&[("x", DataType::Int)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        assert!(bb.push(foreign.tuples()[0].clone()).is_err());
    }

    #[test]
    fn encoded_len_sums() {
        let b = batch(2);
        let expect: usize = b.tuples().iter().map(Tuple::encoded_len).sum();
        assert_eq!(b.encoded_len(), expect);
    }

    #[test]
    fn shared_batch_shares_and_unwraps() {
        let tuples = batch(4).into_tuples();
        let shared = SharedBatch::new(tuples.clone());
        assert_eq!(shared.len(), 4);
        assert!(!shared.is_empty());
        let second = shared.clone();
        assert_eq!(shared.ref_count(), 2);
        // Shared reference: into_tuples falls back to a clone.
        assert_eq!(second.into_tuples(), tuples);
        // Sole reference: into_tuples reclaims without copying.
        assert_eq!(shared.ref_count(), 1);
        assert_eq!(shared.into_tuples(), tuples);
        // A columnar payload is held as it is: cloning the batch shares
        // the sealed columns, nothing is boxed a second time.
        let sealed = SharedBatch::from_columnar(ColumnarBatch::from_tuples(schema(), &tuples));
        let second = sealed.clone();
        assert_eq!(sealed.ref_count(), 2);
        assert_eq!(second.columnar().map(ColumnarBatch::len), Some(4));
        assert_eq!(second.into_tuples(), tuples);
        assert_eq!(sealed.ref_count(), 1);
    }
}
