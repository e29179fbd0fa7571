//! Source operator: emits a pre-materialized batch.

use std::sync::OnceLock;

use scriptflow_core::fingerprint::OpFingerprint;
use scriptflow_datakit::{Batch, ColumnarBatch, Schema, SchemaRef, Tuple};
use scriptflow_simcluster::Language;

use crate::cost::CostProfile;
use crate::operator::{
    deal_round_robin, fingerprint_tuple, spec_fingerprinter, OpDescriptor, Operator,
    OperatorFactory, OutputCollector, WorkflowError, WorkflowResult,
};

/// A source operator producing the tuples of a batch.
///
/// With parallelism *k*, the batch is round-robin split across the *k*
/// source workers, which then feed the pipeline concurrently (Texera's
/// parallel scan).
pub struct ScanOp {
    desc: OpDescriptor,
    batch: Batch,
    /// The content digest, hashed on first use: every workflow sharing
    /// this scan asks for it at every `build`.
    fingerprint: OnceLock<OpFingerprint>,
    /// The whole dataset as one columnar batch, sealed on first use and
    /// shared by every columnar run.
    sealed: OnceLock<ColumnarBatch>,
}

impl ScanOp {
    /// A scan over `batch`.
    pub fn new(name: impl Into<String>, batch: Batch) -> Self {
        ScanOp {
            desc: OpDescriptor {
                // Reading + parsing a record is pricier than probing a
                // hash table; default to 4 µs per tuple.
                cost: CostProfile::per_tuple_micros(4),
                source: true,
                ..OpDescriptor::new(name, 0)
            },
            batch,
            fingerprint: OnceLock::new(),
            sealed: OnceLock::new(),
        }
    }

    /// Override the cost profile.
    pub fn with_cost(mut self, cost: CostProfile) -> Self {
        self.desc.cost = cost;
        // The digest covers the cost profile.
        self.fingerprint = OnceLock::new();
        self
    }

    /// Override the implementation language.
    pub fn with_language(mut self, language: Language) -> Self {
        self.desc.language = language;
        // The digest covers the language.
        self.fingerprint = OnceLock::new();
        self
    }

    /// Number of tuples this scan produces.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True if the scan produces nothing.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }
}

/// Sources never receive tuples; the executor pulls their data through
/// [`OperatorFactory::source_partitions`] instead.
struct ScanInstance;

impl Operator for ScanInstance {
    fn on_tuple(
        &mut self,
        _tuple: Tuple,
        _port: usize,
        _out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        Err(WorkflowError::OperatorFailed {
            operator: "<scan>".into(),
            message: "source operators do not accept input".into(),
        })
    }
}

impl OperatorFactory for ScanOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        debug_assert!(inputs.is_empty());
        Ok((**self.batch.schema()).clone())
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(ScanInstance)
    }

    fn source_partitions(&self, workers: usize) -> Option<Vec<Vec<Tuple>>> {
        Some(deal_round_robin(
            self.batch.tuples().iter().cloned(),
            workers,
        ))
    }

    fn source_columnar(&self) -> Option<ColumnarBatch> {
        Some(
            self.sealed
                .get_or_init(|| ColumnarBatch::from_batch(&self.batch))
                .clone(),
        )
    }

    /// A scan is content-addressed by its actual data: schema plus every
    /// row, so editing the input invalidates the whole downstream cone.
    fn fingerprint(&self) -> OpFingerprint {
        *self.fingerprint.get_or_init(|| {
            let mut h = spec_fingerprinter(&self.desc);
            h.write_str(&self.batch.schema().to_string());
            h.write_usize(self.batch.len());
            for t in self.batch.tuples() {
                fingerprint_tuple(&mut h, t);
            }
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Value};

    fn scan(n: i64) -> ScanOp {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let rows = (0..n).map(|i| vec![Value::Int(i)]).collect();
        ScanOp::new("scan", Batch::from_rows(schema, rows).unwrap())
    }

    #[test]
    fn partitions_cover_all_tuples() {
        let s = scan(10);
        let parts = s.source_partitions(3).unwrap();
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        // Round-robin: first partition gets ceil(10/3) = 4.
        assert_eq!(parts[0].len(), 4);
        assert_eq!(parts[1].len(), 3);
    }

    #[test]
    fn schema_comes_from_batch() {
        let s = scan(1);
        assert_eq!(s.output_schema(&[]).unwrap().to_string(), "id: Int");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fingerprint_follows_content() {
        use crate::operator::OperatorFactory;
        assert_eq!(scan(5).fingerprint(), scan(5).fingerprint());
        // Memoized, never recomputed differently: a scan that has already
        // answered agrees with a freshly constructed one, and with the
        // value on-disk cache keys were derived from before memoization.
        let asked = scan(5);
        asked.fingerprint();
        assert_eq!(asked.fingerprint(), scan(5).fingerprint());
        assert_eq!(
            asked.fingerprint().0,
            0xfd1d_49bb_0a63_7357_c4f5_1e66_d2c1_39ae
        );
        // The overrides clear the memo: the digest covers what they set.
        assert_ne!(
            asked.fingerprint(),
            asked.with_language(Language::Scala).fingerprint()
        );
        let asked = scan(5);
        asked.fingerprint();
        assert_ne!(
            scan(5).fingerprint(),
            asked
                .with_cost(CostProfile::per_tuple_micros(9))
                .fingerprint()
        );
        assert_ne!(scan(5).fingerprint(), scan(6).fingerprint());
        assert_ne!(
            scan(5).fingerprint(),
            scan(5).with_language(Language::Scala).fingerprint()
        );
        assert_ne!(
            scan(5).fingerprint(),
            scan(5)
                .with_cost(CostProfile::per_tuple_micros(9))
                .fingerprint()
        );
    }

    #[test]
    fn instance_rejects_input() {
        let s = scan(1);
        let mut inst = s.create();
        let t = s.source_partitions(1).unwrap()[0][0].clone();
        let mut out = OutputCollector::new();
        assert!(inst.on_tuple(t, 0, &mut out).is_err());
    }
}
