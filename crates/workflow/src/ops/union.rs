//! N-ary union operator.

use scriptflow_datakit::{Schema, SchemaRef, Tuple};
use scriptflow_simcluster::Language;

use crate::cost::CostProfile;
use crate::operator::{
    OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowError, WorkflowResult,
};

/// Merge `n` input streams with identical schemas into one output
/// stream (bag semantics, no dedup, no order guarantee).
pub struct UnionOp {
    desc: OpDescriptor,
}

impl UnionOp {
    /// A union over `ports` inputs.
    pub fn new(name: impl Into<String>, ports: usize) -> Self {
        assert!(ports >= 2, "a union needs at least two inputs");
        UnionOp {
            desc: OpDescriptor {
                cost: CostProfile::per_tuple_micros(1),
                // A union of the same inputs in a different port order
                // produces the same bag of rows, so its Merkle fold is
                // order-independent.
                commutative_inputs: true,
                ..OpDescriptor::new(name, ports)
            },
        }
    }

    /// Override the cost profile.
    pub fn with_cost(mut self, cost: CostProfile) -> Self {
        self.desc.cost = cost;
        self
    }

    /// Override the implementation language.
    pub fn with_language(mut self, language: Language) -> Self {
        self.desc.language = language;
        self
    }
}

struct UnionInstance;

impl Operator for UnionInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        out.emit(tuple);
        Ok(())
    }
}

impl OperatorFactory for UnionOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        for other in &inputs[1..] {
            if **other != *inputs[0] {
                return Err(WorkflowError::SchemaError {
                    operator: self.desc.name.clone(),
                    error: scriptflow_datakit::DataError::SchemaMismatch {
                        left: inputs[0].to_string(),
                        right: other.to_string(),
                    },
                });
            }
        }
        Ok((*inputs[0]).clone())
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(UnionInstance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::exec_sim::SimExecutor;
    use crate::ops::{ScanOp, SinkOp};
    use crate::partition::PartitionStrategy;
    use crate::EngineConfig;
    use scriptflow_datakit::{Batch, DataType, Value};
    use std::sync::Arc;

    fn batch(lo: i64, hi: i64) -> Batch {
        let schema = Schema::of(&[("id", DataType::Int)]);
        Batch::from_rows(schema, (lo..hi).map(|i| vec![Value::Int(i)]).collect()).unwrap()
    }

    #[test]
    fn schema_mismatch_rejected_at_build_time() {
        let u = UnionOp::new("u", 2);
        let a = Schema::of(&[("id", DataType::Int)]);
        let b = Schema::of(&[("id", DataType::Str)]);
        assert!(u.output_schema(&[a.clone(), a.clone()]).is_ok());
        assert!(u.output_schema(&[a, b]).is_err());
    }

    #[test]
    fn union_merges_all_streams() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.add(Arc::new(ScanOp::new("s1", batch(0, 50))), 2);
        let s2 = b.add(Arc::new(ScanOp::new("s2", batch(50, 80))), 1);
        let s3 = b.add(Arc::new(ScanOp::new("s3", batch(80, 100))), 1);
        let u = b.add(Arc::new(UnionOp::new("u", 3)), 2);
        let sink_op = SinkOp::new("sink");
        let handle = sink_op.handle();
        let sink = b.add(Arc::new(sink_op), 1);
        b.connect(s1, u, 0, PartitionStrategy::RoundRobin);
        b.connect(s2, u, 1, PartitionStrategy::RoundRobin);
        b.connect(s3, u, 2, PartitionStrategy::RoundRobin);
        b.connect(u, sink, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        SimExecutor::new(EngineConfig::default()).run(&wf).unwrap();
        let mut ids: Vec<i64> = handle
            .results()
            .iter()
            .map(|t| t.get_int("id").unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least two inputs")]
    fn single_input_union_panics() {
        UnionOp::new("u", 1);
    }
}
