//! User-defined operators (Texera's Python/Scala UDF boxes).

use std::sync::Arc;

use scriptflow_datakit::{Schema, SchemaRef, Tuple};
use scriptflow_simcluster::Language;

use crate::cost::CostProfile;
use crate::operator::{OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowResult};

type SchemaFn = Arc<dyn Fn(&[SchemaRef]) -> WorkflowResult<Schema> + Send + Sync>;
type TupleFn = Arc<dyn Fn(Tuple, usize, &mut OutputCollector) -> WorkflowResult<()> + Send + Sync>;

/// What every UDF starts from: `ports` inputs at 5 µs per tuple.
fn udf_descriptor(name: impl Into<String>, ports: usize) -> OpDescriptor {
    assert!(ports >= 1, "a UDF needs at least one input port");
    OpDescriptor {
        cost: CostProfile::per_tuple_micros(5),
        ..OpDescriptor::new(name, ports)
    }
}

/// A stateless user-defined operator: one closure maps each input tuple
/// to zero or more output tuples.
///
/// This is the workhorse the task implementations use for their custom
/// logic — exactly the role of Texera's UDF operators in the paper's
/// workflows.
pub struct UdfOp {
    desc: OpDescriptor,
    schema_fn: SchemaFn,
    tuple_fn: TupleFn,
}

impl UdfOp {
    /// A single-input UDF with a fixed output schema.
    pub fn new(
        name: impl Into<String>,
        output: Schema,
        f: impl Fn(Tuple, usize, &mut OutputCollector) -> WorkflowResult<()> + Send + Sync + 'static,
    ) -> Self {
        let schema = output.clone();
        UdfOp {
            desc: udf_descriptor(name, 1),
            schema_fn: Arc::new(move |_| Ok(schema.clone())),
            tuple_fn: Arc::new(f),
        }
    }

    /// A UDF whose output schema is computed from its input schemas.
    pub fn with_schema_fn(
        name: impl Into<String>,
        ports: usize,
        schema_fn: impl Fn(&[SchemaRef]) -> WorkflowResult<Schema> + Send + Sync + 'static,
        f: impl Fn(Tuple, usize, &mut OutputCollector) -> WorkflowResult<()> + Send + Sync + 'static,
    ) -> Self {
        UdfOp {
            desc: udf_descriptor(name, ports),
            schema_fn: Arc::new(schema_fn),
            tuple_fn: Arc::new(f),
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

struct UdfInstance {
    tuple_fn: TupleFn,
}

impl Operator for UdfInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        (self.tuple_fn)(tuple, port, out)
    }
}

impl OperatorFactory for UdfOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        (self.schema_fn)(inputs)
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(UdfInstance {
            tuple_fn: self.tuple_fn.clone(),
        })
    }
}

type StateInit<S> = Arc<dyn Fn() -> S + Send + Sync>;
type StateTupleFn<S> =
    Arc<dyn Fn(&mut S, Tuple, usize, &mut OutputCollector) -> WorkflowResult<()> + Send + Sync>;
type StateCompleteFn<S> =
    Arc<dyn Fn(&mut S, usize, &mut OutputCollector) -> WorkflowResult<()> + Send + Sync>;

/// A stateful user-defined operator: each worker instance holds its own
/// state `S`, updated per tuple and flushed on port completion.
///
/// Used for custom blocking logic (building lookup tables, batching model
/// input) in the task implementations.
pub struct StatefulUdfOp<S> {
    desc: OpDescriptor,
    schema_fn: SchemaFn,
    init: StateInit<S>,
    on_tuple: StateTupleFn<S>,
    on_complete: StateCompleteFn<S>,
}

impl<S: Send + 'static> StatefulUdfOp<S> {
    /// A stateful UDF. `on_complete` fires once per port as it finishes.
    pub fn new(
        name: impl Into<String>,
        ports: usize,
        output: Schema,
        init: impl Fn() -> S + Send + Sync + 'static,
        on_tuple: impl Fn(&mut S, Tuple, usize, &mut OutputCollector) -> WorkflowResult<()>
            + Send
            + Sync
            + 'static,
        on_complete: impl Fn(&mut S, usize, &mut OutputCollector) -> WorkflowResult<()>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        let schema = output;
        StatefulUdfOp {
            desc: udf_descriptor(name, ports),
            schema_fn: Arc::new(move |_| Ok(schema.clone())),
            init: Arc::new(init),
            on_tuple: Arc::new(on_tuple),
            on_complete: Arc::new(on_complete),
        }
    }

    /// Declare blocking ports (drained before the remaining ports).
    pub fn with_blocking_ports(mut self, blocking: Vec<usize>) -> Self {
        self.desc.blocking_ports = blocking;
        self
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

struct StatefulUdfInstance<S> {
    state: S,
    on_tuple: StateTupleFn<S>,
    on_complete: StateCompleteFn<S>,
}

impl<S: Send> Operator for StatefulUdfInstance<S> {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        (self.on_tuple)(&mut self.state, tuple, port, out)
    }

    fn on_port_complete(&mut self, port: usize, out: &mut OutputCollector) -> WorkflowResult<()> {
        (self.on_complete)(&mut self.state, port, out)
    }
}

impl<S: Send + 'static> OperatorFactory for StatefulUdfOp<S> {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        (self.schema_fn)(inputs)
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(StatefulUdfInstance {
            state: (self.init)(),
            on_tuple: self.on_tuple.clone(),
            on_complete: self.on_complete.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Value};

    fn int_tuple(x: i64) -> Tuple {
        Tuple::new(Schema::of(&[("x", DataType::Int)]), vec![Value::Int(x)]).unwrap()
    }

    #[test]
    fn stateless_udf_flat_maps() {
        let out_schema = Schema::of(&[("y", DataType::Int)]);
        let schema = (*out_schema).clone();
        let op = UdfOp::new("dup", schema, move |t, _, out| {
            let x = t
                .get_int("x")
                .map_err(|e| crate::operator::WorkflowError::from_data("dup", e))?;
            for _ in 0..2 {
                out.emit(Tuple::new_unchecked(
                    out_schema.clone(),
                    vec![Value::Int(x * 10)],
                ));
            }
            Ok(())
        });
        let mut inst = op.create();
        let mut collected = OutputCollector::new();
        inst.on_tuple(int_tuple(3), 0, &mut collected).unwrap();
        let rows = collected.take();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get_int("y").unwrap(), 30);
    }

    #[test]
    fn stateful_udf_accumulates_and_flushes() {
        let out_schema = Schema::of(&[("total", DataType::Int)]);
        let emit_schema = out_schema.clone();
        let op = StatefulUdfOp::new(
            "sum",
            1,
            (*out_schema).clone(),
            || 0i64,
            |state, t, _, _| {
                *state += t.get_int("x").unwrap();
                Ok(())
            },
            move |state, _, out| {
                out.emit(Tuple::new_unchecked(
                    emit_schema.clone(),
                    vec![Value::Int(*state)],
                ));
                Ok(())
            },
        );
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        for x in 1..=4 {
            inst.on_tuple(int_tuple(x), 0, &mut out).unwrap();
        }
        assert!(out.is_empty());
        inst.on_port_complete(0, &mut out).unwrap();
        let rows = out.take();
        assert_eq!(rows[0].get_int("total").unwrap(), 10);
    }

    #[test]
    fn instances_have_independent_state() {
        let out_schema = Schema::of(&[("total", DataType::Int)]);
        let emit_schema = out_schema.clone();
        let op = StatefulUdfOp::new(
            "sum",
            1,
            (*out_schema).clone(),
            || 0i64,
            |state, t, _, _| {
                *state += t.get_int("x").unwrap();
                Ok(())
            },
            move |state, _, out| {
                out.emit(Tuple::new_unchecked(
                    emit_schema.clone(),
                    vec![Value::Int(*state)],
                ));
                Ok(())
            },
        );
        let mut a = op.create();
        let mut b = op.create();
        let mut out = OutputCollector::new();
        a.on_tuple(int_tuple(5), 0, &mut out).unwrap();
        b.on_port_complete(0, &mut out).unwrap();
        assert_eq!(out.take()[0].get_int("total").unwrap(), 0);
    }

    #[test]
    fn schema_fn_variant() {
        let op = UdfOp::with_schema_fn(
            "identity",
            1,
            |inputs| Ok((*inputs[0]).clone()),
            |t, _, out| {
                out.emit(t);
                Ok(())
            },
        );
        let s = Schema::of(&[("x", DataType::Int)]);
        assert_eq!(op.output_schema(&[s]).unwrap().to_string(), "x: Int");
    }
}
