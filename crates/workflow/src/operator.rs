//! The operator abstraction: the basic building block of workflows.

use std::fmt;

use scriptflow_core::fingerprint::{Fingerprinter, OpFingerprint};
use scriptflow_datakit::{ColumnarBatch, DataError, Schema, SchemaRef, Tuple, Value};
use scriptflow_simcluster::Language;

use crate::cost::CostProfile;
use crate::metrics::OpCounters;

/// Result alias for workflow operations.
pub type WorkflowResult<T> = Result<T, WorkflowError>;

/// Errors raised while building or executing a workflow.
///
/// Execution errors are reported **at the operator level** (§III-A of the
/// paper): the failing operator's name travels with the error so the GUI
/// can highlight exactly one box, unlike the notebook's cell-level stack
/// traces.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The DAG is malformed (cycle, dangling edge, port mismatch...).
    InvalidDag(String),
    /// Two operators share one display name. Typed apart from
    /// [`WorkflowError::InvalidDag`] because collisions are actively
    /// dangerous once fingerprinted memoization is in play: a name is
    /// part of an operator's content address, and callers (the JSON spec
    /// parser, the service) want to catch exactly this case.
    DuplicateOperator {
        /// The name claimed by more than one operator.
        name: String,
    },
    /// Schema propagation failed at an operator.
    SchemaError {
        /// The operator the error is reported at (§III-A).
        operator: String,
        /// The underlying schema problem.
        error: DataError,
    },
    /// An operator failed while processing data.
    OperatorFailed {
        /// The operator the error is reported at.
        operator: String,
        /// The failure message.
        message: String,
    },
    /// A data-layer error escaped an operator at runtime.
    DataError {
        /// The operator the error is reported at.
        operator: String,
        /// The underlying data problem.
        error: DataError,
    },
    /// The run wedged: no task could make progress, yet some still
    /// waited for end-of-stream markers that no producer would send. The
    /// live engine's quiescence detector force-finishes the stragglers
    /// and reports every input port it left waiting.
    Stalled {
        /// The open input ports, in task order.
        starving: Vec<StarvedPort>,
    },
}

/// One input port of one worker that a stalled run left waiting
/// ([`WorkflowError::Stalled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarvedPort {
    /// The waiting operator.
    pub operator: String,
    /// Which of its workers (0-based).
    pub worker: usize,
    /// The open input port.
    pub port: usize,
    /// End-of-stream markers the port still lacked.
    pub missing_eos: usize,
    /// The operator feeding that port.
    pub upstream: String,
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::InvalidDag(msg) => write!(f, "invalid workflow: {msg}"),
            WorkflowError::DuplicateOperator { name } => {
                write!(f, "invalid workflow: duplicate operator name `{name}`")
            }
            WorkflowError::SchemaError { operator, error } => {
                write!(f, "schema error at operator `{operator}`: {error}")
            }
            WorkflowError::OperatorFailed { operator, message } => {
                write!(f, "operator `{operator}` failed: {message}")
            }
            WorkflowError::DataError { operator, error } => {
                write!(f, "data error at operator `{operator}`: {error}")
            }
            WorkflowError::Stalled { starving } => {
                write!(f, "pipeline stalled")?;
                for (i, s) in starving.iter().enumerate() {
                    let sep = if i == 0 { ": " } else { "; " };
                    write!(
                        f,
                        "{sep}`{}` worker {} port {} lacks {} end-of-stream marker(s) from `{}`",
                        s.operator, s.worker, s.port, s.missing_eos, s.upstream
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl WorkflowError {
    /// Attach an operator name to a bare data error.
    pub fn from_data(operator: &str, error: DataError) -> Self {
        WorkflowError::DataError {
            operator: operator.to_owned(),
            error,
        }
    }
}

/// One run of an operator's output, in emission order: rows, or a
/// sealed columnar batch passed on whole. The next operator's input
/// arrives in the same two forms.
#[derive(Debug, Clone)]
pub(crate) enum Emitted {
    Rows(Vec<Tuple>),
    Columnar(ColumnarBatch),
}

/// Collects what an operator emits while handling input — tuples and,
/// from columnar kernels, whole sealed batches — plus the [`OpCounters`]
/// it accrues doing so.
///
/// Output is port-less: an operator has exactly one output stream which
/// the DAG may fan out to several downstream edges (Texera's model).
/// Emission order is kept across the two forms; every row-shaped reader
/// ([`OutputCollector::len`], [`OutputCollector::take`]) sees the rows of
/// an emitted batch where the batch was emitted.
#[derive(Debug, Default)]
pub struct OutputCollector {
    /// Rows emitted since the last columnar batch (all of the output when
    /// no batch was emitted).
    tuples: Vec<Tuple>,
    /// What came before `tuples`, ending in a columnar batch.
    earlier: Vec<Emitted>,
    /// Rows held in `earlier`.
    earlier_rows: usize,
    counters: OpCounters,
}

impl OutputCollector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        OutputCollector::default()
    }

    /// A collector pre-sized for roughly `n` emitted tuples; executors use
    /// the incoming batch size as the estimate to avoid regrowth in the
    /// common map-like (one-in/one-out) case.
    pub fn with_capacity(n: usize) -> Self {
        OutputCollector {
            tuples: Vec::with_capacity(n),
            ..OutputCollector::default()
        }
    }

    /// Record one zone-map batch prune: the operator's statistics check
    /// proved no row of an input batch could pass, so the whole batch was
    /// dropped without reading its columns.
    pub fn note_batch_skipped(&mut self) {
        self.counters.batches_skipped += 1;
    }

    /// Record one spilled block of `bytes` compressed bytes: the operator
    /// exceeded its memory budget and persisted part of its state to the
    /// block store.
    pub fn note_spill_write(&mut self, bytes: u64) {
        self.counters.spilled_blocks += 1;
        self.counters.spilled_bytes += bytes;
    }

    /// Record one block read back from a spilled segment.
    pub fn note_spill_read(&mut self) {
        self.counters.spill_reads += 1;
    }

    /// Counters accrued since the last drain.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Zone-map prunes recorded since the last drain.
    pub fn batches_skipped(&self) -> u64 {
        self.counters.batches_skipped
    }

    /// Blocks spilled since the last drain.
    pub fn spilled_blocks(&self) -> u64 {
        self.counters.spilled_blocks
    }

    /// Drain the counters. Executors call this after every successful
    /// processing step and add the value to their per-operator telemetry.
    pub fn take_counters(&mut self) -> OpCounters {
        std::mem::take(&mut self.counters)
    }

    /// Throw away a faulted quantum's partial output *and* its counters,
    /// so the quantum's replay (see [`crate::retry`]) regenerates both
    /// exactly once.
    pub fn discard(&mut self) {
        self.tuples.clear();
        self.earlier.clear();
        self.earlier_rows = 0;
        self.counters = OpCounters::default();
    }

    /// Emit one tuple downstream.
    pub fn emit(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    /// Emit many tuples downstream.
    pub fn emit_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        self.tuples.extend(tuples);
    }

    /// Emit a sealed columnar batch downstream whole, after everything
    /// emitted so far. The pooled executor routes it without building
    /// rows; every row-shaped reader sees its rows in place.
    pub fn emit_batch(&mut self, batch: ColumnarBatch) {
        if batch.is_empty() {
            return;
        }
        if !self.tuples.is_empty() {
            self.earlier_rows += self.tuples.len();
            self.earlier
                .push(Emitted::Rows(std::mem::take(&mut self.tuples)));
        }
        self.earlier_rows += batch.len();
        self.earlier.push(Emitted::Columnar(batch));
    }

    /// Number of tuples collected so far.
    pub fn len(&self) -> usize {
        self.earlier_rows + self.tuples.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the collected tuples, materializing emitted batches.
    pub fn take(&mut self) -> Vec<Tuple> {
        if self.earlier.is_empty() {
            return std::mem::take(&mut self.tuples);
        }
        let mut rows = Vec::with_capacity(self.len());
        for run in self.drain_emitted() {
            rows.extend(run.into_rows());
        }
        rows
    }

    /// Drain the output as it was emitted: runs of rows and whole
    /// columnar batches, in order. Output without a batch is one run.
    pub(crate) fn drain_emitted(&mut self) -> impl Iterator<Item = Emitted> {
        self.earlier_rows = 0;
        let tail = std::mem::take(&mut self.tuples);
        std::mem::take(&mut self.earlier)
            .into_iter()
            .chain((!tail.is_empty()).then_some(Emitted::Rows(tail)))
    }
}

impl Emitted {
    pub(crate) fn len(&self) -> usize {
        match self {
            Emitted::Rows(t) => t.len(),
            Emitted::Columnar(b) => b.len(),
        }
    }

    /// The rows, materializing a columnar batch.
    pub(crate) fn into_rows(self) -> Vec<Tuple> {
        match self {
            Emitted::Rows(t) => t,
            Emitted::Columnar(b) => b.to_tuples(),
        }
    }
}

/// One operator instance: the per-worker processing state.
///
/// Each of an operator's `parallelism` workers gets its **own instance**
/// (created by [`OperatorFactory::create`]), mirroring how Texera deploys
/// one executor per worker. State such as a join's hash table is
/// therefore per-worker; correctness across workers is the partitioning
/// strategy's job.
pub trait Operator: Send {
    /// Apply the engine-level memory budget to this instance. Called by
    /// both executors right after [`OperatorFactory::create`], before any
    /// input is delivered. Operators without spillable state ignore it;
    /// blocking operators (join build tables, aggregation state, sort
    /// buffers) take it as their budget and spill to the block store once
    /// their state outgrows it. No operator carries a budget of its own.
    fn set_memory_budget(&mut self, _bytes: Option<usize>) {}

    /// Process one input tuple arriving on `port`.
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()>;

    /// All input on `port` has been delivered. Blocking operators (e.g. a
    /// hash join's build side, an aggregate) flush state here.
    fn on_port_complete(&mut self, _port: usize, _out: &mut OutputCollector) -> WorkflowResult<()> {
        Ok(())
    }

    /// Process one columnar input batch arriving on `port`.
    ///
    /// The default materializes rows and delegates to
    /// [`Operator::on_tuple`], so every operator is columnar-correct for
    /// free. Hot operators (filter, hash join, aggregate) override this
    /// with zone-map checks and monomorphic column kernels; an override
    /// must emit exactly the rows the per-tuple path would, in the same
    /// relative order, because which path runs depends on what the
    /// producer emitted and on whether a fault or replay touches the batch.
    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        rows_through(self, batch, port, out)
    }
}

/// The batch → row adapter: unroll `batch` through `op`'s `on_tuple`.
/// [`Operator::on_batch`]'s default, and a kernel's fallback for input
/// it has no columnar form for.
pub(crate) fn rows_through<O: Operator + ?Sized>(
    op: &mut O,
    batch: &ColumnarBatch,
    port: usize,
    out: &mut OutputCollector,
) -> WorkflowResult<()> {
    for i in 0..batch.len() {
        op.on_tuple(batch.tuple_at(i), port, out)?;
    }
    Ok(())
}

/// What an operator *is*, as plain data: everything the DAG builder, the
/// executors, the cache planner and the GUI read about an operator
/// without running it. A factory builds its descriptor once, in its
/// constructor, and lends it out through
/// [`OperatorFactory::descriptor`]; reading a field neither allocates
/// nor clones, and a wrapper forwards one value instead of ten getters.
///
/// Only what is intrinsic to the operator lives here. What depends on
/// the DAG around it — the propagated schema, the end-of-stream markers
/// each port waits for, the Merkle fingerprint — is read off the
/// [`crate::Workflow`]: [`crate::WorkflowBuilder::build`] computes the
/// first two, and the fingerprint is folded when first asked for.
#[derive(Debug, Clone)]
pub struct OpDescriptor {
    /// Display name (unique within a workflow; shown in the GUI).
    pub name: String,
    /// Number of input ports (0 for sources).
    pub input_ports: usize,
    /// Ports that must be fully consumed before later ports are processed
    /// (e.g. a hash join blocks its probe port until the build port
    /// finishes). Ports listed here are drained in ascending order before
    /// any non-listed port.
    pub blocking_ports: Vec<usize>,
    /// Implementation language (drives compute multipliers and
    /// cross-language boundary costs).
    pub language: Language,
    /// Virtual-cost profile for the simulator.
    pub cost: CostProfile,
    /// Whether this factory is a source, i.e. whether
    /// [`OperatorFactory::source_partitions`] yields data. DAG validation
    /// requires it of every port-less operator.
    pub source: bool,
    /// Whether this factory's [`Operator::on_batch`] is a columnar kernel
    /// rather than the row adapter. The pooled executor asks a source's
    /// consumers, and seals the source only where all of them read
    /// columns, so no edge ever converts.
    pub batch_kernel: bool,
    /// Identity of run-visible shared state owned by this factory (e.g.
    /// a sink's result buffer), or `None` if every worker instance is
    /// self-contained. Two factories reporting the same id alias the
    /// same storage: the multi-tenant service ([`crate::service`]) uses
    /// this to refuse concurrent submissions that would interleave rows
    /// into one buffer, and to know which state to clear per run
    /// ([`OperatorFactory::reset_shared_state`]).
    pub shared_state: Option<usize>,
    /// True when this operator's input ports are interchangeable (a
    /// union's are; a join's build/probe ports are not). The DAG builder
    /// folds upstream fingerprints of commutative operators
    /// order-independently, so rewiring equivalent inputs onto different
    /// ports does not invalidate downstream cache entries.
    pub commutative_inputs: bool,
    /// Result-cache replay marker: `Some((blocks, bytes))` when this
    /// factory *is* a cache-hit stand-in serving a sealed segment of
    /// `blocks` compressed blocks / `bytes` bytes instead of computing.
    /// Executors read this when initializing per-operator telemetry —
    /// a served operator's instances never execute, so hit counters
    /// cannot flow through the [`OutputCollector`].
    pub cache_replay: Option<(u64, u64)>,
}

impl OpDescriptor {
    /// An ordinary operator: `input_ports` ports, none blocking, Python,
    /// the default cost profile, row input, self-contained instances.
    /// Factories set what differs with struct-update syntax.
    pub fn new(name: impl Into<String>, input_ports: usize) -> Self {
        OpDescriptor {
            name: name.into(),
            input_ports,
            blocking_ports: Vec::new(),
            language: Language::Python,
            cost: CostProfile::default(),
            source: false,
            batch_kernel: false,
            shared_state: None,
            commutative_inputs: false,
            cache_replay: None,
        }
    }
}

/// Static description + instance factory for an operator.
///
/// This is what a DAG node holds: one [`OpDescriptor`] with everything
/// the builder needs to validate the graph and the executors need to
/// charge costs, plus the methods that do work — checking schemas,
/// spawning worker instances, producing source data, hashing the spec.
pub trait OperatorFactory: Send + Sync {
    /// The operator's plain-data description, built once by the factory.
    fn descriptor(&self) -> &OpDescriptor;

    /// Output schema given the input schemas (one per port). Called once
    /// at build time; errors abort workflow construction — the workflow
    /// paradigm's early, explicit schema checking.
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema>;

    /// Create one worker instance.
    fn create(&self) -> Box<dyn Operator>;

    /// For source operators ([`OpDescriptor::source`]): the tuples this
    /// source produces, already partitioned across `workers`.
    /// Non-sources return `None`.
    fn source_partitions(&self, _workers: usize) -> Option<Vec<Vec<Tuple>>> {
        None
    }

    /// For sources that can hand out their whole dataset as one sealed
    /// columnar batch (sealed once, shared by every run): that batch.
    /// Where every consumer has a [`OpDescriptor::batch_kernel`], the
    /// pooled executor has worker `k` of `w` copy the batch's contiguous
    /// edge-batch chunks `k, k + w, …`, one at a time inside its own
    /// quanta, instead of materializing every row up front; which worker
    /// holds a row is load balance only, so it need not be the one
    /// [`OperatorFactory::source_partitions`] deals it to. `None` (the
    /// default) keeps the source on `source_partitions`.
    fn source_columnar(&self) -> Option<ColumnarBatch> {
        None
    }

    /// Reset the factory's shared state ahead of a fresh run, restoring
    /// the "sink cleared per run" invariant for factories that report an
    /// [`OpDescriptor::shared_state`]. Default: nothing to reset.
    fn reset_shared_state(&self) {}

    /// Stable content digest of this operator's **spec** — its
    /// parameters and calibration-relevant configuration, but *not* its
    /// inputs (the DAG builder folds upstream fingerprints in
    /// Merkle-style on top of this).
    ///
    /// The default hashes the structural part of the descriptor: name,
    /// port count, blocking ports, language, and cost profile.
    /// For closure-carrying operators (UDFs) that is the whole
    /// observable spec — the Snakemake-style "rule name + config"
    /// approximation, under which an edit must change the operator's
    /// name or configuration to invalidate its cache entries.
    /// Declarative operators override this to hash their full
    /// parameters (predicates, key lists, scanned rows, ...).
    fn fingerprint(&self) -> OpFingerprint {
        spec_fingerprinter(self.descriptor()).finish()
    }
}

/// Deal `rows` round-robin over `workers` partitions: row `i` goes to
/// partition `i % workers`. The one deal every row source shares.
pub(crate) fn deal_round_robin(
    rows: impl IntoIterator<Item = Tuple>,
    workers: usize,
) -> Vec<Vec<Tuple>> {
    let workers = workers.max(1);
    let mut parts: Vec<Vec<Tuple>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, t) in rows.into_iter().enumerate() {
        parts[i % workers].push(t);
    }
    parts
}

/// A [`Fingerprinter`] primed with the spec fields every operator
/// descriptor carries: name, arity, blocking ports, language, and the
/// full cost profile (calibration-relevant config — perturbing a
/// calibrated constant must invalidate cached output computed under it).
///
/// Operator-specific [`OperatorFactory::fingerprint`] overrides start
/// from this and append their own parameters.
pub fn spec_fingerprinter(d: &OpDescriptor) -> Fingerprinter {
    let mut h = Fingerprinter::new("op");
    h.write_str(&d.name);
    h.write_usize(d.input_ports);
    h.write_usize(d.blocking_ports.len());
    for &p in &d.blocking_ports {
        h.write_usize(p);
    }
    h.write_str(&d.language.to_string());
    let c = &d.cost;
    h.write_u64(c.setup.as_micros());
    h.write_u64(c.per_tuple.as_micros());
    h.write_usize(c.per_tuple_ports.len());
    for (port, per_tuple) in &c.per_tuple_ports {
        h.write_usize(*port);
        h.write_u64(per_tuple.as_micros());
    }
    h.write_u64(c.per_batch.as_micros());
    h.write_bool(c.malleable);
    h.write_f64(c.malleable_utilization);
    h.write_bool(c.colocate);
    h.write_u64(c.warmup_extra.as_micros());
    h.write_u64(c.warmup_tuples);
    h.write_usize(c.warmup_port);
    h
}

/// Hash one data value into a fingerprint, type-tagged so `Int(1)` and
/// `Float(1.0)` (or `Str("1")`) never collide. Content-bearing
/// operators (scans) use this to make their fingerprints follow their
/// data.
pub fn fingerprint_value(h: &mut Fingerprinter, v: &Value) {
    match v {
        Value::Null => h.write_str("∅"),
        Value::Bool(b) => h.write_bool(*b),
        Value::Int(x) => h.write_i64(*x),
        Value::Float(x) => h.write_f64(*x),
        Value::Str(s) => h.write_str(s),
        Value::Bytes(b) => h.write_bytes(b),
        Value::List(vs) => {
            h.write_usize(vs.len());
            for v in vs {
                fingerprint_value(h, v);
            }
        }
    }
}

/// Hash one tuple (schema + every value) into a fingerprint.
pub fn fingerprint_tuple(h: &mut Fingerprinter, t: &Tuple) {
    for v in t.values() {
        fingerprint_value(h, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Value};

    #[test]
    fn collector_accumulates_and_drains() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let mut out = OutputCollector::new();
        assert!(out.is_empty());
        out.emit(Tuple::new(schema.clone(), vec![Value::Int(1)]).unwrap());
        out.emit_all(vec![
            Tuple::new(schema.clone(), vec![Value::Int(2)]).unwrap(),
            Tuple::new(schema, vec![Value::Int(3)]).unwrap(),
        ]);
        assert_eq!(out.len(), 3);
        let drained = out.take();
        assert_eq!(drained.len(), 3);
        assert!(out.is_empty());
    }

    #[test]
    fn collector_keeps_interleaved_row_and_columnar_emissions_in_order() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let row = |x: i64| Tuple::new(schema.clone(), vec![Value::Int(x)]).unwrap();
        let batch = |xs: &[i64]| {
            ColumnarBatch::from_tuples(
                schema.clone(),
                &xs.iter().map(|&x| row(x)).collect::<Vec<_>>(),
            )
        };
        let xs =
            |rows: &[Tuple]| -> Vec<i64> { rows.iter().map(|t| t.get_int("x").unwrap()).collect() };
        let mut out = OutputCollector::new();
        out.emit(row(1));
        out.emit_batch(batch(&[2, 3]));
        out.emit_batch(batch(&[]));
        let mark = out.len();
        assert_eq!(mark, 3);
        out.emit_all([row(4), row(5)]);
        out.emit_batch(batch(&[6]));
        out.emit(row(7));
        assert_eq!(out.len(), 7);
        assert!(!out.is_empty());
        // The executor's drain keeps the runs apart and the batches whole.
        let mut again = OutputCollector::new();
        again.emit(row(1));
        again.emit_batch(batch(&[2, 3]));
        again.emit(row(4));
        let runs: Vec<(bool, usize)> = again
            .drain_emitted()
            .map(|run| (matches!(run, Emitted::Columnar(_)), run.len()))
            .collect();
        assert_eq!(runs, [(false, 1), (true, 2), (false, 1)]);
        assert!(again.is_empty());
        assert_eq!(xs(&out.take()), [1, 2, 3, 4, 5, 6, 7]);
        assert!(out.is_empty() && out.take().is_empty());
        // A faulted quantum's partial output is dropped in both forms.
        out.emit(row(8));
        out.emit_batch(batch(&[9]));
        out.discard();
        assert!(out.is_empty() && out.take().is_empty());
    }

    #[test]
    fn error_display_names_operator() {
        let e = WorkflowError::OperatorFailed {
            operator: "Sentiment Analysis".into(),
            message: "model blew up".into(),
        };
        assert_eq!(
            e.to_string(),
            "operator `Sentiment Analysis` failed: model blew up"
        );
    }

    #[test]
    fn duplicate_operator_error_is_typed_and_descriptive() {
        let e = WorkflowError::DuplicateOperator {
            name: "scan".into(),
        };
        assert!(e.to_string().contains("duplicate operator name `scan`"));
        assert_ne!(e, WorkflowError::InvalidDag("duplicate".into()));
    }

    #[test]
    fn value_fingerprints_are_type_tagged() {
        let fp = |v: &Value| {
            let mut h = Fingerprinter::new("t");
            fingerprint_value(&mut h, v);
            h.finish()
        };
        assert_ne!(fp(&Value::Int(1)), fp(&Value::Float(1.0)));
        assert_ne!(fp(&Value::Int(1)), fp(&Value::Str("1".into())));
        assert_ne!(fp(&Value::Null), fp(&Value::Str(String::new())));
        assert_eq!(fp(&Value::Int(1)), fp(&Value::Int(1)));
    }

    #[test]
    fn from_data_wraps() {
        let e = WorkflowError::from_data(
            "Filter",
            DataError::UnknownColumn {
                column: "x".into(),
                schema: "a: Int".into(),
            },
        );
        assert!(e.to_string().contains("Filter"));
        assert!(e.to_string().contains("unknown column"));
    }
}
