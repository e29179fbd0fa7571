//! Workflow DAG construction and validation.
//!
//! This is the GUI paradigm's defining structure: users *must* connect
//! operators with explicit links that represent the flow of data
//! (§III-A). The builder rejects malformed graphs and propagates schemas
//! along edges at build time, so data-shape errors surface before any
//! tuple moves — in contrast to the notebook engine, which discovers them
//! mid-run inside a cell.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use scriptflow_core::fingerprint::{Fingerprinter, OpFingerprint};
use scriptflow_datakit::SchemaRef;

use crate::operator::{OpDescriptor, OperatorFactory, WorkflowError, WorkflowResult};
use crate::partition::{CompiledPartitioner, PartitionStrategy};

/// Identifier of an operator node within one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// Identifier of an edge within one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// One operator node: a factory plus its configured parallelism.
#[derive(Clone)]
pub struct OpNode {
    /// Factory creating worker instances and describing the operator.
    pub factory: Arc<dyn OperatorFactory>,
    /// Number of worker instances (Texera's per-operator worker count).
    pub parallelism: usize,
}

impl OpNode {
    /// The operator's plain-data description: what every reader of the
    /// DAG — validation, the executors, the cache planner, the GUI —
    /// looks at instead of asking the factory fact by fact.
    pub fn desc(&self) -> &OpDescriptor {
        self.factory.descriptor()
    }
}

/// One edge: `from`'s output feeds `to`'s input port `to_port`.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producing operator.
    pub from: OpId,
    /// Consuming operator.
    pub to: OpId,
    /// Input port on the consumer.
    pub to_port: usize,
    /// How tuples are spread over the consumer's workers.
    pub partition: PartitionStrategy,
}

/// A validated workflow: operators, edges, propagated schemas,
/// per-node content fingerprints, and a topological order.
///
/// `Clone` is shallow (factories are shared `Arc`s): the service layer
/// clones workflows to re-plan cache-enabled submissions at dispatch
/// time. A clone carries the fingerprints if they were already asked for.
#[derive(Clone)]
pub struct Workflow {
    ops: Vec<OpNode>,
    edges: Vec<Edge>,
    schemas: Vec<SchemaRef>,
    partitioners: Vec<CompiledPartitioner>,
    topo: Vec<OpId>,
    /// Folded on first use: only a result cache reads them, and a scan's
    /// digest hashes every row it holds.
    fingerprints: OnceLock<Vec<OpFingerprint>>,
    expected_eos: Vec<Vec<usize>>,
}

impl std::fmt::Debug for Workflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workflow")
            .field(
                "ops",
                &self
                    .ops
                    .iter()
                    .map(|n| format!("{} x{}", n.desc().name, n.parallelism))
                    .collect::<Vec<_>>(),
            )
            .field("edges", &self.edges.len())
            .finish()
    }
}

impl Workflow {
    /// All operator nodes, indexed by [`OpId`].
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// One operator node.
    pub fn op(&self, id: OpId) -> &OpNode {
        &self.ops[id.0]
    }

    /// All edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The propagated output schema of an operator.
    pub fn schema(&self, id: OpId) -> &SchemaRef {
        &self.schemas[id.0]
    }

    /// The partitioner compiled for an edge at build time: hash columns
    /// already resolved to indices against the producer's output schema,
    /// so executors route tuples with no per-tuple name lookups.
    pub fn partitioner(&self, id: EdgeId) -> &CompiledPartitioner {
        &self.partitioners[id.0]
    }

    /// Operators in a valid execution order.
    pub fn topo_order(&self) -> &[OpId] {
        &self.topo
    }

    /// Edges entering `op`, sorted by input port.
    pub fn in_edges(&self, op: OpId) -> Vec<(EdgeId, &Edge)> {
        let mut v: Vec<(EdgeId, &Edge)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.to == op)
            .map(|(i, e)| (EdgeId(i), e))
            .collect();
        v.sort_by_key(|(_, e)| e.to_port);
        v
    }

    /// Edges leaving `op`.
    pub fn out_edges(&self, op: OpId) -> Vec<(EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.from == op)
            .map(|(i, e)| (EdgeId(i), e))
            .collect()
    }

    /// Source operators (no input ports).
    pub fn sources(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .map(OpId)
            .filter(|id| self.op(*id).desc().input_ports == 0)
            .collect()
    }

    /// Sink operators (no outgoing edges).
    pub fn sinks(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .map(OpId)
            .filter(|id| self.out_edges(*id).is_empty())
            .collect()
    }

    /// Number of operators — the paper's "number of operators" metric.
    pub fn operator_count(&self) -> usize {
        self.ops.len()
    }

    /// Total worker instances across operators — the paper's "number of
    /// parallel processes" metric for the workflow paradigm.
    pub fn total_workers(&self) -> usize {
        self.ops.iter().map(|n| n.parallelism).sum()
    }

    /// Look up an operator id by display name.
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        (0..self.ops.len())
            .map(OpId)
            .find(|id| self.op(*id).desc().name == name)
    }

    /// The Merkle fingerprint of one operator: its spec digest folded
    /// with the fingerprints of everything upstream (plus the routing
    /// that feeds it). Equal fingerprints across workflows mean the
    /// node computes the same output multiset — the result cache's key.
    pub fn fingerprint(&self, id: OpId) -> OpFingerprint {
        self.fingerprints()[id.0]
    }

    /// End-of-stream markers each input port of `op` waits for before it
    /// is complete: the parallelism of the operator feeding that port,
    /// one entry per port (none for a source). The one DAG-derived fact
    /// every executor seeds its workers with.
    pub fn expected_eos(&self, op: OpId) -> &[usize] {
        &self.expected_eos[op.0]
    }

    /// All node fingerprints, indexed by [`OpId`]. The first call on a
    /// workflow (or on the workflow it was cloned from) computes them,
    /// asking each factory for its spec digest once.
    pub fn fingerprints(&self) -> &[OpFingerprint] {
        self.fingerprints.get_or_init(|| self.fold_fingerprints())
    }

    /// A single fingerprint for the whole workflow: the unordered fold
    /// of every node fingerprint. The service layer uses it to detect
    /// concurrent identical submissions (single-flight).
    pub fn workflow_fingerprint(&self) -> OpFingerprint {
        OpFingerprint::fold_unordered(self.fingerprints().iter().copied())
    }

    /// Merkle fingerprints, in topological order: each node's spec
    /// digest folded with the fingerprints of its inputs. Parallelism
    /// and edge routing are part of the digest — per-worker-stateful
    /// operators (distinct, join) can produce different multisets
    /// under different partitionings, so a cache must treat those as
    /// different computations. Commutative operators (union) fold
    /// their inputs order-independently: rewiring equivalent inputs
    /// onto different ports is not an edit.
    fn fold_fingerprints(&self) -> Vec<OpFingerprint> {
        let mut fingerprints = vec![OpFingerprint::ZERO; self.ops.len()];
        for &op in &self.topo {
            let node = self.op(op);
            let mut h = Fingerprinter::new("node");
            h.write_fingerprint(node.factory.fingerprint());
            h.write_usize(node.parallelism);
            let ins = self.in_edges(op);
            if node.desc().commutative_inputs {
                let folded = OpFingerprint::fold_unordered(ins.iter().map(|(_, e)| {
                    let mut link = Fingerprinter::new("link");
                    link.write_fingerprint(fingerprints[e.from.0]);
                    link.write_str(&e.partition.label());
                    link.finish()
                }));
                h.write_fingerprint(folded);
            } else {
                for (_, e) in &ins {
                    h.write_usize(e.to_port);
                    h.write_fingerprint(fingerprints[e.from.0]);
                    h.write_str(&e.partition.label());
                }
            }
            fingerprints[op.0] = h.finish();
        }
        fingerprints
    }
}

/// Incremental workflow construction.
#[derive(Default)]
pub struct WorkflowBuilder {
    ops: Vec<OpNode>,
    edges: Vec<Edge>,
}

impl WorkflowBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        WorkflowBuilder::default()
    }

    /// Add an operator with the given parallelism; returns its id.
    pub fn add(&mut self, factory: Arc<dyn OperatorFactory>, parallelism: usize) -> OpId {
        assert!(parallelism > 0, "parallelism must be positive");
        let id = OpId(self.ops.len());
        self.ops.push(OpNode {
            factory,
            parallelism,
        });
        id
    }

    /// Connect `from`'s output to `to`'s input port `to_port`.
    pub fn connect(
        &mut self,
        from: OpId,
        to: OpId,
        to_port: usize,
        partition: PartitionStrategy,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            from,
            to,
            to_port,
            partition,
        });
        id
    }

    /// Validate the graph and propagate schemas; returns the immutable
    /// workflow or the first structural error found.
    pub fn build(self) -> WorkflowResult<Workflow> {
        let n = self.ops.len();
        if n == 0 {
            return Err(WorkflowError::InvalidDag(
                "workflow has no operators".into(),
            ));
        }

        // Unique operator names (the GUI addresses operators by name,
        // and names participate in fingerprints): typed rejection.
        let mut names = HashSet::new();
        for node in &self.ops {
            let name = &node.desc().name;
            if !names.insert(name.as_str()) {
                return Err(WorkflowError::DuplicateOperator { name: name.clone() });
            }
        }

        // Edge endpoints and ports must exist; each input port gets
        // exactly one incoming edge; sources take none.
        for e in &self.edges {
            if e.from.0 >= n || e.to.0 >= n {
                return Err(WorkflowError::InvalidDag(format!(
                    "edge references missing operator ({:?} -> {:?})",
                    e.from, e.to
                )));
            }
            let to = self.ops[e.to.0].desc();
            if e.to_port >= to.input_ports {
                return Err(WorkflowError::InvalidDag(format!(
                    "operator `{}` has {} input port(s); edge targets port {}",
                    to.name, to.input_ports, e.to_port
                )));
            }
        }
        for (i, node) in self.ops.iter().enumerate() {
            let desc = node.desc();
            let ports = desc.input_ports;
            for port in 0..ports {
                let count = self
                    .edges
                    .iter()
                    .filter(|e| e.to == OpId(i) && e.to_port == port)
                    .count();
                if count != 1 {
                    return Err(WorkflowError::InvalidDag(format!(
                        "operator `{}` input port {port} has {count} incoming edges (need exactly 1)",
                        desc.name
                    )));
                }
            }
            if ports == 0 {
                if self.edges.iter().any(|e| e.to == OpId(i)) {
                    return Err(WorkflowError::InvalidDag(format!(
                        "source operator `{}` cannot take inputs",
                        desc.name
                    )));
                }
                if !desc.source {
                    return Err(WorkflowError::InvalidDag(format!(
                        "operator `{}` has no input ports but produces no source data",
                        desc.name
                    )));
                }
            }
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        // Deterministic order: process lowest id first.
        queue.sort_unstable();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo.push(OpId(u));
            let mut next: Vec<usize> = Vec::new();
            for e in &self.edges {
                if e.from.0 == u {
                    indegree[e.to.0] -= 1;
                    if indegree[e.to.0] == 0 {
                        next.push(e.to.0);
                    }
                }
            }
            next.sort_unstable();
            queue.extend(next);
        }
        if topo.len() != n {
            return Err(WorkflowError::InvalidDag(
                "workflow contains a cycle".into(),
            ));
        }

        // Schema propagation in topological order.
        let mut schemas: Vec<Option<SchemaRef>> = vec![None; n];
        for &op in &topo {
            let node = &self.ops[op.0];
            let ports = node.desc().input_ports;
            let mut inputs: Vec<SchemaRef> = Vec::with_capacity(ports);
            for port in 0..ports {
                let e = self
                    .edges
                    .iter()
                    .find(|e| e.to == op && e.to_port == port)
                    .expect("validated above");
                inputs.push(
                    schemas[e.from.0]
                        .clone()
                        .expect("topological order guarantees upstream schema"),
                );
            }
            let out = node.factory.output_schema(&inputs)?;
            schemas[op.0] = Some(Arc::new(out));
        }

        let schemas: Vec<SchemaRef> = schemas.into_iter().map(|s| s.expect("all set")).collect();

        // Compile partitioners against the producer's propagated schema so
        // unknown hash columns are a build error, not a mid-run one, and
        // executors route without name resolution.
        let mut partitioners = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let compiled = e.partition.compile(&schemas[e.from.0]).map_err(|err| {
                WorkflowError::InvalidDag(format!(
                    "edge `{}` -> `{}` port {}: cannot partition by {}: {err}",
                    self.ops[e.from.0].desc().name,
                    self.ops[e.to.0].desc().name,
                    e.to_port,
                    e.partition.label(),
                ))
            })?;
            partitioners.push(compiled);
        }

        // What each input port waits for: one end-of-stream marker per
        // worker of the operator feeding it (validated above: exactly one
        // edge per port).
        let mut expected_eos: Vec<Vec<usize>> = self
            .ops
            .iter()
            .map(|n| vec![0; n.desc().input_ports])
            .collect();
        for e in &self.edges {
            expected_eos[e.to.0][e.to_port] = self.ops[e.from.0].parallelism;
        }

        Ok(Workflow {
            ops: self.ops,
            edges: self.edges,
            schemas,
            partitioners,
            topo,
            fingerprints: OnceLock::new(),
            expected_eos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{FilterOp, ScanOp, SinkOp};
    use scriptflow_datakit::{Batch, DataType, Schema, Value};

    fn scan(name: &str, n: i64) -> Arc<dyn OperatorFactory> {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let rows = (0..n).map(|i| vec![Value::Int(i)]).collect();
        Arc::new(ScanOp::new(name, Batch::from_rows(schema, rows).unwrap()))
    }

    fn filter(name: &str) -> Arc<dyn OperatorFactory> {
        Arc::new(FilterOp::new(name, |t| {
            Ok(t.get_int("id").map(|v| v % 2 == 0).unwrap_or(false))
        }))
    }

    #[test]
    fn linear_workflow_builds() {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("scan", 10), 1);
        let f = b.add(filter("filter"), 2);
        let k = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(s, f, 0, PartitionStrategy::RoundRobin);
        b.connect(f, k, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        assert_eq!(wf.operator_count(), 3);
        assert_eq!(wf.total_workers(), 4);
        assert_eq!(wf.topo_order(), &[s, f, k]);
        assert_eq!(wf.sources(), vec![s]);
        assert_eq!(wf.sinks(), vec![k]);
        assert_eq!(wf.schema(f).to_string(), "id: Int");
        assert_eq!(wf.op_by_name("filter"), Some(f));
        assert_eq!(wf.op_by_name("nope"), None);
    }

    #[test]
    fn compiles_edge_partitioners_at_build_time() {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("scan", 10), 1);
        let f = b.add(filter("filter"), 2);
        let k = b.add(Arc::new(SinkOp::new("sink")), 1);
        let e0 = b.connect(s, f, 0, PartitionStrategy::Hash(vec!["id".into()]));
        let e1 = b.connect(f, k, 0, PartitionStrategy::Broadcast);
        let wf = b.build().unwrap();
        assert_eq!(
            wf.partitioner(e0),
            &CompiledPartitioner::Hash { indices: vec![0] }
        );
        assert!(wf.partitioner(e1).is_broadcast());
    }

    #[test]
    fn rejects_unknown_hash_column_at_build_time() {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("scan", 10), 1);
        let f = b.add(filter("filter"), 2);
        b.connect(s, f, 0, PartitionStrategy::Hash(vec!["missing".into()]));
        let err = b.build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("hash(missing)"), "{msg}");
        assert!(matches!(err, WorkflowError::InvalidDag(_)));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            WorkflowBuilder::new().build(),
            Err(WorkflowError::InvalidDag(_))
        ));
    }

    #[test]
    fn rejects_duplicate_names_with_typed_error() {
        let mut b = WorkflowBuilder::new();
        b.add(scan("x", 1), 1);
        b.add(scan("x", 1), 1);
        let err = b.build().unwrap_err();
        assert_eq!(err, WorkflowError::DuplicateOperator { name: "x".into() });
        assert!(err.to_string().contains("duplicate operator name"));
    }

    fn linear_fingerprints(n: i64, parallelism: usize) -> Vec<OpFingerprint> {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("scan", n), 1);
        let f = b.add(filter("filter"), parallelism);
        let k = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(s, f, 0, PartitionStrategy::RoundRobin);
        b.connect(f, k, 0, PartitionStrategy::Single);
        b.build().unwrap().fingerprints().to_vec()
    }

    #[test]
    fn fingerprints_are_stable_across_builds() {
        assert_eq!(linear_fingerprints(10, 2), linear_fingerprints(10, 2));
    }

    #[test]
    fn upstream_edit_propagates_merkle_style() {
        let a = linear_fingerprints(10, 2);
        let b = linear_fingerprints(11, 2);
        // The scan's content changed, so every node downstream of it
        // (i.e. all of them) carries a new fingerprint.
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn parallelism_is_part_of_the_fingerprint() {
        let a = linear_fingerprints(10, 2);
        let b = linear_fingerprints(10, 3);
        assert_eq!(a[0], b[0], "the scan itself is unchanged");
        assert_ne!(a[1], b[1], "the filter's worker count changed");
        assert_ne!(a[2], b[2], "the sink consumes a different plan");
    }

    #[test]
    fn workflow_clone_is_shallow_and_fingerprint_stable() {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("scan", 5), 1);
        let k = b.add(Arc::new(SinkOp::new("sink")), 1);
        b.connect(s, k, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        let c = wf.clone();
        assert_eq!(wf.workflow_fingerprint(), c.workflow_fingerprint());
        assert!(Arc::ptr_eq(&wf.op(OpId(0)).factory, &c.op(OpId(0)).factory));
    }

    #[test]
    fn rejects_unconnected_port() {
        let mut b = WorkflowBuilder::new();
        b.add(scan("s", 1), 1);
        b.add(filter("f"), 1); // port 0 never connected
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("0 incoming edges"));
    }

    #[test]
    fn rejects_double_connected_port() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.add(scan("s1", 1), 1);
        let s2 = b.add(scan("s2", 1), 1);
        let f = b.add(filter("f"), 1);
        b.connect(s1, f, 0, PartitionStrategy::RoundRobin);
        b.connect(s2, f, 0, PartitionStrategy::RoundRobin);
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("2 incoming edges"));
    }

    #[test]
    fn rejects_bad_port_index() {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("s", 1), 1);
        let f = b.add(filter("f"), 1);
        b.connect(s, f, 5, PartitionStrategy::RoundRobin);
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("port 5"));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = WorkflowBuilder::new();
        let f1 = b.add(filter("f1"), 1);
        let f2 = b.add(filter("f2"), 1);
        b.connect(f1, f2, 0, PartitionStrategy::RoundRobin);
        b.connect(f2, f1, 0, PartitionStrategy::RoundRobin);
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn rejects_edge_into_source() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.add(scan("s1", 1), 1);
        let s2 = b.add(scan("s2", 1), 1);
        b.connect(s1, s2, 0, PartitionStrategy::RoundRobin);
        assert!(b.build().is_err());
    }

    #[test]
    fn fan_out_is_allowed() {
        let mut b = WorkflowBuilder::new();
        let s = b.add(scan("s", 4), 1);
        let f1 = b.add(filter("f1"), 1);
        let f2 = b.add(filter("f2"), 1);
        let k1 = b.add(Arc::new(SinkOp::new("k1")), 1);
        let k2 = b.add(Arc::new(SinkOp::new("k2")), 1);
        b.connect(s, f1, 0, PartitionStrategy::RoundRobin);
        b.connect(s, f2, 0, PartitionStrategy::RoundRobin);
        b.connect(f1, k1, 0, PartitionStrategy::Single);
        b.connect(f2, k2, 0, PartitionStrategy::Single);
        let wf = b.build().unwrap();
        assert_eq!(wf.out_edges(s).len(), 2);
        assert_eq!(wf.sinks().len(), 2);
    }
}
