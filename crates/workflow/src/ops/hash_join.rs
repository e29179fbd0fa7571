//! Hash join operator: build on port 0, probe on port 1. Under a memory
//! budget it degrades to a grace hash join over the compressed block
//! store, recursing on overflow partitions.

use std::collections::HashMap;
use std::sync::Arc;

use scriptflow_datakit::blockstore::Segment;
use scriptflow_datakit::{ColumnVec, ColumnarBatch, HashKey, Schema, SchemaRef, Tuple};
use scriptflow_simcluster::Language;

use scriptflow_core::fingerprint::OpFingerprint;

use crate::cost::CostProfile;
use crate::operator::{
    rows_through, spec_fingerprinter, OpDescriptor, Operator, OperatorFactory, OutputCollector,
    WorkflowError, WorkflowResult,
};
use crate::spill::{read_block, tuple_footprint, PartitionWriter, SPILL_FANOUT, SPILL_MAX_DEPTH};

use super::{resolve_columns, ResolvedColumns};

/// Inner hash join: port 0 (build) is consumed fully into an in-memory
/// hash table, then port 1 (probe) streams through. A null key matches a
/// null key, as `HashKey` equality has it (Texera's semantics).
///
/// This is the operator whose Python↔Scala swap drives Table I of the
/// paper. With parallelism > 1, both inputs must be hash-partitioned on
/// the join keys (or the build side broadcast).
pub struct HashJoinOp {
    desc: OpDescriptor,
    build_keys: Vec<String>,
    probe_keys: Vec<String>,
}

impl HashJoinOp {
    /// An inner join matching `probe_keys` (port 1) to `build_keys`
    /// (port 0).
    pub fn new(name: impl Into<String>, probe_keys: &[&str], build_keys: &[&str]) -> Self {
        assert_eq!(
            probe_keys.len(),
            build_keys.len(),
            "join key lists must have equal length"
        );
        assert!(!probe_keys.is_empty(), "join needs at least one key");
        HashJoinOp {
            desc: OpDescriptor {
                // The probe port waits for the build port.
                blocking_ports: vec![0],
                // Hash probe + tuple concat: ~3 µs per probe tuple in Python.
                cost: CostProfile::per_tuple_micros(3),
                batch_kernel: true,
                ..OpDescriptor::new(name, 2)
            },
            build_keys: build_keys.iter().map(|s| (*s).to_owned()).collect(),
            probe_keys: probe_keys.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Override the cost profile.
    pub fn with_cost(mut self, cost: CostProfile) -> Self {
        self.desc.cost = cost;
        self
    }

    /// Override the implementation language (the Table I knob).
    pub fn with_language(mut self, language: Language) -> Self {
        self.desc.language = language;
        self
    }
}

struct HashJoinInstance {
    name: String,
    build_keys: Vec<String>,
    probe_keys: Vec<String>,
    // The key columns' indices in the build and probe tuples.
    build_idx: ResolvedColumns,
    probe_idx: ResolvedColumns,
    table: HashMap<HashKey, Vec<Tuple>>,
    out_schema: Option<SchemaRef>,
    // The engine's memory budget for the build table; past it the join
    // goes grace: the table is hash-partitioned to the block store and
    // the join proceeds partition by partition, recursing on overflow
    // partitions.
    budget: Option<usize>,
    build_bytes: usize,
    spill: Option<JoinSpill>,
}

/// Partitioned spill state of a grace hash join. Lives in the operator
/// instance, so flushed blocks *and* not-yet-flushed buffers survive a
/// faulted run quantum and are never rebuilt from upstream on replay.
struct JoinSpill {
    build: Vec<PartitionWriter>,
    probe: Vec<PartitionWriter>,
    build_sealed: Vec<Segment>,
}

impl JoinSpill {
    fn new() -> JoinSpill {
        JoinSpill {
            build: (0..SPILL_FANOUT).map(|_| PartitionWriter::new()).collect(),
            probe: (0..SPILL_FANOUT).map(|_| PartitionWriter::new()).collect(),
            build_sealed: Vec::new(),
        }
    }
}

impl HashJoinInstance {
    /// `tuple`'s join key on `port`'s key columns (0 build, 1 probe),
    /// resolved once per schema.
    fn key_of(&mut self, port: usize, tuple: &Tuple) -> WorkflowResult<HashKey> {
        let (slot, names) = if port == 0 {
            (&mut self.build_idx, &self.build_keys)
        } else {
            (&mut self.probe_idx, &self.probe_keys)
        };
        resolve_columns(slot, tuple.schema(), names)
            .and_then(|indices| HashKey::from_tuple_indexed(tuple, indices))
            .map_err(|e| WorkflowError::from_data(&self.name, e))
    }

    /// Derive (once) the joined output schema from the probe side's and
    /// the build side's schema. With no build row there is nothing to
    /// emit, so the probe schema stands in.
    fn ensure_out_schema(
        &mut self,
        probe: &SchemaRef,
        build_schema: Option<&Schema>,
    ) -> WorkflowResult<SchemaRef> {
        if let Some(s) = &self.out_schema {
            return Ok(s.clone());
        }
        let joined = match build_schema {
            Some(bs) => probe
                .join(bs, "_r")
                .map_err(|e| WorkflowError::from_data(&self.name, e))?,
            None => (**probe).clone(),
        };
        let schema = Arc::new(joined);
        self.out_schema = Some(schema.clone());
        Ok(schema)
    }

    /// The joined schema of a probe against the in-memory table, derived
    /// lazily from the first probe input + any build tuple (the executor
    /// checked it at build time; this is the instance-local copy).
    fn table_out_schema(&mut self, probe: &SchemaRef) -> WorkflowResult<SchemaRef> {
        if let Some(s) = &self.out_schema {
            return Ok(s.clone());
        }
        let build_schema = self
            .table
            .values()
            .next()
            .and_then(|rows| rows.first())
            .map(|t| t.schema().clone());
        self.ensure_out_schema(probe, build_schema.as_deref())
    }

    /// Emit join output for one probe tuple against its key's matches.
    fn emit_probe(
        schema: &SchemaRef,
        tuple: &Tuple,
        matches: Option<&Vec<Tuple>>,
        out: &mut OutputCollector,
    ) {
        for m in matches.into_iter().flatten() {
            let values = tuple.values().iter().chain(m.values()).cloned();
            out.emit(Tuple::collect_unchecked(schema.clone(), values));
        }
    }

    /// Per-partition flush threshold: keep each partition's buffered
    /// remainder within its share of the budget.
    fn flush_at(&self) -> usize {
        self.budget
            .map_or(usize::MAX, |b| (b / SPILL_FANOUT).max(1))
    }

    /// The build table hit the budget: switch to grace mode by draining
    /// it hash-partitioned into the block store. Later build tuples go
    /// straight to their partition; probing is deferred to
    /// `on_port_complete(1)`.
    fn activate_spill(&mut self, out: &mut OutputCollector) {
        let mut spill = JoinSpill::new();
        let flush_at = self.flush_at();
        for (key, tuples) in std::mem::take(&mut self.table) {
            let p = key.bucket_salted(0, SPILL_FANOUT);
            for t in tuples {
                spill.build[p].push(t, flush_at, out);
            }
        }
        self.build_bytes = 0;
        self.spill = Some(spill);
    }

    /// Join one spilled partition pair. Decodes the build side into an
    /// in-memory table unless it still exceeds the budget, in which case
    /// both sides are repartitioned under a fresh salt and the join
    /// recurses (bounded by [`SPILL_MAX_DEPTH`]).
    fn join_partition(
        &mut self,
        build_seg: Segment,
        probe_seg: Segment,
        depth: u32,
        build_schema: Option<&Schema>,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if probe_seg.is_empty() {
            return Ok(());
        }
        // Overflow partition: repartition both sides under a fresh salt
        // and recurse, rather than building a table over budget.
        let over_budget = self
            .budget
            .is_some_and(|b| build_seg.manifest().raw_bytes as usize > b);
        if over_budget && depth < SPILL_MAX_DEPTH {
            let flush_at = self.flush_at();
            let mut sub_build: Vec<PartitionWriter> =
                (0..SPILL_FANOUT).map(|_| PartitionWriter::new()).collect();
            let mut sub_probe: Vec<PartitionWriter> =
                (0..SPILL_FANOUT).map(|_| PartitionWriter::new()).collect();
            let salt = u64::from(depth);
            for (port, seg, writers) in [
                (0, &build_seg, &mut sub_build),
                (1, &probe_seg, &mut sub_probe),
            ] {
                for block in seg.blocks() {
                    for t in read_block(block, &self.name, out)? {
                        let key = self.key_of(port, &t)?;
                        writers[key.bucket_salted(salt, SPILL_FANOUT)].push(t, flush_at, out);
                    }
                }
            }
            for (b, p) in sub_build.into_iter().zip(sub_probe) {
                self.join_partition(b.seal(out), p.seal(out), depth + 1, build_schema, out)?;
            }
            return Ok(());
        }

        // In-memory leg: decode the build partition into a local table,
        // then probe it with every probe block.
        let mut local: HashMap<HashKey, Vec<Tuple>> = HashMap::new();
        for block in build_seg.blocks() {
            for t in read_block(block, &self.name, out)? {
                local.entry(self.key_of(0, &t)?).or_default().push(t);
            }
        }
        for block in probe_seg.blocks() {
            for t in read_block(block, &self.name, out)? {
                let schema = self.ensure_out_schema(t.schema(), build_schema)?;
                let key = self.key_of(1, &t)?;
                Self::emit_probe(&schema, &t, local.get(&key), out);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoinInstance {
    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.budget = bytes;
    }

    fn on_tuple(
        &mut self,
        tuple: Tuple,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        match port {
            0 => {
                let key = self.key_of(0, &tuple)?;
                let flush_at = self.flush_at();
                if let Some(spill) = self.spill.as_mut() {
                    spill.build[key.bucket_salted(0, SPILL_FANOUT)].push(tuple, flush_at, out);
                    return Ok(());
                }
                self.build_bytes += tuple_footprint(&tuple);
                self.table.entry(key).or_default().push(tuple);
                if self.budget.is_some_and(|b| self.build_bytes > b) {
                    self.activate_spill(out);
                }
                Ok(())
            }
            1 => {
                let key = self.key_of(1, &tuple)?;
                let flush_at = self.flush_at();
                if let Some(spill) = self.spill.as_mut() {
                    // Grace mode: probing is deferred until the probe port
                    // completes and partitions join pairwise.
                    spill.probe[key.bucket_salted(0, SPILL_FANOUT)].push(tuple, flush_at, out);
                    return Ok(());
                }
                let schema = self.table_out_schema(tuple.schema())?;
                Self::emit_probe(&schema, &tuple, self.table.get(&key), out);
                Ok(())
            }
            other => Err(WorkflowError::OperatorFailed {
                operator: self.name.clone(),
                message: format!("join has ports 0 and 1, got {other}"),
            }),
        }
    }

    fn on_port_complete(&mut self, port: usize, out: &mut OutputCollector) -> WorkflowResult<()> {
        let Some(mut spill) = self.spill.take() else {
            return Ok(());
        };
        match port {
            0 => {
                // Seal the build partitions under their manifests; probe
                // tuples keep streaming into probe partitions.
                spill.build_sealed = spill.build.drain(..).map(|w| w.seal(out)).collect();
                self.spill = Some(spill);
            }
            1 => {
                let builds = std::mem::take(&mut spill.build_sealed);
                let probes: Vec<Segment> = spill.probe.drain(..).map(|w| w.seal(out)).collect();
                // The first partition that holds a build row names the
                // build schema for every partition's output.
                let build_schema: Option<Schema> = builds
                    .iter()
                    .find_map(|s| s.blocks().first())
                    .map(|b| (**b.schema()).clone());
                for (b, p) in builds.into_iter().zip(probes) {
                    self.join_partition(b, p, 1, build_schema.as_ref(), out)?;
                }
            }
            _ => self.spill = Some(spill),
        }
        Ok(())
    }

    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if port == 0 && self.budget.is_some() {
            // Budgeted build: the row path tracks byte accounting and the
            // spill switch per tuple; the columnar fast path would bypass
            // both.
            return rows_through(self, batch, port, out);
        }
        // The kernels read one key column; composite keys take the row
        // path, and so does a port the join does not have (to its error).
        let keys = if port == 0 {
            &self.build_keys
        } else {
            &self.probe_keys
        };
        let ([key], 0 | 1) = (&keys[..], port) else {
            return rows_through(self, batch, port, out);
        };
        let idx = batch
            .schema()
            .index_of(key)
            .map_err(|e| WorkflowError::from_data(&self.name, e))?;
        if port == 0 {
            return self.build_batch(batch, idx);
        }
        if self.spill.is_some() {
            // Grace mode: the build table is on disk and probing is
            // deferred, partition by partition.
            return rows_through(self, batch, port, out);
        }
        self.probe_batch(batch, idx, out)
    }
}

impl HashJoinInstance {
    /// The build kernel: key every row straight off column `idx` into the
    /// one build table `on_tuple` fills.
    fn build_batch(&mut self, batch: &ColumnarBatch, idx: usize) -> WorkflowResult<()> {
        let col = batch.column(idx);
        // One scratch key for every row: a string key's buffer is reused,
        // and only a key the table has not seen is cloned into it.
        let mut key = HashKey::Null;
        for i in 0..batch.len() {
            col.key_at(i)
                .map_err(|e| WorkflowError::from_data(&self.name, e))?
                .write_to(&mut key);
            let row = batch.tuple_at(i);
            match self.table.get_mut(&key) {
                Some(rows) => rows.push(row),
                None => {
                    self.table.insert(key.clone(), vec![row]);
                }
            }
        }
        Ok(())
    }

    /// The probe kernel: look every row's key up off column `idx`, collect
    /// the `(probe row, matched build row)` pairs in probe-then-match
    /// order — the order [`HashJoinInstance::emit_probe`] emits in — and
    /// emit them as one sealed batch: probe columns gathered, build
    /// columns built from the matched rows' cells.
    fn probe_batch(
        &mut self,
        batch: &ColumnarBatch,
        idx: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let schema = self.table_out_schema(batch.schema())?;
        let wrap = |e| WorkflowError::from_data(&self.name, e);
        let col = batch.column(idx);
        let mut key = HashKey::Null;
        let mut probe_rows: Vec<u32> = Vec::with_capacity(batch.len());
        let mut build_rows: Vec<&Tuple> = Vec::with_capacity(batch.len());
        for i in 0..batch.len() {
            col.key_at(i).map_err(wrap)?.write_to(&mut key);
            if let Some(matches) = self.table.get(&key) {
                probe_rows.extend(std::iter::repeat_n(i as u32, matches.len()));
                build_rows.extend(matches);
            }
        }
        if probe_rows.is_empty() {
            return Ok(());
        }
        let probe_arity = batch.schema().arity();
        let mut columns: Vec<ColumnVec> = (0..probe_arity)
            .map(|j| batch.column(j).take(&probe_rows))
            .collect();
        for (j, field) in schema.fields()[probe_arity..].iter().enumerate() {
            let cells = build_rows.iter().map(|t| t.at(j));
            columns.push(ColumnVec::from_cells(field.dtype(), cells));
        }
        out.emit_batch(ColumnarBatch::from_columns(schema, columns).map_err(wrap)?);
        Ok(())
    }
}

impl OperatorFactory for HashJoinOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        let build = &inputs[0];
        let probe = &inputs[1];
        for (cols, schema, side) in [
            (&self.build_keys, build, "build"),
            (&self.probe_keys, probe, "probe"),
        ] {
            for c in cols {
                schema.index_of(c).map_err(|e| WorkflowError::SchemaError {
                    operator: format!("{} ({side} side)", self.desc.name),
                    error: e,
                })?;
            }
        }
        probe
            .join(build, "_r")
            .map_err(|e| WorkflowError::SchemaError {
                operator: self.desc.name.clone(),
                error: e,
            })
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(HashJoinInstance {
            name: self.desc.name.clone(),
            build_keys: self.build_keys.clone(),
            probe_keys: self.probe_keys.clone(),
            build_idx: None,
            probe_idx: None,
            table: HashMap::new(),
            out_schema: None,
            budget: None,
            build_bytes: 0,
            spill: None,
        })
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        h.write_usize(self.build_keys.len());
        for k in &self.build_keys {
            h.write_str(k);
        }
        for k in &self.probe_keys {
            h.write_str(k);
        }
        // Fixed bytes: a fingerprint is an on-disk cache key and must not move.
        h.write_str("Inner");
        h.write_str("unbounded");
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Emitted;
    use scriptflow_datakit::{DataType, Value};

    fn build_tuple(k: i64, tag: &str) -> Tuple {
        Tuple::new(
            Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]),
            vec![Value::Int(k), Value::Str(tag.into())],
        )
        .unwrap()
    }

    fn probe_tuple(id: i64, k: i64) -> Tuple {
        Tuple::new(
            Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]),
            vec![Value::Int(id), Value::Int(k)],
        )
        .unwrap()
    }

    fn run_join() -> Vec<Tuple> {
        let j = HashJoinOp::new("j", &["k"], &["k"]);
        let mut inst = j.create();
        let mut out = OutputCollector::new();
        for (k, tag) in [(1, "a"), (2, "b"), (1, "c")] {
            inst.on_tuple(build_tuple(k, tag), 0, &mut out).unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        for (id, k) in [(10, 1), (20, 2), (30, 9)] {
            inst.on_tuple(probe_tuple(id, k), 1, &mut out).unwrap();
        }
        inst.on_port_complete(1, &mut out).unwrap();
        out.take()
    }

    #[test]
    fn inner_join_matches() {
        let rows = run_join();
        // probe k=1 matches two build rows, k=2 one, k=9 none.
        assert_eq!(rows.len(), 3);
        let tags: Vec<&str> = rows.iter().map(|t| t.get_str("tag").unwrap()).collect();
        assert!(tags.contains(&"a") && tags.contains(&"b") && tags.contains(&"c"));
    }

    use scriptflow_datakit::ColumnarBatch;

    fn build_cb(pairs: &[(i64, &str)]) -> ColumnarBatch {
        ColumnarBatch::from_rows(
            Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]),
            pairs
                .iter()
                .map(|(k, t)| vec![Value::Int(*k), Value::Str((*t).into())])
                .collect(),
        )
        .unwrap()
    }

    fn probe_cb(pairs: &[(i64, i64)]) -> ColumnarBatch {
        ColumnarBatch::from_rows(
            Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]),
            pairs
                .iter()
                .map(|(id, k)| vec![Value::Int(*id), Value::Int(*k)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn columnar_build_and_probe_match_row_path() {
        let j = HashJoinOp::new("j", &["k"], &["k"]);
        let mut inst = j.create();
        let mut out = OutputCollector::new();
        inst.on_batch(&build_cb(&[(1, "a"), (2, "b"), (1, "c")]), 0, &mut out)
            .unwrap();
        inst.on_port_complete(0, &mut out).unwrap();
        inst.on_batch(&probe_cb(&[(10, 1), (20, 2), (30, 9)]), 1, &mut out)
            .unwrap();
        let mut rows: Vec<String> = out.take().iter().map(|t| t.to_string()).collect();
        rows.sort_unstable();
        let mut expect: Vec<String> = run_join().iter().map(|t| t.to_string()).collect();
        expect.sort_unstable();
        assert_eq!(rows, expect);
    }

    /// A build batch `(key, tag)` and a probe batch `(id, key)` over keys
    /// of type `dtype`.
    fn keyed(dtype: DataType, build: &[Value], probe: &[Value]) -> (ColumnarBatch, ColumnarBatch) {
        let rows = |schema: SchemaRef, rows| ColumnarBatch::from_rows(schema, rows).unwrap();
        let tagged = build.iter().enumerate();
        let numbered = probe.iter().enumerate();
        (
            rows(
                Schema::of(&[("k", dtype), ("tag", DataType::Str)]),
                tagged
                    .map(|(i, k)| vec![k.clone(), Value::Str(format!("b{i}"))])
                    .collect(),
            ),
            rows(
                Schema::of(&[("id", DataType::Int), ("k", dtype)]),
                numbered
                    .map(|(i, k)| vec![Value::Int(i as i64), k.clone()])
                    .collect(),
            ),
        )
    }

    /// Drive one join instance on `k` through `on_batch` and a twin
    /// through `on_tuple`, both under `budget`, over the same build batch
    /// and probe batches, and check that they emit the same rows in the
    /// same order. Returns those rows rendered and how many sealed batches
    /// the kernel instance emitted.
    fn kernel_against_rows(
        budget: Option<usize>,
        build: &ColumnarBatch,
        probes: &[ColumnarBatch],
    ) -> (Vec<String>, usize) {
        let op = HashJoinOp::new("j", &["k"], &["k"]);
        let (mut kernel, mut by_row) = (op.create(), op.create());
        kernel.set_memory_budget(budget);
        by_row.set_memory_budget(budget);
        let (mut out, mut row_out) = (OutputCollector::new(), OutputCollector::new());
        kernel.on_batch(build, 0, &mut out).unwrap();
        for t in build.to_tuples() {
            by_row.on_tuple(t, 0, &mut row_out).unwrap();
        }
        kernel.on_port_complete(0, &mut out).unwrap();
        by_row.on_port_complete(0, &mut row_out).unwrap();
        for probe in probes {
            kernel.on_batch(probe, 1, &mut out).unwrap();
            for t in probe.to_tuples() {
                by_row.on_tuple(t, 1, &mut row_out).unwrap();
            }
        }
        kernel.on_port_complete(1, &mut out).unwrap();
        by_row.on_port_complete(1, &mut row_out).unwrap();
        let render = |rows: Vec<Tuple>| rows.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>();
        let (mut sealed, mut rows) = (0, Vec::new());
        for run in out.drain_emitted() {
            sealed += usize::from(matches!(run, Emitted::Columnar(_)));
            rows.extend(render(run.into_rows()));
        }
        assert_eq!(rows, render(row_out.take()));
        (rows, sealed)
    }

    fn sorted(mut rows: Vec<String>) -> Vec<String> {
        rows.sort_unstable();
        rows
    }

    #[test]
    fn probe_kernel_emits_the_row_paths_rows_in_order() {
        let int = |k: i64| Value::Int(k);
        // Several matches per key, a null build key (matches null probe
        // keys: Texera's null == null), misses, and a second probe batch.
        let (build, probe) = keyed(
            DataType::Int,
            &[int(1), int(2), Value::Null, int(1), int(2), int(1)],
            &[int(2), int(9), Value::Null, int(1), Value::Null, int(7)],
        );
        let (_, more) = keyed(DataType::Int, &[], &[int(1), int(8)]);
        let (rows, sealed) = kernel_against_rows(None, &build, &[probe, more]);
        assert_eq!(rows.len(), 10);
        assert_eq!(sealed, 2, "one sealed batch per probe batch");
    }

    #[test]
    fn probe_kernel_reads_str_float_and_bool_keys() {
        let text = |s: &str| Value::Str(s.into());
        let cases = [
            (
                DataType::Str,
                vec![text("a"), text(""), text("é"), text("a"), Value::Null],
                vec![text("é"), text("a"), text("zz"), text(""), Value::Null],
                5,
            ),
            (
                // -0.0 meets 0.0 and every NaN meets every NaN, as
                // `HashKey` folds them.
                DataType::Float,
                vec![Value::Float(0.0), Value::Float(f64::NAN), Value::Float(1.5)],
                vec![
                    Value::Float(-0.0),
                    Value::Float(-f64::NAN),
                    Value::Float(2.5),
                    Value::Float(1.5),
                ],
                3,
            ),
            (
                DataType::Bool,
                vec![Value::Bool(true), Value::Bool(true), Value::Null],
                vec![Value::Bool(false), Value::Bool(true), Value::Null],
                3,
            ),
        ];
        for (dtype, build, probe, matched) in cases {
            let (build, probe) = keyed(dtype, &build, &probe);
            let (rows, sealed) = kernel_against_rows(None, &build, &[probe]);
            assert_eq!((rows.len(), sealed), (matched, 1), "{dtype}");
        }
    }

    #[test]
    fn probe_kernel_emits_nothing_for_an_empty_build_side_or_an_all_miss_batch() {
        let int = |k: i64| Value::Int(k);
        let (none, probe) = keyed(DataType::Int, &[], &[int(1), Value::Null]);
        assert_eq!(kernel_against_rows(None, &none, &[probe]).1, 0);

        let float = |x: f64| Value::Float(x);
        let (build, misses) = keyed(
            DataType::Float,
            &[float(1.0), float(f64::NAN)],
            &[float(5.0), float(6.0)],
        );
        let (rows, sealed) = kernel_against_rows(None, &build, &[misses]);
        assert_eq!((rows.len(), sealed), (0, 0));
    }

    #[test]
    fn probe_kernel_keeps_the_grace_fallback() {
        let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        let build_keys: Vec<i64> = (0..60).map(|i| i % 13).collect();
        let (build, near) = keyed(DataType::Int, &ints(&build_keys), &ints(&[3, 12, 40, 3]));
        let (_, far) = keyed(DataType::Int, &[], &ints(&[50, 60]));
        // In memory: each matching probe batch leaves as one sealed batch.
        let probes = [far, near];
        let (rows, sealed) = kernel_against_rows(None, &build, &probes);
        assert_eq!(sealed, 1);
        // A probe batch arriving after the build spilled falls back to
        // the deferred row path: the same rows, none of them sealed.
        let (spilled_rows, sealed) = kernel_against_rows(Some(256), &build, &probes);
        assert_eq!(sealed, 0);
        assert_eq!(sorted(spilled_rows), sorted(rows));
    }

    #[test]
    fn grace_join_matches_null_keys_like_the_in_memory_join() {
        // A null key matches every null key, in the spilled partitions
        // as in the table.
        let keys: Vec<Value> = (0..60)
            .map(|i| match i % 4 {
                0 => Value::Null,
                _ => Value::Int(i % 13),
            })
            .collect();
        let (build, probe) = keyed(DataType::Int, &keys, &keys[..20]);
        let expected: usize = keys[..20]
            .iter()
            .map(|p| keys.iter().filter(|b| *b == p).count())
            .sum();
        let (in_memory, _) = kernel_against_rows(None, &build, std::slice::from_ref(&probe));
        assert_eq!(in_memory.len(), expected);
        let (graced, sealed) = kernel_against_rows(Some(256), &build, &[probe]);
        assert_eq!(sealed, 0, "the build side spilled");
        assert_eq!(sorted(graced), sorted(in_memory));
    }

    fn run_join_budgeted(budget: usize, n: i64) -> (Vec<Tuple>, u64) {
        let mut inst = HashJoinOp::new("j", &["k"], &["k"]).create();
        inst.set_memory_budget(Some(budget));
        let mut out = OutputCollector::new();
        for i in 0..n {
            inst.on_tuple(build_tuple(i % 13, &format!("b{i}")), 0, &mut out)
                .unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        for i in 0..n {
            inst.on_tuple(probe_tuple(i, i % 17), 1, &mut out).unwrap();
        }
        inst.on_port_complete(1, &mut out).unwrap();
        (out.take(), out.spilled_blocks())
    }

    fn sorted_strings(rows: &[Tuple]) -> Vec<String> {
        let mut v: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn grace_join_matches_in_memory_join() {
        let (in_mem, spilled_blocks) = run_join_budgeted(1 << 30, 120);
        assert_eq!(spilled_blocks, 0, "huge budget must not spill");
        let (graced, spilled) = run_join_budgeted(256, 120);
        assert!(spilled > 0, "256-byte budget must spill the build table");
        assert_eq!(sorted_strings(&graced), sorted_strings(&in_mem));
    }

    #[test]
    fn overflow_partitions_recurse_and_still_match() {
        // A budget small enough that every partition also overflows,
        // forcing at least one recursive repartitioning round.
        let (in_mem, _) = run_join_budgeted(1 << 30, 300);
        let (graced, spilled) = run_join_budgeted(64, 300);
        assert!(spilled > SPILL_FANOUT as u64);
        assert_eq!(sorted_strings(&graced), sorted_strings(&in_mem));
    }

    #[test]
    fn engine_budget_reaches_join_unless_overridden() {
        let j = HashJoinOp::new("j", &["k"], &["k"]);
        let mut inst = j.create();
        inst.set_memory_budget(Some(128));
        let mut out = OutputCollector::new();
        for i in 0..60 {
            inst.on_tuple(build_tuple(i, "b"), 0, &mut out).unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        assert!(out.spilled_blocks() > 0);
    }

    #[test]
    fn output_schema_renames_duplicates() {
        let j = HashJoinOp::new("j", &["k"], &["k"]);
        let build = Schema::of(&[("k", DataType::Int), ("tag", DataType::Str)]);
        let probe = Schema::of(&[("id", DataType::Int), ("k", DataType::Int)]);
        let s = j.output_schema(&[build, probe]).unwrap();
        assert_eq!(s.to_string(), "id: Int, k: Int, k_r: Int, tag: Str");
    }

    #[test]
    fn output_schema_validates_keys() {
        let j = HashJoinOp::new("j", &["nope"], &["k"]);
        let build = Schema::of(&[("k", DataType::Int)]);
        let probe = Schema::of(&[("id", DataType::Int)]);
        assert!(j.output_schema(&[build, probe]).is_err());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_key_lists_panic() {
        HashJoinOp::new("j", &["a", "b"], &["k"]);
    }
}
