//! Hash join operator: build on port 0, probe on port 1. Under a memory
//! budget it degrades to a grace hash join over the compressed block
//! store, recursing on overflow partitions.

use std::collections::HashMap;
use std::sync::Arc;

use scriptflow_datakit::blockstore::Segment;
use scriptflow_datakit::column::cmp_values;
use scriptflow_datakit::{ColumnVec, ColumnarBatch, HashKey, Schema, SchemaRef, Tuple, Value};
use scriptflow_simcluster::Language;

use scriptflow_core::fingerprint::OpFingerprint;

use crate::cost::CostProfile;
use crate::operator::{
    rows_through, spec_fingerprinter, OpDescriptor, Operator, OperatorFactory, OutputCollector,
    WorkflowError, WorkflowResult,
};
use crate::spill::{read_block, tuple_footprint, PartitionWriter, SPILL_FANOUT, SPILL_MAX_DEPTH};

use super::{resolve_columns, ResolvedColumns};

/// Join semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit only matching pairs.
    Inner,
    /// Emit every probe tuple; unmatched build columns become null.
    LeftOuter,
}

/// Hash join: port 0 (build) is consumed fully into an in-memory hash
/// table, then port 1 (probe) streams through.
///
/// This is the operator whose Python↔Scala swap drives Table I of the
/// paper. With parallelism > 1, both inputs must be hash-partitioned on
/// the join keys (or the build side broadcast).
pub struct HashJoinOp {
    desc: OpDescriptor,
    build_keys: Vec<String>,
    probe_keys: Vec<String>,
    join_type: JoinType,
    memory_budget: Option<usize>,
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
            join_type: JoinType::Inner,
            memory_budget: None,
        }
    }

    /// Change the join semantics.
    pub fn with_join_type(mut self, join_type: JoinType) -> Self {
        self.join_type = join_type;
        self
    }

    /// Per-operator memory budget override: once the build table exceeds
    /// `bytes` it is hash-partitioned to the block store and the join
    /// proceeds grace-style, partition by partition, recursing on
    /// overflow partitions. Takes precedence over the engine-level
    /// [`crate::EngineConfig::memory_budget`].
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
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
    join_type: JoinType,
    table: HashMap<HashKey, Vec<Tuple>>,
    out_schema: Option<SchemaRef>,
    // Min/max of the build-side key column (single-key joins only),
    // folded in while the hash table builds. Probe batches whose key
    // zone map misses this range entirely are pruned (inner joins: a
    // disjoint range proves zero matches).
    build_key_range: BuildKeyRange,
    // A null build key matches null probe keys (Texera's semantics), so
    // probe batches containing null keys must not be pruned when one
    // exists — the min/max range only covers non-null keys.
    build_has_null_key: bool,
    // Memory budget for the build table; past it the join goes grace.
    budget: Option<usize>,
    budget_fixed: bool,
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

/// Running build-side key range. `Poisoned` is sticky: once an
/// unorderable key (NaN, heterogeneous types) is seen, pruning stays off
/// for the rest of the run — a later clean value must not resurrect a
/// range that silently forgot the poisoned one.
#[derive(Debug, Clone, PartialEq)]
enum BuildKeyRange {
    Empty,
    Range(Value, Value),
    Poisoned,
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

    /// Fold one build-side key value into the running min/max.
    fn widen_build_range(&mut self, v: &Value) {
        if v.is_null() {
            self.build_has_null_key = true;
            return;
        }
        match &mut self.build_key_range {
            BuildKeyRange::Poisoned => {}
            BuildKeyRange::Empty => {
                self.build_key_range = BuildKeyRange::Range(v.clone(), v.clone());
            }
            BuildKeyRange::Range(min, max) => match (cmp_values(v, min), cmp_values(v, max)) {
                (Some(lo), Some(hi)) => {
                    if lo == std::cmp::Ordering::Less {
                        *min = v.clone();
                    }
                    if hi == std::cmp::Ordering::Greater {
                        *max = v.clone();
                    }
                }
                _ => self.build_key_range = BuildKeyRange::Poisoned,
            },
        }
    }

    /// True when the probe batch's key range cannot intersect the build
    /// side's: `probe_max < build_min || probe_min > build_max`.
    fn probe_batch_disjoint(&self, batch: &ColumnarBatch, key_idx: usize) -> bool {
        let BuildKeyRange::Range(build_min, build_max) = &self.build_key_range else {
            return false;
        };
        let stats = batch.column_stats(key_idx);
        if self.build_has_null_key && stats.null_count > 0 {
            return false;
        }
        let (Some(probe_min), Some(probe_max)) = (&stats.min, &stats.max) else {
            return false;
        };
        matches!(
            cmp_values(probe_max, build_min),
            Some(std::cmp::Ordering::Less)
        ) || matches!(
            cmp_values(probe_min, build_max),
            Some(std::cmp::Ordering::Greater)
        )
    }

    /// Derive (once) the joined output schema from the probe side's and
    /// the build side's schema, falling back to the probe schema when the
    /// build side is empty (nulls are only padded for LeftOuter anyway).
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
        join_type: JoinType,
        tuple: &Tuple,
        matches: Option<&Vec<Tuple>>,
        out: &mut OutputCollector,
    ) {
        match matches {
            Some(matches) => {
                for m in matches {
                    let values = tuple.values().iter().chain(m.values()).cloned();
                    out.emit(Tuple::collect_unchecked(schema.clone(), values));
                }
            }
            None if join_type == JoinType::LeftOuter => {
                let nulls = std::iter::repeat_n(Value::Null, schema.arity() - tuple.values().len());
                let values = tuple.values().iter().cloned().chain(nulls);
                out.emit(Tuple::collect_unchecked(schema.clone(), values));
            }
            None => {}
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
                Self::emit_probe(&schema, self.join_type, &t, local.get(&key), out);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoinInstance {
    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        if !self.budget_fixed {
            self.budget = bytes;
        }
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
                if let Some((_, indices)) = &self.build_idx {
                    if let [only] = indices[..] {
                        let v = tuple.at(only).clone();
                        self.widen_build_range(&v);
                    }
                }
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
                Self::emit_probe(&schema, self.join_type, &tuple, self.table.get(&key), out);
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
                // The build schema is global to the join; per-partition
                // derivation would mis-pad LeftOuter rows whose build
                // partition happens to be empty.
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
        if self.join_type == JoinType::Inner && self.probe_batch_disjoint(batch, idx) {
            // Build-side zone map proves zero matches in this batch.
            out.note_batch_skipped();
            return Ok(());
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
    /// The build kernel: fold the batch's key range from the key column's
    /// statistics and key every row straight off column `idx` into the one build
    /// table `on_tuple` fills.
    fn build_batch(&mut self, batch: &ColumnarBatch, idx: usize) -> WorkflowResult<()> {
        // One comparison pair per batch instead of one per build row.
        let stats = batch.column_stats(idx);
        if stats.null_count > 0 {
            self.build_has_null_key = true;
        }
        let non_null = batch.len() as u64 - stats.null_count;
        match (&stats.min, &stats.max) {
            (Some(min), Some(max)) => {
                self.widen_build_range(min);
                self.widen_build_range(max);
            }
            // Valid rows without an orderable range (NaN, Mixed):
            // pruning would be unsound from here on.
            _ if non_null > 0 => self.build_key_range = BuildKeyRange::Poisoned,
            _ => {}
        }
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
    /// columns built from the matched rows' cells, null where a
    /// `LeftOuter` probe row found no match.
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
        let mut build_rows: Vec<Option<&Tuple>> = Vec::with_capacity(batch.len());
        for i in 0..batch.len() {
            col.key_at(i).map_err(wrap)?.write_to(&mut key);
            match self.table.get(&key) {
                Some(matches) => {
                    probe_rows.extend(std::iter::repeat_n(i as u32, matches.len()));
                    build_rows.extend(matches.iter().map(Some));
                }
                None if self.join_type == JoinType::LeftOuter => {
                    probe_rows.push(i as u32);
                    build_rows.push(None);
                }
                None => {}
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
            let cells = build_rows
                .iter()
                .map(|m| m.map_or(&Value::Null, |t| t.at(j)));
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
            join_type: self.join_type,
            table: HashMap::new(),
            out_schema: None,
            build_key_range: BuildKeyRange::Empty,
            build_has_null_key: false,
            budget: self.memory_budget,
            budget_fixed: self.memory_budget.is_some(),
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
        h.write_str(&format!("{:?}", self.join_type));
        match self.memory_budget {
            Some(b) => h.write_usize(b),
            None => h.write_str("unbounded"),
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Emitted;
    use scriptflow_datakit::DataType;

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

    fn run_join(join_type: JoinType) -> Vec<Tuple> {
        let j = HashJoinOp::new("j", &["k"], &["k"]).with_join_type(join_type);
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
        let rows = run_join(JoinType::Inner);
        // probe k=1 matches two build rows, k=2 one, k=9 none.
        assert_eq!(rows.len(), 3);
        let tags: Vec<&str> = rows.iter().map(|t| t.get_str("tag").unwrap()).collect();
        assert!(tags.contains(&"a") && tags.contains(&"b") && tags.contains(&"c"));
    }

    #[test]
    fn left_outer_pads_nulls() {
        let rows = run_join(JoinType::LeftOuter);
        assert_eq!(rows.len(), 4);
        let unmatched: Vec<&Tuple> = rows
            .iter()
            .filter(|t| t.get_int("id").unwrap() == 30)
            .collect();
        assert_eq!(unmatched.len(), 1);
        assert!(unmatched[0].get("tag").unwrap().is_null());
        assert!(unmatched[0].get("k_r").unwrap().is_null());
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
        let mut expect: Vec<String> = run_join(JoinType::Inner)
            .iter()
            .map(|t| t.to_string())
            .collect();
        expect.sort_unstable();
        assert_eq!(rows, expect);
    }

    #[test]
    fn disjoint_probe_batch_is_pruned() {
        let j = HashJoinOp::new("j", &["k"], &["k"]);
        let mut inst = j.create();
        let mut out = OutputCollector::new();
        // Build keys span [1, 2].
        inst.on_batch(&build_cb(&[(1, "a"), (2, "b")]), 0, &mut out)
            .unwrap();
        inst.on_port_complete(0, &mut out).unwrap();
        // Probe keys span [50, 60]: disjoint, skipped whole.
        inst.on_batch(&probe_cb(&[(1, 50), (2, 60)]), 1, &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(out.batches_skipped(), 1);
        // Overlapping batch still probes.
        inst.on_batch(&probe_cb(&[(3, 2), (4, 40)]), 1, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.batches_skipped(), 1);
    }

    #[test]
    fn left_outer_never_prunes() {
        let j = HashJoinOp::new("j", &["k"], &["k"]).with_join_type(JoinType::LeftOuter);
        let mut inst = j.create();
        let mut out = OutputCollector::new();
        inst.on_batch(&build_cb(&[(1, "a")]), 0, &mut out).unwrap();
        inst.on_port_complete(0, &mut out).unwrap();
        inst.on_batch(&probe_cb(&[(9, 50)]), 1, &mut out).unwrap();
        // The unmatched probe row must still surface, null-padded.
        assert_eq!(out.len(), 1);
        assert_eq!(out.batches_skipped(), 0);
    }

    #[test]
    fn row_built_table_still_prunes_probe_batches() {
        // Build via on_tuple (row path), probe via on_batch: the range
        // must have been tracked on the row path too.
        let j = HashJoinOp::new("j", &["k"], &["k"]);
        let mut inst = j.create();
        let mut out = OutputCollector::new();
        for (k, tag) in [(5, "a"), (7, "b")] {
            inst.on_tuple(build_tuple(k, tag), 0, &mut out).unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        inst.on_batch(&probe_cb(&[(1, 100), (2, 200)]), 1, &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(out.batches_skipped(), 1);
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

    /// Drive one instance of `op` through `on_batch` and a twin through
    /// `on_tuple` over the same build batch and probe batches, and check
    /// that they emit the same rows in the same order. Returns those rows
    /// rendered, how many sealed batches the kernel instance emitted, and
    /// how many probe batches it pruned.
    fn kernel_against_rows(
        op: &HashJoinOp,
        build: &ColumnarBatch,
        probes: &[ColumnarBatch],
    ) -> (Vec<String>, usize, u64) {
        let (mut kernel, mut by_row) = (op.create(), op.create());
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
        let skipped = out.batches_skipped();
        let (mut sealed, mut rows) = (0, Vec::new());
        for run in out.drain_emitted() {
            sealed += usize::from(matches!(run, Emitted::Columnar(_)));
            rows.extend(render(run.into_rows()));
        }
        assert_eq!(rows, render(row_out.take()));
        (rows, sealed, skipped)
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
        for (join_type, matched) in [(JoinType::Inner, 10), (JoinType::LeftOuter, 13)] {
            let op = HashJoinOp::new("j", &["k"], &["k"]).with_join_type(join_type);
            let (rows, sealed, _) =
                kernel_against_rows(&op, &build, &[probe.clone(), more.clone()]);
            assert_eq!(rows.len(), matched, "{join_type:?}");
            assert_eq!(sealed, 2, "{join_type:?}: one sealed batch per probe batch");
            if join_type == JoinType::LeftOuter {
                // A miss is null-padded on the build side.
                assert!(rows[2].contains("Int(9), Null, Null"), "{}", rows[2]);
            }
        }
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
            for join_type in [JoinType::Inner, JoinType::LeftOuter] {
                let op = HashJoinOp::new("j", &["k"], &["k"]).with_join_type(join_type);
                let (rows, sealed, _) =
                    kernel_against_rows(&op, &build, std::slice::from_ref(&probe));
                // Each probe side holds one key the build side lacks.
                let outer = usize::from(join_type == JoinType::LeftOuter);
                assert_eq!(rows.len(), matched + outer, "{dtype} {join_type:?}");
                assert_eq!(sealed, 1, "{dtype} {join_type:?}");
            }
        }
    }

    #[test]
    fn probe_kernel_emits_nothing_for_an_empty_build_side_or_an_all_miss_batch() {
        let int = |k: i64| Value::Int(k);
        // NaN on the build side poisons its key range, so the all-miss
        // batch below reaches the kernel rather than the zone map.
        let (none, probe) = keyed(DataType::Int, &[], &[int(1), Value::Null]);
        let inner = HashJoinOp::new("j", &["k"], &["k"]);
        let outer = HashJoinOp::new("j", &["k"], &["k"]).with_join_type(JoinType::LeftOuter);
        assert_eq!(
            kernel_against_rows(&inner, &none, std::slice::from_ref(&probe)).1,
            0
        );
        // With nothing to pad from, a left-outer row is the probe row.
        let (rows, sealed, _) = kernel_against_rows(&outer, &none, &[probe]);
        assert_eq!((rows.len(), sealed), (2, 1));

        let float = |x: f64| Value::Float(x);
        let (build, misses) = keyed(
            DataType::Float,
            &[float(1.0), float(f64::NAN)],
            &[float(5.0), float(6.0)],
        );
        let (rows, sealed, skipped) = kernel_against_rows(&inner, &build, &[misses]);
        assert_eq!((rows.len(), sealed, skipped), (0, 0, 0));
    }

    #[test]
    fn probe_kernel_keeps_the_zone_map_and_the_grace_fallback() {
        let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        let build_keys: Vec<i64> = (0..60).map(|i| i % 13).collect();
        let (build, near) = keyed(DataType::Int, &ints(&build_keys), &ints(&[3, 12, 40, 3]));
        let (_, far) = keyed(DataType::Int, &[], &ints(&[50, 60]));
        // In memory: the disjoint batch is pruned and counted, the other
        // leaves as one sealed batch.
        let op = HashJoinOp::new("j", &["k"], &["k"]);
        let (rows, sealed, skipped) =
            kernel_against_rows(&op, &build, &[far.clone(), near.clone()]);
        assert_eq!((sealed, skipped), (1, 1));
        // A probe batch arriving after the build spilled falls back to
        // the deferred row path: the same rows, none of them sealed.
        let graced = HashJoinOp::new("j", &["k"], &["k"]).with_memory_budget(256);
        let (spilled_rows, sealed, skipped) = kernel_against_rows(&graced, &build, &[far, near]);
        // The build range is kept in grace mode too, so the disjoint batch
        // is still pruned on arrival; the partition-wise join then decodes
        // and probes every spilled block, and skips none.
        assert_eq!((sealed, skipped), (0, 1));
        let sorted = |mut rows: Vec<String>| {
            rows.sort_unstable();
            rows
        };
        assert_eq!(sorted(spilled_rows), sorted(rows));
    }

    fn run_join_budgeted(join_type: JoinType, budget: usize, n: i64) -> (Vec<Tuple>, u64, u64) {
        let j = HashJoinOp::new("j", &["k"], &["k"])
            .with_join_type(join_type)
            .with_memory_budget(budget);
        let mut inst = j.create();
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
        let counted = out.take_counters();
        (out.take(), counted.spilled_blocks, counted.batches_skipped)
    }

    fn sorted_strings(rows: &[Tuple]) -> Vec<String> {
        let mut v: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn grace_join_matches_in_memory_join() {
        for join_type in [JoinType::Inner, JoinType::LeftOuter] {
            let (in_mem, spilled_blocks, _) = run_join_budgeted(join_type, 1 << 30, 120);
            assert_eq!(spilled_blocks, 0, "huge budget must not spill");
            let (graced, spilled, _) = run_join_budgeted(join_type, 256, 120);
            assert!(spilled > 0, "256-byte budget must spill the build table");
            assert_eq!(sorted_strings(&graced), sorted_strings(&in_mem));
        }
    }

    #[test]
    fn overflow_partitions_recurse_and_still_match() {
        // A budget small enough that every partition also overflows,
        // forcing at least one recursive repartitioning round.
        let (in_mem, _, _) = run_join_budgeted(JoinType::Inner, 1 << 30, 300);
        let (graced, spilled, _) = run_join_budgeted(JoinType::Inner, 64, 300);
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

        let fixed = HashJoinOp::new("j", &["k"], &["k"]).with_memory_budget(1 << 30);
        let mut inst = fixed.create();
        inst.set_memory_budget(Some(128));
        let mut out = OutputCollector::new();
        for i in 0..60 {
            inst.on_tuple(build_tuple(i, "b"), 0, &mut out).unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        assert_eq!(
            out.spilled_blocks(),
            0,
            "override must shadow engine budget"
        );
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
