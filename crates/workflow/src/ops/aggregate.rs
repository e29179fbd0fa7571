//! Grouped aggregation operator. Under a memory budget, group state
//! spills to the block store as sealed batches of partial aggregates and
//! partitions merge at completion.

use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use scriptflow_datakit::blockstore::Segment;
use scriptflow_datakit::{
    Bitmap, ColumnVec, ColumnarBatch, DataResult, DataType, Field, HashKey, KeyRef, Schema,
    SchemaRef, Tuple, Value,
};
use scriptflow_simcluster::Language;

use scriptflow_core::fingerprint::OpFingerprint;

use crate::cost::CostProfile;
use crate::operator::{
    spec_fingerprinter, OpDescriptor, Operator, OperatorFactory, OutputCollector, WorkflowError,
    WorkflowResult,
};
use crate::spill::{PartitionWriter, SPILL_FANOUT};

use super::{resolve_columns, ResolvedColumns};

/// One aggregation over a column.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFn {
    /// Row count (column-independent), output column named by the string.
    Count(String),
    /// Sum of a numeric column; output `sum_<col>`.
    Sum(String),
    /// Mean of a numeric column; output `avg_<col>`.
    Avg(String),
    /// Minimum of a numeric column; output `min_<col>`.
    Min(String),
    /// Maximum of a numeric column; output `max_<col>`.
    Max(String),
}

impl AggFn {
    fn output_field(&self) -> Field {
        match self {
            AggFn::Count(name) => Field::new(name.clone(), DataType::Int),
            AggFn::Sum(c) => Field::new(format!("sum_{c}"), DataType::Float),
            AggFn::Avg(c) => Field::new(format!("avg_{c}"), DataType::Float),
            AggFn::Min(c) => Field::new(format!("min_{c}"), DataType::Float),
            AggFn::Max(c) => Field::new(format!("max_{c}"), DataType::Float),
        }
    }

    fn input_column(&self) -> Option<&str> {
        match self {
            AggFn::Count(_) => None,
            AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) => Some(c),
        }
    }
}

/// Running state of one aggregation within one group.
#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, x: Option<f64>) {
        self.count += 1;
        if let Some(x) = x {
            self.sum += x;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }

    /// Fold in the state of the same group over other rows.
    fn merge(&mut self, partial: &AggState) {
        self.count += partial.count;
        self.sum += partial.sum;
        self.min = self.min.min(partial.min);
        self.max = self.max.max(partial.max);
    }

    fn finish(&self, agg: &AggFn) -> Value {
        match agg {
            AggFn::Count(_) => Value::Int(self.count as i64),
            AggFn::Sum(_) => Value::Float(self.sum),
            AggFn::Avg(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFn::Min(_) => {
                if self.min.is_finite() {
                    Value::Float(self.min)
                } else {
                    Value::Null
                }
            }
            AggFn::Max(_) => {
                if self.max.is_finite() {
                    Value::Float(self.max)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Group-by + aggregations; emits one tuple per group when its input
/// completes (a blocking operator).
///
/// With parallelism > 1, the input edge must hash-partition on the group
/// columns so each group lands wholly on one worker.
pub struct AggregateOp {
    desc: OpDescriptor,
    group_by: Vec<String>,
    aggs: Vec<AggFn>,
}

impl AggregateOp {
    /// Aggregate `aggs` grouped by `group_by` (may be empty for a global
    /// aggregate).
    pub fn new(name: impl Into<String>, group_by: &[&str], aggs: Vec<AggFn>) -> Self {
        assert!(!aggs.is_empty(), "aggregate needs at least one aggregation");
        AggregateOp {
            desc: OpDescriptor {
                blocking_ports: vec![0],
                cost: CostProfile::per_tuple_micros(2),
                batch_kernel: true,
                ..OpDescriptor::new(name, 1)
            },
            group_by: group_by.iter().map(|s| (*s).to_owned()).collect(),
            aggs,
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

// Spill state: partial aggregates hash-partitioned by group key, one
// sealed batch per partition and flush. Each partial row is the group's
// representative values followed by (count, sum, min, max) for every
// aggregation, so partials merge losslessly regardless of how many
// flushes a group was split across.
struct AggSpill {
    partial_schema: SchemaRef,
    parts: Vec<PartitionWriter>,
}

/// The group table, one per instance, serving `on_tuple`, `on_batch`
/// and the spill merge: groups in first-seen order — the output order —
/// under an open-addressed index keyed by a hash of the key *cells*
/// ([`KeyRef`]: `-0.0 == 0.0`, all NaNs equal, null equals null), so a
/// lookup builds no key and a new group costs its representative values
/// only.
struct GroupTable {
    /// Aggregations per group.
    aggs: usize,
    /// Each group's key values as first seen.
    reps: Vec<Vec<Value>>,
    /// `aggs` running states per group, group-major.
    states: Vec<AggState>,
    /// Each group's key hash, kept for growing the index.
    hashes: Vec<u64>,
    /// Group id + 1 per slot, 0 for an empty one; a power of two long and
    /// at most half full.
    slots: Vec<u32>,
    /// Keys come from the data: the hash stays seeded per table.
    hasher: RandomState,
    /// In-memory footprint of the groups held, what a budget compares.
    bytes: usize,
}

impl GroupTable {
    fn new(aggs: usize) -> GroupTable {
        GroupTable {
            aggs,
            reps: Vec::new(),
            states: Vec::new(),
            hashes: Vec::new(),
            slots: vec![0; 16],
            hasher: RandomState::new(),
            bytes: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// `hash`, a row's key hash so far, with one more key cell folded in.
    fn fold(&self, hash: u64, cell: KeyRef<'_>) -> u64 {
        (hash.rotate_left(5) ^ self.hasher.hash_one(cell)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The group whose key hashes to `hash` and satisfies `same`, added
    /// with the key values `rep` builds if this is its first row.
    fn find_or_insert(
        &mut self,
        hash: u64,
        same: impl Fn(&[Value]) -> bool,
        rep: impl FnOnce() -> Vec<Value>,
    ) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while let Some(g) = (self.slots[at] as usize).checked_sub(1) {
            if self.hashes[g] == hash && same(&self.reps[g]) {
                return g;
            }
            at = (at + 1) & mask;
        }
        let g = self.reps.len();
        let rep = rep();
        // Per-group footprint: the representative values' stable wire
        // size plus the fixed per-group bookkeeping (agg states, index
        // entry). Updates to existing groups don't grow state.
        self.bytes += rep.iter().map(Value::encoded_len).sum::<usize>() + 32 * self.aggs + 48;
        self.reps.push(rep);
        self.hashes.push(hash);
        self.states
            .extend(std::iter::repeat_with(AggState::new).take(self.aggs));
        self.slots[at] = u32::try_from(g + 1).expect("fewer than 2^32 groups in memory");
        if self.reps.len() * 2 > self.slots.len() {
            self.grow();
        }
        g
    }

    /// Double the index and re-seat every group by its kept hash.
    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        self.slots = vec![0; mask + 1];
        for (g, hash) in self.hashes.iter().enumerate() {
            let mut at = *hash as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = g as u32 + 1;
        }
    }

    /// The group of a row given as its key values (none for a global
    /// aggregate). Allocates only for a group's first row.
    fn group_of<'a>(
        &mut self,
        cells: impl Iterator<Item = &'a Value> + Clone,
    ) -> DataResult<usize> {
        let mut hash = 0;
        for v in cells.clone() {
            hash = self.fold(hash, KeyRef::of(v)?);
        }
        Ok(self.find_or_insert(
            hash,
            |rep| {
                let same = |(r, v)| KeyRef::of(r) == KeyRef::of(v);
                rep.iter().zip(cells.clone()).all(same)
            },
            || cells.clone().cloned().collect(),
        ))
    }

    /// The key hash of every row of a batch, keys read off the typed
    /// `columns` a column at a time.
    fn hashes(&self, columns: &[&ColumnVec], rows: usize) -> DataResult<Vec<u64>> {
        let mut hashes = vec![0u64; rows];
        for col in columns {
            for (i, hash) in hashes.iter_mut().enumerate() {
                *hash = self.fold(*hash, col.key_at(i)?);
            }
        }
        Ok(hashes)
    }

    /// The group of row `i` of a batch whose keys are `columns`, given
    /// the row's `hash`.
    fn group_at(&mut self, columns: &[&ColumnVec], i: usize, hash: u64) -> u32 {
        let cell = |(col, v): (&&ColumnVec, &Value)| col.key_at(i) == KeyRef::of(v);
        self.find_or_insert(
            hash,
            |rep| columns.iter().zip(rep).all(cell),
            || columns.iter().map(|col| col.value_at(i)).collect(),
        ) as u32
    }

    /// The group of every row of a batch, resolved row by row so groups
    /// are numbered in first-seen order.
    fn groups_of(&mut self, columns: &[&ColumnVec], rows: usize) -> DataResult<Vec<u32>> {
        let hashes = self.hashes(columns, rows)?;
        let group = |(i, hash)| self.group_at(columns, i, hash);
        Ok(hashes.into_iter().enumerate().map(group).collect())
    }

    /// Group `g`'s states, one per aggregation.
    fn states_mut(&mut self, g: usize) -> &mut [AggState] {
        &mut self.states[g * self.aggs..][..self.aggs]
    }

    /// Fold rows `start..` of one input column into aggregation `agg`
    /// of each row's group (`groups[k]` is row `start + k`'s), a single
    /// monomorphic pass in row order — each state accumulates exactly as
    /// `update` called per row would. `None` is an aggregation that reads
    /// no column (`Count`).
    fn update_column(&mut self, agg: usize, start: usize, groups: &[u32], col: Option<&ColumnVec>) {
        let aggs = self.aggs;
        let rows = start..start + groups.len();
        let mut update = |k: usize, x: Option<f64>| {
            self.states[groups[k] as usize * aggs + agg].update(x);
        };
        match col {
            Some(ColumnVec::Float { data, validity }) => {
                for (k, &x) in data[rows].iter().enumerate() {
                    update(k, validity.is_valid(start + k).then_some(x));
                }
            }
            Some(ColumnVec::Int { data, validity }) => {
                for (k, &x) in data[rows].iter().enumerate() {
                    update(k, validity.is_valid(start + k).then_some(x as f64));
                }
            }
            // Non-numeric columns contribute rows to `count` only, the
            // same as `Value::as_float() == None` on the row path.
            _ => (0..groups.len()).for_each(|k| update(k, None)),
        }
    }

    /// Fold the partial states of a spilled batch — aggregation `agg`'s
    /// `(count, sum, min, max)` columns — into each row's group.
    fn merge_columns(&mut self, agg: usize, groups: &[u32], partials: [&ColumnVec; 4]) {
        let [count, sum, min, max] = partials;
        for (i, &g) in groups.iter().enumerate() {
            let partial = AggState {
                count: count.value_at(i).as_int().unwrap_or(0).max(0) as u64,
                sum: sum.value_at(i).as_float().unwrap_or(0.0),
                min: min.value_at(i).as_float().unwrap_or(f64::INFINITY),
                max: max.value_at(i).as_float().unwrap_or(f64::NEG_INFINITY),
            };
            self.states[g as usize * self.aggs + agg].merge(&partial);
        }
    }

    /// Groups `groups`' partial aggregates under `schema` (the key
    /// columns, then `count`, `sum`, `min`, `max` per aggregation): the
    /// batch `ColumnarBatch::from_tuples` builds of their partial rows.
    fn partials(&self, schema: &SchemaRef, groups: &[u32]) -> DataResult<ColumnarBatch> {
        let keys = schema.arity() - 4 * self.aggs;
        let fields = &schema.fields()[..keys];
        let mut columns: Vec<ColumnVec> = (fields.iter().enumerate())
            .map(|(j, f)| {
                let cells = groups.iter().map(|&g| &self.reps[g as usize][j]);
                ColumnVec::from_cells(f.dtype(), cells)
            })
            .collect();
        let valid = || Bitmap::all_valid(groups.len());
        for agg in 0..self.aggs {
            let state = |g: u32| &self.states[g as usize * self.aggs + agg];
            let count = groups.iter().map(|&g| state(g).count as i64);
            columns.push(ColumnVec::Int {
                data: count.collect(),
                validity: valid(),
            });
            let fields: [fn(&AggState) -> f64; 3] = [|s| s.sum, |s| s.min, |s| s.max];
            for field in fields {
                columns.push(ColumnVec::Float {
                    data: groups.iter().map(|&g| field(state(g))).collect(),
                    validity: valid(),
                });
            }
        }
        ColumnarBatch::from_columns(schema.clone(), columns)
    }

    /// Every group's key values and states, in first-seen order.
    fn iter(&self) -> impl Iterator<Item = (&[Value], &[AggState])> {
        let reps = self.reps.iter().map(Vec::as_slice);
        reps.zip(self.states.chunks(self.aggs))
    }

    /// Forget every group (the index keeps its size).
    fn clear(&mut self) {
        self.reps.clear();
        self.states.clear();
        self.hashes.clear();
        self.slots.fill(0);
        self.bytes = 0;
    }
}

struct AggregateInstance {
    name: String,
    group_by: Vec<String>,
    aggs: Vec<AggFn>,
    // Derived from the first input tuple's schema (blocking operators
    // see data before they emit, so this is always available in time).
    out_schema: Option<SchemaRef>,
    groups: GroupTable,
    // The engine's memory budget: once group state exceeds it, groups
    // are flushed to the block store as hash-partitioned partial-aggregate
    // rows (count/sum/min/max per aggregation) and merged partition-wise
    // at completion.
    budget: Option<usize>,
    spill: Option<AggSpill>,
    // The group columns' indices in the input tuples, and those of
    // `inputs`: the input column of every aggregation that reads one, in
    // `aggs` order.
    group_idx: ResolvedColumns,
    inputs: Vec<String>,
    input_idx: ResolvedColumns,
}

impl Operator for AggregateInstance {
    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.budget = bytes;
    }

    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        self.ensure_out_schema(tuple.schema())?;
        let wrap = |e| WorkflowError::from_data(&self.name, e);
        let group =
            resolve_columns(&mut self.group_idx, tuple.schema(), &self.group_by).map_err(wrap)?;
        let inputs =
            resolve_columns(&mut self.input_idx, tuple.schema(), &self.inputs).map_err(wrap)?;
        let g = self
            .groups
            .group_of(group.iter().map(|&i| tuple.at(i)))
            .map_err(wrap)?;
        let mut inputs = inputs.iter();
        for (agg, state) in self.aggs.iter().zip(self.groups.states_mut(g)) {
            let column = agg.input_column().and_then(|_| inputs.next());
            state.update(column.and_then(|&i| tuple.at(i).as_float()));
        }
        if self.budget.is_some_and(|b| self.groups.bytes > b) {
            self.flush_groups(out)?;
        }
        Ok(())
    }

    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.ensure_out_schema(batch.schema())?;
        let wrap = |e| WorkflowError::from_data(&self.name, e);
        let group =
            resolve_columns(&mut self.group_idx, batch.schema(), &self.group_by).map_err(wrap)?;
        let keys: Vec<&ColumnVec> = group.iter().map(|&i| batch.column(i)).collect();
        resolve_columns(&mut self.input_idx, batch.schema(), &self.inputs).map_err(wrap)?;
        let hashes = self.groups.hashes(&keys, batch.len()).map_err(wrap)?;
        let mut groups = Vec::with_capacity(batch.len());
        let mut start = 0;
        for (i, hash) in hashes.into_iter().enumerate() {
            groups.push(self.groups.group_at(&keys, i, hash));
            // Where `on_tuple` flushes: at the row whose new group takes
            // the footprint past the budget, after folding it in.
            if self.budget.is_some_and(|b| self.groups.bytes > b) {
                self.fold_rows(batch, start, &groups)?;
                self.flush_groups(out)?;
                groups.clear();
                start = i + 1;
            }
        }
        self.fold_rows(batch, start, &groups)
    }

    fn on_port_complete(&mut self, _port: usize, out: &mut OutputCollector) -> WorkflowResult<()> {
        let schema = match &self.out_schema {
            Some(s) => s.clone(),
            // No input tuples: nothing to emit (and no schema to emit it
            // under).
            None => return Ok(()),
        };
        if self.spill.is_some() {
            // Funnel the in-memory remainder into the partitions too, so
            // every group is finalized by exactly one partition-wise merge.
            self.flush_groups(out)?;
            let spill = self.spill.take().expect("checked above");
            for writer in spill.parts {
                let seg = writer.seal(out);
                if seg.is_empty() {
                    continue;
                }
                self.merge_and_emit_partition(&seg, &schema, out)?;
            }
            return Ok(());
        }
        self.emit_groups(&self.groups, &schema, out);
        self.groups.clear();
        Ok(())
    }
}

impl AggregateInstance {
    /// Derive (once) the output schema from the first input's schema
    /// (blocking operators see data before they emit, so this is always
    /// available in time).
    fn ensure_out_schema(&mut self, input: &SchemaRef) -> WorkflowResult<()> {
        if self.out_schema.is_some() {
            return Ok(());
        }
        let derive = || {
            let mut fields = Vec::with_capacity(self.group_by.len() + self.aggs.len());
            for g in &self.group_by {
                fields.push(input.field(g)?.clone());
            }
            fields.extend(self.aggs.iter().map(AggFn::output_field));
            Schema::new(fields)
        };
        let derived = derive().map_err(|e| WorkflowError::SchemaError {
            operator: self.name.clone(),
            error: e,
        })?;
        self.out_schema = Some(Arc::new(derived));
        Ok(())
    }

    /// Emit one finished row per group of `table`, in first-seen order.
    fn emit_groups(&self, table: &GroupTable, schema: &SchemaRef, out: &mut OutputCollector) {
        for (rep, states) in table.iter() {
            let finished = self.aggs.iter().zip(states).map(|(agg, st)| st.finish(agg));
            let values = rep.iter().cloned().chain(finished);
            out.emit(Tuple::collect_unchecked(schema.clone(), values));
        }
    }

    /// Lazily build the spill partitions and the partial-row schema:
    /// group fields (shared with the output schema) followed by
    /// `(__cnt, __sum, __min, __max)` per aggregation.
    fn ensure_spill(&mut self) -> WorkflowResult<()> {
        if self.spill.is_some() {
            return Ok(());
        }
        let out_schema = self
            .out_schema
            .as_ref()
            .expect("groups exist, so the schema was derived");
        let g = self.group_by.len();
        let mut fields: Vec<Field> = out_schema.fields()[..g].to_vec();
        for i in 0..self.aggs.len() {
            fields.push(Field::new(format!("__cnt{i}"), DataType::Int));
            fields.push(Field::new(format!("__sum{i}"), DataType::Float));
            fields.push(Field::new(format!("__min{i}"), DataType::Float));
            fields.push(Field::new(format!("__max{i}"), DataType::Float));
        }
        let schema = Schema::new(fields).map_err(|e| WorkflowError::from_data(&self.name, e))?;
        self.spill = Some(AggSpill {
            partial_schema: Arc::new(schema),
            parts: (0..SPILL_FANOUT).map(|_| PartitionWriter::new()).collect(),
        });
        Ok(())
    }

    /// Fold rows `start..` of `batch` into their groups (`groups[k]` is
    /// row `start + k`'s). Columnar kernels: one monomorphic pass per
    /// aggregation.
    fn fold_rows(
        &mut self,
        batch: &ColumnarBatch,
        start: usize,
        groups: &[u32],
    ) -> WorkflowResult<()> {
        let inputs = resolve_columns(&mut self.input_idx, batch.schema(), &self.inputs)
            .map_err(|e| WorkflowError::from_data(&self.name, e))?;
        let mut inputs = inputs.iter();
        for (a, agg) in self.aggs.iter().enumerate() {
            let column = agg.input_column().and_then(|_| inputs.next());
            let column = column.map(|&i| batch.column(i));
            self.groups.update_column(a, start, groups, column);
        }
        Ok(())
    }

    /// Drain every in-memory group to its spill partition and reset the
    /// in-memory footprint: each partition's groups, in first-seen order,
    /// as one sealed batch of partial aggregates.
    fn flush_groups(&mut self, out: &mut OutputCollector) -> WorkflowResult<()> {
        if self.groups.is_empty() {
            return Ok(());
        }
        self.ensure_spill()?;
        let wrap = |e| WorkflowError::from_data(&self.name, e);
        let flush_at = self
            .budget
            .map_or(usize::MAX, |b| (b / SPILL_FANOUT).max(1));
        let mut members = vec![Vec::new(); SPILL_FANOUT];
        for (g, (rep, _)) in self.groups.iter().enumerate() {
            // The owned key is built here, once per flushed group, for
            // the partition hash the grace join shares.
            let key = match rep {
                [] => HashKey::Null,
                [v] => HashKey::from_value(v).map_err(wrap)?,
                vs => HashKey::Composite(
                    vs.iter()
                        .map(HashKey::from_value)
                        .collect::<DataResult<_>>()
                        .map_err(wrap)?,
                ),
            };
            members[key.bucket_salted(0, SPILL_FANOUT)].push(g as u32);
        }
        let spill = self.spill.as_mut().expect("ensured above");
        for (part, groups) in spill.parts.iter_mut().zip(&members) {
            if !groups.is_empty() {
                let partials = self.groups.partials(&spill.partial_schema, groups);
                part.push_batch(&partials.map_err(wrap)?, flush_at, out);
            }
        }
        self.groups.clear();
        Ok(())
    }

    /// Decode one sealed partition block by block, merge its partial
    /// aggregates by group key through the group table's column path
    /// (counts and sums add, min/max combine), and emit the finished
    /// groups. Distinct keys never span partitions, so each merge is
    /// final; the merged state is bounded by the partition's distinct
    /// keys, so no recursion is needed.
    fn merge_and_emit_partition(
        &self,
        seg: &Segment,
        schema: &SchemaRef,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let wrap = |e| WorkflowError::from_data(&self.name, e);
        let g = self.group_by.len();
        let mut merged = GroupTable::new(self.aggs.len());
        for block in seg.blocks() {
            out.note_spill_read();
            let partials = block.decode().map_err(wrap)?;
            let keys: Vec<&ColumnVec> = (0..g).map(|j| partials.column(j)).collect();
            let groups = merged.groups_of(&keys, partials.len()).map_err(wrap)?;
            for agg in 0..self.aggs.len() {
                let col = |k| partials.column(g + 4 * agg + k);
                merged.merge_columns(agg, &groups, [col(0), col(1), col(2), col(3)]);
            }
        }
        self.emit_groups(&merged, schema, out);
        Ok(())
    }
}

impl OperatorFactory for AggregateOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        let input = &inputs[0];
        let mut fields = Vec::with_capacity(self.group_by.len() + self.aggs.len());
        for g in &self.group_by {
            fields.push(
                input
                    .field(g)
                    .map_err(|e| WorkflowError::SchemaError {
                        operator: self.desc.name.clone(),
                        error: e,
                    })?
                    .clone(),
            );
        }
        for a in &self.aggs {
            if let Some(c) = a.input_column() {
                input.index_of(c).map_err(|e| WorkflowError::SchemaError {
                    operator: self.desc.name.clone(),
                    error: e,
                })?;
            }
            fields.push(a.output_field());
        }
        Schema::new(fields).map_err(|e| WorkflowError::SchemaError {
            operator: self.desc.name.clone(),
            error: e,
        })
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(AggregateInstance {
            name: self.desc.name.clone(),
            group_by: self.group_by.clone(),
            aggs: self.aggs.clone(),
            out_schema: None,
            groups: GroupTable::new(self.aggs.len()),
            budget: None,
            spill: None,
            group_idx: None,
            inputs: self
                .aggs
                .iter()
                .filter_map(|a| a.input_column().map(str::to_owned))
                .collect(),
            input_idx: None,
        })
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        h.write_usize(self.group_by.len());
        for g in &self.group_by {
            h.write_str(g);
        }
        h.write_usize(self.aggs.len());
        for a in &self.aggs {
            h.write_str(&format!("{a:?}"));
        }
        // Fixed bytes: a fingerprint is an on-disk cache key and must not move.
        h.write_str("unbounded");
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(cat: &str, x: f64) -> Tuple {
        Tuple::new(
            Schema::of(&[("cat", DataType::Str), ("x", DataType::Float)]),
            vec![Value::Str(cat.into()), Value::Float(x)],
        )
        .unwrap()
    }

    fn agg_all() -> AggregateOp {
        AggregateOp::new(
            "agg",
            &["cat"],
            vec![
                AggFn::Count("n".into()),
                AggFn::Sum("x".into()),
                AggFn::Avg("x".into()),
                AggFn::Min("x".into()),
                AggFn::Max("x".into()),
            ],
        )
    }

    #[test]
    fn grouped_aggregation() {
        let op = agg_all();
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        for (c, x) in [("a", 1.0), ("b", 10.0), ("a", 3.0), ("a", 2.0)] {
            inst.on_tuple(tuple(c, x), 0, &mut out).unwrap();
        }
        assert!(out.is_empty(), "blocking op must not emit early");
        inst.on_port_complete(0, &mut out).unwrap();
        let rows = out.take();
        assert_eq!(rows.len(), 2);
        let a = rows
            .iter()
            .find(|t| t.get_str("cat").unwrap() == "a")
            .unwrap();
        assert_eq!(a.get_int("n").unwrap(), 3);
        assert_eq!(a.get_float("sum_x").unwrap(), 6.0);
        assert_eq!(a.get_float("avg_x").unwrap(), 2.0);
        assert_eq!(a.get_float("min_x").unwrap(), 1.0);
        assert_eq!(a.get_float("max_x").unwrap(), 3.0);
    }

    #[test]
    fn global_aggregate_no_group() {
        let op = AggregateOp::new("agg", &[], vec![AggFn::Count("n".into())]);
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        for i in 0..5 {
            inst.on_tuple(tuple("x", i as f64), 0, &mut out).unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        let rows = out.take();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get_int("n").unwrap(), 5);
    }

    #[test]
    fn columnar_global_kernels_match_row_path() {
        let rows = [("a", 1.5), ("b", -2.0), ("c", 7.25), ("d", 0.0)];
        let op = AggregateOp::new(
            "agg",
            &[],
            vec![
                AggFn::Count("n".into()),
                AggFn::Sum("x".into()),
                AggFn::Avg("x".into()),
                AggFn::Min("x".into()),
                AggFn::Max("x".into()),
            ],
        );
        let mut by_row = op.create();
        let mut row_out = OutputCollector::new();
        for (c, x) in rows {
            by_row.on_tuple(tuple(c, x), 0, &mut row_out).unwrap();
        }
        by_row.on_port_complete(0, &mut row_out).unwrap();

        let cb = ColumnarBatch::from_rows(
            Schema::of(&[("cat", DataType::Str), ("x", DataType::Float)]),
            rows.iter()
                .map(|(c, x)| vec![Value::Str((*c).into()), Value::Float(*x)])
                .collect(),
        )
        .unwrap();
        let mut by_col = op.create();
        let mut col_out = OutputCollector::new();
        by_col.on_batch(&cb, 0, &mut col_out).unwrap();
        by_col.on_port_complete(0, &mut col_out).unwrap();

        assert_eq!(row_out.take(), col_out.take());
    }

    /// Drive `op` under `budget` over `batches` three ways — every batch
    /// through `on_batch`, every row through `on_tuple`, and the two
    /// alternating batch by batch into one instance — and check that all
    /// three emit the same rows in the same order and spill the same
    /// blocks of the same bytes, read back as often. Returns the rows,
    /// rendered, and the blocks spilled.
    fn kernel_against_rows(
        op: &AggregateOp,
        budget: Option<usize>,
        batches: &[ColumnarBatch],
    ) -> (Vec<String>, u64) {
        let run = |as_batch: &dyn Fn(usize) -> bool| {
            let mut inst = op.create();
            inst.set_memory_budget(budget);
            let mut out = OutputCollector::new();
            for (i, batch) in batches.iter().enumerate() {
                if as_batch(i) {
                    inst.on_batch(batch, 0, &mut out).unwrap();
                } else {
                    for t in batch.to_tuples() {
                        inst.on_tuple(t, 0, &mut out).unwrap();
                    }
                }
                assert!(out.is_empty(), "blocking op must not emit early");
            }
            inst.on_port_complete(0, &mut out).unwrap();
            let c = out.counters();
            let spilled = (c.spilled_blocks, c.spilled_bytes, c.spill_reads);
            let rows: Vec<String> = out.take().iter().map(|t| format!("{t:?}")).collect();
            (rows, spilled)
        };
        let by_row = run(&|_| false);
        assert_eq!(run(&|_| true), by_row, "kernel, budget {budget:?}");
        assert_eq!(
            run(&|i| i % 2 == 0),
            by_row,
            "batch first, budget {budget:?}"
        );
        assert_eq!(
            run(&|i| i % 2 == 1),
            by_row,
            "rows first, budget {budget:?}"
        );
        (by_row.0, by_row.1 .0)
    }

    /// `(cat, k, x, tag)` batches of 40 rows: a `Str` and an `Int` group
    /// column with null cells, a float input whose sum depends on the
    /// order it is added in, and a non-numeric column.
    fn mixed_batches(n: i64) -> Vec<ColumnarBatch> {
        let schema = Schema::of(&[
            ("cat", DataType::Str),
            ("k", DataType::Int),
            ("x", DataType::Float),
            ("tag", DataType::Str),
        ]);
        let row = |i: i64| {
            vec![
                match i % 5 {
                    0 => Value::Null,
                    c => Value::Str(format!("c{c}")),
                },
                match i % 3 {
                    0 => Value::Null,
                    k => Value::Int(k),
                },
                match i % 7 {
                    0 => Value::Null,
                    _ => Value::Float(0.1 * i as f64),
                },
                Value::Str(format!("t{i}")),
            ]
        };
        let rows: Vec<Vec<Value>> = (0..n).map(row).collect();
        rows.chunks(40)
            .map(|c| ColumnarBatch::from_rows(schema.clone(), c.to_vec()).unwrap())
            .collect()
    }

    #[test]
    fn columnar_grouped_kernel_matches_row_path() {
        let batches = mixed_batches(200);
        // Composite `Str` + `Int` groups, null cells included; `Avg` over
        // the non-numeric column counts rows and sums nothing.
        let op = AggregateOp::new(
            "agg",
            &["cat", "k"],
            vec![
                AggFn::Count("n".into()),
                AggFn::Sum("x".into()),
                AggFn::Avg("x".into()),
                AggFn::Min("x".into()),
                AggFn::Max("x".into()),
                AggFn::Avg("tag".into()),
            ],
        );
        let (rows, _) = kernel_against_rows(&op, None, &batches);
        assert_eq!(rows.len(), 15);
        // First-seen order: row 0 is (null, null), row 1 (c1, 1), ...
        assert!(rows[0].contains("[Null, Null, Int(14)"), "{}", rows[0]);
        assert!(
            rows[1].contains("[Str(\"c1\"), Int(1), Int(14)"),
            "{}",
            rows[1]
        );
        assert!(rows[1].ends_with("Float(0.0)] }"), "{}", rows[1]);
        // One column, and no columns at all.
        for group_by in [&["cat"][..], &["k"], &[]] {
            let op = AggregateOp::new(
                "agg",
                group_by,
                vec![AggFn::Sum("x".into()), AggFn::Count("n".into())],
            );
            kernel_against_rows(&op, None, &batches);
        }
    }

    #[test]
    fn grouped_kernel_folds_float_keys_as_hash_key_does() {
        let schema = Schema::of(&[("f", DataType::Float), ("b", DataType::Bool)]);
        let keys = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, 0.0];
        let rows = keys.iter().enumerate();
        let rows = rows
            .map(|(i, &f)| vec![Value::Float(f), Value::Bool(i % 2 == 0)])
            .collect();
        let batch = ColumnarBatch::from_rows(schema, rows).unwrap();
        let count = vec![AggFn::Count("n".into())];
        let (by_float, _) = kernel_against_rows(
            &AggregateOp::new("agg", &["f"], count.clone()),
            None,
            std::slice::from_ref(&batch),
        );
        // Both zeros are one group, every NaN another; the key shown is
        // the first one seen.
        assert_eq!(by_float.len(), 3);
        assert!(
            by_float[0].contains("[Float(0.0), Int(3)]"),
            "{}",
            by_float[0]
        );
        assert!(
            by_float[1].contains("[Float(NaN), Int(2)]"),
            "{}",
            by_float[1]
        );
        let (by_both, _) =
            kernel_against_rows(&AggregateOp::new("agg", &["b", "f"], count), None, &[batch]);
        assert_eq!(by_both.len(), 5);
    }

    /// The budgeted kernel flushes at the row where `on_tuple` does, so
    /// the spill is the same however rows arrive, and merges to the
    /// in-memory groups: the twin runs of `kernel_against_rows` under
    /// budgets from below one group's footprint up to 64 KiB, grouped by
    /// an `Int`, a `Str`, a composite key with null cells, and nothing.
    #[test]
    fn budgeted_instance_flushes_the_same_partials_from_batches_as_from_rows() {
        let batches = mixed_batches(400);
        let aggs = vec![AggFn::Count("n".into()), AggFn::Sum("x".into())];
        let op = AggregateOp::new("agg", &["cat", "k"], aggs);
        let (spilled, _) = kernel_against_rows(&op, Some(256), &batches);
        // The merge emits partition by partition: the same groups as the
        // in-memory run, in another order.
        let sorted = |mut rows: Vec<String>| {
            rows.sort_unstable();
            rows
        };
        assert_eq!(spilled.len(), 15);
        let (in_memory, _) = kernel_against_rows(&op, None, &batches);
        // Partial sums merge in another order than rows add in.
        let counts = |rows: Vec<String>| {
            let key_and_count = |r: String| r[..r.rfind(", Float").unwrap()].to_owned();
            sorted(rows.into_iter().map(key_and_count).collect())
        };
        assert_eq!(counts(spilled), counts(in_memory));

        // More groups than 64 KiB holds, under every kind of key.
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("x", DataType::Float),
            ("tag", DataType::Str),
        ]);
        let row = |i: i64| {
            let id = (i * 7919) % 601;
            vec![
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(id)
                },
                match i % 13 {
                    0 => Value::Null,
                    _ => Value::Str(format!("n{}", id % 400)),
                },
                match i % 7 {
                    0 => Value::Null,
                    _ => Value::Float(0.1 * i as f64),
                },
                Value::Str(format!("t{i}")),
            ]
        };
        let rows: Vec<Vec<Value>> = (0..1200).map(row).collect();
        // Uneven batches, so crossings fall anywhere in a batch.
        let batches: Vec<ColumnarBatch> = rows
            .chunks(173)
            .map(|c| ColumnarBatch::from_rows(schema.clone(), c.to_vec()).unwrap())
            .collect();
        let aggs = vec![
            AggFn::Count("n".into()),
            AggFn::Sum("x".into()),
            AggFn::Min("x".into()),
            AggFn::Max("x".into()),
            AggFn::Avg("tag".into()),
        ];
        for group_by in [&["id"][..], &["name"], &["name", "id"], &[]] {
            let op = AggregateOp::new("agg", group_by, aggs.clone());
            for budget in [1, 100, 1 << 10, 8 << 10, 64 << 10] {
                let (_, blocks) = kernel_against_rows(&op, Some(budget), &batches);
                assert!(
                    blocks > 0 || group_by.is_empty() && budget > 100,
                    "{group_by:?} under {budget} B spilled nothing"
                );
            }
        }
    }

    #[test]
    fn unhashable_group_cells_are_a_typed_error_on_both_paths() {
        let schema = Schema::of(&[("l", DataType::List)]);
        let batch =
            ColumnarBatch::from_rows(schema, vec![vec![Value::List(vec![Value::Int(1)])]]).unwrap();
        let op = AggregateOp::new("agg", &["l"], vec![AggFn::Count("n".into())]);
        let mut out = OutputCollector::new();
        let by_batch = op.create().on_batch(&batch, 0, &mut out).unwrap_err();
        let by_row = op
            .create()
            .on_tuple(batch.tuple_at(0), 0, &mut out)
            .unwrap_err();
        assert_eq!(by_batch, by_row);
        assert!(by_batch.to_string().contains("cannot be used as keys"));
    }

    #[test]
    fn output_schema_shape() {
        let op = agg_all();
        let s = op
            .output_schema(&[Schema::of(&[
                ("cat", DataType::Str),
                ("x", DataType::Float),
            ])])
            .unwrap();
        assert_eq!(
            s.to_string(),
            "cat: Str, n: Int, sum_x: Float, avg_x: Float, min_x: Float, max_x: Float"
        );
    }

    #[test]
    fn schema_validates_columns() {
        let op = AggregateOp::new("agg", &["missing"], vec![AggFn::Count("n".into())]);
        assert!(op
            .output_schema(&[Schema::of(&[("cat", DataType::Str)])])
            .is_err());
        let op2 = AggregateOp::new("agg", &[], vec![AggFn::Sum("missing".into())]);
        assert!(op2
            .output_schema(&[Schema::of(&[("cat", DataType::Str)])])
            .is_err());
    }

    #[test]
    fn empty_input_emits_nothing() {
        let op = agg_all();
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        inst.on_port_complete(0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    /// Run `op` over `n` tuples spread across 7 groups, optionally under
    /// an engine-level budget, returning (sorted rows, blocks, reads).
    fn run_agg_budgeted(
        op: &AggregateOp,
        budget: Option<usize>,
        n: i64,
    ) -> (Vec<String>, u64, u64) {
        let mut inst = op.create();
        inst.set_memory_budget(budget);
        let mut out = OutputCollector::new();
        for i in 0..n {
            inst.on_tuple(tuple(&format!("c{}", i % 7), i as f64), 0, &mut out)
                .unwrap();
        }
        inst.on_port_complete(0, &mut out).unwrap();
        let mut rows: Vec<String> = out.take().iter().map(|t| format!("{t:?}")).collect();
        rows.sort();
        let blocks = out.spilled_blocks();
        let reads = out.counters().spill_reads;
        (rows, blocks, reads)
    }

    #[test]
    fn tiny_budget_spills_partials_and_matches_in_memory() {
        let op = agg_all();
        let (baseline, b0, _) = run_agg_budgeted(&op, None, 200);
        assert_eq!(b0, 0, "unbounded run must not touch the block store");
        let (spilled, blocks, reads) = run_agg_budgeted(&op, Some(96), 200);
        assert!(blocks > 0, "tiny budget must flush partial blocks");
        assert!(reads > 0, "merge must read the partitions back");
        assert_eq!(spilled, baseline, "spilled groups must merge losslessly");
    }

    #[test]
    fn global_aggregate_spills_and_merges() {
        let op = AggregateOp::new(
            "agg",
            &[],
            vec![AggFn::Count("n".into()), AggFn::Avg("x".into())],
        );
        let (baseline, _, _) = run_agg_budgeted(&op, None, 50);
        let (spilled, blocks, _) = run_agg_budgeted(&op, Some(16), 50);
        assert!(blocks > 0);
        assert_eq!(spilled, baseline);
        assert_eq!(spilled.len(), 1);
    }

    #[test]
    fn engine_budget_applies_unless_operator_override_set() {
        let (rows, blocks, _) = run_agg_budgeted(&agg_all(), Some(64), 200);
        assert!(blocks > 0);
        let (baseline, _, _) = run_agg_budgeted(&agg_all(), None, 200);
        assert_eq!(rows, baseline);
    }
}
