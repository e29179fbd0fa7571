//! Grouped aggregation operator. Under a memory budget, group state
//! spills to the block store as partial-aggregate rows and partitions
//! merge at completion.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use scriptflow_datakit::{
    ColumnVec, ColumnarBatch, DataType, Field, HashKey, Schema, SchemaRef, Tuple, Value,
};
use scriptflow_simcluster::Language;

use scriptflow_core::fingerprint::OpFingerprint;

use crate::cost::CostProfile;
use crate::operator::{
    rows_through, spec_fingerprinter, Operator, OperatorFactory, OutputCollector, WorkflowError,
    WorkflowResult,
};
use crate::spill::{read_segment, PartitionWriter, SPILL_FANOUT};

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

    /// Fold one typed column into the state in a single monomorphic
    /// pass — the columnar sum/min/max/count kernel. Must accumulate
    /// exactly as `update` called per row would.
    fn update_column(&mut self, col: &ColumnVec) {
        self.count += col.len() as u64;
        match col {
            ColumnVec::Float { data, validity } => {
                for (i, &x) in data.iter().enumerate() {
                    if validity.is_valid(i) {
                        self.sum += x;
                        self.min = self.min.min(x);
                        self.max = self.max.max(x);
                    }
                }
            }
            ColumnVec::Int { data, validity } => {
                for (i, &x) in data.iter().enumerate() {
                    if validity.is_valid(i) {
                        let x = x as f64;
                        self.sum += x;
                        self.min = self.min.min(x);
                        self.max = self.max.max(x);
                    }
                }
            }
            // Non-numeric columns contribute rows to `count` only, the
            // same as `Value::as_float() == None` on the row path.
            _ => {}
        }
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
    name: String,
    group_by: Vec<String>,
    aggs: Vec<AggFn>,
    cost: CostProfile,
    language: Language,
    memory_budget: Option<usize>,
}

impl AggregateOp {
    /// Aggregate `aggs` grouped by `group_by` (may be empty for a global
    /// aggregate).
    pub fn new(name: impl Into<String>, group_by: &[&str], aggs: Vec<AggFn>) -> Self {
        assert!(!aggs.is_empty(), "aggregate needs at least one aggregation");
        AggregateOp {
            name: name.into(),
            group_by: group_by.iter().map(|s| (*s).to_owned()).collect(),
            aggs,
            cost: CostProfile::per_tuple_micros(2),
            language: Language::Python,
            memory_budget: None,
        }
    }

    /// Per-operator memory budget override: once group state exceeds
    /// `bytes`, groups are flushed to the block store as hash-partitioned
    /// partial-aggregate rows (count/sum/min/max per aggregation) and
    /// merged partition-wise at completion. Takes precedence over the
    /// engine-level [`crate::EngineConfig::memory_budget`].
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Override the cost profile.
    pub fn with_cost(mut self, cost: CostProfile) -> Self {
        self.cost = cost;
        self
    }

    /// Override the implementation language.
    pub fn with_language(mut self, language: Language) -> Self {
        self.language = language;
        self
    }
}

// Spill state: partial-aggregate rows hash-partitioned by group key.
// Each partial row is the group's representative values followed by
// (count, sum, min, max) for every aggregation, so partials merge
// losslessly regardless of how many flushes a group was split across.
struct AggSpill {
    partial_schema: SchemaRef,
    parts: Vec<PartitionWriter>,
}

struct AggregateInstance {
    name: String,
    group_by: Vec<String>,
    aggs: Vec<AggFn>,
    // Derived from the first input tuple's schema (blocking operators
    // see data before they emit, so this is always available in time).
    out_schema: Option<SchemaRef>,
    // Group key -> (representative group values, per-agg state). Insertion
    // order preserved for deterministic output.
    groups: HashMap<HashKey, (Vec<Value>, Vec<AggState>)>,
    order: Vec<HashKey>,
    budget: Option<usize>,
    budget_fixed: bool,
    groups_bytes: usize,
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
        if !self.budget_fixed {
            self.budget = bytes;
        }
    }

    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if self.out_schema.is_none() {
            let derived =
                self.derive_schema(tuple.schema())
                    .map_err(|e| WorkflowError::SchemaError {
                        operator: self.name.clone(),
                        error: e,
                    })?;
            self.out_schema = Some(Arc::new(derived));
        }
        let wrap = |e| WorkflowError::from_data(&self.name, e);
        let group =
            resolve_columns(&mut self.group_idx, tuple.schema(), &self.group_by).map_err(wrap)?;
        let inputs =
            resolve_columns(&mut self.input_idx, tuple.schema(), &self.inputs).map_err(wrap)?;
        let key = if group.is_empty() {
            HashKey::Null
        } else {
            HashKey::from_tuple_indexed(&tuple, group).map_err(wrap)?
        };
        let (_, states) = match self.groups.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let rep: Vec<Value> = group.iter().map(|&i| tuple.at(i).clone()).collect();
                // Per-group footprint: the representative values' stable wire
                // size plus the fixed per-group bookkeeping (agg states, map
                // entry). Updates to existing groups don't grow state.
                self.groups_bytes +=
                    rep.iter().map(Value::encoded_len).sum::<usize>() + 32 * self.aggs.len() + 48;
                self.order.push(e.key().clone());
                e.insert((rep, self.aggs.iter().map(|_| AggState::new()).collect()))
            }
        };
        let mut inputs = inputs.iter();
        for (agg, state) in self.aggs.iter().zip(states) {
            let column = agg.input_column().and_then(|_| inputs.next());
            state.update(column.and_then(|&i| tuple.at(i).as_float()));
        }
        if self.budget.is_some_and(|b| self.groups_bytes > b) {
            self.flush_groups(out)?;
        }
        Ok(())
    }

    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if !self.group_by.is_empty() {
            // Grouped aggregation keys per row; stay on the row path.
            return rows_through(self, batch, port, out);
        }
        if batch.is_empty() {
            return Ok(());
        }
        if self.out_schema.is_none() {
            let derived =
                self.derive_schema(batch.schema())
                    .map_err(|e| WorkflowError::SchemaError {
                        operator: self.name.clone(),
                        error: e,
                    })?;
            self.out_schema = Some(Arc::new(derived));
        }
        let mut idxs = Vec::with_capacity(self.aggs.len());
        for a in &self.aggs {
            idxs.push(match a.input_column() {
                Some(c) => Some(
                    batch
                        .schema()
                        .index_of(c)
                        .map_err(|e| WorkflowError::from_data(&self.name, e))?,
                ),
                None => None,
            });
        }
        let key = HashKey::Null;
        if !self.groups.contains_key(&key) {
            self.groups.insert(
                key.clone(),
                (
                    Vec::new(),
                    self.aggs.iter().map(|_| AggState::new()).collect(),
                ),
            );
            self.order.push(key.clone());
        }
        let (_, states) = self.groups.get_mut(&key).expect("inserted above");
        // Columnar kernels: one monomorphic pass per aggregation.
        for (state, idx) in states.iter_mut().zip(idxs) {
            match idx {
                Some(i) => state.update_column(batch.column(i)),
                None => state.count += batch.len() as u64,
            }
        }
        Ok(())
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
        for key in &self.order {
            let (rep, states) = &self.groups[key];
            let finished = self.aggs.iter().zip(states).map(|(agg, st)| st.finish(agg));
            let values = rep.iter().cloned().chain(finished);
            out.emit(Tuple::collect_unchecked(schema.clone(), values));
        }
        self.groups.clear();
        self.order.clear();
        Ok(())
    }
}

impl AggregateInstance {
    fn derive_schema(&self, input: &SchemaRef) -> Result<Schema, scriptflow_datakit::DataError> {
        let mut fields = Vec::with_capacity(self.group_by.len() + self.aggs.len());
        for g in &self.group_by {
            fields.push(input.field(g)?.clone());
        }
        for a in &self.aggs {
            fields.push(a.output_field());
        }
        Schema::new(fields)
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

    /// Drain every in-memory group to its spill partition as one
    /// partial-aggregate row and reset the in-memory footprint.
    fn flush_groups(&mut self, out: &mut OutputCollector) -> WorkflowResult<()> {
        if self.groups.is_empty() {
            self.groups_bytes = 0;
            return Ok(());
        }
        self.ensure_spill()?;
        let flush_at = self
            .budget
            .map_or(usize::MAX, |b| (b / SPILL_FANOUT).max(1));
        let spill = self.spill.as_mut().expect("ensured above");
        let mut groups = std::mem::take(&mut self.groups);
        for key in std::mem::take(&mut self.order) {
            let (mut values, states) = groups.remove(&key).expect("order tracks group keys");
            for st in &states {
                values.push(Value::Int(st.count as i64));
                values.push(Value::Float(st.sum));
                values.push(Value::Float(st.min));
                values.push(Value::Float(st.max));
            }
            let bucket = key.bucket_salted(0, SPILL_FANOUT);
            spill.parts[bucket].push(
                Tuple::new_unchecked(spill.partial_schema.clone(), values),
                flush_at,
                out,
            );
        }
        self.groups_bytes = 0;
        Ok(())
    }

    /// Decode one sealed partition, merge its partial rows by group key
    /// (counts and sums add, min/max combine), and emit the finished
    /// groups. Distinct keys never span partitions, so each merge is
    /// final; the merged state is bounded by the partition's distinct
    /// keys, so no recursion is needed.
    fn merge_and_emit_partition(
        &self,
        seg: &scriptflow_datakit::blockstore::Segment,
        schema: &SchemaRef,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let tuples = read_segment(seg, out).map_err(|e| WorkflowError::from_data(&self.name, e))?;
        let cols: Vec<&str> = self.group_by.iter().map(String::as_str).collect();
        let g = cols.len();
        let mut merged: HashMap<HashKey, (Vec<Value>, Vec<AggState>)> = HashMap::new();
        let mut order: Vec<HashKey> = Vec::new();
        for t in tuples {
            let key = if cols.is_empty() {
                HashKey::Null
            } else {
                HashKey::from_tuple(&t, &cols)
                    .map_err(|e| WorkflowError::from_data(&self.name, e))?
            };
            let vals = t.values();
            let entry = merged.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (
                    vals[..g].to_vec(),
                    self.aggs.iter().map(|_| AggState::new()).collect(),
                )
            });
            for (i, st) in entry.1.iter_mut().enumerate() {
                let base = g + 4 * i;
                st.count += vals[base].as_int().unwrap_or(0).max(0) as u64;
                st.sum += vals[base + 1].as_float().unwrap_or(0.0);
                st.min = st
                    .min
                    .min(vals[base + 2].as_float().unwrap_or(f64::INFINITY));
                st.max = st
                    .max
                    .max(vals[base + 3].as_float().unwrap_or(f64::NEG_INFINITY));
            }
        }
        for key in order {
            let (rep, states) = &merged[&key];
            let finished = self.aggs.iter().zip(states).map(|(agg, st)| st.finish(agg));
            let values = rep.iter().cloned().chain(finished);
            out.emit(Tuple::collect_unchecked(schema.clone(), values));
        }
        Ok(())
    }
}

impl OperatorFactory for AggregateOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> usize {
        1
    }

    fn blocking_ports(&self) -> Vec<usize> {
        vec![0]
    }

    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        let input = &inputs[0];
        let mut fields = Vec::with_capacity(self.group_by.len() + self.aggs.len());
        for g in &self.group_by {
            fields.push(
                input
                    .field(g)
                    .map_err(|e| WorkflowError::SchemaError {
                        operator: self.name.clone(),
                        error: e,
                    })?
                    .clone(),
            );
        }
        for a in &self.aggs {
            if let Some(c) = a.input_column() {
                input.index_of(c).map_err(|e| WorkflowError::SchemaError {
                    operator: self.name.clone(),
                    error: e,
                })?;
            }
            fields.push(a.output_field());
        }
        Schema::new(fields).map_err(|e| WorkflowError::SchemaError {
            operator: self.name.clone(),
            error: e,
        })
    }

    fn language(&self) -> Language {
        self.language
    }

    fn cost(&self) -> CostProfile {
        self.cost.clone()
    }

    fn create(&self) -> Box<dyn Operator> {
        Box::new(AggregateInstance {
            name: self.name.clone(),
            group_by: self.group_by.clone(),
            aggs: self.aggs.clone(),
            out_schema: None,
            groups: HashMap::new(),
            order: Vec::new(),
            budget: self.memory_budget,
            budget_fixed: self.memory_budget.is_some(),
            groups_bytes: 0,
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

    fn batch_kernel(&self) -> bool {
        self.group_by.is_empty()
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(self);
        h.write_usize(self.group_by.len());
        for g in &self.group_by {
            h.write_str(g);
        }
        h.write_usize(self.aggs.len());
        for a in &self.aggs {
            h.write_str(&format!("{a:?}"));
        }
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

    #[test]
    fn columnar_grouped_falls_back_to_rows() {
        let op = agg_all();
        let cb = ColumnarBatch::from_rows(
            Schema::of(&[("cat", DataType::Str), ("x", DataType::Float)]),
            vec![
                vec![Value::Str("a".into()), Value::Float(1.0)],
                vec![Value::Str("b".into()), Value::Float(10.0)],
                vec![Value::Str("a".into()), Value::Float(3.0)],
            ],
        )
        .unwrap();
        let mut inst = op.create();
        let mut out = OutputCollector::new();
        inst.on_batch(&cb, 0, &mut out).unwrap();
        inst.on_port_complete(0, &mut out).unwrap();
        let rows = out.take();
        assert_eq!(rows.len(), 2);
        let a = rows
            .iter()
            .find(|t| t.get_str("cat").unwrap() == "a")
            .unwrap();
        assert_eq!(a.get_float("sum_x").unwrap(), 4.0);
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
        // Operator-level override wins: a huge fixed budget ignores the
        // tiny engine-level one and never spills.
        let fixed = agg_all().with_memory_budget(1 << 30);
        let (_, blocks, _) = run_agg_budgeted(&fixed, Some(64), 200);
        assert_eq!(blocks, 0, "fixed operator budget must win");
        // And a tiny fixed budget spills even with no engine budget.
        let tiny = agg_all().with_memory_budget(96);
        let (rows, blocks, _) = run_agg_budgeted(&tiny, None, 200);
        assert!(blocks > 0);
        let (baseline, _, _) = run_agg_budgeted(&agg_all(), None, 200);
        assert_eq!(rows, baseline);
    }
}
