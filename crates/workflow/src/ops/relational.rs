//! Simple relational operators: filter, project, limit, distinct.

use std::collections::HashSet;
use std::sync::Arc;

use scriptflow_datakit::column::{cmp_value, CmpOp};
use scriptflow_datakit::{
    Bitmap, ColumnVec, ColumnarBatch, DataResult, HashKey, Schema, SchemaRef, Tuple, Value,
};
use scriptflow_simcluster::Language;

use scriptflow_core::fingerprint::OpFingerprint;

use crate::cost::CostProfile;
use crate::operator::{
    fingerprint_value, rows_through, spec_fingerprinter, OpDescriptor, Operator, OperatorFactory,
    OutputCollector, WorkflowError, WorkflowResult,
};

use super::{resolve_columns, ResolvedColumns};

/// A structured `column op literal` comparison the engine can evaluate
/// against a batch's zone map (opaque closure predicates cannot be
/// reasoned about, so only filters built via [`FilterOp::cmp`] skip
/// batches).
#[derive(Debug, Clone)]
struct CmpPredicate {
    column: String,
    op: CmpOp,
    literal: Value,
}

type Closure = Arc<dyn Fn(&Tuple) -> DataResult<bool> + Send + Sync>;

/// What a filter keeps.
#[derive(Clone)]
enum Predicate {
    /// An opaque closure, run on every row.
    Closure(Closure),
    /// A structured comparison.
    Cmp(CmpPredicate),
}

/// Keep tuples matching a predicate.
pub struct FilterOp {
    desc: OpDescriptor,
    predicate: Predicate,
}

impl FilterOp {
    /// A filter with the given predicate.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&Tuple) -> DataResult<bool> + Send + Sync + 'static,
    ) -> Self {
        FilterOp {
            desc: OpDescriptor::new(name, 1),
            predicate: Predicate::Closure(Arc::new(predicate)),
        }
    }

    /// A structured comparison filter: keep tuples where
    /// `column op literal` (nulls and incomparable type mixes never
    /// match). Unlike [`FilterOp::new`], the predicate's shape is known
    /// to the engine, so the columnar path first consults the batch's
    /// min/max zone map — batches whose range cannot satisfy the
    /// comparison are skipped whole, batches whose range trivially
    /// satisfies it pass through untouched, and only the remainder run
    /// the tight typed-column loop.
    pub fn cmp(
        name: impl Into<String>,
        column: impl Into<String>,
        op: CmpOp,
        literal: Value,
    ) -> Self {
        FilterOp {
            // The comparison has a columnar kernel; a closure does not.
            desc: OpDescriptor {
                batch_kernel: true,
                ..OpDescriptor::new(name, 1)
            },
            predicate: Predicate::Cmp(CmpPredicate {
                column: column.into(),
                op,
                literal,
            }),
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

struct FilterInstance {
    name: String,
    predicate: Predicate,
    // A comparison's column index in the row path's tuples.
    column: ResolvedColumns,
}

impl FilterInstance {
    /// Tight monomorphic selection loop for a comparison predicate over
    /// one typed column: the indices of the rows to keep, ascending.
    /// Falls back to boxed comparison for `Mixed`.
    fn columnar_keep(col: &ColumnVec, op: CmpOp, literal: &Value) -> Vec<u32> {
        fn keep<T>(
            data: impl Iterator<Item = T>,
            validity: &Bitmap,
            pass: impl Fn(T) -> bool,
        ) -> Vec<u32> {
            data.enumerate()
                .filter_map(|(i, x)| (validity.is_valid(i) && pass(x)).then_some(i as u32))
                .collect()
        }
        match (col, literal) {
            (ColumnVec::Int { data, validity }, Value::Int(lit)) => {
                keep(data.iter(), validity, |x| op.eval(x.cmp(lit)))
            }
            (ColumnVec::Float { data, validity }, Value::Float(lit)) => {
                keep(data.iter(), validity, |x| {
                    x.partial_cmp(lit).is_some_and(|o| op.eval(o))
                })
            }
            (ColumnVec::Str { data, validity }, Value::Str(lit)) => {
                keep(data.iter(), validity, |s| op.eval(s.cmp(lit.as_str())))
            }
            _ => (0..col.len())
                .filter(|&i| cmp_value(&col.value_at(i), op, literal))
                .map(|i| i as u32)
                .collect(),
        }
    }
}

impl Operator for FilterInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let keep = match &self.predicate {
            Predicate::Closure(f) => f(&tuple),
            Predicate::Cmp(cmp) => {
                let column = std::slice::from_ref(&cmp.column);
                resolve_columns(&mut self.column, tuple.schema(), column)
                    .map(|idx| cmp_value(tuple.at(idx[0]), cmp.op, &cmp.literal))
            }
        };
        if keep.map_err(|e| WorkflowError::from_data(&self.name, e))? {
            out.emit(tuple);
        }
        Ok(())
    }

    fn on_batch(
        &mut self,
        batch: &ColumnarBatch,
        port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let Predicate::Cmp(cmp) = &self.predicate else {
            // Opaque closure: row-at-a-time is the only option.
            return rows_through(self, batch, port, out);
        };
        let idx = batch
            .schema()
            .index_of(&cmp.column)
            .map_err(|e| WorkflowError::from_data(&self.name, e))?;
        let stats = batch.column_stats(idx);
        if stats.range_excludes(cmp.op, &cmp.literal) {
            // Zone map proves no row matches: prune the whole batch.
            out.note_batch_skipped();
            return Ok(());
        }
        if stats.range_satisfies(cmp.op, &cmp.literal) {
            // Every row passes: hand the sealed batch on as it is.
            out.emit_batch(batch.clone());
            return Ok(());
        }
        let keep = Self::columnar_keep(batch.column(idx), cmp.op, &cmp.literal);
        if keep.len() == batch.len() {
            out.emit_batch(batch.clone());
        } else {
            out.emit_batch(batch.take(&keep));
        }
        Ok(())
    }
}

impl OperatorFactory for FilterOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        if let Predicate::Cmp(cmp) = &self.predicate {
            // Structured predicates validate their column eagerly — the
            // workflow paradigm's early schema checking.
            inputs[0]
                .index_of(&cmp.column)
                .map_err(|e| WorkflowError::SchemaError {
                    operator: self.desc.name.clone(),
                    error: e,
                })?;
        }
        Ok((*inputs[0]).clone())
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(FilterInstance {
            name: self.desc.name.clone(),
            predicate: self.predicate.clone(),
            column: None,
        })
    }

    /// Structured comparisons hash their full predicate; opaque closure
    /// filters fall back to the name-and-config digest (the closure's
    /// body is unobservable).
    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        match &self.predicate {
            Predicate::Cmp(cmp) => {
                h.write_str("cmp");
                h.write_str(&cmp.column);
                h.write_str(&format!("{:?}", cmp.op));
                fingerprint_value(&mut h, &cmp.literal);
            }
            Predicate::Closure(_) => h.write_str("closure"),
        }
        h.finish()
    }
}

/// Keep only the named columns.
pub struct ProjectOp {
    desc: OpDescriptor,
    columns: Vec<String>,
}

impl ProjectOp {
    /// Project to `columns`, in the given order.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        ProjectOp {
            desc: OpDescriptor {
                cost: CostProfile::per_tuple_micros(1),
                ..OpDescriptor::new(name, 1)
            },
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
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

struct ProjectInstance {
    name: String,
    indices: Option<Vec<usize>>,
    columns: Vec<String>,
    out_schema: Option<SchemaRef>,
}

impl Operator for ProjectInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if self.indices.is_none() {
            let mut idx = Vec::with_capacity(self.columns.len());
            for c in &self.columns {
                idx.push(
                    tuple
                        .schema()
                        .index_of(c)
                        .map_err(|e| WorkflowError::from_data(&self.name, e))?,
                );
            }
            let projected = tuple
                .schema()
                .project(&self.columns.iter().map(String::as_str).collect::<Vec<_>>())
                .map_err(|e| WorkflowError::from_data(&self.name, e))?;
            self.indices = Some(idx);
            self.out_schema = Some(Arc::new(projected));
        }
        let indices = self.indices.as_ref().expect("initialized above");
        let schema = self.out_schema.clone().expect("initialized above");
        let values = indices.iter().map(|&i| tuple.at(i).clone());
        out.emit(Tuple::collect_unchecked(schema, values));
        Ok(())
    }
}

impl OperatorFactory for ProjectOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        inputs[0]
            .project(&cols)
            .map_err(|e| WorkflowError::SchemaError {
                operator: self.desc.name.clone(),
                error: e,
            })
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(ProjectInstance {
            name: self.desc.name.clone(),
            indices: None,
            columns: self.columns.clone(),
            out_schema: None,
        })
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        h.write_usize(self.columns.len());
        for c in &self.columns {
            h.write_str(c);
        }
        h.finish()
    }
}

/// Pass at most `n` tuples (per workflow — use parallelism 1).
pub struct LimitOp {
    desc: OpDescriptor,
    n: usize,
}

impl LimitOp {
    /// Limit to `n` tuples.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        LimitOp {
            desc: OpDescriptor::new(name, 1),
            n,
        }
    }
}

struct LimitInstance {
    remaining: usize,
}

impl Operator for LimitInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        if self.remaining > 0 {
            self.remaining -= 1;
            out.emit(tuple);
        }
        Ok(())
    }
}

impl OperatorFactory for LimitOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        Ok((*inputs[0]).clone())
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(LimitInstance { remaining: self.n })
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        h.write_usize(self.n);
        h.finish()
    }
}

/// Drop duplicate tuples, keyed by the named columns (or the whole tuple's
/// display form when keyed columns are unhashable).
pub struct DistinctOp {
    desc: OpDescriptor,
    columns: Vec<String>,
}

impl DistinctOp {
    /// Distinct on `columns`. Use with hash partitioning on the same
    /// columns when parallelism > 1.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        DistinctOp {
            desc: OpDescriptor::new(name, 1),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

struct DistinctInstance {
    name: String,
    columns: Vec<String>,
    // The key columns' indices in the tuples.
    indices: ResolvedColumns,
    seen: HashSet<HashKey>,
}

impl Operator for DistinctInstance {
    fn on_tuple(
        &mut self,
        tuple: Tuple,
        _port: usize,
        out: &mut OutputCollector,
    ) -> WorkflowResult<()> {
        let key = resolve_columns(&mut self.indices, tuple.schema(), &self.columns)
            .and_then(|indices| HashKey::from_tuple_indexed(&tuple, indices))
            .map_err(|e| WorkflowError::from_data(&self.name, e))?;
        if self.seen.insert(key) {
            out.emit(tuple);
        }
        Ok(())
    }
}

impl OperatorFactory for DistinctOp {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }
    fn output_schema(&self, inputs: &[SchemaRef]) -> WorkflowResult<Schema> {
        // Validate the key columns exist.
        for c in &self.columns {
            inputs[0]
                .index_of(c)
                .map_err(|e| WorkflowError::SchemaError {
                    operator: self.desc.name.clone(),
                    error: e,
                })?;
        }
        Ok((*inputs[0]).clone())
    }
    fn create(&self) -> Box<dyn Operator> {
        Box::new(DistinctInstance {
            name: self.desc.name.clone(),
            columns: self.columns.clone(),
            indices: None,
            seen: HashSet::new(),
        })
    }

    fn fingerprint(&self) -> OpFingerprint {
        let mut h = spec_fingerprinter(&self.desc);
        h.write_usize(self.columns.len());
        for c in &self.columns {
            h.write_str(c);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_datakit::{DataType, Value};

    fn tuple(id: i64) -> Tuple {
        Tuple::new(Schema::of(&[("id", DataType::Int)]), vec![Value::Int(id)]).unwrap()
    }

    #[test]
    fn filter_keeps_matching() {
        let f = FilterOp::new("f", |t| Ok(t.get_int("id")? > 2));
        let mut inst = f.create();
        let mut out = OutputCollector::new();
        for i in 0..5 {
            inst.on_tuple(tuple(i), 0, &mut out).unwrap();
        }
        let kept = out.take();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].get_int("id").unwrap(), 3);
    }

    fn columnar(ids: &[i64]) -> ColumnarBatch {
        ColumnarBatch::from_rows(
            Schema::of(&[("id", DataType::Int)]),
            ids.iter().map(|&i| vec![Value::Int(i)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn cmp_filter_skips_excluded_batches() {
        let f = FilterOp::cmp("f", "id", CmpOp::Gt, Value::Int(100));
        let mut inst = f.create();
        let mut out = OutputCollector::new();
        // ids in [0, 9]: the zone map excludes `> 100` outright.
        inst.on_batch(&columnar(&(0..10).collect::<Vec<_>>()), 0, &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(out.batches_skipped(), 1);
        // ids in [90, 110]: straddles the literal, runs the typed loop.
        inst.on_batch(&columnar(&(90..=110).collect::<Vec<_>>()), 0, &mut out)
            .unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out.batches_skipped(), 1, "straddling batch is not a skip");
        // ids in [101, 105]: the range satisfies, whole batch passes.
        inst.on_batch(&columnar(&(101..=105).collect::<Vec<_>>()), 0, &mut out)
            .unwrap();
        assert_eq!(out.len(), 15);
        assert_eq!(out.take_counters().batches_skipped, 1);
        assert_eq!(out.batches_skipped(), 0);
    }

    #[test]
    fn cmp_filter_row_and_columnar_paths_agree() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            let f = FilterOp::cmp("f", "id", op, Value::Int(5));
            let batch = columnar(&[1, 5, 9, 5, 3]);
            let mut by_row = OutputCollector::new();
            let mut by_col = OutputCollector::new();
            let mut inst = f.create();
            for t in batch.to_tuples() {
                inst.on_tuple(t, 0, &mut by_row).unwrap();
            }
            let mut inst2 = f.create();
            inst2.on_batch(&batch, 0, &mut by_col).unwrap();
            assert_eq!(by_row.take(), by_col.take(), "{op:?}");
        }
    }

    #[test]
    fn cmp_filter_validates_column_at_schema_time() {
        let f = FilterOp::cmp("f", "nope", CmpOp::Eq, Value::Int(1));
        assert!(f
            .output_schema(&[Schema::of(&[("id", DataType::Int)])])
            .is_err());
    }

    #[test]
    fn closure_filter_columnar_batch_falls_back_to_rows() {
        let f = FilterOp::new("f", |t| Ok(t.get_int("id")? % 2 == 0));
        let mut inst = f.create();
        let mut out = OutputCollector::new();
        inst.on_batch(&columnar(&[1, 2, 3, 4]), 0, &mut out)
            .unwrap();
        let kept = out.take();
        assert_eq!(kept.len(), 2);
        assert_eq!(out.batches_skipped(), 0);
    }

    #[test]
    fn filter_propagates_predicate_error() {
        let f = FilterOp::new("f", |t| Ok(t.get_int("missing")? > 0));
        let mut inst = f.create();
        let mut out = OutputCollector::new();
        let err = inst.on_tuple(tuple(1), 0, &mut out).unwrap_err();
        assert!(err.to_string().contains("`f`"));
    }

    #[test]
    fn fingerprints_track_every_parameter() {
        // Filter: column, comparison op, and literal each matter.
        let base = FilterOp::cmp("f", "id", CmpOp::Gt, Value::Int(5));
        assert_eq!(
            base.fingerprint(),
            FilterOp::cmp("f", "id", CmpOp::Gt, Value::Int(5)).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            FilterOp::cmp("f", "other", CmpOp::Gt, Value::Int(5)).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            FilterOp::cmp("f", "id", CmpOp::Ge, Value::Int(5)).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            FilterOp::cmp("f", "id", CmpOp::Gt, Value::Int(6)).fingerprint()
        );
        // Closure filters hash distinctly from structured ones.
        assert_ne!(
            base.fingerprint(),
            FilterOp::new("f", |_| Ok(true)).fingerprint()
        );
        // Project and distinct are keyed by their column lists.
        assert_ne!(
            ProjectOp::new("p", &["a", "b"]).fingerprint(),
            ProjectOp::new("p", &["b", "a"]).fingerprint()
        );
        assert_ne!(
            DistinctOp::new("d", &["a"]).fingerprint(),
            DistinctOp::new("d", &["a", "b"]).fingerprint()
        );
        // Limit is keyed by n.
        assert_ne!(
            LimitOp::new("l", 2).fingerprint(),
            LimitOp::new("l", 3).fingerprint()
        );
    }

    #[test]
    fn project_reorders() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let p = ProjectOp::new("p", &["b", "a"]);
        let out_schema = p.output_schema(std::slice::from_ref(&schema)).unwrap();
        assert_eq!(out_schema.to_string(), "b: Str, a: Int");
        let mut inst = p.create();
        let mut out = OutputCollector::new();
        let t = Tuple::new(schema, vec![Value::Int(1), Value::Str("x".into())]).unwrap();
        inst.on_tuple(t, 0, &mut out).unwrap();
        let got = out.take();
        assert_eq!(got[0].get_str("b").unwrap(), "x");
        assert_eq!(got[0].values()[1], Value::Int(1));
    }

    #[test]
    fn project_unknown_column_fails_at_schema_time() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let p = ProjectOp::new("p", &["zzz"]);
        assert!(p.output_schema(&[schema]).is_err());
    }

    #[test]
    fn limit_truncates() {
        let l = LimitOp::new("l", 2);
        let mut inst = l.create();
        let mut out = OutputCollector::new();
        for i in 0..5 {
            inst.on_tuple(tuple(i), 0, &mut out).unwrap();
        }
        assert_eq!(out.take().len(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let d = DistinctOp::new("d", &["id"]);
        let mut inst = d.create();
        let mut out = OutputCollector::new();
        for id in [1, 2, 1, 3, 2, 1] {
            inst.on_tuple(tuple(id), 0, &mut out).unwrap();
        }
        assert_eq!(out.take().len(), 3);
    }

    #[test]
    fn distinct_validates_columns() {
        let d = DistinctOp::new("d", &["nope"]);
        assert!(d
            .output_schema(&[Schema::of(&[("id", DataType::Int)])])
            .is_err());
    }
}
