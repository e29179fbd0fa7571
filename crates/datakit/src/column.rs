//! Columnar batch representation with per-batch statistics.
//!
//! The row-oriented [`Batch`] moves `Vec<Tuple>`s of boxed
//! [`Value`]s between operators, so every hot inner loop (filter
//! predicates, join key extraction, aggregate kernels) pays a dynamic
//! `Value` match per cell. [`ColumnarBatch`] stores the same data as one
//! typed vector per column ([`ColumnVec`]) plus a validity bitmap for
//! nulls, and seals per-column min/max/null-count statistics
//! ([`ColStats`]) exactly once at construction time. Operators can then:
//!
//! 1. consult the zone map ([`ColStats::range_excludes`]) and skip whole
//!    batches whose min/max range cannot satisfy a predicate, and
//! 2. run tight monomorphic loops over `Vec<i64>`/`Vec<f64>`/… instead of
//!    matching on `Value`.
//!
//! The row form remains the compatibility path: conversion goes both ways
//! ([`ColumnarBatch::from_rows`] / [`ColumnarBatch::to_rows`]) and is
//! round-trip tested, so an engine can freely mix representations.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::batch::Batch;
use crate::error::{DataError, DataResult};
use crate::schema::SchemaRef;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// A packed validity bitmap: bit `i` set means row `i` is non-null.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap {
            words: Vec::new(),
            len: 0,
        }
    }

    /// A bitmap of `len` bits, all valid.
    pub fn all_valid(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Append one bit.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Whether row `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of invalid (null) rows.
    pub fn count_invalid(&self) -> u64 {
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        self.len as u64 - u64::from(set)
    }
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap::new()
    }
}

/// One column of a [`ColumnarBatch`]: a typed vector plus a validity
/// bitmap. Invalid rows hold an arbitrary placeholder in the data vector
/// and render as [`Value::Null`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// 64-bit integers.
    Int {
        /// Cell values (placeholder 0 where invalid).
        data: Vec<i64>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Cell values (placeholder 0.0 where invalid).
        data: Vec<f64>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Booleans.
    Bool {
        /// Cell values (placeholder `false` where invalid).
        data: Vec<bool>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// UTF-8 strings.
    Str {
        /// Cell values (placeholder `""` where invalid).
        data: Vec<String>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Fallback for column types without a dense representation
    /// (`Bytes`, `List`, `Null`-typed columns): the boxed values as-is.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    /// An empty column of the dense representation for `dtype`.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnVec::Int {
                data: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Float => ColumnVec::Float {
                data: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Bool => ColumnVec::Bool {
                data: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Str => ColumnVec::Str {
                data: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Null | DataType::Bytes | DataType::List => ColumnVec::Mixed(Vec::new()),
        }
    }

    /// Append one cell. The value must conform to the column's type
    /// (nulls are always accepted); enforced by the batch constructors.
    fn push(&mut self, v: &Value) {
        match self {
            ColumnVec::Int { data, validity } => match v {
                Value::Int(i) => {
                    data.push(*i);
                    validity.push(true);
                }
                _ => {
                    data.push(0);
                    validity.push(false);
                }
            },
            ColumnVec::Float { data, validity } => match v {
                Value::Float(x) => {
                    data.push(*x);
                    validity.push(true);
                }
                _ => {
                    data.push(0.0);
                    validity.push(false);
                }
            },
            ColumnVec::Bool { data, validity } => match v {
                Value::Bool(b) => {
                    data.push(*b);
                    validity.push(true);
                }
                _ => {
                    data.push(false);
                    validity.push(false);
                }
            },
            ColumnVec::Str { data, validity } => match v {
                Value::Str(s) => {
                    data.push(s.clone());
                    validity.push(true);
                }
                _ => {
                    data.push(String::new());
                    validity.push(false);
                }
            },
            ColumnVec::Mixed(data) => data.push(v.clone()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Str { data, .. } => data.len(),
            ColumnVec::Mixed(data) => data.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the cell at row `i` back into a boxed [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, validity } => {
                if validity.is_valid(i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            ColumnVec::Float { data, validity } => {
                if validity.is_valid(i) {
                    Value::Float(data[i])
                } else {
                    Value::Null
                }
            }
            ColumnVec::Bool { data, validity } => {
                if validity.is_valid(i) {
                    Value::Bool(data[i])
                } else {
                    Value::Null
                }
            }
            ColumnVec::Str { data, validity } => {
                if validity.is_valid(i) {
                    Value::Str(data[i].clone())
                } else {
                    Value::Null
                }
            }
            ColumnVec::Mixed(data) => data[i].clone(),
        }
    }

    /// Seal the per-column statistics: min/max over valid rows plus the
    /// null count. Computed once at batch construction.
    fn seal_stats(&self) -> ColStats {
        match self {
            ColumnVec::Int { data, validity } => {
                let mut min = None::<i64>;
                let mut max = None::<i64>;
                for (i, &x) in data.iter().enumerate() {
                    if !validity.is_valid(i) {
                        continue;
                    }
                    min = Some(min.map_or(x, |m| m.min(x)));
                    max = Some(max.map_or(x, |m| m.max(x)));
                }
                ColStats {
                    min: min.map(Value::Int),
                    max: max.map(Value::Int),
                    null_count: validity.count_invalid(),
                }
            }
            ColumnVec::Float { data, validity } => {
                let mut min = None::<f64>;
                let mut max = None::<f64>;
                let mut saw_nan = false;
                for (i, &x) in data.iter().enumerate() {
                    if !validity.is_valid(i) {
                        continue;
                    }
                    if x.is_nan() {
                        saw_nan = true;
                        break;
                    }
                    min = Some(min.map_or(x, |m| m.min(x)));
                    max = Some(max.map_or(x, |m| m.max(x)));
                }
                if saw_nan {
                    // NaN breaks the ordering the zone map relies on;
                    // publish no range rather than a wrong one.
                    min = None;
                    max = None;
                }
                ColStats {
                    min: min.map(Value::Float),
                    max: max.map(Value::Float),
                    null_count: validity.count_invalid(),
                }
            }
            ColumnVec::Bool { data, validity } => {
                let mut min = None::<bool>;
                let mut max = None::<bool>;
                for (i, &b) in data.iter().enumerate() {
                    if !validity.is_valid(i) {
                        continue;
                    }
                    min = Some(min.map_or(b, |m| m & b));
                    max = Some(max.map_or(b, |m| m | b));
                }
                ColStats {
                    min: min.map(Value::Bool),
                    max: max.map(Value::Bool),
                    null_count: validity.count_invalid(),
                }
            }
            ColumnVec::Str { data, validity } => {
                let mut min = None::<&String>;
                let mut max = None::<&String>;
                for (i, s) in data.iter().enumerate() {
                    if !validity.is_valid(i) {
                        continue;
                    }
                    min = Some(min.map_or(s, |m| m.min(s)));
                    max = Some(max.map_or(s, |m| m.max(s)));
                }
                ColStats {
                    min: min.map(|s| Value::Str(s.clone())),
                    max: max.map(|s| Value::Str(s.clone())),
                    null_count: validity.count_invalid(),
                }
            }
            ColumnVec::Mixed(data) => ColStats {
                min: None,
                max: None,
                null_count: data.iter().filter(|v| v.is_null()).count() as u64,
            },
        }
    }
}

/// Comparison operator of a structured filter predicate, usable against
/// the zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Apply the operator to an already-computed ordering of
    /// `left cmp right`.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }
}

/// Totally order two scalar values of compatible types, widening ints
/// against float comparands. `None` for nulls, NaNs, and type mixes the
/// zone map cannot reason about.
pub fn cmp_values(left: &Value, right: &Value) -> Option<Ordering> {
    match (left, right) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
        (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
        (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
        (Value::Str(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_str())),
        (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

/// Evaluate `value op literal` with SQL-ish null semantics: a null value
/// never satisfies a comparison, and incomparable type mixes are false.
pub fn cmp_value(value: &Value, op: CmpOp, literal: &Value) -> bool {
    cmp_values(value, literal).is_some_and(|ord| op.eval(ord))
}

/// Per-column statistics sealed when a [`ColumnarBatch`] is built.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    /// Smallest valid value, `None` when the column has no orderable
    /// values (all null, NaN present, or a `Mixed` column).
    pub min: Option<Value>,
    /// Largest valid value, under the same caveats as `min`.
    pub max: Option<Value>,
    /// Number of null rows.
    pub null_count: u64,
}

impl ColStats {
    /// Zone-map skip rule: true when **no** value in `[min, max]` can
    /// satisfy `value op literal`, i.e. the whole batch can be pruned
    /// without reading the column. Conservative: unknown ranges never
    /// exclude.
    pub fn range_excludes(&self, op: CmpOp, literal: &Value) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return false;
        };
        let (Some(min_ord), Some(max_ord)) = (cmp_values(min, literal), cmp_values(max, literal))
        else {
            return false;
        };
        match op {
            // v < lit fails for all v when min >= lit.
            CmpOp::Lt => min_ord != Ordering::Less,
            CmpOp::Le => min_ord == Ordering::Greater,
            CmpOp::Gt => max_ord != Ordering::Greater,
            CmpOp::Ge => max_ord == Ordering::Less,
            CmpOp::Eq => min_ord == Ordering::Greater || max_ord == Ordering::Less,
            // v != lit only fails everywhere when min == max == lit,
            // which `range_satisfies` handles; a range never excludes !=
            // unless it is that single point.
            CmpOp::Ne => min_ord == Ordering::Equal && max_ord == Ordering::Equal,
        }
    }

    /// Zone-map accept rule: true when **every** valid value in
    /// `[min, max]` satisfies `value op literal` and the column has no
    /// nulls, i.e. the whole batch passes without reading the column.
    pub fn range_satisfies(&self, op: CmpOp, literal: &Value) -> bool {
        if self.null_count > 0 {
            return false;
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return false;
        };
        let (Some(min_ord), Some(max_ord)) = (cmp_values(min, literal), cmp_values(max, literal))
        else {
            return false;
        };
        match op {
            CmpOp::Lt => max_ord == Ordering::Less,
            CmpOp::Le => max_ord != Ordering::Greater,
            CmpOp::Gt => min_ord == Ordering::Greater,
            CmpOp::Ge => min_ord != Ordering::Less,
            CmpOp::Eq => min_ord == Ordering::Equal && max_ord == Ordering::Equal,
            CmpOp::Ne => min_ord == Ordering::Greater || max_ord == Ordering::Less,
        }
    }
}

/// All per-column statistics of one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// One [`ColStats`] per schema column, in schema order.
    pub columns: Vec<ColStats>,
}

impl BatchStats {
    /// Statistics of column `i`.
    pub fn column(&self, i: usize) -> &ColStats {
        &self.columns[i]
    }
}

/// A schema-homogeneous group of rows in columnar layout, with sealed
/// per-column statistics.
///
/// This is the zero-copy payload the live executor routes along DAG
/// edges when columnar mode is on; operators with columnar kernels
/// consume it directly, everything else falls back to
/// [`ColumnarBatch::to_tuples`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    schema: SchemaRef,
    columns: Vec<ColumnVec>,
    stats: BatchStats,
    len: usize,
}

impl ColumnarBatch {
    /// Build from already-validated tuples (the internal seal path: the
    /// producing operator's output schema was checked at DAG-build time).
    /// Schema conformance is only re-checked under `debug_assert`.
    pub fn from_tuples(schema: SchemaRef, tuples: &[Tuple]) -> Self {
        debug_assert!(
            tuples.iter().all(|t| **t.schema() == *schema),
            "from_tuples requires schema-homogeneous input"
        );
        let mut columns: Vec<ColumnVec> = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::empty(f.dtype()))
            .collect();
        for t in tuples {
            for (col, v) in columns.iter_mut().zip(t.values()) {
                col.push(v);
            }
        }
        Self::seal(schema, columns, tuples.len())
    }

    /// Build from rows of raw values, validating each against the schema
    /// (the public, checked entry point — the columnar analogue of
    /// [`Batch::from_rows`]).
    pub fn from_rows(schema: SchemaRef, rows: Vec<Vec<Value>>) -> DataResult<Self> {
        let mut columns: Vec<ColumnVec> = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::empty(f.dtype()))
            .collect();
        let len = rows.len();
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(DataError::ArityMismatch {
                    expected: schema.arity(),
                    actual: row.len(),
                });
            }
            for ((field, col), v) in schema.fields().iter().zip(columns.iter_mut()).zip(row) {
                if !v.conforms_to(field.dtype()) {
                    return Err(DataError::TypeMismatch {
                        column: field.name().to_owned(),
                        expected: field.dtype().to_string(),
                        actual: v.dtype().to_string(),
                    });
                }
                col.push(v);
            }
        }
        Ok(Self::seal(schema, columns, len))
    }

    /// Convert a row batch.
    pub fn from_batch(batch: &Batch) -> Self {
        Self::from_tuples(batch.schema().clone(), batch.tuples())
    }

    fn seal(schema: SchemaRef, columns: Vec<ColumnVec>, len: usize) -> Self {
        let stats = BatchStats {
            columns: columns.iter().map(ColumnVec::seal_stats).collect(),
        };
        ColumnarBatch {
            schema,
            columns,
            stats,
            len,
        }
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The sealed statistics.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Column `i` in schema order.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materialize row `i` as a [`Tuple`] (schema shared, not cloned).
    pub fn tuple_at(&self, i: usize) -> Tuple {
        let values = self.columns.iter().map(|c| c.value_at(i)).collect();
        Tuple::new_unchecked(self.schema.clone(), values)
    }

    /// Materialize all rows back into raw value rows (round-trip inverse
    /// of [`ColumnarBatch::from_rows`]).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len)
            .map(|i| self.columns.iter().map(|c| c.value_at(i)).collect())
            .collect()
    }

    /// Materialize all rows as tuples (the row-compatibility path).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.tuple_at(i)).collect()
    }

    /// Convert back to a row [`Batch`].
    pub fn to_batch(&self) -> Batch {
        Batch::new_unchecked(self.schema.clone(), self.to_tuples())
    }

    /// Wrap into a shared, reference-counted handle.
    pub fn into_shared(self) -> Arc<ColumnarBatch> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(3), Value::Str("c".into()), Value::Float(0.5)],
            vec![Value::Int(1), Value::Null, Value::Float(2.5)],
            vec![Value::Int(7), Value::Str("a".into()), Value::Null],
        ]
    }

    #[test]
    fn roundtrip_from_rows_to_rows() {
        let cb = ColumnarBatch::from_rows(schema(), rows()).unwrap();
        assert_eq!(cb.len(), 3);
        assert_eq!(cb.to_rows(), rows());
    }

    #[test]
    fn roundtrip_through_row_batch() {
        let b = Batch::from_rows(schema(), rows()).unwrap();
        let cb = ColumnarBatch::from_batch(&b);
        assert_eq!(cb.to_batch(), b);
        assert_eq!(cb.to_tuples(), b.tuples());
    }

    #[test]
    fn from_rows_validates() {
        let bad = ColumnarBatch::from_rows(
            schema(),
            vec![vec![Value::Str("x".into()), Value::Null, Value::Null]],
        );
        assert!(bad.is_err());
        let short = ColumnarBatch::from_rows(schema(), vec![vec![Value::Int(1)]]);
        assert!(short.is_err());
    }

    #[test]
    fn stats_sealed_at_construction() {
        let cb = ColumnarBatch::from_rows(schema(), rows()).unwrap();
        let id = cb.stats().column(0);
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(7)));
        assert_eq!(id.null_count, 0);
        let name = cb.stats().column(1);
        assert_eq!(name.min, Some(Value::Str("a".into())));
        assert_eq!(name.max, Some(Value::Str("c".into())));
        assert_eq!(name.null_count, 1);
        let score = cb.stats().column(2);
        assert_eq!(score.min, Some(Value::Float(0.5)));
        assert_eq!(score.max, Some(Value::Float(2.5)));
        assert_eq!(score.null_count, 1);
    }

    #[test]
    fn nan_column_publishes_no_range() {
        let s = Schema::of(&[("x", DataType::Float)]);
        let cb = ColumnarBatch::from_rows(
            s,
            vec![vec![Value::Float(1.0)], vec![Value::Float(f64::NAN)]],
        )
        .unwrap();
        let st = cb.stats().column(0);
        assert_eq!(st.min, None);
        assert_eq!(st.max, None);
        assert!(!st.range_excludes(CmpOp::Gt, &Value::Float(100.0)));
    }

    #[test]
    fn zone_map_excludes_and_satisfies() {
        // id in [1, 7]
        let cb = ColumnarBatch::from_rows(schema(), rows()).unwrap();
        let id = cb.stats().column(0);
        assert!(id.range_excludes(CmpOp::Gt, &Value::Int(10)));
        assert!(id.range_excludes(CmpOp::Lt, &Value::Int(1)));
        assert!(id.range_excludes(CmpOp::Eq, &Value::Int(0)));
        assert!(id.range_excludes(CmpOp::Ge, &Value::Int(8)));
        assert!(!id.range_excludes(CmpOp::Gt, &Value::Int(5)));
        assert!(id.range_satisfies(CmpOp::Ge, &Value::Int(1)));
        assert!(id.range_satisfies(CmpOp::Le, &Value::Int(7)));
        assert!(id.range_satisfies(CmpOp::Ne, &Value::Int(100)));
        assert!(!id.range_satisfies(CmpOp::Gt, &Value::Int(1)));
        // A nullable column never blanket-satisfies.
        let name = cb.stats().column(1);
        assert!(!name.range_satisfies(CmpOp::Ge, &Value::Str("a".into())));
    }

    #[test]
    fn single_point_range_excludes_ne() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let cb =
            ColumnarBatch::from_rows(s, vec![vec![Value::Int(4)], vec![Value::Int(4)]]).unwrap();
        assert!(cb
            .stats()
            .column(0)
            .range_excludes(CmpOp::Ne, &Value::Int(4)));
        assert!(!cb
            .stats()
            .column(0)
            .range_excludes(CmpOp::Ne, &Value::Int(5)));
    }

    #[test]
    fn cmp_value_null_and_mismatch_are_false() {
        assert!(!cmp_value(&Value::Null, CmpOp::Eq, &Value::Null));
        assert!(!cmp_value(
            &Value::Str("a".into()),
            CmpOp::Lt,
            &Value::Int(1)
        ));
        assert!(cmp_value(&Value::Int(2), CmpOp::Lt, &Value::Float(2.5)));
        assert!(cmp_value(&Value::Float(2.0), CmpOp::Ge, &Value::Int(2)));
        assert!(cmp_value(
            &Value::Bool(true),
            CmpOp::Gt,
            &Value::Bool(false)
        ));
    }

    #[test]
    fn bitmap_tracks_validity() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 != 0);
        }
        assert_eq!(bm.len(), 130);
        assert!(!bm.is_valid(0));
        assert!(bm.is_valid(1));
        assert!(!bm.is_valid(129));
        assert_eq!(bm.count_invalid(), 44);
        let av = Bitmap::all_valid(70);
        assert_eq!(av.count_invalid(), 0);
        assert!(av.is_valid(69));
    }

    #[test]
    fn mixed_column_roundtrips() {
        let s = Schema::of(&[("blob", DataType::List)]);
        let rows = vec![vec![Value::List(vec![Value::Int(1)])], vec![Value::Null]];
        let cb = ColumnarBatch::from_rows(s, rows.clone()).unwrap();
        assert_eq!(cb.to_rows(), rows);
        assert_eq!(cb.stats().column(0).null_count, 1);
        assert_eq!(cb.stats().column(0).min, None);
    }

    #[test]
    fn empty_batch() {
        let cb = ColumnarBatch::from_rows(schema(), vec![]).unwrap();
        assert!(cb.is_empty());
        assert_eq!(cb.stats().column(0).min, None);
        assert!(cb.to_rows().is_empty());
    }
}
