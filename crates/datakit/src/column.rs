//! Columnar batch representation with per-batch statistics.
//!
//! The row-oriented [`Batch`] moves `Vec<Tuple>`s of boxed
//! [`Value`]s between operators, so every hot inner loop (filter
//! predicates, join key extraction, aggregate kernels) pays a dynamic
//! `Value` match per cell. [`ColumnarBatch`] stores the same data as one
//! typed vector per column ([`ColumnVec`]) plus a validity bitmap for
//! nulls. Per-column min/max/null-count statistics ([`ColStats`]) are
//! computed when a consumer asks for a column's
//! ([`ColumnarBatch::column_stats`]), not at construction; the columns
//! never change after construction, so a zone map computed later
//! describes them as well as one computed at once. Operators can then:
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
use std::ops::Range;
use std::sync::Arc;

use crate::batch::Batch;
use crate::error::{DataError, DataResult};
use crate::key::KeyRef;
use crate::schema::SchemaRef;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// A packed validity bitmap: bit `i` set means row `i` is non-null.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    /// Number of cleared bits, kept as bits are appended so the gather
    /// kernels can ask "any nulls?" without a popcount pass.
    invalid: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap {
            words: Vec::new(),
            len: 0,
            invalid: 0,
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
        Bitmap {
            words,
            len,
            invalid: 0,
        }
    }

    /// Append one bit.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << bit;
        } else {
            self.invalid += 1;
        }
        self.len += 1;
    }

    /// Gather the bits at `indices`, in that order.
    pub fn take(&self, indices: &[u32]) -> Bitmap {
        if self.invalid == 0 {
            return Bitmap::all_valid(indices.len());
        }
        let mut out = Bitmap::new();
        out.words.reserve(indices.len().div_ceil(64));
        for &i in indices {
            out.push(self.is_valid(i as usize));
        }
        out
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
        self.invalid as u64
    }

    /// Number of invalid rows among `rows`.
    pub(crate) fn count_invalid_in(&self, rows: Range<usize>) -> u64 {
        if self.invalid == 0 {
            return 0;
        }
        if rows == (0..self.len) {
            return self.invalid as u64;
        }
        rows.filter(|&i| !self.is_valid(i)).count() as u64
    }
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap::new()
    }
}

/// A column of strings stored packed: every string's UTF-8 bytes in one
/// buffer plus one end offset per string, so building, gathering and
/// comparing a string column allocates per batch, not per cell.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrVec {
    bytes: String,
    /// `ends[i]` is the byte offset one past string `i`; it starts where
    /// string `i - 1` ends.
    ends: Vec<usize>,
}

impl StrVec {
    /// An empty vector.
    pub fn new() -> Self {
        StrVec::default()
    }

    /// An empty vector with room for `rows` strings of `bytes` total bytes.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        StrVec {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(rows),
        }
    }

    /// Append one string.
    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the vector holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// String `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.start_of(i)..self.ends[i]]
    }

    /// Byte offset where string `i` starts: where string `i - 1` ends.
    fn start_of(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// The bytes of strings `rows`, back to back.
    pub(crate) fn span(&self, rows: Range<usize>) -> &str {
        &self.bytes[self.start_of(rows.start)..self.start_of(rows.end)]
    }

    /// The strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.iter_rows(0..self.len())
    }

    /// Strings `rows`, in order.
    pub(crate) fn iter_rows(&self, rows: Range<usize>) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = self.start_of(rows.start);
        self.ends[rows].iter().map(move |&end| {
            let s = &self.bytes[start..end];
            start = end;
            s
        })
    }

    /// Gather the strings at `indices`, in that order.
    pub fn take(&self, indices: &[u32]) -> StrVec {
        // Sized as if the gathered rows were of average length.
        let bytes = (self.bytes.len() * indices.len()).div_ceil(self.len().max(1));
        let mut out = StrVec::with_capacity(indices.len(), bytes);
        for &i in indices {
            out.push(self.get(i as usize));
        }
        out
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
    /// UTF-8 strings, packed.
    Str {
        /// Cell values (placeholder `""` where invalid).
        data: StrVec,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Fallback for column types without a dense representation
    /// (`Bytes`, `List`, `Null`-typed columns): the boxed values as-is.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    /// Build the dense representation for `dtype` from one cell per row.
    /// Every cell should conform to the type (nulls always do) — the row
    /// constructors check that first; in a dense column a cell that does
    /// not reads back as null.
    pub fn from_cells<'a>(
        dtype: DataType,
        cells: impl ExactSizeIterator<Item = &'a Value>,
    ) -> Self {
        /// One typed vector plus validity; non-conforming cells (nulls)
        /// become the placeholder.
        fn dense<'a, T: Copy>(
            cells: impl ExactSizeIterator<Item = &'a Value>,
            placeholder: T,
            get: impl Fn(&Value) -> Option<T>,
        ) -> (Vec<T>, Bitmap) {
            let mut data = Vec::with_capacity(cells.len());
            let mut validity = Bitmap::new();
            for v in cells {
                let cell = get(v);
                data.push(cell.unwrap_or(placeholder));
                validity.push(cell.is_some());
            }
            (data, validity)
        }
        match dtype {
            DataType::Int => {
                let (data, validity) = dense(cells, 0, Value::as_int);
                ColumnVec::Int { data, validity }
            }
            DataType::Float => {
                let (data, validity) = dense(cells, 0.0, |v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                });
                ColumnVec::Float { data, validity }
            }
            DataType::Bool => {
                let (data, validity) = dense(cells, false, Value::as_bool);
                ColumnVec::Bool { data, validity }
            }
            DataType::Str => {
                let mut data = StrVec::with_capacity(cells.len(), 0);
                let mut validity = Bitmap::new();
                for v in cells {
                    let cell = v.as_str();
                    data.push(cell.unwrap_or(""));
                    validity.push(cell.is_some());
                }
                ColumnVec::Str { data, validity }
            }
            DataType::Null | DataType::Bytes | DataType::List => {
                ColumnVec::Mixed(cells.cloned().collect())
            }
        }
    }

    /// An empty column with room for `rows` cells, in the representation
    /// [`ColumnVec::from_cells`] builds for `dtype` — what a decoder that
    /// reads cells one at a time pushes onto.
    pub(crate) fn with_capacity(dtype: DataType, rows: usize) -> Self {
        let validity = Bitmap::new();
        match dtype {
            DataType::Int => ColumnVec::Int {
                data: Vec::with_capacity(rows),
                validity,
            },
            DataType::Float => ColumnVec::Float {
                data: Vec::with_capacity(rows),
                validity,
            },
            DataType::Bool => ColumnVec::Bool {
                data: Vec::with_capacity(rows),
                validity,
            },
            DataType::Str => ColumnVec::Str {
                data: StrVec::with_capacity(rows, 0),
                validity,
            },
            DataType::Null | DataType::Bytes | DataType::List => {
                ColumnVec::Mixed(Vec::with_capacity(rows))
            }
        }
    }

    /// Gather the rows at `indices`, in that order, keeping validity.
    pub fn take(&self, indices: &[u32]) -> ColumnVec {
        fn gather<T: Copy>(data: &[T], indices: &[u32]) -> Vec<T> {
            indices.iter().map(|&i| data[i as usize]).collect()
        }
        match self {
            ColumnVec::Int { data, validity } => ColumnVec::Int {
                data: gather(data, indices),
                validity: validity.take(indices),
            },
            ColumnVec::Float { data, validity } => ColumnVec::Float {
                data: gather(data, indices),
                validity: validity.take(indices),
            },
            ColumnVec::Bool { data, validity } => ColumnVec::Bool {
                data: gather(data, indices),
                validity: validity.take(indices),
            },
            ColumnVec::Str { data, validity } => ColumnVec::Str {
                data: data.take(indices),
                validity: validity.take(indices),
            },
            ColumnVec::Mixed(data) => {
                ColumnVec::Mixed(indices.iter().map(|&i| data[i as usize].clone()).collect())
            }
        }
    }

    /// Append this column's cell of every row to that row's values.
    fn append_to(&self, rows: &mut [Vec<Value>]) {
        fn dense<T>(
            rows: &mut [Vec<Value>],
            data: impl Iterator<Item = T>,
            validity: &Bitmap,
            boxed: impl Fn(T) -> Value,
        ) {
            for (i, (row, x)) in rows.iter_mut().zip(data).enumerate() {
                row.push(if validity.is_valid(i) {
                    boxed(x)
                } else {
                    Value::Null
                });
            }
        }
        match self {
            ColumnVec::Int { data, validity } => {
                dense(rows, data.iter().copied(), validity, Value::Int)
            }
            ColumnVec::Float { data, validity } => {
                dense(rows, data.iter().copied(), validity, Value::Float)
            }
            ColumnVec::Bool { data, validity } => {
                dense(rows, data.iter().copied(), validity, Value::Bool)
            }
            ColumnVec::Str { data, validity } => {
                dense(rows, data.iter(), validity, |s| Value::Str(s.to_owned()))
            }
            ColumnVec::Mixed(data) => {
                for (row, v) in rows.iter_mut().zip(data) {
                    row.push(v.clone());
                }
            }
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
                    Value::Str(data.get(i).to_owned())
                } else {
                    Value::Null
                }
            }
            ColumnVec::Mixed(data) => data[i].clone(),
        }
    }

    /// The cell at row `i` as a join, group or partition key, read off the
    /// typed vector: no [`Value`] and no owned string is built. Only a
    /// `Mixed` column can hold a cell that is no key (`Bytes`, `List`).
    pub fn key_at(&self, i: usize) -> DataResult<KeyRef<'_>> {
        Ok(match self {
            ColumnVec::Int { data, validity } if validity.is_valid(i) => KeyRef::Int(data[i]),
            ColumnVec::Float { data, validity } if validity.is_valid(i) => KeyRef::float(data[i]),
            ColumnVec::Bool { data, validity } if validity.is_valid(i) => KeyRef::Bool(data[i]),
            ColumnVec::Str { data, validity } if validity.is_valid(i) => KeyRef::Str(data.get(i)),
            ColumnVec::Mixed(data) => return KeyRef::of(&data[i]),
            _ => KeyRef::Null,
        })
    }

    /// What [`ColumnarBatch::from_columns`] checks of one column: the
    /// representation is the one [`ColumnVec::from_cells`] builds for
    /// `dtype`, one validity bit per cell. `Err` names what it holds
    /// instead.
    fn check_dtype(&self, dtype: DataType) -> Result<(), String> {
        let dense = |rows: usize, validity: &Bitmap, holds: DataType| {
            if validity.len() != rows {
                let bits = validity.len();
                Err(format!(
                    "{holds} column of {rows} cells, {bits} validity bits"
                ))
            } else if holds != dtype {
                Err(format!("{holds} column"))
            } else {
                Ok(())
            }
        };
        match self {
            ColumnVec::Int { data, validity } => dense(data.len(), validity, DataType::Int),
            ColumnVec::Float { data, validity } => dense(data.len(), validity, DataType::Float),
            ColumnVec::Bool { data, validity } => dense(data.len(), validity, DataType::Bool),
            ColumnVec::Str { data, validity } => dense(data.len(), validity, DataType::Str),
            ColumnVec::Mixed(cells) => match dtype {
                DataType::Null | DataType::Bytes | DataType::List => cells
                    .iter()
                    .find(|v| !v.conforms_to(dtype))
                    .map_or(Ok(()), |v| Err(v.dtype().to_string())),
                _ => Err("boxed column".to_owned()),
            },
        }
    }

    /// The per-column statistics of `rows`: min/max over the valid ones
    /// plus the null count — what [`ColumnarBatch::column_stats`] of
    /// [`ColumnVec::take`] of those rows returns. Computed once per stored
    /// block, and each time a consumer asks about a batch column.
    fn stats_over(&self, rows: Range<usize>) -> ColStats {
        /// Smallest and largest valid cell, boxed.
        fn range<T: Copy>(
            data: impl Iterator<Item = T>,
            validity: &Bitmap,
            rows: Range<usize>,
            boxed: impl Fn(T) -> Value,
            less: impl Fn(T, T) -> bool,
        ) -> ColStats {
            let mut range = None::<(T, T)>;
            let mut widen = |x: T| {
                range = Some(match range {
                    None => (x, x),
                    Some((min, max)) => (
                        if less(x, min) { x } else { min },
                        if less(max, x) { x } else { max },
                    ),
                });
            };
            let null_count = validity.count_invalid_in(rows.clone());
            if null_count == 0 {
                data.for_each(&mut widen);
            } else {
                data.zip(rows)
                    .filter(|&(_, i)| validity.is_valid(i))
                    .for_each(|(x, _)| widen(x));
            }
            ColStats {
                min: range.map(|(min, _)| boxed(min)),
                max: range.map(|(_, max)| boxed(max)),
                null_count,
            }
        }
        match self {
            ColumnVec::Int { data, validity } => range(
                data[rows.clone()].iter().copied(),
                validity,
                rows,
                Value::Int,
                |a, b| a < b,
            ),
            ColumnVec::Float { data, validity } => {
                let valid_nan = |(x, i): (&f64, usize)| x.is_nan() && validity.is_valid(i);
                if data[rows.clone()].iter().zip(rows.clone()).any(valid_nan) {
                    // NaN breaks the ordering the zone map relies on;
                    // publish no range rather than a wrong one.
                    return ColStats {
                        min: None,
                        max: None,
                        null_count: validity.count_invalid_in(rows),
                    };
                }
                range(
                    data[rows.clone()].iter().copied(),
                    validity,
                    rows,
                    Value::Float,
                    |a, b| a < b,
                )
            }
            ColumnVec::Bool { data, validity } => range(
                data[rows.clone()].iter().copied(),
                validity,
                rows,
                Value::Bool,
                |a, b| !a & b,
            ),
            ColumnVec::Str { data, validity } => range(
                data.iter_rows(rows.clone()),
                validity,
                rows,
                |s| Value::Str(s.to_owned()),
                |a, b| a < b,
            ),
            ColumnVec::Mixed(data) => ColStats {
                min: None,
                max: None,
                null_count: data[rows].iter().filter(|v| v.is_null()).count() as u64,
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

/// Per-column statistics of a [`ColumnarBatch`], computed when read.
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

/// A schema-homogeneous group of rows in columnar layout, with
/// per-column statistics computed on demand.
///
/// This is the zero-copy payload the live executor routes along DAG
/// edges when columnar mode is on; operators with columnar kernels
/// consume it directly, everything else falls back to
/// [`ColumnarBatch::to_tuples`]. The columns are immutable once sealed
/// and sit behind one `Arc`, so cloning a batch — an operator passing
/// its input through, a broadcast edge — is a reference-count bump.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    schema: SchemaRef,
    columns: Arc<Vec<ColumnVec>>,
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
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(j, f)| ColumnVec::from_cells(f.dtype(), tuples.iter().map(|t| t.at(j))))
            .collect();
        Self::seal(schema, columns, tuples.len())
    }

    /// Build from rows of raw values, validating each against the schema
    /// (the public, checked entry point — the columnar analogue of
    /// [`Batch::from_rows`]).
    pub fn from_rows(schema: SchemaRef, rows: Vec<Vec<Value>>) -> DataResult<Self> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(DataError::ArityMismatch {
                    expected: schema.arity(),
                    actual: row.len(),
                });
            }
            for (field, v) in schema.fields().iter().zip(row) {
                if !v.conforms_to(field.dtype()) {
                    return Err(DataError::TypeMismatch {
                        column: field.name().to_owned(),
                        expected: field.dtype().to_string(),
                        actual: v.dtype().to_string(),
                    });
                }
            }
        }
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(j, f)| ColumnVec::from_cells(f.dtype(), rows.iter().map(|r| &r[j])))
            .collect();
        let len = rows.len();
        Ok(Self::seal(schema, columns, len))
    }

    /// Build from whole columns, one per schema field in schema order —
    /// the checked entry point for a kernel that produces columns
    /// (gathered with [`ColumnVec::take`], built with
    /// [`ColumnVec::from_cells`]) instead of rows. Checks the column
    /// count, that every column holds the same number of rows, and each
    /// column's representation against its field's type. As in every
    /// constructor, no statistics are computed here.
    pub fn from_columns(schema: SchemaRef, columns: Vec<ColumnVec>) -> DataResult<Self> {
        if columns.len() != schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: schema.arity(),
                actual: columns.len(),
            });
        }
        let len = columns.first().map_or(0, ColumnVec::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != len {
                return Err(DataError::RaggedColumns {
                    column: field.name().to_owned(),
                    expected: len,
                    actual: col.len(),
                });
            }
            col.check_dtype(field.dtype())
                .map_err(|actual| DataError::TypeMismatch {
                    column: field.name().to_owned(),
                    expected: field.dtype().to_string(),
                    actual,
                })?;
        }
        Ok(Self::seal(schema, columns, len))
    }

    /// Convert a row batch.
    pub fn from_batch(batch: &Batch) -> Self {
        Self::from_tuples(batch.schema().clone(), batch.tuples())
    }

    pub(crate) fn seal(schema: SchemaRef, columns: Vec<ColumnVec>, len: usize) -> Self {
        ColumnarBatch {
            schema,
            columns: Arc::new(columns),
            len,
        }
    }

    /// Gather the rows at `indices`, in that order, into a new batch whose
    /// statistics, when read, cover exactly those rows — the batch
    /// [`ColumnarBatch::from_tuples`] would build from the same rows,
    /// without materializing them.
    pub fn take(&self, indices: &[u32]) -> ColumnarBatch {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Self::seal(self.schema.clone(), columns, indices.len())
    }

    /// The batch cut into batches of at most `rows` rows, in order. A
    /// batch that already fits is handed back as it is (a reference-count
    /// bump); the pieces of a longer one are gathered with
    /// [`ColumnarBatch::take`]. An empty batch has no pieces.
    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = ColumnarBatch> + '_ {
        assert!(rows > 0, "chunk size must be positive");
        let fits = self.len <= rows;
        let whole = (fits && !self.is_empty()).then(|| self.clone());
        let pieces = if fits { 0 } else { self.len.div_ceil(rows) };
        whole.into_iter().chain((0..pieces).map(move |k| {
            let piece: Vec<u32> = (k * rows..self.len.min((k + 1) * rows))
                .map(|i| i as u32)
                .collect();
            self.take(&piece)
        }))
    }

    /// The statistics [`ColumnarBatch::take`] of `rows` would report,
    /// computed in place.
    pub(crate) fn stats_over(&self, rows: Range<usize>) -> BatchStats {
        let columns = self.columns.iter();
        BatchStats {
            columns: columns.map(|c| c.stats_over(rows.clone())).collect(),
        }
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Statistics of column `i` over the whole batch, computed on each
    /// call: a reader asks for the one column it prunes on, once a batch.
    pub fn column_stats(&self, i: usize) -> ColStats {
        self.columns[i].stats_over(0..self.len)
    }

    /// Statistics of every column.
    pub fn stats(&self) -> BatchStats {
        self.stats_over(0..self.len)
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

    /// Live references to the sealed columns (diagnostics).
    pub(crate) fn ref_count(&self) -> usize {
        Arc::strong_count(&self.columns)
    }

    /// Materialize row `i` as a [`Tuple`] (schema shared, not cloned).
    pub fn tuple_at(&self, i: usize) -> Tuple {
        let values = self.columns.iter().map(|c| c.value_at(i));
        Tuple::collect_unchecked(self.schema.clone(), values)
    }

    /// Materialize all rows back into raw value rows (round-trip inverse
    /// of [`ColumnarBatch::from_rows`]), one column at a time.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let arity = self.schema.arity();
        let mut rows: Vec<Vec<Value>> = (0..self.len).map(|_| Vec::with_capacity(arity)).collect();
        for col in self.columns.iter() {
            col.append_to(&mut rows);
        }
        rows
    }

    /// Materialize all rows as tuples (the row-compatibility path), each
    /// built in place: one allocation per row.
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
    use scriptflow_simcluster::SplitMix64;

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
        let id = cb.column_stats(0);
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(7)));
        assert_eq!(id.null_count, 0);
        let name = cb.column_stats(1);
        assert_eq!(name.min, Some(Value::Str("a".into())));
        assert_eq!(name.max, Some(Value::Str("c".into())));
        assert_eq!(name.null_count, 1);
        let score = cb.column_stats(2);
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
        let st = cb.column_stats(0);
        assert_eq!(st.min, None);
        assert_eq!(st.max, None);
        assert!(!st.range_excludes(CmpOp::Gt, &Value::Float(100.0)));
    }

    #[test]
    fn zone_map_excludes_and_satisfies() {
        // id in [1, 7]
        let cb = ColumnarBatch::from_rows(schema(), rows()).unwrap();
        let id = cb.column_stats(0);
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
        let name = cb.column_stats(1);
        assert!(!name.range_satisfies(CmpOp::Ge, &Value::Str("a".into())));
    }

    #[test]
    fn single_point_range_excludes_ne() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let cb =
            ColumnarBatch::from_rows(s, vec![vec![Value::Int(4)], vec![Value::Int(4)]]).unwrap();
        assert!(cb.column_stats(0).range_excludes(CmpOp::Ne, &Value::Int(4)));
        assert!(!cb.column_stats(0).range_excludes(CmpOp::Ne, &Value::Int(5)));
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
    fn str_vec_roundtrips_empty_multibyte_and_null_cells() {
        let mut v = StrVec::new();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v.take(&[]), StrVec::new());
        let cells = ["", "a", "", "héllo", "日本語", "🦀", ""];
        for c in cells {
            v.push(c);
        }
        assert_eq!(v.len(), cells.len());
        assert_eq!(v.iter().collect::<Vec<_>>(), cells);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(v.get(i), *c);
        }
        let picked = v.take(&[5, 0, 4, 4, 3]);
        assert_eq!(
            picked.iter().collect::<Vec<_>>(),
            ["🦀", "", "日本語", "日本語", "héllo"]
        );

        // Through a batch: nulls render as Null, empty strings stay "".
        let s = Schema::of(&[("s", DataType::Str)]);
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Str(String::new())],
            vec![Value::Null],
            vec![Value::Str("日本語".into())],
            vec![Value::Null],
        ];
        let cb = ColumnarBatch::from_rows(s.clone(), rows.clone()).unwrap();
        assert_eq!(cb.to_rows(), rows);
        assert_eq!(cb.column_stats(0).null_count, 2);
        assert_eq!(cb.column_stats(0).min, Some(Value::Str(String::new())));
        let none = ColumnarBatch::from_rows(s, vec![]).unwrap();
        assert!(none.to_tuples().is_empty());
        assert!(none.take(&[]).is_empty());
    }

    #[test]
    fn take_keeps_validity_and_reseals_the_stats_from_tuples_would() {
        let s = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("ok", DataType::Bool),
            ("blob", DataType::List),
        ]);
        let rows: Vec<Vec<Value>> = (0..200i64)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i * 37 % 101)
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("n{}é", i * 13 % 89))
                    },
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float((i * 29 % 97) as f64 * 0.5)
                    },
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                    Value::List(vec![Value::Int(i)]),
                ]
            })
            .collect();
        let cb = ColumnarBatch::from_rows(s.clone(), rows).unwrap();
        let all = cb.to_tuples();
        for indices in [
            vec![],
            vec![0u32],
            vec![199, 0, 7, 7, 35],
            (0..200).step_by(3).collect::<Vec<u32>>(),
            (0..200).collect(),
            // Only null ids: the range must come back unknown.
            vec![0, 7, 14],
        ] {
            let picked: Vec<Tuple> = indices.iter().map(|&i| all[i as usize].clone()).collect();
            let expect = ColumnarBatch::from_tuples(s.clone(), &picked);
            let got = cb.take(&indices);
            assert_eq!(got, expect, "{indices:?}");
            assert_eq!(got.stats(), expect.stats());
            assert_eq!(got.to_tuples(), picked);
        }
        // A clone shares the sealed columns instead of copying them, and
        // so does the one chunk of a batch that fits.
        let twin = cb.clone();
        assert!(std::ptr::eq(cb.column(0), twin.column(0)));
        for size in [200, 500] {
            let whole: Vec<ColumnarBatch> = cb.chunks(size).collect();
            assert_eq!(whole.len(), 1);
            assert!(std::ptr::eq(cb.column(0), whole[0].column(0)));
        }
        let pieces: Vec<ColumnarBatch> = cb.chunks(64).collect();
        let lens: Vec<usize> = pieces.iter().map(ColumnarBatch::len).collect();
        assert_eq!(lens, [64, 64, 64, 8]);
        assert_eq!(pieces[3], cb.take(&(192..200).collect::<Vec<u32>>()));
        let rejoined: Vec<Tuple> = pieces.iter().flat_map(ColumnarBatch::to_tuples).collect();
        assert_eq!(rejoined, all);
        assert_eq!(cb.take(&[]).chunks(64).count(), 0);
    }

    #[test]
    fn from_columns_checks_shape_and_seals_what_from_tuples_would() {
        let s = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("blob", DataType::List),
        ]);
        let rows = vec![
            vec![Value::Int(3), Value::Null, Value::List(vec![Value::Int(1)])],
            vec![Value::Null, Value::Str("a".into()), Value::Null],
        ];
        let by_rows = ColumnarBatch::from_rows(s.clone(), rows.clone()).unwrap();
        let column =
            |j: usize| ColumnVec::from_cells(s.fields()[j].dtype(), rows.iter().map(|r| &r[j]));
        let by_columns =
            ColumnarBatch::from_columns(s.clone(), (0..3).map(column).collect()).unwrap();
        assert_eq!(by_columns, by_rows);
        assert_eq!(by_columns.stats(), by_rows.stats());
        // Gathered columns hold exactly the gathered rows.
        let gathered = (0..3).map(|j| by_rows.column(j).take(&[1, 1])).collect();
        let twice = ColumnarBatch::from_columns(s.clone(), gathered).unwrap();
        assert_eq!(twice, by_rows.take(&[1, 1]));
        let none = ColumnarBatch::from_columns(Schema::of(&[]), vec![]).unwrap();
        assert!(none.is_empty());

        let err = |columns| ColumnarBatch::from_columns(s.clone(), columns).unwrap_err();
        assert_eq!(
            err(vec![column(0), column(1)]),
            DataError::ArityMismatch {
                expected: 3,
                actual: 2
            }
        );
        assert!(matches!(
            err(vec![column(0), column(1).take(&[0]), column(2)]),
            DataError::RaggedColumns { column, expected: 2, actual: 1 } if column == "name"
        ));
        // A column of the wrong representation, a boxed cell of the wrong
        // type, a dense type held boxed, validity of another length.
        for wrong in [
            vec![column(1), column(1), column(2)],
            vec![
                column(0),
                column(1),
                ColumnVec::Mixed(vec![Value::Int(1); 2]),
            ],
            vec![
                ColumnVec::Mixed(vec![Value::Int(1); 2]),
                column(1),
                column(2),
            ],
            vec![
                ColumnVec::Int {
                    data: vec![1, 2],
                    validity: Bitmap::all_valid(3),
                },
                column(1),
                column(2),
            ],
        ] {
            assert!(matches!(err(wrong), DataError::TypeMismatch { .. }));
        }
    }

    #[test]
    fn key_at_reads_typed_cells_with_hash_key_normalization() {
        let s = Schema::of(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::Str),
            ("l", DataType::List),
        ]);
        let rows = vec![
            vec![
                Value::Int(7),
                Value::Float(-0.0),
                Value::Bool(true),
                Value::Str("é".into()),
                Value::Null,
            ],
            vec![
                Value::Null,
                Value::Float(f64::NAN),
                Value::Null,
                Value::Null,
                Value::List(vec![]),
            ],
        ];
        let cb = ColumnarBatch::from_rows(s, rows.clone()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(cb.column(j).key_at(i), KeyRef::of(v), "row {i} column {j}");
            }
        }
        assert!(cb.column(4).key_at(1).is_err(), "a list is no key");
    }

    #[test]
    fn mixed_column_roundtrips() {
        let s = Schema::of(&[("blob", DataType::List)]);
        let rows = vec![vec![Value::List(vec![Value::Int(1)])], vec![Value::Null]];
        let cb = ColumnarBatch::from_rows(s, rows.clone()).unwrap();
        assert_eq!(cb.to_rows(), rows);
        assert_eq!(cb.column_stats(0).null_count, 1);
        assert_eq!(cb.column_stats(0).min, None);
    }

    #[test]
    fn empty_batch() {
        let cb = ColumnarBatch::from_rows(schema(), vec![]).unwrap();
        assert!(cb.is_empty());
        assert_eq!(cb.column_stats(0).min, None);
        assert!(cb.to_rows().is_empty());
    }

    /// A random batch of every column type: nulls throughout, NaN and
    /// `-0.0` floats, multibyte strings, and boxed (`Mixed`) columns. Each
    /// length 0 and 1 comes up often.
    fn random_batch(rng: &mut SplitMix64) -> ColumnarBatch {
        let s = Schema::of(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::Str),
            ("y", DataType::Bytes),
            ("l", DataType::List),
            ("n", DataType::Null),
        ]);
        let len = match rng.range(0..4usize) {
            0 => 0,
            1 => 1,
            _ => rng.range(2..90usize),
        };
        let null_share = [0.0, 0.3, 1.0][rng.range(0..3usize)];
        let rows = (0..len)
            .map(|_| {
                let cells = [
                    Value::Int(rng.range(-50..50i64)),
                    Value::Float(match rng.range(0..8usize) {
                        0 => f64::NAN,
                        1 => -0.0,
                        _ => rng.range(-400..400i64) as f64 * 0.25,
                    }),
                    Value::Bool(rng.bool(0.5)),
                    Value::Str(["", "a", "é", "zz", "ab"][rng.range(0..5usize)].to_owned()),
                    Value::Bytes(vec![rng.range(0..4usize) as u8].into()),
                    Value::List(vec![Value::Int(rng.range(0..3i64))]),
                    Value::Null,
                ];
                let keep = |v: Value, rng: &mut SplitMix64| {
                    if rng.bool(null_share) {
                        Value::Null
                    } else {
                        v
                    }
                };
                cells.into_iter().map(|v| keep(v, rng)).collect()
            })
            .collect();
        ColumnarBatch::from_rows(s, rows).unwrap()
    }

    /// Statistics agree however a batch with the same rows was built —
    /// gathered with `take` or rebuilt from the gathered tuples — and
    /// `stats_over` of a range in place is what `take` of that range
    /// reports.
    #[test]
    fn statistics_agree_across_constructors_and_ranges() {
        let mut rng = SplitMix64::new(0x057A_75ED);
        for case in 0..300 {
            let cb = random_batch(&mut rng);
            // Repeats and every order; an empty batch has nothing to pick.
            let picked = if cb.is_empty() {
                0
            } else {
                rng.range(0..cb.len() + 2)
            };
            let indices: Vec<u32> = (0..picked).map(|_| rng.range(0..cb.len()) as u32).collect();
            let taken = cb.take(&indices);
            let by_tuples = ColumnarBatch::from_tuples(cb.schema().clone(), &taken.to_tuples());
            assert_eq!(by_tuples.stats(), taken.stats(), "case {case} take");
            let start = rng.range(0..cb.len() + 1);
            let end = rng.range(start..cb.len() + 1);
            let range: Vec<u32> = (start as u32..end as u32).collect();
            assert_eq!(
                cb.stats_over(start..end),
                cb.take(&range).stats(),
                "case {case} rows {start}..{end}"
            );
        }
    }
}
