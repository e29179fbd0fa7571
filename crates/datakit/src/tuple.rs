//! A single row bound to a shared schema.

use std::fmt;
use std::sync::Arc;

use crate::error::{DataError, DataResult};
use crate::schema::SchemaRef;
use crate::value::Value;

/// One row: a schema handle plus one [`Value`] per column.
///
/// Tuples are the unit of data the workflow engine pushes along DAG edges
/// and the unit the paper's Fig. 9 counts per operator. A tuple is
/// immutable and keeps its values behind one shared allocation, so a
/// clone — a fan-out edge, a scan partition, a broadcast consumer, a sink
/// read — is two reference-count bumps, whatever the row holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    schema: SchemaRef,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple, validating arity and per-column types.
    pub fn new(schema: SchemaRef, values: Vec<Value>) -> DataResult<Self> {
        check(&schema, &values)?;
        Ok(Tuple::new_unchecked(schema, values))
    }

    /// Build without validation. Used on hot paths where the producer has
    /// already proven conformance (e.g. operators whose output schema was
    /// checked at DAG-build time). The values are copied out of the `Vec`
    /// into the shared allocation; a producer that can name its values as
    /// an iterator saves that copy with [`Tuple::collect_unchecked`].
    pub fn new_unchecked(schema: SchemaRef, values: Vec<Value>) -> Self {
        debug_assert_eq!(values.len(), schema.arity());
        Tuple {
            schema,
            values: values.into(),
        }
    }

    /// [`Tuple::new_unchecked`] from the values in order, built in place:
    /// an iterator of exactly known length (a slice or range, mapped,
    /// cloned, chained, zipped) fills the shared allocation directly —
    /// one allocation per row where a `Vec` costs two.
    pub fn collect_unchecked(schema: SchemaRef, values: impl IntoIterator<Item = Value>) -> Self {
        let values: Arc<[Value]> = values.into_iter().collect();
        debug_assert_eq!(values.len(), schema.arity());
        Tuple { schema, values }
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// All values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the value vector. The values are cloned only when
    /// another clone of this tuple still shares them.
    pub fn into_values(mut self) -> Vec<Value> {
        match Arc::get_mut(&mut self.values) {
            Some(sole) => sole
                .iter_mut()
                .map(|v| std::mem::replace(v, Value::Null))
                .collect(),
            None => self.values.to_vec(),
        }
    }

    /// Value at column index.
    pub fn at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Value of the named column.
    pub fn get(&self, name: &str) -> DataResult<&Value> {
        Ok(&self.values[self.schema.index_of(name)?])
    }

    /// String value of the named column (error if absent; `None` if null,
    /// `Some` otherwise — callers that require a string use `?` twice).
    pub fn get_str(&self, name: &str) -> DataResult<&str> {
        let v = self.get(name)?;
        v.as_str().ok_or_else(|| DataError::TypeMismatch {
            column: name.to_owned(),
            expected: "Str".into(),
            actual: v.dtype().to_string(),
        })
    }

    /// Integer value of the named column.
    pub fn get_int(&self, name: &str) -> DataResult<i64> {
        let v = self.get(name)?;
        v.as_int().ok_or_else(|| DataError::TypeMismatch {
            column: name.to_owned(),
            expected: "Int".into(),
            actual: v.dtype().to_string(),
        })
    }

    /// Float value of the named column (integers widen).
    pub fn get_float(&self, name: &str) -> DataResult<f64> {
        let v = self.get(name)?;
        v.as_float().ok_or_else(|| DataError::TypeMismatch {
            column: name.to_owned(),
            expected: "Float".into(),
            actual: v.dtype().to_string(),
        })
    }

    /// Deterministic wire size of the whole tuple, used for serde/network
    /// cost accounting.
    pub fn encoded_len(&self) -> usize {
        self.values.iter().map(Value::encoded_len).sum()
    }

    /// Concatenate with another tuple under a pre-computed joined schema.
    pub fn concat(&self, other: &Tuple, joined: SchemaRef) -> DataResult<Tuple> {
        let values = self.values.iter().chain(other.values.iter()).cloned();
        let values: Arc<[Value]> = values.collect();
        check(&joined, &values)?;
        Ok(Tuple {
            schema: joined,
            values,
        })
    }
}

/// Arity and per-column type conformance of `values` under `schema`.
fn check(schema: &SchemaRef, values: &[Value]) -> DataResult<()> {
    if values.len() != schema.arity() {
        return Err(DataError::ArityMismatch {
            expected: schema.arity(),
            actual: values.len(),
        });
    }
    for (field, value) in schema.fields().iter().zip(values) {
        if !value.conforms_to(field.dtype()) {
            return Err(DataError::TypeMismatch {
                column: field.name().to_owned(),
                expected: field.dtype().to_string(),
                actual: value.dtype().to_string(),
            });
        }
    }
    Ok(())
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Incremental tuple construction against a schema, by column name.
///
/// Any column left unset becomes [`Value::Null`].
pub struct TupleBuilder {
    schema: SchemaRef,
    values: Vec<Value>,
}

impl TupleBuilder {
    /// Start building a tuple for `schema` with all columns null.
    pub fn new(schema: SchemaRef) -> Self {
        let values = vec![Value::Null; schema.arity()];
        TupleBuilder { schema, values }
    }

    /// Set the named column.
    pub fn set(mut self, name: &str, value: impl Into<Value>) -> DataResult<Self> {
        let idx = self.schema.index_of(name)?;
        self.values[idx] = value.into();
        Ok(self)
    }

    /// Finish, validating types.
    pub fn build(self) -> DataResult<Tuple> {
        Tuple::new(self.schema, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    fn t() -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Int(7), Value::Str("ada".into()), Value::Float(0.5)],
        )
        .unwrap()
    }

    #[test]
    fn validates_arity() {
        let err = Tuple::new(schema(), vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            DataError::ArityMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn validates_types() {
        let err = Tuple::new(
            schema(),
            vec![Value::Str("x".into()), Value::Str("y".into()), Value::Null],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { column, .. } if column == "id"));
    }

    #[test]
    fn null_is_allowed_anywhere() {
        let tup = Tuple::new(schema(), vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert!(tup.at(0).is_null());
    }

    #[test]
    fn typed_getters() {
        let tup = t();
        assert_eq!(tup.get_int("id").unwrap(), 7);
        assert_eq!(tup.get_str("name").unwrap(), "ada");
        assert_eq!(tup.get_float("score").unwrap(), 0.5);
        assert!(tup.get_int("name").is_err());
        assert!(tup.get("missing").is_err());
    }

    #[test]
    fn int_widens_to_float() {
        let s = Schema::of(&[("x", DataType::Float)]);
        // Int stored in a Float column is a type error at construction...
        assert!(Tuple::new(s.clone(), vec![Value::Int(3)]).is_err());
        // ...but get_float widens Int columns.
        let s2 = Schema::of(&[("x", DataType::Int)]);
        let tup = Tuple::new(s2, vec![Value::Int(3)]).unwrap();
        assert_eq!(tup.get_float("x").unwrap(), 3.0);
    }

    #[test]
    fn encoded_len_sums_values() {
        let tup = t();
        assert_eq!(
            tup.encoded_len(),
            Value::Int(7).encoded_len()
                + Value::Str("ada".into()).encoded_len()
                + Value::Float(0.5).encoded_len()
        );
    }

    #[test]
    fn concat_under_joined_schema() {
        let left = t();
        let rs = Schema::of(&[("tag", DataType::Str)]);
        let right = Tuple::new(rs.clone(), vec![Value::Str("x".into())]).unwrap();
        let joined = std::sync::Arc::new(left.schema().join(&rs, "_r").unwrap());
        let c = left.concat(&right, joined).unwrap();
        assert_eq!(c.values().len(), 4);
        assert_eq!(c.get_str("tag").unwrap(), "x");
    }

    #[test]
    fn clones_share_one_allocation_and_into_values_never_disturbs_a_twin() {
        let tup = t();
        let twin = tup.clone();
        assert!(std::ptr::eq(tup.values(), twin.values()));
        assert!(Arc::ptr_eq(tup.schema(), twin.schema()));
        // Shared: the values are copied out, the twin keeps its own.
        let copied = tup.into_values();
        assert_eq!(copied, twin.values());
        assert_ne!(
            copied[1].as_str().unwrap().as_ptr(),
            twin.get_str("name").unwrap().as_ptr()
        );
        // Sole owner: the values move out, string buffers and all.
        let name = twin.get_str("name").unwrap().as_ptr();
        let moved = twin.into_values();
        assert_eq!(moved[1].as_str().unwrap().as_ptr(), name);
        assert_eq!(moved, copied);
    }

    #[test]
    fn every_constructor_builds_the_same_tuple() {
        let values = || vec![Value::Int(7), Value::Str("ada".into()), Value::Float(0.5)];
        let built = [
            Tuple::new_unchecked(schema(), values()),
            Tuple::collect_unchecked(schema(), values()),
            // An exact-size iterator that is not a `Vec`.
            Tuple::collect_unchecked(schema(), t().values().iter().cloned()),
        ];
        for tup in built {
            assert_eq!(tup, t());
            assert_eq!(tup.to_string(), "(7, ada, 0.5)");
            assert_eq!(tup.encoded_len(), t().encoded_len());
        }
        assert_ne!(
            t(),
            Tuple::new(schema(), vec![Value::Int(8), Value::Null, Value::Null]).unwrap()
        );
    }

    #[test]
    fn concat_validates_against_the_joined_schema() {
        let wrong = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("tag", DataType::Int),
        ]);
        let right = Tuple::new(
            Schema::of(&[("tag", DataType::Str)]),
            vec![Value::Str("x".into())],
        )
        .unwrap();
        assert!(matches!(
            t().concat(&right, wrong),
            Err(DataError::TypeMismatch { column, .. }) if column == "tag"
        ));
        assert!(matches!(
            t().concat(&right, schema()),
            Err(DataError::ArityMismatch {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn builder_defaults_to_null() {
        let tup = TupleBuilder::new(schema())
            .set("id", 1i64)
            .unwrap()
            .build()
            .unwrap();
        assert!(tup.get("name").unwrap().is_null());
        assert_eq!(tup.get_int("id").unwrap(), 1);
    }

    #[test]
    fn builder_rejects_unknown_column() {
        assert!(TupleBuilder::new(schema()).set("nope", 1i64).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(t().to_string(), "(7, ada, 0.5)");
    }
}
